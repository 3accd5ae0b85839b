//! The traced run's span recorder: spans around every call the benchmark
//! makes into a simulator layer, kept in a preallocated `Vec` and written
//! as JSONL when the run ends. Spans inside the simulator are not recorded.

use ehs_sim::Scheme;
use ehs_workloads::AppId;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Which run a span belongs to: the pass, and the scheme and app when the
/// span covers one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunKey {
    /// Pass number within the workload (0 is the untimed warm-up).
    pub pass: u32,
    /// Scheme, for per-run spans.
    pub scheme: Option<Scheme>,
    /// Application, for per-app and per-run spans.
    pub app: Option<AppId>,
}

impl RunKey {
    /// The key of a whole pass.
    pub fn pass(pass: u32) -> Self {
        Self {
            pass,
            ..Self::default()
        }
    }

    /// This key narrowed to one application.
    pub fn app(self, app: AppId) -> Self {
        Self {
            app: Some(app),
            ..self
        }
    }

    /// This key narrowed to one scheme.
    pub fn scheme(self, scheme: Scheme) -> Self {
        Self {
            scheme: Some(scheme),
            ..self
        }
    }
}

/// One recorded span. Ids start at 1; `parent` 0 means a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// This span's id.
    pub id: u32,
    /// The enclosing span's id, or 0.
    pub parent: u32,
    /// The run it belongs to.
    pub run: RunKey,
    /// `<layer>.<call>`, or `pass` for a root.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer: the part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans; the innermost open span is the parent of the next.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; returns the handle [`Tracer::close`] takes.
    pub fn open(&mut self, name: &'static str, run: RunKey) -> usize {
        let index = self.spans.len();
        let parent = self.open.last().map_or(0, |&p| self.spans[p].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: u32::try_from(index + 1).expect("fewer than 2^32 spans"),
            parent,
            run,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        index
    }

    /// Closes the innermost open span, which must be `handle`; returns its
    /// duration in seconds.
    pub fn close(&mut self, handle: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(handle), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[handle];
        span.end_ns = end;
        span.secs()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name — each span's duration minus the part its
    /// child spans cover — summed over all spans, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0f64; self.spans.len() + 1];
        for s in &self.spans {
            child[s.parent as usize] += s.secs();
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += s.secs() - child[s.id as usize];
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let mut run = format!("{workload}/{}", s.run.pass);
            if let Some(scheme) = s.run.scheme {
                run.push('/');
                run.push_str(scheme.name());
            }
            if let Some(app) = s.run.app {
                run.push('/');
                run.push_str(app.name());
            }
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                crate::json::quote(&run),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Times calls into a layer, recording a span for each when tracing.
#[derive(Debug)]
pub struct Clock<'t> {
    tracer: Option<&'t mut Tracer>,
}

impl<'t> Clock<'t> {
    /// A clock that records into `tracer`, or only times when `None`.
    pub fn new(tracer: Option<&'t mut Tracer>) -> Self {
        Self { tracer }
    }

    /// Whether spans are being recorded.
    pub fn is_traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Runs `f`, returning its result and its wall time in seconds.
    pub fn time<R>(&mut self, name: &'static str, run: RunKey, f: impl FnOnce() -> R) -> (R, f64) {
        match &mut self.tracer {
            Some(t) => {
                let handle = t.open(name, run);
                let r = f();
                (r, t.close(handle))
            }
            None => {
                let start = Instant::now();
                let r = f();
                (r, start.elapsed().as_secs_f64())
            }
        }
    }

    /// Opens a span enclosing several timed calls (no-op when untraced).
    pub fn open(&mut self, name: &'static str, run: RunKey) -> Option<usize> {
        self.tracer.as_mut().map(|t| t.open(name, run))
    }

    /// Closes a span opened with [`Clock::open`].
    pub fn close(&mut self, handle: Option<usize>) {
        if let (Some(t), Some(h)) = (self.tracer.as_mut(), handle) {
            t.close(h);
        }
    }
}
