//! A vendored, dependency-free subset of the `criterion` API.
//!
//! The build environment has no crates.io access, so this crate provides
//! just enough of criterion for the workspace's benches to compile and run:
//! `criterion_group!`/`criterion_main!`, `Criterion::bench_function`,
//! benchmark groups with throughput annotations, and batched iteration.
//!
//! Statistics are deliberately minimal — each benchmark is timed over
//! `sample_size` batches and the per-iteration mean (plus min) is printed.
//! There is no warm-up analysis, outlier rejection, or HTML report; the
//! numbers are for trend-watching, and `ehs_bench` (`perfbench/`, declared
//! by `BENCHMARK.json`) is the canonical throughput measurement.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `Bencher::iter_batched` amortizes setup cost. The shim runs one
/// setup per measured invocation regardless, so the variants only document
/// intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: upstream batches many per allocation.
    SmallInput,
    /// Large inputs: upstream batches few.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Units the timing is normalized by in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Iterations process this many logical elements each.
    Elements(u64),
    /// Iterations process this many bytes each.
    Bytes(u64),
}

/// Per-invocation timing collector handed to benchmark closures.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Self {
            samples: Vec::with_capacity(sample_size),
            sample_size: sample_size.max(1),
        }
    }

    /// Times `routine` once per sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Times `routine` on a fresh `setup()` input per sample; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }

    fn report(&self, name: &str, throughput: Option<Throughput>) {
        if self.samples.is_empty() {
            println!("{name:<50} (no samples)");
            return;
        }
        let total: Duration = self.samples.iter().sum();
        let mean = total / self.samples.len() as u32;
        let min = *self.samples.iter().min().expect("nonempty");
        print!("{name:<50} mean {mean:>12.3?}   min {min:>12.3?}");
        match throughput {
            Some(Throughput::Elements(n)) => {
                let per_sec = n as f64 / mean.as_secs_f64();
                print!("   {:>12.0} elem/s", per_sec);
            }
            Some(Throughput::Bytes(n)) => {
                let per_sec = n as f64 / mean.as_secs_f64();
                print!("   {:>12.0} B/s", per_sec);
            }
            None => {}
        }
        println!();
    }
}

/// The top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 1, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::new(self.sample_size);
        f(&mut bencher);
        bencher.report(name, None);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
            sample_size: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and throughput annotation.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Annotates how much work one iteration performs.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 1, "sample size must be positive");
        self.sample_size = Some(n);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        let mut bencher = Bencher::new(samples);
        f(&mut bencher);
        bencher.report(&format!("{}/{name}", self.name), self.throughput);
        self
    }

    /// Ends the group (upstream flushes reports here; the shim prints
    /// eagerly, so this is a no-op).
    pub fn finish(self) {}
}

/// Declares a group function that runs the listed benchmark targets.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares `main` for a `harness = false` bench target.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(c: &mut Criterion) {
        c.bench_function("trivial/add", |b| b.iter(|| black_box(1u64) + 1));
        let mut group = c.benchmark_group("grouped");
        group.throughput(Throughput::Elements(4));
        group.sample_size(3);
        group.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8, 2, 3, 4], |v| v.len(), BatchSize::SmallInput)
        });
        group.finish();
    }

    criterion_group!(shim_smoke, trivial);

    #[test]
    fn group_runs_all_targets() {
        shim_smoke();
    }
}
