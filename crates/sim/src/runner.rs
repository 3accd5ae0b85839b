//! Deterministic parallel fan-out of simulation runs, with process-wide
//! memoization, cost-aware scheduling and an optional persistent result
//! cache.
//!
//! Every way of running jobs goes through one producer: [`run_jobs`] and
//! [`try_run_jobs_outputs`] serve the library, the per-figure binaries and
//! `exp_all`. Any number of `exp_all` processes sharing one cache directory
//! run this same producer, so they are a fleet without a second role: each
//! adopts what is on disk, claims and simulates the rest, and waits out the
//! keys a live rival holds.
//!
//! # Memoization
//!
//! Experiment drivers repeat identical runs constantly: every figure's
//! matrix re-runs the baseline column, `mean_speedup_over_seeds` shares its
//! baseline runs with the headline matrix, and the sensitivity sweeps
//! (Figs. 10–17) all contain the paper-default point. Finished results
//! therefore live in a process-wide table keyed by the **effective**
//! configuration fingerprint (see [`effective_fingerprint`]) plus (scheme,
//! app, scale):
//!
//! * A memo hit returns the stored result with [`RunResult::sim_mips`]
//!   zeroed (wall-clock throughput is meaningless for a lookup); `sim_mips`
//!   is excluded from `PartialEq`, so memoized and fresh results compare
//!   equal — the determinism tests rely on exactly that.
//! * When a binary has installed the persistent cache
//!   ([`crate::runcache::install`]), a key missing from memory is looked up
//!   on disk before simulating, and a fresh execution is stored back — so a
//!   second process replays instead of re-simulating. The library default
//!   is *no* disk cache; tests and library callers run purely in-process.
//!
//! [`run_app`](crate::run_app) remains uncached for callers that want a guaranteed fresh
//! execution (e.g. throughput measurement).
//!
//! # Work items
//!
//! A call deduplicates its jobs to one unit per memo key ([`unique_jobs`])
//! and groups the units into work items. Units that share a raw
//! configuration fingerprint, app and scale — the common shape of every
//! figure's scheme matrix — are one workload replay observed under
//! different predictors, and run as one **lockstep group**: one fully
//! monomorphized lane per scheme (see [`crate::build_lane`]), all driven
//! over the shared workload by the one lockstep drive that
//! [`crate::run_lockstep`] also uses. Every
//! lane's result is bit-identical to an independent run (the `lockstep`
//! differential suite asserts it).
//!
//! The `Ideal` scheme's oracle pass *is* a baseline run, so an `Ideal` unit
//! joins the item that holds its baseline's memo key. The Baseline lane
//! records the generation trace only when the item still has an `Ideal`
//! key to produce, and the `Ideal` lane runs after the group on that trace
//! — the oracle pass and the baseline column are **one** execution
//! ([`baseline_executions`] counts them). If the baseline was not simulated
//! here (it came from memory, from disk or from another process) or its
//! lane failed, the `Ideal` re-records the trace once, and that run counts
//! in both execution counters.
//!
//! # Producing an item
//!
//! Per key: a memo hit is done, and a disk hit is adopted into the memo.
//! Otherwise the key is claimed ([`runcache::RunCache::claim`], a kernel
//! file lock) and the disk checked again under the claim. The claimed keys
//! simulate, and each finished key is stored and journaled before its
//! claim is released. A key that another process holds is revisited on a
//! later sweep (a sweep that settled nothing backs off with jitter, at most
//! 320 ms) until its entry lands on disk or its holder dies, which releases
//! the claim at once. An `Ideal` key is opened only once its baseline is
//! settled or claimed by the same visit, so it never re-records a baseline
//! that a rival is still simulating.
//!
//! Items run longest-estimated-first (see [`Job::estimated_cost`]) from
//! one queue shared by every thread, so a `Full`-scale straggler cannot
//! land last on an otherwise-drained pool, while results are still
//! returned in input order — scheduling never changes the output.
//!
//! # Exclusivity and fault containment
//!
//! Claims are the only exclusion between processes. Inside one process, the
//! items of a call are disjoint, so no key has two producers, and
//! concurrent calls take turns on one process-wide lock held for the
//! whole call.
//!
//! A panicking lane is a *result*, not a process event: it fails exactly
//! its own key's jobs ([`JobError`]) while every other key completes, and
//! the key stays out of the memo, so the next call retries it. Nothing
//! else fails a key: a claim that cannot be taken is simulated unclaimed
//! (duplicate work is safe, stalling is not), and a store that fails keeps
//! the result in memory, unjournaled, after one warning. No table in this
//! module can stay poisoned (see `lock_unpoisoned`). The deterministic
//! fault-injection harness ([`crate::fault`]) exercises these paths.

use crate::{
    config_fingerprint, fault, runcache, LaneRun, RunOutcome, RunResult, Scheme, SystemConfig,
    ZombieSample,
};
use edbp_core::{EdbpConfig, GenerationTrace};
use ehs_cache::Cache;
use ehs_workloads::{build, AppId, Scale, Workload};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Locks `m`, recovering the data if a previous holder panicked.
///
/// Every table in this module is a grow-only map (or an append-only vec)
/// whose entries are only ever *inserted whole*: a panic while the lock is
/// held can at worst lose the insertion in flight, never leave a partial
/// entry. Recovering is therefore always sound — and mandatory, because a
/// single panicking job must not wedge every later suite in the process
/// behind a poisoned mutex (the pre-fault-tolerance latency bomb).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One run request. The configuration is shared by `Arc`, so fanning a
/// matrix out over hundreds of jobs clones a pointer, not the config.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Platform configuration (shared, immutable).
    pub config: Arc<SystemConfig>,
    /// Scheme to simulate.
    pub scheme: Scheme,
    /// Application.
    pub app: AppId,
    /// Workload scale.
    pub scale: Scale,
}

impl Job {
    /// Estimated relative cost of this job, for longest-first scheduling.
    ///
    /// The model is `committed-instructions(app at Tiny) × scale ×
    /// scheme × stepping` where the per-app term is the committed count
    /// *measured* at `Tiny` scale (the `BENCH_hotloop.json` instrumentation
    /// runs), the scale term follows the pass ratio (Tiny 1, Small 8,
    /// Full 80), the scheme term reflects predictor bookkeeping (and the
    /// Ideal scheme's extra oracle pass), and zombie-instrumented or
    /// forced-cycle-accurate configs pay the ~6× cost of not burst-stepping.
    /// Only the *ordering* of estimates matters; absolute values are
    /// unitless.
    pub fn estimated_cost(&self) -> f64 {
        let stepping =
            if self.config.zombie_sample_interval.is_some() || self.config.force_cycle_accurate {
                6.0
            } else {
                1.0
            };
        app_cost_weight(self.app)
            * scale_cost_weight(self.scale)
            * scheme_cost_weight(self.scheme)
            * stepping
    }
}

/// Committed instructions per app at `Tiny` scale, measured on the
/// paper-default configuration (the per-app term of the cost model).
fn app_cost_weight(app: AppId) -> f64 {
    let committed: u64 = match app {
        AppId::AdpcmEnc => 9_998,
        AppId::AdpcmDec => 4_878,
        AppId::Crc32 => 11_278,
        AppId::Sha => 21_266,
        AppId::Dijkstra => 52_244,
        AppId::Patricia => 63_376,
        AppId::StringSearch => 7_182,
        AppId::Bitcount => 94_222,
        AppId::BasicMath => 87_826,
        AppId::Qsort => 49_172,
        AppId::SusanSmoothing => 17_876,
        AppId::SusanEdges => 19_988,
        AppId::SusanCorners => 23_828,
        AppId::Fft => 13_308,
        AppId::Ifft => 13_308,
        AppId::JpegEnc => 60_468,
        AppId::JpegDec => 43_046,
        AppId::GsmEnc => 48_438,
        AppId::GsmDec => 25_638,
        AppId::Mpeg2Dec => 47_906,
    };
    committed as f64
}

fn scale_cost_weight(scale: Scale) -> f64 {
    match scale {
        Scale::Tiny => 1.0,
        Scale::Small => 8.0,
        Scale::Full => 80.0,
    }
}

fn scheme_cost_weight(scheme: Scheme) -> f64 {
    match scheme {
        Scheme::Ideal => 2.05,
        Scheme::DecayEdbp | Scheme::AmcEdbp => 1.25,
        Scheme::Edbp => 1.2,
        Scheme::Sdbp => 1.15,
        Scheme::Decay | Scheme::Amc => 1.1,
        Scheme::Baseline | Scheme::LeakageOff80 => 1.0,
    }
}

/// The memoization (and persistent-cache) fingerprint of `config` *as
/// observed by* `scheme`.
///
/// Two configurations that cannot change the simulated outcome under the
/// given scheme must share a key, or cross-experiment dedup misses real
/// sharing. The raw [`config_fingerprint`] hashes every field, so this
/// canonicalizes the one field with scheme-dependent reach before hashing:
///
/// * `config.edbp` is cleared for schemes that build no EDBP predictor
///   (`!scheme.uses_edbp()`): nothing in such a simulation reads it.
/// * An explicit `Some(cfg)` equal to the derived default
///   ([`EdbpConfig::for_cache`] of the data cache) is cleared too — the
///   simulator's fallback produces exactly that value — **unless** an
///   instruction-cache predictor is also built (`predict_icache` on an SRAM
///   icache), because the icache predictor's own fallback derives from the
///   *icache* geometry, so the explicit value is observable there.
///
/// The equivalence is pinned by a differential test
/// (`explicit_default_edbp_config_is_equivalent`).
pub fn effective_fingerprint(config: &SystemConfig, scheme: Scheme) -> u64 {
    if let Some(explicit) = &config.edbp {
        let drop = if scheme.uses_edbp() {
            let icache_predictor = config.predict_icache && !config.icache_tech.is_nonvolatile();
            !icache_predictor && *explicit == EdbpConfig::for_cache(&Cache::new(config.dcache))
        } else {
            true
        };
        if drop {
            let mut canonical = config.clone();
            canonical.edbp = None;
            return config_fingerprint(&canonical);
        }
    }
    config_fingerprint(config)
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct MemoKey {
    config_fp: u64,
    scheme: Scheme,
    app: AppId,
    scale: Scale,
}

impl MemoKey {
    fn of(job: &Job) -> Self {
        Self {
            config_fp: effective_fingerprint(&job.config, job.scheme),
            scheme: job.scheme,
            app: job.app,
            scale: job.scale,
        }
    }

    fn stem(&self) -> String {
        runcache::entry_stem(self.config_fp, self.scheme, self.app, self.scale)
    }
}

/// One finished simulation.
struct MemoEntry {
    /// The result, `sim_mips` zeroed.
    result: RunResult,
    /// Zombie samples; `Some` exactly when the config was instrumented
    /// ([`SystemConfig::zombie_sample_interval`]).
    zombies: Option<Arc<Vec<ZombieSample>>>,
}

static MEMO: OnceLock<Mutex<HashMap<MemoKey, MemoEntry>>> = OnceLock::new();
static BASELINE_EXECUTIONS: AtomicU64 = AtomicU64::new(0);
static SIM_EXECUTIONS: AtomicU64 = AtomicU64::new(0);

/// The table of finished entries.
fn memo() -> MutexGuard<'static, HashMap<MemoKey, MemoEntry>> {
    lock_unpoisoned(MEMO.get_or_init(Mutex::default))
}

/// Number of actual (non-memoized) baseline simulations executed by the
/// memoization layer since process start. Test hook for the "an Ideal
/// matrix runs the baseline exactly once per (app, config, seed)" property.
pub fn baseline_executions() -> u64 {
    BASELINE_EXECUTIONS.load(Ordering::Relaxed)
}

/// Number of actual simulations (any scheme, including oracle-trace
/// refills) executed by the memoization layer since process start. Memo
/// hits and persistent-cache replays do not count — which is exactly what
/// the planner's dedup accounting and the warm-cache CI check measure.
pub fn simulations_executed() -> u64 {
    SIM_EXECUTIONS.load(Ordering::Relaxed)
}

/// Built workloads, one per (app, scale). Synthesizing an instruction trace
/// is pure but not free; across a deduplicated suite pass every simulation
/// shares the one build (a [`Workload`] clone only bumps the program's
/// refcount).
static WORKLOADS: OnceLock<Mutex<HashMap<(AppId, Scale), Workload>>> = OnceLock::new();

/// The memoized build of `app` at `scale`.
pub(crate) fn cached_workload(app: AppId, scale: Scale) -> Workload {
    lock_unpoisoned(WORKLOADS.get_or_init(Mutex::default))
        .entry((app, scale))
        .or_insert_with(|| build(app, scale))
        .clone()
}

fn baseline_key(config: &SystemConfig, app: AppId, scale: Scale) -> MemoKey {
    MemoKey {
        config_fp: effective_fingerprint(config, Scheme::Baseline),
        scheme: Scheme::Baseline,
        app,
        scale,
    }
}

/// Entry stems (see [`runcache::entry_stem`]) of every simulation this
/// process actually executed, for the planner's resume accounting.
static EXECUTED_STEMS: OnceLock<Mutex<Vec<String>>> = OnceLock::new();

/// The cache-entry stems of every simulation executed (not memo- or
/// cache-replayed) by this process, in completion order. The planner's
/// `--expect-resumable` check cross-references these against the suite
/// journal: a journaled job that shows up here was lost and re-simulated —
/// a broken resume contract.
pub fn executed_entry_stems() -> Vec<String> {
    EXECUTED_STEMS
        .get()
        .map(|v| lock_unpoisoned(v).clone())
        .unwrap_or_default()
}

/// Everything one job's run produced.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The run's aggregate statistics.
    pub result: RunResult,
    /// Zombie samples, shared across requesters; `Some` exactly when the
    /// job's config set [`SystemConfig::zombie_sample_interval`].
    pub zombie_samples: Option<Arc<Vec<ZombieSample>>>,
}

/// One job's failure, carried out of the worker pool instead of unwinding
/// through it. The config is identified by its effective fingerprint (the
/// memo/cache key) so the failure is attributable in a structured summary.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Effective configuration fingerprint of the failed job.
    pub config_fp: u64,
    /// Scheme of the failed job.
    pub scheme: Scheme,
    /// Application of the failed job.
    pub app: AppId,
    /// Workload scale of the failed job.
    pub scale: Scale,
    /// The panic payload (or a placeholder for non-string payloads).
    pub message: String,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{:016x}]: {}",
            runcache::entry_stem(self.config_fp, self.scheme, self.app, self.scale),
            self.config_fp,
            self.message
        )
    }
}

impl std::error::Error for JobError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// One distinct memo key of a call, with the job that represents it.
struct Unit {
    key: MemoKey,
    job: Job,
}

/// Deduplicates `jobs` to one unit per memo key, adding the implicit
/// oracle-baseline unit behind any `Ideal` key whose baseline is not itself
/// requested (each baseline comes before the `Ideal` units that consume
/// it). Also returns each job's unit.
fn units_of(jobs: &[Job]) -> (Vec<Unit>, Vec<usize>) {
    let mut index: HashMap<MemoKey, usize> = HashMap::with_capacity(jobs.len());
    let mut units: Vec<Unit> = Vec::new();
    let mut intern = |key: MemoKey, job: &Job| match index.entry(key) {
        Entry::Occupied(e) => *e.get(),
        Entry::Vacant(e) => {
            units.push(Unit {
                key: e.key().clone(),
                job: Job {
                    scheme: e.key().scheme,
                    ..job.clone()
                },
            });
            *e.insert(units.len() - 1)
        }
    };
    let unit_of = jobs
        .iter()
        .map(|job| {
            if job.scheme.needs_oracle_trace() {
                intern(baseline_key(&job.config, job.app, job.scale), job);
            }
            intern(MemoKey::of(job), job)
        })
        .collect();
    (units, unit_of)
}

/// Groups `units` into work items, longest-estimated-first (ties keep
/// first-appearance order). Units that share a raw configuration
/// fingerprint, app and scale form one item; each `Ideal` unit joins the
/// item that holds its baseline's memo key.
fn work_items(units: &[Unit]) -> Vec<Vec<usize>> {
    let mut items: Vec<Vec<usize>> = Vec::new();
    let mut parts: HashMap<(u64, AppId, Scale), usize> = HashMap::new();
    let mut baselines: HashMap<&MemoKey, usize> = HashMap::new();
    for (u, unit) in units.iter().enumerate() {
        let job = &unit.job;
        let item = if job.scheme.needs_oracle_trace() {
            baselines[&baseline_key(&job.config, job.app, job.scale)]
        } else {
            let part = (config_fingerprint(&job.config), job.app, job.scale);
            *parts.entry(part).or_insert_with(|| {
                items.push(Vec::new());
                items.len() - 1
            })
        };
        if job.scheme == Scheme::Baseline {
            baselines.insert(&unit.key, item);
        }
        items[item].push(u);
    }
    let mut ranked: Vec<(f64, Vec<usize>)> = items
        .into_iter()
        .map(|item| {
            let cost = item.iter().map(|&u| units[u].job.estimated_cost()).sum();
            (cost, item)
        })
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    ranked.into_iter().map(|(_, item)| item).collect()
}

/// A unit's progress within one [`produce`] call.
enum Status {
    /// Not settled yet: opened on this or a later sweep.
    Open,
    /// Simulated by this call, at this `sim_mips`.
    Produced {
        sim_mips: f64,
    },
    /// Found already produced: in the memo or on disk.
    Found,
    Failed(String),
}

/// The claim this process holds on a key it is about to simulate; `None`
/// when the key simulates unclaimed (no cache, or claims unavailable).
struct Claim {
    unit: usize,
    guard: Option<runcache::ClaimGuard>,
}

/// One [`produce`] call's shared state.
struct Producer<'a> {
    units: &'a [Unit],
    cache: Option<&'static runcache::RunCache>,
    status: Vec<Mutex<Status>>,
}

/// Serializes produce calls within the process (see the module docs).
static TURN: Mutex<()> = Mutex::new(());

/// First pause after a sweep that settled nothing; it doubles with each
/// further idle sweep, up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Longest pause between sweeps while rivals hold every open key.
const BACKOFF_CAP: Duration = Duration::from_millis(320);

/// The pause after `idle_sweeps` (≥ 1) sweeps in a row settled nothing:
/// [`BACKOFF_BASE`] doubled per idle sweep, at most [`BACKOFF_CAP`], drawn
/// from `[delay/2, delay)` so rival processes do not poll in step.
fn idle_backoff(idle_sweeps: u32, rng: &mut u64) -> Duration {
    let doublings = idle_sweeps.saturating_sub(1).min(16);
    let delay = BACKOFF_BASE.saturating_mul(1 << doublings).min(BACKOFF_CAP);
    *rng = splitmix(*rng);
    let nanos = delay.as_nanos() as u64;
    Duration::from_nanos(nanos / 2 + *rng % (nanos / 2))
}

/// Produces every unit, sweeping the work items on `threads` threads until
/// none is left open. Returns each unit's final status.
fn produce(units: &[Unit], threads: usize) -> Vec<Status> {
    assert!(threads >= 1, "need at least one thread");
    let _turn = lock_unpoisoned(&TURN);
    let producer = Producer {
        units,
        cache: runcache::active(),
        status: units.iter().map(|_| Mutex::new(Status::Open)).collect(),
    };
    let items = work_items(units);
    let mut pending: Vec<usize> = (0..items.len()).collect();
    let mut rng = jitter_seed();
    let mut idle_sweeps = 0u32;
    while !pending.is_empty() {
        let next = AtomicUsize::new(0);
        let progressed = AtomicBool::new(false);
        let still_open = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..threads.min(pending.len()) {
                scope.spawn(|| {
                    while let Some(&i) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (moved, open) = producer.visit(&items[i]);
                        if moved {
                            progressed.store(true, Ordering::Relaxed);
                        }
                        if open {
                            lock_unpoisoned(&still_open).push(i);
                        }
                    }
                });
            }
        });
        pending = still_open
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        pending.sort_unstable(); // back to longest-first order
        if progressed.into_inner() {
            idle_sweeps = 0;
        } else if !pending.is_empty() {
            // Other processes hold every remaining claim.
            idle_sweeps += 1;
            std::thread::sleep(idle_backoff(idle_sweeps, &mut rng));
        }
    }
    producer
        .status
        .into_iter()
        .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

impl Producer<'_> {
    fn settle(&self, unit: usize, status: Status) {
        *lock_unpoisoned(&self.status[unit]) = status;
    }

    fn is_open(&self, unit: usize) -> bool {
        matches!(*lock_unpoisoned(&self.status[unit]), Status::Open)
    }

    fn open_units(&self, item: &[usize]) -> usize {
        item.iter().filter(|&&u| self.is_open(u)).count()
    }

    /// One visit to one item: opens its open keys, simulates the ones this
    /// process claimed, and finishes them. Returns whether any key settled
    /// and whether any is still open.
    ///
    /// An `Ideal` key opens only when this visit holds its baseline's claim
    /// or the baseline has settled; while a rival holds the baseline, the
    /// `Ideal` waits for a later sweep rather than re-record the baseline
    /// as its oracle. The baseline precedes its `Ideal`s in the item (see
    /// [`units_of`]).
    fn visit(&self, item: &[usize]) -> (bool, bool) {
        let open_before = self.open_units(item);
        let mut group = Vec::new();
        let mut oracles = Vec::new();
        let mut baseline_ready = false;
        for &unit in item {
            let scheme = self.units[unit].key.scheme;
            if scheme.needs_oracle_trace() && !baseline_ready {
                continue;
            }
            let claim = if self.is_open(unit) {
                self.open(unit)
            } else {
                None
            };
            if scheme == Scheme::Baseline {
                baseline_ready = claim.is_some() || !self.is_open(unit);
            }
            match claim {
                Some(claim) if scheme.needs_oracle_trace() => oracles.push(claim),
                Some(claim) => group.push(claim),
                None => {}
            }
        }

        let record = !oracles.is_empty();
        let mut lanes = Vec::new();
        let mut running = Vec::new();
        for claim in group {
            let job = &self.units[claim.unit].job;
            match start(
                job,
                job.scheme,
                None,
                record && job.scheme == Scheme::Baseline,
            ) {
                Ok(lane) => {
                    lanes.push(lane);
                    running.push(claim);
                }
                Err(message) => self.settle(claim.unit, Status::Failed(message)),
            }
        }
        let mut trace = None;
        for (claim, mut outcome) in running.into_iter().zip(simulate(lanes)) {
            if let Ok(run) = &mut outcome {
                trace = trace.or(run.trace.take());
            }
            self.finish(claim, outcome);
        }

        for claim in oracles {
            let job = &self.units[claim.unit].job;
            let oracle = match trace.take() {
                Some(trace) => Ok(trace),
                None => start(job, Scheme::Baseline, None, true)
                    .and_then(|lane| simulate(vec![lane]).pop().expect("one lane"))
                    .map(|run| run.trace.expect("recorder was attached")),
            };
            let outcome = oracle
                .and_then(|oracle| start(job, job.scheme, Some(oracle), false))
                .and_then(|lane| simulate(vec![lane]).pop().expect("one lane"));
            self.finish(claim, outcome);
        }

        let open_after = self.open_units(item);
        (open_after < open_before, open_after > 0)
    }

    /// Opens one key. Returns the claim to simulate it under, or `None`
    /// when there is nothing to simulate now: the key settled, or another
    /// process holds it.
    fn open(&self, unit: usize) -> Option<Claim> {
        let key = &self.units[unit].key;
        if memo().contains_key(key) {
            self.settle(unit, Status::Found);
            return None;
        }
        let Some(cache) = self.cache else {
            return Some(Claim { unit, guard: None });
        };
        if self.adopt(cache, key) {
            self.settle(unit, Status::Found);
            return None;
        }
        match cache.claim(key.config_fp, key.scheme, key.app, key.scale) {
            runcache::ClaimOutcome::Held(guard) => {
                // Re-check under the claim: a rival may have stored (and
                // journaled) this key between the load and the claim.
                if self.adopt(cache, key) {
                    self.settle(unit, Status::Found);
                    return None;
                }
                Some(Claim {
                    unit,
                    guard: Some(guard),
                })
            }
            runcache::ClaimOutcome::Busy => None,
            // Duplicate work is safe, stalling is not.
            runcache::ClaimOutcome::Unavailable => Some(Claim { unit, guard: None }),
        }
    }

    /// Loads `key` from disk into the memo; whether it was there.
    fn adopt(&self, cache: &runcache::RunCache, key: &MemoKey) -> bool {
        let Some(hit) = cache.load(key.config_fp, key.scheme, key.app, key.scale) else {
            return false;
        };
        let entry = MemoEntry {
            result: hit.result,
            zombies: hit.zombie_samples.map(Arc::new),
        };
        memo().insert(key.clone(), entry);
        true
    }

    /// Finishes one simulated key: store and journal it, memoize it, then
    /// release its claim. A failed store keeps the result in memory only
    /// (the cache warns once); it is not journaled, because journaled means
    /// replayable.
    fn finish(&self, claim: Claim, outcome: Result<RunOutcome, String>) {
        let Claim { unit, guard } = claim;
        let mut run = match outcome {
            Ok(run) => run,
            Err(message) => return self.settle(unit, Status::Failed(message)),
        };
        let key = &self.units[unit].key;
        lock_unpoisoned(EXECUTED_STEMS.get_or_init(Mutex::default)).push(key.stem());
        let sim_mips = std::mem::take(&mut run.result.sim_mips);
        let entry = MemoEntry {
            result: run.result,
            zombies: self.units[unit]
                .job
                .config
                .zombie_sample_interval
                .is_some()
                .then(|| Arc::new(run.zombie_samples)),
        };
        if let Some(cache) = self.cache {
            let zombies = entry.zombies.as_deref().map(Vec::as_slice);
            if cache.store(
                key.config_fp,
                key.scheme,
                key.app,
                key.scale,
                &entry.result,
                zombies,
            ) {
                cache.journal_append(&key.stem());
            }
        }
        memo().insert(key.clone(), entry);
        self.settle(unit, Status::Produced { sim_mips });
        drop(guard);
    }
}

/// Starts one simulation of `job`'s configuration, app and scale under
/// `scheme` — the one place that fires [`fault::on_execute`] and counts
/// executions.
fn start(
    job: &Job,
    scheme: Scheme,
    oracle: Option<GenerationTrace>,
    record: bool,
) -> Result<Box<dyn LaneRun>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        fault::on_execute(job.config.zombie_sample_interval.is_some());
        SIM_EXECUTIONS.fetch_add(1, Ordering::Relaxed);
        if scheme == Scheme::Baseline {
            BASELINE_EXECUTIONS.fetch_add(1, Ordering::Relaxed);
        }
        let workload = cached_workload(job.app, job.scale);
        crate::build_lane(&job.config, scheme, workload, oracle, record)
            .unwrap_or_else(|e| panic!("invalid energy configuration: {e}"))
    }))
    .map_err(panic_message)
}

/// Drives `lanes` to completion as one lockstep group
/// ([`crate::system::run_group`]). Returns, per lane, its outcome or its
/// panic message; a panicking lane never disturbs its siblings.
fn simulate(lanes: Vec<Box<dyn LaneRun>>) -> Vec<Result<RunOutcome, String>> {
    crate::system::run_group(lanes)
        .into_iter()
        .map(|outcome| outcome.map_err(panic_message))
        .collect()
}

fn job_error(key: &MemoKey, message: &str) -> JobError {
    JobError {
        config_fp: key.config_fp,
        scheme: key.scheme,
        app: key.app,
        scale: key.scale,
        message: message.to_string(),
    }
}

/// [`run_jobs_outputs`], but a panicking job is contained to its own
/// result slot instead of taking the whole pool (and every sibling
/// experiment) down: its key fails with a [`JobError`] and every other
/// job completes.
///
/// A failed key stays out of the memo, so a later call for the same key
/// retries the execution — a transient fault costs one retry, it does not
/// poison the key for the rest of the process.
pub fn try_run_jobs_outputs(jobs: &[Job], threads: usize) -> Vec<Result<JobOutput, JobError>> {
    try_run_jobs_counted(jobs, threads).0
}

/// [`try_run_jobs_outputs`], plus the number of distinct simulations the
/// jobs need ([`count_unique`]), taken from the same dedup pass.
pub(crate) fn try_run_jobs_counted(
    jobs: &[Job],
    threads: usize,
) -> (Vec<Result<JobOutput, JobError>>, usize) {
    let (units, unit_of) = units_of(jobs);
    let status = produce(&units, threads);
    let memo = memo();
    let outputs = unit_of
        .into_iter()
        .map(|u| {
            let key = &units[u].key;
            let sim_mips = match &status[u] {
                Status::Produced { sim_mips } => *sim_mips,
                Status::Found => 0.0,
                Status::Failed(message) => return Err(job_error(key, message)),
                Status::Open => unreachable!("produce settles every unit"),
            };
            let entry = &memo[key];
            let mut result = entry.result.clone();
            result.sim_mips = sim_mips;
            Ok(JobOutput {
                result,
                zombie_samples: entry.zombies.clone(),
            })
        })
        .collect();
    (outputs, units.len())
}

/// [`run_jobs`], but returning each job's full [`JobOutput`] (Fig. 4 needs
/// the zombie samples, not just the aggregate result). Panics if any job
/// panicked — callers that must survive individual job failures use
/// [`try_run_jobs_outputs`] (the suite planner does).
pub fn run_jobs_outputs(jobs: &[Job], threads: usize) -> Vec<JobOutput> {
    try_run_jobs_outputs(jobs, threads)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("job failed: {e}")))
        .collect()
}

/// Runs all jobs, fanning out across `threads` scoped OS threads, and
/// returns results in the same order as the input — parallelism never
/// changes the output. Identical jobs (same effective config, scheme, app,
/// scale) are executed once per process and recalled from the memoization
/// table.
pub fn run_jobs(jobs: &[Job], threads: usize) -> Vec<RunResult> {
    run_jobs_outputs(jobs, threads)
        .into_iter()
        .map(|o| o.result)
        .collect()
}

/// The flat job list of a scheme × app matrix, in `[scheme][app]` order.
pub fn matrix_jobs(
    config: &SystemConfig,
    schemes: &[Scheme],
    apps: &[AppId],
    scale: Scale,
) -> Vec<Job> {
    let config = Arc::new(config.clone());
    schemes
        .iter()
        .flat_map(|&scheme| {
            let config = &config;
            apps.iter().map(move |&app| Job {
                config: Arc::clone(config),
                scheme,
                app,
                scale,
            })
        })
        .collect()
}

/// Convenience: runs every app of the paper's suite under each scheme and
/// returns results indexed `[scheme][app]` in input order.
pub fn run_matrix(
    config: &SystemConfig,
    schemes: &[Scheme],
    apps: &[AppId],
    scale: Scale,
    threads: usize,
) -> Vec<Vec<RunResult>> {
    let flat = run_jobs(&matrix_jobs(config, schemes, apps, scale), threads);
    flat.chunks(apps.len()).map(<[RunResult]>::to_vec).collect()
}

/// Number of distinct simulations a cache-cold run of `jobs` executes:
/// distinct effective memo keys, plus the implicit baseline execution
/// behind any `Ideal` key whose baseline is not itself requested. The
/// planner's dedup accounting asserts `simulations_executed()` lands
/// exactly here.
pub fn count_unique(jobs: &[Job]) -> usize {
    unique_jobs(jobs).len()
}

/// Geometric mean of an iterator of positive factors (the paper reports
/// mean speedups across the 20 applications).
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for x in xs {
        assert!(x > 0.0, "geomean needs positive values");
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Runs `scheme` vs. [`Scheme::Baseline`] over `apps` for several trace
/// seeds and returns the seed-averaged geomean speedup — the noise-reduced
/// headline number (single-seed outage schedules carry real variance; the
/// paper's hours-long runs average it out intrinsically).
pub fn mean_speedup_over_seeds(
    config: &SystemConfig,
    scheme: Scheme,
    apps: &[AppId],
    scale: Scale,
    seeds: &[u64],
    threads: usize,
) -> f64 {
    assert!(!seeds.is_empty(), "need at least one seed");
    let flat = run_jobs(
        &seed_sweep_jobs(config, scheme, apps, scale, seeds),
        threads,
    );
    let per_seed = flat.chunks(2 * apps.len()).map(|chunk| {
        let (base, tested) = chunk.split_at(apps.len());
        geomean(
            base.iter()
                .zip(tested)
                .map(|(b, r)| b.total_time() / r.total_time()),
        )
    });
    geomean(per_seed)
}

/// The flat job list behind [`mean_speedup_over_seeds`]: one entry per
/// (seed, Baseline | `scheme`, app) cell, in `[seed][scheme][app]` order, so
/// a single [`run_jobs`] fan-out keeps all worker threads busy across seed
/// boundaries instead of draining the pool at the end of each seed's
/// matrix. Public so the suite planner can pre-register these runs.
pub fn seed_sweep_jobs(
    config: &SystemConfig,
    scheme: Scheme,
    apps: &[AppId],
    scale: Scale,
    seeds: &[u64],
) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(seeds.len() * 2 * apps.len());
    for &seed in seeds {
        let mut seeded = config.clone();
        if let crate::SourceKind::Preset { preset, scale, .. } = seeded.source {
            seeded.source = crate::SourceKind::Preset {
                preset,
                seed,
                scale,
            };
        }
        let seeded = Arc::new(seeded);
        for job_scheme in [Scheme::Baseline, scheme] {
            for &app in apps {
                jobs.push(Job {
                    config: Arc::clone(&seeded),
                    scheme: job_scheme,
                    app,
                    scale,
                });
            }
        }
    }
    jobs
}

/// Default worker-thread count: all but one hardware thread.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1)
}

/// A process-unique, time-salted seed for backoff jitter.
fn jitter_seed() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0);
    splitmix(
        nanos ^ (u64::from(std::process::id()) << 32) ^ COUNTER.fetch_add(1, Ordering::Relaxed),
    )
}

/// One splitmix64 step — the deterministic mixer behind backoff jitter.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deduplicates `jobs` to one representative per distinct memo key, adding
/// the implicit oracle-baseline job behind any `Ideal` key whose baseline is
/// not itself requested — the exact set of simulations a cache-cold run
/// executes, in input order (baselines before the Ideal jobs that consume
/// them).
pub fn unique_jobs(jobs: &[Job]) -> Vec<Job> {
    units_of(jobs).0.into_iter().map(|unit| unit.job).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// A deterministic pool of real jobs: the whole Tiny suite plan.
    fn pool() -> &'static [Job] {
        static POOL: OnceLock<Vec<Job>> = OnceLock::new();
        POOL.get_or_init(|| crate::planner::plan_suite(Scale::Tiny).jobs)
    }

    /// Samples a non-empty subset of `pool` from the seeds.
    fn subset(pool: &[Job], seeds: &[u64]) -> Vec<Job> {
        let mut jobs: Vec<Job> = seeds
            .iter()
            .map(|&s| pool[(s as usize) % pool.len()].clone())
            .collect();
        if jobs.is_empty() {
            jobs.push(pool[0].clone());
        }
        jobs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn work_items_tile_the_unique_jobs(
            seeds in proptest::collection::vec(any::<u64>(), 1..60),
        ) {
            let jobs = subset(pool(), &seeds);
            let (units, _) = units_of(&jobs);
            let tiled: Vec<&MemoKey> = work_items(&units)
                .iter()
                .flatten()
                .map(|&u| &units[u].key)
                .collect();
            let unique = unique_jobs(&jobs);
            prop_assert_eq!(tiled.len(), unique.len());
            let tiled: HashSet<&MemoKey> = tiled.into_iter().collect();
            prop_assert_eq!(tiled.len(), unique.len(), "a memo key sits in two items");
            for job in &unique {
                prop_assert!(tiled.contains(&MemoKey::of(job)), "a unique job is in no item");
            }
        }

        #[test]
        fn every_ideal_shares_an_item_with_its_baseline(
            seeds in proptest::collection::vec(any::<u64>(), 0..40),
            ideal_seeds in proptest::collection::vec(any::<u64>(), 1..8),
        ) {
            let ideals: Vec<Job> = pool()
                .iter()
                .filter(|j| j.scheme.needs_oracle_trace())
                .cloned()
                .collect();
            let mut jobs = subset(pool(), &seeds);
            jobs.extend(subset(&ideals, &ideal_seeds));
            let (units, _) = units_of(&jobs);
            for item in work_items(&units) {
                let keys: HashSet<&MemoKey> = item.iter().map(|&u| &units[u].key).collect();
                for &u in &item {
                    let job = &units[u].job;
                    if job.scheme.needs_oracle_trace() {
                        let baseline = baseline_key(&job.config, job.app, job.scale);
                        prop_assert!(keys.contains(&baseline), "an Ideal left its baseline");
                    }
                }
            }
        }

        #[test]
        fn non_ideal_keys_of_an_item_share_fingerprint_app_and_scale(
            seeds in proptest::collection::vec(any::<u64>(), 1..60),
        ) {
            let jobs = subset(pool(), &seeds);
            let (units, _) = units_of(&jobs);
            for item in work_items(&units) {
                let parts: HashSet<(u64, AppId, Scale)> = item
                    .iter()
                    .map(|&u| &units[u].job)
                    .filter(|job| !job.scheme.needs_oracle_trace())
                    .map(|job| (config_fingerprint(&job.config), job.app, job.scale))
                    .collect();
                prop_assert_eq!(parts.len(), 1);
            }
        }
    }

    #[test]
    fn geomean_of_identity_is_one() {
        assert!((geomean([1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(std::iter::empty()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean([2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean([1.0, 0.0]);
    }

    #[test]
    fn run_jobs_preserves_input_order() {
        let config = SystemConfig::paper_default();
        let config = Arc::new(config);
        let jobs: Vec<Job> = [AppId::Crc32, AppId::Bitcount]
            .iter()
            .map(|&app| Job {
                config: Arc::clone(&config),
                scheme: Scheme::Baseline,
                app,
                scale: Scale::Tiny,
            })
            .collect();
        let results = run_jobs(&jobs, 2);
        assert_eq!(results[0].app, AppId::Crc32);
        assert_eq!(results[1].app, AppId::Bitcount);
    }

    #[test]
    fn seed_averaging_returns_a_sane_factor() {
        let config = SystemConfig::paper_default();
        let speedup = mean_speedup_over_seeds(
            &config,
            Scheme::Edbp,
            &[AppId::Crc32],
            Scale::Tiny,
            &[1, 2],
            2,
        );
        assert!((0.5..2.0).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn cost_model_orders_scale_scheme_and_stepping() {
        let config = Arc::new(SystemConfig::paper_default());
        let job = |scheme, scale, config: &Arc<SystemConfig>| Job {
            config: Arc::clone(config),
            scheme,
            app: AppId::Crc32,
            scale,
        };
        let tiny = job(Scheme::Baseline, Scale::Tiny, &config);
        let full = job(Scheme::Baseline, Scale::Full, &config);
        assert!(full.estimated_cost() > tiny.estimated_cost());
        let edbp = job(Scheme::Edbp, Scale::Tiny, &config);
        assert!(edbp.estimated_cost() > tiny.estimated_cost());
        let mut instrumented = SystemConfig::paper_default();
        instrumented.zombie_sample_interval = Some(500);
        let zombie = job(Scheme::Baseline, Scale::Tiny, &Arc::new(instrumented));
        assert!(zombie.estimated_cost() > 5.0 * tiny.estimated_cost());
    }

    #[test]
    fn effective_fingerprint_canonicalizes_default_edbp() {
        let plain = SystemConfig::paper_default();
        assert!(plain.edbp.is_none(), "paper default leaves edbp derived");
        let mut explicit_default = plain.clone();
        explicit_default.edbp = Some(EdbpConfig::for_cache(&Cache::new(plain.dcache)));
        let mut explicit_custom = plain.clone();
        explicit_custom.edbp = Some({
            let mut c = EdbpConfig::for_cache(&Cache::new(plain.dcache));
            c.reference_fpr = 1.0;
            c
        });

        for scheme in [Scheme::Edbp, Scheme::DecayEdbp, Scheme::AmcEdbp] {
            assert_eq!(
                effective_fingerprint(&plain, scheme),
                effective_fingerprint(&explicit_default, scheme),
                "explicit default == derived default for {scheme}"
            );
            assert_ne!(
                effective_fingerprint(&plain, scheme),
                effective_fingerprint(&explicit_custom, scheme),
                "non-default edbp config must stay distinct for {scheme}"
            );
        }
        // Schemes without an EDBP predictor never observe the field at all.
        for scheme in [Scheme::Baseline, Scheme::Sdbp, Scheme::Decay, Scheme::Ideal] {
            assert_eq!(
                effective_fingerprint(&plain, scheme),
                effective_fingerprint(&explicit_custom, scheme),
                "edbp field is invisible to {scheme}"
            );
        }
        // With an icache predictor built, the explicit value is observable
        // (the icache fallback derives from the icache geometry): no
        // canonicalization.
        let mut icache_pred = explicit_default.clone();
        icache_pred.predict_icache = true;
        icache_pred.icache_tech = ehs_nvm::MemoryTechnology::Sram;
        let mut icache_plain = plain.clone();
        icache_plain.predict_icache = true;
        icache_plain.icache_tech = ehs_nvm::MemoryTechnology::Sram;
        assert_ne!(
            effective_fingerprint(&icache_pred, Scheme::Edbp),
            effective_fingerprint(&icache_plain, Scheme::Edbp)
        );
    }

    #[test]
    fn explicit_default_edbp_config_is_equivalent() {
        // The differential pin for the canonicalization rule: an explicit
        // edbp config equal to the derived default simulates identically.
        let plain = SystemConfig::paper_default();
        let mut explicit = plain.clone();
        explicit.edbp = Some(EdbpConfig::for_cache(&Cache::new(plain.dcache)));
        let a = run_app(&plain, Scheme::Edbp, AppId::Crc32, Scale::Tiny);
        let b = run_app(&explicit, Scheme::Edbp, AppId::Crc32, Scale::Tiny);
        assert_eq!(a, b);
    }

    #[test]
    fn count_unique_folds_duplicates_and_oracle_baselines() {
        let config = Arc::new(SystemConfig::paper_default());
        let job = |scheme| Job {
            config: Arc::clone(&config),
            scheme,
            app: AppId::Crc32,
            scale: Scale::Tiny,
        };
        // Duplicate Edbp folds; Ideal implies a Baseline that is already
        // requested, so it adds only itself.
        let jobs = [
            job(Scheme::Baseline),
            job(Scheme::Edbp),
            job(Scheme::Edbp),
            job(Scheme::Ideal),
        ];
        assert_eq!(count_unique(&jobs), 3);
        // Ideal alone still needs its oracle baseline.
        assert_eq!(count_unique(&[job(Scheme::Ideal)]), 2);
    }
}
