//! Deterministic parallel fan-out of simulation runs, with process-wide
//! memoization, cost-aware scheduling and an optional persistent result
//! cache.
//!
//! # Memoization
//!
//! Experiment drivers repeat identical runs constantly: every figure's
//! matrix re-runs the baseline column, `mean_speedup_over_seeds` shares its
//! baseline runs with the headline matrix, the sensitivity sweeps
//! (Figs. 10–17) all contain the paper-default point, and the Ideal
//! scheme's oracle pass *is* a baseline run. [`run_jobs`] therefore caches
//! results in a process-wide table keyed by the **effective** configuration
//! fingerprint (see [`effective_fingerprint`]) plus (scheme, app, scale):
//!
//! * A `Baseline` job always runs with a passive generation recorder
//!   attached and stores both the result and the trace — so the Ideal
//!   scheme's oracle pass and the baseline column of the same matrix are
//!   **one** execution ([`baseline_executions`] counts them).
//! * Concurrent requests for the same key block on one `OnceLock`; the
//!   duplicate is never executed.
//! * A cache hit returns the stored result with [`RunResult::sim_mips`]
//!   zeroed (wall-clock throughput is meaningless for a lookup); `sim_mips`
//!   is excluded from `PartialEq`, so memoized and fresh results compare
//!   equal — the determinism tests rely on exactly that.
//! * When a binary has installed the persistent cache
//!   ([`crate::runcache::install`]), a first-touch key is looked up on disk
//!   before simulating, and a fresh execution is stored back — so a second
//!   process replays instead of re-simulating. The library default is
//!   *no* disk cache; tests and library callers run purely in-process.
//!
//! [`run_app`] remains uncached for callers that want a guaranteed fresh
//! execution (e.g. throughput measurement).
//!
//! # Scheduling
//!
//! [`run_jobs`] executes its internal work queue longest-estimated-first
//! (see [`Job::estimated_cost`]) so a `Full`-scale straggler cannot land
//! last on an otherwise-drained pool, while results are still returned in
//! input order — scheduling never changes the output.
//!
//! # Lockstep groups
//!
//! Jobs that share one raw configuration fingerprint, app and scale — the
//! common shape of every figure's scheme matrix — are one workload replay
//! observed under different predictors. [`try_run_jobs_outputs`] detects
//! such partitions with at least two distinct schemes and runs them as a
//! **lockstep group**: one fully monomorphized lane per scheme (see
//! [`crate::build_lane`]), all lanes advancing over the shared workload in
//! committed-instruction rounds. Because [`Simulation::advance_until`]
//! never truncates a burst at its target, every lane's result is
//! bit-identical to an independent run (the `lockstep` differential suite
//! asserts it). The `Ideal` scheme never joins a group — its oracle pass
//! resolves through the baseline's memoized trace as before.
//!
//! Execution is gated by a process-wide *claim table*, not by the memo
//! slots themselves: whoever claims a key (a singleton job or one lane of
//! a group) is its unique producer; everyone else waits for the slot. A
//! producer that panics releases its claim with the slot still empty, so
//! the next request retries — the containment story is unchanged.
//!
//! # Fault containment
//!
//! A panicking job is a *result*, not a process event: workers catch the
//! unwind and [`try_run_jobs_outputs`] returns a [`JobError`] in that job's
//! slot while every other job completes normally (in a lockstep group, a
//! panicking lane fails exactly its own scheme's jobs). No table in this
//! module can stay poisoned (see `lock_unpoisoned`), and an abandoned memo
//! slot is retried by the next request for the same key. The deterministic
//! fault-injection harness ([`crate::fault`]) exercises these paths.

use crate::{
    config_fingerprint, fault, runcache, LaneRun, RunResult, Scheme, SystemConfig, ZombieSample,
};
use edbp_core::{EdbpConfig, GenerationTrace};
use ehs_cache::Cache;
use ehs_workloads::{build, AppId, Scale, Workload};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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

struct MemoEntry {
    result: RunResult,
    /// Generation trace, recorded on every *executed* Baseline run so the
    /// Ideal scheme can reuse the same execution. Empty when the entry was
    /// replayed from the persistent cache (the trace is not persisted);
    /// refilled lazily by [`baseline_trace`] if an Ideal run needs it.
    trace: OnceLock<Arc<GenerationTrace>>,
    /// Zombie samples; `Some` exactly when the config was instrumented
    /// ([`SystemConfig::zombie_sample_interval`]).
    zombies: Option<Arc<Vec<ZombieSample>>>,
}

type Slot = Arc<OnceLock<MemoEntry>>;

static MEMO: OnceLock<Mutex<HashMap<MemoKey, Slot>>> = OnceLock::new();
/// Baseline keys whose generation trace some planned Ideal job will consume.
/// Registered by [`run_jobs_outputs`] before any job runs, so the one
/// baseline execution doubles as the oracle pass. Baselines outside this set
/// skip the recorder entirely — recording is passive but not free, and
/// retaining hundreds of unneeded traces for the whole suite run costs real
/// memory. A late, unregistered Ideal request is still correct: it refills
/// the trace lazily via [`baseline_trace`] at the price of one extra run.
static TRACE_WANTED: OnceLock<Mutex<HashSet<MemoKey>>> = OnceLock::new();
static BASELINE_EXECUTIONS: AtomicU64 = AtomicU64::new(0);
static SIM_EXECUTIONS: AtomicU64 = AtomicU64::new(0);

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

fn memo_slot(key: MemoKey) -> Slot {
    lock_unpoisoned(MEMO.get_or_init(Mutex::default))
        .entry(key)
        .or_default()
        .clone()
}

/// Process-wide execution claims. A claimed key has exactly one producer
/// — a singleton job or one lane of a lockstep group — and the claim, not
/// the memo slot, is the execution gate (a lockstep group must fill
/// several slots from one driving loop, which `OnceLock::get_or_init`
/// cannot express). Producers fill the slot *before* releasing the claim,
/// so a waiter that observes a free key re-checks the slot and either
/// reads the entry or inherits the retry of a panicked producer.
struct ClaimTable {
    held: Mutex<HashSet<MemoKey>>,
    freed: Condvar,
}

fn claims() -> &'static ClaimTable {
    static CLAIMS: OnceLock<ClaimTable> = OnceLock::new();
    CLAIMS.get_or_init(|| ClaimTable {
        held: Mutex::default(),
        freed: Condvar::new(),
    })
}

/// Releases its key on drop — including a drop by unwinding, so a
/// panicked execution leaves the key claimable and its slot empty, and
/// the next request simply retries (the fault-containment contract).
struct KeyClaim {
    key: MemoKey,
}

impl Drop for KeyClaim {
    fn drop(&mut self) {
        let table = claims();
        lock_unpoisoned(&table.held).remove(&self.key);
        table.freed.notify_all();
    }
}

/// Claims `key`, blocking while another thread holds it. Returns `None`
/// without claiming if `slot` was (or got) filled while waiting — the
/// caller reads the entry instead of producing one.
fn claim_blocking(slot: &Slot, key: &MemoKey) -> Option<KeyClaim> {
    let table = claims();
    let mut held = lock_unpoisoned(&table.held);
    loop {
        if slot.get().is_some() {
            return None;
        }
        if !held.contains(key) {
            held.insert(key.clone());
            return Some(KeyClaim { key: key.clone() });
        }
        held = table
            .freed
            .wait(held)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Non-blocking [`claim_blocking`]: `None` means the slot is already
/// filled or someone else holds the claim. Lockstep groups use this so a
/// group never waits while holding other lanes' claims (no lock-order
/// cycles between groups that share keys); a lane lost this way is
/// resolved through the ordinary blocking path when the member job's
/// output is read.
fn claim_now(slot: &Slot, key: &MemoKey) -> Option<KeyClaim> {
    let table = claims();
    let mut held = lock_unpoisoned(&table.held);
    if slot.get().is_some() || held.contains(key) {
        return None;
    }
    held.insert(key.clone());
    Some(KeyClaim { key: key.clone() })
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

/// Marks the baseline runs whose traces the given jobs' Ideal runs consume.
fn register_trace_demands(jobs: &[Job]) {
    let wanted: Vec<MemoKey> = jobs
        .iter()
        .filter(|j| j.scheme.needs_oracle_trace())
        .map(|j| baseline_key(&j.config, j.app, j.scale))
        .collect();
    if !wanted.is_empty() {
        lock_unpoisoned(TRACE_WANTED.get_or_init(Mutex::default)).extend(wanted);
    }
}

fn trace_wanted(key: &MemoKey) -> bool {
    TRACE_WANTED
        .get()
        .is_some_and(|set| lock_unpoisoned(set).contains(key))
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

fn record_executed(config_fp: u64, scheme: Scheme, app: AppId, scale: Scale) {
    lock_unpoisoned(EXECUTED_STEMS.get_or_init(Mutex::default))
        .push(runcache::entry_stem(config_fp, scheme, app, scale));
}

/// Performs one real simulation for the memo table (never consults it).
fn execute(config: &SystemConfig, scheme: Scheme, app: AppId, scale: Scale) -> MemoEntry {
    fault::on_execute(config.zombie_sample_interval.is_some());
    SIM_EXECUTIONS.fetch_add(1, Ordering::Relaxed);
    let workload = cached_workload(app, scale);
    let (oracle_trace, with_recorder) = match scheme {
        Scheme::Baseline => {
            BASELINE_EXECUTIONS.fetch_add(1, Ordering::Relaxed);
            // Record the generation trace iff some planned Ideal job consumes
            // it (the recorder is passive — bit-identical result — so the
            // execution doubles as the oracle pass). Unwanted traces are
            // skipped: recording and retaining them for every baseline in
            // the suite costs time and memory for nothing.
            (None, trace_wanted(&baseline_key(config, app, scale)))
        }
        Scheme::Ideal => {
            // The oracle pass is a baseline run — share it through the
            // cache instead of executing a private one.
            let trace = baseline_trace(config, app, scale);
            (Some((*trace).clone()), false)
        }
        _ => (None, false),
    };
    let lane = crate::build_lane(config, scheme, workload, oracle_trace, with_recorder)
        .unwrap_or_else(|e| panic!("invalid energy configuration: {e}"));
    let outcome = crate::run_lane(lane);
    MemoEntry {
        result: outcome.result,
        trace: match outcome.trace {
            Some(t) => OnceLock::from(Arc::new(t)),
            None => OnceLock::new(),
        },
        zombies: config
            .zombie_sample_interval
            .is_some()
            .then(|| Arc::new(outcome.zombie_samples)),
    }
}

/// How long to wait for another process's claimed entry to land before
/// simulating it ourselves anyway. Sized for the short jobs that dominate
/// shared-cache suites; a longer job simply gets (safely) duplicated.
const CLAIM_WAIT: std::time::Duration = std::time::Duration::from_secs(5);

fn entry_from_hit(hit: runcache::CachedRun) -> MemoEntry {
    MemoEntry {
        result: hit.result,
        trace: OnceLock::new(),
        zombies: hit.zombie_samples.map(Arc::new),
    }
}

/// Resolves one key: memo table first, then the persistent cache (if one
/// is installed), then a real execution (stored back to the persistent
/// cache). Returns the initialized slot plus whether *this call* simulated.
///
/// With a persistent cache installed, an advisory per-entry claim
/// coordinates concurrent harness *processes*: a first-touch miss claims
/// the entry before simulating; finding someone else's fresh claim waits
/// briefly for their store to land instead of duplicating the run.
fn resolve(config: &SystemConfig, scheme: Scheme, app: AppId, scale: Scale) -> (Slot, bool) {
    let config_fp = effective_fingerprint(config, scheme);
    let key = MemoKey {
        config_fp,
        scheme,
        app,
        scale,
    };
    let slot = memo_slot(key.clone());
    if slot.get().is_some() {
        return (slot, false);
    }
    let Some(claim) = claim_blocking(&slot, &key) else {
        // Filled while we waited for the producer.
        return (slot, false);
    };
    // We hold the claim over an empty slot: produce the entry. (The claim
    // releases on unwind too, so a panic here leaves the key retryable.)
    let mut rc_claim = None;
    if let Some(cache) = runcache::active() {
        if let Some(hit) = cache.load(config_fp, scheme, app, scale) {
            let _ = slot.set(entry_from_hit(hit));
            return (slot, false);
        }
        match cache.claim(config_fp, scheme, app, scale) {
            runcache::ClaimOutcome::Held(guard) => {
                // Re-check under the lease: a rival process may have
                // stored (and journaled) this entry between our load
                // check and the claim.
                if let Some(hit) = cache.load(config_fp, scheme, app, scale) {
                    drop(guard);
                    let _ = slot.set(entry_from_hit(hit));
                    return (slot, false);
                }
                rc_claim = Some(guard);
            }
            runcache::ClaimOutcome::Busy => {
                if let Some(hit) = cache.wait_for_entry(config_fp, scheme, app, scale, CLAIM_WAIT) {
                    let _ = slot.set(entry_from_hit(hit));
                    return (slot, false);
                }
            }
            runcache::ClaimOutcome::Unavailable => {}
        }
    }
    let entry = execute(config, scheme, app, scale);
    record_executed(config_fp, scheme, app, scale);
    if let Some(cache) = runcache::active() {
        let stored = cache.store(
            config_fp,
            scheme,
            app,
            scale,
            &entry.result,
            entry.zombies.as_deref().map(Vec::as_slice),
        );
        // Journal only durable entries: the resume contract promises a
        // journaled job replays from disk, so a failed store must not
        // be journaled.
        if stored {
            cache.journal_append(&runcache::entry_stem(config_fp, scheme, app, scale));
        }
    }
    let _ = slot.set(entry);
    drop(rc_claim);
    drop(claim);
    (slot, true)
}

/// Runs (or recalls) one job through the memoization table.
fn run_cached(config: &SystemConfig, scheme: Scheme, app: AppId, scale: Scale) -> JobOutput {
    let (slot, ran_here) = resolve(config, scheme, app, scale);
    let entry = slot.get().expect("slot was just resolved");
    let mut result = entry.result.clone();
    if !ran_here {
        result.sim_mips = 0.0;
    }
    JobOutput {
        result,
        zombie_samples: entry.zombies.clone(),
    }
}

/// The recorded trace of the memoized baseline run for this key (executing
/// the baseline if it has not run yet). If the baseline entry was replayed
/// from the persistent cache — which does not carry traces — the baseline
/// is re-executed once with a recorder to refill it; that re-execution
/// counts in both execution counters.
fn baseline_trace(config: &SystemConfig, app: AppId, scale: Scale) -> Arc<GenerationTrace> {
    let (slot, _) = resolve(config, Scheme::Baseline, app, scale);
    let entry = slot.get().expect("slot was just resolved");
    entry
        .trace
        .get_or_init(|| {
            fault::on_execute(config.zombie_sample_interval.is_some());
            SIM_EXECUTIONS.fetch_add(1, Ordering::Relaxed);
            BASELINE_EXECUTIONS.fetch_add(1, Ordering::Relaxed);
            let (_, trace) = crate::run_baseline_with_trace(config, cached_workload(app, scale));
            Arc::new(trace)
        })
        .clone()
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

/// One unit of worker-pool work: a single job, or a lockstep group of
/// same-(config, app, scale) job indices spanning several schemes.
enum WorkItem {
    Single(usize),
    Group(Vec<usize>),
}

impl WorkItem {
    fn estimated_cost(&self, jobs: &[Job]) -> f64 {
        match self {
            WorkItem::Single(i) => jobs[*i].estimated_cost(),
            WorkItem::Group(members) => members.iter().map(|&i| jobs[i].estimated_cost()).sum(),
        }
    }
}

/// Partitions `jobs` into work items. Jobs sharing a raw configuration
/// fingerprint, app and scale are one workload replay observed under
/// different schemes; a partition with at least two distinct schemes
/// becomes one lockstep [`WorkItem::Group`]. `Ideal` jobs never join a
/// group (their oracle pass resolves through the baseline's memoized
/// trace), and duplicate-scheme members ride along — the group's one lane
/// per scheme serves them all through the memo table.
fn plan_work(jobs: &[Job]) -> Vec<WorkItem> {
    let mut order: Vec<(u64, AppId, Scale)> = Vec::new();
    let mut parts: HashMap<(u64, AppId, Scale), Vec<usize>> = HashMap::new();
    for (i, job) in jobs.iter().enumerate() {
        if job.scheme == Scheme::Ideal {
            continue;
        }
        let part = (config_fingerprint(&job.config), job.app, job.scale);
        parts
            .entry(part)
            .or_insert_with(|| {
                order.push(part);
                Vec::new()
            })
            .push(i);
    }
    let mut items = Vec::new();
    let mut grouped = vec![false; jobs.len()];
    for part in order {
        let members = parts.remove(&part).expect("partition was just inserted");
        let schemes: HashSet<Scheme> = members.iter().map(|&i| jobs[i].scheme).collect();
        if schemes.len() >= 2 {
            for &i in &members {
                grouped[i] = true;
            }
            items.push(WorkItem::Group(members));
        }
    }
    for (i, grouped) in grouped.into_iter().enumerate() {
        if !grouped {
            items.push(WorkItem::Single(i));
        }
    }
    items
}

fn job_error(job: &Job, message: String) -> JobError {
    JobError {
        config_fp: effective_fingerprint(&job.config, job.scheme),
        scheme: job.scheme,
        app: job.app,
        scale: job.scale,
        message,
    }
}

/// Runs one singleton job with its panic contained to a [`JobError`].
///
/// Unwind safety: `run_cached` only touches the process-wide tables in
/// this module, all of which are insert-whole maps behind
/// `lock_unpoisoned` (see its contract) or claim-gated `OnceLock` slots
/// whose abandoned initialization is simply retried.
fn run_single(job: &Job) -> Result<JobOutput, JobError> {
    catch_unwind(AssertUnwindSafe(|| {
        run_cached(&job.config, job.scheme, job.app, job.scale)
    }))
    .map_err(|payload| job_error(job, panic_message(payload)))
}

/// Executes one lockstep group: one fully monomorphized lane per distinct
/// member scheme, all driven over the same shared workload by
/// [`crate::system::drive_lockstep`]. Per lane, the claim/memo/
/// persistent-cache protocol matches the singleton path exactly — a lane
/// only simulates here if its key is unclaimed, unfilled and not on disk;
/// anything already produced (or being produced elsewhere) is recalled
/// through [`run_cached`] when the member outputs are read. A panicking
/// lane fails exactly its own scheme's jobs; sibling lanes complete.
fn run_group(jobs: &[Job], members: &[usize]) -> Vec<(usize, Result<JobOutput, JobError>)> {
    let first = &jobs[members[0]];
    let (config, app, scale) = (&first.config, first.app, first.scale);

    // One lane per distinct scheme, in first-appearance order.
    let mut schemes: Vec<Scheme> = Vec::new();
    for &i in members {
        if !schemes.contains(&jobs[i].scheme) {
            schemes.push(jobs[i].scheme);
        }
    }

    struct Lane {
        scheme: Scheme,
        key: MemoKey,
        slot: Slot,
        claim: KeyClaim,
        rc_claim: Option<runcache::LeaseGuard>,
    }

    let mut lanes: Vec<Lane> = Vec::new();
    let mut sims: Vec<Box<dyn LaneRun>> = Vec::new();
    let mut failures: HashMap<Scheme, String> = HashMap::new();
    for &scheme in &schemes {
        let config_fp = effective_fingerprint(config, scheme);
        let key = MemoKey {
            config_fp,
            scheme,
            app,
            scale,
        };
        let slot = memo_slot(key.clone());
        let Some(claim) = claim_now(&slot, &key) else {
            continue; // produced (or claimed) elsewhere
        };
        let mut rc_claim = None;
        if let Some(cache) = runcache::active() {
            if let Some(hit) = cache.load(config_fp, scheme, app, scale) {
                let _ = slot.set(entry_from_hit(hit));
                continue;
            }
            match cache.claim(config_fp, scheme, app, scale) {
                runcache::ClaimOutcome::Held(guard) => {
                    // Re-check under the lease (see `resolve`): a rival
                    // may have completed this key since our load check.
                    if let Some(hit) = cache.load(config_fp, scheme, app, scale) {
                        drop(guard);
                        let _ = slot.set(entry_from_hit(hit));
                        continue;
                    }
                    rc_claim = Some(guard);
                }
                // Another process is simulating this key; don't stall the
                // whole group on it — the member output read waits instead.
                runcache::ClaimOutcome::Busy => continue,
                runcache::ClaimOutcome::Unavailable => {}
            }
        }
        let with_recorder = scheme == Scheme::Baseline && trace_wanted(&key);
        match catch_unwind(AssertUnwindSafe(|| {
            fault::on_execute(config.zombie_sample_interval.is_some());
            SIM_EXECUTIONS.fetch_add(1, Ordering::Relaxed);
            if scheme == Scheme::Baseline {
                BASELINE_EXECUTIONS.fetch_add(1, Ordering::Relaxed);
            }
            crate::build_lane(
                config,
                scheme,
                cached_workload(app, scale),
                None,
                with_recorder,
            )
            .unwrap_or_else(|e| panic!("invalid energy configuration: {e}"))
        })) {
            Ok(sim) => {
                lanes.push(Lane {
                    scheme,
                    key,
                    slot,
                    claim,
                    rc_claim,
                });
                sims.push(sim);
            }
            Err(payload) => {
                failures.insert(scheme, panic_message(payload));
            }
        }
    }

    // Each lane's result is bit-identical to an uninterrupted independent
    // run (see `run_lockstep`), and its panics stay contained to it.
    let wall_start = std::time::Instant::now();
    let panics = crate::system::drive_lockstep(&mut sims);
    let wall = wall_start.elapsed().as_secs_f64();

    // Publish each surviving lane: entry, counters, persistent store. A
    // panicked lane is dropped with its slot still empty, which releases its
    // claims: the failure stays retryable, and only this scheme's jobs
    // report it.
    for ((lane, sim), panic) in lanes.into_iter().zip(sims).zip(panics) {
        let Lane {
            scheme,
            key,
            slot,
            claim,
            rc_claim,
        } = lane;
        if let Some(payload) = panic {
            failures.insert(scheme, panic_message(payload));
            continue;
        }
        let published = catch_unwind(AssertUnwindSafe(|| {
            let mut outcome = sim.finish_collecting();
            if wall > 0.0 {
                outcome.result.sim_mips = outcome.result.committed as f64 / wall / 1e6;
            }
            record_executed(key.config_fp, scheme, app, scale);
            let entry = MemoEntry {
                result: outcome.result,
                trace: match outcome.trace {
                    Some(t) => OnceLock::from(Arc::new(t)),
                    None => OnceLock::new(),
                },
                zombies: config
                    .zombie_sample_interval
                    .is_some()
                    .then(|| Arc::new(outcome.zombie_samples)),
            };
            if let Some(cache) = runcache::active() {
                let stored = cache.store(
                    key.config_fp,
                    scheme,
                    app,
                    scale,
                    &entry.result,
                    entry.zombies.as_deref().map(Vec::as_slice),
                );
                if stored {
                    cache.journal_append(&runcache::entry_stem(key.config_fp, scheme, app, scale));
                }
            }
            let _ = slot.set(entry);
        }));
        if let Err(payload) = published {
            failures.insert(scheme, panic_message(payload));
        }
        drop(rc_claim);
        drop(claim);
    }

    // Member outputs: a failed lane fails exactly its own jobs; everything
    // else reads through the ordinary memoized path (which also covers
    // lanes this group ceded to another producer).
    members
        .iter()
        .map(|&i| {
            let job = &jobs[i];
            let outcome = match failures.get(&job.scheme) {
                Some(msg) => Err(job_error(job, msg.clone())),
                None => run_single(job),
            };
            (i, outcome)
        })
        .collect()
}

/// [`run_jobs_outputs`], but a panicking job is contained to its own
/// result slot instead of taking the whole pool (and every sibling
/// experiment) down: the worker catches the unwind, records a [`JobError`]
/// and moves on to the next job. All unaffected jobs always complete.
///
/// A failed job leaves its memo slot uninitialized, so a later request for
/// the same key retries the execution — a transient fault costs one retry,
/// it does not poison the key for the rest of the process.
pub fn try_run_jobs_outputs(jobs: &[Job], threads: usize) -> Vec<Result<JobOutput, JobError>> {
    assert!(threads >= 1, "need at least one thread");
    // Longest-estimated-first work queue (stable index tie-break) so a big
    // item cannot land last on a drained pool. Results still fill their
    // input-order slots, so the ordering is invisible to callers.
    register_trace_demands(jobs);
    let items = plan_work(jobs);
    let costs: Vec<f64> = items.iter().map(|it| it.estimated_cost(jobs)).collect();
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
    let results: Vec<Mutex<Option<Result<JobOutput, JobError>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len().max(1)) {
            scope.spawn(|| loop {
                let rank = next.fetch_add(1, Ordering::Relaxed);
                let Some(&it) = order.get(rank) else {
                    break;
                };
                match &items[it] {
                    WorkItem::Single(i) => {
                        let outcome = run_single(&jobs[*i]);
                        *lock_unpoisoned(&results[*i]) = Some(outcome);
                    }
                    WorkItem::Group(members) => {
                        for (i, outcome) in run_group(jobs, members) {
                            *lock_unpoisoned(&results[i]) = Some(outcome);
                        }
                    }
                }
            });
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| {
                    // Unreachable in practice (workers always store), kept
                    // as a contained error rather than a fresh panic source.
                    Err(JobError {
                        config_fp: effective_fingerprint(&jobs[i].config, jobs[i].scheme),
                        scheme: jobs[i].scheme,
                        app: jobs[i].app,
                        scale: jobs[i].scale,
                        message: "job was never executed (worker lost)".into(),
                    })
                })
        })
        .collect()
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
    let mut keys = std::collections::HashSet::new();
    for job in jobs {
        if job.scheme == Scheme::Ideal {
            keys.insert(MemoKey {
                config_fp: effective_fingerprint(&job.config, Scheme::Baseline),
                scheme: Scheme::Baseline,
                app: job.app,
                scale: job.scale,
            });
        }
        keys.insert(MemoKey {
            config_fp: effective_fingerprint(&job.config, job.scheme),
            scheme: job.scheme,
            app: job.app,
            scale: job.scale,
        });
    }
    keys.len()
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

// ---------------------------------------------------------------------------
// Fleet execution: work-stealing workers over a shared cache directory.
// ---------------------------------------------------------------------------

/// Retry policy for transient per-job faults in [`run_worker`]: exponential
/// backoff (`base`, doubling, capped at `cap`) with jitter in
/// `[delay/2, delay)`, bounded by `max_retries` attempts beyond the first.
/// Deterministic failures (a simulation panic reproduces identically on
/// every attempt) fail fast instead — see [`classify_failure`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt of a job.
    pub max_retries: u32,
    /// First backoff delay.
    pub base: std::time::Duration,
    /// Backoff ceiling.
    pub cap: std::time::Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base: std::time::Duration::from_millis(10),
            cap: std::time::Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff delay before retry number `attempt` (1-based).
    fn delay(&self, attempt: u32, rng: &mut u64) -> std::time::Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(20).saturating_sub(1));
        let capped = exp.min(self.cap).max(std::time::Duration::from_micros(100));
        *rng = runcache::splitmix(*rng);
        let nanos = capped.as_nanos() as u64;
        std::time::Duration::from_nanos(nanos / 2 + *rng % (nanos / 2).max(1))
    }
}

/// How a failed job attempt should be handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// Environmental: I/O trouble, lease contention, a torn store. The same
    /// attempt can succeed on retry — back off and try again.
    Transient,
    /// Reproducible: the simulation itself panicked. Retrying re-executes
    /// the identical deterministic run to the identical panic — fail fast.
    Deterministic,
}

/// Classifies a job failure message for the retry policy. Simulation panics
/// are deterministic (seeded workloads reproduce them exactly); everything
/// the storage/lease layer reports — including injected I/O faults, whose
/// messages name their site — is transient.
pub fn classify_failure(message: &str) -> FailureClass {
    const TRANSIENT_MARKERS: [&str; 6] = [
        "I/O",
        "io error",
        "lease",
        "heartbeat",
        "steal",
        "store failed",
    ];
    if TRANSIENT_MARKERS.iter().any(|m| message.contains(m)) {
        FailureClass::Transient
    } else {
        FailureClass::Deterministic
    }
}

/// Deduplicates `jobs` to one representative per distinct memo key, adding
/// the implicit oracle-baseline job behind any `Ideal` key whose baseline is
/// not itself requested — the exact unit set a fleet of workers must
/// produce, in input order (baselines before the Ideal jobs that consume
/// them). `unique_jobs(jobs).len() == count_unique(jobs)` always.
pub fn unique_jobs(jobs: &[Job]) -> Vec<Job> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for job in jobs {
        if job.scheme.needs_oracle_trace() {
            let key = baseline_key(&job.config, job.app, job.scale);
            if seen.insert(key) {
                out.push(Job {
                    config: Arc::clone(&job.config),
                    scheme: Scheme::Baseline,
                    app: job.app,
                    scale: job.scale,
                });
            }
        }
        let key = MemoKey {
            config_fp: effective_fingerprint(&job.config, job.scheme),
            scheme: job.scheme,
            app: job.app,
            scale: job.scale,
        };
        if seen.insert(key) {
            out.push(job.clone());
        }
    }
    out
}

/// Partitions the deduplicated job set of `jobs` into `count` shards and
/// returns shard `index` (0-based) — the `--shard i/n` planner.
///
/// Assignment is longest-processing-time greedy over *affinity groups*
/// (an `Ideal` job travels with its oracle baseline, so the oracle pass
/// replays a shard-local store instead of waiting on a sibling shard),
/// each group placed on the currently lightest shard. Everything is
/// derived from the jobs alone — cost model, entry-stem tiebreak, lowest-
/// index-wins load ties — so every process that plans the same suite
/// computes the identical partition with no coordination.
///
/// Cost bound: a shard's estimated load never exceeds
/// `total/count + max_group`, where `max_group` is the largest single
/// affinity group's cost (the classic greedy bound; the shard proptests
/// assert it).
pub fn shard_jobs(jobs: &[Job], index: usize, count: usize) -> Vec<Job> {
    assert!(count >= 1, "need at least one shard");
    assert!(
        index < count,
        "shard index {index} out of range for {count} shards"
    );
    let unique = unique_jobs(jobs);

    // Affinity groups over unique-job indices. `unique_jobs` emits every
    // oracle baseline before its first consumer, so the baseline's group
    // always exists by the time an Ideal job looks it up.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut baseline_groups: HashMap<MemoKey, usize> = HashMap::new();
    for (i, job) in unique.iter().enumerate() {
        if job.scheme == Scheme::Baseline {
            baseline_groups.insert(baseline_key(&job.config, job.app, job.scale), groups.len());
            groups.push(vec![i]);
        } else if job.scheme.needs_oracle_trace() {
            match baseline_groups.get(&baseline_key(&job.config, job.app, job.scale)) {
                Some(&g) => groups[g].push(i),
                None => groups.push(vec![i]),
            }
        } else {
            groups.push(vec![i]);
        }
    }

    let costs: Vec<f64> = groups
        .iter()
        .map(|g| g.iter().map(|&i| unique[i].estimated_cost()).sum())
        .collect();
    let stems: Vec<String> = groups
        .iter()
        .map(|g| {
            let job = &unique[g[0]];
            runcache::entry_stem(
                effective_fingerprint(&job.config, job.scheme),
                job.scheme,
                job.app,
                job.scale,
            )
        })
        .collect();
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .total_cmp(&costs[a])
            .then_with(|| stems[a].cmp(&stems[b]))
    });

    let mut load = vec![0.0f64; count];
    let mut mine: Vec<usize> = Vec::new();
    for &g in &order {
        let lightest = (0..count)
            .min_by(|&a, &b| load[a].total_cmp(&load[b]).then(a.cmp(&b)))
            .expect("count >= 1");
        load[lightest] += costs[g];
        if lightest == index {
            mine.extend(&groups[g]);
        }
    }
    mine.sort_unstable(); // restore unique-job (baseline-before-Ideal) order
    mine.into_iter().map(|i| unique[i].clone()).collect()
}

/// Structured outcome of one worker's sweep over the job set — the
/// per-worker summary line the fleet campaign asserts against.
#[derive(Debug, Default, Clone)]
pub struct WorkerReport {
    /// Jobs this worker simulated and durably stored.
    pub completed: usize,
    /// Jobs found already on disk (produced by another worker).
    pub adopted: usize,
    /// Expired leases this worker reclaimed from dead holders.
    pub stolen_leases: usize,
    /// Sweep visits skipped because another live worker held the lease.
    pub busy_skips: usize,
    /// Transient-failure retries performed (with backoff).
    pub retries: usize,
    /// Jobs that exhausted retries or failed deterministically.
    pub failures: Vec<JobError>,
}

impl WorkerReport {
    /// Folds another worker's accounting into this one (the multi-threaded
    /// worker merge). Failures are deduplicated by key: sibling sweeps that
    /// each exhausted retries on the same job report it once.
    pub fn absorb(&mut self, other: WorkerReport) {
        self.completed += other.completed;
        self.adopted += other.adopted;
        self.stolen_leases += other.stolen_leases;
        self.busy_skips += other.busy_skips;
        self.retries += other.retries;
        let mut seen: HashSet<(u64, Scheme, AppId, Scale)> = self
            .failures
            .iter()
            .map(|e| (e.config_fp, e.scheme, e.app, e.scale))
            .collect();
        for e in other.failures {
            if seen.insert((e.config_fp, e.scheme, e.app, e.scale)) {
                self.failures.push(e);
            }
        }
    }
}

impl std::fmt::Display for WorkerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker pid={}: completed={} adopted={} stolen_leases={} \
             busy_skips={} retries={} failed={}",
            std::process::id(),
            self.completed,
            self.adopted,
            self.stolen_leases,
            self.busy_skips,
            self.retries,
            self.failures.len()
        )
    }
}

/// Per-job worker state between sweeps.
enum WorkState {
    Pending { attempts: u32 },
    Done,
    Failed,
}

/// Work-steals the deduplicated job set through the shared cache directory
/// until every job is durably on disk (or failed): the `--worker` mode of
/// `exp_all`. Any number of workers — processes, machines — may run this
/// concurrently over one directory; the lease protocol
/// ([`runcache::RunCache::claim`]) gives each job exactly one live
/// producer, and dead producers are reclaimed after one lease TTL.
///
/// The sweep visits jobs longest-estimated-first, rotated by PID so
/// concurrent workers start at different offsets and collide less. Per
/// visit: a job already on disk is *adopted*; a job with a live foreign
/// lease is skipped (someone else is on it); otherwise this worker leases
/// it, simulates, stores, journals. Transient failures (I/O, lease
/// contention, a store that would not land) retry under `policy` with
/// jittered exponential backoff; deterministic simulation panics fail
/// fast. `Ideal` jobs are gated until their oracle baseline is loadable
/// from disk, so the oracle pass replays the stored baseline instead of
/// racing a second execution — the gate lifts unconditionally if the
/// baseline can no longer arrive (its producer failed), trading one
/// duplicate execution for progress.
///
/// Unlike [`try_run_jobs_outputs`], nothing is returned in job order: the
/// worker's product is the populated cache directory; the report carries
/// the accounting.
pub fn run_worker(jobs: &[Job], policy: &RetryPolicy) -> WorkerReport {
    let mut report = WorkerReport::default();
    let Some(cache) = runcache::active() else {
        // No shared directory: degrade to an ordinary in-process run.
        for outcome in try_run_jobs_outputs(jobs, 1) {
            match outcome {
                Ok(_) => report.completed += 1,
                Err(e) => report.failures.push(e),
            }
        }
        return report;
    };
    let jobs = unique_jobs(jobs);
    register_trace_demands(&jobs);

    // Longest-first, rotated by PID: workers agree on the cost order but
    // enter it at different points, so they fan out across the job set
    // instead of convoying on the most expensive job's lease.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[b]
            .estimated_cost()
            .total_cmp(&jobs[a].estimated_cost())
            .then(a.cmp(&b))
    });
    if !order.is_empty() {
        // PID + a per-call sequence number: concurrent worker *processes*
        // and sibling worker *threads* all enter the order at different
        // offsets.
        static WORKER_SEQ: AtomicUsize = AtomicUsize::new(0);
        let salt = WORKER_SEQ
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9e37_79b1);
        let offset = (std::process::id() as usize).wrapping_add(salt) % order.len();
        order.rotate_left(offset);
    }

    let mut states: Vec<WorkState> = jobs
        .iter()
        .map(|_| WorkState::Pending { attempts: 0 })
        .collect();
    let mut rng = runcache::fresh_token();
    let mut idle_sweeps: u32 = 0;
    let mut force_ungated = false;
    loop {
        let mut progressed = false;
        let mut busy_now = 0usize;
        let mut gated_now = 0usize;
        for &i in &order {
            let WorkState::Pending { attempts } = states[i] else {
                continue;
            };
            let job = &jobs[i];
            let config_fp = effective_fingerprint(&job.config, job.scheme);
            if cache
                .load(config_fp, job.scheme, job.app, job.scale)
                .is_some()
            {
                states[i] = WorkState::Done;
                report.adopted += 1;
                progressed = true;
                continue;
            }
            if !force_ungated && job.scheme.needs_oracle_trace() {
                let bfp = effective_fingerprint(&job.config, Scheme::Baseline);
                if cache
                    .load(bfp, Scheme::Baseline, job.app, job.scale)
                    .is_none()
                {
                    gated_now += 1;
                    continue;
                }
            }
            match cache.claim(config_fp, job.scheme, job.app, job.scale) {
                runcache::ClaimOutcome::Busy => {
                    report.busy_skips += 1;
                    busy_now += 1;
                }
                runcache::ClaimOutcome::Unavailable => {
                    let next = attempts + 1;
                    if next > policy.max_retries {
                        states[i] = WorkState::Failed;
                        report.failures.push(job_error(
                            job,
                            "lease unavailable (claim contention)".into(),
                        ));
                    } else {
                        states[i] = WorkState::Pending { attempts: next };
                        report.retries += 1;
                        std::thread::sleep(policy.delay(next, &mut rng));
                    }
                }
                runcache::ClaimOutcome::Held(lease) => {
                    if lease.stole_stale_lease() {
                        report.stolen_leases += 1;
                    }
                    // The lease serializes completion: a rival may have
                    // stored this entry between our load check and the
                    // claim. Re-check under the lease so no job is ever
                    // executed — or journaled — twice.
                    if cache
                        .load(config_fp, job.scheme, job.app, job.scale)
                        .is_some()
                    {
                        states[i] = WorkState::Done;
                        report.adopted += 1;
                        progressed = true;
                        drop(lease);
                        continue;
                    }
                    match produce_on_disk(cache, job) {
                        Ok(()) => {
                            states[i] = WorkState::Done;
                            report.completed += 1;
                            progressed = true;
                        }
                        Err(e) => {
                            let next = attempts + 1;
                            let exhausted = next > policy.max_retries;
                            if exhausted
                                || classify_failure(&e.message) == FailureClass::Deterministic
                            {
                                states[i] = WorkState::Failed;
                                report.failures.push(e);
                            } else {
                                states[i] = WorkState::Pending { attempts: next };
                                report.retries += 1;
                                std::thread::sleep(policy.delay(next, &mut rng));
                            }
                        }
                    }
                    drop(lease);
                }
            }
        }
        let open = states
            .iter()
            .filter(|s| matches!(s, WorkState::Pending { .. }))
            .count();
        if open == 0 {
            break;
        }
        if progressed {
            idle_sweeps = 0;
            continue;
        }
        idle_sweeps += 1;
        if busy_now == 0 && gated_now > 0 && idle_sweeps >= 2 {
            // Every remaining job waits on a baseline that is neither on
            // disk nor being produced: it failed elsewhere. Ungate — the
            // oracle pass re-executes its baseline in-process instead.
            force_ungated = true;
            continue;
        }
        // Other workers hold every remaining lease (or a gated baseline is
        // in flight): back off before re-polling the directory.
        let wait = policy.delay(idle_sweeps.min(6), &mut rng);
        std::thread::sleep(wait.min(cache.lease_params().heartbeat));
    }
    report
}

/// [`run_worker`] fanned out over `threads` sibling sweeps in one process,
/// with their reports merged. Sibling threads coordinate exactly like
/// sibling processes — through the shared directory's leases — plus the
/// in-process memo table; a busy lease held by a sibling thread is an
/// ordinary busy-skip.
pub fn run_workers(jobs: &[Job], policy: &RetryPolicy, threads: usize) -> WorkerReport {
    assert!(threads >= 1, "need at least one worker thread");
    if threads == 1 {
        return run_worker(jobs, policy);
    }
    let reports: Vec<WorkerReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| run_worker(jobs, policy)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut merged = WorkerReport::default();
    for report in reports {
        merged.absorb(report);
    }
    merged
}

/// Produces one leased job onto disk: simulate (through the in-process memo
/// table, so a retry after a failed store re-stores without re-executing),
/// store, journal. The caller holds the job's disk lease.
fn produce_on_disk(cache: &runcache::RunCache, job: &Job) -> Result<(), JobError> {
    let config_fp = effective_fingerprint(&job.config, job.scheme);
    let key = MemoKey {
        config_fp,
        scheme: job.scheme,
        app: job.app,
        scale: job.scale,
    };
    let slot = memo_slot(key.clone());
    if slot.get().is_none() {
        if let Some(claim) = claim_blocking(&slot, &key) {
            let produced = catch_unwind(AssertUnwindSafe(|| {
                execute(&job.config, job.scheme, job.app, job.scale)
            }));
            match produced {
                Ok(entry) => {
                    record_executed(config_fp, job.scheme, job.app, job.scale);
                    let _ = slot.set(entry);
                }
                Err(payload) => {
                    drop(claim);
                    return Err(job_error(job, panic_message(payload)));
                }
            }
            drop(claim);
        }
    }
    let entry = slot.get().expect("slot was just produced");
    let stored = cache.store(
        config_fp,
        job.scheme,
        job.app,
        job.scale,
        &entry.result,
        entry.zombies.as_deref().map(Vec::as_slice),
    );
    if !stored {
        // The simulation result survives in the memo slot; a retry
        // re-enters here and only repeats the store.
        return Err(job_error(job, "store failed (I/O)".into()));
    }
    cache.journal_append(&runcache::entry_stem(
        config_fp, job.scheme, job.app, job.scale,
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_app;

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
