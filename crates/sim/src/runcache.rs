//! Persistent on-disk result cache for simulation runs.
//!
//! A cache entry is one completed [`RunResult`] (plus its Fig. 4 zombie
//! samples, when the run was instrumented), content-addressed by the
//! **effective** configuration fingerprint the memoization layer uses (see
//! `runner`), the workload identity fingerprint ([`workload_fingerprint`]),
//! and the `(scheme, app, scale)` triple. A second `exp_all` invocation — or
//! a re-run after editing one experiment — replays cached results instead of
//! re-simulating.
//!
//! # Format
//!
//! One little-endian binary file per entry under the cache directory
//! (default `results/.runcache/` at the repository root):
//!
//! ```text
//! magic (8) | schema version u32 | config_fp u64 | workload_fp u64 |
//! scheme u8 | app u8 | scale u8 | flags u8 | payload_len u64 |
//! payload … | checksum u64
//! ```
//!
//! The payload is every [`RunResult`] field except the wall-clock
//! `sim_mips` (a replayed result reports `0.0`, exactly like an in-process
//! memo hit), in fixed field order, `f64`s as raw bits via
//! [`f64::to_bits`]; dimensioned quantities round-trip through their SI
//! base value. The checksum is the seedless Fx hash of every preceding
//! byte. **Any** mismatch — magic, schema version, fingerprints, tags,
//! length, checksum, or a short file — makes [`RunCache::load`] return
//! `None` and the caller falls back to re-simulation; a corrupt cache can
//! cost time, never correctness.
//!
//! Keys hash with the vendored seedless [`FxHasher`](edbp_core::FxHasher),
//! so fingerprints are stable across processes (there is no per-process
//! hasher seed to invalidate them) — which is what lets a *fresh* process
//! reuse entries written by an earlier one.
//!
//! The oracle [`GenerationTrace`](edbp_core::GenerationTrace) is *not*
//! persisted (it is far larger than the result); if a cached Baseline entry
//! is replayed and an Ideal run still needs the trace, the runner re-records
//! it (see the `runner` module docs).
//!
//! # Invalidation
//!
//! Delete the cache directory (`rm -rf results/.runcache`), or bump
//! [`SCHEMA_VERSION`] when the serialized layout or the meaning of any
//! simulated quantity changes. Configuration and workload changes
//! invalidate naturally through the fingerprints.
//!
//! # Crash atomicity and sharing
//!
//! The cache is held to the same fault model as the simulated hardware:
//! a process may die (SIGKILL, power cut) at **any** instruction and the
//! directory must still only ever contain absent or complete entries.
//!
//! * [`RunCache::store`] writes to a process-private temp file, fsyncs,
//!   then atomically renames over the final path (plus a best-effort
//!   directory fsync) — a reader never observes a torn entry, and the
//!   trailing checksum rejects anything a weaker writer left behind.
//! * Concurrent processes share a directory safely: renames are atomic and
//!   idempotent (identical bytes for identical keys), and per-entry claims
//!   ([`RunCache::claim`], an exclusive kernel lock on `<stem>.claim`) let
//!   other processes skip an in-flight entry and revisit it instead of
//!   duplicating the work. A lock is volatile state of its process: the
//!   kernel releases a killed holder's claims at once.
//! * `journal.log` ([`RunCache::journal_append`]) records each persisted
//!   entry as one appended line, so a killed `exp_all` can be re-invoked
//!   and *prove* it resumed (`--expect-resumable`) rather than re-simulate.
//!
//! The deterministic fault-injection harness ([`crate::fault`]) drives
//! kills, torn writes and I/O errors through these paths in tests and CI.

use crate::fault::{self, FaultKind};
use crate::runner::lock_unpoisoned;
use crate::{EnergyBreakdown, RunResult, Scheme, ZombieSample};
use edbp_core::{FxBuildHasher, PredictionSummary};
use ehs_cache::CacheStats;
use ehs_units::{Energy, Time};
use ehs_workloads::{AppId, Scale};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Bump when the on-disk layout or the semantics of any stored field
/// change; old entries are then rejected (and fall back to re-simulation)
/// instead of being misread.
///
/// v2: zombie samples now resolve in deterministic (ascending-address)
/// order at outages and at finish, so the stored sample sequence differs
/// from v1 entries even though the sample multiset is identical.
pub const SCHEMA_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"EHSRUNC\0";

/// Environment override for the cache directory (tests and concurrent
/// harness processes point it at private or shared directories).
pub const DIR_ENV_VAR: &str = "EHS_RUNCACHE_DIR";

/// The default cache directory: `$EHS_RUNCACHE_DIR` if set, otherwise
/// `.runcache/` under the results directory (which itself honours
/// `$EHS_RESULTS_DIR` — see [`crate::planner::results_dir`]).
pub fn default_dir() -> PathBuf {
    match std::env::var_os(DIR_ENV_VAR) {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => crate::planner::results_dir().join(".runcache"),
    }
}

/// Seedless Fx hash of a byte slice — the integrity checksum appended to
/// every cache entry. Public so tests can re-seal deliberately corrupted
/// entries when probing a *specific* rejection path.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxBuildHasher::default().build_hasher();
    h.write(bytes);
    h.finish()
}

fn scheme_tag(scheme: Scheme) -> u8 {
    match scheme {
        Scheme::Baseline => 0,
        Scheme::Sdbp => 1,
        Scheme::Decay => 2,
        Scheme::Edbp => 3,
        Scheme::DecayEdbp => 4,
        Scheme::Amc => 5,
        Scheme::AmcEdbp => 6,
        Scheme::Ideal => 7,
        Scheme::LeakageOff80 => 8,
    }
}

fn app_tag(app: AppId) -> u8 {
    AppId::ALL
        .iter()
        .position(|&a| a == app)
        .expect("AppId::ALL is exhaustive") as u8
}

fn scale_tag(scale: Scale) -> u8 {
    match scale {
        Scale::Tiny => 0,
        Scale::Small => 1,
        Scale::Full => 2,
    }
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// Structural fingerprint of a workload: the program name, the full
/// instruction stream (via the `Hash` impl on
/// [`Instruction`](ehs_cpu::Instruction)), the code base address, the data
/// footprint and the scale tag. Two workloads fingerprint alike exactly
/// when they run the same instructions over the same data layout — the
/// cache's defence against a cached result outliving a workload-generator
/// change. Memoized per `(app, scale)`; the build cost is paid once.
pub fn workload_fingerprint(app: AppId, scale: Scale) -> u64 {
    static CACHE: OnceLock<Mutex<std::collections::HashMap<(u8, u8), u64>>> = OnceLock::new();
    let table = CACHE.get_or_init(Mutex::default);
    let key = (app_tag(app), scale_tag(scale));
    if let Some(&fp) = lock_unpoisoned(table).get(&key) {
        return fp;
    }
    let w = crate::runner::cached_workload(app, scale);
    let mut h = FxBuildHasher::default().build_hasher();
    h.write(w.program.name().as_bytes());
    h.write_u8(0xff); // terminator: name can never bleed into the stream
    w.program.instructions().hash(&mut h);
    h.write_u32(w.program.fetch_addr(0));
    h.write_u32(w.data_footprint_bytes);
    h.write_u8(scale_tag(scale));
    let fp = h.finish();
    lock_unpoisoned(table).insert(key, fp);
    fp
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

/// Strict little-endian reader; every accessor returns `None` past the end.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn push_cache_stats(out: &mut Vec<u8>, s: &CacheStats) {
    push_u64(out, s.hits);
    push_u64(out, s.misses);
    push_u64(out, s.fills);
    push_u64(out, s.evictions);
    push_u64(out, s.writebacks);
    push_u64(out, s.gates);
    push_u64(out, s.ungates);
    push_u64(out, s.power_failures);
}

fn read_cache_stats(r: &mut Reader<'_>) -> Option<CacheStats> {
    Some(CacheStats {
        hits: r.u64()?,
        misses: r.u64()?,
        fills: r.u64()?,
        evictions: r.u64()?,
        writebacks: r.u64()?,
        gates: r.u64()?,
        ungates: r.u64()?,
        power_failures: r.u64()?,
    })
}

fn push_result(out: &mut Vec<u8>, result: &RunResult) {
    push_u8_bool(out, result.completed);
    push_u64(out, result.committed);
    push_u64(out, result.loads);
    push_u64(out, result.stores);
    push_f64(out, result.on_time.base());
    push_f64(out, result.off_time.base());
    push_u64(out, result.outages);
    push_u64(out, result.brownouts);
    let e = &result.energy;
    for v in [
        e.dcache_dynamic,
        e.dcache_static,
        e.icache_dynamic,
        e.icache_static,
        e.memory,
        e.checkpoint,
        e.restore,
        e.mcu,
        e.capacitor,
    ] {
        push_f64(out, v.base());
    }
    push_cache_stats(out, &result.dcache);
    push_cache_stats(out, &result.icache);
    let p = &result.prediction;
    for v in [
        p.true_positives,
        p.false_positives,
        p.true_negatives,
        p.false_negatives_dead,
        p.missed_zombies,
    ] {
        push_u64(out, v);
    }
}

fn push_u8_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn read_result(r: &mut Reader<'_>, app: AppId, scheme: Scheme) -> Option<RunResult> {
    let completed = r.bool()?;
    let committed = r.u64()?;
    let loads = r.u64()?;
    let stores = r.u64()?;
    let on_time = Time::from_base(r.f64()?);
    let off_time = Time::from_base(r.f64()?);
    let outages = r.u64()?;
    let brownouts = r.u64()?;
    let mut e = [Energy::ZERO; 9];
    for slot in &mut e {
        *slot = Energy::from_base(r.f64()?);
    }
    let energy = EnergyBreakdown {
        dcache_dynamic: e[0],
        dcache_static: e[1],
        icache_dynamic: e[2],
        icache_static: e[3],
        memory: e[4],
        checkpoint: e[5],
        restore: e[6],
        mcu: e[7],
        capacitor: e[8],
    };
    let dcache = read_cache_stats(r)?;
    let icache = read_cache_stats(r)?;
    let prediction = PredictionSummary {
        true_positives: r.u64()?,
        false_positives: r.u64()?,
        true_negatives: r.u64()?,
        false_negatives_dead: r.u64()?,
        missed_zombies: r.u64()?,
    };
    Some(RunResult {
        app,
        scheme,
        completed,
        committed,
        loads,
        stores,
        on_time,
        off_time,
        outages,
        brownouts,
        energy,
        dcache,
        icache,
        prediction,
        sim_mips: 0.0,
    })
}

const FLAG_ZOMBIES: u8 = 1;

/// A result replayed from disk.
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The stored result (`sim_mips` is `0.0`, as for any cache hit).
    pub result: RunResult,
    /// Stored zombie samples; `Some` exactly when the original run was
    /// instrumented (`Some(vec![])` is a valid instrumented-but-empty pool).
    pub zombie_samples: Option<Vec<ZombieSample>>,
}

fn encode(
    config_fp: u64,
    workload_fp: u64,
    scheme: Scheme,
    app: AppId,
    scale: Scale,
    result: &RunResult,
    zombies: Option<&[ZombieSample]>,
) -> Vec<u8> {
    let mut payload = Vec::with_capacity(512);
    push_result(&mut payload, result);
    if let Some(samples) = zombies {
        push_u64(&mut payload, samples.len() as u64);
        for s in samples {
            push_f64(&mut payload, s.voltage);
            push_u8_bool(&mut payload, s.zombie);
        }
    }
    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(MAGIC);
    push_u32(&mut out, SCHEMA_VERSION);
    push_u64(&mut out, config_fp);
    push_u64(&mut out, workload_fp);
    out.push(scheme_tag(scheme));
    out.push(app_tag(app));
    out.push(scale_tag(scale));
    out.push(if zombies.is_some() { FLAG_ZOMBIES } else { 0 });
    push_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    let sum = checksum(&out);
    push_u64(&mut out, sum);
    out
}

fn decode(
    bytes: &[u8],
    config_fp: u64,
    workload_fp: u64,
    scheme: Scheme,
    app: AppId,
    scale: Scale,
) -> Option<CachedRun> {
    let body_len = bytes.len().checked_sub(8)?;
    let stored_sum = u64::from_le_bytes(bytes[body_len..].try_into().expect("8 bytes"));
    if checksum(&bytes[..body_len]) != stored_sum {
        return None;
    }
    let mut r = Reader::new(&bytes[..body_len]);
    if r.bytes(MAGIC.len())? != MAGIC {
        return None;
    }
    if r.u32()? != SCHEMA_VERSION {
        return None;
    }
    if r.u64()? != config_fp || r.u64()? != workload_fp {
        return None;
    }
    if r.u8()? != scheme_tag(scheme) || r.u8()? != app_tag(app) || r.u8()? != scale_tag(scale) {
        return None;
    }
    let flags = r.u8()?;
    if flags & !FLAG_ZOMBIES != 0 {
        return None;
    }
    let payload_len = r.u64()?;
    if body_len - r.pos != usize::try_from(payload_len).ok()? {
        return None;
    }
    let result = read_result(&mut r, app, scheme)?;
    let zombie_samples = if flags & FLAG_ZOMBIES != 0 {
        let n = usize::try_from(r.u64()?).ok()?;
        // Cap a corrupt count before it becomes an allocation bomb: each
        // sample is 9 bytes, so `n` cannot exceed the remaining payload.
        if n > body_len - r.pos {
            return None;
        }
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            samples.push(ZombieSample {
                voltage: r.f64()?,
                zombie: r.bool()?,
            });
        }
        Some(samples)
    } else {
        None
    };
    if !r.done() {
        return None;
    }
    Some(CachedRun {
        result,
        zombie_samples,
    })
}

/// The file-name stem of one cache entry, also the line format of the
/// suite journal and the job identifier in failure summaries:
/// `<config_fp hex>-<scheme>-<app>-<scale>`.
pub fn entry_stem(config_fp: u64, scheme: Scheme, app: AppId, scale: Scale) -> String {
    format!(
        "{config_fp:016x}-{}-{}-{}",
        scheme.name(),
        app.name(),
        scale_name(scale)
    )
}

/// A directory of cached run results.
#[derive(Debug)]
pub struct RunCache {
    dir: PathBuf,
}

/// A temp-file suffix no other call, thread or process uses at the same
/// time: `.tmp-<pid>-<n>`. Staging files under it lets concurrent writers
/// of one final path each rename whole bytes of their own.
pub(crate) fn unique_tmp_suffix() -> String {
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    format!(
        ".tmp-{}-{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// One warning per process when cache writes start failing (read-only
/// directory, disk full, …): the run degrades to cacheless, it never aborts.
static STORE_WARNED: AtomicBool = AtomicBool::new(false);

fn warn_store_failure(path: &Path, err: &std::io::Error) {
    if !STORE_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warning: cannot write run cache entry {} ({err}); \
             continuing without persisting results (re-runs will re-simulate)",
            path.display()
        );
    }
}

/// A held claim on one entry: an exclusive kernel lock on its
/// `<stem>.claim` file, held by the open `File` this guard owns. While it
/// lives, other harness processes read the entry as busy and skip past it
/// instead of duplicating the simulation.
///
/// Dropping the guard unlinks the file and then closes it, which releases
/// the lock. A process that dies while holding claims (SIGKILL, power cut)
/// has its descriptors closed by the kernel, so its locks vanish with it
/// and the next [`RunCache::claim`] on the key succeeds; only the unlocked
/// file is left behind, and the next holder of the key removes it.
///
/// Claims are *advisory* for correctness: stores are idempotent (identical
/// bytes, atomic rename), so the worst a lost claim can cost is duplicated
/// work.
#[derive(Debug)]
pub struct ClaimGuard {
    path: PathBuf,
    _file: std::fs::File,
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        // Unlink while still locked; the lock goes when `_file` closes,
        // right after this body. A rival that opened the file before the
        // unlink may lock the orphaned inode once it closes, but the
        // producer re-reads the disk under every claim, so that costs at
        // most one load.
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Result of [`RunCache::claim`].
#[derive(Debug)]
pub enum ClaimOutcome {
    /// This process holds the claim; simulate, store, then drop the guard.
    Held(ClaimGuard),
    /// A live process holds the claim — the entry is in flight; wait for it
    /// or move on to other work.
    Busy,
    /// Claims cannot be taken here (unwritable directory, a filesystem
    /// without locks, …); proceed unclaimed — duplicate work is safe,
    /// stalling is not.
    Unavailable,
}

impl RunCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// Debris from crashed processes older than an hour is swept: temp
    /// files, and claim files no live process holds (fresh debris may
    /// belong to a live concurrent process and is left alone; it is
    /// harmless either way).
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let cache = Self { dir };
        cache.sweep_debris();
        Ok(cache)
    }

    fn sweep_debris(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let claim = name.ends_with(".claim");
            if !(claim || name.starts_with(".tmp-") || name.ends_with(".lock")) {
                continue;
            }
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age > Duration::from_secs(3600));
            if !stale {
                continue;
            }
            if claim {
                // Age says nothing about a claim's holder (a live job keeps
                // its lock however long it runs): only a claim this process
                // can lock has a dead holder. The age test still spares a
                // claim file a rival has just created and not yet locked.
                // Dropping the guard unlinks it.
                if let Ok(file) = std::fs::OpenOptions::new().write(true).open(entry.path()) {
                    if file.try_lock().is_ok() {
                        drop(ClaimGuard {
                            path: entry.path(),
                            _file: file,
                        });
                    }
                }
            } else {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, config_fp: u64, scheme: Scheme, app: AppId, scale: Scale) -> PathBuf {
        self.dir
            .join(format!("{}.run", entry_stem(config_fp, scheme, app, scale)))
    }

    /// Loads one entry; `None` on any miss, mismatch or corruption (the
    /// caller re-simulates).
    pub fn load(
        &self,
        config_fp: u64,
        scheme: Scheme,
        app: AppId,
        scale: Scale,
    ) -> Option<CachedRun> {
        let bytes = std::fs::read(self.entry_path(config_fp, scheme, app, scale)).ok()?;
        decode(
            &bytes,
            config_fp,
            workload_fingerprint(app, scale),
            scheme,
            app,
            scale,
        )
    }

    /// Stores one entry crash-atomically: the bytes are written to a
    /// process-private temp file, fsynced, and renamed over the final path
    /// (with a best-effort directory fsync), so a reader — concurrent or
    /// after a mid-write kill — observes either no entry or a complete one,
    /// never a torn file. Best-effort on I/O error: a failed store costs
    /// future cache hits, never correctness, so it warns once and degrades
    /// to cacheless instead of aborting. Returns `true` exactly when the
    /// entry is durably in place — the condition for journaling it.
    pub fn store(
        &self,
        config_fp: u64,
        scheme: Scheme,
        app: AppId,
        scale: Scale,
        result: &RunResult,
        zombies: Option<&[ZombieSample]>,
    ) -> bool {
        let bytes = encode(
            config_fp,
            workload_fingerprint(app, scale),
            scheme,
            app,
            scale,
            result,
            zombies,
        );
        let path = self.entry_path(config_fp, scheme, app, scale);
        let injected = fault::on_store();
        match injected {
            Some(FaultKind::IoError) => {
                // Simulated EIO: the entry is simply not persisted.
                warn_store_failure(&path, &std::io::Error::other("injected I/O error"));
                return false;
            }
            Some(FaultKind::ShortWrite) => {
                // Simulated torn write: a truncated entry lands at the
                // *final* path, bypassing the temp-file dance — the file a
                // pre-atomic writer (or a filesystem losing tail bytes on
                // power cut) would leave. Loaders must reject it.
                let torn = &bytes[..bytes.len() - bytes.len() / 3];
                let _ = std::fs::write(&path, torn);
                return false;
            }
            _ => {}
        }
        let tmp = self.dir.join(unique_tmp_suffix());
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&bytes).and_then(|()| f.sync_all()));
        if let Err(e) = written {
            warn_store_failure(&tmp, &e);
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        if injected == Some(FaultKind::Kill) {
            // The worst crash point: the temp file is durable but the
            // rename never happens — the entry must simply be missing on
            // the next run, and the orphan temp file must be inert.
            eprintln!("fault injection: kill between cache write and rename");
            std::process::exit(137);
        }
        match std::fs::rename(&tmp, &path) {
            Ok(()) => {
                // Make the rename itself durable (POSIX: fsync the parent
                // directory). Failure here only weakens durability of this
                // one entry, so it is best-effort.
                if let Ok(d) = std::fs::File::open(&self.dir) {
                    let _ = d.sync_all();
                }
                true
            }
            Err(e) => {
                warn_store_failure(&path, &e);
                let _ = std::fs::remove_file(&tmp);
                false
            }
        }
    }

    /// Tries to claim an entry before simulating it, so concurrent harness
    /// processes (and machines sharing the directory) avoid duplicating the
    /// work: opens `<stem>.claim` (creating it, never truncating) and takes
    /// a non-blocking exclusive lock on it. A live holder — however slow
    /// its job — is never preempted, and a holder that died (SIGKILL,
    /// power cut) lost its lock with its process, so the key is claimable
    /// on the very next call. Advisory for *correctness*: stores are
    /// idempotent, so a lost claim can only duplicate work, never corrupt
    /// a result.
    pub fn claim(&self, config_fp: u64, scheme: Scheme, app: AppId, scale: Scale) -> ClaimOutcome {
        if fault::on_claim().is_some() {
            // Injected claim failure: claims unavailable this attempt.
            return ClaimOutcome::Unavailable;
        }
        let path = self.dir.join(format!(
            "{}.claim",
            entry_stem(config_fp, scheme, app, scale)
        ));
        let Ok(file) = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
        else {
            return ClaimOutcome::Unavailable;
        };
        match file.try_lock() {
            Ok(()) => ClaimOutcome::Held(ClaimGuard { path, _file: file }),
            Err(std::fs::TryLockError::WouldBlock) => ClaimOutcome::Busy,
            Err(std::fs::TryLockError::Error(_)) => ClaimOutcome::Unavailable,
        }
    }

    /// The suite journal: an append-only log of completed (simulated *and
    /// persisted*) entry stems, one per line, shared by every process using
    /// this cache directory.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.log")
    }

    /// Appends one completed entry stem to the journal. A single `O_APPEND`
    /// write of one short line is atomic on POSIX, so concurrent appenders
    /// interleave whole lines; a mid-write kill at worst leaves one torn
    /// final line, which [`Self::journal_entries`] skips. Best-effort: the
    /// journal is an accounting aid, losing a line only weakens the
    /// `--expect-resumable` assertion, never a result.
    pub fn journal_append(&self, stem: &str) {
        let line = format!("{stem}\n");
        let _ = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.journal_path())
            .and_then(|mut f| f.write_all(line.as_bytes()));
    }

    /// Every complete line of the journal (deduplicated). A torn final line
    /// — no trailing newline, the signature of a mid-append kill — is
    /// ignored, as is a missing journal.
    pub fn journal_entries(&self) -> HashSet<String> {
        let Ok(text) = std::fs::read_to_string(self.journal_path()) else {
            return HashSet::new();
        };
        let complete = match text.rfind('\n') {
            Some(last) => &text[..=last],
            None => return HashSet::new(),
        };
        complete
            .lines()
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect()
    }

    /// Every complete line of the journal with its occurrence count,
    /// *without* deduplication — the raw record the fleet tests use to
    /// assert that no job was executed-and-stored twice.
    pub fn journal_occurrences(&self) -> HashMap<String, usize> {
        let Ok(text) = std::fs::read_to_string(self.journal_path()) else {
            return HashMap::new();
        };
        let complete = match text.rfind('\n') {
            Some(last) => &text[..=last],
            None => return HashMap::new(),
        };
        let mut counts = HashMap::new();
        for line in complete.lines().filter(|l| !l.is_empty()) {
            *counts.entry(line.to_string()).or_insert(0) += 1;
        }
        counts
    }

    /// Compacts the journal in place: deduplicates lines (first-seen order),
    /// drops a torn final line, and rewrites atomically with the same
    /// tmp + fsync + rename discipline as entry stores. Returns the number
    /// of lines removed.
    ///
    /// The journal grows without bound across resumed runs — every resume
    /// re-appends nothing, but retries and multi-process campaigns can
    /// duplicate lines, and a torn final line otherwise persists forever.
    /// Every `exp_all` calls this at startup, serialized against other
    /// compactors by a `journal.lock` breaker; a rival appending
    /// concurrently can at worst have one line dropped, which weakens
    /// accounting (a job may re-verify on resume), never a result.
    pub fn compact_journal(&self) -> std::io::Result<usize> {
        let path = self.journal_path();
        let lock = self.dir.join("journal.lock");
        let Ok(_lock) = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock)
        else {
            return Ok(0); // another compactor is active: skip
        };
        let result = self.compact_journal_locked(&path);
        let _ = std::fs::remove_file(&lock);
        result
    }

    fn compact_journal_locked(&self, path: &Path) -> std::io::Result<usize> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let complete = match text.rfind('\n') {
            Some(last) => &text[..=last],
            None => "",
        };
        let before = text.lines().count();
        let mut seen = HashSet::new();
        let mut compacted = String::with_capacity(complete.len());
        for line in complete.lines().filter(|l| !l.is_empty()) {
            if seen.insert(line) {
                compacted.push_str(line);
                compacted.push('\n');
            }
        }
        if before == seen.len() && text.ends_with('\n') {
            return Ok(0); // already compact: leave the inode alone
        }
        let tmp = self.dir.join("journal.log.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(compacted.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Ok(dir) = std::fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(before - seen.len())
    }
}

static ACTIVE: OnceLock<Option<RunCache>> = OnceLock::new();

/// Installs the process-wide cache used by the run memoization layer.
///
/// The first call wins for the whole process; later calls (any directory)
/// are no-ops. If the directory cannot be created (read-only checkout,
/// permission trouble) the run **warns and degrades to cacheless** instead
/// of aborting — a missing cache costs time, never results.
/// **Nothing is installed by default** — library users and the test suite
/// run purely in-process unless a binary opts in (`--no-cache` simply skips
/// this call). Returns `true` when this call performed the installation.
pub fn install(dir: impl Into<PathBuf>) -> bool {
    let dir = dir.into();
    let mut installed_here = false;
    ACTIVE.get_or_init(|| {
        installed_here = true;
        match RunCache::new(&dir) {
            Ok(cache) => Some(cache),
            Err(e) => {
                eprintln!(
                    "warning: cannot open run cache at {} ({e}); \
                     running without a persistent cache",
                    dir.display()
                );
                None
            }
        }
    });
    installed_here
}

/// [`install`] at [`default_dir`] (`results/.runcache/` at the repo root
/// unless overridden by environment).
pub fn install_default() -> bool {
    install(default_dir())
}

/// The installed process-wide cache, if any.
pub(crate) fn active() -> Option<&'static RunCache> {
    ACTIVE.get().and_then(Option::as_ref)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_dense_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for scheme in [
            Scheme::Baseline,
            Scheme::Sdbp,
            Scheme::Decay,
            Scheme::Edbp,
            Scheme::DecayEdbp,
            Scheme::Amc,
            Scheme::AmcEdbp,
            Scheme::Ideal,
            Scheme::LeakageOff80,
        ] {
            assert!(seen.insert(scheme_tag(scheme)));
        }
        for (i, &app) in AppId::ALL.iter().enumerate() {
            assert_eq!(usize::from(app_tag(app)), i);
        }
        assert_eq!(scale_tag(Scale::Tiny), 0);
        assert_eq!(scale_tag(Scale::Full), 2);
    }

    #[test]
    fn workload_fingerprint_separates_apps_and_scales() {
        let a = workload_fingerprint(AppId::Crc32, Scale::Tiny);
        assert_eq!(
            a,
            workload_fingerprint(AppId::Crc32, Scale::Tiny),
            "memoized + stable"
        );
        assert_ne!(a, workload_fingerprint(AppId::Sha, Scale::Tiny));
        assert_ne!(a, workload_fingerprint(AppId::Crc32, Scale::Small));
    }

    #[test]
    fn checksum_is_seedless() {
        // The same bytes must hash identically in any process; this pins
        // the in-process half of that contract (cross-process stability
        // follows from FxHasher having no seed).
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
    }
}
