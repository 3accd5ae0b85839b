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
//! * Entries land in group commits ([`RunCache::store`] is a group of
//!   one): each entry is written to a process-private temp file and
//!   fsynced, then every temp file is atomically renamed over its final
//!   path, and the directory is fsynced once (best-effort). A reader never
//!   observes a torn entry, and the trailing checksum rejects anything a
//!   weaker writer left behind. A kill mid-commit loses at most the
//!   commit's entries, each of which a re-run simulates again to the same
//!   bytes.
//! * The runner makes the thread that waits for a call's simulation
//!   threads the cache's only writer: finished entries queue up while it
//!   commits, and its next commit takes all of them, so simulation threads
//!   never wait on the disk and one directory fsync covers many entries.
//! * Two processes may share a directory with no exclusion between them:
//!   each simulates what it does not find on disk, and renames are atomic
//!   and idempotent (identical bytes for identical keys), so a key both
//!   simulate costs time, never a result. Nothing splits the work.
//! * The directory is the only record of finished work; no log sits
//!   beside it. A re-run after a kill loads every valid entry
//!   ([`RunCache::load`]) and simulates only what is missing.
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

/// The file-name stem of one cache entry, also the job identifier in
/// failure summaries:
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

/// One encoded entry waiting for [`RunCache::commit`].
#[derive(Debug)]
pub(crate) struct Staged {
    path: PathBuf,
    bytes: Vec<u8>,
}

impl RunCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// Temp files that crashed processes left behind are swept once they
    /// are an hour old (a fresh one may belong to a live concurrent
    /// process; it is harmless either way).
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
            if !entry.file_name().to_string_lossy().starts_with(".tmp-") {
                continue;
            }
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| t.elapsed().ok())
                .is_some_and(|age| age > Duration::from_secs(3600));
            if stale {
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

    /// Stores one entry crash-atomically, as a group commit of one (see
    /// the module docs): the bytes go to a process-private temp file and
    /// are fsynced, the temp file is renamed over the final path, and the
    /// directory is fsynced, so a reader — concurrent, or after a kill at
    /// any instant — observes either no entry or a complete one, never a
    /// torn file. Best-effort on I/O error: a failed store costs future
    /// cache hits, never correctness, so it warns once and degrades to
    /// cacheless instead of aborting. Returns whether the entry is durably
    /// in place.
    pub fn store(
        &self,
        config_fp: u64,
        scheme: Scheme,
        app: AppId,
        scale: Scale,
        result: &RunResult,
        zombies: Option<&[ZombieSample]>,
    ) -> bool {
        let entry = self.stage(config_fp, scheme, app, scale, result, zombies);
        self.commit(&[entry]) == 1
    }

    /// Encodes one entry for a later [`commit`](Self::commit).
    pub(crate) fn stage(
        &self,
        config_fp: u64,
        scheme: Scheme,
        app: AppId,
        scale: Scale,
        result: &RunResult,
        zombies: Option<&[ZombieSample]>,
    ) -> Staged {
        Staged {
            path: self.entry_path(config_fp, scheme, app, scale),
            bytes: encode(
                config_fp,
                workload_fingerprint(app, scale),
                scheme,
                app,
                scale,
                result,
                zombies,
            ),
        }
    }

    /// Stores a batch of entries as one group commit, with
    /// [`store`](Self::store)'s guarantees: each entry's bytes go to a
    /// process-private temp file and are fsynced, then every temp file is
    /// renamed over its final path, and the directory is fsynced once.
    ///
    /// Each entry meets one [`fault::on_store`] hit, in batch order, before
    /// any file of the batch is touched. An injected `kill` fires once the
    /// batch's temp files are durable and before any of its renames.
    /// Returns how many entries are durably in place.
    pub(crate) fn commit(&self, batch: &[Staged]) -> usize {
        let faults: Vec<Option<FaultKind>> = batch.iter().map(|_| fault::on_store()).collect();
        let mut durable = Vec::with_capacity(batch.len());
        for (entry, &injected) in batch.iter().zip(&faults) {
            match injected {
                Some(FaultKind::IoError) => {
                    // Simulated EIO: the entry is simply not persisted.
                    let e = std::io::Error::other("injected I/O error");
                    warn_store_failure(&entry.path, &e);
                    continue;
                }
                Some(FaultKind::ShortWrite) => {
                    // Simulated torn write: a truncated entry lands at the
                    // *final* path, bypassing the temp-file dance — the
                    // file a pre-atomic writer (or a filesystem losing tail
                    // bytes on power cut) would leave. Loaders must reject
                    // it.
                    let torn = &entry.bytes[..entry.bytes.len() - entry.bytes.len() / 3];
                    let _ = std::fs::write(&entry.path, torn);
                    continue;
                }
                _ => {}
            }
            let tmp = self.dir.join(unique_tmp_suffix());
            let written = std::fs::File::create(&tmp)
                .and_then(|mut f| f.write_all(&entry.bytes).and_then(|()| f.sync_all()));
            match written {
                Ok(()) => durable.push((tmp, &entry.path)),
                Err(e) => {
                    warn_store_failure(&tmp, &e);
                    let _ = std::fs::remove_file(&tmp);
                }
            }
        }
        if faults.contains(&Some(FaultKind::Kill)) {
            // The worst crash point: the temp files are durable but no
            // rename happens — the entries must simply be missing on the
            // next run, and the orphan temp files must be inert.
            eprintln!("fault injection: kill between cache write and rename");
            std::process::exit(137);
        }
        let mut stored = 0;
        for (tmp, path) in durable {
            match std::fs::rename(&tmp, path) {
                Ok(()) => stored += 1,
                Err(e) => {
                    warn_store_failure(path, &e);
                    let _ = std::fs::remove_file(&tmp);
                }
            }
        }
        if stored > 0 {
            // Make the renames themselves durable (POSIX: fsync the parent
            // directory). Failure here only weakens durability of these
            // entries, so it is best-effort.
            if let Ok(d) = std::fs::File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        stored
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
    fn a_group_commit_stores_its_whole_batch() {
        let dir = std::env::temp_dir().join(format!("ehs-group-commit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::new(&dir).expect("create temp cache");
        let config = crate::SystemConfig::paper_default();
        let samples = [ZombieSample {
            voltage: 3.25,
            zombie: true,
        }];
        // The last entry repeats the first key: its rename replaces the
        // first one's identical bytes.
        let keys = [
            (Scheme::Baseline, AppId::Crc32, None),
            (Scheme::Edbp, AppId::Crc32, None),
            (Scheme::Baseline, AppId::Sha, Some(&samples[..])),
            (Scheme::Baseline, AppId::Crc32, None),
        ];
        let runs: Vec<_> = keys
            .iter()
            .map(|&(scheme, app, zombies)| {
                let fp = crate::runner::effective_fingerprint(&config, scheme);
                let result = crate::run_app(&config, scheme, app, Scale::Tiny);
                (fp, scheme, app, result, zombies)
            })
            .collect();
        let batch: Vec<Staged> = runs
            .iter()
            .map(|&(fp, scheme, app, ref result, zombies)| {
                cache.stage(fp, scheme, app, Scale::Tiny, result, zombies)
            })
            .collect();
        assert_eq!(cache.commit(&batch), keys.len(), "every entry stored");

        for &(fp, scheme, app, ref result, zombies) in &runs {
            let wfp = workload_fingerprint(app, Scale::Tiny);
            let expected = encode(fp, wfp, scheme, app, Scale::Tiny, result, zombies);
            let path = cache.entry_path(fp, scheme, app, Scale::Tiny);
            assert_eq!(std::fs::read(path).expect("entry file"), expected);
            let loaded = cache.load(fp, scheme, app, Scale::Tiny).expect("loads");
            assert_eq!(loaded.result, *result);
            assert_eq!(loaded.zombie_samples.as_deref(), zombies);
        }
        for entry in std::fs::read_dir(&dir).expect("read cache dir").flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            assert!(!name.starts_with(".tmp-"), "leftover temp file: {name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
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
