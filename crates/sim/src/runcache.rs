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
//! Entries live in append-only segment files under the cache directory
//! (default `results/.runcache/`), one segment per writing handle:
//! `<pid>-<n>.seg`. A segment is a plain concatenation of little-endian
//! binary entries:
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
//! byte of the entry.
//!
//! [`RunCache::new`] streams every `*.seg` file of the directory, one entry
//! at a time, into an index from `(config_fp, workload_fp, scheme, app,
//! scale)` to the entry's segment, offset and length. It skips entries of
//! another [`SCHEMA_VERSION`], and stops reading a segment at the first
//! entry whose length overruns the file, whose magic is wrong or whose
//! checksum fails: a torn tail, or garbage. The handle indexes its own
//! commits as well, so [`RunCache::load`] is one positioned read plus a
//! decode that checks every field again. **Any** mismatch makes it return
//! `None` and the caller falls back to re-simulation; a corrupt cache can
//! cost time, never correctness. The index holds offsets, never entry bytes.
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
//! invalidate naturally through the fingerprints. Superseded entries stay
//! in their segments, unread; deleting the directory is the compaction.
//! `*.run` files (one file per entry, written by older builds) are inert:
//! nothing reads them, so a cache of them re-simulates once.
//!
//! # Crash atomicity and sharing
//!
//! The cache is held to the same fault model as the simulated hardware:
//! a process may die (SIGKILL, power cut) at **any** instruction, and every
//! entry a later handle indexes must still be complete.
//!
//! * Entries land in group commits ([`RunCache::store`] is a group of
//!   one): the group's entries are appended to the handle's segment with
//!   one write and made durable with one `fdatasync`. A handle's first
//!   commit creates its segment (`create_new`, then one directory fsync).
//!   A kill mid-append leaves a torn tail, which the next scan stops at;
//!   every entry before it loads, and each entry lost re-simulates to the
//!   same bytes. A handle whose append fails abandons its segment, so its
//!   next commit starts a new segment instead of appending after a torn
//!   tail.
//! * The runner makes the thread that waits for a call's simulation
//!   threads the cache's only writer: finished entries queue up while it
//!   commits, and its next commit takes all of them, so simulation threads
//!   never wait on the disk and one `fdatasync` covers many entries.
//! * A handle sees what was on disk when it opened, plus its own commits.
//!   Two processes may share a directory with no exclusion between them:
//!   each appends only to segments it created, and simulates what it does
//!   not find, so two concurrent runs may both simulate a key and both
//!   store identical bytes. That costs time, never a result. Nothing
//!   splits the work.
//! * The directory is the only record of finished work; no log sits
//!   beside it. A re-run after a kill loads every valid entry
//!   ([`RunCache::load`]) and simulates only what is missing.
//!
//! The deterministic fault-injection harness ([`crate::fault`]) drives
//! kills, torn writes and I/O errors through these paths in tests and CI.

use crate::fault::{self, FaultKind};
use crate::runner::lock_unpoisoned;
use crate::{EnergyBreakdown, RunResult, Scheme, ZombieSample};
use edbp_core::{FxBuildHasher, FxHashMap, PredictionSummary};
use ehs_cache::CacheStats;
use ehs_units::{Energy, Time};
use ehs_workloads::{AppId, Scale};
use std::fs::File;
use std::hash::{BuildHasher, Hash, Hasher};
use std::io::{self, BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError, RwLock};

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

/// The identifier of one job in failure summaries:
/// `<config_fp hex>-<scheme>-<app>-<scale>`.
pub fn entry_stem(config_fp: u64, scheme: Scheme, app: AppId, scale: Scale) -> String {
    format!(
        "{config_fp:016x}-{}-{}-{}",
        scheme.name(),
        app.name(),
        scale_name(scale)
    )
}

/// Bytes before an entry's payload: magic, schema version, the two
/// fingerprints, the four tags and the payload length.
const HEADER_LEN: usize = 40;

/// Bytes after it: the checksum.
const CHECKSUM_LEN: usize = 8;

/// The buffer that streams a segment through [`RunCache::new`]'s scan.
const SCAN_BUFFER: usize = 64 * 1024;

/// What names a cached result: the header fields an entry is indexed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    config_fp: u64,
    workload_fp: u64,
    scheme: u8,
    app: u8,
    scale: u8,
}

impl Key {
    fn of(config_fp: u64, scheme: Scheme, app: AppId, scale: Scale) -> Self {
        Self {
            config_fp,
            workload_fp: workload_fingerprint(app, scale),
            scheme: scheme_tag(scheme),
            app: app_tag(app),
            scale: scale_tag(scale),
        }
    }
}

/// Where an indexed entry sits.
#[derive(Debug, Clone, Copy)]
struct Loc {
    /// Position in [`Index::segments`].
    segment: usize,
    offset: u64,
    len: u64,
}

/// Parses an entry header: its key, schema version and whole length, or
/// `None` for a wrong magic or a length past `u64`.
fn parse_header(header: &[u8; HEADER_LEN]) -> Option<(Key, u32, u64)> {
    let mut r = Reader::new(header);
    if r.bytes(MAGIC.len())? != MAGIC {
        return None;
    }
    let version = r.u32()?;
    let key = Key {
        config_fp: r.u64()?,
        workload_fp: r.u64()?,
        scheme: r.u8()?,
        app: r.u8()?,
        scale: r.u8()?,
    };
    let _flags = r.u8()?;
    let len = r.u64()?.checked_add((HEADER_LEN + CHECKSUM_LEN) as u64)?;
    Some((key, version, len))
}

/// Indexes the entries of one segment, file number `segment`, in order up
/// to the first one that overruns the file, has a wrong magic or fails its
/// checksum; skips entries of another [`SCHEMA_VERSION`]. Reads one entry
/// at a time into `entry`. Returns whether it indexed any.
fn scan_segment(
    file: &File,
    segment: usize,
    entries: &mut FxHashMap<Key, Loc>,
    entry: &mut Vec<u8>,
) -> bool {
    let Ok(file_len) = file.metadata().map(|m| m.len()) else {
        return false;
    };
    let mut reader = BufReader::with_capacity(SCAN_BUFFER, file);
    let mut header = [0; HEADER_LEN];
    let mut offset = 0;
    let mut indexed = false;
    while reader.read_exact(&mut header).is_ok() {
        let Some((key, version, len)) = parse_header(&header) else {
            break;
        };
        let Some(buf_len) = (len <= file_len - offset)
            .then(|| usize::try_from(len).ok())
            .flatten()
        else {
            break;
        };
        entry.clear();
        entry.extend_from_slice(&header);
        entry.resize(buf_len, 0);
        if reader.read_exact(&mut entry[HEADER_LEN..]).is_err() {
            break;
        }
        let (body, sum) = entry.split_at(buf_len - CHECKSUM_LEN);
        if checksum(body).to_le_bytes() != sum {
            break;
        }
        if version == SCHEMA_VERSION {
            entries.insert(
                key,
                Loc {
                    segment,
                    offset,
                    len,
                },
            );
            indexed = true;
        }
        offset += len;
    }
    indexed
}

/// Reads exactly `buf.len()` bytes of `file` at `offset`, without moving
/// any file cursor.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Reads exactly `buf.len()` bytes of `file` at `offset`.
#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset)? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
        }
    }
    Ok(())
}

/// What a handle can load. Every update is one push or one insert, so a
/// lock poisoned by a panic elsewhere still guards a valid index.
#[derive(Debug, Default)]
struct Index {
    /// One read handle per segment that holds an indexed entry.
    segments: Vec<File>,
    entries: FxHashMap<Key, Loc>,
}

/// The segment a handle appends to.
#[derive(Debug)]
struct Writer {
    file: File,
    path: PathBuf,
    /// Its position in [`Index::segments`].
    segment: usize,
    /// Its length: where the next append lands.
    end: u64,
}

/// A directory of cached run results, opened: the index of its segments
/// as they were at [`RunCache::new`], plus this handle's own commits.
#[derive(Debug)]
pub struct RunCache {
    dir: PathBuf,
    index: RwLock<Index>,
    /// This handle's segment, created by its first commit.
    writer: Mutex<Option<Writer>>,
}

/// One warning per process when cache writes start failing (read-only
/// directory, disk full, …): the run degrades to cacheless, it never aborts.
static STORE_WARNED: AtomicBool = AtomicBool::new(false);

fn warn_store_failure(path: &Path, err: &io::Error) {
    if !STORE_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warning: cannot write run cache {} ({err}); \
             continuing without persisting results (re-runs will re-simulate)",
            path.display()
        );
    }
}

/// One encoded entry waiting for [`RunCache::commit`].
#[derive(Debug)]
pub(crate) struct Staged {
    key: Key,
    bytes: Vec<u8>,
}

impl RunCache {
    /// Opens (creating if needed) a cache rooted at `dir`, and indexes every
    /// entry its segments hold (see the module docs). Other files, such as
    /// older builds' `*.run` entries, are ignored.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut index = Index::default();
        let mut entry = Vec::new();
        for path in std::fs::read_dir(&dir)?.flatten().map(|e| e.path()) {
            if path.extension().is_none_or(|ext| ext != "seg") {
                continue;
            }
            let Ok(file) = File::open(&path) else {
                continue;
            };
            let segment = index.segments.len();
            if scan_segment(&file, segment, &mut index.entries, &mut entry) {
                index.segments.push(file);
            }
        }
        Ok(Self {
            dir,
            index: RwLock::new(index),
            writer: Mutex::new(None),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
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
        let key = Key::of(config_fp, scheme, app, scale);
        let bytes = {
            let index = self.index.read().unwrap_or_else(PoisonError::into_inner);
            let loc = index.entries.get(&key)?;
            let mut bytes = vec![0; usize::try_from(loc.len).ok()?];
            read_exact_at(&index.segments[loc.segment], &mut bytes, loc.offset).ok()?;
            bytes
        };
        decode(&bytes, config_fp, key.workload_fp, scheme, app, scale)
    }

    /// Stores one entry durably, as a group commit of one (see the module
    /// docs): the entry is appended to this handle's segment and
    /// `fdatasync`ed, so a reader — concurrent, or after a kill at any
    /// instant — indexes either no entry or a complete one. Best-effort on
    /// I/O error: a failed store costs future cache hits, never
    /// correctness, so it warns once and degrades to cacheless instead of
    /// aborting. Returns whether the entry is durably in place; this handle
    /// loads it from then on.
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
        let key = Key::of(config_fp, scheme, app, scale);
        Staged {
            key,
            bytes: encode(
                config_fp,
                key.workload_fp,
                scheme,
                app,
                scale,
                result,
                zombies,
            ),
        }
    }

    /// Stores a batch of entries as one group commit, with
    /// [`store`](Self::store)'s guarantees: one append of the batch to this
    /// handle's segment, then one `fdatasync`.
    ///
    /// Each entry meets one [`fault::on_store`] hit, in batch order, before
    /// any byte of the batch is written. Returns how many entries are
    /// durably in place.
    pub(crate) fn commit(&self, batch: &[Staged]) -> usize {
        let faults: Vec<Option<FaultKind>> = batch.iter().map(|_| fault::on_store()).collect();
        self.append_group(batch, &faults)
    }

    /// [`commit`](Self::commit), given each entry's injected fault: `io`
    /// skips its entry; `short` appends a truncated copy of its entry after
    /// the group's earlier ones, then abandons the segment, so the rest of
    /// the group lands in a new one; `kill` appends the first half of the
    /// group's bytes and exits before the `fdatasync`, the torn tail a
    /// crash mid-append leaves.
    fn append_group(&self, batch: &[Staged], faults: &[Option<FaultKind>]) -> usize {
        let mut writer = lock_unpoisoned(&self.writer);
        if faults.contains(&Some(FaultKind::Kill)) {
            let bytes: Vec<u8> = batch
                .iter()
                .zip(faults)
                .filter(|&(_, &fault)| fault != Some(FaultKind::IoError))
                .flat_map(|(entry, _)| entry.bytes.iter().copied())
                .collect();
            if let Some(w) = self.writer_or_new(&mut writer) {
                let _ = (&w.file).write_all(&bytes[..bytes.len() / 2]);
            }
            eprintln!("fault injection: kill mid-append, before the group's fdatasync");
            std::process::exit(137);
        }
        let mut stored = 0;
        let mut run: Vec<&Staged> = Vec::with_capacity(batch.len());
        for (entry, &fault) in batch.iter().zip(faults) {
            match fault {
                Some(FaultKind::IoError) => {
                    // Simulated EIO: the entry is simply not persisted.
                    let e = io::Error::other("injected I/O error");
                    warn_store_failure(&self.dir, &e);
                }
                Some(FaultKind::ShortWrite) => {
                    let torn = &entry.bytes[..entry.bytes.len() - entry.bytes.len() / 3];
                    stored += self.append(&mut writer, &run, torn);
                    *writer = None;
                    run.clear();
                }
                _ => run.push(entry),
            }
        }
        stored + self.append(&mut writer, &run, &[])
    }

    /// Appends `entries`, then `tail` (a torn write's bytes, never indexed),
    /// to this handle's segment with one write and one `fdatasync`, and
    /// indexes the entries. Returns how many entries are durably in place.
    /// A failed append abandons the segment, whose tail may now be torn.
    fn append(&self, writer: &mut Option<Writer>, entries: &[&Staged], tail: &[u8]) -> usize {
        if entries.is_empty() && tail.is_empty() {
            return 0;
        }
        let Some(w) = self.writer_or_new(writer) else {
            return 0;
        };
        let mut bytes =
            Vec::with_capacity(entries.iter().map(|e| e.bytes.len()).sum::<usize>() + tail.len());
        for entry in entries {
            bytes.extend_from_slice(&entry.bytes);
        }
        bytes.extend_from_slice(tail);
        if let Err(e) = (&w.file)
            .write_all(&bytes)
            .and_then(|()| w.file.sync_data())
        {
            warn_store_failure(&w.path, &e);
            *writer = None;
            return 0;
        }
        let mut offset = w.end;
        w.end += bytes.len() as u64;
        let mut index = self.index.write().unwrap_or_else(PoisonError::into_inner);
        for entry in entries {
            let len = entry.bytes.len() as u64;
            let loc = Loc {
                segment: w.segment,
                offset,
                len,
            };
            index.entries.insert(entry.key, loc);
            offset += len;
        }
        entries.len()
    }

    /// This handle's segment, created on first use; `None`, after one
    /// warning, when it cannot be created.
    fn writer_or_new<'w>(&self, writer: &'w mut Option<Writer>) -> Option<&'w mut Writer> {
        if writer.is_none() {
            match self.create_segment() {
                Ok(created) => *writer = Some(created),
                Err(e) => warn_store_failure(&self.dir, &e),
            }
        }
        writer.as_mut()
    }

    /// Creates a segment under a name no other handle uses,
    /// `<pid>-<n>.seg` (`create_new` skips names an earlier process with
    /// this pid left), makes the name durable with one directory fsync, and
    /// opens it for this handle's loads.
    fn create_segment(&self) -> io::Result<Writer> {
        static SEGMENTS: AtomicU64 = AtomicU64::new(0);
        let (file, path) = loop {
            let n = SEGMENTS.fetch_add(1, Ordering::Relaxed);
            let path = self.dir.join(format!("{}-{n}.seg", std::process::id()));
            match File::options().write(true).create_new(true).open(&path) {
                Ok(file) => break (file, path),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(e),
            }
        };
        // POSIX: a new name is durable once its directory is fsynced.
        // Best-effort: failure only weakens durability, and some platforms
        // cannot open a directory at all.
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        let reader = File::open(&path)?;
        let mut index = self.index.write().unwrap_or_else(PoisonError::into_inner);
        index.segments.push(reader);
        Ok(Writer {
            file,
            path,
            segment: index.segments.len() - 1,
            end: 0,
        })
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

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ehs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The `*.seg` files of `dir`.
    fn segments(dir: &Path) -> Vec<PathBuf> {
        let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
            .expect("read cache dir")
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        segs.sort();
        segs
    }

    /// Simulated Tiny runs of `keys` under the paper default, with their
    /// effective fingerprints.
    fn runs(keys: &[(Scheme, AppId)]) -> Vec<(u64, Scheme, AppId, RunResult)> {
        let config = crate::SystemConfig::paper_default();
        keys.iter()
            .map(|&(scheme, app)| {
                let fp = crate::runner::effective_fingerprint(&config, scheme);
                (
                    fp,
                    scheme,
                    app,
                    crate::run_app(&config, scheme, app, Scale::Tiny),
                )
            })
            .collect()
    }

    #[test]
    fn a_group_commit_appends_its_whole_batch_to_one_segment() {
        let dir = fresh_dir("group-commit");
        let cache = RunCache::new(&dir).expect("create temp cache");
        let samples = [ZombieSample {
            voltage: 3.25,
            zombie: true,
        }];
        // The last entry repeats the first key with identical bytes.
        let runs = runs(&[
            (Scheme::Baseline, AppId::Crc32),
            (Scheme::Edbp, AppId::Crc32),
            (Scheme::Baseline, AppId::Sha),
            (Scheme::Baseline, AppId::Crc32),
        ]);
        let zombies = |app| (app == AppId::Sha).then_some(&samples[..]);
        let batch: Vec<Staged> = runs
            .iter()
            .map(|(fp, scheme, app, result)| {
                cache.stage(*fp, *scheme, *app, Scale::Tiny, result, zombies(*app))
            })
            .collect();
        assert!(segments(&dir).is_empty(), "staging writes nothing");
        assert_eq!(cache.commit(&batch), runs.len(), "every entry stored");

        let expected: Vec<u8> = batch.iter().flat_map(|e| e.bytes.clone()).collect();
        let segs = segments(&dir);
        assert_eq!(segs.len(), 1, "one segment per handle");
        assert_eq!(std::fs::read(&segs[0]).expect("segment"), expected);
        for handle in [&cache, &RunCache::new(&dir).expect("reopen")] {
            for (fp, scheme, app, result) in &runs {
                let loaded = handle.load(*fp, *scheme, *app, Scale::Tiny).expect("loads");
                assert_eq!(loaded.result, *result);
                assert_eq!(loaded.zombie_samples.as_deref(), zombies(*app));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn write abandons the segment: the group's entries before it
    /// load, the torn one misses, and the rest of the group, and every
    /// later commit, land in a new segment and load.
    #[test]
    fn a_short_write_abandons_its_segment() {
        let dir = fresh_dir("short-write");
        let cache = RunCache::new(&dir).expect("create temp cache");
        let runs = runs(&[
            (Scheme::Baseline, AppId::Crc32),
            (Scheme::Edbp, AppId::Crc32),
            (Scheme::Baseline, AppId::Sha),
            (Scheme::Edbp, AppId::Sha),
        ]);
        let stage = |(fp, scheme, app, result): &(u64, Scheme, AppId, RunResult)| {
            cache.stage(*fp, *scheme, *app, Scale::Tiny, result, None)
        };
        let group: Vec<Staged> = runs[..3].iter().map(stage).collect();
        let faults = [None, Some(FaultKind::ShortWrite), None];
        assert_eq!(cache.append_group(&group, &faults), 2);
        assert!(cache.store(
            runs[3].0,
            runs[3].1,
            runs[3].2,
            Scale::Tiny,
            &runs[3].3,
            None
        ));

        let segs = segments(&dir);
        assert_eq!(segs.len(), 2, "the torn write closed the first segment");
        let torn = &group[1].bytes[..group[1].bytes.len() - group[1].bytes.len() / 3];
        let first: Vec<u8> = [&group[0].bytes[..], torn].concat();
        let second: Vec<u8> = [&group[2].bytes[..], &stage(&runs[3]).bytes[..]].concat();
        let mut contents: Vec<Vec<u8>> = segs
            .iter()
            .map(|p| std::fs::read(p).expect("segment"))
            .collect();
        contents.sort_by_key(|c| c != &first);
        assert_eq!(contents, [first, second]);
        for handle in [&cache, &RunCache::new(&dir).expect("reopen")] {
            for (i, (fp, scheme, app, result)) in runs.iter().enumerate() {
                let loaded = handle.load(*fp, *scheme, *app, Scale::Tiny);
                if i == 1 {
                    assert!(loaded.is_none(), "the torn entry must miss");
                } else {
                    assert_eq!(loaded.expect("entry loads").result, *result);
                }
            }
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
