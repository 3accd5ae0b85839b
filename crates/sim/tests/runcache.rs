//! Persistent result-cache round-trip and rejection tests.
//!
//! These exercise [`ehs_sim::runcache::RunCache`] directly against private
//! temp directories (`CARGO_TARGET_TMPDIR`), without installing a
//! process-wide cache — so they compose with the rest of the test suite,
//! which must keep running purely in-process. Corruption is applied to
//! segment bytes on disk, and a fresh handle (which indexes what is on disk
//! when it opens) must reject it. The end-to-end fallback path (a rejected
//! entry triggering re-simulation inside the planner) is covered by
//! `tests/planner.rs`; injected torn writes and I/O errors by the module's
//! unit tests, since a fault plan is process-wide.

use ehs_sim::runcache::{checksum, RunCache, SCHEMA_VERSION};
use ehs_sim::runner::effective_fingerprint;
use ehs_sim::RunResult;
use ehs_sim::{run_app, Scheme, SystemConfig, ZombieSample};
use ehs_workloads::{AppId, Scale};
use std::path::{Path, PathBuf};

const ALL_SCHEMES: [Scheme; 9] = [
    Scheme::Baseline,
    Scheme::Sdbp,
    Scheme::Decay,
    Scheme::Edbp,
    Scheme::DecayEdbp,
    Scheme::Amc,
    Scheme::AmcEdbp,
    Scheme::Ideal,
    Scheme::LeakageOff80,
];

fn tmp_cache(name: &str) -> RunCache {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    // A fresh directory per test: stale entries from a previous test run
    // would turn round-trip tests into replay tests.
    let _ = std::fs::remove_dir_all(&dir);
    RunCache::new(dir).expect("create temp cache")
}

/// The disk round-trip is lossless for every scheme × app at Tiny: a
/// `RunResult` loaded back compares equal (bit-for-bit on every field that
/// participates in `PartialEq`; the wall-clock `sim_mips` is excluded there
/// by design) to the freshly simulated one. Each entry is loaded back
/// through the handle that stored it, which indexes its own commits.
#[test]
fn round_trip_is_bit_identical_for_every_scheme_and_app() {
    let cache = tmp_cache("roundtrip");
    let config = SystemConfig::paper_default();
    for scheme in ALL_SCHEMES {
        let fp = effective_fingerprint(&config, scheme);
        for app in AppId::ALL {
            let fresh = run_app(&config, scheme, app, Scale::Tiny);
            cache.store(fp, scheme, app, Scale::Tiny, &fresh, None);
            let replayed = cache
                .load(fp, scheme, app, Scale::Tiny)
                .unwrap_or_else(|| panic!("{}/{} round-trip missed", scheme.name(), app.name()));
            assert_eq!(
                replayed.result,
                fresh,
                "{}/{} diverged across the disk round-trip",
                scheme.name(),
                app.name()
            );
            assert!(replayed.zombie_samples.is_none());
        }
    }
}

/// Zombie samples ride along and round-trip exactly.
#[test]
fn round_trip_preserves_zombie_samples() {
    let cache = tmp_cache("zombies");
    let config = SystemConfig::paper_default();
    let fp = effective_fingerprint(&config, Scheme::Baseline);
    let result = run_app(&config, Scheme::Baseline, AppId::Crc32, Scale::Tiny);
    let samples = vec![
        ZombieSample {
            voltage: 3.4375,
            zombie: true,
        },
        ZombieSample {
            voltage: 3.2,
            zombie: false,
        },
    ];
    cache.store(
        fp,
        Scheme::Baseline,
        AppId::Crc32,
        Scale::Tiny,
        &result,
        Some(&samples),
    );
    let replayed = cache
        .load(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny)
        .expect("zombie entry loads");
    assert_eq!(replayed.result, result);
    assert_eq!(replayed.zombie_samples.as_deref(), Some(samples.as_slice()));
}

/// The `*.seg` files of `dir`, sorted by name.
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

/// One simulated Tiny result and its effective fingerprint.
fn simulated(scheme: Scheme, app: AppId) -> (u64, RunResult) {
    let config = SystemConfig::paper_default();
    let fp = effective_fingerprint(&config, scheme);
    (fp, run_app(&config, scheme, app, Scale::Tiny))
}

/// Stores one Baseline/Crc32 entry; returns its fingerprint, result and
/// the segment that holds it, alone.
fn seed_one_entry(cache: &RunCache) -> (u64, RunResult, PathBuf) {
    let (fp, result) = simulated(Scheme::Baseline, AppId::Crc32);
    assert!(cache.store(
        fp,
        Scheme::Baseline,
        AppId::Crc32,
        Scale::Tiny,
        &result,
        None
    ));
    let segs = segments(cache.dir());
    assert_eq!(segs.len(), 1, "the first store creates one segment");
    (fp, result, segs[0].clone())
}

fn loads_crc32_baseline(cache: &RunCache, fp: u64) -> bool {
    cache
        .load(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny)
        .is_some()
}

/// Rewrites bytes `range` of a one-entry segment's entry to `value` and
/// re-seals the trailing checksum, so only the field check can reject it.
fn reseal(bytes: &mut [u8], range: std::ops::Range<usize>, value: &[u8]) {
    bytes[range].copy_from_slice(value);
    let body = bytes.len() - 8;
    let seal = checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&seal.to_le_bytes());
}

/// A segment cut inside its last entry (the tail a kill mid-append
/// leaves): every earlier entry loads, and the torn one misses.
#[test]
fn truncated_segment_keeps_its_earlier_entries() {
    let cache = tmp_cache("truncated");
    let (fp, _, seg) = seed_one_entry(&cache);
    let (sha_fp, sha) = simulated(Scheme::Edbp, AppId::Sha);
    assert!(cache.store(sha_fp, Scheme::Edbp, AppId::Sha, Scale::Tiny, &sha, None));
    assert_eq!(
        segments(cache.dir()),
        std::slice::from_ref(&seg),
        "one handle, one segment"
    );
    let bytes = std::fs::read(&seg).expect("read segment");
    std::fs::write(&seg, &bytes[..bytes.len() - 9]).expect("truncate segment");

    let reopened = RunCache::new(cache.dir()).expect("reopen cache");
    assert!(loads_crc32_baseline(&reopened, fp), "the whole entry loads");
    assert!(
        reopened
            .load(sha_fp, Scheme::Edbp, AppId::Sha, Scale::Tiny)
            .is_none(),
        "the torn entry must miss"
    );
}

/// An entry written under a different (future or past) schema version is
/// skipped even when its checksum is valid for its bytes.
#[test]
fn wrong_schema_version_is_rejected() {
    let cache = tmp_cache("version");
    let (fp, _, seg) = seed_one_entry(&cache);
    let mut bytes = std::fs::read(&seg).expect("read segment");
    // The version is the u32 after the 8-byte magic.
    reseal(&mut bytes, 8..12, &(SCHEMA_VERSION + 1).to_le_bytes());
    std::fs::write(&seg, &bytes).expect("rewrite segment");
    let reopened = RunCache::new(cache.dir()).expect("reopen cache");
    assert!(
        !loads_crc32_baseline(&reopened, fp),
        "wrong-schema entry must be rejected"
    );
}

/// An entry whose embedded fingerprints differ from the key asked for
/// never answers it: not under another configuration fingerprint, and not
/// when its workload fingerprint is stale (a changed workload generator).
#[test]
fn fingerprint_mismatch_is_rejected() {
    let cache = tmp_cache("fingerprint");
    let (fp, _, seg) = seed_one_entry(&cache);
    let original = std::fs::read(&seg).expect("read segment");
    assert!(!loads_crc32_baseline(&cache, fp ^ 0xdead_beef));

    // config_fp is the u64 at 12..20, workload_fp the u64 at 20..28.
    for (range, what) in [(12..20, "config"), (20..28, "workload")] {
        let mut bytes = original.clone();
        let field = u64::from_le_bytes(bytes[range.clone()].try_into().unwrap());
        reseal(&mut bytes, range, &(field ^ 0xdead_beef).to_le_bytes());
        std::fs::write(&seg, &bytes).expect("rewrite segment");
        let reopened = RunCache::new(cache.dir()).expect("reopen cache");
        assert!(
            !loads_crc32_baseline(&reopened, fp),
            "an entry with another {what} fingerprint must not load"
        );
    }
}

/// Plain garbage — wrong magic — is rejected.
#[test]
fn garbage_segment_is_rejected() {
    let cache = tmp_cache("garbage");
    let (fp, _, seg) = seed_one_entry(&cache);
    std::fs::write(&seg, b"not a cache segment at all").expect("overwrite segment");
    let reopened = RunCache::new(cache.dir()).expect("reopen cache");
    assert!(!loads_crc32_baseline(&reopened, fp));
}

/// Stale entries — another schema version, another workload fingerprint —
/// in another segment never hide the current entry, whichever segment the
/// directory lists first.
#[test]
fn stale_entries_never_hide_the_current_one() {
    let source = tmp_cache("stale-source");
    let (fp, result, seg) = seed_one_entry(&source);
    let current = std::fs::read(&seg).expect("read segment");
    let mut old_version = current.clone();
    reseal(&mut old_version, 8..12, &(SCHEMA_VERSION - 1).to_le_bytes());
    let mut old_workload = current.clone();
    let workload_fp = u64::from_le_bytes(current[20..28].try_into().unwrap());
    reseal(&mut old_workload, 20..28, &(workload_fp ^ 1).to_le_bytes());
    let stale = [old_version, old_workload].concat();

    for (first, second) in [("a", "b"), ("b", "a")] {
        let cache = tmp_cache(&format!("stale-{first}{second}"));
        std::fs::write(cache.dir().join(format!("{first}.seg")), &stale).expect("stale segment");
        std::fs::write(cache.dir().join(format!("{second}.seg")), &current).expect("segment");
        let reopened = RunCache::new(cache.dir()).expect("reopen cache");
        let loaded = reopened
            .load(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny)
            .expect("the current entry loads");
        assert_eq!(loaded.result, result);
    }
}

/// Two handles on one directory append to two segments of their own; each
/// sees only what was on disk when it opened plus its own commits, and a
/// third handle, opened after both, loads both.
#[test]
fn two_handles_write_two_segments() {
    let first = tmp_cache("two-handles");
    let second = RunCache::new(first.dir()).expect("second handle");
    let (fp, crc) = simulated(Scheme::Baseline, AppId::Crc32);
    let (sha_fp, sha) = simulated(Scheme::Baseline, AppId::Sha);
    assert!(first.store(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny, &crc, None));
    assert!(second.store(
        sha_fp,
        Scheme::Baseline,
        AppId::Sha,
        Scale::Tiny,
        &sha,
        None
    ));
    assert_eq!(segments(first.dir()).len(), 2, "one segment per handle");
    assert!(
        second
            .load(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny)
            .is_none(),
        "a handle does not see a later commit of another handle"
    );

    let third = RunCache::new(first.dir()).expect("third handle");
    let crc_loaded = third.load(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny);
    let sha_loaded = third.load(sha_fp, Scheme::Baseline, AppId::Sha, Scale::Tiny);
    assert_eq!(crc_loaded.expect("first handle's entry").result, crc);
    assert_eq!(sha_loaded.expect("second handle's entry").result, sha);
}

/// One-file-per-entry caches of older builds are inert: a `*.run` file
/// is never read, and opening the directory leaves it in place.
#[test]
fn legacy_run_files_are_ignored() {
    let cache = tmp_cache("legacy");
    let (fp, result, seg) = seed_one_entry(&cache);
    let legacy = cache
        .dir()
        .join(format!("{fp:016x}-nvsramcache-crc32-tiny.run"));
    std::fs::rename(&seg, &legacy).expect("move the entry to a legacy name");
    let reopened = RunCache::new(cache.dir()).expect("reopen cache");
    assert!(
        !loads_crc32_baseline(&reopened, fp),
        "a .run file is not read"
    );
    assert!(legacy.exists());
    assert!(reopened.store(
        fp,
        Scheme::Baseline,
        AppId::Crc32,
        Scale::Tiny,
        &result,
        None
    ));
    assert!(loads_crc32_baseline(&reopened, fp));
}
