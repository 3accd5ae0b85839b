//! Persistent result-cache round-trip and rejection tests.
//!
//! These exercise [`ehs_sim::runcache::RunCache`] directly against private
//! temp directories (`CARGO_TARGET_TMPDIR`), without installing a
//! process-wide cache — so they compose with the rest of the test suite,
//! which must keep running purely in-process. The end-to-end fallback path
//! (a rejected entry triggering re-simulation inside the planner) is
//! covered by `tests/planner.rs`.

use ehs_sim::runcache::{checksum, RunCache, SCHEMA_VERSION};
use ehs_sim::runner::effective_fingerprint;
use ehs_sim::{run_app, Scheme, SystemConfig, ZombieSample};
use ehs_workloads::{AppId, Scale};
use std::path::PathBuf;
use std::time::{Duration, SystemTime};

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
/// by design) to the freshly simulated one.
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

fn seed_one_entry(cache: &RunCache) -> (u64, PathBuf) {
    let config = SystemConfig::paper_default();
    let fp = effective_fingerprint(&config, Scheme::Baseline);
    let result = run_app(&config, Scheme::Baseline, AppId::Crc32, Scale::Tiny);
    cache.store(
        fp,
        Scheme::Baseline,
        AppId::Crc32,
        Scale::Tiny,
        &result,
        None,
    );
    let path = cache
        .dir()
        .join(format!("{fp:016x}-nvsramcache-crc32-tiny.run"));
    assert!(path.exists(), "entry landed at the documented path");
    (fp, path)
}

/// A truncated file is rejected (load returns `None`, no panic).
#[test]
fn truncated_entry_is_rejected() {
    let cache = tmp_cache("truncated");
    let (fp, path) = seed_one_entry(&cache);
    let bytes = std::fs::read(&path).expect("read stored entry");
    std::fs::write(&path, &bytes[..bytes.len() - 9]).expect("truncate entry");
    assert!(
        cache
            .load(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny)
            .is_none(),
        "truncated entry must be rejected"
    );
}

/// An entry written by a different (future or past) schema version is
/// rejected even when its checksum is valid for its bytes.
#[test]
fn wrong_schema_version_is_rejected() {
    let cache = tmp_cache("version");
    let (fp, path) = seed_one_entry(&cache);
    let mut bytes = std::fs::read(&path).expect("read stored entry");
    // The version is the u32 after the 8-byte magic; bump it and re-seal
    // the trailing checksum so only the version check can reject it.
    bytes[8..12].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
    let body = bytes.len() - 8;
    let seal = checksum(&bytes[..body]);
    bytes[body..].copy_from_slice(&seal.to_le_bytes());
    std::fs::write(&path, &bytes).expect("rewrite entry");
    assert!(
        cache
            .load(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny)
            .is_none(),
        "wrong-schema entry must be rejected"
    );
}

/// An entry renamed to another fingerprint's path (or equivalently a hash
/// collision in the file name) is rejected by the embedded fingerprint.
#[test]
fn fingerprint_mismatch_is_rejected() {
    let cache = tmp_cache("fingerprint");
    let (fp, path) = seed_one_entry(&cache);
    let other_fp = fp ^ 0xdead_beef;
    let other_path = cache
        .dir()
        .join(format!("{other_fp:016x}-nvsramcache-crc32-tiny.run"));
    std::fs::rename(&path, &other_path).expect("rename entry");
    assert!(
        cache
            .load(other_fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny)
            .is_none(),
        "entry must be rejected under a different fingerprint"
    );
    // And it no longer loads from the original key either (file moved).
    assert!(cache
        .load(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny)
        .is_none());
}

/// Plain garbage — wrong magic — is rejected.
#[test]
fn garbage_file_is_rejected() {
    let cache = tmp_cache("garbage");
    let (fp, path) = seed_one_entry(&cache);
    std::fs::write(&path, b"not a cache entry at all").expect("overwrite entry");
    assert!(cache
        .load(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny)
        .is_none());
}

/// Opening a cache sweeps a temp file only once it is an hour old: a
/// crashed writer's leftover goes, while a fresh one, which may belong to a
/// live writer between its write and its rename, stays.
#[test]
fn sweep_removes_only_stale_temp_files() {
    let cache = tmp_cache("tmp-sweep");
    let stale = cache.dir().join(".tmp-1-0");
    let fresh = cache.dir().join(".tmp-1-1");
    for path in [&stale, &fresh] {
        std::fs::write(path, b"partial entry").expect("plant a temp file");
    }
    let two_hours_ago = SystemTime::now() - Duration::from_secs(7200);
    std::fs::File::options()
        .write(true)
        .open(&stale)
        .and_then(|f| f.set_modified(two_hours_ago))
        .expect("backdate the stale temp file");

    RunCache::new(cache.dir()).expect("reopen cache");
    assert!(!stale.exists(), "an hour-old temp file is debris");
    assert!(fresh.exists(), "a fresh temp file must survive the sweep");
}
