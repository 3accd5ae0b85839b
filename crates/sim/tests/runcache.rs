//! Persistent result-cache round-trip and rejection tests.
//!
//! These exercise [`ehs_sim::runcache::RunCache`] directly against private
//! temp directories (`CARGO_TARGET_TMPDIR`), without installing a
//! process-wide cache — so they compose with the rest of the test suite,
//! which must keep running purely in-process. The end-to-end fallback path
//! (a rejected entry triggering re-simulation inside the planner) is
//! covered by `tests/planner.rs`.

use ehs_sim::runcache::{checksum, entry_stem, ClaimOutcome, RunCache, SCHEMA_VERSION};
use ehs_sim::runner::effective_fingerprint;
use ehs_sim::{run_app, Scheme, SystemConfig, ZombieSample};
use ehs_workloads::{AppId, Scale};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime};

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

/// Claims exclude a second claimant for as long as they are held — a slow
/// job never loses its claim, there is no timeout to outlast — and release
/// on drop without leaving a claim file: the cross-process dedup protocol,
/// exercised through two handles on one directory (exactly what two
/// concurrent `exp_all`s look like).
#[test]
fn claims_exclude_second_claimant_until_dropped() {
    let cache = tmp_cache("claims");
    let other = RunCache::new(cache.dir()).expect("second handle");
    let config = SystemConfig::paper_default();
    let fp = effective_fingerprint(&config, Scheme::Baseline);
    let claim = |c: &RunCache| c.claim(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny);

    let ClaimOutcome::Held(guard) = claim(&cache) else {
        panic!("first claim on a fresh entry must be held");
    };
    let held_since = Instant::now();
    while held_since.elapsed() < Duration::from_millis(1200) {
        assert!(
            matches!(claim(&other), ClaimOutcome::Busy),
            "a held claim must read as busy to a second claimant ({:?} in)",
            held_since.elapsed()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(guard);
    let ClaimOutcome::Held(guard) = claim(&other) else {
        panic!("a released claim must be claimable again");
    };
    drop(guard);
    let leftovers: Vec<_> = std::fs::read_dir(cache.dir())
        .expect("list cache dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".claim"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "claim files left behind: {leftovers:?}"
    );
}

/// Set in the child process of [`a_killed_holders_claim_is_free_at_once`]:
/// the cache directory in which it takes and holds the claim.
const HOLDER_DIR_ENV: &str = "EHS_TEST_CLAIM_HOLDER_DIR";

/// A holder killed with SIGKILL takes its claim with it: the kernel drops
/// the lock with the process, so the very next claim succeeds — no wait,
/// no expiry. The holder is this test binary re-run as a child process.
#[test]
fn a_killed_holders_claim_is_free_at_once() {
    let fp = effective_fingerprint(&SystemConfig::paper_default(), Scheme::Baseline);
    let claim = |c: &RunCache| c.claim(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny);

    if let Some(dir) = std::env::var_os(HOLDER_DIR_ENV) {
        // The child: hold the claim until killed.
        let cache = RunCache::new(PathBuf::from(dir)).expect("open holder cache");
        let ClaimOutcome::Held(_guard) = claim(&cache) else {
            panic!("the holder must take the claim");
        };
        println!("claim held");
        std::thread::sleep(Duration::from_secs(60));
        return;
    }

    let cache = tmp_cache("claim-kill");
    let mut holder = Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "--exact",
            "a_killed_holders_claim_is_free_at_once",
            "--nocapture",
        ])
        .env(HOLDER_DIR_ENV, cache.dir())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the holder");
    let stdout = BufReader::new(holder.stdout.take().expect("piped stdout"));
    let held = stdout
        .lines()
        .map_while(Result::ok)
        .any(|line| line == "claim held");
    assert!(held, "the holder exited without taking the claim");
    assert!(
        matches!(claim(&cache), ClaimOutcome::Busy),
        "the live holder's claim must read as busy"
    );

    holder.kill().expect("SIGKILL the holder");
    holder.wait().expect("reap the holder");
    match claim(&cache) {
        ClaimOutcome::Held(guard) => drop(guard),
        other => panic!("a killed holder's claim must be free at once, got {other:?}"),
    }
}

/// Opening a cache sweeps an hour-old claim file only when no live process
/// holds it: the claim of a job that has run for hours survives, while a
/// dead holder's leftover goes.
#[test]
fn sweep_removes_only_unheld_claims() {
    let cache = tmp_cache("claim-sweep");
    let fp = effective_fingerprint(&SystemConfig::paper_default(), Scheme::Baseline);
    let claim = |c: &RunCache| c.claim(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny);
    let ClaimOutcome::Held(guard) = claim(&cache) else {
        panic!("first claim on a fresh entry must be held");
    };
    let stem = entry_stem(fp, Scheme::Baseline, AppId::Crc32, Scale::Tiny);
    let held = cache.dir().join(format!("{stem}.claim"));
    let leftover = cache.dir().join("dead-holder.claim");
    std::fs::write(&leftover, b"").expect("plant a leftover claim");
    let two_hours_ago = SystemTime::now() - Duration::from_secs(7200);
    for path in [&held, &leftover] {
        std::fs::File::options()
            .write(true)
            .open(path)
            .and_then(|f| f.set_modified(two_hours_ago))
            .expect("backdate claim file");
    }

    let reopened = RunCache::new(cache.dir()).expect("reopen cache");
    assert!(held.exists(), "a held claim must survive the sweep");
    assert!(
        matches!(claim(&reopened), ClaimOutcome::Busy),
        "the swept-past claim must still exclude rivals"
    );
    assert!(!leftover.exists(), "an old claim nobody holds is debris");
    drop(guard);
}
