//! Regenerates every figure/table through one deduplicated planner pass.
//!
//! Collects all registered experiments' job requests, dedups them across
//! experiments by effective configuration fingerprint, runs the unique set
//! once (one work item per configuration, app and scale,
//! longest-estimated-first, on one shared queue), and writes each figure to
//! `results/<name>.txt` byte-identically to what the standalone binary
//! prints. The persistent result cache under `results/.runcache/` makes
//! warm re-runs near-instant; `--no-cache` disables it and
//! `--expect-cached` fails the run if any simulation actually executed.
//!
//! The cache directory is the only record of finished work: a re-run after
//! a kill adopts every valid entry and simulates only what was lost. Any
//! number of `exp_all`s sharing one cache directory (`EHS_RUNCACHE_DIR`)
//! are a fleet: each adopts the entries already on disk, claims (kernel
//! file locks) and simulates the rest, waits out the keys a live rival
//! holds, and renders every figure. See the multi-machine runbook in
//! `EXPERIMENTS.md`.

fn main() {
    ehs_sim::planner::suite_main();
}
