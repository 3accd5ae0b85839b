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
//! a kill adopts every valid entry and simulates only what was lost. Two
//! `exp_all`s may share one cache directory (`EHS_RUNCACHE_DIR`): each
//! simulates what it does not find there, and their stores write identical
//! bytes, so both stay correct. Nothing splits the work between them.

fn main() {
    ehs_sim::planner::suite_main();
}
