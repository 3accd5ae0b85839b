//! Regenerates every figure/table through one deduplicated planner pass.
//!
//! Collects all registered experiments' job requests, dedups them across
//! experiments by effective configuration fingerprint, runs the unique set
//! once (lockstep groups, longest-estimated-first, on one shared queue),
//! and writes each figure to `results/<name>.txt` byte-identically to what
//! the standalone binary prints. The persistent result cache under
//! `results/.runcache/` makes warm re-runs near-instant; `--no-cache`
//! disables it and `--expect-cached` fails the run if any simulation
//! actually executed.
//!
//! Fleet execution over a shared cache directory (`EHS_RUNCACHE_DIR`):
//! `--worker` produces the job set under per-entry claims (kernel file
//! locks) — the same producer the default run uses, finishing jobs on disk
//! instead of in memory — and `--finalize [--wait SECS] [--verify DIR]`
//! waits for completeness, then renders and byte-verifies every figure. See
//! the multi-machine runbook in `EXPERIMENTS.md`.

fn main() {
    ehs_sim::planner::suite_main();
}
