//! The paper's tables and figures as plan/report pairs.
//!
//! Every experiment is a *plan* function (`Scale` → the flat,
//! deterministically ordered job list it needs) and a pure *report*
//! function (the jobs' outputs, in plan order → the figure's `Table`).
//! [`crate::planner::REGISTRY`] names each pair; the planner runs one
//! experiment ([`crate::planner::Experiment::run`]) or all of them at once
//! ([`crate::planner::run_suite`], which dedups the plans' jobs across
//! experiments and feeds each report its own slice). See `DESIGN.md` §3 for
//! the experiment index and `EXPERIMENTS.md` for the recorded
//! paper-vs-measured results.

pub(crate) mod headline;
pub(crate) mod motivation;
pub(crate) mod sensitivity;

use crate::runner::JobOutput;
use crate::RunResult;

/// Regroups a flat output slice into `[scheme][app]`-style rows of
/// `columns` results each — the inverse of [`crate::runner::matrix_jobs`]'
/// flattening.
pub(crate) fn regroup(outputs: &[JobOutput], columns: usize) -> Vec<Vec<RunResult>> {
    assert_eq!(outputs.len() % columns, 0, "outputs do not tile into rows");
    outputs
        .chunks(columns)
        .map(|chunk| chunk.iter().map(|o| o.result.clone()).collect())
        .collect()
}
