//! `ehs_bench ab`: an interleaved A/B comparison of two builds of this
//! benchmark (a parent commit's and a change's), run pair by pair with the
//! side that goes first alternating, and judged per workload and
//! end-to-end metric by [`crate::stats::verdict`].

use crate::declared::Declared;
use crate::json::{self, Value};
use crate::stats::{verdict, wins, Summary, Verdict};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Settings of one A/B comparison.
#[derive(Debug, Clone)]
pub struct AbOptions {
    /// The parent commit's `ehs_bench`.
    pub parent: PathBuf,
    /// The change's `ehs_bench`.
    pub change: PathBuf,
    /// Pairs per workload.
    pub pairs: usize,
    /// Input seed, the same for both sides and every pair.
    pub seed: u64,
    /// Measuring seconds per run, the same for both sides.
    pub seconds: u64,
    /// Workloads to compare.
    pub workloads: Vec<String>,
}

/// One side's runs of one workload.
#[derive(Debug, Default)]
struct Side {
    values: BTreeMap<String, Vec<f64>>,
    failed: f64,
}

impl Side {
    fn absorb(&mut self, result: &Value) -> Result<(), String> {
        let metrics = result
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("result line has no metrics")?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name} has no value"))?;
            self.values.entry(name.clone()).or_default().push(v);
        }
        self.failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        Ok(())
    }
}

/// Runs one build once and parses its result line.
fn run_once(bin: &Path, workload: &str, opts: &AbOptions) -> Result<Value, String> {
    let out = Command::new(bin)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", bin.display(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{} printed nothing", bin.display()))?;
    json::parse(last).map_err(|e| format!("{}: bad result line: {e}", bin.display()))
}

/// `x` to five significant digits.
fn sig(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", usize::try_from(4 - magnitude).unwrap_or(0))
}

/// Runs the comparison, printing one table per workload; returns whether
/// any metric regressed.
pub fn run(opts: &AbOptions, declared: &Declared) -> Result<bool, String> {
    let mut any_regressed = false;
    for workload in &opts.workloads {
        let (mut parent, mut change) = (Side::default(), Side::default());
        for i in 0..opts.pairs {
            let parent_first = i % 2 == 0;
            for first in [true, false] {
                let (bin, side) = if first == parent_first {
                    (&opts.parent, &mut parent)
                } else {
                    (&opts.change, &mut change)
                };
                side.absorb(&run_once(bin, workload, opts)?)?;
            }
            eprintln!("ab: {workload}: pair {}/{} done", i + 1, opts.pairs);
        }
        println!(
            "== ab: {workload} ({} pairs, seed {}, {} s per run) ==",
            opts.pairs, opts.seed, opts.seconds
        );
        println!(
            "{:<14} {:<9} {:>34} {:>34} {:>6}  verdict",
            "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins"
        );
        let more_failures = change.failed > parent.failed;
        for decl in &declared.end_to_end {
            let (Some(p), Some(c)) = (parent.values.get(&decl.name), change.values.get(&decl.name))
            else {
                println!("{:<14} missing from a side's results", decl.name);
                continue;
            };
            let bound = decl.bound.unwrap_or(0.0);
            let mut v = verdict(p, c, decl.higher_is_better, bound);
            if more_failures && v == Verdict::Improved {
                v = Verdict::NoChange;
            }
            any_regressed |= v == Verdict::Regressed;
            let (ps, cs) = (Summary::of(p), Summary::of(c));
            let fmt = |s: Summary| format!("{} [{}, {}]", sig(s.median), sig(s.q1), sig(s.q3));
            println!(
                "{:<14} {:<9} {:>34} {:>34} {:>6}  {}",
                decl.name,
                decl.unit,
                fmt(ps),
                fmt(cs),
                format!(
                    "{}/{}",
                    wins(p, c, decl.higher_is_better),
                    p.len().min(c.len())
                ),
                v.label()
            );
        }
        if more_failures {
            println!(
                "the change failed {} runs/checks against the parent's {}: no gain counts",
                change.failed, parent.failed
            );
        }
    }
    Ok(any_regressed)
}
