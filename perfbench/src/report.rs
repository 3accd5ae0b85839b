//! Collects a workload's samples and check results, and prints them: one
//! line per metric for people, then the JSON result line.

use crate::declared::{Declared, MetricDecl};
use crate::json::quote;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Runs, jobs and checks attempted.
    attempted: u64,
    /// Those that failed.
    failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Extra lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds every sample of `values` to `name`.
    pub fn extend(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        self.samples.entry(name).or_default().extend(values);
    }

    /// Counts `n` attempted runs of which `failed` failed.
    pub fn runs(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts one check, failed with each of `problems` (passed when empty).
    pub fn check(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
        self.problems.extend(problems);
    }

    /// The workload's title line, its notes and one line per failed check.
    pub fn render_notes(&self, workload: &str) -> String {
        let mut head = format!("== {workload} ==\n");
        for line in &self.notes {
            writeln!(head, "{line}").expect("write to string");
        }
        for p in &self.problems {
            writeln!(head, "CHECK FAILED: {p}").expect("write to string");
        }
        head
    }

    /// Renders the `per_layer` (true) or `end_to_end` (false) metric set:
    /// one human-readable line per metric, then the JSON result line, and
    /// whether every run and check passed. Every metric of the set must
    /// have been measured, and every measured metric must be declared —
    /// either is a bug in the benchmark.
    pub fn render(&self, per_layer: bool, declared: &Declared) -> (String, bool) {
        for name in self.samples.keys() {
            assert!(
                declared.find(name).is_some(),
                "metric {name} is measured but not declared in BENCHMARK.json"
            );
        }
        let set: &[MetricDecl] = if per_layer {
            &declared.per_layer
        } else {
            &declared.end_to_end
        };
        let mut out = String::new();
        let mut problems = self.problems.clone();
        let mut json = String::new();
        for decl in set {
            let samples = self
                .samples
                .get(decl.name.as_str())
                .unwrap_or_else(|| panic!("metric {} is declared but not measured", decl.name));
            let s = Summary::of(samples);
            let value = if s.median.is_finite() {
                s.median
            } else {
                problems.push(format!("{} is not a finite number", decl.name));
                0.0
            };
            writeln!(
                out,
                "metric {:<34} median {:>14.6} {:<9} n={:<3} q1={:.6} q3={:.6}",
                decl.name, value, decl.unit, s.n, s.q1, s.q3
            )
            .expect("write to string");
            if !json.is_empty() {
                json.push_str(", ");
            }
            write!(
                json,
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                quote(&decl.name),
                quote(&decl.unit)
            )
            .expect("write to string");
        }
        for p in &problems[self.problems.len()..] {
            writeln!(out, "CHECK FAILED: {p}").expect("write to string");
        }
        let failed = self.failed.max(u64::from(!problems.is_empty()));
        let correct = problems.is_empty() && failed == 0;
        let text = format!(
            "{out}{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}\n",
            self.attempted.max(1),
        );
        (text, correct)
    }
}
