//! The metric and workload declarations of the repository's
//! `BENCHMARK.json` — the single source of every metric's unit, direction
//! and regression bound.

use crate::json::{self, Value};

/// `BENCHMARK.json`, compiled in so the A/B verdicts always use the bounds
/// of the commit the binary was built from.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Everything `BENCHMARK.json` declares that the benchmark itself needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (printed with `--trace 0`).
    pub end_to_end: Vec<MetricDecl>,
    /// Per-layer metrics (printed with `--trace 1`).
    pub per_layer: Vec<MetricDecl>,
    /// Measured seconds per run.
    pub run_seconds: u64,
}

impl Declared {
    /// The declaration of `name` in either list.
    pub fn find(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Whether `s` is a legal metric or workload name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn is_legal_name(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Parses a `BENCHMARK.json` document.
pub fn parse(text: &str) -> Result<Declared, String> {
    let doc = json::parse(text)?;
    let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
        let list = doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{key} must be an array"))?;
        list.iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .map(str::to_owned)
                        .ok_or_else(|| format!("{key} entry lacks string {f:?}"))
                };
                let better = field("better")?;
                if better != "higher" && better != "lower" {
                    return Err(format!("better must be higher or lower, got {better:?}"));
                }
                Ok(MetricDecl {
                    name: field("name")?,
                    unit: field("unit")?,
                    higher_is_better: better == "higher",
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("workloads must be an array")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| "workload lacks a name".to_owned())
        })
        .collect::<Result<_, _>>()?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .filter(|s| s.fract() == 0.0 && *s >= 1.0)
        .ok_or("run_seconds must be a positive whole number")? as u64;
    Ok(Declared {
        workloads,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
        run_seconds,
    })
}

/// The compiled-in declarations.
pub fn declared() -> Declared {
    parse(BENCHMARK_JSON).expect("the compiled-in BENCHMARK.json is well formed")
}
