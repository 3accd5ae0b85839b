//! Runs every workload at Tiny scale with one measured pass of each kind,
//! traced, so every code path of the benchmark executes, and checks that
//! what it prints is exactly what `BENCHMARK.json` declares.

use ehs_benchmark::declared::declared;
use ehs_benchmark::json::{self, Value};
use std::process::Command;

#[test]
fn smoke_run_prints_every_declared_metric_and_only_those() {
    let d = declared();
    let spans = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-spans.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_ehs_bench"))
        .args(["--smoke", "--trace"])
        .arg(&spans)
        .output()
        .expect("run ehs_bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Each workload prints its end-to-end result line, then its per-layer one.
    let results: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| json::parse(l).expect("result lines are JSON"))
        .collect();
    assert_eq!(results.len(), 2 * d.workloads.len());
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.get("correct").and_then(Value::as_bool), Some(true));
        assert!(r.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_eq!(r.get("failed").and_then(Value::as_f64), Some(0.0));
        let expected = if i % 2 == 0 {
            &d.end_to_end
        } else {
            &d.per_layer
        };
        let metrics = r.get("metrics").and_then(Value::as_object).unwrap();
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let declared: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed, declared);
        for ((name, m), decl) in metrics.iter().zip(expected) {
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(decl.unit.as_str())
            );
            let v = m.get("value").and_then(Value::as_f64).unwrap();
            assert!(v.is_finite(), "{name} = {v}");
        }
        for name in ["sim_mips", "warm_s", "peak_rss_mb", "setup_s"] {
            if let Some(m) = metrics.iter().find(|(k, _)| k == name) {
                assert!(m.1.get("value").and_then(Value::as_f64).unwrap() > 0.0);
            }
        }
    }

    let text = std::fs::read_to_string(&spans).expect("spans were written");
    let mut lines = 0;
    for line in text.lines() {
        let span = json::parse(line).expect("spans are JSONL");
        let (start, end) = (
            span.get("start_ns").and_then(Value::as_f64).unwrap(),
            span.get("end_ns").and_then(Value::as_f64).unwrap(),
        );
        assert!(start <= end);
        for key in ["id", "parent", "run", "name"] {
            assert!(span.get(key).is_some(), "span lacks {key}");
        }
        lines += 1;
    }
    assert!(lines > 0);
    let _ = std::fs::remove_file(&spans);

    let summary = stdout
        .lines()
        .find_map(|l| l.strip_prefix("ehs_bench: 4 workloads in "))
        .expect("summary line");
    let secs: f64 = summary.split(' ').next().unwrap().parse().unwrap();
    assert!(secs <= 15.0, "smoke run took {secs} s after the build");
}
