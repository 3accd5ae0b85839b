use ehs_benchmark::declared::{declared, is_legal_name, parse};
use ehs_benchmark::json;
use ehs_benchmark::suite::parse_summary;

#[test]
fn names_are_legal_and_unique() {
    let d = declared();
    let mut names: Vec<&str> = d.workloads.iter().map(String::as_str).collect();
    names.extend(
        d.end_to_end
            .iter()
            .chain(&d.per_layer)
            .map(|m| m.name.as_str()),
    );
    for name in &names {
        assert!(is_legal_name(name), "illegal name {name:?}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");
    for bad in ["", "_x", "a b", "sim/mips", &"x".repeat(65)] {
        assert!(!is_legal_name(bad), "{bad:?} should be illegal");
    }
}

#[test]
fn the_declarations_meet_the_benchmark_contract() {
    let d = declared();
    assert_eq!(
        d.workloads,
        ["solo_fig8", "lockstep_sweep", "outage_storm", "suite_tiny"]
    );
    assert!((1..=16).contains(&d.end_to_end.len()));
    assert!((1..=128).contains(&d.per_layer.len()));
    let setup = d.find("setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    for m in &d.end_to_end {
        let bound = m.bound.expect("end-to-end metrics have a bound");
        assert!((0.0..=0.25).contains(&bound), "{} bound {bound}", m.name);
        assert!(
            bound <= setup.bound.unwrap(),
            "setup_s has the largest bound"
        );
    }
    assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
    for m in d.end_to_end.iter().chain(&d.per_layer) {
        assert!(
            (1..=16).contains(&m.unit.len())
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {:?}",
            m.unit
        );
    }
    let doc = json::parse(ehs_benchmark::declared::BENCHMARK_JSON).unwrap();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn malformed_declarations_are_rejected() {
    assert!(parse("{}").is_err());
    assert!(parse(r#"{"workloads": [], "end_to_end": [{"name": "x", "unit": "s", "better": "up"}], "per_layer": [], "run_seconds": 1}"#).is_err());
    assert!(json::parse(r#"{"a": [1, 2,]}"#).is_err());
    assert_eq!(
        json::parse(r#"{"a": "é\n", "b": [true, null, -1.5e3]}"#).unwrap(),
        json::Value::Obj(vec![
            ("a".into(), json::Value::Str("é\n".into())),
            (
                "b".into(),
                json::Value::Arr(vec![
                    json::Value::Bool(true),
                    json::Value::Null,
                    json::Value::Num(-1500.0)
                ])
            ),
        ])
    );
}

#[test]
fn the_exp_all_summary_line_parses() {
    let out = "wrote x\nsuite: 20 experiments, 4080 runs requested, 2440 unique after dedup, \
               2440 simulated, 0 failed, 2.7s\n";
    let s = parse_summary(out).unwrap();
    assert_eq!(
        (s.requested, s.unique, s.simulated, s.failed),
        (4080, 2440, 2440, 0)
    );
    assert!(parse_summary("suite: 20 experiments, 2.7s").is_none());
}
