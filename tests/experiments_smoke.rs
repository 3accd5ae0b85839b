//! Smoke tests for the experiment registry: each entry, run through
//! `Experiment::run`, must produce a well-formed table at Tiny scale. The
//! cheap experiments run fully; the heavyweight sweeps are covered by their
//! underlying pieces elsewhere and by the `exp_*` binaries / benches.

use edbp_repro::sim::planner;
use edbp_repro::sim::report::Table;
use edbp_repro::workloads::Scale;

/// Runs the registered experiment `name` at Tiny scale on two threads.
fn run(name: &str) -> Table {
    let exp = planner::find(name).unwrap_or_else(|| panic!("{name} is not registered"));
    exp.run(Scale::Tiny, 2)
        .unwrap_or_else(|errors| panic!("{name} failed: {errors:?}"))
}

#[test]
fn hw_cost_reproduces_the_paper_point() {
    let table = run("exp_hw_cost");
    let rendered = table.render();
    assert!(
        rendered.contains("0.0098%"),
        "Section VI-B's 0.0098% must appear:\n{rendered}"
    );
}

#[test]
fn fig9_covers_all_twenty_apps() {
    let table = run("exp_fig09_absolute_power");
    assert_eq!(table.len(), 21, "20 apps + MEAN row");
    let rendered = table.render();
    assert!(rendered.contains("crc32"));
    assert!(rendered.contains("mpeg2_dec"));
    assert!(rendered.contains("MEAN"));
}

#[test]
fn fig6_reports_three_schemes_per_app() {
    let table = run("exp_fig06_true_false_rates");
    assert_eq!(table.len(), 3 * 21, "3 schemes x (20 apps + MEAN)");
}

#[test]
fn ablation_policy_runs_all_four_variants() {
    let table = run("exp_ablation_policy");
    assert_eq!(table.len(), 4);
    let rendered = table.render();
    assert!(rendered.contains("paper (mru+clean)"));
    assert!(rendered.contains("neither"));
}

#[test]
fn other_predictors_composes_edbp_with_amc() {
    let table = run("exp_other_predictors");
    assert_eq!(table.len(), 5);
    assert!(table.render().contains("amc+edbp"));
}

#[test]
fn tables_render_as_csv_too() {
    let table = run("exp_hw_cost");
    let csv = table.to_csv();
    assert!(csv.lines().count() >= 2, "header + rows");
    assert!(csv.starts_with("blocks,"));
}
