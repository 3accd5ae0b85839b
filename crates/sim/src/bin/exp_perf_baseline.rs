//! Measures simulator hot-loop throughput and records it in
//! `BENCH_hotloop.json` at the repo root, so the performance trajectory is
//! tracked PR over PR. See DESIGN.md §8 for the methodology.
//!
//! Usage: `cargo run --release -p ehs-sim --bin exp_perf_baseline [label]`
//!
//! The suite runs the paper-default platform over a representative app/
//! scheme mix (one cache-resident streaming app, one thrashing
//! pointer-chaser, one large-code media app; baseline and the headline
//! predictor; plus a zombie-instrumented run, which exercises the per-cycle
//! sampling path). Throughput is reported as `sim_mips` — simulated
//! committed instructions per host wall-second, in millions — best of
//! `REPS` suite repetitions. Each labelled run is one line in the `runs`
//! array; re-running with an existing label replaces that line.
//!
//! Before timing anything, every case is also executed against the one
//! cycle-accurate reference (`force_cycle_accurate`) and, grouped by
//! platform and app, through [`run_lockstep`], and both are compared with
//! the independent burst result; any divergence aborts with a non-zero
//! exit so CI fails rather than record a number produced by an unsound
//! fast path.
//!
//! Alongside the main suite row, a `<label>-lockstep9` row records the
//! aggregate throughput of replaying all nine schemes over one shared
//! workload per app — the multi-config throughput the suite planner's
//! lockstep grouping delivers.

use ehs_sim::{
    build_lane, config_fingerprint, record_generation_trace, run_app, run_lockstep, Scheme,
    SystemConfig,
};
use ehs_workloads::{build, AppId, Scale};
use std::fmt::Write as _;
use std::time::Instant;

const REPS: usize = 3;
const APPS: [AppId; 3] = [AppId::Crc32, AppId::Patricia, AppId::JpegEnc];
const SCHEMES: [Scheme; 2] = [Scheme::Baseline, Scheme::DecayEdbp];

struct Case {
    name: String,
    config: SystemConfig,
    scheme: Scheme,
    app: AppId,
}

fn cases() -> Vec<Case> {
    let default = SystemConfig::paper_default();
    let mut zombie = default.clone();
    zombie.zombie_sample_interval = Some(500);
    let mut cases = Vec::new();
    for scheme in SCHEMES {
        for app in APPS {
            cases.push(Case {
                name: format!("{}/{:?}", scheme.name(), app),
                config: default.clone(),
                scheme,
                app,
            });
        }
    }
    cases.push(Case {
        name: "zombie-instrumented/Crc32".to_string(),
        config: zombie,
        scheme: Scheme::Baseline,
        app: AppId::Crc32,
    });
    cases
}

/// Runs every case as an independent burst run (the measured default),
/// under `force_cycle_accurate`, and inside a [`run_lockstep`] group, and
/// aborts the process if any [`ehs_sim::RunResult`] field (other than the
/// wall-clock `sim_mips`, which is excluded from `PartialEq`) diverges.
/// This is the CI-facing guard that the fast paths being measured below
/// are still bit-exact.
fn check_regime_exactness(cases: &[Case]) {
    let mut divergent = 0usize;
    let mut burst_results = Vec::with_capacity(cases.len());
    for case in cases {
        let burst = run_app(&case.config, case.scheme, case.app, Scale::Small);
        let mut exact_config = case.config.clone();
        exact_config.force_cycle_accurate = true;
        let exact = run_app(&exact_config, case.scheme, case.app, Scale::Small);
        if burst != exact {
            divergent += 1;
            eprintln!(
                "DIVERGENCE in {}: burst stepping and the cycle-accurate reference disagree",
                case.name
            );
            eprintln!("  burst:          {burst:?}");
            eprintln!("  cycle-accurate: {exact:?}");
        }
        burst_results.push(burst);
    }

    // Lockstep-burst replay: cases sharing (config, app) become one lane
    // group over one shared workload, exactly as the runner groups them,
    // and must match the independent runs.
    let mut partitions: Vec<((u64, AppId), Vec<usize>)> = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let key = (config_fingerprint(&case.config), case.app);
        match partitions.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => partitions.push((key, vec![i])),
        }
    }
    for ((_, app), members) in &partitions {
        let workload = build(*app, Scale::Small);
        let lanes = members
            .iter()
            .map(|&i| {
                build_lane(
                    &cases[i].config,
                    cases[i].scheme,
                    workload.clone(),
                    None,
                    false,
                )
                .expect("paper-default energy configuration is valid")
            })
            .collect();
        for (&i, outcome) in members.iter().zip(run_lockstep(lanes)) {
            if outcome.result != burst_results[i] {
                divergent += 1;
                eprintln!(
                    "DIVERGENCE in {}: lockstep-burst and the independent burst run disagree",
                    cases[i].name
                );
                eprintln!("  independent: {:?}", burst_results[i]);
                eprintln!("  lockstep:    {:?}", outcome.result);
            }
        }
    }

    if divergent > 0 {
        eprintln!("{divergent} case(s) diverged; refusing to record a benchmark row");
        std::process::exit(1);
    }
    eprintln!(
        "burst vs cycle-accurate vs lockstep-burst: all {} cases bit-exact",
        cases.len()
    );
}

/// Replays all nine schemes over one shared workload per app as lockstep
/// lane groups and returns (total committed across lanes, total wall,
/// per-app aggregate sim-MIPS) — the multi-config throughput row.
fn lockstep_suite() -> (u64, f64, Vec<(String, f64)>) {
    let config = SystemConfig::paper_default();
    let mut committed = 0u64;
    let mut wall = 0.0f64;
    let mut per_group = Vec::new();
    for app in APPS {
        let workload = build(app, Scale::Small);
        // The Ideal lane's oracle pass is an input, not part of the replay
        // being measured (real suites memoize it), so record it untimed.
        let trace = record_generation_trace(&config, workload.clone());
        let start = Instant::now();
        let lanes = Scheme::ALL
            .iter()
            .map(|&scheme| {
                let trace = (scheme == Scheme::Ideal).then(|| trace.clone());
                build_lane(&config, scheme, workload.clone(), trace, false)
                    .expect("paper-default energy configuration is valid")
            })
            .collect();
        let group_committed: u64 = run_lockstep(lanes).iter().map(|o| o.result.committed).sum();
        let group_wall = start.elapsed().as_secs_f64();
        committed += group_committed;
        wall += group_wall;
        per_group.push((
            format!("lockstep9/{app:?}"),
            group_committed as f64 / group_wall / 1e6,
        ));
    }
    (committed, wall, per_group)
}

fn main() {
    let label = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "current".to_string());
    let cases = cases();
    check_regime_exactness(&cases);

    let mut best_wall = f64::INFINITY;
    let mut committed = 0u64;
    let mut per_case: Vec<(String, f64)> = Vec::new();
    for rep in 0..REPS {
        let start = Instant::now();
        let mut rep_committed = 0u64;
        let mut rep_cases = Vec::new();
        for case in &cases {
            let r = run_app(&case.config, case.scheme, case.app, Scale::Small);
            rep_committed += r.committed;
            rep_cases.push((case.name.clone(), r.sim_mips));
        }
        let wall = start.elapsed().as_secs_f64();
        eprintln!(
            "rep {}/{REPS}: {rep_committed} instructions in {wall:.3}s = {:.3} sim-MIPS",
            rep + 1,
            rep_committed as f64 / wall / 1e6
        );
        if wall < best_wall {
            best_wall = wall;
            committed = rep_committed;
            per_case = rep_cases;
        }
    }
    let sim_mips = committed as f64 / best_wall / 1e6;

    let lockstep_label = format!("{label}-lockstep9");
    let (ls_committed, ls_wall, ls_cases) = lockstep_suite();
    let ls_mips = ls_committed as f64 / ls_wall / 1e6;
    eprintln!(
        "lockstep 9-scheme suite: {ls_committed} instructions in {ls_wall:.3}s = {ls_mips:.3} sim-MIPS"
    );

    let rows = [
        (label.clone(), sim_mips, committed, best_wall, per_case),
        (lockstep_label, ls_mips, ls_committed, ls_wall, ls_cases),
    ];
    let mut lines = Vec::new();
    for (row_label, mips, instr, wall, cases) in &rows {
        let mut line = String::new();
        write!(
            line,
            "    {{\"label\": \"{row_label}\", \"sim_mips\": {mips:.3}, \
             \"committed_instructions\": {instr}, \"wall_seconds\": {wall:.3}, \
             \"per_case_mips\": {{"
        )
        .expect("write to string");
        for (i, (name, mips)) in cases.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            write!(line, "\"{name}\": {mips:.3}").expect("write to string");
        }
        line.push_str("}}");
        lines.push(line);
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotloop.json");
    let kept: Vec<String> = std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter(|l| {
            l.trim_start().starts_with("{\"label\":")
                && !rows
                    .iter()
                    .any(|(row_label, ..)| l.contains(&format!("\"label\": \"{row_label}\"")))
        })
        .map(|l| l.trim_end_matches(',').to_string())
        .collect();

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"simulator hot loop, paper-default platform\",\n");
    out.push_str(
        "  \"metric\": \"sim_mips = simulated committed instructions per host wall-second, in millions (best of 3 suite repetitions)\",\n",
    );
    out.push_str(
        "  \"suite\": \"crc32+patricia+jpeg_enc @ Small under nvsramcache and decay+edbp, plus a zombie-instrumented baseline run\",\n",
    );
    out.push_str("  \"runs\": [\n");
    for old in &kept {
        out.push_str(old);
        out.push_str(",\n");
    }
    out.push_str(&lines.join(",\n"));
    out.push_str("\n  ]\n}\n");
    std::fs::write(path, &out).expect("write BENCH_hotloop.json");

    println!("{label}: {sim_mips:.3} sim-MIPS ({committed} instructions in {best_wall:.3}s)");
    println!(
        "{}: {ls_mips:.3} sim-MIPS ({ls_committed} instructions in {ls_wall:.3}s)",
        rows[1].0
    );
    println!("recorded in BENCH_hotloop.json");
}
