//! The per-figure binaries: each is one registry entry run through
//! `experiment_main`, and a failed job makes it exit 1 with nothing on
//! stdout and each failed key listed once on stderr.

use ehs_sim::planner::REGISTRY;
use std::path::PathBuf;
use std::process::Command;

#[test]
fn per_figure_binaries_are_the_registry() {
    let bin_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut binaries: Vec<String> = std::fs::read_dir(&bin_dir)
        .expect("list src/bin")
        .map(|entry| entry.expect("read a src/bin entry").file_name())
        .filter_map(|file| file.to_str()?.strip_suffix(".rs").map(str::to_owned))
        .filter(|stem| stem.starts_with("exp_") && stem != "exp_all")
        .collect();
    binaries.sort_unstable();
    let mut registered: Vec<&str> = REGISTRY.iter().map(|exp| exp.name).collect();
    registered.sort_unstable();
    assert_eq!(binaries, registered);
}

#[test]
fn a_failed_job_exits_1_and_lists_its_key_once() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_fig09_absolute_power"))
        .args(["tiny", "--no-cache", "--threads", "1"])
        .env("EHS_FAILPLAN", "panic@exec=1")
        .env(
            "EHS_RESULTS_DIR",
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("experiment-binaries"),
        )
        .output()
        .expect("run exp_fig09_absolute_power");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "a failed figure prints no table");
    let failed: Vec<&str> = stderr
        .lines()
        .skip_while(|line| *line != "exp_fig09_absolute_power: 1 job(s) failed:")
        .skip(1)
        .collect();
    assert_eq!(failed.len(), 1, "one failed key:\n{stderr}");
    assert!(
        failed[0].starts_with("  ") && failed[0].contains("-nvsramcache-"),
        "{}",
        failed[0]
    );
}
