//! Deterministic fault injection for the experiment harness itself.
//!
//! The simulator's whole subject is surviving arbitrary power failure, so
//! the harness that runs it is held to the same bar: every recovery path —
//! panic containment per job, rejection of torn cache writes,
//! resumption after a mid-run kill — is *exercised* by injected faults, not
//! merely asserted. This module is the harness-side analogue of the
//! simulator's own brown-out injection: a seeded, deterministic [`FailPlan`]
//! that fires a chosen fault at the Nth occurrence of an instrumented site.
//!
//! # Activation
//!
//! Nothing is armed by default, and the disarmed fast path is one relaxed
//! atomic load (see [`armed`]) — production runs pay nothing. A plan is
//! installed either
//!
//! * from the environment: `EHS_FAILPLAN="panic@exec=3,short@store=7"`
//!   (read once by [`install_from_env`], which the experiment binaries call
//!   before running anything), or
//! * programmatically by tests: [`install`] (first install wins for the
//!   process, like the persistent cache).
//!
//! # Plan grammar
//!
//! A plan is a comma-separated list of `kind@site=N` specs; each spec fires
//! **once**, at the Nth hit (1-based) of its site:
//!
//! | kind    | effect at the site                                          |
//! |---------|-------------------------------------------------------------|
//! | `panic` | `panic!` — unwinds into the job's `catch_unwind`             |
//! | `io`    | the operation reports an I/O error (store: entry not written)|
//! | `short` | store only: a truncated copy of the entry is appended, and   |
//! |         | the writer abandons its segment (a torn write, or a          |
//! |         | filesystem losing tail bytes)                                |
//! | `kill`  | `std::process::exit(137)` — the process dies on the spot,    |
//! |         | as if SIGKILLed (137 = 128 + SIGKILL, the shell convention); |
//! |         | at a store, once half of the group's bytes are appended      |
//!
//! | site     | counted occurrence                                          |
//! |----------|-------------------------------------------------------------|
//! | `exec`   | one real simulation execution (memo/cache hits don't count) |
//! | `zombie` | one zombie-instrumented execution (only Fig. 4 runs these,  |
//! |          | so `panic@zombie=1` poisons exactly one figure of a suite)  |
//! | `store`  | one persistent-cache entry store                            |
//!
//! Counters are process-global and monotonic, so a plan is deterministic
//! for a deterministic workload ordering (e.g. `--threads 1`), and
//! *repeatable enough* under parallelism for the recovery properties the
//! tests assert (which never depend on *which* job was hit, only on the
//! suite surviving the hit). Randomized campaigns derive their `N`s from a
//! seed **outside** the plan (see `tests/fault_tolerance.rs` and the CI
//! job): the plan itself stays a pure, loggable description of the faults.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// What an armed spec does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` at the site (exercises per-job panic isolation).
    Panic,
    /// Report an I/O error at the site (exercises degraded-mode paths).
    IoError,
    /// Append a torn (truncated) cache entry (store site only).
    ShortWrite,
    /// Exit the process immediately with status 137, like a SIGKILL.
    Kill,
}

impl FaultKind {
    fn name(self) -> &'static str {
        match self {
            Self::Panic => "panic",
            Self::IoError => "io",
            Self::ShortWrite => "short",
            Self::Kill => "kill",
        }
    }
}

/// An instrumented point in the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A real simulation execution (runner memo-miss path).
    Exec,
    /// A zombie-instrumented simulation execution (subset of [`Site::Exec`]).
    ZombieExec,
    /// A persistent-cache entry store.
    Store,
}

impl Site {
    fn name(self) -> &'static str {
        match self {
            Self::Exec => "exec",
            Self::ZombieExec => "zombie",
            Self::Store => "store",
        }
    }
}

/// One `kind@site=N` clause of a plan.
#[derive(Debug)]
struct Spec {
    kind: FaultKind,
    site: Site,
    /// 1-based occurrence at which this spec fires.
    nth: u64,
    fired: AtomicBool,
}

/// A parsed, installable fault plan.
#[derive(Debug, Default)]
pub struct FailPlan {
    specs: Vec<Spec>,
}

impl FailPlan {
    /// Parses the `kind@site=N,…` grammar documented at module level.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut specs = Vec::new();
        for clause in text.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind_site, n) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault spec {clause:?}: expected kind@site=N"))?;
            let (kind, site) = kind_site
                .split_once('@')
                .ok_or_else(|| format!("fault spec {clause:?}: expected kind@site=N"))?;
            let kind = match kind {
                "panic" => FaultKind::Panic,
                "io" => FaultKind::IoError,
                "short" => FaultKind::ShortWrite,
                "kill" => FaultKind::Kill,
                other => {
                    return Err(format!(
                        "fault spec {clause:?}: unknown kind {other:?} (panic|io|short|kill)"
                    ))
                }
            };
            let site = match site {
                "exec" => Site::Exec,
                "zombie" => Site::ZombieExec,
                "store" => Site::Store,
                other => {
                    return Err(format!(
                        "fault spec {clause:?}: unknown site {other:?} (exec|zombie|store)"
                    ))
                }
            };
            if kind == FaultKind::ShortWrite && site != Site::Store {
                return Err(format!(
                    "fault spec {clause:?}: short writes only make sense at @store"
                ));
            }
            let nth: u64 =
                n.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("fault spec {clause:?}: N must be a positive integer")
                })?;
            specs.push(Spec {
                kind,
                site,
                nth,
                fired: AtomicBool::new(false),
            });
        }
        Ok(Self { specs })
    }

    /// True when the plan has no clauses (installing it disarms nothing but
    /// also arms nothing).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

impl std::fmt::Display for FailPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.specs.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{}@{}={}", s.kind.name(), s.site.name(), s.nth)?;
        }
        Ok(())
    }
}

/// Environment variable read by [`install_from_env`].
pub const ENV_VAR: &str = "EHS_FAILPLAN";

static PLAN: OnceLock<FailPlan> = OnceLock::new();
/// Fast disarmed check: set exactly when a non-empty plan is installed.
static ARMED: AtomicBool = AtomicBool::new(false);

static EXEC_HITS: AtomicU64 = AtomicU64::new(0);
static ZOMBIE_HITS: AtomicU64 = AtomicU64::new(0);
static STORE_HITS: AtomicU64 = AtomicU64::new(0);

/// Installs `plan` for the whole process. The first installation wins
/// (mirroring [`crate::runcache::install`]); returns `true` when this call
/// performed it.
pub fn install(plan: FailPlan) -> bool {
    let mut installed_here = false;
    let installed = PLAN.get_or_init(|| {
        installed_here = true;
        plan
    });
    if installed_here && !installed.is_empty() {
        ARMED.store(true, Ordering::Release);
    }
    installed_here
}

/// Installs the plan described by [`ENV_VAR`], if the variable is set.
/// A malformed plan is a hard, actionable error: a fault campaign that
/// silently runs fault-free would "pass" every gate it was meant to arm.
///
/// # Errors
///
/// Returns the parse failure message for a malformed plan.
pub fn install_from_env() -> Result<(), String> {
    match std::env::var(ENV_VAR) {
        Ok(text) => {
            let plan = FailPlan::parse(&text).map_err(|e| format!("{ENV_VAR}: {e}"))?;
            install(plan);
            Ok(())
        }
        Err(_) => Ok(()),
    }
}

/// True when a non-empty plan is armed — the only cost disarmed runs pay.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Acquire)
}

/// Counts one hit of `site` and returns the fault to inject, if any spec
/// fires here. The per-site counter increments even when no spec matches,
/// so `N` always means "the Nth occurrence since process start".
fn hit(site: Site) -> Option<FaultKind> {
    let counter = match site {
        Site::Exec => &EXEC_HITS,
        Site::ZombieExec => &ZOMBIE_HITS,
        Site::Store => &STORE_HITS,
    };
    let occurrence = counter.fetch_add(1, Ordering::Relaxed) + 1;
    let plan = PLAN.get()?;
    plan.specs
        .iter()
        .filter(|s| s.site == site && s.nth == occurrence)
        .find(|s| !s.fired.swap(true, Ordering::Relaxed))
        .map(|s| s.kind)
}

/// Applies `kind` at a site that has no I/O failure mode of its own
/// (`IoError` degrades to a panic there — still a contained job fault).
fn detonate(kind: FaultKind, occurrence_desc: &str) -> ! {
    match kind {
        FaultKind::Kill => {
            eprintln!("fault injection: kill at {occurrence_desc}");
            std::process::exit(137);
        }
        _ => panic!("fault injection: {} at {occurrence_desc}", kind.name()),
    }
}

/// Instrumentation hook for the runner's execute path. No-op unless armed.
/// Panics or kills the process when a matching spec fires.
pub(crate) fn on_execute(zombie_instrumented: bool) {
    if !armed() {
        return;
    }
    if zombie_instrumented {
        if let Some(kind) = hit(Site::ZombieExec) {
            detonate(kind, "zombie-instrumented execution");
        }
    }
    if let Some(kind) = hit(Site::Exec) {
        detonate(kind, "simulation execution");
    }
}

/// Instrumentation hook for persistent-cache stores, hit once per entry of
/// a group commit, in queue order, before the group writes a byte. No-op
/// unless armed. `Panic` detonates in place; the other kinds are returned
/// for the store path to act out at their most damaging spot (`IoError`:
/// skip the entry; `ShortWrite`: append a truncated copy of it, then
/// abandon the segment; `Kill`: append the first half of the group's bytes
/// and die before the `fdatasync`).
pub(crate) fn on_store() -> Option<FaultKind> {
    if !armed() {
        return None;
    }
    match hit(Site::Store)? {
        FaultKind::Panic => detonate(FaultKind::Panic, "cache store"),
        kind => Some(kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        let plan = FailPlan::parse("panic@exec=3, short@store=7,kill@store=1").unwrap();
        assert_eq!(plan.specs.len(), 3);
        assert_eq!(plan.to_string(), "panic@exec=3,short@store=7,kill@store=1");
        assert!(FailPlan::parse("").unwrap().is_empty());
        assert!(FailPlan::parse("  ").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "panic",
            "panic@exec",
            "panic@exec=0",
            "panic@exec=x",
            "explode@exec=1",
            "panic@nowhere=1",
            "short@exec=1", // short writes are a store-only concept
            // Sites of the removed heartbeat-lease protocol and of the
            // removed per-entry claims (`lease` was the claim site's old
            // name): an old plan naming them must fail loudly, not run
            // fault-free.
            "io@steal=1",
            "kill@heartbeat=1",
            "io@lease=1",
            "io@claim=1",
            "kill@claim=2",
        ] {
            assert!(FailPlan::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn disarmed_process_stays_disarmed_cheaply() {
        // This test must not install a plan (the whole test binary shares
        // the process-wide slot); it only checks the fast path contract.
        if PLAN.get().is_none() {
            assert!(!armed());
            on_execute(false); // must be a no-op, not a panic
        }
    }
}
