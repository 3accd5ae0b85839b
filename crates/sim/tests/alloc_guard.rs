//! Zero-allocation hot-loop guard.
//!
//! The packed-state redesign (nibble-packed policy words, paged shadow
//! tables, writeback arenas, the pooled tick scratch) exists so that the
//! per-access simulator kernels never touch the heap once warm. This test
//! enforces that property end to end: a counting global allocator wraps the
//! system allocator, each scenario runs a warm-up prefix that reaches every
//! pool's high-water capacity (footprint touched, checkpoints taken,
//! outages survived), and the measured window that follows must perform
//! ZERO heap allocations while committing tens of thousands of
//! instructions.
//!
//! Scenarios cover the paper configurations with distinct hot paths, each
//! built through `build_lane` as every figure builds it: NVSRAMCache/EDBP
//! (voltage-threshold gating + NV parking), EDBP under DRRIP (Fig. 10:
//! victim aging, rank re-sort, set dueling), Decay+EDBP (per-epoch sweeps
//! through `Pair`), and a zombie-instrumented run (per-instruction sampling
//! on the cycle-by-cycle reference path).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ehs_cache::ReplacementPolicy;
use ehs_sim::{build_lane, run_lane, LaneRun, Scheme, SystemConfig};
use ehs_workloads::{build, AppId, Scale};

/// Wraps the system allocator, counting every allocation (alloc, realloc
/// and alloc_zeroed all count; frees do not — a free in the hot loop would
/// imply an earlier allocation anyway).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn lane(config: &SystemConfig, scheme: Scheme, app: AppId) -> Box<dyn LaneRun> {
    build_lane(config, scheme, build(app, Scale::Small), None, false)
        .expect("paper-default energy configuration is valid")
}

/// Runs `scheme` on `app` once to learn its total committed-instruction
/// count and returns the 55 % and 85 % marks: the warm-up ends at the
/// first, the measured window at the second.
fn window_marks(config: &SystemConfig, scheme: Scheme, app: AppId) -> (u64, u64) {
    let total = run_lane(lane(config, scheme, app)).result.committed;
    (total * 55 / 100, total * 85 / 100)
}

/// Warms one lane up to its 55 % mark and asserts the window that follows
/// (up to 85 %) performs zero allocations and is long enough to mean
/// something.
fn assert_alloc_free_window(config: &SystemConfig, scheme: Scheme, app: AppId, label: &str) {
    let (warmup, until) = window_marks(config, scheme, app);
    let mut sim = lane(config, scheme, app);
    sim.advance_until(warmup);
    assert!(
        sim.committed() >= warmup && !sim.done(),
        "{label}: warm-up must end mid-run (committed {} of {warmup}..{until})",
        sim.committed()
    );
    sim.reserve_zombie_capacity(4096);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    sim.advance_until(until);
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let (from, to) = (warmup, sim.committed());
    assert_eq!(
        allocated, 0,
        "{label}: {allocated} heap allocations while committing instructions \
         {from}..{to} (the hot loop must be allocation-free once warm)"
    );
    assert!(
        to > from + 1000,
        "{label}: measured window too short ({from}..{to}) to be meaningful"
    );
}

#[test]
fn hot_loop_is_allocation_free_once_warm() {
    // NVSRAMCache (EDBP): threshold gating, NV parking, burst stepping.
    assert_alloc_free_window(
        &SystemConfig::paper_default(),
        Scheme::Edbp,
        AppId::AdpcmEnc,
        "edbp",
    );

    // Decay+EDBP: epoch sweeps through `Pair`, plus conventional
    // main-memory spills of gated dirty blocks.
    assert_alloc_free_window(
        &SystemConfig::paper_default(),
        Scheme::DecayEdbp,
        AppId::Crc32,
        "decay+edbp",
    );

    // Fig. 10's configuration: EDBP under DRRIP, so victim aging, the
    // rank re-sort and set dueling run inside the measured window.
    let mut config = SystemConfig::paper_default();
    config.dcache.policy = ReplacementPolicy::Drrip;
    assert_alloc_free_window(&config, Scheme::Edbp, AppId::Patricia, "edbp under drrip");

    // Zombie-instrumented run: burst stepping disabled, per-instruction
    // sampling walks the resident set and feeds the pooled chain arena.
    let mut config = SystemConfig::paper_default();
    config.zombie_sample_interval = Some(500);
    assert_alloc_free_window(
        &config,
        Scheme::DecayEdbp,
        AppId::Sha,
        "zombie-instrumented",
    );
}
