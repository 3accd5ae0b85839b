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
//! (voltage-threshold gating + NV parking), Decay+EDBP (per-epoch sweeps
//! through `Pair`), a zombie-instrumented run (per-instruction sampling on
//! the cycle-by-cycle reference path), and recorder/replayer lane pairs
//! (transposed lockstep replay of one shared `StreamWindow`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ehs_sim::{build_lane, run_lane, LaneRun, Scheme, StreamWindow, SystemConfig};
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

/// Instructions per recorded lockstep round (the lockstep driver's chunk).
const CHUNK: u64 = 4_096;

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

/// Heap allocations performed by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Asserts a measured window from instruction `from` to `to` performed no
/// allocations and was long enough to mean something.
fn assert_alloc_free(label: &str, allocated: u64, from: u64, to: u64) {
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

/// Warms one lane up to its 55 % mark and asserts the window that follows
/// (up to 85 %) performs zero allocations.
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
    let allocated = allocations(|| sim.advance_until(until));
    assert_alloc_free(label, allocated, warmup, sim.committed());
}

/// Advances both lanes to `target` in lockstep rounds, as the lockstep
/// driver does: the lane behind records one chunk into `window`, and the
/// other replays it when its position falls inside.
fn drive_pair(lanes: &mut [Box<dyn LaneRun>; 2], window: &mut StreamWindow, target: u64) {
    while lanes.iter().any(|lane| lane.committed() < target) {
        let r = usize::from(lanes[1].arch_pos() < lanes[0].arch_pos());
        assert!(!lanes[r].done(), "lane {r} finished before {target}");
        let chunk_end = lanes[r].committed() + CHUNK;
        lanes[r].advance_recording(chunk_end, window);
        let replayer = &mut lanes[1 - r];
        let pos = replayer.arch_pos();
        if pos >= window.start() && pos < window.start() + window.len() as u64 {
            replayer.advance_replay(window);
        }
    }
}

/// The lockstep flavour of [`assert_alloc_free_window`]: two lanes over one
/// workload share one stream window, taking turns to record and replay.
fn assert_replay_alloc_free(config: &SystemConfig, schemes: [Scheme; 2], app: AppId) {
    let label = format!("{} + {} lockstep", schemes[0], schemes[1]);
    let (warmup, until) = window_marks(config, schemes[0], app);
    let mut lanes = schemes.map(|scheme| lane(config, scheme, app));
    assert!(
        lanes.iter().all(|lane| lane.wide_eligible()),
        "{label}: both lanes must be eligible for stream replay"
    );
    let mut window = StreamWindow::default();
    drive_pair(&mut lanes, &mut window, warmup);
    let from = lanes.each_ref().map(|lane| lane.committed());
    let allocated = allocations(|| drive_pair(&mut lanes, &mut window, until));
    for (lane, from) in lanes.iter().zip(from) {
        assert_alloc_free(&label, allocated, from, lane.committed());
    }
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

    // Transposed lockstep: the replayer performs its own fetches, data
    // accesses, predictor hooks and energy steps off the recorder's window
    // (pooled record columns, snapshots and replayed load values).
    let config = SystemConfig::paper_default();
    assert_replay_alloc_free(&config, [Scheme::Baseline, Scheme::DecayEdbp], AppId::Crc32);
    assert_replay_alloc_free(&config, [Scheme::Edbp, Scheme::DecayEdbp], AppId::AdpcmEnc);
}
