//! Shared-stream recording for transposed lockstep execution.
//!
//! When several lanes simulate the same workload, every lane decodes and
//! executes the identical instruction stream — the *data* differs per lane
//! (outage histories diverge) but, for programs that pass
//! [`ehs_cpu::stream_is_data_independent`], the `(pc, effect kind,
//! address)` sequence is a pure function of the architectural position.
//! The transposed lockstep path exploits that: one lane (the *recorder*)
//! runs live and appends each committed instruction to a [`StreamWindow`];
//! every other lane then replays the window against its own caches,
//! predictors and energy system without touching its core at all, and
//! re-synchronizes its architectural state at the window end.
//!
//! The recorder's hot loop is generic over [`StreamSink`] so the solo path
//! instantiates it with `()` — every recording call compiles to nothing
//! and the allocation-free hot loop is untouched.

use ehs_cpu::CoreState;

/// Record kinds stored in [`StreamWindow::kinds`]. One byte per committed
/// instruction; loads and stores carry an address (and stores a value) in
/// the parallel columns.
pub(crate) const REC_COMPUTE: u8 = 0;
pub(crate) const REC_LOAD: u8 = 1;
pub(crate) const REC_STORE: u8 = 2;
/// `Halt` commits no work (the core nets its counter back out) but costs a
/// fetch cycle; it is always a window's final record.
pub(crate) const REC_HALT: u8 = 3;

/// Spacing, in records, between recorder core snapshots inside a window.
/// A replayer that must re-synchronize its core mid-window (outage, window
/// exit without an end state) adopts the closest snapshot and re-decodes
/// only the tail, so this bounds its worst-case re-decode length — without
/// it, outage-heavy runs re-decode nearly every record and the transposed
/// drive degenerates to live stepping plus replay overhead.
pub(crate) const SNAP_INTERVAL: usize = 1024;

/// One recorded chunk of the canonical instruction stream, column-major:
/// record `i` describes the instruction at architectural position
/// `start + i`. Buffers are pooled — `begin` clears without freeing, so a
/// round-driving loop reuses one window's high-water capacity forever.
#[derive(Debug, Default)]
pub struct StreamWindow {
    /// Architectural position (committed instructions since entry on the
    /// canonical, rewind-free stream) of the first record.
    start: u64,
    /// Per-record kind (`REC_*`).
    pub(crate) kinds: Vec<u8>,
    /// Per-record pc *before* execution.
    pub(crate) pcs: Vec<u32>,
    /// Data address for loads/stores (0 otherwise).
    pub(crate) addrs: Vec<u32>,
    /// Store value (0 otherwise). Load values are *not* recorded — each
    /// replaying lane reads its own memory.
    pub(crate) values: Vec<u32>,
    /// The recorder's architectural state at `start + len()`, present only
    /// for unsealed windows. Registers may hold lane-specific load-derived
    /// data; the taint gate guarantees no such register can influence the
    /// stream, which is what makes adopting this snapshot sound.
    end_state: Option<CoreState>,
    /// Recorder core snapshots at [`SNAP_INTERVAL`]-spaced record indices:
    /// `(i, state)` is the recorder's architectural state immediately
    /// before executing record `i`. Sound to adopt for the same reason as
    /// `end_state`; snapshots taken before a seal stay valid because their
    /// indices lie inside the frozen committed prefix.
    snaps: Vec<(usize, CoreState)>,
    /// Record index of the most recent snapshot (drives `snapshot_due`).
    last_snap_at: usize,
    /// Set when the recorder hit an outage: its architectural position may
    /// rewind, so the window must not grow past the committed prefix.
    sealed: bool,
}

impl StreamWindow {
    /// Resets the window to record a fresh round starting at architectural
    /// position `start`. Keeps buffer capacity.
    pub fn begin(&mut self, start: u64) {
        self.start = start;
        self.kinds.clear();
        self.pcs.clear();
        self.addrs.clear();
        self.values.clear();
        self.end_state = None;
        self.snaps.clear();
        self.last_snap_at = 0;
        self.sealed = false;
    }

    /// Architectural position of the first record.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// True once an outage stopped recording.
    pub fn sealed(&self) -> bool {
        self.sealed
    }

    /// The recorder's end-of-window snapshot, absent for sealed windows.
    pub(crate) fn end_state(&self) -> Option<&CoreState> {
        self.end_state.as_ref()
    }

    /// Stores the recorder's architectural state at the window end. Ignored
    /// after a seal: the recorder kept running live past the recorded
    /// prefix, so its final state no longer corresponds to `start + len()`.
    pub(crate) fn finish(&mut self, state: CoreState) {
        if !self.sealed {
            self.end_state = Some(state);
        }
    }

    /// The latest recorder snapshot usable to re-synchronize records
    /// `[from, to)`: the largest snapshot index `i` with `from < i <= to`
    /// (a snapshot at `i` is the state *before* record `i`, so adopting it
    /// leaves only `[i, to)` to re-decode).
    pub(crate) fn best_snapshot(&self, from: usize, to: usize) -> Option<(usize, &CoreState)> {
        let hi = self.snaps.partition_point(|(i, _)| *i <= to);
        match &self.snaps[..hi] {
            [.., (i, state)] if *i > from => Some((*i, state)),
            _ => None,
        }
    }

    #[inline]
    fn push(&mut self, kind: u8, pc: u32, addr: u32, value: u32) {
        self.kinds.push(kind);
        self.pcs.push(pc);
        self.addrs.push(addr);
        self.values.push(value);
    }
}

/// Receiver for the committed-instruction stream inside the recorder's hot
/// loop. The solo path uses the `()` implementation (`ACTIVE = false`), so
/// every call site folds to nothing and the loop stays allocation-free.
pub(crate) trait StreamSink {
    /// Whether this sink records anything (lets call sites skip argument
    /// computation entirely when the optimizer needs help).
    const ACTIVE: bool;

    /// `taken` consecutive compute instructions starting at `pc0`. Burst
    /// instructions fetch sequentially (a branch can only *close* a run),
    /// so the pcs are `pc0 .. pc0 + taken`.
    fn record_burst(&mut self, pc0: u32, taken: u64);
    /// A committed compute (or control-flow) instruction at `pc`.
    fn record_compute(&mut self, pc: u32);
    /// A committed load at `pc` from `addr`.
    fn record_load(&mut self, pc: u32, addr: u32);
    /// A committed store at `pc` to `addr` of `value` (the recorder's own
    /// value: replayers write it verbatim — data values are invisible to
    /// every statistic, and per-lane value divergence is already implied by
    /// differing outage histories).
    fn record_store(&mut self, pc: u32, addr: u32, value: u32);
    /// The halt instruction at `pc` (always the final record).
    fn record_halt(&mut self, pc: u32);
    /// True when the sink wants a [`StreamSink::snapshot`] at the current
    /// record boundary. Checked only at points where the core is fully
    /// stepped through the last recorded instruction (including
    /// `finish_load`), which is what makes the snapshot adoptable.
    fn snapshot_due(&self) -> bool;
    /// Stores the recorder's architectural state at the current record
    /// boundary for replayers to adopt mid-window.
    fn snapshot(&mut self, state: CoreState);
    /// An outage is about to run: freeze the window at the committed
    /// prefix. Further records are discarded.
    fn seal(&mut self);
}

impl StreamSink for () {
    const ACTIVE: bool = false;

    #[inline(always)]
    fn record_burst(&mut self, _pc0: u32, _taken: u64) {}
    #[inline(always)]
    fn record_compute(&mut self, _pc: u32) {}
    #[inline(always)]
    fn record_load(&mut self, _pc: u32, _addr: u32) {}
    #[inline(always)]
    fn record_store(&mut self, _pc: u32, _addr: u32, _value: u32) {}
    #[inline(always)]
    fn record_halt(&mut self, _pc: u32) {}
    #[inline(always)]
    fn snapshot_due(&self) -> bool {
        false
    }
    #[inline(always)]
    fn snapshot(&mut self, _state: CoreState) {}
    #[inline(always)]
    fn seal(&mut self) {}
}

impl StreamSink for StreamWindow {
    const ACTIVE: bool = true;

    fn record_burst(&mut self, pc0: u32, taken: u64) {
        if self.sealed {
            return;
        }
        for k in 0..taken {
            self.push(REC_COMPUTE, pc0 + k as u32, 0, 0);
        }
    }

    fn record_compute(&mut self, pc: u32) {
        if !self.sealed {
            self.push(REC_COMPUTE, pc, 0, 0);
        }
    }

    fn record_load(&mut self, pc: u32, addr: u32) {
        if !self.sealed {
            self.push(REC_LOAD, pc, addr, 0);
        }
    }

    fn record_store(&mut self, pc: u32, addr: u32, value: u32) {
        if !self.sealed {
            self.push(REC_STORE, pc, addr, value);
        }
    }

    fn record_halt(&mut self, pc: u32) {
        if !self.sealed {
            self.push(REC_HALT, pc, 0, 0);
        }
    }

    fn snapshot_due(&self) -> bool {
        !self.sealed && self.kinds.len() - self.last_snap_at >= SNAP_INTERVAL
    }

    fn snapshot(&mut self, state: CoreState) {
        if !self.sealed {
            self.last_snap_at = self.kinds.len();
            self.snaps.push((self.kinds.len(), state));
        }
    }

    fn seal(&mut self) {
        self.sealed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_resets_but_seal_freezes() {
        let mut w = StreamWindow::default();
        w.begin(100);
        w.record_burst(7, 3);
        w.record_load(10, 0x40);
        assert_eq!(w.len(), 4);
        assert_eq!(w.pcs, vec![7, 8, 9, 10]);
        w.seal();
        w.record_store(11, 0x44, 5);
        assert_eq!(w.len(), 4, "sealed window ignores records");
        w.finish(CoreState {
            regs: [0; 16],
            pc: 11,
            halted: false,
        });
        assert!(w.end_state().is_none(), "sealed window has no end state");

        w.begin(200);
        assert!(w.is_empty());
        assert!(!w.sealed());
        assert_eq!(w.start(), 200);
        w.record_halt(12);
        w.finish(CoreState {
            regs: [0; 16],
            pc: 12,
            halted: true,
        });
        assert_eq!(w.kinds, vec![REC_HALT]);
        assert!(w.end_state().is_some_and(|s| s.halted));
    }

    #[test]
    fn snapshots_pace_by_interval_and_resolve_by_range() {
        let state = |pc| CoreState {
            regs: [0; 16],
            pc,
            halted: false,
        };
        let mut w = StreamWindow::default();
        w.begin(0);
        assert!(!w.snapshot_due(), "empty window never wants a snapshot");
        w.record_burst(0, SNAP_INTERVAL as u64);
        assert!(w.snapshot_due());
        w.snapshot(state(1));
        assert!(!w.snapshot_due(), "snapshot resets the interval pacing");
        w.record_burst(0, SNAP_INTERVAL as u64);
        w.snapshot(state(2));

        // best_snapshot: largest index in (from, to].
        let mid = SNAP_INTERVAL;
        let end = 2 * SNAP_INTERVAL;
        assert_eq!(
            w.best_snapshot(0, end).map(|(i, s)| (i, s.pc)),
            Some((end, 2))
        );
        assert_eq!(
            w.best_snapshot(0, end - 1).map(|(i, s)| (i, s.pc)),
            Some((mid, 1))
        );
        assert_eq!(w.best_snapshot(mid, end - 1), None, "from-exclusive");
        assert_eq!(w.best_snapshot(0, mid - 1), None);

        // Sealing freezes snapshots but keeps the committed-prefix ones.
        w.record_burst(0, SNAP_INTERVAL as u64);
        w.seal();
        assert!(!w.snapshot_due());
        w.snapshot(state(3));
        assert_eq!(
            w.best_snapshot(0, 3 * SNAP_INTERVAL).map(|(i, _)| i),
            Some(end)
        );

        w.begin(0);
        assert_eq!(
            w.best_snapshot(0, usize::MAX),
            None,
            "begin clears snapshots"
        );
    }
}
