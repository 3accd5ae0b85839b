//! Replacement policies and their per-set state.
//!
//! Policies do double duty in this workspace: besides choosing victims they
//! expose a per-way *eviction rank* — 0 for the most protected (MRU-like)
//! block up to `ways - 1` for the next victim — which is exactly the recency
//! information EDBP piggybacks on (paper Section V-A).
//!
//! # Packed representation
//!
//! Per-set state is fixed-width and inline — no heap allocation per set, and
//! no sort on the read path:
//!
//! * Every policy maintains a **rank word**: a `u64` holding one 4-bit rank
//!   per way (way `w` in bits `4w..4w+4`), so rank reads are a shift/mask
//!   and recency updates are branchless SWAR kernels
//!   ([`promote_word`], [`find_rank`]). Nibbles at or above the way count
//!   hold values `>= ways`, which keeps them inert: promotions only
//!   increment lanes ranked *better* than the promoted way, and rank
//!   searches only look for values `< ways`.
//! * Tree-PLRU decision bits live in a `u16` (node `i` = bit `i`).
//! * DRRIP RRPVs live in 2-bit lanes of a `u32`.
//!
//! This caps associativity at [`MAX_WAYS`] = 16 ways, far above anything the
//! experiments sweep (the paper's caches are 4-way; Fig. 12 sweeps 1–8).
//!
//! # Kernels
//!
//! Each policy's transition functions are exposed as a zero-sized
//! [`PolicyKernel`] type ([`LruKernel`], [`TreePlruKernel`], [`DrripKernel`],
//! [`FifoKernel`], [`RandomKernel`]) operating on a plain-old-data
//! [`SetState`]. The [`with_policy_kernel!`] macro is the single
//! enum-to-generic dispatch point: it matches a [`ReplacementPolicy`]
//! exhaustively (no wildcard arm) and runs the caller's body with the
//! matching kernel type bound, so hot loops monomorphize per policy and pay
//! the dispatch once per run instead of once per access. [`SetPolicyState`]
//! is the scalar one-set-at-a-time view over the same kernels; the model
//! proptests at the bottom of this file pin it — and therefore every kernel —
//! against a verbatim port of the pre-packing heap implementation.

/// Maximum associativity supported by the packed per-set policy state
/// (one 4-bit rank lane per way in a `u64`).
pub const MAX_WAYS: usize = 16;

/// The cache replacement policies available to the simulator.
///
/// The paper evaluates LRU (default) and DRRIP (Fig. 10); FIFO and Random
/// are provided for completeness and for stress-testing predictors against
/// weaker recency signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used stack (the paper's default).
    #[default]
    Lru,
    /// Tree-based pseudo-LRU — the "(pseudo) LRU" variant Section V-A names
    /// as equally suitable for EDBP's recency source.
    TreePlru,
    /// Dynamic re-reference interval prediction (SRRIP/BRRIP set dueling).
    Drrip,
    /// First-in first-out.
    Fifo,
    /// Pseudo-random (deterministic LFSR).
    Random,
}

impl ReplacementPolicy {
    /// Every policy, in declaration order. Used by the scheme × policy lane
    /// matrix (`burst_exactness`) to prove the enum-to-generic dispatch is
    /// exhaustive.
    pub const ALL: [ReplacementPolicy; 5] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Drrip,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ];

    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::TreePlru => "tree-plru",
            ReplacementPolicy::Drrip => "drrip",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::Random => "random",
        }
    }
}

/// Maximum re-reference prediction value (2-bit RRPV).
const RRPV_MAX: u8 = 3;
/// RRPV given to fresh SRRIP fills ("long re-reference interval").
const RRPV_LONG: u8 = RRPV_MAX - 1;
/// BRRIP inserts at distant RRPV except once every `BRRIP_EPSILON` fills.
const BRRIP_EPSILON: u32 = 32;
/// 10-bit saturating policy-selection counter midpoint.
const PSEL_MAX: u16 = 1023;

/// `0x01` in every byte lane.
const BYTE_ONES: u64 = 0x0101_0101_0101_0101;
/// Low nibble of every byte lane.
const NIBBLE_LO: u64 = 0x0F0F_0F0F_0F0F_0F0F;
/// `0x1` in every nibble lane.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;
/// MSB of every nibble lane.
const NIBBLE_MSB: u64 = 0x8888_8888_8888_8888;
/// Rank word with nibble `i` holding value `i` (the identity permutation).
const IDENTITY_WORD: u64 = 0xFEDC_BA98_7654_3210;
/// `0b01` in every 2-bit RRPV lane.
const RRPV_LANE_ONES: u32 = 0x5555_5555;

/// Reads way `way`'s nibble from a rank word.
#[inline]
pub(crate) fn rank_of(ranks: u64, way: u8) -> u8 {
    ((ranks >> (4 * u32::from(way))) & 0xF) as u8
}

/// Writes way `way`'s nibble in a rank word.
#[inline]
fn set_rank(ranks: u64, way: u8, rank: u8) -> u64 {
    let shift = 4 * u32::from(way);
    (ranks & !(0xF_u64 << shift)) | (u64::from(rank) << shift)
}

/// Branchless MRU promotion on a packed rank word: way `way` moves to rank
/// 0 and every way previously ranked better than it slides down one rank.
///
/// SWAR: split the 16 nibble lanes across two byte-lane half-words so each
/// lane has carry headroom, compute a per-lane `lane < r` mask from the
/// carry-out bit of `lane + (16 - r)`, and add the mask back in. Lanes with
/// values `>= ways` (the unused ones) are never `< r` and stay untouched.
#[inline]
fn promote_word(ranks: u64, way: u8) -> u64 {
    let shift = 4 * u32::from(way);
    let r = (ranks >> shift) & 0xF;
    let add = (16 - r) * BYTE_ONES;
    let even = ranks & NIBBLE_LO;
    let odd = (ranks >> 4) & NIBBLE_LO;
    // Byte lane = x + (16 - r); bit 4 set iff x >= r. Invert for "x < r".
    let lt_even = (((even + add) >> 4) & BYTE_ONES) ^ BYTE_ONES;
    let lt_odd = (((odd + add) >> 4) & BYTE_ONES) ^ BYTE_ONES;
    // x < r implies x <= 14, so x + 1 never overflows its nibble.
    let bumped = ((even + lt_even) & NIBBLE_LO) | (((odd + lt_odd) & NIBBLE_LO) << 4);
    bumped & !(0xF_u64 << shift)
}

/// Finds the way holding rank `rank` in a packed rank word (the word must
/// contain it exactly once among the low `ways` lanes — ranks are a
/// permutation). Branchless zero-nibble search: borrow-propagation false
/// positives can only appear *above* the true match, and `trailing_zeros`
/// picks the lowest lane.
#[inline]
fn find_rank(ranks: u64, rank: u8) -> u8 {
    let x = ranks ^ (u64::from(rank) * NIBBLE_ONES);
    let m = x.wrapping_sub(NIBBLE_ONES) & !x & NIBBLE_MSB;
    (m.trailing_zeros() / 4) as u8
}

/// Initial rank word: way `w` at rank `w`, unused lanes inert (`>= ways`).
#[inline]
fn identity_word(_ways: u8) -> u64 {
    IDENTITY_WORD
}

/// Plain-old-data per-set policy state shared by every kernel. Each kernel
/// uses only the lanes it needs (`ranks` for all but Random, `plru` for
/// tree-PLRU decision bits, `rrpv` for DRRIP); the unused lanes stay zero.
/// 16 bytes, `Copy`, no heap — the cache stores one of these per set in a
/// flat struct-of-arrays column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetState {
    /// Nibble-packed per-way eviction ranks (see module docs).
    pub(crate) ranks: u64,
    /// Tree-PLRU decision bits: node `i` = bit `i`.
    pub(crate) plru: u16,
    /// 2-bit RRPVs packed in a `u32`.
    pub(crate) rrpv: u32,
}

/// Cache-level shared policy state (set dueling, LFSR).
#[derive(Debug, Clone, PartialEq)]
pub struct SharedPolicyState {
    policy: ReplacementPolicy,
    /// DRRIP policy-selection counter: < midpoint favours SRRIP.
    psel: u16,
    /// Fill counter used for BRRIP's epsilon insertions.
    brrip_fills: u32,
    /// Deterministic LFSR for the Random policy.
    lfsr: u32,
    /// Number of sets (for leader-set selection).
    sets: u32,
}

impl SharedPolicyState {
    /// Fresh shared state for a cache of `sets` sets.
    pub fn new(policy: ReplacementPolicy, sets: u32) -> Self {
        Self {
            policy,
            psel: PSEL_MAX / 2,
            brrip_fills: 0,
            lfsr: 0xACE1_u32,
            sets,
        }
    }

    fn next_random(&mut self) -> u32 {
        // 32-bit xorshift; deterministic and cheap.
        let mut x = self.lfsr;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.lfsr = x;
        x
    }

    /// Leader-set role for DRRIP set dueling: every 32nd set leads SRRIP,
    /// offset by 16 for BRRIP.
    fn duel_role(&self, set: u32) -> DuelRole {
        if self.sets < 64 {
            // Small caches: sets 0/1 lead so dueling still functions.
            if set == 0 {
                return DuelRole::SrripLeader;
            }
            if set == 1 && self.sets > 1 {
                return DuelRole::BrripLeader;
            }
            return DuelRole::Follower;
        }
        match set % 32 {
            0 => DuelRole::SrripLeader,
            16 => DuelRole::BrripLeader,
            _ => DuelRole::Follower,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DuelRole {
    SrripLeader,
    BrripLeader,
    Follower,
}

/// A replacement policy's transition functions as compile-time statics, so
/// the per-access cache path monomorphizes per policy instead of matching a
/// [`ReplacementPolicy`] on every probe. Obtain a kernel type with
/// [`with_policy_kernel!`](crate::with_policy_kernel!); never mix kernels and sets of different
/// policies (the cache guards this with a debug assertion).
pub trait PolicyKernel {
    /// The enum variant this kernel specializes.
    const POLICY: ReplacementPolicy;

    /// Fresh per-set state for a set of `ways` ways.
    fn init(ways: u8) -> SetState;

    /// Records a hit on `way`.
    fn on_hit(state: &mut SetState, way: u8, ways: u8);

    /// Records a fill into `way` (after victim selection).
    fn on_fill(state: &mut SetState, way: u8, set: u32, ways: u8, shared: &mut SharedPolicyState);

    /// Records a miss in set `set` (DRRIP set dueling).
    fn on_miss(state: &mut SetState, set: u32, shared: &mut SharedPolicyState);

    /// Chooses a victim way among the occupied ways, assuming no invalid
    /// way was available (the cache prefers invalid/gated ways first).
    fn victim(state: &mut SetState, shared: &mut SharedPolicyState, ways: u8) -> u8;

    /// The packed rank word — 0 = most protected, `ways-1` = next victim;
    /// the recency signal EDBP reads (Section V-A).
    fn ranks_word(state: &SetState) -> u64;
}

/// LRU: packed rank word, ways ordered by recency (rank 0 = MRU).
#[derive(Debug, Clone, Copy)]
pub struct LruKernel;

impl PolicyKernel for LruKernel {
    const POLICY: ReplacementPolicy = ReplacementPolicy::Lru;

    #[inline]
    fn init(ways: u8) -> SetState {
        SetState {
            ranks: identity_word(ways),
            ..SetState::default()
        }
    }

    #[inline]
    fn on_hit(state: &mut SetState, way: u8, _ways: u8) {
        state.ranks = promote_word(state.ranks, way);
    }

    #[inline]
    fn on_fill(
        state: &mut SetState,
        way: u8,
        _set: u32,
        _ways: u8,
        _shared: &mut SharedPolicyState,
    ) {
        state.ranks = promote_word(state.ranks, way);
    }

    #[inline]
    fn on_miss(_state: &mut SetState, _set: u32, _shared: &mut SharedPolicyState) {}

    #[inline]
    fn victim(state: &mut SetState, _shared: &mut SharedPolicyState, ways: u8) -> u8 {
        find_rank(state.ranks, ways - 1)
    }

    #[inline]
    fn ranks_word(state: &SetState) -> u64 {
        state.ranks
    }
}

/// Tree-PLRU: decision bits in `plru`, rank word maintained incrementally
/// on every touch.
#[derive(Debug, Clone, Copy)]
pub struct TreePlruKernel;

impl PolicyKernel for TreePlruKernel {
    const POLICY: ReplacementPolicy = ReplacementPolicy::TreePlru;

    #[inline]
    fn init(ways: u8) -> SetState {
        assert!(
            ways.is_power_of_two(),
            "tree-PLRU needs a power-of-two way count"
        );
        let bits = 0u16;
        SetState {
            ranks: plru_rank_word(bits, ways),
            plru: bits,
            rrpv: 0,
        }
    }

    #[inline]
    fn on_hit(state: &mut SetState, way: u8, ways: u8) {
        plru_touch(&mut state.plru, ways, way);
        state.ranks = plru_rank_word(state.plru, ways);
    }

    #[inline]
    fn on_fill(
        state: &mut SetState,
        way: u8,
        _set: u32,
        ways: u8,
        _shared: &mut SharedPolicyState,
    ) {
        plru_touch(&mut state.plru, ways, way);
        state.ranks = plru_rank_word(state.plru, ways);
    }

    #[inline]
    fn on_miss(_state: &mut SetState, _set: u32, _shared: &mut SharedPolicyState) {}

    #[inline]
    fn victim(state: &mut SetState, _shared: &mut SharedPolicyState, ways: u8) -> u8 {
        plru_victim(state.plru, ways)
    }

    #[inline]
    fn ranks_word(state: &SetState) -> u64 {
        state.ranks
    }
}

/// DRRIP: 2-bit RRPVs with SRRIP/BRRIP set dueling; rank word maintained
/// incrementally on every RRPV change.
#[derive(Debug, Clone, Copy)]
pub struct DrripKernel;

impl PolicyKernel for DrripKernel {
    const POLICY: ReplacementPolicy = ReplacementPolicy::Drrip;

    #[inline]
    fn init(ways: u8) -> SetState {
        let rrpv = rrpv_all_max(ways);
        SetState {
            ranks: drrip_rank_word(rrpv, ways),
            plru: 0,
            rrpv,
        }
    }

    #[inline]
    fn on_hit(state: &mut SetState, way: u8, ways: u8) {
        state.rrpv = rrpv_set(state.rrpv, way, 0);
        state.ranks = drrip_rank_word(state.rrpv, ways);
    }

    #[inline]
    fn on_fill(state: &mut SetState, way: u8, set: u32, ways: u8, shared: &mut SharedPolicyState) {
        let use_brrip = match shared.duel_role(set) {
            DuelRole::SrripLeader => false,
            DuelRole::BrripLeader => true,
            DuelRole::Follower => shared.psel > PSEL_MAX / 2,
        };
        let insert = if use_brrip {
            shared.brrip_fills = shared.brrip_fills.wrapping_add(1);
            if shared.brrip_fills.is_multiple_of(BRRIP_EPSILON) {
                RRPV_LONG
            } else {
                RRPV_MAX
            }
        } else {
            RRPV_LONG
        };
        state.rrpv = rrpv_set(state.rrpv, way, insert);
        state.ranks = drrip_rank_word(state.rrpv, ways);
    }

    #[inline]
    fn on_miss(_state: &mut SetState, set: u32, shared: &mut SharedPolicyState) {
        match shared.duel_role(set) {
            // A miss in an SRRIP leader argues for BRRIP, and vice versa.
            DuelRole::SrripLeader => shared.psel = (shared.psel + 1).min(PSEL_MAX),
            DuelRole::BrripLeader => shared.psel = shared.psel.saturating_sub(1),
            DuelRole::Follower => {}
        }
    }

    #[inline]
    fn victim(state: &mut SetState, _shared: &mut SharedPolicyState, ways: u8) -> u8 {
        let lane_mask = RRPV_LANE_ONES & rrpv_used_mask(ways);
        loop {
            // Bit `2w` set iff way `w` sits at RRPV_MAX (0b11).
            let distant = state.rrpv & (state.rrpv >> 1) & lane_mask;
            if distant != 0 {
                break (distant.trailing_zeros() / 2) as u8;
            }
            // Age every way by one; no lane is at 3, so no carry.
            state.rrpv += lane_mask;
            state.ranks = drrip_rank_word(state.rrpv, ways);
        }
    }

    #[inline]
    fn ranks_word(state: &SetState) -> u64 {
        state.ranks
    }
}

/// FIFO: packed rank word, ways ordered by fill age (rank 0 = newest);
/// hits change nothing.
#[derive(Debug, Clone, Copy)]
pub struct FifoKernel;

impl PolicyKernel for FifoKernel {
    const POLICY: ReplacementPolicy = ReplacementPolicy::Fifo;

    #[inline]
    fn init(ways: u8) -> SetState {
        SetState {
            ranks: identity_word(ways),
            ..SetState::default()
        }
    }

    #[inline]
    fn on_hit(_state: &mut SetState, _way: u8, _ways: u8) {}

    #[inline]
    fn on_fill(
        state: &mut SetState,
        way: u8,
        _set: u32,
        _ways: u8,
        _shared: &mut SharedPolicyState,
    ) {
        state.ranks = promote_word(state.ranks, way);
    }

    #[inline]
    fn on_miss(_state: &mut SetState, _set: u32, _shared: &mut SharedPolicyState) {}

    #[inline]
    fn victim(state: &mut SetState, _shared: &mut SharedPolicyState, ways: u8) -> u8 {
        find_rank(state.ranks, ways - 1)
    }

    #[inline]
    fn ranks_word(state: &SetState) -> u64 {
        state.ranks
    }
}

/// Random: no per-way state; victims from the shared branchless xorshift
/// LFSR. Lives in the same monomorphized structure as the recency policies
/// so no policy falls back to slow dispatch.
#[derive(Debug, Clone, Copy)]
pub struct RandomKernel;

impl PolicyKernel for RandomKernel {
    const POLICY: ReplacementPolicy = ReplacementPolicy::Random;

    #[inline]
    fn init(ways: u8) -> SetState {
        SetState {
            ranks: identity_word(ways),
            ..SetState::default()
        }
    }

    #[inline]
    fn on_hit(_state: &mut SetState, _way: u8, _ways: u8) {}

    #[inline]
    fn on_fill(
        _state: &mut SetState,
        _way: u8,
        _set: u32,
        _ways: u8,
        _shared: &mut SharedPolicyState,
    ) {
    }

    #[inline]
    fn on_miss(_state: &mut SetState, _set: u32, _shared: &mut SharedPolicyState) {}

    #[inline]
    fn victim(_state: &mut SetState, shared: &mut SharedPolicyState, ways: u8) -> u8 {
        (shared.next_random() % u32::from(ways)) as u8
    }

    #[inline]
    fn ranks_word(state: &SetState) -> u64 {
        state.ranks
    }
}

/// The enum-to-generic dispatch point: runs `$body` with `$K` bound to the
/// [`PolicyKernel`] type matching `$policy`. The match is exhaustive with
/// **no wildcard arm**, so adding a [`ReplacementPolicy`] variant without a
/// kernel is a compile error — no policy can silently fall back to dynamic
/// dispatch. Callers pay this match once per run (or once per cache call on
/// the non-generic convenience paths), never once per access inside a
/// monomorphized loop.
#[macro_export]
macro_rules! with_policy_kernel {
    ($policy:expr, $K:ident => $body:expr) => {
        match $policy {
            $crate::ReplacementPolicy::Lru => {
                type $K = $crate::LruKernel;
                $body
            }
            $crate::ReplacementPolicy::TreePlru => {
                type $K = $crate::TreePlruKernel;
                $body
            }
            $crate::ReplacementPolicy::Drrip => {
                type $K = $crate::DrripKernel;
                $body
            }
            $crate::ReplacementPolicy::Fifo => {
                type $K = $crate::FifoKernel;
                $body
            }
            $crate::ReplacementPolicy::Random => {
                type $K = $crate::RandomKernel;
                $body
            }
        }
    };
}

/// Scalar one-set-at-a-time view over the policy kernels: a
/// (policy, ways, [`SetState`]) triple that dispatches each call through
/// [`with_policy_kernel!`](crate::with_policy_kernel!). The cache's hot path uses the kernels directly
/// over its struct-of-arrays columns; this wrapper exists for tests (the
/// model proptests pin it against the reference implementation, and through
/// it every kernel) and for callers that hold a single set's state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetPolicyState {
    policy: ReplacementPolicy,
    ways: u8,
    state: SetState,
}

impl SetPolicyState {
    /// Fresh per-set state for `policy` over `ways` ways.
    pub fn new(policy: ReplacementPolicy, ways: u8) -> Self {
        assert!(
            usize::from(ways) <= MAX_WAYS && ways > 0,
            "packed policy state supports 1..={MAX_WAYS} ways, got {ways}"
        );
        let state = with_policy_kernel!(policy, K => K::init(ways));
        Self {
            policy,
            ways,
            state,
        }
    }

    /// Records a hit on `way`.
    pub fn on_hit(&mut self, way: u8) {
        with_policy_kernel!(self.policy, K => K::on_hit(&mut self.state, way, self.ways));
    }

    /// Records a fill into `way` (after victim selection).
    pub fn on_fill(&mut self, way: u8, set: u32, shared: &mut SharedPolicyState) {
        with_policy_kernel!(
            self.policy,
            K => K::on_fill(&mut self.state, way, set, self.ways, shared)
        );
    }

    /// Records a miss in this set for DRRIP set dueling.
    pub fn on_miss(&mut self, set: u32, shared: &mut SharedPolicyState) {
        with_policy_kernel!(self.policy, K => K::on_miss(&mut self.state, set, shared));
    }

    /// Chooses a victim way among the occupied ways, assuming no invalid way
    /// was available (the cache prefers invalid/gated ways first).
    pub fn victim(&mut self, shared: &mut SharedPolicyState, ways: u8) -> u8 {
        with_policy_kernel!(self.policy, K => K::victim(&mut self.state, shared, ways))
    }

    /// Eviction ranks per way — 0 = most protected (MRU-like), `ways-1` =
    /// next victim; the recency signal EDBP reads (Section V-A) — written
    /// into the low `ways` slots of a caller-provided buffer. A pure
    /// shift/mask read: no allocation, no sort.
    #[inline]
    pub fn ranks_into(&self, ways: u8, out: &mut [u8; MAX_WAYS]) {
        let word = with_policy_kernel!(self.policy, K => K::ranks_word(&self.state));
        for (w, slot) in out.iter_mut().enumerate().take(usize::from(ways)) {
            *slot = rank_of(word, w as u8);
        }
    }

    /// Rank snapshot as a `Vec` — a thin wrapper over [`ranks_into`] kept
    /// for tests.
    ///
    /// [`ranks_into`]: SetPolicyState::ranks_into
    #[cfg(test)]
    pub(crate) fn ranks(&self, ways: u8) -> Vec<u8> {
        let mut buf = [0u8; MAX_WAYS];
        self.ranks_into(ways, &mut buf);
        buf[..usize::from(ways)].to_vec()
    }
}

/// All-distant initial RRPV word: `RRPV_MAX` in every used lane, unused
/// lanes zero (so the victim search never matches them).
#[inline]
fn rrpv_used_mask(ways: u8) -> u32 {
    if ways >= 16 {
        u32::MAX
    } else {
        (1u32 << (2 * u32::from(ways))) - 1
    }
}

#[inline]
fn rrpv_all_max(ways: u8) -> u32 {
    rrpv_used_mask(ways)
}

/// Reads way `way`'s 2-bit RRPV lane.
#[inline]
fn rrpv_get(rrpv: u32, way: u8) -> u8 {
    ((rrpv >> (2 * u32::from(way))) & 0b11) as u8
}

/// Writes way `way`'s 2-bit RRPV lane.
#[inline]
fn rrpv_set(rrpv: u32, way: u8, value: u8) -> u32 {
    let shift = 2 * u32::from(way);
    (rrpv & !(0b11_u32 << shift)) | (u32::from(value) << shift)
}

/// Rank word for a DRRIP set: ways sorted by RRPV ascending (low RRPV =
/// soon re-referenced = protected), ties broken by way index. A stable
/// 4-bucket counting sort over fixed arrays — no allocation.
fn drrip_rank_word(rrpv: u32, ways: u8) -> u64 {
    let mut count = [0u8; 4];
    for w in 0..ways {
        count[usize::from(rrpv_get(rrpv, w))] += 1;
    }
    let mut next = [0u8; 4];
    let mut acc = 0u8;
    for (v, n) in next.iter_mut().zip(count) {
        *v = acc;
        acc += n;
    }
    let mut word = identity_word(ways);
    for w in 0..ways {
        let bucket = usize::from(rrpv_get(rrpv, w));
        word = set_rank(word, w, next[bucket]);
        next[bucket] += 1;
    }
    word
}

/// Rank word for a tree-PLRU set: ways sorted by "how many decision bits
/// point towards them" (colder = closer to eviction), ties broken by way
/// index. A stable counting sort over at most `log2(MAX_WAYS) + 1` buckets.
fn plru_rank_word(bits: u16, ways: u8) -> u64 {
    // Coldness of a way is at most the tree depth, log2(ways) <= 4.
    let mut count = [0u8; 5];
    let mut cold = [0u8; MAX_WAYS];
    for w in 0..ways {
        let c = plru_coldness(bits, ways, w);
        cold[usize::from(w)] = c;
        count[usize::from(c)] += 1;
    }
    let mut next = [0u8; 5];
    let mut acc = 0u8;
    for (v, n) in next.iter_mut().zip(count) {
        *v = acc;
        acc += n;
    }
    let mut word = identity_word(ways);
    for w in 0..ways {
        let bucket = usize::from(cold[usize::from(w)]);
        word = set_rank(word, w, next[bucket]);
        next[bucket] += 1;
    }
    word
}

/// Tree-PLRU: point every decision bit on the path to `way` *away* from it.
fn plru_touch(bits: &mut u16, ways: u8, way: u8) {
    let mut node = 0u32;
    let mut lo = 0u8;
    let mut hi = ways;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let go_right = way >= mid;
        // Bit true = cold side is right; touching the right child points
        // the bit left (false), and vice versa.
        if go_right {
            *bits &= !(1 << node);
        } else {
            *bits |= 1 << node;
        }
        node = 2 * node + if go_right { 2 } else { 1 };
        if go_right {
            lo = mid;
        } else {
            hi = mid;
        }
    }
}

/// Tree-PLRU: follow the cold side of every decision bit to the victim.
fn plru_victim(bits: u16, ways: u8) -> u8 {
    let mut node = 0u32;
    let mut lo = 0u8;
    let mut hi = ways;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let go_right = (bits >> node) & 1 != 0;
        node = 2 * node + if go_right { 2 } else { 1 };
        if go_right {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// How many decision bits on the path to `way` point *towards* it (higher =
/// colder = closer to eviction).
fn plru_coldness(bits: u16, ways: u8, way: u8) -> u8 {
    let mut node = 0u32;
    let mut lo = 0u8;
    let mut hi = ways;
    let mut coldness = 0u8;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let go_right = way >= mid;
        if ((bits >> node) & 1 != 0) == go_right {
            coldness += 1;
        }
        node = 2 * node + if go_right { 2 } else { 1 };
        if go_right {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    coldness
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank vector read back from a packed word (test helper).
    fn word_ranks(word: u64, ways: u8) -> Vec<u8> {
        (0..ways).map(|w| rank_of(word, w)).collect()
    }

    #[test]
    fn promote_word_moves_to_front() {
        // Identity word = stack order [0,1,2,3] (way w at rank w).
        let mut w = identity_word(4);
        w = promote_word(w, 2);
        // Order now [2,0,1,3]: ranks way0=1, way1=2, way2=0, way3=3.
        assert_eq!(word_ranks(w, 4), vec![1, 2, 0, 3]);
        w = promote_word(w, 2); // promoting the MRU is a no-op
        assert_eq!(word_ranks(w, 4), vec![1, 2, 0, 3]);
        w = promote_word(w, 3);
        // Order now [3,2,0,1].
        assert_eq!(word_ranks(w, 4), vec![2, 3, 1, 0]);
    }

    #[test]
    fn promote_word_leaves_unused_lanes_inert() {
        let mut w = identity_word(4);
        for way in [3u8, 1, 2, 0, 3, 3, 1] {
            w = promote_word(w, way);
        }
        for lane in 4..16u8 {
            assert_eq!(rank_of(w, lane), lane, "unused lane {lane} drifted");
        }
    }

    #[test]
    fn promote_word_handles_full_width() {
        // 16 ways: every lane is live.
        let mut w = identity_word(16);
        w = promote_word(w, 15);
        assert_eq!(rank_of(w, 15), 0);
        for lane in 0..15u8 {
            assert_eq!(rank_of(w, lane), lane + 1);
        }
        assert_eq!(find_rank(w, 15), 14);
        assert_eq!(find_rank(w, 0), 15);
    }

    #[test]
    fn find_rank_locates_every_lane() {
        let mut w = identity_word(8);
        for way in [5u8, 2, 7, 0, 2, 6] {
            w = promote_word(w, way);
        }
        let ranks = word_ranks(w, 8);
        for (way, &rank) in ranks.iter().enumerate() {
            assert_eq!(find_rank(w, rank), way as u8, "rank {rank}");
        }
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut shared = SharedPolicyState::new(ReplacementPolicy::Lru, 64);
        let mut set = SetPolicyState::new(ReplacementPolicy::Lru, 4);
        for w in [0u8, 1, 2, 3] {
            set.on_fill(w, 0, &mut shared);
        }
        set.on_hit(0);
        // Order now 0,3,2,1 → victim 1.
        assert_eq!(set.victim(&mut shared, 4), 1);
    }

    #[test]
    fn lru_ranks_match_stack_positions() {
        let mut shared = SharedPolicyState::new(ReplacementPolicy::Lru, 64);
        let mut set = SetPolicyState::new(ReplacementPolicy::Lru, 4);
        for w in [0u8, 1, 2, 3] {
            set.on_fill(w, 0, &mut shared);
        }
        // MRU→LRU: 3,2,1,0.
        assert_eq!(set.ranks(4), vec![3, 2, 1, 0]);
        set.on_hit(0);
        assert_eq!(set.ranks(4), vec![0, 3, 2, 1]);
    }

    #[test]
    fn ranks_into_matches_ranks() {
        let mut shared = SharedPolicyState::new(ReplacementPolicy::Lru, 64);
        let mut set = SetPolicyState::new(ReplacementPolicy::Lru, 4);
        for w in [2u8, 0, 3, 1, 2] {
            set.on_fill(w, 0, &mut shared);
        }
        let mut buf = [0xAA_u8; MAX_WAYS];
        set.ranks_into(4, &mut buf);
        assert_eq!(&buf[..4], set.ranks(4).as_slice());
        assert!(buf[4..].iter().all(|&b| b == 0xAA), "slots past ways kept");
    }

    #[test]
    fn drrip_hit_promotes_to_rrpv_zero() {
        let mut shared = SharedPolicyState::new(ReplacementPolicy::Drrip, 64);
        let mut set = SetPolicyState::new(ReplacementPolicy::Drrip, 4);
        set.on_fill(1, 5, &mut shared);
        set.on_hit(1);
        let ranks = set.ranks(4);
        assert_eq!(ranks[1], 0, "hit block should be most protected");
    }

    #[test]
    fn drrip_victim_prefers_max_rrpv() {
        let mut shared = SharedPolicyState::new(ReplacementPolicy::Drrip, 64);
        let mut set = SetPolicyState::new(ReplacementPolicy::Drrip, 4);
        // All start at RRPV_MAX; fill way 0 (gets RRPV_LONG in SRRIP leader).
        set.on_fill(0, 0, &mut shared);
        let v = set.victim(&mut shared, 4);
        assert_ne!(v, 0, "freshly filled way should not be the victim");
    }

    #[test]
    fn drrip_aging_terminates() {
        let mut shared = SharedPolicyState::new(ReplacementPolicy::Drrip, 64);
        let mut set = SetPolicyState::new(ReplacementPolicy::Drrip, 4);
        for w in 0..4 {
            set.on_fill(w, 0, &mut shared);
            set.on_hit(w); // all at RRPV 0
        }
        let _ = set.victim(&mut shared, 4); // must age until a victim appears
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut shared = SharedPolicyState::new(ReplacementPolicy::Fifo, 64);
        let mut set = SetPolicyState::new(ReplacementPolicy::Fifo, 4);
        for w in [0u8, 1, 2, 3] {
            set.on_fill(w, 0, &mut shared);
        }
        set.on_hit(0); // should NOT rescue way 0
        assert_eq!(set.victim(&mut shared, 4), 0);
    }

    #[test]
    fn random_victim_in_range_and_deterministic() {
        let mut a = SharedPolicyState::new(ReplacementPolicy::Random, 64);
        let mut b = SharedPolicyState::new(ReplacementPolicy::Random, 64);
        let mut set = SetPolicyState::new(ReplacementPolicy::Random, 4);
        for _ in 0..100 {
            let va = set.victim(&mut a, 4);
            let vb = set.victim(&mut b, 4);
            assert!(va < 4);
            assert_eq!(va, vb, "same seed must give same victims");
        }
    }

    #[test]
    fn ranks_are_a_permutation() {
        for policy in ReplacementPolicy::ALL {
            let mut shared = SharedPolicyState::new(policy, 64);
            let mut set = SetPolicyState::new(policy, 4);
            for w in [0u8, 2, 1, 3, 2, 0] {
                set.on_fill(w, 0, &mut shared);
            }
            let mut ranks = set.ranks(4);
            ranks.sort_unstable();
            assert_eq!(ranks, vec![0, 1, 2, 3], "{policy:?}");
        }
    }

    #[test]
    fn kernel_consts_match_their_variants() {
        for policy in ReplacementPolicy::ALL {
            let resolved = with_policy_kernel!(policy, K => K::POLICY);
            assert_eq!(resolved, policy, "dispatch macro resolved a mismatch");
        }
    }

    #[test]
    fn policy_names() {
        assert_eq!(ReplacementPolicy::Lru.name(), "lru");
        assert_eq!(ReplacementPolicy::Drrip.name(), "drrip");
        assert_eq!(ReplacementPolicy::TreePlru.name(), "tree-plru");
    }

    #[test]
    fn plru_victim_is_never_the_last_touched_way() {
        let mut shared = SharedPolicyState::new(ReplacementPolicy::TreePlru, 64);
        let mut set = SetPolicyState::new(ReplacementPolicy::TreePlru, 4);
        for w in [0u8, 1, 2, 3, 1, 0, 2] {
            set.on_hit(w);
            assert_ne!(set.victim(&mut shared, 4), w, "victim after touching {w}");
        }
    }

    #[test]
    fn plru_cycles_through_all_ways_under_round_robin_fills() {
        // Repeatedly filling the victim must visit every way (no starvation).
        let mut shared = SharedPolicyState::new(ReplacementPolicy::TreePlru, 64);
        let mut set = SetPolicyState::new(ReplacementPolicy::TreePlru, 4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            let v = set.victim(&mut shared, 4);
            seen.insert(v);
            set.on_fill(v, 0, &mut shared);
        }
        assert_eq!(seen.len(), 4, "PLRU must not starve any way: {seen:?}");
    }

    #[test]
    fn plru_ranks_put_victim_last() {
        let mut shared = SharedPolicyState::new(ReplacementPolicy::TreePlru, 64);
        let mut set = SetPolicyState::new(ReplacementPolicy::TreePlru, 4);
        for w in [0u8, 1, 2, 3, 0, 1] {
            set.on_hit(w);
        }
        let ranks = set.ranks(4);
        let victim = set.victim(&mut shared, 4);
        assert_eq!(
            ranks[victim as usize], 3,
            "the PLRU victim must hold the worst rank (ranks {ranks:?}, victim {victim})"
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two_ways() {
        let _ = SetPolicyState::new(ReplacementPolicy::TreePlru, 3);
    }

    #[test]
    #[should_panic(expected = "1..=16 ways")]
    fn rejects_overwide_sets() {
        let _ = SetPolicyState::new(ReplacementPolicy::Lru, 17);
    }
}

/// Property tests pinning the packed per-set state to the heap-allocated
/// reference implementation it replaced (`Vec<u8>` recency stacks, per-way
/// RRPV vectors, `Vec<bool>` PLRU trees), including PLRU/DRRIP tie-break
/// order. The reference code below is a verbatim port of the pre-packing
/// implementation. [`SetPolicyState`] dispatches every call through the
/// policy kernels, so these tests pin each kernel's transition functions.
#[cfg(test)]
mod model_tests {
    use super::*;
    use proptest::prelude::*;

    /// The old heap-based per-set state, kept as the semantic reference.
    #[derive(Debug, Clone)]
    enum RefSetState {
        Lru { order: Vec<u8> },
        TreePlru { bits: Vec<bool>, ways: u8 },
        Drrip { rrpv: Vec<u8> },
        Fifo { order: Vec<u8> },
        Random,
    }

    fn ref_promote(order: &mut [u8], way: u8) {
        if let Some(pos) = order.iter().position(|&w| w == way) {
            order[..=pos].rotate_right(1);
        }
    }

    fn ref_plru_touch(bits: &mut [bool], ways: u8, way: u8) {
        let mut node = 0usize;
        let mut lo = 0u8;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let go_right = way >= mid;
            bits[node] = !go_right;
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    fn ref_plru_victim(bits: &[bool], ways: u8) -> u8 {
        let mut node = 0usize;
        let mut lo = 0u8;
        let mut hi = ways;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let go_right = bits[node];
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn ref_plru_coldness(bits: &[bool], ways: u8, way: u8) -> u8 {
        let mut node = 0usize;
        let mut lo = 0u8;
        let mut hi = ways;
        let mut coldness = 0u8;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let go_right = way >= mid;
            if bits[node] == go_right {
                coldness += 1;
            }
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        coldness
    }

    impl RefSetState {
        fn new(policy: ReplacementPolicy, ways: u8) -> Self {
            match policy {
                ReplacementPolicy::Lru => RefSetState::Lru {
                    order: (0..ways).collect(),
                },
                ReplacementPolicy::TreePlru => RefSetState::TreePlru {
                    bits: vec![false; usize::from(ways).saturating_sub(1)],
                    ways,
                },
                ReplacementPolicy::Drrip => RefSetState::Drrip {
                    rrpv: vec![RRPV_MAX; ways as usize],
                },
                ReplacementPolicy::Fifo => RefSetState::Fifo {
                    order: (0..ways).collect(),
                },
                ReplacementPolicy::Random => RefSetState::Random,
            }
        }

        fn on_hit(&mut self, way: u8) {
            match self {
                RefSetState::Lru { order } => ref_promote(order, way),
                RefSetState::TreePlru { bits, ways } => ref_plru_touch(bits, *ways, way),
                RefSetState::Drrip { rrpv } => rrpv[way as usize] = 0,
                RefSetState::Fifo { .. } | RefSetState::Random => {}
            }
        }

        fn on_fill(&mut self, way: u8, set: u32, shared: &mut SharedPolicyState) {
            match self {
                RefSetState::Lru { order } => ref_promote(order, way),
                RefSetState::TreePlru { bits, ways } => ref_plru_touch(bits, *ways, way),
                RefSetState::Drrip { rrpv } => {
                    let use_brrip = match shared.duel_role(set) {
                        DuelRole::SrripLeader => false,
                        DuelRole::BrripLeader => true,
                        DuelRole::Follower => shared.psel > PSEL_MAX / 2,
                    };
                    rrpv[way as usize] = if use_brrip {
                        shared.brrip_fills = shared.brrip_fills.wrapping_add(1);
                        if shared.brrip_fills.is_multiple_of(BRRIP_EPSILON) {
                            RRPV_LONG
                        } else {
                            RRPV_MAX
                        }
                    } else {
                        RRPV_LONG
                    };
                }
                RefSetState::Fifo { order } => ref_promote(order, way),
                RefSetState::Random => {}
            }
        }

        fn on_miss(&mut self, set: u32, shared: &mut SharedPolicyState) {
            if matches!(self, RefSetState::Drrip { .. }) {
                match shared.duel_role(set) {
                    DuelRole::SrripLeader => shared.psel = (shared.psel + 1).min(PSEL_MAX),
                    DuelRole::BrripLeader => shared.psel = shared.psel.saturating_sub(1),
                    DuelRole::Follower => {}
                }
            }
        }

        fn victim(&mut self, shared: &mut SharedPolicyState, ways: u8) -> u8 {
            match self {
                RefSetState::Lru { order } | RefSetState::Fifo { order } => {
                    *order.last().expect("non-empty set")
                }
                RefSetState::TreePlru { bits, ways } => ref_plru_victim(bits, *ways),
                RefSetState::Drrip { rrpv } => loop {
                    if let Some(w) = rrpv.iter().position(|&r| r >= RRPV_MAX) {
                        break w as u8;
                    }
                    for r in rrpv.iter_mut() {
                        *r += 1;
                    }
                },
                RefSetState::Random => (shared.next_random() % u32::from(ways)) as u8,
            }
        }

        fn ranks(&self, ways: u8) -> Vec<u8> {
            match self {
                RefSetState::Lru { order } | RefSetState::Fifo { order } => {
                    let mut ranks = vec![0u8; ways as usize];
                    for (pos, &way) in order.iter().enumerate() {
                        ranks[way as usize] = pos as u8;
                    }
                    ranks
                }
                RefSetState::TreePlru { bits, ways } => {
                    let n = *ways;
                    let mut idx: Vec<u8> = (0..n).collect();
                    idx.sort_by_key(|&w| (ref_plru_coldness(bits, n, w), w));
                    let mut ranks = vec![0u8; n as usize];
                    for (pos, &way) in idx.iter().enumerate() {
                        ranks[way as usize] = pos as u8;
                    }
                    ranks
                }
                RefSetState::Drrip { rrpv } => {
                    let mut idx: Vec<u8> = (0..ways).collect();
                    idx.sort_by_key(|&w| (rrpv[w as usize], w));
                    let mut ranks = vec![0u8; ways as usize];
                    for (pos, &way) in idx.iter().enumerate() {
                        ranks[way as usize] = pos as u8;
                    }
                    ranks
                }
                RefSetState::Random => (0..ways).collect(),
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Hit(u8),
        Fill { way: u8, set: u32 },
        Miss { set: u32 },
        Victim,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..16).prop_map(Op::Hit),
            ((0u8..16), (0u32..128)).prop_map(|(way, set)| Op::Fill { way, set }),
            (0u32..128).prop_map(|set| Op::Miss { set }),
            Just(Op::Victim),
        ]
    }

    fn check_policy(policy: ReplacementPolicy, ways: u8, sets: u32, ops: &[Op]) {
        let mut packed = SetPolicyState::new(policy, ways);
        let mut reference = RefSetState::new(policy, ways);
        let mut shared_p = SharedPolicyState::new(policy, sets);
        let mut shared_r = SharedPolicyState::new(policy, sets);
        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Hit(way) => {
                    let way = way % ways;
                    packed.on_hit(way);
                    reference.on_hit(way);
                }
                Op::Fill { way, set } => {
                    let way = way % ways;
                    let set = set % sets;
                    packed.on_fill(way, set, &mut shared_p);
                    reference.on_fill(way, set, &mut shared_r);
                }
                Op::Miss { set } => {
                    let set = set % sets;
                    packed.on_miss(set, &mut shared_p);
                    reference.on_miss(set, &mut shared_r);
                }
                Op::Victim => {
                    let vp = packed.victim(&mut shared_p, ways);
                    let vr = reference.victim(&mut shared_r, ways);
                    assert_eq!(vp, vr, "victim diverged at op {i} ({policy:?})");
                }
            }
            assert_eq!(
                packed.ranks(ways),
                reference.ranks(ways),
                "ranks diverged at op {i} ({policy:?}, ways {ways})"
            );
            assert_eq!(
                shared_p, shared_r,
                "shared state diverged at op {i} ({policy:?})"
            );
        }
    }

    proptest! {
        #[test]
        fn packed_lru_matches_reference(
            ways in 1u8..17,
            ops in proptest::collection::vec(op_strategy(), 1..200),
        ) {
            check_policy(ReplacementPolicy::Lru, ways, 64, &ops);
        }

        #[test]
        fn packed_fifo_matches_reference(
            ways in 1u8..17,
            ops in proptest::collection::vec(op_strategy(), 1..200),
        ) {
            check_policy(ReplacementPolicy::Fifo, ways, 64, &ops);
        }

        #[test]
        fn packed_plru_matches_reference(
            ways_log in 0u32..5,
            ops in proptest::collection::vec(op_strategy(), 1..200),
        ) {
            check_policy(ReplacementPolicy::TreePlru, 1 << ways_log, 64, &ops);
        }

        #[test]
        fn packed_drrip_matches_reference(
            ways in 1u8..17,
            sets in prop_oneof![Just(1u32), Just(2), Just(63), Just(64), Just(128)],
            ops in proptest::collection::vec(op_strategy(), 1..200),
        ) {
            check_policy(ReplacementPolicy::Drrip, ways, sets, &ops);
        }

        #[test]
        fn packed_random_matches_reference(
            ways in 1u8..17,
            ops in proptest::collection::vec(op_strategy(), 1..100),
        ) {
            check_policy(ReplacementPolicy::Random, ways, 64, &ops);
        }
    }
}
