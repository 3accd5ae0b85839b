//! Tag probe: compares every way's tag against a needle, producing a hit
//! mask (bit `w` set iff `tags[w] == needle`).
//!
//! The cache's SoA layout keeps each set's tags in `ways` adjacent `u64`
//! words, and empty (invalid or gated) frames hold the `TAG_NONE` sentinel
//! that no real tag can equal — so the whole probe is a pure equality
//! compare over one small slice, with no valid/gated mask to consult.

/// Widest associativity the probe can report: the hit mask is a `u32`, one
/// bit per way. [`Cache::new`](crate::Cache::new) asserts the configured
/// associativity fits (it already caps at the much smaller
/// [`MAX_WAYS`](crate::MAX_WAYS), so this is defence in depth for future
/// cap raises).
pub const PROBE_MASK_BITS: u32 = 32;

const _: () = assert!(
    crate::policy::MAX_WAYS as u32 <= PROBE_MASK_BITS,
    "packed-policy way cap must fit the probe hit mask"
);

/// Probes `tags` for `needle`: bit `w` of the result is set iff
/// `tags[w] == needle`. Only ever reads `tags[..tags.len()]`.
#[inline]
pub fn probe(tags: &[u64], needle: u64) -> u32 {
    let mut mask = 0u32;
    for (w, &t) in tags.iter().enumerate() {
        mask |= u32::from(t == needle) << w;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    const SENTINEL: u64 = u64::MAX; // TAG_NONE

    #[test]
    fn mask_marks_exactly_the_matching_ways() {
        assert_eq!(probe(&[SENTINEL; 4], 0x42), 0, "cold set");
        assert_eq!(probe(&[1, 2, 1, 3], 1), 0b0101, "duplicate tags");
        assert_eq!(probe(&[7; 16], 7), 0xffff, "every way of a 16-way set");
        assert_eq!(probe(&[0, 1, 2, 3, 4], 9), 0, "needle absent");
    }

    #[test]
    fn one_way_probe_reads_only_its_column() {
        // A 1-way set's tag column is a 1-long subslice of the flat tag
        // array; the probe must answer from that subslice alone. Guard by
        // surrounding the probed frame with decoy matches that must NOT
        // appear in the mask.
        let backing = [0xdead, 0xbeef, 0xdead];
        let column = &backing[1..2];
        assert_eq!(probe(column, 0xbeef), 1, "missed the 1-way hit");
        assert_eq!(probe(column, 0xdead), 0, "read past the 1-way column");
    }
}
