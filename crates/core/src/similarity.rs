//! Similarity entries produced by the initialization phase.

use std::ops::Range;

use linkclust_graph::VertexId;

/// A canonical unordered vertex pair (`first < second`).
///
/// The keys of map `M` in Algorithm 1: a pair of vertices at distance 2
/// (sharing at least one common neighbor) or adjacent with a common
/// neighbor.
///
/// # Examples
///
/// ```
/// use linkclust_core::VertexPair;
/// use linkclust_graph::VertexId;
///
/// let p = VertexPair::new(VertexId::new(5), VertexId::new(2));
/// assert_eq!(p.first().index(), 2);
/// assert_eq!(p.second().index(), 5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VertexPair {
    first: VertexId,
    second: VertexId,
}

impl VertexPair {
    /// Creates a canonical pair from two distinct vertices.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    #[inline]
    #[must_use]
    pub fn new(a: VertexId, b: VertexId) -> Self {
        assert_ne!(a, b, "a vertex pair requires two distinct vertices");
        if a < b {
            VertexPair { first: a, second: b }
        } else {
            VertexPair { first: b, second: a }
        }
    }

    /// The smaller vertex.
    #[inline]
    #[must_use]
    pub fn first(self) -> VertexId {
        self.first
    }

    /// The larger vertex.
    #[inline]
    #[must_use]
    pub fn second(self) -> VertexId {
        self.second
    }
}

impl std::fmt::Display for VertexPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.first, self.second)
    }
}

/// One entry of the sorted list `L`: a vertex pair, the Tanimoto
/// similarity shared by every pair of incident edges it induces, and the
/// span of its common neighbors in the owning list's arena.
///
/// For each common neighbor `vₖ` — read them with
/// [`PairSimilarities::common_neighbors`] — the edge pair
/// `((vᵢ,vₖ), (vⱼ,vₖ))` has similarity [`score`](SimilarityEntry::score):
/// the paper's key observation is that this value is independent of `vₖ`.
///
/// A 24-byte `Copy` record that owns no heap memory: a list costs two
/// allocations, its entries and its arena, whatever its length.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimilarityEntry {
    /// The vertex pair `(vᵢ, vⱼ)`.
    pub pair: VertexPair,
    /// The Tanimoto similarity `S(e_{ik}, e_{jk})` of Eq. 1.
    pub score: f64,
    /// Offset of the first common neighbor in the arena.
    start: u32,
    /// Number of common neighbors.
    len: u32,
}

impl SimilarityEntry {
    /// The number of incident edge pairs this entry stands for.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        // cast: u32 count to index, lossless on 32- and 64-bit.
        self.len as usize
    }

    /// The arena range holding this entry's common neighbors.
    fn span(&self) -> Range<usize> {
        // cast: u32 offsets to indices, lossless on 32- and 64-bit.
        let start = self.start as usize;
        start..start + self.pair_count()
    }
}

/// The output of the initialization phase: all vertex pairs with at least
/// one common neighbor, each with its similarity score — the materialized
/// map `M` of Algorithm 1.
///
/// The entries are flat records; their common neighbors live in one
/// shared arena, each entry's run contiguous and in increasing id order.
/// The runs tile the arena in entry order, so a sorted list `L` is read
/// front to back by the sweeps.
///
/// Obtain one from [`init::compute_similarities`](crate::init::compute_similarities),
/// then sort it into the list `L` with [`into_sorted`](Self::into_sorted)
/// before sweeping.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PairSimilarities {
    entries: Vec<SimilarityEntry>,
    common: Vec<VertexId>,
    sorted: bool,
}

impl PairSimilarities {
    /// An empty, unsorted list with room for `entries` entries and
    /// `records` common neighbors.
    pub(crate) fn with_capacity(entries: usize, records: usize) -> Self {
        PairSimilarities {
            entries: Vec::with_capacity(entries),
            common: Vec::with_capacity(records),
            sorted: false,
        }
    }

    /// Appends an entry whose common neighbors are `commons`, which must
    /// be in increasing id order.
    ///
    /// # Panics
    ///
    /// Panics if the arena outgrows the `u32` offset range.
    pub(crate) fn push(
        &mut self,
        pair: VertexPair,
        score: f64,
        commons: impl IntoIterator<Item = VertexId>,
    ) {
        let start = self.common.len();
        self.common.extend(commons);
        debug_assert!(self.common[start..].is_sorted(), "common neighbors must ascend");
        let arena_offset = |n: usize| u32::try_from(n).expect("arena offsets are u32");
        let (start, end) = (arena_offset(start), arena_offset(self.common.len()));
        self.entries.push(SimilarityEntry { pair, score, start, len: end - start });
        self.sorted = false;
    }

    /// Concatenates lists into one, keeping every entry's common
    /// neighbors — how the owner-sharded parallel pass 2 joins its
    /// owners' slabs. The result is unsorted.
    ///
    /// # Panics
    ///
    /// Panics if the joined arena outgrows the `u32` offset range.
    #[must_use]
    pub fn concat(parts: Vec<PairSimilarities>) -> Self {
        let entries = parts.iter().map(Self::len).sum();
        let records = parts.iter().map(|p| p.common.len()).sum();
        assert!(u32::try_from(records).is_ok(), "arena offsets are u32");
        let mut joined = Self::with_capacity(entries, records);
        for part in parts {
            // cast: below `records`, which fits u32 (checked above).
            let base = joined.common.len() as u32;
            joined.entries.extend(
                part.entries.iter().map(|e| SimilarityEntry { start: base + e.start, ..*e }),
            );
            joined.common.extend_from_slice(&part.common);
        }
        joined
    }

    /// Splits the list into its entries and its common-neighbor arena,
    /// so a caller can re-score entries in owned pieces (the parallel
    /// pass 3). [`from_parts`](Self::from_parts) reassembles them.
    #[must_use]
    pub fn into_parts(self) -> (Vec<SimilarityEntry>, Vec<VertexId>) {
        (self.entries, self.common)
    }

    /// Reassembles an **unsorted** list from the parts
    /// [`into_parts`](Self::into_parts) returned. The entries may have
    /// been re-scored, but not reordered.
    ///
    /// # Panics
    ///
    /// Panics if the entries' common-neighbor runs do not tile `common`
    /// in entry order.
    #[must_use]
    pub fn from_parts(entries: Vec<SimilarityEntry>, common: Vec<VertexId>) -> Self {
        let mut end = 0;
        for e in &entries {
            let span = e.span();
            assert_eq!(span.start, end, "common-neighbor runs must tile the arena in entry order");
            end = span.end;
        }
        assert_eq!(end, common.len(), "common-neighbor runs must cover the arena");
        PairSimilarities { entries, common, sorted: false }
    }

    /// The entries, in unspecified order unless [`is_sorted`](Self::is_sorted).
    #[must_use]
    pub fn entries(&self) -> &[SimilarityEntry] {
        &self.entries
    }

    /// Mutable entries for re-scoring in place (pass 3). Clears the
    /// sorted flag, since scores may change.
    pub(crate) fn entries_mut(&mut self) -> &mut [SimilarityEntry] {
        self.sorted = false;
        &mut self.entries
    }

    /// The common neighbors of `entry`, in increasing id order.
    ///
    /// # Panics
    ///
    /// Panics if `entry` belongs to a different list whose span lies
    /// outside this list's arena.
    #[must_use]
    pub fn common_neighbors(&self, entry: &SimilarityEntry) -> &[VertexId] {
        &self.common[entry.span()]
    }

    /// Number of entries (the paper's K₁).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if there are no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of incident edge pairs across all entries (the
    /// paper's K₂): the arena's length, since the runs tile it.
    #[must_use]
    pub fn incident_pair_count(&self) -> u64 {
        self.common.len() as u64
    }

    /// Returns `true` if the entries are sorted by non-increasing score.
    #[must_use]
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Sorts the entries into the list `L` of Algorithm 2: non-increasing
    /// score under [`f64::total_cmp`], ties broken by vertex pair for
    /// determinism. The arena is then copied into list order, so a sweep
    /// streams the common neighbors front to back.
    #[must_use]
    pub fn into_sorted(mut self) -> Self {
        if !self.sorted {
            self.entries.sort_unstable_by(|a, b| {
                b.score.total_cmp(&a.score).then_with(|| a.pair.cmp(&b.pair))
            });
            let mut common = Vec::with_capacity(self.common.len());
            for e in &mut self.entries {
                let span = e.span();
                // cast: the arena already fits u32 offsets (checked on push).
                e.start = common.len() as u32;
                common.extend_from_slice(&self.common[span]);
            }
            self.common = common;
            self.sorted = true;
        }
        self
    }

    /// Looks up the entry for a vertex pair (linear scan; intended for
    /// tests and small graphs).
    #[must_use]
    pub fn find(&self, pair: VertexPair) -> Option<&SimilarityEntry> {
        self.entries.iter().find(|e| e.pair == pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// A list of `(a, b, score, common neighbors)` entries, in this order.
    fn list(entries: &[(usize, usize, f64, &[usize])]) -> PairSimilarities {
        let mut sims = PairSimilarities::default();
        for &(a, b, score, commons) in entries {
            sims.push(VertexPair::new(v(a), v(b)), score, commons.iter().map(|&c| v(c)));
        }
        sims
    }

    /// Every entry's run starts where the previous one ended, and the
    /// runs cover the whole arena.
    fn spans_tile_arena(sims: &PairSimilarities) -> bool {
        let mut end = 0;
        for e in sims.entries() {
            if e.span().start != end {
                return false;
            }
            end = e.span().end;
        }
        end == sims.common.len()
    }

    #[test]
    fn pair_canonicalizes() {
        let p = VertexPair::new(VertexId::new(9), VertexId::new(3));
        assert_eq!(p.first().index(), 3);
        assert_eq!(p.second().index(), 9);
        assert_eq!(p, VertexPair::new(VertexId::new(3), VertexId::new(9)));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_rejects_equal_vertices() {
        let _ = VertexPair::new(VertexId::new(1), VertexId::new(1));
    }

    #[test]
    fn entry_is_a_24_byte_record() {
        assert_eq!(std::mem::size_of::<SimilarityEntry>(), 24);
    }

    #[test]
    fn sorting_is_non_increasing_and_deterministic() {
        let sims = list(&[(0, 1, 0.5, &[2]), (2, 3, 0.9, &[4]), (0, 4, 0.5, &[1, 2])]);
        let sorted = sims.into_sorted();
        assert!(sorted.is_sorted());
        let scores: Vec<f64> = sorted.entries().iter().map(|e| e.score).collect();
        assert_eq!(scores, vec![0.9, 0.5, 0.5]);
        // tie broken by pair: (0,1) before (0,4)
        assert_eq!(sorted.entries()[1].pair, VertexPair::new(v(0), v(1)));
        // the arena follows the list order
        assert_eq!(sorted.common, vec![v(4), v(2), v(1), v(2)]);
        assert_eq!(sorted.common_neighbors(&sorted.entries()[2]), &[v(1), v(2)]);
    }

    #[test]
    fn pair_counts() {
        let sims = list(&[(0, 1, 0.5, &[2]), (0, 4, 0.5, &[1, 2, 3])]);
        assert_eq!(sims.len(), 2);
        assert_eq!(sims.incident_pair_count(), 4);
        assert_eq!(sims.entries()[1].pair_count(), 3);
        assert!(!sims.is_empty());
    }

    #[test]
    fn find_locates_pair() {
        let sims = list(&[(0, 1, 0.5, &[2])]);
        let p = VertexPair::new(VertexId::new(1), VertexId::new(0));
        assert!(sims.find(p).is_some());
        assert!(sims.find(VertexPair::new(VertexId::new(0), VertexId::new(2))).is_none());
    }

    #[test]
    fn into_sorted_orders_signed_zero_ties_by_total_cmp() {
        // 0.0 orders strictly before -0.0 under total_cmp, although the
        // two compare equal under `==`: the pair tie-break must not
        // apply here.
        let sorted = list(&[(0, 1, -0.0, &[2]), (2, 3, 0.0, &[4])]).into_sorted();
        let pairs: Vec<VertexPair> = sorted.entries().iter().map(|e| e.pair).collect();
        assert_eq!(pairs, vec![VertexPair::new(v(2), v(3)), VertexPair::new(v(0), v(1))]);
        assert_eq!(sorted.common_neighbors(&sorted.entries()[1]), &[v(2)]);
    }

    #[test]
    fn concat_rebases_each_part() {
        let a = list(&[(0, 1, 0.5, &[2, 3])]);
        let b = list(&[(4, 5, 0.7, &[6]), (4, 6, 0.1, &[5, 7])]);
        let joined = PairSimilarities::concat(vec![a, PairSimilarities::default(), b]);
        assert_eq!(joined, list(&[(0, 1, 0.5, &[2, 3]), (4, 5, 0.7, &[6]), (4, 6, 0.1, &[5, 7])]));
        assert!(spans_tile_arena(&joined));
    }

    #[test]
    fn parts_round_trip_and_reject_untiled_spans() {
        let sims = list(&[(0, 1, 0.5, &[2]), (0, 4, 0.5, &[1, 2, 3])]);
        let (entries, common) = sims.clone().into_parts();
        assert_eq!(PairSimilarities::from_parts(entries.clone(), common.clone()), sims);
        let swapped = vec![entries[1], entries[0]];
        let r = std::panic::catch_unwind(|| PairSimilarities::from_parts(swapped, common));
        assert!(r.is_err(), "runs out of entry order must be rejected");
        let short = std::panic::catch_unwind(|| PairSimilarities::from_parts(entries, vec![v(2)]));
        assert!(short.is_err(), "runs past the arena must be rejected");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn into_sorted_keeps_every_pairs_common_neighbors(
            raw in proptest::collection::vec((0usize..40, 1usize..40, 0usize..6, 1usize..6), 0..80),
        ) {
            // Scores from a small palette, so ties (signed zeros too)
            // are frequent; pairs are unique, as in map `M`.
            let palette = [1.0, 0.5, 0.25, 0.0, -0.0, 0.5 + 1e-12];
            let mut seen = std::collections::HashSet::new();
            let mut sims = PairSimilarities::default();
            for &(a, gap, s, k) in &raw {
                let pair = VertexPair::new(v(a), v(a + gap));
                if seen.insert(pair) {
                    sims.push(pair, palette[s], (0..k).map(|c| v(3 * c + a % 3)));
                }
            }
            let before = sims.clone();
            let sorted = sims.into_sorted();
            prop_assert_eq!(sorted.len(), before.len());
            prop_assert_eq!(sorted.incident_pair_count(), before.incident_pair_count());
            prop_assert!(spans_tile_arena(&sorted));
            for w in sorted.entries().windows(2) {
                let order = w[1].score.total_cmp(&w[0].score).then_with(|| w[0].pair.cmp(&w[1].pair));
                prop_assert!(order == std::cmp::Ordering::Less, "{:?} before {:?}", w[0], w[1]);
            }
            for e in sorted.entries() {
                let old = before.find(e.pair).expect("sorting keeps every pair");
                prop_assert_eq!(e.score.to_bits(), old.score.to_bits());
                prop_assert_eq!(sorted.common_neighbors(e), before.common_neighbors(old));
            }
        }
    }

    #[test]
    fn display_pair() {
        let p = VertexPair::new(VertexId::new(1), VertexId::new(0));
        assert_eq!(p.to_string(), "(v0, v1)");
    }
}
