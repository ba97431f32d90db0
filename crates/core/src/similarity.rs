//! Similarity entries produced by the initialization phase.

use std::cmp::Ordering;

use linkclust_graph::{EdgeId, GraphView, Neighbor, VertexId};

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

/// One wedge `(vₖ, e_ik, e_jk)` of an entry `(vᵢ, vⱼ)`: a common
/// neighbor `vₖ` and the edges joining it to `vᵢ` and to `vⱼ`. Sweeping
/// the entry merges the clusters of those two edges.
pub type Wedge = (VertexId, EdgeId, EdgeId);

/// One entry of the sorted list `L`: a vertex pair, the Tanimoto
/// similarity shared by every wedge it induces, its wedge count, and its
/// first wedge.
///
/// For each common neighbor `vₖ` the edge pair `((vᵢ,vₖ), (vⱼ,vₖ))` has
/// similarity [`score`](SimilarityEntry::score): the paper's key
/// observation is that this value is independent of `vₖ`. The entry does
/// not list its common neighbors; [`PairSimilarities::wedges`] reads
/// them back from the graph.
///
/// A 32-byte `Copy` record that owns no heap memory: a list is one
/// allocation, whatever its length.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimilarityEntry {
    /// The vertex pair `(vᵢ, vⱼ)`.
    pub pair: VertexPair,
    /// The Tanimoto similarity `S(e_{ik}, e_{jk})` of Eq. 1.
    pub score: f64,
    /// Number of common neighbors (wedges).
    wedges: u32,
    /// The wedge of the smallest common neighbor.
    first: Wedge,
}

impl SimilarityEntry {
    /// An entry of `wedges` wedges, the first of which is `first`.
    pub(crate) fn new(pair: VertexPair, score: f64, wedges: u32, first: Wedge) -> Self {
        debug_assert!(wedges > 0, "an entry has at least one wedge");
        SimilarityEntry { pair, score, wedges, first }
    }

    /// The number of incident edge pairs (wedges) this entry stands for.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        // cast: u32 count to index, lossless on 32- and 64-bit.
        self.wedges as usize
    }

    /// The wedge of the entry's smallest common neighbor, as Phase I
    /// stored it.
    #[must_use]
    pub fn first_wedge(&self) -> Wedge {
        self.first
    }

    /// The order of `L` in Algorithm 2: non-increasing score under
    /// [`f64::total_cmp`], ties broken by ascending vertex pair. Pairs are
    /// unique in a list, so no two of its entries compare equal.
    #[inline]
    pub(crate) fn list_order(&self, other: &Self) -> Ordering {
        other.score.total_cmp(&self.score).then_with(|| self.pair.cmp(&other.pair))
    }
}

/// The wedges of one entry in ascending order of the common neighbor,
/// as [`PairSimilarities::wedges`] yields them: the stored first wedge of
/// a one-wedge entry, otherwise a merge of the sorted neighbor slabs
/// `N(vᵢ)` and `N(vⱼ)` that stops once the entry's wedges are found.
#[derive(Clone, Debug)]
pub struct Wedges<'g> {
    /// The stored wedge of a one-wedge entry, until yielded.
    stored: Option<Wedge>,
    /// Wedges the merge has yet to find.
    left: u32,
    /// The unread parts of `N(vᵢ)` and `N(vⱼ)`.
    i_slab: &'g [Neighbor],
    j_slab: &'g [Neighbor],
}

impl Iterator for Wedges<'_> {
    type Item = Wedge;

    #[inline]
    fn next(&mut self) -> Option<Wedge> {
        if let Some(w) = self.stored.take() {
            return Some(w);
        }
        while self.left > 0 {
            let (x, y) = (self.i_slab.first()?, self.j_slab.first()?);
            match x.vertex.cmp(&y.vertex) {
                Ordering::Less => self.i_slab = &self.i_slab[1..],
                Ordering::Greater => self.j_slab = &self.j_slab[1..],
                Ordering::Equal => {
                    self.i_slab = &self.i_slab[1..];
                    self.j_slab = &self.j_slab[1..];
                    self.left -= 1;
                    return Some((x.vertex, x.edge, y.edge));
                }
            }
        }
        None
    }
}

/// The output of the initialization phase: all vertex pairs with at least
/// one common neighbor, each with its similarity score — the materialized
/// map `M` of Algorithm 1, without its common-neighbor lists.
///
/// The list records the vertex and edge counts of the graph it was
/// computed over, and every reader of its wedges checks them.
///
/// Obtain one from [`init::compute_similarities`](crate::init::compute_similarities),
/// then sort it into the list `L` with [`into_sorted`](Self::into_sorted)
/// before sweeping.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PairSimilarities {
    entries: Vec<SimilarityEntry>,
    /// Σ of the entries' wedge counts (K₂).
    wedges: u64,
    /// `|V|` and `|E|` of the graph the entries describe.
    vertex_count: usize,
    edge_count: usize,
    sorted: bool,
}

impl PairSimilarities {
    /// An unsorted list of `entries`, in pair order, over a graph of
    /// `vertex_count` vertices and `edge_count` edges.
    pub(crate) fn from_entries(
        entries: Vec<SimilarityEntry>,
        vertex_count: usize,
        edge_count: usize,
    ) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].pair < w[1].pair), "entries in pair order");
        let wedges = entries.iter().map(|e| u64::from(e.wedges)).sum();
        PairSimilarities { entries, wedges, vertex_count, edge_count, sorted: false }
    }

    /// The entries, in unspecified order unless [`is_sorted`](Self::is_sorted).
    #[must_use]
    pub fn entries(&self) -> &[SimilarityEntry] {
        &self.entries
    }

    /// The entries, to reorder in place. The list counts as unsorted
    /// until [`mark_sorted`](Self::mark_sorted).
    pub(crate) fn entries_mut(&mut self) -> &mut [SimilarityEntry] {
        self.sorted = false;
        &mut self.entries
    }

    /// Records that the entries are in list order.
    pub(crate) fn mark_sorted(&mut self) {
        debug_assert!(self.entries.windows(2).all(|w| w[0].list_order(&w[1]) == Ordering::Less));
        self.sorted = true;
    }

    /// Checks that `g` is the graph this list was computed over, as far
    /// as its vertex and edge counts tell.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different vertex count or edge count.
    #[inline]
    pub(crate) fn check_graph<G: GraphView + ?Sized>(&self, g: &G) {
        assert!(
            g.vertex_count() == self.vertex_count && g.edge_count() == self.edge_count,
            "the similarity list was computed over a graph of {} vertices and {} edges, \
             not this one of {} and {}",
            self.vertex_count,
            self.edge_count,
            g.vertex_count(),
            g.edge_count()
        );
    }

    /// The wedges of `entry`, in ascending order of the common neighbor:
    /// for each common neighbor `vₖ`, the edges `(vᵢ, vₖ)` and
    /// `(vⱼ, vₖ)` whose clusters the sweep merges. A one-wedge entry
    /// yields its stored wedge; a longer one intersects `N(vᵢ)` and
    /// `N(vⱼ)` in `g`, in O(d(vᵢ) + d(vⱼ)).
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different vertex or edge count from the graph
    /// this list was computed over.
    /// Debug builds also panic if the stored first wedge's two edges do
    /// not join `vᵢ` and `vⱼ` to its common neighbor in `g`.
    ///
    /// # Examples
    ///
    /// ```
    /// use linkclust_graph::GraphBuilder;
    /// use linkclust_core::init::compute_similarities;
    ///
    /// // The triangle 0-1-2: the pair (0, 1) has the one common neighbor 2.
    /// let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])?.build();
    /// let sims = compute_similarities(&g);
    /// let wedges: Vec<_> = sims.wedges(&g, &sims.entries()[0]).collect();
    /// let (k, e_ik, e_jk) = wedges[0];
    /// assert_eq!((wedges.len(), k.index(), e_ik.index(), e_jk.index()), (1, 2, 2, 1));
    /// # Ok::<(), linkclust_graph::GraphError>(())
    /// ```
    #[inline]
    pub fn wedges<'g, G: GraphView + ?Sized>(
        &self,
        g: &'g G,
        entry: &SimilarityEntry,
    ) -> Wedges<'g> {
        self.check_graph(g);
        Self::wedges_in(g, entry)
    }

    /// [`wedges`](Self::wedges) for a caller that has already checked
    /// `g` against the list ([`check_graph`](Self::check_graph)).
    #[inline]
    pub(crate) fn wedges_in<'g, G: GraphView + ?Sized>(
        g: &'g G,
        entry: &SimilarityEntry,
    ) -> Wedges<'g> {
        let (vi, vj) = (entry.pair.first(), entry.pair.second());
        if cfg!(debug_assertions) {
            let (k, e_ik, e_jk) = entry.first;
            let canonical = |a: VertexId| if a < k { (a, k) } else { (k, a) };
            assert!(
                g.edge_endpoints(e_ik) == canonical(vi) && g.edge_endpoints(e_jk) == canonical(vj),
                "the stored wedge of {} does not join it to {k} in this graph",
                entry.pair
            );
        }
        if entry.wedges == 1 {
            Wedges { stored: Some(entry.first), left: 0, i_slab: &[], j_slab: &[] }
        } else {
            Wedges {
                stored: None,
                left: entry.wedges,
                i_slab: g.neighbors(vi),
                j_slab: g.neighbors(vj),
            }
        }
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
    /// paper's K₂): the sum of the wedge counts.
    #[must_use]
    pub fn incident_pair_count(&self) -> u64 {
        self.wedges
    }

    /// Returns `true` if the entries are sorted by non-increasing score.
    #[must_use]
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Sorts the entries into the list `L` of Algorithm 2: non-increasing
    /// score under [`f64::total_cmp`], ties broken by vertex pair for
    /// determinism.
    #[must_use]
    pub fn into_sorted(mut self) -> Self {
        if !self.sorted {
            self.entries.sort_unstable_by(SimilarityEntry::list_order);
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
    use crate::init::compute_similarities;
    use linkclust_graph::generate::{gnm, WeightMode};
    use linkclust_graph::GraphBuilder;
    use proptest::prelude::*;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// A list of `(a, b, score, wedges)` entries, in this order, over no
    /// graph in particular.
    fn list(entries: &[(usize, usize, f64, u32)]) -> PairSimilarities {
        let entries: Vec<SimilarityEntry> = entries
            .iter()
            .map(|&(a, b, score, wedges)| {
                let first = (v(a + b + 1), EdgeId::new(a), EdgeId::new(b));
                SimilarityEntry::new(VertexPair::new(v(a), v(b)), score, wedges, first)
            })
            .collect();
        let wedges = entries.iter().map(|e| u64::from(e.wedges)).sum();
        PairSimilarities { entries, wedges, ..Default::default() }
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
    fn entry_is_a_32_byte_record() {
        assert_eq!(std::mem::size_of::<SimilarityEntry>(), 32);
    }

    #[test]
    fn sorting_is_non_increasing_and_deterministic() {
        let sims = list(&[(0, 1, 0.5, 1), (2, 3, 0.9, 1), (0, 4, 0.5, 2)]);
        let sorted = sims.into_sorted();
        assert!(sorted.is_sorted());
        let scores: Vec<f64> = sorted.entries().iter().map(|e| e.score).collect();
        assert_eq!(scores, vec![0.9, 0.5, 0.5]);
        // tie broken by pair: (0,1) before (0,4)
        assert_eq!(sorted.entries()[1].pair, VertexPair::new(v(0), v(1)));
        assert_eq!(sorted.entries()[2].pair_count(), 2);
    }

    #[test]
    fn pair_counts() {
        let sims = list(&[(0, 1, 0.5, 1), (0, 4, 0.5, 3)]);
        assert_eq!(sims.len(), 2);
        assert_eq!(sims.incident_pair_count(), 4);
        assert_eq!(sims.entries()[1].pair_count(), 3);
        assert!(!sims.is_empty());
    }

    #[test]
    fn find_locates_pair() {
        let sims = list(&[(0, 1, 0.5, 1)]);
        let p = VertexPair::new(VertexId::new(1), VertexId::new(0));
        assert!(sims.find(p).is_some());
        assert!(sims.find(VertexPair::new(VertexId::new(0), VertexId::new(2))).is_none());
    }

    #[test]
    fn into_sorted_orders_signed_zero_ties_by_total_cmp() {
        // 0.0 orders strictly before -0.0 under total_cmp, although the
        // two compare equal under `==`: the pair tie-break must not
        // apply here.
        let sorted = list(&[(0, 1, -0.0, 1), (2, 3, 0.0, 1)]).into_sorted();
        let pairs: Vec<VertexPair> = sorted.entries().iter().map(|e| e.pair).collect();
        assert_eq!(pairs, vec![VertexPair::new(v(2), v(3)), VertexPair::new(v(0), v(1))]);
    }

    #[test]
    fn wedges_list_every_common_neighbor_with_its_edges() {
        // K4 minus the edge (0, 3): the pair (0, 3) shares 1 and 2.
        let g = GraphBuilder::from_edges(
            4,
            &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
        )
        .unwrap()
        .build();
        let sims = compute_similarities(&g);
        let e = sims.find(VertexPair::new(v(0), v(3))).expect("(0, 3) shares neighbors");
        let wedges: Vec<Wedge> = sims.wedges(&g, e).collect();
        let edge = |a, b| g.edge_between(v(a), v(b)).unwrap();
        assert_eq!(wedges, vec![(v(1), edge(0, 1), edge(3, 1)), (v(2), edge(0, 2), edge(3, 2))]);
        assert_eq!(e.first_wedge(), wedges[0]);
        assert_eq!(e.pair_count(), 2);
    }

    #[test]
    #[should_panic(expected = "computed over a graph of")]
    fn wedges_reject_another_graph() {
        let g = gnm(12, 30, WeightMode::Unit, 1);
        let sims = compute_similarities(&g);
        let other = gnm(12, 31, WeightMode::Unit, 1);
        let _ = sims.wedges(&other, &sims.entries()[0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn into_sorted_keeps_every_entry(
            raw in proptest::collection::vec((0usize..40, 1usize..40, 0usize..6, 1u32..6), 0..80),
        ) {
            // Scores from a small palette, so ties (signed zeros too)
            // are frequent; pairs are unique, as in map `M`.
            let palette = [1.0, 0.5, 0.25, 0.0, -0.0, 0.5 + 1e-12];
            let mut seen = std::collections::HashSet::new();
            let mut rows = Vec::new();
            for &(a, gap, s, k) in &raw {
                if seen.insert((a, a + gap)) {
                    rows.push((a, a + gap, palette[s], k));
                }
            }
            let before = list(&rows);
            let sorted = before.clone().into_sorted();
            prop_assert_eq!(sorted.len(), before.len());
            prop_assert_eq!(sorted.incident_pair_count(), before.incident_pair_count());
            for w in sorted.entries().windows(2) {
                let order = w[1].score.total_cmp(&w[0].score).then_with(|| w[0].pair.cmp(&w[1].pair));
                prop_assert!(order == Ordering::Less, "{:?} before {:?}", w[0], w[1]);
            }
            for e in sorted.entries() {
                let old = before.find(e.pair).expect("sorting keeps every pair");
                prop_assert_eq!(e, old);
            }
        }
    }

    #[test]
    fn display_pair() {
        let p = VertexPair::new(VertexId::new(1), VertexId::new(0));
        assert_eq!(p.to_string(), "(v0, v1)");
    }
}
