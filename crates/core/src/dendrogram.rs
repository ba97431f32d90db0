//! Dendrograms over edge clusters.
//!
//! The sweeping phase emits merge events `r: c₁, c₂ → c_min` (Eq. 5).
//! A [`Dendrogram`] records the full sequence; levels are strictly
//! increasing for fine-grained clustering and shared by many merges for
//! coarse-grained clustering (§V). Cutting the dendrogram at a level
//! yields a flat partition of the edges — a set of *link communities* —
//! whose quality can be measured with the partition density of Ahn et al.

use linkclust_graph::{EdgeId, GraphView};

use crate::unionfind::UnionFind;

/// One merge event of Eq. 5: at `level`, clusters `left` and `right`
/// became `into = min(left, right)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MergeRecord {
    /// The dendrogram level `r` of the merge. Fine-grained sweeps
    /// increment the level for every merge; coarse-grained sweeps assign
    /// all merges of a chunk the same level.
    pub level: u32,
    /// Root of the first merged cluster.
    pub left: u32,
    /// Root of the second merged cluster.
    pub right: u32,
    /// The surviving cluster id, `min(left, right)`.
    pub into: u32,
}

/// The dendrogram produced by a sweep: the number of edges being
/// clustered plus the ordered merge sequence.
///
/// # Examples
///
/// ```
/// use linkclust_graph::GraphBuilder;
/// use linkclust_core::init::compute_similarities;
/// use linkclust_core::sweep::{sweep, SweepConfig};
///
/// let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])?.build();
/// let sorted = compute_similarities(&g).into_sorted();
/// let d = sweep(&g, &sorted, SweepConfig::default()).into_dendrogram();
/// // A unit triangle collapses into a single link community.
/// assert_eq!(d.final_cluster_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Dendrogram {
    edge_count: usize,
    merges: Vec<MergeRecord>,
}

impl Dendrogram {
    /// Creates a dendrogram from a merge sequence.
    ///
    /// # Panics
    ///
    /// Panics if levels are not non-decreasing or a merge references an
    /// out-of-range edge index.
    #[must_use]
    pub fn from_merges(edge_count: usize, merges: Vec<MergeRecord>) -> Self {
        let mut prev = 0;
        for m in &merges {
            assert!(m.level >= prev, "merge levels must be non-decreasing");
            assert!(
                (m.left as usize) < edge_count && (m.right as usize) < edge_count,
                "merge references edge beyond {edge_count}"
            );
            assert_eq!(m.into, m.left.min(m.right), "surviving id must be the smaller root");
            prev = m.level;
        }
        Dendrogram { edge_count, merges }
    }

    /// Number of edges being clustered.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of merge events.
    #[must_use]
    pub fn merge_count(&self) -> u64 {
        self.merges.len() as u64
    }

    /// The merge events, in order.
    #[must_use]
    pub fn merges(&self) -> &[MergeRecord] {
        &self.merges
    }

    /// The highest level (0 if no merges happened).
    #[must_use]
    pub fn levels(&self) -> u32 {
        self.merges.last().map_or(0, |m| m.level)
    }

    /// Cluster count after all merges: `|E| −` number of merges.
    #[must_use]
    pub fn final_cluster_count(&self) -> usize {
        self.edge_count - self.merges.len()
    }

    /// Edge-cluster assignments after replaying merges up to and
    /// including `level`. Labels follow the paper's convention: a
    /// cluster is named after its smallest edge index.
    #[must_use]
    pub fn assignments_at_level(&self, level: u32) -> Vec<u32> {
        let mut uf = UnionFind::new(self.edge_count);
        for m in &self.merges {
            if m.level > level {
                break;
            }
            uf.union(m.left as usize, m.right as usize);
        }
        uf.assignments()
    }

    /// Edge-cluster assignments after all merges.
    #[must_use]
    pub fn final_assignments(&self) -> Vec<u32> {
        self.assignments_at_level(u32::MAX)
    }

    /// Cluster count after replaying merges up to and including `level`.
    #[must_use]
    pub fn cluster_count_at_level(&self, level: u32) -> usize {
        let merged = self.merges.iter().take_while(|m| m.level <= level).count();
        self.edge_count - merged
    }

    /// For every distinct level, the cluster count after completing that
    /// level — the curve of Fig. 2(2).
    #[must_use]
    pub fn cluster_counts_per_level(&self) -> Vec<(u32, usize)> {
        let mut out = Vec::new();
        let mut remaining = self.edge_count;
        let mut i = 0;
        while i < self.merges.len() {
            let level = self.merges[i].level;
            while i < self.merges.len() && self.merges[i].level == level {
                remaining -= 1;
                i += 1;
            }
            out.push((level, remaining));
        }
        out
    }

    /// The partition-density profile: one point per distinct level, with
    /// the cluster count and partition density after completing that
    /// level, replaying the merge sequence once with incremental
    /// bookkeeping. The implicit starting point (level 0, every edge a
    /// singleton, density 0) is not included.
    ///
    /// [`best_density_cut`](Self::best_density_cut) is a fold over this
    /// profile, so the two are bit-identical by construction — the
    /// contract the serialized `DendrogramIndex` in `linkclust-serve`
    /// relies on.
    ///
    /// # Panics
    ///
    /// Panics if `g` does not have exactly `edge_count` edges.
    #[must_use]
    pub fn density_profile<G: GraphView + ?Sized>(&self, g: &G) -> Vec<DensityCut> {
        assert_eq!(g.edge_count(), self.edge_count, "dendrogram does not match graph");
        let m_total = self.edge_count as f64;
        // Per-cluster state, keyed by current root.
        let mut edge_counts: Vec<u64> = vec![1; self.edge_count];
        let mut vertex_sets: Vec<std::collections::HashSet<u32>> = (0..self.edge_count)
            .map(|e| {
                let (s, t) = g.edge_endpoints(EdgeId::new(e));
                [u32::from(s), u32::from(t)].into_iter().collect()
            })
            .collect();
        let mut uf = UnionFind::new(self.edge_count);
        // Σ m_c · D_c over clusters; singletons contribute 0.
        let mut sum = 0.0;
        let mut profile = Vec::new();
        let mut i = 0;
        while i < self.merges.len() {
            let level = self.merges[i].level;
            while i < self.merges.len() && self.merges[i].level == level {
                let m = self.merges[i];
                i += 1;
                let ra = uf.find(m.left as usize) as usize;
                let rb = uf.find(m.right as usize) as usize;
                debug_assert_ne!(ra, rb, "dendrogram merges distinct clusters");
                sum -= density_term(edge_counts[ra], vertex_sets[ra].len());
                sum -= density_term(edge_counts[rb], vertex_sets[rb].len());
                uf.union(ra, rb);
                let root = uf.find(ra) as usize;
                let other = if root == ra { rb } else { ra };
                edge_counts[root] = edge_counts[ra] + edge_counts[rb];
                // Merge the smaller vertex set into the larger, then move
                // the result to the surviving root.
                let (mut big, small) = if vertex_sets[ra].len() >= vertex_sets[rb].len() {
                    (std::mem::take(&mut vertex_sets[ra]), std::mem::take(&mut vertex_sets[rb]))
                } else {
                    (std::mem::take(&mut vertex_sets[rb]), std::mem::take(&mut vertex_sets[ra]))
                };
                big.extend(small);
                sum += density_term(edge_counts[root], big.len());
                vertex_sets[root] = big;
                edge_counts[other] = 0;
            }
            let density = 2.0 / m_total * sum;
            profile.push(DensityCut { level, density, cluster_count: self.edge_count - i });
        }
        profile
    }

    /// Finds the cut (level) maximizing partition density: a fold over
    /// [`density_profile`](Self::density_profile) preferring the
    /// *earliest* level on exact ties, starting from the implicit
    /// level-0 cut (all singletons, density 0).
    ///
    /// Returns `None` for an edgeless graph.
    ///
    /// # Panics
    ///
    /// Panics if `g` does not have exactly `edge_count` edges.
    #[must_use]
    pub fn best_density_cut<G: GraphView + ?Sized>(&self, g: &G) -> Option<DensityCut> {
        if self.edge_count == 0 {
            assert_eq!(g.edge_count(), 0, "dendrogram does not match graph");
            return None;
        }
        let mut best = DensityCut { level: 0, density: 0.0, cluster_count: self.edge_count };
        for point in self.density_profile(g) {
            if point.density > best.density {
                best = point;
            }
        }
        Some(best)
    }
}

/// A dendrogram cut selected by partition density.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DensityCut {
    /// The level to cut at.
    pub level: u32,
    /// The partition density at that level.
    pub density: f64,
    /// The number of link communities at that level.
    pub cluster_count: usize,
}

/// One cluster's contribution `m_c · D_c` to the partition-density sum,
/// where `D_c = (m_c − (n_c−1)) / ((n_c−2)(n_c−1)/2) / 2` following Ahn
/// et al.; clusters spanning ≤ 2 vertices contribute 0.
fn density_term(m_c: u64, n_c: usize) -> f64 {
    if n_c <= 2 {
        return 0.0;
    }
    let m = m_c as f64;
    let n = n_c as f64;
    m * (m - (n - 1.0)) / ((n - 2.0) * (n - 1.0))
}

/// Computes the partition density of an arbitrary edge labelling over
/// `g`: `D = (2/M) Σ_c m_c (m_c − n_c + 1) / ((n_c − 2)(n_c − 1))`.
///
/// # Panics
///
/// Panics if `labels.len() != g.edge_count()`.
#[must_use]
pub fn partition_density<G: GraphView + ?Sized>(g: &G, labels: &[u32]) -> f64 {
    assert_eq!(labels.len(), g.edge_count(), "one label per edge required");
    if labels.is_empty() {
        return 0.0;
    }
    use std::collections::{HashMap, HashSet};
    let mut edges_of: HashMap<u32, u64> = HashMap::new();
    let mut verts_of: HashMap<u32, HashSet<u32>> = HashMap::new();
    for (e, &l) in labels.iter().enumerate().map(|(e, l)| (EdgeId::new(e), l)) {
        let (source, target) = g.edge_endpoints(e);
        *edges_of.entry(l).or_default() += 1;
        let set = verts_of.entry(l).or_default();
        set.insert(source.into());
        set.insert(target.into());
    }
    let sum: f64 = edges_of.iter().map(|(l, &m_c)| density_term(m_c, verts_of[l].len())).sum();
    2.0 / g.edge_count() as f64 * sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_graph::GraphBuilder;

    fn rec(level: u32, left: u32, right: u32) -> MergeRecord {
        MergeRecord { level, left, right, into: left.min(right) }
    }

    #[test]
    fn counts_and_levels() {
        let d = Dendrogram::from_merges(5, vec![rec(1, 0, 1), rec(2, 2, 3), rec(3, 0, 2)]);
        assert_eq!(d.edge_count(), 5);
        assert_eq!(d.merge_count(), 3);
        assert_eq!(d.levels(), 3);
        assert_eq!(d.final_cluster_count(), 2);
    }

    #[test]
    fn assignments_replay_partially() {
        let d = Dendrogram::from_merges(4, vec![rec(1, 0, 1), rec(2, 2, 3), rec(3, 0, 2)]);
        assert_eq!(d.assignments_at_level(0), vec![0, 1, 2, 3]);
        assert_eq!(d.assignments_at_level(1), vec![0, 0, 2, 3]);
        assert_eq!(d.assignments_at_level(2), vec![0, 0, 2, 2]);
        assert_eq!(d.final_assignments(), vec![0, 0, 0, 0]);
        assert_eq!(d.cluster_count_at_level(2), 2);
    }

    #[test]
    fn coarse_levels_share_counts() {
        let d = Dendrogram::from_merges(5, vec![rec(1, 0, 1), rec(1, 2, 3), rec(2, 0, 2)]);
        assert_eq!(d.cluster_counts_per_level(), vec![(1, 3), (2, 2)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing_levels() {
        let _ = Dendrogram::from_merges(3, vec![rec(2, 0, 1), rec(1, 1, 2)]);
    }

    #[test]
    fn partition_density_of_clique_partition() {
        // Two disjoint unit triangles, each its own cluster: every
        // cluster has m_c = 3, n_c = 3 -> D_c term = 3*(3-2)/((1)(2)) = 1.5
        // D = 2/6 * (1.5 + 1.5) = 1.0 (maximal density: cliques).
        let g = GraphBuilder::from_edges(
            6,
            &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)],
        )
        .unwrap()
        .build();
        let labels = vec![0, 0, 0, 3, 3, 3];
        assert!((partition_density(&g, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partition_density_of_singletons_is_zero() {
        let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap().build();
        assert_eq!(partition_density(&g, &[0, 1]), 0.0);
    }

    #[test]
    fn tree_cluster_has_zero_density() {
        // A path of 3 edges as one cluster: m_c = 3, n_c = 4 ->
        // m_c - (n_c - 1) = 0.
        let g =
            GraphBuilder::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap().build();
        assert_eq!(partition_density(&g, &[0, 0, 0]), 0.0);
    }

    #[test]
    fn best_cut_prefers_triangles_over_everything_merged() {
        // Two triangles plus a bridge. Cutting before the bridge merge
        // gives density 1; merging everything dilutes it.
        let g = GraphBuilder::from_edges(
            6,
            &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)],
        )
        .unwrap()
        .build();
        let d = Dendrogram::from_merges(
            6,
            vec![rec(1, 0, 1), rec(2, 0, 2), rec(3, 3, 4), rec(4, 3, 5), rec(5, 0, 3)],
        );
        let cut = d.best_density_cut(&g).unwrap();
        assert_eq!(cut.level, 4);
        assert!((cut.density - 1.0).abs() < 1e-12);
        assert_eq!(cut.cluster_count, 2);
    }

    #[test]
    fn best_cut_density_matches_direct_computation() {
        use linkclust_graph::generate::{gnm, WeightMode};
        let g = gnm(12, 24, WeightMode::Unit, 3);
        // Arbitrary valid merge sequence: chain some edges together.
        let mut merges = Vec::new();
        let mut uf = UnionFind::new(24);
        let mut level = 0;
        for i in (1..20).step_by(2) {
            let (a, b) = (uf.min_of(i - 1), uf.min_of(i));
            if a != b {
                level += 1;
                merges.push(MergeRecord { level, left: a, right: b, into: a.min(b) });
                uf.union(a as usize, b as usize);
            }
        }
        let d = Dendrogram::from_merges(24, merges);
        let cut = d.best_density_cut(&g).unwrap();
        let direct = partition_density(&g, &d.assignments_at_level(cut.level));
        assert!((cut.density - direct).abs() < 1e-9);
    }

    #[test]
    fn empty_dendrogram() {
        let d = Dendrogram::from_merges(0, vec![]);
        assert_eq!(d.final_cluster_count(), 0);
        assert_eq!(d.levels(), 0);
        let g = GraphBuilder::new().build();
        assert!(d.best_density_cut(&g).is_none());
    }
}
