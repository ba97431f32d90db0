//! Single-linkage link clustering via maximum spanning tree (Gower &
//! Ross, 1969 — the paper's reference 9).
//!
//! Single-linkage hierarchical clustering is equivalent to processing the
//! pairwise similarities in non-increasing order and union-ing — i.e.
//! Kruskal's algorithm on the similarity graph. For link clustering the
//! similarity graph has one node per edge of `G` and one arc per incident
//! edge pair, so this costs O(K₂ log K₂) time and O(K₂) space: cheaper
//! than the O(|E|²) matrix baseline, but it must *expand* all K₂ pairs,
//! unlike the sweep which sorts only the K₁ vertex-pair entries.

use linkclust_graph::GraphView;

use crate::dendrogram::Dendrogram;
use crate::similarity::PairSimilarities;
use crate::sweep::KruskalMerges;

/// Configuration for the MST-based single-linkage baseline.
///
/// # Examples
///
/// ```
/// use linkclust_graph::GraphBuilder;
/// use linkclust_core::init::compute_similarities;
/// use linkclust_core::baseline::MstClustering;
///
/// let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)])?.build();
/// let sims = compute_similarities(&g);
/// let d = MstClustering::new().run(&g, &sims);
/// assert_eq!(d.final_cluster_count(), 1);
/// # Ok::<(), linkclust_graph::GraphError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct MstClustering {
    min_similarity: Option<f64>,
}

impl MstClustering {
    /// Creates the baseline (no threshold: all incident pairs processed).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Stops once pair similarities drop below `theta`.
    #[must_use]
    pub fn min_similarity(mut self, theta: f64) -> Self {
        self.min_similarity = Some(theta);
        self
    }

    /// Runs Kruskal over the expanded incident-pair list.
    ///
    /// # Panics
    ///
    /// As [`PairSimilarities::wedges`]: if `g`'s vertex or edge count
    /// differs from the graph the similarities were computed over.
    #[must_use]
    pub fn run<G: GraphView + ?Sized>(&self, g: &G, sims: &PairSimilarities) -> Dendrogram {
        let n = g.edge_count();
        // Expand every (vertex pair, common neighbor) into an edge pair.
        let mut arcs: Vec<(f64, u32, u32)> =
            Vec::with_capacity(sims.incident_pair_count() as usize);
        for entry in sims.entries() {
            for (_, e1, e2) in sims.wedges(g, entry) {
                arcs.push((entry.score, u32::from(e1), u32::from(e2)));
            }
        }
        arcs.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| (a.1, a.2).cmp(&(b.1, b.2))));

        let mut kruskal = KruskalMerges::new(n);
        for (s, e1, e2) in arcs {
            if let Some(theta) = self.min_similarity {
                if s < theta {
                    break;
                }
            }
            kruskal.offer(e1, e2, s);
        }
        let (merges, _scores) = kruskal.into_parts();
        Dendrogram::from_merges(n, merges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::NbmClustering;
    use crate::init::compute_similarities;
    use crate::reference::{canonical_labels, single_linkage_at_threshold};
    use crate::sweep::{sweep, SweepConfig};
    use linkclust_graph::generate::{gnm, WeightMode};

    fn canon(labels: &[u32]) -> Vec<usize> {
        canonical_labels(&labels.iter().map(|&x| x as usize).collect::<Vec<_>>())
    }

    #[test]
    fn matches_sweep_final_partition() {
        for seed in 0..5 {
            let g = gnm(15, 35, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let sims = compute_similarities(&g);
            let mst = MstClustering::new().run(&g, &sims);
            let sw = sweep(&g, &sims.clone().into_sorted(), SweepConfig::default());
            assert_eq!(canon(&mst.final_assignments()), canon(&sw.edge_assignments()));
        }
    }

    #[test]
    fn matches_nbm_threshold_partitions() {
        for seed in 0..3 {
            let g = gnm(12, 24, WeightMode::Uniform { lo: 0.3, hi: 1.5 }, seed);
            let sims = compute_similarities(&g);
            for theta in [0.3, 0.6] {
                let mst = MstClustering::new().min_similarity(theta).run(&g, &sims);
                let nbm = NbmClustering::new().min_similarity(theta).run(&g, &sims);
                assert_eq!(
                    canon(&mst.final_assignments()),
                    canon(&nbm.final_assignments()),
                    "seed {seed} theta {theta}"
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_thresholds() {
        let g = gnm(10, 22, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 8);
        let sims = compute_similarities(&g);
        for theta in [0.2, 0.5, 0.8] {
            let d = MstClustering::new().min_similarity(theta).run(&g, &sims);
            let expected = canonical_labels(&single_linkage_at_threshold(&g, theta));
            assert_eq!(canon(&d.final_assignments()), expected, "theta {theta}");
        }
    }

    #[test]
    fn merge_levels_are_sequential() {
        let g = gnm(14, 30, WeightMode::Unit, 4);
        let sims = compute_similarities(&g);
        let d = MstClustering::new().run(&g, &sims);
        for (i, m) in d.merges().iter().enumerate() {
            assert_eq!(m.level as usize, i + 1);
        }
    }
}
