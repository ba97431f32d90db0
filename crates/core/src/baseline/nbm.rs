//! The standard O(n²) single-linkage clusterer (next-best-merge array).
//!
//! This is the comparison baseline of §VII-A: edges are generic data
//! points, the full n×n similarity matrix is materialized (n = |E|), and
//! clustering proceeds by n−1 best-merge steps, each maintained in O(n)
//! through the next-best-merge (NBM) array. Optimally efficient for the
//! *generic* single-linkage problem (Sibson's SLINK bound), but both time
//! and space are quadratic in the number of edges — the paper could not
//! run it past α = 0.001 on a 64 GB machine.

use linkclust_graph::{EdgeIndex, GraphView};

use crate::dendrogram::{Dendrogram, MergeRecord};
use crate::similarity::PairSimilarities;
use crate::unionfind::UnionFind;

/// Configuration for the standard single-linkage baseline.
///
/// # Examples
///
/// ```
/// use linkclust_graph::GraphBuilder;
/// use linkclust_core::init::compute_similarities;
/// use linkclust_core::baseline::NbmClustering;
///
/// let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)])?.build();
/// let sims = compute_similarities(&g);
/// let d = NbmClustering::new().run(&g, &sims);
/// assert_eq!(d.merge_count(), 1);
/// # Ok::<(), linkclust_graph::GraphError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NbmClustering {
    min_similarity: f64,
}

impl Default for NbmClustering {
    fn default() -> Self {
        // Merging at similarity 0 would join non-incident edges, which
        // the sweep never does; stop strictly above zero by default.
        NbmClustering { min_similarity: f64::MIN_POSITIVE }
    }
}

impl NbmClustering {
    /// Creates the baseline with the default stop threshold (merges only
    /// strictly positive similarities, matching the sweep's final
    /// partition).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Stops merging when the best available similarity drops below
    /// `theta`.
    #[must_use]
    pub fn min_similarity(mut self, theta: f64) -> Self {
        self.min_similarity = theta;
        self
    }

    /// Runs the O(|E|²) clustering. `sims` may be sorted or not (the
    /// matrix is filled either way).
    ///
    /// # Panics
    ///
    /// Panics if `sims` references vertices without a connecting edge in
    /// `g`.
    #[must_use]
    pub fn run<G: GraphView + ?Sized>(&self, g: &G, sims: &PairSimilarities) -> Dendrogram {
        let n = g.edge_count();
        if n == 0 {
            return Dendrogram::from_merges(0, Vec::new());
        }
        let index = EdgeIndex::for_graph(g);
        // The quadratic similarity matrix — deliberately materialized in
        // full; its footprint is the subject of Fig. 4(3).
        let mut sim = vec![0.0f64; n * n];
        for entry in sims.entries() {
            let (vi, vj) = (entry.pair.first(), entry.pair.second());
            for &vk in sims.common_neighbors(entry) {
                let e1 = index.edge_between(vi, vk).expect("common neighbor implies edge").index();
                let e2 = index.edge_between(vj, vk).expect("common neighbor implies edge").index();
                sim[e1 * n + e2] = entry.score;
                sim[e2 * n + e1] = entry.score;
            }
        }

        let mut active = vec![true; n];
        // nbm[i] = (best similarity from i to any other active cluster,
        //           that cluster's index)
        let mut nbm: Vec<(f64, usize)> = (0..n).map(|i| best_of_row(&sim, n, i, &active)).collect();
        let mut uf = UnionFind::new(n);
        let mut merges = Vec::new();

        for level in 1..n as u32 {
            // Find the globally best merge via the NBM array.
            let mut best = (f64::NEG_INFINITY, usize::MAX);
            for i in 0..n {
                if active[i] && nbm[i].0 > best.0 {
                    best = (nbm[i].0, i);
                }
            }
            let (s, i1) = best;
            if s < self.min_similarity || i1 == usize::MAX {
                break;
            }
            let i2 = nbm[i1].1;
            debug_assert!(active[i2]);

            let (c1, c2) = (uf.min_of(i1), uf.min_of(i2));
            merges.push(MergeRecord { level, left: c1, right: c2, into: c1.min(c2) });
            uf.union(i1, i2);

            // Single-link combination: row/column i1 absorbs the max.
            active[i2] = false;
            for j in 0..n {
                if active[j] && j != i1 {
                    let merged = sim[i1 * n + j].max(sim[i2 * n + j]);
                    sim[i1 * n + j] = merged;
                    sim[j * n + i1] = merged;
                }
            }
            nbm[i1] = best_of_row(&sim, n, i1, &active);
            // Single-link NBM maintenance: rows that pointed at i2 now
            // point at i1 with the same similarity; rows that pointed at
            // i1 keep pointing there (their similarity can only grow).
            for j in 0..n {
                if !active[j] || j == i1 {
                    continue;
                }
                if nbm[j].1 == i2 {
                    nbm[j].1 = i1;
                    debug_assert!((sim[j * n + i1] - nbm[j].0).abs() < 1e-12);
                } else if nbm[j].1 == i1 {
                    nbm[j].0 = sim[j * n + i1];
                }
            }
        }
        Dendrogram::from_merges(n, merges)
    }
}

fn best_of_row(sim: &[f64], n: usize, i: usize, active: &[bool]) -> (f64, usize) {
    let mut best = (f64::NEG_INFINITY, usize::MAX);
    for j in 0..n {
        if j != i && active[j] && sim[i * n + j] > best.0 {
            best = (sim[i * n + j], j);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::compute_similarities;
    use crate::reference::{canonical_labels, single_linkage_at_threshold};
    use crate::sweep::{sweep, SweepConfig};
    use linkclust_graph::generate::{gnm, WeightMode};
    use linkclust_graph::GraphBuilder;

    #[test]
    fn path_graph_single_merge() {
        let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap().build();
        let sims = compute_similarities(&g);
        let d = NbmClustering::new().run(&g, &sims);
        assert_eq!(d.merge_count(), 1);
        assert_eq!(d.final_cluster_count(), 1);
    }

    #[test]
    fn final_partition_matches_sweep() {
        for seed in 0..5 {
            let g = gnm(15, 35, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let sims = compute_similarities(&g);
            let nbm_labels = NbmClustering::new().run(&g, &sims).final_assignments();
            let sweep_labels =
                sweep(&g, &sims.clone().into_sorted(), SweepConfig::default()).edge_assignments();
            let a: Vec<usize> = nbm_labels.iter().map(|&x| x as usize).collect();
            let b: Vec<usize> = sweep_labels.iter().map(|&x| x as usize).collect();
            assert_eq!(canonical_labels(&a), canonical_labels(&b), "seed {seed}");
        }
    }

    #[test]
    fn threshold_partitions_match_brute_force() {
        for seed in 0..4 {
            let g = gnm(12, 26, WeightMode::Uniform { lo: 0.3, hi: 1.8 }, seed);
            let sims = compute_similarities(&g);
            for theta in [0.25, 0.5, 0.75] {
                let d = NbmClustering::new().min_similarity(theta).run(&g, &sims);
                let got: Vec<usize> = d.final_assignments().iter().map(|&x| x as usize).collect();
                let expected = canonical_labels(&single_linkage_at_threshold(&g, theta));
                assert_eq!(canonical_labels(&got), expected, "seed {seed} theta {theta}");
            }
        }
    }

    #[test]
    fn merge_similarities_are_non_increasing() {
        // Single-linkage dendrograms merge in non-increasing similarity
        // order; verify by replaying against the brute-force similarity.
        use crate::reference::edge_similarity;
        use linkclust_graph::EdgeId;
        let g = gnm(10, 20, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 11);
        let sims = compute_similarities(&g);
        let d = NbmClustering::new().run(&g, &sims);
        // Reconstruct each merge's similarity as the max edge-pair
        // similarity across the two clusters at merge time.
        let mut clusters: Vec<Vec<usize>> = (0..g.edge_count()).map(|i| vec![i]).collect();
        let mut where_is: Vec<usize> = (0..g.edge_count()).collect();
        let mut last = f64::INFINITY;
        for m in d.merges() {
            let (a, b) = (where_is[m.left as usize], where_is[m.right as usize]);
            let mut best: f64 = 0.0;
            for &x in &clusters[a] {
                for &y in &clusters[b] {
                    best = best.max(edge_similarity(&g, EdgeId::new(x), EdgeId::new(y)));
                }
            }
            assert!(best <= last + 1e-9, "merge similarity increased: {best} after {last}");
            last = best;
            let moved = std::mem::take(&mut clusters[b]);
            for &x in &moved {
                where_is[x] = a;
            }
            clusters[a].extend(moved);
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let sims = compute_similarities(&g);
        let d = NbmClustering::new().run(&g, &sims);
        assert_eq!(d.merge_count(), 0);
    }
}
