//! Exhaustive verification on *every* graph with up to 5 vertices:
//! the optimized sweep, both baselines, and the brute-force reference
//! must agree on all 2¹⁰ = 1,024 edge subsets (and all 2⁶ on 4
//! vertices with a different weight pattern). No sampling, no seeds —
//! total coverage of the small-graph space, including every edgeless,
//! disconnected and isolated-vertex case the engines' stop rule must
//! get right.

use linkclust::core::reference::{canonical_labels, single_linkage_at_threshold};
use linkclust::core::sweep::SweepOutput;
use linkclust::{
    compute_similarities, sweep, GraphBuilder, LinkClustering, MstClustering, NbmClustering,
    SweepConfig, WeightedGraph,
};

fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            out.push((i, j));
        }
    }
    out
}

/// Builds the graph for a bitmask over the pair list, with weights
/// varying by pair index so similarity ties are broken.
fn graph_for_mask(n: usize, pairs: &[(usize, usize)], mask: u32, unit: bool) -> WeightedGraph {
    let mut b = GraphBuilder::with_vertices(n);
    for (k, &(i, j)) in pairs.iter().enumerate() {
        if mask & (1 << k) != 0 {
            let w = if unit { 1.0 } else { 0.5 + 0.25 * (k as f64) };
            b.add_edge(linkclust::VertexId::new(i), linkclust::VertexId::new(j), w)
                .expect("enumerated edges are valid");
        }
    }
    b.build()
}

fn canon(labels: &[u32]) -> Vec<usize> {
    canonical_labels(&labels.iter().map(|&x| x as usize).collect::<Vec<_>>())
}

fn score_bits(output: &SweepOutput) -> Vec<u64> {
    output.merge_scores().iter().map(|s| s.to_bits()).collect()
}

#[test]
fn all_five_vertex_graphs_agree() {
    let n = 5;
    let pairs = all_pairs(n);
    for mask in 0u32..(1 << pairs.len()) {
        let g = graph_for_mask(n, &pairs, mask, false);
        let sims = compute_similarities(&g);
        let sorted = sims.clone().into_sorted();
        let oracle = sweep(&g, &sorted, SweepConfig::default());
        let sweep_labels = canon(&oracle.edge_assignments());
        let nbm_labels = canon(&NbmClustering::new().run(&g, &sims).final_assignments());
        let mst_labels = canon(&MstClustering::new().run(&g, &sims).final_assignments());
        assert_eq!(sweep_labels, nbm_labels, "mask {mask:#b}");
        assert_eq!(nbm_labels, mst_labels, "mask {mask:#b}");
        // The facade's exact engines: the Kruskal pass at one thread,
        // the union-find engine above, both stopping once the merge
        // forest is complete.
        for threads in [1, 2, 3] {
            let result = LinkClustering::new().threads(threads).run(&g).expect("default config");
            let out = result.output();
            assert_eq!(out.dendrogram(), oracle.dendrogram(), "mask {mask:#b} t={threads}");
            assert_eq!(score_bits(out), score_bits(&oracle), "mask {mask:#b} t={threads}");
            assert_eq!(out.slot_of_edge(), oracle.slot_of_edge(), "mask {mask:#b} t={threads}");
        }
    }
}

#[test]
fn all_four_vertex_graphs_match_brute_force_thresholds() {
    let n = 4;
    let pairs = all_pairs(n);
    for mask in 0u32..(1 << pairs.len()) {
        let g = graph_for_mask(n, &pairs, mask, false);
        let sims = compute_similarities(&g).into_sorted();
        for theta in [0.2, 0.5, 0.8] {
            let got = canon(
                &sweep(
                    &g,
                    &sims,
                    SweepConfig { min_similarity: Some(theta), ..Default::default() },
                )
                .edge_assignments(),
            );
            let expected = canonical_labels(&single_linkage_at_threshold(&g, theta));
            assert_eq!(got, expected, "mask {mask:#b} theta {theta}");
        }
    }
}

#[test]
fn all_unit_weight_five_vertex_graphs_agree() {
    // Unit weights maximize similarity ties — the hardest case for
    // ordering-sensitive bugs.
    let n = 5;
    let pairs = all_pairs(n);
    for mask in 0u32..(1 << pairs.len()) {
        let g = graph_for_mask(n, &pairs, mask, true);
        let sims = compute_similarities(&g);
        let sorted = sims.clone().into_sorted();
        let sweep_labels = canon(&sweep(&g, &sorted, SweepConfig::default()).edge_assignments());
        let nbm_labels = canon(&NbmClustering::new().run(&g, &sims).final_assignments());
        assert_eq!(sweep_labels, nbm_labels, "mask {mask:#b}");
    }
}

#[test]
fn k_statistics_invariant_holds_exhaustively() {
    use linkclust::graph::stats::GraphStats;
    let n = 5;
    let pairs = all_pairs(n);
    for mask in 0u32..(1 << pairs.len()) {
        let g = graph_for_mask(n, &pairs, mask, true);
        let s = GraphStats::compute(&g);
        assert!(s.invariant_holds(), "mask {mask:#b}: {s:?}");
        let sims = compute_similarities(&g);
        assert_eq!(sims.len() as u64, s.common_neighbor_pairs, "mask {mask:#b}");
        assert_eq!(sims.incident_pair_count(), s.incident_edge_pairs, "mask {mask:#b}");
    }
}
