//! Property tests on dendrogram invariants: cuts are successive
//! coarsenings, exports are well-formed, and density bookkeeping is
//! exact — the merge-forest summary's profile is bit-identical to a
//! replay that keeps every cluster's vertex set, and its per-node counts
//! are the communities' own.

use std::collections::{HashMap, HashSet};

use linkclust::core::dendrogram::{DensityCut, MergeForest};
use linkclust::core::export::{to_ascii_tree, to_newick};
use linkclust::core::sweep::SweepOutput;
use linkclust::core::unionfind::UnionFind;
use linkclust::graph::generate::{
    barabasi_albert, complete, erdos_renyi, gnm, k_regular, lfr_like, overlapping_planted,
    overlapping_planted_with_mixing, path, planted_partition, ring, star, watts_strogatz,
    WeightMode,
};
use linkclust::{
    compute_similarities, partition_density, sweep, CoarseConfig, Dendrogram, EdgeId, EdgeOrder,
    GraphBuilder, GraphView, LinkClustering, LinkCommunities, SweepConfig, WeightedGraph,
};
use proptest::prelude::*;

/// One cluster's term `m_c · D_c` of the partition-density sum.
fn density_term(m_c: u64, n_c: usize) -> f64 {
    if n_c <= 2 {
        return 0.0;
    }
    let m = m_c as f64;
    let n = n_c as f64;
    m * (m - (n - 1.0)) / ((n - 2.0) * (n - 1.0))
}

/// The partition-density profile replayed with one vertex hash set per
/// cluster, merged small-to-large, reading slot `s` as edge
/// `edge_of_slot[s]`: the oracle the merge-forest replay must match bit
/// for bit.
fn hash_set_profile<G: GraphView + ?Sized>(
    d: &Dendrogram,
    g: &G,
    edge_of_slot: &[usize],
) -> Vec<DensityCut> {
    let m = d.edge_count();
    let m_total = m as f64;
    let mut edge_counts: Vec<u64> = vec![1; m];
    let mut vertex_sets: Vec<HashSet<u32>> = (0..m)
        .map(|s| {
            let (a, b) = g.edge_endpoints(EdgeId::new(edge_of_slot[s]));
            [u32::from(a), u32::from(b)].into_iter().collect()
        })
        .collect();
    let mut uf = UnionFind::new(m);
    let mut sum = 0.0;
    let mut profile = Vec::new();
    let merges = d.merges();
    let mut i = 0;
    while i < merges.len() {
        let level = merges[i].level;
        while i < merges.len() && merges[i].level == level {
            let rec = merges[i];
            i += 1;
            let ra = uf.find(rec.left as usize) as usize;
            let rb = uf.find(rec.right as usize) as usize;
            sum -= density_term(edge_counts[ra], vertex_sets[ra].len());
            sum -= density_term(edge_counts[rb], vertex_sets[rb].len());
            uf.union(ra, rb);
            let root = uf.find(ra) as usize;
            let other = if root == ra { rb } else { ra };
            edge_counts[root] = edge_counts[ra] + edge_counts[rb];
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
        profile.push(DensityCut { level, density: 2.0 / m_total * sum, cluster_count: m - i });
    }
    profile
}

/// The edge in each slot of `out`.
fn edge_of_slot(out: &SweepOutput) -> Vec<usize> {
    let mut edges = vec![0; out.slot_of_edge().len()];
    for (e, &s) in out.slot_of_edge().iter().enumerate() {
        edges[s as usize] = e;
    }
    edges
}

fn assert_profiles_identical(what: &str, ours: &[DensityCut], oracle: &[DensityCut]) {
    assert_eq!(ours.len(), oracle.len(), "{what}: profile length");
    for (j, (a, b)) in ours.iter().zip(oracle).enumerate() {
        assert_eq!(a.level, b.level, "{what}: point {j} level");
        assert_eq!(a.cluster_count, b.cluster_count, "{what}: point {j} cluster count");
        assert_eq!(a.density.to_bits(), b.density.to_bits(), "{what}: point {j} density");
    }
}

/// One graph of every generator family in `graph::generate`, plus a
/// unit-weight one whose tied scores give coarse levels many merges.
fn families() -> Vec<(&'static str, WeightedGraph)> {
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    vec![
        ("complete", complete(12, w, 1)),
        ("erdos_renyi", erdos_renyi(60, 0.1, w, 2)),
        ("gnm", gnm(80, 320, w, 3)),
        ("gnm_unit", gnm(60, 240, WeightMode::Unit, 4)),
        ("k_regular", k_regular(40, 4, w, 5)),
        ("barabasi_albert", barabasi_albert(80, 3, w, 6)),
        ("planted_partition", planted_partition(4, 10, 0.7, 0.05, 7).graph),
        ("lfr_like", lfr_like(150, 8, 0.2, 8).graph),
        ("overlapping_planted", overlapping_planted(4, 8, 2, 9).graph),
        (
            "overlapping_planted_with_mixing",
            overlapping_planted_with_mixing(4, 8, 2, 0.3, 10).graph,
        ),
        ("ring", ring(30, w, 11)),
        ("watts_strogatz", watts_strogatz(60, 4, 0.2, w, 12)),
        ("path", path(20, w, 13)),
        ("star", star(15, w, 14)),
    ]
}

/// The fine, coarse, `min_similarity`-truncated, shuffled-order and
/// shuffled coarse sweep outputs of `g`. The truncation keeps the merges scoring at
/// least the median merge score, so a component holds several trees.
fn outputs(g: &WeightedGraph) -> Vec<(&'static str, SweepOutput)> {
    let fine = LinkClustering::new().run(g).expect("default config").output().clone();
    let scores = fine.merge_scores();
    let median = scores.get(scores.len() / 2).copied().unwrap_or(0.0);
    let coarse_cfg = CoarseConfig::builder().phi(4).build().expect("valid coarse config");
    let coarse = LinkClustering::new().run_coarse(g, coarse_cfg).expect("valid config");
    let sims = compute_similarities(g).into_sorted();
    let truncated =
        sweep(g, &sims, SweepConfig { min_similarity: Some(median), ..SweepConfig::default() });
    let shuffled = LinkClustering::new().edge_order(EdgeOrder::Shuffled { seed: 3 });
    let coarse_shuffled = shuffled.run_coarse(g, coarse_cfg).expect("valid config");
    let shuffled = shuffled.run(g).expect("default config").output().clone();
    vec![
        ("fine", fine),
        ("coarse", coarse.output().clone()),
        ("truncated", truncated),
        ("shuffled", shuffled),
        ("coarse_shuffled", coarse_shuffled.output().clone()),
    ]
}

#[test]
fn merge_forest_profile_is_the_hash_set_replay() {
    for (family, g) in families() {
        for (kind, out) in outputs(&g) {
            let what = format!("{family}/{kind}");
            let oracle = hash_set_profile(out.dendrogram(), &g, &edge_of_slot(&out));
            assert_profiles_identical(&what, &out.density_profile(&g), &oracle);
            if !kind.ends_with("shuffled") {
                // Insertion order: slot s holds edge s.
                assert_profiles_identical(&what, &out.dendrogram().density_profile(&g), &oracle);
            }
            let best = out.best_density_cut(&g).expect("every family has edges");
            assert_eq!(Some(best), DensityCut::best_of(g.edge_count(), &oracle), "{what}");
        }
    }
}

#[test]
fn edgeless_and_one_edge_graphs_have_empty_profiles() {
    let edgeless = GraphBuilder::new().build();
    let out = LinkClustering::new().run(&edgeless).expect("default config");
    assert!(out.output().density_profile(&edgeless).is_empty());
    assert!(out.dendrogram().density_profile(&edgeless).is_empty());
    assert_eq!(out.output().best_density_cut(&edgeless), None);

    let one = GraphBuilder::from_edges(2, &[(0, 1, 1.0)]).expect("valid edge").build();
    let out = LinkClustering::new().run(&one).expect("default config");
    assert!(out.output().density_profile(&one).is_empty());
    assert_eq!(hash_set_profile(out.dendrogram(), &one, &[0]), vec![]);
    let cut = out.output().best_density_cut(&one).expect("one edge");
    assert_eq!(cut, DensityCut { level: 0, density: 0.0, cluster_count: 1 });
    let forest = out.output().merge_forest(&one);
    assert_eq!((forest.node_count(), forest.vertex_count(0)), (1, 2));
}

/// Every cluster's edge and vertex count in the summary equals the
/// `LinkCommunities` of the partition at that level, sampled across the
/// dendrogram of every output kind.
#[test]
fn per_node_counts_are_the_communities_counts() {
    for (family, g) in families() {
        for (kind, out) in outputs(&g) {
            let forest: MergeForest = out.merge_forest(&g);
            let d = out.dendrogram();
            let m = d.edge_count();
            let top = d.levels();
            for level in [0, top / 4, top / 2, 3 * top / 4, top] {
                let what = format!("{family}/{kind} level {level}");
                let comms =
                    LinkCommunities::from_edge_labels(&g, &out.edge_assignments_at_level(level));
                let expected: HashMap<u32, (u64, u64)> = comms
                    .communities()
                    .iter()
                    .map(|c| (c.label, (c.edge_count() as u64, c.vertex_count() as u64)))
                    .collect();
                let merged = d.merges().partition_point(|r| r.level <= level);
                let mut seen = 0;
                for v in forest.clusters_after(merged) {
                    let label = if v < m { v as u32 } else { d.merges()[v - m].into };
                    let counts = (forest.edge_count(v), forest.vertex_count(v));
                    assert_eq!(Some(&counts), expected.get(&label), "{what}: cluster {label}");
                    seen += 1;
                }
                assert_eq!(seen, expected.len(), "{what}: cluster count");
            }
        }
    }
}

/// A shuffled sweep merges the same clusters in the same order as the
/// insertion-order one; only the labels move. So its profile, read
/// through its slot map, is the insertion run's bit for bit, and its
/// best cut scores its own labels.
#[test]
fn shuffled_order_best_cut_reads_the_slot_map() {
    for seed in 0..5 {
        let g = lfr_like(300, 8, 0.2, seed).graph;
        let inserted = LinkClustering::new().run(&g).expect("default config");
        let shuffled = LinkClustering::new()
            .edge_order(EdgeOrder::Shuffled { seed: 11 + seed })
            .run(&g)
            .expect("default config");
        let what = format!("lfr_like seed {seed}");
        assert_profiles_identical(
            &what,
            &shuffled.output().density_profile(&g),
            &inserted.output().density_profile(&g),
        );
        let cut = shuffled.output().best_density_cut(&g).expect("graph has edges");
        let labels = shuffled.output().edge_assignments_at_level(cut.level);
        let direct = partition_density(&g, &labels);
        assert!((cut.density - direct).abs() < 1e-9, "{what}: {} vs {direct}", cut.density);
    }
}

/// The facade's result reads the slot map too: a shuffled run's best
/// cut is the insertion run's level, cluster count and density bits.
#[test]
fn facade_best_cut_holds_under_a_shuffled_order() {
    for seed in 0..5 {
        let g = lfr_like(300, 8, 0.2, seed).graph;
        let inserted = LinkClustering::new().run(&g).expect("default config");
        let shuffled = LinkClustering::new()
            .edge_order(EdgeOrder::Shuffled { seed: 11 + seed })
            .run(&g)
            .expect("default config");
        let a = inserted.best_density_cut(&g).expect("graph has edges");
        let b = shuffled.best_density_cut(&g).expect("graph has edges");
        let what = format!("lfr_like seed {seed}");
        assert_eq!((a.level, a.cluster_count), (b.level, b.cluster_count), "{what}");
        assert_eq!(a.density.to_bits(), b.density.to_bits(), "{what}");
        assert_profiles_identical(
            &what,
            &shuffled.density_profile(&g),
            &inserted.density_profile(&g),
        );
    }
}

fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (4usize..22, 0u64..400).prop_map(|(n, seed)| {
        let m = n * (n - 1) / 3;
        gnm(n, m, WeightMode::Uniform { lo: 0.1, hi: 2.5 }, seed)
    })
}

/// Does `coarse` merge every cluster of `fine` into a single label?
fn is_coarsening(fine: &[u32], coarse: &[u32]) -> bool {
    let mut map: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    fine.iter().zip(coarse).all(|(&f, &c)| *map.entry(f).or_insert(c) == c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn successive_levels_are_coarsenings(g in arb_graph()) {
        let sims = compute_similarities(&g).into_sorted();
        let out = sweep(&g, &sims, SweepConfig::default());
        let d = out.dendrogram();
        let mut prev = d.assignments_at_level(0);
        for level in 1..=d.levels() {
            let cur = d.assignments_at_level(level);
            prop_assert!(is_coarsening(&prev, &cur), "level {level} splits a cluster");
            prev = cur;
        }
    }

    #[test]
    fn cluster_count_matches_distinct_labels(g in arb_graph()) {
        let sims = compute_similarities(&g).into_sorted();
        let d = sweep(&g, &sims, SweepConfig::default()).into_dendrogram();
        for level in [0, d.levels() / 2, d.levels()] {
            let labels = d.assignments_at_level(level);
            let distinct: std::collections::HashSet<u32> = labels.iter().copied().collect();
            prop_assert_eq!(d.cluster_count_at_level(level), distinct.len());
        }
    }

    #[test]
    fn best_cut_density_is_maximal_over_levels(g in arb_graph()) {
        let sims = compute_similarities(&g).into_sorted();
        let out = sweep(&g, &sims, SweepConfig::default());
        let d = out.dendrogram();
        if g.edge_count() == 0 {
            return Ok(());
        }
        let cut = d.best_density_cut(&g).expect("non-empty");
        // No sampled level beats the chosen cut.
        for level in 0..=d.levels() {
            let density = partition_density(&g, &d.assignments_at_level(level));
            prop_assert!(
                density <= cut.density + 1e-9,
                "level {level} density {density} beats cut {}",
                cut.density
            );
        }
    }

    #[test]
    fn exports_are_well_formed(g in arb_graph()) {
        let sims = compute_similarities(&g).into_sorted();
        let d = sweep(&g, &sims, SweepConfig::default()).into_dendrogram();
        let newick = to_newick(&d).unwrap();
        prop_assert!(newick.ends_with(';'));
        let open = newick.chars().filter(|&c| c == '(').count();
        let close = newick.chars().filter(|&c| c == ')').count();
        prop_assert_eq!(open, close);
        let tree = to_ascii_tree(&d).unwrap();
        // Every leaf appears exactly once in the ASCII tree.
        let leaf_count = tree.lines().filter(|l| l.trim_start_matches(['|', '`', '-', ' ']).starts_with('e')).count();
        prop_assert_eq!(leaf_count, g.edge_count());
    }

    #[test]
    fn labels_use_minimum_edge_convention(g in arb_graph()) {
        // Theorem 1: the cluster id of edge i is min F(i) — i.e. each
        // label equals the smallest edge index in its cluster.
        let sims = compute_similarities(&g).into_sorted();
        let out = sweep(&g, &sims, SweepConfig::default());
        let labels = out.dendrogram().final_assignments();
        let mut min_of: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for (i, &l) in labels.iter().enumerate() {
            let e = min_of.entry(l).or_insert(i as u32);
            *e = (*e).min(i as u32);
        }
        for (&label, &min_member) in &min_of {
            prop_assert_eq!(label, min_member);
        }
    }
}
