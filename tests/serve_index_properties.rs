//! Index/live equivalence: every query the serialized
//! [`DendrogramIndex`] answers must be **bit-identical** to the answer
//! computed from the live sweep output it froze — after a full
//! write→read round-trip, on both graph backends, under both edge
//! orders, including [`best_cut`](DendrogramIndex::best_cut) and top-k
//! tie-breaking. This is the contract that lets `linkclustd` serve a
//! reloaded index interchangeably with a fresh clustering run.

use std::collections::{BTreeMap, BTreeSet};

use linkclust::core::dendrogram::DensityCut;
use linkclust::graph::generate::{barabasi_albert, gnm, lfr_like, WeightMode};
use linkclust::serve::{DendrogramIndex, TopCommunity};
use linkclust::{CsrGraph, EdgeId, EdgeOrder, GraphView, LinkClustering, WeightedGraph};
use proptest::prelude::*;

/// One workload per generator family of the scale ladder.
fn workloads() -> Vec<(&'static str, WeightedGraph)> {
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    vec![
        ("gnm", gnm(60, 240, w, 7)),
        ("barabasi_albert", barabasi_albert(80, 4, w, 3)),
        ("lfr_like", lfr_like(120, 8, 0.2, 11).graph),
    ]
}

/// Clusters `g` under `order`, freezes the run into an index,
/// round-trips it through the serialized format, and returns the
/// reloaded copy plus the live sweep output it must agree with.
fn reloaded_index<G>(
    g: &G,
    order: EdgeOrder,
) -> (DendrogramIndex, linkclust::core::sweep::SweepOutput)
where
    G: GraphView + Clone + Send + Sync + 'static,
{
    let result = LinkClustering::new().threads(2).edge_order(order).run(g).expect("valid config");
    let index = DendrogramIndex::build(g, result.output()).expect("pipeline output is coherent");
    let mut bytes = Vec::new();
    index.write(&mut bytes).expect("vec write cannot fail");
    let reloaded = DendrogramIndex::read(bytes.as_slice()).expect("own output must reload");
    assert_eq!(index, reloaded, "round-trip changed the index");
    (reloaded, result.output().clone())
}

/// The thresholds worth probing: every distinct merge score (the exact
/// tie boundaries of the `>=`-cut), plus points below, between, and
/// above the score range.
fn probe_thetas(output: &linkclust::core::sweep::SweepOutput) -> Vec<f64> {
    let mut thetas = vec![0.0, 0.5, 1.0, 2.0];
    let scores = output.merge_scores();
    for (i, &s) in scores.iter().enumerate().step_by(scores.len().max(1).div_ceil(12)) {
        thetas.push(s);
        if let Some(&next) = scores.get(i + 1) {
            thetas.push(f64::midpoint(s, next));
        }
    }
    thetas
}

/// Expected vertex membership, computed from live labels and the graph.
fn live_vertex_labels<G: GraphView + ?Sized>(g: &G, labels: &[u32], v: usize) -> Vec<u32> {
    let mut out: BTreeSet<u32> = BTreeSet::new();
    for (e, &label) in labels.iter().enumerate() {
        let (s, t) = g.edge_endpoints(EdgeId::new(e));
        if s.index() == v || t.index() == v {
            out.insert(label);
        }
    }
    out.into_iter().collect()
}

/// Expected top-k, computed from live labels and the graph: edge count
/// descending, label ascending.
fn live_top_communities<G: GraphView + ?Sized>(
    g: &G,
    labels: &[u32],
    k: usize,
) -> Vec<TopCommunity> {
    let mut edges_of: BTreeMap<u32, u64> = BTreeMap::new();
    let mut verts_of: BTreeMap<u32, BTreeSet<usize>> = BTreeMap::new();
    for (e, &label) in labels.iter().enumerate() {
        let (s, t) = g.edge_endpoints(EdgeId::new(e));
        *edges_of.entry(label).or_default() += 1;
        let set = verts_of.entry(label).or_default();
        set.insert(s.index());
        set.insert(t.index());
    }
    let mut out: Vec<TopCommunity> = edges_of
        .into_iter()
        .map(|(label, edge_count)| TopCommunity {
            label,
            edge_count,
            vertex_count: verts_of[&label].len() as u64,
        })
        .collect();
    out.sort_by(|a, b| b.edge_count.cmp(&a.edge_count).then_with(|| a.label.cmp(&b.label)));
    out.truncate(k);
    out
}

fn assert_cut_matches(name: &str, a: Option<DensityCut>, b: Option<DensityCut>) {
    match (a, b) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.level, y.level, "{name}: best-cut level diverged");
            assert_eq!(x.cluster_count, y.cluster_count, "{name}: best-cut cluster count");
            assert_eq!(x.density.to_bits(), y.density.to_bits(), "{name}: best-cut density");
        }
        (x, y) => panic!("{name}: best cuts disagree on existence: {x:?} vs {y:?}"),
    }
}

/// The edge orders every equivalence check runs under: the slot of an
/// edge is its id, or a seeded permutation of the ids.
const ORDERS: [EdgeOrder; 2] = [EdgeOrder::Insertion, EdgeOrder::Shuffled { seed: 5 }];

/// The full equivalence matrix for one backend and edge order.
fn check_backend<G>(name: &str, g: &G, order: EdgeOrder)
where
    G: GraphView + Clone + Send + Sync + 'static,
{
    let (index, output) = reloaded_index(g, order);
    let name = &format!("{name} {order:?}");

    // Partition-density profile and the density-optimal cut (ties
    // resolved identically: the strict-`>` fold over the profile).
    let live_profile = output.density_profile(g);
    assert_eq!(index.profile().len(), live_profile.len(), "{name}: profile length");
    for (a, b) in index.profile().iter().zip(&live_profile) {
        assert_eq!(a.level, b.level, "{name}: profile level");
        assert_eq!(a.cluster_count, b.cluster_count, "{name}: profile cluster count");
        assert_eq!(a.density.to_bits(), b.density.to_bits(), "{name}: profile density");
    }
    assert_cut_matches(name, index.best_cut(), output.best_density_cut(g));

    for theta in probe_thetas(&output) {
        let live = output.edge_assignments_at_similarity(theta);
        assert_eq!(
            index.edge_labels_at_threshold(theta),
            live,
            "{name}: cut at theta={theta} diverged"
        );
        for (e, &label) in live.iter().enumerate() {
            assert_eq!(
                index.membership_of_edge(e, theta),
                Some(label),
                "{name}: edge {e} membership at theta={theta}"
            );
        }
        assert_eq!(index.membership_of_edge(g.edge_count(), theta), None, "{name}: oob edge");
        for v in 0..g.vertex_count() {
            assert_eq!(
                index.membership_of_vertex(v, theta),
                Some(live_vertex_labels(g, &live, v)),
                "{name}: vertex {v} membership at theta={theta}"
            );
        }
        assert_eq!(index.membership_of_vertex(g.vertex_count(), theta), None, "{name}: oob vertex");
        // Every community, and a k that takes one community of the
        // second-largest edge count: it ends inside a tie group whenever
        // that count is shared.
        let all = live_top_communities(g, &live, usize::MAX);
        let tie_cut =
            all.iter().position(|c| c.edge_count < all[0].edge_count).map_or(0, |i| i + 1);
        for k in [0, 1, 3, tie_cut, all.len(), usize::MAX] {
            assert_eq!(
                index.top_communities(theta, k),
                live_top_communities(g, &live, k),
                "{name}: top-{k} at theta={theta}"
            );
        }
    }
}

#[test]
fn index_answers_match_live_on_the_adjacency_backend() {
    for (name, g) in workloads() {
        for order in ORDERS {
            check_backend(name, &g, order);
        }
    }
}

#[test]
fn index_answers_match_live_on_the_csr_backend() {
    for (name, g) in workloads() {
        for order in ORDERS {
            check_backend(name, &CsrGraph::from_weighted(&g), order);
        }
    }
}

/// The two backends freeze into the *same* index: serialization is
/// deterministic and backend-independent, byte for byte.
#[test]
fn serialized_bytes_are_identical_across_backends() {
    for (name, g) in workloads() {
        let (from_adj, _) = reloaded_index(&g, EdgeOrder::Insertion);
        let (from_csr, _) = reloaded_index(&CsrGraph::from_weighted(&g), EdgeOrder::Insertion);
        assert_eq!(from_adj, from_csr, "{name}: backends froze different indexes");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        from_adj.write(&mut a).expect("vec write");
        from_csr.write(&mut b).expect("vec write");
        assert_eq!(a, b, "{name}: serialized bytes diverged across backends");
    }
}

/// Every strict prefix of a valid index file is rejected with a typed
/// error — truncation can never panic or yield a half-read index.
#[test]
fn truncated_index_bytes_are_rejected_not_panicked() {
    let g = gnm(40, 120, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 13);
    let (index, _) = reloaded_index(&g, EdgeOrder::Insertion);
    let mut bytes = Vec::new();
    index.write(&mut bytes).expect("vec write");
    for len in 0..bytes.len() {
        assert!(
            DendrogramIndex::read(&bytes[..len]).is_err(),
            "prefix of {len} bytes must not reload"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random G(n, m) workloads: the reloaded index answers the cut
    /// query identically to the live dendrogram at arbitrary thresholds.
    #[test]
    fn random_graphs_round_trip_and_agree(
        n in 8usize..48,
        extra in 0usize..80,
        seed in 0u64..1_000,
        theta in 0.0f64..1.5,
    ) {
        let m = (n - 1).min(n * (n - 1) / 2) + extra.min(n * (n - 1) / 2 - (n - 1));
        let g = gnm(n, m, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
        let (index, output) = reloaded_index(&g, EdgeOrder::Insertion);
        let live = output.edge_assignments_at_similarity(theta);
        prop_assert_eq!(index.edge_labels_at_threshold(theta), live);
        let live_best = output.best_density_cut(&g);
        assert_cut_matches("random", index.best_cut(), live_best);
    }
}
