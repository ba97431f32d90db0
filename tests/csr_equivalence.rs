//! Backend equivalence: the compact CSR graph must be indistinguishable
//! from the adjacency-list backend everywhere the pipeline reads a
//! graph. Both backends expose identical id-sorted neighbor slabs and
//! identical edge ids, so similarities, dendrograms, and coarse
//! trajectories must be **bit-identical** — not merely equal up to
//! floating-point noise — at every thread count. The binary on-disk
//! format must round-trip through both backends losslessly.

use linkclust::core::coarse::{coarse_sweep, CoarseConfig};
use linkclust::core::init::algorithm_1;
use linkclust::core::sweep::sweep_with;
use linkclust::core::telemetry::Telemetry;
use linkclust::core::Wedge;
use linkclust::graph::binfmt::{BinGraphError, GraphFile};
use linkclust::graph::generate::{
    barabasi_albert, complete, gnm, k_regular, lfr_like, path, planted_partition, ring, star,
    watts_strogatz, WeightMode,
};
use linkclust::{
    compute_similarities, compute_similarities_parallel, CsrGraph, EdgeId, GraphView,
    LinkClustering, SweepConfig, WeightedGraph,
};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One workload per generator family of the scale ladder.
fn workloads() -> Vec<(&'static str, WeightedGraph)> {
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    vec![
        ("gnm", gnm(60, 240, w, 7)),
        ("barabasi_albert", barabasi_albert(80, 4, w, 3)),
        ("lfr_like", lfr_like(120, 8, 0.2, 11).graph),
    ]
}

/// The two backends agree on every primitive accessor — the invariant
/// the bit-identity of the downstream arithmetic rests on.
#[test]
fn csr_view_is_structurally_identical() {
    for (name, g) in workloads() {
        let csr = CsrGraph::from_weighted(&g);
        assert_eq!(g.vertex_count(), csr.vertex_count(), "{name}");
        assert_eq!(g.edge_count(), csr.edge_count(), "{name}");
        for v in GraphView::vertices(&g) {
            assert_eq!(g.neighbors(v), csr.neighbors(v), "{name}: slab of {v:?}");
        }
        for e in 0..g.edge_count() {
            let e = EdgeId::new(e);
            assert_eq!(g.edge_endpoints(e), csr.edge_endpoints(e), "{name}");
            assert_eq!(g.edge_weight(e).to_bits(), csr.edge_weight(e).to_bits(), "{name}");
        }
    }
}

#[test]
fn csr_similarities_are_bit_identical_at_every_thread_count() {
    for (name, g) in workloads() {
        let csr = CsrGraph::from_weighted(&g);
        let oracle = compute_similarities(&g);
        for threads in THREADS {
            let facade = LinkClustering::new().threads(threads);
            let sims = facade.similarities(&csr).unwrap();
            let sorted = oracle.clone().into_sorted();
            assert_eq!(sims.len(), sorted.len(), "{name} t={threads}");
            for (a, b) in sorted.entries().iter().zip(sims.entries()) {
                assert_eq!(a.pair, b.pair, "{name} t={threads}");
                assert_eq!(
                    a.score.to_bits(),
                    b.score.to_bits(),
                    "{name} t={threads}: CSR similarity diverged at {}",
                    a.pair
                );
            }
            assert_eq!(sims, sorted, "{name} t={threads}: whole lists");
        }
    }
}

#[test]
fn csr_dendrograms_match_adjacency_at_every_thread_count() {
    for (name, g) in workloads() {
        let csr = CsrGraph::from_weighted(&g);
        // Algorithm 2 on the adjacency list: the oracle.
        let sims = compute_similarities(&g).into_sorted();
        let serial = sweep_with(&g, &sims, SweepConfig::default(), &Telemetry::disabled());
        for threads in THREADS {
            let facade = LinkClustering::new().threads(threads);
            let adj = facade.run(&g).unwrap();
            let via_csr = facade.run(&csr).unwrap();
            assert_eq!(
                adj.dendrogram(),
                via_csr.dendrogram(),
                "{name} t={threads}: dendrogram diverged between backends"
            );
            assert_eq!(adj.edge_assignments(), via_csr.edge_assignments(), "{name} t={threads}");
            // And every CSR run equals Algorithm 2.
            assert_eq!(serial.dendrogram(), via_csr.dendrogram(), "{name} t={threads} vs serial");
        }
    }
}

#[test]
fn csr_coarse_trajectory_matches_adjacency() {
    let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
    for (name, g) in workloads() {
        let csr = CsrGraph::from_weighted(&g);
        for threads in THREADS {
            let facade = LinkClustering::new().threads(threads);
            let adj = facade.run_coarse(&g, cfg).unwrap();
            let via_csr = facade.run_coarse(&csr, cfg).unwrap();
            let al: Vec<_> = adj.levels().iter().map(|l| (l.level, l.clusters)).collect();
            let cl: Vec<_> = via_csr.levels().iter().map(|l| (l.level, l.clusters)).collect();
            assert_eq!(al, cl, "{name} t={threads}: coarse levels diverged");
            assert_eq!(
                adj.output().edge_assignments(),
                via_csr.output().edge_assignments(),
                "{name} t={threads}"
            );
        }
    }
}

/// Every generator family, small enough for the map-`M` oracle.
fn families() -> Vec<(&'static str, WeightedGraph)> {
    let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
    let mut all = workloads();
    all.extend([
        ("complete", complete(14, w, 1)),
        ("k_regular", k_regular(40, 6, w, 2)),
        ("watts_strogatz", watts_strogatz(50, 6, 0.2, w, 5)),
        ("planted_partition", planted_partition(4, 10, 0.6, 0.05, 6).graph),
        ("ring", ring(30, w, 3)),
        ("star", star(20, w, 4)),
        ("path", path(12, w, 7)),
    ]);
    all
}

/// Thread counts of the family-wide identity checks.
const ROW_THREADS: [usize; 5] = [1, 2, 3, 5, 8];

/// Phase I on `backend` at every thread count equals Algorithm 1's map
/// `M` over `g`: pair order, score bits, wedge counts, the stored first
/// wedge, and every wedge the list reads back from the graph.
fn assert_phase_one_is_map_m<G: GraphView + Sync>(name: &str, g: &WeightedGraph, backend: &G) {
    let map = algorithm_1(g);
    for threads in ROW_THREADS {
        let sims = compute_similarities_parallel(backend, threads);
        assert_eq!(sims.len(), map.len(), "{name} t={threads}");
        for (e, m) in sims.entries().iter().zip(&map) {
            assert_eq!(e.pair, m.pair, "{name} t={threads}");
            assert_eq!(e.score.to_bits(), m.score.to_bits(), "{name} t={threads} at {}", e.pair);
            assert_eq!(e.pair_count(), m.common.len(), "{name} t={threads} at {}", e.pair);
            let wedges: Vec<Wedge> = sims.wedges(backend, e).collect();
            let expected: Vec<Wedge> = m
                .common
                .iter()
                .map(|&k| {
                    let edge = |v| g.edge_between(v, k).expect("a common neighbor is adjacent");
                    (k, edge(e.pair.first()), edge(e.pair.second()))
                })
                .collect();
            assert_eq!(wedges, expected, "{name} t={threads} at {}", e.pair);
            assert_eq!(e.first_wedge(), expected[0], "{name} t={threads} at {}", e.pair);
        }
    }
}

/// The facade on `backend` at every thread count equals Algorithm 2 and
/// the serial coarse sweep over `g`: the dendrogram, merge-score bits
/// and slot permutation, and the coarse epochs and levels.
fn assert_sweeps_are_algorithm_2<G: GraphView + Sync>(name: &str, g: &WeightedGraph, backend: &G) {
    let sorted = compute_similarities(g).into_sorted();
    let oracle = sweep_with(g, &sorted, SweepConfig::default(), &Telemetry::disabled());
    let cfg = CoarseConfig { phi: 3, initial_chunk: 8, ..Default::default() };
    let coarse = coarse_sweep(g, &sorted, cfg);
    let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    for threads in ROW_THREADS {
        let facade = LinkClustering::new().threads(threads);
        let run = facade.run(backend).unwrap();
        assert_eq!(run.dendrogram(), oracle.dendrogram(), "{name} t={threads}");
        assert_eq!(bits(run.output().merge_scores()), bits(oracle.merge_scores()), "{name}");
        assert_eq!(run.output().slot_of_edge(), oracle.slot_of_edge(), "{name} t={threads}");
        let trajectory = facade.run_coarse(backend, cfg).unwrap();
        assert_eq!(trajectory.epochs(), coarse.epochs(), "{name} t={threads}");
        assert_eq!(trajectory.levels(), coarse.levels(), "{name} t={threads}");
    }
}

#[test]
fn phase_one_is_map_m_on_every_family_backend_and_thread_count() {
    for (name, g) in families() {
        assert_phase_one_is_map_m(name, &g, &g);
        assert_phase_one_is_map_m(name, &g, &CsrGraph::from_weighted(&g));
    }
}

#[test]
fn sweeps_are_algorithm_2_on_every_family_backend_and_thread_count() {
    for (name, g) in families() {
        assert_sweeps_are_algorithm_2(name, &g, &g);
        assert_sweeps_are_algorithm_2(name, &g, &CsrGraph::from_weighted(&g));
    }
}

#[test]
fn binary_format_round_trips_both_backends() {
    for (name, g) in workloads() {
        // Adjacency list → bytes → CSR.
        let mut bytes = Vec::new();
        GraphFile::write(&g, &mut bytes).unwrap();
        let back = GraphFile::read_streamed(bytes.as_slice()).unwrap();
        assert_eq!(back, CsrGraph::from_weighted(&g), "{name}: adjacency round trip");
        // CSR → bytes → CSR is byte-stable (same records, same order).
        let mut again = Vec::new();
        GraphFile::write(&back, &mut again).unwrap();
        assert_eq!(bytes, again, "{name}: CSR re-serialization must be byte-stable");
    }
}

#[test]
fn binary_format_rejects_damage() {
    let g = gnm(20, 50, WeightMode::Uniform { lo: 0.5, hi: 1.5 }, 1);
    let mut bytes = Vec::new();
    GraphFile::write(&g, &mut bytes).unwrap();
    // Truncation anywhere in the record stream is detected.
    let cut = bytes.len() - 7;
    assert!(matches!(
        GraphFile::read_streamed(&bytes[..cut]).unwrap_err(),
        BinGraphError::Truncated { .. } | BinGraphError::Io(_)
    ));
    // A corrupted magic number is rejected before any record is parsed.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        GraphFile::read_streamed(bad.as_slice()).unwrap_err(),
        BinGraphError::BadMagic
    ));
    // Trailing garbage after the declared edge count is rejected too.
    let mut long = bytes.clone();
    long.extend_from_slice(&[0u8; 16]);
    assert!(matches!(
        GraphFile::read_streamed(long.as_slice()).unwrap_err(),
        BinGraphError::TrailingData
    ));
}
