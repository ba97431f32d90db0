//! Backend equivalence: the compact CSR graph must be indistinguishable
//! from the adjacency-list backend everywhere the pipeline reads a
//! graph. Both backends expose identical id-sorted neighbor slabs and
//! identical edge ids, so similarities, dendrograms, and coarse
//! trajectories must be **bit-identical** — not merely equal up to
//! floating-point noise — at every thread count. The binary on-disk
//! format must round-trip through both backends losslessly.

use linkclust::core::coarse::CoarseConfig;
use linkclust::core::sweep::sweep_with;
use linkclust::core::telemetry::Telemetry;
use linkclust::graph::binfmt::{BinGraphError, GraphFile};
use linkclust::graph::generate::{barabasi_albert, gnm, lfr_like, WeightMode};
use linkclust::{
    compute_similarities, CsrGraph, EdgeId, GraphView, LinkClustering, SweepConfig, WeightedGraph,
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
            assert_eq!(sims, sorted, "{name} t={threads}: whole lists, arena included");
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
