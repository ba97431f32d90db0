//! Property tests for the incremental Phase-I index: any sequence of
//! edge insertions and deletions must leave the index in exact agreement
//! with a batch recomputation on the resulting graph.

use linkclust::core::incremental::IncrementalSimilarities;
use linkclust::{compute_similarities, GraphView, VertexId};
use proptest::prelude::*;

/// An operation against the index.
#[derive(Clone, Debug)]
enum Op {
    Add(usize, usize, f64),
    Remove(usize, usize),
}

fn arb_ops(n: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0..n, 0..n, 0.1f64..3.0, proptest::bool::ANY).prop_map(|(a, b, w, add)| {
            if add {
                Op::Add(a, b, w)
            } else {
                Op::Remove(a, b)
            }
        }),
        0..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_op_sequence_matches_batch(ops in arb_ops(14)) {
        let n = 14;
        let mut inc = IncrementalSimilarities::new(n);
        for op in &ops {
            match *op {
                Op::Add(a, b, w) => {
                    let (u, v) = (VertexId::new(a), VertexId::new(b));
                    if a != b && inc.weight_between(u, v).is_none() {
                        inc.add_edge(u, v, w).expect("validated add");
                    }
                }
                Op::Remove(a, b) => {
                    let _ = inc.remove_edge(VertexId::new(a), VertexId::new(b));
                }
            }
        }
        let g = inc.to_graph();
        let batch = compute_similarities(&g);
        let snap = inc.similarities();
        prop_assert_eq!(snap.len(), batch.len());
        // Both lists are in key order, so they compare entry by entry.
        for (a, b) in snap.entries().iter().zip(batch.entries()) {
            prop_assert_eq!(a.pair, b.pair);
            prop_assert_eq!(snap.common_neighbors(a), batch.common_neighbors(b));
            // Bit-identical, not approximately equal: the incremental
            // recomputation replays the batch accumulation order.
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits(),
                "pair {} incremental {} batch {}", a.pair, a.score, b.score);
        }
        prop_assert_eq!(&snap, &batch);
        // And the graph the index claims to hold is consistent.
        prop_assert_eq!(g.edge_count(), inc.edge_count());
    }

    #[test]
    fn index_weight_lookup_matches_graph(ops in arb_ops(10)) {
        let n = 10;
        let mut inc = IncrementalSimilarities::new(n);
        for op in &ops {
            match *op {
                Op::Add(a, b, w) => {
                    let (u, v) = (VertexId::new(a), VertexId::new(b));
                    if a != b && inc.weight_between(u, v).is_none() {
                        inc.add_edge(u, v, w).expect("validated add");
                    }
                }
                Op::Remove(a, b) => {
                    let _ = inc.remove_edge(VertexId::new(a), VertexId::new(b));
                }
            }
        }
        let g = inc.to_graph();
        for i in 0..n {
            for j in i + 1..n {
                let (u, v) = (VertexId::new(i), VertexId::new(j));
                prop_assert_eq!(inc.weight_between(u, v), GraphView::weight_between(&g, u, v));
            }
        }
    }
}
