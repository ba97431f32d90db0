//! The historical hierarchical-map-merge Phase I, preserved as the A/B
//! baseline for the owner-sharded accumulator that replaced it in
//! `linkclust-parallel`.
//!
//! This is the paper's literal §VI-A scheme: each thread accumulates its
//! own `HashMap`-backed
//! [`PairAccumulator`](linkclust_core::init::PairAccumulator) over a
//! disjoint vertex
//! range, then the `T` maps are merged pairwise in a hierarchical
//! reduction on the pool. The merge moves every pair entry (and its
//! common-neighbor `Vec`) up to O(log T) times, which is exactly the
//! allocation and memory traffic the sharded path eliminates — keeping
//! the old path alive here lets `bench_smoke` measure that difference
//! instead of asserting it.

use std::sync::Arc;

use linkclust_core::init::{accumulate_pairs, finalize_entries, vertex_norms_range, VertexNorms};
use linkclust_core::PairSimilarities;
use linkclust_graph::{VertexId, WeightedGraph};
use linkclust_parallel::pool::partition_ranges;
use linkclust_parallel::WorkerPool;

/// Phase I with per-thread pair maps and a hierarchical pairwise merge —
/// the pre-sharding parallel implementation, preserved verbatim.
///
/// Produces the same pairs and common-neighbor lists as
/// [`compute_similarities_parallel`](linkclust_parallel::compute_similarities_parallel);
/// scores agree to within floating-point re-association (the merge adds
/// per-thread *partial sums* where the serial scan — which the sharded
/// path replays exactly — adds individual terms), so A/B runs compare
/// cost, not output.
///
/// # Panics
///
/// Panics if `threads == 0`.
#[must_use]
pub fn compute_similarities_mapmerge(g: &WeightedGraph, threads: usize) -> PairSimilarities {
    assert!(threads > 0, "need at least one thread");
    let pool = WorkerPool::new(threads);
    let g = Arc::new(g.clone());
    let n = g.vertex_count();

    // Pass 1: per-range vertex norms, concatenated in range order.
    let ranges = partition_ranges(n, threads);
    let mut norms = VertexNorms { h1: Vec::with_capacity(n), h2: Vec::with_capacity(n) };
    {
        let g = Arc::clone(&g);
        let parts = pool.run_on_ranges(ranges.clone(), move |r| vertex_norms_range(&*g, r));
        for part in parts {
            norms.h1.extend(part.h1);
            norms.h2.extend(part.h2);
        }
    }

    // Pass 2: per-thread pair maps over disjoint vertex sets, then the
    // hierarchical pairwise merge this module exists to preserve.
    let maps = {
        let g = Arc::clone(&g);
        pool.run_on_ranges(ranges, move |r| accumulate_pairs(&*g, r.map(VertexId::new)))
    };
    let acc = pool
        .reduce(maps, |mut a, b| {
            a.merge(b);
            a
        })
        .unwrap_or_default();

    // Pass 3: finalize sequentially — pass 3 cost is shared by both
    // paths, and the A/B comparison targets pass 2.
    let index = linkclust_graph::EdgeIndex::for_graph(&*g);
    let (mut entries, common) = acc.into_similarities().into_parts();
    finalize_entries(&index, &norms, &mut entries);
    PairSimilarities::from_parts(entries, common)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_core::init::compute_similarities;
    use linkclust_graph::generate::{gnm, WeightMode};
    use linkclust_parallel::compute_similarities_parallel;

    #[test]
    fn baseline_matches_serial_and_sharded() {
        let g = gnm(60, 240, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 11);
        let serial = compute_similarities(&g);
        for threads in [1, 2, 4] {
            let base = compute_similarities_mapmerge(&g, threads);
            let sharded = compute_similarities_parallel(&g, threads);
            assert_eq!(base.len(), serial.len());
            // All three lists are in key order, so they compare entry by
            // entry.
            let (se, be, pe) = (serial.entries(), base.entries(), sharded.entries());
            for ((a, b), c) in se.iter().zip(be).zip(pe) {
                assert_eq!(a.pair, b.pair);
                assert_eq!(serial.common_neighbors(a), base.common_neighbors(b));
                // The baseline merges per-thread partial sums, so its
                // scores carry re-association error; the sharded path
                // replays the serial order exactly.
                assert!((a.score - b.score).abs() <= 1e-12, "baseline vs serial at {}", a.pair);
                assert_eq!(a.score.to_bits(), c.score.to_bits(), "sharded vs serial");
            }
            assert_eq!(serial, sharded, "whole lists, arena included");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn rejects_zero_threads() {
        let g = gnm(5, 6, WeightMode::Unit, 0);
        let _ = compute_similarities_mapmerge(&g, 0);
    }
}
