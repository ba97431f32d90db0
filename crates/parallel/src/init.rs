//! Phase I over row ranges (§VI-A).
//!
//! Phase I computes row `i` of `A·A` for `j > i` in a dense accumulator
//! ([`similarity_rows`]), and rows are independent. So the threads of a
//! run share the rows out: pass 1 (the vertex norms, O(|V| + |E|)) runs
//! on the calling thread, the rows are split into [`WorkerPool::threads`]
//! contiguous ranges of near-equal wedge load `Σ_{k∈N(i)} d(k)`, each
//! thread computes its range's entries in pair order, and the ranges are
//! joined in row order. The result is the serial list, entry for entry
//! and bit for bit, at every thread count. One thread runs one range
//! inline, and its entries become the list without a copy.
//!
//! This replaces the paper's per-thread maps and their O(K₁·log T)
//! hierarchical merge: no pair is touched by two threads, so nothing is
//! merged, and no common-neighbor list is built.

use std::ops::Range;
use std::sync::Arc;

use linkclust_core::init::{collect_rows, similarity_rows, vertex_norms};
use linkclust_core::telemetry::{Phase, Telemetry};
use linkclust_core::PairSimilarities;
use linkclust_graph::GraphView;

use crate::pool::{balanced_partition_with_loads, WorkerPool};

/// Computes the pair similarities of Phase I using `threads` worker
/// threads (see [`compute_similarities_on`]). The result equals
/// [`compute_similarities`](linkclust_core::init::compute_similarities)
/// entry for entry, scores to the bit, at every thread count.
///
/// # Panics
///
/// Panics if `threads == 0`.
///
/// Accepts any [`GraphView`] backend; both backends expose identical
/// neighbor slabs, so the CSR result is bit-identical to the
/// adjacency-list result too.
///
/// # Examples
///
/// ```
/// use linkclust_graph::generate::{gnm, WeightMode};
/// use linkclust_parallel::compute_similarities_parallel;
///
/// let g = gnm(30, 90, WeightMode::Unit, 1);
/// let sims = compute_similarities_parallel(&g, 4);
/// assert_eq!(sims.len() as u64, linkclust_graph::stats::count_common_neighbor_pairs(&g));
/// ```
#[must_use]
pub fn compute_similarities_parallel<G>(g: &G, threads: usize) -> PairSimilarities
where
    G: GraphView + Sync + ?Sized,
{
    assert!(threads > 0, "need at least one thread");
    compute_similarities_on(&WorkerPool::new(threads), g, &Telemetry::disabled())
}

/// [`compute_similarities_on`] for a graph held in an [`Arc`].
#[must_use]
pub fn compute_similarities_pooled<G>(
    pool: &WorkerPool,
    g: &Arc<G>,
    telemetry: &Telemetry,
) -> PairSimilarities
where
    G: GraphView + Sync + ?Sized,
{
    compute_similarities_on(pool, &**g, telemetry)
}

/// Phase I on a caller-supplied [`WorkerPool`], one row range per pool
/// thread, the threads reading `g` in place — the variant the facade
/// runs.
///
/// Pass 1 runs under a [`Phase::InitPass1`] span and the row ranges
/// under one [`Phase::InitPass2`] span; each range's wedge load feeds
/// the report's per-thread item counts, and the list's size counters
/// are recorded ([`collect_rows`]).
#[must_use]
pub fn compute_similarities_on<G>(
    pool: &WorkerPool,
    g: &G,
    telemetry: &Telemetry,
) -> PairSimilarities
where
    G: GraphView + Sync + ?Sized,
{
    let norms = {
        let _span = telemetry.span(Phase::InitPass1);
        vertex_norms(g)
    };
    let rows = {
        let _span = telemetry.span(Phase::InitPass2);
        let ranges = row_ranges(g, pool.threads(), telemetry);
        pool.fan_out(ranges, |rows| similarity_rows(g, &norms, rows))
    };
    collect_rows(g, rows, telemetry)
}

/// Splits the rows of `g` into at most `parts` contiguous ranges of
/// near-equal wedge load `Σ_{k∈N(i)} d(k)`, recording each range's load
/// as its thread's item count.
fn row_ranges<G>(g: &G, parts: usize, telemetry: &Telemetry) -> Vec<Range<usize>>
where
    G: GraphView + ?Sized,
{
    let loads: Vec<u64> = g
        .vertices()
        .map(|v| g.neighbors(v).iter().map(|k| g.degree(k.vertex) as u64).sum())
        .collect();
    let (ranges, range_loads) = balanced_partition_with_loads(&loads, parts);
    for (thread, &load) in range_loads.iter().enumerate() {
        telemetry.thread_items(thread, load);
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_core::init::compute_similarities;
    use linkclust_core::telemetry::{Counter, RunRecorder};
    use linkclust_graph::generate::{barabasi_albert, gnm, WeightMode};
    use linkclust_graph::GraphBuilder;

    #[test]
    fn matches_serial_exactly() {
        for seed in 0..4 {
            let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let serial = compute_similarities(&g);
            for threads in [1, 2, 3, 4, 7] {
                let par = compute_similarities_parallel(&g, threads);
                // Entries, score bits, wedge counts and first wedges.
                assert_eq!(serial, par, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn csr_backend_matches_adjacency_backend_bit_for_bit() {
        let g = gnm(60, 260, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 3);
        let csr = linkclust_graph::CsrGraph::from_weighted(&g);
        for threads in [1, 2, 4] {
            let adj = compute_similarities_parallel(&g, threads);
            let via_csr = compute_similarities_parallel(&csr, threads);
            assert_eq!(adj, via_csr, "threads {threads}");
        }
    }

    #[test]
    fn pooled_entry_point_matches_standalone() {
        let g = gnm(40, 160, WeightMode::Uniform { lo: 0.3, hi: 1.5 }, 5);
        let standalone = compute_similarities_parallel(&g, 4);
        let pool = WorkerPool::new(4);
        let shared = Arc::new(g);
        // The same pool serves repeated runs, and the `Arc` wrapper is
        // the borrowing pass.
        for _ in 0..3 {
            let pooled = compute_similarities_pooled(&pool, &shared, &Telemetry::disabled());
            assert_eq!(standalone, pooled);
            assert_eq!(
                standalone,
                compute_similarities_on(&pool, &*shared, &Telemetry::disabled())
            );
        }
    }

    #[test]
    fn power_law_graph_matches_serial() {
        let g = barabasi_albert(150, 4, WeightMode::Uniform { lo: 0.5, hi: 1.5 }, 2);
        assert_eq!(compute_similarities(&g), compute_similarities_parallel(&g, 6));
    }

    #[test]
    fn ranges_balance_the_wedge_load_and_cover_every_row() {
        let g = barabasi_albert(300, 3, WeightMode::Unit, 4);
        let recorder = Arc::new(RunRecorder::new());
        let ranges = row_ranges(&g, 3, &Telemetry::new(recorder.clone()));
        assert_eq!(ranges.len(), 3);
        assert_eq!((ranges[0].start, ranges[2].end), (0, 300));
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        let report = recorder.report();
        let total: u64 = g.vertices().map(|v| (g.degree(v) * g.degree(v)) as u64).sum();
        assert_eq!(report.thread_items().iter().sum::<u64>(), total);
        assert!(report.load_imbalance() < 1.5, "imbalance {}", report.load_imbalance());
        let whole = row_ranges(&g, 1, &Telemetry::disabled());
        assert_eq!((whole.len(), whole[0].clone()), (1, 0..300));
        assert!(row_ranges(&GraphBuilder::new().build(), 2, &Telemetry::disabled()).is_empty());
    }

    #[test]
    fn telemetry_covers_both_passes_and_the_list_size() {
        let g = gnm(40, 160, WeightMode::Uniform { lo: 0.3, hi: 1.5 }, 9);
        for threads in [1, 3] {
            let recorder = Arc::new(RunRecorder::new());
            let telemetry = Telemetry::new(recorder.clone());
            let sims = compute_similarities_on(&WorkerPool::new(threads), &g, &telemetry);
            let report = recorder.report();
            assert_eq!(report.phase_calls(Phase::InitPass1), 1);
            assert_eq!(report.phase_calls(Phase::InitPass2), 1);
            assert_eq!(report.counter(Counter::PairsK1), sims.len() as u64);
            assert_eq!(report.counter(Counter::IncidentPairsK2), sims.incident_pair_count());
            assert_eq!(report.counter(Counter::ListBytes), 32 * sims.len() as u64);
        }
    }

    #[test]
    fn more_threads_than_vertices() {
        let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap().build();
        let sims = compute_similarities_parallel(&g, 16);
        assert_eq!(sims.len(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        for threads in [1, 4] {
            assert!(compute_similarities_parallel(&g, threads).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn rejects_zero_threads() {
        let g = GraphBuilder::new().build();
        let _ = compute_similarities_parallel(&g, 0);
    }
}
