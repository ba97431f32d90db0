//! The full sort of the similarity list `L`.
//!
//! The paper parallelizes the initialization passes and the sweep but
//! leaves the O(K₁ log K₁) sort of list `L` serial, and so does this
//! crate. The facade's fine-grained `run` does not sort `L` up front at
//! all: its Filter-Kruskal pass
//! ([`filter_kruskal_sweep`](linkclust_core::sweep::filter_kruskal_sweep))
//! sorts only the ranges it sweeps, and records that work as one
//! [`Phase::Sort`] inside its `Sweep` span. The full sort here serves
//! `run_coarse` and `LinkClustering::similarities`, whose consumers need
//! the sorted position of every entry: [`PairSimilarities::into_sorted`],
//! the same comparator sort the serial pipeline uses, under the run's
//! [`Phase::Sort`] span, which moves the 32-byte entries and nothing
//! else. Two faster-looking alternatives lost when measured on 497k
//! entries of 24 bytes (DESIGN.md has the figures): a pooled merge sort
//! over two threads, and an LSD radix sort on the score key.

use linkclust_core::telemetry::{Counter, Phase, Telemetry};
use linkclust_core::PairSimilarities;

use crate::pool::WorkerPool;

/// Sorts a [`PairSimilarities`] into the list `L` (non-increasing score,
/// ties by vertex pair) under a [`Phase::Sort`] span, and counts its K₁
/// entries as [`Counter::EntriesSorted`] — both recorded even when the
/// input is already sorted, so run reports always account for the
/// phase. The sort itself is [`PairSimilarities::into_sorted`]; the pool
/// is accepted so callers hand every phase of a run the same context,
/// and is not used.
#[must_use]
pub fn parallel_into_sorted_pooled(
    _pool: &WorkerPool,
    sims: PairSimilarities,
    telemetry: &Telemetry,
) -> PairSimilarities {
    let _span = telemetry.span(Phase::Sort);
    telemetry.add(Counter::EntriesSorted, sims.len() as u64);
    sims.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_core::init::compute_similarities;
    use linkclust_graph::generate::{gnm, WeightMode};

    #[test]
    fn pooled_l_matches_serial_l() {
        for seed in 0..3 {
            let g = gnm(40, 200, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let serial = compute_similarities(&g).into_sorted();
            for threads in [1, 2, 4] {
                let pool = WorkerPool::new(threads);
                let pooled = parallel_into_sorted_pooled(
                    &pool,
                    compute_similarities(&g),
                    &Telemetry::disabled(),
                );
                assert!(pooled.is_sorted());
                assert_eq!(serial, pooled, "threads {threads}");
            }
        }
    }

    #[test]
    fn already_sorted_is_noop() {
        let g = gnm(20, 60, WeightMode::Unit, 2);
        let sorted = compute_similarities(&g).into_sorted();
        let again = parallel_into_sorted_pooled(
            &WorkerPool::new(4),
            sorted.clone(),
            &Telemetry::disabled(),
        );
        assert_eq!(sorted, again);
    }
}
