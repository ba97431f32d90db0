//! The spawn-per-chunk baseline the pool bench compares against.
//!
//! [`SpawnPerChunkProcessor`] preserves the pre-pool implementation of
//! the parallel chunk pipeline: every chunk spawns fresh scoped OS
//! threads (one per entry range, plus one per pairwise combination), and
//! every thread clones the full `ClusterArray` — `T + 1` O(|E|)
//! allocations per chunk. It produces exactly the same partitions as
//! [`ParallelChunkProcessor`](linkclust_parallel::ParallelChunkProcessor);
//! only the execution strategy differs, which is what the chunk
//! throughput comparison in `bench_smoke` and `pool_bench` isolates.

use std::ops::Range;
use std::sync::Arc;

use linkclust_core::cluster_array::{partition_diff, MergeOutcome};
use linkclust_core::coarse::{ChunkProcessor, SerialChunkProcessor};
use linkclust_core::{ClusterArray, PairSimilarities};
use linkclust_graph::EdgeIndex;
use linkclust_parallel::merge::merge_cluster_arrays;
use linkclust_parallel::pool::{balanced_partition_by_weight, join_propagating};

/// A [`ChunkProcessor`] that spawns scoped threads and clones the
/// cluster array anew for every chunk (the historical implementation).
#[derive(Clone, Debug)]
pub struct SpawnPerChunkProcessor {
    threads: usize,
    min_entries_per_thread: usize,
}

impl SpawnPerChunkProcessor {
    /// Creates the baseline with `threads` scoped threads per chunk.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        SpawnPerChunkProcessor { threads, min_entries_per_thread: 8 }
    }

    /// Serial-fallback threshold, mirroring the pooled processor.
    #[must_use]
    pub fn min_entries_per_thread(mut self, n: usize) -> Self {
        self.min_entries_per_thread = n.max(1);
        self
    }
}

/// Hierarchical pairwise reduction with fresh scoped threads per round —
/// the shape the parallel crate used before the persistent pool.
fn scoped_reduce<T: Send>(mut items: Vec<T>, combine: impl Fn(T, T) -> T + Sync) -> Option<T> {
    while items.len() > 3 {
        let carry = if items.len() % 2 == 1 { items.pop() } else { None };
        let mut pairs = Vec::with_capacity(items.len() / 2);
        let mut it = items.into_iter();
        while let (Some(a), Some(b)) = (it.next(), it.next()) {
            pairs.push((a, b));
        }
        let mut merged: Vec<T> = std::thread::scope(|s| {
            let handles: Vec<_> = pairs
                .into_iter()
                .map(|(a, b)| {
                    let combine = &combine;
                    s.spawn(move || combine(a, b))
                })
                .collect();
            handles.into_iter().map(|h| join_propagating(h.join())).collect()
        });
        merged.extend(carry);
        items = merged;
    }
    let mut it = items.into_iter();
    let first = it.next()?;
    Some(it.fold(first, combine))
}

impl ChunkProcessor for SpawnPerChunkProcessor {
    fn process_entries(
        &mut self,
        index: &Arc<EdgeIndex>,
        slot_of_edge: &[u32],
        sorted: &PairSimilarities,
        chunk: Range<usize>,
        c: &mut ClusterArray,
    ) -> Vec<MergeOutcome> {
        if self.threads == 1 || chunk.len() < self.threads * self.min_entries_per_thread {
            return SerialChunkProcessor.process_entries(index, slot_of_edge, sorted, chunk, c);
        }
        let base = c.clone();
        let weights: Vec<u64> =
            sorted.entries()[chunk.clone()].iter().map(|e| e.pair_count() as u64).collect();
        let ranges = balanced_partition_by_weight(&weights, self.threads);

        // Step 1: one fresh scoped thread and one full array clone per
        // entry range.
        let copies: Vec<ClusterArray> = std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|r| {
                    let base = &base;
                    let r = chunk.start + r.start..chunk.start + r.end;
                    s.spawn(move || {
                        let mut local = base.clone();
                        SerialChunkProcessor.process_entries(
                            index,
                            slot_of_edge,
                            sorted,
                            r,
                            &mut local,
                        );
                        local
                    })
                })
                .collect();
            handles.into_iter().map(|h| join_propagating(h.join())).collect()
        });

        // Step 2: hierarchical combination, again with fresh threads.
        let merged = scoped_reduce(copies, |mut a, b| {
            merge_cluster_arrays(&mut a, &b);
            a
        })
        .unwrap_or_else(|| base.clone());

        let outcomes = partition_diff(&base, &merged);
        *c = merged;
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_core::coarse::{coarse_sweep, coarse_sweep_with, CoarseConfig};
    use linkclust_core::init::compute_similarities;
    use linkclust_graph::generate::{gnm, WeightMode};

    #[test]
    fn baseline_matches_serial_coarse_trajectory() {
        let g = gnm(45, 190, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 3);
        let sims = compute_similarities(&g).into_sorted();
        let cfg = CoarseConfig { phi: 5, initial_chunk: 8, ..Default::default() };
        let serial = coarse_sweep(&g, &sims, cfg);
        for threads in [2usize, 4] {
            let mut proc = SpawnPerChunkProcessor::new(threads).min_entries_per_thread(1);
            let par = coarse_sweep_with(&g, &sims, cfg, &mut proc);
            assert_eq!(serial.levels(), par.levels(), "threads {threads}");
        }
    }
}
