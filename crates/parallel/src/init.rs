//! Parallel initialization phase (§VI-A, with a sharded pass 2).
//!
//! The three passes of Algorithm 1:
//!
//! 1. **Pass 1** — vertices are partitioned into `T` disjoint contiguous
//!    sets; each thread fills its slice of `H₁`/`H₂`.
//! 2. **Pass 2** — owner-sharded accumulation, replacing the paper's
//!    per-thread maps + O(K₁·log T) hierarchical map merge:
//!    * *produce* — each thread scans its vertex range and routes one
//!      `(packed pair, w·w, common neighbor)` record per neighbor pair
//!      into a per-`(producer, owner)` buffer, where the **owner** of a
//!      pair is the thread whose vertex range contains the pair's first
//!      (smaller) vertex;
//!    * *fold* — each owner thread folds exactly the buffers addressed
//!      to it (taken by move — no copy, no intermediate map) into a flat
//!      arena-backed [`FlatPairAccumulator`], in producer order.
//!      Because producer ranges ascend and each
//!      producer scans its vertices in ascending order, every pair's
//!      contributions arrive in exactly the serial order — the folded
//!      sums are **bit-identical** to the serial pass, not merely close.
//!
//!    Ownership by first-vertex range makes each owner's key-sorted
//!    output a contiguous slab of the global key order, so the shards
//!    concatenate ([`PairSimilarities::concat`]) into the deterministic
//!    list, common-neighbor arena included, with no merge step at all.
//! 3. **Pass 3** — the key-sorted entries are split into disjoint
//!    contiguous ranges; each thread applies the adjacency correction
//!    and final similarity to its own range. The arena stays put.
//!
//! Every pass is one [`WorkerPool::fan_out`] over borrowed data: the
//! threads read the caller's graph in place, and pass 3 finalizes
//! disjoint `&mut` sub-slices of the one entry vector. The paper's
//! per-thread map merge is gone; its last A/B run (gnm(600, 2400), 4
//! threads) had the sharded pass 2.35× faster.

use std::sync::Arc;

use linkclust_core::flatacc::{pack_pair, FlatPairAccumulator};
use linkclust_core::init::{finalize_entries, vertex_norms_range, VertexNorms};
use linkclust_core::telemetry::{Counter, Gauge, Phase, Telemetry};
use linkclust_core::PairSimilarities;
use linkclust_graph::{EdgeIndex, GraphView, VertexId};

use crate::pool::{partition_ranges, WorkerPool};

/// One routed pass-2 record: a pair key packed by
/// [`pack_pair`], the weight product `w_vi·w_vj`, and the common
/// neighbor `v` that produced it.
#[derive(Clone, Copy, Debug)]
struct ShardRecord {
    key: u64,
    w: f64,
    v: u32,
}

/// Scans the vertex `range` and routes one record per neighbor pair into
/// a per-owner buffer. `starts` holds the ascending start offsets of the
/// owner ranges. A cheap O(Σd) pre-count sizes every buffer **exactly**
/// — ownership is skewed on power-law graphs (hub vertices have small
/// ids, so low ranges own most pairs), and an even `records/owners`
/// split would make the hot owner's buffer regrow repeatedly.
fn produce_shard_records<G: GraphView + ?Sized>(
    g: &G,
    range: std::ops::Range<usize>,
    starts: &[usize],
) -> Vec<Vec<ShardRecord>> {
    let owners = starts.len();
    let mut counts = vec![0usize; owners];
    for i in range.clone() {
        let nbrs = g.neighbors(VertexId::new(i));
        for (a, x) in nbrs.iter().enumerate() {
            let owner = starts.partition_point(|&s| s <= u32::from(x.vertex) as usize) - 1;
            counts[owner] += nbrs.len() - a - 1;
        }
    }
    let mut bufs: Vec<Vec<ShardRecord>> = counts.into_iter().map(Vec::with_capacity).collect();
    for i in range {
        let v = VertexId::new(i);
        let nbrs = g.neighbors(v);
        for (a, x) in nbrs.iter().enumerate() {
            let first = u32::from(x.vertex);
            // Adjacency lists are sorted, so `x.vertex` is the smaller
            // endpoint of every pair it opens — one owner lookup serves
            // the whole inner loop.
            let owner = starts.partition_point(|&s| s <= first as usize) - 1;
            let buf = &mut bufs[owner];
            for y in &nbrs[a + 1..] {
                buf.push(ShardRecord {
                    key: pack_pair(first, u32::from(y.vertex)),
                    w: x.weight * y.weight,
                    v: i as u32,
                });
            }
        }
    }
    bufs
}

/// Folds one owner's shard — the record buffers every producer routed to
/// it, in producer order — into a flat accumulator and materializes the
/// owner's slab of the key-sorted list (scores still hold their running
/// sums). Returns the slab plus the accumulator's final table occupancy
/// (for the telemetry gauge).
fn fold_shard(bufs: Vec<Vec<ShardRecord>>) -> (PairSimilarities, f64) {
    let records: usize = bufs.iter().map(Vec::len).sum();
    let mut acc = FlatPairAccumulator::with_capacity(records, records);
    for buf in bufs {
        for rec in buf {
            acc.record(rec.key, rec.w, rec.v);
        }
    }
    let occupancy = acc.occupancy();
    (acc.into_similarities(), occupancy)
}

/// Computes the pair similarities of Phase I using `threads` worker
/// threads. The result is **bit-identical** to
/// [`compute_similarities`](linkclust_core::init::compute_similarities):
/// the owner fold replays every pair's contributions in the serial scan
/// order (producer ranges ascend; each producer scans ascending), so
/// even the floating-point association matches.
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

/// Phase I on a caller-supplied [`WorkerPool`], with the pool's threads
/// reading `g` in place — the variant the facade runs.
///
/// Each pass runs under its own span (the owner fold of pass 2 gets a
/// separate [`Phase::InitShardFold`] span), the K₁/K₂ counters and the
/// shard-exchange record volume ([`Counter::ShardRecords`]) are
/// recorded, each owner's folded record count feeds the per-thread item
/// counts for load-imbalance analysis, and every owner table's final
/// load factor is sampled into [`Gauge::TableOccupancy`].
#[must_use]
pub fn compute_similarities_on<G>(
    pool: &WorkerPool,
    g: &G,
    telemetry: &Telemetry,
) -> PairSimilarities
where
    G: GraphView + Sync + ?Sized,
{
    let threads = pool.threads();
    let n = g.vertex_count();

    // Pass 1: per-range vertex norms, concatenated in range order.
    let ranges = partition_ranges(n, threads);
    let mut norms = VertexNorms { h1: Vec::with_capacity(n), h2: Vec::with_capacity(n) };
    {
        let _span = telemetry.span(Phase::InitPass1);
        for part in pool.fan_out(ranges.clone(), |r| vertex_norms_range(g, r)) {
            norms.h1.extend(part.h1);
            norms.h2.extend(part.h2);
        }
    }

    // Pass 2, step 1 (produce): each producer scans its vertex range and
    // routes records into per-(producer, owner) buffers. The owner of a
    // pair is the thread whose range holds the pair's first vertex.
    let starts: Vec<usize> = ranges.iter().map(|r| r.start).collect();
    let produced: Vec<Vec<Vec<ShardRecord>>> = {
        let _span = telemetry.span(Phase::InitPass2);
        pool.fan_out(ranges, |r| produce_shard_records(g, r, &starts))
    };

    // Transpose: hand every owner exactly its buffers, by move, in
    // producer order — the fold then replays each pair's contributions
    // in the serial scan order, so the sums are bit-identical to the
    // serial pass. No cross-thread map merge exists anymore.
    let owners = starts.len();
    let mut shards: Vec<Vec<Vec<ShardRecord>>> =
        (0..owners).map(|_| Vec::with_capacity(produced.len())).collect();
    for bufs in produced {
        for (owner, buf) in bufs.into_iter().enumerate() {
            shards[owner].push(buf);
        }
    }
    let mut total_records = 0u64;
    for (owner, shard) in shards.iter().enumerate() {
        let records: u64 = shard.iter().map(|b| b.len() as u64).sum();
        telemetry.thread_items(owner, records);
        total_records += records;
    }
    telemetry.add(Counter::ShardRecords, total_records);

    // Pass 2, step 2 (fold): each owner folds its shard into a flat
    // accumulator. Owner slabs are contiguous in the global key order
    // (ownership follows the first vertex), so concatenating them in
    // owner order *is* the deterministic key-sorted list.
    let folded: Vec<(PairSimilarities, f64)> = {
        let _span = telemetry.span(Phase::InitShardFold);
        pool.fan_out(shards, fold_shard)
    };
    let mut slabs = Vec::with_capacity(folded.len());
    for (slab, occupancy) in folded {
        if !slab.is_empty() {
            telemetry.observe(Gauge::TableOccupancy, occupancy);
        }
        slabs.push(slab);
    }
    let (mut entries, common) = PairSimilarities::concat(slabs).into_parts();
    telemetry.add(Counter::PairsK1, entries.len() as u64);

    // Pass 3: each thread applies the adjacency correction and the final
    // similarity to its own contiguous sub-slice of the entries, in
    // place; the common-neighbor arena is not touched. One O(m) edge
    // index serves every slice — the adjacency correction is then an
    // O(1) probe per entry instead of an O(degree) scan.
    {
        let _span = telemetry.span(Phase::InitPass3);
        let index = EdgeIndex::for_graph(g);
        let chunk = entries.len().div_ceil(threads).max(1);
        let _: Vec<()> = pool.fan_out(entries.chunks_mut(chunk).collect(), |slice| {
            finalize_entries(&index, &norms, slice);
        });
    }
    let sims = PairSimilarities::from_parts(entries, common);
    telemetry.add(Counter::IncidentPairsK2, sims.incident_pair_count());
    sims
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_core::init::compute_similarities;
    use linkclust_graph::generate::{barabasi_albert, gnm, WeightMode};
    use linkclust_graph::GraphBuilder;

    #[test]
    fn matches_serial_exactly() {
        for seed in 0..4 {
            let g = gnm(50, 220, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            let serial = compute_similarities(&g);
            for threads in [1, 2, 3, 4, 7] {
                let par = compute_similarities_parallel(&g, threads);
                assert_eq!(par.len(), serial.len(), "seed {seed} threads {threads}");
                // Both lists are in key order, so they compare entry by
                // entry.
                for (a, b) in serial.entries().iter().zip(par.entries()) {
                    assert_eq!(a.pair, b.pair);
                    assert_eq!(serial.common_neighbors(a), par.common_neighbors(b));
                    // The owner fold replays the serial accumulation
                    // order, so scores match to the bit.
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "score mismatch at {}: {} vs {}",
                        a.pair,
                        a.score,
                        b.score
                    );
                }
                assert_eq!(serial, par, "whole lists, arena included");
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
        let serial = compute_similarities(&g);
        let par = compute_similarities_parallel(&g, 6);
        assert_eq!(serial.len(), par.len());
        assert_eq!(serial.incident_pair_count(), par.incident_pair_count());
    }

    #[test]
    fn single_thread_is_serial() {
        let g = gnm(20, 50, WeightMode::Unit, 9);
        let a = compute_similarities(&g);
        let b = compute_similarities_parallel(&g, 1);
        assert_eq!(a.len(), b.len());
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
        let sims = compute_similarities_parallel(&g, 4);
        assert!(sims.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn rejects_zero_threads() {
        let g = GraphBuilder::new().build();
        let _ = compute_similarities_parallel(&g, 0);
    }
}
