//! The union-find sweep engine: parallel Phase II with an exact serial
//! dendrogram.
//!
//! The fine-grained sweep (Algorithm 2) looks inherently sequential — it
//! replays union operations in similarity order against one shared
//! cluster array. The key observation (the single-linkage framing of
//! Dhulipala et al. and ParChain, see PAPERS.md) is that the *surviving*
//! operations — exactly the ones the serial sweep turns into merges —
//! are the unique minimum spanning forest of the operation multigraph
//! when each operation is weighted by its global rank in the sweep
//! order. The cycle property lets contiguous blocks of that order drop
//! their non-forest operations independently, which breaks the
//! sequential chain where the work is:
//!
//! 1. **Partition** the similarity-sorted entries into `P` contiguous
//!    blocks of near-equal incident-pair weight.
//! 2. **Local pass** (parallel, the dominant cost): each block resolves
//!    its `(vᵢ,vₖ)/(vⱼ,vₖ)` edge pairs through the [`EdgeIndex`] and
//!    compresses its operation stream with a private serial
//!    [`UnionFind`] — an operation that fails locally is connected by
//!    earlier same-block operations and can never survive globally, so
//!    each block emits only a spanning forest of *candidates*
//!    (≤ `m − 1` per block, typically far fewer than its `K₂` share).
//! 3. **Kruskal pass** (serial, `O(C α)` for `C ≤ P·(m − 1)`
//!    candidates): the candidates, in block order — which is rank
//!    order — go to [`KruskalMerges`], and each candidate that joins two
//!    sets becomes the next merge record with its score. This is the
//!    same pass the `threads(1)` pipeline runs
//!    ([`kruskal_sweep_with`](linkclust_core::sweep::kruskal_sweep_with)),
//!    fed the candidates instead of every operation, and the records
//!    (levels, left/right/into labels, per-merge scores) reproduce
//!    Algorithm 2's stream bit-for-bit.
//!
//! Exactness of step 3 rests on the cycle property: a locally-dropped
//! operation closes a cycle in which it carries the maximum rank, so
//! removing it cannot change the minimum spanning forest; and on
//! uniqueness: distinct weights make the MSF — and therefore the
//! survivor set — independent of how it is computed. The serial sweep
//! *is* Kruskal's algorithm on the operation stream (process by
//! ascending rank, keep what connects two components), so Kruskal over
//! the candidates keeps the serial merge set, in the serial order.

use std::ops::Range;

use linkclust_core::dendrogram::Dendrogram;
use linkclust_core::sweep::{KruskalMerges, SweepConfig, SweepOutput};
use linkclust_core::telemetry::{Counter, Phase, Telemetry};
use linkclust_core::unionfind::UnionFind;
use linkclust_core::PairSimilarities;
use linkclust_graph::{EdgeIndex, GraphView};

use crate::pool::{balanced_partition_with_loads, WorkerPool};

/// One union operation that survived its block's local pass. Blocks are
/// contiguous and keep in-block order, so candidates taken in block
/// order are in global sweep rank order.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    /// Slot of edge `(vᵢ, vₖ)` — the first operand of the union.
    s1: u32,
    /// Slot of edge `(vⱼ, vₖ)` — the second operand.
    s2: u32,
    /// Index of the generating entry in the sorted similarity list
    /// (provides the merge score).
    entry: u32,
}

/// Runs the union-find sweep engine: the parallel Phase II that
/// reproduces the serial [`sweep_with`](linkclust_core::sweep::sweep_with)
/// output node-for-node (dendrogram structure, labels, and merge scores
/// compare bit-identical).
///
/// The whole engine runs under one [`Phase::Sweep`] span (so reports
/// stay comparable across engines) with [`Phase::SweepLocal`] and
/// [`Phase::SweepReplay`] sub-spans.
///
/// # Panics
///
/// Panics if `sorted` is unsorted, refers to vertices/edges not in `g`,
/// or exceeds the workspace-wide `u32` id budget (more than `u32::MAX`
/// entries or candidate operations).
#[must_use]
pub fn ufsweep_with<G: GraphView + ?Sized>(
    g: &G,
    sorted: &PairSimilarities,
    config: SweepConfig,
    pool: &WorkerPool,
    telemetry: &Telemetry,
) -> SweepOutput {
    assert!(sorted.is_sorted(), "sweep requires a sorted pair list; call into_sorted()");
    let span = telemetry.span(Phase::Sweep);
    let m = g.edge_count();
    let index = EdgeIndex::for_graph(g);
    let slot_of_edge = config.edge_order.permutation(m);

    // The serial sweep stops at the first entry below the threshold (the
    // list is sorted); mirror that exactly with a linear cutoff.
    let entries = sorted.entries();
    let live_entries = match config.min_similarity {
        Some(theta) => entries.iter().position(|e| e.score < theta).unwrap_or(entries.len()),
        None => entries.len(),
    };
    assert!(u32::try_from(live_entries).is_ok(), "entry count exceeds the u32 id budget");
    let weights: Vec<u64> = entries[..live_entries].iter().map(|e| e.pair_count() as u64).collect();
    let pairs_processed: u64 = weights.iter().sum();

    // Step 1 + 2: weight-balanced contiguous blocks, local candidate
    // passes in parallel, reading the list and the index in place.
    let (ranges, _loads) = balanced_partition_with_loads(&weights, pool.threads());
    let locals: Vec<Vec<Candidate>> = pool.fan_out(ranges, |range| {
        local_candidates(sorted, range, &index, &slot_of_edge, m, telemetry)
    });
    let total: usize = locals.iter().map(Vec::len).sum();
    assert!(u32::try_from(total).is_ok(), "candidate count exceeds the u32 id budget");

    // Step 3: Kruskal's filter and the merge-record replay in one serial
    // pass over the candidates in block (= rank) order.
    let replay_span = telemetry.span(Phase::SweepReplay);
    let mut kruskal = KruskalMerges::new(m);
    for c in locals.iter().flatten() {
        kruskal.offer(c.s1, c.s2, entries[c.entry as usize].score);
    }
    let (merges, scores) = kruskal.into_parts();
    replay_span.finish();

    span.finish();
    telemetry.add(Counter::MergesApplied, merges.len() as u64);
    telemetry.add(Counter::PairsProcessed, pairs_processed);
    let dendrogram = Dendrogram::from_merges(m, merges);
    linkclust_core::invariants::debug_check_dendrogram(&dendrogram);
    SweepOutput::with_scores(dendrogram, slot_of_edge, scores)
}

/// One block's local pass: resolves the block's union operations and
/// compresses them to a spanning forest of candidates with a private
/// serial union-find. Runs on a pool thread under a
/// [`Phase::SweepLocal`] span.
///
/// # Panics
///
/// Panics if an entry's common neighbor has no edge to either endpoint
/// in `index` — that would mean the similarity phase and the edge index
/// disagree about the graph.
fn local_candidates(
    sorted: &PairSimilarities,
    range: Range<usize>,
    index: &EdgeIndex,
    slot_of_edge: &[u32],
    m: usize,
    telemetry: &Telemetry,
) -> Vec<Candidate> {
    let span = telemetry.span(Phase::SweepLocal);
    let mut uf = UnionFind::new(m);
    let mut out = Vec::new();
    for ei in range {
        let entry = &sorted.entries()[ei];
        let (vi, vj) = (entry.pair.first(), entry.pair.second());
        for &vk in sorted.common_neighbors(entry) {
            let e1 = index.edge_between(vi, vk).expect("common neighbor implies edge (vi, vk)");
            let e2 = index.edge_between(vj, vk).expect("common neighbor implies edge (vj, vk)");
            let s1 = slot_of_edge[e1.index()];
            let s2 = slot_of_edge[e2.index()];
            if uf.union(s1 as usize, s2 as usize) {
                out.push(Candidate { s1, s2, entry: ei as u32 });
            }
        }
    }
    span.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_core::init::compute_similarities;
    use linkclust_core::sweep::{sweep, EdgeOrder};
    use linkclust_graph::generate::{gnm, WeightMode};

    fn engine_output(
        g: &linkclust_graph::WeightedGraph,
        config: SweepConfig,
        threads: usize,
    ) -> (SweepOutput, SweepOutput) {
        let sims = compute_similarities(g).into_sorted();
        let serial = sweep(g, &sims, config);
        let par = ufsweep_with(g, &sims, config, &WorkerPool::new(threads), &Telemetry::disabled());
        (serial, par)
    }

    #[test]
    fn matches_serial_bit_for_bit_small() {
        for seed in 0..6 {
            let g = gnm(24, 70, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, seed);
            for threads in [1, 2, 4] {
                let (serial, par) = engine_output(&g, SweepConfig::default(), threads);
                assert_eq!(serial.dendrogram(), par.dendrogram(), "seed {seed} threads {threads}");
                let sb: Vec<u64> = serial.merge_scores().iter().map(|s| s.to_bits()).collect();
                let pb: Vec<u64> = par.merge_scores().iter().map(|s| s.to_bits()).collect();
                assert_eq!(sb, pb, "seed {seed} threads {threads}");
                assert_eq!(serial.slot_of_edge(), par.slot_of_edge());
            }
        }
    }

    #[test]
    fn matches_serial_with_threshold_and_shuffle() {
        let g = gnm(30, 90, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 11);
        let config =
            SweepConfig { edge_order: EdgeOrder::Shuffled { seed: 5 }, min_similarity: Some(0.35) };
        let (serial, par) = engine_output(&g, config, 3);
        assert_eq!(serial.dendrogram(), par.dendrogram());
        assert_eq!(
            serial.merge_scores().iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            par.merge_scores().iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_inputs_are_fine() {
        // At 8 threads the partition is asked for more blocks than there
        // are live entries.
        let g = gnm(4, 2, WeightMode::Unit, 0);
        for threads in [2, 8] {
            let (serial, out) = engine_output(&g, SweepConfig::default(), threads);
            assert_eq!(serial.dendrogram(), out.dendrogram(), "threads {threads}");
        }
    }
}
