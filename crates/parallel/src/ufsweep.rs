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
//! order. Minimum spanning forests are order-free to compute, which
//! breaks the sequential chain:
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
//! 3. **Boundary stitch** (parallel): a Borůvka-style MSF filter over
//!    the concatenated candidates on a lock-free
//!    [`ConcurrentUnionFind`], selecting each component's minimum-rank
//!    incident candidate by `fetch_min` and uniting the winners. With
//!    distinct weights (global candidate order) the MSF is unique, so
//!    the surviving set is *exactly* the serial sweep's merge set.
//! 4. **Replay** (serial, `O(S α)` for `S ≤ m − 1` survivors): the
//!    survivors replayed in rank order through a min-tracking
//!    [`UnionFind`] reproduce the serial [`MergeRecord`] stream —
//!    levels, left/right/into labels, and per-merge scores —
//!    bit-for-bit.
//!
//! Exactness of step 3 rests on the cycle property: a locally-dropped
//! operation closes a cycle in which it carries the maximum rank, so
//! removing it cannot change the minimum spanning forest; and on
//! uniqueness: distinct weights make the MSF — and therefore the
//! survivor set — independent of how it is computed. The serial sweep
//! *is* Kruskal's algorithm on the operation stream (process by
//! ascending rank, keep what connects two components), so MSF =
//! serial merge set.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use linkclust_core::dendrogram::{Dendrogram, MergeRecord};
use linkclust_core::sweep::{SweepConfig, SweepOutput};
use linkclust_core::telemetry::{Counter, Phase, Telemetry};
use linkclust_core::unionfind::{ConcurrentUnionFind, UnionFind};
use linkclust_core::{PairSimilarities, SimilarityEntry};
use linkclust_graph::{EdgeIndex, GraphView};

use crate::pool::{balanced_partition_with_loads, partition_ranges, Task, WorkerPool};

/// One union operation that survived its block's local pass. Its weight
/// in the stitch is its index in the concatenated candidate list, which
/// equals its global sweep rank order (blocks are contiguous and
/// in-block order is preserved).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Candidate {
    /// Slot of edge `(vᵢ, vₖ)` — the first operand of the union.
    pub s1: u32,
    /// Slot of edge `(vⱼ, vₖ)` — the second operand.
    pub s2: u32,
    /// Index of the generating entry in the sorted similarity list
    /// (provides the merge score during replay).
    pub entry: u32,
}

/// Runs the union-find sweep engine: the parallel Phase II that
/// reproduces the serial [`sweep_with`](linkclust_core::sweep::sweep_with)
/// output node-for-node (dendrogram structure, labels, and merge scores
/// compare bit-identical).
///
/// The whole engine runs under one [`Phase::Sweep`] span (so reports
/// stay comparable across engines) with [`Phase::SweepLocal`],
/// [`Phase::SweepStitch`] and [`Phase::SweepReplay`] sub-spans.
///
/// # Panics
///
/// Panics if `sorted` is unsorted, refers to vertices/edges not in `g`,
/// or exceeds the workspace-wide `u32` id budget (more than `u32::MAX`
/// entries or candidate operations).
#[must_use]
pub fn ufsweep_with<G: GraphView + ?Sized>(
    g: &G,
    sorted: &Arc<PairSimilarities>,
    config: SweepConfig,
    pool: &Arc<WorkerPool>,
    telemetry: &Telemetry,
) -> SweepOutput {
    assert!(sorted.is_sorted(), "sweep requires a sorted pair list; call into_sorted()");
    let span = telemetry.span(Phase::Sweep);
    let m = g.edge_count();
    let index = Arc::new(EdgeIndex::for_graph(g));
    let slot_of_edge = Arc::new(config.edge_order.permutation(m));

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
    // passes in parallel on the run's pool.
    let (ranges, _loads) = balanced_partition_with_loads(&weights, pool.threads());
    let locals: Vec<Vec<Candidate>> = pool.run_tasks(
        ranges
            .into_iter()
            .map(|range| {
                let sorted = Arc::clone(sorted);
                let index = Arc::clone(&index);
                let slot_of_edge = Arc::clone(&slot_of_edge);
                let telemetry = telemetry.clone();
                Box::new(move || {
                    local_candidates(&sorted, range, &index, &slot_of_edge, m, &telemetry)
                }) as Task<Vec<Candidate>>
            })
            .collect(),
    );
    let total: usize = locals.iter().map(Vec::len).sum();
    assert!(u32::try_from(total).is_ok(), "candidate count exceeds the u32 id budget");
    let mut candidates = Vec::with_capacity(total);
    for block in locals {
        candidates.extend_from_slice(&block);
    }
    let candidates = Arc::new(candidates);

    // Step 3: the Borůvka MSF filter over the concatenated candidates.
    let stitch_span = telemetry.span(Phase::SweepStitch);
    let survivors = boruvka_filter(m, &candidates, pool);
    stitch_span.finish();

    // Step 4: exact serial replay of the survivors in rank order.
    let replay_span = telemetry.span(Phase::SweepReplay);
    let (merges, scores) = replay_survivors(m, &candidates, &survivors, entries);
    replay_span.finish();

    span.finish();
    telemetry.add(Counter::MergesApplied, merges.len() as u64);
    telemetry.add(Counter::PairsProcessed, pairs_processed);
    let dendrogram = Dendrogram::from_merges(m, merges);
    linkclust_core::invariants::debug_check_dendrogram(&dendrogram);
    let slot_of_edge = Arc::try_unwrap(slot_of_edge).unwrap_or_else(|shared| (*shared).clone());
    SweepOutput::with_scores(dendrogram, slot_of_edge, scores)
}

/// One block's local pass: resolves the block's union operations and
/// compresses them to a spanning forest of candidates with a private
/// serial union-find. Runs on a pool worker under a
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

/// The serial MSF oracle: Kruskal's filter over the candidates in rank
/// order — precisely what the serial sweep computes over the full
/// operation stream. Returns the surviving candidate indices in
/// ascending rank order.
#[must_use]
pub fn kruskal_filter(m: usize, candidates: &[Candidate]) -> Vec<u32> {
    let mut uf = UnionFind::new(m);
    let mut out = Vec::new();
    for (i, c) in candidates.iter().enumerate() {
        if uf.union(c.s1 as usize, c.s2 as usize) {
            out.push(i as u32);
        }
    }
    out
}

/// Sentinel for "no candidate selected yet" in the per-root best slots.
const NO_CANDIDATE: u64 = u64::MAX;

/// Packs a round-stamped selection key: keys from the current round
/// always compare below keys from earlier rounds (higher round → smaller
/// high word), so stale slots lose every `fetch_min` automatically and
/// no reset pass or extra barrier is needed between rounds. Within a
/// round, the low word makes the minimum key the minimum candidate rank.
/// Rounds start at 1 so every key is strictly below [`NO_CANDIDATE`].
const fn stamp(round: u32, ci: u32) -> u64 {
    (((u32::MAX - round) as u64) << 32) | ci as u64
}

/// The parallel Borůvka MSF filter: repeatedly select each component's
/// minimum-rank incident candidate (`fetch_min` on a per-root slot) and
/// unite the winners on a lock-free [`ConcurrentUnionFind`]. With
/// distinct weights the winner set of a round is cycle-free and the
/// final survivor set is the unique MSF — identical to
/// [`kruskal_filter`]. Returns surviving candidate indices in ascending
/// rank order.
///
/// Every pass (select, claim, unite) fans out over the pool; rounds are
/// separated by the pool's own result rendezvous, so the concurrent
/// union-find is the only cross-thread state shared within a pass.
///
/// # Panics
///
/// Panics if a round's claimed winners do not form a forest — impossible
/// for candidate lists produced by the block-local passes (distinct
/// ranks, each component claims its unique minimum), so a panic here
/// means a caller handed in candidates with duplicated ranks.
#[must_use]
pub fn boruvka_filter(m: usize, candidates: &[Candidate], pool: &Arc<WorkerPool>) -> Vec<u32> {
    let cuf = Arc::new(ConcurrentUnionFind::new(m));
    let best: Arc<Vec<AtomicU64>> =
        Arc::new((0..m).map(|_| AtomicU64::new(NO_CANDIDATE)).collect());
    let candidates = Arc::new(candidates.to_vec());
    let mut live: Arc<Vec<u32>> = Arc::new((0..candidates.len() as u32).collect());
    let mut survivors: Vec<u32> = Vec::new();
    let mut round: u32 = 1;
    while !live.is_empty() {
        // Pass 1 (select): resolve each live candidate's roots; drop
        // self-loops, offer the rest to both roots' best slots. Returns
        // the still-open candidates per range.
        let open: Vec<Vec<u32>> = run_over_ranges(pool, live.len(), |range| {
            let live = Arc::clone(&live);
            let candidates = Arc::clone(&candidates);
            let cuf = Arc::clone(&cuf);
            let best = Arc::clone(&best);
            Box::new(move || {
                let mut open = Vec::new();
                for &ci in &live[range] {
                    let c = candidates[ci as usize];
                    let ra = cuf.find(c.s1);
                    let rb = cuf.find(c.s2);
                    if ra == rb {
                        continue;
                    }
                    let key = stamp(round, ci);
                    // The claim pass happens-after every fetch_min via
                    // the pool's result rendezvous (run_tasks join), not
                    // via this RMW's ordering.
                    // ordering: Relaxed is enough, see above.
                    best[ra as usize].fetch_min(key, Ordering::Relaxed);
                    best[rb as usize].fetch_min(key, Ordering::Relaxed);
                    open.push(ci);
                }
                open
            })
        });
        // Pass 2 (claim): a candidate wins if it is the selected minimum
        // of either of its roots (roots are stable — no unites have
        // happened since pass 1). Returns (winners, retained) per range.
        let claimed: Vec<(Vec<u32>, Vec<u32>)> = {
            let open = Arc::new(open);
            run_over_ranges(pool, open.len(), |range| {
                let open = Arc::clone(&open);
                let candidates = Arc::clone(&candidates);
                let cuf = Arc::clone(&cuf);
                let best = Arc::clone(&best);
                Box::new(move || {
                    let (mut winners, mut retained) = (Vec::new(), Vec::new());
                    for chunk in &open[range] {
                        for &ci in chunk {
                            let c = candidates[ci as usize];
                            let key = stamp(round, ci);
                            let ra = cuf.find(c.s1);
                            let rb = cuf.find(c.s2);
                            // Every fetch_min of this round
                            // happens-before these loads via the pool
                            // rendezvous between the passes.
                            // ordering: Relaxed is enough, see above.
                            if best[ra as usize].load(Ordering::Relaxed) == key
                                || best[rb as usize].load(Ordering::Relaxed) == key
                            {
                                winners.push(ci);
                            } else {
                                retained.push(ci);
                            }
                        }
                    }
                    (winners, retained)
                })
            })
        };
        let mut winners: Vec<u32> = Vec::new();
        let mut retained: Vec<u32> = Vec::new();
        for (w, r) in claimed {
            winners.extend_from_slice(&w);
            retained.extend_from_slice(&r);
        }
        debug_assert!(!winners.is_empty() || retained.is_empty(), "open components must select");
        // Pass 3 (unite): winners form a forest (each component claims
        // its unique minimum, distinct weights), so every unite succeeds
        // regardless of thread interleaving — this is the pass the
        // concurrent union-find exists for.
        let winners = Arc::new(winners);
        let united: Vec<usize> = run_over_ranges(pool, winners.len(), |range| {
            let winners = Arc::clone(&winners);
            let candidates = Arc::clone(&candidates);
            let cuf = Arc::clone(&cuf);
            Box::new(move || {
                let mut done = 0usize;
                for &ci in &winners[range] {
                    let c = candidates[ci as usize];
                    assert!(cuf.unite(c.s1, c.s2), "round winners must form a forest");
                    done += 1;
                }
                done
            })
        });
        debug_assert_eq!(united.iter().sum::<usize>(), winners.len());
        survivors.extend_from_slice(&winners);
        live = Arc::new(retained);
        round += 1;
    }
    survivors.sort_unstable();
    survivors
}

/// Fans `f`-built tasks over near-equal ranges of `0..n` on the pool.
/// Zero tasks for `n == 0` (the pool is never bothered).
fn run_over_ranges<T, F>(pool: &Arc<WorkerPool>, n: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Range<usize>) -> Task<T>,
{
    if n == 0 {
        return Vec::new();
    }
    pool.run_tasks(partition_ranges(n, pool.threads()).into_iter().map(f).collect())
}

/// Replays the surviving operations in rank order through a min-tracking
/// serial [`UnionFind`], emitting the exact serial merge stream: level
/// `r` increments per merge, `left`/`right` are the pre-merge cluster
/// ids (set minima) of the two operands, `into` their minimum — the
/// same labels [`ClusterArray::merge`](linkclust_core::ClusterArray::merge)
/// produces in the serial sweep.
fn replay_survivors(
    m: usize,
    candidates: &[Candidate],
    survivors: &[u32],
    entries: &[SimilarityEntry],
) -> (Vec<MergeRecord>, Vec<f64>) {
    let mut uf = UnionFind::new(m);
    let mut merges = Vec::with_capacity(survivors.len());
    let mut scores = Vec::with_capacity(survivors.len());
    for (i, &ci) in survivors.iter().enumerate() {
        let c = candidates[ci as usize];
        let left = uf.min_of(c.s1 as usize);
        let right = uf.min_of(c.s2 as usize);
        let merged = uf.union(c.s1 as usize, c.s2 as usize);
        debug_assert!(merged, "survivors must connect distinct components");
        merges.push(MergeRecord { level: i as u32 + 1, left, right, into: left.min(right) });
        scores.push(entries[c.entry as usize].score);
    }
    (merges, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_core::init::compute_similarities;
    use linkclust_core::sweep::{sweep, EdgeOrder};
    use linkclust_graph::generate::{gnm, WeightMode};

    fn pool(threads: usize) -> Arc<WorkerPool> {
        Arc::new(WorkerPool::new(threads))
    }

    fn engine_output(
        g: &linkclust_graph::WeightedGraph,
        config: SweepConfig,
        threads: usize,
    ) -> (SweepOutput, SweepOutput) {
        let sims = Arc::new(compute_similarities(g).into_sorted());
        let serial = sweep(g, &sims, config);
        let par = ufsweep_with(g, &sims, config, &pool(threads), &Telemetry::disabled());
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
    fn boruvka_equals_kruskal_on_random_candidates() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let p = pool(4);
        for seed in 0..8 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let m = 40usize;
            let candidates: Vec<Candidate> = (0..120)
                .map(|i| Candidate {
                    s1: rng.gen_range(0..m as u32),
                    s2: rng.gen_range(0..m as u32),
                    entry: i,
                })
                .collect();
            assert_eq!(
                boruvka_filter(m, &candidates, &p),
                kruskal_filter(m, &candidates),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        let p = pool(2);
        assert!(boruvka_filter(0, &[], &p).is_empty());
        assert!(kruskal_filter(0, &[]).is_empty());
        let g = gnm(4, 2, WeightMode::Unit, 0);
        let sims = Arc::new(compute_similarities(&g).into_sorted());
        let out = ufsweep_with(&g, &sims, SweepConfig::default(), &p, &Telemetry::disabled());
        let serial = sweep(&g, &sims, SweepConfig::default());
        assert_eq!(serial.dendrogram(), out.dendrogram());
    }

    #[test]
    fn stamp_orders_rounds_before_ranks() {
        // Later rounds produce strictly smaller keys than earlier ones...
        assert!(stamp(2, u32::MAX) < stamp(1, 0));
        // ...and within a round, smaller candidate rank wins.
        assert!(stamp(1, 3) < stamp(1, 4));
        // Every key beats the empty sentinel.
        assert!(stamp(1, u32::MAX) < NO_CANDIDATE);
    }
}
