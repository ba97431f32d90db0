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
//!    (≤ `m − c` per block, typically far fewer than its `K₂` share).
//! 3. **Kruskal pass** (serial, `O(C α)` for `C` candidates): the
//!    candidates, in block order — which is rank order — go to
//!    [`KruskalMerges`], and each candidate that joins two sets becomes
//!    the next merge record with its score. This is the same pass the
//!    `threads(1)` pipeline runs
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
//!
//! **The stop rule.** The merge forest is complete after `m − c`
//! merges, where `c` counts the components of `G` that have an edge
//! (see [`linkclust_core::sweep`]). All three steps stop there:
//!
//! - A block whose own union-find has made `m − c` unions stops: every
//!   later operation in it closes a local cycle, so it can emit no
//!   further candidate.
//! - That block's candidates alone span every component, so the
//!   Kruskal pass completes the forest before it reads any later block.
//!   The first complete block marks an [`ItemCutoff`], and every later
//!   block stops after its next union.
//! - The Kruskal pass stops at the `m − c`-th merge, so it never reads
//!   the partial candidates of a block that was cut.
//!
//! On a dense word-association graph the forest is complete after a
//! few percent of the wedges, so step 3 reads only the first block's
//! candidates and step 2's first block stops early; on sparse graphs
//! the last merge comes late and little changes.

use std::ops::Range;

use linkclust_core::dendrogram::Dendrogram;
use linkclust_core::sweep::{KruskalMerges, SweepConfig, SweepOutput};
use linkclust_core::telemetry::{Counter, Phase, Telemetry};
use linkclust_core::unionfind::UnionFind;
use linkclust_core::PairSimilarities;
use linkclust_graph::algo::edge_component_count;
use linkclust_graph::{EdgeIndex, GraphView};

use crate::pool::{balanced_partition_with_loads, ItemCutoff, WorkerPool};

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
/// compare bit-identical). Every step stops once the merge forest is
/// complete (the module's stop rule).
///
/// The whole engine runs under one [`Phase::Sweep`] span (so reports
/// stay comparable across engines) with [`Phase::SweepSetup`] (edge
/// index, component count, slot permutation, block partition),
/// [`Phase::SweepLocal`] and [`Phase::SweepReplay`] sub-spans. [`Counter::PairsProcessed`] counts
/// what the `threads(1)` pass counts: the incident pairs of every entry
/// up to and including the one whose operation completes the forest,
/// or of every live entry if the forest is never completed.
///
/// # Panics
///
/// Panics if `sorted` is unsorted, if an entry it reads refers to
/// vertices/edges not in `g`, or if it exceeds the workspace-wide `u32`
/// id budget (more than `u32::MAX` entries or candidate operations).
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
    let setup_span = telemetry.span(Phase::SweepSetup);
    let m = g.edge_count();
    let target = m - edge_component_count(g);
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

    // Step 1 + 2: weight-balanced contiguous blocks, local candidate
    // passes in parallel, reading the list and the index in place.
    let (ranges, _loads) = balanced_partition_with_loads(&weights, pool.threads());
    setup_span.finish();
    let cutoff = ItemCutoff::new();
    let local = LocalPass {
        sorted,
        index: &index,
        slot_of_edge: &slot_of_edge,
        target,
        cutoff: &cutoff,
        telemetry,
    };
    let locals: Vec<Vec<Candidate>> = pool
        .fan_out(ranges.into_iter().enumerate().collect(), |(block, range)| {
            local.candidates(block, range)
        });
    let total: usize = locals.iter().map(Vec::len).sum();
    assert!(u32::try_from(total).is_ok(), "candidate count exceeds the u32 id budget");

    // Step 3: Kruskal's filter and the merge-record replay in one serial
    // pass over the candidates in block (= rank) order, up to the merge
    // that completes the forest.
    let replay_span = telemetry.span(Phase::SweepReplay);
    let mut kruskal = KruskalMerges::with_target(m, target);
    let mut swept_entries = live_entries;
    for c in locals.iter().flatten() {
        if kruskal.offer(c.s1, c.s2, entries[c.entry as usize].score) && kruskal.is_complete() {
            swept_entries = c.entry as usize + 1;
            break;
        }
    }
    let (merges, scores) = kruskal.into_parts();
    replay_span.finish();

    span.finish();
    telemetry.add(Counter::MergesApplied, merges.len() as u64);
    telemetry.add(Counter::PairsProcessed, weights[..swept_entries].iter().sum());
    let dendrogram = Dendrogram::from_merges(m, merges);
    linkclust_core::invariants::debug_check_dendrogram(&dendrogram);
    SweepOutput::with_scores(dendrogram, slot_of_edge, scores)
}

/// What every block's local pass reads: the list, the edge index and
/// the slot permutation by reference, the number of merges that
/// completes the forest, and the dispatch's shared cutoff.
struct LocalPass<'a> {
    sorted: &'a PairSimilarities,
    index: &'a EdgeIndex,
    slot_of_edge: &'a [u32],
    /// `m − c`: the unions after which a union-find over the `m` slots
    /// can make no more.
    target: usize,
    cutoff: &'a ItemCutoff,
    telemetry: &'a Telemetry,
}

impl LocalPass<'_> {
    /// One block's local pass: resolves the block's union operations and
    /// compresses them to a spanning forest of candidates with a private
    /// serial union-find. Runs on a pool thread under a
    /// [`Phase::SweepLocal`] span.
    ///
    /// The pass stops as soon as its union-find has made `target`
    /// unions, and marks the cutoff with its block index. After every
    /// union it also stops if an earlier block has marked the cutoff.
    /// Both checks sit on the union path, not on every operation: a
    /// block whose forest is still growing makes unions often, and on a
    /// sparse list, where most operations are visited, a per-entry check
    /// cost about 5% of the pass. Each candidate is one union, so the
    /// candidate count is the union count.
    ///
    /// # Panics
    ///
    /// Panics if an entry's common neighbor has no edge to either
    /// endpoint in the index — that would mean the similarity phase and
    /// the edge index disagree about the graph.
    fn candidates(&self, block: usize, range: Range<usize>) -> Vec<Candidate> {
        let span = self.telemetry.span(Phase::SweepLocal);
        let mut uf = UnionFind::new(self.slot_of_edge.len());
        let mut out = Vec::new();
        'entries: for ei in range {
            let entry = &self.sorted.entries()[ei];
            let (vi, vj) = (entry.pair.first(), entry.pair.second());
            for &vk in self.sorted.common_neighbors(entry) {
                let e1 =
                    self.index.edge_between(vi, vk).expect("common neighbor implies edge (vi, vk)");
                let e2 =
                    self.index.edge_between(vj, vk).expect("common neighbor implies edge (vj, vk)");
                let s1 = self.slot_of_edge[e1.index()];
                let s2 = self.slot_of_edge[e2.index()];
                if uf.union(s1 as usize, s2 as usize) {
                    out.push(Candidate { s1, s2, entry: ei as u32 });
                    if out.len() == self.target {
                        self.cutoff.mark(block);
                        break 'entries;
                    }
                    if self.cutoff.cuts(block) {
                        break 'entries;
                    }
                }
            }
        }
        span.finish();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::LinkClustering;
    use linkclust_core::init::compute_similarities;
    use linkclust_core::sweep::{sweep, sweep_with, EdgeOrder};
    use linkclust_graph::generate::{complete, gnm, WeightMode};
    use linkclust_graph::{CsrGraph, EdgeId, GraphBuilder, VertexId, WeightedGraph};

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

    const THREADS: [usize; 5] = [1, 2, 3, 5, 8];

    /// The disjoint union of `parts`, followed by `isolated` vertices
    /// with no edge.
    fn disjoint_union(parts: &[WeightedGraph], isolated: usize) -> WeightedGraph {
        let n: usize = parts.iter().map(GraphView::vertex_count).sum();
        let mut b = GraphBuilder::with_vertices(n + isolated);
        let mut offset = 0;
        for part in parts {
            for e in (0..part.edge_count()).map(EdgeId::new) {
                let (u, v) = part.edge_endpoints(e);
                let (u, v) = (VertexId::new(u.index() + offset), VertexId::new(v.index() + offset));
                b.add_edge(u, v, part.edge_weight(e)).expect("the parts' edges are valid");
            }
            offset += part.vertex_count();
        }
        b.build()
    }

    /// Inputs whose merge forest completes before the end of `L`: a
    /// disconnected graph with isolated vertices, and two dense graphs.
    fn stop_inputs() -> Vec<(String, WeightedGraph)> {
        let w = WeightMode::Uniform { lo: 0.2, hi: 2.0 };
        let mut out = Vec::new();
        for seed in [1, 3] {
            let parts = [gnm(20, 60, w, seed), gnm(15, 40, w, seed + 10)];
            out.push((format!("two gnm + isolated, seed {seed}"), disjoint_union(&parts, 5)));
            out.push((format!("complete(16), seed {seed}"), complete(16, w, seed)));
            out.push((format!("gnm(30, 300), seed {seed}"), gnm(30, 300, w, seed)));
        }
        out
    }

    /// For each block of a `threads`-way partition, whether its local
    /// pass completes the forest on its own (each block gets its own
    /// cutoff, so no block is cut).
    fn blocks_completing(g: &WeightedGraph, threads: usize) -> Vec<bool> {
        let sims = compute_similarities(g).into_sorted();
        let index = EdgeIndex::for_graph(g);
        let slot_of_edge = EdgeOrder::Insertion.permutation(g.edge_count());
        let target = g.edge_count() - edge_component_count(g);
        let weights: Vec<u64> = sims.entries().iter().map(|e| e.pair_count() as u64).collect();
        let (ranges, _) = balanced_partition_with_loads(&weights, threads);
        ranges
            .into_iter()
            .enumerate()
            .map(|(block, range)| {
                let cutoff = ItemCutoff::new();
                let local = LocalPass {
                    sorted: &sims,
                    index: &index,
                    slot_of_edge: &slot_of_edge,
                    target,
                    cutoff: &cutoff,
                    telemetry: &Telemetry::disabled(),
                };
                local.candidates(block, range).len() == target
            })
            .collect()
    }

    /// The inputs reach every way the engine can stop: the first block
    /// completes its forest, a later block is the first to complete it
    /// (the blocks after it are cut), and no block does (only the
    /// Kruskal pass stops).
    #[test]
    fn stop_inputs_cover_every_way_to_stop() {
        let mut seen = [false; 3];
        for (_, g) in stop_inputs() {
            for threads in [2, 3, 5, 8] {
                let first = blocks_completing(&g, threads).iter().position(|&done| done);
                seen[match first {
                    Some(0) => 0,
                    Some(_) => 1,
                    None => 2,
                }] = true;
            }
        }
        assert_eq!(seen, [true; 3], "first block, a later block, no block");
    }

    /// Bit-identity with Algorithm 2 where the stop rule fires, through
    /// the facade at every thread count (the Kruskal pass at 1, this
    /// engine above), on both graph backends. Both engines also record
    /// the same merge and processed-pair counts.
    #[test]
    fn stop_rule_is_bit_identical_to_algorithm_2() {
        let orders = [EdgeOrder::Insertion, EdgeOrder::Shuffled { seed: 5 }];
        for (name, g) in stop_inputs() {
            let csr = CsrGraph::from_weighted(&g);
            let sims = compute_similarities(&g).into_sorted();
            let target = (g.edge_count() - edge_component_count(&g)) as u64;
            for (edge_order, min_similarity) in orders
                .into_iter()
                .flat_map(|o| [None, Some(0.3), Some(0.6), Some(2.0)].map(|t| (o, t)))
            {
                let config = SweepConfig { edge_order, min_similarity };
                let oracle = sweep_with(&g, &sims, config, &Telemetry::disabled());
                if min_similarity.is_none() {
                    assert_eq!(oracle.dendrogram().merge_count(), target, "{name}");
                }
                let oracle_bits: Vec<u64> =
                    oracle.merge_scores().iter().map(|s| s.to_bits()).collect();
                let mut counts = None;
                for threads in THREADS {
                    let mut facade =
                        LinkClustering::new().threads(threads).edge_order(edge_order).stats(true);
                    if let Some(theta) = min_similarity {
                        facade = facade.min_similarity(theta);
                    }
                    let runs = [facade.run(&g), facade.run(&csr)];
                    for (backend, r) in ["adjacency", "csr"].into_iter().zip(runs) {
                        let r = r.expect("valid configuration");
                        let at = format!("{name} {config:?} t={threads} {backend}");
                        let out = r.output();
                        assert_eq!(out.dendrogram(), oracle.dendrogram(), "{at}");
                        let bits: Vec<u64> =
                            out.merge_scores().iter().map(|s| s.to_bits()).collect();
                        assert_eq!(bits, oracle_bits, "{at}");
                        assert_eq!(out.slot_of_edge(), oracle.slot_of_edge(), "{at}");
                        let report = r.report().expect("stats(true) attaches a report");
                        let seen = (
                            report.counter(Counter::MergesApplied),
                            report.counter(Counter::PairsProcessed),
                        );
                        assert_eq!(*counts.get_or_insert(seen), seen, "{at}");
                    }
                }
            }
        }
    }
}
