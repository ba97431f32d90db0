//! Deterministic schedule-permutation harness for the §VI-B combination.
//!
//! The parallel chunk processor combines per-thread copies of the
//! cluster array in whatever order the reduction tree happens to run.
//! Correctness therefore requires the combined partition to be the join
//! of the inputs **regardless of combination order** — exactly the
//! property the paper's first (flawed) combination scheme lacks.
//!
//! This module replays a chunk's per-thread results under explicit
//! combination orders: exhaustively (every permutation) for `T ≤ 4`
//! thread copies, and a seeded sample of permutations above that. Each
//! order is folded with the combination function and compared against
//! the serial join. A divergence is reported with the exact order that
//! produced it, so a failure is replayable.
//!
//! The harness is deliberately generic over the combination function so
//! its own tests can demonstrate that it catches the flawed scheme
//! ([`crate::merge::merge_cluster_arrays_flawed`]) while the corrected
//! one ([`crate::merge::merge_cluster_arrays`]) passes every schedule.

use std::ops::Range;
use std::sync::Arc;

use linkclust_core::coarse::ChunkProcessor;
use linkclust_core::coarse::SerialChunkProcessor;
use linkclust_core::{ClusterArray, PairSimilarities};
use linkclust_graph::{EdgeIndex, GraphView};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::merge::merge_cluster_arrays;
use crate::pool::balanced_partition_by_weight;

/// Exhaustive checking is used up to this many thread copies (4! = 24
/// orders); larger inputs fall back to seeded sampling.
pub const EXHAUSTIVE_LIMIT: usize = 4;

/// How many seeded permutations are sampled beyond the exhaustive limit.
pub const SAMPLED_ORDERS: usize = 48;

/// Outcome of a clean schedule sweep: how many orders ran and whether
/// they covered every permutation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScheduleReport {
    /// Number of combination orders checked.
    pub orders_checked: usize,
    /// `true` if every permutation of the copies was checked.
    pub exhaustive: bool,
}

/// A combination order whose folded result diverged from the join.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScheduleViolation {
    /// The order the copies were folded in (indices into the copy list).
    pub order: Vec<usize>,
    /// Cluster assignments the fold produced.
    pub got: Vec<u32>,
    /// Cluster assignments of the serial join.
    pub expected: Vec<u32>,
}

impl std::fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "combining thread copies in order {:?} produced {:?}, but the serial join is {:?}",
            self.order, self.got, self.expected
        )
    }
}

impl std::error::Error for ScheduleViolation {}

/// The combination orders the harness will replay for `t` copies:
/// every permutation when `t ≤` [`EXHAUSTIVE_LIMIT`], otherwise
/// [`SAMPLED_ORDERS`] seeded shuffles (always including the identity
/// order). The second component reports which case applied.
#[must_use]
pub fn combination_orders(t: usize, seed: u64) -> (Vec<Vec<usize>>, bool) {
    if t <= EXHAUSTIVE_LIMIT {
        (permutations(t), true)
    } else {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut orders = Vec::with_capacity(SAMPLED_ORDERS + 1);
        orders.push((0..t).collect::<Vec<_>>());
        for _ in 0..SAMPLED_ORDERS {
            let mut order: Vec<usize> = (0..t).collect();
            // Fisher–Yates with the seeded generator.
            for i in (1..t).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            orders.push(order);
        }
        (orders, false)
    }
}

/// All permutations of `0..t` in a deterministic order (iterative Heap's
/// algorithm).
fn permutations(t: usize) -> Vec<Vec<usize>> {
    let mut current: Vec<usize> = (0..t).collect();
    let mut out = vec![current.clone()];
    let mut counters = vec![0usize; t];
    let mut i = 0;
    while i < t {
        if counters[i] < i {
            if i % 2 == 0 {
                current.swap(0, i);
            } else {
                current.swap(counters[i], i);
            }
            out.push(current.clone());
            counters[i] += 1;
            i = 0;
        } else {
            counters[i] = 0;
            i += 1;
        }
    }
    out
}

/// Folds `copies` together in every combination order (see
/// [`combination_orders`]) with `combine`, checking each result against
/// `expected`.
///
/// # Errors
///
/// Returns the first diverging order as a [`ScheduleViolation`].
pub fn check_schedules_with<F>(
    copies: &[ClusterArray],
    expected: &ClusterArray,
    seed: u64,
    combine: F,
) -> Result<ScheduleReport, Box<ScheduleViolation>>
where
    F: Fn(&mut ClusterArray, &ClusterArray),
{
    let (orders, exhaustive) = combination_orders(copies.len(), seed);
    let expected_assignments = expected.assignments();
    for order in &orders {
        let mut it = order.iter();
        let Some(&first) = it.next() else { continue };
        let mut acc = copies[first].clone();
        for &k in it {
            combine(&mut acc, &copies[k]);
        }
        let got = acc.assignments();
        if got != expected_assignments {
            return Err(Box::new(ScheduleViolation {
                order: order.clone(),
                got,
                expected: expected_assignments,
            }));
        }
    }
    Ok(ScheduleReport { orders_checked: orders.len(), exhaustive })
}

/// Replays one chunk of the parallel sweep — the entries
/// `sorted.entries()[chunk]` — under permuted combination schedules:
/// splits the chunk into `threads` weight-balanced ranges,
/// processes each range serially on its own copy of `base` (exactly as
/// [`crate::sweep::ParallelChunkProcessor`] does, minus the threads),
/// computes the serial join by processing the whole chunk in order on a
/// single copy, and then checks every combination order of the
/// per-thread copies against it with the **corrected** merge scheme.
///
/// `slot_of_edge` maps edge ids to cluster-array slots (use the identity
/// permutation when replaying outside a sweep).
///
/// # Errors
///
/// Returns the first diverging order as a [`ScheduleViolation`] — which,
/// with the corrected scheme, indicates a bug in the combination.
///
/// # Panics
///
/// Panics if an entry lists a common neighbor with no edge to both
/// endpoints in `g`, i.e. if the entries were computed over a different
/// graph.
pub fn replay_chunk_schedules<G: GraphView + ?Sized>(
    g: &G,
    slot_of_edge: &[u32],
    sorted: &PairSimilarities,
    chunk: Range<usize>,
    base: &ClusterArray,
    threads: usize,
    seed: u64,
) -> Result<ScheduleReport, Box<ScheduleViolation>> {
    let index = Arc::new(EdgeIndex::for_graph(g));
    let weights: Vec<u64> =
        sorted.entries()[chunk.clone()].iter().map(|e| e.pair_count() as u64).collect();
    let ranges = balanced_partition_by_weight(&weights, threads);
    let copies: Vec<ClusterArray> = ranges
        .into_iter()
        .map(|r| {
            let mut local = base.clone();
            let r = chunk.start + r.start..chunk.start + r.end;
            let _ =
                SerialChunkProcessor.process_entries(&index, slot_of_edge, sorted, r, &mut local);
            local
        })
        .collect();
    let mut serial = base.clone();
    let _ = SerialChunkProcessor.process_entries(&index, slot_of_edge, sorted, chunk, &mut serial);
    check_schedules_with(&copies, &serial, seed, merge_cluster_arrays)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_cluster_arrays_flawed;
    use linkclust_core::init::compute_similarities;
    use linkclust_graph::generate::{barabasi_albert, gnm, planted_partition, ring, WeightMode};
    use linkclust_graph::WeightedGraph;

    #[test]
    fn permutation_count_is_factorial() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(2).len(), 2);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(4).len(), 24);
        // Every permutation distinct.
        let mut p4 = permutations(4);
        p4.sort();
        p4.dedup();
        assert_eq!(p4.len(), 24);
    }

    #[test]
    fn sampled_orders_are_deterministic_and_include_identity() {
        let (a, exhaustive_a) = combination_orders(6, 99);
        let (b, _) = combination_orders(6, 99);
        assert_eq!(a, b, "same seed must give the same schedule sample");
        assert!(!exhaustive_a);
        assert_eq!(a[0], vec![0, 1, 2, 3, 4, 5]);
        let (c, _) = combination_orders(6, 100);
        assert_ne!(a, c, "different seeds should explore different orders");
    }

    /// The paper's §VI-B counterexample, replayed through the harness:
    /// the corrected scheme passes every order, the flawed scheme is
    /// caught.
    #[test]
    fn harness_catches_the_flawed_merge_on_the_paper_counterexample() {
        let copies = [
            ClusterArray::from_parents(vec![0, 1, 1, 0]),
            ClusterArray::from_parents(vec![0, 1, 2, 2]),
        ];
        let expected = ClusterArray::from_parents(vec![0, 0, 0, 0]);

        let report = check_schedules_with(&copies, &expected, 0, |a, b| {
            merge_cluster_arrays(a, b);
        })
        .expect("corrected scheme is order-independent");
        assert_eq!(report, ScheduleReport { orders_checked: 2, exhaustive: true });

        let violation = check_schedules_with(&copies, &expected, 0, |a, b| {
            merge_cluster_arrays_flawed(a, b);
        })
        .expect_err("the flawed scheme must be caught");
        assert_eq!(violation.expected, vec![0, 0, 0, 0]);
        assert_ne!(violation.got, violation.expected);
    }

    fn replay_family(g: &WeightedGraph, label: &str) {
        let sims = compute_similarities(g).into_sorted();
        let slot_of_edge: Vec<u32> = (0..g.edge_count() as u32).collect();
        let base = ClusterArray::new(g.edge_count());
        for threads in 2..=4 {
            let report =
                replay_chunk_schedules(g, &slot_of_edge, &sims, 0..sims.len(), &base, threads, 7)
                    .unwrap_or_else(|v| panic!("{label} with {threads} threads: {v}"));
            assert!(report.exhaustive, "{label}: T = {threads} must be exhaustive");
            assert!(report.orders_checked >= 2, "{label}: no orders replayed");
        }
    }

    #[test]
    fn gnm_chunks_are_schedule_independent() {
        replay_family(&gnm(40, 110, WeightMode::Unit, 11), "gnm");
    }

    #[test]
    fn barabasi_albert_chunks_are_schedule_independent() {
        replay_family(
            &barabasi_albert(45, 3, WeightMode::Uniform { lo: 0.5, hi: 1.5 }, 5),
            "barabasi_albert",
        );
    }

    #[test]
    fn planted_partition_chunks_are_schedule_independent() {
        replay_family(&planted_partition(4, 12, 0.6, 0.05, 23).graph, "planted");
    }

    #[test]
    fn ring_chunks_are_schedule_independent() {
        replay_family(&ring(30, WeightMode::Unit, 3), "ring");
    }

    #[test]
    fn mid_chunk_base_is_schedule_independent() {
        // Replay from a non-trivial base partition (a chunk mid-sweep).
        let g = gnm(36, 90, WeightMode::Unit, 17);
        let sims = compute_similarities(&g).into_sorted();
        let slot_of_edge: Vec<u32> = (0..g.edge_count() as u32).collect();
        let mut base = ClusterArray::new(g.edge_count());
        let half = sims.len() / 2;
        let index = Arc::new(EdgeIndex::for_graph(&g));
        let _ =
            SerialChunkProcessor.process_entries(&index, &slot_of_edge, &sims, 0..half, &mut base);
        let report =
            replay_chunk_schedules(&g, &slot_of_edge, &sims, half..sims.len(), &base, 4, 29)
                .unwrap_or_else(|v| panic!("mid-chunk replay: {v}"));
        assert!(report.exhaustive);
    }

    #[test]
    fn sampled_mode_kicks_in_above_the_exhaustive_limit() {
        let g = gnm(30, 70, WeightMode::Unit, 41);
        let sims = compute_similarities(&g).into_sorted();
        let slot_of_edge: Vec<u32> = (0..g.edge_count() as u32).collect();
        let base = ClusterArray::new(g.edge_count());
        let report = replay_chunk_schedules(&g, &slot_of_edge, &sims, 0..sims.len(), &base, 6, 13)
            .unwrap_or_else(|v| panic!("sampled replay: {v}"));
        assert!(!report.exhaustive);
        assert_eq!(report.orders_checked, SAMPLED_ORDERS + 1);
    }
}
