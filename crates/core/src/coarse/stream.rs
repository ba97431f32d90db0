//! The coarse dendrogram as a view of the exact merge stream.
//!
//! The partition after a prefix of `L` does not depend on how the prefix
//! was chunked. A single-linkage dendrogram is Kruskal's order over the
//! minimum spanning forest, so every level the mode machine asks for is
//! a prefix of the one merge stream that
//! [`kruskal_sweep_with`](crate::sweep::kruskal_sweep_with) produces. The
//! stream engine runs that pass, [`KruskalMerges`] over the same union
//! operations in the same order, and records the entry of `L` each merge
//! came from. Then:
//!
//! * β′ after the first `q` entries is `m −` the number of merges from
//!   entries before `q`: a binary search over the recorded entries,
//!   which never decrease;
//! * a rollback saves only `(q, ξ, β′)`, and a reuse moves the committed
//!   prefix boundary;
//! * the merges of a committed level are the stream's merges from the
//!   entries between the level's two prefix boundaries.
//!
//! The pass is extended lazily, only as far as an attempted chunk
//! reaches, so the φ-stop still leaves the tail of `L` unread. It stops
//! reading once the merge forest is complete (`m − c` merges, `c` the
//! components with an edge): β′ then stays `c`, so the φ-stop and the
//! forest stop compose. Every [`EpochRecord`](super::EpochRecord) is a
//! function of prefix positions and β′, so the trajectory equals the
//! chunk pipeline's ([`coarse_sweep`](super::coarse_sweep)): the same
//! epochs, levels, processed pairs and partition at every level, without
//! a copy of array `C` per epoch or per saved state.

use std::ops::Range;

use linkclust_graph::algo::edge_component_count;
use linkclust_graph::GraphView;

use crate::dendrogram::MergeRecord;
use crate::similarity::PairSimilarities;
use crate::sweep::{EdgeOrder, KruskalMerges};
use crate::telemetry::{Counter, Phase, Telemetry};

use super::engine::{drive, Engine};
use super::epoch::SavedEpoch;
use super::{check_inputs, CoarseConfig, CoarseResult};

/// Runs the coarse-grained sweep of §V as a view of the exact merge
/// stream: [`coarse_sweep`](super::coarse_sweep)'s mode machine, answered
/// by one lazily extended Kruskal pass over `L` instead of chunks applied
/// to array `C` (see the [module docs](self)).
///
/// The result equals [`coarse_sweep`](super::coarse_sweep)'s in its
/// epochs, levels, processed fraction, slot permutation and partition
/// at every level. The merges of a reused level may be listed in another
/// order. The clustering facade's `run_coarse` runs this engine at
/// every thread count.
///
/// Telemetry: the mode machine's spans and counters as
/// [`coarse_sweep_instrumented`](super::coarse_sweep_instrumented)
/// records them. The pass runs under [`Phase::Sweep`] spans, one for its
/// set-up (with a [`Phase::SweepSetup`] sub-span over the component count
/// and the slot permutation) and one per attempt that reads entries, and
/// [`Counter::IntersectedDegrees`] sums `d(vᵢ) + d(vⱼ)` over the
/// multi-wedge entries it read.
///
/// # Panics
///
/// As [`coarse_sweep`](super::coarse_sweep).
///
/// # Examples
///
/// ```
/// use linkclust_graph::generate::{gnm, WeightMode};
/// use linkclust_core::init::compute_similarities;
/// use linkclust_core::coarse::{coarse_sweep, stream_coarse_sweep, CoarseConfig};
/// use linkclust_core::telemetry::Telemetry;
///
/// let g = gnm(40, 150, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 7);
/// let sims = compute_similarities(&g).into_sorted();
/// let cfg = CoarseConfig { phi: 10, initial_chunk: 8, ..Default::default() };
/// let stream = stream_coarse_sweep(&g, &sims, cfg, &Telemetry::disabled());
/// let chunks = coarse_sweep(&g, &sims, cfg);
/// assert_eq!(stream.epochs(), chunks.epochs());
/// assert_eq!(stream.levels(), chunks.levels());
/// ```
pub fn stream_coarse_sweep<G: GraphView + ?Sized>(
    g: &G,
    sorted: &PairSimilarities,
    config: CoarseConfig,
    telemetry: &Telemetry,
) -> CoarseResult {
    check_inputs(g, sorted, &config);
    let stream = MergeStream::new(g, sorted, config.edge_order, telemetry);
    drive(stream, sorted, g.edge_count(), &config, telemetry)
}

/// The stream engine: a Kruskal pass over a prefix of `L`, and the two
/// prefix boundaries the mode machine stands at.
struct MergeStream<'a, G: ?Sized> {
    g: &'a G,
    sorted: &'a PairSimilarities,
    telemetry: &'a Telemetry,
    slot_of_edge: Vec<u32>,
    kruskal: KruskalMerges,
    /// The entry of `L` each merge of `kruskal` came from; never
    /// decreases.
    merge_entry: Vec<u32>,
    /// Entries read so far, a prefix of `L`.
    read: usize,
    /// `Σ (dᵢ + dⱼ)` over the multi-wedge entries read.
    intersected: u64,
    /// The committed prefix boundary `p`.
    committed: usize,
    /// The end of the attempted chunk, `q`; `p` outside an attempt.
    attempted: usize,
}

impl<'a, G: GraphView + ?Sized> MergeStream<'a, G> {
    fn new(
        g: &'a G,
        sorted: &'a PairSimilarities,
        edge_order: EdgeOrder,
        telemetry: &'a Telemetry,
    ) -> Self {
        let span = telemetry.span(Phase::Sweep);
        let setup = telemetry.span(Phase::SweepSetup);
        let m = g.edge_count();
        let slot_of_edge = edge_order.permutation(m);
        let kruskal = KruskalMerges::with_target(m, m - edge_component_count(g));
        setup.finish();
        span.finish();
        MergeStream {
            g,
            sorted,
            telemetry,
            slot_of_edge,
            kruskal,
            merge_entry: Vec::new(),
            read: 0,
            intersected: 0,
            committed: 0,
            attempted: 0,
        }
    }

    /// Reads entries of `L` until `q` are read or the forest is
    /// complete.
    ///
    /// # Panics
    ///
    /// Panics if `L` has 2³² entries or more (merges record their entry
    /// as a `u32`).
    fn extend_to(&mut self, q: usize) {
        if self.read >= q || self.kruskal.is_complete() {
            return;
        }
        let telemetry = self.telemetry;
        let span = telemetry.span(Phase::Sweep);
        let entries = self.sorted.entries();
        while self.read < q && !self.kruskal.is_complete() {
            let entry = &entries[self.read];
            self.intersected += self.kruskal.offer_entry(self.g, &self.slot_of_edge, entry);
            let index = u32::try_from(self.read).expect("L has fewer than 2^32 entries");
            self.merge_entry.resize(self.kruskal.merges().len(), index);
            self.read += 1;
        }
        span.finish();
    }

    /// The number of merges the first `q` entries of `L` make.
    fn merges_before(&self, q: usize) -> usize {
        // cast: u32 entry indices to usize, lossless on 32- and 64-bit.
        self.merge_entry.partition_point(|&e| (e as usize) < q)
    }
}

impl<G: GraphView + ?Sized> Engine for MergeStream<'_, G> {
    type State = ();

    fn attempt(&mut self, chunk: Range<usize>) -> usize {
        debug_assert_eq!(chunk.start, self.committed, "a chunk starts at the committed prefix");
        self.extend_to(chunk.end);
        self.attempted = chunk.end;
        self.slot_of_edge.len() - self.merges_before(chunk.end)
    }

    fn roll_back(&mut self) {
        self.attempted = self.committed;
    }

    fn commit(&mut self, level: u32, merges: &mut Vec<MergeRecord>) {
        let made = self.merges_before(self.committed)..self.merges_before(self.attempted);
        merges.extend(self.kruskal.merges()[made].iter().map(|&m| MergeRecord { level, ..m }));
        self.committed = self.attempted;
    }

    fn jump(&mut self, to: SavedEpoch<()>, level: u32, merges: &mut Vec<MergeRecord>) {
        self.attempted = to.entry_index;
        self.commit(level, merges);
    }

    fn finish(self) -> Vec<u32> {
        self.telemetry.add(Counter::IntersectedDegrees, self.intersected);
        self.slot_of_edge
    }
}
