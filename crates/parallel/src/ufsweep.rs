//! [`ufsweep_with`]: the exact sweep under the name perfbench's
//! two-thread layer timings import.
//!
//! The exact fine-grained sweep is one Kruskal pass at every thread
//! count: it stops once the merge forest is complete, which on dense
//! graphs is a few percent of `L`, so a parallel pre-filter of `L` has
//! too little left to save (DESIGN.md, "One exact sweep").
//! [`LinkClustering::run`](crate::LinkClustering::run) makes it over the
//! unsorted list
//! ([`filter_kruskal_sweep`](linkclust_core::sweep::filter_kruskal_sweep));
//! this shim runs [`kruskal_sweep_with`], the same pass over a sorted
//! list, with the same output. The paper's parallel sweep (§VI-B) is the
//! coarse chunk pipeline of [`crate::sweep`].

use linkclust_core::sweep::{kruskal_sweep_with, SweepConfig, SweepOutput};
use linkclust_core::telemetry::Telemetry;
use linkclust_core::PairSimilarities;
use linkclust_graph::GraphView;

use crate::pool::WorkerPool;

/// [`kruskal_sweep_with`], the Kruskal pass over a sorted list whose
/// output [`LinkClustering::run`](crate::LinkClustering::run)'s sweep
/// equals at every thread count. The pool is accepted for perfbench's
/// call site and is not used.
///
/// # Panics
///
/// As [`kruskal_sweep_with`]: if `sorted` is unsorted, or if an entry
/// it reads refers to vertices or edges not in `g`.
#[must_use]
pub fn ufsweep_with<G: GraphView + ?Sized>(
    g: &G,
    sorted: &PairSimilarities,
    config: SweepConfig,
    _pool: &WorkerPool,
    telemetry: &Telemetry,
) -> SweepOutput {
    kruskal_sweep_with(g, sorted, config, telemetry)
}
