//! Multi-threaded link clustering (§VI of the paper).
//!
//! Parallelizes both phases of the serial algorithm on shared-memory
//! multi-core machines:
//!
//! * **Initialization** ([`init`]) — the three passes of Algorithm 1:
//!   vertex ranges in parallel (pass 1), owner-sharded accumulation into
//!   flat arena-backed tables — producers route records to the owner of
//!   each pair's first vertex; no cross-thread map merge (pass 2) — and
//!   disjoint entry ranges (pass 3).
//! * **Sweeping** ([`sweep`]) — each coarse-grained chunk is partitioned
//!   across `T` threads, each merging into its own copy of the cluster
//!   array `C`; the copies are then combined pairwise ([`merge`]) with
//!   the corrected chain-union scheme (the paper devotes §VI-B to why the
//!   naive scheme is flawed — both schemes are implemented here, and the
//!   flaw is reproduced in a test).
//!
//! Every parallel phase — the init passes and each coarse chunk with
//! its combine rounds — is one scoped dispatch,
//! [`pool::WorkerPool::fan_out`], whose threads borrow the caller's
//! graph, similarity list and scratch arrays in place; nothing is copied
//! into a task. The exact fine-grained sweep stays one serial Kruskal
//! pass at every thread count: it stops once the merge forest is
//! complete, so there is little left of `L` to share out. The entry
//! point is the unified [`LinkClustering`] facade: serial by default,
//! parallel via `.threads(n)`, with optional phase-level telemetry via
//! `.stats(true)`.
//!
//! # Examples
//!
//! ```
//! use linkclust_graph::generate::{gnm, WeightMode};
//! use linkclust_core::coarse::CoarseConfig;
//! use linkclust_parallel::LinkClustering;
//!
//! let g = gnm(40, 160, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 3);
//! let cfg = CoarseConfig { phi: 10, initial_chunk: 16, ..Default::default() };
//! let result = LinkClustering::new().threads(4).stats(true).run_coarse(&g, cfg)?;
//! assert!(result.dendrogram().merge_count() > 0);
//! let report = result.report().expect("stats(true) attaches a report");
//! assert!(report.phase_calls(linkclust_core::telemetry::Phase::Sort) == 1);
//! # Ok::<(), linkclust_core::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod facade;
pub mod init;
pub mod merge;
pub mod pool;
pub mod schedule;
pub mod sort;
pub mod sweep;
pub mod ufsweep;

pub use facade::{ClusteringResult, LinkClustering};
pub use init::compute_similarities_parallel;
pub use pool::WorkerPool;
pub use sweep::{parallel_coarse_sweep, parallel_coarse_sweep_shared, ParallelChunkProcessor};
