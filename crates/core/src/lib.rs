//! Efficient link clustering (Yan, ICDCS 2017).
//!
//! *Link clustering* (Ahn, Bagrow & Lehmann, Nature 2010) groups the
//! **edges** of a graph by single-linkage hierarchical clustering under the
//! Tanimoto similarity of incident edges, revealing overlapping and
//! hierarchical community structure. Applied naively, the optimally
//! efficient generic clusterer (SLINK / next-best-merge) costs O(|E|²)
//! time and space — prohibitive for large graphs.
//!
//! This crate implements the paper's three improvements:
//!
//! * **Algorithm** ([`init`], [`sweep`]) — a two-phase serial algorithm.
//!   Phase I traverses the graph three times to compute, for every vertex
//!   pair with a common neighbor, the similarity shared by *all* the edge
//!   pairs they induce (the paper's key observation: Eq. 1 depends only on
//!   the endpoint vectors aᵢ, aⱼ, not the common neighbor). Phase II
//!   sweeps the similarity-sorted pair list, merging edge clusters through
//!   the chain array `C`. Total cost O(|V| + K₁ log K₁ + √K₂·|E|) time
//!   and O(K₂ + |E|) space (Theorem 2).
//! * **Modeling** ([`coarse`], [`model`]) — coarse-grained dendrograms:
//!   the sorted list is processed in adaptively sized chunks whose merge
//!   rate between consecutive levels is bounded by γ, driven by a
//!   head/tail/rollback mode machine with slope-extrapolated chunk sizes
//!   (the cluster-count decay is sigmoid in log level id, §V).
//! * **Baselines** ([`baseline`]) — the standard O(n²) next-best-merge
//!   single-linkage clusterer the paper compares against (§VII-A), plus
//!   the MST-based formulation of Gower & Ross.
//!
//! Parallel (multi-core) versions of both phases live in the companion
//! `linkclust-parallel` crate, whose unified `LinkClustering` facade
//! (with a `.threads(n)` builder) supersedes the serial facade here for
//! most callers.
//!
//! # Quickstart
//!
//! ```
//! use linkclust_graph::GraphBuilder;
//! use linkclust_core::LinkClustering;
//!
//! // Two triangles sharing a vertex: the triangles merge internally
//! // first, and the density-optimal cut recovers them as two link
//! // communities.
//! let g = GraphBuilder::from_edges(5, &[
//!     (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
//!     (2, 3, 1.0), (3, 4, 1.0), (2, 4, 1.0),
//! ])?.build();
//! let result = LinkClustering::new().run(&g);
//! let cut = result.dendrogram().best_density_cut(&g).unwrap();
//! assert_eq!(cut.cluster_count, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Every phase can report where its time went ([`telemetry`]); invalid
//! configurations surface as [`ConfigError`] values instead of panics:
//!
//! ```
//! use linkclust_graph::generate::{gnm, WeightMode};
//! use linkclust_core::coarse::CoarseConfig;
//! use linkclust_core::telemetry::Counter;
//! use linkclust_core::{ConfigError, LinkClustering};
//!
//! let g = gnm(50, 200, WeightMode::Unit, 7);
//! let cfg = CoarseConfig::builder().phi(5).initial_chunk(16).build()?;
//! let r = LinkClustering::new().stats(true).run_coarse(&g, cfg)?;
//! let report = r.report().expect("stats(true) attaches a report");
//! assert_eq!(report.counter(Counter::MergesApplied), r.dendrogram().merge_count());
//! assert_eq!(
//!     CoarseConfig::builder().phi(0).build(),
//!     Err(ConfigError::ZeroPhi)
//! );
//! # Ok::<(), ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cluster_array;
pub mod coarse;
pub mod communities;
pub mod dendrogram;
pub mod error;
pub mod evaluate;
pub mod export;
pub mod flatacc;
pub mod incremental;
pub mod init;
pub mod invariants;
pub mod json;
pub mod model;
pub mod reference;
pub mod sweep;
pub mod telemetry;
pub mod unionfind;

mod pipeline;
mod similarity;

pub use cluster_array::ClusterArray;
pub use dendrogram::{Dendrogram, MergeRecord};
pub use error::ConfigError;
pub use pipeline::{ClusteringResult, LinkClustering};
pub use similarity::{PairSimilarities, SimilarityEntry, VertexPair};
pub use telemetry::{Recorder, RunReport, Telemetry};
