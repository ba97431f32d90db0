//! # linkclust — efficient link clustering on multi-core machines
//!
//! A faithful, production-quality Rust implementation of
//! *Improving Efficiency of Link Clustering on Multi-Core Machines*
//! (Guanhua Yan, ICDCS 2017), including every substrate its evaluation
//! depends on.
//!
//! Link clustering (Ahn, Bagrow & Lehmann, Nature 2010) groups the
//! **edges** of a graph by single-linkage hierarchical clustering under
//! the Tanimoto similarity of incident edges, revealing overlapping
//! communities. This workspace provides:
//!
//! * [`graph`] — the weighted undirected graph substrate, generators and
//!   the incidence statistics (K₁/K₂/K₃) the complexity analysis uses;
//! * [`corpus`] — a synthetic tweet corpus, a full text pipeline
//!   (tokenizer, Porter stemmer, stop words), and the PMI
//!   word-association-network builder of the paper's evaluation;
//! * [`core`] — the paper's contribution: the two-phase serial algorithm
//!   (initialization + sweeping), coarse-grained dendrograms with the
//!   head/tail/rollback mode machine, the sigmoid decay model, and the
//!   O(n²) baselines it is compared against;
//! * [`parallel`] — the multi-threaded initialization and sweeping of
//!   §VI;
//! * [`serve`] — the resident clustering service: a versioned
//!   serialized dendrogram index ([`serve::DendrogramIndex`]) and the
//!   `linkclustd` query server with cached answers and batch-admission
//!   reclustering ([`serve::Server`]).
//!
//! The most common entry points are re-exported at the crate root; the
//! main one is the unified [`LinkClustering`] facade — serial by
//! default, parallel via [`threads`](LinkClustering::threads), with
//! phase-level telemetry via [`stats`](LinkClustering::stats) and
//! per-thread event tracing (Chrome trace-event JSON, viewable in
//! Perfetto) via [`trace`](LinkClustering::trace).
//!
//! # Quickstart
//!
//! ```
//! use linkclust::{GraphBuilder, LinkClustering};
//!
//! // Two unit triangles joined by a weak bridge.
//! let g = GraphBuilder::from_edges(6, &[
//!     (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
//!     (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
//!     (2, 3, 0.1),
//! ])?.build();
//!
//! let result = LinkClustering::new().run(&g)?;
//! let cut = result.dendrogram().best_density_cut(&g).unwrap();
//! let labels = result.output().edge_assignments_at_level(cut.level);
//!
//! // The two triangles come out as two link communities.
//! assert_eq!(labels[0], labels[1]);
//! assert_eq!(labels[3], labels[4]);
//! assert_ne!(labels[0], labels[3]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Scaling out and measuring where the time goes:
//!
//! ```
//! use linkclust::graph::generate::{gnm, WeightMode};
//! use linkclust::core::telemetry::Phase;
//! use linkclust::LinkClustering;
//!
//! let g = gnm(200, 800, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 7);
//! let result = LinkClustering::new().threads(4).stats(true).run(&g)?;
//! let report = result.report().expect("stats(true) attaches a report");
//! assert!(report.phase_nanos(Phase::Sweep) > 0);
//! println!("{report}");          // per-phase table with p50/p99 latencies
//! let _json = report.to_json();  // machine-readable
//! # Ok::<(), linkclust::ConfigError>(())
//! ```
//!
//! For a wall-time view of where every thread spent the run, attach a
//! tracer (or write a file directly with
//! [`trace`](LinkClustering::trace) and open it in
//! <https://ui.perfetto.dev>):
//!
//! ```
//! use std::sync::Arc;
//! use linkclust::graph::generate::{gnm, WeightMode};
//! use linkclust::{LinkClustering, TraceCollector};
//!
//! let g = gnm(120, 480, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 7);
//! let collector = Arc::new(TraceCollector::new());
//! LinkClustering::new().threads(2).tracer(Arc::clone(&collector)).run(&g)?;
//! assert!(!collector.events().is_empty());
//! let _chrome_json = collector.to_chrome_json();
//! # Ok::<(), linkclust::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;

/// The `linkclust-core` crate — the paper's algorithms, telemetry and
/// JSON — plus the clustering facade [`LinkClustering`] under the name
/// `core::LinkClustering`: the perfbench sources, which change only
/// together with the benchmark, still spell it that way.
pub mod core {
    pub use linkclust_core::*;
    pub use linkclust_parallel::LinkClustering;
}
pub use linkclust_corpus as corpus;
pub use linkclust_graph as graph;
pub use linkclust_parallel as parallel;
pub use linkclust_serve as serve;

pub use linkclust_core::{
    baseline::{MstClustering, NbmClustering},
    coarse::{coarse_sweep, CoarseConfig, CoarseResult},
    communities::LinkCommunities,
    dendrogram::partition_density,
    init::compute_similarities,
    model::SigmoidModel,
    sweep::{sweep, EdgeOrder, SweepConfig},
    telemetry::{Recorder, RunReport, TraceCollector},
    ClusterArray, ConfigError, Dendrogram, MergeRecord, PairSimilarities,
};
pub use linkclust_corpus::{AssocNetwork, AssocNetworkBuilder, TextPipeline};
pub use linkclust_graph::{
    CsrGraph, EdgeId, EdgeIndex, GraphBuilder, GraphError, GraphView, VertexId, WeightedGraph,
};
pub use linkclust_parallel::{
    compute_similarities_parallel, parallel_coarse_sweep, ClusteringResult, LinkClustering,
};
