//! Weighted undirected graph substrate for link clustering.
//!
//! This crate provides the graph representation that the link-clustering
//! algorithms of Yan (ICDCS 2017) operate on:
//!
//! * [`GraphView`] — the read-only access trait every algorithm is
//!   written against, implemented by both backends below.
//! * [`WeightedGraph`] — an immutable, adjacency-list weighted undirected
//!   graph with stable [`VertexId`]/[`EdgeId`] handles, constructed
//!   through [`GraphBuilder`].
//! * [`CsrGraph`] — the compact `u32`-offset CSR backend for
//!   million-edge workloads ([`GraphBuilder::build_csr`]), bit-identical
//!   to the adjacency-list backend under every [`GraphView`] algorithm.
//! * [`GraphFile`] — the versioned binary on-disk format with
//!   chunked-streaming load/save ([`binfmt`]).
//! * [`stats`] — the incidence statistics the paper's complexity analysis
//!   is phrased in: K₁ (vertex pairs sharing a neighbor), K₂ (incident
//!   edge pairs) and K₃ (distinct edge pairs), plus density and degree
//!   summaries.
//! * [`generate`] — deterministic graph generators (Erdős–Rényi, complete,
//!   k-regular, Barabási–Albert, LFR-style planted communities, ring,
//!   star) used by the benchmarks to validate the asymptotic claims of
//!   the paper's appendix and to score clustering quality against ground
//!   truth.
//!
//! # Examples
//!
//! ```
//! use linkclust_graph::{GraphBuilder, stats::GraphStats};
//!
//! let mut b = GraphBuilder::new();
//! let (u, v, w) = (b.add_vertex(), b.add_vertex(), b.add_vertex());
//! b.add_edge(u, v, 1.0)?;
//! b.add_edge(v, w, 2.0)?;
//! let g = b.build();
//!
//! assert_eq!(g.vertex_count(), 3);
//! assert_eq!(g.edge_count(), 2);
//! let stats = GraphStats::compute(&g);
//! assert_eq!(stats.incident_edge_pairs, 1); // the two edges share v
//! # Ok::<(), linkclust_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod csr;
mod error;
mod graph;
mod ids;
mod view;

pub mod algo;
pub mod binfmt;
pub mod dot;
pub mod generate;
pub mod io;
pub mod stats;

pub use binfmt::{BinGraphError, GraphFile};
pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use error::GraphError;
pub use graph::{Edge, EdgeIter, Neighbor, NeighborIter, WeightedGraph};
pub use ids::{EdgeId, VertexId};
pub use view::{GraphView, VertexIds};

/// Edge weights are finite, non-negative `f64` values.
pub type Weight = f64;
