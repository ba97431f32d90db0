//! Resident link-clustering service.
//!
//! The paper's pipeline computes a *whole dendrogram* per run, but most
//! consumers then ask many cheap questions of that one artifact: "cut
//! at θ", "which community is this edge in", "the ten biggest
//! communities", "the density-optimal cut". This crate serves those
//! questions without recomputing anything:
//!
//! * [`index::DendrogramIndex`] — a versioned, validated serialization
//!   of one clustering run (merge forest + similarities + slot
//!   permutation + endpoints + density profile) whose answers are
//!   bit-identical to the live structures it froze;
//! * [`server::Server`] — a resident server speaking line-delimited
//!   JSON over TCP, answering queries from the published index behind
//!   an LRU [`cache::AnswerCache`] while *batch admissions* (full
//!   reclusters) run on a worker pool and swap the index atomically;
//! * [`json`] — the workspace's one strict JSON reader and writer,
//!   re-exported from `linkclust-core`, which the protocol speaks;
//! * [`metrics`] — live runtime observability: Prometheus text
//!   exposition ([`Server::metrics_text`]), a runtime-gauge ticker, and
//!   a plain-HTTP `GET /metrics` responder.
//!
//! The `linkclustd` binary in the workspace root wraps [`server`] in a
//! CLI; perfbench's `serve-mixed` workload drives a query mix through
//! its socket and reports latency per query kind.

pub mod cache;
pub mod index;
pub mod metrics;
pub mod server;

pub use cache::AnswerCache;
pub use index::{DendrogramIndex, IndexError, TopCommunity};
pub use linkclust_core::json;
pub use metrics::{read_rss_bytes, spawn_http, spawn_ticker, RuntimeSample, TICK_INTERVAL};
pub use server::{ServeGraph, Server, ServerConfig};
