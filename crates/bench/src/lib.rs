//! Benchmark harness reproducing the evaluation of Yan (ICDCS 2017).
//!
//! * [`alloc`] — a counting global allocator for the memory figures
//!   (Fig. 4(3), Fig. 5(2)); the `repro` binary installs it.
//! * [`timing`] — wall-clock measurement helpers (the paper averages 10
//!   runs; the harness default is configurable).
//! * [`table`] — CSV + aligned-stdout emission of result tables.
//! * [`workloads`] — the α-sweep word-association graphs built from the
//!   synthetic tweet corpus, at three scale presets.
//! * [`figures`] — one runner per figure of the paper; the `repro`
//!   binary dispatches to them.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p linkclust-bench --bin repro -- all
//! ```

pub mod alloc;
pub mod ascii;
pub mod compare;
pub mod figures;
pub mod ladder;
pub mod plots;
pub mod serve;
pub mod table;
pub mod telemetry;
pub mod timing;
pub mod workloads;
