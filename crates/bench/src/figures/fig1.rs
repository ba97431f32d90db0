//! Fig. 1 — the paper's example graph and its data structure.
//!
//! The example graph of Fig. 1 satisfies K₁ = 7 < K₂ = 16 < K₃ = 28 with
//! |E| = 8; the complete bipartite graph K₂,₄ realizes exactly these
//! counts. This runner prints the graph, the sorted list `L` (Fig. 1(2))
//! and the resulting dendrogram.

use std::io;

use linkclust_core::init::compute_similarities;
use linkclust_core::sweep::{sweep, SweepConfig};
use linkclust_graph::stats::GraphStats;
use linkclust_graph::{GraphBuilder, WeightedGraph};

use crate::table::{fmt_f64, Table};

use super::FigureContext;

/// Builds the K₂,₄ example graph (hubs 0, 1; leaves 2–5; unit weights).
/// # Panics
///
/// Never panics in practice: the edge list is a fixed, valid literal.
#[must_use]
pub fn example_graph() -> WeightedGraph {
    GraphBuilder::from_edges(
        6,
        &[
            (0, 2, 1.0),
            (0, 3, 1.0),
            (0, 4, 1.0),
            (0, 5, 1.0),
            (1, 2, 1.0),
            (1, 3, 1.0),
            (1, 4, 1.0),
            (1, 5, 1.0),
        ],
    )
    .expect("example graph is valid")
    .build()
}

/// Runs the Fig. 1 demonstration.
///
/// # Errors
///
/// Propagates CSV-write failures.
///
/// # Panics
///
/// Panics if the computed pair counts diverge from the paper's
/// `K1 = 7 < K2 = 16 < K3 = 28` — the figure is only worth emitting if
/// the reproduction matches.
pub fn run(ctx: &FigureContext) -> io::Result<()> {
    let g = example_graph();
    let s = GraphStats::compute(&g);
    println!("Fig. 1 example graph: K_{{2,4}} with |V| = {}, |E| = {}", s.vertices, s.edges);
    println!(
        "K1 = {} < K2 = {} < K3 = {}   (paper: 7 < 16 < 28)",
        s.common_neighbor_pairs, s.incident_edge_pairs, s.distinct_edge_pairs
    );
    assert_eq!(
        (s.common_neighbor_pairs, s.incident_edge_pairs, s.distinct_edge_pairs),
        (7, 16, 28),
        "example graph must reproduce the paper's counts"
    );

    let sims = compute_similarities(&g).into_sorted();
    let mut t = Table::new("Fig. 1(2): sorted list L", &["pair", "similarity", "common neighbors"]);
    for e in sims.entries() {
        t.row(vec![
            e.pair.to_string(),
            fmt_f64(e.score, 4),
            sims.common_neighbors(e).iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" "),
        ]);
    }
    t.emit(&ctx.csv_path("fig1_list.csv"))?;

    let out = sweep(&g, &sims, SweepConfig::default());
    let mut t = Table::new("Fig. 1: dendrogram merges", &["level", "left", "right", "into"]);
    for m in out.dendrogram().merges() {
        t.row(vec![
            m.level.to_string(),
            m.left.to_string(),
            m.right.to_string(),
            m.into.to_string(),
        ]);
    }
    t.emit(&ctx.csv_path("fig1_dendrogram.csv"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_graph_has_paper_counts() {
        let s = GraphStats::compute(&example_graph());
        assert_eq!(s.common_neighbor_pairs, 7);
        assert_eq!(s.incident_edge_pairs, 16);
        assert_eq!(s.distinct_edge_pairs, 28);
        assert_eq!(s.edges, 8);
    }

    #[test]
    fn example_graph_l_has_k1_entries() {
        let sims = compute_similarities(&example_graph());
        assert_eq!(sims.len(), 7);
        assert_eq!(sims.incident_pair_count(), 16);
    }
}
