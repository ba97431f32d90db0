//! Quickstart: cluster the edges of a small graph and inspect the
//! dendrogram.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use linkclust::{GraphBuilder, LinkClustering};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two tight triangles joined by a weak bridge — the canonical
    // overlapping-community toy: vertex 2 and 3 belong to both sides,
    // but every *edge* belongs to exactly one community.
    let g = GraphBuilder::from_edges(
        6,
        &[
            (0, 1, 1.0),
            (1, 2, 1.0),
            (0, 2, 1.0),
            (3, 4, 1.0),
            (4, 5, 1.0),
            (3, 5, 1.0),
            (2, 3, 0.1),
        ],
    )?
    .build();

    let result = LinkClustering::new().run(&g).unwrap();

    let sims = result.similarities();
    println!("similarity list L ({} vertex pairs):", sims.len());
    for e in sims.entries() {
        let common: Vec<_> = sims.wedges(&g, e).map(|(k, ..)| k).collect();
        println!("  {}  S = {:.4}  common: {common:?}", e.pair, e.score);
    }

    println!("\ndendrogram ({} merges):", result.dendrogram().merge_count());
    for m in result.dendrogram().merges() {
        println!("  level {:>2}: {} + {} -> {}", m.level, m.left, m.right, m.into);
    }

    let cut = result.best_density_cut(&g).expect("graph has edges");
    println!(
        "\nbest cut: level {} with partition density {:.3} ({} link communities)",
        cut.level, cut.density, cut.cluster_count
    );

    let labels = result.output().edge_assignments_at_level(cut.level);
    for (id, edge) in g.edges() {
        println!(
            "  edge {id} = ({}, {}) -> community {}",
            edge.source,
            edge.target,
            labels[id.index()]
        );
    }
    Ok(())
}
