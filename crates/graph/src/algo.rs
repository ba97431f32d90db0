//! Basic graph algorithms used around the clustering pipeline. Each is
//! generic over [`GraphView`], so it runs on every graph backend.

use std::collections::VecDeque;

use crate::{GraphView, VertexId};

/// Labels each vertex with its connected component (components are
/// numbered 0.. in order of their smallest vertex).
///
/// # Examples
///
/// ```
/// use linkclust_graph::{GraphBuilder, algo::connected_components};
///
/// let g = GraphBuilder::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)])?.build();
/// assert_eq!(connected_components(&g), vec![0, 0, 1, 1]);
/// # Ok::<(), linkclust_graph::GraphError>(())
/// ```
#[must_use]
pub fn connected_components<G: GraphView + ?Sized>(g: &G) -> Vec<usize> {
    let n = g.vertex_count();
    let mut labels = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if labels[start] != usize::MAX {
            continue;
        }
        labels[start] = next;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for nb in g.neighbors(VertexId::new(v)) {
                let u = nb.vertex.index();
                if labels[u] == usize::MAX {
                    labels[u] = next;
                    queue.push_back(u);
                }
            }
        }
        next += 1;
    }
    labels
}

/// Number of connected components (isolated vertices count as their own
/// component).
#[must_use]
pub fn component_count<G: GraphView + ?Sized>(g: &G) -> usize {
    connected_components(g).iter().copied().max().map_or(0, |m| m + 1)
}

/// Number of connected components that contain at least one edge: the
/// components of [`component_count`] less the isolated vertices.
///
/// Every such component's edges are connected through shared vertices,
/// so a spanning forest over the `m` edges — the complete single-linkage
/// merge forest of Phase II — has exactly `m − edge_component_count(g)`
/// merges.
///
/// # Examples
///
/// ```
/// use linkclust_graph::{GraphBuilder, algo::edge_component_count};
///
/// // Two edge components and one isolated vertex.
/// let g = GraphBuilder::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])?.build();
/// assert_eq!(edge_component_count(&g), 2);
/// # Ok::<(), linkclust_graph::GraphError>(())
/// ```
#[must_use]
pub fn edge_component_count<G: GraphView + ?Sized>(g: &G) -> usize {
    component_count(g) - g.vertices().filter(|&v| g.degree(v) == 0).count()
}

/// Unweighted breadth-first distances from `source` (`None` for
/// unreachable vertices).
///
/// # Panics
///
/// Panics if `source` is out of bounds.
#[must_use]
pub fn bfs_distances<G: GraphView + ?Sized>(g: &G, source: VertexId) -> Vec<Option<u32>> {
    let n = g.vertex_count();
    assert!(source.index() < n, "source vertex out of bounds");
    let mut dist = vec![None; n];
    dist[source.index()] = Some(0);
    let mut queue = VecDeque::from([source.index()]);
    while let Some(v) = queue.pop_front() {
        let d = dist[v].expect("queued vertices have distances");
        for nb in g.neighbors(VertexId::new(v)) {
            let u = nb.vertex.index();
            if dist[u].is_none() {
                dist[u] = Some(d + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// The weighted local clustering coefficient is not needed by the paper;
/// the plain (unweighted) one is handy for sanity-checking generated
/// workloads. Returns 0.0 for degree < 2.
#[must_use]
pub fn clustering_coefficient<G: GraphView + ?Sized>(g: &G, v: VertexId) -> f64 {
    let nbrs = g.neighbors(v);
    let d = nbrs.len();
    if d < 2 {
        return 0.0;
    }
    let mut closed = 0usize;
    for (i, a) in nbrs.iter().enumerate() {
        for b in &nbrs[i + 1..] {
            if g.has_edge(a.vertex, b.vertex) {
                closed += 1;
            }
        }
    }
    2.0 * closed as f64 / (d * (d - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{complete, gnm, ring, WeightMode};
    use crate::{CsrGraph, GraphBuilder};

    #[test]
    fn components_of_disconnected_graph() {
        let g =
            GraphBuilder::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (4, 5, 1.0)]).unwrap().build();
        assert_eq!(connected_components(&g), vec![0, 0, 0, 1, 2, 2]);
        assert_eq!(component_count(&g), 3);
        assert_eq!(edge_component_count(&g), 2);
    }

    #[test]
    fn csr_components_equal_adjacency_with_isolated_vertices() {
        // 30 edges cannot touch all 42 vertices.
        let g = gnm(42, 30, WeightMode::Uniform { lo: 0.2, hi: 2.0 }, 3);
        let csr = CsrGraph::from_weighted(&g);
        assert!(g.vertices().any(|v| g.degree(v) == 0), "the input must have isolated vertices");
        let labels = connected_components(&g);
        assert_eq!(connected_components(&csr), labels);
        assert_eq!(component_count(&csr), component_count(&g));
        // The components with an edge are the labels of edge endpoints.
        let with_edges: std::collections::BTreeSet<usize> = (0..g.edge_count())
            .map(|e| labels[g.edge_endpoints(crate::EdgeId::new(e)).0.index()])
            .collect();
        assert_eq!(edge_component_count(&g), with_edges.len());
        assert_eq!(edge_component_count(&csr), with_edges.len());
        let source = VertexId::new(0);
        assert_eq!(bfs_distances(&csr, source), bfs_distances(&g, source));
        for v in g.vertices() {
            let (a, c) = (clustering_coefficient(&g, v), clustering_coefficient(&csr, v));
            assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn complete_graph_is_one_component() {
        let g = complete(8, WeightMode::Unit, 0);
        assert_eq!(component_count(&g), 1);
    }

    #[test]
    fn bfs_distances_on_ring() {
        let g = ring(6, WeightMode::Unit, 0);
        let d = bfs_distances(&g, VertexId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(2), Some(1)]);
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0)]).unwrap().build();
        let d = bfs_distances(&g, VertexId::new(0));
        assert_eq!(d[2], None);
    }

    #[test]
    fn clustering_coefficients() {
        let g = complete(5, WeightMode::Unit, 0);
        for v in g.vertices() {
            assert!((clustering_coefficient(&g, v) - 1.0).abs() < 1e-12);
        }
        let r = ring(6, WeightMode::Unit, 0);
        for v in r.vertices() {
            assert_eq!(clustering_coefficient(&r, v), 0.0);
        }
        let star = crate::generate::star(5, WeightMode::Unit, 0);
        assert_eq!(clustering_coefficient(&star, VertexId::new(0)), 0.0);
        assert_eq!(clustering_coefficient(&star, VertexId::new(1)), 0.0);
    }

    #[test]
    fn empty_graph_component_count() {
        let g = GraphBuilder::new().build();
        assert_eq!(component_count(&g), 0);
        assert_eq!(edge_component_count(&g), 0);
        assert!(connected_components(&g).is_empty());
    }
}
