//! The graph-access trait shared by every backend.
//!
//! [`GraphView`] abstracts the read-only access pattern the clustering
//! phases need — counts, contiguous [`Neighbor`] slabs, and edge
//! endpoint/weight lookup by id — so the algorithms in `linkclust-core`
//! and `linkclust-parallel` run unchanged over the adjacency-list
//! [`WeightedGraph`](crate::WeightedGraph) and the compact
//! [`CsrGraph`](crate::CsrGraph) backend. Both backends expose
//! *identical* id-sorted neighbor slabs and identical edge ids, so every
//! floating-point accumulation downstream visits operands in the same
//! order and the two backends produce bit-identical results.
//!
//! Each [`Neighbor`] carries the id of its edge, so the clustering hot
//! paths read edge ids off the slabs and never look an edge up by its
//! endpoints.

use crate::{EdgeId, Neighbor, VertexId, Weight};

/// Read-only access to a weighted undirected graph.
///
/// Required methods are the primitive accessors every backend stores
/// directly; the provided methods derive the rest. Implementations must
/// keep each neighbor slab sorted by neighbor vertex id and must report
/// canonical endpoints (`source < target`) from
/// [`edge_endpoints`](Self::edge_endpoints).
///
/// # Panics
///
/// [`degree`](Self::degree), [`neighbors`](Self::neighbors),
/// [`edge_endpoints`](Self::edge_endpoints) and
/// [`edge_weight`](Self::edge_weight) panic when the id is out of
/// bounds, mirroring slice indexing.
pub trait GraphView {
    /// The number of vertices, `|V|`.
    fn vertex_count(&self) -> usize;

    /// The number of edges, `|E|`.
    fn edge_count(&self) -> usize;

    /// The degree of `v` (the number of incident edges).
    fn degree(&self, v: VertexId) -> usize;

    /// The adjacency slab of `v`, sorted by neighbor vertex id.
    fn neighbors(&self, v: VertexId) -> &[Neighbor];

    /// The canonical endpoints `(source, target)` of `e`, with
    /// `source < target`.
    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId);

    /// The weight of edge `e`.
    fn edge_weight(&self, e: EdgeId) -> Weight;

    /// `true` if the graph has no vertices.
    fn is_empty(&self) -> bool {
        self.vertex_count() == 0
    }

    /// Iterates over all vertex ids in increasing order.
    fn vertices(&self) -> VertexIds {
        VertexIds { range: 0..self.vertex_count() }
    }

    /// The id of the edge joining `u` and `v`, if any, by binary search
    /// over the smaller adjacency slab — O(log min(d(u), d(v))).
    fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u == v || u.index() >= self.vertex_count() || v.index() >= self.vertex_count() {
            return None;
        }
        let (probe, key) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        let list = self.neighbors(probe);
        list.binary_search_by(|n| n.vertex.cmp(&key)).ok().map(|i| list[i].edge)
    }

    /// The weight of the edge joining `u` and `v`, if any.
    fn weight_between(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.edge_between(u, v).map(|e| self.edge_weight(e))
    }

    /// `true` if `u` and `v` are adjacent.
    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_between(u, v).is_some()
    }

    /// The sum of all edge weights.
    fn total_weight(&self) -> Weight {
        (0..self.edge_count()).map(|e| self.edge_weight(EdgeId::new(e))).sum()
    }

    /// The maximum degree over all vertices (0 for an empty graph).
    fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Graph density, `2|E| / (|V|(|V|−1))` (0.0 for fewer than two
    /// vertices).
    fn density(&self) -> f64 {
        let n = self.vertex_count();
        if n < 2 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / (n as f64 * (n as f64 - 1.0))
        }
    }
}

/// Iterator over the vertex ids of a [`GraphView`], in increasing order.
#[derive(Clone, Debug)]
pub struct VertexIds {
    range: std::ops::Range<usize>,
}

impl Iterator for VertexIds {
    type Item = VertexId;

    fn next(&mut self) -> Option<Self::Item> {
        self.range.next().map(VertexId::new)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for VertexIds {}

impl DoubleEndedIterator for VertexIds {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.range.next_back().map(VertexId::new)
    }
}

impl<G: GraphView + ?Sized> GraphView for &G {
    fn vertex_count(&self) -> usize {
        (**self).vertex_count()
    }

    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }

    fn degree(&self, v: VertexId) -> usize {
        (**self).degree(v)
    }

    fn neighbors(&self, v: VertexId) -> &[Neighbor] {
        (**self).neighbors(v)
    }

    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        (**self).edge_endpoints(e)
    }

    fn edge_weight(&self, e: EdgeId) -> Weight {
        (**self).edge_weight(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path3() -> crate::WeightedGraph {
        GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 0.5)]).unwrap().build()
    }

    // Exercises the provided methods through the trait, not the inherent
    // shadows.
    fn probe<G: GraphView>(g: &G) {
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(!g.is_empty());
        assert_eq!(g.vertices().count(), 3);
        assert_eq!(g.vertices().len(), 3);
        assert_eq!(g.max_degree(), 2);
        assert!((g.total_weight() - 1.5).abs() < 1e-12);
        assert!((GraphView::density(g) - 2.0 / 3.0).abs() < 1e-12);
        let e = g.edge_between(VertexId::new(0), VertexId::new(1)).unwrap();
        assert_eq!(g.edge_endpoints(e), (VertexId::new(0), VertexId::new(1)));
        assert_eq!(g.edge_weight(e), 1.0);
        assert_eq!(g.weight_between(VertexId::new(2), VertexId::new(1)), Some(0.5));
        assert!(g.has_edge(VertexId::new(0), VertexId::new(1)));
        assert!(!g.has_edge(VertexId::new(0), VertexId::new(2)));
        assert!(g.edge_between(VertexId::new(1), VertexId::new(1)).is_none());
        assert!(g.edge_between(VertexId::new(0), VertexId::new(9)).is_none());
    }

    #[test]
    fn trait_methods_on_weighted_graph() {
        let g = path3();
        probe(&g);
        probe(&&g); // the blanket &G impl
    }

    #[test]
    fn vertex_ids_iterate_both_ways() {
        let g = path3();
        let fwd: Vec<usize> = g.vertices().map(|v| v.index()).collect();
        assert_eq!(fwd, vec![0, 1, 2]);
        let bwd: Vec<usize> = GraphView::vertices(&g).rev().map(|v| v.index()).collect();
        assert_eq!(bwd, vec![2, 1, 0]);
    }
}
