//! The immutable weighted undirected graph.

use crate::{EdgeId, VertexId, Weight};

/// An undirected edge with its endpoints and weight.
///
/// The invariant `source < target` is maintained so that every edge has a
/// single canonical representation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Edge {
    /// The smaller endpoint.
    pub source: VertexId,
    /// The larger endpoint.
    pub target: VertexId,
    /// The (finite, positive) weight.
    pub weight: Weight,
}

impl Edge {
    /// Returns the endpoint opposite to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of this edge.
    #[inline]
    #[must_use]
    pub fn other(&self, v: VertexId) -> VertexId {
        if v == self.source {
            self.target
        } else if v == self.target {
            self.source
        } else {
            panic!("vertex {v} is not an endpoint of edge ({}, {})", self.source, self.target)
        }
    }

    /// Returns `true` if `v` is an endpoint of this edge.
    #[inline]
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        v == self.source || v == self.target
    }
}

/// An adjacency entry: a neighboring vertex, the connecting edge's weight,
/// and the connecting edge's id.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Neighbor {
    /// The adjacent vertex.
    pub vertex: VertexId,
    /// The weight of the connecting edge.
    pub weight: Weight,
    /// The id of the connecting edge.
    pub edge: EdgeId,
}

/// An immutable weighted undirected graph stored in compressed
/// adjacency-list form.
///
/// Built through [`GraphBuilder`](crate::GraphBuilder). Adjacency lists
/// are sorted by neighbor id. The edge-index map `I` of Algorithm 2 in
/// the paper is realized by [`EdgeIndex`](crate::EdgeIndex); see also
/// the [`GraphView`](crate::GraphView) trait, which this type and the
/// compact [`CsrGraph`](crate::CsrGraph) backend both implement.
///
/// # Examples
///
/// ```
/// use linkclust_graph::{EdgeIndex, GraphBuilder, VertexId};
///
/// let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 0.5)])?.build();
/// let v1 = VertexId::new(1);
/// assert_eq!(g.degree(v1), 2);
/// let index = EdgeIndex::for_graph(&g);
/// assert!(index.edge_between(VertexId::new(0), VertexId::new(2)).is_none());
/// # Ok::<(), linkclust_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct WeightedGraph {
    pub(crate) offsets: Vec<usize>,
    pub(crate) adj: Vec<Neighbor>,
    pub(crate) edges: Vec<Edge>,
}

impl WeightedGraph {
    /// Returns the number of vertices, `|V|`.
    #[inline]
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Returns the number of edges, `|E|`.
    #[inline]
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no vertices.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vertex_count() == 0
    }

    /// Returns the degree of `v` (the number of incident edges).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    #[must_use]
    pub fn degree(&self, v: VertexId) -> usize {
        let i = v.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Returns the sorted adjacency list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    #[must_use]
    pub fn neighbors(&self, v: VertexId) -> &[Neighbor] {
        let i = v.index();
        &self.adj[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Returns the edge record for `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    #[inline]
    #[must_use]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Returns `true` if `u` and `v` are adjacent.
    #[must_use]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        crate::GraphView::has_edge(self, u, v)
    }

    /// Iterates over all vertex ids in increasing order.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> + Clone {
        (0..self.vertex_count()).map(VertexId::new)
    }

    /// Iterates over all edges in id order.
    #[must_use]
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter { inner: self.edges.iter().enumerate() }
    }

    /// Iterates over the adjacency of `v` (like [`neighbors`](Self::neighbors)
    /// but as an owning iterator type).
    #[must_use]
    pub fn neighbor_iter(&self, v: VertexId) -> NeighborIter<'_> {
        NeighborIter { inner: self.neighbors(v).iter() }
    }

    /// Returns the sum of all edge weights.
    #[must_use]
    pub fn total_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Returns the maximum degree over all vertices (0 for an empty graph).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Returns the density `2|E| / (|V| (|V|-1))`, or 0.0 when `|V| < 2`.
    #[must_use]
    pub fn density(&self) -> f64 {
        let n = self.vertex_count();
        if n < 2 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / (n as f64 * (n as f64 - 1.0))
        }
    }

    /// Extracts the subgraph induced by `vertices` (duplicates ignored).
    /// Returns the new graph and the mapping from new vertex ids to the
    /// originals.
    ///
    /// # Panics
    ///
    /// Never panics in practice: remapped edges inherit validity from
    /// this graph (in range, distinct endpoints, no duplicates).
    #[must_use]
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> (WeightedGraph, Vec<VertexId>) {
        let mut keep: Vec<VertexId> = vertices.to_vec();
        keep.sort_unstable();
        keep.dedup();
        let mut new_id = vec![u32::MAX; self.vertex_count()];
        for (i, v) in keep.iter().enumerate() {
            new_id[v.index()] = i as u32;
        }
        let mut b = crate::GraphBuilder::with_vertices(keep.len());
        for e in &self.edges {
            let (s, t) = (new_id[e.source.index()], new_id[e.target.index()]);
            if s != u32::MAX && t != u32::MAX {
                b.add_edge(VertexId::new(s as usize), VertexId::new(t as usize), e.weight)
                    .expect("induced edges are valid");
            }
        }
        (b.build(), keep)
    }

    /// The degree histogram: `histogram[d]` is the number of vertices of
    /// degree `d` (length `max_degree + 1`; empty for an empty graph).
    #[must_use]
    pub fn degree_histogram(&self) -> Vec<usize> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut hist = vec![0usize; self.max_degree() + 1];
        for v in self.vertices() {
            hist[self.degree(v)] += 1;
        }
        hist
    }
}

impl crate::GraphView for WeightedGraph {
    #[inline]
    fn vertex_count(&self) -> usize {
        WeightedGraph::vertex_count(self)
    }

    #[inline]
    fn edge_count(&self) -> usize {
        WeightedGraph::edge_count(self)
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        WeightedGraph::degree(self, v)
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> &[Neighbor] {
        WeightedGraph::neighbors(self, v)
    }

    #[inline]
    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let edge = self.edge(e);
        (edge.source, edge.target)
    }

    #[inline]
    fn edge_weight(&self, e: EdgeId) -> Weight {
        self.edge(e).weight
    }
}

/// Iterator over `(EdgeId, &Edge)` pairs, created by
/// [`WeightedGraph::edges`].
#[derive(Clone, Debug)]
pub struct EdgeIter<'a> {
    inner: std::iter::Enumerate<std::slice::Iter<'a, Edge>>,
}

impl<'a> Iterator for EdgeIter<'a> {
    type Item = (EdgeId, &'a Edge);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|(i, e)| (EdgeId::new(i), e))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for EdgeIter<'_> {}

/// Iterator over [`Neighbor`] entries, created by
/// [`WeightedGraph::neighbor_iter`].
#[derive(Clone, Debug)]
pub struct NeighborIter<'a> {
    inner: std::slice::Iter<'a, Neighbor>,
}

impl<'a> Iterator for NeighborIter<'a> {
    type Item = &'a Neighbor;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for NeighborIter<'_> {}

#[cfg(test)]
mod tests {
    use crate::{GraphBuilder, GraphView, VertexId};

    fn triangle() -> crate::WeightedGraph {
        GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]).unwrap().build()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle();
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
        let n0: Vec<_> = g.neighbors(VertexId::new(0)).iter().map(|n| n.vertex.index()).collect();
        assert_eq!(n0, vec![1, 2]);
    }

    #[test]
    fn edge_lookup_is_symmetric() {
        let g = triangle();
        let (a, b) = (VertexId::new(0), VertexId::new(2));
        assert_eq!(g.edge_between(a, b), g.edge_between(b, a));
        assert_eq!(g.weight_between(a, b), Some(3.0));
    }

    #[test]
    fn edge_lookup_misses() {
        let g = GraphBuilder::from_edges(4, &[(0, 1, 1.0)]).unwrap().build();
        let (a, b) = (VertexId::new(2), VertexId::new(3));
        assert!(g.edge_between(a, b).is_none());
        assert!(g.edge_between(a, a).is_none());
        assert!(!g.has_edge(a, b));
    }

    #[test]
    fn edge_other_endpoint() {
        let g = triangle();
        let (e0, edge) = g.edges().next().unwrap();
        assert_eq!(e0.index(), 0);
        assert_eq!(edge.other(edge.source), edge.target);
        assert_eq!(edge.other(edge.target), edge.source);
        assert!(edge.contains(edge.source));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn edge_other_panics_on_non_endpoint() {
        let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0)]).unwrap().build();
        let (_, edge) = g.edges().next().unwrap();
        let _ = edge.other(VertexId::new(2));
    }

    #[test]
    fn totals_and_density() {
        let g = triangle();
        assert!((g.total_weight() - 6.0).abs() < 1e-12);
        assert!((g.density() - 1.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.density(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = GraphBuilder::from_edges(
            5,
            &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0), (0, 4, 5.0)],
        )
        .unwrap()
        .build();
        let keep = [VertexId::new(1), VertexId::new(2), VertexId::new(3)];
        let (sub, mapping) = g.induced_subgraph(&keep);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 2); // (1,2) and (2,3)
        assert_eq!(mapping, keep);
        assert_eq!(sub.weight_between(VertexId::new(0), VertexId::new(1)), Some(2.0));
        // duplicates in the selection are ignored
        let (sub2, _) = g.induced_subgraph(&[keep[0], keep[0], keep[1], keep[2]]);
        assert_eq!(sub, sub2);
    }

    #[test]
    fn degree_histogram_counts() {
        let g = triangle();
        assert_eq!(g.degree_histogram(), vec![0, 0, 3]);
        let empty = GraphBuilder::new().build();
        assert!(empty.degree_histogram().is_empty());
        let star =
            GraphBuilder::from_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]).unwrap().build();
        assert_eq!(star.degree_histogram(), vec![0, 3, 0, 1]);
    }

    #[test]
    fn edge_iter_is_exact() {
        let g = triangle();
        let it = g.edges();
        assert_eq!(it.len(), 3);
        assert_eq!(g.neighbor_iter(VertexId::new(1)).len(), 2);
    }
}
