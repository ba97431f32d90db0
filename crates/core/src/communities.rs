//! Link communities: interpreting an edge partition as overlapping
//! vertex communities.
//!
//! The point of clustering *links* instead of vertices (Ahn et al.;
//! §I of the paper) is that a vertex belongs to every community that one
//! of its edges belongs to — community overlap falls out naturally.
//! This module turns the flat edge labelling produced by a sweep cut
//! into that overlapping structure.

use std::collections::HashMap;

use linkclust_graph::{EdgeId, VertexId, WeightedGraph};

/// A set of link communities over a graph: for each community, its edges
/// and its (possibly shared) vertices.
///
/// # Examples
///
/// ```
/// use linkclust_graph::GraphBuilder;
/// use linkclust_core::communities::LinkCommunities;
/// use linkclust_core::init::compute_similarities;
/// use linkclust_core::sweep::{sweep, SweepConfig};
///
/// // Two triangles sharing vertex 2.
/// let g = GraphBuilder::from_edges(5, &[
///     (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
///     (2, 3, 1.0), (3, 4, 1.0), (2, 4, 1.0),
/// ])?.build();
/// let output = sweep(&g, &compute_similarities(&g).into_sorted(), SweepConfig::default());
/// let cut = output.dendrogram().best_density_cut(&g).unwrap();
/// let labels = output.edge_assignments_at_level(cut.level);
/// let comms = LinkCommunities::from_edge_labels(&g, &labels);
///
/// assert_eq!(comms.len(), 2);
/// // Vertex 2 overlaps both communities.
/// assert_eq!(comms.communities_of(linkclust_graph::VertexId::new(2)).len(), 2);
/// # Ok::<(), linkclust_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct LinkCommunities {
    communities: Vec<Community>,
    membership: Vec<Vec<u32>>, // vertex index -> community indices
    community_of_edge: Vec<u32>,
}

/// One link community: its edges and induced vertices.
#[derive(Clone, PartialEq, Debug)]
pub struct Community {
    /// The original cluster label this community was built from.
    pub label: u32,
    /// Member edges, in id order.
    pub edges: Vec<EdgeId>,
    /// Induced vertices, in id order.
    pub vertices: Vec<VertexId>,
}

impl Community {
    /// Number of member edges (`m_c`).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of induced vertices (`n_c`).
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// The community's link density `(m_c − (n_c−1)) / ((n_c−2)(n_c−1)/2)`
    /// (the `D_c` of partition density), or 0 for trivial communities.
    #[must_use]
    pub fn link_density(&self) -> f64 {
        let (m, n) = (self.edge_count() as f64, self.vertex_count() as f64);
        if self.vertex_count() <= 2 {
            0.0
        } else {
            (m - (n - 1.0)) / ((n - 2.0) * (n - 1.0) / 2.0)
        }
    }
}

impl LinkCommunities {
    /// Groups the edges of `g` by `labels` (one label per edge, as
    /// produced by
    /// [`SweepOutput::edge_assignments_at_level`](crate::sweep::SweepOutput::edge_assignments_at_level)).
    ///
    /// Communities are ordered by decreasing edge count (ties by label).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != g.edge_count()`.
    #[must_use]
    pub fn from_edge_labels(g: &WeightedGraph, labels: &[u32]) -> Self {
        assert_eq!(labels.len(), g.edge_count(), "one label per edge required");
        let mut by_label: HashMap<u32, Vec<EdgeId>> = HashMap::new();
        for (id, _) in g.edges() {
            by_label.entry(labels[id.index()]).or_default().push(id);
        }
        let mut communities: Vec<Community> = by_label
            .into_iter()
            .map(|(label, edges)| {
                let mut vertices: Vec<VertexId> = edges
                    .iter()
                    .flat_map(|&e| {
                        let edge = g.edge(e);
                        [edge.source, edge.target]
                    })
                    .collect();
                vertices.sort_unstable();
                vertices.dedup();
                Community { label, edges, vertices }
            })
            .collect();
        communities
            .sort_by(|a, b| b.edges.len().cmp(&a.edges.len()).then_with(|| a.label.cmp(&b.label)));

        let mut membership = vec![Vec::new(); g.vertex_count()];
        let mut community_of_edge = vec![0u32; g.edge_count()];
        for (ci, c) in communities.iter().enumerate() {
            for &v in &c.vertices {
                membership[v.index()].push(ci as u32);
            }
            for &e in &c.edges {
                community_of_edge[e.index()] = ci as u32;
            }
        }
        LinkCommunities { communities, membership, community_of_edge }
    }

    /// Number of communities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.communities.len()
    }

    /// Returns `true` if there are no communities (edgeless graph).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.communities.is_empty()
    }

    /// The communities, largest (by edge count) first.
    #[must_use]
    pub fn communities(&self) -> &[Community] {
        &self.communities
    }

    /// The communities (by index into [`communities`](Self::communities))
    /// that `v` belongs to — more than one for overlap vertices.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[must_use]
    pub fn communities_of(&self, v: VertexId) -> &[u32] {
        &self.membership[v.index()]
    }

    /// The community index of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    #[must_use]
    pub fn community_of_edge(&self, e: EdgeId) -> u32 {
        self.community_of_edge[e.index()]
    }

    /// Vertices belonging to more than one community, in id order.
    #[must_use]
    pub fn overlap_vertices(&self) -> Vec<VertexId> {
        self.membership
            .iter()
            .enumerate()
            .filter(|(_, cs)| cs.len() > 1)
            .map(|(i, _)| VertexId::new(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::compute_similarities;
    use crate::sweep::{sweep, SweepConfig};
    use linkclust_graph::GraphBuilder;

    fn two_triangles() -> WeightedGraph {
        GraphBuilder::from_edges(
            5,
            &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (2, 4, 1.0)],
        )
        .unwrap()
        .build()
    }

    #[test]
    fn overlap_vertex_is_in_both_communities() {
        let g = two_triangles();
        let output = sweep(&g, &compute_similarities(&g).into_sorted(), SweepConfig::default());
        let cut = output.dendrogram().best_density_cut(&g).unwrap();
        let labels = output.edge_assignments_at_level(cut.level);
        let comms = LinkCommunities::from_edge_labels(&g, &labels);
        assert_eq!(comms.len(), 2);
        assert_eq!(comms.overlap_vertices(), vec![VertexId::new(2)]);
        for v in [0usize, 1, 3, 4] {
            assert_eq!(comms.communities_of(VertexId::new(v)).len(), 1, "v{v}");
        }
    }

    #[test]
    fn community_metrics() {
        let g = two_triangles();
        let labels = vec![0, 0, 0, 3, 3, 3];
        let comms = LinkCommunities::from_edge_labels(&g, &labels);
        for c in comms.communities() {
            assert_eq!(c.edge_count(), 3);
            assert_eq!(c.vertex_count(), 3);
            assert!((c.link_density() - 1.0).abs() < 1e-12, "triangles are maximal-density");
        }
    }

    #[test]
    fn ordering_is_largest_first() {
        let g = GraphBuilder::from_edges(
            6,
            &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)],
        )
        .unwrap()
        .build();
        let labels = vec![7, 7, 7, 9, 9];
        let comms = LinkCommunities::from_edge_labels(&g, &labels);
        assert_eq!(comms.communities()[0].label, 7);
        assert_eq!(comms.communities()[0].edge_count(), 3);
        assert_eq!(comms.community_of_edge(EdgeId::new(4)), 1);
    }

    #[test]
    fn singleton_labels_make_singleton_communities() {
        let g = GraphBuilder::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap().build();
        let comms = LinkCommunities::from_edge_labels(&g, &[0, 1]);
        assert_eq!(comms.len(), 2);
        assert!(comms.overlap_vertices().is_empty());
        assert_eq!(comms.communities()[0].link_density(), 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let comms = LinkCommunities::from_edge_labels(&g, &[]);
        assert!(comms.is_empty());
    }
}
