//! Dendrograms over edge clusters.
//!
//! The sweeping phase emits merge events `r: c₁, c₂ → c_min` (Eq. 5).
//! A [`Dendrogram`] records the full sequence; levels are strictly
//! increasing for fine-grained clustering and shared by many merges for
//! coarse-grained clustering (§V). Cutting the dendrogram at a level
//! yields a flat partition of the edges — a set of *link communities* —
//! whose quality can be measured with the partition density of Ahn et al.

use linkclust_graph::{EdgeId, GraphView};

use crate::unionfind::UnionFind;

/// One merge event of Eq. 5: at `level`, clusters `left` and `right`
/// became `into = min(left, right)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MergeRecord {
    /// The dendrogram level `r` of the merge. Fine-grained sweeps
    /// increment the level for every merge; coarse-grained sweeps assign
    /// all merges of a chunk the same level.
    pub level: u32,
    /// Root of the first merged cluster.
    pub left: u32,
    /// Root of the second merged cluster.
    pub right: u32,
    /// The surviving cluster id, `min(left, right)`.
    pub into: u32,
}

/// The dendrogram produced by a sweep: the number of edges being
/// clustered plus the ordered merge sequence.
///
/// Merges name cluster-array slots, which a
/// [`SweepOutput`](crate::sweep::SweepOutput) maps to edges. The density
/// methods here replay over the [`MergeForest`] summary and read slot `s`
/// as edge `s`, as under the default edge order; the output's own
/// methods read its slot map.
///
/// # Examples
///
/// ```
/// use linkclust_graph::GraphBuilder;
/// use linkclust_core::init::compute_similarities;
/// use linkclust_core::sweep::{sweep, SweepConfig};
///
/// let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])?.build();
/// let sorted = compute_similarities(&g).into_sorted();
/// let d = sweep(&g, &sorted, SweepConfig::default()).into_dendrogram();
/// // A unit triangle collapses into a single link community.
/// assert_eq!(d.final_cluster_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Dendrogram {
    edge_count: usize,
    merges: Vec<MergeRecord>,
}

impl Dendrogram {
    /// Creates a dendrogram from a merge sequence.
    ///
    /// # Panics
    ///
    /// Panics if levels are not non-decreasing or a merge references an
    /// out-of-range edge index.
    #[must_use]
    pub fn from_merges(edge_count: usize, merges: Vec<MergeRecord>) -> Self {
        let mut prev = 0;
        for m in &merges {
            assert!(m.level >= prev, "merge levels must be non-decreasing");
            assert!(
                (m.left as usize) < edge_count && (m.right as usize) < edge_count,
                "merge references edge beyond {edge_count}"
            );
            assert_eq!(m.into, m.left.min(m.right), "surviving id must be the smaller root");
            prev = m.level;
        }
        Dendrogram { edge_count, merges }
    }

    /// Number of edges being clustered.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of merge events.
    #[must_use]
    pub fn merge_count(&self) -> u64 {
        self.merges.len() as u64
    }

    /// The merge events, in order.
    #[must_use]
    pub fn merges(&self) -> &[MergeRecord] {
        &self.merges
    }

    /// The highest level (0 if no merges happened).
    #[must_use]
    pub fn levels(&self) -> u32 {
        self.merges.last().map_or(0, |m| m.level)
    }

    /// Cluster count after all merges: `|E| −` number of merges.
    #[must_use]
    pub fn final_cluster_count(&self) -> usize {
        self.edge_count - self.merges.len()
    }

    /// Edge-cluster assignments after replaying merges up to and
    /// including `level`. Labels follow the paper's convention: a
    /// cluster is named after its smallest edge index.
    #[must_use]
    pub fn assignments_at_level(&self, level: u32) -> Vec<u32> {
        let mut uf = UnionFind::new(self.edge_count);
        for m in &self.merges {
            if m.level > level {
                break;
            }
            uf.union(m.left as usize, m.right as usize);
        }
        uf.assignments()
    }

    /// Edge-cluster assignments after all merges.
    #[must_use]
    pub fn final_assignments(&self) -> Vec<u32> {
        self.assignments_at_level(u32::MAX)
    }

    /// Cluster count after replaying merges up to and including `level`.
    #[must_use]
    pub fn cluster_count_at_level(&self, level: u32) -> usize {
        let merged = self.merges.iter().take_while(|m| m.level <= level).count();
        self.edge_count - merged
    }

    /// For every distinct level, the cluster count after completing that
    /// level — the curve of Fig. 2(2).
    #[must_use]
    pub fn cluster_counts_per_level(&self) -> Vec<(u32, usize)> {
        let mut out = Vec::new();
        let mut remaining = self.edge_count;
        let mut i = 0;
        while i < self.merges.len() {
            let level = self.merges[i].level;
            while i < self.merges.len() && self.merges[i].level == level {
                remaining -= 1;
                i += 1;
            }
            out.push((level, remaining));
        }
        out
    }

    /// The partition-density profile: one point per distinct level, with
    /// the cluster count and partition density after completing that
    /// level, replayed over the dendrogram's [`MergeForest`]. The
    /// implicit starting point (level 0, every edge a singleton, density
    /// 0) is not included.
    ///
    /// Slot `s` is read as edge `s`, which holds for a sweep under the
    /// default [`EdgeOrder::Insertion`](crate::sweep::EdgeOrder). For a
    /// sweep output under any order, use
    /// [`SweepOutput::density_profile`](crate::sweep::SweepOutput::density_profile),
    /// which reads the output's slot map.
    ///
    /// [`best_density_cut`](Self::best_density_cut) is a fold over this
    /// profile, so the two are bit-identical by construction — the
    /// contract the serialized `DendrogramIndex` in `linkclust-serve`
    /// relies on.
    ///
    /// # Panics
    ///
    /// Panics if `g` does not have exactly `edge_count` edges.
    #[must_use]
    pub fn density_profile<G: GraphView + ?Sized>(&self, g: &G) -> Vec<DensityCut> {
        assert_eq!(g.edge_count(), self.edge_count, "dendrogram does not match graph");
        MergeForest::new(self.edge_count, &self.merges, g.vertex_count(), |s| endpoints(g, s))
            .density_profile()
    }

    /// Finds the cut (level) maximizing partition density: the
    /// [`DensityCut::best_of`] fold over
    /// [`density_profile`](Self::density_profile), which reads slot `s`
    /// as edge `s` as that method does.
    ///
    /// Returns `None` for an edgeless graph.
    ///
    /// # Panics
    ///
    /// Panics if `g` does not have exactly `edge_count` edges.
    #[must_use]
    pub fn best_density_cut<G: GraphView + ?Sized>(&self, g: &G) -> Option<DensityCut> {
        DensityCut::best_of(self.edge_count, &self.density_profile(g))
    }
}

/// The endpoints of edge `e` of `g` as raw vertex ids.
pub(crate) fn endpoints<G: GraphView + ?Sized>(g: &G, e: usize) -> (u32, u32) {
    let (s, t) = g.edge_endpoints(EdgeId::new(e));
    (s.into(), t.into())
}

/// The gap between two DFS-adjacent leaves of different trees: no
/// common ancestor. Larger than every node id, so a range maximum over
/// the gaps between two leaves is this value exactly when a tree
/// boundary lies between them.
const NO_ANCESTOR: u32 = u32::MAX;

/// The flat summary of a dendrogram's merge forest (its Kruskal
/// reconstruction tree). The `m` slots are the leaves, nodes `0..m`, and
/// merge `i` is node `m + i`, whose children are the two clusters it
/// joined: the one holding the merge's `left` operand first. A node's
/// children have smaller ids than the node.
///
/// Each node carries its parent (a root is its own parent), the number
/// of edges under it (the sum of its children's) and the number of
/// distinct vertices those edges span; each merge node also carries its
/// level. The partition-density profile is one replay over these counts
/// ([`density_profile`](Self::density_profile)), and the clusters at any
/// cut are the nodes [`clusters_after`](Self::clusters_after) lists.
///
/// Vertex counts come from distinct-colour counting over the forest's
/// DFS leaf order (DESIGN.md, "One merge-forest summary"). Each leaf adds
/// its two endpoints. For each vertex, each pair of its incident leaves
/// that are adjacent among them in DFS order and lie in one tree
/// subtracts one at their lowest common ancestor: the largest node among
/// the DFS gaps between the two leaves, found by an offline range
/// maximum over a union-find. The whole build takes O((m + k) α(m)) time
/// and O(m + k + n) words for `k` merges over `n` vertices.
///
/// # Examples
///
/// ```
/// use linkclust_core::dendrogram::{MergeForest, MergeRecord};
///
/// // A path 0–1–2–3 as three slots; slots 0 and 1 merge, then slot 2
/// // joins them.
/// let ends = [(0, 1), (1, 2), (2, 3)];
/// let merges = [
///     MergeRecord { level: 1, left: 0, right: 1, into: 0 },
///     MergeRecord { level: 2, left: 0, right: 2, into: 0 },
/// ];
/// let forest = MergeForest::new(3, &merges, 4, |s| ends[s]);
/// assert_eq!(forest.vertex_count(3), 3); // merge 0 spans {0, 1, 2}
/// assert_eq!(forest.vertex_count(4), 4);
/// assert_eq!(forest.clusters_after(1).collect::<Vec<_>>(), vec![2, 3]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MergeForest {
    /// Parent of each node; a root is its own parent.
    parent: Vec<u32>,
    /// The two children of each merge node, indexed by merge.
    children: Vec<[u32; 2]>,
    /// The level of each merge.
    levels: Vec<u32>,
    /// Edges under each node.
    edges: Vec<u32>,
    /// Distinct vertices under each node.
    vertices: Vec<u32>,
}

impl MergeForest {
    /// Builds the summary of `merges` over `leaves` slots, where the edge
    /// in slot `s` joins the vertices `slot_endpoints(s)`, both below
    /// `vertex_count`. A merge operand that an earlier merge consumed
    /// names the cluster holding it, as a union-find replay reads it.
    ///
    /// # Panics
    ///
    /// Panics if the forest has more than `u32::MAX` nodes, or if a merge
    /// operand or an endpoint is out of range.
    #[must_use]
    pub fn new(
        leaves: usize,
        merges: &[MergeRecord],
        vertex_count: usize,
        slot_endpoints: impl Fn(usize) -> (u32, u32),
    ) -> Self {
        let m = leaves;
        let nodes = u32::try_from(m + merges.len()).expect("merge forest ids fit u32");
        let mut parent: Vec<u32> = (0..nodes).collect();
        let mut children = Vec::with_capacity(merges.len());
        let mut edges = vec![1u32; m];
        edges.reserve(merges.len());
        // The node each label last named: the root of its tree while the
        // label is live, an earlier node of that tree once it is not.
        let mut node_of: Vec<u32> = (0..id(m)).collect();
        let root = |parent: &[u32], mut v: u32| {
            while parent[ix(v)] != v {
                v = parent[ix(v)];
            }
            v
        };
        for (i, rec) in merges.iter().enumerate() {
            let v = id(m + i);
            let l = root(&parent, node_of[ix(rec.left)]);
            let r = root(&parent, node_of[ix(rec.right)]);
            debug_assert_ne!(l, r, "a merge joins two distinct clusters");
            parent[ix(l)] = v;
            parent[ix(r)] = v;
            children.push([l, r]);
            edges.push(edges[ix(l)] + edges[ix(r)]);
            node_of[ix(rec.into)] = v;
        }
        let vertices =
            distinct_vertex_counts(&parent, &children, &edges, vertex_count, slot_endpoints);
        MergeForest {
            parent,
            children,
            levels: merges.iter().map(|r| r.level).collect(),
            edges,
            vertices,
        }
    }

    /// Number of leaves (slots).
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.parent.len() - self.children.len()
    }

    /// Number of nodes: leaves plus merges.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// The parent of every node; a root is its own parent.
    #[must_use]
    pub fn parents(&self) -> &[u32] {
        &self.parent
    }

    /// The level at which `node` comes into existence: 0 for a leaf, its
    /// merge's level otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not below [`node_count`](Self::node_count).
    #[must_use]
    pub fn level(&self, node: usize) -> u32 {
        match node.checked_sub(self.leaf_count()) {
            Some(i) => self.levels[i],
            None => 0,
        }
    }

    /// Number of edges under `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not below [`node_count`](Self::node_count).
    #[must_use]
    pub fn edge_count(&self, node: usize) -> u64 {
        u64::from(self.edges[node])
    }

    /// Number of distinct vertices the edges under `node` span.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not below [`node_count`](Self::node_count).
    #[must_use]
    pub fn vertex_count(&self, node: usize) -> u64 {
        u64::from(self.vertices[node])
    }

    /// The nodes that are the clusters after the first `merged` merges,
    /// in increasing id: the nodes below `m + merged` whose parent is
    /// themselves or a later merge. One pass over those nodes.
    ///
    /// # Panics
    ///
    /// Panics if `merged` exceeds the merge count.
    pub fn clusters_after(&self, merged: usize) -> impl Iterator<Item = usize> + '_ {
        let cut = self.leaf_count() + merged;
        self.parent[..cut].iter().enumerate().filter_map(move |(v, &p)| {
            let p = ix(p);
            (p == v || p >= cut).then_some(v)
        })
    }

    /// The partition-density profile: one point per distinct level, as
    /// [`Dendrogram::density_profile`] documents. Each merge subtracts
    /// its two children's terms and adds its own, in that order, and each
    /// level ends with one `2/M · Σ` — the floating-point operations of a
    /// replay that keeps every cluster's vertex set, in the same order.
    #[must_use]
    pub fn density_profile(&self) -> Vec<DensityCut> {
        let m = self.leaf_count();
        let m_total = m as f64;
        let term = |v: u32| density_term(u64::from(self.edges[ix(v)]), ix(self.vertices[ix(v)]));
        // Σ m_c · D_c over clusters; singletons contribute 0.
        let mut sum = 0.0;
        let mut profile = Vec::new();
        let mut i = 0;
        while i < self.levels.len() {
            let level = self.levels[i];
            while i < self.levels.len() && self.levels[i] == level {
                let [l, r] = self.children[i];
                sum -= term(l);
                sum -= term(r);
                sum += term(id(m + i));
                i += 1;
            }
            let density = 2.0 / m_total * sum;
            profile.push(DensityCut { level, density, cluster_count: m - i });
        }
        profile
    }
}

/// Each node's count of distinct vertices, for the forest given by
/// `parent`, `children` and `edges` (see [`MergeForest`]).
fn distinct_vertex_counts(
    parent: &[u32],
    children: &[[u32; 2]],
    edges: &[u32],
    vertex_count: usize,
    slot_endpoints: impl Fn(usize) -> (u32, u32),
) -> Vec<u32> {
    let nodes = parent.len();
    let m = nodes - children.len();
    // DFS leaf order: a node's leaves take the positions
    // start[v] .. start[v] + edges[v], its first child's leaves first.
    // Parents have larger ids than their children, so one descending
    // pass reaches every node after its parent.
    let mut start = vec![0u32; nodes];
    let mut order = vec![0u32; m];
    let mut next_tree = 0;
    for v in (0..nodes).rev() {
        if ix(parent[v]) == v {
            start[v] = next_tree;
            next_tree += edges[v];
        }
        if v < m {
            order[ix(start[v])] = id(v);
        } else {
            let [l, r] = children[v - m];
            start[ix(l)] = start[v];
            start[ix(r)] = start[v] + edges[ix(l)];
        }
    }
    // gap[p]: the node whose two children meet between positions p and
    // p + 1, or NO_ANCESTOR where one tree ends and the next begins. The
    // lowest common ancestor of the leaves at positions p < q is the
    // largest of gap[p..q]: every gap in that range belongs to it or to
    // one of its descendants, which have smaller ids.
    let mut gap = vec![NO_ANCESTOR; m.saturating_sub(1)];
    for (i, &[_, r]) in children.iter().enumerate() {
        gap[ix(start[ix(r)]) - 1] = id(m + i);
    }
    drop(start);

    // Each leaf adds its two endpoints; each vertex's DFS-adjacent leaf
    // pairs in one tree take one back at their lowest common ancestor.
    // A node's own term can go below zero, but every subtree sum is a
    // count of at most n, so wrapping arithmetic yields it exactly.
    let mut vertices = vec![0u32; nodes];
    vertices[..m].fill(2);
    // The range maximum runs right to left. Positions p.. are split into
    // blocks, each starting at a prefix maximum of gap[p..] (its top, the
    // smallest position in it) and ending before the next one: the
    // maximum of gap[p..=q] is at the top of q's block. `tops` holds the
    // block tops, the nearest last.
    let mut blocks = UnionFind::new(gap.len());
    let mut tops: Vec<u32> = Vec::new();
    let mut next_leaf = vec![NO_ANCESTOR; vertex_count];
    for p in (0..m).rev() {
        if p < gap.len() {
            while let Some(&t) = tops.last() {
                if gap[ix(t)] > gap[p] {
                    break;
                }
                blocks.union(ix(t), p);
                tops.pop();
            }
            tops.push(id(p));
        }
        let (a, b) = slot_endpoints(ix(order[p]));
        for x in [a, b] {
            let q = std::mem::replace(&mut next_leaf[ix(x)], id(p));
            if q != NO_ANCESTOR {
                let lca = gap[ix(blocks.min_of(ix(q) - 1))];
                if lca != NO_ANCESTOR {
                    vertices[ix(lca)] = vertices[ix(lca)].wrapping_sub(1);
                }
            }
        }
    }
    for v in 0..nodes {
        let p = ix(parent[v]);
        if p != v {
            vertices[p] = vertices[p].wrapping_add(vertices[v]);
        }
    }
    vertices
}

/// A `u32` node id, slot, position or vertex as an index.
#[inline]
fn ix(id: u32) -> usize {
    // cast: u32 to index, lossless on 32- and 64-bit.
    id as usize
}

/// A node id, slot or DFS position of a [`MergeForest`] as `u32`: each
/// is below the node count, which [`MergeForest::new`] checks fits `u32`.
#[inline]
fn id(index: usize) -> u32 {
    // cast: below the node count, which fits u32.
    index as u32
}

/// A dendrogram cut selected by partition density.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DensityCut {
    /// The level to cut at.
    pub level: u32,
    /// The partition density at that level.
    pub density: f64,
    /// The number of link communities at that level.
    pub cluster_count: usize,
}

impl DensityCut {
    /// The density-optimal cut of `profile`, a density profile over
    /// `edge_count` edges: a strict-`>` fold from the implicit level-0
    /// cut (all singletons, density 0), so an exact tie goes to the
    /// earliest level. `None` when there are no edges.
    #[must_use]
    pub fn best_of(edge_count: usize, profile: &[DensityCut]) -> Option<DensityCut> {
        if edge_count == 0 {
            return None;
        }
        let mut best = DensityCut { level: 0, density: 0.0, cluster_count: edge_count };
        for point in profile {
            if point.density > best.density {
                best = *point;
            }
        }
        Some(best)
    }
}

/// One cluster's contribution `m_c · D_c` to the partition-density sum,
/// where `D_c = (m_c − (n_c−1)) / ((n_c−2)(n_c−1)/2) / 2` following Ahn
/// et al.; clusters spanning ≤ 2 vertices contribute 0.
fn density_term(m_c: u64, n_c: usize) -> f64 {
    if n_c <= 2 {
        return 0.0;
    }
    let m = m_c as f64;
    let n = n_c as f64;
    m * (m - (n - 1.0)) / ((n - 2.0) * (n - 1.0))
}

/// Computes the partition density of an arbitrary edge labelling over
/// `g`: `D = (2/M) Σ_c m_c (m_c − n_c + 1) / ((n_c − 2)(n_c − 1))`.
///
/// # Panics
///
/// Panics if `labels.len() != g.edge_count()`.
#[must_use]
pub fn partition_density<G: GraphView + ?Sized>(g: &G, labels: &[u32]) -> f64 {
    assert_eq!(labels.len(), g.edge_count(), "one label per edge required");
    if labels.is_empty() {
        return 0.0;
    }
    use std::collections::{HashMap, HashSet};
    let mut edges_of: HashMap<u32, u64> = HashMap::new();
    let mut verts_of: HashMap<u32, HashSet<u32>> = HashMap::new();
    for (e, &l) in labels.iter().enumerate().map(|(e, l)| (EdgeId::new(e), l)) {
        let (source, target) = g.edge_endpoints(e);
        *edges_of.entry(l).or_default() += 1;
        let set = verts_of.entry(l).or_default();
        set.insert(source.into());
        set.insert(target.into());
    }
    let sum: f64 = edges_of.iter().map(|(l, &m_c)| density_term(m_c, verts_of[l].len())).sum();
    2.0 / g.edge_count() as f64 * sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkclust_graph::GraphBuilder;

    fn rec(level: u32, left: u32, right: u32) -> MergeRecord {
        MergeRecord { level, left, right, into: left.min(right) }
    }

    #[test]
    fn counts_and_levels() {
        let d = Dendrogram::from_merges(5, vec![rec(1, 0, 1), rec(2, 2, 3), rec(3, 0, 2)]);
        assert_eq!(d.edge_count(), 5);
        assert_eq!(d.merge_count(), 3);
        assert_eq!(d.levels(), 3);
        assert_eq!(d.final_cluster_count(), 2);
    }

    #[test]
    fn assignments_replay_partially() {
        let d = Dendrogram::from_merges(4, vec![rec(1, 0, 1), rec(2, 2, 3), rec(3, 0, 2)]);
        assert_eq!(d.assignments_at_level(0), vec![0, 1, 2, 3]);
        assert_eq!(d.assignments_at_level(1), vec![0, 0, 2, 3]);
        assert_eq!(d.assignments_at_level(2), vec![0, 0, 2, 2]);
        assert_eq!(d.final_assignments(), vec![0, 0, 0, 0]);
        assert_eq!(d.cluster_count_at_level(2), 2);
    }

    #[test]
    fn coarse_levels_share_counts() {
        let d = Dendrogram::from_merges(5, vec![rec(1, 0, 1), rec(1, 2, 3), rec(2, 0, 2)]);
        assert_eq!(d.cluster_counts_per_level(), vec![(1, 3), (2, 2)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing_levels() {
        let _ = Dendrogram::from_merges(3, vec![rec(2, 0, 1), rec(1, 1, 2)]);
    }

    #[test]
    fn partition_density_of_clique_partition() {
        // Two disjoint unit triangles, each its own cluster: every
        // cluster has m_c = 3, n_c = 3 -> D_c term = 3*(3-2)/((1)(2)) = 1.5
        // D = 2/6 * (1.5 + 1.5) = 1.0 (maximal density: cliques).
        let g = GraphBuilder::from_edges(
            6,
            &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)],
        )
        .unwrap()
        .build();
        let labels = vec![0, 0, 0, 3, 3, 3];
        assert!((partition_density(&g, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partition_density_of_singletons_is_zero() {
        let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap().build();
        assert_eq!(partition_density(&g, &[0, 1]), 0.0);
    }

    #[test]
    fn tree_cluster_has_zero_density() {
        // A path of 3 edges as one cluster: m_c = 3, n_c = 4 ->
        // m_c - (n_c - 1) = 0.
        let g =
            GraphBuilder::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]).unwrap().build();
        assert_eq!(partition_density(&g, &[0, 0, 0]), 0.0);
    }

    #[test]
    fn best_cut_prefers_triangles_over_everything_merged() {
        // Two triangles plus a bridge. Cutting before the bridge merge
        // gives density 1; merging everything dilutes it.
        let g = GraphBuilder::from_edges(
            6,
            &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)],
        )
        .unwrap()
        .build();
        let d = Dendrogram::from_merges(
            6,
            vec![rec(1, 0, 1), rec(2, 0, 2), rec(3, 3, 4), rec(4, 3, 5), rec(5, 0, 3)],
        );
        let cut = d.best_density_cut(&g).unwrap();
        assert_eq!(cut.level, 4);
        assert!((cut.density - 1.0).abs() < 1e-12);
        assert_eq!(cut.cluster_count, 2);
    }

    #[test]
    fn best_cut_density_matches_direct_computation() {
        use linkclust_graph::generate::{gnm, WeightMode};
        let g = gnm(12, 24, WeightMode::Unit, 3);
        // Arbitrary valid merge sequence: chain some edges together.
        let mut merges = Vec::new();
        let mut uf = UnionFind::new(24);
        let mut level = 0;
        for i in (1..20).step_by(2) {
            let (a, b) = (uf.min_of(i - 1), uf.min_of(i));
            if a != b {
                level += 1;
                merges.push(MergeRecord { level, left: a, right: b, into: a.min(b) });
                uf.union(a as usize, b as usize);
            }
        }
        let d = Dendrogram::from_merges(24, merges);
        let cut = d.best_density_cut(&g).unwrap();
        let direct = partition_density(&g, &d.assignments_at_level(cut.level));
        assert!((cut.density - direct).abs() < 1e-9);
    }

    #[test]
    fn empty_dendrogram() {
        let d = Dendrogram::from_merges(0, vec![]);
        assert_eq!(d.final_cluster_count(), 0);
        assert_eq!(d.levels(), 0);
        let g = GraphBuilder::new().build();
        assert!(d.best_density_cut(&g).is_none());
    }
}
