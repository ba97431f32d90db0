//! Classic disjoint-set union-find (path compression + union by rank).
//!
//! [`UnionFind`] serves the MST baseline
//! ([`baseline::mst`](crate::baseline::mst)), the block-local passes and
//! the Kruskal pass of the `ufsweep` engine, and is an ablation
//! comparator for the paper's chain array `C`
//! ([`ClusterArray`](crate::ClusterArray)): union-find achieves near-O(1)
//! amortized finds but does not preserve the "min index is the cluster
//! id" labelling that the paper's dendrogram output relies on, so we
//! track the minimum element per set explicitly.

/// A disjoint-set forest over `n` elements, tracking each set's minimum
/// element (the cluster id convention of the paper).
///
/// # Examples
///
/// ```
/// use linkclust_core::unionfind::UnionFind;
///
/// let mut uf = UnionFind::new(5);
/// assert!(uf.union(1, 4));
/// assert!(!uf.union(4, 1)); // already joined
/// assert_eq!(uf.min_of(4), 1);
/// assert_eq!(uf.set_count(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    min: Vec<u32>,
    sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    #[must_use]
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            min: (0..n as u32).collect(),
            sets: n,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if there are no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The representative of `i`'s set (with path compression).
    pub fn find(&mut self, i: usize) -> u32 {
        let mut root = i;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = i;
        while cur != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root as u32
    }

    /// The smallest element in `i`'s set — the paper's cluster id.
    pub fn min_of(&mut self, i: usize) -> u32 {
        let r = self.find(i);
        self.min[r as usize]
    }

    /// Joins the sets of `a` and `b`. Returns `true` if they were
    /// distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) =
            if self.rank[ra as usize] >= self.rank[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        let m = self.min[hi as usize].min(self.min[lo as usize]);
        self.min[hi as usize] = m;
        self.sets -= 1;
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// The number of disjoint sets.
    #[must_use]
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Resolves every element to its set's minimum element (comparable
    /// with [`ClusterArray::assignments`](crate::ClusterArray::assignments)).
    pub fn assignments(&mut self) -> Vec<u32> {
        (0..self.len()).map(|i| self.min_of(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.set_count(), 3);
        for i in 0..3 {
            assert_eq!(uf.find(i) as usize, i);
            assert_eq!(uf.min_of(i) as usize, i);
        }
    }

    #[test]
    fn union_tracks_minimum() {
        let mut uf = UnionFind::new(6);
        uf.union(5, 3);
        uf.union(3, 4);
        assert_eq!(uf.min_of(5), 3);
        uf.union(4, 1);
        assert_eq!(uf.min_of(5), 1);
        assert_eq!(uf.set_count(), 3);
    }

    #[test]
    fn connected_after_transitive_unions() {
        let mut uf = UnionFind::new(8);
        uf.union(0, 1);
        uf.union(2, 3);
        assert!(!uf.connected(1, 2));
        uf.union(1, 3);
        assert!(uf.connected(0, 2));
    }

    #[test]
    fn assignments_match_cluster_array_semantics() {
        use crate::ClusterArray;
        let ops = [(0usize, 1usize), (2, 3), (3, 4), (1, 4), (6, 7)];
        let mut uf = UnionFind::new(8);
        let mut ca = ClusterArray::new(8);
        for &(a, b) in &ops {
            uf.union(a, b);
            ca.merge(a, b);
        }
        assert_eq!(uf.assignments(), ca.assignments());
        assert_eq!(uf.set_count(), ca.cluster_count());
    }

    #[test]
    fn empty() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.set_count(), 0);
        assert!(uf.assignments().is_empty());
    }
}
