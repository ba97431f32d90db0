//! Epoch states and the rollback list (§V-A).
//!
//! When an epoch overshoots the merge-rate bound the algorithm rolls back
//! to the previous safe state — but the overshot state is not discarded:
//! it is saved on the list `L_rollback` so a later level can *reuse* it
//! (jump directly to it) instead of recomputing the same merges, and so
//! the tail mode can use it as an extrapolation reference (Eq. 6).

/// A saved (overshot) epoch state: the tuple `Q = (β, Δ, p, C)` of §V-A.
///
/// The engine that answers the mode machine decides what stands for `C`
/// ([`state`](Self::state)): the chunk engine keeps a snapshot of the
/// cluster array, whose reuse is committed by diffing partitions; the
/// stream engine keeps nothing, since the partition after `p` entries is
/// the exact merge stream's prefix up to entry `p`.
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct SavedEpoch<S> {
    /// The engine's state at the overshot point.
    pub state: S,
    /// Incident edge pairs processed at the overshot point (ξ).
    pub pairs: u64,
    /// Index of the next unprocessed entry of list `L` (the pointer `p`).
    pub entry_index: usize,
    /// Cluster count at the overshot point (β̃).
    pub clusters: usize,
}

/// The rollback list `L_rollback`: saved epoch states, capped in length
/// by [`CoarseConfig::max_rollback_states`](super::CoarseConfig::max_rollback_states).
#[derive(Clone, PartialEq, Debug)]
pub(crate) struct RollbackList<S> {
    states: Vec<SavedEpoch<S>>,
    capacity: usize,
}

impl<S> RollbackList<S> {
    pub(super) fn new(capacity: usize) -> Self {
        RollbackList { states: Vec::new(), capacity: capacity.max(1) }
    }

    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.states.len()
    }

    /// Saves an overshot state, evicting the oldest if at capacity.
    pub(super) fn push(&mut self, state: SavedEpoch<S>) {
        if self.states.len() == self.capacity {
            self.states.remove(0);
        }
        self.states.push(state);
    }

    /// Case-I reuse search: among states strictly ahead of the current
    /// level (β̃ < β) whose jump respects the soundness bound
    /// (β/β̃ ≤ γ), returns the one with the **fewest** clusters (the
    /// furthest admissible jump). The state is removed from the list.
    pub(super) fn take_reusable(&mut self, beta: usize, gamma: f64) -> Option<SavedEpoch<S>> {
        let idx = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.clusters < beta && beta as f64 / s.clusters as f64 <= gamma)
            .min_by_key(|(_, s)| s.clusters)
            .map(|(i, _)| i)?;
        Some(self.states.remove(idx))
    }

    /// Eq.-6 tail reference: the state *closest ahead* of the current
    /// level — β̃(s) < β and β̃(s) maximal among those. Not removed.
    pub(super) fn tail_reference(&self, beta: usize) -> Option<&SavedEpoch<S>> {
        self.states.iter().filter(|s| s.clusters < beta).max_by_key(|s| s.clusters)
    }

    /// Drops states that are no longer ahead of the current level
    /// (β̃ ≥ β): they can never be reused or referenced again.
    pub(super) fn prune(&mut self, beta: usize) {
        self.states.retain(|s| s.clusters < beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(clusters: usize) -> SavedEpoch<()> {
        SavedEpoch { state: (), pairs: 10, entry_index: 1, clusters }
    }

    #[test]
    fn take_reusable_picks_furthest_admissible() {
        let mut list = RollbackList::new(8);
        for c in [900, 600, 300, 100] {
            list.push(state(c));
        }
        // β = 1000, γ = 2: admissible are β̃ ∈ {900, 600, 500..}; 300 gives
        // rate 3.33 > 2, 100 gives 10. Furthest admissible is 600.
        let s = list.take_reusable(1000, 2.0).unwrap();
        assert_eq!(s.clusters, 600);
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn take_reusable_requires_progress() {
        let mut list = RollbackList::new(8);
        list.push(state(1000));
        assert!(list.take_reusable(1000, 2.0).is_none());
        assert!(list.take_reusable(500, 10.0).is_none());
    }

    #[test]
    fn tail_reference_is_closest_ahead() {
        let mut list = RollbackList::new(8);
        for c in [900, 600, 300] {
            list.push(state(c));
        }
        assert_eq!(list.tail_reference(700).unwrap().clusters, 600);
        assert_eq!(list.tail_reference(250), None);
    }

    #[test]
    fn prune_drops_past_states() {
        let mut list = RollbackList::new(8);
        for c in [900, 600, 300] {
            list.push(state(c));
        }
        list.prune(600);
        assert_eq!(list.len(), 1);
        assert_eq!(list.tail_reference(usize::MAX).unwrap().clusters, 300);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut list = RollbackList::new(2);
        for c in [900, 600, 300] {
            list.push(state(c));
        }
        assert_eq!(list.len(), 2);
        assert!(list.tail_reference(1000).map(|s| s.clusters) == Some(600));
    }
}
