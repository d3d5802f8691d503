//! Per-neighbor link state.
//!
//! BRISA never removes entries from the HyParView active view; it only marks
//! links as *active* or *inactive* for the purpose of stream dissemination
//! (Section II-C). Each node tracks, for every overlay neighbor:
//!
//! * whether the neighbor is one of its **parents** (selected inbound links);
//! * whether the node has asked the neighbor to stop relaying to it
//!   (**inbound deactivated**);
//! * whether the neighbor has asked this node to stop relaying to it
//!   (**outbound inactive**).
//!
//! Children are the neighbors with an active outbound link that are not
//! parents; they determine the node's degree in the emerged structure.

use brisa_simnet::NodeId;
use std::collections::BTreeSet;

/// Dissemination link state towards every current overlay neighbor.
#[derive(Debug, Clone, Default)]
pub struct Links {
    neighbors: BTreeSet<NodeId>,
    parents: BTreeSet<NodeId>,
    inbound_deactivated: BTreeSet<NodeId>,
    outbound_inactive: BTreeSet<NodeId>,
}

impl Links {
    /// Creates an empty link table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new overlay neighbor. New links start fully active in
    /// both directions ("BRISA automatically marks links to new nodes as
    /// active", Section II-F).
    pub fn neighbor_up(&mut self, peer: NodeId) {
        self.neighbors.insert(peer);
        self.inbound_deactivated.remove(&peer);
        self.outbound_inactive.remove(&peer);
    }

    /// Removes an overlay neighbor entirely (it failed or was evicted).
    /// Returns `true` if the neighbor was one of our parents.
    pub fn neighbor_down(&mut self, peer: NodeId) -> bool {
        self.neighbors.remove(&peer);
        self.inbound_deactivated.remove(&peer);
        self.outbound_inactive.remove(&peer);
        self.parents.remove(&peer)
    }

    /// True if `peer` is a current overlay neighbor.
    pub fn is_neighbor(&self, peer: NodeId) -> bool {
        self.neighbors.contains(&peer)
    }

    /// All current overlay neighbors.
    pub fn neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors.iter().copied()
    }

    /// Number of overlay neighbors.
    pub fn neighbor_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Current parents (selected inbound links).
    pub fn parents(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.parents.iter().copied()
    }

    /// Number of current parents.
    pub fn parent_count(&self) -> usize {
        self.parents.len()
    }

    /// True if `peer` is one of our parents.
    pub fn is_parent(&self, peer: NodeId) -> bool {
        self.parents.contains(&peer)
    }

    /// Adopts `peer` as a parent (also re-activates its inbound link).
    pub fn adopt_parent(&mut self, peer: NodeId) {
        self.parents.insert(peer);
        self.inbound_deactivated.remove(&peer);
    }

    /// Drops `peer` from the parent set without touching the neighbor entry.
    pub fn drop_parent(&mut self, peer: NodeId) -> bool {
        self.parents.remove(&peer)
    }

    /// Marks the inbound link from `peer` as deactivated (we asked it to
    /// stop relaying to us).
    pub fn deactivate_inbound(&mut self, peer: NodeId) {
        self.inbound_deactivated.insert(peer);
        self.parents.remove(&peer);
    }

    /// Re-activates the inbound link from `peer`.
    pub fn reactivate_inbound(&mut self, peer: NodeId) {
        self.inbound_deactivated.remove(&peer);
    }

    /// Re-activates every inbound link (soft/hard repair fallback).
    pub fn reactivate_all_inbound(&mut self) {
        self.inbound_deactivated.clear();
    }

    /// Neighbors whose inbound link is still active (they may relay stream
    /// data to us).
    pub fn inbound_active(&self) -> Vec<NodeId> {
        self.neighbors
            .iter()
            .copied()
            .filter(|p| !self.inbound_deactivated.contains(p))
            .collect()
    }

    /// Number of neighbors whose inbound link is still active.
    pub fn inbound_active_count(&self) -> usize {
        self.neighbors
            .iter()
            .filter(|p| !self.inbound_deactivated.contains(p))
            .count()
    }

    /// Marks the outbound link towards `peer` inactive (it asked us to stop
    /// relaying to it).
    pub fn deactivate_outbound(&mut self, peer: NodeId) {
        self.outbound_inactive.insert(peer);
    }

    /// Re-activates the outbound link towards `peer`.
    pub fn reactivate_outbound(&mut self, peer: NodeId) {
        self.outbound_inactive.remove(&peer);
    }

    /// True if this node currently relays stream data to `peer`.
    pub fn is_outbound_active(&self, peer: NodeId) -> bool {
        self.neighbors.contains(&peer) && !self.outbound_inactive.contains(&peer)
    }

    /// Neighbors this node relays stream data to (outbound-active links),
    /// in ascending id order.
    pub fn outbound_active(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors
            .iter()
            .copied()
            .filter(|p| !self.outbound_inactive.contains(p))
    }

    /// Children in the emerged structure: outbound-active neighbors that are
    /// not parents. Their number is the node's degree (Figure 7).
    pub fn children(&self) -> Vec<NodeId> {
        self.children_iter().collect()
    }

    /// Number of children (the node's out-degree in the structure).
    pub fn degree(&self) -> usize {
        self.children_iter().count()
    }

    fn children_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.outbound_active().filter(|p| !self.parents.contains(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_neighbors_are_fully_active() {
        let mut l = Links::new();
        l.neighbor_up(NodeId(1));
        l.neighbor_up(NodeId(2));
        assert!(l.is_neighbor(NodeId(1)));
        assert_eq!(l.inbound_active_count(), 2);
        assert_eq!(l.outbound_active().count(), 2);
        assert_eq!(l.degree(), 2);
        assert_eq!(l.parent_count(), 0);
    }

    #[test]
    fn adopt_and_drop_parent() {
        let mut l = Links::new();
        l.neighbor_up(NodeId(1));
        l.adopt_parent(NodeId(1));
        assert!(l.is_parent(NodeId(1)));
        assert_eq!(
            l.children(),
            Vec::<NodeId>::new(),
            "parents are not children"
        );
        assert!(l.drop_parent(NodeId(1)));
        assert!(!l.drop_parent(NodeId(1)));
        assert_eq!(l.degree(), 1);
    }

    #[test]
    fn deactivation_bookkeeping() {
        let mut l = Links::new();
        for i in 1..=3 {
            l.neighbor_up(NodeId(i));
        }
        l.adopt_parent(NodeId(1));
        l.deactivate_inbound(NodeId(2));
        l.deactivate_inbound(NodeId(3));
        assert_eq!(l.inbound_active(), vec![NodeId(1)]);
        assert_eq!(l.inbound_active_count(), 1);
        l.reactivate_inbound(NodeId(2));
        assert_eq!(l.inbound_active_count(), 2);
        l.reactivate_all_inbound();
        assert_eq!(l.inbound_active_count(), 3);
        // Deactivating the inbound link of a parent also drops it as parent.
        l.deactivate_inbound(NodeId(1));
        assert!(!l.is_parent(NodeId(1)));
    }

    #[test]
    fn outbound_deactivation_shrinks_children() {
        let mut l = Links::new();
        for i in 1..=3 {
            l.neighbor_up(NodeId(i));
        }
        l.adopt_parent(NodeId(1));
        l.deactivate_outbound(NodeId(2));
        assert!(!l.is_outbound_active(NodeId(2)));
        assert!(l.is_outbound_active(NodeId(3)));
        assert_eq!(l.children(), vec![NodeId(3)]);
        assert_eq!(l.degree(), 1);
        l.reactivate_outbound(NodeId(2));
        assert_eq!(l.degree(), 2);
    }

    #[test]
    fn neighbor_down_cleans_up_and_reports_parent_loss() {
        let mut l = Links::new();
        l.neighbor_up(NodeId(1));
        l.neighbor_up(NodeId(2));
        l.adopt_parent(NodeId(1));
        l.deactivate_outbound(NodeId(2));
        assert!(l.neighbor_down(NodeId(1)), "losing a parent is reported");
        assert!(!l.neighbor_down(NodeId(2)), "losing a non-parent is not");
        assert_eq!(l.neighbor_count(), 0);
        // Re-adding a neighbor that had a deactivated link starts fresh.
        l.neighbor_up(NodeId(2));
        assert!(l.is_outbound_active(NodeId(2)));
    }

    #[test]
    fn non_neighbor_is_never_outbound_active() {
        let l = Links::new();
        assert!(!l.is_outbound_active(NodeId(9)));
    }
}
