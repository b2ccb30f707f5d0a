//! The fleet interleaving core: a min-heap of replica ready-times with
//! lazy invalidation.
//!
//! The [`FleetEngine`] juggles N independently-clocked
//! [`ServingSimulator`](crate::ServingSimulator)s through this one
//! structure instead of re-deriving min-over-replicas per event.
//!
//! [`FleetEngine`]: crate::FleetEngine

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use llmss_sched::TimePs;

/// A min-heap of replica ready-times with lazy invalidation: every
/// mutation re-keys the replica under a fresh stamp, and a stale entry
/// is discarded as soon as it reaches the top. The top is therefore
/// always live, so [`peek`](Self::peek) takes `&self` and answers in
/// O(1). A `ready` mirror keeps the latest value per replica, which the
/// window collector reads for prefill replicas
/// ([`ready_of`](Self::ready_of)).
#[derive(Debug, Default)]
pub struct ReadyHeap {
    /// `(ready time, replica, stamp)` entries, earliest first; the top
    /// entry, if any, is live.
    heap: BinaryHeap<Reverse<(TimePs, usize, u64)>>,
    /// Latest stamp per replica; heap entries with older stamps are stale.
    stamps: Vec<u64>,
    /// The live ready-time per replica (mirror of the newest entry).
    ready: Vec<Option<TimePs>>,
    counter: u64,
}

impl ReadyHeap {
    /// An empty heap over `n` replicas.
    pub fn new(n: usize) -> Self {
        Self { heap: BinaryHeap::new(), stamps: vec![0; n], ready: vec![None; n], counter: 0 }
    }

    /// Number of replicas the heap tracks.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether the heap tracks zero replicas.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// Adds one more replica slot (initially idle) and returns its index
    /// — the scale-up path for elastic fleets.
    pub fn grow(&mut self) -> usize {
        self.stamps.push(0);
        self.ready.push(None);
        self.stamps.len() - 1
    }

    /// Re-keys `replica` after a mutation: its previous entry (if any)
    /// goes stale, and `ready` (when `Some`) becomes its live entry.
    pub fn refresh(&mut self, replica: usize, ready: Option<TimePs>) {
        self.counter += 1;
        self.stamps[replica] = self.counter;
        self.ready[replica] = ready;
        if let Some(t) = ready {
            self.heap.push(Reverse((t, replica, self.counter)));
        }
        self.drop_stale_top();
    }

    /// The earliest live entry, in O(1).
    pub fn peek(&self) -> Option<(TimePs, usize)> {
        let top = self.heap.peek().map(|&Reverse((t, idx, _))| (t, idx));
        #[cfg(feature = "sanitize")]
        debug_assert_eq!(
            top,
            self.min_live(),
            "sanitize: ReadyHeap mirror drift — the heap's top disagrees with the mirror"
        );
        top
    }

    /// Removes and returns the earliest live entry. The popped replica
    /// goes idle in the mirror too, so the mirror never lists an entry
    /// that no longer exists in the heap.
    pub fn pop(&mut self) -> Option<(TimePs, usize)> {
        let Reverse((t, idx, _)) = self.heap.pop()?;
        self.ready[idx] = None;
        self.drop_stale_top();
        Some((t, idx))
    }

    /// The live ready-time of one replica (`None` = parked/idle) — the
    /// windowed step loop reads it to lower a window's barrier to each
    /// prefill replica's next event without disturbing the heap.
    pub fn ready_of(&self, replica: usize) -> Option<TimePs> {
        self.ready[replica]
    }

    /// Restores the live-top invariant: discards stale entries until the
    /// top is live or the heap is empty.
    fn drop_stale_top(&mut self) {
        while let Some(&Reverse((_, idx, stamp))) = self.heap.peek() {
            if self.stamps[idx] == stamp {
                return;
            }
            self.heap.pop();
        }
    }

    /// The earliest live ready-time by an O(replicas) scan of the
    /// mirror: the sanitizer's cross-check of [`peek`](Self::peek). Ties
    /// resolve to the lowest replica index, matching the heap's
    /// time-then-index ordering.
    #[cfg(any(test, feature = "sanitize"))]
    fn min_live(&self) -> Option<(TimePs, usize)> {
        self.ready.iter().enumerate().filter_map(|(i, r)| r.map(|t| (t, i))).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refresh_invalidates_previous_entries() {
        let mut h = ReadyHeap::new(2);
        h.refresh(0, Some(100));
        h.refresh(1, Some(50));
        h.refresh(1, Some(200)); // replica 1's earlier entry goes stale
        assert_eq!(h.peek(), Some((100, 0)));
        assert_eq!(h.pop(), Some((100, 0)));
        assert_eq!(h.pop(), Some((200, 1)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn refresh_to_none_parks_a_replica() {
        let mut h = ReadyHeap::new(1);
        h.refresh(0, Some(10));
        h.refresh(0, None);
        assert_eq!(h.peek(), None);
        assert_eq!(h.min_live(), None);
    }

    #[test]
    fn min_live_matches_peek_without_mutation() {
        let mut h = ReadyHeap::new(3);
        h.refresh(0, Some(30));
        h.refresh(1, Some(10));
        h.refresh(2, Some(10)); // tie: lowest index wins, as in peek
        assert_eq!(h.min_live(), Some((10, 1)));
        assert_eq!(h.peek(), Some((10, 1)));
    }

    #[test]
    fn grow_adds_idle_slots() {
        let mut h = ReadyHeap::new(1);
        h.refresh(0, Some(5));
        let idx = h.grow();
        assert_eq!(idx, 1);
        assert_eq!(h.len(), 2);
        assert_eq!(h.min_live(), Some((5, 0)));
        h.refresh(idx, Some(1));
        assert_eq!(h.pop(), Some((1, 1)));
    }
}
