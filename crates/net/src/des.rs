//! Discrete-event simulation core.
//!
//! A minimal, deterministic event queue: events fire in time order, with
//! insertion order breaking ties so identical runs replay identically.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulated time in picoseconds.
pub type TimePs = u64;

/// One picosecond-stamped entry in the queue.
#[derive(Debug)]
struct Entry<E> {
    time: TimePs,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// # Examples
///
/// ```
/// use llmss_net::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(20, "late");
/// q.push(10, "early");
/// q.push(10, "early-second");
/// assert_eq!(q.pop(), Some((10, "early")));
/// assert_eq!(q.pop(), Some((10, "early-second")));
/// assert_eq!(q.pop(), Some((20, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: TimePs,
    processed: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0, now: 0, processed: 0 }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time
    /// (causality violation).
    pub fn push(&mut self, time: TimePs, event: E) {
        assert!(time >= self.now, "event scheduled in the past: {time} < {}", self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Pops the earliest event, advancing the simulation clock to it.
    pub fn pop(&mut self) -> Option<(TimePs, E)> {
        let e = self.heap.pop()?;
        self.now = e.time;
        self.processed += 1;
        Some((e.time, e.event))
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> TimePs {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The pending events in no particular order, each with its time and
    /// its insertion sequence number (among equal times, the lower number
    /// pops first).
    pub fn pending(&self) -> impl Iterator<Item = (TimePs, u64, &E)> + '_ {
        self.heap.iter().map(|e| (e.time, e.seq, &e.event))
    }

    /// Total events popped since construction (or the last
    /// [`reset`](Self::reset)).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Returns the queue to its initial state (time zero, zero events
    /// processed) while keeping the heap's allocation for reuse.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.now = 0;
        self.processed = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(5, 'c');
        q.push(3, 'a');
        q.push(5, 'd');
        q.push(4, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(7, ());
        q.push(9, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 7);
        q.pop();
        assert_eq!(q.now(), 9);
        assert_eq!(q.processed(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_causality_violation() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push(5, ());
    }

    #[test]
    fn pending_lists_unpopped_entries_with_their_order() {
        let mut q = EventQueue::new();
        q.push(5, 'a');
        q.push(3, 'b');
        q.push(5, 'c');
        q.pop();
        let mut pending: Vec<_> = q.pending().map(|(t, seq, &e)| (t, seq, e)).collect();
        pending.sort_unstable();
        assert_eq!(pending, vec![(5, 0, 'a'), (5, 2, 'c')]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, 0);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
