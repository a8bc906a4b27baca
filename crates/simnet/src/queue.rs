//! A stable-ordered event queue for discrete-event loops.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An entry in the queue: fire time, insertion sequence (for stable ordering
/// of simultaneous events) and the payload.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // BinaryHeap is a max-heap; reverse so the earliest event pops first,
        // breaking ties by insertion order.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of timed events with deterministic FIFO ordering for
/// events scheduled at the same instant.
///
/// The engine, the baselines and the workload generators each run their own
/// loop over an `EventQueue` of their own event type.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0, scheduled_total: 0 }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Pops the earliest event only if it fires at or before `until`.
    #[cfg(test)]
    pub(crate) fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= until {
            self.pop()
        } else {
            None
        }
    }

    /// The fire time of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// The earliest pending event and its fire time, without popping it.
    pub(crate) fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|e| (e.at, &e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (for loop-progress assertions).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Removes all pending events.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(50), 2);
        assert_eq!(q.pop_until(SimTime::from_millis(20)), Some((SimTime::from_millis(10), 1)));
        assert_eq!(q.pop_until(SimTime::from_millis(20)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(50)));
    }

    #[test]
    fn bookkeeping() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO + SimDuration::from_millis(1), 7);
        assert_eq!(q.scheduled_total(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 1);
    }
}
