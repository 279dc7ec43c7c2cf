//! The stable event queue at the heart of the simulator.
//!
//! Ordering is `(time, seq)` where `seq` is a monotonically increasing
//! insertion counter. Ties in virtual time therefore dispatch in schedule
//! order, which makes runs deterministic — a property the reproduction
//! depends on (identical seeds must yield identical Figure data).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An entry in the queue: when, insertion order, and the payload.
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
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered, insertion-stable event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Remove and return the earliest event with its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_stability() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), 0);
        q.push(SimTime(5), 1);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime(5), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn peek_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(SimTime::ZERO + SimDuration::from_millis(1), ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::ZERO, ())));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
