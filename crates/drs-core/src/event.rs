//! The virtual-time clock and the timer queue of the serving loop
//! (`drs-server`'s one loop, on either clock: the loop takes arrivals
//! off its arrival-ordered stream and queues only the events it
//! schedules itself — coalesce flushes and completions).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Virtual time in nanoseconds since simulation start.
pub type SimTime = u64;

/// Nanoseconds per second, for time conversions.
pub const NS_PER_SEC: u64 = 1_000_000_000;

/// A time-ordered priority queue of events.
///
/// Ties are broken by insertion sequence so simulations are fully
/// deterministic regardless of payload.
///
/// # Examples
///
/// ```
/// use drs_core::EventQueue;
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
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
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
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, FIFO within equal times.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The next event and its timestamp, without removing it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        self.heap.peek().map(|e| (e.time, &e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Converts seconds (f64) to [`SimTime`] nanoseconds, saturating at
/// zero for negative input.
pub fn secs_to_ns(s: f64) -> SimTime {
    if s <= 0.0 {
        0
    } else {
        (s * NS_PER_SEC as f64).round() as SimTime
    }
}

/// Converts microseconds (f64) to nanoseconds, flooring at 1 ns so a
/// service time is never zero.
pub fn us_to_ns(us: f64) -> SimTime {
    ((us * 1e3).round() as SimTime).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(5, 'b');
        q.push(1, 'a');
        q.push(9, 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn fifo_within_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(3, ());
        assert_eq!(q.peek(), Some((3, &())));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn conversions() {
        assert_eq!(secs_to_ns(1.5), 1_500_000_000);
        assert_eq!(secs_to_ns(-1.0), 0);
        assert_eq!(us_to_ns(2.5), 2_500);
        assert_eq!(us_to_ns(0.0), 1, "service times never collapse to zero");
    }
}
