//! Bounded event ring with explicit overflow accounting.

use crate::event::TraceEvent;
use std::collections::VecDeque;

/// A bounded FIFO of trace events.
///
/// When the ring is full, pushing drops the **oldest** event (the most
/// recent window is what post-mortem analysis wants) and increments a
/// counter that every export surfaces — overflow is reported, never
/// silent.
#[derive(Debug)]
pub struct EventRing {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped_oldest: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "EventRing capacity must be nonzero");
        EventRing { events: VecDeque::with_capacity(capacity), capacity, dropped_oldest: 0 }
    }

    /// Appends an event, evicting (and counting) the oldest if full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped_oldest = self.dropped_oldest.saturating_add(1);
        }
        self.events.push_back(ev);
    }

    /// Events currently retained, oldest first.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many events were evicted to make room (0 = lossless trace).
    pub fn dropped_oldest(&self) -> u64 {
        self.dropped_oldest
    }

    /// Consumes the ring into an oldest-first vector plus its drop count.
    pub fn into_parts(self) -> (Vec<TraceEvent>, u64) {
        (self.events.into(), self.dropped_oldest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind;
    use proteus_types::stats::StallCause;

    fn ev(at: u64) -> TraceEvent {
        TraceEvent { at, kind: TraceEventKind::Stall { cause: StallCause::RobFull, cycles: 1 } }
    }

    #[test]
    fn keeps_newest_and_counts_dropped() {
        let mut r = EventRing::new(3);
        for at in 0..10 {
            r.push(ev(at));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.dropped_oldest(), 7);
        let (events, dropped) = r.into_parts();
        assert_eq!(dropped, 7);
        let stamps: Vec<u64> = events.iter().map(|e| e.at).collect();
        assert_eq!(stamps, vec![7, 8, 9]); // oldest evicted, newest retained, in order
    }

    #[test]
    fn no_drops_below_capacity() {
        let mut r = EventRing::new(8);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.dropped_oldest(), 0);
        assert!(!r.is_empty());
        let (events, dropped) = r.into_parts();
        assert_eq!((events.len(), dropped), (2, 0));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = EventRing::new(0);
    }
}
