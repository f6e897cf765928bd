//! Per-thread circular log area management.
//!
//! Paper §4.1: software allocates one log area per thread, treated as a
//! circular buffer; if a single transaction overflows the area the
//! processor raises an exception. [`LogArea`] tracks the current free slot
//! (the `curlog` register), a per-thread monotonic sequence counter, and
//! the per-transaction entry count used to detect overflow.

use crate::layout::AddressLayout;
use proteus_types::{Addr, SimError, ThreadId, TxId};

/// Runtime state of one thread's log area: the architectural
/// `log-start`/`log-end`/`curlog` registers from Fig. 5 plus the sequence
/// counter used to order entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogArea {
    thread: ThreadId,
    base: Addr,
    entries: usize,
    head: usize,
    seq: u64,
    entries_this_tx: usize,
    current_tx: Option<TxId>,
    last_slot: Option<Addr>,
}

impl LogArea {
    /// Creates the log area of `thread` under `layout`.
    pub fn new(thread: ThreadId, layout: &AddressLayout) -> Self {
        LogArea {
            thread,
            base: layout.log_area(thread).start,
            entries: layout.log_area_entries,
            head: 0,
            seq: 0,
            entries_this_tx: 0,
            current_tx: None,
            last_slot: None,
        }
    }

    /// The owning thread.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The transaction currently writing entries, if any.
    pub fn current_tx(&self) -> Option<TxId> {
        self.current_tx
    }

    /// The slot address of the most recently allocated entry, if any.
    pub fn last_slot(&self) -> Option<Addr> {
        self.last_slot
    }

    /// Total entries allocated over the area's lifetime.
    pub fn total_allocated(&self) -> u64 {
        self.seq
    }

    /// Begins a transaction: subsequent allocations belong to `tx`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NestedTransaction`] if a transaction is
    /// already open.
    pub fn begin_tx(&mut self, tx: TxId) -> Result<(), SimError> {
        if self.current_tx.is_some() {
            return Err(SimError::NestedTransaction {
                core: proteus_types::CoreId::new(self.thread.raw()),
            });
        }
        self.current_tx = Some(tx);
        self.entries_this_tx = 0;
        Ok(())
    }

    /// Ends the current transaction.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmatchedTxEnd`] if no transaction is open.
    pub fn end_tx(&mut self) -> Result<(), SimError> {
        if self.current_tx.is_none() {
            return Err(SimError::UnmatchedTxEnd {
                core: proteus_types::CoreId::new(self.thread.raw()),
            });
        }
        self.current_tx = None;
        Ok(())
    }

    /// Allocates the next log slot (the hardware's LTA auto-increment, or
    /// software's cursor bump) and returns `(slot_address, sequence)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LogAreaOverflow`] if the current transaction
    /// has filled the whole area, or
    /// [`SimError::LoggingOutsideTransaction`] if no transaction is open.
    pub fn alloc(&mut self) -> Result<(Addr, u64), SimError> {
        if self.current_tx.is_none() {
            return Err(SimError::LoggingOutsideTransaction {
                core: proteus_types::CoreId::new(self.thread.raw()),
            });
        }
        if self.entries_this_tx >= self.entries {
            return Err(SimError::LogAreaOverflow { thread: self.thread, capacity: self.entries });
        }
        let slot = self.base.offset(self.head as u64 * proteus_types::addr::CACHE_LINE_SIZE);
        self.head = (self.head + 1) % self.entries;
        let seq = self.seq;
        self.seq += 1;
        self.entries_this_tx += 1;
        self.last_slot = Some(slot);
        Ok((slot, seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area() -> LogArea {
        let layout = AddressLayout { log_area_entries: 4, ..AddressLayout::default() };
        LogArea::new(ThreadId::new(1), &layout)
    }

    #[test]
    fn sequential_allocation() {
        let mut a = area();
        a.begin_tx(TxId::new(1)).unwrap();
        let (s0, q0) = a.alloc().unwrap();
        let (s1, q1) = a.alloc().unwrap();
        assert_eq!(s1.raw() - s0.raw(), 64);
        assert_eq!((q0, q1), (0, 1));
        assert_eq!(a.last_slot(), Some(s1));
        a.end_tx().unwrap();
    }

    #[test]
    fn wraps_circularly_across_transactions() {
        let mut a = area();
        let mut slots = Vec::new();
        for t in 0..3u64 {
            a.begin_tx(TxId::new(t + 1)).unwrap();
            for _ in 0..3 {
                slots.push(a.alloc().unwrap().0);
            }
            a.end_tx().unwrap();
        }
        // 9 allocations over a 4-slot area: slot addresses repeat mod 4.
        assert_eq!(slots[0], slots[4]);
        assert_eq!(slots[1], slots[5]);
        assert_eq!(a.total_allocated(), 9);
    }

    #[test]
    fn overflow_within_one_tx_errors() {
        let mut a = area();
        a.begin_tx(TxId::new(1)).unwrap();
        for _ in 0..4 {
            a.alloc().unwrap();
        }
        assert!(matches!(a.alloc(), Err(SimError::LogAreaOverflow { .. })));
    }

    #[test]
    fn logging_outside_tx_errors() {
        let mut a = area();
        assert!(matches!(a.alloc(), Err(SimError::LoggingOutsideTransaction { .. })));
    }

    #[test]
    fn nested_and_unmatched_tx_errors() {
        let mut a = area();
        a.begin_tx(TxId::new(1)).unwrap();
        assert!(matches!(a.begin_tx(TxId::new(2)), Err(SimError::NestedTransaction { .. })));
        a.end_tx().unwrap();
        assert!(matches!(a.end_tx(), Err(SimError::UnmatchedTxEnd { .. })));
    }

    #[test]
    fn sequence_is_monotonic_across_wrap() {
        let mut a = area();
        let mut last = None;
        for t in 0..5u64 {
            a.begin_tx(TxId::new(t + 1)).unwrap();
            let (_, q) = a.alloc().unwrap();
            if let Some(prev) = last {
                assert!(q > prev);
            }
            last = Some(q);
            a.end_tx().unwrap();
        }
    }
}
