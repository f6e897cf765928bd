//! The trace event taxonomy: every cycle-stamped thing a component can
//! report, small enough to be `Copy` and to live by the million in a ring.

use proteus_types::stats::StallCause;
use proteus_types::Cycle;

/// A hardware queue (or queue-like structure) whose occupancy and
/// enqueue/dequeue/reject traffic the tracer follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueId {
    /// Reorder buffer (core).
    Rob,
    /// Load queue (core).
    LoadQ,
    /// Post-retirement store queue / store buffer (core).
    StoreQ,
    /// Proteus LogQ (core, §4.2).
    LogQ,
    /// Proteus log register file (core, §4.1).
    LogRegs,
    /// Proteus Log Lookup Table (core, §4.4) — reject = capacity eviction.
    Llt,
    /// Memory-controller read queue.
    ReadQ,
    /// ADR-protected write pending queue (MC).
    Wpq,
    /// Log pending queue (MC, §4.3).
    Lpq,
}

impl QueueId {
    /// Every queue, in slot order, for iteration in reports.
    pub const ALL: [QueueId; 9] = [
        QueueId::Rob,
        QueueId::LoadQ,
        QueueId::StoreQ,
        QueueId::LogQ,
        QueueId::LogRegs,
        QueueId::Llt,
        QueueId::ReadQ,
        QueueId::Wpq,
        QueueId::Lpq,
    ];

    /// Number of distinct queues (histogram array size).
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for per-queue arrays.
    pub fn slot(self) -> usize {
        match self {
            QueueId::Rob => 0,
            QueueId::LoadQ => 1,
            QueueId::StoreQ => 2,
            QueueId::LogQ => 3,
            QueueId::LogRegs => 4,
            QueueId::Llt => 5,
            QueueId::ReadQ => 6,
            QueueId::Wpq => 7,
            QueueId::Lpq => 8,
        }
    }

    /// Stable lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            QueueId::Rob => "rob",
            QueueId::LoadQ => "loadq",
            QueueId::StoreQ => "storeq",
            QueueId::LogQ => "logq",
            QueueId::LogRegs => "logregs",
            QueueId::Llt => "llt",
            QueueId::ReadQ => "readq",
            QueueId::Wpq => "wpq",
            QueueId::Lpq => "lpq",
        }
    }
}

/// A durable-state transition the memory controller marks as an instant:
/// one that no queue counter shows. Payload-free, so the trace crate
/// needs no dependency on the memory model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistKind {
    /// A write became durable by coalescing onto a pending WPQ entry (ADR
    /// domain). Every other WPQ or LPQ accept and drain shows as the
    /// queue's `Enqueue`/`Dequeue` counter instead.
    WpqCoalesce,
    /// Commit-time flash clear dropped queue-resident log entries.
    LogClear,
    /// A commit marker was stamped onto a queue-resident log entry.
    MarkerStamp,
    /// A retained commit marker was dropped (§4.3).
    MarkerDrop,
}

impl PersistKind {
    /// Stable label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            PersistKind::WpqCoalesce => "wpq-coalesce",
            PersistKind::LogClear => "log-clear",
            PersistKind::MarkerStamp => "marker-stamp",
            PersistKind::MarkerDrop => "marker-drop",
        }
    }
}

/// A cache level, for sampled hit/miss counter tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// Per-core L1 data caches (aggregated).
    L1d,
    /// Per-core L2 caches (aggregated).
    L2,
    /// Shared L3.
    L3,
}

impl CacheLevel {
    /// Every level, in slot order.
    pub const ALL: [CacheLevel; 3] = [CacheLevel::L1d, CacheLevel::L2, CacheLevel::L3];

    /// Dense index for per-level arrays.
    pub fn slot(self) -> usize {
        match self {
            CacheLevel::L1d => 0,
            CacheLevel::L2 => 1,
            CacheLevel::L3 => 2,
        }
    }

    /// Stable label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            CacheLevel::L1d => "l1d",
            CacheLevel::L2 => "l2",
            CacheLevel::L3 => "l3",
        }
    }
}

/// What happened (the `TraceEvent` payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Dispatch stalled for `cause` in each of the `cycles` cycles from
    /// the event's stamp: one run of stalled cycles (Fig. 7 attribution).
    Stall {
        /// Why dispatch stalled.
        cause: StallCause,
        /// Length of the run.
        cycles: u64,
    },
    /// An entry entered `queue`; `occupancy` is the size after the insert.
    Enqueue {
        /// Queue that grew.
        queue: QueueId,
        /// Occupancy after the insert.
        occupancy: u32,
    },
    /// An entry left `queue`; `occupancy` is the size after the removal.
    Dequeue {
        /// Queue that shrank.
        queue: QueueId,
        /// Occupancy after the removal.
        occupancy: u32,
    },
    /// An insert into `queue` was refused (backpressure).
    Reject {
        /// Queue that was full.
        queue: QueueId,
    },
    /// Periodic occupancy sample of `queue`, recorded when the level
    /// differs from the previous sample's.
    OccupancySample {
        /// Sampled queue.
        queue: QueueId,
        /// Occupancy at the sample instant.
        occupancy: u32,
    },
    /// Periodic hit/miss sample of a cache level: the counts of the
    /// sampling interval that ends at the stamp, recorded when they
    /// differ from the previous interval's.
    CacheSample {
        /// Sampled level.
        level: CacheLevel,
        /// Hits in the interval.
        hits: u64,
        /// Misses in the interval.
        misses: u64,
    },
    /// A durable-state transition at the memory controller.
    Persist(PersistKind),
    /// A transaction began (its `tx-begin` dispatched).
    TxBegin {
        /// Raw transaction ID.
        tx: u64,
    },
    /// The core sent the transaction's commit handshake to the MC.
    TxCommitRequest {
        /// Raw transaction ID.
        tx: u64,
    },
    /// The transaction's commit became durable (tx-end retired).
    TxDurable {
        /// Raw transaction ID.
        tx: u64,
    },
    /// A `wait-value` ticket-lock acquire succeeded (contended workloads).
    LockAcquire {
        /// Raw address of the lock word.
        addr: u64,
    },
    /// A retired store handed a structure ticket lock to its successor.
    LockRelease {
        /// Raw address of the lock word.
        addr: u64,
    },
    /// A read-for-ownership removed a remote cached copy of a shared line.
    CoherenceInvalidate {
        /// Line index of the invalidated copy.
        line: u64,
    },
    /// A remote dirty copy of a shared line moved to the requesting core.
    OwnershipTransfer {
        /// Line index that changed owner.
        line: u64,
    },
}

/// One cycle-stamped event in a component's ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle the event happened.
    pub at: Cycle,
    /// What happened.
    pub kind: TraceEventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_slots_are_dense_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for q in QueueId::ALL {
            let s = q.slot();
            assert!(s < QueueId::COUNT);
            assert!(seen.insert(s));
        }
    }

    #[test]
    fn cache_level_slots_are_dense() {
        for (i, l) in CacheLevel::ALL.iter().enumerate() {
            assert_eq!(l.slot(), i);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(QueueId::Lpq.label(), "lpq");
        assert_eq!(PersistKind::LogClear.label(), "log-clear");
        assert_eq!(CacheLevel::L1d.label(), "l1d");
    }
}
