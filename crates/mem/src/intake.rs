//! The controller's intake bookkeeping: where a submitted request waits
//! until its queue accepts it, how its full-queue rejections are counted,
//! and which waiting requests a full queue still lets in.
//!
//! A request waits in the not-due index until its delivery cycle, then in
//! the lane of its destination queue (read queue, WPQ or LPQ) until that
//! queue takes it. [`crate::controller`] offers due requests to their
//! queues in arrival order and visits a full queue's lane only when one of
//! its requests can cut in; this module holds the structures that let it
//! know when.

use crate::request::McRequest;
use proteus_trace::QueueId;
use proteus_types::addr::LineAddr;
use proteus_types::clock::Cycle;
use proteus_types::FastMap;

/// The controller queue a request waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    Read,
    Wpq,
    Lpq,
}

impl Lane {
    pub(crate) const ALL: [Lane; 3] = [Lane::Read, Lane::Wpq, Lane::Lpq];

    /// The lane `req` waits in, or `None` for the requests every tick
    /// accepts (tx-end, pcommit and log-save).
    pub(crate) fn of(req: &McRequest) -> Option<Lane> {
        match req {
            McRequest::Read { .. } => Some(Lane::Read),
            McRequest::WriteBack { .. } | McRequest::AtomLog { .. } => Some(Lane::Wpq),
            McRequest::LogFlush { .. } => Some(Lane::Lpq),
            McRequest::TxEnd { .. }
            | McRequest::Pcommit { .. }
            | McRequest::DrainCoreLogs { .. } => None,
        }
    }

    /// The trace's name for the lane's queue.
    pub(crate) fn queue(self) -> QueueId {
        match self {
            Lane::Read => QueueId::ReadQ,
            Lane::Wpq => QueueId::Wpq,
            Lane::Lpq => QueueId::Lpq,
        }
    }
}

/// A submitted request the controller has not accepted yet.
#[derive(Debug, Clone)]
pub(crate) struct Waiting {
    /// Arrival order: due requests are offered to their queues in it.
    pub(crate) seq: u64,
    /// Delivery cycle.
    pub(crate) at: Cycle,
    /// Set once a full queue has rejected the request: the first cycle
    /// its rejections are counted from (see [`RejectTally`]).
    pub(crate) stamp: Option<Cycle>,
    pub(crate) req: McRequest,
}

/// One queue's full rejections in closed form.
///
/// A waiting request is rejected once per tick, from its stamp (its first
/// rejected tick, or the start of the skipped window it was rejected
/// across) up to the tick that accepts it. Acceptance settles
/// `accepted_at − stamp`; each request still waiting owes
/// `through − stamp`, where `through` is the cycle after the last tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RejectTally {
    /// Rejections of requests since accepted.
    settled: u64,
    /// Stamped requests still waiting.
    waiting: u64,
    /// The sum of their stamps.
    stamps: u64,
}

impl RejectTally {
    /// A tally of `stamps`, the stamps of the requests still waiting,
    /// with nothing settled: what the queues say the waiting part is.
    #[cfg(debug_assertions)]
    pub(crate) fn of_waiting(stamps: impl Iterator<Item = Cycle>) -> RejectTally {
        stamps.fold(RejectTally::default(), |mut t, s| {
            t.stamp(s);
            t
        })
    }

    /// A request was first rejected, counting from `at`.
    pub(crate) fn stamp(&mut self, at: Cycle) {
        self.waiting += 1;
        self.stamps += at;
    }

    /// A request stamped `stamp` was accepted at `now`.
    pub(crate) fn settle(&mut self, stamp: Cycle, now: Cycle) {
        self.waiting -= 1;
        self.stamps -= stamp;
        self.settled += now - stamp;
    }

    /// Rejections through cycle `through − 1`.
    pub(crate) fn count(&self, through: Cycle) -> u64 {
        self.settled + self.waiting * through - self.stamps
    }

    /// The part still waiting, with the settled count left out.
    #[cfg(debug_assertions)]
    pub(crate) fn waiting_part(&self) -> RejectTally {
        RejectTally { settled: 0, ..*self }
    }
}

/// What the index knows about one line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LineCounts {
    /// WPQ entries for the line.
    wpq: u32,
    /// Whether one of them is coalescable: a data write-back not yet in
    /// service. There is at most one per line.
    coalescable: bool,
    /// Waiting reads of the line.
    reads: u32,
    /// Waiting write-backs of the line.
    writebacks: u32,
}

/// Per-line counts over the WPQ and the waiting reads and write-backs.
///
/// A full queue still takes two kinds of request: a read whose line has a
/// WPQ entry forwards from it, and a write-back whose line has a
/// coalescable WPQ entry coalesces onto it. The index keeps how many
/// waiting requests are such hits, so the intake visits a full queue's
/// lane, and the probe wakes for one, only when there is a hit. It also
/// answers "does the WPQ hold this line?" without a queue scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LineIndex {
    lines: FastMap<LineAddr, LineCounts>,
    /// Waiting reads whose line has a WPQ entry.
    read_hits: u32,
    /// Waiting write-backs whose line has a coalescable WPQ entry.
    writeback_hits: u32,
}

impl LineIndex {
    /// Whether the WPQ holds an entry for `line`.
    pub(crate) fn forwards(&self, line: LineAddr) -> bool {
        self.lines.get(&line).is_some_and(|c| c.wpq > 0)
    }

    /// Whether the WPQ holds a coalescable entry for `line`.
    pub(crate) fn coalesces(&self, line: LineAddr) -> bool {
        self.lines.get(&line).is_some_and(|c| c.coalescable)
    }

    /// Waiting reads that would forward from the WPQ.
    pub(crate) fn read_hits(&self) -> u32 {
        self.read_hits
    }

    /// Waiting write-backs that would coalesce.
    pub(crate) fn writeback_hits(&self) -> u32 {
        self.writeback_hits
    }

    /// An entry for `line` joined the WPQ.
    pub(crate) fn wpq_push(&mut self, line: LineAddr, coalescable: bool) {
        let c = self.lines.entry(line).or_default();
        c.wpq += 1;
        if c.wpq == 1 {
            self.read_hits += c.reads;
        }
        if coalescable {
            debug_assert!(!c.coalescable, "two coalescable WPQ entries for {line:?}");
            c.coalescable = true;
            self.writeback_hits += c.writebacks;
        }
    }

    /// A non-coalescable entry for `line` left the WPQ.
    pub(crate) fn wpq_remove(&mut self, line: LineAddr) {
        let c = self.lines.get_mut(&line).expect("removed WPQ entry is indexed");
        c.wpq -= 1;
        if c.wpq == 0 {
            self.read_hits -= c.reads;
        }
        self.prune(line);
    }

    /// The coalescable entry for `line` went into service.
    pub(crate) fn uncoalesce(&mut self, line: LineAddr) {
        let c = self.lines.get_mut(&line).expect("coalescable entry is indexed");
        debug_assert!(c.coalescable);
        c.coalescable = false;
        self.writeback_hits -= c.writebacks;
    }

    /// `req` joined a lane.
    pub(crate) fn add_waiting(&mut self, req: &McRequest) {
        match *req {
            McRequest::Read { line, .. } => {
                let c = self.lines.entry(line).or_default();
                c.reads += 1;
                self.read_hits += u32::from(c.wpq > 0);
            }
            McRequest::WriteBack { line, .. } => {
                let c = self.lines.entry(line).or_default();
                c.writebacks += 1;
                self.writeback_hits += u32::from(c.coalescable);
            }
            _ => {}
        }
    }

    /// `req` left its lane.
    pub(crate) fn remove_waiting(&mut self, req: &McRequest) {
        let line = match *req {
            McRequest::Read { line, .. } => {
                let c = self.lines.get_mut(&line).expect("waiting read is indexed");
                c.reads -= 1;
                self.read_hits -= u32::from(c.wpq > 0);
                line
            }
            McRequest::WriteBack { line, .. } => {
                let c = self.lines.get_mut(&line).expect("waiting write-back is indexed");
                c.writebacks -= 1;
                self.writeback_hits -= u32::from(c.coalescable);
                line
            }
            _ => return,
        };
        self.prune(line);
    }

    fn prune(&mut self, line: LineAddr) {
        if self.lines.get(&line) == Some(&LineCounts::default()) {
            self.lines.remove(&line);
        }
    }
}
