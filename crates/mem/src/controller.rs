//! The memory controller: read queue, WPQ, LPQ, arbiter, and the
//! persistency-domain machinery of §4.3.
//!
//! Key behaviours reproduced from the paper:
//!
//! * **ADR**: the WPQ and LPQ are inside the persistency domain. Writes
//!   and log flushes are durable — and acknowledged — on queue acceptance,
//!   not on NVMM writeback. [`MemoryController::crash_image`] accordingly
//!   folds both queues into the durable image.
//! * **LPQ**: log flushes go only to the LPQ; reads never check it. The
//!   arbiter prioritises reads, then WPQ writes, and drains the LPQ only
//!   under occupancy pressure (log entries are "kept as long as possible").
//! * **Flash clear**: at `tx-end`, LPQ entries of the committed
//!   transaction are discarded without ever being written to NVMM — except
//!   the transaction's last entry, which carries the commit marker and is
//!   retained until the next transaction's first log entry arrives from
//!   the same core (and is then dropped too).
//! * **ATOM source-log engine**: log entries are created *at the
//!   controller* from [`McRequest::AtomLog`] messages, inserted into the
//!   WPQ (ATOM has no LPQ), acknowledged immediately (posted log), and
//!   truncated at commit with per-entry invalidation writes.

use crate::bank::{Bank, BankMap};
use crate::intake::{Lane, LineIndex, RejectTally, Waiting};
use crate::persist_event::{CrashFaults, PersistEvent, PersistEventKind};
use crate::request::{McEvent, McRequest};
use crate::timing::ServiceTiming;
use proteus_core::entry::{FLAG_COMMIT_MARKER, FLAG_VALID};
use proteus_core::layout::AddressLayout;
use proteus_core::logarea::LogArea;
use proteus_core::pmem::{LineData, WordImage};
use proteus_trace::{PersistKind, QueueId, TraceEventKind, Tracer, TrackDump};
use proteus_types::addr::LineAddr;
use proteus_types::clock::{ClockRatio, Cycle, NextEvent};
use proteus_types::config::MemConfig;
use proteus_types::stats::MemStats;
use proteus_types::{CoreId, SimError, ThreadId, TxId};
use std::collections::VecDeque;

/// How the LPQ treats log entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogDrainMode {
    /// Proteus log write removal: keep entries in the LPQ until their
    /// transaction commits, then flash clear them.
    KeepUntilCommit,
    /// Proteus+NoLWR: entries drain to NVMM like ordinary writes.
    DrainAlways,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteKind {
    Data,
    Log,
    LogInvalidate,
}

/// Where a queued line lives in the bank array. Computed once, when the
/// entry is queued: a queued entry's line never changes (coalescing and
/// marker stamps rewrite only its data), so the arbiter and the probe
/// read this instead of dividing the line into a bank on every edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    bank: usize,
    row: u64,
}

impl Loc {
    fn of(map: &BankMap, line: LineAddr) -> Loc {
        Loc { bank: map.bank_of(line), row: map.row_of(line) }
    }

    /// This cached location of `line`, checked against the map in debug
    /// builds.
    fn checked(self, map: &BankMap, line: LineAddr) -> Loc {
        debug_assert_eq!(self, Loc::of(map, line), "stale cached bank/row of {line:?}");
        self
    }
}

#[derive(Debug, Clone)]
struct WpqEntry {
    line: LineAddr,
    loc: Loc,
    data: LineData,
    kind: WriteKind,
    in_service: bool,
}

impl WpqEntry {
    /// ATOM log entries and their truncation writes must each reach the
    /// NVMM individually (ATOM lacks log write removal); only ordinary
    /// data write-backs coalesce.
    fn coalescable(&self) -> bool {
        self.kind == WriteKind::Data && !self.in_service
    }

    /// The entry's issue class, if it is waiting for its bank.
    fn class(&self) -> Option<Class> {
        match self.kind {
            _ if self.in_service => None,
            WriteKind::Data => Some(Class::WpqData),
            WriteKind::Log | WriteKind::LogInvalidate => Some(Class::WpqLog),
        }
    }
}

#[derive(Debug, Clone)]
struct LpqEntry {
    slot_line: LineAddr,
    loc: Loc,
    words: [u64; 8],
    core: CoreId,
    tx: TxId,
    seq: u64,
    /// Commit marker retained until the next transaction's first entry.
    retained_marker: bool,
    /// Forced to NVMM (context switch).
    must_drain: bool,
    in_service: bool,
}

impl LpqEntry {
    /// The entry's issue class, if it is waiting for its bank. A forced
    /// entry (context switch) drains whatever it holds, a retained commit
    /// marker included; an unforced retained marker never drains.
    fn class(&self) -> Option<Class> {
        if self.in_service {
            None
        } else if self.must_drain {
            Some(Class::LpqForced)
        } else if self.retained_marker {
            None
        } else {
            Some(Class::LpqOrdinary)
        }
    }
}

#[derive(Debug, Clone)]
struct ReadEntry {
    line: LineAddr,
    loc: Loc,
    req_id: u64,
    arrived: Cycle,
    /// Issued to its bank; the entry leaves the queue when the read
    /// completes.
    dispatched: bool,
}

impl ReadEntry {
    /// The entry's issue class, if it is waiting for its bank.
    fn class(&self) -> Option<Class> {
        (!self.dispatched).then_some(Class::Read)
    }
}

/// The kinds of queued entry the arbiter may issue to a bank. An entry's
/// class follows from its flags; a dispatched read, an entry in service
/// and an unforced retained commit marker have none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// A read not yet dispatched.
    Read,
    /// A data write-back in the WPQ.
    WpqData,
    /// A log-kind WPQ entry: an ATOM entry, a truncation or marker
    /// write, or a software log write-back.
    WpqLog,
    /// An LPQ entry neither forced nor a retained commit marker.
    LpqOrdinary,
    /// An LPQ entry a context switch forces to NVMM.
    LpqForced,
}

impl Class {
    const COUNT: usize = 5;

    /// The class's bit in a class set.
    fn bit(self) -> u8 {
        1 << self as u8
    }

    /// Whether `class` is in the set `classes`.
    fn within(class: Option<Class>, classes: u8) -> bool {
        class.is_some_and(|c| classes & c.bit() != 0)
    }
}

/// Issue candidates per bank and class, so the arbiter and the probe find
/// the banks that hold a candidate in O(banks) instead of walking the
/// queues. Every change to an entry's class goes through
/// [`Candidates::shift`]; debug builds recount after every tick.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Candidates {
    /// Per bank, the candidates of each class.
    counts: Vec<[u32; Class::COUNT]>,
    /// Per bank, the set of classes with a candidate there.
    held: Vec<u8>,
    /// The candidates of each class over all banks.
    total: [u32; Class::COUNT],
}

impl Candidates {
    fn new(banks: usize) -> Self {
        Candidates {
            counts: vec![[0; Class::COUNT]; banks],
            held: vec![0; banks],
            total: [0; Class::COUNT],
        }
    }

    /// An entry at `bank` changed class from `from` to `to`.
    fn shift(&mut self, bank: usize, from: Option<Class>, to: Option<Class>) {
        if from == to {
            return;
        }
        if let Some(c) = from {
            let n = &mut self.counts[bank][c as usize];
            *n -= 1;
            if *n == 0 {
                self.held[bank] &= !c.bit();
            }
            self.total[c as usize] -= 1;
        }
        if let Some(c) = to {
            self.counts[bank][c as usize] += 1;
            self.held[bank] |= c.bit();
            self.total[c as usize] += 1;
        }
    }

    /// Whether any bank holds a candidate of a class in `classes`.
    fn any(&self, classes: u8) -> bool {
        self.total.iter().enumerate().any(|(c, &n)| n > 0 && classes & (1 << c) != 0)
    }

    /// The set of classes held by banks idle at `now`.
    fn idle_classes(&self, banks: &[Bank], now: Cycle) -> u8 {
        if self.total == [0; Class::COUNT] {
            return 0;
        }
        self.held
            .iter()
            .zip(banks)
            .filter(|(_, b)| b.is_idle(now))
            .fold(0, |set, (held, _)| set | held)
    }

    /// The first cycle a bank holding a candidate of a class in `classes`
    /// is free, if any bank holds one.
    fn earliest_free(&self, banks: &[Bank], classes: u8) -> Option<Cycle> {
        self.held
            .iter()
            .zip(banks)
            .filter(|(held, _)| *held & classes != 0)
            .map(|(_, b)| b.busy_until())
            .min()
    }
}

/// What the arbiter may drain at a memory-clock edge, computed from the
/// state at that edge by [`MemoryController::drain_rules`]. The arbiter
/// and the fast-forward probe both take it from there, so they cannot
/// disagree.
#[derive(Debug, Clone, Copy)]
struct DrainRules {
    /// The WPQ watermark hysteresis state the edge leaves behind.
    wpq_draining: bool,
    /// Whether data-kind WPQ entries may issue.
    wpq: bool,
    mode: LogDrainMode,
    /// LPQ occupancy at or above its pressure threshold.
    lpq_pressure: bool,
}

impl DrainRules {
    /// The WPQ classes that may issue. Log-kind entries drain regardless
    /// of the watermark: ATOM's log lives in NVMM, not in the controller.
    fn wpq_classes(&self) -> u8 {
        Class::WpqLog.bit() | if self.wpq { Class::WpqData.bit() } else { 0 }
    }

    /// The LPQ classes that may issue, given whether any WPQ entry may.
    /// Forced entries always drain.
    fn lpq_classes(&self, wpq_has_issuable: bool) -> u8 {
        let ordinary = match self.mode {
            LogDrainMode::KeepUntilCommit => self.lpq_pressure,
            // NoLWR: log entries drain like ordinary writes. They already
            // sit at the lowest arbiter priority (after reads and WPQ),
            // so no further gating — gating on an idle read queue starves
            // the LPQ under multicore read traffic and backpressures
            // dispatch, which the paper's NoLWR does not exhibit.
            LogDrainMode::DrainAlways => !wpq_has_issuable,
        };
        Class::LpqForced.bit() | if ordinary { Class::LpqOrdinary.bit() } else { 0 }
    }
}

/// Last log entry observed per core: the entry its commit marker goes
/// onto, rewritten with the marker when it has already left its queue.
#[derive(Debug, Clone, Copy)]
struct LastEntry {
    tx: TxId,
    slot_line: LineAddr,
    words: [u64; 8],
    seq: u64,
}

#[derive(Debug)]
struct AtomCoreState {
    area: LogArea,
    /// Slots written by the active transaction (for truncation writes).
    tx_slots: Vec<LineAddr>,
}

/// The memory controller.
#[derive(Debug)]
pub struct MemoryController {
    cfg: MemConfig,
    timing: ServiceTiming,
    map: BankMap,
    banks: Vec<Bank>,
    nvmm: WordImage,
    layout: AddressLayout,
    drain_mode: LogDrainMode,

    /// Submitted requests not yet due, in (delivery cycle, arrival)
    /// order. Delivery is not monotone in arrival order: uncached
    /// requests take a shorter path than miss-path ones.
    not_due: VecDeque<Waiting>,
    /// The requests that fell due in this tick, in arrival order. Empty
    /// between ticks; a field only to reuse its allocation.
    fresh: Vec<Waiting>,
    /// Due requests a full queue rejected, one lane per [`Lane`], each in
    /// arrival order.
    lanes: [VecDeque<Waiting>; 3],
    /// Per lane, its requests' full rejections in closed form (the read
    /// queue's are not reported in [`MemStats`]).
    rejects: [RejectTally; 3],
    /// The arrival index of the next submission.
    next_seq: u64,
    /// The cycle after the last tick. A tick at a later cycle follows a
    /// fast-forward skip: a request that fell due inside it was rejected
    /// throughout, or the probe would have woken the engine.
    ticked_through: Cycle,
    /// Per-line counts over the WPQ and the waiting reads and
    /// write-backs: which waiting requests a full queue still takes.
    lines: LineIndex,
    read_queue: Vec<ReadEntry>,
    wpq: Vec<WpqEntry>,
    lpq: Vec<LpqEntry>,
    /// Issue candidates per bank, over the read queue, WPQ and LPQ.
    candidates: Candidates,
    /// Log invalidation and commit-marker rewrites waiting for WPQ
    /// space, written as [`WriteKind::LogInvalidate`].
    pending_writes: VecDeque<(LineAddr, [u64; 8])>,
    pending_pcommits: Vec<u64>,
    pending_tx_ends: Vec<(CoreId, TxId)>,
    in_flight: Vec<(Cycle, InFlight)>,
    /// The earliest completion cycle in `in_flight` (`Cycle::MAX` when
    /// it is empty), so a tick with nothing due skips the scan.
    next_done: Cycle,
    events: Vec<McEvent>,

    atom: Vec<AtomCoreState>,
    last_entry: Vec<Option<LastEntry>>,
    wpq_draining: bool,
    mem_ticks: u64,
    next_mem_tick: Cycle,
    stats: MemStats,

    /// Monotonic count of durable-state transitions (crash-point index).
    persist_seq: u64,
    /// Cycle of the current tick, for timestamping persist events.
    clock: Cycle,
    record_persist: bool,
    timeline: Vec<PersistEvent>,
    tracer: Tracer,
    /// The exception that stopped the controller: an ATOM transaction
    /// overflowed its log area (§4.1).
    fault: Option<SimError>,
}

#[derive(Debug)]
enum InFlight {
    Read { req_id: u64 },
    WpqWrite { index_line: LineAddr },
    LpqWrite { index_line: LineAddr, seq: u64 },
}

impl MemoryController {
    /// Creates a controller for `cfg` over the given address layout, in
    /// the given log-drain mode.
    pub fn new(cfg: MemConfig, layout: AddressLayout, drain_mode: LogDrainMode) -> Self {
        let ratio = ClockRatio::cpu_over_ddr3_1600();
        let timing = ServiceTiming::from_timing(&cfg.tech.timing(), ratio);
        let map = BankMap::new(cfg.banks, cfg.row_buffer_bytes);
        let banks = vec![Bank::default(); cfg.banks];
        let atom = (0..layout.max_threads)
            .map(|i| AtomCoreState {
                area: LogArea::new(ThreadId::new(i as u32), &layout),
                tx_slots: Vec::new(),
            })
            .collect();
        let last_entry = vec![None; layout.max_threads];
        MemoryController {
            cfg,
            timing,
            map,
            banks,
            nvmm: WordImage::new(),
            layout,
            drain_mode,
            not_due: VecDeque::new(),
            fresh: Vec::new(),
            lanes: Default::default(),
            rejects: Default::default(),
            next_seq: 0,
            ticked_through: 0,
            lines: LineIndex::default(),
            read_queue: Vec::new(),
            wpq: Vec::new(),
            lpq: Vec::new(),
            candidates: Candidates::new(map.banks()),
            pending_writes: VecDeque::new(),
            pending_pcommits: Vec::new(),
            pending_tx_ends: Vec::new(),
            in_flight: Vec::new(),
            next_done: Cycle::MAX,
            events: Vec::new(),
            atom,
            last_entry,
            wpq_draining: false,
            mem_ticks: 0,
            next_mem_tick: 0,
            stats: MemStats::new(),
            persist_seq: 0,
            clock: 0,
            record_persist: false,
            timeline: Vec::new(),
            tracer: Tracer::disabled(),
            fault: None,
        }
    }

    /// Installs a tracer for the controller's event stream (disabled by
    /// default; the simulator installs one when tracing is configured).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Ring capacity of the installed tracer (0 when disabled).
    pub fn trace_capacity(&self) -> usize {
        self.tracer.capacity()
    }

    /// Detaches the tracer's collected data, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<TrackDump> {
        self.tracer.take_dump()
    }

    /// Pre-loads the NVMM image (initialisation fast-forward).
    pub fn load_image(&mut self, image: WordImage) {
        self.nvmm = image;
    }

    /// Direct read access to the NVMM image (tests, recovery tooling).
    pub fn nvmm(&self) -> &WordImage {
        &self.nvmm
    }

    /// Collected statistics, exact through the last tick: the rejection
    /// counters include the requests still waiting.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The exception that stopped the controller, if one did: an ATOM
    /// transaction overflowed its hardware log area (§4.1). The entry
    /// that overflowed is never acknowledged, so the machine must stop.
    pub fn fault(&self) -> Option<&SimError> {
        self.fault.as_ref()
    }

    /// Submits a request that arrives at the controller at `deliver_at`.
    pub fn submit(&mut self, request: McRequest, deliver_at: Cycle) {
        let waiting = Waiting { seq: self.next_seq, at: deliver_at, stamp: None, req: request };
        self.next_seq += 1;
        // Submissions arrive in order, so one with the latest delivery so
        // far (the common case) goes last.
        if self.not_due.back().is_none_or(|w| w.at <= deliver_at) {
            self.not_due.push_back(waiting);
        } else {
            let at = self.not_due.partition_point(|w| w.at <= deliver_at);
            self.not_due.insert(at, waiting);
        }
    }

    /// Requests submitted and not yet accepted.
    fn unaccepted(&self) -> usize {
        self.not_due.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whether the controller has no pending work that will ever make
    /// progress on its own. Under [`LogDrainMode::KeepUntilCommit`],
    /// LPQ-resident entries (including retained markers) are quiescent by
    /// design — they wait for a commit or a crash.
    pub fn is_quiescent(&self) -> bool {
        let lpq_idle = match self.drain_mode {
            LogDrainMode::KeepUntilCommit => self.lpq.iter().all(|e| !e.must_drain),
            LogDrainMode::DrainAlways => self.lpq.is_empty(),
        };
        // Data write-backs below the low watermark are durable (ADR) and
        // will never drain on their own — that is quiescent. Log-kind
        // entries always drain.
        let wpq_idle =
            self.wpq.iter().all(|e| e.kind == WriteKind::Data) && (self.wpq_draining_would_stop());
        self.unaccepted() == 0
            && self.read_queue.is_empty()
            && self.in_flight.is_empty()
            && self.pending_writes.is_empty()
            && self.pending_pcommits.is_empty()
            && self.pending_tx_ends.is_empty()
            && wpq_idle
            && lpq_idle
    }

    fn wpq_draining_would_stop(&self) -> bool {
        let occ_pct = 100 * self.wpq.len() / self.cfg.wpq_entries.max(1);
        !self.wpq_draining && occ_pct <= self.cfg.wpq_low_watermark_pct as usize
    }

    /// Drains accumulated events.
    pub fn drain_events(&mut self) -> Vec<McEvent> {
        std::mem::take(&mut self.events)
    }

    /// The durable state at a crash: NVMM contents plus — under ADR — the
    /// battery-drained WPQ and LPQ (including retained commit markers).
    pub fn crash_image(&self) -> WordImage {
        self.crash_image_with(&CrashFaults::clean())
    }

    /// The durable state at a crash under the given fault model (see
    /// [`CrashFaults`] for the semantics of each knob). Requests still in
    /// the intake were never acknowledged and are always lost.
    pub fn crash_image_with(&self, faults: &CrashFaults) -> WordImage {
        let mut image = self.nvmm.clone();
        if let Some(mask) = faults.torn_word_mask {
            // In-service bank writes landed partially. Entries stay
            // queue-resident until the bank write completes, so a full
            // ADR drain below overwrites the torn lines again.
            for e in self.wpq.iter().filter(|e| e.in_service) {
                Self::write_torn_line(&mut image, e.line, &e.data, mask);
            }
            for e in self.lpq.iter().filter(|e| e.in_service) {
                Self::write_torn_line(&mut image, e.slot_line, &e.words, mask);
            }
        }
        if self.cfg.adr {
            let wpq_keep = faults.wpq_survivors.unwrap_or(self.wpq.len());
            for e in self.wpq.iter().take(wpq_keep) {
                image.write_line(e.line, &e.data);
            }
            let lpq_keep = faults.lpq_survivors.unwrap_or(self.lpq.len());
            for e in self.lpq.iter().take(lpq_keep) {
                image.write_line(e.slot_line, &e.words);
            }
        }
        image
    }

    fn write_torn_line(image: &mut WordImage, line: LineAddr, data: &LineData, mask: u8) {
        for (i, word) in data.iter().enumerate() {
            if mask & (1 << i) != 0 {
                image.write_word(line.base().offset(i as u64 * 8), *word);
            }
        }
    }

    /// Total durable-state transitions so far (the crash-point index
    /// space: "crash at event k" = the state right after `persist_seq`
    /// first reached k).
    pub fn persist_seq(&self) -> u64 {
        self.persist_seq
    }

    /// Enables or disables persist-event recording. The sequence counter
    /// always runs; recording additionally keeps the per-event timeline.
    pub fn set_record_persist_events(&mut self, on: bool) {
        self.record_persist = on;
        if !on {
            self.timeline.clear();
        }
    }

    /// The recorded timeline (empty unless recording is enabled).
    pub fn persist_timeline(&self) -> &[PersistEvent] {
        &self.timeline
    }

    fn persist_event(&mut self, kind: PersistEventKind) {
        self.persist_seq += 1;
        if self.tracer.is_enabled() {
            // A WPQ or LPQ insert or drain is on the trace once, as the
            // queue's `Enqueue`/`Dequeue` counter its site stamps; only
            // a coalescing WPQ accept, which changes no occupancy, is an
            // instant (emitted by `insert_wpq`).
            let mapped = match kind {
                PersistEventKind::WpqAccept { .. }
                | PersistEventKind::WpqDrain { .. }
                | PersistEventKind::LpqAccept { .. }
                | PersistEventKind::LpqDrain { .. } => None,
                PersistEventKind::LogClear { .. } => Some(PersistKind::LogClear),
                PersistEventKind::MarkerStamp { .. } => Some(PersistKind::MarkerStamp),
                PersistEventKind::MarkerDrop { .. } => Some(PersistKind::MarkerDrop),
            };
            if let Some(mapped) = mapped {
                self.tracer.emit(self.clock, TraceEventKind::Persist(mapped));
            }
        }
        if self.record_persist {
            self.timeline.push(PersistEvent { seq: self.persist_seq, at: self.clock, kind });
        }
    }

    /// Advances the controller to CPU cycle `now`.
    ///
    /// `now` need not increase by exactly one between calls: when the
    /// engine fast-forwards over a quiescent window, the first tick after
    /// the jump first samples the window's (frozen) queues for the trace,
    /// stamps the requests that fell due inside it and replays its
    /// memory-clock edges against its state, then runs this cycle's
    /// phases as usual.
    pub fn tick(&mut self, now: Cycle) {
        self.clock = now;
        if self.tracer.is_enabled() {
            self.tracer.sample(
                now,
                &[
                    (QueueId::ReadQ, self.read_queue.len() as u32),
                    (QueueId::Wpq, self.wpq.len() as u32),
                    (QueueId::Lpq, self.lpq.len() as u32),
                ],
            );
        }
        self.take_due(now);
        self.catch_up_edges(now);
        self.process_intake(now);
        self.feed_pending_writes();
        self.resolve_tx_ends(now);
        self.resolve_pcommits(now);
        self.complete_in_flight(now);
        while now >= self.next_mem_tick {
            self.schedule_command(self.next_mem_tick);
            self.advance_mem_tick();
        }
        self.stats.wpq_full_rejections = self.rejects[Lane::Wpq as usize].count(now + 1);
        self.stats.lpq_full_rejections = self.rejects[Lane::Lpq as usize].count(now + 1);
        self.stats.wpq_peak_occupancy = self.stats.wpq_peak_occupancy.max(self.wpq.len());
        self.stats.lpq_peak_occupancy = self.stats.lpq_peak_occupancy.max(self.lpq.len());
        #[cfg(debug_assertions)]
        self.check_indexes(now);
    }

    /// Moves the requests due by `now` out of the not-due index into
    /// `fresh`, in arrival order.
    ///
    /// A request that fell due before `now` but after the last tick fell
    /// due inside a skipped window. The engine skips a window only while
    /// every due request is rejected (see
    /// [`MemoryController::next_event_cycle`]) and the window's state is
    /// frozen, so if that state rejects the request it was rejected once
    /// per cycle from `max(at, first skipped cycle)` on: its stamp, where
    /// the trace records its one `Reject`. Two skips can chain with no
    /// tick between them (`run_until` may stop exactly on a skip target
    /// and the next call skip again), which is how a request falls due
    /// inside a window; the first tick of all treats the cycles before it
    /// the same way.
    fn take_due(&mut self, now: Cycle) {
        let first_skipped = std::mem::replace(&mut self.ticked_through, now + 1);
        while self.not_due.front().is_some_and(|w| w.at <= now) {
            let mut w = self.not_due.pop_front().expect("front checked");
            let from = w.at.max(first_skipped);
            if from < now {
                if let Some(lane) = self.intake_reject(&w.req) {
                    w.stamp = Some(from);
                    self.rejects[lane as usize].stamp(from);
                    self.tracer.emit(from, TraceEventKind::Reject { queue: lane.queue() });
                }
            }
            self.fresh.push(w);
        }
        if self.fresh.len() > 1 {
            self.fresh.sort_unstable_by_key(|w| w.seq);
        }
    }

    fn advance_mem_tick(&mut self) {
        self.mem_ticks += 1;
        // Exact 17/4 CPU cycles per memory cycle.
        self.next_mem_tick = Self::edge_of(self.mem_ticks);
    }

    /// The CPU cycle of memory-clock edge `k` (exact 17/4 ratio).
    fn edge_of(k: u64) -> Cycle {
        (k * 17).div_ceil(4)
    }

    /// The smallest memory-tick index whose CPU-cycle edge is `>= x`.
    fn mem_tick_at_or_after(x: Cycle) -> u64 {
        // ceil(17k/4) >= x  ⇔  k >= (4x - 3) / 17, rounded up.
        (4 * x).saturating_sub(3).div_ceil(17)
    }

    /// Re-aims the edge loop at the first edge at or after `x` (never
    /// moving backwards).
    fn jump_to_edge(&mut self, x: Cycle) {
        let k = Self::mem_tick_at_or_after(x).max(self.mem_ticks);
        self.mem_ticks = k;
        self.next_mem_tick = Self::edge_of(k);
    }

    /// Replays memory-clock edges that fell strictly before `now`.
    ///
    /// In single-step mode this never fires: each edge is an integer
    /// cycle and is processed by the tick of that exact cycle, so
    /// `next_mem_tick` can never lag `now`. After a fast-forward jump the
    /// skipped window's state is frozen by construction (the [`NextEvent`]
    /// contract wakes the engine for any phase activity or command
    /// issue), so replaying the stale edges against the current pre-phase
    /// state does exactly what per-cycle ticking would have done — and
    /// edges at which provably no command can issue are hopped in O(1)
    /// instead of scanned one by one.
    fn catch_up_edges(&mut self, now: Cycle) {
        while self.next_mem_tick < now {
            self.schedule_command(self.next_mem_tick);
            self.advance_mem_tick();
            if self.next_mem_tick >= now {
                break;
            }
            match self.next_issue_boundary() {
                Some(t) if t < now => self.jump_to_edge(t),
                // Nothing can issue before `now`: land on the first edge
                // at or after it and let the post-phase loop take over.
                _ => self.jump_to_edge(now),
            }
        }
    }

    /// The earliest memory-clock edge at or after `next_mem_tick` at
    /// which the arbiter could issue a command, or `None` if nothing is
    /// currently eligible. Exact while the queues are frozen: eligibility
    /// only changes through the per-cycle phases (which wake the engine)
    /// or through command issue itself (which happens no earlier than the
    /// returned edge). It looks at each bank once, not at each entry.
    fn next_issue_boundary(&self) -> Option<Cycle> {
        let rules = self.drain_rules();
        let wpq = rules.wpq_classes();
        let classes = Class::Read.bit() | wpq | rules.lpq_classes(self.candidates.any(wpq));
        let free = self.candidates.earliest_free(&self.banks, classes)?;
        // A bank free by `next_mem_tick` issues at that edge.
        Some(Self::edge_of(Self::mem_tick_at_or_after(free).max(self.mem_ticks)))
    }

    /// The drain rules the arbiter applies at the next memory-clock edge,
    /// from the current occupancy and the WPQ hysteresis state.
    fn drain_rules(&self) -> DrainRules {
        let occ_pct = 100 * self.wpq.len() / self.cfg.wpq_entries.max(1);
        let low = self.cfg.wpq_low_watermark_pct as usize;
        let wpq_draining = if occ_pct >= self.cfg.wpq_high_watermark_pct as usize {
            true
        } else if occ_pct <= low {
            false
        } else {
            self.wpq_draining
        };
        // Always drain during a pending pcommit. Otherwise drain
        // opportunistically only once the queue holds a meaningful batch
        // (above the low watermark): with ADR there is no urgency, and
        // leaving small residues buffered is what gives ATOM's tracker
        // its clearing window.
        let wpq = wpq_draining
            || !self.pending_pcommits.is_empty()
            || (self.read_queue.is_empty() && occ_pct > low);
        let lpq_pressure = 100 * self.lpq.len() / self.cfg.lpq_entries.max(1) >= 90;
        DrainRules { wpq_draining, wpq, mode: self.drain_mode, lpq_pressure }
    }

    /// Hashes the externally observable simulation state — not stats, not
    /// clock bookkeeping. Used by the paranoid engine cross-check to
    /// prove that skipped windows were genuinely quiescent.
    #[doc(hidden)]
    pub fn debug_fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.persist_seq.hash(h);
        self.unaccepted().hash(h);
        self.read_queue.len().hash(h);
        self.wpq.len().hash(h);
        self.wpq.iter().filter(|e| e.in_service).count().hash(h);
        self.lpq.len().hash(h);
        self.lpq.iter().filter(|e| e.in_service).count().hash(h);
        self.lpq.iter().filter(|e| e.retained_marker).count().hash(h);
        self.pending_writes.len().hash(h);
        self.pending_pcommits.len().hash(h);
        self.pending_tx_ends.len().hash(h);
        self.in_flight.len().hash(h);
        self.events.len().hash(h);
        // `wpq_draining` is deliberately excluded: the hysteresis flag is
        // recomputed at every memory-clock edge and may settle to its
        // fixpoint one edge into a quiescent window. The flip is pure
        // bookkeeping (its observable consequence — a newly eligible
        // write — is what `next_issue_boundary` wakes on) and is replayed
        // bit-exactly by `catch_up_edges`.
        for b in &self.banks {
            b.busy_until().hash(h);
        }
    }

    /// Offers the due requests to their queues in arrival order: those
    /// that fell due this tick, and those waiting in the lanes. A lane is
    /// visited only while it is open (see [`MemoryController::lane_open`]).
    /// A rejected request waits in its lane, stamped with the cycle its
    /// rejections count from; the trace records one `Reject` at the stamp.
    fn process_intake(&mut self, now: Cycle) {
        let mut fresh = std::mem::take(&mut self.fresh);
        let mut fresh_iter = fresh.drain(..).peekable();
        // Per lane, the index of its next request to offer, and the
        // arrival index the walk has reached. A lane can open mid-walk (a
        // write-back accepted into the WPQ lets a waiting read of its
        // line forward), and then resumes at `pos`: the requests before
        // it have had their turn.
        let mut cursor = [0usize; 3];
        let mut pos = 0;
        loop {
            let mut next: Option<(u64, usize)> = None;
            for lane in Lane::ALL {
                let i = lane as usize;
                if !self.lane_open(lane) {
                    continue;
                }
                let queue = &self.lanes[i];
                if queue.get(cursor[i]).is_some_and(|w| w.seq < pos) {
                    cursor[i] = queue.partition_point(|w| w.seq < pos);
                }
                if let Some(w) = queue.get(cursor[i]) {
                    if next.is_none_or(|(seq, _)| w.seq < seq) {
                        next = Some((w.seq, i));
                    }
                }
            }
            let fresh_next = match (fresh_iter.peek(), next) {
                (Some(w), Some((seq, _))) => w.seq < seq,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if fresh_next {
                let mut w = fresh_iter.next().expect("peeked");
                pos = w.seq + 1;
                let Some(lane) = self.intake_reject(&w.req) else {
                    if let Some((stamp, lane)) = w.stamp.zip(Lane::of(&w.req)) {
                        self.rejects[lane as usize].settle(stamp, now);
                    }
                    self.accept(w.req, now);
                    continue;
                };
                let i = lane as usize;
                if w.stamp.is_none() {
                    w.stamp = Some(now);
                    self.rejects[i].stamp(now);
                    self.tracer.emit(now, TraceEventKind::Reject { queue: lane.queue() });
                }
                self.lines.add_waiting(&w.req);
                let at = self.lanes[i].partition_point(|x| x.seq < w.seq);
                if at <= cursor[i] {
                    cursor[i] += 1;
                }
                self.lanes[i].insert(at, w);
            } else {
                let (_, i) = next.expect("a lane request comes next");
                let w = &self.lanes[i][cursor[i]];
                pos = w.seq + 1;
                if self.intake_reject(&w.req).is_some() {
                    cursor[i] += 1;
                    continue;
                }
                let w = self.lanes[i].remove(cursor[i]).expect("cursor in range");
                self.lines.remove_waiting(&w.req);
                self.rejects[i].settle(w.stamp.expect("waiting requests are stamped"), now);
                self.accept(w.req, now);
            }
        }
        drop(fresh_iter);
        self.fresh = fresh;
    }

    /// Whether `lane`'s queue could take one of the lane's requests now:
    /// it has room, or a request can cut in. A read whose line the WPQ
    /// holds forwards from it, and a write-back whose line has a
    /// coalescable WPQ entry coalesces onto it. Nothing the intake accepts
    /// frees a slot, so a lane closed at its turn in the walk stays
    /// closed for the rest of it, except that an accepted write-back can
    /// give a waiting read a line to forward from.
    fn lane_open(&self, lane: Lane) -> bool {
        match lane {
            Lane::Read => {
                self.read_queue.len() < self.cfg.read_queue_entries || self.lines.read_hits() > 0
            }
            Lane::Wpq => self.wpq_admits(None) || self.lines.writeback_hits() > 0,
            Lane::Lpq => self.lpq.len() < self.cfg.lpq_entries,
        }
    }

    /// The lane of the queue that would reject `req` if it were offered
    /// now, or `None` if [`MemoryController::accept`] may take it. Shared
    /// by the intake walk, the skipped-window stamps and the probe, so the
    /// three cannot disagree.
    fn intake_reject(&self, req: &McRequest) -> Option<Lane> {
        match req {
            McRequest::Read { line, .. } => (self.read_queue.len() >= self.cfg.read_queue_entries
                && !self.lines.forwards(*line))
            .then_some(Lane::Read),
            McRequest::WriteBack { line, .. } => {
                (!self.wpq_admits(Some(*line))).then_some(Lane::Wpq)
            }
            McRequest::LogFlush { .. } => {
                (self.lpq.len() >= self.cfg.lpq_entries).then_some(Lane::Lpq)
            }
            // A log entry never coalesces.
            McRequest::AtomLog { .. } => (!self.wpq_admits(None)).then_some(Lane::Wpq),
            // TxEnd, Pcommit, and DrainCoreLogs are always accepted.
            McRequest::TxEnd { .. }
            | McRequest::Pcommit { .. }
            | McRequest::DrainCoreLogs { .. } => None,
        }
    }

    /// The WPQ gate: whether the WPQ takes a write now. It does if it has
    /// room, or if `coalesce` names a line with a coalescable entry. Only
    /// data write-backs coalesce, and only data lines ever hold a
    /// coalescable entry, so a write that may coalesce passes its line
    /// and any other passes `None`. The intake, the background writes,
    /// the commit gate and the probe all admit through it, so
    /// [`MemoryController::insert_wpq`] cannot fail.
    fn wpq_admits(&self, coalesce: Option<LineAddr>) -> bool {
        self.wpq.len() < self.cfg.wpq_entries || coalesce.is_some_and(|l| self.lines.coalesces(l))
    }

    /// The data of the newest WPQ entry for `line`, if the WPQ holds one:
    /// what a read of the line forwards, and what ATOM's source log reads
    /// ahead of the NVMM array.
    fn wpq_newest(&self, line: LineAddr) -> Option<LineData> {
        if !self.lines.forwards(line) {
            return None;
        }
        self.wpq.iter().rev().find(|e| e.line == line).map(|e| e.data)
    }

    /// Accepts `req`, which [`MemoryController::intake_reject`] has just
    /// cleared.
    fn accept(&mut self, req: McRequest, now: Cycle) {
        match req {
            McRequest::Read { line, req_id } => {
                // Forward from the WPQ: the newest matching entry wins.
                if let Some(data) = self.wpq_newest(line) {
                    let at = now + self.timing.burst();
                    self.events.push(McEvent::ReadDone { req_id, data, at });
                    return;
                }
                debug_assert!(self.read_queue.len() < self.cfg.read_queue_entries);
                let entry = ReadEntry {
                    line,
                    loc: Loc::of(&self.map, line),
                    req_id,
                    arrived: now,
                    dispatched: false,
                };
                self.candidates.shift(entry.loc.bank, None, entry.class());
                self.read_queue.push(entry);
                self.tracer.emit(
                    now,
                    TraceEventKind::Enqueue {
                        queue: QueueId::ReadQ,
                        occupancy: self.read_queue.len() as u32,
                    },
                );
            }
            McRequest::WriteBack { line, data, ack_id } => {
                self.insert_wpq(line, data, self.classify(line));
                if let Some(id) = ack_id {
                    self.events.push(McEvent::WritebackAck { ack_id: id, at: now });
                }
            }
            McRequest::LogFlush { slot, words, core, tx, flush_id } => {
                debug_assert!(self.lpq.len() < self.cfg.lpq_entries);
                // A new transaction's first entry retires the previous
                // transaction's retained commit marker (§4.3).
                let dropped =
                    self.drop_lpq_entries(|e| e.core == core && e.retained_marker && e.tx < tx);
                self.stats.wpq_log_dropped += dropped as u64;
                if dropped > 0 {
                    self.persist_event(PersistEventKind::MarkerDrop { entries: dropped as u32 });
                }

                let seq = words[7];
                let entry = LpqEntry {
                    slot_line: slot.line(),
                    loc: Loc::of(&self.map, slot.line()),
                    words,
                    core,
                    tx,
                    seq,
                    retained_marker: false,
                    must_drain: false,
                    in_service: false,
                };
                self.candidates.shift(entry.loc.bank, None, entry.class());
                self.lpq.push(entry);
                self.stats.lpq_inserts += 1;
                self.persist_event(PersistEventKind::LpqAccept { slot_line: slot.line() });
                self.tracer.emit(
                    now,
                    TraceEventKind::Enqueue {
                        queue: QueueId::Lpq,
                        occupancy: self.lpq.len() as u32,
                    },
                );
                self.last_entry[core.index()] =
                    Some(LastEntry { tx, slot_line: slot.line(), words, seq });
                self.events.push(McEvent::LogFlushAck { flush_id, at: now });
            }
            McRequest::AtomLog { grain, old_data, core, tx, log_id } => {
                // Source-log optimisation: on a core-side cache miss the
                // controller reads the pre-store grain from its own
                // durable view (WPQ entries shadow the NVMM array).
                let data = old_data.unwrap_or_else(|| {
                    let line = grain.line();
                    let line_data =
                        self.wpq_newest(line).unwrap_or_else(|| self.nvmm.read_line(line));
                    let base = (grain.log_grain().index() % 2) as usize * 4;
                    [line_data[base], line_data[base + 1], line_data[base + 2], line_data[base + 3]]
                });
                let state = &mut self.atom[core.index()];
                if state.area.current_tx() != Some(tx) {
                    if state.area.current_tx().is_some() {
                        state.area.end_tx().expect("open tx");
                    }
                    state.area.begin_tx(tx).expect("fresh tx");
                    state.tx_slots.clear();
                }
                // Log entries never coalesce, so the intake cleared this
                // one only with a free WPQ slot: the log-area slot below
                // is allocated once, on certain acceptance.
                let (slot, seq) = match state.area.alloc() {
                    Ok(slot) => slot,
                    Err(overflow) => {
                        // §4.1: the transaction overflowed its log area.
                        // The entry is never acknowledged; the machine
                        // stops on the fault.
                        self.fault.get_or_insert(overflow);
                        return;
                    }
                };
                state.tx_slots.push(slot.line());
                let words = proteus_core::entry::LogEntry::new(data, grain, tx, seq).encode_words();
                self.insert_wpq(slot.line(), words, WriteKind::Log);
                self.last_entry[core.index()] =
                    Some(LastEntry { tx, slot_line: slot.line(), words, seq });
                self.events.push(McEvent::AtomLogAck { log_id, at: now });
            }
            McRequest::TxEnd { core, tx } => self.pending_tx_ends.push((core, tx)),
            McRequest::Pcommit { commit_id } => {
                self.pending_pcommits.push(commit_id);
                self.stats.pcommits += 1;
            }
            McRequest::DrainCoreLogs { core } => {
                for e in self.lpq.iter_mut().filter(|e| e.core == core) {
                    let from = e.class();
                    e.must_drain = true;
                    self.candidates.shift(e.loc.bank, from, e.class());
                }
            }
        }
    }

    /// Removes the LPQ entries `drop` selects; returns how many.
    fn drop_lpq_entries(&mut self, drop: impl Fn(&LpqEntry) -> bool) -> usize {
        let before = self.lpq.len();
        let candidates = &mut self.candidates;
        self.lpq.retain(|e| {
            let gone = drop(e);
            if gone {
                candidates.shift(e.loc.bank, e.class(), None);
            }
            !gone
        });
        before - self.lpq.len()
    }

    fn classify(&self, line: LineAddr) -> WriteKind {
        if self.layout.log_area_owner(line.base()).is_some() {
            WriteKind::Log
        } else {
            WriteKind::Data
        }
    }

    /// Puts a `kind` write of `line` into the WPQ, which the WPQ gate
    /// ([`MemoryController::wpq_admits`]) has just admitted: onto the
    /// line's coalescable entry if it has one (normal write-back
    /// coalescing), else into a free slot. The line index keeps the
    /// common miss off the queue scan; a hit scans, but a hit also
    /// accepts the write.
    fn insert_wpq(&mut self, line: LineAddr, data: LineData, kind: WriteKind) {
        if kind == WriteKind::Data && self.lines.coalesces(line) {
            let e = self
                .wpq
                .iter_mut()
                .find(|e| e.line == line && e.coalescable())
                .expect("indexed line has a coalescable entry");
            e.data = data;
            self.stats.wpq_inserts += 1;
            self.persist_event(PersistEventKind::WpqAccept { line });
            self.tracer.emit(self.clock, TraceEventKind::Persist(PersistKind::WpqCoalesce));
            return;
        }
        debug_assert!(self.wpq_admits(None), "the WPQ gate admitted a write with no free slot");
        let entry = WpqEntry { line, loc: Loc::of(&self.map, line), data, kind, in_service: false };
        self.candidates.shift(entry.loc.bank, None, entry.class());
        self.lines.wpq_push(line, entry.coalescable());
        self.wpq.push(entry);
        self.stats.wpq_inserts += 1;
        self.persist_event(PersistEventKind::WpqAccept { line });
        self.tracer.emit(
            self.clock,
            TraceEventKind::Enqueue { queue: QueueId::Wpq, occupancy: self.wpq.len() as u32 },
        );
    }

    fn feed_pending_writes(&mut self) {
        while !self.pending_writes.is_empty() && self.wpq_admits(None) {
            let (line, words) = self.pending_writes.pop_front().expect("checked non-empty");
            self.insert_wpq(line, words, WriteKind::LogInvalidate);
        }
    }

    /// Commit-time work: flash clear, marker durability, ATOM truncation.
    /// A commit the commit gate holds waits for a later tick.
    fn resolve_tx_ends(&mut self, now: Cycle) {
        let pending = std::mem::take(&mut self.pending_tx_ends);
        for (core, tx) in pending {
            if self.commit_blocked(core, tx) {
                self.pending_tx_ends.push((core, tx));
            } else {
                self.finish_tx_end(core, tx);
                self.events.push(McEvent::TxEndDone { core, tx, at: now });
            }
        }
    }

    /// The commit gate: whether the commit of `tx` on `core` must wait.
    /// Only an ATOM commit ever does. Its marker goes onto the
    /// transaction's last log entry, stamped in place while that entry
    /// waits in the WPQ, else rewritten, and the rewrite needs the WPQ
    /// gate.
    fn commit_blocked(&self, core: CoreId, tx: TxId) -> bool {
        self.atom[core.index()].area.current_tx() == Some(tx)
            && !self.wpq_admits(None)
            && self.last_entry[core.index()].is_some_and(|last| {
                last.tx == tx && self.stampable_marker(last.slot_line).is_none()
            })
    }

    /// The WPQ index of the ATOM log entry of `slot_line` that a commit
    /// stamps its marker onto: one still waiting for its bank.
    fn stampable_marker(&self, slot_line: LineAddr) -> Option<usize> {
        self.wpq
            .iter()
            .position(|e| e.line == slot_line && e.kind == WriteKind::Log && !e.in_service)
    }

    /// Commits `tx` on `core`, which the commit gate has just cleared.
    fn finish_tx_end(&mut self, core: CoreId, tx: TxId) {
        let last = self.last_entry[core.index()].filter(|l| l.tx == tx);
        let state = &mut self.atom[core.index()];
        if state.area.current_tx() == Some(tx) {
            // ATOM: make the commit marker durable before the commit
            // completes, then truncate the log with per-entry
            // invalidation writes.
            state.area.end_tx().expect("open tx");
            let slots = std::mem::take(&mut state.tx_slots);
            let Some(last) = last else { return };
            match self.stampable_marker(last.slot_line) {
                Some(i) => {
                    self.wpq[i].data[6] |= FLAG_COMMIT_MARKER;
                    self.persist_event(PersistEventKind::MarkerStamp { slot_line: last.slot_line });
                }
                // The entry is in service or has drained: write it out
                // again with the marker set.
                None => {
                    let mut words = last.words;
                    words[6] |= FLAG_COMMIT_MARKER;
                    self.insert_wpq(last.slot_line, words, WriteKind::Log);
                }
            }
            // Truncation (§4.3): the MC's tracker clears entries that are
            // still buffered; entries that already drained to NVMM must
            // be invalidated manually one by one (a read plus a write
            // each).
            for slot in slots {
                if slot == last.slot_line {
                    continue;
                }
                let before = self.wpq.len();
                let (candidates, lines) = (&mut self.candidates, &mut self.lines);
                self.wpq.retain(|e| {
                    let clear = e.line == slot && e.kind == WriteKind::Log && !e.in_service;
                    if clear {
                        candidates.shift(e.loc.bank, e.class(), None);
                        lines.wpq_remove(e.line);
                    }
                    !clear
                });
                if self.wpq.len() < before {
                    self.stats.wpq_log_dropped += 1;
                    self.persist_event(PersistEventKind::LogClear { entries: 1 });
                } else {
                    // A read-modify-write; an all-zero line has its valid
                    // bit off.
                    self.stats.nvmm_reads += 1;
                    self.pending_writes.push_back((slot, [0; 8]));
                }
            }
            return;
        }

        // Proteus: under log write removal, flash clear this
        // transaction's LPQ entries except the last.
        let lwr = self.drain_mode == LogDrainMode::KeepUntilCommit;
        if lwr {
            let last_seq = last.map(|l| l.seq);
            let cleared = self.drop_lpq_entries(|e| {
                e.core == core && e.tx == tx && !e.in_service && Some(e.seq) != last_seq
            });
            self.stats.lpq_flash_cleared += cleared as u64;
            if cleared > 0 {
                self.persist_event(PersistEventKind::LogClear { entries: cleared as u32 });
                self.tracer.emit(
                    self.clock,
                    TraceEventKind::Dequeue {
                        queue: QueueId::Lpq,
                        occupancy: self.lpq.len() as u32,
                    },
                );
            }
        }
        let Some(l) = last else { return };
        // The commit marker goes onto the last entry: stamped in place
        // while it waits in the LPQ, and under LWR retained there, even
        // while in service; otherwise the entry is rewritten in NVMM with
        // the marker set.
        let stampable = self
            .lpq
            .iter_mut()
            .find(|e| e.core == core && e.tx == tx && e.seq == l.seq && (lwr || !e.in_service));
        if let Some(e) = stampable {
            e.words[6] |= FLAG_COMMIT_MARKER;
            let from = e.class();
            e.retained_marker = lwr;
            self.candidates.shift(e.loc.bank, from, e.class());
            let slot_line = e.slot_line;
            self.persist_event(PersistEventKind::MarkerStamp { slot_line });
        } else {
            let mut words = l.words;
            words[6] |= FLAG_COMMIT_MARKER | FLAG_VALID;
            self.pending_writes.push_back((l.slot_line, words));
        }
    }

    /// The pcommit gate: whether the pending pcommits complete now. They
    /// wait until the WPQ has drained to NVMM and no background write is
    /// left to join it.
    fn pcommits_done(&self) -> bool {
        !self.pending_pcommits.is_empty() && self.wpq.is_empty() && self.pending_writes.is_empty()
    }

    fn resolve_pcommits(&mut self, now: Cycle) {
        if self.pcommits_done() {
            for commit_id in std::mem::take(&mut self.pending_pcommits) {
                self.events.push(McEvent::PcommitDone { commit_id, at: now });
            }
        }
    }

    fn complete_in_flight(&mut self, now: Cycle) {
        if now < self.next_done {
            return;
        }
        self.next_done = Cycle::MAX;
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 > now {
                self.next_done = self.next_done.min(self.in_flight[i].0);
                i += 1;
                continue;
            }
            let (_, action) = self.in_flight.remove(i);
            match action {
                InFlight::Read { req_id } => {
                    // Data was captured at completion time from NVMM.
                    // (Same-line writes serialise on the same bank.)
                    let line = self
                        .read_queue
                        .iter()
                        .position(|r| r.dispatched && r.req_id == req_id)
                        .map(|pos| self.read_queue.remove(pos))
                        .expect("read completion without queue entry");
                    let waited = now.saturating_sub(line.arrived);
                    self.stats.read_queue_wait_cycles += waited;
                    if self.tracer.is_enabled() {
                        self.tracer.record_wait(QueueId::ReadQ, waited);
                        self.tracer.emit(
                            now,
                            TraceEventKind::Dequeue {
                                queue: QueueId::ReadQ,
                                occupancy: self.read_queue.len() as u32,
                            },
                        );
                    }
                    let data = self.nvmm.read_line(line.line);
                    self.events.push(McEvent::ReadDone { req_id, data, at: now });
                }
                InFlight::WpqWrite { index_line } => {
                    if let Some(pos) =
                        self.wpq.iter().position(|e| e.line == index_line && e.in_service)
                    {
                        let e = self.wpq.remove(pos);
                        self.lines.wpq_remove(e.line);
                        self.nvmm.write_line(e.line, &e.data);
                        self.persist_event(PersistEventKind::WpqDrain { line: e.line });
                        self.tracer.emit(
                            now,
                            TraceEventKind::Dequeue {
                                queue: QueueId::Wpq,
                                occupancy: self.wpq.len() as u32,
                            },
                        );
                        match e.kind {
                            WriteKind::Data => self.stats.nvmm_data_writes += 1,
                            WriteKind::Log => self.stats.nvmm_log_writes += 1,
                            WriteKind::LogInvalidate => {
                                self.stats.nvmm_log_invalidation_writes += 1
                            }
                        }
                    }
                }
                InFlight::LpqWrite { index_line, seq } => {
                    if let Some(pos) = self
                        .lpq
                        .iter()
                        .position(|e| e.slot_line == index_line && e.seq == seq && e.in_service)
                    {
                        let e = self.lpq.remove(pos);
                        self.nvmm.write_line(e.slot_line, &e.words);
                        self.persist_event(PersistEventKind::LpqDrain { slot_line: e.slot_line });
                        self.tracer.emit(
                            now,
                            TraceEventKind::Dequeue {
                                queue: QueueId::Lpq,
                                occupancy: self.lpq.len() as u32,
                            },
                        );
                        self.stats.nvmm_log_writes += 1;
                        self.stats.lpq_drained += 1;
                    }
                }
            }
        }
    }

    /// Issues at most one bank command per memory-clock edge:
    /// reads first, then WPQ writes under the watermark policy, then LPQ
    /// drains under the log policy (see [`MemoryController::drain_rules`]).
    /// Each queue is scanned for its oldest candidate only when a bank
    /// idle at `now` holds one.
    fn schedule_command(&mut self, now: Cycle) {
        let idle = self.candidates.idle_classes(&self.banks, now);
        // 1. Oldest undispatched read whose bank is idle.
        if idle & Class::Read.bit() != 0 {
            let r = self
                .read_queue
                .iter_mut()
                .find(|r| {
                    !r.dispatched && self.banks[r.loc.checked(&self.map, r.line).bank].is_idle(now)
                })
                .expect("an idle bank holds an undispatched read");
            r.dispatched = true;
            self.candidates.shift(r.loc.bank, Some(Class::Read), None);
            let done = self.banks[r.loc.bank].start_read(r.loc.row, now, &self.timing);
            self.stats.nvmm_reads += 1;
            let read = InFlight::Read { req_id: r.req_id };
            self.start(done, read);
            return;
        }

        // 2. Oldest issuable WPQ entry whose bank is idle.
        let rules = self.drain_rules();
        self.wpq_draining = rules.wpq_draining;
        let wpq = rules.wpq_classes();
        if idle & wpq != 0 {
            let e = self
                .wpq
                .iter_mut()
                .find(|e| {
                    Class::within(e.class(), wpq)
                        && self.banks[e.loc.checked(&self.map, e.line).bank].is_idle(now)
                })
                .expect("an idle bank holds an issuable WPQ entry");
            self.candidates.shift(e.loc.bank, e.class(), None);
            e.in_service = true;
            if e.kind == WriteKind::Data {
                self.lines.uncoalesce(e.line);
            }
            let done = self.banks[e.loc.bank].start_write(e.loc.row, now, &self.timing);
            let write = InFlight::WpqWrite { index_line: e.line };
            self.start(done, write);
            return;
        }

        // 3. Oldest issuable LPQ entry whose bank is idle.
        let lpq = rules.lpq_classes(self.candidates.any(wpq));
        if idle & lpq != 0 {
            let e = self
                .lpq
                .iter_mut()
                .find(|e| {
                    Class::within(e.class(), lpq)
                        && self.banks[e.loc.checked(&self.map, e.slot_line).bank].is_idle(now)
                })
                .expect("an idle bank holds an issuable LPQ entry");
            self.candidates.shift(e.loc.bank, e.class(), None);
            e.in_service = true;
            let done = self.banks[e.loc.bank].start_write(e.loc.row, now, &self.timing);
            let write = InFlight::LpqWrite { index_line: e.slot_line, seq: e.seq };
            self.start(done, write);
        }
    }

    /// Records a bank command that completes at `done`.
    fn start(&mut self, done: Cycle, what: InFlight) {
        self.next_done = self.next_done.min(done);
        self.in_flight.push((done, what));
    }

    /// Recounts the intake and arbiter indexes from the queues and checks
    /// them (debug builds, after every tick): the per-bank candidates, the
    /// line index, the waiting part of each rejection tally, and the
    /// order of the not-due index and the lanes.
    #[cfg(debug_assertions)]
    fn check_indexes(&self, now: Cycle) {
        let mut candidates = Candidates::new(self.banks.len());
        for r in &self.read_queue {
            candidates.shift(r.loc.checked(&self.map, r.line).bank, None, r.class());
        }
        for e in &self.wpq {
            candidates.shift(e.loc.checked(&self.map, e.line).bank, None, e.class());
        }
        for e in &self.lpq {
            candidates.shift(e.loc.checked(&self.map, e.slot_line).bank, None, e.class());
        }
        assert_eq!(candidates, self.candidates, "issue candidates out of sync after {now}");

        let mut lines = LineIndex::default();
        for e in &self.wpq {
            lines.wpq_push(e.line, e.coalescable());
        }
        for w in self.lanes.iter().flatten() {
            lines.add_waiting(&w.req);
        }
        assert_eq!(lines, self.lines, "line index out of sync after {now}");

        for (lane, waiting) in Lane::ALL.into_iter().zip(&self.lanes) {
            assert!(waiting.iter().all(|w| Lane::of(&w.req) == Some(lane)), "{lane:?} lane");
            assert!(waiting.iter().zip(waiting.iter().skip(1)).all(|(a, b)| a.seq < b.seq));
            let stamps = waiting.iter().map(|w| w.stamp.expect("waiting requests are stamped"));
            assert_eq!(
                RejectTally::of_waiting(stamps),
                self.rejects[lane as usize].waiting_part(),
                "{lane:?} rejection tally out of sync after {now}"
            );
        }
        assert!(self.fresh.is_empty());
        assert_eq!(self.next_done, self.in_flight.iter().map(|f| f.0).min().unwrap_or(Cycle::MAX));
        let due_order = |w: &Waiting| (w.at, w.seq);
        assert!(self
            .not_due
            .iter()
            .zip(self.not_due.iter().skip(1))
            .all(|(a, b)| due_order(a) < due_order(b)));
        assert!(self.not_due.front().is_none_or(|w| w.at > now), "a due request was left out");
    }
}

impl NextEvent for MemoryController {
    /// Each clause reads the gate its tick phase acts through: the commit
    /// gate, the pcommit gate, the WPQ gate for the background writes,
    /// `lane_open` and `intake_reject` for the intake, `next_done` for
    /// the completions and `next_issue_boundary` for the arbiter. None
    /// restates a phase's condition, so the probe and the tick cannot
    /// disagree.
    fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        // The cheap immediate-wake checks come first and return early:
        // `now` is already the floor, so nothing later can beat it, and
        // skipping the queue scans matters — this runs on every engine
        // probe. Undelivered events must reach the cores (normally
        // drained by the system right after each tick — this is a
        // safety net).
        if !self.events.is_empty()
            || self.pending_tx_ends.iter().any(|&(core, tx)| !self.commit_blocked(core, tx))
            || self.pcommits_done()
            || !self.pending_writes.is_empty() && self.wpq_admits(None)
        {
            return Some(now);
        }
        let mut best: Option<Cycle> = None;
        let wake = |at: Cycle, best: &mut Option<Cycle>| {
            let at = at.max(now);
            *best = Some(best.map_or(at, |b: Cycle| b.min(at)));
        };
        // A due request is retried every cycle. A retry that a full
        // queue rejects changes nothing but that queue's rejection count,
        // which is closed-form; any other due request is accepted next
        // tick, as a waiting one is if its lane is open. A request not
        // yet due wakes us at its delivery.
        if Lane::ALL.into_iter().any(|l| !self.lanes[l as usize].is_empty() && self.lane_open(l)) {
            return Some(now);
        }
        for w in &self.not_due {
            if w.at > now {
                wake(w.at, &mut best);
                break;
            }
            if self.intake_reject(&w.req).is_none() {
                return Some(now);
            }
        }
        if !self.in_flight.is_empty() {
            wake(self.next_done, &mut best);
        }
        if best == Some(now) {
            return best;
        }
        if let Some(t) = self.next_issue_boundary() {
            wake(t, &mut best);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_core::entry::LogEntry;
    use proteus_types::Addr;

    fn small_cfg() -> MemConfig {
        MemConfig { read_queue_entries: 8, wpq_entries: 8, lpq_entries: 8, ..MemConfig::default() }
    }

    fn layout() -> AddressLayout {
        AddressLayout { log_area_entries: 64, ..AddressLayout::default() }
    }

    fn run_until_quiescent(mc: &mut MemoryController, mut now: Cycle) -> (Vec<McEvent>, Cycle) {
        let mut events = Vec::new();
        for _ in 0..200_000 {
            mc.tick(now);
            events.extend(mc.drain_events());
            if mc.is_quiescent() {
                break;
            }
            now += 1;
        }
        (events, now)
    }

    #[test]
    fn read_returns_nvmm_data() {
        let mut mc = MemoryController::new(small_cfg(), layout(), LogDrainMode::KeepUntilCommit);
        let mut img = WordImage::new();
        let addr = Addr::new(0x1000_0000);
        img.write_word(addr, 42);
        mc.load_image(img);
        mc.submit(McRequest::Read { line: addr.line(), req_id: 1 }, 0);
        let (events, _) = run_until_quiescent(&mut mc, 0);
        let done = events
            .iter()
            .find_map(|e| match e {
                McEvent::ReadDone { req_id: 1, data, at } => Some((*data, *at)),
                _ => None,
            })
            .expect("read completion");
        assert_eq!(done.0[0], 42);
        assert!(done.1 > 100, "NVM read must take ~50ns ≈ 170 cycles, got {}", done.1);
        assert_eq!(mc.stats().nvmm_reads, 1);
    }

    #[test]
    fn writeback_acked_on_wpq_acceptance_under_adr() {
        let mut mc = MemoryController::new(small_cfg(), layout(), LogDrainMode::KeepUntilCommit);
        let addr = Addr::new(0x1000_0000);
        let mut data = [0u64; 8];
        data[0] = 7;
        mc.submit(McRequest::WriteBack { line: addr.line(), data, ack_id: Some(9) }, 5);
        mc.tick(5);
        let events = mc.drain_events();
        assert!(
            matches!(events.as_slice(), [McEvent::WritebackAck { ack_id: 9, at: 5 }]),
            "ADR must ack at acceptance, got {events:?}"
        );
        // Durable in the crash image immediately, before any NVMM write.
        assert_eq!(mc.crash_image().read_word(addr), 7);
        assert_eq!(mc.stats().nvmm_data_writes, 0);
    }

    #[test]
    fn read_forwards_from_wpq() {
        let mut mc = MemoryController::new(small_cfg(), layout(), LogDrainMode::KeepUntilCommit);
        let addr = Addr::new(0x1000_0000);
        let mut data = [0u64; 8];
        data[0] = 99;
        mc.submit(McRequest::WriteBack { line: addr.line(), data, ack_id: None }, 0);
        mc.submit(McRequest::Read { line: addr.line(), req_id: 3 }, 1);
        mc.tick(0);
        mc.tick(1);
        mc.tick(2);
        let events = mc.drain_events();
        let fwd = events.iter().find_map(|e| match e {
            McEvent::ReadDone { req_id: 3, data, at } => Some((data[0], *at)),
            _ => None,
        });
        let (val, at) = fwd.expect("forwarded read");
        assert_eq!(val, 99);
        assert!(at < 30, "WPQ forward must be fast, got {at}");
    }

    fn flush_entry(
        mc: &mut MemoryController,
        layout: &AddressLayout,
        slot_idx: usize,
        grain: Addr,
        tx: u64,
        seq: u64,
        at: Cycle,
    ) -> Addr {
        let slot = layout.log_slot(ThreadId::new(0), slot_idx);
        let entry = LogEntry::new([seq, 0, 0, 0], grain, TxId::new(tx), seq);
        mc.submit(
            McRequest::LogFlush {
                slot,
                words: entry.encode_words(),
                core: CoreId::new(0),
                tx: TxId::new(tx),
                flush_id: seq,
            },
            at,
        );
        slot
    }

    #[test]
    fn flash_clear_drops_log_writes() {
        let lay = layout();
        let mut mc = MemoryController::new(small_cfg(), lay.clone(), LogDrainMode::KeepUntilCommit);
        let grain = Addr::new(0x1000_0000);
        for i in 0..3 {
            flush_entry(&mut mc, &lay, i, grain.offset(i as u64 * 32), 1, i as u64, 0);
        }
        mc.submit(McRequest::TxEnd { core: CoreId::new(0), tx: TxId::new(1) }, 10);
        let (events, _) = run_until_quiescent(&mut mc, 0);
        assert!(events.iter().any(|e| matches!(e, McEvent::TxEndDone { .. })));
        // Two entries flash cleared, marker retained; NO log write ever
        // reached the NVMM banks.
        assert_eq!(mc.stats().lpq_flash_cleared, 2);
        assert_eq!(mc.stats().nvmm_log_writes, 0);
        // The retained marker is still durable via ADR.
        let img = mc.crash_image();
        let marker = LogEntry::read_from(&img, lay.log_slot(ThreadId::new(0), 2)).unwrap();
        assert!(marker.commit_marker);
    }

    #[test]
    fn next_tx_first_entry_drops_retained_marker() {
        let lay = layout();
        let mut mc = MemoryController::new(small_cfg(), lay.clone(), LogDrainMode::KeepUntilCommit);
        flush_entry(&mut mc, &lay, 0, Addr::new(0x1000_0000), 1, 0, 0);
        mc.submit(McRequest::TxEnd { core: CoreId::new(0), tx: TxId::new(1) }, 5);
        mc.tick(5);
        mc.tick(6);
        // tx2's first entry arrives: tx1's marker is discarded unwritten.
        flush_entry(&mut mc, &lay, 1, Addr::new(0x1000_0040), 2, 1, 7);
        mc.tick(7);
        let img = mc.crash_image();
        assert!(
            LogEntry::read_from(&img, lay.log_slot(ThreadId::new(0), 0)).is_none(),
            "tx1 marker must be dropped once tx2's entry is durable"
        );
        assert!(LogEntry::read_from(&img, lay.log_slot(ThreadId::new(0), 1)).is_some());
        assert_eq!(mc.stats().nvmm_log_writes, 0);
    }

    #[test]
    fn drain_always_mode_writes_logs_to_nvmm() {
        let lay = layout();
        let mut mc = MemoryController::new(small_cfg(), lay.clone(), LogDrainMode::DrainAlways);
        for i in 0..3 {
            flush_entry(
                &mut mc,
                &lay,
                i,
                Addr::new(0x1000_0000).offset(i as u64 * 32),
                1,
                i as u64,
                0,
            );
        }
        mc.submit(McRequest::TxEnd { core: CoreId::new(0), tx: TxId::new(1) }, 10);
        let (_, _) = run_until_quiescent(&mut mc, 0);
        assert_eq!(mc.stats().lpq_flash_cleared, 0);
        assert_eq!(mc.stats().nvmm_log_writes, 3, "NoLWR must write all entries");
    }

    #[test]
    fn atom_logs_written_and_truncated() {
        let lay = layout();
        let mut mc = MemoryController::new(small_cfg(), lay.clone(), LogDrainMode::KeepUntilCommit);
        for i in 0..3u64 {
            mc.submit(
                McRequest::AtomLog {
                    grain: Addr::new(0x1000_0000 + i * 32),
                    old_data: Some([i, 0, 0, 0]),
                    core: CoreId::new(0),
                    tx: TxId::new(1),
                    log_id: i,
                },
                0,
            );
        }
        mc.submit(McRequest::TxEnd { core: CoreId::new(0), tx: TxId::new(1) }, 10);
        let (events, _) = run_until_quiescent(&mut mc, 0);
        assert_eq!(events.iter().filter(|e| matches!(e, McEvent::AtomLogAck { .. })).count(), 3);
        let s = mc.stats();
        // Every non-marker entry is either cleared by the tracker while
        // still buffered, or — having escaped to NVMM — invalidated
        // manually (§4.3's description of ATOM).
        assert_eq!(s.wpq_log_dropped + s.nvmm_log_invalidation_writes, 2, "{s:?}");
        // The commit marker always reaches NVMM.
        assert!(s.nvmm_log_writes >= 1, "{s:?}");
        let img = mc.nvmm();
        let marker = LogEntry::read_from(img, lay.log_slot(ThreadId::new(0), 2))
            .expect("marker entry durable");
        assert!(marker.commit_marker);
    }

    #[test]
    fn pcommit_waits_for_wpq_drain() {
        let mut mc = MemoryController::new(small_cfg(), layout(), LogDrainMode::KeepUntilCommit);
        let addr = Addr::new(0x1000_0000);
        let mut data = [0u64; 8];
        data[0] = 1;
        mc.submit(McRequest::WriteBack { line: addr.line(), data, ack_id: None }, 0);
        mc.submit(McRequest::Pcommit { commit_id: 77 }, 1);
        let (events, _) = run_until_quiescent(&mut mc, 0);
        let done_at = events
            .iter()
            .find_map(|e| match e {
                McEvent::PcommitDone { commit_id: 77, at } => Some(*at),
                _ => None,
            })
            .expect("pcommit done");
        // Must wait for the slow NVM write (~480 cycles), unlike the ADR ack.
        assert!(done_at > 400, "pcommit completed too early at {done_at}");
        assert_eq!(mc.nvmm().read_word(addr), 1);
    }

    #[test]
    fn context_switch_forces_log_drain() {
        let lay = layout();
        let mut mc = MemoryController::new(small_cfg(), lay.clone(), LogDrainMode::KeepUntilCommit);
        flush_entry(&mut mc, &lay, 0, Addr::new(0x1000_0000), 1, 0, 0);
        mc.submit(McRequest::DrainCoreLogs { core: CoreId::new(0) }, 5);
        let (_, _) = run_until_quiescent(&mut mc, 0);
        assert_eq!(mc.stats().nvmm_log_writes, 1, "log-save must force NVMM write");
        assert!(LogEntry::read_from(mc.nvmm(), lay.log_slot(ThreadId::new(0), 0)).is_some());
    }

    #[test]
    fn wpq_backpressure_rejects_then_accepts() {
        let mut cfg = small_cfg();
        cfg.wpq_entries = 2;
        let mut mc = MemoryController::new(cfg, layout(), LogDrainMode::KeepUntilCommit);
        for i in 0..4u64 {
            let mut data = [0u64; 8];
            data[0] = i + 1;
            mc.submit(
                McRequest::WriteBack {
                    line: Addr::new(0x1000_0000 + i * 64).line(),
                    data,
                    ack_id: Some(i),
                },
                0,
            );
        }
        let (events, _) = run_until_quiescent(&mut mc, 0);
        // All four eventually accepted despite a 2-entry WPQ.
        assert_eq!(events.iter().filter(|e| matches!(e, McEvent::WritebackAck { .. })).count(), 4);
        assert!(mc.stats().wpq_full_rejections > 0);
        assert_eq!(mc.stats().nvmm_data_writes, 4);
    }

    #[test]
    fn persist_events_number_durable_transitions() {
        let lay = layout();
        let mut mc = MemoryController::new(small_cfg(), lay.clone(), LogDrainMode::KeepUntilCommit);
        mc.set_record_persist_events(true);
        assert_eq!(mc.persist_seq(), 0);
        let addr = Addr::new(0x1000_0000);
        let mut data = [0u64; 8];
        data[0] = 7;
        mc.submit(McRequest::WriteBack { line: addr.line(), data, ack_id: None }, 0);
        flush_entry(&mut mc, &lay, 0, addr, 1, 0, 0);
        mc.submit(McRequest::TxEnd { core: CoreId::new(0), tx: TxId::new(1) }, 5);
        let (_, _) = run_until_quiescent(&mut mc, 0);
        let timeline = mc.persist_timeline();
        assert_eq!(mc.persist_seq(), timeline.len() as u64);
        assert!(timeline.iter().any(|e| matches!(e.kind, PersistEventKind::WpqAccept { .. })));
        assert!(timeline.iter().any(|e| matches!(e.kind, PersistEventKind::LpqAccept { .. })));
        assert!(timeline.iter().any(|e| matches!(e.kind, PersistEventKind::MarkerStamp { .. })));
        assert_eq!(timeline.first().map(|e| e.seq), Some(1), "indices are 1-based");
        assert!(timeline.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }

    #[test]
    fn partial_adr_drain_loses_the_queue_suffix() {
        let mut mc = MemoryController::new(small_cfg(), layout(), LogDrainMode::KeepUntilCommit);
        let a = Addr::new(0x1000_0000);
        let b = Addr::new(0x1000_0040);
        for (i, addr) in [a, b].iter().enumerate() {
            let mut data = [0u64; 8];
            data[0] = i as u64 + 1;
            mc.submit(McRequest::WriteBack { line: addr.line(), data, ack_id: None }, 0);
        }
        mc.tick(0);
        assert_eq!(mc.crash_image().read_word(b), 2, "clean drain folds everything");
        let faults = CrashFaults { wpq_survivors: Some(1), ..CrashFaults::clean() };
        let img = mc.crash_image_with(&faults);
        assert_eq!(img.read_word(a), 1);
        assert_eq!(img.read_word(b), 0, "second WPQ entry must be lost");
    }

    #[test]
    fn torn_in_service_writes_are_masked_by_a_full_adr_drain() {
        let mut mc = MemoryController::new(small_cfg(), layout(), LogDrainMode::KeepUntilCommit);
        for i in 0..3u64 {
            let data = [i + 1; 8];
            mc.submit(
                McRequest::WriteBack {
                    line: Addr::new(0x1000_0000 + i * 64).line(),
                    data,
                    ack_id: None,
                },
                0,
            );
        }
        for now in 0..10_000 {
            mc.tick(now);
            mc.drain_events();
            if mc.wpq.iter().any(|e| e.in_service) {
                break;
            }
        }
        let e = mc.wpq.iter().find(|e| e.in_service).expect("a bank write in flight").clone();
        let torn = CrashFaults { torn_word_mask: Some(0b0000_0001), ..CrashFaults::clean() };
        assert_eq!(
            mc.crash_image_with(&torn),
            mc.crash_image(),
            "queue-resident entries must paper over torn bank writes"
        );
        // Without the fold (battery dead), the torn line shows through.
        let bare = CrashFaults {
            torn_word_mask: Some(0b0000_0001),
            wpq_survivors: Some(0),
            lpq_survivors: Some(0),
        };
        let img = mc.crash_image_with(&bare);
        assert_eq!(img.read_word(e.line.base()), e.data[0], "masked word landed");
        assert_eq!(img.read_word(e.line.base().offset(8)), 0, "unmasked word must not land");
    }

    #[test]
    fn crash_image_without_adr_loses_queues() {
        let mut cfg = small_cfg();
        cfg.adr = false;
        let mut mc = MemoryController::new(cfg, layout(), LogDrainMode::KeepUntilCommit);
        let addr = Addr::new(0x1000_0000);
        let mut data = [0u64; 8];
        data[0] = 5;
        mc.submit(McRequest::WriteBack { line: addr.line(), data, ack_id: None }, 0);
        mc.tick(0);
        assert_eq!(mc.crash_image().read_word(addr), 0, "non-ADR WPQ is volatile");
    }

    fn writeback(line: u64, value: u64, ack: u64) -> McRequest {
        let mut data = [0u64; 8];
        data[0] = value;
        let line = Addr::new(0x1000_0000 + line * 64).line();
        McRequest::WriteBack { line, data, ack_id: Some(ack) }
    }

    /// Ticks every cycle from `from` through `to`, collecting events.
    fn tick_through(mc: &mut MemoryController, from: Cycle, to: Cycle) -> Vec<McEvent> {
        let mut events = Vec::new();
        for now in from..=to {
            mc.tick(now);
            events.extend(mc.drain_events());
        }
        events
    }

    fn writeback_acks(events: &[McEvent]) -> Vec<(u64, Cycle)> {
        events
            .iter()
            .filter_map(|e| match e {
                McEvent::WritebackAck { ack_id, at } => Some((*ack_id, *at)),
                _ => None,
            })
            .collect()
    }

    /// Acceptance is the durability acknowledgement: a write submitted
    /// but not accepted yet, whether not yet due or turned away by a full
    /// WPQ, is absent from the crash image, and present from the tick
    /// that accepts it.
    #[test]
    fn unaccepted_writes_are_absent_from_the_crash_image() {
        let word = |line: u64| Addr::new(0x1000_0000 + line * 64);
        let mut mc = MemoryController::new(small_cfg(), layout(), LogDrainMode::KeepUntilCommit);
        mc.submit(writeback(0, 7, 1), 30);
        assert!(writeback_acks(&tick_through(&mut mc, 0, 29)).is_empty());
        assert_eq!(mc.crash_image().read_word(word(0)), 0, "a write not yet due is lost");
        assert_eq!(writeback_acks(&tick_through(&mut mc, 30, 30)), [(1, 30)]);
        assert_eq!(mc.crash_image().read_word(word(0)), 7, "accepted on delivery");

        let mut cfg = small_cfg();
        cfg.wpq_entries = 2;
        let mut mc = MemoryController::new(cfg, layout(), LogDrainMode::KeepUntilCommit);
        for i in 0..3 {
            mc.submit(writeback(i, i + 1, i), 0);
        }
        assert_eq!(writeback_acks(&tick_through(&mut mc, 0, 0)), [(0, 0), (1, 0)]);
        assert!(mc.stats().wpq_full_rejections > 0);
        let image = mc.crash_image();
        assert_eq!((image.read_word(word(0)), image.read_word(word(1))), (1, 2));
        assert_eq!(image.read_word(word(2)), 0, "a write the full WPQ turned away is lost");
        let mut now = 0;
        while mc.crash_image().read_word(word(2)) == 0 {
            now += 1;
            assert!(now < 10_000, "the full WPQ never took the waiting write");
            let acks = writeback_acks(&tick_through(&mut mc, now, now));
            assert_eq!(
                acks.contains(&(2, now)),
                mc.crash_image().read_word(word(2)) == 3,
                "durable exactly from its acceptance (cycle {now})"
            );
        }
    }

    /// A request submitted first but delivered after a later submission
    /// takes its arrival turn: with room, each is accepted on delivery;
    /// with the WPQ full, the first submission takes the first free slot.
    #[test]
    fn a_request_due_after_a_later_submission_keeps_its_arrival_turn() {
        let mut mc = MemoryController::new(small_cfg(), layout(), LogDrainMode::KeepUntilCommit);
        mc.submit(writeback(0, 1, 1), 52);
        mc.submit(writeback(1, 2, 2), 25);
        let events = tick_through(&mut mc, 0, 60);
        assert_eq!(writeback_acks(&events), [(2, 25), (1, 52)]);
        assert_eq!(mc.stats().wpq_full_rejections, 0);

        let mut cfg = small_cfg();
        cfg.wpq_entries = 2;
        let mut mc = MemoryController::new(cfg, layout(), LogDrainMode::KeepUntilCommit);
        mc.submit(writeback(0, 1, 10), 0);
        mc.submit(writeback(1, 2, 11), 0);
        mc.submit(writeback(2, 3, 1), 52);
        mc.submit(writeback(3, 4, 2), 25);
        mc.submit(writeback(4, 5, 3), 30);
        let (events, _) = run_until_quiescent(&mut mc, 0);
        let order: Vec<u64> = writeback_acks(&events).iter().map(|&(id, _)| id).collect();
        assert_eq!(
            order,
            [10, 11, 1, 2, 3],
            "a full WPQ takes waiting write-backs in arrival order"
        );
        // Recorded from the per-retry intake walk this closed form replaced.
        assert_eq!(mc.stats().wpq_full_rejections, 1822);
    }

    /// A read and a write-back of one line, delivered in the same tick:
    /// the read forwards from the WPQ only if the write-back arrived first.
    #[test]
    fn a_same_tick_read_forwards_only_from_an_earlier_write_back() {
        let line = Addr::new(0x1000_0000).line();
        for write_first in [true, false] {
            let mut mc =
                MemoryController::new(small_cfg(), layout(), LogDrainMode::KeepUntilCommit);
            let read = McRequest::Read { line, req_id: 7 };
            if write_first {
                mc.submit(writeback(0, 99, 1), 52);
                mc.submit(read, 52);
            } else {
                mc.submit(read, 52);
                mc.submit(writeback(0, 99, 1), 52);
            }
            let (events, _) = run_until_quiescent(&mut mc, 0);
            let (value, at) = events
                .iter()
                .find_map(|e| match e {
                    McEvent::ReadDone { req_id: 7, data, at } => Some((data[0], *at)),
                    _ => None,
                })
                .expect("read completion");
            if write_first {
                assert_eq!((value, at), (99, 52 + mc.timing.burst()), "forwarded");
            } else {
                assert_eq!(value, 0, "the read went to NVMM ahead of the write-back");
                assert!(at > 100, "an NVMM read takes ~170 cycles, got {at}");
            }
        }
    }

    /// `DrainCoreLogs` forces only the LPQ entries accepted before it, so
    /// a log flush due in the same tick is forced only if it arrived first.
    #[test]
    fn log_save_forces_only_the_log_flushes_that_arrived_before_it() {
        let lay = layout();
        for flush_first in [true, false] {
            let mut mc =
                MemoryController::new(small_cfg(), lay.clone(), LogDrainMode::KeepUntilCommit);
            let drain = McRequest::DrainCoreLogs { core: CoreId::new(0) };
            if flush_first {
                flush_entry(&mut mc, &lay, 0, Addr::new(0x1000_0000), 1, 0, 52);
                mc.submit(drain, 52);
            } else {
                mc.submit(drain, 52);
                flush_entry(&mut mc, &lay, 0, Addr::new(0x1000_0000), 1, 0, 52);
            }
            let (events, _) = run_until_quiescent(&mut mc, 0);
            assert!(mc.is_quiescent());
            assert!(events.iter().any(|e| matches!(e, McEvent::LogFlushAck { at: 52, .. })));
            assert_eq!(
                mc.stats().nvmm_log_writes,
                u64::from(flush_first),
                "flush first: {flush_first}"
            );
            let durable = LogEntry::read_from(mc.nvmm(), lay.log_slot(ThreadId::new(0), 0));
            assert_eq!(durable.is_some(), flush_first);
        }
    }

    /// A first tick long after the submissions (as the liveness
    /// properties drive the controller) counts the full-queue rejections
    /// of the requests that tick and its successors turn away.
    #[test]
    fn a_late_first_tick_counts_rejections_from_that_tick() {
        let lay = layout();
        let cfg = MemConfig {
            read_queue_entries: 2,
            wpq_entries: 2,
            lpq_entries: 2,
            ..MemConfig::default()
        };
        let mut mc = MemoryController::new(cfg, lay.clone(), LogDrainMode::DrainAlways);
        for i in 0..12u64 {
            let at = (i * 7) % 40;
            match i % 3 {
                0 => mc.submit(writeback(i % 5, i, i), at),
                1 => {
                    let grain = Addr::new(0x1000_0000 + i * 32);
                    flush_entry(&mut mc, &lay, i as usize, grain, 1, i, at);
                }
                _ => {
                    let line = Addr::new(0x1000_0000 + i * 64).line();
                    mc.submit(McRequest::Read { line, req_id: i }, at);
                }
            }
        }
        let (_, end) = run_until_quiescent(&mut mc, 500);
        assert!(mc.is_quiescent(), "quiesced by {end}");
        // Recorded from the per-retry intake walk this closed form replaced.
        assert_eq!((mc.stats().wpq_full_rejections, mc.stats().lpq_full_rejections), (1027, 2999));
    }

    /// The commit gate holds an ATOM commit whose last log entry has
    /// drained to NVMM while data write-backs fill the WPQ. A twin
    /// controller without the commit shows that the held commit adds no
    /// persist event and no wake-up of its own; the commit completes,
    /// its marker durable, in the tick the WPQ takes the marker rewrite.
    #[test]
    fn a_blocked_atom_commit_waits_on_the_wpq_gate() {
        let lay = layout();
        let (core, tx) = (CoreId::new(0), TxId::new(1));
        let slot = lay.log_slot(ThreadId::new(0), 0);
        let build = || {
            let mut mc = MemoryController::new(small_cfg(), lay.clone(), LogDrainMode::DrainAlways);
            mc.set_record_persist_events(true);
            let grain = Addr::new(0x1000_0000);
            mc.submit(McRequest::AtomLog { grain, old_data: Some([1; 4]), core, tx, log_id: 0 }, 0);
            // A log-kind WPQ entry always drains: the last entry escapes.
            let (_, end) = run_until_quiescent(&mut mc, 0);
            assert_eq!(mc.stats().nvmm_log_writes, 1);
            for i in 0..8 {
                mc.submit(writeback(i + 1, i, i), end + 1);
            }
            (mc, end + 1)
        };
        let (mut mc, start) = build();
        let (mut twin, _) = build();
        mc.submit(McRequest::TxEnd { core, tx }, start);
        let tx_end_done = |events: &[McEvent]| {
            events.iter().find_map(|e| match e {
                McEvent::TxEndDone { at, .. } => Some(*at),
                _ => None,
            })
        };
        let (mut now, mut ticks) = (start, 0);
        loop {
            mc.tick(now);
            twin.tick(now);
            ticks += 1;
            twin.drain_events();
            assert_eq!(tx_end_done(&mc.drain_events()), None, "committed at {now}");
            if !mc.commit_blocked(core, tx) {
                break;
            }
            assert_eq!(mc.persist_seq(), twin.persist_seq(), "a persist event at {now}");
            let next = mc.next_event_cycle(now + 1);
            assert_eq!(next, twin.next_event_cycle(now + 1), "the commit woke the probe at {now}");
            now = next.expect("write-backs are in flight");
        }
        // A write-back drained to NVMM at `now`: the next tick commits.
        assert_eq!(mc.next_event_cycle(now + 1), Some(now + 1));
        let done_at = now + 1;
        mc.tick(done_at);
        assert_eq!(tx_end_done(&mc.drain_events()), Some(done_at));
        assert!(ticks < done_at - start, "{ticks} ticks over a {}-cycle wait", done_at - start);
        let rewrite = mc.persist_timeline().last().copied().expect("the marker rewrite");
        assert_eq!(rewrite.kind, PersistEventKind::WpqAccept { line: slot.line() });
        assert_eq!(rewrite.at, done_at);
        let durable =
            |img: &WordImage| LogEntry::read_from(img, slot).is_some_and(|e| e.commit_marker);
        assert!(durable(&mc.crash_image()), "the marker is durable on acceptance");
        run_until_quiescent(&mut mc, done_at + 1);
        assert!(durable(mc.nvmm()));
    }

    /// `log-save` after a commit: the forced drain writes the retained
    /// commit marker to NVMM, and the controller quiesces.
    #[test]
    fn log_save_after_a_commit_writes_the_retained_marker() {
        let lay = layout();
        let mut mc = MemoryController::new(small_cfg(), lay.clone(), LogDrainMode::KeepUntilCommit);
        flush_entry(&mut mc, &lay, 0, Addr::new(0x1000_0000), 1, 0, 0);
        mc.submit(McRequest::TxEnd { core: CoreId::new(0), tx: TxId::new(1) }, 5);
        mc.submit(McRequest::DrainCoreLogs { core: CoreId::new(0) }, 10);
        let (_, end) = run_until_quiescent(&mut mc, 0);
        assert!(mc.is_quiescent(), "the forced marker never drained (stopped at {end})");
        assert_eq!(mc.next_event_cycle(end + 1), None);
        assert_eq!(mc.stats().nvmm_log_writes, 1);
        let marker = LogEntry::read_from(mc.nvmm(), lay.log_slot(ThreadId::new(0), 0))
            .expect("marker written to NVMM");
        assert!(marker.commit_marker);
    }
}
