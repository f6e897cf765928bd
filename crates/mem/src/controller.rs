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
use proteus_types::FastSet;
use proteus_types::{CoreId, ThreadId, TxId};
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

    /// Whether the arbiter may issue this entry under the WPQ rule
    /// `drain`. Log-kind entries (ATOM entries, truncation writes, SW
    /// log write-backs) drain regardless of the watermark: ATOM's log
    /// lives in NVMM, not in the controller.
    fn issuable(&self, drain: bool) -> bool {
        !self.in_service && (drain || self.kind != WriteKind::Data)
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
    /// Whether the arbiter may issue this entry under the LPQ rule
    /// `drain`. Forced entries (context switch) always drain; retained
    /// commit markers never do.
    fn issuable(&self, drain: bool) -> bool {
        !self.in_service && !self.retained_marker && (drain || self.must_drain)
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
    /// Whether every LPQ entry may issue, not only forced ones, given
    /// whether any WPQ entry is issuable.
    fn lpq(&self, wpq_has_issuable: bool) -> bool {
        match self.mode {
            LogDrainMode::KeepUntilCommit => self.lpq_pressure,
            // NoLWR: log entries drain like ordinary writes. They already
            // sit at the lowest arbiter priority (after reads and WPQ),
            // so no further gating — gating on an idle read queue starves
            // the LPQ under multicore read traffic and backpressures
            // dispatch, which the paper's NoLWR does not exhibit.
            LogDrainMode::DrainAlways => !wpq_has_issuable,
        }
    }
}

/// Last log entry observed per core, used to guarantee commit-marker
/// durability when the entry already left the LPQ.
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

    intake: VecDeque<(Cycle, McRequest)>,
    read_queue: Vec<ReadEntry>,
    wpq: Vec<WpqEntry>,
    /// Index over `wpq`: the lines of its coalescable entries (data
    /// write-backs not yet in service; at most one per line). Writeback
    /// intake retries probe the WPQ for a coalescing target every cycle
    /// while the queue is full, so the probe must not be a queue scan.
    wpq_coalescable: FastSet<LineAddr>,
    /// Entries `intake[..blocked_prefix]` are due write-backs (or ATOM
    /// log appends) that were rejected by a full WPQ and provably stay
    /// rejected while the WPQ remains full: a new coalescing target can
    /// only appear via a push, and a push needs a free slot. The prefix
    /// lets `process_intake` charge their per-cycle rejections in bulk
    /// instead of re-checking hundreds of parked entries every cycle.
    /// Reset to zero whenever the WPQ has room (or a tracer is attached,
    /// which needs the per-entry reject events). Purely an accelerator:
    /// never hashed into the machine state.
    blocked_prefix: usize,
    /// The cycle after the last tick. A tick at a later cycle follows a
    /// fast-forward skip, whose intake rejections it credits first.
    ticked_through: Cycle,
    lpq: Vec<LpqEntry>,
    /// Background truncation/marker writes waiting for WPQ space.
    pending_writes: VecDeque<(LineAddr, [u64; 8], WriteKind)>,
    pending_pcommits: Vec<u64>,
    pending_tx_ends: Vec<(CoreId, TxId)>,
    in_flight: Vec<(Cycle, InFlight)>,
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
            intake: VecDeque::new(),
            blocked_prefix: 0,
            ticked_through: 0,
            read_queue: Vec::new(),
            wpq: Vec::new(),
            wpq_coalescable: FastSet::default(),
            lpq: Vec::new(),
            pending_writes: VecDeque::new(),
            pending_pcommits: Vec::new(),
            pending_tx_ends: Vec::new(),
            in_flight: Vec::new(),
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

    /// Collected statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Submits a request that arrives at the controller at `deliver_at`.
    pub fn submit(&mut self, request: McRequest, deliver_at: Cycle) {
        self.intake.push_back((deliver_at, request));
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
        self.intake.is_empty()
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
            let mapped = match kind {
                PersistEventKind::WpqAccept { .. } => PersistKind::WpqAccept,
                PersistEventKind::WpqDrain { .. } => PersistKind::WpqDrain,
                PersistEventKind::LpqAccept { .. } => PersistKind::LpqAccept,
                PersistEventKind::LpqDrain { .. } => PersistKind::LpqDrain,
                PersistEventKind::LogClear { .. } => PersistKind::LogClear,
                PersistEventKind::MarkerStamp { .. } => PersistKind::MarkerStamp,
                PersistEventKind::MarkerDrop { .. } => PersistKind::MarkerDrop,
            };
            self.tracer.emit(self.clock, TraceEventKind::Persist(mapped));
        }
        if self.record_persist {
            self.timeline.push(PersistEvent { seq: self.persist_seq, at: self.clock, kind });
        }
    }

    /// Advances the controller to CPU cycle `now`.
    ///
    /// `now` need not increase by exactly one between calls: when the
    /// engine fast-forwards over a quiescent window, the first tick after
    /// the jump first credits the window's intake rejections and replays
    /// its memory-clock edges against the window's (frozen) state, then
    /// runs this cycle's phases as usual.
    pub fn tick(&mut self, now: Cycle) {
        self.clock = now;
        if self.tracer.is_enabled() {
            self.tracer.maybe_sample(
                now,
                &[
                    (QueueId::ReadQ, self.read_queue.len() as u32),
                    (QueueId::Wpq, self.wpq.len() as u32),
                    (QueueId::Lpq, self.lpq.len() as u32),
                ],
            );
        }
        self.credit_skipped_rejections(now);
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
        self.stats.wpq_peak_occupancy = self.stats.wpq_peak_occupancy.max(self.wpq.len());
        self.stats.lpq_peak_occupancy = self.stats.lpq_peak_occupancy.max(self.lpq.len());
    }

    /// Credits the rejections of the cycles skipped since the last tick.
    ///
    /// The engine skips a window only while every due intake entry is
    /// rejected (see [`MemoryController::next_event_cycle`]), and the
    /// window's state is frozen, so each such entry was rejected once per
    /// skipped cycle from the one it fell due in:
    /// `now − max(at, first skipped cycle)` times. The count is per entry
    /// because two skips can chain with no tick between them, letting an
    /// entry fall due inside the window: `run_until` may stop exactly on
    /// a skip target and the next call skips again. Crediting here rather
    /// than in the engine's skip keeps the count right for every caller
    /// that ticks the controller after a jump, including step loops that
    /// tick it themselves.
    fn credit_skipped_rejections(&mut self, now: Cycle) {
        let first_skipped = std::mem::replace(&mut self.ticked_through, now + 1);
        if now <= first_skipped {
            return;
        }
        for i in 0..self.intake.len() {
            let (at, ref req) = self.intake[i];
            let skipped = now.saturating_sub(at.max(first_skipped));
            if skipped > 0 {
                if let Some(queue) = self.intake_reject(req) {
                    self.count_rejections(queue, skipped);
                }
            }
        }
    }

    /// Charges `n` rejections to `queue`'s counter (the read queue has
    /// none).
    fn count_rejections(&mut self, queue: QueueId, n: u64) {
        match queue {
            QueueId::Wpq => self.stats.wpq_full_rejections += n,
            QueueId::Lpq => self.stats.lpq_full_rejections += n,
            _ => {}
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
    /// returned edge). A candidate whose bank is free by `next_mem_tick`
    /// ends the scan: no answer can be earlier.
    fn next_issue_boundary(&self) -> Option<Cycle> {
        let floor = self.next_mem_tick;
        let mut best: Option<Cycle> = None;
        let mut consider = |loc: Loc| {
            let busy_until = self.banks[loc.bank].busy_until();
            best = Some(best.map_or(busy_until, |b: Cycle| b.min(busy_until)));
            busy_until <= floor
        };
        // 1. Reads not yet dispatched to a bank.
        for r in self.read_queue.iter().filter(|r| !r.dispatched) {
            if consider(r.loc.checked(&self.map, r.line)) {
                return Some(floor);
            }
        }
        // 2. WPQ and 3. LPQ entries, under the rules the next arbiter
        // call will compute from the current state.
        let rules = self.drain_rules();
        let mut wpq_has_issuable = false;
        for e in self.wpq.iter().filter(|e| e.issuable(rules.wpq)) {
            wpq_has_issuable = true;
            if consider(e.loc.checked(&self.map, e.line)) {
                return Some(floor);
            }
        }
        let drain_lpq = rules.lpq(wpq_has_issuable);
        for e in self.lpq.iter().filter(|e| e.issuable(drain_lpq)) {
            if consider(e.loc.checked(&self.map, e.slot_line)) {
                return Some(floor);
            }
        }
        best.map(|b| Self::edge_of(Self::mem_tick_at_or_after(b).max(self.mem_ticks)))
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
        self.intake.len().hash(h);
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

    fn process_intake(&mut self, now: Cycle) {
        // Walk the deque in place. A due entry that is certainly blocked
        // (its queue is full and nothing lets it cut in) stays where it
        // sits, paying only the same reject bookkeeping `try_accept`
        // would; everything else is pulled out and offered to
        // `try_accept`, which remains the sole authority on acceptance.
        // The in-place walk matters: a blocked machine retries every due
        // entry every cycle, and rotating ~100-byte requests through the
        // deque for each retry dominated whole-run wall time.
        //
        // On top of the walk sits the `blocked_prefix` bulk path. While
        // the WPQ is full, no new coalescing target can appear (a push
        // needs a free slot) and no parked write-back can be accepted,
        // so a prefix of already-rejected write-backs needs no
        // re-examination at all — only its per-cycle rejection stats.
        // Any cycle that starts with WPQ headroom resets the prefix and
        // walks everything exactly.
        let wpq_pinned = self.wpq.len() >= self.cfg.wpq_entries && !self.tracer.is_enabled();
        if !wpq_pinned {
            self.blocked_prefix = 0;
        } else {
            debug_assert!(self.blocked_prefix <= self.intake.len());
            debug_assert!(self.intake.iter().take(self.blocked_prefix).all(|(at, req)| {
                *at <= now
                    && match req {
                        McRequest::WriteBack { line, .. } => !self.wpq_coalescable.contains(line),
                        McRequest::AtomLog { .. } => true,
                        _ => false,
                    }
            }));
            // Each parked entry would have been offered to `try_accept`
            // this cycle and rejected with exactly one WPQ-full tick.
            self.stats.wpq_full_rejections += self.blocked_prefix as u64;
        }
        let mut i = self.blocked_prefix;
        // The prefix may grow only while it stays contiguous with the
        // rejections seen during this walk.
        let mut extending = wpq_pinned;
        while i < self.intake.len() {
            let (at, ref req) = self.intake[i];
            if at > now {
                // Delivery cycles are monotone in arrival order, so
                // nothing beyond this point is due either; but the walk
                // stays correct even if a caller breaks that, so keep
                // scanning entry by entry.
                extending = false;
                i += 1;
                continue;
            }
            if let Some(queue) = self.intake_reject(req) {
                // The same reject bookkeeping `try_accept` does.
                self.count_rejections(queue, 1);
                self.tracer.emit(now, TraceEventKind::Reject { queue });
                // Only WPQ rejections (write-backs and ATOM appends) may
                // join the prefix.
                if extending && i == self.blocked_prefix && queue == QueueId::Wpq {
                    self.blocked_prefix += 1;
                } else {
                    extending = false;
                }
                i += 1;
                continue;
            }
            extending = false;
            let (at, req) = self.intake.remove(i).expect("index in range");
            if let Err(req) = self.try_accept(req, now) {
                // The pre-filter said "maybe"; `try_accept` said no and
                // already recorded the rejection. Put the entry back in
                // its slot so the retry order matches the rotate-based
                // implementation exactly.
                debug_assert!(false, "in-place intake pre-filter missed a reject condition");
                self.intake.insert(i, (at, req));
                i += 1;
            }
        }
    }

    /// The queue that would reject `req` if it were offered now, or
    /// `None` if [`MemoryController::try_accept`] would take it. A pure
    /// mirror of `try_accept`'s reject conditions, shared by the intake
    /// walk, the fast-forward probe and the skipped-window credit so the
    /// three cannot disagree.
    fn intake_reject(&self, req: &McRequest) -> Option<QueueId> {
        let wpq_full = self.wpq.len() >= self.cfg.wpq_entries;
        match req {
            McRequest::Read { line, .. } => (self.read_queue.len() >= self.cfg.read_queue_entries
                && !self.wpq.iter().any(|e| e.line == *line))
            .then_some(QueueId::ReadQ),
            // `wpq_coalescable` only ever holds data-kind lines, so a hit
            // implies `classify(line) == Data` and a guaranteed coalesce;
            // a miss with a full WPQ rejects data and log write-backs
            // alike.
            McRequest::WriteBack { line, .. } => {
                (wpq_full && !self.wpq_coalescable.contains(line)).then_some(QueueId::Wpq)
            }
            McRequest::LogFlush { .. } => {
                (self.lpq.len() >= self.cfg.lpq_entries).then_some(QueueId::Lpq)
            }
            McRequest::AtomLog { .. } => wpq_full.then_some(QueueId::Wpq),
            // TxEnd, Pcommit, and DrainCoreLogs are always accepted.
            McRequest::TxEnd { .. }
            | McRequest::Pcommit { .. }
            | McRequest::DrainCoreLogs { .. } => None,
        }
    }

    fn try_accept(&mut self, req: McRequest, now: Cycle) -> Result<(), McRequest> {
        match req {
            McRequest::Read { line, req_id } => {
                // Forward from the WPQ: the newest matching entry wins.
                if let Some(e) = self.wpq.iter().rev().find(|e| e.line == line) {
                    self.events.push(McEvent::ReadDone {
                        req_id,
                        data: e.data,
                        at: now + self.timing.burst(),
                    });
                    return Ok(());
                }
                if self.read_queue.len() >= self.cfg.read_queue_entries {
                    self.tracer.emit(now, TraceEventKind::Reject { queue: QueueId::ReadQ });
                    return Err(McRequest::Read { line, req_id });
                }
                self.read_queue.push(ReadEntry {
                    line,
                    loc: Loc::of(&self.map, line),
                    req_id,
                    arrived: now,
                    dispatched: false,
                });
                self.tracer.emit(
                    now,
                    TraceEventKind::Enqueue {
                        queue: QueueId::ReadQ,
                        occupancy: self.read_queue.len() as u32,
                    },
                );
                Ok(())
            }
            McRequest::WriteBack { line, data, ack_id } => {
                if !self.insert_wpq(line, data, self.classify(line)) {
                    self.stats.wpq_full_rejections += 1;
                    self.tracer.emit(now, TraceEventKind::Reject { queue: QueueId::Wpq });
                    return Err(McRequest::WriteBack { line, data, ack_id });
                }
                if let Some(id) = ack_id {
                    self.events.push(McEvent::WritebackAck { ack_id: id, at: now });
                }
                Ok(())
            }
            McRequest::LogFlush { slot, words, core, tx, flush_id } => {
                if self.lpq.len() >= self.cfg.lpq_entries {
                    self.stats.lpq_full_rejections += 1;
                    self.tracer.emit(now, TraceEventKind::Reject { queue: QueueId::Lpq });
                    return Err(McRequest::LogFlush { slot, words, core, tx, flush_id });
                }
                // A new transaction's first entry retires the previous
                // transaction's retained commit marker (§4.3).
                let dropped_before = self.lpq.len();
                self.lpq.retain(|e| !(e.core == core && e.retained_marker && e.tx < tx));
                let dropped = dropped_before - self.lpq.len();
                self.stats.wpq_log_dropped += dropped as u64;
                if dropped > 0 {
                    self.persist_event(PersistEventKind::MarkerDrop { entries: dropped as u32 });
                }

                let seq = words[7];
                self.lpq.push(LpqEntry {
                    slot_line: slot.line(),
                    loc: Loc::of(&self.map, slot.line()),
                    words,
                    core,
                    tx,
                    seq,
                    retained_marker: false,
                    must_drain: false,
                    in_service: false,
                });
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
                Ok(())
            }
            McRequest::AtomLog { grain, old_data, core, tx, log_id } => {
                // Check WPQ space up front: log entries never coalesce,
                // and a rejected request is retried, so the slot must
                // only be allocated once acceptance is certain.
                if self.wpq.len() >= self.cfg.wpq_entries {
                    self.stats.wpq_full_rejections += 1;
                    self.tracer.emit(now, TraceEventKind::Reject { queue: QueueId::Wpq });
                    return Err(McRequest::AtomLog { grain, old_data, core, tx, log_id });
                }
                // Source-log optimisation: on a core-side cache miss the
                // controller reads the pre-store grain from its own
                // durable view (WPQ entries shadow the NVMM array).
                let data = old_data.unwrap_or_else(|| {
                    let line = grain.line();
                    let line_data = self
                        .wpq
                        .iter()
                        .rev()
                        .find(|e| e.line == line)
                        .map(|e| e.data)
                        .unwrap_or_else(|| self.nvmm.read_line(line));
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
                let (slot, seq) =
                    state.area.alloc().expect("ATOM hardware log area overflow; enlarge layout");
                let entry = proteus_core::entry::LogEntry::new(data, grain, tx, seq);
                let words = entry.encode_words();
                let accepted = self.insert_wpq(slot.line(), words, WriteKind::Log);
                debug_assert!(accepted, "space was checked above");
                let state = &mut self.atom[core.index()];
                state.tx_slots.push(slot.line());
                self.last_entry[core.index()] =
                    Some(LastEntry { tx, slot_line: slot.line(), words, seq });
                self.events.push(McEvent::AtomLogAck { log_id, at: now });
                Ok(())
            }
            McRequest::TxEnd { core, tx } => {
                self.pending_tx_ends.push((core, tx));
                Ok(())
            }
            McRequest::Pcommit { commit_id } => {
                self.pending_pcommits.push(commit_id);
                self.stats.pcommits += 1;
                Ok(())
            }
            McRequest::DrainCoreLogs { core } => {
                for e in &mut self.lpq {
                    if e.core == core {
                        e.must_drain = true;
                    }
                }
                Ok(())
            }
        }
    }

    fn classify(&self, line: LineAddr) -> WriteKind {
        if self.layout.log_area_owner(line.base()).is_some() {
            WriteKind::Log
        } else {
            WriteKind::Data
        }
    }

    fn insert_wpq(&mut self, line: LineAddr, data: LineData, kind: WriteKind) -> bool {
        debug_assert_eq!(
            self.wpq_coalescable.len(),
            self.wpq.iter().filter(|e| e.coalescable()).count(),
            "coalescable index out of sync with the WPQ"
        );
        // Coalesce onto an existing same-line data entry not yet in
        // service (normal write-back coalescing). The index keeps the
        // common full-queue retry (no coalescing target) off the queue
        // scan; a hit scans, but a hit also accepts the request.
        if kind == WriteKind::Data && self.wpq_coalescable.contains(&line) {
            let e = self
                .wpq
                .iter_mut()
                .find(|e| e.line == line && e.coalescable())
                .expect("indexed line has a coalescable entry");
            e.data = data;
            self.stats.wpq_inserts += 1;
            self.persist_event(PersistEventKind::WpqAccept { line });
            return true;
        }
        if self.wpq.len() >= self.cfg.wpq_entries {
            return false;
        }
        self.wpq.push(WpqEntry {
            line,
            loc: Loc::of(&self.map, line),
            data,
            kind,
            in_service: false,
        });
        if kind == WriteKind::Data {
            self.wpq_coalescable.insert(line);
        }
        self.stats.wpq_inserts += 1;
        self.persist_event(PersistEventKind::WpqAccept { line });
        self.tracer.emit(
            self.clock,
            TraceEventKind::Enqueue { queue: QueueId::Wpq, occupancy: self.wpq.len() as u32 },
        );
        true
    }

    fn feed_pending_writes(&mut self) {
        while let Some((line, words, kind)) = self.pending_writes.front().copied() {
            if self.insert_wpq(line, words, kind) {
                self.pending_writes.pop_front();
            } else {
                break;
            }
        }
    }

    /// Commit-time work: flash clear, marker durability, ATOM truncation.
    fn resolve_tx_ends(&mut self, now: Cycle) {
        let pending = std::mem::take(&mut self.pending_tx_ends);
        for (core, tx) in pending {
            if self.finish_tx_end(core, tx) {
                self.events.push(McEvent::TxEndDone { core, tx, at: now });
            } else {
                self.pending_tx_ends.push((core, tx));
            }
        }
    }

    /// Whether retrying the pending commit of `tx` on `core` would change
    /// nothing. `resolve_tx_ends` first tries a commit in the tick that
    /// accepts its tx-end, so a commit still pending is an ATOM commit
    /// whose marker write found the WPQ full: it reopened its log area
    /// for `tx`, which resets the area's per-transaction entry count. A
    /// retry repeats that failure and restores what it took apart as
    /// long as the WPQ is full and holds no stampable entry for the
    /// marker line.
    fn commit_retry_is_idle(&self, core: CoreId, tx: TxId) -> bool {
        self.atom[core.index()].area.current_tx() == Some(tx)
            && self.wpq.len() >= self.cfg.wpq_entries
            && self.last_entry[core.index()].is_some_and(|last| {
                last.tx == tx
                    && !self.wpq.iter().any(|e| {
                        e.line == last.slot_line && e.kind == WriteKind::Log && !e.in_service
                    })
            })
    }

    fn finish_tx_end(&mut self, core: CoreId, tx: TxId) -> bool {
        // ATOM: ensure marker durability and truncate the log with
        // per-entry invalidation writes.
        let atom_slots = {
            let state = &mut self.atom[core.index()];
            if state.area.current_tx() == Some(tx) {
                state.area.end_tx().expect("open tx");
                Some(std::mem::take(&mut state.tx_slots))
            } else {
                None
            }
        };
        if let Some(slots) = atom_slots {
            if let Some(last) = self.last_entry[core.index()] {
                if last.tx == tx {
                    // Commit marker must be durable before the commit
                    // completes: stamp it onto the WPQ-resident last
                    // entry, or write it out if the entry escaped.
                    let stamped = self
                        .wpq
                        .iter_mut()
                        .find(|e| {
                            e.line == last.slot_line && e.kind == WriteKind::Log && !e.in_service
                        })
                        .map(|e| e.data[6] |= FLAG_COMMIT_MARKER)
                        .is_some();
                    if stamped {
                        self.persist_event(PersistEventKind::MarkerStamp {
                            slot_line: last.slot_line,
                        });
                    }
                    if !stamped {
                        let mut words = last.words;
                        words[6] |= FLAG_COMMIT_MARKER;
                        if !self.insert_wpq(last.slot_line, words, WriteKind::Log) {
                            // Re-register the slots and retry next tick.
                            self.atom[core.index()].area.begin_tx(tx).expect("reopen");
                            self.atom[core.index()].tx_slots = slots;
                            return false;
                        }
                    }
                    // Truncation (§4.3): the MC's tracker clears entries
                    // that are still buffered; entries that already
                    // drained to NVMM must be invalidated manually one by
                    // one (a read plus a write each).
                    for slot in slots {
                        if slot == last.slot_line {
                            continue;
                        }
                        let before = self.wpq.len();
                        self.wpq.retain(|e| {
                            !(e.line == slot && e.kind == WriteKind::Log && !e.in_service)
                        });
                        if self.wpq.len() < before {
                            self.stats.wpq_log_dropped += 1;
                            self.persist_event(PersistEventKind::LogClear { entries: 1 });
                        } else {
                            self.stats.nvmm_reads += 1; // read-modify-write
                            let mut cleared = [0u64; 8];
                            cleared[6] = 0; // valid bit off
                            self.pending_writes.push_back((
                                slot,
                                cleared,
                                WriteKind::LogInvalidate,
                            ));
                        }
                    }
                }
            }
            return true;
        }

        // Proteus: flash clear this transaction's LPQ entries, retaining
        // the commit marker on the last one.
        let last = self.last_entry[core.index()];
        match self.drain_mode {
            LogDrainMode::KeepUntilCommit => {
                let before = self.lpq.len();
                let last_seq = last.filter(|l| l.tx == tx).map(|l| l.seq);
                self.lpq.retain(|e| {
                    !(e.core == core && e.tx == tx && !e.in_service && Some(e.seq) != last_seq)
                });
                let cleared = before - self.lpq.len();
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
                if let Some(l) = last.filter(|l| l.tx == tx) {
                    if let Some(e) =
                        self.lpq.iter_mut().find(|e| e.core == core && e.tx == tx && e.seq == l.seq)
                    {
                        e.words[6] |= FLAG_COMMIT_MARKER;
                        e.retained_marker = true;
                        let slot_line = e.slot_line;
                        self.persist_event(PersistEventKind::MarkerStamp { slot_line });
                    } else {
                        // Last entry already escaped to NVMM: rewrite it
                        // there with the marker set.
                        let mut words = l.words;
                        words[6] |= FLAG_COMMIT_MARKER | FLAG_VALID;
                        self.pending_writes.push_back((
                            l.slot_line,
                            words,
                            WriteKind::LogInvalidate,
                        ));
                    }
                }
                true
            }
            LogDrainMode::DrainAlways => {
                // No removal; only set the marker on the last entry.
                if let Some(l) = last.filter(|l| l.tx == tx) {
                    if let Some(e) = self
                        .lpq
                        .iter_mut()
                        .find(|e| e.core == core && e.tx == tx && e.seq == l.seq && !e.in_service)
                    {
                        e.words[6] |= FLAG_COMMIT_MARKER;
                        let slot_line = e.slot_line;
                        self.persist_event(PersistEventKind::MarkerStamp { slot_line });
                    } else {
                        let mut words = l.words;
                        words[6] |= FLAG_COMMIT_MARKER | FLAG_VALID;
                        self.pending_writes.push_back((
                            l.slot_line,
                            words,
                            WriteKind::LogInvalidate,
                        ));
                    }
                }
                true
            }
        }
    }

    fn resolve_pcommits(&mut self, now: Cycle) {
        if self.pending_pcommits.is_empty() {
            return;
        }
        let drained = self.wpq.is_empty() && self.pending_writes.is_empty();
        if drained {
            for commit_id in std::mem::take(&mut self.pending_pcommits) {
                self.events.push(McEvent::PcommitDone { commit_id, at: now });
            }
        }
    }

    fn complete_in_flight(&mut self, now: Cycle) {
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 > now {
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
    fn schedule_command(&mut self, now: Cycle) {
        // 1. Oldest undispatched read whose bank is idle.
        if let Some(r) = self.read_queue.iter_mut().find(|r| {
            !r.dispatched && self.banks[r.loc.checked(&self.map, r.line).bank].is_idle(now)
        }) {
            r.dispatched = true;
            let done = self.banks[r.loc.bank].start_read(r.loc.row, now, &self.timing);
            self.stats.nvmm_reads += 1;
            self.in_flight.push((done, InFlight::Read { req_id: r.req_id }));
            return;
        }

        // 2. Oldest issuable WPQ entry whose bank is idle. The same pass
        // learns whether any WPQ entry is issuable, which the LPQ rule
        // needs.
        let rules = self.drain_rules();
        self.wpq_draining = rules.wpq_draining;
        let mut wpq_has_issuable = false;
        let mut pick = None;
        for (i, e) in self.wpq.iter().enumerate().filter(|(_, e)| e.issuable(rules.wpq)) {
            wpq_has_issuable = true;
            if self.banks[e.loc.checked(&self.map, e.line).bank].is_idle(now) {
                pick = Some(i);
                break;
            }
        }
        if let Some(i) = pick {
            let e = &mut self.wpq[i];
            e.in_service = true;
            if e.kind == WriteKind::Data {
                self.wpq_coalescable.remove(&e.line);
            }
            let done = self.banks[e.loc.bank].start_write(e.loc.row, now, &self.timing);
            self.in_flight.push((done, InFlight::WpqWrite { index_line: e.line }));
            return;
        }

        // 3. Oldest issuable LPQ entry whose bank is idle.
        let drain_lpq = rules.lpq(wpq_has_issuable);
        if let Some(e) = self.lpq.iter_mut().find(|e| {
            e.issuable(drain_lpq)
                && self.banks[e.loc.checked(&self.map, e.slot_line).bank].is_idle(now)
        }) {
            e.in_service = true;
            let done = self.banks[e.loc.bank].start_write(e.loc.row, now, &self.timing);
            self.in_flight.push((done, InFlight::LpqWrite { index_line: e.slot_line, seq: e.seq }));
        }
    }
}

impl NextEvent for MemoryController {
    fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        // The cheap immediate-wake checks come first and return early:
        // `now` is already the floor, so nothing later can beat it, and
        // skipping the queue scans matters — this runs on every engine
        // probe.
        //
        // Undelivered events must reach the cores (normally drained by
        // the system right after each tick — this is a safety net).
        // A pending commit is skipped over only while its retry is idle.
        if !self.events.is_empty()
            || self.pending_tx_ends.iter().any(|&(core, tx)| !self.commit_retry_is_idle(core, tx))
        {
            return Some(now);
        }
        if !self.pending_pcommits.is_empty()
            && self.wpq.is_empty()
            && self.pending_writes.is_empty()
        {
            return Some(now);
        }
        if let Some((line, _, kind)) = self.pending_writes.front() {
            let fits = self.wpq.len() < self.cfg.wpq_entries
                || (*kind == WriteKind::Data && self.wpq_coalescable.contains(line));
            if fits {
                return Some(now);
            }
        }
        let mut best: Option<Cycle> = None;
        let wake = |at: Cycle, best: &mut Option<Cycle>| {
            let at = at.max(now);
            *best = Some(best.map_or(at, |b: Cycle| b.min(at)));
        };
        // A due intake entry is retried every cycle. A retry that a full
        // queue rejects changes nothing but that queue's rejection
        // counter, which the next tick credits for the skipped cycles;
        // any other due entry is accepted next tick. A future entry
        // wakes us at its delivery. The blocked prefix stays rejected
        // while the WPQ is full, so it needs no re-check.
        let known_blocked =
            if self.wpq.len() >= self.cfg.wpq_entries { self.blocked_prefix } else { 0 };
        for (deliver_at, req) in self.intake.range(known_blocked..) {
            if *deliver_at > now {
                wake(*deliver_at, &mut best);
            } else if self.intake_reject(req).is_none() {
                return Some(now);
            }
        }
        for (done, _) in &self.in_flight {
            wake(*done, &mut best);
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
}
