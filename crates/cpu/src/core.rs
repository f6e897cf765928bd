//! The cycle-level out-of-order core.
//!
//! The model reproduces the pipeline behaviours the paper's results hinge
//! on, with the Table 1 structural limits:
//!
//! * in-order dispatch (5-wide) into a 224-entry ROB, out-of-order
//!   completion, in-order retirement (5-wide);
//! * load/store queues (72/56 entries) with store-to-load forwarding;
//!   stores are *posted*: they retire into the store queue and release to
//!   the cache in order, subject to the write-ahead constraint;
//! * `clwb` executes after retirement, ordered behind older stores to the
//!   same line, and completes when the WPQ acknowledges it (ADR);
//! * `sfence`/`pcommit` gate retirement until all older persists are
//!   durable, and block dispatch of younger stores and PMEM operations;
//! * the Proteus structures: LR file, LogQ (program-order log-to
//!   assignment, concurrent flushes), LLT elision, `tx-end` handshake with
//!   the memory controller;
//! * the ATOM engine: a transactional store at the ROB head creates a log
//!   entry at the memory controller and *cannot retire* until the entry is
//!   acknowledged — the serialisation that costs ATOM its 12% extra
//!   front-end stalls (Fig. 7).

use crate::llt::Llt;
use crate::logq::{LogQ, LogRegFile};
use proteus_cache::{CacheAccess, LookupResult};
use proteus_core::entry::LogEntry;
use proteus_core::isa::{Trace, Uop};
use proteus_core::layout::AddressLayout;
use proteus_core::logarea::LogArea;
use proteus_core::pmem::LineData;
use proteus_core::scheme::registry::{self, CorePolicy};
use proteus_mem::{McEvent, McRequest};
use proteus_trace::{CommitWait, QueueId, TraceEventKind, Tracer, TrackDump, TxRecord};
use proteus_types::addr::{LineAddr, LogGrainAddr};
use proteus_types::clock::Cycle;
use proteus_types::config::{LoggingSchemeKind, SystemConfig};
use proteus_types::stats::{CoreStats, StallCause};
use proteus_types::{Addr, CoreId, FastMap, FastSet, SimError, ThreadId, TxId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One-way latency from the L3 miss point to the memory controller.
pub const MC_LINK_DELAY: Cycle = 10;
/// Path latency of a request that traverses the cache hierarchy first
/// (miss fetch, write-back, clwb flush): L3 lookup plus the link.
pub const MISS_PATH_DELAY: Cycle = 42 + MC_LINK_DELAY;
/// Path latency of an uncacheable request (log-flush, ATOM log, tx-end):
/// straight from the core across the chip to the controller, bypassing
/// the caches but not the interconnect (~25 cycles one way at the
/// Table 1 L3-MC bandwidth). The round trip is what delays an ATOM
/// store's retirement; Proteus overlaps it in the LogQ.
pub const UNCACHED_DELAY: Cycle = 25;

/// Encodes a per-core-unique correlation id into a globally unique one.
pub fn encode_id(core: CoreId, local: u64) -> u64 {
    ((core.raw() as u64) << 48) | (local & 0xFFFF_FFFF_FFFF)
}

/// Recovers the issuing core from a correlation id.
pub fn decode_core(id: u64) -> CoreId {
    CoreId::new((id >> 48) as u32)
}

/// Recovers the core-local part of a correlation id.
pub fn decode_local(id: u64) -> u64 {
    id & 0xFFFF_FFFF_FFFF
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FenceProgress {
    Waiting,
    Sent,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomProgress {
    NeedLine,
    WaitAck,
    Done,
}

#[derive(Debug, Clone)]
enum UopState {
    None,
    /// Load or log-load parked until it is the oldest incomplete load
    /// (pointer chasing).
    WaitDeps,
    /// sfence / pcommit / tx-end retirement gating.
    Fence(FenceProgress),
    /// ATOM store logging at the ROB head.
    Atom(AtomProgress),
    /// A `log-load` or `log-flush` the LLT elided (§4.2): it took no
    /// load-queue or LogQ entry.
    Elided,
}

#[derive(Debug)]
struct RobEntry {
    seq: u64,
    uop: Uop,
    completed: bool,
    state: UopState,
}

#[derive(Debug, Clone, Copy)]
struct StoreEntry {
    seq: u64,
    addr: Addr,
    value: u64,
    retired: bool,
}

/// A retired clwb; `ack_id` is set once it has performed and awaits the
/// controller's acknowledgement.
#[derive(Debug, Clone)]
struct PendingClwb {
    addr: Addr,
    ack_id: Option<u64>,
}

/// What sending a LogQ entry needs: its log register, its log-area entry
/// sequence number, its transaction, and the ROB seq of its `log-flush`
/// uop, which completes on the send.
#[derive(Debug, Clone, Copy)]
struct FlushMeta {
    lr: usize,
    entry_seq: u64,
    tx: TxId,
    uop_seq: u64,
}

#[derive(Debug, Default)]
struct MshrEntry {
    load_waiters: Vec<u64>,
    logload_waiters: Vec<(u64, usize)>, // (seq, lr)
}

/// A ready log flush buffered locally by the `disable_persist_ordering`
/// fault knob instead of being sent to the memory controller.
#[derive(Debug, Clone)]
struct HeldFlush {
    id: u64,
    slot: Addr,
    words: [u64; 8],
    tx: TxId,
}

/// Trace-only bookkeeping for the transaction currently in flight:
/// the raw material of its persist critical-path record. Maintained
/// only while a tracer is attached — pure observation, never consulted
/// by the pipeline.
#[derive(Debug)]
struct TxPath {
    tx: TxId,
    begin: Cycle,
    last_store: Option<Cycle>,
    commit_request: Option<Cycle>,
    wait: CommitWait,
}

/// What one cycle in which a stalled core is not ticked records: the
/// dispatch stall cause (`None` once no uop is left to dispatch),
/// whether a held `log-load`'s retry advances the LLT's LRU clock, and,
/// for the trace only, whether a blocked `tx-end` heads the ROB. See
/// [`Core::skip_credit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipCredit {
    stall: Option<StallCause>,
    llt_retry: bool,
    commit_wait: bool,
}

impl SkipCredit {
    /// Adds `n` cycles of this credit's dispatch stalls to `stats`.
    pub fn add_stalls(&self, stats: &mut CoreStats, n: u64) {
        if let Some(cause) = self.stall {
            stats.add_stall_cycles(cause, n);
        }
    }
}

/// A single out-of-order core executing one thread's trace.
#[derive(Debug)]
pub struct Core {
    id: CoreId,
    thread: ThreadId,
    /// Retirement/ordering gates from the scheme's registry descriptor.
    policy: CorePolicy,
    width: usize,
    rob_entries: usize,
    issueq_entries: usize,
    loadq_entries: usize,
    storeq_entries: usize,
    l1_latency: Cycle,

    trace: Trace,
    pc: usize,

    rob: VecDeque<RobEntry>,
    next_seq: u64,
    completions: BinaryHeap<Reverse<(Cycle, u64)>>,
    inflight_exec: usize,
    loads_in_rob: usize,

    storeq: VecDeque<StoreEntry>,
    stores_retired_seq: u64,
    /// Unreleased-store count per line (clwb ordering checks in O(1)).
    storeq_lines: FastMap<u64, u32>,
    /// Completion time of the most recent compute op: scalar application
    /// code is a serial dependency chain.
    last_compute_done: Cycle,

    pending_clwbs: Vec<PendingClwb>,
    fence_active: bool,

    llt: Llt,
    logq: LogQ,
    lrs: LogRegFile,
    logarea: LogArea,
    current_tx: Option<TxId>,
    flush_meta: FastMap<u64, FlushMeta>, // by LogQ id
    /// Fault-injection knob (see `ProteusHwConfig::disable_persist_ordering`):
    /// stores skip the write-ahead gate and ready flushes are buffered in
    /// `held_flushes` until the commit fence instead of being sent.
    persist_ordering_disabled: bool,
    held_flushes: Vec<HeldFlush>,

    atom_logged: FastSet<u64>,
    atom_acks_outstanding: usize,

    mshr: FastMap<u64, MshrEntry>,
    req_lines: FastMap<u64, LineAddr>,
    /// Dispatched loads, unelided log-loads and wait-values not yet
    /// complete. Only the oldest may issue from `WaitDeps`.
    incomplete_loads: std::collections::BTreeSet<u64>,
    next_local_id: u64,

    out: Vec<(Cycle, McRequest)>,
    /// Reusable eviction buffer for cache calls (no per-cycle allocation).
    wb_scratch: Vec<(LineAddr, LineData)>,
    /// Successful `wait-value` ticket acquires (contended workloads; the
    /// simulator merges these into the run's coherence statistics).
    lock_acquires: u64,
    stats: CoreStats,
    done_at: Option<Cycle>,
    /// The exception that stopped the core early (§4.1's log-area
    /// overflow), which `System::run` returns.
    fault: Option<SimError>,

    tracer: Tracer,
    tx_path: Option<TxPath>,
}

impl Core {
    /// Creates a core executing `trace` under `scheme`.
    pub fn new(
        id: CoreId,
        cfg: &SystemConfig,
        scheme: LoggingSchemeKind,
        layout: &AddressLayout,
        trace: Trace,
    ) -> Self {
        let thread = trace.thread;
        let policy = registry::descriptor(scheme).core;
        Core {
            id,
            thread,
            policy,
            width: cfg.cores.width,
            rob_entries: cfg.cores.rob_entries,
            issueq_entries: cfg.cores.issueq_entries,
            loadq_entries: cfg.cores.loadq_entries,
            storeq_entries: cfg.cores.storeq_entries,
            l1_latency: cfg.caches.l1d.latency,
            trace,
            pc: 0,
            // Structural queues never outgrow their Table 1 limits, so
            // sizing them up front removes every steady-state
            // reallocation from the per-cycle path (arena-style slabs).
            rob: VecDeque::with_capacity(cfg.cores.rob_entries),
            next_seq: 0,
            completions: BinaryHeap::with_capacity(cfg.cores.issueq_entries),
            inflight_exec: 0,
            loads_in_rob: 0,
            storeq: VecDeque::with_capacity(cfg.cores.storeq_entries),
            stores_retired_seq: 0,
            storeq_lines: FastMap::with_capacity_and_hasher(
                cfg.cores.storeq_entries,
                Default::default(),
            ),
            last_compute_done: 0,
            pending_clwbs: Vec::with_capacity(16),
            fence_active: false,
            llt: Llt::new(cfg.proteus.llt_entries, cfg.proteus.llt_ways),
            logq: LogQ::new(cfg.proteus.logq_entries),
            lrs: LogRegFile::new(cfg.proteus.log_registers),
            logarea: LogArea::new(thread, layout),
            current_tx: None,
            flush_meta: FastMap::with_capacity_and_hasher(
                cfg.proteus.logq_entries,
                Default::default(),
            ),
            persist_ordering_disabled: cfg.proteus.disable_persist_ordering && policy.proteus_hw,
            held_flushes: Vec::new(),
            atom_logged: FastSet::default(),
            atom_acks_outstanding: 0,
            mshr: FastMap::with_capacity_and_hasher(cfg.cores.loadq_entries, Default::default()),
            req_lines: FastMap::with_capacity_and_hasher(
                cfg.cores.loadq_entries,
                Default::default(),
            ),
            incomplete_loads: std::collections::BTreeSet::new(),
            next_local_id: 0,
            out: Vec::with_capacity(32),
            wb_scratch: Vec::with_capacity(8),
            lock_acquires: 0,
            stats: CoreStats::new(),
            done_at: None,
            fault: None,
            tracer: Tracer::disabled(),
            tx_path: None,
        }
    }

    /// Attaches a tracer (the system installs one per core when tracing
    /// is enabled; the default is the free disabled tracer).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Ring capacity of the attached tracer (0 when tracing is off) —
    /// lets tests assert the disabled path allocates nothing.
    pub fn trace_capacity(&self) -> usize {
        self.tracer.capacity()
    }

    /// Detaches everything the core's tracer captured (`None` when
    /// tracing is off).
    pub fn take_trace(&mut self) -> Option<TrackDump> {
        self.tracer.take_dump()
    }

    /// The core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// The thread whose trace this core executes.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Whether the trace has fully drained through the machine.
    pub fn is_done(&self) -> bool {
        self.done_at.is_some()
    }

    /// The exception that stopped the core before its trace ended, if
    /// one did: a transaction that overflowed its log area (§4.1). Such a
    /// core counts as done.
    pub fn fault(&self) -> Option<&SimError> {
        self.fault.as_ref()
    }

    /// Collected statistics (valid once done, but readable any time).
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Successful `wait-value` ticket-lock acquires (zero for
    /// share-nothing workloads).
    pub fn lock_acquires(&self) -> u64 {
        self.lock_acquires
    }

    /// Moves requests bound for the memory controller into `sink`,
    /// preserving order. Reuses `sink`'s allocation, so the per-cycle
    /// path allocates nothing.
    pub fn drain_requests_into(&mut self, sink: &mut Vec<(Cycle, McRequest)>) {
        sink.append(&mut self.out);
    }

    /// Forwards scratch-buffered cache evictions to the memory
    /// controller, in eviction order, and leaves the buffer empty (its
    /// allocation is retained for the next cache call).
    fn flush_writebacks(&mut self, now: Cycle) {
        for (wline, wdata) in self.wb_scratch.drain(..) {
            self.out.push((
                now + MISS_PATH_DELAY,
                McRequest::WriteBack { line: wline, data: wdata, ack_id: None },
            ));
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_local_id += 1;
        encode_id(self.id, self.next_local_id)
    }

    /// Forwards the newest unreleased store value for `addr`'s word among
    /// stores *older* than `before_seq` (program order matters: a reader
    /// must never observe its own or a younger store).
    fn forwarded_word(&self, addr: Addr, before_seq: u64) -> Option<u64> {
        let word = addr.raw() / 8;
        self.storeq
            .iter()
            .rev()
            .find(|s| s.seq < before_seq && s.addr.raw() / 8 == word)
            .map(|s| s.value)
    }

    /// Reads the architectural value of a grain as seen by the micro-op
    /// with sequence `before_seq`: line data overlaid with older
    /// unreleased stores.
    fn grain_with_overlay(
        &self,
        line_data: &LineData,
        grain: LogGrainAddr,
        before_seq: u64,
    ) -> [u64; 4] {
        let base = grain.base();
        std::array::from_fn(|i| {
            let addr = base.offset(i as u64 * 8);
            self.forwarded_word(addr, before_seq)
                .unwrap_or(line_data[(addr.line_offset() / 8) as usize])
        })
    }

    /// The lock word's value as this core would read it right now: the
    /// newest own unreleased store (a re-acquire can race its own release
    /// still sitting in the store queue), else the coherent cached view.
    /// `None` means no copy is cached anywhere — memory is then
    /// authoritative, because a release store never leaves the private
    /// caches without a coherent reader pulling it out.
    fn lock_word_visible<C: CacheAccess>(
        &self,
        addr: Addr,
        before_seq: u64,
        caches: &C,
    ) -> Option<u64> {
        if let Some(v) = self.forwarded_word(addr, before_seq) {
            return Some(v);
        }
        caches.peek(self.id, addr).map(|data| data[(addr.line_offset() / 8) as usize])
    }

    fn issue_fetch(&mut self, line: LineAddr, now: Cycle) {
        if self.mshr.contains_key(&line.index()) {
            return;
        }
        self.mshr.insert(line.index(), MshrEntry::default());
        let req_id = self.fresh_id();
        self.req_lines.insert(req_id, line);
        self.out.push((now + MISS_PATH_DELAY, McRequest::Read { line, req_id }));
    }

    /// Advances the core by one cycle. Consecutive calls may jump `now`
    /// forward past a window in which [`Core::next_event_cycle`] reported
    /// no possible progress; such skipped cycles must be credited through
    /// [`Core::credit_skipped_cycles`] to keep statistics exact.
    pub fn tick<C: CacheAccess>(&mut self, now: Cycle, caches: &mut C) {
        if self.done_at.is_some() {
            return;
        }
        if self.tracer.is_enabled() {
            self.tracer.sample(now, &self.queue_levels());
        }
        self.process_completions(now);
        self.issue_parked_load(now, caches);
        self.send_ready_flushes(now);
        self.retire(now, caches);
        self.release_stores(now, caches);
        self.process_clwbs(now, caches);
        self.dispatch(now, caches);
        self.check_done(now);
    }

    /// Delivers a memory-controller event (the surrounding system applies
    /// the response link latency before calling this).
    pub fn handle_event<C: CacheAccess>(&mut self, event: &McEvent, now: Cycle, caches: &mut C) {
        match event {
            McEvent::ReadDone { req_id, data, .. } => {
                let Some(line) = self.req_lines.remove(req_id) else {
                    return;
                };
                caches.fill(self.id, line, *data, &mut self.wb_scratch);
                self.flush_writebacks(now);
                if let Some(waiters) = self.mshr.remove(&line.index()) {
                    for seq in waiters.load_waiters {
                        self.complete_at(seq, now + self.l1_latency);
                    }
                    for (seq, lr) in waiters.logload_waiters {
                        let grain = self.lrs.grain(lr).expect("LR allocated");
                        let value = self.grain_with_overlay(data, grain, seq);
                        self.lrs.fill(lr, value);
                        self.complete_at(seq, now + self.l1_latency);
                    }
                }
            }
            McEvent::WritebackAck { ack_id, .. } => {
                self.pending_clwbs.retain(|c| c.ack_id != Some(*ack_id));
            }
            McEvent::LogFlushAck { flush_id, .. } => {
                let local = decode_local(*flush_id);
                self.logq.ack(local);
                self.flush_meta.remove(&local);
                self.tracer.emit(
                    now,
                    TraceEventKind::Dequeue {
                        queue: QueueId::LogQ,
                        occupancy: self.logq.len() as u32,
                    },
                );
            }
            McEvent::AtomLogAck { .. } => {
                self.atom_acks_outstanding = self.atom_acks_outstanding.saturating_sub(1);
                if let Some(head) = self.rob.front_mut() {
                    if let UopState::Atom(p @ AtomProgress::WaitAck) = &mut head.state {
                        *p = AtomProgress::Done;
                    }
                }
            }
            McEvent::TxEndDone { tx, .. } => {
                if let Some(head) = self.rob.front_mut() {
                    if let (Uop::TxEnd { tx: head_tx }, UopState::Fence(p)) =
                        (&head.uop, &mut head.state)
                    {
                        if head_tx == tx && *p == FenceProgress::Sent {
                            *p = FenceProgress::Done;
                        }
                    }
                }
            }
            McEvent::PcommitDone { .. } => {
                if let Some(head) = self.rob.front_mut() {
                    if let (Uop::Pcommit, UopState::Fence(p)) = (&head.uop, &mut head.state) {
                        if *p == FenceProgress::Sent {
                            *p = FenceProgress::Done;
                        }
                    }
                }
            }
        }
    }

    fn complete_at(&mut self, seq: u64, cycle: Cycle) {
        self.completions.push(Reverse((cycle, seq)));
    }

    fn rob_index(&self, seq: u64) -> Option<usize> {
        let front = self.rob.front()?.seq;
        let idx = seq.checked_sub(front)? as usize;
        (idx < self.rob.len()).then_some(idx)
    }

    fn process_completions(&mut self, now: Cycle) {
        while let Some(Reverse((cycle, seq))) = self.completions.peek().copied() {
            if cycle > now {
                break;
            }
            self.completions.pop();
            if let Some(idx) = self.rob_index(seq) {
                if !self.rob[idx].completed {
                    self.rob[idx].completed = true;
                    self.inflight_exec = self.inflight_exec.saturating_sub(1);
                    if matches!(
                        self.rob[idx].uop,
                        Uop::Load { .. } | Uop::LogLoad { .. } | Uop::WaitValue { .. }
                    ) {
                        self.incomplete_loads.remove(&seq);
                    }
                }
            }
        }
    }

    /// Issues the load-type uop `uop` (sequence `seq`: a `load`, a
    /// `log-load` or a `wait-value`) to the memory hierarchy, at dispatch
    /// or once a parked load's turn has come. A load or wait-value takes
    /// its word from an older unreleased store when one writes it.
    /// Otherwise the cache is probed: a hit completes after its latency,
    /// filling a log-load's register with the grain overlaid by older
    /// stores, and a miss fetches the line and waits in its MSHR entry.
    /// Returns the completion cycle, or `None` while the fetch is out.
    fn issue_load<C: CacheAccess>(
        &mut self,
        seq: u64,
        uop: Uop,
        now: Cycle,
        caches: &mut C,
    ) -> Option<Cycle> {
        let (addr, log_lr) = match uop {
            Uop::Load { addr, .. } | Uop::WaitValue { addr, .. } => (addr, None),
            Uop::LogLoad { lr, addr } => (addr, Some(lr.0 as usize)),
            _ => unreachable!("only loads issue"),
        };
        if log_lr.is_none() && self.forwarded_word(addr, seq).is_some() {
            return Some(now + self.l1_latency);
        }
        let done = match caches.load(self.id, addr, &mut self.wb_scratch) {
            LookupResult::Hit { latency, data } => {
                if let Some(lr) = log_lr {
                    let value = self.grain_with_overlay(&data, addr.log_grain(), seq);
                    self.lrs.fill(lr, value);
                }
                Some(now + latency)
            }
            LookupResult::Miss => {
                self.issue_fetch(addr.line(), now);
                let waiters = self.mshr.get_mut(&addr.line().index()).expect("fetch registered");
                match log_lr {
                    Some(lr) => waiters.logload_waiters.push((seq, lr)),
                    None => waiters.load_waiters.push(seq),
                }
                None
            }
        };
        self.flush_writebacks(now);
        done
    }

    /// Issues the parked load whose turn has come (the pointer-chasing
    /// serialisation). A load parks until every older load has completed,
    /// i.e. until it is the oldest incomplete load; issuing it keeps it
    /// incomplete, which holds every younger one. So only the oldest
    /// incomplete load can issue here, and only on the tick that
    /// completes the load ahead of it.
    fn issue_parked_load<C: CacheAccess>(&mut self, now: Cycle, caches: &mut C) {
        let Some(&seq) = self.incomplete_loads.first() else { return };
        let idx = self.rob_index(seq).expect("an incomplete load is in the ROB");
        let entry = &mut self.rob[idx];
        if !matches!(entry.state, UopState::WaitDeps) {
            return;
        }
        entry.state = UopState::None;
        let uop = entry.uop;
        if let Some(at) = self.issue_load(seq, uop, now, caches) {
            self.complete_at(seq, at);
        }
    }

    /// The log-flush send gate, shared by [`Core::send_ready_flushes`] and
    /// the sleep decision: the oldest unsent LogQ entry whose log register
    /// holds the log-load's data, as its id and log-to slot.
    fn next_ready_flush(&self) -> Option<(u64, Addr)> {
        self.logq
            .unsent()
            .find(|e| self.flush_meta.get(&e.id).is_some_and(|m| self.lrs.data(m.lr).is_some()))
            .map(|e| (e.id, e.slot))
    }

    /// Sends log flushes whose log-load data has arrived, in LogQ order.
    /// Flushes issue concurrently — the paper's key advantage over ATOM.
    fn send_ready_flushes(&mut self, now: Cycle) {
        while let Some((id, slot)) = self.next_ready_flush() {
            let FlushMeta { lr, entry_seq, tx, uop_seq } = self.flush_meta[&id];
            let grain = self.lrs.grain(lr).expect("LR allocated");
            let data = self.lrs.data(lr).expect("checked by the gate");
            // The flush has consumed the register value; the LR is "no
            // longer needed for detecting register dependences" (§4.2)
            // and recycles immediately — this is what makes 8 LRs enough.
            self.lrs.free(lr);
            let entry = LogEntry::new(data, grain.base(), tx, entry_seq);
            let words = entry.encode_words();
            if self.persist_ordering_disabled {
                // Broken-ordering knob: buffer the ready entry locally
                // ("defer the log to commit") instead of sending it. The
                // LogQ entry is marked sent but stays unacknowledged, so
                // the commit fence still waits for the eventual ack.
                self.flush_meta.remove(&id);
                self.logq.mark_sent(id);
                self.held_flushes.push(HeldFlush { id, slot, words, tx });
            } else {
                self.out.push((
                    now + UNCACHED_DELAY,
                    McRequest::LogFlush {
                        slot,
                        words,
                        core: self.id,
                        tx,
                        flush_id: encode_id(self.id, id),
                    },
                ));
                self.logq.mark_sent(id);
            }
            // The flush micro-op has executed; it may now retire. The
            // LogQ entry lives on until the ack. Nothing else completes
            // the uop, so it is still waiting in the ROB.
            debug_assert!(self.rob_index(uop_seq).is_some_and(|i| !self.rob[i].completed));
            self.complete_at(uop_seq, now + 1);
        }
        self.release_held_flushes(now);
    }

    /// With `disable_persist_ordering` set, buffered log flushes go out
    /// only once the transaction's commit fence is at the ROB head and
    /// every data write-back has been acknowledged durable — i.e. strictly
    /// *after* the stores they were supposed to precede, the classic
    /// write-ahead-logging violation. A full LogQ spills the oldest
    /// buffered flush early so oversized transactions still drain.
    fn release_held_flushes(&mut self, now: Cycle) {
        if self.held_flushes.is_empty() {
            return;
        }
        let fence_at_head = matches!(
            self.rob.front().map(|e| e.uop),
            Some(Uop::TxEnd { .. } | Uop::Sfence | Uop::Pcommit | Uop::LogSave)
        );
        let data_durable = self.pending_clwbs.is_empty() && self.storeq.iter().all(|s| !s.retired);
        if fence_at_head && data_durable {
            for h in std::mem::take(&mut self.held_flushes) {
                self.send_held_flush(h, now);
            }
        } else if !self.logq.has_space() {
            let h = self.held_flushes.remove(0);
            self.send_held_flush(h, now);
        }
    }

    fn send_held_flush(&mut self, h: HeldFlush, now: Cycle) {
        self.out.push((
            now + UNCACHED_DELAY,
            McRequest::LogFlush {
                slot: h.slot,
                words: h.words,
                core: self.id,
                tx: h.tx,
                flush_id: encode_id(self.id, h.id),
            },
        ));
    }

    fn persist_drained(&self) -> bool {
        // Every retired store released, every clwb acked, every log flush
        // acked, every ATOM log entry acked.
        self.storeq.iter().all(|s| !s.retired)
            && self.pending_clwbs.is_empty()
            && self.logq.is_empty()
            && self.atom_acks_outstanding == 0
    }

    /// Whether the trace has dispatched and everything it started has
    /// drained. [`Core::check_done`] finishes the core on it, and the
    /// sleep decision wakes the core for that tick.
    fn fully_drained(&self) -> bool {
        self.pc >= self.trace.uops.len()
            && self.rob.is_empty()
            && self.storeq.is_empty()
            && self.persist_drained()
    }

    /// The occupancy of each traced core queue. Trace-only.
    fn queue_levels(&self) -> [(QueueId, u32); 6] {
        [
            (QueueId::Rob, self.rob.len() as u32),
            (QueueId::LoadQ, self.loads_in_rob as u32),
            (QueueId::StoreQ, self.storeq.len() as u32),
            (QueueId::LogQ, self.logq.len() as u32),
            (QueueId::LogRegs, self.lrs.in_use() as u32),
            (QueueId::Llt, self.llt.len() as u32),
        ]
    }

    /// Attributes `n` blocked `tx-end` cycles to the first undrained
    /// persist category, mirroring [`Core::persist_drained`]'s clauses in
    /// the order the pipeline drains them. Trace-only.
    fn trace_commit_wait(&mut self, n: u64) {
        let Some(path) = self.tx_path.as_mut() else { return };
        let w = &mut path.wait;
        let category = if self.storeq.iter().any(|s| s.retired) {
            &mut w.store_release
        } else if !self.pending_clwbs.is_empty() {
            &mut w.clwb
        } else if !self.logq.is_empty() {
            &mut w.logq
        } else if self.atom_acks_outstanding > 0 {
            &mut w.atom
        } else {
            &mut w.mc_commit
        };
        *category += n;
    }

    /// Finalises the transaction's critical-path record at the durable
    /// point. Trace-only (`tx_path` is `None` unless a tracer is
    /// attached).
    fn trace_tx_durable(&mut self, tx: TxId, now: Cycle) {
        self.tracer.emit(now, TraceEventKind::Dequeue { queue: QueueId::Llt, occupancy: 0 });
        let Some(path) = self.tx_path.take() else { return };
        debug_assert_eq!(path.tx, tx, "tx path must belong to the committing transaction");
        self.tracer.emit(now, TraceEventKind::TxDurable { tx: tx.raw() });
        let begin = path.begin;
        let last_store = path.last_store.unwrap_or(begin);
        let commit_request = path.commit_request.unwrap_or(now);
        self.tracer.record_tx(TxRecord {
            tx: path.tx.raw(),
            core: self.id.raw(),
            begin,
            last_store,
            commit_request,
            durable: now,
            wait: path.wait,
        });
    }

    /// Retires up to `width` completed uops in order. Each head first
    /// passes [`Core::retire_blocked`]; the first it holds ends the
    /// cycle's retirement after [`Core::blocked_retire`].
    fn retire<C: CacheAccess>(&mut self, now: Cycle, caches: &mut C) {
        for _ in 0..self.width {
            let Some(head) = self.rob.front() else { break };
            if !head.completed {
                break;
            }
            if self.retire_blocked(head, caches) {
                self.blocked_retire();
                break;
            }
            let (seq, uop) = (head.seq, head.uop);
            let elided = matches!(head.state, UopState::Elided);
            let fence_waiting = matches!(head.state, UopState::Fence(FenceProgress::Waiting));
            match uop {
                Uop::Store { addr, .. } => {
                    if self.policy.atom_retirement
                        && self.current_tx.is_some()
                        && !self.atom_retire_ready(addr, now, caches)
                    {
                        break;
                    }
                    if let Some(s) = self.storeq.iter_mut().find(|s| s.seq == seq) {
                        s.retired = true;
                    }
                    self.stores_retired_seq = seq;
                    self.stats.stores += 1;
                    if let Some(path) = self.tx_path.as_mut() {
                        path.last_store = Some(now);
                    }
                    if self.tracer.is_enabled() && proteus_types::sharing::is_struct_lock(addr) {
                        self.tracer.emit(now, TraceEventKind::LockRelease { addr: addr.raw() });
                    }
                }
                Uop::Clwb { addr } => {
                    self.pending_clwbs.push(PendingClwb { addr, ack_id: None });
                    self.stats.clwbs += 1;
                }
                // A drained pcommit or tx-end first sends its request; the
                // gate then holds it until the controller's completion.
                Uop::Pcommit if fence_waiting => {
                    self.rob[0].state = UopState::Fence(FenceProgress::Sent);
                    let commit_id = self.fresh_id();
                    self.out.push((now + UNCACHED_DELAY, McRequest::Pcommit { commit_id }));
                    break;
                }
                Uop::TxEnd { tx } if fence_waiting => {
                    self.rob[0].state = UopState::Fence(FenceProgress::Sent);
                    self.out.push((now + UNCACHED_DELAY, McRequest::TxEnd { core: self.id, tx }));
                    if let Some(path) = self.tx_path.as_mut() {
                        path.commit_request = Some(now);
                        self.tracer.emit(now, TraceEventKind::TxCommitRequest { tx: tx.raw() });
                    }
                    break;
                }
                Uop::Sfence | Uop::Pcommit => {
                    self.fence_active = false;
                    self.stats.fences += 1;
                }
                Uop::TxEnd { tx } => {
                    self.llt.clear();
                    self.atom_logged.clear();
                    self.current_tx = None;
                    self.fence_active = false;
                    self.stats.transactions += 1;
                    self.trace_tx_durable(tx, now);
                }
                Uop::TxBegin { .. } | Uop::Compute { .. } => {}
                Uop::Load { .. } | Uop::WaitValue { .. } => {
                    self.loads_in_rob -= 1;
                    self.stats.loads += 1;
                }
                Uop::LogLoad { .. } => {
                    if !elided {
                        self.loads_in_rob -= 1;
                    }
                    self.stats.log_loads += 1;
                }
                Uop::LogFlush { .. } => {
                    self.stats.log_flushes += 1;
                    if elided {
                        self.stats.log_flushes_elided += 1;
                    }
                }
                Uop::LogSave => {
                    self.out
                        .push((now + UNCACHED_DELAY, McRequest::DrainCoreLogs { core: self.id }));
                    self.llt.clear();
                    self.fence_active = false;
                }
            }
            self.rob.pop_front();
            self.stats.uops_retired += 1;
        }
    }

    /// What a retire attempt [`Core::retire_blocked`] holds still does. An
    /// ATOM store's first attempt marks it `Atom(NeedLine)`, which
    /// [`Core::rob_full_cause`] reads to charge a full ROB to the log
    /// wait. A held `tx-end` charges the cycle to the trace's commit-wait
    /// split.
    fn blocked_retire(&mut self) {
        let head = self.rob.front_mut().expect("the gate saw a head");
        match (head.uop, &mut head.state) {
            (Uop::Store { .. }, s @ UopState::None) => *s = UopState::Atom(AtomProgress::NeedLine),
            (Uop::TxEnd { .. }, _) => self.trace_commit_wait(1),
            _ => {}
        }
    }

    /// Whether an unreleased store older than `before_seq` writes into
    /// `grain`: its pre-store value must fold that store in.
    fn older_store_to_grain(&self, grain: LogGrainAddr, before_seq: u64) -> bool {
        let base = grain.base();
        (0..4).any(|i| self.forwarded_word(base.offset(i * 8), before_seq).is_some())
    }

    /// ATOM: a transactional store at the ROB head may retire only once
    /// its grain's log entry is durable at the memory controller. Past
    /// [`Core::retire_blocked`], the store is logged already, acknowledged,
    /// or about to send its log entry (or fetch the line that entry's
    /// overlay needs).
    fn atom_retire_ready<C: CacheAccess>(
        &mut self,
        addr: Addr,
        now: Cycle,
        caches: &mut C,
    ) -> bool {
        let grain = addr.log_grain();
        if self.atom_logged.contains(&grain.index()) {
            return true;
        }
        let head = self.rob.front_mut().expect("caller checked");
        let head_seq = head.seq;
        if let UopState::Atom(AtomProgress::Done) = head.state {
            head.state = UopState::None;
            return true;
        }
        head.state = UopState::Atom(AtomProgress::NeedLine);
        // Any older unreleased store to this grain must be folded into the
        // pre-store value (it is architecturally older).
        let old_data = match caches.peek(self.id, addr) {
            Some(data) => Some(self.grain_with_overlay(&data, grain, head_seq)),
            None if self.older_store_to_grain(grain, head_seq) => {
                // Rare: the MC cannot see the in-flight stores, so fetch
                // the line and retry once it lands.
                self.issue_fetch(addr.line(), now);
                return false;
            }
            // Source-log optimisation: the MC reads the grain from its own
            // WPQ/NVMM view — no core-side fetch.
            None => None,
        };
        let log_id = self.fresh_id();
        let tx = self.current_tx.expect("in transaction");
        self.out.push((
            now + UNCACHED_DELAY,
            McRequest::AtomLog { grain: grain.base(), old_data, core: self.id, tx, log_id },
        ));
        self.atom_acks_outstanding += 1;
        self.atom_logged.insert(grain.index());
        self.rob[0].state = UopState::Atom(AtomProgress::WaitAck);
        self.stats.atom_log_entries += 1;
        false
    }

    /// The store-release gate, shared by [`Core::release_stores`] and the
    /// sleep decision. The store-queue head moves this cycle once it has
    /// retired and the write-ahead rule no longer holds it: it releases
    /// into its resident line, or issues the write-allocate fetch if none
    /// is in flight. Returns the head and whether its line is resident.
    fn releasable_store<C: CacheAccess>(&self, caches: &C) -> Option<(StoreEntry, bool)> {
        let head = *self.storeq.front()?;
        // Write-ahead ordering: an unacknowledged log flush for this grain
        // blocks the release (Proteus §4.2). ATOM blocks at retirement
        // instead; software schemes order via sfence. The fault knob
        // removes exactly this gate.
        if !head.retired
            || (self.policy.proteus_hw
                && !self.persist_ordering_disabled
                && self.logq.blocks_store_to(head.addr.log_grain()))
        {
            return None;
        }
        let resident = caches.peek(self.id, head.addr).is_some();
        (resident || !self.mshr.contains_key(&head.addr.line().index())).then_some((head, resident))
    }

    /// Releases retired stores from the store queue to the cache, in
    /// order, one per cycle, through [`Core::releasable_store`]. The
    /// write-allocate fetch was prefetched at dispatch; the fetch here is
    /// a fallback for lines evicted in between. Only a resident line is
    /// stored to: peeking first keeps per-cycle retries out of the LRU
    /// state and statistics.
    fn release_stores<C: CacheAccess>(&mut self, now: Cycle, caches: &mut C) {
        let Some((head, resident)) = self.releasable_store(caches) else { return };
        if !resident {
            self.issue_fetch(head.addr.line(), now);
            return;
        }
        match caches.store(self.id, head.addr, head.value, &mut self.wb_scratch) {
            LookupResult::Hit { .. } => {
                self.storeq.pop_front();
                self.tracer.emit(
                    now,
                    TraceEventKind::Dequeue {
                        queue: QueueId::StoreQ,
                        occupancy: self.storeq.len() as u32,
                    },
                );
                let line = head.addr.line().index();
                if let Some(count) = self.storeq_lines.get_mut(&line) {
                    *count -= 1;
                    if *count == 0 {
                        self.storeq_lines.remove(&line);
                    }
                }
            }
            LookupResult::Miss => unreachable!("peek said the line is resident"),
        }
        self.flush_writebacks(now);
    }

    /// The clwb gate, shared by [`Core::process_clwbs`] and the sleep
    /// decision: a retired clwb performs once no unreleased store to its
    /// line is left. This conservative O(1) check stands in for "older
    /// stores only"; unreleased younger same-line stores are rare and the
    /// extra delay is harmless, since release is in order anyway.
    fn clwb_ready(&self, c: &PendingClwb) -> bool {
        c.ack_id.is_none() && !self.storeq_lines.contains_key(&c.addr.line().index())
    }

    /// Performs the retired clwbs [`Core::clwb_ready`] lets through. One
    /// whose line is cached nowhere has nothing to write back and is done.
    fn process_clwbs<C: CacheAccess>(&mut self, now: Cycle, caches: &mut C) {
        let mut i = 0;
        while i < self.pending_clwbs.len() {
            let addr = self.pending_clwbs[i].addr;
            if !self.clwb_ready(&self.pending_clwbs[i]) {
                i += 1;
                continue;
            }
            match caches.clwb(self.id, addr) {
                Some(data) => {
                    let ack_id = self.fresh_id();
                    self.pending_clwbs[i].ack_id = Some(ack_id);
                    self.out.push((
                        now + MISS_PATH_DELAY,
                        McRequest::WriteBack { line: addr.line(), data, ack_id: Some(ack_id) },
                    ));
                    i += 1;
                }
                None => {
                    self.pending_clwbs.remove(i);
                }
            }
        }
    }

    /// Dispatches up to `width` uops in order. Each one first passes
    /// [`Core::dispatch_stall_cause`]; the first that does not ends the
    /// cycle's dispatch, and records its cause if nothing dispatched.
    fn dispatch<C: CacheAccess>(&mut self, now: Cycle, caches: &mut C) {
        let mut dispatched = 0;
        while dispatched < self.width && self.pc < self.trace.uops.len() {
            let uop = self.trace.uops[self.pc];
            if let Some(cause) = self.dispatch_stall_cause(caches) {
                self.stalled_dispatch(uop, cause, now, caches);
                if dispatched == 0 {
                    self.stats.record_stall(cause);
                    if self.tracer.is_enabled() {
                        self.tracer.stall(now, cause, 1);
                    }
                }
                return;
            }
            self.dispatch_one(uop, now, caches);
            if self.fault.is_some() {
                return;
            }
            dispatched += 1;
        }
    }

    /// What a dispatch attempt that stalls with `cause` still does. A
    /// `log-load` held by the load queue or LR file has looked up the LLT
    /// before the reject is known: the lookup is undone, but it has moved
    /// the LRU clock and may have evicted a way. A `wait-value` whose
    /// lock word is cached nowhere pulls the line in (memory is
    /// authoritative, see `lock_word_visible`) and retries once it lands;
    /// MSHR dedup makes the polling free.
    fn stalled_dispatch<C: CacheAccess>(
        &mut self,
        uop: Uop,
        cause: StallCause,
        now: Cycle,
        caches: &C,
    ) {
        match (uop, cause) {
            (Uop::LogLoad { addr, .. }, StallCause::LoadQFull | StallCause::LrFull) => {
                let grain = addr.log_grain();
                self.llt.lookup_insert(grain);
                self.llt.undo_insert(grain);
            }
            (Uop::WaitValue { addr, .. }, StallCause::LockWait)
                if self.lock_word_visible(addr, self.next_seq, caches).is_none() =>
            {
                self.issue_fetch(addr.line(), now);
            }
            _ => {}
        }
    }

    /// Attributes a ROB-full stall to ATOM's log wait when that is what is
    /// actually clogging the head.
    fn rob_full_cause(&self) -> StallCause {
        match self.rob.front().map(|e| &e.state) {
            Some(UopState::Atom(_)) => StallCause::AtomLogWait,
            _ => StallCause::RobFull,
        }
    }

    /// Dispatches `uop`, which [`Core::dispatch_stall_cause`] has let
    /// through. The one way it can still fail is a `log-flush` that
    /// overflows the log area: §4.1's exception stops the core there.
    fn dispatch_one<C: CacheAccess>(&mut self, uop: Uop, now: Cycle, caches: &mut C) {
        let seq = self.next_seq;
        let mut state = UopState::None;
        let mut completed = false;
        let mut complete_at: Option<Cycle> = None;
        match uop {
            Uop::Compute { latency } => {
                // Scalar application code is a serial dependency chain:
                // consecutive computes execute back to back, not in
                // parallel.
                let done = self.last_compute_done.max(now) + latency.max(1) as Cycle;
                self.last_compute_done = done;
                complete_at = Some(done);
            }
            Uop::Load { dependent, .. } => {
                self.loads_in_rob += 1;
                self.incomplete_loads.insert(seq);
                if dependent && self.incomplete_loads.first() != Some(&seq) {
                    // Pointer chase: park until older loads complete.
                    state = UopState::WaitDeps;
                } else {
                    complete_at = self.issue_load(seq, uop, now, caches);
                }
            }
            Uop::Store { addr, value } => {
                self.storeq.push_back(StoreEntry { seq, addr, value, retired: false });
                self.tracer.emit(
                    now,
                    TraceEventKind::Enqueue {
                        queue: QueueId::StoreQ,
                        occupancy: self.storeq.len() as u32,
                    },
                );
                *self.storeq_lines.entry(addr.line().index()).or_insert(0) += 1;
                // RFO prefetch at execute: the write-allocate fetch
                // overlaps with everything between dispatch and release.
                if !self.mshr.contains_key(&addr.line().index())
                    && caches.peek(self.id, addr).is_none()
                {
                    self.issue_fetch(addr.line(), now);
                }
                complete_at = Some(now + 1);
            }
            Uop::Clwb { .. } => {
                complete_at = Some(now + 1);
            }
            Uop::Sfence => {
                self.fence_active = true;
                completed = true;
            }
            Uop::Pcommit | Uop::TxEnd { .. } => {
                self.fence_active = true;
                completed = true;
                state = UopState::Fence(FenceProgress::Waiting);
                if matches!(uop, Uop::TxEnd { .. }) && self.policy.proteus_hw {
                    self.logarea.end_tx().expect("balanced transactions");
                }
            }
            Uop::TxBegin { tx } => {
                completed = true;
                self.current_tx = Some(tx);
                if self.policy.proteus_hw {
                    self.logarea.begin_tx(tx).expect("balanced transactions");
                }
                if self.tracer.is_enabled() {
                    self.tracer.emit(now, TraceEventKind::TxBegin { tx: tx.raw() });
                    self.tx_path = Some(TxPath {
                        tx,
                        begin: now,
                        last_store: None,
                        commit_request: None,
                        wait: CommitWait::default(),
                    });
                }
            }
            Uop::LogLoad { lr, addr } => {
                let lr = lr.0 as usize;
                let grain = addr.log_grain();
                // The LLT is consulted as soon as the log-from address is
                // known: on a hit the whole pair completes immediately
                // and no data is loaded (§4.2).
                self.stats.llt_lookups += 1;
                let elided = self.llt.lookup_insert(grain);
                let allocated = self.lrs.try_allocate(lr, grain, elided);
                assert!(allocated, "the dispatch gate found LR{lr} free");
                if elided {
                    self.stats.llt_hits += 1;
                    state = UopState::Elided;
                    complete_at = Some(now + 1);
                } else {
                    self.loads_in_rob += 1;
                    self.incomplete_loads.insert(seq);
                    self.tracer.emit(
                        now,
                        TraceEventKind::Enqueue {
                            queue: QueueId::Llt,
                            occupancy: self.llt.len() as u32,
                        },
                    );
                    // A log-load's data (and the value of the store it
                    // guards) derives from earlier loads, so it issues
                    // once older loads complete — by which time the grain
                    // is normally cached and the LR recycles quickly.
                    if self.incomplete_loads.first() == Some(&seq) {
                        complete_at = self.issue_load(seq, uop, now, caches);
                    } else {
                        state = UopState::WaitDeps;
                    }
                }
            }
            Uop::LogFlush { lr } => {
                let lr = lr.0 as usize;
                let grain =
                    self.lrs.grain(lr).expect("log-flush follows its log-load in program order");
                if self.lrs.is_elided(lr) {
                    // LLT hit recorded at the log-load: complete
                    // immediately, no log-to address (§4.2). The LR
                    // recycles now.
                    self.lrs.free(lr);
                    state = UopState::Elided;
                    complete_at = Some(now + 1);
                } else {
                    let tx = self.current_tx.expect("logging inside a transaction");
                    let (slot, entry_seq) = match self.logarea.alloc() {
                        Ok(slot) => slot,
                        Err(overflow) => {
                            // §4.1: the processor raises an exception. The
                            // core stops here, and `System::run` returns it.
                            self.fault = Some(overflow);
                            self.done_at = Some(now);
                            return;
                        }
                    };
                    let id = self.logq.alloc(grain, slot);
                    self.flush_meta.insert(id, FlushMeta { lr, entry_seq, tx, uop_seq: seq });
                    self.tracer.emit(
                        now,
                        TraceEventKind::Enqueue {
                            queue: QueueId::LogQ,
                            occupancy: self.logq.len() as u32,
                        },
                    );
                    // Completion is scheduled by `send_ready_flushes` once
                    // the log-load data lands in the LR.
                }
            }
            Uop::LogSave => {
                // Context switch support (§4.4): behaves like a fence —
                // outstanding persists drain first, then the LPQ flush
                // message goes out and the LLT clears (at retirement).
                self.fence_active = true;
                completed = true;
            }
            Uop::WaitValue { addr, .. } => {
                // Ticket matched: the acquire dispatches as a
                // guaranteed-hit load of the lock word (the gate saw the
                // line, so the coherent load cannot miss).
                self.loads_in_rob += 1;
                self.incomplete_loads.insert(seq);
                self.lock_acquires += 1;
                self.tracer.emit(now, TraceEventKind::LockAcquire { addr: addr.raw() });
                let done = self.issue_load(seq, uop, now, caches);
                complete_at = Some(done.expect("the gate saw the lock line resident"));
            }
        }
        // Every uop not complete at dispatch executes until it is.
        if !completed {
            self.inflight_exec += 1;
        }
        if let Some(c) = complete_at {
            self.complete_at(seq, c);
        }
        self.rob.push_back(RobEntry { seq, uop, completed, state });
        self.next_seq += 1;
        self.pc += 1;
    }

    fn check_done(&mut self, now: Cycle) {
        if self.done_at.is_none() && self.fully_drained() {
            self.done_at = Some(now);
            self.stats.cycles = now;
        }
    }

    /// Why dispatch of the next trace uop would stall this cycle, or
    /// `None` if it would succeed. The dispatch gate itself:
    /// [`Core::dispatch`] asks it before each uop, and the sleep decision
    /// ([`Core::next_event_cycle`]) and the credit of slept cycles
    /// ([`Core::skip_credit`]) read the same answer.
    fn dispatch_stall_cause<C: CacheAccess>(&self, caches: &C) -> Option<StallCause> {
        debug_assert!(self.pc < self.trace.uops.len(), "caller checks for remaining uops");
        let uop = self.trace.uops[self.pc];
        if self.rob.len() >= self.rob_entries {
            return Some(self.rob_full_cause());
        }
        // A fence blocks younger stores and PMEM/logging operations.
        if self.fence_active
            && matches!(
                uop,
                Uop::Store { .. }
                    | Uop::Clwb { .. }
                    | Uop::Sfence
                    | Uop::Pcommit
                    | Uop::LogLoad { .. }
                    | Uop::LogFlush { .. }
                    | Uop::TxBegin { .. }
                    | Uop::TxEnd { .. }
                    | Uop::LogSave
            )
        {
            return Some(StallCause::FenceDrain);
        }
        match uop {
            Uop::Compute { .. } | Uop::Clwb { .. } => {
                (self.inflight_exec >= self.issueq_entries).then_some(StallCause::IssueQFull)
            }
            Uop::Load { .. } => {
                if self.inflight_exec >= self.issueq_entries {
                    Some(StallCause::IssueQFull)
                } else if self.loads_in_rob >= self.loadq_entries {
                    Some(StallCause::LoadQFull)
                } else {
                    None
                }
            }
            Uop::Store { .. } => {
                (self.storeq.len() >= self.storeq_entries).then_some(StallCause::StoreQFull)
            }
            Uop::Sfence | Uop::Pcommit | Uop::TxBegin { .. } | Uop::TxEnd { .. } | Uop::LogSave => {
                None
            }
            Uop::LogLoad { lr, addr } => {
                if self.inflight_exec >= self.issueq_entries {
                    return Some(StallCause::IssueQFull);
                }
                let lr_busy = self.lrs.grain(lr.0 as usize).is_some();
                if self.llt.would_hit(addr.log_grain()) {
                    lr_busy.then_some(StallCause::LrFull)
                } else if self.loads_in_rob >= self.loadq_entries {
                    Some(StallCause::LoadQFull)
                } else if lr_busy {
                    Some(StallCause::LrFull)
                } else {
                    None
                }
            }
            Uop::LogFlush { lr } => {
                if self.inflight_exec >= self.issueq_entries {
                    Some(StallCause::IssueQFull)
                } else if self.lrs.is_elided(lr.0 as usize) {
                    None
                } else if !self.logq.has_space() {
                    Some(StallCause::LogQFull)
                } else {
                    None
                }
            }
            Uop::WaitValue { addr, expected } => {
                if self.inflight_exec >= self.issueq_entries {
                    Some(StallCause::IssueQFull)
                } else if self.loads_in_rob >= self.loadq_entries {
                    Some(StallCause::LoadQFull)
                } else {
                    match self.lock_word_visible(addr, self.next_seq, caches) {
                        Some(v) if v == expected => None,
                        _ => Some(StallCause::LockWait),
                    }
                }
            }
        }
    }

    /// The retirement gate, shared by [`Core::retire`] and the sleep
    /// decision: whether the completed uop at the ROB head cannot retire
    /// this cycle, waiting on an external event (a persist ack, a memory
    /// response, a controller completion). A fence waits until older
    /// persists drain and, once a pcommit or tx-end has sent its request,
    /// for the controller's answer. An ATOM store waits for its log
    /// entry's ack, or for the in-flight fetch of the line its log entry's
    /// overlay needs.
    fn retire_blocked<C: CacheAccess>(&self, head: &RobEntry, caches: &C) -> bool {
        match (&head.uop, &head.state) {
            (Uop::Sfence | Uop::Pcommit | Uop::TxEnd { .. } | Uop::LogSave, state) => {
                matches!(state, UopState::Fence(FenceProgress::Sent)) || !self.persist_drained()
            }
            (Uop::Store { addr, .. }, state)
                if self.policy.atom_retirement && self.current_tx.is_some() =>
            {
                let grain = addr.log_grain();
                if self.atom_logged.contains(&grain.index()) {
                    return false; // retires via the already-logged fast path
                }
                match state {
                    UopState::Atom(AtomProgress::WaitAck) => true,
                    UopState::Atom(AtomProgress::Done) => false,
                    _ => {
                        self.mshr.contains_key(&addr.line().index())
                            && caches.peek(self.id, *addr).is_none()
                            && self.older_store_to_grain(grain, head.seq)
                    }
                }
            }
            _ => false,
        }
    }

    /// Earliest cycle at or after `now` at which ticking this core could
    /// change simulated state, or `None` if the core is finished or
    /// waiting purely on external input. Follows the
    /// [`proteus_types::NextEvent`] contract; it is an inherent method
    /// because store-release and ATOM-logging progress depend on cache
    /// residency, so the hierarchy must be consulted.
    pub fn next_event_cycle<C: CacheAccess>(&self, now: Cycle, caches: &C) -> Option<Cycle> {
        if self.done_at.is_some() {
            return None;
        }
        // Outgoing requests must reach the system's routing loop.
        if !self.out.is_empty() {
            return Some(now);
        }
        // `check_done` fires on the tick *after* the final drain.
        if self.fully_drained() {
            return Some(now);
        }
        // Every other source either wants this very cycle, which no later
        // source can beat, or is the next completion; so each returns as
        // soon as it fires, cheapest first. The system asks after every
        // tick whether a core may sleep, and busy cores answer early. A
        // parked load issues on the tick that completes the load ahead of
        // it (see `issue_parked_load`), so the completion covers it; every
        // other stage moves exactly when its own gate lets it.
        let completion = self.completions.peek().map(|&Reverse((at, _))| at.max(now));
        if completion == Some(now) || !self.held_flushes.is_empty() {
            return Some(now);
        }
        if self.rob.front().is_some_and(|h| h.completed && !self.retire_blocked(h, caches)) {
            return Some(now);
        }
        if self.releasable_store(caches).is_some() {
            return Some(now);
        }
        if self.pc < self.trace.uops.len() {
            match self.dispatch_stall_cause(caches) {
                None => return Some(now),
                // A log-load rejected by the load queue or LR file has
                // already looked up the LLT by the time the reject is
                // known. Step the retry if that lookup changes the
                // table's entries; otherwise it only advances the LRU
                // clock, which `credit_skipped_cycles` replays.
                Some(StallCause::LoadQFull | StallCause::LrFull) => {
                    if let Uop::LogLoad { addr, .. } = self.trace.uops[self.pc] {
                        if self.llt.failed_retry_changes_entries(addr.log_grain()) {
                            return Some(now);
                        }
                    }
                }
                Some(_) => {}
            }
        }
        if self.pending_clwbs.iter().any(|c| self.clwb_ready(c))
            || self.next_ready_flush().is_some()
        {
            return Some(now);
        }
        completion
    }

    /// What each cycle this core is not ticked would record, read from
    /// its current state: the dispatch stall cause, whether a `log-load`
    /// held by the load queue or LR file would retry a lookup that only
    /// advances the LLT's LRU clock (see [`Core::next_event_cycle`]),
    /// and, when tracing, whether retirement holds a `tx-end`. Valid for
    /// as long as the state stays frozen and the cache lines it peeks at
    /// do not change; the caller captures it before anything can change
    /// them.
    pub fn skip_credit<C: CacheAccess>(&self, caches: &C) -> SkipCredit {
        let commit_wait = self.tracer.is_enabled()
            && self.rob.front().is_some_and(|h| {
                matches!(h.uop, Uop::TxEnd { .. }) && h.completed && self.retire_blocked(h, caches)
            });
        if self.done_at.is_some() || self.pc >= self.trace.uops.len() {
            return SkipCredit { commit_wait, ..SkipCredit::default() };
        }
        let cause = self.dispatch_stall_cause(caches).unwrap_or(StallCause::IssueQFull);
        SkipCredit {
            stall: Some(cause),
            llt_retry: matches!(cause, StallCause::LoadQFull | StallCause::LrFull)
                && matches!(self.trace.uops[self.pc], Uop::LogLoad { .. }),
            commit_wait,
        }
    }

    /// Replays `n` skipped cycles of `credit` (from [`Core::skip_credit`]):
    /// their dispatch stalls and LLT retries, in bulk, and into the trace
    /// their stall run, samples and blocked `tx-end` cycles. During a
    /// skipped window the core's state is frozen, so the dispatch path
    /// would have recorded the same stall cause on every one of those
    /// cycles, a held `log-load` would have advanced only the LLT's LRU
    /// clock, and a held `tx-end` would have waited on the same persist.
    /// Replaying them keeps the core, and its trace, exactly where
    /// single-stepping leaves them. The window is the `n` cycles after the
    /// core's last tick or credit.
    pub fn credit_skipped_cycles(&mut self, credit: SkipCredit, n: u64) {
        credit.add_stalls(&mut self.stats, n);
        if credit.llt_retry {
            self.llt.skip_failed_retries(n);
        }
        if self.tracer.is_enabled() {
            self.tracer.skip(n, credit.stall, &self.queue_levels());
            if credit.commit_wait {
                self.trace_commit_wait(n);
            }
        }
    }

    /// [`Core::credit_skipped_cycles`] with the credit read from the
    /// current state: for a window that starts now. The engine credits
    /// only sleepers, through their captured credit; this stays for the
    /// benchmark's traced loop (`perfbench/src/traced.rs`), which skips
    /// windows without per-core sleep.
    pub fn account_skipped_cycles<C: CacheAccess>(&mut self, n: u64, caches: &C) {
        if n > 0 {
            self.credit_skipped_cycles(self.skip_credit(caches), n);
        }
    }

    /// Ticks a core the engine holds asleep and panics unless the tick
    /// was the no-op the sleep assumed: no state change (the
    /// [`Core::debug_fingerprint`] holds still), no request for the
    /// memory controller, and exactly one cycle of `credit` recorded.
    /// The `paranoid` cross-check of per-core sleep.
    #[doc(hidden)]
    pub fn debug_tick_asleep<C: CacheAccess>(
        &mut self,
        now: Cycle,
        caches: &mut C,
        credit: SkipCredit,
    ) {
        use std::hash::Hasher;
        let fingerprint = |core: &Core| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            core.debug_fingerprint(&mut h);
            h.finish()
        };
        let before = fingerprint(self);
        let mut expected = self.stats.clone();
        credit.add_stalls(&mut expected, 1);
        let llt_clock = self.llt.clock() + u64::from(credit.llt_retry);
        self.tick(now, caches);
        let core = self.id.raw();
        assert!(self.out.is_empty(), "core {core} slept through cycle {now} but sent a request");
        assert_eq!(before, fingerprint(self), "core {core} slept through cycle {now} but moved");
        assert_eq!(self.stats, expected, "core {core}: cycle {now} recorded other than its credit");
        assert_eq!(self.llt.clock(), llt_clock, "core {core}: cycle {now} LLT retries miscredited");
    }

    /// Hashes the externally observable simulation state — not stats, not
    /// trace bookkeeping. Used by the paranoid engine cross-check to
    /// prove skipped windows were genuinely quiescent.
    #[doc(hidden)]
    pub fn debug_fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.pc.hash(h);
        self.next_seq.hash(h);
        self.rob.len().hash(h);
        self.rob.iter().filter(|e| e.completed).count().hash(h);
        self.completions.len().hash(h);
        self.inflight_exec.hash(h);
        self.loads_in_rob.hash(h);
        self.storeq.len().hash(h);
        self.storeq.iter().filter(|s| s.retired).count().hash(h);
        self.storeq_lines.len().hash(h);
        self.pending_clwbs.len().hash(h);
        self.pending_clwbs.iter().filter(|c| c.ack_id.is_some()).count().hash(h);
        self.fence_active.hash(h);
        self.logq.len().hash(h);
        self.lrs.in_use().hash(h);
        self.llt.debug_fingerprint(h);
        self.current_tx.is_some().hash(h);
        self.held_flushes.len().hash(h);
        self.atom_logged.len().hash(h);
        self.atom_acks_outstanding.hash(h);
        self.mshr.len().hash(h);
        self.rob.iter().filter(|e| matches!(e.state, UopState::WaitDeps)).count().hash(h);
        self.incomplete_loads.len().hash(h);
        self.next_local_id.hash(h);
        self.out.len().hash(h);
        self.done_at.hash(h);
    }
}
