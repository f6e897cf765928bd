//! The simulated machine: cores + caches + memory controller.

use proteus_cache::CacheSystem;
use proteus_core::layout::AddressLayout;
use proteus_core::pmem::WordImage;
use proteus_core::recovery::{recover, RecoveryReport};
use proteus_core::scheme::{expand_program_with, registry, ExpandOptions};
use proteus_cpu::core::{decode_core, Core, SkipCredit, MC_LINK_DELAY};
use proteus_mem::{CrashFaults, LogDrainMode, McEvent, McRequest, MemoryController, PersistEvent};
use proteus_trace::{TraceReport, Tracer, TrackKind};
use proteus_types::clock::{Cycle, NextEvent};
use proteus_types::config::{EngineConfig, LoggingSchemeKind, SystemConfig, TraceConfig};
use proteus_types::stats::RunSummary;
use proteus_types::{SimError, ThreadId};
use proteus_workloads::GeneratedWorkload;
use std::collections::VecDeque;
use std::sync::Arc;

/// A complete simulated machine executing one workload under one logging
/// scheme.
#[derive(Debug)]
pub struct System {
    cores: Vec<Core>,
    caches: CacheSystem,
    mc: MemoryController,
    inbox: VecDeque<(Cycle, usize, McEvent)>,
    now: Cycle,
    layout: AddressLayout,
    scheme: LoggingSchemeKind,
    threads: Vec<ThreadId>,
    max_cycles: Cycle,
    cache_tracer: Tracer,
    trace_sample_interval: Cycle,
    /// Event-driven fast-forwarding and per-core sleep (see `DESIGN.md`
    /// §6). Forced off when cycle tracing is enabled — tracers sample
    /// per cycle.
    fast_forward: bool,
    /// Tracing needs every cycle ticked, so it pins the engine to
    /// single-stepping regardless of [`System::set_fast_forward`].
    single_step_forced: bool,
    /// Cross-validate every skip by single-stepping it and asserting the
    /// state fingerprint never moves, and every sleeping core by ticking
    /// it anyway (also enabled by the `paranoid` cargo feature).
    validate_skips: bool,
    /// Reusable buffer for core→controller requests (no per-cycle
    /// allocation).
    req_buf: Vec<(Cycle, McRequest)>,
    /// Cycles left before the engine probes [`System::next_wake`] again.
    /// Non-zero only after a probe found nothing to skip: during busy
    /// stretches the probe itself is the dominant cost, so it backs off
    /// and the engine single-steps in the meantime. Purely a wall-clock
    /// policy — skipped windows are state-neutral by contract, so *when*
    /// the engine looks for them cannot change simulated outcomes.
    probe_delay: u32,
    /// Current backoff step: starts at 1 after every productive skip (the
    /// next idle window often follows a burst of only a few cycles) and
    /// doubles on each unproductive probe up to [`MAX_PROBE_BACKOFF`], so
    /// long busy stretches pay for almost no probes at all.
    probe_backoff: u32,
    /// Cycles ticked by [`System::step`] so far (observational; see
    /// [`System::steps`]).
    steps: u64,
    /// Per core: the sleep it is in, if fast-forward has stopped ticking
    /// it (see [`Sleep`]).
    sleep: Vec<Option<Sleep>>,
    /// `Core::tick` calls on unfinished cores so far (observational; see
    /// [`System::core_ticks`]).
    core_ticks: u64,
}

/// A core that fast-forward stops ticking because its own
/// `next_event_cycle` says it cannot change state before `until` (see
/// DESIGN.md §6, "Per-core sleep"). It wakes at its first turn in core
/// order at or after `until`, at its first turn after the cache
/// hierarchy's [`CacheSystem::epoch`] moves past `epoch`, or when the
/// inbox delivers it an event, whichever comes first.
#[derive(Debug, Clone, Copy)]
struct Sleep {
    /// The first cycle not yet credited to the core.
    since: Cycle,
    /// The core's own wake cycle (`None`: only an event or a cache
    /// change wakes it).
    until: Option<Cycle>,
    /// The cache hierarchy's epoch when the core fell asleep.
    epoch: u64,
    /// What each slept cycle records, captured when the core fell asleep:
    /// a cache change can flip the stall cause before the core wakes,
    /// so it cannot be read at wake time.
    credit: SkipCredit,
}

impl Sleep {
    /// Whether the core still sleeps at its turn in cycle `now`.
    fn holds(&self, now: Cycle, epoch: u64) -> bool {
        self.until.is_none_or(|until| now < until) && epoch == self.epoch
    }
}

/// Ceiling for the exponential probe backoff. Probing costs a scan of
/// every queue in the machine — about as much as simulating one cycle —
/// while real idle windows (DRAM reads, pcommit drains) last hundreds of
/// cycles, so a few dozen cycles of blindness costs little and caps
/// probe overhead in fully busy runs at ~3%.
const MAX_PROBE_BACKOFF: u32 = 32;

/// The core a controller event is addressed to.
fn event_core_index(ev: &McEvent) -> usize {
    match ev {
        McEvent::TxEndDone { core, .. } => core.index(),
        McEvent::ReadDone { req_id: id, .. }
        | McEvent::WritebackAck { ack_id: id, .. }
        | McEvent::LogFlushAck { flush_id: id, .. }
        | McEvent::AtomLogAck { log_id: id, .. }
        | McEvent::PcommitDone { commit_id: id, .. } => decode_core(*id).index(),
    }
}

impl System {
    /// Builds a machine for `workload` under `scheme`.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid, the workload
    /// needs more threads than there are cores or log areas
    /// ([`SimError::TooManyThreads`]), or trace expansion fails.
    pub fn new(
        cfg: &SystemConfig,
        scheme: LoggingSchemeKind,
        workload: &GeneratedWorkload,
    ) -> Result<Self, SimError> {
        Self::new_with_trace(cfg, scheme, workload, &TraceConfig::disabled())
    }

    /// Builds a machine like [`System::new`] but with cycle-level tracing
    /// per `trace`. With `trace.enabled == false` this is exactly
    /// [`System::new`]: no trace buffers are allocated and the run is
    /// bit-identical to an untraced one.
    ///
    /// # Errors
    ///
    /// Returns an error if either configuration is invalid, the workload
    /// needs more threads than there are cores or log areas, or trace
    /// expansion fails.
    pub fn new_with_trace(
        cfg: &SystemConfig,
        scheme: LoggingSchemeKind,
        workload: &GeneratedWorkload,
        trace: &TraceConfig,
    ) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::InvalidConfig)?;
        trace.validate().map_err(SimError::InvalidConfig)?;
        // Each thread needs a core and a log area: a thread beyond the
        // layout's capacity would have no log area to address.
        let layout = AddressLayout::default();
        let available = cfg.num_cores.min(layout.max_threads);
        if workload.programs.len() > available {
            return Err(SimError::TooManyThreads { requested: workload.programs.len(), available });
        }
        let drain_mode = match registry::descriptor(scheme).drain {
            registry::DrainPolicy::KeepUntilCommit => LogDrainMode::KeepUntilCommit,
            registry::DrainPolicy::DrainAlways => LogDrainMode::DrainAlways,
        };
        let mut mc = MemoryController::new(cfg.mem.clone(), layout.clone(), drain_mode);
        mc.set_tracer(Tracer::new(TrackKind::Mc, trace));
        mc.load_image(workload.initial_image.clone());
        let mut caches = CacheSystem::new(cfg);
        if let Some(sharing) = &workload.sharing {
            // Lock words live on dedicated lines; preloading them into
            // the shared L3 lets the first ticket probe of every thread
            // find the (zero-initialised) ticket cached instead of
            // cold-polling memory.
            for lock in sharing.all_locks() {
                caches.preload(lock.line(), [0; 8]);
            }
        }
        if trace.enabled {
            caches.enable_coherence_events();
        }
        let mut cores = Vec::with_capacity(workload.programs.len());
        let mut threads = Vec::new();
        // One shared handle for every core's expansion instead of a deep
        // image clone per core.
        let shared_image = Arc::new(workload.initial_image.clone());
        for (i, program) in workload.programs.iter().enumerate() {
            let opts = ExpandOptions {
                log_registers: cfg.proteus.log_registers,
                initial_image: Arc::clone(&shared_image),
            };
            let expanded = expand_program_with(program, scheme, &layout, &opts)?;
            threads.push(program.thread);
            let mut core =
                Core::new(proteus_types::CoreId::new(i as u32), cfg, scheme, &layout, expanded);
            core.set_tracer(Tracer::new(TrackKind::Core(i as u32), trace));
            cores.push(core);
        }
        Ok(System {
            cores,
            caches,
            mc,
            inbox: VecDeque::new(),
            now: 0,
            layout,
            scheme,
            threads,
            max_cycles: 20_000_000_000,
            cache_tracer: Tracer::new(TrackKind::Cache, trace),
            trace_sample_interval: trace.sample_interval,
            fast_forward: EngineConfig::default().fast_forward && !trace.enabled,
            single_step_forced: trace.enabled,
            validate_skips: false,
            req_buf: Vec::new(),
            probe_delay: 0,
            probe_backoff: 1,
            steps: 0,
            sleep: vec![None; workload.programs.len()],
            core_ticks: 0,
        })
    }

    /// Sets the runaway guard (default 2×10¹⁰ cycles).
    pub fn set_max_cycles(&mut self, max: Cycle) {
        self.max_cycles = max;
    }

    /// How many cycles [`System::step`] has ticked so far. Equals
    /// [`System::now`] with fast-forwarding off; the gap between the two
    /// is the cycles fast-forward skipped. Observational only — never
    /// consulted by simulation logic.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// How many times [`System::step`] has ticked an unfinished core so
    /// far. With fast-forwarding off this is the live cores summed over
    /// every cycle; with it on, cores asleep in a cycle are not ticked
    /// (DESIGN.md §6, "Per-core sleep") and do not count. Observational
    /// only.
    pub fn core_ticks(&self) -> u64 {
        self.core_ticks
    }

    /// Enables or disables event-driven fast-forwarding, per-core sleep
    /// included: with it off, every cycle ticks every unfinished core. A
    /// no-op (stays off) when the machine was built with cycle tracing,
    /// which samples per cycle.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on && !self.single_step_forced;
    }

    /// Single-steps every would-be skip and asserts the machine
    /// fingerprint never moves inside it, and ticks every sleeping core
    /// anyway, asserting the tick changes nothing but its captured stall
    /// credit. Testing hook for the `next_event_cycle` contract; also
    /// forced on by the `paranoid` cargo feature.
    #[doc(hidden)]
    pub fn set_validate_skips(&mut self, on: bool) {
        self.validate_skips = on;
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The logging scheme under test.
    pub fn scheme(&self) -> LoggingSchemeKind {
        self.scheme
    }

    /// The address layout in use.
    pub fn layout(&self) -> &AddressLayout {
        &self.layout
    }

    /// Whether every core has drained its trace.
    pub fn is_done(&self) -> bool {
        self.cores.iter().all(Core::is_done)
    }

    /// Advances the machine by one cycle: ticks the cores in order, then
    /// the memory controller, then delivers the controller events due.
    ///
    /// With fast-forwarding on, a core whose own `next_event_cycle` says
    /// it cannot change state next cycle falls asleep after its tick and
    /// is not ticked again until its wake cycle, an event for it, or a
    /// cache change it could observe (DESIGN.md §6, "Per-core sleep").
    /// The stall cycles it sleeps through are credited when it wakes;
    /// [`System::summary`] includes those still pending, so statistics
    /// are exact after every call.
    pub fn step(&mut self) {
        let now = self.now;
        let checked = self.validate_skips || cfg!(feature = "paranoid");
        for (core, sleep) in self.cores.iter_mut().zip(&mut self.sleep) {
            if let Some(s) = sleep {
                if self.fast_forward && s.holds(now, self.caches.epoch()) {
                    if checked {
                        // Tick it anyway and prove the sleep was sound.
                        core.credit_skipped_cycles(s.credit, now - s.since);
                        let epoch = self.caches.epoch();
                        core.debug_tick_asleep(now, &mut self.caches, s.credit);
                        assert_eq!(
                            epoch,
                            self.caches.epoch(),
                            "a sleeping core changed the caches"
                        );
                        s.since = now + 1;
                        self.core_ticks += 1;
                    }
                    continue;
                }
                core.credit_skipped_cycles(s.credit, now - s.since);
                *sleep = None;
            }
            if core.is_done() {
                continue;
            }
            core.tick(now, &mut self.caches);
            self.core_ticks += 1;
            core.drain_requests_into(&mut self.req_buf);
            for (at, req) in self.req_buf.drain(..) {
                self.mc.submit(req, at);
            }
            if self.fast_forward && !core.is_done() {
                let until = core.next_event_cycle(now + 1, &self.caches);
                if until.is_none_or(|at| at > now + 1) {
                    *sleep = Some(Sleep {
                        since: now + 1,
                        until,
                        epoch: self.caches.epoch(),
                        credit: core.skip_credit(&self.caches),
                    });
                }
            }
        }
        self.mc.tick(now);
        self.caches.trace_sample(&mut self.cache_tracer, now);
        if self.cache_tracer.is_enabled() {
            for ev in self.caches.drain_coherence_events() {
                let kind = match ev.action {
                    proteus_cache::CoherenceAction::Transfer => {
                        proteus_trace::TraceEventKind::OwnershipTransfer { line: ev.line.index() }
                    }
                    proteus_cache::CoherenceAction::Invalidate => {
                        proteus_trace::TraceEventKind::CoherenceInvalidate { line: ev.line.index() }
                    }
                };
                self.cache_tracer.emit(now, kind);
            }
        }
        for ev in self.mc.drain_events() {
            self.inbox.push_back((ev.at() + MC_LINK_DELAY, event_core_index(&ev), ev));
        }
        for _ in 0..self.inbox.len() {
            let (at, idx, ev) = self.inbox.pop_front().expect("nonempty");
            if at <= now {
                // An event wakes its core, which slept through this cycle.
                if let Some(s) = self.sleep[idx].take() {
                    self.cores[idx].credit_skipped_cycles(s.credit, now + 1 - s.since);
                }
                self.cores[idx].handle_event(&ev, now, &mut self.caches);
            } else {
                self.inbox.push_back((at, idx, ev));
            }
        }
        self.now += 1;
        self.steps += 1;
    }

    /// The earliest cycle at or after `now` at which any component could
    /// make progress, or `None` if nothing ever will (all cores done).
    /// Public so tests and tools can observe the event engine's
    /// scheduling decisions.
    pub fn next_wake(&self) -> Option<Cycle> {
        let now = self.now;
        fn wake(at: Cycle, now: Cycle, best: &mut Option<Cycle>) {
            let at = at.max(now);
            *best = Some(best.map_or(at, |b| b.min(at)));
        }
        let mut best: Option<Cycle> = None;
        // Sources are ordered cheapest-first with an early out at `now`:
        // once anything wants the current cycle no later source can beat
        // it, and in busy phases that spares the queue scans below.
        for (at, _, _) in &self.inbox {
            wake(*at, now, &mut best);
        }
        if best == Some(now) {
            return best;
        }
        let epoch = self.caches.epoch();
        for (core, sleep) in self.cores.iter().zip(&self.sleep) {
            // A sleeping core's state is frozen and nothing it observes
            // in the caches has changed, so its own wake cycle still
            // stands.
            let next = match sleep {
                Some(s) if s.epoch == epoch => s.until,
                _ => core.next_event_cycle(now, &self.caches),
            };
            if let Some(at) = next {
                wake(at, now, &mut best);
            }
            if best == Some(now) {
                return best;
            }
        }
        if let Some(at) = self.mc.next_event_cycle(now) {
            wake(at, now, &mut best);
        }
        if let Some(at) = self.caches.next_event_cycle(now) {
            wake(at, now, &mut best);
        }
        best
    }

    /// Advances the machine one event: in fast-forward mode, jumps `now`
    /// to the next wake point (capped at `limit`) before ticking; in
    /// single-step mode, ticks the next cycle.
    fn advance(&mut self, limit: Cycle) {
        if self.fast_forward {
            if self.probe_delay > 0 {
                self.probe_delay -= 1;
            } else {
                let wake = self.next_wake().unwrap_or(limit).min(limit);
                if wake > self.now + 1 {
                    self.skip_to(wake);
                    self.probe_backoff = 1;
                } else {
                    // Nothing worth skipping: the machine is busy. Back
                    // off the probes until the burst has had a chance to
                    // drain.
                    self.probe_delay = self.probe_backoff;
                    self.probe_backoff = (self.probe_backoff * 2).min(MAX_PROBE_BACKOFF);
                }
            }
        }
        if self.now < limit {
            self.step();
        }
    }

    /// Jumps `now` to `target`, crediting the skipped cycles to each
    /// awake core's stall accounting; a sleeping core is credited when it
    /// wakes. A core whose sleep a cache change has already ended is
    /// woken first, so the window is credited from its current state. In
    /// validating mode the skip is instead single-stepped for real,
    /// asserting the state fingerprint never moves — proving the
    /// engine's claim that the window was quiescent.
    fn skip_to(&mut self, target: Cycle) {
        if self.validate_skips || cfg!(feature = "paranoid") {
            self.skip_to_checked(target);
            return;
        }
        let n = target - self.now;
        let epoch = self.caches.epoch();
        for (core, sleep) in self.cores.iter_mut().zip(&mut self.sleep) {
            match sleep {
                Some(s) if s.epoch == epoch => continue,
                Some(s) => {
                    core.credit_skipped_cycles(s.credit, self.now - s.since);
                    *sleep = None;
                }
                None => {}
            }
            core.account_skipped_cycles(n, &self.caches);
        }
        self.now = target;
    }

    fn skip_to_checked(&mut self, target: Cycle) {
        use std::hash::Hasher;
        while self.now < target {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.fingerprint(&mut h);
            let before = h.finish();
            self.step();
            let mut h = std::collections::hash_map::DefaultHasher::new();
            self.fingerprint(&mut h);
            assert_eq!(
                before,
                h.finish(),
                "fast-forward would have skipped cycle {} in which state changed \
                 (a next_event_cycle impl over-reported)",
                self.now - 1
            );
        }
    }

    fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        for core in &self.cores {
            core.debug_fingerprint(h);
        }
        self.mc.debug_fingerprint(h);
        self.inbox.len().hash(h);
    }

    /// Runs until every core finishes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the runaway guard trips,
    /// and [`SimError::LogAreaOverflow`] if a transaction overflowed its
    /// log area (§4.1: the core raises an exception and stops).
    pub fn run(&mut self) -> Result<RunSummary, SimError> {
        while !self.is_done() {
            if self.now >= self.max_cycles {
                return Err(SimError::InvalidConfig(format!(
                    "simulation exceeded {} cycles without finishing",
                    self.max_cycles
                )));
            }
            self.advance(self.max_cycles);
        }
        if let Some(fault) = self.cores.iter().find_map(Core::fault) {
            return Err(fault.clone());
        }
        Ok(self.summary())
    }

    /// Runs until `cycle` or completion, whichever comes first. Returns
    /// whether the machine finished.
    pub fn run_until(&mut self, cycle: Cycle) -> bool {
        while !self.is_done() && self.now < cycle {
            self.advance(cycle);
        }
        self.is_done()
    }

    /// The threads this machine is running, in core order.
    pub fn threads(&self) -> &[ThreadId] {
        &self.threads
    }

    /// How many persist events (durable-state transitions in the memory
    /// controller) have occurred so far. See
    /// [`proteus_mem::PersistEventKind`].
    pub fn persist_seq(&self) -> u64 {
        self.mc.persist_seq()
    }

    /// Turns recording of the persist-event timeline on or off. Turning
    /// it off discards any recorded events; the sequence counter itself
    /// always runs.
    pub fn set_record_persist_events(&mut self, on: bool) {
        self.mc.set_record_persist_events(on);
    }

    /// The recorded persist-event timeline (empty unless recording was
    /// enabled via [`System::set_record_persist_events`]).
    pub fn persist_timeline(&self) -> &[PersistEvent] {
        self.mc.persist_timeline()
    }

    /// Steps until at least `seq` persist events have occurred, the trace
    /// drains, or the runaway guard trips. Returns `true` if the target
    /// was reached.
    ///
    /// Crash points are named by persist-event index, so "crash at event
    /// k" means "stop stepping as soon as the counter reaches k and take
    /// the crash image". The machine stops on the cycle boundary after
    /// the event; if several events land in the same cycle the image is
    /// the same for all of them.
    pub fn run_until_persist_event(&mut self, seq: u64) -> bool {
        while self.persist_seq() < seq && !self.is_done() && self.now < self.max_cycles {
            self.advance(self.max_cycles);
        }
        self.persist_seq() >= seq
    }

    /// The durable state if power were lost right now (NVMM plus the
    /// ADR-protected controller queues).
    pub fn crash_image(&self) -> WordImage {
        self.mc.crash_image()
    }

    /// The durable state under a faulty crash: `faults` selects how the
    /// dying machine deviates from the clean ADR drain (torn in-service
    /// line writes, partial queue drain). See [`proteus_mem::CrashFaults`].
    pub fn crash_image_with(&self, faults: &CrashFaults) -> WordImage {
        self.mc.crash_image_with(faults)
    }

    /// Crashes the machine now and runs recovery over the durable image,
    /// returning the recovered image and what recovery did.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::CorruptLog`] from recovery.
    pub fn crash_and_recover(&self) -> Result<(WordImage, RecoveryReport), SimError> {
        self.crash_and_recover_with(&CrashFaults::clean())
    }

    /// Like [`System::crash_and_recover`] but with an injected fault
    /// model applied while building the durable image.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::CorruptLog`] from recovery.
    pub fn crash_and_recover_with(
        &self,
        faults: &CrashFaults,
    ) -> Result<(WordImage, RecoveryReport), SimError> {
        let mut image = self.crash_image_with(faults);
        let report = recover(&mut image, &self.layout, self.scheme, &self.threads)?;
        Ok((image, report))
    }

    /// Total trace-ring capacity across all components (0 when the
    /// machine was built without tracing — the "no buffers" guard).
    pub fn trace_capacity(&self) -> usize {
        self.cores.iter().map(Core::trace_capacity).sum::<usize>()
            + self.mc.trace_capacity()
            + self.cache_tracer.capacity()
    }

    /// Detaches everything the tracers captured. Returns `None` when the
    /// machine was built without tracing. Call after [`System::run`];
    /// tracing stops once the dumps are taken.
    pub fn take_trace_report(&mut self) -> Option<TraceReport> {
        let mut tracks = Vec::new();
        for core in &mut self.cores {
            tracks.extend(core.take_trace());
        }
        tracks.extend(self.mc.take_trace());
        tracks.extend(self.cache_tracer.take_dump());
        if tracks.is_empty() {
            None
        } else {
            Some(TraceReport { tracks, sample_interval: self.trace_sample_interval })
        }
    }

    /// Statistics snapshot, exact at any cycle: a sleeping core's stall
    /// cycles not yet credited are added to its copy.
    pub fn summary(&self) -> RunSummary {
        let (l1d, l2, l3) = self.caches.stats();
        let mut coherence = self.caches.coherence_stats().clone();
        coherence.lock_acquires = self.cores.iter().map(Core::lock_acquires).sum();
        let core = self
            .cores
            .iter()
            .zip(&self.sleep)
            .map(|(c, sleep)| {
                let mut stats = c.stats().clone();
                if let Some(s) = sleep {
                    s.credit.add_stalls(&mut stats, self.now - s.since);
                }
                stats
            })
            .collect();
        RunSummary {
            total_cycles: self
                .cores
                .iter()
                .map(|c| c.stats().cycles)
                .max()
                .unwrap_or(self.now)
                .max(if self.is_done() { 0 } else { self.now }),
            core,
            mem: self.mc.stats().clone(),
            l1d,
            l2,
            l3,
            coherence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_workloads::{generate, Benchmark, WorkloadParams};

    fn workload() -> GeneratedWorkload {
        generate(
            Benchmark::Queue,
            &WorkloadParams { threads: 1, init_ops: 20, sim_ops: 5, seed: 4 },
        )
    }

    #[test]
    fn run_until_stops_at_cycle_and_resumes() {
        let cfg = SystemConfig::skylake_like().with_num_cores(1);
        let mut sys = System::new(&cfg, LoggingSchemeKind::Proteus, &workload()).unwrap();
        assert!(!sys.run_until(50), "five transactions take more than 50 cycles");
        assert_eq!(sys.now(), 50);
        assert!(sys.run_until(u64::MAX / 2), "must finish eventually");
        let done_at = sys.now();
        // Further stepping is a no-op for completed cores.
        sys.step();
        assert!(sys.is_done());
        assert!(sys.summary().total_cycles <= done_at);
    }

    #[test]
    fn max_cycles_guard_trips() {
        let cfg = SystemConfig::skylake_like().with_num_cores(1);
        let mut sys = System::new(&cfg, LoggingSchemeKind::SwPmem, &workload()).unwrap();
        sys.set_max_cycles(10);
        assert!(matches!(sys.run(), Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn invalid_config_rejected_up_front() {
        let mut cfg = SystemConfig::skylake_like();
        cfg.num_cores = 0;
        assert!(matches!(
            System::new(&cfg, LoggingSchemeKind::NoLog, &workload()),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn run_until_persist_event_stops_at_the_requested_index() {
        let cfg = SystemConfig::skylake_like().with_num_cores(1);
        let mut sys = System::new(&cfg, LoggingSchemeKind::Proteus, &workload()).unwrap();
        sys.set_record_persist_events(true);
        assert!(sys.run_until_persist_event(3), "a queue workload persists plenty");
        assert!(sys.persist_seq() >= 3);
        assert_eq!(sys.persist_timeline().len() as u64, sys.persist_seq());
        let at_three = sys.persist_seq();
        // Running to completion keeps counting past the stop point.
        assert!(sys.run_until(u64::MAX / 2));
        assert!(sys.persist_seq() > at_three);
        // An index beyond the final count is unreachable once done.
        let total = sys.persist_seq();
        assert!(!sys.run_until_persist_event(total + 1));
    }

    #[test]
    fn contended_workloads_complete_with_correct_final_image() {
        use proteus_workloads::{generate_contended, ContendedKind, ContendedSpec};
        let cfg = SystemConfig::skylake_like().with_num_cores(2);
        for kind in
            [ContendedKind::MpmcQueue, ContendedKind::ContendedHashMap, ContendedKind::LockedBTree]
        {
            let w = generate_contended(
                &ContendedSpec { kind, early_release: false },
                &WorkloadParams { threads: 2, init_ops: 24, sim_ops: 12, seed: 7 },
            );
            let sharing = w.sharing.as_ref().expect("contended workloads carry a plan");
            // Data acquires: one per group; the B-tree's hand-over-hand
            // descent adds one aux (root) acquire per group.
            let per_group = if kind == ContendedKind::LockedBTree { 2 } else { 1 };
            let expected_acquires = (sharing.groups.len() * per_group) as u64;
            // Last committed write per address, in global schedule order,
            // is the expected final durable value (structures are
            // address-disjoint, so the cross-structure fold is sound).
            let mut expect = std::collections::HashMap::new();
            for g in &sharing.groups {
                for (a, v) in &g.writes {
                    expect.insert(*a, *v);
                }
            }
            for (si, scheme) in
                [LoggingSchemeKind::Proteus, LoggingSchemeKind::NoLog].into_iter().enumerate()
            {
                let mut sys = System::new(&cfg, scheme, &w).unwrap();
                if kind == ContendedKind::MpmcQueue && si == 0 {
                    // One cell (MQ under the first scheme) proves every
                    // skipped window was genuinely quiescent under
                    // inter-core lock waits.
                    sys.set_validate_skips(true);
                }
                let summary = sys
                    .run()
                    .unwrap_or_else(|e| panic!("{kind:?} under {scheme:?} must finish: {e:?}"));
                assert_eq!(
                    summary.coherence.lock_acquires, expected_acquires,
                    "{kind:?}/{scheme:?}: every ticket must be acquired exactly once"
                );
                assert!(
                    summary.coherence.remote_transfers > 0,
                    "{kind:?}/{scheme:?}: cross-thread sharing must move dirty lines"
                );
                let image = sys.crash_image();
                for (a, v) in &expect {
                    assert_eq!(
                        image.read_word(*a),
                        *v,
                        "{kind:?}/{scheme:?}: durable word {a} diverged from the schedule"
                    );
                }
            }
        }
    }

    #[test]
    fn crash_image_before_first_step_is_initial_memory() {
        let cfg = SystemConfig::skylake_like().with_num_cores(1);
        let w = workload();
        let sys = System::new(&cfg, LoggingSchemeKind::Proteus, &w).unwrap();
        assert_eq!(sys.crash_image(), w.initial_image);
        let (recovered, report) = sys.crash_and_recover().unwrap();
        assert_eq!(recovered, w.initial_image);
        assert!(report
            .outcomes
            .iter()
            .all(|(_, o)| matches!(o, proteus_core::recovery::ThreadOutcome::Clean)));
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn system_is_send() {
        // Experiment sweeps run systems on worker threads (C-SEND-SYNC).
        fn assert_send<T: Send>() {}
        assert_send::<System>();
        assert_send::<proteus_mem::MemoryController>();
        assert_send::<proteus_cache::CacheSystem>();
        assert_send::<proteus_cpu::Core>();
    }
}
