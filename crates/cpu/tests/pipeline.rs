//! End-to-end pipeline tests: one core + caches + memory controller
//! executing every logging scheme, with functional-correctness and
//! crash-recovery checks.

use proteus_cache::CacheSystem;
use proteus_core::layout::AddressLayout;
use proteus_core::pmem::WordImage;
use proteus_core::program::Program;
use proteus_core::recovery::recover;
use proteus_core::scheme::{expand_program_with, registry, ExpandOptions};
use proteus_cpu::core::{Core, MC_LINK_DELAY, MISS_PATH_DELAY};
use proteus_mem::{LogDrainMode, McEvent, McRequest, MemoryController};
use proteus_types::clock::Cycle;
use proteus_types::config::{LoggingSchemeKind, SystemConfig};
use proteus_types::{Addr, CoreId, ThreadId};
use std::sync::Arc;

struct Rig {
    core: Core,
    caches: CacheSystem,
    mc: MemoryController,
    inbox: Vec<(Cycle, McEvent)>,
    now: Cycle,
    /// Every request the core handed the controller, with the cycle.
    sent: Vec<(Cycle, McRequest)>,
    /// Every event delivered to the core, with the cycle.
    delivered: Vec<(Cycle, McEvent)>,
}

fn layout() -> AddressLayout {
    AddressLayout { log_area_entries: 1024, ..AddressLayout::default() }
}

fn build(scheme: LoggingSchemeKind, program: &Program, initial: &WordImage) -> Rig {
    let cfg = SystemConfig::skylake_like().with_num_cores(1);
    let layout = layout();
    let opts = ExpandOptions { initial_image: Arc::new(initial.clone()), ..Default::default() };
    let trace = expand_program_with(program, scheme, &layout, &opts).expect("expansion");
    let caches = CacheSystem::new(&cfg);
    let drain_mode = match registry::descriptor(scheme).drain {
        registry::DrainPolicy::KeepUntilCommit => LogDrainMode::KeepUntilCommit,
        registry::DrainPolicy::DrainAlways => LogDrainMode::DrainAlways,
    };
    let mut mc = MemoryController::new(cfg.mem.clone(), layout.clone(), drain_mode);
    mc.load_image(initial.clone());
    let core = Core::new(CoreId::new(0), &cfg, scheme, &layout, trace);
    Rig::new(core, caches, mc)
}

impl Rig {
    fn new(core: Core, caches: CacheSystem, mc: MemoryController) -> Self {
        Rig { core, caches, mc, inbox: Vec::new(), now: 0, sent: Vec::new(), delivered: Vec::new() }
    }

    fn step(&mut self) {
        let now = self.now;
        self.core.tick(now, &mut self.caches);
        let mut requests = Vec::new();
        self.core.drain_requests_into(&mut requests);
        for (at, req) in requests {
            self.sent.push((now, req.clone()));
            self.mc.submit(req, at);
        }
        self.mc.tick(now);
        for ev in self.mc.drain_events() {
            self.inbox.push((ev.at() + MC_LINK_DELAY, ev));
        }
        let mut pending = Vec::new();
        for (at, ev) in std::mem::take(&mut self.inbox) {
            if at <= now {
                self.core.handle_event(&ev, now, &mut self.caches);
                self.delivered.push((now, ev));
            } else {
                pending.push((at, ev));
            }
        }
        self.inbox = pending;
        self.now += 1;
    }

    fn run_to_completion(&mut self) -> Cycle {
        while !self.core.is_done() {
            assert!(self.now < 50_000_000, "simulation did not terminate");
            self.step();
        }
        self.now
    }

    /// After the core finishes, lets the memory controller write out its
    /// remaining queued work (for write-count assertions).
    fn drain_mc(&mut self) {
        while !self.mc.is_quiescent() || !self.inbox.is_empty() {
            assert!(self.now < 50_000_000, "controller did not drain");
            self.step();
        }
    }
}

fn data_region_diff(a: &WordImage, b: &WordImage, layout: &AddressLayout) -> Vec<Addr> {
    a.diff(b)
        .into_iter()
        .filter(|addr| {
            layout.log_area_owner(*addr).is_none()
                && *addr < layout.log_base
                && !(layout.log_header_base <= *addr
                    && *addr < layout.log_header_base.offset(64 * 16))
        })
        .collect()
}

fn two_tx_program() -> (Program, WordImage) {
    let mut initial = WordImage::new();
    let a = Addr::new(0x1000_0000);
    let b = Addr::new(0x1000_0100);
    let c = Addr::new(0x1000_0200);
    initial.write_word(a, 0xA0);
    initial.write_word(b, 0xB0);
    initial.write_word(c, 0xC0);
    let mut p = Program::new(ThreadId::new(0));
    p.tx_begin(vec![a, b]);
    p.read(a);
    p.write(a, 0xA1);
    p.write(b, 0xB1);
    p.tx_end();
    p.compute(5);
    p.tx_begin(vec![b, c]);
    p.write(b, 0xB2);
    p.write(c, 0xC2);
    p.tx_end();
    (p, initial)
}

#[test]
fn every_scheme_executes_and_lands_correct_data() {
    let (program, initial) = two_tx_program();
    let mut expected = initial.clone();
    program.apply_functionally(&mut expected);
    for scheme in LoggingSchemeKind::ALL {
        let mut rig = build(scheme, &program, &initial);
        rig.run_to_completion();
        let image = rig.mc.crash_image();
        let diff = data_region_diff(&image, &expected, &layout());
        assert!(diff.is_empty(), "{scheme:?}: data mismatch at {diff:?}");
    }
}

#[test]
fn scheme_performance_ordering_matches_paper() {
    let (program, initial) = two_tx_program();
    let cycles = |scheme| {
        let mut rig = build(scheme, &program, &initial);
        rig.run_to_completion()
    };
    let sw = cycles(LoggingSchemeKind::SwPmem);
    let sw_pcommit = cycles(LoggingSchemeKind::SwPmemPcommit);
    let proteus = cycles(LoggingSchemeKind::Proteus);
    let nolog = cycles(LoggingSchemeKind::NoLog);
    assert!(sw_pcommit > sw, "pcommit must cost extra: {sw_pcommit} <= {sw}");
    assert!(sw > proteus, "software logging must cost more than Proteus: {sw} <= {proteus}");
    assert!(proteus >= nolog, "nothing beats no logging: {proteus} < {nolog}");
}

#[test]
fn proteus_drops_log_writes_atom_does_not() {
    let (program, initial) = two_tx_program();
    let mut proteus = build(LoggingSchemeKind::Proteus, &program, &initial);
    proteus.run_to_completion();
    assert_eq!(
        proteus.mc.stats().nvmm_log_writes,
        0,
        "Proteus LWR must keep log writes out of NVMM"
    );
    assert!(proteus.mc.stats().lpq_flash_cleared > 0);

    let mut atom = build(LoggingSchemeKind::Atom, &program, &initial);
    atom.run_to_completion();
    atom.drain_mc();
    let s = atom.mc.stats();
    assert!(
        s.nvmm_log_writes + s.nvmm_log_invalidation_writes >= 4,
        "ATOM must write and truncate log entries in NVMM, got {s:?}"
    );

    let mut nolwr = build(LoggingSchemeKind::ProteusNoLwr, &program, &initial);
    nolwr.run_to_completion();
    nolwr.drain_mc();
    assert!(nolwr.mc.stats().nvmm_log_writes > 0, "NoLWR drains log entries to NVMM");
}

#[test]
fn llt_elides_repeated_grain_logging() {
    let node = Addr::new(0x1000_0000);
    let mut initial = WordImage::new();
    initial.write_word(node, 1);
    let mut p = Program::new(ThreadId::new(0));
    p.tx_begin(vec![node]);
    // Four stores into the same 32-byte grain.
    for i in 0..4 {
        p.write(node.offset(i * 8), i + 10);
    }
    p.tx_end();
    let mut rig = build(LoggingSchemeKind::Proteus, &p, &initial);
    rig.run_to_completion();
    let stats = rig.core.stats();
    assert_eq!(stats.log_flushes, 4);
    assert_eq!(stats.log_flushes_elided, 3, "LLT must elide repeats");
    assert_eq!(stats.llt_lookups, 4);
    assert_eq!(stats.llt_hits, 3);
    // Only one log entry ever went to the LPQ.
    assert_eq!(rig.mc.stats().lpq_inserts, 1);
}

#[test]
fn sw_logging_executes_many_more_uops() {
    let (program, initial) = two_tx_program();
    let count = |scheme| {
        let mut rig = build(scheme, &program, &initial);
        rig.run_to_completion();
        rig.core.stats().uops_retired
    };
    let sw = count(LoggingSchemeKind::SwPmem);
    let nolog = count(LoggingSchemeKind::NoLog);
    let proteus = count(LoggingSchemeKind::Proteus);
    assert!(sw > 2 * nolog, "SW logging instruction overhead too low: {sw} vs {nolog}");
    assert!(proteus < sw, "Proteus executes fewer instructions than SW");
}

/// Crash the machine at `crash_cycle`, recover, and return the recovered
/// image.
fn crash_and_recover(
    scheme: LoggingSchemeKind,
    program: &Program,
    initial: &WordImage,
    crash_cycle: Cycle,
) -> WordImage {
    let mut rig = build(scheme, program, initial);
    while !rig.core.is_done() && rig.now < crash_cycle {
        rig.step();
    }
    let mut image = rig.mc.crash_image();
    recover(&mut image, &layout(), scheme, &[ThreadId::new(0)]).expect("recovery");
    image
}

#[test]
fn crash_recovery_is_atomic_at_every_probe_point() {
    let (program, initial) = two_tx_program();
    // Functional states after 0, 1, 2 transactions.
    let state0 = initial.clone();
    let mut state1 = initial.clone();
    {
        let mut p1 = Program::new(ThreadId::new(0));
        p1.tx_begin(vec![Addr::new(0x1000_0000), Addr::new(0x1000_0100)]);
        p1.write(Addr::new(0x1000_0000), 0xA1);
        p1.write(Addr::new(0x1000_0100), 0xB1);
        p1.tx_end();
        p1.apply_functionally(&mut state1);
    }
    let mut state2 = initial.clone();
    program.apply_functionally(&mut state2);
    let states = [&state0, &state1, &state2];

    for scheme in [
        LoggingSchemeKind::SwPmem,
        LoggingSchemeKind::Atom,
        LoggingSchemeKind::Proteus,
        LoggingSchemeKind::ProteusNoLwr,
    ] {
        // Find the total runtime, then probe a grid of crash points.
        let total = {
            let mut rig = build(scheme, &program, &initial);
            rig.run_to_completion()
        };
        for k in 0..24 {
            let crash_cycle = total * k / 23 + 1;
            let recovered = crash_and_recover(scheme, &program, &initial, crash_cycle);
            let ok = states.iter().any(|s| data_region_diff(&recovered, s, &layout()).is_empty());
            assert!(
                ok,
                "{scheme:?}: crash at {crash_cycle}/{total} recovered to a state \
                 that is none of the transaction boundaries"
            );
        }
    }
}

#[test]
fn front_end_stalls_higher_for_atom_than_proteus() {
    // A store-heavy workload where ATOM's retirement serialisation bites.
    let mut initial = WordImage::new();
    let base = Addr::new(0x1000_0000);
    let mut p = Program::new(ThreadId::new(0));
    for t in 0..20u64 {
        let hints: Vec<Addr> = (0..4).map(|i| base.offset(t * 512 + i * 64)).collect();
        for h in &hints {
            initial.write_word(*h, t);
        }
        p.tx_begin(hints.clone());
        for h in &hints {
            p.write(*h, t + 100);
        }
        p.tx_end();
    }
    let stalls = |scheme| {
        let mut rig = build(scheme, &p, &initial);
        rig.run_to_completion();
        rig.core.stats().total_stall_cycles()
    };
    let atom = stalls(LoggingSchemeKind::Atom);
    let proteus = stalls(LoggingSchemeKind::Proteus);
    assert!(atom > proteus, "ATOM must stall the front-end more than Proteus: {atom} <= {proteus}");
}

#[test]
fn id_encoding_roundtrips_across_cores() {
    use proteus_cpu::core::{decode_core, decode_local, encode_id};
    for core in [0u32, 1, 3, 255] {
        for local in [0u64, 1, 0xFFFF, 0xFFFF_FFFF] {
            let id = encode_id(CoreId::new(core), local);
            assert_eq!(decode_core(id), CoreId::new(core));
            assert_eq!(decode_local(id), local);
        }
    }
    // Distinct cores never collide even with equal locals.
    assert_ne!(encode_id(CoreId::new(0), 7), encode_id(CoreId::new(1), 7));
}

#[test]
fn log_save_forces_log_entries_to_nvmm() {
    // §4.4: a context switch (log-save) drains the thread's LPQ entries
    // to NVMM and clears the LLT, so another thread cannot observe stale
    // elision state and the log is durable across the switch.
    let node = Addr::new(0x1000_0000);
    let mut initial = WordImage::new();
    initial.write_word(node, 5);
    let mut p = Program::new(ThreadId::new(0));
    p.tx_begin(vec![node]);
    p.write(node, 6);
    p.tx_end();
    let layout_v = layout();
    let opts = ExpandOptions { initial_image: Arc::new(initial.clone()), ..Default::default() };
    let mut trace = expand_program_with(&p, LoggingSchemeKind::Proteus, &layout_v, &opts).unwrap();
    // Splice a log-save between the flush and the commit: the entry must
    // hit NVMM even though the transaction later flash-clears.
    let store_pos =
        trace.uops.iter().position(|u| matches!(u, proteus_core::isa::Uop::Store { .. })).unwrap();
    trace.uops.insert(store_pos, proteus_core::isa::Uop::LogSave);

    let cfg = SystemConfig::skylake_like().with_num_cores(1);
    let caches = proteus_cache::CacheSystem::new(&cfg);
    let mut mc = proteus_mem::MemoryController::new(
        cfg.mem.clone(),
        layout_v.clone(),
        proteus_mem::LogDrainMode::KeepUntilCommit,
    );
    mc.load_image(initial);
    let core =
        proteus_cpu::Core::new(CoreId::new(0), &cfg, LoggingSchemeKind::Proteus, &layout_v, trace);
    let mut rig = Rig::new(core, caches, mc);
    rig.run_to_completion();
    rig.drain_mc();
    assert!(
        rig.mc.stats().nvmm_log_writes >= 1,
        "log-save must force the in-flight log entry to NVMM: {:?}",
        rig.mc.stats()
    );
}

/// `n` lines no earlier access has cached, one per 2 KiB controller row,
/// so consecutive ones sit in different banks and their fetches can
/// overlap.
fn cold_lines(n: u64) -> Vec<Addr> {
    (0..n).map(|i| Addr::new(0x2000_0000 + i * 2048)).collect()
}

#[test]
fn dependent_reads_serialise_and_plain_reads_overlap() {
    // A pointer chase (`read_dep`) issues each load only once every older
    // load has completed, so N cold misses cost N round trips; plain reads
    // all go out at dispatch and overlap.
    const N: u64 = 8;
    let cycles = |dependent: bool| {
        let mut p = Program::new(ThreadId::new(0));
        for a in cold_lines(N) {
            if dependent {
                p.read_dep(a);
            } else {
                p.read(a);
            }
        }
        let mut rig = build(LoggingSchemeKind::NoLog, &p, &WordImage::new());
        rig.run_to_completion()
    };
    let chased = cycles(true);
    let overlapped = cycles(false);
    // A miss round trip is at least the request's path to the controller
    // plus the response link, before any device time.
    let round_trip = MISS_PATH_DELAY + MC_LINK_DELAY;
    assert!(chased >= N * round_trip, "{N} dependent misses took only {chased} cycles");
    assert!(
        overlapped * 4 < chased,
        "plain reads must overlap: {overlapped} cycles against {chased} chased"
    );
}

#[test]
fn proteus_log_load_waits_for_older_loads() {
    // The second transaction's `log-load` of `b` follows a cold load of
    // `a`. `b` is cached by then (the first transaction wrote it), so only
    // the ordering rule keeps the log-load, and the log flush it feeds,
    // from going out before `a`'s data returns.
    let b = Addr::new(0x1000_0000);
    let a = cold_lines(1)[0];
    let mut initial = WordImage::new();
    initial.write_word(b, 1);
    let mut p = Program::new(ThreadId::new(0));
    p.tx_begin(vec![b]);
    p.write(b, 2);
    p.tx_end();
    p.tx_begin(vec![b]);
    p.read(a);
    p.write(b, 3);
    p.tx_end();
    let mut rig = build(LoggingSchemeKind::Proteus, &p, &initial);
    rig.run_to_completion();

    let a_req = rig
        .sent
        .iter()
        .find_map(|(_, r)| match r {
            McRequest::Read { line, req_id } if *line == a.line() => Some(*req_id),
            _ => None,
        })
        .expect("the load of a misses");
    let a_done = rig
        .delivered
        .iter()
        .find_map(|(at, ev)| match ev {
            McEvent::ReadDone { req_id, .. } if *req_id == a_req => Some(*at),
            _ => None,
        })
        .expect("a's data returns");
    let flushes: Vec<Cycle> = rig
        .sent
        .iter()
        .filter(|(_, r)| matches!(r, McRequest::LogFlush { .. }))
        .map(|(at, _)| *at)
        .collect();
    assert_eq!(flushes.len(), 2, "one log flush per transaction");
    assert!(
        flushes[1] >= a_done,
        "the second log flush went out at {} before a's data returned at {a_done}",
        flushes[1]
    );
    // `b` was never fetched again: the log-load hit once it issued.
    let b_reads = rig
        .sent
        .iter()
        .filter(|(_, r)| matches!(r, McRequest::Read { line, .. } if *line == b.line()))
        .count();
    assert_eq!(b_reads, 1, "b stays cached across the transactions");
}
