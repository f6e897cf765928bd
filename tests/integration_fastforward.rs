//! The engine contract: engine settings change wall-clock time only.
//! Every simulated outcome — the full `RunSummary` (cycles, per-queue
//! stalls, cache and memory counters) and the cycle-stamped
//! persist-event timeline — must be byte-identical with event-driven
//! fast-forwarding on and off, for every workload × scheme pair.

use proteus_sim::System;
use proteus_types::config::{LoggingSchemeKind, SystemConfig};
use proteus_types::stats::RunSummary;
use proteus_workloads::{generate, Benchmark, GeneratedWorkload, WorkloadParams};

fn small(bench: Benchmark) -> GeneratedWorkload {
    generate(bench, &WorkloadParams { threads: 2, init_ops: 100, sim_ops: 20, seed: 11 })
}

fn config() -> SystemConfig {
    SystemConfig::skylake_like().with_num_cores(2)
}

/// Runs `workload` under `scheme` with the requested engine mode and
/// returns everything externally observable about the run.
fn observe(
    workload: &GeneratedWorkload,
    scheme: LoggingSchemeKind,
    fast_forward: bool,
) -> (RunSummary, Vec<proteus_mem::PersistEvent>, u64) {
    observe_on(&config(), workload, scheme, fast_forward)
}

/// [`observe`] on the machine `cfg`.
fn observe_on(
    cfg: &SystemConfig,
    workload: &GeneratedWorkload,
    scheme: LoggingSchemeKind,
    fast_forward: bool,
) -> (RunSummary, Vec<proteus_mem::PersistEvent>, u64) {
    let mut system = System::new(cfg, scheme, workload).unwrap();
    system.set_fast_forward(fast_forward);
    system.set_record_persist_events(true);
    let summary = system.run().unwrap();
    let timeline = system.persist_timeline().to_vec();
    let now = system.now();
    (summary, timeline, now)
}

/// The headline determinism pin: identical summaries and identical
/// persist timelines (same events, same cycle stamps, same order) across
/// the whole workload table for both hardware schemes and the software
/// baseline.
#[test]
fn fast_forward_is_invisible_to_simulated_state() {
    for bench in Benchmark::TABLE2 {
        let workload = small(bench);
        for scheme in [
            LoggingSchemeKind::Atom,
            LoggingSchemeKind::Proteus,
            LoggingSchemeKind::Incll,
            LoggingSchemeKind::SwPmemPcommit,
        ] {
            let (sum_ff, tl_ff, _) = observe(&workload, scheme, true);
            let (sum_ss, tl_ss, _) = observe(&workload, scheme, false);
            assert_eq!(
                sum_ff, sum_ss,
                "{bench:?}/{scheme:?}: RunSummary diverged between engine modes"
            );
            assert_eq!(
                tl_ff, tl_ss,
                "{bench:?}/{scheme:?}: persist timeline diverged between engine modes"
            );
        }
    }
}

/// The same pin on the contended axis: inter-core sharing (coherence
/// traffic, invalidations, lock spins) must be modeled on clock edges
/// the fast-forward engine can see. Every contended workload × every
/// failure-safe scheme, byte-identical summaries and persist timelines.
#[test]
fn fast_forward_is_invisible_on_contended_workloads() {
    use proteus_workloads::{generate_contended, ContendedKind, ContendedSpec};
    let params = WorkloadParams { threads: 2, init_ops: 48, sim_ops: 10, seed: 11 };
    for kind in ContendedKind::ALL {
        let workload = generate_contended(&ContendedSpec { kind, early_release: false }, &params);
        for scheme in [
            LoggingSchemeKind::SwPmem,
            LoggingSchemeKind::SwPmemPcommit,
            LoggingSchemeKind::Atom,
            LoggingSchemeKind::ProteusNoLwr,
            LoggingSchemeKind::Proteus,
            LoggingSchemeKind::Incll,
        ] {
            let (sum_ff, tl_ff, now_ff) = observe(&workload, scheme, true);
            let (sum_ss, tl_ss, now_ss) = observe(&workload, scheme, false);
            assert_eq!(
                sum_ff, sum_ss,
                "{kind:?}/{scheme:?}: RunSummary diverged between engine modes"
            );
            assert_eq!(
                tl_ff, tl_ss,
                "{kind:?}/{scheme:?}: persist timeline diverged between engine modes"
            );
            assert_eq!(now_ff, now_ss, "{kind:?}/{scheme:?}: completion cycle diverged");
            assert!(
                sum_ff.coherence.lock_acquires > 0,
                "{kind:?}/{scheme:?}: contended run must acquire locks"
            );
        }
    }
}

/// Retry windows: cycles in which a component only retries an operation
/// a full queue rejects. SS on the 4-core, cache-scaled machine keeps
/// ATOM's and InCLL's WPQ pinned full and Proteus's log registers busy;
/// fast-forward must skip most of those cycles (the retries change only
/// counters, replayed in bulk), keep the machine fingerprint still in
/// every skipped cycle, and match single-stepping byte for byte.
#[test]
fn fast_forward_skips_full_queue_retry_windows() {
    use proteus_types::stats::StallCause;
    use proteus_workgen::roster;

    let d = roster::by_cli_name("ss").expect("roster workload");
    let workload = d.sel().generate(&d.params(4, 0.001));
    let cfg = SystemConfig::skylake_like().with_num_cores(4).with_cache_divisor(64);
    // Each scheme with the queue its cores wait behind: the LR file
    // (`true`) or the controller's WPQ.
    for (scheme, lr_bound) in [
        (LoggingSchemeKind::Atom, false),
        (LoggingSchemeKind::Proteus, true),
        (LoggingSchemeKind::Incll, false),
    ] {
        let run = |fast_forward: bool, validate_skips: bool| {
            let mut system = System::new(&cfg, scheme, &workload).unwrap();
            system.set_fast_forward(fast_forward);
            system.set_validate_skips(validate_skips);
            system.set_record_persist_events(true);
            let summary = system.run().unwrap();
            let steps = system.steps();
            ((summary, system.persist_timeline().to_vec(), system.now()), steps)
        };
        let (ff, steps_ff) = run(true, false);
        let (ss, _) = run(false, false);
        assert_eq!(ff.0, ss.0, "{scheme:?}: RunSummary diverged between engine modes");
        assert_eq!(ff.1, ss.1, "{scheme:?}: persist timeline diverged between engine modes");
        assert_eq!(ff.2, ss.2, "{scheme:?}: completion cycle diverged");
        // Single-steps every would-be skip and panics if the machine
        // fingerprint moves inside one.
        let (checked, _) = run(true, true);
        assert!(checked == ss, "{scheme:?}: validated run diverged from single-stepping");

        let summary = &ff.0;
        if lr_bound {
            let merged = summary.cores_merged();
            let lr_stalls = merged.stall(StallCause::LrFull) + merged.stall(StallCause::LoadQFull);
            assert!(lr_stalls > 0, "{scheme:?}: log-loads must stall on the LR file");
        } else {
            assert!(summary.mem.wpq_full_rejections > 0, "{scheme:?}: the WPQ must fill up");
        }
        // The paranoid build single-steps every skip, so only the normal
        // build can see how many cycles were skipped.
        if !cfg!(feature = "paranoid") {
            assert!(
                steps_ff * 4 <= summary.total_cycles * 3,
                "{scheme:?}: fast-forward stepped {steps_ff} of {} cycles",
                summary.total_cycles
            );
        }
    }
}

/// Per-core sleep: on the busy 4-core SS machine most cores spend most
/// cycles behind a full queue or a draining fence while another core or
/// the controller keeps the machine awake. Fast-forward must stop
/// ticking them (at most a third of the single-stepped core ticks) and
/// still match single-stepping byte for byte.
#[test]
fn stalled_cores_sleep_through_busy_cycles() {
    use proteus_workgen::roster;

    let d = roster::by_cli_name("ss").expect("roster workload");
    let workload = d.sel().generate(&d.params(4, 0.001));
    let cfg = SystemConfig::skylake_like().with_num_cores(4).with_cache_divisor(64);
    for scheme in [LoggingSchemeKind::Atom, LoggingSchemeKind::Proteus, LoggingSchemeKind::Incll] {
        let run = |fast_forward: bool, max_cycles: u64| {
            let mut system = System::new(&cfg, scheme, &workload).unwrap();
            system.set_fast_forward(fast_forward);
            system.set_max_cycles(max_cycles);
            system.set_record_persist_events(true);
            let summary = system.run().unwrap();
            let observed = (summary, system.persist_timeline().to_vec(), system.now());
            (observed, system.core_ticks())
        };
        let (ss, ticks_ss) = run(false, u64::MAX);
        // A core that never wakes fails the run instead of hanging it.
        let (ff, ticks_ff) = run(true, 2 * ss.2);
        assert_eq!(ff.0, ss.0, "{scheme:?}: RunSummary diverged between engine modes");
        assert_eq!(ff.1, ss.1, "{scheme:?}: persist timeline diverged between engine modes");
        assert_eq!(ff.2, ss.2, "{scheme:?}: completion cycle diverged");
        // The paranoid build ticks every sleeping core to check it.
        if !cfg!(feature = "paranoid") {
            assert!(
                ticks_ff * 3 <= ticks_ss,
                "{scheme:?}: fast-forward ticked cores {ticks_ff} times of {ticks_ss}"
            );
        }
    }
}

/// Statistics are exact wherever a run stops, not only at completion:
/// `summary()` after `run_until(c)` must match single-stepping at the
/// same cycle while cores are asleep with stall cycles not yet credited.
/// The contended workload puts lock waiters to sleep on a lock word
/// another core releases, a cache change that flips their stall cause
/// before they wake.
#[test]
fn mid_run_statistics_match_single_stepping() {
    use proteus_types::stats::StallCause;
    use proteus_workloads::{generate_contended, ContendedKind, ContendedSpec};

    let params = WorkloadParams { threads: 4, init_ops: 48, sim_ops: 16, seed: 11 };
    let contended = generate_contended(
        &ContendedSpec { kind: ContendedKind::MpmcQueue, early_release: false },
        &params,
    );
    let single_owner = generate(Benchmark::Queue, &params);
    let cfg = SystemConfig::skylake_like().with_num_cores(4);
    for (name, workload) in [("QE", &single_owner), ("MQ", &contended)] {
        for scheme in [LoggingSchemeKind::Atom, LoggingSchemeKind::Proteus] {
            let total = observe_on(&cfg, workload, scheme, false).2;
            let machine = |fast_forward: bool| {
                let mut system = System::new(&cfg, scheme, workload).unwrap();
                system.set_fast_forward(fast_forward);
                // A core that never wakes fails the run instead of
                // hanging it.
                system.set_max_cycles(2 * total);
                system
            };
            let (mut ff, mut ss) = (machine(true), machine(false));
            for k in 1..8 {
                let c = total * k / 8;
                assert_eq!(ff.run_until(c), ss.run_until(c));
                assert_eq!(
                    ff.summary().core,
                    ss.summary().core,
                    "{name}/{scheme:?}: core statistics at cycle {c}"
                );
            }
            let ff_last = ff.run().unwrap();
            assert_eq!(ff_last, ss.run().unwrap(), "{name}/{scheme:?}: RunSummary diverged");
            if name == "MQ" {
                let waits = ff_last.cores_merged().stall(StallCause::LockWait);
                assert!(waits > 0, "{name}/{scheme:?}: cores must wait on locks");
            }
        }
    }
}

/// Fast-forwarding must not change where `run_until` lands or what the
/// crash image holds at an intermediate persist event.
#[test]
fn fast_forward_preserves_crash_points() {
    let workload = small(Benchmark::Queue);
    for scheme in [LoggingSchemeKind::Atom, LoggingSchemeKind::Proteus] {
        let image = |ff: bool| {
            let mut system = System::new(&config(), scheme, &workload).unwrap();
            system.set_fast_forward(ff);
            assert!(system.run_until_persist_event(5), "queue workload persists plenty");
            (system.now(), system.persist_seq(), system.crash_image())
        };
        assert_eq!(image(true), image(false), "{scheme:?}: crash point diverged");
    }
}

/// The `next_event_cycle` contract — no component may report a wake
/// later than its first actual state change. Validation mode
/// single-steps through every would-be skip and ticks every sleeping
/// core, asserting the machine fingerprint holds still, so an
/// over-report panics the run. A tree's pointer chase and SS under
/// Proteus park loads and log-loads behind older loads.
#[test]
fn next_event_cycle_never_over_reports() {
    let tiny =
        |bench| generate(bench, &WorkloadParams { threads: 2, init_ops: 60, sim_ops: 12, seed: 3 });
    let queue = tiny(Benchmark::Queue);
    let tree = tiny(Benchmark::AvlTree);
    let swap = tiny(Benchmark::StringSwap);
    for (workload, scheme) in [
        (&queue, LoggingSchemeKind::Proteus),
        (&queue, LoggingSchemeKind::Atom),
        (&queue, LoggingSchemeKind::SwPmemPcommit),
        (&tree, LoggingSchemeKind::Proteus),
        (&swap, LoggingSchemeKind::Proteus),
    ] {
        let mut system = System::new(&config(), scheme, workload).unwrap();
        system.set_fast_forward(true);
        system.set_validate_skips(true);
        system.run().unwrap();
    }
}

/// The engine must actually skip: on a quiescent stretch the next wake
/// point is strictly in the future, and a fast-forwarded run reaches the
/// same completion cycle as a single-stepped one while ticking fewer
/// cycles.
#[test]
fn engine_skips_and_lands_on_the_same_final_cycle() {
    let workload = small(Benchmark::Queue);
    let run = |fast_forward: bool| {
        let mut system = System::new(&config(), LoggingSchemeKind::Proteus, &workload).unwrap();
        system.set_fast_forward(fast_forward);
        system.run().unwrap();
        (system.now(), system.steps())
    };
    let (now_ff, steps_ff) = run(true);
    let (now_ss, steps_ss) = run(false);
    assert_eq!(now_ff, now_ss, "completion cycle must not depend on the engine");
    assert_eq!(steps_ss, now_ss, "single-stepping must tick every cycle");
    // The paranoid build single-steps every skip, so only the normal
    // build ticks fewer cycles than it simulates.
    if !cfg!(feature = "paranoid") {
        assert!(steps_ff < now_ff, "fast-forward ticked all {now_ff} cycles");
    }

    // Wake points are monotone and honoured: from a fresh machine,
    // repeatedly jumping to next_wake() must make progress and never
    // schedule into the past.
    let mut system = System::new(&config(), LoggingSchemeKind::Proteus, &workload).unwrap();
    system.set_fast_forward(true);
    let mut skipped_any = false;
    for _ in 0..10_000 {
        if system.is_done() {
            break;
        }
        let before = system.now();
        let wake = system.next_wake().expect("unfinished machine must have a wake point");
        assert!(wake >= before, "wake point scheduled into the past");
        skipped_any |= wake > before + 1;
        system.run_until(wake.max(before + 1));
    }
    assert!(skipped_any, "a queue workload must contain at least one skippable window");
}

/// One traced run, in a form two engine modes can be compared in: the
/// `RunSummary`, and per track its name, drop count, histograms, per-cause
/// stall cycles and transaction records, with its events beside them.
/// Events compare as a multiset (sorted): a `Reject` stamped inside a
/// skipped window enters the ring at the next tick, after the samples that
/// tick backfilled, so ring order may differ where content does not.
fn traced_run(
    cfg: &SystemConfig,
    workload: &GeneratedWorkload,
    scheme: LoggingSchemeKind,
    fast_forward: bool,
) -> (RunSummary, Vec<(String, Vec<String>)>) {
    let mut system = System::new_with_trace(cfg, scheme, workload, true).unwrap();
    system.set_fast_forward(fast_forward);
    let summary = system.run().unwrap();
    let report = system.take_trace_report().expect("tracing was on");
    report.check_against(&summary).unwrap();
    let tracks = report
        .tracks
        .iter()
        .map(|t| {
            let mut events: Vec<String> = t.events.iter().map(|e| format!("{e:?}")).collect();
            events.sort_unstable();
            let head = format!(
                "{} dropped={} occupancy={:?} wait={:?} stalls={:?} txs={:?}",
                t.name(),
                t.dropped_oldest,
                t.occupancy,
                t.wait,
                t.stall_cycles,
                t.tx_records
            );
            (head, events)
        })
        .collect();
    assert_eq!(report.total_dropped(), 0, "{scheme:?}: the rings must hold the whole run");
    (summary, tracks)
}

/// Tracing is observation of the one engine: a traced run sleeps and
/// jumps like an untraced one, its `RunSummary` equals the untraced run's,
/// and its trace is the single-stepped run's trace. Stall runs extended
/// by slept cycles, grid samples backfilled across jumps, one `Reject` per
/// waiting request and the blocked `tx-end` split all replay exactly. SS
/// under Proteus sleeps behind the LR file with LLT retries credited;
/// contended MQ under ATOM puts lock waiters to sleep.
#[test]
fn a_traced_run_is_the_same_with_fast_forward_on_and_off() {
    use proteus_workgen::roster;
    use proteus_workloads::{generate_contended, ContendedKind, ContendedSpec};

    let queue = small(Benchmark::Queue);
    let d = roster::by_cli_name("ss").expect("roster workload");
    let swap = d.sel().generate(&d.params(4, 0.001));
    let mq = generate_contended(
        &ContendedSpec { kind: ContendedKind::MpmcQueue, early_release: false },
        &WorkloadParams { threads: 4, init_ops: 48, sim_ops: 16, seed: 11 },
    );
    let four = SystemConfig::skylake_like().with_num_cores(4);
    for (name, cfg, workload, scheme) in [
        ("QE", config(), &queue, LoggingSchemeKind::Atom),
        ("QE", config(), &queue, LoggingSchemeKind::Proteus),
        ("QE", config(), &queue, LoggingSchemeKind::SwPmemPcommit),
        ("SS", four.clone().with_cache_divisor(64), &swap, LoggingSchemeKind::Proteus),
        ("MQ", four, &mq, LoggingSchemeKind::Atom),
    ] {
        let untraced = System::new(&cfg, scheme, workload).unwrap().run().unwrap();
        let (sum_ff, trace_ff) = traced_run(&cfg, workload, scheme, true);
        let (sum_ss, trace_ss) = traced_run(&cfg, workload, scheme, false);
        assert_eq!(sum_ff, untraced, "{name}/{scheme:?}: tracing changed the RunSummary");
        assert_eq!(sum_ss, untraced, "{name}/{scheme:?}: engine mode changed the RunSummary");
        assert_eq!(trace_ff.len(), trace_ss.len());
        for ((head_ff, events_ff), (head_ss, events_ss)) in trace_ff.iter().zip(&trace_ss) {
            assert_eq!(head_ff, head_ss, "{name}/{scheme:?}: track diverged between engine modes");
            let first = events_ff.iter().zip(events_ss).position(|(a, b)| a != b);
            assert!(
                events_ff == events_ss,
                "{name}/{scheme:?}: {} events with fast-forward, {} without; first difference \
                 (sorted) at {first:?} on track {}",
                events_ff.len(),
                events_ss.len(),
                head_ff.split(' ').next().unwrap_or_default()
            );
        }
    }
}
