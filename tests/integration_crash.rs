//! End-to-end tests of the crash-point exploration engine.
//!
//! Three pillars:
//!
//! 1. **Soundness** — every failure-safe scheme survives systematic
//!    crash-point exploration (clean and torn-line faults) with zero
//!    violations, and the prefix-drain fault that *exceeds* the ADR
//!    guarantee is detected (the checker can see real torn states).
//! 2. **Self-validation** — the deliberately broken
//!    `disable_persist_ordering` core is caught, shrunk to a minimal
//!    repro, and the repro replays through its JSON artifact.
//! 3. **Double crashes** — crashing *during recovery* at every durable
//!    recovery write, then recovering again, converges to the same
//!    consistent state for both the logFlag and commit-marker protocols.

use proteus_core::recovery::{recover, recover_with_budget};
use proteus_crash::{
    choose_points, explore, shrink, sweep, CrashRepro, ExploreSpec, FaultSpec, WorkloadOracle,
};
use proteus_harness::SweepOptions;
use proteus_sim::System;
use proteus_types::config::{LoggingSchemeKind, SystemConfig};
use proteus_workloads::{generate, Benchmark, ContendedKind, ContendedSpec, WorkloadParams};

const FAILURE_SAFE: [LoggingSchemeKind; 4] = [
    LoggingSchemeKind::SwPmem,
    LoggingSchemeKind::Atom,
    LoggingSchemeKind::Proteus,
    LoggingSchemeKind::ProteusNoLwr,
];

fn small_params(threads: usize) -> WorkloadParams {
    WorkloadParams { threads, init_ops: 40, sim_ops: 6, seed: 23 }
}

#[test]
fn every_failure_safe_scheme_survives_clean_exploration() {
    for scheme in FAILURE_SAFE {
        let spec = ExploreSpec::new(Benchmark::Queue, small_params(2), scheme, 48);
        let outcome = explore(&spec).unwrap();
        assert!(outcome.total_events > 0, "{scheme:?}: no persist events");
        assert!(outcome.points_explored > 0);
        assert!(outcome.is_consistent(), "{scheme:?} violated at {:?}", outcome.violations.first());
    }
}

#[test]
fn torn_line_writes_are_masked_by_the_adr_drain() {
    // In-service entries stay queue-resident until the bank write
    // completes, so a full drain papers over any torn line. A violation
    // here means the controller started acking early — a real bug.
    for mask in [0x00, 0x0F, 0xAA] {
        let spec = ExploreSpec {
            fault: FaultSpec::TornLine { mask },
            ..ExploreSpec::new(Benchmark::HashMap, small_params(2), LoggingSchemeKind::Proteus, 32)
        };
        let outcome = explore(&spec).unwrap();
        assert!(outcome.is_consistent(), "mask {mask:#x}: {:?}", outcome.violations.first());
    }
}

#[test]
fn prefix_only_adr_drain_is_detected() {
    // A partial battery drain exceeds the ADR guarantee: a strict prefix
    // of each queue survives, so acknowledged-durable writes vanish while
    // later state (a stale log, a commit marker) may survive. Dropping
    // *everything* is ironically consistent — it rewinds to an earlier
    // boundary — so the positive control scans intermediate survivor
    // counts until the checker sees a genuinely torn state. This proves
    // the oracle can fail.
    let mut caught = 0usize;
    for (wpq_keep, lpq_keep) in [(1, 1), (0, 0), (2, 1), (1, 0)] {
        let spec = ExploreSpec {
            fault: FaultSpec::PartialAdr { wpq_keep, lpq_keep },
            ..ExploreSpec::new(Benchmark::Queue, small_params(2), LoggingSchemeKind::Proteus, 96)
        };
        assert!(!spec.fault.expects_consistency());
        caught += explore(&spec).unwrap().violations.len();
    }
    assert!(caught > 0, "partial ADR drains must tear at least one state");
}

#[test]
fn broken_persist_ordering_is_caught_shrunk_and_replayed() {
    // The deliberately broken core: stores release before their log
    // entry is durable, and ready log flushes are buffered until the
    // commit fence. Crashing between a store's durability and its log
    // entry's leaves a torn state no recovery can fix — exploration MUST
    // see it, shrink must minimise it, and the JSON artifact must replay.
    // (Not every seed tears: a tx whose only *content-changing* line is
    // written atomically survives even broken ordering. Seed 7 produces
    // multi-line mutations whose write-backs split across cycles.)
    let spec = ExploreSpec {
        broken_ordering: true,
        ..ExploreSpec::new(
            Benchmark::Queue,
            WorkloadParams { threads: 1, init_ops: 40, sim_ops: 8, seed: 7 },
            LoggingSchemeKind::Proteus,
            256,
        )
    };
    let outcome = explore(&spec).unwrap();
    assert!(
        !outcome.violations.is_empty(),
        "the broken-ordering knob must be caught ({} points over {} events)",
        outcome.points_explored,
        outcome.total_events
    );

    let repro = shrink(&spec).unwrap().expect("violating spec must shrink");
    assert!(repro.spec.params.sim_ops <= spec.params.sim_ops);
    assert!(repro.spec.params.init_ops <= spec.params.init_ops);

    // Round-trip through the artifact file, then replay from scratch.
    let path =
        std::env::temp_dir().join(format!("proteus-crash-selftest-{}.json", std::process::id()));
    repro.save(&path).unwrap();
    let loaded = CrashRepro::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(loaded, repro);
    let replay = loaded.replay().unwrap();
    assert!(replay.violated, "shrunk repro must reproduce: {}", replay.detail);
}

#[test]
fn fixed_proteus_passes_where_broken_proteus_fails() {
    // Same workload, same crash points, knob off: zero violations. This
    // pins that the detection above is the knob's fault, not noise.
    let spec = ExploreSpec::new(
        Benchmark::Queue,
        WorkloadParams { threads: 1, init_ops: 40, sim_ops: 8, seed: 7 },
        LoggingSchemeKind::Proteus,
        256,
    );
    let outcome = explore(&spec).unwrap();
    assert!(outcome.is_consistent(), "{:?}", outcome.violations.first());
}

#[test]
fn every_failure_safe_scheme_survives_contended_exploration() {
    // The cross-thread pillar: inter-core sharing through ticket locks
    // must not open any crash window the oracle can see. Each contended
    // structure is explored under every failure-safe scheme; the oracle
    // takes its commit groups from the workload's sharing plan and
    // matches each structure against prefixes in lock-handoff order.
    let params = WorkloadParams { threads: 2, init_ops: 48, sim_ops: 10, seed: 5 };
    for kind in ContendedKind::ALL {
        for scheme in FAILURE_SAFE {
            let spec = ExploreSpec::new(
                ContendedSpec { kind, early_release: false },
                params.clone(),
                scheme,
                32,
            );
            let outcome = explore(&spec).unwrap();
            assert!(outcome.total_events > 0, "{kind:?}/{scheme:?}: no persist events");
            assert!(
                outcome.is_consistent(),
                "{kind:?}/{scheme:?} violated at {:?}",
                outcome.violations.first()
            );
        }
    }
}

#[test]
fn early_lock_release_is_caught_by_the_cross_thread_oracle() {
    // Oracle self-test: the `early_release` knob drops the data-lock
    // release store *before* the transaction, so a successor thread can
    // commit writes whose predecessor never became durable. Crashing in
    // that window leaves a structure state matching no commit prefix —
    // only commit groups in lock-handoff order can see this (each
    // thread's own transactions are locally consistent). Exploration
    // MUST catch it, and the violation must name the prefix check.
    let params = WorkloadParams { threads: 3, init_ops: 64, sim_ops: 16, seed: 9 };
    let mut caught = 0usize;
    for kind in ContendedKind::ALL {
        let spec = ExploreSpec::new(
            ContendedSpec { kind, early_release: true },
            params.clone(),
            LoggingSchemeKind::Proteus,
            256,
        );
        let outcome = explore(&spec).unwrap();
        caught += outcome.violations.len();
        for v in &outcome.violations {
            assert!(
                v.detail.contains("commit prefix") || v.detail.contains("program order"),
                "unexpected violation shape: {}",
                v.detail
            );
        }
    }
    assert!(caught > 0, "the early-release fault knob must tear at least one state");
}

#[test]
fn double_crash_during_recovery_is_idempotent() {
    // Crash mid-run, then crash *during recovery* after every possible
    // durable recovery write, then recover again. Both protocols promise
    // convergence: logFlag via the flag clear, txID via the stamped
    // commit marker.
    for scheme in [LoggingSchemeKind::SwPmem, LoggingSchemeKind::Proteus] {
        let params = small_params(1);
        let workload = generate(Benchmark::RbTree, &params);
        let oracle = WorkloadOracle::new(&workload);
        let cfg = SystemConfig::skylake_like().with_num_cores(1);
        let total = {
            let mut m = System::new(&cfg, scheme, &workload).unwrap();
            m.run().unwrap();
            m.persist_seq()
        };
        let mut m = System::new(&cfg, scheme, &workload).unwrap();
        for event in choose_points(total, 5, 7 + total) {
            assert!(m.run_until_persist_event(event));
            let crashed = m.crash_image();

            // Reference: one uninterrupted recovery.
            let mut reference = crashed.clone();
            let full =
                recover_with_budget(&mut reference, m.layout(), scheme, m.threads(), usize::MAX)
                    .unwrap();
            oracle.check(&reference).unwrap();

            for k in 0..full.writes {
                let mut img = crashed.clone();
                let partial =
                    recover_with_budget(&mut img, m.layout(), scheme, m.threads(), k).unwrap();
                assert_eq!(partial.writes, k);
                assert!(partial.exhausted);
                recover(&mut img, m.layout(), scheme, m.threads()).unwrap();
                assert_eq!(
                    img, reference,
                    "{scheme:?} event {event}: double crash at recovery write {k} diverged"
                );
            }
        }
    }
}

#[test]
fn harness_sweep_runs_explorations_in_parallel() {
    let specs: Vec<ExploreSpec> = FAILURE_SAFE
        .iter()
        .map(|&scheme| ExploreSpec::new(Benchmark::Queue, small_params(1), scheme, 12))
        .collect();
    let report = sweep(&specs, &SweepOptions { workers: 2, ..SweepOptions::default() }).unwrap();
    assert!(report.is_all_completed());
    assert_eq!(report.results.len(), 4);
    for r in &report.results {
        let outcome = r.result.as_ref().unwrap();
        assert!(outcome.points_explored > 0);
        assert!(outcome.is_consistent(), "{}: {:?}", r.name, outcome.violations.first());
    }
}

#[test]
fn sweep_resumes_from_its_ledger() {
    let path = std::env::temp_dir()
        .join(format!("proteus-crash-sweep-ledger-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let specs =
        vec![ExploreSpec::new(Benchmark::Queue, small_params(1), LoggingSchemeKind::Proteus, 8)];
    let opts = SweepOptions { workers: 1, ledger: Some(path.clone()), ..SweepOptions::default() };
    let first = sweep(&specs, &opts).unwrap();
    assert_eq!(first.executed, 1);
    let second = sweep(&specs, &opts).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(second.executed, 0, "completed exploration must resume from the ledger");
    assert_eq!(second.resumed, 1);
    assert_eq!(
        second.results[0].result.as_ref().unwrap(),
        first.results[0].result.as_ref().unwrap()
    );
}
