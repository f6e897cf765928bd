//! Property-based crash-consistency testing: for random workloads,
//! schemes, and crash points, recovery must always land on a
//! transaction-consistent state.
//!
//! The systematic explorer (`integration_crash.rs`) walks persist-event
//! indices; these properties attack from the other side with randomised
//! cycle-fraction crash points and randomised workload seeds, both
//! judged by the one [`WorkloadOracle`], under which each thread of
//! these share-nothing workloads is one structure whose commit groups
//! are its transactions.

use proteus_core::scheme::registry;
use proteus_crash::{ExploreSpec, FaultSpec, WorkloadOracle};
use proteus_sim::System;
use proteus_types::config::{LoggingSchemeKind, SystemConfig};
use proteus_types::prop::{check, Gen};
use proteus_workloads::{generate, Benchmark, WorkloadParams};

fn arb_bench(g: &mut Gen) -> Benchmark {
    g.pick(&[
        Benchmark::Queue,
        Benchmark::HashMap,
        Benchmark::AvlTree,
        Benchmark::BTree,
        Benchmark::RbTree,
    ])
}

/// Every scheme the crash sweep explores: the failure-safe ones.
fn arb_scheme(g: &mut Gen) -> LoggingSchemeKind {
    g.pick(&registry::crash_sweep_roster())
}

fn arb_fault(g: &mut Gen) -> FaultSpec {
    // Only consistency-preserving faults: torn in-service lines are
    // masked by the ADR drain.
    if g.bool() {
        FaultSpec::Clean
    } else {
        FaultSpec::TornLine { mask: g.range(1..256) as u8 }
    }
}

/// Crash anywhere, under any failure-safe scheme and any
/// consistency-preserving fault model, on any benchmark: after recovery
/// every thread's data is a per-transaction prefix of its program.
#[test]
fn recovery_always_lands_on_a_transaction_boundary() {
    let case =
        |g: &mut Gen| (arb_bench(g), arb_scheme(g), arb_fault(g), g.range(0..1000), g.range(1..99));
    let name = "recovery_always_lands_on_a_transaction_boundary";
    check(name, 24, case, |(bench, scheme, fault, seed, crash_fraction)| {
        let params = WorkloadParams { threads: 2, init_ops: 60, sim_ops: 8, seed };
        let workload = generate(bench, &params);
        let oracle = WorkloadOracle::new(&workload);
        let config = SystemConfig::skylake_like().with_num_cores(2);
        let total = {
            let mut m = System::new(&config, scheme, &workload).unwrap();
            m.run().unwrap().total_cycles
        };
        let crash_at = (total * crash_fraction / 100).max(1);
        let mut m = System::new(&config, scheme, &workload).unwrap();
        m.run_until(crash_at);
        let (recovered, _) = m.crash_and_recover_with(&fault.to_crash_faults()).unwrap();
        if let Err(v) = oracle.check(&recovered) {
            panic!("{bench:?}/{scheme:?}/{fault} seed {seed} crash {crash_at}/{total}: {v}");
        }
    });
}

/// Double crashes: crash during the run, recover, then recover again
/// (modelling a crash during recovery). The second pass must be a no-op
/// on data.
#[test]
fn recovery_is_idempotent() {
    let case = |g: &mut Gen| (arb_bench(g), arb_scheme(g), g.range(1..99));
    check("recovery_is_idempotent", 12, case, |(bench, scheme, crash_fraction)| {
        let params = WorkloadParams { threads: 1, init_ops: 40, sim_ops: 6, seed: 11 };
        let workload = generate(bench, &params);
        let oracle = WorkloadOracle::new(&workload);
        let config = SystemConfig::skylake_like().with_num_cores(1);
        let total = {
            let mut m = System::new(&config, scheme, &workload).unwrap();
            m.run().unwrap().total_cycles
        };
        let mut m = System::new(&config, scheme, &workload).unwrap();
        m.run_until((total * crash_fraction / 100).max(1));
        let (once, _) = m.crash_and_recover().unwrap();
        assert!(oracle.check(&once).is_ok());
        let mut twice = once.clone();
        proteus_core::recovery::recover(&mut twice, m.layout(), scheme, m.threads()).unwrap();
        assert!(oracle.check(&twice).is_ok());
        let (lo, hi) = proteus_workloads::thread_arena(proteus_types::ThreadId::new(0));
        assert!(
            twice.diff(&once).iter().all(|a| *a < lo || *a >= hi),
            "second recovery changed data"
        );
    });
}

/// Random small specs explore without violations through the
/// persist-event engine (the systematic front door).
#[test]
fn random_specs_explore_cleanly() {
    let case = |g: &mut Gen| (arb_bench(g), arb_scheme(g), g.range(0..500));
    check("random_specs_explore_cleanly", 8, case, |(bench, scheme, seed)| {
        let params = WorkloadParams { threads: 1, init_ops: 30, sim_ops: 4, seed };
        let spec = ExploreSpec::new(bench, params, scheme, 16);
        let outcome = proteus_crash::explore(&spec).unwrap();
        assert!(outcome.points_explored > 0);
        assert!(outcome.is_consistent(), "{}: {:?}", spec.name(), outcome.violations.first());
    });
}
