//! Cross-crate integration for the tracing subsystem: zero-cost-when-
//! disabled guarantees and trace/summary consistency on a real Table-2
//! workload.

use proteus_sim::System;
use proteus_trace::TrackKind;
use proteus_types::config::{LoggingSchemeKind, SystemConfig};
use proteus_workloads::{generate, Benchmark, GeneratedWorkload, WorkloadParams};

fn table2_queue() -> GeneratedWorkload {
    let params =
        WorkloadParams::table2(Benchmark::Queue, 2, 0.01).with_derived_seed(Benchmark::Queue);
    generate(Benchmark::Queue, &params)
}

fn config() -> SystemConfig {
    SystemConfig::skylake_like().with_num_cores(2).with_cache_divisor(64)
}

/// Disabled tracing must allocate no buffers and produce no report, and
/// the run must be indistinguishable from a plain `System::new` run:
/// observability is opt-in, never a tax.
#[test]
fn disabled_tracing_allocates_nothing_and_changes_nothing() {
    let workload = table2_queue();
    let mut plain = System::new(&config(), LoggingSchemeKind::Proteus, &workload).unwrap();
    let baseline = plain.run().unwrap();

    let mut traced =
        System::new_with_trace(&config(), LoggingSchemeKind::Proteus, &workload, false).unwrap();
    assert_eq!(traced.trace_capacity(), 0, "disabled tracing must allocate no event storage");
    let summary = traced.run().unwrap();
    assert!(traced.take_trace_report().is_none(), "disabled tracing must yield no report");
    assert_eq!(summary, baseline, "tracing plumbing must not perturb the simulation");
}

/// Enabling tracing is pure observation: the `RunSummary` must be
/// identical to the untraced run, and the report must reconcile with it
/// exactly (±0) via `check_against`.
#[test]
fn enabled_tracing_observes_without_perturbing() {
    let workload = table2_queue();
    let mut plain = System::new(&config(), LoggingSchemeKind::Proteus, &workload).unwrap();
    let baseline = plain.run().unwrap();

    let mut traced =
        System::new_with_trace(&config(), LoggingSchemeKind::Proteus, &workload, true).unwrap();
    assert!(traced.trace_capacity() > 0);
    let summary = traced.run().unwrap();
    assert_eq!(summary, baseline, "tracing must be invisible to the simulated machine");

    let report = traced.take_trace_report().expect("enabled tracing must yield a report");
    report.check_against(&summary).expect("trace must reconcile with RunSummary");
    assert!(report.total_events() > 0);
    // Every core committed transactions, so every core track must carry
    // per-transaction critical-path records.
    for (i, _) in workload.programs.iter().enumerate() {
        let track = report.track(TrackKind::Core(i as u32)).expect("core track present");
        assert!(!track.events.is_empty(), "core{i} track must carry events");
        assert!(!track.tx_records.is_empty(), "core{i} must record tx critical paths");
    }
    let mc = report.track(TrackKind::Mc).expect("MC track present");
    assert!(!mc.occupancy.is_empty(), "MC must sample queue occupancy");
}
