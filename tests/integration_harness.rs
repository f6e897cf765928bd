//! End-to-end harness orchestration over real experiments: a sweep
//! with one crash-injected experiment completes its siblings, records
//! the crash in the resume ledger, and a resumed invocation re-runs
//! only the failed job — the workflow `reproduce --resume` exposes.

use proteus_harness::json::{self, Json};
use proteus_harness::{JobSpec, SweepOptions, SweepReport};
use proteus_sim::runner::{experiment_harness, run_one, ExperimentResult, ExperimentSpec};
use proteus_types::config::{LoggingSchemeKind, SystemConfig};
use proteus_types::SimError;
use proteus_workloads::{Benchmark, WorkloadParams};
use std::path::PathBuf;

fn temp_file(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("proteus-sim-it-{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn tiny_spec(bench: Benchmark, scheme: LoggingSchemeKind) -> ExperimentSpec {
    let params =
        WorkloadParams { threads: 2, init_ops: 40, sim_ops: 10, seed: 0 }.with_derived_seed(bench);
    ExperimentSpec {
        config: SystemConfig::skylake_like().with_num_cores(2),
        scheme,
        bench: bench.into(),
        params,
    }
}

/// Passes `validate()` but panics in the cache model (96 sets is not a
/// power of two): a crash the harness must isolate.
fn crashing_spec() -> ExperimentSpec {
    let mut spec = tiny_spec(Benchmark::StringSwap, LoggingSchemeKind::NoLog);
    spec.config.caches.l1d.size_bytes = 48 * 1024;
    spec.config.caches.l1d.ways = 8;
    assert!(spec.config.validate().is_ok());
    spec
}

/// One sweep over `specs` through the experiment harness, one workload
/// generation per spec.
fn run_many_with(specs: &[ExperimentSpec], opts: &SweepOptions) -> SweepReport<ExperimentResult> {
    let jobs: Vec<JobSpec> = specs.iter().map(ExperimentSpec::job).collect();
    experiment_harness().run(&jobs, opts, |i| run_one(&specs[i])).expect("sweep infrastructure")
}

#[test]
fn crash_isolated_ledgered_and_resumed() {
    let ledger = temp_file("resume");
    let specs = vec![
        tiny_spec(Benchmark::Queue, LoggingSchemeKind::Proteus),
        tiny_spec(Benchmark::Queue, LoggingSchemeKind::SwPmem),
        crashing_spec(),
        tiny_spec(Benchmark::HashMap, LoggingSchemeKind::Proteus),
    ];
    let opts = SweepOptions { workers: 2, ledger: Some(ledger.clone()), progress: false };

    // Sweep one: the injected crash must not take down its siblings.
    let report = run_many_with(&specs, &opts);
    assert_eq!(report.completed, 3, "siblings of the crash completed");
    assert_eq!(report.crashed, 1);
    assert!(matches!(report.results[2].result, Err(SimError::WorkerPanic { .. })));
    let sibling_cycles = report.results[3].result.as_ref().unwrap().summary.total_cycles;
    assert!(sibling_cycles > 0);

    // Every outcome is durable in the ledger, keyed by the spec hash;
    // completed records carry their simulated cycles.
    let text = std::fs::read_to_string(&ledger).unwrap();
    let records: Vec<Json> =
        text.lines().map(|l| json::parse(l).expect("ledger line parses")).collect();
    assert_eq!(records.len(), 4);
    let outcome = |v: &Json| v.get("outcome").and_then(Json::as_str).unwrap().to_string();
    let crashed: Vec<&Json> = records.iter().filter(|v| outcome(v) == "crashed").collect();
    assert_eq!(crashed.len(), 1);
    assert_eq!(
        crashed[0].get("spec_hash").and_then(Json::as_str),
        Some(format!("{:016x}", specs[2].spec_hash()).as_str())
    );
    assert!(crashed[0].get("message").and_then(Json::as_str).unwrap().contains("power of two"));
    for v in records.iter().filter(|v| outcome(v) == "completed") {
        let cycles = v.get("payload").and_then(|p| p.get("summary")?.get("total_cycles"));
        assert!(cycles.and_then(Json::as_u64).is_some_and(|c| c > 0), "{}", v.to_line());
    }

    // Sweep two (--resume): fix the config; only the crashed job runs.
    let mut fixed = specs.clone();
    fixed[2] = tiny_spec(Benchmark::StringSwap, LoggingSchemeKind::NoLog);
    let resumed = run_many_with(&fixed, &opts);
    assert_eq!(resumed.executed, 1, "exactly the failed job re-ran");
    assert_eq!(resumed.resumed, 3);
    assert!(resumed.is_all_completed());
    // Restored results carry real payloads, not placeholders.
    assert_eq!(resumed.results[3].result.as_ref().unwrap().summary.total_cycles, sibling_cycles);
    std::fs::remove_file(&ledger).unwrap();
}

/// The all-or-nothing conversion, driven through a ledger: the first
/// invocation fails with a typed `WorkerPanic` carrying the panic
/// message, the second (after the fix) resumes the completed job and
/// succeeds.
#[test]
fn run_many_with_resume_recovers_from_crash() {
    let ledger = temp_file("allornothing");
    let specs = vec![tiny_spec(Benchmark::Queue, LoggingSchemeKind::NoLog), crashing_spec()];
    let opts = SweepOptions { workers: 2, ledger: Some(ledger.clone()), progress: false };
    match run_many_with(&specs, &opts).into_payloads() {
        Err(SimError::WorkerPanic { job, message }) => {
            assert_eq!(job, specs[1].display_name());
            assert!(message.contains("power of two"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }

    let fixed = vec![specs[0].clone(), tiny_spec(Benchmark::StringSwap, LoggingSchemeKind::NoLog)];
    let report = run_many_with(&fixed, &opts);
    assert_eq!((report.resumed, report.executed), (1, 1));
    let results = report.into_payloads().expect("fixed sweep succeeds");
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.summary.total_cycles > 0));
    std::fs::remove_file(&ledger).unwrap();
}

/// Resume is keyed by the structural spec hash: any change to the
/// experiment (scheme, ops, config) re-runs it; an identical spec does
/// not.
#[test]
fn ledger_keys_track_spec_changes() {
    let ledger = temp_file("keys");
    let opts = SweepOptions { workers: 1, ledger: Some(ledger.clone()), progress: false };
    let base = vec![tiny_spec(Benchmark::Queue, LoggingSchemeKind::Proteus)];
    let first = run_many_with(&base, &opts);
    assert_eq!(first.executed, 1);

    // Identical spec: resumed.
    let again = run_many_with(&base, &opts);
    assert_eq!(again.executed, 0);
    assert_eq!(again.resumed, 1);

    // One more sim op: a different experiment, so it runs.
    let mut changed = base.clone();
    changed[0].params.sim_ops += 1;
    let third = run_many_with(&changed, &opts);
    assert_eq!(third.executed, 1);
    std::fs::remove_file(&ledger).unwrap();
}
