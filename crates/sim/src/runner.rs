//! Experiment runner: single runs and harness-orchestrated scheme
//! sweeps.
//!
//! Sweeps run through [`proteus_harness`]: a worker pool with panic
//! isolation (one crashing experiment is recorded, its siblings
//! finish) and an optional resume ledger keyed by each spec's stable
//! structural hash. [`sweep_schemes`] and [`sweep_schemes_with`] are
//! all-or-nothing: the first failure in input order comes back as a
//! typed [`SimError`], including [`SimError::WorkerPanic`] for a caught
//! panic. [`experiment_harness`] runs arbitrary spec lists and reports
//! every job's outcome.

use crate::persist;
use crate::system::System;
use proteus_harness::{Harness, JobSpec, PayloadCodec, SweepOptions};
use proteus_trace::TraceReport;
use proteus_types::config::{LoggingSchemeKind, SystemConfig};
use proteus_types::stats::RunSummary;
use proteus_types::{stable_hash_value, FieldHasher, SimError, StableHash, StableHasher};
use proteus_workgen::WorkloadSel;
use proteus_workloads::{GeneratedWorkload, WorkloadParams};
use std::sync::OnceLock;

/// One experiment: a workload under a scheme on a configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Machine configuration.
    pub config: SystemConfig,
    /// Logging scheme under test.
    pub scheme: LoggingSchemeKind,
    /// Workload to run: a paper benchmark or a generated spec.
    /// (`WorkloadSel::Bench` hashes and encodes exactly as the bare
    /// `Benchmark` used to, so pre-existing spec hashes and resume
    /// ledgers are unaffected.)
    pub bench: WorkloadSel,
    /// Workload generation parameters.
    pub params: WorkloadParams,
}

impl StableHash for ExperimentSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        let mut f = FieldHasher::new("ExperimentSpec");
        f.field("config", &self.config)
            .field("scheme", &self.scheme)
            .field("bench", &self.bench)
            .field("params", &self.params);
        h.write_u64(f.finish());
    }
}

impl ExperimentSpec {
    /// Stable structural hash of the full spec: the resume-ledger key
    /// and the basis for derived workload seeds. Independent of field
    /// order, process, and platform.
    pub fn spec_hash(&self) -> u64 {
        stable_hash_value(self)
    }

    /// `"<bench>/<scheme>"`, the human-readable job name.
    pub fn display_name(&self) -> String {
        format!("{}/{}", self.bench.abbrev(), self.scheme.label())
    }

    /// The harness job identity for this spec.
    pub fn job(&self) -> JobSpec {
        JobSpec::new(self.display_name(), self.spec_hash())
    }
}

/// The outcome of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// `"<bench>/<scheme>"`.
    pub name: String,
    /// Run statistics.
    pub summary: RunSummary,
}

/// A harness configured for experiment sweeps: the ledger codec for
/// experiment results plus the simulated-cycles progress metric.
pub fn experiment_harness() -> Harness<ExperimentResult> {
    Harness::new(
        PayloadCodec { encode: persist::result_to_json, decode: persist::result_from_json },
        |r| r.summary.total_cycles,
        "sim-cycles",
    )
}

/// Runs a single experiment, generating the workload internally.
///
/// # Errors
///
/// Propagates configuration, expansion, and simulation errors.
pub fn run_one(spec: &ExperimentSpec) -> Result<ExperimentResult, SimError> {
    let workload = spec.bench.generate(&spec.params);
    run_workload(spec, &workload)
}

/// Runs a single experiment over a pre-generated workload (reuse the
/// workload across schemes so every scheme sees identical operations —
/// the paper's methodology).
///
/// # Errors
///
/// Propagates configuration, expansion, and simulation errors.
pub fn run_workload(
    spec: &ExperimentSpec,
    workload: &GeneratedWorkload,
) -> Result<ExperimentResult, SimError> {
    let (result, _) = run_workload_traced(spec, workload, false)?;
    Ok(result)
}

/// [`run_workload`], with cycle-level tracing attached to the machine if
/// `trace` is set.
///
/// # Errors
///
/// Propagates configuration, expansion, and simulation errors.
pub fn run_workload_traced(
    spec: &ExperimentSpec,
    workload: &GeneratedWorkload,
    trace: bool,
) -> Result<(ExperimentResult, Option<TraceReport>), SimError> {
    let mut system = System::new_with_trace(&spec.config, spec.scheme, workload, trace)?;
    let summary = system.run()?;
    let report = system.take_trace_report();
    Ok((ExperimentResult { name: spec.display_name(), summary }, report))
}

/// A benchmark's results across all schemes, with paper-style derived
/// metrics.
#[derive(Debug, Clone)]
pub struct SchemeSweep {
    /// Benchmark abbreviation.
    pub bench: String,
    /// `(scheme label, summary)` per scheme in [`LoggingSchemeKind::ALL`]
    /// order.
    pub results: Vec<(String, RunSummary)>,
}

impl SchemeSweep {
    /// Speedup of `scheme` over the software-logging baseline (Fig. 6
    /// metric).
    pub fn speedup(&self, scheme: LoggingSchemeKind) -> f64 {
        self.summary_of(scheme).speedup_over(self.summary_of(LoggingSchemeKind::SwPmem))
    }

    /// NVMM writes normalised to the no-logging ideal (Fig. 8 metric).
    pub fn nvmm_writes_normalized(&self, scheme: LoggingSchemeKind) -> f64 {
        let base = self.summary_of(LoggingSchemeKind::NoLog).mem.total_nvmm_writes();
        let this = self.summary_of(scheme).mem.total_nvmm_writes();
        this as f64 / base.max(1) as f64
    }

    /// Front-end stall cycles normalised to the no-logging ideal (Fig. 7
    /// metric).
    pub fn stalls_normalized(&self, scheme: LoggingSchemeKind) -> f64 {
        let base = self.summary_of(LoggingSchemeKind::NoLog).cores_merged().total_stall_cycles();
        let this = self.summary_of(scheme).cores_merged().total_stall_cycles();
        this as f64 / base.max(1) as f64
    }

    /// The summary for `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if the sweep did not include `scheme`.
    pub fn summary_of(&self, scheme: LoggingSchemeKind) -> &RunSummary {
        &self
            .results
            .iter()
            .find(|(label, _)| label == scheme.label())
            .unwrap_or_else(|| panic!("sweep missing scheme {}", scheme.label()))
            .1
    }
}

/// Runs one benchmark under every scheme (identical workload), in
/// parallel.
///
/// # Errors
///
/// Returns the first simulation error in scheme order; a panicking
/// run surfaces as [`SimError::WorkerPanic`] after its siblings
/// finish.
pub fn sweep_schemes(
    config: &SystemConfig,
    bench: impl Into<WorkloadSel>,
    params: &WorkloadParams,
    schemes: &[LoggingSchemeKind],
) -> Result<SchemeSweep, SimError> {
    sweep_schemes_with(config, bench, params, schemes, &SweepOptions::default())
}

/// [`sweep_schemes`] with explicit harness options.
///
/// The workload is generated lazily, once, on the first job that
/// actually executes — a fully resumed sweep re-simulates nothing and
/// also regenerates nothing.
///
/// # Errors
///
/// As [`sweep_schemes`], plus [`SimError::HarnessIo`] for ledger
/// failures.
pub fn sweep_schemes_with(
    config: &SystemConfig,
    bench: impl Into<WorkloadSel>,
    params: &WorkloadParams,
    schemes: &[LoggingSchemeKind],
    opts: &SweepOptions,
) -> Result<SchemeSweep, SimError> {
    let sel: WorkloadSel = bench.into();
    let specs: Vec<ExperimentSpec> = schemes
        .iter()
        .map(|&scheme| ExperimentSpec {
            config: config.clone(),
            scheme,
            bench: sel.clone(),
            params: params.clone(),
        })
        .collect();
    let jobs: Vec<JobSpec> = specs.iter().map(ExperimentSpec::job).collect();
    let workload: OnceLock<GeneratedWorkload> = OnceLock::new();
    let results = experiment_harness()
        .run(&jobs, opts, |i| {
            let w = workload.get_or_init(|| sel.generate(params));
            run_workload(&specs[i], w)
        })?
        .into_payloads()?;
    Ok(SchemeSweep {
        bench: sel.abbrev().to_string(),
        results: schemes
            .iter()
            .zip(results)
            .map(|(scheme, r)| (scheme.label().to_string(), r.summary))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_types::JobOutcome;
    use proteus_workloads::Benchmark;

    fn tiny_params() -> WorkloadParams {
        WorkloadParams { threads: 2, init_ops: 40, sim_ops: 12, seed: 9 }
    }

    fn tiny_spec(bench: Benchmark, scheme: LoggingSchemeKind) -> ExperimentSpec {
        ExperimentSpec {
            config: SystemConfig::skylake_like().with_num_cores(2),
            scheme,
            bench: bench.into(),
            params: tiny_params(),
        }
    }

    /// A configuration that passes `validate()` (the geometry divides
    /// evenly) but panics inside the cache model (96 sets is not a
    /// power of two) — the crash-injection vehicle for harness tests.
    fn panic_config() -> SystemConfig {
        let mut config = SystemConfig::skylake_like().with_num_cores(2);
        config.caches.l1d.size_bytes = 48 * 1024;
        config.caches.l1d.ways = 8;
        assert!(config.validate().is_ok(), "must pass validation to reach the simulator");
        config
    }

    /// A panicking Queue experiment between two healthy siblings.
    fn crash_between_siblings() -> Vec<ExperimentSpec> {
        vec![
            tiny_spec(Benchmark::Queue, LoggingSchemeKind::NoLog),
            ExperimentSpec {
                config: panic_config(),
                ..tiny_spec(Benchmark::Queue, LoggingSchemeKind::NoLog)
            },
            tiny_spec(Benchmark::HashMap, LoggingSchemeKind::NoLog),
        ]
    }

    #[test]
    fn run_one_produces_cycles_and_stats() {
        let spec = tiny_spec(Benchmark::Queue, LoggingSchemeKind::Proteus);
        let r = run_one(&spec).unwrap();
        assert!(r.summary.total_cycles > 0);
        assert_eq!(r.summary.core.len(), 2);
        assert!(r.summary.cores_merged().transactions >= 24);
        assert_eq!(r.name, "QE/Proteus");
    }

    #[test]
    fn sweep_compares_schemes_consistently() {
        let sweep = sweep_schemes(
            &SystemConfig::skylake_like().with_num_cores(2),
            Benchmark::HashMap,
            &tiny_params(),
            &LoggingSchemeKind::ALL,
        )
        .unwrap();
        assert_eq!(sweep.results.len(), LoggingSchemeKind::ALL.len());
        // The baseline's speedup over itself is exactly 1.
        assert!((sweep.speedup(LoggingSchemeKind::SwPmem) - 1.0).abs() < 1e-12);
        // The ideal beats the baseline.
        assert!(sweep.speedup(LoggingSchemeKind::NoLog) > 1.0);
        // pcommit is slower than ADR.
        assert!(sweep.speedup(LoggingSchemeKind::SwPmemPcommit) < 1.0);
    }

    /// Runs `specs` through [`experiment_harness`] with default options,
    /// one workload generation per spec: the sweep the `run_many_*`
    /// tests below exercise.
    fn run_many(specs: &[ExperimentSpec]) -> proteus_harness::SweepReport<ExperimentResult> {
        let jobs: Vec<JobSpec> = specs.iter().map(ExperimentSpec::job).collect();
        experiment_harness().run(&jobs, &SweepOptions::default(), |i| run_one(&specs[i])).unwrap()
    }

    #[test]
    fn run_many_preserves_order() {
        let specs: Vec<ExperimentSpec> = [Benchmark::Queue, Benchmark::HashMap]
            .into_iter()
            .map(|bench| tiny_spec(bench, LoggingSchemeKind::NoLog))
            .collect();
        let results = run_many(&specs).into_payloads().unwrap();
        assert_eq!(results.len(), 2);
        assert!(results[0].name.starts_with("QE"));
        assert!(results[1].name.starts_with("HM"));
    }

    #[test]
    fn too_many_threads_rejected() {
        let spec = ExperimentSpec {
            config: SystemConfig::skylake_like().with_num_cores(1),
            scheme: LoggingSchemeKind::NoLog,
            bench: Benchmark::Queue.into(),
            params: tiny_params(), // 2 threads
        };
        assert!(matches!(run_one(&spec), Err(SimError::TooManyThreads { .. })));
    }

    /// A machine with more cores than the address layout has log areas
    /// still refuses a workload past the layout's capacity, as a typed
    /// error instead of a panic while addressing the missing log area.
    #[test]
    fn threads_beyond_the_layout_capacity_are_rejected() {
        let max = proteus_core::layout::AddressLayout::default().max_threads;
        let spec = ExperimentSpec {
            config: SystemConfig::skylake_like().with_num_cores(max + 1),
            scheme: LoggingSchemeKind::SwPmem,
            bench: Benchmark::Queue.into(),
            params: WorkloadParams { threads: max + 1, ..tiny_params() },
        };
        assert_eq!(
            run_one(&spec).unwrap_err(),
            SimError::TooManyThreads { requested: max + 1, available: max }
        );
    }

    /// Regression for the pre-harness runner, which aborted the whole
    /// sweep on any worker panic (`.expect("worker thread panicked")`)
    /// and could tear down sibling experiments: a panicking experiment
    /// must surface as a typed `WorkerPanic` carrying the panic
    /// message, after siblings have completed.
    #[test]
    fn run_many_surfaces_worker_panic_with_message() {
        match run_many(&crash_between_siblings()).into_payloads() {
            Err(SimError::WorkerPanic { job, message }) => {
                assert_eq!(job, format!("QE/{}", LoggingSchemeKind::NoLog.label()));
                assert!(message.contains("power of two"), "panic message lost: {message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    /// The report completes the siblings of a crashed job.
    #[test]
    fn run_many_report_isolates_the_crash() {
        let report = run_many(&crash_between_siblings());
        assert_eq!((report.completed, report.crashed), (2, 1));
        assert!(report.results[0].result.is_ok());
        assert!(matches!(report.results[1].outcome(), JobOutcome::Crashed { .. }));
        assert!(report.results[2].result.as_ref().is_ok_and(|r| r.summary.total_cycles > 0));
    }

    /// A clean simulator error keeps its typed identity through the
    /// harness, for arbitrary spec lists and for scheme sweeps.
    #[test]
    fn run_many_preserves_typed_errors() {
        let mut bad = tiny_spec(Benchmark::Queue, LoggingSchemeKind::NoLog);
        bad.config = bad.config.with_num_cores(1); // params want 2 threads
        let report = run_many(&[tiny_spec(Benchmark::HashMap, LoggingSchemeKind::NoLog), bad]);
        assert_eq!((report.completed, report.failed), (1, 1));
        let too_many = SimError::TooManyThreads { requested: 2, available: 1 };
        assert_eq!(report.into_payloads().unwrap_err(), too_many);
        let sweep = sweep_schemes(
            &SystemConfig::skylake_like().with_num_cores(1),
            Benchmark::Queue,
            &tiny_params(),
            &[LoggingSchemeKind::NoLog, LoggingSchemeKind::Proteus],
        );
        assert_eq!(sweep.unwrap_err(), too_many);
    }

    #[test]
    fn spec_hash_distinguishes_every_dimension() {
        let base = tiny_spec(Benchmark::Queue, LoggingSchemeKind::Proteus);
        let mut hashes = vec![base.spec_hash()];
        hashes.push(tiny_spec(Benchmark::HashMap, LoggingSchemeKind::Proteus).spec_hash());
        hashes.push(tiny_spec(Benchmark::Queue, LoggingSchemeKind::Atom).spec_hash());
        let mut scaled = base.clone();
        scaled.params.sim_ops += 1;
        hashes.push(scaled.spec_hash());
        let mut reconfigured = base.clone();
        reconfigured.config = reconfigured.config.with_logq_entries(4);
        hashes.push(reconfigured.spec_hash());
        let unique: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(unique.len(), hashes.len(), "{hashes:x?}");
        // And it is stable: same spec, same hash.
        assert_eq!(
            base.spec_hash(),
            tiny_spec(Benchmark::Queue, LoggingSchemeKind::Proteus).spec_hash()
        );
    }

    /// Identical derived seeds produce bit-identical run summaries: the
    /// whole pipeline from workload generation to simulation is
    /// deterministic.
    #[test]
    fn derived_seed_runs_are_reproducible() {
        let mut spec = tiny_spec(Benchmark::HashMap, LoggingSchemeKind::Proteus);
        spec.params = spec.bench.derived_params(spec.params.clone());
        let a = run_one(&spec).unwrap();
        let b = run_one(&spec).unwrap();
        assert_eq!(a.summary, b.summary);
        // A different benchmark derives a different seed.
        let other = tiny_params().with_derived_seed(Benchmark::Queue);
        assert_ne!(spec.params.seed, other.seed);
    }
}
