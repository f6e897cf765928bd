//! Systematic crash-point exploration.
//!
//! One exploration job is a `(workload, scheme, fault)` triple. The
//! engine first runs the simulation to completion once to learn the total
//! persist-event count `E`, then picks crash points: **exhaustive**
//! (every event index) when `E` fits the budget, otherwise **stratified
//! sampling** — the index range is split into `max_points` equal strata
//! and one point is drawn per stratum from a splitmix64 stream
//! (`proteus_types::rng`) seeded from the spec hash, so every region of
//! the execution is probed and the same spec always explores the same
//! points (which is what makes resume ledgers and shrinking sound).
//!
//! Exploration itself is single-pass: one fresh simulation steps forward,
//! and each time the persist-event counter crosses the next chosen index
//! `crash_and_judge` captures the crash image (with the spec's fault
//! model applied), recovers it, and judges it with the
//! [`WorkloadOracle`]. A repro replay takes the same step once, on the
//! same machine (`ExploreSpec::config`). Granularity is the simulation
//! step: if several persist events land in one cycle, their crash images
//! are identical, which is exactly why capturing at the step boundary
//! after the counter crossed the index loses nothing.

use crate::fault::FaultSpec;
use crate::oracle::WorkloadOracle;
use proteus_mem::CrashFaults;
use proteus_sim::System;
use proteus_types::config::{LoggingSchemeKind, SystemConfig};
use proteus_types::rng::SplitMix64;
use proteus_types::{stable_hash_value, FieldHasher, SimError, StableHash, StableHasher};
use proteus_workgen::WorkloadSel;
use proteus_workloads::WorkloadParams;

/// One exploration job: workload shape, scheme, fault model, budget.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSpec {
    /// Workload to generate: a paper benchmark or a generated spec.
    pub bench: WorkloadSel,
    /// Workload generation parameters.
    pub params: WorkloadParams,
    /// Logging scheme under test.
    pub scheme: LoggingSchemeKind,
    /// Fault model applied at each crash point.
    pub fault: FaultSpec,
    /// Enables the `disable_persist_ordering` fault knob in the core —
    /// the deliberately broken scheme the checker must catch.
    pub broken_ordering: bool,
    /// Crash-point budget: exhaustive below it, stratified above it.
    pub max_points: usize,
}

impl ExploreSpec {
    /// A spec with the clean fault model and the given point budget.
    pub fn new(
        bench: impl Into<WorkloadSel>,
        params: WorkloadParams,
        scheme: LoggingSchemeKind,
        max_points: usize,
    ) -> Self {
        ExploreSpec {
            bench: bench.into(),
            params,
            scheme,
            fault: FaultSpec::Clean,
            broken_ordering: false,
            max_points,
        }
    }

    /// Human-readable job name (`crash/<bench>/<scheme>/<fault>`).
    pub fn name(&self) -> String {
        let broken = if self.broken_ordering { "/broken" } else { "" };
        format!(
            "crash/{}/{}/{}{broken}",
            self.bench.abbrev(),
            self.scheme.label(),
            self.fault.label()
        )
    }

    /// Stable structural hash: the resume key and sampling seed.
    pub fn spec_hash(&self) -> u64 {
        stable_hash_value(self)
    }

    /// The machine every run of the spec builds: one core per thread,
    /// with the broken-ordering knob as the spec sets it.
    pub(crate) fn config(&self) -> SystemConfig {
        SystemConfig::skylake_like()
            .with_num_cores(self.params.threads.max(1))
            .with_disable_persist_ordering(self.broken_ordering)
    }
}

impl StableHash for ExploreSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        let mut f = FieldHasher::new("ExploreSpec");
        f.field("bench", &self.bench)
            .field("params", &self.params)
            .field("scheme", &self.scheme)
            .field("fault", &self.fault)
            .field("broken_ordering", &self.broken_ordering)
            .field("max_points", &self.max_points);
        h.write_u64(f.finish());
    }
}

/// One crash point whose recovered image failed the oracle (or whose
/// recovery itself failed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationPoint {
    /// Persist-event index of the crash.
    pub event: u64,
    /// What went wrong.
    pub detail: String,
}

/// Result of exploring one spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreOutcome {
    /// Persist events in the full execution.
    pub total_events: u64,
    /// Crash points actually explored.
    pub points_explored: usize,
    /// Points whose recovery violated transaction consistency, in
    /// ascending event order.
    pub violations: Vec<ViolationPoint>,
}

impl ExploreOutcome {
    /// Whether every explored point recovered consistently.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Explores every chosen crash point of `spec`.
///
/// # Errors
///
/// Returns configuration and runaway errors from the simulator.
/// Recovery failures ([`SimError::CorruptLog`]) at individual crash
/// points are *not* errors: they are recorded as violations, because a
/// log image recovery cannot even parse is the strongest possible
/// consistency failure.
pub fn explore(spec: &ExploreSpec) -> Result<ExploreOutcome, SimError> {
    let workload = spec.bench.generate(&spec.params);
    let oracle = WorkloadOracle::new(&workload);
    let cfg = spec.config();

    // Pass 1: learn the persist-event count of the full execution. The
    // simulator is deterministic, so the replayed pass sees the same
    // timeline.
    let total_events = {
        let mut m = System::new(&cfg, spec.scheme, &workload)?;
        m.run()?;
        m.persist_seq()
    };
    let points = choose_points(total_events, spec.max_points, spec.spec_hash());

    // Pass 2: single forward sweep capturing each chosen point.
    let mut m = System::new(&cfg, spec.scheme, &workload)?;
    let violations = crash_points(&mut m, &points, &spec.fault.to_crash_faults(), &oracle);
    Ok(ExploreOutcome { total_events, points_explored: points.len(), violations })
}

/// Takes `crash_and_judge` at each of the ascending `points` in turn on
/// one machine and collects the violations. A run that ends before a
/// point is reported there and ends the walk, since no later point is
/// reachable: deterministic replays cannot fall short, so one that does
/// is the hardest violation rather than silent under-exploration.
fn crash_points(
    m: &mut System,
    points: &[u64],
    faults: &CrashFaults,
    oracle: &WorkloadOracle,
) -> Vec<ViolationPoint> {
    let mut violations = Vec::new();
    for &event in points {
        if let Err(detail) = crash_and_judge(m, event, faults, oracle) {
            violations.push(ViolationPoint { event, detail });
            if m.persist_seq() < event {
                break;
            }
        }
    }
    violations
}

/// Runs `m` on to persist event `event`, crashes it under `faults`,
/// recovers, and judges the recovered image.
///
/// # Errors
///
/// Returns the violation's detail: the oracle's diagnosis, the recovery
/// error (a log image recovery cannot even parse is the strongest
/// consistency failure), or a run that ended before `event`.
pub(crate) fn crash_and_judge(
    m: &mut System,
    event: u64,
    faults: &CrashFaults,
    oracle: &WorkloadOracle,
) -> Result<(), String> {
    if !m.run_until_persist_event(event) {
        return Err(format!("replay produced fewer than {event} persist events"));
    }
    let (recovered, _report) = m.crash_and_recover_with(faults).map_err(|e| e.to_string())?;
    oracle.check(&recovered)
}

/// Picks the crash points: `1..=total` when it fits the budget, else one
/// seeded draw per stratum. Always ascending, never duplicated.
pub fn choose_points(total: u64, max_points: usize, seed: u64) -> Vec<u64> {
    if total == 0 || max_points == 0 {
        return Vec::new();
    }
    if total <= max_points as u64 {
        return (1..=total).collect();
    }
    let mut rng = SplitMix64::new(seed);
    let strata = max_points as u64;
    (0..strata)
        .map(|s| {
            let lo = 1 + s * total / strata;
            let hi = s.checked_add(1).map(|n| n * total / strata).unwrap_or(total).max(lo);
            lo + rng.below(hi - lo + 1)
        })
        .map(|p| p.min(total))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_workloads::Benchmark;

    #[test]
    fn exhaustive_below_budget_stratified_above() {
        assert_eq!(choose_points(5, 10, 1), vec![1, 2, 3, 4, 5]);
        assert_eq!(choose_points(0, 10, 1), Vec::<u64>::new());
        assert_eq!(choose_points(5, 0, 1), Vec::<u64>::new());
        let sampled = choose_points(10_000, 32, 42);
        assert_eq!(sampled.len(), 32);
        assert!(sampled.windows(2).all(|w| w[0] < w[1]), "ascending strata");
        assert!(*sampled.first().unwrap() >= 1 && *sampled.last().unwrap() <= 10_000);
        // Deterministic: same seed, same points.
        assert_eq!(sampled, choose_points(10_000, 32, 42));
        assert_ne!(sampled, choose_points(10_000, 32, 43));
    }

    #[test]
    fn spec_hash_distinguishes_fault_and_knob() {
        let base = ExploreSpec::new(
            Benchmark::Queue,
            WorkloadParams { threads: 1, init_ops: 10, sim_ops: 2, seed: 1 },
            LoggingSchemeKind::Proteus,
            64,
        );
        let torn = ExploreSpec { fault: FaultSpec::TornLine { mask: 1 }, ..base.clone() };
        let broken = ExploreSpec { broken_ordering: true, ..base.clone() };
        assert_ne!(base.spec_hash(), torn.spec_hash());
        assert_ne!(base.spec_hash(), broken.spec_hash());
        assert!(base.name().contains("QE") && base.name().contains("clean"));
        assert!(broken.name().ends_with("/broken"));
    }

    #[test]
    fn a_replay_that_falls_short_ends_the_walk() {
        let spec = ExploreSpec::new(
            Benchmark::Queue,
            WorkloadParams { threads: 1, init_ops: 20, sim_ops: 3, seed: 5 },
            LoggingSchemeKind::Proteus,
            24,
        );
        let workload = spec.bench.generate(&spec.params);
        let oracle = WorkloadOracle::new(&workload);
        let faults = spec.fault.to_crash_faults();
        let mut m = System::new(&spec.config(), spec.scheme, &workload).unwrap();
        m.run().unwrap();
        let total = m.persist_seq();

        let mut m = System::new(&spec.config(), spec.scheme, &workload).unwrap();
        let violations = crash_points(&mut m, &[1, total, total + 1, total + 2], &faults, &oracle);
        let expected = format!("replay produced fewer than {} persist events", total + 1);
        assert_eq!(violations, vec![ViolationPoint { event: total + 1, detail: expected }]);
    }

    #[test]
    fn small_queue_workload_explores_cleanly() {
        let spec = ExploreSpec::new(
            Benchmark::Queue,
            WorkloadParams { threads: 1, init_ops: 20, sim_ops: 3, seed: 5 },
            LoggingSchemeKind::Proteus,
            24,
        );
        let outcome = explore(&spec).unwrap();
        assert!(outcome.total_events > 0);
        assert!(outcome.points_explored > 0);
        assert!(outcome.points_explored <= 24);
        assert!(outcome.is_consistent(), "violations: {:?}", outcome.violations);
    }
}
