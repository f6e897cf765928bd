//! Minimal crash repro artifacts: shrink, save, load, replay.
//!
//! When exploration finds a violation, the interesting object is not the
//! thousand-transaction workload it was found in but the smallest
//! workload and earliest crash point that still shows it. The shrinker
//! walks the workload size down (halving, then decrementing, first
//! `sim_ops` then `init_ops`) re-exploring at each step, and finally
//! takes the earliest violating event of an exhaustive pass over the
//! shrunk workload.
//!
//! The result is a [`CrashRepro`]: a fully self-contained JSON artifact
//! (workload shape, scheme, fault model, knobs, event index) that
//! `reproduce crashrepro --file <path>` replays deterministically —
//! regenerate the workload, run to the event, crash with the fault,
//! recover, judge.

use crate::explore::{explore, ExploreSpec, ViolationPoint};
use crate::fault::FaultSpec;
use proteus_core::scheme::registry;
use proteus_harness::{json, Json};
use proteus_types::SimError;
use proteus_workgen::codec::{params_from_json, params_to_json, sel_from_json, sel_to_json};
use proteus_workloads::WorkloadParams;

/// Artifact format version, bumped on any incompatible change.
pub const REPRO_VERSION: u64 = 1;

/// A replayable minimal crash repro.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashRepro {
    /// The (shrunk) exploration spec.
    pub spec: ExploreSpec,
    /// Persist-event index of the violating crash.
    pub event: u64,
    /// Oracle diagnosis recorded when the repro was minimised.
    pub detail: String,
}

/// Outcome of replaying a repro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Whether the violation reproduced.
    pub violated: bool,
    /// Fresh oracle diagnosis (or "consistent").
    pub detail: String,
}

impl CrashRepro {
    /// Replays the artifact from scratch: regenerate the workload, run
    /// to the recorded persist event, crash with the recorded fault,
    /// recover, judge.
    ///
    /// # Errors
    ///
    /// Returns simulator configuration errors; consistency results are
    /// reported in the [`ReplayOutcome`], never as errors.
    pub fn replay(&self) -> Result<ReplayOutcome, SimError> {
        use proteus_sim::System;
        use proteus_types::config::SystemConfig;

        let workload = self.spec.bench.generate(&self.spec.params);
        let oracle = crate::oracle::WorkloadOracle::new(&workload);
        let cfg = SystemConfig::skylake_like()
            .with_num_cores(self.spec.params.threads.max(1))
            .with_disable_persist_ordering(self.spec.broken_ordering);
        let mut m = System::new(&cfg, self.spec.scheme, &workload)?;
        if !m.run_until_persist_event(self.event) {
            return Ok(ReplayOutcome {
                violated: true,
                detail: format!("replay produced fewer than {} persist events", self.event),
            });
        }
        match m.crash_and_recover_with(&self.spec.fault.to_crash_faults()) {
            Ok((recovered, _report)) => match oracle.check(&recovered) {
                Err(detail) => Ok(ReplayOutcome { violated: true, detail }),
                Ok(()) => Ok(ReplayOutcome {
                    violated: false,
                    detail: format!("consistent at event {}", self.event),
                }),
            },
            Err(e) => Ok(ReplayOutcome { violated: true, detail: e.to_string() }),
        }
    }

    /// Serialises to the JSON artifact: a version header, the flattened
    /// exploration spec ([`explore_spec_to_json`]), and the violation
    /// coordinates.
    pub fn to_json(&self) -> Json {
        let Json::Obj(spec_pairs) = explore_spec_to_json(&self.spec) else {
            unreachable!("explore_spec_to_json always returns an object");
        };
        let mut pairs = vec![("version".to_string(), Json::U64(REPRO_VERSION))];
        pairs.extend(spec_pairs);
        pairs.push(("event".to_string(), Json::U64(self.event)));
        pairs.push(("detail".to_string(), Json::str(&self.detail)));
        Json::Obj(pairs)
    }

    /// Deserialises the JSON artifact; `None` on shape or version
    /// mismatch.
    pub fn from_json(v: &Json) -> Option<CrashRepro> {
        if v.get("version")?.as_u64()? != REPRO_VERSION {
            return None;
        }
        Some(CrashRepro {
            spec: explore_spec_from_json(v)?,
            event: v.get("event")?.as_u64()?,
            detail: v.get("detail")?.as_str()?.to_string(),
        })
    }

    /// Writes the artifact to `path` as a single JSON line.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HarnessIo`] on filesystem failure.
    pub fn save(&self, path: &std::path::Path) -> Result<(), SimError> {
        std::fs::write(path, self.to_json().to_line() + "\n")
            .map_err(|e| SimError::HarnessIo(format!("writing {}: {e}", path.display())))
    }

    /// Loads an artifact written by [`CrashRepro::save`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HarnessIo`] on filesystem or parse failure.
    pub fn load(path: &std::path::Path) -> Result<CrashRepro, SimError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SimError::HarnessIo(format!("reading {}: {e}", path.display())))?;
        let value = json::parse(text.trim())
            .map_err(|e| SimError::HarnessIo(format!("{}: {e}", path.display())))?;
        CrashRepro::from_json(&value).ok_or_else(|| {
            SimError::HarnessIo(format!(
                "{}: not a version-{REPRO_VERSION} crash repro",
                path.display()
            ))
        })
    }
}

/// Shrinks a violating spec to a minimal repro. Returns `None` if the
/// spec does not actually violate (so callers cannot fabricate repro
/// artifacts from clean runs).
///
/// # Errors
///
/// Propagates simulator errors from the exploration passes.
pub fn shrink(spec: &ExploreSpec) -> Result<Option<CrashRepro>, SimError> {
    let Some(mut best) = first_violation(spec)? else {
        return Ok(None);
    };
    let mut current = spec.clone();

    // Shrink sim_ops, then init_ops: halve while the violation survives,
    // then decrement for the last factor of two.
    for field in [ShrinkField::SimOps, ShrinkField::InitOps] {
        loop {
            let value = field.get(&current.params);
            if value <= 1 {
                break;
            }
            let mut candidate = current.clone();
            field.set(&mut candidate.params, value / 2);
            match first_violation(&candidate)? {
                Some(v) => {
                    current = candidate;
                    best = v;
                }
                None => break,
            }
        }
        loop {
            let value = field.get(&current.params);
            if value <= 1 {
                break;
            }
            let mut candidate = current.clone();
            field.set(&mut candidate.params, value - 1);
            match first_violation(&candidate)? {
                Some(v) => {
                    current = candidate;
                    best = v;
                }
                None => break,
            }
        }
    }

    // Earliest violating event of an exhaustive pass over the shrunk
    // workload: the final repro never depends on sampling luck. (Bounded
    // so a workload that refused to shrink cannot explode the pass.)
    let exhaustive = ExploreSpec { max_points: 4096, ..current.clone() };
    let outcome = explore(&exhaustive)?;
    if let Some(v) = outcome.violations.first() {
        best = v.clone();
        current = exhaustive;
    }
    Ok(Some(CrashRepro { spec: current, event: best.event, detail: best.detail }))
}

fn first_violation(spec: &ExploreSpec) -> Result<Option<ViolationPoint>, SimError> {
    Ok(explore(spec)?.violations.into_iter().next())
}

#[derive(Clone, Copy)]
enum ShrinkField {
    SimOps,
    InitOps,
}

impl ShrinkField {
    fn get(self, p: &WorkloadParams) -> usize {
        match self {
            ShrinkField::SimOps => p.sim_ops,
            ShrinkField::InitOps => p.init_ops,
        }
    }

    fn set(self, p: &mut WorkloadParams, v: usize) {
        match self {
            ShrinkField::SimOps => p.sim_ops = v,
            ShrinkField::InitOps => p.init_ops = v,
        }
    }
}

/// Encodes an exploration spec as a flat JSON object — the body of
/// [`CrashRepro`] artifacts. The workload selector and params use
/// `proteus_workgen::codec`, the scheme its stable report label.
pub fn explore_spec_to_json(spec: &ExploreSpec) -> Json {
    Json::obj([
        ("bench", sel_to_json(&spec.bench)),
        ("params", params_to_json(&spec.params)),
        ("scheme", Json::str(spec.scheme.label())),
        ("fault", fault_to_json(spec.fault)),
        ("broken_ordering", Json::Bool(spec.broken_ordering)),
        ("max_points", Json::U64(spec.max_points as u64)),
    ])
}

/// Decodes an exploration spec; `None` on malformed input. Accepts any
/// object carrying the [`explore_spec_to_json`] fields, so it also
/// reads them out of the flattened [`CrashRepro`] artifact.
pub fn explore_spec_from_json(v: &Json) -> Option<ExploreSpec> {
    Some(ExploreSpec {
        bench: sel_from_json(v.get("bench")?)?,
        params: params_from_json(v.get("params")?)?,
        scheme: registry::by_label(v.get("scheme")?.as_str()?)?.kind,
        fault: fault_from_json(v.get("fault")?)?,
        broken_ordering: v.get("broken_ordering")?.as_bool()?,
        max_points: v.get("max_points")?.as_usize()?,
    })
}

/// Encodes a fault model selector.
pub fn fault_to_json(fault: FaultSpec) -> Json {
    match fault {
        FaultSpec::Clean => Json::obj([("kind", Json::str("clean"))]),
        FaultSpec::TornLine { mask } => {
            Json::obj([("kind", Json::str("torn")), ("mask", Json::U64(mask as u64))])
        }
        FaultSpec::DroppedInFlight => Json::obj([("kind", Json::str("dropped"))]),
        FaultSpec::PartialAdr { wpq_keep, lpq_keep } => Json::obj([
            ("kind", Json::str("partial_adr")),
            ("wpq_keep", Json::U64(wpq_keep as u64)),
            ("lpq_keep", Json::U64(lpq_keep as u64)),
        ]),
    }
}

/// Decodes a fault model selector; `None` on unknown kinds.
pub fn fault_from_json(v: &Json) -> Option<FaultSpec> {
    match v.get("kind")?.as_str()? {
        "clean" => Some(FaultSpec::Clean),
        "torn" => Some(FaultSpec::TornLine { mask: u8::try_from(v.get("mask")?.as_u64()?).ok()? }),
        "dropped" => Some(FaultSpec::DroppedInFlight),
        "partial_adr" => Some(FaultSpec::PartialAdr {
            wpq_keep: v.get("wpq_keep")?.as_usize()?,
            lpq_keep: v.get("lpq_keep")?.as_usize()?,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_types::config::LoggingSchemeKind;
    use proteus_workloads::Benchmark;

    fn sample_repro() -> CrashRepro {
        CrashRepro {
            spec: ExploreSpec {
                bench: Benchmark::RbTree.into(),
                params: WorkloadParams { threads: 2, init_ops: 30, sim_ops: 4, seed: 99 },
                scheme: LoggingSchemeKind::Proteus,
                fault: FaultSpec::PartialAdr { wpq_keep: 1, lpq_keep: 0 },
                broken_ordering: true,
                max_points: 128,
            },
            event: 41,
            detail: "Thread(0) matches none of 5 boundary states".to_string(),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let repro = sample_repro();
        let line = repro.to_json().to_line();
        let parsed = json::parse(&line).unwrap();
        assert_eq!(CrashRepro::from_json(&parsed), Some(repro));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let repro = sample_repro();
        let mut v = repro.to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs[0].1 = Json::U64(REPRO_VERSION + 1);
        }
        assert_eq!(CrashRepro::from_json(&v), None);
    }

    #[test]
    fn save_load_round_trip() {
        let repro = sample_repro();
        let path =
            std::env::temp_dir().join(format!("proteus-crash-repro-{}.json", std::process::id()));
        repro.save(&path).unwrap();
        let loaded = CrashRepro::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded, repro);
    }

    #[test]
    fn fault_json_covers_all_variants() {
        for f in [
            FaultSpec::Clean,
            FaultSpec::TornLine { mask: 0xAA },
            FaultSpec::DroppedInFlight,
            FaultSpec::PartialAdr { wpq_keep: 3, lpq_keep: 7 },
        ] {
            assert_eq!(fault_from_json(&fault_to_json(f)), Some(f));
        }
    }
}
