//! Parallel crash sweeps through the experiment harness.
//!
//! Each [`ExploreSpec`] becomes one harness job named
//! `crash/<bench>/<scheme>/<fault>`, keyed by its stable spec hash, so
//! sweeps inherit everything `proteus-harness` provides: a worker pool
//! with panic isolation and a resumable JSON Lines ledger (re-running
//! an interrupted sweep skips completed explorations and restores
//! their outcomes).

use crate::explore::{explore, ExploreOutcome, ExploreSpec, ViolationPoint};
use proteus_harness::{Harness, JobSpec, Json, PayloadCodec, SweepOptions, SweepReport};
use proteus_types::SimError;

/// Runs every spec through the harness worker pool.
/// [`SweepReport::into_payloads`] turns the report into the outcomes
/// or the first failed exploration's error.
///
/// # Errors
///
/// Only ledger failures ([`SimError::HarnessIo`]) are errors;
/// per-job simulator errors and panics surface as failed or crashed
/// jobs in the report, and consistency violations are *data* in each
/// job's [`ExploreOutcome`] payload.
pub fn sweep(
    specs: &[ExploreSpec],
    opts: &SweepOptions,
) -> Result<SweepReport<ExploreOutcome>, SimError> {
    let jobs: Vec<JobSpec> = specs.iter().map(|s| JobSpec::new(s.name(), s.spec_hash())).collect();
    let codec = PayloadCodec { encode: encode_outcome, decode: decode_outcome };
    Harness::new(codec, |o| o.points_explored as u64, "crash points")
        .run(&jobs, opts, |i| explore(&specs[i]))
}

fn encode_outcome(o: &ExploreOutcome) -> Json {
    Json::obj([
        ("total_events", Json::U64(o.total_events)),
        ("points_explored", Json::U64(o.points_explored as u64)),
        (
            "violations",
            Json::Arr(
                o.violations
                    .iter()
                    .map(|v| {
                        Json::obj([("event", Json::U64(v.event)), ("detail", Json::str(&v.detail))])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn decode_outcome(v: &Json) -> Option<ExploreOutcome> {
    Some(ExploreOutcome {
        total_events: v.get("total_events")?.as_u64()?,
        points_explored: v.get("points_explored")?.as_usize()?,
        violations: v
            .get("violations")?
            .as_arr()?
            .iter()
            .map(|p| {
                Some(ViolationPoint {
                    event: p.get("event")?.as_u64()?,
                    detail: p.get("detail")?.as_str()?.to_string(),
                })
            })
            .collect::<Option<Vec<_>>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_core::scheme::registry;
    use proteus_types::config::LoggingSchemeKind;
    use proteus_workloads::{Benchmark, WorkloadParams};

    /// A failed exploration's own error — not a generic "did not
    /// complete" — is what an all-or-nothing caller gets back, after
    /// its sibling completed.
    #[test]
    fn failed_exploration_message_reaches_the_caller() {
        let params = |init_ops| WorkloadParams { threads: 1, init_ops, sim_ops: 1, seed: 3 };
        let ok = ExploreSpec::new(Benchmark::Queue, params(20), LoggingSchemeKind::Proteus, 4);
        // One transaction updating 64 Ki elements overflows the
        // 4 Ki-entry log area under every failure-safe scheme. §4.1's
        // exception (raised by trace expansion for the software
        // schemes, by the core for Proteus, by the controller's log
        // engine for ATOM) fails the job with it, never with a panic.
        let overflows = registry::all().iter().filter(|d| d.failure_safe).map(|d| {
            ExploreSpec::new(Benchmark::LargeTx { elements: 1 << 16 }, params(1), d.kind, 4)
        });
        let specs: Vec<ExploreSpec> = std::iter::once(ok).chain(overflows).collect();
        let report = sweep(&specs, &SweepOptions::default()).unwrap();
        assert_eq!((report.completed, report.failed, report.crashed), (1, specs.len() - 1, 0));
        for r in &report.results[1..] {
            let overflowed = matches!(r.result, Err(SimError::LogAreaOverflow { .. }));
            assert!(overflowed, "{}: expected LogAreaOverflow, got {:?}", r.name, r.result);
        }
        match report.into_payloads() {
            Err(SimError::LogAreaOverflow { capacity, .. }) => assert_eq!(capacity, 4096),
            other => panic!("expected LogAreaOverflow, got {other:?}"),
        }
    }

    #[test]
    fn outcome_codec_round_trips() {
        let outcome = ExploreOutcome {
            total_events: 512,
            points_explored: 64,
            violations: vec![ViolationPoint { event: 17, detail: "torn".to_string() }],
        };
        let json = encode_outcome(&outcome);
        assert_eq!(decode_outcome(&json), Some(outcome));
        assert_eq!(decode_outcome(&Json::Null), None);
    }
}
