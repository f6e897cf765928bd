//! Byte-identity goldens for scheme refactors.
//!
//! The committed golden (`crates/bench/tests/golden/fig6_seed_schemes.jsonl`,
//! regenerated by `reproduce golden`) records, per (Table 2 benchmark,
//! seed scheme) fig6 cell:
//!
//! * the [`ExperimentSpec::spec_hash`] at the headline acceptance scale
//!   ([`full_scale`]) and at the tiny CI scale ([`tiny_scale`]);
//! * the full `RunSummary` JSON at both scales.
//!
//! `tests/golden_pin.rs` holds the simulator to it. Workloads draw from
//! the in-tree `proteus_types::rng` streams, so both halves pin
//! simulator behaviour in every build environment.

use crate::experiments::ExperimentScale;
use proteus_core::scheme::registry;
use proteus_harness::{Json, SweepOptions};
use proteus_sim::persist::summary_to_json;
use proteus_sim::runner::{sweep_schemes_with, ExperimentSpec};
use proteus_types::config::{LoggingSchemeKind, MemTech};
use proteus_types::SimError;
use proteus_workloads::Benchmark;

/// The schemes the golden was captured with: every scheme that existed
/// before the registry refactor, in presentation order. InCLL (and any
/// future scheme) is deliberately absent — the pin proves the seed
/// schemes kept their exact behaviour, not that new schemes match
/// anything.
pub const SEED_LABELS: [&str; 6] =
    ["PMEM", "PMEM+pcommit", "ATOM", "Proteus+NoLWR", "Proteus", "PMEM+nolog"];

/// The seed schemes, resolved through the registry.
pub fn seed_schemes() -> Vec<LoggingSchemeKind> {
    SEED_LABELS
        .iter()
        .map(|l| registry::by_label(l).expect("seed scheme is registered").kind)
        .collect()
}

/// The headline acceptance scale of behaviour-preserving refactors.
pub fn full_scale() -> ExperimentScale {
    ExperimentScale { scale: 0.05, threads: 4 }
}

/// A scale small enough for CI to re-simulate on every run.
pub fn tiny_scale() -> ExperimentScale {
    ExperimentScale { scale: 0.02, threads: 2 }
}

/// The exact spec `fig6` builds for one (scale, bench, scheme) cell:
/// Table 1 config at the scale's cache divisor, NVMM timing, Table 2
/// ops with the derived seed.
pub fn fig6_cell_spec(
    scale: &ExperimentScale,
    bench: Benchmark,
    scheme: LoggingSchemeKind,
) -> ExperimentSpec {
    ExperimentSpec {
        config: scale.config().with_mem_tech(MemTech::NvmFast),
        scheme,
        bench: bench.into(),
        params: scale.params(bench),
    }
}

/// The golden's lines: one JSON object per (Table 2 benchmark, seed
/// scheme) cell, benchmarks in paper order and schemes in
/// [`SEED_LABELS`] order, with the spec hash and `RunSummary` at `full`
/// and at `tiny`. `reproduce golden` writes them at [`full_scale`] and
/// [`tiny_scale`].
///
/// # Errors
///
/// Propagates the first failed sweep.
pub fn golden_lines(
    full: &ExperimentScale,
    tiny: &ExperimentScale,
    opts: &SweepOptions,
) -> Result<Vec<String>, SimError> {
    let schemes = seed_schemes();
    let mut lines = Vec::new();
    for bench in Benchmark::TABLE2 {
        let sweep = |scale: &ExperimentScale| {
            let config = scale.config().with_mem_tech(MemTech::NvmFast);
            sweep_schemes_with(&config, bench, &scale.params(bench), &schemes, opts)
        };
        let (full_sweep, tiny_sweep) = (sweep(full)?, sweep(tiny)?);
        for &scheme in &schemes {
            let hash = |scale| {
                Json::str(format!("{:016x}", fig6_cell_spec(scale, bench, scheme).spec_hash()))
            };
            let line = Json::obj([
                ("bench", Json::str(bench.abbrev())),
                ("scheme", Json::str(scheme.label())),
                ("spec_hash", hash(full)),
                ("summary", summary_to_json(full_sweep.summary_of(scheme))),
                ("tiny_spec_hash", hash(tiny)),
                ("tiny_summary", summary_to_json(tiny_sweep.summary_of(scheme))),
            ]);
            lines.push(line.to_line());
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_harness::json;

    #[test]
    fn cell_spec_matches_fig6_construction() {
        let scale = ExperimentScale { scale: 0.05, threads: 4 };
        let spec = fig6_cell_spec(&scale, Benchmark::Queue, LoggingSchemeKind::Proteus);
        assert_eq!(spec.config.num_cores, 4);
        assert_eq!(spec.params.threads, 4);
        // Derived seeds differ per bench, so cells are distinct specs.
        let other = fig6_cell_spec(&scale, Benchmark::HashMap, LoggingSchemeKind::Proteus);
        assert_ne!(spec.spec_hash(), other.spec_hash());
    }

    /// A regenerated golden must hold exactly the committed file's
    /// cells, in its order: the seed schemes only, never every
    /// registered scheme, or `golden_pin` rejects what `reproduce
    /// golden` writes. (Its bytes at the fixed scales are checked by
    /// regenerating and comparing the whole file.)
    #[test]
    fn golden_lines_hold_exactly_the_committed_cells_in_order() {
        let cell = |line: &str| {
            let j = json::parse(line).expect("golden line parses");
            let field = |k: &str| j.get(k).and_then(Json::as_str).expect("cell field").to_string();
            (field("bench"), field("scheme"))
        };
        let small = ExperimentScale { scale: 0.001, threads: 2 };
        let lines = golden_lines(&small, &small, &SweepOptions::default()).unwrap();
        let committed = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/fig6_seed_schemes.jsonl"
        ))
        .unwrap();
        let expected: Vec<_> = committed.lines().map(cell).collect();
        assert_eq!(lines.iter().map(|l| cell(l)).collect::<Vec<_>>(), expected);
        assert_eq!(expected.len(), Benchmark::TABLE2.len() * SEED_LABELS.len());
    }
}
