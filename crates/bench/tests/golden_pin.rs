//! Byte-identity pin for the six seed schemes against the committed
//! golden (`tests/golden/fig6_seed_schemes.jsonl`, first captured
//! before the scheme registry refactor landed; `reproduce golden`
//! regenerates it).
//!
//! Two layers of pinning:
//!
//! - **Spec hashes** (both the headline 0.05/4 scale and the tiny CI
//!   scale) cover the entire simulation input — workload parameters,
//!   system config, scheme.
//! - **RunSummary bytes** are replayed at the tiny scale only: every
//!   tiny summary must serialize to exactly the golden bytes.
//!
//! Adding a new scheme (e.g. InCLL) must not disturb either layer:
//! the golden enumerates the seed schemes explicitly, and spec hashes
//! derive from each scheme's stable label, not the enum shape.

use proteus_bench::golden::{fig6_cell_spec, full_scale, seed_schemes, tiny_scale, SEED_LABELS};
use proteus_core::scheme::registry;
use proteus_harness::json;
use proteus_sim::persist::summary_to_json;
use proteus_sim::runner::sweep_schemes;
use proteus_types::config::{LoggingSchemeKind, MemTech};
use proteus_workloads::Benchmark;
use std::collections::BTreeSet;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig6_seed_schemes.jsonl");

struct Cell {
    bench: Benchmark,
    scheme: LoggingSchemeKind,
    spec_hash: String,
    tiny_spec_hash: String,
    tiny_summary: String,
}

fn load_golden() -> Vec<Cell> {
    let text = std::fs::read_to_string(GOLDEN).expect("read committed golden");
    text.lines()
        .map(|line| {
            let j = json::parse(line).expect("parse golden cell");
            let abbrev = j.get("bench").and_then(|b| b.as_str()).expect("bench");
            let bench = *Benchmark::TABLE2
                .iter()
                .find(|b| b.abbrev() == abbrev)
                .unwrap_or_else(|| panic!("golden bench {abbrev} not in Table 2"));
            let label = j.get("scheme").and_then(|s| s.as_str()).expect("scheme");
            let scheme = registry::by_label(label)
                .unwrap_or_else(|| panic!("golden scheme {label} not in registry"))
                .kind;
            let field =
                |k: &str| j.get(k).and_then(|v| v.as_str()).expect("hash field").to_string();
            Cell {
                bench,
                scheme,
                spec_hash: field("spec_hash"),
                tiny_spec_hash: field("tiny_spec_hash"),
                tiny_summary: j.get("tiny_summary").expect("tiny_summary").to_line(),
            }
        })
        .collect()
}

/// The golden must cover exactly (Table 2 benchmarks) x (seed
/// schemes): a cell vanishing or a seed scheme disappearing from the
/// registry is as much a regression as a changed number.
#[test]
fn golden_covers_every_seed_cell() {
    let cells = load_golden();
    assert_eq!(cells.len(), Benchmark::TABLE2.len() * SEED_LABELS.len());
    let seen: BTreeSet<(String, String)> = cells
        .iter()
        .map(|c| (c.bench.abbrev().to_string(), c.scheme.label().to_string()))
        .collect();
    assert_eq!(seen.len(), cells.len(), "duplicate golden cells");
    for bench in Benchmark::TABLE2 {
        for label in SEED_LABELS {
            assert!(
                seen.contains(&(bench.abbrev().to_string(), label.to_string())),
                "golden is missing cell {}/{label}",
                bench.abbrev()
            );
        }
    }
}

#[test]
fn seed_scheme_spec_hashes_are_byte_identical() {
    let cells = load_golden();
    let (full, tiny) = (full_scale(), tiny_scale());
    for cell in &cells {
        let got = format!("{:016x}", fig6_cell_spec(&full, cell.bench, cell.scheme).spec_hash());
        assert_eq!(
            got,
            cell.spec_hash,
            "{}/{}: full-scale spec hash drifted",
            cell.bench.abbrev(),
            cell.scheme.label()
        );
        let got = format!("{:016x}", fig6_cell_spec(&tiny, cell.bench, cell.scheme).spec_hash());
        assert_eq!(
            got,
            cell.tiny_spec_hash,
            "{}/{}: tiny spec hash drifted",
            cell.bench.abbrev(),
            cell.scheme.label()
        );
    }
}

/// The coherence layer must be zero-effect when no line is shared:
/// every single-owner workload runs with all coherence counters at
/// zero, so its `RunSummary` serializes without a `coherence` key and
/// the pre-coherence golden bytes above stay reachable. (The golden
/// replay itself proves byte-identity; this pins *why* it holds.)
#[test]
fn single_owner_runs_report_zero_coherence_activity() {
    let tiny = tiny_scale();
    for bench in Benchmark::TABLE2 {
        let sweep = sweep_schemes(
            &tiny.config().with_mem_tech(MemTech::NvmFast),
            bench,
            &tiny.params(bench),
            &[LoggingSchemeKind::SwPmem, LoggingSchemeKind::Proteus],
        )
        .expect("tiny sweep");
        for scheme in [LoggingSchemeKind::SwPmem, LoggingSchemeKind::Proteus] {
            let summary = sweep.summary_of(scheme);
            assert!(
                summary.coherence.is_zero(),
                "{}/{}: single-owner run reported coherence activity: {:?}",
                bench.abbrev(),
                scheme.label(),
                summary.coherence
            );
            let line = summary_to_json(summary).to_line();
            assert!(
                !line.contains("\"coherence\""),
                "{}/{}: zero coherence stats must not serialize",
                bench.abbrev(),
                scheme.label()
            );
        }
    }
}

/// Full numeric replay at the tiny scale.
#[test]
fn seed_scheme_tiny_summaries_are_byte_identical() {
    let cells = load_golden();
    let tiny = tiny_scale();
    let schemes = seed_schemes();
    for bench in Benchmark::TABLE2 {
        let sweep = sweep_schemes(
            &tiny.config().with_mem_tech(MemTech::NvmFast),
            bench,
            &tiny.params(bench),
            &schemes,
        )
        .expect("tiny sweep");
        for cell in cells.iter().filter(|c| c.bench == bench) {
            let got = summary_to_json(sweep.summary_of(cell.scheme)).to_line();
            assert_eq!(
                got,
                cell.tiny_summary,
                "{}/{}: tiny RunSummary bytes drifted",
                bench.abbrev(),
                cell.scheme.label()
            );
        }
    }
}
