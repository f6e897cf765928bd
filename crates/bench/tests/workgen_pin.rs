//! Pins and end-to-end acceptance for the workgen roster.
//!
//! * Every generated preset's *spec identity* (the `StableHash` of its
//!   selector, which keys resume ledgers and trace headers) is pinned
//!   to a literal — editing a preset is a deliberate, reviewed act.
//! * Preset trace *content* hashes are pinned where the op stream is
//!   environment-independent (uniform skew); zipfian presets go
//!   through `f64::powf`, so their content pins are gated on
//!   [`skew_fingerprint`] (`golden_pin`, by contrast, replays its
//!   numeric goldens unconditionally on the in-tree RNG stream).
//! * Every preset runs end-to-end on every registered scheme, and
//!   record -> serialise -> parse -> replay yields a byte-identical
//!   `RunSummary` with fast-forwarding on and off.

use proteus_bench::experiments::ExperimentScale;
use proteus_crash::{explore, ExploreSpec};
use proteus_sim::System;
use proteus_types::config::LoggingSchemeKind;
use proteus_types::stable_hash_value;
use proteus_workgen::codec::{trace_from_str, trace_to_string};
use proteus_workgen::{record, replay, roster, skew_fingerprint, WorkloadSel};
use proteus_workloads::{Benchmark, WorkloadParams};

/// The zipfian table `skew_fingerprint()` of the environment the
/// content pins were captured in (x86-64 IEEE-754 `powf`).
const PINNED_SKEW_FINGERPRINT: u64 = 0x40f2_fda0_efe0_9802;

/// `stable_hash_value` of every preset selector, in roster order.
const PRESET_SEL_HASHES: &[(&str, u64)] = &[
    ("ycsb-a", 0xec30_96cb_4990_1885),
    ("ycsb-b", 0xf2b1_e7c8_b8b9_8f82),
    ("ycsb-c", 0x6ce8_9d17_8ae6_b570),
    ("scan-heavy", 0x06d8_a918_21bc_c0da),
    ("indexer", 0x05a2_8ba9_bd55_f521),
    ("million-key", 0x71ad_f6d0_608f_1131),
];

/// `OpTrace::content_hash()` of every preset recorded at
/// `params(2, 0.002)`, in roster order, with whether the stream is
/// skew-free (pinned unconditionally) or zipfian (fingerprint-gated).
const PRESET_CONTENT_HASHES: &[(&str, bool, u64)] = &[
    ("ycsb-a", false, 0x2438_8536_8c2a_3607),
    ("ycsb-b", false, 0x48e9_c971_9e6f_e44d),
    ("ycsb-c", false, 0xa9c0_5eb8_bbb8_bb89),
    ("scan-heavy", true, 0xecf9_3bf4_5312_fe5b),
    ("indexer", true, 0xbf71_8532_841c_a8fc),
    ("million-key", false, 0x8c3a_5da3_d4f4_c839),
];

const PIN_SCALE: f64 = 0.002;
const PIN_THREADS: usize = 2;

fn tiny_scale() -> ExperimentScale {
    ExperimentScale { scale: PIN_SCALE, threads: PIN_THREADS }
}

#[test]
fn preset_selector_hashes_are_pinned() {
    let presets: Vec<_> = roster::presets().collect();
    assert_eq!(presets.len(), PRESET_SEL_HASHES.len());
    for (d, (name, hash)) in presets.iter().zip(PRESET_SEL_HASHES) {
        assert_eq!(d.cli_name, *name, "preset roster order changed");
        assert_eq!(
            stable_hash_value(&d.sel()),
            *hash,
            "{}: preset spec identity drifted (hash {:#018x}) — editing a preset \
             invalidates its ledger keys and recorded traces; update the pin deliberately",
            d.cli_name,
            stable_hash_value(&d.sel())
        );
    }
}

#[test]
fn preset_trace_content_hashes_are_pinned() {
    let skew_matches = skew_fingerprint() == PINNED_SKEW_FINGERPRINT;
    let presets: Vec<_> = roster::presets().collect();
    assert_eq!(presets.len(), PRESET_CONTENT_HASHES.len());
    for (d, (name, skew_free, hash)) in presets.iter().zip(PRESET_CONTENT_HASHES) {
        assert_eq!(d.cli_name, *name);
        if !skew_free && !skew_matches {
            eprintln!("skipping zipfian content pin for {} (foreign powf)", d.cli_name);
            continue;
        }
        let params = d.params(PIN_THREADS, PIN_SCALE);
        let (_, trace) = record(&d.sel(), &params).unwrap();
        assert_eq!(
            trace.content_hash(),
            *hash,
            "{}: recorded op stream drifted (content hash {:#018x})",
            d.cli_name,
            trace.content_hash()
        );
    }
}

#[test]
fn every_preset_runs_on_every_scheme() {
    let config = tiny_scale().config();
    for d in roster::presets() {
        let sel = d.sel();
        sel.validate().unwrap_or_else(|e| panic!("{}: {e}", d.cli_name));
        let params = d.params(PIN_THREADS, PIN_SCALE);
        let workload = sel.generate(&params);
        for scheme in LoggingSchemeKind::ALL {
            let summary = System::new(&config, scheme, &workload)
                .and_then(|mut s| s.run())
                .unwrap_or_else(|e| panic!("{} on {}: {e}", d.cli_name, scheme.label()));
            assert!(summary.total_cycles > 0, "{} on {}", d.cli_name, scheme.label());
        }
    }
}

/// Acceptance: recording a workload and replaying its trace (through
/// the full serialise/parse path) yields a byte-identical `RunSummary`
/// on every scheme, with the fast-forward engine both on and off.
#[test]
fn record_replay_summaries_are_byte_identical_under_both_engines() {
    let config = tiny_scale().config();
    let cases: Vec<(String, WorkloadSel, WorkloadParams)> = [
        // A paper Table 2 workload (the acceptance case) and the two
        // structurally richest presets.
        ("qe", WorkloadSel::from(Benchmark::Queue)),
        ("ycsb-a", roster::by_cli_name("ycsb-a").unwrap().sel()),
        ("indexer", roster::by_cli_name("indexer").unwrap().sel()),
    ]
    .into_iter()
    .map(|(name, sel)| {
        let params = match &sel {
            WorkloadSel::Bench(b) => tiny_scale().params(*b),
            WorkloadSel::Gen(_) | WorkloadSel::Contended(_) => {
                roster::by_cli_name(name).unwrap().params(PIN_THREADS, PIN_SCALE)
            }
        };
        (name.to_string(), sel, params)
    })
    .collect();
    for (name, sel, params) in cases {
        let (recorded, trace) = record(&sel, &params).unwrap();
        let parsed = trace_from_str(&trace_to_string(&trace)).expect("trace round trip");
        assert_eq!(parsed, trace, "{name}");
        let replayed = replay(&parsed).expect("replay");
        assert_eq!(recorded.programs, replayed.programs, "{name}");
        assert_eq!(recorded.initial_image, replayed.initial_image, "{name}");
        for scheme in [LoggingSchemeKind::SwPmem, LoggingSchemeKind::Proteus] {
            for fast in [true, false] {
                let run = |w: &proteus_workloads::GeneratedWorkload| {
                    let mut sys = System::new(&config, scheme, w).unwrap();
                    sys.set_fast_forward(fast);
                    sys.run().unwrap()
                };
                assert_eq!(
                    run(&recorded),
                    run(&replayed),
                    "{name}/{} (ff={fast}): replayed RunSummary diverged",
                    scheme.label()
                );
            }
        }
    }
}

/// Crashsweep smoke over a generated preset: a tiny exploration of
/// ycsb-a under Proteus must hold zero oracle violations.
#[test]
fn generated_preset_crashsweep_smoke_is_clean() {
    let sel = roster::by_cli_name("ycsb-a").unwrap().sel();
    let params =
        sel.derived_params(WorkloadParams { threads: 2, init_ops: 40, sim_ops: 12, seed: 0 });
    let spec = ExploreSpec::new(sel, params, LoggingSchemeKind::Proteus, 64);
    let outcome = explore(&spec).expect("exploration");
    assert!(outcome.points_explored > 0);
    assert!(
        outcome.violations.is_empty(),
        "ycsb-a/Proteus: {} violations, first: {:?}",
        outcome.violations.len(),
        outcome.violations.first()
    );
}
