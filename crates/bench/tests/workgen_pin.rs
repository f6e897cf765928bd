//! Pins and end-to-end acceptance for the workgen roster.
//!
//! * Every generated preset's *spec identity* (the `StableHash` of its
//!   selector, which keys resume ledgers) is pinned to a literal —
//!   editing a preset is a deliberate, reviewed act.
//! * Every preset's workload *digest* (`GeneratedWorkload::digest`, the
//!   one a saved workload file stores and `replay` checks) is pinned
//!   where generation is environment-independent (uniform skew);
//!   zipfian presets go through `f64::powf`, so their digest pins are
//!   gated on [`skew_fingerprint`] (`golden_pin`, by contrast, replays
//!   its numeric goldens unconditionally on the in-tree RNG stream).
//! * Every preset runs end-to-end on every registered scheme, and a
//!   tiny crash exploration of a preset holds zero oracle violations.

use proteus_bench::experiments::ExperimentScale;
use proteus_crash::{explore, ExploreSpec};
use proteus_sim::System;
use proteus_types::config::LoggingSchemeKind;
use proteus_types::stable_hash_value;
use proteus_workgen::{roster, skew_fingerprint};
use proteus_workloads::WorkloadParams;

/// The zipfian table `skew_fingerprint()` of the environment the
/// digest pins were captured in (x86-64 IEEE-754 `powf`).
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

/// `GeneratedWorkload::digest()` of every preset generated at
/// `params(2, 0.002)`, in roster order, with whether generation is
/// skew-free (pinned unconditionally) or zipfian (fingerprint-gated).
const PRESET_DIGESTS: &[(&str, bool, u64)] = &[
    ("ycsb-a", false, 0x4636_5b7a_0a81_ef4e),
    ("ycsb-b", false, 0x1605_b4e3_a3ac_0f10),
    ("ycsb-c", false, 0xb584_efa2_8248_55d9),
    ("scan-heavy", true, 0x1a70_4cca_439e_9a77),
    ("indexer", true, 0x873e_07a5_2c95_0906),
    ("million-key", false, 0xff35_839f_806a_e160),
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
             invalidates its ledger keys and saved workload files; update the pin deliberately",
            d.cli_name,
            stable_hash_value(&d.sel())
        );
    }
}

#[test]
fn preset_workload_digests_are_pinned() {
    let skew_matches = skew_fingerprint() == PINNED_SKEW_FINGERPRINT;
    let presets: Vec<_> = roster::presets().collect();
    assert_eq!(presets.len(), PRESET_DIGESTS.len());
    for (d, (name, skew_free, digest)) in presets.iter().zip(PRESET_DIGESTS) {
        assert_eq!(d.cli_name, *name);
        if !skew_free && !skew_matches {
            eprintln!("skipping zipfian digest pin for {} (foreign powf)", d.cli_name);
            continue;
        }
        let got = d.sel().generate(&d.params(PIN_THREADS, PIN_SCALE)).digest();
        assert_eq!(
            got, *digest,
            "{}: generated workload drifted (digest {got:#018x}) — saved workload files of \
             this preset no longer load",
            d.cli_name
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
