//! Property-based tests of the workload file: any saved workload must
//! load back to the same selector, params and workload, while
//! truncations and single-byte corruptions of the stored line must
//! either be rejected cleanly or load the identical workload — never
//! panic, never run a silently different one.

use proteus_types::prop::{assume, check, Gen};
use proteus_workgen::codec::{workload_from_str, workload_to_line};
use proteus_workgen::{GenSpec, GenStructure, OpMix, Skew, WorkloadSel};
use proteus_workloads::{
    Benchmark, ContendedKind, ContendedSpec, GeneratedWorkload, WorkloadParams,
};

fn arb_gen_sel(g: &mut Gen) -> WorkloadSel {
    let per_thread = g.range(1..3) as usize;
    let key_range = g.range(0..200);
    let theta_milli = g.range(1..1000) as u32;
    let zipf = g.bool();
    let tx_ops = g.range(1..4) as u32;
    WorkloadSel::Gen(GenSpec {
        name: "prop".into(),
        structure: GenStructure::HashMap { buckets: 16 },
        per_thread,
        key_range,
        mix: OpMix { read_pct: 30, insert_pct: 50, delete_pct: 20, scan_pct: 0, drain_pct: 0 },
        skew: if zipf { Skew::Zipfian { theta_milli } } else { Skew::Uniform },
        scan_len: 0,
        tx_ops,
        drain_batch: 0,
    })
}

fn arb_sel(g: &mut Gen) -> WorkloadSel {
    match g.range(0..6) {
        0 => Benchmark::Queue.into(),
        1 => Benchmark::HashMap.into(),
        2 => Benchmark::RbTree.into(),
        3 => Benchmark::LargeTx { elements: 32 }.into(),
        4 => ContendedSpec { kind: g.pick(&ContendedKind::ALL), early_release: g.bool() }.into(),
        _ => arb_gen_sel(g),
    }
}

/// A selector and params it generates under: contended selectors get at
/// least two threads.
fn arb_case(g: &mut Gen) -> (WorkloadSel, WorkloadParams) {
    let sel = arb_sel(g);
    let min_threads = if matches!(sel, WorkloadSel::Contended(_)) { 2 } else { 1 };
    let threads = g.range(min_threads..3) as usize;
    let init_ops = g.len(0..40);
    let sim_ops = g.len(1..16);
    (sel, WorkloadParams { threads, init_ops, sim_ops, seed: g.u64() })
}

/// The saved line and the workload it was saved from.
fn save(sel: &WorkloadSel, params: &WorkloadParams) -> (String, GeneratedWorkload) {
    let workload = sel.generate(params);
    (workload_to_line(sel, params, workload.digest()), workload)
}

fn assert_same_run(a: &GeneratedWorkload, b: &GeneratedWorkload) {
    assert_eq!(a.programs, b.programs);
    assert_eq!(a.initial_image, b.initial_image);
}

#[test]
fn workload_files_round_trip_exactly() {
    check("workload_files_round_trip_exactly", 256, arb_case, |(sel, params)| {
        let (text, _) = save(&sel, &params);
        let (back_sel, back_params, back) =
            workload_from_str(&text).expect("own serialisation must load");
        assert_eq!((&back_sel, &back_params), (&sel, &params));
        // And the text itself is canonical: re-serialising is identical.
        assert_eq!(workload_to_line(&back_sel, &back_params, back.digest()), text);
    });
}

#[test]
fn loads_match_the_saved_generation() {
    check("loads_match_the_saved_generation", 256, arb_case, |(sel, params)| {
        let (text, workload) = save(&sel, &params);
        let (_, _, loaded) = workload_from_str(&text).expect("a saved workload must load");
        assert_eq!(loaded.name, workload.name);
        assert_same_run(&loaded, &workload);
    });
}

#[test]
fn truncations_are_rejected_or_equal() {
    let case = |g: &mut Gen| (arb_case(g), g.unit_f64());
    check("truncations_are_rejected_or_equal", 256, case, |((sel, params), cut_frac)| {
        let (text, workload) = save(&sel, &params);
        let mut cut = ((text.len() as f64) * cut_frac) as usize;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        // A prefix either fails to load (broken JSON) or, cut exactly at
        // the final newline, loads the identical workload. It must never
        // load a different one.
        match workload_from_str(&text[..cut]) {
            Ok((_, _, back)) => assert_same_run(&back, &workload),
            Err(e) => assert!(e.to_string().contains("workload file"), "wrong error class: {e}"),
        }
    });
}

#[test]
fn single_byte_corruptions_never_yield_a_different_workload() {
    let case = |g: &mut Gen| {
        let replacement = g.pick(b"09a\"[}, ");
        (arb_case(g), g.unit_f64(), replacement)
    };
    let name = "single_byte_corruptions_never_yield_a_different_workload";
    check(name, 256, case, |((sel, params), pos_frac, replacement)| {
        let (text, workload) = save(&sel, &params);
        let mut bytes = text.into_bytes();
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        assume(bytes[pos] != replacement);
        bytes[pos] = replacement;
        let Ok(mutated) = String::from_utf8(bytes) else {
            return; // ASCII replacement into ASCII text; unreachable
        };
        // A mutation may survive only where it changes nothing the
        // workload runs: the digest pins every program op and image word.
        match workload_from_str(&mutated) {
            Ok((_, _, back)) => assert_same_run(&back, &workload),
            Err(e) => assert!(e.to_string().contains("workload file"), "wrong error class: {e}"),
        }
    });
}
