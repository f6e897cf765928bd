//! JSON codecs for selectors, gen specs and params, and the saved
//! workload file.
//!
//! ## Workload file format (version 1)
//!
//! One line:
//!
//! ```json
//! {"magic":"proteus-workload","version":1,"sel":{...},"params":{...},
//!  "digest":"0123456789abcdef"}
//! ```
//!
//! `digest` is the `GeneratedWorkload::digest` of what `sel` and
//! `params` generate: every program op and every initial-image word.
//! Loading checks, in order: the line parses, the magic and version,
//! the selector and params (decodable, a valid spec, and a thread count
//! the selector and the address layout allow), and finally that
//! regenerating the workload gives the stored digest, so an edited or
//! corrupted file, or a generator that drifted since the file was saved,
//! cannot run as the saved workload. Each failure is a distinct
//! `SimError::InvalidConfig`.

use crate::gen::{GenSpec, GenStructure, OpMix, Skew};
use crate::sel::WorkloadSel;
use proteus_core::layout::AddressLayout;
use proteus_harness::{json, Json};
use proteus_types::SimError;
use proteus_workloads::{
    Benchmark, ContendedKind, ContendedSpec, GeneratedWorkload, WorkloadParams,
};

/// Magic string identifying a workload file.
pub const WORKLOAD_MAGIC: &str = "proteus-workload";

/// Current workload file format version.
pub const WORKLOAD_VERSION: u64 = 1;

/// Encodes a workload selector. `Bench` keeps the historical
/// `Benchmark` encoding byte-for-byte (`{"kind":"QE"}`, `LargeTx` with
/// its element count) so ledgers and goldens written before the
/// generalisation still decode; `Gen` nests the full spec.
pub fn sel_to_json(sel: &WorkloadSel) -> Json {
    match sel {
        WorkloadSel::Bench(Benchmark::LargeTx { elements }) => {
            Json::obj([("kind", Json::str("LT")), ("elements", Json::U64(*elements))])
        }
        WorkloadSel::Bench(other) => Json::obj([("kind", Json::str(other.abbrev()))]),
        WorkloadSel::Gen(g) => {
            Json::obj([("kind", Json::str("GEN")), ("spec", gen_spec_to_json(g))])
        }
        WorkloadSel::Contended(c) => Json::obj([
            ("kind", Json::str("CONTENDED")),
            ("struct", Json::str(c.kind.abbrev())),
            ("early_release", Json::Bool(c.early_release)),
        ]),
    }
}

/// Decodes a workload selector; `None` on unknown kinds.
pub fn sel_from_json(v: &Json) -> Option<WorkloadSel> {
    let bench = |b: Benchmark| Some(WorkloadSel::Bench(b));
    match v.get("kind")?.as_str()? {
        "QE" => bench(Benchmark::Queue),
        "HM" => bench(Benchmark::HashMap),
        "SS" => bench(Benchmark::StringSwap),
        "AT" => bench(Benchmark::AvlTree),
        "BT" => bench(Benchmark::BTree),
        "RT" => bench(Benchmark::RbTree),
        "LT" => bench(Benchmark::LargeTx { elements: v.get("elements")?.as_u64()? }),
        "GEN" => Some(WorkloadSel::Gen(gen_spec_from_json(v.get("spec")?)?)),
        "CONTENDED" => {
            let abbrev = v.get("struct")?.as_str()?;
            let kind = ContendedKind::ALL.into_iter().find(|k| k.abbrev() == abbrev)?;
            Some(WorkloadSel::Contended(ContendedSpec {
                kind,
                early_release: v.get("early_release")?.as_bool()?,
            }))
        }
        _ => None,
    }
}

/// Encodes a gen spec.
pub fn gen_spec_to_json(g: &GenSpec) -> Json {
    let structure = match g.structure {
        GenStructure::HashMap { buckets } => {
            Json::obj([("kind", Json::str("HM")), ("buckets", Json::U64(buckets))])
        }
        GenStructure::BTree => Json::obj([("kind", Json::str("BT"))]),
        GenStructure::Queue => Json::obj([("kind", Json::str("QE"))]),
    };
    let skew = match g.skew {
        Skew::Uniform => Json::obj([("kind", Json::str("uniform"))]),
        Skew::Zipfian { theta_milli } => Json::obj([
            ("kind", Json::str("zipfian")),
            ("theta_milli", Json::U64(theta_milli as u64)),
        ]),
    };
    Json::obj([
        ("name", Json::str(g.name.clone())),
        ("structure", structure),
        ("per_thread", Json::U64(g.per_thread as u64)),
        ("key_range", Json::U64(g.key_range)),
        (
            "mix",
            Json::obj([
                ("read", Json::U64(g.mix.read_pct as u64)),
                ("insert", Json::U64(g.mix.insert_pct as u64)),
                ("delete", Json::U64(g.mix.delete_pct as u64)),
                ("scan", Json::U64(g.mix.scan_pct as u64)),
                ("drain", Json::U64(g.mix.drain_pct as u64)),
            ]),
        ),
        ("skew", skew),
        ("scan_len", Json::U64(g.scan_len as u64)),
        ("tx_ops", Json::U64(g.tx_ops as u64)),
        ("drain_batch", Json::U64(g.drain_batch as u64)),
    ])
}

fn u8_field(v: &Json, key: &str) -> Option<u8> {
    u8::try_from(v.get(key)?.as_u64()?).ok()
}

fn u32_field(v: &Json, key: &str) -> Option<u32> {
    u32::try_from(v.get(key)?.as_u64()?).ok()
}

/// Decodes a gen spec; `None` on malformed input.
pub fn gen_spec_from_json(v: &Json) -> Option<GenSpec> {
    let s = v.get("structure")?;
    let structure = match s.get("kind")?.as_str()? {
        "HM" => GenStructure::HashMap { buckets: s.get("buckets")?.as_u64()? },
        "BT" => GenStructure::BTree,
        "QE" => GenStructure::Queue,
        _ => return None,
    };
    let k = v.get("skew")?;
    let skew = match k.get("kind")?.as_str()? {
        "uniform" => Skew::Uniform,
        "zipfian" => Skew::Zipfian { theta_milli: u32_field(k, "theta_milli")? },
        _ => return None,
    };
    let m = v.get("mix")?;
    Some(GenSpec {
        name: v.get("name")?.as_str()?.to_string(),
        structure,
        per_thread: v.get("per_thread")?.as_usize()?,
        key_range: v.get("key_range")?.as_u64()?,
        mix: OpMix {
            read_pct: u8_field(m, "read")?,
            insert_pct: u8_field(m, "insert")?,
            delete_pct: u8_field(m, "delete")?,
            scan_pct: u8_field(m, "scan")?,
            drain_pct: u8_field(m, "drain")?,
        },
        skew,
        scan_len: u32_field(v, "scan_len")?,
        tx_ops: u32_field(v, "tx_ops")?,
        drain_batch: u32_field(v, "drain_batch")?,
    })
}

/// Encodes workload parameters (the workload file and the crash repro
/// artifact share this shape).
pub fn params_to_json(p: &WorkloadParams) -> Json {
    Json::obj([
        ("threads", Json::U64(p.threads as u64)),
        ("init_ops", Json::U64(p.init_ops as u64)),
        ("sim_ops", Json::U64(p.sim_ops as u64)),
        ("seed", Json::U64(p.seed)),
    ])
}

/// Decodes workload parameters; `None` on missing/mistyped fields.
pub fn params_from_json(v: &Json) -> Option<WorkloadParams> {
    Some(WorkloadParams {
        threads: v.get("threads")?.as_usize()?,
        init_ops: v.get("init_ops")?.as_usize()?,
        sim_ops: v.get("sim_ops")?.as_usize()?,
        seed: v.get("seed")?.as_u64()?,
    })
}

/// The workload file line for `sel` under `params`; `digest` is the
/// `GeneratedWorkload::digest` of what they generate.
pub fn workload_to_line(sel: &WorkloadSel, params: &WorkloadParams, digest: u64) -> String {
    let mut line = Json::obj([
        ("magic", Json::str(WORKLOAD_MAGIC)),
        ("version", Json::U64(WORKLOAD_VERSION)),
        ("sel", sel_to_json(sel)),
        ("params", params_to_json(params)),
        ("digest", Json::str(format!("{digest:016x}"))),
    ])
    .to_line();
    line.push('\n');
    line
}

fn bad(msg: impl Into<String>) -> SimError {
    SimError::InvalidConfig(format!("workload file: {}", msg.into()))
}

/// Parses a workload file and regenerates its workload (see the module
/// docs for the checks). The workload is returned only if its digest is
/// the stored one.
pub fn workload_from_str(
    text: &str,
) -> Result<(WorkloadSel, WorkloadParams, GeneratedWorkload), SimError> {
    let v = json::parse(text.trim_end()).map_err(|e| bad(format!("unparsable: {e}")))?;
    match v.get("magic").and_then(Json::as_str) {
        Some(WORKLOAD_MAGIC) => {}
        _ => return Err(bad("missing or wrong magic (not a workload file)")),
    }
    match v.get("version").and_then(Json::as_u64) {
        Some(WORKLOAD_VERSION) => {}
        Some(other) => {
            return Err(bad(format!("unsupported version {other} (expected {WORKLOAD_VERSION})")))
        }
        None => return Err(bad("missing version")),
    }
    let sel = v.get("sel").and_then(sel_from_json).ok_or_else(|| bad("selector malformed"))?;
    let params =
        v.get("params").and_then(params_from_json).ok_or_else(|| bad("params malformed"))?;
    let stored = v
        .get("digest")
        .and_then(Json::as_str)
        .filter(|d| d.len() == 16 && d.bytes().all(|b| b.is_ascii_hexdigit()))
        .and_then(|d| u64::from_str_radix(d, 16).ok())
        .ok_or_else(|| bad("digest missing or malformed"))?;
    sel.validate().map_err(|e| bad(e.to_string()))?;
    let min_threads = if matches!(sel, WorkloadSel::Contended(_)) { 2 } else { 1 };
    let max_threads = AddressLayout::default().max_threads;
    if !(min_threads..=max_threads).contains(&params.threads) {
        return Err(bad(format!(
            "'{}' runs on {min_threads}..={max_threads} threads, params hold {}",
            sel.abbrev(),
            params.threads
        )));
    }
    let workload = sel.generate(&params);
    let got = workload.digest();
    if got != stored {
        return Err(bad(format!(
            "digest mismatch (file {stored:016x}, regenerated {got:016x}): the file was edited \
             or the generator changed since it was saved"
        )));
    }
    Ok((sel, params, workload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> (WorkloadSel, WorkloadParams) {
        let params = WorkloadParams { threads: 2, init_ops: 30, sim_ops: 10, seed: 5 };
        (WorkloadSel::from(Benchmark::Queue), params)
    }

    fn kv() -> (WorkloadSel, WorkloadParams) {
        let sel = WorkloadSel::Gen(GenSpec {
            name: "kv".into(),
            structure: GenStructure::HashMap { buckets: 8 },
            per_thread: 2,
            key_range: 100,
            mix: OpMix { read_pct: 30, insert_pct: 50, delete_pct: 20, scan_pct: 0, drain_pct: 0 },
            skew: Skew::Zipfian { theta_milli: 990 },
            scan_len: 0,
            tx_ops: 2,
            drain_batch: 0,
        });
        (sel, WorkloadParams { threads: 2, init_ops: 40, sim_ops: 12, seed: 9 })
    }

    fn mq() -> (WorkloadSel, WorkloadParams) {
        let sel = WorkloadSel::Contended(ContendedSpec {
            kind: ContendedKind::MpmcQueue,
            early_release: false,
        });
        (sel, WorkloadParams { threads: 2, init_ops: 16, sim_ops: 4, seed: 3 })
    }

    fn saved((sel, params): &(WorkloadSel, WorkloadParams)) -> String {
        workload_to_line(sel, params, sel.generate(params).digest())
    }

    /// Saves `case` and loads it back: the load must give the same
    /// selector, params, name, programs and image, and re-saving it the
    /// identical line.
    fn assert_round_trip(case: &(WorkloadSel, WorkloadParams)) {
        let text = saved(case);
        assert_eq!(text.lines().count(), 1, "one line: {text}");
        let (sel, params, workload) = workload_from_str(&text).expect("round trip");
        assert_eq!((&sel, &params), (&case.0, &case.1));
        let original = case.0.generate(&case.1);
        assert_eq!(workload.name, original.name);
        assert_eq!(workload.programs, original.programs, "{}", sel.abbrev());
        assert_eq!(workload.initial_image, original.initial_image, "{}", sel.abbrev());
        assert_eq!(workload_to_line(&sel, &params, workload.digest()), text);
    }

    #[test]
    fn workload_file_round_trips_bench_and_gen() {
        assert_round_trip(&queue());
        assert_round_trip(&kv());
    }

    #[test]
    fn load_is_byte_identical_for_every_table2_bench() {
        let (_, params) = queue();
        for b in Benchmark::TABLE2.into_iter().chain([Benchmark::LargeTx { elements: 64 }]) {
            assert_round_trip(&(WorkloadSel::from(b), params.clone()));
        }
    }

    #[test]
    fn load_is_byte_identical_for_generated_workloads() {
        let sel = WorkloadSel::Gen(GenSpec {
            name: "mix".into(),
            structure: GenStructure::BTree,
            per_thread: 2,
            key_range: 500,
            mix: OpMix { read_pct: 30, insert_pct: 40, delete_pct: 10, scan_pct: 20, drain_pct: 0 },
            skew: Skew::Zipfian { theta_milli: 900 },
            scan_len: 5,
            tx_ops: 3,
            drain_batch: 0,
        });
        assert_round_trip(&(sel, kv().1));
    }

    #[test]
    fn contended_selectors_save_and_load() {
        for kind in ContendedKind::ALL {
            for early_release in [false, true] {
                let sel = WorkloadSel::Contended(ContendedSpec { kind, early_release });
                assert_round_trip(&(sel, mq().1));
            }
        }
    }

    #[test]
    fn truncated_workload_file_is_rejected() {
        let text = saved(&queue());
        let err = workload_from_str(&text[..text.len() / 2]).unwrap_err();
        assert!(format!("{err}").contains("unparsable"), "{err}");
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let text = saved(&queue());
        // Wrong magic.
        let bad_magic = text.replacen(WORKLOAD_MAGIC, "not-a-workload", 1);
        assert!(format!("{}", workload_from_str(&bad_magic).unwrap_err()).contains("magic"));
        // Unsupported version.
        let bad_version = text.replacen("\"version\":1", "\"version\":99", 1);
        let err = workload_from_str(&bad_version).unwrap_err();
        assert!(format!("{err}").contains("version"), "{err}");
        // Unparsable line.
        let mut broken = text.clone();
        broken.replace_range(0..1, "X");
        assert!(workload_from_str(&broken).is_err());
    }

    #[test]
    fn load_rejects_thread_mismatch() {
        // A thread count the selector or the address layout cannot run is
        // caught before generation.
        for (case, threads) in [(mq(), 1), (queue(), 0), (queue(), 17)] {
            let from = format!("\"threads\":{}", case.1.threads);
            let to = format!("\"threads\":{threads}");
            let text = saved(&case).replacen(&from, &to, 1);
            let err = workload_from_str(&text).unwrap_err();
            assert!(format!("{err}").contains(&format!("params hold {threads}")), "{err}");
        }
    }

    #[test]
    fn corrupt_body_fails_content_hash() {
        // Edited params and a flipped digest digit both still parse; the
        // regenerated workload's digest catches them.
        for case in [queue(), kv(), mq()] {
            let text = saved(&case);
            let seed = format!("\"seed\":{}", case.1.seed);
            let edited = text.replacen(&seed, &format!("\"seed\":{}", case.1.seed + 1), 1);
            assert_ne!(edited, text);
            let err = workload_from_str(&edited).unwrap_err();
            assert!(format!("{err}").contains("digest mismatch"), "{err}");
            let at = text.find("\"digest\":\"").unwrap() + 10;
            let mut flipped = text.clone().into_bytes();
            flipped[at] = if flipped[at] == b'0' { b'1' } else { b'0' };
            let err = workload_from_str(&String::from_utf8(flipped).unwrap()).unwrap_err();
            assert!(format!("{err}").contains("digest mismatch"), "{err}");
        }
    }

    #[test]
    fn empty_and_garbage_inputs_are_rejected() {
        assert!(workload_from_str("").is_err());
        assert!(workload_from_str("\n\n").is_err());
        assert!(workload_from_str("{\"magic\":\"proteus-workload\"}").is_err());
        assert!(workload_from_str("hello world").is_err());
    }

    #[test]
    fn sel_codec_round_trips_and_keeps_bench_bytes() {
        // Historical Benchmark encoding is pinned byte-for-byte.
        assert_eq!(
            sel_to_json(&WorkloadSel::from(Benchmark::LargeTx { elements: 64 })).to_line(),
            "{\"kind\":\"LT\",\"elements\":64}"
        );
        assert_eq!(
            sel_to_json(&WorkloadSel::from(Benchmark::Queue)).to_line(),
            "{\"kind\":\"QE\"}"
        );
        for (sel, _) in [queue(), kv()] {
            assert_eq!(sel_from_json(&sel_to_json(&sel)), Some(sel));
        }
    }

    #[test]
    fn every_bench_selector_and_params_round_trip() {
        for b in Benchmark::TABLE2.into_iter().chain([Benchmark::LargeTx { elements: 2048 }]) {
            let sel = WorkloadSel::from(b);
            assert_eq!(sel_from_json(&sel_to_json(&sel)), Some(sel));
        }
        let p = WorkloadParams { threads: 3, init_ops: 1234, sim_ops: 567, seed: 0xDEAD_BEEF };
        assert_eq!(params_from_json(&params_to_json(&p)), Some(p));
        // Unknown kinds are rejected, not defaulted.
        assert_eq!(sel_from_json(&Json::obj([("kind", Json::str("??"))])), None);
    }

    #[test]
    fn contended_selector_round_trips() {
        for kind in ContendedKind::ALL {
            for early_release in [false, true] {
                let sel = WorkloadSel::Contended(ContendedSpec { kind, early_release });
                assert_eq!(sel_from_json(&sel_to_json(&sel)), Some(sel));
            }
        }
        assert_eq!(
            sel_to_json(&WorkloadSel::Contended(ContendedSpec {
                kind: ContendedKind::MpmcQueue,
                early_release: false,
            }))
            .to_line(),
            "{\"kind\":\"CONTENDED\",\"struct\":\"MQ\",\"early_release\":false}"
        );
        // Unknown structure abbreviations are rejected, not defaulted.
        let bad = Json::obj([
            ("kind", Json::str("CONTENDED")),
            ("struct", Json::str("??")),
            ("early_release", Json::Bool(false)),
        ]);
        assert_eq!(sel_from_json(&bad), None);
    }
}
