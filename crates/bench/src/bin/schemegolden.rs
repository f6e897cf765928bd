//! Dumps per-(bench, scheme) spec hashes and RunSummary JSON for the
//! fig6 configuration — the byte-identity golden used to pin scheme
//! refactors (see `proteus_bench::golden`).
//!
//! ```text
//! schemegolden [--scale S] [--threads N] [--tiny-scale S] [--tiny-threads N] [--out PATH]
//! ```
//!
//! Each JSONL line is one (Table 2 benchmark, scheme) cell:
//!
//! ```json
//! {"bench":"QE","scheme":"PMEM","spec_hash":"...","summary":{...},
//!  "tiny_spec_hash":"...","tiny_summary":{...}}
//! ```
//!
//! `spec_hash`/`summary` are at the headline scale (default 0.05 / 4
//! threads — the acceptance configuration for behaviour-preserving
//! refactors); `tiny_*` at a small scale cheap enough for CI to
//! re-simulate on every run (`crates/bench/tests/golden_pin.rs`).
//! Regenerate the committed golden with:
//!
//! ```text
//! cargo run --release -p proteus-bench --bin schemegolden -- \
//!     --out crates/bench/tests/golden/fig6_seed_schemes.jsonl
//! ```

use proteus_bench::cli::{number, scale};
use proteus_bench::experiments::ExperimentScale;
use proteus_bench::golden::fig6_cell_spec;
use proteus_harness::Json;
use proteus_sim::persist::summary_to_json;
use proteus_sim::runner::sweep_schemes;
use proteus_types::config::{LoggingSchemeKind, MemTech};
use proteus_workloads::Benchmark;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage: schemegolden [--scale S] [--threads N] [--tiny-scale S] \
                     [--tiny-threads N] [--out PATH]";

/// A parsed command line.
#[derive(Debug)]
struct Options {
    full: ExperimentScale,
    tiny: ExperimentScale,
    out: String,
}

/// Parses the arguments after the binary name; `Err` carries the
/// message printed above the usage line.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        full: ExperimentScale { scale: 0.05, threads: 4 },
        tiny: ExperimentScale { scale: 0.02, threads: 2 },
        out: "schemegolden.jsonl".to_string(),
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--scale" => o.full.scale = scale(flag, value()?)?,
            "--threads" => o.full.threads = number(flag, value()?)?,
            "--tiny-scale" => o.tiny.scale = scale(flag, value()?)?,
            "--tiny-threads" => o.tiny.threads = number(flag, value()?)?,
            "--out" => o.out = value()?.clone(),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options { full, tiny, out } = match parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let schemes = LoggingSchemeKind::ALL;
    let mut lines: Vec<String> = Vec::new();
    for bench in Benchmark::TABLE2 {
        let mut sweeps = Vec::new();
        for scale in [&full, &tiny] {
            match sweep_schemes(
                &scale.config().with_mem_tech(MemTech::NvmFast),
                bench,
                &scale.params(bench),
                &schemes,
            ) {
                Ok(s) => sweeps.push(s),
                Err(e) => {
                    eprintln!("schemegolden: {}/{:?} failed: {e}", bench.abbrev(), scale);
                    return ExitCode::FAILURE;
                }
            }
        }
        for scheme in schemes {
            let line = Json::obj([
                ("bench", Json::str(bench.abbrev())),
                ("scheme", Json::str(scheme.label())),
                (
                    "spec_hash",
                    Json::str(format!("{:016x}", fig6_cell_spec(&full, bench, scheme).spec_hash())),
                ),
                ("summary", summary_to_json(sweeps[0].summary_of(scheme))),
                (
                    "tiny_spec_hash",
                    Json::str(format!("{:016x}", fig6_cell_spec(&tiny, bench, scheme).spec_hash())),
                ),
                ("tiny_summary", summary_to_json(sweeps[1].summary_of(scheme))),
            ])
            .to_line();
            lines.push(line);
        }
        eprintln!("[schemegolden] {} done", bench.abbrev());
    }

    let mut f = match std::fs::File::create(&out) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("schemegolden: cannot create {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &lines {
        if let Err(e) = writeln!(f, "{line}") {
            eprintln!("schemegolden: write failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("[schemegolden] wrote {} cells to {out}", lines.len());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Options, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn malformed_or_unknown_arguments_are_rejected_not_defaulted() {
        for flag in ["--scale", "--threads", "--tiny-scale", "--tiny-threads"] {
            let err = parse_args(&[flag, "abc"]).unwrap_err();
            assert_eq!(err, format!("invalid value for {flag}: abc"));
        }
        for flag in ["--scale", "--tiny-scale"] {
            for value in ["0", "-1", "nan", "inf"] {
                let err = parse_args(&[flag, value]).unwrap_err();
                assert_eq!(err, format!("invalid value for {flag}: {value}"));
            }
        }
        assert_eq!(parse_args(&["--out"]).unwrap_err(), "missing value for --out");
        assert_eq!(parse_args(&["--bogus", "1"]).unwrap_err(), "unknown argument: --bogus");
    }

    #[test]
    fn well_formed_flags_reach_the_options() {
        let o = parse_args(&["--scale", "0.1", "--tiny-threads", "3", "--out", "g.jsonl"])
            .expect("a well-formed command line must parse");
        assert_eq!((o.full.scale, o.full.threads), (0.1, 4));
        assert_eq!((o.tiny.scale, o.tiny.threads), (0.02, 3));
        assert_eq!(o.out, "g.jsonl");
    }
}
