//! Ad-hoc cycle-breakdown probe used while calibrating the model.
//!
//! ```text
//! probe [scale] [qe|hm|ss|bt|rt|at]
//! ```
//!
//! `scale` (default 0.1) must be a finite factor greater than zero and
//! the benchmark (default `at`) one of the six names; anything else
//! exits non-zero with the usage line.
//!
//! Sweeps the headline schemes over one benchmark and prints the
//! aggregate cycle/stall/write breakdown per scheme, then re-runs the
//! Proteus configuration with cycle-level tracing for the deep dive:
//! the per-transaction persist critical path and the queue-occupancy
//! distributions behind the aggregates.

use proteus_bench::cli;
use proteus_sim::runner::{run_workload_traced, sweep_schemes, ExperimentSpec};
use proteus_types::config::{LoggingSchemeKind, SystemConfig, TraceConfig};
use proteus_types::stats::StallCause;
use proteus_workloads::{generate, Benchmark, WorkloadParams};
use std::process::ExitCode;

const USAGE: &str = "usage: probe [scale] [qe|hm|ss|bt|rt|at]";

/// Parses `[scale] [benchmark]` (defaults 0.1 and `at`); `Err` carries
/// the message printed above the usage line.
fn parse(args: &[String]) -> Result<(f64, Benchmark), String> {
    if args.len() > 2 {
        return Err(format!("unexpected argument: {}", args[2]));
    }
    let scale = match args.first() {
        Some(v) => cli::scale("scale", v)?,
        None => 0.1,
    };
    let bench = match args.get(1).map(String::as_str) {
        Some("qe") => Benchmark::Queue,
        Some("hm") => Benchmark::HashMap,
        Some("ss") => Benchmark::StringSwap,
        Some("bt") => Benchmark::BTree,
        Some("rt") => Benchmark::RbTree,
        Some("at") | None => Benchmark::AvlTree,
        Some(other) => return Err(format!("unknown benchmark: {other}")),
    };
    Ok((scale, bench))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, bench) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let params = WorkloadParams::table2(bench, 4, scale);
    let divisor = ((1.0 / scale) as u64).max(1).next_power_of_two().min(64);
    let cfg = SystemConfig::skylake_like().with_cache_divisor(divisor);
    let sweep = match sweep_schemes(
        &cfg,
        bench,
        &params,
        &[
            LoggingSchemeKind::SwPmem,
            LoggingSchemeKind::Atom,
            LoggingSchemeKind::Proteus,
            LoggingSchemeKind::NoLog,
        ],
    ) {
        Ok(sweep) => sweep,
        Err(e) => {
            eprintln!("probe sweep failed ({} at scale {scale}): {e}", bench.abbrev());
            return ExitCode::FAILURE;
        }
    };
    for (label, s) in &sweep.results {
        let m = s.cores_merged();
        // A degenerate run can finish in 0 recorded cycles; keep the
        // probe printable instead of dividing by zero.
        let ipc =
            if s.total_cycles == 0 { 0.0 } else { m.uops_retired as f64 / s.total_cycles as f64 };
        println!(
            "{label:>12}: cycles={} uops={} ipc={ipc:.2} stalls={} nvmm_r={} nvmm_w={} l3hit%={:?}",
            s.total_cycles,
            m.uops_retired,
            m.total_stall_cycles(),
            s.mem.nvmm_reads,
            s.mem.total_nvmm_writes(),
            s.l3.hit_rate_pct().map(|p| p.round()),
        );
        let parts: Vec<String> =
            StallCause::ALL.iter().map(|c| format!("{c}={}", m.stall(*c))).collect();
        println!("              {}", parts.join(" "));
    }

    // Deep dive: where do Proteus commit cycles actually go?
    let spec = ExperimentSpec {
        config: cfg,
        scheme: LoggingSchemeKind::Proteus,
        bench: bench.into(),
        params: params.clone(),
    };
    let workload = generate(bench, &params);
    match run_workload_traced(&spec, &workload, &TraceConfig::enabled()) {
        Ok((result, Some(report))) => {
            if let Err(e) = report.check_against(&result.summary) {
                eprintln!("trace/summary mismatch: {e}");
                return ExitCode::FAILURE;
            }
            println!("\nProteus persist critical path:");
            print!("{}", report.critical_path_table(10));
            println!("\nqueue occupancy (log2 buckets):");
            print!("{}", report.occupancy_table());
        }
        Ok((_, None)) => {
            eprintln!("internal error: tracing was enabled but no report came back");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("traced probe run failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<(f64, Benchmark), String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn bad_scales_and_names_are_rejected() {
        for scale in ["0", "-1", "nan", "inf", "abc"] {
            let err = parse_args(&[scale]).unwrap_err();
            assert_eq!(err, format!("invalid value for scale: {scale}"));
        }
        assert_eq!(parse_args(&["0.1", "xx"]).unwrap_err(), "unknown benchmark: xx");
        assert!(parse_args(&["0.1", "qe", "extra"]).is_err());
    }

    #[test]
    fn defaults_and_names_parse() {
        assert_eq!(parse_args(&[]), Ok((0.1, Benchmark::AvlTree)));
        assert_eq!(parse_args(&["0.02", "qe"]), Ok((0.02, Benchmark::Queue)));
        assert_eq!(parse_args(&["0.5", "at"]), Ok((0.5, Benchmark::AvlTree)));
    }
}
