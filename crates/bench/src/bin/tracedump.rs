//! Cycle-level trace dump for one benchmark run.
//!
//! ```text
//! tracedump <qe|hm|ss|at|bt|rt> [--scale S] [--threads N] [--scheme NAME]
//!           [--ring N] [--interval N] [--out PATH] [--jsonl PATH]
//! ```
//!
//! Runs the benchmark once under the chosen scheme (default: Proteus)
//! with tracing enabled, prints the per-transaction persist
//! critical-path table and the queue-occupancy histograms, and writes a
//! Chrome trace-event JSON file loadable in Perfetto or
//! `chrome://tracing` (default: `proteus-trace.json`), plus an optional
//! JSONL summary.
//!
//! Before exiting, the dump is validated end to end: the trace must
//! agree (±0) with the run's `RunSummary`, the emitted JSON must parse,
//! and every core track and every MC queue track must carry at least
//! one event. Any failure exits non-zero.

use proteus_bench::cli::{number, scale};
use proteus_harness::json::{self, Json};
use proteus_sim::runner::{run_workload_traced, ExperimentSpec};
use proteus_trace::export::{PID_CORES, PID_MC};
use proteus_trace::QueueId;
use proteus_types::config::{LoggingSchemeKind, SystemConfig, TraceConfig};
use proteus_workloads::{generate, Benchmark, WorkloadParams};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: tracedump <qe|hm|ss|at|bt|rt> [--scale S] [--threads N] \
                     [--scheme NAME] [--ring N] [--interval N] [--out PATH] [--jsonl PATH]";

/// A parsed command line.
#[derive(Debug)]
struct Args {
    bench: Benchmark,
    scale: f64,
    threads: usize,
    scheme: LoggingSchemeKind,
    trace_cfg: TraceConfig,
    out_path: PathBuf,
    jsonl_path: Option<PathBuf>,
}

/// Parses the arguments after the binary name; `Err` carries the
/// message printed above the usage line.
fn parse(args: &[String]) -> Result<Args, String> {
    let bench = match args.first().map(String::as_str) {
        Some("qe") => Benchmark::Queue,
        Some("hm") => Benchmark::HashMap,
        Some("ss") => Benchmark::StringSwap,
        Some("at") => Benchmark::AvlTree,
        Some("bt") => Benchmark::BTree,
        Some("rt") => Benchmark::RbTree,
        Some(other) => return Err(format!("unknown benchmark: {other}")),
        None => return Err("no benchmark given".to_string()),
    };
    let mut parsed = Args {
        bench,
        scale: 0.1,
        threads: 4,
        scheme: LoggingSchemeKind::Proteus,
        trace_cfg: TraceConfig::enabled(),
        out_path: PathBuf::from("proteus-trace.json"),
        jsonl_path: None,
    };
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--scale" => parsed.scale = scale(flag, value()?)?,
            "--threads" => parsed.threads = number(flag, value()?)?,
            "--scheme" => {
                let v = value()?;
                parsed.scheme = scheme_by_name(v).ok_or_else(|| format!("unknown scheme: {v}"))?;
            }
            "--ring" => parsed.trace_cfg.ring_capacity = number(flag, value()?)?,
            "--interval" => parsed.trace_cfg.sample_interval = number(flag, value()?)?,
            "--out" => parsed.out_path = PathBuf::from(value()?),
            "--jsonl" => parsed.jsonl_path = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(parsed)
}

fn scheme_by_name(name: &str) -> Option<LoggingSchemeKind> {
    LoggingSchemeKind::ALL.into_iter().find(|s| {
        s.label().eq_ignore_ascii_case(name) || format!("{s:?}").eq_ignore_ascii_case(name)
    })
}

/// Counts Chrome events per `(pid, tid)` pair, skipping `"M"` metadata.
fn events_per_track(trace: &Json) -> Vec<(u64, u64, usize)> {
    let mut counts: Vec<(u64, u64, usize)> = Vec::new();
    let Some(events) = trace.get("traceEvents").and_then(Json::as_arr) else {
        return counts;
    };
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) == Some("M") {
            continue;
        }
        let (Some(pid), Some(tid)) =
            (ev.get("pid").and_then(Json::as_u64), ev.get("tid").and_then(Json::as_u64))
        else {
            continue;
        };
        match counts.iter_mut().find(|(p, t, _)| *p == pid && *t == tid) {
            Some((_, _, n)) => *n += 1,
            None => counts.push((pid, tid, 1)),
        }
    }
    counts
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { bench, scale, threads, scheme, trace_cfg, out_path, jsonl_path } = match parse(&args)
    {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let params = WorkloadParams::table2(bench, threads, scale).with_derived_seed(bench);
    let divisor = if scale >= 1.0 { 1 } else { ((1.0 / scale) as u64).next_power_of_two().min(64) };
    let spec = ExperimentSpec {
        config: SystemConfig::skylake_like().with_num_cores(threads).with_cache_divisor(divisor),
        scheme,
        bench: bench.into(),
        params,
    };
    let workload = generate(bench, &spec.params);
    let (result, report) = match run_workload_traced(&spec, &workload, &trace_cfg) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(report) = report else {
        eprintln!("internal error: tracing was enabled but no report came back");
        return ExitCode::FAILURE;
    };

    // The trace is observability, not ground truth: refuse to print one
    // that disagrees with the authoritative counters.
    if let Err(e) = report.check_against(&result.summary) {
        eprintln!("trace/summary mismatch: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "{}: {} cycles, {} trace events ({} dropped), {} tx records",
        result.name,
        result.summary.total_cycles,
        report.total_events(),
        report.total_dropped(),
        report.tx_records().len()
    );
    println!("\npersist critical path (cycles from last store to durable commit):");
    print!("{}", report.critical_path_table(20));
    println!("\nqueue occupancy / wait distributions (log2 buckets):");
    print!("{}", report.occupancy_table());

    let chrome = report.to_chrome_json();
    if let Err(e) = std::fs::write(&out_path, &chrome) {
        eprintln!("cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    if let Some(path) = &jsonl_path {
        if let Err(e) = std::fs::write(path, report.to_jsonl_summary()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    // Validate the artifact we just wrote: it must parse as JSON and
    // every core track and MC queue track must carry at least one event.
    let parsed = match json::parse(&chrome) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("emitted Chrome JSON does not parse: {e}");
            return ExitCode::FAILURE;
        }
    };
    let counts = events_per_track(&parsed);
    let mut missing = Vec::new();
    for core in 0..workload.programs.len() as u64 {
        if !counts.iter().any(|&(p, t, n)| p == u64::from(PID_CORES) && t == core && n > 0) {
            missing.push(format!("core{core}"));
        }
    }
    for q in [QueueId::ReadQ, QueueId::Wpq, QueueId::Lpq] {
        let tid = q.slot() as u64;
        if !counts.iter().any(|&(p, t, n)| p == u64::from(PID_MC) && t == tid && n > 0) {
            missing.push(format!("mc.{}", q.label()));
        }
    }
    if !missing.is_empty() {
        eprintln!("trace JSON is missing events on tracks: {}", missing.join(", "));
        return ExitCode::FAILURE;
    }

    println!("\nwrote {} ({} bytes), all tracks populated", out_path.display(), chrome.len());
    if let Some(path) = &jsonl_path {
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Args, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn degenerate_and_malformed_values_are_rejected() {
        for scale in ["0", "-1", "nan", "inf", "abc"] {
            let err = parse_args(&["qe", "--scale", scale]).unwrap_err();
            assert_eq!(err, format!("invalid value for --scale: {scale}"));
        }
        for flag in ["--threads", "--ring", "--interval"] {
            let err = parse_args(&["qe", flag, "x"]).unwrap_err();
            assert_eq!(err, format!("invalid value for {flag}: x"));
        }
        assert_eq!(parse_args(&["qe", "--scale"]).unwrap_err(), "missing value for --scale");
        assert_eq!(parse_args(&["xx"]).unwrap_err(), "unknown benchmark: xx");
        assert_eq!(parse_args(&["qe", "--scheme", "nope"]).unwrap_err(), "unknown scheme: nope");
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn well_formed_flags_are_taken() {
        let args = parse_args(&["ss", "--scale", "0.02", "--threads", "2", "--scheme", "atom"])
            .expect("a well-formed command line must parse");
        assert_eq!(args.bench, Benchmark::StringSwap);
        assert_eq!(args.scale, 0.02);
        assert_eq!(args.threads, 2);
        assert_eq!(args.scheme, LoggingSchemeKind::Atom);
        assert_eq!(args.out_path, PathBuf::from("proteus-trace.json"));
    }
}
