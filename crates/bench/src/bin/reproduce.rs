//! Regenerates the paper's tables and figures; the repository's one
//! command line.
//!
//! ```text
//! reproduce <TARGET|all> [--scale S] [--threads N] [--jobs J] [--resume LEDGER]
//!           [--file PATH] [--workload NAME] [--scheme NAME[,NAME...]] [--crash-at PCT]
//! ```
//!
//! The targets are the figures (`fig6`–`fig12`), the tables
//! (`table1`–`table4`), the `ablation-*` sweeps, and the tool targets
//! described below; `all` runs every one in table order. Running
//! `reproduce` with no target prints the usage line, whose target list
//! is generated from the experiment table, so it is always complete.
//!
//! `--scale` scales the Table 2 op counts (default 0.1; any finite
//! factor greater than zero); `--threads` sets the core/thread count
//! (default 4; at most the address layout's thread capacity, 16).
//! Shapes are stable across scales; absolute speedups move slightly.
//! `--workload` takes a roster name and `--scheme` a comma list of
//! scheme registry names; `reproduce workloads` lists both. An
//! unparsable, out-of-range or unknown value exits non-zero with the
//! usage line.
//!
//! The harness flags:
//!
//! * `--jobs J` — worker threads per scheme sweep (default: available
//!   parallelism, clamped to the sweep size);
//! * `--resume LEDGER` — JSONL checkpoint file. Experiments already
//!   completed in the ledger are restored instead of re-run, so an
//!   interrupted (or partially crashed) invocation picks up where it
//!   left off when re-run with the same ledger.
//!
//! Each finished job prints a `[harness i/n]` progress line to stderr
//! (outcome, wall time, simulated cycles per second), and each sweep a
//! summary with its worker utilisation.
//!
//! `bench` times the cycle engine on a fixed workload basket with
//! event-driven fast-forwarding on and off, cross-checking that both
//! modes produce identical results, and writes a JSON report to
//! `--file` (default `BENCH_cycle_engine.json`).
//!
//! `crashsweep` explores crash points across the roster's crash
//! workloads and every failure-safe scheme, self-validating against
//! the `disable_persist_ordering` fault knob and writing its shrunk
//! repro artifact to `--file` (default: a fixed path under the system
//! temp directory). `crashrepro` replays such an artifact.
//!
//! `contention` is the cross-thread counterpart: it explores crash
//! points over the roster's contended shared-structure workloads
//! (MPMC queue, contended hash maps, lock-coupled B-trees) under every
//! failure-safe scheme, judged against each structure's lock-ordered
//! commit prefixes, and self-validates against the `early_release`
//! lock-handoff fault knob.
//!
//! `trace` explains one cell, the deep dive behind Fig. 7: the
//! `--workload` (default `qe`) under each `--scheme` (default
//! `atom,proteus`), traced cycle by cycle. Per scheme it prints the
//! `RunSummary` breakdown, the persist critical path and the
//! queue-occupancy distributions. `--file PATH` (one scheme only)
//! writes the Chrome trace-event JSON, loadable in Perfetto, and checks
//! that it parses with every core and controller queue track populated;
//! `--crash-at PCT` (1..99) also crashes the cell at PCT% of its run and
//! prints the log areas and each thread's recovery decision.
//!
//! `golden` regenerates the seed-scheme golden that `golden_pin`
//! replays, always at the pin's fixed scales, to `--file` (default: a
//! fixed path under the system temp directory).
//!
//! The workgen targets: `workloads` lists the workload roster (Table 2
//! rows, generated presets, contended rows) and the scheme registry,
//! with each row's roles; `gen --workload NAME` sweeps every scheme
//! over a roster workload and, with `--file`, saves it as one line (its
//! selector, params and digest); `replay --file PATH` regenerates a
//! saved workload, fails unless its digest matches the file's, and runs
//! every scheme on it.

use proteus_bench::experiments::{
    ablation_llt, ablation_threads, ablation_wpq, bench, contention, crashrepro, crashsweep, fig10,
    fig11, fig12, fig6, fig7, fig8, fig9, gen, golden, replay, table1, table2, table3, table4,
    trace, workloads, ExperimentCtx,
};
use proteus_core::layout::AddressLayout;
use proteus_core::scheme::registry;
use proteus_types::config::LoggingSchemeKind;
use proteus_workgen::roster;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

type Experiment = fn(&ExperimentCtx) -> Result<String, proteus_types::SimError>;

/// Every target, in the order `all` runs them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("ablation-llt", ablation_llt),
    ("ablation-threads", ablation_threads),
    ("ablation-wpq", ablation_wpq),
    ("bench", bench),
    ("crashsweep", crashsweep),
    ("contention", contention),
    ("crashrepro", crashrepro),
    ("trace", trace),
    ("golden", golden),
    ("workloads", workloads),
    ("gen", gen),
    ("replay", replay),
];

/// The usage line; its target list is [`EXPERIMENTS`] plus `all`.
fn usage_line() -> String {
    let targets: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).chain(["all"]).collect();
    format!(
        "usage: reproduce <{}> [--scale S] [--threads N] [--jobs J] [--resume LEDGER] \
         [--file PATH] [--workload NAME] [--scheme NAME[,NAME...]] [--crash-at PCT]",
        targets.join("|")
    )
}

/// The selected experiments, in table order, and their context.
type Invocation = (Vec<(&'static str, Experiment)>, ExperimentCtx);

/// Parses the arguments after the binary name; `Err` carries the
/// message printed above the usage line.
fn parse(args: &[String]) -> Result<Invocation, String> {
    let Some(target) = args.first() else {
        return Err("no target given".to_string());
    };
    let selected: Vec<(&'static str, Experiment)> =
        EXPERIMENTS.iter().copied().filter(|(name, _)| target == "all" || name == target).collect();
    if selected.is_empty() {
        return Err(format!("unknown target: {target}"));
    }
    let mut ctx = ExperimentCtx::default();
    ctx.opts.progress = true;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--scale" => ctx.scale.scale = scale(flag, value()?)?,
            "--threads" => {
                let max = AddressLayout::default().max_threads;
                ctx.scale.threads = in_range(flag, value()?, 1..=max)?;
            }
            "--jobs" => ctx.opts.workers = number(flag, value()?)?,
            "--resume" => ctx.opts.ledger = Some(PathBuf::from(value()?)),
            "--file" => ctx.file = Some(PathBuf::from(value()?)),
            "--workload" => ctx.workload = Some(workload(value()?)?),
            "--scheme" => ctx.schemes = schemes(value()?)?,
            "--crash-at" => ctx.crash_at = Some(in_range(flag, value()?, 1..=99)?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if ctx.file.is_some() && ctx.schemes.len() != 1 && selected.iter().any(|(n, _)| *n == "trace") {
        return Err("trace --file writes one trace: give exactly one --scheme".to_string());
    }
    Ok((selected, ctx))
}

/// Parses a numeric flag value. A malformed value is an error, never a
/// silent fallback to the default; the message names the flag and the
/// rejected value.
fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("invalid value for {flag}: {value}"))
}

/// Parses an integer flag value that must lie in `range`.
fn in_range<T: FromStr + PartialOrd + std::fmt::Display>(
    flag: &str,
    value: &str,
    range: RangeInclusive<T>,
) -> Result<T, String> {
    let n = number(flag, value)?;
    if !range.contains(&n) {
        let (lo, hi) = range.into_inner();
        return Err(format!("invalid value for {flag}: {value} (must be {lo}..={hi})"));
    }
    Ok(n)
}

/// Parses a workload scale factor. Only a finite factor greater than zero
/// is one: zero, negative and NaN factors would silently size every
/// workload at one op, and an infinite one at `u64::MAX` ops.
fn scale(flag: &str, value: &str) -> Result<f64, String> {
    number(flag, value)
        .ok()
        .filter(|f: &f64| f.is_finite() && *f > 0.0)
        .ok_or_else(|| format!("invalid value for {flag}: {value}"))
}

/// Resolves a roster workload by its CLI name.
fn workload(name: &str) -> Result<&'static roster::WorkloadDescriptor, String> {
    roster::by_cli_name(name).ok_or_else(|| {
        let known: Vec<&str> = roster::all().iter().map(|d| d.cli_name).collect();
        format!("unknown workload: {name} ({})", known.join("|"))
    })
}

/// Resolves a comma list of scheme registry CLI names.
fn schemes(names: &str) -> Result<Vec<LoggingSchemeKind>, String> {
    names
        .split(',')
        .map(|name| {
            registry::by_cli_name(name).map(|d| d.kind).ok_or_else(|| {
                let known: Vec<&str> = registry::all().iter().map(|d| d.cli_name).collect();
                format!("unknown scheme: {name} ({})", known.join("|"))
            })
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (selected, ctx) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{}", usage_line());
            return ExitCode::FAILURE;
        }
    };
    for (name, run) in selected {
        let start = std::time::Instant::now();
        match run(&ctx) {
            Ok(report) => {
                println!("{report}");
                eprintln!("[{name} done in {:.1?}]", start.elapsed());
            }
            Err(e) => {
                eprintln!("{name} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Invocation, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn ctx_of(args: &[&str]) -> ExperimentCtx {
        parse_args(args).unwrap_or_else(|e| panic!("{args:?} must parse: {e}")).1
    }

    #[test]
    fn malformed_numbers_are_rejected_not_defaulted() {
        for flag in ["--scale", "--threads", "--jobs", "--crash-at"] {
            let err = parse_args(&["table2", flag, "abc"]).unwrap_err();
            assert_eq!(err, format!("invalid value for {flag}: abc"));
        }
        assert!(parse_args(&["table2", "--threads", "-1"]).is_err());
        for flag in ["--scale", "--workload", "--scheme", "--crash-at", "--file"] {
            let err = parse_args(&["trace", flag]).unwrap_err();
            assert_eq!(err, format!("missing value for {flag}"));
        }
        assert!(parse_args(&["table2", "--bogus", "1"]).is_err());
        assert_eq!(
            parse_args(&["fig6", "--events", "x"]).unwrap_err(),
            "unknown argument: --events"
        );
    }

    #[test]
    fn degenerate_scales_are_rejected() {
        for scale in ["0", "-1", "nan", "inf", "-inf", "1e400"] {
            let err = parse_args(&["table2", "--scale", scale]).unwrap_err();
            assert_eq!(err, format!("invalid value for --scale: {scale}"));
        }
        assert_eq!(ctx_of(&["table2", "--scale", "1e-3"]).scale.scale, 1e-3);
    }

    /// Every thread needs a core and a log area, so the thread count is
    /// bounded by the address layout, not only by the integer type.
    #[test]
    fn threads_outside_the_address_layout_are_rejected() {
        let max = AddressLayout::default().max_threads;
        assert_eq!(max, 16);
        for target in ["trace", "fig6", "table2"] {
            for threads in ["0", "17"] {
                let err = parse_args(&[target, "--threads", threads]).unwrap_err();
                assert_eq!(err, format!("invalid value for --threads: {threads} (must be 1..=16)"));
            }
        }
        assert_eq!(ctx_of(&["trace", "--threads", "1"]).scale.threads, 1);
        assert_eq!(ctx_of(&["trace", "--threads", "16"]).scale.threads, 16);
    }

    #[test]
    fn well_formed_flags_reach_the_context() {
        let args = ["fig6", "--scale", "0.05", "--threads", "2", "--jobs", "3", "--file", "f.json"];
        let Ok((selected, ctx)) = parse_args(&args) else {
            panic!("a well-formed command line must parse");
        };
        assert_eq!(selected.iter().map(|(name, _)| *name).collect::<Vec<_>>(), ["fig6"]);
        assert_eq!(ctx.scale.scale, 0.05);
        assert_eq!(ctx.scale.threads, 2);
        assert_eq!(ctx.opts.workers, 3);
        assert_eq!(ctx.file, Some(PathBuf::from("f.json")));
        assert!(ctx.opts.progress);
    }

    /// No `--workload` or `--scheme` leaves the choice to `trace` (QE
    /// under ATOM, then Proteus) at the default scale.
    #[test]
    fn trace_defaults_and_workload_names_parse() {
        let ctx = ctx_of(&["trace"]);
        assert!(ctx.workload.is_none() && ctx.schemes.is_empty() && ctx.crash_at.is_none());
        assert_eq!((ctx.scale.scale, ctx.scale.threads), (0.1, 4));
        for (scale, name) in [("0.02", "qe"), ("0.5", "at")] {
            let ctx = ctx_of(&["trace", "--scale", scale, "--workload", name]);
            assert_eq!(ctx.scale.scale.to_string(), scale);
            assert_eq!(ctx.workload.map(|d| d.cli_name), Some(name));
        }
    }

    #[test]
    fn trace_rejects_bad_scales_unknown_workloads_and_stray_positionals() {
        for scale in ["0", "-1", "nan", "inf", "abc"] {
            let err = parse_args(&["trace", "--scale", scale]).unwrap_err();
            assert_eq!(err, format!("invalid value for --scale: {scale}"));
        }
        let err = parse_args(&["trace", "--workload", "xx"]).unwrap_err();
        assert!(err.starts_with("unknown workload: xx ("), "{err}");
        assert_eq!(parse_args(&["trace", "qe"]).unwrap_err(), "unknown argument: qe");
    }

    #[test]
    fn trace_selects_roster_workloads_and_registry_schemes() {
        let ctx = ctx_of(&[
            "trace",
            "--workload",
            "ss",
            "--scale",
            "0.02",
            "--threads",
            "2",
            "--scheme",
            "atom",
        ]);
        assert_eq!(ctx.workload.map(|d| d.cli_name), Some("ss"));
        assert_eq!((ctx.scale.scale, ctx.scale.threads), (0.02, 2));
        assert_eq!(ctx.schemes, [LoggingSchemeKind::Atom]);
        assert_eq!(ctx.file, None);
        let ctx = ctx_of(&["trace", "--workload", "QE", "--scheme", "sw,proteus,incll"]);
        assert_eq!(ctx.workload.map(|d| d.cli_name), Some("qe"));
        assert_eq!(
            ctx.schemes,
            [LoggingSchemeKind::SwPmem, LoggingSchemeKind::Proteus, LoggingSchemeKind::Incll]
        );
        assert_eq!(ctx_of(&["gen", "--workload", "mq"]).workload.map(|d| d.cli_name), Some("mq"));
    }

    #[test]
    fn unknown_workloads_and_schemes_are_rejected() {
        for name in ["xx", "", "queue"] {
            let err = parse_args(&["trace", "--workload", name]).unwrap_err();
            assert!(err.starts_with(&format!("unknown workload: {name} (qe|hm|")), "{err}");
        }
        for (list, bad) in [("nope", "nope"), ("atom,nope", "nope"), ("ATOM", "ATOM"), ("", "")] {
            let err = parse_args(&["trace", "--scheme", list]).unwrap_err();
            assert!(err.starts_with(&format!("unknown scheme: {bad} (sw|pcommit|")), "{err}");
        }
    }

    #[test]
    fn crash_percents_outside_1_to_99_are_rejected() {
        for pct in ["0", "100", "150", "-5"] {
            let err = parse_args(&["trace", "--crash-at", pct]).unwrap_err();
            assert!(err.starts_with(&format!("invalid value for --crash-at: {pct}")), "{err}");
        }
        assert_eq!(
            parse_args(&["trace", "--crash-at", "abc"]).unwrap_err(),
            "invalid value for --crash-at: abc"
        );
    }

    #[test]
    fn crash_percents_from_1_to_99_parse() {
        for pct in [1, 50, 99] {
            let ctx = ctx_of(&["trace", "--scheme", "proteus", "--crash-at", &pct.to_string()]);
            assert_eq!(ctx.crash_at, Some(pct));
        }
    }

    #[test]
    fn trace_file_takes_exactly_one_scheme() {
        for args in [
            &["trace", "--file", "t.json"][..],
            &["trace", "--scheme", "atom,proteus", "--file", "t.json"],
            &["all", "--file", "t.json"],
        ] {
            let err = parse_args(args).unwrap_err();
            assert_eq!(err, "trace --file writes one trace: give exactly one --scheme");
        }
        let ctx = ctx_of(&["trace", "--scheme", "proteus", "--file", "t.json"]);
        assert_eq!(ctx.file, Some(PathBuf::from("t.json")));
        // Other targets keep their own --file.
        assert!(parse_args(&["crashsweep", "--file", "r.json"]).is_ok());
    }

    #[test]
    fn golden_takes_only_its_file() {
        assert_eq!(ctx_of(&["golden", "--file", "g.jsonl"]).file, Some(PathBuf::from("g.jsonl")));
        assert_eq!(ctx_of(&["golden"]).file, None);
    }

    /// `golden` always runs at the pin's fixed scales, so the flags that
    /// once set them are gone; a malformed value is still an error.
    #[test]
    fn golden_rejects_removed_and_malformed_flags() {
        for flag in ["--out", "--tiny-scale", "--tiny-threads", "--bogus"] {
            let err = parse_args(&["golden", flag, "1"]).unwrap_err();
            assert_eq!(err, format!("unknown argument: {flag}"));
        }
        for flag in ["--scale", "--threads"] {
            let err = parse_args(&["golden", flag, "abc"]).unwrap_err();
            assert_eq!(err, format!("invalid value for {flag}: abc"));
        }
        for scale in ["0", "-1", "nan", "inf"] {
            let err = parse_args(&["golden", "--scale", scale]).unwrap_err();
            assert_eq!(err, format!("invalid value for --scale: {scale}"));
        }
        assert_eq!(parse_args(&["golden", "--file"]).unwrap_err(), "missing value for --file");
    }

    #[test]
    fn unknown_targets_are_rejected() {
        for target in ["serve", "worker", "ablations", "tracedump", "probe", "--list"] {
            assert_eq!(parse_args(&[target]).unwrap_err(), format!("unknown target: {target}"));
        }
        assert!(parse_args(&[]).is_err());
        assert_eq!(parse_args(&["workloads", "--list"]).unwrap_err(), "unknown argument: --list");
        let Ok((all, _)) = parse_args(&["all"]) else {
            panic!("`all` must parse");
        };
        assert_eq!(all.len(), EXPERIMENTS.len());
    }

    #[test]
    fn usage_lists_exactly_the_experiment_table() {
        let line = usage_line();
        let listed = line.split_once('<').and_then(|(_, rest)| rest.split_once('>')).unwrap().0;
        let expected: Vec<&str> =
            EXPERIMENTS.iter().map(|(name, _)| *name).chain(["all"]).collect();
        assert_eq!(listed.split('|').collect::<Vec<_>>(), expected);
    }
}
