//! Regenerates the paper's tables and figures.
//!
//! ```text
//! reproduce <TARGET|all> [--scale S] [--threads N] [--jobs J] [--resume LEDGER]
//!           [--file PATH] [--workload NAME] [--list]
//! ```
//!
//! The targets are the figures (`fig6`–`fig12`), the tables
//! (`table1`–`table4`), the `ablation-*` sweeps, and the tool targets
//! described below; `all` runs every one in table order. Running
//! `reproduce` with no target prints the usage line, whose target list
//! is generated from the experiment table, so it is always complete.
//!
//! `--list` prints a one-line summary of each registry — the workload
//! roster and the scheme table, with each row's roles — and exits.
//!
//! `--scale` scales the Table 2 op counts (default 0.1; any finite
//! factor greater than zero); `--threads` sets the core/thread count
//! (default 4). Shapes are stable across scales; absolute speedups move
//! slightly.
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
//! failure-safe scheme, judged by the cross-thread commit-prefix
//! oracle, and self-validates against the `early_release` lock-handoff
//! fault knob.
//!
//! `trace` is the observability deep dive behind Fig. 7: a traced
//! Proteus-vs-ATOM Queue run, reporting the persist critical path and
//! the queue-occupancy distributions.
//!
//! The workgen targets: `workloads` lists the roster (Table 2 rows and
//! generated presets); `gen --workload NAME` records a roster workload
//! to an op trace (written to `--file` when given) and sweeps every
//! scheme over it; `replay --file PATH` verifies and replays a trace,
//! cross-checking byte-identity against regeneration.

use proteus_bench::cli::{number, scale};
use proteus_bench::experiments::{
    ablation_llt, ablation_threads, ablation_wpq, bench, contention, crashrepro, crashsweep, fig10,
    fig11, fig12, fig6, fig7, fig8, fig9, gen, replay, table1, table2, table3, table4, trace,
    workloads, ExperimentCtx,
};
use std::path::PathBuf;
use std::process::ExitCode;

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
    ("workloads", workloads),
    ("gen", gen),
    ("replay", replay),
];

/// The usage line; its target list is [`EXPERIMENTS`] plus `all`.
fn usage_line() -> String {
    let targets: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).chain(["all"]).collect();
    format!(
        "usage: reproduce <{}> [--scale S] [--threads N] [--jobs J] [--resume LEDGER] \
         [--file PATH] [--workload NAME] [--list]",
        targets.join("|")
    )
}

/// A parsed command line.
#[derive(Debug)]
enum Command {
    /// `--list`: print the registries and exit.
    List,
    /// Run the selected experiments, in table order.
    Run(Vec<(&'static str, Experiment)>, ExperimentCtx),
}

/// Parses the arguments after the binary name; `Err` carries the
/// message printed above the usage line.
fn parse(args: &[String]) -> Result<Command, String> {
    if args.iter().any(|a| a == "--list") {
        return Ok(Command::List);
    }
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
            "--threads" => ctx.scale.threads = number(flag, value()?)?,
            "--jobs" => ctx.opts.workers = number(flag, value()?)?,
            "--resume" => ctx.opts.ledger = Some(PathBuf::from(value()?)),
            "--file" => ctx.file = Some(PathBuf::from(value()?)),
            "--workload" => ctx.workload = Some(value()?.clone()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Command::Run(selected, ctx))
}

/// `--list`: one line per registry — every roster workload and every
/// scheme, with their roles, so new rows (e.g. the contended MQ/CH/LB
/// workloads) are discoverable without reading the source.
fn print_rosters() {
    let workloads: Vec<String> = proteus_workgen::roster::all()
        .iter()
        .map(|d| {
            let mut tags = Vec::new();
            if d.table2 {
                tags.push("table2");
            }
            if d.preset {
                tags.push("preset");
            }
            if d.crash_roster {
                tags.push("crash");
            }
            if d.bench_basket {
                tags.push("bench");
            }
            if d.contended {
                tags.push("contended");
            }
            format!("{}[{}]", d.cli_name, tags.join(","))
        })
        .collect();
    println!("workloads: {}", workloads.join(" "));
    let schemes: Vec<String> = proteus_core::scheme::registry::all()
        .iter()
        .map(|d| {
            let mut tags = Vec::new();
            if d.baseline {
                tags.push("baseline");
            }
            if d.failure_safe {
                tags.push("safe");
            }
            if d.crash_sweep {
                tags.push("crash");
            }
            if d.bench_basket {
                tags.push("bench");
            }
            format!("{}[{}]", d.cli_name, tags.join(","))
        })
        .collect();
    println!("schemes: {}", schemes.join(" "));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (selected, ctx) = match parse(&args) {
        Ok(Command::List) => {
            print_rosters();
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(selected, ctx)) => (selected, ctx),
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

    fn parse_args(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn malformed_numbers_are_rejected_not_defaulted() {
        for flag in ["--scale", "--threads", "--jobs"] {
            let err = parse_args(&["table2", flag, "abc"]).unwrap_err();
            assert_eq!(err, format!("invalid value for {flag}: abc"));
        }
        assert!(parse_args(&["table2", "--threads", "-1"]).is_err());
        assert_eq!(parse_args(&["table2", "--scale"]).unwrap_err(), "missing value for --scale");
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
        let Ok(Command::Run(_, ctx)) = parse_args(&["table2", "--scale", "1e-3"]) else {
            panic!("a small positive scale must parse");
        };
        assert_eq!(ctx.scale.scale, 1e-3);
    }

    #[test]
    fn well_formed_flags_reach_the_context() {
        let args = ["fig6", "--scale", "0.05", "--threads", "2", "--jobs", "3", "--file", "f.json"];
        let Ok(Command::Run(selected, ctx)) = parse_args(&args) else {
            panic!("a well-formed command line must parse");
        };
        assert_eq!(selected.iter().map(|(name, _)| *name).collect::<Vec<_>>(), ["fig6"]);
        assert_eq!(ctx.scale.scale, 0.05);
        assert_eq!(ctx.scale.threads, 2);
        assert_eq!(ctx.opts.workers, 3);
        assert_eq!(ctx.file, Some(PathBuf::from("f.json")));
        assert!(ctx.opts.progress);
    }

    #[test]
    fn unknown_targets_are_rejected() {
        for target in ["serve", "worker", "ablations"] {
            assert_eq!(parse_args(&[target]).unwrap_err(), format!("unknown target: {target}"));
        }
        assert!(parse_args(&[]).is_err());
        assert!(matches!(parse_args(&["--list"]), Ok(Command::List)));
        let Ok(Command::Run(all, _)) = parse_args(&["all"]) else {
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
