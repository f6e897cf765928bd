//! One entry point per paper figure/table.
//!
//! All speedups are relative to the software-logging PMEM baseline, all
//! write counts relative to the no-logging ideal, exactly as in the
//! paper. Workload sizes are Table 2 scaled by
//! [`ExperimentScale::scale`]; the result *shapes* (orderings,
//! crossovers, approximate ratios) are stable across scales.
//!
//! Every experiment runs its scheme sweeps through `proteus-harness`
//! via the [`SweepOptions`] carried in [`ExperimentCtx`]: worker count,
//! resume ledger and progress lines apply uniformly, and a panic in one
//! simulator run is isolated to that job instead of tearing down the
//! whole figure.

use proteus_core::scheme::registry;
use proteus_harness::SweepOptions;
use proteus_sim::report::{f2, pct1, Table};
use proteus_sim::runner::{sweep_schemes_with, SchemeSweep};
use proteus_types::config::{LoggingSchemeKind, MemTech, SystemConfig};
use proteus_types::stats::geometric_mean;
use proteus_types::SimError;
use proteus_workgen::{codec, roster, WorkloadSel};
use proteus_workloads::{Benchmark, WorkloadParams};

/// Scale/threads knobs shared by every experiment.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Fraction of the paper's Table 2 op counts (1.0 = full size).
    pub scale: f64,
    /// Threads = cores.
    pub threads: usize,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale { scale: 0.1, threads: 4 }
    }
}

impl ExperimentScale {
    /// Table 2 op counts scaled by [`ExperimentScale::scale`], with the
    /// seed derived from the workload's structural identity, so every
    /// figure regenerates byte-identical traces for the same
    /// (bench, threads, ops) shape — resume ledgers stay valid across
    /// invocations.
    pub fn params(&self, bench: Benchmark) -> WorkloadParams {
        WorkloadParams::table2(bench, self.threads, self.scale).with_derived_seed(bench)
    }

    /// Table 1 configuration with the L2/L3 scaled down by the workload
    /// scale factor (power-of-two divisor), keeping the working-set /
    /// cache ratio — and thus the paper's DRAM-bound behaviour — intact.
    pub fn config(&self) -> SystemConfig {
        let divisor = if self.scale >= 1.0 {
            1
        } else {
            ((1.0 / self.scale) as u64).next_power_of_two().min(64)
        };
        SystemConfig::skylake_like().with_num_cores(self.threads).with_cache_divisor(divisor)
    }
}

/// Everything an experiment needs beyond its own definition: workload
/// scale, the harness orchestration knobs (`--jobs` and `--resume` in
/// the `reproduce` binary), and the selections of the single-cell and
/// artifact targets.
#[derive(Debug, Clone, Default)]
pub struct ExperimentCtx {
    /// Workload scale/threads knobs.
    pub scale: ExperimentScale,
    /// Harness options threaded into every scheme sweep.
    pub opts: SweepOptions,
    /// Artifact path (`--file`): the repro of `crashsweep`,
    /// `contention` and `crashrepro`, the report of `bench`, the saved
    /// workload of `gen` and `replay`, the Chrome JSON of `trace`, and
    /// the output of `golden`.
    pub file: Option<std::path::PathBuf>,
    /// Roster workload for `gen`, `replay` and `trace` (`--workload`);
    /// `None` takes the target's default.
    pub workload: Option<&'static roster::WorkloadDescriptor>,
    /// Schemes for `trace` (`--scheme`); empty takes its default, ATOM
    /// and Proteus.
    pub schemes: Vec<LoggingSchemeKind>,
    /// Crash point for `trace` (`--crash-at`), in percent of each
    /// scheme's run.
    pub crash_at: Option<u64>,
}

impl ExperimentCtx {
    /// Context with default orchestration (auto workers, no ledger, no
    /// progress lines).
    pub fn from_scale(scale: ExperimentScale) -> Self {
        ExperimentCtx { scale, ..ExperimentCtx::default() }
    }
}

impl From<ExperimentScale> for ExperimentCtx {
    fn from(scale: ExperimentScale) -> Self {
        ExperimentCtx::from_scale(scale)
    }
}

/// The figure-6/9/10 scheme set, in presentation order: every
/// registered scheme except the speedup baseline.
fn fig6_schemes() -> Vec<LoggingSchemeKind> {
    registry::figure_columns()
}

fn sweep_all_benchmarks(ctx: &ExperimentCtx, tech: MemTech) -> Result<Vec<SchemeSweep>, SimError> {
    Benchmark::TABLE2
        .iter()
        .map(|bench| {
            sweep_schemes_with(
                &ctx.scale.config().with_mem_tech(tech),
                *bench,
                &ctx.scale.params(*bench),
                &LoggingSchemeKind::ALL,
                &ctx.opts,
            )
        })
        .collect()
}

/// How a figure's last row summarises each column.
type Summary = Option<(&'static str, fn(&[f64]) -> f64)>;

const GEOMEAN: Summary = Some(("geomean", geometric_mean));

/// A figure's table under `title`: a `bench` column, then one column per
/// label in `columns`; a row per `(name, row)` of `rows`, with
/// `value(row, i)` in column `i`; and the `summary` row, if any.
fn figure_table<R>(
    title: &str,
    columns: &[String],
    rows: impl IntoIterator<Item = (String, R)>,
    mut value: impl FnMut(&R, usize) -> Result<f64, SimError>,
    summary: Summary,
) -> Result<String, SimError> {
    let mut table = Table::new(std::iter::once("bench").chain(columns.iter().map(String::as_str)));
    let mut cells: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    for (name, row) in rows {
        let mut line = vec![name];
        for (i, column) in cells.iter_mut().enumerate() {
            let v = value(&row, i)?;
            column.push(v);
            line.push(f2(v));
        }
        table.row(line);
    }
    if let Some((label, reduce)) = summary {
        table.row(std::iter::once(label.to_string()).chain(cells.iter().map(|c| f2(reduce(c)))));
    }
    Ok(format!("{title}\n{}", table.render()))
}

/// The schemes' labels, as column headers.
fn labels(schemes: &[LoggingSchemeKind]) -> Vec<String> {
    schemes.iter().map(|s| s.label().to_string()).collect()
}

/// One row per sweep, named by its benchmark.
fn sweep_rows(sweeps: &[SchemeSweep]) -> impl Iterator<Item = (String, &SchemeSweep)> {
    sweeps.iter().map(|s| (s.bench.clone(), s))
}

/// One row per Table 2 benchmark.
fn table2_rows() -> impl Iterator<Item = (String, Benchmark)> {
    Benchmark::TABLE2.into_iter().map(|b| (b.abbrev().to_string(), b))
}

/// The figure-6/9/10 table: each scheme's speedup over PMEM per sweep.
fn speedup_table(sweeps: &[SchemeSweep], title: &str) -> Result<String, SimError> {
    let schemes = fig6_schemes();
    figure_table(
        title,
        &labels(&schemes),
        sweep_rows(sweeps),
        |s, i| Ok(s.speedup(schemes[i])),
        GEOMEAN,
    )
}

/// Proteus's speedup over PMEM on `bench` under `config`.
fn proteus_speedup(
    ctx: &ExperimentCtx,
    config: &SystemConfig,
    bench: Benchmark,
) -> Result<f64, SimError> {
    let schemes = [LoggingSchemeKind::SwPmem, LoggingSchemeKind::Proteus];
    let sweep = sweep_schemes_with(config, bench, &ctx.scale.params(bench), &schemes, &ctx.opts)?;
    Ok(sweep.speedup(LoggingSchemeKind::Proteus))
}

/// Deviation factor between reproduction and paper when both are
/// positive: `max(m/p, p/m)` (1.0 = exact). Non-positive measurements
/// map to infinity so they can never pass the guard silently.
fn deviation_factor(measured: f64, paper: f64) -> f64 {
    if measured > 0.0 && paper > 0.0 {
        (measured / paper).max(paper / measured)
    } else {
        f64::INFINITY
    }
}

/// Hard-fail threshold for the fig6 fidelity guard. The reproduction
/// is a timing model, not gem5, so known deviations at the default
/// scale run 2-3.5x (see EXPERIMENTS.md); 4x flags genuine regressions
/// without tripping on model error.
const FIG6_DEVIATION_LIMIT: f64 = 4.0;

/// Workload scale below which the guard only reports: tiny CI scales
/// distort speedups too much for the comparison to be meaningful.
const FIG6_GUARD_MIN_SCALE: f64 = 0.05;

/// The fidelity section `fig6` appends: reproduced vs paper geomean
/// per scheme, with the deviation factor. Hard-fails (consistency
/// violation) when a scheme deviates beyond [`FIG6_DEVIATION_LIMIT`]
/// at a meaningful scale.
fn fig6_fidelity(sweeps: &[SchemeSweep], scale: &ExperimentScale) -> Result<String, SimError> {
    let enforced = scale.scale >= FIG6_GUARD_MIN_SCALE;
    let mut table = Table::new(["scheme", "paper geomean", "reproduced", "deviation"]);
    let mut worst: Option<(LoggingSchemeKind, f64)> = None;
    for scheme in fig6_schemes() {
        // The paper's geomean (MICRO-50, rightmost bar group) lives on
        // the scheme's registry descriptor; schemes the paper does not
        // plot (the baseline itself, post-paper additions) carry None.
        let Some(paper) = registry::descriptor(scheme).fig6_paper_geomean else { continue };
        let speeds: Vec<f64> = sweeps.iter().map(|s| s.speedup(scheme)).collect();
        let measured = geometric_mean(&speeds);
        let dev = deviation_factor(measured, paper);
        table.row([scheme.label().to_string(), f2(paper), f2(measured), format!("{dev:.2}x")]);
        if worst.is_none_or(|(_, w)| dev > w) {
            worst = Some((scheme, dev));
        }
    }
    if enforced {
        if let Some((scheme, dev)) = worst {
            if dev > FIG6_DEVIATION_LIMIT {
                return Err(SimError::ConsistencyViolation(format!(
                    "fig6 fidelity guard: {} geomean deviates {dev:.2}x from the paper \
                     (limit {FIG6_DEVIATION_LIMIT:.1}x at scale {:.2})",
                    scheme.label(),
                    scale.scale
                )));
            }
        }
    }
    Ok(format!(
        "Fidelity vs paper (geomean speedup per scheme; guard {} at scale {:.2})\n{}",
        if enforced {
            format!("enforced, limit {FIG6_DEVIATION_LIMIT:.1}x")
        } else {
            "report-only".to_string()
        },
        scale.scale,
        table.render()
    ))
}

/// Figure 6: speedup on NVMM over the PMEM software-logging baseline,
/// followed by the per-scheme fidelity check against the paper's
/// geomeans.
///
/// # Errors
///
/// Propagates simulation errors; at scale >= 0.05 a geomean deviating
/// more than 4x from the paper fails the figure.
pub fn fig6(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let sweeps = sweep_all_benchmarks(ctx, MemTech::NvmFast)?;
    let main =
        speedup_table(&sweeps, "Figure 6: speedup on NVMM (baseline: PMEM software logging)")?;
    let fidelity = fig6_fidelity(&sweeps, &ctx.scale)?;
    Ok(format!("{main}\n{fidelity}"))
}

/// Figure 7: front-end stall cycles normalised to PMEM+nolog.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig7(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let sweeps = sweep_all_benchmarks(ctx, MemTech::NvmFast)?;
    let schemes = [LoggingSchemeKind::Atom, LoggingSchemeKind::Proteus, LoggingSchemeKind::NoLog];
    figure_table(
        "Figure 7: front-end stall cycles, normalised to PMEM+nolog",
        &labels(&schemes),
        sweep_rows(&sweeps),
        |s, i| Ok(s.stalls_normalized(schemes[i])),
        GEOMEAN,
    )
}

/// Figure 8: NVMM writes normalised to PMEM+nolog.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig8(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let sweeps = sweep_all_benchmarks(ctx, MemTech::NvmFast)?;
    let schemes = [
        LoggingSchemeKind::SwPmem,
        LoggingSchemeKind::Atom,
        LoggingSchemeKind::ProteusNoLwr,
        LoggingSchemeKind::Proteus,
    ];
    figure_table(
        "Figure 8: NVMM writes, normalised to PMEM+nolog",
        &labels(&schemes),
        sweep_rows(&sweeps),
        |s, i| Ok(s.nvmm_writes_normalized(schemes[i])),
        Some(("mean", |c| c.iter().sum::<f64>() / c.len() as f64)),
    )
}

/// Figure 9: speedup on slow NVM (300 ns writes).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig9(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let sweeps = sweep_all_benchmarks(ctx, MemTech::NvmSlow)?;
    speedup_table(&sweeps, "Figure 9: speedup on slow NVMM, 300 ns writes (baseline: PMEM)")
}

/// Figure 10: speedup on DRAM (battery-backed NVDIMM study).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig10(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let sweeps = sweep_all_benchmarks(ctx, MemTech::Dram)?;
    speedup_table(&sweeps, "Figure 10: speedup on DRAM (baseline: PMEM)")
}

/// Figure 11: Proteus speedup with varying LogQ sizes.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig11(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let sizes = [1usize, 2, 4, 8, 16, 32, 64];
    figure_table(
        "Figure 11: Proteus speedup vs LogQ size (baseline: PMEM)",
        &sizes.map(|s| format!("LogQ={s}")),
        table2_rows(),
        |&bench, i| proteus_speedup(ctx, &ctx.scale.config().with_logq_entries(sizes[i]), bench),
        GEOMEAN,
    )
}

/// Figure 12: Proteus speedup with varying LPQ sizes (LogQ = 16).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig12(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let sizes = [16usize, 32, 64, 128, 256, 512];
    let config = ctx.scale.config().with_logq_entries(16);
    figure_table(
        "Figure 12: Proteus speedup vs LPQ size, LogQ=16 (baseline: PMEM)",
        &sizes.map(|s| format!("LPQ={s}")),
        table2_rows(),
        |&bench, i| proteus_speedup(ctx, &config.clone().with_lpq_entries(sizes[i]), bench),
        GEOMEAN,
    )
}

/// Table 3: large transactions (linked-list microbenchmark).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn table3(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let sizes = [1024u64, 2048, 4096, 8192];
    let mut headers = vec!["scheme".to_string()];
    headers.extend(sizes.iter().map(|s| s.to_string()));
    let mut table = Table::new(headers);
    let mut proteus_row = vec!["Proteus".to_string()];
    let mut ideal_row = vec!["PMEM+nolog(ideal)".to_string()];
    for elements in sizes {
        let bench = Benchmark::LargeTx { elements };
        let params = WorkloadParams {
            threads: ctx.scale.threads,
            init_ops: 0,
            sim_ops: ((200.0 * ctx.scale.scale * 5.0) as usize).max(8),
            seed: 0,
        }
        .with_derived_seed(bench);
        let sweep = sweep_schemes_with(
            &ctx.scale.config(),
            bench,
            &params,
            &[LoggingSchemeKind::SwPmem, LoggingSchemeKind::Proteus, LoggingSchemeKind::NoLog],
            &ctx.opts,
        )?;
        proteus_row.push(f2(sweep.speedup(LoggingSchemeKind::Proteus)));
        ideal_row.push(f2(sweep.speedup(LoggingSchemeKind::NoLog)));
    }
    table.row(proteus_row);
    table.row(ideal_row);
    Ok(format!("Table 3: speedups for large transactions (elements per node)\n{}", table.render()))
}

/// Table 4: LLT miss rates per benchmark under Proteus.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn table4(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let mut table = Table::new(["bench", "LLT miss rate (%)"]);
    for bench in Benchmark::TABLE2 {
        let sweep = sweep_schemes_with(
            &ctx.scale.config(),
            bench,
            &ctx.scale.params(bench),
            &[LoggingSchemeKind::Proteus],
            &ctx.opts,
        )?;
        let merged = sweep.summary_of(LoggingSchemeKind::Proteus).cores_merged();
        let rate = merged.llt_miss_rate_pct().unwrap_or(0.0);
        table.row([bench.abbrev().to_string(), pct1(rate)]);
    }
    Ok(format!("Table 4: LLT miss rate (64 entries, 8-way)\n{}", table.render()))
}

/// Table 1: the baseline system configuration actually instantiated for
/// these runs (after cache downscaling).
///
/// # Errors
///
/// Never fails; the `Result` keeps the command table uniform.
pub fn table1(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let cfg = ctx.scale.config();
    let mut t = Table::new(["parameter", "value"]);
    t.row([
        "cores".to_string(),
        format!("{} @ {} MHz, {}-wide OOO", cfg.num_cores, cfg.cores.freq_mhz, cfg.cores.width),
    ]);
    t.row([
        "ROB / fetchQ / issueQ".to_string(),
        format!(
            "{} / {} / {}",
            cfg.cores.rob_entries, cfg.cores.fetchq_entries, cfg.cores.issueq_entries
        ),
    ]);
    t.row([
        "loadQ / storeQ".to_string(),
        format!("{} / {}", cfg.cores.loadq_entries, cfg.cores.storeq_entries),
    ]);
    t.row([
        "L1D".to_string(),
        format!(
            "{} KiB, {}-way, {} cycles",
            cfg.caches.l1d.size_bytes / 1024,
            cfg.caches.l1d.ways,
            cfg.caches.l1d.latency
        ),
    ]);
    t.row([
        "L2".to_string(),
        format!(
            "{} KiB, {}-way, {} cycles",
            cfg.caches.l2.size_bytes / 1024,
            cfg.caches.l2.ways,
            cfg.caches.l2.latency
        ),
    ]);
    t.row([
        "L3 (shared)".to_string(),
        format!(
            "{} KiB, {}-way, {} cycles",
            cfg.caches.l3.size_bytes / 1024,
            cfg.caches.l3.ways,
            cfg.caches.l3.latency
        ),
    ]);
    t.row([
        "memory".to_string(),
        format!(
            "{}: {} banks, {} B rows",
            cfg.mem.tech.label(),
            cfg.mem.banks,
            cfg.mem.row_buffer_bytes
        ),
    ]);
    t.row([
        "WPQ / LPQ / readQ".to_string(),
        format!(
            "{} / {} / {}",
            cfg.mem.wpq_entries, cfg.mem.lpq_entries, cfg.mem.read_queue_entries
        ),
    ]);
    t.row([
        "Proteus LR / LogQ / LLT".to_string(),
        format!(
            "{} / {} / {} ({}-way)",
            cfg.proteus.log_registers,
            cfg.proteus.logq_entries,
            cfg.proteus.llt_entries,
            cfg.proteus.llt_ways
        ),
    ]);
    Ok(format!("Table 1: system configuration (scale {:.2})\n{}", ctx.scale.scale, t.render()))
}

/// Table 2: the benchmark suite with the op counts these runs use.
///
/// # Errors
///
/// Never fails; the `Result` keeps the command table uniform.
pub fn table2(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let mut t = Table::new(["bench", "description", "#InitOps", "#SimOps"]);
    for d in roster::table2() {
        let p = d.params(ctx.scale.threads, ctx.scale.scale);
        t.row([d.label(), d.blurb.to_string(), p.init_ops.to_string(), p.sim_ops.to_string()]);
    }
    Ok(format!(
        "Table 2: benchmarks, per-thread op counts at scale {:.2}\n{}",
        ctx.scale.scale,
        t.render()
    ))
}

/// Ablation beyond the paper: thread/core scaling for the headline
/// schemes.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn ablation_threads(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let threads = [1usize, 2, 4];
    let bench = Benchmark::HashMap;
    let mut table = Table::new(["threads", "ATOM", "Proteus", "PMEM+nolog"]);
    for n in threads {
        let sub = ExperimentScale { threads: n, ..ctx.scale };
        let sweep = sweep_schemes_with(
            &sub.config(),
            bench,
            &sub.params(bench),
            &[
                LoggingSchemeKind::SwPmem,
                LoggingSchemeKind::Atom,
                LoggingSchemeKind::Proteus,
                LoggingSchemeKind::NoLog,
            ],
            &ctx.opts,
        )?;
        table.row([
            n.to_string(),
            f2(sweep.speedup(LoggingSchemeKind::Atom)),
            f2(sweep.speedup(LoggingSchemeKind::Proteus)),
            f2(sweep.speedup(LoggingSchemeKind::NoLog)),
        ]);
    }
    Ok(format!(
        "Ablation: HM speedups vs thread count (baseline: PMEM at equal threads)\n{}",
        table.render()
    ))
}

/// Ablation beyond the paper: WPQ size effect on the software baseline
/// and Proteus (a larger WPQ absorbs persist bursts; the paper's §4.3
/// motivates the LPQ by the cost of growing the WPQ instead).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn ablation_wpq(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let sizes = [16usize, 32, 64, 128];
    let bench = Benchmark::AvlTree;
    let params = ctx.scale.params(bench);
    let mut table = Table::new(["WPQ", "Proteus speedup", "SW cycles (M)"]);
    for size in sizes {
        let mut config = ctx.scale.config();
        config.mem.wpq_entries = size;
        let sweep = sweep_schemes_with(
            &config,
            bench,
            &params,
            &[LoggingSchemeKind::SwPmem, LoggingSchemeKind::Proteus],
            &ctx.opts,
        )?;
        table.row([
            size.to_string(),
            f2(sweep.speedup(LoggingSchemeKind::Proteus)),
            format!("{:.2}", sweep.summary_of(LoggingSchemeKind::SwPmem).total_cycles as f64 / 1e6),
        ]);
    }
    Ok(format!("Ablation: AT vs WPQ size\n{}", table.render()))
}

/// Ablation beyond the paper: LLT size sweep for Proteus.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn ablation_llt(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let sizes = [8usize, 16, 32, 64, 128];
    let benches = [Benchmark::HashMap, Benchmark::RbTree, Benchmark::StringSwap];
    figure_table(
        "Ablation: Proteus speedup vs LLT size",
        &sizes.map(|s| format!("LLT={s}")),
        benches.map(|b| (b.abbrev().to_string(), b)),
        |&bench, i| {
            let config = ctx.scale.config().with_llt_entries(sizes[i], 8.min(sizes[i]));
            proteus_speedup(ctx, &config, bench)
        },
        None,
    )
}

/// The one-cell deep dive behind Fig. 7: runs the `--workload` cell
/// (default QE) under each `--scheme` (default ATOM, then Proteus) with
/// cycle-level tracing. Per scheme it prints the `RunSummary`
/// breakdown (uops, IPC, stall cycles by cause, NVMM reads and writes,
/// L3 hit rate), the per-transaction persist critical path, and the
/// queue-occupancy distributions the end-of-run aggregates can only
/// hint at. Every trace is cross-checked (±0) against the
/// authoritative `RunSummary` before it is printed.
///
/// With `--file`, which `reproduce` accepts only with one scheme, it
/// also writes the Chrome trace-event JSON (loadable in Perfetto or
/// `chrome://tracing`) and checks the artifact: it parses, and every
/// core track and memory-controller queue track carries at least one
/// event. With `--crash-at PCT`, it re-runs each cell to PCT% of its
/// cycles, pulls the plug, and prints every thread's valid log entries
/// and recovery decision.
///
/// # Errors
///
/// Propagates simulation and recovery errors; a trace that disagrees
/// with the run summary, or a Chrome JSON that fails its checks,
/// surfaces as [`SimError::ConsistencyViolation`].
pub fn trace(ctx: &ExperimentCtx) -> Result<String, SimError> {
    use proteus_sim::runner::{run_workload_traced, ExperimentSpec};

    let d = workload_or(ctx, "qe");
    let schemes = match ctx.schemes.as_slice() {
        [] => vec![LoggingSchemeKind::Atom, LoggingSchemeKind::Proteus],
        chosen => chosen.to_vec(),
    };
    let params = d.params(ctx.scale.threads, ctx.scale.scale);
    // Contended rows run at least two threads: give each one a core.
    let config = ExperimentScale { threads: params.threads, ..ctx.scale }.config();
    let workload = d.sel().generate(&params);
    let mut out = format!("Trace: persist critical path and queue occupancy ({})\n", d.label());
    for scheme in schemes {
        let spec = ExperimentSpec {
            config: config.clone(),
            scheme,
            bench: d.sel(),
            params: params.clone(),
        };
        let (result, report) = run_workload_traced(&spec, &workload, true)?;
        let report = report.expect("tracing was enabled");
        report.check_against(&result.summary).map_err(SimError::ConsistencyViolation)?;
        out.push_str(&format!(
            "\n== {} ({} cycles, {} events, {} dropped) ==\n",
            result.name,
            result.summary.total_cycles,
            report.total_events(),
            report.total_dropped()
        ));
        out.push_str(&summary_breakdown(&result.summary));
        out.push_str(&report.critical_path_table(10));
        out.push_str(&report.occupancy_table());
        if let Some(path) = &ctx.file {
            out.push_str(&write_chrome_trace(&report, path, workload.programs.len())?);
        }
        if let Some(pct) = ctx.crash_at {
            let total = result.summary.total_cycles;
            out.push_str(&crash_dump(&spec, &workload, &result.name, total, pct)?);
        }
    }
    Ok(out)
}

/// The `RunSummary` breakdown under a trace header: uops, IPC, NVMM
/// reads and writes, the L3 hit rate, and stall cycles by cause.
fn summary_breakdown(s: &proteus_types::stats::RunSummary) -> String {
    use proteus_types::stats::StallCause;

    let m = s.cores_merged();
    // A degenerate run can finish in 0 recorded cycles.
    let ipc = if s.total_cycles == 0 { 0.0 } else { m.uops_retired as f64 / s.total_cycles as f64 };
    let l3 = s.l3.hit_rate_pct().map_or_else(|| "-".to_string(), |p| format!("{p:.1}%"));
    let stalls: Vec<String> =
        StallCause::ALL.iter().map(|c| format!("{c}={}", m.stall(*c))).collect();
    format!(
        "uops={} ipc={ipc:.2} nvmm_reads={} nvmm_writes={} l3_hit={l3}\n\
         stall cycles={}: {}\n",
        m.uops_retired,
        s.mem.nvmm_reads,
        s.mem.total_nvmm_writes(),
        m.total_stall_cycles(),
        stalls.join(" ")
    )
}

/// Writes `report`'s Chrome trace-event JSON to `path` and checks the
/// artifact: it parses, and each of the `cores` core tracks and every
/// memory-controller queue track carries at least one event.
fn write_chrome_trace(
    report: &proteus_trace::TraceReport,
    path: &std::path::Path,
    cores: usize,
) -> Result<String, SimError> {
    use proteus_harness::json::{self, Json};
    use proteus_trace::export::{PID_CORES, PID_MC};
    use proteus_trace::QueueId;

    let chrome = report.to_chrome_json();
    std::fs::write(path, &chrome)
        .map_err(|e| SimError::HarnessIo(format!("cannot write {}: {e}", path.display())))?;
    let parsed = json::parse(&chrome).map_err(|e| {
        SimError::ConsistencyViolation(format!("emitted Chrome JSON does not parse: {e}"))
    })?;
    // (pid, tid) of every track with an event other than "M" metadata.
    let populated: std::collections::BTreeSet<(u64, u64)> = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|ev| ev.get("ph").and_then(Json::as_str) != Some("M"))
        .filter_map(|ev| Some((ev.get("pid")?.as_u64()?, ev.get("tid")?.as_u64()?)))
        .collect();
    let mut missing: Vec<String> = (0..cores as u64)
        .filter(|&core| !populated.contains(&(u64::from(PID_CORES), core)))
        .map(|core| format!("core{core}"))
        .collect();
    missing.extend(
        [QueueId::ReadQ, QueueId::Wpq, QueueId::Lpq]
            .into_iter()
            .filter(|q| !populated.contains(&(u64::from(PID_MC), q.slot() as u64)))
            .map(|q| format!("mc.{}", q.label())),
    );
    if !missing.is_empty() {
        return Err(SimError::ConsistencyViolation(format!(
            "trace JSON is missing events on tracks: {}",
            missing.join(", ")
        )));
    }
    Ok(format!("\nwrote {} ({} bytes), all tracks populated\n", path.display(), chrome.len()))
}

/// Re-runs `spec` to `pct`% of its `total` cycles, pulls the plug, and
/// prints every thread's valid log entries in the NVMM/ADR domain (the
/// first 40 of each), its `logFlag`, and the recovery decision per
/// thread.
fn crash_dump(
    spec: &proteus_sim::runner::ExperimentSpec,
    workload: &proteus_workloads::GeneratedWorkload,
    name: &str,
    total: u64,
    pct: u64,
) -> Result<String, SimError> {
    use proteus_core::recovery::scan_log_area;
    use std::fmt::Write as _;

    const SHOWN: usize = 40;
    let mut machine = proteus_sim::System::new(&spec.config, spec.scheme, workload)?;
    machine.run_until(total * pct / 100);
    let mut out = String::new();
    let _ =
        writeln!(out, "\n=== {name} crashed at cycle {} of {total} ({pct}%) ===", machine.now());
    let image = machine.crash_image();
    let layout = machine.layout();
    for thread in workload.programs.iter().map(|p| p.thread) {
        let entries = scan_log_area(&image, layout, thread, layout.log_area_entries);
        let _ = writeln!(out, "\n{thread}: {} valid log entries in NVMM/ADR domain", entries.len());
        let live_tx = entries.iter().map(|(_, e)| e.tx).max();
        for (slot, e) in entries.iter().take(SHOWN) {
            let _ = writeln!(
                out,
                "  slot {slot}  {}  seq {:>6}  from {}  data[0]={:#x}{}{}",
                e.tx,
                e.seq,
                e.log_from,
                e.data[0],
                if e.commit_marker { "  [commit-marker]" } else { "" },
                if Some(e.tx) == live_tx { "  <- live" } else { "" },
            );
        }
        if entries.len() > SHOWN {
            let _ = writeln!(out, "  ... {} more", entries.len() - SHOWN);
        }
        let _ = writeln!(out, "  logFlag = {}", image.read_word(layout.log_flag(thread)));
    }
    let (_, report) = machine.crash_and_recover()?;
    out.push_str("\n=== recovery decisions ===\n");
    for (thread, outcome) in &report.outcomes {
        let _ = writeln!(out, "  {thread}: {outcome:?}");
    }
    Ok(out)
}

/// The failure-safe scheme set `crashsweep` must hold to zero
/// violations — the registry's `crash_sweep` roster (NoLog is
/// failure-*unsafe* by design; SwPmemPcommit is SwPmem plus a fence and
/// adds nothing to crash coverage).
fn crash_schemes() -> Vec<LoggingSchemeKind> {
    registry::crash_sweep_roster()
}

/// Where `crashsweep` leaves its shrunk repro artifact and where
/// `crashrepro` looks for it when `--file` is not given.
fn default_repro_path() -> std::path::PathBuf {
    std::env::temp_dir().join("proteus_crash_repro.json")
}

fn crash_params(ctx: &ExperimentCtx, sel: &WorkloadSel) -> WorkloadParams {
    // Sized so every (workload, scheme) cell clears 200 persist events
    // at the default scale 0.1 — exploration then touches >= 200 crash
    // points per cell. Two threads keep the oracle's cross-thread
    // boundary matching in play without slowing the sweep down. For
    // `Bench` selectors this is bit-identical to the historical
    // `with_derived_seed` params, so ledger keys survive.
    let ops = |full: f64| ((full * ctx.scale.scale).round() as usize).max(4);
    sel.derived_params(WorkloadParams {
        threads: 2,
        init_ops: ops(800.0),
        sim_ops: ops(480.0),
        seed: 29,
    })
}

/// A crash-consistency matrix as `crashsweep` and `contention` run it:
/// every cell explored and tabulated, then a self-test proving the
/// checker has teeth.
struct CrashMatrix {
    /// The report's first line.
    headline: &'static str,
    /// First table column: what the rows' workloads are called.
    column: &'static str,
    /// Fewest crash points a cell may explore at scale ≥ 0.1 (0: no
    /// floor).
    point_floor: usize,
    /// The deliberately broken spec the self-test must catch.
    broken: proteus_crash::ExploreSpec,
    /// The fault `broken` injects, as the report names it.
    fault: &'static str,
    /// What the self-test calls its shrunk repro.
    repro: &'static str,
}

impl CrashMatrix {
    /// Explores `specs`, then catches, shrinks, saves (to `--file`) and
    /// replays the broken spec.
    ///
    /// # Errors
    ///
    /// Fails on simulation errors, on a cell under the point floor, on
    /// any consistency violation in the matrix, and if the broken spec
    /// is not caught, does not shrink, or its repro does not replay.
    fn run(
        &self,
        ctx: &ExperimentCtx,
        specs: &[proteus_crash::ExploreSpec],
    ) -> Result<String, SimError> {
        use proteus_crash::{explore, shrink};

        let outcomes = proteus_crash::sweep(specs, &ctx.opts)?.into_payloads()?;
        let mut table = Table::new([self.column, "scheme", "events", "points", "violations"]);
        let mut violated = Vec::new();
        for (spec, outcome) in specs.iter().zip(&outcomes) {
            // Scaled-down smokes explore every event they have; only the
            // default scale (and up) is held to the absolute floor, which
            // the roster's workload sizing must clear.
            if ctx.scale.scale >= 0.1 && outcome.points_explored < self.point_floor {
                return Err(SimError::InvalidConfig(format!(
                    "{}: only {} crash points (floor is {} at scale >= 0.1)",
                    spec.name(),
                    outcome.points_explored,
                    self.point_floor
                )));
            }
            table.row([
                spec.bench.abbrev().to_string(),
                spec.scheme.label().to_string(),
                outcome.total_events.to_string(),
                outcome.points_explored.to_string(),
                outcome.violations.len().to_string(),
            ]);
            if let Some(v) = outcome.violations.first() {
                violated.push(format!("{} at event {}: {}", spec.name(), v.event, v.detail));
            }
        }
        if let Some(first) = violated.first() {
            return Err(SimError::ConsistencyViolation(first.clone()));
        }

        let outcome = explore(&self.broken)?;
        if outcome.violations.is_empty() {
            return Err(SimError::ConsistencyViolation(format!(
                "self-test FAILED: {} escaped {} crash points",
                self.fault, outcome.points_explored
            )));
        }
        let repro = shrink(&self.broken)?.ok_or_else(|| {
            SimError::ConsistencyViolation("self-test FAILED: violation did not shrink".into())
        })?;
        let path = ctx.file.clone().unwrap_or_else(default_repro_path);
        repro.save(&path)?;
        if !repro.replay()?.violated {
            return Err(SimError::ConsistencyViolation(format!(
                "self-test FAILED: shrunk {} did not replay",
                self.repro
            )));
        }

        Ok(format!(
            "{}\n{}\n\
             self-test: {} caught at {} of {} crash points,\n\
             shrunk to {} (event {}), replayed from {}",
            self.headline,
            table.render(),
            self.fault,
            outcome.violations.len(),
            outcome.points_explored,
            repro.spec.name(),
            repro.event,
            path.display(),
        ))
    }
}

/// Crash-point sweep: systematic crash/recover/check across the
/// failure-safe schemes, then the seeded `disable_persist_ordering`
/// self-test: the broken core must be caught, shrunk, and the artifact
/// must replay the violation from scratch.
///
/// # Errors
///
/// Fails on simulation errors, on any consistency violation in the
/// failure-safe matrix, and if the deliberately broken core is *not*
/// caught.
pub fn crashsweep(ctx: &ExperimentCtx) -> Result<String, SimError> {
    use proteus_crash::ExploreSpec;

    let schemes = crash_schemes();
    let specs: Vec<ExploreSpec> = roster::crash_roster()
        .flat_map(|d| {
            let sel = d.sel();
            let params = crash_params(ctx, &sel);
            schemes
                .iter()
                .map(|&scheme| ExploreSpec::new(sel.clone(), params.clone(), scheme, 512))
                .collect::<Vec<_>>()
        })
        .collect();
    CrashMatrix {
        headline: "Crash sweep: consistency checked at every sampled persist event",
        column: "bench",
        point_floor: 0,
        broken: ExploreSpec {
            broken_ordering: true,
            ..ExploreSpec::new(
                Benchmark::Queue,
                WorkloadParams { threads: 1, init_ops: 40, sim_ops: 8, seed: 7 },
                LoggingSchemeKind::Proteus,
                512,
            )
        },
        fault: "disable_persist_ordering",
        repro: "repro",
    }
    .run(ctx, &specs)
}

/// Contended crash sweep: the roster's contended shared-structure
/// workloads (MPMC queue, contended hash maps, lock-coupled B-trees)
/// explored under every failure-safe scheme with the crash oracle — a
/// recovered image must equal a commit prefix of each structure's
/// lock-handoff order, closed under per-thread program order. Then the
/// contended counterpart of the `crashsweep` self-test: the
/// `early_release` fault knob (lock handoff reordered before the commit
/// persist barrier) must be caught, shrunk, and replayed.
///
/// # Errors
///
/// Fails on simulation errors, on any cross-thread violation in the
/// failure-safe matrix, on a cell under 200 crash points at full
/// default scale, and if the early-release fault is *not* caught.
pub fn contention(ctx: &ExperimentCtx) -> Result<String, SimError> {
    use proteus_crash::ExploreSpec;
    use proteus_workloads::{ContendedKind, ContendedSpec};

    let schemes = registry::contention_roster();
    let specs: Vec<ExploreSpec> = roster::contended()
        .flat_map(|d| {
            let params = d.params(ctx.scale.threads, ctx.scale.scale);
            schemes
                .iter()
                .map(|&scheme| ExploreSpec::new(d.sel(), params.clone(), scheme, 512))
                .collect::<Vec<_>>()
        })
        .collect();
    CrashMatrix {
        headline: "Contention sweep: cross-thread consistency checked at every sampled \
                   persist event",
        column: "workload",
        // The acceptance bar: >= 200 stratified crash points per cell.
        point_floor: 200,
        // A lock handed over before the group's commit persists: the
        // oracle must see a recovered image matching no commit prefix.
        broken: ExploreSpec::new(
            ContendedSpec { kind: ContendedKind::MpmcQueue, early_release: true },
            WorkloadParams { threads: 3, init_ops: 64, sim_ops: 16, seed: 9 },
            LoggingSchemeKind::Proteus,
            512,
        ),
        fault: "early_release",
        repro: "early-release repro",
    }
    .run(ctx, &specs)
}

/// Peak resident set size of this process in KiB (Linux `VmHWM`; 0 when
/// unavailable).
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// Cycle-engine benchmark: times the roster's bench basket with the
/// event-driven fast-forward engine on and off, reporting wall time,
/// simulated cycles per wall-second, the speedup, and peak RSS. Every
/// pair of runs is cross-checked — any divergence in the `RunSummary`
/// or the final cycle is an error, so the benchmark doubles as a
/// determinism gate. Writes a JSON report to `--file` (default
/// `BENCH_cycle_engine.json` in the working directory).
///
/// # Errors
///
/// Fails on simulation errors and on any engine-mode divergence.
pub fn bench(ctx: &ExperimentCtx) -> Result<String, SimError> {
    use proteus_sim::System;
    use std::fmt::Write as _;

    let schemes = registry::bench_basket();

    let mut table = Table::new([
        "bench", "scheme", "Mcycles", "coh miss", "inval", "ff (s)", "step (s)", "speedup",
    ]);
    let mut json_entries = Vec::new();
    let (mut ff_total, mut ss_total) = (0.0f64, 0.0f64);
    let mut total_cycles = 0u64;
    for d in roster::bench_basket() {
        let sel = d.sel();
        let params = d.params(ctx.scale.threads, ctx.scale.scale);
        let workload = sel.generate(&params);
        for &scheme in &schemes {
            let run = |fast: bool| -> Result<_, SimError> {
                let mut system = System::new(&ctx.scale.config(), scheme, &workload)?;
                system.set_fast_forward(fast);
                let start = std::time::Instant::now();
                let summary = system.run()?;
                Ok((start.elapsed().as_secs_f64(), summary, system.now()))
            };
            let (ff_wall, ff_sum, ff_now) = run(true)?;
            let (ss_wall, ss_sum, ss_now) = run(false)?;
            if ff_sum != ss_sum || ff_now != ss_now {
                return Err(SimError::ConsistencyViolation(format!(
                    "{}/{}: fast-forward diverged from single-stepping",
                    sel.abbrev(),
                    scheme.label()
                )));
            }
            let cycles = ff_sum.total_cycles;
            ff_total += ff_wall;
            ss_total += ss_wall;
            total_cycles += cycles;
            table.row([
                sel.abbrev().to_string(),
                scheme.label().to_string(),
                format!("{:.2}", cycles as f64 / 1e6),
                ff_sum.coherence.coherence_misses.to_string(),
                ff_sum.coherence.invalidations.to_string(),
                format!("{ff_wall:.3}"),
                format!("{ss_wall:.3}"),
                f2(ss_wall / ff_wall.max(1e-9)),
            ]);
            json_entries.push(format!(
                "    {{\"bench\": \"{}\", \"scheme\": \"{}\", \"cycles\": {}, \
                 \"coherence_misses\": {}, \"invalidations\": {}, \
                 \"ff_wall_s\": {:.6}, \"step_wall_s\": {:.6}, \
                 \"ff_mcycles_per_s\": {:.3}, \"step_mcycles_per_s\": {:.3}, \
                 \"speedup\": {:.3}}}",
                sel.abbrev(),
                scheme.label(),
                cycles,
                ff_sum.coherence.coherence_misses,
                ff_sum.coherence.invalidations,
                ff_wall,
                ss_wall,
                cycles as f64 / 1e6 / ff_wall.max(1e-9),
                cycles as f64 / 1e6 / ss_wall.max(1e-9),
                ss_wall / ff_wall.max(1e-9),
            ));
        }
    }
    let speedup = ss_total / ff_total.max(1e-9);
    let rss = peak_rss_kib();

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": {:.4},", ctx.scale.scale);
    let _ = writeln!(json, "  \"threads\": {},", ctx.scale.threads);
    let _ = writeln!(json, "  \"entries\": [\n{}\n  ],", json_entries.join(",\n"));
    let _ = writeln!(json, "  \"total_cycles\": {total_cycles},");
    let _ = writeln!(json, "  \"ff_wall_s\": {ff_total:.6},");
    let _ = writeln!(json, "  \"step_wall_s\": {ss_total:.6},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "  \"peak_rss_kib\": {rss}");
    json.push('}');
    let path =
        ctx.file.clone().unwrap_or_else(|| std::path::PathBuf::from("BENCH_cycle_engine.json"));
    std::fs::write(&path, &json).map_err(|e| SimError::HarnessIo(e.to_string()))?;

    Ok(format!(
        "Cycle-engine benchmark (scale {:.2}, {} threads)\n{}\n\
         total: {:.2} Mcycles; fast-forward {:.3} s vs single-step {:.3} s \
         ({:.2}x); peak RSS {} KiB; report: {}",
        ctx.scale.scale,
        ctx.scale.threads,
        table.render(),
        total_cycles as f64 / 1e6,
        ff_total,
        ss_total,
        speedup,
        rss,
        path.display(),
    ))
}

/// Replays a shrunk crash-repro artifact written by `crashsweep` (or by
/// hand) and reports whether the violation still reproduces.
///
/// # Errors
///
/// Fails if the artifact cannot be read or the replay itself errors.
pub fn crashrepro(ctx: &ExperimentCtx) -> Result<String, SimError> {
    use proteus_crash::CrashRepro;

    let path = ctx.file.clone().unwrap_or_else(default_repro_path);
    let repro = CrashRepro::load(&path)?;
    let replay = repro.replay()?;
    Ok(format!(
        "Crash repro {}: {} crashing at persist event {}\n  expected: {}\n  replayed: {}",
        path.display(),
        repro.spec.name(),
        repro.event,
        repro.detail,
        if replay.violated {
            format!("VIOLATED — {}", replay.detail)
        } else {
            "consistent (did NOT reproduce)".to_string()
        },
    ))
}

/// Both registries. The workload roster: every registered workload
/// (Table 2 rows, generated presets and contended rows) with its kind,
/// its roster memberships and the op counts it runs at this scale;
/// `gen`, `replay` and `trace` accept any `name` via `--workload`. The
/// scheme table: every registered scheme with its report label and
/// roles; `trace` accepts any `name` via `--scheme`.
///
/// # Errors
///
/// Never fails; the `Result` keeps the command table uniform.
pub fn workloads(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let mut t = Table::new(["name", "kind", "rosters", "#InitOps", "#SimOps", "description"]);
    for d in roster::all() {
        let p = d.params(ctx.scale.threads, ctx.scale.scale);
        let (kind, rosters) = workload_roles(d);
        t.row([
            d.cli_name.to_string(),
            kind.to_string(),
            rosters,
            p.init_ops.to_string(),
            p.sim_ops.to_string(),
            d.blurb.to_string(),
        ]);
    }
    let mut schemes = Table::new(["name", "label", "roles", "description"]);
    for d in registry::all() {
        let roles = tags(&[
            (d.baseline, "baseline"),
            (d.failure_safe, "safe"),
            (d.crash_sweep, "crash"),
            (d.bench_basket, "bench"),
        ]);
        schemes.row([d.cli_name, d.label, roles.as_str(), d.blurb]);
    }
    Ok(format!(
        "Workload roster (scale {:.2}, {} threads) — run one with: reproduce gen --workload NAME\n\
         {}\nScheme registry — trace one with: reproduce trace --scheme NAME[,NAME...]\n{}",
        ctx.scale.scale,
        ctx.scale.threads,
        t.render(),
        schemes.render()
    ))
}

/// A workload's kind and roster memberships, both read from its
/// descriptor's flags.
fn workload_roles(d: &roster::WorkloadDescriptor) -> (&'static str, String) {
    let kind = if d.table2 {
        "table2"
    } else if d.contended {
        "contended"
    } else {
        "preset"
    };
    let rosters = tags(&[
        (d.table2, "figures"),
        (d.crash_roster, "crash"),
        (d.bench_basket, "bench"),
        (d.contended, "contention"),
    ]);
    (kind, rosters)
}

/// The names whose flags are set, joined by `+`; `-` when none is.
fn tags(flags: &[(bool, &str)]) -> String {
    let set: Vec<&str> = flags.iter().filter(|(on, _)| *on).map(|(_, name)| *name).collect();
    if set.is_empty() {
        "-".to_string()
    } else {
        set.join("+")
    }
}

/// The `--workload` selection, or the roster row named `default`.
fn workload_or(ctx: &ExperimentCtx, default: &str) -> &'static roster::WorkloadDescriptor {
    ctx.workload.unwrap_or_else(|| {
        roster::by_cli_name(default).expect("default workloads are on the roster")
    })
}

/// Generates a roster workload (`--workload`, default `ycsb-a`) and
/// sweeps every scheme over it. With `--file`, saves the workload for
/// `replay`: one line holding its selector, params and digest.
///
/// # Errors
///
/// Fails on an invalid spec, simulation errors, or an unwritable path.
pub fn gen(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let d = workload_or(ctx, "ycsb-a");
    let sel = d.sel();
    sel.validate()?;
    let params = d.params(ctx.scale.threads, ctx.scale.scale);
    let sweep = sweep_schemes_with(
        &ctx.scale.config().with_mem_tech(MemTech::NvmFast),
        sel.clone(),
        &params,
        &LoggingSchemeKind::ALL,
        &ctx.opts,
    )?;
    let mut out = speedup_table(
        std::slice::from_ref(&sweep),
        &format!(
            "Generated workload '{}' ({}) on NVMM (baseline: PMEM software logging)",
            d.cli_name, d.blurb
        ),
    )?;
    if let Some(path) = &ctx.file {
        let digest = sel.generate(&params).digest();
        std::fs::write(path, codec::workload_to_line(&sel, &params, digest)).map_err(|e| {
            SimError::HarnessIo(format!("writing workload {}: {e}", path.display()))
        })?;
        out.push_str(&format!(
            "\nworkload saved to {} (digest {digest:016x}) — replay with: reproduce replay --file {}",
            path.display(),
            path.display()
        ));
    }
    Ok(out)
}

/// Replays a saved workload (`--file`): regenerates it from the stored
/// selector and params, fails unless its digest is the stored one, and
/// runs every scheme on it. With no `--file`, it replays the line `gen`
/// would save for the `--workload` selection (default `ycsb-a`), so the
/// target is self-contained under `reproduce all`.
///
/// # Errors
///
/// Fails on an unreadable, corrupt or edited file, a digest mismatch
/// (the generator drifted since the file was saved), or simulation
/// errors.
pub fn replay(ctx: &ExperimentCtx) -> Result<String, SimError> {
    use proteus_sim::System;

    let (text, source) = match &ctx.file {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| {
                SimError::HarnessIo(format!("reading workload {}: {e}", path.display()))
            })?;
            (text, path.display().to_string())
        }
        None => {
            let d = workload_or(ctx, "ycsb-a");
            let sel = d.sel();
            let params = d.params(ctx.scale.threads, ctx.scale.scale);
            let digest = sel.generate(&params).digest();
            (
                codec::workload_to_line(&sel, &params, digest),
                format!("'{}' (no --file)", d.cli_name),
            )
        }
    };
    let (sel, params, workload) = codec::workload_from_str(&text)?;
    let scale = ExperimentScale { threads: params.threads, ..ctx.scale };
    let config = scale.config().with_mem_tech(MemTech::NvmFast);
    let mut table = Table::new(["scheme", "Mcycles"]);
    for &scheme in LoggingSchemeKind::ALL.iter() {
        let summary = System::new(&config, scheme, &workload)?.run()?;
        table
            .row([scheme.label().to_string(), format!("{:.2}", summary.total_cycles as f64 / 1e6)]);
    }
    Ok(format!(
        "Replay of {source} — '{}' on {} threads, {} transactions, digest {:016x} as saved\n{}",
        sel.abbrev(),
        params.threads,
        workload.total_transactions(),
        workload.digest(),
        table.render()
    ))
}

/// Regenerates the scheme golden (`crate::golden`): one line per
/// (Table 2 benchmark, seed scheme) cell with its spec hashes and
/// `RunSummary`s, always at the pin's fixed scales, whatever `--scale`
/// and `--threads` say. Writes to `--file` (default: a fixed path under
/// the system temp directory, never the committed golden), so a
/// regeneration is checked with `cmp` against
/// `crates/bench/tests/golden/fig6_seed_schemes.jsonl`.
///
/// # Errors
///
/// Fails on simulation errors or an unwritable output path.
pub fn golden(ctx: &ExperimentCtx) -> Result<String, SimError> {
    let (full, tiny) = (crate::golden::full_scale(), crate::golden::tiny_scale());
    let lines = crate::golden::golden_lines(&full, &tiny, &ctx.opts)?;
    let path =
        ctx.file.clone().unwrap_or_else(|| std::env::temp_dir().join("proteus_golden.jsonl"));
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, text)
        .map_err(|e| SimError::HarnessIo(format!("cannot write {}: {e}", path.display())))?;
    Ok(format!(
        "Golden: {} cells (Table 2 x seed schemes; scale {} on {} threads, tiny scale {} on {}) \
         written to {}",
        lines.len(),
        full.scale,
        full.threads,
        tiny.scale,
        tiny.threads,
        path.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_harness::json::{self, Json};

    fn tiny() -> ExperimentCtx {
        ExperimentCtx::from_scale(ExperimentScale { scale: 0.001, threads: 2 })
    }

    #[test]
    fn fig6_produces_full_table() {
        let out = fig6(&tiny()).unwrap();
        assert!(out.contains("geomean"));
        for abbrev in ["QE", "HM", "SS", "AT", "BT", "RT"] {
            assert!(out.contains(abbrev), "missing {abbrev} in:\n{out}");
        }
        assert!(out.contains("Proteus"));
    }

    #[test]
    fn table4_reports_all_benchmarks() {
        let out = table4(&tiny()).unwrap();
        assert_eq!(out.lines().count(), 2 + 1 + 6, "header+rule+6 rows:\n{out}");
    }

    /// Acceptance path for `reproduce fig6 --resume <ledger>`: every
    /// job of the figure reaches the ledger, and a re-run restores all
    /// of them and prints the same report.
    #[test]
    fn fig6_resumes_every_job_from_its_ledger() {
        let path = std::env::temp_dir()
            .join(format!("proteus-bench-fig6-ledger-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut ctx = tiny();
        ctx.opts.workers = 2;
        ctx.opts.ledger = Some(path.clone());
        let first = fig6(&ctx).unwrap();

        // One sweep per Table 2 benchmark, one job per scheme in each.
        let text = std::fs::read_to_string(&path).unwrap();
        let records: Vec<Json> =
            text.lines().map(|l| json::parse(l).expect("ledger line parses")).collect();
        assert_eq!(records.len(), Benchmark::TABLE2.len() * LoggingSchemeKind::ALL.len());
        assert!(records
            .iter()
            .all(|v| v.get("outcome").and_then(Json::as_str) == Some("completed")));

        assert_eq!(fig6(&ctx).unwrap(), first, "a resumed figure prints the same report");
        let after = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(after, text, "a fully resumed figure runs and records nothing");
    }

    /// `trace` explains one cell: the `RunSummary` breakdown, a Chrome
    /// JSON that passes its own checks, and a crash dump ending in every
    /// thread's recovery decision.
    #[test]
    fn trace_writes_a_checked_chrome_json_and_dumps_a_crash() {
        let path =
            std::env::temp_dir().join(format!("proteus-bench-trace-{}.json", std::process::id()));
        let mut ctx = tiny();
        ctx.workload = roster::by_cli_name("rt");
        ctx.schemes = vec![LoggingSchemeKind::Proteus];
        ctx.file = Some(path.clone());
        ctx.crash_at = Some(50);
        let out = trace(&ctx).unwrap();
        let chrome = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(json::parse(&chrome).is_ok());
        assert!(out.contains("\n== RT/Proteus ("), "{out}");
        assert!(out.contains("\nstall cycles="), "{out}");
        assert!(out.contains("all tracks populated"), "{out}");
        let decisions = out.split_once("=== recovery decisions ===\n").expect("a crash dump").1;
        assert_eq!(decisions.lines().count(), 2, "one decision per thread:\n{out}");
    }

    /// `gen --file` saves a workload that `replay` regenerates and runs,
    /// for a Table 2 row, a preset and a contended row; a file whose
    /// params were edited fails on its digest.
    #[test]
    fn gen_saves_what_replay_runs_on_every_workload_kind() {
        for name in ["qe", "indexer", "mq"] {
            let path = std::env::temp_dir()
                .join(format!("proteus-bench-workload-{name}-{}.json", std::process::id()));
            let mut ctx = tiny();
            ctx.workload = roster::by_cli_name(name);
            ctx.file = Some(path.clone());
            let saved = gen(&ctx).unwrap();
            assert!(saved.contains("replay with: reproduce replay --file"), "{name}: {saved}");
            let out = replay(&ctx).unwrap();
            let label = ctx.workload.unwrap().label();
            assert!(out.contains(&format!("'{label}' on ")), "{name}: {out}");
            assert!(out.contains("as saved\n"), "{name}: {out}");
            for d in registry::all() {
                assert!(out.contains(d.label), "{name}: no {} row:\n{out}", d.label);
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let edited = text.replacen("\"sim_ops\":", "\"sim_ops\":1", 1);
            assert_ne!(edited, text);
            std::fs::write(&path, edited).unwrap();
            let err = replay(&ctx).unwrap_err().to_string();
            std::fs::remove_file(&path).unwrap();
            assert!(err.contains("digest mismatch"), "{name}: {err}");
        }
    }

    /// The listing reads each workload's kind and rosters from its
    /// descriptor flags, and lists every registered scheme.
    #[test]
    fn workloads_lists_both_registries_by_their_flags() {
        let out = workloads(&tiny()).unwrap();
        let cells = |name: &str| -> Vec<String> {
            let line = out.lines().find(|l| l.split_whitespace().next() == Some(name));
            let line = line.unwrap_or_else(|| panic!("no {name} row:\n{out}"));
            line.split_whitespace().map(String::from).collect()
        };
        for name in ["mq", "ch", "lb"] {
            assert_eq!(cells(name)[1..3], ["contended", "bench+contention"], "{name}");
        }
        assert_eq!(cells("qe")[1..3], ["table2", "figures+crash+bench"]);
        assert_eq!(cells("at")[1..3], ["table2", "figures+bench"]);
        assert_eq!(cells("ycsb-b")[1..3], ["preset", "-"]);
        for d in registry::all() {
            assert_eq!(cells(d.cli_name)[1], d.label);
        }
    }

    /// Identical contexts regenerate identical reports: the derived
    /// workload seeds make whole figures reproducible end to end.
    #[test]
    fn fig6_is_deterministic_across_invocations() {
        assert_eq!(fig6(&tiny()).unwrap(), fig6(&tiny()).unwrap());
    }
}
