//! Job scheduler: worker pool, panic isolation, resume.
//!
//! A sweep is a list of [`JobSpec`]s plus a closure that executes one
//! job by index. The harness runs jobs on a shared-queue worker pool
//! (configurable width, default = available parallelism), catches each
//! job's panic so one crashing experiment cannot take down its
//! siblings, and — when given a ledger path — checkpoints every
//! terminal outcome so an interrupted sweep can resume, skipping
//! exactly the jobs whose spec hash already completed. Every job runs
//! at most once per sweep: the simulator is deterministic, so running
//! a crashed job again could not change its outcome.
//!
//! The scheduler is deliberately free of third-party dependencies:
//! `std::thread::scope` for the pool, a `Mutex<VecDeque>` for the
//! queue, and an `mpsc` channel feeding a single coordinator (the
//! calling thread) that owns all file I/O. Workers never touch the
//! ledger, so its records are never interleaved.

use crate::json::Json;
use crate::ledger::{LedgerRecord, LedgerSnapshot, LedgerWriter};
use crate::report::human_rate;
use proteus_types::{JobOutcome, SimError};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// Identity of one schedulable job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Human-readable name (`<bench>/<scheme>` for experiment jobs).
    pub name: String,
    /// Stable structural hash of the full experiment spec; the resume
    /// key. Two jobs with equal hashes are the same experiment.
    pub spec_hash: u64,
}

impl JobSpec {
    /// Builds a job spec.
    pub fn new(name: impl Into<String>, spec_hash: u64) -> JobSpec {
        JobSpec { name: name.into(), spec_hash }
    }
}

/// Serialisation bridge between a job's payload type and the ledger's
/// JSON records. Plain function pointers so the codec is `Copy` and
/// trivially shareable across threads.
pub struct PayloadCodec<T> {
    /// Encodes a payload for the ledger.
    pub encode: fn(&T) -> Json,
    /// Decodes a ledger payload; `None` marks an unreadable record,
    /// which makes the job re-run instead of resuming.
    pub decode: fn(&Json) -> Option<T>,
}

impl<T> Clone for PayloadCodec<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PayloadCodec<T> {}

/// Knobs for one sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `0` means available parallelism. Always clamped
    /// to the job count.
    pub workers: usize,
    /// Resume ledger path. Completed jobs found here are skipped;
    /// every terminal outcome of this run is appended.
    pub ledger: Option<PathBuf>,
    /// Emit a human progress line to stderr per finished job.
    pub progress: bool,
}

/// Terminal state of one job after a sweep.
#[derive(Debug, Clone)]
pub struct JobResult<T> {
    /// Job name, as given in the [`JobSpec`].
    pub name: String,
    /// Spec hash, as given in the [`JobSpec`].
    pub spec_hash: u64,
    /// The job's payload, or its error. A caught panic is
    /// [`SimError::WorkerPanic`] carrying the panic message.
    pub result: Result<T, SimError>,
    /// Wall-clock seconds the job ran (0 when resumed).
    pub wall_seconds: f64,
    /// Whether the result was restored from the ledger rather than
    /// executed.
    pub resumed: bool,
}

impl<T> JobResult<T> {
    /// How the job ended, as the ledger records it.
    pub fn outcome(&self) -> JobOutcome {
        match &self.result {
            Ok(_) => JobOutcome::Completed,
            Err(SimError::WorkerPanic { message, .. }) => {
                JobOutcome::Crashed { panic: message.clone() }
            }
            Err(e) => JobOutcome::Failed { error: e.to_string() },
        }
    }
}

/// Aggregate result of a sweep. `results` is in input-job order.
#[derive(Debug)]
pub struct SweepReport<T> {
    /// Per-job results, index-aligned with the input jobs.
    pub results: Vec<JobResult<T>>,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Worker threads used.
    pub workers: usize,
    /// Jobs actually executed this run.
    pub executed: usize,
    /// Jobs skipped via the resume ledger.
    pub resumed: usize,
    /// Jobs (executed or resumed) that completed.
    pub completed: usize,
    /// Jobs that ended failed.
    pub failed: usize,
    /// Jobs that ended crashed.
    pub crashed: usize,
    /// Sum of the progress metric over executed completed jobs.
    pub total_metric: u64,
    /// What the progress metric counts, as rates name it ("sim-cycles").
    pub metric_unit: &'static str,
    /// Sum of per-job wall seconds over executed jobs (for worker
    /// utilisation: `busy_seconds / (workers * wall_seconds)`).
    pub busy_seconds: f64,
}

impl<T> SweepReport<T> {
    /// Whether every job completed.
    pub fn is_all_completed(&self) -> bool {
        self.failed == 0 && self.crashed == 0
    }

    /// The payloads in input order.
    ///
    /// # Errors
    ///
    /// The first non-completed job's error in input order: the job's
    /// own error, or [`SimError::WorkerPanic`] with the panic message.
    pub fn into_payloads(self) -> Result<Vec<T>, SimError> {
        self.results.into_iter().map(|r| r.result).collect()
    }

    /// Fraction of worker capacity spent executing jobs, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let capacity = self.workers as f64 * self.wall_seconds;
        if capacity > 0.0 {
            (self.busy_seconds / capacity).min(1.0)
        } else {
            0.0
        }
    }

    /// One-line human summary of the sweep.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "{} jobs in {:.2}s on {} workers ({:.0}% util): {} completed",
            self.results.len(),
            self.wall_seconds,
            self.workers,
            self.utilization() * 100.0,
            self.completed,
        );
        if self.resumed > 0 {
            line.push_str(&format!(" ({} resumed)", self.resumed));
        }
        if self.failed > 0 {
            line.push_str(&format!(", {} failed", self.failed));
        }
        if self.crashed > 0 {
            line.push_str(&format!(", {} crashed", self.crashed));
        }
        if self.total_metric > 0 && self.wall_seconds > 0.0 {
            line.push_str(&format!(
                ", {} {}/s",
                human_rate(self.total_metric as f64 / self.wall_seconds),
                self.metric_unit
            ));
        }
        line
    }
}

/// A configured sweep executor for payloads of type `T`.
pub struct Harness<T> {
    codec: PayloadCodec<T>,
    metric: fn(&T) -> u64,
    unit: &'static str,
}

impl<T> Harness<T> {
    /// A harness that checkpoints payloads through `codec` and reports
    /// progress as `metric` of each completed payload, a count of
    /// `unit` ("sim-cycles" for experiment sweeps, "crash points" for
    /// crash sweeps).
    pub fn new(codec: PayloadCodec<T>, metric: fn(&T) -> u64, unit: &'static str) -> Harness<T> {
        Harness { codec, metric, unit }
    }
}

impl<T: Send> Harness<T> {
    /// Runs `jobs` through `run_job` under `opts`.
    ///
    /// `run_job` receives the job's index into `jobs` and returns the
    /// payload or the job's error. Panics inside `run_job` are caught
    /// and recorded as [`SimError::WorkerPanic`]; they never propagate.
    ///
    /// # Errors
    ///
    /// Only ledger failures ([`SimError::HarnessIo`]) are errors; job
    /// failures are reported in the returned [`SweepReport`].
    pub fn run<F>(
        &self,
        jobs: &[JobSpec],
        opts: &SweepOptions,
        run_job: F,
    ) -> Result<SweepReport<T>, SimError>
    where
        F: Fn(usize) -> Result<T, SimError> + Sync,
    {
        let sweep_start = Instant::now();

        // -- Resume: restore completed jobs from the ledger. ----------
        let snapshot =
            opts.ledger.as_deref().map(LedgerSnapshot::load).transpose()?.unwrap_or_default();
        let mut slots: Vec<Option<JobResult<T>>> = jobs
            .iter()
            .map(|job| {
                let record = snapshot.completed(job.spec_hash)?;
                Some(JobResult {
                    name: job.name.clone(),
                    spec_hash: job.spec_hash,
                    result: Ok((self.codec.decode)(&record.payload)?),
                    wall_seconds: 0.0,
                    resumed: true,
                })
            })
            .collect();
        let pending: VecDeque<usize> = (0..jobs.len()).filter(|&i| slots[i].is_none()).collect();
        let resumed = jobs.len() - pending.len();
        let workers = resolve_workers(opts.workers, pending.len());
        let mut ledger = opts.ledger.as_deref().map(LedgerWriter::append).transpose()?;

        // -- Execute. -------------------------------------------------
        let queue = Mutex::new(pending);
        let (tx, rx) = mpsc::channel::<(usize, Result<T, SimError>, f64)>();
        let mut io_error: Option<SimError> = None;
        let (mut executed, mut total_metric, mut busy_seconds) = (0usize, 0u64, 0f64);

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (queue, run_job) = (&queue, &run_job);
                scope.spawn(move || loop {
                    let Some(index) = queue.lock().expect("queue lock").pop_front() else {
                        break;
                    };
                    let started = Instant::now();
                    let result =
                        catch_unwind(AssertUnwindSafe(|| run_job(index))).unwrap_or_else(|panic| {
                            Err(SimError::WorkerPanic {
                                job: jobs[index].name.clone(),
                                message: panic_message(panic.as_ref()),
                            })
                        });
                    if tx.send((index, result, started.elapsed().as_secs_f64())).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            // -- Coordinate: single owner of the ledger and stderr. ---
            for (index, result, wall_seconds) in rx {
                let job = &jobs[index];
                let done = JobResult {
                    name: job.name.clone(),
                    spec_hash: job.spec_hash,
                    result,
                    wall_seconds,
                    resumed: false,
                };
                let outcome = done.outcome();
                if let Some(w) = ledger.as_mut() {
                    let record = LedgerRecord {
                        spec_hash: job.spec_hash,
                        name: job.name.clone(),
                        outcome: outcome.clone(),
                        wall_seconds,
                        payload: done.result.as_ref().map_or(Json::Null, self.codec.encode),
                    };
                    if let Err(e) = w.record(&record) {
                        // Losing the checkpoint is fatal for the
                        // sweep's contract. Stop dispatching new
                        // jobs; in-flight ones drain.
                        if io_error.is_none() {
                            io_error = Some(e);
                            queue.lock().expect("queue lock").clear();
                        }
                    }
                }
                let metric = done.result.as_ref().map_or(0, self.metric);
                executed += 1;
                total_metric += metric;
                busy_seconds += wall_seconds;
                if opts.progress {
                    let rate = if wall_seconds > 0.0 && metric > 0 {
                        format!(", {} {}/s", human_rate(metric as f64 / wall_seconds), self.unit)
                    } else {
                        String::new()
                    };
                    eprintln!(
                        "[harness {}/{}] {} {} in {wall_seconds:.2}s{rate}",
                        executed + resumed,
                        jobs.len(),
                        outcome.label(),
                        job.name,
                    );
                }
                slots[index] = Some(done);
            }
        });

        if let Some(e) = io_error {
            return Err(e);
        }

        // Every pending job sent exactly one result, every resumed
        // slot was filled up front; a hole here is a scheduler bug.
        let results: Vec<JobResult<T>> = slots
            .into_iter()
            .map(|slot| slot.expect("scheduler invariant: every job reaches a terminal outcome"))
            .collect();
        let completed = results.iter().filter(|r| r.result.is_ok()).count();
        let crashed = results
            .iter()
            .filter(|r| matches!(r.result, Err(SimError::WorkerPanic { .. })))
            .count();
        let report = SweepReport {
            failed: results.len() - completed - crashed,
            results,
            wall_seconds: sweep_start.elapsed().as_secs_f64(),
            workers,
            executed,
            resumed,
            completed,
            crashed,
            total_metric,
            metric_unit: self.unit,
            busy_seconds,
        };
        if opts.progress {
            eprintln!("[harness] {}", report.summary_line());
        }
        Ok(report)
    }
}

fn resolve_workers(requested: usize, jobs: usize) -> usize {
    let auto =
        || std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let width = if requested == 0 { auto() } else { requested };
    width.clamp(1, jobs.max(1))
}

/// Renders a caught panic payload. `panic!("...")` yields `&str`,
/// `panic!("{x}")` yields `String`; anything else gets a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn harness() -> Harness<u64> {
        Harness::new(
            PayloadCodec { encode: |v| Json::U64(*v), decode: Json::as_u64 },
            |v| *v,
            "sim-cycles",
        )
    }

    fn jobs(n: usize) -> Vec<JobSpec> {
        (0..n).map(|i| JobSpec::new(format!("job-{i}"), 0x1000 + i as u64)).collect()
    }

    fn quiet(workers: usize) -> SweepOptions {
        SweepOptions { workers, ..SweepOptions::default() }
    }

    fn temp_ledger(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("proteus-sched-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn results_preserve_input_order() {
        let report = harness().run(&jobs(16), &quiet(4), |i| Ok(i as u64 * 10)).unwrap();
        assert_eq!(report.executed, 16);
        assert!(report.is_all_completed());
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.result, Ok(i as u64 * 10));
            assert_eq!(r.name, format!("job-{i}"));
            assert!(!r.resumed);
        }
        assert_eq!(report.into_payloads(), Ok((0..16).map(|i| i * 10).collect()));
    }

    #[test]
    fn panic_is_isolated_and_siblings_complete() {
        let report = harness()
            .run(&jobs(8), &quiet(3), |i| {
                if i == 5 {
                    panic!("injected crash in job {i}");
                }
                Ok(i as u64)
            })
            .unwrap();
        assert_eq!(report.completed, 7);
        assert_eq!(report.crashed, 1);
        let crashed = &report.results[5];
        assert_eq!(crashed.outcome().label(), "crashed");
        assert!(crashed.outcome().message().unwrap().contains("injected crash in job 5"));
        match report.into_payloads() {
            Err(SimError::WorkerPanic { job, message }) => {
                assert_eq!(job, "job-5");
                assert!(message.contains("injected crash in job 5"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    /// A panicking job's closure runs exactly once (a deterministic
    /// simulator would only crash again), while its siblings complete
    /// and every outcome, the crash included, reaches the ledger.
    #[test]
    fn panicking_job_runs_once_and_siblings_are_ledgered() {
        let path = temp_ledger("once");
        let calls = AtomicU32::new(0);
        let opts = SweepOptions { workers: 2, ledger: Some(path.clone()), ..quiet(2) };
        let report = harness()
            .run(&jobs(4), &opts, |i| {
                if i == 1 {
                    calls.fetch_add(1, Ordering::SeqCst);
                    panic!("always");
                }
                Ok(i as u64)
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "a crashed job is not run again");
        assert_eq!((report.completed, report.crashed, report.executed), (3, 1, 4));

        let text = std::fs::read_to_string(&path).unwrap();
        let mut outcomes: Vec<(String, String)> = text
            .lines()
            .map(|l| {
                let v = json::parse(l).expect("ledger line parses");
                assert!(v.get("attempts").is_none(), "new records carry no attempts: {l}");
                let field = |k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("outcome"))
            })
            .collect();
        outcomes.sort();
        let expected: Vec<(String, String)> = (0..4)
            .map(|i| (format!("job-{i}"), if i == 1 { "crashed" } else { "completed" }.into()))
            .collect();
        assert_eq!(outcomes, expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clean_errors_fail_fast_without_retry() {
        let calls = AtomicU32::new(0);
        let report = harness()
            .run(&jobs(1), &quiet(1), |_| {
                calls.fetch_add(1, Ordering::SeqCst);
                Err(SimError::InvalidConfig("deterministic config error".to_string()))
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1, "clean errors are not retried");
        assert_eq!(report.failed, 1);
        assert_eq!(
            report.results[0].outcome().message(),
            Some("invalid configuration: deterministic config error")
        );
        assert_eq!(
            report.into_payloads(),
            Err(SimError::InvalidConfig("deterministic config error".to_string())),
            "the job's own typed error comes back"
        );
    }

    #[test]
    fn ledger_resume_skips_completed_jobs() {
        let path = temp_ledger("resume");
        let opts = SweepOptions { workers: 2, ledger: Some(path.clone()), ..quiet(2) };

        // First run: job 2 crashes, the rest complete.
        let first = harness()
            .run(&jobs(5), &opts, |i| {
                if i == 2 {
                    panic!("crash on first run");
                }
                Ok(100 + i as u64)
            })
            .unwrap();
        assert_eq!(first.completed, 4);
        assert_eq!(first.crashed, 1);
        assert_eq!(first.resumed, 0);

        // Second run: only the crashed job re-executes.
        let executed = AtomicU32::new(0);
        let second = harness()
            .run(&jobs(5), &opts, |i| {
                executed.fetch_add(1, Ordering::SeqCst);
                Ok(100 + i as u64)
            })
            .unwrap();
        assert_eq!(executed.load(Ordering::SeqCst), 1, "exactly the crashed job re-runs");
        assert_eq!(second.resumed, 4);
        assert_eq!(second.executed, 1);
        assert!(second.is_all_completed());
        for (i, r) in second.results.iter().enumerate() {
            assert_eq!(r.result, Ok(100 + i as u64), "payloads restored from ledger");
            assert_eq!(r.resumed, i != 2);
        }
        assert_eq!(second.total_metric, 102, "metric counts executed jobs only");

        // Third run: nothing left to do.
        let third = harness()
            .run(&jobs(5), &opts, |_| -> Result<u64, SimError> {
                panic!("must not execute anything")
            })
            .unwrap();
        assert_eq!(third.executed, 0);
        assert_eq!(third.resumed, 5);
        std::fs::remove_file(&path).unwrap();
    }

    /// Ledgers written before records dropped their `attempts` field
    /// still resume: the loader ignores the field.
    #[test]
    fn records_with_attempts_still_resume() {
        let path = temp_ledger("attempts");
        std::fs::write(
            &path,
            "{\"v\":1,\"spec_hash\":\"0000000000001000\",\"name\":\"job-0\",\
             \"outcome\":\"completed\",\"attempts\":1,\"wall_seconds\":0.5,\"payload\":42}\n",
        )
        .unwrap();
        let report = harness()
            .run(&jobs(1), &SweepOptions { ledger: Some(path.clone()), ..quiet(1) }, |_| {
                panic!("a ledgered job must not execute")
            })
            .unwrap();
        assert_eq!((report.executed, report.resumed), (0, 1));
        assert_eq!(report.results[0].result, Ok(42));
        std::fs::remove_file(&path).unwrap();
    }

    /// Rates name the unit each caller gives its metric: a crash
    /// sweep's metric is points explored, not simulated cycles.
    #[test]
    fn summary_line_names_the_metric_unit() {
        for unit in ["sim-cycles", "crash points"] {
            let codec = PayloadCodec { encode: |v: &u64| Json::U64(*v), decode: Json::as_u64 };
            let mut report =
                Harness::new(codec, |v| *v, unit).run(&jobs(2), &quiet(1), |_| Ok(1000)).unwrap();
            assert_eq!((report.total_metric, report.metric_unit), (2000, unit));
            report.wall_seconds = 2.0;
            assert!(
                report.summary_line().ends_with(&format!(", 1.00k {unit}/s")),
                "{}",
                report.summary_line()
            );
        }
    }

    #[test]
    fn empty_job_list_yields_empty_report() {
        let report = harness().run(&[], &quiet(4), |_| Ok(0)).unwrap();
        assert!(report.results.is_empty());
        assert_eq!(report.executed + report.resumed, 0);
        assert!(report.is_all_completed());
    }

    #[test]
    fn worker_width_clamps_to_job_count() {
        assert_eq!(resolve_workers(8, 3), 3);
        assert_eq!(resolve_workers(2, 3), 2);
        assert_eq!(resolve_workers(0, 1), 1);
        assert!(resolve_workers(0, 64) >= 1);
    }
}
