//! End-to-end harness behaviour: checkpointing, kill/resume and panic
//! isolation — exercised through real files, with each sweep standing
//! in for one OS process.

use proteus_harness::json::{self, Json};
use proteus_harness::{Harness, JobSpec, PayloadCodec, SweepOptions};
use proteus_types::SimError;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn temp_file(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("proteus-harness-it-{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn harness() -> Harness<u64> {
    Harness::new(
        PayloadCodec { encode: |v| Json::U64(*v), decode: Json::as_u64 },
        |v| *v,
        "sim-cycles",
    )
}

fn jobs(n: usize) -> Vec<JobSpec> {
    (0..n).map(|i| JobSpec::new(format!("sweep/job-{i}"), 0xBEEF_0000 + i as u64)).collect()
}

/// A sweep killed after N jobs completed resumes with exactly
/// `total - N` re-runs.
#[test]
fn kill_after_n_resume_reruns_exactly_the_remainder() {
    const TOTAL: usize = 9;
    const KILLED_AFTER: usize = 4;
    let ledger = temp_file("kill");
    let opts = SweepOptions { workers: 2, ledger: Some(ledger.clone()), progress: false };
    let harness = harness();

    // "Process one": runs the first KILLED_AFTER jobs, then dies. The
    // ledger was flushed per job, so those records survive the kill.
    harness
        .run(&jobs(TOTAL)[..KILLED_AFTER], &opts, |i| Ok(i as u64))
        .expect("first partial sweep");

    // "Process two": same sweep, same ledger.
    let executed = AtomicU32::new(0);
    let report = harness
        .run(&jobs(TOTAL), &opts, |i| {
            executed.fetch_add(1, Ordering::SeqCst);
            Ok(i as u64)
        })
        .expect("resumed sweep");
    assert_eq!(
        executed.load(Ordering::SeqCst) as usize,
        TOTAL - KILLED_AFTER,
        "resume must re-run exactly the jobs the kill lost"
    );
    assert_eq!(report.resumed, KILLED_AFTER);
    assert_eq!(report.executed, TOTAL - KILLED_AFTER);
    assert!(report.is_all_completed());
    // Restored and freshly-run payloads are indistinguishable.
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r.result, Ok(i as u64));
        assert_eq!(r.resumed, i < KILLED_AFTER);
    }
    std::fs::remove_file(&ledger).unwrap();
}

/// A panicking job is recorded as crashed in the ledger, its siblings
/// complete, and a resumed sweep re-runs only the crashed job.
#[test]
fn crashed_job_is_ledgered_and_alone_in_rerunning() {
    const TOTAL: usize = 6;
    const BAD: usize = 3;
    let ledger = temp_file("crash");
    let opts = SweepOptions { workers: 3, ledger: Some(ledger.clone()), progress: false };
    let harness = harness();

    let first = harness
        .run(&jobs(TOTAL), &opts, |i| {
            if i == BAD {
                panic!("injected failure in job {i}");
            }
            Ok(i as u64)
        })
        .expect("sweep with injected panic");
    assert_eq!(first.completed, TOTAL - 1, "siblings of the crash all completed");
    assert_eq!(first.crashed, 1);
    assert!(matches!(first.results[BAD].result, Err(SimError::WorkerPanic { .. })));

    // The crash outcome is durable: parse the ledger file directly.
    let text = std::fs::read_to_string(&ledger).unwrap();
    let crashed_lines: Vec<Json> = text
        .lines()
        .map(|l| json::parse(l).expect("ledger line parses"))
        .filter(|v| v.get("outcome").and_then(Json::as_str) == Some("crashed"))
        .collect();
    assert_eq!(crashed_lines.len(), 1);
    let rec = &crashed_lines[0];
    assert_eq!(rec.get("name").unwrap().as_str(), Some("sweep/job-3"));
    assert!(rec.get("message").unwrap().as_str().unwrap().contains("injected failure in job 3"));

    // Resume: only the crashed job runs again, and this time succeeds.
    let executed = AtomicU32::new(0);
    let second = harness
        .run(&jobs(TOTAL), &opts, |i| {
            executed.fetch_add(1, Ordering::SeqCst);
            assert_eq!(i, BAD, "completed jobs must not re-run");
            Ok(i as u64)
        })
        .expect("resumed sweep");
    assert_eq!(executed.load(Ordering::SeqCst), 1);
    assert!(second.is_all_completed());
    std::fs::remove_file(&ledger).unwrap();
}

/// Spec hashes — not names — key the ledger: renaming a job does not
/// skip it, and an identical spec under a new name resumes.
#[test]
fn resume_keys_on_spec_hash_not_name() {
    let ledger = temp_file("hashkey");
    let opts = SweepOptions { workers: 1, ledger: Some(ledger.clone()), progress: false };
    let harness = harness();

    harness.run(&[JobSpec::new("old-name", 0x1234)], &opts, |_| Ok(7)).expect("seed run");

    // Same hash, different display name: resumes.
    let executed = AtomicU32::new(0);
    let report = harness
        .run(&[JobSpec::new("new-name", 0x1234)], &opts, |_| {
            executed.fetch_add(1, Ordering::SeqCst);
            Ok(8)
        })
        .expect("renamed run");
    assert_eq!(executed.load(Ordering::SeqCst), 0);
    assert_eq!(report.results[0].result, Ok(7), "payload comes from the ledger");

    // Different hash, same name: runs.
    let report = harness
        .run(&[JobSpec::new("new-name", 0x9999)], &opts, |_| {
            executed.fetch_add(1, Ordering::SeqCst);
            Ok(8)
        })
        .expect("changed-spec run");
    assert_eq!(executed.load(Ordering::SeqCst), 1);
    assert_eq!(report.results[0].result, Ok(8));
    std::fs::remove_file(&ledger).unwrap();
}
