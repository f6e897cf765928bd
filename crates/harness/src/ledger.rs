//! Resumable run ledger.
//!
//! The ledger is a JSON Lines checkpoint file: one record is appended
//! (and flushed) the moment each job finishes, so an interrupted sweep
//! loses at most the jobs that were still in flight. Records are keyed
//! by the job's stable spec hash — *not* by its display name — so a
//! resumed sweep only skips a job when the exact same experiment
//! (config + scheme + workload + parameters) already completed.
//!
//! Re-running with the same ledger appends new records; on load, the
//! **latest record for a hash wins**. A job that crashed on the first
//! run and completed on the resume run therefore reads back as
//! completed. A truncated final line (the classic kill-mid-write
//! artifact, possibly cut inside a multi-byte character) and any other
//! unreadable line are skipped on load.

use crate::json::{self, Json};
use proteus_types::{JobOutcome, SimError};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Ledger file format version, bumped on incompatible record changes.
pub const LEDGER_VERSION: u64 = 1;

/// One persisted job record.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// Stable structural hash of the experiment spec.
    pub spec_hash: u64,
    /// Human-readable job name (diagnostics only; never used as a key).
    pub name: String,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Wall-clock seconds the job ran.
    pub wall_seconds: f64,
    /// Result payload for completed jobs, as encoded by the sweep's
    /// [`crate::scheduler::PayloadCodec`]; `Json::Null` otherwise.
    pub payload: Json,
}

impl LedgerRecord {
    /// Full record encoding, exactly as written to the ledger file.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("v", Json::U64(LEDGER_VERSION)),
            ("spec_hash", Json::str(format!("{:016x}", self.spec_hash))),
            ("name", Json::str(self.name.clone())),
            ("outcome", Json::str(self.outcome.label())),
        ];
        if let Some(msg) = self.outcome.message() {
            pairs.push(("message", Json::str(msg)));
        }
        pairs.push(("wall_seconds", Json::F64(self.wall_seconds)));
        pairs.push(("payload", self.payload.clone()));
        Json::obj(pairs)
    }

    /// Decodes one ledger line; `None` on malformed or foreign shapes.
    /// An `attempts` field, written by older versions, is ignored.
    pub fn from_json(v: &Json) -> Option<LedgerRecord> {
        let spec_hash = u64::from_str_radix(v.get("spec_hash")?.as_str()?, 16).ok()?;
        let name = v.get("name")?.as_str()?.to_string();
        let label = v.get("outcome")?.as_str()?;
        let message = v.get("message").and_then(Json::as_str);
        let outcome = JobOutcome::from_parts(label, message)?;
        let wall_seconds = v.get("wall_seconds").and_then(Json::as_f64).unwrap_or(0.0);
        let payload = v.get("payload").cloned().unwrap_or(Json::Null);
        Some(LedgerRecord { spec_hash, name, outcome, wall_seconds, payload })
    }
}

/// The set of already-finished jobs loaded from a ledger file.
///
/// Only **completed** records short-circuit a resume; failed and
/// crashed records are remembered (for reporting) but their jobs run
/// again.
#[derive(Debug, Default)]
pub struct LedgerSnapshot {
    records: HashMap<u64, LedgerRecord>,
}

impl LedgerSnapshot {
    /// Loads a snapshot from `path`. A missing file yields an empty
    /// snapshot (first run); lines that are not UTF-8, not JSON, or of
    /// another version are skipped, so a truncated trailing line is
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HarnessIo`] if the file exists but cannot be
    /// opened or read.
    pub fn load(path: &Path) -> Result<LedgerSnapshot, SimError> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(LedgerSnapshot::default())
            }
            Err(e) => {
                return Err(SimError::HarnessIo(format!(
                    "cannot open ledger {}: {e}",
                    path.display()
                )))
            }
        };
        let mut snapshot = LedgerSnapshot::default();
        for line in BufReader::new(file).split(b'\n') {
            let line = line.map_err(|e| {
                SimError::HarnessIo(format!("cannot read ledger {}: {e}", path.display()))
            })?;
            // A malformed line (torn write from a killed process, cut
            // anywhere — even inside a UTF-8 character — or a record
            // from a different version) is data loss we recover from,
            // not an error: the affected job simply re-runs.
            let Ok(text) = std::str::from_utf8(&line) else { continue };
            let trimmed = text.trim();
            if trimmed.is_empty() {
                continue;
            }
            let Ok(v) = json::parse(trimmed) else { continue };
            if v.get("v").and_then(Json::as_u64) != Some(LEDGER_VERSION) {
                continue;
            }
            if let Some(rec) = LedgerRecord::from_json(&v) {
                snapshot.records.insert(rec.spec_hash, rec);
            }
        }
        Ok(snapshot)
    }

    /// The latest **completed** record for `spec_hash`, if any — the
    /// resume predicate.
    pub fn completed(&self, spec_hash: u64) -> Option<&LedgerRecord> {
        self.records.get(&spec_hash).filter(|r| r.outcome.is_completed())
    }

    /// Number of distinct jobs with any record.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the snapshot holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Append-side handle for a ledger file.
pub struct LedgerWriter {
    path: PathBuf,
    writer: BufWriter<File>,
    /// The file ends in a torn line with no newline, which the first
    /// record must not be joined to.
    torn_tail: bool,
}

impl LedgerWriter {
    /// Opens `path` in append mode, creating it (and its parent
    /// directory) if needed. If a killed run left the file ending in a
    /// line with no newline, the first record starts a new line.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HarnessIo`] on any filesystem failure.
    pub fn append(path: &Path) -> Result<LedgerWriter, SimError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    SimError::HarnessIo(format!(
                        "cannot create ledger directory {}: {e}",
                        parent.display()
                    ))
                })?;
            }
        }
        let io_error = |e: std::io::Error| {
            SimError::HarnessIo(format!("cannot open ledger {}: {e}", path.display()))
        };
        let mut file =
            OpenOptions::new().create(true).read(true).append(true).open(path).map_err(io_error)?;
        let len = file.metadata().map_err(io_error)?.len();
        let mut last = [b'\n'];
        if len > 0 {
            file.seek(SeekFrom::Start(len - 1))
                .and_then(|_| file.read_exact(&mut last))
                .map_err(io_error)?;
        }
        Ok(LedgerWriter {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
            torn_tail: last[0] != b'\n',
        })
    }

    /// Appends one record and flushes it to the OS, so a subsequent
    /// crash of this process cannot lose it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::HarnessIo`] on write failure.
    pub fn record(&mut self, record: &LedgerRecord) -> Result<(), SimError> {
        let mut line = record.to_json().to_line();
        if std::mem::take(&mut self.torn_tail) {
            line.insert(0, '\n');
        }
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| {
                SimError::HarnessIo(format!("cannot write ledger {}: {e}", self.path.display()))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("proteus-ledger-{tag}-{}", std::process::id()));
        p
    }

    fn sample(hash: u64, outcome: JobOutcome) -> LedgerRecord {
        LedgerRecord {
            spec_hash: hash,
            name: format!("job-{hash:x}"),
            outcome,
            wall_seconds: 0.25,
            payload: Json::obj([("cycles", Json::U64(1234))]),
        }
    }

    #[test]
    fn records_round_trip_through_file() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = LedgerWriter::append(&path).unwrap();
            w.record(&sample(0xabc, JobOutcome::Completed)).unwrap();
            w.record(&sample(0xdef, JobOutcome::Crashed { panic: "boom".into() })).unwrap();
        }
        let snap = LedgerSnapshot::load(&path).unwrap();
        assert_eq!(snap.len(), 2);
        let done = snap.completed(0xabc).unwrap();
        assert_eq!(done.payload.get("cycles").unwrap().as_u64(), Some(1234));
        assert!(snap.completed(0xdef).is_none(), "crashed records must not satisfy resume");
        assert_eq!(snap.records[&0xdef].outcome.message(), Some("boom"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty_snapshot() {
        let snap = LedgerSnapshot::load(Path::new("/nonexistent/proteus.jsonl")).unwrap();
        assert!(snap.is_empty());
    }

    #[test]
    fn latest_record_wins() {
        let path = temp_path("latest");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = LedgerWriter::append(&path).unwrap();
            w.record(&sample(7, JobOutcome::Crashed { panic: "first try".into() })).unwrap();
        }
        {
            // Separate append session, as a resumed process would do.
            let mut w = LedgerWriter::append(&path).unwrap();
            w.record(&sample(7, JobOutcome::Completed)).unwrap();
        }
        let snap = LedgerSnapshot::load(&path).unwrap();
        assert_eq!(snap.len(), 1);
        assert!(snap.completed(7).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_and_junk_lines_are_skipped() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = LedgerWriter::append(&path).unwrap();
            w.record(&sample(1, JobOutcome::Completed)).unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "not json at all").unwrap();
            writeln!(f, r#"{{"v":999,"spec_hash":"02","outcome":"completed""#).unwrap();
            // A line that is not UTF-8 at all, then an intact record.
            f.write_all(b"\xff\xfe junk \xc0\n").unwrap();
            writeln!(f, "{}", sample(5, JobOutcome::Completed).to_json().to_line()).unwrap();
            // Torn final line: no newline, cut mid-record inside a
            // multi-byte character (an em dash, E2 80 94, cut after
            // two bytes).
            f.write_all(
                b"{\"v\":1,\"spec_hash\":\"0000000000000003\",\"message\":\"stale \xE2\x80",
            )
            .unwrap();
        }
        let snap = LedgerSnapshot::load(&path).unwrap();
        assert_eq!(snap.len(), 2, "only the intact, version-matched records survive");
        assert!(snap.completed(1).is_some());
        assert!(snap.completed(5).is_some(), "lines after a non-UTF-8 line still load");
        // A resumed run appends after the torn tail: its first record
        // must start a line of its own.
        {
            let mut w = LedgerWriter::append(&path).unwrap();
            w.record(&sample(9, JobOutcome::Completed)).unwrap();
            w.record(&sample(10, JobOutcome::Completed)).unwrap();
        }
        let snap = LedgerSnapshot::load(&path).unwrap();
        assert_eq!(snap.len(), 4);
        assert!(snap.completed(9).is_some(), "the record after the torn tail loads");
        assert!(snap.completed(10).is_some());
        std::fs::remove_file(&path).unwrap();
    }
}
