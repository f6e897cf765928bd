//! Exporter: Chrome trace-event JSON (loadable in Perfetto / `chrome://
//! tracing`).
//!
//! A hand-rolled writer — the crate is std-only — emitting only
//! ASCII field names and numbers, with string values escaped defensively.

use crate::event::{CacheLevel, QueueId, TraceEventKind};
use crate::report::TraceReport;
use crate::tracer::{TrackDump, TrackKind};
use std::fmt::Write as _;

/// Chrome trace pid for core tracks (tid = core index).
pub const PID_CORES: u32 = 1;
/// Chrome trace pid for memory-controller tracks (tid = queue slot).
pub const PID_MC: u32 = 2;
/// Chrome trace pid for cache counter tracks (tid = level slot).
pub const PID_CACHE: u32 = 3;
/// tid (under [`PID_MC`]) for persist-event instants.
pub const TID_MC_PERSIST: u32 = 100;

/// Escapes a string for embedding in a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

struct EventWriter {
    out: String,
    first: bool,
}

impl EventWriter {
    fn new() -> Self {
        EventWriter { out: String::from("{\"traceEvents\":[\n"), first: true }
    }

    fn raw(&mut self, json: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str(json);
    }

    fn meta_process(&mut self, pid: u32, name: &str) {
        self.raw(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }

    fn meta_thread(&mut self, pid: u32, tid: u32, name: &str) {
        self.raw(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }

    fn instant(&mut self, name: &str, ts: u64, pid: u32, tid: u32) {
        self.raw(&format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"s\":\"t\"}}",
            esc(name)
        ));
    }

    fn counter(&mut self, name: &str, ts: u64, pid: u32, tid: u32, key: &str, value: u64) {
        self.raw(&format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"{}\":{value}}}}}",
            esc(name),
            esc(key)
        ));
    }

    fn span(&mut self, name: &str, ts: u64, dur: u64, pid: u32, tid: u32, args: &str) {
        self.raw(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}",
            esc(name)
        ));
    }

    fn finish(mut self, sample_interval: u64) -> String {
        self.out.push_str("\n],\n");
        let _ = writeln!(
            self.out,
            "\"displayTimeUnit\":\"ns\",\"otherData\":{{\"clock\":\"cycles\",\"sampleInterval\":{sample_interval}}}}}"
        );
        self.out
    }
}

fn pid_tid_for_queue(track: &TrackDump, queue: QueueId) -> (u32, u32) {
    match track.kind {
        TrackKind::Core(i) => (PID_CORES, i),
        TrackKind::Mc | TrackKind::Cache => (PID_MC, queue.slot() as u32),
    }
}

fn dump_track(w: &mut EventWriter, track: &TrackDump) {
    let (pid, tid) = match track.kind {
        TrackKind::Core(i) => (PID_CORES, i),
        TrackKind::Mc => (PID_MC, TID_MC_PERSIST),
        TrackKind::Cache => (PID_CACHE, 0),
    };
    // Cumulative cache samples export as per-interval deltas.
    let mut prev = [(0u64, 0u64); CacheLevel::ALL.len()];
    for ev in &track.events {
        match ev.kind {
            TraceEventKind::Stall(cause) => {
                w.instant(&format!("stall:{cause}"), ev.at, pid, tid);
            }
            TraceEventKind::Enqueue { queue, occupancy }
            | TraceEventKind::Dequeue { queue, occupancy }
            | TraceEventKind::OccupancySample { queue, occupancy } => {
                let (qpid, qtid) = pid_tid_for_queue(track, queue);
                w.counter(
                    &format!("occ:{}", queue.label()),
                    ev.at,
                    qpid,
                    qtid,
                    "occupancy",
                    u64::from(occupancy),
                );
            }
            TraceEventKind::Reject { queue } => {
                let (qpid, qtid) = pid_tid_for_queue(track, queue);
                w.instant(&format!("reject:{}", queue.label()), ev.at, qpid, qtid);
            }
            TraceEventKind::CacheSample { level, hits, misses } => {
                let (ph, pm) = prev[level.slot()];
                prev[level.slot()] = (hits, misses);
                let lt = level.slot() as u32;
                w.counter(
                    &format!("{}:hits", level.label()),
                    ev.at,
                    PID_CACHE,
                    lt,
                    "delta",
                    hits.saturating_sub(ph),
                );
                w.counter(
                    &format!("{}:misses", level.label()),
                    ev.at,
                    PID_CACHE,
                    lt,
                    "delta",
                    misses.saturating_sub(pm),
                );
            }
            TraceEventKind::Persist(kind) => {
                w.instant(&format!("persist:{}", kind.label()), ev.at, PID_MC, TID_MC_PERSIST);
            }
            TraceEventKind::TxBegin { tx } => {
                w.instant(&format!("tx{tx}:begin"), ev.at, pid, tid);
            }
            TraceEventKind::TxCommitRequest { tx } => {
                w.instant(&format!("tx{tx}:commit-request"), ev.at, pid, tid);
            }
            TraceEventKind::TxDurable { tx } => {
                w.instant(&format!("tx{tx}:durable"), ev.at, pid, tid);
            }
            TraceEventKind::LockAcquire { addr } => {
                w.instant(&format!("lock:acquire:{addr:#x}"), ev.at, pid, tid);
            }
            TraceEventKind::LockRelease { addr } => {
                w.instant(&format!("lock:release:{addr:#x}"), ev.at, pid, tid);
            }
            TraceEventKind::CoherenceInvalidate { line } => {
                w.instant(&format!("coh:invalidate:{line:#x}"), ev.at, PID_CACHE, 0);
            }
            TraceEventKind::OwnershipTransfer { line } => {
                w.instant(&format!("coh:transfer:{line:#x}"), ev.at, PID_CACHE, 0);
            }
        }
    }
    for rec in &track.tx_records {
        let args = format!(
            "\"commit_latency\":{},\"laggard\":\"{}\",\"blocked\":{}",
            rec.commit_latency(),
            esc(rec.wait.laggard()),
            rec.wait.total()
        );
        w.span(&format!("tx{}", rec.tx), rec.begin, rec.span().max(1), pid, tid, &args);
    }
}

impl TraceReport {
    /// Serialises the whole report as Chrome trace-event JSON: one track
    /// per core (pid 1), per MC queue (pid 2), and per cache level
    /// (pid 3), with instants for stalls/rejects/persists, counters for
    /// occupancies and cache deltas, and `X` spans for transactions.
    /// Timestamps are CPU cycles.
    pub fn to_chrome_json(&self) -> String {
        let mut w = EventWriter::new();
        w.meta_process(PID_CORES, "cores");
        w.meta_process(PID_MC, "memory-controller");
        w.meta_process(PID_CACHE, "caches");
        for t in &self.tracks {
            match t.kind {
                TrackKind::Core(i) => w.meta_thread(PID_CORES, i, &format!("core{i}")),
                TrackKind::Mc => {
                    for q in [QueueId::ReadQ, QueueId::Wpq, QueueId::Lpq] {
                        w.meta_thread(PID_MC, q.slot() as u32, &format!("mc.{}", q.label()));
                    }
                    w.meta_thread(PID_MC, TID_MC_PERSIST, "mc.persist");
                }
                TrackKind::Cache => {
                    for l in CacheLevel::ALL {
                        w.meta_thread(PID_CACHE, l.slot() as u32, &format!("cache.{}", l.label()));
                    }
                }
            }
        }
        for t in &self.tracks {
            dump_track(&mut w, t);
        }
        w.finish(self.sample_interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PersistKind, TraceEvent};
    use crate::record::{CommitWait, TxRecord};
    use proteus_types::stats::{Log2Histogram, StallCause};

    fn sample_report() -> TraceReport {
        let mut occ = Log2Histogram::new();
        occ.record(3);
        TraceReport {
            tracks: vec![
                TrackDump {
                    kind: TrackKind::Core(0),
                    events: vec![
                        TraceEvent { at: 4, kind: TraceEventKind::Stall(StallCause::LogQFull) },
                        TraceEvent {
                            at: 5,
                            kind: TraceEventKind::Enqueue { queue: QueueId::LogQ, occupancy: 2 },
                        },
                        TraceEvent { at: 9, kind: TraceEventKind::TxDurable { tx: 1 } },
                    ],
                    dropped_oldest: 0,
                    capacity: 64,
                    occupancy: vec![(QueueId::LogQ, occ)],
                    wait: Vec::new(),
                    tx_records: vec![TxRecord {
                        tx: 1,
                        core: 0,
                        begin: 1,
                        last_store: 3,
                        commit_request: 6,
                        durable: 9,
                        wait: CommitWait { logq: 2, ..CommitWait::default() },
                    }],
                },
                TrackDump {
                    kind: TrackKind::Mc,
                    events: vec![
                        TraceEvent { at: 6, kind: TraceEventKind::Persist(PersistKind::LpqAccept) },
                        TraceEvent { at: 7, kind: TraceEventKind::Reject { queue: QueueId::Wpq } },
                    ],
                    dropped_oldest: 2,
                    capacity: 64,
                    occupancy: Vec::new(),
                    wait: Vec::new(),
                    tx_records: Vec::new(),
                },
            ],
            sample_interval: 64,
        }
    }

    #[test]
    fn chrome_json_has_tracks_and_events() {
        let json = sample_report().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"core0\""));
        assert!(json.contains("\"mc.lpq\""));
        assert!(json.contains("stall:logq-full"));
        assert!(json.contains("occ:logq"));
        assert!(json.contains("persist:lpq-accept"));
        assert!(json.contains("reject:wpq"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"laggard\":\"logq-flush\""));
        // Balanced braces (cheap structural sanity; real parsing is done
        // by `reproduce trace --file`, which feeds it through a JSON parser).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
