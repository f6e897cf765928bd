//! The whole-run trace report: every track's dump, consistency checking
//! against the run's `RunSummary`, and the text tables `reproduce trace`
//! prints.

use crate::record::{CommitWait, TxRecord};
use crate::tracer::{TrackDump, TrackKind};
use proteus_types::stats::{RunSummary, StallCause};
use std::fmt::Write as _;

/// Everything captured during one traced run.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// One dump per traced component (cores, MC, cache sampler).
    pub tracks: Vec<TrackDump>,
}

impl TraceReport {
    /// Total events retained across all tracks.
    pub fn total_events(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Total events evicted across all tracks (0 = lossless run).
    pub fn total_dropped(&self) -> u64 {
        self.tracks.iter().fold(0, |acc, t| acc.saturating_add(t.dropped_oldest))
    }

    /// All transaction records, in `(core, tx)` order.
    pub fn tx_records(&self) -> Vec<&TxRecord> {
        let mut recs: Vec<&TxRecord> =
            self.tracks.iter().flat_map(|t| t.tx_records.iter()).collect();
        recs.sort_by_key(|r| (r.core, r.tx));
        recs
    }

    /// The dump for `kind`, if that track was traced.
    pub fn track(&self, kind: TrackKind) -> Option<&TrackDump> {
        self.tracks.iter().find(|t| t.kind == kind)
    }

    /// Verifies the trace agrees (±0) with the authoritative `RunSummary`:
    /// every core track must carry exactly `transactions` records and
    /// count each cause's stall cycles exactly, no record may become
    /// durable after its core's last cycle, and no event may be stamped
    /// past the run's total cycles.
    pub fn check_against(&self, summary: &RunSummary) -> Result<(), String> {
        for t in &self.tracks {
            let TrackKind::Core(i) = t.kind else { continue };
            let Some(core) = summary.core.get(i as usize) else {
                return Err(format!("trace has track core{i} but summary has no such core"));
            };
            let records = t.tx_records.len() as u64;
            if records != core.transactions {
                return Err(format!(
                    "core{i}: {records} tx records but summary counted {} transactions",
                    core.transactions
                ));
            }
            for cause in StallCause::ALL {
                let traced = t.stall_cycles[cause.slot()];
                if traced != core.stall(cause) {
                    return Err(format!(
                        "core{i}: {traced} {cause} stall cycles traced but summary counted {}",
                        core.stall(cause)
                    ));
                }
            }
            for r in &t.tx_records {
                if r.durable > core.cycles {
                    return Err(format!(
                        "core{i} tx{}: durable at cycle {} after core finished at {}",
                        r.tx, r.durable, core.cycles
                    ));
                }
                if r.begin > r.last_store
                    || r.last_store > r.commit_request
                    || r.commit_request > r.durable
                {
                    return Err(format!(
                        "core{i} tx{}: non-monotonic critical path {} -> {} -> {} -> {}",
                        r.tx, r.begin, r.last_store, r.commit_request, r.durable
                    ));
                }
            }
            if let Some(ev) = t.events.iter().find(|e| e.at > summary.total_cycles) {
                return Err(format!(
                    "core{i}: event at cycle {} past run end {}",
                    ev.at, summary.total_cycles
                ));
            }
        }
        Ok(())
    }

    /// Renders the per-transaction persist critical-path table: up to
    /// `limit` rows, followed by an all-transaction totals footer (the
    /// footer always covers every record, whatever the limit).
    pub fn critical_path_table(&self, limit: usize) -> String {
        let recs = self.tx_records();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8}  {:<14}",
            "core", "tx", "begin", "laststore", "commitreq", "durable", "latency", "laggard"
        );
        for r in recs.iter().take(limit) {
            let _ = writeln!(
                out,
                "{:<6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8}  {:<14}",
                format!("core{}", r.core),
                r.tx,
                r.begin,
                r.last_store,
                r.commit_request,
                r.durable,
                r.commit_latency(),
                r.wait.laggard()
            );
        }
        if recs.len() > limit {
            let _ = writeln!(out, "... ({} more transactions)", recs.len() - limit);
        }
        let mut wait = CommitWait::default();
        let mut latency_total: u64 = 0;
        let mut latency_max: u64 = 0;
        for r in &recs {
            latency_total = latency_total.saturating_add(r.commit_latency());
            latency_max = latency_max.max(r.commit_latency());
            wait.store_release += r.wait.store_release;
            wait.clwb += r.wait.clwb;
            wait.logq += r.wait.logq;
            wait.atom += r.wait.atom;
            wait.mc_commit += r.wait.mc_commit;
        }
        let mean = if recs.is_empty() { 0.0 } else { latency_total as f64 / recs.len() as f64 };
        let _ = writeln!(
            out,
            "total: {} txs, commit latency sum={} mean={:.1} max={}",
            recs.len(),
            latency_total,
            mean,
            latency_max
        );
        let parts: Vec<String> = wait
            .parts()
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(label, n)| format!("{label}={n}"))
            .collect();
        let _ = writeln!(
            out,
            "blocked tx-end cycles: {} ({})",
            wait.total(),
            if parts.is_empty() { "none".to_string() } else { parts.join(" ") }
        );
        out
    }

    /// Renders per-track queue-occupancy histograms (and wait histograms
    /// where recorded).
    pub fn occupancy_table(&self) -> String {
        let mut out = String::new();
        for t in &self.tracks {
            for (q, h) in &t.occupancy {
                let _ = writeln!(
                    out,
                    "{:<7} {:<8} occ  samples={:<8} mean={:<8.2} max={:<6} {}",
                    t.name(),
                    q.label(),
                    h.count(),
                    h.mean().unwrap_or(0.0),
                    h.max(),
                    h.render()
                );
            }
            for (q, h) in &t.wait {
                let _ = writeln!(
                    out,
                    "{:<7} {:<8} wait samples={:<8} mean={:<8.2} max={:<6} {}",
                    t.name(),
                    q.label(),
                    h.count(),
                    h.mean().unwrap_or(0.0),
                    h.max(),
                    h.render()
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no occupancy samples)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_types::stats::CoreStats;
    use proteus_types::Cycle;

    fn rec(core: u32, tx: u64, begin: Cycle, durable: Cycle) -> TxRecord {
        TxRecord {
            tx,
            core,
            begin,
            last_store: begin + 1,
            commit_request: begin + 2,
            durable,
            wait: CommitWait { logq: durable - begin - 2, ..CommitWait::default() },
        }
    }

    fn core_track(i: u32, recs: Vec<TxRecord>) -> TrackDump {
        TrackDump {
            kind: TrackKind::Core(i),
            events: Vec::new(),
            dropped_oldest: 0,
            occupancy: Vec::new(),
            wait: Vec::new(),
            stall_cycles: [0; 9],
            tx_records: recs,
        }
    }

    fn summary_with(cores: Vec<CoreStats>) -> RunSummary {
        RunSummary {
            total_cycles: cores.iter().map(|c| c.cycles).max().unwrap_or(0),
            core: cores,
            ..RunSummary::default()
        }
    }

    #[test]
    fn check_against_accepts_consistent_trace() {
        let report =
            TraceReport { tracks: vec![core_track(0, vec![rec(0, 1, 10, 50), rec(0, 2, 60, 90)])] };
        let mut c = CoreStats::new();
        c.cycles = 100;
        c.transactions = 2;
        assert!(report.check_against(&summary_with(vec![c])).is_ok());
    }

    #[test]
    fn check_against_rejects_count_mismatch_and_late_durable() {
        let report = TraceReport { tracks: vec![core_track(0, vec![rec(0, 1, 10, 50)])] };
        let mut c = CoreStats::new();
        c.cycles = 100;
        c.transactions = 2;
        let err = report.check_against(&summary_with(vec![c.clone()])).unwrap_err();
        assert!(err.contains("tx records"), "{err}");

        c.transactions = 1;
        c.cycles = 40; // durable at 50 is past the core's last cycle
        let err = report.check_against(&summary_with(vec![c])).unwrap_err();
        assert!(err.contains("durable"), "{err}");
    }

    /// Each cause's stall cycles, counted outside the ring, must match
    /// the core's statistics exactly.
    #[test]
    fn check_against_rejects_stall_cycle_mismatch() {
        let mut track = core_track(0, Vec::new());
        track.stall_cycles[StallCause::LogQFull.slot()] = 7;
        let report = TraceReport { tracks: vec![track] };
        let mut c = CoreStats::new();
        c.cycles = 100;
        c.add_stall_cycles(StallCause::LogQFull, 7);
        assert!(report.check_against(&summary_with(vec![c.clone()])).is_ok());

        let mut more = c.clone();
        more.add_stall_cycles(StallCause::LogQFull, 1);
        let err = report.check_against(&summary_with(vec![more])).unwrap_err();
        assert!(err.contains("7 logq-full stall cycles traced but summary counted 8"), "{err}");

        // A cause the trace never saw counts too.
        c.add_stall_cycles(StallCause::RobFull, 3);
        let err = report.check_against(&summary_with(vec![c])).unwrap_err();
        assert!(err.contains("0 rob-full stall cycles"), "{err}");
    }

    #[test]
    fn critical_path_table_totals_cover_all_rows() {
        let report = TraceReport {
            tracks: vec![core_track(0, (0..5).map(|i| rec(0, i, i * 100, i * 100 + 20)).collect())],
        };
        let table = report.critical_path_table(2);
        assert!(table.contains("... (3 more transactions)"));
        // Five txs, each with commit latency 19 (durable - last_store).
        assert!(table.contains("total: 5 txs, commit latency sum=95"), "{table}");
        assert!(table.contains("laggard"));
    }
}
