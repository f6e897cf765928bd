//! JSON codec for [`ExperimentResult`], used by the harness ledger.
//!
//! The resume ledger stores each completed experiment's full
//! [`RunSummary`] so a resumed sweep can rebuild its figures without
//! re-simulating. Encoding is explicit field-by-field (no derive): the
//! ledger is an on-disk format read by later runs, and decode failures
//! must degrade to "re-run the job", never to a panic — so
//! [`result_from_json`] returns `Option` and the harness treats `None`
//! as an unreadable record.

use crate::runner::ExperimentResult;
use proteus_harness::Json;
use proteus_types::stats::{
    CacheStats, CoherenceStats, CoreStats, MemStats, RunSummary, StallCause,
};

fn u(v: &Json, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn core_to_json(c: &CoreStats) -> Json {
    // Stall cycles: only non-zero causes, keyed by their stable label.
    let stalls: Vec<(String, Json)> = StallCause::ALL
        .iter()
        .filter(|&&cause| c.stall(cause) > 0)
        .map(|&cause| (cause.to_string(), Json::U64(c.stall(cause))))
        .collect();
    Json::obj([
        ("cycles", Json::U64(c.cycles)),
        ("uops_retired", Json::U64(c.uops_retired)),
        ("loads", Json::U64(c.loads)),
        ("stores", Json::U64(c.stores)),
        ("clwbs", Json::U64(c.clwbs)),
        ("fences", Json::U64(c.fences)),
        ("log_loads", Json::U64(c.log_loads)),
        ("log_flushes", Json::U64(c.log_flushes)),
        ("log_flushes_elided", Json::U64(c.log_flushes_elided)),
        ("atom_log_entries", Json::U64(c.atom_log_entries)),
        ("atom_log_elided", Json::U64(c.atom_log_elided)),
        ("transactions", Json::U64(c.transactions)),
        ("llt_lookups", Json::U64(c.llt_lookups)),
        ("llt_hits", Json::U64(c.llt_hits)),
        ("stalls", Json::Obj(stalls)),
    ])
}

fn core_from_json(v: &Json) -> Option<CoreStats> {
    let mut c = CoreStats::new();
    c.cycles = u(v, "cycles")?;
    c.uops_retired = u(v, "uops_retired")?;
    c.loads = u(v, "loads")?;
    c.stores = u(v, "stores")?;
    c.clwbs = u(v, "clwbs")?;
    c.fences = u(v, "fences")?;
    c.log_loads = u(v, "log_loads")?;
    c.log_flushes = u(v, "log_flushes")?;
    c.log_flushes_elided = u(v, "log_flushes_elided")?;
    c.atom_log_entries = u(v, "atom_log_entries")?;
    c.atom_log_elided = u(v, "atom_log_elided")?;
    c.transactions = u(v, "transactions")?;
    c.llt_lookups = u(v, "llt_lookups")?;
    c.llt_hits = u(v, "llt_hits")?;
    if let Json::Obj(pairs) = v.get("stalls")? {
        for (label, count) in pairs {
            let cause = StallCause::ALL.iter().find(|c| &c.to_string() == label)?;
            c.add_stall_cycles(*cause, count.as_u64()?);
        }
    } else {
        return None;
    }
    Some(c)
}

fn mem_to_json(m: &MemStats) -> Json {
    Json::obj([
        ("nvmm_reads", Json::U64(m.nvmm_reads)),
        ("nvmm_data_writes", Json::U64(m.nvmm_data_writes)),
        ("nvmm_log_writes", Json::U64(m.nvmm_log_writes)),
        ("nvmm_log_invalidation_writes", Json::U64(m.nvmm_log_invalidation_writes)),
        ("wpq_inserts", Json::U64(m.wpq_inserts)),
        ("lpq_inserts", Json::U64(m.lpq_inserts)),
        ("lpq_flash_cleared", Json::U64(m.lpq_flash_cleared)),
        ("lpq_drained", Json::U64(m.lpq_drained)),
        ("wpq_log_dropped", Json::U64(m.wpq_log_dropped)),
        ("pcommits", Json::U64(m.pcommits)),
        ("read_queue_wait_cycles", Json::U64(m.read_queue_wait_cycles)),
        ("wpq_peak_occupancy", Json::U64(m.wpq_peak_occupancy as u64)),
        ("lpq_peak_occupancy", Json::U64(m.lpq_peak_occupancy as u64)),
        ("lpq_full_rejections", Json::U64(m.lpq_full_rejections)),
        ("wpq_full_rejections", Json::U64(m.wpq_full_rejections)),
    ])
}

fn mem_from_json(v: &Json) -> Option<MemStats> {
    Some(MemStats {
        nvmm_reads: u(v, "nvmm_reads")?,
        nvmm_data_writes: u(v, "nvmm_data_writes")?,
        nvmm_log_writes: u(v, "nvmm_log_writes")?,
        nvmm_log_invalidation_writes: u(v, "nvmm_log_invalidation_writes")?,
        wpq_inserts: u(v, "wpq_inserts")?,
        lpq_inserts: u(v, "lpq_inserts")?,
        lpq_flash_cleared: u(v, "lpq_flash_cleared")?,
        lpq_drained: u(v, "lpq_drained")?,
        wpq_log_dropped: u(v, "wpq_log_dropped")?,
        pcommits: u(v, "pcommits")?,
        read_queue_wait_cycles: u(v, "read_queue_wait_cycles")?,
        wpq_peak_occupancy: v.get("wpq_peak_occupancy")?.as_usize()?,
        lpq_peak_occupancy: v.get("lpq_peak_occupancy")?.as_usize()?,
        lpq_full_rejections: u(v, "lpq_full_rejections")?,
        wpq_full_rejections: u(v, "wpq_full_rejections")?,
    })
}

fn cache_to_json(c: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::U64(c.hits)),
        ("misses", Json::U64(c.misses)),
        ("writebacks", Json::U64(c.writebacks)),
        ("clwb_flushes", Json::U64(c.clwb_flushes)),
    ])
}

fn cache_from_json(v: &Json) -> Option<CacheStats> {
    Some(CacheStats {
        hits: u(v, "hits")?,
        misses: u(v, "misses")?,
        writebacks: u(v, "writebacks")?,
        clwb_flushes: u(v, "clwb_flushes")?,
    })
}

fn coherence_to_json(c: &CoherenceStats) -> Json {
    Json::obj([
        ("invalidations", Json::U64(c.invalidations)),
        ("remote_transfers", Json::U64(c.remote_transfers)),
        ("coherence_misses", Json::U64(c.coherence_misses)),
        ("lock_acquires", Json::U64(c.lock_acquires)),
    ])
}

fn coherence_from_json(v: &Json) -> Option<CoherenceStats> {
    Some(CoherenceStats {
        invalidations: u(v, "invalidations")?,
        remote_transfers: u(v, "remote_transfers")?,
        coherence_misses: u(v, "coherence_misses")?,
        lock_acquires: u(v, "lock_acquires")?,
    })
}

/// Encodes a summary as a JSON object. Coherence counters appear only
/// when non-zero: single-owner summaries stay byte-identical to the
/// pre-coherence encoding, so old ledgers and goldens remain valid.
pub fn summary_to_json(s: &RunSummary) -> Json {
    let mut fields = vec![
        ("total_cycles", Json::U64(s.total_cycles)),
        ("core", Json::Arr(s.core.iter().map(core_to_json).collect())),
        ("mem", mem_to_json(&s.mem)),
        ("l1d", cache_to_json(&s.l1d)),
        ("l2", cache_to_json(&s.l2)),
        ("l3", cache_to_json(&s.l3)),
    ];
    if !s.coherence.is_zero() {
        fields.push(("coherence", coherence_to_json(&s.coherence)));
    }
    Json::obj(fields)
}

/// Decodes a summary; `None` on any missing or mistyped field (the
/// optional `coherence` object defaults to zero when absent).
pub fn summary_from_json(v: &Json) -> Option<RunSummary> {
    Some(RunSummary {
        total_cycles: u(v, "total_cycles")?,
        core: v
            .get("core")?
            .as_arr()?
            .iter()
            .map(core_from_json)
            .collect::<Option<Vec<CoreStats>>>()?,
        mem: mem_from_json(v.get("mem")?)?,
        l1d: cache_from_json(v.get("l1d")?)?,
        l2: cache_from_json(v.get("l2")?)?,
        l3: cache_from_json(v.get("l3")?)?,
        coherence: match v.get("coherence") {
            Some(c) => coherence_from_json(c)?,
            None => CoherenceStats::default(),
        },
    })
}

/// Encodes an experiment result for the ledger.
pub fn result_to_json(r: &ExperimentResult) -> Json {
    Json::obj([("name", Json::str(r.name.clone())), ("summary", summary_to_json(&r.summary))])
}

/// Decodes a ledgered experiment result; `None` on malformed input.
pub fn result_from_json(v: &Json) -> Option<ExperimentResult> {
    Some(ExperimentResult {
        name: v.get("name")?.as_str()?.to_string(),
        summary: summary_from_json(v.get("summary")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_summary() -> RunSummary {
        let mut core0 = CoreStats::new();
        core0.cycles = 123_456;
        core0.uops_retired = 9999;
        core0.loads = 1000;
        core0.stores = 500;
        core0.clwbs = 77;
        core0.fences = 12;
        core0.log_loads = 3;
        core0.log_flushes = 450;
        core0.log_flushes_elided = 90;
        core0.transactions = 50;
        core0.llt_lookups = 450;
        core0.llt_hits = 90;
        core0.add_stall_cycles(StallCause::RobFull, 200);
        core0.add_stall_cycles(StallCause::LogQFull, 31);
        let mut core1 = CoreStats::new();
        core1.cycles = 120_000;
        core1.add_stall_cycles(StallCause::FenceDrain, 7);
        let mut mem = MemStats::new();
        mem.nvmm_reads = 4000;
        mem.nvmm_data_writes = 800;
        mem.nvmm_log_writes = 120;
        mem.nvmm_log_invalidation_writes = 5;
        mem.wpq_inserts = 900;
        mem.lpq_inserts = 450;
        mem.lpq_flash_cleared = 400;
        mem.lpq_drained = 50;
        mem.wpq_peak_occupancy = 37;
        mem.lpq_peak_occupancy = 12;
        RunSummary {
            total_cycles: 123_456,
            core: vec![core0, core1],
            mem,
            l1d: CacheStats { hits: 9000, misses: 1000, writebacks: 300, clwb_flushes: 77 },
            l2: CacheStats { hits: 700, misses: 300, writebacks: 150, clwb_flushes: 0 },
            l3: CacheStats { hits: 200, misses: 100, writebacks: 80, clwb_flushes: 0 },
            coherence: CoherenceStats::default(),
        }
    }

    #[test]
    fn result_round_trips_exactly() {
        let original = ExperimentResult { name: "QE/Proteus".to_string(), summary: busy_summary() };
        let line = result_to_json(&original).to_line();
        let parsed = proteus_harness::json::parse(&line).unwrap();
        let back = result_from_json(&parsed).unwrap();
        assert_eq!(back.name, original.name);
        assert_eq!(back.summary, original.summary);
        // Derived metrics survive (stall array restored through labels).
        assert_eq!(
            back.summary.cores_merged().total_stall_cycles(),
            original.summary.cores_merged().total_stall_cycles()
        );
        assert_eq!(
            back.summary.core[0].stall(StallCause::LogQFull),
            original.summary.core[0].stall(StallCause::LogQFull)
        );
    }

    #[test]
    fn malformed_records_decode_to_none_not_panic() {
        for text in [
            r#"{}"#,
            r#"{"name":"x"}"#,
            r#"{"name":"x","summary":{}}"#,
            r#"{"name":"x","summary":{"total_cycles":"not a number"}}"#,
            r#"{"name":7,"summary":{}}"#,
        ] {
            let v = proteus_harness::json::parse(text).unwrap();
            assert!(result_from_json(&v).is_none(), "{text}");
        }
        // Unknown stall labels (from a newer simulator) invalidate the
        // record so the job re-runs rather than silently losing cycles.
        let mut v = result_to_json(&ExperimentResult { name: "x".into(), summary: busy_summary() })
            .to_line();
        v = v.replace("rob-full", "weird-new-cause");
        let parsed = proteus_harness::json::parse(&v).unwrap();
        assert!(result_from_json(&parsed).is_none());
    }
}
