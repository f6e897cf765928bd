//! Statistics counters collected during simulation.
//!
//! The counters mirror the measurements the paper reports: execution cycles
//! (Figs. 6, 9, 10, 11, 12, Table 3), front-end dispatch stalls (Fig. 7),
//! NVMM write counts by type (Fig. 8), and LLT hit rates (Table 4).

use crate::clock::Cycle;
use std::fmt;

/// Why dispatch could not proceed in a given cycle (front-end stall).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Reorder buffer full.
    RobFull,
    /// Issue queue full.
    IssueQFull,
    /// Load queue full.
    LoadQFull,
    /// Store queue full.
    StoreQFull,
    /// Proteus LogQ full: a `log-flush` could not allocate an entry
    /// (paper §4.2: dispatch stalls to preserve persist ordering).
    LogQFull,
    /// Proteus log register file exhausted.
    LrFull,
    /// An in-order constraint (sfence/pcommit/tx boundary) is draining.
    FenceDrain,
    /// ATOM: store retirement blocked on log durability backed up into
    /// the pipeline.
    AtomLogWait,
    /// A `wait-value` spin (ticket-lock acquire on a shared structure)
    /// has not observed its expected value yet.
    LockWait,
}

impl StallCause {
    /// All causes, for iteration in reports.
    pub const ALL: [StallCause; 9] = [
        StallCause::RobFull,
        StallCause::IssueQFull,
        StallCause::LoadQFull,
        StallCause::StoreQFull,
        StallCause::LogQFull,
        StallCause::LrFull,
        StallCause::FenceDrain,
        StallCause::AtomLogWait,
        StallCause::LockWait,
    ];

    /// Dense index for per-cause arrays ([`StallCause::ALL`] order).
    pub fn slot(self) -> usize {
        match self {
            StallCause::RobFull => 0,
            StallCause::IssueQFull => 1,
            StallCause::LoadQFull => 2,
            StallCause::StoreQFull => 3,
            StallCause::LogQFull => 4,
            StallCause::LrFull => 5,
            StallCause::FenceDrain => 6,
            StallCause::AtomLogWait => 7,
            StallCause::LockWait => 8,
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StallCause::RobFull => "rob-full",
            StallCause::IssueQFull => "issueq-full",
            StallCause::LoadQFull => "loadq-full",
            StallCause::StoreQFull => "storeq-full",
            StallCause::LogQFull => "logq-full",
            StallCause::LrFull => "lr-full",
            StallCause::FenceDrain => "fence-drain",
            StallCause::AtomLogWait => "atom-log-wait",
            StallCause::LockWait => "lock-wait",
        };
        f.write_str(s)
    }
}

/// Per-core pipeline statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles this core was active (until its trace finished).
    pub cycles: Cycle,
    /// Micro-ops retired.
    pub uops_retired: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// `clwb` operations retired.
    pub clwbs: u64,
    /// `sfence`/`mfence` operations retired.
    pub fences: u64,
    /// `log-load` operations retired (Proteus).
    pub log_loads: u64,
    /// `log-flush` operations retired, including LLT-elided ones.
    pub log_flushes: u64,
    /// `log-flush` operations elided by an LLT hit.
    pub log_flushes_elided: u64,
    /// ATOM hardware log entries created at store retirement.
    pub atom_log_entries: u64,
    /// ATOM log entries elided by its per-transaction dedup table.
    pub atom_log_elided: u64,
    /// Transactions committed.
    pub transactions: u64,
    /// LLT lookups (equals `log_flushes` under Proteus).
    pub llt_lookups: u64,
    /// LLT hits.
    pub llt_hits: u64,
    /// Front-end dispatch stall cycles by cause (indexed via
    /// [`StallCause::ALL`] order).
    stall_cycles: [u64; 9],
}

impl CoreStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one stalled dispatch cycle.
    pub fn record_stall(&mut self, cause: StallCause) {
        self.stall_cycles[cause.slot()] += 1;
    }

    /// Adds `n` stall cycles attributed to `cause` (bulk restore path,
    /// used when decoding persisted summaries).
    pub fn add_stall_cycles(&mut self, cause: StallCause, n: u64) {
        self.stall_cycles[cause.slot()] += n;
    }

    /// Stall cycles attributed to `cause`.
    pub fn stall(&self, cause: StallCause) -> u64 {
        self.stall_cycles[cause.slot()]
    }

    /// Total front-end stall cycles across all causes.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// LLT miss rate in percent (Table 4); `None` when no lookups occurred.
    pub fn llt_miss_rate_pct(&self) -> Option<f64> {
        if self.llt_lookups == 0 {
            None
        } else {
            Some(100.0 * (self.llt_lookups - self.llt_hits) as f64 / self.llt_lookups as f64)
        }
    }

    /// Accumulates another core's counters into this one.
    ///
    /// Counter sums saturate rather than wrap: merged aggregates can span
    /// arbitrarily many resumed shards, and a pinned-at-max counter is a
    /// visible anomaly where a wrapped one silently corrupts every ratio
    /// derived from it.
    pub fn merge(&mut self, other: &CoreStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.uops_retired = self.uops_retired.saturating_add(other.uops_retired);
        self.loads = self.loads.saturating_add(other.loads);
        self.stores = self.stores.saturating_add(other.stores);
        self.clwbs = self.clwbs.saturating_add(other.clwbs);
        self.fences = self.fences.saturating_add(other.fences);
        self.log_loads = self.log_loads.saturating_add(other.log_loads);
        self.log_flushes = self.log_flushes.saturating_add(other.log_flushes);
        self.log_flushes_elided = self.log_flushes_elided.saturating_add(other.log_flushes_elided);
        self.atom_log_entries = self.atom_log_entries.saturating_add(other.atom_log_entries);
        self.atom_log_elided = self.atom_log_elided.saturating_add(other.atom_log_elided);
        self.transactions = self.transactions.saturating_add(other.transactions);
        self.llt_lookups = self.llt_lookups.saturating_add(other.llt_lookups);
        self.llt_hits = self.llt_hits.saturating_add(other.llt_hits);
        for i in 0..self.stall_cycles.len() {
            self.stall_cycles[i] = self.stall_cycles[i].saturating_add(other.stall_cycles[i]);
        }
    }
}

/// Memory-controller and NVMM statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Read requests serviced by the NVMM banks.
    pub nvmm_reads: u64,
    /// Data (non-log) writes performed at the NVMM banks.
    pub nvmm_data_writes: u64,
    /// Log writes that reached the NVMM banks (escaped removal).
    pub nvmm_log_writes: u64,
    /// Extra NVMM writes performed to invalidate log entries that had
    /// already escaped to NVMM when their transaction committed.
    pub nvmm_log_invalidation_writes: u64,
    /// Writes accepted into the WPQ.
    pub wpq_inserts: u64,
    /// Log flushes accepted into the LPQ.
    pub lpq_inserts: u64,
    /// LPQ entries flash-cleared at tx-end (writes avoided).
    pub lpq_flash_cleared: u64,
    /// LPQ entries drained to NVMM before their transaction ended.
    pub lpq_drained: u64,
    /// WPQ-resident log entries dropped at commit (commit-marker rule).
    pub wpq_log_dropped: u64,
    /// `pcommit` drains executed.
    pub pcommits: u64,
    /// Cycles any read spent waiting in the read queue (for occupancy
    /// diagnostics).
    pub read_queue_wait_cycles: u64,
    /// Peak WPQ occupancy observed.
    pub wpq_peak_occupancy: usize,
    /// Peak LPQ occupancy observed.
    pub lpq_peak_occupancy: usize,
    /// Requests rejected because the LPQ was full (backpressure events).
    pub lpq_full_rejections: u64,
    /// Requests rejected because the WPQ was full (backpressure events).
    pub wpq_full_rejections: u64,
}

impl MemStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total writes that physically reached the NVMM banks, the Fig. 8
    /// metric (data + log + log invalidation).
    pub fn total_nvmm_writes(&self) -> u64 {
        self.nvmm_data_writes + self.nvmm_log_writes + self.nvmm_log_invalidation_writes
    }

    /// Accumulates another controller's counters into this one.
    ///
    /// Saturating, for the same reason as [`CoreStats::merge`].
    pub fn merge(&mut self, other: &MemStats) {
        self.nvmm_reads = self.nvmm_reads.saturating_add(other.nvmm_reads);
        self.nvmm_data_writes = self.nvmm_data_writes.saturating_add(other.nvmm_data_writes);
        self.nvmm_log_writes = self.nvmm_log_writes.saturating_add(other.nvmm_log_writes);
        self.nvmm_log_invalidation_writes =
            self.nvmm_log_invalidation_writes.saturating_add(other.nvmm_log_invalidation_writes);
        self.wpq_inserts = self.wpq_inserts.saturating_add(other.wpq_inserts);
        self.lpq_inserts = self.lpq_inserts.saturating_add(other.lpq_inserts);
        self.lpq_flash_cleared = self.lpq_flash_cleared.saturating_add(other.lpq_flash_cleared);
        self.lpq_drained = self.lpq_drained.saturating_add(other.lpq_drained);
        self.wpq_log_dropped = self.wpq_log_dropped.saturating_add(other.wpq_log_dropped);
        self.pcommits = self.pcommits.saturating_add(other.pcommits);
        self.read_queue_wait_cycles =
            self.read_queue_wait_cycles.saturating_add(other.read_queue_wait_cycles);
        self.wpq_peak_occupancy = self.wpq_peak_occupancy.max(other.wpq_peak_occupancy);
        self.lpq_peak_occupancy = self.lpq_peak_occupancy.max(other.lpq_peak_occupancy);
        self.lpq_full_rejections =
            self.lpq_full_rejections.saturating_add(other.lpq_full_rejections);
        self.wpq_full_rejections =
            self.wpq_full_rejections.saturating_add(other.wpq_full_rejections);
    }
}

/// Cache statistics for one level.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty lines written back to the next level.
    pub writebacks: u64,
    /// Lines flushed by `clwb`.
    pub clwb_flushes: u64,
}

impl CacheStats {
    /// Hit rate in percent; `None` when no accesses occurred.
    pub fn hit_rate_pct(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(100.0 * self.hits as f64 / total as f64)
        }
    }

    /// Accumulates another cache's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
        self.clwb_flushes += other.clwb_flushes;
    }
}

/// Inter-core coherence statistics (all zero when no line is shared:
/// the protocol only acts on cross-core interactions inside the shared
/// coherence domain, so single-owner workloads never move these).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Remote private copies invalidated by a store (M/S/I: a writer
    /// gains exclusive ownership before mutating the line).
    pub invalidations: u64,
    /// Dirty lines transferred from a remote private cache to satisfy
    /// another core's access (cache-to-cache ownership transfer).
    pub remote_transfers: u64,
    /// Loads in the shared domain that missed every private cache and
    /// had no remote dirty owner (coherence misses: the line had to
    /// come from L3 or memory).
    pub coherence_misses: u64,
    /// `wait-value` spins resolved (successful lock acquires).
    pub lock_acquires: u64,
}

impl CoherenceStats {
    /// Whether any coherence activity was observed.
    pub fn is_zero(&self) -> bool {
        *self == CoherenceStats::default()
    }

    /// Accumulates another system's counters into this one (saturating,
    /// for the same reason as [`CoreStats::merge`]).
    pub fn merge(&mut self, other: &CoherenceStats) {
        self.invalidations = self.invalidations.saturating_add(other.invalidations);
        self.remote_transfers = self.remote_transfers.saturating_add(other.remote_transfers);
        self.coherence_misses = self.coherence_misses.saturating_add(other.coherence_misses);
        self.lock_acquires = self.lock_acquires.saturating_add(other.lock_acquires);
    }
}

/// Full-run summary: everything a figure or table needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Wall-clock of the simulated run: max cycles over all cores.
    pub total_cycles: Cycle,
    /// Per-core statistics, indexed by core.
    pub core: Vec<CoreStats>,
    /// Memory-controller statistics.
    pub mem: MemStats,
    /// L1 statistics aggregated over cores.
    pub l1d: CacheStats,
    /// L2 statistics aggregated over cores.
    pub l2: CacheStats,
    /// Shared L3 statistics.
    pub l3: CacheStats,
    /// Inter-core coherence statistics (all zero for single-owner
    /// workloads; `sim::persist` encodes them only when non-zero so
    /// pre-coherence ledgers and goldens stay byte-identical).
    pub coherence: CoherenceStats,
}

impl RunSummary {
    /// Aggregated core stats over all cores.
    pub fn cores_merged(&self) -> CoreStats {
        let mut total = CoreStats::new();
        for c in &self.core {
            total.merge(c);
        }
        total
    }

    /// Speedup of this run relative to a baseline run of the same work:
    /// `baseline_cycles / self_cycles`.
    ///
    /// Zero-cycle runs (degenerate empty workloads) are treated as one
    /// cycle on either side, so the result is always finite and
    /// NaN-free: two empty runs compare as exactly 1.0.
    pub fn speedup_over(&self, baseline: &RunSummary) -> f64 {
        baseline.total_cycles.max(1) as f64 / self.total_cycles.max(1) as f64
    }
}

/// A fixed-size log2-bucket histogram over `u64` samples.
///
/// Bucket `i` counts samples `v` with `floor(log2(v)) == i - 1`; bucket 0
/// counts zeros, and the last bucket absorbs everything at or beyond its
/// lower bound. This is the one shared histogram used for trace queue
/// occupancies, memory-controller wait times, and harness per-job wall
/// times — every log2 breakdown in the repo renders identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; Log2Histogram::BUCKETS],
    count: u64,
    max: u64,
    sum: u64,
}

impl Log2Histogram {
    /// Number of buckets: zeros plus `floor(log2(v))` in `0..=30`, with
    /// the last bucket open-ended (covers u64 values `>= 2^30`).
    pub const BUCKETS: usize = 32;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(Self::BUCKETS - 1)
        }
    }

    /// Records one sample. Totals saturate rather than wrap.
    pub fn record(&mut self, value: u64) {
        let slot = Self::slot(value);
        self.buckets[slot] = self.buckets[slot].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Raw bucket counts, lowest bucket first.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, ...).
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Accumulates another histogram into this one (saturating).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Upper bound of the bucket where the cumulative sample count first
    /// reaches `q` (clamped to `[0, 1]`) of all samples, or `None` for an
    /// empty histogram. Because buckets are log2-sized this is a bound on
    /// the true quantile, not its exact value — good enough for p50/p99
    /// latency reporting, which is what it exists for.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(n);
            if cumulative >= target {
                return Some(if i == Self::BUCKETS - 1 {
                    self.max
                } else {
                    Self::bucket_floor(i + 1) - 1
                });
            }
        }
        Some(self.max)
    }

    /// Compact one-line rendering of the non-empty buckets, e.g.
    /// `[0]:3 [1]:1 [4-7]:12`, or `empty` for a histogram with no samples.
    pub fn render(&self) -> String {
        if self.count == 0 {
            return "empty".to_string();
        }
        let mut out = String::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            let lo = Self::bucket_floor(i);
            if i == 0 {
                out.push_str(&format!("[0]:{n}"));
            } else if i == Self::BUCKETS - 1 {
                out.push_str(&format!("[{lo}+]:{n}"));
            } else {
                let hi = Self::bucket_floor(i + 1) - 1;
                if lo == hi {
                    out.push_str(&format!("[{lo}]:{n}"));
                } else {
                    out.push_str(&format!("[{lo}-{hi}]:{n}"));
                }
            }
        }
        out
    }
}

/// Geometric mean of the positive, finite values in `values`.
///
/// The paper reports geometric means across benchmarks; this helper keeps
/// every report using the same definition.
///
/// Degenerate entries — zero, negative, infinite, or NaN ratios, which
/// arise only from empty or crashed runs, never from a meaningful
/// speedup — are ignored rather than poisoning the mean. An empty slice,
/// or one with no usable values, yields `1.0` (the neutral speedup), so
/// the result is always finite and NaN-free.
pub fn geometric_mean(values: &[f64]) -> f64 {
    let mut log_sum = 0.0f64;
    let mut used = 0usize;
    for &v in values {
        if v > 0.0 && v.is_finite() {
            log_sum += v.ln();
            used += 1;
        }
    }
    if used == 0 {
        1.0
    } else {
        (log_sum / used as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_accounting() {
        let mut s = CoreStats::new();
        s.record_stall(StallCause::RobFull);
        s.record_stall(StallCause::RobFull);
        s.record_stall(StallCause::LogQFull);
        assert_eq!(s.stall(StallCause::RobFull), 2);
        assert_eq!(s.stall(StallCause::LogQFull), 1);
        assert_eq!(s.stall(StallCause::LoadQFull), 0);
        assert_eq!(s.total_stall_cycles(), 3);
    }

    #[test]
    fn llt_miss_rate() {
        let mut s = CoreStats::new();
        assert_eq!(s.llt_miss_rate_pct(), None);
        s.llt_lookups = 100;
        s.llt_hits = 75;
        assert_eq!(s.llt_miss_rate_pct(), Some(25.0));
    }

    #[test]
    fn core_merge_accumulates() {
        let mut a = CoreStats::new();
        a.cycles = 100;
        a.stores = 5;
        a.record_stall(StallCause::FenceDrain);
        let mut b = CoreStats::new();
        b.cycles = 200;
        b.stores = 7;
        b.record_stall(StallCause::FenceDrain);
        a.merge(&b);
        assert_eq!(a.cycles, 200); // max, not sum: wall-clock semantics
        assert_eq!(a.stores, 12);
        assert_eq!(a.stall(StallCause::FenceDrain), 2);
    }

    #[test]
    fn total_nvmm_writes_sums_components() {
        let mut m = MemStats::new();
        m.nvmm_data_writes = 10;
        m.nvmm_log_writes = 4;
        m.nvmm_log_invalidation_writes = 1;
        assert_eq!(m.total_nvmm_writes(), 15);
    }

    #[test]
    fn speedup_definition() {
        let base = RunSummary { total_cycles: 1500, ..RunSummary::default() };
        let fast = RunSummary { total_cycles: 1000, ..RunSummary::default() };
        assert!((fast.speedup_over(&base) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn speedup_guards_zero_cycle_runs() {
        let empty = RunSummary::default();
        let real = RunSummary { total_cycles: 500, ..RunSummary::default() };
        // Empty vs empty is the neutral speedup; never NaN or infinite.
        assert_eq!(empty.speedup_over(&empty), 1.0);
        assert!(empty.speedup_over(&real).is_finite());
        assert!(real.speedup_over(&empty).is_finite());
        assert_eq!(real.speedup_over(&empty), 1.0 / 500.0);
    }

    #[test]
    fn geometric_mean_matches_hand_calc() {
        let g = geometric_mean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        let g = geometric_mean(&[2.0, 2.0, 2.0]);
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_ignores_degenerate_values() {
        // Zero / negative / non-finite entries come only from degenerate
        // runs; they are skipped, not propagated as NaN.
        let g = geometric_mean(&[1.0, 0.0, 4.0, -3.0, f64::INFINITY, f64::NAN]);
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_of_empty_is_neutral() {
        assert_eq!(geometric_mean(&[]), 1.0);
        assert_eq!(geometric_mean(&[0.0, -1.0]), 1.0);
        assert!(geometric_mean(&[f64::NAN]).is_finite());
    }

    #[test]
    fn add_stall_cycles_bulk_matches_recording() {
        let mut a = CoreStats::new();
        for _ in 0..5 {
            a.record_stall(StallCause::LogQFull);
        }
        let mut b = CoreStats::new();
        b.add_stall_cycles(StallCause::LogQFull, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn cache_hit_rate() {
        let mut c = CacheStats::default();
        assert_eq!(c.hit_rate_pct(), None);
        c.hits = 3;
        c.misses = 1;
        assert_eq!(c.hit_rate_pct(), Some(75.0));
    }

    #[test]
    fn core_merge_saturates_instead_of_wrapping() {
        let mut a = CoreStats::new();
        a.uops_retired = u64::MAX - 1;
        a.transactions = u64::MAX;
        a.add_stall_cycles(StallCause::RobFull, u64::MAX);
        let mut b = CoreStats::new();
        b.uops_retired = 10;
        b.transactions = 3;
        b.add_stall_cycles(StallCause::RobFull, 7);
        a.merge(&b);
        assert_eq!(a.uops_retired, u64::MAX);
        assert_eq!(a.transactions, u64::MAX);
        assert_eq!(a.stall(StallCause::RobFull), u64::MAX);
        assert_eq!(a.total_stall_cycles(), u64::MAX); // sum over slots is itself a plain sum
    }

    #[test]
    fn mem_merge_saturates_instead_of_wrapping() {
        let mut a = MemStats::new();
        a.nvmm_reads = u64::MAX;
        a.read_queue_wait_cycles = u64::MAX - 5;
        a.wpq_peak_occupancy = 9;
        let mut b = MemStats::new();
        b.nvmm_reads = 1;
        b.read_queue_wait_cycles = 100;
        b.wpq_peak_occupancy = 4;
        a.merge(&b);
        assert_eq!(a.nvmm_reads, u64::MAX);
        assert_eq!(a.read_queue_wait_cycles, u64::MAX);
        assert_eq!(a.wpq_peak_occupancy, 9); // peaks still take the max
    }

    #[test]
    fn log2_histogram_bucketing() {
        let mut h = Log2Histogram::new();
        for v in [0, 0, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets()[0], 2); // zeros
        assert_eq!(h.buckets()[1], 1); // v == 1
        assert_eq!(h.buckets()[2], 2); // 2..=3
        assert_eq!(h.buckets()[3], 2); // 4..=7
        assert_eq!(h.buckets()[4], 1); // 8..=15
        assert_eq!(h.buckets()[Log2Histogram::BUCKETS - 1], 1); // open-ended tail
    }

    #[test]
    fn log2_histogram_floors_and_render() {
        assert_eq!(Log2Histogram::bucket_floor(0), 0);
        assert_eq!(Log2Histogram::bucket_floor(1), 1);
        assert_eq!(Log2Histogram::bucket_floor(2), 2);
        assert_eq!(Log2Histogram::bucket_floor(5), 16);
        let mut h = Log2Histogram::new();
        assert_eq!(h.render(), "empty");
        assert_eq!(h.mean(), None);
        h.record(0);
        h.record(5);
        h.record(6);
        assert_eq!(h.render(), "[0]:1 [4-7]:2");
        assert!((h.mean().unwrap() - 11.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn log2_histogram_quantile_bounds() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.quantile_bound(0.5), None);
        for v in [0, 0, 0, 0, 0, 0, 0, 0, 0, 100] {
            h.record(v);
        }
        // Nine of ten samples are zero: every quantile up to 0.9 resolves
        // to the zero bucket, whose upper bound is 0.
        assert_eq!(h.quantile_bound(0.0), Some(0));
        assert_eq!(h.quantile_bound(0.5), Some(0));
        assert_eq!(h.quantile_bound(0.9), Some(0));
        // The tail sample (100) lives in bucket [64-127].
        assert_eq!(h.quantile_bound(0.99), Some(127));
        assert_eq!(h.quantile_bound(1.0), Some(127));
        // Out-of-range q is clamped.
        assert_eq!(h.quantile_bound(7.0), Some(127));
        // A sample in the open-ended top bucket bounds at the observed max.
        let mut t = Log2Histogram::new();
        t.record(u64::MAX - 17);
        assert_eq!(t.quantile_bound(1.0), Some(u64::MAX - 17));
    }

    #[test]
    fn log2_histogram_merge_and_saturation() {
        let mut a = Log2Histogram::new();
        a.record(u64::MAX);
        a.record(u64::MAX); // sum saturates
        assert_eq!(a.sum(), u64::MAX);
        let mut b = Log2Histogram::new();
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), u64::MAX);
        assert_eq!(a.buckets()[2], 1);
    }

    #[test]
    fn stall_causes_all_distinct_slots() {
        let mut seen = std::collections::HashSet::new();
        for c in StallCause::ALL {
            assert!(seen.insert(c.slot()));
        }
    }
}
