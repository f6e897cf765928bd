//! System configuration, including the paper's Table 1 baseline.
//!
//! [`SystemConfig::skylake_like`] reproduces the configuration the paper
//! evaluated on: a 3.4 GHz quad-core 5-wide out-of-order processor with a
//! three-level cache hierarchy over a single-channel DDR3-1600 memory system
//! whose timing is re-parameterised for NVM latencies.

use crate::clock::Cycle;

/// Out-of-order core parameters (Table 1, "Processor" row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Core clock in MHz (3400 = 3.4 GHz).
    pub freq_mhz: u64,
    /// Dispatch/issue/retire width.
    pub width: usize,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Fetch queue entries.
    pub fetchq_entries: usize,
    /// Issue queue entries.
    pub issueq_entries: usize,
    /// Load queue entries.
    pub loadq_entries: usize,
    /// Store queue entries (stores stay queued from dispatch until released
    /// to the cache, which may be after retirement).
    pub storeq_entries: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            freq_mhz: 3400,
            width: 5,
            rob_entries: 224,
            fetchq_entries: 48,
            issueq_entries: 64,
            loadq_entries: 72,
            storeq_entries: 56,
        }
    }
}

/// One cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Access latency in CPU cycles (hit latency, load-to-use).
    pub latency: Cycle,
}

impl CacheLevelConfig {
    /// Number of sets for 64 B lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly, which indicates a
    /// misconfiguration.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / crate::addr::CACHE_LINE_SIZE;
        let sets = lines as usize / self.ways;
        assert_eq!(
            sets as u64 * self.ways as u64 * crate::addr::CACHE_LINE_SIZE,
            self.size_bytes,
            "cache geometry must divide evenly"
        );
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// The three-level hierarchy (Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Private per-core L1 data cache.
    pub l1d: CacheLevelConfig,
    /// Private per-core L2.
    pub l2: CacheLevelConfig,
    /// Shared L3.
    pub l3: CacheLevelConfig,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            l1d: CacheLevelConfig { size_bytes: 32 * 1024, ways: 8, latency: 4 },
            l2: CacheLevelConfig { size_bytes: 256 * 1024, ways: 8, latency: 12 },
            l3: CacheLevelConfig { size_bytes: 8 * 1024 * 1024, ways: 16, latency: 42 },
        }
    }
}

/// DDR3-style bank timing in *memory-clock* cycles (800 MHz for DDR3-1600).
///
/// Field names follow the JEDEC parameters in Table 1:
/// `tCAS-tRCD-tRP-tRAS-tRC-tWR-tWTR-tRTP-tRRD-tFAW = 11-11-11-28-39-12-6-6-5-24`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramTiming {
    /// Column access strobe latency.
    pub t_cas: u64,
    /// Row-to-column delay for reads (activation latency).
    pub t_rcd_read: u64,
    /// Row-to-column delay for writes. Equal to `t_rcd_read` on DRAM; the
    /// NVM models raise it to express the slow NVM write path (paper §5.1
    /// increases tRCD to 29 for reads and 109 for writes).
    pub t_rcd_write: u64,
    /// Row precharge time.
    pub t_rp: u64,
    /// Row active time.
    pub t_ras: u64,
    /// Row cycle time.
    pub t_rc: u64,
    /// Write recovery time.
    pub t_wr: u64,
    /// Write-to-read turnaround.
    pub t_wtr: u64,
    /// Read-to-precharge delay.
    pub t_rtp: u64,
    /// Activate-to-activate delay (different banks).
    pub t_rrd: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// Data burst length in memory cycles (BL8 on a x64 channel: 4 cycles).
    pub t_burst: u64,
}

impl DramTiming {
    /// DDR3-1600 timing from Table 1.
    pub fn ddr3_1600() -> Self {
        DramTiming {
            t_cas: 11,
            t_rcd_read: 11,
            t_rcd_write: 11,
            t_rp: 11,
            t_ras: 28,
            t_rc: 39,
            t_wr: 12,
            t_wtr: 6,
            t_rtp: 6,
            t_rrd: 5,
            t_faw: 24,
            t_burst: 4,
        }
    }

    /// Fast NVM from §5.1: tRCD 29 for reads, 109 for writes
    /// (≈50 ns read, ≈150 ns write at 800 MHz).
    pub fn nvm_fast() -> Self {
        DramTiming { t_rcd_read: 29, t_rcd_write: 109, ..Self::ddr3_1600() }
    }

    /// Slow NVM from §7.1: write latency raised to ≈300 ns
    /// (tRCD_write ≈ 229 memory cycles), read kept at ≈50 ns.
    pub fn nvm_slow() -> Self {
        DramTiming { t_rcd_read: 29, t_rcd_write: 229, ..Self::ddr3_1600() }
    }
}

/// Memory technology selector for an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemTech {
    /// Battery-backed DRAM (NVDIMM study, Fig. 10).
    Dram,
    /// Fast NVM: 50 ns read / 150 ns write (Figs. 6-8).
    NvmFast,
    /// Slow NVM: 50 ns read / 300 ns write (Fig. 9).
    NvmSlow,
}

impl MemTech {
    /// The bank timing for this technology.
    pub fn timing(self) -> DramTiming {
        match self {
            MemTech::Dram => DramTiming::ddr3_1600(),
            MemTech::NvmFast => DramTiming::nvm_fast(),
            MemTech::NvmSlow => DramTiming::nvm_slow(),
        }
    }

    /// Short label used in experiment reports.
    pub fn label(self) -> &'static str {
        match self {
            MemTech::Dram => "dram",
            MemTech::NvmFast => "nvm-fast",
            MemTech::NvmSlow => "nvm-slow",
        }
    }
}

/// Memory-system organisation (Table 1, "DRAM" row) and controller queues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Technology (timing preset).
    pub tech: MemTech,
    /// Number of banks per rank.
    pub banks: usize,
    /// Row-buffer size in bytes.
    pub row_buffer_bytes: u64,
    /// Read queue entries at the memory controller.
    pub read_queue_entries: usize,
    /// Write pending queue entries. With ADR the WPQ is in the persistency
    /// domain, so writes are durable on WPQ arrival.
    pub wpq_entries: usize,
    /// Log pending queue entries (Proteus only; Table 1: 256).
    pub lpq_entries: usize,
    /// Whether the memory controller is inside the persistency domain
    /// (Intel ADR). When false, durability requires NVMM writeback and
    /// `pcommit` must drain the WPQ.
    pub adr: bool,
    /// WPQ occupancy (fraction of entries, in percent) above which the
    /// arbiter starts draining writes aggressively.
    pub wpq_high_watermark_pct: u8,
    /// WPQ occupancy below which draining stops (hysteresis).
    pub wpq_low_watermark_pct: u8,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            tech: MemTech::NvmFast,
            banks: 16,
            row_buffer_bytes: 2048,
            read_queue_entries: 64,
            wpq_entries: 64,
            lpq_entries: 256,
            adr: true,
            wpq_high_watermark_pct: 75,
            wpq_low_watermark_pct: 25,
        }
    }
}

/// Proteus core-side hardware structures (Table 1, "Proteus" row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProteusHwConfig {
    /// Log registers (LR file): entries available for in-flight
    /// `log-load`/`log-flush` pairs.
    pub log_registers: usize,
    /// LogQ entries: maximum concurrent `log-flush` operations.
    pub logq_entries: usize,
    /// Log Lookup Table entries.
    pub llt_entries: usize,
    /// LLT associativity.
    pub llt_ways: usize,
    /// Test-only fault-injection knob: a Proteus core with this flag set
    /// releases retired stores without waiting for their undo log entries
    /// to be acknowledged, and buffers ready log flushes locally until the
    /// transaction's commit fence — the classic write-ahead-logging
    /// violation ("defer the log to commit"). `proteus-crash` uses it to
    /// prove the consistency checker detects broken persist ordering.
    /// Never enable it for performance experiments.
    pub disable_persist_ordering: bool,
}

impl Default for ProteusHwConfig {
    fn default() -> Self {
        ProteusHwConfig {
            log_registers: 8,
            logq_entries: 16,
            llt_entries: 64,
            llt_ways: 8,
            disable_persist_ordering: false,
        }
    }
}

/// The logging scheme exercised by a run (§6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoggingSchemeKind {
    /// Software undo logging with PMEM instructions (clwb + sfence), the
    /// speedup baseline. ADR applies: clwb completes at the WPQ.
    SwPmem,
    /// Software logging where every persist additionally issues `pcommit`,
    /// forcing WPQ drain to NVMM (the deprecated pre-ADR regime).
    SwPmemPcommit,
    /// Logging removed entirely — not failure-safe, the ideal upper bound.
    NoLog,
    /// ATOM hardware undo logging with posted-log and source-log
    /// optimisations: log entries are created at store retirement and the
    /// store is held until the MC acknowledges the log entry.
    Atom,
    /// Proteus software-supported hardware logging with log write removal
    /// (LogQ + LLT + LPQ + flash clear at tx-end).
    Proteus,
    /// Proteus with log write removal disabled: log flushes drain to NVMM
    /// like ordinary writes.
    ProteusNoLwr,
    /// In-cache-line logging (Cohen et al., ASPLOS'19): the undo entry
    /// for a single-word line mutation lives in a reserved word of the
    /// mutated line itself, with an external-entry fallback for wider
    /// updates.
    Incll,
}

impl LoggingSchemeKind {
    /// All schemes in the order the figures present them.
    ///
    /// Behavioural properties of each scheme (expansion, recovery, core
    /// policy, drain mode, rosters) live in the descriptor registry,
    /// `proteus_core::scheme::registry` — this enum stays a pure
    /// identifier plus its presentation label.
    pub const ALL: [LoggingSchemeKind; 7] = [
        LoggingSchemeKind::SwPmem,
        LoggingSchemeKind::SwPmemPcommit,
        LoggingSchemeKind::Atom,
        LoggingSchemeKind::ProteusNoLwr,
        LoggingSchemeKind::Proteus,
        LoggingSchemeKind::Incll,
        LoggingSchemeKind::NoLog,
    ];

    /// Label used in reports (matches the paper's legend). Also the
    /// stable-hash identity of the scheme (see `crate::hash`), so adding
    /// schemes never perturbs existing spec hashes.
    pub fn label(self) -> &'static str {
        match self {
            LoggingSchemeKind::SwPmem => "PMEM",
            LoggingSchemeKind::SwPmemPcommit => "PMEM+pcommit",
            LoggingSchemeKind::NoLog => "PMEM+nolog",
            LoggingSchemeKind::Atom => "ATOM",
            LoggingSchemeKind::Proteus => "Proteus",
            LoggingSchemeKind::ProteusNoLwr => "Proteus+NoLWR",
            LoggingSchemeKind::Incll => "InCLL",
        }
    }
}

/// Cycle-engine execution knobs.
///
/// Deliberately **not** a [`SystemConfig`] field: the engine mode
/// changes how fast wall-clock time passes, never what is simulated, so
/// keeping it out of `SystemConfig` guarantees spec hashes and
/// `RunSummary` outputs are byte-identical across modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Skip quiescent windows by advancing `now` straight to the next
    /// component wakeup instead of spinning empty ticks, and, between
    /// such windows, stop ticking each core that cannot make progress
    /// until its wake cycle, an event for it, or a cache change it can
    /// observe (per-core sleep). Cycle-exact by construction (see
    /// DESIGN.md §6); disable only to cross-validate.
    pub fast_forward: bool,
}

impl Default for EngineConfig {
    /// Fast-forward on.
    fn default() -> Self {
        EngineConfig { fast_forward: true }
    }
}

/// Complete system configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of cores.
    pub num_cores: usize,
    /// Per-core parameters.
    pub cores: CoreConfig,
    /// Cache hierarchy.
    pub caches: CacheConfig,
    /// Memory system and controller.
    pub mem: MemConfig,
    /// Proteus hardware structures.
    pub proteus: ProteusHwConfig,
}

impl SystemConfig {
    /// The paper's Table 1 configuration: quad-core Skylake-like processor
    /// over fast NVM.
    pub fn skylake_like() -> Self {
        SystemConfig {
            num_cores: 4,
            cores: CoreConfig::default(),
            caches: CacheConfig::default(),
            mem: MemConfig::default(),
            proteus: ProteusHwConfig::default(),
        }
    }

    /// Returns the configuration with a different memory technology.
    pub fn with_mem_tech(mut self, tech: MemTech) -> Self {
        self.mem.tech = tech;
        self
    }

    /// Returns the configuration with a different LogQ size (Fig. 11 sweep).
    pub fn with_logq_entries(mut self, entries: usize) -> Self {
        self.proteus.logq_entries = entries;
        self
    }

    /// Returns the configuration with a different LPQ size (Fig. 12 sweep).
    pub fn with_lpq_entries(mut self, entries: usize) -> Self {
        self.mem.lpq_entries = entries;
        self
    }

    /// Returns the configuration with a different LLT size.
    pub fn with_llt_entries(mut self, entries: usize, ways: usize) -> Self {
        self.proteus.llt_entries = entries;
        self.proteus.llt_ways = ways;
        self
    }

    /// Returns the configuration with a different core count.
    pub fn with_num_cores(mut self, n: usize) -> Self {
        self.num_cores = n;
        self
    }

    /// Returns the configuration with the Proteus write-ahead gate broken
    /// (see [`ProteusHwConfig::disable_persist_ordering`]). Test-only.
    pub fn with_disable_persist_ordering(mut self, broken: bool) -> Self {
        self.proteus.disable_persist_ordering = broken;
        self
    }

    /// Scales the L2 and L3 capacities down by `divisor` (a power of two)
    /// — the standard simulator-downscaling methodology: when a workload
    /// is run at 1/N of its paper size, shrinking the large caches by the
    /// same factor preserves the working-set-to-cache ratio and thus the
    /// miss behaviour that the paper's DRAM-bound baselines exhibit.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is not a power of two.
    pub fn with_cache_divisor(mut self, divisor: u64) -> Self {
        assert!(divisor.is_power_of_two(), "cache divisor must be a power of two");
        self.caches.l2.size_bytes = (self.caches.l2.size_bytes / divisor).max(16 * 1024);
        self.caches.l3.size_bytes = (self.caches.l3.size_bytes / divisor).max(128 * 1024);
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("num_cores must be at least 1".into());
        }
        if self.cores.width == 0 {
            return Err("core width must be at least 1".into());
        }
        if self.proteus.llt_ways == 0
            || !self.proteus.llt_entries.is_multiple_of(self.proteus.llt_ways)
        {
            return Err(format!(
                "LLT entries ({}) must divide evenly by ways ({})",
                self.proteus.llt_entries, self.proteus.llt_ways
            ));
        }
        if self.mem.wpq_low_watermark_pct >= self.mem.wpq_high_watermark_pct {
            return Err("WPQ low watermark must be below high watermark".into());
        }
        if self.proteus.logq_entries == 0 || self.proteus.log_registers == 0 {
            return Err("LogQ and LR sizes must be at least 1".into());
        }
        for (name, lvl) in
            [("l1d", &self.caches.l1d), ("l2", &self.caches.l2), ("l3", &self.caches.l3)]
        {
            let lines = lvl.size_bytes / crate::addr::CACHE_LINE_SIZE;
            if lvl.ways == 0 || !(lines as usize).is_multiple_of(lvl.ways) {
                return Err(format!("{name}: geometry does not divide evenly"));
            }
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::skylake_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_preset_matches_paper() {
        let cfg = SystemConfig::skylake_like();
        assert_eq!(cfg.num_cores, 4);
        assert_eq!(cfg.cores.width, 5);
        assert_eq!(cfg.cores.rob_entries, 224);
        assert_eq!(cfg.cores.loadq_entries, 72);
        assert_eq!(cfg.cores.storeq_entries, 56);
        assert_eq!(cfg.caches.l1d.latency, 4);
        assert_eq!(cfg.caches.l2.latency, 12);
        assert_eq!(cfg.caches.l3.latency, 42);
        assert_eq!(cfg.proteus.log_registers, 8);
        assert_eq!(cfg.proteus.logq_entries, 16);
        assert_eq!(cfg.proteus.llt_entries, 64);
        assert_eq!(cfg.mem.lpq_entries, 256);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn cache_geometry() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.l1d.sets(), 64);
        assert_eq!(cfg.l2.sets(), 512);
        assert_eq!(cfg.l3.sets(), 8192);
    }

    #[test]
    fn nvm_timing_presets() {
        let fast = DramTiming::nvm_fast();
        assert_eq!(fast.t_rcd_read, 29);
        assert_eq!(fast.t_rcd_write, 109);
        let slow = DramTiming::nvm_slow();
        assert_eq!(slow.t_rcd_write, 229);
        assert_eq!(slow.t_rcd_read, 29);
        let dram = DramTiming::ddr3_1600();
        assert_eq!(dram.t_cas, 11);
        assert_eq!(dram.t_rcd_write, 11);
    }

    #[test]
    fn builder_methods() {
        let cfg = SystemConfig::skylake_like()
            .with_mem_tech(MemTech::Dram)
            .with_logq_entries(8)
            .with_lpq_entries(128)
            .with_llt_entries(32, 8)
            .with_num_cores(2);
        assert_eq!(cfg.mem.tech, MemTech::Dram);
        assert_eq!(cfg.proteus.logq_entries, 8);
        assert_eq!(cfg.mem.lpq_entries, 128);
        assert_eq!(cfg.proteus.llt_entries, 32);
        assert_eq!(cfg.num_cores, 2);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn cache_divisor_scales_l2_l3_only() {
        let cfg = SystemConfig::skylake_like().with_cache_divisor(8);
        assert_eq!(cfg.caches.l1d.size_bytes, 32 * 1024, "L1 untouched");
        assert_eq!(cfg.caches.l2.size_bytes, 32 * 1024);
        assert_eq!(cfg.caches.l3.size_bytes, 1024 * 1024);
        assert!(cfg.validate().is_ok());
        // Floors hold for extreme divisors.
        let tiny = SystemConfig::skylake_like().with_cache_divisor(1 << 20);
        assert_eq!(tiny.caches.l2.size_bytes, 16 * 1024);
        assert_eq!(tiny.caches.l3.size_bytes, 128 * 1024);
        assert!(tiny.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn cache_divisor_rejects_non_power_of_two() {
        let _ = SystemConfig::skylake_like().with_cache_divisor(3);
    }

    #[test]
    fn validation_catches_bad_geometry() {
        let mut cfg = SystemConfig::skylake_like();
        cfg.proteus.llt_ways = 7;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::skylake_like();
        cfg.num_cores = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::skylake_like();
        cfg.mem.wpq_low_watermark_pct = 90;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn scheme_labels_are_unique() {
        assert_eq!(LoggingSchemeKind::Proteus.label(), "Proteus");
        assert_eq!(LoggingSchemeKind::Incll.label(), "InCLL");
        assert_eq!(LoggingSchemeKind::ALL.len(), 7);
        let labels: std::collections::HashSet<_> =
            LoggingSchemeKind::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), LoggingSchemeKind::ALL.len());
    }
}
