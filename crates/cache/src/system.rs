//! The full hierarchy: per-core L1/L2 stacks over a shared L3.
//!
//! Hits at a lower level promote the line into the upper levels (fill
//! path); evictions cascade downward, and dirty lines evicted from the L3
//! surface as write-backs bound for the memory controller.
//!
//! The paper's headline workloads partition data structures across
//! threads behind locks, so for them no inter-core coherence traffic
//! exists and no line is written by more than one core. Contended
//! workloads share lines inside the static coherence domain
//! (`proteus_types::sharing`), and only for those addresses the
//! `proteus-coherence` protocol kicks in: loads snoop remote private
//! stacks for a dirty owner (ownership transfer through the shared L3),
//! stores read-for-ownership and invalidate every remote copy. Accesses
//! outside the domain take the historical path bit for bit.

use crate::cache::{Cache, EvictedLine};
use proteus_coherence::{dirty_owner, CoherenceCtrl, CoherenceEvent};
use proteus_core::pmem::LineData;
use proteus_trace::{CacheLevel, Tracer};
use proteus_types::addr::LineAddr;
use proteus_types::clock::Cycle;
use proteus_types::config::{CacheConfig, SystemConfig};
use proteus_types::sharing::in_coherence_domain;
use proteus_types::stats::{CacheStats, CoherenceStats};
use proteus_types::{Addr, CoreId};

/// Outcome of a cache access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LookupResult {
    /// The line was found at some level; `latency` is the load-to-use
    /// latency of that level and `data` the line contents.
    Hit {
        /// Access latency in CPU cycles.
        latency: Cycle,
        /// Line contents after the access.
        data: LineData,
    },
    /// The line is not cached; the caller must fetch it from memory and
    /// call [`CacheSystem::fill`].
    Miss,
}

/// A dirty line headed for the memory controller.
pub type Writeback = (LineAddr, LineData);

/// The cache interface a core's tick path needs. `Core` is generic over
/// it, so a caller can interpose on every access the pipeline makes
/// (for example to count or time hierarchy calls) while running the
/// identical pipeline code; [`CacheSystem`] is the real hierarchy.
pub trait CacheAccess {
    /// Load the line containing `addr`; see [`CacheSystem::load`].
    fn load(&mut self, core: CoreId, addr: Addr, writebacks: &mut Vec<Writeback>) -> LookupResult;
    /// Store `value` at `addr`; see [`CacheSystem::store`].
    fn store(
        &mut self,
        core: CoreId,
        addr: Addr,
        value: u64,
        writebacks: &mut Vec<Writeback>,
    ) -> LookupResult;
    /// Flush the freshest dirty copy of `addr`'s line; see
    /// [`CacheSystem::clwb`].
    fn clwb(&mut self, core: CoreId, addr: Addr) -> Option<LineData>;
    /// Install a memory fill; see [`CacheSystem::fill`].
    fn fill(
        &mut self,
        core: CoreId,
        line: LineAddr,
        data: LineData,
        writebacks: &mut Vec<Writeback>,
    );
    /// Non-mutating freshest-copy probe; see [`CacheSystem::peek`].
    fn peek(&self, core: CoreId, addr: Addr) -> Option<LineData>;
}

/// The system's cache hierarchy.
#[derive(Debug)]
pub struct CacheSystem {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    cfg: CacheConfig,
    coherence: CoherenceCtrl,
    /// See [`CacheSystem::epoch`].
    epoch: u64,
}

impl CacheSystem {
    /// Builds the hierarchy for `cfg.num_cores` cores.
    pub fn new(cfg: &SystemConfig) -> Self {
        CacheSystem {
            l1: (0..cfg.num_cores).map(|_| Cache::new(&cfg.caches.l1d)).collect(),
            l2: (0..cfg.num_cores).map(|_| Cache::new(&cfg.caches.l2)).collect(),
            l3: Cache::new(&cfg.caches.l3),
            coherence: CoherenceCtrl::new(cfg.caches.l3.latency),
            cfg: cfg.caches.clone(),
            epoch: 0,
        }
    }

    /// A counter that moves whenever one core may have changed what
    /// another core's [`CacheSystem::peek`] returns: every change to a
    /// shared-L3 line (insert, eviction, data update, clean) and every
    /// change to a coherence-domain line (store, invalidation, ownership
    /// transfer, flush, promotion into a private cache). A core's private
    /// copies of other lines are invisible to every other core, and LRU
    /// refreshes and statistics change no `peek`, so neither moves it.
    /// The simulator's per-core sleep (DESIGN.md §6) wakes a sleeping
    /// core when this counter has moved since it fell asleep.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Inserts into the shared L3: every L3 insert can change what a
    /// `peek` of the inserted or the evicted line returns.
    fn l3_insert(&mut self, line: LineAddr, data: LineData, dirty: bool) -> Option<EvictedLine> {
        self.epoch += 1;
        self.l3.insert(line, data, dirty)
    }

    /// Number of cores served.
    pub fn num_cores(&self) -> usize {
        self.l1.len()
    }

    /// Performs a load of the line containing `addr` for `core`.
    /// On a hit the line is promoted to the L1; evictions caused by the
    /// promotion are appended to `writebacks`.
    pub fn load(
        &mut self,
        core: CoreId,
        addr: Addr,
        writebacks: &mut Vec<Writeback>,
    ) -> LookupResult {
        let line = addr.line();
        let c = core.index();
        if let Some(data) = self.l1[c].lookup(line) {
            return LookupResult::Hit { latency: self.cfg.l1d.latency, data };
        }
        let shared = in_coherence_domain(addr);
        if shared {
            // Every hit below puts a copy of the line in this core's
            // private stack, and a transfer cleans the owner's.
            self.epoch += 1;
        }
        if let Some(data) = self.l2[c].lookup(line) {
            let dirty = self.l2[c].is_dirty(line);
            self.promote_to_l1(c, line, data, dirty, writebacks);
            return LookupResult::Hit { latency: self.cfg.l2.latency, data };
        }
        // Shared lines: a remote private dirty copy is fresher than the
        // L3, so the snoop scan must run before the L3 probe.
        if shared {
            if let Some(owner) = self.remote_dirty_owner(c, line) {
                let data = self.transfer_ownership(owner, c, line, writebacks);
                return LookupResult::Hit { latency: self.coherence.transfer_latency(), data };
            }
        }
        if let Some(data) = self.l3.lookup(line) {
            let dirty = self.l3.is_dirty(line);
            self.promote_to_l1(c, line, data, dirty, writebacks);
            return LookupResult::Hit { latency: self.cfg.l3.latency, data };
        }
        if shared {
            self.coherence.note_domain_miss();
        }
        LookupResult::Miss
    }

    /// The core holding a dirty copy of `line` in its private stack,
    /// excluding `requester`.
    fn remote_dirty_owner(&self, requester: usize, line: LineAddr) -> Option<usize> {
        dirty_owner(
            (0..self.l1.len()).filter(|&i| i != requester).map(|i| (i, [&self.l1[i], &self.l2[i]])),
            line,
        )
    }

    /// Moves `line`'s dirty data from `owner`'s private stack to
    /// `requester`: the owner's copies are cleaned in place, the dirty
    /// data lands in the shared L3 (it stays the freshest persistent
    /// copy), and the requester receives a clean private copy.
    fn transfer_ownership(
        &mut self,
        owner: usize,
        requester: usize,
        line: LineAddr,
        writebacks: &mut Vec<Writeback>,
    ) -> LineData {
        let data = self.l1[owner]
            .clean_for_transfer(line)
            .or_else(|| self.l2[owner].clean_for_transfer(line))
            .expect("snoop scan found a dirty owner");
        // A stale clean shadow below the dirty copy must also refresh,
        // or its later eviction could expose old contents.
        self.l2[owner].update_if_present(line, data);
        self.spill_to_l3(line, data, writebacks);
        self.promote_to_l1(requester, line, data, false, writebacks);
        self.coherence.note_transfer(
            line,
            CoreId::new(owner as u32),
            CoreId::new(requester as u32),
        );
        data
    }

    /// Read-for-ownership completion: removes every remote copy of
    /// `line` so the writer's L1 copy is the only one.
    fn invalidate_remote(&mut self, writer: usize, line: LineAddr) {
        for i in 0..self.l1.len() {
            if i == writer {
                continue;
            }
            let removed =
                self.l1[i].invalidate(line).is_some() | self.l2[i].invalidate(line).is_some();
            if removed {
                self.coherence.note_invalidate(
                    line,
                    CoreId::new(i as u32),
                    CoreId::new(writer as u32),
                );
            }
        }
    }

    /// Performs a store of `value` at `addr` for `core` (write-allocate:
    /// the caller fetches on a miss and retries). On a hit the word is
    /// merged and the L1 copy dirtied.
    pub fn store(
        &mut self,
        core: CoreId,
        addr: Addr,
        value: u64,
        writebacks: &mut Vec<Writeback>,
    ) -> LookupResult {
        match self.load(core, addr, writebacks) {
            LookupResult::Hit { latency, mut data } => {
                // Shared lines: the store completes a read-for-ownership —
                // every remote copy disappears before the write, leaving
                // the writer's L1 copy the single (modified) one.
                if in_coherence_domain(addr) {
                    self.epoch += 1;
                    self.invalidate_remote(core.index(), addr.line());
                }
                let ok = self.l1[core.index()].write_word(addr, value);
                debug_assert!(ok, "load promoted the line into L1");
                data[(addr.line_offset() / 8) as usize] = value;
                LookupResult::Hit { latency, data }
            }
            LookupResult::Miss => LookupResult::Miss,
        }
    }

    /// Installs a line fetched from memory into all levels for `core`.
    /// Returns eviction write-backs for the memory controller.
    pub fn fill(
        &mut self,
        core: CoreId,
        line: LineAddr,
        data: LineData,
        writebacks: &mut Vec<Writeback>,
    ) {
        let c = core.index();
        // Shared lines: a fill races the coherence protocol — if any
        // cache acquired a dirty copy while this fetch was in flight, the
        // memory data is stale and must not install (a stale clean copy
        // in the requester's L1 would shadow the fresh remote dirty copy
        // from its own snoop scans, and the L3 insert would clobber a
        // transferred dirty line). The requester retries through the
        // coherent lookup path instead.
        if in_coherence_domain(line.base())
            && (self.l3.is_dirty(line)
                || (0..self.l1.len())
                    .any(|i| self.l1[i].is_dirty(line) || self.l2[i].is_dirty(line)))
        {
            return;
        }
        if let Some(ev) = self.l3_insert(line, data, false) {
            if ev.dirty {
                writebacks.push((ev.line, ev.data));
            }
        }
        self.promote_to_l1(c, line, data, false, writebacks);
    }

    fn promote_to_l1(
        &mut self,
        core: usize,
        line: LineAddr,
        data: LineData,
        dirty: bool,
        writebacks: &mut Vec<Writeback>,
    ) {
        if let Some(ev) = self.l1[core].insert(line, data, dirty) {
            if ev.dirty {
                self.spill_to_l2(core, ev.line, ev.data, writebacks);
            }
        }
    }

    fn spill_to_l2(
        &mut self,
        core: usize,
        line: LineAddr,
        data: LineData,
        writebacks: &mut Vec<Writeback>,
    ) {
        if let Some(ev) = self.l2[core].insert(line, data, true) {
            if ev.dirty {
                self.spill_to_l3(ev.line, ev.data, writebacks);
            }
        }
    }

    fn spill_to_l3(&mut self, line: LineAddr, data: LineData, writebacks: &mut Vec<Writeback>) {
        if let Some(ev) = self.l3_insert(line, data, true) {
            if ev.dirty {
                writebacks.push((ev.line, ev.data));
            }
        }
    }

    /// The `clwb` flush path: cleans the freshest dirty copy of the line
    /// (searching L1, then L2, then L3) and returns its data for the WPQ.
    /// Returns `None` when no dirty copy exists (the flush is a no-op).
    pub fn clwb(&mut self, core: CoreId, addr: Addr) -> Option<LineData> {
        let line = addr.line();
        let c = core.index();
        if in_coherence_domain(addr) {
            // Other cores snoop dirty private copies of shared lines;
            // cleaning one changes what they see.
            self.epoch += 1;
        }
        if let Some(data) = self.l1[c].clean(line) {
            // The flush passes through the hierarchy: lower-level shadow
            // copies receive the fresh data (and become clean), so a
            // later clean eviction of the L1 copy cannot expose stale
            // contents.
            self.l2[c].update_if_present(line, data);
            self.l3_update(line, data);
            return Some(data);
        }
        if let Some(data) = self.l2[c].clean(line) {
            self.l3_update(line, data);
            return Some(data);
        }
        let data = self.l3.clean(line)?;
        self.epoch += 1;
        Some(data)
    }

    /// Writes fresh data through to a resident L3 copy (see
    /// [`CacheSystem::epoch`]).
    fn l3_update(&mut self, line: LineAddr, data: LineData) {
        if self.l3.update_if_present(line, data) {
            self.epoch += 1;
        }
    }

    /// Non-mutating presence check: returns the freshest cached copy of
    /// the line without touching LRU state or statistics. Used by the
    /// ATOM engine to capture pre-store data when the line happens to be
    /// cached (on a miss, the memory controller sources the log entry
    /// itself — the source-log optimisation).
    pub fn peek(&self, core: CoreId, addr: Addr) -> Option<LineData> {
        let line = addr.line();
        let c = core.index();
        if self.l1[c].contains(line) {
            return self.l1[c].peek_data(line);
        }
        if self.l2[c].contains(line) {
            return self.l2[c].peek_data(line);
        }
        // Shared lines: a remote dirty copy is fresher than the L3 (the
        // read-only half of the coherent load path; `wait-value` lock
        // probes ride on this).
        if in_coherence_domain(addr) {
            if let Some(owner) = self.remote_dirty_owner(c, line) {
                let fresh =
                    self.l1[owner].peek_data(line).or_else(|| self.l2[owner].peek_data(line));
                debug_assert!(fresh.is_some(), "dirty owner must hold the line");
                return fresh;
            }
        }
        self.l3.peek_data(line)
    }

    /// Feeds `tracer` the cumulative hit/miss counts per level at every
    /// sampling grid point through `now` it has not seen, which the
    /// counts held since its last sample. The (relatively expensive)
    /// cross-core aggregation only runs when a sample is actually due.
    pub fn trace_sample(&self, tracer: &mut Tracer, now: Cycle) {
        if !tracer.sample_due(now) {
            return;
        }
        let (l1, l2, l3) = self.stats();
        tracer.sample_cache(
            now,
            &[
                (CacheLevel::L1d, l1.hits, l1.misses),
                (CacheLevel::L2, l2.hits, l2.misses),
                (CacheLevel::L3, l3.hits, l3.misses),
            ],
        );
    }

    /// Installs a line into the shared L3 before the run starts (clean;
    /// no statistics, no evictions expected in an empty cache). The
    /// simulator preloads lock-word lines of sharing workloads so the
    /// first ticket probe finds them cached instead of cold-polling
    /// memory.
    pub fn preload(&mut self, line: LineAddr, data: LineData) {
        let ev = self.l3_insert(line, data, false);
        debug_assert!(ev.is_none(), "preload runs on an empty cache");
    }

    /// Cache-side coherence statistics (invalidations, transfers,
    /// domain misses; `lock_acquires` is a core-side counter).
    pub fn coherence_stats(&self) -> &CoherenceStats {
        self.coherence.stats()
    }

    /// Enables coherence event capture for the tracer (off by default).
    pub fn enable_coherence_events(&mut self) {
        self.coherence.enable_events();
    }

    /// Takes the coherence events captured since the last drain.
    pub fn drain_coherence_events(&mut self) -> Vec<CoherenceEvent> {
        self.coherence.drain_events()
    }

    /// Aggregated statistics: (L1 over all cores, L2 over all cores, L3).
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        let mut l1 = CacheStats::default();
        for c in &self.l1 {
            l1.merge(c.stats());
        }
        let mut l2 = CacheStats::default();
        for c in &self.l2 {
            l2.merge(c.stats());
        }
        (l1, l2, self.l3.stats().clone())
    }
}

impl CacheAccess for CacheSystem {
    fn load(&mut self, core: CoreId, addr: Addr, writebacks: &mut Vec<Writeback>) -> LookupResult {
        CacheSystem::load(self, core, addr, writebacks)
    }

    fn store(
        &mut self,
        core: CoreId,
        addr: Addr,
        value: u64,
        writebacks: &mut Vec<Writeback>,
    ) -> LookupResult {
        CacheSystem::store(self, core, addr, value, writebacks)
    }

    fn clwb(&mut self, core: CoreId, addr: Addr) -> Option<LineData> {
        CacheSystem::clwb(self, core, addr)
    }

    fn fill(
        &mut self,
        core: CoreId,
        line: LineAddr,
        data: LineData,
        writebacks: &mut Vec<Writeback>,
    ) {
        CacheSystem::fill(self, core, line, data, writebacks);
    }

    fn peek(&self, core: CoreId, addr: Addr) -> Option<LineData> {
        CacheSystem::peek(self, core, addr)
    }
}

impl proteus_types::NextEvent for CacheSystem {
    /// The hierarchy is entirely reactive: every access is performed
    /// synchronously on behalf of a core and latencies are charged to the
    /// requester, so the caches never need to be woken on their own.
    fn next_event_cycle(&self, _now: Cycle) -> Option<Cycle> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_types::config::SystemConfig;

    fn sys() -> CacheSystem {
        CacheSystem::new(&SystemConfig::skylake_like())
    }

    fn core() -> CoreId {
        CoreId::new(0)
    }

    #[test]
    fn miss_fill_hit_latencies() {
        let mut s = sys();
        let mut wb = Vec::new();
        let a = Addr::new(0x1000);
        assert_eq!(s.load(core(), a, &mut wb), LookupResult::Miss);
        s.fill(core(), a.line(), [9; 8], &mut wb);
        match s.load(core(), a, &mut wb) {
            LookupResult::Hit { latency, data } => {
                assert_eq!(latency, 4, "L1 hit after fill");
                assert_eq!(data, [9; 8]);
            }
            LookupResult::Miss => panic!("expected hit"),
        }
        assert!(wb.is_empty());
    }

    #[test]
    fn store_merges_word_and_dirties() {
        let mut s = sys();
        let mut wb = Vec::new();
        let a = Addr::new(0x1008);
        s.fill(core(), a.line(), [0; 8], &mut wb);
        match s.store(core(), a, 42, &mut wb) {
            LookupResult::Hit { data, .. } => assert_eq!(data[1], 42),
            LookupResult::Miss => panic!("expected hit"),
        }
        // clwb now returns the dirty data.
        let flushed = s.clwb(core(), a).expect("dirty line");
        assert_eq!(flushed[1], 42);
        // Second clwb is a no-op.
        assert_eq!(s.clwb(core(), a), None);
    }

    #[test]
    fn store_miss_requires_fill() {
        let mut s = sys();
        let mut wb = Vec::new();
        assert_eq!(s.store(core(), Addr::new(0x2000), 1, &mut wb), LookupResult::Miss);
    }

    #[test]
    fn l1_eviction_spills_dirty_to_l2_then_hits_there() {
        let mut s = sys();
        let mut wb = Vec::new();
        // L1: 32 KB, 8 ways, 64 sets. Lines with identical set index are
        // 64 lines apart. Fill 9 lines mapping to the same L1 set.
        let stride = 64 * 64; // 64 sets * 64 B
        let base = Addr::new(0x10_0000);
        s.fill(core(), base.line(), [1; 8], &mut wb);
        s.store(core(), base, 7, &mut wb); // dirty the first line
        for i in 1..9u64 {
            s.fill(core(), base.offset(i * stride).line(), [0; 8], &mut wb);
        }
        // The dirty line was evicted from L1 to L2; a load must hit L2
        // with the stored data intact.
        match s.load(core(), base, &mut wb) {
            LookupResult::Hit { latency, data } => {
                assert_eq!(latency, 12, "expected L2 hit");
                assert_eq!(data[0], 7);
            }
            LookupResult::Miss => panic!("dirty data lost on eviction"),
        }
        assert!(wb.is_empty(), "nothing should reach memory yet");
    }

    #[test]
    fn per_core_l1_isolation() {
        let mut s = sys();
        let mut wb = Vec::new();
        let a = Addr::new(0x3000);
        s.fill(CoreId::new(0), a.line(), [5; 8], &mut wb);
        // Core 1 misses L1/L2 but hits shared L3.
        match s.load(CoreId::new(1), a, &mut wb) {
            LookupResult::Hit { latency, .. } => assert_eq!(latency, 42),
            LookupResult::Miss => panic!("L3 is shared"),
        }
    }

    #[test]
    fn clwb_prefers_freshest_copy() {
        let mut s = sys();
        let mut wb = Vec::new();
        let a = Addr::new(0x4000);
        s.fill(core(), a.line(), [0; 8], &mut wb);
        s.store(core(), a, 1, &mut wb); // dirty in L1
        let data = s.clwb(core(), a).unwrap();
        assert_eq!(data[0], 1);
    }

    #[test]
    fn shared_line_load_transfers_remote_dirty_copy() {
        use proteus_types::sharing::SHARED_ARENA_BASE;
        let mut s = sys();
        let mut wb = Vec::new();
        let a = Addr::new(SHARED_ARENA_BASE);
        s.fill(CoreId::new(0), a.line(), [0; 8], &mut wb);
        s.store(CoreId::new(0), a, 0xBEEF, &mut wb);
        // Core 1 must see core 0's unflushed store, at transfer latency.
        match s.load(CoreId::new(1), a, &mut wb) {
            LookupResult::Hit { latency, data } => {
                assert_eq!(data[0], 0xBEEF, "remote dirty data must transfer");
                assert_eq!(latency, 42 + proteus_coherence::REMOTE_HOP_CYCLES);
            }
            LookupResult::Miss => panic!("dirty owner must be snooped"),
        }
        assert_eq!(s.coherence_stats().remote_transfers, 1);
        // The peek path sees the same freshness.
        s.store(CoreId::new(1), a, 0xF00D, &mut wb);
        assert_eq!(s.peek(CoreId::new(0), a).unwrap()[0], 0xF00D);
    }

    #[test]
    fn shared_line_store_invalidates_remote_copies() {
        use proteus_types::sharing::SHARED_ARENA_BASE;
        let mut s = sys();
        let mut wb = Vec::new();
        let a = Addr::new(SHARED_ARENA_BASE + 64);
        s.fill(CoreId::new(0), a.line(), [3; 8], &mut wb);
        s.fill(CoreId::new(1), a.line(), [3; 8], &mut wb);
        s.store(CoreId::new(0), a, 9, &mut wb);
        assert_eq!(s.coherence_stats().invalidations, 1, "core 1's copy removed");
        // Core 1 re-reads through the coherent path, never a stale L1 hit.
        match s.load(CoreId::new(1), a, &mut wb) {
            LookupResult::Hit { data, .. } => assert_eq!(data[0], 9),
            LookupResult::Miss => panic!("dirty owner or L3 must serve"),
        }
    }

    #[test]
    fn private_lines_never_touch_the_coherence_path() {
        // The exact pre-coherence behavior: a remote dirty copy of a
        // NON-domain line is invisible to other cores (the single-owner
        // invariant makes this unobservable in real workloads).
        let mut s = sys();
        let mut wb = Vec::new();
        let a = Addr::new(0x1000_0000);
        s.fill(CoreId::new(0), a.line(), [0; 8], &mut wb);
        s.store(CoreId::new(0), a, 7, &mut wb);
        match s.load(CoreId::new(1), a, &mut wb) {
            LookupResult::Hit { latency, data } => {
                assert_eq!(latency, 42, "L3 hit, no snoop");
                assert_eq!(data[0], 0, "stale L3 copy — coherence must not engage");
            }
            LookupResult::Miss => panic!("L3 holds the fill copy"),
        }
        let cs = s.coherence_stats();
        assert_eq!(cs.invalidations + cs.remote_transfers + cs.coherence_misses, 0);
        assert!(cs.is_zero());
    }

    #[test]
    fn coherence_events_capture_transfer_and_invalidate() {
        use proteus_coherence::CoherenceAction;
        use proteus_types::sharing::SHARED_ARENA_BASE;
        let mut s = sys();
        s.enable_coherence_events();
        let mut wb = Vec::new();
        let a = Addr::new(SHARED_ARENA_BASE + 128);
        s.fill(CoreId::new(0), a.line(), [0; 8], &mut wb);
        s.store(CoreId::new(0), a, 1, &mut wb);
        s.store(CoreId::new(1), a, 2, &mut wb);
        let ev = s.drain_coherence_events();
        assert!(ev.iter().any(|e| e.action == CoherenceAction::Transfer));
        assert!(ev.iter().any(|e| e.action == CoherenceAction::Invalidate));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = sys();
        let mut wb = Vec::new();
        let a = Addr::new(0x5000);
        assert_eq!(s.load(core(), a, &mut wb), LookupResult::Miss);
        s.fill(core(), a.line(), [0; 8], &mut wb);
        s.load(core(), a, &mut wb);
        let (l1, _, l3) = s.stats();
        assert!(l1.hits >= 1);
        assert!(l1.misses >= 1);
        assert!(l3.misses >= 1);
    }
}
