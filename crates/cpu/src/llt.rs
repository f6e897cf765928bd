//! The Log Lookup Table (paper §4.2).
//!
//! A small set-associative table of recently logged 32-byte log-from
//! grains. A `log-flush` that hits in the LLT has already been logged in
//! the current transaction, so the `log-load`/`log-flush` pair completes
//! immediately and no log entry is written. The table is cleared at
//! `tx-end` and on context switches so stale entries can never suppress a
//! required log. For the Table 1 size (64 entries, 8-way) the hardware
//! overhead is ~410 bytes.

use proteus_types::addr::LogGrainAddr;

#[derive(Debug, Clone, Copy, Hash)]
struct LltWay {
    grain: u64,
    lru: u64,
}

/// The Log Lookup Table.
#[derive(Debug)]
pub struct Llt {
    sets: Vec<Vec<LltWay>>,
    ways: usize,
    clock: u64,
}

impl Llt {
    /// Creates a table with `entries` total entries and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or is zero-sized.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries > 0 && ways > 0, "LLT must be non-empty");
        assert_eq!(entries % ways, 0, "LLT entries must divide by ways");
        let sets = entries / ways;
        Llt { sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(), ways, clock: 0 }
    }

    fn set_of(&self, grain: LogGrainAddr) -> usize {
        (grain.index() % self.sets.len() as u64) as usize
    }

    /// Looks up `grain`; on a miss the grain is inserted (evicting LRU if
    /// needed). Returns `true` on a hit — the logging pair is elided.
    pub fn lookup_insert(&mut self, grain: LogGrainAddr) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.ways;
        let set_idx = self.set_of(grain);
        let set = &mut self.sets[set_idx];
        if let Some(w) = set.iter_mut().find(|w| w.grain == grain.index()) {
            w.lru = clock;
            return true;
        }
        if set.len() >= ways {
            let (pos, _) =
                set.iter().enumerate().min_by_key(|(_, w)| w.lru).expect("full set nonempty");
            set.swap_remove(pos);
        }
        set.push(LltWay { grain: grain.index(), lru: clock });
        false
    }

    /// Whether a [`Llt::lookup_insert`] of `grain` would hit, without
    /// touching the table: no LRU refresh, no insertion. Used by the
    /// event engine to predict dispatch outcomes.
    pub fn would_hit(&self, grain: LogGrainAddr) -> bool {
        self.sets[self.set_of(grain)].iter().any(|w| w.grain == grain.index())
    }

    /// Whether a failed dispatch retry of `grain` — a
    /// [`Llt::lookup_insert`] undone by [`Llt::undo_insert`] — would
    /// change the resident entries: a hit's undo removes the grain, and
    /// a miss into a full set first evicts a way. Any other failed retry
    /// only advances the LRU clock (see [`Llt::skip_failed_retries`]).
    pub(crate) fn failed_retry_changes_entries(&self, grain: LogGrainAddr) -> bool {
        let set = &self.sets[self.set_of(grain)];
        set.len() >= self.ways || set.iter().any(|w| w.grain == grain.index())
    }

    /// Replays `n` failed dispatch retries that changed no entry: each
    /// advanced the LRU clock and nothing else.
    pub(crate) fn skip_failed_retries(&mut self, n: u64) {
        self.clock += n;
    }

    /// The LRU clock: lookups so far, replayed retries included.
    pub(crate) fn clock(&self) -> u64 {
        self.clock
    }

    /// Removes `grain` after a lookup whose `log-load` could not dispatch
    /// (load queue or log register file full), so the retry looks it up
    /// afresh. After a miss this undoes the insert; after a hit it drops
    /// the grain.
    pub fn undo_insert(&mut self, grain: LogGrainAddr) {
        let set_idx = self.set_of(grain);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|w| w.grain == grain.index()) {
            set.swap_remove(pos);
        }
    }

    /// Clears every entry (tx-end, context switch).
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Resident entries across all sets (occupancy tracing).
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hashes the resident entries, set by set in slot order (not the
    /// LRU clock, which skipped dispatch retries advance in bulk). Lets
    /// the engine cross-check catch a wrongly skipped retry that removes
    /// or evicts an entry.
    pub(crate) fn debug_fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.sets.hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grain(i: u64) -> LogGrainAddr {
        LogGrainAddr::from_index(i)
    }

    #[test]
    fn first_lookup_misses_second_hits() {
        let mut llt = Llt::new(64, 8);
        assert!(!llt.lookup_insert(grain(5)));
        assert!(llt.lookup_insert(grain(5)));
    }

    #[test]
    fn clear_forgets_everything() {
        let mut llt = Llt::new(64, 8);
        llt.lookup_insert(grain(1));
        llt.clear();
        assert!(!llt.lookup_insert(grain(1)), "cleared entry must miss");
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2 sets x 2 ways; grains 0,2,4 map to set 0.
        let mut llt = Llt::new(4, 2);
        assert!(!llt.lookup_insert(grain(0)));
        assert!(!llt.lookup_insert(grain(2)));
        assert!(llt.lookup_insert(grain(0))); // refresh 0 → 2 is LRU
        assert!(!llt.lookup_insert(grain(4))); // evicts 2
        assert!(llt.lookup_insert(grain(0)));
        assert!(!llt.lookup_insert(grain(2)), "evicted grain must miss again");
    }

    #[test]
    fn failed_retry_changes_entries_only_on_hit_or_full_set() {
        // 2 sets x 2 ways; grains 0,2,4 map to set 0, grain 1 to set 1.
        let mut llt = Llt::new(4, 2);
        llt.lookup_insert(grain(0));
        assert!(llt.failed_retry_changes_entries(grain(0)), "a hit's undo drops the grain");
        assert!(!llt.failed_retry_changes_entries(grain(2)), "set 0 has a free way");
        assert!(!llt.failed_retry_changes_entries(grain(1)));
        llt.lookup_insert(grain(2));
        assert!(llt.failed_retry_changes_entries(grain(4)), "a miss into a full set evicts");
        assert!(!llt.failed_retry_changes_entries(grain(1)));
    }

    #[test]
    fn skipped_failed_retries_match_performed_ones() {
        let fingerprint = |llt: &Llt| {
            use std::hash::Hasher;
            let mut h = std::collections::hash_map::DefaultHasher::new();
            llt.debug_fingerprint(&mut h);
            h.finish()
        };
        let mut performed = Llt::new(4, 2);
        let mut skipped = Llt::new(4, 2);
        for llt in [&mut performed, &mut skipped] {
            llt.lookup_insert(grain(0));
        }
        let before = fingerprint(&performed);
        for _ in 0..5 {
            assert!(!performed.lookup_insert(grain(2)));
            performed.undo_insert(grain(2));
        }
        assert_eq!(fingerprint(&performed), before, "failed retries leave the entries alone");
        skipped.skip_failed_retries(5);
        // Both tables now agree on every later decision, LRU order included.
        for g in [2, 0, 4, 2, 0] {
            assert_eq!(performed.lookup_insert(grain(g)), skipped.lookup_insert(grain(g)));
        }
        assert_eq!(fingerprint(&performed), fingerprint(&skipped));
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn bad_geometry_rejected() {
        let _ = Llt::new(10, 4);
    }
}
