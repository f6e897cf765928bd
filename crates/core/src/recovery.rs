//! Crash recovery for both logging protocols.
//!
//! A crash leaves a durable image ([`WordImage`]): the contents of the
//! machine's NVMM plus, under ADR, whatever the battery drained out of the
//! WPQ and LPQ (the simulator builds the image; this module consumes it).
//!
//! Two recovery protocols exist:
//!
//! * **Software (logFlag)** — Fig. 2 of the paper. If a thread's
//!   `logFlag` is non-zero, the transaction it names was in flight; its
//!   undo entries are applied and the flag is cleared.
//! * **Hardware (txID + commit marker)** — §4.3 of the paper. Because
//!   each thread has one log area and one active transaction, only log
//!   entries carrying the *most recent* transaction ID are live. If that
//!   transaction's commit marker made it to durability the transaction
//!   committed and nothing is undone; otherwise its entries are applied.
//!
//! In both protocols, when a grain was logged more than once (out-of-order
//! flushes, LLT evictions, context switches), only the **earliest** entry
//! in program order holds pre-transaction data (§4.2), so recovery applies
//! the lowest-sequence entry per grain.
//!
//! Recovery is idempotent: the software path clears `logFlag`, and the
//! hardware path stamps a commit marker onto the undone transaction's last
//! entry so a second crash during recovery re-runs harmlessly.

use crate::entry::LogEntry;
use crate::layout::AddressLayout;
use crate::pmem::WordImage;
use proteus_types::config::LoggingSchemeKind;
use proteus_types::{Addr, LineAddr, SimError, ThreadId, TxId};
use std::collections::HashMap;

/// What recovery did, per thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadOutcome {
    /// No live log was found; nothing to do.
    Clean,
    /// The named transaction was in flight and has been rolled back,
    /// applying the given number of undo entries.
    RolledBack {
        /// The undone transaction.
        tx: TxId,
        /// Undo entries applied (one per distinct grain).
        entries_applied: usize,
    },
    /// The most recent transaction had a durable commit marker, so its
    /// (stale) log entries were ignored.
    Committed {
        /// The committed transaction.
        tx: TxId,
    },
}

/// Summary of a recovery pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Outcome per scanned thread.
    pub outcomes: Vec<(ThreadId, ThreadOutcome)>,
}

impl RecoveryReport {
    /// Total undo entries applied across threads.
    pub fn entries_applied(&self) -> usize {
        self.outcomes
            .iter()
            .map(|(_, o)| match o {
                ThreadOutcome::RolledBack { entries_applied, .. } => *entries_applied,
                _ => 0,
            })
            .sum()
    }
}

/// Runs crash recovery over `image` for every thread in `threads`.
///
/// The scheme kind selects the protocol through the descriptor registry
/// (`crate::scheme::registry`): the software schemes use the logFlag
/// protocol, the hardware schemes the txID/commit-marker protocol, InCLL
/// its directory-driven embedded/external hybrid, and
/// [`LoggingSchemeKind::NoLog`] performs no recovery (it is not
/// failure-safe — this is exactly the paper's "ideal but unsafe" point).
///
/// # Errors
///
/// Returns [`SimError::CorruptLog`] if a log image violates protocol
/// invariants (e.g. a logFlag naming a transaction with no entries when
/// entries were required).
pub fn recover(
    image: &mut WordImage,
    layout: &AddressLayout,
    kind: LoggingSchemeKind,
    threads: &[ThreadId],
) -> Result<RecoveryReport, SimError> {
    recover_with_budget(image, layout, kind, threads, usize::MAX).map(|b| b.report)
}

/// Result of a budgeted (possibly truncated) recovery pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetedRecovery {
    /// What recovery did up to the point the budget ran out. Outcomes for
    /// work past the cut-off reflect the *attempt*, not durable state.
    pub report: RecoveryReport,
    /// Durable writes actually performed.
    pub writes: usize,
    /// Whether the budget ran out before recovery finished.
    pub exhausted: bool,
}

/// Like [`recover`], but performs at most `budget` durable writes and then
/// silently drops the rest — modelling a second crash *during* recovery.
///
/// Every durable write recovery makes (one undo-grain apply, one logFlag
/// clear, one commit-marker stamp) costs one unit and happens in the same
/// order as in an unbudgeted run, so "crash after k recovery writes" is
/// exactly `budget == k`. Enumerating `k` from zero to the write count of
/// a full pass visits every crash point inside recovery; re-running
/// recovery on the truncated image must then converge to the same state
/// (the idempotence the logFlag and commit-marker protocols promise).
///
/// # Errors
///
/// Returns [`SimError::CorruptLog`] as [`recover`] does; the check reads
/// the log before any write, so it is unaffected by the budget.
pub fn recover_with_budget(
    image: &mut WordImage,
    layout: &AddressLayout,
    kind: LoggingSchemeKind,
    threads: &[ThreadId],
    budget: usize,
) -> Result<BudgetedRecovery, SimError> {
    let mut budget = WriteBudget { limit: budget, used: 0, denied: false };
    let recover_thread = crate::scheme::registry::descriptor(kind).recover_thread;
    let mut report = RecoveryReport::default();
    for &thread in threads {
        let outcome = recover_thread(image, layout, thread, &mut budget)?;
        report.outcomes.push((thread, outcome));
    }
    Ok(BudgetedRecovery { report, writes: budget.used, exhausted: budget.denied })
}

/// Durable-write allowance for a budgeted recovery pass. Once a write is
/// denied, every later one is too — the machine is dead from that point.
/// (Public because the registry's per-scheme recovery hooks thread it
/// through; construction and accounting stay in this module.)
#[derive(Debug)]
pub struct WriteBudget {
    limit: usize,
    used: usize,
    denied: bool,
}

impl WriteBudget {
    pub(crate) fn allow(&mut self) -> bool {
        if self.denied || self.used >= self.limit {
            self.denied = true;
            return false;
        }
        self.used += 1;
        true
    }
}

/// Scans the first `slots` slots of `thread`'s log area, returning
/// `(slot_address, entry)` pairs for every valid slot, in slot order.
///
/// Each slot costs one line lookup in the image: the walk starts at the
/// area's first line and steps line by line.
///
/// # Panics
///
/// Panics if `slots` exceeds [`AddressLayout::log_area_entries`].
pub fn scan_log_area(
    image: &WordImage,
    layout: &AddressLayout,
    thread: ThreadId,
    slots: usize,
) -> Vec<(Addr, LogEntry)> {
    assert!(
        slots <= layout.log_area_entries,
        "scan of {slots} slots overruns a {}-slot log area",
        layout.log_area_entries
    );
    let first = layout.log_area(thread).start.line().index();
    (first..first + slots as u64)
        .filter_map(|index| {
            let line = LineAddr::from_index(index);
            LogEntry::decode_words(&image.read_line(line)).map(|e| (line.base(), e))
        })
        .collect()
}

/// Slot-by-slot reference for [`scan_log_area`]: one
/// [`LogEntry::read_from`] per slot address.
#[cfg(test)]
pub(crate) fn scan_log_area_by_slot(
    image: &WordImage,
    layout: &AddressLayout,
    thread: ThreadId,
    slots: usize,
) -> Vec<(Addr, LogEntry)> {
    (0..slots)
        .filter_map(|slot| {
            let addr = layout.log_slot(thread, slot);
            LogEntry::read_from(image, addr).map(|e| (addr, e))
        })
        .collect()
}

/// Selects, per grain, the earliest-sequence entry among `entries`.
pub(crate) fn earliest_per_grain(entries: &[(Addr, LogEntry)], tx: TxId) -> Vec<LogEntry> {
    let mut best: HashMap<u64, LogEntry> = HashMap::new();
    for (_, e) in entries {
        if e.tx != tx {
            continue;
        }
        let grain = e.log_from.log_grain().index();
        match best.get(&grain) {
            Some(prev) if prev.seq <= e.seq => {}
            _ => {
                best.insert(grain, *e);
            }
        }
    }
    let mut list: Vec<LogEntry> = best.into_values().collect();
    list.sort_by_key(|e| e.seq);
    list
}

pub(crate) fn apply_undo(image: &mut WordImage, entries: &[LogEntry], budget: &mut WriteBudget) {
    for e in entries {
        if !budget.allow() {
            return;
        }
        image.write_grain(e.log_from, &e.data);
    }
}

pub(crate) fn recover_sw_thread(
    image: &mut WordImage,
    layout: &AddressLayout,
    thread: ThreadId,
    budget: &mut WriteBudget,
) -> Result<ThreadOutcome, SimError> {
    let flag_addr = layout.log_flag(thread);
    let flag = image.read_word(flag_addr);
    if flag == 0 {
        return Ok(ThreadOutcome::Clean);
    }
    let tx = TxId::new(flag);
    let entries = scan_log_area(image, layout, thread, layout.log_area_entries);
    let undo = earliest_per_grain(&entries, tx);
    apply_undo(image, &undo, budget);
    if budget.allow() {
        image.write_word(flag_addr, 0);
    }
    Ok(ThreadOutcome::RolledBack { tx, entries_applied: undo.len() })
}

pub(crate) fn recover_hw_thread(
    image: &mut WordImage,
    layout: &AddressLayout,
    thread: ThreadId,
    budget: &mut WriteBudget,
) -> Result<ThreadOutcome, SimError> {
    let entries = scan_log_area(image, layout, thread, layout.log_area_entries);
    let Some(max_tx) = entries.iter().map(|(_, e)| e.tx).max() else {
        return Ok(ThreadOutcome::Clean);
    };
    let committed = entries.iter().any(|(_, e)| e.tx == max_tx && e.commit_marker);
    if committed {
        return Ok(ThreadOutcome::Committed { tx: max_tx });
    }
    let undo = earliest_per_grain(&entries, max_tx);
    if undo.is_empty() {
        return Err(SimError::CorruptLog(format!(
            "{thread}: live transaction {max_tx} has no undo entries"
        )));
    }
    apply_undo(image, &undo, budget);
    // Stamp a commit marker on the transaction's latest entry so a repeat
    // recovery (crash during recovery) treats it as resolved.
    let (slot, latest) = entries
        .iter()
        .filter(|(_, e)| e.tx == max_tx)
        .max_by_key(|(_, e)| e.seq)
        .copied()
        .expect("entries nonempty for max_tx");
    if budget.allow() {
        latest.with_commit_marker().write_to(image, slot);
    }
    Ok(ThreadOutcome::RolledBack { tx: max_tx, entries_applied: undo.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> AddressLayout {
        AddressLayout { log_area_entries: 8, ..AddressLayout::default() }
    }

    fn thread() -> ThreadId {
        ThreadId::new(0)
    }

    fn put_entry(image: &mut WordImage, layout: &AddressLayout, slot: usize, entry: LogEntry) {
        entry.write_to(image, layout.log_slot(thread(), slot));
    }

    #[test]
    fn scan_matches_slot_by_slot_reads_and_stays_in_its_area() {
        let layout = layout();
        let t = ThreadId::new(1);
        let last = layout.log_area_entries - 1;
        let entry = |tx: u64, seq: u64| {
            LogEntry::new([seq + 1, 0, 0, 0], Addr::new(0x1000_0000 + seq * 32), TxId::new(tx), seq)
        };
        let mut img = WordImage::new();
        entry(4, 0).write_to(&mut img, layout.log_slot(t, 0));
        entry(4, 1).write_to(&mut img, layout.log_slot(t, 3));
        LogEntry::clear_slot(&mut img, layout.log_slot(t, 3));
        entry(4, 2).with_commit_marker().write_to(&mut img, layout.log_slot(t, last));
        // Valid-looking lines just outside the area, on both sides.
        entry(9, 7).write_to(&mut img, layout.log_slot(ThreadId::new(0), last));
        entry(9, 8).write_to(&mut img, layout.log_slot(ThreadId::new(2), 0));

        let scanned = scan_log_area(&img, &layout, t, layout.log_area_entries);
        assert_eq!(scanned, scan_log_area_by_slot(&img, &layout, t, layout.log_area_entries));
        assert_eq!(
            scanned,
            vec![
                (layout.log_slot(t, 0), entry(4, 0)),
                (layout.log_slot(t, last), entry(4, 2).with_commit_marker()),
            ]
        );
        // A shorter scan stops before the last slot.
        assert_eq!(scan_log_area(&img, &layout, t, last), scanned[..1].to_vec());
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn scan_past_the_area_rejected() {
        let layout = layout();
        scan_log_area(&WordImage::new(), &layout, thread(), layout.log_area_entries + 1);
    }

    #[test]
    fn sw_clean_when_flag_clear() {
        let layout = layout();
        let mut img = WordImage::new();
        let r = recover(&mut img, &layout, LoggingSchemeKind::SwPmem, &[thread()]).unwrap();
        assert_eq!(r.outcomes[0].1, ThreadOutcome::Clean);
    }

    #[test]
    fn sw_rolls_back_in_flight_tx() {
        let layout = layout();
        let mut img = WordImage::new();
        let data_addr = Addr::new(0x1000_0000);
        // Pre-tx value 7 in the log; crashed mid-update with 99 in place.
        img.write_word(data_addr, 99);
        put_entry(&mut img, &layout, 0, LogEntry::new([7, 0, 0, 0], data_addr, TxId::new(3), 0));
        img.write_word(layout.log_flag(thread()), 3);
        let r = recover(&mut img, &layout, LoggingSchemeKind::SwPmem, &[thread()]).unwrap();
        assert_eq!(img.read_word(data_addr), 7);
        assert_eq!(img.read_word(layout.log_flag(thread())), 0);
        assert_eq!(r.entries_applied(), 1);
        // Idempotent: running again finds a clear flag.
        let r2 = recover(&mut img, &layout, LoggingSchemeKind::SwPmem, &[thread()]).unwrap();
        assert_eq!(r2.outcomes[0].1, ThreadOutcome::Clean);
    }

    #[test]
    fn sw_ignores_stale_entries_of_other_txs() {
        let layout = layout();
        let mut img = WordImage::new();
        let a = Addr::new(0x1000_0000);
        let b = Addr::new(0x1000_0100);
        img.write_word(a, 50);
        img.write_word(b, 60);
        put_entry(&mut img, &layout, 0, LogEntry::new([1, 0, 0, 0], a, TxId::new(2), 0));
        put_entry(&mut img, &layout, 1, LogEntry::new([2, 0, 0, 0], b, TxId::new(3), 1));
        img.write_word(layout.log_flag(thread()), 3);
        recover(&mut img, &layout, LoggingSchemeKind::SwPmem, &[thread()]).unwrap();
        assert_eq!(img.read_word(a), 50, "tx2's entry must not be applied");
        assert_eq!(img.read_word(b), 2, "tx3's entry must be applied");
    }

    #[test]
    fn hw_clean_on_empty_log() {
        let layout = layout();
        let mut img = WordImage::new();
        let r = recover(&mut img, &layout, LoggingSchemeKind::Proteus, &[thread()]).unwrap();
        assert_eq!(r.outcomes[0].1, ThreadOutcome::Clean);
    }

    #[test]
    fn hw_committed_tx_not_undone() {
        let layout = layout();
        let mut img = WordImage::new();
        let a = Addr::new(0x1000_0000);
        img.write_word(a, 99); // committed new value
        put_entry(
            &mut img,
            &layout,
            0,
            LogEntry::new([7, 0, 0, 0], a, TxId::new(5), 0).with_commit_marker(),
        );
        let r = recover(&mut img, &layout, LoggingSchemeKind::Proteus, &[thread()]).unwrap();
        assert_eq!(img.read_word(a), 99);
        assert_eq!(r.outcomes[0].1, ThreadOutcome::Committed { tx: TxId::new(5) });
    }

    #[test]
    fn hw_rolls_back_latest_tx_only() {
        let layout = layout();
        let mut img = WordImage::new();
        let a = Addr::new(0x1000_0000);
        let b = Addr::new(0x1000_0100);
        img.write_word(a, 11); // committed by tx4 long ago
        img.write_word(b, 99); // in-flight update by tx5
                               // Stale escaped entry of committed tx4 (its marker was dropped
                               // when tx5's first entry arrived — the §4.3 protocol).
        put_entry(&mut img, &layout, 0, LogEntry::new([1, 0, 0, 0], a, TxId::new(4), 0));
        // Live entry of crashed tx5.
        put_entry(&mut img, &layout, 1, LogEntry::new([60, 0, 0, 0], b, TxId::new(5), 1));
        let r = recover(&mut img, &layout, LoggingSchemeKind::Proteus, &[thread()]).unwrap();
        assert_eq!(img.read_word(a), 11, "older tx must be ignored");
        assert_eq!(img.read_word(b), 60, "latest tx must be rolled back");
        assert_eq!(r.entries_applied(), 1);
        // Idempotent: a second recovery sees the stamped marker.
        let r2 = recover(&mut img, &layout, LoggingSchemeKind::Proteus, &[thread()]).unwrap();
        assert_eq!(r2.outcomes[0].1, ThreadOutcome::Committed { tx: TxId::new(5) });
        assert_eq!(img.read_word(b), 60);
    }

    #[test]
    fn hw_earliest_entry_per_grain_wins() {
        // §4.2: two entries for the same grain in one tx — only the first
        // in program order holds pre-tx data.
        let layout = layout();
        let mut img = WordImage::new();
        let a = Addr::new(0x1000_0000);
        img.write_word(a, 99);
        put_entry(&mut img, &layout, 2, LogEntry::new([7, 0, 0, 0], a, TxId::new(9), 10));
        put_entry(&mut img, &layout, 5, LogEntry::new([55, 0, 0, 0], a, TxId::new(9), 14));
        recover(&mut img, &layout, LoggingSchemeKind::Proteus, &[thread()]).unwrap();
        assert_eq!(img.read_word(a), 7, "earliest entry must win");
    }

    #[test]
    fn hw_undoes_multiple_grains_of_one_tx() {
        let layout = layout();
        let mut img = WordImage::new();
        let a = Addr::new(0x1000_0000);
        let b = Addr::new(0x1000_0020);
        img.write_word(a, 100);
        img.write_word(b, 200);
        put_entry(&mut img, &layout, 0, LogEntry::new([1, 2, 3, 4], a, TxId::new(2), 0));
        put_entry(&mut img, &layout, 1, LogEntry::new([5, 6, 7, 8], b, TxId::new(2), 1));
        let r = recover(&mut img, &layout, LoggingSchemeKind::Atom, &[thread()]).unwrap();
        assert_eq!(r.entries_applied(), 2);
        assert_eq!(img.read_grain(a), [1, 2, 3, 4]);
        assert_eq!(img.read_grain(b), [5, 6, 7, 8]);
    }

    #[test]
    fn budgeted_recovery_truncates_then_second_pass_converges() {
        let layout = layout();
        let a = Addr::new(0x1000_0000);
        let b = Addr::new(0x1000_0020);
        let mut pristine = WordImage::new();
        pristine.write_word(a, 100);
        pristine.write_word(b, 200);
        put_entry(&mut pristine, &layout, 0, LogEntry::new([1, 2, 3, 4], a, TxId::new(2), 0));
        put_entry(&mut pristine, &layout, 1, LogEntry::new([5, 6, 7, 8], b, TxId::new(2), 1));

        // A full pass needs 3 writes: two undo applies plus the marker stamp.
        let mut full = pristine.clone();
        let done =
            recover_with_budget(&mut full, &layout, LoggingSchemeKind::Proteus, &[thread()], 999)
                .unwrap();
        assert_eq!(done.writes, 3);
        assert!(!done.exhausted);

        for k in 0..done.writes {
            let mut img = pristine.clone();
            let partial =
                recover_with_budget(&mut img, &layout, LoggingSchemeKind::Proteus, &[thread()], k)
                    .unwrap();
            assert_eq!(partial.writes, k);
            assert!(partial.exhausted, "budget {k} of 3 must run out");
            // The second (unbudgeted) recovery converges to the full result.
            recover(&mut img, &layout, LoggingSchemeKind::Proteus, &[thread()]).unwrap();
            assert_eq!(img, full, "double-crash at write {k} must still converge");
        }
    }

    #[test]
    fn nolog_never_recovers() {
        let layout = layout();
        let mut img = WordImage::new();
        let a = Addr::new(0x1000_0000);
        img.write_word(a, 99);
        put_entry(&mut img, &layout, 0, LogEntry::new([7, 0, 0, 0], a, TxId::new(1), 0));
        let r = recover(&mut img, &layout, LoggingSchemeKind::NoLog, &[thread()]).unwrap();
        assert_eq!(r.outcomes[0].1, ThreadOutcome::Clean);
        assert_eq!(img.read_word(a), 99);
    }
}
