//! Property-based tests for the core library's data structures and the
//! scheme compiler.

use proteus_core::entry::LogEntry;
use proteus_core::isa::Uop;
use proteus_core::layout::AddressLayout;
use proteus_core::logarea::LogArea;
use proteus_core::pmem::WordImage;
use proteus_core::program::{Op, Program};
use proteus_core::recovery::{recover, scan_log_area};
use proteus_core::scheme::expand_program;
use proteus_types::config::LoggingSchemeKind;
use proteus_types::prop::{check, Gen};
use proteus_types::{Addr, ThreadId, TxId};
use std::collections::{HashMap, HashSet};

fn arb_entry(g: &mut Gen) -> LogEntry {
    let data = std::array::from_fn(|_| g.u64());
    let grain_idx = g.range(0..0x4000_0000);
    let tx = g.range(1..1_000_000);
    let marker = g.bool();
    let e = LogEntry::new(data, Addr::new(grain_idx * 32), TxId::new(tx), g.u64());
    if marker {
        e.with_commit_marker()
    } else {
        e
    }
}

#[test]
fn log_entry_word_roundtrip() {
    check("log_entry_word_roundtrip", 256, arb_entry, |entry| {
        let words = entry.encode_words();
        assert_eq!(LogEntry::decode_words(&words), Some(entry));
    });
}

#[test]
fn word_image_behaves_like_a_map() {
    let ops = |g: &mut Gen| g.vec(1..200, |g| (g.range(0..2048), g.u64(), g.bool()));
    check("word_image_behaves_like_a_map", 256, ops, |ops| {
        let mut image = WordImage::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for (word, value, is_write) in ops {
            let addr = Addr::new(word * 8);
            if is_write {
                image.write_word(addr, value);
                reference.insert(word, value);
            } else {
                let expected = reference.get(&word).copied().unwrap_or(0);
                assert_eq!(image.read_word(addr), expected);
            }
        }
        for (word, value) in &reference {
            assert_eq!(image.read_word(Addr::new(word * 8)), *value);
        }
    });
}

#[test]
fn word_image_line_and_grain_views_agree() {
    let words = |g: &mut Gen| std::array::from_fn::<u64, 8, _>(|_| g.u64());
    check("word_image_line_and_grain_views_agree", 256, words, |words| {
        let mut image = WordImage::new();
        let line = Addr::new(0x40_0000).line();
        image.write_line(line, &words);
        let g0 = image.read_grain(line.base());
        let g1 = image.read_grain(line.base().offset(32));
        assert_eq!([g0[0], g0[1], g0[2], g0[3], g1[0], g1[1], g1[2], g1[3]], words);
    });
}

#[test]
fn log_area_slots_stay_in_bounds_and_wrap() {
    let txs = |g: &mut Gen| g.vec(1..40, |g| g.range(1..20) as usize);
    check("log_area_slots_stay_in_bounds_and_wrap", 256, txs, |txs| {
        let layout = AddressLayout { log_area_entries: 32, ..AddressLayout::default() };
        let thread = ThreadId::new(3);
        let region = layout.log_area(thread);
        let mut area = LogArea::new(thread, &layout);
        let mut tx_id = TxId::new(1);
        let mut prev_seq = None;
        for entries in txs {
            area.begin_tx(tx_id).unwrap();
            for _ in 0..entries.min(32) {
                let (slot, seq) = area.alloc().unwrap();
                assert!(region.contains(slot), "slot {slot} outside area");
                assert!(slot.is_line_aligned());
                if let Some(p) = prev_seq {
                    assert!(seq > p, "sequence must be monotonic");
                }
                prev_seq = Some(seq);
            }
            area.end_tx().unwrap();
            tx_id = tx_id.next();
        }
    });
}

/// A random single-thread program with well-formed transactions.
fn arb_program(g: &mut Gen) -> Program {
    let txs = g.vec(1..10, |g| {
        let writes = g.vec(1..8, |g| (g.range(0..64), g.u64()));
        let reads = g.vec(0..8, |g| g.range(0..64));
        (writes, reads)
    });
    let mut p = Program::new(ThreadId::new(0));
    let base = Addr::new(0x1000_0000);
    for (writes, reads) in txs {
        let hint: Vec<Addr> = writes
            .iter()
            .flat_map(|(node, _)| {
                let a = base.offset(node * 64);
                [a, a.offset(32)]
            })
            .collect();
        for r in &reads {
            p.read(base.offset(r * 64));
        }
        p.tx_begin(hint);
        for (node, value) in &writes {
            p.write(base.offset(node * 64 + (value % 8) * 8), *value);
        }
        p.tx_end();
    }
    p
}

/// Every scheme expansion preserves the program's store sequence (same
/// addresses and values, same order) on the words the program writes.
/// A scheme may also store to data words the program never writes (an
/// in-line undo entry in a spare word of the line), but it must leave
/// each such word at 0, as the program found it.
#[test]
fn expansion_preserves_data_stores() {
    check("expansion_preserves_data_stores", 64, arb_program, |program| {
        let layout = AddressLayout::default();
        let expected: Vec<(Addr, u64)> = program
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Write(a, v) => Some((*a, *v)),
                _ => None,
            })
            .collect();
        let written: HashSet<Addr> = expected.iter().map(|(a, _)| *a).collect();
        for scheme in LoggingSchemeKind::ALL {
            let trace = expand_program(&program, scheme, &layout).unwrap();
            let (stores, others): (Vec<_>, Vec<_>) = trace
                .uops
                .iter()
                .filter_map(|u| match u {
                    Uop::Store { addr, value }
                        if addr.raw() >= 0x1000_0000 && addr.raw() < 0x8000_0000 =>
                    {
                        Some((*addr, *value))
                    }
                    _ => None,
                })
                .filter(|(a, _)| *a != layout.log_flag(ThreadId::new(0)))
                .partition(|(a, _)| written.contains(a));
            assert_eq!(&stores, &expected, "{scheme:?}");
            let last: HashMap<Addr, u64> = others.into_iter().collect();
            for (addr, value) in last {
                assert_eq!(value, 0, "{scheme:?}: store to unwritten word {addr} left {value:#x}");
            }
        }
    });
}

/// Proteus expansion: every transactional store is immediately preceded
/// by its log-load/log-flush pair.
#[test]
fn proteus_pairs_guard_every_store() {
    check("proteus_pairs_guard_every_store", 64, arb_program, |program| {
        let layout = AddressLayout::default();
        let trace = expand_program(&program, LoggingSchemeKind::Proteus, &layout).unwrap();
        let mut in_tx = false;
        for (i, u) in trace.uops.iter().enumerate() {
            match u {
                Uop::TxBegin { .. } => in_tx = true,
                Uop::TxEnd { .. } => in_tx = false,
                Uop::Store { addr, .. } if in_tx => {
                    assert!(i >= 2, "store needs a preceding pair");
                    let lf = &trace.uops[i - 1];
                    let ll = &trace.uops[i - 2];
                    assert!(matches!(lf, Uop::LogFlush { .. }), "at {i}: {lf}");
                    match ll {
                        Uop::LogLoad { addr: la, .. } => {
                            assert_eq!(la.log_grain(), addr.log_grain());
                        }
                        other => panic!("at {i}: {other}"),
                    }
                }
                _ => {}
            }
        }
    });
}

/// Functional recovery invariant, schemes aside: writing entries for a
/// transaction and recovering always restores exactly the grains the
/// transaction logged, using the earliest entry per grain.
#[test]
fn recovery_applies_earliest_entry_per_grain() {
    let entries = |g: &mut Gen| g.vec(1..24, |g| (g.range(0..16), g.u64()));
    check("recovery_applies_earliest_entry_per_grain", 64, entries, |entries| {
        let layout = AddressLayout { log_area_entries: 64, ..AddressLayout::default() };
        let thread = ThreadId::new(0);
        let tx = TxId::new(5);
        let mut image = WordImage::new();
        // Live data is "current" everywhere.
        for g in 0u64..16 {
            image.write_word(Addr::new(0x1000_0000 + g * 32), 0xFFFF);
        }
        let mut first_per_grain: HashMap<u64, u64> = HashMap::new();
        for (slot, (grain, value)) in entries.iter().enumerate() {
            let from = Addr::new(0x1000_0000 + grain * 32);
            LogEntry::new([*value, 0, 0, 0], from, tx, slot as u64)
                .write_to(&mut image, layout.log_slot(thread, slot));
            first_per_grain.entry(*grain).or_insert(*value);
        }
        let report = recover(&mut image, &layout, LoggingSchemeKind::Proteus, &[thread]).unwrap();
        assert_eq!(report.entries_applied(), first_per_grain.len());
        for (grain, value) in first_per_grain {
            assert_eq!(
                image.read_word(Addr::new(0x1000_0000 + grain * 32)),
                value,
                "grain {grain} must hold its earliest logged value"
            );
        }
        // Idempotence: the tx is now resolved.
        let again = scan_log_area(&image, &layout, thread, layout.log_area_entries);
        assert!(again.iter().any(|(_, e)| e.tx == tx && e.commit_marker));
    });
}
