//! Property-based tests for the memory controller: liveness (every
//! accepted request completes), the ADR durability contract (every
//! acknowledged write/flush appears in the crash image), and the
//! fast-forward contract (ticking only at `next_event_cycle` wakes
//! reproduces ticking every cycle).

use proteus_core::entry::LogEntry;
use proteus_core::layout::AddressLayout;
use proteus_core::pmem::WordImage;
use proteus_mem::{LogDrainMode, McEvent, McRequest, MemoryController, PersistEvent};
use proteus_types::clock::{Cycle, NextEvent};
use proteus_types::config::MemConfig;
use proteus_types::prop::{check, Gen};
use proteus_types::stats::MemStats;
use proteus_types::{Addr, CoreId, ThreadId, TxId};
use std::collections::HashMap;
use std::hash::Hasher;

#[derive(Debug, Clone)]
enum Stim {
    Read { line_idx: u64 },
    Write { line_idx: u64, value: u64 },
    LogFlush { slot_idx: u64, grain_idx: u64, value: u64 },
    TxEnd,
    Pcommit,
}

fn arb_stims(g: &mut Gen) -> Vec<Stim> {
    g.vec(1..80, |g| match g.range(0..5) {
        0 => Stim::Read { line_idx: g.range(0..64) },
        1 => Stim::Write { line_idx: g.range(0..64), value: g.u64() },
        2 => {
            Stim::LogFlush { slot_idx: g.range(0..512), grain_idx: g.range(0..64), value: g.u64() }
        }
        3 => Stim::TxEnd,
        _ => Stim::Pcommit,
    })
}

fn layout() -> AddressLayout {
    AddressLayout { log_area_entries: 512, ..AddressLayout::default() }
}

fn run(stims: Vec<Stim>, mode: LogDrainMode) {
    let cfg = MemConfig { wpq_entries: 8, lpq_entries: 16, ..MemConfig::default() };
    let lay = layout();
    let mut mc = MemoryController::new(cfg, lay.clone(), mode);
    let mut img = WordImage::new();
    for i in 0..64u64 {
        img.write_word(Addr::new(0x1000_0000 + i * 64), i + 1);
    }
    mc.load_image(img);

    let mut tx = TxId::new(1);
    let mut next_id = 0u64;
    let mut expected_reads: HashMap<u64, u64> = HashMap::new(); // req_id -> line_idx
    let mut acked_writes: HashMap<u64, (Addr, u64)> = HashMap::new();
    let mut acked_flushes: HashMap<u64, (Addr, [u64; 8])> = HashMap::new();
    let mut seq = 0u64;
    let mut slot_of_seq: Vec<Addr> = Vec::new();
    let mut now = 0u64;

    for stim in &stims {
        match stim {
            Stim::Read { line_idx } => {
                let line = Addr::new(0x1000_0000 + line_idx * 64).line();
                next_id += 1;
                expected_reads.insert(next_id, *line_idx);
                mc.submit(McRequest::Read { line, req_id: next_id }, now);
            }
            Stim::Write { line_idx, value } => {
                let line = Addr::new(0x1000_0000 + line_idx * 64).line();
                let mut data = [0u64; 8];
                data[0] = *value;
                next_id += 1;
                acked_writes.insert(next_id, (line.base(), *value));
                mc.submit(McRequest::WriteBack { line, data, ack_id: Some(next_id) }, now);
            }
            Stim::LogFlush { slot_idx, grain_idx, value } => {
                let slot = lay.log_slot(ThreadId::new(0), (*slot_idx % 512) as usize);
                let grain = Addr::new(0x1000_0000 + grain_idx * 32);
                let entry = LogEntry::new([*value, 0, 0, 0], grain, tx, seq);
                seq += 1;
                slot_of_seq.push(slot);
                next_id += 1;
                acked_flushes.insert(next_id, (slot, entry.encode_words()));
                mc.submit(
                    McRequest::LogFlush {
                        slot,
                        words: entry.encode_words(),
                        core: CoreId::new(0),
                        tx,
                        flush_id: next_id,
                    },
                    now,
                );
            }
            Stim::TxEnd => {
                mc.submit(McRequest::TxEnd { core: CoreId::new(0), tx }, now);
                tx = tx.next();
            }
            Stim::Pcommit => {
                next_id += 1;
                mc.submit(McRequest::Pcommit { commit_id: next_id }, now);
            }
        }
        now += 3;
    }

    // Drive to quiescence, collecting events.
    let mut events: Vec<McEvent> = Vec::new();
    for _ in 0..2_000_000u64 {
        mc.tick(now);
        events.extend(mc.drain_events());
        if mc.is_quiescent() {
            break;
        }
        now += 1;
    }
    assert!(mc.is_quiescent(), "controller failed to quiesce");

    // Liveness: every read answered exactly once, with the stored line.
    let mut read_done = 0;
    for e in &events {
        let McEvent::ReadDone { req_id, data, .. } = e else { continue };
        if let Some(line_idx) = expected_reads.get(req_id) {
            read_done += 1;
            // Word 0 is either the initial value or an acked write.
            let initial = line_idx + 1;
            let possible: Vec<u64> = acked_writes
                .values()
                .filter(|(a, _)| a.raw() == 0x1000_0000 + line_idx * 64)
                .map(|(_, v)| *v)
                .chain([initial])
                .collect();
            assert!(
                possible.contains(&data[0]),
                "read of line {line_idx} returned {}, not one of {possible:?}",
                data[0]
            );
        }
    }
    assert_eq!(read_done, expected_reads.len(), "missing read completions");

    // Every ack'd writeback and flush occurred.
    let wb_acks = events.iter().filter(|e| matches!(e, McEvent::WritebackAck { .. })).count();
    assert_eq!(wb_acks, acked_writes.len());
    let fl_acks = events.iter().filter(|e| matches!(e, McEvent::LogFlushAck { .. })).count();
    assert_eq!(fl_acks, acked_flushes.len());

    // ADR durability: the final crash image holds, for every written
    // line, its latest acked value (writes to the same line coalesce;
    // the last submission wins).
    let image = mc.crash_image();
    let mut latest: HashMap<u64, u64> = HashMap::new();
    for stim in &stims {
        if let Stim::Write { line_idx, value } = stim {
            latest.insert(*line_idx, *value);
        }
    }
    for (line_idx, value) in latest {
        assert_eq!(
            image.read_word(Addr::new(0x1000_0000 + line_idx * 64)),
            value,
            "acked write to line {line_idx} lost"
        );
    }
}

#[test]
fn controller_is_live_and_durable_keep_until_commit() {
    check("controller_is_live_and_durable_keep_until_commit", 96, arb_stims, |stims| {
        run(stims, LogDrainMode::KeepUntilCommit)
    });
}

#[test]
fn controller_is_live_and_durable_drain_always() {
    check("controller_is_live_and_durable_drain_always", 96, arb_stims, |stims| {
        run(stims, LogDrainMode::DrainAlways)
    });
}

/// Requests for the fast-forward property, each as (submission cycle,
/// delivery cycle, request), in submission order.
#[derive(Debug, Clone)]
struct Schedule {
    mode: LogDrainMode,
    requests: Vec<(Cycle, Cycle, McRequest)>,
}

fn data_line(g: &mut Gen) -> proteus_types::addr::LineAddr {
    Addr::new(0x1000_0000 + g.range(0..64) * 64).line()
}

/// Bursts separated by idle windows, from two cores, with every request
/// kind the controller takes. Log entries come either as Proteus log
/// flushes or as ATOM's controller-side log appends, one or the other
/// per schedule.
fn arb_schedule(g: &mut Gen) -> Schedule {
    let lay = layout();
    let mode = if g.bool() { LogDrainMode::KeepUntilCommit } else { LogDrainMode::DrainAlways };
    let atom = g.bool();
    let mut tx = [TxId::new(1); 2];
    let mut seq = [0u64; 2];
    let (mut at, mut id) = (0, 0);
    let requests = g.vec(1..80, |g| {
        at += g.pick(&[0, 0, 0, 0, 0, 1, 2, 3, 10, 40, 200, 1500]);
        let deliver = at + g.range(0..8);
        let c = g.range(0..2) as usize;
        let core = CoreId::new(c as u32);
        id += 1;
        let req = match g.range(0..10) {
            0 | 1 => McRequest::Read { line: data_line(g), req_id: id },
            2..=4 => {
                let line = data_line(g);
                McRequest::WriteBack { line, data: [g.u64(); 8], ack_id: g.bool().then_some(id) }
            }
            5 | 6 if atom => McRequest::AtomLog {
                grain: Addr::new(0x1000_0000 + g.range(0..128) * 32),
                old_data: g.bool().then(|| [g.u64(), 0, 0, 0]),
                core,
                tx: tx[c],
                log_id: id,
            },
            5 | 6 => {
                let slot = lay.log_slot(ThreadId::new(c as u32), (seq[c] % 512) as usize);
                let grain = Addr::new(0x1000_0000 + g.range(0..128) * 32);
                let words = LogEntry::new([g.u64(), 0, 0, 0], grain, tx[c], seq[c]).encode_words();
                seq[c] += 1;
                McRequest::LogFlush { slot, words, core, tx: tx[c], flush_id: id }
            }
            7 => {
                let done = tx[c];
                tx[c] = done.next();
                McRequest::TxEnd { core, tx: done }
            }
            8 => McRequest::Pcommit { commit_id: id },
            _ => McRequest::DrainCoreLogs { core },
        };
        (at, deliver, req)
    });
    Schedule { mode, requests }
}

/// Everything a run of the controller shows the rest of the machine.
struct Observed {
    events: Vec<McEvent>,
    stats: MemStats,
    timeline: Vec<PersistEvent>,
    image: WordImage,
}

/// Drives `schedule` through a fresh controller up to cycle `end`,
/// submitting each request in its submission cycle just before that
/// cycle's tick, as the system's step loop does. Single-stepping ticks
/// every cycle; fast-forward ticks only at submissions and at the
/// controller's own `next_event_cycle` wakes. Calls `at_tick` after
/// every tick.
fn drive(
    schedule: &Schedule,
    end: Cycle,
    fast_forward: bool,
    mut at_tick: impl FnMut(Cycle, &MemoryController),
) -> Observed {
    // Two banks, so queued entries share banks and wait on each other;
    // 8-line rows, so the data lines span several rows per bank.
    let cfg = MemConfig {
        banks: 2,
        row_buffer_bytes: 512,
        read_queue_entries: 4,
        wpq_entries: 8,
        lpq_entries: 16,
        ..MemConfig::default()
    };
    let mut mc = MemoryController::new(cfg, layout(), schedule.mode);
    mc.set_record_persist_events(true);
    let mut events = Vec::new();
    let mut pending = schedule.requests.iter().peekable();
    let mut now = 0;
    loop {
        while let Some((_, deliver, req)) = pending.next_if(|(at, _, _)| *at == now) {
            mc.submit(req.clone(), *deliver);
        }
        mc.tick(now);
        events.extend(mc.drain_events());
        at_tick(now, &mc);
        if now == end {
            break;
        }
        now = if fast_forward {
            let submit = pending.peek().map_or(end, |(at, _, _)| *at);
            mc.next_event_cycle(now + 1).map_or(end, |wake| wake.min(end)).min(submit)
        } else {
            now + 1
        };
    }
    Observed {
        events,
        stats: mc.stats().clone(),
        timeline: mc.persist_timeline().to_vec(),
        image: mc.crash_image(),
    }
}

fn fingerprint(mc: &MemoryController) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    mc.debug_fingerprint(&mut h);
    h.finish()
}

#[test]
fn fast_forward_matches_single_stepping() {
    check("fast_forward_matches_single_stepping", 96, arb_schedule, |schedule| {
        // Long enough after the last submission for the queues to drain.
        let end = schedule.requests.last().map_or(0, |(at, _, _)| *at) + 30_000;
        let mut woken = Vec::new();
        let skipping = drive(&schedule, end, true, |now, mc| woken.push((now, fingerprint(mc))));
        let mut wakes = woken.iter().peekable();
        let stepping = drive(&schedule, end, false, |now, mc| {
            if let Some((at, print)) = wakes.next_if(|(at, _)| *at == now) {
                assert_eq!(
                    *print,
                    fingerprint(mc),
                    "controller state differs after the tick at {at}"
                );
            }
        });
        assert_eq!(skipping.events, stepping.events, "events differ");
        assert_eq!(skipping.stats, stepping.stats, "stats differ");
        assert_eq!(skipping.timeline, stepping.timeline, "persist timelines differ");
        assert!(skipping.image == stepping.image, "crash images differ");
    });
}
