//! Cross-crate crash-recovery integration: crash the full system at many
//! points during real workloads and verify transaction atomicity after
//! recovery, for every failure-safe scheme.
//!
//! Recovered images are judged by [`WorkloadOracle`]. Beside it this file
//! keeps a brute-force reference, the per-thread check the oracle
//! generalises: clone the image at every `TxEnd` and require each
//! thread's arena to equal one of the clones. At every crash point the
//! two must agree on the recovered image and on three one-word mutants
//! of it.

use proteus_core::pmem::WordImage;
use proteus_core::program::Op;
use proteus_crash::WorkloadOracle;
use proteus_sim::System;
use proteus_types::config::{LoggingSchemeKind, SystemConfig};
use proteus_types::Addr;
use proteus_workloads::{generate, thread_arena, Benchmark, GeneratedWorkload, WorkloadParams};

/// Functional snapshots of a thread's state after 0, 1, 2, ... committed
/// transactions.
fn snapshots(workload: &GeneratedWorkload) -> Vec<Vec<WordImage>> {
    workload
        .programs
        .iter()
        .map(|program| {
            let mut states = vec![workload.initial_image.clone()];
            let mut img = workload.initial_image.clone();
            let mut tx = proteus_core::program::Program::new(program.thread);
            for op in &program.ops {
                tx.ops.push(op.clone());
                if matches!(op, Op::TxEnd) {
                    tx.apply_functionally(&mut img);
                    states.push(img.clone());
                    tx.ops.clear();
                }
            }
            states
        })
        .collect()
}

/// Whether `image` matches some per-thread snapshot within every thread's
/// arena.
fn is_prefix_consistent(
    image: &WordImage,
    workload: &GeneratedWorkload,
    snaps: &[Vec<WordImage>],
) -> bool {
    workload.programs.iter().enumerate().all(|(t, p)| {
        let (lo, hi) = thread_arena(p.thread);
        snaps[t].iter().any(|snap| image.diff(snap).iter().all(|a| *a < lo || *a >= hi))
    })
}

/// A word below every thread arena, which both checks must ignore.
const OUTSIDE: Addr = Addr::new(8);

/// The oracle under test beside the reference it must agree with.
struct Judge<'w> {
    workload: &'w GeneratedWorkload,
    snaps: Vec<Vec<WordImage>>,
    oracle: WorkloadOracle,
    /// Mutated one at a time: a word some transaction writes, an arena
    /// word no transaction writes, and [`OUTSIDE`].
    mutants: [Addr; 3],
}

impl<'w> Judge<'w> {
    fn new(workload: &'w GeneratedWorkload) -> Self {
        let (lo, hi) = thread_arena(workload.programs[0].thread);
        let writes: Vec<Addr> = workload
            .programs
            .iter()
            .flat_map(|p| &p.ops)
            .filter_map(|op| match op {
                Op::Write(a, _) => Some(*a),
                _ => None,
            })
            .collect();
        let written = *writes.iter().find(|a| (lo..hi).contains(*a)).expect("thread 0 writes");
        let unwritten = Addr::new(hi.raw() - 8);
        assert!(!writes.contains(&unwritten), "the arena's last word is beyond every node");
        assert!(lo > OUTSIDE);
        Judge {
            workload,
            snaps: snapshots(workload),
            oracle: WorkloadOracle::new(workload),
            mutants: [written, unwritten, OUTSIDE],
        }
    }

    /// The oracle's verdict on `image`, once the reference has agreed
    /// with it on the image and on each one-word mutant.
    fn check(&self, image: &WordImage) -> Result<(), String> {
        let verdict = self.oracle.check(image);
        let reference = is_prefix_consistent(image, self.workload, &self.snaps);
        assert_eq!(verdict.is_ok(), reference, "oracle and reference disagree: {verdict:?}");
        for addr in self.mutants {
            let mut mutant = image.clone();
            mutant.write_word(addr, mutant.read_word(addr) ^ 0x5A5A_5A5A);
            let judged = self.oracle.check(&mutant);
            let reference = is_prefix_consistent(&mutant, self.workload, &self.snaps);
            assert_eq!(judged.is_ok(), reference, "disagree on the mutant at {addr}: {judged:?}");
            if addr == OUTSIDE {
                assert_eq!(judged, verdict, "a word outside every arena was judged");
            }
        }
        verdict
    }
}

fn crash_grid(bench: Benchmark, scheme: LoggingSchemeKind, probes: u64) {
    let params = WorkloadParams { threads: 2, init_ops: 100, sim_ops: 15, seed: 31 };
    let workload = generate(bench, &params);
    let judge = Judge::new(&workload);
    let config = SystemConfig::skylake_like().with_num_cores(2);
    let total = {
        let mut m = System::new(&config, scheme, &workload).unwrap();
        m.run().unwrap().total_cycles
    };
    for i in 0..probes {
        let crash_at = total * (i + 1) / (probes + 1) + i; // stagger
        let mut m = System::new(&config, scheme, &workload).unwrap();
        m.run_until(crash_at);
        let (recovered, _report) = m.crash_and_recover().unwrap();
        if let Err(v) = judge.check(&recovered) {
            panic!("{bench:?}/{scheme:?}: crash at {crash_at}/{total} not atomic: {v}");
        }
    }
}

#[test]
fn proteus_recovery_is_atomic_on_trees() {
    crash_grid(Benchmark::AvlTree, LoggingSchemeKind::Proteus, 10);
    crash_grid(Benchmark::RbTree, LoggingSchemeKind::Proteus, 10);
}

#[test]
fn proteus_recovery_is_atomic_on_queue_and_hashmap() {
    crash_grid(Benchmark::Queue, LoggingSchemeKind::Proteus, 10);
    crash_grid(Benchmark::HashMap, LoggingSchemeKind::Proteus, 10);
}

#[test]
fn proteus_nolwr_recovery_is_atomic() {
    crash_grid(Benchmark::BTree, LoggingSchemeKind::ProteusNoLwr, 8);
}

#[test]
fn atom_recovery_is_atomic() {
    crash_grid(Benchmark::HashMap, LoggingSchemeKind::Atom, 8);
    crash_grid(Benchmark::BTree, LoggingSchemeKind::Atom, 8);
}

#[test]
fn sw_recovery_is_atomic() {
    crash_grid(Benchmark::Queue, LoggingSchemeKind::SwPmem, 8);
    crash_grid(Benchmark::AvlTree, LoggingSchemeKind::SwPmem, 8);
}

#[test]
fn sw_pcommit_recovery_is_atomic_without_adr() {
    // Without ADR the WPQ is volatile: the pcommit variant must still
    // recover because every persist point drains to NVMM.
    let params = WorkloadParams { threads: 1, init_ops: 60, sim_ops: 8, seed: 5 };
    let workload = generate(Benchmark::HashMap, &params);
    let judge = Judge::new(&workload);
    let mut config = SystemConfig::skylake_like().with_num_cores(1);
    config.mem.adr = false;
    let scheme = LoggingSchemeKind::SwPmemPcommit;
    let total = {
        let mut m = System::new(&config, scheme, &workload).unwrap();
        m.run().unwrap().total_cycles
    };
    for i in 0..8u64 {
        let crash_at = total * (i + 1) / 9;
        let mut m = System::new(&config, scheme, &workload).unwrap();
        m.run_until(crash_at);
        let (recovered, _) = m.crash_and_recover().unwrap();
        if let Err(v) = judge.check(&recovered) {
            panic!("pcommit without ADR: crash at {crash_at}/{total} not atomic: {v}");
        }
    }
}

/// Recovery right after completion finds committed transactions and
/// changes nothing.
#[test]
fn recovery_after_clean_completion_is_a_noop() {
    let params = WorkloadParams { threads: 2, init_ops: 80, sim_ops: 10, seed: 13 };
    let workload = generate(Benchmark::RbTree, &params);
    let config = SystemConfig::skylake_like().with_num_cores(2);
    for scheme in [LoggingSchemeKind::Proteus, LoggingSchemeKind::Atom, LoggingSchemeKind::SwPmem] {
        let mut m = System::new(&config, scheme, &workload).unwrap();
        m.run().unwrap();
        let before = m.crash_image();
        let (after, report) = m.crash_and_recover().unwrap();
        for (_, outcome) in &report.outcomes {
            assert!(
                !matches!(outcome, proteus_core::recovery::ThreadOutcome::RolledBack { .. }),
                "{scheme:?}: clean completion must not roll back, got {outcome:?}"
            );
        }
        // Data regions unchanged.
        for p in &workload.programs {
            let (lo, hi) = thread_arena(p.thread);
            assert!(
                after.diff(&before).iter().all(|a| *a < lo || *a >= hi),
                "{scheme:?}: recovery mutated data after clean run"
            );
        }
    }
}
