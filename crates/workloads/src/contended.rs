//! Contended shared-structure workloads: several threads operating on
//! the *same* persistent structures behind ticket locks.
//!
//! The single-owner Table 2 benchmarks partition structures across
//! threads, so no cache line is ever shared and crash consistency is a
//! per-thread property. This module opens the contended axis: all
//! threads hammer one multi-producer/multi-consumer queue, a pair of
//! hot hash maps, or lock-coupled B-trees, with mutual exclusion
//! expressed in the existing ISA as ticket locks (`Op::LockWait` /
//! `Uop::WaitValue` acquires, plain release stores).
//!
//! # How pre-generated traces share data
//!
//! Store values are precomputed at generation time, so sharing requires
//! a *generation-time global schedule*: groups are interleaved across
//! threads into one global sequence, each group's values are computed
//! against the globally-evolving image, and the runtime re-enforces the
//! per-structure order with ticket locks — a thread's `wait-value`
//! stalls its pipeline until the lock word holds its ticket, which only
//! the scheduled predecessor's release store can produce. Cross-thread
//! visibility for the *expansion* images (software undo logging needs
//! pre-transaction values) travels in each acquire's `external` write
//! list: everything other threads committed since this thread's last
//! acquire.
//!
//! Structure disjointness makes the interleaving sound: nodes belong to
//! exactly one structure ([`NodeAlloc`] never recycles), so a group's
//! reads can only be affected by same-structure predecessors, and those
//! are exactly the groups its ticket orders behind.
//!
//! The emitted program shape makes lock handoff durable for every
//! failure-safe scheme for free: the release store sits *after*
//! `tx_end`, so it retires after the scheme's commit-point persist
//! protocol, which is why the scheme registry's contention roster is
//! exactly the failure-safe schemes. The [`ContendedSpec::early_release`]
//! knob deliberately breaks this — the release moves *before*
//! `tx_begin` — handing the lock to the successor while the group is
//! still volatile. A crash in that window recovers the successor's group
//! without its predecessor, which is exactly the cross-thread prefix
//! violation the crash oracle's self-test must catch.

use crate::btree::BTree;
use crate::hashmap::HashMapStruct;
use crate::mem::{CollectMem, DirectMem, EmitMem, NodeAlloc};
use crate::queue::Queue;
use crate::spec::{
    op_struct_index, run_op, GeneratedWorkload, OpSpec, Structures, WorkloadParams,
    APP_OVERHEAD_CYCLES,
};
use proteus_core::pmem::WordImage;
use proteus_core::program::{Op, Program};
use proteus_types::rng::Xoshiro256;
use proteus_types::sharing::{
    is_struct_lock, struct_lock_addr, SHARED_ARENA_BASE, SHARED_ARENA_SIZE,
};
use proteus_types::{Addr, FieldHasher, StableHash, StableHasher, ThreadId};

/// The contended structure kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContendedKind {
    /// MQ: one queue, every thread both produces and consumes.
    MpmcQueue,
    /// CH: two chained hash maps with a hot key range.
    ContendedHashMap,
    /// LB: two B-trees behind hand-over-hand (root, then write) locks.
    LockedBTree,
}

impl ContendedKind {
    /// All contended kinds, roster order.
    pub const ALL: [ContendedKind; 3] =
        [ContendedKind::MpmcQueue, ContendedKind::ContendedHashMap, ContendedKind::LockedBTree];

    /// Two-letter abbreviation, mirroring the Table 2 convention.
    pub fn abbrev(&self) -> &'static str {
        match self {
            ContendedKind::MpmcQueue => "MQ",
            ContendedKind::ContendedHashMap => "CH",
            ContendedKind::LockedBTree => "LB",
        }
    }

    /// Shared structures of this kind (each with its own ticket lock).
    pub fn structure_count(&self) -> usize {
        match self {
            ContendedKind::MpmcQueue => 1,
            ContendedKind::ContendedHashMap | ContendedKind::LockedBTree => 2,
        }
    }
}

/// Selects a contended workload: the structure kind plus the
/// lock-handoff fault-injection knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContendedSpec {
    /// Shared structure kind.
    pub kind: ContendedKind,
    /// When set, the data-lock release store is emitted *before*
    /// `tx_begin` instead of after `tx_end`, handing the lock over while
    /// the group is still volatile. This plants a guaranteed
    /// cross-thread commit-order violation for the oracle self-test —
    /// the contended counterpart of `ExploreSpec::disable_persist_ordering`.
    pub early_release: bool,
}

impl ContendedSpec {
    /// Display label: the kind abbreviation, `!`-suffixed for the
    /// fault-injection variant.
    pub fn label(&self) -> String {
        if self.early_release {
            format!("{}!", self.kind.abbrev())
        } else {
            self.kind.abbrev().to_string()
        }
    }
}

impl StableHash for ContendedSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        let mut f = FieldHasher::new("ContendedSpec");
        f.field("kind", self.kind.abbrev()).field("early_release", &self.early_release);
        h.write_u64(f.finish());
    }
}

/// One lock-protected operation group in the global commit schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockGroup {
    /// Thread the group was emitted into.
    pub thread: ThreadId,
    /// Shared structure index (`0..kind.structure_count()`).
    pub structure: usize,
    /// The data-lock ticket the group acquires; release stores
    /// `ticket + 1`.
    pub ticket: u64,
    /// In-transaction data writes, in emission order (lock words
    /// excluded). Empty for groups that mutate nothing at run time,
    /// e.g. a dequeue from an empty queue.
    pub writes: Vec<(Addr, u64)>,
}

/// The generation-time global schedule a contended workload committed
/// to — the ground truth the cross-thread crash oracle checks recovered
/// images against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharingPlan {
    /// Data-lock word per structure, index-aligned with
    /// [`LockGroup::structure`].
    pub locks: Vec<Addr>,
    /// Auxiliary lock words (the B-tree coupling/root locks); recorded
    /// so callers can preload every lock line, not consulted by the
    /// oracle.
    pub aux_locks: Vec<Addr>,
    /// Groups in global schedule order. Per structure, tickets ascend
    /// in this order; the runtime enforces exactly this per-structure
    /// commit sequence.
    pub groups: Vec<LockGroup>,
    /// Whether the workload was generated with the early-release fault.
    pub early_release: bool,
}

impl SharingPlan {
    /// Groups of structure `s`, in ticket order.
    pub fn groups_of(&self, s: usize) -> impl Iterator<Item = &LockGroup> {
        self.groups.iter().filter(move |g| g.structure == s)
    }

    /// Every lock word the workload touches.
    pub fn all_locks(&self) -> impl Iterator<Item = Addr> + '_ {
        self.locks.iter().chain(self.aux_locks.iter()).copied()
    }
}

fn pick_contended_op(kind: ContendedKind, key_range: u64, rng: &mut Xoshiro256) -> OpSpec {
    let nstruct = kind.structure_count();
    match kind {
        ContendedKind::MpmcQueue => {
            let r = rng.random_range(0..100);
            if r < 50 {
                OpSpec::Enqueue { s: 0, value: rng.next_u32() as u64 + 1 }
            } else if r < 90 {
                OpSpec::Dequeue { s: 0 }
            } else {
                OpSpec::QueueDrain { s: 0, n: 4 }
            }
        }
        ContendedKind::ContendedHashMap => {
            let s = rng.random_range(0..nstruct as u64) as usize;
            let key = rng.random_range(0..key_range);
            if rng.random_bool(0.5) {
                OpSpec::MapInsert { s, key, value: rng.next_u32() as u64 }
            } else {
                OpSpec::MapDelete { s, key }
            }
        }
        ContendedKind::LockedBTree => {
            let s = rng.random_range(0..nstruct as u64) as usize;
            let key = rng.random_range(0..key_range);
            if rng.random_bool(0.5) {
                OpSpec::TreeInsert { s, key, value: rng.next_u32() as u64 }
            } else {
                OpSpec::TreeDelete { s, key }
            }
        }
    }
}

fn build_shared_structures(
    kind: ContendedKind,
    image: &mut WordImage,
    alloc: &mut NodeAlloc,
) -> Structures {
    let n = kind.structure_count();
    let mut m = DirectMem::new(image);
    match kind {
        ContendedKind::MpmcQueue => {
            Structures::Queues((0..n).map(|_| Queue::create(&mut m, alloc)).collect())
        }
        ContendedKind::ContendedHashMap => {
            // 64 buckets: long chains under a hot key range keep every
            // thread walking (and rewriting) the same lines.
            Structures::Maps((0..n).map(|_| HashMapStruct::create(&mut m, alloc, 64)).collect())
        }
        ContendedKind::LockedBTree => {
            Structures::BTrees((0..n).map(|_| BTree::create(&mut m, alloc)).collect())
        }
    }
}

/// Generates a contended workload: shared structures in the shared
/// arena, one global schedule of ticket-locked groups interleaved
/// across `params.threads` programs, and the [`SharingPlan`] recording
/// that schedule.
///
/// `params.sim_ops` is the per-thread group count, as for the
/// single-owner generator.
///
/// # Panics
///
/// Panics on fewer than two threads (nothing is contended), an
/// exhausted shared arena, or an invalid generated program (a bug).
pub fn generate_contended(spec: &ContendedSpec, params: &WorkloadParams) -> GeneratedWorkload {
    assert!(params.threads >= 2, "contended workloads need at least two threads");
    let kind = spec.kind;
    let nstruct = kind.structure_count();
    let key_range = (params.init_ops as u64).max(16) * 2;

    let mut image = WordImage::new();
    let mut alloc = NodeAlloc::new(Addr::new(SHARED_ARENA_BASE), SHARED_ARENA_SIZE);
    // One global stream: the schedule and every op draw from it, so the
    // whole workload is a pure function of (spec, params).
    let mut rng = Xoshiro256::seed_from_u64(params.seed ^ 0xC047_E4DE);

    let structures = build_shared_structures(kind, &mut image, &mut alloc);

    // Fast-forwarded initialisation, applied globally.
    for _ in 0..params.init_ops {
        let op = pick_contended_op(kind, key_range, &mut rng);
        let mut m = DirectMem::new(&mut image);
        run_op(&mut m, &mut alloc, &structures, op);
    }

    // Global schedule: each thread appears `sim_ops` times, order
    // shuffled (Fisher-Yates over the slot multiset).
    let mut slots: Vec<usize> =
        (0..params.threads).flat_map(|t| std::iter::repeat_n(t, params.sim_ops)).collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, rng.random_range(0..i as u64 + 1) as usize);
    }

    let data_locks: Vec<Addr> = (0..nstruct).map(struct_lock_addr).collect();
    // The B-tree's hand-over-hand root locks sit above the data locks.
    let aux_locks: Vec<Addr> = if kind == ContendedKind::LockedBTree {
        (0..nstruct).map(|s| struct_lock_addr(nstruct + s)).collect()
    } else {
        Vec::new()
    };

    let mut programs: Vec<Program> =
        (0..params.threads).map(|t| Program::new(ThreadId::new(t as u32))).collect();
    let mut next_ticket = vec![0u64; nstruct]; // data locks
    let mut next_root_ticket = vec![0u64; nstruct]; // LB root locks
                                                    // Committed (addr, value) writes in schedule order, tagged with the
                                                    // emitting thread; `seen[t]` is thread t's fold cursor into it.
    let mut commit_log: Vec<(usize, Addr, u64)> = Vec::new();
    let mut seen = vec![0usize; params.threads];
    let mut groups: Vec<LockGroup> = Vec::with_capacity(slots.len());

    for t in slots {
        let op = pick_contended_op(kind, key_range, &mut rng);
        let s = op_struct_index(op);
        let program = &mut programs[t];

        // Everything other threads committed since this thread's last
        // acquire becomes visible at this one.
        let external: Vec<(Addr, u64)> = commit_log[seen[t]..]
            .iter()
            .filter(|(owner, _, _)| *owner != t)
            .map(|(_, a, v)| (*a, *v))
            .collect();
        seen[t] = commit_log.len();

        // Acquire. The B-tree couples: take the root lock, take the
        // write lock, then release the root before the transaction so
        // a successor can start its descent while we commit.
        if kind == ContendedKind::LockedBTree {
            let root_ticket = next_root_ticket[s];
            next_root_ticket[s] += 1;
            program.lock_wait(aux_locks[s], root_ticket, external);
            let ticket = next_ticket[s];
            next_ticket[s] += 1;
            program.lock_wait(data_locks[s], ticket, Vec::new());
            program.write(aux_locks[s], root_ticket + 1);
        } else {
            let ticket = next_ticket[s];
            next_ticket[s] += 1;
            program.lock_wait(data_locks[s], ticket, external);
        }
        let ticket = next_ticket[s] - 1;

        // Application preamble, as in the single-owner emitter.
        let mut remaining = APP_OVERHEAD_CYCLES;
        while remaining > 0 {
            let chunk = remaining.min(200) as u8;
            program.compute(chunk);
            remaining -= chunk as u32;
        }

        // Conservative undo hint from a dry run against the current
        // global image.
        let hint_nodes = {
            let mut c = CollectMem::new(&image);
            let mut scratch = alloc.clone();
            run_op(&mut c, &mut scratch, &structures, op);
            c.hint()
        };

        if spec.early_release {
            // Fault injection: hand the lock over before the group is
            // durable (see `ContendedSpec::early_release`), then dawdle
            // long enough that the successor commits its group while
            // ours is still volatile — the torn window the oracle
            // self-test must observe. Without the stall the predecessor
            // (whose preamble is already behind it) would still win the
            // commit race and the fault would never bite.
            program.write(data_locks[s], ticket + 1);
            let mut stall = 4 * APP_OVERHEAD_CYCLES;
            while stall > 0 {
                let chunk = stall.min(200) as u8;
                program.compute(chunk);
                stall -= chunk as u32;
            }
        }

        let body_start = program.ops.len();
        let hint: Vec<Addr> = hint_nodes.iter().flat_map(|n| [*n, n.offset(32)]).collect();
        program.tx_begin(hint);
        {
            let mut e = EmitMem::new(&mut image, program);
            run_op(&mut e, &mut alloc, &structures, op);
        }
        program.tx_end();

        // The group's committed writes, straight from the emitted ops.
        let writes: Vec<(Addr, u64)> = program.ops[body_start..]
            .iter()
            .filter_map(|op| match op {
                Op::Write(a, v) if !is_struct_lock(*a) => Some((*a, *v)),
                _ => None,
            })
            .collect();
        commit_log.extend(writes.iter().map(|(a, v)| (t, *a, *v)));

        if !spec.early_release {
            program.write(data_locks[s], ticket + 1);
        }

        groups.push(LockGroup { thread: ThreadId::new(t as u32), structure: s, ticket, writes });
    }

    for p in &programs {
        p.validate().expect("generated contended program must validate");
    }

    GeneratedWorkload {
        name: format!("{}x{}", spec.label(), params.threads),
        programs,
        initial_image: image,
        sharing: Some(SharingPlan {
            locks: data_locks,
            aux_locks,
            groups,
            early_release: spec.early_release,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_types::sharing::in_coherence_domain;

    fn params() -> WorkloadParams {
        WorkloadParams { threads: 3, init_ops: 64, sim_ops: 20, seed: 7 }
    }

    fn gen(kind: ContendedKind) -> GeneratedWorkload {
        generate_contended(&ContendedSpec { kind, early_release: false }, &params())
    }

    #[test]
    fn deterministic_and_valid_for_every_kind() {
        for kind in ContendedKind::ALL {
            let a = gen(kind);
            let b = gen(kind);
            assert_eq!(a.programs.len(), 3, "{kind:?}");
            for (pa, pb) in a.programs.iter().zip(&b.programs) {
                assert_eq!(pa.ops, pb.ops, "{kind:?}: generation must be deterministic");
            }
            assert_eq!(a.name, format!("{}x3", kind.abbrev()));
        }
    }

    #[test]
    fn every_address_stays_in_the_coherence_domain_or_private() {
        // Contended programs touch only shared-arena data and lock
        // words — nothing in the per-thread single-owner layout.
        for kind in ContendedKind::ALL {
            let w = gen(kind);
            for p in &w.programs {
                for op in &p.ops {
                    if let Op::Write(a, _) | Op::Read(a) | Op::ReadDep(a) = op {
                        assert!(
                            in_coherence_domain(*a),
                            "{kind:?}: {a} outside the coherence domain"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tickets_ascend_per_structure_and_handoff_is_durable() {
        for kind in ContendedKind::ALL {
            let w = gen(kind);
            let plan = w.sharing.as_ref().expect("contended workloads carry a sharing plan");
            assert!(!plan.early_release);
            assert_eq!(plan.locks.len(), kind.structure_count());
            for s in 0..kind.structure_count() {
                let tickets: Vec<u64> = plan.groups_of(s).map(|g| g.ticket).collect();
                let expect: Vec<u64> = (0..tickets.len() as u64).collect();
                assert_eq!(tickets, expect, "{kind:?} structure {s}");
            }
            // Total groups = threads * sim_ops; all transactions durable.
            assert_eq!(plan.groups.len(), 3 * 20);
            assert_eq!(w.total_transactions(), 60);
            // Release (a bare lock-word store) follows tx_end in every
            // program: scan each program for the pattern.
            for p in &w.programs {
                let mut after_tx_end = false;
                let mut releases = 0;
                for op in &p.ops {
                    match op {
                        Op::TxEnd => after_tx_end = true,
                        Op::Write(a, _)
                            if is_struct_lock(*a)
                                && !matches!(kind, ContendedKind::LockedBTree) =>
                        {
                            assert!(after_tx_end, "release before commit without early_release");
                            releases += 1;
                            after_tx_end = false;
                        }
                        _ => {}
                    }
                }
                if kind != ContendedKind::LockedBTree {
                    assert_eq!(releases, 20);
                }
            }
        }
    }

    #[test]
    fn group_writes_match_the_programs() {
        // Every in-tx data write in every program appears in its
        // group's write list, in order.
        let w = gen(ContendedKind::ContendedHashMap);
        let plan = w.sharing.as_ref().unwrap();
        let total_writes: usize = plan.groups.iter().map(|g| g.writes.len()).sum();
        let program_writes: usize = w
            .programs
            .iter()
            .map(|p| {
                let mut in_tx = false;
                p.ops
                    .iter()
                    .filter(|op| match op {
                        Op::TxBegin { .. } => {
                            in_tx = true;
                            false
                        }
                        Op::TxEnd => {
                            in_tx = false;
                            false
                        }
                        Op::Write(a, _) => in_tx && !is_struct_lock(*a),
                        _ => false,
                    })
                    .count()
            })
            .sum();
        assert_eq!(total_writes, program_writes);
        assert!(total_writes > 0, "a hot hash map must mutate something");
    }

    #[test]
    fn early_release_moves_the_handoff_before_commit() {
        let spec = ContendedSpec { kind: ContendedKind::MpmcQueue, early_release: true };
        let w = generate_contended(&spec, &params());
        assert_eq!(w.name, "MQ!x3");
        let plan = w.sharing.as_ref().unwrap();
        assert!(plan.early_release);
        // In every program, each release store now precedes its
        // bracketing tx_begin.
        for p in &w.programs {
            let mut pending_release = false;
            for op in &p.ops {
                match op {
                    Op::Write(a, _) if is_struct_lock(*a) => pending_release = true,
                    Op::TxBegin { .. } => {
                        assert!(pending_release, "early_release must precede tx_begin");
                        pending_release = false;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn btree_couples_root_then_data_lock() {
        let w = gen(ContendedKind::LockedBTree);
        let plan = w.sharing.as_ref().unwrap();
        assert_eq!(plan.aux_locks.len(), 2);
        assert_eq!(plan.all_locks().count(), 4);
        // Each group opens with root acquire, data acquire, root release.
        for p in &w.programs {
            let mut i = 0;
            while i < p.ops.len() {
                if let Op::LockWait { addr, .. } = p.ops[i] {
                    assert!(plan.aux_locks.contains(&addr), "first acquire is the root lock");
                    let Op::LockWait { addr: data, .. } = p.ops[i + 1] else {
                        panic!("data acquire must follow the root acquire");
                    };
                    assert!(plan.locks.contains(&data));
                    let Op::Write(rel, _) = p.ops[i + 2] else {
                        panic!("root release must follow the data acquire");
                    };
                    assert_eq!(rel, addr, "root released hand-over-hand");
                    i += 3;
                } else {
                    i += 1;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two threads")]
    fn single_thread_rejected() {
        let p = WorkloadParams { threads: 1, init_ops: 8, sim_ops: 4, seed: 1 };
        generate_contended(
            &ContendedSpec { kind: ContendedKind::MpmcQueue, early_release: false },
            &p,
        );
    }
}
