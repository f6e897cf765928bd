//! The transaction-consistency oracle.
//!
//! The durable promise every failure-safe scheme makes is: after a crash
//! and recovery, each thread's data is exactly the state *after some
//! prefix of its committed transactions* — never a torn mid-transaction
//! state. Because the workloads are share-nothing (each thread owns one
//! arena, [`proteus_workloads::thread_arena`]), the promise decomposes
//! per thread, so the oracle precomputes, for every thread, the functional
//! memory state after each transaction and accepts a recovered image iff
//! each thread's arena matches one of its snapshots.
//!
//! This oracle started life inside the crash-consistency property test;
//! it is promoted here so the systematic explorer, the shrinker, the
//! repro replayer, the property tests, and the example all judge images
//! with the one implementation.

use proteus_core::pmem::WordImage;
use proteus_core::program::{Op, Program};
use proteus_types::sharing::{SHARED_ARENA_BASE, SHARED_ARENA_SIZE};
use proteus_types::{Addr, SimError, ThreadId};
use proteus_workloads::{thread_arena, GeneratedWorkload, SharingPlan};
use std::collections::BTreeSet;
use std::fmt;

/// How many differing addresses a [`Violation`] keeps for diagnosis.
const SAMPLE_ADDRS: usize = 4;

/// Evidence that a recovered image matches no transaction boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The thread whose arena is torn.
    pub thread: ThreadId,
    /// Snapshot count the arena was compared against.
    pub candidates: usize,
    /// Fewest in-arena differing words against any snapshot.
    pub best_distance: usize,
    /// Sample of differing addresses against the closest snapshot.
    pub sample: Vec<Addr>,
}

impl Violation {
    /// Renders the violation as the typed simulator error.
    pub fn to_error(&self) -> SimError {
        SimError::ConsistencyViolation(self.to_string())
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} matches none of {} boundary states (closest differs in {} words, e.g. {:?})",
            self.thread, self.candidates, self.best_distance, self.sample
        )
    }
}

/// Per-thread transaction-boundary snapshots for one workload.
#[derive(Debug, Clone)]
pub struct ConsistencyOracle {
    threads: Vec<ThreadId>,
    snapshots: Vec<Vec<WordImage>>,
}

impl ConsistencyOracle {
    /// Precomputes the boundary states: for each thread, the initial
    /// image followed by the functional state after each of its
    /// transactions.
    pub fn new(workload: &GeneratedWorkload) -> Self {
        let mut threads = Vec::with_capacity(workload.programs.len());
        let mut snapshots = Vec::with_capacity(workload.programs.len());
        for program in &workload.programs {
            threads.push(program.thread);
            let mut states = vec![workload.initial_image.clone()];
            let mut img = workload.initial_image.clone();
            let mut tx = Program::new(program.thread);
            for op in &program.ops {
                tx.ops.push(op.clone());
                if matches!(op, Op::TxEnd) {
                    tx.apply_functionally(&mut img);
                    states.push(img.clone());
                    tx.ops.clear();
                }
            }
            snapshots.push(states);
        }
        ConsistencyOracle { threads, snapshots }
    }

    /// The threads the oracle covers, in program order.
    pub fn threads(&self) -> &[ThreadId] {
        &self.threads
    }

    /// Checks a recovered image: every thread's arena must equal one of
    /// its boundary states. Addresses outside all arenas (log areas,
    /// flags, other metadata) are ignored — they may legitimately hold
    /// live log entries or stamped markers.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] in thread order.
    pub fn check(&self, recovered: &WordImage) -> Result<(), Violation> {
        for (t, states) in self.snapshots.iter().enumerate() {
            let thread = self.threads[t];
            let (lo, hi) = thread_arena(thread);
            let mut best_distance = usize::MAX;
            let mut sample = Vec::new();
            let consistent = states.iter().any(|snap| {
                let torn: Vec<Addr> =
                    recovered.diff(snap).into_iter().filter(|a| *a >= lo && *a < hi).collect();
                if torn.is_empty() {
                    return true;
                }
                if torn.len() < best_distance {
                    best_distance = torn.len();
                    sample = torn.into_iter().take(SAMPLE_ADDRS).collect();
                }
                false
            });
            if !consistent {
                return Err(Violation { thread, candidates: states.len(), best_distance, sample });
            }
        }
        Ok(())
    }
}

/// Evidence that a recovered image of a *contended* workload matches no
/// cross-thread-consistent commit state (see [`CrossThreadOracle`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossThreadViolation {
    /// Human-readable diagnosis.
    pub detail: String,
}

impl CrossThreadViolation {
    /// Renders the violation as the typed simulator error.
    pub fn to_error(&self) -> SimError {
        SimError::ConsistencyViolation(self.to_string())
    }
}

impl fmt::Display for CrossThreadViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Per-structure commit-prefix states for one contended workload.
///
/// The per-thread oracle's promise does not survive sharing: a thread's
/// committed writes land in structures other threads also mutate, so
/// "each arena equals a boundary state of its owner" is meaningless.
/// What a contended workload *does* promise is fixed at generation time:
/// the [`SharingPlan`] records one global schedule, and the ticket locks
/// force each structure's transactions to commit in exactly its ticket
/// order, with every failure-safe scheme making the lock handoff durable
/// (the release store retires only after the commit-point persist
/// protocol). A recovered image is therefore consistent iff it equals
/// the initial image plus, **per structure, the writes of a prefix of
/// that structure's groups in ticket order** — and the per-structure
/// prefixes must agree with per-thread program order (a thread's later
/// group cannot have committed without its earlier ones, because its
/// earlier `tx_end` retired first).
///
/// Structures never share nodes ([`proteus_workloads::mem::NodeAlloc`]
/// does not recycle), so the per-structure folds touch disjoint
/// addresses and each structure's matching prefix lengths can be found
/// independently; a final search over the (tiny) cartesian product
/// handles write-aliasing, where several prefix lengths reproduce the
/// same bytes.
#[derive(Debug, Clone)]
pub struct CrossThreadOracle {
    initial: WordImage,
    structures: Vec<StructurePrefixes>,
    /// Per thread: `(structure, per_structure_index)` of its groups, in
    /// program order — the closure relation the prefix choice must obey.
    thread_groups: Vec<(ThreadId, Vec<(usize, usize)>)>,
}

/// Prefix-fold states of one shared structure.
#[derive(Debug, Clone)]
struct StructurePrefixes {
    /// Sorted union of every address the structure's groups write.
    footprint: Vec<Addr>,
    /// `states[k][j]` = value of `footprint[j]` after the first `k`
    /// groups (ticket order); `states[0]` is the initial image.
    states: Vec<Vec<u64>>,
}

impl StructurePrefixes {
    /// Prefix lengths whose fold matches `recovered` over the
    /// footprint; on no match, the closest candidate's distance and a
    /// word sample for diagnosis.
    fn matching_prefixes(&self, recovered: &WordImage) -> Result<Vec<usize>, (usize, Vec<Addr>)> {
        let actual: Vec<u64> = self.footprint.iter().map(|a| recovered.read_word(*a)).collect();
        let matches: Vec<usize> =
            (0..self.states.len()).filter(|&k| self.states[k] == actual).collect();
        if !matches.is_empty() {
            return Ok(matches);
        }
        let mut best_distance = usize::MAX;
        let mut sample = Vec::new();
        for state in &self.states {
            let torn: Vec<Addr> = self
                .footprint
                .iter()
                .zip(state)
                .zip(&actual)
                .filter(|((_, want), got)| want != got)
                .map(|((a, _), _)| *a)
                .collect();
            if torn.len() < best_distance {
                best_distance = torn.len();
                sample = torn.into_iter().take(SAMPLE_ADDRS).collect();
            }
        }
        Err((best_distance, sample))
    }
}

impl CrossThreadOracle {
    /// Precomputes each structure's prefix-fold states and the
    /// per-thread group order from the workload's sharing plan.
    pub fn new(initial: &WordImage, plan: &SharingPlan) -> Self {
        let nstruct = plan.locks.len();
        let mut structures = Vec::with_capacity(nstruct);
        for s in 0..nstruct {
            let footprint: Vec<Addr> = plan
                .groups_of(s)
                .flat_map(|g| g.writes.iter().map(|(a, _)| *a))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let mut current: Vec<u64> = footprint.iter().map(|a| initial.read_word(*a)).collect();
            let mut states = vec![current.clone()];
            for g in plan.groups_of(s) {
                for (a, v) in &g.writes {
                    let j = footprint.binary_search(a).expect("write address is in the footprint");
                    current[j] = *v;
                }
                states.push(current.clone());
            }
            structures.push(StructurePrefixes { footprint, states });
        }

        let mut thread_groups: Vec<(ThreadId, Vec<(usize, usize)>)> = Vec::new();
        let mut per_structure_index = vec![0usize; nstruct];
        for g in &plan.groups {
            let i = per_structure_index[g.structure];
            per_structure_index[g.structure] += 1;
            match thread_groups.iter_mut().find(|(t, _)| *t == g.thread) {
                Some((_, v)) => v.push((g.structure, i)),
                None => thread_groups.push((g.thread, vec![(g.structure, i)])),
            }
        }

        CrossThreadOracle { initial: initial.clone(), structures, thread_groups }
    }

    /// Checks a recovered image against the plan's commit semantics.
    ///
    /// # Errors
    ///
    /// Returns a [`CrossThreadViolation`] if any shared-arena word
    /// outside every footprint changed, any structure matches no commit
    /// prefix, or no per-structure prefix choice respects every
    /// thread's program order.
    pub fn check(&self, recovered: &WordImage) -> Result<(), CrossThreadViolation> {
        // Shared-arena words no group ever writes must still hold their
        // initial values — a diff there is a stray or torn write.
        let stray: Vec<Addr> = recovered
            .diff(&self.initial)
            .into_iter()
            .filter(|a| {
                let raw = a.raw();
                (SHARED_ARENA_BASE..SHARED_ARENA_BASE + SHARED_ARENA_SIZE).contains(&raw)
                    && !self.structures.iter().any(|s| s.footprint.binary_search(a).is_ok())
            })
            .take(SAMPLE_ADDRS)
            .collect();
        if !stray.is_empty() {
            return Err(CrossThreadViolation {
                detail: format!("shared-arena words outside every write set changed: {stray:?}"),
            });
        }

        let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(self.structures.len());
        for (s, prefixes) in self.structures.iter().enumerate() {
            match prefixes.matching_prefixes(recovered) {
                Ok(ks) => candidates.push(ks),
                Err((best_distance, sample)) => {
                    return Err(CrossThreadViolation {
                        detail: format!(
                            "structure {s} matches no commit prefix of {} groups \
                             (closest differs in {best_distance} words, e.g. {sample:?})",
                            prefixes.states.len() - 1
                        ),
                    });
                }
            }
        }

        if self.search_consistent_choice(&mut vec![0; candidates.len()], &candidates, 0) {
            Ok(())
        } else {
            Err(CrossThreadViolation {
                detail: format!(
                    "per-structure commit prefixes {candidates:?} all violate some thread's \
                     program order (a later group committed without an earlier one)"
                ),
            })
        }
    }

    /// Depth-first search over the per-structure candidate prefixes for
    /// one choice that is prefix-closed under every thread's program
    /// order. The product is tiny in practice: aliasing beyond one or
    /// two adjacent prefix lengths needs a group whose writes are
    /// byte-identical to its predecessor's.
    fn search_consistent_choice(
        &self,
        choice: &mut Vec<usize>,
        candidates: &[Vec<usize>],
        s: usize,
    ) -> bool {
        if s == candidates.len() {
            return self.thread_groups.iter().all(|(_, groups)| {
                let mut excluded_seen = false;
                for &(structure, i) in groups {
                    let included = i < choice[structure];
                    if included && excluded_seen {
                        return false;
                    }
                    excluded_seen |= !included;
                }
                true
            });
        }
        candidates[s].iter().any(|&k| {
            choice[s] = k;
            self.search_consistent_choice(choice, candidates, s + 1)
        })
    }
}

/// The oracle a workload actually needs: per-thread boundary snapshots
/// for the share-nothing benchmarks, cross-thread commit prefixes when
/// the workload carries a [`SharingPlan`]. Every judgement site
/// (explorer, shrinker, replayer, property tests) dispatches through this so
/// contended and single-owner specs flow through identical machinery.
#[derive(Debug, Clone)]
pub enum WorkloadOracle {
    /// Share-nothing workload: per-thread transaction boundaries.
    PerThread(ConsistencyOracle),
    /// Contended workload: global commit-prefix semantics.
    CrossThread(CrossThreadOracle),
}

impl WorkloadOracle {
    /// Builds the oracle matching the workload's sharing shape.
    pub fn new(workload: &GeneratedWorkload) -> Self {
        match &workload.sharing {
            Some(plan) => {
                WorkloadOracle::CrossThread(CrossThreadOracle::new(&workload.initial_image, plan))
            }
            None => WorkloadOracle::PerThread(ConsistencyOracle::new(workload)),
        }
    }

    /// Checks a recovered image; the error is the violation rendered
    /// exactly as the underlying oracle displays it.
    ///
    /// # Errors
    ///
    /// Returns the violation's display string.
    pub fn check(&self, recovered: &WordImage) -> Result<(), String> {
        match self {
            WorkloadOracle::PerThread(o) => o.check(recovered).map_err(|v| v.to_string()),
            WorkloadOracle::CrossThread(o) => o.check(recovered).map_err(|v| v.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_workloads::{generate, Benchmark, WorkloadParams};

    fn workload() -> GeneratedWorkload {
        generate(
            Benchmark::Queue,
            &WorkloadParams { threads: 2, init_ops: 20, sim_ops: 4, seed: 7 },
        )
    }

    #[test]
    fn initial_image_is_always_consistent() {
        let w = workload();
        let oracle = ConsistencyOracle::new(&w);
        assert_eq!(oracle.threads().len(), 2);
        assert!(oracle.check(&w.initial_image).is_ok());
    }

    #[test]
    fn final_boundary_states_are_consistent() {
        let w = workload();
        let oracle = ConsistencyOracle::new(&w);
        // Compose each thread's final state into one image: committed
        // work by every thread is a valid recovery target.
        let mut img = w.initial_image.clone();
        for program in &w.programs {
            let mut all = Program::new(program.thread);
            all.ops = program.ops.clone();
            all.apply_functionally(&mut img);
        }
        assert!(oracle.check(&img).is_ok());
    }

    #[test]
    fn a_torn_arena_word_is_a_violation() {
        let w = workload();
        let oracle = ConsistencyOracle::new(&w);
        let mut img = w.initial_image.clone();
        let (lo, _) = thread_arena(w.programs[0].thread);
        let victim = lo;
        img.write_word(victim, img.read_word(victim) ^ 0xDEAD_BEEF);
        let v = oracle.check(&img).unwrap_err();
        assert_eq!(v.thread, w.programs[0].thread);
        assert!(v.best_distance >= 1);
        assert!(v.to_error().to_string().contains("crash-consistency violation"));
    }

    #[test]
    fn writes_outside_every_arena_are_ignored() {
        let w = workload();
        let oracle = ConsistencyOracle::new(&w);
        let mut img = w.initial_image.clone();
        img.write_word(Addr::new(8), 0x1234);
        assert!(oracle.check(&img).is_ok());
    }

    mod cross_thread {
        use super::*;
        use proteus_types::sharing::struct_lock_addr;
        use proteus_workloads::{
            generate_contended, ContendedKind, ContendedSpec, LockGroup, SharingPlan,
        };

        fn contended() -> GeneratedWorkload {
            generate_contended(
                &ContendedSpec { kind: ContendedKind::MpmcQueue, early_release: false },
                &WorkloadParams { threads: 3, init_ops: 32, sim_ops: 12, seed: 11 },
            )
        }

        fn fold(initial: &WordImage, groups: &[&LockGroup]) -> WordImage {
            let mut img = initial.clone();
            for g in groups {
                for (a, v) in &g.writes {
                    img.write_word(*a, *v);
                }
            }
            img
        }

        #[test]
        fn every_global_schedule_prefix_is_consistent() {
            let w = contended();
            let plan = w.sharing.as_ref().unwrap();
            let oracle = CrossThreadOracle::new(&w.initial_image, plan);
            // Prefixes of the *global* schedule induce per-structure
            // ticket prefixes and are trivially thread-closed.
            for n in 0..=plan.groups.len() {
                let prefix: Vec<&LockGroup> = plan.groups.iter().take(n).collect();
                let img = fold(&w.initial_image, &prefix);
                assert!(oracle.check(&img).is_ok(), "global prefix of {n} groups");
            }
        }

        #[test]
        fn dispatch_follows_the_sharing_plan() {
            let w = contended();
            let oracle = WorkloadOracle::new(&w);
            assert!(matches!(oracle, WorkloadOracle::CrossThread(_)));
            assert!(oracle.check(&w.initial_image).is_ok());
            let single = workload();
            assert!(matches!(WorkloadOracle::new(&single), WorkloadOracle::PerThread(_)));
        }

        #[test]
        fn a_committed_group_missing_its_predecessor_is_a_violation() {
            // The early-release shape: some group's writes are durable
            // while a lower-ticket group of the same structure is not.
            let w = contended();
            let plan = w.sharing.as_ref().unwrap();
            let oracle = CrossThreadOracle::new(&w.initial_image, plan);
            let groups: Vec<&LockGroup> = plan.groups_of(0).collect();
            // Find a skippable pair: group k writes a word no later
            // group rewrites, and group k+1 writes something.
            let (skip, keep) = (0..groups.len() - 1)
                .find_map(|k| {
                    let shadowed = |a: &Addr| {
                        groups[k + 1..].iter().any(|g| g.writes.iter().any(|(b, _)| b == a))
                    };
                    let exposed = groups[k].writes.iter().any(|(a, _)| !shadowed(a));
                    (exposed && !groups[k + 1].writes.is_empty()).then_some((k, k + 1))
                })
                .expect("queue schedule has a non-shadowed group followed by a writer");
            let chosen: Vec<&LockGroup> =
                groups[..skip].iter().chain(&groups[keep..=keep]).copied().collect();
            let img = fold(&w.initial_image, &chosen);
            let v = oracle.check(&img).unwrap_err();
            assert!(v.detail.contains("matches no commit prefix"), "{}", v.detail);
            assert!(v.to_error().to_string().contains("crash-consistency violation"));
        }

        #[test]
        fn a_torn_unwritten_arena_word_is_a_violation() {
            let w = contended();
            let plan = w.sharing.as_ref().unwrap();
            let oracle = CrossThreadOracle::new(&w.initial_image, plan);
            let mut img = w.initial_image.clone();
            // The arena's last word is far beyond any allocated node.
            let victim = Addr::new(SHARED_ARENA_BASE + SHARED_ARENA_SIZE - 8);
            img.write_word(victim, 0xBAD);
            let v = oracle.check(&img).unwrap_err();
            assert!(v.detail.contains("outside every write set"), "{}", v.detail);
        }

        #[test]
        fn prefix_choice_must_respect_thread_program_order() {
            // Hand-built two-structure plan: thread 0 commits A (s0)
            // then B (s1); thread 1 commits C (s0). An image holding
            // B's write but not A's is per-structure prefix-valid
            // (k0 = 0, k1 = 1) yet impossible — thread 0 committed B
            // only after A.
            let x = Addr::new(SHARED_ARENA_BASE);
            let y = Addr::new(SHARED_ARENA_BASE + 64);
            let z = Addr::new(SHARED_ARENA_BASE + 128);
            let t0 = ThreadId::new(0);
            let t1 = ThreadId::new(1);
            let plan = SharingPlan {
                locks: vec![struct_lock_addr(0), struct_lock_addr(1)],
                aux_locks: Vec::new(),
                groups: vec![
                    LockGroup { thread: t0, structure: 0, ticket: 0, writes: vec![(x, 1)] },
                    LockGroup { thread: t0, structure: 1, ticket: 0, writes: vec![(y, 1)] },
                    LockGroup { thread: t1, structure: 0, ticket: 1, writes: vec![(z, 1)] },
                ],
                early_release: false,
            };
            let initial = WordImage::new();
            let oracle = CrossThreadOracle::new(&initial, &plan);

            let image = |words: &[(Addr, u64)]| {
                let mut img = initial.clone();
                for (a, v) in words {
                    img.write_word(*a, *v);
                }
                img
            };
            assert!(oracle.check(&initial).is_ok());
            assert!(oracle.check(&image(&[(x, 1)])).is_ok());
            assert!(oracle.check(&image(&[(x, 1), (y, 1)])).is_ok());
            assert!(oracle.check(&image(&[(x, 1), (y, 1), (z, 1)])).is_ok());
            // z without x: not a ticket prefix of structure 0.
            let v = oracle.check(&image(&[(z, 1)])).unwrap_err();
            assert!(v.detail.contains("matches no commit prefix"), "{}", v.detail);
            // y without x: prefix-valid per structure, thread-order
            // impossible.
            let v = oracle.check(&image(&[(y, 1)])).unwrap_err();
            assert!(v.detail.contains("program order"), "{}", v.detail);
        }
    }
}
