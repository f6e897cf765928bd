//! The transaction-consistency oracle.
//!
//! Every failure-safe scheme makes one durable promise: after a crash and
//! recovery, every transaction is either wholly durable or wholly absent,
//! and what is durable respects commit order. The oracle states that
//! promise once, over **commit groups**: a group is the writes one
//! transaction commits, and a structure is a sequence of groups that
//! commit in a fixed order. A recovered image is consistent iff
//!
//! * every word of the guarded region that no group writes still holds
//!   its initial value (a diff there is a stray or torn write);
//! * each structure's words equal its initial words plus the writes of a
//!   *prefix* of its groups;
//! * the chosen prefixes respect every thread's program order: a thread's
//!   later group cannot be durable without its earlier ones, because its
//!   earlier `tx_end` persist protocol completed first.
//!
//! The workload decides only where the groups come from:
//!
//! * **Contended** workloads carry a [`SharingPlan`]: one structure per
//!   shared structure, its lock groups in ticket (lock-handoff) order, and
//!   the guarded region is the shared arena.
//! * **Single-owner** workloads are one structure per thread: each
//!   transaction is a group whose writes are its [`Op::Write`]s inside the
//!   thread's own arena ([`thread_arena`]) up to its `TxEnd`, and the
//!   guarded region is the threads' arenas.
//!
//! Words outside the guarded region (log areas, flags, other metadata)
//! are ignored: they may legitimately hold live log entries or stamped
//! markers. Structures never share a word (arenas are disjoint, and
//! [`proteus_workloads::mem::NodeAlloc`] never recycles a node), so each
//! structure's matching prefix lengths are found independently; a final
//! search over their (tiny) cartesian product handles write-aliasing,
//! where several prefix lengths reproduce the same words.
//!
//! The explorer, the shrinker, the repro replayer, the property tests and
//! the example all judge images with this one oracle.

use proteus_core::pmem::WordImage;
use proteus_core::program::Op;
use proteus_types::sharing::{SHARED_ARENA_BASE, SHARED_ARENA_SIZE};
use proteus_types::{Addr, ThreadId};
use proteus_workloads::{thread_arena, GeneratedWorkload, SharingPlan};
use std::collections::BTreeSet;

/// How many differing addresses a violation names for diagnosis.
const SAMPLE_ADDRS: usize = 4;

/// The commit groups of one workload, folded per structure, and the
/// region their writes must stay inside.
#[derive(Debug, Clone)]
pub struct WorkloadOracle {
    initial: WordImage,
    /// Named `[lo, hi)` ranges in which every word no group writes must
    /// keep its initial value.
    guarded: Vec<(String, Addr, Addr)>,
    structures: Vec<Structure>,
    /// Per thread: `(structure, index within the structure)` of its
    /// groups, in program order — the closure the prefix choice obeys.
    thread_groups: Vec<(ThreadId, Vec<(usize, usize)>)>,
}

/// One structure's groups in commit order, over its footprint.
#[derive(Debug, Clone)]
struct Structure {
    /// What a violation calls it: the owning thread or `structure <s>`.
    name: String,
    /// Sorted union of every address the groups write.
    footprint: Vec<Addr>,
    /// The initial value of each footprint word.
    initial: Vec<u64>,
    /// Per group: `(footprint index, value)` writes, in emission order.
    groups: Vec<Vec<(usize, u64)>>,
}

impl Structure {
    /// The footprint's words after the first `k` groups.
    fn state(&self, k: usize) -> Vec<u64> {
        let mut state = self.initial.clone();
        for &(j, v) in self.groups[..k].iter().flatten() {
            state[j] = v;
        }
        state
    }

    /// The prefix lengths whose fold matches `recovered` over the
    /// footprint. Folds the groups once, keeping each prefix's count of
    /// differing words.
    ///
    /// # Errors
    ///
    /// On no match, names the closest prefix's distance and a sample of
    /// its differing words.
    fn matching_prefixes(&self, recovered: &WordImage) -> Result<Vec<usize>, String> {
        let actual: Vec<u64> = self.footprint.iter().map(|a| recovered.read_word(*a)).collect();
        let mut state = self.initial.clone();
        let mut differing = state.iter().zip(&actual).filter(|(want, got)| want != got).count();
        let mut distances = vec![differing];
        for group in &self.groups {
            for &(j, v) in group {
                differing -= usize::from(state[j] != actual[j]);
                state[j] = v;
                differing += usize::from(state[j] != actual[j]);
            }
            distances.push(differing);
        }
        let matches: Vec<usize> = (0..distances.len()).filter(|&k| distances[k] == 0).collect();
        if !matches.is_empty() {
            return Ok(matches);
        }
        let closest = (0..distances.len()).min_by_key(|&k| distances[k]).unwrap_or(0);
        let sample: Vec<Addr> = self
            .state(closest)
            .iter()
            .zip(&actual)
            .zip(&self.footprint)
            .filter(|((want, got), _)| want != got)
            .map(|(_, a)| *a)
            .take(SAMPLE_ADDRS)
            .collect();
        Err(format!(
            "{} matches no commit prefix of {} groups (closest differs in {} words, e.g. {sample:?})",
            self.name,
            self.groups.len(),
            distances[closest]
        ))
    }
}

/// One commit group: `(thread, structure, writes)`.
type Group = (ThreadId, usize, Vec<(Addr, u64)>);

/// A single-owner workload's groups: each thread's transactions, one
/// structure per thread, each group holding the transaction's writes
/// inside the thread's arena.
fn transaction_groups(workload: &GeneratedWorkload) -> Vec<Group> {
    let mut groups = Vec::new();
    for (s, program) in workload.programs.iter().enumerate() {
        let (lo, hi) = thread_arena(program.thread);
        let mut writes = Vec::new();
        for op in &program.ops {
            match op {
                Op::Write(a, v) if (lo..hi).contains(a) => writes.push((*a, *v)),
                Op::TxEnd => groups.push((program.thread, s, std::mem::take(&mut writes))),
                _ => {}
            }
        }
    }
    groups
}

/// A contended workload's groups: the plan's lock groups, in global
/// schedule order.
fn lock_groups(plan: &SharingPlan) -> Vec<Group> {
    plan.groups.iter().map(|g| (g.thread, g.structure, g.writes.clone())).collect()
}

impl WorkloadOracle {
    /// Collects the workload's commit groups and folds them per
    /// structure.
    pub fn new(workload: &GeneratedWorkload) -> Self {
        let initial = &workload.initial_image;
        let (names, guarded, groups): (Vec<String>, _, _) = match &workload.sharing {
            Some(plan) => (
                (0..plan.locks.len()).map(|s| format!("structure {s}")).collect(),
                vec![(
                    "shared arena".to_string(),
                    Addr::new(SHARED_ARENA_BASE),
                    Addr::new(SHARED_ARENA_BASE + SHARED_ARENA_SIZE),
                )],
                lock_groups(plan),
            ),
            None => (
                workload.programs.iter().map(|p| p.thread.to_string()).collect(),
                workload
                    .programs
                    .iter()
                    .map(|p| {
                        let (lo, hi) = thread_arena(p.thread);
                        (format!("{} arena", p.thread), lo, hi)
                    })
                    .collect(),
                transaction_groups(workload),
            ),
        };

        let mut structures: Vec<Structure> = names
            .into_iter()
            .enumerate()
            .map(|(s, name)| {
                let footprint: Vec<Addr> = groups
                    .iter()
                    .filter(|g| g.1 == s)
                    .flat_map(|g| g.2.iter().map(|(a, _)| *a))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let initial = footprint.iter().map(|a| initial.read_word(*a)).collect();
                Structure { name, footprint, initial, groups: Vec::new() }
            })
            .collect();
        let mut thread_groups: Vec<(ThreadId, Vec<(usize, usize)>)> = Vec::new();
        for (thread, s, writes) in groups {
            let structure = &mut structures[s];
            let index = structure.groups.len();
            let footprint = &structure.footprint;
            structure.groups.push(
                writes
                    .iter()
                    .map(|(a, v)| (footprint.binary_search(a).expect("written word"), *v))
                    .collect(),
            );
            match thread_groups.iter_mut().find(|(t, _)| *t == thread) {
                Some((_, v)) => v.push((s, index)),
                None => thread_groups.push((thread, vec![(s, index)])),
            }
        }
        WorkloadOracle { initial: initial.clone(), guarded, structures, thread_groups }
    }

    /// Checks a recovered image: stray words first, then each
    /// structure's prefix, then the prefixes' program order.
    ///
    /// # Errors
    ///
    /// Returns the first violation, rendered for a report: the guarded
    /// range or structure it is in, a word count and sample addresses.
    pub fn check(&self, recovered: &WordImage) -> Result<(), String> {
        let changed = recovered.diff(&self.initial);
        for (name, lo, hi) in &self.guarded {
            let stray: Vec<Addr> = changed
                .iter()
                .copied()
                .filter(|a| (lo..hi).contains(&a))
                .filter(|a| !self.structures.iter().any(|s| s.footprint.binary_search(a).is_ok()))
                .collect();
            if !stray.is_empty() {
                return Err(format!(
                    "{name} has {} changed words outside every write set (e.g. {:?})",
                    stray.len(),
                    &stray[..stray.len().min(SAMPLE_ADDRS)]
                ));
            }
        }

        let candidates = self
            .structures
            .iter()
            .map(|s| s.matching_prefixes(recovered))
            .collect::<Result<Vec<_>, _>>()?;
        if self.search_consistent_choice(&mut vec![0; candidates.len()], &candidates, 0) {
            Ok(())
        } else {
            Err(format!(
                "per-structure commit prefixes {candidates:?} all violate some thread's \
                 program order (a later group committed without an earlier one)"
            ))
        }
    }

    /// Depth-first search over the per-structure candidate prefixes for
    /// one choice that is prefix-closed under every thread's program
    /// order. The product is tiny in practice: aliasing beyond one or
    /// two adjacent prefix lengths needs a group whose writes are
    /// word-identical to its predecessor's.
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

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_core::program::Program;
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
        let oracle = WorkloadOracle::new(&w);
        assert_eq!(oracle.structures.len(), 2);
        assert!(oracle.check(&w.initial_image).is_ok());
    }

    #[test]
    fn final_boundary_states_are_consistent() {
        let w = workload();
        let oracle = WorkloadOracle::new(&w);
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
        let oracle = WorkloadOracle::new(&w);
        let thread = w.programs[0].thread;
        let (lo, hi) = thread_arena(thread);

        // A word a transaction writes: no prefix of the thread's
        // transactions matches, and the violation names the thread, the
        // closest distance and the word.
        let written = w.programs[0]
            .ops
            .iter()
            .find_map(|op| match op {
                Op::Write(a, _) if (lo..hi).contains(a) => Some(*a),
                _ => None,
            })
            .expect("the queue writes its arena");
        let mut img = w.initial_image.clone();
        img.write_word(written, img.read_word(written) ^ 0xDEAD_BEEF);
        let v = oracle.check(&img).unwrap_err();
        assert!(v.starts_with(&format!("{thread} matches no commit prefix")), "{v}");
        assert!(v.contains("closest differs in 1 words"), "{v}");
        assert!(v.contains(&format!("{written:?}")), "{v}");

        // An arena word no transaction writes must keep its initial value.
        let unwritten = Addr::new(hi.raw() - 8);
        let mut img = w.initial_image.clone();
        img.write_word(unwritten, img.read_word(unwritten) ^ 0xDEAD_BEEF);
        let v = oracle.check(&img).unwrap_err();
        assert!(v.starts_with(&format!("{thread} arena has 1 changed words")), "{v}");
    }

    #[test]
    fn writes_outside_every_arena_are_ignored() {
        let w = workload();
        let oracle = WorkloadOracle::new(&w);
        let mut img = w.initial_image.clone();
        img.write_word(Addr::new(8), 0x1234);
        assert!(oracle.check(&img).is_ok());
    }

    mod cross_thread {
        use super::*;
        use proteus_types::sharing::struct_lock_addr;
        use proteus_workloads::{generate_contended, ContendedKind, ContendedSpec, LockGroup};

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
            let oracle = WorkloadOracle::new(&w);
            // Prefixes of the *global* schedule induce per-structure
            // ticket prefixes and are trivially thread-closed.
            for n in 0..=plan.groups.len() {
                let prefix: Vec<&LockGroup> = plan.groups.iter().take(n).collect();
                let img = fold(&w.initial_image, &prefix);
                assert!(oracle.check(&img).is_ok(), "global prefix of {n} groups");
            }
        }

        #[test]
        fn guarded_region_follows_the_sharing_plan() {
            // A single-owner workload guards its threads' arenas, a
            // contended one the shared arena, and each ignores the other.
            let shared = Addr::new(SHARED_ARENA_BASE + SHARED_ARENA_SIZE - 8);
            let (arena, _) = thread_arena(ThreadId::new(0));
            let changed = |w: &GeneratedWorkload, a: Addr| {
                let mut img = w.initial_image.clone();
                img.write_word(a, img.read_word(a) ^ 0xBAD);
                WorkloadOracle::new(w).check(&img)
            };
            let (single, contended) = (workload(), contended());
            assert!(changed(&single, shared).is_ok());
            assert!(changed(&single, arena).is_err());
            assert!(changed(&contended, arena).is_ok());
            assert!(changed(&contended, shared).is_err());
        }

        #[test]
        fn a_committed_group_missing_its_predecessor_is_a_violation() {
            // The early-release shape: some group's writes are durable
            // while a lower-ticket group of the same structure is not.
            let w = contended();
            let plan = w.sharing.as_ref().unwrap();
            let oracle = WorkloadOracle::new(&w);
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
            assert!(v.starts_with("structure 0 matches no commit prefix"), "{v}");
        }

        #[test]
        fn a_torn_unwritten_arena_word_is_a_violation() {
            let w = contended();
            let oracle = WorkloadOracle::new(&w);
            let mut img = w.initial_image.clone();
            // The arena's last word is far beyond any allocated node.
            let victim = Addr::new(SHARED_ARENA_BASE + SHARED_ARENA_SIZE - 8);
            img.write_word(victim, 0xBAD);
            let v = oracle.check(&img).unwrap_err();
            assert!(v.contains("outside every write set"), "{v}");
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
            let oracle = WorkloadOracle::new(&GeneratedWorkload {
                name: "hand-built".to_string(),
                programs: Vec::new(),
                initial_image: initial.clone(),
                sharing: Some(plan),
            });

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
            assert!(v.contains("matches no commit prefix"), "{v}");
            // y without x: prefix-valid per structure, thread-order
            // impossible.
            let v = oracle.check(&image(&[(y, 1)])).unwrap_err();
            assert!(v.contains("program order"), "{v}");
        }
    }
}
