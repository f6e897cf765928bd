//! [`WorkloadSel`]: the workload selector experiment and crash specs
//! carry — either a Table 2 [`Benchmark`] or a generated [`GenSpec`].
//!
//! The `Bench` variant hashes and (in `sim::persist`) encodes exactly
//! as the bare `Benchmark` always did, so every pre-existing spec hash,
//! resume-ledger key, and golden pin survives the generalisation
//! unchanged; `Gen` extends the same identity scheme to generated
//! workloads.

use crate::gen::{generate_gen, GenSpec};
use proteus_types::{FieldHasher, SimError, StableHash, StableHasher};
use proteus_workloads::{
    generate, generate_contended, Benchmark, ContendedKind, ContendedSpec, GeneratedWorkload,
    WorkloadParams,
};

/// Selects the workload an experiment runs.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSel {
    /// A paper Table 2 / §7.3 benchmark.
    Bench(Benchmark),
    /// A generated workload spec.
    Gen(GenSpec),
    /// A contended shared-structure workload (inter-core sharing).
    Contended(ContendedSpec),
}

impl From<Benchmark> for WorkloadSel {
    fn from(b: Benchmark) -> Self {
        WorkloadSel::Bench(b)
    }
}

impl From<GenSpec> for WorkloadSel {
    fn from(g: GenSpec) -> Self {
        WorkloadSel::Gen(g)
    }
}

impl From<ContendedSpec> for WorkloadSel {
    fn from(c: ContendedSpec) -> Self {
        WorkloadSel::Contended(c)
    }
}

impl StableHash for WorkloadSel {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            // Transparent delegation: a Bench selector is
            // hash-identical to the bare Benchmark, preserving every
            // pre-generalisation spec hash and ledger key.
            WorkloadSel::Bench(b) => b.stable_hash(h),
            WorkloadSel::Gen(g) => g.stable_hash(h),
            WorkloadSel::Contended(c) => c.stable_hash(h),
        }
    }
}

impl WorkloadSel {
    /// Short display label: the paper abbreviation for benchmarks, the
    /// spec name for generated workloads.
    pub fn abbrev(&self) -> &str {
        match self {
            WorkloadSel::Bench(b) => b.abbrev(),
            WorkloadSel::Gen(g) => &g.name,
            WorkloadSel::Contended(c) if c.early_release => match c.kind {
                ContendedKind::MpmcQueue => "MQ!",
                ContendedKind::ContendedHashMap => "CH!",
                ContendedKind::LockedBTree => "LB!",
            },
            WorkloadSel::Contended(c) => c.kind.abbrev(),
        }
    }

    /// Checks the selector is runnable (benchmarks always are).
    pub fn validate(&self) -> Result<(), SimError> {
        match self {
            WorkloadSel::Bench(_) | WorkloadSel::Contended(_) => Ok(()),
            WorkloadSel::Gen(g) => g
                .validate()
                .map_err(|e| SimError::InvalidConfig(format!("gen spec {}: {e}", g.name))),
        }
    }

    /// Generates the workload (same contract as `workloads::generate`:
    /// panics on an invalid spec or arena exhaustion; the harness's
    /// per-job panic isolation turns that into a recorded failure).
    pub fn generate(&self, params: &WorkloadParams) -> GeneratedWorkload {
        match self {
            WorkloadSel::Bench(b) => generate(*b, params),
            WorkloadSel::Gen(g) => generate_gen(g, params),
            WorkloadSel::Contended(c) => generate_contended(c, params),
        }
    }

    /// Replaces `params`' seed with one derived structurally from this
    /// selector and the remaining parameters — the generalisation of
    /// `WorkloadParams::with_derived_seed`, to which the `Bench` case
    /// delegates bit-for-bit.
    pub fn derived_params(&self, params: WorkloadParams) -> WorkloadParams {
        match self {
            WorkloadSel::Bench(b) => params.with_derived_seed(*b),
            WorkloadSel::Gen(_) | WorkloadSel::Contended(_) => {
                let mut p = params;
                let mut f = FieldHasher::new("WorkloadSeed");
                f.field("bench", self)
                    .field("threads", &p.threads)
                    .field("init_ops", &p.init_ops)
                    .field("sim_ops", &p.sim_ops);
                p.seed = f.finish();
                p
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GenStructure, OpMix, Skew};
    use proteus_core::program::Op;
    use proteus_types::stable_hash_value;

    fn gen_spec() -> GenSpec {
        GenSpec {
            name: "kv".into(),
            structure: GenStructure::HashMap { buckets: 8 },
            per_thread: 1,
            key_range: 64,
            mix: OpMix { read_pct: 50, insert_pct: 50, delete_pct: 0, scan_pct: 0, drain_pct: 0 },
            skew: Skew::Uniform,
            scan_len: 0,
            tx_ops: 1,
            drain_batch: 0,
        }
    }

    #[test]
    fn bench_selector_hash_is_transparent() {
        for b in Benchmark::TABLE2 {
            assert_eq!(
                stable_hash_value(&WorkloadSel::Bench(b)),
                stable_hash_value(&b),
                "{b:?}: WorkloadSel must hash exactly like the bare Benchmark"
            );
        }
        let lt = Benchmark::LargeTx { elements: 1024 };
        assert_eq!(stable_hash_value(&WorkloadSel::from(lt)), stable_hash_value(&lt));
    }

    #[test]
    fn bench_derived_seed_is_transparent() {
        let base = WorkloadParams { threads: 2, init_ops: 200, sim_ops: 50, seed: 0 };
        for b in Benchmark::TABLE2 {
            assert_eq!(
                WorkloadSel::from(b).derived_params(base.clone()).seed,
                base.clone().with_derived_seed(b).seed,
                "{b:?}"
            );
        }
    }

    #[test]
    fn gen_derived_seed_is_shape_sensitive() {
        let base = WorkloadParams { threads: 2, init_ops: 100, sim_ops: 20, seed: 0 };
        let a = WorkloadSel::from(gen_spec()).derived_params(base.clone());
        let b = WorkloadSel::from(gen_spec()).derived_params(base.clone());
        assert_eq!(a.seed, b.seed);
        let mut other = gen_spec();
        other.key_range = 128;
        assert_ne!(a.seed, WorkloadSel::from(other).derived_params(base.clone()).seed);
        assert_ne!(
            a.seed,
            WorkloadSel::from(gen_spec())
                .derived_params(WorkloadParams { sim_ops: 21, ..base })
                .seed
        );
    }

    #[test]
    fn gen_and_bench_selectors_hash_distinctly() {
        let g = stable_hash_value(&WorkloadSel::from(gen_spec()));
        for b in Benchmark::TABLE2 {
            assert_ne!(g, stable_hash_value(&WorkloadSel::from(b)));
        }
    }

    #[test]
    fn validate_routes_to_gen_spec() {
        assert!(WorkloadSel::from(Benchmark::Queue).validate().is_ok());
        assert!(WorkloadSel::from(gen_spec()).validate().is_ok());
        let mut bad = gen_spec();
        bad.mix.read_pct = 51;
        assert!(WorkloadSel::from(bad).validate().is_err());
    }

    #[test]
    fn generate_dispatches_both_arms() {
        let p = WorkloadParams { threads: 1, init_ops: 20, sim_ops: 5, seed: 3 };
        let w = WorkloadSel::from(Benchmark::Queue).generate(&p);
        assert_eq!(w.name, "QEx1");
        let w = WorkloadSel::from(gen_spec()).generate(&p);
        assert_eq!(w.name, "kvx1");
        assert_eq!(w.programs.len(), 1);
    }

    #[test]
    fn contended_selector_generates_with_a_sharing_plan() {
        let p = WorkloadParams { threads: 2, init_ops: 16, sim_ops: 4, seed: 3 };
        for kind in ContendedKind::ALL {
            let sel = WorkloadSel::from(ContendedSpec { kind, early_release: false });
            assert_eq!(sel.abbrev(), kind.abbrev());
            assert!(sel.validate().is_ok());
            let w = sel.generate(&p);
            assert_eq!(w.name, format!("{}x2", kind.abbrev()));
            assert!(w.sharing.is_some(), "{kind:?}");
        }
        let faulty = WorkloadSel::from(ContendedSpec {
            kind: ContendedKind::MpmcQueue,
            early_release: true,
        });
        assert_eq!(faulty.abbrev(), "MQ!");
    }

    #[test]
    fn initial_image_is_the_post_initialisation_state() {
        // Under one seed the initialisation is the same whatever the
        // simulated op count, so the image the machine starts from must
        // be too: none of the simulated ops' writes may leak into it.
        for name in ["qe", "indexer", "mq"] {
            let sel = crate::roster::by_cli_name(name).expect("roster row").sel();
            let params = |sim_ops| WorkloadParams { threads: 2, init_ops: 40, sim_ops, seed: 11 };
            let (one, eight) = (sel.generate(&params(1)), sel.generate(&params(8)));
            assert_eq!(one.initial_image, eight.initial_image, "{name}");
            let mut in_tx = false;
            let changing_writes = eight.programs.iter().flat_map(|p| &p.ops).filter(|op| {
                match op {
                    Op::TxBegin { .. } => in_tx = true,
                    Op::TxEnd => in_tx = false,
                    Op::Write(a, v) => return in_tx && eight.initial_image.read_word(*a) != *v,
                    _ => {}
                }
                false
            });
            assert!(changing_writes.count() > 0, "{name}: the simulated ops write nothing new");
        }
    }

    #[test]
    fn contended_selector_hashes_distinctly() {
        let mq = ContendedSpec { kind: ContendedKind::MpmcQueue, early_release: false };
        let h = stable_hash_value(&WorkloadSel::from(mq));
        for b in Benchmark::TABLE2 {
            assert_ne!(h, stable_hash_value(&WorkloadSel::from(b)));
        }
        assert_ne!(h, stable_hash_value(&WorkloadSel::from(gen_spec())));
        // The fault knob is part of the identity.
        let faulty = ContendedSpec { early_release: true, ..mq };
        assert_ne!(h, stable_hash_value(&WorkloadSel::from(faulty)));
        let ch = ContendedSpec { kind: ContendedKind::ContendedHashMap, early_release: false };
        assert_ne!(h, stable_hash_value(&WorkloadSel::from(ch)));
    }

    #[test]
    fn contended_derived_seed_is_shape_sensitive() {
        let base = WorkloadParams { threads: 2, init_ops: 100, sim_ops: 20, seed: 0 };
        let mq = WorkloadSel::from(ContendedSpec {
            kind: ContendedKind::MpmcQueue,
            early_release: false,
        });
        let a = mq.derived_params(base.clone());
        assert_eq!(a.seed, mq.derived_params(base.clone()).seed);
        let lb = WorkloadSel::from(ContendedSpec {
            kind: ContendedKind::LockedBTree,
            early_release: false,
        });
        assert_ne!(a.seed, lb.derived_params(base.clone()).seed);
        assert_ne!(a.seed, mq.derived_params(WorkloadParams { sim_ops: 21, ..base }).seed);
    }
}
