//! The composable workload generator: a [`GenSpec`] describes an op
//! mix, key skew, transaction size, and working set over one of the
//! registered structure kinds; [`generate_gen`] turns it into the
//! same scheme-independent `Program` + `WordImage` shape the Table 2
//! workloads produce, via the shared `workloads::spec` emission path.
//!
//! Specs are all-integer (skew is expressed in milli-theta) so their
//! `StableHash` identity and JSON encoding are trivially deterministic
//! across platforms and build environments.

use crate::rng::Zipfian;
use proteus_core::pmem::WordImage;
use proteus_core::program::Program;
use proteus_types::rng::SplitMix64;
use proteus_types::{FieldHasher, StableHash, StableHasher, ThreadId};
use proteus_workloads::btree::BTree;
use proteus_workloads::hashmap::HashMapStruct;
use proteus_workloads::queue::Queue;
use proteus_workloads::{
    emit_op_group, lock_base_for, run_op, thread_alloc, DirectMem, GeneratedWorkload, NodeAlloc,
    OpSpec, Structures, WorkloadParams,
};

/// The structure kind a generated workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenStructure {
    /// Chained hash maps with a fixed bucket count.
    HashMap {
        /// Buckets per map (Table 2's HM uses 256).
        buckets: u64,
    },
    /// B-trees (the only structure supporting scans).
    BTree,
    /// Linked-list queues (append/drain streams).
    Queue,
}

impl GenStructure {
    fn kind_tag(&self) -> &'static str {
        match self {
            GenStructure::HashMap { .. } => "HM",
            GenStructure::BTree => "BT",
            GenStructure::Queue => "QE",
        }
    }
}

impl StableHash for GenStructure {
    fn stable_hash(&self, h: &mut StableHasher) {
        let mut f = FieldHasher::new("GenStructure");
        f.field("kind", self.kind_tag());
        if let GenStructure::HashMap { buckets } = self {
            f.field("buckets", buckets);
        }
        h.write_u64(f.finish());
    }
}

/// Operation mix in percent; the five knobs must sum to 100.
///
/// Which knobs are meaningful depends on the structure: maps take
/// read/insert/delete, B-trees add scan, queues take insert (enqueue),
/// delete (dequeue), and drain. [`GenSpec::validate`] enforces this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Point lookups (read-only).
    pub read_pct: u8,
    /// Inserts/updates (enqueues for queues).
    pub insert_pct: u8,
    /// Deletes (dequeues for queues).
    pub delete_pct: u8,
    /// Range scans of [`GenSpec::scan_len`] keys (B-tree only).
    pub scan_pct: u8,
    /// Batch dequeues of [`GenSpec::drain_batch`] nodes (queue only).
    pub drain_pct: u8,
}

impl OpMix {
    fn total(&self) -> u32 {
        self.read_pct as u32
            + self.insert_pct as u32
            + self.delete_pct as u32
            + self.scan_pct as u32
            + self.drain_pct as u32
    }
}

impl StableHash for OpMix {
    fn stable_hash(&self, h: &mut StableHasher) {
        let mut f = FieldHasher::new("OpMix");
        f.field("read", &(self.read_pct as u64))
            .field("insert", &(self.insert_pct as u64))
            .field("delete", &(self.delete_pct as u64))
            .field("scan", &(self.scan_pct as u64))
            .field("drain", &(self.drain_pct as u64));
        h.write_u64(f.finish());
    }
}

/// Key-popularity skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    /// Every key equally likely.
    Uniform,
    /// YCSB-style zipfian with `theta = theta_milli / 1000` (YCSB's
    /// default is 990). Expressed in milli-units so the spec stays
    /// all-integer.
    Zipfian {
        /// Skew parameter ×1000, in `1..=999`.
        theta_milli: u32,
    },
}

impl StableHash for Skew {
    fn stable_hash(&self, h: &mut StableHasher) {
        let mut f = FieldHasher::new("Skew");
        match self {
            Skew::Uniform => {
                f.field("kind", "uniform");
            }
            Skew::Zipfian { theta_milli } => {
                f.field("kind", "zipfian").field("theta_milli", &(*theta_milli as u64));
            }
        }
        h.write_u64(f.finish());
    }
}

/// A reproducible generated-workload spec. Together with
/// [`WorkloadParams`] (threads, init/sim op counts, seed) it fully
/// determines the op streams, and its `StableHash` feeds both the
/// experiment spec hash and the derived workload seed.
#[derive(Debug, Clone, PartialEq)]
pub struct GenSpec {
    /// Short name used in CLI and workload labels.
    pub name: String,
    /// Structure kind.
    pub structure: GenStructure,
    /// Structures owned per thread.
    pub per_thread: usize,
    /// Key universe; 0 derives `max(init_ops, 16) * 2` like Table 2.
    pub key_range: u64,
    /// Operation mix.
    pub mix: OpMix,
    /// Key skew.
    pub skew: Skew,
    /// Keys touched per scan op.
    pub scan_len: u32,
    /// Ops batched into one durable transaction (Table 2 uses 1).
    pub tx_ops: u32,
    /// Nodes dequeued per drain op.
    pub drain_batch: u32,
}

impl StableHash for GenSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        let mut f = FieldHasher::new("GenSpec");
        f.field("name", self.name.as_str())
            .field("structure", &self.structure)
            .field("per_thread", &self.per_thread)
            .field("key_range", &self.key_range)
            .field("mix", &self.mix)
            .field("skew", &self.skew)
            .field("scan_len", &(self.scan_len as u64))
            .field("tx_ops", &(self.tx_ops as u64))
            .field("drain_batch", &(self.drain_batch as u64));
        h.write_u64(f.finish());
    }
}

impl GenSpec {
    /// Checks internal consistency; the error string names the knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() || self.name.contains(char::is_whitespace) {
            return Err("gen spec name must be non-empty without whitespace".into());
        }
        if self.per_thread == 0 {
            return Err("per_thread must be >= 1".into());
        }
        if self.tx_ops == 0 {
            return Err("tx_ops must be >= 1".into());
        }
        if self.mix.total() != 100 {
            return Err(format!("op mix must sum to 100, got {}", self.mix.total()));
        }
        if self.mix.scan_pct > 0 && self.scan_len == 0 {
            return Err("scan_pct > 0 requires scan_len >= 1".into());
        }
        if self.mix.drain_pct > 0 && self.drain_batch == 0 {
            return Err("drain_pct > 0 requires drain_batch >= 1".into());
        }
        match self.structure {
            GenStructure::HashMap { buckets } => {
                if buckets == 0 {
                    return Err("hashmap needs >= 1 bucket".into());
                }
                if self.mix.scan_pct > 0 || self.mix.drain_pct > 0 {
                    return Err("hashmap supports read/insert/delete only".into());
                }
            }
            GenStructure::BTree => {
                if self.mix.drain_pct > 0 {
                    return Err("btree supports read/insert/delete/scan only".into());
                }
            }
            GenStructure::Queue => {
                if self.mix.read_pct > 0 || self.mix.scan_pct > 0 {
                    return Err("queue supports insert/delete/drain only".into());
                }
            }
        }
        if let Skew::Zipfian { theta_milli } = self.skew {
            if theta_milli == 0 || theta_milli >= 1000 {
                return Err("zipfian theta_milli must be in 1..=999".into());
            }
        }
        Ok(())
    }

    /// The effective key universe for `params`.
    pub fn effective_key_range(&self, params: &WorkloadParams) -> u64 {
        if self.key_range > 0 {
            self.key_range
        } else {
            (params.init_ops as u64).max(16) * 2
        }
    }
}

/// Creates one thread's generated structures in `image` via `alloc`.
fn build_gen_structures(
    spec: &GenSpec,
    image: &mut WordImage,
    alloc: &mut NodeAlloc,
) -> Structures {
    let mut m = DirectMem::new(image);
    match spec.structure {
        GenStructure::HashMap { buckets } => Structures::Maps(
            (0..spec.per_thread).map(|_| HashMapStruct::create(&mut m, alloc, buckets)).collect(),
        ),
        GenStructure::BTree => {
            Structures::BTrees((0..spec.per_thread).map(|_| BTree::create(&mut m, alloc)).collect())
        }
        GenStructure::Queue => {
            Structures::Queues((0..spec.per_thread).map(|_| Queue::create(&mut m, alloc)).collect())
        }
    }
}

/// Draws one key according to the spec's skew.
fn draw_key(zipf: Option<&Zipfian>, key_range: u64, rng: &mut SplitMix64) -> u64 {
    match zipf {
        Some(z) => z.draw(rng),
        None => rng.below(key_range),
    }
}

/// Draws one load-phase op (uniform keys, structure-appropriate
/// insert — YCSB's load phase).
fn draw_init_op(spec: &GenSpec, key_range: u64, rng: &mut SplitMix64) -> OpSpec {
    let s = rng.below(spec.per_thread as u64) as usize;
    match spec.structure {
        GenStructure::HashMap { .. } => {
            let key = rng.below(key_range);
            OpSpec::MapInsert { s, key, value: rng.next_u64() >> 32 }
        }
        GenStructure::BTree => {
            let key = rng.below(key_range);
            OpSpec::TreeInsert { s, key, value: rng.next_u64() >> 32 }
        }
        GenStructure::Queue => OpSpec::Enqueue { s, value: (rng.next_u64() >> 32) + 1 },
    }
}

/// Draws one run-phase op from the mix.
fn draw_sim_op(
    spec: &GenSpec,
    key_range: u64,
    zipf: Option<&Zipfian>,
    rng: &mut SplitMix64,
) -> OpSpec {
    let s = rng.below(spec.per_thread as u64) as usize;
    let roll = rng.below(100) as u32;
    let m = &spec.mix;
    // Cumulative thresholds in declaration order: read, insert,
    // delete, scan, drain.
    let (t_read, t_insert, t_delete, t_scan) = (
        m.read_pct as u32,
        m.read_pct as u32 + m.insert_pct as u32,
        m.read_pct as u32 + m.insert_pct as u32 + m.delete_pct as u32,
        m.read_pct as u32 + m.insert_pct as u32 + m.delete_pct as u32 + m.scan_pct as u32,
    );
    match spec.structure {
        GenStructure::HashMap { .. } => {
            let key = draw_key(zipf, key_range, rng);
            if roll < t_read {
                OpSpec::MapLookup { s, key }
            } else if roll < t_insert {
                OpSpec::MapInsert { s, key, value: rng.next_u64() >> 32 }
            } else {
                OpSpec::MapDelete { s, key }
            }
        }
        GenStructure::BTree => {
            let key = draw_key(zipf, key_range, rng);
            if roll < t_read {
                OpSpec::TreeLookup { s, key }
            } else if roll < t_insert {
                OpSpec::TreeInsert { s, key, value: rng.next_u64() >> 32 }
            } else if roll < t_delete {
                OpSpec::TreeDelete { s, key }
            } else {
                OpSpec::TreeScan { s, key, len: spec.scan_len }
            }
        }
        GenStructure::Queue => {
            if roll < t_insert {
                OpSpec::Enqueue { s, value: (rng.next_u64() >> 32) + 1 }
            } else if roll < t_scan {
                OpSpec::Dequeue { s }
            } else {
                OpSpec::QueueDrain { s, n: spec.drain_batch }
            }
        }
    }
}

/// Generates a workload from `spec`. The emission path
/// (`emit_op_group`) is shared with Table 2 generation, so the crash
/// oracle's per-thread discipline holds.
///
/// # Panics
///
/// Panics if `spec` fails [`GenSpec::validate`] or a thread's arena is
/// exhausted — same contract as `workloads::generate`.
pub fn generate_gen(spec: &GenSpec, params: &WorkloadParams) -> GeneratedWorkload {
    assert!(params.threads > 0, "need at least one thread");
    if let Err(e) = spec.validate() {
        panic!("invalid gen spec {}: {e}", spec.name);
    }
    let key_range = spec.effective_key_range(params);
    let zipf = match spec.skew {
        Skew::Uniform => None,
        Skew::Zipfian { theta_milli } => Some(Zipfian::new(key_range, theta_milli as f64 / 1000.0)),
    };

    let mut image = WordImage::new();
    let mut programs = Vec::with_capacity(params.threads);
    for t in 0..params.threads {
        let mut alloc = thread_alloc(t);
        let mut rng = SplitMix64::new(params.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));

        let structures = build_gen_structures(spec, &mut image, &mut alloc);

        for _ in 0..params.init_ops {
            let op = draw_init_op(spec, key_range, &mut rng);
            let mut m = DirectMem::new(&mut image);
            run_op(&mut m, &mut alloc, &structures, op);
        }

        let lock_base = lock_base_for(t);
        let mut program = Program::new(ThreadId::new(t as u32));
        let mut remaining = params.sim_ops;
        let mut group = Vec::with_capacity(spec.tx_ops as usize);
        while remaining > 0 {
            let k = remaining.min(spec.tx_ops as usize);
            group.clear();
            for _ in 0..k {
                group.push(draw_sim_op(spec, key_range, zipf.as_ref(), &mut rng));
            }
            emit_op_group(&mut image, &mut program, &mut alloc, &structures, &group, lock_base);
            remaining -= k;
        }
        program.validate().expect("generated program must validate");
        programs.push(program);
    }

    GeneratedWorkload {
        name: format!("{}x{}", spec.name, params.threads),
        programs,
        initial_image: image,
        sharing: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_types::stable_hash_value;

    pub(crate) fn tiny_spec() -> GenSpec {
        GenSpec {
            name: "tiny-kv".into(),
            structure: GenStructure::HashMap { buckets: 16 },
            per_thread: 2,
            key_range: 0,
            mix: OpMix { read_pct: 40, insert_pct: 40, delete_pct: 20, scan_pct: 0, drain_pct: 0 },
            skew: Skew::Uniform,
            scan_len: 0,
            tx_ops: 1,
            drain_batch: 0,
        }
    }

    fn params() -> WorkloadParams {
        WorkloadParams { threads: 2, init_ops: 100, sim_ops: 40, seed: 77 }
    }

    #[test]
    fn generation_is_deterministic() {
        let (s, p) = (tiny_spec(), params());
        let a = generate_gen(&s, &p);
        let b = generate_gen(&s, &p);
        assert_eq!(a.programs, b.programs);
        assert_eq!(a.initial_image, b.initial_image);
    }

    #[test]
    fn every_structure_kind_generates_valid_programs() {
        let specs = [
            tiny_spec(),
            GenSpec {
                name: "tiny-scan".into(),
                structure: GenStructure::BTree,
                mix: OpMix {
                    read_pct: 10,
                    insert_pct: 20,
                    delete_pct: 0,
                    scan_pct: 70,
                    drain_pct: 0,
                },
                scan_len: 4,
                ..tiny_spec()
            },
            GenSpec {
                name: "tiny-stream".into(),
                structure: GenStructure::Queue,
                mix: OpMix {
                    read_pct: 0,
                    insert_pct: 80,
                    delete_pct: 10,
                    scan_pct: 0,
                    drain_pct: 10,
                },
                drain_batch: 3,
                tx_ops: 2,
                ..tiny_spec()
            },
        ];
        for s in specs {
            let w = generate_gen(&s, &params());
            assert_eq!(w.programs.len(), 2, "{}", s.name);
            assert!(w.total_transactions() > 0, "{}", s.name);
            for p in &w.programs {
                p.validate().unwrap();
            }
        }
    }

    #[test]
    fn tx_ops_batches_transactions() {
        // Write-only mix: every group is durable, so tx counts are
        // exact (read-only groups would emit untransacted).
        let mut write_only = tiny_spec();
        write_only.mix =
            OpMix { read_pct: 0, insert_pct: 70, delete_pct: 30, scan_pct: 0, drain_pct: 0 };
        let mut batched = write_only.clone();
        batched.tx_ops = 4;
        let p = params();
        let single = generate_gen(&write_only, &p);
        let grouped = generate_gen(&batched, &p);
        // 40 sim ops: 40 txs single vs 10 txs batched (per thread).
        assert_eq!(single.total_transactions(), 80);
        assert_eq!(grouped.total_transactions(), 20);
    }

    #[test]
    fn readonly_mix_emits_no_transactions() {
        let mut ro = tiny_spec();
        ro.mix = OpMix { read_pct: 100, insert_pct: 0, delete_pct: 0, scan_pct: 0, drain_pct: 0 };
        let w = generate_gen(&ro, &params());
        assert_eq!(w.total_transactions(), 0);
        for p in &w.programs {
            assert!(!p.ops.is_empty());
        }
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let mut s = tiny_spec();
        s.mix.read_pct = 41; // sums to 101
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.structure = GenStructure::Queue; // read_pct > 0 invalid on queue
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.skew = Skew::Zipfian { theta_milli: 1000 };
        assert!(s.validate().is_err());
        let mut s = tiny_spec();
        s.tx_ops = 0;
        assert!(s.validate().is_err());
        assert!(tiny_spec().validate().is_ok());
    }

    #[test]
    fn spec_hash_separates_every_knob() {
        let base = tiny_spec();
        let mut variants = vec![base.clone()];
        let mut v = base.clone();
        v.name = "other".into();
        variants.push(v);
        let mut v = base.clone();
        v.structure = GenStructure::HashMap { buckets: 17 };
        variants.push(v);
        let mut v = base.clone();
        v.per_thread = 3;
        variants.push(v);
        let mut v = base.clone();
        v.key_range = 1024;
        variants.push(v);
        let mut v = base.clone();
        v.mix.read_pct = 41;
        variants.push(v);
        let mut v = base.clone();
        v.skew = Skew::Zipfian { theta_milli: 990 };
        variants.push(v);
        let mut v = base.clone();
        v.scan_len = 9;
        variants.push(v);
        let mut v = base.clone();
        v.tx_ops = 2;
        variants.push(v);
        let mut v = base.clone();
        v.drain_batch = 5;
        variants.push(v);
        let hashes: std::collections::HashSet<u64> =
            variants.iter().map(stable_hash_value).collect();
        assert_eq!(hashes.len(), variants.len(), "knob not separated in GenSpec hash");
    }

    #[test]
    fn zipfian_skews_generated_keys() {
        let mut s = tiny_spec();
        s.key_range = 10_000;
        // The run phase's draw under `Skew::Zipfian { theta_milli: 990 }`.
        let zipf = Zipfian::new(s.key_range, 0.99);
        let mut rng = SplitMix64::new(5);
        let keys: Vec<u64> = (0..400)
            .map(|_| match draw_sim_op(&s, s.key_range, Some(&zipf), &mut rng) {
                OpSpec::MapLookup { key, .. }
                | OpSpec::MapInsert { key, .. }
                | OpSpec::MapDelete { key, .. } => key,
                op => panic!("a hash-map mix drew {op:?}"),
            })
            .collect();
        let hot = keys.iter().filter(|&&k| k < 100).count();
        assert!(hot > 80, "zipfian head too cold: {hot}/400 in top 1%");
    }
}
