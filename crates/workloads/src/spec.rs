//! Workload specification and trace generation.
//!
//! [`generate`] builds, for a chosen [`Benchmark`] and parameters, the
//! initial memory image (the fast-forwarded `#InitOps`) and one
//! scheme-independent [`Program`] per thread (the `#SimOps`), mirroring
//! the paper's methodology: per-thread data structures behind locks, a
//! random operation stream from a seeded generator, and conservative
//! per-transaction undo hints computed by a dry run of each operation.

use crate::avl::AvlTree;
use crate::btree::BTree;
use crate::hashmap::HashMapStruct;
use crate::largetx::BigNodeList;
use crate::mem::{CollectMem, DirectMem, EmitMem, Mem, NodeAlloc};
use crate::queue::Queue;
use crate::rbtree::RbTree;
use crate::stringswap::StringArray;
use proteus_core::pmem::WordImage;
use proteus_core::program::{Op, Program};
use proteus_types::rng::Xoshiro256;
use proteus_types::{Addr, FieldHasher, StableHash, StableHasher, ThreadId};

/// Per-thread arena size (64 MiB keeps 16 threads below the log region).
const ARENA_BYTES: u64 = 0x0400_0000;
const DATA_BASE: u64 = 0x1000_0000;

/// Serial application work surrounding every operation, in cycles:
/// reading the operation from the input stream, dispatching on it, and
/// acquiring/releasing the structure's lock. The paper's benchmarks run
/// as full programs ("each benchmark receives an operation type and a
/// key for each operation from an input file", operations take locks),
/// so this uniform cost exists in every scheme and is what keeps logging
/// overhead a *fraction* of execution time rather than a multiple.
pub(crate) const APP_OVERHEAD_CYCLES: u32 = 600;

/// The data arena `[start, end)` owned by thread `t`. Threads touch only
/// their own arena (the paper's share-nothing locking discipline), so
/// per-thread crash-consistency can be checked independently.
pub fn thread_arena(t: ThreadId) -> (Addr, Addr) {
    let start = DATA_BASE + t.index() as u64 * ARENA_BYTES;
    (Addr::new(start), Addr::new(start + ARENA_BYTES))
}

/// The benchmarks of Table 2 plus the §7.3 microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// QE: enqueue/dequeue in 8 queues.
    Queue,
    /// HM: insert/delete in 16 hash maps.
    HashMap,
    /// SS: swap strings in a 262144-item string array.
    StringSwap,
    /// AT: insert/delete in 16 AVL trees.
    AvlTree,
    /// BT: insert/delete in 16 B-trees.
    BTree,
    /// RT: insert/delete in 16 red-black trees.
    RbTree,
    /// §7.3 microbenchmark: large transactions updating `elements`
    /// elements per node.
    LargeTx {
        /// Elements updated per transaction (1024-8192 in Table 3).
        elements: u64,
    },
}

impl Benchmark {
    /// The six Table 2 benchmarks, in the paper's figure order.
    pub const TABLE2: [Benchmark; 6] = [
        Benchmark::Queue,
        Benchmark::HashMap,
        Benchmark::StringSwap,
        Benchmark::AvlTree,
        Benchmark::BTree,
        Benchmark::RbTree,
    ];

    /// The paper's abbreviation.
    pub fn abbrev(&self) -> &'static str {
        match self {
            Benchmark::Queue => "QE",
            Benchmark::HashMap => "HM",
            Benchmark::StringSwap => "SS",
            Benchmark::AvlTree => "AT",
            Benchmark::BTree => "BT",
            Benchmark::RbTree => "RT",
            Benchmark::LargeTx { .. } => "LT",
        }
    }

    /// Table 2 `(#InitOps, #SimOps)` per thread.
    pub fn table2_ops(&self) -> (usize, usize) {
        match self {
            Benchmark::Queue => (20_000, 50_000),
            Benchmark::HashMap => (100_000, 20_000),
            Benchmark::StringSwap => (20_000, 50_000),
            Benchmark::AvlTree | Benchmark::BTree | Benchmark::RbTree => (100_000, 10_000),
            Benchmark::LargeTx { .. } => (0, 200),
        }
    }

    /// Structures per system (Table 2), partitioned across threads.
    fn structure_count(&self) -> usize {
        match self {
            Benchmark::Queue => 8,
            Benchmark::HashMap => 16,
            Benchmark::StringSwap => 1,
            Benchmark::AvlTree | Benchmark::BTree | Benchmark::RbTree => 16,
            Benchmark::LargeTx { .. } => 4,
        }
    }
}

impl StableHash for Benchmark {
    fn stable_hash(&self, h: &mut StableHasher) {
        let mut f = FieldHasher::new("Benchmark");
        f.field("kind", self.abbrev());
        if let Benchmark::LargeTx { elements } = self {
            f.field("elements", elements);
        }
        h.write_u64(f.finish());
    }
}

/// Generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadParams {
    /// Number of threads (= cores in the headline experiments).
    pub threads: usize,
    /// Initialisation operations per thread (fast-forwarded).
    pub init_ops: usize,
    /// Simulated operations (durable transactions) per thread.
    pub sim_ops: usize,
    /// RNG seed for the operation stream.
    pub seed: u64,
}

impl StableHash for WorkloadParams {
    fn stable_hash(&self, h: &mut StableHasher) {
        let mut f = FieldHasher::new("WorkloadParams");
        f.field("threads", &self.threads)
            .field("init_ops", &self.init_ops)
            .field("sim_ops", &self.sim_ops)
            .field("seed", &self.seed);
        h.write_u64(f.finish());
    }
}

impl WorkloadParams {
    /// Table 2 parameters scaled by `scale` (e.g. 0.02 for quick runs).
    pub fn table2(bench: Benchmark, threads: usize, scale: f64) -> Self {
        let (init, sim) = bench.table2_ops();
        WorkloadParams {
            threads,
            init_ops: ((init as f64 * scale) as usize).max(1),
            sim_ops: ((sim as f64 * scale) as usize).max(1),
            seed: 0x5EED_0001,
        }
    }

    /// Replaces the seed with one derived structurally from the
    /// benchmark and the remaining (seed-independent) parameters.
    ///
    /// Every distinct experiment shape gets its own deterministic
    /// stream — scaling a sweep up does not replay a prefix of another
    /// configuration's operations — while the same shape always
    /// regenerates bit-identical workloads, on any platform, which is
    /// what makes resume ledgers and cross-run comparisons sound.
    pub fn with_derived_seed(mut self, bench: Benchmark) -> Self {
        let mut f = FieldHasher::new("WorkloadSeed");
        f.field("bench", &bench)
            .field("threads", &self.threads)
            .field("init_ops", &self.init_ops)
            .field("sim_ops", &self.sim_ops);
        self.seed = f.finish();
        self
    }
}

/// A generated workload: the initial image plus per-thread programs.
#[derive(Debug, Clone)]
pub struct GeneratedWorkload {
    /// Benchmark abbreviation plus parameters.
    pub name: String,
    /// One program per thread.
    pub programs: Vec<Program>,
    /// Memory contents after initialisation (fast-forward).
    pub initial_image: WordImage,
    /// The global lock schedule, for contended workloads only
    /// (`None` for every single-owner workload — the discriminant the
    /// crash oracle reads to take its commit groups from the plan or
    /// from each thread's transactions).
    pub sharing: Option<crate::contended::SharingPlan>,
}

impl GeneratedWorkload {
    /// Total durable transactions across threads.
    pub fn total_transactions(&self) -> u64 {
        self.programs.iter().map(Program::transaction_count).sum()
    }

    /// Stable digest of what the workload runs: every thread's program,
    /// op by op, and every nonzero word of the initial image, in address
    /// order. Two workloads with the same digest run identically under
    /// every scheme, so a saved workload stores its selector and params
    /// plus this digest, and loading it regenerates and compares.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.programs.len() as u64);
        for p in &self.programs {
            h.write_u64(p.thread.index() as u64);
            h.write_u64(p.ops.len() as u64);
            for op in &p.ops {
                hash_op(&mut h, op);
            }
        }
        let words = self.initial_image.diff(&WordImage::new());
        h.write_u64(words.len() as u64);
        for addr in words {
            h.write_u64(addr.raw());
            h.write_u64(self.initial_image.read_word(addr));
        }
        h.finish()
    }
}

fn hash_op(h: &mut StableHasher, op: &Op) {
    match op {
        Op::Read(a) => {
            h.write_u8(1);
            h.write_u64(a.raw());
        }
        Op::ReadDep(a) => {
            h.write_u8(2);
            h.write_u64(a.raw());
        }
        Op::Write(a, v) => {
            h.write_u8(3);
            h.write_u64(a.raw());
            h.write_u64(*v);
        }
        Op::Compute(latency) => {
            h.write_u8(4);
            h.write_u8(*latency);
        }
        Op::TxBegin { undo_hint } => {
            h.write_u8(5);
            h.write_u64(undo_hint.len() as u64);
            for a in undo_hint {
                h.write_u64(a.raw());
            }
        }
        Op::TxEnd => h.write_u8(6),
        Op::LockWait { addr, ticket, external } => {
            h.write_u8(7);
            h.write_u64(addr.raw());
            h.write_u64(*ticket);
            h.write_u64(external.len() as u64);
            for (a, v) in external {
                h.write_u64(a.raw());
                h.write_u64(*v);
            }
        }
    }
}

/// The per-thread data structures an operation stream runs against.
///
/// Public so the generator in `proteus-workgen` builds its structures
/// here and feeds its drawn [`OpSpec`]s through [`run_op`] and
/// [`emit_op_group`], the path Table 2 generation takes.
#[derive(Debug, Clone)]
pub enum Structures {
    /// Linked-list queues (QE).
    Queues(Vec<Queue>),
    /// Chained hash maps (HM and generated key-value mixes).
    Maps(Vec<HashMapStruct>),
    /// A string array (SS).
    Strings(StringArray),
    /// AVL trees (AT).
    Avls(Vec<AvlTree>),
    /// B-trees (BT and generated scan mixes).
    BTrees(Vec<BTree>),
    /// Red-black trees (RT).
    RbTrees(Vec<RbTree>),
    /// The §7.3 large-transaction node list (LT).
    BigList(BigNodeList),
}

/// One structure operation, the unit every generator draws.
///
/// The structure index `s` selects among the thread's own structures;
/// keys and values are plain integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // fields are explained in each variant's doc line
pub enum OpSpec {
    /// Enqueue `value` on queue `s`.
    Enqueue { s: usize, value: u64 },
    /// Dequeue from queue `s`.
    Dequeue { s: usize },
    /// Insert/update `key -> value` in map `s`.
    MapInsert { s: usize, key: u64, value: u64 },
    /// Delete `key` from map `s`.
    MapDelete { s: usize, key: u64 },
    /// Swap strings `i` and `j`.
    Swap { i: u64, j: u64 },
    /// Insert `key` (with `value` where the tree stores one) in tree `s`.
    TreeInsert { s: usize, key: u64, value: u64 },
    /// Delete `key` from tree `s`.
    TreeDelete { s: usize, key: u64 },
    /// Rewrite every element of big node `node` from `base`.
    BigUpdate { node: u64, base: u64 },
    /// Point lookup of `key` in map `s` (read-only).
    MapLookup { s: usize, key: u64 },
    /// Point lookup of `key` in tree `s` (read-only).
    TreeLookup { s: usize, key: u64 },
    /// Scan `len` consecutive keys from `key` in tree `s` (read-only).
    ///
    /// Approximates a range scan with `len` successive point lookups —
    /// the trees store dense integer keys, so consecutive lookups walk
    /// the same leaf neighbourhood a range iterator would.
    TreeScan { s: usize, key: u64, len: u32 },
    /// Dequeue up to `n` nodes from queue `s` (stops when empty).
    QueueDrain { s: usize, n: u32 },
}

impl OpSpec {
    /// True when the operation never writes persistent data. Read-only
    /// groups are emitted without a durable transaction (writes outside
    /// a tx are what need undo hints, reads need none).
    pub fn is_readonly(&self) -> bool {
        matches!(
            self,
            OpSpec::MapLookup { .. } | OpSpec::TreeLookup { .. } | OpSpec::TreeScan { .. }
        )
    }
}

/// Applies `op` to `structures` through any [`Mem`] implementation.
pub fn run_op<M: Mem>(mem: &mut M, alloc: &mut NodeAlloc, structures: &Structures, op: OpSpec) {
    match (structures, op) {
        (Structures::Queues(qs), OpSpec::Enqueue { s, value }) => qs[s].enqueue(mem, alloc, value),
        (Structures::Queues(qs), OpSpec::Dequeue { s }) => {
            qs[s].dequeue(mem);
        }
        (Structures::Maps(ms), OpSpec::MapInsert { s, key, value }) => {
            ms[s].insert(mem, alloc, key, value);
        }
        (Structures::Maps(ms), OpSpec::MapDelete { s, key }) => {
            ms[s].delete(mem, key);
        }
        (Structures::Strings(arr), OpSpec::Swap { i, j }) => arr.swap(mem, i, j),
        (Structures::Avls(ts), OpSpec::TreeInsert { s, key, value }) => {
            ts[s].insert(mem, alloc, key, value)
        }
        (Structures::Avls(ts), OpSpec::TreeDelete { s, key }) => {
            ts[s].delete(mem, key);
        }
        (Structures::BTrees(ts), OpSpec::TreeInsert { s, key, .. }) => {
            ts[s].insert(mem, alloc, key);
        }
        (Structures::BTrees(ts), OpSpec::TreeDelete { s, key }) => {
            ts[s].delete(mem, key);
        }
        (Structures::RbTrees(ts), OpSpec::TreeInsert { s, key, value }) => {
            ts[s].insert(mem, alloc, key, value)
        }
        (Structures::RbTrees(ts), OpSpec::TreeDelete { s, key }) => {
            ts[s].delete(mem, key);
        }
        (Structures::BigList(list), OpSpec::BigUpdate { node, base }) => {
            list.update_node(mem, node, base)
        }
        (Structures::Maps(ms), OpSpec::MapLookup { s, key }) => {
            ms[s].get(mem, key);
        }
        (Structures::Avls(ts), OpSpec::TreeLookup { s, key }) => {
            ts[s].get(mem, key);
        }
        (Structures::BTrees(ts), OpSpec::TreeLookup { s, key }) => {
            ts[s].contains(mem, key);
        }
        (Structures::RbTrees(ts), OpSpec::TreeLookup { s, key }) => {
            ts[s].get(mem, key);
        }
        (Structures::Avls(ts), OpSpec::TreeScan { s, key, len }) => {
            for i in 0..len as u64 {
                ts[s].get(mem, key.wrapping_add(i));
            }
        }
        (Structures::BTrees(ts), OpSpec::TreeScan { s, key, len }) => {
            for i in 0..len as u64 {
                ts[s].contains(mem, key.wrapping_add(i));
            }
        }
        (Structures::RbTrees(ts), OpSpec::TreeScan { s, key, len }) => {
            for i in 0..len as u64 {
                ts[s].get(mem, key.wrapping_add(i));
            }
        }
        (Structures::Queues(qs), OpSpec::QueueDrain { s, n }) => {
            for _ in 0..n {
                if qs[s].dequeue(mem).is_none() {
                    break;
                }
            }
        }
        _ => unreachable!("op does not match structure kind"),
    }
}

/// The index of the structure `op` targets (used for lock assignment).
pub fn op_struct_index(op: OpSpec) -> usize {
    match op {
        OpSpec::Enqueue { s, .. }
        | OpSpec::Dequeue { s }
        | OpSpec::MapInsert { s, .. }
        | OpSpec::MapDelete { s, .. }
        | OpSpec::TreeInsert { s, .. }
        | OpSpec::TreeDelete { s, .. }
        | OpSpec::MapLookup { s, .. }
        | OpSpec::TreeLookup { s, .. }
        | OpSpec::TreeScan { s, .. }
        | OpSpec::QueueDrain { s, .. } => s,
        OpSpec::Swap { .. } | OpSpec::BigUpdate { .. } => 0,
    }
}

fn pick_op(
    bench: Benchmark,
    per_thread: usize,
    key_range: u64,
    items: u64,
    big_nodes: u64,
    rng: &mut Xoshiro256,
) -> OpSpec {
    match bench {
        Benchmark::Queue => {
            let s = rng.random_range(0..per_thread as u64) as usize;
            if rng.random_bool(0.5) {
                OpSpec::Enqueue { s, value: rng.next_u32() as u64 + 1 }
            } else {
                OpSpec::Dequeue { s }
            }
        }
        Benchmark::HashMap => {
            let s = rng.random_range(0..per_thread as u64) as usize;
            let key = rng.random_range(0..key_range);
            if rng.random_bool(0.5) {
                OpSpec::MapInsert { s, key, value: rng.next_u32() as u64 }
            } else {
                OpSpec::MapDelete { s, key }
            }
        }
        Benchmark::StringSwap => {
            let i = rng.random_range(0..items);
            let mut j = rng.random_range(0..items);
            if j == i {
                j = (j + 1) % items;
            }
            OpSpec::Swap { i, j }
        }
        Benchmark::AvlTree | Benchmark::BTree | Benchmark::RbTree => {
            let s = rng.random_range(0..per_thread as u64) as usize;
            let key = rng.random_range(0..key_range);
            if rng.random_bool(0.5) {
                OpSpec::TreeInsert { s, key, value: rng.next_u32() as u64 }
            } else {
                OpSpec::TreeDelete { s, key }
            }
        }
        Benchmark::LargeTx { .. } => {
            OpSpec::BigUpdate { node: rng.random_range(0..big_nodes), base: rng.next_u32() as u64 }
        }
    }
}

/// A fresh node allocator covering thread `t`'s 64 MiB arena.
pub fn thread_alloc(t: usize) -> NodeAlloc {
    NodeAlloc::new(Addr::new(DATA_BASE + t as u64 * ARENA_BYTES), ARENA_BYTES)
}

/// The base of thread `t`'s lock-word line.
///
/// Per-thread lock words (one per owned structure, 8 slots) are
/// volatile runtime state: they live outside the persistent data arena
/// and take no undo logging — after a crash, lock state is meaningless
/// (the paper's locking is for mutual exclusion only).
pub fn lock_base_for(t: usize) -> Addr {
    Addr::new(0x0E00_0000 + t as u64 * 64)
}

/// One thread's freshly created structures plus the derived generation
/// bounds the op stream draws from.
#[derive(Debug)]
struct ThreadStructures {
    structures: Structures,
    /// Structures owned by this thread.
    per_thread: usize,
    /// Key universe for map/tree operations.
    key_range: u64,
    /// String-array item count (SS only, 0 otherwise).
    items: u64,
    /// Big-node count (LT only, 0 otherwise).
    big_nodes: u64,
}

/// Creates one thread's structures in `image` via `alloc`.
fn build_thread_structures(
    bench: Benchmark,
    params: &WorkloadParams,
    image: &mut WordImage,
    alloc: &mut NodeAlloc,
) -> ThreadStructures {
    let per_thread = (bench.structure_count() / params.threads).max(1);
    let key_range = (params.init_ops as u64).max(16) * 2;
    let mut m = DirectMem::new(image);
    let (structures, items, big_nodes) = match bench {
        Benchmark::Queue => (
            Structures::Queues((0..per_thread).map(|_| Queue::create(&mut m, alloc)).collect()),
            0,
            0,
        ),
        Benchmark::HashMap => (
            Structures::Maps(
                (0..per_thread).map(|_| HashMapStruct::create(&mut m, alloc, 256)).collect(),
            ),
            0,
            0,
        ),
        Benchmark::StringSwap => {
            // 262144 items across threads, scaled with init_ops
            // (the array is the structure; init swaps shuffle it).
            let items =
                ((262_144 / params.threads) as u64).min((params.init_ops as u64 + 1) * 4).max(16);
            (Structures::Strings(StringArray::create(&mut m, alloc, items)), items, 0)
        }
        Benchmark::AvlTree => (
            Structures::Avls((0..per_thread).map(|_| AvlTree::create(&mut m, alloc)).collect()),
            0,
            0,
        ),
        Benchmark::BTree => (
            Structures::BTrees((0..per_thread).map(|_| BTree::create(&mut m, alloc)).collect()),
            0,
            0,
        ),
        Benchmark::RbTree => (
            Structures::RbTrees((0..per_thread).map(|_| RbTree::create(&mut m, alloc)).collect()),
            0,
            0,
        ),
        Benchmark::LargeTx { elements } => {
            let nodes = 16;
            (Structures::BigList(BigNodeList::create(&mut m, alloc, nodes, elements)), 0, nodes)
        }
    };
    ThreadStructures { structures, per_thread, key_range, items, big_nodes }
}

/// Emits one operation group into `program`, mutating `image`.
///
/// A group is the unit of durability: a combined conservative undo
/// hint is collected by dry-running every op, then all ops execute
/// inside a single `TxBegin`/`TxEnd` bracket behind the structures'
/// locks. Groups whose ops are all read-only skip the dry run and the
/// transaction entirely (reads need no undo coverage) but still pay
/// the application preamble and locking. A single mutating op emits
/// byte-identically to the historical per-op path.
pub fn emit_op_group(
    image: &mut WordImage,
    program: &mut Program,
    alloc: &mut NodeAlloc,
    structures: &Structures,
    ops: &[OpSpec],
    lock_base: Addr,
) {
    if ops.is_empty() {
        return;
    }
    let durable = ops.iter().any(|op| !op.is_readonly());
    let hint_nodes = if durable {
        let mut c = CollectMem::new(image);
        let mut scratch_alloc = alloc.clone();
        for &op in ops {
            run_op(&mut c, &mut scratch_alloc, structures, op);
        }
        c.hint()
    } else {
        Vec::new()
    };

    // Application preamble: parse each operation from the input stream.
    for _ in ops {
        let mut remaining = APP_OVERHEAD_CYCLES;
        while remaining > 0 {
            let chunk = remaining.min(200) as u8;
            program.compute(chunk);
            remaining -= chunk as u32;
        }
    }

    // Take each touched structure's lock once, in first-use order.
    let mut locks: Vec<Addr> = Vec::new();
    for &op in ops {
        let lock = lock_base.offset((op_struct_index(op) % 8) as u64 * 8);
        if !locks.contains(&lock) {
            locks.push(lock);
        }
    }
    for &lock in &locks {
        program.read(lock);
        program.write(lock, 1);
    }

    if durable {
        // Cover both 32-byte grains of each 64-byte node.
        let hint: Vec<Addr> = hint_nodes.iter().flat_map(|n| [*n, n.offset(32)]).collect();
        program.tx_begin(hint);
    }
    {
        let mut e = EmitMem::new(image, program);
        for &op in ops {
            run_op(&mut e, alloc, structures, op);
        }
    }
    if durable {
        program.tx_end();
    }
    for &lock in locks.iter().rev() {
        program.write(lock, 0);
    }
}

/// Generates the workload.
///
/// # Panics
///
/// Panics if a thread's 64 MiB node arena is exhausted (reduce the op
/// counts) or if generation produces an invalid program (a bug).
pub fn generate(bench: Benchmark, params: &WorkloadParams) -> GeneratedWorkload {
    assert!(params.threads > 0, "need at least one thread");
    let mut image = WordImage::new();
    let mut programs = Vec::with_capacity(params.threads);

    for t in 0..params.threads {
        let mut alloc = thread_alloc(t);
        let mut rng = Xoshiro256::seed_from_u64(params.seed ^ (t as u64).wrapping_mul(0x9E37));

        let ts = build_thread_structures(bench, params, &mut image, &mut alloc);

        // Fast-forwarded initialisation.
        for _ in 0..params.init_ops {
            let op = pick_op(bench, ts.per_thread, ts.key_range, ts.items, ts.big_nodes, &mut rng);
            let mut m = DirectMem::new(&mut image);
            run_op(&mut m, &mut alloc, &ts.structures, op);
        }

        let lock_base = lock_base_for(t);

        // Simulated operations: dry-run for the hint, then emit.
        let mut program = Program::new(ThreadId::new(t as u32));
        for _ in 0..params.sim_ops {
            let op = pick_op(bench, ts.per_thread, ts.key_range, ts.items, ts.big_nodes, &mut rng);
            emit_op_group(&mut image, &mut program, &mut alloc, &ts.structures, &[op], lock_base);
        }
        program.validate().expect("generated program must validate");
        programs.push(program);
    }

    GeneratedWorkload {
        name: format!("{}x{}", bench.abbrev(), params.threads),
        programs,
        initial_image: image,
        sharing: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(bench: Benchmark) -> GeneratedWorkload {
        let params = WorkloadParams { threads: 2, init_ops: 200, sim_ops: 50, seed: 42 };
        generate(bench, &params)
    }

    #[test]
    fn every_benchmark_generates_valid_programs() {
        for bench in Benchmark::TABLE2 {
            let w = small(bench);
            assert_eq!(w.programs.len(), 2, "{bench:?}");
            assert_eq!(w.total_transactions(), 100, "{bench:?}");
            for p in &w.programs {
                p.validate().unwrap();
                assert!(!p.ops.is_empty());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small(Benchmark::RbTree);
        let b = small(Benchmark::RbTree);
        assert_eq!(a.programs, b.programs);
        assert_eq!(a.initial_image, b.initial_image);
    }

    #[test]
    fn digest_sees_every_program_op_and_image_word() {
        let w = small(Benchmark::Queue);
        let base = w.digest();
        assert_eq!(base, small(Benchmark::Queue).digest(), "generation is deterministic");
        let mut edits: Vec<GeneratedWorkload> = Vec::new();
        let mut t = w.clone();
        let last = t.programs[1].ops.len() - 1;
        t.programs[1].ops[last] = Op::Compute(1);
        edits.push(t);
        let mut t = w.clone();
        t.programs[0].ops.pop();
        edits.push(t);
        let mut t = w.clone();
        t.programs.swap(0, 1);
        edits.push(t);
        let addr = w.initial_image.diff(&WordImage::new())[0];
        let mut t = w.clone();
        t.initial_image.write_word(addr, w.initial_image.read_word(addr) + 1);
        edits.push(t);
        let mut t = w.clone();
        t.initial_image.write_word(Addr::new(0x0F00_0000), 1);
        edits.push(t);
        for (i, t) in edits.iter().enumerate() {
            assert_ne!(t.digest(), base, "edit {i} went unseen");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = small(Benchmark::HashMap);
        let params = WorkloadParams { threads: 2, init_ops: 200, sim_ops: 50, seed: 43 };
        let b = generate(Benchmark::HashMap, &params);
        assert_ne!(a.programs, b.programs);
    }

    #[test]
    fn programs_replay_functionally() {
        // Applying each program on the initial image must not panic and
        // must end in a state consistent with validation (writes covered
        // by hints implies recovery soundness tested elsewhere).
        for bench in [Benchmark::Queue, Benchmark::AvlTree, Benchmark::BTree] {
            let w = small(bench);
            let mut img = w.initial_image.clone();
            for p in &w.programs {
                p.apply_functionally(&mut img);
            }
        }
    }

    #[test]
    fn threads_touch_disjoint_arenas() {
        let w = small(Benchmark::HashMap);
        let ranges: Vec<(u64, u64)> = (0..2u64)
            .map(|t| (DATA_BASE + t * ARENA_BYTES, DATA_BASE + (t + 1) * ARENA_BYTES))
            .collect();
        for (t, p) in w.programs.iter().enumerate() {
            for op in &p.ops {
                if let Op::Write(addr, _) = op {
                    // Volatile lock words live below the persistent heap,
                    // one line per thread.
                    if addr.raw() < DATA_BASE {
                        assert_eq!(addr.raw() & !63, 0x0E00_0000 + t as u64 * 64);
                        continue;
                    }
                    let (lo, hi) = ranges[t];
                    assert!(
                        addr.raw() >= lo && addr.raw() < hi,
                        "thread {t} wrote outside its arena: {addr}"
                    );
                }
            }
        }
    }

    #[test]
    fn largetx_scales_write_set() {
        let params = WorkloadParams { threads: 1, init_ops: 0, sim_ops: 3, seed: 7 };
        let small = generate(Benchmark::LargeTx { elements: 256 }, &params);
        let large = generate(Benchmark::LargeTx { elements: 1024 }, &params);
        let writes = |w: &GeneratedWorkload| {
            w.programs[0].ops.iter().filter(|o| matches!(o, Op::Write(..))).count()
        };
        assert!(writes(&large) >= writes(&small) * 3);
    }

    #[test]
    fn derived_seeds_are_stable_and_shape_sensitive() {
        let base = WorkloadParams { threads: 2, init_ops: 200, sim_ops: 50, seed: 0 };
        let a = base.clone().with_derived_seed(Benchmark::HashMap);
        let b = base.clone().with_derived_seed(Benchmark::HashMap);
        // Deterministic: shape alone decides the seed.
        assert_eq!(a.seed, b.seed);
        // The starting seed value does not leak into the derivation.
        let c = WorkloadParams { seed: 999, ..base.clone() }.with_derived_seed(Benchmark::HashMap);
        assert_eq!(a.seed, c.seed);
        // Every shape dimension separates streams.
        assert_ne!(a.seed, base.clone().with_derived_seed(Benchmark::Queue).seed);
        assert_ne!(
            a.seed,
            WorkloadParams { threads: 4, ..base.clone() }
                .with_derived_seed(Benchmark::HashMap)
                .seed
        );
        assert_ne!(
            a.seed,
            WorkloadParams { sim_ops: 51, ..base.clone() }
                .with_derived_seed(Benchmark::HashMap)
                .seed
        );
        // LargeTx sizes are distinct shapes.
        assert_ne!(
            base.clone().with_derived_seed(Benchmark::LargeTx { elements: 1024 }).seed,
            base.clone().with_derived_seed(Benchmark::LargeTx { elements: 2048 }).seed
        );
    }

    #[test]
    fn derived_seed_generates_identical_workloads() {
        let params = WorkloadParams { threads: 2, init_ops: 100, sim_ops: 20, seed: 0 }
            .with_derived_seed(Benchmark::RbTree);
        let a = generate(Benchmark::RbTree, &params);
        let b = generate(Benchmark::RbTree, &params);
        assert_eq!(a.programs, b.programs);
        assert_eq!(a.initial_image, b.initial_image);
    }

    #[test]
    fn benchmark_stable_hashes_distinct() {
        use proteus_types::stable_hash_value;
        let all = [
            Benchmark::Queue,
            Benchmark::HashMap,
            Benchmark::StringSwap,
            Benchmark::AvlTree,
            Benchmark::BTree,
            Benchmark::RbTree,
            Benchmark::LargeTx { elements: 1024 },
            Benchmark::LargeTx { elements: 8192 },
        ];
        let hashes: std::collections::HashSet<u64> = all.iter().map(stable_hash_value).collect();
        assert_eq!(hashes.len(), all.len());
    }

    #[test]
    fn table2_params_scale() {
        let p = WorkloadParams::table2(Benchmark::AvlTree, 4, 0.01);
        assert_eq!(p.init_ops, 1000);
        assert_eq!(p.sim_ops, 100);
        let p = WorkloadParams::table2(Benchmark::Queue, 4, 1.0);
        assert_eq!(p.init_ops, 20_000);
        assert_eq!(p.sim_ops, 50_000);
    }
}
