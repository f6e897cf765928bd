#![warn(missing_docs)]
//! Benchmark workloads from Table 2 of the paper, plus the §7.3
//! large-transaction microbenchmark.
//!
//! Each benchmark implements a real persistent data structure over a
//! simulated heap and generates, per thread, a scheme-independent
//! [`proteus_core::Program`] — the operation stream the paper feeds each
//! benchmark from its randomly generated input file:
//!
//! | abbrev | structure | operation |
//! |--------|-----------|-----------|
//! | QE | 8 linked-list queues | enqueue/dequeue |
//! | HM | 16 chained hash maps | insert/delete |
//! | SS | string array (256 B items) | swap two strings |
//! | AT | 16 AVL trees | insert/delete with rotations |
//! | BT | 16 B-trees | insert/delete with splits/merges |
//! | RT | 16 red-black trees | insert/delete with recolouring |
//!
//! Transactions carry a conservative *undo hint* — the node set the
//! operation might modify (for the trees, the whole search path) — which
//! is exactly what makes the software-logging baseline expensive on BT/RT
//! in the paper's Fig. 6.
//!
//! Initialization operations (`#InitOps`) are applied functionally to the
//! initial memory image, mirroring the paper's simulator fast-forward;
//! only `#SimOps` generate instruction traces.

pub mod avl;
pub mod btree;
pub mod contended;
pub mod hashmap;
pub mod largetx;
pub mod mem;
pub mod queue;
pub mod rbtree;
pub mod spec;
pub mod stringswap;

pub use contended::{generate_contended, ContendedKind, ContendedSpec, LockGroup, SharingPlan};
pub use mem::{durable_transaction, CollectMem, DirectMem, EmitMem, Mem, NodeAlloc};
pub use spec::{
    emit_op_group, generate, lock_base_for, op_struct_index, run_op, thread_alloc, thread_arena,
    Benchmark, GeneratedWorkload, OpSpec, Structures, WorkloadParams,
};
