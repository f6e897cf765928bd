//! Memory access abstraction for workload generation.
//!
//! Data-structure operations are written once against the [`Mem`] trait
//! and executed in two modes:
//!
//! * [`DirectMem`] — initialization fast-forward: reads and writes apply
//!   straight to the image, emitting nothing;
//! * [`EmitMem`] — the simulated run: every access appends an [`Op`] to
//!   the thread's program and applies to the image, and every write and
//!   [`Mem::hint_node`] records its 64-byte node.
//!
//! Each operation runs once. An undo-logging transaction's log set is
//! the nodes it writes plus the ones it declares it may write, so the
//! nodes [`EmitMem`] records in first-touch order *are* the conservative
//! undo hint: [`durable_transaction`] emits `tx_begin` with an empty
//! hint, runs the body, and then fills that `tx_begin` in. The program
//! reads as if the hint had been known up front, which is how a
//! programmer writes the conservative logging code the paper describes.

use proteus_core::pmem::WordImage;
use proteus_core::program::{Op, Program};
use proteus_types::{Addr, FastSet};

/// Word-level memory interface used by data-structure operations.
pub trait Mem {
    /// Reads the word at `addr`.
    fn read(&mut self, addr: Addr) -> u64;
    /// Reads a word whose address was produced by an earlier read
    /// (pointer chasing). [`EmitMem`] compiles this to a dependent load
    /// so traversals serialise like real hardware; [`DirectMem`] treats
    /// it as [`Mem::read`].
    fn read_dep(&mut self, addr: Addr) -> u64 {
        self.read(addr)
    }
    /// Writes `value` at `addr`.
    fn write(&mut self, addr: Addr, value: u64);
    /// Declares that the 64-byte node at `base` is on the operation's
    /// path and may be modified (conservative undo hint). [`EmitMem`]
    /// records it with the nodes the run writes; a no-op under
    /// [`DirectMem`].
    fn hint_node(&mut self, base: Addr);
    /// Models `cycles` of non-memory work (key comparison, hashing).
    fn compute(&mut self, cycles: u8);
}

/// Direct application to the image (initialization fast-forward).
#[derive(Debug)]
pub struct DirectMem<'a> {
    image: &'a mut WordImage,
}

impl<'a> DirectMem<'a> {
    /// Wraps `image`.
    pub fn new(image: &'a mut WordImage) -> Self {
        DirectMem { image }
    }
}

impl Mem for DirectMem<'_> {
    fn read(&mut self, addr: Addr) -> u64 {
        self.image.read_word(addr)
    }

    fn write(&mut self, addr: Addr, value: u64) {
        self.image.write_word(addr, value);
    }

    fn hint_node(&mut self, _base: Addr) {}

    fn compute(&mut self, _cycles: u8) {}
}

/// Emits program operations and applies them to the image, recording
/// the nodes the run writes or hints.
#[derive(Debug)]
pub struct EmitMem<'a> {
    image: &'a mut WordImage,
    program: &'a mut Program,
    /// Written or hinted 64-byte node bases, in first-touch order.
    nodes: Vec<Addr>,
    seen: FastSet<u64>,
}

impl<'a> EmitMem<'a> {
    /// Emits into `program`, applying to `image`.
    pub fn new(image: &'a mut WordImage, program: &'a mut Program) -> Self {
        EmitMem { image, program, nodes: Vec::new(), seen: FastSet::default() }
    }

    fn touch(&mut self, addr: Addr) {
        let node = addr.raw() & !63;
        if self.seen.insert(node) {
            self.nodes.push(Addr::new(node));
        }
    }
}

impl Mem for EmitMem<'_> {
    fn read(&mut self, addr: Addr) -> u64 {
        self.program.ops.push(Op::Read(addr));
        self.image.read_word(addr)
    }

    fn read_dep(&mut self, addr: Addr) -> u64 {
        self.program.ops.push(Op::ReadDep(addr));
        self.image.read_word(addr)
    }

    fn write(&mut self, addr: Addr, value: u64) {
        self.program.ops.push(Op::Write(addr, value));
        self.image.write_word(addr, value);
        self.touch(addr);
    }

    fn hint_node(&mut self, base: Addr) {
        self.touch(base);
    }

    fn compute(&mut self, cycles: u8) {
        self.program.ops.push(Op::Compute(cycles));
    }
}

/// Runs `body` once as one durable transaction appended to `program`:
/// `tx_begin`, the body through an [`EmitMem`] over `image`, `tx_end`.
/// The `tx_begin`'s undo hint is filled in after the body ran: both
/// 32-byte grains of every node the body wrote or hinted, in first-touch
/// order.
///
/// ```
/// use proteus_core::pmem::WordImage;
/// use proteus_core::program::Program;
/// use proteus_types::{Addr, ThreadId};
/// use proteus_workloads::hashmap::HashMapStruct;
/// use proteus_workloads::mem::{durable_transaction, DirectMem, NodeAlloc};
///
/// let mut image = WordImage::new();
/// let mut alloc = NodeAlloc::new(Addr::new(0x1000_0000), 1 << 20);
/// let map = {
///     let mut m = DirectMem::new(&mut image);
///     HashMapStruct::create(&mut m, &mut alloc, 16)
/// };
/// let mut program = Program::new(ThreadId::new(0));
/// durable_transaction(&mut image, &mut program, |mem| {
///     map.insert(mem, &mut alloc, 7, 700);
/// });
/// assert_eq!(program.transaction_count(), 1);
/// program.validate().unwrap();
/// ```
pub fn durable_transaction(
    image: &mut WordImage,
    program: &mut Program,
    body: impl FnOnce(&mut EmitMem<'_>),
) {
    let begin = program.ops.len();
    program.tx_begin(Vec::new());
    let nodes = {
        let mut emit = EmitMem::new(image, program);
        body(&mut emit);
        emit.nodes
    };
    let undo_hint = nodes.iter().flat_map(|n| [*n, n.offset(32)]).collect();
    program.ops[begin] = Op::TxBegin { undo_hint };
    program.tx_end();
}

/// Deterministic bump allocator for 64-byte nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeAlloc {
    next: u64,
    limit: u64,
}

impl NodeAlloc {
    /// Allocates nodes from `[start, start + capacity_bytes)`.
    pub fn new(start: Addr, capacity_bytes: u64) -> Self {
        assert!(start.is_line_aligned(), "allocator base must be line aligned");
        NodeAlloc { next: start.raw(), limit: start.raw() + capacity_bytes }
    }

    /// Allocates one 64-byte node.
    ///
    /// # Panics
    ///
    /// Panics if the arena is exhausted — enlarge the workload's arena.
    pub fn alloc_node(&mut self) -> Addr {
        assert!(self.next + 64 <= self.limit, "node arena exhausted");
        let a = self.next;
        self.next += 64;
        Addr::new(a)
    }

    /// Allocates `bytes` rounded up to a line multiple.
    pub fn alloc_bytes(&mut self, bytes: u64) -> Addr {
        let rounded = bytes.div_ceil(64) * 64;
        assert!(self.next + rounded <= self.limit, "arena exhausted");
        let a = self.next;
        self.next += rounded;
        Addr::new(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mem_applies() {
        let mut img = WordImage::new();
        let mut m = DirectMem::new(&mut img);
        m.write(Addr::new(0x100), 5);
        assert_eq!(m.read(Addr::new(0x100)), 5);
        assert_eq!(img.read_word(Addr::new(0x100)), 5);
    }

    #[test]
    fn collect_hint_includes_writes_and_hints_in_order() {
        let mut img = WordImage::new();
        let mut p = Program::new(proteus_types::ThreadId::new(0));
        durable_transaction(&mut img, &mut p, |m| {
            m.hint_node(Addr::new(0x200));
            m.write(Addr::new(0x148), 1); // node 0x140
            m.write(Addr::new(0x208), 2); // node 0x200, already hinted
            m.hint_node(Addr::new(0x150)); // node 0x140, already written
            m.write(Addr::new(0x3f8), 3); // node 0x3c0
        });
        let nodes = [0x200, 0x140, 0x3c0];
        let grains: Vec<Addr> =
            nodes.iter().flat_map(|&n| [Addr::new(n), Addr::new(n + 32)]).collect();
        assert_eq!(p.ops[0], Op::TxBegin { undo_hint: grains });
        assert_eq!(p.ops.len(), 5, "tx_begin, three writes, tx_end");
        assert_eq!(p.ops[4], Op::TxEnd);
        p.validate().unwrap();
    }

    #[test]
    fn emit_mem_appends_ops() {
        let mut img = WordImage::new();
        img.write_word(Addr::new(0x100), 7);
        let mut p = Program::new(proteus_types::ThreadId::new(0));
        let mut m = EmitMem::new(&mut img, &mut p);
        assert_eq!(m.read(Addr::new(0x100)), 7);
        m.write(Addr::new(0x108), 9);
        m.compute(3);
        assert_eq!(p.ops.len(), 3);
        assert!(matches!(p.ops[0], Op::Read(_)));
        assert!(matches!(p.ops[1], Op::Write(_, 9)));
        assert!(matches!(p.ops[2], Op::Compute(3)));
        assert_eq!(img.read_word(Addr::new(0x108)), 9);
    }

    #[test]
    fn alloc_is_deterministic_under_clone() {
        let mut a = NodeAlloc::new(Addr::new(0x1000), 4096);
        let mut b = a.clone();
        assert_eq!(a.alloc_node(), b.alloc_node());
        assert_eq!(a.alloc_node(), b.alloc_node());
        let s = a.alloc_bytes(100);
        assert!(s.is_line_aligned());
        assert_eq!(a.alloc_node().raw() - s.raw(), 128, "100 B rounds to 2 lines");
    }

    #[test]
    #[should_panic(expected = "arena exhausted")]
    fn alloc_exhaustion_panics() {
        let mut a = NodeAlloc::new(Addr::new(0x1000), 64);
        a.alloc_node();
        a.alloc_node();
    }
}
