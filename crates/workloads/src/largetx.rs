//! The §7.3 large-transaction microbenchmark.
//!
//! "We implemented a microbenchmark with variable-sized, large
//! transactions based on the linked list benchmark. The number of
//! elements updated per node is taken as a variable" — each list node
//! carries a large element array, and one transaction walks to a node and
//! updates every element, generating 20-156× more log entries per
//! transaction than the Table 2 benchmarks.

use crate::mem::{Mem, NodeAlloc};
use proteus_types::Addr;

const HDR_NEXT: u64 = 0;
const HDR_ID: u64 = 8;
const HDR_BYTES: u64 = 64;

/// A linked list of nodes each holding `elements` 8-byte elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BigNodeList {
    head: Addr,
    elements: u64,
    nodes: u64,
}

impl BigNodeList {
    /// Builds a list of `nodes` nodes with `elements` elements each.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn create<M: Mem>(mem: &mut M, alloc: &mut NodeAlloc, nodes: u64, elements: u64) -> Self {
        assert!(nodes > 0, "list needs at least one node");
        let mut head = 0u64;
        // Build back to front so head links forward.
        let mut addrs = Vec::new();
        for _ in 0..nodes {
            addrs.push(alloc.alloc_bytes(HDR_BYTES + elements * 8));
        }
        for (i, addr) in addrs.iter().enumerate().rev() {
            mem.write(addr.offset(HDR_NEXT), head);
            mem.write(addr.offset(HDR_ID), i as u64);
            head = addr.raw();
        }
        BigNodeList { head: Addr::new(head), elements, nodes }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Elements per node.
    pub fn elements(&self) -> u64 {
        self.elements
    }

    /// Walks to node `index` (emitting header reads) and returns its
    /// address.
    fn walk<M: Mem>(&self, mem: &mut M, index: u64) -> Addr {
        assert!(index < self.nodes, "node index out of range");
        let mut cur = self.head;
        for _ in 0..index {
            cur = Addr::new(mem.read_dep(cur.offset(HDR_NEXT)));
        }
        cur
    }

    /// One §7.3 transaction: update every element of node `index` to
    /// `value_base + element_index`. Hints every touched line so the
    /// software baseline logs the full write set.
    pub fn update_node<M: Mem>(&self, mem: &mut M, index: u64, value_base: u64) {
        let node = self.walk(mem, index);
        let data = node.offset(HDR_BYTES);
        let lines = (self.elements * 8).div_ceil(64);
        for l in 0..lines {
            mem.hint_node(data.offset(l * 64));
        }
        for e in 0..self.elements {
            mem.write(data.offset(e * 8), value_base + e);
        }
    }

    /// Reads element `e` of node `index` (test helper).
    pub fn element<M: Mem>(&self, mem: &mut M, index: u64, e: u64) -> u64 {
        let node = self.walk(mem, index);
        mem.read(node.offset(HDR_BYTES + e * 8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{durable_transaction, DirectMem};
    use proteus_core::pmem::WordImage;
    use proteus_core::program::{Op, Program};
    use proteus_types::ThreadId;

    #[test]
    fn update_touches_every_element() {
        let mut img = WordImage::new();
        let mut alloc = NodeAlloc::new(Addr::new(0x1000_0000), 1 << 24);
        let mut m = DirectMem::new(&mut img);
        let list = BigNodeList::create(&mut m, &mut alloc, 4, 128);
        list.update_node(&mut m, 2, 1000);
        for e in 0..128 {
            assert_eq!(list.element(&mut m, 2, e), 1000 + e);
        }
        assert_eq!(list.element(&mut m, 1, 0), 0, "other nodes untouched");
    }

    #[test]
    fn hint_covers_whole_write_set() {
        let mut img = WordImage::new();
        let mut alloc = NodeAlloc::new(Addr::new(0x1000_0000), 1 << 24);
        let list = {
            let mut m = DirectMem::new(&mut img);
            BigNodeList::create(&mut m, &mut alloc, 2, 1024)
        };
        let mut program = Program::new(ThreadId::new(0));
        durable_transaction(&mut img, &mut program, |m| list.update_node(m, 1, 7));
        // 1024 elements * 8 B = 8 KiB = 128 lines, two grains each.
        let Op::TxBegin { undo_hint } = &program.ops[0] else { panic!("tx_begin first") };
        assert_eq!(undo_hint.len(), 2 * 128);
        program.validate().unwrap();
    }
}
