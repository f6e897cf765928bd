//! Scheme expansion: compiling logical programs into micro-op traces.
//!
//! The paper evaluates one set of benchmarks under several logging
//! implementations (§6). This module is the corresponding "compiler":
//! [`expand_program`] takes a scheme-independent [`Program`] and produces
//! the instruction trace that scheme would execute.
//!
//! * [`LoggingSchemeKind::SwPmem`] / [`LoggingSchemeKind::SwPmemPcommit`] —
//!   the four-step software undo protocol of Fig. 2, built from loads,
//!   stores, `clwb`, `sfence` (and `pcommit`).
//! * [`LoggingSchemeKind::NoLog`] — data persistence only (the ideal).
//! * [`LoggingSchemeKind::Atom`] — no logging instructions; hardware logs
//!   at store retirement (the trace carries `tx-begin`/`tx-end` so the
//!   core knows transaction boundaries).
//! * [`LoggingSchemeKind::Proteus`] / [`LoggingSchemeKind::ProteusNoLwr`] —
//!   each transactional store expands into `log-load; log-flush; st`
//!   exactly as in Fig. 4.
//! * [`LoggingSchemeKind::Incll`] — in-cache-line logging: the undo
//!   entry is co-located in the mutated line, with an external-entry
//!   fallback (see the private `incll` module's docs).
//!
//! Dispatch is table-driven: every per-scheme behaviour lives in one
//! [`registry::SchemeDescriptor`] row, and [`expand_program_with`] simply
//! calls the descriptor's expansion hook.

mod hw;
mod incll;
mod nolog;
pub mod registry;
mod sw;

use crate::isa::Trace;
use crate::layout::AddressLayout;
use crate::pmem::WordImage;
use crate::program::Program;
use proteus_types::config::LoggingSchemeKind;
use proteus_types::SimError;
use std::sync::Arc;

/// Options controlling expansion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpandOptions {
    /// Number of log registers available for round-robin allocation in the
    /// Proteus expansion (Table 1: 8).
    pub log_registers: usize,
    /// Initial memory contents, used by the software expansion to
    /// materialise undo-log values (software reads the data it logs; the
    /// expansion pre-executes those reads so store micro-ops carry literal
    /// values). Shared via [`Arc`] so per-core expansion never deep-copies
    /// the image; the software expansion clones the contents only when it
    /// actually needs a mutable pre-execution scratch copy.
    pub initial_image: Arc<WordImage>,
}

impl Default for ExpandOptions {
    fn default() -> Self {
        ExpandOptions { log_registers: 8, initial_image: Arc::new(WordImage::new()) }
    }
}

/// Expands `program` into the micro-op trace executed under `kind`, with
/// default options (8 log registers, zeroed initial memory).
///
/// # Errors
///
/// Returns an error if the program fails [`Program::validate`], or if the
/// software expansion overflows the per-thread log area within one
/// transaction.
pub fn expand_program(
    program: &Program,
    kind: LoggingSchemeKind,
    layout: &AddressLayout,
) -> Result<Trace, SimError> {
    expand_program_with(program, kind, layout, &ExpandOptions::default())
}

/// Expands `program` with explicit [`ExpandOptions`].
///
/// # Errors
///
/// See [`expand_program`].
pub fn expand_program_with(
    program: &Program,
    kind: LoggingSchemeKind,
    layout: &AddressLayout,
    opts: &ExpandOptions,
) -> Result<Trace, SimError> {
    program.validate()?;
    (registry::descriptor(kind).expand)(program, layout, opts)
}

/// An ordered set of cache lines dirtied within a transaction, used to
/// emit one `clwb` per line at commit (Table 2: one node update needs one
/// `clwb`).
#[derive(Debug, Default)]
pub(crate) struct DirtyLines {
    order: Vec<proteus_types::addr::LineAddr>,
    seen: std::collections::HashSet<proteus_types::addr::LineAddr>,
}

impl DirtyLines {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(&mut self, addr: proteus_types::Addr) {
        let line = addr.line();
        if self.seen.insert(line) {
            self.order.push(line);
        }
    }

    pub(crate) fn drain(&mut self) -> Vec<proteus_types::addr::LineAddr> {
        self.seen.clear();
        std::mem::take(&mut self.order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Uop;
    use proteus_types::{Addr, ThreadId};

    fn simple_program() -> Program {
        let mut p = Program::new(ThreadId::new(0));
        let a = Addr::new(0x1000_0000);
        let b = Addr::new(0x1000_0040);
        p.tx_begin(vec![a, b]);
        p.read(a);
        p.write(a, 1);
        p.write(b, 2);
        p.tx_end();
        p
    }

    #[test]
    fn every_scheme_expands() {
        let layout = AddressLayout::default();
        let p = simple_program();
        for kind in LoggingSchemeKind::ALL {
            let t = expand_program(&p, kind, &layout).unwrap();
            assert!(!t.is_empty(), "{kind:?} produced empty trace");
            assert_eq!(t.transactions, 1);
            assert_eq!(t.thread, p.thread);
        }
    }

    #[test]
    fn instruction_count_ordering_matches_paper() {
        // SW logging executes the most instructions, NoLog the fewest,
        // Proteus in between (close to NoLog + 2 per store).
        let layout = AddressLayout::default();
        let p = simple_program();
        let sw = expand_program(&p, LoggingSchemeKind::SwPmem, &layout).unwrap().len();
        let proteus = expand_program(&p, LoggingSchemeKind::Proteus, &layout).unwrap().len();
        let atom = expand_program(&p, LoggingSchemeKind::Atom, &layout).unwrap().len();
        let nolog = expand_program(&p, LoggingSchemeKind::NoLog, &layout).unwrap().len();
        assert!(sw > proteus, "sw={sw} proteus={proteus}");
        assert!(proteus > atom, "proteus={proteus} atom={atom}");
        assert!(atom >= nolog, "atom={atom} nolog={nolog}");
    }

    #[test]
    fn validation_errors_propagate() {
        let layout = AddressLayout::default();
        let mut p = Program::new(ThreadId::new(0));
        p.tx_end();
        assert!(expand_program(&p, LoggingSchemeKind::Proteus, &layout).is_err());
    }

    #[test]
    fn dirty_lines_dedup_in_order() {
        let mut d = DirtyLines::new();
        d.record(Addr::new(0x100));
        d.record(Addr::new(0x108)); // same line
        d.record(Addr::new(0x140));
        d.record(Addr::new(0x100));
        let lines = d.drain();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].base(), Addr::new(0x100));
        assert_eq!(lines[1].base(), Addr::new(0x140));
        assert!(d.drain().is_empty());
    }

    #[test]
    fn hw_traces_carry_tx_markers_sw_traces_do_not() {
        let layout = AddressLayout::default();
        let p = simple_program();
        let has_tx = |t: &Trace| {
            t.count_matching(|u| matches!(u, Uop::TxBegin { .. } | Uop::TxEnd { .. })) > 0
        };
        assert!(has_tx(&expand_program(&p, LoggingSchemeKind::Atom, &layout).unwrap()));
        assert!(has_tx(&expand_program(&p, LoggingSchemeKind::Proteus, &layout).unwrap()));
        assert!(!has_tx(&expand_program(&p, LoggingSchemeKind::SwPmem, &layout).unwrap()));
        assert!(!has_tx(&expand_program(&p, LoggingSchemeKind::NoLog, &layout).unwrap()));
    }
}
