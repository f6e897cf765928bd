#![warn(missing_docs)]
//! Proteus durable-transaction logging for non-volatile main memory.
//!
//! This crate is the reproduction of the paper's primary contribution:
//! *software supported hardware logging* (SSHL) for durable transactions,
//! plus every logging scheme it is compared against. It provides:
//!
//! * the micro-op ISA including the paper's new `log-load` / `log-flush`
//!   instructions and the Intel PMEM operations (`clwb`, `sfence`,
//!   `pcommit`) — [`isa`];
//! * a functional model of persistent memory contents — [`pmem`];
//! * the 64-byte log entry format (32 B data + log-from address + txID +
//!   flags) — [`entry`];
//! * per-thread circular log areas and the physical address-space layout —
//!   [`logarea`] and [`layout`];
//! * the "compiler": expansion of logical durable transactions into the
//!   micro-op sequence each logging scheme executes — [`program`] and
//!   [`scheme`];
//! * crash-image recovery for both the software (logFlag) and hardware
//!   (txID + commit marker) protocols — [`recovery`].
//!
//! The cycle-level machine that *executes* the micro-ops lives in the
//! `proteus-cpu`, `proteus-cache`, and `proteus-mem` crates; full-system
//! wiring lives in `proteus-sim`.
//!
//! # Example
//!
//! ```
//! use proteus_core::program::Program;
//! use proteus_core::scheme::expand_program;
//! use proteus_core::layout::AddressLayout;
//! use proteus_types::config::LoggingSchemeKind;
//! use proteus_types::{Addr, ThreadId};
//!
//! let layout = AddressLayout::default();
//! let mut prog = Program::new(ThreadId::new(0));
//! prog.tx_begin(vec![Addr::new(0x1000_0000)]);
//! prog.write(Addr::new(0x1000_0000), 42);
//! prog.tx_end();
//! let trace = expand_program(&prog, LoggingSchemeKind::Proteus, &layout)?;
//! assert!(!trace.uops.is_empty());
//! # Ok::<(), proteus_types::SimError>(())
//! ```

pub mod entry;
pub mod isa;
pub mod layout;
pub mod logarea;
pub mod pmem;
pub mod program;
pub mod recovery;
pub mod scheme;

pub use entry::LogEntry;
pub use isa::{Trace, Uop};
pub use layout::AddressLayout;
pub use logarea::LogArea;
pub use pmem::WordImage;
pub use program::{Op, Program};
pub use recovery::{recover, RecoveryReport};
pub use scheme::expand_program;
