#![warn(missing_docs)]
//! Cycle-level out-of-order core model with hardware logging support.
//!
//! One [`core::Core`] executes a micro-op [`proteus_core::Trace`] through a
//! model with the structural limits of Table 1 (224-entry ROB, 5-wide
//! dispatch/retire, 72/56-entry load/store queues) plus the paper's
//! logging hardware:
//!
//! * [`llt::Llt`] — the Log Lookup Table (§4.2) that elides repeated
//!   logging of the same 32-byte grain within a transaction;
//! * [`logq::LogQ`] — tracks in-flight `log-flush` operations, assigns
//!   log-to addresses in program order, and enforces the write-ahead
//!   ordering between a log flush and stores to the same grain;
//! * [`logq::LogRegFile`] — the 8 log registers holding in-flight log
//!   entries;
//! * the ATOM engine (inside [`core::Core`]) — creates log entries at
//!   store retirement and delays the store's retirement until the memory
//!   controller acknowledges the entry, reproducing ATOM's pipeline
//!   back-pressure.
//!
//! The core is driven by a surrounding system (see `proteus-sim`): each
//! cycle it is ticked with mutable access to the shared [`proteus_cache::CacheSystem`],
//! emits memory-controller requests, and receives [`proteus_mem::McEvent`]s.

pub mod core;
pub mod llt;
pub mod logq;

pub use crate::core::{Core, SkipCredit};
pub use llt::Llt;
pub use logq::{LogQ, LogRegFile};
