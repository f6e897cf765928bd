#![warn(missing_docs)]
//! Memory system model: NVM/DRAM bank timing and the memory controller.
//!
//! This crate is the substrate that replaces DRAMSim2 in the paper's
//! evaluation stack. It provides:
//!
//! * [`timing`] — service-latency derivation from the DDR3/NVM timing
//!   parameters of Table 1, with the memory clock converted exactly into
//!   CPU cycles;
//! * [`bank`] — per-bank row-buffer state machines;
//! * [`controller`] — the memory controller with its read queue, write
//!   pending queue (WPQ), and Proteus' log pending queue (LPQ), the ADR
//!   persistency domain, the write/log arbiter, flash clearing of log
//!   entries at transaction end (§4.3), and ATOM's source-log engine.
//!
//! The controller is message-driven: requesters submit [`request::McRequest`]s
//! with a delivery cycle, call [`controller::MemoryController::tick`] every
//! CPU cycle, and drain [`request::McEvent`]s.

pub mod bank;
pub mod controller;
mod intake;
pub mod persist_event;
pub mod request;
pub mod timing;

pub use controller::{LogDrainMode, MemoryController};
pub use persist_event::{CrashFaults, PersistEvent, PersistEventKind};
pub use request::{McEvent, McRequest};
pub use timing::ServiceTiming;
