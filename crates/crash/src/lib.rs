#![warn(missing_docs)]
//! Crash-point exploration for the Proteus NVM logging simulator.
//!
//! The rest of the workspace *runs* transactions; this crate asks the
//! only question that justifies the logging hardware in the first place:
//! **if power dies at an arbitrary durable-state transition, does
//! recovery always land on a transaction boundary?** It answers it
//! systematically instead of anecdotally:
//!
//! * [`oracle`] — the transaction-consistency oracle,
//!   [`oracle::WorkloadOracle`]: a recovered image must equal, per
//!   structure, a commit prefix of its groups, closed under every
//!   thread's program order. A contended workload's structures and lock
//!   groups come from its sharing plan; a share-nothing thread is one
//!   structure whose groups are its transactions. Every consumer
//!   (explorer, shrinker, replayer, property tests, example) shares this
//!   one judgement.
//! * [`fault`] — crash fault models beyond the clean ADR drain: torn
//!   64-byte line writes and prefix-only battery drains.
//! * [`explore`] — the crash-point engine: crash points are persist-event
//!   indices (every durable acceptance, drain, clear, and marker stamp in
//!   the memory controller), explored exhaustively for small executions
//!   and via seeded stratified sampling for large ones.
//! * [`sweep`] — fan-out of exploration jobs through `proteus-harness`
//!   (worker pool, panic isolation, resumable ledger).
//! * [`repro`] — shrinking of violations to a minimal workload + crash
//!   point, saved as a replayable JSON artifact.
//!
//! The checker validates itself: the test-only
//! `disable_persist_ordering` configuration knob breaks the core's
//! write-ahead gate (stores release before their log entry is durable),
//! and the integration tests require that exploration *catches* the
//! resulting torn states and shrinks them to a replayable repro.

pub mod explore;
pub mod fault;
pub mod oracle;
pub mod repro;
pub mod sweep;

pub use explore::{choose_points, explore, ExploreOutcome, ExploreSpec, ViolationPoint};
pub use fault::FaultSpec;
pub use oracle::WorkloadOracle;
pub use repro::{shrink, CrashRepro, ReplayOutcome, REPRO_VERSION};
pub use sweep::sweep;
