#![warn(missing_docs)]
//! Experiment orchestration for the Proteus NVM logging simulator.
//!
//! A full reproduction sweep is hundreds of simulator runs, each
//! minutes long at paper scale. This crate owns the machinery that
//! makes such sweeps practical:
//!
//! - **Scheduling** ([`scheduler`]): a shared-queue worker pool with a
//!   configurable width and input-order result collection.
//! - **Panic isolation**: each job runs once under `catch_unwind`; a
//!   crashing experiment is recorded as
//!   [`proteus_types::JobOutcome::Crashed`] instead of killing its
//!   siblings.
//! - **Resumable ledger** ([`ledger`]): a JSON Lines checkpoint keyed
//!   by the experiment's stable spec hash
//!   ([`proteus_types::StableHash`]), appended and flushed as each job
//!   finishes. Re-running the sweep with the same ledger skips
//!   already-completed jobs and restores their payloads.
//! - **Progress**: an optional stderr line per finished job (outcome,
//!   wall time, metric rate) and a sweep summary with worker
//!   utilisation.
//!
//! The crate depends only on `std` and `proteus-types`: it is the
//! layer that must not fail, so it takes no dependencies that could
//! be missing (offline builds) or could themselves panic.
//!
//! # Example
//!
//! ```
//! use proteus_harness::{Harness, JobSpec, Json, PayloadCodec, SweepOptions};
//!
//! let codec = PayloadCodec { encode: |v: &u64| Json::U64(*v), decode: Json::as_u64 };
//! let jobs: Vec<JobSpec> =
//!     (0..4).map(|i| JobSpec::new(format!("double/{i}"), 0xC0FFEE + i)).collect();
//! let report = Harness::new(codec, |v| *v, "doublings")
//!     .run(&jobs, &SweepOptions::default(), |i| Ok(i as u64 * 2))
//!     .unwrap();
//! assert!(report.is_all_completed());
//! assert_eq!(report.into_payloads(), Ok(vec![0, 2, 4, 6]));
//! ```

pub mod json;
pub mod ledger;
pub mod report;
pub mod scheduler;

pub use json::Json;
pub use ledger::{LedgerRecord, LedgerSnapshot, LedgerWriter};
pub use report::human_rate;
pub use scheduler::{Harness, JobResult, JobSpec, PayloadCodec, SweepOptions, SweepReport};
