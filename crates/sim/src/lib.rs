#![warn(missing_docs)]
//! Full-system integration of the Proteus NVM logging simulator.
//!
//! This crate wires the pieces together — out-of-order cores
//! (`proteus-cpu`), the cache hierarchy (`proteus-cache`), and the memory
//! controller (`proteus-mem`) — into a steppable [`system::System`], and
//! provides the experiment machinery used to regenerate the paper's
//! figures:
//!
//! * [`system::System`] — builds a multicore machine for one workload and
//!   one logging scheme, steps it cycle by cycle, and produces a
//!   [`proteus_types::stats::RunSummary`];
//! * [`runner`] — parameter sweeps across benchmarks, schemes, memory
//!   technologies, and hardware sizes, orchestrated by
//!   `proteus-harness` (worker pool, per-experiment panic isolation,
//!   resume ledger);
//! * [`persist`] — the JSON codec that lets the resume ledger carry
//!   full run summaries across process restarts;
//! * [`report`] — tabular output matching the paper's figure layouts.
//!
//! # Quickstart
//!
//! ```
//! use proteus_sim::runner::{run_one, ExperimentSpec};
//! use proteus_types::config::{LoggingSchemeKind, SystemConfig};
//! use proteus_workloads::{Benchmark, WorkloadParams};
//!
//! let spec = ExperimentSpec {
//!     config: SystemConfig::skylake_like().with_num_cores(1),
//!     scheme: LoggingSchemeKind::Proteus,
//!     bench: Benchmark::Queue.into(),
//!     params: WorkloadParams { threads: 1, init_ops: 50, sim_ops: 20, seed: 1 },
//! };
//! let result = run_one(&spec)?;
//! assert!(result.summary.total_cycles > 0);
//! # Ok::<(), proteus_types::SimError>(())
//! ```

pub mod persist;
pub mod report;
pub mod runner;
pub mod system;

pub use proteus_harness::SweepOptions;
pub use runner::{run_one, run_workload_traced, ExperimentResult, ExperimentSpec};
pub use system::System;
