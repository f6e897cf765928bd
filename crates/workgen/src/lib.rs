#![warn(missing_docs)]
//! Generated workloads and the workload roster for the Proteus
//! simulator.
//!
//! Layered on `proteus-workloads`' public op model:
//!
//! - **[`WorkloadSel`]** — the workload selector experiment/crash
//!   specs carry: a paper `Benchmark` (hash- and codec-transparent
//!   with the pre-existing bare enum), a generated [`GenSpec`], or a
//!   contended shared-structure spec.
//! - **The generator** ([`gen`]) — composable op-mix / skew / tx-size /
//!   scan-length / working-set knobs with named presets registered in
//!   the [`roster`] (mirroring the scheme registry), so `reproduce`,
//!   the bench basket, the crashsweep, and the contention sweep pick
//!   new workloads up automatically.
//! - **The codecs** ([`codec`]) — JSON for selectors and params, and
//!   the saved-workload file: a selector, its params and the digest of
//!   what they generate, which loading regenerates and checks.

pub mod codec;
pub mod gen;
pub mod rng;
pub mod roster;
pub mod sel;

pub use gen::{generate_gen, GenSpec, GenStructure, OpMix, Skew};
pub use rng::{skew_fingerprint, Zipfian};
pub use sel::WorkloadSel;
