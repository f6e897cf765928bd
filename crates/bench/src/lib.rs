#![warn(missing_docs)]
//! Experiment definitions regenerating every table and figure of the
//! paper's evaluation (§6-§7).
//!
//! Each `figN`/`tableN` function in [`experiments`] runs the
//! corresponding experiment and returns a formatted report; the
//! `reproduce` binary prints them.

pub mod experiments;
pub mod golden;

pub use experiments::*;
