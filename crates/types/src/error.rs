//! Simulator error type.

use crate::ids::{CoreId, ThreadId};
use std::error::Error;
use std::fmt;

/// Errors surfaced by the simulator's public API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration failed validation.
    InvalidConfig(String),
    /// A thread's log area overflowed within a single transaction; the
    /// paper specifies the processor raises an exception in this case
    /// (§4.1).
    LogAreaOverflow {
        /// Thread whose log wrapped onto live entries.
        thread: ThreadId,
        /// Configured log area capacity in entries.
        capacity: usize,
    },
    /// A logging instruction executed outside a transaction.
    LoggingOutsideTransaction {
        /// The offending core.
        core: CoreId,
    },
    /// A `tx-begin` was issued while a transaction was already open.
    NestedTransaction {
        /// The offending core.
        core: CoreId,
    },
    /// A `tx-end` was issued with no open transaction.
    UnmatchedTxEnd {
        /// The offending core.
        core: CoreId,
    },
    /// Recovery found a corrupt or inconsistent log image.
    CorruptLog(String),
    /// The workload asked for more threads than the system has cores,
    /// or than its address layout has log areas.
    TooManyThreads {
        /// Requested thread count.
        requested: usize,
        /// Threads the machine can run: the smaller of its core count
        /// and its layout's thread capacity.
        available: usize,
    },
    /// A harness job panicked. The worker caught the panic, so the
    /// sweep's sibling jobs still ran; the crashed job's result carries
    /// this error, and all-or-nothing sweeps return the first one.
    WorkerPanic {
        /// Human-readable job name (`<bench>/<scheme>/...`).
        job: String,
        /// Panic payload message.
        message: String,
    },
    /// A file could not be read or written: the harness's resume
    /// ledger, or an artifact a `reproduce` target reads or writes
    /// (crash repro, saved workload, benchmark report).
    HarnessIo(String),
    /// The crash-consistency checker found a recovered image that matches
    /// no transaction boundary of its workload (`proteus-crash`).
    ConsistencyViolation(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::LogAreaOverflow { thread, capacity } => {
                write!(f, "log area overflow on {thread}: transaction exceeded {capacity} entries")
            }
            SimError::LoggingOutsideTransaction { core } => {
                write!(f, "logging instruction outside a transaction on {core}")
            }
            SimError::NestedTransaction { core } => {
                write!(f, "nested tx-begin on {core}")
            }
            SimError::UnmatchedTxEnd { core } => {
                write!(f, "tx-end without open transaction on {core}")
            }
            SimError::CorruptLog(msg) => write!(f, "corrupt log image: {msg}"),
            SimError::TooManyThreads { requested, available } => {
                write!(f, "workload requested {requested} threads but the machine runs at most {available}")
            }
            SimError::WorkerPanic { job, message } => {
                write!(f, "experiment job '{job}' panicked: {message}")
            }
            SimError::HarnessIo(msg) => write!(f, "harness i/o failure: {msg}"),
            SimError::ConsistencyViolation(msg) => {
                write!(f, "crash-consistency violation: {msg}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_period() {
        let e = SimError::LogAreaOverflow { thread: ThreadId::new(2), capacity: 128 };
        let s = e.to_string();
        assert!(s.starts_with("log area overflow"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_trait_object_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
        let boxed: Box<dyn Error + Send + Sync> =
            Box::new(SimError::TooManyThreads { requested: 8, available: 4 });
        assert!(boxed.to_string().contains("at most 4"));
    }

    #[test]
    fn variants_format_distinctly() {
        let msgs = [
            SimError::InvalidConfig("x".into()).to_string(),
            SimError::NestedTransaction { core: CoreId::new(0) }.to_string(),
            SimError::UnmatchedTxEnd { core: CoreId::new(0) }.to_string(),
            SimError::CorruptLog("bad".into()).to_string(),
            SimError::TooManyThreads { requested: 8, available: 4 }.to_string(),
        ];
        let unique: std::collections::HashSet<_> = msgs.iter().collect();
        assert_eq!(unique.len(), msgs.len());
    }
}
