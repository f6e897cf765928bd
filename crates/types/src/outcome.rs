//! Job outcome vocabulary for the experiment harness.
//!
//! One simulation job run by `proteus-harness` ends in exactly one of
//! these states. The harness derives a job's outcome from its result
//! (payload or [`crate::SimError`]) and records it in its resume
//! ledger and progress lines.

use std::fmt;

/// Terminal state of one harness job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job ran to completion and produced a result payload.
    Completed,
    /// The job returned an error (a [`crate::SimError`]).
    Failed {
        /// Rendered error message.
        error: String,
    },
    /// The job panicked; the panic was caught and isolated so sibling
    /// jobs kept running.
    Crashed {
        /// Panic payload message.
        panic: String,
    },
}

impl JobOutcome {
    /// Whether the job completed successfully.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed)
    }

    /// Stable lowercase label, used as the ledger's `outcome` field.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::Failed { .. } => "failed",
            JobOutcome::Crashed { .. } => "crashed",
        }
    }

    /// The failure message, if any.
    pub fn message(&self) -> Option<&str> {
        match self {
            JobOutcome::Completed => None,
            JobOutcome::Failed { error } => Some(error),
            JobOutcome::Crashed { panic } => Some(panic),
        }
    }

    /// Rebuilds an outcome from its ledger representation; `None` for
    /// unknown labels (e.g. a ledger written by a newer version).
    pub fn from_parts(label: &str, message: Option<&str>) -> Option<JobOutcome> {
        match label {
            "completed" => Some(JobOutcome::Completed),
            "failed" => {
                Some(JobOutcome::Failed { error: message.unwrap_or("unknown error").to_string() })
            }
            "crashed" => {
                Some(JobOutcome::Crashed { panic: message.unwrap_or("unknown panic").to_string() })
            }
            _ => None,
        }
    }
}

impl fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOutcome::Completed => f.write_str("completed"),
            JobOutcome::Failed { error } => write!(f, "failed: {error}"),
            JobOutcome::Crashed { panic } => write!(f, "crashed: {panic}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        let outcomes = [
            JobOutcome::Completed,
            JobOutcome::Failed { error: "bad config".into() },
            JobOutcome::Crashed { panic: "index out of bounds".into() },
        ];
        for o in outcomes {
            let back = JobOutcome::from_parts(o.label(), o.message()).unwrap();
            assert_eq!(back, o);
        }
        assert_eq!(JobOutcome::from_parts("exploded", None), None);
    }

    #[test]
    fn only_completed_is_completed() {
        assert!(JobOutcome::Completed.is_completed());
        assert!(!JobOutcome::Failed { error: "e".into() }.is_completed());
        assert!(!JobOutcome::Crashed { panic: "p".into() }.is_completed());
        assert_eq!(JobOutcome::Completed.message(), None);
    }

    #[test]
    fn display_carries_message() {
        let s = JobOutcome::Crashed { panic: "boom".into() }.to_string();
        assert!(s.contains("boom"), "{s}");
    }
}
