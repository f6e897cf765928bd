//! Fault models layered on the crash point.
//!
//! A crash point says *when* power is lost; a [`FaultSpec`] says *how*.
//! Each variant maps onto the controller-level [`CrashFaults`] knobs and
//! states whether the scheme is still expected to recover consistently:
//!
//! * [`FaultSpec::Clean`] — the ADR contract holds exactly. Consistency
//!   expected from every failure-safe scheme.
//! * [`FaultSpec::TornLine`] — in-service NVMM line writes land torn
//!   (only the masked words). The controller keeps in-service entries
//!   queue-resident until bank-write completion, so a correct ADR drain
//!   overwrites the torn line: consistency is *still* expected, and this
//!   fault is a regression tripwire for an ack-early controller bug.
//! * [`FaultSpec::PartialAdr`] — the dying battery drains only a prefix
//!   of each queue. This exceeds the guarantee the schemes were built on,
//!   so violations are *expected detections*, proving the checker can see
//!   real torn states (they are excluded from the "zero violations"
//!   accounting of clean sweeps).

use proteus_mem::CrashFaults;
use proteus_types::{FieldHasher, StableHash, StableHasher};
use std::fmt;

/// How the dying machine deviates from a clean ADR drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Full ADR drain; the acknowledged-durable contract holds.
    Clean,
    /// In-service line writes land torn: bit i of `mask` ⇒ word i of the
    /// 64-byte line reached the array before the queues were drained.
    TornLine {
        /// Word-survival mask for in-service writes.
        mask: u8,
    },
    /// Only a prefix of each persistency-domain queue survives.
    PartialAdr {
        /// WPQ entries drained before the battery died.
        wpq_keep: usize,
        /// LPQ entries drained before the battery died.
        lpq_keep: usize,
    },
}

impl FaultSpec {
    /// The controller-level fault knobs for this model.
    pub fn to_crash_faults(self) -> CrashFaults {
        match self {
            FaultSpec::Clean => CrashFaults::clean(),
            FaultSpec::TornLine { mask } => {
                CrashFaults { torn_word_mask: Some(mask), ..CrashFaults::clean() }
            }
            FaultSpec::PartialAdr { wpq_keep, lpq_keep } => CrashFaults {
                wpq_survivors: Some(wpq_keep),
                lpq_survivors: Some(lpq_keep),
                ..CrashFaults::clean()
            },
        }
    }

    /// Whether a failure-safe scheme is still expected to recover to a
    /// transaction boundary under this fault.
    pub fn expects_consistency(self) -> bool {
        !matches!(self, FaultSpec::PartialAdr { .. })
    }

    /// Short job-name label (`clean`, `torn:0f`, `adr:2+1`).
    pub fn label(self) -> String {
        match self {
            FaultSpec::Clean => "clean".to_string(),
            FaultSpec::TornLine { mask } => format!("torn:{mask:02x}"),
            FaultSpec::PartialAdr { wpq_keep, lpq_keep } => format!("adr:{wpq_keep}+{lpq_keep}"),
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl StableHash for FaultSpec {
    fn stable_hash(&self, h: &mut StableHasher) {
        let mut f = FieldHasher::new("FaultSpec");
        f.field("kind", &self.label());
        h.write_u64(f.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_is_the_clean_controller_model() {
        assert!(FaultSpec::Clean.to_crash_faults().is_clean());
        assert!(FaultSpec::Clean.expects_consistency());
    }

    #[test]
    fn torn_expects_consistency_but_partial_adr_does_not() {
        let torn = FaultSpec::TornLine { mask: 0x0F };
        assert_eq!(torn.to_crash_faults().torn_word_mask, Some(0x0F));
        assert!(torn.expects_consistency());
        let partial = FaultSpec::PartialAdr { wpq_keep: 2, lpq_keep: 0 };
        assert_eq!(partial.to_crash_faults().wpq_survivors, Some(2));
        assert_eq!(partial.to_crash_faults().lpq_survivors, Some(0));
        assert!(!partial.expects_consistency());
    }

    #[test]
    fn labels_distinguish_every_variant() {
        let labels = [
            FaultSpec::Clean.label(),
            FaultSpec::TornLine { mask: 0xF0 }.label(),
            FaultSpec::PartialAdr { wpq_keep: 1, lpq_keep: 2 }.label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }
}
