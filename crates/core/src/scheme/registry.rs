//! The scheme registry: one descriptor per logging scheme, and the
//! **only** module allowed to `match` on [`LoggingSchemeKind`]
//! (`tools/lint-scheme-dispatch.sh` enforces this from CI).
//!
//! Everything the workspace previously dispatched ad hoc — trace
//! expansion, the recovery protocol, core-side retirement/ordering
//! policy, the memory-controller drain policy, and sweep-roster
//! membership — lives here as data. Adding a scheme is one enum
//! variant + label in `proteus_types::config` (the identity layer that
//! bottom-of-stack crates like the JSON codecs need) plus one
//! [`SchemeDescriptor`] registration in this module; the registry
//! completeness test fails CI on a half-wired scheme, and every sweep
//! (fig6, crashsweep, contention, the cycle-engine bench) picks the new
//! scheme up from the rosters automatically.

use super::{hw, incll, nolog, sw, ExpandOptions};
use crate::isa::Trace;
use crate::layout::AddressLayout;
use crate::pmem::WordImage;
use crate::program::Program;
use crate::recovery::{self, ThreadOutcome, WriteBudget};
use proteus_types::config::LoggingSchemeKind;
use proteus_types::{SimError, ThreadId};

/// Expands one thread's program into the scheme's micro-op trace.
pub type ExpandFn = fn(&Program, &AddressLayout, &ExpandOptions) -> Result<Trace, SimError>;

/// Runs one thread's crash recovery against a durable image, spending
/// durable writes from the budget (see
/// [`recover_with_budget`](crate::recovery::recover_with_budget)).
pub type RecoverFn = fn(
    &mut WordImage,
    &AddressLayout,
    ThreadId,
    &mut WriteBudget,
) -> Result<ThreadOutcome, SimError>;

/// Core-side pipeline policy: which retirement/ordering gates the
/// scheme engages (previously scattered `match`es in `proteus-cpu`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorePolicy {
    /// The Proteus core-side hardware is engaged: log registers, LogQ,
    /// LLT, per-thread log-area cursor driven by trace `tx-begin`/
    /// `tx-end` markers, and the write-ahead gate that holds a store's
    /// cache release until its log flush is acknowledged (§4.2).
    pub proteus_hw: bool,
    /// ATOM posted-log retirement: a transactional store cannot retire
    /// until the MC acknowledges its hardware-created log entry.
    pub atom_retirement: bool,
}

impl CorePolicy {
    /// No core-side logging hardware: stores retire and release like
    /// ordinary PMEM stores (software and no-log schemes).
    pub const NONE: CorePolicy = CorePolicy { proteus_hw: false, atom_retirement: false };
}

/// How a scheme's commit protocol orders a ticket-lock release against
/// its persist barriers — the contended-workload analogue of
/// `failure_safe`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockHandoffPolicy {
    /// The release store is emitted after the transaction's commit point
    /// is durable (`tx-end` retires only once persists drain / the commit
    /// record is fenced), so the next lock owner inherits durably
    /// committed state. Required for a scheme to join the contention
    /// sweep: it is what makes every structure's committed groups a
    /// ticket-order prefix at any crash point.
    DurableCommit,
    /// The release may publish uncommitted state to the next owner.
    /// Acceptable only for schemes with no crash-consistency claim.
    SpeculativeOk,
}

/// Memory-controller LPQ policy for the scheme's log writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainPolicy {
    /// Log entries drain to NVMM like ordinary writes.
    DrainAlways,
    /// Log entries are held in the LPQ and flash-cleared once their
    /// transaction commits — the paper's log write removal.
    KeepUntilCommit,
}

/// Everything the workspace needs to know about one logging scheme.
#[derive(Debug, Clone, Copy)]
pub struct SchemeDescriptor {
    /// The enum identity (spec hashes and codecs key on its label).
    pub kind: LoggingSchemeKind,
    /// Report label — must equal `kind.label()` (tested).
    pub label: &'static str,
    /// Short lowercase name for CLI selectors (`reproduce trace --scheme`).
    pub cli_name: &'static str,
    /// One-line description for docs and scheme tables.
    pub blurb: &'static str,
    /// Trace expansion (the scheme "compiler").
    pub expand: ExpandFn,
    /// Per-thread crash-recovery protocol.
    pub recover_thread: RecoverFn,
    /// Core-side retirement/ordering policy.
    pub core: CorePolicy,
    /// Memory-controller log drain policy.
    pub drain: DrainPolicy,
    /// Lock-release-vs-persist ordering under contended workloads.
    pub lock_handoff: LockHandoffPolicy,
    /// Whether the scheme guarantees crash consistency at transaction
    /// boundaries (NoLog deliberately does not).
    pub failure_safe: bool,
    /// Member of the `crashsweep` zero-violation matrix. A subset of
    /// the failure-safe schemes: variants that add no crash-protocol
    /// coverage over a sibling (SwPmemPcommit is SwPmem plus a drain)
    /// stay out to keep the sweep budget on distinct protocols.
    pub crash_sweep: bool,
    /// The speedup baseline (PMEM software logging). Excluded from
    /// figure columns, which are all speedups *over* it.
    pub baseline: bool,
    /// Member of the cycle-engine benchmark basket
    /// (`reproduce bench`, BENCH_cycle_engine.json).
    pub bench_basket: bool,
    /// The paper's Figure 6 geomean speedup over the PMEM baseline,
    /// for the `reproduce fig6` fidelity guard. `None` for the
    /// baseline itself (1.0 by construction) and for schemes the
    /// paper did not evaluate (InCLL).
    pub fig6_paper_geomean: Option<f64>,
}

fn expand_sw(p: &Program, layout: &AddressLayout, opts: &ExpandOptions) -> Result<Trace, SimError> {
    sw::expand(p, layout, opts, false)
}

fn expand_sw_pcommit(
    p: &Program,
    layout: &AddressLayout,
    opts: &ExpandOptions,
) -> Result<Trace, SimError> {
    sw::expand(p, layout, opts, true)
}

fn expand_nolog(p: &Program, _: &AddressLayout, _: &ExpandOptions) -> Result<Trace, SimError> {
    nolog::expand(p)
}

fn expand_atom(p: &Program, _: &AddressLayout, _: &ExpandOptions) -> Result<Trace, SimError> {
    hw::expand_atom(p)
}

fn expand_proteus(p: &Program, _: &AddressLayout, opts: &ExpandOptions) -> Result<Trace, SimError> {
    hw::expand_proteus(p, opts)
}

fn recover_none(
    _: &mut WordImage,
    _: &AddressLayout,
    _: ThreadId,
    _: &mut WriteBudget,
) -> Result<ThreadOutcome, SimError> {
    Ok(ThreadOutcome::Clean)
}

/// Every registered scheme, in the order the paper's figures present
/// them (the same order as [`LoggingSchemeKind::ALL`]; tested).
pub static DESCRIPTORS: [SchemeDescriptor; 7] = [
    SchemeDescriptor {
        kind: LoggingSchemeKind::SwPmem,
        label: "PMEM",
        cli_name: "sw",
        blurb: "software undo logging with clwb/sfence (Fig. 2); the speedup baseline",
        expand: expand_sw,
        recover_thread: recovery::recover_sw_thread,
        core: CorePolicy::NONE,
        drain: DrainPolicy::DrainAlways,
        lock_handoff: LockHandoffPolicy::DurableCommit,
        failure_safe: true,
        crash_sweep: true,
        baseline: true,
        bench_basket: false,
        fig6_paper_geomean: None,
    },
    SchemeDescriptor {
        kind: LoggingSchemeKind::SwPmemPcommit,
        label: "PMEM+pcommit",
        cli_name: "pcommit",
        blurb: "software undo logging draining the WPQ at every persist point",
        expand: expand_sw_pcommit,
        recover_thread: recovery::recover_sw_thread,
        core: CorePolicy::NONE,
        drain: DrainPolicy::DrainAlways,
        lock_handoff: LockHandoffPolicy::DurableCommit,
        failure_safe: true,
        crash_sweep: false,
        baseline: false,
        bench_basket: true,
        fig6_paper_geomean: Some(0.79),
    },
    SchemeDescriptor {
        kind: LoggingSchemeKind::Atom,
        label: "ATOM",
        cli_name: "atom",
        blurb: "hardware undo logging at store retirement with posted/source-log optimisations",
        expand: expand_atom,
        recover_thread: recovery::recover_hw_thread,
        core: CorePolicy { proteus_hw: false, atom_retirement: true },
        drain: DrainPolicy::DrainAlways,
        lock_handoff: LockHandoffPolicy::DurableCommit,
        failure_safe: true,
        crash_sweep: true,
        baseline: false,
        bench_basket: true,
        fig6_paper_geomean: Some(1.33),
    },
    SchemeDescriptor {
        kind: LoggingSchemeKind::ProteusNoLwr,
        label: "Proteus+NoLWR",
        cli_name: "nolwr",
        blurb: "Proteus with log write removal disabled: log flushes drain to NVMM",
        expand: expand_proteus,
        recover_thread: recovery::recover_hw_thread,
        core: CorePolicy { proteus_hw: true, atom_retirement: false },
        drain: DrainPolicy::DrainAlways,
        lock_handoff: LockHandoffPolicy::DurableCommit,
        failure_safe: true,
        crash_sweep: true,
        baseline: false,
        bench_basket: false,
        fig6_paper_geomean: Some(1.44),
    },
    SchemeDescriptor {
        kind: LoggingSchemeKind::Proteus,
        label: "Proteus",
        cli_name: "proteus",
        blurb: "software-supported hardware logging with log write removal (LogQ+LLT+LPQ)",
        expand: expand_proteus,
        recover_thread: recovery::recover_hw_thread,
        core: CorePolicy { proteus_hw: true, atom_retirement: false },
        drain: DrainPolicy::KeepUntilCommit,
        lock_handoff: LockHandoffPolicy::DurableCommit,
        failure_safe: true,
        crash_sweep: true,
        baseline: false,
        bench_basket: true,
        fig6_paper_geomean: Some(1.46),
    },
    SchemeDescriptor {
        kind: LoggingSchemeKind::Incll,
        label: "InCLL",
        cli_name: "incll",
        blurb: "in-cache-line logging: the undo entry lives in the mutated line itself",
        expand: incll::expand,
        recover_thread: incll::recover_thread,
        core: CorePolicy::NONE,
        drain: DrainPolicy::DrainAlways,
        lock_handoff: LockHandoffPolicy::DurableCommit,
        failure_safe: true,
        crash_sweep: true,
        baseline: false,
        bench_basket: true,
        fig6_paper_geomean: None,
    },
    SchemeDescriptor {
        kind: LoggingSchemeKind::NoLog,
        label: "PMEM+nolog",
        cli_name: "nolog",
        blurb: "logging removed entirely: the ideal upper bound, not failure-safe",
        expand: expand_nolog,
        recover_thread: recover_none,
        core: CorePolicy::NONE,
        drain: DrainPolicy::DrainAlways,
        lock_handoff: LockHandoffPolicy::SpeculativeOk,
        failure_safe: false,
        crash_sweep: false,
        baseline: false,
        bench_basket: false,
        fig6_paper_geomean: Some(1.51),
    },
];

/// Resolves the descriptor for `kind`.
pub fn descriptor(kind: LoggingSchemeKind) -> &'static SchemeDescriptor {
    // The one sanctioned `match` on the scheme enum: indices into
    // `DESCRIPTORS`, pinned by `registry_order_matches_all`.
    let idx = match kind {
        LoggingSchemeKind::SwPmem => 0,
        LoggingSchemeKind::SwPmemPcommit => 1,
        LoggingSchemeKind::Atom => 2,
        LoggingSchemeKind::ProteusNoLwr => 3,
        LoggingSchemeKind::Proteus => 4,
        LoggingSchemeKind::Incll => 5,
        LoggingSchemeKind::NoLog => 6,
    };
    &DESCRIPTORS[idx]
}

/// All descriptors in presentation order.
pub fn all() -> &'static [SchemeDescriptor] {
    &DESCRIPTORS
}

/// Looks a scheme up by its report label.
pub fn by_label(label: &str) -> Option<&'static SchemeDescriptor> {
    DESCRIPTORS.iter().find(|d| d.label == label)
}

/// Looks a scheme up by its CLI short name.
pub fn by_cli_name(name: &str) -> Option<&'static SchemeDescriptor> {
    DESCRIPTORS.iter().find(|d| d.cli_name == name)
}

/// The kinds whose descriptors satisfy `pred`, in presentation order —
/// the single source every sweep roster derives from.
pub fn kinds_where(pred: impl Fn(&SchemeDescriptor) -> bool) -> Vec<LoggingSchemeKind> {
    DESCRIPTORS.iter().filter(|d| pred(d)).map(|d| d.kind).collect()
}

/// Figure presentation columns: every scheme except the baseline.
pub fn figure_columns() -> Vec<LoggingSchemeKind> {
    kinds_where(|d| !d.baseline)
}

/// The `crashsweep` zero-violation matrix.
pub fn crash_sweep_roster() -> Vec<LoggingSchemeKind> {
    kinds_where(|d| d.crash_sweep)
}

/// The cycle-engine benchmark basket.
pub fn bench_basket() -> Vec<LoggingSchemeKind> {
    kinds_where(|d| d.bench_basket)
}

/// The contention-sweep roster: every failure-safe scheme whose commit
/// protocol hands locks off durably (all of them — a failure-safe scheme
/// with speculative handoff would be a contradiction, tested below).
pub fn contention_roster() -> Vec<LoggingSchemeKind> {
    kinds_where(|d| d.failure_safe && d.lock_handoff == LockHandoffPolicy::DurableCommit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_order_matches_all() {
        let kinds: Vec<_> = DESCRIPTORS.iter().map(|d| d.kind).collect();
        assert_eq!(kinds, LoggingSchemeKind::ALL.to_vec());
        for d in all() {
            assert_eq!(d.label, d.kind.label(), "{:?}", d.kind);
            assert!(std::ptr::eq(descriptor(d.kind), d), "{:?} resolves elsewhere", d.kind);
        }
    }

    #[test]
    fn labels_and_cli_names_are_unique() {
        for (i, a) in DESCRIPTORS.iter().enumerate() {
            for b in &DESCRIPTORS[i + 1..] {
                assert_ne!(a.label, b.label);
                assert_ne!(a.cli_name, b.cli_name);
            }
        }
    }

    #[test]
    fn crash_sweep_implies_failure_safe() {
        for d in all() {
            if d.crash_sweep {
                assert!(d.failure_safe, "{} swept but not failure-safe", d.label);
            }
        }
    }

    #[test]
    fn failure_safe_schemes_hand_off_durably() {
        for d in all() {
            assert_eq!(
                d.failure_safe,
                d.lock_handoff == LockHandoffPolicy::DurableCommit,
                "{}: failure-safety and durable lock handoff must agree",
                d.label
            );
        }
        let roster = contention_roster();
        assert_eq!(roster.len(), 6);
        assert!(!roster.contains(&LoggingSchemeKind::NoLog));
    }

    #[test]
    fn rosters_pick_expected_schemes() {
        assert!(!figure_columns().contains(&LoggingSchemeKind::SwPmem));
        assert!(figure_columns().contains(&LoggingSchemeKind::NoLog));
        assert!(!crash_sweep_roster().contains(&LoggingSchemeKind::NoLog));
        assert!(crash_sweep_roster().contains(&LoggingSchemeKind::Incll));
        assert!(bench_basket().contains(&LoggingSchemeKind::Proteus));
    }
}
