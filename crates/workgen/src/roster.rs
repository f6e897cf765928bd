//! The workload roster: one [`WorkloadDescriptor`] row per runnable
//! workload — the six Table 2 benchmarks plus the generated presets —
//! mirroring the scheme registry pattern (`core::scheme::registry`).
//! CLI name resolution, figure/bench/crashsweep rosters, and docs
//! tables all derive from this table, so adding a workload is one
//! descriptor row (plus a `GenSpec`, for generated ones).

use crate::gen::{GenSpec, GenStructure, OpMix, Skew};
use crate::sel::WorkloadSel;
use proteus_workloads::{Benchmark, ContendedKind, ContendedSpec, WorkloadParams};

/// One roster row.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDescriptor {
    /// CLI name (`reproduce gen --workload <cli_name>`, shootout args).
    pub cli_name: &'static str,
    /// One-line description for roster listings and docs tables.
    pub blurb: &'static str,
    /// Builds the selector (a `fn` so the table stays `'static`).
    pub make: fn() -> WorkloadSel,
    /// Full-scale per-thread `(init_ops, sim_ops)`; scaled by the
    /// experiment scale exactly like Table 2's op counts.
    pub base_ops: (usize, usize),
    /// Paper Table 2 row (participates in the paper figures).
    pub table2: bool,
    /// Generated preset (listed by `reproduce gen`).
    pub preset: bool,
    /// Member of the crashsweep roster.
    pub crash_roster: bool,
    /// Member of the `reproduce bench` basket.
    pub bench_basket: bool,
    /// Contended shared-structure workload (inter-core sharing; member
    /// of the `reproduce contention` roster).
    pub contended: bool,
}

impl WorkloadDescriptor {
    /// The selector this row describes.
    pub fn sel(&self) -> WorkloadSel {
        (self.make)()
    }

    /// Display label: the benchmark abbreviation or preset name.
    pub fn label(&self) -> String {
        self.sel().abbrev().to_string()
    }

    /// Workload parameters at `scale`: `base_ops` scaled like Table 2's
    /// op counts, with the structurally derived seed. For Table 2 rows,
    /// whose `base_ops` are the paper's counts, this is exactly
    /// `WorkloadParams::table2(..).with_derived_seed(..)`.
    pub fn params(&self, threads: usize, scale: f64) -> WorkloadParams {
        let (init, sim) = self.base_ops;
        self.sel().derived_params(WorkloadParams {
            // Contended generation needs at least two threads — one
            // core cannot contend with itself.
            threads: if self.contended { threads.max(2) } else { threads },
            init_ops: ((init as f64 * scale) as usize).max(1),
            sim_ops: ((sim as f64 * scale) as usize).max(1),
            seed: 0,
        })
    }
}

fn contended_mq() -> WorkloadSel {
    WorkloadSel::Contended(ContendedSpec { kind: ContendedKind::MpmcQueue, early_release: false })
}

fn contended_ch() -> WorkloadSel {
    WorkloadSel::Contended(ContendedSpec {
        kind: ContendedKind::ContendedHashMap,
        early_release: false,
    })
}

fn contended_lb() -> WorkloadSel {
    WorkloadSel::Contended(ContendedSpec { kind: ContendedKind::LockedBTree, early_release: false })
}

fn ycsb_a() -> WorkloadSel {
    WorkloadSel::Gen(GenSpec {
        name: "ycsb-a".into(),
        structure: GenStructure::HashMap { buckets: 256 },
        per_thread: 4,
        key_range: 0,
        mix: OpMix { read_pct: 50, insert_pct: 50, delete_pct: 0, scan_pct: 0, drain_pct: 0 },
        skew: Skew::Zipfian { theta_milli: 990 },
        scan_len: 0,
        tx_ops: 1,
        drain_batch: 0,
    })
}

fn ycsb_b() -> WorkloadSel {
    WorkloadSel::Gen(GenSpec {
        name: "ycsb-b".into(),
        structure: GenStructure::BTree,
        per_thread: 4,
        key_range: 0,
        mix: OpMix { read_pct: 95, insert_pct: 5, delete_pct: 0, scan_pct: 0, drain_pct: 0 },
        skew: Skew::Zipfian { theta_milli: 990 },
        scan_len: 0,
        tx_ops: 1,
        drain_batch: 0,
    })
}

fn ycsb_c() -> WorkloadSel {
    WorkloadSel::Gen(GenSpec {
        name: "ycsb-c".into(),
        structure: GenStructure::HashMap { buckets: 256 },
        per_thread: 4,
        key_range: 0,
        mix: OpMix { read_pct: 100, insert_pct: 0, delete_pct: 0, scan_pct: 0, drain_pct: 0 },
        skew: Skew::Zipfian { theta_milli: 990 },
        scan_len: 0,
        tx_ops: 1,
        drain_batch: 0,
    })
}

fn scan_heavy() -> WorkloadSel {
    WorkloadSel::Gen(GenSpec {
        name: "scan-heavy".into(),
        structure: GenStructure::BTree,
        per_thread: 2,
        key_range: 0,
        mix: OpMix { read_pct: 5, insert_pct: 15, delete_pct: 0, scan_pct: 80, drain_pct: 0 },
        skew: Skew::Uniform,
        scan_len: 16,
        tx_ops: 1,
        drain_batch: 0,
    })
}

fn indexer() -> WorkloadSel {
    WorkloadSel::Gen(GenSpec {
        name: "indexer".into(),
        structure: GenStructure::Queue,
        per_thread: 2,
        key_range: 0,
        mix: OpMix { read_pct: 0, insert_pct: 92, delete_pct: 0, scan_pct: 0, drain_pct: 8 },
        skew: Skew::Uniform,
        scan_len: 0,
        tx_ops: 4,
        drain_batch: 12,
    })
}

fn million_key() -> WorkloadSel {
    WorkloadSel::Gen(GenSpec {
        name: "million-key".into(),
        structure: GenStructure::HashMap { buckets: 4096 },
        per_thread: 1,
        key_range: 1 << 20,
        mix: OpMix { read_pct: 40, insert_pct: 45, delete_pct: 15, scan_pct: 0, drain_pct: 0 },
        skew: Skew::Zipfian { theta_milli: 990 },
        scan_len: 0,
        tx_ops: 1,
        drain_batch: 0,
    })
}

/// The full roster. Table 2 rows keep their paper op counts in
/// `base_ops`, so their `params()` equal `WorkloadParams::table2`'s
/// (`table2_params_match_experiment_scale_formula`). The crashsweep
/// roster keeps the historical QE/HM/RT trio and adds the two most
/// write-heavy presets; the bench basket holds every Table 2 row (the
/// pointer-chasing AT/BT/RT included) and adds ycsb-a plus the three
/// contended rows (MQ/CH/LB), which also form the `reproduce
/// contention` roster.
static ROSTER: [WorkloadDescriptor; 15] = [
    WorkloadDescriptor {
        cli_name: "qe",
        blurb: "enqueue/dequeue in 8 queues",
        make: || WorkloadSel::Bench(Benchmark::Queue),
        base_ops: (20_000, 50_000),
        table2: true,
        preset: false,
        crash_roster: true,
        bench_basket: true,
        contended: false,
    },
    WorkloadDescriptor {
        cli_name: "hm",
        blurb: "insert/delete in 16 hash maps",
        make: || WorkloadSel::Bench(Benchmark::HashMap),
        base_ops: (100_000, 20_000),
        table2: true,
        preset: false,
        crash_roster: true,
        bench_basket: true,
        contended: false,
    },
    WorkloadDescriptor {
        cli_name: "ss",
        blurb: "swap 256 B strings in an array",
        make: || WorkloadSel::Bench(Benchmark::StringSwap),
        base_ops: (20_000, 50_000),
        table2: true,
        preset: false,
        crash_roster: false,
        bench_basket: true,
        contended: false,
    },
    WorkloadDescriptor {
        cli_name: "at",
        blurb: "insert/delete in 16 AVL trees",
        make: || WorkloadSel::Bench(Benchmark::AvlTree),
        base_ops: (100_000, 10_000),
        table2: true,
        preset: false,
        crash_roster: false,
        bench_basket: true,
        contended: false,
    },
    WorkloadDescriptor {
        cli_name: "bt",
        blurb: "insert/delete in 16 B-trees",
        make: || WorkloadSel::Bench(Benchmark::BTree),
        base_ops: (100_000, 10_000),
        table2: true,
        preset: false,
        crash_roster: false,
        bench_basket: true,
        contended: false,
    },
    WorkloadDescriptor {
        cli_name: "rt",
        blurb: "insert/delete in 16 RB trees",
        make: || WorkloadSel::Bench(Benchmark::RbTree),
        base_ops: (100_000, 10_000),
        table2: true,
        preset: false,
        crash_roster: true,
        bench_basket: true,
        contended: false,
    },
    WorkloadDescriptor {
        cli_name: "ycsb-a",
        blurb: "YCSB-A: 50% read / 50% update, zipfian, hash maps",
        make: ycsb_a,
        base_ops: (50_000, 20_000),
        table2: false,
        preset: true,
        crash_roster: true,
        bench_basket: true,
        contended: false,
    },
    WorkloadDescriptor {
        cli_name: "ycsb-b",
        blurb: "YCSB-B: 95% read / 5% update, zipfian, B-trees",
        make: ycsb_b,
        base_ops: (50_000, 10_000),
        table2: false,
        preset: true,
        crash_roster: false,
        bench_basket: false,
        contended: false,
    },
    WorkloadDescriptor {
        cli_name: "ycsb-c",
        blurb: "YCSB-C: 100% read, zipfian, hash maps",
        make: ycsb_c,
        base_ops: (50_000, 20_000),
        table2: false,
        preset: true,
        crash_roster: false,
        bench_basket: false,
        contended: false,
    },
    WorkloadDescriptor {
        cli_name: "scan-heavy",
        blurb: "analytics: 80% 16-key scans over B-trees",
        make: scan_heavy,
        base_ops: (50_000, 5_000),
        table2: false,
        preset: true,
        crash_roster: false,
        bench_basket: false,
        contended: false,
    },
    WorkloadDescriptor {
        cli_name: "indexer",
        blurb: "append/checkpoint stream: 4-op append txs + batch drains",
        make: indexer,
        base_ops: (10_000, 30_000),
        table2: false,
        preset: true,
        crash_roster: true,
        bench_basket: false,
        contended: false,
    },
    WorkloadDescriptor {
        cli_name: "million-key",
        blurb: "2^20-key zipfian heap stressing LLT/LPQ capacity",
        make: million_key,
        base_ops: (200_000, 5_000),
        table2: false,
        preset: true,
        crash_roster: false,
        bench_basket: false,
        contended: false,
    },
    WorkloadDescriptor {
        cli_name: "mq",
        blurb: "contended: one MPMC queue shared by every thread (ticket lock)",
        make: contended_mq,
        base_ops: (2_000, 1_000),
        table2: false,
        preset: false,
        crash_roster: false,
        bench_basket: true,
        contended: true,
    },
    WorkloadDescriptor {
        cli_name: "ch",
        blurb: "contended: two hot chained hash maps behind ticket locks",
        make: contended_ch,
        base_ops: (2_000, 1_000),
        table2: false,
        preset: false,
        crash_roster: false,
        bench_basket: true,
        contended: true,
    },
    WorkloadDescriptor {
        cli_name: "lb",
        blurb: "contended: two B-trees with hand-over-hand root/write locks",
        make: contended_lb,
        base_ops: (2_000, 1_000),
        table2: false,
        preset: false,
        crash_roster: false,
        bench_basket: true,
        contended: true,
    },
];

/// Every registered workload, Table 2 first, then presets.
pub fn all() -> &'static [WorkloadDescriptor] {
    &ROSTER
}

/// Resolves a CLI name (case-insensitive); also accepts the paper
/// abbreviation (`QE`) for Table 2 rows.
pub fn by_cli_name(name: &str) -> Option<&'static WorkloadDescriptor> {
    let lower = name.to_ascii_lowercase();
    ROSTER.iter().find(|d| d.cli_name == lower)
}

/// The Table 2 rows, in paper order.
pub fn table2() -> impl Iterator<Item = &'static WorkloadDescriptor> {
    ROSTER.iter().filter(|d| d.table2)
}

/// The generated presets.
pub fn presets() -> impl Iterator<Item = &'static WorkloadDescriptor> {
    ROSTER.iter().filter(|d| d.preset)
}

/// The crashsweep roster (write-heavy, structurally diverse rows).
pub fn crash_roster() -> impl Iterator<Item = &'static WorkloadDescriptor> {
    ROSTER.iter().filter(|d| d.crash_roster)
}

/// The perf-bench basket rows.
pub fn bench_basket() -> impl Iterator<Item = &'static WorkloadDescriptor> {
    ROSTER.iter().filter(|d| d.bench_basket)
}

/// The contended shared-structure rows (`reproduce contention` roster).
pub fn contended() -> impl Iterator<Item = &'static WorkloadDescriptor> {
    ROSTER.iter().filter(|d| d.contended)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_types::stable_hash_value;
    use std::collections::HashSet;

    #[test]
    fn roster_covers_table2_in_paper_order() {
        let t2: Vec<String> = table2().map(|d| d.label()).collect();
        let expect: Vec<&str> = Benchmark::TABLE2.iter().map(|b| b.abbrev()).collect();
        assert_eq!(t2, expect);
        // base_ops on Table 2 rows must mirror the paper's counts.
        for (d, b) in table2().zip(Benchmark::TABLE2) {
            assert_eq!(d.base_ops, b.table2_ops(), "{}", d.cli_name);
        }
    }

    #[test]
    fn cli_names_unique_and_resolvable() {
        let names: HashSet<&str> = ROSTER.iter().map(|d| d.cli_name).collect();
        assert_eq!(names.len(), ROSTER.len());
        for d in all() {
            assert!(std::ptr::eq(by_cli_name(d.cli_name).unwrap(), d));
            assert!(std::ptr::eq(by_cli_name(&d.cli_name.to_uppercase()).unwrap(), d));
        }
        assert!(by_cli_name("nope").is_none());
    }

    #[test]
    fn every_preset_spec_validates() {
        for d in presets() {
            d.sel().validate().unwrap_or_else(|e| panic!("{}: {e}", d.cli_name));
        }
        assert_eq!(presets().count(), 6);
    }

    #[test]
    fn preset_names_match_cli_names() {
        for d in presets() {
            assert_eq!(d.label(), d.cli_name, "preset label must equal its CLI name");
        }
    }

    #[test]
    fn rosters_are_nonempty_and_subsets() {
        assert!(crash_roster().count() >= 5);
        assert!(bench_basket().count() >= 4);
        // Every Table 2 row, tree benchmarks included, is timed.
        assert!(table2().all(|d| d.bench_basket));
        // At least two presets in the crash roster (acceptance: preset
        // crashsweep coverage).
        assert!(crash_roster().filter(|d| d.preset).count() >= 2);
        assert!(bench_basket().any(|d| d.preset));
    }

    #[test]
    fn selector_hashes_distinct_across_roster() {
        let hashes: HashSet<u64> = ROSTER.iter().map(|d| stable_hash_value(&d.sel())).collect();
        assert_eq!(hashes.len(), ROSTER.len());
    }

    #[test]
    fn contended_roster_covers_every_kind() {
        use proteus_workloads::ContendedKind;
        let labels: Vec<String> = contended().map(|d| d.label()).collect();
        let expect: Vec<&str> = ContendedKind::ALL.iter().map(|k| k.abbrev()).collect();
        assert_eq!(labels, expect);
        for d in contended() {
            // Never the fault-injection variant, and always >= 2 threads.
            let WorkloadSel::Contended(c) = d.sel() else {
                panic!("{}: contended row with a non-contended selector", d.cli_name)
            };
            assert!(!c.early_release, "{}", d.cli_name);
            assert!(d.bench_basket, "{}: contended rows ride the bench basket", d.cli_name);
            assert!(!d.preset && !d.table2 && !d.crash_roster, "{}", d.cli_name);
            let p = d.params(1, 0.1);
            assert_eq!(p.threads, 2, "{}: threads must be clamped to 2", d.cli_name);
            let w = d.sel().generate(&p);
            assert!(w.sharing.is_some(), "{}", d.cli_name);
        }
        // The contended axis must not disturb the preset listing.
        assert_eq!(presets().count(), 6);
    }

    #[test]
    fn params_scale_and_derive_seeds() {
        for d in all() {
            let p = d.params(2, 0.1);
            assert_eq!(p.threads, 2);
            assert!(p.init_ops >= 1 && p.sim_ops >= 1);
            assert_ne!(p.seed, 0, "{}: derived seed missing", d.cli_name);
            // Derivation is deterministic.
            assert_eq!(p, d.params(2, 0.1));
            // Scale changes the shape, and thereby the seed.
            assert_ne!(p.seed, d.params(2, 0.05).seed, "{}", d.cli_name);
        }
    }

    #[test]
    fn table2_params_match_experiment_scale_formula() {
        for d in table2() {
            let WorkloadSel::Bench(b) = d.sel() else { unreachable!() };
            let expect = WorkloadParams::table2(b, 4, 0.05).with_derived_seed(b);
            assert_eq!(d.params(4, 0.05), expect, "{}", d.cli_name);
        }
    }
}
