#!/usr/bin/env bash
# Repository CI gate: build, tests, formatting, lints.
#
# The workspace depends on nothing outside the repository, so every
# step is plain cargo and needs no network or crate registry. The gate
# runs tools/offline-check.sh all, which concretely runs:
#
#   cargo build --release --workspace
#   cargo test  -q        --workspace  (every suite: unit, bin, example,
#       doc, integration, and the seeded property suites)
#   end-to-end smokes: a bounded crashsweep/crashrepro round trip
#       (the roster's crash workloads: Table 2 rows plus the generated
#       ycsb-a/indexer presets), a bounded `reproduce contention` sweep
#       (the contended MQ/CH/LB workloads under every failure-safe
#       scheme, judged per structure against commit prefixes in
#       lock-handoff order, with the early_release lock-handoff fault
#       caught, shrunk, and replayed through crashrepro), a
#       `cargo run --example crash_recovery` run (asserts every
#       failure-safe scheme stays consistent and the broken-ordering
#       core is caught, shrunk and replayed), a workload-file round
#       trip for the indexer preset and the contended mq row
#       (`reproduce gen --workload W --file` then `reproduce replay
#       --file`, which fails unless regenerating the saved selector and
#       params gives the saved digest; a copy with edited params must
#       fail with the digest message), a resume round trip
#       (`reproduce fig8 --scale 0.002 --threads 2 --resume LEDGER`
#       twice: the second run must execute no job and print
#       byte-identical stdout), two `reproduce trace --file` runs (QE
#       under ATOM and under Proteus; self-validating: the trace must
#       reconcile with the RunSummary and the Chrome JSON must parse
#       with all tracks populated), a golden
#       round trip (`reproduce golden --file`, then `cmp` against
#       crates/bench/tests/golden/fig6_seed_schemes.jsonl), and a
#       `reproduce bench` run timing the cycle engine with
#       fast-forwarding on and off (fails on any output divergence)
#   the engine determinism suite, the tracing suite and the engine's
#       unit tests (among them the skip rule: a jump only while every
#       core sleeps, and no core credited by it) twice: once normally
#       and once with --features paranoid, which single-steps every
#       would-be jump and asserts the machine state fingerprint never
#       moves, and ticks every sleeping core anyway, asserting it holds
#       still
#   the crash suite (tests/integration_crash.rs) again under
#       proteus-sim's paranoid feature: crash exploration stops mid-run
#       at persist events, where sleeping cores must be settled
#   one traced pass of each of the benchmark's workloads, busy-hw,
#       idle-sw and crash (`python3 perfbench/run.py --workload W
#       --seed 0 --seconds 3 --trace 1`), which fails unless the pinned
#       digests match and the benchmark's own copy of the step loop
#       reproduces `System::run` on every cell
#   scheme-registry gates: tools/lint-scheme-dispatch.sh (no per-scheme
#       dispatch outside crates/core/src/scheme/registry.rs), the
#       registry completeness suite (every registered scheme
#       round-trips the codec, runs all Table 2 workloads, recovers,
#       and survives a stratified crashsweep smoke), and the golden
#       pin (six seed schemes byte-identical against
#       crates/bench/tests/golden/fig6_seed_schemes.jsonl), and the
#       workgen pin (preset selector hashes and workload digests,
#       every preset on every scheme, a generated-preset crashsweep
#       smoke)
#   cargo fmt --check
#   cargo clippy --workspace --all-targets -- -D warnings
set -euo pipefail
cd "$(dirname "$0")"
exec tools/offline-check.sh all
