#!/usr/bin/env bash
# The repository's CI gate: lint, build, test, clippy, fmt. The
# workspace depends on nothing outside the repository, so every step is
# a plain cargo command and needs no network or crate registry.
#
# Usage: tools/offline-check.sh [build|test|clippy|fmt|lint|all]   (default: all)

set -euo pipefail
cd "$(dirname "$0")/.."
MODE="${1:-all}"
OUT="${CARGO_TARGET_DIR:-target}"

run() { echo "+ $*" >&2; "$@"; }

do_build() {
    run cargo build --release --workspace
}

do_test() {
    # Every suite: unit, bin, example, doc, integration and property
    # tests.
    run cargo test -q --workspace
    # Paranoid engine cross-check: re-run the fast-forward determinism
    # suite, the tracing suite (traced runs sleep and jump like any
    # other) and the engine's unit tests (the skip rule, a contended
    # cell) with every jump single-stepped under fingerprint assertions
    # and every sleeping core ticked anyway, then the crash suite, whose
    # explorations stop mid-run at persist events with cores asleep.
    run cargo test -q -p proteus-sim --features paranoid --test integration_fastforward
    run cargo test -q -p proteus-sim --features paranoid --test integration_trace
    run cargo test -q -p proteus-sim --features paranoid --lib
    run cargo test -q -p proteus-crash --features proteus-sim/paranoid --test integration_crash
    # The benchmark builds with --offline but not --locked, so a
    # workspace change to a crate's path dependencies would silently
    # rewrite perfbench/Cargo.lock at bench time: require the lock file
    # to resolve unchanged. It is not tracked, so a fresh checkout has
    # none until the smoke below writes it.
    if [[ -f perfbench/Cargo.lock ]]; then
        run cargo metadata --offline --locked --format-version 1 \
            --manifest-path perfbench/Cargo.toml >/dev/null
    fi
    # Smoke the benchmark (perfbench/, its own workspace) with one
    # traced pass of each workload: each exits non-zero unless the
    # pinned digests match and the benchmark's own copy of the step
    # loop, which ticks the components without `System`'s skip path,
    # reproduces `System::run`'s RunSummary cell for cell. idle-sw's
    # pcommit drains are the benchmark's only path through the
    # controller's pending-pcommit drain rule.
    for w in busy-hw idle-sw crash; do
        run env CARGO_TARGET_DIR="${OUT}/perfbench" python3 perfbench/run.py \
            --workload "$w" --seed 0 --seconds 3 --trace 1
    done
    # Smoke the crash-point sweep end to end (bounded workload sizes):
    # explores the roster's crash workloads — Table 2 rows AND the
    # generated ycsb-a/indexer presets — under every failure-safe
    # scheme, and self-validates the checker against the
    # disable_persist_ordering fault knob.
    run cargo run -q --release -p proteus-bench --bin reproduce -- \
        crashsweep --scale 0.02 --file "${OUT}/smoke_crash_repro.json"
    run cargo run -q --release -p proteus-bench --bin reproduce -- \
        crashrepro --file "${OUT}/smoke_crash_repro.json"
    # Smoke the contended axis: the three shared-structure workloads
    # (MPMC queue, contended hash maps, lock-coupled B-trees) under
    # every failure-safe scheme, judged per structure against commit
    # prefixes in lock-handoff order, plus the early_release
    # lock-handoff self-test (caught, shrunk, replayed).
    run cargo run -q --release -p proteus-bench --bin reproduce -- \
        contention --scale 0.02 --file "${OUT}/smoke_contention_repro.json"
    run cargo run -q --release -p proteus-bench --bin reproduce -- \
        crashrepro --file "${OUT}/smoke_contention_repro.json"
    # The crash_recovery example asserts what it prints: every
    # failure-safe scheme stays consistent under clean and torn-line
    # crashes, and the broken-ordering core is caught, shrunk and
    # replayed.
    run cargo run -q --release -p proteus-crash --example crash_recovery
    # Smoke the workload file end to end on a generated preset and a
    # contended row: `gen --file` saves the workload (its selector,
    # params and digest) and `replay` regenerates it and runs every
    # scheme, exiting non-zero unless the digest matches. A copy whose
    # params were edited must fail with the digest message.
    local workload saved edited="${OUT}/smoke_workload_edited.json"
    for workload in indexer mq; do
        saved="${OUT}/smoke_workload_${workload}.json"
        run cargo run -q --release -p proteus-bench --bin reproduce -- \
            gen --workload "$workload" --scale 0.01 --file "$saved"
        [[ -s "$saved" ]] || {
            echo "gen smoke saved an empty workload file for ${workload}" >&2
            exit 1
        }
        run cargo run -q --release -p proteus-bench --bin reproduce -- \
            replay --file "$saved"
        sed 's/"sim_ops":/"sim_ops":1/' "$saved" >"$edited"
        echo "+ reproduce replay --file ${edited} (${workload}, params edited; must fail)" >&2
        if cargo run -q --release -p proteus-bench --bin reproduce -- \
            replay --file "$edited" 2>"${edited}.err"; then
            echo "replay smoke: an edited ${workload} workload file ran" >&2
            exit 1
        fi
        grep -q "digest mismatch" "${edited}.err" || {
            cat "${edited}.err" >&2
            echo "replay smoke: the edited ${workload} file failed without the digest message" >&2
            exit 1
        }
    done
    # Smoke `--resume` end to end: run a small figure twice against one
    # ledger. The first run must execute jobs (per-job `[harness i/n]`
    # lines on stderr); the second must execute none and print
    # byte-identical stdout.
    local ledger="${OUT}/smoke_resume_ledger.jsonl" pass
    rm -f "$ledger"
    echo "+ reproduce fig8 --scale 0.002 --threads 2 --resume ${ledger} (twice)" >&2
    for pass in 1 2; do
        cargo run -q --release -p proteus-bench --bin reproduce -- \
            fig8 --scale 0.002 --threads 2 --resume "$ledger" \
            >"${OUT}/smoke_resume_${pass}.out" 2>"${OUT}/smoke_resume_${pass}.err" || {
            cat "${OUT}/smoke_resume_${pass}.err" >&2
            exit 1
        }
    done
    grep -q '^\[harness [0-9]' "${OUT}/smoke_resume_1.err" || {
        echo "resume smoke: the first run printed no per-job progress line" >&2
        exit 1
    }
    if grep -q '^\[harness [0-9]' "${OUT}/smoke_resume_2.err"; then
        echo "resume smoke: the resumed run executed jobs" >&2
        exit 1
    fi
    cmp "${OUT}/smoke_resume_1.out" "${OUT}/smoke_resume_2.out" || {
        echo "resume smoke: the resumed run printed different stdout" >&2
        exit 1
    }
    # Smoke the cycle-level tracer end to end: `reproduce trace --file`
    # exits non-zero unless the trace reconciles (±0) with the
    # RunSummary, the emitted Chrome JSON parses, and every core and MC
    # queue track carries at least one event. QE under ATOM keeps its
    # WPQ full (millions of rejected retries) and its LPQ idle; QE under
    # Proteus drives the LPQ. Independently require non-trivial
    # artifacts.
    local scheme
    for scheme in atom proteus; do
        run cargo run -q --release -p proteus-bench --bin reproduce -- \
            trace --workload qe --scheme "$scheme" --scale 0.02 \
            --file "${OUT}/smoke_trace_${scheme}.json"
        [[ -s "${OUT}/smoke_trace_${scheme}.json" ]] || {
            echo "trace smoke produced an empty Chrome trace for ${scheme}" >&2
            exit 1
        }
    done
    # Round-trip the scheme golden: regenerating it must reproduce the
    # committed file byte for byte (the seed schemes' spec hashes and
    # RunSummaries at the pin's two fixed scales).
    run cargo run -q --release -p proteus-bench --bin reproduce -- \
        golden --file "${OUT}/golden.jsonl"
    run cmp "${OUT}/golden.jsonl" crates/bench/tests/golden/fig6_seed_schemes.jsonl
    # Smoke the cycle-engine benchmark: times the fixed basket with
    # fast-forwarding on and off and fails if the outputs diverge.
    run cargo run -q --release -p proteus-bench --bin reproduce -- \
        bench --scale 0.02 --file "${OUT}/smoke_bench.json"
    [[ -s "${OUT}/smoke_bench.json" ]] || {
        echo "bench smoke produced an empty report" >&2
        exit 1
    }
}

do_clippy() {
    if cargo clippy --version >/dev/null 2>&1; then
        run cargo clippy --workspace --all-targets -- -D warnings
    else
        echo "clippy not installed; skipping" >&2
    fi
}

do_fmt() {
    if cargo fmt --version >/dev/null 2>&1; then
        run cargo fmt --check
    else
        echo "rustfmt not installed; skipping" >&2
    fi
}

do_lint() {
    # Scheme dispatch must stay confined to the registry (DESIGN.md §7).
    run tools/lint-scheme-dispatch.sh
}

case "$MODE" in
    build)  do_build ;;
    test)   do_test ;;
    clippy) do_clippy ;;
    fmt)    do_fmt ;;
    lint)   do_lint ;;
    all)    do_lint; do_build; do_test; do_clippy; do_fmt ;;
    *) echo "usage: $0 [build|test|clippy|fmt|lint|all]" >&2; exit 2 ;;
esac
echo "check ($MODE) passed" >&2
