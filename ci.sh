#!/bin/sh
# Local CI gate: formatting, lints, tests. Fails fast; run before pushing.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors)"
# Broken or ambiguous intra-doc links fail here. `--lib` documents each
# package's library only: the `eqsql` CLI binary and library share an
# output name, which rustdoc would otherwise report as a collision.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "==> cargo test -q"
cargo test -q

echo "==> eqsql certify examples/corpus"
# Translation-validation gate: every rule application on the example
# corpus must discharge its proof obligation (DESIGN.md §5e). Exit is
# nonzero on any counterexample or inconclusive obligation.
cargo build -q --release -p eqsql-cli
for f in examples/corpus/*.imp; do
    target/release/eqsql certify "$f" --schema examples/corpus/schema.sql
done

echo "==> eqsql lint sweep vs golden"
# Lint-inventory gate: the CLI's JSON lint output over the corpus must
# list exactly the diagnostic codes recorded in the golden. The Rust twin
# (tests/corpus_lint.rs) derives the same inventory through the library,
# so the binary and library paths are held to one file.
LINT_SWEEP="$(mktemp)"
for f in examples/corpus/*.imp; do
    codes=$(target/release/eqsql lint "$f" --schema examples/corpus/schema.sql --format json \
        | tr ',' '\n' | sed -n 's/.*"code":"\([EW][0-9]*\)".*/\1/p' | sort -u | xargs)
    printf '%s:%s\n' "$(basename "$f")" "${codes:+ $codes}" >> "$LINT_SWEEP"
done
diff -u tests/golden/corpus_lint_codes.txt "$LINT_SWEEP"
rm -f "$LINT_SWEEP"

echo "==> eqsql fuzz (deterministic smoke)"
# Differential-fuzzing gate (DESIGN.md §5f): 200 generated programs run
# under the interpreter and through the extractor must agree exactly. The
# fixed seed makes the sweep deterministic; failures print the minimized
# program and exit nonzero.
target/release/eqsql fuzz --seed 42 --iters 200

echo "==> eqsql fuzz --store (paged-backend smoke)"
# The same differential oracle over the paged storage engine: tables live
# in B-tree pages behind an 8-frame buffer pool and queries run on the
# volcano executor, amplified with extra generated rows so scans evict.
target/release/eqsql fuzz --seed 42 --iters 50 --store --store-rows 256

echo "==> eqsql fuzz --dml (write-loop differential smoke)"
# Write-loop gate (DESIGN.md §5i): generated DML loops run row-at-a-time
# under the interpreter and batched through the foreach-dml extractor;
# both sides must leave identical final table contents, and every kept
# write loop must carry exactly one E010/W010 blame diagnostic. The
# depend-pass proptests (tests/depend_props.rs) already ran under the
# `cargo test` step above.
target/release/eqsql fuzz --seed 42 --iters 200 --dml

echo "==> eqsql fuzz --dml --store (forked-pager differential smoke)"
# Regression gate for the pager-aliasing fix: with --store each side of
# the write-loop differential mutates a deep-forked page image
# (Database::fork / Pager::fork_image) instead of aliasing one pager.
target/release/eqsql fuzz --seed 42 --iters 100 --dml --store

echo "==> storage_scale --check"
# Larger-than-memory gate: streams the 10⁴-row size through the paged
# engine, asserts imperative ≡ extracted results, and structurally
# validates the tracked BENCH_storage.json. No timing gates.
cargo run -q --release -p bench --bin storage_scale -- --check > /dev/null

echo "==> paper figures vs golden"
# The Fig. 8-11 harnesses print deterministic simulated costs and byte
# counts; their stdout must stay byte-identical to the goldens captured
# from the reference run (EXPERIMENTS.md quotes these tables).
cargo build -q --release -p bench
FIG_OUT="$(mktemp)"
for fig in fig8_selection fig9_join fig10_aggregation fig11_comparison; do
    target/release/"$fig" > "$FIG_OUT"
    diff -u "tests/golden/figures/$fig.txt" "$FIG_OUT"
done
rm -f "$FIG_OUT"

echo "==> eqbench tests (--check smoke + unit tests)"
# Benchmark smoke: eqbench lives outside the root workspace, so its own
# tests run here. tests/eqbench_check.rs runs `--check` (a tiny run of
# every workload, traced and not, each with its own result checks:
# scan-large's sums against the table, dml-batch's final tables, the
# services' bodies) and requires it to print every metric BENCHMARK.json
# declares, with its unit. No timing gates.
cargo test --release --offline --manifest-path eqbench/Cargo.toml

echo "==> perf_pipeline --check"
# Small-corpus sweep: asserts the bench harness runs end to end and emits
# valid JSON. No timing gates — CI machines are too noisy for that.
cargo run -q --release -p bench --bin perf_pipeline -- --check

echo "==> service smoke test (persistent connection)"
cargo build -q --release -p eqsql-cli -p service
PORT_FILE="$(mktemp -u)"
target/release/eqsql serve --addr 127.0.0.1:0 --port-file "$PORT_FILE" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$PORT_FILE"' EXIT
# The smoke client waits for the port file, then drives the whole
# endpoint sequence (/healthz, /extract + cached replay, /fuzz, /metrics
# with admission counters) over ONE keep-alive connection before POSTing
# /shutdown for a graceful stop.
target/release/eqsql-smoke "@$PORT_FILE"
wait "$SERVE_PID"
trap - EXIT
rm -f "$PORT_FILE"

echo "==> loadgen --check"
# Event-loop load gate (DESIGN.md §5j): a short fixed-seed keep-alive
# load run against an in-process server must finish error-free, and its
# document must match the tracked BENCH_service.json structurally
# (identity + field inventory; never absolute timings).
cargo run -q --release -p bench --bin loadgen -- --check > /dev/null

echo "==> ok"
