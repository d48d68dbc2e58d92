#!/bin/sh
# Local CI gate: formatting, lints, tests. Fails fast; run before pushing.
set -eu

cd "$(dirname "$0")"

echo "==> every tests/*.rs has a [[test]] entry"
# The root tests/ directory belongs to no package: a file there runs only
# through a `[[test]]` entry in crates/eqsql/Cargo.toml, and one without an
# entry silently never runs.
for t in tests/*.rs; do
    if ! grep -qxF "path = \"../../$t\"" crates/eqsql/Cargo.toml; then
        echo "error: $t has no [[test]] entry in crates/eqsql/Cargo.toml" >&2
        exit 1
    fi
done

echo "==> one #[global_allocator] under crates/ and tests/"
# Allocation gates, perf_pipeline and every other counter share one
# thread-local counting allocator, included with `#[path]`; a second
# declaration would fork what the counts mean. eqbench, a workspace of its
# own, is not scanned.
for f in $(grep -rlE --include='*.rs' '^[[:space:]]*#\[global_allocator\]' crates tests); do
    if [ "$f" != tests/support/counting_alloc.rs ]; then
        echo "error: $f declares #[global_allocator]; include tests/support/counting_alloc.rs instead" >&2
        exit 1
    fi
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check + cargo clippy on eqbench"
# eqbench is a separate workspace, so the two steps above do not reach it.
cargo fmt --check --manifest-path eqbench/Cargo.toml
cargo clippy --offline --manifest-path eqbench/Cargo.toml --all-targets -- -D warnings

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
# program and exit nonzero. Each of the four runs below also appends its
# output to FUZZ_OUT, which must equal tests/golden/fuzz_seed42.txt (one
# summary line per run), so a drop in extraction coverage fails CI like a
# divergence does; the diff also catches a failed run, whose exit status
# the `tee` pipe hides.
FUZZ_OUT="$(mktemp)"
target/release/eqsql fuzz --seed 42 --iters 200 | tee -a "$FUZZ_OUT"

echo "==> eqsql fuzz --store (paged-backend smoke)"
# The same differential oracle over the paged storage engine: tables live
# in B-tree pages behind an 8-frame buffer pool and queries run on the
# volcano executor, amplified with extra generated rows so scans evict.
target/release/eqsql fuzz --seed 42 --iters 50 --store --store-rows 256 | tee -a "$FUZZ_OUT"

echo "==> eqsql fuzz --dml (write-loop differential smoke)"
# Write-loop gate (DESIGN.md §5i): generated DML loops run row-at-a-time
# under the interpreter and batched through the foreach-dml extractor;
# both sides must leave identical final table contents, and every kept
# write loop must carry exactly one E010/W010 blame diagnostic. The
# depend-pass proptests (tests/depend_props.rs) already ran under the
# `cargo test` step above.
target/release/eqsql fuzz --seed 42 --iters 200 --dml | tee -a "$FUZZ_OUT"

echo "==> eqsql fuzz --dml --store (forked-pager differential smoke)"
# Regression gate for the pager-aliasing fix: with --store each side of
# the write-loop differential mutates a deep-forked page image
# (Database::fork / Pager::fork_image) instead of aliasing one pager.
target/release/eqsql fuzz --seed 42 --iters 100 --dml --store | tee -a "$FUZZ_OUT"

echo "==> eqsql fuzz summaries vs golden"
diff -u tests/golden/fuzz_seed42.txt "$FUZZ_OUT"
rm -f "$FUZZ_OUT"

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
# endpoint sequence (/healthz, /extract + cached replay, /fuzz, a
# 10,000-term /extract that needs the workers' stated stack, a 30,000-term
# /extract past the parser's operand cap that must answer 400, /metrics
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
