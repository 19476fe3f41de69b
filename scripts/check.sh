#!/usr/bin/env bash
# Full local gate. Cheap static stages run first (formatting, clippy,
# xtask check) so a style slip or invariant violation fails in seconds,
# before the multi-minute build/test stages; per-stage wall-clock timings
# print at the end.
# Run from anywhere; operates on the workspace containing this script.
# Any failing step (including xtask check findings) exits nonzero.
set -euo pipefail
cd "$(dirname "$0")/.."

TIMINGS=()
stage() {
  local name=$1
  shift
  local t0 t1
  t0=$(date +%s)
  "$@"
  t1=$(date +%s)
  TIMINGS+=("$(printf '%-16s %4ds' "$name" "$((t1 - t0))")")
}

report() {
  echo
  echo "check.sh stage timings:"
  local line
  for line in "${TIMINGS[@]}"; do
    echo "  $line"
  done
}
trap report EXIT

# --- cheap static gates first ---------------------------------------------
stage fmt        cargo fmt --check
stage clippy     cargo clippy --workspace --all-targets -- -D warnings
# Every static rule over one parse of the workspace (DESIGN.md §7):
# per-line determinism, panic and numeric hygiene; the call-graph no-panic
# certification of the serving hot path (against audit-baseline.json),
# SAFETY coverage, lock order and metrics consistency; and no allow
# directive or baseline entry that suppresses nothing.
stage check      cargo run -q -p xtask -- check

# --- build + test ----------------------------------------------------------
stage build      cargo build --release
# Every test target once: the workspace minus the CLI's integration
# suites, each of which is a named stage below. The wire-codec,
# checksummed-container decode, cached-vs-cacheless serving, kernel,
# gradcheck and step-batched encoder properties run here too (DESIGN.md
# §12 determinism contract).
unit_tests() {
  cargo test -q --workspace --exclude deepod-cli &&
    cargo test -q -p deepod-cli --bins
}
stage test       unit_tests
# Fault-injection stage: drives the real `deepod` binary under several
# DEEPOD_FAILPOINTS schedules (epoch-boundary kill, mid-epoch step kill,
# injected worker panic, torn-rename crash) and asserts lossless,
# bit-identical resume plus checksum rejection of corrupt checkpoints.
stage crash      cargo test -q -p deepod-cli --test crash_resume
# Observability stage: JSON-log golden format, checksummed metrics.json
# artifact contents, obs-on/off bit-identity, thread-invariant counters,
# and hard rejection of malformed DEEPOD_FAILPOINTS (exit 78).
stage obs        cargo test -q -p deepod-cli --test observability
# Serving stage: drives `deepod serve` over its stdin/stdout JSON
# protocol — 1000 requests through one process in input order,
# --reject-when-full overload answered only by typed queue_full rejects
# (a full queue is the one queue-depth reject), corrupt-model
# degradation to route-tte fallback answers with exit code 2, and the
# stdin bytes of every request-level reject byte-equal to the frozen
# golden transcript (crates/cli/tests/golden/serve_rejects.*.ndjson).
stage serve      cargo test -q -p deepod-cli --test serve
# Chaos stage: the same binary under DEEPOD_FAILPOINTS fault schedules
# aimed at the serving engine (worker panic, slow batch, dropped reply,
# saturation) — exactly one reply per request, supervised restarts
# counted, deadlines swept, an idle worker draining the one queue while
# another is stuck in a slow batch (nothing misses its deadline),
# saturation rejected only as queue_full when the queue is full
# (counted once in serve.rejected, retried first under --retry-budget),
# and single-worker bit-identity preserved.
stage chaos      cargo test -q -p deepod-cli --test serve_chaos
# Network stage: the TCP front end end to end (DESIGN.md §16) —
# concurrent clients answered exactly once, per-connection in-flight
# shedding isolated from polite clients, typed rejects that do not kill
# the connection, clean drain on stdin close, deterministic stdin
# output, and worker-crash chaos. The wire codec's properties run in
# the test stage.
stage net        cargo test -q -p deepod-cli --test serve_net
# Cache stage: the exact-key serving cache end to end (DESIGN.md §15) —
# LRU repeats answer bit-identically to the cacheless path, a cell-mate
# of a cached request gets its own answer, TTL slot rollover expires
# entries, and pre-epoch departures get typed per-request rejects.
stage cache      cargo test -q -p deepod-cli --test serve_cache
# Benchmark smoke stage: one short pass of every workload of the repo
# benchmark (BENCHMARK.json). Its gate — each served reply `to_bits`-equal
# to `estimate_batch(threads = 1)` on the same request — is the end-to-end
# check that serving, batching and training still compute one function.
# Then the paper runner lists its registry (builds it and checks it
# starts, without training anything).
bench_smoke() {
  cargo run --release -q -p deepod-bench --bin benchmark -- --smoke &&
    cargo run --release -q -p deepod-bench --bin paper -- --list
}
stage bench-smoke bench_smoke
