#!/usr/bin/env bash
# CI gate for the LimeQO reproduction workspace.
#
#   ./ci.sh            # lint + tier-1 (build, tests, perf smoke, bench type-check)
#   ./ci.sh --fast     # skip the release build (debug tests only)
#   ./ci.sh --ignored  # slow tier only: tests marked #[ignore]
#                      # (full-scale figure smokes, the 100k-query scale
#                      # scenarios, and the sharded 1M-row tier with its
#                      # 256 MiB memory-budget assertion; > ~5 s each) +
#                      # the full-size perf trajectory
#                      # (bench-results/BENCH_policy.json)
#
# Everything runs offline: external deps are vendored under vendor/ (see
# vendor/README.md), so no registry access is needed or attempted.
set -euo pipefail
cd "$(dirname "$0")"

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

if [[ "${1:-}" == "--ignored" ]]; then
  echo "==> slow tier: cargo test -- --ignored"
  cargo test --offline -q -p limeqo-integration-tests -- --ignored
  # Full-size perf trajectory: 10k×49 hot paths, self-validated JSON
  # (the binary re-parses the file and checks the required metric keys,
  # failing the tier if the document is malformed).
  echo "==> perf trajectory (full): bench-results/BENCH_policy.json"
  cargo run --offline --release -q -p limeqo-bench --bin perf -- --full
  echo "CI OK (slow tier)"
  exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

# Robustness gate: the durability layer and the daemon must not panic on
# I/O failures — any unwrap/expect in their non-test code is a potential
# daemon-killer, so production paths carry typed errors only (code below
# the #[cfg(test)] marker is exempt).
echo "==> no-unwrap gate (persist.rs + svc non-test code)"
for f in crates/core/src/persist.rs crates/svc/src/lib.rs; do
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -nE '\.unwrap\(\)|\.expect\('; then
    echo "ci.sh: $f has unwrap/expect in non-test code (use typed errors)" >&2
    exit 1
  fi
done

# One probe executor: the Eq. 5 censoring rule (a probe past its timeout
# is charged the timeout and observed censored) is written once, in
# limeqo_core::engine::execute_probe, and every engine driver calls it.
# The grep matches the `censored = … > timeout` form only, so a copy in
# that form anywhere else in crates/, tests/ or examples/ fails here;
# other spellings are not caught. BayesQoRunner (the §5.6 baseline, which
# never talks to the engine) keeps its own inverted copy on purpose.
echo "==> one probe executor (censoring rule only in execute_probe)"
rule='censored *= *[^;=]*> *timeout'
hits=$(grep -rnE "$rule" crates tests examples --include='*.rs' || true)
allowed=$(awk '/^pub fn execute_probe/{f=1} f{print FILENAME":"FNR":"$0} f&&/^}/{exit}' \
  crates/core/src/engine.rs | grep -E "$rule" || true)
if [[ -z "$allowed" || "$hits" != "$allowed" ]]; then
  echo "ci.sh: the censoring rule must appear exactly once, inside execute_probe; found:" >&2
  echo "${hits:-<nowhere>}" >&2
  exit 1
fi

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Doc gate: rustdoc warnings (missing_docs on ALL five workspace crates'
# lib targets, broken intra-doc links everywhere) are errors, so the API
# doc pass in ARCHITECTURE.md can't rot.
echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --quiet

if [[ "$FAST" == "0" ]]; then
  echo "==> tier-1: cargo build --release"
  cargo build --offline --release
fi

echo "==> tier-1: cargo test -q"
cargo test --offline -q

# Re-runs a suite tier-1 already covered (~9 s) so a golden mismatch gets
# its own named gate line in CI output rather than drowning in tier-1.
echo "==> scenario golden suite"
cargo test --offline -q -p limeqo-integration-tests --test scenarios

# Kernel-equivalence differential suite: the tiled product and the fused
# ALS half-steps bit-identical to the three-pass reference (QHᵀ, fill,
# batched ridge solve) at every tile/thread combination and on the edge
# cases uniform draws miss (exact zeros, censored bounds on both sides of
# the prediction, fewer rows than threads, ranks around the fixed-width
# r = 5 path, λ = 0 on rank-deficient factors), incremental factor updates
# exact when all rows are dirty and deviation-bounded otherwise, and the
# LimeQO-vs-Random invariant with incremental updates on. Re-run under its
# own gate line (like the golden suite) so a kernel divergence is named in
# CI output; the large-shape sweep rides the --ignored tier.
echo "==> kernel-equivalence differential suite"
cargo test --offline -q -p limeqo-integration-tests --test kernels

# The benchmark harness's own tests (perfbench/ is a standalone package, so
# tier-1 never builds it): a traced episode reproduces the untraced one bit
# for bit, the harness round loop equals Explorer::run_until, and the
# reference clocks. A kernel change that breaks the benchmark's checks
# fails here, not in the benchmark run. --locked: a crate-graph change that
# would rewrite the benchmark's own perfbench/Cargo.lock fails here instead
# of silently editing that file.
echo "==> benchmark harness tests (perfbench)"
cargo test --offline --locked -q --manifest-path perfbench/Cargo.toml

# The file corpus under scenarios/ must stay a byte-exact re-expression
# of the code registry (canonical serializer form, spec-equal,
# bit-identical metrics on the cheap pair), and every pinned
# counterexample under scenarios/broken/ must still be caught by the
# fuzzer's calibrated invariants.
echo "==> scenario corpus + fuzzer gates"
cargo test --offline -q -p limeqo-integration-tests \
  --test scenario_corpus --test scenario_fuzz

# Perf trajectory, smoke-sized: emits bench-results/BENCH_policy_smoke.json
# (NOT the committed BENCH_policy.json — smoke never clobbers the tracked
# full-size trajectory) and fails if the document does not parse or misses
# a required metric key (the binary validates itself;
# tests/tests/perf_report.rs pins the same contract in-process). Full
# sizes live in the --ignored tier.
if [[ "$FAST" == "0" ]]; then
  echo "==> perf trajectory (smoke): bench-results/BENCH_policy_smoke.json"
  cargo run --offline --release -q -p limeqo-bench --bin perf -- --smoke
  # Belt-and-braces beyond the binary's self-validation: the selection
  # subsystem's metric keys must actually land in the emitted document
  # (a silently dropped emitter line would otherwise only fail in-process
  # tests, not the committed-trajectory workflow).
  for key in isa policy.sample_s policy.topk_s \
    als.blocked_s als.block_speedup als.incremental_s \
    shard.select_s shard.merge_s shard.als_s shard.mem_bytes \
    svc.journal_append_s svc.snapshot_s svc.recover_s \
    svc.retry_backoff_s fault.injected_total; do
    if ! grep -q "\"$key\"" bench-results/BENCH_policy_smoke.json; then
      echo "ci.sh: BENCH_policy_smoke.json is missing \"$key\"" >&2
      exit 1
    fi
  done
fi

# Corpus + fuzzer, through the real binary: load and run the whole
# scenarios/ directory (exit 2 with the offending path on any
# parse/validation failure), then a bounded property-based smoke —
# 8 generated specs off the fixed CI seed, every calibrated invariant
# checked, failures auto-minimized under bench-results/fuzz-failures/.
if [[ "$FAST" == "0" ]]; then
  echo "==> scenario corpus run (scenario --dir scenarios)"
  cargo run --offline --release -q -p limeqo-bench --bin scenario -- --dir scenarios
  echo "==> scenario fuzz smoke (seed 1, 8 cases)"
  cargo run --offline --release -q -p limeqo-bench --bin scenario -- fuzz --seed 1 --count 8
fi

# Service-layer crash smoke: boot the daemon, kill it mid-round (abort
# after 12 journaled events — no flush, no destructors), recover into a
# continuation script, and require the recovered trace reply to be
# byte-identical to an uninterrupted run's. This exercises the real
# binary + real files end to end; tests/tests/crash_recovery.rs proves
# the same property in-process at every kill point.
if [[ "$FAST" == "0" ]]; then
  echo "==> limeqo-svc crash-recovery smoke"
  SVC=target/release/limeqo-svc
  SMOKE_DIR="$(mktemp -d)"
  trap 'rm -rf "$SMOKE_DIR"' EXIT
  "$SVC" --dir "$SMOKE_DIR/ref" --script crates/svc/smoke/full.ndjson > "$SMOKE_DIR/ref.out"
  set +e
  "$SVC" --dir "$SMOKE_DIR/kill" --script crates/svc/smoke/full.ndjson \
    --crash-after-events 12 > "$SMOKE_DIR/kill.out" 2>/dev/null
  kill_status=$?
  set -e
  if [[ "$kill_status" -eq 0 ]]; then
    echo "ci.sh: svc smoke expected the crashed daemon to die non-zero" >&2
    exit 1
  fi
  "$SVC" --dir "$SMOKE_DIR/kill" --script crates/svc/smoke/resume.ndjson > "$SMOKE_DIR/resume.out"
  grep '"op":"trace"' "$SMOKE_DIR/ref.out" > "$SMOKE_DIR/ref.trace"
  grep '"op":"trace"' "$SMOKE_DIR/resume.out" > "$SMOKE_DIR/resume.trace"
  if ! cmp -s "$SMOKE_DIR/ref.trace" "$SMOKE_DIR/resume.trace"; then
    echo "ci.sh: recovered svc trace differs from the uninterrupted run:" >&2
    diff "$SMOKE_DIR/ref.trace" "$SMOKE_DIR/resume.trace" >&2 || true
    exit 1
  fi
  echo "    killed at event 12 (exit $kill_status), recovered trace byte-identical"

  # Protocol error-path smoke: every malformed request in
  # crates/svc/smoke/errors.ndjson (pre-init ops, non-JSON, duplicate
  # init, unknown op, bad/missing fields) must get an {"ok":false,...}
  # reply while the daemon keeps serving — 7 errors, 4 successes, clean
  # exit. tests in crates/svc/src/lib.rs pin the same paths in-process.
  echo "==> limeqo-svc protocol error-path smoke"
  "$SVC" --dir "$SMOKE_DIR/errors" --script crates/svc/smoke/errors.ndjson \
    > "$SMOKE_DIR/errors.out"
  err_count=$(grep -c '"ok":false' "$SMOKE_DIR/errors.out")
  ok_count=$(grep -c '"ok":true' "$SMOKE_DIR/errors.out")
  if [[ "$err_count" -ne 7 || "$ok_count" -ne 4 ]]; then
    echo "ci.sh: svc error smoke expected 7 error + 4 ok replies, got $err_count + $ok_count:" >&2
    cat "$SMOKE_DIR/errors.out" >&2
    exit 1
  fi
  if ! tail -n 1 "$SMOKE_DIR/errors.out" | grep -q '"op":"shutdown"'; then
    echo "ci.sh: svc error smoke: daemon did not survive to the final shutdown" >&2
    exit 1
  fi
  echo "    7 error replies, 4 ok replies, daemon survived to shutdown"

  # Chaos smoke: a scripted append failure (--fault-at 20, mid tick 4)
  # inside a live daemon. The daemon must degrade rather than die: keep
  # ticking from memory, answer status with degraded:true + the persist
  # error, still serve hint, and exit 0. A fault-free restart on the same
  # state directory must then come up clean (degraded:false) — the
  # journal is valid up to the fault point. crash_recovery.rs proves the
  # same guarantees in-process across a 5-kind × 300-op fault grid.
  echo "==> limeqo-svc chaos smoke (--fault-at 20)"
  "$SVC" --dir "$SMOKE_DIR/chaos" --script crates/svc/smoke/chaos.ndjson \
    --fault-at 20 > "$SMOKE_DIR/chaos.out"
  if ! grep '"op":"status"' "$SMOKE_DIR/chaos.out" | grep -q '"degraded":true'; then
    echo "ci.sh: chaos smoke: status after the injected fault must report degraded:true" >&2
    cat "$SMOKE_DIR/chaos.out" >&2
    exit 1
  fi
  if ! grep '"op":"hint"' "$SMOKE_DIR/chaos.out" | grep -q '"ok":true'; then
    echo "ci.sh: chaos smoke: hint must keep serving in degraded mode" >&2
    cat "$SMOKE_DIR/chaos.out" >&2
    exit 1
  fi
  printf '{"op":"status"}\n{"op":"shutdown"}\n' > "$SMOKE_DIR/chaos-restart.ndjson"
  "$SVC" --dir "$SMOKE_DIR/chaos" --script "$SMOKE_DIR/chaos-restart.ndjson" \
    > "$SMOKE_DIR/chaos2.out"
  if ! grep '"op":"status"' "$SMOKE_DIR/chaos2.out" | grep -q '"degraded":false'; then
    echo "ci.sh: chaos smoke: fault-free restart must come up clean" >&2
    cat "$SMOKE_DIR/chaos2.out" >&2
    exit 1
  fi
  echo "    degraded daemon kept serving, exited 0, clean restart recovered"
fi

echo "==> benches type-check: cargo bench --no-run"
cargo bench --offline --no-run

echo "CI OK"
