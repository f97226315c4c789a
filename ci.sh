#!/usr/bin/env bash
# CI gate for the LimeQO reproduction workspace.
#
#   ./ci.sh            # lint + tier-1 (build, tests, perf smoke)
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

# No unsafe code: every library root forbids it, and no `unsafe` block,
# fn, impl or trait appears anywhere under crates/ (a forbid in the root
# already rejects one at compile time; the grep also names the binaries
# and makes a dropped forbid visible here).
echo "==> no-unsafe gate (#![forbid(unsafe_code)] in every library root)"
for root in crates/*/src/lib.rs; do
  if ! grep -qx '#!\[forbid(unsafe_code)\]' "$root"; then
    echo "ci.sh: $root lacks #![forbid(unsafe_code)]" >&2
    exit 1
  fi
done
if grep -rnE '(^|[^[:alnum:]_"])unsafe +(\{|fn|impl|trait|extern)' crates --include='*.rs'; then
  echo "ci.sh: unsafe code under crates/ (see above)" >&2
  exit 1
fi

# No fused multiply-add: `mul_add` rounds once where the kernels' `a * b`
# then `+` round twice, so it moves the bits that the determinism tests
# and the goldens pin (one in a dot once failed two tests). The ALS row
# loop's laned axpys invite exactly that rewrite. The grep matches a call
# (`mul_add(`) in non-test code (above each file's #[cfg(test)] marker)
# under crates/.
echo "==> no-mul_add gate (non-test code under crates/)"
for f in $(grep -rlE 'mul_add *\(' crates --include='*.rs' || true); do
  if awk '/#\[cfg\(test\)\]/{exit} {print FNR": "$0}' "$f" | grep -E 'mul_add *\('; then
    echo "ci.sh: $f calls mul_add in non-test code (see above)" >&2
    exit 1
  fi
done

# One row layout: the shard partition is the workload matrix's storage
# decision. Every other module reads rows 0..n as if there were one shard,
# so no non-test code under crates/ outside matrix.rs and store.rs (which
# writes the layout into snapshots) asks for it. The leading `.` keeps
# names such as scenario_fuzz.rs's gen_shards( out of the match.
echo "==> shard-layout gate (.shard_ranges( / .n_shards( only in matrix.rs and store.rs)"
layout='\.(shard_ranges|n_shards)\('
for f in $(grep -rlE "$layout" crates --include='*.rs' || true); do
  case "$f" in crates/core/src/matrix.rs | crates/core/src/store.rs) continue ;; esac
  if awk '/#\[cfg\(test\)\]/{exit} {print FNR": "$0}' "$f" | grep -E "$layout"; then
    echo "ci.sh: $f reads the shard layout in non-test code (see above)" >&2
    exit 1
  fi
done

# One fork-join: limeqo_linalg::par (par_chunks, par_map) is the only code
# that starts threads, so every parallel stage shares its partition, its
# panic propagation and its thread-count resolution (0 asks the machine).
# No non-test code under crates/ (above each file's #[cfg(test)] marker)
# outside crates/linalg/src/par.rs names thread::scope, thread::spawn or
# available_parallelism; comment lines are exempt. Every offending file is
# named before the gate fails.
echo "==> one fork-join gate (threads start only in crates/linalg/src/par.rs)"
forkjoin='thread::(scope|spawn)|available_parallelism'
forkjoin_bad=0
for f in $(grep -rlE "$forkjoin" crates --include='*.rs' || true); do
  [[ "$f" == crates/linalg/src/par.rs ]] && continue
  if awk '/#\[cfg\(test\)\]/{exit} {print FNR": "$0}' "$f" | grep -vE '^[0-9]+: *//' |
    grep -E "$forkjoin"; then
    echo "ci.sh: $f starts threads outside limeqo_linalg::par (see above)" >&2
    forkjoin_bad=1
  fi
done
if [[ "$forkjoin_bad" -ne 0 ]]; then
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

# Kernel-equivalence suite: the one ALS kernel (the sparse-plus-low-rank
# half-steps) bit-identical across thread counts and shard layouts and
# within DENSE_REFERENCE_TOL (relative Frobenius) of the dense three-pass
# reference (QHᵀ, fill, batched ridge solve), on ranks 1–8, censored bounds
# at zero and on both sides of the prediction, default-only and fully
# observed rows, and fewer rows than threads; incremental factor updates
# exact when all rows are dirty and deviation-bounded otherwise; and the
# LimeQO-vs-Random invariant with incremental updates on. Exact zeros in
# the factors and λ = 0 on rank-deficient factors are pinned at the
# half-step by als.rs's unit tests (tier-1), and so are the kernel's
# reorderings, each bit for bit against the order it replaced:
# gram_is_t_matmul_bit_for_bit (the register Gram without a zero select,
# with ±0.0, ±∞, NaN and overflowing squares),
# row_loop_matches_the_dot_order_bit_for_bit (the laned row sums, ranks
# 1–8, fixed and runtime rank), row_pairs_match_the_dot_order_at_every_chunk_offset
# (two rows per pass, started at every odd and even offset, ranks 1–8, both
# instantiations, and a NaN row pinned to its one-chunk run),
# fused_clamp_is_clamp_min (the clamp in the row write, −0.0 and NaN), and
# linalg's matmul_t_matches_mat_matmul_t_bit_for_bit_on_edge_values (the
# final QHᵀ laned across hints: a −0.0 first product, ±∞, NaN, widths 0, 1
# and odd, fewer rows than threads).
# Re-run under its own gate line (like the golden suite) so a kernel
# divergence is named in CI output.
echo "==> kernel-equivalence suite"
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

# The files under scenarios/ are the scenario registry: every loadable
# file there and in scenarios/scale/ must have its line in the registry's
# include_str! table (and every line a file), every file must be in
# canonical serializer form, nothing but .json specs, .csv traces and
# README.md may live under scenarios/, and every pinned counterexample
# under scenarios/broken/ must still be caught by the fuzzer's calibrated
# invariants.
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
  for key in policy.sample_s policy.topk_s \
    als.dense_ref_s als.dense_ref_speedup als.incremental_s \
    shard.select_s shard.als_s shard.mem_bytes \
    svc.journal_append_s svc.snapshot_s svc.recover_s \
    svc.retry_backoff_s fault.injected_total; do
    if ! grep -q "\"$key\"" bench-results/BENCH_policy_smoke.json; then
      echo "ci.sh: BENCH_policy_smoke.json is missing \"$key\"" >&2
      exit 1
    fi
  done
fi

# Benchmark smoke: every workload BENCHMARK.json declares, run once through
# the command it declares (cargo run --release of perfbench/) at --seed 1
# --seconds 1 --trace 0. The run's last line must report "correct":true and
# "failed":0, so a kernel change that breaks a benchmark output check fails
# here (~30 s plus the perfbench release build) rather than in a full
# benchmark run.
if [[ "$FAST" == "0" ]]; then
  echo "==> benchmark smoke (BENCHMARK.json command, each workload once)"
  read -r -a bench_cmd <<< "$(sed -nE 's/^ *"command": *\[(.*)\],?$/\1/p' BENCHMARK.json | tr -d '",')"
  bench_workloads=$(grep -oE '"name": *"[^"]+", *"why"' BENCHMARK.json | sed -E 's/"name": *"([^"]+)".*/\1/')
  if [[ "${#bench_cmd[@]}" -eq 0 || -z "$bench_workloads" ]]; then
    echo "ci.sh: could not read the command and workloads from BENCHMARK.json" >&2
    exit 1
  fi
  for workload in $bench_workloads; do
    result=$("${bench_cmd[@]}" --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    if [[ "$result" != *'"correct":true'* || "$result" != *'"failed":0,'* ]]; then
      echo "ci.sh: benchmark smoke $workload did not report a correct run with no failures:" >&2
      echo "$result" >&2
      exit 1
    fi
    echo "    $workload: ${result%%,\"metrics\"*}}"
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
  # The bin refuses what it does not handle: a retired subcommand or a
  # typoed flag must exit 2, not silently run the whole matrix.
  for bad in "export scenarios" "--bogus"; do
    set +e
    # shellcheck disable=SC2086  # split "$bad" into its arguments
    target/release/scenario $bad > /dev/null 2>&1
    status=$?
    set -e
    if [[ "$status" -ne 2 ]]; then
      echo "ci.sh: scenario $bad exited $status, expected 2" >&2
      exit 1
    fi
  done
  # A spec past a size bound (2^25 cells, 64 catalog tables, 2^20
  # arrivals) is a load error naming the file (exit 2), not an allocation
  # abort in a worker.
  HUGE_DIR="$(mktemp -d)"
  sed 's/"n": 400,/"n": 1000000000000,/' scenarios/censor-hostile.json > "$HUGE_DIR/cells.json"
  sed 's/"n_tables": 21,/"n_tables": 1000000000,/' scenarios/job-mini.json > "$HUGE_DIR/tables.json"
  sed 's/"count": 2500,/"count": 1000000000000,/' scenarios/online-uniform.json \
    > "$HUGE_DIR/arrivals.json"
  for huge in cells tables arrivals; do
    mkdir "$HUGE_DIR/$huge"
    mv "$HUGE_DIR/$huge.json" "$HUGE_DIR/$huge/"
    set +e
    huge_err=$(target/release/scenario --dir "$HUGE_DIR/$huge" 2>&1 > /dev/null)
    status=$?
    set -e
    if [[ "$status" -ne 2 || "$huge_err" != *"$huge.json"* ]]; then
      echo "ci.sh: scenario --dir on an oversized $huge.json exited $status, expected 2 naming it:" >&2
      echo "$huge_err" >&2
      rm -rf "$HUGE_DIR"
      exit 1
    fi
  done
  rm -rf "$HUGE_DIR"
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
  # crates/svc/smoke/errors.ndjson (pre-init ops, non-JSON, a bad
  # surrogate pair, oversized inits, duplicate init, unknown op, bad/missing
  # fields) must get an {"ok":false,...} reply while the daemon keeps
  # serving — 11 errors, 4 successes, clean exit. tests in crates/svc/src/lib.rs pin the same
  # paths in-process.
  echo "==> limeqo-svc protocol error-path smoke"
  "$SVC" --dir "$SMOKE_DIR/errors" --script crates/svc/smoke/errors.ndjson \
    > "$SMOKE_DIR/errors.out"
  err_count=$(grep -c '"ok":false' "$SMOKE_DIR/errors.out")
  ok_count=$(grep -c '"ok":true' "$SMOKE_DIR/errors.out")
  if [[ "$err_count" -ne 11 || "$ok_count" -ne 4 ]]; then
    echo "ci.sh: svc error smoke expected 11 error + 4 ok replies, got $err_count + $ok_count:" >&2
    cat "$SMOKE_DIR/errors.out" >&2
    exit 1
  fi
  if ! tail -n 1 "$SMOKE_DIR/errors.out" | grep -q '"op":"shutdown"'; then
    echo "ci.sh: svc error smoke: daemon did not survive to the final shutdown" >&2
    exit 1
  fi
  echo "    11 error replies, 4 ok replies, daemon survived to shutdown"

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

echo "CI OK"
