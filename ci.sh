#!/usr/bin/env sh
# Tier-1 verification gate, runnable offline: the workspace has no
# registry dependencies. Cargo runs offline here as in the GitHub
# workflow, so a registry dependency fails the build instead of
# reaching for the network.
#
# Usage: ./ci.sh
set -eu
export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

# Release-mode tests exercise the threaded NDRange executor and the
# overflow-checked buffer arithmetic under optimization (debug builds
# trap on overflow; release builds wrap, which is where the checked
# bounds logic matters).
echo "== cargo test -q --release =="
cargo test -q --release

echo "== cargo clippy --all-targets -- -D warnings =="
cargo clippy --all-targets -- -D warnings

# Rustdoc with warnings denied: a doc link to a deleted or renamed item
# fails here instead of rendering as plain text.
echo "== cargo doc (rustdoc warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The README's first traced call: the quickstart example prices one
# option on the FPGA model and writes the session's Chrome trace, which
# must carry trace events.
echo "== quickstart example =="
cargo run --release -p bop-core --example quickstart -- --trace-out /tmp/quickstart_trace.json
grep -q '"traceEvents"' /tmp/quickstart_trace.json

# Smoke-run the serving layer end to end: a bounded, seeded open-loop
# stream through the batching service, with the JSON report parsed to
# guard the {experiment, rows, counters, wall_s} schema and the
# micro-batcher's closure-reason counters.
echo "== serve_load smoke =="
./target/release/serve_load --requests 40 --rate 5000 --shards 2 --seed 7 --json \
  > /tmp/serve_load_smoke.json
grep -q '"experiment":"serve_load"' /tmp/serve_load_smoke.json
grep -q '"serve.batches.closed' /tmp/serve_load_smoke.json

# Mixed market-risk workload: every payoff class in the stream, half the
# requests also computing Greeks. The per-payoff and greeks counters in
# the report prove the payoff-aware batching path served all of it.
echo "== serve_load mixed price+greeks smoke =="
./target/release/serve_load --requests 24 --rate 5000 --shards 2 --seed 7 \
  --outputs price+greeks --payoffs mixed --json > /tmp/serve_load_greeks.json
grep -q '"serve.greeks.options"' /tmp/serve_load_greeks.json
grep -q '"serve.payoff.bermudan.options"' /tmp/serve_load_greeks.json
grep -q '"serve.options_per_j"' /tmp/serve_load_greeks.json

# The implied-vol-surface bench must invert its whole grid and emit the
# stable report schema.
echo "== vol_surface smoke =="
./target/release/vol_surface --strikes 7 --expiries 4 --repeats 3 --json \
  | grep -q '"experiment":"vol_surface"'

# Smoke-run both kernel execution engines (the walker oracle and lanes)
# against each other: the run asserts bit-identical prices/stats/
# counters/traces internally and prints the determinism marker only when
# every comparison held.
echo "== interp_throughput engine determinism smoke =="
./target/release/interp_throughput --fast --engine all --json 2>&1 \
  | grep -q 'determinism check: PASS'

# Same determinism contract for the kernel IV.C pipe pair: the streaming
# producer/consumer launch graph must be bit-identical (stall counters
# included) across both engines and every worker count.
echo "== interp_throughput IV.C pipe smoke =="
./target/release/interp_throughput --kernel ivc --engine all --fast --json 2>&1 \
  | grep -q 'determinism check: PASS'

# Pipe hygiene gate: any kernel source using the pipe builtins must
# declare a `pipe` parameter, so no .cl file can reach read_pipe /
# write_pipe while bypassing the front-end's pipe validation.
echo "== kernel sources pass pipe builtin validation =="
unpiped=$(grep -rl 'read_pipe\|write_pipe' --include='*.cl' crates \
  | while read -r f; do grep -q 'pipe ' "$f" || echo "$f"; done || true)
if [ -n "${unpiped}" ]; then
  echo "kernel sources use pipe builtins without a pipe parameter:" >&2
  echo "${unpiped}" >&2
  exit 1
fi

# The chaos suite already ran once inside `cargo test` (it is a tier-1
# [[test]] of bop-serve, default seed). Re-run it under two more fixed
# seeds so the determinism contract is proved on several fault streams,
# not one lucky draw.
echo "== chaos suite under fixed seeds =="
BOP_CHAOS_SEED=1 cargo test -q --release -p bop-serve --test chaos
BOP_CHAOS_SEED=2 cargo test -q --release -p bop-serve --test chaos

# The serving layer's shard workers pull batches from one shared queue
# and wake each other when a batch ends. One interpreter worker per
# launch prices more slowly, which changes how the shard threads
# interleave; re-running the serve and chaos suites that way helps
# expose a lost wake-up (a test then times out or hangs).
echo "== serve and chaos suites with one interpreter worker =="
BOP_SIM_WORKERS=1 cargo test -q --release -p bop-serve --test serve --test chaos

# Degraded-pool smoke: inject a 10% deterministic fault plan into the
# serving stack. The availability row proves the retry/redispatch path
# served something; the stderr marker proves a replayed campaign is
# bit-identical. Telemetry must survive degraded mode too: the report
# still carries the percentile rows.
echo "== serve_load fault-injection smoke =="
./target/release/serve_load --requests 40 --rate 5000 --shards 2 --seed 7 \
  --faults 0.1 --fault-seed 1234 --json 2>/tmp/serve_load_faults.err \
  | grep -q '"serve.availability"'
grep -q 'fault determinism check: PASS' /tmp/serve_load_faults.err

# Telemetry smoke: the serve report carries tail percentiles and
# energy efficiency, and a traced run produces a Chrome document whose
# spans carry request ids (the per-request linkage itself is asserted
# in tests/observability.rs).
echo "== serve_load telemetry smoke =="
./target/release/serve_load --requests 40 --rate 5000 --shards 2 --seed 7 \
  --json --trace-out /tmp/serve_trace.json > /tmp/serve_load_telemetry.json
grep -q '"serve.latency.p95"' /tmp/serve_load_telemetry.json
grep -q '"serve.options_per_j"' /tmp/serve_load_telemetry.json
grep -q '"request_id"' /tmp/serve_trace.json
grep -q '"droppedSpans"' /tmp/serve_trace.json

# Golden reproduction output: the paper's tables and figures, and the
# ablation, must come out byte for byte as committed (minus the
# wall-clock `wall_s`). An intended change to the model regenerates the
# golden in the same change. `figures figure3 --json` is left out: it
# emits `"rows":[]`, so its golden would pin nothing.
echo "== golden reproduction output =="
for golden in "table1:table1 --json" "table2:table2 --fast --json" \
  "figure4:figures figure4 --json" "ablation:ablation --json"; do
  name=${golden%%:*}
  # shellcheck disable=SC2086 # the command line splits into words on purpose
  ./target/release/${golden#*:} | sed 's/,"wall_s":[-0-9.eE+]*}$/}/' \
    | cmp - "tests/golden/${name}.json" \
    || { echo "${golden#*:}: output differs from tests/golden/${name}.json" >&2; exit 1; }
done

# Perf-trajectory gate: snapshot the fast benchmark suite, prove the
# comparator passes on identical numbers and fails on a synthetic 2x
# slowdown. (Cross-PR comparisons against the committed BENCH_*.json
# use --warn-only: wall-clock rows move with the host.)
echo "== bench_snapshot comparator smoke =="
./target/release/bench_snapshot run --fast --out /tmp/bench_head.json --label ci
./target/release/bench_snapshot compare /tmp/bench_head.json /tmp/bench_head.json
./target/release/bench_snapshot degrade /tmp/bench_head.json /tmp/bench_degraded.json --factor 0.5
if ./target/release/bench_snapshot compare /tmp/bench_head.json /tmp/bench_degraded.json; then
  echo "bench_snapshot comparator failed to flag a 2x regression" >&2
  exit 1
fi
latest_snapshot=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)
if [ -n "${latest_snapshot}" ]; then
  ./target/release/bench_snapshot compare "${latest_snapshot}" /tmp/bench_head.json --warn-only
fi

# Short benchmark correctness pass: perfbench (a workspace of its own)
# runs every BENCHMARK.json workload for two seconds and checks each
# output. It exits 0 even when a check fails, so the gate reads the
# result JSON on the last stdout line instead.
echo "== perfbench correctness pass =="
cargo build --release --manifest-path perfbench/Cargo.toml
for workload in paper-ivb serve-risk serve-vanilla compile-sweep; do
  result=$(./perfbench/target/release/perfbench --workload "${workload}" --seed 1 \
    --seconds 2 --trace 0 | tail -n 1)
  case "${result}" in
    *'"correct":true'*'"failed":0'*) echo "perfbench ${workload}: ok" ;;
    *)
      echo "perfbench ${workload} failed its output checks: ${result}" >&2
      exit 1
      ;;
  esac
done

# Traced pass: with --trace 1 perfbench reports the per-layer rows of
# BENCHMARK.json (compile stages, per-engine interpreter cost, queue and
# serve breakdowns) and refuses a set that differs from the file, so a
# layer that stops reporting fails here. The trace lands under the
# git-ignored perfbench/out/.
echo "== perfbench traced pass =="
for workload in paper-ivb serve-risk serve-vanilla compile-sweep; do
  output=$(./perfbench/target/release/perfbench --workload "${workload}" --seed 1 \
    --seconds 1 --trace 1) \
    || { echo "perfbench ${workload} traced run exited with status $?" >&2; exit 1; }
  result=$(printf '%s\n' "${output}" | tail -n 1)
  case "${result}" in
    *'"correct":true'*'"failed":0'*) echo "perfbench ${workload} (traced): ok" ;;
    *)
      echo "perfbench ${workload} traced run failed its output checks: ${result}" >&2
      exit 1
      ;;
  esac
  if [ "${workload}" = paper-ivb ]; then ivb_result=${result}; fi
done

# Exact gate on perfbench's deterministic rows: every count and bytes
# row (instruction counts, bytecode lengths, commands and transfer
# bytes per option, pipe stalls), every simulated-device figure
# (fpga.sim_*) and the served options per simulated joule of the
# traced paper-ivb run must match the golden value for value. An
# intended change to one of them regenerates
# tests/golden/perfbench-paper-ivb.json in the same change.
echo "== perfbench deterministic rows =="
printf '%s\n' "${ivb_result}" | grep -o '"[^"]*":{"unit":"[^"]*","value":[^}]*}' \
  | grep '^"[^"]*":{"unit":"\(count\|bytes\)"\|^"fpga\.sim_\|^"serve\.sim_options_per_j"' \
  | sed '$!s/$/,/' | { echo '{'; cat; echo '}'; } \
  | cmp - tests/golden/perfbench-paper-ivb.json \
  || { echo "perfbench paper-ivb: deterministic rows differ from tests/golden/perfbench-paper-ivb.json" >&2; exit 1; }

echo "CI: all gates passed"
