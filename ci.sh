#!/usr/bin/env bash
# Repository CI gate: format, lint, test, and a scaled-down end-to-end
# smoke of the paper's Table II sweep. Everything runs offline against
# the vendored shims in shims/.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== no host timing in the simulator: every management wait is counted in BMC polls"
if grep -rnE 'std::time|Instant::|thread::(spawn|sleep)' crates/*/src src tests examples --include=*.rs \
    | grep -v '^crates/bench/src/bin/'; then
  echo "host-timing dependence outside crates/bench/src/bin/ (listed above)"
  exit 1
fi

echo "== cargo clippy (workspace, every target incl. examples; warnings are errors)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== cargo test (workspace)"
cargo test --workspace -q

echo "== capsim-mem again in release (its oracles check the cache/TLB fast paths"
echo "   as the benchmark builds them: no debug assertions, wrapping shifts)"
cargo test --release -q -p capsim-mem

echo "== capsim-node again in release (the hit-charge table and the load-stream == load-loop"
echo "   tests run as the benchmark builds them, with no debug re-check of table answers)"
cargo test --release -q -p capsim-node

echo "== determinism suites again with more workers than cores (CAPSIM_THREADS=4):"
echo "   goldens and serial == parallel must hold on an oversubscribed pool"
CAPSIM_THREADS=4 cargo test --release -q --test fleet_determinism --test traffic_determinism \
  --test overload_robustness --test chaos_scenario

echo "== table2 smoke (CAPSIM_SCALE=test)"
CAPSIM_SCALE=test cargo run -q --release -p capsim-bench --bin table2 >/dev/null

echo "== fleet scaling smoke (CAPSIM_SCALE=test: lossy busy + datacenter mixes,"
echo "   each serial and parallel with 2 virtual threads, bit-compared)"
CAPSIM_SCALE=test cargo run -q --release -p capsim-bench --bin fleet /tmp/BENCH_fleet_ci.json >/dev/null

echo "== benchmark package tests (its own workspace under benchmark/)"
cargo test --manifest-path benchmark/Cargo.toml -q

echo "== perf smoke (to a scratch file; the committed BENCH_hotpath.json stays as recorded)"
cargo run -q --release -p capsim-bench --bin perf_smoke -- /tmp/BENCH_hotpath_ci.json >/dev/null

echo "== telemetry smoke (CAPSIM_SCALE=test: obs overhead budget)"
CAPSIM_SCALE=test cargo run -q --release -p capsim-bench --bin telemetry /tmp/BENCH_obs_ci.json >/dev/null

echo "== chaos smoke (CAPSIM_SCALE=test: scripted scenario, soak, guardrail budget)"
CAPSIM_SCALE=test cargo run -q --release -p capsim-bench --bin chaos /tmp/BENCH_chaos_ci.json >/dev/null

echo "== policy smoke (CAPSIM_SCALE=test: RL training replay, frontier, chaos per backend)"
CAPSIM_SCALE=test cargo run -q --release -p capsim-bench --bin policy /tmp/BENCH_policy_ci.json >/dev/null

echo "== traffic smoke (CAPSIM_SCALE=test: emergency replay twins, cap ladder, SLO/J frontier,"
echo "   retry storm with closed-loop clients + failover)"
CAPSIM_SCALE=test cargo run -q --release -p capsim-bench --bin traffic /tmp/BENCH_traffic_ci.json >/dev/null

echo "== every example runs (each asserts its own invariants, e.g. the datacenter example's"
echo "   caps within the budget and the serial == parallel replays of closed_loop and backpressure)"
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  echo "   example $name"
  cargo run -q --release --example "$name" >/dev/null
done

echo "== bench trajectory files parse and carry their required keys"
cargo run -q --release -p capsim-bench --bin bench_check -- BENCH_*.json /tmp/BENCH_hotpath_ci.json /tmp/BENCH_fleet_ci.json /tmp/BENCH_obs_ci.json /tmp/BENCH_chaos_ci.json /tmp/BENCH_policy_ci.json /tmp/BENCH_traffic_ci.json

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "CI OK"
