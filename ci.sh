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

echo "== cargo clippy (workspace, benches, tests; warnings are errors)"
cargo clippy --workspace --benches --tests -q -- -D warnings

echo "== cargo test (workspace)"
cargo test --workspace -q

echo "== capsim-mem again in release (its oracles check the cache/TLB fast paths"
echo "   as the benchmark builds them: no debug assertions, wrapping shifts)"
cargo test --release -q -p capsim-mem

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

echo "== datacenter smoke (DCM budgets three nodes mid-run over pumped IPMI links;"
echo "   asserts caps sum within the budget and every node's BMC escalated)"
cargo run -q --release --example datacenter >/dev/null

echo "== fleet, telemetry and policy-lab example smokes (each plans through the fleet's CapPolicy)"
cargo run -q --release --example fleet >/dev/null
cargo run -q --release --example telemetry >/dev/null
cargo run -q --release --example policy_lab >/dev/null

echo "== closed-loop smoke (retry-storm fleet, serial vs parallel byte-compared inline)"
cargo run -q --release --example closed_loop >/dev/null

echo "== traffic example smoke (unobserved serving fleets still report their request books)"
cargo run -q --release --example traffic >/dev/null

echo "== backpressure smoke (retry-only vs AIMD+brownout twins, per-class conservation,"
echo "   CAPSIM_THREADS {1,4} re-exec fingerprints compared)"
cargo run -q --release --example backpressure >/dev/null

echo "== bench trajectory files parse and carry their required keys"
cargo run -q --release -p capsim-bench --bin bench_check -- BENCH_*.json /tmp/BENCH_hotpath_ci.json /tmp/BENCH_fleet_ci.json /tmp/BENCH_obs_ci.json /tmp/BENCH_chaos_ci.json /tmp/BENCH_policy_ci.json /tmp/BENCH_traffic_ci.json

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "CI OK"
