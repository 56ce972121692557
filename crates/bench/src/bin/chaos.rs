//! Chaos-harness bench: proves the fault/guardrail machinery is cheap
//! and the invariant suite holds under load.
//!
//! Usage: `cargo run -p capsim-bench --bin chaos --release [-- out.json]`
//! (`CAPSIM_SCALE=test` for a fast smoke run.)
//!
//! Three measurements feed `BENCH_chaos.json`:
//!
//! * the scripted acceptance scenario (sensor dropout at t=10 s, BMC
//!   crash at t=20 s, recovery by t=30 s) runs with every invariant
//!   green, timed end to end including the serial replay check,
//! * a randomized soak over seeded fault plans, reported as
//!   scenarios/sec,
//! * guardrail overhead on the BMC control path: compute throughput on
//!   a capped machine with guardrails on vs `set_guardrails(false)`.
//!   The budget is 5% — the failsafe, watchdog and violation detector
//!   together must cost the hot path nothing measurable.

use std::time::Instant;

use capsim_bench::Scale;
use capsim_chaos::{check, soak, ChaosScenario, SoakConfig};
use capsim_node::{Machine, MachineConfig, PowerCap};

/// One timed compute pass on a capped machine, guardrails on or off.
/// Returns outer iterations per second; each iteration spans several
/// control ticks so the guardrail bookkeeping is actually exercised.
fn compute_pass(iters: u64, guarded: bool) -> f64 {
    let mut m = Machine::new(MachineConfig::tiny(0));
    m.set_power_cap(Some(PowerCap::new(135.0).unwrap()));
    m.set_guardrails(guarded);
    let start = Instant::now();
    for _ in 0..iters {
        m.compute(2_000);
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// `reps` interleaved (off, on) throughput pairs after a discarded
/// warm-up. Returns best-of throughputs for the trajectory record and
/// the *minimum* per-pair overhead for the budget gate — scheduler
/// noise is one-sided, so one clean pair bounds the true overhead from
/// above, while a real regression slows every guarded pass and survives
/// the minimum (same estimator as the telemetry bench).
fn guardrail_pairs(iters: u64, reps: u32) -> (f64, f64, f64) {
    compute_pass(iters / 2, false); // warm-up, discarded
    let (mut off, mut on, mut min_overhead) = (0.0f64, 0.0f64, f64::INFINITY);
    for _ in 0..reps {
        let o = compute_pass(iters, false);
        let g = compute_pass(iters, true);
        min_overhead = min_overhead.min((o - g) / o * 100.0);
        off = off.max(o);
        on = on.max(g);
    }
    // True overhead can't be negative; a sub-zero minimum just means one
    // pair ran guarded-faster by noise, i.e. the overhead is unmeasurable.
    (off, on, min_overhead.max(0.0))
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_chaos.json".into());
    let (soak_runs, iters, reps) = match Scale::from_env() {
        Scale::Paper => (8u32, 4_000u64, 5),
        Scale::Test => (3u32, 1_000u64, 3),
    };

    eprintln!("chaos: running the scripted acceptance scenario …");
    let start = Instant::now();
    let report = check(&ChaosScenario::scripted());
    let scripted_ms = start.elapsed().as_secs_f64() * 1e3;
    let violations = report.violations.len();
    eprintln!("  scripted        : {scripted_ms:>10.1} ms, {violations} violation(s)");
    assert!(report.ok(), "scripted scenario violated invariants: {:?}", report.violations);

    eprintln!("chaos: soaking {soak_runs} randomized fault plans …");
    let cfg = SoakConfig { runs: soak_runs, nodes: 3, epochs: 8, seed: 0xC14A05 };
    let start = Instant::now();
    let soaked = soak(&cfg);
    let soak_per_sec = soaked.runs as f64 / start.elapsed().as_secs_f64();
    eprintln!("  soak            : {:>10.2} scenarios/s over {} run(s)", soak_per_sec, soaked.runs);
    assert!(
        soaked.ok(),
        "soak failed, reproducer: {}",
        soaked.failure.as_ref().map(|f| f.to_json()).unwrap_or_default()
    );

    eprintln!("chaos: timing guardrails-off vs -on compute path (n={iters}, best of {reps}) …");
    let (off, on, overhead_pct) = guardrail_pairs(iters, reps);
    eprintln!("  computes/s, off : {off:>12.0}");
    eprintln!("  computes/s, on  : {on:>12.0}");
    let budget_pct = 5.0;
    let within_budget = overhead_pct <= budget_pct;
    eprintln!("  overhead        : {overhead_pct:>11.2}% (budget {budget_pct}%)");

    let json = format!(
        "{{\n  \"scripted_ms\": {scripted_ms:.1},\n  \"invariant_violations\": {violations},\n  \
         \"soak_runs\": {soak_runs},\n  \"soak_scenarios_per_sec\": {soak_per_sec:.3},\n  \
         \"computes_per_sec_guard_off\": {off:.0},\n  \"computes_per_sec_guard_on\": {on:.0},\n  \
         \"guardrail_overhead_pct\": {overhead_pct:.3},\n  \"budget_pct\": {budget_pct:.1},\n  \
         \"within_budget\": {within_budget}\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write json");
    println!("{json}");
    eprintln!("wrote {out_path}");
    if !within_budget {
        eprintln!("chaos: guardrail overhead {overhead_pct:.2}% exceeds the {budget_pct}% budget");
        std::process::exit(1);
    }
}
