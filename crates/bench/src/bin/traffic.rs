//! Traffic bench: the SLO-per-joule power-emergency experiment and the
//! tail-latency cost of cap depth, written to `BENCH_traffic.json`.
//!
//! Usage: `cargo run -p capsim-bench --bin traffic --release [-- out.json]`
//! (`CAPSIM_SCALE=test` for the CI smoke.)
//!
//! Three measurements:
//!
//! * **the headline emergency** — a datacenter-mix fleet (10k nodes at
//!   paper scale) serves a diurnal + flash-crowd trace through an
//!   oversubscribed root budget and a chaos fault plan (sensor dropout +
//!   BMC crash). The run is repeated serial and parallel (re-exec'd under
//!   different `CAPSIM_THREADS` — the rayon shim resolves its pool once
//!   per process); every twin must land on the same fingerprint
//!   (`deterministic`).
//! * **the cap ladder** — the same served trace at progressively deeper
//!   node budgets; each rung contributes (p99 latency, goodput, energy):
//!   the paper's performance-vs-cap trade re-measured on tail latency.
//! * **the policy frontier** — ladder vs governor vs trained-RL vs
//!   SLO-aware backends drive identical emergencies; each contributes
//!   SLO violations, energy and SLO-violations-per-kilojoule, with chaos
//!   invariants required green.
//! * **the retry storm** — the same emergency with closed-loop clients
//!   (timeout → capped-backoff retries) and barrier failover; replayed
//!   serial vs threaded in a re-exec'd child, with exact request
//!   conservation (`arrivals == completed + shed + in_flight`) asserted
//!   fleet-wide.
//! * **the backpressure frontier** — the retry storm served twice: once
//!   retry-only, once with the full robustness stack (AIMD client
//!   backoff + priority brownout + circuit breakers). Each mode
//!   contributes SLO violations, energy and SLO-violations-per-kJ; the
//!   robustness stack must win the frontier.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use capsim_bench::Scale;
use capsim_chaos::{check, run_scenario};
use capsim_dcm::{train_rl, FleetBuilder, RlTrainConfig, TrafficSummary};
use capsim_policy::CapPolicySpec;
use capsim_traffic::EmergencyConfig;

/// One headline twin: how the same emergency is executed.
#[derive(Clone, Copy)]
struct Twin {
    threads: usize,
    parallel: bool,
}

fn emergency(nodes: usize, epochs: u32) -> EmergencyConfig {
    EmergencyConfig::headline(nodes, epochs, 42)
}

/// Run one twin in-process; prints nothing. `storm` selects the
/// closed-loop retry-storm variant of the emergency. Returns
/// (fingerprint, traffic, energy_j, slo/J, wall_s).
fn measure(
    nodes: usize,
    epochs: u32,
    twin: Twin,
    storm: bool,
) -> (u64, TrafficSummary, f64, f64, f64) {
    let cfg = if storm {
        EmergencyConfig::retry_storm(nodes, epochs, 42)
    } else {
        emergency(nodes, epochs)
    };
    let scenario = cfg.scenario();
    let start = Instant::now();
    let outcome = run_scenario(&scenario, twin.parallel);
    let wall = start.elapsed().as_secs_f64();
    let mut h = DefaultHasher::new();
    outcome.fingerprint().hash(&mut h);
    let traffic = outcome.report.traffic().expect("emergency records traffic");
    let energy = outcome.report.energy().energy_j;
    let spj = outcome.report.slo_violations_per_joule().unwrap_or(0.0);
    (h.finish(), traffic, energy, spj, wall)
}

/// Child entry: argv = --measure nodes epochs threads parallel storm.
/// Prints `<fingerprint> <completed> <p99_ms> <wall_s>`.
fn run_child(args: &[String]) {
    let num = |i: usize| args[i].parse::<usize>().expect("numeric arg");
    let twin = Twin { threads: num(2), parallel: num(3) != 0 };
    let (fp, traffic, _, _, wall) = measure(num(0), num(1) as u32, twin, num(4) != 0);
    println!("{fp} {} {} {wall}", traffic.completed, traffic.p99_ms);
}

/// Re-exec this binary so `CAPSIM_THREADS` genuinely resizes the pool.
fn measure_in_child(nodes: usize, epochs: u32, twin: Twin, storm: bool) -> (u64, f64) {
    let exe = std::env::current_exe().expect("own path");
    let out = std::process::Command::new(exe)
        .env("CAPSIM_THREADS", twin.threads.to_string())
        .args([
            "--measure",
            &nodes.to_string(),
            &epochs.to_string(),
            &twin.threads.to_string(),
            &u8::from(twin.parallel).to_string(),
            &u8::from(storm).to_string(),
        ])
        .output()
        .expect("spawn measurement child");
    assert!(
        out.status.success(),
        "measurement child failed (threads={}, parallel={}): {}",
        twin.threads,
        twin.parallel,
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("child output");
    let mut it = text.split_whitespace();
    let fp: u64 = it.next().expect("fingerprint").parse().expect("fingerprint number");
    let wall: f64 = it.nth(2).expect("wall").parse().expect("wall number");
    (fp, wall)
}

/// One cap-ladder rung: the emergency trace served under a fixed node
/// budget, no faults (so the latency cost is the cap's alone).
fn ladder_point(nodes: usize, epochs: u32, budget_w_per_node: f64) -> String {
    let mut cfg = emergency(nodes, epochs);
    cfg.budget_w_per_node = budget_w_per_node;
    cfg.faults = false;
    let report = FleetBuilder::new()
        .nodes(cfg.nodes)
        .epochs(cfg.epochs)
        .epoch_s(cfg.epoch_s)
        .seed(cfg.seed)
        .budget_w(budget_w_per_node * nodes as f64)
        .observe(true)
        .workload(cfg.traffic.workload())
        .build()
        .run();
    let t = report.traffic().expect("traffic series");
    let e = report.energy();
    format!(
        "{{\"budget_w_per_node\": {budget_w_per_node}, \"p99_ms\": {:.6}, \
         \"p999_ms\": {:.6}, \"goodput_rps\": {:.1}, \"shed\": {}, \"energy_j\": {:.6}}}",
        t.p99_ms, t.p999_ms, t.goodput_rps, t.shed, e.energy_j
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--measure") {
        run_child(&args[1..]);
        return;
    }
    let out_path = args.first().cloned().unwrap_or_else(|| "BENCH_traffic.json".into());
    let scale = Scale::from_env();
    let scale_name = match scale {
        Scale::Paper => "full",
        Scale::Test => "test",
    };
    // Headline fleet, frontier fleet, epochs, RL training shape.
    let (nodes, frontier_nodes, epochs, train_cfg) = match scale {
        Scale::Paper => {
            let mut cfg = RlTrainConfig::quick(42);
            cfg.episodes = 8;
            cfg.nodes = 6;
            cfg.epochs = 10;
            cfg.budget_w = 330.0;
            (10_000, 512, 6, cfg)
        }
        Scale::Test => (48, 16, 6, RlTrainConfig::quick(42)),
    };

    // --- Headline emergency + determinism twins -------------------------
    eprintln!("traffic: headline emergency ({nodes} nodes x {epochs} epochs) …");
    let serial = Twin { threads: 1, parallel: false };
    let (fp0, traffic, energy_j, spj, wall0) = measure(nodes, epochs, serial, false);
    eprintln!(
        "  serial          : {:>10.1} s wall, {} completed, {} shed, p99 {:.4} ms",
        wall0, traffic.completed, traffic.shed, traffic.p99_ms
    );
    let twins = [Twin { threads: 2, parallel: true }, Twin { threads: 4, parallel: true }];
    let mut deterministic = true;
    for twin in twins {
        let (fp, wall) = measure_in_child(nodes, epochs, twin, false);
        let ok = fp == fp0;
        deterministic &= ok;
        eprintln!(
            "  threads={}       : {wall:>10.1} s wall, fingerprint {}",
            twin.threads,
            if ok { "identical" } else { "DIVERGED" }
        );
    }
    assert!(deterministic, "emergency replay diverged across thread twins");

    // --- Tail latency down the cap ladder -------------------------------
    let ladder_nodes = frontier_nodes;
    eprintln!("traffic: cap ladder ({ladder_nodes} nodes) …");
    let mut ladder = Vec::new();
    for budget in [150.0, 135.0, 125.0, 118.0, 112.0] {
        let point = ladder_point(ladder_nodes, epochs, budget);
        eprintln!("  {budget:>5} W/node     : {point}");
        ladder.push(point);
    }

    // --- Policy frontier under the full emergency -----------------------
    eprintln!("traffic: training the RL backend ({} episodes) …", train_cfg.episodes);
    let trained = train_rl(&train_cfg);
    let specs = [
        CapPolicySpec::Ladder(capsim_dcm::AllocationPolicy::Uniform),
        CapPolicySpec::Governor(capsim_policy::GovernorConfig::default()),
        CapPolicySpec::Rl(trained.q.clone()),
        CapPolicySpec::Slo(capsim_policy::SloConfig::default()),
    ];
    let mut frontier = Vec::new();
    let mut violations = 0usize;
    for spec in &specs {
        let name = spec.name();
        eprintln!("traffic: {name}: emergency frontier ({frontier_nodes} nodes) …");
        let scenario = emergency(frontier_nodes, epochs).with_policy(spec.clone()).scenario();
        let report = check(&scenario);
        let v = report.violations.len();
        if v > 0 {
            eprintln!("  {name}: {v} invariant violation(s): {:?}", report.violations);
        }
        violations += v;
        let t = report.outcome.report.traffic().expect("traffic series");
        let e = report.outcome.report.energy().energy_j;
        let per_kj = 1e3 * t.slo_violations as f64 / e;
        eprintln!(
            "  {name:<8}        : {:>8} slo viol, {e:>10.4} J, {per_kj:>8.2} viol/kJ, p99 {:.4} ms",
            t.slo_violations, t.p99_ms
        );
        frontier.push(format!(
            "{{\"policy\": \"{name}\", \"slo_violations\": {}, \"energy_j\": {e:.6}, \
             \"slo_viol_per_kj\": {per_kj:.4}, \"p99_ms\": {:.6}, \"completed\": {}, \
             \"shed\": {}, \"chaos_violations\": {v}}}",
            t.slo_violations, t.p99_ms, t.completed, t.shed
        ));
    }

    // --- Retry storm: closed-loop clients + barrier failover ------------
    let storm_nodes = frontier_nodes;
    eprintln!("traffic: retry storm ({storm_nodes} nodes) …");
    let (storm_fp, storm, _, _, storm_wall) =
        measure(storm_nodes, epochs, Twin { threads: 1, parallel: false }, true);
    eprintln!(
        "  serial          : {storm_wall:>10.1} s wall, {} retries, {} timeouts, \
         {} failover, {} shed",
        storm.retries, storm.client_timeouts, storm.failover, storm.shed
    );
    let storm_twin = Twin { threads: 4, parallel: true };
    let (storm_fp_child, storm_child_wall) =
        measure_in_child(storm_nodes, epochs, storm_twin, true);
    let storm_ok = storm_fp_child == storm_fp;
    deterministic &= storm_ok;
    eprintln!(
        "  threads=4       : {storm_child_wall:>10.1} s wall, fingerprint {}",
        if storm_ok { "identical" } else { "DIVERGED" }
    );
    assert!(storm_ok, "retry-storm replay diverged across thread twins");
    assert!(storm.retries > 0, "the throttled emergency must ignite retries");
    assert!(storm.failover > 0, "full queues must re-home work at the barrier");
    assert_eq!(
        storm.arrivals,
        storm.completed + storm.shed + storm.in_flight,
        "retry-storm books must close exactly"
    );
    let retry_storm = format!(
        "{{\"retries\": {}, \"client_timeouts\": {}, \"failover\": {}, \"arrivals\": {}, \
         \"completed\": {}, \"shed\": {}, \"in_flight\": {}, \"p99_ms\": {:.6}}}",
        storm.retries,
        storm.client_timeouts,
        storm.failover,
        storm.arrivals,
        storm.completed,
        storm.shed,
        storm.in_flight,
        storm.p99_ms
    );

    // --- Backpressure frontier: retry-only vs the robustness stack ------
    // Fixed shape at both scales: the storm needs a horizon long enough
    // for the retry-only amplification loop to feed on itself (and for
    // AIMD to converge), which the 6-epoch headline shape is too short
    // to show.
    let (bp_nodes, bp_epochs) = (4, 16);
    eprintln!("traffic: backpressure frontier ({bp_nodes} nodes x {bp_epochs} epochs) …");
    let mut backpressure = Vec::new();
    let mut damped_spj = f64::MAX;
    let mut retry_only_spj = 0.0;
    for (mode, damped) in [("retry_only", false), ("aimd_brownout", true)] {
        let cfg = if damped {
            EmergencyConfig::backpressure_storm(bp_nodes, bp_epochs, 42)
        } else {
            EmergencyConfig::retry_storm(bp_nodes, bp_epochs, 42)
        };
        let report = run_scenario(&cfg.scenario(), true).report;
        let t = report.traffic().expect("traffic series");
        let e = report.energy().energy_j;
        let per_kj = 1e3 * t.slo_violations as f64 / e;
        // Retry-only clients carry no controller; their offered rate is
        // pinned at the full multiplier.
        let m = report.final_rate_multiplier().unwrap_or(1.0);
        if damped {
            damped_spj = per_kj;
        } else {
            retry_only_spj = per_kj;
        }
        eprintln!(
            "  {mode:<13}   : {:>8} slo viol, {e:>10.4} J, {per_kj:>8.2} viol/kJ, \
             {} retries, rate x{m:.3}",
            t.slo_violations, t.retries
        );
        backpressure.push(format!(
            "{{\"mode\": \"{mode}\", \"retries\": {}, \"slo_violations\": {}, \
             \"energy_j\": {e:.6}, \"slo_viol_per_kj\": {per_kj:.4}, \"p99_ms\": {:.6}, \
             \"rate_multiplier\": {m:.4}}}",
            t.retries, t.slo_violations, t.p99_ms
        ));
    }
    assert!(
        damped_spj < retry_only_spj,
        "the robustness stack must win the SLO-per-joule frontier: \
         {damped_spj:.2} vs {retry_only_spj:.2} viol/kJ"
    );

    let json = format!(
        "{{\n  \"scale\": \"{scale_name}\",\n  \"nodes\": {nodes},\n  \"epochs\": {epochs},\n  \
         \"deterministic\": {deterministic},\n  \"throughput_rps\": {:.1},\n  \
         \"p99_ms\": {:.6},\n  \"p999_ms\": {:.6},\n  \"arrivals\": {},\n  \
         \"completed\": {},\n  \"shed\": {},\n  \"slo_violations\": {},\n  \
         \"energy_j\": {energy_j:.4},\n  \"slo_violations_per_joule\": {spj:.6},\n  \
         \"invariant_violations\": {violations},\n  \
         \"ladder\": [\n    {}\n  ],\n  \"frontier\": [\n    {}\n  ],\n  \
         \"retry_storm\": [\n    {retry_storm}\n  ],\n  \
         \"backpressure\": [\n    {}\n  ]\n}}\n",
        traffic.goodput_rps,
        traffic.p99_ms,
        traffic.p999_ms,
        traffic.arrivals,
        traffic.completed,
        traffic.shed,
        traffic.slo_violations,
        ladder.join(",\n    "),
        frontier.join(",\n    "),
        backpressure.join(",\n    ")
    );
    std::fs::write(&out_path, &json).expect("write json");
    println!("{json}");
    eprintln!("wrote {out_path}");
    if violations > 0 {
        eprintln!("traffic: {violations} invariant violation(s) under the emergency — failing");
        std::process::exit(1);
    }
}
