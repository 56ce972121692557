//! The traffic layer's determinism and accounting contracts:
//!
//! - arrival processes are pure functions of `(curves, seed)` (proptest),
//! - a request-serving fleet run is byte-identical serial vs parallel
//!   (thread-count invariance is asserted cross-process by the traffic
//!   bench, which re-execs itself under different `CAPSIM_THREADS`),
//! - the scripted flash-crowd scenario is pinned by a committed golden
//!   file (`CAPSIM_BLESS=1 cargo test --test traffic_determinism` to
//!   regenerate),
//! - `FleetReport`'s typed traffic/energy accessors agree with the raw
//!   obs snapshot they summarize,
//! - a serving fleet renders the same report with obs on and off.

use std::path::PathBuf;

use capsim::chaos::{run_scenario, ChaosOutcome, ChaosScenario, FaultPlan, InvariantConfig};
use capsim::dcm::fleet::{FleetBuilder, FleetReport};
use capsim::policy::{CapPolicySpec, SloConfig};
use capsim::traffic::{ArrivalCurve, ArrivalProcess, ClientSpec, EmergencyConfig, TrafficSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For ANY seed and curve mix, two processes built from the same
    /// inputs emit bit-identical, strictly increasing arrival times, and
    /// a different seed diverges.
    #[test]
    fn arrival_processes_are_seed_deterministic(
        seed in 0u64..u64::MAX / 2,
        rps in 1.0f64..1e6,
        peak in 1.0f64..1e6,
        period_us in 100.0f64..10_000.0,
    ) {
        let curves = vec![
            ArrivalCurve::Constant { rps },
            ArrivalCurve::Diurnal { base_rps: rps, peak_rps: peak, period_s: period_us * 1e-6 },
            ArrivalCurve::FlashCrowd { base_rps: 0.0, spike_rps: peak, start_s: 1e-3, end_s: 2e-3 },
        ];
        let mut a = ArrivalProcess::new(curves.clone(), seed);
        let mut b = ArrivalProcess::new(curves.clone(), seed);
        let mut c = ArrivalProcess::new(curves, seed + 1);
        let mut last = -1.0;
        let mut diverged = false;
        for _ in 0..200 {
            let t = a.pop();
            prop_assert_eq!(t.to_bits(), b.pop().to_bits(), "same seed must replay");
            prop_assert!(t > last, "arrivals must strictly increase");
            diverged |= t.to_bits() != c.pop().to_bits();
            last = t;
        }
        prop_assert!(diverged, "a different seed must shift the schedule");
    }
}

/// A small observed request-serving fleet: datacenter rate mix, hot
/// nodes genuinely backlogged, cold nodes mostly idle.
fn traffic_report(parallel: bool) -> FleetReport {
    let spec = TrafficSpec::constant(30_000.0).datacenter_mix(true);
    FleetBuilder::new()
        .nodes(9)
        .epochs(4)
        .seed(11)
        .parallel(parallel)
        .observe(true)
        .workload(spec.workload())
        .build()
        .run()
}

#[test]
fn traffic_fleet_is_byte_identical_serial_parallel_and_any_shard_count() {
    let serial = traffic_report(false);
    let parallel = traffic_report(true);
    assert!(serial.traffic().expect("traffic series recorded").completed > 0);
    let events = |r: &FleetReport| r.obs.as_ref().expect("observed").events_jsonl();
    assert_eq!(events(&parallel), events(&serial), "the parallel run changed the event stream");
    assert_eq!(parallel, serial, "the parallel run changed the report");
}

/// The scripted flash-crowd scenario: a constant trickle with a hard
/// mid-run spike against an oversubscribed budget. Pinned below by a
/// committed golden file.
fn flash_crowd_scenario() -> ChaosScenario {
    let spec = TrafficSpec::from_curves(vec![
        ArrivalCurve::Constant { rps: 10_000.0 },
        ArrivalCurve::FlashCrowd {
            base_rps: 0.0,
            spike_rps: 1_500_000.0,
            start_s: 1.5e-3,
            end_s: 2.5e-3,
        },
    ])
    .queue_bound(32)
    .slo_ms(0.05);
    ChaosScenario {
        name: "flash_crowd".into(),
        nodes: 3,
        epochs: 8,
        epoch_s: 5e-4,
        seed: 42,
        budget_w: Some(3.0 * 118.0),
        workload: spec.workload(),
        control_period_us: 10.0,
        meter_window_s: 2e-4,
        plan: FaultPlan::none(),
        observe: true,
        invariants: InvariantConfig::default(),
        policy: CapPolicySpec::default(),
    }
}

/// Golden digest: the metrics snapshot (latency histogram, traffic
/// counters) followed by the merged event stream.
fn flash_crowd_digest() -> String {
    let outcome = run_scenario(&flash_crowd_scenario(), true);
    let obs = outcome.report.obs.as_ref().expect("scenario observes");
    format!("{}{}", obs.metrics.render(), obs.events_jsonl())
}

/// Compare a digest against its committed golden file (or regenerate it
/// under `CAPSIM_BLESS=1`).
fn assert_matches_golden(name: &str, file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file);
    if std::env::var("CAPSIM_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("blessed {name} digest at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate with CAPSIM_BLESS=1 cargo test --test traffic_determinism",
            path.display()
        )
    });
    if expected != actual {
        let diff_line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| format!("first differing line: {}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: {} vs {}",
                    expected.lines().count(),
                    actual.lines().count()
                )
            });
        panic!(
            "{name} digest diverged from the committed golden file ({diff_line}).\n\
             If this change is intentional, re-bless with CAPSIM_BLESS=1."
        );
    }
}

#[test]
fn flash_crowd_scenario_matches_the_committed_golden_file() {
    assert_matches_golden("flash-crowd", "traffic_events.jsonl", &flash_crowd_digest());
}

/// The scripted retry-storm scenario: the flash-crowd trace with
/// closed-loop clients (timeouts, capped-backoff retries) and barrier
/// failover. Pinned by its own golden file.
fn retry_storm_scenario() -> ChaosScenario {
    let spec = TrafficSpec::from_curves(vec![
        ArrivalCurve::Constant { rps: 10_000.0 },
        ArrivalCurve::FlashCrowd {
            base_rps: 0.0,
            spike_rps: 1_500_000.0,
            start_s: 1.5e-3,
            end_s: 2.5e-3,
        },
    ])
    .queue_bound(32)
    .slo_ms(0.05)
    .closed_loop(ClientSpec::default())
    .failover(true);
    ChaosScenario {
        name: "retry_storm_scripted".into(),
        nodes: 3,
        epochs: 8,
        epoch_s: 5e-4,
        seed: 42,
        budget_w: Some(3.0 * 118.0),
        workload: spec.workload(),
        control_period_us: 10.0,
        meter_window_s: 2e-4,
        plan: FaultPlan::none(),
        observe: true,
        invariants: InvariantConfig::default(),
        policy: CapPolicySpec::default(),
    }
}

#[test]
fn retry_storm_scenario_matches_the_committed_golden_file() {
    let outcome = run_scenario(&retry_storm_scenario(), true);
    let obs = outcome.report.obs.as_ref().expect("scenario observes");
    let digest = format!("{}{}", obs.metrics.render(), obs.events_jsonl());
    assert_matches_golden("retry-storm", "retry_storm_events.jsonl", &digest);
}

#[test]
fn retry_storm_is_byte_identical_across_engines_and_shard_counts() {
    let serial = run_scenario(&retry_storm_scenario(), false);
    let parallel = run_scenario(&retry_storm_scenario(), true);
    let events = |o: &ChaosOutcome| o.report.obs.as_ref().expect("observed").events_jsonl();
    assert_eq!(
        parallel.fingerprint(),
        serial.fingerprint(),
        "the parallel run changed the retry-storm outcome"
    );
    assert_eq!(events(&parallel), events(&serial), "the parallel run changed the event stream");
    let t = serial.report.traffic().expect("traffic series recorded");
    assert!(t.retries > 0, "the throttled spike must ignite retries");
    assert!(t.client_timeouts > 0, "retries imply client timeouts");
    assert!(t.failover > 0, "full queues must re-home work at the barrier");
    assert_eq!(
        t.arrivals,
        t.completed + t.shed + t.in_flight,
        "fleet-wide books close exactly under retries and failover"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For ANY seed, a closed-loop retry storm with failover replays
    /// bit-identically serial vs parallel, and its request books close
    /// exactly.
    #[test]
    fn retry_storms_replay_bit_identically_for_any_seed(seed in 0u64..u64::MAX / 2) {
        let mut scenario = retry_storm_scenario();
        scenario.seed = seed;
        scenario.epochs = 6;
        let serial = run_scenario(&scenario, false);
        let parallel = run_scenario(&scenario, true);
        prop_assert_eq!(
            serial.fingerprint(),
            parallel.fingerprint(),
            "seed {} must replay", seed
        );
        let t = serial.report.traffic().expect("traffic series recorded");
        prop_assert_eq!(t.arrivals, t.completed + t.shed + t.in_flight);
    }
}

#[test]
fn flash_crowd_sheds_during_the_spike_and_replays_identically() {
    let scenario = flash_crowd_scenario();
    let parallel = run_scenario(&scenario, true);
    let serial = run_scenario(&scenario, false);
    assert_eq!(parallel.fingerprint(), serial.fingerprint());
    let t = parallel.report.traffic().expect("traffic series recorded");
    assert!(t.arrivals > 200, "spike offered load, got {}", t.arrivals);
    assert!(t.shed > 0, "a 15× spike against a 32-deep queue must shed");
    assert!(t.completed > 0, "the fleet still served requests");
}

#[test]
fn typed_accessors_agree_with_the_raw_snapshot() {
    use capsim::node::workload::traffic_keys as keys;
    let report = traffic_report(true);
    let m = &report.obs.as_ref().expect("observed").metrics;
    let t = report.traffic().expect("traffic summary");
    assert_eq!(t.arrivals, m.counter(keys::ARRIVALS));
    assert_eq!(t.completed, m.counter(keys::COMPLETED));
    assert_eq!(t.shed, m.counter(keys::SHED));
    assert_eq!(t.slo_violations, m.counter(keys::SLO_VIOLATIONS));
    assert_eq!(t.retries, m.counter(keys::RETRIES));
    assert_eq!(t.client_timeouts, m.counter(keys::CLIENT_TIMEOUTS));
    assert_eq!(t.failover, m.counter(keys::FAILOVER_IN));
    assert_eq!(t.in_flight, m.counter(keys::IN_FLIGHT));
    assert_eq!(
        t.arrivals,
        t.completed + t.shed + t.in_flight,
        "requests are conserved exactly: every arrival completes, is shed, or is in flight"
    );
    assert!(t.p50_ms <= t.p99_ms && t.p99_ms <= t.p999_ms, "quantiles are ordered");
    assert!(t.goodput_rps > 0.0);

    let e = report.energy();
    assert!(e.energy_j > 0.0 && e.wall_s > 0.0 && e.avg_node_power_w > 0.0);
    let per_node: f64 = report.summaries.iter().map(|s| s.energy_j).sum();
    assert!((e.energy_j - per_node).abs() < 1e-9);

    let spj = report.slo_violations_per_joule().expect("headline metric");
    assert!((spj - t.slo_violations as f64 / e.energy_j).abs() < 1e-12);

    // Per-priority accessors agree with the raw per-class counters and
    // close their books class by class.
    let p = report.priority().expect("priority summary");
    for c in 0..keys::CLASSES {
        assert_eq!(p.arrivals[c], m.counter(keys::ARRIVALS_BY_CLASS[c]));
        assert_eq!(p.completed[c], m.counter(keys::COMPLETED_BY_CLASS[c]));
        assert_eq!(p.shed[c], m.counter(keys::SHED_BY_CLASS[c]));
        assert_eq!(p.in_flight[c], m.counter(keys::IN_FLIGHT_BY_CLASS[c]));
        assert_eq!(
            p.arrivals[c],
            p.completed[c] + p.shed[c] + p.in_flight[c],
            "class {c} books close exactly"
        );
    }
    assert_eq!(p.arrivals.iter().sum::<u64>(), t.arrivals, "classes partition arrivals");
    // No AIMD clients ran, so there is no rate-multiplier gauge; no
    // breaker moved in a clean fleet.
    assert!(report.final_rate_multiplier().is_none());
    assert_eq!(report.breaker_transitions(), Some(0));

    // Batch fleets (no traffic series) report None, not zeros.
    let batch = FleetBuilder::new().nodes(3).epochs(2).seed(4).observe(true).build().run();
    assert!(batch.traffic().is_none());
    assert!(batch.slo_violations_per_joule().is_none());
    assert!(batch.priority().is_none());
    assert!(batch.final_rate_multiplier().is_none());
    assert!(batch.breaker_transitions().is_none());
}

/// A power emergency built through `FleetBuilder` (so without its fault
/// windows), observed or not.
fn emergency_report(cfg: &EmergencyConfig, observe: bool) -> FleetReport {
    FleetBuilder::new()
        .nodes(cfg.nodes)
        .epochs(cfg.epochs)
        .epoch_s(cfg.epoch_s)
        .seed(cfg.seed)
        .budget_w(cfg.budget_w_per_node * cfg.nodes as f64)
        .cap_policy(cfg.policy.build())
        .observe(observe)
        .workload(cfg.traffic.clone().workload())
        .build()
        .run()
}

/// The SLO backend reads every node's tail, in the BMC and at the
/// barrier; the backpressure storm's brownout gate reads its own. All of
/// them read the request books, so turning obs on changes nothing but
/// the export.
#[test]
fn serving_reports_do_not_depend_on_observability() {
    let slo = CapPolicySpec::Slo(SloConfig::default());
    for cfg in [
        EmergencyConfig::headline(6, 12, 7).with_policy(slo),
        EmergencyConfig::backpressure_storm(6, 12, 7),
    ] {
        let on = emergency_report(&cfg, true);
        let off = emergency_report(&cfg, false);
        assert!(off.traffic().is_some(), "an unobserved fleet keeps its request books");
        assert_eq!(FleetReport { obs: None, ..on }, off, "obs on and off diverged");
    }
}
