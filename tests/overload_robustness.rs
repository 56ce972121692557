//! The overload-robustness contracts of PR 10:
//!
//! - the scripted overload scenario (flash crowd + oversubscribed
//!   budget + sensor dropout) shows the retry-only fleet collapsing
//!   while the AIMD + brownout twin converges, and is pinned by a
//!   committed golden file
//!   (`CAPSIM_BLESS=1 cargo test --test overload_robustness`),
//! - per-priority-class request conservation
//!   (`arrivals_pC == completed_pC + shed_pC + in_flight_pC`) holds as
//!   exact u64 equality with retries, failover, AIMD and brownout all
//!   enabled, for any seed (proptest; thread-count invariance is
//!   asserted cross-process by `examples/backpressure.rs`),
//! - quarantined (`Degraded`/`Unresponsive`) nodes receive zero failover
//!   work (regression for the routing audit), and open circuit breakers
//!   keep nodes out of the re-offer heap; the breaker count reads the
//!   same with obs on and off.

use std::path::PathBuf;

use capsim::chaos::{run_scenario, FaultKind, FaultPlan};
use capsim::dcm::fleet::FleetBuilder;
use capsim::dcm::NodeHealth;
use capsim::node::workload::traffic_keys as keys;
use capsim::traffic::{ClientSpec, EmergencyConfig, TrafficSpec};
use proptest::prelude::*;

/// The scripted overload scenario: the PR 9 retry-storm emergency
/// (diurnal + flash crowd against an oversubscribed 118 W/node budget,
/// sensor dropout and a BMC crash mid-run), with or without the
/// robustness stack.
fn overload_config(backpressure: bool, nodes: usize, epochs: u32, seed: u64) -> EmergencyConfig {
    if backpressure {
        EmergencyConfig::backpressure_storm(nodes, epochs, seed)
    } else {
        EmergencyConfig::retry_storm(nodes, epochs, seed)
    }
}

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
            "missing golden {} ({e}); generate with CAPSIM_BLESS=1 cargo test --test overload_robustness",
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
fn overload_scenario_matches_the_committed_golden_file() {
    let outcome = run_scenario(&overload_config(true, 4, 12, 42).scenario(), true);
    let obs = outcome.report.obs.as_ref().expect("scenario observes");
    let digest = format!("{}{}", obs.metrics.render(), obs.events_jsonl());
    assert_matches_golden("overload", "overload_events.jsonl", &digest);
}

/// The headline robustness claim: under the same emergency, the
/// retry-only fleet keeps amplifying its own load while the AIMD +
/// brownout fleet backs off, sheds background work first, and ends with
/// bounded retries and a better SLO-violations-per-joule frontier.
#[test]
fn backpressure_converges_where_retry_only_collapses() {
    let retry_only = run_scenario(&overload_config(false, 4, 16, 42).scenario(), true).report;
    let damped = run_scenario(&overload_config(true, 4, 16, 42).scenario(), true).report;

    let rt = retry_only.traffic().expect("retry-only records traffic");
    let dt = damped.traffic().expect("backpressure records traffic");

    // Collapse vs convergence: the retry-only storm re-offers every
    // timeout at full rate; the AIMD population multiplicatively backs
    // off, so both its raw offered load and its retry volume shrink.
    assert!(rt.retries > 0, "the emergency must ignite retries");
    assert!(
        dt.arrivals < rt.arrivals,
        "backpressure must thin offered load: {} vs {}",
        dt.arrivals,
        rt.arrivals
    );
    assert!(
        dt.retries < rt.retries,
        "backpressure must bound retries: {} vs {}",
        dt.retries,
        rt.retries
    );

    // The multiplier converged somewhere between the floor and 1: it
    // moved (the controller engaged) and stayed within its clamp.
    let m = damped.final_rate_multiplier().expect("AIMD gauge recorded");
    assert!(m < 1.0, "sustained timeouts must cut the multiplier, got {m}");
    assert!(m >= 0.1, "the multiplier must respect its floor, got {m}");
    assert!(
        retry_only.final_rate_multiplier().is_none(),
        "retry-only clients have no rate controller"
    );

    // Brownout engaged and skewed the pain toward background work.
    let p = damped.priority().expect("per-class accounting");
    assert!(p.brownout_shed > 0, "the spike must trip the brownout gate");
    assert!(
        p.shed[2] > p.shed[0],
        "background must shed before critical: p2 {} vs p0 {}",
        p.shed[2],
        p.shed[0]
    );

    // Exact per-class conservation in both fleets.
    for report in [&retry_only, &damped] {
        let p = report.priority().expect("per-class accounting");
        for c in 0..keys::CLASSES {
            assert_eq!(
                p.arrivals[c],
                p.completed[c] + p.shed[c] + p.in_flight[c],
                "class {c} books must close exactly"
            );
        }
    }

    // The frontier: fewer SLO violations per joule of emergency energy.
    let rt_spj = retry_only.slo_violations_per_joule().expect("headline metric");
    let dt_spj = damped.slo_violations_per_joule().expect("headline metric");
    assert!(
        dt_spj < rt_spj,
        "backpressure must win the SLO-per-joule frontier: {dt_spj} vs {rt_spj}"
    );
}

/// The fault windows (sensor dropout, BMC crash) drive poll-timeout and
/// violation streaks at the barrier; the circuit breakers must actually
/// move — and their transitions must be typed, node-attributed events.
/// The breakers run on control state, so an unobserved run reports the
/// same count.
#[test]
fn fault_windows_trip_circuit_breakers() {
    // The stock emergency's BMC crash heals within a single barrier, too
    // fast for a 2-epoch timeout streak; stretch it so the breaker state
    // machine walks closed → open → half-open (and back).
    let mut scenario = overload_config(true, 4, 16, 42).scenario();
    let horizon = 16.0 * 5e-4;
    scenario.plan = FaultPlan::none()
        .window(1, 0.25 * horizon, 0.45 * horizon, FaultKind::SensorDropout)
        .window(2, 0.30 * horizon, 0.70 * horizon, FaultKind::BmcCrash { dead_s: 0.40 * horizon });
    let report = run_scenario(&scenario, true).report;
    let transitions = report.breaker_transitions().expect("traffic fleet reports breakers");
    assert!(transitions > 0, "fault windows must trip at least one breaker");
    let obs = report.obs.as_ref().expect("scenario observes");
    let trips = obs.events.iter().filter(|e| e.kind.name() == "breaker_transition").count() as u64;
    assert_eq!(trips, transitions, "every transition is a typed event");
    assert_eq!(obs.metrics.counter("fleet.breaker_transitions"), transitions);
    assert!(
        obs.events.iter().any(|e| e.kind.name() == "breaker_transition" && e.node.is_some()),
        "breaker events carry node attribution"
    );

    scenario.observe = false;
    let unobserved = run_scenario(&scenario, true).report;
    assert!(unobserved.obs.is_none());
    assert_eq!(
        unobserved.breaker_transitions(),
        Some(transitions),
        "the breaker count must not depend on observability"
    );
}

/// Regression for the failover-routing audit: a quarantined node — here
/// a dead management link the DCM marks `Degraded` after its first
/// failed poll — must receive *zero* failover requests, no matter how
/// much queue room it advertises.
#[test]
fn quarantined_nodes_receive_zero_failover_requests() {
    let spec = TrafficSpec::constant(400_000.0)
        .queue_bound(8)
        .slo_ms(0.05)
        .closed_loop(ClientSpec::default())
        .failover(true);
    let mut fleet = FleetBuilder::new()
        .nodes(4)
        .epochs(10)
        .seed(7)
        .budget_w(4.0 * 118.0)
        .dead_node(1)
        .observe(true)
        .workload(spec.workload())
        .build();
    for _ in 0..10 {
        fleet.step_epoch();
    }
    let dead_in = fleet.machine(1).serving().counter(keys::FAILOVER_IN);
    assert_eq!(dead_in, 0, "a quarantined node must never receive failover work");
    let live_in: u64 =
        [0usize, 2, 3].iter().map(|&i| fleet.machine(i).serving().counter(keys::FAILOVER_IN)).sum();
    assert!(live_in > 0, "healthy nodes must still absorb the overflow");
    let report = fleet.finish();
    let health = report.summaries[1].health;
    assert_ne!(health, NodeHealth::Healthy, "the dead node must be quarantined, got {health:?}");
    let t = report.traffic().expect("traffic series recorded");
    assert_eq!(t.arrivals, t.completed + t.shed + t.in_flight, "books close with a dead node");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For ANY seed, the full robustness stack (retries + failover +
    /// AIMD + brownout + fault windows) replays bit-identically serial vs
    /// parallel, and per-class conservation holds as exact u64 equality.
    #[test]
    fn per_class_conservation_holds_for_any_seed_and_shard_count(seed in 0u64..u64::MAX / 2) {
        let mut scenario = overload_config(true, 8, 6, seed).scenario();
        scenario.seed = seed;
        let serial = run_scenario(&scenario, false);
        let parallel = run_scenario(&scenario, true);
        prop_assert_eq!(
            serial.fingerprint(),
            parallel.fingerprint(),
            "seed {} must replay", seed
        );
        let p = serial.report.priority().expect("per-class accounting");
        let t = serial.report.traffic().expect("traffic series");
        let mut total = 0u64;
        for c in 0..keys::CLASSES {
            prop_assert_eq!(
                p.arrivals[c],
                p.completed[c] + p.shed[c] + p.in_flight[c],
                "class {} books must close exactly", c
            );
            total += p.arrivals[c];
        }
        prop_assert_eq!(total, t.arrivals, "classes partition the fleet total");
    }
}
