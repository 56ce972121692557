//! The fleet engine's determinism contract: serial and parallel runs are
//! bit-identical for the same configuration — per-node seeds, per-node
//! wire phases whose outcomes the root absorbs in registration order,
//! serial control barrier. The telemetry event stream is part of the
//! contract: same seed ⇒ byte-identical JSONL, pinned by a committed
//! golden file (`CAPSIM_BLESS=1 cargo test --test fleet_determinism` to
//! regenerate).

use std::path::PathBuf;

use capsim::ipmi::FaultSpec;
use capsim::prelude::*;
use proptest::prelude::*;

fn build(parallel: bool, faults: FaultSpec, seed: u64) -> FleetReport {
    FleetBuilder::new()
        .nodes(16)
        .epochs(5)
        .budget_w(16.0 * 132.0)
        .cap_policy(CapPolicySpec::Ladder(AllocationPolicy::ProportionalToDemand).build())
        .faults(faults)
        .dead_node(11)
        .seed(seed)
        .parallel(parallel)
        .build()
        .run()
}

#[test]
fn parallel_run_is_bit_identical_to_serial_run() {
    let serial = build(false, FaultSpec::lossy(0.05), 9);
    let parallel = build(true, FaultSpec::lossy(0.05), 9);
    // Bit-identical: same structured report AND same rendered bytes.
    assert_eq!(serial, parallel);
    assert_eq!(serial.render(), parallel.render());
}

#[test]
fn repeated_runs_reproduce_exactly() {
    let a = build(true, FaultSpec::none(), 3);
    let b = build(true, FaultSpec::none(), 3);
    assert_eq!(a.render(), b.render());
}

#[test]
fn different_seeds_diverge() {
    // Same topology, different seed: fault schedules and workload phases
    // shift, so the rendered trajectories must not collide.
    let a = build(true, FaultSpec::lossy(0.05), 1);
    let b = build(true, FaultSpec::lossy(0.05), 2);
    assert_ne!(a.render(), b.render());
}

/// A small observed fleet with enough going on to exercise every event
/// source: lossy links (retries/timeouts), a dead node (health
/// transitions), caps pushed every epoch (DCMI + rung traffic).
fn observed_events_jsonl(parallel: bool) -> String {
    FleetBuilder::new()
        .nodes(4)
        .epochs(3)
        .budget_w(4.0 * 128.0)
        .faults(FaultSpec::lossy(0.08))
        .dead_node(2)
        .seed(42)
        .parallel(parallel)
        .observe(true)
        .build()
        .run()
        .obs
        .expect("observed run")
        .events_jsonl()
}

#[test]
fn event_log_is_byte_identical_across_serial_and_parallel_runs() {
    let serial = observed_events_jsonl(false);
    let parallel = observed_events_jsonl(true);
    assert!(!serial.is_empty(), "observed run must record events");
    assert_eq!(serial, parallel, "telemetry must obey the determinism contract");
}

proptest! {
    // Full-fleet simulations are expensive in debug mode; a handful of
    // random topologies over the whole configuration space is plenty.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For ANY fleet shape, fault rate and seed, the parallel fan-out
    /// over nodes yields the serial run's report and byte-identical
    /// event stream, whatever the worker pool's size (`ci.sh` reruns
    /// this suite with more workers than cores).
    #[test]
    fn any_shard_topology_is_byte_identical(
        nodes in 2usize..10,
        epochs in 1u32..4,
        seed in 0u64..1_000_000,
        loss_pct in 0u32..12,
    ) {
        let run = |parallel: bool| {
            FleetBuilder::new()
                .nodes(nodes)
                .epochs(epochs)
                .seed(seed)
                .faults(FaultSpec::lossy(f64::from(loss_pct) / 100.0))
                .parallel(parallel)
                .observe(true)
                .build()
                .run()
        };
        let serial = run(false);
        let parallel = run(true);
        let events = parallel.obs.as_ref().expect("observed").events_jsonl();
        prop_assert_eq!(&events, &serial.obs.as_ref().expect("observed").events_jsonl());
        prop_assert_eq!(parallel, serial);
    }
}

#[test]
fn event_log_matches_the_committed_golden_file() {
    let actual = observed_events_jsonl(true);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_events.jsonl");
    if std::env::var("CAPSIM_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("blessed event log at {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate with CAPSIM_BLESS=1 cargo test --test fleet_determinism",
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
            "telemetry event log diverged from the committed golden file ({diff_line}).\n\
             If this change is intentional, re-bless with CAPSIM_BLESS=1."
        );
    }
}

#[test]
fn policies_are_deterministic_too() {
    for policy in [
        AllocationPolicy::Uniform,
        AllocationPolicy::ProportionalToDemand,
        AllocationPolicy::Priority((0..16u8).map(|i| i % 4).collect()),
    ] {
        let serial = FleetBuilder::new()
            .nodes(16)
            .epochs(3)
            .cap_policy(CapPolicySpec::Ladder(policy.clone()).build())
            .seed(5)
            .parallel(false)
            .build()
            .run();
        let parallel = FleetBuilder::new()
            .nodes(16)
            .epochs(3)
            .cap_policy(CapPolicySpec::Ladder(policy).build())
            .seed(5)
            .parallel(true)
            .build()
            .run();
        assert_eq!(serial.render(), parallel.render());
    }
}
