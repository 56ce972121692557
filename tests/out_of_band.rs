//! Integration: the full out-of-band management path — DCM ↔ IPMI wire ↔
//! BMC ↔ throttle ladder — against live machines. Each run stops part-way
//! through its burst, the manager reads and caps the node over a
//! [`PumpedLink`] that serves the node's BMC between delivery polls, and
//! the run resumes.

use capsim::apps::kernels::AluBurst;
use capsim::apps::Workload;
use capsim::dcm::{AllocationPolicy, Dcm, NodeId, PumpedLink};
use capsim::ipmi::{LanChannel, ManagerPort};
use capsim::node::MachineBuilder;
use capsim::prelude::*;

/// `FleetBuilder`'s wait budget per IPMI attempt, in BMC polls.
const POLLS_PER_ATTEMPT: u32 = 16;

fn fast(seed: u64) -> Machine {
    MachineBuilder::e5_2680().seed(seed).control_period_us(10.0).meter_window_s(0.0002).build()
}

/// A machine of `seed` with its BMC on the far end of a management link.
fn managed(seed: u64) -> (ManagerPort, Machine) {
    let (mgr, bmc_port) = LanChannel::pair();
    let mut m = fast(seed);
    m.attach_bmc_port(bmc_port);
    (mgr, m)
}

#[test]
fn dcm_caps_a_running_node_over_ipmi() {
    let (mut mgr, mut m) = managed(21);
    let mut dcm = Dcm::new();
    let node = dcm.register("n0");
    AluBurst { iters: 6_000_000 }.run(&mut m);
    {
        let mut link = PumpedLink::new(&mut mgr, &mut m, POLLS_PER_ATTEMPT);
        let reading = dcm.read_power(node, &mut link).expect("node up").current_w;
        assert!(reading > 140, "node should be drawing busy power, read {reading}");
        dcm.cap_node(node, &mut link, 135.0).expect("cap accepted");
        let limit = dcm.node_limit(node, &mut link).expect("limit readable");
        assert_eq!(limit.limit_w, 135);
    }
    AluBurst { iters: 6_000_000 }.run(&mut m);
    let stats = m.finish_run();
    // The run started uncapped and ended capped: max above, final below.
    assert!(stats.max_power_w > 148.0, "max {}", stats.max_power_w);
    assert!(stats.bmc_stats.0 > 0, "BMC escalated after the cap arrived");
}

#[test]
fn group_budget_throttles_every_node_in_the_rack() {
    let mut dcm = Dcm::new();
    let mut nodes: Vec<(NodeId, ManagerPort, Machine)> = (0..3u64)
        .map(|i| {
            let (mgr, m) = managed(30 + i);
            (dcm.register(format!("n{i}")), mgr, m)
        })
        .collect();
    // Let them ramp up, then apply a tight group budget.
    let mut demand = Vec::new();
    for (id, mgr, m) in &mut nodes {
        AluBurst { iters: 5_000_000 }.run(m);
        let mut link = PumpedLink::new(mgr, m, POLLS_PER_ATTEMPT);
        let reading = dcm.read_power(*id, &mut link).expect("node up").current_w;
        assert!(reading > 140, "node should be drawing busy power, read {reading}");
        demand.push((*id, reading as f64));
    }
    let caps = dcm.plan_allocation(3.0 * 135.0, &AllocationPolicy::Uniform, &demand);
    let expected: Vec<(NodeId, f64)> = nodes.iter().map(|&(id, ..)| (id, 135.0)).collect();
    assert_eq!(caps, expected);
    for ((id, mgr, m), &(_, cap)) in nodes.iter_mut().zip(&caps) {
        let mut link = PumpedLink::new(mgr, m, POLLS_PER_ATTEMPT);
        dcm.cap_node(*id, &mut link, cap).expect("budget applied");
    }
    for (_, _, m) in &mut nodes {
        AluBurst { iters: 5_000_000 }.run(m);
        let s = m.finish_run();
        assert!(s.bmc_stats.0 > 0, "every node throttled");
    }
}

#[test]
fn inband_and_ipmi_caps_agree() {
    // Capping via Machine::set_power_cap and via the DCMI path must yield
    // the same equilibrium (the BMC is the single control point).
    let run_inband = || {
        let mut m = fast(40);
        m.set_power_cap(Some(PowerCap::new(134.0).unwrap()));
        AluBurst { iters: 4_000_000 }.run(&mut m);
        m.finish_run()
    };
    let run_oob = || {
        let (mut mgr, mut m) = managed(40);
        // The manager lands the cap after the first instants of the run.
        AluBurst { iters: 200_000 }.run(&mut m);
        let mut dcm = Dcm::new();
        let node = dcm.register("n");
        dcm.cap_node(node, &mut PumpedLink::new(&mut mgr, &mut m, POLLS_PER_ATTEMPT), 134.0)
            .expect("cap");
        AluBurst { iters: 3_800_000 }.run(&mut m);
        m.finish_run()
    };
    let a = run_inband();
    let b = run_oob();
    // Equilibria match within the dithering band (the OOB run spent its
    // first instants uncapped, so allow slack).
    assert!((a.avg_power_w - b.avg_power_w).abs() < 4.0, "{} vs {}", a.avg_power_w, b.avg_power_w);
    assert!(a.avg_freq_mhz < 2690.0 && b.avg_freq_mhz < 2690.0);
}
