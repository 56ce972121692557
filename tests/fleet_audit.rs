//! Integration: fleet monitoring and SEL-based violation auditing across
//! live machines — the data-center-side view of the paper's "measured
//! power above the cap" rows.

use capsim::apps::kernels::AluBurst;
use capsim::apps::Workload;
use capsim::dcm::{read_sel, violation_count, Dcm, FleetMonitor, PumpedLink};
use capsim::ipmi::{LanChannel, SelEventType};
use capsim::node::{MachineBuilder, PowercapFs};
use capsim::prelude::*;

/// `FleetBuilder`'s wait budget per IPMI attempt, in BMC polls.
const POLLS_PER_ATTEMPT: u32 = 16;

fn fast(seed: u64) -> Machine {
    MachineBuilder::e5_2680().seed(seed).control_period_us(10.0).meter_window_s(2e-4).build()
}

#[test]
fn unreachable_cap_leaves_a_sel_paper_trail_readable_over_ipmi() {
    let (mut mgr, bmc_port) = LanChannel::pair();
    let mut m = fast(51);
    m.attach_bmc_port(bmc_port);
    let mut dcm = Dcm::new();
    // Short correction time so the scaled run accrues violations (the
    // default 1 s matches paper-scale runs, not millisecond tests).
    dcm.correction_ms = 5;
    let node = dcm.register("n0");
    // A 118 W cap is below the throttle floor: violations must accrue.
    dcm.cap_node(node, &mut PumpedLink::new(&mut mgr, &mut m, POLLS_PER_ATTEMPT), 118.0)
        .expect("cap accepted");
    // Run the burst in slices, polling the node's power between them.
    let mut monitor = FleetMonitor::for_dcm(&dcm, 64);
    for _ in 0..30 {
        AluBurst { iters: 300_000 }.run(&mut m);
        let mut link = PumpedLink::new(&mut mgr, &mut m, POLLS_PER_ATTEMPT);
        let reading = dcm.read_power(node, &mut link).expect("node up");
        monitor.record(node, reading.current_w as f64);
    }
    let stats = m.finish_run();
    assert_eq!(dcm.health(node), NodeHealth::Healthy);
    // The monitor saw the node pinned near its floor, above the cap.
    let mean = monitor.history(node).mean().expect("samples");
    assert!(mean > 118.0, "floor sits above the cap: {mean}");
    assert_eq!(monitor.hotspots(118.0), vec![node]);

    // The BMC stays answerable out-of-band after the run, like a real one.
    let mut link = PumpedLink::new(&mut mgr, &mut m, POLLS_PER_ATTEMPT);
    let sel = read_sel(&mut link, &dcm.retry).expect("SEL readable");
    assert!(
        sel.iter().any(|e| e.event == SelEventType::PowerLimitConfigured),
        "configuration logged"
    );
    assert!(violation_count(&sel) > 0, "sustained violations logged: {sel:?}");
    assert!(stats.bmc_stats.2 > 0, "BMC counted exceptions too");
}

#[test]
fn in_band_powercap_and_out_of_band_dcmi_agree_on_the_same_node() {
    // Drive a node with the Linux-powercap-style interface, then check
    // DCM's view of it over IPMI: one BMC, two front ends.
    let mut m = fast(52);
    {
        let mut fs = PowercapFs::new(&mut m);
        fs.write("constraint_0_power_limit_uw", "33000000").unwrap(); // ≈134 W node
    }
    let r = m.alloc(1 << 20);
    let block = m.code_block(96, 24);
    for i in 0..300_000u64 {
        m.exec_block(&block);
        m.load(r.at((i * 64) % (1 << 20)));
    }
    let s = m.finish_run();
    let cap = m.power_cap().expect("cap active").watts;
    assert!((cap - 134.0).abs() < 1.0, "translated node cap {cap}");
    assert!(s.avg_power_w < cap + 2.0, "enforced: {}", s.avg_power_w);
    // The in-band path logged configuration the same way (SEL is one).
    let energy_uj: u64 = PowercapFs::new(&mut m).read("energy_uj").unwrap().parse().unwrap();
    assert!(energy_uj > 0, "RAPL energy advanced");
}
