//! The product context of §II: Intel DCM managing a rack of nodes
//! out-of-band.
//!
//! Three simulated nodes run different workloads. Halfway through, the
//! Data Center Manager talks to each BMC over the IPMI channel (DCMI *Get
//! Power Reading* / *Set Power Limit* / *Activate*), reads demand, divides
//! a group budget proportionally and pushes the caps; the nodes then run
//! their second halves under them. The OS/workload side never sees any of
//! it — capping is enforced by each node's BMC. Every manager wait is
//! counted in BMC polls, so two runs print the same output.
//!
//! ```sh
//! cargo run --example datacenter --release
//! ```

use capsim::apps::kernels::{AluBurst, PointerChase, StreamTriad};
use capsim::apps::Workload;
use capsim::dcm::PumpedLink;
use capsim::ipmi::LanChannel;
use capsim::prelude::*;

/// Wait budget per IPMI attempt, in BMC polls (the `FleetBuilder` default).
const POLLS_PER_ATTEMPT: u32 = 16;

fn main() {
    let mut dcm = Dcm::new();

    // Boot three nodes with different personalities; each runs its
    // workload twice, once per half.
    let halves: Vec<(&str, Box<dyn Workload>)> = vec![
        ("node-compute", Box::new(AluBurst { iters: 4_500_000 })),
        ("node-stream", Box::new(StreamTriad { elems: 6 << 20, passes: 2 })),
        ("node-latency", Box::new(PointerChase { elems: 2 << 20, hops: 600_000, seed: 3 })),
    ];
    let mut nodes: Vec<_> = halves
        .into_iter()
        .enumerate()
        .map(|(i, (name, half))| {
            let (port, bmc_port) = LanChannel::pair();
            let m = MachineBuilder::e5_2680().seed(100 + i as u64).bmc_port(bmc_port).build();
            (dcm.register(name), port, m, half)
        })
        .collect();

    for (_, _, m, half) in &mut nodes {
        half.run(m);
    }

    // Read each node's demand over its management link, then budget the
    // group.
    let mut demand = Vec::new();
    for (id, port, m, _) in &mut nodes {
        let mut link = PumpedLink::new(port, m, POLLS_PER_ATTEMPT);
        let reading = dcm.read_power(*id, &mut link).expect("node reachable over IPMI");
        demand.push((*id, reading.current_w as f64));
    }
    let readings: Vec<f64> = demand.iter().map(|&(_, w)| w).collect();
    println!("initial demand: {readings:?} W");

    let budget = 390.0;
    let caps = dcm.plan_allocation(budget, &AllocationPolicy::ProportionalToDemand, &demand);
    println!("group budget {budget} W -> caps:");
    for ((id, port, m, _), &(_, cap_w)) in nodes.iter_mut().zip(&caps) {
        let mut link = PumpedLink::new(port, m, POLLS_PER_ATTEMPT);
        dcm.cap_node(*id, &mut link, cap_w).expect("cap accepted");
        let limit = dcm.node_limit(*id, &mut link).expect("limit stored");
        println!(
            "  {}: cap {cap_w} W (limit {} W, correction {} ms, {:?})",
            dcm.node_name(*id),
            limit.limit_w,
            limit.correction_ms,
            dcm.health(*id)
        );
    }
    let total_w: f64 = caps.iter().map(|&(_, w)| w).sum();
    assert!(total_w <= budget, "caps sum to {total_w} W, over the {budget} W budget");

    for (id, _, m, half) in &mut nodes {
        half.run(m);
        let s = m.finish_run();
        println!(
            "{}: ran {:.3} s at {:.1} W avg (min {:.1} / max {:.1}), energy {:.1} J",
            dcm.node_name(*id),
            s.wall_s,
            s.avg_power_w,
            s.min_power_w,
            s.max_power_w,
            s.energy_j
        );
        assert!(s.bmc_stats.0 > 0, "{}'s BMC never escalated under its cap", dcm.node_name(*id));
    }
    println!(
        "\nThe group's total draw is steered toward the budget while busy\n\
         nodes keep proportionally more headroom — DCM's \"safeguard\n\
         against over utilization of constrained capacity\" (§II-A)."
    );
}
