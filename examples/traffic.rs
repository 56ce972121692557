//! Traffic tour: serve an open-loop request trace through a power-capped
//! fleet, then ride the flash crowd through a full power emergency.
//!
//! Run with `cargo run --example traffic --release`.

use capsim::chaos::run_scenario;
use capsim::prelude::*;
use capsim::traffic::EmergencyConfig;

fn main() {
    println!("== a datacenter-mix fleet serving 30k rps/node (hot nodes 4x)");
    let spec = TrafficSpec::constant(30_000.0).datacenter_mix(true);
    let report =
        FleetBuilder::new().nodes(9).epochs(4).seed(11).workload(spec.workload()).build().run();
    let t = report.traffic().expect("traffic series");
    let e = report.energy();
    println!(
        "   {} arrivals, {} completed, {} shed | p50 {:.4} ms, p99 {:.4} ms, p999 {:.4} ms",
        t.arrivals, t.completed, t.shed, t.p50_ms, t.p99_ms, t.p999_ms
    );
    println!(
        "   goodput {:.0} rps, {:.4} J total, {:.1} W/node average",
        t.goodput_rps, e.energy_j, e.avg_node_power_w
    );

    println!("\n== the same trace down the cap ladder: tail latency vs budget");
    println!("   {:<14} {:>10} {:>12} {:>8}", "budget (W/node)", "p99 (ms)", "goodput", "shed");
    for budget in [150.0, 125.0, 112.0] {
        let report = FleetBuilder::new()
            .nodes(9)
            .epochs(4)
            .seed(11)
            .budget_w(budget * 9.0)
            .workload(TrafficSpec::constant(30_000.0).datacenter_mix(true).workload())
            .build()
            .run();
        let t = report.traffic().expect("traffic series");
        println!("   {budget:<14} {:>10.4} {:>12.0} {:>8}", t.p99_ms, t.goodput_rps, t.shed);
    }

    println!("\n== the power emergency: diurnal + flash crowd, 118 W/node,");
    println!("   sensor dropout and a BMC crash mid-run");
    let cfg = EmergencyConfig::headline(8, 8, 42);
    let outcome = run_scenario(&cfg.scenario(), true);
    let t = outcome.report.traffic().expect("traffic series");
    let e = outcome.report.energy();
    let spj = outcome.report.slo_violations_per_joule().expect("headline metric");
    println!(
        "   {} arrivals, {} completed, {} shed, {} SLO violations",
        t.arrivals, t.completed, t.shed, t.slo_violations
    );
    println!(
        "   {:.4} J spent -> {spj:.2} SLO violations per joule (p99 {:.4} ms)",
        e.energy_j, t.p99_ms
    );
}
