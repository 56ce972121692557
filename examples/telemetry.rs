//! Telemetry tour: the `capsim-obs` layer end to end.
//!
//! Runs a small observed fleet under a power budget with lossy links and
//! one dead node, then prints what the observability layer captured:
//! the merged, time-ordered event stream (rung escalations, DCMI
//! traffic, SEL appends, transport retries, budget reallocations) and
//! the fleet-wide metrics snapshot (counters, gauges, the node-power
//! histogram).
//!
//! ```sh
//! cargo run --example telemetry --release
//! ```

use capsim::ipmi::FaultSpec;
use capsim::prelude::*;
use capsim::study::report::event_log_markdown;

fn main() {
    let nodes = 4;
    let report = FleetBuilder::new()
        .nodes(nodes)
        .epochs(4)
        .budget_w(nodes as f64 * 128.0)
        .cap_policy(CapPolicySpec::Ladder(AllocationPolicy::ProportionalToDemand).build())
        .faults(FaultSpec::lossy(0.08))
        .dead_node(2)
        .seed(42)
        .observe(true) // <- everything below comes from this one switch
        .build()
        .run();

    let obs = report.obs.as_ref().expect("observed run");

    println!("# Fleet run\n");
    println!("{}", report.render());

    println!("# Event log (last 20 of {} events)\n", obs.events.len());
    println!("{}", event_log_markdown(&obs.events, 20));

    println!("# Metrics\n");
    println!("{}", obs.metrics.render());

    // The raw streams are export-ready for external tooling:
    let jsonl = obs.events_jsonl();
    let csv = obs.events_csv();
    println!("# Exports\n");
    println!("JSONL: {} lines, first = {}", jsonl.lines().count(), jsonl.lines().next().unwrap());
    println!("CSV  : {} lines, header = {}", csv.lines().count(), csv.lines().next().unwrap());
}
