//! A managed fleet in lock-step simulated time: N nodes stepped in
//! parallel between DCM control barriers, over a lossy IPMI fabric.
//!
//! One node's link is dead from the start; DCM marks it unresponsive
//! after repeated retry failures and reallocates the group budget over
//! the nodes that still answer.
//!
//! ```sh
//! cargo run --example fleet --release
//! ```

use capsim::ipmi::FaultSpec;
use capsim::prelude::*;

fn main() {
    let report = FleetBuilder::new()
        .nodes(12)
        .epochs(6)
        .budget_w(1500.0)
        .cap_policy(CapPolicySpec::Ladder(AllocationPolicy::ProportionalToDemand).build())
        .faults(FaultSpec::lossy(0.05)) // 5% drop + 5% corruption per frame
        .dead_node(7) // this BMC never answers
        .seed(42)
        .parallel(true)
        .build()
        .run();

    print!("{}", report.render());
    println!(
        "\n{} of {} nodes responsive; budget {} W reallocated over the survivors.",
        report.responsive(),
        report.nodes,
        report.budget_w
    );
}
