//! Integration: the management plane under a hostile IPMI fabric —
//! retry-with-backoff convergence, SEL audit fidelity, and degraded-mode
//! budget reallocation, all in lock-step simulated time (no wall-clock,
//! no flakiness).

use capsim::dcm::{read_sel, violation_count, Dcm, PumpedLink};
use capsim::ipmi::{
    FaultSpec, IpmiError, LanChannel, Request, Response, RetryPolicy, SelEntry, Transact,
};
use capsim::node::MachineBuilder;
use capsim::prelude::*;
use proptest::prelude::*;

/// A fast-control machine suitable for millisecond-scale lock-step runs.
fn lockstep_machine(seed: u64) -> Machine {
    MachineBuilder::tiny().seed(seed).control_period_us(10.0).meter_window_s(2e-4).build()
}

/// A [`Transact`] wrapper that counts transactions, for asserting on the
/// wire cost of management operations.
struct CountingLink<T: Transact> {
    inner: T,
    transactions: u64,
}

impl<T: Transact> Transact for CountingLink<T> {
    fn next_seq(&mut self) -> u8 {
        self.inner.next_seq()
    }

    fn transact(&mut self, req: &Request) -> Result<Response, IpmiError> {
        self.transactions += 1;
        self.inner.transact(req)
    }

    fn set_patience(&mut self, factor: u32) {
        self.inner.set_patience(factor);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under ANY seeded fault schedule that eventually delivers (the
    /// `max_consecutive_faults` honesty bound), retry-with-backoff lands
    /// the requested power limit on the node and reads it back intact.
    #[test]
    fn retry_converges_to_the_requested_limit(
        seed in any::<u64>(),
        drop_prob in 0.0..0.7f64,
        corrupt_prob in 0.0..0.7f64,
        busy_prob in 0.0..0.5f64,
        delay_prob in 0.0..0.5f64,
        max_delay in 1u8..4,
        max_consecutive in 1u8..4,
        watts in 120u16..150,
    ) {
        let spec = FaultSpec {
            drop_prob,
            corrupt_prob,
            busy_prob,
            delay_prob,
            max_delay,
            max_consecutive_faults: max_consecutive,
        };
        let (mut port, bmc_port) = LanChannel::faulty_pair(spec, seed);
        let mut machine = lockstep_machine(seed ^ 0x5eed);
        machine.attach_bmc_port(bmc_port);

        let mut dcm = Dcm::new();
        // The honesty bound is per-direction: the request and response
        // injectors each force a clean frame only every
        // `max_consecutive + 1` frames, and a transaction needs both to
        // line up — worst case (max_consecutive + 1)^2 attempts.
        dcm.retry = RetryPolicy {
            attempts: (max_consecutive as u32 + 1).pow(2) + 8,
            max_patience: 16,
        };
        let node = dcm.register("n0");

        let mut link = PumpedLink::new(&mut port, &mut machine, 16);
        dcm.cap_node(node, &mut link, watts as f64)
            .expect("retry must converge on an eventually-delivering link");
        let limit = dcm
            .node_limit(node, &mut link)
            .expect("read-back must converge too");
        prop_assert_eq!(limit.limit_w, watts);
        prop_assert_eq!(dcm.health(node), NodeHealth::Healthy);
        prop_assert_eq!(dcm.last_cap_w(node), Some(watts as f64));
    }
}

#[test]
fn sel_audit_over_a_lossy_link_matches_the_nodes_own_log() {
    // Accrue real SEL traffic: a cap below the throttle floor logs a
    // configuration event and sustained violations.
    let (mut port, bmc_port) = LanChannel::faulty_pair(FaultSpec::lossy(0.1), 0xbeef);
    let mut machine = lockstep_machine(77);
    machine.attach_bmc_port(bmc_port);

    let mut dcm = Dcm::new();
    dcm.correction_ms = 1;
    let node = dcm.register("n0");
    {
        let mut link = PumpedLink::new(&mut port, &mut machine, 16);
        dcm.cap_node(node, &mut link, 118.0).expect("cap lands despite faults");
    }
    // Run the node so the BMC observes the violation and logs it.
    let block = machine.code_block(96, 24);
    for _ in 0..200_000 {
        machine.exec_block(&block);
    }

    // Ground truth straight from the machine's own log.
    let truth: Vec<SelEntry> = machine.sel().iter().cloned().collect();
    assert!(violation_count(&truth) > 0, "run must have logged violations");

    // The audit walks the SEL over the same lossy wire, with retries.
    // The honesty bound only promises a clean frame after 4 consecutive
    // faults *per direction*, so one transaction can need up to ~9
    // attempts in the worst case (4 lost requests, then a clean request
    // whose responses fault 4 more times) — give the walk enough
    // attempts that the bound, not seed luck, guarantees convergence.
    let patient = RetryPolicy { attempts: 12, ..RetryPolicy::default() };
    let mut link = PumpedLink::new(&mut port, &mut machine, 16);
    let audited = read_sel(&mut link, &patient).expect("SEL readable");
    assert_eq!(audited, truth, "audit over faults must reproduce the node's log exactly");
}

#[test]
fn sel_audit_wire_cost_is_proportional_to_the_log_not_the_id_space() {
    // Same scenario as the fidelity test above: accrue a real SEL, then
    // audit it — this time counting every IPMI transaction on the wire.
    let (mut port, bmc_port) = LanChannel::faulty_pair(FaultSpec::lossy(0.1), 0xfeed);
    let mut machine = lockstep_machine(78);
    machine.attach_bmc_port(bmc_port);

    let mut dcm = Dcm::new();
    dcm.correction_ms = 1;
    let node = dcm.register("n0");
    {
        let mut link = PumpedLink::new(&mut port, &mut machine, 16);
        dcm.cap_node(node, &mut link, 118.0).expect("cap lands despite faults");
    }
    let block = machine.code_block(96, 24);
    for _ in 0..200_000 {
        machine.exec_block(&block);
    }

    let truth: Vec<SelEntry> = machine.sel().iter().cloned().collect();
    let entries = truth.len() as u64;
    assert!(entries > 0, "run must have logged entries");

    let retry = RetryPolicy::default();
    let mut link =
        CountingLink { inner: PumpedLink::new(&mut port, &mut machine, 16), transactions: 0 };
    let audited = read_sel(&mut link, &retry).expect("SEL readable");
    assert_eq!(audited, truth, "counting must not change the audit result");

    // Wire cost: one info read plus one get per candidate id — the live
    // entries and a fixed grow-tolerance slack — each multiplied by at
    // most the retry budget. Nothing scales with the 4096-id ring space.
    let grow_slack = 16;
    let bound = (1 + entries + grow_slack) * retry.attempts as u64;
    assert!(
        link.transactions <= bound,
        "audit used {} transactions for {entries} entries (bound {bound})",
        link.transactions
    );
    assert!(
        link.transactions < 4096,
        "audit of {entries} entries must not walk the whole id space ({} transactions)",
        link.transactions
    );
}

#[test]
fn dead_node_is_quarantined_and_its_budget_flows_to_survivors() {
    let nodes = 8;
    let budget = 135.0 * nodes as f64;
    let report = FleetBuilder::new()
        .nodes(nodes)
        .epochs(6)
        .budget_w(budget)
        .cap_policy(CapPolicySpec::Ladder(AllocationPolicy::Uniform).build())
        .faults(FaultSpec::lossy(0.05))
        .dead_node(3)
        .seed(11)
        .build()
        .run();

    let last = report.records.last().expect("records");
    assert_eq!(last.answered, nodes - 1, "healthy nodes keep answering through 5% faults");
    assert_eq!(last.unresponsive, 1, "the dead node is quarantined");

    let dead = &report.summaries[3];
    assert_eq!(dead.health, NodeHealth::Unresponsive);
    assert_eq!(dead.final_cap_w, None, "no cap can land on a black-holed BMC");

    // The full budget is redistributed over the survivors: each healthy
    // node gets the uniform share of budget / answered, and the pushed
    // caps sum back to the budget.
    let share = budget / last.answered as f64;
    let mut cap_sum = 0.0;
    for s in report.summaries.iter().filter(|s| s.health == NodeHealth::Healthy) {
        let cap = s.final_cap_w.expect("healthy nodes are capped");
        assert!((cap - share).abs() < 1.0, "cap {cap} vs uniform share {share}");
        cap_sum += cap;
    }
    assert!((cap_sum - budget).abs() < 1.0, "budget {budget} reallocated, caps sum to {cap_sum}");

    // And the caps are *met*: the final epoch's measured draw across the
    // answering nodes sits at or under the reallocated budget, within the
    // BMC's per-node hysteresis band.
    let hysteresis_w = 2.0;
    assert!(
        last.fleet_power_w < budget + last.answered as f64 * hysteresis_w,
        "healthy nodes converged under their caps: measured {} W vs budget {budget} W",
        last.fleet_power_w
    );
}
