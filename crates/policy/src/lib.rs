//! `capsim-policy` — the pluggable capping-policy layer.
//!
//! The paper's capping behaviour is one *inferred* policy: the BMC walks
//! the throttle ladder one rung per control period while the DCM divides
//! the group budget with a closed allocation rule. Its headline result —
//! deep caps trade small power savings for large performance loss — is
//! exactly the trade-off a policy should navigate, and the related work
//! names two alternatives: governor-style energy-proportional control
//! (Jelvani & Martin) and a learned cap action (Raj et al.).
//!
//! This crate extracts that decision surface into one [`CapPolicy`] trait
//! spanning both layers:
//!
//! * **Node level** — every control period the BMC shows the policy a
//!   [`NodeCapView`] (windowed power, active cap, current rung, activity
//!   counters) and gets back a [`CapDecision`]. Guardrails (failsafe,
//!   watchdog, cap-violation detection, DCMI correction time) stay in the
//!   BMC: a policy chooses rungs, it cannot disable safety.
//! * **Group level** — at every fleet barrier the DCM hands the policy the
//!   budget and the answering nodes' demand ([`GroupDemand`]) and gets
//!   back per-node caps.
//!
//! Three backends ship: [`LadderCapPolicy`] (the paper's behaviour,
//! bit-identical to the pre-trait control loop), [`GovernorCapPolicy`]
//! (race-to-idle / utilization tracking) and [`RlCapPolicy`] (tabular
//! Q-learning over quantized counter state, trained offline inside the
//! deterministic fleet). [`CapPolicySpec`] is the serializable selector
//! that builders and the chaos harness thread through.

mod governor;
mod group;
mod rl;
mod slo;

pub use governor::{GovernorCapPolicy, GovernorConfig};
pub use group::{allocate, AllocationPolicy};
pub use rl::{splitmix64, QTable, RlCapPolicy, RlConfig, ACTIONS, STATES};
pub use slo::{SloCapPolicy, SloConfig};

/// What the BMC shows the node-level half of a policy each control period.
///
/// Everything here is derived from the same telemetry the BMC already
/// samples (window power, activity counters); a policy sees no more than
/// the firmware does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeCapView {
    /// The active cap in watts (the BMC only consults the policy while a
    /// cap is active).
    pub cap_w: f64,
    /// Windowed average node power in watts.
    pub window_avg_w: f64,
    /// De-escalation hysteresis: the ladder walk only releases a rung
    /// below `cap_w - hysteresis_w`.
    pub hysteresis_w: f64,
    /// Current rung index (0 = unthrottled).
    pub rung: usize,
    /// Deepest rung the ladder offers.
    pub deepest: usize,
    /// Fraction of the last window the cores were busy (0..=1).
    pub busy_frac: f64,
    /// Achieved issue-slot utilization over the last window (0..=1).
    pub issue_frac: f64,
    /// Simulated time of the sample in milliseconds.
    pub now_ms: f64,
    /// Tail (p99) completion latency of the node's request-serving
    /// workload in milliseconds, read from the `traffic.latency_ms`
    /// histogram of the node's request books. 0.0 when the node serves
    /// no traffic.
    pub tail_ms: f64,
}

/// A node-level policy decision for one control period.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapDecision {
    /// Keep the current rung.
    Hold,
    /// One rung deeper; at the deepest rung this records an
    /// exhausted-ladder exception instead (the paper's throttle floor).
    Escalate,
    /// One rung shallower; held at rung 0.
    Deescalate,
    /// Jump straight to a rung (clamped to the ladder). Multi-rung moves
    /// are surfaced in capsim-obs as `policy` rung changes.
    SetRung(usize),
}

/// One answering node's demand as the group-level half of a policy sees
/// it: the fleet-wide node index plus its measured power.
///
/// The index is stable across partial answering sets, so policies that
/// key decisions off node identity (e.g. a priority table) project
/// correctly when nodes drop out.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroupDemand {
    /// Fleet-wide node index.
    pub node: u32,
    /// Measured power in watts.
    pub demand_w: f64,
    /// Tail (p99) completion latency in milliseconds, gathered serially
    /// at the barrier from the `traffic.latency_ms` histogram of the
    /// node's request books. 0.0 for batch nodes.
    pub tail_ms: f64,
}

/// A capping policy spanning the BMC (node level) and the DCM (group
/// level).
///
/// Implementations must be deterministic: any randomness is drawn from a
/// seed installed via [`CapPolicy::reseed`], so serial and parallel fleet
/// replays stay byte-identical.
pub trait CapPolicy: std::fmt::Debug + Send + Sync {
    /// Stable name, used in events, metrics and bench artifacts.
    fn name(&self) -> &'static str;

    /// Node level: one control-period decision. Called only while a cap
    /// is active, with plausible telemetry, and with no failsafe engaged
    /// — the BMC's guardrails run before and regardless.
    fn node_decide(&mut self, view: &NodeCapView) -> CapDecision;

    /// Group level: divide `budget_w` across the answering nodes. Returns
    /// one cap per entry of `demand`, in order. Caps must respect
    /// `floor_w` (capping a node below its idle power is useless).
    ///
    /// The default is the partition-invariant proportional-to-demand
    /// split: busy nodes get the headroom idle nodes are not using.
    fn group_allocate(&self, budget_w: f64, demand: &[GroupDemand], floor_w: f64) -> Vec<f64> {
        let demand_w: Vec<f64> = demand.iter().map(|d| d.demand_w).collect();
        allocate(&AllocationPolicy::ProportionalToDemand, budget_w, &demand_w, floor_w)
    }

    /// Would a steady under-cap sample at rung 0 leave this policy inert?
    ///
    /// Gates the machine's idle fast-forward: returning `true` promises
    /// that feeding the same sample again produces no rung change and no
    /// internal state change. Learning or exploring policies must return
    /// `false`. The default is the conservative `false`.
    fn node_quiescent(&self, window_avg_w: f64, cap_w: Option<f64>, hysteresis_w: f64) -> bool {
        let _ = (window_avg_w, cap_w, hysteresis_w);
        false
    }

    /// Install a per-node random stream. Deterministic builders call this
    /// with a seed derived from the node's own seed; policies without
    /// randomness ignore it.
    fn reseed(&mut self, seed: u64) {
        let _ = seed;
    }

    /// Clone into a fresh boxed policy (per-node instantiation).
    fn clone_box(&self) -> Box<dyn CapPolicy>;

    /// Downcast support (the RL trainer harvests per-node Q-tables).
    fn as_any(&self) -> &dyn std::any::Any;
}

impl Clone for Box<dyn CapPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The default backend: the paper's inferred policy, verbatim.
///
/// Node level reproduces the pre-trait BMC walk bit-for-bit: escalate one
/// rung when over the cap, de-escalate one rung when below
/// `cap - hysteresis`, hold otherwise. Group level wraps an
/// [`AllocationPolicy`] (default [`AllocationPolicy::Uniform`], matching
/// the fleet builder's historical default).
#[derive(Clone, Debug, PartialEq)]
pub struct LadderCapPolicy {
    group: AllocationPolicy,
}

impl LadderCapPolicy {
    pub fn new() -> Self {
        LadderCapPolicy { group: AllocationPolicy::Uniform }
    }

    /// Ladder walk at the node level, `group` at the group level.
    pub fn with_group(group: AllocationPolicy) -> Self {
        LadderCapPolicy { group }
    }

    /// The wrapped group allocation rule.
    pub fn group(&self) -> &AllocationPolicy {
        &self.group
    }
}

impl Default for LadderCapPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl CapPolicy for LadderCapPolicy {
    fn name(&self) -> &'static str {
        "ladder"
    }

    fn node_decide(&mut self, v: &NodeCapView) -> CapDecision {
        if v.window_avg_w > v.cap_w {
            CapDecision::Escalate
        } else if v.window_avg_w < v.cap_w - v.hysteresis_w && v.rung > 0 {
            CapDecision::Deescalate
        } else {
            CapDecision::Hold
        }
    }

    fn group_allocate(&self, budget_w: f64, demand: &[GroupDemand], floor_w: f64) -> Vec<f64> {
        let demand_w: Vec<f64> = demand.iter().map(|d| d.demand_w).collect();
        match &self.group {
            // Project the fleet-wide priority table onto the answering
            // subset; absent entries default to the lowest priority.
            AllocationPolicy::Priority(p) => {
                let projected: Vec<u8> = demand
                    .iter()
                    .map(|d| p.get(d.node as usize).copied().unwrap_or(u8::MAX))
                    .collect();
                allocate(&AllocationPolicy::Priority(projected), budget_w, &demand_w, floor_w)
            }
            other => allocate(other, budget_w, &demand_w, floor_w),
        }
    }

    fn node_quiescent(&self, window_avg_w: f64, cap_w: Option<f64>, hysteresis_w: f64) -> bool {
        // Exactly the pre-trait quiescence predicate: comfortably under
        // the cap (beyond the hysteresis), or no cap at all.
        match cap_w {
            Some(c) => window_avg_w < c - hysteresis_w,
            None => true,
        }
    }

    fn clone_box(&self) -> Box<dyn CapPolicy> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Profiling aid: pins the node at one rung regardless of telemetry.
///
/// Per-rung power/performance curves (and the ladder monotonicity tests)
/// need the machine held at an exact rung for a whole run; no closed-loop
/// policy can promise that. Group level keeps the trait's proportional
/// default.
#[derive(Clone, Debug, PartialEq)]
pub struct PinnedRungPolicy {
    rung: usize,
}

impl PinnedRungPolicy {
    pub fn new(rung: usize) -> Self {
        PinnedRungPolicy { rung }
    }
}

impl CapPolicy for PinnedRungPolicy {
    fn name(&self) -> &'static str {
        "pinned"
    }

    fn node_decide(&mut self, _v: &NodeCapView) -> CapDecision {
        CapDecision::SetRung(self.rung)
    }

    fn clone_box(&self) -> Box<dyn CapPolicy> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Serializable policy selector: what builders, the chaos harness and
/// bench bins thread around instead of boxed trait objects.
#[derive(Clone, Debug, PartialEq)]
pub enum CapPolicySpec {
    /// The paper's ladder walk plus a group allocation rule.
    Ladder(AllocationPolicy),
    /// Energy-proportional governor (race-to-idle / utilization tracking).
    Governor(GovernorConfig),
    /// A frozen tabular-RL policy (greedy over the carried Q-table).
    Rl(QTable),
    /// SLO-aware capping: spends the group budget where the latency tail
    /// is longest (see [`SloCapPolicy`]).
    Slo(SloConfig),
}

impl CapPolicySpec {
    pub fn name(&self) -> &'static str {
        match self {
            CapPolicySpec::Ladder(_) => "ladder",
            CapPolicySpec::Governor(_) => "governor",
            CapPolicySpec::Rl(_) => "rl",
            CapPolicySpec::Slo(_) => "slo",
        }
    }

    /// Instantiate the backend this spec describes.
    pub fn build(&self) -> Box<dyn CapPolicy> {
        match self {
            CapPolicySpec::Ladder(group) => Box::new(LadderCapPolicy::with_group(group.clone())),
            CapPolicySpec::Governor(cfg) => Box::new(GovernorCapPolicy::with_config(*cfg)),
            CapPolicySpec::Rl(q) => Box::new(RlCapPolicy::frozen(q.clone())),
            CapPolicySpec::Slo(cfg) => Box::new(SloCapPolicy::with_config(*cfg)),
        }
    }
}

/// The fleet's default: the ladder walk over a uniform split.
impl Default for CapPolicySpec {
    fn default() -> Self {
        CapPolicySpec::Ladder(AllocationPolicy::Uniform)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(rung: usize, avg: f64, cap: f64) -> NodeCapView {
        NodeCapView {
            cap_w: cap,
            window_avg_w: avg,
            hysteresis_w: 1.0,
            rung,
            deepest: 29,
            busy_frac: 1.0,
            issue_frac: 0.5,
            now_ms: 1000.0,
            tail_ms: 0.0,
        }
    }

    #[test]
    fn ladder_reproduces_the_inline_walk() {
        let mut p = LadderCapPolicy::new();
        assert_eq!(p.node_decide(&view(0, 150.0, 130.0)), CapDecision::Escalate);
        assert_eq!(p.node_decide(&view(29, 150.0, 130.0)), CapDecision::Escalate);
        assert_eq!(p.node_decide(&view(3, 120.0, 130.0)), CapDecision::Deescalate);
        // Inside the hysteresis band: hold.
        assert_eq!(p.node_decide(&view(3, 129.5, 130.0)), CapDecision::Hold);
        // At rung 0 there is nothing to release.
        assert_eq!(p.node_decide(&view(0, 100.0, 130.0)), CapDecision::Hold);
    }

    #[test]
    fn ladder_quiescence_matches_the_pre_trait_predicate() {
        let p = LadderCapPolicy::new();
        assert!(p.node_quiescent(100.0, Some(130.0), 1.0));
        assert!(!p.node_quiescent(129.5, Some(130.0), 1.0));
        assert!(p.node_quiescent(100.0, None, 1.0));
    }

    #[test]
    fn ladder_group_half_matches_allocate() {
        let p = LadderCapPolicy::with_group(AllocationPolicy::ProportionalToDemand);
        let demand = [
            GroupDemand { node: 0, demand_w: 160.0, tail_ms: 0.0 },
            GroupDemand { node: 1, demand_w: 120.0, tail_ms: 0.0 },
        ];
        let caps = p.group_allocate(300.0, &demand, 110.0);
        assert_eq!(
            caps,
            allocate(&AllocationPolicy::ProportionalToDemand, 300.0, &[160.0, 120.0], 110.0)
        );
    }

    #[test]
    fn ladder_priority_projects_by_node_index() {
        // Node 2 answered, node 1 did not: the priority table must follow
        // node *identity*, not position in the answering set.
        let p = LadderCapPolicy::with_group(AllocationPolicy::Priority(vec![2, 0, 1]));
        let demand = [
            GroupDemand { node: 0, demand_w: 155.0, tail_ms: 0.0 },
            GroupDemand { node: 2, demand_w: 155.0, tail_ms: 0.0 },
        ];
        let caps = p.group_allocate(300.0, &demand, 110.0);
        // Node 2 (priority 1) beats node 0 (priority 2).
        assert!(caps[1] > caps[0]);
    }

    #[test]
    fn default_group_half_is_the_proportional_split() {
        // Node 1 did not answer: the indices have a gap, and the split
        // must follow the answering entries in order.
        let demand = [
            GroupDemand { node: 0, demand_w: 160.0, tail_ms: 0.0 },
            GroupDemand { node: 2, demand_w: 120.0, tail_ms: 0.0 },
            GroupDemand { node: 3, demand_w: 140.0, tail_ms: 0.0 },
        ];
        let want =
            allocate(&AllocationPolicy::ProportionalToDemand, 400.0, &[160.0, 120.0, 140.0], 110.0);
        let backends: [Box<dyn CapPolicy>; 3] = [
            Box::new(GovernorCapPolicy::new()),
            Box::new(RlCapPolicy::frozen(QTable::zeroed())),
            Box::new(PinnedRungPolicy::new(3)),
        ];
        for p in backends {
            assert_eq!(p.group_allocate(400.0, &demand, 110.0), want, "{}", p.name());
        }
    }

    #[test]
    fn specs_build_their_backends() {
        assert_eq!(CapPolicySpec::default(), CapPolicySpec::Ladder(AllocationPolicy::Uniform));
        assert_eq!(CapPolicySpec::Ladder(AllocationPolicy::Uniform).build().name(), "ladder");
        assert_eq!(CapPolicySpec::Governor(GovernorConfig::default()).build().name(), "governor");
        assert_eq!(CapPolicySpec::Rl(QTable::zeroed()).build().name(), "rl");
        assert_eq!(CapPolicySpec::Slo(SloConfig::default()).build().name(), "slo");
    }

    #[test]
    fn boxed_policies_clone() {
        let p: Box<dyn CapPolicy> = Box::new(LadderCapPolicy::new());
        let q = p.clone();
        assert_eq!(q.name(), "ladder");
    }
}
