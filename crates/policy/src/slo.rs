//! SLO-aware capping: spend the group budget where the tail hurts.
//!
//! The ladder and governor backends read nothing but power telemetry, so
//! under an oversubscribed budget they split it by *electrical* demand —
//! two nodes drawing 150 W get the same cap even when one is serving its
//! requests comfortably and the other is drowning in a retry storm. This
//! backend closes the loop the serving stack opens: the node half reads
//! its own `traffic.latency_ms` log-histogram (through
//! [`NodeCapView::tail_ms`]) and releases rungs more eagerly while the
//! tail is over the SLO; the group half weights each node's measured
//! demand by its tail pressure and allocates proportionally, so watts
//! flow to the nodes whose p99 is furthest past the objective.
//!
//! Determinism: both halves are pure functions of the view/demand slices.
//! The group half runs serially at the root barrier over the full
//! answering set (like every group policy), so serial ≡ parallel at any
//! worker count holds by construction. Tails come from each node's
//! request books, so the backend acts the same with obs on or off; with
//! no traffic every `tail_ms` is 0.0 and the backend degrades to the
//! ladder walk over proportional-to-demand allocation.

use crate::group::{allocate, AllocationPolicy};
use crate::{CapDecision, CapPolicy, GroupDemand, NodeCapView};

/// Tuning for [`SloCapPolicy`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloConfig {
    /// Latency objective on p99 completion latency, milliseconds.
    pub slo_ms: f64,
    /// Weight of tail pressure in the group allocation: a node at
    /// `k × slo_ms` tail bids `demand_w × (1 + boost × min(k, max_over))`
    /// watts of effective demand.
    pub boost: f64,
    /// Clamp on the tail-pressure ratio, so one node in a death spiral
    /// cannot starve the whole group to its floor.
    pub max_over: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        // slo_ms matches the emergency scenario's 0.05 ms objective;
        // boost 1.0 doubles a node's bid at twice the objective.
        SloConfig { slo_ms: 0.05, boost: 1.0, max_over: 4.0 }
    }
}

/// The SLO-aware backend. See the module docs.
#[derive(Clone, Debug, PartialEq)]
pub struct SloCapPolicy {
    cfg: SloConfig,
}

impl SloCapPolicy {
    pub fn new() -> Self {
        SloCapPolicy { cfg: SloConfig::default() }
    }

    pub fn with_config(cfg: SloConfig) -> Self {
        SloCapPolicy { cfg }
    }

    /// Tail-pressure ratio in `[0, max_over]`: how far past the SLO a
    /// node's p99 sits.
    fn pressure(&self, tail_ms: f64) -> f64 {
        if self.cfg.slo_ms <= 0.0 || tail_ms <= self.cfg.slo_ms {
            0.0
        } else {
            (tail_ms / self.cfg.slo_ms - 1.0).min(self.cfg.max_over)
        }
    }
}

impl Default for SloCapPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl CapPolicy for SloCapPolicy {
    fn name(&self) -> &'static str {
        "slo"
    }

    /// The ladder walk with tail-aware hysteresis: compliance (escalate
    /// while over the cap) is untouched, but a node whose p99 is past the
    /// SLO releases rungs with half the hysteresis margin — it claws back
    /// performance as soon as the window dips under the cap instead of
    /// waiting for a comfortable gap.
    fn node_decide(&mut self, v: &NodeCapView) -> CapDecision {
        let hyst =
            if self.pressure(v.tail_ms) > 0.0 { v.hysteresis_w * 0.5 } else { v.hysteresis_w };
        if v.window_avg_w > v.cap_w {
            CapDecision::Escalate
        } else if v.window_avg_w < v.cap_w - hyst && v.rung > 0 {
            CapDecision::Deescalate
        } else {
            CapDecision::Hold
        }
    }

    /// Proportional allocation over tail-weighted demand. The weights are
    /// a pure per-entry function plus whole-set sums inside `allocate`,
    /// and the root always hands the full answering set in registration
    /// order — the same partition-invariance argument as
    /// `AllocationPolicy::ProportionalToDemand`.
    fn group_allocate(&self, budget_w: f64, demand: &[GroupDemand], floor_w: f64) -> Vec<f64> {
        let weighted: Vec<f64> = demand
            .iter()
            .map(|d| d.demand_w * (1.0 + self.cfg.boost * self.pressure(d.tail_ms)))
            .collect();
        allocate(&AllocationPolicy::ProportionalToDemand, budget_w, &weighted, floor_w)
    }

    fn clone_box(&self) -> Box<dyn CapPolicy> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(rung: usize, avg: f64, cap: f64, tail_ms: f64) -> NodeCapView {
        NodeCapView {
            cap_w: cap,
            window_avg_w: avg,
            hysteresis_w: 2.0,
            rung,
            deepest: 29,
            busy_frac: 1.0,
            issue_frac: 0.5,
            now_ms: 1000.0,
            tail_ms,
        }
    }

    fn d(node: u32, demand_w: f64, tail_ms: f64) -> GroupDemand {
        GroupDemand { node, demand_w, tail_ms }
    }

    #[test]
    fn compliance_is_untouched_by_the_tail() {
        let mut p = SloCapPolicy::new();
        assert_eq!(p.node_decide(&view(0, 150.0, 130.0, 10.0)), CapDecision::Escalate);
        assert_eq!(p.node_decide(&view(29, 150.0, 130.0, 0.0)), CapDecision::Escalate);
    }

    #[test]
    fn tail_pressure_halves_the_release_hysteresis() {
        let mut p = SloCapPolicy::new();
        // 1.5 W under the cap: inside the 2 W band normally, but a node
        // past its SLO releases at the halved 1 W band.
        assert_eq!(p.node_decide(&view(3, 128.5, 130.0, 0.01)), CapDecision::Hold);
        assert_eq!(p.node_decide(&view(3, 128.5, 130.0, 1.0)), CapDecision::Deescalate);
        // Without a rung to release there is nothing to do either way.
        assert_eq!(p.node_decide(&view(0, 128.5, 130.0, 1.0)), CapDecision::Hold);
    }

    #[test]
    fn budget_flows_to_the_longest_tail() {
        let p = SloCapPolicy::new();
        // Equal electrical demand, very different service pain.
        let demand = [d(0, 150.0, 0.01), d(1, 150.0, 0.50)];
        let caps = p.group_allocate(280.0, &demand, 110.0);
        assert!(caps[1] > caps[0], "the node past its SLO must win budget: {caps:?}");
        let total: f64 = caps.iter().sum();
        assert!(total <= 280.0 + 1e-9, "budget respected: {total}");
        assert!(caps.iter().all(|&c| c >= 110.0), "floor respected: {caps:?}");
    }

    #[test]
    fn zero_tails_degrade_to_plain_proportional() {
        let p = SloCapPolicy::new();
        let demand = [d(0, 160.0, 0.0), d(1, 120.0, 0.0)];
        let caps = p.group_allocate(300.0, &demand, 110.0);
        let plain =
            allocate(&AllocationPolicy::ProportionalToDemand, 300.0, &[160.0, 120.0], 110.0);
        assert_eq!(caps, plain, "no tail signal → proportional-to-demand");
    }

    #[test]
    fn pressure_is_clamped() {
        let p = SloCapPolicy::new();
        // A 1000× SLO miss bids no more than max_over allows.
        let demand = [d(0, 150.0, 50.0), d(1, 150.0, 0.0)];
        let caps = p.group_allocate(280.0, &demand, 110.0);
        let expect = allocate(
            &AllocationPolicy::ProportionalToDemand,
            280.0,
            &[150.0 * (1.0 + 4.0), 150.0],
            110.0,
        );
        assert_eq!(caps, expect, "tail pressure clamps at max_over");
    }
}
