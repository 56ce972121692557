//! Energy-proportional governor backend (race-to-idle / utilization
//! tracking, after Jelvani & Martin's subsystem-level power management).
//!
//! The ladder converges one rung per control period, so a transient load
//! spike drags the node down the ladder and back one step at a time. The
//! governor instead treats the overshoot as a *distance*: it jumps deep
//! enough in one period to clear the cap, and when utilization collapses
//! it races back toward the unthrottled rung so work completes at full
//! speed and the node earns real idle time (energy-proportional "race to
//! idle") instead of lingering half-throttled.

use crate::{CapDecision, CapPolicy, NodeCapView};

/// Tunables for [`GovernorCapPolicy`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GovernorConfig {
    /// Watts one rung is assumed to shed when sizing an over-cap jump.
    /// Smaller values jump deeper per period.
    pub rung_step_w: f64,
    /// Busy fraction at or below which the node counts as near-idle and
    /// the governor races toward rung 0.
    pub idle_busy_frac: f64,
    /// Headroom under the cap (in watts) required before racing to idle.
    pub race_headroom_w: f64,
    /// Maximum rungs released per control period while racing to idle.
    pub release_burst: usize,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            rung_step_w: 2.0,
            idle_busy_frac: 0.10,
            race_headroom_w: 5.0,
            release_burst: 4,
        }
    }
}

/// The governor backend. Stateless between periods (every decision is a
/// pure function of the current [`NodeCapView`]), so replays are trivially
/// deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct GovernorCapPolicy {
    cfg: GovernorConfig,
}

impl GovernorCapPolicy {
    pub fn new() -> Self {
        Self::with_config(GovernorConfig::default())
    }

    pub fn with_config(cfg: GovernorConfig) -> Self {
        GovernorCapPolicy { cfg }
    }

    pub fn config(&self) -> &GovernorConfig {
        &self.cfg
    }
}

impl Default for GovernorCapPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl CapPolicy for GovernorCapPolicy {
    fn name(&self) -> &'static str {
        "governor"
    }

    fn node_decide(&mut self, v: &NodeCapView) -> CapDecision {
        let over_w = v.window_avg_w - v.cap_w;
        if over_w > 0.0 {
            // Jump far enough to clear the overshoot in one period.
            let rungs = (over_w / self.cfg.rung_step_w).ceil().max(1.0) as usize;
            CapDecision::SetRung((v.rung + rungs).min(v.deepest))
        } else if v.rung > 0
            && v.busy_frac <= self.cfg.idle_busy_frac
            && v.window_avg_w < v.cap_w - self.cfg.race_headroom_w
        {
            // Near-idle and comfortably under the cap: race to idle.
            CapDecision::SetRung(v.rung.saturating_sub(self.cfg.release_burst))
        } else if v.window_avg_w < v.cap_w - v.hysteresis_w && v.rung > 0 {
            CapDecision::Deescalate
        } else {
            CapDecision::Hold
        }
    }

    // group_allocate: the trait's proportional default. Busy nodes get
    // the headroom idle nodes are not using — the group-level expression
    // of energy proportionality.

    fn node_quiescent(&self, window_avg_w: f64, cap_w: Option<f64>, hysteresis_w: f64) -> bool {
        // At rung 0 (the only rung the machine asks about) a steady
        // under-cap sample yields Hold or SetRung(0): inert, like the
        // ladder. The race-to-idle branch cannot fire at rung 0.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn view(rung: usize, avg: f64, cap: f64, busy: f64) -> NodeCapView {
        NodeCapView {
            cap_w: cap,
            window_avg_w: avg,
            hysteresis_w: 1.0,
            rung,
            deepest: 29,
            busy_frac: busy,
            issue_frac: busy,
            now_ms: 0.0,
            tail_ms: 0.0,
        }
    }

    #[test]
    fn overshoot_sizes_the_jump() {
        let mut g = GovernorCapPolicy::new();
        // 7 W over at 2 W per rung → 4 rungs deeper in one period.
        assert_eq!(g.node_decide(&view(3, 137.0, 130.0, 1.0)), CapDecision::SetRung(7));
        // Tiny overshoot still moves at least one rung.
        assert_eq!(g.node_decide(&view(3, 130.2, 130.0, 1.0)), CapDecision::SetRung(4));
        // Jumps clamp at the ladder floor.
        assert_eq!(g.node_decide(&view(28, 230.0, 130.0, 1.0)), CapDecision::SetRung(29));
    }

    #[test]
    fn near_idle_races_to_rung_zero() {
        let mut g = GovernorCapPolicy::new();
        assert_eq!(g.node_decide(&view(9, 80.0, 130.0, 0.05)), CapDecision::SetRung(5));
        assert_eq!(g.node_decide(&view(2, 80.0, 130.0, 0.0)), CapDecision::SetRung(0));
    }

    #[test]
    fn busy_and_under_cap_releases_one_rung() {
        let mut g = GovernorCapPolicy::new();
        assert_eq!(g.node_decide(&view(9, 120.0, 130.0, 0.9)), CapDecision::Deescalate);
        assert_eq!(g.node_decide(&view(9, 129.5, 130.0, 0.9)), CapDecision::Hold);
        assert_eq!(g.node_decide(&view(0, 100.0, 130.0, 0.9)), CapDecision::Hold);
    }
}
