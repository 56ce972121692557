//! The power-emergency experiment: a request-serving fleet under an
//! oversubscribed root budget *and* a chaos fault plan.
//!
//! The scenario the 2012 paper could not run: the fleet keeps serving an
//! open-loop diurnal + flash-crowd trace while the root budget is pinned
//! well below aggregate demand (every busy node throttles) and declared
//! faults take out telemetry and a BMC mid-run. The question is not "how
//! much slower is the batch job" but "how many SLO violations does each
//! joule of emergency operation buy" — computed per policy backend via
//! `FleetReport::slo_violations_per_joule`.

use capsim_chaos::plan::{FaultKind, FaultPlan};
use capsim_chaos::runner::ChaosScenario;
use capsim_policy::CapPolicySpec;

use crate::arrival::ArrivalCurve;
use crate::workload::{AimdSpec, BrownoutSpec, ClientSpec, TrafficSpec};

/// Shape of a power-emergency run. Defaults model a datacenter-mix fleet
/// at the engine's native sub-millisecond epochs.
#[derive(Clone, Debug, PartialEq)]
pub struct EmergencyConfig {
    pub nodes: usize,
    pub epochs: u32,
    pub epoch_s: f64,
    pub seed: u64,
    /// Root budget per node, watts. The fleet default is 135 W/node;
    /// anything at or below the ~124 W deepest-rung draw of a busy node
    /// is a genuine emergency — the ladder cannot reach compliance for
    /// the hot minority.
    pub budget_w_per_node: f64,
    /// Per-node offered load.
    pub traffic: TrafficSpec,
    /// Capping backend (default: the ladder over a uniform split).
    pub policy: CapPolicySpec,
    /// Inject the sensor-dropout + BMC-crash fault windows.
    pub faults: bool,
}

impl EmergencyConfig {
    /// The headline configuration: diurnal swing with a flash crowd
    /// through the middle of the run, datacenter hot/cold rate mix, and
    /// an oversubscribed 118 W/node budget.
    pub fn headline(nodes: usize, epochs: u32, seed: u64) -> EmergencyConfig {
        let epoch_s = 5e-4;
        let horizon = epochs as f64 * epoch_s;
        // Rates sized against the ~1M rps uncapped service capacity of a
        // fleet node: the diurnal swing keeps cold nodes comfortably
        // under, while hot nodes (4× rate) saturate near the peak; the
        // flash crowd pushes every node past capacity at once — while
        // the oversubscribed budget keeps service throttled.
        let traffic = TrafficSpec::from_curves(vec![
            ArrivalCurve::Diurnal { base_rps: 60_000.0, peak_rps: 200_000.0, period_s: horizon },
            ArrivalCurve::FlashCrowd {
                base_rps: 0.0,
                spike_rps: 1_000_000.0,
                start_s: 0.40 * horizon,
                end_s: 0.60 * horizon,
            },
        ])
        .datacenter_mix(true)
        .slo_ms(0.05);
        EmergencyConfig {
            nodes,
            epochs,
            epoch_s,
            seed,
            budget_w_per_node: 118.0,
            traffic,
            policy: CapPolicySpec::default(),
            faults: true,
        }
    }

    /// The closed-loop variant of [`EmergencyConfig::headline`]: the same
    /// oversubscribed budget and fault plan, but clients time out and
    /// retry with capped backoff, and full queues hand overflow to the
    /// fleet barrier for cross-node failover. Throttled nodes now amplify
    /// their own load — the retry storm — while the group sheds work
    /// toward whoever has headroom.
    pub fn retry_storm(nodes: usize, epochs: u32, seed: u64) -> EmergencyConfig {
        let mut cfg = EmergencyConfig::headline(nodes, epochs, seed);
        cfg.traffic = cfg.traffic.closed_loop(ClientSpec::default()).failover(true);
        cfg
    }

    /// The graceful-degradation twin of [`EmergencyConfig::retry_storm`]:
    /// the same flash crowd, oversubscribed budget, and fault plan, but
    /// clients run AIMD backpressure and the admission gate browns out
    /// low-priority work under pressure (tail trigger at the SLO bound).
    /// This is the configuration that must *converge* where the
    /// retry-only storm collapses.
    pub fn backpressure_storm(nodes: usize, epochs: u32, seed: u64) -> EmergencyConfig {
        let mut cfg = EmergencyConfig::retry_storm(nodes, epochs, seed);
        let clients = ClientSpec::default().aimd(AimdSpec::default());
        let tail_ms = cfg.traffic.slo_ms;
        cfg.traffic = cfg
            .traffic
            .closed_loop(clients)
            .brownout(BrownoutSpec { p99_ms: tail_ms, ..BrownoutSpec::default() });
        cfg
    }

    /// Swap in a policy backend.
    pub fn with_policy(mut self, spec: CapPolicySpec) -> EmergencyConfig {
        self.policy = spec;
        self
    }

    /// Lower the chaos scenario describing this emergency. Running it
    /// through `capsim_chaos::check` gives the serial-vs-parallel replay
    /// check and the cap/energy/SEL invariants for free.
    pub fn scenario(&self) -> ChaosScenario {
        let horizon = self.epochs as f64 * self.epoch_s;
        let plan = if self.faults && self.nodes >= 3 {
            // Mid-run telemetry loss on one node and a BMC crash on
            // another, both scaled to the horizon so any epoch count
            // exercises inject + clear + recovery.
            FaultPlan::none()
                .window(1, 0.25 * horizon, 0.45 * horizon, FaultKind::SensorDropout)
                .window(
                    2,
                    0.55 * horizon,
                    0.70 * horizon,
                    FaultKind::BmcCrash { dead_s: 0.10 * horizon },
                )
        } else {
            FaultPlan::none()
        };
        let name = if self.traffic.clients.is_some_and(|c| c.aimd.is_some()) {
            "backpressure_storm"
        } else if self.traffic.clients.is_some() {
            "retry_storm"
        } else {
            "power_emergency"
        };
        ChaosScenario {
            name: name.into(),
            nodes: self.nodes,
            epochs: self.epochs,
            epoch_s: self.epoch_s,
            seed: self.seed,
            budget_w: Some(self.budget_w_per_node * self.nodes as f64),
            workload: self.traffic.clone().workload(),
            control_period_us: 10.0,
            meter_window_s: 2e-4,
            plan,
            observe: true,
            invariants: capsim_chaos::InvariantConfig::default(),
            policy: self.policy.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsim_chaos::runner::run_scenario;

    #[test]
    fn emergency_serves_traffic_and_stays_deterministic() {
        let cfg = EmergencyConfig::headline(8, 8, 42);
        let scenario = cfg.scenario();
        let serial = run_scenario(&scenario, false);
        let parallel = run_scenario(&scenario, true);
        assert_eq!(
            serial.fingerprint(),
            parallel.fingerprint(),
            "power emergency must replay byte-identically"
        );
        let traffic = serial.report.traffic().expect("emergency run records traffic series");
        assert!(traffic.arrivals > 0, "trace offered requests");
        assert!(traffic.completed > 0, "fleet served requests");
        let e = serial.report.energy();
        assert!(e.energy_j > 0.0, "energy metered");
        assert!(serial.report.slo_violations_per_joule().is_some(), "headline metric computable");
    }

    #[test]
    fn retry_storm_amplifies_load_and_replays() {
        let cfg = EmergencyConfig::retry_storm(8, 8, 42);
        let scenario = cfg.scenario();
        assert_eq!(scenario.name, "retry_storm");
        let serial = run_scenario(&scenario, false);
        let parallel = run_scenario(&scenario, true);
        assert_eq!(
            serial.fingerprint(),
            parallel.fingerprint(),
            "retry storm must replay byte-identically"
        );
        let t = serial.report.traffic().expect("storm records traffic series");
        assert!(t.retries > 0, "throttled fleet ignites retries");
        assert!(t.client_timeouts >= t.retries, "every retry follows a timeout");
        assert_eq!(
            t.arrivals,
            t.completed + t.shed + t.in_flight,
            "fleet-wide books close exactly under retries and failover"
        );
    }
}
