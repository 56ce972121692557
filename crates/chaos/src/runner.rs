//! Scenario runner: a fleet configuration plus a fault plan, stepped
//! epoch-by-epoch with faults injected at epoch boundaries.
//!
//! The runner owns no simulation logic of its own — it drives
//! [`capsim_dcm::Fleet::step_epoch`] and pokes faults into machines
//! through their public fault-injection API between epochs. Injection
//! happens at the first epoch boundary at or after a window's `start_s`
//! and clears at the first boundary at or after `end_s`, so the realized
//! schedule is the declared schedule quantized to the epoch grid —
//! deterministically, for any seed.

use capsim_dcm::fleet::{Fleet, FleetBuilder, FleetReport};
use capsim_ipmi::sel::SelEntry;
use capsim_node::{LoadKind, Machine, MachineConfig, SensorFault, WorkloadSpec};
use capsim_policy::CapPolicySpec;

use crate::invariant::{check_outcome, InvariantConfig, Violation};
use crate::plan::{FaultKind, FaultPlan};

/// A complete chaos experiment: fleet shape, machine timing, fault plan
/// and invariant tolerances. Serializable ([`ChaosScenario::to_json`])
/// so soak failures can be replayed from a reproducer.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosScenario {
    pub name: String,
    pub nodes: usize,
    pub epochs: u32,
    pub epoch_s: f64,
    pub seed: u64,
    /// Group budget in watts (None: the fleet default of 135 W/node).
    pub budget_w: Option<f64>,
    /// Workload every node is built with (the fleet's round-robin mix by
    /// default; [`WorkloadSpec::Custom`] plugs in request-serving traffic).
    pub workload: WorkloadSpec,
    pub control_period_us: f64,
    pub meter_window_s: f64,
    pub plan: FaultPlan,
    pub observe: bool,
    pub invariants: InvariantConfig,
    /// Capping policy for every node and the group planner (default: the
    /// ladder over a uniform split, as in a plain fleet). Lets the fault
    /// plans double as an adversarial eval for policy backends.
    pub policy: CapPolicySpec,
}

impl ChaosScenario {
    /// The acceptance scenario: three nodes under a pulsed load at
    /// wall-like timescales — sensor dropout on node 1 at t=10 s (cleared
    /// at 15 s), BMC firmware crash on node 2 at t=20 s with a 3 s dead
    /// time, full recovery by t=30 s. The failsafe rung floor, the
    /// watchdog reboot and the SEL paper trail are all visible in the
    /// merged event log.
    pub fn scripted() -> ChaosScenario {
        ChaosScenario {
            name: "scripted".into(),
            nodes: 3,
            epochs: 32,
            epoch_s: 1.0,
            seed: 42,
            budget_w: None,
            workload: WorkloadSpec::Uniform(LoadKind::Pulse),
            control_period_us: 20_000.0,
            meter_window_s: 0.1,
            plan: FaultPlan::none().window(1, 10.0, 15.0, FaultKind::SensorDropout).window(
                2,
                20.0,
                23.0,
                FaultKind::BmcCrash { dead_s: 3.0 },
            ),
            observe: true,
            invariants: InvariantConfig::default(),
            policy: CapPolicySpec::default(),
        }
    }

    /// A fast scenario at the fleet engine's native timescale (sub-ms
    /// epochs, busy round-robin loads where caps genuinely bind) — the
    /// soak harness's workhorse.
    pub fn fast(seed: u64, nodes: usize, epochs: u32) -> ChaosScenario {
        ChaosScenario {
            name: "fast".into(),
            nodes,
            epochs,
            epoch_s: 5e-4,
            seed,
            budget_w: None,
            workload: WorkloadSpec::RoundRobin,
            control_period_us: 10.0,
            meter_window_s: 2e-4,
            plan: FaultPlan::none(),
            observe: false,
            invariants: InvariantConfig::default(),
            policy: CapPolicySpec::default(),
        }
    }

    /// Run the scenario under another policy backend.
    pub fn with_policy(mut self, spec: CapPolicySpec) -> ChaosScenario {
        self.policy = spec;
        self
    }

    /// Simulated length of the run.
    pub fn horizon_s(&self) -> f64 {
        self.epochs as f64 * self.epoch_s
    }

    fn build_fleet(&self, parallel: bool) -> Fleet {
        let mut base = MachineConfig::tiny(0);
        base.control_period_us = self.control_period_us;
        base.meter_window_s = self.meter_window_s;
        let mut b = FleetBuilder::new()
            .nodes(self.nodes)
            .epochs(self.epochs)
            .epoch_s(self.epoch_s)
            .seed(self.seed)
            .machine(base)
            .parallel(parallel)
            .observe(self.observe);
        if let Some(w) = self.budget_w {
            b = b.budget_w(w);
        }
        b.workload(self.workload.clone()).cap_policy(self.policy.build()).build()
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"nodes\":{},\"epochs\":{},\"epoch_s\":{},\"seed\":{},\
             \"budget_w\":{},\"workload\":\"{}\",\"control_period_us\":{},\"meter_window_s\":{},\
             \"policy\":\"{}\",\"plan\":{}}}",
            self.name,
            self.nodes,
            self.epochs,
            self.epoch_s,
            self.seed,
            self.budget_w.map_or("null".into(), |w| w.to_string()),
            self.workload.name(),
            self.control_period_us,
            self.meter_window_s,
            self.policy.name(),
            self.plan.to_json()
        )
    }
}

/// Everything a chaos run produces: the fleet report plus the raw
/// material the invariant checker needs (wire-audited SELs vs the
/// firmware's ground-truth logs, captured *before* the fleet was torn
/// down).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosOutcome {
    pub report: FleetReport,
    /// Per node: the SEL as read over the management link at the end of
    /// the run (None when the link itself failed or the node's BMC was
    /// still dead at audit time).
    pub sel_audits: Vec<Option<Vec<SelEntry>>>,
    /// Per node: the firmware's SEL, read out-of-band (ground truth).
    pub sel_truth: Vec<Vec<SelEntry>>,
}

impl ChaosOutcome {
    /// Byte-stable digest of the run: the rendered report, the request
    /// books and the breaker-transition count, plus, when observability
    /// was on, the merged JSONL event log and metrics. Two runs of the
    /// same scenario must produce identical fingerprints — serial or
    /// parallel.
    pub fn fingerprint(&self) -> String {
        let mut s = self.report.render();
        s.push_str(&self.report.serving.render());
        s.push_str(&format!("breaker_transitions {}\n", self.report.breaker_transitions));
        if let Some(obs) = &self.report.obs {
            s.push_str(&obs.events_jsonl());
            s.push_str(&obs.metrics.render());
        }
        s
    }
}

fn inject(machine: &mut Machine, kind: &FaultKind) {
    match *kind {
        FaultKind::SensorStuck { watts } => {
            machine.inject_sensor_fault(SensorFault::StuckAt { watts })
        }
        FaultKind::SensorDrift { watts_per_s } => {
            machine.inject_sensor_fault(SensorFault::Drift { watts_per_s })
        }
        FaultKind::SensorSpike { watts, period_ticks } => {
            machine.inject_sensor_fault(SensorFault::Spike { watts, period_ticks })
        }
        FaultKind::SensorDropout => machine.inject_sensor_fault(SensorFault::Dropout),
        FaultKind::StaleTelemetry => machine.set_stale_telemetry(true),
        FaultKind::LostCapCommands => machine.set_lost_cap_commands(true),
        FaultKind::BmcCrash { dead_s } => machine.crash_bmc(dead_s),
    }
}

fn clear(machine: &mut Machine, kind: &FaultKind) {
    match kind {
        FaultKind::SensorStuck { .. }
        | FaultKind::SensorDrift { .. }
        | FaultKind::SensorSpike { .. }
        | FaultKind::SensorDropout => machine.clear_sensor_fault(),
        FaultKind::StaleTelemetry => machine.set_stale_telemetry(false),
        FaultKind::LostCapCommands => machine.set_lost_cap_commands(false),
        // The watchdog clears a crash on its own.
        FaultKind::BmcCrash { .. } => {}
    }
}

/// Execute a scenario once. Deterministic for a given scenario,
/// independent of `parallel`.
pub fn run_scenario(scenario: &ChaosScenario, parallel: bool) -> ChaosOutcome {
    let mut fleet = scenario.build_fleet(parallel);
    let n_windows = scenario.plan.windows.len();
    let mut injected = vec![false; n_windows];
    let mut cleared = vec![false; n_windows];
    for epoch in 0..scenario.epochs {
        let t = epoch as f64 * scenario.epoch_s;
        for (i, w) in scenario.plan.windows.iter().enumerate() {
            if !injected[i] && t + 1e-9 >= w.start_s {
                inject(fleet.machine_mut(w.node), &w.kind);
                injected[i] = true;
                // A crash ends itself (watchdog); mark it cleared so the
                // loop below never calls clear() for it.
                if matches!(w.kind, FaultKind::BmcCrash { .. }) {
                    cleared[i] = true;
                }
            }
            if injected[i] && !cleared[i] && t + 1e-9 >= w.end_s {
                clear(fleet.machine_mut(w.node), &w.kind);
                cleared[i] = true;
            }
        }
        fleet.step_epoch();
    }
    // Audit every SEL over the wire while the fleet still exists, and
    // capture the firmware's ground truth out-of-band.
    let mut sel_audits = Vec::with_capacity(scenario.nodes);
    let mut sel_truth = Vec::with_capacity(scenario.nodes);
    for i in 0..scenario.nodes {
        let audit = if fleet.machine(i).bmc_crashed() {
            None // a dead BMC cannot answer its own audit
        } else {
            fleet.read_node_sel(i).ok()
        };
        sel_audits.push(audit);
        sel_truth.push(fleet.machine(i).sel().iter().copied().collect());
    }
    ChaosOutcome { report: fleet.finish(), sel_audits, sel_truth }
}

/// A checked chaos run: the outcome plus every invariant violation found
/// (empty = all invariants green).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosReport {
    pub outcome: ChaosOutcome,
    pub violations: Vec<Violation>,
}

impl ChaosReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run a scenario and check every invariant, including byte-identical
/// serial-vs-parallel replay (the scenario is executed twice).
pub fn check(scenario: &ChaosScenario) -> ChaosReport {
    let outcome = run_scenario(scenario, true);
    let mut violations = check_outcome(scenario, &outcome);
    let serial = run_scenario(scenario, false);
    if serial.fingerprint() != outcome.fingerprint() {
        violations.push(Violation::ReplayDiverged {
            parallel_bytes: outcome.fingerprint().len(),
            serial_bytes: serial.fingerprint().len(),
        });
    }
    ChaosReport { outcome, violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsim_obs::{EventKind, RungCause};

    #[test]
    fn a_quiet_fast_scenario_upholds_every_invariant() {
        let report = check(&ChaosScenario::fast(7, 3, 6));
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.outcome.report.records.len(), 6);
        for (audit, truth) in report.outcome.sel_audits.iter().zip(&report.outcome.sel_truth) {
            assert_eq!(audit.as_deref(), Some(truth.as_slice()), "audit matches ground truth");
        }
    }

    #[test]
    fn the_fingerprint_covers_the_request_books_breakers_and_metrics() {
        let mut s = ChaosScenario::fast(3, 2, 4);
        s.observe = true;
        let mut outcome = run_scenario(&s, false);
        // A batch fleet's books are empty; give this one a counter.
        outcome.report.serving.counters.push((capsim_node::workload::traffic_keys::COMPLETED, 7));
        let mut books = outcome.clone();
        books.report.serving.counters[0].1 += 1;
        assert_ne!(books.fingerprint(), outcome.fingerprint(), "request books");
        let mut breakers = outcome.clone();
        breakers.report.breaker_transitions += 1;
        assert_ne!(breakers.fingerprint(), outcome.fingerprint(), "breaker transitions");
        let mut metrics = outcome.clone();
        let obs = metrics.report.obs.as_mut().expect("observed");
        obs.metrics.counters.first_mut().expect("an obs counter").1 += 1;
        assert_ne!(metrics.fingerprint(), outcome.fingerprint(), "obs metrics");
    }

    #[test]
    fn faulted_scenarios_still_pass_inside_their_declared_windows() {
        // Lost cap commands for the first third of the run: node 0 acks
        // every push but holds none, so power may float over the cap
        // inside the window (exempt). Its read-backs fail until the
        // window closes; then the next push lands and is confirmed.
        let mut s = ChaosScenario::fast(11, 3, 12);
        let h = s.horizon_s();
        s.plan = FaultPlan::none().window(0, 0.0, h / 3.0, FaultKind::LostCapCommands);
        let report = check(&s);
        assert!(report.ok(), "violations: {:?}", report.violations);
        let out = &report.outcome;
        // The window spans epochs 0-3 (4 x 0.5 ms = h / 3).
        for r in &out.report.records {
            let capped = r.caps.iter().any(|&(i, _)| i == 0);
            assert_eq!(capped, r.epoch >= 4, "epoch {}: {:?}", r.epoch, r.caps);
        }
        assert!(out.sel_truth[0]
            .iter()
            .any(|e| e.event == capsim_ipmi::SelEventType::PowerLimitConfigured));
        let n0 = &out.report.summaries[0];
        assert_eq!(n0.health, capsim_dcm::NodeHealth::Healthy);
        assert_eq!(n0.final_cap_w, Some(135.0));
    }

    #[test]
    fn the_cap_invariant_actually_bites() {
        // With a hostile slack, every post-settle reading is a violation:
        // proves the checker is wired to real readings, not vacuous.
        let mut s = ChaosScenario::fast(5, 2, 5);
        s.invariants.cap_slack_w = -1e3;
        let report = check(&s);
        assert!(!report.ok());
        assert!(report.violations.iter().all(|v| matches!(v, Violation::CapExceeded { .. })));
    }

    #[test]
    fn scripted_scenario_recovers_with_all_invariants_green() {
        let scenario = ChaosScenario::scripted();
        let report = check(&scenario);
        assert!(report.ok(), "violations: {:?}", report.violations);

        let obs = report.outcome.report.obs.as_ref().expect("scripted observes");
        // The dropout on node 1 must engage the failsafe rung floor and
        // release it after the sensor returns.
        assert!(obs
            .events
            .iter()
            .any(|e| e.node == Some(1) && matches!(e.kind, EventKind::FailsafeEngaged { .. })));
        assert!(obs
            .events
            .iter()
            .any(|e| e.node == Some(1) && matches!(e.kind, EventKind::FailsafeReleased)));
        assert!(obs.events.iter().any(|e| e.node == Some(1)
            && matches!(e.kind, EventKind::RungChange { cause: RungCause::Failsafe, .. })));
        // The crash on node 2 must reboot through the watchdog...
        assert!(obs
            .events
            .iter()
            .any(|e| e.node == Some(2) && matches!(e.kind, EventKind::BmcCrash { .. })));
        let reboot = obs
            .events
            .iter()
            .find(|e| e.node == Some(2) && matches!(e.kind, EventKind::WatchdogReboot { .. }))
            .expect("watchdog reboot event");
        assert!(
            reboot.t_s >= 23.0 - 0.1 && reboot.t_s < 24.0,
            "reboot ~3 s after the 20 s crash, got t={}",
            reboot.t_s
        );
        // ...and leave a FirmwareRebooted record in the SEL paper trail.
        let truth = &report.outcome.sel_truth[2];
        assert!(truth.iter().any(|e| e.event == capsim_ipmi::SelEventType::FirmwareRebooted));
        // Recovery: node 2 is healthy and re-capped by the end.
        let n2 = &report.outcome.report.summaries[2];
        assert_eq!(n2.health, capsim_dcm::NodeHealth::Healthy);
        assert!(n2.final_cap_w.is_some());
    }
}
