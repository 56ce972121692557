//! The manager itself: per-node DCMI transactions, health tracking and
//! group budgeting.
//!
//! Nodes are addressed by opaque [`NodeId`] handles from
//! [`Dcm::register`]. The manager owns no transport: every operation takes
//! the caller's [`Transact`] link (the fleet engine hands it a pumped link
//! at each control barrier), so a node's BMC is served on the caller's
//! thread in poll-counted steps.
//!
//! Every operation is one path: capture the wire outcome under the
//! manager's [`RetryPolicy`], then absorb it into observability and
//! per-node [`NodeHealth`]. The fleet captures in its per-node maps and
//! absorbs at the root; the operations below do both back to back.
//!
//! Planning is one path too: [`Dcm::plan_with`] hands the answering
//! nodes' demand to a [`CapPolicy`]'s group half, and
//! [`Dcm::plan_allocation`] is the same call with a
//! [`LadderCapPolicy`] wrapped around a bare [`AllocationPolicy`]. Only
//! nodes that answered are planned, so an unresponsive node's share is
//! reallocated to its healthy peers (degraded-mode operation) rather than
//! stranded on a node that cannot hear its cap anyway.

use capsim_ipmi::dcmi::{
    ActivatePowerLimit, ExceptionAction, GetPowerLimit, GetPowerReading, PowerLimit, PowerReading,
    SetPowerLimit,
};
use capsim_ipmi::{CompletionCode, IpmiError, Response, RetryPolicy, Transact, WireOutcome};
use capsim_obs::{EventKind, Obs};

use crate::error::DcmError;
use capsim_policy::{AllocationPolicy, CapPolicy, GroupDemand, LadderCapPolicy};

fn health_label(h: NodeHealth) -> &'static str {
    match h {
        NodeHealth::Healthy => "healthy",
        NodeHealth::Degraded { .. } => "degraded",
        NodeHealth::Unresponsive => "unresponsive",
    }
}

/// Opaque handle to a node registered with a [`Dcm`]. Obtained from
/// [`Dcm::register`]; there is no public way to fabricate one from a raw
/// index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The node's position in registration order — for display and for
    /// indexing caller-side parallel arrays, not for calling back into
    /// the manager.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(i: usize) -> NodeId {
        NodeId(u32::try_from(i).expect("fleet fits in u32"))
    }
}

/// Management-plane health of a node, as seen by the DCM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeHealth {
    /// Last transaction succeeded.
    Healthy,
    /// Recent transactions failed (transiently); the node is still
    /// budgeted but flagged.
    Degraded { consecutive_failures: u32 },
    /// Failures reached [`Dcm::unresponsive_after`]; the node is excluded
    /// from budgeting until it answers again.
    Unresponsive,
}

impl NodeHealth {
    /// True when the node participates in budget allocation.
    pub fn is_responsive(self) -> bool {
        !matches!(self, NodeHealth::Unresponsive)
    }
}

struct NodeEntry {
    name: String,
    health: NodeHealth,
    consecutive_failures: u32,
    last_cap_w: Option<f64>,
    /// Set by fleet-side cap-violation detection: the node answers
    /// management traffic but its measured power sits above its cap. Held
    /// at [`NodeHealth::Degraded`] (never promoted back to `Healthy` by a
    /// successful transaction) until the violation clears — a node whose
    /// BMC silently drops cap commands looks perfectly healthy on the
    /// wire.
    cap_violating: bool,
}

/// A captured cap push: the *Set Power Limit* outcome plus — only when the
/// set came back with an OK completion — the *Activate Power Limit*
/// outcome (a limit the node refused is never activated). Absorbed via
/// [`Dcm::absorb_cap_push`].
#[derive(Debug)]
pub struct CapPushOutcome {
    pub set: WireOutcome,
    pub activate: Option<WireOutcome>,
}

impl CapPushOutcome {
    /// Run the Set+Activate sequence over `link`, capturing both
    /// outcomes without touching any shared manager state.
    pub fn capture(
        link: &mut dyn Transact,
        retry: &RetryPolicy,
        limit: PowerLimit,
    ) -> CapPushOutcome {
        let set = WireOutcome::capture(link, retry, &move |seq| SetPowerLimit(limit).request(seq));
        let set_ok = matches!(&set.result, Ok(r) if r.completion == CompletionCode::Ok);
        let activate = set_ok.then(|| {
            WireOutcome::capture(link, retry, &|seq| {
                ActivatePowerLimit { activate: true }.request(seq)
            })
        });
        CapPushOutcome { set, activate }
    }
}

/// The Data Center Manager.
pub struct Dcm {
    nodes: Vec<NodeEntry>,
    /// Caps below this are pointless (the node's throttle floor).
    pub floor_w: f64,
    /// DCMI correction time pushed with every limit (how long a node may
    /// exceed its cap before the exception action fires).
    pub correction_ms: u32,
    /// Retry budget for every management transaction.
    pub retry: RetryPolicy,
    /// Consecutive failed transactions before a node is declared
    /// [`NodeHealth::Unresponsive`].
    pub unresponsive_after: u32,
    /// Manager-side observability: transaction retry/timeout counters,
    /// health-transition events, budgeting metrics. Disabled by default.
    pub obs: Obs,
    /// Simulated time stamped onto manager-side events; the DCM has no
    /// clock of its own, so the driving loop advances this (see
    /// [`Dcm::set_obs_time_s`]).
    obs_now_s: f64,
}

impl Dcm {
    pub fn new() -> Self {
        Dcm {
            nodes: Vec::new(),
            floor_w: 110.0,
            correction_ms: 1000,
            retry: RetryPolicy::default(),
            unresponsive_after: 3,
            obs: Obs::disabled(),
            obs_now_s: 0.0,
        }
    }

    /// Advance the simulated clock used to stamp manager-side events.
    pub fn set_obs_time_s(&mut self, t_s: f64) {
        self.obs_now_s = t_s;
    }

    /// Register a node. Its operations take the caller's [`Transact`]
    /// link to the node's BMC.
    pub fn register(&mut self, name: impl Into<String>) -> NodeId {
        self.nodes.push(NodeEntry {
            name: name.into(),
            health: NodeHealth::Healthy,
            consecutive_failures: 0,
            last_cap_w: None,
            cap_violating: false,
        });
        NodeId::from_index(self.nodes.len() - 1)
    }

    /// The handle at a registration position (parallel-array bridging).
    pub fn id_at(&self, index: usize) -> Option<NodeId> {
        (index < self.nodes.len()).then(|| NodeId::from_index(index))
    }

    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].name
    }

    /// Management-plane health of a node.
    pub fn health(&self, node: NodeId) -> NodeHealth {
        self.nodes[node.index()].health
    }

    /// The cap most recently pushed to a node, if any.
    pub fn last_cap_w(&self, node: NodeId) -> Option<f64> {
        self.nodes[node.index()].last_cap_w
    }

    /// True when fleet-side detection has flagged the node as violating
    /// its cap (see [`Dcm::set_cap_violating`]).
    pub fn cap_violating(&self, node: NodeId) -> bool {
        self.nodes[node.index()].cap_violating
    }

    /// Flag (or clear) a node as violating its power cap despite healthy
    /// management traffic. While flagged, the node is held at
    /// [`NodeHealth::Degraded`] — successful transactions no longer
    /// promote it back to `Healthy` — so budgeting and dashboards see the
    /// misbehaviour. Clearing the flag restores `Healthy` on the next
    /// successful transaction (or immediately, if the hold is the only
    /// thing keeping it degraded).
    pub fn set_cap_violating(&mut self, node: NodeId, violating: bool) {
        let e = &mut self.nodes[node.index()];
        if e.cap_violating == violating {
            return;
        }
        e.cap_violating = violating;
        let old = e.health;
        if violating {
            if matches!(e.health, NodeHealth::Healthy) {
                e.health = NodeHealth::Degraded { consecutive_failures: 0 };
            }
        } else if e.health == (NodeHealth::Degraded { consecutive_failures: 0 }) {
            // Degraded purely by the hold — no real failures outstanding.
            e.health = NodeHealth::Healthy;
        }
        let new = e.health;
        self.note_health_transition(node, old, new);
    }

    /// Handles of all nodes currently participating in budgeting.
    pub fn responsive_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].health.is_responsive())
            .map(NodeId::from_index)
            .collect()
    }

    // ------------------------------------------------------- health plumbing

    fn record_success(&mut self, node: NodeId) {
        let e = &mut self.nodes[node.index()];
        let old = e.health;
        e.consecutive_failures = 0;
        // A cap-violating node is held at Degraded: answering a DCMI
        // command proves the wire works, not that the cap is honoured.
        e.health = if e.cap_violating {
            NodeHealth::Degraded { consecutive_failures: 0 }
        } else {
            NodeHealth::Healthy
        };
        let new = e.health;
        self.note_health_transition(node, old, new);
    }

    fn record_failure(&mut self, node: NodeId) {
        let e = &mut self.nodes[node.index()];
        let old = e.health;
        e.consecutive_failures += 1;
        e.health = if e.consecutive_failures >= self.unresponsive_after.max(1) {
            NodeHealth::Unresponsive
        } else {
            NodeHealth::Degraded { consecutive_failures: e.consecutive_failures }
        };
        let new = e.health;
        self.note_health_transition(node, old, new);
    }

    fn note_health_transition(&mut self, node: NodeId, old: NodeHealth, new: NodeHealth) {
        // Label-level transitions only: Degraded{1}→Degraded{2} is not a
        // state change worth an event.
        if health_label(old) == health_label(new) {
            return;
        }
        self.obs.metrics.inc("dcm.health_transitions");
        self.obs.events.record_for(
            self.obs_now_s,
            Some(node.index() as u32),
            EventKind::HealthChange { from: health_label(old), to: health_label(new) },
        );
    }

    fn wrap_err(&self, node: NodeId, source: IpmiError) -> DcmError {
        DcmError::Ipmi { node, name: self.nodes[node.index()].name.clone(), source }
    }

    // ------------------------------------------------------ absorbing outcomes
    //
    // Every transaction is captured as a [`WireOutcome`] first and absorbed
    // here second. Lock-step fleets capture in per-node maps (own link, own
    // BMC, so outcomes cannot depend on the schedule) and the root absorbs
    // serially in node order; the transactions below capture and absorb
    // back to back. Either way the manager records the same counters,
    // events and health transitions in the same order, so the
    // observability stream is byte-identical whether the fleet ran on one
    // worker or many.

    /// Record one captured outcome into observability and health tracking:
    /// `ipmi.transactions` / `ipmi.attempts` / `ipmi.retries` /
    /// `ipmi.timeouts` counters, a `Retry` event when a command needed
    /// more than one attempt and a `Timeout` event when the budget ran out.
    fn absorb(&mut self, node: NodeId, out: WireOutcome) -> Result<Response, DcmError> {
        self.nodes.get(node.index()).ok_or(DcmError::UnknownNode(node))?;
        if self.obs.is_enabled() {
            let t_s = self.obs_now_s;
            let n = Some(node.index() as u32);
            self.obs.metrics.inc("ipmi.transactions");
            self.obs.metrics.add("ipmi.attempts", out.attempts as u64);
            if out.attempts > 1 {
                self.obs.metrics.add("ipmi.retries", (out.attempts - 1) as u64);
            }
            match &out.result {
                Ok(_) if out.attempts > 1 => {
                    self.obs.events.record_for(t_s, n, EventKind::Retry { attempts: out.attempts });
                }
                Err(e) if e.is_transient() => {
                    self.obs.metrics.inc("ipmi.timeouts");
                    self.obs.events.record_for(
                        t_s,
                        n,
                        EventKind::Timeout { attempts: out.attempts },
                    );
                }
                _ => {}
            }
        }
        match out.result {
            Ok(resp) => {
                self.record_success(node);
                Ok(resp)
            }
            Err(e) => {
                self.record_failure(node);
                Err(self.wrap_err(node, e))
            }
        }
    }

    /// Absorb a captured DCMI *Get Power Reading* poll.
    pub fn absorb_power_poll(
        &mut self,
        node: NodeId,
        out: WireOutcome,
    ) -> Result<PowerReading, DcmError> {
        let resp = self.absorb(node, out)?;
        resp.into_ok().and_then(|p| PowerReading::decode(&p)).map_err(|e| self.wrap_err(node, e))
    }

    /// Absorb a captured Set+Activate cap push (see [`CapPushOutcome`]).
    /// On full success the cap is remembered and counted.
    pub fn absorb_cap_push(
        &mut self,
        node: NodeId,
        watts: f64,
        push: CapPushOutcome,
    ) -> Result<(), DcmError> {
        self.absorb(node, push.set)?.into_ok().map_err(|e| self.wrap_err(node, e))?;
        let activate = push.activate.expect("set succeeded, so activate was issued");
        self.absorb(node, activate)?.into_ok().map_err(|e| self.wrap_err(node, e))?;
        self.nodes[node.index()].last_cap_w = Some(watts);
        self.obs.metrics.inc("dcm.caps_pushed");
        Ok(())
    }

    // ---------------------------------------------------------- transactions

    /// DCMI *Get Power Reading* from one node over `link`.
    pub fn read_power(
        &mut self,
        node: NodeId,
        link: &mut dyn Transact,
    ) -> Result<PowerReading, DcmError> {
        let out = WireOutcome::capture(link, &self.retry, &|seq| GetPowerReading::request(seq));
        self.absorb_power_poll(node, out)
    }

    /// The DCMI limit this manager pushes for a cap of `watts`.
    pub fn limit_for(&self, watts: f64) -> PowerLimit {
        PowerLimit {
            limit_w: watts.round() as u16,
            correction_ms: self.correction_ms,
            sampling_s: 1,
            action: ExceptionAction::LogOnly,
        }
    }

    /// Set and activate a cap on one node over `link`.
    pub fn cap_node(
        &mut self,
        node: NodeId,
        link: &mut dyn Transact,
        watts: f64,
    ) -> Result<(), DcmError> {
        let push = CapPushOutcome::capture(link, &self.retry, self.limit_for(watts));
        self.absorb_cap_push(node, watts, push)
    }

    /// Deactivate a node's cap over `link`.
    pub fn uncap_node(&mut self, node: NodeId, link: &mut dyn Transact) -> Result<(), DcmError> {
        let out = WireOutcome::capture(link, &self.retry, &|seq| {
            ActivatePowerLimit { activate: false }.request(seq)
        });
        self.absorb(node, out)?.into_ok().map_err(|e| self.wrap_err(node, e))?;
        self.nodes[node.index()].last_cap_w = None;
        Ok(())
    }

    /// Read back the limit stored on a node over `link`.
    pub fn node_limit(
        &mut self,
        node: NodeId,
        link: &mut dyn Transact,
    ) -> Result<PowerLimit, DcmError> {
        let out = WireOutcome::capture(link, &self.retry, &|seq| GetPowerLimit::request(seq));
        let resp = self.absorb(node, out)?;
        resp.into_ok().and_then(|p| PowerLimit::decode(&p)).map_err(|e| self.wrap_err(node, e))
    }

    // ------------------------------------------------------- group budgeting

    /// Divide `budget_w` over the nodes in `demand` (pairs of handle and
    /// measured power) per a bare allocation rule: [`Dcm::plan_with`]
    /// over a [`LadderCapPolicy`] wrapping `policy`. A fleet-wide
    /// priority table is projected onto the answering nodes by the
    /// ladder's group half.
    pub fn plan_allocation(
        &self,
        budget_w: f64,
        policy: &AllocationPolicy,
        demand: &[(NodeId, f64)],
    ) -> Vec<(NodeId, f64)> {
        self.plan_with(budget_w, &LadderCapPolicy::with_group(policy.clone()), demand, &[])
    }

    /// The planner: divide `budget_w` over the nodes in `demand` (pairs
    /// of handle and measured power) through `policy`'s group half. Pure
    /// planning — no wire traffic. Returns one `(handle, cap)` per entry
    /// of `demand`, in order.
    ///
    /// Degraded-mode reallocation falls out of the input: callers pass
    /// demand readings only for nodes that answered, so an unresponsive
    /// node's share flows to its responsive peers automatically. The
    /// policy sees fleet-wide node indices alongside the demand, so
    /// identity-keyed schemes project correctly onto a partial answering
    /// set. `tails` carries the per-node p99 completion latency aligned
    /// with `demand`, read from each node's request books; missing
    /// entries count as 0.0, so callers without tails pass an empty
    /// slice.
    pub fn plan_with(
        &self,
        budget_w: f64,
        policy: &dyn CapPolicy,
        demand: &[(NodeId, f64)],
        tails: &[f64],
    ) -> Vec<(NodeId, f64)> {
        let group: Vec<GroupDemand> = demand
            .iter()
            .enumerate()
            .map(|(i, &(id, w))| GroupDemand {
                node: id.index() as u32,
                demand_w: w,
                tail_ms: tails.get(i).copied().unwrap_or(0.0),
            })
            .collect();
        let caps = policy.group_allocate(budget_w, &group, self.floor_w);
        demand.iter().map(|&(id, _)| id).zip(caps).collect()
    }
}

impl Default for Dcm {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsim_cpu::PStateTable;
    use capsim_ipmi::{BmcPort, FaultSpec, LanChannel, ManagerPort, Request};
    use capsim_mem::MemReconfig;
    use capsim_node::bmc::{Bmc, BmcTelemetry};
    use capsim_node::ThrottleLadder;

    /// A link to a standalone BMC reporting a fixed power draw. Each
    /// delivery poll serves the BMC once: the fleet's `PumpedLink`
    /// discipline without a machine behind it.
    struct BmcLink {
        port: ManagerPort,
        /// `None` once the node is unplugged.
        bmc_port: Option<BmcPort>,
        bmc: Bmc,
        patience: u32,
    }

    impl BmcLink {
        fn new((port, bmc_port): (ManagerPort, BmcPort), power_w: f64) -> Self {
            let ladder = ThrottleLadder::e5_2680(&PStateTable::e5_2680(), MemReconfig::full());
            let mut bmc = Bmc::new(ladder);
            bmc.control(BmcTelemetry {
                window_avg_w: power_w,
                run_avg_w: power_w,
                min_w: power_w,
                max_w: power_w,
                die_temp_c: 60.0,
                inlet_temp_c: 27.0,
                ..BmcTelemetry::default()
            });
            BmcLink { port, bmc_port: Some(bmc_port), bmc, patience: 1 }
        }
    }

    impl Transact for BmcLink {
        fn next_seq(&mut self) -> u8 {
            self.port.next_seq()
        }

        fn transact(&mut self, req: &Request) -> Result<Response, IpmiError> {
            let (bmc, bmc_port) = (&mut self.bmc, &self.bmc_port);
            self.port.transact_polled(req, 4 * self.patience, || {
                if let Some(p) = bmc_port {
                    let _ = bmc.serve(p);
                }
            })
        }

        fn set_patience(&mut self, factor: u32) {
            self.patience = factor.max(1);
        }
    }

    #[test]
    fn manager_reads_power_and_pushes_caps_over_ipmi() {
        let mut dcm = Dcm::new();
        let mut links = Vec::new();
        let mut ids = Vec::new();
        for (i, w) in [150.0, 130.0].into_iter().enumerate() {
            ids.push(dcm.register(format!("node{i}")));
            links.push(BmcLink::new(LanChannel::pair(), w));
        }
        let mut demand = Vec::new();
        for (&id, link) in ids.iter().zip(&mut links) {
            demand.push((id, dcm.read_power(id, link).unwrap().current_w as f64));
        }
        assert_eq!(demand[0].1, 150.0);
        let caps = dcm.plan_allocation(300.0, &AllocationPolicy::ProportionalToDemand, &demand);
        for (&(id, cap), link) in caps.iter().zip(&mut links) {
            dcm.cap_node(id, link, cap).unwrap();
        }
        assert_eq!(caps.len(), 2);
        assert!(caps[0].1 > caps[1].1);
        // The cap is stored and active on the node, and remembered.
        let limit = dcm.node_limit(ids[0], &mut links[0]).unwrap();
        assert_eq!(limit.limit_w, caps[0].1.round() as u16);
        assert_eq!(dcm.last_cap_w(ids[0]), Some(caps[0].1));
        assert_eq!(dcm.health(ids[0]), NodeHealth::Healthy);
        for link in &links {
            assert!(link.bmc.cap().is_some(), "cap active after group budgeting");
        }
    }

    #[test]
    fn uncap_deactivates() {
        let mut link = BmcLink::new(LanChannel::pair(), 150.0);
        let mut dcm = Dcm::new();
        let id = dcm.register("n");
        dcm.cap_node(id, &mut link, 140.0).unwrap();
        dcm.uncap_node(id, &mut link).unwrap();
        assert_eq!(dcm.last_cap_w(id), None);
        assert!(link.bmc.cap().is_none());
    }

    #[test]
    fn dead_node_surfaces_channel_errors_with_identity() {
        let mut link = BmcLink::new(LanChannel::pair(), 150.0);
        link.bmc_port = None; // unplug the node's NIC
        let mut dcm = Dcm::new();
        let id = dcm.register("ghost");
        let err = dcm.read_power(id, &mut link).unwrap_err();
        assert_eq!(err.node(), id);
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn repeated_failures_degrade_then_mark_unresponsive() {
        let mut dcm = Dcm::new();
        dcm.retry = RetryPolicy::once();
        let mut link = BmcLink::new(LanChannel::faulty_pair(FaultSpec::dead(), 1), 150.0);
        let id = dcm.register("flaky");
        assert!(dcm.read_power(id, &mut link).is_err());
        assert_eq!(dcm.health(id), NodeHealth::Degraded { consecutive_failures: 1 });
        assert!(dcm.read_power(id, &mut link).is_err());
        assert!(dcm.read_power(id, &mut link).is_err());
        assert_eq!(dcm.health(id), NodeHealth::Unresponsive);
        assert!(dcm.responsive_nodes().is_empty());
    }

    #[test]
    fn plan_allocation_reallocates_around_missing_nodes() {
        let mut dcm = Dcm::new();
        let a = dcm.register("a");
        let b = dcm.register("b");
        let c = dcm.register("c");
        // Node b did not answer this round: its share flows to a and c.
        let caps =
            dcm.plan_allocation(400.0, &AllocationPolicy::Uniform, &[(a, 150.0), (c, 150.0)]);
        assert_eq!(caps.len(), 2);
        assert_eq!(caps[0], (a, 200.0));
        assert_eq!(caps[1], (c, 200.0));
        let _ = b;
    }

    #[test]
    fn plan_allocation_projects_priorities_onto_answering_nodes() {
        let mut dcm = Dcm::new();
        let a = dcm.register("a");
        let b = dcm.register("b");
        let c = dcm.register("c");
        let _ = a;
        // Only b (priority 0) and c (priority 2) answered.
        let caps = dcm.plan_allocation(
            400.0,
            &AllocationPolicy::Priority(vec![1, 0, 2]),
            &[(b, 155.0), (c, 155.0)],
        );
        let cap_b = caps.iter().find(|&&(id, _)| id == b).unwrap().1;
        let cap_c = caps.iter().find(|&&(id, _)| id == c).unwrap().1;
        assert!(cap_b > cap_c, "higher priority gets more: {cap_b} vs {cap_c}");
    }

    #[test]
    fn cap_violating_nodes_are_held_degraded_until_cleared() {
        let mut link = BmcLink::new(LanChannel::pair(), 150.0);
        let mut dcm = Dcm::new();
        let id = dcm.register("violator");

        dcm.set_cap_violating(id, true);
        assert!(dcm.cap_violating(id));
        assert_eq!(dcm.health(id), NodeHealth::Degraded { consecutive_failures: 0 });
        // A successful transaction must NOT promote the node back.
        dcm.read_power(id, &mut link).unwrap();
        assert_eq!(dcm.health(id), NodeHealth::Degraded { consecutive_failures: 0 });
        // Still responsive: a violating node keeps its budget share (it
        // needs the cap pushed at it, after all), it is just not Healthy.
        assert_eq!(dcm.responsive_nodes(), vec![id]);

        dcm.set_cap_violating(id, false);
        assert!(!dcm.cap_violating(id));
        assert_eq!(dcm.health(id), NodeHealth::Healthy);
        dcm.read_power(id, &mut link).unwrap();
        assert_eq!(dcm.health(id), NodeHealth::Healthy);
    }
}
