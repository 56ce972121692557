//! The fleet engine: N simulated nodes stepped in lock-step simulated
//! time under one DCM budget loop.
//!
//! A control epoch runs as two wire phases bracketing serial root
//! decisions. Each wire phase is one map over the nodes, fanned out over
//! the worker pool when the fleet is parallel:
//!
//! 1. **Poll phase** (per node) — step the node by `epoch_s`, then poll
//!    its power over IPMI. The map does *wire work only*: it captures
//!    every transaction as a [`WireOutcome`] and hands the outcomes up
//!    undecoded, recording nothing itself.
//! 2. **Root barrier** (serial) — the root absorbs the captured
//!    outcomes in node order (replaying retry/timeout observability and
//!    health transitions exactly as a serial manager would have, and
//!    decoding each reading once), runs fleet-side violation detection,
//!    and plans the budget over the nodes that answered through the
//!    fleet's [`CapPolicy`] — the only planner (default:
//!    [`LadderCapPolicy`] over a uniform split).
//! 3. **Push phase** (per node) — push the planned caps (DCMI *Set* +
//!    *Activate*), again capturing outcomes.
//! 4. **Root barrier** (serial) — outcomes absorbed in node order; the
//!    epoch record and barrier events are emitted.
//!
//! Serial per-epoch work at the root is a lean sweep over
//! struct-of-arrays control state (`FleetCtrl`); the expensive part —
//! stepping nodes, pumping links, burning retry budgets against lossy
//! links ([`FaultSpec`]) — runs in the per-node maps.
//!
//! **Determinism contract:** per-node transactions touch only that
//! node's link and BMC, and the root absorbs outcomes in registration
//! order, so serial and parallel runs, at any worker count, produce
//! byte-equal reports and observability streams. The allocation rules
//! are written in partition-invariant closed form (see
//! `capsim_policy::allocate`) so the root's plan also cannot depend on
//! how demand was gathered.
//!
//! Two elisions keep quiescent fleets cheap, both decided from per-node
//! state that no schedule can change: a poll is skipped when the root's cached reading is
//! provably what the BMC would answer again
//! ([`capsim_node::bmc::Bmc::poll_would_repeat`]), and a cap push is
//! skipped when the planned cap is bit-identical to the cap already in
//! effect. Skips are counted (`fleet.polls_skipped`,
//! `fleet.cap_pushes_skipped`).
//!
//! Because the manager cannot block on a node that lives on the same
//! thread, wire traffic flows through [`PumpedLink`]: each delivery poll
//! services the node's BMC, so request, firmware handling and response
//! all happen inside the barrier, in deterministic order. Its poll-counted
//! wait, [`ManagerPort::transact_polled`], is the only way a manager waits
//! for a BMC.

use capsim_ipmi::sel::SelEntry;
use capsim_ipmi::{
    splitmix64, FaultSpec, FaultStats, GetPowerReading, IpmiError, LanChannel, ManagerPort,
    PowerLimit, Request, Response, RetryPolicy, Transact, WireOutcome,
};
use capsim_node::workload::traffic_keys;
use capsim_node::{EpochWorkload, Machine, MachineConfig, QueueRoom, RunStats, ThrottleLadder};
use capsim_obs::{
    events_to_csv, events_to_jsonl, merge_streams, Event, EventKind, MetricsSnapshot,
};
use capsim_policy::{CapPolicy, LadderCapPolicy};
use rayon::prelude::*;

use crate::manager::{CapPushOutcome, Dcm, NodeHealth, NodeId};
use crate::monitor::{read_sel, violation_count};

/// Bucket upper edges (watts) for the per-node power histogram sampled at
/// every barrier. Centered on the paper's 95–170 W measurement band.
static FLEET_POWER_BOUNDS: [f64; 8] = [110.0, 120.0, 125.0, 130.0, 135.0, 140.0, 150.0, 160.0];

/// A [`Transact`] link for lock-step topologies: the manager and the node
/// live on the same thread, so instead of blocking on the wire, each
/// delivery poll of [`ManagerPort::transact_polled`] pumps the node's BMC
/// service loop. Wait budgets are counted in polls, not wall-clock time —
/// transactions are fully deterministic.
pub struct PumpedLink<'a> {
    port: &'a mut ManagerPort,
    machine: &'a mut Machine,
    polls_per_attempt: u32,
    patience: u32,
}

impl<'a> PumpedLink<'a> {
    pub fn new(
        port: &'a mut ManagerPort,
        machine: &'a mut Machine,
        polls_per_attempt: u32,
    ) -> Self {
        PumpedLink { port, machine, polls_per_attempt: polls_per_attempt.max(1), patience: 1 }
    }
}

impl Transact for PumpedLink<'_> {
    fn next_seq(&mut self) -> u8 {
        self.port.next_seq()
    }

    fn transact(&mut self, req: &Request) -> Result<Response, IpmiError> {
        let polls = self.polls_per_attempt.saturating_mul(self.patience);
        self.port.transact_polled(req, polls, || self.machine.service_bmc())
    }

    fn set_patience(&mut self, factor: u32) {
        self.patience = factor.max(1);
    }
}

// Workload construction lives in capsim-node's `workload` module (so the
// chaos and traffic layers can build workloads without depending on the
// fleet engine); `benchmark/` imports `capsim_dcm::WorkloadSpec` from
// this re-export.
pub use capsim_node::workload::{LoadKind, SyntheticLoad, WorkloadSpec};

/// Wait budget per IPMI attempt, in BMC polls (scaled by the retry
/// policy's patience schedule).
const POLLS_PER_ATTEMPT: u32 = 16;

/// Per-stream event ring capacity of an observed fleet.
const OBS_EVENT_CAPACITY: usize = 4096;

/// Consecutive failed polls that open a node's failover breaker.
const BREAKER_TRIP_AFTER: u32 = 2;

/// Barriers an open breaker waits before going half-open.
const BREAKER_COOLDOWN: u32 = 2;

struct SimNode {
    id: NodeId,
    port: ManagerPort,
    machine: Machine,
    load: Box<dyn EpochWorkload>,
}

impl SimNode {
    /// The node's management link, pumping its own BMC.
    fn link(&mut self) -> PumpedLink<'_> {
        PumpedLink::new(&mut self.port, &mut self.machine, POLLS_PER_ATTEMPT)
    }
}

/// One node's slot in the poll phase.
enum PollOutcome {
    /// The root's cached reading is provably current; no wire traffic.
    Skipped,
    /// A captured wire transaction for the root to absorb.
    Polled(WireOutcome),
}

/// Poll phase for one node: step it by `epoch_s`, then gather demand.
/// `skip_ok` is the root's clearance to use the cached reading if — and
/// only if — the BMC agrees a fresh poll would repeat itself. Touches only
/// this node's machine, link and BMC, and records nothing.
fn poll_node(n: &mut SimNode, epoch_s: f64, skip_ok: bool, retry: &RetryPolicy) -> PollOutcome {
    n.machine.step(epoch_s, n.load.as_mut());
    if skip_ok && n.machine.bmc_poll_would_repeat() {
        return PollOutcome::Skipped;
    }
    PollOutcome::Polled(WireOutcome::capture(&mut n.link(), retry, &|seq| {
        GetPowerReading::request(seq)
    }))
}

/// Per-node circuit-breaker state at the fleet barrier. Breakers guard
/// *failover routing only*: an `Open` breaker removes the node from the
/// re-offer heap, `HalfOpen` re-admits it for a single probe request
/// after the cooldown, and a clean barrier closes it again. The state
/// machine is driven purely by control state (poll-timeout and
/// cap-violation streaks) in the serial root section, so observability
/// can never perturb routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation: the node is a failover target.
    Closed,
    /// Tripped: no failover work until epoch `until`.
    Open { until: u32 },
    /// Cooldown expired: admit one probe request; the next barrier
    /// decides between `Closed` (clean) and `Open` (still failing).
    HalfOpen,
}

impl BreakerState {
    /// Stable wire/event name.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Root-side per-node control state as struct-of-arrays: the hot data
/// the serial barrier sweeps every epoch, kept in parallel `Vec`s
/// indexed by registration order instead of scattered across node
/// objects. Scratch columns (`can_skip`, `planned`) are retained across
/// epochs so the steady-state barrier allocates nothing.
struct FleetCtrl {
    /// Last successfully decoded power reading (whole watts).
    demand_w: Vec<f64>,
    /// `demand_w[i]` holds a real reading (at least one poll succeeded).
    demand_valid: Vec<bool>,
    /// The most recent poll attempt succeeded (a failure forces a fresh
    /// poll until one succeeds again — after a lost response the cache
    /// can no longer be proven equal to what the BMC last answered).
    poll_ok: Vec<bool>,
    /// The most recent cap push fully succeeded (Set and Activate). A
    /// half-applied push leaves the BMC on a cap the manager never
    /// confirmed, so only a fully clean push may be elided later.
    push_ok: Vec<bool>,
    /// Fleet-side cap-violation streaks (epochs over cap + margin).
    viol_streak: Vec<u32>,
    /// Consecutive barriers whose poll attempt failed (reset on any
    /// successful or elided poll). Feeds the circuit breakers.
    timeout_streak: Vec<u32>,
    /// Per-node failover circuit breakers (only ticked for fleets that
    /// actually route failover work).
    breaker: Vec<BreakerState>,
    /// Scratch: root clearance for the poll fast path this epoch.
    can_skip: Vec<bool>,
    /// Scratch: planned wire pushes this epoch.
    planned: Vec<Option<PowerLimit>>,
}

impl FleetCtrl {
    fn new(n: usize) -> FleetCtrl {
        FleetCtrl {
            demand_w: vec![0.0; n],
            demand_valid: vec![false; n],
            poll_ok: vec![false; n],
            push_ok: vec![false; n],
            viol_streak: vec![0; n],
            timeout_streak: vec![0; n],
            breaker: vec![BreakerState::Closed; n],
            can_skip: vec![false; n],
            planned: vec![None; n],
        }
    }
}

/// One barrier's worth of fleet-level observations.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochRecord {
    pub epoch: u32,
    /// Nodes that answered the power poll this epoch.
    pub answered: usize,
    /// Nodes currently marked unresponsive.
    pub unresponsive: usize,
    /// Sum of measured power over answering nodes.
    pub fleet_power_w: f64,
    /// Per-node power readings this epoch (node registration index,
    /// watts) — the chaos harness checks cap compliance against these.
    pub readings: Vec<(u32, f64)>,
    /// Caps in effect after this epoch's push (node registration index,
    /// watts): every cap pushed this epoch plus every elided one, whose
    /// value the node was already enforcing. Unplanned nodes and failed
    /// pushes are absent.
    pub caps: Vec<(u32, f64)>,
}

/// Final per-node summary.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSummary {
    pub index: u32,
    pub name: String,
    pub health: NodeHealth,
    pub final_cap_w: Option<f64>,
    pub avg_power_w: f64,
    pub avg_freq_mhz: f64,
    pub energy_j: f64,
    pub wall_s: f64,
    /// Cap violations recorded in the node's SEL, audited over IPMI at
    /// the end of the run (0 if the audit itself failed).
    pub sel_violations: usize,
}

/// Merged observability for a whole fleet run: the manager's metrics
/// absorbed with every node's, and all event streams merged into one
/// totally ordered, deterministic sequence (simulated time, then stream,
/// then per-stream sequence).
#[derive(Clone, Debug, PartialEq)]
pub struct FleetObs {
    /// Manager + per-node series, counters and buckets summed.
    pub metrics: MetricsSnapshot,
    /// All events, node-tagged, in total order.
    pub events: Vec<Event>,
}

impl FleetObs {
    /// JSONL export — same seed, same bytes, serial or parallel.
    pub fn events_jsonl(&self) -> String {
        events_to_jsonl(self.events.iter())
    }

    /// CSV export with a header row.
    pub fn events_csv(&self) -> String {
        events_to_csv(self.events.iter())
    }
}

/// The result of a fleet run. [`FleetReport::render`] produces a stable
/// textual form — the determinism contract is that a parallel run renders
/// byte-identically to a serial run of the same configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetReport {
    pub nodes: usize,
    /// Epochs actually stepped: fewer than configured when the fleet was
    /// finished early.
    pub epochs: u32,
    pub epoch_s: f64,
    pub budget_w: f64,
    pub records: Vec<EpochRecord>,
    pub summaries: Vec<NodeSummary>,
    /// Every node's request books, summed in node order (empty for batch
    /// fleets); recorded with observability on or off.
    pub serving: MetricsSnapshot,
    /// Failover circuit-breaker transitions at the fleet barrier over the
    /// whole run, counted on control state with observability on or off.
    pub breaker_transitions: u64,
    /// Present when the fleet was built with [`FleetBuilder::observe`].
    pub obs: Option<FleetObs>,
}

impl FleetReport {
    /// Stable textual rendering (f64s print via Rust's shortest-roundtrip
    /// formatter, so equal states render to equal bytes).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fleet nodes={} epochs={} epoch_s={} budget_w={}",
            self.nodes, self.epochs, self.epoch_s, self.budget_w
        );
        for r in &self.records {
            let cap_sum: f64 = r.caps.iter().map(|&(_, w)| w).sum();
            let _ = writeln!(
                s,
                "epoch {} answered={} unresponsive={} fleet_w={} caps={} cap_sum={}",
                r.epoch,
                r.answered,
                r.unresponsive,
                r.fleet_power_w,
                r.caps.len(),
                cap_sum
            );
        }
        for n in &self.summaries {
            let _ = writeln!(
                s,
                "node {} {} health={:?} cap={:?} avg_w={} freq_mhz={} energy_j={} wall_s={} viol={}",
                n.index,
                n.name,
                n.health,
                n.final_cap_w,
                n.avg_power_w,
                n.avg_freq_mhz,
                n.energy_j,
                n.wall_s,
                n.sel_violations
            );
        }
        s
    }

    /// Nodes still healthy/degraded at the end of the run.
    pub fn responsive(&self) -> usize {
        self.summaries.iter().filter(|n| n.health.is_responsive()).count()
    }

    /// Whole-fleet energy accounting, folded from the per-node summaries.
    /// Always available — energy is metered ground truth, not telemetry.
    pub fn energy(&self) -> EnergySummary {
        let energy_j: f64 = self.summaries.iter().map(|s| s.energy_j).sum();
        let node_s: f64 = self.summaries.iter().map(|s| s.wall_s).sum();
        let wall_s = self.summaries.iter().map(|s| s.wall_s).fold(0.0, f64::max);
        EnergySummary {
            energy_j,
            wall_s,
            avg_node_power_w: if node_s > 0.0 { energy_j / node_s } else { 0.0 },
        }
    }

    /// Latency/goodput accounting for request-serving runs, read from
    /// [`FleetReport::serving`]. `Some` when a traffic workload recorded
    /// arrivals, whether or not the fleet was observed; `None` for
    /// batch-kernel fleets.
    pub fn traffic(&self) -> Option<TrafficSummary> {
        use capsim_node::workload::traffic_keys as keys;
        let m = &self.serving;
        let arrivals = m.counter(keys::ARRIVALS);
        if arrivals == 0 {
            return None;
        }
        let completed = m.counter(keys::COMPLETED);
        let (mean_ms, p50_ms, p99_ms, p999_ms) = match m.hist(keys::LATENCY_MS) {
            Some(h) => (h.mean(), h.quantile(0.50), h.quantile(0.99), h.quantile(0.999)),
            None => (0.0, 0.0, 0.0, 0.0),
        };
        let horizon_s = self.epochs as f64 * self.epoch_s;
        Some(TrafficSummary {
            arrivals,
            completed,
            shed: m.counter(keys::SHED),
            slo_violations: m.counter(keys::SLO_VIOLATIONS),
            retries: m.counter(keys::RETRIES),
            client_timeouts: m.counter(keys::CLIENT_TIMEOUTS),
            failover: m.counter(keys::FAILOVER_IN),
            in_flight: m.counter(keys::IN_FLIGHT),
            mean_ms,
            p50_ms,
            p99_ms,
            p999_ms,
            goodput_rps: if horizon_s > 0.0 { completed as f64 / horizon_s } else { 0.0 },
        })
    }

    /// The power-emergency headline metric: SLO violations per joule of
    /// fleet energy — how much service pain each unit of spent energy
    /// bought under the active capping policy. `None` for non-traffic
    /// runs or zero-energy fleets.
    pub fn slo_violations_per_joule(&self) -> Option<f64> {
        let t = self.traffic()?;
        let e = self.energy().energy_j;
        (e > 0.0).then(|| t.slo_violations as f64 / e)
    }

    /// Per-priority-class request accounting. `Some` exactly when
    /// [`FleetReport::traffic`] is (batch fleets return `None`); each
    /// class balances its own books:
    /// `arrivals[c] == completed[c] + shed[c] + in_flight[c]`.
    pub fn priority(&self) -> Option<PriorityTraffic> {
        self.traffic()?;
        let m = &self.serving;
        let col = |names: &[&'static str; traffic_keys::CLASSES]| {
            let mut out = [0u64; traffic_keys::CLASSES];
            for (o, name) in out.iter_mut().zip(names) {
                *o = m.counter(name);
            }
            out
        };
        Some(PriorityTraffic {
            arrivals: col(&traffic_keys::ARRIVALS_BY_CLASS),
            completed: col(&traffic_keys::COMPLETED_BY_CLASS),
            shed: col(&traffic_keys::SHED_BY_CLASS),
            in_flight: col(&traffic_keys::IN_FLIGHT_BY_CLASS),
            brownout_shed: m.counter(traffic_keys::BROWNOUT_SHED),
        })
    }

    /// Final AIMD offered-rate multiplier, merged across nodes. Gauges
    /// merge by max, so this is the *least backed-off* client population
    /// — the fleet-wide ceiling on offered rate. `None` for batch fleets
    /// or when no client population ran an AIMD controller.
    pub fn final_rate_multiplier(&self) -> Option<f64> {
        self.traffic()?;
        self.serving.gauge(traffic_keys::RATE_MULTIPLIER)
    }

    /// Circuit-breaker transitions at the fleet barrier over the whole
    /// run. `None` for batch fleets (mirroring [`FleetReport::traffic`]).
    /// Zero means no breaker moved.
    pub fn breaker_transitions(&self) -> Option<u64> {
        self.traffic()?;
        Some(self.breaker_transitions)
    }
}

/// Per-priority-class fleet accounting, read from the summed request
/// books' `traffic.*_p<class>` series. Class 0 is most critical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PriorityTraffic {
    /// Requests offered per class (admitted + shed, retries included).
    pub arrivals: [u64; traffic_keys::CLASSES],
    /// Requests fully served per class.
    pub completed: [u64; traffic_keys::CLASSES],
    /// Requests dropped per class (queue overflow, failover leftovers
    /// and brownout sheds).
    pub shed: [u64; traffic_keys::CLASSES],
    /// Requests still queued at the end of the run, per class.
    pub in_flight: [u64; traffic_keys::CLASSES],
    /// The subset of sheds caused by the brownout admission gate.
    pub brownout_shed: u64,
}

/// Fleet-level energy totals, derived from [`NodeSummary`] ground truth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergySummary {
    /// Total metered energy across every node, joules.
    pub energy_j: f64,
    /// Longest per-node wall time (the fleet's simulated makespan).
    pub wall_s: f64,
    /// Mean per-node power: total energy over total node-seconds.
    pub avg_node_power_w: f64,
}

/// Fleet-level request-serving summary, read from the summed request
/// books' `traffic.*` series (see
/// [`capsim_node::workload::traffic_keys`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficSummary {
    /// Requests offered fleet-wide (admitted + shed).
    pub arrivals: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Requests dropped at full queues.
    pub shed: u64,
    /// Completions that missed the SLO latency threshold.
    pub slo_violations: u64,
    /// Client retry attempts that re-entered the arrival stream
    /// (closed-loop runs only; each also counts in `arrivals`).
    pub retries: u64,
    /// Completions slower than the client timeout.
    pub client_timeouts: u64,
    /// Requests re-homed onto another node by barrier failover.
    pub failover: u64,
    /// Requests still queued when the run ended. With these four the
    /// fleet-wide books close exactly:
    /// `arrivals == completed + shed + in_flight`.
    pub in_flight: u64,
    /// Mean completion latency, milliseconds.
    pub mean_ms: f64,
    /// Median completion latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile completion latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile completion latency, milliseconds.
    pub p999_ms: f64,
    /// Completions per simulated second over the stepped horizon.
    pub goodput_rps: f64,
}

/// Fluent constructor for a [`Fleet`].
pub struct FleetBuilder {
    nodes: usize,
    epochs: u32,
    epoch_s: f64,
    budget_w: Option<f64>,
    policy: Box<dyn CapPolicy>,
    faults: FaultSpec,
    seed: u64,
    parallel: bool,
    base: MachineConfig,
    dead: Vec<usize>,
    observe: bool,
    workload: WorkloadSpec,
    violation_margin_w: f64,
    violation_after: u32,
}

impl FleetBuilder {
    pub fn new() -> Self {
        // Small fast-control machines: fleet runs exercise the *group*
        // control loop, so per-node microarchitectural fidelity is traded
        // for epoch turnaround.
        let mut base = MachineConfig::tiny(0);
        base.control_period_us = 10.0;
        base.meter_window_s = 0.0002;
        // Lock-step topology: manager traffic only arrives at epoch
        // barriers, so quiescent idle spans may fast-forward.
        base.idle_skip = true;
        FleetBuilder {
            nodes: 8,
            epochs: 6,
            epoch_s: 5e-4,
            budget_w: None,
            policy: Box::new(LadderCapPolicy::new()),
            faults: FaultSpec::none(),
            seed: 0,
            parallel: true,
            base,
            dead: Vec::new(),
            observe: false,
            workload: WorkloadSpec::RoundRobin,
            violation_margin_w: 10.0,
            violation_after: 3,
        }
    }

    /// Number of nodes in the group.
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Number of control epochs to run.
    pub fn epochs(mut self, e: u32) -> Self {
        self.epochs = e;
        self
    }

    /// Simulated seconds per epoch (the DCM reallocation period).
    pub fn epoch_s(mut self, s: f64) -> Self {
        self.epoch_s = s;
        self
    }

    /// Total group budget in watts (default: 135 W per node).
    pub fn budget_w(mut self, w: f64) -> Self {
        self.budget_w = Some(w);
        self
    }

    /// The capping policy, spanning both layers: every node's BMC gets a
    /// per-node clone (reseeded from the fleet seed) for its control
    /// loop, and the root plans every group budget through the policy's
    /// group half. Default: [`LadderCapPolicy::new`], the ladder walk over
    /// a uniform split; `CapPolicySpec::Ladder(rule).build()` picks another
    /// allocation rule.
    pub fn cap_policy(mut self, policy: Box<dyn CapPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Fault model for every node's management link.
    pub fn faults(mut self, f: FaultSpec) -> Self {
        self.faults = f;
        self
    }

    /// Fleet seed (per-node machine and fault seeds derive from it).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Step nodes across worker threads (true, the default) or serially
    /// on the caller's thread. Both produce bit-identical reports.
    pub fn parallel(mut self, p: bool) -> Self {
        self.parallel = p;
        self
    }

    /// Machine template for every node (per-node seeds still derive from
    /// the fleet seed).
    pub fn machine(mut self, cfg: MachineConfig) -> Self {
        self.base = cfg;
        self
    }

    /// Make one node's management link a black hole (its BMC never hears
    /// the manager) — the degraded-fleet scenario.
    pub fn dead_node(mut self, index: usize) -> Self {
        self.dead.push(index);
        self
    }

    /// Record metrics and a typed event log during the run (default off —
    /// observability must be asked for, so unobserved runs pay only a
    /// branch per site). The report then carries [`FleetObs`].
    pub fn observe(mut self, on: bool) -> Self {
        self.observe = on;
        self
    }

    /// Select the workload every node is built with. The default is
    /// [`WorkloadSpec::RoundRobin`]; [`WorkloadSpec::Custom`] plugs in
    /// external generators like capsim-traffic's request queues.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = spec;
        self
    }

    /// Tune the fleet-side cap-violation detector: a node whose measured
    /// power exceeds its last pushed cap by more than `margin_w` for
    /// `epochs` consecutive barriers is flagged via
    /// [`Dcm::set_cap_violating`] and held at `Degraded` until it
    /// recovers. Defaults: 10 W over, 3 epochs.
    pub fn violation_detector(mut self, margin_w: f64, epochs: u32) -> Self {
        self.violation_margin_w = margin_w;
        self.violation_after = epochs.max(1);
        self
    }

    /// Build the fleet: per-node machines (seeded from the fleet seed),
    /// management links (faulty if configured) and the DCM registry.
    pub fn build(self) -> Fleet {
        assert!(self.nodes > 0, "a fleet needs nodes");
        let mut dcm = Dcm::new();
        if self.observe {
            dcm.obs = capsim_obs::Obs::enabled(OBS_EVENT_CAPACITY);
        }
        // One ladder for the whole fleet: node configs differ only in their
        // seed, which the ladder does not read, so each clone (sharing the
        // rungs) is the ladder `Machine::new` would have built per node.
        let ladder = ThrottleLadder::e5_2680(&self.base.pstates, self.base.full_mem());
        let mut nodes = Vec::with_capacity(self.nodes);
        for i in 0..self.nodes {
            let node_seed = mix(self.seed, i as u64);
            let spec = if self.dead.contains(&i) { FaultSpec::dead() } else { self.faults };
            let (port, bmc_port) = if spec.is_clean() {
                LanChannel::pair()
            } else {
                LanChannel::faulty_pair(spec, mix(node_seed, 0xfa01_c0de))
            };
            let mut cfg = self.base.clone();
            cfg.seed = node_seed;
            let mut machine = Machine::with_ladder(cfg, ladder.clone());
            if self.observe {
                machine.enable_obs(OBS_EVENT_CAPACITY);
            }
            machine.attach_bmc_port(bmc_port);
            // Per-node instance with its own random stream, derived from
            // the node seed so replays stay byte-identical.
            let mut policy = self.policy.clone_box();
            policy.reseed(mix(node_seed, 0xca9_0110));
            machine.set_cap_policy(policy);
            // Per-node workload seed, distinct from the fault and policy
            // streams so custom generators can't alias either.
            let load = self.workload.build_for(&mut machine, i, mix(node_seed, 0x10ad_5eed));
            let id = dcm.register(format!("n{i:04}"));
            nodes.push(SimNode { id, port, machine, load });
        }
        Fleet {
            epochs: self.epochs,
            epoch_s: self.epoch_s,
            budget_w: self.budget_w.unwrap_or(135.0 * self.nodes as f64),
            policy: self.policy,
            parallel: self.parallel,
            violation_margin_w: self.violation_margin_w,
            violation_after: self.violation_after,
            ctrl: FleetCtrl::new(nodes.len()),
            breaker_transitions: 0,
            records: Vec::with_capacity(self.epochs as usize),
            dcm,
            nodes,
        }
    }
}

impl Default for FleetBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-node seed derivation: the workspace-wide splitmix64 scheme, shared
/// with the transport's per-link fault seeds so every seed in a fleet
/// descends from the one fleet seed through the same mixer.
fn mix(seed: u64, salt: u64) -> u64 {
    splitmix64(seed, salt)
}

/// The assembled fleet, ready to run.
pub struct Fleet {
    epochs: u32,
    epoch_s: f64,
    budget_w: f64,
    /// The fleet's planner; each node's BMC holds its own clone.
    policy: Box<dyn CapPolicy>,
    parallel: bool,
    violation_margin_w: f64,
    violation_after: u32,
    ctrl: FleetCtrl,
    /// Breaker transitions so far (see [`FleetReport::breaker_transitions`]).
    breaker_transitions: u64,
    /// One record per epoch stepped, so its length is the epoch count.
    records: Vec<EpochRecord>,
    dcm: Dcm,
    nodes: Vec<SimNode>,
}

impl Fleet {
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Epochs stepped so far.
    pub fn epochs_run(&self) -> u32 {
        self.records.len() as u32
    }

    /// Configured epoch length in simulated seconds.
    pub fn epoch_s(&self) -> f64 {
        self.epoch_s
    }

    /// Configured number of epochs ([`Fleet::run`] steps this many).
    pub fn epochs(&self) -> u32 {
        self.epochs
    }

    /// The manager (health, last caps, obs).
    pub fn dcm(&self) -> &Dcm {
        &self.dcm
    }

    /// A node's machine, by registration index. The chaos harness uses
    /// this between epochs to inject sensor faults, crash the BMC or
    /// inspect ground-truth energy accounting.
    pub fn machine(&self, index: usize) -> &Machine {
        &self.nodes[index].machine
    }

    /// Mutable access to a node's machine (fault injection between
    /// epochs).
    pub fn machine_mut(&mut self, index: usize) -> &mut Machine {
        &mut self.nodes[index].machine
    }

    /// A node's installed cap policy, by registration index. The RL
    /// trainer uses this after a run to harvest per-node Q-tables (via
    /// [`CapPolicy::as_any`] downcasts).
    pub fn node_policy(&self, index: usize) -> &dyn CapPolicy {
        self.nodes[index].machine.cap_policy()
    }

    /// Epoch records accumulated so far.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Read a node's full SEL over its pumped management link (the same
    /// path the end-of-run audit uses), without updating DCM health.
    pub fn read_node_sel(&mut self, index: usize) -> Result<Vec<SelEntry>, IpmiError> {
        read_sel(&mut self.nodes[index].link(), &self.dcm.retry)
    }

    /// Advance the whole fleet by one epoch (parallel poll phase, serial
    /// root barrier, parallel push phase) and return the barrier's
    /// record. [`Fleet::run`] is a loop over this; the chaos harness
    /// calls it directly so it can inject faults at epoch boundaries.
    pub fn step_epoch(&mut self) -> &EpochRecord {
        let rec = self.run_epoch(self.epochs_run());
        self.records.push(rec);
        self.records.last().expect("just pushed")
    }

    /// Run the configured number of epochs and summarize.
    pub fn run(mut self) -> FleetReport {
        for _ in 0..self.epochs {
            self.step_epoch();
        }
        self.finish()
    }

    /// One epoch of the fleet engine.
    ///
    /// * **Poll phase (one map over nodes).** Each node is stepped by one
    ///   epoch of simulated time and its demand gathered — polled over
    ///   the wire, or the poll skipped when the root's cached reading is
    ///   provably what the BMC would answer. The map touches only each
    ///   node's own state and records nothing.
    /// * **Root barrier (serial).** The root absorbs the captured wire
    ///   outcomes in registration order (so health bookkeeping, metrics
    ///   and events are byte-identical to a serial run), detects cap
    ///   violations, reallocates the budget through the fleet's
    ///   [`CapPolicy`] (recording a `policy_plan` event when observed)
    ///   and plans the pushes — eliding any push whose cap is already
    ///   confirmed in effect.
    /// * **Push phase (one map over nodes).** The planned caps are
    ///   pushed; the root absorbs the outcomes in order.
    ///
    /// All cross-node decisions live in the serial root sections and
    /// every per-node wire exchange uses only that node's own link and
    /// BMC, which is why neither `parallel` nor the worker count can
    /// change any result.
    fn run_epoch(&mut self, epoch: u32) -> EpochRecord {
        // All nodes sit at the same simulated instant at the barrier;
        // stamp manager-side events with it (deterministic: derived from
        // the epoch schedule, not any node's exact overshoot).
        let barrier_t_s = (epoch as f64 + 1.0) * self.epoch_s;
        self.dcm.set_obs_time_s(barrier_t_s);
        let observe = self.dcm.obs.is_enabled();
        let n = self.nodes.len();

        // Root clearance for the poll fast path: the cached reading is
        // reusable only if the most recent poll succeeded — after a lost
        // response the BMC may have answered a poll the root never saw.
        for i in 0..n {
            self.ctrl.can_skip[i] = self.ctrl.poll_ok[i] && self.ctrl.demand_valid[i];
        }

        // Poll phase: one map over the nodes.
        let (epoch_s, retry) = (self.epoch_s, self.dcm.retry);
        let poll = |(n, &skip_ok): (&mut SimNode, &bool)| poll_node(n, epoch_s, skip_ok, &retry);
        let work = self.nodes.iter_mut().zip(&self.ctrl.can_skip);
        let outcomes: Vec<PollOutcome> = if self.parallel {
            work.into_par_iter().map(poll).collect()
        } else {
            work.map(poll).collect()
        };

        // Root absorbs the poll outcomes in registration order.
        let mut demand: Vec<(NodeId, f64)> = Vec::with_capacity(n);
        let mut polls_skipped = 0u64;
        for (i, out) in outcomes.into_iter().enumerate() {
            let id = self.nodes[i].id;
            match out {
                PollOutcome::Skipped => {
                    // The cached reading is guaranteed equal to what a
                    // fresh poll would have returned.
                    polls_skipped += 1;
                    self.ctrl.timeout_streak[i] = 0;
                    demand.push((id, self.ctrl.demand_w[i]));
                }
                PollOutcome::Polled(out) => match self.dcm.absorb_power_poll(id, out) {
                    Ok(r) => {
                        let w = r.current_w as f64;
                        self.ctrl.demand_w[i] = w;
                        self.ctrl.demand_valid[i] = true;
                        self.ctrl.poll_ok[i] = true;
                        self.ctrl.timeout_streak[i] = 0;
                        demand.push((id, w));
                    }
                    Err(_) => {
                        self.ctrl.poll_ok[i] = false;
                        self.ctrl.timeout_streak[i] += 1;
                    }
                },
            }
        }

        // Fleet-side cap-violation detection: compare each reading against
        // the cap pushed at the *previous* barrier (before this round's
        // push overwrites it). A node persistently over its cap — a BMC
        // silently dropping cap commands answers the wire perfectly — is
        // flagged and held Degraded until it comes back under. Cached
        // readings participate like fresh ones: they are equal by
        // construction.
        for &(id, w) in &demand {
            let streak = &mut self.ctrl.viol_streak[id.index()];
            let over = self.dcm.last_cap_w(id).is_some_and(|cap| w > cap + self.violation_margin_w);
            if over {
                *streak += 1;
                if *streak >= self.violation_after {
                    self.dcm.set_cap_violating(id, true);
                }
            } else {
                *streak = 0;
                self.dcm.set_cap_violating(id, false);
            }
        }

        // Cross-node failover (serial, root-only): failover-mode serving
        // workloads export the requests they could not queue this epoch;
        // the root re-offers each to the node with the most queue headroom
        // (shallowest queue, lowest index on ties). Routing reads only
        // workload/control state through the `queue_room` hook and the
        // breaker columns — never observability — and runs in
        // registration order at the barrier, so the outcome cannot depend
        // on the thread count. Circuit breakers tick first:
        // they read this barrier's poll and violation streaks, so a node
        // that just went dark is out of the routing heap in the same
        // epoch its first poll fails.
        let rooms: Vec<Option<QueueRoom>> =
            self.nodes.iter().map(|s| s.load.queue_room()).collect();
        if rooms.iter().any(Option::is_some) {
            self.update_breakers(epoch, barrier_t_s);
        }
        let (failover_moved, failover_dropped) = self.route_failover(&rooms);
        if observe && failover_moved + failover_dropped > 0 {
            self.dcm.obs.metrics.add("fleet.failover_moved", failover_moved);
            self.dcm.obs.metrics.add("fleet.failover_dropped", failover_dropped);
            self.dcm.obs.events.record(
                barrier_t_s,
                EventKind::FailoverRouted {
                    epoch,
                    moved: failover_moved as u32,
                    dropped: failover_dropped as u32,
                },
            );
        }

        // Reallocate through the fleet's policy, with each answering
        // node's latency tail alongside its demand.
        let tails: Vec<f64> =
            demand.iter().map(|&(id, _)| self.nodes[id.index()].machine.tail_ms()).collect();
        let caps = self.dcm.plan_with(self.budget_w, self.policy.as_ref(), &demand, &tails);
        if observe {
            self.dcm.obs.events.record(
                barrier_t_s,
                EventKind::PolicyPlan {
                    policy: self.policy.name(),
                    epoch,
                    answered: demand.len() as u32,
                    granted_w: caps.iter().map(|&(_, c)| c).sum(),
                },
            );
        }

        // Plan the pushes. A push is elided when the last push fully
        // succeeded (Set *and* Activate) and landed exactly this cap —
        // then the BMC is provably already enforcing it.
        self.ctrl.planned.fill(None);
        let mut pushes_skipped = 0u64;
        for &(id, cap) in &caps {
            let i = id.index();
            if self.ctrl.push_ok[i] && self.dcm.last_cap_w(id) == Some(cap) {
                pushes_skipped += 1;
            } else {
                self.ctrl.planned[i] = Some(self.dcm.limit_for(cap));
            }
        }

        // Push phase: one map over the nodes; `None` means no push for
        // that node this epoch (unanswered, or the cap is in effect).
        let push = |(n, planned): (&mut SimNode, &Option<PowerLimit>)| {
            planned.map(|limit| CapPushOutcome::capture(&mut n.link(), &retry, limit))
        };
        let work = self.nodes.iter_mut().zip(&self.ctrl.planned);
        let outcomes: Vec<Option<CapPushOutcome>> = if self.parallel {
            work.into_par_iter().map(push).collect()
        } else {
            work.map(push).collect()
        };

        // Root absorbs the push outcomes in registration order. `caps`
        // is ascending by node index (demand is gathered in order), as is
        // the outcome vector, so one forward walk pairs them.
        let mut caps_in_effect: Vec<(u32, f64)> = Vec::with_capacity(caps.len());
        let mut wire_pushes = 0u64;
        {
            let mut planned_caps = caps.iter().peekable();
            for (i, out) in outcomes.into_iter().enumerate() {
                let cap = planned_caps.next_if(|&&(id, _)| id.index() == i).map(|&(_, c)| c);
                match (out, cap) {
                    (Some(push), Some(cap)) => {
                        let id = self.nodes[i].id;
                        match self.dcm.absorb_cap_push(id, cap, push) {
                            Ok(()) => {
                                self.ctrl.push_ok[i] = true;
                                wire_pushes += 1;
                                caps_in_effect.push((i as u32, cap));
                            }
                            Err(_) => self.ctrl.push_ok[i] = false,
                        }
                    }
                    // Elided push: the cap is already in effect.
                    (None, Some(cap)) => caps_in_effect.push((i as u32, cap)),
                    (None, None) => {}
                    (Some(_), None) => unreachable!("push captured for an unplanned node"),
                }
            }
        }

        let unresponsive = n - self.dcm.responsive_nodes().len();
        let fleet_power_w: f64 = demand.iter().map(|&(_, w)| w).sum();
        if observe {
            let m = &mut self.dcm.obs.metrics;
            for &(_, w) in &demand {
                m.observe("fleet.node_power_w", &FLEET_POWER_BOUNDS, w);
            }
            m.inc("fleet.barriers");
            m.add("fleet.caps_pushed", wire_pushes);
            m.add("fleet.polls_skipped", polls_skipped);
            m.add("fleet.cap_pushes_skipped", pushes_skipped);
            m.set_gauge("fleet.unresponsive", unresponsive as f64);
            self.dcm.obs.events.record(
                barrier_t_s,
                EventKind::BudgetRealloc {
                    epoch,
                    budget_w: self.budget_w,
                    answered: demand.len() as u32,
                    caps_pushed: wire_pushes as u32,
                },
            );
            self.dcm.obs.events.record(
                barrier_t_s,
                EventKind::Barrier {
                    epoch,
                    answered: demand.len() as u32,
                    unresponsive: unresponsive as u32,
                    fleet_w: fleet_power_w,
                },
            );
        }
        EpochRecord {
            epoch,
            answered: demand.len(),
            unresponsive,
            fleet_power_w,
            readings: demand.iter().map(|&(id, w)| (id.index() as u32, w)).collect(),
            caps: caps_in_effect,
        }
    }

    /// Tick the per-node failover circuit breakers at the root barrier
    /// (called only for fleets that route failover work). Trips on a
    /// poll-timeout streak of [`BREAKER_TRIP_AFTER`] or a cap-violation
    /// streak at the violation detector's threshold; after
    /// [`BREAKER_COOLDOWN`] epochs the breaker goes half-open (one probe),
    /// and a clean barrier closes it. Transitions are counted on control
    /// state and recorded as typed obs events with node attribution;
    /// recording is obs-gated, the state machine itself never reads
    /// observability.
    fn update_breakers(&mut self, epoch: u32, barrier_t_s: f64) {
        for i in 0..self.nodes.len() {
            let tripping = self.ctrl.timeout_streak[i] >= BREAKER_TRIP_AFTER
                || self.ctrl.viol_streak[i] >= self.violation_after;
            let cur = self.ctrl.breaker[i];
            let next = match cur {
                BreakerState::Closed => {
                    if tripping {
                        BreakerState::Open { until: epoch.saturating_add(BREAKER_COOLDOWN) }
                    } else {
                        cur
                    }
                }
                BreakerState::Open { until } => {
                    if epoch >= until {
                        BreakerState::HalfOpen
                    } else {
                        cur
                    }
                }
                // Half-open resolves strictly: any failure or violation
                // at this barrier re-opens, a fully clean barrier closes.
                BreakerState::HalfOpen => {
                    if self.ctrl.timeout_streak[i] > 0 || self.ctrl.viol_streak[i] > 0 {
                        BreakerState::Open { until: epoch.saturating_add(BREAKER_COOLDOWN) }
                    } else {
                        BreakerState::Closed
                    }
                }
            };
            if next != cur {
                self.ctrl.breaker[i] = next;
                self.breaker_transitions += 1;
                if self.dcm.obs.is_enabled() {
                    self.dcm.obs.metrics.inc("fleet.breaker_transitions");
                    self.dcm.obs.events.record_for(
                        barrier_t_s,
                        Some(i as u32),
                        EventKind::BreakerTransition { epoch, from: cur.name(), to: next.name() },
                    );
                }
            }
        }
    }

    /// Serial root half of cross-node failover: drain every node's
    /// exported overflow in registration order and re-offer each request
    /// to the least-loaded node that still advertises queue room.
    /// Returns `(moved, dropped)`.
    ///
    /// A node is a routing target only while the DCM holds it `Healthy`
    /// *and* its circuit breaker admits work — `Open` breakers are
    /// excluded outright and `HalfOpen` breakers are capped at a single
    /// probe request. Quarantined (`Degraded`/`Unresponsive`) nodes never
    /// receive failover work, no matter how much room they advertise.
    ///
    /// Target selection is a min-heap over `(queue depth, node index)`
    /// with lazy deletion: depths change as requests land, so entries are
    /// re-validated against the live depth at pop time. Requests that
    /// find no node with room — the whole group is saturated — are shed
    /// at their origin, which keeps per-origin accounting honest
    /// (`arrivals == completed + shed + in_flight` fleet-wide, per
    /// priority class).
    fn route_failover(&mut self, rooms: &[Option<QueueRoom>]) -> (u64, u64) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let n = self.nodes.len();
        if rooms.iter().all(Option::is_none) {
            return (0, 0);
        }
        let mut depth = vec![0usize; n];
        let mut free = vec![0usize; n];
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
        for (i, room) in rooms.iter().enumerate() {
            if let Some(r) = room {
                depth[i] = r.depth;
                // Health gate first: the DCM's word overrides any amount
                // of advertised room. Then the breaker: open means no
                // work at all, half-open means exactly one probe.
                let admissible = self.dcm.health(self.nodes[i].id) == NodeHealth::Healthy;
                free[i] = match (admissible, self.ctrl.breaker[i]) {
                    (false, _) | (_, BreakerState::Open { .. }) => 0,
                    (true, BreakerState::HalfOpen) => r.free.min(1),
                    (true, BreakerState::Closed) => r.free,
                };
                if free[i] > 0 {
                    heap.push(Reverse((r.depth, i)));
                }
            }
        }
        let (mut moved, mut dropped) = (0u64, 0u64);
        for (i, room) in rooms.iter().enumerate() {
            if room.is_none() {
                continue;
            }
            for req in self.nodes[i].load.drain_shed() {
                // Skim stale heap entries until the top reflects a live
                // (depth, index) pair with room.
                let target = loop {
                    match heap.peek() {
                        None => break None,
                        Some(&Reverse((d, j))) if free[j] == 0 || d != depth[j] => {
                            heap.pop();
                        }
                        Some(&Reverse((_, j))) => break Some(j),
                    }
                };
                let accepted = target.is_some_and(|j| {
                    let t = &mut self.nodes[j];
                    t.load.accept_failover(&mut t.machine, req)
                });
                if let (Some(j), true) = (target, accepted) {
                    heap.pop();
                    depth[j] += 1;
                    free[j] -= 1;
                    if free[j] > 0 {
                        heap.push(Reverse((depth[j], j)));
                    }
                    moved += 1;
                    self.nodes[i].machine.serving_mut().inc(traffic_keys::FAILOVER_OUT);
                } else {
                    if let Some(j) = target {
                        // The workload refused despite advertised room;
                        // trust the refusal and stop offering it work.
                        free[j] = 0;
                        heap.pop();
                    }
                    dropped += 1;
                    let books = self.nodes[i].machine.serving_mut();
                    books.inc(traffic_keys::SHED);
                    books.inc(
                        traffic_keys::SHED_BY_CLASS[req.class as usize % traffic_keys::CLASSES],
                    );
                }
            }
        }
        (moved, dropped)
    }

    /// Summarize a (possibly manually stepped) fleet: final per-node
    /// stats, SEL audit, the summed request books, merged observability.
    pub fn finish(mut self) -> FleetReport {
        let records = std::mem::take(&mut self.records);
        let retry = self.dcm.retry;
        let observe = self.dcm.obs.is_enabled();
        if observe {
            // Fold the per-link fault injector tallies into the manager's
            // metrics before snapshotting: they live in the transport, not
            // in either endpoint's registry.
            let mut req = FaultStats::default();
            let mut resp = FaultStats::default();
            for n in &self.nodes {
                if let Some((r, p)) = n.port.fault_stats() {
                    req.delivered += r.delivered;
                    req.dropped += r.dropped;
                    req.corrupted += r.corrupted;
                    req.busied += r.busied;
                    req.delayed += r.delayed;
                    resp.delivered += p.delivered;
                    resp.dropped += p.dropped;
                    resp.corrupted += p.corrupted;
                    resp.busied += p.busied;
                    resp.delayed += p.delayed;
                }
            }
            let m = &mut self.dcm.obs.metrics;
            m.add("transport.delivered", req.delivered + resp.delivered);
            m.add("transport.dropped", req.dropped + resp.dropped);
            m.add("transport.corrupted", req.corrupted + resp.corrupted);
            m.add("transport.busied", req.busied + resp.busied);
            m.add("transport.delayed", req.delayed + resp.delayed);
        }
        let mut summaries = Vec::with_capacity(self.nodes.len());
        for n in &mut self.nodes {
            // End-of-run workload accounting (undrained failover exports
            // fold into the shed counter; still-queued requests are
            // recorded as in-flight) before the machine's books close.
            n.load.finish(&mut n.machine);
            let stats: RunStats = n.machine.finish_run();
            let sel_violations =
                read_sel(&mut n.link(), &retry).map(|e| violation_count(&e)).unwrap_or(0);
            summaries.push(NodeSummary {
                index: n.id.index() as u32,
                name: self.dcm.node_name(n.id).to_string(),
                health: self.dcm.health(n.id),
                final_cap_w: self.dcm.last_cap_w(n.id),
                avg_power_w: stats.avg_power_w,
                avg_freq_mhz: stats.avg_freq_mhz,
                energy_j: stats.energy_j,
                wall_s: stats.wall_s,
                sel_violations,
            });
        }
        let mut serving = MetricsSnapshot::default();
        for n in &self.nodes {
            serving.absorb(&n.machine.serving().snapshot());
        }
        let obs = if observe {
            let mut metrics = self.dcm.obs.metrics.snapshot();
            for n in &self.nodes {
                metrics.absorb(&n.machine.obs().metrics.snapshot());
            }
            metrics.absorb(&serving);
            let streams = std::iter::once((None, &self.dcm.obs.events)).chain(
                self.nodes.iter().map(|n| (Some(n.id.index() as u32), &n.machine.obs().events)),
            );
            Some(FleetObs { metrics, events: merge_streams(streams) })
        } else {
            None
        };
        FleetReport {
            nodes: self.nodes.len(),
            epochs: records.len() as u32,
            epoch_s: self.epoch_s,
            budget_w: self.budget_w,
            records,
            summaries,
            serving,
            breaker_transitions: self.breaker_transitions,
            obs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsim_policy::{CapDecision, GroupDemand, NodeCapView};

    /// A test-local backend whose group half grants node `i` exactly
    /// `120 + i` watts, whatever the budget and demand. Its node half is
    /// the ladder walk.
    #[derive(Clone, Debug)]
    struct FixedSplit;

    impl CapPolicy for FixedSplit {
        fn name(&self) -> &'static str {
            "fixed_split"
        }

        fn node_decide(&mut self, view: &NodeCapView) -> CapDecision {
            LadderCapPolicy::new().node_decide(view)
        }

        fn group_allocate(&self, _budget_w: f64, demand: &[GroupDemand], _floor: f64) -> Vec<f64> {
            demand.iter().map(|d| 120.0 + d.node as f64).collect()
        }

        fn clone_box(&self) -> Box<dyn CapPolicy> {
            Box::new(self.clone())
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn fleet_runs_and_caps_every_node() {
        let report = FleetBuilder::new().nodes(4).epochs(5).seed(11).build().run();
        assert_eq!(report.nodes, 4);
        assert_eq!(report.records.len(), 5);
        // Clean links: every node answers and gets a cap every epoch.
        for r in &report.records {
            assert_eq!(r.answered, 4);
            assert_eq!(r.caps.len(), 4);
            assert_eq!(r.unresponsive, 0);
        }
        for n in &report.summaries {
            assert_eq!(n.health, NodeHealth::Healthy);
            assert!(n.final_cap_w.is_some());
            assert!(n.wall_s > 0.0);
        }
    }

    #[test]
    fn serial_and_parallel_runs_render_identically() {
        let build = |parallel: bool| {
            FleetBuilder::new().nodes(6).epochs(4).seed(3).parallel(parallel).build().run()
        };
        let serial = build(false);
        let parallel = build(true);
        assert_eq!(serial.render(), parallel.render());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn lossy_observed_runs_match_serial_and_parallel() {
        // Even with lossy links (per-link fault RNG) and observability on
        // (metrics + merged event stream compared field by field), how
        // the per-node maps are scheduled must not leak into any result.
        let build = |parallel: bool| {
            FleetBuilder::new()
                .nodes(9)
                .epochs(4)
                .seed(5)
                .faults(FaultSpec::lossy(0.1))
                .observe(true)
                .parallel(parallel)
                .build()
                .run()
        };
        assert_eq!(build(false), build(true), "the parallel fan-out changed the run");
    }

    #[test]
    fn observed_runs_surface_metrics_and_events() {
        let off = FleetBuilder::new().nodes(3).epochs(4).seed(7).build().run();
        assert!(off.obs.is_none(), "observability defaults off");

        let on = FleetBuilder::new().nodes(3).epochs(4).seed(7).observe(true).build().run();
        let obs = on.obs.as_ref().expect("observe(true) populates FleetObs");
        assert_eq!(obs.metrics.counter("fleet.barriers"), 4);
        // Wire pushes plus elided pushes cover every answered node every
        // epoch; the first epoch always goes over the wire.
        let pushed = obs.metrics.counter("fleet.caps_pushed");
        let elided = obs.metrics.counter("fleet.cap_pushes_skipped");
        assert_eq!(pushed + elided, 4 * 3);
        assert!(pushed >= 3, "the first epoch has no cached caps to elide");
        assert!(elided > 0, "steady-state caps are elided");
        assert_eq!(obs.metrics.counter("dcm.caps_pushed"), pushed);
        // Every wire push is a Set + Activate pair; polls add more.
        assert!(obs.metrics.counter("ipmi.transactions") >= 3 * pushed);
        assert!(obs.metrics.counter("machine.ticks") > 0);
        // Cached readings are recorded like fresh ones: the histogram
        // still sees every answered node every epoch.
        let hist = obs.metrics.hist("fleet.node_power_w").expect("power histogram");
        assert_eq!(hist.count, 4 * 3);
        // One BudgetRealloc + one Barrier per epoch, plus node-side DCMI
        // traffic; the merged stream is time-ordered.
        let barriers =
            obs.events.iter().filter(|e| matches!(e.kind, EventKind::Barrier { .. })).count();
        assert_eq!(barriers, 4);
        assert!(obs.events.iter().any(|e| matches!(e.kind, EventKind::DcmiSetLimit { .. })));
        let times: Vec<f64> = obs.events.iter().map(|e| e.t_s).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "events sorted by time");
        assert!(!obs.events_jsonl().is_empty());
        assert!(obs.events_csv().starts_with("seq,t_s,node,kind,detail\n"));
        // The default ladder plans every barrier and announces each plan
        // like any other backend.
        let ladder_plans = obs
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PolicyPlan { policy: "ladder", .. }))
            .count();
        assert_eq!(ladder_plans, 4, "one ladder plan per barrier");

        // The observed run must not perturb the simulation itself.
        let on_plain = FleetReport { obs: None, ..on.clone() };
        assert_eq!(off, on_plain, "observability must not change results");
    }

    #[test]
    fn quiescent_nodes_take_the_fast_paths() {
        // A mostly idle datacenter mix settles into a steady state where
        // polls repeat, caps repeat and idle spans are quiescent — all
        // three elisions must fire, and none may perturb the results.
        let build = |observe: bool| {
            FleetBuilder::new()
                .nodes(8)
                .epochs(6)
                .seed(7)
                .workload(WorkloadSpec::DatacenterMix)
                .observe(observe)
                .build()
                .run()
        };
        let on = build(true);
        let obs = on.obs.as_ref().expect("observed run");
        assert!(obs.metrics.counter("fleet.polls_skipped") > 0, "steady polls are elided");
        assert!(obs.metrics.counter("fleet.cap_pushes_skipped") > 0, "steady caps are elided");
        assert!(obs.metrics.counter("machine.idle_skips") > 0, "idle spans fast-forward");
        // Elision decisions read only control state — never obs — so an
        // unobserved run must land on exactly the same results.
        let off = build(false);
        let on_plain = FleetReport { obs: None, ..on.clone() };
        assert_eq!(off, on_plain, "fast paths must not depend on observability");
    }

    #[test]
    fn stepping_manually_matches_run() {
        let whole = FleetBuilder::new().nodes(3).epochs(4).seed(9).build().run();
        let mut fleet = FleetBuilder::new().nodes(3).epochs(4).seed(9).build();
        while fleet.epochs_run() < fleet.epochs() {
            fleet.step_epoch();
        }
        let stepped = fleet.finish();
        assert_eq!(whole, stepped, "step_epoch loop must equal run()");

        // A fleet finished early reports the epochs it actually stepped,
        // so the rendered header and any per-horizon rate agree with its
        // records.
        let mut fleet = FleetBuilder::new().nodes(3).epochs(4).seed(9).build();
        fleet.step_epoch();
        fleet.step_epoch();
        let early = fleet.finish();
        assert_eq!(early.epochs as usize, early.records.len());
        assert_eq!(early.epochs, 2);
        assert!(early.render().starts_with("fleet nodes=3 epochs=2 "));
    }

    #[test]
    fn the_installed_policy_is_the_only_planner() {
        let run = |observe: bool| {
            FleetBuilder::new()
                .nodes(4)
                .epochs(3)
                .seed(13)
                .cap_policy(Box::new(FixedSplit))
                .observe(observe)
                .build()
                .run()
        };
        let on = run(true);
        // Clean links: every node answers and every push lands, so the
        // caps in effect are exactly the policy's split, every epoch.
        let split: Vec<(u32, f64)> = (0..4u32).map(|i| (i, 120.0 + i as f64)).collect();
        for r in &on.records {
            assert_eq!(r.caps, split, "epoch {}", r.epoch);
        }
        let granted_w: f64 = split.iter().map(|&(_, c)| c).sum();
        let plans: Vec<EventKind> = on
            .obs
            .as_ref()
            .expect("observed run")
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PolicyPlan { .. }))
            .map(|e| e.kind.clone())
            .collect();
        let want: Vec<EventKind> = (0..3)
            .map(|epoch| EventKind::PolicyPlan {
                policy: "fixed_split",
                epoch,
                answered: 4,
                granted_w,
            })
            .collect();
        assert_eq!(plans, want, "one plan per barrier, named, granting the split");
        // Announcing plans is telemetry only.
        assert_eq!(run(false), FleetReport { obs: None, ..on });
    }

    #[test]
    fn lost_cap_commands_are_flagged_by_the_violation_detector() {
        // Node 1's BMC acks every SET_POWER_LIMIT on the wire but never
        // commits it: management traffic looks perfectly healthy while
        // measured power never comes down. Only the fleet-side violation
        // detector can see this.
        let mut fleet = FleetBuilder::new()
            .nodes(2)
            .epochs(8)
            .seed(23)
            .budget_w(220.0)
            // 20 W margin: a compliant node throttled to the 110 W floor
            // still overshoots it by ~13 W (the floor is the ladder's
            // physical limit, not a promise), and must not be flagged.
            .violation_detector(20.0, 2)
            .build();
        fleet.machine_mut(1).set_lost_cap_commands(true);
        while fleet.epochs_run() < fleet.epochs() {
            fleet.step_epoch();
        }
        assert!(fleet.dcm().cap_violating(fleet.dcm().id_at(1).unwrap()));
        assert_eq!(
            fleet.dcm().health(fleet.dcm().id_at(1).unwrap()),
            NodeHealth::Degraded { consecutive_failures: 0 },
            "violating node is held degraded despite clean transactions"
        );
        assert_eq!(fleet.dcm().health(fleet.dcm().id_at(0).unwrap()), NodeHealth::Healthy);
        let report = fleet.finish();
        assert_eq!(report.summaries[1].health, NodeHealth::Degraded { consecutive_failures: 0 });
    }

    #[test]
    fn faulty_links_still_converge_and_dead_nodes_are_shed() {
        let report = FleetBuilder::new()
            .nodes(5)
            .epochs(8)
            .seed(17)
            .faults(FaultSpec::lossy(0.05))
            .dead_node(2)
            .build()
            .run();
        let last = report.records.last().unwrap();
        assert_eq!(last.answered, 4, "dead node never answers");
        assert_eq!(last.unresponsive, 1);
        assert_eq!(report.summaries[2].health, NodeHealth::Unresponsive);
        assert!(report.summaries[2].final_cap_w.is_none());
        // The dead node's share went to the others: 4 caps summing to
        // (close to) the full budget.
        let cap_sum: f64 = last.caps.iter().map(|&(_, w)| w).sum();
        assert!(cap_sum > report.budget_w * 0.99, "{cap_sum} vs {}", report.budget_w);
    }
}
