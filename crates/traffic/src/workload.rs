//! Bounded request queues mapped onto the machine-stepping API.
//!
//! A [`TrafficWorkload`] is an [`EpochWorkload`]: each quantum it (1)
//! admits every arrival due by the machine's current simulated time into
//! a bounded FIFO — overflow is *shed*, the open-loop generator never
//! backs off — then (2) either serves one quantum of the head request's
//! demand through machine primitives (so service time, power and energy
//! all emerge from the same throttled execution), or idles toward the
//! next arrival when the queue is empty. Completion latency is
//! queueing + service delay, measured on the machine clock and recorded
//! into the log-spaced `traffic.latency_ms` histogram along with the
//! completed/shed/SLO counters (see
//! [`capsim_node::workload::traffic_keys`]) in the node's request books
//! ([`Machine::serving_mut`]), which record with observability on or off.
//!
//! Because service demand is charged through `Machine`, a node throttled
//! to a deep rung serves each quantum more slowly on the *simulated*
//! clock; queues lengthen and the latency tail stretches — the mechanism
//! the SLO-per-joule experiment measures.
//!
//! Two optional layers close the loop the open-loop generator leaves
//! open:
//!
//! * **Closed-loop clients** ([`TrafficSpec::closed_loop`]): when a
//!   completion's latency exceeds the client timeout, the seeded client
//!   population re-issues the request after a capped exponential backoff
//!   with deterministic jitter. Retries re-enter through the same
//!   admission path (each counts as a fresh arrival *and* a
//!   `traffic.retries` tick), so a throttled node amplifies its own load
//!   — the retry storm. The retry stream is a pure function of
//!   `(spec, seed)`, like everything else.
//! * **Fleet failover** ([`TrafficSpec::failover`]): instead of shedding
//!   at a full queue, the workload exports the overflow through
//!   [`EpochWorkload::drain_shed`]; the fleet barrier re-offers each
//!   request to the least-loaded node in the group (serially, at the
//!   root, so the thread count cannot change the routing) and counts the
//!   leftovers shed at their origin.
//!
//! Two robustness layers ride on top (see DESIGN.md §15):
//!
//! * **AIMD backpressure** ([`ClientSpec::aimd`]): sustained client
//!   timeouts multiplicatively cut the population's offered-rate
//!   multiplier; timeout-free control periods additively restore it. The
//!   multiplier thins the arrival stream inside the Lewis–Shedler
//!   acceptance test without consuming draws, so determinism and
//!   bit-replay are untouched.
//! * **Priority brownout** ([`TrafficSpec::brownout`]): every request
//!   carries a seeded priority class (0 critical … 2 background); under
//!   pressure the admission gate sheds the lowest class first and
//!   restores classes with hysteresis. Conservation holds per class:
//!   `arrivals_pC == completed_pC + shed_pC + in_flight_pC` exactly.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::sync::Arc;

use capsim_ipmi::splitmix64;
use capsim_node::workload::traffic_keys as keys;
use capsim_node::{
    CodeBlock, EpochWorkload, FailoverRequest, LoadKind, Machine, QueueRoom, Region,
    WorkloadFactory, WorkloadSpec,
};
use capsim_obs::EventKind;

use crate::arrival::{unit, ArrivalCurve, ArrivalProcess};

/// Salt separating the service-demand draw stream from the arrival
/// stream of the same node.
const DEMAND_SALT: u64 = 0xdeaa_4d5a_1700_0001;

/// Salt separating the client retry-jitter stream from both.
const RETRY_SALT: u64 = 0xc10e_4e75_0b0f_f001;

/// Salt separating the priority-class draw stream. Classes are drawn by
/// request index `k` from their own stream, so adding priorities did not
/// shift the arrival-time or service-demand draws of earlier PRs.
const PRIORITY_SALT: u64 = 0x9b10_12c1_a550_0001;

/// Idle slice when the queue is empty: long enough for the machine's
/// idle fast-forward to matter, short enough that admissions stay
/// timely relative to sub-millisecond fleet epochs.
const IDLE_SLICE_S: f64 = 2e-4;

/// How a request exercises the node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ServiceKind {
    /// ALU-bound quanta.
    Compute,
    /// Memory-streaming quanta.
    Stream,
    /// Both plus a branch.
    Mixed,
}

impl ServiceKind {
    fn for_request(k: u64) -> ServiceKind {
        match k % 3 {
            0 => ServiceKind::Compute,
            1 => ServiceKind::Stream,
            _ => ServiceKind::Mixed,
        }
    }

    /// Wire form for [`FailoverRequest::kind`].
    fn as_u8(self) -> u8 {
        match self {
            ServiceKind::Compute => 0,
            ServiceKind::Stream => 1,
            ServiceKind::Mixed => 2,
        }
    }

    fn from_u8(k: u8) -> ServiceKind {
        match k {
            0 => ServiceKind::Compute,
            1 => ServiceKind::Stream,
            _ => ServiceKind::Mixed,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Request {
    arrival_s: f64,
    /// Remaining service demand.
    quanta: u32,
    /// Original service demand (a client retry re-issues the same work).
    demand: u32,
    kind: ServiceKind,
    /// Client attempt index: 0 for first tries, n for the n-th retry.
    attempt: u32,
    /// Priority class, 0 most critical; see `traffic_keys::CLASSES`.
    /// Drawn once per original request and preserved across retries and
    /// failover hops.
    class: u8,
}

/// A scheduled client retry, ordered by due time (ties broken by issue
/// sequence, so the heap order is deterministic).
#[derive(Clone, Copy, Debug)]
struct RetryEntry {
    due_s: f64,
    demand: u32,
    kind: ServiceKind,
    attempt: u32,
    class: u8,
    seq: u64,
}

impl PartialEq for RetryEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for RetryEntry {}
impl PartialOrd for RetryEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RetryEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Due times are non-negative finite, so the IEEE bit pattern
        // orders exactly like the value — a total order without any f64
        // comparison caveats. BinaryHeap is a max-heap; reverse so the
        // earliest retry surfaces first.
        (other.due_s.to_bits(), other.seq).cmp(&(self.due_s.to_bits(), self.seq))
    }
}

/// AIMD backpressure for the closed-loop client population: sustained
/// timeouts multiplicatively cut the offered-rate multiplier, timeout-free
/// control periods additively restore it. The multiplier is applied
/// inside the thinning acceptance test of [`ArrivalProcess`], which
/// consumes no extra draws — a controller that never adjusts is
/// draw-for-draw identical to no controller at all, so bit-replay and
/// serial ≡ parallel determinism are preserved (see DESIGN.md §15).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AimdSpec {
    /// Control period on the node's simulated clock, seconds.
    pub control_period_s: f64,
    /// Client timeouts within one control period that trigger a cut.
    pub timeout_threshold: u32,
    /// Multiplicative decrease factor applied on a cut, in (0, 1).
    pub decrease: f64,
    /// Additive increase per timeout-free control period.
    pub increase: f64,
    /// Floor on the rate multiplier, in (0, 1].
    pub floor: f64,
}

impl Default for AimdSpec {
    fn default() -> Self {
        // One fleet epoch per control decision: cut by half on a bad
        // window, claw back 5 points per clean one — classic AIMD
        // asymmetry, scaled to sub-millisecond epochs.
        AimdSpec {
            control_period_s: 5e-4,
            timeout_threshold: 8,
            decrease: 0.5,
            increase: 0.05,
            floor: 0.1,
        }
    }
}

/// Why a [`ClientSpec`] was rejected by [`ClientSpec::validate`].
///
/// `max_retries == 0` is deliberately *legal*: it describes a client
/// population that observes timeouts (feeding AIMD backpressure) but
/// never re-issues work.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InvalidClientSpec {
    /// `timeout_ms` must be positive and finite; a non-positive timeout
    /// would mark every completion late and a NaN poisons comparisons.
    NonPositiveTimeout { timeout_ms: f64 },
    /// `backoff_s` must be positive and finite.
    NonPositiveBackoff { backoff_s: f64 },
    /// `backoff_cap_s` must be at least `backoff_s`, else the cap
    /// silently rewrites the base backoff.
    BackoffCapBelowBase { backoff_s: f64, backoff_cap_s: f64 },
    /// An AIMD parameter is out of range; `field` names the offender.
    InvalidAimd { field: &'static str },
}

impl fmt::Display for InvalidClientSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidClientSpec::NonPositiveTimeout { timeout_ms } => {
                write!(f, "client timeout_ms must be positive and finite, got {timeout_ms}")
            }
            InvalidClientSpec::NonPositiveBackoff { backoff_s } => {
                write!(f, "client backoff_s must be positive and finite, got {backoff_s}")
            }
            InvalidClientSpec::BackoffCapBelowBase { backoff_s, backoff_cap_s } => {
                write!(
                    f,
                    "client backoff_cap_s ({backoff_cap_s}) must be >= backoff_s ({backoff_s})"
                )
            }
            InvalidClientSpec::InvalidAimd { field } => {
                write!(f, "client aimd spec has out-of-range {field}")
            }
        }
    }
}

impl std::error::Error for InvalidClientSpec {}

/// Closed-loop client behaviour: how the seeded client population reacts
/// to observed completion latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClientSpec {
    /// Client-side timeout on completion latency, milliseconds. A
    /// completion slower than this counts a `traffic.client_timeouts`
    /// tick and (while the retry budget lasts) schedules a retry.
    pub timeout_ms: f64,
    /// Retries per original request before the client gives up. Zero is
    /// legal: a timeout-only client that backs off but never retries.
    pub max_retries: u32,
    /// Backoff before the first retry, seconds; doubles per attempt.
    pub backoff_s: f64,
    /// Cap on the exponential backoff, seconds.
    pub backoff_cap_s: f64,
    /// AIMD offered-rate backpressure (`None`: clients retry at full
    /// offered rate forever — the retry-storm baseline).
    pub aimd: Option<AimdSpec>,
}

impl Default for ClientSpec {
    fn default() -> Self {
        // Timeout at 2× the emergency SLO; backoff on the order of one
        // fleet epoch so a storm builds within a few barriers.
        ClientSpec {
            timeout_ms: 0.1,
            max_retries: 3,
            backoff_s: 2e-4,
            backoff_cap_s: 2e-3,
            aimd: None,
        }
    }
}

impl ClientSpec {
    /// Enable AIMD backpressure on this client population.
    pub fn aimd(mut self, spec: AimdSpec) -> ClientSpec {
        self.aimd = Some(spec);
        self
    }

    /// Check every parameter for range errors. All construction paths
    /// that accept a `ClientSpec` funnel through this
    /// ([`TrafficSpec::try_closed_loop`] returns the error,
    /// [`TrafficSpec::closed_loop`] panics on it).
    pub fn validate(&self) -> Result<(), InvalidClientSpec> {
        if !(self.timeout_ms > 0.0 && self.timeout_ms.is_finite()) {
            return Err(InvalidClientSpec::NonPositiveTimeout { timeout_ms: self.timeout_ms });
        }
        if !(self.backoff_s > 0.0 && self.backoff_s.is_finite()) {
            return Err(InvalidClientSpec::NonPositiveBackoff { backoff_s: self.backoff_s });
        }
        if self.backoff_cap_s < self.backoff_s || !self.backoff_cap_s.is_finite() {
            return Err(InvalidClientSpec::BackoffCapBelowBase {
                backoff_s: self.backoff_s,
                backoff_cap_s: self.backoff_cap_s,
            });
        }
        if let Some(a) = self.aimd {
            if !(a.control_period_s > 0.0 && a.control_period_s.is_finite()) {
                return Err(InvalidClientSpec::InvalidAimd { field: "control_period_s" });
            }
            if a.timeout_threshold == 0 {
                return Err(InvalidClientSpec::InvalidAimd { field: "timeout_threshold" });
            }
            if !(a.decrease > 0.0 && a.decrease < 1.0) {
                return Err(InvalidClientSpec::InvalidAimd { field: "decrease" });
            }
            if !(a.increase > 0.0 && a.increase.is_finite()) {
                return Err(InvalidClientSpec::InvalidAimd { field: "increase" });
            }
            if !(a.floor > 0.0 && a.floor <= 1.0) {
                return Err(InvalidClientSpec::InvalidAimd { field: "floor" });
            }
        }
        Ok(())
    }
}

/// Priority-tiered brownout: under pressure the admission gate sheds the
/// lowest-priority class first and restores classes with hysteresis.
/// Pressure is queue depth against the bound and, optionally, the node's
/// own p99 completion latency, read from its request books.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BrownoutSpec {
    /// Queue-depth fraction of the bound at or above which the next
    /// (lowest-priority) admitted class is shed.
    pub high_watermark: f64,
    /// Fraction at or below which a shed class is restored. Must sit
    /// well below `high_watermark`; the gap is the hysteresis band.
    pub low_watermark: f64,
    /// p99 completion-latency threshold, milliseconds, that also counts
    /// as pressure. `0.0` disables the tail trigger.
    pub p99_ms: f64,
    /// Evaluation period on the node's simulated clock, seconds.
    pub control_period_s: f64,
}

impl Default for BrownoutSpec {
    fn default() -> Self {
        BrownoutSpec {
            high_watermark: 0.75,
            low_watermark: 0.375,
            p99_ms: 0.0,
            control_period_s: 5e-4,
        }
    }
}

/// Config-driven description of a request-serving workload — the traffic
/// analogue of `CapPolicySpec`. Clone it into scenarios and benches;
/// [`TrafficSpec::workload`] turns it into a [`WorkloadSpec`] the fleet
/// builder accepts.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficSpec {
    /// Offered-load components, summed per node (rates are per node).
    pub curves: Vec<ArrivalCurve>,
    /// Queue bound; arrivals beyond it are shed.
    pub queue_bound: usize,
    /// SLO threshold on completion latency, milliseconds.
    pub slo_ms: f64,
    /// Service demand drawn uniformly from `quanta_min..=quanta_max`.
    pub quanta_min: u32,
    /// See `quanta_min`.
    pub quanta_max: u32,
    /// Scale per-node rates with the datacenter duty-cycle shape: the
    /// busy minority (3 nodes per 16) takes 4× the rate of the mostly
    /// idle majority.
    pub datacenter_mix: bool,
    /// Closed-loop client behaviour (`None`: pure open loop).
    pub clients: Option<ClientSpec>,
    /// Defer full-queue sheds to the fleet barrier for cross-node
    /// failover instead of dropping locally.
    pub failover: bool,
    /// Priority-tiered brownout at the admission gate (`None`: all
    /// classes admitted regardless of pressure).
    pub brownout: Option<BrownoutSpec>,
}

impl TrafficSpec {
    /// Flat offered load of `rps` requests per node-second.
    pub fn constant(rps: f64) -> TrafficSpec {
        TrafficSpec {
            curves: vec![ArrivalCurve::Constant { rps }],
            queue_bound: 64,
            slo_ms: 0.25,
            quanta_min: 1,
            quanta_max: 4,
            datacenter_mix: false,
            clients: None,
            failover: false,
            brownout: None,
        }
    }

    /// A trace built from explicit curve components.
    pub fn from_curves(curves: Vec<ArrivalCurve>) -> TrafficSpec {
        TrafficSpec { curves, ..TrafficSpec::constant(0.0) }
    }

    /// Set the queue bound.
    pub fn queue_bound(mut self, bound: usize) -> TrafficSpec {
        self.queue_bound = bound.max(1);
        self
    }

    /// Set the SLO latency threshold in milliseconds.
    pub fn slo_ms(mut self, ms: f64) -> TrafficSpec {
        self.slo_ms = ms;
        self
    }

    /// Enable datacenter hot/cold rate scaling.
    pub fn datacenter_mix(mut self, on: bool) -> TrafficSpec {
        self.datacenter_mix = on;
        self
    }

    /// Enable closed-loop clients (timeout → capped-backoff retries).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`ClientSpec::validate`]; use
    /// [`TrafficSpec::try_closed_loop`] to handle the error.
    pub fn closed_loop(self, clients: ClientSpec) -> TrafficSpec {
        self.try_closed_loop(clients).expect("invalid ClientSpec")
    }

    /// Enable closed-loop clients, surfacing parameter errors as a typed
    /// [`InvalidClientSpec`] instead of panicking.
    pub fn try_closed_loop(
        mut self,
        clients: ClientSpec,
    ) -> Result<TrafficSpec, InvalidClientSpec> {
        clients.validate()?;
        self.clients = Some(clients);
        Ok(self)
    }

    /// Enable cross-node failover at the fleet barrier.
    pub fn failover(mut self, on: bool) -> TrafficSpec {
        self.failover = on;
        self
    }

    /// Enable priority-tiered brownout at the admission gate.
    ///
    /// # Panics
    ///
    /// Panics unless every field can act:
    /// - `control_period_s` is positive and finite (otherwise the gate
    ///   never advances past its first evaluation);
    /// - `0 ≤ low_watermark < high_watermark ≤ 1` (a NaN low watermark
    ///   never restores a shed class, a NaN high one never sheds on queue
    ///   depth);
    /// - `p99_ms` is finite and ≥ 0 (a NaN threshold silently turns the
    ///   tail trigger off).
    pub fn brownout(mut self, spec: BrownoutSpec) -> TrafficSpec {
        let p = spec.control_period_s;
        assert!(p > 0.0 && p.is_finite(), "invalid BrownoutSpec: control_period_s = {p}");
        let (low, high, tail) = (spec.low_watermark, spec.high_watermark, spec.p99_ms);
        assert!(
            0.0 <= low && low < high && high <= 1.0 && tail >= 0.0 && tail.is_finite(),
            "invalid BrownoutSpec: low_watermark = {low}, high_watermark = {high}, p99_ms = {tail}"
        );
        self.brownout = Some(spec);
        self
    }

    /// The node-index rate multiplier for this spec: hot nodes are
    /// exactly the sustained-busy minority of
    /// [`LoadKind::datacenter_for_index`], so the traffic hot set can
    /// never drift from the workload hot set.
    fn scale_for(&self, index: usize) -> f64 {
        if !self.datacenter_mix {
            return 1.0;
        }
        if LoadKind::datacenter_for_index(index) != LoadKind::Pulse {
            4.0
        } else {
            1.0
        }
    }

    /// Wrap this spec as a [`WorkloadSpec`] for `FleetBuilder::workload`
    /// or `ChaosScenario`.
    pub fn workload(self) -> WorkloadSpec {
        WorkloadSpec::Custom(Arc::new(TrafficFactory { spec: self }))
    }
}

/// [`WorkloadFactory`] adapter: builds one [`TrafficWorkload`] per node,
/// with arrival and demand streams derived from the node's fleet seed.
#[derive(Clone, Debug)]
pub struct TrafficFactory {
    spec: TrafficSpec,
}

impl WorkloadFactory for TrafficFactory {
    fn name(&self) -> &'static str {
        "traffic"
    }

    fn build(&self, m: &mut Machine, index: usize, seed: u64) -> Box<dyn EpochWorkload> {
        let scale = self.spec.scale_for(index);
        let curves = self.spec.curves.iter().map(|c| c.scaled(scale)).collect();
        Box::new(TrafficWorkload::new(m, &self.spec, curves, seed))
    }
}

/// Live AIMD controller state for one client population.
struct AimdState {
    spec: AimdSpec,
    multiplier: f64,
    /// Client timeouts observed in the current control window.
    window_timeouts: u32,
    next_control_s: f64,
}

/// Live brownout controller state for one admission gate.
struct BrownoutState {
    spec: BrownoutSpec,
    /// Highest priority class currently admitted (0 = only critical).
    max_class: u8,
    next_eval_s: f64,
}

/// The per-node request server. See the module docs for semantics.
pub struct TrafficWorkload {
    arrivals: ArrivalProcess,
    queue: VecDeque<Request>,
    bound: usize,
    slo_ms: f64,
    quanta_min: u32,
    quanta_span: u32,
    demand_seed: u64,
    priority_seed: u64,
    clients: Option<ClientSpec>,
    failover: bool,
    aimd: Option<AimdState>,
    brownout: Option<BrownoutState>,
    /// Scheduled client retries, earliest due first.
    retries: BinaryHeap<RetryEntry>,
    /// Retry issue counter (jitter draw index and heap tie-breaker).
    retry_seq: u64,
    retry_seed: u64,
    /// Overflow awaiting barrier routing (failover mode only).
    shed_pending: Vec<FailoverRequest>,
    /// Requests admitted or shed so far (indexes the demand stream).
    offered: u64,
    /// Service quanta executed so far (strides the working set).
    served: u64,
    queue_peak: usize,
    block: CodeBlock,
    region: Region,
}

impl TrafficWorkload {
    fn new(m: &mut Machine, spec: &TrafficSpec, curves: Vec<ArrivalCurve>, seed: u64) -> Self {
        let block = m.code_block(64, 16);
        let region = m.alloc(32 * 1024);
        if spec.clients.is_some_and(|c| c.aimd.is_some()) {
            // Publish the starting multiplier so the gauge is defined
            // even for runs the controller never has to touch.
            m.serving_mut().set_gauge(keys::RATE_MULTIPLIER, 1.0);
        }
        if spec.brownout.is_some() {
            m.serving_mut().set_gauge(keys::BROWNOUT_MAX_CLASS, (keys::CLASSES - 1) as f64);
        }
        TrafficWorkload {
            arrivals: ArrivalProcess::new(curves, seed),
            queue: VecDeque::new(),
            bound: spec.queue_bound.max(1),
            slo_ms: spec.slo_ms,
            quanta_min: spec.quanta_min.max(1),
            quanta_span: spec.quanta_max.max(spec.quanta_min).max(1) - spec.quanta_min.max(1) + 1,
            demand_seed: splitmix64(seed, DEMAND_SALT),
            priority_seed: splitmix64(seed, PRIORITY_SALT),
            clients: spec.clients,
            failover: spec.failover,
            aimd: spec.clients.and_then(|c| c.aimd).map(|a| AimdState {
                spec: a,
                multiplier: 1.0,
                window_timeouts: 0,
                next_control_s: a.control_period_s,
            }),
            brownout: spec.brownout.map(|b| BrownoutState {
                spec: b,
                max_class: (keys::CLASSES - 1) as u8,
                next_eval_s: b.control_period_s,
            }),
            retries: BinaryHeap::new(),
            retry_seq: 0,
            retry_seed: splitmix64(seed, RETRY_SALT),
            shed_pending: Vec::new(),
            offered: 0,
            served: 0,
            queue_peak: 0,
            block,
            region,
        }
    }

    fn draw_quanta(&self, k: u64) -> u32 {
        self.quanta_min + (splitmix64(self.demand_seed, k) % self.quanta_span as u64) as u32
    }

    /// Priority class for request index `k`: 20% critical (0), 30%
    /// standard (1), 50% background (2) — drawn from the dedicated
    /// priority stream so the arrival/demand/retry streams of earlier
    /// PRs are untouched.
    fn draw_class(&self, k: u64) -> u8 {
        match splitmix64(self.priority_seed, k) % 10 {
            0 | 1 => 0,
            2..=4 => 1,
            _ => 2,
        }
    }

    /// Run the AIMD and brownout controllers up to the machine's current
    /// simulated time. Decisions happen only at fixed control-period
    /// boundaries on the node's own clock and read only node-local state,
    /// so they are identical under any thread count.
    fn control_tick(&mut self, m: &mut Machine) {
        let now = m.now_s();
        if let Some(a) = &mut self.aimd {
            while now >= a.next_control_s {
                a.next_control_s += a.spec.control_period_s;
                let (next, cause) = if a.window_timeouts >= a.spec.timeout_threshold {
                    ((a.multiplier * a.spec.decrease).max(a.spec.floor), "timeouts")
                } else if a.window_timeouts == 0 {
                    (f64::min(a.multiplier + a.spec.increase, 1.0), "recovery")
                } else {
                    (a.multiplier, "hold")
                };
                a.window_timeouts = 0;
                if next != a.multiplier {
                    a.multiplier = next;
                    self.arrivals.set_rate_multiplier(next);
                    m.serving_mut().set_gauge(keys::RATE_MULTIPLIER, next);
                    m.obs_mut()
                        .events
                        .record(now, EventKind::RateAdjusted { multiplier: next, cause });
                }
            }
        }
        if let Some(b) = &mut self.brownout {
            while now >= b.next_eval_s {
                b.next_eval_s += b.spec.control_period_s;
                let depth = self.queue.len() as f64;
                let high = b.spec.high_watermark * self.bound as f64;
                let low = b.spec.low_watermark * self.bound as f64;
                // With p99_ms == 0 the tail trigger is inert and the
                // controller is queue-depth only.
                let tail_hot = b.spec.p99_ms > 0.0 && m.tail_ms() > b.spec.p99_ms;
                let cur = b.max_class;
                let next = if (depth >= high || tail_hot) && cur > 0 {
                    cur - 1
                } else if depth <= low && !tail_hot && (cur as usize) < keys::CLASSES - 1 {
                    cur + 1
                } else {
                    cur
                };
                if next != cur {
                    b.max_class = next;
                    let cause = if next < cur { "pressure" } else { "recovery" };
                    m.serving_mut().set_gauge(keys::BROWNOUT_MAX_CLASS, next as f64);
                    m.obs_mut().events.record(
                        now,
                        EventKind::BrownoutShift {
                            from_class: cur as u32,
                            to_class: next as u32,
                            cause,
                        },
                    );
                }
            }
        }
    }

    /// One request through the admission gate: queued, deferred to the
    /// barrier, or shed. Every offer — first try or retry — is an
    /// arrival; that is what keeps `arrivals == completed + shed +
    /// in_flight` exact.
    fn offer(&mut self, m: &mut Machine, req: Request) {
        let class = req.class as usize % keys::CLASSES;
        let books = m.serving_mut();
        books.inc(keys::ARRIVALS);
        books.inc(keys::ARRIVALS_BY_CLASS[class]);
        // Brownout gate: a browned-out class is shed at the door — never
        // queued, never deferred to failover. It still counted as an
        // arrival above, so per-class conservation stays exact.
        if let Some(b) = &self.brownout {
            if req.class > b.max_class {
                let books = m.serving_mut();
                books.inc(keys::SHED);
                books.inc(keys::SHED_BY_CLASS[class]);
                books.inc(keys::BROWNOUT_SHED);
                return;
            }
        }
        if self.queue.len() < self.bound {
            self.queue.push_back(req);
            if self.queue.len() > self.queue_peak {
                self.queue_peak = self.queue.len();
                m.serving_mut().set_gauge(keys::QUEUE_PEAK, self.queue_peak as f64);
            }
        } else if self.failover {
            self.shed_pending.push(FailoverRequest {
                arrival_s: req.arrival_s,
                quanta: req.quanta,
                kind: req.kind.as_u8(),
                class: req.class,
            });
        } else {
            let books = m.serving_mut();
            books.inc(keys::SHED);
            books.inc(keys::SHED_BY_CLASS[class]);
        }
    }

    fn admit_due(&mut self, m: &mut Machine) {
        let now = m.now_s();
        loop {
            let next_arrival = self.arrivals.peek();
            let next_retry = self.retries.peek().map(|r| r.due_s);
            let arrival_due = next_arrival <= now;
            let retry_due = next_retry.is_some_and(|d| d <= now);
            if !arrival_due && !retry_due {
                return;
            }
            // Earliest event first; the open-loop stream wins exact ties
            // so interleaving is well-defined.
            if arrival_due && next_retry.is_none_or(|d| next_arrival <= d) {
                let arrival_s = self.arrivals.pop();
                let k = self.offered;
                self.offered += 1;
                let demand = self.draw_quanta(k);
                let class = self.draw_class(k);
                self.offer(
                    m,
                    Request {
                        arrival_s,
                        quanta: demand,
                        demand,
                        kind: ServiceKind::for_request(k),
                        attempt: 0,
                        class,
                    },
                );
            } else {
                let e = self.retries.pop().expect("retry_due implies a head entry");
                m.serving_mut().inc(keys::RETRIES);
                self.offer(
                    m,
                    Request {
                        arrival_s: e.due_s,
                        quanta: e.demand,
                        demand: e.demand,
                        kind: e.kind,
                        attempt: e.attempt,
                        class: e.class,
                    },
                );
            }
        }
    }

    /// Client reaction to a completion: a latency past the timeout costs
    /// a `client_timeouts` tick and, while the retry budget lasts,
    /// schedules a re-issue after capped exponential backoff with
    /// deterministic jitter (draw `retry_seq` of the node's retry
    /// stream).
    fn client_observe(&mut self, m: &mut Machine, latency_ms: f64, req: Request) {
        let Some(c) = self.clients else {
            return;
        };
        if latency_ms <= c.timeout_ms {
            return;
        }
        m.serving_mut().inc(keys::CLIENT_TIMEOUTS);
        if let Some(a) = &mut self.aimd {
            // Every timeout feeds the AIMD window, including ones past
            // the retry budget — backpressure reacts to pain, not to
            // whether the client still retries.
            a.window_timeouts += 1;
        }
        if req.attempt >= c.max_retries {
            return;
        }
        let backoff = (c.backoff_s * f64::powi(2.0, req.attempt as i32)).min(c.backoff_cap_s);
        self.retry_seq += 1;
        let jitter = 1.0 + 0.5 * unit(splitmix64(self.retry_seed, self.retry_seq));
        self.retries.push(RetryEntry {
            due_s: m.now_s() + backoff * jitter,
            demand: req.demand,
            kind: req.kind,
            attempt: req.attempt + 1,
            class: req.class,
            seq: self.retry_seq,
        });
    }
}

impl EpochWorkload for TrafficWorkload {
    fn quantum(&mut self, m: &mut Machine) {
        self.control_tick(m);
        self.admit_due(m);
        let Some(req) = self.queue.front_mut() else {
            // Empty queue: idle toward the next arrival (open-loop or
            // scheduled retry), in slices small enough that admission
            // stays timely. A gap is always charged so the epoch loop
            // never treats this quantum as a stall.
            let now = m.now_s();
            let mut next = self.arrivals.peek();
            if let Some(r) = self.retries.peek() {
                next = next.min(r.due_s);
            }
            let gap = (next - now).clamp(1e-6, IDLE_SLICE_S);
            m.idle(gap);
            return;
        };
        // One quantum of the head request's service demand, charged
        // through the machine so throttling stretches it.
        let start = (self.served * 64) % self.region.bytes();
        match req.kind {
            ServiceKind::Compute => {
                for _ in 0..3 {
                    m.exec_block(&self.block);
                }
                m.compute(4000);
            }
            ServiceKind::Stream => {
                m.exec_block(&self.block);
                m.load_stream(self.region.base(), self.region.bytes(), start, 64, 128);
            }
            ServiceKind::Mixed => {
                for _ in 0..2 {
                    m.exec_block(&self.block);
                }
                m.load_stream(self.region.base(), self.region.bytes(), start, 64, 64);
                m.compute(1500);
                m.branch(&self.block, !self.served.is_multiple_of(7));
            }
        }
        self.served += 1;
        req.quanta -= 1;
        if req.quanta == 0 {
            let done = *req;
            let latency_ms = (m.now_s() - done.arrival_s) * 1e3;
            let slo_miss = latency_ms > self.slo_ms;
            let books = m.serving_mut();
            books.inc(keys::COMPLETED);
            books.inc(keys::COMPLETED_BY_CLASS[done.class as usize % keys::CLASSES]);
            books.observe_log(keys::LATENCY_MS, keys::LATENCY_BUCKETS, latency_ms);
            if slo_miss {
                books.inc(keys::SLO_VIOLATIONS);
            }
            self.queue.pop_front();
            self.client_observe(m, latency_ms, done);
        }
    }

    fn queue_room(&self) -> Option<QueueRoom> {
        // Only failover-mode servers take part in barrier routing;
        // open-loop specs keep the barrier entirely out of the data path
        // (and their goldens byte-identical).
        self.failover
            .then(|| QueueRoom { depth: self.queue.len(), free: self.bound - self.queue.len() })
    }

    fn drain_shed(&mut self) -> Vec<FailoverRequest> {
        std::mem::take(&mut self.shed_pending)
    }

    fn accept_failover(&mut self, m: &mut Machine, req: FailoverRequest) -> bool {
        if self.queue.len() >= self.bound {
            return false;
        }
        // Latency keeps accruing from the original arrival — the
        // failover hop is part of the request's story. The client retry
        // budget restarts: the re-homed request is a fresh attempt from
        // the target's point of view.
        self.queue.push_back(Request {
            arrival_s: req.arrival_s,
            quanta: req.quanta,
            demand: req.quanta,
            kind: ServiceKind::from_u8(req.kind),
            attempt: 0,
            class: req.class.min((keys::CLASSES - 1) as u8),
        });
        if self.queue.len() > self.queue_peak {
            self.queue_peak = self.queue.len();
            m.serving_mut().set_gauge(keys::QUEUE_PEAK, self.queue_peak as f64);
        }
        m.serving_mut().inc(keys::FAILOVER_IN);
        true
    }

    fn finish(&mut self, m: &mut Machine) {
        // Overflow the barrier never drained (standalone runs, or sheds
        // after the last barrier) is shed after all.
        let books = m.serving_mut();
        for req in self.shed_pending.drain(..) {
            books.inc(keys::SHED);
            books.inc(keys::SHED_BY_CLASS[req.class as usize % keys::CLASSES]);
        }
        // Conservation remainder: everything admitted but not yet
        // completed. Scheduled retries are *not* in flight — they have
        // not re-arrived yet, so they are not arrivals either.
        books.add(keys::IN_FLIGHT, self.queue.len() as u64);
        for req in &self.queue {
            books.inc(keys::IN_FLIGHT_BY_CLASS[req.class as usize % keys::CLASSES]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsim_node::MachineBuilder;

    fn run_workload(
        spec: TrafficSpec,
        seed: u64,
        epochs: u32,
    ) -> (capsim_obs::MetricsSnapshot, Box<dyn EpochWorkload>) {
        let mut m = MachineBuilder::tiny().seed(seed).build();
        let mut w = spec.workload().build_for(&mut m, 0, seed);
        for _ in 0..epochs {
            m.step(5e-4, w.as_mut());
        }
        w.finish(&mut m);
        (m.serving().snapshot(), w)
    }

    fn run_spec(spec: TrafficSpec, seed: u64, epochs: u32) -> capsim_obs::MetricsSnapshot {
        run_workload(spec, seed, epochs).0
    }

    #[test]
    fn requests_complete_and_account_exactly() {
        let s = run_spec(TrafficSpec::constant(40_000.0), 9, 20);
        let arrivals = s.counter(keys::ARRIVALS);
        let completed = s.counter(keys::COMPLETED);
        let shed = s.counter(keys::SHED);
        let in_flight = s.counter(keys::IN_FLIGHT);
        assert!(arrivals > 100, "arrivals {arrivals}");
        assert!(completed > 0, "completed {completed}");
        assert_eq!(
            arrivals,
            completed + shed + in_flight,
            "exact conservation: {arrivals} arrivals vs {completed} completed + {shed} shed \
             + {in_flight} in flight"
        );
        let h = s.hist(keys::LATENCY_MS).expect("latency histogram recorded");
        assert_eq!(h.count, completed);
        assert!(h.quantile(0.99) >= h.quantile(0.50));
    }

    #[test]
    fn overload_sheds_at_the_queue_bound_and_conserves() {
        let spec = TrafficSpec::constant(2_000_000.0).queue_bound(4);
        let s = run_spec(spec, 5, 10);
        assert!(s.counter(keys::SHED) > 0, "overload must shed");
        assert!(s.gauge(keys::QUEUE_PEAK) <= Some(4.0), "queue bound respected");
        assert_eq!(
            s.counter(keys::ARRIVALS),
            s.counter(keys::COMPLETED) + s.counter(keys::SHED) + s.counter(keys::IN_FLIGHT),
            "conservation holds under overload"
        );
    }

    #[test]
    fn same_seed_is_bit_identical_different_seed_is_not() {
        let a = run_spec(TrafficSpec::constant(50_000.0), 21, 12);
        let b = run_spec(TrafficSpec::constant(50_000.0), 21, 12);
        let c = run_spec(TrafficSpec::constant(50_000.0), 22, 12);
        assert_eq!(a, b, "same seed, same series");
        assert_ne!(a, c, "different seed diverges");
    }

    #[test]
    fn slow_completions_ignite_retries() {
        // An impossible timeout makes every completion late: the client
        // layer must retry each one until the budget runs out, and every
        // retry must re-enter as an arrival (keeping conservation exact).
        // `timeout_ms: 0.0` is rejected by validation, so use the
        // smallest positive timeout — every real completion beats it.
        let clients = ClientSpec {
            timeout_ms: f64::MIN_POSITIVE,
            max_retries: 2,
            backoff_s: 1e-5,
            backoff_cap_s: 1e-4,
            ..ClientSpec::default()
        };
        let closed = run_spec(TrafficSpec::constant(20_000.0).closed_loop(clients), 13, 20);
        let open = run_spec(TrafficSpec::constant(20_000.0), 13, 20);
        let retries = closed.counter(keys::RETRIES);
        assert!(retries > 0, "late completions must retry");
        assert_eq!(
            closed.counter(keys::CLIENT_TIMEOUTS),
            closed.counter(keys::COMPLETED),
            "epsilon timeout: every completion is late"
        );
        assert!(
            closed.counter(keys::ARRIVALS) > open.counter(keys::ARRIVALS),
            "retries amplify offered load"
        );
        assert_eq!(
            closed.counter(keys::ARRIVALS),
            closed.counter(keys::COMPLETED)
                + closed.counter(keys::SHED)
                + closed.counter(keys::IN_FLIGHT),
            "conservation holds under retry amplification"
        );
    }

    #[test]
    fn closed_loop_replays_bit_identically() {
        let spec = TrafficSpec::constant(80_000.0).queue_bound(8).closed_loop(ClientSpec {
            timeout_ms: 0.05,
            max_retries: 3,
            backoff_s: 5e-5,
            backoff_cap_s: 5e-4,
            ..ClientSpec::default()
        });
        let a = run_spec(spec.clone(), 31, 16);
        let b = run_spec(spec, 31, 16);
        assert_eq!(a, b, "retry storms replay byte-identically");
    }

    #[test]
    fn failover_mode_defers_sheds_to_the_drain() {
        let spec = TrafficSpec::constant(2_000_000.0).queue_bound(4).failover(true);
        let mut m = MachineBuilder::tiny().seed(5).build();
        let mut w = spec.workload().build_for(&mut m, 0, 5);
        for _ in 0..10 {
            m.step(5e-4, w.as_mut());
        }
        assert_eq!(m.serving().counter(keys::SHED), 0, "failover defers local sheds");
        let room = w.queue_room().expect("failover servers report queue room");
        assert_eq!(room.depth + room.free, 4, "room accounts for the whole bound");
        let drained = w.drain_shed();
        assert!(!drained.is_empty(), "overload exported overflow for routing");
        assert!(w.drain_shed().is_empty(), "drain consumes the export buffer");
        // Re-offer drained requests back: the workload accepts exactly as
        // much as the room it advertised, then refuses at the bound.
        let mut accepted = 0u64;
        while w.accept_failover(&mut m, drained[0]) {
            accepted += 1;
            assert!(accepted <= room.free as u64, "acceptance must stop at the queue bound");
        }
        assert_eq!(accepted, room.free as u64, "advertised room is exactly what fits");
        // We drained the whole buffer above, so finish() has nothing to
        // fold back into SHED; accepted failovers sit in flight without
        // counting as local arrivals, so the books balance once they are
        // added back — the fleet-wide shape of exact conservation.
        w.finish(&mut m);
        let s = m.serving().snapshot();
        assert_eq!(s.counter(keys::SHED), 0, "drained exports are not shed");
        assert_eq!(s.counter(keys::FAILOVER_IN), accepted);
        assert_eq!(
            s.counter(keys::ARRIVALS) + accepted,
            s.counter(keys::COMPLETED) + drained.len() as u64 + s.counter(keys::IN_FLIGHT),
            "drained exports are the only unaccounted arrivals"
        );
    }

    /// Per-class conservation: each priority class balances its own
    /// books, and the classes partition the totals exactly.
    fn assert_class_conservation(s: &capsim_obs::MetricsSnapshot) {
        let mut sums = [0u64; 4];
        for c in 0..keys::CLASSES {
            let arrivals = s.counter(keys::ARRIVALS_BY_CLASS[c]);
            let completed = s.counter(keys::COMPLETED_BY_CLASS[c]);
            let shed = s.counter(keys::SHED_BY_CLASS[c]);
            let in_flight = s.counter(keys::IN_FLIGHT_BY_CLASS[c]);
            assert_eq!(
                arrivals,
                completed + shed + in_flight,
                "class {c}: {arrivals} arrivals vs {completed} + {shed} + {in_flight}"
            );
            sums[0] += arrivals;
            sums[1] += completed;
            sums[2] += shed;
            sums[3] += in_flight;
        }
        assert_eq!(sums[0], s.counter(keys::ARRIVALS), "classes partition arrivals");
        assert_eq!(sums[1], s.counter(keys::COMPLETED), "classes partition completions");
        assert_eq!(sums[2], s.counter(keys::SHED), "classes partition sheds");
        assert_eq!(sums[3], s.counter(keys::IN_FLIGHT), "classes partition in-flight");
    }

    #[test]
    fn client_spec_validation_is_typed_and_zero_retries_is_legal() {
        let bad_timeout = ClientSpec { timeout_ms: 0.0, ..ClientSpec::default() };
        assert_eq!(
            bad_timeout.validate(),
            Err(InvalidClientSpec::NonPositiveTimeout { timeout_ms: 0.0 })
        );
        let bad_cap = ClientSpec { backoff_s: 1e-3, backoff_cap_s: 1e-4, ..ClientSpec::default() };
        assert!(matches!(bad_cap.validate(), Err(InvalidClientSpec::BackoffCapBelowBase { .. })));
        let bad_aimd = ClientSpec::default().aimd(AimdSpec { floor: 0.0, ..AimdSpec::default() });
        assert_eq!(bad_aimd.validate(), Err(InvalidClientSpec::InvalidAimd { field: "floor" }));
        let bad_cut = ClientSpec::default().aimd(AimdSpec { decrease: 1.5, ..AimdSpec::default() });
        assert_eq!(bad_cut.validate(), Err(InvalidClientSpec::InvalidAimd { field: "decrease" }));
        // Zero retries is the documented timeout-only client.
        let zero_retries = ClientSpec { max_retries: 0, ..ClientSpec::default() };
        assert_eq!(zero_retries.validate(), Ok(()));
        let err = TrafficSpec::constant(1000.0).try_closed_loop(bad_timeout).unwrap_err();
        assert!(err.to_string().contains("timeout_ms"), "{err}");
    }

    #[test]
    #[should_panic(expected = "invalid ClientSpec")]
    fn closed_loop_panics_on_invalid_spec() {
        let _ = TrafficSpec::constant(1000.0)
            .closed_loop(ClientSpec { timeout_ms: f64::NAN, ..ClientSpec::default() });
    }

    #[test]
    #[should_panic(expected = "invalid BrownoutSpec: control_period_s = 0")]
    fn brownout_panics_on_a_period_that_never_advances() {
        let _ = TrafficSpec::constant(1000.0)
            .brownout(BrownoutSpec { control_period_s: 0.0, ..BrownoutSpec::default() });
    }

    #[test]
    #[should_panic(expected = "invalid BrownoutSpec: low_watermark = NaN")]
    fn brownout_panics_on_a_nan_low_watermark_that_never_restores() {
        let _ = TrafficSpec::constant(1000.0)
            .brownout(BrownoutSpec { low_watermark: f64::NAN, ..BrownoutSpec::default() });
    }

    #[test]
    #[should_panic(expected = "invalid BrownoutSpec: low_watermark = 0.75, high_watermark = 0.375")]
    fn brownout_panics_on_inverted_watermarks() {
        let _ = TrafficSpec::constant(1000.0).brownout(BrownoutSpec {
            low_watermark: 0.75,
            high_watermark: 0.375,
            ..BrownoutSpec::default()
        });
    }

    #[test]
    fn aimd_backpressure_thins_the_storm_and_conserves_per_class() {
        // Impossible timeout: every completion is late, so the retry
        // storm is sustained and the AIMD window trips every period.
        let clients = ClientSpec {
            timeout_ms: f64::MIN_POSITIVE,
            max_retries: 2,
            backoff_s: 1e-5,
            backoff_cap_s: 1e-4,
            ..ClientSpec::default()
        };
        let aimd = AimdSpec { timeout_threshold: 4, ..AimdSpec::default() };
        let base = TrafficSpec::constant(120_000.0).queue_bound(16);
        let stormy = run_spec(base.clone().closed_loop(clients), 17, 24);
        let damped = run_spec(base.closed_loop(clients.aimd(aimd)), 17, 24);
        let gauge = damped.gauge(keys::RATE_MULTIPLIER).expect("multiplier gauge published");
        assert!(gauge < 1.0, "sustained timeouts must cut the multiplier, got {gauge}");
        assert!(
            damped.counter(keys::ARRIVALS) < stormy.counter(keys::ARRIVALS),
            "backpressure thins the offered stream: {} vs {}",
            damped.counter(keys::ARRIVALS),
            stormy.counter(keys::ARRIVALS)
        );
        assert_class_conservation(&stormy);
        assert_class_conservation(&damped);
    }

    #[test]
    fn brownout_sheds_background_first_and_restores_after_the_spike() {
        let spec = TrafficSpec::from_curves(vec![ArrivalCurve::FlashCrowd {
            base_rps: 1_000.0,
            spike_rps: 1_500_000.0,
            start_s: 0.0,
            end_s: 0.004,
        }])
        .queue_bound(32)
        .brownout(BrownoutSpec::default());
        let s = run_spec(spec, 23, 60);
        assert!(s.counter(keys::BROWNOUT_SHED) > 0, "the spike must trip the brownout gate");
        assert!(
            s.counter(keys::SHED_BY_CLASS[2]) > s.counter(keys::SHED_BY_CLASS[0]),
            "background sheds before critical: p2 {} vs p0 {}",
            s.counter(keys::SHED_BY_CLASS[2]),
            s.counter(keys::SHED_BY_CLASS[0])
        );
        assert_eq!(
            s.gauge(keys::BROWNOUT_MAX_CLASS),
            Some((keys::CLASSES - 1) as f64),
            "all classes restored once the spike passes"
        );
        assert_class_conservation(&s);
    }

    #[test]
    fn robustness_stack_replays_bit_identically() {
        let spec = TrafficSpec::constant(150_000.0)
            .queue_bound(16)
            .closed_loop(ClientSpec::default().aimd(AimdSpec::default()))
            .brownout(BrownoutSpec::default());
        let a = run_spec(spec.clone(), 41, 20);
        let b = run_spec(spec, 41, 20);
        assert_eq!(a, b, "AIMD + brownout replay byte-identically");
        assert_class_conservation(&a);
    }

    #[test]
    fn datacenter_scale_tracks_the_workload_hot_set() {
        // The hot minority must be exactly `datacenter_for_index`'s
        // sustained-busy set — swept well past one 16-node period.
        let spec = TrafficSpec::constant(1000.0).datacenter_mix(true);
        for i in 0..64 {
            let hot = LoadKind::datacenter_for_index(i) != LoadKind::Pulse;
            let scale = spec.scale_for(i);
            assert_eq!(
                scale,
                if hot { 4.0 } else { 1.0 },
                "node {i}: scale {scale} disagrees with datacenter_for_index"
            );
        }
        let flat = TrafficSpec::constant(1000.0);
        assert_eq!(flat.scale_for(0), 1.0, "no mix, no scaling");
    }
}
