//! The BMC firmware model: closed-loop power capping plus the IPMI
//! service endpoint.
//!
//! Every control period the machine hands the BMC the windowed average
//! node power; the BMC escalates one rung when over the cap and
//! de-escalates when comfortably under it. With a cap that falls between
//! the power levels of two adjacent rungs the loop never settles — it
//! dithers, exactly as §II-A describes for P-states ("the BMC switches
//! between the two states in an attempt to honor the power cap"), which is
//! what produces the paper's fractional average frequencies (2168, 1274,
//! 2422 MHz…).
//!
//! If the ladder is exhausted and the node still exceeds the cap, the BMC
//! keeps the deepest rung and (with the DCMI `LogOnly` exception action)
//! simply logs — the reason Table II's 120 W rows report ~124 W measured.

use capsim_ipmi::app_cmds::{
    DcmiCapabilities, DeviceId, CMD_GET_DCMI_CAPABILITIES, CMD_GET_DEVICE_ID,
};
use capsim_ipmi::dcmi::{
    self, ActivatePowerLimit, ExceptionAction, PowerLimit, PowerReading, SetPowerLimit,
};
use capsim_ipmi::sel::{
    SelEventType, SystemEventLog, CMD_CLEAR_SEL, CMD_GET_SEL_ENTRY, CMD_GET_SEL_INFO,
};
use capsim_ipmi::sensor::{SensorId, SensorRead, SensorValue, CMD_GET_SENSOR_READING};
use capsim_ipmi::{BmcPort, CompletionCode, IpmiError, NetFn, Request, Response};
use capsim_obs::{EventKind, Obs, RungCause};
use capsim_policy::{CapDecision, CapPolicy, LadderCapPolicy, NodeCapView};

use crate::ladder::{Rung, ThrottleLadder};

fn sel_event_name(e: SelEventType) -> &'static str {
    match e {
        SelEventType::PowerLimitExceeded => "power_limit_exceeded",
        SelEventType::PowerLimitConfigured => "power_limit_configured",
        SelEventType::ThrottleFloorReached => "throttle_floor_reached",
        SelEventType::FirmwareRebooted => "firmware_rebooted",
        SelEventType::FailsafeEngaged => "failsafe_engaged",
    }
}

/// A rejected power-cap wattage: caps must be finite and positive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InvalidPowerCap {
    /// The rejected value.
    pub watts: f64,
}

impl std::fmt::Display for InvalidPowerCap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid power cap {} W: must be finite and > 0", self.watts)
    }
}

impl std::error::Error for InvalidPowerCap {}

/// An active power cap in watts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerCap {
    pub watts: f64,
}

impl PowerCap {
    /// Validate a cap wattage. NaN, infinities, zero and negative values
    /// are rejected — a cap of `-0.0` or `NaN` would otherwise disable
    /// every comparison in the control loop while claiming to be active.
    pub fn new(watts: f64) -> Result<Self, InvalidPowerCap> {
        if watts.is_finite() && watts > 0.0 {
            Ok(PowerCap { watts })
        } else {
            Err(InvalidPowerCap { watts })
        }
    }
}

// Guardrail thresholds: the failsafe rung floor (which always pins the
// deepest rung), the stale-telemetry watchdog and the cap-violation
// detector. The counts are consecutive control samples, so their
// wall-clock meaning scales with the machine's control period.

/// Window averages above this are implausible for a single node.
const IMPLAUSIBLE_MAX_W: f64 = 1000.0;
/// Die temperatures above this are implausible (sensor fault).
const IMPLAUSIBLE_MAX_TEMP_C: f64 = 120.0;
/// Consecutive implausible samples before the failsafe engages.
const IMPLAUSIBLE_AFTER: u32 = 3;
/// Consecutive frozen-timestamp samples (with an active cap) before the
/// failsafe engages.
const STALE_AFTER: u32 = 32;
/// Consecutive fresh, plausible samples before the failsafe releases.
const RELEASE_AFTER: u32 = 8;
/// Consecutive over-cap samples before a cap-violation event fires.
const VIOLATION_AFTER: u32 = 16;
/// Consecutive under-cap samples before the violation episode ends.
const VIOLATION_CLEAR_AFTER: u32 = 8;

/// Telemetry the machine exposes to the BMC each control tick (and that
/// the BMC forwards over IPMI).
#[derive(Clone, Copy, Debug, Default)]
pub struct BmcTelemetry {
    pub window_avg_w: f64,
    pub run_avg_w: f64,
    pub min_w: f64,
    pub max_w: f64,
    pub die_temp_c: f64,
    pub inlet_temp_c: f64,
    /// Fraction of the window the cores were busy (0..=1); input to the
    /// capping policy, not forwarded over DCMI.
    pub busy_frac: f64,
    /// Achieved issue-slot utilization over the window (0..=1).
    pub issue_frac: f64,
    /// Simulated time of the sample in milliseconds (drives the DCMI
    /// correction-time clock and SEL timestamps).
    pub now_ms: f64,
    /// p99 completion latency of the node's request books, milliseconds
    /// (0.0 when the node serves no traffic); input to the capping
    /// policy, not forwarded over DCMI.
    pub tail_ms: f64,
}

/// The BMC firmware state.
#[derive(Clone, Debug)]
pub struct Bmc {
    ladder: ThrottleLadder,
    cap: Option<PowerCap>,
    cap_active: bool,
    rung: usize,
    /// De-escalate only when below `cap - hysteresis_w`.
    hysteresis_w: f64,
    escalations: u64,
    deescalations: u64,
    exceptions: u64,
    stored_limit: Option<PowerLimit>,
    last_telemetry: BmcTelemetry,
    /// DCMI correction-time tracking: when the node first went over the
    /// active cap (cleared whenever it dips back under).
    over_cap_since_ms: Option<f64>,
    /// Time of the last correction-time exception, to log one SEL entry
    /// per correction interval rather than per tick.
    last_exception_ms: f64,
    sel: SystemEventLog,
    chassis_on: bool,
    floor_logged: bool,
    /// Whether the guardrails run at all (on by default).
    guardrails: bool,
    /// Failsafe rung floor currently engaged (untrusted telemetry).
    failsafe: bool,
    implausible_streak: u32,
    stale_streak: u32,
    plausible_streak: u32,
    viol_streak: u32,
    under_streak: u32,
    /// Cap-violation detector: inside a sustained over-cap episode.
    violating: bool,
    /// Firmware crashed: no service, no control, until the watchdog fires.
    crashed: bool,
    crashed_at_ms: f64,
    reboot_at_ms: Option<f64>,
    /// Controller fault: cap commands are acknowledged but not applied.
    lost_cap_commands: bool,
    /// What the last served `Get Power Reading` answered: `(current_w,
    /// SEL length at the time)`. Lock-step managers consult
    /// [`Bmc::poll_would_repeat`] to elide polls that cannot return new
    /// information.
    poll_snapshot: Option<(u16, usize)>,
    /// Observability sink for this node (disabled by default: one branch
    /// per site, nothing recorded).
    obs: Obs,
    /// The capping-policy backend consulted each control period. The
    /// default [`LadderCapPolicy`] reproduces the pre-trait walk
    /// bit-for-bit; guardrails run in the BMC regardless of backend.
    policy: Box<dyn CapPolicy>,
}

impl Bmc {
    pub fn new(ladder: ThrottleLadder) -> Self {
        Bmc {
            ladder,
            cap: None,
            cap_active: false,
            rung: 0,
            hysteresis_w: 1.0,
            escalations: 0,
            deescalations: 0,
            exceptions: 0,
            stored_limit: None,
            last_telemetry: BmcTelemetry::default(),
            over_cap_since_ms: None,
            last_exception_ms: f64::NEG_INFINITY,
            sel: SystemEventLog::new(),
            chassis_on: true,
            floor_logged: false,
            guardrails: true,
            failsafe: false,
            implausible_streak: 0,
            stale_streak: 0,
            plausible_streak: 0,
            viol_streak: 0,
            under_streak: 0,
            violating: false,
            crashed: false,
            crashed_at_ms: 0.0,
            reboot_at_ms: None,
            lost_cap_commands: false,
            poll_snapshot: None,
            obs: Obs::disabled(),
            policy: Box::new(LadderCapPolicy::new()),
        }
    }

    /// Install a capping-policy backend (default: the ladder walk). The
    /// policy decides rungs; guardrails, correction time and the SEL
    /// paper trail stay in the firmware regardless.
    pub fn set_policy(&mut self, policy: Box<dyn CapPolicy>) {
        self.policy = policy;
    }

    /// The installed capping-policy backend.
    pub fn policy(&self) -> &dyn CapPolicy {
        self.policy.as_ref()
    }

    /// Switch every guardrail on or off (switching off also ends any
    /// failsafe or violation episode in progress).
    pub fn set_guardrails(&mut self, on: bool) {
        self.guardrails = on;
        if !on {
            self.failsafe = false;
            self.implausible_streak = 0;
            self.stale_streak = 0;
            self.plausible_streak = 0;
            self.viol_streak = 0;
            self.under_streak = 0;
            self.violating = false;
        }
    }

    /// Whether the failsafe rung floor is currently engaged.
    pub fn failsafe_active(&self) -> bool {
        self.failsafe
    }

    /// Whether the cap-violation detector is inside an episode.
    pub fn cap_violating(&self) -> bool {
        self.violating
    }

    /// Whether the firmware is crashed (awaiting the watchdog).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Would a `Get Power Reading` right now repeat the last answer?
    ///
    /// True only when firmware is alive, a poll has been served before,
    /// the SEL has not grown since (SEL growth is the conservative "the
    /// BMC did something" detector — cap pushes, crashes, throttle-floor
    /// and correction-time events all append records), and the rounded
    /// window average still matches the reported watts. A lock-step
    /// manager may then reuse its cached reading instead of spending a
    /// wire transaction.
    pub fn poll_would_repeat(&self) -> bool {
        !self.crashed
            && self.poll_snapshot
                == Some((self.last_telemetry.window_avg_w.round() as u16, self.sel.len()))
    }

    /// Would a control tick fed steady telemetry of `window_avg_w` watts
    /// leave every control decision untouched?
    ///
    /// True only in the boring steady state: firmware alive, no failsafe
    /// or violation episode, no guardrail streak in progress, rung 0 with
    /// no pending correction-time clock, and the reading plausible and
    /// comfortably under the cap (beyond the de-escalation hysteresis).
    /// [`crate::Machine::idle`] uses this to fast-forward quiescent idle
    /// spans.
    pub fn control_quiescent(&self, window_avg_w: f64) -> bool {
        !self.crashed
            && !self.failsafe
            && !self.violating
            && self.rung == 0
            && self.over_cap_since_ms.is_none()
            && self.implausible_streak == 0
            && self.stale_streak == 0
            && window_avg_w.is_finite()
            && window_avg_w > 0.0
            && self.policy.node_quiescent(
                window_avg_w,
                self.cap().map(|c| c.watts),
                self.hysteresis_w,
            )
    }

    /// Controller fault: when set, `Set Power Limit` and `Activate Power
    /// Limit` are acknowledged on the wire but silently not applied.
    pub fn set_lost_cap_commands(&mut self, on: bool) {
        self.lost_cap_commands = on;
    }

    /// Crash the firmware at `now_ms`. Service and control stop; volatile
    /// control state is lost on the watchdog-driven restart `dead_ms`
    /// later, while the SEL and the persistent limit survive.
    pub fn crash(&mut self, now_ms: f64, dead_ms: f64) {
        if self.crashed {
            return;
        }
        self.crashed = true;
        self.crashed_at_ms = now_ms;
        self.reboot_at_ms = Some(now_ms + dead_ms);
        self.obs.metrics.inc("bmc.crashes");
        self.obs.events.record(now_ms * 1e-3, EventKind::BmcCrash { dead_ms });
    }

    /// Watchdog timer, driven from the machine's own clock so a frozen
    /// telemetry stream cannot stall the restart. Returns the rung to
    /// apply when the firmware comes back (volatile state lost: rung 0).
    pub fn watchdog_tick(&mut self, now_ms: f64) -> Option<Rung> {
        let due = self.reboot_at_ms?;
        if now_ms < due {
            return None;
        }
        let down_ms = now_ms - self.crashed_at_ms;
        self.crashed = false;
        self.reboot_at_ms = None;
        // Volatile control state is lost; `cap`, `cap_active`,
        // `stored_limit` and the SEL persist across the reboot.
        self.rung = 0;
        self.over_cap_since_ms = None;
        self.last_exception_ms = f64::NEG_INFINITY;
        self.floor_logged = false;
        self.failsafe = false;
        self.implausible_streak = 0;
        self.stale_streak = 0;
        self.plausible_streak = 0;
        self.viol_streak = 0;
        self.under_streak = 0;
        self.violating = false;
        self.last_telemetry = BmcTelemetry { now_ms, ..BmcTelemetry::default() };
        self.obs.metrics.inc("bmc.watchdog_reboots");
        self.log_sel(
            now_ms as u64,
            SelEventType::FirmwareRebooted,
            down_ms.round().clamp(0.0, 65535.0) as u16,
        );
        self.obs.events.record(now_ms * 1e-3, EventKind::WatchdogReboot { down_ms });
        Some(self.current())
    }

    /// Start recording metrics and events (ring of `event_capacity`).
    pub fn enable_obs(&mut self, event_capacity: usize) {
        self.obs = Obs::enabled(event_capacity);
    }

    /// This node's observability sink.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable access for callers (the machine's tick) that fold their own
    /// series into the node's sink.
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Append to the SEL and mirror the append into the event log.
    fn log_sel(&mut self, timestamp_ms: u64, event: SelEventType, datum: u16) {
        self.sel.log(timestamp_ms, event, datum);
        self.obs.metrics.inc("bmc.sel_appends");
        self.obs.events.record(
            timestamp_ms as f64 * 1e-3,
            EventKind::SelAppend { event: sel_event_name(event), datum },
        );
    }

    /// The System Event Log (the paper trail for cap violations).
    pub fn sel(&self) -> &SystemEventLog {
        &self.sel
    }

    /// False once a `HardPowerOff` exception action has fired.
    pub fn chassis_on(&self) -> bool {
        self.chassis_on
    }

    /// Set (or clear) the cap directly — the in-band shortcut tests and
    /// single-node experiments use. IPMI management uses [`Bmc::serve`].
    pub fn set_cap(&mut self, cap: Option<PowerCap>) {
        self.cap = cap;
        self.cap_active = cap.is_some();
        if cap.is_none() {
            self.rung = 0;
        }
    }

    pub fn cap(&self) -> Option<PowerCap> {
        self.cap.filter(|_| self.cap_active)
    }

    /// Current rung setting.
    pub fn current(&self) -> Rung {
        self.ladder.get(self.rung)
    }

    pub fn rung_index(&self) -> usize {
        self.rung
    }

    /// (escalations, de-escalations, exhausted-ladder exceptions).
    pub fn control_stats(&self) -> (u64, u64, u64) {
        (self.escalations, self.deescalations, self.exceptions)
    }

    /// Guardrail bookkeeping for one control sample. Returns `false` when
    /// the sample is implausible and must not feed the control loop.
    fn update_guardrails(&mut self, t: &BmcTelemetry, fresh: bool) -> bool {
        if !self.guardrails {
            return true;
        }
        let implausible = !t.window_avg_w.is_finite()
            || t.window_avg_w <= 0.0
            || t.window_avg_w > IMPLAUSIBLE_MAX_W
            || !t.die_temp_c.is_finite()
            || t.die_temp_c > IMPLAUSIBLE_MAX_TEMP_C;
        self.implausible_streak = if implausible { self.implausible_streak + 1 } else { 0 };
        let stale = self.cap_active && !fresh;
        self.stale_streak = if stale { self.stale_streak + 1 } else { 0 };
        if !self.failsafe {
            if self.implausible_streak >= IMPLAUSIBLE_AFTER {
                self.engage_failsafe("implausible_reading", t);
            } else if self.stale_streak >= STALE_AFTER {
                self.engage_failsafe("stale_telemetry", t);
            }
        } else if !implausible && fresh {
            self.plausible_streak += 1;
            if self.plausible_streak >= RELEASE_AFTER {
                self.failsafe = false;
                self.plausible_streak = 0;
                self.obs.events.record(t.now_ms * 1e-3, EventKind::FailsafeReleased);
            }
        } else {
            self.plausible_streak = 0;
        }
        !implausible
    }

    fn engage_failsafe(&mut self, reason: &'static str, t: &BmcTelemetry) {
        self.failsafe = true;
        self.plausible_streak = 0;
        self.obs.metrics.inc("bmc.failsafe_engagements");
        let datum = if t.window_avg_w.is_finite() {
            t.window_avg_w.round().clamp(0.0, 65535.0) as u16
        } else {
            0
        };
        self.log_sel(t.now_ms as u64, SelEventType::FailsafeEngaged, datum);
        self.obs.events.record(
            t.now_ms * 1e-3,
            EventKind::FailsafeEngaged { reason, window_w: t.window_avg_w },
        );
    }

    /// Cap-violation detector: sustained over-cap samples open an episode
    /// (typed event, no SEL traffic — the DCMI correction-time path owns
    /// the SEL paper trail); sustained under-cap samples close it.
    fn track_violation(&mut self, cap: f64, avg: f64, now_s: f64) {
        if !self.guardrails {
            return;
        }
        if avg > cap {
            self.viol_streak += 1;
            self.under_streak = 0;
            if !self.violating && self.viol_streak >= VIOLATION_AFTER {
                self.violating = true;
                self.obs.metrics.inc("bmc.cap_violations");
                self.obs
                    .events
                    .record(now_s, EventKind::CapViolation { cap_w: cap, window_w: avg });
            }
        } else {
            self.under_streak += 1;
            self.viol_streak = 0;
            if self.violating && self.under_streak >= VIOLATION_CLEAR_AFTER {
                self.violating = false;
                self.obs.events.record(now_s, EventKind::CapViolationEnded { cap_w: cap });
            }
        }
    }

    /// One control-loop iteration. Returns the rung to apply if it
    /// changed.
    pub fn control(&mut self, telemetry: BmcTelemetry) -> Option<Rung> {
        if self.crashed {
            // Dead firmware samples nothing and moves nothing.
            return None;
        }
        let pre = self.rung;
        let fresh = telemetry.now_ms > self.last_telemetry.now_ms;
        let sample_ok = self.update_guardrails(&telemetry, fresh);
        self.last_telemetry = telemetry;
        let now_s = telemetry.now_ms * 1e-3;
        if self.failsafe {
            let floor = self.ladder.deepest();
            if self.rung < floor {
                let from = self.rung as u32;
                self.rung = floor;
                self.obs.metrics.inc("bmc.failsafe_ticks");
                self.obs.events.record(
                    now_s,
                    EventKind::RungChange {
                        from,
                        to: self.rung as u32,
                        cause: RungCause::Failsafe,
                        window_w: telemetry.window_avg_w,
                    },
                );
            }
            return (self.rung != pre).then(|| self.current());
        }
        if !sample_ok {
            // Implausible but not yet a failsafe episode: hold state.
            return None;
        }
        let cap = match self.cap() {
            Some(c) => c.watts,
            None => {
                if self.rung != 0 {
                    let from = self.rung as u32;
                    self.rung = 0;
                    self.obs.events.record(
                        now_s,
                        EventKind::RungChange {
                            from,
                            to: 0,
                            cause: RungCause::CapCleared,
                            window_w: telemetry.window_avg_w,
                        },
                    );
                    return Some(self.current());
                }
                return None;
            }
        };
        let avg = telemetry.window_avg_w;
        let old = self.rung;
        let view = NodeCapView {
            cap_w: cap,
            window_avg_w: avg,
            hysteresis_w: self.hysteresis_w,
            rung: self.rung,
            deepest: self.ladder.deepest(),
            busy_frac: telemetry.busy_frac,
            issue_frac: telemetry.issue_frac,
            now_ms: telemetry.now_ms,
            tail_ms: telemetry.tail_ms,
        };
        match self.policy.node_decide(&view) {
            CapDecision::Hold => {}
            CapDecision::Escalate => {
                if self.rung == self.ladder.deepest() {
                    // Ladder exhausted: count an exception, keep throttling.
                    self.note_throttle_floor(avg, telemetry.now_ms, now_s);
                } else {
                    self.move_rung(self.rung + 1, RungCause::OverCap, avg, now_s);
                }
            }
            CapDecision::Deescalate => {
                if self.rung > 0 {
                    self.move_rung(self.rung - 1, RungCause::UnderCap, avg, now_s);
                }
            }
            CapDecision::SetRung(target) => {
                let target = target.min(self.ladder.deepest());
                if target != self.rung {
                    self.obs.metrics.inc("policy.jumps");
                    self.move_rung(target, RungCause::Policy, avg, now_s);
                }
                if avg > cap && self.rung == self.ladder.deepest() {
                    self.note_throttle_floor(avg, telemetry.now_ms, now_s);
                }
            }
        }
        self.track_violation(cap, avg, now_s);
        self.track_correction_time(cap, avg, telemetry.now_ms);
        (self.rung != old).then(|| self.current())
    }

    /// Apply a rung move decided by the policy, with the same counters
    /// and event stream the inline walk maintained.
    fn move_rung(&mut self, to: usize, cause: RungCause, window_w: f64, now_s: f64) {
        let from = self.rung;
        if to == from {
            return;
        }
        if to > from {
            self.escalations += 1;
            self.obs.metrics.inc("bmc.escalations");
        } else {
            self.deescalations += 1;
            self.obs.metrics.inc("bmc.deescalations");
        }
        self.rung = to;
        self.obs.events.record(
            now_s,
            EventKind::RungChange { from: from as u32, to: to as u32, cause, window_w },
        );
    }

    /// Exhausted-ladder bookkeeping: count the exception and log the
    /// throttle floor once per episode.
    fn note_throttle_floor(&mut self, avg: f64, now_ms: f64, now_s: f64) {
        self.exceptions += 1;
        self.obs.metrics.inc("bmc.floor_ticks");
        if !self.floor_logged {
            self.floor_logged = true;
            self.log_sel(now_ms as u64, SelEventType::ThrottleFloorReached, avg.round() as u16);
            self.obs.events.record(now_s, EventKind::ThrottleFloor { window_w: avg });
        }
    }

    /// DCMI correction-time semantics: if the node stays above the cap
    /// for longer than the limit's correction time, raise the exception
    /// action — log a SEL record (`LogOnly`) or cut chassis power
    /// (`HardPowerOff`). One exception per correction interval.
    fn track_correction_time(&mut self, cap: f64, avg: f64, now_ms: f64) {
        if avg <= cap {
            self.over_cap_since_ms = None;
            return;
        }
        let since = *self.over_cap_since_ms.get_or_insert(now_ms);
        let correction_ms = self.stored_limit.map_or(1000.0, |l| l.correction_ms as f64);
        if now_ms - since >= correction_ms && now_ms - self.last_exception_ms >= correction_ms {
            self.last_exception_ms = now_ms;
            self.log_sel(now_ms as u64, SelEventType::PowerLimitExceeded, avg.round() as u16);
            if self.stored_limit.map(|l| l.action) == Some(ExceptionAction::HardPowerOff) {
                self.chassis_on = false;
            }
        }
    }

    /// Service pending IPMI requests on `port`. Called from the machine's
    /// control tick — the out-of-band path shares no state with the
    /// workload.
    ///
    /// Frames that fail to decode (corrupted in transit on a faulty link)
    /// are discarded, as real firmware does — the manager's checksum-less
    /// silence turns into a retry on its side. Only a closed channel
    /// stops service.
    pub fn serve(&mut self, port: &BmcPort) -> Result<(), IpmiError> {
        loop {
            match port.poll() {
                Ok(Some(req)) => {
                    if self.crashed {
                        // Dead firmware: the frame is consumed by the NIC
                        // but never answered; the manager times out.
                        continue;
                    }
                    let resp = self.handle(&req);
                    port.send(&resp)?;
                }
                Ok(None) => return Ok(()),
                Err(IpmiError::ChannelClosed) => return Err(IpmiError::ChannelClosed),
                Err(_) => continue,
            }
        }
    }

    fn handle(&mut self, req: &Request) -> Response {
        match (req.netfn, req.cmd) {
            (NetFn::GroupExt, dcmi::CMD_GET_POWER_READING) => {
                let t = self.last_telemetry;
                let reading = PowerReading {
                    current_w: t.window_avg_w.round() as u16,
                    min_w: t.min_w.round() as u16,
                    max_w: t.max_w.round() as u16,
                    avg_w: t.run_avg_w.round() as u16,
                    window_ms: 1000,
                    active: true,
                };
                self.poll_snapshot = Some((reading.current_w, self.sel.len()));
                Response::ok(req, reading.encode())
            }
            (NetFn::GroupExt, dcmi::CMD_SET_POWER_LIMIT) => match SetPowerLimit::parse(req) {
                Ok(limit) if limit.limit_w == 0 => {
                    Response::err(req, CompletionCode::ParameterOutOfRange)
                }
                Ok(_) if self.lost_cap_commands => {
                    // Controller fault: acknowledged on the wire, never
                    // committed to the control loop.
                    self.obs.metrics.inc("bmc.lost_cap_commands");
                    Response::ok(req, vec![dcmi::DCMI_GROUP_EXT])
                }
                Ok(limit) => {
                    let cap = match PowerCap::new(limit.limit_w as f64) {
                        Ok(c) => c,
                        Err(_) => return Response::err(req, CompletionCode::ParameterOutOfRange),
                    };
                    self.stored_limit = Some(limit);
                    self.cap = Some(cap);
                    self.log_sel(
                        self.last_telemetry.now_ms as u64,
                        SelEventType::PowerLimitConfigured,
                        limit.limit_w,
                    );
                    self.obs.metrics.inc("dcmi.set_limit");
                    self.obs.events.record(
                        self.last_telemetry.now_ms * 1e-3,
                        EventKind::DcmiSetLimit {
                            limit_w: limit.limit_w,
                            correction_ms: limit.correction_ms,
                        },
                    );
                    // DCMI semantics: the limit takes effect once activated.
                    Response::ok(req, vec![dcmi::DCMI_GROUP_EXT])
                }
                Err(_) => Response::err(req, CompletionCode::RequestDataLengthInvalid),
            },
            (NetFn::GroupExt, dcmi::CMD_GET_POWER_LIMIT) => {
                self.obs.metrics.inc("dcmi.get_limit");
                self.obs.events.record(self.last_telemetry.now_ms * 1e-3, EventKind::DcmiGetLimit);
                match self.stored_limit {
                    Some(limit) => Response::ok(req, limit.encode()),
                    None => Response::err(req, CompletionCode::DestinationUnavailable),
                }
            }
            (NetFn::GroupExt, dcmi::CMD_ACTIVATE_POWER_LIMIT) => {
                match ActivatePowerLimit::parse(req) {
                    Ok(_) if self.lost_cap_commands => {
                        self.obs.metrics.inc("bmc.lost_cap_commands");
                        Response::ok(req, vec![dcmi::DCMI_GROUP_EXT])
                    }
                    Ok(on) => {
                        if on && self.cap.is_none() {
                            Response::err(req, CompletionCode::DestinationUnavailable)
                        } else {
                            self.cap_active = on;
                            if !on {
                                self.rung = 0;
                            }
                            self.obs.metrics.inc("dcmi.activate");
                            self.obs.events.record(
                                self.last_telemetry.now_ms * 1e-3,
                                EventKind::DcmiActivate { on },
                            );
                            Response::ok(req, vec![dcmi::DCMI_GROUP_EXT])
                        }
                    }
                    Err(_) => Response::err(req, CompletionCode::RequestDataLengthInvalid),
                }
            }
            (NetFn::Sensor, CMD_GET_SENSOR_READING) => match SensorRead::parse(req) {
                Ok(id) => {
                    let t = self.last_telemetry;
                    let v = match id {
                        SensorId::InletTempC => t.inlet_temp_c,
                        SensorId::DieTempC => t.die_temp_c,
                        SensorId::NodePowerW => t.window_avg_w,
                    };
                    Response::ok(req, SensorValue::new(id, v).encode())
                }
                Err(_) => Response::err(req, CompletionCode::RequestDataLengthInvalid),
            },
            (NetFn::App, CMD_GET_DEVICE_ID) => Response::ok(req, DeviceId::capsim_bmc().encode()),
            (NetFn::App, CMD_GET_DCMI_CAPABILITIES) => {
                Response::ok(req, DcmiCapabilities::capsim_node().encode())
            }
            (NetFn::App, CMD_GET_SEL_INFO) => {
                Response::ok(req, (self.sel.len() as u16).to_le_bytes().to_vec())
            }
            (NetFn::App, CMD_GET_SEL_ENTRY) => {
                if req.payload.len() != 2 {
                    return Response::err(req, CompletionCode::RequestDataLengthInvalid);
                }
                let id = u16::from_le_bytes([req.payload[0], req.payload[1]]);
                match self.sel.get(id) {
                    Some(e) => Response::ok(req, e.encode()),
                    None => Response::err(req, CompletionCode::ParameterOutOfRange),
                }
            }
            (NetFn::App, CMD_CLEAR_SEL) => {
                self.sel.clear();
                Response::ok(req, bytes::Bytes::new())
            }
            _ => Response::err(req, CompletionCode::InvalidCommand),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsim_cpu::PStateTable;
    use capsim_ipmi::dcmi::{ExceptionAction, GetPowerReading};
    use capsim_ipmi::LanChannel;
    use capsim_mem::MemReconfig;

    fn bmc() -> Bmc {
        Bmc::new(ThrottleLadder::e5_2680(&PStateTable::e5_2680(), MemReconfig::full()))
    }

    fn tele(w: f64) -> BmcTelemetry {
        BmcTelemetry { window_avg_w: w, run_avg_w: w, min_w: w, max_w: w, ..Default::default() }
    }

    #[test]
    fn no_cap_means_no_throttle() {
        let mut b = bmc();
        assert!(b.control(tele(200.0)).is_none());
        assert_eq!(b.rung_index(), 0);
    }

    #[test]
    fn over_cap_escalates_one_rung_per_tick() {
        let mut b = bmc();
        b.set_cap(Some(PowerCap::new(140.0).unwrap()));
        for i in 1..=5 {
            let r = b.control(tele(150.0));
            assert!(r.is_some());
            assert_eq!(b.rung_index(), i);
        }
    }

    #[test]
    fn dithers_around_a_cap_between_two_rungs() {
        let mut b = bmc();
        b.set_cap(Some(PowerCap::new(150.0).unwrap()));
        b.control(tele(155.0)); // up to rung 1
        b.control(tele(145.0)); // comfortably below cap-hysteresis: down
        assert_eq!(b.rung_index(), 0);
        b.control(tele(155.0));
        assert_eq!(b.rung_index(), 1);
        let (esc, deesc, _) = b.control_stats();
        assert!(esc >= 2 && deesc >= 1);
    }

    #[test]
    fn hysteresis_prevents_deescalation_just_under_the_cap() {
        let mut b = bmc();
        b.set_cap(Some(PowerCap::new(150.0).unwrap()));
        b.control(tele(151.0));
        assert_eq!(b.rung_index(), 1);
        // 149 is under the cap but within the 2 W hysteresis band: hold.
        assert!(b.control(tele(149.0)).is_none());
        assert_eq!(b.rung_index(), 1);
    }

    #[test]
    fn exhausted_ladder_logs_exceptions_and_holds_deepest() {
        let mut b = bmc();
        b.set_cap(Some(PowerCap::new(50.0).unwrap())); // unreachable
        for _ in 0..100 {
            b.control(tele(124.0));
        }
        assert_eq!(b.rung_index(), b.ladder.deepest());
        let (_, _, ex) = b.control_stats();
        assert!(ex > 0, "exceptions logged once pinned at the deepest rung");
    }

    #[test]
    fn clearing_the_cap_returns_to_full_speed() {
        let mut b = bmc();
        b.set_cap(Some(PowerCap::new(120.0).unwrap()));
        for _ in 0..10 {
            b.control(tele(150.0));
        }
        assert!(b.rung_index() > 0);
        b.set_cap(None);
        assert_eq!(b.rung_index(), 0);
        assert!(b.control(tele(150.0)).is_none());
    }

    #[test]
    fn ipmi_set_and_activate_limit_roundtrip() {
        let mut b = bmc();
        let (mut mgr, port) = LanChannel::pair();
        let limit = PowerLimit {
            limit_w: 135,
            correction_ms: 1000,
            sampling_s: 1,
            action: ExceptionAction::LogOnly,
        };
        let seq = mgr.next_seq();
        mgr.send(&SetPowerLimit(limit).request(seq)).unwrap();
        b.serve(&port).unwrap();
        mgr.try_recv().unwrap().unwrap().into_ok().unwrap();
        // Limit stored but capping starts at activation.
        assert!(b.cap().is_none());
        let seq = mgr.next_seq();
        mgr.send(&ActivatePowerLimit { activate: true }.request(seq)).unwrap();
        b.serve(&port).unwrap();
        mgr.try_recv().unwrap().unwrap().into_ok().unwrap();
        assert_eq!(b.cap().unwrap().watts, 135.0);
    }

    #[test]
    fn ipmi_power_reading_reflects_telemetry() {
        let mut b = bmc();
        b.control(tele(153.0));
        let (mut mgr, port) = LanChannel::pair();
        let seq = mgr.next_seq();
        mgr.send(&GetPowerReading::request(seq)).unwrap();
        b.serve(&port).unwrap();
        let payload = mgr.try_recv().unwrap().unwrap().into_ok().unwrap();
        let r = PowerReading::decode(&payload).unwrap();
        assert_eq!(r.current_w, 153);
        assert!(r.active);
    }

    #[test]
    fn ipmi_activate_without_limit_fails() {
        let mut b = bmc();
        let (mut mgr, port) = LanChannel::pair();
        let seq = mgr.next_seq();
        mgr.send(&ActivatePowerLimit { activate: true }.request(seq)).unwrap();
        b.serve(&port).unwrap();
        assert!(mgr.try_recv().unwrap().unwrap().into_ok().is_err());
    }

    #[test]
    fn ipmi_unknown_command_gets_invalid_command() {
        let mut b = bmc();
        let (mut mgr, port) = LanChannel::pair();
        let seq = mgr.next_seq();
        mgr.send(&Request::new(NetFn::App, 0x77, seq, Vec::new())).unwrap();
        b.serve(&port).unwrap();
        let resp = mgr.try_recv().unwrap().unwrap();
        assert_eq!(resp.completion, CompletionCode::InvalidCommand);
    }

    #[test]
    fn correction_time_logs_sel_entries_for_sustained_violations() {
        let mut b = bmc();
        let (mut mgr, port) = LanChannel::pair();
        let limit = PowerLimit {
            limit_w: 120,
            correction_ms: 50,
            sampling_s: 1,
            action: ExceptionAction::LogOnly,
        };
        let seq = mgr.next_seq();
        mgr.send(&SetPowerLimit(limit).request(seq)).unwrap();
        b.serve(&port).unwrap();
        mgr.try_recv().unwrap().unwrap().into_ok().unwrap();
        let seq = mgr.next_seq();
        mgr.send(&ActivatePowerLimit { activate: true }.request(seq)).unwrap();
        b.serve(&port).unwrap();
        mgr.try_recv().unwrap().unwrap().into_ok().unwrap();
        // Sustained 124 W against a 120 W cap: one exceeded entry per
        // 50 ms correction interval, plus the configured + floor entries.
        for t in 0..400u64 {
            let mut tel = tele(124.0);
            tel.now_ms = t as f64;
            b.control(tel);
        }
        assert!(b.chassis_on(), "LogOnly never powers off");
        let exceeded: Vec<_> = b
            .sel()
            .iter()
            .filter(|e| e.event == capsim_ipmi::SelEventType::PowerLimitExceeded)
            .collect();
        assert!(
            (6..=9).contains(&exceeded.len()),
            "~one per 50 ms over 400 ms, got {}",
            exceeded.len()
        );
        assert_eq!(exceeded[0].datum, 124);
        assert!(b.sel().iter().any(|e| e.event == capsim_ipmi::SelEventType::ThrottleFloorReached));
    }

    #[test]
    fn hard_power_off_action_cuts_the_chassis() {
        let mut b = bmc();
        b.stored_limit = Some(PowerLimit {
            limit_w: 110,
            correction_ms: 20,
            sampling_s: 1,
            action: ExceptionAction::HardPowerOff,
        });
        b.set_cap(Some(PowerCap::new(110.0).unwrap()));
        for t in 0..100u64 {
            let mut tel = tele(125.0);
            tel.now_ms = t as f64;
            b.control(tel);
        }
        assert!(!b.chassis_on(), "sustained violation with HardPowerOff");
    }

    #[test]
    fn dipping_under_the_cap_resets_the_correction_clock() {
        let mut b = bmc();
        b.stored_limit = Some(PowerLimit {
            limit_w: 140,
            correction_ms: 100,
            sampling_s: 1,
            action: ExceptionAction::LogOnly,
        });
        b.set_cap(Some(PowerCap::new(140.0).unwrap()));
        // Alternate over/under faster than the correction time.
        for t in 0..300u64 {
            let w = if t % 4 < 2 { 145.0 } else { 130.0 };
            let mut tel = tele(w);
            tel.now_ms = t as f64;
            b.control(tel);
        }
        let exceeded = b
            .sel()
            .iter()
            .filter(|e| e.event == capsim_ipmi::SelEventType::PowerLimitExceeded)
            .count();
        assert_eq!(exceeded, 0, "violations never sustained long enough");
    }

    #[test]
    fn ipmi_sel_and_identity_commands() {
        use capsim_ipmi::app_cmds::{get_capabilities_request, get_device_id_request};
        use capsim_ipmi::sel::{clear_sel_request, get_sel_entry_request, get_sel_info_request};
        let mut b = bmc();
        let (mut mgr, port) = LanChannel::pair();
        // Identity.
        let seq = mgr.next_seq();
        mgr.send(&get_device_id_request(seq)).unwrap();
        b.serve(&port).unwrap();
        let id =
            capsim_ipmi::DeviceId::decode(&mgr.try_recv().unwrap().unwrap().into_ok().unwrap())
                .unwrap();
        assert_eq!(id.manufacturer, 343);
        // Capabilities.
        let seq = mgr.next_seq();
        mgr.send(&get_capabilities_request(seq)).unwrap();
        b.serve(&port).unwrap();
        let caps = capsim_ipmi::DcmiCapabilities::decode(
            &mgr.try_recv().unwrap().unwrap().into_ok().unwrap(),
        )
        .unwrap();
        assert!(caps.power_management);
        // Log something, read it back, clear it.
        b.sel.log(5, capsim_ipmi::SelEventType::PowerLimitExceeded, 124);
        let seq = mgr.next_seq();
        mgr.send(&get_sel_info_request(seq)).unwrap();
        b.serve(&port).unwrap();
        let info = mgr.try_recv().unwrap().unwrap().into_ok().unwrap();
        assert_eq!(u16::from_le_bytes([info[0], info[1]]), 1);
        let seq = mgr.next_seq();
        mgr.send(&get_sel_entry_request(seq, 0xffff)).unwrap();
        b.serve(&port).unwrap();
        let e = capsim_ipmi::SelEntry::decode(&mgr.try_recv().unwrap().unwrap().into_ok().unwrap())
            .unwrap();
        assert_eq!(e.datum, 124);
        let seq = mgr.next_seq();
        mgr.send(&clear_sel_request(seq)).unwrap();
        b.serve(&port).unwrap();
        mgr.try_recv().unwrap().unwrap().into_ok().unwrap();
        assert!(b.sel().is_empty());
    }

    #[test]
    fn power_cap_rejects_nonsense_watts() {
        assert!(PowerCap::new(135.0).is_ok());
        assert!(PowerCap::new(0.1).is_ok());
        for bad in [0.0, -1.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = PowerCap::new(bad).unwrap_err();
            assert!(err.to_string().contains("invalid power cap"), "{err}");
        }
    }

    /// Fresh telemetry with an advancing clock, for guardrail tests.
    fn fresh(w: f64, t_ms: f64) -> BmcTelemetry {
        let mut t = tele(w);
        t.now_ms = t_ms;
        t
    }

    #[test]
    fn sensor_dropout_engages_the_failsafe_floor_and_releases() {
        let mut b = bmc();
        b.set_cap(Some(PowerCap::new(120.0).unwrap()));
        let mut t_ms = 0.0;
        // Dropout: zero-watt readings are implausible; after the debounce
        // the failsafe pins the deepest rung in a single move.
        for _ in 0..IMPLAUSIBLE_AFTER {
            t_ms += 1.0;
            b.control(fresh(0.0, t_ms));
        }
        assert!(b.failsafe_active());
        assert_eq!(b.rung_index(), b.ladder.deepest());
        assert!(b.sel().iter().any(|e| e.event == SelEventType::FailsafeEngaged));
        // Plausible, fresh samples release it; the releasing tick already
        // resumes the normal loop, which de-escalates one rung per tick.
        for _ in 0..RELEASE_AFTER {
            t_ms += 1.0;
            b.control(fresh(110.0, t_ms));
        }
        assert!(!b.failsafe_active());
        let deepest = b.ladder.deepest();
        assert_eq!(b.rung_index(), deepest - 1);
        t_ms += 1.0;
        b.control(fresh(110.0, t_ms));
        assert_eq!(b.rung_index(), deepest - 2, "normal de-escalation resumes");
    }

    #[test]
    fn frozen_telemetry_clock_engages_the_stale_failsafe() {
        let mut b = bmc();
        b.set_cap(Some(PowerCap::new(140.0).unwrap()));
        // Plausible watts, but the timestamp never advances.
        for _ in 0..40 {
            b.control(fresh(130.0, 5.0));
        }
        assert!(b.failsafe_active());
        assert_eq!(b.rung_index(), b.ladder.deepest());
    }

    #[test]
    fn single_spike_is_debounced_not_escalated() {
        let mut b = bmc();
        b.set_cap(Some(PowerCap::new(140.0).unwrap()));
        b.control(fresh(130.0, 1.0));
        let rung_before = b.rung_index();
        // One implausible 5 kW spike: held, not fed to the loop.
        b.control(fresh(5000.0, 2.0));
        assert_eq!(b.rung_index(), rung_before);
        assert!(!b.failsafe_active());
        b.control(fresh(130.0, 3.0));
        assert!(!b.failsafe_active());
    }

    #[test]
    fn cap_violation_detector_opens_and_closes_episodes_without_sel() {
        let mut b = bmc();
        b.enable_obs(64);
        b.set_cap(Some(PowerCap::new(120.0).unwrap()));
        let mut t_ms = 0.0;
        for _ in 0..VIOLATION_AFTER {
            t_ms += 1.0;
            b.control(fresh(124.0, t_ms));
        }
        assert!(b.cap_violating());
        for _ in 0..VIOLATION_CLEAR_AFTER {
            t_ms += 1.0;
            b.control(fresh(110.0, t_ms));
        }
        assert!(!b.cap_violating());
        let names: Vec<&str> = b.obs().events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"cap_violation"));
        assert!(names.contains(&"cap_violation_ended"));
        // The detector is telemetry-only: SEL traffic stays owned by the
        // DCMI correction-time path.
        assert!(!b.sel().iter().any(|e| e.event == SelEventType::PowerLimitExceeded));
    }

    #[test]
    fn crash_loses_volatile_state_but_keeps_sel_and_persistent_cap() {
        let mut b = bmc();
        b.set_cap(Some(PowerCap::new(120.0).unwrap()));
        let mut t_ms = 0.0;
        for _ in 0..5 {
            t_ms += 1.0;
            b.control(fresh(150.0, t_ms));
        }
        assert_eq!(b.rung_index(), 5);
        let sel_before = b.sel().len();
        b.crash(t_ms, 100.0);
        assert!(b.is_crashed());
        // Dead firmware: control is inert.
        assert!(b.control(fresh(150.0, t_ms + 1.0)).is_none());
        assert_eq!(b.rung_index(), 5, "hardware holds its rung while firmware is down");
        // Watchdog too early: nothing.
        assert!(b.watchdog_tick(t_ms + 50.0).is_none());
        // Watchdog fires: rung resets (volatile lost), cap + SEL survive.
        let rung = b.watchdog_tick(t_ms + 100.0).expect("reboot applies rung 0");
        assert_eq!(rung, b.ladder.get(0));
        assert!(!b.is_crashed());
        assert_eq!(b.cap().unwrap().watts, 120.0);
        assert!(b.sel().len() > sel_before, "reboot logged to the surviving SEL");
        assert!(b.sel().iter().any(|e| e.event == SelEventType::FirmwareRebooted));
    }

    #[test]
    fn crashed_firmware_drops_ipmi_requests() {
        let mut b = bmc();
        b.crash(0.0, 1000.0);
        let (mut mgr, port) = LanChannel::pair();
        let seq = mgr.next_seq();
        mgr.send(&GetPowerReading::request(seq)).unwrap();
        b.serve(&port).unwrap();
        assert!(mgr.try_recv().unwrap().is_none(), "no answer from dead firmware");
    }

    #[test]
    fn lost_cap_commands_are_acked_but_not_applied() {
        let mut b = bmc();
        b.set_lost_cap_commands(true);
        let (mut mgr, port) = LanChannel::pair();
        let limit = PowerLimit {
            limit_w: 135,
            correction_ms: 1000,
            sampling_s: 1,
            action: ExceptionAction::LogOnly,
        };
        let seq = mgr.next_seq();
        mgr.send(&SetPowerLimit(limit).request(seq)).unwrap();
        b.serve(&port).unwrap();
        // The manager sees success…
        mgr.try_recv().unwrap().unwrap().into_ok().unwrap();
        let seq = mgr.next_seq();
        mgr.send(&ActivatePowerLimit { activate: true }.request(seq)).unwrap();
        b.serve(&port).unwrap();
        mgr.try_recv().unwrap().unwrap().into_ok().unwrap();
        // …but nothing was committed.
        assert!(b.cap().is_none());
        b.set_lost_cap_commands(false);
        let seq = mgr.next_seq();
        mgr.send(&SetPowerLimit(limit).request(seq)).unwrap();
        b.serve(&port).unwrap();
        mgr.try_recv().unwrap().unwrap().into_ok().unwrap();
        let seq = mgr.next_seq();
        mgr.send(&ActivatePowerLimit { activate: true }.request(seq)).unwrap();
        b.serve(&port).unwrap();
        mgr.try_recv().unwrap().unwrap().into_ok().unwrap();
        assert_eq!(b.cap().unwrap().watts, 135.0);
    }

    #[test]
    fn ipmi_sensor_reads_report_temperatures() {
        let mut b = bmc();
        b.control(BmcTelemetry { die_temp_c: 61.25, inlet_temp_c: 27.0, ..tele(150.0) });
        let (mut mgr, port) = LanChannel::pair();
        let seq = mgr.next_seq();
        mgr.send(&SensorRead { sensor: SensorId::DieTempC }.request(seq)).unwrap();
        b.serve(&port).unwrap();
        let v = SensorValue::decode(&mgr.try_recv().unwrap().unwrap().into_ok().unwrap()).unwrap();
        assert_eq!(v.value(), 61.25);
    }
}
