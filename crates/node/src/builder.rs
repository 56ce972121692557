//! Fluent construction of a [`Machine`].
//!
//! Callers used to reach into [`MachineConfig`] fields directly; the
//! builder names the knobs experiments actually turn (platform preset,
//! seed, core count, control cadence, calibration overrides, cap,
//! management port) and keeps the config structs an implementation
//! detail.
//!
//! ```
//! use capsim_node::MachineBuilder;
//!
//! let mut m = MachineBuilder::e5_2680()
//!     .seed(7)
//!     .cap_w(135.0)
//!     .build();
//! m.compute(1000);
//! assert!(m.power_cap().is_some());
//! ```

use capsim_ipmi::BmcPort;
use capsim_policy::CapPolicy;

use crate::bmc::PowerCap;
use crate::config::MachineConfig;
use crate::ladder::ThrottleLadder;
use crate::machine::Machine;

/// Fluent constructor for [`Machine`]. Start from a platform preset,
/// override what the experiment varies, then [`MachineBuilder::build`].
pub struct MachineBuilder {
    cfg: MachineConfig,
    ladder: Option<ThrottleLadder>,
    cap_w: Option<f64>,
    bmc_port: Option<BmcPort>,
    trace_capacity: Option<usize>,
    cap_policy: Option<Box<dyn CapPolicy>>,
}

impl MachineBuilder {
    /// Start from an arbitrary configuration.
    pub fn from_config(cfg: MachineConfig) -> Self {
        MachineBuilder {
            cfg,
            ladder: None,
            cap_w: None,
            bmc_port: None,
            trace_capacity: None,
            cap_policy: None,
        }
    }

    /// The paper's platform: dual Xeon E5-2680 node, turbo off.
    pub fn e5_2680() -> Self {
        Self::from_config(MachineConfig::e5_2680(0))
    }

    /// The paper's platform with single-core Turbo Boost enabled.
    pub fn e5_2680_turbo() -> Self {
        Self::from_config(MachineConfig::e5_2680_turbo(0))
    }

    /// A tiny machine for fast tests.
    pub fn tiny() -> Self {
        Self::from_config(MachineConfig::tiny(0))
    }

    /// Seed for everything stochastic in the machine.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Number of cores executing workload code.
    pub fn cores(mut self, n: usize) -> Self {
        self.cfg.n_cores = n;
        self
    }

    /// BMC control-loop period in microseconds of simulated time.
    pub fn control_period_us(mut self, us: f64) -> Self {
        self.cfg.control_period_us = us;
        self
    }

    /// Power-meter averaging window in seconds.
    pub fn meter_window_s(mut self, s: f64) -> Self {
        self.cfg.meter_window_s = s;
        self
    }

    /// Branch-predictor table size (log2 entries).
    pub fn predictor_bits(mut self, bits: u32) -> Self {
        self.cfg.predictor_bits = bits;
        self
    }

    /// Shorten control cadence for unit-test-speed convergence
    /// (10 µs period, 0.2 ms meter window).
    pub fn fast_control(self) -> Self {
        self.control_period_us(10.0).meter_window_s(0.0002)
    }

    /// Arbitrary calibration override — full access to the underlying
    /// [`MachineConfig`] for geometry/timing/power tuning the named
    /// setters don't cover.
    pub fn tune(mut self, f: impl FnOnce(&mut MachineConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Use a custom throttle ladder (ablations swap in
    /// [`ThrottleLadder::dvfs_only`]).
    pub fn ladder(mut self, ladder: ThrottleLadder) -> Self {
        self.ladder = Some(ladder);
        self
    }

    /// Install a capping-policy backend on the BMC. The default is the
    /// ladder walk ([`capsim_policy::LadderCapPolicy`]); governor and
    /// tabular-RL backends live in `capsim-policy`.
    pub fn cap_policy(mut self, policy: Box<dyn CapPolicy>) -> Self {
        self.cap_policy = Some(policy);
        self
    }

    /// Apply a power cap at construction (in-band shortcut; management
    /// over IPMI uses [`MachineBuilder::bmc_port`]).
    pub fn cap_w(mut self, watts: f64) -> Self {
        self.cap_w = Some(watts);
        self
    }

    /// Attach the out-of-band management port (from
    /// `capsim_ipmi::LanChannel::pair`).
    pub fn bmc_port(mut self, port: BmcPort) -> Self {
        self.bmc_port = Some(port);
        self
    }

    /// Enable per-control-tick tracing with the given sample capacity.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Validate the configuration and construct the machine.
    pub fn build(self) -> Machine {
        let mut m = match self.ladder {
            Some(ladder) => Machine::with_ladder(self.cfg, ladder),
            None => Machine::new(self.cfg),
        };
        if let Some(w) = self.cap_w {
            m.set_power_cap(Some(PowerCap::new(w).unwrap()));
        }
        if let Some(port) = self.bmc_port {
            m.attach_bmc_port(port);
        }
        if let Some(cap) = self.trace_capacity {
            m.enable_trace(cap);
        }
        if let Some(policy) = self.cap_policy {
            m.set_cap_policy(policy);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_matches_direct_construction() {
        let mut built = MachineBuilder::tiny().seed(7).build();
        let mut direct = Machine::new(MachineConfig::tiny(7));
        built.compute(10_000);
        direct.compute(10_000);
        assert_eq!(built.now_s(), direct.now_s());
    }

    #[test]
    fn builder_applies_cap_port_and_overrides() {
        let (mut mgr, port) = capsim_ipmi::LanChannel::pair();
        let mut m = MachineBuilder::tiny()
            .seed(3)
            .fast_control()
            .cap_w(140.0)
            .bmc_port(port)
            .tune(|c| c.predictor_bits = 8)
            .build();
        assert_eq!(m.power_cap().unwrap().watts, 140.0);
        assert_eq!(m.config().control_period_us, 10.0);
        assert_eq!(m.config().predictor_bits, 8);
        // The port is attached: a request is answered at the next service.
        let req = capsim_ipmi::GetPowerReading::request(mgr.next_seq());
        mgr.send(&req).unwrap();
        m.service_bmc();
        assert!(mgr.try_recv().unwrap().is_some());
    }
}
