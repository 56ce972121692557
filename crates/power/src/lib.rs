//! `capsim-power` — node power, energy and thermal substrate.
//!
//! Models the physics §II-B of the paper leans on:
//!
//! * dynamic (switching) power `α·C·f·V²` ([`dynamic`]),
//! * static/leakage power, voltage- and temperature-dependent
//!   ([`leakage`]),
//! * a whole-node breakdown (platform + sockets + uncore + DRAM) whose
//!   constants are calibrated to the paper's anchors: idle 100–103 W,
//!   Stereo baseline ≈153 W, SIRE/RSM baseline ≈157 W ([`node`]),
//! * a first-order RC thermal model ([`thermal`]),
//! * a Watts Up!-style sampling meter that also integrates energy
//!   ([`meter`]).

pub mod dynamic;
pub mod leakage;
pub mod meter;
pub mod node;
pub mod rapl;
pub mod thermal;

pub use dynamic::dynamic_power_w;
pub use leakage::leakage_power_w;
pub use meter::PowerMeter;
pub use node::{ActivityWindow, NodePowerModel, PowerBreakdown, PowerParams};
pub use rapl::{msr_delta_joules, RaplCounters, RaplDomain, ENERGY_UNIT_J};
pub use thermal::ThermalModel;
