//! `capsim-node` — the simulated node under study.
//!
//! Assembles the substrates into one [`Machine`]: cores (timing, P/T/C
//! states, branch prediction), the memory hierarchy, the power/thermal
//! model and the **BMC firmware** that enforces power caps out-of-band.
//!
//! The BMC implements the paper's §II control architecture: it monitors a
//! windowed average of node power and walks a totally-ordered **throttle
//! ladder** ([`ladder`]) — P-state DVFS first, then T-state duty cycling,
//! dynamic cache reconfiguration, TLB shrink and memory gating — dithering
//! between adjacent rungs when the cap falls between their power levels
//! ("the BMC switches between the two states in an attempt to honor the
//! power cap").
//!
//! Workloads run *on* the machine through the [`machine::Machine`] API:
//! every load/store/branch/block is charged through the hierarchy and the
//! timing model, so counters, time, power and energy all emerge from the
//! same execution.
//!
//! The rung *decision* each control period is pluggable: the BMC consults
//! a [`capsim_policy::CapPolicy`] backend (re-exported here as
//! [`policy`]), defaulting to the ladder walk described above. Guardrails
//! and the SEL paper trail stay in the firmware whatever the backend.

pub mod bmc;
pub mod builder;
pub mod config;
pub mod ladder;
pub mod machine;
pub mod powercap;
pub mod region;
pub mod trace;
pub mod workload;

pub use capsim_policy as policy;

pub use bmc::{Bmc, BmcTelemetry, InvalidPowerCap, PowerCap};
pub use builder::MachineBuilder;
pub use config::MachineConfig;
pub use ladder::{Rung, ThrottleLadder};
pub use machine::{EpochWorkload, FailoverRequest, Machine, QueueRoom, RunStats, SensorFault};
pub use powercap::{PowercapError, PowercapFs};
pub use region::{CodeBlock, Region};
pub use trace::{RunTrace, TraceSample};
pub use workload::{LoadKind, SyntheticLoad, WorkloadFactory, WorkloadSpec};
