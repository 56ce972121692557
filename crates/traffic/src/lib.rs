//! # capsim-traffic — request-serving workloads for power-capped fleets
//!
//! Batch kernels measure what capping does to *wall time*; this crate
//! measures what it does to *users*. Three pieces:
//!
//! - [`ArrivalCurve`] / [`ArrivalProcess`]: deterministic seeded
//!   open-loop arrival traces (constant, diurnal, flash crowd), every
//!   draw a pure function of one splitmix seed.
//! - [`TrafficSpec`] / [`TrafficWorkload`]: per-node bounded request
//!   queues that map service demand onto the `EpochWorkload`
//!   machine-stepping API and record latency/goodput/SLO series into
//!   each node's request books (log-spaced latency buckets,
//!   completed-vs-shed counters), with observability on or off.
//! - [`EmergencyConfig`]: the power-emergency experiment — an
//!   oversubscribed root budget plus a chaos fault plan while the fleet
//!   keeps serving a diurnal + flash-crowd trace; policy backends are
//!   compared on `FleetReport::slo_violations_per_joule`.
//!
//! Everything inherits the fleet determinism contract: the same scenario
//! is byte-identical serial and parallel, at any worker count.

pub mod arrival;
pub mod emergency;
pub mod workload;

pub use arrival::{ArrivalCurve, ArrivalProcess};
pub use emergency::EmergencyConfig;
pub use workload::{
    AimdSpec, BrownoutSpec, ClientSpec, InvalidClientSpec, TrafficFactory, TrafficSpec,
    TrafficWorkload,
};
