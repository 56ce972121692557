//! Workload construction for simulated nodes.
//!
//! A node runs an [`EpochWorkload`]; this module
//! owns how those workloads are *chosen and built*. [`LoadKind`] is the
//! closed set of synthetic batch kernels the fleet engine has always
//! shipped; [`WorkloadSpec`] is the config-driven constructor that mirrors
//! `CapPolicySpec` in capsim-policy — a cloneable description that any
//! layer (fleet builder, chaos scenario, traffic generator) can carry and
//! turn into per-node workload instances at machine-build time. Layers
//! that need workloads the node crate cannot know about (e.g. the
//! request-serving queues in capsim-traffic) plug in through the
//! [`WorkloadFactory`] trait behind [`WorkloadSpec::Custom`].

use std::fmt;
use std::sync::Arc;

use crate::machine::{EpochWorkload, Machine};
use crate::region::{CodeBlock, Region};

/// Well-known keys of a node's request books.
///
/// Any [`WorkloadFactory`] that models request traffic records into these
/// series (via [`Machine::serving_mut`](crate::Machine::serving_mut)), so
/// that fleet-level consumers — `FleetReport::traffic()` in capsim-dcm,
/// the cap policies' tail input, the traffic bench — can read latency and
/// goodput without knowing which generator produced them, with
/// observability on or off.
pub mod traffic_keys {
    use capsim_obs::LogBuckets;

    /// Requests offered to a node (admitted + shed).
    pub const ARRIVALS: &str = "traffic.arrivals";
    /// Requests fully served.
    pub const COMPLETED: &str = "traffic.completed";
    /// Requests dropped because the bounded queue was full.
    pub const SHED: &str = "traffic.shed";
    /// Completed requests whose latency exceeded the SLO threshold.
    pub const SLO_VIOLATIONS: &str = "traffic.slo_violations";
    /// Completion latency histogram, milliseconds, log-spaced buckets.
    pub const LATENCY_MS: &str = "traffic.latency_ms";
    /// High-water queue depth (gauge; fleet merge keeps the max).
    pub const QUEUE_PEAK: &str = "traffic.queue_peak";
    /// Requests still queued when the run ended. Recorded once from the
    /// workload `finish` hook — as a *counter*, not a gauge, because the
    /// fleet merge sums counters and maxes gauges, and exact fleet-wide
    /// conservation (`arrivals == completed + shed + in_flight`) needs
    /// the per-node values summed.
    pub const IN_FLIGHT: &str = "traffic.in_flight";
    /// Client retry attempts re-entering the arrival stream (closed-loop
    /// clients only). Every retry also counts as an arrival.
    pub const RETRIES: &str = "traffic.retries";
    /// Completions the client gave up on: latency exceeded the client
    /// timeout (each such completion schedules a retry until the retry
    /// budget runs out).
    pub const CLIENT_TIMEOUTS: &str = "traffic.client_timeouts";
    /// Requests this node shed that the fleet barrier re-homed onto
    /// another node's queue.
    pub const FAILOVER_OUT: &str = "traffic.failover_out";
    /// Requests this node accepted on behalf of an overloaded peer.
    pub const FAILOVER_IN: &str = "traffic.failover_in";

    /// Number of request priority classes. Class 0 is the most critical;
    /// brownout sheds from the highest class downward.
    pub const CLASSES: usize = 3;
    /// Per-priority-class arrivals. Indexed by class; sums to `ARRIVALS`.
    pub const ARRIVALS_BY_CLASS: [&str; CLASSES] =
        ["traffic.arrivals_p0", "traffic.arrivals_p1", "traffic.arrivals_p2"];
    /// Per-priority-class completions. Sums to `COMPLETED`.
    pub const COMPLETED_BY_CLASS: [&str; CLASSES] =
        ["traffic.completed_p0", "traffic.completed_p1", "traffic.completed_p2"];
    /// Per-priority-class sheds (queue overflow + brownout). Sums to
    /// `SHED`. Conservation holds per class:
    /// `arrivals_pC == completed_pC + shed_pC + in_flight_pC`.
    pub const SHED_BY_CLASS: [&str; CLASSES] =
        ["traffic.shed_p0", "traffic.shed_p1", "traffic.shed_p2"];
    /// Per-priority-class in-flight remainder at end of run. Counter for
    /// the same summing reason as `IN_FLIGHT`.
    pub const IN_FLIGHT_BY_CLASS: [&str; CLASSES] =
        ["traffic.in_flight_p0", "traffic.in_flight_p1", "traffic.in_flight_p2"];

    /// AIMD offered-rate multiplier gauge in `(0, 1]`. The fleet merge
    /// keeps the max, so the fleet-wide value is the *least* backed-off
    /// client population's multiplier.
    pub const RATE_MULTIPLIER: &str = "traffic.rate_multiplier";
    /// Arrivals deliberately shed by the brownout controller (every one
    /// also counts in `SHED` and the class's shed counter).
    pub const BROWNOUT_SHED: &str = "traffic.brownout_shed";
    /// Highest priority class currently admitted (gauge; `CLASSES - 1`
    /// means no brownout in effect).
    pub const BROWNOUT_MAX_CLASS: &str = "traffic.brownout_max_class";

    /// Latency bucket layout: 1 µs up to ~34 s in ×2 steps. Log spacing
    /// keeps p999 meaningful at millisecond scale — a linear layout wide
    /// enough for the tail would quantize the body into one bucket.
    pub const LATENCY_BUCKETS: LogBuckets = LogBuckets { start: 0.001, factor: 2.0, count: 26 };
}

/// Synthetic workload mix for a fleet node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadKind {
    /// ALU-bound: hot loop out of L1.
    Compute,
    /// Memory-bound: strided loads over a working set.
    Stream,
    /// Both, plus a mostly-predictable branch.
    Mixed,
    /// Bursty: a dense burst of mixed work followed by a ~4 ms idle gap.
    /// Power swings between near-TDP and idle floor within one epoch —
    /// the load that stresses guardrail plausibility checks and the
    /// violation detector's hysteresis.
    Pulse,
}

impl LoadKind {
    /// The round-robin default: Compute/Stream/Mixed by node index.
    pub fn for_index(i: usize) -> LoadKind {
        match i % 3 {
            0 => LoadKind::Compute,
            1 => LoadKind::Stream,
            _ => LoadKind::Mixed,
        }
    }

    /// Datacenter-shaped duty-cycle assignment: a minority of nodes runs
    /// sustained Compute/Stream/Mixed work while the majority sits in
    /// bursty [`LoadKind::Pulse`] loads that are mostly idle — the
    /// utilization profile the idle fast-forward and push elision are
    /// built for. Select with [`WorkloadSpec::DatacenterMix`].
    pub fn datacenter_for_index(i: usize) -> LoadKind {
        // 3 sustained-busy nodes per 16 (~19% busy) — datacenter fleets
        // run far below peak on average, which is the premise of group
        // power capping in the first place.
        match i % 16 {
            0 => LoadKind::Compute,
            1 => LoadKind::Stream,
            2 => LoadKind::Mixed,
            _ => LoadKind::Pulse,
        }
    }
}

/// A self-contained epoch workload built from machine primitives.
pub struct SyntheticLoad {
    kind: LoadKind,
    block: CodeBlock,
    region: Region,
    i: u64,
}

impl SyntheticLoad {
    /// Allocate the kernel's code block and working set on `m`.
    pub fn new(m: &mut Machine, kind: LoadKind) -> Self {
        let block = m.code_block(96, 24);
        let region = m.alloc(64 * 1024);
        SyntheticLoad { kind, block, region, i: 0 }
    }
}

impl EpochWorkload for SyntheticLoad {
    fn quantum(&mut self, m: &mut Machine) {
        let start = (self.i * 64) % self.region.bytes();
        match self.kind {
            LoadKind::Compute => {
                for _ in 0..4 {
                    m.exec_block(&self.block);
                }
                m.compute(1000);
            }
            LoadKind::Stream => {
                m.exec_block(&self.block);
                m.load_stream(self.region.base(), self.region.bytes(), start, 64, 64);
            }
            LoadKind::Mixed => {
                for _ in 0..2 {
                    m.exec_block(&self.block);
                }
                m.load_stream(self.region.base(), self.region.bytes(), start, 64, 32);
                m.branch(&self.block, !self.i.is_multiple_of(7));
            }
            LoadKind::Pulse => {
                for _ in 0..8 {
                    m.exec_block(&self.block);
                }
                m.load_stream(self.region.base(), self.region.bytes(), start, 64, 64);
                m.compute(2000);
                m.idle(4e-3);
            }
        }
        self.i += 1;
    }
}

/// Builds per-node workloads for a [`WorkloadSpec::Custom`] backend.
///
/// `build` runs once per node at fleet-construction time, after the
/// machine exists but before the first epoch; `index` is the node's
/// registration index and `seed` a per-node splitmix-derived seed, so a
/// factory can be both node-aware and deterministic.
pub trait WorkloadFactory: Send + Sync + fmt::Debug {
    /// Stable backend name (used in reports and for spec equality).
    fn name(&self) -> &'static str;
    /// Construct the workload for node `index` on machine `m`.
    fn build(&self, m: &mut Machine, index: usize, seed: u64) -> Box<dyn EpochWorkload>;
}

/// Config-driven workload constructor, mirroring `CapPolicySpec`: a
/// cloneable description of *which* workload every node gets, resolved to
/// concrete [`EpochWorkload`] instances at build time via
/// [`WorkloadSpec::build_for`].
#[derive(Clone, Debug, Default)]
pub enum WorkloadSpec {
    /// Every node runs the same synthetic kernel.
    Uniform(LoadKind),
    /// [`LoadKind::for_index`] round-robin — the historical fleet default.
    #[default]
    RoundRobin,
    /// [`LoadKind::datacenter_for_index`] — mostly-idle datacenter shape.
    DatacenterMix,
    /// An external factory (e.g. capsim-traffic's request queues).
    Custom(Arc<dyn WorkloadFactory>),
}

impl WorkloadSpec {
    /// Stable name of the selected backend.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Uniform(LoadKind::Compute) => "compute",
            WorkloadSpec::Uniform(LoadKind::Stream) => "stream",
            WorkloadSpec::Uniform(LoadKind::Mixed) => "mixed",
            WorkloadSpec::Uniform(LoadKind::Pulse) => "pulse",
            WorkloadSpec::RoundRobin => "round_robin",
            WorkloadSpec::DatacenterMix => "datacenter_mix",
            WorkloadSpec::Custom(f) => f.name(),
        }
    }

    /// The synthetic kernel node `index` would run, for the built-in
    /// variants (`None` for [`WorkloadSpec::Custom`]).
    pub fn kind_for(&self, index: usize) -> Option<LoadKind> {
        match self {
            WorkloadSpec::Uniform(kind) => Some(*kind),
            WorkloadSpec::RoundRobin => Some(LoadKind::for_index(index)),
            WorkloadSpec::DatacenterMix => Some(LoadKind::datacenter_for_index(index)),
            WorkloadSpec::Custom(_) => None,
        }
    }

    /// Construct node `index`'s workload on machine `m`. `seed` is only
    /// consumed by [`WorkloadSpec::Custom`] backends — the synthetic
    /// kernels are deterministic by construction.
    pub fn build_for(&self, m: &mut Machine, index: usize, seed: u64) -> Box<dyn EpochWorkload> {
        match self {
            WorkloadSpec::Custom(f) => f.build(m, index, seed),
            _ => {
                let kind = self.kind_for(index).expect("built-in spec has a kind");
                Box::new(SyntheticLoad::new(m, kind))
            }
        }
    }
}

/// Specs compare structurally for the built-in variants; custom factories
/// compare by backend name (two factories with the same name are assumed
/// to describe the same workload).
impl PartialEq for WorkloadSpec {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (WorkloadSpec::Uniform(a), WorkloadSpec::Uniform(b)) => a == b,
            (WorkloadSpec::RoundRobin, WorkloadSpec::RoundRobin) => true,
            (WorkloadSpec::DatacenterMix, WorkloadSpec::DatacenterMix) => true,
            (WorkloadSpec::Custom(a), WorkloadSpec::Custom(b)) => a.name() == b.name(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MachineBuilder;

    #[test]
    fn round_robin_and_datacenter_assignments_match_load_kind() {
        assert_eq!(WorkloadSpec::RoundRobin.kind_for(4), Some(LoadKind::Stream));
        assert_eq!(WorkloadSpec::DatacenterMix.kind_for(5), Some(LoadKind::Pulse));
        assert_eq!(WorkloadSpec::DatacenterMix.kind_for(16), Some(LoadKind::Compute));
        assert_eq!(WorkloadSpec::Uniform(LoadKind::Pulse).kind_for(9), Some(LoadKind::Pulse));
    }

    #[test]
    fn specs_build_runnable_workloads() {
        let mut m = MachineBuilder::tiny().seed(7).build();
        let mut w = WorkloadSpec::RoundRobin.build_for(&mut m, 0, 1);
        let before = m.now_s();
        m.step(1e-4, w.as_mut());
        assert!(m.now_s() > before, "workload advanced simulated time");
    }

    #[test]
    fn spec_equality_is_structural_and_by_name_for_custom() {
        assert_eq!(WorkloadSpec::RoundRobin, WorkloadSpec::RoundRobin);
        assert_ne!(WorkloadSpec::RoundRobin, WorkloadSpec::DatacenterMix);
        assert_eq!(WorkloadSpec::Uniform(LoadKind::Pulse), WorkloadSpec::Uniform(LoadKind::Pulse));
        assert_ne!(WorkloadSpec::Uniform(LoadKind::Pulse), WorkloadSpec::Uniform(LoadKind::Mixed));
    }
}
