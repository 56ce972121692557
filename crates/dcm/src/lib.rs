//! `capsim-dcm` — the Data Center Manager substrate.
//!
//! §II-A of the paper: "Intel Data Center Manager (DCM), which runs on a
//! management server, manages the power consumption of the nodes of a data
//! center … DCM power capping services focus on controlling resource usage
//! to safeguard against over utilization of constrained capacity."
//!
//! The manager here does exactly that: over a [`capsim_ipmi::Transact`]
//! link to each node's BMC it polls DCMI power readings, divides a **group
//! power budget** across nodes through a [`capsim_policy::CapPolicy`]'s
//! group half (by default the ladder over an [`AllocationPolicy`]), and
//! pushes the resulting per-node caps with DCMI *Set Power Limit* +
//! *Activate*. Every wait on the wire is counted in BMC polls
//! ([`PumpedLink`]): the manager serves the node's BMC itself between
//! polls, so no result depends on host timing. The paper's single-node
//! study is the degenerate one-node group; the `datacenter` example
//! exercises the full fan-out.

pub mod error;
pub mod fleet;
pub mod manager;
pub mod monitor;
pub mod train;

pub use capsim_policy::AllocationPolicy;
pub use error::DcmError;
pub use fleet::{
    BreakerState, EnergySummary, EpochRecord, Fleet, FleetBuilder, FleetReport, LoadKind,
    NodeSummary, PriorityTraffic, PumpedLink, TrafficSummary, WorkloadSpec,
};
pub use manager::{CapPushOutcome, Dcm, NodeHealth, NodeId};
pub use monitor::{read_sel, violation_count};
pub use train::{train_rl, EpisodeScore, RlTrainConfig, RlTrainReport};
