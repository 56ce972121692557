//! `capsim` — facade crate for the capsim workspace.
//!
//! Re-exports every subsystem and offers a [`prelude`] for examples and
//! downstream users. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-reproduction index.
//!
//! # Quickstart
//!
//! Build one capped machine with [`node::MachineBuilder`], or a whole
//! managed fleet with [`dcm::FleetBuilder`]:
//!
//! ```
//! use capsim::prelude::*;
//!
//! let report = FleetBuilder::new()
//!     .nodes(4)
//!     .epochs(3)
//!     .budget_w(400.0)
//!     .build()
//!     .run();
//! assert_eq!(report.nodes, 4);
//! ```

pub use capsim_apps as apps;
pub use capsim_chaos as chaos;
pub use capsim_core as study;
pub use capsim_counters as counters;
pub use capsim_cpu as cpu;
pub use capsim_dcm as dcm;
pub use capsim_ipmi as ipmi;
pub use capsim_mem as mem;
pub use capsim_node as node;
pub use capsim_obs as obs;
pub use capsim_policy as policy;
pub use capsim_power as power;
pub use capsim_traffic as traffic;

/// Commonly used items, one `use` away.
pub mod prelude {
    pub use capsim_apps::{SireRsm, StereoMatching, Workload};
    pub use capsim_chaos::{ChaosScenario, FaultKind, FaultPlan, InvariantConfig, SoakConfig};
    pub use capsim_core::{CapSweep, ExperimentConfig, RunMetrics};
    pub use capsim_dcm::{
        train_rl, AllocationPolicy, Dcm, Fleet, FleetBuilder, FleetReport, NodeHealth, NodeId,
        RlTrainConfig, RlTrainReport,
    };
    pub use capsim_ipmi::{FaultSpec, RetryPolicy, Transact};
    pub use capsim_mem::{HierarchyConfig, MemReconfig};
    pub use capsim_node::{Machine, MachineBuilder, MachineConfig, PowerCap};
    pub use capsim_obs::{Event, EventKind, EventLog, Metrics, MetricsSnapshot, Obs};
    pub use capsim_policy::{
        CapDecision, CapPolicy, CapPolicySpec, GovernorCapPolicy, GovernorConfig, LadderCapPolicy,
        NodeCapView, QTable, RlCapPolicy, RlConfig,
    };
    pub use capsim_traffic::{
        AimdSpec, ArrivalCurve, BrownoutSpec, ClientSpec, EmergencyConfig, InvalidClientSpec,
        TrafficSpec,
    };
}
