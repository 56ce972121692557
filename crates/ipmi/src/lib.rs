//! `capsim-ipmi` — the out-of-band management wire protocol.
//!
//! §II-A of the paper: "the Platform Controller Hub has management engine
//! firmware that, using the industry standard Intelligent Platform
//! Management Interface (IPMI), controls the platform's power and thermal
//! capabilities via the DCM. In turn, the DCM connects to the platform's
//! Baseboard Management Controllers (BMC) … Because a BMC is connected to
//! its own NIC, this is accomplished out-of-band, i.e., without going
//! through the operating system."
//!
//! This crate implements the slice of IPMI the study needs, faithfully
//! enough to be recognisable against the DCMI 1.5 specification:
//!
//! * request/response framing with NetFn, command, sequence number and
//!   completion codes ([`message`]),
//! * the DCMI power-management command group — *Get Power Reading*,
//!   *Get/Set Power Limit*, *Activate/Deactivate Power Limit* ([`dcmi`]),
//! * basic sensor reads (inlet temperature, node power) ([`sensor`]),
//! * and an in-memory "dedicated NIC" transport over crossbeam channels
//!   ([`transport`]), whose one wait loop counts BMC polls rather than
//!   host time.
//!
//! The simulated OS and workloads never see any of this — capping really
//! is out-of-band, exactly as on the paper's platform.

pub mod app_cmds;
pub mod dcmi;
pub mod message;
pub mod sel;
pub mod sensor;
pub mod transport;

pub use app_cmds::{DcmiCapabilities, DeviceId};
pub use dcmi::{
    ActivatePowerLimit, ExceptionAction, GetPowerLimit, GetPowerReading, PowerLimit, PowerReading,
    SetPowerLimit, DCMI_GROUP_EXT,
};
pub use message::{CompletionCode, IpmiError, NetFn, Request, Response};
pub use sel::{SelEntry, SelEventType, SystemEventLog, SEL_CAPACITY};
pub use sensor::{SensorId, SensorRead, SensorValue};
pub use transport::{
    splitmix64, transact_retry, BmcPort, FaultDirection, FaultInjector, FaultSpec, FaultStats,
    LanChannel, ManagerPort, RetryPolicy, Transact, WireOutcome,
};
