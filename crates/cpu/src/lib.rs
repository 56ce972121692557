//! `capsim-cpu` — core-side substrate: simulated time, ACPI performance
//! and throttling states and the per-core performance-counter file.
//!
//! The pieces here model what §II of the paper describes:
//!
//! * **P-states** ([`pstate`]) — the 16 frequency/voltage operating points
//!   of the E5-2680 that DVFS dithers between,
//! * **T-states** ([`tstate`]) — duty-cycle clock modulation, the mechanism
//!   that lets measured frequency stay pinned at P-min while execution time
//!   keeps growing at the lowest caps,
//! * a **gshare branch predictor** ([`branch`]) that produces the paper's
//!   executed-vs-committed instruction gap via wrong-path work,
//! * the **simulated clock** ([`clock`]) integrating cycles over a varying
//!   frequency, and
//! * the **counter file** ([`counters`]) backing the PAPI facade,
//!   including the APERF/MPERF-style frequency meter.
//!
//! Idle cores carry no state here: the node meters an idle span through
//! the power model's all-idle window.

pub mod branch;
pub mod clock;
pub mod counters;
pub mod pstate;
pub mod timing;
pub mod tstate;

pub use branch::{BranchOutcome, GsharePredictor};
pub use clock::SimClock;
pub use counters::{CounterFile, FreqMeter};
pub use pstate::{PState, PStateTable};
pub use timing::TimingParams;
pub use tstate::TState;
