//! `capsim-apps` — the workloads of the study, implemented for real.
//!
//! The paper evaluates two applications "executed on field deployable
//! computer systems":
//!
//! * **SIRE/RSM** ([`sar`]) — ultra-wideband impulse SAR image formation
//!   (backprojection) with recursive sidelobe minimization, after Nguyen's
//!   ARL SIRE radar reports. It streams image-sized arrays that exceed the
//!   L3, which is why its L2/L3 miss counts are insensitive to cache-way
//!   gating in Table II.
//! * **Stereo Matching** ([`stereo`]) — Monte-Carlo image matching via
//!   simulated annealing on the paper's named input, a "three-layer
//!   wedding cake" scene, after Shires' ARL report. Its working set is
//!   cache-resident at full capacity and thrashes once ways are gated —
//!   the Table II L2/L3 blow-up at 125/120 W.
//!
//! Both run their *actual algorithms* on synthetic data (the ARL field
//! data is not public — see DESIGN.md §5) and mirror every load/store
//! through the simulated machine, so the counters the study reports come
//! from the same execution that produces a verifiable image/disparity map.
//!
//! Also here: the Hennessy–Patterson **stride microbenchmark** ([`stride`])
//! behind Figures 3/4, an **unpredictable phased workload** ([`phased`])
//! for future-work item 3, a **multi-core stereo** ([`stereo_par`]) for
//! future-work item 1, **CFAR target detection** ([`cfar`]) over a formed
//! SAR image for the `mission_pipeline` example, and small calibration
//! [`kernels`].

pub mod cfar;
pub mod kernels;
pub mod phased;
pub mod sar;
pub mod stereo;
pub mod stereo_par;
pub mod stride;
pub mod workload;

pub use cfar::CfarDetect;
pub use sar::SireRsm;
pub use stereo::StereoMatching;
pub use stereo_par::ParallelStereo;
pub use stride::{MountainPoint, StrideBench};
pub use workload::{Workload, WorkloadOutput};
