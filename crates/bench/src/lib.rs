//! `capsim-bench` — harness binaries and Criterion benches that
//! regenerate every table and figure of the paper.
//!
//! Binaries (one per artifact; see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table I (baselines) |
//! | `table2` | Table II (full cap sweep, both apps) |
//! | `fig1_2` | Figures 1–2 (normalized series) |
//! | `fig3_4` | Figures 3–4 (memory mountain, no cap vs 120 W) |
//! | `ablation_ladder` | X1: full ladder vs DVFS-only |
//! | `ablation_race` | X2: race-to-idle vs crawl |
//! | `ablation_turbo` | X7: Turbo Boost × capping |
//! | `ext_multicore` | X3: multi-core stereo under caps |
//! | `ext_detector` | X4: technique detection vs ground truth |
//! | `ext_phased` | X5: unpredictable workload under caps |
//! | `ext_amenability` | X6: amenability score vs measured slowdown |
//! | `ext_stlb` | X8: STLB fidelity check |
//! | `perf_smoke` | hot-path throughput trajectory (`BENCH_hotpath.json`) |
//! | `fleet` | fleet scaling: node-epochs/s over sizes and worker counts (`BENCH_fleet.json`) |
//! | `telemetry` | observability overhead budget (`BENCH_obs.json`) |
//! | `chaos` | scripted fault scenario, soak and guardrail overhead (`BENCH_chaos.json`) |
//! | `policy` | capping-backend energy/performance frontier (`BENCH_policy.json`) |
//! | `traffic` | SLO-per-joule power emergency and retry storm (`BENCH_traffic.json`) |
//! | `bench_check` | validates the `BENCH_*.json` files' shape and required keys |
//!
//! Scale control: set `CAPSIM_SCALE=test` for a fast smoke run (minutes →
//! seconds) and `CAPSIM_RUNS=n` to override the per-point run count.

pub mod paper;

use capsim_apps::{SireRsm, StereoMatching};
use capsim_core::{CapSweep, ExperimentConfig, LadderKind};

/// Harness-wide scale selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The scale EXPERIMENTS.md documents (minutes of host time).
    Paper,
    /// Small instances for smoke testing (seconds).
    Test,
}

impl Scale {
    /// Read `CAPSIM_SCALE` (default: paper).
    pub fn from_env() -> Scale {
        match std::env::var("CAPSIM_SCALE").as_deref() {
            Ok("test") => Scale::Test,
            _ => Scale::Paper,
        }
    }
}

/// The paper's §III experiment configuration, honouring `CAPSIM_RUNS`
/// and the scale (test scale uses fewer runs by default).
pub fn experiment_config(scale: Scale) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper();
    cfg.runs_per_point = match scale {
        Scale::Paper => 5,
        Scale::Test => 2,
    };
    if scale == Scale::Test {
        // Test-scale instances simulate milliseconds; tighten the control
        // loop proportionally so equilibria are reached (see runner docs).
        cfg.control_period_us = 5.0;
    }
    if let Ok(r) = std::env::var("CAPSIM_RUNS") {
        if let Ok(r) = r.parse::<usize>() {
            cfg.runs_per_point = r.max(1);
        }
    }
    cfg
}

/// Build the SIRE/RSM factory at the given scale.
pub fn sire_factory(scale: Scale) -> impl Fn(u64) -> Box<dyn capsim_apps::Workload> + Sync {
    move |seed| -> Box<dyn capsim_apps::Workload> {
        Box::new(match scale {
            Scale::Paper => SireRsm::paper_scale(seed),
            Scale::Test => SireRsm::test_scale(seed),
        })
    }
}

/// Build the Stereo Matching factory at the given scale.
pub fn stereo_factory(scale: Scale) -> impl Fn(u64) -> Box<dyn capsim_apps::Workload> + Sync {
    move |seed| -> Box<dyn capsim_apps::Workload> {
        Box::new(match scale {
            Scale::Paper => StereoMatching::paper_scale(seed),
            Scale::Test => StereoMatching::test_scale(seed),
        })
    }
}

/// Run both applications' sweeps (the bulk of Table II / Figures 1–2).
pub fn run_both_sweeps(
    scale: Scale,
    ladder: LadderKind,
) -> (capsim_core::SweepResult, capsim_core::SweepResult) {
    let mut cfg = experiment_config(scale);
    cfg.ladder = ladder;
    let sweep = CapSweep::new(cfg);
    let stereo = sweep.run("Stereo Matching", stereo_factory(scale));
    let sire = sweep.run("SIRE/RSM", sire_factory(scale));
    (stereo, sire)
}

/// Render a side-by-side comparison of a paper %-diff row and ours.
pub fn comparison_row(label: &str, paper: &[i64], ours: &[f64]) -> String {
    let p: Vec<String> = paper.iter().map(|v| format!("{v:>7}")).collect();
    let o: Vec<String> = ours.iter().map(|v| format!("{v:>7.0}")).collect();
    format!("{label:<22} paper: {}\n{:<22} ours : {}\n", p.join(" "), "", o.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_parsing_defaults_to_paper() {
        // Cannot mutate the environment safely in parallel tests; just
        // check the default path.
        assert_eq!(Scale::from_env(), Scale::Paper);
    }

    #[test]
    fn experiment_config_matches_paper_protocol() {
        let c = experiment_config(Scale::Paper);
        assert_eq!(c.caps_w.len(), 9);
        assert_eq!(c.caps_w[0], 160.0);
        assert_eq!(c.caps_w[8], 120.0);
    }

    #[test]
    fn comparison_row_formats_both_lines() {
        let s = comparison_row("time %", &[3, 0, 9], &[2.9, 0.4, 8.7]);
        assert!(s.contains("paper:"));
        assert!(s.contains("ours :"));
    }
}
