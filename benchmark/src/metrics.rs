//! Every metric the benchmark reports: name, unit, direction, and — for
//! the end-to-end metrics — the bound a later change may worsen the
//! reported value by before it counts as a regression. `BENCHMARK.json`
//! lists the same names, units, directions and bounds; a test keeps them
//! in step.

use crate::sample::Sample;
use crate::stats::{self, Better};

/// A metric a user of the simulator sees, reported on every workload
/// from the untraced reps.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Largest tolerated worsening of the reported value, as a share.
    pub bound: f64,
    /// The metric's value in one rep.
    pub of: fn(&Sample) -> f64,
    /// The reported value over the reps.
    pub summary: fn(&[f64]) -> f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    // The fastest rep: the host only ever slows a rep down, and on the
    // shared reference host the best rep of a 20 s run moved about half
    // as much from run to run as the median rep did.
    EndToEnd {
        name: "sim_minstr_per_s",
        unit: "Minstr/s",
        better: Better::Higher,
        bound: 0.25,
        of: |s| s.sim_instr / 1e6 / s.wall_s,
        summary: stats::max,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        of: |s| s.hwm_kb / 1024.0,
        summary: stats::median,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        of: |s| s.setup_s,
        summary: stats::median,
    },
];

/// How a per-layer value is obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Simulated count or a ratio of counts, read through public
    /// accessors: deterministic for a seed, so it compares exactly.
    Count,
    /// Host nanoseconds (or µs) per call of one public function, timed
    /// over N calls with workload-shaped inputs; median of 5 batches.
    Probe,
    /// count × probe ÷ the traced run's CPU seconds.
    Share,
    /// Host time, rate or size taken from the reps' spans and `/proc`.
    Host,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Count => "count",
            Kind::Probe => "probe",
            Kind::Share => "share_est",
            Kind::Host => "host",
        }
    }
}

/// A metric of one layer of the simulator (layers are named after the
/// crates), with the end-to-end metric and workload it should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn m(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Layer {
    Layer { name, unit, better, kind }
}

use Better::{Higher as H, Lower as L};
use Kind::{Count as C, Host as T, Probe as P, Share as S};

/// Per-layer metrics, grouped by layer. A layer a workload does not run
/// reports 0 for its counts there; probes and host times always measure.
pub const PER_LAYER: [Layer; 56] = [
    // capsim-mem. Moves sim_minstr_per_s on table2_stereo (heavily) and
    // fleet_dc (moderately); predicted near no change on serve_closed.
    m("mem.l1d_accesses", "count", L, C),
    m("mem.l2_misses", "count", L, C),
    m("mem.l3_misses", "count", L, C),
    m("mem.dram_lines", "count", L, C),
    m("mem.dtlb_misses", "count", L, C),
    m("mem.itlb_misses", "count", L, C),
    m("mem.access_ns_e5", "ns", L, P),
    m("mem.access_ns_tiny", "ns", L, P),
    m("mem.share_est", "share", L, S),
    // capsim-cpu. Moves sim_minstr_per_s on table2_stereo and fleet_dc.
    m("cpu.instr_executed", "count", L, C),
    m("cpu.branch_mispredicts", "count", L, C),
    m("cpu.exec_block_ns", "ns", L, P),
    m("cpu.share_est", "share", L, S),
    // capsim-power / node control tick / BMC. Moves sim_minstr_per_s on
    // fleet_dc and both serving workloads; little on table2_stereo, whose
    // control period is 200 µs.
    m("tick.count", "count", L, C),
    m("tick.idle_skips", "count", H, C),
    m("tick.ns", "ns", L, P),
    m("tick.share_est", "share", L, S),
    m("bmc.rung_changes", "count", L, C),
    // capsim-ipmi. Moves sim_minstr_per_s on fleet_dc.
    m("ipmi.transactions", "count", L, C),
    m("ipmi.retries", "count", L, C),
    m("ipmi.timeouts", "count", L, C),
    m("ipmi.poll_skip_ratio", "ratio", H, C),
    m("ipmi.poll_ns", "ns", L, P),
    m("ipmi.share_est", "share", L, S),
    // capsim-dcm root. Moves sim_minstr_per_s on serve_closed, which runs
    // failover; predicted no change on fleet_dc, which runs none.
    m("dcm.caps_pushed", "count", L, C),
    m("dcm.push_skip_ratio", "ratio", H, C),
    m("dcm.plan_us", "us", L, P),
    m("dcm.failover_moved", "count", L, C),
    m("dcm.failover_dropped", "count", L, C),
    m("dcm.breaker_transitions", "count", L, C),
    // capsim-dcm engine (the fleet engine; CapSweep on table2_stereo,
    // where one cap point is the unit of engine work). Moves
    // sim_minstr_per_s on every fleet workload; a parallel-efficiency
    // gain shows in engine.cpu_util first.
    m("engine.epoch_ms_p50", "ms", L, T),
    m("engine.epoch_ms_tail", "ms", L, T),
    m("engine.epoch_tail_pct", "%", H, T),
    m("engine.epoch_samples", "count", H, T),
    m("engine.finish_ms", "ms", L, T),
    m("engine.cpu_util", "ratio", H, T),
    m("node_epochs_per_s", "1/s", H, T),
    m("bytes_per_node", "B", L, T),
    // capsim-core sweep: the paper's own yardstick, table2_stereo only.
    m("paper_err_pp", "pp", L, C),
    // capsim-traffic. Moves sim_minstr_per_s most on serve_open, also on
    // serve_closed; predicted zero change on fleet_dc and table2_stereo.
    m("traffic.arrivals", "count", L, C),
    m("traffic.completed", "count", H, C),
    m("traffic.shed", "count", L, C),
    m("traffic.retries", "count", L, C),
    m("traffic.brownout_shed", "count", L, C),
    m("traffic.goodput_ratio", "ratio", H, C),
    m("traffic.arrival_ns", "ns", L, P),
    m("traffic.share_est", "share", L, S),
    m("requests_per_s", "1/s", H, T),
    m("slo_viol_per_kj", "1/kJ", L, C),
    // capsim-obs. Moves sim_minstr_per_s on both serving workloads, where
    // obs is always on; predicted no change on untraced fleet_dc.
    m("obs.events", "count", L, C),
    m("obs.events_dropped", "count", L, C),
    m("obs.observe_ns", "ns", L, P),
    m("obs.export_ms", "ms", L, T),
    m("trace_overhead_pct", "%", L, T),
    // What outside timing cannot credit to a layer.
    m("unattributed_share", "share", L, S),
    // Failed correctness checks ÷ checks run.
    m("failed_share", "ratio", L, C),
];

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    fn valid_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn benchmark_json_declares_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::str).unwrap_or("").to_string();

        let declared: Vec<(String, String)> = spec
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> =
            Workload::ALL.iter().map(|w| (w.name().to_string(), w.why().to_string())).collect();
        assert_eq!(declared, ours);

        let e2e = spec.get("end_to_end").unwrap().arr();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, e) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), e.name);
            assert_eq!(field(j, "unit"), e.unit);
            assert_eq!(field(j, "better"), e.better.name());
            assert_eq!(j.get("bound").and_then(Json::num), Some(e.bound), "{}", e.name);
            assert!(e.bound <= 0.25);
        }
        let layers = spec.get("per_layer").unwrap().arr();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, l) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), l.name);
            assert_eq!(field(j, "unit"), l.unit, "{}", l.name);
            assert_eq!(field(j, "better"), l.better.name(), "{}", l.name);
        }

        let names = ours.iter().map(|(n, _)| n.as_str());
        let metric_names =
            END_TO_END.iter().map(|e| e.name).chain(PER_LAYER.iter().map(|l| l.name));
        let all: Vec<&str> = names.chain(metric_names).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(valid_name(n), "bad name {n}");
            assert!(!all[..i].contains(n), "{n} used twice");
        }
        let units = END_TO_END.iter().map(|e| e.unit).chain(PER_LAYER.iter().map(|l| l.unit));
        for u in units {
            assert!(valid_unit(u), "bad unit {u}");
        }
        for (_, why) in &ours {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }
}
