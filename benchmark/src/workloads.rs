//! The four workloads: what each runs, at what size, and how one rep of
//! it is timed, counted and checked. Everything is measured from outside
//! the simulator — calls into public functions are timed, counts are
//! read through public accessors.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use capsim_apps::{StereoMatching, Workload as App, WorkloadOutput};
use capsim_bench::paper;
use capsim_core::table::{table2_memory, table2_performance};
use capsim_core::{CapSweep, ExperimentConfig, SweepResult};
use capsim_cpu::CounterFile;
use capsim_dcm::{FleetBuilder, WorkloadSpec};
use capsim_mem::MemStats;
use capsim_node::workload::traffic_keys::CLASSES;
use capsim_node::{Machine, MachineConfig};
use capsim_traffic::{ArrivalCurve, EmergencyConfig};

use crate::host;
use crate::probes::{self, ProbeInputs, LINES_PER_BLOCK};
use crate::sample::Sample;
use crate::stats::median;
use crate::trace::Tracer;

/// Event ring per observed stream (the `FleetBuilder::observe` default).
const EVENT_CAPACITY: usize = 4096;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Table2Stereo,
    FleetDc,
    ServeOpen,
    ServeClosed,
}

/// How big a workload runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Shape {
    /// Fleet nodes and 0.5 ms epochs (fleet workloads).
    pub nodes: usize,
    pub epochs: u32,
    /// Stereo image rows and row width in pixels (table2_stereo).
    pub rows: usize,
    pub width: usize,
    /// Sweep caps in watts, run after the uncapped baseline point.
    pub caps_w: Vec<f64>,
    /// Minimum host milliseconds per probe batch.
    pub probe_batch_ms: f64,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Table2Stereo, Workload::FleetDc, Workload::ServeOpen, Workload::ServeClosed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Stereo => "table2_stereo",
            Workload::FleetDc => "fleet_dc",
            Workload::ServeOpen => "serve_open",
            Workload::ServeClosed => "serve_closed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark; `BENCHMARK.json` carries the
    /// same sentence.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Table2Stereo => {
                "The paper's Table II rows A0-A9: a cap sweep whose host time is the E5 memory \
                 hierarchy, with way and TLB gating at deep caps, and instruction execution."
            }
            Workload::FleetDc => {
                "The datacenter-mix fleet: 13 of 16 nodes pulse (idle fast-forward, control \
                 ticks), 3 run busy kernels, and every epoch polls, plans and pushes caps."
            }
            Workload::ServeOpen => {
                "Open-loop serving: millions of arrivals make thinning, queue admission, \
                 shedding and latency histograms the largest work outside the node step."
            }
            Workload::ServeClosed => {
                "Closed-loop serving: AIMD backpressure, retries, failover routing, circuit \
                 breakers and brownout drive the same serving layer the other way."
            }
        }
    }

    /// Open or closed loop, or batch.
    pub fn loop_kind(self) -> &'static str {
        match self {
            Workload::Table2Stereo | Workload::FleetDc => "batch",
            Workload::ServeOpen => "open loop",
            Workload::ServeClosed => "closed loop",
        }
    }

    /// The benchmark's size, chosen so one rep takes 2–3 s on one thread
    /// of the reference host.
    pub fn shape(self) -> Shape {
        let fleet = |nodes, epochs| Shape {
            nodes,
            epochs,
            rows: 0,
            width: 0,
            caps_w: Vec::new(),
            probe_batch_ms: 20.0,
        };
        match self {
            // The paper's row width (the A8/A9 L2 blow-up needs it) and
            // all nine caps; 16 of the paper's 256 rows.
            Workload::Table2Stereo => {
                Shape { rows: 16, width: 4096, caps_w: paper::CAPS_W.to_vec(), ..fleet(0, 0) }
            }
            Workload::FleetDc => fleet(512, 6),
            Workload::ServeOpen => fleet(192, 32),
            Workload::ServeClosed => fleet(256, 32),
        }
    }
}

/// Run one rep in this process. `traced` turns obs on for every fleet
/// workload and runs the probes afterwards.
pub fn run(w: Workload, shape: &Shape, seed: u64, traced: bool) -> Sample {
    let mut t = Tracer::new();
    let root = t.open("rep", None);
    let mut s =
        Sample { loadavg: host::loadavg(), rss_base_kb: host::rss_kb(), ..Sample::default() };
    let probe_inputs = match w {
        Workload::Table2Stereo => run_sweep(shape, seed, traced, &mut t, root, &mut s),
        _ => run_fleet(w, shape, seed, traced, &mut t, root, &mut s),
    };
    if traced {
        let span = t.open("probes", Some(root));
        for (name, value) in probes::run(&probe_inputs, &mut t, span) {
            s.set(name, value);
        }
        t.close(span);
        set_shares(w, &mut s);
    }
    t.close(root);
    s.spans = t.spans;
    s
}

fn hash(text: &str) -> String {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    format!("{:016x}", h.finish())
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The serving workloads' offered-load curves (both run 32 epochs),
/// which the arrival probe pops on every workload.
fn headline_curves(seed: u64) -> Vec<ArrivalCurve> {
    let shape = Workload::ServeOpen.shape();
    EmergencyConfig::headline(shape.nodes, shape.epochs, seed).traffic.curves
}

/// Core- and memory-side counters summed over machines.
#[derive(Default)]
struct Counters {
    committed: u64,
    executed: u64,
    mispredicts: u64,
    l1d_accesses: u64,
    l1i_accesses: u64,
    l2_misses: u64,
    l3_misses: u64,
    dram_lines: u64,
    dtlb_misses: u64,
    itlb_misses: u64,
}

impl Counters {
    fn add(&mut self, m: &Machine) {
        self.add_parts(&m.counters_now(), &m.mem_stats_now());
    }

    fn add_parts(&mut self, c: &CounterFile, mem: &MemStats) {
        self.committed += c.instructions_committed;
        self.executed += c.instructions_executed;
        self.mispredicts += c.branch_mispredicts;
        self.l1d_accesses += mem.l1d_accesses;
        self.l1i_accesses += mem.l1i_accesses;
        self.l2_misses += mem.l2_misses;
        self.l3_misses += mem.l3_misses;
        self.dram_lines += mem.dram_accesses();
        self.dtlb_misses += mem.dtlb_misses;
        self.itlb_misses += mem.itlb_misses;
    }

    fn record(&self, s: &mut Sample) {
        s.sim_instr = self.committed as f64;
        for (name, v) in [
            ("mem.l1d_accesses", self.l1d_accesses),
            ("mem.l1i_accesses", self.l1i_accesses),
            ("mem.l2_misses", self.l2_misses),
            ("mem.l3_misses", self.l3_misses),
            ("mem.dram_lines", self.dram_lines),
            ("mem.dtlb_misses", self.dtlb_misses),
            ("mem.itlb_misses", self.itlb_misses),
            ("cpu.instr_executed", self.executed),
            ("cpu.branch_mispredicts", self.mispredicts),
        ] {
            s.set(name, v as f64);
        }
    }
}

fn run_fleet(
    w: Workload,
    shape: &Shape,
    seed: u64,
    traced: bool,
    t: &mut Tracer,
    root: usize,
    s: &mut Sample,
) -> ProbeInputs {
    let emergency = match w {
        Workload::ServeOpen => Some(EmergencyConfig::headline(shape.nodes, shape.epochs, seed)),
        Workload::ServeClosed => {
            Some(EmergencyConfig::backpressure_storm(shape.nodes, shape.epochs, seed))
        }
        _ => None,
    };
    // The request ledger lives in obs, so serving fleets always observe;
    // the datacenter fleet observes only in the traced pass. Fault windows
    // exist only in the chaos lowering of an emergency, so building
    // through FleetBuilder leaves them out.
    let builder = match &emergency {
        Some(cfg) => FleetBuilder::new()
            .nodes(cfg.nodes)
            .epochs(cfg.epochs)
            .epoch_s(cfg.epoch_s)
            .seed(cfg.seed)
            .budget_w(cfg.budget_w_per_node * cfg.nodes as f64)
            .observe(true)
            .workload(cfg.traffic.clone().workload()),
        None => FleetBuilder::new()
            .nodes(shape.nodes)
            .epochs(shape.epochs)
            .seed(seed)
            .workload(WorkloadSpec::DatacenterMix)
            .observe(traced),
    };
    let span = t.open("setup", Some(root));
    let mut fleet = builder.build();
    s.setup_s = t.close(span) / 1e3;

    let cpu0 = host::cpu_s();
    let run = t.open("run", Some(root));
    for _ in 0..fleet.epochs() {
        let span = t.open("epoch", Some(run));
        fleet.step_epoch();
        t.close(span);
    }
    // Node counters and event rings live in the machines, which `finish`
    // consumes; the merged obs never carries the rings' drop counts.
    let mut counters = Counters::default();
    let mut dropped = fleet.dcm().obs.events.dropped();
    for i in 0..fleet.len() {
        counters.add(fleet.machine(i));
        dropped += fleet.machine(i).obs().events.dropped();
    }
    let machine = fleet.machine(0).config().clone();
    let span = t.open("finish", Some(run));
    let report = fleet.finish();
    s.finish_ms = t.close(span);
    s.wall_s = t.close(run) / 1e3;
    s.cpu_s = host::cpu_s() - cpu0;
    s.hwm_kb = host::hwm_kb();
    s.epoch_ms = t.lengths_ms("epoch");

    let span = t.open("export", Some(root));
    s.digest = hash(&report.render());
    if let Some(obs) = &report.obs {
        s.obs_digest = hash(&(obs.metrics.render() + &obs.events_jsonl()));
    }
    s.set("obs.export_ms", t.close(span));

    let nodes = report.nodes as f64;
    s.nodes = nodes;
    s.node_epochs = nodes * report.epochs as f64;
    counters.record(s);
    let metrics = report.obs.as_ref().map(|o| &o.metrics);
    let counter = |k: &str| metrics.map_or(0, |m| m.counter(k)) as f64;
    let (pushed, push_skips) = (counter("fleet.caps_pushed"), counter("fleet.cap_pushes_skipped"));
    for (name, v) in [
        ("tick.count", counter("machine.ticks")),
        ("tick.idle_skips", counter("machine.idle_skips")),
        ("bmc.rung_changes", counter("bmc.escalations") + counter("bmc.deescalations")),
        ("ipmi.transactions", counter("ipmi.transactions")),
        ("ipmi.retries", counter("ipmi.retries")),
        ("ipmi.timeouts", counter("ipmi.timeouts")),
        ("ipmi.poll_skip_ratio", ratio(counter("fleet.polls_skipped"), s.node_epochs)),
        ("dcm.caps_pushed", pushed),
        ("dcm.push_skip_ratio", ratio(push_skips, pushed + push_skips)),
        ("dcm.failover_moved", counter("fleet.failover_moved")),
        ("dcm.failover_dropped", counter("fleet.failover_dropped")),
        ("dcm.breaker_transitions", counter("fleet.breaker_transitions")),
        ("obs.events", report.obs.as_ref().map_or(0, |o| o.events.len()) as f64),
        ("obs.events_dropped", dropped as f64),
    ] {
        s.set(name, v);
    }

    s.check(s.sim_instr > 0.0, || "no instruction was simulated".into());
    s.check(
        report.records.iter().all(|r| r.answered == report.nodes && r.unresponsive == 0),
        || "a node missed a barrier on a clean link".into(),
    );
    if emergency.is_some() {
        let traffic = report.traffic();
        let priority = report.priority();
        s.check(traffic.is_some() && priority.is_some(), || "no traffic was recorded".into());
        if let (Some(tr), Some(p)) = (traffic, priority) {
            s.check(tr.arrivals == tr.completed + tr.shed + tr.in_flight, || {
                format!(
                    "arrivals {} != completed {} + shed {} + in flight {}",
                    tr.arrivals, tr.completed, tr.shed, tr.in_flight
                )
            });
            for c in 0..CLASSES {
                s.check(p.arrivals[c] == p.completed[c] + p.shed[c] + p.in_flight[c], || {
                    format!("class {c} books do not close")
                });
            }
            s.requests = tr.arrivals as f64;
            for (name, v) in [
                ("traffic.arrivals", tr.arrivals as f64),
                ("traffic.completed", tr.completed as f64),
                ("traffic.shed", tr.shed as f64),
                ("traffic.retries", tr.retries as f64),
                ("traffic.brownout_shed", p.brownout_shed as f64),
                ("traffic.goodput_ratio", ratio(tr.completed as f64, tr.arrivals as f64)),
                ("slo_viol_per_kj", report.slo_violations_per_joule().unwrap_or(0.0) * 1e3),
            ] {
                s.set(name, v);
            }
        }
    }

    ProbeInputs {
        machine,
        budget_w: report.budget_w,
        nodes: report.nodes,
        readings: report.records.iter().map(|r| r.readings.clone()).collect(),
        curves: headline_curves(seed),
        seed,
        batch_ms: shape.probe_batch_ms,
    }
}

/// What one sweep point recorded about its machine.
struct PointRecord {
    start: Instant,
    end: Instant,
    core: CounterFile,
    mem: MemStats,
    ticks: u64,
    rung_changes: u64,
    events: usize,
    dropped: u64,
    config: MachineConfig,
}

/// The stereo workload, timed and counted from inside `CapSweep::run`:
/// the sweep builds each point's machine and hands it to `run`.
struct Point {
    inner: StereoMatching,
    traced: bool,
    sink: Arc<Mutex<Vec<PointRecord>>>,
}

impl App for Point {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&mut self, m: &mut Machine) -> WorkloadOutput {
        if self.traced {
            m.enable_obs(EVENT_CAPACITY);
        }
        let start = Instant::now();
        let out = self.inner.run(m);
        let end = Instant::now();
        let metrics = &m.obs().metrics;
        let record = PointRecord {
            start,
            end,
            core: m.counters_now(),
            mem: m.mem_stats_now(),
            ticks: metrics.counter("machine.ticks"),
            rung_changes: metrics.counter("bmc.escalations") + metrics.counter("bmc.deescalations"),
            events: m.obs().events.len(),
            dropped: m.obs().events.dropped(),
            config: m.config().clone(),
        };
        self.sink.lock().expect("a sweep point panicked").push(record);
        out
    }
}

/// Median over the nine Table II caps of |ours − paper|, in percentage
/// points, across the time% and energy% columns (18 cells).
pub fn paper_err_pp(sweep: &SweepResult) -> f64 {
    let p = &paper::STEREO;
    let mut errs = Vec::new();
    for r in &sweep.rows {
        if let Some(i) = paper::CAPS_W.iter().position(|&c| Some(c) == r.cap_w) {
            errs.push((r.pct_diff(&sweep.baseline, |m| m.time_s) - p.time_pct[i] as f64).abs());
            errs.push((r.pct_diff(&sweep.baseline, |m| m.energy_j) - p.energy_pct[i] as f64).abs());
        }
    }
    median(&errs)
}

fn run_sweep(
    shape: &Shape,
    seed: u64,
    traced: bool,
    t: &mut Tracer,
    root: usize,
    s: &mut Sample,
) -> ProbeInputs {
    let mut cfg = ExperimentConfig::paper();
    cfg.caps_w = shape.caps_w.clone();
    cfg.runs_per_point = 1;
    cfg.base_seed = seed;
    let points = 1 + cfg.caps_w.len();

    // Set-up is building the E5 nodes, one per point, as CapSweep::run
    // does before each point.
    let span = t.open("setup", Some(root));
    for _ in 0..points {
        black_box(Machine::new(MachineConfig::e5_2680(seed)));
    }
    s.setup_s = t.close(span) / 1e3;

    let sink = Arc::new(Mutex::new(Vec::new()));
    let factory = {
        let sink = Arc::clone(&sink);
        let (rows, width) = (shape.rows, shape.width);
        move |seed| -> Box<dyn App> {
            let mut inner = StereoMatching::paper_scale(seed);
            inner.height = rows;
            inner.width = width;
            Box::new(Point { inner, traced, sink: Arc::clone(&sink) })
        }
    };
    let cpu0 = host::cpu_s();
    let run = t.open("run", Some(root));
    let sweep = CapSweep::new(cfg).run("Stereo Matching", factory);
    let end = Instant::now();
    s.wall_s = t.close(run) / 1e3;
    s.cpu_s = host::cpu_s() - cpu0;
    s.hwm_kb = host::hwm_kb();
    let mut records = std::mem::take(&mut *sink.lock().expect("a sweep point panicked"));
    records.sort_by_key(|r| r.start);
    for r in &records {
        t.record("point", Some(run), t.at_us(r.start), t.at_us(r.end));
    }
    // The sweep's finish: from the last point's end to `run` returning.
    let last = records.iter().map(|r| r.end).max().unwrap_or(end);
    let finish = t.record("finish", Some(run), t.at_us(last), t.at_us(end));
    s.finish_ms = t.spans[finish].ms();
    s.epoch_ms = t.lengths_ms("point");

    let span = t.open("export", Some(root));
    let rows = sweep.all_rows();
    s.digest = hash(&format!("{rows:?}"));
    black_box(table2_performance(&sweep, "A") + &table2_memory(&sweep, "A"));
    s.set("obs.export_ms", t.close(span));

    let mut counters = Counters::default();
    for r in &records {
        counters.add_parts(&r.core, &r.mem);
    }
    counters.record(s);
    let sum = |f: fn(&PointRecord) -> u64| records.iter().map(f).sum::<u64>() as f64;
    s.set("tick.count", sum(|r| r.ticks));
    s.set("bmc.rung_changes", sum(|r| r.rung_changes));
    s.set("obs.events", sum(|r| r.events as u64));
    s.set("obs.events_dropped", sum(|r| r.dropped));
    s.set("paper_err_pp", paper_err_pp(&sweep));

    s.check(records.len() == points, || format!("{} of {points} points ran", records.len()));
    s.check(s.sim_instr > 0.0, || "no instruction was simulated".into());
    s.check(rows.iter().all(|r| r.instr_committed == sweep.baseline.instr_committed), || {
        "committed instructions differ between cap points".into()
    });

    ProbeInputs {
        machine: records.first().map_or_else(|| MachineConfig::e5_2680(seed), |r| r.config.clone()),
        budget_w: 135.0 * points as f64,
        nodes: points,
        readings: vec![rows.iter().enumerate().map(|(i, r)| (i as u32, r.avg_power_w)).collect()],
        curves: headline_curves(seed),
        seed,
        batch_ms: shape.probe_batch_ms,
    }
}

/// Credit the traced run's CPU time to layers: count × probe ÷ CPU.
/// Instruction execution is credited per block-sized fetch (fetched
/// lines ÷ 2, the probe block's lines), node ticks per tick, the wire per
/// transaction, the arrival sampler per arrival. What no probe explains
/// is `unattributed_share`.
fn set_shares(w: Workload, s: &mut Sample) {
    let cpu_ns = s.cpu_s * 1e9;
    let access_ns = match w {
        Workload::Table2Stereo => s.get("mem.access_ns_e5"),
        _ => s.get("mem.access_ns_tiny"),
    };
    let parts = [
        ("mem.share_est", s.get("mem.l1d_accesses") * access_ns),
        ("cpu.share_est", s.get("mem.l1i_accesses") / LINES_PER_BLOCK * s.get("cpu.exec_block_ns")),
        ("tick.share_est", s.get("tick.count") * s.get("tick.ns")),
        ("ipmi.share_est", s.get("ipmi.transactions") * s.get("ipmi.poll_ns")),
        ("traffic.share_est", s.get("traffic.arrivals") * s.get("traffic.arrival_ns")),
    ];
    let mut total = 0.0;
    for (name, ns) in parts {
        let share = ratio(ns, cpu_ns);
        total += share;
        s.set(name, share);
    }
    s.set("unattributed_share", 1.0 - total);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// At most 16 nodes × 2 epochs, or one cap point of a small image.
    fn tiny(w: Workload) -> Shape {
        let mut s = w.shape();
        match w {
            Workload::Table2Stereo => {
                s.rows = 8;
                s.width = 256;
                s.caps_w = vec![120.0];
            }
            _ => {
                s.nodes = 16;
                s.epochs = 2;
            }
        }
        s.probe_batch_ms = 0.2;
        s
    }

    #[test]
    fn every_workload_replays_with_equal_digests_and_closed_books() {
        for w in Workload::ALL {
            let shape = tiny(w);
            let plain = run(w, &shape, 7, false);
            let traced = run(w, &shape, 7, true);
            for s in [&plain, &traced] {
                assert!(s.attempted >= 2, "{}: only {} checks ran", w.name(), s.attempted);
                assert_eq!(s.failed, 0, "{}: {:?}", w.name(), s.notes);
                assert!(s.sim_instr > 0.0 && s.wall_s > 0.0 && s.setup_s > 0.0);
            }
            // Obs on (traced) renders the same report as obs off.
            assert_eq!(plain.digest, traced.digest, "{}", w.name());
            if w != Workload::FleetDc {
                assert_eq!(plain.obs_digest, traced.obs_digest, "{}", w.name());
            }
            if matches!(w, Workload::ServeOpen | Workload::ServeClosed) {
                // Conservation overall and per class, on top of the rest.
                assert!(plain.attempted >= 6 && plain.get("traffic.arrivals") > 0.0);
            }
            assert!(traced.get("cpu.exec_block_ns") > 0.0 && traced.get("dcm.plan_us") > 0.0);
            let credited: f64 = ["mem", "cpu", "tick", "ipmi", "traffic"]
                .iter()
                .map(|l| traced.get(&format!("{l}.share_est")))
                .sum();
            let total = credited + traced.get("unattributed_share");
            assert!((total - 1.0).abs() < 1e-9, "{}: shares sum to {total}", w.name());
            for s in &traced.spans {
                assert!(
                    s.end_us >= s.start_us,
                    "{}: span {} ends before it starts",
                    w.name(),
                    s.name
                );
                if let Some(p) = s.parent {
                    assert!(
                        p < traced.spans.len(),
                        "{}: span {} lost its parent",
                        w.name(),
                        s.name
                    );
                }
            }
        }
    }

    #[test]
    fn paper_error_compares_the_matching_cap_rows() {
        use capsim_core::RunMetrics;
        let base = RunMetrics { time_s: 1.0, energy_j: 1.0, ..RunMetrics::default() };
        // 120 W is the ninth cap: the paper reads +3467% time, +2805% energy.
        let row = RunMetrics { cap_w: Some(120.0), time_s: 35.67, energy_j: 29.05, ..base };
        let sweep = SweepResult { workload: "s".into(), baseline: base, rows: vec![row] };
        let err = paper_err_pp(&sweep);
        assert!(err < 1e-6, "{err}");
    }
}
