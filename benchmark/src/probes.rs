//! Probes: host nanoseconds per call of one public function of a layer,
//! with inputs shaped like the workload. Each probe runs 5 batches of
//! calls, every batch at least `batch_ms` long, and reports the median
//! batch's time per call. Every batch is a span.

use std::hint::black_box;
use std::time::Instant;

use capsim_dcm::{AllocationPolicy, Dcm, NodeId, PumpedLink};
use capsim_ipmi::{GetPowerReading, LanChannel, RetryPolicy, WireOutcome};
use capsim_mem::{MemoryHierarchy, VAddr};
use capsim_node::workload::traffic_keys::{LATENCY_BUCKETS, LATENCY_MS};
use capsim_node::{Machine, MachineConfig, PowerCap};
use capsim_obs::Metrics;
use capsim_traffic::{ArrivalCurve, ArrivalProcess};

use crate::stats::median;
use crate::trace::Tracer;

const BATCHES: usize = 5;
/// Calls between clock reads; small next to every probe's batch.
const CHUNK: u64 = 64;
/// Lines fetched per call of the `exec_block` probe: a 96 B block spans
/// two 64 B lines, so fetched lines ÷ 2 counts block-sized calls.
pub const LINES_PER_BLOCK: f64 = 2.0;
/// `FleetBuilder`'s wait budget per IPMI attempt, in BMC polls.
const POLLS_PER_ATTEMPT: u32 = 16;

/// What the probes need from the workload that was just run.
pub struct ProbeInputs {
    /// Configuration of a node the workload ran on.
    pub machine: MachineConfig,
    /// The DCM's group budget and registry size.
    pub budget_w: f64,
    pub nodes: usize,
    /// Per-barrier power readings (node index, watts) to re-plan.
    pub readings: Vec<Vec<(u32, f64)>>,
    /// Offered-load curves for the arrival probe.
    pub curves: Vec<ArrivalCurve>,
    pub seed: u64,
    /// Minimum host milliseconds per batch.
    pub batch_ms: f64,
}

fn probe(
    t: &mut Tracer,
    parent: usize,
    name: &str,
    batch_ms: f64,
    mut call: impl FnMut(u64),
) -> f64 {
    let mut ns_per_call = Vec::with_capacity(BATCHES);
    let mut i = 0u64;
    for _ in 0..BATCHES {
        let span = t.open(name, Some(parent));
        let start = Instant::now();
        let mut n = 0u64;
        while n == 0 || start.elapsed().as_secs_f64() * 1e3 < batch_ms {
            for _ in 0..CHUNK {
                call(i);
                i += 1;
            }
            n += CHUNK;
        }
        ns_per_call.push(start.elapsed().as_nanos() as f64 / n as f64);
        t.close(span);
    }
    median(&ns_per_call)
}

/// Run every probe; returns `(metric name, value)` pairs.
pub fn run(inp: &ProbeInputs, t: &mut Tracer, parent: usize) -> Vec<(&'static str, f64)> {
    let ms = inp.batch_ms;
    let mut out = Vec::new();

    // capsim-mem, on both geometries. The E5 stream walks 4 B elements
    // over 1 MiB like the stereo rows; the tiny stream is the fleet
    // kernels' `load_stream`: 64 lines from a start that advances one
    // line per quantum, over their 64 KiB working set.
    let mut e5 = MemoryHierarchy::new(MachineConfig::e5_2680(inp.seed).hierarchy, 1, inp.seed);
    out.push((
        "mem.access_ns_e5",
        probe(t, parent, "mem.access_ns_e5", ms, |i| {
            black_box(e5.data_access(0, VAddr(0x100_0000 + (i * 4) % (1 << 20)), false));
        }),
    ));
    let mut tiny = MemoryHierarchy::new(MachineConfig::tiny(inp.seed).hierarchy, 1, inp.seed);
    out.push((
        "mem.access_ns_tiny",
        probe(t, parent, "mem.access_ns_tiny", ms, |i| {
            let (quantum, j) = (i / 64, i % 64);
            let offset = ((quantum + j) * 64) % (64 << 10);
            black_box(tiny.data_access(0, VAddr(0x100_0000 + offset), false));
        }),
    ));

    // capsim-cpu: a 96 B / 24-instruction block, the fleet kernels' block.
    let mut m = Machine::new(inp.machine.clone());
    let block = m.code_block(96, 24);
    out.push((
        "cpu.exec_block_ns",
        probe(t, parent, "cpu.exec_block_ns", ms, |_| m.exec_block(&block)),
    ));

    // Node control tick: one control period of idling under a 135 W cap,
    // with the idle fast-forward off so every call fires a tick.
    let mut cfg = inp.machine.clone();
    cfg.idle_skip = false;
    let period_s = cfg.control_period_us * 1e-6;
    let mut m = Machine::new(cfg);
    m.set_power_cap(Some(PowerCap::new(135.0).expect("135 W is a valid cap")));
    out.push(("tick.ns", probe(t, parent, "tick.ns", ms, |_| m.idle(period_s))));

    // capsim-ipmi: one DCMI power-reading round trip over a pumped link.
    let mut m = Machine::new(inp.machine.clone());
    let (mut port, bmc_port) = LanChannel::pair();
    m.attach_bmc_port(bmc_port);
    let retry = RetryPolicy::default();
    out.push((
        "ipmi.poll_ns",
        probe(t, parent, "ipmi.poll_ns", ms, |_| {
            let mut link = PumpedLink::new(&mut port, &mut m, POLLS_PER_ATTEMPT);
            black_box(WireOutcome::capture(&mut link, &retry, &|seq| {
                GetPowerReading::request(seq)
            }));
        }),
    ));

    // capsim-dcm root: re-plan every recorded barrier's readings.
    let mut dcm = Dcm::new();
    for i in 0..inp.nodes {
        dcm.register(format!("n{i:04}"));
    }
    let demands: Vec<Vec<(NodeId, f64)>> = inp
        .readings
        .iter()
        .map(|r| {
            r.iter()
                .map(|&(i, w)| (dcm.id_at(i as usize).expect("reading from a registered node"), w))
                .collect()
        })
        .collect();
    assert!(!demands.is_empty(), "the plan probe needs at least one barrier's readings");
    let plan_ns = probe(t, parent, "dcm.plan_us", ms, |i| {
        let demand = &demands[i as usize % demands.len()];
        black_box(dcm.plan_allocation(inp.budget_w, &AllocationPolicy::Uniform, demand));
    });
    out.push(("dcm.plan_us", plan_ns / 1e3));

    // capsim-traffic: Lewis–Shedler thinning, one arrival per call.
    let mut arrivals = ArrivalProcess::new(inp.curves.clone(), inp.seed);
    out.push((
        "traffic.arrival_ns",
        probe(t, parent, "traffic.arrival_ns", ms, |_| {
            black_box(arrivals.pop());
        }),
    ));

    // capsim-obs: one completion latency into the log-bucket histogram,
    // latencies spread from 1 µs to 2 ms.
    let mut metrics = Metrics::enabled();
    out.push((
        "obs.observe_ns",
        probe(t, parent, "obs.observe_ns", ms, |i| {
            metrics.observe_log(LATENCY_MS, LATENCY_BUCKETS, 1e-3 * (1 + i % 2048) as f64);
        }),
    ));
    black_box(metrics);
    out
}
