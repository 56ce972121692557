//! The capsim benchmark: four workloads, repeated host-time metrics,
//! per-layer counts and probes. Every later performance or simplicity
//! claim about capsim is measured with it.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
//!     [--out RESULTS.json] [--trace-out SPANS.jsonl]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --compare PARENT.json CHANGE.json
//! ```
//!
//! Defaults: every workload, seed 42, 20 seconds per workload, traced.
//! Results and spans go next to the build (`<target>/benchmark-*.json*`).
//!
//! # Protocol
//!
//! Each rep runs in a fresh child process (this binary re-executed); one
//! child runs at a time. Reps run with `CAPSIM_THREADS=1`: on the
//! two-core reference host, two-thread reps spread 2–3× more from run to
//! run (the IQR of ten 4-rep medians over their median was 0.08–0.18 at
//! two threads against 0.02–0.06 at one), because every parallel phase
//! waits on whichever core the host slowed. Reps of the selected
//! workloads interleave round robin, so a burst of host interference is
//! shared out instead of landing on one workload. A workload keeps
//! getting reps until its reps have used `--seconds` of wall time, and
//! gets at least 3. Every rep records wall seconds, process CPU seconds
//! (`/proc/self/stat`), peak RSS (`VmHWM`), the host's cores and its load
//! average. End-to-end metrics come from these untraced reps and are
//! printed with their median, min, max and sample count; comparing CPU
//! with wall time separates host interference (wall up, CPU flat) from a
//! real regression.
//!
//! With `--trace 1` one traced pass per workload follows the reps. It
//! turns obs on in every fleet, reads per-node counters before
//! `Fleet::finish`, runs the probes, and keeps spans (set-up, each epoch
//! or cap point, finish, export, every probe batch; each with its parent)
//! that are written as JSONL when the benchmark ends. Per-layer metrics
//! come from this pass and from the reps' spans. One more untraced rep
//! runs on two threads (at most the host's cores) to measure parallel
//! efficiency, and must render the same report as the serial reps.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted` and `failed` checks, and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The process exits 1 when any check failed.
//!
//! `--compare` reads two results files and prints one row per workload
//! and metric: the medians of both files' reps with their quartiles and
//! a verdict — better, worse, within bound, or unresolved when either
//! side spreads wider than the bound in `BENCHMARK.json`. `benchmark/SEED_STATE.md` records
//! two full sets of runs of the commit that added the benchmark.
//!
//! # Workloads
//!
//! The program receives only inputs generated from `--seed`.
//!
//! * `table2_stereo` (batch): Table II rows A0–A9. `CapSweep::run` over
//!   the uncapped baseline and the nine caps 160…120 W, one run per
//!   point, `base_seed = seed`; Stereo Matching at the paper's row width
//!   of 4096 (which produces the A8/A9 L2 blow-up) and 16 rows. Nearly
//!   all of its host time is the full E5-2680 memory hierarchy, with way
//!   and TLB gating at deep caps, and instruction execution; it runs no
//!   fleet, wire, traffic or obs.
//! * `fleet_dc` (batch): 512 datacenter-mix nodes, 6 epochs of 0.5 ms,
//!   clean links, obs off, parallel. 13 of every 16 nodes run `Pulse`,
//!   exercising idle fast-forward and control ticks; 3 run busy kernels
//!   on the tiny hierarchy; every epoch polls every node over IPMI, plans
//!   at the root and pushes caps.
//! * `serve_open` (open loop): `EmergencyConfig::headline(192, 32,
//!   seed)` built through `FleetBuilder` and stepped one epoch at a time.
//!   About 1.6M arrivals make arrival thinning, queue admission and
//!   shedding, and the per-completion latency histograms (obs on) the
//!   largest work outside the node step.
//! * `serve_closed` (closed loop): `EmergencyConfig::backpressure_storm(
//!   256, 32, seed)`: AIMD backpressure cuts the offered load, and
//!   retries, barrier failover routing, circuit breakers and brownout all
//!   run — a change that speeds open-loop admission but slows the retry
//!   or failover path shows here.
//!
//! Fault windows are left out of both serving workloads: only the chaos
//! runner injects faults between epochs. Tests and the chaos bench cover
//! the fault paths.
//!
//! # End-to-end metrics (bounds in `BENCHMARK.json`)
//!
//! * `sim_minstr_per_s` (higher is better, bound 25%): simulated
//!   committed instructions, in millions, per host second of the run
//!   (every step plus the finish; set-up excluded), in the fastest rep.
//!   The shared reference host slows a run by 20–35% for seconds to
//!   minutes at a time, and only ever slows it: over ten seeded 20 s runs
//!   the median rep spread by 0.06–0.21 (IQR over median) and the fastest
//!   rep by 0.05–0.14, and two sets of such runs agreed on the fastest
//!   rep's median within 6%. Normalising each rep by a reference loop run
//!   beside it at best halved the rep-level spread. The bound is the
//!   widest allowed for the same reason; `benchmark/SEED_STATE.md` has
//!   the numbers.
//! * `peak_rss_mb` (lower, 5%): peak resident set of the rep process,
//!   median rep.
//! * `setup_s` (lower, 25%): host seconds of set-up, median rep —
//!   `FleetBuilder::build` on the fleet workloads; building the sweep's
//!   ten E5 machines (`Machine::new`, as `CapSweep::run` does per point)
//!   on `table2_stereo`.
//!
//! # Per-layer metrics
//!
//! Layers are named after the crates; `metrics::PER_LAYER` lists them
//! with the end-to-end metric and workload each should move. Each is one
//! of four kinds:
//!
//! * a **count**, read through public accessors (`Machine::counters_now`,
//!   `mem_stats_now`, the merged obs counters, `FleetReport::traffic`):
//!   deterministic for a seed, so two runs must agree exactly. A layer a
//!   workload does not run counts 0 there.
//! * a **probe**, host ns (µs for `dcm.plan_us`) per call from timing
//!   one public function in 5 batches of at least 20 ms and taking the
//!   median batch: `MemoryHierarchy::data_access` on the E5 and tiny
//!   geometries, `Machine::exec_block` (96 B / 24 instructions),
//!   `Machine::idle` for one control period under a 135 W cap with idle
//!   fast-forward off, a `PumpedLink` + `WireOutcome::capture(
//!   GetPowerReading)` round trip, `Dcm::plan_allocation` replayed over
//!   every recorded `EpochRecord::readings` (the cap points' powers on
//!   `table2_stereo`), `ArrivalProcess::pop` on the headline curves, and
//!   `Metrics::observe_log` with the latency buckets.
//! * a **`share_est`**: count × probe ÷ the traced run's CPU seconds —
//!   the share of CPU the layer's calls would take if each cost what its
//!   probe measured in isolation. `unattributed_share` is 1 − Σ
//!   `share_est`: the time outside timing cannot credit to a layer
//!   (glue, cache effects between layers, work no probe covers). It can
//!   go negative when probes overstate in-run costs. Spans inside the
//!   program would resolve it.
//! * a **host** value from the reps: `engine.epoch_ms_p50` and
//!   `engine.epoch_ms_tail` over every epoch (every cap point on
//!   `table2_stereo`) of every rep, the tail at the highest percentile
//!   with at least ten samples beyond it (`engine.epoch_tail_pct`,
//!   `engine.epoch_samples`); `engine.finish_ms`; `engine.cpu_util` =
//!   CPU s ÷ (wall × threads) of the parallel rep; `node_epochs_per_s`,
//!   `requests_per_s` (offered, retries included) and `bytes_per_node` =
//!   (`VmHWM` − RSS before set-up) ÷ nodes; `obs.export_ms` (rendering
//!   the report and the events JSONL, or Table II); `trace_overhead_pct`,
//!   the traced run's wall time against the untraced median.
//!
//! The counts sum over every node (every cap point on `table2_stereo`):
//! `mem.*` and `cpu.*` from the machines' counters; `tick.count`,
//! `tick.idle_skips` and `bmc.rung_changes` (escalations plus
//! de-escalations) from obs, so they exist only where obs is on;
//! `ipmi.*` are the manager's transactions, with `ipmi.poll_skip_ratio`
//! = polls skipped ÷ (nodes × epochs); `dcm.caps_pushed` are wire pushes,
//! `dcm.push_skip_ratio` = pushes skipped ÷ pushes planned; `traffic.*`
//! come from `FleetReport::traffic` and `priority`, with
//! `traffic.goodput_ratio` = completed ÷ arrivals; `obs.events` are the
//! merged events kept and `obs.events_dropped` the events every node's
//! and the manager's rings evicted, read before `finish` because the
//! merged obs never records them. `paper_err_pp` is the median
//! |ours − paper| over the 18 Table II time% and energy% cells;
//! `slo_viol_per_kj` is SLO violations per simulated kJ; `failed_share`
//! is failed checks ÷ checks run.
//!
//! # Checks
//!
//! Every rep and the traced pass of a workload render the same report;
//! the traced `fleet_dc` (obs on) renders byte-identically to the
//! untraced one (obs off); on both serving workloads `arrivals ==
//! completed + shed + in_flight` overall and per priority class; on
//! `table2_stereo` committed instructions are identical at every point;
//! every node answers every barrier; every run simulates instructions.

mod compare;
mod host;
mod json;
mod metrics;
mod probes;
mod sample;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::{Json, Obj};
use metrics::{EndToEnd, END_TO_END, PER_LAYER};
use sample::Sample;
use stats::median;
use workloads::Workload;

/// Worker threads of the measured reps and the traced pass. On the
/// two-core reference host, runs at one thread spread 2–3× less from run
/// to run than runs at two, whose barriers wait on the slower core.
const REP_THREADS: usize = 1;
/// Worker threads of the one parallel rep that measures parallel
/// efficiency (capped at the host's cores).
const PARALLEL_THREADS: usize = 2;
/// Reps every workload gets, however long they take.
const MIN_REPS: usize = 3;

fn parallel_threads() -> usize {
    host::nproc().min(PARALLEL_THREADS)
}

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    trace_out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    // Results land next to the build: <target>/release/benchmark → <target>.
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("."));
    let mut o = Options {
        workloads: Vec::new(),
        seed: 42,
        seconds: 20.0,
        trace: true,
        out: target.join("benchmark-results.json"),
        trace_out: target.join("benchmark-trace.jsonl"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => o.workloads.push(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => o.out = PathBuf::from(value),
            "--trace-out" => o.trace_out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = Workload::ALL.to_vec();
    }
    Ok(o)
}

/// Run one rep of `w` in a fresh process with `threads` workers.
fn spawn_rep(w: Workload, seed: u64, traced: bool, threads: usize) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", w.name(), &seed.to_string(), if traced { "1" } else { "0" }])
        .env("CAPSIM_THREADS", threads.to_string())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a {} rep: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("a {} rep failed: {}", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    Json::parse(line)
        .ok()
        .as_ref()
        .and_then(Sample::from_json)
        .ok_or_else(|| format!("a {} rep printed no sample", w.name()))
}

/// The child side of `spawn_rep`: `--child NAME SEED TRACED`.
fn child(args: &[String]) -> ExitCode {
    let parsed = match args {
        [name, seed, traced] => {
            Workload::parse(name).zip(seed.parse::<u64>().ok()).map(|(w, s)| (w, s, traced == "1"))
        }
        _ => None,
    };
    let Some((w, seed, traced)) = parsed else {
        eprintln!("usage: benchmark --child WORKLOAD SEED 0|1");
        return ExitCode::from(2);
    };
    println!("{}", workloads::run(w, &w.shape(), seed, traced).to_json());
    ExitCode::SUCCESS
}

/// Everything measured for one workload.
struct Outcome {
    workload: Workload,
    reps: Vec<Sample>,
    traced: Option<Sample>,
    /// An untraced rep on `parallel_threads()` workers.
    parallel: Option<Sample>,
    /// Seconds of wall time the reps have used.
    elapsed_s: f64,
}

impl Outcome {
    /// Checks run, checks failed, and a line per failure: the reps' and
    /// traced pass's own checks plus the digest comparisons between them.
    fn checks(&self) -> (u64, u64, Vec<String>) {
        let mut acc = Sample::default();
        for s in self.reps.iter().chain(&self.traced).chain(&self.parallel) {
            acc.attempted += s.attempted;
            acc.failed += s.failed;
            acc.notes.extend(s.notes.iter().cloned());
        }
        let first = &self.reps[0];
        for (i, s) in self.reps.iter().enumerate().skip(1) {
            acc.check(s.digest == first.digest && s.obs_digest == first.obs_digest, || {
                format!("rep {i} digest differs from rep 0")
            });
        }
        if let Some(p) = &self.parallel {
            acc.check(p.digest == first.digest && p.obs_digest == first.obs_digest, || {
                "the parallel rep differs from the serial reps".into()
            });
        }
        if let Some(t) = &self.traced {
            acc.check(t.digest == first.digest, || {
                "the traced pass renders a different report".into()
            });
            if !first.obs_digest.is_empty() {
                acc.check(t.obs_digest == first.obs_digest, || {
                    "the traced pass exports different obs".into()
                });
            }
        }
        let name = self.workload.name();
        (acc.attempted, acc.failed, acc.notes.iter().map(|n| format!("{name}: {n}")).collect())
    }

    /// Per-rep values of an end-to-end metric.
    fn samples(&self, metric: &EndToEnd) -> Vec<f64> {
        self.reps.iter().map(metric.of).collect()
    }

    /// Per-layer values, in `PER_LAYER` order.
    fn layer(&self) -> Vec<(&'static str, f64)> {
        let per_rep =
            |f: &dyn Fn(&Sample) -> f64| median(&self.reps.iter().map(f).collect::<Vec<_>>());
        let epochs: Vec<f64> = self.reps.iter().flat_map(|s| s.epoch_ms.iter().copied()).collect();
        let (tail_pct, tail_ms) = stats::tail(&epochs);
        let wall_s = per_rep(&|s| s.wall_s);
        let (attempted, failed, _) = self.checks();
        let host = [
            ("engine.epoch_ms_p50", median(&epochs)),
            ("engine.epoch_ms_tail", tail_ms),
            ("engine.epoch_tail_pct", tail_pct),
            ("engine.epoch_samples", epochs.len() as f64),
            ("engine.finish_ms", per_rep(&|s| s.finish_ms)),
            (
                "engine.cpu_util",
                self.parallel
                    .as_ref()
                    .map_or(0.0, |p| p.cpu_s / (p.wall_s * parallel_threads() as f64)),
            ),
            ("node_epochs_per_s", per_rep(&|s| s.node_epochs / s.wall_s)),
            ("requests_per_s", per_rep(&|s| s.requests / s.wall_s)),
            (
                "bytes_per_node",
                per_rep(&|s| {
                    if s.nodes > 0.0 {
                        (s.hwm_kb - s.rss_base_kb) * 1024.0 / s.nodes
                    } else {
                        0.0
                    }
                }),
            ),
            (
                "trace_overhead_pct",
                self.traced.as_ref().map_or(0.0, |t| (t.wall_s / wall_s - 1.0) * 100.0),
            ),
            ("failed_share", failed as f64 / attempted.max(1) as f64),
        ];
        PER_LAYER
            .iter()
            .map(|l| {
                let value = match host.iter().find(|(k, _)| *k == l.name) {
                    Some(&(_, v)) => v,
                    None => self.traced.as_ref().map_or(0.0, |t| t.get(l.name)),
                };
                (l.name, value)
            })
            .collect()
    }

    fn describe(&self) -> String {
        let shape = self.workload.shape();
        let size = match self.workload {
            Workload::Table2Stereo => {
                format!("{} points, {}x{} stereo", 1 + shape.caps_w.len(), shape.width, shape.rows)
            }
            _ => format!("{} nodes x {} epochs", shape.nodes, shape.epochs),
        };
        format!(
            "{} ({}, {size}, {} reps)",
            self.workload.name(),
            self.workload.loop_kind(),
            self.reps.len()
        )
    }

    fn to_json(&self) -> Json {
        let nproc = host::nproc();
        let reps: Vec<Json> = self
            .reps
            .iter()
            .map(|s| {
                Obj::new()
                    .with("wall_s", s.wall_s)
                    .with("cpu_s", s.cpu_s)
                    .with("setup_s", s.setup_s)
                    .with("hwm_kb", s.hwm_kb)
                    .with("loadavg", s.loadavg)
                    .with("nproc", nproc)
                    .into()
            })
            .collect();
        let samples = Json::Obj(
            END_TO_END.iter().map(|e| (e.name.to_string(), Json::from(self.samples(e)))).collect(),
        );
        let (attempted, failed, notes) = self.checks();
        let mut o = Obj::new()
            .with("why", self.workload.why())
            .with("reps", Json::Arr(reps))
            .with("samples", samples)
            .with("attempted", attempted)
            .with("failed", failed)
            .with("notes", notes);
        if self.traced.is_some() {
            let layer = self.layer().into_iter().map(|(k, v)| (k.to_string(), Json::Num(v)));
            o.push("layer", Json::Obj(layer.collect()));
        }
        o.into()
    }
}

fn print_outcome(o: &Outcome) {
    println!("== {}", o.describe());
    println!("   why: {}", o.workload.why());
    let col = |f: fn(&Sample) -> f64| o.reps.iter().map(f).collect::<Vec<f64>>();
    let (wall, cpu, load) = (col(|s| s.wall_s), col(|s| s.cpu_s), col(|s| s.loadavg));
    println!(
        "   host: {} cores, {REP_THREADS} thread; per rep wall {:.3} s, cpu {:.3} s (medians); \
         load {:.2}..{:.2}",
        host::nproc(),
        median(&wall),
        median(&cpu),
        stats::min(&load),
        stats::max(&load)
    );
    println!(
        "   {:<24} {:<10} {:>14} {:>14} {:>14} {:>14} {:>4}  bound",
        "end-to-end", "unit", "value", "median", "min", "max", "n"
    );
    for e in &END_TO_END {
        let xs = o.samples(e);
        println!(
            "   {:<24} {:<10} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}  {:.0}% ({} is better)",
            e.name,
            e.unit,
            (e.summary)(&xs),
            median(&xs),
            stats::min(&xs),
            stats::max(&xs),
            xs.len(),
            e.bound * 100.0,
            e.better.name()
        );
    }
    if o.traced.is_some() {
        println!("   {:<24} {:<10} {:>14}  kind", "per layer", "unit", "value");
        for (name, value) in o.layer() {
            let l = metrics::layer(name).expect("listed metric");
            println!("   {name:<24} {:<10} {value:>14.6}  {}", l.unit, l.kind.name());
        }
    }
}

fn run(o: &Options) -> Result<bool, String> {
    let mut outcomes: Vec<Outcome> = o
        .workloads
        .iter()
        .map(|&workload| Outcome {
            workload,
            reps: Vec::new(),
            traced: None,
            parallel: None,
            elapsed_s: 0.0,
        })
        .collect();
    loop {
        let mut ran = false;
        for out in outcomes.iter_mut() {
            if out.reps.len() >= MIN_REPS && out.elapsed_s >= o.seconds {
                continue;
            }
            let start = Instant::now();
            out.reps.push(spawn_rep(out.workload, o.seed, false, REP_THREADS)?);
            out.elapsed_s += start.elapsed().as_secs_f64();
            ran = true;
        }
        if !ran {
            break;
        }
    }
    if o.trace {
        for out in outcomes.iter_mut() {
            out.traced = Some(spawn_rep(out.workload, o.seed, true, REP_THREADS)?);
            out.parallel = Some(spawn_rep(out.workload, o.seed, false, parallel_threads())?);
        }
    }

    let (mut attempted, mut failed) = (0, 0);
    for out in &outcomes {
        print_outcome(out);
        let (a, f, notes) = out.checks();
        attempted += a;
        failed += f;
        for n in notes {
            eprintln!("CHECK FAILED {n}");
        }
    }

    let results: Json = Obj::new()
        .with("seed", o.seed)
        .with("seconds", o.seconds)
        .with("threads", REP_THREADS)
        .with("parallel_threads", parallel_threads())
        .with("nproc", host::nproc())
        .with(
            "workloads",
            Json::Obj(
                outcomes
                    .iter()
                    .map(|out| (out.workload.name().to_string(), out.to_json()))
                    .collect(),
            ),
        )
        .into();
    write(&o.out, &format!("{results}\n"))?;
    if o.trace {
        let (mut text, mut id_base) = (String::new(), 0);
        for out in &outcomes {
            let spans = &out.traced.as_ref().expect("traced pass ran").spans;
            text += &trace::to_jsonl(out.workload.name(), spans, id_base);
            id_base += spans.len();
        }
        write(&o.trace_out, &text)?;
    }

    // The last line: end-to-end medians untraced, per-layer values traced.
    let single = outcomes.len() == 1;
    let key = |w: Workload, name: &str| {
        if single {
            name.to_string()
        } else {
            format!("{}/{name}", w.name())
        }
    };
    let mut metrics = Vec::new();
    for out in &outcomes {
        if o.trace {
            for (name, value) in out.layer() {
                let unit = metrics::layer(name).expect("listed metric").unit;
                metrics.push((
                    key(out.workload, name),
                    Obj::new().with("value", value).with("unit", unit).into(),
                ));
            }
        } else {
            for e in &END_TO_END {
                let value = (e.summary)(&out.samples(e));
                metrics.push((
                    key(out.workload, e.name),
                    Obj::new().with("value", value).with("unit", e.unit).into(),
                ));
            }
        }
    }
    let last: Json = Obj::new()
        .with("correct", failed == 0)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", Json::Obj(metrics))
        .into();
    println!("{last}");
    Ok(failed == 0)
}

fn write(path: &PathBuf, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--child") => return child(&args[1..]),
        Some("--compare") => return compare::run(&args[1..]),
        _ => {}
    }
    let options = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
