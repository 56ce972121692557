//! Fleet-scaling benchmark: measures node-epochs-per-second across fleet
//! sizes and worker counts, checks every configuration lands on
//! byte-identical results, and writes the scaling record to
//! `BENCH_fleet.json`.
//!
//! Usage: `cargo run -p capsim-bench --bin fleet --release [-- out.json]`
//!
//! Thread-count entries re-exec this binary with `CAPSIM_THREADS` set —
//! the rayon shim resolves its worker count once per process, so an
//! honest sweep needs one process per point. Each child runs a single
//! configuration and prints its rate plus a fingerprint of the rendered
//! report; the parent asserts all fingerprints of a configuration agree
//! (the determinism contract: serial ≡ parallel at any worker count).
//!
//! `CAPSIM_SCALE=test` shrinks the run to the CI smoke: a lossy 32-node
//! busy fleet plus a 64-node datacenter-mix fleet, each serial and
//! parallel (2 virtual threads). The default is the full scaling record:
//! a 256-node busy baseline (like-for-like with the trajectory before the
//! parallel engine), 1k/10k-node datacenter-mix serial runs, a thread
//! sweep at 1k nodes and a parallel 10k-node headline.
//!
//! Speedup is whatever the host delivers: on a single-core runner every
//! thread count ties, and the JSON records the measured numbers so
//! readers can judge them.
//!
//! Every serial row also records `heap_bytes_per_node`: the live heap the
//! fleet holds, divided by its node count, right after
//! `FleetBuilder::build` and again after the last epoch
//! (`heap_bytes_per_node_after_run`). A counting global allocator tracks
//! live bytes. Heap bytes depend only on allocation sizes, so unlike RSS
//! they repeat exactly on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use capsim_dcm::{FleetBuilder, WorkloadSpec};
use capsim_ipmi::FaultSpec;

/// Live heap bytes; a statistic that publishes no other data, so every
/// access is `Relaxed`.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes in [`LIVE_BYTES`].
struct LiveHeap;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping is one
// atomic add or subtract and never allocates.
unsafe impl GlobalAlloc for LiveHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: LiveHeap = LiveHeap;

fn live_heap_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// One measured configuration.
#[derive(Clone)]
struct Point {
    nodes: usize,
    epochs: u32,
    /// Worker count the child process ran with (`CAPSIM_THREADS`).
    threads: usize,
    parallel: bool,
    datacenter: bool,
    lossy: bool,
}

impl Point {
    fn label(&self) -> String {
        format!(
            "{} nodes x {} epochs, {} load, threads={}, {}",
            self.nodes,
            self.epochs,
            if self.datacenter { "datacenter" } else { "busy" },
            self.threads,
            if self.parallel { "parallel" } else { "serial" },
        )
    }
}

/// What one configuration measured.
struct Measured {
    point: Point,
    /// Node-epochs per second, build included.
    rate: f64,
    /// Fingerprint of the rendered report.
    fingerprint: u64,
    /// Live heap per node after build, and after the last epoch.
    heap_built: f64,
    heap_ran: f64,
}

/// Run one configuration in-process.
fn measure(p: &Point) -> Measured {
    let mut b = FleetBuilder::new()
        .nodes(p.nodes)
        .epochs(p.epochs)
        .seed(7)
        .workload(if p.datacenter { WorkloadSpec::DatacenterMix } else { WorkloadSpec::RoundRobin })
        .parallel(p.parallel);
    if p.lossy {
        b = b.faults(FaultSpec::lossy(0.05));
    }
    let heap0 = live_heap_bytes();
    let start = Instant::now();
    let mut fleet = b.build();
    let heap_built = live_heap_bytes() - heap0;
    while fleet.epochs_run() < fleet.epochs() {
        fleet.step_epoch();
    }
    let heap_ran = live_heap_bytes() - heap0;
    let report = fleet.finish();
    let wall = start.elapsed().as_secs_f64();
    let mut h = DefaultHasher::new();
    report.render().hash(&mut h);
    let per_node = |bytes: usize| bytes as f64 / p.nodes as f64;
    Measured {
        point: p.clone(),
        rate: (p.nodes as u32 * p.epochs) as f64 / wall,
        fingerprint: h.finish(),
        heap_built: per_node(heap_built),
        heap_ran: per_node(heap_ran),
    }
}

/// Run one configuration in a child process with `CAPSIM_THREADS` set, so
/// the rayon shim actually uses `threads` workers.
fn measure_in_child(p: &Point) -> Measured {
    let exe = std::env::current_exe().expect("own path");
    let out = std::process::Command::new(exe)
        .env("CAPSIM_THREADS", p.threads.to_string())
        .args([
            "--measure",
            &p.nodes.to_string(),
            &p.epochs.to_string(),
            &p.threads.to_string(),
            &u8::from(p.parallel).to_string(),
            &u8::from(p.datacenter).to_string(),
            &u8::from(p.lossy).to_string(),
        ])
        .output()
        .expect("spawn measurement child");
    assert!(
        out.status.success(),
        "measurement child failed for {}: {}",
        p.label(),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("child output");
    let mut it = text.split_whitespace();
    let mut field = |name: &str| it.next().unwrap_or_else(|| panic!("child printed no {name}"));
    Measured {
        point: p.clone(),
        rate: field("rate").parse().expect("rate number"),
        fingerprint: field("fingerprint").parse().expect("fingerprint number"),
        heap_built: field("heap after build").parse().expect("heap bytes"),
        heap_ran: field("heap after run").parse().expect("heap bytes"),
    }
}

/// Child entry: argv = --measure nodes epochs threads parallel datacenter
/// lossy. Prints `<rate> <fingerprint> <heap bytes per node after build>
/// <after run>`.
fn run_child(args: &[String]) {
    let num = |i: usize| args[i].parse::<usize>().expect("numeric arg");
    let p = Point {
        nodes: num(0),
        epochs: num(1) as u32,
        threads: num(2),
        parallel: num(3) != 0,
        datacenter: num(4) != 0,
        lossy: num(5) != 0,
    };
    let m = measure(&p);
    println!("{} {} {} {}", m.rate, m.fingerprint, m.heap_built, m.heap_ran);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--measure") {
        run_child(&args[1..]);
        return;
    }
    let out_path = args.first().cloned().unwrap_or_else(|| "BENCH_fleet.json".into());
    let test_scale = std::env::var("CAPSIM_SCALE").as_deref() == Ok("test");
    let scale = if test_scale { "test" } else { "full" };

    let p = |nodes, epochs, threads, parallel, datacenter, lossy| Point {
        nodes,
        epochs,
        threads,
        parallel,
        datacenter,
        lossy,
    };
    // First entry is the like-for-like baseline of the trajectory; the
    // headline entry is the largest datacenter-mix run, and the speedup
    // is taken at its node count.
    let points: Vec<Point> = if test_scale {
        vec![
            p(32, 4, 1, false, false, true),
            p(32, 4, 2, true, false, true),
            p(64, 4, 1, false, true, true),
            p(64, 4, 2, true, true, true),
        ]
    } else {
        vec![
            // Busy-mix baseline, like-for-like with the pre-hierarchy
            // trajectory (256 clean nodes, serial).
            p(256, 4, 1, false, false, false),
            // Datacenter-mix scaling curve, serial.
            p(1000, 4, 1, false, true, false),
            p(10000, 4, 1, false, true, false),
            // CAPSIM_THREADS sweep at 1k nodes.
            p(1000, 4, 1, true, true, false),
            p(1000, 4, 2, true, true, false),
            p(1000, 4, 4, true, true, false),
            // Headline configuration, parallel.
            p(10000, 4, 2, true, true, false),
        ]
    };

    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("fleet scaling record ({scale}, {host_threads} host threads):");
    let mut measured: Vec<Measured> = Vec::with_capacity(points.len());
    for point in points {
        let m = measure_in_child(&point);
        eprintln!("  {:>9.1} ne/s  {:>8.1} B/node  {}", m.rate, m.heap_built, point.label());
        measured.push(m);
    }

    // Determinism contract: every run of the same simulation
    // configuration (nodes, epochs, load, faults) must land on the same
    // rendered report, serial or parallel at any thread count.
    let mut deterministic = true;
    for m in &measured {
        let twin = measured
            .iter()
            .find(|o| {
                o.point.nodes == m.point.nodes
                    && o.point.epochs == m.point.epochs
                    && o.point.datacenter == m.point.datacenter
                    && o.point.lossy == m.point.lossy
            })
            .expect("self at minimum");
        if twin.fingerprint != m.fingerprint {
            deterministic = false;
            eprintln!("  DETERMINISM BROKEN: {} vs {}", m.point.label(), twin.point.label());
        }
    }
    assert!(deterministic, "the thread count changed simulation results");

    let baseline = &measured[0];
    let headline = measured
        .iter()
        .max_by(|a, b| a.point.nodes.cmp(&b.point.nodes).then(a.rate.total_cmp(&b.rate)))
        .expect("nonempty");
    // Speedup compares like with like: the fastest parallel and the
    // fastest serial run, both at the headline node count (1.0 when
    // either is missing). `bench_check` recomputes it from the curve.
    let best_at = |parallel: bool| {
        measured
            .iter()
            .filter(|m| m.point.parallel == parallel && m.point.nodes == headline.point.nodes)
            .map(|m| m.rate)
            .fold(0.0, f64::max)
    };
    let (best_parallel, best_serial) = (best_at(true), best_at(false));
    let speedup =
        if best_parallel > 0.0 && best_serial > 0.0 { best_parallel / best_serial } else { 1.0 };

    let mut curve = String::new();
    for (i, m) in measured.iter().enumerate() {
        let sep = if i + 1 == measured.len() { "" } else { "," };
        // Heap per node is recorded on serial rows, the series to compare
        // across commits; parallel rows add worker bookkeeping.
        let heap = if m.point.parallel {
            String::new()
        } else {
            format!(
                ", \"heap_bytes_per_node\": {:.1}, \"heap_bytes_per_node_after_run\": {:.1}",
                m.heap_built, m.heap_ran
            )
        };
        curve.push_str(&format!(
            "    {{\"nodes\": {}, \"threads\": {}, \"parallel\": {}, \
             \"load\": \"{}\", \"node_epochs_per_sec\": {:.1}{heap}}}{}\n",
            m.point.nodes,
            m.point.threads,
            m.point.parallel,
            if m.point.datacenter { "datacenter" } else { "busy" },
            m.rate,
            sep
        ));
    }
    let json = format!(
        "{{\n  \"scale\": \"{scale}\",\n  \"host_threads\": {host_threads},\n  \
         \"baseline_nodes\": {},\n  \"baseline_node_epochs_per_sec\": {:.1},\n  \
         \"nodes\": {},\n  \"serial_node_epochs_per_sec\": {:.1},\n  \
         \"speedup\": {speedup:.2},\n  \"deterministic\": {deterministic},\n  \
         \"curve\": [\n{curve}  ]\n}}\n",
        baseline.point.nodes, baseline.rate, headline.point.nodes, best_serial
    );
    std::fs::write(&out_path, &json).expect("write json");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
