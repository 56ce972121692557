//! The simulated node: cores + hierarchy + power + BMC, and the API
//! workloads execute against.
//!
//! # Execution model
//!
//! A workload calls [`Machine::exec_block`], [`Machine::load`],
//! [`Machine::store`], [`Machine::branch`] and [`Machine::compute`] as it
//! performs its real computation on host data. Each call charges the
//! timing model:
//!
//! * committed instructions cost `n / issue_width` core cycles,
//! * memory operations traverse the simulated hierarchy; latency beyond
//!   the (pipelined, hidden) L1 hit is charged with a memory-level-
//!   parallelism exposure factor, DRAM nanoseconds likewise,
//! * [`Machine::load_serial`] charges the *full* dependent-load latency —
//!   that is what a pointer chase or the paper's stride microbenchmark
//!   measures,
//! * mispredicted branches cost a pipeline refill and execute wrong-path
//!   instructions (and one wrong-path load that can pollute the caches) —
//!   the paper's executed-vs-committed gap.
//!
//! Core cycles stretch with the active P-state and T-state duty; DRAM time
//! does not scale with frequency. Every `control_period_us` of simulated
//! time the machine computes node power from the window's activity, feeds
//! the meter/energy/thermal models, services the out-of-band IPMI port and
//! runs the BMC control loop, applying whatever rung it selects.
//!
//! # Multi-core runs
//!
//! For the multi-core extension (future-work item 1) the machine tracks
//! per-core private cache slices and counters. The workload must keep the
//! cores load-balanced (static partitioning): the global clock follows
//! core 0, which is exact when every core performs the same work per
//! round and a documented approximation otherwise.

use capsim_cpu::{CounterFile, FreqMeter, GsharePredictor, PStateTable, SimClock, TimingParams};
use capsim_ipmi::BmcPort;
use capsim_mem::{MemStats, MemoryHierarchy, VAddr, PAGE_SIZE};
use capsim_power::{ActivityWindow, NodePowerModel, PowerMeter, RaplCounters, ThermalModel};

use capsim_obs::{EventKind, Metrics};

use crate::bmc::{Bmc, BmcTelemetry, PowerCap};
use crate::config::MachineConfig;
use crate::ladder::{Rung, ThrottleLadder};
use crate::region::{CodeBlock, Region};
use crate::trace::{RunTrace, TraceSample};
use crate::workload::traffic_keys;

/// Bucket edges for the per-tick node-power histogram (watts). Spans the
/// idle floor (~100 W) through the uncapped Table I band (~160 W).
static POWER_W_BOUNDS: [f64; 8] = [100.0, 110.0, 120.0, 125.0, 130.0, 140.0, 150.0, 170.0];

/// A request a serving workload could not admit, exported for cross-node
/// failover at the fleet barrier. Plain data so the fleet engine can
/// route requests between nodes without depending on any particular
/// workload implementation; `kind` is a workload-defined service-class
/// discriminant and `quanta` the remaining service demand.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailoverRequest {
    /// Original arrival time on the shedding node's clock (latency keeps
    /// accruing across the failover hop).
    pub arrival_s: f64,
    /// Remaining service demand in workload quanta.
    pub quanta: u32,
    /// Workload-defined service-class discriminant.
    pub kind: u8,
    /// Priority class (0 = most critical); preserved across the hop so
    /// per-class conservation accounting stays exact fleet-wide.
    pub class: u8,
}

/// A serving workload's queue occupancy, reported to the fleet barrier so
/// failover routing can pick the least-loaded node (`None` from batch
/// workloads, which take no part in routing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueRoom {
    /// Requests currently queued.
    pub depth: usize,
    /// Admissions the bounded queue can still take.
    pub free: usize,
}

/// A workload that can be driven in epoch quanta by [`Machine::step`].
///
/// Each call performs one small slice of work (a few microseconds of
/// simulated time) against the machine; the driver calls it until the
/// epoch's simulated-time budget is consumed. Implementations own their
/// own progress state (indices, regions, phase), so a node can be stepped,
/// handed to another thread, and stepped again.
///
/// The remaining methods are serving-workload hooks with batch-friendly
/// defaults: the fleet barrier uses them to route shed requests between
/// nodes ([`EpochWorkload::drain_shed`] / [`EpochWorkload::queue_room`] /
/// [`EpochWorkload::accept_failover`]) and to let a workload flush
/// end-of-run accounting ([`EpochWorkload::finish`]). Batch kernels
/// implement none of them.
pub trait EpochWorkload: Send {
    /// Execute one quantum of work. Must advance simulated time (charge
    /// at least one instruction or memory access); a quantum that charges
    /// nothing idles the node for the rest of the epoch.
    fn quantum(&mut self, m: &mut Machine);

    /// Current queue occupancy, for failover routing. `None` (the batch
    /// default) keeps the node out of routing entirely.
    fn queue_room(&self) -> Option<QueueRoom> {
        None
    }

    /// Drain the requests shed at a full queue since the last barrier.
    /// Only called (and only non-empty) when the workload defers its shed
    /// decisions to the fleet; the caller owns the final fate of every
    /// drained request — re-offered elsewhere or counted shed.
    fn drain_shed(&mut self) -> Vec<FailoverRequest> {
        Vec::new()
    }

    /// Accept a request re-offered by the fleet barrier. Returns `false`
    /// (the batch default) when the workload cannot take it; the caller
    /// then counts the request shed at its origin.
    fn accept_failover(&mut self, m: &mut Machine, req: FailoverRequest) -> bool {
        let _ = (m, req);
        false
    }

    /// End-of-run hook, called once before the machine's own
    /// `finish_run`: flush accounting that only settles when the run ends
    /// (e.g. the `traffic.in_flight` conservation counter).
    fn finish(&mut self, m: &mut Machine) {
        let _ = m;
    }
}

/// Summary of one completed run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Simulated wall-clock execution time in seconds.
    pub wall_s: f64,
    /// Node energy over the run in joules.
    pub energy_j: f64,
    /// Time-weighted average node power (the Watts Up! number).
    pub avg_power_w: f64,
    /// APERF/MPERF-style average frequency in MHz (the Table II column).
    pub avg_freq_mhz: f64,
    /// Minimum/maximum windowed power seen.
    pub min_power_w: f64,
    pub max_power_w: f64,
    /// Core-side counters summed over cores.
    pub counters: CounterFile,
    /// Memory-side counters summed over cores.
    pub mem: MemStats,
    /// Final die temperature.
    pub die_temp_c: f64,
    /// (escalations, de-escalations, exceptions) from the BMC.
    pub bmc_stats: (u64, u64, u64),
    /// Rung index the BMC ended on.
    pub final_rung: usize,
    /// RAPL-style per-domain energy (package / PP0 / DRAM).
    pub rapl: RaplCounters,
}

/// One-entry memo of a charge's time conversion at the current rung:
/// `(cycles, ns)` → `(unhalted_ns, wall_ns)`, keyed on the exact bits of
/// the inputs. A workload charges only a handful of distinct values per
/// rung (an L1 hit, a fetched block, an L2 hit…), so runs of identical
/// charges skip the two divisions and the P-state lookup. A miss computes
/// the value with the same expressions, so a hit is bit-exact by
/// construction; [`Machine::set_rung`] clears the memo whenever frequency
/// or duty can change.
#[derive(Clone, Copy, Debug)]
struct ChargeMemo {
    key: (u64, u64),
    val: (f64, f64),
}

impl ChargeMemo {
    /// Zero cycles plus zero ns take `(+0.0, +0.0)` at every rung, so the
    /// cleared entry is exact without knowing the rung.
    const CLEAR: ChargeMemo = ChargeMemo { key: (0, 0), val: (0.0, 0.0) };

    #[inline]
    fn times(&mut self, cycles: f64, ns: f64, pstates: &PStateTable, rung: &Rung) -> (f64, f64) {
        let key = (cycles.to_bits(), ns.to_bits());
        let compute = || {
            let unhalted_ns = cycles * 1e3 / pstates.get(rung.pstate).freq_mhz;
            (unhalted_ns, unhalted_ns / rung.tstate.duty() + ns)
        };
        if self.key == key {
            let bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
            debug_assert_eq!(
                bits(compute()),
                bits(self.val),
                "charge memo diverged from the recomputed conversion for {cycles} cycles + {ns} ns"
            );
            return self.val;
        }
        self.key = key;
        self.val = compute();
        self.val
    }
}

struct CoreState {
    counters: CounterFile,
    unhalted_cycles_f: f64,
    /// Wall time this core has accumulated in the current window.
    win_wall_ns: f64,
    predictor: GsharePredictor,
}

/// A sensor-layer fault: a transform applied to the telemetry copy the
/// BMC samples each control tick. The meter/energy ground truth is never
/// touched — energy accounting stays conserved under any sensor fault,
/// which the chaos harness checks as an invariant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SensorFault {
    /// Power readings stuck at a fixed value.
    StuckAt { watts: f64 },
    /// Readings drift away from truth linearly in simulated time.
    Drift { watts_per_s: f64 },
    /// Every `period_ticks`-th sample is replaced by a spike.
    Spike { watts: f64, period_ticks: u32 },
    /// The sensor returns nothing; readings collapse to zero.
    Dropout,
}

impl SensorFault {
    /// Stable tag used in event streams and fault plans.
    pub fn name(self) -> &'static str {
        match self {
            SensorFault::StuckAt { .. } => "sensor_stuck",
            SensorFault::Drift { .. } => "sensor_drift",
            SensorFault::Spike { .. } => "sensor_spike",
            SensorFault::Dropout => "sensor_dropout",
        }
    }
}

/// The simulated node.
///
/// ```
/// use capsim_node::{Machine, MachineConfig, PowerCap};
///
/// let mut m = Machine::new(MachineConfig::tiny(42));
/// m.set_power_cap(Some(PowerCap::new(135.0).unwrap()));
/// let data = m.alloc(4096);
/// let hot = m.code_block(96, 24);
/// for i in 0..1_000u64 {
///     m.exec_block(&hot);
///     m.load(data.at((i * 64) % 4096));
/// }
/// let stats = m.finish_run();
/// assert!(stats.wall_s > 0.0);
/// assert_eq!(stats.counters.loads, 1_000);
/// assert!((stats.energy_j - stats.avg_power_w * stats.wall_s).abs() < 1e-6);
/// ```
pub struct Machine {
    cfg: MachineConfig,
    timing: TimingParams,
    hier: MemoryHierarchy,
    clock: SimClock,
    cores: Vec<CoreState>,
    active_core: usize,
    /// Changed only through [`Machine::set_rung`], which keeps
    /// `charge_memo` in step with it.
    rung: Rung,
    charge_memo: ChargeMemo,
    bmc: Bmc,
    bmc_port: Option<BmcPort>,
    /// The request books: always on, empty unless a workload serves.
    serving: Metrics,
    freq_meter: FreqMeter,
    power_model: NodePowerModel,
    meter: PowerMeter,
    rapl: RaplCounters,
    thermal: ThermalModel,
    // Control-loop bookkeeping.
    tick_period_ns: f64,
    next_tick_ns: f64,
    window_start_ns: f64,
    win_instr: u64,
    win_cycles: f64,
    win_idle_ns: f64,
    win_mem_snapshot: MemStats,
    min_power_w: f64,
    max_power_w: f64,
    // Bump allocators for data and code address spaces.
    data_brk: u64,
    code_brk: u64,
    // Wrong-path address scrambler and the last committed data address
    // (wrong paths run plausible nearby code, so their loads land close
    // to real ones — the paper's executed-load drift is ≤0.36 %).
    rng_state: u64,
    last_data_vaddr: u64,
    trace: Option<RunTrace>,
    // Injected fault state (chaos harness).
    sensor_fault: Option<SensorFault>,
    fault_start_s: f64,
    fault_ticks: u32,
    stale_telemetry: bool,
    frozen_telemetry: Option<BmcTelemetry>,
}

/// Data space starts at 16 MiB, code space at 256 GiB — far apart so the
/// two never collide.
const DATA_BASE: u64 = 16 << 20;
const CODE_BASE: u64 = 256 << 30;

impl Machine {
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate();
        let ladder = ThrottleLadder::e5_2680(&cfg.pstates, cfg.full_mem());
        Self::with_ladder(cfg, ladder)
    }

    /// Build with a given throttle ladder: ablations swap in
    /// [`ThrottleLadder::dvfs_only`], and a fleet passes every node a
    /// clone of the one ladder it built, which shares its rungs.
    pub fn with_ladder(cfg: MachineConfig, ladder: ThrottleLadder) -> Self {
        cfg.validate();
        let hier = MemoryHierarchy::new(cfg.hierarchy, cfg.n_cores, cfg.seed);
        let cores = (0..cfg.n_cores)
            .map(|_| CoreState {
                counters: CounterFile::default(),
                unhalted_cycles_f: 0.0,
                win_wall_ns: 0.0,
                predictor: GsharePredictor::new(cfg.predictor_bits),
            })
            .collect();
        let rung = ladder.get(0);
        let tick_period_ns = cfg.control_period_us * 1e3;
        Machine {
            timing: cfg.timing,
            hier,
            clock: SimClock::new(),
            cores,
            active_core: 0,
            rung,
            charge_memo: ChargeMemo::CLEAR,
            bmc: Bmc::new(ladder),
            bmc_port: None,
            serving: Metrics::enabled(),
            freq_meter: FreqMeter::new(),
            power_model: NodePowerModel::new(cfg.power),
            meter: PowerMeter::new(cfg.meter_window_s),
            rapl: RaplCounters::new(),
            thermal: ThermalModel::e5_2680(),
            tick_period_ns,
            next_tick_ns: tick_period_ns,
            window_start_ns: 0.0,
            win_instr: 0,
            win_cycles: 0.0,
            win_idle_ns: 0.0,
            win_mem_snapshot: MemStats::default(),
            min_power_w: f64::INFINITY,
            max_power_w: 0.0,
            data_brk: DATA_BASE,
            code_brk: CODE_BASE,
            rng_state: cfg.seed | 1,
            last_data_vaddr: DATA_BASE,
            trace: None,
            sensor_fault: None,
            fault_start_s: 0.0,
            fault_ticks: 0,
            stale_telemetry: false,
            frozen_telemetry: None,
            cfg,
        }
    }

    /// Attach the out-of-band management port (from
    /// `capsim_ipmi::LanChannel::pair`). The BMC services it each control
    /// tick.
    pub fn attach_bmc_port(&mut self, port: BmcPort) {
        self.bmc_port = Some(port);
    }

    /// Set or clear the power cap directly (single-node experiments; DCM
    /// does the same over IPMI).
    pub fn set_power_cap(&mut self, cap: Option<PowerCap>) {
        self.bmc.set_cap(cap);
    }

    /// The active power cap, if any.
    pub fn power_cap(&self) -> Option<PowerCap> {
        self.bmc.cap()
    }

    /// Install a capping-policy backend on the node's BMC (default: the
    /// ladder walk).
    pub fn set_cap_policy(&mut self, policy: Box<dyn capsim_policy::CapPolicy>) {
        self.bmc.set_policy(policy);
    }

    /// The BMC's installed capping-policy backend.
    pub fn cap_policy(&self) -> &dyn capsim_policy::CapPolicy {
        self.bmc.policy()
    }

    /// Service pending out-of-band requests once, outside the control
    /// loop. A manager's wait calls this before each delivery poll (the
    /// fleet's `PumpedLink`), so a request is answered within the
    /// transaction that sent it — mid-run, between epochs or after the run.
    /// The control tick serves the port too: a request frame a faulty link
    /// releases after its transaction gave up is answered at the next tick.
    pub fn service_bmc(&mut self) {
        if let Some(port) = &self.bmc_port {
            let _ = self.bmc.serve(port);
        }
    }

    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Simulated time now, in seconds.
    pub fn now_s(&self) -> f64 {
        self.clock.now_s()
    }

    /// The rung the machine is currently executing at.
    pub fn current_rung(&self) -> Rung {
        self.rung
    }

    /// Select the core subsequent charges are attributed to (multi-core
    /// workloads interleave their stripes with this).
    pub fn set_active_core(&mut self, core: usize) {
        assert!(core < self.cores.len());
        self.active_core = core;
    }

    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    // ---------------------------------------------------------- allocation

    /// Allocate a page-aligned data region.
    pub fn alloc(&mut self, bytes: u64) -> Region {
        let size = bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let base = self.data_brk;
        self.data_brk += size + PAGE_SIZE; // guard page between regions
        Region::new(VAddr(base), size)
    }

    /// Allocate a code block of `bytes` holding `instrs` instructions.
    /// Blocks allocate sequentially, so a workload's blocks form a compact
    /// code footprint like a real text segment.
    pub fn code_block(&mut self, bytes: u64, instrs: u64) -> CodeBlock {
        let addr = VAddr(self.code_brk);
        self.code_brk += bytes;
        CodeBlock::new(addr, bytes, instrs)
    }

    /// Pad the code cursor to the next page boundary (places the following
    /// blocks on fresh pages — used to shape ITLB footprints).
    pub fn code_page_align(&mut self) {
        self.code_brk = self.code_brk.div_ceil(PAGE_SIZE) * PAGE_SIZE;
    }

    // ------------------------------------------------------------- charges

    /// Charge `cycles` core cycles plus `ns` fixed nanoseconds to the
    /// active core and advance time.
    #[inline]
    fn charge(&mut self, cycles: f64, ns: f64) {
        let (unhalted_ns, wall_ns) =
            self.charge_memo.times(cycles, ns, &self.cfg.pstates, &self.rung);
        self.freq_meter.record(cycles, unhalted_ns);
        let core = &mut self.cores[self.active_core];
        core.unhalted_cycles_f += cycles;
        core.win_wall_ns += wall_ns;
        self.win_cycles += cycles;
        if self.active_core == 0 {
            self.clock.advance_ns(wall_ns);
            while self.clock.now_ns() >= self.next_tick_ns {
                self.tick();
            }
        }
    }

    /// Execute a basic block: fetch its lines, commit its instructions.
    pub fn exec_block(&mut self, block: &CodeBlock) {
        let core = self.active_core;
        let mut fetch_cycles = 0.0;
        let mut fetch_ns = 0.0;
        let mut addr = block.addr.0;
        let end = block.addr.0 + block.bytes;
        while addr < end {
            let out = self.hier.fetch_access(core, VAddr(addr));
            // The first-line fetch of a hit is hidden by the pipeline;
            // misses expose their penalty like data misses.
            let penalty = (out.cycles as f64 - self.cfg.hierarchy.l1i.hit_cycles as f64).max(0.0);
            fetch_cycles += penalty * self.timing.cache_exposed;
            fetch_ns += out.ns * self.timing.dram_exposed;
            addr += self.cfg.hierarchy.l1i.line_bytes;
        }
        let c = &mut self.cores[core].counters;
        c.instructions_committed += block.instrs;
        c.instructions_executed += block.instrs;
        self.win_instr += block.instrs;
        let cycles = self.timing.base_cycles(block.instrs) + fetch_cycles;
        self.charge(cycles, fetch_ns);
    }

    /// Commit `n` pure-ALU instructions (no instruction-fetch modelling;
    /// pair with [`Machine::exec_block`] for fetched loops).
    pub fn compute(&mut self, n: u64) {
        let c = &mut self.cores[self.active_core].counters;
        c.instructions_committed += n;
        c.instructions_executed += n;
        self.win_instr += n;
        self.charge(self.timing.base_cycles(n), 0.0);
    }

    #[inline]
    fn data_op(&mut self, addr: VAddr, write: bool, serial: bool) {
        let core = self.active_core;
        self.last_data_vaddr = addr.0;
        let out = self.hier.data_access(core, addr, write);
        let c = &mut self.cores[core].counters;
        c.instructions_committed += 1;
        c.instructions_executed += 1;
        if write {
            c.stores += 1;
        } else {
            c.loads += 1;
        }
        self.win_instr += 1;
        let (cycles, ns) = if serial {
            (out.cycles as f64, out.ns)
        } else {
            let hidden = self.cfg.hierarchy.l1d.hit_cycles as f64;
            (
                self.timing.base_cycles(1)
                    + (out.cycles as f64 - hidden).max(0.0) * self.timing.cache_exposed,
                out.ns * self.timing.dram_exposed,
            )
        };
        self.charge(cycles, ns);
    }

    /// A pipelined load: L1 hits are free beyond the issue slot; miss
    /// penalties are partially overlapped.
    #[inline]
    pub fn load(&mut self, addr: VAddr) {
        self.data_op(addr, false, false);
    }

    /// A pipelined store (write-allocate; latency hidden by the store
    /// buffer like a pipelined load).
    #[inline]
    pub fn store(&mut self, addr: VAddr) {
        self.data_op(addr, true, false);
    }

    /// A serially dependent load: the full hierarchy latency lands on the
    /// critical path. Pointer chases and latency microbenchmarks use this.
    #[inline]
    pub fn load_serial(&mut self, addr: VAddr) {
        self.data_op(addr, false, true);
    }

    /// A batched modular load stream: `count` pipelined loads at
    /// `base + (start + stride*i) % window` for `i = 0..count`.
    ///
    /// Exactly equivalent to calling [`Machine::load`] in a loop (same
    /// per-access counter updates and tick boundaries), but streaming
    /// kernels make one call per phase instead of one per access.
    pub fn load_stream(&mut self, base: VAddr, window: u64, start: u64, stride: u64, count: u64) {
        self.data_stream(base, window, start, stride, count, false);
    }

    /// The serially-dependent analogue of [`Machine::load_stream`].
    pub fn load_serial_stream(
        &mut self,
        base: VAddr,
        window: u64,
        start: u64,
        stride: u64,
        count: u64,
    ) {
        self.data_stream(base, window, start, stride, count, true);
    }

    /// Batched load-stream engine. The timing exposure factors are
    /// hoisted out of the access loop, and the loop borrows the
    /// hierarchy/clock/counters once instead of re-resolving `&mut self`
    /// per access. The arithmetic is kept expression-for-expression
    /// identical to [`Machine::data_op`], the time conversion goes
    /// through the same [`ChargeMemo`] as [`Machine::charge`], and the
    /// loop breaks out to [`Machine::tick`] at exactly the boundaries the
    /// per-access path would have hit, so the batch is bit-exact with
    /// calling [`Machine::load`] in a loop.
    fn data_stream(
        &mut self,
        base: VAddr,
        window: u64,
        start: u64,
        stride: u64,
        count: u64,
        serial: bool,
    ) {
        debug_assert!(window > 0);
        let core_idx = self.active_core;
        let hidden = self.cfg.hierarchy.l1d.hit_cycles as f64;
        let base_cycles = self.timing.base_cycles(1);
        let cache_exposed = self.timing.cache_exposed;
        let dram_exposed = self.timing.dram_exposed;
        let advance = core_idx == 0;
        let mut i = 0u64;
        while i < count {
            let next_tick_ns = self.next_tick_ns;
            let Machine {
                hier,
                clock,
                freq_meter,
                cores,
                win_instr,
                win_cycles,
                charge_memo,
                cfg,
                rung,
                ..
            } = self;
            let core = &mut cores[core_idx];
            let mut last_vaddr = self.last_data_vaddr;
            while i < count {
                let addr = VAddr(base.0 + (start + stride * i) % window);
                last_vaddr = addr.0;
                let out = hier.data_access(core_idx, addr, false);
                core.counters.instructions_committed += 1;
                core.counters.instructions_executed += 1;
                core.counters.loads += 1;
                *win_instr += 1;
                let (cycles, ns) = if serial {
                    (out.cycles as f64, out.ns)
                } else {
                    (
                        base_cycles + (out.cycles as f64 - hidden).max(0.0) * cache_exposed,
                        out.ns * dram_exposed,
                    )
                };
                let (unhalted_ns, wall_ns) = charge_memo.times(cycles, ns, &cfg.pstates, rung);
                freq_meter.record(cycles, unhalted_ns);
                core.unhalted_cycles_f += cycles;
                core.win_wall_ns += wall_ns;
                *win_cycles += cycles;
                i += 1;
                if advance {
                    clock.advance_ns(wall_ns);
                    if clock.now_ns() >= next_tick_ns {
                        break;
                    }
                }
            }
            self.last_data_vaddr = last_vaddr;
            while self.clock.now_ns() >= self.next_tick_ns {
                self.tick();
            }
        }
    }

    /// The wall-clock latency of one serial load, measured. Used by the
    /// stride microbenchmark (Figures 3/4) — measures exactly what the
    /// paper's code measured: elapsed time per dependent access.
    pub fn timed_load_serial(&mut self, addr: VAddr) -> f64 {
        let before = self.clock.now_ns();
        // Attribute to core 0 semantics: only core 0 advances the clock.
        assert_eq!(self.active_core, 0, "timed loads must run on core 0");
        self.load_serial(addr);
        self.clock.now_ns() - before
    }

    /// Execute a conditional branch at the end of `block`. On a
    /// misprediction the pipeline refills and wrong-path work executes.
    pub fn branch(&mut self, block: &CodeBlock, taken: bool) {
        let core = self.active_core;
        let o = self.cores[core].predictor.execute(block.addr.0 + block.bytes, taken);
        let c = &mut self.cores[core].counters;
        c.branches += 1;
        c.instructions_committed += 1;
        c.instructions_executed += 1;
        self.win_instr += 1;
        let mut cycles = self.timing.base_cycles(1);
        if o.mispredicted {
            c.branch_mispredicts += 1;
            c.instructions_executed += self.timing.wrong_path_instrs;
            c.spec_loads += 1;
            cycles += self.timing.mispredict_cycles as f64;
            // One wrong-path load pollutes the hierarchy; its latency is
            // squashed, its cache side effects are not. Wrong paths run
            // plausible nearby code, so the load lands within ±2 KiB of
            // the last committed access.
            let jitter = (self.next_rng() % 4096) as i64 - 2048;
            let raw = self.last_data_vaddr.saturating_add_signed(jitter);
            let addr = VAddr(raw.clamp(DATA_BASE, self.data_brk.max(DATA_BASE + 1) - 1));
            let _ = self.hier.data_access(core, addr, false);
        }
        self.charge(cycles, 0.0);
    }

    /// Let the node sit idle for `seconds` of simulated time (phased and
    /// race-to-idle experiments). Power windows during idleness see
    /// `busy_frac = 0`.
    pub fn idle(&mut self, seconds: f64) {
        assert_eq!(self.active_core, 0, "idle must be driven from core 0");
        let mut remaining_ns = seconds * 1e9;
        while remaining_ns > 0.0 {
            if self.cfg.idle_skip && remaining_ns > self.tick_period_ns && self.idle_quiescent() {
                // Fast-forward: advance the whole idle span in one jump and
                // let the catch-up loop below meter it as a single
                // all-idle window (the empty-window guard in `tick`
                // swallows the overshot periods). The quiescence gate
                // guarantees the skipped control ticks would all have been
                // no-ops, so the only coarsening is metering granularity:
                // one power/thermal sample over the span instead of one
                // per period. Sound for lock-step fleet topologies, where
                // manager traffic only arrives at epoch barriers.
                self.bmc.obs_mut().metrics.inc("machine.idle_skips");
                self.clock.advance_ns(remaining_ns);
                self.win_idle_ns += remaining_ns;
                remaining_ns = 0.0;
            } else {
                let step = remaining_ns.min(self.next_tick_ns - self.clock.now_ns()).max(1.0);
                self.clock.advance_ns(step);
                self.win_idle_ns += step;
                remaining_ns -= step;
            }
            while self.clock.now_ns() >= self.next_tick_ns {
                self.tick();
            }
        }
    }

    /// True when nothing in the machine or its BMC can act before more
    /// work (or manager traffic at an epoch barrier) arrives, so an idle
    /// span may be fast-forwarded without changing any control decision.
    /// Injected faults, frozen telemetry and an attached trace all force
    /// the slow path — those features want per-tick sampling.
    fn idle_quiescent(&self) -> bool {
        self.sensor_fault.is_none()
            && !self.stale_telemetry
            && self.trace.is_none()
            && self.bmc.control_quiescent(self.meter.window_avg_w())
    }

    // ------------------------------------------------------ epoch stepping

    /// Advance the machine by `dt_s` of simulated time, repeatedly asking
    /// `w` for work quanta. This is the lock-step driver a fleet engine
    /// uses: every node is stepped to the same simulated-time barrier, the
    /// manager exchanges IPMI traffic at the barrier, then the next epoch
    /// begins. Control ticks (power metering, BMC service, throttle
    /// decisions) fire inside exactly as they do for a free-running
    /// workload.
    ///
    /// A quantum that charges no time would spin forever; if that happens
    /// the node is treated as idle for the rest of the epoch. An epoch
    /// must be finite and positive: an infinite one would never end.
    pub fn step(&mut self, dt_s: f64, w: &mut dyn EpochWorkload) {
        assert!(dt_s > 0.0 && dt_s.is_finite(), "epoch must advance time by a finite span");
        assert_eq!(self.active_core, 0, "epoch stepping drives core 0");
        self.bmc.obs_mut().metrics.inc("machine.epochs");
        let target_ns = self.clock.now_ns() + dt_s * 1e9;
        while self.clock.now_ns() < target_ns {
            let before = self.clock.now_ns();
            w.quantum(self);
            if self.clock.now_ns() <= before {
                self.bmc.obs_mut().metrics.inc("machine.idle_fallbacks");
                self.idle((target_ns - self.clock.now_ns()) * 1e-9);
                break;
            }
        }
    }

    #[inline]
    fn next_rng(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }

    // --------------------------------------------------------- control tick

    fn tick(&mut self) {
        self.next_tick_ns += self.tick_period_ns;
        let now = self.clock.now_ns();
        let window_ns = now - self.window_start_ns;
        if window_ns <= 0.0 {
            // A single charge can overshoot several periods; empty catch-up
            // windows carry no activity and must not pollute the meter.
            return;
        }
        let window_s = window_ns * 1e-9;
        let mem_now = self.hier.total_stats();
        let delta = mem_now - self.win_mem_snapshot;
        let pstate = self.cfg.pstates.get(self.rung.pstate);
        // Activity factor from the achieved issue rate (see capsim-power).
        let issue_ratio = if self.win_cycles > 0.0 {
            (self.win_instr as f64 / (self.win_cycles * self.timing.issue_width)).min(1.0)
        } else {
            0.0
        };
        let activity = 0.45 + 0.55 * issue_ratio;
        let busy_frac = (1.0 - self.win_idle_ns / window_ns.max(1.0)).clamp(0.0, 1.0);
        let active_cores = if busy_frac > 0.0 { self.cores.len() as u32 } else { 0 };
        let window = ActivityWindow {
            f_ghz: pstate.freq_mhz / 1e3,
            volts: pstate.volts,
            duty: self.rung.tstate.duty(),
            busy_frac,
            activity,
            active_cores,
            l3_accesses_per_s: delta.l3_accesses as f64 / window_s,
            dram_lines_per_s: delta.dram_accesses() as f64 / window_s,
            cache_gated_frac: self.rung.mem.gating_fraction(),
            mem_gate_power_frac: self.rung.mem.mem_gate.background_power_frac(),
            temp_c: self.thermal.temp_c(),
        };
        let breakdown = self.power_model.power(&window);
        let watts = breakdown.total_w();
        if self.bmc.obs().is_enabled() {
            let obs = self.bmc.obs_mut();
            obs.metrics.inc("machine.ticks");
            obs.metrics.observe("machine.window_w", &POWER_W_BOUNDS, watts);
        }
        self.meter.record(window_s, watts);
        self.rapl.add(&breakdown, window_s);
        if let Some(trace) = &mut self.trace {
            trace.push(TraceSample {
                t_s: now * 1e-9,
                watts,
                rung: self.bmc.rung_index(),
                freq_mhz: pstate.freq_mhz,
                duty: self.rung.tstate.duty(),
                temp_c: self.thermal.temp_c(),
            });
        }
        // Package power (what heats the die) excludes platform overhead.
        self.thermal.step(watts - breakdown.platform_w, window_s);
        self.min_power_w = self.min_power_w.min(watts);
        self.max_power_w = self.max_power_w.max(watts);

        // Out-of-band management. The watchdog runs on the machine's own
        // clock, so crashed firmware reboots even if telemetry is frozen.
        if let Some(rung) = self.bmc.watchdog_tick(now * 1e-6) {
            self.apply_rung(rung);
        }
        if let Some(port) = &self.bmc_port {
            // A dead manager is not fatal to the node.
            let _ = self.bmc.serve(port);
        }
        let mut telemetry = self.faulted_telemetry(BmcTelemetry {
            window_avg_w: self.meter.window_avg_w(),
            run_avg_w: self.meter.run_avg_w(),
            min_w: self.min_power_w,
            max_w: self.max_power_w,
            die_temp_c: self.thermal.temp_c(),
            inlet_temp_c: 27.0,
            busy_frac,
            issue_frac: issue_ratio,
            now_ms: now * 1e-6,
            tail_ms: 0.0,
        });
        // Read after any sensor fault, so a stale sample cannot freeze it.
        telemetry.tail_ms = self.tail_ms();
        if let Some(rung) = self.bmc.control(telemetry) {
            self.apply_rung(rung);
        }

        // Open the next window.
        self.window_start_ns = now;
        self.win_instr = 0;
        self.win_cycles = 0.0;
        self.win_idle_ns = 0.0;
        self.win_mem_snapshot = mem_now;
        for c in &mut self.cores {
            c.win_wall_ns = 0.0;
        }
    }

    /// Apply any injected sensor/controller fault to the telemetry copy
    /// the BMC will sample. Ground truth (meter, energy, RAPL) is
    /// computed before this transform and never affected.
    fn faulted_telemetry(&mut self, raw: BmcTelemetry) -> BmcTelemetry {
        let mut t = raw;
        if let Some(f) = self.sensor_fault {
            self.fault_ticks += 1;
            let w = match f {
                SensorFault::StuckAt { watts } => Some(watts),
                SensorFault::Drift { watts_per_s } => {
                    Some(t.window_avg_w + watts_per_s * (t.now_ms * 1e-3 - self.fault_start_s))
                }
                SensorFault::Spike { watts, period_ticks } => (period_ticks > 0
                    && self.fault_ticks.is_multiple_of(period_ticks))
                .then_some(watts),
                SensorFault::Dropout => Some(0.0),
            };
            if let Some(w) = w {
                t.window_avg_w = w;
                t.run_avg_w = w;
                t.min_w = t.min_w.min(w);
                t.max_w = t.max_w.max(w);
            }
        }
        if self.stale_telemetry {
            // Freeze the entire sample, timestamp included: the BMC's
            // stale-telemetry guardrail keys off the frozen clock.
            return *self.frozen_telemetry.get_or_insert(t);
        }
        self.frozen_telemetry = None;
        t
    }

    // ------------------------------------------------------ fault injection

    /// Inject a sensor fault (replacing any previous one). Takes effect at
    /// the next control tick.
    pub fn inject_sensor_fault(&mut self, fault: SensorFault) {
        self.sensor_fault = Some(fault);
        self.fault_start_s = self.clock.now_s();
        self.fault_ticks = 0;
        let t_s = self.clock.now_s();
        let obs = self.bmc.obs_mut();
        obs.metrics.inc("machine.faults_injected");
        obs.events.record(t_s, EventKind::FaultInjected { fault: fault.name() });
    }

    /// Clear the active sensor fault; readings are truthful again.
    pub fn clear_sensor_fault(&mut self) {
        if let Some(f) = self.sensor_fault.take() {
            let t_s = self.clock.now_s();
            self.bmc.obs_mut().events.record(t_s, EventKind::FaultCleared { fault: f.name() });
        }
    }

    /// Freeze (or thaw) the telemetry stream the BMC samples, timestamp
    /// included — the "stale telemetry" controller fault.
    pub fn set_stale_telemetry(&mut self, on: bool) {
        if self.stale_telemetry == on {
            return;
        }
        self.stale_telemetry = on;
        if !on {
            self.frozen_telemetry = None;
        }
        let t_s = self.clock.now_s();
        let kind = if on {
            EventKind::FaultInjected { fault: "stale_telemetry" }
        } else {
            EventKind::FaultCleared { fault: "stale_telemetry" }
        };
        let obs = self.bmc.obs_mut();
        if on {
            obs.metrics.inc("machine.faults_injected");
        }
        obs.events.record(t_s, kind);
    }

    /// Start (or stop) losing cap commands in the BMC firmware: DCMI
    /// `Set Power Limit`/`Activate` are acknowledged but not applied.
    pub fn set_lost_cap_commands(&mut self, on: bool) {
        self.bmc.set_lost_cap_commands(on);
        let t_s = self.clock.now_s();
        let kind = if on {
            EventKind::FaultInjected { fault: "lost_cap_commands" }
        } else {
            EventKind::FaultCleared { fault: "lost_cap_commands" }
        };
        let obs = self.bmc.obs_mut();
        if on {
            obs.metrics.inc("machine.faults_injected");
        }
        obs.events.record(t_s, kind);
    }

    /// Crash the BMC firmware for `dead_s` simulated seconds; the
    /// watchdog restarts it (volatile control state lost, SEL and the
    /// persistent limit survive).
    pub fn crash_bmc(&mut self, dead_s: f64) {
        let now_ms = self.clock.now_s() * 1e3;
        self.bmc.crash(now_ms, dead_s * 1e3);
    }

    /// Whether the BMC firmware is currently crashed.
    pub fn bmc_crashed(&self) -> bool {
        self.bmc.is_crashed()
    }

    /// Would a DCMI power-reading poll of this node's BMC repeat its last
    /// answer byte for byte? See [`Bmc::poll_would_repeat`] — lock-step
    /// managers use this to elide redundant polls.
    pub fn bmc_poll_would_repeat(&self) -> bool {
        self.bmc.poll_would_repeat()
    }

    /// Switch the BMC guardrails on or off (off is the overhead
    /// benchmark's baseline).
    pub fn set_guardrails(&mut self, on: bool) {
        self.bmc.set_guardrails(on);
    }

    /// Whether the BMC failsafe rung floor is currently engaged.
    pub fn failsafe_active(&self) -> bool {
        self.bmc.failsafe_active()
    }

    /// The APERF/MPERF-style frequency meter (snapshot `totals()` around a
    /// probe to get a windowed frequency reading, as real tools do).
    pub fn freq_meter(&self) -> &FreqMeter {
        &self.freq_meter
    }

    /// The BMC's System Event Log (cap-violation paper trail).
    pub fn sel(&self) -> &capsim_ipmi::SystemEventLog {
        self.bmc.sel()
    }

    /// False once a `HardPowerOff` exception action fired. The study's
    /// DCMI limits use `LogOnly`, so simulation continues either way; the
    /// flag is the observable.
    pub fn chassis_on(&self) -> bool {
        self.bmc.chassis_on()
    }

    /// Force a P-state/T-state directly, bypassing the BMC (ground truth
    /// for detector tests; capped experiments let the BMC decide).
    pub fn force_throttle(&mut self, pstate: u8, duty_16: u8) {
        let tstate = capsim_cpu::TState::of_16(duty_16);
        self.set_rung(Rung { pstate, tstate, ..self.rung });
    }

    /// Apply a memory-side reconfiguration directly, bypassing the BMC.
    /// Ablations and the technique detector's probes use this; capped
    /// experiments let the BMC drive reconfiguration instead.
    pub fn apply_mem_reconfig(&mut self, r: capsim_mem::MemReconfig) {
        self.hier.apply(r);
        self.set_rung(Rung { mem: r, ..self.rung });
    }

    fn apply_rung(&mut self, rung: Rung) {
        if rung.mem != self.rung.mem {
            self.hier.apply(rung.mem);
        }
        self.set_rung(rung);
    }

    /// The one place `self.rung` changes: a new frequency or duty makes
    /// the memoized charge conversion stale.
    fn set_rung(&mut self, rung: Rung) {
        self.rung = rung;
        self.charge_memo = ChargeMemo::CLEAR;
    }

    // -------------------------------------------------------------- results

    /// Close the final partial window and summarize the run.
    pub fn finish_run(&mut self) -> RunStats {
        if self.clock.now_ns() > self.window_start_ns {
            // Flush the trailing partial window so energy covers the run.
            self.tick();
        }
        RunStats {
            wall_s: self.clock.now_s(),
            energy_j: self.meter.energy_j(),
            avg_power_w: self.meter.run_avg_w(),
            avg_freq_mhz: self.freq_meter.avg_mhz(),
            min_power_w: if self.min_power_w.is_finite() { self.min_power_w } else { 0.0 },
            max_power_w: self.max_power_w,
            counters: self.counters_now(),
            mem: self.hier.total_stats(),
            die_temp_c: self.thermal.temp_c(),
            bmc_stats: self.bmc.control_stats(),
            final_rung: self.bmc.rung_index(),
            rapl: self.rapl,
        }
    }

    /// Live RAPL counters (snapshot and difference like the real MSRs).
    pub fn rapl(&self) -> &RaplCounters {
        &self.rapl
    }

    /// Enable per-control-tick tracing, keeping the most recent
    /// `capacity` samples.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(RunTrace::new(capacity));
    }

    /// Enable observability for this node: metrics plus a typed event ring
    /// of `event_capacity`. The sink lives on the BMC (the component that
    /// sees rung moves, SEL appends and DCMI traffic); the machine folds
    /// its per-tick series into the same sink.
    pub fn enable_obs(&mut self, event_capacity: usize) {
        self.bmc.enable_obs(event_capacity);
    }

    /// This node's observability sink (metrics + events).
    pub fn obs(&self) -> &capsim_obs::Obs {
        self.bmc.obs()
    }

    /// Mutable access to the observability sink, for workloads that
    /// record their own events. Costs nothing when observability is
    /// disabled — the sink's mutators are one-branch no-ops. Request
    /// accounting goes to [`Machine::serving_mut`] instead.
    pub fn obs_mut(&mut self) -> &mut capsim_obs::Obs {
        self.bmc.obs_mut()
    }

    /// This node's request books: the [`traffic_keys`] series, recorded
    /// whether or not observability is on.
    pub fn serving(&self) -> &Metrics {
        &self.serving
    }

    /// Mutable access to the request books, for serving workloads.
    pub fn serving_mut(&mut self) -> &mut Metrics {
        &mut self.serving
    }

    /// p99 completion latency in the request books, milliseconds (0.0
    /// before the first completion): the tail every controller reads.
    pub fn tail_ms(&self) -> f64 {
        self.serving.hist_quantile(traffic_keys::LATENCY_MS, 0.99).unwrap_or(0.0)
    }

    /// The trace, if enabled.
    pub fn trace(&self) -> Option<&RunTrace> {
        self.trace.as_ref()
    }

    /// Live core-side counters summed over cores (PAPI-style mid-run
    /// reads; cheap, no side effects).
    pub fn counters_now(&self) -> CounterFile {
        let mut t = CounterFile::default();
        for core in &self.cores {
            let c = &core.counters;
            t.instructions_committed += c.instructions_committed;
            t.instructions_executed += c.instructions_executed;
            t.loads += c.loads;
            t.stores += c.stores;
            t.spec_loads += c.spec_loads;
            t.branches += c.branches;
            t.branch_mispredicts += c.branch_mispredicts;
            t.unhalted_cycles += core.unhalted_cycles_f.round() as u64;
        }
        t
    }

    /// Live memory-side counters summed over cores.
    pub fn mem_stats_now(&self) -> MemStats {
        self.hier.total_stats()
    }

    /// Per-core counters (multi-core analyses).
    pub fn core_counters(&self, core: usize) -> CounterFile {
        let mut c = self.cores[core].counters;
        c.unhalted_cycles = self.cores[core].unhalted_cycles_f.round() as u64;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::tiny(7))
    }

    /// Charges a little compute every quantum, so time always advances.
    struct Spin;

    impl EpochWorkload for Spin {
        fn quantum(&mut self, m: &mut Machine) {
            m.compute(300);
        }
    }

    #[test]
    #[should_panic(expected = "epoch must advance time by a finite span")]
    fn an_infinite_epoch_is_rejected_instead_of_stepped_forever() {
        machine().step(f64::INFINITY, &mut Spin);
    }

    #[test]
    fn compute_advances_time_at_the_nominal_frequency() {
        let mut m = machine();
        m.compute(2_700_000 * 3); // 2.7M cycles at issue width 3
                                  // 2.7M cycles at 2.7 GHz = 1 ms.
        assert!((m.now_s() - 1e-3).abs() < 1e-5, "{}", m.now_s());
    }

    #[test]
    fn committed_instructions_are_tracked() {
        let mut m = machine();
        let r = m.alloc(4096);
        m.compute(100);
        m.load(r.at(0));
        m.store(r.at(64));
        let s = m.finish_run();
        assert_eq!(s.counters.instructions_committed, 102);
        assert_eq!(s.counters.loads, 1);
        assert_eq!(s.counters.stores, 1);
    }

    #[test]
    fn uncapped_run_reports_baseline_power_band() {
        let mut m = Machine::new(MachineConfig::e5_2680(1));
        let r = m.alloc(64 * 1024);
        let block = m.code_block(96, 24);
        for i in 0..200_000u64 {
            m.exec_block(&block);
            m.load(r.at((i * 64) % r.bytes()));
        }
        let s = m.finish_run();
        assert!((140.0..165.0).contains(&s.avg_power_w), "baseline power {}", s.avg_power_w);
        assert!((s.avg_freq_mhz - 2700.0).abs() < 1.0, "{}", s.avg_freq_mhz);
    }

    /// Speed up controller convergence for short unit-test runs.
    fn fast_control(seed: u64) -> MachineConfig {
        let mut c = MachineConfig::e5_2680(seed);
        c.control_period_us = 10.0;
        c.meter_window_s = 0.0002;
        c
    }

    #[test]
    fn capped_run_throttles_and_meets_a_reachable_cap() {
        let mut m = Machine::new(fast_control(2));
        m.set_power_cap(Some(PowerCap::new(140.0).unwrap()));
        let r = m.alloc(64 * 1024);
        let block = m.code_block(96, 24);
        for i in 0..400_000u64 {
            m.exec_block(&block);
            m.load(r.at((i * 64) % r.bytes()));
        }
        let s = m.finish_run();
        assert!(s.avg_power_w < 143.0, "avg {} exceeds cap band", s.avg_power_w);
        assert!(s.avg_freq_mhz < 2690.0, "throttled: {}", s.avg_freq_mhz);
        assert!(s.bmc_stats.0 > 0, "escalations happened");
    }

    #[test]
    fn unreachable_cap_pins_the_deepest_rung_and_floors_near_124() {
        let mut m = Machine::new(fast_control(3));
        m.set_power_cap(Some(PowerCap::new(110.0).unwrap()));
        let r = m.alloc(64 * 1024);
        let block = m.code_block(96, 24);
        for i in 0..200_000u64 {
            m.exec_block(&block);
            m.load(r.at((i * 64) % r.bytes()));
        }
        let s = m.finish_run();
        assert!(s.avg_power_w > 115.0, "floor {}", s.avg_power_w);
        assert!(s.bmc_stats.2 > 0, "exceptions logged");
        // Average frequency includes the brief escalation transient at
        // higher P-states; once pinned it reads 1200 MHz.
        assert!(s.avg_freq_mhz < 1350.0, "pinned at P-min: {}", s.avg_freq_mhz);
        let deepest = ThrottleLadder::e5_2680(&m.config().pstates, m.config().full_mem()).deepest();
        assert_eq!(s.final_rung, deepest);
    }

    #[test]
    fn energy_equals_avg_power_times_time() {
        let mut m = machine();
        m.compute(10_000_000);
        let s = m.finish_run();
        assert!((s.energy_j - s.avg_power_w * s.wall_s).abs() / s.energy_j < 1e-6);
    }

    #[test]
    fn capped_run_takes_longer_than_uncapped() {
        let work = |m: &mut Machine| {
            let r = m.alloc(1 << 20);
            let block = m.code_block(128, 32);
            for i in 0..100_000u64 {
                m.exec_block(&block);
                m.load(r.at((i * 64) % r.bytes()));
                m.branch(&block, i % 7 != 0);
            }
        };
        let mut base = Machine::new(fast_control(4));
        work(&mut base);
        let base = base.finish_run();
        let mut capped = Machine::new(fast_control(4));
        capped.set_power_cap(Some(PowerCap::new(130.0).unwrap()));
        work(&mut capped);
        let capped = capped.finish_run();
        assert!(capped.wall_s > base.wall_s * 1.5, "{} vs {}", capped.wall_s, base.wall_s);
        assert_eq!(
            capped.counters.instructions_committed, base.counters.instructions_committed,
            "commits are cap-invariant"
        );
        assert!(capped.energy_j > base.energy_j, "capping wastes energy");
    }

    #[test]
    fn executed_exceeds_committed_by_under_half_a_percent() {
        let mut m = machine();
        let block = m.code_block(64, 16);
        for i in 0..50_000u64 {
            m.exec_block(&block);
            // A mostly-predictable loop branch, like real application code:
            // the gap stays well under a percent (paper: ≤0.36 %).
            m.branch(&block, i % 97 != 0);
        }
        let s = m.finish_run();
        let gap = s.counters.instructions_executed as f64
            / s.counters.instructions_committed as f64
            - 1.0;
        assert!(gap > 0.0, "speculation happened");
        assert!(gap < 0.02, "gap {gap} too large");
    }

    #[test]
    fn serial_loads_charge_full_latency() {
        let mut m = Machine::new(MachineConfig::e5_2680(5));
        let r = m.alloc(PAGE_SIZE);
        // Warm the line and TLB.
        m.load_serial(r.at(0));
        let dt = m.timed_load_serial(r.at(0));
        // L1 hit = 4 cycles at 2.7 GHz ≈ 1.48 ns.
        assert!((dt - 1.48).abs() < 0.1, "L1 serial latency {dt} ns");
    }

    #[test]
    fn idle_time_draws_idle_power() {
        let mut m = Machine::new(MachineConfig::e5_2680(6));
        m.idle(0.05);
        let s = m.finish_run();
        assert!((99.0..=104.0).contains(&s.avg_power_w), "idle power {}", s.avg_power_w);
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut m = machine();
        let a = m.alloc(100);
        let b = m.alloc(100);
        assert!(a.base().0 + a.bytes() <= b.base().0);
    }

    #[test]
    fn trace_captures_controller_dithering() {
        let mut m = Machine::new(fast_control(12));
        m.enable_trace(100_000);
        m.set_power_cap(Some(PowerCap::new(144.0).unwrap()));
        let r = m.alloc(64 * 1024);
        let block = m.code_block(96, 24);
        for i in 0..400_000u64 {
            m.exec_block(&block);
            m.load(r.at((i * 64) % r.bytes()));
        }
        m.finish_run();
        let trace = m.trace().expect("enabled");
        assert!(trace.len() > 100);
        // A cap between two rung power levels makes the controller move
        // repeatedly between adjacent rungs — the paper's dithering.
        assert!(trace.rung_changes() > 10, "changes {}", trace.rung_changes());
        let visited = trace.rungs_visited();
        assert!(visited.len() >= 2, "{visited:?}");
        let csv = trace.to_csv();
        assert!(csv.lines().count() > 100);
    }

    #[test]
    fn rapl_domains_are_consistent_with_the_wall_meter() {
        let mut m = Machine::new(MachineConfig::e5_2680(13));
        let r = m.alloc(1 << 20);
        let block = m.code_block(96, 24);
        for i in 0..100_000u64 {
            m.exec_block(&block);
            m.load(r.at((i * 64) % (1 << 20)));
        }
        let s = m.finish_run();
        use capsim_power::RaplDomain;
        let pkg = s.rapl.joules(RaplDomain::Package);
        let pp0 = s.rapl.joules(RaplDomain::Pp0);
        let dram = s.rapl.joules(RaplDomain::Dram);
        assert!(pp0 > 0.0 && pp0 <= pkg);
        assert!(pkg + dram < s.energy_j, "RAPL excludes platform overhead");
        assert!(pkg > s.energy_j * 0.15, "package is a real share of wall energy");
    }

    #[test]
    fn load_stream_matches_a_load_loop_across_rung_changes() {
        let mut cfg = MachineConfig::tiny(21);
        cfg.control_period_us = 10.0;
        cfg.meter_window_s = 0.0002;
        for serial in [false, true] {
            let mk = || {
                let mut m = Machine::new(cfg.clone());
                m.set_power_cap(Some(PowerCap::new(120.0).unwrap()));
                m
            };
            let (mut batched, mut looped) = (mk(), mk());
            let region = batched.alloc(256 * 1024);
            assert_eq!(looped.alloc(256 * 1024).base(), region.base());
            let initial = batched.current_rung();
            // A page-plus-a-line stride: TLB, cache and DRAM misses mixed
            // with hits, so the charges vary and ticks land mid-stream.
            let (start, stride, count) = (192, PAGE_SIZE + 64, 60_000);
            let base = region.base();
            if serial {
                batched.load_serial_stream(base, region.bytes(), start, stride, count);
            } else {
                batched.load_stream(base, region.bytes(), start, stride, count);
            }
            for i in 0..count {
                let addr = VAddr(base.0 + (start + stride * i) % region.bytes());
                if serial {
                    looped.load_serial(addr);
                } else {
                    looped.load(addr);
                }
            }
            assert_ne!(batched.current_rung(), initial, "serial={serial}: the cap moved the rung");
            assert_eq!(batched.current_rung(), looped.current_rung(), "serial={serial}");
            assert_eq!(batched.now_s().to_bits(), looped.now_s().to_bits(), "serial={serial}");
            assert_eq!(batched.counters_now(), looped.counters_now(), "serial={serial}");
            assert_eq!(batched.mem_stats_now(), looped.mem_stats_now(), "serial={serial}");
            let bits = |m: &Machine| {
                let (cycles, ns) = m.freq_meter().totals();
                (cycles.to_bits(), ns.to_bits())
            };
            assert_eq!(bits(&batched), bits(&looped), "serial={serial}");
        }
    }

    #[test]
    fn a_rung_change_invalidates_the_charge_memo() {
        // 8100 instructions are 2700 cycles: 1000 ns at P0, and whole
        // nanoseconds at the target rungs too, so every clock sum below is
        // exact and the advance can be compared bit for bit.
        for (pstate, duty_16) in [(15, 4), (0, 8)] {
            let mut m = machine();
            m.compute(8100);
            m.compute(8100); // a memo hit at P0
            assert_eq!(m.clock.now_ns(), 2000.0);
            m.force_throttle(pstate, duty_16);
            let before = m.clock.now_ns();
            m.compute(8100);
            let advance = m.clock.now_ns() - before;

            let mut fresh = machine();
            fresh.force_throttle(pstate, duty_16);
            fresh.compute(8100);
            assert_eq!(
                advance.to_bits(),
                fresh.clock.now_ns().to_bits(),
                "rung ({pstate}, {duty_16})"
            );
            assert_ne!(advance, 1000.0, "the P0 conversion was not reused");
        }
    }

    #[test]
    fn multicore_attribution_is_per_core() {
        let mut cfg = MachineConfig::tiny(9);
        cfg.n_cores = 2;
        let mut m = Machine::new(cfg);
        let r = m.alloc(1 << 16);
        for i in 0..1000u64 {
            m.set_active_core(0);
            m.load(r.at((i * 64) % r.bytes()));
            m.set_active_core(1);
            m.load(r.at((i * 64) % r.bytes()));
        }
        m.set_active_core(0);
        let s = m.finish_run();
        assert_eq!(m.core_counters(0).loads, 1000);
        assert_eq!(m.core_counters(1).loads, 1000);
        assert_eq!(s.counters.loads, 2000);
    }
}
