//! A benchmark-side copy of the simulator's per-cycle loop, built only from
//! the crates' public calls, with a span around every call into a layer.
//!
//! It mirrors `System::with_trace_sources` (functional warmup, controller
//! and channel set-up) and `System::run_per_cycle` (spill drain, controller
//! step, completion delivery, six core micro-steps per DRAM cycle). The
//! benchmark asserts on every cell that it retires the same instructions
//! and ends with the same `ControllerStats` as `System::run_per_cycle`, so
//! the time it attributes to each layer is time the simulator really
//! spends there.

use crate::trace::{Layer, Recorder};
use dsarp_core::{Completion, ControllerStats, MemoryController, Request, RequestQueues};
use dsarp_cpu::{
    AccessResult, Core, Llc, LlcParams, LlcResult, LlcStats, MemKind, MemoryInterface, TraceOp,
    TraceSource,
};
use dsarp_dram::{Command, Cycle, DramChannel, Geometry, CPU_CYCLES_PER_DRAM_CYCLE};
use dsarp_sim::SimConfig;
use dsarp_workloads::{SyntheticTrace, Workload};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// DRAM cycles at the start of each cell whose spans are kept for the
/// spans file (totals cover every cycle).
const KEPT_CYCLES: Cycle = 32;
/// Commands at the start of each channel's replay whose spans are kept.
const KEPT_COMMANDS: usize = 64;

/// One simulated cell: a configuration, a workload mix and a run length.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `mix/mechanism@density`, for logs and span traces.
    pub label: String,
    /// Full system configuration (warmup and seed included).
    pub cfg: SimConfig,
    /// The multiprogrammed mix.
    pub workload: Workload,
    /// DRAM cycles to simulate.
    pub cycles: u64,
}

/// A fresh channel configured as `System` configures it for `cfg`.
pub fn channel(cfg: &SimConfig) -> DramChannel {
    let mut ch = DramChannel::new(cfg.geometry(), cfg.timing(), cfg.mechanism.sarp_support());
    if cfg.ablate_sarp_throttle {
        ch.disable_power_throttle();
    }
    ch.set_refpb_overlap_ways(cfg.mechanism.refpb_overlap_ways());
    ch
}

/// What the traced driver ends with, for the equivalence check and the
/// per-layer counters.
pub struct Outcome {
    /// Per-core instructions retired.
    pub insts: Vec<u64>,
    /// Per-channel controller statistics.
    pub ctrl: Vec<ControllerStats>,
    /// Candidates the FR-FCFS passes examined, summed over channels.
    pub sched_candidates: u64,
    /// Cycles on which a demand command issued, summed over channels.
    pub sched_issue_cycles: u64,
    /// LLC statistics.
    pub llc: LlcStats,
    /// Per-channel DRAM command logs.
    pub logs: Vec<Vec<(Cycle, Command)>>,
    /// Host time of the cycle loop (set-up and warmup excluded).
    pub loop_wall: Duration,
}

/// Builds the cell's system from public parts and steps it one DRAM cycle
/// at a time for `cell.cycles` cycles, recording spans into `rec`.
pub fn run(cell: &Cell, rec: &mut Recorder) -> Outcome {
    let cfg = &cell.cfg;
    let geom = cfg.geometry();
    let timing = cfg.timing();
    let mut llc = Llc::new(LlcParams {
        capacity_bytes: cfg.llc_bytes(),
        assoc: 16,
        line_bytes: 64,
    });
    // Functional warmup, as `System` does it: each core's first
    // `warmup_ops` operations prime the LLC, core by core. Generating a
    // core's operations before replaying them into the LLC keeps the LLC
    // access order and lets `next_op` be timed in one batch.
    let mut cores = Vec::with_capacity(cfg.cores);
    let mut ops: Vec<TraceOp> = Vec::with_capacity(cfg.warmup_ops as usize);
    for i in 0..cfg.cores {
        let mut trace = SyntheticTrace::new(cell.workload.benchmarks[i], i, cfg.cores, cfg.seed);
        ops.clear();
        let t = Instant::now();
        ops.extend((0..cfg.warmup_ops).map(|_| trace.next_op()));
        rec.add(Layer::NextOp, cfg.warmup_ops, t.elapsed());
        for op in &ops {
            llc.access(op.addr & !63, op.kind == MemKind::Store);
        }
        cores.push(Core::new(
            i,
            cfg.core_params,
            Box::new(trace) as Box<dyn TraceSource>,
        ));
    }
    llc.reset_stats();
    let mut mcs: Vec<MemoryController> = (0..geom.channels())
        .map(|ch| {
            let mc = MemoryController::new(ch, geom, timing, cfg.mechanism, cfg.seed);
            match cfg.drain_watermarks {
                Some((enter, exit)) => mc.with_queues(RequestQueues::new(64, 64, enter, exit)),
                None => mc,
            }
        })
        .collect();
    let mut chans: Vec<DramChannel> = (0..geom.channels())
        .map(|_| {
            let mut ch = channel(cfg);
            ch.enable_command_log();
            ch
        })
        .collect();

    let mut next_token = 1u64;
    let mut spill: VecDeque<Request> = VecDeque::new();
    let mut completions: Vec<Completion> = Vec::with_capacity(16);
    let start = Instant::now();
    for now in 0..cell.cycles {
        rec.keep = now < KEPT_CYCLES;
        while let Some(&req) = spill.front() {
            if mcs[req.loc.channel].try_enqueue_write(req) {
                spill.pop_front();
            } else {
                break;
            }
        }
        completions.clear();
        for (mc, chan) in mcs.iter_mut().zip(chans.iter_mut()) {
            let span = rec.enter(Layer::CtrlStep);
            mc.step(chan, now, &mut completions);
            rec.exit(span);
        }
        for c in &completions {
            if c.core != usize::MAX {
                cores[c.core].complete(c.id);
            }
        }
        let mut bridge = Bridge {
            llc: &mut llc,
            mcs: &mut mcs,
            geom: &geom,
            now,
            next_token: &mut next_token,
            spill: &mut spill,
            rec,
        };
        // One span per DRAM cycle: a `Core::step` is too short to time
        // alone without the timer dominating it.
        let span = bridge.rec.enter(Layer::CoreStep);
        for _ in 0..CPU_CYCLES_PER_DRAM_CYCLE {
            for core in cores.iter_mut() {
                core.step(&mut bridge);
            }
        }
        bridge
            .rec
            .exit_items(span, CPU_CYCLES_PER_DRAM_CYCLE * cores.len() as u64);
        // The query the skip-ahead loop makes after each stepped cycle; it
        // is read-only, so asking it here leaves the results unchanged.
        for (mc, chan) in mcs.iter().zip(chans.iter()) {
            let span = rec.enter(Layer::NextEvent);
            black_box(mc.next_event(chan, now));
            rec.exit(span);
        }
    }
    let loop_wall = start.elapsed();
    rec.keep = false;

    Outcome {
        insts: cores.iter().map(Core::retired).collect(),
        ctrl: mcs.iter().map(|m| *m.stats()).collect(),
        sched_candidates: mcs.iter().map(|m| m.scheduler_scan().candidates).sum(),
        sched_issue_cycles: mcs.iter().map(|m| m.scheduler_scan().issue_cycles).sum(),
        llc: *llc.stats(),
        logs: chans
            .iter_mut()
            .map(DramChannel::take_command_log)
            .collect(),
        loop_wall,
    }
}

/// The benchmark's `MemoryInterface`: LLC lookup, read-queue
/// backpressure, miss routing and writeback spill, as in `System`.
struct Bridge<'a> {
    llc: &'a mut Llc,
    mcs: &'a mut [MemoryController],
    geom: &'a Geometry,
    now: Cycle,
    next_token: &'a mut u64,
    spill: &'a mut VecDeque<Request>,
    rec: &'a mut Recorder,
}

impl Bridge<'_> {
    fn token(&mut self) -> u64 {
        let id = *self.next_token;
        *self.next_token += 1;
        id
    }
}

impl MemoryInterface for Bridge<'_> {
    fn access(&mut self, core: usize, addr: u64, is_store: bool) -> AccessResult {
        let line = addr & !63u64;
        let loc = self.geom.decode(line);
        let queues = self.mcs[loc.channel].queues();
        if queues.read_len() >= 64 && !queues.forwards_read(&loc) {
            return AccessResult::Busy;
        }
        let span = self.rec.enter(Layer::LlcAccess);
        let result = self.llc.access(line, is_store);
        self.rec.exit(span);
        match result {
            LlcResult::Hit => AccessResult::Hit,
            LlcResult::Miss { writeback } => {
                let id = self.token();
                let ok =
                    self.mcs[loc.channel].try_enqueue_read(Request::read(id, loc, core, self.now));
                assert!(ok, "read-queue capacity was checked before the LLC access");
                if let Some(wb) = writeback {
                    let wb_loc = self.geom.decode(wb);
                    let wb_id = self.token();
                    let req = Request::write(wb_id, wb_loc, usize::MAX, self.now);
                    if !self.mcs[wb_loc.channel].try_enqueue_write(req) {
                        self.spill.push_back(req);
                    }
                }
                AccessResult::Miss(id)
            }
        }
    }
}

/// Replays command logs on fresh channels configured like `cfg`'s: every
/// logged command must pass `check`, have `earliest_issue` equal to its
/// logged cycle, and `issue` cleanly. Returns the number of commands that
/// broke any of the three. With a recorder, each call is a span.
pub fn replay(
    cfg: &SimConfig,
    logs: &[Vec<(Cycle, Command)>],
    mut rec: Option<&mut Recorder>,
) -> u64 {
    let mut violations = 0;
    for log in logs {
        let mut ch = channel(cfg);
        for (i, &(cycle, cmd)) in log.iter().enumerate() {
            let (checked, earliest, issued) = match rec.as_deref_mut() {
                Some(rec) => {
                    rec.keep = i < KEPT_COMMANDS;
                    let span = rec.enter(Layer::DramCheck);
                    let checked = ch.check(&cmd, cycle);
                    rec.exit(span);
                    let span = rec.enter(Layer::DramEarliest);
                    let earliest = ch.earliest_issue(&cmd, cycle);
                    rec.exit(span);
                    let span = rec.enter(Layer::DramIssue);
                    let issued = ch.issue(cmd, cycle);
                    rec.exit(span);
                    rec.keep = false;
                    (checked, earliest, issued)
                }
                None => (
                    ch.check(&cmd, cycle),
                    ch.earliest_issue(&cmd, cycle),
                    ch.issue(cmd, cycle),
                ),
            };
            if checked.is_err() || earliest != Some(cycle) || issued.is_err() {
                violations += 1;
            }
        }
    }
    violations
}
