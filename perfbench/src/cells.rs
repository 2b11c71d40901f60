//! The cell workloads (`intensive_mix`, `light_mix`): 8-core mixes under
//! the paper's five refresh mechanisms at 32 Gb, each cell built with
//! `SystemBuilder` and driven with `System::run` on one thread.

use crate::driver::{self, Cell};
use crate::probe::Probe;
use crate::trace::{Layer, Recorder};
use crate::{median, peak_rss_mb, percentile, Checks, Metric, Report, Seeds};
use dsarp_core::Mechanism;
use dsarp_dram::{Command, Density};
use dsarp_sim::experiments::harness::Scale;
use dsarp_sim::{RunStats, SimConfig, System, SystemBuilder};
use dsarp_workloads::{IntensityCategory, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// The mechanisms every cell workload runs: the two baselines, DARP,
/// SARPpb and their combination.
pub const MECHANISMS: [Mechanism; 5] = [
    Mechanism::RefAb,
    Mechanism::RefPb,
    Mechanism::Darp,
    Mechanism::SarpPb,
    Mechanism::Dsarp,
];

/// Mixes taken from each of the light pool's two categories.
const LIGHT_PER_CATEGORY: usize = 6;

/// Cell shape and campaign scale: quick scale (40k DRAM cycles per cell,
/// 25k warmup ops per core) on one thread.
pub fn scale() -> Scale {
    Scale::quick().with_threads(1)
}

/// Which pool of mixes a cell workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// The paper's 16 100%-intensity sensitivity mixes.
    Intensive,
    /// The first [`LIGHT_PER_CATEGORY`] mixes of the paper's 0%- and
    /// 25%-intensity categories.
    Light,
}

/// One selection of a pool's mixes, drawn with `seed`.
fn selection(pool: Pool, seed: u64) -> Vec<Workload> {
    // Full scale's per-category count selects every sensitivity mix and
    // 20 mixes per category to take the light pool from.
    let selection = Scale {
        per_category: Scale::full().per_category,
        ..scale()
    };
    match pool {
        Pool::Intensive => selection.intensive_workloads_with_seed(8, seed),
        Pool::Light => [IntensityCategory::P0, IntensityCategory::P25]
            .iter()
            .flat_map(|cat| {
                selection
                    .workloads_with_seed(seed)
                    .into_iter()
                    .filter(|w| w.category == *cat)
                    .take(LIGHT_PER_CATEGORY)
            })
            .collect(),
    }
}

/// A cell for `workload` under `cfg` (label `mix/mechanism@density`).
pub fn cell(cfg: SimConfig, workload: Workload, cycles: u64) -> Cell {
    Cell {
        label: format!("{}/{}@{}", workload.name, cfg.mechanism, cfg.density),
        cfg,
        workload,
        cycles,
    }
}

/// Every cell of a pool at 32 Gb: one selection of its mixes per
/// mechanism, drawn with seeds `seed`, `seed + 1`, ..., each mix run under
/// one mechanism, the mechanisms taken in turn. Each pass thus covers
/// five times as many mixes as one selection holds, so a run's figures
/// hang less on which mixes the seed drew (with one selection under all
/// five mechanisms, the instructions `intensive_mix` retired in its fixed
/// cycles moved enough with the seed to spread `sim_mips` by 14%).
pub fn cells(pool: Pool, seeds: Seeds) -> Vec<Cell> {
    let scale = scale();
    (0..MECHANISMS.len() as u64)
        .flat_map(|k| {
            selection(pool, seeds.workload.wrapping_add(k))
                .into_iter()
                .map(move |wl| (k, wl))
        })
        .enumerate()
        .map(|(i, (k, wl))| {
            let cfg = SimConfig::paper(MECHANISMS[i % MECHANISMS.len()], Density::G32)
                .with_seed(seeds.sim)
                .with_warmup_ops(scale.warmup_ops);
            let mut cell = cell(cfg, wl, scale.dram_cycles);
            cell.label = format!("s{k}/{}", cell.label);
            cell
        })
        .collect()
}

fn build(cell: &Cell, command_log: bool) -> System {
    SystemBuilder::new(&cell.cfg)
        .workload(&cell.workload)
        .command_log(command_log)
        .build()
}

/// The timed phase: passes over every cell with `System::run` until
/// `seconds` of run time have been measured. Each build and run is divided
/// by the host's slowness, read by a [`Probe`] before and after it; a
/// cell's figures are its medians over the passes, and a pass is the sum
/// over its cells. Peak memory is read right after. Then the checks: every
/// pass must reproduce the first, the first must equal each cell's
/// `System::run_per_cycle`, and that run's command log must replay cleanly
/// on a fresh channel.
pub fn timed(cells: &[Cell], seconds: f64) -> Report {
    let mut checks = Checks::default();
    let mut first: Vec<RunStats> = Vec::with_capacity(cells.len());
    let mut run_s = vec![Vec::new(); cells.len()];
    let mut build_s = vec![Vec::new(); cells.len()];
    let (mut raw_wall, mut factors) = (Vec::new(), Vec::new());
    let mut insts_per_pass = 0u64;
    let mut probe = Probe::new();
    let mut before = probe.factor();
    while raw_wall.is_empty() || raw_wall.iter().sum::<f64>() < seconds {
        let (mut wall, mut insts) = (0.0, 0u64);
        for (i, cell) in cells.iter().enumerate() {
            let t = Instant::now();
            let mut sys = build(cell, false);
            let setup = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let stats = sys.run(cell.cycles);
            let dt = t.elapsed().as_secs_f64();
            let after = probe.factor();
            let factor = (before + after) / 2.0;
            before = after;
            factors.push(factor);
            build_s[i].push(setup / factor);
            run_s[i].push(dt / factor);
            wall += dt;
            insts += stats.insts.iter().sum::<u64>();
            match first.get(i) {
                Some(reference) => checks.check(stats == *reference, || {
                    format!("{}: System::run differs between passes", cell.label)
                }),
                None => first.push(stats),
            }
        }
        insts_per_pass = insts;
        raw_wall.push(wall);
    }
    let peak_rss = peak_rss_mb();

    for (cell, skip) in cells.iter().zip(&first) {
        let mut sys = build(cell, true);
        let per_cycle = sys.run_per_cycle(cell.cycles);
        checks.check(*skip == per_cycle, || {
            format!("{}: System::run differs from run_per_cycle", cell.label)
        });
        let logs: Vec<_> = (0..cell.cfg.geometry().channels())
            .map(|ch| sys.take_command_log(ch))
            .collect();
        let violations = driver::replay(&cell.cfg, &logs, None);
        checks.check(violations == 0, || {
            format!("{}: {violations} commands fail DRAM replay", cell.label)
        });
    }

    let wall: f64 = run_s.iter().map(|v| median(v)).sum();
    let job_ms: Vec<f64> = run_s.iter().flatten().map(|s| s * 1e3).collect();
    let setup: f64 = build_s.iter().map(|v| median(v)).sum();
    let mut report = Report::new(checks);
    report.metric("wall_s", wall, "s");
    report.metric("setup_s", setup, "s");
    report.metric("sim_mips", insts_per_pass as f64 / wall / 1e6, "MIPS");
    report.metric("jobs_per_s", cells.len() as f64 / wall, "1/s");
    report.metric("job_ms_p50", percentile(&job_ms, 0.50), "ms");
    report.metric("job_ms_p95", percentile(&job_ms, 0.95), "ms");
    report.metric("peak_rss_mb", peak_rss, "MiB");
    report.note(format!(
        "{} cells x {} passes, 1 thread; raw pass wall {:.3} s (median), host slowness {:.3} (median)",
        cells.len(),
        raw_wall.len(),
        median(&raw_wall),
        median(&factors)
    ));
    report
}

/// The traced pass over `cells`: for each cell, `System::run` and
/// `System::run_per_cycle` untraced, then the traced driver, which must
/// reproduce `run_per_cycle`, then a traced replay of its command logs.
/// Spans go to `spans`. Returns the per-layer metrics it measured.
pub fn traced(cells: &[Cell], checks: &mut Checks, spans: &Path) -> Vec<Metric> {
    let mut rec = Recorder::new();
    let mut build_ms = Vec::new();
    let (mut run_wall, mut per_cycle_wall, mut traced_wall) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut cmds = [0u64; 6];
    let (mut latency_sum, mut reads) = (0u64, 0u64);
    let (mut candidates, mut issue_cycles) = (0u64, 0u64);
    let (mut llc_hits, mut llc_misses) = (0u64, 0u64);
    let mut violations = 0u64;
    for cell in cells {
        let t = Instant::now();
        let mut sys = build(cell, false);
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let skip = sys.run(cell.cycles);
        run_wall += t.elapsed();

        let mut sys = build(cell, false);
        let t = Instant::now();
        let per_cycle = sys.run_per_cycle(cell.cycles);
        per_cycle_wall += t.elapsed();
        checks.check(skip == per_cycle, || {
            format!("{}: System::run differs from run_per_cycle", cell.label)
        });

        rec.begin_trace(cell.label.clone());
        let out = driver::run(cell, &mut rec);
        traced_wall += out.loop_wall;
        checks.check(
            out.insts == per_cycle.insts && out.ctrl == per_cycle.ctrl,
            || format!("{}: traced driver differs from run_per_cycle", cell.label),
        );

        let bad = driver::replay(&cell.cfg, &out.logs, Some(&mut rec));
        checks.check(bad == 0, || {
            format!("{}: {bad} commands fail DRAM replay", cell.label)
        });
        violations += bad;

        for (_, cmd) in out.logs.iter().flatten() {
            cmds[match cmd {
                Command::Activate { .. } => 0,
                Command::Precharge { .. } | Command::PrechargeAll { .. } => 1,
                Command::Read { .. } => 2,
                Command::Write { .. } => 3,
                Command::RefreshAllBank { .. } => 4,
                Command::RefreshPerBank { .. } => 5,
            }] += 1;
        }
        for c in &out.ctrl {
            latency_sum += c.read_latency_sum;
            reads += c.reads_done;
        }
        candidates += out.sched_candidates;
        issue_cycles += out.sched_issue_cycles;
        llc_hits += out.llc.hits;
        llc_misses += out.llc.misses;
    }
    let columns = cmds[2] + cmds[3];
    if let Err(e) = rec.write(spans) {
        eprintln!("perfbench: cannot write {}: {e}", spans.display());
    }

    let traced_ns = traced_wall.as_nanos() as f64;
    let core = rec.total(Layer::CoreStep);
    let llc = rec.total(Layer::LlcAccess);
    let ctrl = rec.total(Layer::CtrlStep);
    let next_event = rec.total(Layer::NextEvent);
    let in_layers = (core.ns + ctrl.ns + next_event.ns) as f64;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    vec![
        (
            "workloads.next_op_ns",
            rec.total(Layer::NextOp).mean_ns(),
            "ns",
        ),
        ("sim.build_ms", median(&build_ms), "ms"),
        (
            "sim.skip_speedup",
            per_cycle_wall.as_secs_f64() / run_wall.as_secs_f64(),
            "x",
        ),
        (
            "sim.glue_share",
            (traced_ns - in_layers) / traced_ns,
            "ratio",
        ),
        (
            "sim.trace_overhead",
            traced_wall.as_secs_f64() / per_cycle_wall.as_secs_f64(),
            "x",
        ),
        (
            "cpu.core_step_ns",
            core.ns.saturating_sub(llc.ns) as f64 / core.count.max(1) as f64,
            "ns",
        ),
        ("cpu.core_steps", core.count as f64, "count"),
        ("cpu.core_share", core.ns as f64 / traced_ns, "ratio"),
        ("cpu.llc_access_ns", llc.mean_ns(), "ns"),
        ("cpu.llc_accesses", llc.count as f64, "count"),
        (
            "cpu.llc_miss_ratio",
            ratio(llc_misses, llc_hits + llc_misses),
            "ratio",
        ),
        ("core.ctrl_step_ns", ctrl.mean_ns(), "ns"),
        ("core.ctrl_share", ctrl.ns as f64 / traced_ns, "ratio"),
        ("core.next_event_ns", next_event.mean_ns(), "ns"),
        (
            "core.sched_candidates_per_cmd",
            ratio(candidates, issue_cycles),
            "ratio",
        ),
        ("core.cmds.act", cmds[0] as f64, "count"),
        ("core.cmds.pre", cmds[1] as f64, "count"),
        ("core.cmds.rd", cmds[2] as f64, "count"),
        ("core.cmds.wr", cmds[3] as f64, "count"),
        ("core.cmds.refab", cmds[4] as f64, "count"),
        ("core.cmds.refpb", cmds[5] as f64, "count"),
        (
            "core.row_hit_ratio",
            ratio(columns.saturating_sub(cmds[0]), columns),
            "ratio",
        ),
        (
            "core.read_latency_avg",
            ratio(latency_sum, reads),
            "dram-cycles",
        ),
        ("dram.check_ns", rec.total(Layer::DramCheck).mean_ns(), "ns"),
        ("dram.issue_ns", rec.total(Layer::DramIssue).mean_ns(), "ns"),
        (
            "dram.earliest_issue_ns",
            rec.total(Layer::DramEarliest).mean_ns(),
            "ns",
        ),
        ("dram.replay_violations", violations as f64, "count"),
    ]
}
