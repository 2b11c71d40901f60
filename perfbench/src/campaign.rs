//! The `paper_quick` workload and the campaign-layer figures: cold
//! `Campaign::run` into a fresh store, then a warm re-run on the same
//! store, which must simulate nothing and assemble byte-identical grids.

use crate::cells::{self, Pool, MECHANISMS};
use crate::driver::Cell;
use crate::probe::{Probe, Sampler};
use crate::{median, out_dir, peak_rss_mb, percentile_binned, Checks, Metric, Report, Seeds};
use dsarp_campaign::{
    Campaign, CampaignClient, CampaignReport, CampaignSpec, EventLog, Job, SweepSpec, WorkloadSet,
};
use dsarp_core::Mechanism;
use dsarp_dram::{Density, CPU_CYCLES_PER_DRAM_CYCLE};
use dsarp_sim::experiments::harness::{Grid, Scale};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads for `paper_quick` (the 2-vCPU host's `nproc`).
pub const THREADS: usize = 2;

/// Repetitions whose median is `setup_s` (and the campaign-phase times).
const SETUP_REPS: usize = 15;

/// Feeds the benchmark seeds into a spec: mix selection and every sweep's
/// simulator seed.
fn seeded(mut spec: CampaignSpec, seeds: Seeds) -> CampaignSpec {
    spec.workload_seed = seeds.workload;
    for sweep in &mut spec.sweeps {
        sweep.sim_seed = Some(seeds.sim);
    }
    spec
}

/// The paper campaign at quick scale on [`THREADS`] threads.
pub fn paper_spec(seeds: Seeds) -> CampaignSpec {
    seeded(
        CampaignSpec::paper(Scale::quick().with_threads(THREADS)),
        seeds,
    )
}

/// A one-sweep campaign over a cell workload's pool at quick scale, on one
/// thread. Campaign sweeps select whole pools, so the light pool's
/// campaign covers every intensity category of the paper set.
pub fn pool_spec(pool: Pool, seeds: Seeds) -> CampaignSpec {
    let set = match pool {
        Pool::Intensive => WorkloadSet::Intensive { cores: 8 },
        Pool::Light => WorkloadSet::Paper,
    };
    let spec = CampaignSpec::new(format!("perfbench-{pool:?}"), cells::scale())
        .with_sweep(SweepSpec::new("cells", set, &MECHANISMS, &[Density::G32]));
    seeded(spec, seeds)
}

/// A store directory no earlier run of this process used.
fn fresh_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    out_dir().join(format!("store-{}-{n}", std::process::id()))
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// The expand phase, done from outside the runner: every sweep's jobs,
/// deduplicated by fingerprint. Returns the unique job count.
fn expand(spec: &CampaignSpec) -> std::io::Result<usize> {
    let mut unique = HashSet::new();
    for sweep in &spec.sweeps {
        let jobs = sweep
            .jobs(&spec.scale, spec.workload_seed)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        unique.extend(jobs.iter().map(Job::fingerprint));
    }
    Ok(unique.len())
}

/// `Campaign::open` on a fresh store plus [`expand`].
fn setup_once(spec: &CampaignSpec) -> std::io::Result<Duration> {
    let dir = fresh_dir();
    let t = Instant::now();
    Campaign::open(&dir, spec.clone())?;
    std::hint::black_box(expand(spec)?);
    let elapsed = t.elapsed();
    std::fs::remove_dir_all(&dir)?;
    Ok(elapsed)
}

/// Median milliseconds of [`SETUP_REPS`] calls of `f`.
fn median_ms(mut f: impl FnMut() -> std::io::Result<()>) -> std::io::Result<f64> {
    let mut ms = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        f()?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}

/// One cold run into a fresh store and its warm re-run.
struct ColdWarm {
    /// The cold campaign; its store's records stay in memory.
    campaign: Campaign,
    cold: CampaignReport,
    cold_wall: Duration,
    /// Host slowness during the cold run, from a [`Sampler`].
    cold_factor: f64,
    warm: CampaignReport,
    warm_wall: Duration,
    /// `(label, wall_ms)` of every job simulated cold, from the event log.
    jobs: Vec<(String, f64)>,
    /// Instructions retired across the simulated jobs.
    insts: f64,
    store_bytes: u64,
}

/// One cold run of `spec` into a fresh store, sampling the host's
/// slowness with `probe` while it runs, and its warm re-run.
fn cold_warm(
    spec: &CampaignSpec,
    checks: &mut Checks,
    probe: &mut Probe,
) -> std::io::Result<ColdWarm> {
    let dir = fresh_dir();
    let events = dir.join("events.jsonl");
    let mut campaign = Campaign::open(&dir, spec.clone())?;
    campaign.set_events(Arc::new(EventLog::to_path(&events)?));
    let sampler = Sampler::start(probe);
    let t = Instant::now();
    let cold = campaign.run();
    let cold_wall = t.elapsed();
    let cold_factor = sampler.finish();
    let cold = cold?;
    let scale = &spec.scale;
    let insts = campaign
        .store()
        .records()
        .values()
        .map(|r| {
            let alone = r.alone_ipc.unwrap_or(0.0) * scale.alone_cycles as f64;
            let grid = r.summary.as_ref().map_or(0.0, |s| {
                s.ipc.iter().sum::<f64>() * scale.dram_cycles as f64
            });
            (alone + grid) * CPU_CYCLES_PER_DRAM_CYCLE as f64
        })
        .sum();
    let store_bytes = dir_bytes(campaign.store().dir());

    let mut warm_campaign = Campaign::open(&dir, spec.clone())?;
    let t = Instant::now();
    let warm = warm_campaign.run()?;
    let warm_wall = t.elapsed();

    checks.check(warm.stats.simulated == 0, || {
        format!(
            "{}: warm re-run simulated {} jobs",
            spec.name, warm.stats.simulated
        )
    });
    checks.check(cold.grids.len() == warm.grids.len(), || {
        format!(
            "{}: warm re-run assembled a different set of grids",
            spec.name
        )
    });
    for (name, grid) in &cold.grids {
        let same = warm
            .grids
            .get(name)
            .is_some_and(|w| grid_bytes(w) == grid_bytes(grid));
        checks.check(same, || {
            format!("{}: grid `{name}` differs cold vs warm", spec.name)
        });
    }

    let log = std::fs::read_to_string(&events)?;
    let jobs: Vec<(String, f64)> = log
        .lines()
        .filter_map(|line| serde_json::parse_value(line).ok())
        .filter(|v| v.get("event").and_then(|e| e.as_str()) == Some("job_simulated"))
        .filter_map(|v| {
            let label = v.get("label")?.as_str()?.to_string();
            Some((label, v.get("wall_ms")?.as_f64()?))
        })
        .collect();
    checks.check(jobs.len() == cold.stats.simulated, || {
        format!(
            "{}: {} job events for {} simulated jobs",
            spec.name,
            jobs.len(),
            cold.stats.simulated
        )
    });
    std::fs::remove_dir_all(&dir)?;
    Ok(ColdWarm {
        campaign,
        cold,
        cold_wall,
        cold_factor,
        warm,
        warm_wall,
        jobs,
        insts,
        store_bytes,
    })
}

/// A grid's rows as JSON, for byte-wise comparison.
fn grid_bytes(grid: &Grid) -> String {
    serde_json::to_string(&grid.rows().to_vec()).expect("grid rows serialize")
}

fn io_failure(checks: &mut Checks, what: &str, e: std::io::Error) {
    checks.check(false, || format!("{what}: {e}"));
}

/// The timed phase of `paper_quick`: `setup_s` from [`SETUP_REPS`]
/// set-ups, then cold campaigns (each with its warm re-run, untimed) until
/// `seconds` have been measured; at least one. Each set-up is divided by
/// the host's slowness read by a [`Probe`] before and after it, each cold
/// campaign (and its jobs) by the slowness a [`Sampler`] read during it.
pub fn timed(seeds: Seeds, seconds: f64) -> Report {
    let spec = paper_spec(seeds);
    let mut checks = Checks::default();
    let mut probe = Probe::new();
    let mut before = probe.factor();
    let (mut setup, mut raw_setup) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        match setup_once(&spec) {
            Ok(d) => {
                let after = probe.factor();
                setup.push(d.as_secs_f64() * 2.0 / (before + after));
                raw_setup.push(d.as_secs_f64());
                before = after;
            }
            Err(e) => io_failure(&mut checks, "campaign set-up", e),
        }
    }
    let (mut walls, mut raw_walls, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p95) = (Vec::new(), Vec::new());
    let mut jobs_per_s = Vec::new();
    let mut mips = Vec::new();
    while raw_walls.is_empty() || raw_walls.iter().sum::<f64>() < seconds {
        let run = match cold_warm(&spec, &mut checks, &mut probe) {
            Ok(run) => run,
            Err(e) => {
                io_failure(&mut checks, "paper campaign", e);
                break;
            }
        };
        let factor = run.cold_factor;
        let wall = run.cold_wall.as_secs_f64() / factor;
        raw_walls.push(run.cold_wall.as_secs_f64());
        factors.push(factor);
        walls.push(wall);
        jobs_per_s.push(run.cold.stats.simulated as f64 / wall);
        mips.push(run.insts / wall / 1e6);
        // Per-job walls are whole milliseconds, each taken to stand for a
        // time spread evenly over its millisecond.
        let ms: Vec<f64> = run.jobs.iter().map(|(_, ms)| *ms).collect();
        p50.push(percentile_binned(&ms, 0.50) / factor);
        p95.push(percentile_binned(&ms, 0.95) / factor);
    }

    let mut report = Report::new(checks);
    if walls.is_empty() || setup.is_empty() {
        return report;
    }
    report.metric("wall_s", median(&walls), "s");
    report.metric("setup_s", median(&setup), "s");
    report.metric("sim_mips", median(&mips), "MIPS");
    report.metric("jobs_per_s", median(&jobs_per_s), "1/s");
    report.metric("job_ms_p50", median(&p50), "ms");
    report.metric("job_ms_p95", median(&p95), "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.note(format!(
        "{} cold campaign(s), {THREADS} threads; raw wall {:.3} s, raw set-up {:.4} s, host slowness {:.3} (medians)",
        walls.len(),
        median(&raw_walls),
        median(&raw_setup),
        median(&factors)
    ));
    report
}

/// Campaign-layer metrics of one cold + warm run of `spec`.
pub fn layer(spec: &CampaignSpec, checks: &mut Checks) -> Vec<Metric> {
    layer_of(spec, checks).unwrap_or_else(|e| {
        io_failure(checks, "campaign", e);
        Vec::new()
    })
}

fn layer_of(spec: &CampaignSpec, checks: &mut Checks) -> std::io::Result<Vec<Metric>> {
    let run = cold_warm(spec, checks, &mut Probe::new())?;
    // `PhaseTiming` holds whole milliseconds, too coarse for these two
    // phases, so they are timed here through the public calls that do
    // the same work.
    let expand_ms = median_ms(|| expand(spec).map(drop))?;
    let client = CampaignClient::new(spec.clone());
    let mut assembled = BTreeMap::new();
    let assemble_ms = median_ms(|| {
        assembled = client.assemble(run.campaign.store().records())?;
        Ok(())
    })?;
    checks.check(
        assembled.len() == run.cold.grids.len()
            && run.cold.grids.iter().all(|(name, g)| {
                assembled
                    .get(name)
                    .is_some_and(|a| grid_bytes(a) == grid_bytes(g))
            }),
        || {
            format!(
                "{}: grids assembled from the store differ from the cold run's",
                spec.name
            )
        },
    );
    let t = run.cold.timing;
    let busy_ms: f64 = run.jobs.iter().map(|(_, ms)| ms).sum();
    let alone_ms: f64 = run
        .jobs
        .iter()
        .filter(|(label, _)| label.starts_with("alone/"))
        .map(|(_, ms)| ms)
        .sum();
    let threads = spec.scale.resolved_threads() as f64;
    Ok(vec![
        ("campaign.expand_ms", expand_ms, "ms"),
        ("campaign.assemble_ms", assemble_ms, "ms"),
        ("campaign.simulate_ms", t.simulate_ms as f64, "ms"),
        (
            "campaign.thread_busy_frac",
            busy_ms / (threads * t.simulate_ms.max(1) as f64),
            "ratio",
        ),
        (
            "campaign.alone_job_share",
            alone_ms / busy_ms.max(1.0),
            "ratio",
        ),
        (
            "campaign.dedup_ratio",
            run.cold.stats.unique_jobs as f64 / run.cold.stats.cells.max(1) as f64,
            "ratio",
        ),
        ("campaign.warm_ms", run.warm_wall.as_secs_f64() * 1e3, "ms"),
        (
            "campaign.warm_simulated",
            run.warm.stats.simulated as f64,
            "count",
        ),
        ("campaign.store_bytes", run.store_bytes as f64, "B"),
    ])
}

/// Cells traced for `paper_quick`: the main sweep's REFab and DSARP cells
/// at 32 Gb for each of its mixes, at the campaign's own scale.
pub fn sample_cells(seeds: Seeds) -> Vec<Cell> {
    let spec = paper_spec(seeds);
    let main = &spec.sweeps[0];
    main.workloads
        .resolve(&spec.scale, spec.workload_seed)
        .unwrap_or_default()
        .into_iter()
        .filter_map(|w| match w {
            dsarp_campaign::CampaignWorkload::Synthetic(wl) => Some(wl),
            dsarp_campaign::CampaignWorkload::Traced(_) => None,
        })
        .flat_map(|wl| {
            [Mechanism::RefAb, Mechanism::Dsarp].map(|m| {
                match main.grid_job(m, Density::G32, &wl, &spec.scale) {
                    Job::Grid {
                        cfg,
                        workload,
                        cycles,
                    } => cells::cell(cfg, workload, cycles),
                    _ => unreachable!("grid_job builds a Job::Grid"),
                }
            })
        })
        .collect()
}
