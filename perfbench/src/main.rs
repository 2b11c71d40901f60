//! The repository benchmark: end-to-end and per-layer performance of the
//! DSARP reproduction on three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload intensive_mix|light_mix|paper_quick|all] [--seed N] \
//!     [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a workload's timed phase runs for `--seconds` seconds
//! and reports the end-to-end metrics; with `--trace 1` a separate traced
//! pass reports the per-layer metrics and writes its spans under
//! `perfbench/out/`. Every run checks the program's outputs; the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, and the exit code is non-zero when a check
//! failed. `--workload all` (the default) runs every workload untraced,
//! then every workload traced. See `perfbench/README.md` for what each
//! workload and metric is for.

mod campaign;
mod cells;
mod driver;
mod probe;
mod trace;

use cells::Pool;
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::experiments::harness::WORKLOAD_SEED;
use dsarp_sim::SimConfig;
use std::path::PathBuf;
use std::process::ExitCode;

/// Default measured seconds per run (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// A per-layer or end-to-end metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The seeds a run derives its inputs from.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Mix selection (`Scale::*_with_seed`, `CampaignSpec::workload_seed`).
    pub workload: u64,
    /// Simulator seed (`SimConfig::with_seed`).
    pub sim: u64,
}

impl Seeds {
    /// The paper's seeds: `WORKLOAD_SEED` and `SimConfig::paper`'s seed.
    fn paper() -> Self {
        Self {
            workload: WORKLOAD_SEED,
            sim: SimConfig::paper(Mechanism::Dsarp, Density::G32).seed,
        }
    }

    /// `--seed N` feeds both mix selection and the simulator.
    fn from_arg(n: u64) -> Self {
        Self {
            workload: n,
            sim: n,
        }
    }
}

/// Correctness checks attempted and failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Counts one check; a failure is reported on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// The outcome of one workload run: metrics, checks and notes.
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    checks: Checks,
    notes: Vec<String>,
}

impl Report {
    /// A report carrying `checks` and no metrics yet.
    pub fn new(checks: Checks) -> Self {
        Self {
            metrics: Vec::new(),
            checks,
            notes: Vec::new(),
        }
    }

    /// Adds a metric. A value that is not finite fails a check instead.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name.to_string(), value, unit));
        } else {
            self.checks
                .check(false, || format!("metric {name} is {value}"));
        }
    }

    /// Adds a free-form line printed with the metrics.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    fn print(&self, title: &str) {
        println!("== {title}");
        for note in &self.notes {
            println!("   {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("   {name:<34} {value:>16.4} {unit}");
        }
        println!(
            "   checks: {} attempted, {} failed",
            self.checks.attempted, self.checks.failed
        );
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The `q` quantile of `v`, interpolating linearly between closest ranks.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The `q` quantile of samples recorded in whole units (the campaign's
/// per-job `wall_ms`): each sample `k` stands for a time in `[k, k + 1)`,
/// spread evenly, as for grouped data.
pub fn percentile_binned(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = q * s.len() as f64;
    let k = s[(rank as usize).min(s.len() - 1)];
    let below = s.partition_point(|&x| x < k);
    let equal = s.partition_point(|&x| x <= k) - below;
    k + (rank - below as f64) / equal as f64
}

/// Where runs write spans and temporary campaign stores.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set size of this process so far, less the host-speed
/// probe's buffer, MiB (NaN, which fails a check, where
/// `/proc/self/status` has no `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0 - probe::MIB)
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    IntensiveMix,
    LightMix,
    PaperQuick,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::IntensiveMix,
        Workload::LightMix,
        Workload::PaperQuick,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::IntensiveMix => "intensive_mix",
            Workload::LightMix => "light_mix",
            Workload::PaperQuick => "paper_quick",
        }
    }

    fn pool(self) -> Option<Pool> {
        match self {
            Workload::IntensiveMix => Some(Pool::Intensive),
            Workload::LightMix => Some(Pool::Light),
            Workload::PaperQuick => None,
        }
    }

    /// The timed phase: every end-to-end metric.
    fn timed(self, seeds: Seeds, seconds: f64) -> Report {
        match self.pool() {
            Some(pool) => cells::timed(&cells::cells(pool, seeds), seconds),
            None => campaign::timed(seeds, seconds),
        }
    }

    /// The traced pass: every per-layer metric.
    fn traced(self, seeds: Seeds) -> Report {
        let mut checks = Checks::default();
        let spans = out_dir().join(format!("spans-{}.jsonl", self.name()));
        let (cells, spec) = match self.pool() {
            Some(pool) => (cells::cells(pool, seeds), campaign::pool_spec(pool, seeds)),
            None => (campaign::sample_cells(seeds), campaign::paper_spec(seeds)),
        };
        let layers = cells::traced(&cells, &mut checks, &spans);
        let campaign_layer = campaign::layer(&spec, &mut checks);
        let mut report = Report::new(checks);
        report.note(format!(
            "{} cells traced; campaign `{}`; spans in {}",
            cells.len(),
            spec.name,
            spans.display()
        ));
        for (name, value, unit) in layers.into_iter().chain(campaign_layer) {
            report.metric(name, value, unit);
        }
        report
    }
}

struct Args {
    workloads: Vec<Workload>,
    seeds: Seeds,
    seconds: f64,
    trace: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seeds: Seeds::paper(),
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    let w = Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload `{v}`"))?;
                    vec![w]
                };
            }
            "--seed" => {
                let v = value()?;
                let n = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
                args.seeds = Seeds::from_arg(n);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--workload intensive_mix|light_mix|paper_quick|all] \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload seed {:#x}, sim seed {:#x}, {} s per timed phase, {} threads available",
        args.seeds.workload,
        args.seeds.sim,
        args.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let modes = args.trace.map_or(vec![false, true], |trace| vec![trace]);
    let mut all = Report::new(Checks::default());
    for &trace in &modes {
        for &w in &args.workloads {
            let report = if trace {
                w.traced(args.seeds)
            } else {
                w.timed(args.seeds, args.seconds)
            };
            let title = format!("{} ({})", w.name(), if trace { "traced" } else { "timed" });
            report.print(&title);
            all.checks.attempted += report.checks.attempted;
            all.checks.failed += report.checks.failed;
            let prefix = if args.workloads.len() == 1 && modes.len() == 1 {
                String::new()
            } else {
                format!("{}.", w.name())
            };
            for (name, value, unit) in report.metrics {
                all.metrics.push((format!("{prefix}{name}"), value, unit));
            }
        }
    }
    println!("{}", all.json());
    if all.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
