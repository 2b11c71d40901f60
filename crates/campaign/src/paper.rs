//! The paper's evaluation as one campaign.
//!
//! [`CampaignSpec::paper`] declares every sweep the evaluation runs — the
//! main 12-mechanism grid plus Tables 3–6, the footnote-5 overlap study
//! and the design ablations — and [`PaperArtifacts`] reduces a finished
//! campaign to each table's and figure's rows. Sweep names are spelled in
//! this module only: the `experiments` binary, the paper-shape tests and
//! the artifact benches all go through it.

use crate::runner::CampaignReport;
use crate::spec::{CampaignSpec, SweepSpec, WorkloadSet};
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::experiments::harness::{Grid, Scale, MAIN_GRID_MECHS};
use dsarp_sim::experiments::{
    ablations, fig06_07, fig12_table2, fig13, fig14, fig15, fig16, overlap, table3, table4, table5,
    table6,
};

/// The main-grid sweep's name.
const MAIN: &str = "main";

/// Each sweep-name prefix of the paper campaign, with the artifacts that
/// reduce from the sweeps it selects.
const SWEEP_ARTIFACTS: [(&str, &[&str]); 7] = [
    (
        MAIN,
        &[
            "fig6", "fig7", "fig12", "table2", "fig13", "fig14", "fig15", "fig16",
        ],
    ),
    ("table3/", &["table3"]),
    ("table4/", &["table4"]),
    ("table5/", &["table5"]),
    ("table6", &["table6"]),
    ("overlap", &["overlap"]),
    ("ablations/", &["ablations"]),
];

/// Every artifact name `experiments --exp` accepts: the analytic Figure 5
/// (no sweep), then each sweep's artifacts.
pub fn artifacts() -> Vec<&'static str> {
    std::iter::once("fig5")
        .chain(
            SWEEP_ARTIFACTS
                .iter()
                .flat_map(|(_, names)| names.iter().copied()),
        )
        .collect()
}

/// The sweep-name prefixes `artifact` reduces from, for
/// [`CampaignSpec::filtered`]; every prefix when `artifact` is `None`.
pub fn sweep_prefixes(artifact: Option<&str>) -> Vec<&'static str> {
    SWEEP_ARTIFACTS
        .iter()
        .filter(|(_, artifacts)| artifact.is_none_or(|a| artifacts.contains(&a)))
        .map(|(prefix, _)| *prefix)
        .collect()
}

/// The main-grid mechanisms a main-grid artifact's reducer reads.
fn main_mechanisms(artifact: &str) -> Option<Vec<Mechanism>> {
    let with_refab = |mechs: &[Mechanism]| {
        let mut v = vec![Mechanism::RefAb];
        v.extend_from_slice(mechs);
        v
    };
    Some(match artifact {
        "fig6" | "fig7" => vec![Mechanism::NoRefresh, Mechanism::RefAb, Mechanism::RefPb],
        "fig12" | "table2" => with_refab(&fig12_table2::FIG12_MECHS),
        "fig13" => with_refab(&fig13::FIG13_MECHS),
        "fig14" => fig14::FIG14_MECHS.to_vec(),
        "fig15" => vec![Mechanism::RefAb, Mechanism::RefPb, Mechanism::Dsarp],
        "fig16" => fig16::FIG16_MECHS.to_vec(),
        _ => return None,
    })
}

impl CampaignSpec {
    /// The full paper evaluation: the main 12-mechanism grid plus every
    /// sensitivity sweep (Tables 3–6, the footnote-5 overlap study and the
    /// design ablations). [`PaperArtifacts`] reduces its report.
    pub fn paper(scale: Scale) -> Self {
        let densities = Density::evaluated();
        let g32 = [Density::G32];
        let intensive8 = WorkloadSet::Intensive { cores: 8 };
        let mut spec = CampaignSpec::new("paper", scale).with_sweep(SweepSpec::new(
            MAIN,
            WorkloadSet::Paper,
            &MAIN_GRID_MECHS,
            &densities,
        ));
        for cores in table3::CORE_SWEEP {
            spec = spec.with_sweep(SweepSpec::new(
                table3_sweep(cores),
                WorkloadSet::Intensive { cores },
                &table3::MECHS,
                &g32,
            ));
        }
        for (faw, rrd) in table4::SWEEP {
            let mut s = SweepSpec::new(
                table4_sweep(faw, rrd),
                intensive8.clone(),
                &table4::MECHS,
                &g32,
            );
            s.faw_rrd = Some((faw, rrd));
            spec = spec.with_sweep(s);
        }
        for n in table5::SWEEP {
            let mut s = SweepSpec::new(table5_sweep(n), intensive8.clone(), &table5::MECHS, &g32);
            s.subarrays = n;
            spec = spec.with_sweep(s);
        }
        let mut t6 = SweepSpec::new("table6", intensive8.clone(), &table6::MECHS, &densities);
        t6.retention = table6::RETENTION;
        spec = spec.with_sweep(t6);
        let mut overlap_mechs = vec![Mechanism::RefPb];
        overlap_mechs.extend(overlap::OVERLAP_MECHS);
        spec = spec.with_sweep(SweepSpec::new(
            "overlap",
            intensive8.clone(),
            &overlap_mechs,
            &overlap::OVERLAP_DENSITIES,
        ));
        spec = spec.with_sweep(SweepSpec::new(
            "ablations/throttle",
            intensive8.clone(),
            &ablations::THROTTLE_MECHS,
            &g32,
        ));
        let mut unthrottled = SweepSpec::new(
            "ablations/unthrottled",
            intensive8.clone(),
            &[Mechanism::SarpPb],
            &g32,
        );
        unthrottled.ablate_sarp_throttle = true;
        spec = spec.with_sweep(unthrottled);
        spec = spec.with_sweep(SweepSpec::new(
            "ablations/darp",
            intensive8.clone(),
            &ablations::DARP_MECHS,
            &g32,
        ));
        for (enter, exit) in ablations::WATERMARK_SWEEP {
            let mut s = SweepSpec::new(
                watermark_sweep(enter, exit),
                intensive8.clone(),
                &ablations::WATERMARK_MECHS,
                &g32,
            );
            s.drain_watermarks = Some((enter, exit));
            spec = spec.with_sweep(s);
        }
        spec
    }

    /// The part of [`CampaignSpec::paper`] one artifact reduces from: its
    /// sweeps only, and for a main-grid artifact only the main-grid
    /// mechanisms its reducer reads. Every kept cell is a cell of the full
    /// campaign, with the same fingerprint.
    pub fn paper_artifact(scale: Scale, artifact: &str) -> Self {
        let mut spec = Self::paper(scale).filtered(&sweep_prefixes(Some(artifact)));
        if let Some(keep) = main_mechanisms(artifact) {
            for sweep in spec.sweeps.iter_mut().filter(|s| s.name == MAIN) {
                sweep.mechanisms.retain(|m| keep.contains(m));
            }
        }
        spec
    }
}

fn table3_sweep(cores: usize) -> String {
    format!("table3/cores{cores}")
}

fn table4_sweep(faw: u64, rrd: u64) -> String {
    format!("table4/faw{faw}-rrd{rrd}")
}

fn table5_sweep(subarrays: usize) -> String {
    format!("table5/sub{subarrays}")
}

fn watermark_sweep(enter: usize, exit: usize) -> String {
    format!("ablations/wm{enter}-{exit}")
}

/// Reduces a finished [`CampaignSpec::paper`] campaign (or a filtered part
/// of it) to each artifact's rows. Each method reads only its own sweeps
/// and panics, naming the sweep, if the report lacks one.
#[derive(Debug, Clone, Copy)]
pub struct PaperArtifacts<'a> {
    report: &'a CampaignReport,
}

impl<'a> PaperArtifacts<'a> {
    /// Wraps a report of the paper campaign.
    pub fn new(report: &'a CampaignReport) -> Self {
        Self { report }
    }

    /// The main evaluation grid, when the campaign ran it.
    pub fn main_grid(&self) -> Option<&'a Grid> {
        self.report.grids.get(MAIN)
    }

    fn main(&self) -> &'a Grid {
        self.report.grid(MAIN)
    }

    /// Figures 6 and 7 over the evaluated densities.
    pub fn fig06_07(&self) -> (Vec<fig06_07::Fig6Row>, Vec<fig06_07::Fig7Row>) {
        fig06_07::reduce(self.main(), &Density::evaluated())
    }

    /// Figure 12's sorted curves.
    pub fn fig12(&self) -> Vec<fig12_table2::Fig12Point> {
        fig12_table2::reduce_fig12(self.main(), &Density::evaluated())
    }

    /// Table 2.
    pub fn table2(&self) -> Vec<fig12_table2::Table2Row> {
        fig12_table2::reduce_table2(self.main(), &Density::evaluated())
    }

    /// Figure 13.
    pub fn fig13(&self) -> Vec<fig13::Fig13Row> {
        fig13::reduce(self.main(), &Density::evaluated())
    }

    /// Figure 14.
    pub fn fig14(&self) -> Vec<fig14::Fig14Row> {
        fig14::reduce(self.main(), &Density::evaluated())
    }

    /// Figure 15.
    pub fn fig15(&self) -> Vec<fig15::Fig15Row> {
        fig15::reduce(self.main(), &Density::evaluated())
    }

    /// Figure 16.
    pub fn fig16(&self) -> Vec<fig16::Fig16Row> {
        fig16::reduce(self.main(), &Density::evaluated())
    }

    /// Table 3, one row per core count.
    pub fn table3(&self) -> Vec<table3::Table3Row> {
        table3::CORE_SWEEP
            .iter()
            .map(|&cores| table3::reduce(self.report.grid(&table3_sweep(cores)), cores))
            .collect()
    }

    /// Table 4, one row per `(tFAW, tRRD)` point.
    pub fn table4(&self) -> Vec<table4::Table4Row> {
        table4::SWEEP
            .iter()
            .map(|&(faw, rrd)| table4::reduce(self.report.grid(&table4_sweep(faw, rrd)), faw, rrd))
            .collect()
    }

    /// Table 5, one row per subarray count.
    pub fn table5(&self) -> Vec<table5::Table5Row> {
        table5::SWEEP
            .iter()
            .map(|&n| table5::reduce(self.report.grid(&table5_sweep(n)), n))
            .collect()
    }

    /// Table 6 over the evaluated densities.
    pub fn table6(&self) -> Vec<table6::Table6Row> {
        table6::reduce(self.report.grid("table6"), &Density::evaluated())
    }

    /// The footnote-5 overlap study.
    pub fn overlap(&self) -> Vec<overlap::OverlapRow> {
        overlap::reduce(self.report.grid("overlap"), &overlap::OVERLAP_DENSITIES)
    }

    /// The three design ablations.
    pub fn ablations(&self) -> Vec<ablations::AblationRow> {
        let grid = |name: &str| self.report.grid(name).clone();
        ablations::reduce(&ablations::AblationGrids {
            throttle: grid("ablations/throttle"),
            unthrottled: grid("ablations/unthrottled"),
            darp: grid("ablations/darp"),
            watermarks: ablations::WATERMARK_SWEEP
                .iter()
                .map(|&(enter, exit)| (enter, exit, grid(&watermark_sweep(enter, exit))))
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_selects_a_slice_of_the_paper_campaign() {
        let scale = Scale::quick();
        let all = CampaignSpec::paper(scale);
        for artifact in artifacts() {
            let spec = CampaignSpec::paper_artifact(scale, artifact);
            assert_eq!(spec.sweeps.is_empty(), artifact == "fig5", "{artifact}");
            for sweep in &spec.sweeps {
                let full = all
                    .sweep(&sweep.name)
                    .expect("a sweep of the paper campaign");
                assert!(
                    sweep.mechanisms.iter().all(|m| full.mechanisms.contains(m)),
                    "{artifact} narrows {} to a subset",
                    sweep.name
                );
            }
        }
        let fig15 = CampaignSpec::paper_artifact(scale, "fig15");
        assert_eq!(fig15.sweeps.len(), 1);
        assert_eq!(fig15.sweeps[0].mechanisms.len(), 3);
    }
}
