//! Experiment drivers: one module per table/figure in the paper's
//! evaluation, plus the shared [`harness`] and [`report`] infrastructure.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Fig. 5 (tRFC trend) | [`fig05`] |
//! | Fig. 6 + Fig. 7 (motivation) | [`fig06_07`] |
//! | Fig. 12 + Table 2 (headline) | [`fig12_table2`] |
//! | Fig. 13 + §6.1.2 breakdown | [`fig13`] |
//! | Fig. 14 (energy) | [`fig14`] |
//! | Fig. 15 (intensity) | [`fig15`] |
//! | Table 3 (core count) | [`table3`] |
//! | Table 4 (tFAW) | [`table4`] |
//! | Table 5 (subarrays) | [`table5`] |
//! | Table 6 (64 ms retention) | [`table6`] |
//! | Fig. 16 (FGR/AR) | [`fig16`] |
//! | Ablations (throttle, DARP split, watermarks) | [`ablations`] |
//! | Extension: footnote-5 overlapped REFpb | [`overlap`] |
//!
//! Each simulated module holds its sweep's constants and a `reduce(..)`
//! over pre-computed [`Grid`]s; Figure 5 is analytic (`fig05::run()`).
//! The sweeps themselves are declared once, by `CampaignSpec::paper` in
//! the `dsarp-campaign` crate, which computes every grid through the
//! cached, resumable campaign engine and reduces all artifacts from them
//! (`dsarp_campaign::PaperArtifacts`). The `experiments` binary in the
//! `dsarp-serve` crate drives it.

pub mod ablations;
pub mod chart;
pub mod fig05;
pub mod fig06_07;
pub mod fig12_table2;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod harness;
pub mod overlap;
pub mod report;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

pub use harness::{parallel_map, Grid, Scale, WsRow};
