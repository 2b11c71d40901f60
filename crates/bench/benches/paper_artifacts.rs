//! Every simulated paper artifact, regenerated at bench scale: each sample
//! is a cold `Campaign::run` of the artifact's slice of
//! `CampaignSpec::paper` into a fresh store, reduced through
//! `PaperArtifacts` — the path the `experiments` binary takes. Figure 5 is
//! analytic and has its own target.

use criterion::{criterion_group, criterion_main, Criterion};
use dsarp_bench::{bench_scale, fresh_dir};
use dsarp_campaign::{Campaign, CampaignSpec, PaperArtifacts};
use std::hint::black_box;

/// Reduces an artifact and returns its row count.
type Reduce = fn(&PaperArtifacts) -> usize;

/// One bench per artifact group: the artifact whose campaign slice is run,
/// and its reduction.
const ARTIFACTS: [(&str, Reduce); 12] = [
    ("fig6", |p| p.fig06_07().0.len()),
    ("fig12", |p| p.fig12().len() + p.table2().len()),
    ("fig13", |p| p.fig13().len()),
    ("fig14", |p| p.fig14().len()),
    ("fig15", |p| p.fig15().len()),
    ("fig16", |p| p.fig16().len()),
    ("table3", |p| p.table3().len()),
    ("table4", |p| p.table4().len()),
    ("table5", |p| p.table5().len()),
    ("table6", |p| p.table6().len()),
    ("overlap", |p| p.overlap().len()),
    ("ablations", |p| p.ablations().len()),
];

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper_artifacts");
    g.sample_size(10);
    for (artifact, reduce) in ARTIFACTS {
        g.bench_function(artifact, |b| {
            b.iter(|| {
                let dir = fresh_dir(artifact);
                let spec = CampaignSpec::paper_artifact(bench_scale(), artifact);
                let report = Campaign::open(&dir, spec).unwrap().run().unwrap();
                let rows = reduce(&PaperArtifacts::new(&report));
                assert!(rows > 0, "{artifact} reduced to no rows");
                let _ = std::fs::remove_dir_all(&dir);
                black_box(rows)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
