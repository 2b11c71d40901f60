//! Campaign engine cache benchmark: a cold campaign simulates every cell;
//! a warm one answers entirely from the content-addressed store. The gap
//! between the two is the speedup the campaign subsystem buys and is
//! tracked in the perf trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use dsarp_bench::{bench_scale, fresh_dir};
use dsarp_campaign::{Campaign, CampaignSpec, SweepSpec, WorkloadSet};
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use std::hint::black_box;

fn spec() -> CampaignSpec {
    CampaignSpec::new("bench", bench_scale()).with_sweep(SweepSpec::new(
        "bench-sweep",
        WorkloadSet::Intensive { cores: 2 },
        &[Mechanism::RefAb, Mechanism::RefPb, Mechanism::Dsarp],
        &[Density::G32],
    ))
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign_cache");
    g.sample_size(10);

    g.bench_function("cold_run", |b| {
        b.iter(|| {
            let dir = fresh_dir("cold");
            let report = Campaign::open(&dir, spec()).unwrap().run().unwrap();
            assert!(report.stats.simulated > 0, "cold run must simulate");
            let _ = std::fs::remove_dir_all(&dir);
            black_box(report.stats)
        })
    });

    let warm_dir = fresh_dir("warm");
    Campaign::open(&warm_dir, spec()).unwrap().run().unwrap();
    g.bench_function("warm_cache_run", |b| {
        b.iter(|| {
            let report = Campaign::open(&warm_dir, spec()).unwrap().run().unwrap();
            assert_eq!(report.stats.simulated, 0, "warm run must be all cache hits");
            black_box(report.stats)
        })
    });
    let _ = std::fs::remove_dir_all(&warm_dir);
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
