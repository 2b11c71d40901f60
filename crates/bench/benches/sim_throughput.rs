//! Raw simulator throughput: DRAM cycles per second of wall time for one
//! 8-core memory-intensive system, per mechanism. Not a paper artifact —
//! this tracks the engine itself. The `telemetry` group benches the same
//! run with per-cycle telemetry sampling off and on, so the sampling
//! overhead (budgeted at <= 2%) is tracked alongside. The `low_mpki` group
//! benches the event-driven skip-ahead loop against forced per-cycle
//! stepping on a compute-bound mix (measured MPKI ~= 0.07, povray-class) —
//! the workload class where dead time dominates and skip-ahead pays off
//! (target: >= 5x).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dsarp_core::Mechanism;
use dsarp_dram::Density;
use dsarp_sim::{SimConfig, SystemBuilder};
use dsarp_workloads::mixes;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let workload = mixes::intensive_mixes(8, 1)[0].clone();
    let cycles = 10_000u64;
    let mut g = c.benchmark_group("sim_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cycles));
    for mech in [
        Mechanism::NoRefresh,
        Mechanism::RefAb,
        Mechanism::RefPb,
        Mechanism::Dsarp,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(mech.label()),
            &mech,
            |b, &mech| {
                b.iter(|| {
                    let cfg = SimConfig::paper(mech, Density::G32);
                    black_box(
                        SystemBuilder::new(&cfg)
                            .workload(&workload)
                            .build()
                            .run(cycles),
                    )
                })
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("telemetry");
    g.sample_size(10);
    g.throughput(Throughput::Elements(cycles));
    for telemetry in [false, true] {
        g.bench_with_input(
            BenchmarkId::from_parameter(if telemetry { "on" } else { "off" }),
            &telemetry,
            |b, &telemetry| {
                b.iter(|| {
                    let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G32);
                    black_box(
                        SystemBuilder::new(&cfg)
                            .workload(&workload)
                            .telemetry(telemetry)
                            .build()
                            .run(cycles),
                    )
                })
            },
        );
    }
    g.finish();

    // High-MPKI scheduler cost: the regime the indexed FR-FCFS scheduler
    // targets. With eight intensive cores the queues stay occupied, almost
    // no cycle is skippable, and per-cycle scheduling cost dominates wall
    // time. REFab isolates raw FR-FCFS scheduling; DSARP adds the
    // refresh-policy query traffic on top. Long enough that construction
    // and warm-up amortize to noise.
    let hi_cycles = 100_000u64;
    let mut g = c.benchmark_group("high_mpki");
    g.sample_size(10);
    g.throughput(Throughput::Elements(hi_cycles));
    for mech in [Mechanism::RefAb, Mechanism::Dsarp] {
        g.bench_with_input(
            BenchmarkId::from_parameter(mech.label()),
            &mech,
            |b, &mech| {
                b.iter(|| {
                    let cfg = SimConfig::paper(mech, Density::G32);
                    black_box(
                        SystemBuilder::new(&cfg)
                            .workload(&workload)
                            .build()
                            .run(hi_cycles),
                    )
                })
            },
        );
    }
    g.finish();

    // DARP-heavy: DARP's `decide()` ranks banks by `demand_count` and
    // probes `bank_has_demand` per candidate bank per decision — the
    // refresh-policy side of the query API, exercised at the highest
    // refresh rate (32Gb) under the same intensive 8-core mix.
    let mut g = c.benchmark_group("darp_heavy");
    g.sample_size(10);
    g.throughput(Throughput::Elements(hi_cycles));
    for mech in [Mechanism::Darp, Mechanism::DarpOooOnly] {
        g.bench_with_input(
            BenchmarkId::from_parameter(mech.label()),
            &mech,
            |b, &mech| {
                b.iter(|| {
                    let cfg = SimConfig::paper(mech, Density::G32);
                    black_box(
                        SystemBuilder::new(&cfg)
                            .workload(&workload)
                            .build()
                            .run(hi_cycles),
                    )
                })
            },
        );
    }
    g.finish();

    // Low-MPKI skip-ahead payoff: same run, skip-ahead vs per-cycle, on
    // eight copies of the compute-bound archetype (the catalogue's P0
    // mixes floor at `mem_interval` 25, which keeps cores busy with
    // in-flight LLC hits rather than dead). The cycle count is long enough
    // that system construction and warm-up transients (cold caches,
    // initial queue fill) are amortized to noise and steady-state dead
    // time dominates.
    let low_mpki = mixes::Workload {
        name: "compute".into(),
        category: mixes::IntensityCategory::P0,
        benchmarks: vec![&dsarp_workloads::catalogue::COMPUTE_BOUND; 8],
    };
    let low_cycles = 400_000u64;
    let mut g = c.benchmark_group("low_mpki");
    g.sample_size(10);
    g.throughput(Throughput::Elements(low_cycles));
    for skip in [true, false] {
        g.bench_with_input(
            BenchmarkId::from_parameter(if skip { "skip_ahead" } else { "per_cycle" }),
            &skip,
            |b, &skip| {
                b.iter(|| {
                    let cfg = SimConfig::paper(Mechanism::Dsarp, Density::G32);
                    let mut system = SystemBuilder::new(&cfg).workload(&low_mpki).build();
                    black_box(if skip {
                        system.run(low_cycles)
                    } else {
                        system.run_per_cycle(low_cycles)
                    })
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
