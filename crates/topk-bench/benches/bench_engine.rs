//! Criterion bench for the serving layer: drain a fixed mixed-shape
//! query workload through `TopKEngine` at coalescing window 1, 8 and
//! 32, as a host wall-time regression guard. The simulated
//! queries/sec for each window (the number the `topk-bench engine`
//! subcommand reports) is printed once up front, so a bench run also
//! documents the throughput effect of coalescing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use topk_bench::serving::{drain, engine_config, mixed_workload, EngineBenchOpts};

const WINDOWS: [usize; 3] = [1, 8, 32];
const QUERIES: usize = 96;
const DEVICES: usize = 2;

fn bench_engine_windows(c: &mut Criterion) {
    let opts = EngineBenchOpts {
        devices: DEVICES,
        ..Default::default()
    };
    let workload = mixed_workload(QUERIES, false);
    for window in WINDOWS {
        let (_, report) = drain(engine_config(&opts, window), &workload);
        eprintln!(
            "[bench_engine] window {:>2}: {:>9.0} simulated queries/sec \
             ({} fused batches, makespan {:.1} us)",
            window,
            report.queries_per_sec(),
            report.fused_batches(),
            report.makespan_us()
        );
    }

    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    for window in WINDOWS {
        group.bench_with_input(BenchmarkId::new("window", window), &window, |b, &window| {
            b.iter(|| {
                let (_, report) = drain(engine_config(&opts, window), &workload);
                black_box(report.queries_per_sec())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_windows);
criterion_main!(benches);
