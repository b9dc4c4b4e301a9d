//! Criterion benches for the library's extension features (beyond the
//! paper's figures): the Dr. Top-K hybrid layer, the auto-dispatcher,
//! the on-the-fly producer API, the largest-K adapter, and 64-bit
//! keys. Host wall time of the simulation, as regression guards.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::Distribution;
use gpu_sim::{DeviceSpec, Gpu};
use std::hint::black_box;
use topk_baselines::SortTopK;
use topk_core::{AirTopK, GridSelect, RowSelect, SelectK, SelectLargest, TopKAlgorithm};
use topk_hybrid::DrTopK;

fn sim_time(alg: &dyn TopKAlgorithm, data: &[f32], k: usize) -> f64 {
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let input = gpu.htod("in", data);
    gpu.reset_profile();
    black_box(alg.select(&mut gpu, &input, k).values.len());
    gpu.elapsed_us()
}

fn bench_hybrid(c: &mut Criterion) {
    let n = 1 << 18;
    let k = 64;
    let data = datagen::generate(Distribution::Uniform, n, 7);
    let mut group = c.benchmark_group("ext_hybrid_drtopk");
    group.sample_size(10);
    group.bench_function("sort_base", |b| {
        let alg = SortTopK;
        b.iter(|| black_box(sim_time(&alg, &data, k)));
    });
    group.bench_function("hybrid_over_sort", |b| {
        let alg = DrTopK::new(SortTopK);
        b.iter(|| black_box(sim_time(&alg, &data, k)));
    });
    group.bench_function("hybrid_over_air", |b| {
        let alg = DrTopK::new(AirTopK::default());
        b.iter(|| black_box(sim_time(&alg, &data, k)));
    });
    group.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    let n = 1 << 18;
    let data = datagen::generate(Distribution::Normal, n, 9);
    let mut group = c.benchmark_group("ext_selectk_dispatch");
    group.sample_size(10);
    for k in [32usize, 4096] {
        group.bench_with_input(BenchmarkId::new("auto", k), &k, |b, &k| {
            let alg = SelectK::default();
            b.iter(|| black_box(sim_time(&alg, &data, k)));
        });
    }
    group.finish();
}

fn bench_on_the_fly(c: &mut Criterion) {
    let n = 1 << 18;
    let k = 32;
    let mut group = c.benchmark_group("ext_on_the_fly");
    group.sample_size(10);
    let data = datagen::generate(Distribution::Uniform, n, 5);
    group.bench_function("materialised", |b| {
        let alg = GridSelect::default();
        b.iter(|| black_box(sim_time(&alg, &data, k)));
    });
    group.bench_function("fused_producer", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(DeviceSpec::a100());
            gpu.reset_profile();
            let out = GridSelect::default().select_on_the_fly(
                &mut gpu,
                n,
                k,
                |ctx, i| {
                    ctx.ops(2);
                    ((i as f32) * 0.61803).fract()
                },
                |c| c, // the producer reads no device buffers
            );
            black_box((out.unwrap().values.len(), gpu.elapsed_us()))
        });
    });
    group.finish();
}

fn bench_largest_and_64bit(c: &mut Criterion) {
    let n = 1 << 18;
    let k = 128;
    let mut group = c.benchmark_group("ext_adapters");
    group.sample_size(10);
    let data = datagen::generate(Distribution::Normal, n, 3);
    group.bench_function("largest_k_adapter", |b| {
        let alg = SelectLargest::new(AirTopK::default());
        b.iter(|| black_box(sim_time(&alg, &data, k)));
    });
    let data64: Vec<f64> = data.iter().map(|&x| x as f64).collect();
    group.bench_function("air_f64_keys", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let input = gpu.htod("in64", &data64);
            gpu.reset_profile();
            let out = AirTopK::default().run_batch_typed(&mut gpu, &[input], k);
            black_box((out.unwrap().len(), gpu.elapsed_us()))
        });
    });
    group.bench_function("air_f32_keys", |b| {
        let alg = AirTopK::default();
        b.iter(|| black_box(sim_time(&alg, &data, k)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hybrid,
    bench_dispatch,
    bench_on_the_fly,
    bench_largest_and_64bit
);
criterion_main!(benches);
