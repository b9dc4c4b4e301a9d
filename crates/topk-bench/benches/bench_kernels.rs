//! Micro-benchmarks of the simulator substrate itself: metered loads
//! (element-wise and as coalesced tiles), host↔device staging, kernel
//! launch machinery (including the block pool's multi-block path), the
//! tuner's distribution sketch, warp primitives, bitonic networks and
//! the radix pass machine on a grid the fill rule sizes, GridSelect's
//! lane loop, and one tile sweep through each simulator layer.
//! These guard the host-side performance of the simulation (the
//! functional work per element) against regressions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_sim::warp::{ballot, exclusive_scan, Lanes};
use gpu_sim::{BlockPool, DeviceSpec, Gpu, LaunchConfig, SanitizerMode};
use std::hint::black_box;
use topk_core::bitonic::{bitonic_sort, merge_into_topk, sort_queue};
use topk_core::tuner::DistSketch;
use topk_core::{AirTopK, GridSelect, TopKAlgorithm};

fn bench_metered_stream(c: &mut Criterion) {
    let n = 1 << 20;
    let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let mut group = c.benchmark_group("sim_metered_stream");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    group.bench_function("ld_sum_1M", |b| {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let buf = gpu.htod("in", &data);
        let out = gpu.alloc::<u32>("out", 1);
        b.iter(|| {
            gpu.launch(
                "sum",
                LaunchConfig::for_elements(n, 256, 16, usize::MAX),
                |ctx| {
                    let chunk = 256 * 16;
                    let start = ctx.block_idx * chunk;
                    let end = (start + chunk).min(n);
                    let mut acc = 0u32;
                    for i in start..end {
                        acc = acc.wrapping_add(ctx.ld(&buf, i).to_bits());
                    }
                    ctx.atomic_add(&out, 0, acc);
                },
            );
            black_box(out.get(0))
        });
    });
    // The same sum over one coalesced tile per block: metering and the
    // bounds check are paid per block, not per element.
    group.bench_function("ld_tile_sum_1M", |b| {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let buf = gpu.htod("in", &data);
        let out = gpu.alloc::<u32>("out", 1);
        b.iter(|| {
            gpu.launch(
                "sum",
                LaunchConfig::for_elements(n, 256, 16, usize::MAX),
                |ctx| {
                    let chunk = 256 * 16;
                    let start = ctx.block_idx * chunk;
                    let tile = ctx.ld_tile(&buf, start, (start + chunk).min(n));
                    let acc = tile.iter().fold(0u32, |a, v| a.wrapping_add(v.to_bits()));
                    ctx.atomic_add(&out, 0, acc);
                },
            );
            black_box(out.get(0))
        });
    });
    group.finish();
}

fn bench_transfer(c: &mut Criterion) {
    let n = 1 << 16;
    let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let mut group = c.benchmark_group("sim_transfer");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(50);
    group.bench_function("htod_2^16", |b| {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        b.iter(|| {
            let buf = gpu.htod("in", &data);
            gpu.free(&buf);
            black_box(buf.len())
        });
    });
    group.finish();
}

fn bench_launch_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_launch");
    group.sample_size(20);
    group.bench_function("empty_kernel_128_blocks", |b| {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        b.iter(|| {
            gpu.launch("noop", LaunchConfig::grid_1d(128, 256), |ctx| {
                black_box(ctx.block_idx);
            });
            black_box(gpu.elapsed_us())
        });
    });
    // A small multi-block launch on a two-worker pool: the cost is the
    // pool's thread handoff, not the (empty) blocks.
    group.bench_function("empty_kernel_8_blocks", |b| {
        let mut gpu = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(2));
        b.iter(|| {
            gpu.launch("noop", LaunchConfig::grid_1d(8, 256), |ctx| {
                black_box(ctx.block_idx);
            });
            black_box(gpu.elapsed_us())
        });
    });
    group.finish();
}

fn bench_sketch(c: &mut Criterion) {
    let n = 1 << 20;
    let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.618).sin()).collect();
    let mut group = c.benchmark_group("tuner");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(20);
    group.bench_function("sketch_2^20", |b| {
        b.iter(|| black_box(DistSketch::from_sample(black_box(&data))))
    });
    group.finish();
}

fn bench_warp_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("warp_primitives");
    let preds: Lanes<bool> = std::array::from_fn(|i| i % 3 == 0);
    let vals: Lanes<u32> = std::array::from_fn(|i| i as u32);
    group.bench_function("ballot", |b| {
        b.iter(|| black_box(ballot(black_box(&preds))))
    });
    group.bench_function("exclusive_scan", |b| {
        b.iter(|| black_box(exclusive_scan(black_box(&vals))))
    });
    group.finish();
}

fn bench_bitonic(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitonic_networks");
    group.sample_size(20);
    for size in [32usize, 256, 2048] {
        group.bench_with_input(BenchmarkId::new("sort", size), &size, |b, &size| {
            let keys: Vec<u32> = (0..size as u32).rev().collect();
            let payload: Vec<u32> = (0..size as u32).collect();
            b.iter(|| {
                let mut k = keys.clone();
                let mut p = payload.clone();
                black_box(bitonic_sort(&mut k, &mut p, true))
            });
        });
        group.bench_with_input(
            BenchmarkId::new("merge_into_topk", size),
            &size,
            |b, &size| {
                let lk: Vec<u32> = (0..size as u32).map(|x| x * 2).collect();
                let lp: Vec<u32> = (0..size as u32).collect();
                let qk: Vec<u32> = (0..32u32).map(|x| x * 3).collect();
                let qp: Vec<u32> = (0..32u32).collect();
                b.iter(|| {
                    let mut lk = lk.clone();
                    let mut lp = lp.clone();
                    black_box(merge_into_topk(&mut lk, &mut lp, &qk, &qp))
                });
            },
        );
    }
    // GridSelect's warp-queue sort: distinct keys go straight to their
    // ranks, tied keys (8 levels, or all equal) run the network. One
    // sort is well under a microsecond, so take more samples.
    group.sample_size(2000);
    let cases: [(&str, [u32; 32]); 3] = [
        (
            "32_distinct",
            std::array::from_fn(|i| (i as u32 * 7 + 3) % 32),
        ),
        (
            "32_ties",
            std::array::from_fn(|i| (i as u32).wrapping_mul(2_654_435_761) >> 29),
        ),
        ("32_equal", [5; 32]),
    ];
    for (case, keys) in cases {
        group.bench_with_input(BenchmarkId::new("sort_queue", case), &keys, |b, keys| {
            b.iter(|| {
                let (mut k, mut p) = (*keys, std::array::from_fn::<u32, 32, _>(|i| i as u32));
                black_box(sort_queue(black_box(&mut k), &mut p))
            });
        });
    }
    group.finish();
}

/// AIR at b = 11 on one uniform 2^23 row, K = 2048: the pass machine
/// on a filled grid (108 blocks of 512 threads on the A100 model, each
/// sweeping nine or ten 8,192-element chunks and flushing one histogram
/// a round). Host time per selection.
fn bench_radix(c: &mut Criterion) {
    let n = 1 << 23;
    let data = datagen::generate(datagen::Distribution::Uniform, n, 42);
    let mut group = c.benchmark_group("radix_pass_machine");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    group.bench_function("air_b11_2^23_k2048", |b| {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.htod("in", &data);
        let air = AirTopK::default();
        b.iter(|| {
            gpu.reset_profile();
            let out = air.select(&mut gpu, &input, 2048);
            gpu.free(&out.values);
            gpu.free(&out.indices);
            black_box(gpu.elapsed_us())
        });
    });
    group.finish();
}

/// GridSelect on one uniform 2^22 row at K = 32 and K = 256, on a
/// one-worker device: host time per selection, most of it the main
/// kernel's lane loop (and, at K = 256, the list merges).
fn bench_gridselect(c: &mut Criterion) {
    let n = 1 << 22;
    let data = datagen::generate(datagen::Distribution::Uniform, n, 42);
    let mut group = c.benchmark_group("gridselect_lane_loop");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    for k in [32usize, 256] {
        group.bench_function(format!("2^22_k{k}"), |b| {
            let mut gpu = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(1));
            let input = gpu.htod("in", &data);
            let grid = GridSelect::default();
            b.iter(|| {
                gpu.reset_profile();
                let out = grid.select(&mut gpu, &input, k);
                gpu.free(&out.values);
                gpu.free(&out.indices);
                black_box(gpu.elapsed_us())
            });
        });
    }
    group.finish();
}

/// One 2^20-element sweep (a sum of the bits) through each simulator
/// layer in turn: a bare loop over the host slice; one block reading it
/// as one `ld_tile`; the same with the sanitizer armed; and eight blocks
/// reading a 2^17-element tile each, on a one-worker and on a
/// two-worker block pool. The differences name the layer's cost.
fn bench_sim_layers(c: &mut Criterion) {
    let n = 1 << 20;
    let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let mut group = c.benchmark_group("sim_layers");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    group.bench_function("bare_loop_2^20", |b| {
        b.iter(|| {
            black_box(&data)
                .iter()
                .fold(0u32, |a, v| a.wrapping_add(v.to_bits()))
        })
    });
    let cases: [(&str, usize, usize, bool); 4] = [
        ("ld_tile_2^20", 1, 1, false),
        ("ld_tile_armed_2^20", 1, 1, true),
        ("ld_tile_8_blocks_1_worker_2^20", 8, 1, false),
        ("ld_tile_8_blocks_2_workers_2^20", 8, 2, false),
    ];
    for (id, blocks, workers, armed) in cases {
        group.bench_function(id, |b| {
            let mut gpu = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(workers));
            if armed {
                gpu.enable_sanitizer(SanitizerMode {
                    armed: true,
                    leakcheck: false,
                });
            }
            let buf = gpu.htod("in", &data);
            let out = gpu.alloc::<u32>("out", 1);
            let chunk = n / blocks;
            b.iter(|| {
                gpu.launch("sweep", LaunchConfig::grid_1d(blocks, 256), |ctx| {
                    let start = ctx.block_idx * chunk;
                    let tile = ctx.ld_tile(&buf, start, start + chunk);
                    let acc = tile.iter().fold(0u32, |a, v| a.wrapping_add(v.to_bits()));
                    ctx.atomic_add(&out, 0, acc);
                });
                black_box(out.get(0))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_metered_stream,
    bench_transfer,
    bench_launch_overhead,
    bench_sketch,
    bench_warp_primitives,
    bench_bitonic,
    bench_radix,
    bench_gridselect,
    bench_sim_layers
);
criterion_main!(benches);
