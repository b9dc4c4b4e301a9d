//! Measurements only the traced run takes: simulator probes, planner
//! timing on a separate tuner, and the paper's layer-level cells.

use crate::report::Metrics;
use crate::stats::{median, ratio};
use crate::{input_seed, Scale};
use datagen::Distribution;
use gpu_sim::{roofline, BlockPool, DeviceSpec, EventKind, Gpu, KernelContract, LaunchConfig};
use std::time::Instant;
use topk_baselines::RadixSelect;
use topk_core::tuner::{ProblemShape, Tuner};
use topk_core::{AirConfig, AirTopK, TopKAlgorithm, UnfusedRadix};

/// Loads of the streaming-read probe kernel.
const PROBE_LOADS: usize = 1 << 22;

fn device(threads: usize) -> Gpu {
    Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(threads))
}

/// Host ns per simulated load: a fixed streaming-read kernel of 2^22
/// loads through `Gpu::launch`, median of five runs.
pub fn probe_ld_ns(threads: usize) -> f64 {
    let mut gpu = device(threads);
    let buf = gpu.htod("probe_in", &vec![1u32; PROBE_LOADS]);
    let sink = gpu.alloc::<u32>("probe_sink", 1);
    let cfg = LaunchConfig::grid_1d(1024, 256);
    let per_block = PROBE_LOADS / cfg.grid_dim;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            gpu.launch("probe_stream_read", cfg, |ctx| {
                let start = ctx.block_idx * per_block;
                let mut acc = 0u32;
                for i in start..start + per_block {
                    acc = acc.wrapping_add(ctx.ld(&buf, i));
                }
                ctx.atomic_add(&sink, 0, acc);
            });
            let ns = t.elapsed().as_nanos() as f64 / PROBE_LOADS as f64;
            gpu.reset_profile();
            ns
        })
        .collect();
    median(&samples)
}

/// Host µs per empty one-block `launch_checked`, median of 20 rounds
/// of 100 launches.
pub fn probe_launch_us(threads: usize) -> f64 {
    let mut gpu = device(threads);
    let contract = KernelContract::new("probe_empty");
    let cfg = LaunchConfig::grid_1d(1, 32);
    let samples: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..100 {
                gpu.launch_checked(&contract, cfg, |_| {});
            }
            let us = t.elapsed().as_secs_f64() * 1e6 / 100.0;
            gpu.reset_profile();
            us
        })
        .collect();
    median(&samples)
}

/// Host µs to plan each shape on a fresh tuner (cold: the planner
/// prices every candidate) and again on the same tuner (warm: a table
/// hit); medians over 20 rounds.
pub fn plan_us(shapes: &[ProblemShape]) -> (f64, f64) {
    let spec = DeviceSpec::a100();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..20 {
        for shape in shapes {
            let tuner = Tuner::new();
            let t = Instant::now();
            std::hint::black_box(tuner.plan(&spec, shape));
            cold.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            std::hint::black_box(tuner.plan(&spec, shape));
            warm.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    (median(&cold), median(&warm))
}

/// Run one selection on a fresh device; the device's profile then
/// holds the selection alone.
fn profiled(alg: &dyn TopKAlgorithm, data: &[f32], k: usize, threads: usize) -> Gpu {
    let mut gpu = device(threads);
    let input = gpu.htod("in", data);
    gpu.reset_profile();
    let out = alg
        .try_select(&mut gpu, &input, k)
        .unwrap_or_else(|e| panic!("{} on a paper cell: {e}", alg.name()));
    gpu.free(&out.values);
    gpu.free(&out.indices);
    gpu
}

/// Device-memory bytes loaded by a set of launches.
fn load_bytes(gpu: &Gpu) -> f64 {
    gpu.reports()
        .iter()
        .map(|r| r.stats.bytes_read)
        .sum::<u64>() as f64
}

/// The paper's layer-level claims as deterministic cells:
/// * Fig. 8 (N = 2^23, K = 2048, uniform): launches, PCIe round trips
///   and simulated µs of AIR and RadixSelect.
/// * §3.1's load cut from iteration fusion, on its worst case: N = 2^23
///   radix-adversarial keys sharing 24 leading bits, so none of the
///   first three 8-bit passes eliminates a candidate. AIR and the
///   unfused device loop both run 8-bit digits; the cell is AIR's load
///   bytes per element (the paper's 5N) and its load bytes over the
///   unfused loop's on the same input.
/// * Table 3 (N = 2^24, K = 2048, uniform): memory SOL of AIR's fused
///   kernel.
pub fn paper_cells(seed: u64, scale: Scale, threads: usize) -> Metrics {
    let k = 2048;
    let mut m = Metrics::default();
    let data = datagen::generate(
        Distribution::Uniform,
        scale.elems(1 << 23),
        input_seed(seed, 8),
    );
    let air = profiled(&AirTopK::default(), &data, k, threads);
    let radix = profiled(&RadixSelect, &data, k, threads);
    for (name, gpu) in [("air", &air), ("radixselect", &radix)] {
        let events = gpu.timeline().events();
        let round_trips = events
            .iter()
            .filter(|e| e.kind == EventKind::MemcpyDtoH)
            .count();
        m.push(
            format!("paper.fig8.{name}.launches"),
            gpu.timeline().kernel_count() as f64,
            "launch",
        );
        m.push(
            format!("paper.fig8.{name}.pcie_round_trips"),
            round_trips as f64,
            "count",
        );
        m.push(
            format!("paper.fig8.{name}.sim_us"),
            gpu.elapsed_us(),
            "sim_us",
        );
    }
    drop((air, radix, data));

    let n = scale.elems(1 << 23);
    let skewed = datagen::generate(
        Distribution::RadixAdversarial { m_bits: 24 },
        n,
        input_seed(seed, 31),
    );
    let fused = AirTopK::new(AirConfig {
        bits_per_pass: 8,
        ..AirConfig::default()
    });
    let air = profiled(&fused, &skewed, k, threads);
    let unfused = profiled(&UnfusedRadix { bits_per_pass: 8 }, &skewed, k, threads);
    m.push(
        "paper.s3_1.air_loads_per_elem",
        load_bytes(&air) / (4 * n) as f64,
        "load/elem",
    );
    m.push(
        "paper.s3_1.air_over_unfused_bytes",
        ratio(load_bytes(&air), load_bytes(&unfused)),
        "ratio",
    );
    drop((air, unfused, skewed));

    let data = datagen::generate(
        Distribution::Uniform,
        scale.elems(1 << 24),
        input_seed(seed, 24),
    );
    let gpu = profiled(&AirTopK::default(), &data, k, threads);
    let sol = roofline(gpu.spec(), gpu.reports())
        .into_iter()
        .find(|r| r.kernel == "iteration_fused_kernel")
        .map_or(0.0, |r| r.peak_bw_frac);
    m.push("paper.table3.fused_kernel.memory_sol", sol, "ratio");
    m
}
