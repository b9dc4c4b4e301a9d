//! `topk-bench sanitize` — the correctness gate that runs every
//! algorithm under the gpu-sim sanitizer (racecheck + initcheck +
//! memcheck + contract conformance) and fails on any finding.
//!
//! The §5.1 `verify` gate proves the *answers* are right; this gate
//! proves the *executions* are clean: no cross-block data races, no
//! reads of never-written device words, no out-of-bounds or
//! use-after-free accesses. Both can disagree — a racy kernel can
//! still produce correct output on the simulator's schedule — which is
//! exactly why real GPU projects run compute-sanitizer in CI next to
//! their unit tests. With contracts armed, every launch is also checked
//! statically against its declared [`gpu_sim::KernelContract`] and
//! dynamically for conformance (observed accesses ⊆ declared
//! footprints), so the contract annotations cannot rot.
//!
//! Two matrices:
//!
//! * `full` — every algorithm (the eight baselines, AIR Top-K,
//!   GridSelect, UnfusedRadix, StreamingSelect, the DrTopK hybrid,
//!   RadiK, RowWise, the approximate BucketedTopK and TwoStageTopK
//!   rungs, and the SelectK dispatcher) × N ∈ {2^16, 2^20} ×
//!   K ∈ {32, 1024} × batch ∈ {1, 32}, plus GridSelect at N = 2^22,
//!   K = 32, batch 1 (the only cell where its plan gives a problem
//!   more than 256 blocks), a chaos seed-matrix over the serving engine
//!   and a sliding-window sweep over the [`WarpSelector`]
//!   device-function path.
//! * `smoke` — the same sweep at N = 2^16 with batch ∈ {1, 8}, a
//!   single chaos seed and a single window; the CI-sized variant.

use datagen::Distribution;
use gpu_sim::device::WARP_SIZE;
use gpu_sim::{DeviceSpec, Footprint, Gpu, KernelContract, LaunchConfig, SanitizerMode};
use topk_core::{AirConfig, AirTopK, RadiK, TopKAlgorithm, UnfusedRadix, WarpSelector};
use topk_engine::{EngineConfig, FaultPlan, TopKEngine};
use topk_hybrid::DrTopK;

/// One sweep's shape grid.
#[derive(Debug, Clone)]
pub struct SanitizeMatrix {
    /// Problem sizes.
    pub ns: Vec<usize>,
    /// Results per problem.
    pub ks: Vec<usize>,
    /// Batch sizes (1 = the single-query path).
    pub batches: Vec<usize>,
    /// Extra `(n, k, batch)` cells for GridSelect alone, beyond the
    /// grid above.
    pub grid_cells: Vec<(usize, usize, usize)>,
    /// Seeds for the engine chaos pass (empty = skip the engine pass).
    pub chaos_seeds: Vec<u64>,
    /// Queries per chaos drain.
    pub chaos_queries: usize,
    /// Window sizes for the sliding-window streaming pass: the
    /// [`WarpSelector`] driven as a device function over consecutive
    /// windows of a stream (empty = skip the pass).
    pub streaming_windows: Vec<usize>,
}

impl SanitizeMatrix {
    /// The acceptance-gate grid: every algorithm over both problem
    /// sizes, both K extremes, both batch shapes, GridSelect on a grid
    /// that fills the device, plus a three-seed chaos matrix on the
    /// engine.
    pub fn full() -> Self {
        SanitizeMatrix {
            ns: vec![1 << 16, 1 << 20],
            ks: vec![32, 1024],
            batches: vec![1, 32],
            grid_cells: vec![(1 << 22, 32, 1)],
            chaos_seeds: vec![11, 42, 1337],
            chaos_queries: 48,
            streaming_windows: vec![1 << 12, 1 << 16],
        }
    }

    /// CI-sized grid: one N, small batches, one chaos seed, one window.
    pub fn smoke() -> Self {
        SanitizeMatrix {
            ns: vec![1 << 16],
            ks: vec![32, 1024],
            batches: vec![1, 8],
            grid_cells: Vec::new(),
            chaos_seeds: vec![42],
            chaos_queries: 24,
            streaming_windows: vec![1 << 12],
        }
    }
}

/// Outcome of one sweep.
#[derive(Debug, Clone, Default)]
pub struct SanitizeSummary {
    /// Algorithm configurations executed (skips excluded).
    pub configs: usize,
    /// Engine chaos drains executed.
    pub chaos_drains: usize,
    /// Sliding-window streaming runs executed.
    pub streaming_runs: usize,
    /// Total flagged accesses across every run (0 on a healthy build).
    pub findings: u64,
    /// Rendered findings, one line per deduplicated finding, prefixed
    /// with the configuration that produced it.
    pub details: Vec<String>,
}

/// The algorithm set the gate covers: the eight baselines, the paper's
/// two new methods, the extension algorithms (UnfusedRadix, the
/// streaming adapter, the DrTopK hybrid, RadiK, RowWise), the two
/// approximate degradation rungs (bucketed and two-stage), and the
/// adaptive dispatcher itself — everything a query can route through.
///
/// The approximate selectors use fixed configurations feasible across
/// the whole matrix: bucketed keeps 16 winners per bucket, two-stage
/// keeps 256 candidates in each of 8 partitions (covering K up to
/// 2048 without starving any partition down to N = 4096).
///
/// The radix family also runs at 8-bit digits, the width the tuner
/// serves (`air:8`, `radik:8`) and the §3.1 fusion cell compares.
/// Each entry carries the tag its findings print: the algorithm's name,
/// plus its settings where they are not the defaults.
fn gate_algorithms() -> Vec<(String, Box<dyn TopKAlgorithm>)> {
    let b8 = AirConfig {
        bits_per_pass: 8,
        ..AirConfig::default()
    };
    let mut algs: Vec<(&str, Box<dyn TopKAlgorithm>)> = topk_baselines::all_baselines()
        .into_iter()
        .map(|alg| ("", alg))
        .collect();
    algs.push(("", Box::new(AirTopK::default())));
    algs.push(("b=8", Box::new(AirTopK::new(b8.clone()))));
    algs.push(("", Box::new(topk_core::GridSelect::default())));
    algs.push(("", Box::new(UnfusedRadix::default())));
    algs.push(("b=8", Box::new(UnfusedRadix { bits_per_pass: 8 })));
    algs.push(("", Box::new(topk_core::StreamingSelect::default())));
    algs.push(("", Box::new(DrTopK::new(AirTopK::default()))));
    algs.push(("", Box::new(RadiK::default())));
    algs.push(("b=8", Box::new(RadiK::new(b8))));
    algs.push(("", Box::new(topk_core::RowWiseTopK)));
    algs.push(("", Box::new(topk_core::BucketedTopK::default())));
    algs.push(("", Box::new(topk_core::TwoStageTopK::new(8, 256))));
    algs.push(("", Box::new(topk_core::SelectK::default())));
    algs.into_iter()
        .map(|(settings, alg)| {
            let tag = format!("{} {settings}", alg.name());
            (tag.trim_end().to_string(), alg)
        })
        .collect()
}

/// Run one algorithm configuration under the full sanitizer and fold
/// its findings, tagged with `name`, into the summary.
fn sanitize_config(
    name: &str,
    alg: &dyn TopKAlgorithm,
    n: usize,
    k: usize,
    batch: usize,
    summary: &mut SanitizeSummary,
) {
    let mut gpu = Gpu::new(DeviceSpec::a100());
    gpu.enable_sanitizer(SanitizerMode::full().with_contracts());

    let tag = format!("{name} N={n} K={k} batch={batch}");
    let result = if batch == 1 {
        let data = datagen::generate(Distribution::Uniform, n, (n + k) as u64);
        let input = gpu.htod("in", &data);
        alg.try_select(&mut gpu, &input, k).map(|_| ())
    } else {
        let inputs: Vec<_> = (0..batch)
            .map(|b| {
                let data = datagen::generate(Distribution::Uniform, n, (n + k + b) as u64);
                gpu.htod(&format!("in{b}"), &data)
            })
            .collect();
        alg.try_select_batch(&mut gpu, &inputs, k).map(|_| ())
    };
    if let Err(e) = result {
        // A selection error here is a bug in its own right; surface it
        // through the same failure channel as a finding.
        summary.findings += 1;
        summary.details.push(format!("{tag}: selection error: {e}"));
    }

    let report = gpu.sanitizer_report().expect("sanitizer was armed");
    summary.configs += 1;
    summary.findings += report.counts.total();
    for f in &report.findings {
        summary.details.push(format!("{tag}: {f}"));
    }
    println!(
        "{:<16} {:>9} {:>6} {:>6}  {}",
        name,
        n,
        k,
        batch,
        if report.is_clean() {
            "clean".to_string()
        } else {
            format!("{} flagged accesses", report.counts.total())
        }
    );
}

/// Drain a faulted mixed workload through a sanitized engine: the
/// retry/failover/deadline machinery must stay clean too, because those
/// are exactly the paths that re-use devices after mid-flight aborts.
/// The drain runs with a sub-unit recall target so the approximate
/// degradation rungs are sanitized on the same chaotic schedules that
/// trigger them in production.
fn sanitize_chaos_drain(seed: u64, queries: usize, summary: &mut SanitizeSummary) {
    let workload = crate::serving::mixed_workload(queries, false);
    let cfg = EngineConfig::a100_pool(2)
        .with_window(8)
        .with_queue_capacity(workload.len().max(1))
        .with_faults(FaultPlan::chaos(seed, 0.10))
        .with_recall_target(0.95)
        .with_sanitizer(SanitizerMode::full().with_contracts());
    let mut engine = TopKEngine::new(cfg);
    for (data, k) in &workload {
        engine
            .submit(data.clone(), *k)
            .expect("queue sized to the workload");
    }
    let report = engine.drain();
    summary.chaos_drains += 1;
    summary.findings += report.sanitizer.total();
    for (dev, findings) in engine.sanitizer_findings().into_iter().enumerate() {
        for f in findings {
            summary
                .details
                .push(format!("engine chaos seed={seed} device {dev}: {f}"));
        }
    }
    println!(
        "{:<16} {:>9} {:>6} {:>6}  {}",
        "engine-chaos",
        queries,
        seed,
        2,
        if report.sanitizer.total() == 0 {
            "clean".to_string()
        } else {
            format!("{} flagged accesses", report.sanitizer.total())
        }
    );
}

/// The §4 sliding-window streaming path: one warp per window drives
/// the [`WarpSelector`] device function over its slice of the stream
/// on-the-fly — values are consumed as produced, pruned against the
/// live admission threshold, never materialised per window. The
/// adapter in [`gate_algorithms`] cannot reach this fused-producer
/// usage, so it gets its own sanitized pass, answer-checked against a
/// host sort of each window.
fn sanitize_streaming_window(window: usize, k: usize, summary: &mut SanitizeSummary) {
    let hops = 3usize;
    let n = hops * window;
    let k = k.min(window);
    let mut gpu = Gpu::new(DeviceSpec::a100());
    gpu.enable_sanitizer(SanitizerMode::full().with_contracts());
    let data = datagen::generate(Distribution::Uniform, n, window as u64);
    let input = gpu.htod("stream", &data);
    let out_val = gpu.alloc::<f32>("win_val", hops * k);
    let out_idx = gpu.alloc::<u32>("win_idx", hops * k);
    let (ovc, oic) = (out_val.clone(), out_idx.clone());
    // One block per window: block b reads exactly its window of the
    // stream and writes exactly its K result slots. The selector keeps
    // its list (rounded up to a power of two) plus a 32-slot staging
    // queue in shared memory, 8 bytes per entry.
    let contract = KernelContract::new("stream_window")
        .reads(&input, Footprint::per_block(window))
        .writes(&out_val, Footprint::per_block(k))
        .writes(&out_idx, Footprint::per_block(k))
        .uses_shared_mem((k.next_power_of_two() + WARP_SIZE) * 8);
    gpu.launch_checked(
        &contract,
        LaunchConfig::grid_1d(hops, WARP_SIZE),
        move |ctx| {
            let start = ctx.block_idx * window;
            let end = start + window;
            let mut sel = WarpSelector::new(ctx, k);
            let mut g = start;
            while g < end {
                let mut vals = [0.0f32; WARP_SIZE];
                let mut pays = [0u32; WARP_SIZE];
                let mut valid = [false; WARP_SIZE];
                for lane in 0..WARP_SIZE {
                    let i = g + lane;
                    if i < end {
                        let v = ctx.ld(&input, i);
                        // Prune against the live threshold (values ≥
                        // the Kth smallest seen cannot enter); the
                        // comparison is written so the NaN/+∞-like
                        // initial threshold never prunes.
                        let thr = sel.threshold();
                        if !matches!(
                            v.partial_cmp(&thr),
                            Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
                        ) {
                            vals[lane] = v;
                            pays[lane] = i as u32;
                            valid[lane] = true;
                        }
                    }
                }
                sel.push(ctx, &vals, &pays, &valid);
                g += WARP_SIZE;
            }
            let (v, p) = sel.finish(ctx);
            let base = ctx.block_idx * k;
            for (i, (vv, pp)) in v.iter().zip(&p).enumerate() {
                ctx.st(&ovc, base + i, *vv);
                ctx.st(&oic, base + i, *pp);
            }
        },
    );

    let tag = format!("stream-window W={window} K={k}");
    let got = out_val.to_vec();
    for h in 0..hops {
        let mut expect: Vec<f32> = data[h * window..(h + 1) * window].to_vec();
        expect.sort_by(f32::total_cmp);
        expect.truncate(k);
        if got[h * k..(h + 1) * k] != expect[..] {
            summary.findings += 1;
            summary
                .details
                .push(format!("{tag}: window {h} top-{k} mismatch"));
        }
    }

    let report = gpu.sanitizer_report().expect("sanitizer was armed");
    summary.streaming_runs += 1;
    summary.findings += report.counts.total();
    for f in &report.findings {
        summary.details.push(format!("{tag}: {f}"));
    }
    println!(
        "{:<16} {:>9} {:>6} {:>6}  {}",
        "stream-window",
        window,
        k,
        hops,
        if report.is_clean() {
            "clean".to_string()
        } else {
            format!("{} flagged accesses", report.counts.total())
        }
    );
}

/// Run the sweep and print a per-configuration grid plus every finding.
pub fn run(matrix: &SanitizeMatrix) -> SanitizeSummary {
    let mut summary = SanitizeSummary::default();
    println!(
        "{:<16} {:>9} {:>6} {:>6}  result",
        "algorithm", "n", "k", "batch"
    );
    for (name, alg) in gate_algorithms() {
        for &n in &matrix.ns {
            for &k in &matrix.ks {
                if k > n || alg.max_k().is_some_and(|mk| k > mk) {
                    continue;
                }
                for &batch in &matrix.batches {
                    sanitize_config(&name, alg.as_ref(), n, k, batch, &mut summary);
                }
            }
        }
    }
    let grid = topk_core::GridSelect::default();
    for &(n, k, batch) in &matrix.grid_cells {
        sanitize_config(grid.name(), &grid, n, k, batch, &mut summary);
    }
    for &seed in &matrix.chaos_seeds {
        sanitize_chaos_drain(seed, matrix.chaos_queries, &mut summary);
    }
    for &window in &matrix.streaming_windows {
        sanitize_streaming_window(window, 32, &mut summary);
    }

    if summary.findings == 0 {
        println!(
            "sanitizer clean: {} configurations + {} chaos drains + {} streaming windows, 0 findings",
            summary.configs, summary.chaos_drains, summary.streaming_runs
        );
    } else {
        println!(
            "sanitizer FAILED: {} flagged accesses over {} configurations + {} chaos drains + {} streaming windows",
            summary.findings, summary.configs, summary.chaos_drains, summary.streaming_runs
        );
        for d in &summary.details {
            println!("  {d}");
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_matrix_is_clean() {
        // A scaled-down grid that still touches every algorithm's
        // single and batched paths; the full/smoke grids are the same
        // loop at larger N. Zero findings is the contract the CI
        // `sanitize` job enforces.
        let matrix = SanitizeMatrix {
            ns: vec![4096],
            ks: vec![32],
            batches: vec![1, 2],
            grid_cells: vec![(1 << 14, 8, 1)],
            chaos_seeds: vec![7],
            chaos_queries: 8,
            streaming_windows: vec![256],
        };
        let summary = run(&matrix);
        assert!(summary.configs > 0);
        assert_eq!(summary.chaos_drains, 1);
        assert_eq!(summary.streaming_runs, 1);
        assert_eq!(
            summary.findings,
            0,
            "sanitizer findings:\n{}",
            summary.details.join("\n")
        );
    }

    #[test]
    fn matrices_have_expected_shapes() {
        let full = SanitizeMatrix::full();
        assert_eq!(full.ns, vec![1 << 16, 1 << 20]);
        assert_eq!(full.ks, vec![32, 1024]);
        assert_eq!(full.batches, vec![1, 32]);
        assert_eq!(full.grid_cells, vec![(1 << 22, 32, 1)]);
        assert_eq!(full.chaos_seeds.len(), 3);
        assert_eq!(full.streaming_windows, vec![1 << 12, 1 << 16]);
        let smoke = SanitizeMatrix::smoke();
        assert_eq!(smoke.ns, vec![1 << 16]);
        assert_eq!(smoke.batches, vec![1, 8]);
        assert_eq!(smoke.streaming_windows, vec![1 << 12]);
    }
}
