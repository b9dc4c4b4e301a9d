//! `topk-bench verify` and `topk-bench sanitize`: the two correctness
//! gates, as two grids of one sweep.
//!
//! The paper's §5.1 verifies every algorithm before it measures any.
//! Each cell of the sweep runs one algorithm configuration on a fresh
//! device with the gpu-sim sanitizer armed (racecheck, initcheck,
//! memcheck, contract findings and conformance, synccheck) and checks
//! every exact answer with [`verify_topk`]. A racy kernel can still
//! return the right answer on the simulator's schedule, and a clean
//! execution can still compute a wrong one, so every cell checks both.
//! The approximate rungs run sanitized on the sanitize grids; their
//! recall is checked by `tests/recall.rs` and the
//! `engine --recall-target` floor.
//!
//! Both gates run one roster (`gate_algorithms`) over a
//! [`GateMatrix`]:
//!
//! * `verify` — ten awkward `(N, K)` shapes (four with `--quick`) ×
//!   the three benchmark distributions, batch 1, exact algorithms
//!   only.
//! * `sanitize --matrix full` — uniform inputs, N ∈ {2^16, 2^20} ×
//!   K ∈ {32, 1024} × batch ∈ {1, 32}, plus GridSelect at N = 2^22,
//!   K = 32, batch 1 (the only cell where its plan gives a problem
//!   more than 256 blocks), a three-seed chaos matrix over the serving
//!   engine and a sliding-window sweep over the [`WarpSelector`]
//!   device-function path.
//! * `sanitize --matrix smoke` — the same at N = 2^16 with
//!   batch ∈ {1, 8}, one chaos seed and one window; the CI-sized
//!   variant.

use std::fmt::Display;

use datagen::Distribution;
use gpu_sim::device::WARP_SIZE;
use gpu_sim::{DeviceSpec, Footprint, Gpu, KernelContract, LaunchConfig, SanitizerMode};
use topk_core::{
    verify_topk, AirConfig, AirTopK, RadiK, TopKAlgorithm, UnfusedRadix, WarpSelector,
};
use topk_hybrid::DrTopK;

use crate::serving::{self, EngineBenchOpts};

/// Every access analysis armed; leakcheck stays off, because the sweep
/// drops the outputs it owns without freeing them.
const ARMED: SanitizerMode = SanitizerMode {
    armed: true,
    leakcheck: false,
};

/// One sweep's grid.
#[derive(Debug, Clone)]
pub struct GateMatrix {
    /// `(N, K)` problem shapes. An algorithm skips a shape whose K
    /// exceeds N or its `max_k`.
    pub shapes: Vec<(usize, usize)>,
    /// Input distributions.
    pub dists: Vec<Distribution>,
    /// Batch sizes (1 = the single-query path).
    pub batches: Vec<usize>,
    /// Also run the approximate rungs. Their fixed configurations need
    /// N ≥ 4096 and K ≤ 2048, so only the sanitize grids take them.
    pub approximate: bool,
    /// Extra uniform `(N, K, batch)` cells for GridSelect alone,
    /// beyond the grid above.
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

impl GateMatrix {
    /// `sanitize --matrix full`: every algorithm over both problem
    /// sizes, both K extremes, both batch shapes, GridSelect on a grid
    /// that fills the device, a three-seed chaos matrix on the engine
    /// and two windows.
    pub fn full() -> Self {
        GateMatrix {
            shapes: vec![
                (1 << 16, 32),
                (1 << 16, 1024),
                (1 << 20, 32),
                (1 << 20, 1024),
            ],
            dists: vec![Distribution::Uniform],
            batches: vec![1, 32],
            approximate: true,
            grid_cells: vec![(1 << 22, 32, 1)],
            chaos_seeds: vec![11, 42, 1337],
            chaos_queries: 48,
            streaming_windows: vec![1 << 12, 1 << 16],
        }
    }

    /// `sanitize --matrix smoke`: one N, small batches, one chaos seed,
    /// one window.
    pub fn smoke() -> Self {
        GateMatrix {
            shapes: vec![(1 << 16, 32), (1 << 16, 1024)],
            batches: vec![1, 8],
            grid_cells: Vec::new(),
            chaos_seeds: vec![42],
            chaos_queries: 24,
            streaming_windows: vec![1 << 12],
            ..Self::full()
        }
    }

    /// `verify [--quick]`: awkward shapes (one element, K = N, K one
    /// below a power of two, N one above) over every benchmark
    /// distribution, batch 1, exact algorithms only, no engine or
    /// window pass.
    pub fn verify(quick: bool) -> Self {
        let shapes = if quick {
            vec![(1, 1), (1000, 7), (8192, 2048), (20_000, 19_999)]
        } else {
            vec![
                (1, 1),
                (2, 1),
                (33, 32),
                (1000, 7),
                (4097, 4096),
                (8192, 2048),
                (20_000, 1),
                (20_000, 19_999),
                (65_536, 65_536),
                (100_000, 256),
            ]
        };
        GateMatrix {
            shapes,
            dists: Distribution::benchmark_set().to_vec(),
            batches: vec![1],
            approximate: false,
            grid_cells: Vec::new(),
            chaos_seeds: Vec::new(),
            chaos_queries: 0,
            streaming_windows: Vec::new(),
        }
    }
}

/// Outcome of one sweep.
#[derive(Debug, Clone, Default)]
pub struct GateSummary {
    /// Algorithm configurations executed (skips excluded).
    pub configs: usize,
    /// Engine chaos drains executed.
    pub chaos_drains: usize,
    /// Sliding-window streaming runs executed.
    pub streaming_runs: usize,
    /// Total flagged accesses across every run (0 on a healthy build).
    pub findings: u64,
    /// Selection errors and answers the verifier rejected (0 on a
    /// healthy build).
    pub wrong_answers: u64,
    /// One line per deduplicated finding and per wrong answer,
    /// prefixed with the run that produced it.
    pub details: Vec<String>,
}

impl GateSummary {
    /// True when no run was flagged and every answer checked out.
    pub fn passed(&self) -> bool {
        self.findings == 0 && self.wrong_answers == 0
    }

    /// Fold one run into the summary and print its grid line `row`:
    /// its sanitizer occurrence total and rendered findings, and the
    /// answers it got `wrong`. The row prefixes the run's detail lines.
    fn fold(&mut self, row: String, (flagged, findings): (u64, Vec<String>), wrong: Vec<String>) {
        self.findings += flagged;
        self.wrong_answers += wrong.len() as u64;
        let result = match (flagged, wrong.len()) {
            (0, 0) => "ok".to_string(),
            (f, w) => format!("{f} flagged accesses, {w} wrong answers"),
        };
        println!("{row}  {result}");
        let lines = findings.into_iter().chain(wrong);
        self.details
            .extend(lines.map(|d| format!("{}: {d}", row.trim_end())));
    }
}

/// A sanitized device's occurrence total and rendered findings.
fn flagged(gpu: &Gpu) -> (u64, Vec<String>) {
    let report = gpu.sanitizer_report().expect("sanitizer was armed");
    let findings = report.findings.iter().map(|f| f.to_string()).collect();
    (report.counts.total(), findings)
}

/// One grid line's leading columns.
fn row(what: &str, dist: &str, n: impl Display, k: impl Display, batch: impl Display) -> String {
    format!("{what:<24} {dist:>14} {n:>9} {k:>6} {batch:>6}")
}

/// One roster entry: an algorithm configuration, the tag its lines
/// print, and whether its answers must be the exact top-K.
struct Gated {
    tag: String,
    alg: Box<dyn TopKAlgorithm>,
    exact: bool,
}

/// The algorithm set both gates cover: the eight baselines, the
/// paper's two new methods, the extension algorithms (UnfusedRadix,
/// the streaming adapter, the DrTopK hybrid, RadiK, RowWise), the
/// adaptive dispatcher itself, and the two approximate degradation
/// rungs (bucketed and two-stage) — everything a query can route
/// through.
///
/// The approximate selectors use fixed configurations feasible across
/// the sanitize grids: bucketed keeps 16 winners per bucket, two-stage
/// keeps 256 candidates in each of 8 partitions (covering K up to
/// 2048 without starving any partition down to N = 4096).
///
/// The radix family also runs at 8-bit digits, the width the tuner
/// serves (`air:8`, `radik:8`) and the §3.1 fusion cell compares.
/// Each entry's tag is the algorithm's name, plus its settings where
/// they are not the defaults.
fn gate_algorithms() -> Vec<Gated> {
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
    algs.push(("", Box::new(topk_core::SelectK::default())));
    let exact = algs.len();
    algs.push(("", Box::new(topk_core::BucketedTopK::default())));
    algs.push(("", Box::new(topk_core::TwoStageTopK::new(8, 256))));
    algs.into_iter()
        .enumerate()
        .map(|(i, (settings, alg))| Gated {
            tag: format!("{} {settings}", alg.name()).trim_end().to_string(),
            alg,
            exact: i < exact,
        })
        .collect()
}

/// Run one algorithm configuration on a fresh sanitized device, verify
/// its answers when they must be exact, and fold the run into the
/// summary.
fn check_cell(
    gated: &Gated,
    dist: Distribution,
    (n, k): (usize, usize),
    batch: usize,
    summary: &mut GateSummary,
) {
    let mut gpu = Gpu::new(DeviceSpec::a100());
    gpu.enable_sanitizer(ARMED);
    let rows: Vec<Vec<f32>> = (0..batch)
        .map(|b| datagen::generate(dist, n, (n + k + b) as u64))
        .collect();
    let result = if batch == 1 {
        let input = gpu.htod("in", &rows[0]);
        gated
            .alg
            .try_select(&mut gpu, &input, k)
            .map(|out| vec![out])
    } else {
        let inputs: Vec<_> = (rows.iter().enumerate())
            .map(|(b, row)| gpu.htod(&format!("in{b}"), row))
            .collect();
        gated.alg.try_select_batch(&mut gpu, &inputs, k)
    };
    let mut wrong = Vec::new();
    match result {
        Err(e) => wrong.push(format!("selection error: {e}")),
        Ok(outs) if gated.exact => {
            for (b, (row, out)) in rows.iter().zip(&outs).enumerate() {
                let got = verify_topk(row, k, &out.values.to_vec(), &out.indices.to_vec());
                wrong.extend(got.err().map(|e| format!("row {b}: {e}")));
            }
        }
        Ok(_) => {}
    }

    summary.configs += 1;
    let line = row(&gated.tag, &dist.name(), n, k, batch);
    summary.fold(line, flagged(&gpu), wrong);
}

/// Drain a faulted mixed workload through a sanitized engine: the
/// retry/failover/deadline machinery must stay clean too, because those
/// are exactly the paths that re-use devices after mid-flight aborts.
/// The drain is the `engine` sweep's ([`serving::drain`]) on a pool of
/// 2, window 8, fault rate 0.10 and a recall target of 0.95, so the
/// approximate degradation rungs are sanitized on the same chaotic
/// schedules that trigger them in production. Every exact answer that
/// lands is verified.
fn check_chaos_drain(seed: u64, queries: usize, summary: &mut GateSummary) {
    let opts = EngineBenchOpts {
        devices: 2,
        fault_seed: Some(seed),
        fault_rate: 0.10,
        recall_target: Some(0.95),
        ..EngineBenchOpts::default()
    };
    let workload = serving::mixed_workload(queries, false);
    let cfg = serving::engine_config(&opts, 8).with_sanitizer(ARMED);
    let (engine, report) = serving::drain(cfg, &workload);
    let findings = (engine.sanitizer_findings().into_iter().enumerate())
        .flat_map(|(dev, fs)| fs.into_iter().map(move |f| format!("device {dev}: {f}")))
        .collect();
    let wrong = serving::measured_recalls(&report, &workload).err();
    summary.chaos_drains += 1;
    let what = format!("engine-chaos seed={seed}");
    let line = row(&what, "uniform", queries, "mixed", opts.devices);
    let flagged = (report.sanitizer.total(), findings);
    summary.fold(line, flagged, wrong.into_iter().collect());
}

/// The §4 sliding-window streaming path: one warp per window drives
/// the [`WarpSelector`] device function over its slice of the stream
/// on-the-fly — values are consumed as produced, pruned against the
/// live admission threshold, never materialised per window. The
/// adapter in [`gate_algorithms`] cannot reach this fused-producer
/// usage, so it gets its own sanitized pass, answer-checked against a
/// host sort of each window.
fn check_streaming_window(window: usize, k: usize, summary: &mut GateSummary) {
    let hops = 3usize;
    let n = hops * window;
    let k = k.min(window);
    let mut gpu = Gpu::new(DeviceSpec::a100());
    gpu.enable_sanitizer(ARMED);
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

    let got = out_val.to_vec();
    let mut wrong = Vec::new();
    for h in 0..hops {
        let mut expect: Vec<f32> = data[h * window..(h + 1) * window].to_vec();
        expect.sort_by(f32::total_cmp);
        expect.truncate(k);
        if got[h * k..(h + 1) * k] != expect[..] {
            wrong.push(format!("window {h} top-{k} mismatch"));
        }
    }

    summary.streaming_runs += 1;
    let line = row("stream-window", "uniform", window, k, hops);
    summary.fold(line, flagged(&gpu), wrong);
}

/// Run `matrix` over the shared roster and print a grid line per run
/// plus every finding and wrong answer.
pub fn run(matrix: &GateMatrix) -> GateSummary {
    sweep(matrix, &gate_algorithms())
}

fn sweep(matrix: &GateMatrix, roster: &[Gated]) -> GateSummary {
    let mut summary = GateSummary::default();
    println!(
        "{}  result",
        row("algorithm", "distribution", "n", "k", "batch")
    );
    for gated in roster.iter().filter(|g| g.exact || matrix.approximate) {
        for &dist in &matrix.dists {
            for &(n, k) in &matrix.shapes {
                if k > n || gated.alg.max_k().is_some_and(|mk| k > mk) {
                    continue;
                }
                for &batch in &matrix.batches {
                    check_cell(gated, dist, (n, k), batch, &mut summary);
                }
            }
        }
    }
    let alg = Box::new(topk_core::GridSelect::default());
    let grid = Gated {
        tag: alg.name().into(),
        alg,
        exact: true,
    };
    for &(n, k, batch) in &matrix.grid_cells {
        check_cell(&grid, Distribution::Uniform, (n, k), batch, &mut summary);
    }
    for &seed in &matrix.chaos_seeds {
        check_chaos_drain(seed, matrix.chaos_queries, &mut summary);
    }
    for &window in &matrix.streaming_windows {
        check_streaming_window(window, 32, &mut summary);
    }

    let runs = format!(
        "{} configurations + {} chaos drains + {} streaming windows",
        summary.configs, summary.chaos_drains, summary.streaming_runs
    );
    if summary.passed() {
        println!("gate passed: {runs}, 0 findings, 0 wrong answers");
    } else {
        println!(
            "gate FAILED: {} flagged accesses and {} wrong answers over {runs}",
            summary.findings, summary.wrong_answers
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
    use gpu_sim::DeviceBuffer;
    use topk_core::{Category, TopKError, TopKOutput};

    #[test]
    fn tiny_matrix_is_clean() {
        // A scaled-down grid that still touches every algorithm's
        // single and batched paths; the full/smoke grids are the same
        // loop at larger N. Zero findings and zero wrong answers is
        // what the CI `sanitize` job enforces.
        let matrix = GateMatrix {
            shapes: vec![(4096, 32)],
            dists: vec![Distribution::Uniform],
            batches: vec![1, 2],
            approximate: true,
            grid_cells: vec![(1 << 14, 8, 1)],
            chaos_seeds: vec![7],
            chaos_queries: 8,
            streaming_windows: vec![256],
        };
        let summary = run(&matrix);
        assert!(summary.configs > 0);
        assert_eq!(summary.chaos_drains, 1);
        assert_eq!(summary.streaming_runs, 1);
        assert!(summary.passed(), "{}", summary.details.join("\n"));
    }

    /// Returns the first K inputs as its answer, whatever they are.
    struct FirstK;

    impl TopKAlgorithm for FirstK {
        fn name(&self) -> &'static str {
            "FirstK"
        }

        fn category(&self) -> Category {
            Category::PartitionBased
        }

        fn try_select(
            &self,
            gpu: &mut Gpu,
            input: &DeviceBuffer<f32>,
            k: usize,
        ) -> Result<TopKOutput, TopKError> {
            let values = gpu.htod("first_val", &input.to_vec()[..k]);
            let indices = gpu.htod("first_idx", &(0..k as u32).collect::<Vec<_>>());
            Ok(TopKOutput::new(values, indices))
        }
    }

    #[test]
    fn a_wrong_answer_fails_the_gate() {
        let roster = [Gated {
            tag: "FirstK".into(),
            alg: Box::new(FirstK),
            exact: true,
        }];
        let matrix = GateMatrix {
            shapes: vec![(4096, 32)],
            ..GateMatrix::verify(true)
        };
        let summary = sweep(&matrix, &roster);
        assert_eq!(summary.findings, 0, "{:?}", summary.details);
        assert_eq!(summary.configs, 3, "one cell per distribution");
        assert_eq!(summary.wrong_answers, 3);
        assert!(!summary.passed());
        let first = summary.details[0].split_whitespace().collect::<Vec<_>>();
        assert_eq!(first[..6], ["FirstK", "uniform", "4096", "32", "1:", "row"]);
    }

    #[test]
    fn matrices_have_expected_shapes() {
        let full = GateMatrix::full();
        assert_eq!(full.shapes.len(), 4);
        assert_eq!(full.batches, vec![1, 32]);
        assert_eq!(full.grid_cells, vec![(1 << 22, 32, 1)]);
        assert_eq!(full.chaos_seeds.len(), 3);
        assert_eq!(full.streaming_windows, vec![1 << 12, 1 << 16]);
        let smoke = GateMatrix::smoke();
        assert_eq!(smoke.shapes, vec![(1 << 16, 32), (1 << 16, 1024)]);
        assert_eq!(smoke.batches, vec![1, 8]);
        assert_eq!(smoke.streaming_windows, vec![1 << 12]);
        let verify = GateMatrix::verify(false);
        assert_eq!((verify.shapes.len(), verify.dists.len()), (10, 3));
        assert_eq!(GateMatrix::verify(true).shapes.len(), 4);
        assert!(verify.chaos_seeds.is_empty() && verify.streaming_windows.is_empty());
        assert!(full.approximate && smoke.approximate && !verify.approximate);
    }
}
