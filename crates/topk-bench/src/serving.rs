//! Serving-shaped benchmark: [`TopKEngine`] throughput versus the
//! batch-coalescing window.
//!
//! The paper's figures measure one algorithm on one device solving one
//! problem (or one pre-formed batch). A serving system sees the dual
//! problem: a stream of mixed-shape queries and a pool of devices, and
//! its throughput depends on how aggressively same-shape queries are
//! fused into the paper's batch-100-style launches (§5.1). This module
//! drains the same mixed workload through the engine at several
//! coalescing windows and reports simulated queries/sec.

use crate::report::Row;
use topk_core::{measured_recall, verify_topk};
use topk_engine::{DrainReport, EngineConfig, FaultPlan, TopKEngine};

/// Options for the engine throughput sweep.
#[derive(Debug, Clone)]
pub struct EngineBenchOpts {
    /// Queries in the drained workload.
    pub queries: usize,
    /// Devices in the pool.
    pub devices: usize,
    /// Coalescing windows to sweep.
    pub windows: Vec<usize>,
    /// Re-verify every query result against the host reference.
    pub verify: bool,
    /// Paper-scale problem sizes instead of the quick defaults.
    pub full: bool,
    /// Seed a chaos [`FaultPlan`] with this value (`--faults SEED`).
    pub fault_seed: Option<u64>,
    /// Per-operation fault probability for the chaos plan.
    pub fault_rate: f64,
    /// Per-query deadline applied to every submission, simulated µs.
    pub deadline_us: Option<u64>,
    /// Per-query recall target (`--recall-target T`): values below 1.0
    /// let the engine degrade exact → two-stage → bucketed under
    /// deadline risk or capacity loss. `None` keeps the exact-only
    /// default.
    pub recall_target: Option<f64>,
}

impl Default for EngineBenchOpts {
    fn default() -> Self {
        EngineBenchOpts {
            queries: 200,
            devices: 2,
            windows: vec![1, 8, 32],
            verify: false,
            full: false,
            fault_seed: None,
            fault_rate: 0.05,
            deadline_us: None,
            recall_target: None,
        }
    }
}

impl EngineBenchOpts {
    /// The widest coalescing window of the sweep: the drain whose
    /// coalescing shows most, behind the digest and every other
    /// serving artifact.
    pub fn widest_window(&self) -> usize {
        self.windows.iter().copied().max().unwrap_or(8)
    }
}

/// One measured point of the sweep: the drain at one window.
#[derive(Debug, Clone)]
pub struct EnginePoint {
    /// Coalescing window used.
    pub window: usize,
    /// Devices in the pool.
    pub devices: usize,
    /// The drain's report: throughput, latency percentiles, resilience
    /// and tuner counters, recall aggregates.
    pub report: DrainReport,
    /// Mean *measured* recall over successful queries, re-checked on
    /// the host — only computed under `--verify` (`None` otherwise).
    pub mean_measured_recall: Option<f64>,
}

/// The mixed query stream every sweep point drains: four interleaved
/// `(N, K)` shapes, so each window size sees the same coalescing
/// opportunities.
pub fn mixed_workload(queries: usize, full: bool) -> Vec<(Vec<f32>, usize)> {
    let shapes: [(usize, usize); 4] = if full {
        [(1 << 18, 32), (1 << 17, 100), (1 << 18, 1), (1 << 15, 512)]
    } else {
        [(1 << 14, 32), (1 << 13, 100), (1 << 14, 1), (4096, 512)]
    };
    (0..queries)
        .map(|q| {
            let (n, k) = shapes[q % shapes.len()];
            let data = datagen::generate(datagen::Distribution::Uniform, n, q as u64);
            (data, k)
        })
        .collect()
}

/// Drain `workload` through a fresh engine that `opts` describe — its
/// pool, fault plan, deadline and recall target — at coalescing window
/// `window`. Returns the drained engine, which still holds the drain's
/// metrics, profiles and post-mortems, and the drain's report.
pub fn drain(
    opts: &EngineBenchOpts,
    workload: &[(Vec<f32>, usize)],
    window: usize,
) -> (TopKEngine, DrainReport) {
    let mut cfg = EngineConfig::a100_pool(opts.devices)
        .with_window(window)
        .with_queue_capacity(workload.len().max(1));
    if let Some(seed) = opts.fault_seed {
        cfg = cfg.with_faults(FaultPlan::chaos(seed, opts.fault_rate));
    }
    if let Some(d) = opts.deadline_us {
        cfg = cfg.with_deadline_us(d);
    }
    if let Some(t) = opts.recall_target {
        cfg = cfg.with_recall_target(t);
    }
    let mut engine = TopKEngine::new(cfg);
    for (data, k) in workload {
        engine
            .submit(data.clone(), *k)
            .expect("queue sized to the workload");
    }
    let report = engine.drain();
    (engine, report)
}

/// Run the sweep: same workload, one drain per window.
pub fn engine_throughput(opts: &EngineBenchOpts) -> Vec<EnginePoint> {
    let workload = mixed_workload(opts.queries, opts.full);
    opts.windows
        .iter()
        .map(|&window| {
            let (_, report) = drain(opts, &workload, window);
            let mut measured: Vec<f64> = Vec::new();
            if opts.verify {
                for (r, (data, k)) in report.results.iter().zip(&workload) {
                    // Under injected faults or deadlines, errors are
                    // expected terminal outcomes; verify the answers
                    // that did land.
                    let strict = opts.fault_seed.is_none() && opts.deadline_us.is_none();
                    let approx = r.served.label().starts_with("approx");
                    match &r.outcome {
                        // Approximate rungs do not promise the exact
                        // multiset; re-check them as measured recall
                        // against the host reference instead.
                        Ok(out) if approx => measured.push(measured_recall(data, *k, &out.values)),
                        Ok(out) => {
                            verify_topk(data, *k, &out.values, &out.indices)
                                .unwrap_or_else(|e| panic!("query {}: {e}", r.id));
                            measured.push(1.0);
                        }
                        Err(e) if strict => panic!("query {}: {e}", r.id),
                        Err(_) => {}
                    }
                }
            }
            EnginePoint {
                window,
                devices: opts.devices,
                report,
                mean_measured_recall: (!measured.is_empty())
                    .then(|| measured.iter().sum::<f64>() / measured.len() as f64),
            }
        })
        .collect()
}

/// Text table of a sweep, for the CLI.
pub fn render(points: &[EnginePoint]) -> String {
    let mut out = String::from(
        "=== TopKEngine throughput vs coalescing window ===\n\
         window  devices  queries  fused  queries/sec  makespan_us  mean_lat_us  p50_lat_us  p99_lat_us  \
         retries  failovers  fallbacks  dl_miss  plan_hit  replan  refine  \
         2stage  bucket  rec_p50  rec_p99  rec_meas\n",
    );
    for p in points {
        let r = &p.report;
        out.push_str(&format!(
            "{:>6}  {:>7}  {:>7}  {:>5}  {:>11.0}  {:>11.1}  {:>11.1}  {:>10.1}  {:>10.1}  \
             {:>7}  {:>9}  {:>9}  {:>7}  {:>8}  {:>6}  {:>6}  \
             {:>6}  {:>6}  {:>7.4}  {:>7.4}  {:>8}\n",
            p.window,
            p.devices,
            r.results.len(),
            r.fused_batches(),
            r.queries_per_sec(),
            r.makespan_us(),
            r.mean_latency_us(),
            r.p50_latency_us(),
            r.p99_latency_us(),
            r.retries,
            r.failovers,
            r.cpu_fallbacks,
            r.deadline_misses,
            r.algo.tuner_plan_hits,
            r.algo.tuner_plan_misses,
            r.algo.tuner_refinements,
            r.approx_two_stage,
            r.approx_bucketed,
            r.p50_recall(),
            r.p99_recall(),
            p.mean_measured_recall
                .map_or_else(|| "-".to_string(), |r| format!("{r:.4}")),
        ));
    }
    out
}

/// Check a sweep against a recall floor: every point's estimated and
/// (when `--verify` measured them) host-measured recall must clear
/// `target`. Returns one message per violation; the CLI exits non-zero
/// on any — the contract the CI `chaos-degrade` job enforces.
pub fn recall_floor_violations(points: &[EnginePoint], target: f64) -> Vec<String> {
    let mut violations = Vec::new();
    for p in points {
        let est = p.report.mean_est_recall();
        if est + 1e-9 < target {
            violations.push(format!(
                "window {}: mean estimated recall {:.4} below target {:.4}",
                p.window, est, target
            ));
        }
        // Measured recall is a statistical quantity (the analytic bound
        // holds in expectation over i.i.d. inputs), so the floor gets a
        // small tolerance.
        if let Some(m) = p.mean_measured_recall {
            if m + 0.05 < target {
                violations.push(format!(
                    "window {}: mean measured recall {:.4} below target {:.4}",
                    p.window, m, target
                ));
            }
        }
    }
    violations
}

/// The sweep as standard benchmark rows (`algo = TopKEngine`, `batch`
/// = coalescing window, `time_us` = makespan) for `engine.csv`.
pub fn to_rows(points: &[EnginePoint], full: bool) -> Vec<Row> {
    points
        .iter()
        .map(|p| Row {
            algo: "TopKEngine".into(),
            device: format!("A100x{}", p.devices),
            workload: if full {
                "serving-mixed-full".into()
            } else {
                "serving-mixed".into()
            },
            n: p.report.results.len(),
            k: 0,
            batch: p.window,
            time_us: p.report.makespan_us(),
            mem_bytes: 0,
            kernels: 0,
            pcie_us: 0.0,
            idle_us: p.report.mean_latency_us(),
            verified: true,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The widest window's drain digest of a fresh sweep.
    fn digest(opts: &EngineBenchOpts) -> String {
        let points = engine_throughput(opts);
        let widest = points.iter().find(|p| p.window == opts.widest_window());
        widest
            .expect("the sweep drains every window")
            .report
            .chaos_digest()
    }

    #[test]
    fn sweep_produces_points_for_every_window() {
        let opts = EngineBenchOpts {
            queries: 24,
            devices: 2,
            windows: vec![1, 8, 32],
            verify: true,
            ..Default::default()
        };
        let points = engine_throughput(&opts);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert_eq!(p.report.results.len(), 24);
            assert!(p.report.queries_per_sec() > 0.0);
        }
        // Window 1 never fuses; wider windows must.
        assert_eq!(points[0].report.fused_batches(), 0);
        assert!(points[1].report.fused_batches() > 0);
        // Coalescing should not hurt throughput on a same-shape-heavy
        // mix (it amortises launches and fills the grid).
        let qps = |p: &EnginePoint| p.report.queries_per_sec();
        assert!(
            qps(&points[1]) >= qps(&points[0]) * 0.9,
            "window 8 ({:.0} qps) much slower than window 1 ({:.0} qps)",
            qps(&points[1]),
            qps(&points[0])
        );
        for p in &points {
            assert!(p.report.p50_latency_us() > 0.0);
            assert!(p.report.p50_latency_us() <= p.report.p99_latency_us());
        }
        let table = render(&points);
        assert!(table.contains("queries/sec"));
        assert!(table.contains("p99_lat_us"));
        assert!(table.contains("plan_hit"));
        assert!(table.contains("rec_p99"));
        // Exact-only defaults: no approximate rungs, unit recall.
        for p in &points {
            assert_eq!(p.report.approx_two_stage + p.report.approx_bucketed, 0);
            assert_eq!(p.report.mean_est_recall(), 1.0);
            assert_eq!(p.mean_measured_recall, Some(1.0));
        }
        assert!(recall_floor_violations(&points, 0.95).is_empty());
        // The tuner consults its plan table on every dispatch.
        assert!(points
            .iter()
            .all(|p| p.report.algo.tuner_plan_hits + p.report.algo.tuner_plan_misses > 0));
        let rows = to_rows(&points, false);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].batch, 1);
    }

    #[test]
    fn faulted_sweep_reports_resilience_counters_and_reproduces() {
        let opts = EngineBenchOpts {
            queries: 32,
            devices: 2,
            windows: vec![4],
            verify: true,
            fault_seed: Some(42),
            fault_rate: 0.10,
            ..Default::default()
        };
        let points = engine_throughput(&opts);
        assert_eq!(points.len(), 1);
        assert_eq!(
            points[0].report.results.len(),
            32,
            "every query stays terminal"
        );
        let table = render(&points);
        assert!(table.contains("retries"));
        assert!(table.contains("failovers"));
        assert!(table.contains("fallbacks"));
        // The digest is a pure function of the options.
        assert_eq!(points[0].report.chaos_digest(), digest(&opts));
    }

    #[test]
    fn recall_target_sweep_accounts_recall_and_reproduces() {
        // Severe chaos on a two-device pool with a sub-unit recall
        // target: the drain must stay terminal for every query, the
        // recall aggregates must respect the target, and the digest
        // (which now carries the recall counters) must reproduce.
        let opts = EngineBenchOpts {
            queries: 32,
            devices: 2,
            windows: vec![4],
            verify: true,
            fault_seed: Some(29),
            fault_rate: 0.10,
            recall_target: Some(0.9),
            ..Default::default()
        };
        let points = engine_throughput(&opts);
        assert_eq!(points.len(), 1);
        assert_eq!(
            points[0].report.results.len(),
            32,
            "every query stays terminal"
        );
        // Whatever mix of exact and approximate served, the estimated
        // recall the engine accounts must clear the target.
        assert!(recall_floor_violations(&points, 0.9).is_empty());
        let digest = digest(&opts);
        assert_eq!(digest, points[0].report.chaos_digest());
        assert!(digest.contains("recall_p50="), "{digest}");
        let table = render(&points);
        assert!(table.contains("2stage"));
        assert!(table.contains("bucket"));
    }
}
