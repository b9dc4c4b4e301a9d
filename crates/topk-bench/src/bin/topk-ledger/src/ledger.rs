//! What a run accumulates, and the metrics derived from it.
//!
//! Simulated quantities are tallied over a fixed prefix of calls, so a
//! seed always yields the same numbers however many calls the time
//! budget allows; host timings use every call.

use crate::report::Metrics;
use crate::spans::Spans;
use crate::stats::{geomean, host_percentile, median, nearest_rank, ratio};
use gpu_sim::KernelReport;
use std::collections::BTreeMap;
use topk_core::AlgoSnapshot;
use topk_engine::StageBreakdown;

/// The algorithm families the tuner routes exact selections to.
pub const FAMILIES: [&str; 4] = ["air", "grid", "radik", "rowwise"];

/// Answer quality over a set of rows or queries.
#[derive(Debug, Default, Clone)]
pub struct Quality {
    /// Rows or queries checked.
    pub attempted: u64,
    /// Returned an error or a wrong answer.
    pub failed: u64,
    /// Exact answers that were wrong.
    pub wrong: u64,
    /// Successful answers.
    pub ok: u64,
    /// Recall summed over successful answers (exact ones score 1).
    pub recall_sum: f64,
}

impl Quality {
    /// Fold in one exact answer's check; `what` names the answer in the
    /// first few complaints.
    pub fn exact(&mut self, check: Result<(), String>, what: impl FnOnce() -> String) {
        self.attempted += 1;
        match check {
            Ok(()) => {
                self.ok += 1;
                self.recall_sum += 1.0;
            }
            Err(e) => {
                self.failed += 1;
                self.wrong += 1;
                if self.wrong <= 5 {
                    eprintln!("wrong answer ({}): {e}", what());
                }
            }
        }
    }

    /// Fold in one approximate answer with its measured recall.
    pub fn approx(&mut self, recall: f64) {
        self.attempted += 1;
        self.ok += 1;
        self.recall_sum += recall;
    }

    /// Fold in one answer that came back as an error; `what` describes
    /// it in the first few complaints.
    pub fn error(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed - self.wrong <= 5 {
            eprintln!("error ({})", what());
        }
    }

    /// Add another tally's counts to this one.
    pub fn add(&mut self, other: &Quality) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.ok += other.ok;
        self.recall_sum += other.recall_sum;
    }
}

/// Per-family tallies of the select workloads.
#[derive(Debug, Default, Clone)]
pub struct Family {
    /// Rows served (prefix calls).
    pub rows: u64,
    /// Simulated selection time, µs (prefix calls).
    pub sim_us: f64,
    /// Traced calls the family served.
    pub host_calls: u64,
    /// Host ns spent in the traced selections.
    pub host_ns: u64,
    /// Device bytes of the traced selections.
    pub host_bytes: u64,
}

/// Serving-layer tallies (prefix calls).
#[derive(Debug, Default, Clone)]
pub struct Engine {
    /// Drains recorded.
    pub drains: u64,
    /// Summed stage attribution.
    pub stages: StageBreakdown,
    /// Queries that shared a fused launch.
    pub fused_queries: u64,
    /// Batches executed (every attempt).
    pub batches: u64,
    /// Queries over all executed batches.
    pub batch_rows: u64,
    /// Mean-over-max device busy time, summed over drains.
    pub balance_sum: f64,
    /// Batch re-executions after device faults.
    pub retries: u64,
    /// Queries served by another device than first scheduled.
    pub failovers: u64,
    /// Queries served by the CPU reference path.
    pub cpu_fallbacks: u64,
    /// Queries served by an approximate rung.
    pub approx: u64,
    /// Queries that missed their deadline.
    pub deadline_misses: u64,
    /// Circuit-breaker quarantines.
    pub quarantines: u64,
    /// Panics the engine caught (counted by the quiet hook).
    pub panics: u64,
    /// Largest allocation left on a healthy device after a drain.
    pub leaked_bytes: u64,
}

/// Everything one run accumulates.
#[derive(Debug, Default)]
pub struct Ledger {
    // Simulated, over the prefix calls.
    /// Rows or queries recorded.
    pub rows: u64,
    /// Input elements recorded.
    pub elems: u64,
    /// Simulated latency per row or query, µs.
    pub row_latency_us: Vec<f64>,
    /// Summed call time on the simulated clock (select time or drain
    /// makespan), µs.
    pub sim_us: f64,
    /// Summed device-busy time, µs (equal to `sim_us` on one device).
    pub device_us: f64,
    /// Kernel launches.
    pub launches: u64,
    /// Launch overhead, µs.
    pub launch_us: f64,
    /// Kernel execution, µs.
    pub exec_us: f64,
    /// Memory SOL weighted by execution time.
    pub sol_x_exec: f64,
    /// Occupancy weighted by execution time.
    pub occ_x_exec: f64,
    /// Device-memory traffic, bytes.
    pub device_bytes: u64,
    /// Host↔device copy time, µs.
    pub transfer_us: f64,
    /// Bytes over PCIe.
    pub pcie_bytes: f64,
    /// Host synchronisations.
    pub host_syncs: u64,
    /// Peak simulated device memory, bytes.
    pub mem_high_water: usize,
    /// Per-family tallies (select workloads).
    pub families: BTreeMap<&'static str, Family>,
    /// Algorithm-counter deltas, one per call.
    pub algo: Vec<AlgoSnapshot>,
    /// Tuner predicted-over-observed latency ratios.
    pub pred_over_obs: Vec<f64>,
    /// Serving-layer tallies.
    pub engine: Engine,
    /// Answer quality.
    pub quality: Quality,

    // Host, over every call.
    /// Host time of every call.
    pub host_calls: Vec<HostCall>,
    /// Input elements over every call.
    pub host_elems: u64,
    /// Answer quality over every call.
    pub all_quality: Quality,
    /// Device bytes of the traced calls.
    pub traced_device_bytes: u64,
    /// Host ns of the traced calls' selection or drain spans.
    pub traced_work_ns: u64,
    /// Queries of the traced calls (serving workloads).
    pub traced_queries: u64,
    /// Bytes uploaded during setup.
    pub setup_htod_bytes: u64,
}

/// One call's host time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostCall {
    /// Host time, ms.
    pub ms: f64,
    /// Whether spans were recorded during the call.
    pub traced: bool,
    /// Which of the workload's cases the call ran.
    pub case: usize,
}

/// Tracing overhead: the geometric mean over cases of the median traced
/// call over the median untraced call of the same case, minus 1.
/// Pairing by case keeps the mix of cheap and costly cases out of it.
pub fn trace_overhead(calls: &[HostCall]) -> f64 {
    let mut by_case: BTreeMap<usize, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for c in calls {
        let e = by_case.entry(c.case).or_default();
        if c.traced { &mut e.0 } else { &mut e.1 }.push(c.ms);
    }
    let ratios: Vec<f64> = by_case
        .values()
        .filter(|(t, u)| !t.is_empty() && !u.is_empty())
        .map(|(t, u)| median(t) / median(u))
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        geomean(&ratios) - 1.0
    }
}

/// Simulated device-side totals of a set of kernel launches.
pub fn fold_kernels(ledger: &mut Ledger, reports: &[KernelReport]) {
    for r in reports {
        ledger.launches += 1;
        ledger.exec_us += r.cost.exec_us;
        ledger.sol_x_exec += r.cost.memory_sol * r.cost.exec_us;
        ledger.occ_x_exec += r.cost.occupancy * r.cost.exec_us;
        ledger.device_bytes += r.stats.total_mem_bytes();
    }
}

/// Device bytes of a set of kernel launches.
pub fn kernel_bytes(reports: &[KernelReport]) -> u64 {
    reports.iter().map(|r| r.stats.total_mem_bytes()).sum()
}

/// Measurements only the traced run takes.
#[derive(Debug, Default)]
pub struct Extras {
    /// Host ns per load of the streaming-read probe kernel.
    pub probe_ld_ns: f64,
    /// Host µs per empty one-block launch.
    pub probe_launch_us: f64,
    /// Host µs to plan a shape on a cold and a warm tuner.
    pub plan_us: (f64, f64),
    /// Geomean of static-prior over tuned simulated latency.
    pub static_over_tuned: f64,
    /// Block-pool workers the workload's devices use.
    pub host_threads: usize,
    /// The paper's layer-level cells.
    pub paper: Metrics,
}

impl Ledger {
    /// The end-to-end metrics of an untraced run. Host times are
    /// divided by `slowdown` (see [`crate::speed`]).
    pub fn end_to_end(&self, setup_s: f64, slowdown: f64) -> Result<Metrics, String> {
        let host: Vec<f64> = self.host_calls.iter().map(|c| c.ms / slowdown).collect();
        let host_s: f64 = host.iter().sum::<f64>() / 1e3;
        let mut m = Metrics::default();
        m.push("setup_s", setup_s / slowdown, "s");
        m.push("host_call_ms_p50", host_percentile(&host, 0.50)?, "ms");
        m.push("host_call_ms_p95", host_percentile(&host, 0.95)?, "ms");
        m.push(
            "host_melem_per_s",
            ratio(self.host_elems as f64 / 1e6, host_s),
            "Melem/s",
        );
        m.push("host_peak_rss_mib", peak_rss_mib()?, "MiB");
        m.push(
            "sim_latency_us_p50",
            nearest_rank(&self.row_latency_us, 0.50),
            "sim_us",
        );
        m.push(
            "sim_latency_us_p99",
            nearest_rank(&self.row_latency_us, 0.99),
            "sim_us",
        );
        m.push(
            "sim_queries_per_s",
            ratio(self.rows as f64, self.sim_us * 1e-6),
            "rows/sim_s",
        );
        let q = &self.quality;
        m.push(
            "success_frac",
            1.0 - ratio(q.failed as f64, q.attempted as f64),
            "ratio",
        );
        m.push("recall_mean", ratio(q.recall_sum, q.ok as f64), "ratio");
        Ok(m)
    }

    /// The per-layer metrics of a traced run. Layers a workload does
    /// not exercise read 0. Host times are divided by `slowdown`, like
    /// the end-to-end ones.
    pub fn per_layer(&self, spans: &Spans, extras: Extras, slowdown: f64) -> Metrics {
        let host = |x: f64| x / slowdown;
        let mut m = Metrics::default();
        let rows = self.rows as f64;
        let dev = self.device_us;
        let calls = spans.self_time_by_name(|s| s.call >= 1);
        let all = spans.self_time_by_name(|_| true);
        // Mean self time per span of a name, ns.
        let mean_ns = |by: &BTreeMap<&str, (u64, u64)>, name: &str| {
            by.get(name)
                .map_or(0.0, |&(n, ns)| ratio(ns as f64, n as f64))
        };
        let total_ns = |name: &str| calls.get(name).map_or(0.0, |&(_, ns)| ns as f64);

        m.push(
            "gpu_sim.launches_per_row",
            ratio(self.launches as f64, rows),
            "launch/row",
        );
        m.push(
            "gpu_sim.sim_launch_frac",
            ratio(self.launch_us, dev),
            "ratio",
        );
        m.push(
            "gpu_sim.device_bytes_per_elem",
            ratio(self.device_bytes as f64, self.elems as f64),
            "B/elem",
        );
        m.push(
            "gpu_sim.memory_sol_mean",
            ratio(self.sol_x_exec, self.exec_us),
            "ratio",
        );
        m.push("gpu_sim.sim_exec_frac", ratio(self.exec_us, dev), "ratio");
        m.push(
            "gpu_sim.pcie_bytes_per_row",
            ratio(self.pcie_bytes, rows),
            "B/row",
        );
        m.push(
            "gpu_sim.host_syncs_per_row",
            ratio(self.host_syncs as f64, rows),
            "sync/row",
        );
        m.push(
            "gpu_sim.sim_transfer_frac",
            ratio(self.transfer_us, dev),
            "ratio",
        );
        m.push(
            "gpu_sim.sim_idle_frac",
            ratio((dev - self.exec_us - self.transfer_us).max(0.0), dev),
            "ratio",
        );
        m.push(
            "gpu_sim.occupancy_mean",
            ratio(self.occ_x_exec, self.exec_us),
            "ratio",
        );
        m.push(
            "gpu_sim.mem_high_water_mib",
            self.mem_high_water as f64 / (1 << 20) as f64,
            "MiB",
        );
        m.push(
            "gpu_sim.host_ns_per_device_byte",
            host(ratio(
                self.traced_work_ns as f64,
                self.traced_device_bytes as f64,
            )),
            "ns/B",
        );
        m.push("gpu_sim.probe.ld_ns", host(extras.probe_ld_ns), "ns");
        m.push(
            "gpu_sim.probe.launch_us",
            host(extras.probe_launch_us),
            "us",
        );
        m.push(
            "gpu_sim.htod.host_ms_per_mib",
            host(ratio(
                all.get("gpu_sim.htod")
                    .map_or(0.0, |&(_, ns)| ns as f64 / 1e6),
                self.setup_htod_bytes as f64 / (1 << 20) as f64,
            )),
            "ms/MiB",
        );
        m.push(
            "gpu_sim.dtoh.host_us",
            host(mean_ns(&calls, "gpu_sim.dtoh") / 1e3),
            "us",
        );

        for name in FAMILIES {
            let f = self.families.get(name).cloned().unwrap_or_default();
            m.push(
                format!("topk_core.{name}.row_share"),
                ratio(f.rows as f64, rows),
                "ratio",
            );
            m.push(
                format!("topk_core.{name}.sim_us_per_row"),
                ratio(f.sim_us, f.rows as f64),
                "sim_us",
            );
            m.push(
                format!("topk_core.{name}.host_ms_per_call"),
                host(ratio(f.host_ns as f64 / 1e6, f.host_calls as f64)),
                "ms",
            );
            m.push(
                format!("topk_core.{name}.host_ns_per_device_byte"),
                host(ratio(f.host_ns as f64, f.host_bytes as f64)),
                "ns/B",
            );
        }
        m.push(
            "topk_core.sketch.host_us",
            host(mean_ns(&calls, "topk_core.sketch") / 1e3),
            "us",
        );

        // Counter deltas, per call in which the counter moved.
        let per_moving_call = |f: fn(&AlgoSnapshot) -> u64| {
            let moved: Vec<u64> = self.algo.iter().map(f).filter(|&d| d > 0).collect();
            ratio(moved.iter().sum::<u64>() as f64, moved.len() as f64)
        };
        let sum = |f: fn(&AlgoSnapshot) -> u64| self.algo.iter().map(f).sum::<u64>() as f64;
        m.push(
            "topk_core.air.passes_per_call",
            per_moving_call(|a| a.air_passes),
            "pass/call",
        );
        m.push(
            "topk_core.air.adaptive_skip_frac",
            ratio(
                sum(|a| a.air_adaptive_skips),
                sum(|a| a.air_adaptive_skips + a.air_buffer_writes),
            ),
            "ratio",
        );
        m.push(
            "topk_core.air.early_stop_frac",
            ratio(sum(|a| a.air_early_stops), sum(|a| a.air_passes)),
            "ratio",
        );
        m.push(
            "topk_core.grid.queue_merges_per_call",
            per_moving_call(|a| a.gridselect_queue_merges),
            "merge/call",
        );
        m.push(
            "topk_core.radik.skipped_bits_per_round",
            ratio(sum(|a| a.radik_skipped_bits), sum(|a| a.radik_rounds)),
            "bit/round",
        );
        m.push(
            "topk_core.rowwise.compactions_per_call",
            per_moving_call(|a| a.rowwise_compactions),
            "count/call",
        );
        m.push(
            "topk_core.tuner.plan_hit_frac",
            ratio(
                sum(|a| a.tuner_plan_hits),
                sum(|a| a.tuner_plan_hits + a.tuner_plan_misses),
            ),
            "ratio",
        );
        m.push(
            "topk_core.tuner.plan_host_us_cold",
            host(extras.plan_us.0),
            "us",
        );
        m.push(
            "topk_core.tuner.plan_host_us_warm",
            host(extras.plan_us.1),
            "us",
        );
        m.push(
            "topk_core.tuner.refinements_per_drain",
            ratio(sum(|a| a.tuner_refinements), self.engine.drains as f64),
            "count/drain",
        );
        m.push(
            "topk_core.tuner.static_over_tuned_geomean",
            extras.static_over_tuned,
            "ratio",
        );
        m.push(
            "topk_core.tuner.pred_over_obs_geomean",
            geomean(&self.pred_over_obs),
            "ratio",
        );

        let e = &self.engine;
        let queries = if e.drains > 0 { rows } else { 0.0 };
        m.push(
            "topk_engine.submit.host_us",
            host(ratio(
                total_ns("topk_engine.submit") / 1e3,
                self.traced_queries as f64,
            )),
            "us",
        );
        m.push(
            "topk_engine.drain.host_us_per_query",
            host(ratio(
                total_ns("topk_engine.drain") / 1e3,
                self.traced_queries as f64,
            )),
            "us",
        );
        m.push(
            "topk_engine.new.host_ms",
            host(mean_ns(&all, "topk_engine.new") / 1e6),
            "ms",
        );
        for (stage, us) in e.stages.rows() {
            m.push(
                format!("topk_engine.stage.{stage}_us"),
                ratio(us, queries),
                "sim_us",
            );
        }
        m.push(
            "topk_engine.fused_query_frac",
            ratio(e.fused_queries as f64, queries),
            "ratio",
        );
        m.push(
            "topk_engine.batch_size_mean",
            ratio(e.batch_rows as f64, e.batches as f64),
            "query",
        );
        m.push(
            "topk_engine.device_balance",
            ratio(e.balance_sum, e.drains as f64),
            "ratio",
        );
        m.push(
            "topk_engine.retries_per_query",
            ratio(e.retries as f64, queries),
            "count/query",
        );
        m.push(
            "topk_engine.failovers_per_query",
            ratio(e.failovers as f64, queries),
            "count/query",
        );
        m.push(
            "topk_engine.cpu_fallback_frac",
            ratio(e.cpu_fallbacks as f64, queries),
            "ratio",
        );
        m.push(
            "topk_engine.approx_frac",
            ratio(e.approx as f64, queries),
            "ratio",
        );
        m.push(
            "topk_engine.deadline_miss_frac",
            ratio(e.deadline_misses as f64, queries),
            "ratio",
        );
        m.push(
            "topk_engine.quarantines_per_drain",
            ratio(e.quarantines as f64, e.drains as f64),
            "count/drain",
        );
        m.push(
            "topk_engine.caught_panics_per_drain",
            ratio(e.panics as f64, e.drains as f64),
            "count/drain",
        );
        m.push("topk_engine.leaked_bytes", e.leaked_bytes as f64, "B");

        m.push(
            "bench.trace_overhead_frac",
            trace_overhead(&self.host_calls),
            "ratio",
        );
        m.push("bench.host_slowdown", slowdown, "ratio");
        m.push("bench.host_threads", extras.host_threads as f64, "thread");
        m.0.extend(extras.paper.0);
        m
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_counts_errors_and_wrong_answers_as_failed() {
        let mut q = Quality::default();
        q.exact(Ok(()), || "a".into());
        q.exact(Err("bad".into()), || "b".into());
        q.approx(0.5);
        q.error(|| "c".into());
        assert_eq!((q.attempted, q.failed, q.wrong, q.ok), (4, 2, 1, 2));
        assert_eq!(q.recall_sum, 1.5);
    }

    #[test]
    fn trace_overhead_pairs_calls_by_case() {
        let call = |ms, traced, case| HostCall { ms, traced, case };
        // Case 0 is cheap and case 1 costly; tracing adds 10 % to both.
        // Unpaired medians would mix the cases and read anything.
        let calls = [
            call(1.0, false, 0),
            call(1.1, true, 0),
            call(10.0, false, 1),
            call(11.0, true, 1),
            call(10.0, false, 1),
            call(5.0, true, 2),
        ];
        assert!((trace_overhead(&calls) - 0.1).abs() < 1e-12);
        assert_eq!(trace_overhead(&calls[..1]), 0.0);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
