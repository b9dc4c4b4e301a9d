//! The engine's metric surface: a [`MetricsRegistry`] with handles for
//! every series the serving layer maintains.
//!
//! [`TopKEngine`](crate::TopKEngine) owns one [`EngineMetrics`] and
//! updates it on every submit and drain; callers scrape it with
//! [`EngineMetrics::render_prometheus`]. Series:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `topk_engine_queries_submitted_total` | counter | accepted submissions |
//! | `topk_engine_queue_rejections_total` | counter | `QueueFull` refusals |
//! | `topk_engine_queries_total` | counter | drained queries (ok + err) |
//! | `topk_engine_query_errors_total{kind}` | counter | failures per [`TopKError::kind`] |
//! | `topk_engine_batches_total` | counter | executed batches |
//! | `topk_engine_fused_batches_total` | counter | batches fusing ≥ 2 queries |
//! | `topk_engine_kernel_launches_total` | counter | kernel launches |
//! | `topk_engine_drains_total` | counter | drains |
//! | `topk_engine_queue_depth` | gauge | queries awaiting drain |
//! | `topk_engine_device_utilization{device}` | gauge | busy µs / wall µs |
//! | `topk_engine_query_latency_us` | histogram | per-query latency |
//! | `topk_engine_queue_wait_us` | histogram | per-query queue wait |
//! | `topk_engine_batch_size` | histogram | fused-batch sizes |
//! | `topk_engine_retries_total` | counter | batch re-executions after faults |
//! | `topk_engine_failovers_total` | counter | queries served by another device |
//! | `topk_engine_cpu_fallbacks_total` | counter | queries served by `topk-cpu` |
//! | `topk_engine_approx_served_total{rung}` | counter | queries served by an approximate rung |
//! | `topk_engine_est_recall` | histogram | per-query estimated recall (successful queries) |
//! | `topk_engine_deadline_misses_total` | counter | terminal deadline failures |
//! | `topk_engine_quarantines_total` | counter | circuit-breaker trips |
//! | `topk_engine_faults_injected_total{kind}` | counter | injected faults per [`FaultKind`] |
//! | `topk_engine_quarantined_devices` | gauge | devices currently quarantined |
//! | `topk_engine_failed_devices` | gauge | devices permanently failed |
//! | `topk_air_*_total`, `topk_gridselect_*_total` | counter | [`topk_core::obs`] deltas |
//! | `topk_radik_*_total`, `topk_rowwise_*_total` | counter | new-algorithm [`topk_core::obs`] deltas |
//! | `topk_bucketed_selections_total`, `topk_twostage_reduces_total` | counter | approximate-algorithm [`topk_core::obs`] deltas |
//! | `topk_tuner_plan_{hits,misses}_total` | counter | adaptive-dispatch plan-table traffic |
//! | `topk_tuner_refinements_total` | counter | plans replaced by observed-latency feedback |
//! | `topk_engine_stage_us{stage}` | gauge | last drain's stage-level latency attribution |
//! | `topk_profile_peak_bw_frac{device,kernel}` | gauge | achieved / peak memory bandwidth per kernel |
//! | `topk_profile_peak_ops_frac{device,kernel}` | gauge | achieved / peak compute throughput per kernel |
//! | `topk_profile_occupancy{device,kernel}` | gauge | exec-time-weighted mean occupancy per kernel |
//! | `topk_profile_kernel_launches_total{device,kernel}` | counter | roofline-folded launches per kernel |
//! | `topk_profile_kernel_bytes_total{device,kernel}` | counter | memory traffic folded per kernel |
//! | `topk_tuner_drift_ratio{bucket,algo}` | gauge | mean observed/predicted cost ratio per plan bucket |
//! | `topk_tuner_drift_samples{bucket,algo}` | gauge | observations behind each drift ratio |
//! | `topk_tuner_calibration{family}` | gauge | tuner EMA calibration factor per algorithm family |

use crate::profiler::DriftEntry;
use crate::{BatchRecord, DrainReport, QueryResult, StageBreakdown};
use gpu_sim::FaultKind;
use gpu_sim::RooflineRow;
use std::sync::Arc;
use topk_core::{AlgoSnapshot, TopKError};
use topk_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// The [`topk_core::obs`] counters exported per drain: series name,
/// help text and the [`AlgoSnapshot`] delta that feeds the series.
type AlgoSeries = (&'static str, &'static str, fn(&AlgoSnapshot) -> u64);

const ALGO_SERIES: [AlgoSeries; 15] = [
    (
        "topk_air_passes_total",
        "AIR radix digit passes completed (per problem, per pass)",
        |d| d.air_passes,
    ),
    (
        "topk_air_buffer_writes_total",
        "AIR passes that wrote the candidate buffer for the next pass",
        |d| d.air_buffer_writes,
    ),
    (
        "topk_air_adaptive_skips_total",
        "AIR passes where the adaptive strategy skipped buffering",
        |d| d.air_adaptive_skips,
    ),
    (
        "topk_air_early_stops_total",
        "AIR early-stop triggers (remaining candidates == remaining K)",
        |d| d.air_early_stops,
    ),
    (
        "topk_air_one_block_selections_total",
        "Problems solved by AIR's one-block shared-memory fast path",
        |d| d.air_one_block_selections,
    ),
    (
        "topk_gridselect_queue_merges_total",
        "GridSelect shared-queue flushes (bitonic sort + merge)",
        |d| d.gridselect_queue_merges,
    ),
    (
        "topk_gridselect_list_merges_total",
        "GridSelect list-vs-list merges (cross-warp and tree-merge)",
        |d| d.gridselect_list_merges,
    ),
    (
        "topk_radik_rounds_total",
        "RadiK radix rounds completed after the sketch pass",
        |d| d.radik_rounds,
    ),
    (
        "topk_radik_skipped_bits_total",
        "Key bits RadiK's sketch and adaptive ordering skipped outright",
        |d| d.radik_skipped_bits,
    ),
    (
        "topk_rowwise_compactions_total",
        "Row-wise shared-buffer compactions (threshold tightenings)",
        |d| d.rowwise_compactions,
    ),
    (
        "topk_bucketed_selections_total",
        "Bucketed approximate top-K fused launches completed",
        |d| d.bucketed_selections,
    ),
    (
        "topk_twostage_reduces_total",
        "Two-stage approximate top-K exact-reduce launches completed",
        |d| d.twostage_reduces,
    ),
    (
        "topk_tuner_plan_hits_total",
        "Dispatch decisions served from the tuner's plan table",
        |d| d.tuner_plan_hits,
    ),
    (
        "topk_tuner_plan_misses_total",
        "Dispatch decisions that required a fresh cost-model planning pass",
        |d| d.tuner_plan_misses,
    ),
    (
        "topk_tuner_refinements_total",
        "Plans replaced after observed latencies recalibrated the cost model",
        |d| d.tuner_refinements,
    ),
];

/// Pre-registered handles over the engine's [`MetricsRegistry`].
///
/// Every series exists from construction (error counters are
/// registered over the whole [`TopKError::KINDS`] space), so the first
/// scrape sees the full surface at zero rather than series popping
/// into existence as events occur.
pub struct EngineMetrics {
    registry: MetricsRegistry,
    pub(crate) queries_submitted: Arc<Counter>,
    pub(crate) queue_rejections: Arc<Counter>,
    pub(crate) queries: Arc<Counter>,
    pub(crate) query_errors: Vec<Arc<Counter>>,
    pub(crate) batches: Arc<Counter>,
    pub(crate) fused_batches: Arc<Counter>,
    pub(crate) kernel_launches: Arc<Counter>,
    pub(crate) drains: Arc<Counter>,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) query_latency_us: Arc<Histogram>,
    pub(crate) queue_wait_us: Arc<Histogram>,
    pub(crate) batch_size: Arc<Histogram>,
    pub(crate) retries: Arc<Counter>,
    pub(crate) failovers: Arc<Counter>,
    pub(crate) cpu_fallbacks: Arc<Counter>,
    pub(crate) approx_two_stage: Arc<Counter>,
    pub(crate) approx_bucketed: Arc<Counter>,
    pub(crate) est_recall: Arc<Histogram>,
    pub(crate) deadline_misses: Arc<Counter>,
    pub(crate) quarantines: Arc<Counter>,
    pub(crate) faults_injected: Vec<Arc<Counter>>,
    pub(crate) quarantined_devices: Arc<Gauge>,
    pub(crate) failed_devices: Arc<Gauge>,
    /// One counter per [`ALGO_SERIES`] entry, in table order.
    algo: Vec<Arc<Counter>>,
}

impl EngineMetrics {
    /// A registry with every engine series pre-registered.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let query_errors = TopKError::KINDS
            .iter()
            .map(|kind| {
                registry.counter_with(
                    "topk_engine_query_errors_total",
                    "Drained queries that failed, by TopKError kind",
                    &[("kind", kind)],
                )
            })
            .collect();
        EngineMetrics {
            queries_submitted: registry.counter(
                "topk_engine_queries_submitted_total",
                "Queries accepted into the submission queue",
            ),
            queue_rejections: registry.counter(
                "topk_engine_queue_rejections_total",
                "Submissions refused because the bounded queue was full",
            ),
            queries: registry.counter(
                "topk_engine_queries_total",
                "Queries drained (successful and failed)",
            ),
            query_errors,
            batches: registry.counter(
                "topk_engine_batches_total",
                "Coalesced batches executed on the device pool",
            ),
            fused_batches: registry.counter(
                "topk_engine_fused_batches_total",
                "Batches that fused two or more queries into one launch set",
            ),
            kernel_launches: registry.counter(
                "topk_engine_kernel_launches_total",
                "Kernel launches performed by the device pool",
            ),
            drains: registry.counter("topk_engine_drains_total", "Drains performed"),
            queue_depth: registry.gauge(
                "topk_engine_queue_depth",
                "Queries currently awaiting the next drain",
            ),
            query_latency_us: registry.histogram(
                "topk_engine_query_latency_us",
                "Simulated per-query latency (queue wait + service), microseconds",
            ),
            queue_wait_us: registry.histogram(
                "topk_engine_queue_wait_us",
                "Simulated per-query queue wait before service, microseconds",
            ),
            batch_size: registry.histogram_with(
                "topk_engine_batch_size",
                "Queries fused per executed batch",
                &[],
                (0..9).map(|i| (1u64 << i) as f64).collect(),
            ),
            retries: registry.counter(
                "topk_engine_retries_total",
                "Batch re-executions scheduled after a device fault",
            ),
            failovers: registry.counter(
                "topk_engine_failovers_total",
                "Queries ultimately served by a different device than first scheduled",
            ),
            cpu_fallbacks: registry.counter(
                "topk_engine_cpu_fallbacks_total",
                "Queries served by the topk-cpu reference path after pool/retry exhaustion",
            ),
            approx_two_stage: registry.counter_with(
                "topk_engine_approx_served_total",
                "Queries served by an approximate rung of the accuracy ladder",
                &[("rung", "approx_two_stage")],
            ),
            approx_bucketed: registry.counter_with(
                "topk_engine_approx_served_total",
                "Queries served by an approximate rung of the accuracy ladder",
                &[("rung", "approx_bucketed")],
            ),
            est_recall: registry.histogram_with(
                "topk_engine_est_recall",
                "Per-query estimated recall (analytic expectation; 1.0 on exact rungs)",
                &[],
                vec![0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0],
            ),
            deadline_misses: registry.counter(
                "topk_engine_deadline_misses_total",
                "Queries terminally failed with DeadlineExceeded",
            ),
            quarantines: registry.counter(
                "topk_engine_quarantines_total",
                "Circuit-breaker quarantines tripped on pool devices",
            ),
            faults_injected: FaultKind::ALL
                .iter()
                .map(|kind| {
                    registry.counter_with(
                        "topk_engine_faults_injected_total",
                        "Injected device faults observed, by FaultKind",
                        &[("kind", kind.label())],
                    )
                })
                .collect(),
            quarantined_devices: registry.gauge(
                "topk_engine_quarantined_devices",
                "Pool devices currently inside a circuit-breaker quarantine",
            ),
            failed_devices: registry.gauge(
                "topk_engine_failed_devices",
                "Pool devices permanently failed (panic or hang)",
            ),
            algo: ALGO_SERIES
                .iter()
                .map(|&(name, help, _)| registry.counter(name, help))
                .collect(),
            registry,
        }
    }

    /// The underlying registry (for callers that want to attach their
    /// own series next to the engine's).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Render every series in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Fold one drained query into the registry.
    pub(crate) fn record_query(&self, r: &QueryResult) {
        self.queries.inc();
        self.query_latency_us.observe(r.latency_us);
        self.queue_wait_us.observe(r.queue_wait_us);
        if let Err(e) = &r.outcome {
            let kind = e.kind();
            let slot = TopKError::KINDS
                .iter()
                .position(|&k| k == kind)
                .expect("kind() values come from KINDS");
            self.query_errors[slot].inc();
        } else {
            self.est_recall.observe(r.est_recall);
        }
    }

    /// Fold one executed batch into the registry.
    pub(crate) fn record_batch(&self, b: &BatchRecord) {
        self.batches.inc();
        if b.size >= 2 {
            self.fused_batches.inc();
        }
        self.batch_size.observe(b.size as f64);
    }

    /// Fold one drain's algorithm-event delta into the counters.
    pub(crate) fn record_algo(&self, d: &AlgoSnapshot) {
        for (counter, (_, _, delta)) in self.algo.iter().zip(ALGO_SERIES) {
            counter.add(delta(d));
        }
    }

    /// Lifetime total of the [`ALGO_SERIES`] counter `name`.
    pub(crate) fn algo_total(&self, name: &str) -> u64 {
        let i = ALGO_SERIES.iter().position(|s| s.0 == name);
        self.algo[i.expect("an ALGO_SERIES name")].get()
    }

    /// Fold one drain's resilience tallies into the counters.
    pub(crate) fn record_resilience(&self, report: &DrainReport) {
        self.retries.add(report.retries);
        self.failovers.add(report.failovers);
        self.cpu_fallbacks.add(report.cpu_fallbacks);
        self.approx_two_stage.add(report.approx_two_stage);
        self.approx_bucketed.add(report.approx_bucketed);
        self.deadline_misses.add(report.deadline_misses);
        self.quarantines.add(report.quarantines);
        for d in &report.devices {
            for fe in &d.fault_events {
                let slot = FaultKind::ALL
                    .iter()
                    .position(|k| *k == fe.kind)
                    .expect("fault kinds come from ALL");
                self.faults_injected[slot].inc();
            }
        }
    }

    /// Set the pool-health gauges.
    pub(crate) fn set_health_gauges(&self, quarantined: usize, failed: usize) {
        self.quarantined_devices.set(quarantined as f64);
        self.failed_devices.set(failed as f64);
    }

    /// Set the utilisation gauge for one pool device.
    pub(crate) fn set_device_utilization(&self, device: usize, utilization: f64) {
        self.registry
            .gauge_with(
                "topk_engine_device_utilization",
                "Device busy time over total drain makespan (0..1)",
                &[("device", &device.to_string())],
            )
            .set(utilization);
    }

    /// Export one device's roofline aggregation: per-kernel achieved
    /// vs. peak fractions as gauges (latest drain wins) and
    /// launch/byte tallies as counters.
    pub(crate) fn record_roofline(&self, device: usize, rows: &[RooflineRow]) {
        let dev = device.to_string();
        for row in rows {
            let labels = [("device", dev.as_str()), ("kernel", row.kernel.as_str())];
            self.registry
                .gauge_with(
                    "topk_profile_peak_bw_frac",
                    "Achieved memory bandwidth over DeviceSpec peak, per kernel (0..1)",
                    &labels,
                )
                .set(row.peak_bw_frac);
            self.registry
                .gauge_with(
                    "topk_profile_peak_ops_frac",
                    "Achieved compute throughput over DeviceSpec peak, per kernel (0..1)",
                    &labels,
                )
                .set(row.peak_ops_frac);
            self.registry
                .gauge_with(
                    "topk_profile_occupancy",
                    "Exec-time-weighted mean occupancy per kernel (0..1)",
                    &labels,
                )
                .set(row.occupancy);
            self.registry
                .counter_with(
                    "topk_profile_kernel_launches_total",
                    "Kernel launches folded into the roofline profile",
                    &labels,
                )
                .add(row.launches);
            self.registry
                .counter_with(
                    "topk_profile_kernel_bytes_total",
                    "Memory traffic (read + written + scattered + atomics) folded into the roofline profile",
                    &labels,
                )
                .add(row.mem_bytes);
        }
    }

    /// Export a drain's stage-level latency attribution (gauges: the
    /// last drain's split, scrape-to-scrape).
    pub(crate) fn record_stages(&self, stages: &StageBreakdown) {
        for (stage, us) in stages.rows() {
            self.registry
                .gauge_with(
                    "topk_engine_stage_us",
                    "Last drain's simulated time by stage (queue wait, transfer, kernel, merge, retry penalty, other)",
                    &[("stage", stage)],
                )
                .set(us);
        }
    }

    /// Export one plan bucket's cost-model drift state.
    pub(crate) fn record_drift(&self, bucket: &str, entry: &DriftEntry) {
        let labels = [("bucket", bucket), ("algo", entry.algo.as_str())];
        self.registry
            .gauge_with(
                "topk_tuner_drift_ratio",
                "Mean observed/predicted batch-cost ratio per plan bucket (1.0 = calibrated)",
                &labels,
            )
            .set(entry.mean_ratio());
        self.registry
            .gauge_with(
                "topk_tuner_drift_samples",
                "Observations folded into each plan bucket's drift ratio",
                &labels,
            )
            .set(entry.samples as f64);
    }

    /// Export one algorithm family's EMA calibration factor.
    pub(crate) fn record_calibration(&self, family: &'static str, factor: f64) {
        self.registry
            .gauge_with(
                "topk_tuner_calibration",
                "Tuner EMA calibration factor per algorithm family (observed/predicted)",
                &[("family", family)],
            )
            .set(factor);
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        EngineMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_series_exist_before_any_error() {
        let m = EngineMetrics::new();
        let text = m.render_prometheus();
        for kind in TopKError::KINDS {
            assert!(
                text.contains(&format!(
                    "topk_engine_query_errors_total{{kind=\"{kind}\"}} 0"
                )),
                "missing pre-registered error series for {kind}: {text}"
            );
        }
    }

    #[test]
    fn algo_deltas_accumulate() {
        let m = EngineMetrics::new();
        let d = AlgoSnapshot {
            air_passes: 4,
            air_adaptive_skips: 2,
            ..Default::default()
        };
        m.record_algo(&d);
        m.record_algo(&d);
        let text = m.render_prometheus();
        assert!(text.contains("topk_air_passes_total 8"), "{text}");
        assert!(text.contains("topk_air_adaptive_skips_total 4"), "{text}");
    }
}
