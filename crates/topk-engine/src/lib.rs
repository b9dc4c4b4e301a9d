//! # topk-engine — multi-device top-K serving layer
//!
//! Many concurrent queries of mixed shapes, a pool of simulated
//! devices, and per-query accounting, on top of the fallible selection
//! core:
//!
//! * [`TopKEngine`] owns a **bounded submission queue**
//!   ([`EngineConfig::queue_capacity`]) and a **device pool** that one
//!   simulated-time scheduler shares out; it spawns no threads.
//! * [`TopKEngine::drain`] **coalesces** same-`(N, K)` queries into
//!   fused [`try_select_batch`] launches of up to
//!   [`EngineConfig::coalescing_window`] queries — the paper's §5.1
//!   batch-100 result: a fused launch beats `B` back-to-back selects.
//! * Every batch routes through the [`SelectK`] **adaptive
//!   dispatcher**, priced by its merged distribution sketch and real
//!   `(N, K, B)` shape; measured latencies feed the tuner back, and the
//!   warm plan table persists across drains. Each query comes back as
//!   its own [`QueryResult`]: a `Result` plus simulated queue wait and
//!   latency.
//!
//! Each scheduling step places the earliest-runnable batch on the
//! device that can start it soonest. Blocks inside a launch still fan
//! out over the host `BlockPool`, but the schedule is a pure function
//! of the workload, so chaos runs reproduce bit for bit.
//!
//! ## Resilience
//!
//! Every submitted query reaches exactly one terminal [`QueryResult`],
//! whichever simulated device fails, hangs or slows down (`DESIGN.md`
//! §Fault model & resilience). [`EngineConfig::with_faults`] installs a
//! seeded [`gpu_sim::FaultPlan`]; device faults are retried under a
//! [`RetryPolicy`] with simulated backoff, possibly on another device
//! (**failover**); a per-device circuit breaker ([`BreakerConfig`])
//! quarantines a device after consecutive faults and re-probes it after
//! a cooldown; a hang or a caught worker panic retires the device. When
//! retries or devices run out, queries degrade to the `topk-cpu`
//! reference path (or fail with a typed error when
//! [`EngineConfig::with_cpu_fallback`] disables it).
//! [`QueryResult::served`] names the rung that answered, and
//! [`DrainReport::chaos_digest`] renders the drain as text CI diffs
//! across same-seed runs.
//!
//! ```
//! use gpu_sim::DeviceSpec;
//! use topk_engine::{EngineConfig, TopKEngine};
//! use topk_core::verify_topk;
//!
//! let mut engine = TopKEngine::new(EngineConfig::new(vec![
//!     DeviceSpec::a100(),
//!     DeviceSpec::a100(),
//! ]));
//! let data: Vec<f32> = (0..10_000).map(|i| ((i * 37) % 9973) as f32).collect();
//! for _ in 0..4 {
//!     engine.submit(data.clone(), 8).unwrap();
//! }
//! let report = engine.drain();
//! assert_eq!(report.results.len(), 4);
//! for r in &report.results {
//!     let out = r.outcome.as_ref().unwrap();
//!     verify_topk(&data, 8, &out.values, &out.indices).unwrap();
//! }
//! ```
//!
//! ## Observability: one record per fact
//!
//! Every scheduling fact — submit, coalesce, launch, rung change,
//! fault, breaker trip, retry, failover, fallback, deadline miss — is
//! recorded once, as a typed [`EngineEvent`] in the always-on
//! [`FlightRecorder`]; its text is rendered from the event on demand.
//! A drain's retry, backoff and quarantine counts are folded from its
//! events, its per-rung counts from one pass over its results, and
//! [`TopKEngine::snapshot`] reads its lifetime totals off the
//! [`EngineMetrics`] counters (see `DESIGN.md` §Observability):
//!
//! * [`TopKEngine::render_prometheus`] renders the metrics: latency
//!   histograms, per-[`TopKError::kind`] error counters and the
//!   [`topk_core::obs`] algorithm counters.
//! * Every query carries a span id, numbered from 1 per engine; its
//!   batch tags its kernel launches with the lead query's span
//!   ([`QueryResult::batch_span`]).
//! * [`chrome_trace`] renders a [`DrainReport`] for
//!   `chrome://tracing` / Perfetto.
//! * A step that emits a trigger event dumps a post-mortem
//!   ([`TopKEngine::post_mortems`]).
//!
//! [`try_select_batch`]: topk_core::TopKAlgorithm::try_select_batch

mod drain;
pub mod flight;
mod health;
pub mod metrics;
pub mod profiler;
mod rung;
pub mod trace;

pub use flight::{EngineEvent, FlightEvent, FlightRecorder};
pub use metrics::EngineMetrics;
pub use profiler::{DriftEntry, DriftTracker};
pub use trace::chrome_trace;

// Fault-injection vocabulary, re-exported so engine users can build a
// [`FaultPlan`] without depending on `gpu-sim` directly.
pub use gpu_sim::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, SanitizerCounts, SanitizerMode, ScriptedFault,
};

use crate::drain::{Drain, Pending};
use crate::health::DeviceHealth;
use gpu_sim::{DeviceSpec, Gpu, KernelReport};
use topk_core::tuner::DistSketch;
use topk_core::{AlgoSnapshot, SelectK, TopKError};

/// Post-mortem JSON documents retained per engine; once full, further
/// triggers only bump [`TopKEngine::post_mortems_dropped`] — an
/// anomaly storm must not turn the recorder into a memory leak.
pub const POST_MORTEM_CAP: usize = 16;

/// Safety factor applied to cost predictions when deciding whether a
/// batch's earliest member deadline is at risk: a predicted finish
/// within `deadline / DEADLINE_SAFETY` of the deadline already counts
/// as risky, absorbing cost-model error before it becomes a miss.
pub const DEADLINE_SAFETY: f64 = 1.5;

/// Bounded-retry policy for device faults, with simulated exponential
/// backoff between attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts beyond the first before a job degrades. `0` disables
    /// retrying entirely.
    pub max_retries: u32,
    /// Simulated backoff before the first retry, µs.
    pub backoff_us: f64,
    /// Backoff growth factor per further retry.
    pub backoff_multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_us: 100.0,
            backoff_multiplier: 2.0,
        }
    }
}

/// Per-device circuit breaker: after `threshold` *consecutive* faults
/// the device is quarantined for `cooldown_us` of simulated time, then
/// re-probed (half-open) by the next batch scheduled onto it — a
/// success closes the breaker, another fault re-opens it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive device faults that trip the breaker.
    pub threshold: u32,
    /// Simulated quarantine length, µs.
    pub cooldown_us: f64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 3,
            cooldown_us: 5_000.0,
        }
    }
}

/// Engine shape: which devices to pool, how to queue/coalesce, and how
/// to behave when devices fault.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// One simulated device per entry.
    pub devices: Vec<DeviceSpec>,
    /// Maximum queries [`TopKEngine::submit`] accepts before a drain.
    pub queue_capacity: usize,
    /// Maximum same-`(N, K)` queries fused into one batch launch.
    /// `1` disables coalescing.
    pub coalescing_window: usize,
    /// Seeded chaos schedule installed on every pool device at
    /// construction; `None` (the default) injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Retry policy for device faults.
    pub retry: RetryPolicy,
    /// Circuit-breaker policy for unhealthy devices.
    pub breaker: BreakerConfig,
    /// Default per-query deadline applied at [`TopKEngine::submit`],
    /// µs of simulated time after drain start; `None` means no
    /// deadline. [`TopKEngine::submit_with_deadline`] overrides it per
    /// query.
    pub deadline_us: Option<u64>,
    /// Whether queries degrade to the `topk-cpu` reference path when
    /// the retry budget or the device pool is exhausted (default
    /// `true`); when `false` they fail with a typed error instead.
    pub cpu_fallback: bool,
    /// Sanitizer switches set on every pool device (default both off).
    /// The sanitizer never perturbs simulated costs, so serving
    /// latencies and [`DrainReport::chaos_digest`] are unchanged;
    /// findings surface in [`DeviceReport::sanitizer`] and
    /// [`DrainReport::sanitizer`].
    pub sanitizer: SanitizerMode,
    /// Events the always-on [`FlightRecorder`] ring buffer retains
    /// (default 256, min 16). Recording is host-side bookkeeping only
    /// and never perturbs simulated time.
    pub flight_capacity: usize,
    /// Default per-query recall target applied at
    /// [`TopKEngine::submit`]. `1.0` (the default) means exact-only:
    /// the scheduler never considers the approximate rungs. Values
    /// below 1.0 let a batch whose deadline is at risk — or whose
    /// device pool has been halved by chaos — degrade to the
    /// two-stage or bucketed approximate algorithms, as long as the
    /// chosen configuration's analytic expected recall stays at or
    /// above the target.
    pub default_recall_target: f64,
}

impl EngineConfig {
    /// Config over the given devices with default queue capacity
    /// (1024), coalescing window (8), no fault injection, default
    /// retry/breaker policies, no deadline, CPU fallback enabled.
    pub fn new(devices: Vec<DeviceSpec>) -> Self {
        EngineConfig {
            devices,
            queue_capacity: 1024,
            coalescing_window: 8,
            fault_plan: None,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            deadline_us: None,
            cpu_fallback: true,
            sanitizer: SanitizerMode::default(),
            flight_capacity: 256,
            default_recall_target: 1.0,
        }
    }

    /// `devices` identical A100s — the paper's testbed, pooled.
    pub fn a100_pool(devices: usize) -> Self {
        EngineConfig::new(vec![DeviceSpec::a100(); devices.max(1)])
    }

    /// Builder-style override of the coalescing window.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.coalescing_window = window.max(1);
        self
    }

    /// Builder-style override of the queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Install a seeded fault plan on every pool device.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder-style override of the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder-style override of the circuit-breaker policy.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Apply a default deadline (simulated µs after drain start) to
    /// every subsequently submitted query.
    #[must_use]
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Enable or disable degradation to the CPU reference path.
    #[must_use]
    pub fn with_cpu_fallback(mut self, enabled: bool) -> Self {
        self.cpu_fallback = enabled;
        self
    }

    /// Set the sanitizer switches on every pool device.
    #[must_use]
    pub fn with_sanitizer(mut self, mode: SanitizerMode) -> Self {
        self.sanitizer = mode;
        self
    }

    /// Builder-style override of the flight-recorder ring capacity.
    #[must_use]
    pub fn with_flight_capacity(mut self, capacity: usize) -> Self {
        self.flight_capacity = capacity.max(16);
        self
    }

    /// Apply a default per-query recall target to every subsequently
    /// submitted query (clamped to `[0, 1]`). Below 1.0, queries may
    /// be served by the approximate rungs when the scheduler sees
    /// deadline risk or pool-capacity loss.
    #[must_use]
    pub fn with_recall_target(mut self, target: f64) -> Self {
        self.default_recall_target = target.clamp(0.0, 1.0);
        self
    }
}

/// Errors of the serving layer itself (selection errors travel inside
/// each query's [`QueryResult::outcome`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The bounded submission queue is full; drain before resubmitting.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Host-side answer to one query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The K selected (smallest) values.
    pub values: Vec<f32>,
    /// Original input positions of the selected values.
    pub indices: Vec<u32>,
    /// The K this query asked for.
    pub k: usize,
}

/// How a query's terminal result was produced — which rung of the
/// degradation ladder (GPU → retry → failover → CPU fallback → typed
/// error) answered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Served by the first device the query's batch was scheduled on
    /// (`retries` > 0 means the same device faulted and recovered).
    Gpu {
        /// Attempts beyond the first before the answer landed.
        retries: u32,
    },
    /// Served by a *different* device than first scheduled, after the
    /// original faulted.
    Failover {
        /// Attempts beyond the first before the answer landed.
        retries: u32,
    },
    /// Served on a device, but by an *approximate* algorithm: the
    /// scheduler traded recall for latency because the query's batch
    /// carried a recall target below 1.0 and either its deadline was
    /// at risk or chaos had halved the pool.
    /// [`QueryResult::est_recall`] carries the configuration's
    /// analytic expected recall (≥ the batch's target by
    /// construction).
    Approx {
        /// Which approximate algorithm answered.
        rung: ApproxRung,
        /// Attempts beyond the first before the answer landed.
        retries: u32,
    },
    /// Served by the host-side `topk-cpu` reference path after the
    /// retry budget or the device pool was exhausted.
    CpuFallback {
        /// GPU attempts made before degrading.
        retries: u32,
    },
    /// No answer: the query's [`QueryResult::outcome`] carries the
    /// terminal [`TopKError`].
    Failed,
}

/// The approximate rungs of the degradation ladder, in descending
/// preference order: two-stage (per-partition top-k′ then an exact
/// reduce — higher recall, two launches) before bucketed (one fused
/// launch keeping a few candidates per contiguous bucket — cheapest,
/// loosest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApproxRung {
    /// [`topk_core::TwoStageTopK`]: partition top-k′ + exact reduce.
    TwoStage,
    /// [`topk_core::BucketedTopK`]: single-pass per-bucket selection.
    Bucketed,
}

impl ApproxRung {
    /// Stable snake_case label, suitable as a metric/trace label.
    pub fn label(&self) -> &'static str {
        match self {
            ApproxRung::TwoStage => "approx_two_stage",
            ApproxRung::Bucketed => "approx_bucketed",
        }
    }
}

impl Served {
    /// Stable snake_case label, suitable as a metric/trace label.
    pub fn label(&self) -> &'static str {
        match self {
            Served::Gpu { .. } => "gpu",
            Served::Failover { .. } => "failover",
            Served::Approx { rung, .. } => rung.label(),
            Served::CpuFallback { .. } => "cpu_fallback",
            Served::Failed => "failed",
        }
    }

    /// Attempts beyond the first (0 for [`Served::Failed`]).
    pub fn retries(&self) -> u32 {
        match self {
            Served::Gpu { retries }
            | Served::Failover { retries }
            | Served::Approx { retries, .. }
            | Served::CpuFallback { retries } => *retries,
            Served::Failed => 0,
        }
    }
}

/// One drained query: outcome plus serving metrics.
///
/// All queries are modelled as arriving at simulated time zero of the
/// drain, so `latency_us = queue_wait_us + service time` on the device
/// that ran the query's batch.
#[derive(Debug, Clone)]
#[must_use = "per-query outcomes report errors through their Result"]
pub struct QueryResult {
    /// Submission id, as returned by [`TopKEngine::submit`].
    pub id: usize,
    /// Tracing span id minted for this query at submission.
    pub span: u64,
    /// Span the fused batch's kernel launches were tagged with (the
    /// lead query's span) — join against
    /// [`gpu_sim::KernelReport::span`] to find this query's launches.
    pub batch_span: u64,
    /// Which pool device served the query.
    pub device: usize,
    /// How many queries shared the fused launch (1 = not coalesced).
    pub batch_size: usize,
    /// Simulated µs the query waited while earlier batches ran.
    pub queue_wait_us: f64,
    /// Simulated µs from arrival to completion (wait + service).
    pub latency_us: f64,
    /// Which rung of the degradation ladder produced the answer.
    pub served: Served,
    /// Estimated recall of the answer: the analytic expected recall of
    /// the approximate configuration that served it, `1.0` for every
    /// exact rung (GPU, failover, CPU fallback), `0.0` for failed
    /// queries. Aggregated by [`DrainReport::percentile_recall`].
    pub est_recall: f64,
    /// The selection result, or why it failed.
    pub outcome: Result<QueryOutput, TopKError>,
}

/// Stage-level latency attribution: where a batch's (or a whole
/// drain's) simulated time went. Filled from the device [`Timeline`];
/// the attribution is pure post-hoc bookkeeping and never perturbs the
/// schedule it measures.
///
/// [`Timeline`]: gpu_sim::Timeline
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdown {
    /// Simulated µs spent queued before the batch (for a drain
    /// aggregate: summed over queries) — scheduling, earlier batches,
    /// backoff and quarantine waits.
    pub queue_wait_us: f64,
    /// Host↔device copy time, µs.
    pub transfer_us: f64,
    /// Selection-kernel execution time (histogram/filter/scan passes),
    /// µs.
    pub kernel_us: f64,
    /// Merge-kernel execution time (GridSelect-style block-merge
    /// phases), µs.
    pub merge_us: f64,
    /// Simulated backoff injected between fault retries, µs. Zero on
    /// per-batch rows; accumulated on the drain aggregate.
    pub retry_penalty_us: f64,
    /// Launch overhead, host sync and host compute, µs.
    pub other_us: f64,
}

impl StageBreakdown {
    /// Device-side service time: everything except queueing and retry
    /// backoff.
    pub fn device_us(&self) -> f64 {
        self.transfer_us + self.kernel_us + self.merge_us + self.other_us
    }

    /// The attribution as `(stage label, µs)` rows, in a stable order
    /// — ready for metric labels and trace args.
    pub fn rows(&self) -> [(&'static str, f64); 6] {
        [
            ("queue_wait", self.queue_wait_us),
            ("transfer", self.transfer_us),
            ("kernel", self.kernel_us),
            ("merge", self.merge_us),
            ("retry_penalty", self.retry_penalty_us),
            ("other", self.other_us),
        ]
    }
}

/// One coalesced batch as executed on a device.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Device that executed the batch.
    pub device: usize,
    /// Number of queries fused into the launch set.
    pub size: usize,
    /// Problem length shared by the batch.
    pub n: usize,
    /// K shared by the batch.
    pub k: usize,
    /// Span the batch's kernel launches were tagged with (the lead
    /// query's span).
    pub span: u64,
    /// Half-open index range into the device's
    /// [`DeviceReport::kernel_reports`] covering this batch's launches.
    /// Ranges are relative to *this drain's* reports — a persistent
    /// device's earlier history is not included.
    pub report_range: (usize, usize),
    /// Drain-relative device clock when the batch started, µs.
    pub start_us: f64,
    /// Drain-relative device clock when the batch finished, µs.
    pub end_us: f64,
    /// Where the batch's device time went (transfer vs. kernel vs.
    /// merge vs. overhead); `queue_wait_us` is the batch's start time.
    pub stages: StageBreakdown,
}

impl BatchRecord {
    /// Kernel launches this batch performed.
    pub fn kernel_launches(&self) -> usize {
        self.report_range.1 - self.report_range.0
    }
}

/// Everything one pool device did during a drain.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Pool index of the device.
    pub device: usize,
    /// Batches the device claimed and executed.
    pub batches: Vec<BatchRecord>,
    /// Device clock advance over this drain, µs. Devices persist
    /// across drains, so this is the drain's *delta*, not the device's
    /// lifetime clock.
    pub elapsed_us: f64,
    /// Device clock when this drain began, µs. Kernel-report and
    /// timeline timestamps are absolute device time; subtract this to
    /// get drain-relative times.
    pub clock_start_us: f64,
    /// Peak simulated device-memory use over the device's lifetime,
    /// bytes.
    pub mem_high_water: usize,
    /// Bytes still allocated after the last batch — nonzero means a
    /// query path leaked device memory.
    pub mem_allocated_after: usize,
    /// Every kernel launch *of this drain*, in execution order
    /// (batches index into this via [`BatchRecord::report_range`]).
    /// Earlier drains' launches on the same persistent device are
    /// deliberately excluded.
    pub kernel_reports: Vec<KernelReport>,
    /// Whether the device is marked failed (worker panic or device
    /// hang) — it takes no further work for the engine's lifetime. A
    /// failed device may legitimately hold leaked scratch bytes from
    /// its mid-flight batch.
    pub failed: bool,
    /// Whether the device was still inside a circuit-breaker
    /// quarantine when the drain finished.
    pub quarantined: bool,
    /// Injected faults that fired on this device *during this drain*,
    /// in firing order. Empty without a
    /// [`EngineConfig::fault_plan`].
    pub fault_events: Vec<FaultEvent>,
    /// Sanitizer occurrences flagged on this device *during this
    /// drain* (zero without [`EngineConfig::sanitizer`]). Deduplicated
    /// findings accumulate on the device; read them via the engine's
    /// [`TopKEngine::sanitizer_findings`].
    pub sanitizer: SanitizerCounts,
}

/// Result of [`TopKEngine::drain`]: per-query results in submission
/// order plus per-device execution reports.
#[derive(Debug, Clone)]
#[must_use = "drain reports carry every query's Result"]
pub struct DrainReport {
    /// One entry per drained query, sorted by submission id.
    pub results: Vec<QueryResult>,
    /// One entry per pool device.
    pub devices: Vec<DeviceReport>,
    /// Algorithm-level event deltas over the drain (AIR pass /
    /// adaptive / early-stop decisions, GridSelect merges) from
    /// [`topk_core::obs`]. Process-wide: concurrent engines in one
    /// process see each other's events.
    pub algo: AlgoSnapshot,
    /// Batch re-executions after a device fault (attempts beyond each
    /// job's first).
    pub retries: u64,
    /// Queries ultimately served by a different device than first
    /// scheduled.
    pub failovers: u64,
    /// Queries served by the CPU reference path.
    pub cpu_fallbacks: u64,
    /// Queries served by the two-stage approximate rung
    /// ([`Served::Approx`] with [`ApproxRung::TwoStage`]).
    pub approx_two_stage: u64,
    /// Queries served by the bucketed approximate rung
    /// ([`Served::Approx`] with [`ApproxRung::Bucketed`]).
    pub approx_bucketed: u64,
    /// Queries terminally failed with
    /// [`TopKError::DeadlineExceeded`].
    pub deadline_misses: u64,
    /// Circuit-breaker quarantines tripped during this drain.
    pub quarantines: u64,
    /// Sanitizer occurrences over all pool devices during this drain
    /// (sum of every [`DeviceReport::sanitizer`]). Deliberately *not*
    /// folded into [`DrainReport::chaos_digest`]: digests stay
    /// comparable between sanitized and unsanitized runs, which is how
    /// CI proves the sanitizer is cost-invisible.
    pub sanitizer: SanitizerCounts,
    /// Drain-wide stage-level latency attribution: per-batch device
    /// stages summed over every batch, `queue_wait_us` summed over
    /// every query, and the simulated retry backoff in
    /// `retry_penalty_us`. Deliberately *not* folded into
    /// [`DrainReport::chaos_digest`], so digests stay comparable with
    /// profiling consumers on or off.
    pub stages: StageBreakdown,
}

impl DrainReport {
    /// Simulated makespan: the busiest device's clock, µs.
    pub fn makespan_us(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.elapsed_us)
            .fold(0.0, f64::max)
    }

    /// Simulated throughput over the whole drain (all queries,
    /// including failed ones, over the makespan).
    pub fn queries_per_sec(&self) -> f64 {
        let span = self.makespan_us();
        if span <= 0.0 {
            return 0.0;
        }
        self.results.len() as f64 / (span * 1e-6)
    }

    /// Batches that actually fused ≥ 2 queries into one launch set.
    pub fn fused_batches(&self) -> usize {
        self.devices
            .iter()
            .flat_map(|d| &d.batches)
            .filter(|b| b.size >= 2)
            .count()
    }

    /// `field` of every successful query where it is finite, in
    /// result order — the sample all four statistics below read.
    fn successful(&self, field: fn(&QueryResult) -> f64) -> Vec<f64> {
        self.results
            .iter()
            .filter(|r| r.outcome.is_ok() && field(r).is_finite())
            .map(field)
            .collect()
    }

    /// Mean simulated latency over successful queries, µs. `0.0` when
    /// no query succeeded — empty and all-errored drains report zero,
    /// never NaN.
    pub fn mean_latency_us(&self) -> f64 {
        mean(&self.successful(|r| r.latency_us))
    }

    /// Exact latency percentile over successful queries (nearest-rank,
    /// `q ∈ [0, 1]`), µs. `0.0` when no query succeeded — empty and
    /// all-errored drains report zero, never NaN, so the value is
    /// always safe to export to Prometheus. Unlike the histogram
    /// estimate in [`EngineMetrics`], this is computed from the raw
    /// per-query latencies.
    pub fn percentile_latency_us(&self, q: f64) -> f64 {
        nearest_rank(self.successful(|r| r.latency_us), q, f64::total_cmp)
    }

    /// Median simulated latency over successful queries, µs.
    pub fn p50_latency_us(&self) -> f64 {
        self.percentile_latency_us(0.50)
    }

    /// 99th-percentile simulated latency over successful queries, µs.
    pub fn p99_latency_us(&self) -> f64 {
        self.percentile_latency_us(0.99)
    }

    /// Estimated-recall floor met by a `q` fraction of successful
    /// queries (nearest-rank over the *descending* recall
    /// distribution): `percentile_recall(0.99)` is the recall all but
    /// the worst 1% of queries meet or exceed. Exact-only drains
    /// report `1.0`; drains with no successful query report `0.0`
    /// (never NaN).
    pub fn percentile_recall(&self, q: f64) -> f64 {
        nearest_rank(self.successful(|r| r.est_recall), q, |a, b| b.total_cmp(a))
    }

    /// Median estimated recall over successful queries.
    pub fn p50_recall(&self) -> f64 {
        self.percentile_recall(0.50)
    }

    /// Estimated-recall floor all but the worst 1% of successful
    /// queries meet.
    pub fn p99_recall(&self) -> f64 {
        self.percentile_recall(0.99)
    }

    /// Mean estimated recall over successful queries (`0.0` when none
    /// succeeded, never NaN).
    pub fn mean_est_recall(&self) -> f64 {
        mean(&self.successful(|r| r.est_recall))
    }

    /// A deterministic text summary of the whole drain: one line per
    /// query (id, serving rung, outcome kind, an FNV-1a hash of the
    /// answer bits and latency), one line per device (failure /
    /// quarantine state and the injected-fault schedule), and a final
    /// combined digest line. Two drains of the same workload under the
    /// same [`gpu_sim::FaultPlan`] seed must render identical digests
    /// — CI enforces exactly that by diffing two runs.
    pub fn chaos_digest(&self) -> String {
        fn fnv(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
        let mut out = String::new();
        let mut total = FNV_OFFSET;
        for r in &self.results {
            let mut qh = FNV_OFFSET;
            let kind = match &r.outcome {
                Ok(o) => {
                    for v in &o.values {
                        fnv(&mut qh, &v.to_bits().to_le_bytes());
                    }
                    for i in &o.indices {
                        fnv(&mut qh, &i.to_le_bytes());
                    }
                    "ok"
                }
                Err(e) => {
                    fnv(&mut qh, e.kind().as_bytes());
                    e.kind()
                }
            };
            fnv(&mut qh, &r.latency_us.to_bits().to_le_bytes());
            let line = format!(
                "q{} served={} retries={} {} {:016x}\n",
                r.id,
                r.served.label(),
                r.served.retries(),
                kind,
                qh
            );
            fnv(&mut total, line.as_bytes());
            out.push_str(&line);
        }
        for d in &self.devices {
            let faults: Vec<String> = d
                .fault_events
                .iter()
                .map(|f| format!("{}@{}", f.kind.label(), f.seq))
                .collect();
            let line = format!(
                "d{} failed={} quarantined={} faults=[{}]\n",
                d.device,
                d.failed,
                d.quarantined,
                faults.join(",")
            );
            fnv(&mut total, line.as_bytes());
            out.push_str(&line);
        }
        out.push_str(&format!(
            "retries={} failovers={} cpu_fallbacks={} deadline_misses={} quarantines={}\n",
            self.retries,
            self.failovers,
            self.cpu_fallbacks,
            self.deadline_misses,
            self.quarantines
        ));
        // Recall accounting rides in the digest too: fixed-precision
        // renders of deterministic analytic values, so same-seed runs
        // still match bit-for-bit.
        out.push_str(&format!(
            "approx_two_stage={} approx_bucketed={} recall_p50={:.4} recall_p99={:.4}\n",
            self.approx_two_stage,
            self.approx_bucketed,
            self.p50_recall(),
            self.p99_recall()
        ));
        out.push_str(&format!("digest {total:016x}\n"));
        out
    }
}

/// Mean of `v`, `0.0` when empty (never NaN).
fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Nearest-rank `q`-quantile of `v` under the order `cmp`, `0.0` when
/// empty (never NaN).
fn nearest_rank(mut v: Vec<f64>, q: f64, cmp: fn(&f64, &f64) -> std::cmp::Ordering) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(cmp);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Point-in-time state of one pool device, accumulated across drains.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceSnapshot {
    /// Pool index of the device.
    pub device: usize,
    /// Simulated µs the device spent executing batches, over all
    /// drains so far.
    pub busy_us: f64,
    /// `busy_us` over the sum of drain makespans: 1.0 means this
    /// device was the critical path of every drain; low values mean it
    /// sat idle while siblings worked. 0.0 before the first drain.
    pub utilization: f64,
    /// Batches the device has executed.
    pub batches: u64,
    /// Kernel launches the device has performed.
    pub kernel_launches: u64,
    /// Health of the device: `"ok"`, `"quarantined"` or `"failed"`.
    pub health: &'static str,
    /// Lifetime injected/organic device faults observed on it.
    pub faults: u64,
}

/// Point-in-time state of the whole engine — the scrape-friendly
/// companion to the event-stream metrics in [`EngineMetrics`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineSnapshot {
    /// Queries waiting for the next drain.
    pub queue_depth: usize,
    /// Queries accepted by [`TopKEngine::submit`] so far.
    pub queries_submitted: u64,
    /// Queries drained with an `Ok` outcome.
    pub queries_completed: u64,
    /// Queries drained with an `Err` outcome.
    pub queries_failed: u64,
    /// Submissions refused with [`EngineError::QueueFull`].
    pub queue_rejections: u64,
    /// Drains performed.
    pub drains: u64,
    /// Error totals keyed by [`TopKError::kind`], one entry per kind
    /// (zeros included, in [`TopKError::KINDS`] order).
    pub errors: Vec<(&'static str, u64)>,
    /// Batch re-executions after device faults, over all drains.
    pub retries: u64,
    /// Queries served by a different device than first scheduled.
    pub failovers: u64,
    /// Queries served by the CPU reference path.
    pub cpu_fallbacks: u64,
    /// Queries served by the two-stage approximate rung, over all
    /// drains.
    pub approx_two_stage: u64,
    /// Queries served by the bucketed approximate rung, over all
    /// drains.
    pub approx_bucketed: u64,
    /// Queries terminally failed on their deadline.
    pub deadline_misses: u64,
    /// Circuit-breaker quarantine trips.
    pub quarantines: u64,
    /// Tuner plan-table hits over every drain — batches priced from a
    /// warm plan without re-running the cost model.
    pub tuner_plan_hits: u64,
    /// Tuner plan-table misses over every drain (cold buckets priced
    /// through the full cost model).
    pub tuner_plan_misses: u64,
    /// Tuner replans: observations drifted far enough from a bucket's
    /// prediction that the plan was re-derived.
    pub tuner_refinements: u64,
    /// One entry per pool device.
    pub devices: Vec<DeviceSnapshot>,
}

/// Cumulative per-device tallies behind [`DeviceSnapshot`].
#[derive(Debug, Clone, Copy, Default)]
struct DeviceStats {
    busy_us: f64,
    batches: u64,
    kernel_launches: u64,
}

impl DeviceStats {
    /// Busy time over `wall_us`, the sum of drain makespans (0.0 before
    /// the first drain).
    fn utilization(&self, wall_us: f64) -> f64 {
        if wall_us > 0.0 {
            self.busy_us / wall_us
        } else {
            0.0
        }
    }
}

/// Multi-device top-K serving engine. See the crate docs for the
/// serving model. Devices are created up front and **persist across
/// drains**: clocks, memory high-water marks and profiling history
/// carry over, as they would on a long-lived server.
pub struct TopKEngine {
    config: EngineConfig,
    pending: Vec<Pending>,
    next_id: usize,
    /// Next tracing span id: minted per engine, so an engine's
    /// artifacts do not depend on what else ran in the process. Never
    /// 0, which means "no span".
    next_span: u64,
    gpus: Vec<Gpu>,
    health: Vec<DeviceHealth>,
    /// The adaptive dispatcher. Persists across drains so its plan
    /// table warms up and its calibration keeps learning from observed
    /// batch latencies.
    selector: SelectK,
    metrics: EngineMetrics,
    /// Always-on bounded event ring; see [`crate::flight`].
    flight: FlightRecorder,
    /// Predicted-vs-observed cost accounting per plan bucket; persists
    /// across drains like the tuner it audits.
    drift: DriftTracker,
    /// Post-mortem JSON documents dumped by anomaly triggers, oldest
    /// first, capped at [`POST_MORTEM_CAP`].
    post_mortems: Vec<String>,
    post_mortems_dropped: u64,
    /// Makespan sum and per-device tallies: the snapshot counts no
    /// metric holds (the rest are read off [`EngineMetrics`]).
    wall_us: f64,
    device_stats: Vec<DeviceStats>,
}

impl TopKEngine {
    /// Engine over `config`'s device pool. When the config carries a
    /// [`FaultPlan`], every device gets its seeded injector here.
    ///
    /// # Panics
    /// If the pool is empty.
    pub fn new(config: EngineConfig) -> Self {
        assert!(!config.devices.is_empty(), "engine needs >= 1 device");
        let mut gpus: Vec<Gpu> = config
            .devices
            .iter()
            .map(|spec| Gpu::new(spec.clone()))
            .collect();
        if let Some(plan) = &config.fault_plan {
            for (dev, gpu) in gpus.iter_mut().enumerate() {
                gpu.set_fault_injector(plan.injector_for(dev));
            }
        }
        for gpu in &mut gpus {
            gpu.enable_sanitizer(config.sanitizer);
        }
        TopKEngine {
            pending: Vec::new(),
            next_id: 0,
            next_span: 1,
            gpus,
            health: vec![DeviceHealth::default(); config.devices.len()],
            selector: SelectK::default(),
            metrics: EngineMetrics::new(),
            flight: FlightRecorder::new(config.flight_capacity),
            drift: DriftTracker::new(),
            post_mortems: Vec::new(),
            post_mortems_dropped: 0,
            wall_us: 0.0,
            device_stats: vec![DeviceStats::default(); config.devices.len()],
            config,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's adaptive dispatcher (its tuner carries the plan
    /// table and calibration state accumulated over drains).
    pub fn selector(&self) -> &SelectK {
        &self.selector
    }

    /// Deduplicated sanitizer findings over the engine's lifetime, one
    /// list per pool device (empty lists when
    /// [`EngineConfig::sanitizer`] is off).
    pub fn sanitizer_findings(&self) -> Vec<Vec<gpu_sim::SanitizerFinding>> {
        self.gpus
            .iter()
            .map(|g| g.sanitizer_report().map_or_else(Vec::new, |r| r.findings))
            .collect()
    }

    /// Queries waiting for the next [`TopKEngine::drain`].
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The engine's metrics (histograms, counters, gauges).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Render every engine metric in the Prometheus text exposition
    /// format — the scrape endpoint's body.
    pub fn render_prometheus(&self) -> String {
        self.metrics.render_prometheus()
    }

    /// The always-on flight recorder: the last
    /// [`EngineConfig::flight_capacity`] engine events.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Post-mortem JSON documents dumped so far (oldest first), one
    /// per anomaly trigger — terminal query failure, deadline miss,
    /// breaker trip or device retirement. At most [`POST_MORTEM_CAP`]
    /// are retained; see [`TopKEngine::post_mortems_dropped`].
    pub fn post_mortems(&self) -> &[String] {
        &self.post_mortems
    }

    /// Drain the retained post-mortems (e.g. after writing them to
    /// disk), freeing their slots for future triggers.
    pub fn take_post_mortems(&mut self) -> Vec<String> {
        std::mem::take(&mut self.post_mortems)
    }

    /// Triggers that fired after the post-mortem store was full.
    pub fn post_mortems_dropped(&self) -> u64 {
        self.post_mortems_dropped
    }

    /// Cost-model drift accounting: predicted vs. observed latency per
    /// plan-table bucket, accumulated over every drain.
    pub fn drift(&self) -> &DriftTracker {
        &self.drift
    }

    /// The drift table rendered as an aligned text block.
    pub fn drift_table_text(&self) -> String {
        self.drift.render_text()
    }

    /// The tuner's per-family EMA calibration factors (empty when the
    /// dispatcher runs without a tuner).
    pub fn calibration(&self) -> Vec<(&'static str, f64)> {
        self.selector
            .tuner()
            .map(|t| t.calibration_snapshot())
            .unwrap_or_default()
    }

    /// Point-in-time engine state: queue depth, per-device utilisation
    /// and error totals.
    pub fn snapshot(&self) -> EngineSnapshot {
        let m = &self.metrics;
        let errors: Vec<(&'static str, u64)> = TopKError::KINDS
            .iter()
            .zip(&m.query_errors)
            .map(|(&kind, c)| (kind, c.get()))
            .collect();
        let queries_failed: u64 = errors.iter().map(|&(_, n)| n).sum();
        EngineSnapshot {
            queue_depth: self.pending.len(),
            queries_submitted: m.queries_submitted.get(),
            queries_completed: m.queries.get() - queries_failed,
            queries_failed,
            queue_rejections: m.queue_rejections.get(),
            drains: m.drains.get(),
            errors,
            retries: m.retries.get(),
            failovers: m.failovers.get(),
            cpu_fallbacks: m.cpu_fallbacks.get(),
            approx_two_stage: m.approx_two_stage.get(),
            approx_bucketed: m.approx_bucketed.get(),
            deadline_misses: m.deadline_misses.get(),
            quarantines: m.quarantines.get(),
            tuner_plan_hits: m.algo_total("topk_tuner_plan_hits_total"),
            tuner_plan_misses: m.algo_total("topk_tuner_plan_misses_total"),
            tuner_refinements: m.algo_total("topk_tuner_refinements_total"),
            devices: self
                .device_stats
                .iter()
                .enumerate()
                .map(|(dev, s)| DeviceSnapshot {
                    device: dev,
                    busy_us: s.busy_us,
                    utilization: s.utilization(self.wall_us),
                    batches: s.batches,
                    kernel_launches: s.kernel_launches,
                    health: self.health[dev].label(self.gpus[dev].elapsed_us()),
                    faults: self.health[dev].total_faults,
                })
                .collect(),
        }
    }

    /// Enqueue a top-K query (smallest `k` of `data`, with indices).
    ///
    /// Returns the query's submission id — [`DrainReport::results`] is
    /// sorted by it. Shape problems (`k == 0`, `k > data.len()`) are
    /// *not* rejected here; they come back as that query's
    /// [`TopKError`] so a bad query cannot poison the queue.
    pub fn submit(&mut self, data: Vec<f32>, k: usize) -> Result<usize, EngineError> {
        let deadline = self.config.deadline_us;
        let recall = self.config.default_recall_target;
        self.submit_inner(data, k, deadline, recall)
    }

    /// [`TopKEngine::submit`] with an explicit per-query deadline (µs
    /// of simulated time after the drain starts), overriding
    /// [`EngineConfig::deadline_us`]. A query that cannot be answered
    /// inside its deadline terminates with
    /// [`TopKError::DeadlineExceeded`].
    pub fn submit_with_deadline(
        &mut self,
        data: Vec<f32>,
        k: usize,
        deadline_us: u64,
    ) -> Result<usize, EngineError> {
        let recall = self.config.default_recall_target;
        self.submit_inner(data, k, Some(deadline_us), recall)
    }

    /// [`TopKEngine::submit`] with an explicit per-query recall target
    /// (clamped to `[0, 1]`), overriding
    /// [`EngineConfig::default_recall_target`]. Below 1.0 the query
    /// consents to being served by an approximate rung whose analytic
    /// expected recall is at least `recall_target`, but only when the
    /// scheduler sees deadline risk or pool-capacity loss — a healthy
    /// pool still serves it exactly.
    pub fn submit_with_recall(
        &mut self,
        data: Vec<f32>,
        k: usize,
        recall_target: f64,
    ) -> Result<usize, EngineError> {
        let deadline = self.config.deadline_us;
        self.submit_inner(data, k, deadline, recall_target)
    }

    fn submit_inner(
        &mut self,
        data: Vec<f32>,
        k: usize,
        deadline_us: Option<u64>,
        recall_target: f64,
    ) -> Result<usize, EngineError> {
        let capacity = self.config.queue_capacity;
        if self.pending.len() >= capacity {
            self.metrics.queue_rejections.inc();
            let reject = EngineEvent::QueueReject { capacity };
            self.flight.record(None, None, 0.0, reject);
            return Err(EngineError::QueueFull { capacity });
        }
        let id = self.next_id;
        self.next_id += 1;
        let span = self.next_span;
        self.next_span += 1;
        // One O(n) min/max pass over the host data buys the dispatcher
        // a distribution sketch: skewed queries route away from AIR's
        // degenerate histogram passes.
        let sketch = DistSketch::from_sample(&data);
        let n = data.len();
        self.flight
            .record(None, Some(span), 0.0, EngineEvent::Submit { id, n, k });
        self.pending.push(Pending {
            id,
            span,
            data,
            k,
            deadline_us,
            recall_target: recall_target.clamp(0.0, 1.0),
            sketch,
        });
        self.metrics.queries_submitted.inc();
        self.metrics.queue_depth.set(self.pending.len() as f64);
        Ok(id)
    }

    /// Run every queued query across the device pool and return all
    /// results plus per-device reports.
    ///
    /// The drain never aborts: a batch whose execution panics (e.g. an
    /// injected driver crash) has the panic captured, the device
    /// marked failed, and its queries rescheduled; every submitted
    /// query reaches exactly one terminal [`QueryResult`].
    pub fn drain(&mut self) -> DrainReport {
        let report = Drain::run(self);
        self.record_drain(&report);
        report
    }

    /// Fold one drain's outcome into the metrics registry and the
    /// per-device utilisation tallies.
    fn record_drain(&mut self, report: &DrainReport) {
        self.wall_us += report.makespan_us();
        for r in &report.results {
            self.metrics.record_query(r);
        }
        for d in &report.devices {
            let stats = &mut self.device_stats[d.device];
            stats.busy_us += d.elapsed_us;
            stats.batches += d.batches.len() as u64;
            stats.kernel_launches += d.kernel_reports.len() as u64;
            for b in &d.batches {
                self.metrics.record_batch(b);
            }
            self.metrics
                .kernel_launches
                .add(d.kernel_reports.len() as u64);
        }
        for (dev, stats) in self.device_stats.iter().enumerate() {
            let util = stats.utilization(self.wall_us);
            self.metrics.set_device_utilization(dev, util);
        }
        self.metrics.record_resilience(report);
        let labels: Vec<&str> = (0..self.gpus.len())
            .map(|d| self.health[d].label(self.gpus[d].elapsed_us()))
            .collect();
        let quarantined = labels.iter().filter(|&&l| l == "quarantined").count();
        let failed = labels.iter().filter(|&&l| l == "failed").count();
        self.metrics.set_health_gauges(quarantined, failed);
        self.metrics.record_algo(&report.algo);
        // Continuous profiling exports: per-kernel roofline rows, the
        // drain's stage attribution, cost-model drift and the tuner's
        // calibration state — all derived from data the drain already
        // collected, so exporting them costs no simulated time.
        for d in &report.devices {
            let rows = gpu_sim::roofline(&self.config.devices[d.device], &d.kernel_reports);
            self.metrics.record_roofline(d.device, &rows);
        }
        self.metrics.record_stages(&report.stages);
        for (key, entry) in self.drift.iter() {
            self.metrics
                .record_drift(&profiler::plan_key_label(key), entry);
        }
        for (family, factor) in self.calibration() {
            self.metrics.record_calibration(family, factor);
        }
        self.metrics.drains.inc();
        self.metrics.queue_depth.set(0.0);
    }
}

#[cfg(test)]
mod tests;
