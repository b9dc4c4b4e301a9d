//! # topk-engine — multi-device top-K serving layer
//!
//! The ROADMAP's north star is a system serving heavy top-K traffic,
//! not a benchmark loop: many concurrent queries of mixed shapes, a
//! pool of devices, and per-query accounting. This crate supplies that
//! layer on top of the fallible selection core:
//!
//! * [`TopKEngine`] owns a **bounded submission queue**
//!   ([`TopKEngine::submit`] refuses work beyond
//!   [`EngineConfig::queue_capacity`]) and a **pool of simulated
//!   devices** that one simulated-time scheduler shares out (see
//!   *Scheduling* below; the engine spawns no threads of its own).
//! * [`TopKEngine::drain`] **coalesces** queued queries with the same
//!   `(N, K)` shape into fused [`try_select_batch`] launches of up to
//!   [`EngineConfig::coalescing_window`] queries — the paper's §5.1
//!   batch-100 measurements show why: batching amortises launch
//!   overhead and fills the grid, so a fused launch beats `B`
//!   back-to-back single selections.
//! * Every batch routes through the [`SelectK`] **adaptive
//!   dispatcher**: each query's distribution sketch (computed at
//!   submission, merged per batch) and the batch's real `(N, K, B)`
//!   shape are priced through the cost-model-guided tuner
//!   ([`topk_core::tuner`]), measured batch latencies feed back via
//!   `SelectK::observe`, and the warmed plan table persists across
//!   drains ([`TopKEngine::plan_table_text`]). Every query comes back
//!   as its own [`QueryResult`] carrying a `Result` (errors are
//!   per-query data, never panics) plus simulated **queue-wait** and
//!   **latency** metrics read off the device clock.
//!
//! Scheduling is an **event-driven simulated-time loop**: each step
//! dispatches the runnable batch with the earliest start time onto the
//! device whose simulated clock frees up first. Block-level execution
//! inside every launch still fans out across the host `BlockPool`, so
//! the host stays parallel while the schedule itself is a pure function
//! of the submitted workload — which is what makes chaos runs
//! bit-for-bit reproducible.
//!
//! ## Resilience
//!
//! The engine is built to *prove* the terminal-result invariant: every
//! submitted query reaches exactly one terminal [`QueryResult`], no
//! matter which simulated device fails, hangs or slows down
//! (`DESIGN.md` §Fault model & resilience):
//!
//! * [`EngineConfig::with_faults`] installs a seeded
//!   [`gpu_sim::FaultPlan`] on every pool device; injected faults
//!   surface as typed [`TopKError`]s through the fallible core.
//! * Device faults are retried under a bounded [`RetryPolicy`] with
//!   simulated backoff; a retry may land on another device
//!   (**failover**).
//! * A per-device circuit breaker ([`BreakerConfig`]) quarantines a
//!   device after N consecutive faults and re-probes it after a
//!   cooldown; a worker panic or a device hang marks the device
//!   **failed** for good, and `drain` never aborts — the panic is
//!   captured and the batch rescheduled.
//! * When the retry budget or the device pool is exhausted, queries
//!   degrade to the `topk-cpu` reference path (unless
//!   [`EngineConfig::with_cpu_fallback`] disables it, in which case
//!   they fail with a typed error).
//! * [`QueryResult::served`] records which rung of that ladder
//!   produced the answer; [`DrainReport::chaos_digest`] renders the
//!   whole drain as a deterministic text summary CI can diff across
//!   same-seed runs.
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
//! ## Observability
//!
//! The engine is instrumented end to end (see `DESIGN.md` §Observability):
//!
//! * [`TopKEngine::metrics`] exposes a [`topk_obs::MetricsRegistry`]
//!   with latency/queue-wait histograms, per-[`TopKError::kind`] error
//!   counters, and the algorithm-level counters from
//!   [`topk_core::obs`]; render it with
//!   [`TopKEngine::render_prometheus`].
//! * Every [`TopKEngine::submit`] mints a tracing span id; the batch
//!   it joins tags its kernel launches with its lead query's span
//!   ([`gpu_sim::KernelReport::span`]), so each [`QueryResult`] links
//!   back to the launches that served it via
//!   [`QueryResult::batch_span`].
//! * [`chrome_trace`] renders a [`DrainReport`] as a Chrome
//!   `chrome://tracing` / Perfetto JSON file with one kernel track and
//!   one query track per device.
//! * [`TopKEngine::snapshot`] returns an [`EngineSnapshot`] of queue
//!   depth, per-device utilisation and error totals.
//!
//! [`try_select_batch`]: topk_core::TopKAlgorithm::try_select_batch

pub mod flight;
pub mod metrics;
pub mod profiler;
pub mod trace;

pub use flight::{FlightEvent, FlightRecorder};
pub use metrics::EngineMetrics;
pub use profiler::{DriftEntry, DriftTracker};
pub use trace::chrome_trace;

// Fault-injection vocabulary, re-exported so engine users can build a
// [`FaultPlan`] without depending on `gpu-sim` directly.
pub use gpu_sim::{
    FaultEvent, FaultInjector, FaultKind, FaultPlan, SanitizerCounts, SanitizerMode, ScriptedFault,
};

use crate::flight::PmDevice;
use gpu_sim::{DeviceSpec, EventKind, Gpu, KernelReport, SimError};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use topk_core::tuner::{DistSketch, PlanKey, ProblemShape, TunedAlgo, Tuner};
use topk_core::{
    AlgoSnapshot, BucketedTopK, ScratchGuard, SelectK, TopKAlgorithm, TopKError, TwoStageTopK,
};

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
    /// Sanitizer analyses armed on every pool device (default all-off).
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
            sanitizer: SanitizerMode::off(),
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

    /// Arm sanitizer analyses on every pool device.
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

    /// Mean simulated latency over successful queries, µs. `0.0` when
    /// no query succeeded — empty and all-errored drains report zero,
    /// never NaN.
    pub fn mean_latency_us(&self) -> f64 {
        let ok: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.outcome.is_ok() && r.latency_us.is_finite())
            .map(|r| r.latency_us)
            .collect();
        if ok.is_empty() {
            return 0.0;
        }
        ok.iter().sum::<f64>() / ok.len() as f64
    }

    /// Exact latency percentile over successful queries (nearest-rank,
    /// `q ∈ [0, 1]`), µs. `0.0` when no query succeeded — empty and
    /// all-errored drains report zero, never NaN, so the value is
    /// always safe to export to Prometheus. Unlike the histogram
    /// estimate in [`EngineMetrics`], this is computed from the raw
    /// per-query latencies.
    pub fn percentile_latency_us(&self, q: f64) -> f64 {
        let mut ok: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.outcome.is_ok() && r.latency_us.is_finite())
            .map(|r| r.latency_us)
            .collect();
        if ok.is_empty() {
            return 0.0;
        }
        ok.sort_by(f64::total_cmp);
        let rank = (q.clamp(0.0, 1.0) * ok.len() as f64).ceil().max(1.0) as usize;
        ok[rank.min(ok.len()) - 1]
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
        let mut ok: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.outcome.is_ok() && r.est_recall.is_finite())
            .map(|r| r.est_recall)
            .collect();
        if ok.is_empty() {
            return 0.0;
        }
        ok.sort_by(|a, b| b.total_cmp(a));
        let rank = (q.clamp(0.0, 1.0) * ok.len() as f64).ceil().max(1.0) as usize;
        ok[rank.min(ok.len()) - 1]
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
        let ok: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.outcome.is_ok() && r.est_recall.is_finite())
            .map(|r| r.est_recall)
            .collect();
        if ok.is_empty() {
            return 0.0;
        }
        ok.iter().sum::<f64>() / ok.len() as f64
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

/// A submitted, not-yet-drained query.
struct Pending {
    id: usize,
    span: u64,
    data: Vec<f32>,
    k: usize,
    /// Per-query deadline, µs of simulated time after drain start.
    deadline_us: Option<u64>,
    /// Per-query recall target (`1.0` = exact-only).
    recall_target: f64,
    /// Distribution sketch computed at submission; routes the query's
    /// batch through the adaptive dispatcher.
    sketch: DistSketch,
}

/// A group of same-shape queries destined for one fused launch set.
/// The batch's kernel launches are tagged with `span` (the lead
/// query's span id).
struct Batch {
    n: usize,
    k: usize,
    span: u64,
    /// Most conservative member sketch (fewest shared prefix bits):
    /// every row in the fused launch has at least this much skew, which
    /// is the property the per-row radix passes depend on.
    sketch: DistSketch,
    /// Strictest member recall target (the max): an approximate rung
    /// may serve the fused batch only if every member tolerates it.
    recall_target: f64,
    queries: Vec<Pending>,
}

/// A schedulable unit of the drain: one batch plus its retry state.
struct Job {
    batch: Batch,
    /// Completed service attempts (0 before the first).
    attempts: u32,
    /// Earliest drain-relative simulated time the job may start
    /// (backoff after a fault).
    not_before_us: f64,
    /// Device of the first attempt — a final success elsewhere is a
    /// failover.
    first_device: Option<usize>,
    /// The most recent device fault, reported if the job exhausts the
    /// ladder without a CPU fallback.
    last_error: Option<TopKError>,
}

/// Circuit-breaker state of one pool device. Persists across drains,
/// like the device itself.
#[derive(Debug, Clone, Default)]
struct HealthState {
    /// Device faults since the last success.
    consecutive_faults: u32,
    /// Absolute device-clock time until which the device is
    /// quarantined.
    quarantined_until_us: f64,
    /// Permanently failed (worker panic or device hang).
    failed: bool,
    /// Lifetime device faults.
    total_faults: u64,
    /// Lifetime quarantine trips.
    quarantines: u64,
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

/// Multi-device top-K serving engine. See the crate docs for the
/// serving model. Devices are created up front and **persist across
/// drains**: clocks, memory high-water marks and profiling history
/// carry over, as they would on a long-lived server.
pub struct TopKEngine {
    config: EngineConfig,
    pending: Vec<Pending>,
    next_id: usize,
    gpus: Vec<Gpu>,
    health: Vec<HealthState>,
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
    tuner_plan_hits: u64,
    tuner_plan_misses: u64,
    tuner_refinements: u64,
    // Cumulative tallies for EngineSnapshot.
    queries_submitted: u64,
    queries_completed: u64,
    queries_failed: u64,
    queue_rejections: u64,
    drains: u64,
    errors: [u64; TopKError::KINDS.len()],
    retries: u64,
    failovers: u64,
    cpu_fallbacks: u64,
    approx_two_stage: u64,
    approx_bucketed: u64,
    deadline_misses: u64,
    quarantines: u64,
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
        if config.sanitizer.enabled() {
            for gpu in &mut gpus {
                gpu.enable_sanitizer(config.sanitizer);
            }
        }
        let device_stats = vec![DeviceStats::default(); config.devices.len()];
        let health = vec![HealthState::default(); config.devices.len()];
        let flight = FlightRecorder::new(config.flight_capacity);
        TopKEngine {
            config,
            pending: Vec::new(),
            next_id: 0,
            gpus,
            health,
            selector: SelectK::default(),
            metrics: EngineMetrics::new(),
            flight,
            drift: DriftTracker::new(),
            post_mortems: Vec::new(),
            post_mortems_dropped: 0,
            tuner_plan_hits: 0,
            tuner_plan_misses: 0,
            tuner_refinements: 0,
            queries_submitted: 0,
            queries_completed: 0,
            queries_failed: 0,
            queue_rejections: 0,
            drains: 0,
            errors: [0; TopKError::KINDS.len()],
            retries: 0,
            failovers: 0,
            cpu_fallbacks: 0,
            approx_two_stage: 0,
            approx_bucketed: 0,
            deadline_misses: 0,
            quarantines: 0,
            wall_us: 0.0,
            device_stats,
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

    /// The dispatcher's current plan table rendered as text (see
    /// [`topk_core::tuner::PlanTable::to_text`]) — a warm table can be
    /// persisted and loaded into a future deployment.
    pub fn plan_table_text(&self) -> Option<String> {
        self.selector.tuner().map(|t| t.table_text())
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
        EngineSnapshot {
            queue_depth: self.pending.len(),
            queries_submitted: self.queries_submitted,
            queries_completed: self.queries_completed,
            queries_failed: self.queries_failed,
            queue_rejections: self.queue_rejections,
            drains: self.drains,
            errors: TopKError::KINDS
                .iter()
                .zip(self.errors)
                .map(|(&k, n)| (k, n))
                .collect(),
            retries: self.retries,
            failovers: self.failovers,
            cpu_fallbacks: self.cpu_fallbacks,
            approx_two_stage: self.approx_two_stage,
            approx_bucketed: self.approx_bucketed,
            deadline_misses: self.deadline_misses,
            quarantines: self.quarantines,
            tuner_plan_hits: self.tuner_plan_hits,
            tuner_plan_misses: self.tuner_plan_misses,
            tuner_refinements: self.tuner_refinements,
            devices: self
                .device_stats
                .iter()
                .enumerate()
                .map(|(dev, s)| DeviceSnapshot {
                    device: dev,
                    busy_us: s.busy_us,
                    utilization: if self.wall_us > 0.0 {
                        s.busy_us / self.wall_us
                    } else {
                        0.0
                    },
                    batches: s.batches,
                    kernel_launches: s.kernel_launches,
                    health: self.health_label(dev),
                    faults: self.health[dev].total_faults,
                })
                .collect(),
        }
    }

    fn health_label(&self, dev: usize) -> &'static str {
        let h = &self.health[dev];
        if h.failed {
            "failed"
        } else if h.quarantined_until_us > self.gpus[dev].elapsed_us() {
            "quarantined"
        } else {
            "ok"
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
        if self.pending.len() >= self.config.queue_capacity {
            self.queue_rejections += 1;
            self.metrics.queue_rejections.inc();
            self.flight.record(
                "queue_reject",
                None,
                None,
                0.0,
                format!("capacity={}", self.config.queue_capacity),
            );
            return Err(EngineError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        let span = topk_obs::next_span_id();
        // One O(n) min/max pass over the host data buys the dispatcher
        // a distribution sketch: skewed queries route away from AIR's
        // degenerate histogram passes.
        let sketch = DistSketch::from_sample(&data);
        self.flight.record(
            "submit",
            None,
            Some(span),
            0.0,
            format!("id={id} n={} k={k}", data.len()),
        );
        self.pending.push(Pending {
            id,
            span,
            data,
            k,
            deadline_us,
            recall_target: recall_target.clamp(0.0, 1.0),
            sketch,
        });
        self.queries_submitted += 1;
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
        let algo_before = topk_core::obs::counters().snapshot();
        let mut jobs: Vec<Job> = coalesce(
            std::mem::take(&mut self.pending),
            self.config.coalescing_window,
        )
        .into_iter()
        .map(|batch| Job {
            batch,
            attempts: 0,
            not_before_us: 0.0,
            first_device: None,
            last_error: None,
        })
        .collect();
        for job in &jobs {
            self.flight.record(
                "coalesce",
                None,
                Some(job.batch.span),
                0.0,
                format!(
                    "size={} n={} k={}",
                    job.batch.queries.len(),
                    job.batch.n,
                    job.batch.k
                ),
            );
        }

        let n_dev = self.gpus.len();
        let drain_t0: Vec<f64> = self.gpus.iter().map(|g| g.elapsed_us()).collect();
        let report_lo: Vec<usize> = self.gpus.iter().map(|g| g.reports().len()).collect();
        let fault_lo: Vec<usize> = self.gpus.iter().map(|g| g.fault_events().len()).collect();
        let san_lo: Vec<SanitizerCounts> = self
            .gpus
            .iter()
            .map(|g| {
                g.sanitizer_report()
                    .map_or_else(SanitizerCounts::default, |r| r.counts)
            })
            .collect();
        let quarantines_before: u64 = self.health.iter().map(|h| h.quarantines).sum();

        // Take the persistent selector out of `self` for the duration
        // of the drain (the loop needs `&mut self.gpus[dev]` alongside
        // it); restored before returning.
        let selector = std::mem::replace(&mut self.selector, SelectK::static_prior());
        let mut results: Vec<QueryResult> = Vec::new();
        let mut records: Vec<Vec<BatchRecord>> = vec![Vec::new(); n_dev];
        let mut retries: u64 = 0;
        let mut retry_penalty_us: f64 = 0.0;

        while !jobs.is_empty() {
            // Earliest-runnable job first; stable on ties so the
            // schedule is a pure function of the workload.
            let ji = (0..jobs.len())
                .min_by(|&a, &b| jobs[a].not_before_us.total_cmp(&jobs[b].not_before_us))
                .expect("jobs is non-empty");
            let mut job = jobs.remove(ji);

            // The non-failed device that can start the job soonest.
            // Quarantined devices compete with their quarantine-end
            // time: being scheduled after cooldown *is* the half-open
            // re-probe.
            let mut best: Option<(usize, f64)> = None;
            for (dev, &t0) in drain_t0.iter().enumerate() {
                if self.health[dev].failed {
                    continue;
                }
                let rel_clock = self.gpus[dev].elapsed_us() - t0;
                let quarantine_rel = (self.health[dev].quarantined_until_us - t0).max(0.0);
                let start = rel_clock.max(job.not_before_us).max(quarantine_rel);
                if best.is_none_or(|(_, s)| start < s) {
                    best = Some((dev, start));
                }
            }
            let Some((dev, start_at)) = best else {
                // Pool exhausted: every device failed. Degrade at the
                // latest clock any device reached.
                let now = (0..n_dev)
                    .map(|d| self.gpus[d].elapsed_us() - drain_t0[d])
                    .fold(job.not_before_us, f64::max);
                let step_seq = self.flight.recorded();
                degrade_job(job, now, &self.config, &mut results, &mut self.flight);
                self.maybe_post_mortem(
                    step_seq, &selector, &records, &drain_t0, &fault_lo, &san_lo,
                );
                continue;
            };

            job.attempts += 1;
            if job.first_device.is_none() {
                job.first_device = Some(dev);
            }
            let step_seq = self.flight.recorded();
            self.flight.record(
                "launch",
                Some(dev),
                Some(job.batch.span),
                start_at,
                format!(
                    "attempt={} size={} n={} k={}",
                    job.attempts,
                    job.batch.queries.len(),
                    job.batch.n,
                    job.batch.k
                ),
            );

            // Accuracy-ladder decision for this attempt: batches whose
            // recall target is below 1.0 may degrade to an approximate
            // rung when the deadline is at risk or chaos has halved
            // the healthy pool. Re-decided per attempt — a retry after
            // a fault sees the shrunken pool.
            let healthy = (0..n_dev)
                .filter(|&d| {
                    !self.health[d].failed
                        && self.health[d].quarantined_until_us <= self.gpus[d].elapsed_us()
                })
                .count();
            let rung = decide_rung(
                &job.batch,
                self.gpus[dev].spec(),
                &selector,
                start_at,
                healthy,
                n_dev,
            );
            if let Some(choice) = &rung {
                self.flight.record(
                    "degrade_rung",
                    Some(dev),
                    Some(job.batch.span),
                    start_at,
                    format!(
                        "rung={} cause={} recall_target={:.4} est_recall={:.4}",
                        choice.rung().label(),
                        choice.cause,
                        job.batch.recall_target,
                        choice.est_recall
                    ),
                );
            }

            // Advance the device to the job's start (backoff and
            // quarantine waits are simulated idle time).
            let rel_clock = self.gpus[dev].elapsed_us() - drain_t0[dev];
            if start_at > rel_clock {
                self.gpus[dev].host_compute("scheduler wait", start_at - rel_clock);
            }
            let start_us = self.gpus[dev].elapsed_us() - drain_t0[dev];
            let batch_report_lo = self.gpus[dev].reports().len() - report_lo[dev];
            let timeline_lo = self.gpus[dev].timeline().events().len();
            self.gpus[dev].set_span(job.batch.span);
            let outcome = {
                let gpu = &mut self.gpus[dev];
                let batch = &job.batch;
                let approx = rung.as_ref().map(|c| c.algo);
                catch_unwind(AssertUnwindSafe(|| {
                    run_batch(gpu, &selector, batch, approx)
                }))
            };
            self.gpus[dev].clear_span();
            let end_us = self.gpus[dev].elapsed_us() - drain_t0[dev];
            let stages = batch_stages(&self.gpus[dev], timeline_lo, start_us);
            records[dev].push(BatchRecord {
                device: dev,
                size: job.batch.queries.len(),
                n: job.batch.n,
                k: job.batch.k,
                span: job.batch.span,
                report_range: (
                    batch_report_lo,
                    self.gpus[dev].reports().len() - report_lo[dev],
                ),
                start_us,
                end_us,
                stages,
            });

            match outcome {
                Ok(Ok(outs)) => {
                    self.health[dev].consecutive_faults = 0;
                    // Close the tuning loop: the batch's measured
                    // service time recalibrates its plan bucket —
                    // exact attempts only, so approximate timings
                    // never pollute the exact cost model they were
                    // chosen to undercut.
                    if rung.is_none() {
                        let shape =
                            ProblemShape::new(job.batch.n, job.batch.k, job.batch.queries.len())
                                .with_sketch(job.batch.sketch);
                        // Drift accounting reads the plan this dispatch
                        // was priced with *before* observe() can replan
                        // the bucket — counter-neutrally, so plan-table
                        // hit/miss metrics are unperturbed.
                        if let Some(plan) = selector.tuner().and_then(|t| t.peek(&shape)) {
                            self.drift
                                .observe(PlanKey::of(&shape), &plan, end_us - start_us);
                        }
                        selector.observe(self.gpus[dev].spec(), &shape, end_us - start_us);
                    }
                    self.flight.record(
                        "batch_ok",
                        Some(dev),
                        Some(job.batch.span),
                        end_us,
                        format!("size={} attempt={}", job.batch.queries.len(), job.attempts),
                    );
                    if job.first_device != Some(dev) {
                        self.flight.record(
                            "failover",
                            Some(dev),
                            Some(job.batch.span),
                            end_us,
                            format!("first_device={}", job.first_device.unwrap_or(dev)),
                        );
                    }
                    let attempt_retries = job.attempts - 1;
                    // Approximation is the serving rung even when the
                    // attempt also failed over: the accuracy trade is
                    // the fact the caller must see.
                    let served_ok = match &rung {
                        Some(choice) => Served::Approx {
                            rung: choice.rung(),
                            retries: attempt_retries,
                        },
                        None if job.first_device == Some(dev) => Served::Gpu {
                            retries: attempt_retries,
                        },
                        None => Served::Failover {
                            retries: attempt_retries,
                        },
                    };
                    let est_recall = rung.as_ref().map_or(1.0, |c| c.est_recall);
                    for (q, out) in job.batch.queries.iter().zip(outs) {
                        let (served, est_recall, outcome) = match q.deadline_us {
                            // The answer exists but arrived late: the
                            // deadline verdict wins.
                            Some(dl) if end_us > dl as f64 => {
                                self.flight.record(
                                    "deadline_miss",
                                    Some(dev),
                                    Some(q.span),
                                    end_us,
                                    format!("id={} deadline_us={dl}", q.id),
                                );
                                (
                                    Served::Failed,
                                    0.0,
                                    Err(TopKError::DeadlineExceeded { deadline_us: dl }),
                                )
                            }
                            _ => (served_ok, est_recall, Ok(out)),
                        };
                        results.push(QueryResult {
                            id: q.id,
                            span: q.span,
                            batch_span: job.batch.span,
                            device: dev,
                            batch_size: job.batch.queries.len(),
                            queue_wait_us: start_us,
                            latency_us: end_us,
                            served,
                            est_recall,
                            outcome,
                        });
                    }
                }
                Ok(Err(e)) if !e.is_device_fault() => {
                    // The query's own fault (bad k, bad shape): it
                    // would fail identically on any device, so it is
                    // terminal and does not count against the device.
                    for q in &job.batch.queries {
                        self.flight.record(
                            "query_failed",
                            Some(dev),
                            Some(q.span),
                            end_us,
                            format!("id={} kind={}", q.id, e.kind()),
                        );
                        results.push(QueryResult {
                            id: q.id,
                            span: q.span,
                            batch_span: job.batch.span,
                            device: dev,
                            batch_size: job.batch.queries.len(),
                            queue_wait_us: start_us,
                            latency_us: end_us,
                            served: Served::Failed,
                            est_recall: 0.0,
                            outcome: Err(e.clone()),
                        });
                    }
                }
                Ok(Err(e)) => {
                    // Device fault: update the breaker, then retry,
                    // fail over or degrade.
                    let severe = matches!(&e, TopKError::Sim(SimError::DeviceHang { .. }));
                    let clock = self.gpus[dev].elapsed_us();
                    self.flight.record(
                        "device_fault",
                        Some(dev),
                        Some(job.batch.span),
                        end_us,
                        format!("kind={} severe={severe}", e.kind()),
                    );
                    let was_failed = self.health[dev].failed;
                    let was_quarantines = self.health[dev].quarantines;
                    note_fault(&mut self.health[dev], severe, &self.config.breaker, clock);
                    if self.health[dev].failed && !was_failed {
                        self.flight.record(
                            "device_failed",
                            Some(dev),
                            None,
                            end_us,
                            format!("kind={}", e.kind()),
                        );
                    } else if self.health[dev].quarantines > was_quarantines {
                        self.flight.record(
                            "breaker_open",
                            Some(dev),
                            None,
                            end_us,
                            format!(
                                "consecutive={} cooldown_us={:.0}",
                                self.health[dev].consecutive_faults,
                                self.config.breaker.cooldown_us
                            ),
                        );
                    }
                    job.last_error = Some(e);
                    requeue_or_degrade(
                        job,
                        end_us,
                        &self.config,
                        &mut jobs,
                        &mut results,
                        &mut retries,
                        &mut retry_penalty_us,
                        &mut self.flight,
                    );
                }
                Err(_panic) => {
                    // Worker panic (injected driver crash or a real
                    // bug): isolate it — mark the device failed and
                    // reschedule the batch. The device keeps whatever
                    // scratch its mid-flight batch held; it is out of
                    // the pool for good.
                    let clock = self.gpus[dev].elapsed_us();
                    self.flight.record(
                        "worker_panic",
                        Some(dev),
                        Some(job.batch.span),
                        end_us,
                        String::new(),
                    );
                    let was_failed = self.health[dev].failed;
                    note_fault(&mut self.health[dev], true, &self.config.breaker, clock);
                    if !was_failed {
                        self.flight.record(
                            "device_failed",
                            Some(dev),
                            None,
                            end_us,
                            "worker panic".to_string(),
                        );
                    }
                    requeue_or_degrade(
                        job,
                        end_us,
                        &self.config,
                        &mut jobs,
                        &mut results,
                        &mut retries,
                        &mut retry_penalty_us,
                        &mut self.flight,
                    );
                }
            }
            self.maybe_post_mortem(step_seq, &selector, &records, &drain_t0, &fault_lo, &san_lo);
        }

        let devices: Vec<DeviceReport> = records
            .into_iter()
            .enumerate()
            .map(|(dev, batches)| {
                let gpu = &self.gpus[dev];
                DeviceReport {
                    device: dev,
                    batches,
                    elapsed_us: gpu.elapsed_us() - drain_t0[dev],
                    clock_start_us: drain_t0[dev],
                    mem_high_water: gpu.mem_high_water(),
                    mem_allocated_after: gpu.mem_allocated(),
                    kernel_reports: gpu.reports()[report_lo[dev]..].to_vec(),
                    failed: self.health[dev].failed,
                    quarantined: self.health[dev].quarantined_until_us > gpu.elapsed_us(),
                    fault_events: gpu.fault_events()[fault_lo[dev]..].to_vec(),
                    sanitizer: gpu
                        .sanitizer_report()
                        .map_or_else(SanitizerCounts::default, |r| r.counts)
                        .delta_since(&san_lo[dev]),
                }
            })
            .collect();

        results.sort_by_key(|r| r.id);
        let algo = topk_core::obs::counters()
            .snapshot()
            .delta_since(&algo_before);
        let failovers = results
            .iter()
            .filter(|r| matches!(r.served, Served::Failover { .. }))
            .count() as u64;
        let cpu_fallbacks = results
            .iter()
            .filter(|r| matches!(r.served, Served::CpuFallback { .. }))
            .count() as u64;
        let approx_two_stage = results
            .iter()
            .filter(|r| {
                matches!(
                    r.served,
                    Served::Approx {
                        rung: ApproxRung::TwoStage,
                        ..
                    }
                )
            })
            .count() as u64;
        let approx_bucketed = results
            .iter()
            .filter(|r| {
                matches!(
                    r.served,
                    Served::Approx {
                        rung: ApproxRung::Bucketed,
                        ..
                    }
                )
            })
            .count() as u64;
        let deadline_misses = results
            .iter()
            .filter(|r| matches!(r.outcome, Err(TopKError::DeadlineExceeded { .. })))
            .count() as u64;
        let quarantines =
            self.health.iter().map(|h| h.quarantines).sum::<u64>() - quarantines_before;
        let mut sanitizer = SanitizerCounts::default();
        for d in &devices {
            sanitizer.add(&d.sanitizer);
        }
        // Stage attribution: device stages summed over batches,
        // queue-wait summed over queries, retry backoff from the
        // requeue path.
        let mut stages = StageBreakdown::default();
        for b in devices.iter().flat_map(|d| &d.batches) {
            stages.transfer_us += b.stages.transfer_us;
            stages.kernel_us += b.stages.kernel_us;
            stages.merge_us += b.stages.merge_us;
            stages.other_us += b.stages.other_us;
        }
        stages.queue_wait_us = results
            .iter()
            .map(|r| r.queue_wait_us)
            .filter(|w| w.is_finite())
            .sum();
        stages.retry_penalty_us = retry_penalty_us;
        let report = DrainReport {
            results,
            devices,
            algo,
            retries,
            failovers,
            cpu_fallbacks,
            approx_two_stage,
            approx_bucketed,
            deadline_misses,
            quarantines,
            sanitizer,
            stages,
        };
        self.selector = selector;
        self.record_drain(&report);
        report
    }

    /// If a trigger-kind event landed at or after `step_seq`, snapshot
    /// the flight recorder — plus per-device state, the drift table and
    /// the tuner calibration — into a post-mortem JSON document.
    /// Bounded: once [`POST_MORTEM_CAP`] documents are retained,
    /// further triggers only count
    /// [`TopKEngine::post_mortems_dropped`].
    fn maybe_post_mortem(
        &mut self,
        step_seq: u64,
        selector: &SelectK,
        records: &[Vec<BatchRecord>],
        drain_t0: &[f64],
        fault_lo: &[usize],
        san_lo: &[SanitizerCounts],
    ) {
        let Some((trigger, trigger_seq)) =
            self.flight.trigger_since(step_seq).map(|e| (e.kind, e.seq))
        else {
            return;
        };
        if self.post_mortems.len() >= POST_MORTEM_CAP {
            self.post_mortems_dropped += 1;
            return;
        }
        let clock_us = (0..self.gpus.len())
            .map(|d| self.gpus[d].elapsed_us() - drain_t0[d])
            .fold(0.0, f64::max);
        let devices: Vec<PmDevice> = (0..self.gpus.len())
            .map(|d| {
                let gpu = &self.gpus[d];
                PmDevice {
                    device: d,
                    health: self.health_label(d),
                    elapsed_us: gpu.elapsed_us() - drain_t0[d],
                    batches: records[d].len(),
                    faults: self.health[d].total_faults,
                    fault_events: gpu.fault_events()[fault_lo[d]..]
                        .iter()
                        .map(|f| format!("{}@{}", f.kind.label(), f.seq))
                        .collect(),
                    sanitizer_occurrences: gpu
                        .sanitizer_report()
                        .map_or_else(SanitizerCounts::default, |r| r.counts)
                        .delta_since(&san_lo[d])
                        .total(),
                }
            })
            .collect();
        let calibration = selector
            .tuner()
            .map(|t| t.calibration_snapshot())
            .unwrap_or_default();
        let json = flight::render_post_mortem(
            trigger,
            trigger_seq,
            clock_us,
            &self.flight,
            &devices,
            &self.drift.rows(),
            &calibration,
        );
        self.post_mortems.push(json);
    }

    /// Fold one drain's outcome into the metrics registry and the
    /// cumulative snapshot tallies.
    fn record_drain(&mut self, report: &DrainReport) {
        self.drains += 1;
        self.wall_us += report.makespan_us();
        for r in &report.results {
            self.metrics.record_query(r);
            match &r.outcome {
                Ok(_) => self.queries_completed += 1,
                Err(e) => {
                    self.queries_failed += 1;
                    let kind = e.kind();
                    let slot = TopKError::KINDS
                        .iter()
                        .position(|&k| k == kind)
                        .expect("kind() values come from KINDS");
                    self.errors[slot] += 1;
                }
            }
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
        let wall = self.wall_us;
        for (dev, stats) in self.device_stats.iter().enumerate() {
            let util = if wall > 0.0 {
                stats.busy_us / wall
            } else {
                0.0
            };
            self.metrics.set_device_utilization(dev, util);
        }
        self.retries += report.retries;
        self.failovers += report.failovers;
        self.cpu_fallbacks += report.cpu_fallbacks;
        self.approx_two_stage += report.approx_two_stage;
        self.approx_bucketed += report.approx_bucketed;
        self.deadline_misses += report.deadline_misses;
        self.quarantines += report.quarantines;
        self.metrics.record_resilience(report);
        let quarantined = (0..self.gpus.len())
            .filter(|&d| self.health_label(d) == "quarantined")
            .count();
        let failed = self.health.iter().filter(|h| h.failed).count();
        self.metrics.set_health_gauges(quarantined, failed);
        self.metrics.record_algo(&report.algo);
        self.tuner_plan_hits += report.algo.tuner_plan_hits;
        self.tuner_plan_misses += report.algo.tuner_plan_misses;
        self.tuner_refinements += report.algo.tuner_refinements;
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

/// An approximate rung the scheduler chose for one batch attempt.
#[derive(Debug, Clone, Copy)]
struct RungChoice {
    /// The approximate configuration to execute (always a
    /// [`TunedAlgo::TwoStage`] or [`TunedAlgo::Bucketed`]).
    algo: TunedAlgo,
    /// Analytic expected recall of that configuration — ≥ the batch's
    /// recall target by construction.
    est_recall: f64,
    /// What triggered the degradation: `"deadline_risk"` or
    /// `"capacity_loss"`.
    cause: &'static str,
}

impl RungChoice {
    fn rung(&self) -> ApproxRung {
        match self.algo {
            TunedAlgo::Bucketed { .. } => ApproxRung::Bucketed,
            _ => ApproxRung::TwoStage,
        }
    }
}

/// Decide which rung of the accuracy ladder a batch attempt runs on.
///
/// Exact (`None`) is the default. A batch is considered for the
/// approximate rungs only when its coalesced (strictest-member) recall
/// target is below 1.0 *and* the scheduler sees trouble ahead:
///
/// * **deadline risk** — the predicted exact-path cost (the tuner's
///   cached plan for this shape bucket, or the cheapest cold
///   prediction over the exact candidate set), scaled by
///   [`DEADLINE_SAFETY`], overruns the batch's earliest member
///   deadline from `start_us`; or
/// * **capacity loss** — at most half the pool is healthy
///   (non-failed, non-quarantined), so queue pressure concentrates on
///   the survivors.
///
/// The ladder is exact → two-stage → bucketed:
/// [`Tuner::approx_candidates`] offers two-stage first (higher
/// recall), and the decision descends to bucketed only when the
/// two-stage prediction *still* overruns the deadline. Every offered
/// candidate already clears the recall target analytically, so the
/// choice can never violate it. Purely a function of simulated state —
/// same workload and fault seed, same rungs.
fn decide_rung(
    batch: &Batch,
    spec: &DeviceSpec,
    selector: &SelectK,
    start_us: f64,
    healthy: usize,
    pool: usize,
) -> Option<RungChoice> {
    if batch.recall_target >= 1.0 {
        return None;
    }
    let shape = ProblemShape::new(batch.n, batch.k, batch.queries.len()).with_sketch(batch.sketch);
    let capacity_loss = healthy * 2 <= pool;
    let earliest_deadline = batch.queries.iter().filter_map(|q| q.deadline_us).min();
    let exact_us = selector.tuner().and_then(|t| {
        t.peek(&shape).map(|p| p.predicted_us).or_else(|| {
            Tuner::candidates(spec, &shape)
                .into_iter()
                .filter_map(|a| t.predict_us(spec, &shape, a))
                .min_by(f64::total_cmp)
        })
    });
    let misses = |predicted: Option<f64>| match (earliest_deadline, predicted) {
        (Some(dl), Some(us)) => start_us + us * DEADLINE_SAFETY > dl as f64,
        _ => false,
    };
    let deadline_risk = misses(exact_us);
    if !deadline_risk && !capacity_loss {
        return None;
    }
    let cause = if deadline_risk {
        "deadline_risk"
    } else {
        "capacity_loss"
    };
    let mut chosen = None;
    for algo in Tuner::approx_candidates(spec, &shape, batch.recall_target) {
        chosen = Some(algo);
        let predicted = selector
            .tuner()
            .and_then(|t| t.predict_us(spec, &shape, algo));
        if !misses(predicted) {
            break;
        }
    }
    let algo = chosen?;
    let est_recall = match algo {
        TunedAlgo::Bucketed { per_bucket } => {
            BucketedTopK::new(per_bucket as usize).expected_recall(batch.k)
        }
        TunedAlgo::TwoStage {
            partitions,
            k_prime,
        } => TwoStageTopK::new(partitions as usize, k_prime as usize).expected_recall(batch.k),
        _ => 1.0,
    };
    Some(RungChoice {
        algo,
        est_recall,
        cause,
    })
}

/// Fold one device fault into the breaker state: severe faults (hang,
/// panic) fail the device outright; otherwise `threshold` consecutive
/// faults trip a quarantine until `cooldown_us` past `clock_us`.
fn note_fault(health: &mut HealthState, severe: bool, breaker: &BreakerConfig, clock_us: f64) {
    health.total_faults += 1;
    health.consecutive_faults += 1;
    if severe {
        health.failed = true;
    } else if health.consecutive_faults >= breaker.threshold {
        health.quarantined_until_us = clock_us + breaker.cooldown_us;
        health.quarantines += 1;
    }
}

/// After a device fault: requeue the job with backoff if it has retry
/// budget left (expiring queries whose deadline the backoff already
/// overruns), otherwise degrade it.
#[allow(clippy::too_many_arguments)]
fn requeue_or_degrade(
    mut job: Job,
    now_us: f64,
    config: &EngineConfig,
    jobs: &mut Vec<Job>,
    results: &mut Vec<QueryResult>,
    retries: &mut u64,
    retry_penalty_us: &mut f64,
    flight: &mut FlightRecorder,
) {
    if job.attempts > config.retry.max_retries {
        degrade_job(job, now_us, config, results, flight);
        return;
    }
    let backoff = config.retry.backoff_us
        * config
            .retry
            .backoff_multiplier
            .powi(job.attempts.saturating_sub(1) as i32);
    job.not_before_us = now_us + backoff.max(0.0);

    // A retry cannot start before `not_before_us`; queries whose
    // deadline is already behind it are hopeless — terminate them now
    // instead of burning a device attempt on them.
    let not_before = job.not_before_us;
    let (expired, live): (Vec<Pending>, Vec<Pending>) = job
        .batch
        .queries
        .into_iter()
        .partition(|q| q.deadline_us.is_some_and(|dl| (dl as f64) < not_before));
    job.batch.queries = live;
    for q in expired {
        let dl = q.deadline_us.expect("partition keeps only deadlined");
        flight.record(
            "deadline_miss",
            job.first_device,
            Some(q.span),
            now_us,
            format!("id={} deadline_us={dl} expired during backoff", q.id),
        );
        results.push(QueryResult {
            id: q.id,
            span: q.span,
            batch_span: job.batch.span,
            device: job.first_device.unwrap_or(0),
            batch_size: 1,
            queue_wait_us: now_us,
            latency_us: now_us,
            served: Served::Failed,
            est_recall: 0.0,
            outcome: Err(TopKError::DeadlineExceeded { deadline_us: dl }),
        });
    }
    if job.batch.queries.is_empty() {
        return;
    }
    *retries += 1;
    *retry_penalty_us += backoff.max(0.0);
    flight.record(
        "retry",
        job.first_device,
        Some(job.batch.span),
        now_us,
        format!(
            "attempt={} backoff_us={:.1}",
            job.attempts,
            backoff.max(0.0)
        ),
    );
    jobs.push(job);
}

/// Simulated host cost of the CPU reference selection, µs: a fixed
/// dispatch overhead plus a linear scan term. Deliberately far slower
/// per element than a healthy device — degradation trades latency for
/// a terminal answer.
fn cpu_select_us(n: usize) -> f64 {
    20.0 + n as f64 * 0.002
}

/// Last rung of the ladder: serve every query of the job on the CPU
/// reference path (when enabled and the shape allows), otherwise
/// terminate it with the job's last device error or
/// [`TopKError::PoolExhausted`].
fn degrade_job(
    job: Job,
    now_us: f64,
    config: &EngineConfig,
    results: &mut Vec<QueryResult>,
    flight: &mut FlightRecorder,
) {
    let device = job.first_device.unwrap_or(0);
    let batch_size = job.batch.queries.len();
    for q in &job.batch.queries {
        let (served, latency_us, outcome) = if !config.cpu_fallback {
            let err = job.last_error.clone().unwrap_or(TopKError::PoolExhausted {
                attempts: job.attempts,
            });
            (Served::Failed, now_us, Err(err))
        } else if let Some(err) = TopKError::check_k("cpu-fallback", q.data.len(), q.k, None) {
            (Served::Failed, now_us, Err(err))
        } else {
            let end = now_us + cpu_select_us(q.data.len());
            match q.deadline_us {
                Some(dl) if end > dl as f64 => (
                    Served::Failed,
                    end,
                    Err(TopKError::DeadlineExceeded { deadline_us: dl }),
                ),
                _ => {
                    let (values, indices) = topk_cpu::heap_topk(&q.data, q.k);
                    (
                        Served::CpuFallback {
                            retries: job.attempts,
                        },
                        end,
                        Ok(QueryOutput {
                            values,
                            indices,
                            k: q.k,
                        }),
                    )
                }
            }
        };
        match &outcome {
            Err(TopKError::DeadlineExceeded { deadline_us }) => {
                flight.record(
                    "deadline_miss",
                    Some(device),
                    Some(q.span),
                    latency_us,
                    format!("id={} deadline_us={deadline_us}", q.id),
                );
            }
            Err(e) => {
                flight.record(
                    "query_failed",
                    Some(device),
                    Some(q.span),
                    latency_us,
                    format!("id={} kind={}", q.id, e.kind()),
                );
            }
            Ok(_) => {
                flight.record(
                    "fallback",
                    Some(device),
                    Some(q.span),
                    latency_us,
                    format!("id={} cpu attempts={}", q.id, job.attempts),
                );
            }
        }
        results.push(QueryResult {
            id: q.id,
            span: q.span,
            batch_span: job.batch.span,
            device,
            batch_size,
            queue_wait_us: now_us,
            latency_us,
            served,
            // The CPU reference path is exact; failures carry none.
            est_recall: if outcome.is_ok() { 1.0 } else { 0.0 },
            outcome,
        });
    }
}

/// Attribute one batch's device time to stages from the device
/// [`Timeline`](gpu_sim::Timeline) slice the batch appended
/// (`timeline_lo..`).
fn batch_stages(gpu: &Gpu, timeline_lo: usize, queue_wait_us: f64) -> StageBreakdown {
    let mut s = StageBreakdown {
        queue_wait_us,
        ..StageBreakdown::default()
    };
    for e in &gpu.timeline().events()[timeline_lo..] {
        match &e.kind {
            EventKind::Kernel(name) if name.contains("merge") => s.merge_us += e.dur_us,
            EventKind::Kernel(_) => s.kernel_us += e.dur_us,
            EventKind::MemcpyHtoD | EventKind::MemcpyDtoH => s.transfer_us += e.dur_us,
            _ => s.other_us += e.dur_us,
        }
    }
    s
}

/// Group queries into same-`(N, K)` batches of at most `window`,
/// preserving submission order within and across batches.
fn coalesce(pending: Vec<Pending>, window: usize) -> Vec<Batch> {
    let window = window.max(1);
    let mut batches: Vec<Batch> = Vec::new();
    // Open (not yet full) batch per shape.
    let mut open: HashMap<(usize, usize), usize> = HashMap::new();
    for q in pending {
        let shape = (q.data.len(), q.k);
        match open.get(&shape) {
            Some(&bi) if batches[bi].queries.len() < window => {
                // The fused batch routes on its least-skewed member:
                // every row then has at least the claimed prefix.
                batches[bi].sketch.shared_prefix_bits = batches[bi]
                    .sketch
                    .shared_prefix_bits
                    .min(q.sketch.shared_prefix_bits);
                // …and degrades on its strictest member: the fused
                // launch may only approximate if every query agreed.
                batches[bi].recall_target = batches[bi].recall_target.max(q.recall_target);
                batches[bi].queries.push(q);
            }
            _ => {
                open.insert(shape, batches.len());
                batches.push(Batch {
                    n: shape.0,
                    k: shape.1,
                    span: q.span,
                    sketch: q.sketch,
                    recall_target: q.recall_target,
                    queries: vec![q],
                });
            }
        }
    }
    batches
}

/// Upload, select (fused when the batch has > 1 query), download.
/// Device-side inputs and outputs are freed on every non-panicking
/// path — including injected-fault errors — so the next batch on this
/// device sees honest `mem_allocated`.
///
/// `approx` carries the scheduler's accuracy-ladder decision: `None`
/// routes through the exact adaptive dispatcher; a
/// [`TunedAlgo::TwoStage`] or [`TunedAlgo::Bucketed`] executes that
/// approximate configuration directly.
fn run_batch(
    gpu: &mut Gpu,
    selector: &SelectK,
    batch: &Batch,
    approx: Option<TunedAlgo>,
) -> Result<Vec<QueryOutput>, TopKError> {
    let mut ws = ScratchGuard::new();
    let r = batch_passes(gpu, &mut ws, selector, batch, approx);
    ws.release(gpu);
    r
}

fn batch_passes(
    gpu: &mut Gpu,
    ws: &mut ScratchGuard,
    selector: &SelectK,
    batch: &Batch,
    approx: Option<TunedAlgo>,
) -> Result<Vec<QueryOutput>, TopKError> {
    let mut inputs = Vec::with_capacity(batch.queries.len());
    for q in &batch.queries {
        let buf = gpu.try_htod(&format!("query{}", q.id), &q.data)?;
        ws.adopt(&buf);
        inputs.push(buf);
    }
    let outs = match approx {
        Some(TunedAlgo::Bucketed { per_bucket }) => {
            let algo = BucketedTopK::new(per_bucket as usize);
            if inputs.len() == 1 {
                vec![algo.try_select(gpu, &inputs[0], batch.k)?]
            } else {
                algo.try_select_batch(gpu, &inputs, batch.k)?
            }
        }
        Some(TunedAlgo::TwoStage {
            partitions,
            k_prime,
        }) => {
            let algo = TwoStageTopK::new(partitions as usize, k_prime as usize);
            if inputs.len() == 1 {
                vec![algo.try_select(gpu, &inputs[0], batch.k)?]
            } else {
                algo.try_select_batch(gpu, &inputs, batch.k)?
            }
        }
        _ if inputs.len() == 1 => {
            vec![selector.try_select_with_sketch(gpu, &inputs[0], batch.k, batch.sketch)?]
        }
        _ => selector.try_select_batch_with_sketch(gpu, &inputs, batch.k, batch.sketch)?,
    };
    // Read back through the fallible path (an injected corruption must
    // surface, not panic), but keep freeing every output buffer even
    // when an earlier readback failed.
    let mut host = Vec::with_capacity(outs.len());
    let mut first_err: Option<TopKError> = None;
    for out in outs {
        if first_err.is_none() {
            let read = gpu
                .try_dtoh(&out.values)
                .and_then(|values| gpu.try_dtoh(&out.indices).map(|indices| (values, indices)));
            match read {
                Ok((values, indices)) => host.push(QueryOutput {
                    values,
                    indices,
                    k: out.k,
                }),
                Err(e) => first_err = Some(e.into()),
            }
        }
        gpu.free(&out.values);
        gpu.free(&out.indices);
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(host),
    }
}

#[cfg(test)]
mod tests;
