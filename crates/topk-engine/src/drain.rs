//! The drain's scheduling core: coalesce the queue into jobs, then
//! [`place`] each next job on a device, run it, and settle its outcome
//! into results and [`EngineEvent`]s. Every fact is written once, by
//! [`Drain::emit`]; the drain's counts are folds over those events and
//! over its results.

use crate::flight::{self, EngineEvent, PmDevice};
use crate::health::{DeviceHealth, Trip};
use crate::rung::{decide_rung, RungChoice};
use crate::{
    ApproxRung, BatchRecord, DeviceReport, DrainReport, QueryOutput, QueryResult, Served,
    StageBreakdown, TopKEngine, POST_MORTEM_CAP,
};
use gpu_sim::{EventKind, Gpu, SanitizerCounts, SimError};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use topk_core::tuner::{DistSketch, PlanKey, ProblemShape, TunedAlgo};
use topk_core::{AlgoSnapshot, DeviceMatrix, ScratchGuard, SelectK, TopKError};

/// A submitted, not-yet-drained query.
pub(crate) struct Pending {
    pub(crate) id: usize,
    pub(crate) span: u64,
    pub(crate) data: Vec<f32>,
    pub(crate) k: usize,
    /// Per-query deadline, µs of simulated time after drain start.
    pub(crate) deadline_us: Option<u64>,
    /// Per-query recall target (`1.0` = exact-only).
    pub(crate) recall_target: f64,
    /// Distribution sketch computed at submission; routes the query's
    /// batch through the adaptive dispatcher.
    pub(crate) sketch: DistSketch,
}

/// A schedulable unit of the drain: a group of same-shape queries
/// destined for one fused launch set, plus its retry state. The
/// batch's kernel launches are tagged with `span` (the lead query's
/// span id).
pub(crate) struct Job {
    pub(crate) n: usize,
    pub(crate) k: usize,
    pub(crate) span: u64,
    /// Most conservative member sketch (fewest shared prefix bits):
    /// every row in the fused launch has at least this much skew, which
    /// is the property the per-row radix passes depend on.
    pub(crate) sketch: DistSketch,
    /// Strictest member recall target (the max): an approximate rung
    /// may serve the fused batch only if every member tolerates it.
    pub(crate) recall_target: f64,
    pub(crate) queries: Vec<Pending>,
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

impl Job {
    /// Member `q`'s result on `device` at drain-relative `(queue wait,
    /// latency)`: an answer is served as `ok` (rung, estimated recall),
    /// a failure as [`Served::Failed`] at recall 0.
    fn result(
        &self,
        q: &Pending,
        device: usize,
        (queue_wait_us, latency_us): (f64, f64),
        ok: (Served, f64),
        outcome: Result<QueryOutput, TopKError>,
    ) -> QueryResult {
        let (served, est_recall) = if outcome.is_ok() {
            ok
        } else {
            (Served::Failed, 0.0)
        };
        QueryResult {
            id: q.id,
            span: q.span,
            batch_span: self.span,
            device,
            batch_size: self.queries.len(),
            queue_wait_us,
            latency_us,
            served,
            est_recall,
            outcome,
        }
    }
}

/// The job to schedule next: the earliest `not_before_us`, the
/// earliest-queued on ties, so the schedule is a pure function.
fn next_job(jobs: &[Job]) -> Option<usize> {
    (0..jobs.len()).min_by(|&a, &b| jobs[a].not_before_us.total_cmp(&jobs[b].not_before_us))
}

/// The [`next_job`], the non-failed device that can start it soonest
/// (the lowest index on ties) and its drain-relative start, given each
/// device's clock at drain start (`t0`) and now. A quarantined device
/// competes with its quarantine end: a run after cooldown *is* the
/// half-open re-probe. `None` when no job is left or all devices failed.
fn place(
    jobs: &[Job],
    t0: &[f64],
    clocks: &[f64],
    health: &[DeviceHealth],
) -> Option<(usize, usize, f64)> {
    let ji = next_job(jobs)?;
    let mut best: Option<(usize, f64)> = None;
    for (dev, &t0) in t0.iter().enumerate() {
        let Some(free_at) = health[dev].free_at() else {
            continue;
        };
        let rel_clock = clocks[dev] - t0;
        let quarantine_rel = (free_at - t0).max(0.0);
        let start = rel_clock.max(jobs[ji].not_before_us).max(quarantine_rel);
        if best.is_none_or(|(_, s)| start < s) {
            best = Some((dev, start));
        }
    }
    best.map(|(dev, start)| (ji, dev, start))
}

/// Sanitizer occurrences a device has counted so far (zero when off).
fn sanitizer_counts(gpu: &Gpu) -> SanitizerCounts {
    gpu.sanitizer_report()
        .map_or_else(SanitizerCounts::default, |r| r.counts)
}

/// A batch attempt's answers or error, unless its worker panicked.
type Outcome = std::thread::Result<Result<Answers, TopKError>>;

/// A successful batch attempt: one answer per member query, and the
/// simulated time the selection alone took (the upload and readback
/// excluded), which is what the tuner prices.
struct Answers {
    outs: Vec<QueryOutput>,
    select_us: f64,
}

/// The state of one drain in flight.
pub(crate) struct Drain<'e> {
    eng: &'e mut TopKEngine,
    /// The engine's dispatcher, held apart from `&mut eng.gpus` for the
    /// drain and put back by [`Drain::finish`].
    selector: SelectK,
    algo_before: AlgoSnapshot,
    jobs: Vec<Job>,
    results: Vec<QueryResult>,
    records: Vec<Vec<BatchRecord>>,
    /// Per device at drain start: clock, reports, faults, sanitizer.
    drain_t0: Vec<f64>,
    report_lo: Vec<usize>,
    fault_lo: Vec<usize>,
    san_lo: Vec<SanitizerCounts>,
    /// Folded from this drain's `Retry` and `BreakerOpen` events.
    retries: u64,
    retry_penalty_us: f64,
    quarantines: u64,
    /// The current step's first post-mortem trigger, `(kind, seq)`.
    step_trigger: Option<(&'static str, u64)>,
}

impl<'e> Drain<'e> {
    /// Drain the engine's queue: coalesce it into jobs and schedule
    /// until every job has reached its terminal results.
    pub(crate) fn run(eng: &'e mut TopKEngine) -> DrainReport {
        let algo_before = topk_core::obs::counters().snapshot();
        let batches = coalesce(
            std::mem::take(&mut eng.pending),
            eng.config.coalescing_window,
        );
        let gpus = &eng.gpus;
        let mut drain = Drain {
            algo_before,
            jobs: Vec::with_capacity(batches.len()),
            results: Vec::new(),
            records: vec![Vec::new(); gpus.len()],
            drain_t0: gpus.iter().map(Gpu::elapsed_us).collect(),
            report_lo: gpus.iter().map(|g| g.reports().len()).collect(),
            fault_lo: gpus.iter().map(|g| g.fault_events().len()).collect(),
            san_lo: gpus.iter().map(sanitizer_counts).collect(),
            retries: 0,
            retry_penalty_us: 0.0,
            quarantines: 0,
            step_trigger: None,
            selector: std::mem::replace(&mut eng.selector, SelectK::static_prior()),
            eng,
        };
        for job in batches {
            let (size, n, k) = (job.queries.len(), job.n, job.k);
            let coalesce = EngineEvent::Coalesce { size, n, k };
            drain.emit(None, Some(job.span), 0.0, coalesce);
            drain.jobs.push(job);
        }
        while !drain.jobs.is_empty() {
            drain.step();
        }
        drain.finish()
    }

    /// Place and run the next job — or degrade it once every device has
    /// failed — then dump a post-mortem if the step emitted a trigger.
    fn step(&mut self) {
        self.step_trigger = None;
        let clocks: Vec<f64> = self.eng.gpus.iter().map(Gpu::elapsed_us).collect();
        match place(&self.jobs, &self.drain_t0, &clocks, &self.eng.health) {
            Some((ji, dev, start_at)) => {
                let job = self.jobs.remove(ji);
                self.attempt(job, dev, start_at);
            }
            None => {
                // Pool exhausted: degrade at the latest device clock.
                let ji = next_job(&self.jobs).expect("jobs is non-empty");
                let job = self.jobs.remove(ji);
                let now = clocks
                    .iter()
                    .zip(&self.drain_t0)
                    .map(|(clock, t0)| clock - t0)
                    .fold(job.not_before_us, f64::max);
                self.degrade(job, now);
            }
        }
        self.maybe_post_mortem();
    }

    /// Record one event and fold it into the drain's tallies: the one
    /// place a drain fact is written down.
    fn emit(&mut self, device: Option<usize>, span: Option<u64>, t_us: f64, event: EngineEvent) {
        match event {
            EngineEvent::Retry { backoff_us, .. } => {
                self.retries += 1;
                self.retry_penalty_us += backoff_us;
            }
            EngineEvent::BreakerOpen { .. } => self.quarantines += 1,
            _ => {}
        }
        let trigger = event.is_trigger().then(|| event.kind());
        let seq = self.eng.flight.record(device, span, t_us, event);
        if let Some(kind) = trigger {
            self.step_trigger.get_or_insert((kind, seq));
        }
    }

    /// Run one attempt of `job` on `dev` and settle its outcome.
    fn attempt(&mut self, mut job: Job, dev: usize, start_at: f64) {
        job.attempts += 1;
        job.first_device.get_or_insert(dev);
        let (attempt, size, n, k) = (job.attempts, job.queries.len(), job.n, job.k);
        let launch = EngineEvent::Launch {
            attempt,
            size,
            n,
            k,
        };
        let span = Some(job.span);
        self.emit(Some(dev), span, start_at, launch);
        let rung = self.choose_rung(&job, dev, start_at);
        let (outcome, start_us, end_us) = self.execute(&job, dev, start_at, rung.map(|c| c.algo));
        match outcome {
            Ok(Ok(answers)) => self.settle(job, dev, rung, answers, start_us, end_us),
            Ok(Err(e)) if !e.is_device_fault() => {
                // The query's own fault (bad k, bad shape): it would
                // fail identically on any device, so it is terminal
                // and does not count against the device.
                for q in &job.queries {
                    let failed = (Served::Failed, 0.0);
                    let r = job.result(q, dev, (start_us, end_us), failed, Err(e.clone()));
                    self.conclude(r, false);
                }
            }
            Ok(Err(e)) => {
                // Device fault: update the breaker, then retry, fail
                // over or degrade.
                let severe = matches!(&e, TopKError::Sim(SimError::DeviceHang { .. }));
                let kind = e.kind();
                let fault = EngineEvent::DeviceFault { kind, severe };
                self.emit(Some(dev), span, end_us, fault);
                self.note_fault(dev, severe, Some(kind), end_us);
                job.last_error = Some(e);
                self.requeue_or_degrade(job, end_us);
            }
            Err(_panic) => {
                // Worker panic (injected driver crash or a real bug):
                // isolate it — mark the device failed and reschedule
                // the batch. The device keeps whatever scratch its
                // mid-flight batch held; it is out of the pool for
                // good.
                self.emit(Some(dev), span, end_us, EngineEvent::WorkerPanic);
                self.note_fault(dev, true, None, end_us);
                self.requeue_or_degrade(job, end_us);
            }
        }
    }

    /// The accuracy-ladder decision ([`decide_rung`]), re-made per attempt
    /// so a retry after a fault sees the shrunken pool.
    fn choose_rung(&mut self, batch: &Job, dev: usize, start_at: f64) -> Option<RungChoice> {
        let gpus = &self.eng.gpus;
        let healthy = (0..gpus.len())
            .filter(|&d| self.eng.health[d].label(gpus[d].elapsed_us()) == "ok")
            .count();
        let spec = gpus[dev].spec();
        let choice = decide_rung(batch, spec, &self.selector, start_at, healthy, gpus.len())?;
        let event = EngineEvent::DegradeRung {
            rung: choice.rung,
            cause: choice.cause,
            recall_target: batch.recall_target,
            est_recall: choice.est_recall,
        };
        self.emit(Some(dev), Some(batch.span), start_at, event);
        Some(choice)
    }

    /// Run `batch` on `dev` from drain-relative `start_at` (earlier is
    /// simulated idle time), catching a worker panic, and record it as a
    /// [`BatchRecord`]. Returns the outcome and drain-relative start/end.
    fn execute(
        &mut self,
        batch: &Job,
        dev: usize,
        start_at: f64,
        approx: Option<TunedAlgo>,
    ) -> (Outcome, f64, f64) {
        let t0 = self.drain_t0[dev];
        let gpu = &mut self.eng.gpus[dev];
        let rel_clock = gpu.elapsed_us() - t0;
        if start_at > rel_clock {
            gpu.host_compute("scheduler wait", start_at - rel_clock);
        }
        let start_us = gpu.elapsed_us() - t0;
        let report_lo = gpu.reports().len() - self.report_lo[dev];
        let timeline_lo = gpu.timeline().events().len();
        gpu.set_span(batch.span);
        let selector = &self.selector;
        let outcome = catch_unwind(AssertUnwindSafe(|| run_batch(gpu, selector, batch, approx)));
        gpu.clear_span();
        let end_us = gpu.elapsed_us() - t0;
        self.records[dev].push(BatchRecord {
            device: dev,
            size: batch.queries.len(),
            n: batch.n,
            k: batch.k,
            span: batch.span,
            report_range: (report_lo, gpu.reports().len() - self.report_lo[dev]),
            start_us,
            end_us,
            stages: batch_stages(gpu, timeline_lo, start_us),
        });
        (outcome, start_us, end_us)
    }

    /// A successful attempt: close the breaker, feed the tuner, and
    /// answer every query — or fail it, when the answer arrived after
    /// its deadline.
    fn settle(
        &mut self,
        job: Job,
        dev: usize,
        rung: Option<RungChoice>,
        Answers { outs, select_us }: Answers,
        start_us: f64,
        end_us: f64,
    ) {
        self.eng.health[dev].note_ok();
        // Exact attempts only, so approximate timings never pollute
        // the exact cost model they were chosen to undercut.
        if rung.is_none() {
            self.observe(&job, dev, select_us);
        }
        let (span, size, attempt) = (Some(job.span), job.queries.len(), job.attempts);
        self.emit(
            Some(dev),
            span,
            end_us,
            EngineEvent::BatchOk { size, attempt },
        );
        let first_device = job.first_device.unwrap_or(dev);
        if first_device != dev {
            self.emit(
                Some(dev),
                span,
                end_us,
                EngineEvent::Failover { first_device },
            );
        }
        let retries = job.attempts - 1;
        // Approximation is the serving rung even when the attempt also
        // failed over: the accuracy trade is the fact the caller must
        // see.
        let served = match &rung {
            Some(choice) => Served::Approx {
                rung: choice.rung,
                retries,
            },
            None if first_device == dev => Served::Gpu { retries },
            None => Served::Failover { retries },
        };
        let ok = (served, rung.map_or(1.0, |c| c.est_recall));
        for (q, out) in job.queries.iter().zip(outs) {
            // The answer exists but arrived late: the deadline verdict
            // wins.
            let outcome = match q.deadline_us {
                Some(dl) if end_us > dl as f64 => {
                    Err(TopKError::DeadlineExceeded { deadline_us: dl })
                }
                _ => Ok(out),
            };
            self.conclude(job.result(q, dev, (start_us, end_us), ok, outcome), false);
        }
    }

    /// Record `r` as its query's terminal result, with the event it
    /// implies: a deadline miss (`in_backoff` when it expired waiting
    /// for a retry), a typed failure, or a CPU fallback.
    fn conclude(&mut self, r: QueryResult, in_backoff: bool) {
        let id = r.id;
        let event = match (&r.outcome, r.served) {
            (Err(TopKError::DeadlineExceeded { deadline_us }), _) => {
                Some(EngineEvent::DeadlineMiss {
                    id,
                    deadline_us: *deadline_us,
                    in_backoff,
                })
            }
            (Err(e), _) => Some(EngineEvent::QueryFailed { id, kind: e.kind() }),
            (Ok(_), Served::CpuFallback { retries: attempts }) => {
                Some(EngineEvent::Fallback { id, attempts })
            }
            (Ok(_), _) => None,
        };
        if let Some(event) = event {
            self.emit(Some(r.device), Some(r.span), r.latency_us, event);
        }
        self.results.push(r);
    }

    /// Close the tuning loop: the batch's measured selection time
    /// recalibrates its plan bucket.
    fn observe(&mut self, batch: &Job, dev: usize, select_us: f64) {
        let shape =
            ProblemShape::new(batch.n, batch.k, batch.queries.len()).with_sketch(batch.sketch);
        // Drift accounting reads the plan this dispatch was priced
        // with *before* observe() can replan the bucket —
        // counter-neutrally, so plan-table hit/miss metrics are
        // unperturbed.
        if let Some(plan) = self.selector.tuner().and_then(|t| t.peek(&shape)) {
            self.eng
                .drift
                .observe(PlanKey::of(&shape), &plan, select_us);
        }
        self.selector
            .observe(self.eng.gpus[dev].spec(), &shape, select_us);
    }

    /// Fold a device fault into the breaker and emit the transition it
    /// caused. `kind` is the fault's error kind, `None` for a worker
    /// panic.
    fn note_fault(&mut self, dev: usize, severe: bool, kind: Option<&'static str>, t_us: f64) {
        let (clock, breaker) = (self.eng.gpus[dev].elapsed_us(), self.eng.config.breaker);
        let event = match self.eng.health[dev].note_fault(severe, &breaker, clock) {
            Trip::None => return,
            Trip::Quarantined { consecutive } => EngineEvent::BreakerOpen {
                consecutive,
                cooldown_us: breaker.cooldown_us,
            },
            Trip::Failed => EngineEvent::DeviceFailed { kind },
        };
        self.emit(Some(dev), None, t_us, event);
    }

    /// After a device fault: requeue the job with backoff if it has
    /// retry budget left (expiring queries whose deadline the backoff
    /// already overruns), otherwise degrade it.
    fn requeue_or_degrade(&mut self, mut job: Job, now_us: f64) {
        let retry = self.eng.config.retry;
        if job.attempts > retry.max_retries {
            self.degrade(job, now_us);
            return;
        }
        let growth = retry
            .backoff_multiplier
            .powi(job.attempts.saturating_sub(1) as i32);
        let backoff_us = (retry.backoff_us * growth).max(0.0);
        job.not_before_us = now_us + backoff_us;

        // A retry cannot start before `not_before_us`; queries whose
        // deadline is already behind it are hopeless — terminate them
        // now instead of burning a device attempt on them.
        let not_before = job.not_before_us;
        let (expired, live): (Vec<Pending>, Vec<Pending>) = std::mem::take(&mut job.queries)
            .into_iter()
            .partition(|q| q.deadline_us.is_some_and(|dl| (dl as f64) < not_before));
        job.queries = live;
        let device = job.first_device.unwrap_or(0);
        for q in expired {
            let dl = q.deadline_us.expect("partition keeps only deadlined");
            let miss = Err(TopKError::DeadlineExceeded { deadline_us: dl });
            let r = job.result(&q, device, (now_us, now_us), (Served::Failed, 0.0), miss);
            self.conclude(QueryResult { batch_size: 1, ..r }, true);
        }
        if job.queries.is_empty() {
            return;
        }
        let attempt = job.attempts;
        let retry = EngineEvent::Retry {
            attempt,
            backoff_us,
        };
        self.emit(job.first_device, Some(job.span), now_us, retry);
        self.jobs.push(job);
    }

    /// Last rung of the ladder: serve every query of the job on the
    /// CPU reference path (when enabled and the shape allows),
    /// otherwise terminate it with the job's last device error or
    /// [`TopKError::PoolExhausted`].
    fn degrade(&mut self, job: Job, now_us: f64) {
        let device = job.first_device.unwrap_or(0);
        // The CPU reference path is exact.
        let attempts = job.attempts;
        let ok = (Served::CpuFallback { retries: attempts }, 1.0);
        for q in &job.queries {
            let end = now_us + cpu_select_us(q.data.len());
            let (latency_us, outcome) = if !self.eng.config.cpu_fallback {
                let err = job.last_error.clone();
                (
                    now_us,
                    Err(err.unwrap_or(TopKError::PoolExhausted { attempts })),
                )
            } else if let Some(err) = TopKError::check_k("cpu-fallback", q.data.len(), q.k, None) {
                (now_us, Err(err))
            } else if let Some(dl) = q.deadline_us.filter(|&dl| end > dl as f64) {
                (end, Err(TopKError::DeadlineExceeded { deadline_us: dl }))
            } else {
                let (values, indices) = topk_cpu::heap_topk(&q.data, q.k);
                let k = q.k;
                (end, Ok(QueryOutput { values, indices, k }))
            };
            let r = job.result(q, device, (now_us, latency_us), ok, outcome);
            self.conclude(r, false);
        }
    }

    /// If the step emitted a trigger, dump the flight recorder, device
    /// state, drift table and calibration as a post-mortem named after
    /// the step's first trigger — up to [`POST_MORTEM_CAP`] documents;
    /// beyond that, only [`TopKEngine::post_mortems_dropped`] counts.
    fn maybe_post_mortem(&mut self) {
        let Some((trigger, trigger_seq)) = self.step_trigger.take() else {
            return;
        };
        let eng = &mut *self.eng;
        if eng.post_mortems.len() >= POST_MORTEM_CAP {
            eng.post_mortems_dropped += 1;
            return;
        }
        let devices: Vec<PmDevice> = eng
            .gpus
            .iter()
            .enumerate()
            .map(|(d, gpu)| PmDevice {
                device: d,
                health: eng.health[d].label(gpu.elapsed_us()),
                elapsed_us: gpu.elapsed_us() - self.drain_t0[d],
                batches: self.records[d].len(),
                faults: eng.health[d].total_faults,
                fault_events: gpu.fault_events()[self.fault_lo[d]..]
                    .iter()
                    .map(|f| format!("{}@{}", f.kind.label(), f.seq))
                    .collect(),
                sanitizer_occurrences: sanitizer_counts(gpu).delta_since(&self.san_lo[d]).total(),
            })
            .collect();
        let clock_us = devices.iter().map(|d| d.elapsed_us).fold(0.0, f64::max);
        let calibration = self
            .selector
            .tuner()
            .map(|t| t.calibration_snapshot())
            .unwrap_or_default();
        let json = flight::render_post_mortem(
            trigger,
            trigger_seq,
            clock_us,
            &eng.flight,
            &devices,
            &eng.drift.rows(),
            &calibration,
        );
        eng.post_mortems.push(json);
    }

    /// Close the drain into its report and return the dispatcher to the
    /// engine.
    fn finish(mut self) -> DrainReport {
        let eng = self.eng;
        eng.selector = self.selector;
        let devices: Vec<DeviceReport> = self
            .records
            .into_iter()
            .enumerate()
            .map(|(dev, batches)| {
                let gpu = &eng.gpus[dev];
                DeviceReport {
                    device: dev,
                    batches,
                    elapsed_us: gpu.elapsed_us() - self.drain_t0[dev],
                    clock_start_us: self.drain_t0[dev],
                    mem_high_water: gpu.mem_high_water(),
                    mem_allocated_after: gpu.mem_allocated(),
                    kernel_reports: gpu.reports()[self.report_lo[dev]..].to_vec(),
                    failed: eng.health[dev].failed,
                    quarantined: eng.health[dev].quarantined(gpu.elapsed_us()),
                    fault_events: gpu.fault_events()[self.fault_lo[dev]..].to_vec(),
                    sanitizer: sanitizer_counts(gpu).delta_since(&self.san_lo[dev]),
                }
            })
            .collect();
        self.results.sort_by_key(|r| r.id);
        let mut report = DrainReport {
            results: self.results,
            devices,
            algo: topk_core::obs::counters()
                .snapshot()
                .delta_since(&self.algo_before),
            retries: self.retries,
            failovers: 0,
            cpu_fallbacks: 0,
            approx_two_stage: 0,
            approx_bucketed: 0,
            deadline_misses: 0,
            quarantines: self.quarantines,
            sanitizer: SanitizerCounts::default(),
            stages: StageBreakdown::default(),
        };
        // One pass over the results for the per-rung counts.
        for r in &report.results {
            match r.served {
                Served::Failover { .. } => report.failovers += 1,
                Served::CpuFallback { .. } => report.cpu_fallbacks += 1,
                Served::Approx { rung, .. } => match rung {
                    ApproxRung::TwoStage => report.approx_two_stage += 1,
                    ApproxRung::Bucketed => report.approx_bucketed += 1,
                },
                Served::Gpu { .. } | Served::Failed => {}
            }
            if matches!(r.outcome, Err(TopKError::DeadlineExceeded { .. })) {
                report.deadline_misses += 1;
            }
        }
        // Stage attribution: device stages summed over batches,
        // queue-wait summed over queries, retry backoff from the
        // drain's retry events.
        let stages = &mut report.stages;
        for d in &report.devices {
            report.sanitizer.add(&d.sanitizer);
            for b in &d.batches {
                stages.transfer_us += b.stages.transfer_us;
                stages.kernel_us += b.stages.kernel_us;
                stages.merge_us += b.stages.merge_us;
                stages.other_us += b.stages.other_us;
            }
        }
        let waits = report.results.iter().map(|r| r.queue_wait_us);
        stages.queue_wait_us = waits.filter(|w| w.is_finite()).sum();
        stages.retry_penalty_us = self.retry_penalty_us;
        report
    }
}

/// Simulated host cost of the CPU reference selection, µs: a fixed
/// dispatch overhead plus a linear scan term. Deliberately far slower
/// per element than a healthy device — degradation trades latency for
/// a terminal answer.
fn cpu_select_us(n: usize) -> f64 {
    20.0 + n as f64 * 0.002
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
fn coalesce(pending: Vec<Pending>, window: usize) -> Vec<Job> {
    let window = window.max(1);
    let mut batches: Vec<Job> = Vec::new();
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
                batches.push(Job {
                    n: shape.0,
                    k: shape.1,
                    span: q.span,
                    sketch: q.sketch,
                    recall_target: q.recall_target,
                    queries: vec![q],
                    attempts: 0,
                    not_before_us: 0.0,
                    first_device: None,
                    last_error: None,
                });
            }
        }
    }
    batches
}

/// Upload the batch as one row-major matrix, select, read the packed
/// results back with one copy each for values and indices, and split
/// them per query on the host. Device-side inputs and outputs are
/// freed on every non-panicking path — including injected-fault
/// errors — so the next batch on this device sees honest
/// `mem_allocated`.
///
/// `approx` carries the scheduler's accuracy-ladder decision: `None`
/// routes through the exact adaptive dispatcher; a
/// [`TunedAlgo::TwoStage`] or [`TunedAlgo::Bucketed`] executes that
/// approximate configuration directly.
fn run_batch(
    gpu: &mut Gpu,
    selector: &SelectK,
    batch: &Job,
    approx: Option<TunedAlgo>,
) -> Result<Answers, TopKError> {
    ScratchGuard::scope(gpu, |gpu, ws, _| {
        batch_passes(gpu, ws, selector, batch, approx)
    })
}

fn batch_passes(
    gpu: &mut Gpu,
    ws: &mut ScratchGuard,
    selector: &SelectK,
    batch: &Job,
    approx: Option<TunedAlgo>,
) -> Result<Answers, TopKError> {
    let rows: Vec<&[f32]> = batch.queries.iter().map(|q| q.data.as_slice()).collect();
    // Named after the lead query: fault events carry the label, and
    // query ids, unlike span ids, repeat exactly on a rerun.
    let label = format!("query{}", batch.queries[0].id);
    let buf = gpu.try_htod_rows(&label, &rows)?;
    ws.adopt(&buf);
    let input = DeviceMatrix::from_buffer(buf, rows.len(), batch.n);
    let select_start = gpu.elapsed_us();
    let (values, indices) = match approx {
        Some(algo) => selector.try_select_matrix_as(gpu, &input, batch.k, algo)?,
        None => selector.try_select_matrix_with_sketch(gpu, &input, batch.k, batch.sketch)?,
    };
    let select_us = gpu.elapsed_us() - select_start;
    // Read back through the fallible path (an injected corruption must
    // surface, not panic), but free both outputs even when a readback
    // failed.
    let read = gpu
        .try_dtoh(values.buffer())
        .and_then(|v| gpu.try_dtoh(indices.buffer()).map(|i| (v, i)));
    gpu.free(values.buffer());
    gpu.free(indices.buffer());
    let (values, indices) = read?;
    let k = batch.k;
    let outs = values
        .chunks_exact(k)
        .zip(indices.chunks_exact(k))
        .map(|(v, i)| QueryOutput {
            values: v.to_vec(),
            indices: i.to_vec(),
            k,
        })
        .collect();
    Ok(Answers { outs, select_us })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BreakerConfig;

    /// An empty job that may start at `not_before_us`, tagged by `span`.
    fn job(span: u64, not_before_us: f64) -> Job {
        Job {
            n: 1024,
            k: 8,
            span,
            sketch: DistSketch::uniform(),
            recall_target: 1.0,
            queries: Vec::new(),
            attempts: 0,
            not_before_us,
            first_device: None,
            last_error: None,
        }
    }

    const BREAKER: BreakerConfig = BreakerConfig {
        threshold: 1,
        cooldown_us: 100.0,
    };

    fn health(devices: usize) -> Vec<DeviceHealth> {
        vec![DeviceHealth::default(); devices]
    }

    #[test]
    fn place_skips_failed_devices() {
        let mut h = health(3);
        h[0].note_fault(true, &BREAKER, 0.0);
        let jobs = [job(1, 0.0)];
        // Device 0 is idle but failed; device 2 frees up before 1.
        let placed = place(&jobs, &[0.0; 3], &[0.0, 50.0, 20.0], &h);
        assert_eq!(placed, Some((0, 2, 20.0)));
        h[1].note_fault(true, &BREAKER, 0.0);
        h[2].note_fault(true, &BREAKER, 0.0);
        assert_eq!(place(&jobs, &[0.0; 3], &[0.0; 3], &h), None);
    }

    #[test]
    fn a_quarantined_device_competes_with_its_quarantine_end() {
        let mut h = health(2);
        // Device 0 trips at absolute clock 10: quarantined until 110.
        assert!(matches!(
            h[0].note_fault(false, &BREAKER, 10.0),
            Trip::Quarantined { .. }
        ));
        let jobs = [job(1, 0.0)];
        // The drain started at clock 10 on device 0: its re-probe can
        // start at drain-relative 100, before busy device 1 frees up.
        let t0 = [10.0, 0.0];
        assert_eq!(place(&jobs, &t0, &[10.0, 150.0], &h), Some((0, 0, 100.0)));
        assert_eq!(
            place(&jobs, &t0, &[10.0, 60.0], &h),
            Some((0, 1, 60.0)),
            "a device free sooner wins over the re-probe"
        );
    }

    #[test]
    fn equal_start_times_go_to_the_lowest_device() {
        let h = health(3);
        let jobs = [job(1, 0.0)];
        assert_eq!(
            place(&jobs, &[0.0; 3], &[30.0, 10.0, 10.0], &h),
            Some((0, 1, 10.0))
        );
        // A backoff later than every clock ties all devices.
        let jobs = [job(1, 40.0)];
        assert_eq!(
            place(&jobs, &[0.0; 3], &[30.0, 10.0, 10.0], &h),
            Some((0, 0, 40.0))
        );
    }

    #[test]
    fn the_earliest_runnable_job_goes_first_and_ties_keep_queue_order() {
        let h = health(1);
        let jobs = [job(1, 30.0), job(2, 10.0), job(3, 10.0)];
        assert_eq!(next_job(&jobs), Some(1));
        assert_eq!(place(&jobs, &[0.0], &[0.0], &h), Some((1, 0, 10.0)));
        assert_eq!(next_job(&[]), None);
        assert_eq!(place(&[], &[0.0], &[0.0], &h), None);
    }
}
