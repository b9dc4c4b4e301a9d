use super::*;
use datagen::{generate, Distribution};
use gpu_sim::{EventKind, FaultKind, ScriptedFault};
use proptest::prelude::*;
use topk_core::{verify_topk, TopKAlgorithm};

fn a100_engine(devices: usize, window: usize) -> TopKEngine {
    TopKEngine::new(EngineConfig::a100_pool(devices).with_window(window))
}

/// Kernel launches SelectK needs for one query of this shape on a
/// fresh device — the per-query cost coalescing is meant to amortise.
fn single_query_launches(data: &[f32], k: usize) -> usize {
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let input = gpu.htod("ref", data);
    gpu.reset_profile();
    let out = SelectK::default().try_select(&mut gpu, &input, k).unwrap();
    gpu.free(&out.values);
    gpu.free(&out.indices);
    gpu.reports().len()
}

#[test]
fn mixed_200_query_workload_across_two_devices() {
    // The acceptance workload: 200 queries of four shapes, drained on
    // a 2-device pool with an 8-wide coalescing window.
    let shapes: [(usize, usize); 4] = [(1 << 15, 32), (1 << 14, 100), (1 << 15, 1), (4096, 512)];
    let mut engine = a100_engine(2, 8);
    let mut expected = Vec::new();
    for q in 0..200 {
        let (n, k) = shapes[q % shapes.len()];
        let data = generate(Distribution::Uniform, n, q as u64);
        let id = engine.submit(data.clone(), k).unwrap();
        assert_eq!(id, q);
        expected.push((data, k));
    }
    assert_eq!(engine.pending(), 200);
    let report = engine.drain();
    assert_eq!(engine.pending(), 0);
    assert_eq!(report.results.len(), 200);

    // Every query verifies against its own data.
    for (r, (data, k)) in report.results.iter().zip(&expected) {
        let out = r
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("query {}: {e}", r.id));
        assert_eq!(out.k, *k);
        verify_topk(data, *k, &out.values, &out.indices)
            .unwrap_or_else(|e| panic!("query {}: {e}", r.id));
    }

    // Both devices did real work.
    let busy = report
        .devices
        .iter()
        .filter(|d| !d.batches.is_empty())
        .count();
    assert!(busy >= 2, "only {busy} of 2 devices ran batches");

    // At least one same-shape batch was coalesced into a fused launch
    // set: the batch's kernel reports show far fewer launches than
    // running its queries one by one would need.
    let fused = report
        .devices
        .iter()
        .flat_map(|d| &d.batches)
        .find(|b| b.size >= 2)
        .expect("an 8-wide window over 50 same-shape queries must coalesce");
    assert!(report.fused_batches() > 0);
    let per_query = single_query_launches(&expected[0].0, fused.k).max(1);
    assert!(
        fused.kernel_launches() < fused.size * per_query,
        "batch of {} used {} launches, sequential would use {}",
        fused.size,
        fused.kernel_launches(),
        fused.size * per_query
    );
    // The report range indexes real kernel reports on that device.
    let dev = &report.devices[fused.device];
    let (lo, hi) = fused.report_range;
    assert!(hi <= dev.kernel_reports.len() && lo < hi);

    // Metrics are consistent with the arrival-at-zero model.
    for r in &report.results {
        assert!(r.queue_wait_us >= 0.0 && r.latency_us >= r.queue_wait_us);
    }
    let max_wait = report
        .results
        .iter()
        .map(|r| r.queue_wait_us)
        .fold(0.0, f64::max);
    assert!(max_wait > 0.0, "later batches must observe queue wait");
    assert!(report.queries_per_sec() > 0.0);
    assert!(report.makespan_us() > 0.0);
}

#[test]
fn window_one_disables_coalescing() {
    let mut engine = a100_engine(2, 1);
    let data = generate(Distribution::Normal, 8192, 5);
    for _ in 0..6 {
        engine.submit(data.clone(), 16).unwrap();
    }
    let report = engine.drain();
    assert_eq!(report.fused_batches(), 0);
    for r in &report.results {
        assert_eq!(r.batch_size, 1);
        let out = r.outcome.as_ref().unwrap();
        verify_topk(&data, 16, &out.values, &out.indices).unwrap();
    }
}

#[test]
fn coalescing_respects_window_and_shape() {
    // 5 queries of shape A (window 2 -> batches of 2,2,1) interleaved
    // with 4 of shape B (-> 2,2).
    let a = generate(Distribution::Uniform, 4096, 1);
    let b = generate(Distribution::Uniform, 2048, 2);
    let mut engine = a100_engine(1, 2);
    for i in 0..8 {
        let (data, k) = if i % 2 == 0 { (&a, 7) } else { (&b, 9) };
        engine.submit(data.clone(), k).unwrap();
    }
    engine.submit(a.clone(), 7).unwrap(); // 5th shape-A query
    let report = engine.drain();
    let mut sizes: Vec<(usize, usize, usize)> = report
        .devices
        .iter()
        .flat_map(|d| &d.batches)
        .map(|b| (b.n, b.k, b.size))
        .collect();
    sizes.sort_unstable();
    assert_eq!(
        sizes,
        vec![
            (2048, 9, 2),
            (2048, 9, 2),
            (4096, 7, 1),
            (4096, 7, 2),
            (4096, 7, 2)
        ]
    );
    for r in &report.results {
        assert!(r.outcome.is_ok());
    }
}

#[test]
fn bad_queries_fail_individually_without_poisoning_good_ones() {
    let mut engine = a100_engine(2, 4);
    let good = generate(Distribution::Uniform, 1000, 3);
    let id_good = engine.submit(good.clone(), 10).unwrap();
    let id_zero_k = engine.submit(good.clone(), 0).unwrap();
    let id_k_too_big = engine.submit(good.clone(), 1001).unwrap();
    let id_empty = engine.submit(Vec::new(), 5).unwrap();
    let report = engine.drain();

    let by_id = |id: usize| report.results.iter().find(|r| r.id == id).unwrap();
    let out = by_id(id_good).outcome.as_ref().unwrap();
    verify_topk(&good, 10, &out.values, &out.indices).unwrap();
    for id in [id_zero_k, id_k_too_big, id_empty] {
        assert!(
            matches!(by_id(id).outcome, Err(TopKError::InvalidK { .. })),
            "query {id} should fail with InvalidK, got {:?}",
            by_id(id).outcome
        );
    }
}

#[test]
fn submission_queue_is_bounded() {
    let mut engine = TopKEngine::new(
        EngineConfig::a100_pool(1)
            .with_queue_capacity(2)
            .with_window(4),
    );
    engine.submit(vec![1.0, 2.0], 1).unwrap();
    engine.submit(vec![3.0, 4.0], 1).unwrap();
    assert_eq!(
        engine.submit(vec![5.0, 6.0], 1),
        Err(EngineError::QueueFull { capacity: 2 })
    );
    // Draining frees capacity again.
    let report = engine.drain();
    assert_eq!(report.results.len(), 2);
    engine.submit(vec![5.0, 6.0], 1).unwrap();
    let report = engine.drain();
    assert_eq!(report.results[0].id, 2);
}

#[test]
fn devices_stay_leak_free_across_batches() {
    // After a drain every device must be back at zero allocated bytes:
    // inputs, workspace and outputs are all returned to the allocator
    // — including on batches that fail.
    let mut engine = a100_engine(1, 2);
    for i in 0..4 {
        engine
            .submit(generate(Distribution::Uniform, 4096, i), 32)
            .unwrap();
    }
    engine
        .submit(generate(Distribution::Uniform, 512, 9), 600)
        .unwrap(); // fails: k > n
    let report = engine.drain();
    for dev in &report.devices {
        assert_eq!(dev.mem_allocated_after, 0, "device {} leaked", dev.device);
        assert!(dev.mem_high_water > 0);
        for b in &dev.batches {
            assert!(b.end_us >= b.start_us);
        }
    }
    assert_eq!(
        report.results.iter().filter(|r| r.outcome.is_err()).count(),
        1
    );
}

#[test]
fn repeated_drains_do_not_duplicate_kernel_reports() {
    // Devices persist across drains; a drain's DeviceReport must slice
    // out only *its* launches, not the device's lifetime history.
    let mut engine = a100_engine(1, 2);
    let data = generate(Distribution::Uniform, 4096, 11);

    engine.submit(data.clone(), 16).unwrap();
    engine.submit(data.clone(), 16).unwrap();
    let first = engine.drain();
    let first_launches = first.devices[0].kernel_reports.len();
    assert!(first_launches > 0);

    engine.submit(data.clone(), 16).unwrap();
    engine.submit(data.clone(), 16).unwrap();
    let second = engine.drain();
    let dev = &second.devices[0];

    // Same workload, same launch count: the second drain must not drag
    // the first drain's reports along.
    assert_eq!(
        dev.kernel_reports.len(),
        first_launches,
        "second drain duplicated earlier report history"
    );
    // Ranges are rebased to the drain's slice and tile it exactly.
    let mut covered = 0;
    for b in &dev.batches {
        assert_eq!(b.report_range.0, covered);
        covered = b.report_range.1;
    }
    assert_eq!(covered, dev.kernel_reports.len());
    // Times are drain-relative even though the device clock carried
    // over: the first batch starts at 0.
    assert_eq!(dev.batches[0].start_us, 0.0);
    assert!(dev.clock_start_us > 0.0, "persistent clock must carry over");
    assert!((dev.elapsed_us - dev.batches.last().unwrap().end_us).abs() < 1e-9);
}

#[test]
fn spans_link_queries_to_their_kernel_launches() {
    let mut engine = a100_engine(2, 4);
    let data = generate(Distribution::Uniform, 8192, 21);
    for _ in 0..8 {
        engine.submit(data.clone(), 64).unwrap();
    }
    let report = engine.drain();

    // Every query has a distinct nonzero span.
    let mut spans: Vec<u64> = report.results.iter().map(|r| r.span).collect();
    spans.sort_unstable();
    spans.dedup();
    assert_eq!(spans.len(), report.results.len());
    assert!(spans.iter().all(|&s| s != 0));

    for dev in &report.devices {
        for b in &dev.batches {
            assert_ne!(b.span, 0);
            // Every launch in the batch's range is tagged with it.
            for kr in &dev.kernel_reports[b.report_range.0..b.report_range.1] {
                assert_eq!(kr.span, b.span, "launch {} mis-tagged", kr.name);
            }
        }
    }
    // Each query's batch_span resolves to exactly one batch, and that
    // batch ran on the query's device.
    for r in &report.results {
        let owners: Vec<&BatchRecord> = report
            .devices
            .iter()
            .flat_map(|d| &d.batches)
            .filter(|b| b.span == r.batch_span)
            .collect();
        assert_eq!(owners.len(), 1, "query {} batch_span ambiguous", r.id);
        assert_eq!(owners[0].device, r.device);
    }
}

#[test]
fn drain_reports_latency_percentiles() {
    let mut engine = a100_engine(2, 4);
    for i in 0..16 {
        engine
            .submit(
                generate(Distribution::Uniform, 2048 + 512 * (i % 3), i as u64),
                16,
            )
            .unwrap();
    }
    let report = engine.drain();
    let p50 = report.p50_latency_us();
    let p99 = report.p99_latency_us();
    let max = report
        .results
        .iter()
        .map(|r| r.latency_us)
        .fold(0.0, f64::max);
    assert!(p50 > 0.0);
    assert!(p50 <= p99, "p50 {p50} > p99 {p99}");
    assert!(p99 <= max);
    // Nearest-rank over an even count: p100 is the max exactly.
    assert_eq!(report.percentile_latency_us(1.0), max);
    // Empty drains report zero, not NaN.
    assert_eq!(engine.drain().p50_latency_us(), 0.0);
}

#[test]
fn metrics_and_snapshot_reflect_a_mixed_drain() {
    let mut engine = TopKEngine::new(
        EngineConfig::a100_pool(2)
            .with_window(4)
            .with_queue_capacity(32),
    );
    // A shape the tuner routes to AIR, so the drain counts AIR passes.
    let good = generate(Distribution::Uniform, 1 << 16, 7);
    for _ in 0..6 {
        engine.submit(good.clone(), 512).unwrap();
    }
    engine.submit(good.clone(), 0).unwrap(); // InvalidK
    assert_eq!(engine.snapshot().queue_depth, 7);
    let report = engine.drain();
    assert!(report.algo.air_passes > 0, "drain must count AIR passes");

    let snap = engine.snapshot();
    assert_eq!(snap.queue_depth, 0);
    assert_eq!(snap.queries_submitted, 7);
    assert_eq!(snap.queries_completed, 6);
    assert_eq!(snap.queries_failed, 1);
    assert_eq!(snap.drains, 1);
    let invalid_k = snap
        .errors
        .iter()
        .find(|(k, _)| *k == "invalid_k")
        .map(|(_, n)| *n)
        .unwrap();
    assert_eq!(invalid_k, 1);
    assert_eq!(snap.devices.len(), 2);
    let util_sum: f64 = snap.devices.iter().map(|d| d.utilization).sum();
    assert!(util_sum > 0.0 && util_sum <= 2.0 + 1e-9);
    assert!(snap.devices.iter().any(|d| d.kernel_launches > 0));

    let text = engine.render_prometheus();
    assert!(text.contains("topk_engine_queries_total 7"), "{text}");
    assert!(text.contains("topk_engine_query_errors_total{kind=\"invalid_k\"} 1"));
    assert!(text.contains("topk_engine_query_latency_us_bucket{le=\"1\"}"));
    assert!(text.contains("topk_engine_query_latency_us_count 7"));
    assert!(text.contains("# TYPE topk_engine_query_latency_us histogram"));
    assert!(text.contains("topk_engine_device_utilization{device=\"0\"}"));
    // The AIR counters made it through the snapshot delta.
    assert!(!text.contains("topk_air_passes_total 0\n"), "{text}");
}

/// Sequential reference: each query on its own fresh device through
/// the same dispatcher, single-query path.
fn sequential_reference(data: &[f32], k: usize) -> Result<QueryOutput, TopKError> {
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let input = gpu.try_htod("seq", data)?;
    let out = SelectK::default().try_select(&mut gpu, &input, k)?;
    let values = gpu.dtoh(&out.values);
    let indices = gpu.dtoh(&out.indices);
    Ok(QueryOutput { values, indices, k })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Satellite: for arbitrary query mixes, the engine's answers match
    // running each query sequentially on a fresh device — same top-K
    // multiset (verify_topk on both, then bitwise-equal sorted values).
    #[test]
    fn engine_matches_sequential_fresh_device_runs(
        seeds in prop::collection::vec((0u64..1000, 1usize..5), 1..10),
        window in 1usize..5,
        devices in 1usize..4,
    ) {
        let queries: Vec<(Vec<f32>, usize)> = seeds
            .iter()
            .map(|&(seed, kf)| {
                let n = 256 + (seed as usize % 4) * 711;
                let data = generate(Distribution::Uniform, n, seed);
                let k = (n * kf / 5).max(1);
                (data, k)
            })
            .collect();
        let mut engine = TopKEngine::new(
            EngineConfig::a100_pool(devices).with_window(window),
        );
        for (data, k) in &queries {
            engine.submit(data.clone(), *k).unwrap();
        }
        let report = engine.drain();
        prop_assert_eq!(report.results.len(), queries.len());
        for (r, (data, k)) in report.results.iter().zip(&queries) {
            let got = r.outcome.as_ref().unwrap();
            prop_assert!(verify_topk(data, *k, &got.values, &got.indices).is_ok());
            let want = sequential_reference(data, *k).unwrap();
            prop_assert!(verify_topk(data, *k, &want.values, &want.indices).is_ok());
            let mut a: Vec<u32> = got.values.iter().map(|v| v.to_bits()).collect();
            let mut b: Vec<u32> = want.values.iter().map(|v| v.to_bits()).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}

// ---------------------------------------------------------------------------
// Resilience: fault injection, retry/failover, breaker, degradation.
// ---------------------------------------------------------------------------

#[test]
fn worker_panic_is_isolated_and_survivors_finish() {
    // A scripted driver crash on device 0's first launch must not
    // abort the drain: the panic is captured, the device is retired,
    // and the surviving device answers every query.
    let plan = FaultPlan::seeded(7).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::WorkerPanic,
        nth: 0,
    });
    let mut engine = TopKEngine::new(EngineConfig::a100_pool(2).with_window(1).with_faults(plan));
    let mut expected = Vec::new();
    for q in 0..6 {
        let data = generate(Distribution::Uniform, 4096, q as u64);
        engine.submit(data.clone(), 64).unwrap();
        expected.push(data);
    }
    let report = engine.drain();

    assert_eq!(
        report.results.len(),
        6,
        "every query reaches a terminal result"
    );
    assert!(report.devices[0].failed, "panicked device is retired");
    assert!(!report.devices[1].failed);
    for (r, data) in report.results.iter().zip(&expected) {
        let got = r.outcome.as_ref().expect("survivor serves every query");
        verify_topk(data, 64, &got.values, &got.indices).unwrap();
        assert_eq!(r.device, 1, "answers come from the surviving device");
    }
    assert!(
        report.failovers >= 1,
        "the panicked batch re-lands on the survivor: {report:?}"
    );
    assert!(report.devices[0]
        .fault_events
        .iter()
        .any(|fe| fe.kind == FaultKind::WorkerPanic));
}

#[test]
fn transient_fault_is_retried_on_the_same_device() {
    // One transient compute fault on a single-device pool: the batch
    // is retried after backoff and succeeds on the same device.
    let plan = FaultPlan::seeded(11).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::TransientCompute,
        nth: 0,
    });
    let mut engine = TopKEngine::new(EngineConfig::a100_pool(1).with_faults(plan));
    let data = generate(Distribution::Uniform, 8192, 3);
    engine.submit(data.clone(), 32).unwrap();
    let report = engine.drain();

    let r = &report.results[0];
    let got = r.outcome.as_ref().expect("retry recovers the query");
    verify_topk(&data, 32, &got.values, &got.indices).unwrap();
    assert_eq!(r.served, Served::Gpu { retries: 1 });
    assert_eq!(report.retries, 1);
    assert_eq!(report.failovers, 0);
    assert_eq!(report.cpu_fallbacks, 0);
}

#[test]
fn breaker_quarantines_after_consecutive_faults() {
    // Three consecutive launch failures on device 0 trip the breaker;
    // the drain still answers everything via device 1.
    let mut plan = FaultPlan::seeded(13);
    for nth in 0..3 {
        plan = plan.with_scripted(ScriptedFault {
            device: 0,
            kind: FaultKind::LaunchFail,
            nth,
        });
    }
    let cfg = EngineConfig::a100_pool(2)
        .with_window(1)
        .with_faults(plan)
        .with_breaker(BreakerConfig {
            threshold: 3,
            cooldown_us: 50_000.0,
        });
    let mut engine = TopKEngine::new(cfg);
    for q in 0..8 {
        let data = generate(Distribution::Uniform, 4096, 100 + q as u64);
        engine.submit(data, 64).unwrap();
    }
    let report = engine.drain();

    assert_eq!(report.results.len(), 8);
    assert!(report.results.iter().all(|r| r.outcome.is_ok()));
    assert!(
        report.quarantines >= 1,
        "breaker trips after {} consecutive faults: {report:?}",
        3
    );
    assert!(report.devices[0].quarantined);
    assert!(!report.devices[0].failed, "quarantine is not retirement");
    let snap = engine.snapshot();
    assert!(snap.quarantines >= 1);
    assert_eq!(snap.devices[0].health, "quarantined");
}

#[test]
fn pool_exhaustion_degrades_to_cpu_fallback() {
    // A hang retires the only device; the query degrades to the host
    // heap path and still returns a verified answer.
    let plan = FaultPlan::seeded(17).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::DeviceHang,
        nth: 0,
    });
    let mut engine = TopKEngine::new(EngineConfig::a100_pool(1).with_faults(plan));
    let data = generate(Distribution::Uniform, 4096, 9);
    engine.submit(data.clone(), 48).unwrap();
    let report = engine.drain();

    let r = &report.results[0];
    assert!(matches!(r.served, Served::CpuFallback { .. }));
    let got = r.outcome.as_ref().expect("CPU fallback serves the query");
    verify_topk(&data, 48, &got.values, &got.indices).unwrap();
    assert_eq!(report.cpu_fallbacks, 1);
    assert!(report.devices[0].failed, "hung device is retired");
}

#[test]
fn disabled_cpu_fallback_yields_typed_terminal_error() {
    let plan = FaultPlan::seeded(19).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::DeviceHang,
        nth: 0,
    });
    let mut engine = TopKEngine::new(
        EngineConfig::a100_pool(1)
            .with_faults(plan)
            .with_cpu_fallback(false),
    );
    let data = generate(Distribution::Uniform, 2048, 21);
    engine.submit(data, 16).unwrap();
    let report = engine.drain();

    let r = &report.results[0];
    assert_eq!(r.served, Served::Failed);
    let err = r.outcome.as_ref().unwrap_err();
    assert!(
        err.is_device_fault(),
        "terminal error keeps the fault: {err}"
    );
}

#[test]
fn missed_deadline_is_a_terminal_deadline_error() {
    // A 1µs deadline cannot be met by any rung of the ladder.
    let mut engine = TopKEngine::new(EngineConfig::a100_pool(1));
    let data = generate(Distribution::Uniform, 4096, 2);
    engine.submit_with_deadline(data, 32, 1).unwrap();
    let report = engine.drain();

    let r = &report.results[0];
    assert_eq!(r.served, Served::Failed);
    assert!(matches!(
        r.outcome,
        Err(TopKError::DeadlineExceeded { deadline_us: 1 })
    ));
    assert_eq!(report.deadline_misses, 1);
}

#[test]
fn chaos_digest_is_identical_across_same_seed_runs() {
    let run = || {
        let plan = FaultPlan::chaos(42, 0.08);
        let mut engine =
            TopKEngine::new(EngineConfig::a100_pool(3).with_window(4).with_faults(plan));
        for q in 0..24 {
            let n = 1024 + (q % 5) * 777;
            let data = generate(Distribution::Uniform, n, q as u64);
            engine.submit(data, (q % 7) + 1).unwrap();
        }
        engine.drain().chaos_digest()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must reproduce the drain bit-for-bit");
    assert!(a.lines().last().unwrap().starts_with("digest "));
}

// ---------------------------------------------------------------------------
// Latency-statistic hardening (empty / single / all-errored reports).
// ---------------------------------------------------------------------------

#[test]
fn latency_stats_on_empty_drain_are_zero_not_nan() {
    let mut engine = a100_engine(1, 4);
    let report = engine.drain();
    assert!(report.results.is_empty());
    assert_eq!(report.mean_latency_us(), 0.0);
    for q in [0.0, 0.5, 0.99, 1.0] {
        let p = report.percentile_latency_us(q);
        assert_eq!(p, 0.0, "p{q} on an empty report");
        assert!(!p.is_nan());
    }
}

#[test]
fn latency_stats_on_single_result_report() {
    let mut engine = a100_engine(1, 4);
    let data = generate(Distribution::Uniform, 2048, 5);
    engine.submit(data, 16).unwrap();
    let report = engine.drain();
    assert_eq!(report.results.len(), 1);
    let lat = report.results[0].latency_us;
    assert!(lat.is_finite() && lat > 0.0);
    assert_eq!(report.mean_latency_us(), lat);
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(report.percentile_latency_us(q), lat);
    }
}

#[test]
fn latency_stats_ignore_errored_results() {
    // All queries errored (hang, no fallback): the stats must stay
    // finite zeros rather than averaging error placeholders.
    let plan = FaultPlan::seeded(23).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::DeviceHang,
        nth: 0,
    });
    let mut engine = TopKEngine::new(
        EngineConfig::a100_pool(1)
            .with_window(1)
            .with_faults(plan)
            .with_cpu_fallback(false),
    );
    for q in 0..3 {
        let data = generate(Distribution::Uniform, 1024, 50 + q as u64);
        engine.submit(data, 8).unwrap();
    }
    let report = engine.drain();
    assert!(report.results.iter().all(|r| r.outcome.is_err()));
    assert_eq!(report.mean_latency_us(), 0.0);
    let p = report.percentile_latency_us(0.5);
    assert_eq!(p, 0.0);
    assert!(!p.is_nan());
}

#[test]
fn sanitized_drain_is_clean_and_digest_matches_unsanitized() {
    let run = |sanitize: bool| {
        let mut cfg = EngineConfig::a100_pool(2).with_window(4);
        if sanitize {
            cfg = cfg.with_sanitizer(SanitizerMode::full());
        }
        let mut engine = TopKEngine::new(cfg);
        for q in 0..12 {
            let n = if q % 2 == 0 { 2048 } else { 4096 };
            let data = generate(Distribution::Uniform, n, 900 + q as u64);
            engine.submit(data, 32).unwrap();
        }
        let report = engine.drain();
        assert!(report.results.iter().all(|r| r.outcome.is_ok()));
        (report.sanitizer, report.chaos_digest(), engine)
    };

    let (san_off, digest_off, _) = run(false);
    let (san_on, digest_on, engine_on) = run(true);
    assert_eq!(san_off.total(), 0, "off mode never counts");
    assert_eq!(
        san_on.total(),
        0,
        "serving path must be sanitizer-clean: {:?}",
        engine_on.sanitizer_findings()
    );
    assert_eq!(
        digest_off, digest_on,
        "sanitizer must not perturb the chaos digest"
    );
}

// ---------------------------------------------------------------------------
// The accuracy ladder: recall targets, approximate rungs, recall accounting.
// ---------------------------------------------------------------------------

#[test]
fn default_recall_target_never_approximates() {
    // Without an explicit target, chaos may retry/failover/fallback but
    // must never trade accuracy: the approximate rungs stay untouched.
    let plan = FaultPlan::chaos(42, 0.08);
    let mut engine = TopKEngine::new(EngineConfig::a100_pool(3).with_window(4).with_faults(plan));
    for q in 0..24 {
        let n = 1024 + (q % 5) * 777;
        let data = generate(Distribution::Uniform, n, q as u64);
        engine.submit(data, (q % 7) + 1).unwrap();
    }
    let report = engine.drain();
    assert_eq!(report.approx_two_stage + report.approx_bucketed, 0);
    assert!(report
        .results
        .iter()
        .all(|r| !matches!(r.served, Served::Approx { .. })));
    for r in &report.results {
        if r.outcome.is_ok() {
            assert_eq!(r.est_recall, 1.0, "exact rungs report full recall");
        }
    }
    assert_eq!(report.p50_recall(), 1.0);
    assert!(report
        .chaos_digest()
        .contains("approx_two_stage=0 approx_bucketed=0 recall_p50=1.0000"));
}

#[test]
fn capacity_loss_triggers_approx_rungs_with_recall_accounting() {
    // A hang retires one of two devices: from then on the healthy half
    // of the pool is gone (healthy*2 <= pool), and queries that opted
    // into recall 0.9 degrade to an approximate rung — recorded in
    // Served, in the per-rung counts and in the flight recorder.
    let plan = FaultPlan::seeded(29).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::DeviceHang,
        nth: 0,
    });
    let mut engine = TopKEngine::new(
        EngineConfig::a100_pool(2)
            .with_window(1)
            .with_faults(plan)
            .with_recall_target(0.9),
    );
    let mut inputs = Vec::new();
    for q in 0..8 {
        let data = generate(Distribution::Uniform, 1 << 14, 300 + q as u64);
        engine.submit(data.clone(), 64).unwrap();
        inputs.push(data);
    }
    let report = engine.drain();

    assert!(report.results.iter().all(|r| r.outcome.is_ok()));
    let approx: Vec<&QueryResult> = report
        .results
        .iter()
        .filter(|r| matches!(r.served, Served::Approx { .. }))
        .collect();
    assert!(
        !approx.is_empty(),
        "capacity loss must engage the approximate rungs: {report:?}"
    );
    assert_eq!(
        report.approx_two_stage + report.approx_bucketed,
        approx.len() as u64
    );
    for r in &approx {
        assert!(
            r.est_recall >= 0.9 && r.est_recall < 1.0,
            "q{} est_recall {} outside (target, 1.0)",
            r.id,
            r.est_recall
        );
        // The answer really is an approximation of this query's data:
        // measured value-multiset recall clears the analytic target's
        // neighbourhood.
        let out = r.outcome.as_ref().unwrap();
        let measured = topk_core::measured_recall(&inputs[r.id], 64, &out.values);
        assert!(
            measured >= 0.6,
            "q{} measured recall {measured} implausibly low",
            r.id
        );
    }
    // Aggregates see the trade.
    assert!(report.p99_recall() < 1.0);
    assert!(report.p99_recall() >= 0.9);
    // The transition was flight-recorded with its cause.
    let degrade = engine
        .flight_recorder()
        .events()
        .find(|e| e.kind() == "degrade_rung")
        .expect("rung transition must be flight-recorded");
    let detail = degrade.detail();
    assert!(detail.contains("cause=capacity_loss"), "detail: {detail}");
    assert!(detail.contains("recall_target=0.9000"));
    // Metrics exported the rung counters and the recall histogram.
    let text = engine.render_prometheus();
    assert!(text.contains("topk_engine_approx_served_total"), "{text}");
    assert!(text.contains("topk_engine_est_recall_count"), "{text}");
}

#[test]
fn a_trigger_evicted_within_its_step_still_dumps_a_post_mortem() {
    // One device, one 20-query batch, a worker panic on its first
    // launch: the panic step retires the device, and the next step
    // degrades all 20 queries to the CPU. Query 0's deadline falls 5 µs
    // before its CPU answer, so that step emits a deadline miss and
    // then 19 fallback events — enough to evict the miss from a
    // 16-event ring before the step ends.
    let run = |capacity: usize, deadline: Option<u64>| {
        let plan = FaultPlan::seeded(3).with_scripted(ScriptedFault {
            device: 0,
            kind: FaultKind::WorkerPanic,
            nth: 0,
        });
        let mut engine = TopKEngine::new(
            EngineConfig::a100_pool(1)
                .with_window(32)
                .with_flight_capacity(capacity)
                .with_faults(plan),
        );
        for q in 0..20 {
            let data = generate(Distribution::Uniform, 4096, q);
            match deadline.filter(|_| q == 0) {
                Some(dl) => engine.submit_with_deadline(data, 8, dl),
                None => engine.submit(data, 8),
            }
            .unwrap();
        }
        let report = engine.drain();
        (report, engine.take_post_mortems())
    };
    let (pilot, _) = run(256, None);
    assert!(matches!(
        pilot.results[0].served,
        Served::CpuFallback { .. }
    ));
    let deadline = (pilot.results[0].latency_us - 5.0) as u64;

    for capacity in [16, 256] {
        let (report, post_mortems) = run(capacity, Some(deadline));
        assert!(matches!(
            report.results[0].outcome,
            Err(TopKError::DeadlineExceeded { .. })
        ));
        assert_eq!(
            post_mortems.len(),
            2,
            "capacity {capacity}: the panic step and the deadline step each dump one"
        );
        assert!(post_mortems[0].contains("\"trigger\": \"device_failed\""));
        assert!(post_mortems[1].contains("\"trigger\": \"deadline_miss\""));
    }
}

/// Row length and K of the chaos scenario's queries. A batch's upload
/// and readback cost the same on every rung, so only the selection
/// itself can get cheaper; at this shape the two-stage rung's
/// selection is about half the exact one's, enough headroom for the
/// scenario's deadline to separate the rungs.
const CHAOS_SHAPE: (usize, usize) = (1 << 15, 512);

/// The chaos acceptance scenario: 4 devices, scripted worker panics
/// retire two of them, every query carries a tight deadline.
/// Exact-only serving must demonstrably miss deadlines;
/// `recall_target = 0.95` must serve *every* query inside its deadline
/// via the approximate rungs at ≥ 0.95 aggregate measured recall,
/// reproducibly.
fn chaos_scenario(recall_target: f64, deadline_us: Option<u64>) -> (DrainReport, Vec<Vec<f32>>) {
    let (n, k) = CHAOS_SHAPE;
    let plan = FaultPlan::seeded(31)
        .with_scripted(ScriptedFault {
            device: 0,
            kind: FaultKind::WorkerPanic,
            nth: 0,
        })
        .with_scripted(ScriptedFault {
            device: 1,
            kind: FaultKind::WorkerPanic,
            nth: 0,
        });
    let mut cfg = EngineConfig::a100_pool(4)
        .with_window(2)
        .with_faults(plan)
        .with_recall_target(recall_target);
    if let Some(dl) = deadline_us {
        cfg = cfg.with_deadline_us(dl);
    }
    let mut engine = TopKEngine::new(cfg);
    let mut inputs = Vec::new();
    for q in 0..32 {
        let data = generate(Distribution::Uniform, n, 500 + q as u64);
        engine.submit(data.clone(), k).unwrap();
        inputs.push(data);
    }
    (engine.drain(), inputs)
}

#[test]
fn chaos_degradation_serves_every_query_within_deadline() {
    // Deadline-free pilots bound the two serving modes; the simulator
    // is deterministic, so these are exact, not flaky estimates.
    let (exact_pilot, _) = chaos_scenario(1.0, None);
    let (approx_pilot, _) = chaos_scenario(0.95, None);
    assert!(approx_pilot
        .results
        .iter()
        .any(|r| matches!(r.served, Served::Approx { .. })));
    let max_lat = |rep: &DrainReport| rep.results.iter().map(|r| r.latency_us).fold(0.0, f64::max);
    let exact_max = max_lat(&exact_pilot);
    let approx_max = max_lat(&approx_pilot);
    assert!(
        approx_max * 1.1 < exact_max,
        "approximation must buy real headroom: approx {approx_max} vs exact {exact_max}"
    );
    // A deadline the approximate ladder clears but exact serving
    // cannot.
    let deadline = (approx_max * 1.05).ceil() as u64;

    // Exact-only: the deadline verdict lands on real queries.
    let (exact_run, _) = chaos_scenario(1.0, Some(deadline));
    assert!(
        exact_run.deadline_misses > 0 || exact_run.results.iter().any(|r| r.outcome.is_err()),
        "exact-only serving must demonstrably fail this scenario"
    );

    // recall 0.95: zero terminal failures, zero deadline misses, every
    // answer inside its deadline, served largely by approximate rungs.
    let (approx_run, inputs) = chaos_scenario(0.95, Some(deadline));
    assert_eq!(approx_run.deadline_misses, 0, "{approx_run:?}");
    for r in &approx_run.results {
        assert!(
            r.outcome.is_ok(),
            "q{} failed: {:?}",
            r.id,
            r.outcome.as_ref().err()
        );
        assert_ne!(r.served, Served::Failed);
        assert!(r.latency_us <= deadline as f64);
    }
    assert!(approx_run.approx_two_stage + approx_run.approx_bucketed > 0);

    // Aggregate *measured* recall (value-multiset vs. the true top-K)
    // clears the target, not just the analytic estimate.
    let mut measured_sum = 0.0;
    for r in &approx_run.results {
        let out = r.outcome.as_ref().unwrap();
        measured_sum += topk_core::measured_recall(&inputs[r.id], CHAOS_SHAPE.1, &out.values);
    }
    let measured_mean = measured_sum / approx_run.results.len() as f64;
    assert!(
        measured_mean >= 0.95,
        "aggregate measured recall {measured_mean} below target"
    );
    // Analytic accounting agrees it was a trade, not a collapse.
    assert!(approx_run.mean_est_recall() >= 0.95);
    assert!(approx_run.p99_recall() >= 0.95);

    // Same-seed reproducibility, recall accounting included: the
    // digest now carries per-rung counts and recall percentiles.
    let (rerun, _) = chaos_scenario(0.95, Some(deadline));
    assert_eq!(
        approx_run.chaos_digest(),
        rerun.chaos_digest(),
        "same-seed chaos digests must be bit-identical"
    );
    assert!(approx_run.chaos_digest().contains("recall_p50="));
}

#[test]
fn coalesce_merges_recall_targets_to_the_strictest_member() {
    // A fused batch may only approximate if *every* member consented:
    // one exact-only query in the batch pins it to the exact path.
    let plan = FaultPlan::seeded(37).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::DeviceHang,
        nth: 0,
    });
    let mut engine = TopKEngine::new(EngineConfig::a100_pool(2).with_window(8).with_faults(plan));
    let data = generate(Distribution::Uniform, 1 << 14, 77);
    for _ in 0..4 {
        engine.submit_with_recall(data.clone(), 32, 0.9).unwrap();
    }
    // The strict member joins the same (N, K) batch.
    engine.submit(data.clone(), 32).unwrap();
    let report = engine.drain();
    assert!(report.results.iter().all(|r| r.outcome.is_ok()));
    // All five queries coalesce (window 8, same shape) into batches
    // that contain the exact-only member — nothing may approximate.
    for r in &report.results {
        if r.batch_size == 5 {
            assert!(
                !matches!(r.served, Served::Approx { .. }),
                "q{} approximated in a batch with an exact-only member",
                r.id
            );
        }
    }
}

#[test]
fn sanitizer_counts_are_drain_relative() {
    let mut engine =
        TopKEngine::new(EngineConfig::a100_pool(1).with_sanitizer(SanitizerMode::full()));
    let data = generate(Distribution::Uniform, 1024, 7);
    engine.submit(data.clone(), 16).unwrap();
    let first = engine.drain();
    engine.submit(data, 16).unwrap();
    let second = engine.drain();
    // Clean drains: both deltas are zero even though the device (and
    // its cumulative counters) persists between them.
    assert_eq!(first.sanitizer.total(), 0);
    assert_eq!(second.sanitizer.total(), 0);
    assert_eq!(second.devices[0].sanitizer, SanitizerCounts::default());
}

/// The serving mix at a test-sized scale: `(log2 n, k, distribution)`
/// per shape, skewed and tied shapes included.
const MIX: [(u32, usize, Distribution); 6] = [
    (12, 1, Distribution::Uniform),
    (13, 16, Distribution::Normal),
    (14, 64, Distribution::RadixAdversarial { m_bits: 24 }),
    (
        15,
        128,
        Distribution::Zipf {
            exponent_tenths: 11,
        },
    ),
    (16, 512, Distribution::Uniform),
    (14, 32, Distribution::RadixAdversarial { m_bits: 24 }),
];

/// `per_shape` queries of every [`MIX`] shape, interleaved.
fn mix_queries(per_shape: usize) -> Vec<(Vec<f32>, usize)> {
    (0..per_shape * MIX.len())
        .map(|j| {
            let (log2, k, dist) = MIX[j % MIX.len()];
            (generate(dist, 1 << log2, 900 + j as u64), k)
        })
        .collect()
}

fn drain_queries(engine: &mut TopKEngine, queries: &[(Vec<f32>, usize)]) -> DrainReport {
    for (data, k) in queries {
        engine.submit(data.clone(), *k).unwrap();
    }
    engine.drain()
}

#[test]
fn a_coalesced_job_uploads_once_and_reads_back_one_pair() {
    let mut engine = a100_engine(1, 8);
    let queries: Vec<(Vec<f32>, usize)> = (0..8)
        .map(|q| (generate(Distribution::Uniform, 1 << 14, q), 64))
        .collect();
    let events_before = engine.gpus[0].timeline().events().len();
    let report = drain_queries(&mut engine, &queries);
    assert!(report.results.iter().all(|r| r.batch_size == 8));
    let count = |kind: EventKind| {
        engine.gpus[0].timeline().events()[events_before..]
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    };
    assert_eq!(count(EventKind::MemcpyHtoD), 1, "one upload for the job");
    assert_eq!(count(EventKind::MemcpyDtoH), 2, "one values + indices pair");
    for (r, (data, k)) in report.results.iter().zip(&queries) {
        let out = r.outcome.as_ref().unwrap();
        verify_topk(data, *k, &out.values, &out.indices).unwrap();
    }
}

#[test]
fn a_fault_free_mixed_drain_keeps_the_calibration_near_one() {
    // The tuner observes the selection alone: a drain whose time is
    // mostly uploads and readbacks must not inflate its cost model.
    let mut engine = a100_engine(2, 8);
    let report = drain_queries(&mut engine, &mix_queries(8));
    assert!(report.results.iter().all(|r| r.outcome.is_ok()));
    let calibration = engine.calibration();
    assert!(!calibration.is_empty(), "the drain fed the tuner");
    for (family, factor) in calibration {
        assert!(
            (0.5..=2.0).contains(&factor),
            "{family} calibrated to {factor}"
        );
    }
}

#[test]
fn windows_one_and_eight_answer_the_same_queries_exactly() {
    let queries = mix_queries(3);
    for window in [1, 8] {
        let report = drain_queries(&mut a100_engine(2, window), &queries);
        for (r, (data, k)) in report.results.iter().zip(&queries) {
            let out = r
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("window {window} query {}: {e}", r.id));
            verify_topk(data, *k, &out.values, &out.indices)
                .unwrap_or_else(|e| panic!("window {window} query {}: {e}", r.id));
        }
    }
}
