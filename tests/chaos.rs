//! Chaos acceptance gate for the resilient serving layer.
//!
//! The invariant this file defends: **under any seeded fault schedule,
//! every submitted query reaches exactly one terminal result** — an
//! answer (GPU, failover, or CPU fallback) or a typed error — with no
//! hangs, no aborted drains, no scratch leaked on surviving devices,
//! and bitwise-identical outcomes when the same seed is replayed.

use gpu_topk::prelude::*;

/// A mixed-shape workload sized so every seed exercises coalescing,
/// retries, and multi-device scheduling.
fn submit_workload(engine: &mut TopKEngine, queries: usize) -> Vec<(Vec<f32>, usize)> {
    let shapes: [(usize, usize); 4] = [(1 << 13, 32), (1 << 12, 100), (1 << 13, 1), (2048, 256)];
    let mut expected = Vec::new();
    for q in 0..queries {
        let (n, k) = shapes[q % shapes.len()];
        let data = datagen::generate(Distribution::Uniform, n, q as u64);
        engine.submit(data.clone(), k).unwrap();
        expected.push((data, k));
    }
    expected
}

fn chaos_engine(seed: u64, rate: f64, devices: usize) -> TopKEngine {
    TopKEngine::new(
        EngineConfig::a100_pool(devices)
            .with_window(4)
            .with_queue_capacity(64)
            .with_faults(FaultPlan::chaos(seed, rate)),
    )
}

#[test]
fn every_query_is_terminal_under_a_seed_matrix() {
    for seed in [1u64, 7, 42, 1234, 0xDEAD_BEEF] {
        for rate in [0.01, 0.05, 0.15] {
            let mut engine = chaos_engine(seed, rate, 2);
            let expected = submit_workload(&mut engine, 40);
            let report = engine.drain();

            assert_eq!(
                report.results.len(),
                expected.len(),
                "seed {seed} rate {rate}: queries went missing"
            );
            for (r, (data, k)) in report.results.iter().zip(&expected) {
                match &r.outcome {
                    Ok(out) => {
                        // Whatever rung served it, the answer must be
                        // the true top-K.
                        verify_topk(data, *k, &out.values, &out.indices)
                            .unwrap_or_else(|e| panic!("seed {seed} rate {rate} q{}: {e}", r.id));
                        assert_ne!(r.served, Served::Failed);
                    }
                    Err(_) => assert_eq!(r.served, Served::Failed),
                }
            }
            // Surviving devices must not leak scratch, no matter which
            // retries and faults they absorbed. (Devices retired by an
            // injected panic are exempt: the panic unwound past their
            // scratch bookkeeping by design.)
            for d in report.devices.iter().filter(|d| !d.failed) {
                assert_eq!(
                    d.mem_allocated_after, 0,
                    "seed {seed} rate {rate}: device {} leaked scratch",
                    d.device
                );
            }
        }
    }
}

#[test]
fn same_seed_replays_bitwise_identically() {
    let run = |seed: u64| {
        let mut engine = chaos_engine(seed, 0.08, 3);
        submit_workload(&mut engine, 36);
        engine.drain().chaos_digest()
    };
    assert_eq!(run(42), run(42), "same seed must replay identically");
    assert_eq!(run(7), run(7));
    assert_ne!(
        run(42),
        run(9001),
        "different seeds should produce different fault schedules"
    );
}

#[test]
fn chaos_digest_is_bit_identical_with_contracts_on_vs_off() {
    // The armed sanitizer (contract verification before every launch,
    // footprint conformance and every other access analysis) must
    // never touch KernelStats or the cost model: the same seeded fault
    // schedule has to replay to the same digest whether the sanitizer
    // is armed or off entirely.
    let run = |contracts: bool| {
        let mut cfg = EngineConfig::a100_pool(3)
            .with_window(4)
            .with_queue_capacity(64)
            .with_faults(FaultPlan::chaos(42, 0.08));
        if contracts {
            cfg = cfg.with_sanitizer(SanitizerMode {
                armed: true,
                leakcheck: false,
            });
        }
        let mut engine = TopKEngine::new(cfg);
        submit_workload(&mut engine, 36);
        engine.drain().chaos_digest()
    };
    assert_eq!(
        run(false),
        run(true),
        "contract enforcement perturbed the chaos digest"
    );
}

#[test]
fn scripted_hang_retires_one_device_and_the_pool_survives() {
    let plan = FaultPlan::seeded(5).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::DeviceHang,
        nth: 2,
    });
    let mut engine = TopKEngine::new(
        EngineConfig::a100_pool(2)
            .with_window(2)
            .with_queue_capacity(32)
            .with_faults(plan),
    );
    let expected = submit_workload(&mut engine, 16);
    let report = engine.drain();

    assert!(report.devices[0].failed, "hung device is retired");
    assert!(!report.devices[1].failed);
    assert_eq!(report.results.len(), expected.len());
    for (r, (data, k)) in report.results.iter().zip(&expected) {
        let out = r.outcome.as_ref().expect("survivor absorbs the pool");
        verify_topk(data, *k, &out.values, &out.indices).unwrap();
    }
}

#[test]
fn last_device_hang_degrades_to_verified_cpu_answers() {
    let plan = FaultPlan::seeded(3).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::DeviceHang,
        nth: 0,
    });
    let mut engine = TopKEngine::new(
        EngineConfig::a100_pool(1)
            .with_queue_capacity(8)
            .with_faults(plan),
    );
    let expected = submit_workload(&mut engine, 4);
    let report = engine.drain();

    assert!(report.cpu_fallbacks >= 1);
    for (r, (data, k)) in report.results.iter().zip(&expected) {
        assert!(
            matches!(r.served, Served::CpuFallback { .. }),
            "q{} served={:?}",
            r.id,
            r.served
        );
        let out = r.outcome.as_ref().expect("CPU fallback still answers");
        verify_topk(data, *k, &out.values, &out.indices).unwrap();
    }
}

#[test]
fn impossible_deadline_is_a_typed_error_not_a_hang() {
    let mut engine = TopKEngine::new(EngineConfig::a100_pool(1).with_deadline_us(1));
    submit_workload(&mut engine, 4);
    let report = engine.drain();

    assert_eq!(report.deadline_misses, 4);
    for r in &report.results {
        assert_eq!(r.served, Served::Failed);
        assert!(
            matches!(r.outcome, Err(TopKError::DeadlineExceeded { .. })),
            "q{}: {:?}",
            r.id,
            r.outcome
        );
    }
}
