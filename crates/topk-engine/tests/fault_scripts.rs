//! Scheduler invariants over generated fault scripts.
//!
//! Lives in its own test binary on purpose: the algorithm-level
//! counters (`topk_core::obs`) behind part of the Prometheus text are
//! process-wide, so two same-script runs only compare equal when no
//! other test drains an engine in the same process.

use datagen::{generate, Distribution};
use proptest::prelude::*;
use topk_engine::{
    chrome_trace, BreakerConfig, DrainReport, EngineConfig, FaultKind, FaultPlan, ScriptedFault,
    TopKEngine,
};

/// Any device of a 3-device pool, any fault kind, on one of its first
/// eight eligible operations. Faults aimed past a smaller pool never
/// fire.
fn fault_script() -> impl Strategy<Value = Vec<ScriptedFault>> {
    prop::collection::vec((0usize..3, 0..FaultKind::ALL.len(), 0u64..8), 0..8).prop_map(|v| {
        v.into_iter()
            .map(|(device, kind, nth)| ScriptedFault {
                device,
                kind: FaultKind::ALL[kind],
                nth,
            })
            .collect()
    })
}

/// One query: row length, K, and how it is submitted — plain (0), with
/// a 300 µs or 900 µs deadline (1, 2), or consenting to recall 0.9 (3).
type Query = (usize, usize, u64);

/// Small rows in three shapes (so batches coalesce) and K up to 16.
fn queries() -> impl Strategy<Value = Vec<Query>> {
    prop::collection::vec((0usize..3, 1usize..17, 0u64..4), 1..12).prop_map(|v| {
        v.into_iter()
            .map(|(shape, k, mode)| ([512, 1024, 2048][shape], k, mode))
            .collect()
    })
}

struct Run {
    report: DrainReport,
    engine: TopKEngine,
}

/// A pool of `devices` under `script`, coalescing up to `window`
/// queries, whose breaker trips after `threshold` consecutive faults
/// and re-probes 200 µs later.
fn run(
    script: &[ScriptedFault],
    (devices, window, threshold): (usize, usize, u32),
    queries: &[Query],
) -> Run {
    let plan = script
        .iter()
        .fold(FaultPlan::seeded(5), |plan, &f| plan.with_scripted(f));
    let mut engine = TopKEngine::new(
        EngineConfig::a100_pool(devices)
            .with_window(window)
            .with_faults(plan)
            .with_breaker(BreakerConfig {
                threshold,
                cooldown_us: 200.0,
            })
            .with_flight_capacity(1 << 12),
    );
    for (q, &(n, k, mode)) in queries.iter().enumerate() {
        let data = generate(Distribution::Uniform, n, q as u64);
        let id = match mode {
            1 | 2 => engine.submit_with_deadline(data, k, [300, 900][mode as usize - 1]),
            3 => engine.submit_with_recall(data, k, 0.9),
            _ => engine.submit(data, k),
        };
        assert_eq!(id, Ok(q));
    }
    Run {
        report: engine.drain(),
        engine,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scheduler_invariants_hold_under_generated_fault_scripts(
        script in fault_script(),
        pool in (1usize..4, 1usize..5, 1u32..4),
        queries in queries(),
    ) {
        let Run { report, engine } = run(&script, pool, &queries);

        // Exactly one terminal result per submitted id.
        let ids: Vec<usize> = report.results.iter().map(|r| r.id).collect();
        prop_assert_eq!(ids, (0..queries.len()).collect::<Vec<_>>());

        // Devices still in service hold no leaked bytes.
        for d in report.devices.iter().filter(|d| !d.failed) {
            prop_assert_eq!(d.mem_allocated_after, 0, "device {} leaked", d.device);
        }

        // The same script replays bit for bit.
        let again = run(&script, pool, &queries);
        prop_assert_eq!(report.chaos_digest(), again.report.chaos_digest());
        prop_assert_eq!(engine.render_prometheus(), again.engine.render_prometheus());
        prop_assert_eq!(chrome_trace(&report), chrome_trace(&again.report));

        // Every count ties out with the record it is folded from.
        let served = |label: &str| {
            report.results.iter().filter(|r| r.served.label() == label).count() as u64
        };
        prop_assert_eq!(report.failovers, served("failover"));
        prop_assert_eq!(report.cpu_fallbacks, served("cpu_fallback"));
        prop_assert_eq!(report.approx_two_stage, served("approx_two_stage"));
        prop_assert_eq!(report.approx_bucketed, served("approx_bucketed"));
        let recorded = |kind: &str| {
            let events = engine.flight_recorder().events();
            events.filter(|e| e.kind() == kind).count() as u64
        };
        prop_assert!(engine.flight_recorder().recorded() <= 1 << 12, "ring wrapped");
        prop_assert_eq!(report.retries, recorded("retry"));
        prop_assert_eq!(report.quarantines, recorded("breaker_open"));
    }
}
