//! The tuner's plan-cache counters, read from the process-wide
//! `obs` counters.
//!
//! Those counters are global, so a concurrent test that plans would
//! move them mid-assertion. This binary holds a single test, so nothing
//! else runs in its process and every delta below is exact.

use gpu_sim::DeviceSpec;
use topk_core::obs::counters;
use topk_core::tuner::{ProblemShape, Tuner};

#[test]
fn plan_cache_counters_are_exact() {
    let a100 = DeviceSpec::a100();

    // Hits and misses are counted: a different exact shape in the same
    // bucket is a cache hit with the same plan.
    let tuner = Tuner::new();
    let before = counters().snapshot();
    let shape = ProblemShape::new(123_456, 99, 7);
    let first = tuner.plan(&a100, &shape);
    let second = tuner.plan(&a100, &ProblemShape::new(100_000, 70, 5));
    let delta = counters().snapshot().delta_since(&before);
    assert_eq!(first, second);
    assert_eq!(delta.tuner_plan_misses, 1);
    assert_eq!(delta.tuner_plan_hits, 1);
    assert_eq!(tuner.table_len(), 1);

    // Peek is counter-neutral and miss-safe.
    let tuner = Tuner::new();
    let shape = ProblemShape::new(1 << 14, 32, 1);
    let before = counters().snapshot();
    // Cold table: peek neither plans nor counts.
    assert!(tuner.peek(&shape).is_none());
    let plan = tuner.plan(&a100, &shape).unwrap();
    let after_plan = counters().snapshot();
    // Warm table: peek returns exactly the cached plan, still without
    // touching the hit/miss counters.
    assert_eq!(tuner.peek(&shape), Some(plan));
    let after_peek = counters().snapshot();
    let d_plan = after_plan.delta_since(&before);
    let d_peek = after_peek.delta_since(&after_plan);
    assert_eq!(d_plan.tuner_plan_misses, 1);
    assert_eq!(d_peek.tuner_plan_hits, 0);
    assert_eq!(d_peek.tuner_plan_misses, 0);
}
