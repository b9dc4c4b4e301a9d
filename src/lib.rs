//! # gpu-topk — a Rust reproduction of "Parallel Top-K Algorithms on
//! GPU: A Comprehensive Study and New Methods" (SC '23)
//!
//! This façade crate re-exports the whole workspace:
//!
//! * [`gpu_sim`] — the deterministic GPU simulator substrate (device
//!   model, kernels-as-closures, metered memory, cost model, profiler).
//! * [`topk_core`] — the paper's contributions: **AIR Top-K** (§3) and
//!   **GridSelect** (§4), plus keys/bitonic/verify machinery.
//! * [`topk_baselines`] — the eight previous algorithms of Table 1.
//! * [`topk_engine`] — the multi-device serving layer: bounded query
//!   queue, same-shape batch coalescing, per-query fallible results.
//! * [`topk_obs`] — the observability substrate: metrics registry with
//!   Prometheus text exposition, and tracing span ids that link every
//!   query to its kernel launches.
//! * [`datagen`] — the synthetic distributions of §5.1 and the
//!   ANN-workload substitute for the §5.5 real-data experiments.
//!
//! ## Quickstart
//!
//! ```
//! use gpu_topk::prelude::*;
//!
//! // A simulated A100, the paper's main testbed.
//! let mut gpu = Gpu::new(DeviceSpec::a100());
//!
//! // 100k uniform floats, find the 10 smallest (with indices).
//! let data = datagen::generate(Distribution::Uniform, 100_000, 42);
//! let input = gpu.htod("scores", &data);
//!
//! let air = AirTopK::default();
//! let out = air.select(&mut gpu, &input, 10);
//!
//! let values = out.values.to_vec();
//! let indices = out.indices.to_vec();
//! verify_topk(&data, 10, &values, &indices).expect("correct top-K");
//! println!("top-10 in {:.1} simulated µs", gpu.elapsed_us());
//! ```

pub use ::datagen;
pub use ::gpu_sim;
pub use ::topk_baselines;
pub use ::topk_core;
pub use ::topk_cpu;
pub use ::topk_engine;
pub use ::topk_hybrid;
pub use ::topk_obs;

/// Everything needed to run a selection, in one import.
pub mod prelude {
    pub use crate::datagen::{self, AnnDataset, AnnKind, Distribution};
    pub use crate::gpu_sim::{
        DeviceSpec, Footprint, Gpu, KernelContract, LaunchConfig, SanitizerCounts,
        SanitizerFinding, SanitizerMode, SanitizerReport,
    };
    pub use crate::topk_baselines::{
        BitonicTopK, BlockSelect, BucketSelect, QuickSelect, RadixSelect, SampleSelect, SortTopK,
        WarpSelect,
    };
    pub use crate::topk_core::{
        expected_recall, measured_recall, verify_topk, verify_topk_typed, AirConfig, AirTopK,
        BucketedTopK, Category, DeviceMatrix, GridSelect, GridSelectConfig, QueueKind, RowSelect,
        SelectK, SelectLargest, TopKAlgorithm, TopKError, TopKOutput, TwoStageTopK, UnfusedRadix,
        WarpSelector,
    };
    pub use crate::topk_cpu::{heap_topk, parallel_topk};
    pub use crate::topk_engine::{
        chrome_trace, ApproxRung, BreakerConfig, DrainReport, EngineConfig, EngineSnapshot,
        FaultKind, FaultPlan, QueryResult, RetryPolicy, ScriptedFault, Served, TopKEngine,
    };
    pub use crate::topk_hybrid::DrTopK;
    pub use crate::topk_obs::MetricsRegistry;
}

use prelude::*;

/// Every algorithm in the study: the 8 baselines of Table 1 followed by
/// the paper's two contributions. Order matches how the paper lists
/// them.
pub fn all_algorithms() -> Vec<Box<dyn TopKAlgorithm>> {
    let mut algs = topk_baselines::all_baselines();
    algs.push(Box::new(AirTopK::default()));
    algs.push(Box::new(GridSelect::default()));
    algs
}

/// Look up an algorithm by its paper name (case-insensitive, ignoring
/// spaces and dashes), e.g. `"air top-k"`, `"AIRTopK"`, `"radixselect"`.
pub fn algorithm_by_name(name: &str) -> Option<Box<dyn TopKAlgorithm>> {
    let norm = |s: &str| {
        s.chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .map(|c| c.to_ascii_lowercase())
            .collect::<String>()
    };
    let want = norm(name);
    all_algorithms()
        .into_iter()
        .find(|a| norm(a.name()) == want)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_ten_algorithms() {
        let algs = all_algorithms();
        assert_eq!(algs.len(), 10);
        assert_eq!(algs[8].name(), "AIR Top-K");
        assert_eq!(algs[9].name(), "GridSelect");
    }

    #[test]
    fn lookup_is_forgiving() {
        assert!(algorithm_by_name("AIR Top-K").is_some());
        assert!(algorithm_by_name("airtopk").is_some());
        assert!(algorithm_by_name("GRIDSELECT").is_some());
        assert!(algorithm_by_name("bitonic top-k").is_some());
        assert!(algorithm_by_name("nope").is_none());
    }
}
