//! WarpSelect baseline (Faiss, Johnson et al. 2021).
//!
//! A single warp maintains the top-K list; every thread keeps a small
//! private queue in registers, and whenever *any* thread queue fills,
//! the warp sorts all 32 queues bitonically and merges them into the
//! list (§2.2, §4). Supports on-the-fly processing and K ≤ 2048.
//!
//! Its defining limitation in this benchmark is parallelism: one warp
//! per problem. At batch 1 this uses 1/64th of one SM's warp slots —
//! Fig. 7's sharply rising WarpSelect curves are that starvation. With
//! a batch, Faiss launches one warp per query, so batch-100 recovers
//! two orders of magnitude (still only 100 warps on a device that
//! wants ~1700 to saturate).

use gpu_sim::{DeviceBuffer, Gpu};
use topk_core::error::TopKError;
use topk_core::gridselect::{select_partial_core, GridSelectConfig, QueueKind, MAX_K};
use topk_core::traits::{check_args, check_batch, Category, TopKAlgorithm, TopKOutput};

/// Per-thread queue length. Faiss's `NumThreadQ` is 2 for the K range
/// this benchmark exercises (k ≤ 1024) and grows only for the largest
/// K — and the small queue is exactly why WarpSelect flushes so often:
/// with 32 independent 2-slot queues, *some* lane fills after only a
/// handful of qualified elements (§4's motivation for the shared
/// queue).
pub const THREAD_QUEUE_LEN: usize = 2;

/// The Faiss WarpSelect baseline: one warp per problem, per-thread
/// queues.
#[derive(Debug, Clone, Default)]
pub struct WarpSelect;

impl WarpSelect {
    fn core_config(&self) -> GridSelectConfig {
        GridSelectConfig {
            warps_per_block: 1,
            max_blocks_per_problem: 1,
            items_per_thread: 32,
            queue: QueueKind::PerThread {
                len: THREAD_QUEUE_LEN,
            },
        }
    }
}

impl TopKAlgorithm for WarpSelect {
    fn name(&self) -> &'static str {
        "WarpSelect"
    }

    fn category(&self) -> Category {
        Category::PartialSorting
    }

    fn max_k(&self) -> Option<usize> {
        Some(MAX_K)
    }

    fn try_select(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        k: usize,
    ) -> Result<TopKOutput, TopKError> {
        check_args(self, input.len(), k)?;
        select_partial_core(
            gpu,
            "warpselect_kernel",
            std::slice::from_ref(input),
            k,
            &self.core_config(),
        )?
        .pop()
        .ok_or_else(|| TopKError::UnsupportedShape {
            algorithm: self.name(),
            detail: "batch of one produced no output".into(),
        })
    }

    fn try_select_batch(
        &self,
        gpu: &mut Gpu,
        inputs: &[DeviceBuffer<f32>],
        k: usize,
    ) -> Result<Vec<TopKOutput>, TopKError> {
        // Faiss processes a whole query tile in one launch: one warp
        // (block) per problem.
        let n = check_batch(self, inputs)?;
        check_args(self, n, k)?;
        select_partial_core(gpu, "warpselect_kernel", inputs, k, &self.core_config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Distribution};
    use gpu_sim::{DeviceSpec, Gpu};
    use topk_core::verify::verify_topk;

    fn run_case(data: &[f32], k: usize) {
        let mut g = Gpu::new(DeviceSpec::a100());
        let input = g.htod("in", data);
        let out = WarpSelect.select(&mut g, &input, k);
        verify_topk(data, k, &out.values.to_vec(), &out.indices.to_vec())
            .unwrap_or_else(|e| panic!("WarpSelect failed: {e}"));
    }

    #[test]
    fn correct_on_all_distributions() {
        for dist in Distribution::benchmark_set() {
            let data = generate(dist, 10_000, 3);
            for k in [1usize, 32, 500, 2048] {
                run_case(&data, k);
            }
        }
    }

    #[test]
    fn single_warp_launch_shape() {
        let mut g = Gpu::new(DeviceSpec::a100());
        let data = generate(Distribution::Uniform, 50_000, 1);
        let input = g.htod("in", &data);
        g.reset_profile();
        let _ = WarpSelect.select(&mut g, &input, 64);
        let r = &g.reports()[0];
        assert_eq!(r.cfg.grid_dim, 1);
        assert_eq!(r.cfg.block_dim, 32, "exactly one warp");
        assert_eq!(g.reports().len(), 1, "single kernel, no merge stage");
    }

    #[test]
    fn batch_launches_one_warp_per_problem() {
        let mut g = Gpu::new(DeviceSpec::a100());
        let datas: Vec<Vec<f32>> = (0..8)
            .map(|i| generate(Distribution::Uniform, 2000, i))
            .collect();
        let inputs: Vec<_> = datas
            .iter()
            .enumerate()
            .map(|(i, d)| g.htod(&format!("q{i}"), d))
            .collect();
        g.reset_profile();
        let outs = WarpSelect.select_batch(&mut g, &inputs, 16);
        assert_eq!(g.reports()[0].cfg.grid_dim, 8);
        for (d, o) in datas.iter().zip(&outs) {
            verify_topk(d, 16, &o.values.to_vec(), &o.indices.to_vec()).unwrap();
        }
    }

    #[test]
    fn k_cap_is_2048() {
        assert_eq!(WarpSelect.max_k(), Some(2048));
    }
}
