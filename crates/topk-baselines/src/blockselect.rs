//! BlockSelect baseline (Faiss).
//!
//! WarpSelect extended to a full thread block of 4 warps (§4): four
//! times the parallelism, one block-wide result merge at the end. The
//! paper observes it beats WarpSelect consistently, and uses it as the
//! baseline for GridSelect — which differs exactly by (a) the shared
//! queue and (b) launching *many* blocks instead of one (§5.3: one
//! block occupies one of the A100's 108 SMs, hence the up-to-882×
//! headroom GridSelect recovers).

use gpu_sim::{DeviceBuffer, Gpu};
use topk_core::error::TopKError;
use topk_core::gridselect::{select_partial_core, GridSelectConfig, QueueKind, MAX_K};
use topk_core::traits::{check_args, check_batch, Category, TopKAlgorithm, TopKOutput};

/// Warps per block, as in Faiss ("up to 4 warps", §4).
pub const WARPS: usize = 4;

/// The Faiss BlockSelect baseline: one 4-warp block per problem,
/// per-thread queues.
#[derive(Debug, Clone, Default)]
pub struct BlockSelect;

impl BlockSelect {
    fn core_config(&self) -> GridSelectConfig {
        GridSelectConfig {
            warps_per_block: WARPS,
            max_blocks_per_problem: 1,
            items_per_thread: 32,
            queue: QueueKind::PerThread {
                len: crate::warpselect::THREAD_QUEUE_LEN,
            },
        }
    }
}

impl TopKAlgorithm for BlockSelect {
    fn name(&self) -> &'static str {
        "BlockSelect"
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
            "blockselect_kernel",
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
        let n = check_batch(self, inputs)?;
        check_args(self, n, k)?;
        select_partial_core(gpu, "blockselect_kernel", inputs, k, &self.core_config())
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
        let out = BlockSelect.select(&mut g, &input, k);
        verify_topk(data, k, &out.values.to_vec(), &out.indices.to_vec())
            .unwrap_or_else(|e| panic!("BlockSelect failed: {e}"));
    }

    #[test]
    fn correct_on_all_distributions() {
        for dist in Distribution::benchmark_set() {
            let data = generate(dist, 12_000, 7);
            for k in [1usize, 100, 2048] {
                run_case(&data, k);
            }
        }
    }

    #[test]
    fn one_block_of_four_warps() {
        let mut g = Gpu::new(DeviceSpec::a100());
        let data = generate(Distribution::Uniform, 50_000, 1);
        let input = g.htod("in", &data);
        g.reset_profile();
        let _ = BlockSelect.select(&mut g, &input, 64);
        let r = &g.reports()[0];
        assert_eq!(r.cfg.grid_dim, 1);
        assert_eq!(r.cfg.block_dim, 4 * 32);
    }

    #[test]
    fn faster_than_warpselect_at_large_n() {
        // Fig. 6/7: "BlockSelect outperforms WarpSelect consistently."
        let data = generate(Distribution::Uniform, 500_000, 2);
        let time = |alg: &dyn TopKAlgorithm| {
            let mut g = Gpu::new(DeviceSpec::a100());
            let input = g.htod("in", &data);
            g.reset_profile();
            let _ = alg.select(&mut g, &input, 128);
            g.elapsed_us()
        };
        let tw = time(&WarpSelect);
        let tb = time(&BlockSelect);
        assert!(tb < tw, "BlockSelect {tb} vs WarpSelect {tw}");
    }

    #[test]
    fn tiny_inputs() {
        run_case(&[3.0, 1.0], 1);
        run_case(&[3.0], 1);
    }

    use crate::warpselect::WarpSelect;
}
