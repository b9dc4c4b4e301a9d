//! Bitonic Top-K baseline (Shanbhag et al. 2018, via DrTopK).
//!
//! A partial-sorting method that halves the data each round: sort
//! every K-long run, then merge adjacent run pairs keeping the smaller
//! half, until K elements remain (§2.2: "by constructing and selecting
//! ascending-descending sorted (bitonic) sequences, Bitonic Top-K
//! reduces the workload by half in each iteration").
//!
//! Cost character reproduced here: `O(N log²K)` compare-exchanges, so
//! it slows with K (Fig. 6's rising partial-sort curves) — and the
//! heavy shared-memory use limits K to 256 (§2.2).

use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};
use topk_core::bitonic::{bitonic_sort, merge_into_topk};
use topk_core::error::TopKError;
use topk_core::keys::RadixKey;
use topk_core::scratch::ScratchGuard;
use topk_core::traits::{check_args, Category, TopKAlgorithm, TopKOutput};

/// K limit from the paper (§2.2): 256 for Bitonic Top-K.
pub const MAX_K: usize = 256;

/// Runs each block merges per round.
const PAIRS_PER_BLOCK: usize = 8;

/// The DrTopK Bitonic Top-K baseline.
#[derive(Debug, Clone, Default)]
pub struct BitonicTopK;

impl TopKAlgorithm for BitonicTopK {
    fn name(&self) -> &'static str {
        "Bitonic Top-K"
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
        ScratchGuard::scope(gpu, |gpu, ws, outs| run_rounds(gpu, ws, outs, input, k))
    }
}

/// The full halving pipeline; workspace in `ws`, outputs in `outs`.
fn run_rounds(
    gpu: &mut Gpu,
    ws: &mut ScratchGuard,
    outs: &mut ScratchGuard,
    input: &DeviceBuffer<f32>,
    k: usize,
) -> Result<TopKOutput, TopKError> {
    {
        let n = input.len();
        let run = k.next_power_of_two();
        // Pad to a whole number of runs with sentinels.
        let runs0 = n.div_ceil(run);
        let padded = runs0 * run;

        let half = runs0.div_ceil(2).max(1) * run;
        let keys = [
            ws.alloc::<u32>(gpu, "bt_keys0", padded)?,
            ws.alloc::<u32>(gpu, "bt_keys1", half)?,
        ];
        let idxs = [
            ws.alloc::<u32>(gpu, "bt_idx0", padded)?,
            ws.alloc::<u32>(gpu, "bt_idx1", half)?,
        ];

        // Round 0: load, convert, locally sort each K-run.
        {
            let keys0 = keys[0].clone();
            let idx0 = idxs[0].clone();
            let input = input.clone();
            let launch = LaunchConfig::for_elements(runs0, 256, 1, usize::MAX);
            let contract = KernelContract::new("bitonic_local_sort")
                .reads(&input, Footprint::all())
                .writes(&keys0, Footprint::tiles(256 * run))
                .writes(&idx0, Footprint::tiles(256 * run));
            gpu.try_launch_checked(&contract, launch, move |ctx| {
                let start_run = ctx.block_idx * 256;
                let end_run = (start_run + 256).min(runs0);
                for r in start_run..end_run {
                    let base = r * run;
                    let mut kb = vec![u32::MAX; run];
                    let mut ib = vec![0u32; run];
                    let tile = ctx.ld_tile(&input, base, (base + run).min(n));
                    for (j, v) in tile.into_iter().enumerate() {
                        kb[j] = v.to_ordered();
                        ib[j] = (base + j) as u32;
                    }
                    let ops = bitonic_sort(&mut kb, &mut ib, true);
                    ctx.ops(ops + run as u64);
                    for j in 0..run {
                        ctx.st(&keys0, base + j, kb[j]);
                        ctx.st(&idx0, base + j, ib[j]);
                    }
                }
                // The block-wide barrier between the cooperative sort
                // stages and the block retiring (uniform across blocks).
                ctx.block_sync();
            })?;
        }

        // Halving rounds: merge adjacent run pairs, keep the low half.
        let mut runs = runs0;
        let mut src = 0usize;
        while runs > 1 {
            let pairs = runs / 2;
            let odd = runs % 2 == 1;
            let out_runs = pairs + odd as usize;
            let dst = 1 - src;
            let keys_s = keys[src].clone();
            let idxs_s = idxs[src].clone();
            let keys_d = keys[dst].clone();
            let idxs_d = idxs[dst].clone();
            let launch = LaunchConfig::for_elements(out_runs, 32, PAIRS_PER_BLOCK, usize::MAX);
            let contract = KernelContract::new("bitonic_merge_round")
                // Each block reads its pair window and writes the
                // surviving low halves of its own output tile.
                .reads(&keys_s, Footprint::tiles(2 * 32 * PAIRS_PER_BLOCK * run))
                .reads(&idxs_s, Footprint::tiles(2 * 32 * PAIRS_PER_BLOCK * run))
                .writes(&keys_d, Footprint::tiles(32 * PAIRS_PER_BLOCK * run))
                .writes(&idxs_d, Footprint::tiles(32 * PAIRS_PER_BLOCK * run));
            gpu.try_launch_checked(&contract, launch, move |ctx| {
                let start = ctx.block_idx * 32 * PAIRS_PER_BLOCK;
                let end = (start + 32 * PAIRS_PER_BLOCK).min(out_runs);
                for p in start..end {
                    let a = 2 * p * run;
                    let mut kb: Vec<u32> = ctx.ld_tile(&keys_s, a, a + run).iter().collect();
                    let mut ib: Vec<u32> = ctx.ld_tile(&idxs_s, a, a + run).iter().collect();
                    if 2 * p + 1 < runs {
                        let b = (2 * p + 1) * run;
                        let qk: Vec<u32> = ctx.ld_tile(&keys_s, b, b + run).iter().collect();
                        let qi: Vec<u32> = ctx.ld_tile(&idxs_s, b, b + run).iter().collect();
                        let ops = merge_into_topk(&mut kb, &mut ib, &qk, &qi);
                        ctx.ops(ops);
                    }
                    let out_base = p * run;
                    for j in 0..run {
                        ctx.st(&keys_d, out_base + j, kb[j]);
                        ctx.st(&idxs_d, out_base + j, ib[j]);
                    }
                }
                // Barrier separating the merge stages from retirement.
                ctx.block_sync();
            })?;
            runs = out_runs;
            src = dst;
        }

        // Emit the K smallest of the surviving run.
        let out_val = outs.alloc::<f32>(gpu, "bt_out_val", k)?;
        let out_idx = outs.alloc::<u32>(gpu, "bt_out_idx", k)?;
        {
            let keys_s = keys[src].clone();
            let idxs_s = idxs[src].clone();
            let ov = out_val.clone();
            let oi = out_idx.clone();
            let contract = KernelContract::new("bitonic_emit")
                .reads(&keys_s, Footprint::fixed(0, k))
                .reads(&idxs_s, Footprint::fixed(0, k))
                .writes(&ov, Footprint::fixed(0, k))
                .writes(&oi, Footprint::fixed(0, k))
                .requires_grid_at_most(1);
            gpu.try_launch_checked(&contract, LaunchConfig::grid_1d(1, 256), move |ctx| {
                let keys = ctx.ld_tile(&keys_s, 0, k);
                for (i, (bits, idx)) in keys.into_iter().zip(ctx.ld_tile(&idxs_s, 0, k)).enumerate()
                {
                    ctx.st(&ov, i, f32::from_ordered(bits));
                    ctx.st(&oi, i, idx);
                }
            })?;
        }

        Ok(TopKOutput::new(out_val, out_idx))
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
        let out = BitonicTopK.select(&mut g, &input, k);
        verify_topk(data, k, &out.values.to_vec(), &out.indices.to_vec())
            .unwrap_or_else(|e| panic!("BitonicTopK failed: {e} (n={}, k={k})", data.len()));
    }

    #[test]
    fn basic_and_edges() {
        run_case(&[5.0, 1.0, 4.0, 1.5, -2.0, 8.0, 0.0], 3);
        run_case(&[1.0], 1);
        run_case(&[2.0, 1.0], 2);
    }

    #[test]
    fn all_distributions_and_k_values() {
        for dist in Distribution::benchmark_set() {
            let data = generate(dist, 10_000, 4);
            for k in [1usize, 8, 100, 256] {
                run_case(&data, k);
            }
        }
    }

    #[test]
    fn non_power_of_two_n_and_ties() {
        let data = generate(Distribution::Uniform, 777, 1);
        run_case(&data, 33);
        run_case(&vec![5.0f32; 1000], 256);
    }

    #[test]
    fn k_cap_is_256() {
        assert_eq!(BitonicTopK.max_k(), Some(256));
    }

    #[test]
    fn cost_grows_with_k() {
        // Fig. 6: partial-sort cost rises with K (log² factor).
        let data = generate(Distribution::Uniform, 100_000, 1);
        let time = |k: usize| {
            let mut g = Gpu::new(DeviceSpec::a100());
            let input = g.htod("in", &data);
            g.reset_profile();
            let _ = BitonicTopK.select(&mut g, &input, k);
            g.elapsed_us()
        };
        assert!(time(256) > time(8));
    }
}
