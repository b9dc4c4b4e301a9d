//! RTop-K-style fused row-wise top-K for batch-of-small-rows matrix
//! workloads.
//!
//! Neural-network serving shapes — row-wise top-K over a `rows × cols`
//! score matrix with small-to-medium rows — are the regime RTop-K
//! (PAPERS.md) targets: the whole selection for one row fits a single
//! thread block, so the right kernel reads the matrix *once*, keeps a
//! small candidate buffer in shared memory, and never touches device
//! memory again until it writes the K winners. Compare AIR Top-K's
//! one-block fast path, which stages the *entire row* in shared memory
//! and runs a full radix histogram per pass: for small rows the radix
//! prefix scans (`2^{b+1}` ops per pass) rival the row length itself,
//! and the `8·cols`-byte shared footprint caps how many rows co-reside
//! on an SM.
//!
//! [`RowWiseTopK`] instead streams each row through a running
//! *threshold filter*: an element enters the shared candidate buffer
//! only if it beats the current Kth-smallest candidate, and when the
//! buffer fills it is compacted back to K by an in-block partial
//! selection (counted in [`obs::AlgoCounters::rowwise_compactions`]).
//! The result is exact — the threshold is always the Kth smallest of
//! the candidates retained so far, so no top-K member is ever
//! rejected. One launch covers the whole batch, shared memory is
//! `O(K)` instead of `O(cols)`, and the compute cost is `~2` ops per
//! element plus the rare compactions. The block body and the launch
//! plan are the streaming filter that [`crate::bucketed`] and
//! [`crate::twostage`] also run (DESIGN §17); RowWise's buffer holds
//! at least 1024 candidates, which amortises compactions for tiny K.

use crate::error::TopKError;
use crate::filter::{filter_block, FilterPlan};
use crate::keys::RadixKey;
use crate::matrix::{select_batch, select_one, RowSelect, Rows};
use crate::obs;
use crate::scratch::ScratchGuard;
use crate::traits::{Category, TopKAlgorithm, TopKOutput, TypedOutput};
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract};
use std::sync::atomic::Ordering::Relaxed;

/// Largest K the fused row-wise path supports: the candidate buffer
/// (2K entries, 8–12 bytes each) must fit comfortably in shared memory
/// alongside other resident blocks.
pub const ROWWISE_MAX_K: usize = 2048;

/// The fused row-wise selector (RTop-K-style, see module docs).
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec};
/// use topk_core::{RowWiseTopK, TopKAlgorithm, verify_topk};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let data: Vec<f32> = (0..4096).map(|i| ((i * 97) % 4096) as f32).collect();
/// let input = gpu.htod("row", &data);
/// let out = RowWiseTopK.select(&mut gpu, &input, 16);
/// verify_topk(&data, 16, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RowWiseTopK;

impl<T: RadixKey> RowSelect<T> for RowWiseTopK {
    fn row_labels(&self) -> (&'static str, &'static str) {
        ("rowwise_values", "rowwise_indices")
    }

    /// One kernel launch, one block per row.
    fn run_rows(
        &self,
        gpu: &mut Gpu,
        inputs: Rows<'_, T>,
        k: usize,
    ) -> Result<TypedOutput<T>, TopKError> {
        let n = inputs.n();
        let batch = inputs.batch();
        let key_bytes = std::mem::size_of::<T::Ordered>();
        let plan = FilterPlan::rowwise(gpu.spec(), n, k, batch, key_bytes).map_err(|detail| {
            TopKError::UnsupportedShape {
                algorithm: self.name(),
                detail,
            }
        })?;
        let stage = plan.stages[0];

        ScratchGuard::scope(gpu, |gpu, _, outs| {
            let out_val = outs.alloc::<T>(gpu, "rowwise_out_val", batch * k)?;
            let out_idx = outs.alloc::<u32>(gpu, "rowwise_out_idx", batch * k)?;
            let (ov, oi) = (out_val.clone(), out_idx.clone());
            let contract = inputs
                .declare_reads(KernelContract::new("rowwise_fused_kernel"))
                .writes(&ov, Footprint::per_block(k))
                .writes(&oi, Footprint::per_block(k))
                .uses_shared_mem(stage.launch.shared_bytes());
            gpu.try_launch_checked(&contract, stage.launch.config(), move |ctx| {
                let row = ctx.block_idx;
                let items = inputs.tile(ctx, row, 0, n).into_iter().map(T::to_ordered);
                let kept = filter_block(ctx, items.zip(0..), k, stage.cap);
                obs::counters()
                    .rowwise_compactions
                    .fetch_add(kept.compactions, Relaxed);
                kept.store(ctx, (&ov, &oi), row * k);
            })?;
            Ok((out_val, out_idx))
        })
    }
}

impl TopKAlgorithm for RowWiseTopK {
    fn name(&self) -> &'static str {
        "RowWise Top-K"
    }

    fn category(&self) -> Category {
        Category::PartialSorting
    }

    fn max_k(&self) -> Option<usize> {
        Some(ROWWISE_MAX_K)
    }

    fn try_select(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        k: usize,
    ) -> Result<TopKOutput, TopKError> {
        select_one(self, gpu, input, k)
    }

    fn try_select_batch(
        &self,
        gpu: &mut Gpu,
        inputs: &[DeviceBuffer<f32>],
        k: usize,
    ) -> Result<Vec<TopKOutput>, TopKError> {
        select_batch(self, gpu, inputs, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DeviceMatrix;
    use crate::verify::verify_topk;
    use datagen::Distribution;
    use gpu_sim::{DeviceSpec, Gpu};

    #[test]
    fn agrees_with_cpu_reference_on_all_distributions() {
        for dist in Distribution::benchmark_set() {
            for (n, k) in [(1000, 7), (4096, 64), (8192, 500), (2048, 2048)] {
                let data = datagen::generate(dist, n, (n + k) as u64);
                let mut gpu = Gpu::new(DeviceSpec::a100());
                let input = gpu.htod("in", &data);
                let out = RowWiseTopK.select(&mut gpu, &input, k);
                let (cpu_v, _) = topk_cpu::heap_topk(&data, k);
                let mut got = out.values.to_vec();
                let mut want = cpu_v;
                got.sort_by(f32::total_cmp);
                want.sort_by(f32::total_cmp);
                assert_eq!(got, want, "dist={} n={n} k={k}", dist.name());
                verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec())
                    .unwrap_or_else(|e| panic!("dist={} n={n} k={k}: {e}", dist.name()));
            }
        }
    }

    #[test]
    fn adversarial_skew_is_exact() {
        for m_bits in [2u32, 10, 20, 31] {
            let dist = Distribution::RadixAdversarial { m_bits };
            let data = datagen::generate(dist, 6000, m_bits as u64);
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let input = gpu.htod("in", &data);
            let out = RowWiseTopK.select(&mut gpu, &input, 100);
            verify_topk(&data, 100, &out.values.to_vec(), &out.indices.to_vec())
                .unwrap_or_else(|e| panic!("m_bits={m_bits}: {e}"));
        }
    }

    #[test]
    fn matrix_batch_is_one_launch() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let (rows, cols, k) = (16, 2048, 32);
        let datas: Vec<Vec<f32>> = (0..rows)
            .map(|r| datagen::generate(Distribution::Normal, cols, r as u64))
            .collect();
        let flat: Vec<f32> = datas.iter().flatten().copied().collect();
        let m = DeviceMatrix::htod(&mut gpu, "m", &flat, rows, cols);
        gpu.reset_profile();
        let (vals, idxs) = RowWiseTopK.run_matrix_typed(&mut gpu, &m, k).unwrap();
        assert_eq!(gpu.timeline().kernel_count(), 1, "fused: one launch total");
        for (r, d) in datas.iter().enumerate() {
            verify_topk(d, k, &vals.row_to_vec(r), &idxs.row_to_vec(r))
                .unwrap_or_else(|e| panic!("row {r}: {e}"));
        }
    }

    #[test]
    fn beats_air_on_many_small_rows() {
        // The regime the fused path exists for: many rows just above
        // AIR's one-block threshold, where AIR needs its multi-pass
        // pipeline (≥ 2 full reads, 4 launches) but one block can
        // still stream a whole row through an O(K) candidate buffer
        // (1 read, 1 launch).
        let (rows, cols, k) = (256, 16_384, 64);
        let flat: Vec<f32> = (0..rows)
            .flat_map(|r| datagen::generate(Distribution::Uniform, cols, r as u64))
            .collect();

        let time = |run: &dyn Fn(&mut Gpu, &DeviceMatrix<f32>)| {
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let m = DeviceMatrix::htod(&mut gpu, "m", &flat, rows, cols);
            gpu.reset_profile();
            run(&mut gpu, &m);
            gpu.elapsed_us()
        };
        let rowwise = time(&|gpu, m| {
            RowWiseTopK.run_matrix_typed(gpu, m, k).unwrap();
        });
        let air = time(&|gpu, m| {
            crate::AirTopK::default()
                .run_matrix_typed(gpu, m, k)
                .unwrap();
        });
        assert!(
            rowwise < air,
            "fused row-wise ({rowwise:.1} us) should beat AIR one-block ({air:.1} us)"
        );
    }

    #[test]
    fn rejects_k_beyond_cap_and_tiny_shared_memory() {
        let alg = RowWiseTopK;
        assert_eq!(alg.max_k(), Some(ROWWISE_MAX_K));
        let mut gpu = Gpu::new(DeviceSpec::test_tiny());
        // test_tiny has 16 KiB of shared memory; a 4096-entry buffer
        // (32 KiB) must be rejected up front, not crash the launch.
        let data: Vec<f32> = (0..4096).map(|i| i as f32).collect();
        let input = gpu.htod("in", &data);
        let err = alg.try_select(&mut gpu, &input, 2048).unwrap_err();
        assert!(matches!(err, TopKError::UnsupportedShape { .. }), "{err}");
    }

    #[test]
    fn compaction_counter_moves() {
        let before = obs::counters().snapshot();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        // Descending input: every element is admitted, forcing
        // repeated compactions.
        let data: Vec<f32> = (0..20_000).map(|i| -(i as f32)).collect();
        let input = gpu.htod("in", &data);
        let out = RowWiseTopK.select(&mut gpu, &input, 8);
        verify_topk(&data, 8, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
        let d = obs::counters().snapshot().delta_since(&before);
        assert!(d.rowwise_compactions >= 1, "no compactions counted");
    }
}
