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
//! element plus the rare compactions.

use crate::error::TopKError;
use crate::keys::{OrderedBits, RadixKey};
use crate::matrix::DeviceMatrix;
use crate::matrix::{split_rows, Rows};
use crate::obs;
use crate::scratch::ScratchGuard;
use crate::traits::{check_args, check_batch, Category, TopKAlgorithm, TopKOutput};
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};
use std::sync::atomic::Ordering::Relaxed;

/// Largest K the fused row-wise path supports: the candidate buffer
/// (2K entries, 8–12 bytes each) must fit comfortably in shared memory
/// alongside other resident blocks.
pub const ROWWISE_MAX_K: usize = 2048;

/// Tuning knobs for [`RowWiseTopK`].
#[derive(Debug, Clone)]
pub struct RowWiseConfig {
    /// Threads per block (one block serves one row).
    pub block_dim: usize,
    /// Minimum candidate-buffer capacity. The buffer holds
    /// `max(2K, min_buffer)` entries; a larger floor amortises
    /// compactions for tiny K at the price of shared memory.
    pub min_buffer: usize,
}

impl Default for RowWiseConfig {
    fn default() -> Self {
        RowWiseConfig {
            block_dim: 256,
            min_buffer: 1024,
        }
    }
}

/// The fused row-wise selector (RTop-K-style, see module docs).
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec};
/// use topk_core::{RowWiseTopK, TopKAlgorithm, verify_topk};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let data: Vec<f32> = (0..4096).map(|i| ((i * 97) % 4096) as f32).collect();
/// let input = gpu.htod("row", &data);
/// let out = RowWiseTopK::default().select(&mut gpu, &input, 16);
/// verify_topk(&data, 16, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct RowWiseTopK {
    cfg: RowWiseConfig,
}

impl Default for RowWiseTopK {
    fn default() -> Self {
        RowWiseTopK::new(RowWiseConfig::default())
    }
}

impl RowWiseTopK {
    /// Create with explicit configuration.
    pub fn new(cfg: RowWiseConfig) -> Self {
        assert!(cfg.block_dim >= 32, "block_dim below one warp");
        RowWiseTopK { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RowWiseConfig {
        &self.cfg
    }

    /// Candidate-buffer capacity used for a given K.
    pub fn buffer_capacity(&self, k: usize) -> usize {
        (2 * k).max(self.cfg.min_buffer)
    }

    /// Shared-memory bytes one block needs for a given K and key type.
    pub fn shared_bytes_for<T: RadixKey>(&self, k: usize) -> usize {
        // (ordered bits + index) per buffered candidate.
        self.buffer_capacity(k) * (std::mem::size_of::<T::Ordered>() + 4)
    }

    /// Matrix-shaped entry point: row-wise top-K over a contiguous
    /// `rows × cols` device matrix, outputs packed `rows × k`.
    pub fn run_matrix_typed<T: RadixKey>(
        &self,
        gpu: &mut Gpu,
        input: &DeviceMatrix<T>,
        k: usize,
    ) -> Result<(DeviceMatrix<T>, DeviceMatrix<u32>), TopKError> {
        let rows = input.rows();
        if rows < 1 {
            return Err(TopKError::UnsupportedShape {
                algorithm: self.name(),
                detail: "empty matrix".into(),
            });
        }
        let (out_val, out_idx) = self.run_rows(gpu, Rows::Matrix(input), k)?;
        Ok((
            DeviceMatrix::from_buffer(out_val, rows, k),
            DeviceMatrix::from_buffer(out_idx, rows, k),
        ))
    }

    /// The shared implementation: one kernel launch, one block per
    /// row, packed `batch × k` outputs.
    pub(crate) fn run_rows<T: RadixKey>(
        &self,
        gpu: &mut Gpu,
        inputs: Rows<'_, T>,
        k: usize,
    ) -> Result<(DeviceBuffer<T>, DeviceBuffer<u32>), TopKError> {
        let n = inputs.n();
        check_args(self, n, k)?;
        let cap = self.buffer_capacity(k);
        let shared_needed = self.shared_bytes_for::<T>(k);
        if shared_needed > gpu.spec().shared_mem_per_block {
            return Err(TopKError::UnsupportedShape {
                algorithm: self.name(),
                detail: format!(
                    "candidate buffer needs {shared_needed} shared bytes, device offers {}",
                    gpu.spec().shared_mem_per_block
                ),
            });
        }
        let batch = inputs.batch();

        let mut outs = ScratchGuard::new();
        let out_val = outs.alloc::<T>(gpu, "rowwise_out_val", batch * k)?;
        let out_idx = match outs.alloc::<u32>(gpu, "rowwise_out_idx", batch * k) {
            Ok(b) => b,
            Err(e) => {
                outs.release(gpu);
                return Err(e);
            }
        };

        let (ov, oi) = (out_val.clone(), out_idx.clone());
        let contract = inputs
            .declare_reads(KernelContract::new("rowwise_fused_kernel"))
            .writes(&ov, Footprint::per_block(k))
            .writes(&oi, Footprint::per_block(k))
            .uses_shared_mem(shared_needed);
        let launched = gpu.try_launch_checked(
            &contract,
            LaunchConfig::grid_1d(batch, self.cfg.block_dim),
            move |ctx| {
                let row = ctx.block_idx;
                let mut cand_bits = ctx.shared_alloc::<T::Ordered>(cap);
                let mut cand_idx = ctx.shared_alloc::<u32>(cap);
                let mut len = 0usize;
                // Admission threshold: the Kth smallest retained so
                // far, valid once the first compaction has run. Until
                // then every element is admitted (the buffer can hold
                // at least 2K, so the threshold exists before it can
                // ever be needed).
                let mut thr = T::Ordered::MAX;
                let mut have_thr = false;

                // Compact the buffer down to the K smallest, in place,
                // and return the new threshold. A real kernel does this
                // with an in-block bitonic partial sort; the metered
                // cost is linear in the buffer occupancy.
                let compact = |ctx: &mut gpu_sim::BlockCtx,
                               bits: &mut [T::Ordered],
                               idx: &mut [u32],
                               len: usize|
                 -> T::Ordered {
                    let mut pairs: Vec<(T::Ordered, u32)> =
                        (0..len).map(|i| (bits[i], idx[i])).collect();
                    pairs.select_nth_unstable(k - 1);
                    for (i, (b, x)) in pairs.iter().take(k).enumerate() {
                        bits[i] = *b;
                        idx[i] = *x;
                    }
                    ctx.ops(2 * len as u64);
                    obs::counters().rowwise_compactions.fetch_add(1, Relaxed);
                    pairs[k - 1].0
                };

                for (i, v) in inputs.tile(ctx, row, 0, n).into_iter().enumerate() {
                    let bits = v.to_ordered();
                    ctx.ops(2); // ordered-bit transform + threshold compare
                    if !have_thr || bits < thr {
                        cand_bits[len] = bits;
                        cand_idx[len] = i as u32;
                        len += 1;
                        ctx.ops(1);
                        if len == cap {
                            thr = compact(ctx, &mut cand_bits, &mut cand_idx, len);
                            len = k;
                            have_thr = true;
                        }
                    }
                }
                if len > k {
                    compact(ctx, &mut cand_bits, &mut cand_idx, len);
                    len = k;
                }
                debug_assert_eq!(len, k, "k <= n guarantees a full result");
                for j in 0..k {
                    ctx.st(&ov, row * k + j, T::from_ordered(cand_bits[j]));
                    ctx.st(&oi, row * k + j, cand_idx[j]);
                }
            },
        );
        if let Err(e) = launched {
            outs.release(gpu);
            return Err(e.into());
        }
        Ok((out_val, out_idx))
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
        let (v, i) = self.run_rows(gpu, Rows::Slices(std::slice::from_ref(input)), k)?;
        Ok(TopKOutput::new(v, i))
    }

    fn try_select_batch(
        &self,
        gpu: &mut Gpu,
        inputs: &[DeviceBuffer<f32>],
        k: usize,
    ) -> Result<Vec<TopKOutput>, TopKError> {
        let n = check_batch(self, inputs)?;
        check_args(self, n, k)?;
        let packed = self.run_rows(gpu, Rows::Slices(inputs), k)?;
        let labels = ("rowwise_values", "rowwise_indices");
        Ok(split_rows(gpu, packed, inputs.len(), labels)
            .into_iter()
            .map(|(values, indices)| TopKOutput::new(values, indices))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                let out = RowWiseTopK::default().select(&mut gpu, &input, k);
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
            let out = RowWiseTopK::default().select(&mut gpu, &input, 100);
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
        let (vals, idxs) = RowWiseTopK::default()
            .run_matrix_typed(&mut gpu, &m, k)
            .unwrap();
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
            RowWiseTopK::default().run_matrix_typed(gpu, m, k).unwrap();
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
        let alg = RowWiseTopK::default();
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
        let out = RowWiseTopK::default().select(&mut gpu, &input, 8);
        verify_topk(&data, 8, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
        let d = obs::counters().snapshot().delta_since(&before);
        assert!(d.rowwise_compactions >= 1, "no compactions counted");
    }
}
