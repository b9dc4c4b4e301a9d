//! Generalized two-stage approximate top-K ("A Faster Generalized
//! Two-Stage Approximate Top-K", PAPERS.md).
//!
//! Stage one cuts the input into `P` contiguous partitions and every
//! partition independently keeps its k′ smallest elements — `P`
//! blocks, no cross-block traffic, the same embarrassingly parallel
//! shape as [`crate::bucketed`]. Stage two then runs an *exact*
//! single-block top-K over the `P·k′ ≥ K` surviving candidates. The
//! exact reduce never drops a true top-K member that survived stage
//! one, so the stage-one survival probability *is* the recall —
//! priced by [`crate::recall::expected_recall`] — and at equal
//! partitioning the two-stage family strictly dominates bucketed
//! recall because it keeps `P·k′` candidates where bucketed keeps
//! exactly K. The price is a second (small) launch and the candidate
//! round-trip through device memory.
//!
//! Both stages run the streaming filter [`crate::rowwise`] runs
//! (DESIGN §17); stage two carries the stage-one *global* indices as
//! payload so the output indices point into the original input.

use crate::error::TopKError;
use crate::filter::{filter_block, FilterPlan};
use crate::keys::RadixKey;
use crate::matrix::{select_batch, select_one, RowSelect, Rows};
use crate::obs;
use crate::recall::TwoStagePlan;
use crate::scratch::ScratchGuard;
use crate::traits::{Category, TopKAlgorithm, TopKOutput, TypedOutput};
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract};
use std::sync::atomic::Ordering::Relaxed;

/// The two-stage approximate selector (see module docs).
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec};
/// use topk_core::{TwoStageTopK, TopKAlgorithm};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let data: Vec<f32> = (0..65536).map(|i| ((i * 193) % 65536) as f32).collect();
/// let input = gpu.htod("scores", &data);
/// let out = TwoStageTopK::new(8, 24).select(&mut gpu, &input, 100);
/// assert_eq!(out.values.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct TwoStageTopK {
    /// Stage-one partition count `P`.
    partitions: usize,
    /// Candidates each partition keeps (k′).
    k_prime: usize,
}

impl Default for TwoStageTopK {
    fn default() -> Self {
        TwoStageTopK::new(8, 32)
    }
}

impl TwoStageTopK {
    /// Selector with `partitions` stage-one blocks each keeping
    /// `k_prime` candidates.
    pub fn new(partitions: usize, k_prime: usize) -> Self {
        assert!(partitions >= 1, "partitions must be >= 1");
        assert!(k_prime >= 1, "k_prime must be >= 1");
        TwoStageTopK {
            partitions,
            k_prime,
        }
    }

    /// The cheapest selector whose expected recall on i.i.d. inputs
    /// of this shape clears `target`.
    pub fn for_recall(n: usize, k: usize, target: f64) -> Self {
        let plan = crate::recall::plan_two_stage(n, k, target);
        TwoStageTopK::new(plan.partitions, plan.k_prime)
    }

    /// The partitioning this selector uses.
    pub fn plan(&self) -> TwoStagePlan {
        TwoStagePlan {
            partitions: self.partitions,
            k_prime: self.k_prime,
        }
    }

    /// Expected recall on i.i.d. inputs for a given K (exact in
    /// expectation, see [`crate::recall`]).
    pub fn expected_recall(&self, k: usize) -> f64 {
        self.plan().expected_recall(k)
    }
}

impl<T: RadixKey> RowSelect<T> for TwoStageTopK {
    fn row_labels(&self) -> (&'static str, &'static str) {
        ("twostage_values", "twostage_indices")
    }

    /// Two launches over the whole batch: stage one is
    /// `batch · partitions` blocks filtering partitions down to k′
    /// candidates each, stage two is `batch` blocks exactly reducing
    /// the candidates.
    fn run_rows(
        &self,
        gpu: &mut Gpu,
        inputs: Rows<'_, T>,
        k: usize,
    ) -> Result<TypedOutput<T>, TopKError> {
        let n = inputs.n();
        let (parts, kp) = (self.partitions, self.k_prime);
        let batch = inputs.batch();
        let key_bytes = std::mem::size_of::<T::Ordered>();
        let plan = FilterPlan::two_stage(gpu.spec(), n, k, batch, self.plan(), key_bytes).map_err(
            |detail| TopKError::UnsupportedShape {
                algorithm: self.name(),
                detail,
            },
        )?;
        let (partition, reduce) = (plan.stages[0], plan.stages[1]);
        let m = parts * kp; // stage-two candidates per problem

        ScratchGuard::scope(gpu, |gpu, tmps, outs| {
            let cand_val = tmps.alloc::<T>(gpu, "twostage_cand_val", batch * m)?;
            let cand_idx = tmps.alloc::<u32>(gpu, "twostage_cand_idx", batch * m)?;
            let out_val = outs.alloc::<T>(gpu, "twostage_out_val", batch * k)?;
            let out_idx = outs.alloc::<u32>(gpu, "twostage_out_idx", batch * k)?;

            // Stage 1: every partition keeps its k' smallest, with
            // global indices, packed (row * parts + part) * kp into the
            // candidate buffers.
            let (cv, ci) = (cand_val.clone(), cand_idx.clone());
            // Block (row * parts + part) owns candidate slots
            // [block * k', block * k' + k') — exactly a per-block tile.
            let contract = inputs
                .declare_reads(KernelContract::new("twostage_partition_kernel"))
                .writes(&cv, Footprint::per_block(kp))
                .writes(&ci, Footprint::per_block(kp))
                .uses_shared_mem(partition.shared_bytes());
            gpu.try_launch_checked(&contract, partition.config(), move |ctx| {
                let row = ctx.block_idx / parts;
                let part = ctx.block_idx % parts;
                let lo = part * n / parts;
                let hi = (part + 1) * n / parts;
                let items = inputs.tile(ctx, row, lo, hi).into_iter().map(T::to_ordered);
                let kept = filter_block(ctx, items.zip(lo as u32..), kp, partition.cap);
                kept.store(ctx, (&cv, &ci), ctx.block_idx * kp);
            })?;

            // Stage 2: one block per problem exactly reduces the m
            // candidates to K, carrying the stage-one global indices.
            let (ov, oi) = (out_val.clone(), out_idx.clone());
            let contract = KernelContract::new("twostage_reduce_kernel")
                .reads(&cand_val, Footprint::per_block(m))
                .reads(&cand_idx, Footprint::per_block(m))
                .writes(&ov, Footprint::per_block(k))
                .writes(&oi, Footprint::per_block(k))
                .uses_shared_mem(reduce.shared_bytes());
            gpu.try_launch_checked(&contract, reduce.config(), move |ctx| {
                let row = ctx.block_idx;
                let vals = ctx.ld_tile(&cand_val, row * m, (row + 1) * m);
                let poss = ctx.ld_tile(&cand_idx, row * m, (row + 1) * m);
                let items = vals.into_iter().map(T::to_ordered).zip(poss);
                let kept = filter_block(ctx, items, k, reduce.cap);
                kept.store(ctx, (&ov, &oi), row * k);
            })?;
            obs::counters().twostage_reduces.fetch_add(1, Relaxed);
            Ok((out_val, out_idx))
        })
    }
}

impl TopKAlgorithm for TwoStageTopK {
    fn name(&self) -> &'static str {
        "Two-Stage Top-K (approx)"
    }

    fn category(&self) -> Category {
        Category::PartitionBased
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
    use crate::recall::measured_recall;
    use crate::verify::verify_topk;
    use datagen::Distribution;
    use gpu_sim::{DeviceSpec, Gpu};

    #[test]
    fn outputs_are_real_input_elements() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data = datagen::generate(Distribution::Normal, 1 << 15, 3);
        let input = gpu.htod("in", &data);
        let out = TwoStageTopK::new(8, 20).select(&mut gpu, &input, 100);
        assert_eq!(out.k, 100);
        let vals = out.values.to_vec();
        let idxs = out.indices.to_vec();
        for (v, i) in vals.iter().zip(&idxs) {
            assert_eq!(data[*i as usize], *v, "index {i} does not hold {v}");
        }
        let uniq: std::collections::HashSet<u32> = idxs.iter().copied().collect();
        assert_eq!(uniq.len(), 100);
    }

    #[test]
    fn generous_k_prime_is_exact() {
        // k' = k per partition can never lose a true member.
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data = datagen::generate(Distribution::Uniform, 1 << 14, 7);
        let input = gpu.htod("in", &data);
        let alg = TwoStageTopK::new(4, 64);
        assert_eq!(alg.expected_recall(64), 1.0);
        let out = alg.select(&mut gpu, &input, 64);
        verify_topk(&data, 64, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
    }

    #[test]
    fn batch_is_two_launches_and_recall_tracks_the_model() {
        let (n, k, batch) = (1 << 15, 128, 6);
        let alg = TwoStageTopK::for_recall(n, k, 0.95);
        let expected = alg.expected_recall(k);
        assert!(expected >= 0.95);
        let datas: Vec<Vec<f32>> = (0..batch)
            .map(|i| datagen::generate(Distribution::Normal, n, 200 + i as u64))
            .collect();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let inputs: Vec<_> = datas
            .iter()
            .enumerate()
            .map(|(i, d)| gpu.htod(&format!("p{i}"), d))
            .collect();
        gpu.reset_profile();
        let outs = alg.select_batch(&mut gpu, &inputs, k);
        assert_eq!(gpu.timeline().kernel_count(), 2, "two launches total");
        let mean: f64 = datas
            .iter()
            .zip(&outs)
            .map(|(d, o)| measured_recall(d, k, &o.values.to_vec()))
            .sum::<f64>()
            / batch as f64;
        assert!(
            mean >= expected - 0.05,
            "measured {mean:.3} vs expected {expected:.3}"
        );
    }

    #[test]
    fn dominates_bucketed_recall_at_equal_partitioning() {
        let (n, k) = (1 << 15, 128);
        let mut ts_mean = 0.0;
        let mut b_mean = 0.0;
        let trials = 8;
        for t in 0..trials {
            let data = datagen::generate(Distribution::Uniform, n, 400 + t);
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let input = gpu.htod("in", &data);
            let ts = TwoStageTopK::new(16, 8).select(&mut gpu, &input, k);
            let b = crate::BucketedTopK::new(8).select(&mut gpu, &input, k);
            ts_mean += measured_recall(&data, k, &ts.values.to_vec());
            b_mean += measured_recall(&data, k, &b.values.to_vec());
        }
        ts_mean /= trials as f64;
        b_mean /= trials as f64;
        assert!(
            ts_mean >= b_mean - 0.02,
            "two-stage {ts_mean:.3} vs bucketed {b_mean:.3}"
        );
    }

    #[test]
    fn rejects_underfed_reduces_and_starved_partitions() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data: Vec<f32> = (0..4096).map(|i| i as f32).collect();
        let input = gpu.htod("in", &data);
        // 4 x 8 = 32 candidates cannot yield K = 100.
        let err = TwoStageTopK::new(4, 8)
            .try_select(&mut gpu, &input, 100)
            .unwrap_err();
        assert!(matches!(err, TopKError::UnsupportedShape { .. }), "{err}");
        // 64 partitions of 4096 elements are 64 long — cannot keep 100.
        let err = TwoStageTopK::new(64, 100)
            .try_select(&mut gpu, &input, 100)
            .unwrap_err();
        assert!(matches!(err, TopKError::UnsupportedShape { .. }), "{err}");
    }

    #[test]
    fn reduce_counter_moves() {
        let before = obs::counters().snapshot();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data = datagen::generate(Distribution::Uniform, 1 << 14, 5);
        let input = gpu.htod("in", &data);
        let _ = TwoStageTopK::new(4, 32).select(&mut gpu, &input, 64);
        let d = obs::counters().snapshot().delta_since(&before);
        assert!(d.twostage_reduces >= 1);
    }
}
