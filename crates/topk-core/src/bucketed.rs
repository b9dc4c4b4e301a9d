//! Bucketed single-pass approximate top-K ("Approximate Top-k for
//! Increased Parallelism", PAPERS.md).
//!
//! The input is cut into `B = ⌈K / c⌉` contiguous buckets and every
//! bucket independently keeps its `c` smallest elements (the last
//! bucket keeps the remainder so the outputs total exactly K). One
//! launch, one block per bucket, no cross-block traffic at all — the
//! sequential dependency that makes exact selection hard is simply
//! deleted, and what it cost is recall: a true top-K member is lost
//! whenever more than `c` of them land in the same bucket. For
//! i.i.d. inputs that loss is exactly the binomial shortfall priced
//! by [`crate::recall::expected_recall_parts`]; callers pick `c` with
//! [`plan_bucketed`](crate::recall::plan_bucketed) to clear a recall
//! target.
//!
//! Each bucket runs the streaming filter [`crate::rowwise`] runs
//! (DESIGN §17): a shared-memory candidate buffer with a running
//! Kth-smallest admission threshold, compacted by an in-block partial
//! selection when it fills. `c = K` (one bucket) degenerates to exact
//! selection.

use crate::error::TopKError;
use crate::filter::{filter_block, FilterPlan};
use crate::keys::RadixKey;
use crate::matrix::{select_batch, select_one, RowSelect, Rows};
use crate::obs;
use crate::recall::{expected_recall_parts, BucketedPlan};
use crate::scratch::ScratchGuard;
use crate::traits::{Category, TopKAlgorithm, TopKOutput, TypedOutput};
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract};
use std::sync::atomic::Ordering::Relaxed;

/// The bucketed approximate selector (see module docs).
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec};
/// use topk_core::{BucketedTopK, TopKAlgorithm};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let data: Vec<f32> = (0..8192).map(|i| ((i * 97) % 8192) as f32).collect();
/// let input = gpu.htod("scores", &data);
/// let out = BucketedTopK::new(8).select(&mut gpu, &input, 64);
/// assert_eq!(out.values.len(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct BucketedTopK {
    /// Winners each bucket keeps (`c`); the bucket count follows as
    /// `⌈K / c⌉` per query.
    per_bucket: usize,
}

impl Default for BucketedTopK {
    fn default() -> Self {
        BucketedTopK::new(16)
    }
}

impl BucketedTopK {
    /// Selector keeping `per_bucket` winners per bucket.
    pub fn new(per_bucket: usize) -> Self {
        assert!(per_bucket >= 1, "per_bucket must be >= 1");
        BucketedTopK { per_bucket }
    }

    /// The cheapest selector whose expected recall on i.i.d. inputs of
    /// this shape clears `target`.
    pub fn for_recall(n: usize, k: usize, target: f64) -> Self {
        BucketedTopK::new(crate::recall::plan_bucketed(n, k, target).per_bucket)
    }

    /// Winners kept per bucket.
    pub fn per_bucket(&self) -> usize {
        self.per_bucket
    }

    /// The partitioning this selector uses for a given K.
    pub fn plan(&self, k: usize) -> BucketedPlan {
        BucketedPlan {
            buckets: k.div_ceil(self.per_bucket),
            per_bucket: self.per_bucket.min(k),
        }
    }

    /// Expected recall on i.i.d. inputs for a given K (exact in
    /// expectation, see [`crate::recall`]).
    pub fn expected_recall(&self, k: usize) -> f64 {
        let plan = self.plan(k);
        expected_recall_parts(k, &plan.takes(k))
    }
}

impl<T: RadixKey> RowSelect<T> for BucketedTopK {
    fn row_labels(&self) -> (&'static str, &'static str) {
        ("bucketed_values", "bucketed_indices")
    }

    /// One fused launch over the whole batch: `batch · buckets`
    /// blocks, each streaming its bucket through a top-`take`
    /// candidate filter.
    fn run_rows(
        &self,
        gpu: &mut Gpu,
        inputs: Rows<'_, T>,
        k: usize,
    ) -> Result<TypedOutput<T>, TopKError> {
        let n = inputs.n();
        let batch = inputs.batch();
        let key_bytes = std::mem::size_of::<T::Ordered>();
        let plan = FilterPlan::bucketed(gpu.spec(), n, k, batch, self.plan(k), key_bytes).map_err(
            |detail| TopKError::UnsupportedShape {
                algorithm: self.name(),
                detail,
            },
        )?;
        let stage = plan.stages[0];
        let (buckets, per_bucket) = (stage.parts, stage.take);

        ScratchGuard::scope(gpu, |gpu, _, outs| {
            let out_val = outs.alloc::<T>(gpu, "bucketed_out_val", batch * k)?;
            let out_idx = outs.alloc::<u32>(gpu, "bucketed_out_idx", batch * k)?;
            let (ov, oi) = (out_val.clone(), out_idx.clone());
            // The `buckets` blocks of one row partition that row's k
            // output slots by a static take-split; group-affine, not
            // block-affine, so the write is declared row-coordinated.
            let contract = inputs
                .declare_reads(KernelContract::new("bucketed_topk_kernel"))
                .writes_shared(&ov, Footprint::per_group(buckets, k))
                .writes_shared(&oi, Footprint::per_group(buckets, k))
                .uses_shared_mem(stage.launch.shared_bytes());
            gpu.try_launch_checked(&contract, stage.launch.config(), move |ctx| {
                let row = ctx.block_idx / buckets;
                let bucket = ctx.block_idx % buckets;
                // Contiguous even split; the last bucket keeps the
                // remainder winners so row outputs total exactly k.
                let lo = bucket * n / buckets;
                let hi = (bucket + 1) * n / buckets;
                let take = if bucket + 1 == buckets {
                    k - (buckets - 1) * per_bucket
                } else {
                    per_bucket
                };
                let items = inputs.tile(ctx, row, lo, hi).into_iter().map(T::to_ordered);
                let kept = filter_block(ctx, items.zip(lo as u32..), take, stage.cap);
                kept.store(ctx, (&ov, &oi), row * k + bucket * per_bucket);
            })?;
            obs::counters().bucketed_selections.fetch_add(1, Relaxed);
            Ok((out_val, out_idx))
        })
    }
}

impl TopKAlgorithm for BucketedTopK {
    fn name(&self) -> &'static str {
        "Bucketed Top-K (approx)"
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
    use gpu_sim::{DeviceBuffer, DeviceSpec, Gpu};

    #[test]
    fn outputs_are_real_input_elements() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data = datagen::generate(Distribution::Normal, 1 << 14, 3);
        let input = gpu.htod("in", &data);
        let out = BucketedTopK::new(8).select(&mut gpu, &input, 100);
        assert_eq!(out.k, 100);
        let vals = out.values.to_vec();
        let idxs = out.indices.to_vec();
        for (v, i) in vals.iter().zip(&idxs) {
            assert_eq!(data[*i as usize], *v, "index {i} does not hold {v}");
        }
        // 100 distinct input positions.
        let uniq: std::collections::HashSet<u32> = idxs.iter().copied().collect();
        assert_eq!(uniq.len(), 100);
    }

    #[test]
    fn one_bucket_degenerates_to_exact() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data = datagen::generate(Distribution::Uniform, 4096, 7);
        let input = gpu.htod("in", &data);
        let alg = BucketedTopK::new(64);
        assert_eq!(alg.plan(64).buckets, 1);
        assert_eq!(alg.expected_recall(64), 1.0);
        let out = alg.select(&mut gpu, &input, 64);
        verify_topk(&data, 64, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
    }

    #[test]
    fn batch_is_one_launch_and_recall_tracks_the_model() {
        let (n, k, batch) = (1 << 14, 128, 6);
        let alg = BucketedTopK::for_recall(n, k, 0.9);
        let expected = alg.expected_recall(k);
        assert!(expected >= 0.9);
        let datas: Vec<Vec<f32>> = (0..batch)
            .map(|i| datagen::generate(Distribution::Uniform, n, 100 + i as u64))
            .collect();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let inputs: Vec<_> = datas
            .iter()
            .enumerate()
            .map(|(i, d)| gpu.htod(&format!("p{i}"), d))
            .collect();
        gpu.reset_profile();
        let outs = alg.select_batch(&mut gpu, &inputs, k);
        assert_eq!(gpu.timeline().kernel_count(), 1, "fused: one launch");
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
    fn faster_than_exact_rowwise_at_loose_recall() {
        let (n, k) = (1 << 16, 1024);
        let time = |run: &dyn Fn(&mut Gpu, &DeviceBuffer<f32>)| {
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let data = datagen::generate(Distribution::Uniform, n, 1);
            let input = gpu.htod("in", &data);
            gpu.reset_profile();
            run(&mut gpu, &input);
            gpu.elapsed_us()
        };
        let approx = time(&|gpu, input| {
            BucketedTopK::for_recall(n, k, 0.9)
                .try_select(gpu, input, k)
                .map(|_| ())
                .unwrap();
        });
        let exact = time(&|gpu, input| {
            crate::RowWiseTopK
                .try_select(gpu, input, k)
                .map(|_| ())
                .unwrap();
        });
        assert!(
            approx < exact,
            "bucketed ({approx:.1} us) should beat exact row-wise ({exact:.1} us)"
        );
    }

    #[test]
    fn rejects_starved_buckets_and_tiny_shared_memory() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        // K = N = 100 with 3 winners per bucket needs 34 buckets of
        // >= 3 elements each — but 100 elements only feed 2 apiece.
        let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let input = gpu.htod("in", &data);
        let err = BucketedTopK::new(3)
            .try_select(&mut gpu, &input, 100)
            .unwrap_err();
        assert!(matches!(err, TopKError::UnsupportedShape { .. }), "{err}");

        let mut tiny = Gpu::new(DeviceSpec::test_tiny());
        let data: Vec<f32> = (0..8192).map(|i| i as f32).collect();
        let input = tiny.htod("in", &data);
        let err = BucketedTopK::new(2048)
            .try_select(&mut tiny, &input, 4096)
            .unwrap_err();
        assert!(matches!(err, TopKError::UnsupportedShape { .. }), "{err}");
    }

    #[test]
    fn selection_counter_moves() {
        let before = obs::counters().snapshot();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data = datagen::generate(Distribution::Uniform, 8192, 5);
        let input = gpu.htod("in", &data);
        let _ = BucketedTopK::new(4).select(&mut gpu, &input, 64);
        let d = obs::counters().snapshot().delta_since(&before);
        assert!(d.bucketed_selections >= 1);
    }
}
