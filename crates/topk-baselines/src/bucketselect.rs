//! BucketSelect baseline (GpuSelection / Alabi et al. 2012).
//!
//! Partition-based selection whose pivots come from the data's value
//! range: each iteration reduces min/max over the candidates, splits
//! `[min, max]` into 256 equal-width buckets, histograms the
//! candidates, and recurses into the bucket containing the Kth element
//! (§2.2: "the pivots of BucketSelect are decided by the minimum and
//! the maximum of candidates"). Needing those statistics is exactly the
//! cost RadixSelect avoids — two extra host round-trips per iteration
//! here (min/max, then the bucket histogram).
//!
//! Bucketing is done on the order-preserving key bits, which keeps the
//! math exact (no float-division edge cases) while preserving the
//! equal-width-by-value character.

use crate::common::{partition_baseline, stream_launch, Classifier, SelectionState};
use gpu_sim::{Footprint, Gpu, KernelContract};
use topk_core::error::TopKError;

const BUCKETS: usize = 256;

/// The GpuSelection BucketSelect baseline.
#[derive(Debug, Clone, Default)]
pub struct BucketSelect;

/// Map key bits into a bucket of `[min, max]` split into `BUCKETS`
/// equal-width ranges.
#[inline]
fn bucket_of(bits: u32, min: u32, max: u32) -> usize {
    let span = (max - min) as u64 + 1;
    (((bits - min) as u64 * BUCKETS as u64) / span) as usize
}

partition_baseline!(BucketSelect, "BucketSelect");

/// Each round reduces min/max over the candidates (read back by the
/// host), then runs the counted round over equal-width buckets of
/// `[min, max]`.
impl Classifier for BucketSelect {
    /// `(min, max)` of the candidates.
    type Round = (u32, u32);
    const CLASSES: usize = BUCKETS;
    const OPS: u64 = 5;
    const KERNELS: [&'static str; 2] = ["bucket_histogram", "bucket_filter"];
    const HOST: (&'static str, f64) = ("bucket prefix sum", 1.0);
    const PARAMS: &'static str = "bs_cursors";
    const SCRATCH: &'static [(&'static str, usize)] = &[("bs_minmax", 2), ("bs_hist", BUCKETS)];

    fn prepare(
        &self,
        gpu: &mut Gpu,
        st: &SelectionState,
        _: usize,
    ) -> Result<Option<(u32, u32)>, TopKError> {
        // Min/max reduction (atomic, fine for a model).
        let (view, minmax) = (&st.cands, &st.scratch[0]);
        minmax.set(0, u32::MAX);
        minmax.set(1, 0);
        let contract = view
            .reads(KernelContract::new("bucket_minmax"))
            .atomics(minmax, Footprint::fixed(0, 2));
        gpu.try_launch_checked(&contract, stream_launch(view.n), |ctx| {
            let mut lo = u32::MAX;
            let mut hi = 0u32;
            for (key, _) in view.chunk(ctx) {
                lo = lo.min(key);
                hi = hi.max(key);
                ctx.ops(2);
            }
            ctx.atomic_min_raw(minmax, 0, lo);
            ctx.atomic_max_raw(minmax, 1, hi);
        })?;
        let mm = gpu.dtoh(minmax);
        // Equal min and max: every candidate is identical, so any K of
        // them work.
        Ok((mm[0] != mm[1]).then_some((mm[0], mm[1])))
    }

    fn class(&(lo, hi): &(u32, u32), key: u32) -> usize {
        bucket_of(key, lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Distribution};
    use gpu_sim::{DeviceSpec, Gpu};
    use topk_core::verify::verify_topk;
    use topk_core::TopKAlgorithm;

    fn run_case(data: &[f32], k: usize) {
        let mut g = Gpu::new(DeviceSpec::a100());
        let input = g.htod("in", data);
        let out = BucketSelect.select(&mut g, &input, k);
        verify_topk(data, k, &out.values.to_vec(), &out.indices.to_vec())
            .unwrap_or_else(|e| panic!("BucketSelect failed: {e} (n={}, k={k})", data.len()));
    }

    #[test]
    fn bucket_of_is_total_and_ordered() {
        let (lo, hi) = (100u32, 1099);
        assert_eq!(bucket_of(lo, lo, hi), 0);
        assert_eq!(bucket_of(hi, lo, hi), BUCKETS - 1);
        let mut prev = 0;
        for b in (lo..=hi).step_by(10) {
            let k = bucket_of(b, lo, hi);
            assert!(k >= prev && k < BUCKETS);
            prev = k;
        }
        // Full-range extremes must not overflow.
        assert_eq!(bucket_of(0, 0, u32::MAX), 0);
        assert_eq!(bucket_of(u32::MAX, 0, u32::MAX), BUCKETS - 1);
    }

    #[test]
    fn basic_cases() {
        run_case(&[5.0, 1.0, 4.0, 1.5, -2.0, 8.0, 0.0], 3);
        run_case(&[1.0], 1);
    }

    #[test]
    fn all_distributions_shapes() {
        for dist in Distribution::benchmark_set() {
            let data = generate(dist, 50_000, 5);
            for k in [1usize, 100, 5000, 50_000] {
                run_case(&data, k);
            }
        }
    }

    #[test]
    fn identical_values_and_dense_ties() {
        run_case(&vec![7.0f32; 20_000], 1234);
        let mut data = vec![1.0f32; 9_000];
        data.extend(generate(Distribution::Uniform, 1_000, 1));
        run_case(&data, 5000);
    }

    #[test]
    fn two_roundtrips_per_iteration() {
        let data = generate(Distribution::Uniform, 200_000, 1);
        let mut g = Gpu::new(DeviceSpec::a100());
        let input = g.htod("in", &data);
        g.reset_profile();
        let _ = BucketSelect.select(&mut g, &input, 100);
        // min/max + histogram copies at least once each.
        let dtoh = g
            .timeline()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, gpu_sim::EventKind::MemcpyDtoH))
            .count();
        assert!(dtoh >= 2, "BucketSelect needs statistics round-trips");
    }
}
