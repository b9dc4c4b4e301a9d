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

use crate::common::{
    emit_all_candidates, final_small_select, load_candidate, stream_launch, SelectionState,
    STREAM_CHUNK,
};
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract};
use topk_core::error::TopKError;
use topk_core::keys::RadixKey;
use topk_core::traits::{check_args, Category, TopKAlgorithm, TopKOutput};

const BUCKETS: usize = 256;
/// Below this many candidates, finish with one on-device sort.
const SMALL_CUTOFF: usize = 4096;

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

impl TopKAlgorithm for BucketSelect {
    fn name(&self) -> &'static str {
        "BucketSelect"
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
        check_args(self, input.len(), k)?;
        let n = input.len();
        let mut st = SelectionState::new(gpu, n, k)?;
        let mut extras = topk_core::scratch::ScratchGuard::new();
        let stats = (|| {
            Ok::<_, TopKError>((
                extras.alloc::<u32>(gpu, "bs_minmax", 2)?,
                extras.alloc::<u32>(gpu, "bs_hist", BUCKETS)?,
            ))
        })();
        let (minmax, hist) = match stats {
            Ok(pair) => pair,
            Err(e) => {
                extras.release(gpu);
                st.free_all(gpu);
                return Err(e);
            }
        };
        let r = run_loop(gpu, input, &mut st, &minmax, &hist);
        extras.release(gpu);
        match r {
            Ok(()) => {
                st.free_workspace(gpu);
                Ok(st.into_output())
            }
            Err(e) => {
                st.free_all(gpu);
                Err(e)
            }
        }
    }
}

/// The host-driven iteration loop; cleanup happens in `try_select` so
/// an error cannot strand workspace bytes.
fn run_loop(
    gpu: &mut Gpu,
    input: &DeviceBuffer<f32>,
    st: &mut SelectionState,
    minmax: &DeviceBuffer<u32>,
    hist: &DeviceBuffer<u32>,
) -> Result<(), TopKError> {
    {
        let mut first = true;
        loop {
            if st.k_rem == 0 {
                break;
            }
            if st.n_cur == st.k_rem {
                emit_all_candidates(gpu, input, st)?;
                break;
            }
            if !first && st.n_cur <= SMALL_CUTOFF.max(st.k_rem) {
                final_small_select(gpu, input, st)?;
                break;
            }
            first = false;

            let n_cur = st.n_cur;
            // Kernel 1: min/max reduction (atomic, fine for a model).
            minmax.set(0, u32::MAX);
            minmax.set(1, 0);
            {
                let keys = st.cand_keys[st.cur].clone();
                let idxs = st.cand_idx[st.cur].clone();
                let materialised = st.materialised;
                let input = input.clone();
                let minmax = minmax.clone();
                let contract = KernelContract::new("bucket_minmax")
                    .reads(&input, Footprint::all())
                    .reads(&keys, Footprint::all())
                    .reads(&idxs, Footprint::all())
                    .atomics(&minmax, Footprint::fixed(0, 2));
                gpu.try_launch_checked(&contract, stream_launch(n_cur), move |ctx| {
                    let start = ctx.block_idx * STREAM_CHUNK;
                    let end = (start + STREAM_CHUNK).min(n_cur);
                    let mut lo = u32::MAX;
                    let mut hi = 0u32;
                    for i in start..end {
                        let (bits, _) = load_candidate(ctx, &input, &keys, &idxs, materialised, i);
                        lo = lo.min(bits);
                        hi = hi.max(bits);
                        ctx.ops(2);
                    }
                    ctx.atomic_min_raw(&minmax, 0, lo);
                    ctx.atomic_max_raw(&minmax, 1, hi);
                })?;
            }
            let mm = gpu.dtoh(minmax);
            let (lo, hi) = (mm[0], mm[1]);
            if lo == hi {
                // Every candidate is identical: any K of them work.
                final_small_select(gpu, input, st)?;
                break;
            }

            // Kernel 2: equal-width bucket histogram.
            hist.fill(0);
            {
                let keys = st.cand_keys[st.cur].clone();
                let idxs = st.cand_idx[st.cur].clone();
                let materialised = st.materialised;
                let input = input.clone();
                let hist = hist.clone();
                let contract = KernelContract::new("bucket_histogram")
                    .reads(&input, Footprint::all())
                    .reads(&keys, Footprint::all())
                    .reads(&idxs, Footprint::all())
                    .atomics(&hist, Footprint::fixed(0, BUCKETS))
                    .uses_shared_mem(BUCKETS * 4);
                gpu.try_launch_checked(&contract, stream_launch(n_cur), move |ctx| {
                    let start = ctx.block_idx * STREAM_CHUNK;
                    let end = (start + STREAM_CHUNK).min(n_cur);
                    let mut local = ctx.shared_alloc::<u32>(BUCKETS);
                    for i in start..end {
                        let (bits, _) = load_candidate(ctx, &input, &keys, &idxs, materialised, i);
                        local[bucket_of(bits, lo, hi)] += 1;
                        ctx.ops(5);
                    }
                    for (d, &c) in local.iter().enumerate() {
                        if c != 0 {
                            ctx.atomic_add(&hist, d, c);
                        }
                    }
                    ctx.ops(BUCKETS as u64);
                })?;
            }
            let h = gpu.dtoh(hist);
            gpu.host_compute("bucket prefix sum", 1.0);
            let mut acc = 0u32;
            let mut target = BUCKETS - 1;
            let mut below = 0u32;
            for (d, &c) in h.iter().enumerate() {
                if acc + c >= st.k_rem as u32 {
                    target = d;
                    below = acc;
                    break;
                }
                acc += c;
            }
            let next_n = h[target] as usize;

            // Kernel 3: filter — emit sure results, keep the target
            // bucket as the next candidate set.
            let cursors = gpu.try_alloc::<u32>("bs_cursors", 1)?;
            cursors.fill(0); // memset before the filter's first atomic bump
            let launched = {
                let keys = st.cand_keys[st.cur].clone();
                let idxs = st.cand_idx[st.cur].clone();
                let nkeys = st.cand_keys[1 - st.cur].clone();
                let nidx = st.cand_idx[1 - st.cur].clone();
                let materialised = st.materialised;
                let input = input.clone();
                let out_val = st.out_val.clone();
                let out_idx = st.out_idx.clone();
                let out_cursor = st.out_cursor.clone();
                let cursors = cursors.clone();
                let contract = KernelContract::new("bucket_filter")
                    .reads(&input, Footprint::all())
                    .reads(&keys, Footprint::all())
                    .reads(&idxs, Footprint::all())
                    .atomics(&out_cursor, Footprint::elem(0))
                    .atomics(&cursors, Footprint::elem(0))
                    .writes_shared(&out_val, Footprint::all())
                    .writes_shared(&out_idx, Footprint::all())
                    .writes_shared(&nkeys, Footprint::all())
                    .writes_shared(&nidx, Footprint::all());
                gpu.try_launch_checked(&contract, stream_launch(n_cur), move |ctx| {
                    let start = ctx.block_idx * STREAM_CHUNK;
                    let end = (start + STREAM_CHUNK).min(n_cur);
                    for i in start..end {
                        let (bits, idx) =
                            load_candidate(ctx, &input, &keys, &idxs, materialised, i);
                        let bkt = bucket_of(bits, lo, hi);
                        ctx.ops(5);
                        if bkt < target {
                            let pos = ctx.atomic_add(&out_cursor, 0, 1) as usize;
                            ctx.st_scatter(&out_val, pos, f32::from_ordered(bits));
                            ctx.st_scatter(&out_idx, pos, idx);
                        } else if bkt == target {
                            let pos = ctx.atomic_add(&cursors, 0, 1) as usize;
                            ctx.st_scatter(&nkeys, pos, bits);
                            ctx.st_scatter(&nidx, pos, idx);
                        }
                    }
                })
                .map(|_| ())
            };
            if let Err(e) = launched {
                gpu.free(&cursors);
                return Err(e.into());
            }
            gpu.free(&cursors);

            st.cur = 1 - st.cur;
            st.materialised = true;
            st.n_cur = next_n;
            st.k_rem -= below as usize;
        }
        Ok(())
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
