//! SampleSelect baseline (GpuSelection / Ribizel & Anzt 2020).
//!
//! Partition-based selection with data-derived splitters: sample a
//! small subset of the candidates, sort it on the device, use the
//! sorted samples as bucket boundaries, histogram all candidates into
//! those buckets by binary search, and recurse into the bucket holding
//! the Kth element (§2.2: "SampleSelect samples a small fraction of
//! elements and sorts them to find more suitable pivots"). The
//! sampling makes buckets balanced even on skewed data, at the price of
//! the sample-sort step and — like every GpuSelection method — a host
//! round-trip per iteration.

use crate::common::{
    emit_all_candidates, final_small_select, load_candidate, stream_launch, SelectionState,
    STREAM_CHUNK,
};
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};
use topk_core::bitonic::bitonic_sort;
use topk_core::error::TopKError;
use topk_core::keys::RadixKey;
use topk_core::scratch::ScratchGuard;
use topk_core::traits::{check_args, Category, TopKAlgorithm, TopKOutput};

/// Number of samples (and buckets = SAMPLES + 1) per iteration.
const SAMPLES: usize = 255;
/// Below this many candidates, finish with one on-device sort.
const SMALL_CUTOFF: usize = 4096;

/// The GpuSelection SampleSelect baseline.
#[derive(Debug, Clone, Default)]
pub struct SampleSelect;

impl TopKAlgorithm for SampleSelect {
    fn name(&self) -> &'static str {
        "SampleSelect"
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
        let mut extras = ScratchGuard::new();
        let stats = (|| {
            Ok::<_, TopKError>((
                extras.alloc::<u32>(gpu, "ss_splitters", SAMPLES)?,
                extras.alloc::<u32>(gpu, "ss_hist", SAMPLES + 1)?,
            ))
        })();
        let (splitters, hist) = match stats {
            Ok(pair) => pair,
            Err(e) => {
                extras.release(gpu);
                st.free_all(gpu);
                return Err(e);
            }
        };
        let r = run_loop(gpu, input, &mut st, &splitters, &hist);
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
    splitters: &DeviceBuffer<u32>,
    hist: &DeviceBuffer<u32>,
) -> Result<(), TopKError> {
    {
        let mut prev_n = usize::MAX;
        let mut first = true;
        loop {
            if st.k_rem == 0 {
                break;
            }
            if st.n_cur == st.k_rem {
                emit_all_candidates(gpu, input, st)?;
                break;
            }
            // Degenerate distributions (all candidates equal) stop
            // shrinking; fall back to the terminal sort. Also used for
            // genuinely small candidate sets.
            if (!first && st.n_cur <= SMALL_CUTOFF.max(st.k_rem)) || st.n_cur >= prev_n {
                final_small_select(gpu, input, st)?;
                break;
            }
            first = false;
            prev_n = st.n_cur;
            let n_cur = st.n_cur;

            // Kernel 1: strided sampling + on-device sort of the
            // sample (one block; the sample is tiny).
            {
                let keys = st.cand_keys[st.cur].clone();
                let idxs = st.cand_idx[st.cur].clone();
                let materialised = st.materialised;
                let input = input.clone();
                let splitters = splitters.clone();
                let contract = KernelContract::new("sample_sort_splitters")
                    .reads(&input, Footprint::all())
                    .reads(&keys, Footprint::all())
                    .reads(&idxs, Footprint::all())
                    .writes(&splitters, Footprint::fixed(0, SAMPLES))
                    .requires_grid_at_most(1);
                gpu.try_launch_checked(&contract, LaunchConfig::grid_1d(1, 256), move |ctx| {
                    let stride = (n_cur / SAMPLES).max(1);
                    let mut kb = vec![u32::MAX; SAMPLES.next_power_of_two()];
                    let mut payload = vec![0u32; kb.len()];
                    for (s, slot) in kb.iter_mut().enumerate().take(SAMPLES) {
                        let i = (s * stride).min(n_cur - 1);
                        let (bits, _) = load_candidate(ctx, &input, &keys, &idxs, materialised, i);
                        *slot = bits;
                    }
                    let ops = bitonic_sort(&mut kb, &mut payload, true);
                    ctx.ops(ops);
                    for (s, &key) in kb.iter().enumerate().take(SAMPLES) {
                        ctx.st(&splitters, s, key);
                    }
                })?;
            }

            // Kernel 2: histogram by binary search over the splitters.
            hist.fill(0);
            {
                let keys = st.cand_keys[st.cur].clone();
                let idxs = st.cand_idx[st.cur].clone();
                let materialised = st.materialised;
                let input = input.clone();
                let splitters = splitters.clone();
                let hist = hist.clone();
                let contract = KernelContract::new("sample_histogram")
                    .reads(&input, Footprint::all())
                    .reads(&keys, Footprint::all())
                    .reads(&idxs, Footprint::all())
                    .reads(&splitters, Footprint::fixed(0, SAMPLES))
                    .atomics(&hist, Footprint::fixed(0, SAMPLES + 1))
                    .uses_shared_mem((SAMPLES * 2 + 1) * 4);
                gpu.try_launch_checked(&contract, stream_launch(n_cur), move |ctx| {
                    let start = ctx.block_idx * STREAM_CHUNK;
                    let end = (start + STREAM_CHUNK).min(n_cur);
                    // Splitters are read once into shared memory by a
                    // real kernel; model the same.
                    let mut spl = ctx.shared_alloc::<u32>(SAMPLES);
                    for (s, slot) in spl.iter_mut().enumerate() {
                        *slot = ctx.ld(&splitters, s);
                    }
                    let mut local = ctx.shared_alloc::<u32>(SAMPLES + 1);
                    for i in start..end {
                        let (bits, _) = load_candidate(ctx, &input, &keys, &idxs, materialised, i);
                        let bkt = spl.partition_point(|&s| s < bits);
                        local[bkt] += 1;
                        ctx.ops(10); // log2(256) comparisons
                    }
                    for (d, &c) in local.iter().enumerate() {
                        if c != 0 {
                            ctx.atomic_add(&hist, d, c);
                        }
                    }
                    ctx.ops((SAMPLES + 1) as u64);
                })?;
            }
            let h = gpu.dtoh(hist);
            gpu.host_compute("sample prefix sum", 1.0);
            let mut acc = 0u32;
            let mut target = SAMPLES;
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

            // Kernel 3: filter into (results, next candidates).
            let cursor = gpu.try_alloc::<u32>("ss_cursor", 1)?;
            cursor.fill(0); // memset before the filter's first atomic bump
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
                let cursor = cursor.clone();
                let splitters = splitters.clone();
                let contract = KernelContract::new("sample_filter")
                    .reads(&input, Footprint::all())
                    .reads(&keys, Footprint::all())
                    .reads(&idxs, Footprint::all())
                    .reads(&splitters, Footprint::fixed(0, SAMPLES))
                    .atomics(&out_cursor, Footprint::elem(0))
                    .atomics(&cursor, Footprint::elem(0))
                    .writes_shared(&out_val, Footprint::all())
                    .writes_shared(&out_idx, Footprint::all())
                    .writes_shared(&nkeys, Footprint::all())
                    .writes_shared(&nidx, Footprint::all())
                    .uses_shared_mem(SAMPLES * 4);
                gpu.try_launch_checked(&contract, stream_launch(n_cur), move |ctx| {
                    let start = ctx.block_idx * STREAM_CHUNK;
                    let end = (start + STREAM_CHUNK).min(n_cur);
                    let mut spl = ctx.shared_alloc::<u32>(SAMPLES);
                    for (s, slot) in spl.iter_mut().enumerate() {
                        *slot = ctx.ld(&splitters, s);
                    }
                    for i in start..end {
                        let (bits, idx) =
                            load_candidate(ctx, &input, &keys, &idxs, materialised, i);
                        let bkt = spl.partition_point(|&s| s < bits);
                        ctx.ops(10);
                        if bkt < target {
                            let pos = ctx.atomic_add(&out_cursor, 0, 1) as usize;
                            ctx.st_scatter(&out_val, pos, f32::from_ordered(bits));
                            ctx.st_scatter(&out_idx, pos, idx);
                        } else if bkt == target {
                            let pos = ctx.atomic_add(&cursor, 0, 1) as usize;
                            ctx.st_scatter(&nkeys, pos, bits);
                            ctx.st_scatter(&nidx, pos, idx);
                        }
                    }
                })
                .map(|_| ())
            };
            if let Err(e) = launched {
                gpu.free(&cursor);
                return Err(e.into());
            }
            gpu.free(&cursor);

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
        let out = SampleSelect.select(&mut g, &input, k);
        verify_topk(data, k, &out.values.to_vec(), &out.indices.to_vec())
            .unwrap_or_else(|e| panic!("SampleSelect failed: {e} (n={}, k={k})", data.len()));
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
    fn identical_values_terminate() {
        run_case(&vec![0.5f32; 30_000], 7);
    }

    #[test]
    fn skewed_data_still_converges() {
        // 99% duplicates + 1% spread: splitters collapse, the stall
        // guard must kick in.
        let mut data = vec![1.0f32; 49_500];
        data.extend(generate(Distribution::Uniform, 500, 2));
        run_case(&data, 49_700);
    }
}
