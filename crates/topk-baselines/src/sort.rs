//! Sort baseline: full radix sort, take the first K.
//!
//! Imitates CUB's `DeviceRadixSort::SortPairs` — the "most
//! straightforward" approach the paper lists first (§1): sort all
//! (key, index) pairs, then read off the first K. The paper's §2.2
//! observation holds here by construction: running time is essentially
//! independent of K (Fig. 6's flat Sort curves), because all the work
//! is in the sort.
//!
//! The sort is a 4-pass LSD counting sort with 8-bit digits; each pass
//! is three kernels (per-block histograms → per-segment scan → stable
//! scatter), which is the classic pre-onesweep CUB structure. Batched
//! problems run as a *segmented* sort (CUB's
//! `DeviceSegmentedRadixSort`): one launch set covers every segment,
//! so Sort amortises launches across a batch the way the real library
//! does, rather than looping. Scatter traffic is charged as coalesced
//! plus extra compute — CUB's shared-memory binning makes its writes
//! nearly coalesced, and modelling them as random 32-byte transactions
//! would unfairly slow this baseline by ~4× relative to its measured
//! behaviour.

use gpu_sim::{BlockCtx, DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};
use topk_core::error::TopKError;
use topk_core::keys::RadixKey;
use topk_core::scratch::ScratchGuard;
use topk_core::traits::{check_args, check_batch, Category, TopKAlgorithm, TopKOutput};

/// Digit width of the LSD sort (CUB uses 8 on these key sizes).
const SORT_BITS: u32 = 8;
const RADIX: usize = 1 << SORT_BITS;
const PASSES: u32 = 32 / SORT_BITS;

/// Elements each block handles per pass.
const CHUNK: usize = 256 * 8;

/// The CUB-like full-sort baseline.
#[derive(Debug, Clone, Default)]
pub struct SortTopK;

/// Fully sort a batch of equal-length segments (keys as ordered bits,
/// payload = within-segment index), returning packed `(keys, idx)`
/// buffers of `batch × n` sorted per segment — the simulator's
/// `DeviceSegmentedRadixSort::SortPairs`.
fn segmented_sort(
    gpu: &mut Gpu,
    inputs: &[DeviceBuffer<f32>],
) -> Result<(DeviceBuffer<u32>, DeviceBuffer<u32>), TopKError> {
    ScratchGuard::scope(gpu, |gpu, ws, pp| {
        segmented_sort_passes(gpu, ws, pp, inputs)
    })
}

/// Pass loop of [`segmented_sort`]: histogram/scan workspace in `ws`
/// (always released), ping-pong pairs in `pp` (released on error; on
/// success the non-surviving pair is freed directly and the sorted
/// pair is handed to the caller).
fn segmented_sort_passes(
    gpu: &mut Gpu,
    ws: &mut ScratchGuard,
    pp: &mut ScratchGuard,
    inputs: &[DeviceBuffer<f32>],
) -> Result<(DeviceBuffer<u32>, DeviceBuffer<u32>), TopKError> {
    let n = inputs[0].len();
    let batch = inputs.len();
    let total = batch * n;

    // Ping-pong key/payload pairs (packed, segment-major).
    let keys = [
        pp.alloc::<u32>(gpu, "sort_keys0", total)?,
        pp.alloc::<u32>(gpu, "sort_keys1", total)?,
    ];
    let vals = [
        pp.alloc::<u32>(gpu, "sort_idx0", total)?,
        pp.alloc::<u32>(gpu, "sort_idx1", total)?,
    ];

    let bpp = n.div_ceil(CHUNK).max(1); // blocks per segment
    let grid = batch * bpp;
    let launch = LaunchConfig::grid_1d(grid, 256);
    // (segment, digit-major, block-minor) histogram matrix: one
    // exclusive scan per segment yields every block's stable base.
    let hist = ws.alloc::<u32>(gpu, "sort_hist", batch * RADIX * bpp)?;
    let offsets = ws.alloc::<u32>(gpu, "sort_offsets", batch * RADIX * bpp)?;

    for pass in 0..PASSES {
        let src = (pass as usize) % 2;
        let dst = 1 - src;
        let shift = pass * SORT_BITS;
        let first = pass == 0;

        hist.fill(0); // device memset between passes

        // Kernel 1: per-block digit histograms.
        {
            let keys_src = keys[src].clone();
            let hist = hist.clone();
            let mut contract = KernelContract::new("radix_sort_histogram")
                // Each block's histogram slots stay inside its own
                // segment's hist slice; counts are merged atomically.
                .atomics(&hist, Footprint::per_group(bpp, RADIX * bpp))
                .reads(&keys_src, Footprint::all())
                .uses_shared_mem(RADIX * 4);
            for input in inputs {
                contract = contract.reads(input, Footprint::all());
            }
            gpu.try_launch_checked(&contract, launch, move |ctx| {
                let seg = ctx.block_idx / bpp;
                let blk = ctx.block_idx % bpp;
                let start = blk * CHUNK;
                let end = (start + CHUNK).min(n);
                let mut local = ctx.shared_alloc::<u32>(RADIX);
                let mut count = |bits: u32| local[digit(bits, shift)] += 1;
                if first {
                    ctx.ld_tile(&inputs[seg], start, end)
                        .into_iter()
                        .for_each(|v| count(v.to_ordered()));
                } else {
                    let base = seg * n;
                    ctx.ld_tile(&keys_src, base + start, base + end)
                        .into_iter()
                        .for_each(count);
                }
                ctx.ops(3 * (end - start) as u64);
                let hbase = seg * RADIX * bpp;
                for (d, &c) in local.iter().enumerate() {
                    if c != 0 {
                        ctx.atomic_add(&hist, hbase + d * bpp + blk, c);
                    }
                }
                ctx.ops(RADIX as u64);
            })?;
        }

        // Kernel 2: exclusive scan, one block per segment.
        {
            let hist = hist.clone();
            let offsets = offsets.clone();
            let contract = KernelContract::new("radix_sort_scan")
                .reads(&hist, Footprint::per_block(RADIX * bpp))
                .writes(&offsets, Footprint::per_block(RADIX * bpp));
            gpu.try_launch_checked(&contract, LaunchConfig::grid_1d(batch, 256), move |ctx| {
                let seg = ctx.block_idx;
                let base = seg * RADIX * bpp;
                let mut acc = 0u32;
                let counts = ctx.ld_tile(&hist, base, base + RADIX * bpp);
                for (slot, h) in (base..).zip(counts) {
                    ctx.st(&offsets, slot, acc);
                    acc += h;
                }
                ctx.ops((RADIX * bpp) as u64 * 2);
            })?;
        }

        // Kernel 3: stable scatter within each segment.
        {
            let keys_src = keys[src].clone();
            let vals_src = vals[src].clone();
            let keys_dst = keys[dst].clone();
            let vals_dst = vals[dst].clone();
            let offsets = offsets.clone();
            let mut contract = KernelContract::new("radix_sort_scatter")
                .reads(&keys_src, Footprint::all())
                .reads(&vals_src, Footprint::all())
                .reads(&offsets, Footprint::per_group(bpp, RADIX * bpp))
                // Blocks of one segment scatter into the segment's slice
                // at positions the scan made disjoint dynamically.
                .writes_shared(&keys_dst, Footprint::per_group(bpp, n))
                .writes_shared(&vals_dst, Footprint::per_group(bpp, n))
                .uses_shared_mem(RADIX * 4);
            for input in inputs {
                contract = contract.reads(input, Footprint::all());
            }
            gpu.try_launch_checked(&contract, launch, move |ctx| {
                let seg = ctx.block_idx / bpp;
                let blk = ctx.block_idx % bpp;
                let start = blk * CHUNK;
                let end = (start + CHUNK).min(n);
                let obase = seg * RADIX * bpp;
                let mut cursors = ctx.shared_alloc::<u32>(RADIX);
                for (d, c) in cursors.iter_mut().enumerate() {
                    *c = ctx.ld(&offsets, obase + d * bpp + blk);
                }
                // CUB bins in shared memory first, so global writes are
                // (near-)coalesced: charge streaming stores plus the
                // binning compute.
                let mut scatter = |ctx: &mut BlockCtx<'_>, bits: u32, payload: u32| {
                    let d = digit(bits, shift);
                    let pos = cursors[d] as usize;
                    cursors[d] += 1;
                    ctx.st(&keys_dst, seg * n + pos, bits);
                    ctx.st(&vals_dst, seg * n + pos, payload);
                };
                if first {
                    let keys = ctx.ld_tile(&inputs[seg], start, end);
                    for (v, i) in keys.into_iter().zip(start as u32..) {
                        scatter(ctx, v.to_ordered(), i);
                    }
                } else {
                    let (lo, hi) = (seg * n + start, seg * n + end);
                    let keys = ctx.ld_tile(&keys_src, lo, hi);
                    for (bits, payload) in keys.into_iter().zip(ctx.ld_tile(&vals_src, lo, hi)) {
                        scatter(ctx, bits, payload);
                    }
                }
                ctx.ops(6 * (end - start) as u64);
            })?;
        }
    }

    let sorted = (PASSES as usize) % 2;
    gpu.free(&keys[1 - sorted]);
    gpu.free(&vals[1 - sorted]);
    Ok((keys[sorted].clone(), vals[sorted].clone()))
}

/// Digit of `bits` at `shift`.
fn digit(bits: u32, shift: u32) -> usize {
    ((bits >> shift) & (RADIX as u32 - 1)) as usize
}

/// Extract the first K of each sorted segment into per-problem outputs:
/// one packed `batch × K` pair, split into one device-accounted piece
/// per problem.
fn extract(
    gpu: &mut Gpu,
    sorted_keys: &DeviceBuffer<u32>,
    sorted_idx: &DeviceBuffer<u32>,
    n: usize,
    batch: usize,
    k: usize,
) -> Result<Vec<TopKOutput>, TopKError> {
    ScratchGuard::scope(gpu, |gpu, _, outs| {
        let out_val = outs.alloc::<f32>(gpu, "sort_out_val", batch * k)?;
        let out_idx = outs.alloc::<u32>(gpu, "sort_out_idx", batch * k)?;
        let (sk, si) = (sorted_keys.clone(), sorted_idx.clone());
        let (ov, oi) = (out_val.clone(), out_idx.clone());
        let contract = KernelContract::new("extract_topk")
            .reads(&sk, Footprint::all())
            .reads(&si, Footprint::all())
            .writes(&ov, Footprint::tiles(256))
            .writes(&oi, Footprint::tiles(256));
        gpu.try_launch_checked(
            &contract,
            LaunchConfig::for_elements(batch * k, 256, 1, usize::MAX),
            move |ctx| {
                let end = (ctx.block_idx * 256 + 256).min(batch * k);
                let mut slot = ctx.block_idx * 256;
                // Each run of slots within one segment is one contiguous
                // read of that segment's sorted prefix.
                while slot < end {
                    let (seg, i) = (slot / k, slot % k);
                    let len = (k - i).min(end - slot);
                    let src = seg * n + i;
                    let keys = ctx.ld_tile(&sk, src, src + len);
                    let idxs = ctx.ld_tile(&si, src, src + len);
                    for (dst, (bits, idx)) in (slot..).zip(keys.into_iter().zip(idxs)) {
                        ctx.st(&ov, dst, f32::from_ordered(bits));
                        ctx.st(&oi, dst, idx);
                    }
                    ctx.ops(2 * len as u64);
                    slot += len;
                }
            },
        )?;
        let values = gpu.split(out_val, batch, "sort_values");
        let indices = gpu.split(out_idx, batch, "sort_indices");
        Ok(values
            .into_iter()
            .zip(indices)
            .map(|(v, i)| TopKOutput::new(v, i))
            .collect())
    })
}

impl TopKAlgorithm for SortTopK {
    fn name(&self) -> &'static str {
        "Sort"
    }

    fn category(&self) -> Category {
        Category::Sorting
    }

    fn try_select(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        k: usize,
    ) -> Result<TopKOutput, TopKError> {
        self.try_select_batch(gpu, std::slice::from_ref(input), k)?
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
        let batch = inputs.len();
        let (sorted_keys, sorted_idx) = segmented_sort(gpu, inputs)?;
        let outs = extract(gpu, &sorted_keys, &sorted_idx, n, batch, k);
        gpu.free(&sorted_keys);
        gpu.free(&sorted_idx);
        outs
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
        let out = SortTopK.select(&mut g, &input, k);
        verify_topk(data, k, &out.values.to_vec(), &out.indices.to_vec())
            .unwrap_or_else(|e| panic!("Sort failed: {e}"));
    }

    #[test]
    fn sorts_and_extracts() {
        run_case(&[5.0, 1.0, 4.0, 1.5, -2.0, 8.0, 0.0], 3);
    }

    #[test]
    fn output_is_fully_sorted_ascending() {
        let data = generate(Distribution::Normal, 5000, 3);
        let mut g = Gpu::new(DeviceSpec::a100());
        let input = g.htod("in", &data);
        let out = SortTopK.select(&mut g, &input, 100);
        let v = out.values.to_vec();
        assert!(
            v.windows(2).all(|w| w[0] <= w[1]),
            "Sort's top-K is ordered"
        );
    }

    #[test]
    fn all_distributions() {
        for dist in Distribution::benchmark_set() {
            let data = generate(dist, 20_000, 9);
            run_case(&data, 1);
            run_case(&data, 2048);
            run_case(&data, 20_000);
        }
    }

    #[test]
    fn stability_ties_negative_zero() {
        let mut data = vec![1.0f32; 100];
        data.push(-0.0);
        data.push(0.0);
        run_case(&data, 50);
    }

    #[test]
    fn cost_is_k_independent() {
        // §2.2 / Fig. 6: Sort's cost doesn't depend on K.
        let data = generate(Distribution::Uniform, 50_000, 1);
        let time = |k: usize| {
            let mut g = Gpu::new(DeviceSpec::a100());
            let input = g.htod("in", &data);
            g.reset_profile();
            let _ = SortTopK.select(&mut g, &input, k);
            g.elapsed_us()
        };
        let t8 = time(8);
        let t4096 = time(4096);
        assert!((t4096 - t8).abs() / t8 < 0.05, "t8={t8} t4096={t4096}");
    }

    #[test]
    fn segmented_batch_is_correct_and_amortises_launches() {
        let datas: Vec<Vec<f32>> = (0..6)
            .map(|i| generate(Distribution::Uniform, 8_000, i))
            .collect();
        let mut g = Gpu::new(DeviceSpec::a100());
        let inputs: Vec<_> = datas
            .iter()
            .enumerate()
            .map(|(i, d)| g.htod(&format!("p{i}"), d))
            .collect();
        g.reset_profile();
        let outs = SortTopK.select_batch(&mut g, &inputs, 64);
        // 4 passes x 3 kernels + extract = 13 launches for the whole
        // batch, like DeviceSegmentedRadixSort — not 6 x 13.
        assert_eq!(g.timeline().kernel_count(), 13);
        for (d, o) in datas.iter().zip(&outs) {
            verify_topk(d, 64, &o.values.to_vec(), &o.indices.to_vec()).unwrap();
        }
    }

    #[test]
    fn batch_of_one_matches_single() {
        let data = generate(Distribution::Normal, 3000, 7);
        let mut g = Gpu::new(DeviceSpec::a100());
        let input = g.htod("in", &data);
        let a = SortTopK.select(&mut g, &input, 10);
        let b = SortTopK
            .select_batch(&mut g, std::slice::from_ref(&input), 10)
            .pop()
            .unwrap();
        assert_eq!(a.values.to_vec(), b.values.to_vec());
        assert_eq!(a.indices.to_vec(), b.indices.to_vec());
    }
}
