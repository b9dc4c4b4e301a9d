//! RadixSelect baseline: classic MSD radix top-K with the host in the
//! loop (DrTopK's base implementation, after Alabi et al. 2012).
//!
//! Functionally the same digit-by-digit narrowing as AIR Top-K, but
//! organised the way every pre-AIR GPU implementation was (§3.1):
//! per iteration the device computes a histogram
//! (`CalculateOccurrence`, the kernel named in Fig. 8), the *host*
//! copies it back over PCIe, computes the prefix sum, picks the target
//! digit, uploads parameters, and launches a separate filter kernel —
//! synchronising twice per digit. Candidates are always written to
//! buffers (no adaptive strategy), and each of the ⌈32/8⌉ = 4
//! iterations reloads the data once for the histogram and once for the
//! filter. All of that is what AIR Top-K's iteration fusion removes,
//! and what this baseline exists to measure.

use crate::common::{load_candidate, stream_launch, SelectionState, STREAM_CHUNK};
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract};
use topk_core::error::TopKError;
use topk_core::keys::RadixKey;
use topk_core::traits::{check_args, Category, TopKAlgorithm, TopKOutput};

const SELECT_BITS: u32 = 8;
const RADIX: usize = 1 << SELECT_BITS;
const PASSES: u32 = 32 / SELECT_BITS;

/// Host-driven MSD radix select (DrTopK-style).
#[derive(Debug, Clone, Default)]
pub struct RadixSelect;

impl TopKAlgorithm for RadixSelect {
    fn name(&self) -> &'static str {
        "RadixSelect"
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
        let hist = match gpu.try_alloc::<u32>("rs_hist", RADIX) {
            Ok(h) => h,
            Err(e) => {
                st.free_all(gpu);
                return Err(e.into());
            }
        };
        let r = run_passes(gpu, input, &mut st, &hist);
        gpu.free(&hist);
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

/// The host-in-the-loop pass sequence; cleanup happens in `try_select`
/// so an error cannot strand workspace bytes.
fn run_passes(
    gpu: &mut Gpu,
    input: &DeviceBuffer<f32>,
    st: &mut SelectionState,
    hist: &DeviceBuffer<u32>,
) -> Result<(), TopKError> {
    {
        for pass in 0..PASSES {
            let shift = 32 - (pass + 1) * SELECT_BITS;
            let n_cur = st.n_cur;
            let launch = stream_launch(n_cur);

            // Kernel 1: CalculateOccurrence — the digit histogram.
            hist.fill(0);
            {
                let keys = st.cand_keys[st.cur].clone();
                let idxs = st.cand_idx[st.cur].clone();
                let materialised = st.materialised;
                let input = input.clone();
                let hist = hist.clone();
                let contract = KernelContract::new("CalculateOccurrence")
                    .reads(&input, Footprint::all())
                    .reads(&keys, Footprint::all())
                    .reads(&idxs, Footprint::all())
                    .atomics(&hist, Footprint::fixed(0, RADIX))
                    .uses_shared_mem(RADIX * 4);
                gpu.try_launch_checked(&contract, launch, move |ctx| {
                    let start = ctx.block_idx * STREAM_CHUNK;
                    let end = (start + STREAM_CHUNK).min(n_cur);
                    let mut local = ctx.shared_alloc::<u32>(RADIX);
                    for i in start..end {
                        let (bits, _) = load_candidate(ctx, &input, &keys, &idxs, materialised, i);
                        local[((bits >> shift) & (RADIX as u32 - 1)) as usize] += 1;
                        ctx.ops(3);
                    }
                    for (d, &c) in local.iter().enumerate() {
                        if c != 0 {
                            ctx.atomic_add(&hist, d, c);
                        }
                    }
                    ctx.ops(RADIX as u64);
                })?;
            }

            // Host round-trip: copy the histogram back (implicit
            // device sync), scan it, choose the target digit.
            let h = gpu.dtoh(hist);
            gpu.host_compute("prefix sum + target digit", 2.0);
            let mut acc = 0u32;
            let mut target = (RADIX - 1) as u32;
            let mut below = 0u32;
            for (d, &c) in h.iter().enumerate() {
                if acc + c >= st.k_rem as u32 {
                    target = d as u32;
                    below = acc;
                    break;
                }
                acc += c;
            }
            let next_n = h[target as usize] as usize;
            let next_k = st.k_rem - below as usize;

            // Kernel 2: Filter — emit sure results, buffer candidates.
            // (The device re-derives write positions from its own
            // atomic cursors; the host uploads the target digit.)
            let params = gpu.try_alloc::<u32>("rs_params", 2)?;
            gpu.htod_into(&params, &[target, 0]);
            let is_last = pass + 1 == PASSES;
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
                let params = params.clone();
                // Tie quota on the final digit: result slots left after
                // the sure (strictly-below) results are taken out.
                let tie_quota = next_k as u32;
                let contract = KernelContract::new("Filter")
                    .reads(&input, Footprint::all())
                    .reads(&keys, Footprint::all())
                    .reads(&idxs, Footprint::all())
                    .coordinates(&params, Footprint::fixed(0, 2))
                    .atomics(&out_cursor, Footprint::elem(0))
                    .writes_shared(&out_val, Footprint::all())
                    .writes_shared(&out_idx, Footprint::all())
                    .writes_shared(&nkeys, Footprint::all())
                    .writes_shared(&nidx, Footprint::all());
                gpu.try_launch_checked(&contract, launch, move |ctx| {
                    let start = ctx.block_idx * STREAM_CHUNK;
                    let end = (start + STREAM_CHUNK).min(n_cur);
                    let target = ctx.ld(&params, 0);
                    for i in start..end {
                        let (bits, idx) =
                            load_candidate(ctx, &input, &keys, &idxs, materialised, i);
                        let d = (bits >> shift) & (RADIX as u32 - 1);
                        ctx.ops(3);
                        if d < target {
                            let pos = ctx.atomic_add(&out_cursor, 0, 1) as usize;
                            ctx.st_scatter(&out_val, pos, f32::from_ordered(bits));
                            ctx.st_scatter(&out_idx, pos, idx);
                        } else if d == target {
                            if is_last {
                                // Full key equals the kth value: admit
                                // by rank (ties).
                                let rank = ctx.atomic_add(&params, 1, 1);
                                if rank < tie_quota {
                                    let pos = ctx.atomic_add(&out_cursor, 0, 1) as usize;
                                    ctx.st_scatter(&out_val, pos, f32::from_ordered(bits));
                                    ctx.st_scatter(&out_idx, pos, idx);
                                }
                            } else {
                                let pos = ctx.atomic_add(&params, 1, 1) as usize;
                                ctx.st_scatter(&nkeys, pos, bits);
                                ctx.st_scatter(&nidx, pos, idx);
                            }
                        }
                    }
                })
                .map(|_| ())
            };
            if let Err(e) = launched {
                gpu.free(&params);
                return Err(e.into());
            }
            gpu.free(&params);

            if is_last {
                break;
            }
            // The host also reads back the surviving-candidate count to
            // decide whether to continue — another sync in the real
            // implementation (we already know `next_n` from the
            // histogram, as DrTopK does).
            st.cur = 1 - st.cur;
            st.materialised = true;
            st.n_cur = next_n;
            st.k_rem = next_k;

            if st.k_rem == st.n_cur {
                // Everything left is a result; copy and stop.
                crate::common::emit_all_candidates(gpu, input, st)?;
                break;
            }
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
        let out = RadixSelect.select(&mut g, &input, k);
        verify_topk(data, k, &out.values.to_vec(), &out.indices.to_vec())
            .unwrap_or_else(|e| panic!("RadixSelect failed: {e} (n={}, k={k})", data.len()));
    }

    #[test]
    fn basic_cases() {
        run_case(&[5.0, 1.0, 4.0, 1.5, -2.0, 8.0, 0.0], 3);
        run_case(&[1.0], 1);
    }

    #[test]
    fn all_distributions_shapes() {
        for dist in Distribution::benchmark_set() {
            let data = generate(dist, 30_000, 5);
            for k in [1usize, 17, 2048, 29_999, 30_000] {
                run_case(&data, k);
            }
        }
    }

    #[test]
    fn ties_and_identical() {
        run_case(&vec![2.5f32; 512], 100);
        let mut data = vec![1.0f32; 400];
        data.extend(vec![0.5f32; 400]);
        run_case(&data, 600);
    }

    #[test]
    fn host_roundtrips_every_iteration() {
        // The defining inefficiency vs. AIR: DtoH copies + syncs.
        let data = generate(Distribution::Uniform, 100_000, 1);
        let mut g = Gpu::new(DeviceSpec::a100());
        let input = g.htod("in", &data);
        g.reset_profile();
        let _ = RadixSelect.select(&mut g, &input, 1000);
        assert!(
            g.timeline().memcpy_us() > 0.0,
            "RadixSelect must transfer histograms over PCIe"
        );
        assert!(
            g.timeline().idle_us() > 4.0 * g.spec().host_sync_us,
            "at least one sync per pass"
        );
        // More kernel launches than AIR needs, even when the k = n
        // early exit cuts the loop short.
        assert!(g.timeline().kernel_count() >= 5);
    }
}
