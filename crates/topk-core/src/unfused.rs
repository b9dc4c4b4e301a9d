//! The *unfused* device-only radix top-K — Fig. 2's kernel
//! organisation, as an ablation of AIR Top-K's iteration fusion.
//!
//! §3.1 develops AIR Top-K in two steps: first make the classic radix
//! loop run entirely on the device (possible because the pass count is
//! input-independent), then *fuse*. This module is the first step
//! without the second: per pass it launches the four §2.3 kernels
//! separately —
//!
//! 1. `compute_histogram` (loads the candidates),
//! 2. `prefix_sum` (one block),
//! 3. `find_target_digit` (one block),
//! 4. `filter` (loads the candidates **again**, writes results and the
//!    next candidate buffer),
//!
//! i.e. 4 launches and two data sweeps per pass (Fig. 2's 16 calls at
//! b = 8; 12 at b = 11), versus AIR's one launch and one sweep
//! (Fig. 3). The paper's arithmetic: total loads drop from `Σ 2·Gᵢ`
//! (worst case 8N) to `2·G₁ + Σᵢ₌₂ Gᵢ` (worst case 5N). Candidates are
//! always buffered (no adaptive strategy) and there is no early
//! stopping — this is the pre-AIR design, minus the host round-trips.
//!
//! Comparing [`UnfusedRadix`] against [`crate::AirTopK`] isolates the
//! fusion benefit; comparing it against
//! [`RadixSelect`](../../topk_baselines/radixselect) isolates the
//! host-round-trip cost.

use crate::error::TopKError;
use crate::keys::{digit_of, digit_width_of, num_passes_of, RadixKey};
use crate::scratch::ScratchGuard;
use crate::traits::{check_args, Category, TopKAlgorithm, TopKOutput};
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};

// Device control-block slots.
const K_REM: usize = 0;
const COUNT: usize = 1; // live candidates entering this pass
const TARGET: usize = 2;
const OUT_CURSOR: usize = 3;
const BUF_CURSOR: usize = 4;
const TIE_CURSOR: usize = 5;
const CTRL_LEN: usize = 6;

/// Device-only radix top-K without iteration fusion (the Fig. 2
/// organisation). Exists for the fusion ablation; use
/// [`crate::AirTopK`] for real work.
#[derive(Debug, Clone)]
pub struct UnfusedRadix {
    /// Digit width (default 11, same as AIR, so the pass counts
    /// compare one-to-one).
    pub bits_per_pass: u32,
}

impl Default for UnfusedRadix {
    fn default() -> Self {
        UnfusedRadix { bits_per_pass: 11 }
    }
}

impl TopKAlgorithm for UnfusedRadix {
    fn name(&self) -> &'static str {
        "UnfusedRadix"
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
        let mut ws = ScratchGuard::new();
        let mut outs = ScratchGuard::new();
        let r = self.run_passes(gpu, &mut ws, &mut outs, input, k);
        ws.release(gpu);
        if r.is_err() {
            outs.release(gpu);
        }
        r
    }
}

impl UnfusedRadix {
    fn run_passes(
        &self,
        gpu: &mut Gpu,
        ws: &mut ScratchGuard,
        outs: &mut ScratchGuard,
        input: &DeviceBuffer<f32>,
        k: usize,
    ) -> Result<TopKOutput, TopKError> {
        let n = input.len();
        let b = self.bits_per_pass;
        let passes = num_passes_of::<u32>(b) as usize;
        let radix = 1usize << b;

        let ctrl = ws.alloc::<u32>(gpu, "ur_ctrl", CTRL_LEN)?;
        ctrl.set(K_REM, k as u32);
        ctrl.set(COUNT, n as u32);
        // The output and tie cursors are only ever advanced by device
        // atomics; give them defined initial values (initcheck flags
        // the read-modify-write of a never-written word otherwise).
        ctrl.set(OUT_CURSOR, 0);
        ctrl.set(TIE_CURSOR, 0);
        let hist = ws.alloc::<u32>(gpu, "ur_hist", radix)?;
        let psum = ws.alloc::<u32>(gpu, "ur_psum", radix)?;
        // Classic candidate buffers: always used, sized N (§3.2 calls
        // out the 2× footprint this costs).
        let cand = [
            (
                ws.alloc::<u32>(gpu, "ur_cand_bits0", n)?,
                ws.alloc::<u32>(gpu, "ur_cand_idx0", n)?,
            ),
            (
                ws.alloc::<u32>(gpu, "ur_cand_bits1", n)?,
                ws.alloc::<u32>(gpu, "ur_cand_idx1", n)?,
            ),
        ];
        let out_val = outs.alloc::<f32>(gpu, "ur_out_val", k)?;
        let out_idx = outs.alloc::<u32>(gpu, "ur_out_idx", k)?;

        let chunk = 256 * 16;
        let launch = LaunchConfig::for_elements(n, 256, 16, usize::MAX);

        for pass in 0..passes {
            let first = pass == 0;
            let src = (pass + 1) % 2;
            let dst = pass % 2;

            // Kernel 1: compute histogram (first data sweep).
            hist.fill(0);
            {
                let (sb, si) = (cand[src].0.clone(), cand[src].1.clone());
                let input = input.clone();
                let (hist, ctrl) = (hist.clone(), ctrl.clone());
                let contract = KernelContract::new("compute_histogram")
                    .reads(&ctrl, Footprint::fixed(0, CTRL_LEN))
                    .reads(&input, Footprint::all())
                    .reads(&sb, Footprint::all())
                    .atomics(&hist, Footprint::fixed(0, radix))
                    .uses_shared_mem(radix * 4);
                gpu.try_launch_checked(&contract, launch, move |ctx| {
                    let count = ctx.ld(&ctrl, COUNT) as usize;
                    let start = ctx.block_idx * chunk;
                    let end = (start + chunk).min(count);
                    let mut local = ctx.shared_alloc::<u32>(radix);
                    for i in start..end {
                        let bits = if first {
                            ctx.ld(&input, i).to_ordered()
                        } else {
                            ctx.ld(&sb, i)
                        };
                        local[digit_of::<u32>(bits, pass as u32, b) as usize] += 1;
                        ctx.ops(4);
                        let _ = &si;
                    }
                    for (d, &c) in local.iter().enumerate() {
                        if c != 0 {
                            ctx.atomic_add(&hist, d, c);
                        }
                    }
                    ctx.ops(radix as u64);
                })?;
            }

            // Kernel 2: inclusive prefix sum (one block).
            {
                let (hist, psum) = (hist.clone(), psum.clone());
                let width = digit_width_of::<u32>(pass as u32, b);
                let contract = KernelContract::new("prefix_sum")
                    .reads(&hist, Footprint::fixed(0, 1 << width))
                    .writes(&psum, Footprint::fixed(0, 1 << width))
                    .requires_grid_at_most(1);
                gpu.try_launch_checked(&contract, LaunchConfig::grid_1d(1, 256), move |ctx| {
                    let mut acc = 0u32;
                    for d in 0..(1usize << width) {
                        acc += ctx.ld(&hist, d);
                        ctx.st(&psum, d, acc);
                    }
                    ctx.ops(2 << width);
                })?;
            }

            // Kernel 3: find the target digit (one block).
            {
                let (psum, ctrl) = (psum.clone(), ctrl.clone());
                let width = digit_width_of::<u32>(pass as u32, b);
                let contract = KernelContract::new("find_target_digit")
                    .reads(&psum, Footprint::fixed(0, 1 << width))
                    .coordinates(&ctrl, Footprint::fixed(0, CTRL_LEN))
                    .requires_grid_at_most(1);
                gpu.try_launch_checked(&contract, LaunchConfig::grid_1d(1, 256), move |ctx| {
                    let k_rem = ctx.ld(&ctrl, K_REM);
                    for d in 0..(1usize << width) {
                        if ctx.ld(&psum, d) >= k_rem {
                            let below = if d > 0 { ctx.ld(&psum, d - 1) } else { 0 };
                            ctx.st(&ctrl, TARGET, d as u32);
                            ctx.st(&ctrl, K_REM, k_rem - below);
                            ctx.st(&ctrl, BUF_CURSOR, 0);
                            break;
                        }
                    }
                    ctx.ops(2 << width);
                })?;
            }

            // Kernel 4: filter (second data sweep) — emit results,
            // buffer candidates; ties by rank on the last pass.
            let is_last = pass + 1 == passes;
            {
                let (sb, si) = (cand[src].0.clone(), cand[src].1.clone());
                let (db, di) = (cand[dst].0.clone(), cand[dst].1.clone());
                let input = input.clone();
                let (ctrl, hist) = (ctrl.clone(), hist.clone());
                let (out_val, out_idx) = (out_val.clone(), out_idx.clone());
                let contract = KernelContract::new("filter")
                    .reads(&input, Footprint::all())
                    .reads(&sb, Footprint::all())
                    .reads(&si, Footprint::all())
                    .reads(&hist, Footprint::fixed(0, radix))
                    .coordinates(&ctrl, Footprint::fixed(0, CTRL_LEN))
                    .writes_shared(&out_val, Footprint::all())
                    .writes_shared(&out_idx, Footprint::all())
                    .writes_shared(&db, Footprint::all())
                    .writes_shared(&di, Footprint::all());
                gpu.try_launch_checked(&contract, launch, move |ctx| {
                    let count = ctx.ld(&ctrl, COUNT) as usize;
                    let target = ctx.ld(&ctrl, TARGET);
                    let k_rem = ctx.ld(&ctrl, K_REM);
                    let start = ctx.block_idx * chunk;
                    let end = (start + chunk).min(count);
                    for i in start..end {
                        let (bits, idx) = if first {
                            (ctx.ld(&input, i).to_ordered(), i as u32)
                        } else {
                            (ctx.ld(&sb, i), ctx.ld(&si, i))
                        };
                        let d = digit_of::<u32>(bits, pass as u32, b);
                        ctx.ops(4);
                        if d < target {
                            let pos = ctx.atomic_add(&ctrl, OUT_CURSOR, 1) as usize;
                            ctx.st_scatter(&out_val, pos, f32::from_ordered(bits));
                            ctx.st_scatter(&out_idx, pos, idx);
                        } else if d == target {
                            if is_last {
                                let rank = ctx.atomic_add(&ctrl, TIE_CURSOR, 1);
                                if rank < k_rem {
                                    let pos = ctx.atomic_add(&ctrl, OUT_CURSOR, 1) as usize;
                                    ctx.st_scatter(&out_val, pos, f32::from_ordered(bits));
                                    ctx.st_scatter(&out_idx, pos, idx);
                                }
                            } else {
                                let pos = ctx.atomic_add(&ctrl, BUF_CURSOR, 1) as usize;
                                ctx.st_scatter(&db, pos, bits);
                                ctx.st_scatter(&di, pos, idx);
                            }
                        }
                    }
                    // The last finishing block publishes the next
                    // pass's candidate count (device-only bookkeeping;
                    // no host copy, unlike RadixSelect).
                    if ctx.mark_block_done() && !is_last {
                        let c = ctx.ld(&hist, target as usize);
                        ctx.st(&ctrl, COUNT, c);
                    }
                })?;
            }
        }

        Ok(TopKOutput::new(out_val, out_idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::air::AirTopK;
    use crate::verify::verify_topk;
    use datagen::{generate, Distribution};
    use gpu_sim::{DeviceSpec, Gpu};

    fn run_case(data: &[f32], k: usize) {
        let mut g = Gpu::new(DeviceSpec::a100());
        let input = g.htod("in", data);
        let out = UnfusedRadix::default().select(&mut g, &input, k);
        verify_topk(data, k, &out.values.to_vec(), &out.indices.to_vec())
            .unwrap_or_else(|e| panic!("UnfusedRadix failed: {e} (n={}, k={k})", data.len()));
    }

    #[test]
    fn correct_on_all_distributions() {
        for dist in Distribution::benchmark_set() {
            let data = generate(dist, 30_000, 3);
            for k in [1usize, 100, 2048, 29_999, 30_000] {
                run_case(&data, k);
            }
        }
    }

    #[test]
    fn ties_and_identical() {
        run_case(&vec![1.25f32; 4096], 777);
        let mut data = vec![2.0f32; 5000];
        data.extend(vec![1.0f32; 5000]);
        run_case(&data, 7500);
    }

    #[test]
    fn launches_four_kernels_per_pass_like_figure_2() {
        let mut g = Gpu::new(DeviceSpec::a100());
        let data = generate(Distribution::Uniform, 100_000, 1);
        let input = g.htod("in", &data);
        g.reset_profile();
        let _ = UnfusedRadix::default().select(&mut g, &input, 1000);
        // 3 passes (b = 11) x 4 kernels = 12 launches; with b = 8 it
        // would be Fig. 2's 16.
        assert_eq!(g.timeline().kernel_count(), 12);
        // Device-only: still no PCIe traffic.
        assert_eq!(g.timeline().memcpy_us(), 0.0);
    }

    #[test]
    fn fusion_ablation_air_wins_on_traffic_and_launches() {
        // §3.1's two claims, isolated from host-sync effects: fusion
        // reduces kernel launches ~3-4x and data loading toward the
        // 8N -> 5N bound.
        let data = generate(Distribution::Uniform, 1 << 20, 9);
        let k = 2048;
        let run = |alg: &dyn TopKAlgorithm| {
            let mut g = Gpu::new(DeviceSpec::a100());
            let input = g.htod("in", &data);
            g.reset_profile();
            let out = alg.select(&mut g, &input, k);
            verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
            (
                g.timeline().kernel_count(),
                g.reports().iter().map(|r| r.stats.bytes_read).sum::<u64>(),
                g.elapsed_us(),
            )
        };
        let (k_unfused, rd_unfused, t_unfused) = run(&UnfusedRadix::default());
        let (k_air, rd_air, t_air) = run(&AirTopK::default());
        assert!(k_air < k_unfused, "{k_air} vs {k_unfused} launches");
        assert!(
            rd_air < rd_unfused,
            "fused reads {rd_air} must undercut unfused {rd_unfused}"
        );
        assert!(t_air < t_unfused, "{t_air} vs {t_unfused} us");
    }

    #[test]
    fn eight_bit_digits_reproduce_figure_2_exactly() {
        let mut g = Gpu::new(DeviceSpec::a100());
        let data = generate(Distribution::Uniform, 50_000, 1);
        let input = g.htod("in", &data);
        g.reset_profile();
        let out = UnfusedRadix { bits_per_pass: 8 }.select(&mut g, &input, 100);
        verify_topk(&data, 100, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
        assert_eq!(g.timeline().kernel_count(), 16, "Fig. 2's 16 kernel calls");
    }
}
