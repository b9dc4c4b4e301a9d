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
//! host-round-trip cost. It shares the pass machine's control slots,
//! MSB-first digits and result sink ([`crate::radix`], DESIGN.md §16).

use crate::error::TopKError;
use crate::keys::{num_passes_of, RadixKey};
use crate::matrix::Rows;
use crate::radix::{Layout, Sink, Window, K_REM, OUT_CURSOR, SRC_COUNT, TIE_CURSOR};
use crate::scratch::ScratchGuard;
use crate::traits::{check_args, Category, TopKAlgorithm, TopKOutput};
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};

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
        ScratchGuard::scope(gpu, |gpu, ws, outs| {
            self.run_passes(gpu, ws, outs, input, k)
        })
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
        // The pass machine's control slots for one problem, with one
        // TARGET and one BUF_CURSOR slot that every pass reuses.
        let lay = Layout::new(1, false);

        let ctrl = ws.alloc::<u32>(gpu, "ur_ctrl", lay.stride)?;
        ctrl.set(K_REM, k as u32);
        ctrl.set(SRC_COUNT, n as u32);
        // The output and tie cursors are only ever advanced by device
        // atomics; give them defined initial values (initcheck flags
        // the read-modify-write of a never-written word otherwise).
        ctrl.set(OUT_CURSOR, 0);
        ctrl.set(TIE_CURSOR, 0);
        let hist = ws.alloc::<u32>(gpu, "ur_hist", radix)?;
        let psum = ws.alloc::<u32>(gpu, "ur_psum", radix)?;
        // Classic candidate buffers: always used, sized N (§3.2 calls
        // out the 2× footprint this costs).
        let mut cand = Vec::new();
        for i in 0..2 {
            let val = ws.alloc::<f32>(gpu, &format!("ur_cand_val{i}"), n)?;
            cand.push((val, ws.alloc::<u32>(gpu, &format!("ur_cand_idx{i}"), n)?));
        }
        let out_val = outs.alloc::<f32>(gpu, "ur_out_val", k)?;
        let out_idx = outs.alloc::<u32>(gpu, "ur_out_idx", k)?;

        let chunk = 256 * 16;
        let launch = LaunchConfig::for_elements(n, 256, 16, usize::MAX);
        let one_block = LaunchConfig::grid_1d(1, 256);
        let ctrl_all = Footprint::fixed(0, lay.stride);

        for pass in 0..passes {
            let first = pass == 0;
            let ((sv, si), (dv, di)) = (&cand[(pass + 1) % 2], &cand[pass % 2]);
            let win = Window::msb::<u32>(pass, b);
            let width = 1usize << win.width;

            // Kernel 1: compute histogram (first data sweep).
            hist.fill(0);
            let contract = KernelContract::new("compute_histogram")
                .reads(&ctrl, ctrl_all)
                .reads(input, Footprint::all())
                .reads(sv, Footprint::all())
                .atomics(&hist, Footprint::fixed(0, radix))
                .uses_shared_mem(radix * 4);
            gpu.try_launch_checked(&contract, launch, |ctx| {
                let count = ctx.ld(&ctrl, SRC_COUNT) as usize;
                let start = ctx.block_idx * chunk;
                let tile = ctx.ld_tile(
                    if first { input } else { sv },
                    start,
                    (start + chunk).min(count),
                );
                let mut local = ctx.shared_alloc::<u32>(radix);
                for v in tile {
                    local[win.digit(v.to_ordered())] += 1;
                }
                ctx.ops(4 * tile.len() as u64);
                for (d, &c) in local.iter().enumerate() {
                    if c != 0 {
                        ctx.atomic_add(&hist, d, c);
                    }
                }
                ctx.ops(radix as u64);
            })?;

            // Kernel 2: inclusive prefix sum (one block).
            let contract = KernelContract::new("prefix_sum")
                .reads(&hist, Footprint::fixed(0, width))
                .writes(&psum, Footprint::fixed(0, width))
                .requires_grid_at_most(1);
            gpu.try_launch_checked(&contract, one_block, |ctx| {
                let mut acc = 0u32;
                for (d, h) in ctx.ld_tile(&hist, 0, width).iter().enumerate() {
                    acc += h;
                    ctx.st(&psum, d, acc);
                }
                ctx.ops(2 * width as u64);
            })?;

            // Kernel 3: find the target digit (one block).
            let contract = KernelContract::new("find_target_digit")
                .reads(&psum, Footprint::fixed(0, width))
                .coordinates(&ctrl, ctrl_all)
                .requires_grid_at_most(1);
            gpu.try_launch_checked(&contract, one_block, |ctx| {
                let k_rem = ctx.ld(&ctrl, K_REM);
                for d in 0..width {
                    if ctx.ld(&psum, d) >= k_rem {
                        let below = if d > 0 { ctx.ld(&psum, d - 1) } else { 0 };
                        ctx.st(&ctrl, lay.target, d as u32);
                        ctx.st(&ctrl, K_REM, k_rem - below);
                        ctx.st(&ctrl, lay.buf_cursor, 0);
                        break;
                    }
                }
                ctx.ops(2 * width as u64);
            })?;

            // Kernel 4: filter (second data sweep) — emit results,
            // buffer candidates; ties by rank on the last pass.
            let is_last = pass + 1 == passes;
            let contract = KernelContract::new("filter")
                .reads(input, Footprint::all())
                .reads(sv, Footprint::all())
                .reads(si, Footprint::all())
                .reads(&hist, Footprint::fixed(0, radix))
                .coordinates(&ctrl, ctrl_all)
                .writes_shared(&out_val, Footprint::all())
                .writes_shared(&out_idx, Footprint::all())
                .writes_shared(dv, Footprint::all())
                .writes_shared(di, Footprint::all());
            gpu.try_launch_checked(&contract, launch, |ctx| {
                let count = ctx.ld(&ctrl, SRC_COUNT) as usize;
                let target = ctx.ld(&ctrl, lay.target);
                let k_rem = ctx.ld(&ctrl, K_REM);
                let sink = Sink {
                    ctrl: &ctrl,
                    cb: 0,
                    out_val: &out_val,
                    out_idx: &out_idx,
                    base: 0,
                    k,
                };
                let start = ctx.block_idx * chunk;
                let end = (start + chunk).min(count);
                let buffered = (!first).then_some((sv, si, 0));
                let items =
                    Rows::Slices(std::slice::from_ref(input)).source(ctx, 0, start, end, buffered);
                for (v, idx) in items {
                    let d = win.digit(v.to_ordered()) as u32;
                    if d < target {
                        sink.emit(ctx, v, idx);
                    } else if d == target && is_last {
                        sink.admit_tie(ctx, k_rem, v, idx);
                    } else if d == target {
                        let pos = ctx.atomic_add(&ctrl, lay.buf_cursor, 1) as usize;
                        ctx.st_scatter(dv, pos, v);
                        ctx.st_scatter(di, pos, idx);
                    }
                }
                ctx.ops(4 * (end.max(start) - start) as u64);
                // The last finishing block publishes the next pass's
                // candidate count (device-only bookkeeping; no host
                // copy, unlike RadixSelect).
                if ctx.mark_block_done() && !is_last {
                    let c = ctx.ld(&hist, target as usize);
                    ctx.st(&ctrl, SRC_COUNT, c);
                }
            })?;
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
