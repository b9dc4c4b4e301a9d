//! AIR Top-K: Adaptive and Iteration-fused Radix top-K (§3 of the
//! paper, Algorithm 1).
//!
//! The algorithm processes keys most-significant-digit first, one
//! radix pass per kernel. Three ideas distinguish it from classic
//! RadixSelect:
//!
//! 1. **Iteration fusion (§3.1).** Each `iteration_fused_kernel` does
//!    the *previous* pass's filtering and the *current* pass's
//!    histogram in one data sweep, and the last thread block to finish
//!    computes the prefix sum and target digit on-device. The host
//!    only launches `⌈32/b⌉` fused kernels plus one `last_filter_kernel`
//!    — no intermediate device→host copies, no synchronisation
//!    (compare Fig. 2's 16 launches to Fig. 3's 4).
//! 2. **Adaptive buffering (§3.2).** Writing surviving candidates to a
//!    compact buffer pays `4C` memory accesses to save `N` reads next
//!    pass; under radix-adversarial data `C ≈ N` and buffering is pure
//!    waste. The last block therefore sets a per-pass flag: store
//!    candidates only when `C·α < N`, otherwise the next pass re-reads
//!    the original input and re-applies the accumulated digit filter.
//!    This also caps the candidate buffer at `N/α` elements.
//! 3. **Early stopping (§3.3).** When the updated `K` equals the
//!    candidate count, every remaining candidate is a result; the next
//!    kernel just copies them out and all later kernels return
//!    immediately.
//!
//! Batched problems are solved by one set of launches: blocks are
//! striped `batch × blocks_per_problem`, with per-problem control
//! blocks, histograms and "last block" counters — this is why AIR
//! Top-K's batch-100 advantage over loop-over-queries baselines is so
//! large (Table 2).

use crate::error::TopKError;
use crate::keys::{digit_of, digit_width_of, num_passes_of, prefix_of, RadixKey};
use crate::matrix::{split_rows, Candidates, Rows};
use crate::obs;
use crate::scratch::ScratchGuard;
use crate::traits::{check_args, Category, TopKAlgorithm, TopKOutput, TypedOutput};
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};
use std::sync::atomic::Ordering::Relaxed;

/// Tuning knobs for [`AirTopK`]. Defaults follow the paper: 11-bit
/// digits (3 passes over 32-bit keys), α = 128 (§5: "determined
/// empirically"), adaptive buffering and early stopping enabled.
#[derive(Debug, Clone)]
pub struct AirConfig {
    /// Digit width in bits (8 or 11 are the sensible choices; §3.1
    /// explains why on-device prefix sums make 11 affordable).
    pub bits_per_pass: u32,
    /// Buffering threshold α: candidates are buffered only when
    /// `C·α < N`. Must be ≥ 4 (the information-theoretic lower bound
    /// derived in §3.2) for the buffering to ever pay off.
    pub alpha: usize,
    /// Enable the adaptive strategy (§3.2). When false, candidates are
    /// always buffered, like classic radix top-K — the ablation of
    /// Fig. 9.
    pub adaptive: bool,
    /// Enable early stopping (§3.3) — the ablation of Fig. 10.
    pub early_stop: bool,
    /// Threads per block.
    pub block_dim: usize,
    /// Input elements each thread processes per pass.
    pub items_per_thread: usize,
}

impl Default for AirConfig {
    fn default() -> Self {
        AirConfig {
            bits_per_pass: 11,
            alpha: 128,
            adaptive: true,
            early_stop: true,
            block_dim: 512,
            items_per_thread: 16,
        }
    }
}

// Control-block slot offsets (per problem).
const K_REM: usize = 0; // remaining K
const SRC_BUFFERED: usize = 1; // current pass reads the candidate buffer
const SRC_COUNT: usize = 2; // element count in that buffer
const STORE_CUR: usize = 3; // current pass writes candidates
const EARLY: usize = 4; // current pass outputs all candidates (early stop)
const FINISHED: usize = 5; // all results emitted; later kernels no-op
const OUT_CURSOR: usize = 6; // write position in the output lists
const TIE_CURSOR: usize = 7; // rank counter for kth-value ties
const CTRL_FIXED: usize = 8;
// Then per pass: TARGET[p], BUF_CURSOR[p] (the accumulated kth
// prefixes live in a separate u64 buffer so 64-bit keys fit).

/// Problems at or below this size take the one-block fast path: the
/// whole multi-pass selection fused into a single kernel, one thread
/// block per problem (RAFT's `radix_topk_one_block_kernel`). A block
/// can keep all candidates in shared memory (8 bytes each) and
/// synchronise between passes internally, so the N-element input is
/// read exactly once and only one launch is paid.
pub const ONE_BLOCK_THRESHOLD: usize = 8192;

/// AIR Top-K (Adaptive and Iteration-fused Radix top-K), §3.
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec};
/// use topk_core::{AirTopK, TopKAlgorithm, verify_topk};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let data: Vec<f32> = (0..50_000).map(|i| ((i * 37) % 9973) as f32).collect();
/// let input = gpu.htod("scores", &data);
///
/// let out = AirTopK::default().select(&mut gpu, &input, 25);
/// verify_topk(&data, 25, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
/// // Four launches (3 fused passes + last filter), zero PCIe traffic.
/// assert_eq!(gpu.timeline().kernel_count() > 0, true);
/// ```
#[derive(Debug, Clone)]
pub struct AirTopK {
    cfg: AirConfig,
}

impl Default for AirTopK {
    fn default() -> Self {
        AirTopK::new(AirConfig::default())
    }
}

impl AirTopK {
    /// Create with explicit configuration.
    pub fn new(cfg: AirConfig) -> Self {
        assert!(
            (1..=16).contains(&cfg.bits_per_pass),
            "bits_per_pass must be in 1..=16"
        );
        assert!(cfg.alpha >= 4, "alpha below its lower bound of 4 (§3.2)");
        AirTopK { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AirConfig {
        &self.cfg
    }

    /// Solve `inputs.len()` same-sized problems with one set of fused
    /// launches. All problems share N and K.
    pub fn run_batch(
        &self,
        gpu: &mut Gpu,
        inputs: &[DeviceBuffer<f32>],
        k: usize,
    ) -> Result<Vec<TopKOutput>, TopKError> {
        Ok(self
            .run_batch_typed(gpu, inputs, k)?
            .into_iter()
            .map(|(values, indices)| TopKOutput::new(values, indices))
            .collect())
    }

    /// Generic-key batched selection: any [`RadixKey`] type (`f32`,
    /// `u32`, `i32`) works — the algorithm operates on order-preserving
    /// bits throughout, like RAFT's dtype-templated `select_k`.
    /// Returns `(values, indices)` buffers per problem.
    pub fn run_batch_typed<T: RadixKey>(
        &self,
        gpu: &mut Gpu,
        inputs: &[DeviceBuffer<T>],
        k: usize,
    ) -> Result<Vec<TypedOutput<T>>, TopKError> {
        let Some(first) = inputs.first() else {
            return Err(TopKError::UnsupportedShape {
                algorithm: self.name(),
                detail: "empty batch".into(),
            });
        };
        let n = first.len();
        if let Some(bad) = inputs.iter().find(|b| b.len() != n) {
            return Err(TopKError::UnsupportedShape {
                algorithm: self.name(),
                detail: format!(
                    "batched inputs must share one length, got {n} and {}",
                    bad.len()
                ),
            });
        }
        let packed = self.run_rows(gpu, Rows::Slices(inputs), k)?;
        Ok(split_rows(
            packed,
            inputs.len(),
            ("air_values", "air_indices"),
        ))
    }

    /// Matrix-shaped batched selection (RAFT `matrix::select_k`
    /// parity): input is one contiguous `rows × cols` device matrix;
    /// outputs come back as packed `rows × k` matrices with no per-row
    /// reshaping.
    pub fn run_matrix_typed<T: RadixKey>(
        &self,
        gpu: &mut Gpu,
        input: &crate::matrix::DeviceMatrix<T>,
        k: usize,
    ) -> Result<
        (
            crate::matrix::DeviceMatrix<T>,
            crate::matrix::DeviceMatrix<u32>,
        ),
        TopKError,
    > {
        let rows = input.rows();
        if rows < 1 {
            return Err(TopKError::UnsupportedShape {
                algorithm: self.name(),
                detail: "empty matrix".into(),
            });
        }
        let (out_val, out_idx) = self.run_rows(gpu, Rows::Matrix(input), k)?;
        let width = out_val.len() / rows;
        Ok((
            crate::matrix::DeviceMatrix::from_buffer(out_val, rows, width),
            crate::matrix::DeviceMatrix::from_buffer(out_idx, rows, width),
        ))
    }

    /// The K-th smallest value itself — the selection *threshold* —
    /// without materialising the index list on the host. Several of
    /// the paper's motivating applications only need this: Deep
    /// Gradient Compression (§1) keeps every gradient whose magnitude
    /// clears the top-0.1% threshold. Runs the normal selection, then
    /// a tiny on-device max-reduction over the K winners (in the
    /// ordered-bit domain) and a single-word copy back.
    pub fn kth_value_typed<T>(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<T>,
        k: usize,
    ) -> Result<T, TopKError>
    where
        T: RadixKey,
        T::Ordered: gpu_sim::DeviceScalar,
    {
        let (vals, idx) = self.run_rows(gpu, Rows::Slices(std::slice::from_ref(input)), k)?;
        let mut ws = ScratchGuard::new();
        ws.adopt(&vals);
        ws.adopt(&idx);
        let acc = match ws.alloc::<T::Ordered>(gpu, "kth_acc", 1) {
            Ok(b) => b,
            Err(e) => {
                ws.release(gpu);
                return Err(e);
            }
        };
        acc.set(0, vals.get(0).to_ordered()); // seed with one winner
        let launched = {
            let vals = vals.clone();
            let acc = acc.clone();
            let width = vals.len();
            let contract = KernelContract::new("kth_value_reduce")
                .reads(&vals, Footprint::tiles(256 * 4))
                .atomics(&acc, Footprint::elem(0));
            gpu.try_launch_checked(
                &contract,
                LaunchConfig::for_elements(width, 256, 4, usize::MAX),
                move |ctx| {
                    let chunk = 256 * 4;
                    let start = ctx.block_idx * chunk;
                    let tile = ctx.ld_tile(&vals, start, (start + chunk).min(width));
                    let Some(m) = tile.iter().map(|v| v.to_ordered()).max() else {
                        return;
                    };
                    ctx.ops(tile.len() as u64 - 1);
                    // Unsigned raw max on ordered bits == value max.
                    ctx.atomic_max_raw(&acc, 0, m);
                },
            )
        };
        if let Err(e) = launched {
            ws.release(gpu);
            return Err(e.into());
        }
        let kth = T::from_ordered(gpu.dtoh(&acc)[0]);
        ws.release(gpu);
        Ok(kth)
    }

    /// [`AirTopK::kth_value_typed`] for `f32`.
    pub fn kth_value(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        k: usize,
    ) -> Result<f32, TopKError> {
        self.kth_value_typed(gpu, input, k)
    }

    /// The shared implementation: outputs are packed row-major
    /// `batch × k` buffers.
    pub(crate) fn run_rows<T: RadixKey>(
        &self,
        gpu: &mut Gpu,
        inputs: Rows<'_, T>,
        k: usize,
    ) -> Result<(DeviceBuffer<T>, DeviceBuffer<u32>), TopKError> {
        let n = inputs.n();
        check_args(self, n, k)?;

        if k == n {
            // Trivial selection (§3.3's observation applied at the API
            // boundary): every element is a result, so a single copy
            // kernel suffices. The host knows K and N, no device work
            // is needed to decide this.
            return Self::run_batch_copy_all(gpu, inputs);
        }
        if n <= ONE_BLOCK_THRESHOLD {
            return self.run_batch_one_block(gpu, inputs, k);
        }

        // Workspace is tracked by guards so every `?` below releases
        // the simulated allocations instead of leaking them into the
        // device's `mem_allocated` accounting.
        let mut ws = ScratchGuard::new();
        let mut outs = ScratchGuard::new();
        let r = self.run_rows_multi_pass(gpu, &mut ws, &mut outs, inputs, k);
        ws.release(gpu);
        if r.is_err() {
            outs.release(gpu);
        }
        r
    }

    /// The general multi-pass path behind [`AirTopK::run_rows`]:
    /// allocations go through the caller's guards, so any error exit
    /// stays leak-free.
    fn run_rows_multi_pass<T: RadixKey>(
        &self,
        gpu: &mut Gpu,
        ws: &mut ScratchGuard,
        outs: &mut ScratchGuard,
        inputs: Rows<'_, T>,
        k: usize,
    ) -> Result<(DeviceBuffer<T>, DeviceBuffer<u32>), TopKError> {
        let n = inputs.n();
        let b = self.cfg.bits_per_pass;
        let passes = num_passes_of::<T::Ordered>(b) as usize;
        let radix = 1usize << b;
        let batch = inputs.batch();
        let ctrl_stride = CTRL_FIXED + 2 * passes;
        let target_off = CTRL_FIXED;
        let bufcur_off = CTRL_FIXED + passes;

        let chunk = self.cfg.block_dim * self.cfg.items_per_thread;
        let blocks_per_problem = n.div_ceil(chunk).max(1);
        let grid = batch * blocks_per_problem;
        let launch = LaunchConfig::grid_1d(grid, self.cfg.block_dim);

        // Candidate-buffer capacity per problem: N/α when adaptive
        // (§3.2's memory-footprint guarantee), N otherwise.
        let cap = if self.cfg.adaptive {
            (n / self.cfg.alpha).max(1)
        } else {
            n
        };

        // Workspace.
        let ctrl = ws.alloc::<u32>(gpu, "air_ctrl", batch * ctrl_stride)?;
        // Accumulated kth-prefix per pass; u64 so 64-bit keys fit.
        let prefixes = ws.alloc::<u64>(gpu, "air_prefixes", batch * passes)?;
        let hist = ws.alloc::<u32>(gpu, "air_hist", batch * passes * radix)?;
        let done = ws.alloc::<u32>(gpu, "air_done", batch * passes)?;
        let buf_val = [
            ws.alloc::<T>(gpu, "air_buf_val0", batch * cap)?,
            ws.alloc::<T>(gpu, "air_buf_val1", batch * cap)?,
        ];
        let buf_idx = [
            ws.alloc::<u32>(gpu, "air_buf_idx0", batch * cap)?,
            ws.alloc::<u32>(gpu, "air_buf_idx1", batch * cap)?,
        ];
        let out_val = outs.alloc::<T>(gpu, "air_out_val", batch * k)?;
        let out_idx = outs.alloc::<u32>(gpu, "air_out_idx", batch * k)?;

        // No init kernel: K and N are launch constants baked into the
        // kernels (as RAFT does). Control words, histograms, and done
        // counters start from an explicit host memset (cudaMemsetAsync
        // territory — allocation contents are garbage on a real
        // device). The remaining-K control slot only becomes live once
        // pass 0's last block writes it.
        ctrl.fill(0);
        hist.fill(0);
        done.fill(0);
        let adaptive = self.cfg.adaptive;
        let early_stop = self.cfg.early_stop;
        let alpha = self.cfg.alpha;

        // ---- the fused passes --------------------------------------
        for pass in 0..passes {
            let kernel = |ctx: &mut gpu_sim::BlockCtx| {
                let prob = ctx.block_idx / blocks_per_problem;
                let blk = ctx.block_idx % blocks_per_problem;
                let cb = prob * ctrl_stride;

                if ctx.ld(&ctrl, cb + FINISHED) != 0 {
                    return;
                }

                let early = pass > 0 && ctx.ld(&ctrl, cb + EARLY) != 0;
                let src_is_buf = pass > 0 && ctx.ld(&ctrl, cb + SRC_BUFFERED) != 0;
                let n_src = if src_is_buf {
                    ctx.ld(&ctrl, cb + SRC_COUNT) as usize
                } else {
                    n
                };
                let store = !early && pass > 0 && ctx.ld(&ctrl, cb + STORE_CUR) != 0;
                let read_sel = (pass + 1) % 2; // buffer written by pass-1
                let write_sel = pass % 2;

                // Previous pass's target digit and the accumulated
                // prefix through pass-2 (for re-filtering from L).
                let (target_prev, prefix_prev2, wid_prev2) = if pass > 0 {
                    let t = ctx.ld(&ctrl, cb + target_off + pass - 1);
                    if pass >= 2 {
                        let w: u32 = (0..pass as u32 - 1)
                            .map(|q| digit_width_of::<T::Ordered>(q, b))
                            .sum();
                        (t, ctx.ld(&prefixes, prob * passes + pass - 2), w)
                    } else {
                        (t, 0, 0)
                    }
                } else {
                    (0, 0, 0)
                };

                let start = blk * chunk;
                let end = (start + chunk).min(n_src);

                let mut local_hist: Vec<u32> = if pass == 0 || !early {
                    ctx.shared_alloc::<u32>(radix)
                } else {
                    Vec::new()
                };

                // One loop per pass kind, so the pass-invariant flags
                // stay out of the per-element work.
                let ops = if pass == 0 {
                    // Histogram of the first digit only.
                    let row = inputs.tile(ctx, prob, start, end);
                    for v in row {
                        local_hist[digit_of::<T::Ordered>(v.to_ordered(), 0, b) as usize] += 1;
                    }
                    // load index math + ordered-bit transform, then
                    // digit extract + shared-memory histogram
                    8 * row.len() as u64
                } else {
                    let filter = FusedFilter {
                        ctrl: &ctrl,
                        out_val: &out_val,
                        out_idx: &out_idx,
                        buf_val: &buf_val[write_sel],
                        buf_idx: &buf_idx[write_sel],
                        out_cursor: cb + OUT_CURSOR,
                        buf_cursor: cb + bufcur_off + pass,
                        out_base: prob * k,
                        buf_base: prob * cap,
                        k,
                        cap,
                        pass: pass as u32,
                        bits_per_pass: b,
                        target_prev,
                        // Input elements that diverged from the kth
                        // prefix in an earlier pass were output or
                        // discarded there already.
                        settled: (!src_is_buf && pass >= 2).then_some((prefix_prev2, wid_prev2)),
                    };
                    let buffered =
                        src_is_buf.then(|| (&buf_val[read_sel], &buf_idx[read_sel], prob * cap));
                    let hist = &mut local_hist;
                    match inputs.source(ctx, prob, start, end, buffered) {
                        Candidates::Buffered(items) => filter.sweep(ctx, items, hist, early, store),
                        Candidates::Input(items) => filter.sweep(ctx, items, hist, early, store),
                    }
                };
                ctx.ops(ops);

                // Flush the block-local histogram to the global one.
                if !local_hist.is_empty() {
                    let hbase = (prob * passes + pass) * radix;
                    for (d, &c) in local_hist.iter().enumerate() {
                        if c != 0 {
                            ctx.atomic_add(&hist, hbase + d, c);
                        }
                    }
                    ctx.ops(radix as u64);
                }

                // Last finishing block of this problem computes the
                // prefix sum and the target digit (Algorithm 1 lines
                // 23-28) — entirely on-device.
                let prev = ctx.atomic_add_sync(&done, prob * passes + pass, 1);
                if prev + 1 == blocks_per_problem as u32 {
                    // Observability hook: one event per (problem, pass)
                    // — the per-iteration signal the §3.2/§3.3 ablation
                    // figures are built from, now counted at runtime.
                    obs::counters().air_passes.fetch_add(1, Relaxed);
                    if early {
                        ctx.st(&ctrl, cb + FINISHED, 1);
                        ctx.st(&ctrl, cb + EARLY, 0);
                        return;
                    }
                    let k_rem = if pass == 0 {
                        k as u32 // launch constant; ctrl not yet live
                    } else {
                        ctx.ld(&ctrl, cb + K_REM)
                    };
                    let hbase = (prob * passes + pass) * radix;
                    let width = digit_width_of::<T::Ordered>(pass as u32, b);
                    let r_pass = 1usize << width;
                    let mut acc: u32 = 0;
                    let mut target: u32 = 0;
                    let mut psum_before: u32 = 0;
                    let mut e_next: u32 = 0;
                    for d in 0..r_pass {
                        let h = ctx.ld(&hist, hbase + d);
                        if acc + h >= k_rem {
                            target = d as u32;
                            psum_before = acc;
                            e_next = h;
                            break;
                        }
                        acc += h;
                    }
                    ctx.ops(2 * r_pass as u64);

                    let k_next = k_rem - psum_before;
                    ctx.st(&ctrl, cb + target_off + pass, target);
                    let pfx_prev = if pass > 0 {
                        ctx.ld(&prefixes, prob * passes + pass - 1)
                    } else {
                        0
                    };
                    ctx.st(
                        &prefixes,
                        prob * passes + pass,
                        (pfx_prev << width) | target as u64,
                    );
                    ctx.st(&ctrl, cb + K_REM, k_next);

                    // Flags for the next kernel (Algorithm 1 line 7 and
                    // the §3.2 storing rule).
                    ctx.st(&ctrl, cb + SRC_BUFFERED, store as u32);
                    if store {
                        let cnt = ctx.ld(&ctrl, cb + bufcur_off + pass);
                        ctx.st(&ctrl, cb + SRC_COUNT, cnt);
                    }
                    let is_early = early_stop && k_next == e_next;
                    let store_next =
                        !is_early && (!adaptive || (e_next as usize).saturating_mul(alpha) < n);
                    ctx.st(&ctrl, cb + STORE_CUR, store_next as u32);
                    ctx.st(&ctrl, cb + EARLY, is_early as u32);
                    ctx.ops(8);
                    if is_early {
                        obs::counters().air_early_stops.fetch_add(1, Relaxed);
                    } else if store_next {
                        obs::counters().air_buffer_writes.fetch_add(1, Relaxed);
                    } else if adaptive {
                        obs::counters().air_adaptive_skips.fetch_add(1, Relaxed);
                    }
                }
            };
            let (read_sel, write_sel) = ((pass + 1) % 2, pass % 2);
            let contract = inputs
                .declare_reads(KernelContract::new("iteration_fused_kernel"))
                .coordinates(&ctrl, Footprint::per_group(blocks_per_problem, ctrl_stride))
                .coordinates(&prefixes, Footprint::per_group(blocks_per_problem, passes))
                .coordinates(
                    &hist,
                    Footprint::group_slice(blocks_per_problem, pass * radix, passes * radix, radix),
                )
                .atomics(
                    &done,
                    Footprint::group_slice(blocks_per_problem, pass, passes, 1),
                )
                .reads(
                    &buf_val[read_sel],
                    Footprint::per_group(blocks_per_problem, cap),
                )
                .reads(
                    &buf_idx[read_sel],
                    Footprint::per_group(blocks_per_problem, cap),
                )
                .writes_shared(
                    &buf_val[write_sel],
                    Footprint::per_group(blocks_per_problem, cap),
                )
                .writes_shared(
                    &buf_idx[write_sel],
                    Footprint::per_group(blocks_per_problem, cap),
                )
                .writes_shared(&out_val, Footprint::per_group(blocks_per_problem, k))
                .writes_shared(&out_idx, Footprint::per_group(blocks_per_problem, k))
                .uses_shared_mem(radix * 4);
            gpu.try_launch_checked(&contract, launch, kernel)?;
        }

        // ---- the last filter (§2.3's final "Filtering" step) --------
        let last = passes - 1;
        let contract = inputs
            .declare_reads(KernelContract::new("last_filter_kernel"))
            .coordinates(&ctrl, Footprint::per_group(blocks_per_problem, ctrl_stride))
            .reads(&prefixes, Footprint::per_group(blocks_per_problem, passes))
            .reads(
                &buf_val[last % 2],
                Footprint::per_group(blocks_per_problem, cap),
            )
            .reads(
                &buf_idx[last % 2],
                Footprint::per_group(blocks_per_problem, cap),
            )
            .writes_shared(&out_val, Footprint::per_group(blocks_per_problem, k))
            .writes_shared(&out_idx, Footprint::per_group(blocks_per_problem, k));
        gpu.try_launch_checked(&contract, launch, |ctx| {
            let prob = ctx.block_idx / blocks_per_problem;
            let blk = ctx.block_idx % blocks_per_problem;
            let cb = prob * ctrl_stride;

            if ctx.ld(&ctrl, cb + FINISHED) != 0 {
                return;
            }

            let src_is_buf = ctx.ld(&ctrl, cb + SRC_BUFFERED) != 0;
            let n_src = if src_is_buf {
                ctx.ld(&ctrl, cb + SRC_COUNT) as usize
            } else {
                n
            };
            let read_sel = last % 2; // buffer written by the last fused pass
            let target = ctx.ld(&ctrl, cb + target_off + last);
            let k_rem = ctx.ld(&ctrl, cb + K_REM);
            let (prefix_prev2, wid_prev2) = if last >= 1 {
                let w: u32 = (0..last as u32)
                    .map(|q| digit_width_of::<T::Ordered>(q, b))
                    .sum();
                (ctx.ld(&prefixes, prob * passes + last - 1), w)
            } else {
                (0, 0)
            };

            let start = blk * chunk;
            let end = (start + chunk).min(n_src);
            let buffered = src_is_buf.then(|| (&buf_val[read_sel], &buf_idx[read_sel], prob * cap));
            for (v, idx) in inputs.source(ctx, prob, start, end, buffered) {
                let bits = v.to_ordered();
                ctx.ops(3);
                if !src_is_buf
                    && last >= 1
                    && prefix_of::<T::Ordered>(bits, wid_prev2) != prefix_prev2
                {
                    ctx.ops(1);
                    continue;
                }
                let d = digit_of::<T::Ordered>(bits, last as u32, b);
                ctx.ops(2);
                if d < target {
                    let pos = ctx.atomic_add(&ctrl, cb + OUT_CURSOR, 1) as usize;
                    debug_assert!(pos < k);
                    ctx.st_scatter(&out_val, prob * k + pos, v);
                    ctx.st_scatter(&out_idx, prob * k + pos, idx);
                } else if d == target {
                    // Ties on the full key: admit the first k_rem by
                    // rank, mirroring RAFT's last_filter.
                    let rank = ctx.atomic_add(&ctrl, cb + TIE_CURSOR, 1);
                    if rank < k_rem {
                        let pos = ctx.atomic_add(&ctrl, cb + OUT_CURSOR, 1) as usize;
                        debug_assert!(pos < k);
                        ctx.st_scatter(&out_val, prob * k + pos, v);
                        ctx.st_scatter(&out_idx, prob * k + pos, idx);
                    }
                }
            }
        })?;

        // Workspace accounting is released by the caller's guard;
        // output buffers live on.
        Ok((out_val, out_idx))
    }
}

/// Per-block constants of one fused filter pass (`pass >= 1`): the
/// previous pass's target digit, and where results and buffered
/// candidates go (Algorithm 1 lines 14-22).
struct FusedFilter<'a, T: RadixKey> {
    ctrl: &'a DeviceBuffer<u32>,
    out_val: &'a DeviceBuffer<T>,
    out_idx: &'a DeviceBuffer<u32>,
    buf_val: &'a DeviceBuffer<T>,
    buf_idx: &'a DeviceBuffer<u32>,
    out_cursor: usize,
    buf_cursor: usize,
    out_base: usize,
    buf_base: usize,
    k: usize,
    cap: usize,
    pass: u32,
    bits_per_pass: u32,
    target_prev: u32,
    /// `(prefix, width)`: source elements whose leading `width` key
    /// bits differ from `prefix` were settled in an earlier pass and
    /// are skipped. `None` when every element of the source is live.
    settled: Option<(u64, u32)>,
}

impl<T: RadixKey> FusedFilter<'_, T> {
    /// Filter one block's share of the pass's source, given as its
    /// `(value, index)` items. Returns the compute ops the sweep costs.
    fn sweep<I>(
        &self,
        ctx: &mut gpu_sim::BlockCtx<'_>,
        items: I,
        hist: &mut [u32],
        early: bool,
        store: bool,
    ) -> u64
    where
        I: Iterator<Item = (T, u32)>,
    {
        match (early, store) {
            (true, _) => self.sweep_as::<true, false, I>(ctx, items, hist),
            (false, true) => self.sweep_as::<false, true, I>(ctx, items, hist),
            (false, false) => self.sweep_as::<false, false, I>(ctx, items, hist),
        }
    }

    #[inline(always)]
    fn sweep_as<const EARLY: bool, const STORE: bool, I>(
        &self,
        ctx: &mut gpu_sim::BlockCtx<'_>,
        items: I,
        hist: &mut [u32],
    ) -> u64
    where
        I: Iterator<Item = (T, u32)>,
    {
        let (b, pass, target) = (self.bits_per_pass, self.pass, self.target_prev);
        let (mut len, mut skipped, mut candidates) = (0u64, 0u64, 0u64);
        for (v, idx) in items {
            len += 1;
            let bits = v.to_ordered();
            if let Some((prefix, width)) = self.settled {
                if prefix_of::<T::Ordered>(bits, width) != prefix {
                    skipped += 1;
                    continue;
                }
            }
            let d_prev = digit_of::<T::Ordered>(bits, pass - 1, b);
            if EARLY {
                // Early-stop copy-out: committed results (d < target)
                // and every remaining candidate (d == target) are all
                // results.
                if d_prev <= target {
                    self.emit(ctx, v, idx);
                }
            } else if d_prev < target {
                // Guaranteed result (Algorithm 1 line 22).
                self.emit(ctx, v, idx);
            } else if d_prev == target {
                // Candidate: optionally buffer (lines 17-18), histogram
                // this pass's digit (lines 19-20).
                if STORE {
                    let pos = ctx.atomic_add(self.ctrl, self.buf_cursor, 1) as usize;
                    debug_assert!(pos < self.cap);
                    ctx.st_scatter(self.buf_val, self.buf_base + pos, v);
                    ctx.st_scatter(self.buf_idx, self.buf_base + pos, idx);
                }
                hist[digit_of::<T::Ordered>(bits, pass, b) as usize] += 1;
                candidates += 1;
            }
        }
        // Per element: load index math + ordered-bit transform (4);
        // then either the prefix check that settles it (1) or digit
        // extract + three-way filter branch logic (8); candidates add
        // the histogram update (2).
        4 * len + skipped + 8 * (len - skipped) + 2 * candidates
    }

    #[inline(always)]
    fn emit(&self, ctx: &mut gpu_sim::BlockCtx<'_>, v: T, idx: u32) {
        let pos = ctx.atomic_add(self.ctrl, self.out_cursor, 1) as usize;
        debug_assert!(pos < self.k);
        ctx.st_scatter(self.out_val, self.out_base + pos, v);
        ctx.st_scatter(self.out_idx, self.out_base + pos, idx);
    }
}

impl AirTopK {
    /// K = N: copy everything out with identity indices, one coalesced
    /// kernel for the whole batch.
    fn run_batch_copy_all<T: RadixKey>(
        gpu: &mut Gpu,
        inputs: Rows<'_, T>,
    ) -> Result<(DeviceBuffer<T>, DeviceBuffer<u32>), TopKError> {
        let n = inputs.n();
        let batch = inputs.batch();
        let mut outs = ScratchGuard::new();
        let out_val = outs.alloc::<T>(gpu, "air_out_val", batch * n)?;
        let out_idx = match outs.alloc::<u32>(gpu, "air_out_idx", batch * n) {
            Ok(b) => b,
            Err(e) => {
                outs.release(gpu);
                return Err(e);
            }
        };
        let chunk = 256 * 16;
        let bpp = n.div_ceil(chunk).max(1);
        let (ov, oi) = (out_val.clone(), out_idx.clone());
        // A problem's bpp blocks cover its n-slot row with clamped
        // chunks — group-affine, block-coordinated within the row.
        let contract = inputs
            .declare_reads(KernelContract::new("trivial_copy_kernel"))
            .writes_shared(&ov, Footprint::per_group(bpp, n))
            .writes_shared(&oi, Footprint::per_group(bpp, n));
        let launched = gpu.try_launch_checked(
            &contract,
            LaunchConfig::grid_1d(batch * bpp, 256),
            move |ctx| {
                let prob = ctx.block_idx / bpp;
                let blk = ctx.block_idx % bpp;
                let start = blk * chunk;
                let end = (start + chunk).min(n);
                for (i, v) in (start..end).zip(inputs.tile(ctx, prob, start, end)) {
                    ctx.st(&ov, prob * n + i, v);
                    ctx.st(&oi, prob * n + i, i as u32);
                }
                ctx.ops((end - start) as u64);
            },
        );
        if let Err(e) = launched {
            outs.release(gpu);
            return Err(e.into());
        }
        Ok((out_val, out_idx))
    }

    /// The one-block fast path (see [`ONE_BLOCK_THRESHOLD`]): one
    /// thread block per problem runs every radix pass internally,
    /// keeping candidates in shared memory. One launch for the whole
    /// batch, input read once, no candidate buffers in device memory.
    fn run_batch_one_block<T: RadixKey>(
        &self,
        gpu: &mut Gpu,
        inputs: Rows<'_, T>,
        k: usize,
    ) -> Result<(DeviceBuffer<T>, DeviceBuffer<u32>), TopKError> {
        let n = inputs.n();
        let b = self.cfg.bits_per_pass;
        let passes = num_passes_of::<T::Ordered>(b) as usize;
        let radix = 1usize << b;
        let batch = inputs.batch();
        let early_stop = self.cfg.early_stop;

        let mut outs = ScratchGuard::new();
        let out_val = outs.alloc::<T>(gpu, "air_out_val", batch * k)?;
        let out_idx = match outs.alloc::<u32>(gpu, "air_out_idx", batch * k) {
            Ok(b) => b,
            Err(e) => {
                outs.release(gpu);
                return Err(e);
            }
        };
        let block_dim = 256;

        let ov = out_val.clone();
        let oi = out_idx.clone();
        let contract = inputs
            .declare_reads(KernelContract::new("radix_topk_one_block_kernel"))
            .writes(&ov, Footprint::per_block(k))
            .writes(&oi, Footprint::per_block(k))
            .uses_shared_mem(n * (std::mem::size_of::<T::Ordered>() + 4));
        let launched = gpu.try_launch_checked(
            &contract,
            LaunchConfig::grid_1d(batch, block_dim),
            move |ctx| {
                let prob = ctx.block_idx;
                obs::counters()
                    .air_one_block_selections
                    .fetch_add(1, Relaxed);

                // Shared memory: candidate (bits, idx) pairs + the
                // histogram. The block reads the input exactly once.
                let mut cand_bits = ctx.shared_alloc::<T::Ordered>(n);
                let mut cand_idx = ctx.shared_alloc::<u32>(n);
                for (i, v) in inputs.tile(ctx, prob, 0, n).into_iter().enumerate() {
                    cand_bits[i] = v.to_ordered();
                    cand_idx[i] = i as u32;
                }
                ctx.ops(2 * n as u64);
                // Barrier between the cooperative load and the pass
                // loop (uniform: every block syncs exactly once — the
                // early-stop break is *after* this point).
                ctx.block_sync();

                let mut count = n;
                let mut k_rem = k as u32;
                let mut out = 0usize;
                let emit =
                    |ctx: &mut gpu_sim::BlockCtx, bits: T::Ordered, idx: u32, out: &mut usize| {
                        debug_assert!(*out < k);
                        ctx.st(&ov, prob * k + *out, T::from_ordered(bits));
                        ctx.st(&oi, prob * k + *out, idx);
                        *out += 1;
                    };

                'passes: for pass in 0..passes {
                    // Histogram of this pass's digit over the live
                    // candidates (a block-internal __syncthreads()
                    // separates these phases on real hardware).
                    let mut hist = vec![0u32; radix];
                    for i in 0..count {
                        hist[digit_of::<T::Ordered>(cand_bits[i], pass as u32, b) as usize] += 1;
                    }
                    ctx.ops(2 * count as u64);

                    // Prefix-scan for the target digit.
                    let width = digit_width_of::<T::Ordered>(pass as u32, b);
                    let mut acc = 0u32;
                    let mut target = 0u32;
                    for (d, &h) in hist.iter().enumerate().take(1 << width) {
                        if acc + h >= k_rem {
                            target = d as u32;
                            break;
                        }
                        acc += h;
                    }
                    ctx.ops(2 << width);
                    k_rem -= acc;

                    // Filter in place: emit sure results, keep ties
                    // with the target digit.
                    let mut kept = 0usize;
                    for i in 0..count {
                        let d = digit_of::<T::Ordered>(cand_bits[i], pass as u32, b);
                        if d < target {
                            emit(ctx, cand_bits[i], cand_idx[i], &mut out);
                        } else if d == target {
                            cand_bits[kept] = cand_bits[i];
                            cand_idx[kept] = cand_idx[i];
                            kept += 1;
                        }
                    }
                    ctx.ops(3 * count as u64);
                    count = kept;

                    obs::counters().air_passes.fetch_add(1, Relaxed);
                    if early_stop && k_rem as usize == count {
                        obs::counters().air_early_stops.fetch_add(1, Relaxed);
                        break 'passes;
                    }
                }

                // Remaining candidates are ties on the full key (or the
                // early-stop set): take the first k_rem.
                for i in 0..count.min(k_rem as usize) {
                    emit(ctx, cand_bits[i], cand_idx[i], &mut out);
                }
                debug_assert_eq!(out, k);
            },
        );
        if let Err(e) = launched {
            outs.release(gpu);
            return Err(e.into());
        }

        Ok((out_val, out_idx))
    }
}

impl TopKAlgorithm for AirTopK {
    fn name(&self) -> &'static str {
        "AIR Top-K"
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
        let mut outs = self.run_batch(gpu, std::slice::from_ref(input), k)?;
        outs.pop().ok_or_else(|| TopKError::UnsupportedShape {
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
        self.run_batch(gpu, inputs, k)
    }
}

#[cfg(test)]
#[path = "air_tests.rs"]
mod tests;
