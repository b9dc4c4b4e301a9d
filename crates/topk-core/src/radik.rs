//! RadiK-style skew-resistant radix top-K: adaptive digit ordering +
//! histogram equalization (PAPERS.md).
//!
//! AIR Top-K's fixed most-significant-digit grid degenerates under
//! skew: when keys share their top `m` ordered bits (the §3.2
//! adversarial distribution, or any sharply peaked serving workload),
//! the first `⌊m/b⌋` passes histogram everything into a single bucket —
//! a full `N`-element sweep each that eliminates nobody. RadiK's
//! counter is to *choose the bit window per pass from the data*:
//!
//! 1. **Sketch pass.** One cheap min/max reduction over the input
//!    gives the global common prefix; the first real round starts
//!    directly below it, so shared leading bits are never
//!    histogrammed at all.
//! 2. **Adaptive digit ordering.** Every round additionally tracks the
//!    min/max of the candidates it scans. Its last finishing block
//!    extends the next round's bit offset past any bits the survivors
//!    provably share (`common_prefix_len_of`), so each histogram
//!    always spans bits that actually discriminate — the histogram
//!    equalization effect: buckets stay balanced instead of collapsing
//!    into one.
//!
//! Everything else deliberately mirrors [`crate::air`]: iteration-fused
//! rounds (previous round's filtering + this round's histogram in one
//! sweep), on-device prefix sums by the last finishing block, adaptive
//! candidate buffering with the same `C·α < N` rule, early stopping,
//! and batch striping. On uniform data the sketch is pure overhead
//! (one extra `N`-read) — which is exactly the trade the
//! [`crate::tuner`] cost model arbitrates.
//!
//! Skip telemetry lands in [`obs::AlgoCounters::radik_rounds`] and
//! [`obs::AlgoCounters::radik_skipped_bits`].

use crate::air::ONE_BLOCK_THRESHOLD;
use crate::error::TopKError;
use crate::keys::{common_prefix_len_of, digit_at, num_passes_of, OrderedBits, RadixKey};
use crate::matrix::{split_rows, Candidates, Rows};
use crate::obs;
use crate::scratch::ScratchGuard;
use crate::traits::{check_args, Category, TopKAlgorithm, TopKOutput, TypedOutput};
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};
use std::sync::atomic::Ordering::Relaxed;

/// Tuning knobs for [`RadiK`]. Defaults match [`crate::air::AirConfig`]
/// so head-to-head comparisons isolate the adaptive digit ordering.
#[derive(Debug, Clone)]
pub struct RadiKConfig {
    /// Maximum digit width in bits (a round's actual width shrinks
    /// when fewer bits remain below its offset).
    pub bits_per_pass: u32,
    /// Buffering threshold α (same rule as AIR §3.2: buffer candidates
    /// only when `C·α < N`).
    pub alpha: usize,
    /// Enable adaptive candidate buffering.
    pub adaptive: bool,
    /// Enable early stopping.
    pub early_stop: bool,
    /// Threads per block.
    pub block_dim: usize,
    /// Input elements each thread processes per round.
    pub items_per_thread: usize,
}

impl Default for RadiKConfig {
    fn default() -> Self {
        RadiKConfig {
            bits_per_pass: 11,
            alpha: 128,
            adaptive: true,
            early_stop: true,
            block_dim: 512,
            items_per_thread: 16,
        }
    }
}

// Control-block slot offsets (per problem). Superset of AIR's: TIES
// marks that the surviving candidates are exact duplicates on the full
// key, so the next kernel admits by rank instead of digit.
const K_REM: usize = 0;
const SRC_BUFFERED: usize = 1;
const SRC_COUNT: usize = 2;
const STORE_CUR: usize = 3;
const EARLY: usize = 4;
const TIES: usize = 5;
const FINISHED: usize = 6;
const OUT_CURSOR: usize = 7;
const TIE_CURSOR: usize = 8;
const CTRL_FIXED: usize = 9;
// Then per round r: TARGET[r] (R slots), OFFSET[r] (R+1 slots, in
// bits from the MSB), BUF_CURSOR[r] (R slots).

/// RadiK-style skew-resistant radix top-K (see module docs).
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec};
/// use topk_core::{RadiK, TopKAlgorithm, verify_topk};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// // Adversarial skew: all values share their top ordered bits.
/// let data = datagen::generate(
///     datagen::Distribution::RadixAdversarial { m_bits: 20 }, 50_000, 7);
/// let input = gpu.htod("scores", &data);
/// let out = RadiK::default().select(&mut gpu, &input, 25);
/// verify_topk(&data, 25, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct RadiK {
    cfg: RadiKConfig,
    /// Small problems don't amortise a sketch pass; they delegate to
    /// AIR's one-block fast path unchanged.
    inner: crate::air::AirTopK,
}

impl Default for RadiK {
    fn default() -> Self {
        RadiK::new(RadiKConfig::default())
    }
}

impl RadiK {
    /// Create with explicit configuration.
    pub fn new(cfg: RadiKConfig) -> Self {
        assert!(
            (1..=16).contains(&cfg.bits_per_pass),
            "bits_per_pass must be in 1..=16"
        );
        assert!(cfg.alpha >= 4, "alpha below its lower bound of 4");
        let inner = crate::air::AirTopK::new(crate::air::AirConfig {
            bits_per_pass: cfg.bits_per_pass,
            alpha: cfg.alpha,
            adaptive: cfg.adaptive,
            early_stop: cfg.early_stop,
            block_dim: cfg.block_dim,
            items_per_thread: cfg.items_per_thread,
        });
        RadiK { cfg, inner }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RadiKConfig {
        &self.cfg
    }

    /// Generic-key batched selection, packed per-problem outputs.
    pub fn run_batch_typed<T>(
        &self,
        gpu: &mut Gpu,
        inputs: &[DeviceBuffer<T>],
        k: usize,
    ) -> Result<Vec<TypedOutput<T>>, TopKError>
    where
        T: RadixKey,
        T::Ordered: gpu_sim::DeviceScalar,
    {
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
            ("radik_values", "radik_indices"),
        ))
    }

    /// Matrix-shaped batched selection (packed `rows × k` outputs).
    pub fn run_matrix_typed<T>(
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
    >
    where
        T: RadixKey,
        T::Ordered: gpu_sim::DeviceScalar,
    {
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

    pub(crate) fn run_rows<T>(
        &self,
        gpu: &mut Gpu,
        inputs: Rows<'_, T>,
        k: usize,
    ) -> Result<(DeviceBuffer<T>, DeviceBuffer<u32>), TopKError>
    where
        T: RadixKey,
        T::Ordered: gpu_sim::DeviceScalar,
    {
        let n = inputs.n();
        check_args(self, n, k)?;
        if k == n || n <= ONE_BLOCK_THRESHOLD {
            // The sketch pass can't pay for itself here; AIR's trivial
            // and one-block paths are already optimal.
            return self.inner.run_rows(gpu, inputs, k);
        }
        let mut ws = ScratchGuard::new();
        let mut outs = ScratchGuard::new();
        let r = self.run_rows_multi_round(gpu, &mut ws, &mut outs, inputs, k);
        ws.release(gpu);
        if r.is_err() {
            outs.release(gpu);
        }
        r
    }

    /// The sketch + adaptive-round pipeline (the interesting path).
    #[allow(clippy::too_many_lines)]
    fn run_rows_multi_round<T>(
        &self,
        gpu: &mut Gpu,
        ws: &mut ScratchGuard,
        outs: &mut ScratchGuard,
        inputs: Rows<'_, T>,
        k: usize,
    ) -> Result<(DeviceBuffer<T>, DeviceBuffer<u32>), TopKError>
    where
        T: RadixKey,
        T::Ordered: gpu_sim::DeviceScalar,
    {
        let n = inputs.n();
        let b = self.cfg.bits_per_pass;
        let bits = <T::Ordered as OrderedBits>::BITS;
        // Offsets advance ≥ b bits per round, so AIR's pass count is
        // an upper bound on the rounds ever needed.
        let rounds = num_passes_of::<T::Ordered>(b) as usize;
        let radix = 1usize << b;
        let batch = inputs.batch();
        let ctrl_stride = CTRL_FIXED + 3 * rounds + 1;
        let target_off = CTRL_FIXED;
        let offset_off = CTRL_FIXED + rounds;
        let bufcur_off = CTRL_FIXED + 2 * rounds + 1;

        let chunk = self.cfg.block_dim * self.cfg.items_per_thread;
        let blocks_per_problem = n.div_ceil(chunk).max(1);
        let grid = batch * blocks_per_problem;
        let launch = LaunchConfig::grid_1d(grid, self.cfg.block_dim);
        let cap = if self.cfg.adaptive {
            (n / self.cfg.alpha).max(1)
        } else {
            n
        };

        let ctrl = ws.alloc::<u32>(gpu, "radik_ctrl", batch * ctrl_stride)?;
        // Accumulated candidate prefix *value* after each round; u64 so
        // 64-bit keys fit (the prefix can reach the full key width).
        let pvals = ws.alloc::<u64>(gpu, "radik_pvals", batch * (rounds + 1))?;
        // Global min/max (sketch) and per-round scanned-candidate
        // min/max, in the ordered-bit domain.
        let gmin = ws.alloc::<T::Ordered>(gpu, "radik_gmin", batch)?;
        let gmax = ws.alloc::<T::Ordered>(gpu, "radik_gmax", batch)?;
        let minb = ws.alloc::<T::Ordered>(gpu, "radik_minb", batch * rounds)?;
        let maxb = ws.alloc::<T::Ordered>(gpu, "radik_maxb", batch * rounds)?;
        let hist = ws.alloc::<u32>(gpu, "radik_hist", batch * rounds * radix)?;
        let sketch_done = ws.alloc::<u32>(gpu, "radik_sketch_done", batch)?;
        let done = ws.alloc::<u32>(gpu, "radik_done", batch * rounds)?;
        let buf_val = [
            ws.alloc::<T>(gpu, "radik_buf_val0", batch * cap)?,
            ws.alloc::<T>(gpu, "radik_buf_val1", batch * cap)?,
        ];
        let buf_idx = [
            ws.alloc::<u32>(gpu, "radik_buf_idx0", batch * cap)?,
            ws.alloc::<u32>(gpu, "radik_buf_idx1", batch * cap)?,
        ];
        let out_val = outs.alloc::<T>(gpu, "radik_out_val", batch * k)?;
        let out_idx = outs.alloc::<u32>(gpu, "radik_out_idx", batch * k)?;

        ctrl.fill(0);
        hist.fill(0);
        done.fill(0);
        sketch_done.fill(0);
        gmin.fill(<T::Ordered as OrderedBits>::MAX);
        gmax.fill(<T::Ordered as OrderedBits>::ZERO);
        minb.fill(<T::Ordered as OrderedBits>::MAX);
        maxb.fill(<T::Ordered as OrderedBits>::ZERO);
        let adaptive = self.cfg.adaptive;
        let early_stop = self.cfg.early_stop;
        let alpha = self.cfg.alpha;

        // ---- sketch pass: global min/max → starting offset ---------
        let contract = inputs
            .declare_reads(KernelContract::new("radik_sketch_kernel"))
            .coordinates(&gmin, Footprint::per_group(blocks_per_problem, 1))
            .coordinates(&gmax, Footprint::per_group(blocks_per_problem, 1))
            .atomics(&sketch_done, Footprint::per_group(blocks_per_problem, 1))
            .writes_shared(&ctrl, Footprint::per_group(blocks_per_problem, ctrl_stride))
            .writes_shared(&pvals, Footprint::per_group(blocks_per_problem, rounds + 1));
        gpu.try_launch_checked(&contract, launch, |ctx| {
            let prob = ctx.block_idx / blocks_per_problem;
            let blk = ctx.block_idx % blocks_per_problem;
            let start = blk * chunk;
            let end = (start + chunk).min(n);
            let tile = inputs.tile(ctx, prob, start, end);
            let mut keys = tile.iter().map(|v| v.to_ordered());
            if let Some(first) = keys.next() {
                let (mn, mx) = keys.fold((first, first), |(mn, mx), o| (mn.min(o), mx.max(o)));
                // Three ops per element after the first, charged once.
                ctx.ops(3 * (tile.len() as u64 - 1));
                // Raw unsigned min/max on ordered bits == value order.
                ctx.atomic_min_raw(&gmin, prob, mn);
                ctx.atomic_max_raw(&gmax, prob, mx);
            }
            let prev = ctx.atomic_add_sync(&sketch_done, prob, 1);
            if prev + 1 == blocks_per_problem as u32 {
                let mn = ctx.ld(&gmin, prob);
                let mx = ctx.ld(&gmax, prob);
                // Clamp below the key width: a zero-width round-0
                // digit would be meaningless (all-identical inputs
                // still take one 1-bit round and resolve as ties).
                let cp = common_prefix_len_of::<T::Ordered>(mn, mx).min(bits - 1);
                ctx.st(&ctrl, prob * ctrl_stride + offset_off, cp);
                ctx.st(
                    &pvals,
                    prob * (rounds + 1),
                    if cp == 0 {
                        0
                    } else {
                        mn.shr(bits - cp).to_u64()
                    },
                );
                ctx.ops(4);
                if cp > 0 {
                    obs::counters()
                        .radik_skipped_bits
                        .fetch_add(cp as u64, Relaxed);
                }
            }
        })?;

        // ---- the fused rounds ---------------------------------------
        for round in 0..rounds {
            let kernel = |ctx: &mut gpu_sim::BlockCtx| {
                let prob = ctx.block_idx / blocks_per_problem;
                let blk = ctx.block_idx % blocks_per_problem;
                let cb = prob * ctrl_stride;

                if ctx.ld(&ctrl, cb + FINISHED) != 0 {
                    return;
                }

                let early = round > 0 && ctx.ld(&ctrl, cb + EARLY) != 0;
                let ties = round > 0 && ctx.ld(&ctrl, cb + TIES) != 0;
                let src_is_buf = round > 0 && ctx.ld(&ctrl, cb + SRC_BUFFERED) != 0;
                let n_src = if src_is_buf {
                    ctx.ld(&ctrl, cb + SRC_COUNT) as usize
                } else {
                    n
                };
                let store = !early && !ties && round > 0 && ctx.ld(&ctrl, cb + STORE_CUR) != 0;
                let read_sel = (round + 1) % 2;
                let write_sel = round % 2;

                // This round's bit window (set by the previous round's
                // last block / the sketch).
                let offset = ctx.ld(&ctrl, cb + offset_off + round);
                let width = b.min(bits - offset.min(bits - 1));
                let k_rem = if round == 0 {
                    k as u32
                } else {
                    ctx.ld(&ctrl, cb + K_REM)
                };

                let start = blk * chunk;
                let end = (start + chunk).min(n_src);

                let mut local_hist: Vec<u32> = if !early && !ties {
                    ctx.shared_alloc::<u32>(radix)
                } else {
                    Vec::new()
                };

                // One loop per round kind, so the round-invariant flags
                // stay out of the per-element work.
                let swept = if round == 0 {
                    // Histogram of the first window only.
                    let row = inputs.tile(ctx, prob, start, end);
                    for v in row {
                        local_hist
                            [digit_at::<T::Ordered>(v.to_ordered(), offset, width) as usize] += 1;
                    }
                    // load index math + ordered-bit transform, then
                    // digit extract + shared-memory histogram
                    ctx.ops(8 * row.len() as u64);
                    None
                } else {
                    let kind = if ties {
                        Sweep::Ties
                    } else if early {
                        Sweep::Early
                    } else if store {
                        Sweep::FilterStore
                    } else {
                        Sweep::Filter
                    };
                    // Previous round's window, target digit, and the
                    // candidate prefix for re-filtering from the input.
                    let offset_prev = ctx.ld(&ctrl, cb + offset_off + round - 1);
                    let round_sweep = RoundSweep {
                        ctrl: &ctrl,
                        out_val: &out_val,
                        out_idx: &out_idx,
                        buf_val: &buf_val[write_sel],
                        buf_idx: &buf_idx[write_sel],
                        cb,
                        buf_cursor: cb + bufcur_off + round,
                        out_base: prob * k,
                        buf_base: prob * cap,
                        k,
                        cap,
                        k_rem,
                        offset_prev,
                        width_prev: b.min(bits - offset_prev),
                        target_prev: ctx.ld(&ctrl, cb + target_off + round - 1),
                        pval_prev: ctx.ld(&pvals, prob * (rounds + 1) + round - 1),
                        offset,
                        width,
                    };
                    let buffered =
                        src_is_buf.then(|| (&buf_val[read_sel], &buf_idx[read_sel], prob * cap));
                    let src = inputs.source(ctx, prob, start, end, buffered);
                    let sw = round_sweep.sweep(ctx, src, &mut local_hist, kind);
                    // Per element: load index math + ordered-bit
                    // transform (4); then either the prefix check that
                    // settles it (1) or digit extract + filter branch
                    // logic (8); candidates add the histogram update
                    // and range tracking (4).
                    ctx.ops(
                        4 * sw.len + sw.skipped + 8 * (sw.len - sw.skipped) + 4 * sw.candidates,
                    );
                    Some(sw)
                };

                if !local_hist.is_empty() {
                    let hbase = (prob * rounds + round) * radix;
                    for (d, &c) in local_hist.iter().enumerate() {
                        if c != 0 {
                            ctx.atomic_add(&hist, hbase + d, c);
                        }
                    }
                    ctx.ops(radix as u64);
                }
                if let Some(sw) = swept.filter(|sw| sw.candidates > 0) {
                    ctx.atomic_min_raw(&minb, prob * rounds + round, sw.min);
                    ctx.atomic_max_raw(&maxb, prob * rounds + round, sw.max);
                }

                let prev = ctx.atomic_add_sync(&done, prob * rounds + round, 1);
                if prev + 1 == blocks_per_problem as u32 {
                    obs::counters().radik_rounds.fetch_add(1, Relaxed);
                    if early || ties {
                        ctx.st(&ctrl, cb + FINISHED, 1);
                        ctx.st(&ctrl, cb + EARLY, 0);
                        ctx.st(&ctrl, cb + TIES, 0);
                        return;
                    }
                    let hbase = (prob * rounds + round) * radix;
                    let r_round = 1usize << width;
                    let mut acc: u32 = 0;
                    let mut target: u32 = 0;
                    let mut psum_before: u32 = 0;
                    let mut e_next: u32 = 0;
                    for d in 0..r_round {
                        let h = ctx.ld(&hist, hbase + d);
                        if acc + h >= k_rem {
                            target = d as u32;
                            psum_before = acc;
                            e_next = h;
                            break;
                        }
                        acc += h;
                    }
                    ctx.ops(2 * r_round as u64);

                    let k_next = k_rem - psum_before;
                    ctx.st(&ctrl, cb + target_off + round, target);
                    ctx.st(&ctrl, cb + K_REM, k_next);

                    // Adaptive digit ordering: start the next round
                    // past every bit the scanned candidates share
                    // (survivors are a subset, so the bound is safe).
                    // Round 0 scans the whole input, whose shared
                    // prefix the sketch already consumed.
                    let base = offset + width;
                    let offset_next = if round > 0 {
                        let mn = ctx.ld(&minb, prob * rounds + round);
                        let mx = ctx.ld(&maxb, prob * rounds + round);
                        base.max(common_prefix_len_of::<T::Ordered>(mn, mx))
                    } else {
                        base
                    };
                    let extra = offset_next - base;
                    // Extend the candidate prefix value: this round's
                    // target digit plus the skipped shared bits (read
                    // off the scanned-candidate min — every candidate
                    // agrees on bits [base, offset_next)).
                    let pval = ctx.ld(&pvals, prob * (rounds + 1) + round);
                    let mid = if extra > 0 {
                        let mn = ctx.ld(&minb, prob * rounds + round);
                        mn.shr(bits - offset_next).to_u64() & ((1u64 << extra) - 1)
                    } else {
                        0
                    };
                    ctx.st(
                        &pvals,
                        prob * (rounds + 1) + round + 1,
                        (((pval << width) | target as u64) << extra) | mid,
                    );
                    ctx.st(&ctrl, cb + offset_off + round + 1, offset_next);
                    if extra > 0 {
                        obs::counters()
                            .radik_skipped_bits
                            .fetch_add(extra as u64, Relaxed);
                    }

                    ctx.st(&ctrl, cb + SRC_BUFFERED, store as u32);
                    if store {
                        let cnt = ctx.ld(&ctrl, cb + bufcur_off + round);
                        ctx.st(&ctrl, cb + SRC_COUNT, cnt);
                    }
                    let is_early = early_stop && k_next == e_next;
                    let is_ties = !is_early && offset_next >= bits;
                    let store_next = !is_early
                        && !is_ties
                        && (!adaptive || (e_next as usize).saturating_mul(alpha) < n);
                    ctx.st(&ctrl, cb + STORE_CUR, store_next as u32);
                    ctx.st(&ctrl, cb + EARLY, is_early as u32);
                    ctx.st(&ctrl, cb + TIES, is_ties as u32);
                    ctx.ops(8);
                }
            };
            let (read_sel, write_sel) = ((round + 1) % 2, round % 2);
            let contract = inputs
                .declare_reads(KernelContract::new("radik_round_kernel"))
                .coordinates(&ctrl, Footprint::per_group(blocks_per_problem, ctrl_stride))
                .coordinates(&pvals, Footprint::per_group(blocks_per_problem, rounds + 1))
                .coordinates(
                    &hist,
                    Footprint::group_slice(
                        blocks_per_problem,
                        round * radix,
                        rounds * radix,
                        radix,
                    ),
                )
                .coordinates(
                    &minb,
                    Footprint::group_slice(blocks_per_problem, round, rounds, 1),
                )
                .coordinates(
                    &maxb,
                    Footprint::group_slice(blocks_per_problem, round, rounds, 1),
                )
                .atomics(
                    &done,
                    Footprint::group_slice(blocks_per_problem, round, rounds, 1),
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

        // ---- final resolution ---------------------------------------
        // Offsets advance ≥ b bits per round, so after `rounds` rounds
        // every problem is in the early or ties state (or already
        // finished); this kernel plays the role of AIR's last_filter.
        let read_sel_last = (rounds - 1) % 2;
        let contract = inputs
            .declare_reads(KernelContract::new("radik_last_filter_kernel"))
            .coordinates(&ctrl, Footprint::per_group(blocks_per_problem, ctrl_stride))
            .reads(&pvals, Footprint::per_group(blocks_per_problem, rounds + 1))
            .reads(
                &buf_val[read_sel_last],
                Footprint::per_group(blocks_per_problem, cap),
            )
            .reads(
                &buf_idx[read_sel_last],
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
            let early = ctx.ld(&ctrl, cb + EARLY) != 0;
            let ties = ctx.ld(&ctrl, cb + TIES) != 0;
            debug_assert!(
                early || ties,
                "a problem left the round loop in a non-terminal state"
            );
            let src_is_buf = ctx.ld(&ctrl, cb + SRC_BUFFERED) != 0;
            let n_src = if src_is_buf {
                ctx.ld(&ctrl, cb + SRC_COUNT) as usize
            } else {
                n
            };
            let last = rounds - 1;
            let read_sel = last % 2;
            let offset_prev = ctx.ld(&ctrl, cb + offset_off + last);
            let width_prev = b.min(bits - offset_prev);
            let target_prev = ctx.ld(&ctrl, cb + target_off + last);
            let pval_prev = ctx.ld(&pvals, prob * (rounds + 1) + last);
            let k_rem = ctx.ld(&ctrl, cb + K_REM);

            let start = blk * chunk;
            let end = (start + chunk).min(n_src);
            let buffered = src_is_buf.then(|| (&buf_val[read_sel], &buf_idx[read_sel], prob * cap));
            let src = inputs.source(ctx, prob, start, end, buffered);
            // The terminal kinds neither store nor histogram, so the
            // candidate store and the window go unused.
            let round_sweep = RoundSweep {
                ctrl: &ctrl,
                out_val: &out_val,
                out_idx: &out_idx,
                buf_val: &buf_val[read_sel],
                buf_idx: &buf_idx[read_sel],
                cb,
                buf_cursor: 0,
                out_base: prob * k,
                buf_base: 0,
                k,
                cap,
                k_rem,
                offset_prev,
                width_prev,
                target_prev,
                pval_prev,
                offset: 0,
                width: 0,
            };
            let kind = if early { Sweep::Early } else { Sweep::Ties };
            let sw = round_sweep.sweep(ctx, src, &mut [], kind);
            // Per element: load + ordered-bit transform (3); then the
            // prefix check that settles it (1) or digit extract +
            // admission (2).
            ctx.ops(3 * sw.len + sw.skipped + 2 * (sw.len - sw.skipped));
        })?;

        Ok((out_val, out_idx))
    }
}

/// What a round does with the source elements in its candidate prefix.
/// Every kind emits those below the previous round's target digit.
#[derive(Clone, Copy)]
enum Sweep {
    /// The survivors tie on the full key: admit the first `k_rem` at
    /// the target digit by rank.
    Ties,
    /// Early stop: every element at the target digit is a result.
    Early,
    /// Histogram this round's window of the candidates at the target
    /// digit and track their range.
    Filter,
    /// [`Sweep::Filter`], also buffering the candidates for the next
    /// round.
    FilterStore,
}

/// What one sweep saw: the elements read, those skipped as settled,
/// and the histogrammed candidates with their ordered-key range.
struct Swept<O> {
    len: u64,
    skipped: u64,
    candidates: u64,
    min: O,
    max: O,
}

/// Per-block constants of one sweep over a round's source (`round >=
/// 1`, or the last filter): the previous round's bit window, target
/// digit and candidate prefix, and where results and buffered
/// candidates go.
struct RoundSweep<'a, T: RadixKey> {
    ctrl: &'a DeviceBuffer<u32>,
    out_val: &'a DeviceBuffer<T>,
    out_idx: &'a DeviceBuffer<u32>,
    buf_val: &'a DeviceBuffer<T>,
    buf_idx: &'a DeviceBuffer<u32>,
    /// The problem's control block.
    cb: usize,
    buf_cursor: usize,
    out_base: usize,
    buf_base: usize,
    k: usize,
    cap: usize,
    k_rem: u32,
    offset_prev: u32,
    width_prev: u32,
    target_prev: u32,
    /// The candidate prefix: the leading `offset_prev` key bits every
    /// live input element still has.
    pval_prev: u64,
    /// This round's histogram window.
    offset: u32,
    width: u32,
}

impl<T: RadixKey> RoundSweep<'_, T> {
    /// Sweep one block's share of the round's source as `kind`.
    fn sweep(
        &self,
        ctx: &mut gpu_sim::BlockCtx<'_>,
        src: Candidates<'_, T>,
        hist: &mut [u32],
        kind: Sweep,
    ) -> Swept<T::Ordered> {
        match kind {
            Sweep::Ties => self.sweep_src::<{ Sweep::Ties as u8 }>(ctx, src, hist),
            Sweep::Early => self.sweep_src::<{ Sweep::Early as u8 }>(ctx, src, hist),
            Sweep::Filter => self.sweep_src::<{ Sweep::Filter as u8 }>(ctx, src, hist),
            Sweep::FilterStore => self.sweep_src::<{ Sweep::FilterStore as u8 }>(ctx, src, hist),
        }
    }

    /// Pick the loop for the source: the candidate buffers hold only
    /// live elements, while input elements outside the candidate
    /// prefix (emitted or discarded in earlier rounds) are skipped.
    #[inline(always)]
    fn sweep_src<const KIND: u8>(
        &self,
        ctx: &mut gpu_sim::BlockCtx<'_>,
        src: Candidates<'_, T>,
        hist: &mut [u32],
    ) -> Swept<T::Ordered> {
        match src {
            Candidates::Buffered(items) => self.sweep_as::<KIND, false, _>(ctx, items, hist),
            Candidates::Input(items) if self.offset_prev > 0 => {
                self.sweep_as::<KIND, true, _>(ctx, items, hist)
            }
            Candidates::Input(items) => self.sweep_as::<KIND, false, _>(ctx, items, hist),
        }
    }

    #[inline(always)]
    fn sweep_as<const KIND: u8, const SETTLED: bool, I>(
        &self,
        ctx: &mut gpu_sim::BlockCtx<'_>,
        items: I,
        hist: &mut [u32],
    ) -> Swept<T::Ordered>
    where
        I: Iterator<Item = (T, u32)>,
    {
        let bits = <T::Ordered as OrderedBits>::BITS;
        let (offset_prev, target) = (self.offset_prev, self.target_prev);
        let mut sw = Swept {
            len: 0,
            skipped: 0,
            candidates: 0,
            min: <T::Ordered as OrderedBits>::MAX,
            max: <T::Ordered as OrderedBits>::ZERO,
        };
        for (v, idx) in items {
            sw.len += 1;
            let key = v.to_ordered();
            if SETTLED && key.shr(bits - offset_prev).to_u64() != self.pval_prev {
                sw.skipped += 1;
                continue;
            }
            let d_prev = digit_at::<T::Ordered>(key, offset_prev, self.width_prev);
            if d_prev < target {
                self.emit(ctx, v, idx);
            } else if d_prev == target {
                if KIND == Sweep::Early as u8 {
                    self.emit(ctx, v, idx);
                } else if KIND == Sweep::Ties as u8 {
                    let rank = ctx.atomic_add(self.ctrl, self.cb + TIE_CURSOR, 1);
                    if rank < self.k_rem {
                        self.emit(ctx, v, idx);
                    }
                } else {
                    if KIND == Sweep::FilterStore as u8 {
                        let pos = ctx.atomic_add(self.ctrl, self.buf_cursor, 1) as usize;
                        debug_assert!(pos < self.cap);
                        ctx.st_scatter(self.buf_val, self.buf_base + pos, v);
                        ctx.st_scatter(self.buf_idx, self.buf_base + pos, idx);
                    }
                    hist[digit_at::<T::Ordered>(key, self.offset, self.width) as usize] += 1;
                    // Track the scanned-candidate value range — the raw
                    // material for adaptive digit ordering.
                    sw.min = sw.min.min(key);
                    sw.max = sw.max.max(key);
                    sw.candidates += 1;
                }
            }
        }
        sw
    }

    #[inline(always)]
    fn emit(&self, ctx: &mut gpu_sim::BlockCtx<'_>, v: T, idx: u32) {
        let pos = ctx.atomic_add(self.ctrl, self.cb + OUT_CURSOR, 1) as usize;
        debug_assert!(pos < self.k);
        ctx.st_scatter(self.out_val, self.out_base + pos, v);
        ctx.st_scatter(self.out_idx, self.out_base + pos, idx);
    }
}

impl TopKAlgorithm for RadiK {
    fn name(&self) -> &'static str {
        "RadiK"
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
        let mut outs = self.try_select_batch(gpu, std::slice::from_ref(input), k)?;
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
        Ok(self
            .run_batch_typed(gpu, inputs, k)?
            .into_iter()
            .map(|(values, indices)| TopKOutput::new(values, indices))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_topk;
    use datagen::Distribution;
    use gpu_sim::{DeviceSpec, Gpu};

    #[test]
    fn agrees_with_cpu_reference_on_all_distributions() {
        for dist in Distribution::benchmark_set() {
            for (n, k) in [(9000, 13), (40_000, 256), (65_536, 1000)] {
                let data = datagen::generate(dist, n, (n ^ k) as u64);
                let mut gpu = Gpu::new(DeviceSpec::a100());
                let input = gpu.htod("in", &data);
                let out = RadiK::default().select(&mut gpu, &input, k);
                let (cpu_v, _) = topk_cpu::heap_topk(&data, k);
                let mut got = out.values.to_vec();
                let mut want = cpu_v;
                got.sort_by(f32::total_cmp);
                want.sort_by(f32::total_cmp);
                assert_eq!(got, want, "dist={} n={n} k={k}", dist.name());
                verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec())
                    .unwrap_or_else(|e| panic!("dist={} n={n} k={k}: {e}", dist.name()));
            }
        }
    }

    #[test]
    fn adversarial_skew_all_prefix_widths() {
        for m_bits in [2u32, 8, 20, 28, 31] {
            let dist = Distribution::RadixAdversarial { m_bits };
            let data = datagen::generate(dist, 30_000, 100 + m_bits as u64);
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let input = gpu.htod("in", &data);
            let out = RadiK::default().select(&mut gpu, &input, 77);
            verify_topk(&data, 77, &out.values.to_vec(), &out.indices.to_vec())
                .unwrap_or_else(|e| panic!("m_bits={m_bits}: {e}"));
        }
    }

    #[test]
    fn all_identical_input_resolves_as_ties() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data = vec![2.5f32; 20_000];
        let input = gpu.htod("in", &data);
        let out = RadiK::default().select(&mut gpu, &input, 50);
        assert!(out.values.to_vec().iter().all(|&v| v == 2.5));
        verify_topk(&data, 50, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
    }

    #[test]
    fn batch_and_matrix_paths_agree() {
        let (batch, n, k) = (6, 20_000, 64);
        let datas: Vec<Vec<f32>> = (0..batch)
            .map(|p| datagen::generate(Distribution::RadixAdversarial { m_bits: 16 }, n, p as u64))
            .collect();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let bufs: Vec<_> = datas
            .iter()
            .enumerate()
            .map(|(p, d)| gpu.htod(&format!("in{p}"), d))
            .collect();
        let outs = RadiK::default().select_batch(&mut gpu, &bufs, k);
        let flat: Vec<f32> = datas.iter().flatten().copied().collect();
        let m = crate::matrix::DeviceMatrix::htod(&mut gpu, "m", &flat, batch, n);
        let (mv, mi) = RadiK::default().run_matrix_typed(&mut gpu, &m, k).unwrap();
        for (p, d) in datas.iter().enumerate() {
            verify_topk(d, k, &outs[p].values.to_vec(), &outs[p].indices.to_vec())
                .unwrap_or_else(|e| panic!("slices row {p}: {e}"));
            verify_topk(d, k, &mv.row_to_vec(p), &mi.row_to_vec(p))
                .unwrap_or_else(|e| panic!("matrix row {p}: {e}"));
        }
    }

    #[test]
    fn sketch_skips_the_shared_prefix() {
        let before = obs::counters().snapshot();
        let data = datagen::generate(Distribution::RadixAdversarial { m_bits: 20 }, 50_000, 3);
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.htod("in", &data);
        let out = RadiK::default().select(&mut gpu, &input, 32);
        verify_topk(&data, 32, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
        let d = obs::counters().snapshot().delta_since(&before);
        assert!(
            d.radik_skipped_bits >= 20,
            "sketch should skip the 20 shared bits, skipped {}",
            d.radik_skipped_bits
        );
        assert!(d.radik_rounds >= 1);
    }

    #[test]
    fn beats_air_on_adversarial_skew() {
        // 24 shared bits waste AIR's first two 11-bit passes entirely
        // (single-bucket histograms over the full input); the sketch
        // starts RadiK at bit 24 directly. The batch amortises the
        // sketch's extra launch, so the saved full-input sweep is the
        // dominant term.
        let (batch, n, k) = (8, 1 << 19, 128);
        let datas: Vec<Vec<f32>> = (0..batch)
            .map(|p| {
                datagen::generate(
                    Distribution::RadixAdversarial { m_bits: 24 },
                    n,
                    9 + p as u64,
                )
            })
            .collect();
        type BatchRun<'a> = dyn Fn(&mut Gpu, &[DeviceBuffer<f32>]) + 'a;
        let time = |run: &BatchRun<'_>| {
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let bufs: Vec<_> = datas
                .iter()
                .enumerate()
                .map(|(p, d)| gpu.htod(&format!("in{p}"), d))
                .collect();
            gpu.reset_profile();
            run(&mut gpu, &bufs);
            gpu.elapsed_us()
        };
        let radik = time(&|gpu, bufs| {
            RadiK::default().select_batch(gpu, bufs, k);
        });
        let air = time(&|gpu, bufs| {
            crate::AirTopK::default().select_batch(gpu, bufs, k);
        });
        assert!(
            radik < air,
            "RadiK ({radik:.1} us) should beat AIR ({air:.1} us) under 24-bit shared prefix"
        );
    }

    #[test]
    fn small_problems_delegate_without_a_sketch() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data = datagen::generate(Distribution::Uniform, 4096, 5);
        let input = gpu.htod("in", &data);
        gpu.reset_profile();
        let out = RadiK::default().select(&mut gpu, &input, 10);
        assert_eq!(gpu.timeline().kernel_count(), 1, "one-block delegation");
        verify_topk(&data, 10, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
    }

    #[test]
    fn integer_and_f64_keys_work() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let vals: Vec<u32> =
            datagen::generate(Distribution::RadixAdversarial { m_bits: 12 }, 20_000, 4)
                .iter()
                .map(|v| v.to_bits())
                .collect();
        let input = gpu.htod("u32in", &vals);
        let outs = RadiK::default()
            .run_batch_typed(&mut gpu, std::slice::from_ref(&input), 40)
            .unwrap();
        let mut want = vals.clone();
        want.sort_unstable();
        want.truncate(40);
        let mut got = outs[0].0.to_vec();
        got.sort_unstable();
        assert_eq!(got, want);

        let dvals: Vec<f64> = (0..20_000)
            .map(|i| 1.0 + ((i * 2654435761u64 % 8191) as f64) * 1e-12)
            .collect();
        let dinput = gpu.htod("f64in", &dvals);
        let douts = RadiK::default()
            .run_batch_typed(&mut gpu, std::slice::from_ref(&dinput), 25)
            .unwrap();
        let mut dwant = dvals.clone();
        dwant.sort_by(f64::total_cmp);
        dwant.truncate(25);
        let mut dgot = douts[0].0.to_vec();
        dgot.sort_by(f64::total_cmp);
        assert_eq!(dgot, dwant);
    }
}
