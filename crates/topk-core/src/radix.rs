//! The radix pass machine: one implementation of Algorithm 1's loop
//! (§3.1-§3.3), shared by [`AirTopK`](crate::AirTopK) and
//! [`RadiK`](crate::RadiK). DESIGN.md §16 states its contract.
//!
//! A selection runs up to `⌈key bits / b⌉` iteration-fused rounds, then
//! one last filter. Each round's kernel filters the previous round's
//! candidates against its target digit and histograms the survivors'
//! next digit in the same sweep; the last block of each problem to
//! finish scans the histogram for the new target digit and sets the
//! next round's flags, all on the device. The [`Schedule`] decides
//! which bits each round's digit covers:
//!
//! * [`MsbFirst`] (AIR Top-K): fixed `b`-bit windows from the most
//!   significant bit down.
//! * [`Sketched`] (RadiK): a sketch kernel skips the bits every key
//!   shares, each round skips the bits its candidates share, and a
//!   round whose window runs off the key admits the tied survivors by
//!   rank.
//!
//! Whatever the schedule, `K = N` takes one copy kernel and rows of at
//! most [`ONE_BLOCK_THRESHOLD`] elements take the one-block kernel when
//! their candidates fit one block's shared memory.
//! One launch plan (`RadixPlan`) chooses the path and sizes every
//! launch; the tuner prices the same plan.
//!
//! Batched problems are solved by one set of launches: blocks are
//! striped `batch × blocks_per_problem`, with per-problem control
//! blocks, histograms and "last block" counters.

use crate::air::AirConfig;
use crate::error::TopKError;
use crate::fill::fill_blocks;
use crate::keys::{
    common_prefix_len_of, digit_at, digit_width_of, prefix_of, OrderedBits, RadixKey,
};
use crate::matrix::{select_batch, select_one, Candidates, RowSelect, Rows};
use crate::obs;
use crate::scratch::ScratchGuard;
use crate::traits::{Category, TopKAlgorithm, TopKOutput, TypedOutput};
use crate::tuner::DistSketch;
use gpu_sim::{
    BlockCtx, DeviceBuffer, DeviceScalar, DeviceSpec, Footprint, Gpu, KernelContract, KernelStats,
    PlannedLaunch,
};
use std::marker::PhantomData;
use std::sync::atomic::Ordering::Relaxed;

// Control-block slot offsets (per problem).
pub(crate) const K_REM: usize = 0; // remaining K
const SRC_BUFFERED: usize = 1; // current pass reads the candidate buffer
pub(crate) const SRC_COUNT: usize = 2; // element count in that buffer
const STORE_CUR: usize = 3; // current pass writes candidates
const EARLY: usize = 4; // current pass outputs all candidates (early stop)
const FINISHED: usize = 5; // all results emitted; later kernels no-op
pub(crate) const OUT_CURSOR: usize = 6; // write position in the output lists
pub(crate) const TIE_CURSOR: usize = 7; // rank counter for kth-value ties
const TIES: usize = 8; // sketched only: the survivors tie on the full key

/// Where one problem's control words live: the fixed slots above,
/// `TARGET[r]` and `BUF_CURSOR[r]` per round, then (sketched only)
/// `OFFSET[r]` for `r ≤ rounds`, in bits from the MSB. The kth prefixes
/// live in a separate u64 buffer so 64-bit keys fit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    pub(crate) stride: usize,
    pub(crate) target: usize,
    pub(crate) buf_cursor: usize,
    offset: usize,
}

impl Layout {
    pub(crate) fn new(rounds: usize, sketched: bool) -> Self {
        let fixed = TIES + sketched as usize;
        let offset = fixed + 2 * rounds;
        Layout {
            stride: offset + if sketched { rounds + 1 } else { 0 },
            target: fixed,
            buf_cursor: fixed + rounds,
            offset,
        }
    }
}

/// Problems at or below this size take the one-block fast path: the
/// whole multi-pass selection fused into a single kernel, one thread
/// block per problem (RAFT's `radix_topk_one_block_kernel`). A block
/// can keep all candidates in shared memory (8 bytes each) and
/// synchronise between passes internally, so the N-element input is
/// read exactly once and only one launch is paid.
pub const ONE_BLOCK_THRESHOLD: usize = 8192;

/// Which kernels a selection launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Path {
    /// K = N: one copy kernel.
    CopyAll,
    /// N ≤ [`ONE_BLOCK_THRESHOLD`] and the candidates fit a block's
    /// shared memory: one block per problem runs every pass there.
    OneBlock,
    /// The sketch (sketched only), every round, the last filter.
    MultiPass,
}

/// The launch plan of one radix selection: its path and the geometry
/// every launch takes. A pure function of the configuration, the shape,
/// the key width and the schedule; the kernels launch from it and the
/// tuner prices it ([`RadixPlan::launches`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RadixPlan {
    pub(crate) path: Path,
    n: usize,
    pub(crate) k: usize,
    batch: usize,
    key_bits: u32,
    sketched: bool,
    alpha: usize,
    /// Digit width.
    b: u32,
    /// Rounds (one-block: passes) of `b`-bit digits over the key.
    pub(crate) rounds: usize,
    pub(crate) radix: usize,
    /// Elements one block covers.
    pub(crate) chunk: usize,
    /// Blocks per problem: one per chunk on the copy path, at most the
    /// fill point on the multi-pass path.
    pub(crate) bpp: usize,
    /// Candidate-buffer capacity per problem.
    pub(crate) cap: usize,
    pub(crate) lay: Layout,
    /// Prefix slots per problem.
    pub(crate) pfx_len: usize,
    /// The copy or one-block kernel, or each round kernel: its grid,
    /// block and shared bytes.
    pub(crate) main: PlannedLaunch,
    /// The sketch and the last filter: the same grid and block, no
    /// shared memory.
    pub(crate) sweep: PlannedLaunch,
}

impl RadixPlan {
    /// Plan `batch` problems of `n` keys of `key_bits` bits, selecting
    /// `k` (`1 ≤ k ≤ n`) under `cfg` on `spec`, with the sketched schedule
    /// or MSB-first.
    pub(crate) fn new(
        spec: &DeviceSpec,
        cfg: &AirConfig,
        n: usize,
        k: usize,
        batch: usize,
        key_bits: u32,
        sketched: bool,
    ) -> Self {
        let b = cfg.bits_per_pass;
        // Windows advance at least b bits per round, so the MSB-first
        // pass count bounds the rounds any schedule needs.
        let rounds = key_bits.div_ceil(b) as usize;
        let radix = 1usize << b;
        let launch = |grid_dim, block_dim, shared: usize| PlannedLaunch {
            grid_dim,
            block_dim,
            stats: KernelStats {
                shared_mem_bytes: shared as u64,
                ..KernelStats::default()
            },
        };
        // Each one-block candidate keeps its ordered key and index in
        // shared memory; a device whose blocks cannot hold them all takes
        // the multi-pass path.
        let one_block = launch(batch, 256, n * (key_bits as usize / 8 + 4));
        let (path, chunk, block_dim, shared) = if k == n {
            (Path::CopyAll, 256 * 16, 256, 0)
        } else if n <= ONE_BLOCK_THRESHOLD && one_block.fits(spec) {
            (Path::OneBlock, n, 256, one_block.shared_bytes())
        } else {
            // Blocks no larger than the device allows.
            let block_dim = cfg.block_dim.min(spec.max_threads_per_block);
            let chunk = block_dim * cfg.items_per_thread;
            (Path::MultiPass, chunk, block_dim, radix * 4)
        };
        // Multi-pass: the fewest blocks that fill the device, each
        // sweeping a run of whole chunks ([`Self::span`]). Every block
        // flushes a whole histogram a round, so blocks past the fill
        // point add flushes and no occupancy.
        let chunks = n.div_ceil(chunk).max(1);
        let bpp = match path {
            Path::MultiPass => chunks.min(fill_blocks(spec, batch, block_dim, shared as u64)),
            _ => chunks,
        };
        RadixPlan {
            path,
            n,
            k,
            batch,
            key_bits,
            sketched,
            alpha: cfg.alpha,
            b,
            rounds,
            radix,
            chunk,
            bpp,
            // N/α when adaptive (§3.2's memory-footprint guarantee), N
            // otherwise.
            cap: if cfg.adaptive {
                (n / cfg.alpha).max(1)
            } else {
                n
            },
            lay: Layout::new(rounds, sketched),
            // MSB-first's round-0 prefix is empty, so it keeps no slot.
            pfx_len: rounds + sketched as usize,
            main: launch(batch * bpp, block_dim, shared),
            sweep: launch(batch * bpp, block_dim, 0),
        }
    }

    /// Block `blk`'s share `start..end` of a problem's row: a run of
    /// whole chunks, the runs as even as they can be. `end` may pass
    /// the row's end and a shorter source's; the caller clamps it. The
    /// runs tile the row, so every element, and every buffered
    /// candidate (at most N of them), falls to exactly one block.
    pub(crate) fn span(&self, blk: usize) -> (usize, usize) {
        let chunks = self.n.div_ceil(self.chunk);
        let edge = |b: usize| b * chunks / self.bpp * self.chunk;
        (edge(blk), edge(blk + 1))
    }

    /// The launches, priced for the tuner: grid, block and shared bytes
    /// are the plan's, and what each launch does is modelled from
    /// `sketch`, the prefix every key shares ([`Self::activity`]).
    pub(crate) fn launches(&self, spec: &DeviceSpec, sketch: DistSketch) -> Vec<PlannedLaunch> {
        let kernels = match self.path {
            Path::MultiPass => (self.sketched.then_some(self.sweep).into_iter())
                .chain(std::iter::repeat_n(self.main, self.rounds))
                .chain([self.sweep])
                .collect(),
            _ => vec![self.main],
        };
        kernels
            .into_iter()
            .zip(self.activity(spec, sketch))
            .map(|(kernel, stats)| PlannedLaunch {
                stats: KernelStats {
                    shared_mem_bytes: kernel.stats.shared_mem_bytes,
                    ..stats
                },
                ..kernel
            })
            .collect()
    }

    /// Each launch's modelled activity. The copy and one-block kernels
    /// read the input once. On the multi-pass path each window's
    /// discriminating bits cut the candidates, round `p ≥ 1` buffers its
    /// survivors when `count·α < n` (so round `p + 1` reads them instead
    /// of the input), the first round whose input is within K is the
    /// terminal scan, and the launches after it do nothing.
    fn activity(&self, spec: &DeviceSpec, sketch: DistSketch) -> Vec<KernelStats> {
        let (n, k, batch) = (self.n as u64, self.k as u64, self.batch as u64);
        let key_bytes = self.key_bits as u64 / 8;
        let pair_bytes = key_bytes + 4;
        let (b, key_bits, bpp, radix) = (self.b, self.key_bits, self.bpp as u64, self.radix as u64);
        // One scattered access is charged a whole transaction sector.
        let sector = spec.transaction_bytes as u64;
        let input = KernelStats {
            bytes_read: n * key_bytes * batch,
            ..KernelStats::default()
        };
        match self.path {
            Path::CopyAll => {
                return vec![KernelStats {
                    bytes_written: n * pair_bytes * batch,
                    compute_ops: n * batch,
                    ..input
                }]
            }
            Path::OneBlock => {
                return vec![KernelStats {
                    bytes_written: k * pair_bytes * batch,
                    compute_ops: 12 * n * batch,
                    atomic_ops: batch,
                    ..input
                }]
            }
            Path::MultiPass => {}
        }
        let mut stats = Vec::new();
        // Each window's discriminating bits: MSB-first windows inside
        // the shared prefix discriminate nothing; sketched windows start
        // below it.
        let mut windows = Vec::new();
        if self.sketched {
            // A full read plus a handful of per-block atomics.
            stats.push(KernelStats {
                compute_ops: 3 * n * batch,
                atomic_ops: 3 * bpp * batch,
                ..input
            });
            let mut offset = sketch.shared_prefix_bits.min(key_bits - 1);
            while offset < key_bits {
                windows.push(b.min(key_bits - offset));
                offset += b;
            }
        } else {
            let prefix = sketch.shared_prefix_bits.min(key_bits);
            for lo in (0..key_bits).step_by(b as usize) {
                let hi = lo + b.min(key_bits - lo);
                windows.push(hi.saturating_sub(lo.max(prefix)).min(hi - lo));
            }
        }
        // Candidates entering each round, unclamped.
        let mut cand = vec![n];
        for &eff in &windows {
            let cur = *cand.last().expect("cand starts non-empty");
            cand.push(if eff >= 63 { 0 } else { cur >> eff });
        }
        let term = (1..=windows.len())
            .find(|&t| cand[t] <= k)
            .unwrap_or(windows.len());
        let clamped = |p: usize| cand[p].max(k).min(n);
        let stored = |p: usize| p >= 1 && clamped(p).saturating_mul(self.alpha as u64) < n;
        // Round p's source, elements and bytes each: the candidates
        // round p - 1 buffered as (key, index) pairs, or the input.
        let source = |p: usize| match p >= 1 && stored(p - 1) {
            true => (clamped(p - 1), pair_bytes),
            false => (n, key_bytes),
        };
        for (p, &eff) in windows.iter().enumerate().take(term) {
            let ((scanned, elem_bytes), survivors) = (source(p), clamped(p));
            // Buckets each block flushes: with a shared prefix only
            // 2^eff digits occur; under the sketch the histogram spreads
            // over the whole window.
            let occupied = match self.sketched {
                true => radix.min(survivors),
                false => (1u64 << eff.min(62)).min(radix).min(survivors),
            };
            let mut round = KernelStats {
                bytes_read: scanned * elem_bytes * batch,
                compute_ops: (6 * scanned + 4 * survivors) * batch + batch * bpp * radix,
                atomic_ops: (bpp * occupied + 1) * batch,
                ..KernelStats::default()
            };
            if stored(p) {
                // Survivors scatter into the ping-pong buffer.
                round.bytes_scattered = survivors * 2 * sector * batch;
                round.atomic_ops += survivors * batch;
            }
            stats.push(round);
        }
        // The terminal scan emits the K selected pairs.
        let (scanned, elem_bytes) = source(term);
        stats.push(KernelStats {
            bytes_read: scanned * elem_bytes * batch,
            bytes_scattered: k * 2 * sector * batch,
            atomic_ops: (k + 1) * batch,
            compute_ops: 4 * scanned * batch,
            ..KernelStats::default()
        });
        stats.resize(
            self.sketched as usize + self.rounds + 1,
            KernelStats::default(),
        );
        stats
    }
}

/// A digit schedule of the pass machine: which bits each round's digit
/// covers, and everything that choice makes visible (kernel names,
/// allocation labels, counters, cost per candidate). Sealed: the two
/// schedules are [`MsbFirst`] and [`Sketched`].
pub trait Schedule: sealed::Sealed + Clone + std::fmt::Debug + Send + Sync {}

pub(crate) mod sealed {
    /// The constants of a [`Schedule`](super::Schedule).
    pub trait Sealed {
        /// The algorithm's name, as in the paper's figures.
        const NAME: &'static str;
        /// Prefix of the workspace and output labels.
        const LABEL: &'static str;
        /// Labels of the per-row pieces of a batch's outputs.
        const ROW_LABELS: (&'static str, &'static str);
        /// Label of the kth-prefix buffer.
        const PREFIXES: &'static str;
        /// Names of the round kernel and of the last filter kernel.
        const KERNELS: [&'static str; 2];
        /// A sketch kernel, windows placed from the data, candidate
        /// ranges and the ties state.
        const SKETCHED: bool;
        /// Compute ops charged per histogrammed candidate: the
        /// histogram update, plus the range tracking when sketched.
        const CANDIDATE_OPS: u64;
    }
}

/// AIR Top-K's schedule: fixed `b`-bit digits, most significant first.
#[derive(Debug, Clone, Copy, Default)]
pub struct MsbFirst;

impl sealed::Sealed for MsbFirst {
    const NAME: &'static str = "AIR Top-K";
    const LABEL: &'static str = "air";
    const ROW_LABELS: (&'static str, &'static str) = ("air_values", "air_indices");
    const PREFIXES: &'static str = "air_prefixes";
    const KERNELS: [&'static str; 2] = ["iteration_fused_kernel", "last_filter_kernel"];
    const SKETCHED: bool = false;
    const CANDIDATE_OPS: u64 = 2;
}

impl Schedule for MsbFirst {}

/// RadiK's schedule: digit windows placed by a sketch of the data (see
/// [`crate::radik`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sketched;

impl sealed::Sealed for Sketched {
    const NAME: &'static str = "RadiK";
    const LABEL: &'static str = "radik";
    const ROW_LABELS: (&'static str, &'static str) = ("radik_values", "radik_indices");
    const PREFIXES: &'static str = "radik_pvals";
    const KERNELS: [&'static str; 2] = ["radik_round_kernel", "radik_last_filter_kernel"];
    const SKETCHED: bool = true;
    const CANDIDATE_OPS: u64 = 4;
}

impl Schedule for Sketched {}

/// Radix top-K on the pass machine with digit schedule `S`:
/// [`AirTopK`](crate::AirTopK) is `RadixTopK<MsbFirst>` and
/// [`RadiK`](crate::RadiK) is `RadixTopK<Sketched>`.
#[derive(Debug, Clone)]
pub struct RadixTopK<S> {
    cfg: AirConfig,
    schedule: PhantomData<S>,
}

impl<S: Schedule> Default for RadixTopK<S> {
    fn default() -> Self {
        Self::new(AirConfig::default())
    }
}

impl<S: Schedule> RadixTopK<S> {
    /// Create with explicit configuration.
    pub fn new(cfg: AirConfig) -> Self {
        assert!(
            (1..=16).contains(&cfg.bits_per_pass),
            "bits_per_pass must be in 1..=16"
        );
        assert!(cfg.alpha >= 4, "alpha below its lower bound of 4 (§3.2)");
        RadixTopK {
            cfg,
            schedule: PhantomData,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AirConfig {
        &self.cfg
    }
}

impl<S: Schedule, T: RadixKey> RowSelect<T> for RadixTopK<S> {
    fn row_labels(&self) -> (&'static str, &'static str) {
        S::ROW_LABELS
    }

    fn run_rows(
        &self,
        gpu: &mut Gpu,
        inputs: Rows<'_, T>,
        k: usize,
    ) -> Result<TypedOutput<T>, TopKError> {
        let n = inputs.n();
        let plan = RadixPlan::new(
            gpu.spec(),
            &self.cfg,
            n,
            k,
            inputs.batch(),
            bits::<T>(),
            S::SKETCHED,
        );
        // Workspace and outputs are tracked by guards so every `?`
        // below releases the simulated allocations instead of leaking
        // them into the device's `mem_allocated` accounting.
        ScratchGuard::scope(gpu, |gpu, ws, outs| match plan.path {
            // Trivial selection (§3.3's observation applied at the API
            // boundary): every element is a result, so a single copy
            // kernel suffices. The host knows K and N, no device work
            // is needed to decide this.
            Path::CopyAll => Self::copy_all(gpu, outs, inputs, &plan),
            // A sketch pass can't pay for itself here either.
            Path::OneBlock => self.one_block(gpu, outs, inputs, k, &plan),
            Path::MultiPass => {
                let m = Passes::<S, T>::alloc(&self.cfg, plan, gpu, ws, outs, inputs)?;
                m.launch_sketch(gpu)?;
                for round in 0..m.plan.rounds {
                    m.launch_round(gpu, round)?;
                }
                m.launch_last_filter(gpu)?;
                Ok((m.out_val, m.out_idx))
            }
        })
    }
}

impl<S: Schedule> RadixTopK<S> {
    /// K = N: copy everything out with identity indices, one coalesced
    /// kernel for the whole batch.
    fn copy_all<T: RadixKey>(
        gpu: &mut Gpu,
        outs: &mut ScratchGuard,
        inputs: Rows<'_, T>,
        plan: &RadixPlan,
    ) -> Result<TypedOutput<T>, TopKError> {
        let n = inputs.n();
        let batch = inputs.batch();
        let out_val = outs.alloc::<T>(gpu, "air_out_val", batch * n)?;
        let out_idx = outs.alloc::<u32>(gpu, "air_out_idx", batch * n)?;
        let bpp = plan.bpp;
        // A problem's bpp blocks cover its n-slot row with clamped
        // chunks — group-affine, block-coordinated within the row.
        let contract = inputs
            .declare_reads(KernelContract::new("trivial_copy_kernel"))
            .writes_shared(&out_val, Footprint::per_group(bpp, n))
            .writes_shared(&out_idx, Footprint::per_group(bpp, n));
        gpu.try_launch_checked(&contract, plan.main.config(), |ctx| {
            let (prob, blk) = (ctx.block_idx / bpp, ctx.block_idx % bpp);
            let (start, end) = plan.span(blk);
            let end = end.min(n);
            for (i, v) in (start..end).zip(inputs.tile(ctx, prob, start, end)) {
                ctx.st(&out_val, prob * n + i, v);
                ctx.st(&out_idx, prob * n + i, i as u32);
            }
            ctx.ops((end - start) as u64);
        })?;
        Ok((out_val, out_idx))
    }

    /// The one-block fast path (see [`ONE_BLOCK_THRESHOLD`]): one
    /// thread block per problem runs every MSB-first radix pass
    /// internally, keeping candidates in shared memory. One launch for
    /// the whole batch, input read once, no candidate buffers in device
    /// memory.
    fn one_block<T: RadixKey>(
        &self,
        gpu: &mut Gpu,
        outs: &mut ScratchGuard,
        inputs: Rows<'_, T>,
        k: usize,
        plan: &RadixPlan,
    ) -> Result<TypedOutput<T>, TopKError> {
        let n = inputs.n();
        let b = self.cfg.bits_per_pass;
        let (passes, radix) = (plan.rounds, plan.radix);
        let batch = inputs.batch();
        let out_val = outs.alloc::<T>(gpu, "air_out_val", batch * k)?;
        let out_idx = outs.alloc::<u32>(gpu, "air_out_idx", batch * k)?;
        let contract = inputs
            .declare_reads(KernelContract::new("radix_topk_one_block_kernel"))
            .writes(&out_val, Footprint::per_block(k))
            .writes(&out_idx, Footprint::per_block(k))
            .uses_shared_mem(plan.main.shared_bytes());
        gpu.try_launch_checked(&contract, plan.main.config(), |ctx| {
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
            let emit = |ctx: &mut BlockCtx, bits: T::Ordered, idx: u32, out: &mut usize| {
                debug_assert!(*out < k);
                ctx.st(&out_val, prob * k + *out, T::from_ordered(bits));
                ctx.st(&out_idx, prob * k + *out, idx);
                *out += 1;
            };

            for pass in 0..passes {
                // Histogram of this pass's digit over the live
                // candidates (a block-internal __syncthreads()
                // separates these phases on real hardware).
                let win = Window::msb::<T::Ordered>(pass, b);
                let mut hist = vec![0u32; radix];
                for &bits in &cand_bits[..count] {
                    hist[win.digit(bits)] += 1;
                }
                ctx.ops(2 * count as u64);

                // Prefix-scan for the target digit.
                let (target, below, _) = target_digit(hist.iter().copied(), k_rem);
                ctx.ops(2 << win.width);
                k_rem -= below;

                // Filter in place: emit sure results, keep ties
                // with the target digit.
                let mut kept = 0usize;
                for i in 0..count {
                    let d = win.digit(cand_bits[i]) as u32;
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
                if self.cfg.early_stop && k_rem as usize == count {
                    obs::counters().air_early_stops.fetch_add(1, Relaxed);
                    break;
                }
            }

            // Remaining candidates are ties on the full key (or the
            // early-stop set): take the first k_rem.
            for i in 0..count.min(k_rem as usize) {
                emit(ctx, cand_bits[i], cand_idx[i], &mut out);
            }
            debug_assert_eq!(out, k);
        })?;
        Ok((out_val, out_idx))
    }
}

impl<S: Schedule> TopKAlgorithm for RadixTopK<S> {
    fn name(&self) -> &'static str {
        S::NAME
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

/// A round's digit: `width` key bits starting `offset` bits below the
/// MSB.
#[derive(Clone, Copy, Default)]
pub(crate) struct Window {
    offset: u32,
    pub(crate) width: u32,
}

impl Window {
    /// The MSB-first schedule's window of round `r`: `b` bits, or fewer
    /// in the last round of an `O`-wide key.
    pub(crate) fn msb<O: OrderedBits>(r: usize, b: u32) -> Self {
        Window {
            offset: r as u32 * b,
            width: digit_width_of::<O>(r as u32, b),
        }
    }

    #[inline(always)]
    pub(crate) fn digit<O: OrderedBits>(self, key: O) -> usize {
        digit_at::<O>(key, self.offset, self.width) as usize
    }
}

/// The sketched schedule's key ranges, in the ordered-bit domain: each
/// problem's (from the sketch) and each round's scanned candidates'.
struct Range<O: DeviceScalar> {
    gmin: DeviceBuffer<O>,
    gmax: DeviceBuffer<O>,
    minb: DeviceBuffer<O>,
    maxb: DeviceBuffer<O>,
}

/// One multi-pass selection: its geometry and device state, shared by
/// its kernels. Candidate buffers alternate by round parity.
struct Passes<'a, S, T: RadixKey> {
    cfg: &'a AirConfig,
    plan: RadixPlan,
    inputs: Rows<'a, T>,
    k: usize,
    ctrl: DeviceBuffer<u32>,
    prefixes: DeviceBuffer<u64>,
    range: Option<Range<T::Ordered>>,
    hist: DeviceBuffer<u32>,
    sketch_done: Option<DeviceBuffer<u32>>,
    done: DeviceBuffer<u32>,
    buf_val: [DeviceBuffer<T>; 2],
    buf_idx: [DeviceBuffer<u32>; 2],
    out_val: DeviceBuffer<T>,
    out_idx: DeviceBuffer<u32>,
    schedule: PhantomData<S>,
}

fn bits<T: RadixKey>() -> u32 {
    <T::Ordered as OrderedBits>::BITS
}

/// Scan digit counts for the digit holding the `k_rem`-th smallest
/// candidate (Algorithm 1 lines 23-26): returns it, the count below
/// it, and its own count. Reads counts only up to that digit.
fn target_digit(counts: impl Iterator<Item = u32>, k_rem: u32) -> (u32, u32, u32) {
    let mut below = 0;
    for (d, h) in counts.enumerate() {
        if below + h >= k_rem {
            return (d as u32, below, h);
        }
        below += h;
    }
    (0, 0, 0)
}

impl<'a, S: Schedule, T: RadixKey> Passes<'a, S, T> {
    /// Allocate the workspace and outputs through the caller's guards.
    /// Allocation order and labels are part of the fault schedule: each
    /// one is a fault draw, and its label goes into the fault log.
    #[allow(clippy::too_many_arguments)]
    fn alloc(
        cfg: &'a AirConfig,
        plan: RadixPlan,
        gpu: &mut Gpu,
        ws: &mut ScratchGuard,
        outs: &mut ScratchGuard,
        inputs: Rows<'a, T>,
    ) -> Result<Self, TopKError> {
        let batch = inputs.batch();
        let RadixPlan {
            k,
            rounds,
            radix,
            cap,
            lay,
            pfx_len,
            ..
        } = plan;
        let label = |name: &str| format!("{}_{name}", S::LABEL);

        let (lo, hi) = (
            <T::Ordered as OrderedBits>::MAX,
            <T::Ordered as OrderedBits>::ZERO,
        );
        let m = Passes {
            ctrl: ws.alloc::<u32>(gpu, &label("ctrl"), batch * lay.stride)?,
            prefixes: ws.alloc::<u64>(gpu, S::PREFIXES, batch * pfx_len)?,
            range: match S::SKETCHED {
                true => Some(Range {
                    gmin: ws.alloc(gpu, "radik_gmin", batch)?,
                    gmax: ws.alloc(gpu, "radik_gmax", batch)?,
                    minb: ws.alloc(gpu, "radik_minb", batch * rounds)?,
                    maxb: ws.alloc(gpu, "radik_maxb", batch * rounds)?,
                }),
                false => None,
            },
            hist: ws.alloc::<u32>(gpu, &label("hist"), batch * rounds * radix)?,
            sketch_done: match S::SKETCHED {
                true => Some(ws.alloc::<u32>(gpu, "radik_sketch_done", batch)?),
                false => None,
            },
            done: ws.alloc::<u32>(gpu, &label("done"), batch * rounds)?,
            buf_val: [
                ws.alloc::<T>(gpu, &label("buf_val0"), batch * cap)?,
                ws.alloc::<T>(gpu, &label("buf_val1"), batch * cap)?,
            ],
            buf_idx: [
                ws.alloc::<u32>(gpu, &label("buf_idx0"), batch * cap)?,
                ws.alloc::<u32>(gpu, &label("buf_idx1"), batch * cap)?,
            ],
            out_val: outs.alloc::<T>(gpu, &label("out_val"), batch * k)?,
            out_idx: outs.alloc::<u32>(gpu, &label("out_idx"), batch * k)?,
            cfg,
            plan,
            inputs,
            k,
            schedule: PhantomData,
        };
        // No init kernel: K and N are launch constants baked into the
        // kernels (as RAFT does). Control words, histograms, and done
        // counters start from an explicit host memset (cudaMemsetAsync
        // territory — allocation contents are garbage on a real
        // device). The remaining-K control slot only becomes live once
        // round 0's last block writes it.
        m.ctrl.fill(0);
        m.hist.fill(0);
        m.done.fill(0);
        if let (Some(r), Some(d)) = (&m.range, &m.sketch_done) {
            d.fill(0);
            for (buf, init) in [(&r.gmin, lo), (&r.gmax, hi), (&r.minb, lo), (&r.maxb, hi)] {
                buf.fill(init);
            }
        }
        Ok(m)
    }

    /// Round `r`'s digit window: derived (MSB-first), or stored by the
    /// sketch or by round `r - 1`'s last block (sketched).
    #[inline(always)]
    fn window(&self, ctx: &mut BlockCtx<'_>, cb: usize, r: usize) -> Window {
        let b = self.cfg.bits_per_pass;
        if !S::SKETCHED {
            return Window::msb::<T::Ordered>(r, b);
        }
        let offset = ctx.ld(&self.ctrl, cb + self.plan.lay.offset + r);
        let width = b.min(bits::<T>() - offset.min(bits::<T>() - 1));
        Window { offset, width }
    }

    /// Slot of the prefix every round-`r` candidate shares: its key
    /// bits above round `r`'s window.
    fn prefix_slot(&self, prob: usize, r: usize) -> usize {
        prob * self.plan.pfx_len + r - !S::SKETCHED as usize
    }

    #[inline(always)]
    fn load_prefix(&self, ctx: &mut BlockCtx<'_>, prob: usize, r: usize) -> u64 {
        let slot = (S::SKETCHED || r > 0).then(|| self.prefix_slot(prob, r));
        slot.map_or(0, |i| ctx.ld(&self.prefixes, i))
    }

    /// Block `blk`'s share `start..end` of its problem's source: the
    /// buffered candidates, or the input row.
    fn span(
        &self,
        ctx: &mut BlockCtx<'_>,
        cb: usize,
        blk: usize,
        buffered: bool,
    ) -> (usize, usize) {
        let len = match buffered {
            true => ctx.ld(&self.ctrl, cb + SRC_COUNT) as usize,
            false => self.inputs.n(),
        };
        let (start, end) = self.plan.span(blk);
        (start, end.min(len))
    }

    /// One block's share `start..end` of the source of round `r`'s
    /// sweep: the candidates round `r - 1` buffered, or the input row.
    fn source<'b>(
        &'b self,
        ctx: &mut BlockCtx<'_>,
        prob: usize,
        range: (usize, usize),
        buffered: bool,
        r: usize,
    ) -> Candidates<'b, T> {
        let sel = (r + 1) % 2;
        let buffered =
            buffered.then(|| (&self.buf_val[sel], &self.buf_idx[sel], prob * self.plan.cap));
        self.inputs.source(ctx, prob, range.0, range.1, buffered)
    }

    /// The sweep over round `r`'s source (`r == rounds` for the last
    /// filter): round `r - 1`'s window, target digit and candidate
    /// prefix, and `next`, the window to histogram.
    fn sweep(
        &self,
        ctx: &mut BlockCtx<'_>,
        prob: usize,
        cb: usize,
        r: usize,
        k_rem: u32,
        next: Window,
    ) -> RoundSweep<'_, S, T> {
        RoundSweep {
            m: self,
            sink: Sink {
                ctrl: &self.ctrl,
                cb,
                out_val: &self.out_val,
                out_idx: &self.out_idx,
                base: prob * self.k,
                k: self.k,
            },
            prob,
            round: r,
            k_rem,
            prev: self.window(ctx, cb, r - 1),
            target: ctx.ld(&self.ctrl, cb + self.plan.lay.target + r - 1),
            prefix: self.load_prefix(ctx, prob, r - 1),
            next,
        }
    }

    /// The sketched schedule's first kernel: each problem's global key
    /// range, whose shared leading bits round 0's window starts below.
    /// MSB-first has no sketch.
    fn launch_sketch(&self, gpu: &mut Gpu) -> Result<(), TopKError> {
        let (Some(r), Some(sketch_done)) = (&self.range, &self.sketch_done) else {
            return Ok(());
        };
        let bpp = self.plan.bpp;
        let contract = self
            .inputs
            .declare_reads(KernelContract::new("radik_sketch_kernel"))
            .coordinates(&r.gmin, Footprint::per_group(bpp, 1))
            .coordinates(&r.gmax, Footprint::per_group(bpp, 1))
            .atomics(sketch_done, Footprint::per_group(bpp, 1))
            .writes_shared(&self.ctrl, Footprint::per_group(bpp, self.plan.lay.stride))
            .writes_shared(&self.prefixes, Footprint::per_group(bpp, self.plan.pfx_len));
        gpu.try_launch_checked(&contract, self.plan.sweep.config(), |ctx| {
            let prob = ctx.block_idx / bpp;
            let (start, end) = self.plan.span(ctx.block_idx % bpp);
            let tile = self.inputs.tile(ctx, prob, start, end.min(self.inputs.n()));
            let mut keys = tile.iter().map(|v| v.to_ordered());
            if let Some(first) = keys.next() {
                let (mn, mx) = keys.fold((first, first), |(mn, mx), o| (mn.min(o), mx.max(o)));
                // Three ops per element after the first, charged once.
                ctx.ops(3 * (tile.len() as u64 - 1));
                // Raw unsigned min/max on ordered bits == value order.
                ctx.atomic_min_raw(&r.gmin, prob, mn);
                ctx.atomic_max_raw(&r.gmax, prob, mx);
            }
            let prev = ctx.atomic_add_sync(sketch_done, prob, 1);
            if prev + 1 == bpp as u32 {
                let (mn, mx) = (ctx.ld(&r.gmin, prob), ctx.ld(&r.gmax, prob));
                // Clamp below the key width: a zero-width round-0
                // digit would be meaningless (all-identical inputs
                // still take one 1-bit round and resolve as ties).
                let cp = common_prefix_len_of::<T::Ordered>(mn, mx).min(bits::<T>() - 1);
                ctx.st(
                    &self.ctrl,
                    prob * self.plan.lay.stride + self.plan.lay.offset,
                    cp,
                );
                ctx.st(&self.prefixes, self.prefix_slot(prob, 0), prefix_of(mn, cp));
                ctx.ops(4);
                if cp > 0 {
                    obs::counters()
                        .radik_skipped_bits
                        .fetch_add(cp as u64, Relaxed);
                }
            }
        })?;
        Ok(())
    }

    fn launch_round(&self, gpu: &mut Gpu, round: usize) -> Result<(), TopKError> {
        let (bpp, rounds, cap) = (self.plan.bpp, self.plan.rounds, self.plan.cap);
        let (read, write) = ((round + 1) % 2, round % 2);
        let slice = |len| Footprint::group_slice(bpp, round * len, rounds * len, len);
        let mut contract = self
            .inputs
            .declare_reads(KernelContract::new(S::KERNELS[0]))
            .coordinates(&self.ctrl, Footprint::per_group(bpp, self.plan.lay.stride))
            .coordinates(&self.prefixes, Footprint::per_group(bpp, self.plan.pfx_len))
            .coordinates(&self.hist, slice(self.plan.radix));
        if let Some(r) = &self.range {
            contract = contract
                .coordinates(&r.minb, slice(1))
                .coordinates(&r.maxb, slice(1));
        }
        let contract = contract
            .atomics(&self.done, slice(1))
            .reads(&self.buf_val[read], Footprint::per_group(bpp, cap))
            .reads(&self.buf_idx[read], Footprint::per_group(bpp, cap))
            .writes_shared(&self.buf_val[write], Footprint::per_group(bpp, cap))
            .writes_shared(&self.buf_idx[write], Footprint::per_group(bpp, cap))
            .writes_shared(&self.out_val, Footprint::per_group(bpp, self.k))
            .writes_shared(&self.out_idx, Footprint::per_group(bpp, self.k))
            .uses_shared_mem(self.plan.main.shared_bytes());
        let cfg = self.plan.main.config();
        gpu.try_launch_checked(&contract, cfg, |ctx| self.round(ctx, round))?;
        Ok(())
    }

    /// One block of the fused round kernel: filter round `round - 1`'s
    /// candidates and histogram this round's window (Algorithm 1 lines
    /// 8-22).
    fn round(&self, ctx: &mut BlockCtx<'_>, round: usize) {
        let (prob, blk) = (ctx.block_idx / self.plan.bpp, ctx.block_idx % self.plan.bpp);
        let cb = prob * self.plan.lay.stride;
        if ctx.ld(&self.ctrl, cb + FINISHED) != 0 {
            return;
        }
        let early = round > 0 && ctx.ld(&self.ctrl, cb + EARLY) != 0;
        let ties = S::SKETCHED && round > 0 && ctx.ld(&self.ctrl, cb + TIES) != 0;
        let src_is_buf = round > 0 && ctx.ld(&self.ctrl, cb + SRC_BUFFERED) != 0;
        let (start, end) = self.span(ctx, cb, blk, src_is_buf);
        let store = !early && !ties && round > 0 && ctx.ld(&self.ctrl, cb + STORE_CUR) != 0;
        let win = self.window(ctx, cb, round);
        // A sketched round may admit ties by rank, so its every block
        // reads K; MSB-first reads it in the last block only.
        let k_rem = if round == 0 {
            Some(self.k as u32)
        } else if S::SKETCHED {
            Some(ctx.ld(&self.ctrl, cb + K_REM))
        } else {
            None
        };
        let mut hist = Vec::new();
        if !early && !ties {
            hist = ctx.shared_alloc::<u32>(self.plan.radix);
        }

        // One loop per round kind, so the round-invariant flags stay
        // out of the per-element work.
        let swept = if round == 0 {
            // Histogram of the first window only.
            let row = self.inputs.tile(ctx, prob, start, end);
            for v in row {
                hist[win.digit(v.to_ordered())] += 1;
            }
            // load index math + ordered-bit transform, then digit
            // extract + shared-memory histogram
            ctx.ops(8 * row.len() as u64);
            None
        } else {
            let kind = match (ties, early, store) {
                (true, ..) => Sweep::Ties,
                (_, true, _) => Sweep::Early,
                (.., true) => Sweep::FilterStore,
                _ => Sweep::Filter,
            };
            // MSB-first rounds never tie, so their sweeps need no K.
            let sweep = self.sweep(ctx, prob, cb, round, k_rem.unwrap_or(0), win);
            let src = self.source(ctx, prob, (start, end), src_is_buf, round);
            let sw = sweep.run(ctx, src, &mut hist, kind);
            // Per element: load index math + ordered-bit transform (4);
            // then either the prefix check that settles it (1) or digit
            // extract + filter branch logic (8); candidates add the
            // schedule's CANDIDATE_OPS.
            ctx.ops(
                4 * sw.len
                    + sw.skipped
                    + 8 * (sw.len - sw.skipped)
                    + S::CANDIDATE_OPS * sw.candidates,
            );
            Some(sw)
        };

        // Flush the block-local histogram to the global one.
        if !hist.is_empty() {
            let hbase = (prob * self.plan.rounds + round) * self.plan.radix;
            for (d, &c) in hist.iter().enumerate() {
                if c != 0 {
                    ctx.atomic_add(&self.hist, hbase + d, c);
                }
            }
            ctx.ops(self.plan.radix as u64);
        }
        if let (Some(r), Some(sw)) = (&self.range, swept.filter(|sw| sw.candidates > 0)) {
            ctx.atomic_min_raw(&r.minb, prob * self.plan.rounds + round, sw.min);
            ctx.atomic_max_raw(&r.maxb, prob * self.plan.rounds + round, sw.max);
        }

        // Last finishing block of this problem.
        let prev = ctx.atomic_add_sync(&self.done, prob * self.plan.rounds + round, 1);
        if prev + 1 != self.plan.bpp as u32 {
            return;
        }
        // Observability hook: one event per (problem, round) — the
        // per-iteration signal the §3.2/§3.3 ablation figures are built
        // from, counted at runtime.
        let counters = obs::counters();
        let rounds_counter = if S::SKETCHED {
            &counters.radik_rounds
        } else {
            &counters.air_passes
        };
        rounds_counter.fetch_add(1, Relaxed);
        if early || ties {
            ctx.st(&self.ctrl, cb + FINISHED, 1);
            ctx.st(&self.ctrl, cb + EARLY, 0);
            if S::SKETCHED {
                ctx.st(&self.ctrl, cb + TIES, 0);
            }
            return;
        }
        self.conclude(ctx, prob, round, win, k_rem, store);
    }

    /// The last finishing block's work for a live problem: the prefix
    /// sum and target digit (Algorithm 1 lines 23-28) and the next
    /// round's flags, entirely on-device.
    fn conclude(
        &self,
        ctx: &mut BlockCtx<'_>,
        prob: usize,
        round: usize,
        win: Window,
        k_rem: Option<u32>,
        store: bool,
    ) {
        let cb = prob * self.plan.lay.stride;
        let k_rem = k_rem.unwrap_or_else(|| ctx.ld(&self.ctrl, cb + K_REM));
        let hbase = (prob * self.plan.rounds + round) * self.plan.radix;
        let r_round = 1usize << win.width;
        let counts = (hbase..hbase + r_round).map(|i| ctx.ld(&self.hist, i));
        let (target, psum_before, e_next) = target_digit(counts, k_rem);
        ctx.ops(2 * r_round as u64);

        let k_next = k_rem - psum_before;
        ctx.st(&self.ctrl, cb + self.plan.lay.target + round, target);
        ctx.st(&self.ctrl, cb + K_REM, k_next);
        // The next round's window, and the candidate prefix extended by
        // this round's target digit and the bits that window skips.
        let base = win.offset + win.width;
        let (offset_next, skipped) = if S::SKETCHED && round > 0 {
            self.skip_shared(ctx, prob, round, base)
        } else {
            (base, 0)
        };
        let prefix = self.load_prefix(ctx, prob, round);
        let extended = (((prefix << win.width) | target as u64) << (offset_next - base)) | skipped;
        ctx.st(&self.prefixes, self.prefix_slot(prob, round + 1), extended);
        if S::SKETCHED {
            ctx.st(
                &self.ctrl,
                cb + self.plan.lay.offset + round + 1,
                offset_next,
            );
        }

        // Flags for the next kernel (Algorithm 1 line 7 and the §3.2
        // storing rule).
        ctx.st(&self.ctrl, cb + SRC_BUFFERED, store as u32);
        if store {
            let cnt = ctx.ld(&self.ctrl, cb + self.plan.lay.buf_cursor + round);
            ctx.st(&self.ctrl, cb + SRC_COUNT, cnt);
        }
        let (adaptive, alpha) = (self.cfg.adaptive, self.cfg.alpha);
        let is_early = self.cfg.early_stop && k_next == e_next;
        let is_ties = S::SKETCHED && !is_early && offset_next >= bits::<T>();
        let store_next = !is_early
            && !is_ties
            && (!adaptive || (e_next as usize).saturating_mul(alpha) < self.inputs.n());
        ctx.st(&self.ctrl, cb + STORE_CUR, store_next as u32);
        ctx.st(&self.ctrl, cb + EARLY, is_early as u32);
        ctx.ops(8);
        if S::SKETCHED {
            ctx.st(&self.ctrl, cb + TIES, is_ties as u32);
            return;
        }
        let counters = obs::counters();
        if is_early {
            counters.air_early_stops.fetch_add(1, Relaxed);
        } else if store_next {
            counters.air_buffer_writes.fetch_add(1, Relaxed);
        } else if adaptive {
            counters.air_adaptive_skips.fetch_add(1, Relaxed);
        }
    }

    /// Adaptive digit ordering (sketched): the next round starts past
    /// every bit the scanned candidates share (survivors are a subset,
    /// so the bound is safe). Returns its offset and the skipped bits.
    fn skip_shared(
        &self,
        ctx: &mut BlockCtx<'_>,
        prob: usize,
        round: usize,
        base: u32,
    ) -> (u32, u64) {
        let r = self.range.as_ref().expect("sketched ranges");
        let i = prob * self.plan.rounds + round;
        let (mn, mx) = (ctx.ld(&r.minb, i), ctx.ld(&r.maxb, i));
        let next = base.max(common_prefix_len_of::<T::Ordered>(mn, mx));
        let extra = next - base;
        if extra == 0 {
            return (base, 0);
        }
        obs::counters()
            .radik_skipped_bits
            .fetch_add(extra as u64, Relaxed);
        // Every candidate agrees on bits [base, next): read them off
        // the candidates' minimum.
        let skipped = prefix_of(mn, next) & ((1u64 << extra) - 1);
        (next, skipped)
    }

    /// The last filter (§2.3's final "Filtering" step). Sketched
    /// windows advance at least b bits per round, so a live sketched
    /// problem left its last round early or tied; MSB-first admits the
    /// last digit's ties by rank either way, even after an early stop.
    fn launch_last_filter(&self, gpu: &mut Gpu) -> Result<(), TopKError> {
        let bpp = self.plan.bpp;
        let read = (self.plan.rounds - 1) % 2;
        let contract = self
            .inputs
            .declare_reads(KernelContract::new(S::KERNELS[1]))
            .coordinates(&self.ctrl, Footprint::per_group(bpp, self.plan.lay.stride))
            .reads(&self.prefixes, Footprint::per_group(bpp, self.plan.pfx_len))
            .reads(
                &self.buf_val[read],
                Footprint::per_group(bpp, self.plan.cap),
            )
            .reads(
                &self.buf_idx[read],
                Footprint::per_group(bpp, self.plan.cap),
            )
            .writes_shared(&self.out_val, Footprint::per_group(bpp, self.k))
            .writes_shared(&self.out_idx, Footprint::per_group(bpp, self.k));
        gpu.try_launch_checked(&contract, self.plan.sweep.config(), |ctx| {
            let (prob, blk) = (ctx.block_idx / self.plan.bpp, ctx.block_idx % self.plan.bpp);
            let cb = prob * self.plan.lay.stride;
            if ctx.ld(&self.ctrl, cb + FINISHED) != 0 {
                return;
            }
            let early = S::SKETCHED && {
                let early = ctx.ld(&self.ctrl, cb + EARLY) != 0;
                let ties = ctx.ld(&self.ctrl, cb + TIES) != 0;
                debug_assert!(
                    early || ties,
                    "a problem left the round loop in a non-terminal state"
                );
                early
            };
            let src_is_buf = ctx.ld(&self.ctrl, cb + SRC_BUFFERED) != 0;
            let (start, end) = self.span(ctx, cb, blk, src_is_buf);
            let k_rem = ctx.ld(&self.ctrl, cb + K_REM);
            // The terminal kinds neither store nor histogram, so there is
            // no next window.
            let sweep = self.sweep(ctx, prob, cb, self.plan.rounds, k_rem, Window::default());
            let src = self.source(ctx, prob, (start, end), src_is_buf, self.plan.rounds);
            let kind = if early { Sweep::Early } else { Sweep::Ties };
            let sw = sweep.run(ctx, src, &mut [], kind);
            // Per element: load + ordered-bit transform (3); then the
            // prefix check that settles it (1) or digit extract +
            // admission (2).
            ctx.ops(3 * sw.len + sw.skipped + 2 * (sw.len - sw.skipped));
        })?;
        Ok(())
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
    /// digit (and, sketched, track their range).
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

/// Where one problem's results go (Algorithm 1 line 22): each through
/// the output cursor, and ties on the kth value admitted by rank
/// through the tie cursor, as RAFT's `last_filter` does.
pub(crate) struct Sink<'a, T: DeviceScalar> {
    pub(crate) ctrl: &'a DeviceBuffer<u32>,
    /// The problem's control block.
    pub(crate) cb: usize,
    pub(crate) out_val: &'a DeviceBuffer<T>,
    pub(crate) out_idx: &'a DeviceBuffer<u32>,
    /// The problem's first output slot.
    pub(crate) base: usize,
    pub(crate) k: usize,
}

impl<T: DeviceScalar> Sink<'_, T> {
    #[inline(always)]
    pub(crate) fn emit(&self, ctx: &mut BlockCtx<'_>, v: T, idx: u32) {
        let pos = ctx.atomic_add(self.ctrl, self.cb + OUT_CURSOR, 1) as usize;
        debug_assert!(pos < self.k);
        ctx.st_scatter(self.out_val, self.base + pos, v);
        ctx.st_scatter(self.out_idx, self.base + pos, idx);
    }

    /// Admit one element tied with the kth value on the full key: the
    /// first `k_rem` by rank are results.
    #[inline(always)]
    pub(crate) fn admit_tie(&self, ctx: &mut BlockCtx<'_>, k_rem: u32, v: T, idx: u32) {
        let rank = ctx.atomic_add(self.ctrl, self.cb + TIE_CURSOR, 1);
        if rank < k_rem {
            self.emit(ctx, v, idx);
        }
    }
}

/// Per-block constants of one sweep over round `round`'s source (the
/// last filter's when `round == rounds`): the previous round's window,
/// target digit and prefix, and where results and candidates go.
struct RoundSweep<'a, S, T: RadixKey> {
    m: &'a Passes<'a, S, T>,
    sink: Sink<'a, T>,
    prob: usize,
    round: usize,
    k_rem: u32,
    prev: Window,
    target: u32,
    /// The leading `prev.offset` key bits every live element has.
    prefix: u64,
    /// This round's histogram window.
    next: Window,
}

impl<S: Schedule, T: RadixKey> RoundSweep<'_, S, T> {
    /// Sweep one block's share of the source as `kind`.
    fn run(
        &self,
        ctx: &mut BlockCtx<'_>,
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
        ctx: &mut BlockCtx<'_>,
        src: Candidates<'_, T>,
        hist: &mut [u32],
    ) -> Swept<T::Ordered> {
        match src {
            Candidates::Buffered(items) => self.sweep_as::<KIND, false, _>(ctx, items, hist),
            Candidates::Input(items) if self.prev.offset > 0 => {
                self.sweep_as::<KIND, true, _>(ctx, items, hist)
            }
            Candidates::Input(items) => self.sweep_as::<KIND, false, _>(ctx, items, hist),
        }
    }

    #[inline(always)]
    fn sweep_as<const KIND: u8, const SETTLED: bool, I>(
        &self,
        ctx: &mut BlockCtx<'_>,
        items: I,
        hist: &mut [u32],
    ) -> Swept<T::Ordered>
    where
        I: Iterator<Item = (T, u32)>,
    {
        let (prev, target) = (self.prev, self.target);
        let mut sw = Swept {
            len: 0,
            skipped: 0,
            candidates: 0,
            min: <T::Ordered as OrderedBits>::MAX,
            max: <T::Ordered as OrderedBits>::ZERO,
        };
        let (mut len, mut skipped) = (0, 0);
        for (v, idx) in items {
            len += 1;
            let key = v.to_ordered();
            if SETTLED && prefix_of(key, prev.offset) != self.prefix {
                skipped += 1;
                continue;
            }
            // Most elements lie above the target digit; the rest go out of
            // line, so this loop stays short whatever its code alignment.
            let d_prev = prev.digit(key) as u32;
            if d_prev <= target {
                self.admit::<KIND>(ctx, v, idx, d_prev < target, hist, &mut sw);
            }
        }
        sw.len = len;
        sw.skipped = skipped;
        sw
    }

    /// An element at or below the target digit: a result (Algorithm 1
    /// line 22) when `below`, else one that `KIND` emits, ties or keeps.
    #[inline(never)]
    fn admit<const KIND: u8>(
        &self,
        ctx: &mut BlockCtx<'_>,
        v: T,
        idx: u32,
        below: bool,
        hist: &mut [u32],
        sw: &mut Swept<T::Ordered>,
    ) {
        if below || KIND == Sweep::Early as u8 {
            self.sink.emit(ctx, v, idx);
        } else if KIND == Sweep::Ties as u8 {
            self.sink.admit_tie(ctx, self.k_rem, v, idx);
        } else {
            // Candidate: buffer (lines 17-18), histogram (lines 19-20).
            if KIND == Sweep::FilterStore as u8 {
                self.store(ctx, v, idx);
            }
            let key = v.to_ordered();
            hist[self.next.digit(key)] += 1;
            if S::SKETCHED {
                // The raw material for adaptive digit ordering.
                sw.min = sw.min.min(key);
                sw.max = sw.max.max(key);
            }
            sw.candidates += 1;
        }
    }

    /// Buffer one candidate for the next round.
    #[inline(always)]
    fn store(&self, ctx: &mut BlockCtx<'_>, v: T, idx: u32) {
        let m = self.m;
        let sel = self.round % 2;
        let pos = ctx.atomic_add(
            &m.ctrl,
            self.sink.cb + m.plan.lay.buf_cursor + self.round,
            1,
        ) as usize;
        debug_assert!(pos < m.plan.cap);
        ctx.st_scatter(&m.buf_val[sel], self.prob * m.plan.cap + pos, v);
        ctx.st_scatter(&m.buf_idx[sel], self.prob * m.plan.cap + pos, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_topk_typed;
    use crate::{AirTopK, RadiK};
    use gpu_sim::SanitizerMode;

    /// `n` keys whose ordered bits vary only at the first bit of each
    /// `b`-bit round window, one bit per window from `i`'s low bits;
    /// every other bit is set. Each round's candidates span its window's
    /// first bit, so no round skips bits, and the smallest key repeats
    /// `n / 2^rounds` times: at smaller K no round stops early. So every
    /// round kernel histograms, and allocates the shared memory its
    /// plan declares.
    fn keys<T: RadixKey>(n: usize, b: u32) -> Vec<T> {
        let bits = bits::<T>();
        let rounds = bits.div_ceil(b);
        let ones = u64::MAX >> (64 - bits);
        (0..n)
            .map(|i| {
                let pattern = (0..rounds)
                    .filter(|r| (i >> r) & 1 == 1)
                    .fold(0u64, |o, r| o | 1 << (bits - 1 - r * b));
                T::from_ordered(T::Ordered::from_u64(ones & !pattern))
            })
            .collect()
    }

    /// `n` distinct keys: a permutation of the ordered range just above
    /// the sign bit (no NaN), so every K-set answer is unique.
    fn distinct<T: RadixKey>(n: usize) -> Vec<T> {
        let top = 1u64 << (bits::<T>() - 1);
        let perm = |i: u64| i * 2_654_435_761 % n as u64;
        (0..n as u64)
            .map(|i| T::from_ordered(T::Ordered::from_u64(top | perm(i))))
            .collect()
    }

    /// Grid, block and shared bytes of each launch the kernels make on
    /// `batch` copies of `data` under an armed sanitizer, after checking
    /// every row's answer and that the sanitizer found nothing: in
    /// particular, no block allocated more shared memory than its
    /// contract declares.
    fn observed<T: RadixKey, S: Schedule>(
        spec: &DeviceSpec,
        alg: &RadixTopK<S>,
        data: &[T],
        k: usize,
        batch: usize,
    ) -> Vec<(usize, usize, u64)> {
        let mut gpu = Gpu::new(spec.clone());
        gpu.enable_sanitizer(SanitizerMode {
            armed: true,
            leakcheck: false,
        });
        let rows: Vec<_> = (0..batch).map(|_| gpu.htod("in", data)).collect();
        gpu.reset_profile();
        let (vals, idxs) = alg.run_rows(&mut gpu, Rows::Slices(&rows), k).unwrap();
        let report = gpu.sanitizer_report().expect("armed");
        assert!(report.is_clean(), "{:?}", report.findings);
        let (vals, idxs) = (vals.to_vec(), idxs.to_vec());
        for (row, (v, i)) in vals.chunks(k).zip(idxs.chunks(k)).enumerate() {
            verify_topk_typed(data, k, v, i).unwrap_or_else(|e| panic!("row {row}: {e}"));
        }
        let shape =
            |r: &gpu_sim::KernelReport| (r.cfg.grid_dim, r.cfg.block_dim, r.stats.shared_mem_bytes);
        gpu.reports().iter().map(shape).collect()
    }

    /// Check AIR or RadiK at digit width `b` on `batch` rows of `n`
    /// keys against its plan, and return the plan.
    fn check_cell<T: RadixKey>(
        spec: &DeviceSpec,
        b: u32,
        sketched: bool,
        n: usize,
        k: usize,
        batch: usize,
    ) -> RadixPlan {
        let cfg = AirConfig {
            bits_per_pass: b,
            ..AirConfig::default()
        };
        let data = keys::<T>(n, b);
        let got = match sketched {
            false => observed(spec, &AirTopK::new(cfg.clone()), &data, k, batch),
            true => observed(spec, &RadiK::new(cfg.clone()), &data, k, batch),
        };
        let plan = RadixPlan::new(spec, &cfg, n, k, batch, bits::<T>(), sketched);
        let cell = format!(
            "{} {} bits, b={b} n={n} k={k} batch={batch} sketched={sketched}",
            spec.name,
            bits::<T>()
        );
        let planned: Vec<_> = plan
            .launches(spec, DistSketch::uniform())
            .iter()
            .map(|l| (l.grid_dim, l.block_dim, l.stats.shared_mem_bytes))
            .collect();
        assert_eq!(planned, got, "{cell}");
        plan
    }

    #[test]
    fn plan_is_the_launches_the_machine_makes() {
        // Multi-pass, one-block and copy-all. test_tiny's 16 KiB blocks
        // cannot hold 5,000 one-block candidates, and its blocks stop at
        // 256 threads.
        for spec in [DeviceSpec::a100(), DeviceSpec::test_tiny()] {
            for b in [8, 11] {
                for (n, k) in [(20_000, 50), (5_000, 10), (3_000, 3_000)] {
                    for batch in [1, 3] {
                        for sketched in [false, true] {
                            check_cell::<f32>(&spec, b, sketched, n, k, batch);
                            check_cell::<f64>(&spec, b, sketched, n, k, batch);
                        }
                    }
                }
            }
        }
        // Grids the fill rule cuts below one block per chunk: 1,024
        // chunks at 2^23 (108 blocks), 128 per row at 2^20 × 16 (7 a
        // row), 256 f64 chunks at 2^21 (108).
        let a100 = DeviceSpec::a100();
        let plan = check_cell::<f32>(&a100, 11, false, 1 << 23, 2048, 1);
        assert_eq!(plan.bpp, 108);
        let plan = check_cell::<f32>(&a100, 8, true, 1 << 20, 2048, 16);
        assert_eq!(plan.bpp, 7);
        let plan = check_cell::<f64>(&a100, 11, false, 1 << 21, 2048, 1);
        assert_eq!(plan.bpp, 108);
        // `keys` ties heavily, so any K of its smallest keys answer. On
        // distinct keys (n a power of two, so `distinct` permutes) a
        // block that missed part of its chunk run changes the answer.
        let cfg = |b| AirConfig {
            bits_per_pass: b,
            ..AirConfig::default()
        };
        observed(
            &a100,
            &AirTopK::new(cfg(11)),
            &distinct::<f32>(1 << 23),
            2048,
            1,
        );
        observed(
            &a100,
            &RadiK::new(cfg(8)),
            &distinct::<f32>(1 << 20),
            2048,
            16,
        );
        observed(
            &a100,
            &AirTopK::new(cfg(11)),
            &distinct::<f64>(1 << 21),
            2048,
            1,
        );
    }

    /// Where a problem has no more chunks than the fill point, the plan
    /// keeps one block per chunk: on every real device that holds for
    /// N ≤ 2^16 at batch ≤ 8 (the serving shapes), so their launches
    /// are the ones the machine made before the fill rule.
    #[test]
    fn small_shapes_keep_one_block_per_chunk() {
        for spec in [DeviceSpec::a100(), DeviceSpec::h100(), DeviceSpec::a10()] {
            for b in [8, 11] {
                let cfg = AirConfig {
                    bits_per_pass: b,
                    ..AirConfig::default()
                };
                for n in (1..=16)
                    .map(|e| 1usize << e)
                    .chain([3_000, 20_000, 40_000, 65_535])
                {
                    for k in [1, 32, n / 2, n].into_iter().filter(|&k| k >= 1) {
                        for batch in 1..=8 {
                            for (key_bits, sketched) in [(32, false), (32, true), (64, false)] {
                                let plan =
                                    RadixPlan::new(&spec, &cfg, n, k, batch, key_bits, sketched);
                                let chunk = match plan.path {
                                    Path::CopyAll => 4096,
                                    Path::OneBlock => n,
                                    Path::MultiPass => cfg.block_dim * cfg.items_per_thread,
                                };
                                let bpp = n.div_ceil(chunk).max(1);
                                let cell = format!("{} b={b} n={n} k={k} batch={batch}", spec.name);
                                assert_eq!(plan.chunk, chunk, "{cell}");
                                assert_eq!(plan.bpp, bpp, "{cell}");
                                assert_eq!(plan.main.grid_dim, batch * bpp, "{cell}");
                                for blk in 0..bpp {
                                    assert_eq!(plan.span(blk), (blk * chunk, (blk + 1) * chunk));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
