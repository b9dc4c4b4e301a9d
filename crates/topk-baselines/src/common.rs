//! The partition machine shared by the host-driven partition baselines.
//!
//! RadixSelect (DrTopK's base) and GpuSelection's QuickSelect,
//! BucketSelect and SampleSelect all keep a shrinking candidate set on
//! the device and run the same host-in-the-loop round: classify every
//! candidate, count the classes, copy the counts to the host, then
//! scatter the sure results to the output and the class holding the
//! K-th key to the next candidate buffer. Once the candidates are few,
//! one block sorts them. This module holds that machine once
//! (DESIGN §18):
//!
//! - [`View`]: the live candidates, read through tiles — the raw input
//!   on the first round, a ping-pong buffer pair after it;
//! - [`Classifier`]: the counted round — the class histogram, the
//!   host's prefix scan, and the filter that scatters;
//! - [`Partition`] and [`try_select`]: the driver loop with its
//!   terminal rules, and one allocation and cleanup path.
//!
//! RadixSelect, BucketSelect and SampleSelect are classifiers plus any
//! pre-pass their classifier needs. QuickSelect partitions before it
//! chooses a side, so it keeps its own kernels on the same view,
//! driver and cleanup.

use gpu_sim::{BlockCtx, DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig, TileIter};
use std::iter::Zip;
use std::ops::RangeFrom;
use topk_core::bitonic::bitonic_sort;
use topk_core::error::TopKError;
use topk_core::keys::RadixKey;
use topk_core::scratch::ScratchGuard;
use topk_core::traits::{check_args, TopKAlgorithm, TopKOutput};

/// Below this many candidates, a shrinking loop finishes with one
/// on-device sort.
const SMALL_CUTOFF: usize = 4096;

/// Elements per block of the streaming kernels.
pub(crate) const STREAM_CHUNK: usize = 256 * 8;

/// Grid of a streaming kernel over `n` elements: one block per
/// [`STREAM_CHUNK`].
pub(crate) fn stream_launch(n: usize) -> LaunchConfig {
    LaunchConfig::for_elements(n, 256, 8, usize::MAX)
}

/// Run `f` with a fresh `len`-word device buffer that is freed on every
/// exit (per-round pivots, cursors and parameters).
pub(crate) fn with_buf<T>(
    gpu: &mut Gpu,
    label: &str,
    len: usize,
    f: impl FnOnce(&mut Gpu, &DeviceBuffer<u32>) -> Result<T, TopKError>,
) -> Result<T, TopKError> {
    let buf = gpu.try_alloc::<u32>(label, len)?;
    let r = f(gpu, &buf);
    gpu.free(&buf);
    r
}

/// The live candidates as `(ordered key, input index)` pairs: the raw
/// input until the first scatter, then one ping-pong buffer pair.
#[derive(Clone)]
pub(crate) struct View {
    input: DeviceBuffer<f32>,
    pub(crate) keys: DeviceBuffer<u32>,
    pub(crate) idx: DeviceBuffer<u32>,
    materialised: bool,
    /// Number of candidates.
    pub(crate) n: usize,
}

impl View {
    /// `c` with the view's reads declared.
    pub(crate) fn reads(&self, c: KernelContract) -> KernelContract {
        c.reads(&self.input, Footprint::all())
            .reads(&self.keys, Footprint::all())
            .reads(&self.idx, Footprint::all())
    }

    /// Candidates `start..end` through tile loads. A buffered view loads
    /// the index tile even where the caller drops the index.
    pub(crate) fn tile(&self, ctx: &mut BlockCtx<'_>, start: usize, end: usize) -> Cands<'_> {
        if self.materialised {
            let keys = ctx.ld_tile(&self.keys, start, end);
            Cands::Buffers(keys.iter().zip(ctx.ld_tile(&self.idx, start, end).iter()))
        } else {
            let vals = ctx.ld_tile(&self.input, start, end);
            Cands::Input(vals.iter().zip(start as u32..))
        }
    }

    /// The first `n` candidates.
    pub(crate) fn prefix(&self, n: usize) -> View {
        View { n, ..self.clone() }
    }

    /// This block's [`STREAM_CHUNK`] of the candidates.
    pub(crate) fn chunk(&self, ctx: &mut BlockCtx<'_>) -> Cands<'_> {
        let start = ctx.block_idx * STREAM_CHUNK;
        self.tile(ctx, start, (start + STREAM_CHUNK).min(self.n))
    }

    /// Key of candidate `i`, gathered alone (pivot and sample picks);
    /// a buffered view loads its index too.
    pub(crate) fn key_at(&self, ctx: &mut BlockCtx<'_>, i: usize) -> u32 {
        if self.materialised {
            let key = ctx.ld(&self.keys, i);
            ctx.ld(&self.idx, i);
            key
        } else {
            ctx.ld(&self.input, i).to_ordered()
        }
    }
}

/// Iterator over a [`View`] tile.
pub(crate) enum Cands<'b> {
    Input(Zip<TileIter<'b, f32>, RangeFrom<u32>>),
    Buffers(Zip<TileIter<'b, u32>, TileIter<'b, u32>>),
}

impl Iterator for Cands<'_> {
    type Item = (u32, u32);

    #[inline]
    fn next(&mut self) -> Option<(u32, u32)> {
        match self {
            Cands::Input(it) => it.next().map(|(v, i)| (v.to_ordered(), i)),
            Cands::Buffers(it) => it.next(),
        }
    }
}

/// The output pairs and the cursor every emitting kernel bumps.
pub(crate) struct Out {
    val: DeviceBuffer<f32>,
    idx: DeviceBuffer<u32>,
    cursor: DeviceBuffer<u32>,
}

impl Out {
    /// `c` with the output writes declared.
    pub(crate) fn writes(&self, c: KernelContract) -> KernelContract {
        c.atomics(&self.cursor, Footprint::elem(0))
            .writes_shared(&self.val, Footprint::all())
            .writes_shared(&self.idx, Footprint::all())
    }

    fn store(&self, ctx: &mut BlockCtx<'_>, pos: usize, key: u32, idx: u32) {
        ctx.st_scatter(&self.val, pos, f32::from_ordered(key));
        ctx.st_scatter(&self.idx, pos, idx);
    }

    /// Append one result at the cursor.
    pub(crate) fn push(&self, ctx: &mut BlockCtx<'_>, key: u32, idx: u32) {
        let pos = ctx.atomic_add(&self.cursor, 0, 1) as usize;
        self.store(ctx, pos, key, idx);
    }
}

/// `TopKAlgorithm` for the [`Partition`] baseline `$ty` named `$name`:
/// partition-based, selecting through [`try_select`].
macro_rules! partition_baseline {
    ($ty:ty, $name:literal) => {
        impl topk_core::traits::TopKAlgorithm for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn category(&self) -> topk_core::traits::Category {
                topk_core::traits::Category::PartitionBased
            }

            fn try_select(
                &self,
                gpu: &mut gpu_sim::Gpu,
                input: &gpu_sim::DeviceBuffer<f32>,
                k: usize,
            ) -> Result<topk_core::traits::TopKOutput, TopKError> {
                $crate::common::try_select(self, gpu, input, k)
            }
        }
    };
}
pub(crate) use partition_baseline;

/// A host-driven partition baseline: its per-selection scratch and one
/// round of its loop.
pub(crate) trait Partition: TopKAlgorithm {
    /// Scratch buffers `(label, words)` kept for the whole selection,
    /// allocated after the candidate buffers.
    const SCRATCH: &'static [(&'static str, usize)];
    /// A fixed round count whose last round admits the K-th key's ties
    /// (RadixSelect). Without it the loop shrinks the candidates until
    /// they are few or stop shrinking, then sorts them.
    const PASSES: Option<usize> = None;

    /// Run round `round` on `st`: shrink the candidates and emit sure
    /// results, or finish the selection (`k_rem` becomes 0).
    fn round(&self, gpu: &mut Gpu, st: &mut SelectionState, round: usize) -> Result<(), TopKError>;
}

/// A baseline whose rounds are counted rounds: it sorts keys into
/// ordered classes, and may need a pre-pass to set a round's classes up.
/// Every such baseline is a [`Partition`] whose round histograms the
/// classes, picks on the host the class holding the `k_rem`-th key, then
/// scatters the classes below it to the output and it to the next
/// buffer — or, on the last of a fixed pass count, admits its first
/// `k_rem - below` keys as ties.
pub(crate) trait Classifier: TopKAlgorithm {
    /// What [`Classifier::class`] reads in one round.
    type Round: Clone + Sync;
    /// Number of classes.
    const CLASSES: usize;
    /// Compute ops charged per classified key.
    const OPS: u64;
    /// Names of the histogram and filter kernels.
    const KERNELS: [&'static str; 2];
    /// Label and simulated µs of the host's prefix scan.
    const HOST: (&'static str, f64);
    /// Label of the filter's parameter buffer, whose last word is the
    /// next buffer's write cursor.
    const PARAMS: &'static str;
    /// Upload the target class as the parameter buffer's first word,
    /// loaded once per filter block; otherwise the launch carries it.
    const TARGET_ON_DEVICE: bool = false;
    /// Shared bytes [`Classifier::load`] takes per block.
    const SHARED: usize = 0;
    /// [`Partition::SCRATCH`], the class histogram last.
    const SCRATCH: &'static [(&'static str, usize)];
    /// [`Partition::PASSES`].
    const PASSES: Option<usize> = None;

    /// The pre-pass of round `round` over `st`: the round's classes,
    /// or `None` to finish with the sort (all candidates equal).
    fn prepare(
        &self,
        gpu: &mut Gpu,
        st: &SelectionState,
        round: usize,
    ) -> Result<Option<Self::Round>, TopKError>;

    /// Class of `key`, in `0..CLASSES`, ordered like the keys.
    fn class(round: &Self::Round, key: u32) -> usize;

    /// Per-block setup before the first [`Classifier::class`].
    fn load(_round: &mut Self::Round, _ctx: &mut BlockCtx<'_>) {}

    /// `c` with the reads [`Classifier::load`] makes declared.
    fn reads(_round: &Self::Round, c: KernelContract) -> KernelContract {
        c
    }
}

impl<C: Classifier> Partition for C {
    const SCRATCH: &'static [(&'static str, usize)] = C::SCRATCH;
    const PASSES: Option<usize> = C::PASSES;

    fn round(&self, gpu: &mut Gpu, st: &mut SelectionState, round: usize) -> Result<(), TopKError> {
        let Some(r) = self.prepare(gpu, st, round)? else {
            return st.finish_small(gpu);
        };
        let (view, hist) = (&st.cands, &st.scratch[st.scratch.len() - 1]);
        hist.fill(0);
        let contract = C::reads(&r, view.reads(KernelContract::new(C::KERNELS[0])))
            .atomics(hist, Footprint::fixed(0, C::CLASSES))
            .uses_shared_mem(C::CLASSES * 4 + C::SHARED);
        gpu.try_launch_checked(&contract, stream_launch(view.n), |ctx| {
            let mut r = r.clone();
            C::load(&mut r, ctx);
            let mut local = ctx.shared_alloc::<u32>(C::CLASSES);
            for (key, _) in view.chunk(ctx) {
                local[C::class(&r, key)] += 1;
                ctx.ops(C::OPS);
            }
            for (d, &count) in local.iter().enumerate() {
                if count != 0 {
                    ctx.atomic_add(hist, d, count);
                }
            }
            ctx.ops(C::CLASSES as u64);
        })?;

        // Host round trip: copy the counts back (a sync), scan them.
        let h = gpu.dtoh(hist);
        gpu.host_compute(C::HOST.0, C::HOST.1);
        let (mut target, mut below) = (C::CLASSES - 1, 0);
        for (d, &count) in h.iter().enumerate() {
            if below + count as usize >= st.k_rem {
                target = d;
                break;
            }
            below += count as usize;
        }
        let (next_n, next_k) = (h[target] as usize, st.k_rem - below);

        let last = C::PASSES == Some(round + 1);
        let quota = last.then_some(next_k as u32);
        let (next, out) = (&st.next, &st.out);
        let len = 1 + C::TARGET_ON_DEVICE as usize;
        with_buf(gpu, C::PARAMS, len, |gpu, params| {
            let slot = len - 1;
            if C::TARGET_ON_DEVICE {
                gpu.htod_into(params, &[target as u32, 0]);
            } else {
                params.fill(0);
            }
            let contract = C::reads(&r, view.reads(KernelContract::new(C::KERNELS[1])));
            let contract = out
                .writes(contract)
                .coordinates(params, Footprint::fixed(0, len))
                .writes_shared(&next.keys, Footprint::all())
                .writes_shared(&next.idx, Footprint::all())
                .uses_shared_mem(C::SHARED);
            gpu.try_launch_checked(&contract, stream_launch(view.n), |ctx| {
                let target = if C::TARGET_ON_DEVICE {
                    ctx.ld(params, 0) as usize
                } else {
                    target
                };
                let mut r = r.clone();
                C::load(&mut r, ctx);
                for (key, idx) in view.chunk(ctx) {
                    let class = C::class(&r, key);
                    ctx.ops(C::OPS);
                    if class < target {
                        out.push(ctx, key, idx);
                    } else if class == target {
                        let rank = ctx.atomic_add(params, slot, 1);
                        match quota {
                            Some(quota) if rank < quota => out.push(ctx, key, idx),
                            Some(_) => {}
                            None => {
                                ctx.st_scatter(&next.keys, rank as usize, key);
                                ctx.st_scatter(&next.idx, rank as usize, idx);
                            }
                        }
                    }
                }
            })?;
            Ok(())
        })?;
        if last {
            st.k_rem = 0;
        } else {
            st.shrink(true, next_n, next_k);
        }
        Ok(())
    }
}

/// Select the `k` smallest of `input` with `alg`'s rounds. Every exit
/// releases the workspace; only a successful one keeps the outputs.
pub(crate) fn try_select<P: Partition>(
    alg: &P,
    gpu: &mut Gpu,
    input: &DeviceBuffer<f32>,
    k: usize,
) -> Result<TopKOutput, TopKError> {
    check_args(alg, input.len(), k)?;
    ScratchGuard::scope(gpu, |gpu, ws, outs| {
        let mut st = SelectionState::new(gpu, ws, outs, input, k, P::SCRATCH)?;
        drive(alg, gpu, &mut st)?;
        Ok(TopKOutput::new(st.out.val, st.out.idx))
    })
}

/// The loop and its terminal rules.
fn drive<P: Partition>(alg: &P, gpu: &mut Gpu, st: &mut SelectionState) -> Result<(), TopKError> {
    let shrinking = P::PASSES.is_none();
    let mut prev_n = usize::MAX;
    let mut round = 0;
    loop {
        let (n, k) = (st.cands.n, st.k_rem);
        if k == 0 {
            return Ok(());
        }
        if n == k && (shrinking || round > 0) {
            return st.emit_all(gpu);
        }
        // A round that did not shrink the candidates (all equal) also
        // ends in the sort.
        if shrinking && ((round > 0 && n <= SMALL_CUTOFF.max(k)) || n >= prev_n) {
            return st.finish_small(gpu);
        }
        prev_n = n;
        alg.round(gpu, st, round)?;
        round += 1;
    }
}

/// Device-side working state of one selection.
pub(crate) struct SelectionState {
    /// The live candidates (host-known: these algorithms sync every
    /// round).
    pub(crate) cands: View,
    /// The other buffer pair, which a round scatters the next candidates
    /// into.
    pub(crate) next: View,
    /// Result slots still to fill.
    pub(crate) k_rem: usize,
    pub(crate) out: Out,
    /// The baseline's [`Partition::SCRATCH`] buffers.
    pub(crate) scratch: Vec<DeviceBuffer<u32>>,
}

impl SelectionState {
    fn new(
        gpu: &mut Gpu,
        ws: &mut ScratchGuard,
        outs: &mut ScratchGuard,
        input: &DeviceBuffer<f32>,
        k: usize,
        scratch: &[(&str, usize)],
    ) -> Result<Self, TopKError> {
        let n = input.len();
        let (k0, k1) = (
            ws.alloc(gpu, "cand_keys0", n)?,
            ws.alloc(gpu, "cand_keys1", n)?,
        );
        let (i0, i1) = (
            ws.alloc(gpu, "cand_idx0", n)?,
            ws.alloc(gpu, "cand_idx1", n)?,
        );
        let (val, idx) = (
            outs.alloc(gpu, "out_val", k)?,
            outs.alloc(gpu, "out_idx", k)?,
        );
        // The emitting kernels bump this cursor with atomics before
        // anything stores to it; memset it like the CUDA originals do so
        // the first bump reads a defined zero.
        let cursor = ws.alloc::<u32>(gpu, "out_cursor", 1)?;
        cursor.fill(0);
        let scratch = scratch
            .iter()
            .map(|&(label, len)| ws.alloc(gpu, label, len))
            .collect::<Result<_, _>>()?;
        let pair = |keys, idx, materialised, n| View {
            input: input.clone(),
            keys,
            idx,
            materialised,
            n,
        };
        Ok(SelectionState {
            cands: pair(k0, i0, false, n),
            next: pair(k1, i1, true, 0),
            k_rem: k,
            out: Out { val, idx, cursor },
            scratch,
        })
    }

    /// Make `n` candidates with `k` slots left current: the ones a
    /// round scattered to the other pair (`flip`) or compacted into this
    /// one.
    pub(crate) fn shrink(&mut self, flip: bool, n: usize, k: usize) {
        if flip {
            std::mem::swap(&mut self.cands, &mut self.next);
        }
        // Both pairs hold scattered candidates from here on.
        self.cands.materialised = true;
        self.next.materialised = true;
        self.cands.n = n;
        self.k_rem = k;
    }

    /// Sort the remaining candidates in one block and emit the `k_rem`
    /// smallest: the GpuSelection algorithms' last step, and where a
    /// loop that cannot shrink all-equal candidates ends.
    pub(crate) fn finish_small(&mut self, gpu: &mut Gpu) -> Result<(), TopKError> {
        let (view, out, k) = (&self.cands, &self.out, self.k_rem);
        let contract = out
            .writes(view.reads(KernelContract::new("final_small_select")))
            .requires_grid_at_most(1);
        gpu.try_launch_checked(&contract, LaunchConfig::grid_1d(1, 256), |ctx| {
            let padded = view.n.next_power_of_two();
            let mut keys = vec![u32::MAX; padded];
            let mut idxs = vec![0u32; padded];
            for (j, (key, idx)) in view.tile(ctx, 0, view.n).enumerate() {
                keys[j] = key;
                idxs[j] = idx;
            }
            let ops = bitonic_sort(&mut keys, &mut idxs, true);
            ctx.ops(ops);
            let base = ctx.atomic_add(&out.cursor, 0, k as u32) as usize;
            for j in 0..k {
                out.store(ctx, base + j, keys[j], idxs[j]);
            }
        })?;
        self.k_rem = 0;
        Ok(())
    }

    /// Copy every remaining candidate to the output, once they are
    /// exactly the results still to fill.
    fn emit_all(&mut self, gpu: &mut Gpu) -> Result<(), TopKError> {
        let (view, out) = (&self.cands, &self.out);
        let contract = out.writes(view.reads(KernelContract::new("emit_candidates")));
        gpu.try_launch_checked(&contract, stream_launch(view.n), |ctx| {
            // One cursor bump reserves the block's whole span: every
            // candidate is a result, so the order within the span may
            // follow the scan.
            let len = STREAM_CHUNK.min(view.n - ctx.block_idx * STREAM_CHUNK);
            let base = ctx.atomic_add(&out.cursor, 0, len as u32) as usize;
            for (j, (key, idx)) in view.chunk(ctx).enumerate() {
                out.store(ctx, base + j, key, idx);
            }
        })?;
        self.k_rem = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, Gpu};
    use topk_core::verify::verify_topk;

    /// Run `finish` on a fresh state over `data` and verify its output.
    fn finish_alone(data: &[f32], k: usize, finish: fn(&mut SelectionState, &mut Gpu)) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.htod("in", data);
        let (mut ws, mut outs) = (ScratchGuard::new(), ScratchGuard::new());
        let mut st = SelectionState::new(&mut gpu, &mut ws, &mut outs, &input, k, &[]).unwrap();
        finish(&mut st, &mut gpu);
        assert_eq!(st.k_rem, 0);
        let (values, indices) = (st.out.val.to_vec(), st.out.idx.to_vec());
        verify_topk(data, k, &values, &indices).unwrap();
    }

    #[test]
    fn final_small_select_alone_solves_topk() {
        let data = [4.0f32, -1.0, 3.5, 0.0, 9.0, -1.0, 2.0];
        finish_alone(&data, 3, |st, gpu| st.finish_small(gpu).unwrap());
    }

    #[test]
    fn emit_all_candidates_with_k_equals_n() {
        finish_alone(&[2.0f32, 1.0, 3.0], 3, |st, gpu| st.emit_all(gpu).unwrap());
    }

    #[test]
    fn stream_launch_covers_input() {
        let cfg = stream_launch(10_000);
        assert!(cfg.grid_dim * STREAM_CHUNK >= 10_000);
        assert_eq!(stream_launch(1).grid_dim, 1);
    }
}
