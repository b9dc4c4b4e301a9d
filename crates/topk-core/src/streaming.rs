//! On-the-fly top-K: the WarpSelect family as a *device function*.
//!
//! §2.2 and §4 highlight a capability unique to the WarpSelect family:
//! "it can serve as a device function within other kernels, and it can
//! process data on-the-fly because it maintains top-K results for all
//! seen elements". Faiss uses this to fuse distance computation with
//! selection — candidate distances are consumed the moment they are
//! produced and never written to device memory.
//!
//! [`WarpSelector`] is that device function: construct one per warp
//! inside your own kernel, [`push`](WarpSelector::push) 32-lane groups
//! of (value, payload) as you produce them, and
//! [`finish`](WarpSelector::finish) to obtain the K smallest seen. It
//! uses GridSelect's shared queue with parallel two-step insertion
//! (§4, Fig. 5) by default.
//!
//! The fused pattern saves the entire N-element store + reload that a
//! materialise-then-select pipeline pays — `examples/fused_ann.rs` and
//! the tests below demonstrate the traffic difference on the §5.5 ANN
//! workload.

use crate::error::TopKError;
use crate::gridselect::{lane_mask, queue_slots, QueueKind, WarpState};
use crate::keys::RadixKey;
use crate::scratch::ScratchGuard;
use crate::traits::{check_args, Category, TopKAlgorithm, TopKOutput};
use gpu_sim::device::WARP_SIZE;
use gpu_sim::warp::Lanes;
use gpu_sim::{BlockCtx, DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};

/// Maximum supported K, same as the rest of the WarpSelect family.
pub use crate::gridselect::MAX_K;

/// A per-warp streaming top-K selector usable inside kernels.
///
/// Maintains the K smallest (value, payload) pairs pushed so far.
/// Values are compared in the IEEE total order (`-0.0 < +0.0`,
/// infinities ordered; NaN is rejected by a debug assertion).
pub struct WarpSelector {
    state: WarpState,
    queue: QueueKind,
    k: usize,
}

impl WarpSelector {
    /// Create a selector for the K smallest, with GridSelect's shared
    /// 32-slot queue. Allocates `O(K)` shared memory from the block's
    /// budget.
    pub fn new(ctx: &mut BlockCtx<'_>, k: usize) -> Self {
        Self::with_queue(ctx, k, QueueKind::Shared { len: WARP_SIZE })
    }

    /// Shared bytes one selector allocates: its K-list (rounded up to a
    /// power of two) and its queue, 8 bytes per (value, payload) slot.
    pub(crate) fn shared_bytes(k: usize, queue: QueueKind) -> usize {
        (k.next_power_of_two() + queue_slots(queue)) * 8
    }

    /// Create with an explicit queueing strategy (per-thread queues
    /// reproduce plain WarpSelect).
    pub fn with_queue(ctx: &mut BlockCtx<'_>, k: usize, queue: QueueKind) -> Self {
        assert!((1..=MAX_K).contains(&k), "k = {k} out of range 1..={MAX_K}");
        WarpSelector {
            state: WarpState::new(ctx, k, queue_slots(queue)),
            queue,
            k,
        }
    }

    /// The current admission threshold: values ≥ this cannot enter the
    /// top-K (it is the Kth smallest seen so far, or +∞-like before K
    /// elements have been seen). Useful for early pruning in the
    /// producing kernel.
    pub fn threshold(&self) -> f32 {
        f32::from_ordered(self.state.threshold)
    }

    /// Push one lockstep group: lane `i` contributes
    /// `(values[i], payloads[i])` when `valid[i]`. Invalid lanes (e.g.
    /// the ragged tail of a loop) are ignored.
    pub fn push(
        &mut self,
        ctx: &mut BlockCtx<'_>,
        values: &Lanes<f32>,
        payloads: &Lanes<u32>,
        valid: &Lanes<bool>,
    ) {
        let mut keys: Lanes<u32> = [u32::MAX; WARP_SIZE];
        for lane in (0..WARP_SIZE).filter(|&lane| valid[lane]) {
            debug_assert!(!values[lane].is_nan(), "NaN pushed into WarpSelector");
            keys[lane] = values[lane].to_ordered();
        }
        // Two compares and the ballot per lane.
        ctx.ops(3 * WARP_SIZE as u64);
        let mask = lane_mask(&keys, self.state.threshold);
        if mask != 0 {
            self.state
                .insert_mask(ctx, &keys, |lane| payloads[lane], mask, self.queue);
        }
    }

    /// Convenience: push a single `(value, payload)` from one lane.
    /// Prefer [`WarpSelector::push`] — per-element pushes waste the
    /// warp's parallelism, exactly like divergent CUDA code.
    pub fn push_one(&mut self, ctx: &mut BlockCtx<'_>, value: f32, payload: u32) {
        let mut values = [0.0f32; WARP_SIZE];
        let mut payloads = [0u32; WARP_SIZE];
        let mut valid = [false; WARP_SIZE];
        values[0] = value;
        payloads[0] = payload;
        valid[0] = true;
        self.push(ctx, &values, &payloads, &valid);
    }

    /// Drain the queue and return the K smallest seen, sorted
    /// ascending, as `(values, payloads)`. Fewer than K pushes yield
    /// fewer than K results.
    pub fn finish(mut self, ctx: &mut BlockCtx<'_>) -> (Vec<f32>, Vec<u32>) {
        self.state.drain(ctx, self.queue);
        let mut values = Vec::with_capacity(self.k);
        let mut payloads = Vec::with_capacity(self.k);
        for i in 0..self.k.min(self.state.list_keys.len()) {
            let bits = self.state.list_keys[i];
            if bits == u32::MAX {
                break; // fewer than K elements were pushed
            }
            values.push(f32::from_ordered(bits));
            payloads.push(self.state.list_idx[i]);
        }
        (values, payloads)
    }
}

/// Elements one phase-1 block streams through its [`WarpSelector`].
const STREAM_CHUNK: usize = 1 << 16;

/// The streaming device function wrapped as a standalone
/// [`TopKAlgorithm`], so the on-the-fly path runs under the same
/// correctness and sanitizer gates as the materialised algorithms
/// (`topk-bench sanitize` / `verify`).
///
/// Two phases, both pure [`WarpSelector`] streams: phase 1 launches one
/// warp per `STREAM_CHUNK`-element chunk, each maintaining a local
/// top-K and emitting at most K `(value, index)` candidates; phase 2
/// streams the candidate lists through a single warp to produce the
/// global top-K. A single-chunk input skips phase 2.
pub struct StreamingSelect {
    /// Queueing strategy for every selector (shared queue by default,
    /// like GridSelect).
    pub queue: QueueKind,
}

impl Default for StreamingSelect {
    fn default() -> Self {
        StreamingSelect {
            queue: QueueKind::Shared { len: WARP_SIZE },
        }
    }
}

impl StreamingSelect {
    /// One phase: stream `src[start..start+len]` (per block) through a
    /// selector and write each block's results + count to the outputs.
    #[allow(clippy::too_many_arguments)]
    fn launch_stream(
        &self,
        gpu: &mut Gpu,
        label: &str,
        blocks: usize,
        chunk: usize,
        n: usize,
        k: usize,
        src_val: DeviceBuffer<f32>,
        out_val: DeviceBuffer<f32>,
        out_idx: DeviceBuffer<u32>,
        out_len: DeviceBuffer<u32>,
    ) -> Result<(), TopKError> {
        let queue = self.queue;
        let contract = KernelContract::new(label)
            .reads(&src_val, Footprint::all())
            .writes(&out_val, Footprint::per_block(k))
            .writes(&out_idx, Footprint::per_block(k))
            .writes(&out_len, Footprint::per_block(1))
            .uses_shared_mem(WarpSelector::shared_bytes(k, queue));
        gpu.try_launch_checked(
            &contract,
            LaunchConfig::grid_1d(blocks, WARP_SIZE),
            move |ctx| {
                let start = ctx.block_idx * chunk;
                let end = (start + chunk).min(n);
                let mut sel = WarpSelector::with_queue(ctx, k, queue);
                let mut g = start;
                while g < end {
                    let mut vals = [0.0f32; WARP_SIZE];
                    let mut pays = [0u32; WARP_SIZE];
                    let mut valid = [false; WARP_SIZE];
                    let tile = ctx.ld_tile(&src_val, g, (g + WARP_SIZE).min(end));
                    for (lane, v) in tile.into_iter().enumerate() {
                        vals[lane] = v;
                        pays[lane] = (g + lane) as u32;
                        valid[lane] = true;
                    }
                    sel.push(ctx, &vals, &pays, &valid);
                    g += WARP_SIZE;
                }
                let (v, p) = sel.finish(ctx);
                let base = ctx.block_idx * k;
                ctx.st(&out_len, ctx.block_idx, v.len() as u32);
                for (i, (vv, pp)) in v.iter().zip(&p).enumerate() {
                    ctx.st(&out_val, base + i, *vv);
                    ctx.st(&out_idx, base + i, *pp);
                }
            },
        )?;
        Ok(())
    }

    fn run(
        &self,
        gpu: &mut Gpu,
        ws: &mut ScratchGuard,
        outs: &mut ScratchGuard,
        input: &DeviceBuffer<f32>,
        k: usize,
    ) -> Result<TopKOutput, TopKError> {
        let n = input.len();
        // Full chunks must hold at least K elements so every block but
        // the last emits exactly K candidates.
        let chunk = STREAM_CHUNK.max(k);
        let blocks = n.div_ceil(chunk);

        let out_val = outs.alloc::<f32>(gpu, "ss_out_val", k)?;
        let out_idx = outs.alloc::<u32>(gpu, "ss_out_idx", k)?;
        if blocks == 1 {
            // n >= k, so the lone block emits exactly K results.
            let count = ws.alloc::<u32>(gpu, "ss_count", 1)?;
            self.launch_stream(
                gpu,
                "stream_select",
                1,
                chunk,
                n,
                k,
                input.clone(),
                out_val.clone(),
                out_idx.clone(),
                count,
            )?;
            return Ok(TopKOutput::new(out_val, out_idx));
        }

        // Phase 1: per-chunk local top-K into the candidate lists.
        let cand_val = ws.alloc::<f32>(gpu, "ss_cand_val", blocks * k)?;
        let cand_idx = ws.alloc::<u32>(gpu, "ss_cand_idx", blocks * k)?;
        let cand_len = ws.alloc::<u32>(gpu, "ss_cand_len", blocks)?;
        self.launch_stream(
            gpu,
            "stream_local",
            blocks,
            chunk,
            n,
            k,
            input.clone(),
            cand_val.clone(),
            cand_idx.clone(),
            cand_len.clone(),
        )?;

        // Phase 2: one warp streams the (ragged) candidate lists. Total
        // candidates >= K because every full chunk contributes K.
        let count = ws.alloc::<u32>(gpu, "ss_count", 1)?;
        let queue = self.queue;
        let (ovc, oic, occ) = (out_val.clone(), out_idx.clone(), count);
        let contract = KernelContract::new("stream_merge")
            .reads(&cand_len, Footprint::fixed(0, blocks))
            .reads(&cand_val, Footprint::all())
            .reads(&cand_idx, Footprint::all())
            .writes(&ovc, Footprint::fixed(0, k))
            .writes(&oic, Footprint::fixed(0, k))
            .writes(&occ, Footprint::elem(0))
            .uses_shared_mem(WarpSelector::shared_bytes(k, queue))
            .requires_grid_at_most(1);
        gpu.try_launch_checked(&contract, LaunchConfig::grid_1d(1, WARP_SIZE), move |ctx| {
            let mut sel = WarpSelector::with_queue(ctx, k, queue);
            for b in 0..blocks {
                let len = ctx.ld(&cand_len, b) as usize;
                let base = b * k;
                let mut j = 0;
                while j < len {
                    let mut vals = [0.0f32; WARP_SIZE];
                    let mut pays = [0u32; WARP_SIZE];
                    let mut valid = [false; WARP_SIZE];
                    let (lo, hi) = (base + j, base + (j + WARP_SIZE).min(len));
                    let values = ctx.ld_tile(&cand_val, lo, hi);
                    let indices = ctx.ld_tile(&cand_idx, lo, hi);
                    for (lane, (v, p)) in values.into_iter().zip(indices).enumerate() {
                        vals[lane] = v;
                        pays[lane] = p;
                        valid[lane] = true;
                    }
                    sel.push(ctx, &vals, &pays, &valid);
                    j += WARP_SIZE;
                }
            }
            let (v, p) = sel.finish(ctx);
            ctx.st(&occ, 0, v.len() as u32);
            for (i, (vv, pp)) in v.iter().zip(&p).enumerate() {
                ctx.st(&ovc, i, *vv);
                ctx.st(&oic, i, *pp);
            }
        })?;
        Ok(TopKOutput::new(out_val, out_idx))
    }
}

impl TopKAlgorithm for StreamingSelect {
    fn name(&self) -> &'static str {
        "StreamingSelect"
    }

    fn category(&self) -> Category {
        Category::PartialSorting
    }

    fn max_k(&self) -> Option<usize> {
        Some(MAX_K)
    }

    fn try_select(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        k: usize,
    ) -> Result<TopKOutput, TopKError> {
        check_args(self, input.len(), k)?;
        ScratchGuard::scope(gpu, |gpu, ws, outs| self.run(gpu, ws, outs, input, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_topk;
    use datagen::{AnnDataset, AnnKind, Distribution};
    use gpu_sim::{DeviceSpec, Gpu, LaunchConfig};

    /// Drive a WarpSelector over a device buffer inside a kernel and
    /// return host-side results.
    fn stream_select(data: &[f32], k: usize) -> (Vec<f32>, Vec<u32>) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.htod("in", data);
        let n = data.len();
        let out_v = gpu.alloc::<f32>("ov", k);
        let out_i = gpu.alloc::<u32>("oi", k);
        let got_len = gpu.alloc::<u32>("len", 1);
        let (ovc, oic, glc) = (out_v.clone(), out_i.clone(), got_len.clone());
        gpu.launch("stream_select", LaunchConfig::grid_1d(1, 32), move |ctx| {
            let mut sel = WarpSelector::new(ctx, k);
            let mut g = 0;
            while g < n {
                let mut vals = [0.0f32; WARP_SIZE];
                let mut pays = [0u32; WARP_SIZE];
                let mut valid = [false; WARP_SIZE];
                for lane in 0..WARP_SIZE {
                    if g + lane < n {
                        vals[lane] = ctx.ld(&input, g + lane);
                        pays[lane] = (g + lane) as u32;
                        valid[lane] = true;
                    }
                }
                sel.push(ctx, &vals, &pays, &valid);
                g += WARP_SIZE;
            }
            let (v, p) = sel.finish(ctx);
            ctx.st(&glc, 0, v.len() as u32);
            for (i, (vv, pp)) in v.iter().zip(&p).enumerate() {
                ctx.st(&ovc, i, *vv);
                ctx.st(&oic, i, *pp);
            }
        });
        let len = got_len.get(0) as usize;
        (
            out_v.to_vec()[..len].to_vec(),
            out_i.to_vec()[..len].to_vec(),
        )
    }

    #[test]
    fn streaming_matches_reference() {
        for dist in Distribution::benchmark_set() {
            let data = datagen::generate(dist, 5000, 8);
            for k in [1usize, 32, 500] {
                let (v, i) = stream_select(&data, k);
                verify_topk(&data, k, &v, &i).unwrap();
                // finish() additionally promises ascending order.
                assert!(v.windows(2).all(|w| w[0].to_ordered() <= w[1].to_ordered()));
            }
        }
    }

    #[test]
    fn fewer_pushes_than_k() {
        let data = [3.0f32, 1.0, 2.0];
        let (v, i) = stream_select(&data, 3);
        // All 3 elements, k was larger than usable only by contract
        // k <= n in the driver; here k == n.
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        assert_eq!(i, vec![1, 2, 0]);
    }

    #[test]
    fn threshold_tightens_monotonically() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let observed = gpu.alloc::<f32>("thr", 3);
        let oc = observed.clone();
        gpu.launch("thr", LaunchConfig::grid_1d(1, 32), move |ctx| {
            let mut sel = WarpSelector::new(ctx, 4);
            ctx.st(&oc, 0, sel.threshold());
            // Push 64 descending values.
            for g in 0..2 {
                let vals: Lanes<f32> = std::array::from_fn(|l| 100.0 - (g * 32 + l) as f32);
                let pays: Lanes<u32> = std::array::from_fn(|l| (g * 32 + l) as u32);
                sel.push(ctx, &vals, &pays, &[true; WARP_SIZE]);
            }
            ctx.st(&oc, 1, sel.threshold());
            let (v, _) = sel.finish(ctx);
            ctx.st(&oc, 2, v[3]);
        });
        let t = observed.to_vec();
        assert!(
            t[0].is_nan() || t[0] > 1e30,
            "initial threshold is +inf-like"
        );
        assert!(t[1] <= 100.0, "threshold tightened after pushes: {}", t[1]);
        assert_eq!(t[2], 40.0, "4th smallest of 37..100 is 40");
    }

    #[test]
    fn push_one_works() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let out = gpu.alloc::<f32>("o", 2);
        let oc = out.clone();
        gpu.launch("po", LaunchConfig::grid_1d(1, 32), move |ctx| {
            let mut sel = WarpSelector::new(ctx, 2);
            for (i, v) in [5.0f32, -1.0, 3.0, 0.5].into_iter().enumerate() {
                sel.push_one(ctx, v, i as u32);
            }
            let (v, _) = sel.finish(ctx);
            ctx.st(&oc, 0, v[0]);
            ctx.st(&oc, 1, v[1]);
        });
        assert_eq!(out.to_vec(), vec![-1.0, 0.5]);
    }

    #[test]
    fn streaming_select_algorithm_matches_reference() {
        // The standalone adapter, both the single-chunk path and the
        // two-phase (local + merge) path across a chunk boundary.
        let alg = StreamingSelect::default();
        for dist in Distribution::benchmark_set() {
            for (n, k) in [
                (5000, 33),
                (STREAM_CHUNK + 1234, 500),
                (3 * STREAM_CHUNK, 2048),
            ] {
                let data = datagen::generate(dist, n, (n + k) as u64);
                let mut gpu = Gpu::new(DeviceSpec::a100());
                let input = gpu.htod("in", &data);
                let out = alg.try_select(&mut gpu, &input, k).unwrap();
                verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec())
                    .unwrap_or_else(|e| panic!("StreamingSelect n={n} k={k}: {e}"));
            }
        }
    }

    #[test]
    fn streaming_select_rejects_oversized_k() {
        let alg = StreamingSelect::default();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data = datagen::generate(Distribution::Uniform, 10_000, 7);
        let input = gpu.htod("in", &data);
        let err = alg.try_select(&mut gpu, &input, MAX_K + 1).unwrap_err();
        assert!(matches!(err, TopKError::InvalidK { .. }), "{err}");
    }

    #[test]
    fn fused_ann_saves_global_traffic() {
        // The §4 on-the-fly advantage, quantified: distance arrays
        // never hit device memory when selection is fused with the
        // distance kernel.
        let n = 8192;
        let k = 10;
        let ds = AnnDataset::generate(AnnKind::Deep1bLike, n, 1, 3);
        let dim = ds.dim;
        let flat = ds.vectors.clone();
        let query = ds.query(0).to_vec();
        let reference = ds.distance_array(0);

        // Fused: one kernel computes distances lane-by-lane and pushes.
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let vecs = gpu.htod("vectors", &flat);
        let q = gpu.htod("query", &query);
        let out_v = gpu.alloc::<f32>("ov", k);
        let out_i = gpu.alloc::<u32>("oi", k);
        gpu.reset_profile();
        let (ovc, oic) = (out_v.clone(), out_i.clone());
        gpu.launch(
            "fused_distance_topk",
            LaunchConfig::grid_1d(1, 32),
            move |ctx| {
                let mut qreg = vec![0.0f32; dim];
                for (d, slot) in qreg.iter_mut().enumerate() {
                    *slot = ctx.ld(&q, d);
                }
                let mut sel = WarpSelector::new(ctx, k);
                let mut base = 0;
                while base < n {
                    let mut vals = [0.0f32; WARP_SIZE];
                    let mut pays = [0u32; WARP_SIZE];
                    let mut valid = [false; WARP_SIZE];
                    for lane in 0..WARP_SIZE {
                        let v = base + lane;
                        if v < n {
                            let mut acc = 0.0f32;
                            for (d, qd) in qreg.iter().enumerate() {
                                let x = ctx.ld(&vecs, v * dim + d);
                                let diff = x - qd;
                                acc += diff * diff;
                            }
                            ctx.ops(2 * dim as u64);
                            vals[lane] = acc;
                            pays[lane] = v as u32;
                            valid[lane] = true;
                        }
                    }
                    sel.push(ctx, &vals, &pays, &valid);
                    base += WARP_SIZE;
                }
                let (v, p) = sel.finish(ctx);
                for (i, (vv, pp)) in v.iter().zip(&p).enumerate() {
                    ctx.st(&ovc, i, *vv);
                    ctx.st(&oic, i, *pp);
                }
            },
        );
        let fused_written: u64 = gpu
            .reports()
            .iter()
            .map(|r| r.stats.bytes_written + r.stats.bytes_scattered)
            .sum();

        verify_topk(&reference, k, &out_v.to_vec(), &out_i.to_vec()).unwrap();

        // Materialised pipeline writes the full N-length distance
        // array first.
        assert!(
            (fused_written as usize) < n * 4 / 4,
            "fused path must not write a distance array: wrote {fused_written} bytes"
        );
    }
}
