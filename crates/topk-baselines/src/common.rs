//! Shared machinery for the host-driven partition baselines.
//!
//! QuickSelect, BucketSelect and SampleSelect from the GpuSelection
//! library all follow the same skeleton: keep a shrinking candidate
//! set on the device, round-trip per-iteration statistics to the host,
//! and finish with a small on-device sort once the candidate set is
//! tiny. This module holds the shared pieces: the ping-pong candidate
//! buffers, the output cursor, and the final small-select kernel.

use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};
use topk_core::bitonic::bitonic_sort;
use topk_core::error::TopKError;
use topk_core::keys::RadixKey;
use topk_core::scratch::ScratchGuard;
use topk_core::traits::TopKOutput;

/// Device-side working state for a host-driven selection loop.
pub struct SelectionState {
    /// Candidate values (ordered-bit keys), ping-pong pair.
    pub cand_keys: [DeviceBuffer<u32>; 2],
    /// Candidate input indices, ping-pong pair.
    pub cand_idx: [DeviceBuffer<u32>; 2],
    /// Which buffer currently holds the candidates.
    pub cur: usize,
    /// Number of live candidates (host-known — these algorithms sync
    /// every iteration, unlike AIR Top-K).
    pub n_cur: usize,
    /// When false, the candidates are still the raw input and
    /// `cand_*` must not be read.
    pub materialised: bool,
    /// Result slots still to fill.
    pub k_rem: usize,
    /// Output buffers (values + indices) plus a device write cursor.
    pub out_val: DeviceBuffer<f32>,
    pub out_idx: DeviceBuffer<u32>,
    pub out_cursor: DeviceBuffer<u32>,
}

impl SelectionState {
    /// Allocate working state for one problem. If any allocation
    /// fails, everything allocated so far is released before the error
    /// is returned.
    pub fn new(gpu: &mut Gpu, n: usize, k: usize) -> Result<Self, TopKError> {
        let mut guard = ScratchGuard::new();
        let r = (|| {
            Ok(SelectionState {
                cand_keys: [
                    guard.alloc::<u32>(gpu, "cand_keys0", n)?,
                    guard.alloc::<u32>(gpu, "cand_keys1", n)?,
                ],
                cand_idx: [
                    guard.alloc::<u32>(gpu, "cand_idx0", n)?,
                    guard.alloc::<u32>(gpu, "cand_idx1", n)?,
                ],
                cur: 0,
                n_cur: n,
                materialised: false,
                k_rem: k,
                out_val: guard.alloc::<f32>(gpu, "out_val", k)?,
                out_idx: guard.alloc::<u32>(gpu, "out_idx", k)?,
                out_cursor: {
                    // The emit kernels bump this cursor with atomics
                    // before anything ever stores to it; memset it like
                    // the CUDA originals do so the first bump reads a
                    // defined zero.
                    let cursor = guard.alloc::<u32>(gpu, "out_cursor", 1)?;
                    cursor.fill(0);
                    cursor
                },
            })
        })();
        if r.is_err() {
            guard.release(gpu);
        }
        r
    }

    /// Release the candidate workspace (outputs survive).
    pub fn free_workspace(&self, gpu: &mut Gpu) {
        for b in &self.cand_keys {
            gpu.free(b);
        }
        for b in &self.cand_idx {
            gpu.free(b);
        }
        gpu.free(&self.out_cursor);
    }

    /// Release *everything*, outputs included — the error-path
    /// companion of [`SelectionState::free_workspace`], so a failed
    /// query leaves `mem_allocated` exactly where it started.
    pub fn free_all(self, gpu: &mut Gpu) {
        self.free_workspace(gpu);
        gpu.free(&self.out_val);
        gpu.free(&self.out_idx);
    }

    /// Take the outputs.
    pub fn into_output(self) -> TopKOutput {
        TopKOutput::new(self.out_val, self.out_idx)
    }
}

/// Grid shape used by the streaming kernels of the baselines.
pub fn stream_launch(n: usize) -> LaunchConfig {
    LaunchConfig::for_elements(n, 256, 8, usize::MAX)
}

/// Elements per block under [`stream_launch`].
pub const STREAM_CHUNK: usize = 256 * 8;

/// Load candidate `i` as `(ordered_key, input_index)`, reading either
/// the raw input (first iteration) or the materialised candidate
/// buffers.
#[inline(always)]
pub fn load_candidate(
    ctx: &mut gpu_sim::BlockCtx<'_>,
    input: &DeviceBuffer<f32>,
    st_keys: &DeviceBuffer<u32>,
    st_idx: &DeviceBuffer<u32>,
    materialised: bool,
    i: usize,
) -> (u32, u32) {
    if materialised {
        (ctx.ld(st_keys, i), ctx.ld(st_idx, i))
    } else {
        (ctx.ld(input, i).to_ordered(), i as u32)
    }
}

/// Finish a selection by sorting the (small) remaining candidate set
/// in a single block and emitting the `k_rem` smallest — the terminal
/// step of the GpuSelection algorithms once recursion bottoms out.
/// Also correct (just slow) for degenerate inputs where every
/// candidate is equal and pivot-based progress stalls.
pub fn final_small_select(
    gpu: &mut Gpu,
    input: &DeviceBuffer<f32>,
    st: &SelectionState,
) -> Result<(), TopKError> {
    let n_cur = st.n_cur;
    let k_rem = st.k_rem;
    if k_rem == 0 {
        return Ok(());
    }
    let cur = st.cur;
    let keys = st.cand_keys[cur].clone();
    let idxs = st.cand_idx[cur].clone();
    let materialised = st.materialised;
    let out_val = st.out_val.clone();
    let out_idx = st.out_idx.clone();
    let out_cursor = st.out_cursor.clone();
    let input = input.clone();

    let contract = KernelContract::new("final_small_select")
        .reads(&input, Footprint::all())
        .reads(&keys, Footprint::all())
        .reads(&idxs, Footprint::all())
        .atomics(&out_cursor, Footprint::elem(0))
        .writes_shared(&out_val, Footprint::all())
        .writes_shared(&out_idx, Footprint::all())
        .requires_grid_at_most(1);
    gpu.try_launch_checked(&contract, LaunchConfig::grid_1d(1, 256), move |ctx| {
        let padded = n_cur.next_power_of_two().max(1);
        let mut k_buf = vec![u32::MAX; padded];
        let mut i_buf = vec![0u32; padded];
        for i in 0..n_cur {
            let (kk, ii) = load_candidate(ctx, &input, &keys, &idxs, materialised, i);
            k_buf[i] = kk;
            i_buf[i] = ii;
        }
        let ops = bitonic_sort(&mut k_buf, &mut i_buf, true);
        ctx.ops(ops);
        let base = ctx.atomic_add(&out_cursor, 0, k_rem as u32) as usize;
        for i in 0..k_rem {
            ctx.st_scatter(&out_val, base + i, f32::from_ordered(k_buf[i]));
            ctx.st_scatter(&out_idx, base + i, i_buf[i]);
        }
    })?;
    Ok(())
}

/// Copy every remaining candidate straight to the output — used when
/// the loop discovers `k_rem == n_cur`.
pub fn emit_all_candidates(
    gpu: &mut Gpu,
    input: &DeviceBuffer<f32>,
    st: &SelectionState,
) -> Result<(), TopKError> {
    let n_cur = st.n_cur;
    if n_cur == 0 {
        return Ok(());
    }
    let keys = st.cand_keys[st.cur].clone();
    let idxs = st.cand_idx[st.cur].clone();
    let materialised = st.materialised;
    let out_val = st.out_val.clone();
    let out_idx = st.out_idx.clone();
    let out_cursor = st.out_cursor.clone();
    let input = input.clone();

    let contract = KernelContract::new("emit_candidates")
        .reads(&input, Footprint::all())
        .reads(&keys, Footprint::all())
        .reads(&idxs, Footprint::all())
        .atomics(&out_cursor, Footprint::elem(0))
        .writes_shared(&out_val, Footprint::all())
        .writes_shared(&out_idx, Footprint::all());
    gpu.try_launch_checked(&contract, stream_launch(n_cur), move |ctx| {
        let start = ctx.block_idx * STREAM_CHUNK;
        let end = (start + STREAM_CHUNK).min(n_cur);
        if start >= end {
            return;
        }
        // The block reserves its whole contiguous output span with one
        // cursor bump instead of one atomic per element; every element
        // already goes to the output, so the order within the span is
        // free to follow the scan order.
        let base = ctx.atomic_add(&out_cursor, 0, (end - start) as u32) as usize;
        for i in start..end {
            let (kk, ii) = load_candidate(ctx, &input, &keys, &idxs, materialised, i);
            ctx.st_scatter(&out_val, base + (i - start), f32::from_ordered(kk));
            ctx.st_scatter(&out_idx, base + (i - start), ii);
        }
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, Gpu};
    use topk_core::verify::verify_topk;

    #[test]
    fn final_small_select_alone_solves_topk() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data = vec![4.0f32, -1.0, 3.5, 0.0, 9.0, -1.0, 2.0];
        let input = gpu.htod("in", &data);
        let st = SelectionState::new(&mut gpu, data.len(), 3).unwrap();
        final_small_select(&mut gpu, &input, &st).unwrap();
        let out = st.into_output();
        verify_topk(&data, 3, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
    }

    #[test]
    fn emit_all_candidates_with_k_equals_n() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data = vec![2.0f32, 1.0, 3.0];
        let input = gpu.htod("in", &data);
        let st = SelectionState::new(&mut gpu, 3, 3).unwrap();
        emit_all_candidates(&mut gpu, &input, &st).unwrap();
        let out = st.into_output();
        verify_topk(&data, 3, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
    }

    #[test]
    fn stream_launch_covers_input() {
        let cfg = stream_launch(10_000);
        assert!(cfg.grid_dim * STREAM_CHUNK >= 10_000);
        assert_eq!(stream_launch(1).grid_dim, 1);
    }
}
