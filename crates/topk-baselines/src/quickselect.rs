//! QuickSelect baseline (GpuSelection / Dashti et al. 2013).
//!
//! Single-pivot partition-based selection: pick a pivot, three-way
//! partition the candidates on the device, recurse into the side that
//! contains the Kth element (§2.2). Each iteration needs the host to
//! read back the partition counts (a sync + PCIe round-trip) before it
//! can decide which side to keep — so like all GpuSelection methods it
//! pays per-iteration host engagement, and unlike RadixSelect its
//! iteration count is data-dependent (`O(N²)` worst case, §2.2).

use crate::common::{
    emit_all_candidates, final_small_select, load_candidate, stream_launch, SelectionState,
    STREAM_CHUNK,
};
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract};
use topk_core::error::TopKError;
use topk_core::keys::RadixKey;
use topk_core::traits::{check_args, Category, TopKAlgorithm, TopKOutput};

/// Below this many candidates, finish with one on-device sort.
const SMALL_CUTOFF: usize = 4096;

/// How the per-iteration pivot is chosen.
///
/// §2.2: "QuickSelect, in the worst case, can remove only one element
/// per iteration. So N iterations of processing approximately N
/// elements lead to O(N²) worst-case complexity." That worst case is
/// reachable with [`PivotStrategy::First`] on sorted input — see the
/// `sorted_input_worst_case_is_quadratic` test. The default `Middle`
/// behaves like GpuSelection's implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PivotStrategy {
    /// Middle candidate (good on random and sorted data).
    #[default]
    Middle,
    /// First candidate — degenerates to O(N²) on sorted input, the
    /// §2.2 worst case.
    First,
    /// Median of the first, middle and last candidates (classic
    /// quicksort hardening).
    MedianOfThree,
}

/// The GpuSelection QuickSelect baseline.
#[derive(Debug, Clone, Default)]
pub struct QuickSelect {
    /// Pivot policy (default: middle element).
    pub pivot: PivotStrategy,
}

impl TopKAlgorithm for QuickSelect {
    fn name(&self) -> &'static str {
        "QuickSelect"
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
        // counts[0] = below pivot, counts[1] = equal, plus two write
        // cursors for the partition outputs.
        let counts = match gpu.try_alloc::<u32>("qs_counts", 4) {
            Ok(c) => c,
            Err(e) => {
                st.free_all(gpu);
                return Err(e.into());
            }
        };
        let r = self.run_loop(gpu, input, &mut st, &counts);
        gpu.free(&counts);
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

impl QuickSelect {
    /// The host-driven iteration loop; every exit path leaves cleanup
    /// to `try_select` so an error cannot strand workspace bytes.
    fn run_loop(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        st: &mut SelectionState,
        counts: &DeviceBuffer<u32>,
    ) -> Result<(), TopKError> {
        let mut first = true;
        loop {
            if st.k_rem == 0 {
                break;
            }
            if st.n_cur == st.k_rem {
                emit_all_candidates(gpu, input, st)?;
                break;
            }
            if !first && st.n_cur <= SMALL_CUTOFF.max(st.k_rem) {
                final_small_select(gpu, input, st)?;
                break;
            }
            first = false;

            // Pick the pivot: a tiny gather kernel plus a 4-byte DtoH
            // (the per-iteration sync this method cannot avoid).
            let pivot_buf = gpu.try_alloc::<u32>("qs_pivot", 1)?;
            let launched = {
                let keys = st.cand_keys[st.cur].clone();
                let idxs = st.cand_idx[st.cur].clone();
                let materialised = st.materialised;
                let input = input.clone();
                let pivot_buf = pivot_buf.clone();
                let n_cur = st.n_cur;
                let strategy = self.pivot;
                let contract = KernelContract::new("quickselect_pick_pivot")
                    .reads(&input, Footprint::all())
                    .reads(&keys, Footprint::all())
                    .reads(&idxs, Footprint::all())
                    .writes(&pivot_buf, Footprint::elem(0))
                    .requires_grid_at_most(1);
                gpu.try_launch_checked(
                    &contract,
                    gpu_sim::LaunchConfig::grid_1d(1, 32),
                    move |ctx| {
                        let at = |ctx: &mut gpu_sim::BlockCtx, i: usize| {
                            load_candidate(ctx, &input, &keys, &idxs, materialised, i).0
                        };
                        let bits = match strategy {
                            PivotStrategy::Middle => at(ctx, n_cur / 2),
                            PivotStrategy::First => at(ctx, 0),
                            PivotStrategy::MedianOfThree => {
                                let (a, b, c) =
                                    (at(ctx, 0), at(ctx, n_cur / 2), at(ctx, n_cur - 1));
                                ctx.ops(3);
                                // median(a, b, c)
                                a.min(b).max(a.max(b).min(c))
                            }
                        };
                        ctx.st(&pivot_buf, 0, bits);
                    },
                )
                .map(|_| ())
            };
            if let Err(e) = launched {
                gpu.free(&pivot_buf);
                return Err(e.into());
            }
            let pivot = gpu.dtoh(&pivot_buf)[0];
            gpu.free(&pivot_buf);

            // Three-way partition: `< pivot` goes to the ping-pong
            // buffer front (it may become the recursed side), `== pivot`
            // is only counted, `> pivot` to the buffer back.
            counts.fill(0);
            let n_cur = st.n_cur;
            {
                let keys = st.cand_keys[st.cur].clone();
                let idxs = st.cand_idx[st.cur].clone();
                let nkeys = st.cand_keys[1 - st.cur].clone();
                let nidx = st.cand_idx[1 - st.cur].clone();
                let materialised = st.materialised;
                let input = input.clone();
                let counts = counts.clone();
                let contract = KernelContract::new("quickselect_partition")
                    .reads(&input, Footprint::all())
                    .reads(&keys, Footprint::all())
                    .reads(&idxs, Footprint::all())
                    .atomics(&counts, Footprint::fixed(0, 4))
                    .writes_shared(&nkeys, Footprint::all())
                    .writes_shared(&nidx, Footprint::all());
                gpu.try_launch_checked(&contract, stream_launch(n_cur), move |ctx| {
                    let start = ctx.block_idx * STREAM_CHUNK;
                    let end = (start + STREAM_CHUNK).min(n_cur);
                    for i in start..end {
                        let (bits, idx) =
                            load_candidate(ctx, &input, &keys, &idxs, materialised, i);
                        ctx.ops(2);
                        if bits < pivot {
                            ctx.atomic_add(&counts, 0, 1);
                            let pos = ctx.atomic_add(&counts, 2, 1) as usize;
                            ctx.st_scatter(&nkeys, pos, bits);
                            ctx.st_scatter(&nidx, pos, idx);
                        } else if bits == pivot {
                            ctx.atomic_add(&counts, 1, 1);
                        } else {
                            let pos = n_cur - 1 - ctx.atomic_add(&counts, 3, 1) as usize;
                            ctx.st_scatter(&nkeys, pos, bits);
                            ctx.st_scatter(&nidx, pos, idx);
                        }
                    }
                })?;
            }
            let c = gpu.dtoh(counts);
            gpu.host_compute("choose side", 0.5);
            let below = c[0] as usize;
            let equal = c[1] as usize;
            let above = n_cur - below - equal;

            if st.k_rem <= below {
                // Kth is strictly below the pivot: recurse left.
                st.cur = 1 - st.cur;
                st.materialised = true;
                st.n_cur = below;
            } else if st.k_rem <= below + equal {
                // The left side plus some pivot-equal elements are the
                // answer: emit left, then admit `k_rem - below` pivots.
                let take_eq = st.k_rem - below;
                let keys = st.cand_keys[st.cur].clone();
                let idxs = st.cand_idx[st.cur].clone();
                let nkeys = st.cand_keys[1 - st.cur].clone();
                let nidx = st.cand_idx[1 - st.cur].clone();
                let materialised = st.materialised;
                let input = input.clone();
                let out_val = st.out_val.clone();
                let out_idx = st.out_idx.clone();
                let out_cursor = st.out_cursor.clone();
                let counts = counts.clone();
                gpu.htod_into(&counts, &[0, 0, 0, 0]);
                let contract = KernelContract::new("quickselect_emit")
                    .reads(&input, Footprint::all())
                    .reads(&keys, Footprint::all())
                    .reads(&idxs, Footprint::all())
                    .reads(&nkeys, Footprint::all())
                    .reads(&nidx, Footprint::all())
                    .atomics(&counts, Footprint::elem(0))
                    .atomics(&out_cursor, Footprint::elem(0))
                    .writes_shared(&out_val, Footprint::all())
                    .writes_shared(&out_idx, Footprint::all());
                gpu.try_launch_checked(&contract, stream_launch(n_cur), move |ctx| {
                    let start = ctx.block_idx * STREAM_CHUNK;
                    let end = (start + STREAM_CHUNK).min(n_cur);
                    for i in start..end {
                        // Left side was already compacted into nkeys;
                        // but ties must be re-found in the source.
                        let (bits, idx) =
                            load_candidate(ctx, &input, &keys, &idxs, materialised, i);
                        if bits == pivot {
                            let rank = ctx.atomic_add(&counts, 0, 1);
                            if rank < take_eq as u32 {
                                let pos = ctx.atomic_add(&out_cursor, 0, 1) as usize;
                                ctx.st_scatter(&out_val, pos, f32::from_ordered(bits));
                                ctx.st_scatter(&out_idx, pos, idx);
                            }
                        }
                        ctx.ops(2);
                    }
                    // Block 0 additionally streams out the compacted
                    // left side.
                    if ctx.block_idx == 0 {
                        for i in 0..below {
                            let bits = ctx.ld(&nkeys, i);
                            let idx = ctx.ld(&nidx, i);
                            let pos = ctx.atomic_add(&out_cursor, 0, 1) as usize;
                            ctx.st_scatter(&out_val, pos, f32::from_ordered(bits));
                            ctx.st_scatter(&out_idx, pos, idx);
                        }
                    }
                })?;
                st.k_rem = 0;
                break;
            } else {
                // Kth is above: the whole left side and all pivot ties
                // are results; recurse right.
                {
                    let nkeys = st.cand_keys[1 - st.cur].clone();
                    let nidx = st.cand_idx[1 - st.cur].clone();
                    let keys = st.cand_keys[st.cur].clone();
                    let idxs = st.cand_idx[st.cur].clone();
                    let materialised = st.materialised;
                    let input = input.clone();
                    let out_val = st.out_val.clone();
                    let out_idx = st.out_idx.clone();
                    let out_cursor = st.out_cursor.clone();
                    let contract = KernelContract::new("quickselect_emit_left")
                        .reads(&input, Footprint::all())
                        .reads(&keys, Footprint::all())
                        .reads(&idxs, Footprint::all())
                        .reads(&nkeys, Footprint::all())
                        .reads(&nidx, Footprint::all())
                        .atomics(&out_cursor, Footprint::elem(0))
                        .writes_shared(&out_val, Footprint::all())
                        .writes_shared(&out_idx, Footprint::all());
                    gpu.try_launch_checked(
                        &contract,
                        stream_launch(n_cur.max(below)),
                        move |ctx| {
                            let start = ctx.block_idx * STREAM_CHUNK;
                            // Emit compacted left side.
                            let end = (start + STREAM_CHUNK).min(below);
                            for i in start..end {
                                let bits = ctx.ld(&nkeys, i);
                                let idx = ctx.ld(&nidx, i);
                                let pos = ctx.atomic_add(&out_cursor, 0, 1) as usize;
                                ctx.st_scatter(&out_val, pos, f32::from_ordered(bits));
                                ctx.st_scatter(&out_idx, pos, idx);
                            }
                            // Emit pivot ties from the source.
                            let end = (start + STREAM_CHUNK).min(n_cur);
                            for i in start..end {
                                let (bits, idx) =
                                    load_candidate(ctx, &input, &keys, &idxs, materialised, i);
                                if bits == pivot {
                                    let pos = ctx.atomic_add(&out_cursor, 0, 1) as usize;
                                    ctx.st_scatter(&out_val, pos, f32::from_ordered(bits));
                                    ctx.st_scatter(&out_idx, pos, idx);
                                }
                                ctx.ops(2);
                            }
                        },
                    )?;
                }
                st.k_rem -= below + equal;
                // The right side sits at the *back* of the ping-pong
                // buffer. Compact it to the front of the other buffer
                // (copying in place would race between blocks when the
                // right side exceeds half the candidates).
                let nkeys = st.cand_keys[1 - st.cur].clone();
                let nidx = st.cand_idx[1 - st.cur].clone();
                let dkeys = st.cand_keys[st.cur].clone();
                let didx = st.cand_idx[st.cur].clone();
                let contract = KernelContract::new("quickselect_compact")
                    .reads(&nkeys, Footprint::all())
                    .reads(&nidx, Footprint::all())
                    .writes(&dkeys, Footprint::tiles(STREAM_CHUNK))
                    .writes(&didx, Footprint::tiles(STREAM_CHUNK));
                gpu.try_launch_checked(&contract, stream_launch(above), move |ctx| {
                    let start = ctx.block_idx * STREAM_CHUNK;
                    let end = (start + STREAM_CHUNK).min(above);
                    for i in start..end {
                        let bits = ctx.ld(&nkeys, n_cur - above + i);
                        let idx = ctx.ld(&nidx, n_cur - above + i);
                        ctx.st(&dkeys, i, bits);
                        ctx.st(&didx, i, idx);
                    }
                })?;
                st.materialised = true;
                st.n_cur = above;
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
        let out = QuickSelect::default().select(&mut g, &input, k);
        verify_topk(data, k, &out.values.to_vec(), &out.indices.to_vec())
            .unwrap_or_else(|e| panic!("QuickSelect failed: {e} (n={}, k={k})", data.len()));
    }

    #[test]
    fn basic_cases() {
        run_case(&[5.0, 1.0, 4.0, 1.5, -2.0, 8.0, 0.0], 3);
        run_case(&[1.0], 1);
    }

    #[test]
    fn all_distributions_shapes() {
        for dist in Distribution::benchmark_set() {
            let data = generate(dist, 50_000, 5);
            for k in [1usize, 100, 5000, 49_999, 50_000] {
                run_case(&data, k);
            }
        }
    }

    #[test]
    fn identical_values_terminate() {
        run_case(&vec![7.0f32; 20_000], 1234);
    }

    #[test]
    fn ties_straddle_pivot() {
        let mut data = vec![1.0f32; 10_000];
        data.extend(vec![2.0f32; 10_000]);
        run_case(&data, 15_000);
    }

    #[test]
    fn all_pivot_strategies_are_correct() {
        let data = generate(Distribution::Normal, 30_000, 4);
        for pivot in [
            PivotStrategy::Middle,
            PivotStrategy::First,
            PivotStrategy::MedianOfThree,
        ] {
            let alg = QuickSelect { pivot };
            let mut g = Gpu::new(DeviceSpec::a100());
            let input = g.htod("in", &data);
            let out = alg.select(&mut g, &input, 500);
            verify_topk(&data, 500, &out.values.to_vec(), &out.indices.to_vec())
                .unwrap_or_else(|e| panic!("{pivot:?}: {e}"));
        }
    }

    #[test]
    fn sorted_input_worst_case_is_quadratic() {
        // §2.2: "QuickSelect, in the worst case, can remove only one
        // element per iteration." First-element pivots on ascending
        // input hit exactly that: every iteration strips one element.
        // The partition writes candidates through atomic cursors, so
        // their order (and so the next first pivot) follows the order
        // blocks run in; one worker makes that order fixed.
        let n = 6000;
        let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let iterations = |pivot: PivotStrategy| {
            let mut g = Gpu::with_pool(DeviceSpec::a100(), gpu_sim::BlockPool::new(1));
            let input = g.htod("in", &data);
            g.reset_profile();
            let out = QuickSelect { pivot }.select(&mut g, &input, 10);
            verify_topk(&data, 10, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
            g.timeline().kernel_count()
        };
        let bad = iterations(PivotStrategy::First);
        let good = iterations(PivotStrategy::Middle);
        assert!(
            bad > 50 * good,
            "first-pivot on sorted data must degrade: {bad} vs {good} kernels"
        );
    }

    #[test]
    fn host_syncs_per_iteration() {
        let data = generate(Distribution::Uniform, 200_000, 1);
        let mut g = Gpu::new(DeviceSpec::a100());
        let input = g.htod("in", &data);
        g.reset_profile();
        let _ = QuickSelect::default().select(&mut g, &input, 100);
        assert!(g.timeline().memcpy_us() > 0.0);
        assert!(g.timeline().idle_us() > g.spec().host_sync_us);
    }
}
