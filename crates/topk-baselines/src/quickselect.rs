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
    partition_baseline, stream_launch, with_buf, Partition, SelectionState, STREAM_CHUNK,
};
use gpu_sim::{Footprint, Gpu, KernelContract, LaunchConfig};
use topk_core::error::TopKError;

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
}

/// The GpuSelection QuickSelect baseline.
#[derive(Debug, Clone, Default)]
pub struct QuickSelect {
    /// Pivot policy (default: middle element).
    pub pivot: PivotStrategy,
}

partition_baseline!(QuickSelect, "QuickSelect");

/// A round partitions first and lets the host choose the side after,
/// so it cannot be a counted round: the counts come from the partition
/// kernel itself, and the chosen side is already in place.
impl Partition for QuickSelect {
    /// `[below, equal]` pivot counts, then the partition's two write
    /// cursors.
    const SCRATCH: &'static [(&'static str, usize)] = &[("qs_counts", 4)];

    fn round(&self, gpu: &mut Gpu, st: &mut SelectionState, _: usize) -> Result<(), TopKError> {
        let (src, next, counts) = (&st.cands, &st.next, &st.scratch[0]);
        let n = src.n;
        // Pick the pivot: a tiny gather kernel plus a 4-byte DtoH (the
        // per-iteration sync this method cannot avoid).
        let pivot = with_buf(gpu, "qs_pivot", 1, |gpu, buf| {
            let contract = src
                .reads(KernelContract::new("quickselect_pick_pivot"))
                .writes(buf, Footprint::elem(0))
                .requires_grid_at_most(1);
            gpu.try_launch_checked(&contract, LaunchConfig::grid_1d(1, 32), |ctx| {
                let at = match self.pivot {
                    PivotStrategy::Middle => n / 2,
                    PivotStrategy::First => 0,
                };
                let key = src.key_at(ctx, at);
                ctx.st(buf, 0, key);
            })?;
            Ok(gpu.dtoh(buf)[0])
        })?;

        // Three-way partition into the next buffer: `< pivot` to its
        // front (it may become the recursed side), `> pivot` to its
        // back; `== pivot` is only counted.
        counts.fill(0);
        let contract = src
            .reads(KernelContract::new("quickselect_partition"))
            .atomics(counts, Footprint::fixed(0, 4))
            .writes_shared(&next.keys, Footprint::all())
            .writes_shared(&next.idx, Footprint::all());
        gpu.try_launch_checked(&contract, stream_launch(n), |ctx| {
            for (key, idx) in src.chunk(ctx) {
                ctx.ops(2);
                if key < pivot {
                    ctx.atomic_add(counts, 0, 1);
                    let pos = ctx.atomic_add(counts, 2, 1) as usize;
                    ctx.st_scatter(&next.keys, pos, key);
                    ctx.st_scatter(&next.idx, pos, idx);
                } else if key == pivot {
                    ctx.atomic_add(counts, 1, 1);
                } else {
                    let pos = n - 1 - ctx.atomic_add(counts, 3, 1) as usize;
                    ctx.st_scatter(&next.keys, pos, key);
                    ctx.st_scatter(&next.idx, pos, idx);
                }
            }
        })?;
        let c = gpu.dtoh(counts);
        gpu.host_compute("choose side", 0.5);
        let (below, equal) = (c[0] as usize, c[1] as usize);
        let above = n - below - equal;
        let (k, left, out) = (st.k_rem, next.prefix(below), &st.out);

        if k <= below {
            // The K-th key is strictly below the pivot: recurse left.
            st.shrink(true, below, k);
        } else if k <= below + equal {
            // The left side plus the first `k - below` pivot ties are
            // the answer. The ties are re-found in the source.
            let take_eq = (k - below) as u32;
            gpu.htod_into(counts, &[0, 0, 0, 0]);
            let contract = out
                .writes(left.reads(src.reads(KernelContract::new("quickselect_emit"))))
                .atomics(counts, Footprint::elem(0));
            gpu.try_launch_checked(&contract, stream_launch(n), |ctx| {
                for (key, idx) in src.chunk(ctx) {
                    if key == pivot && ctx.atomic_add(counts, 0, 1) < take_eq {
                        out.push(ctx, key, idx);
                    }
                    ctx.ops(2);
                }
                // Block 0 also streams out the compacted left side.
                if ctx.block_idx == 0 {
                    for (key, idx) in left.tile(ctx, 0, below) {
                        out.push(ctx, key, idx);
                    }
                }
            })?;
            st.k_rem = 0;
        } else {
            // The K-th key is above: the left side and every pivot tie
            // are results; recurse right.
            let contract =
                out.writes(left.reads(src.reads(KernelContract::new("quickselect_emit_left"))));
            gpu.try_launch_checked(&contract, stream_launch(n), |ctx| {
                for (key, idx) in left.chunk(ctx) {
                    out.push(ctx, key, idx);
                }
                for (key, idx) in src.chunk(ctx) {
                    if key == pivot {
                        out.push(ctx, key, idx);
                    }
                    ctx.ops(2);
                }
            })?;
            // The right side sits at the back of the next buffer. Compact
            // it to the front of the current one (copying in place would
            // race between blocks when the right side exceeds half the
            // candidates).
            let contract = next
                .reads(KernelContract::new("quickselect_compact"))
                .writes(&src.keys, Footprint::tiles(STREAM_CHUNK))
                .writes(&src.idx, Footprint::tiles(STREAM_CHUNK));
            gpu.try_launch_checked(&contract, stream_launch(above), |ctx| {
                let start = ctx.block_idx * STREAM_CHUNK;
                let end = (start + STREAM_CHUNK).min(above);
                let back = next.tile(ctx, n - above + start, n - above + end);
                for (i, (key, idx)) in (start..).zip(back) {
                    ctx.st(&src.keys, i, key);
                    ctx.st(&src.idx, i, idx);
                }
            })?;
            st.shrink(false, above, k - below - equal);
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
    use topk_core::TopKAlgorithm;

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
    fn right_after_left_reads_the_scattered_side() {
        // Uniform 30_000 at K = 15_000 on one worker recurses left, then
        // right: the second round emits a left side that the first
        // round's buffers, not the raw input, now hold.
        let data = generate(Distribution::Uniform, 30_000, 3);
        let mut g = Gpu::with_pool(DeviceSpec::a100(), gpu_sim::BlockPool::new(1));
        let input = g.htod("in", &data);
        let out = QuickSelect::default().select(&mut g, &input, 15_000);
        verify_topk(&data, 15_000, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
    }

    #[test]
    fn all_pivot_strategies_are_correct() {
        let data = generate(Distribution::Normal, 30_000, 4);
        for pivot in [PivotStrategy::Middle, PivotStrategy::First] {
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
