//! # topk-hybrid — delegate-centric hybrid top-K (Dr. Top-K style)
//!
//! The SC '23 paper's related work (§2.2) describes *hybrid* methods,
//! of which Dr. Top-K (Gaihre et al., SC '21) is the exemplar: "compute
//! top-K on delegates to reduce workload and perform a second top-K to
//! get final results. As a hybrid method, it involves two top-K
//! computations and needs a base top-K algorithm (like RadixSelect or
//! Bitonic Top-K) as its building block, hence it benefits from a
//! high-performance parallel top-K algorithm."
//!
//! The paper deliberately benchmarks the *base* implementations, not
//! the hybrid — the hybrid is "orthogonal to and can benefit from our
//! new methods". This crate supplies that orthogonal layer, composable
//! over any [`TopKAlgorithm`]:
//!
//! 1. **Delegate pass** — split the input into `S = ⌈N/L⌉` subranges
//!    and reduce each to its minimum (its *delegate*).
//! 2. **First top-K** — run the base algorithm over the `S` delegates;
//!    the returned indices are the winning subrange ids.
//! 3. **Gather** — concatenate the `K` winning subranges (values plus
//!    their original positions) into a candidate array of `K·L`
//!    elements.
//! 4. **Second top-K** — run the base algorithm over the candidates
//!    and map its indices back through the gather.
//!
//! ## Why this is correct (including ties)
//!
//! Let `t` be the K-th smallest delegate. Every selected subrange
//! contains its delegate, so the candidates include at least `K`
//! elements `≤ t`; every element of a non-selected subrange is `≥` its
//! own delegate `≥ t`. Hence all elements `< t` are candidates, and
//! the candidates contain at least as many copies of `t` as a top-K
//! multiset can need — so the K smallest of the candidates form a
//! valid top-K multiset of the whole input. (Tie-broken delegate
//! selection cannot lose a needed duplicate: each selected subrange
//! supplies one element `≤ t` of its own.)

use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};
use topk_core::traits::{check_args, Category, TopKAlgorithm, TopKOutput};
use topk_core::{ScratchGuard, TopKError};

/// Delegate-centric hybrid selection over a base algorithm.
///
/// `sub_len` (the subrange length `L`) defaults to
/// `clamp(√(N/K), 16, 4096)`, balancing the delegate reduction
/// (`O(N)`), the first top-K (`O(N/L)`) and the second top-K
/// (`O(K·L)`).
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec};
/// use topk_core::{AirTopK, TopKAlgorithm, verify_topk};
/// use topk_hybrid::DrTopK;
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let data: Vec<f32> = (0..60_000).map(|i| ((i * 97) % 30011) as f32).collect();
/// let input = gpu.htod("scores", &data);
/// let hybrid = DrTopK::new(AirTopK::default());
/// let out = hybrid.select(&mut gpu, &input, 40);
/// verify_topk(&data, 40, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
/// ```
pub struct DrTopK<A> {
    base: A,
    sub_len: Option<usize>,
}

impl<A: TopKAlgorithm> DrTopK<A> {
    /// Hybrid over `base` with the default subrange policy.
    pub fn new(base: A) -> Self {
        DrTopK {
            base,
            sub_len: None,
        }
    }

    /// Hybrid with an explicit subrange length (must be ≥ 1).
    pub fn with_sub_len(base: A, sub_len: usize) -> Self {
        assert!(sub_len >= 1, "subrange length must be >= 1");
        DrTopK {
            base,
            sub_len: Some(sub_len),
        }
    }

    /// The base algorithm.
    pub fn base(&self) -> &A {
        &self.base
    }

    /// The subrange length used for a given problem shape.
    pub fn sub_len_for(&self, n: usize, k: usize) -> usize {
        self.sub_len
            .unwrap_or_else(|| (((n / k.max(1)) as f64).sqrt() as usize).clamp(16, 4096))
    }

    /// The four hybrid passes. Intermediates are tracked in `ws`
    /// (released by the caller on every path) and output buffers in
    /// `outs` (released by the caller only on error).
    #[allow(clippy::too_many_arguments)]
    fn hybrid_passes(
        &self,
        gpu: &mut Gpu,
        ws: &mut ScratchGuard,
        outs: &mut ScratchGuard,
        input: &DeviceBuffer<f32>,
        k: usize,
        sub_len: usize,
        subranges: usize,
    ) -> Result<TopKOutput, TopKError> {
        let n = input.len();

        // --- 1. delegate reduction --------------------------------
        let delegates = ws.alloc::<f32>(gpu, "drtopk_delegates", subranges)?;
        {
            let input = input.clone();
            let delegates = delegates.clone();
            let contract = KernelContract::new("drtopk_delegate_reduce")
                .reads(&input, Footprint::all())
                .writes(&delegates, Footprint::tiles(256));
            gpu.try_launch_checked(
                &contract,
                LaunchConfig::for_elements(subranges, 256, 1, usize::MAX),
                move |ctx| {
                    let start = ctx.block_idx * 256;
                    let end = (start + 256).min(subranges);
                    for s in start..end {
                        let lo = s * sub_len;
                        let hi = (lo + sub_len).min(n);
                        let mut m = ctx.ld(&input, lo);
                        for i in lo + 1..hi {
                            let v = ctx.ld(&input, i);
                            // Total-order min (-0.0 < +0.0).
                            if topk_core::RadixKey::to_ordered(v)
                                < topk_core::RadixKey::to_ordered(m)
                            {
                                m = v;
                            }
                        }
                        ctx.ops((hi - lo) as u64 * 2);
                        ctx.st(&delegates, s, m);
                    }
                },
            )?;
        }

        // --- 2. first top-K over the delegates --------------------
        let winners = self.base.try_select(gpu, &delegates, k)?;
        ws.adopt(&winners.values);
        ws.adopt(&winners.indices);

        // --- 3. gather the winning subranges ----------------------
        let cand_cap = k * sub_len;
        let cand_val = ws.alloc::<f32>(gpu, "drtopk_cand_val", cand_cap)?;
        let cand_src = ws.alloc::<u32>(gpu, "drtopk_cand_src", cand_cap)?;
        // Tail subrange may be short; pad with the paper-style +inf
        // sentinel so the candidate array length is uniform.
        {
            let input = input.clone();
            let win_idx = winners.indices.clone();
            let cand_val = cand_val.clone();
            let cand_src = cand_src.clone();
            let contract = KernelContract::new("drtopk_gather")
                .reads(&input, Footprint::all())
                .reads(&win_idx, Footprint::tiles(64))
                .writes(&cand_val, Footprint::tiles(64 * sub_len))
                .writes(&cand_src, Footprint::tiles(64 * sub_len));
            gpu.try_launch_checked(
                &contract,
                LaunchConfig::for_elements(k, 64, 1, usize::MAX),
                move |ctx| {
                    let start = ctx.block_idx * 64;
                    let end = (start + 64).min(k);
                    for w in start..end {
                        let sub = ctx.ld(&win_idx, w) as usize;
                        let lo = sub * sub_len;
                        for j in 0..sub_len {
                            let dst = w * sub_len + j;
                            if lo + j < n {
                                let v = ctx.ld_gather(&input, lo + j);
                                ctx.st(&cand_val, dst, v);
                                ctx.st(&cand_src, dst, (lo + j) as u32);
                            } else {
                                ctx.st(&cand_val, dst, f32::INFINITY);
                                ctx.st(&cand_src, dst, u32::MAX);
                            }
                        }
                        ctx.ops(sub_len as u64);
                    }
                },
            )?;
        }

        // --- 4. second top-K + index mapping -----------------------
        let second = self.base.try_select(gpu, &cand_val, k)?;
        outs.adopt(&second.values);
        ws.adopt(&second.indices);
        let out_idx = outs.alloc::<u32>(gpu, "drtopk_out_idx", k)?;
        {
            let second_idx = second.indices.clone();
            let cand_src = cand_src.clone();
            let out_idx = out_idx.clone();
            let contract = KernelContract::new("drtopk_map_indices")
                .reads(&second_idx, Footprint::fixed(0, k))
                .reads(&cand_src, Footprint::all())
                .writes(&out_idx, Footprint::fixed(0, k))
                .requires_grid_at_most(1);
            gpu.try_launch_checked(&contract, LaunchConfig::grid_1d(1, 256), move |ctx| {
                for i in 0..k {
                    let c = ctx.ld(&second_idx, i) as usize;
                    let orig = ctx.ld_gather(&cand_src, c);
                    debug_assert_ne!(orig, u32::MAX, "sentinel leaked into top-K");
                    ctx.st(&out_idx, i, orig);
                }
                ctx.ops(k as u64);
            })?;
        }

        Ok(TopKOutput::new(second.values, out_idx))
    }
}

impl<A: TopKAlgorithm> TopKAlgorithm for DrTopK<A> {
    fn name(&self) -> &'static str {
        "Dr. Top-K"
    }

    fn category(&self) -> Category {
        self.base.category()
    }

    // The base algorithm's K cap applies to both internal selections;
    // since both use the same K, the cap carries over unchanged.
    fn max_k(&self) -> Option<usize> {
        self.base.max_k()
    }

    fn try_select(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        k: usize,
    ) -> Result<TopKOutput, TopKError> {
        check_args(self, input.len(), k)?;
        let n = input.len();
        let sub_len = self.sub_len_for(n, k);
        let subranges = n.div_ceil(sub_len);

        // Degenerate shapes: the delegate detour cannot pay off when K
        // already covers most subranges.
        if k >= subranges || subranges <= 1 {
            return self.base.try_select(gpu, input, k);
        }

        ScratchGuard::scope(gpu, |gpu, ws, outs| {
            self.hybrid_passes(gpu, ws, outs, input, k, sub_len, subranges)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Distribution};
    use gpu_sim::{DeviceSpec, Gpu};
    use topk_baselines::{RadixSelect, SortTopK};
    use topk_core::verify::verify_topk;
    use topk_core::{AirTopK, GridSelect};

    fn run_case<A: TopKAlgorithm>(hybrid: &DrTopK<A>, data: &[f32], k: usize) {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.htod("in", data);
        let out = hybrid.select(&mut gpu, &input, k);
        verify_topk(data, k, &out.values.to_vec(), &out.indices.to_vec()).unwrap_or_else(|e| {
            panic!(
                "Dr.Top-K over {} failed: {e} (n={}, k={k})",
                hybrid.base().name(),
                data.len()
            )
        });
    }

    #[test]
    fn correct_over_every_base() {
        let data = generate(Distribution::Uniform, 60_000, 3);
        run_case(&DrTopK::new(AirTopK::default()), &data, 100);
        run_case(&DrTopK::new(GridSelect::default()), &data, 100);
        run_case(&DrTopK::new(SortTopK), &data, 100);
        run_case(&DrTopK::new(RadixSelect), &data, 100);
    }

    #[test]
    fn all_distributions_and_shapes() {
        let hybrid = DrTopK::new(AirTopK::default());
        for dist in Distribution::benchmark_set() {
            let data = generate(dist, 100_000, 7);
            for k in [1usize, 10, 500, 2048] {
                run_case(&hybrid, &data, k);
            }
        }
    }

    #[test]
    fn ties_across_subrange_boundaries() {
        // All elements equal: any K qualify; delegates all tie.
        run_case(&DrTopK::new(AirTopK::default()), &vec![2.0f32; 50_000], 300);
        // Duplicates of the boundary value spread across subranges.
        let mut data = generate(Distribution::Uniform, 50_000, 1);
        for i in (0..data.len()).step_by(97) {
            data[i] = 0.5;
        }
        run_case(&DrTopK::new(AirTopK::default()), &data, 700);
    }

    #[test]
    fn falls_back_when_k_covers_subranges() {
        // K >= number of subranges: the hybrid must degrade to the
        // base algorithm and stay correct.
        let data = generate(Distribution::Normal, 2000, 9);
        let hybrid = DrTopK::with_sub_len(AirTopK::default(), 1000);
        run_case(&hybrid, &data, 5); // 2 subranges, k=5 -> fallback
    }

    #[test]
    fn explicit_sub_len_and_default_policy() {
        let h = DrTopK::with_sub_len(AirTopK::default(), 64);
        assert_eq!(h.sub_len_for(1 << 20, 10), 64);
        let h = DrTopK::new(AirTopK::default());
        let l = h.sub_len_for(1 << 20, 16);
        assert!((16..=4096).contains(&l));
        // sqrt(2^20/16) = 256.
        assert_eq!(l, 256);
    }

    #[test]
    fn reduces_base_workload_for_slow_bases() {
        // The point of the hybrid (§2.2): the expensive base algorithm
        // only sees N/L + K*L elements instead of N.
        let data = generate(Distribution::Uniform, 1 << 20, 4);
        let k = 64;
        let time = |alg: &dyn TopKAlgorithm| {
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let input = gpu.htod("in", &data);
            gpu.reset_profile();
            let out = alg.select(&mut gpu, &input, k);
            verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
            gpu.elapsed_us()
        };
        let base = time(&SortTopK);
        let hybrid = time(&DrTopK::new(SortTopK));
        assert!(
            hybrid < base,
            "hybrid ({hybrid:.1}) should beat full-sort base ({base:.1})"
        );
    }

    #[test]
    fn max_k_carries_over() {
        assert_eq!(DrTopK::new(GridSelect::default()).max_k(), Some(2048));
        assert_eq!(DrTopK::new(SortTopK).max_k(), None);
    }

    #[test]
    fn batch_default_loops() {
        let datas: Vec<Vec<f32>> = (0..3)
            .map(|i| generate(Distribution::Uniform, 30_000, i))
            .collect();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let inputs: Vec<_> = datas
            .iter()
            .enumerate()
            .map(|(i, d)| gpu.htod(&format!("p{i}"), d))
            .collect();
        let hybrid = DrTopK::new(AirTopK::default());
        let outs = hybrid.select_batch(&mut gpu, &inputs, 50);
        for (d, o) in datas.iter().zip(&outs) {
            verify_topk(d, 50, &o.values.to_vec(), &o.indices.to_vec()).unwrap();
        }
    }
}
