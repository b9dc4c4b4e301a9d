//! SampleSelect baseline (GpuSelection / Ribizel & Anzt 2020).
//!
//! Partition-based selection with data-derived splitters: sample a
//! small subset of the candidates, sort it on the device, use the
//! sorted samples as bucket boundaries, histogram all candidates into
//! those buckets by binary search, and recurse into the bucket holding
//! the Kth element (§2.2: "SampleSelect samples a small fraction of
//! elements and sorts them to find more suitable pivots"). The
//! sampling makes buckets balanced even on skewed data, at the price of
//! the sample-sort step and — like every GpuSelection method — a host
//! round-trip per iteration.

use crate::common::{partition_baseline, Classifier, SelectionState};
use gpu_sim::{BlockCtx, DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};
use topk_core::bitonic::bitonic_sort;
use topk_core::error::TopKError;

/// Number of samples (and buckets = SAMPLES + 1) per iteration.
const SAMPLES: usize = 255;

/// The GpuSelection SampleSelect baseline.
#[derive(Debug, Clone, Default)]
pub struct SampleSelect;

partition_baseline!(SampleSelect, "SampleSelect");

/// Each round samples and sorts splitters on the device (no host round
/// trip), then runs the counted round over the buckets they bound,
/// found by binary search.
impl Classifier for SampleSelect {
    /// The splitters' device buffer, and their shared-memory copy once
    /// [`Classifier::load`] has staged it.
    type Round = (DeviceBuffer<u32>, Vec<u32>);
    const CLASSES: usize = SAMPLES + 1;
    /// log2(256) comparisons.
    const OPS: u64 = 10;
    const KERNELS: [&'static str; 2] = ["sample_histogram", "sample_filter"];
    const HOST: (&'static str, f64) = ("sample prefix sum", 1.0);
    const PARAMS: &'static str = "ss_cursor";
    const SHARED: usize = SAMPLES * 4;
    const SCRATCH: &'static [(&'static str, usize)] =
        &[("ss_splitters", SAMPLES), ("ss_hist", SAMPLES + 1)];

    fn prepare(
        &self,
        gpu: &mut Gpu,
        st: &SelectionState,
        _: usize,
    ) -> Result<Option<Self::Round>, TopKError> {
        // Strided sampling and an on-device sort of the sample (one
        // block; the sample is tiny).
        let (view, splitters) = (&st.cands, &st.scratch[0]);
        let contract = view
            .reads(KernelContract::new("sample_sort_splitters"))
            .writes(splitters, Footprint::fixed(0, SAMPLES))
            .requires_grid_at_most(1);
        gpu.try_launch_checked(&contract, LaunchConfig::grid_1d(1, 256), |ctx| {
            let stride = (view.n / SAMPLES).max(1);
            let mut kb = vec![u32::MAX; SAMPLES.next_power_of_two()];
            let mut payload = vec![0u32; kb.len()];
            for (s, slot) in kb.iter_mut().enumerate().take(SAMPLES) {
                *slot = view.key_at(ctx, (s * stride).min(view.n - 1));
            }
            let ops = bitonic_sort(&mut kb, &mut payload, true);
            ctx.ops(ops);
            for (s, &key) in kb.iter().enumerate().take(SAMPLES) {
                ctx.st(splitters, s, key);
            }
        })?;
        Ok(Some((splitters.clone(), Vec::new())))
    }

    fn class((_, spl): &Self::Round, key: u32) -> usize {
        spl.partition_point(|&s| s < key)
    }

    /// A real kernel reads the splitters once into shared memory; model
    /// the same.
    fn load((buf, spl): &mut Self::Round, ctx: &mut BlockCtx<'_>) {
        *spl = ctx.shared_alloc(SAMPLES);
        for (slot, s) in spl.iter_mut().zip(ctx.ld_tile(buf, 0, SAMPLES)) {
            *slot = s;
        }
    }

    fn reads((buf, _): &Self::Round, c: KernelContract) -> KernelContract {
        c.reads(buf, Footprint::fixed(0, SAMPLES))
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
        let out = SampleSelect.select(&mut g, &input, k);
        verify_topk(data, k, &out.values.to_vec(), &out.indices.to_vec())
            .unwrap_or_else(|e| panic!("SampleSelect failed: {e} (n={}, k={k})", data.len()));
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
            for k in [1usize, 100, 5000, 50_000] {
                run_case(&data, k);
            }
        }
    }

    #[test]
    fn identical_values_terminate() {
        run_case(&vec![0.5f32; 30_000], 7);
    }

    #[test]
    fn skewed_data_still_converges() {
        // 99% duplicates + 1% spread: splitters collapse, the stall
        // guard must kick in.
        let mut data = vec![1.0f32; 49_500];
        data.extend(generate(Distribution::Uniform, 500, 2));
        run_case(&data, 49_700);
    }
}
