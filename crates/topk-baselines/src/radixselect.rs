//! RadixSelect baseline: classic MSD radix top-K with the host in the
//! loop (DrTopK's base implementation, after Alabi et al. 2012).
//!
//! Functionally the same digit-by-digit narrowing as AIR Top-K, but
//! organised the way every pre-AIR GPU implementation was (§3.1):
//! per iteration the device computes a histogram
//! (`CalculateOccurrence`, the kernel named in Fig. 8), the *host*
//! copies it back over PCIe, computes the prefix sum, picks the target
//! digit, uploads parameters, and launches a separate filter kernel —
//! synchronising twice per digit. Candidates are always written to
//! buffers (no adaptive strategy), and each of the ⌈32/8⌉ = 4
//! iterations reloads the data once for the histogram and once for the
//! filter. All of that is what AIR Top-K's iteration fusion removes,
//! and what this baseline exists to measure.

use crate::common::{partition_baseline, Classifier, SelectionState};
use gpu_sim::Gpu;
use topk_core::error::TopKError;

const SELECT_BITS: u32 = 8;
const RADIX: usize = 1 << SELECT_BITS;
const PASSES: usize = 32 / SELECT_BITS as usize;

/// Host-driven MSD radix select (DrTopK-style).
#[derive(Debug, Clone, Default)]
pub struct RadixSelect;

partition_baseline!(RadixSelect, "RadixSelect");

/// One pass per digit, most significant first: `CalculateOccurrence`
/// (the kernel named in Fig. 8) histograms the digit, the host scans
/// the copy and uploads the target digit, and `Filter` emits the lower
/// digits and buffers the target's candidates. The last pass admits
/// the K-th value's ties by rank instead. When the candidates left are
/// exactly the results, they are copied out and the passes stop early
/// (DrTopK reads `next_n` off the histogram).
impl Classifier for RadixSelect {
    /// The digit's shift.
    type Round = u32;
    const CLASSES: usize = RADIX;
    const OPS: u64 = 3;
    const KERNELS: [&'static str; 2] = ["CalculateOccurrence", "Filter"];
    const HOST: (&'static str, f64) = ("prefix sum + target digit", 2.0);
    const PARAMS: &'static str = "rs_params";
    const TARGET_ON_DEVICE: bool = true;
    const SCRATCH: &'static [(&'static str, usize)] = &[("rs_hist", RADIX)];
    const PASSES: Option<usize> = Some(PASSES);

    fn prepare(
        &self,
        _: &mut Gpu,
        _: &SelectionState,
        pass: usize,
    ) -> Result<Option<u32>, TopKError> {
        Ok(Some(32 - (pass as u32 + 1) * SELECT_BITS))
    }

    fn class(shift: &u32, key: u32) -> usize {
        ((key >> shift) as usize) & (RADIX - 1)
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
        let out = RadixSelect.select(&mut g, &input, k);
        verify_topk(data, k, &out.values.to_vec(), &out.indices.to_vec())
            .unwrap_or_else(|e| panic!("RadixSelect failed: {e} (n={}, k={k})", data.len()));
    }

    #[test]
    fn basic_cases() {
        run_case(&[5.0, 1.0, 4.0, 1.5, -2.0, 8.0, 0.0], 3);
        run_case(&[1.0], 1);
    }

    #[test]
    fn all_distributions_shapes() {
        for dist in Distribution::benchmark_set() {
            let data = generate(dist, 30_000, 5);
            for k in [1usize, 17, 2048, 29_999, 30_000] {
                run_case(&data, k);
            }
        }
    }

    #[test]
    fn ties_and_identical() {
        run_case(&vec![2.5f32; 512], 100);
        let mut data = vec![1.0f32; 400];
        data.extend(vec![0.5f32; 400]);
        run_case(&data, 600);
    }

    #[test]
    fn host_roundtrips_every_iteration() {
        // The defining inefficiency vs. AIR: DtoH copies + syncs.
        let data = generate(Distribution::Uniform, 100_000, 1);
        let mut g = Gpu::new(DeviceSpec::a100());
        let input = g.htod("in", &data);
        g.reset_profile();
        let _ = RadixSelect.select(&mut g, &input, 1000);
        assert!(
            g.timeline().memcpy_us() > 0.0,
            "RadixSelect must transfer histograms over PCIe"
        );
        assert!(
            g.timeline().idle_us() > 4.0 * g.spec().host_sync_us,
            "at least one sync per pass"
        );
        // More kernel launches than AIR needs, even when the k = n
        // early exit cuts the loop short.
        assert!(g.timeline().kernel_count() >= 5);
    }
}
