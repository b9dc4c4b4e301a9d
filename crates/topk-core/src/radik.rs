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
//! 3. **Ties round.** When a window would run off the end of the key,
//!    the survivors are equal on the full key; the next kernel admits
//!    the first `K` of them by rank.
//!
//! Everything else is AIR Top-K's: RadiK runs on the same radix pass
//! machine ([`crate::radix`], DESIGN.md §16) with the [`Sketched`]
//! digit schedule and the same [`AirConfig`](crate::AirConfig) —
//! iteration-fused rounds, on-device prefix sums by the last finishing
//! block, adaptive candidate buffering with the same `C·α < N` rule,
//! early stopping, batch striping, and the copy and one-block paths
//! for `K = N` and small rows. On uniform data the sketch is pure
//! overhead (one extra `N`-read) — which is exactly the trade the
//! [`crate::tuner`] cost model arbitrates.
//!
//! Skip telemetry lands in [`crate::obs::AlgoCounters::radik_rounds`]
//! and [`crate::obs::AlgoCounters::radik_skipped_bits`].

use crate::radix::{RadixTopK, Sketched};

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
pub type RadiK = RadixTopK<Sketched>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::RowSelect;
    use crate::obs;
    use crate::traits::TopKAlgorithm;
    use crate::verify::verify_topk;
    use datagen::Distribution;
    use gpu_sim::DeviceBuffer;
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
