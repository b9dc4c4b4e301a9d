//! AIR Top-K: Adaptive and Iteration-fused Radix top-K (§3 of the
//! paper, Algorithm 1).
//!
//! The algorithm processes keys most-significant-digit first, one
//! radix pass per kernel. Three ideas distinguish it from classic
//! RadixSelect:
//!
//! 1. **Iteration fusion (§3.1).** Each `iteration_fused_kernel` does
//!    the *previous* pass's filtering and the *current* pass's
//!    histogram in one data sweep, and the last thread block to finish
//!    computes the prefix sum and target digit on-device. The host
//!    only launches `⌈32/b⌉` fused kernels plus one `last_filter_kernel`
//!    — no intermediate device→host copies, no synchronisation
//!    (compare Fig. 2's 16 launches to Fig. 3's 4).
//! 2. **Adaptive buffering (§3.2).** Writing surviving candidates to a
//!    compact buffer pays `4C` memory accesses to save `N` reads next
//!    pass; under radix-adversarial data `C ≈ N` and buffering is pure
//!    waste. The last block therefore sets a per-pass flag: store
//!    candidates only when `C·α < N`, otherwise the next pass re-reads
//!    the original input and re-applies the accumulated digit filter.
//!    This also caps the candidate buffer at `N/α` elements.
//! 3. **Early stopping (§3.3).** When the updated `K` equals the
//!    candidate count, every remaining candidate is a result; the next
//!    kernel just copies them out and all later kernels return
//!    immediately.
//!
//! The passes run on the radix pass machine ([`crate::radix`],
//! DESIGN.md §16) with the [`MsbFirst`] digit schedule; this module
//! holds the configuration and the threshold query.

use crate::error::TopKError;
use crate::keys::{OrderedBits, RadixKey};
use crate::matrix::{select_rows, Rows};
pub use crate::radix::ONE_BLOCK_THRESHOLD;
use crate::radix::{MsbFirst, RadixTopK};
use crate::scratch::ScratchGuard;
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};

/// Tuning knobs for [`AirTopK`] and [`RadiK`](crate::RadiK). Defaults
/// follow the paper: 11-bit digits (3 passes over 32-bit keys), α = 128
/// (§5: "determined empirically"), adaptive buffering and early stopping
/// enabled.
#[derive(Debug, Clone)]
pub struct AirConfig {
    /// Digit width in bits (8 or 11 are the sensible choices; §3.1
    /// explains why on-device prefix sums make 11 affordable). RadiK's
    /// windows are at most this wide.
    pub bits_per_pass: u32,
    /// Buffering threshold α: candidates are buffered only when
    /// `C·α < N`. Must be ≥ 4 (the information-theoretic lower bound
    /// derived in §3.2) for the buffering to ever pay off.
    pub alpha: usize,
    /// Enable the adaptive strategy (§3.2). When false, candidates are
    /// always buffered, like classic radix top-K — the ablation of
    /// Fig. 9.
    pub adaptive: bool,
    /// Enable early stopping (§3.3) — the ablation of Fig. 10.
    pub early_stop: bool,
    /// Threads per block.
    pub block_dim: usize,
    /// Input elements each thread processes per pass.
    pub items_per_thread: usize,
}

impl Default for AirConfig {
    fn default() -> Self {
        AirConfig {
            bits_per_pass: 11,
            alpha: 128,
            adaptive: true,
            early_stop: true,
            block_dim: 512,
            items_per_thread: 16,
        }
    }
}

/// AIR Top-K (Adaptive and Iteration-fused Radix top-K), §3.
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec};
/// use topk_core::{AirTopK, TopKAlgorithm, verify_topk};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let data: Vec<f32> = (0..50_000).map(|i| ((i * 37) % 9973) as f32).collect();
/// let input = gpu.htod("scores", &data);
///
/// let out = AirTopK::default().select(&mut gpu, &input, 25);
/// verify_topk(&data, 25, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
/// // Four launches (3 fused passes + last filter), zero PCIe traffic.
/// assert_eq!(gpu.timeline().kernel_count() > 0, true);
/// ```
pub type AirTopK = RadixTopK<MsbFirst>;

impl AirTopK {
    /// The K-th smallest value itself — the selection *threshold* —
    /// without materialising the index list on the host. Several of
    /// the paper's motivating applications only need this: Deep
    /// Gradient Compression (§1) keeps every gradient whose magnitude
    /// clears the top-0.1% threshold. Runs the normal selection, then
    /// a tiny on-device max-reduction over the K winners (in the
    /// ordered-bit domain) and a single-word copy back.
    pub fn kth_value_typed<T: RadixKey>(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<T>,
        k: usize,
    ) -> Result<T, TopKError> {
        let rows = Rows::Slices(std::slice::from_ref(input));
        let (vals, idx) = select_rows(self, gpu, rows, k)?;
        ScratchGuard::scope(gpu, |gpu, ws, _| {
            ws.adopt(&vals);
            ws.adopt(&idx);
            max_of(gpu, ws, &vals)
        })
    }

    /// [`AirTopK::kth_value_typed`] for `f32`.
    pub fn kth_value(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        k: usize,
    ) -> Result<f32, TopKError> {
        self.kth_value_typed(gpu, input, k)
    }
}

/// The largest of `vals`, by an on-device max-reduction in the
/// ordered-bit domain and a fallible one-word readback; the
/// accumulator is allocated through `ws`.
fn max_of<T: RadixKey>(
    gpu: &mut Gpu,
    ws: &mut ScratchGuard,
    vals: &DeviceBuffer<T>,
) -> Result<T, TopKError> {
    let acc = ws.alloc::<T::Ordered>(gpu, "kth_acc", 1)?;
    // The ordered-bit zero is max's identity.
    acc.fill(<T::Ordered as OrderedBits>::ZERO);
    let width = vals.len();
    let contract = KernelContract::new("kth_value_reduce")
        .reads(vals, Footprint::tiles(256 * 4))
        .atomics(&acc, Footprint::elem(0));
    gpu.try_launch_checked(
        &contract,
        LaunchConfig::for_elements(width, 256, 4, usize::MAX),
        |ctx| {
            let chunk = 256 * 4;
            let start = ctx.block_idx * chunk;
            let tile = ctx.ld_tile(vals, start, (start + chunk).min(width));
            let Some(m) = tile.iter().map(|v| v.to_ordered()).max() else {
                return;
            };
            ctx.ops(tile.len() as u64 - 1);
            // Unsigned raw max on ordered bits == value max.
            ctx.atomic_max_raw(&acc, 0, m);
        },
    )?;
    Ok(T::from_ordered(gpu.try_dtoh(&acc)?[0]))
}

#[cfg(test)]
#[path = "air_tests.rs"]
mod tests;
