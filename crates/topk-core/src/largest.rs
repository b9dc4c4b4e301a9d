//! Largest-K selection.
//!
//! The paper's problem statement (§2.1) covers "the smallest (or
//! largest) K elements"; all algorithms here implement smallest-K.
//! [`SelectLargest`] adapts any smallest-K algorithm to largest-K by
//! running it over the negated ordered keys: a device-side negation
//! kernel writes `-x` (bitwise total-order negation, so ±0, infinities
//! and the full float range behave), the wrapped algorithm selects, and
//! the returned values are negated back. Indices pass through
//! untouched.
//!
//! The extra cost is one streaming pass over the input (2 × N × 4
//! bytes), which the adapter's metering makes visible — a real
//! deployment would instead flip the comparison inside the kernels,
//! which is exactly what `AirTopK` does natively via
//! [`crate::keys::RadixKey`] if you feed it pre-negated keys. The
//! adapter exists for composability with *any* algorithm.

use crate::error::TopKError;
use crate::keys::RadixKey;
use crate::traits::{Category, TopKAlgorithm, TopKOutput};
use gpu_sim::{DeviceBuffer, Footprint, Gpu, KernelContract, LaunchConfig};

/// Total-order negation on f32: maps x so that the smallest-K of the
/// mapped values are the largest-K of the originals, bijectively.
/// Implemented in the ordered-bit domain (`!ordered`), which reverses
/// the total order including `-0.0`/`+0.0` and infinities.
#[inline(always)]
pub fn order_negate(x: f32) -> f32 {
    f32::from_ordered(!x.to_ordered())
}

/// Adapter: largest-K via any smallest-K [`TopKAlgorithm`].
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec};
/// use topk_core::{AirTopK, SelectLargest, TopKAlgorithm};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let data: Vec<f32> = (0..10_000).map(|i| (i % 251) as f32).collect();
/// let input = gpu.htod("scores", &data);
/// let out = SelectLargest::new(AirTopK::default()).select(&mut gpu, &input, 5);
/// assert!(out.values.to_vec().iter().all(|&v| v == 250.0));
/// ```
pub struct SelectLargest<A> {
    inner: A,
}

impl<A: TopKAlgorithm> SelectLargest<A> {
    /// Wrap a smallest-K algorithm.
    pub fn new(inner: A) -> Self {
        SelectLargest { inner }
    }

    /// The wrapped algorithm.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    fn negate_buffer(
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
    ) -> Result<DeviceBuffer<f32>, TopKError> {
        let n = input.len();
        let out = gpu.try_alloc::<f32>("neg_keys", n)?;
        let inp = input.clone();
        let o = out.clone();
        let contract = KernelContract::new("order_negate")
            .reads(&inp, Footprint::tiles(256 * 8))
            .writes(&o, Footprint::tiles(256 * 8));
        let launched = gpu.try_launch_checked(
            &contract,
            LaunchConfig::for_elements(n, 256, 8, usize::MAX),
            move |ctx| {
                let chunk = 256 * 8;
                let start = ctx.block_idx * chunk;
                let tile = ctx.ld_tile(&inp, start, (start + chunk).min(n));
                for (i, v) in (start..).zip(tile) {
                    ctx.st(&o, i, order_negate(v));
                }
                ctx.ops(2 * tile.len() as u64);
            },
        );
        if let Err(e) = launched {
            gpu.free(&out);
            return Err(e.into());
        }
        Ok(out)
    }

    fn restore_output(gpu: &mut Gpu, out: &TopKOutput) -> Result<TopKOutput, TopKError> {
        let k = out.values.len();
        let fixed = gpu.try_alloc::<f32>("restored_values", k)?;
        let src = out.values.clone();
        let dst = fixed.clone();
        let contract = KernelContract::new("order_negate_back")
            .reads(&src, Footprint::tiles(256))
            .writes(&dst, Footprint::tiles(256));
        let launched = gpu.try_launch_checked(
            &contract,
            LaunchConfig::for_elements(k, 256, 1, usize::MAX),
            move |ctx| {
                let start = ctx.block_idx * 256;
                let tile = ctx.ld_tile(&src, start, (start + 256).min(k));
                for (i, v) in (start..).zip(tile) {
                    ctx.st(&dst, i, order_negate(v));
                }
                ctx.ops(2 * tile.len() as u64);
            },
        );
        if let Err(e) = launched {
            gpu.free(&fixed);
            return Err(e.into());
        }
        Ok(TopKOutput::new(fixed, out.indices.clone()))
    }
}

impl<A: TopKAlgorithm> TopKAlgorithm for SelectLargest<A> {
    fn name(&self) -> &'static str {
        // The inner name stays visible through `category`/`max_k`;
        // a static name keeps the trait object-safe.
        "SelectLargest"
    }

    fn category(&self) -> Category {
        self.inner.category()
    }

    fn max_k(&self) -> Option<usize> {
        self.inner.max_k()
    }

    fn try_select(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        k: usize,
    ) -> Result<TopKOutput, TopKError> {
        let negated = Self::negate_buffer(gpu, input)?;
        let out = self.inner.try_select(gpu, &negated, k);
        gpu.free(&negated);
        let out = out?;
        let restored = Self::restore_output(gpu, &out);
        // The inner (negated-domain) values are no longer referenced
        // either way; return their bytes so error paths stay honest.
        gpu.free(&out.values);
        if restored.is_err() {
            gpu.free(&out.indices);
        }
        restored
    }

    fn try_select_batch(
        &self,
        gpu: &mut Gpu,
        inputs: &[DeviceBuffer<f32>],
        k: usize,
    ) -> Result<Vec<TopKOutput>, TopKError> {
        let mut negated: Vec<DeviceBuffer<f32>> = Vec::with_capacity(inputs.len());
        for b in inputs {
            match Self::negate_buffer(gpu, b) {
                Ok(buf) => negated.push(buf),
                Err(e) => {
                    for nb in &negated {
                        gpu.free(nb);
                    }
                    return Err(e);
                }
            }
        }
        let outs = self.inner.try_select_batch(gpu, &negated, k);
        for nb in &negated {
            gpu.free(nb);
        }
        let outs = outs?;
        let mut restored = Vec::with_capacity(outs.len());
        for (done, o) in outs.iter().enumerate() {
            match Self::restore_output(gpu, o) {
                Ok(r) => {
                    gpu.free(&o.values);
                    restored.push(r);
                }
                Err(e) => {
                    // Release everything this call still owns: the
                    // not-yet-restored inner outputs and the restored
                    // values (their index buffers are shared with the
                    // inner outputs, freed once via the inner handle).
                    for rem in &outs[done..] {
                        gpu.free(&rem.values);
                    }
                    for o in &outs {
                        gpu.free(&o.indices);
                    }
                    for r in &restored {
                        gpu.free(&r.values);
                    }
                    return Err(e);
                }
            }
        }
        Ok(restored)
    }
}

/// Reference largest-K (host-side), for verification.
pub fn reference_largest(input: &[f32], k: usize) -> (Vec<f32>, Vec<u32>) {
    assert!(k <= input.len());
    let mut order: Vec<u32> = (0..input.len() as u32).collect();
    order.sort_unstable_by_key(|&i| (std::cmp::Reverse(input[i as usize].to_ordered()), i));
    order.truncate(k);
    let values = order.iter().map(|&i| input[i as usize]).collect();
    (values, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::air::AirTopK;
    use crate::gridselect::GridSelect;
    use gpu_sim::{DeviceSpec, Gpu};

    fn check_largest(out: &TopKOutput, input: &[f32], k: usize) {
        let got: Vec<u32> = {
            let mut v: Vec<u32> = out.values.to_vec().iter().map(|x| x.to_ordered()).collect();
            v.sort_unstable();
            v
        };
        let (expect_vals, _) = reference_largest(input, k);
        let mut expect: Vec<u32> = expect_vals.iter().map(|x| x.to_ordered()).collect();
        expect.sort_unstable();
        assert_eq!(got, expect, "value multiset");
        // Index/value linkage.
        let idx = out.indices.to_vec();
        let vals = out.values.to_vec();
        let mut seen = std::collections::HashSet::new();
        for (v, i) in vals.iter().zip(&idx) {
            assert_eq!(input[*i as usize].to_bits(), v.to_bits());
            assert!(seen.insert(*i), "duplicate index {i}");
        }
    }

    #[test]
    fn order_negate_reverses_total_order() {
        let xs = [
            f32::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            1.0,
            f32::MAX,
            f32::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(order_negate(w[0]).to_ordered() > order_negate(w[1]).to_ordered());
        }
        for &x in &xs {
            assert_eq!(order_negate(order_negate(x)).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn largest_with_air() {
        let data = datagen::generate(datagen::Distribution::Normal, 10_000, 3);
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.htod("in", &data);
        let alg = SelectLargest::new(AirTopK::default());
        let out = alg.select(&mut gpu, &input, 100);
        check_largest(&out, &data, 100);
    }

    #[test]
    fn largest_with_gridselect_and_batch() {
        let datas: Vec<Vec<f32>> = (0..3)
            .map(|i| datagen::generate(datagen::Distribution::Uniform, 5_000, i))
            .collect();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let inputs: Vec<_> = datas
            .iter()
            .enumerate()
            .map(|(i, d)| gpu.htod(&format!("p{i}"), d))
            .collect();
        let alg = SelectLargest::new(GridSelect::default());
        let outs = alg.select_batch(&mut gpu, &inputs, 33);
        for (d, o) in datas.iter().zip(&outs) {
            check_largest(o, d, 33);
        }
    }

    #[test]
    fn largest_handles_ties_and_specials() {
        let data = vec![
            f32::INFINITY,
            f32::INFINITY,
            1.0,
            1.0,
            -0.0,
            0.0,
            f32::NEG_INFINITY,
        ];
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.htod("in", &data);
        let alg = SelectLargest::new(AirTopK::default());
        for k in 1..=data.len() {
            let out = alg.select(&mut gpu, &input, k);
            check_largest(&out, &data, k);
        }
    }

    #[test]
    fn adapter_preserves_limits() {
        let alg = SelectLargest::new(GridSelect::default());
        assert_eq!(alg.max_k(), Some(2048));
        assert_eq!(alg.category(), Category::PartialSorting);
    }

    #[test]
    fn reference_largest_basic() {
        let input = [1.0f32, 5.0, 3.0, 5.0];
        let (v, i) = reference_largest(&input, 2);
        assert_eq!(v, vec![5.0, 5.0]);
        assert_eq!(i, vec![1, 3]);
    }
}
