//! The common interface every top-K algorithm implements.

use crate::error::TopKError;
use gpu_sim::{DeviceBuffer, DeviceScalar, Gpu};

/// The paper's taxonomy of parallel top-K algorithms (§1, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Sort everything, take the first K (CUB radix sort).
    Sorting,
    /// Identify and sort only the best K (WarpSelect, Bitonic Top-K).
    PartialSorting,
    /// Recursively bucket candidates by value (RadixSelect, AIR Top-K,
    /// QuickSelect, BucketSelect, SampleSelect).
    PartitionBased,
}

impl Category {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Category::Sorting => "Sorting",
            Category::PartialSorting => "Partial Sorting",
            Category::PartitionBased => "Partition-based",
        }
    }
}

/// Device-side `(values, indices)` output pair of one problem, as
/// returned per batch entry by the typed (non-`f32`) entry points.
pub type TypedOutput<T> = (DeviceBuffer<T>, DeviceBuffer<u32>);

/// Device-resident result of a top-K selection: `values[i]` is a
/// selected element and `indices[i]` its position in the input list
/// (§2.1's output contract). Order within the K results is unspecified
/// unless the algorithm documents otherwise.
#[derive(Debug, Clone)]
#[must_use = "a top-K output holds live device allocations"]
pub struct TopKOutput {
    /// Selected values, length K.
    pub values: DeviceBuffer<f32>,
    /// Input positions of the selected values, length K.
    pub indices: DeviceBuffer<u32>,
    /// The K this output answers: `values` and `indices` have exactly
    /// this many meaningful entries. Carried explicitly so downstream
    /// code never has to re-derive it from buffer lengths.
    pub k: usize,
}

impl TopKOutput {
    /// Package a (values, indices) pair, recording its `k` from the
    /// value buffer's length.
    pub fn new(values: DeviceBuffer<f32>, indices: DeviceBuffer<u32>) -> Self {
        debug_assert_eq!(values.len(), indices.len());
        let k = values.len();
        TopKOutput { values, indices, k }
    }
}

/// A parallel top-K algorithm (smallest-K convention, like the paper).
///
/// Inputs are already device-resident — the benchmark measures the
/// selection, not the upload — and outputs stay device-resident.
pub trait TopKAlgorithm: Send + Sync {
    /// Algorithm name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Which family it belongs to (Table 1).
    fn category(&self) -> Category;

    /// Largest supported K, if limited. The paper notes 2048 for
    /// WarpSelect/BlockSelect/GridSelect and 256 for Bitonic Top-K
    /// (§2.2, §5.1).
    fn max_k(&self) -> Option<usize> {
        None
    }

    /// Select the K smallest elements of `input`.
    ///
    /// This is the primary entry point: invalid queries (`k == 0`,
    /// `k > input.len()`, `k` beyond [`Self::max_k`]), exhausted device
    /// memory, and invalid launches are reported as [`TopKError`]
    /// values rather than panics, so a serving layer can fail one query
    /// without losing the device.
    #[must_use = "selection results report errors through the Result"]
    fn try_select(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        k: usize,
    ) -> Result<TopKOutput, TopKError>;

    /// Solve a batch of same-(N, K) problems (§5.1's batched
    /// benchmark), failing on the first query the algorithm rejects.
    ///
    /// The default loops over the batch sequentially — which is what
    /// the single-query baseline libraries do, and exactly why the
    /// paper's batch-100 speedups over them are so large. Natively
    /// batched algorithms (AIR Top-K, GridSelect, the Faiss selects)
    /// override this with a single fused launch set.
    #[must_use = "selection results report errors through the Result"]
    fn try_select_batch(
        &self,
        gpu: &mut Gpu,
        inputs: &[DeviceBuffer<f32>],
        k: usize,
    ) -> Result<Vec<TopKOutput>, TopKError> {
        inputs
            .iter()
            .map(|inp| self.try_select(gpu, inp, k))
            .collect()
    }

    /// Panicking convenience wrapper over [`Self::try_select`], kept
    /// for benches, examples, and tests where an error is a bug.
    ///
    /// # Panics
    /// On any [`TopKError`], with the error's message.
    fn select(&self, gpu: &mut Gpu, input: &DeviceBuffer<f32>, k: usize) -> TopKOutput {
        self.try_select(gpu, input, k)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking convenience wrapper over [`Self::try_select_batch`].
    ///
    /// # Panics
    /// On any [`TopKError`], with the error's message.
    fn select_batch(
        &self,
        gpu: &mut Gpu,
        inputs: &[DeviceBuffer<f32>],
        k: usize,
    ) -> Vec<TopKOutput> {
        self.try_select_batch(gpu, inputs, k)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Validate common preconditions; algorithms call this first and
/// propagate the error with `?`.
#[must_use = "precondition failures are reported through the Result"]
pub fn check_args(
    alg: &(impl TopKAlgorithm + ?Sized),
    n: usize,
    k: usize,
) -> Result<(), TopKError> {
    match TopKError::check_k(alg.name(), n, k, alg.max_k()) {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Validate that every input in a batch has the same length as the
/// first; natively batched kernels require congruent problems.
pub fn check_batch<T: DeviceScalar>(
    alg: &(impl TopKAlgorithm + ?Sized),
    inputs: &[DeviceBuffer<T>],
) -> Result<usize, TopKError> {
    let Some(first) = inputs.first() else {
        return Err(TopKError::UnsupportedShape {
            algorithm: alg.name(),
            detail: "empty batch".into(),
        });
    };
    let n = first.len();
    if let Some(bad) = inputs.iter().find(|b| b.len() != n) {
        return Err(TopKError::UnsupportedShape {
            algorithm: alg.name(),
            detail: format!(
                "batched inputs must share one length, got {n} and {}",
                bad.len()
            ),
        });
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::Gpu;

    struct Dummy;
    impl TopKAlgorithm for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn category(&self) -> Category {
            Category::Sorting
        }
        fn max_k(&self) -> Option<usize> {
            Some(16)
        }
        fn try_select(
            &self,
            gpu: &mut Gpu,
            input: &DeviceBuffer<f32>,
            k: usize,
        ) -> Result<TopKOutput, TopKError> {
            check_args(self, input.len(), k)?;
            Ok(TopKOutput::new(
                gpu.try_alloc("v", k)?,
                gpu.try_alloc("i", k)?,
            ))
        }
    }

    #[test]
    fn category_names() {
        assert_eq!(Category::Sorting.name(), "Sorting");
        assert_eq!(Category::PartialSorting.name(), "Partial Sorting");
        assert_eq!(Category::PartitionBased.name(), "Partition-based");
    }

    #[test]
    fn default_batch_loops_sequentially() {
        let mut gpu = Gpu::new(gpu_sim::DeviceSpec::test_tiny());
        let inputs: Vec<_> = (0..3)
            .map(|i| gpu.htod(&format!("in{i}"), &[3.0f32, 1.0, 2.0]))
            .collect();
        let outs = Dummy.select_batch(&mut gpu, &inputs, 2);
        assert_eq!(outs.len(), 3);
    }

    #[test]
    fn check_args_enforces_max_k() {
        let mut gpu = Gpu::new(gpu_sim::DeviceSpec::test_tiny());
        let input = gpu.htod("in", &vec![0.0f32; 100]);
        let err = Dummy.try_select(&mut gpu, &input, 17).unwrap_err();
        assert!(
            matches!(err, TopKError::InvalidK { k: 17, .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("exceeds supported max"));
    }

    #[test]
    fn check_args_rejects_zero_k() {
        let mut gpu = Gpu::new(gpu_sim::DeviceSpec::test_tiny());
        let input = gpu.htod("in", &[1.0f32]);
        let err = Dummy.try_select(&mut gpu, &input, 0).unwrap_err();
        assert!(err.to_string().contains("k must be >= 1"));
    }

    #[test]
    fn check_args_rejects_k_beyond_n() {
        let mut gpu = Gpu::new(gpu_sim::DeviceSpec::test_tiny());
        let input = gpu.htod("in", &[1.0f32, 2.0]);
        let err = Dummy.try_select(&mut gpu, &input, 3).unwrap_err();
        assert!(err.to_string().contains("exceeds input length"));
    }

    #[test]
    #[should_panic(expected = "k must be >= 1")]
    fn select_shim_panics_with_error_message() {
        let mut gpu = Gpu::new(gpu_sim::DeviceSpec::test_tiny());
        let input = gpu.htod("in", &[1.0f32]);
        let _ = Dummy.select(&mut gpu, &input, 0);
    }

    #[test]
    fn check_batch_rejects_empty_and_mismatched() {
        let mut gpu = Gpu::new(gpu_sim::DeviceSpec::test_tiny());
        let a = gpu.htod("a", &[1.0f32, 2.0]);
        let b = gpu.htod("b", &[1.0f32, 2.0, 3.0]);
        assert!(matches!(
            check_batch::<f32>(&Dummy, &[]),
            Err(TopKError::UnsupportedShape { .. })
        ));
        assert!(matches!(
            check_batch(&Dummy, &[a.clone(), b]),
            Err(TopKError::UnsupportedShape { .. })
        ));
        assert_eq!(check_batch(&Dummy, &[a.clone(), a]).unwrap(), 2);
    }
}
