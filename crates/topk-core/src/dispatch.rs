//! Automatic algorithm dispatch — the production `select_k` entry
//! point.
//!
//! Dispatch is two-tiered:
//!
//! * **Static prior.** The paper closes §5.1 with usage guidelines —
//!   GridSelect for small K on large single inputs, AIR Top-K in most
//!   other cases — and [`SelectK::choice`] encodes them verbatim (the
//!   same study RAFT's `select_k` dispatch table was fitted on). This
//!   is the zero-knowledge routing: correct on average, blind to value
//!   distribution and batch geometry.
//! * **Cost-model-guided tuner.** By default [`SelectK`] consults a
//!   [`Tuner`]: the problem shape — `(n, k,
//!   batch)` plus an optional [`DistSketch`] of the values — is priced
//!   against every viable configuration (AIR and
//!   [`RadiK`] at both digit widths,
//!   [`GridSelect`], the fused [`RowWiseTopK`](crate::rowwise)) using
//!   the simulator's own analytic roofline, and the cheapest plan wins.
//!   Plans are cached per quantised shape and self-correct as observed
//!   latencies flow back through [`SelectK::observe`]. The static prior
//!   remains both the fallback when tuning is disabled
//!   ([`SelectK::static_prior`]) and the safety net if a tuned
//!   configuration reports an unsupported shape.
//!
//! The sketch-aware entry points ([`SelectK::try_select_with_sketch`],
//! [`SelectK::try_select_batch_with_sketch`],
//! [`SelectK::try_select_matrix_with_sketch`]) route on a distribution
//! sketch: adversarially skewed inputs go away from AIR's degenerate
//! histogram passes, and many-small-row batches onto the single-launch
//! row-wise path. The serving engine uploads each coalesced batch as
//! one row-major [`DeviceMatrix`] and calls the matrix entry point, or
//! [`SelectK::try_select_matrix_as`] for an approximate rung.

use crate::air::{AirConfig, AirTopK};
use crate::bucketed::BucketedTopK;
use crate::error::TopKError;
use crate::gridselect::{GridSelect, MAX_K as GRID_MAX_K};
use crate::matrix::{DeviceMatrix, Rows};
use crate::radik::{RadiK, RadiKConfig};
use crate::rowwise::RowWiseTopK;
use crate::traits::{check_args, check_batch, Category, TopKAlgorithm, TopKOutput, TypedOutput};
use crate::tuner::{DistSketch, Plan, ProblemShape, TunedAlgo, Tuner};
use crate::twostage::TwoStageTopK;
use gpu_sim::{DeviceBuffer, DeviceSpec, Gpu};

/// Which algorithm the static prior picked (returned by
/// [`SelectK::choice`] so callers can log / assert the routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Radix path: AIR Top-K.
    Air,
    /// Partial-sorting path: GridSelect.
    Grid,
}

/// Auto-dispatching top-K selector.
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec};
/// use topk_core::{dispatch::SelectK, TopKAlgorithm, verify_topk};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let data: Vec<f32> = (0..4096).map(|i| ((i * 37) % 4096) as f32).collect();
/// let input = gpu.htod("in", &data);
/// let out = SelectK::default().select(&mut gpu, &input, 10);
/// verify_topk(&data, 10, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
/// ```
pub struct SelectK {
    air: AirTopK,
    grid: GridSelect,
    radik: RadiK,
    rowwise: RowWiseTopK,
    tuner: Option<Tuner>,
    /// K at or below which GridSelect is preferred on large inputs
    /// (the paper's guideline 2 uses 256; the measured crossover on
    /// this simulator sits in the same decade).
    pub small_k_threshold: usize,
    /// N above which the small-K rule applies (below it AIR's
    /// one-block fast path wins outright).
    pub large_n_threshold: usize,
}

impl Default for SelectK {
    fn default() -> Self {
        SelectK {
            air: AirTopK::default(),
            grid: GridSelect::default(),
            radik: RadiK::default(),
            rowwise: RowWiseTopK::default(),
            tuner: Some(Tuner::new()),
            small_k_threshold: 256,
            large_n_threshold: 1 << 16,
        }
    }
}

impl SelectK {
    /// Build with custom component algorithms.
    pub fn new(air: AirTopK, grid: GridSelect) -> Self {
        SelectK {
            air,
            grid,
            ..SelectK::default()
        }
    }

    /// A dispatcher that uses only the static §5.1 guidelines — no
    /// plan table, no cost model. This is the pre-tuner behaviour and
    /// the baseline the benchmarks compare against.
    pub fn static_prior() -> Self {
        SelectK {
            tuner: None,
            ..SelectK::default()
        }
    }

    /// Seed the dispatcher with an existing tuner (for example one
    /// whose plan table was loaded from disk).
    pub fn with_tuner(tuner: Tuner) -> Self {
        SelectK {
            tuner: Some(tuner),
            ..SelectK::default()
        }
    }

    /// The tuner, if adaptive dispatch is enabled.
    pub fn tuner(&self) -> Option<&Tuner> {
        self.tuner.as_ref()
    }

    /// The static routing decision for a problem shape, without
    /// running it. This is the zero-knowledge prior; the tuned path
    /// may override it.
    pub fn choice(&self, n: usize, k: usize, batch: usize) -> Choice {
        // Guideline 2/3: GridSelect for small K on large single
        // problems; AIR everywhere else. Batched workloads amortise
        // AIR's launches, moving the crossover down (§5.1's batch-100
        // results), so batching biases toward AIR.
        if k <= self.small_k_threshold
            && k <= GRID_MAX_K
            && n >= self.large_n_threshold
            && batch == 1
        {
            Choice::Grid
        } else {
            Choice::Air
        }
    }

    /// The tuned plan for a shape, if adaptive dispatch is enabled.
    pub fn plan(&self, spec: &DeviceSpec, shape: &ProblemShape) -> Option<Plan> {
        self.tuner.as_ref().map(|t| t.plan(spec, shape))
    }

    /// Feed an observed latency back into the tuner (no-op for a
    /// static dispatcher), so mispredicted plans self-correct.
    /// `observed_us` must be the time of the selection alone, what the
    /// planner prices: the serving engine passes the simulated time
    /// its select call took for the whole batch (launches and any
    /// syncs inside it), never the batch's upload or readback.
    pub fn observe(&self, spec: &DeviceSpec, shape: &ProblemShape, observed_us: f64) {
        if let Some(tuner) = &self.tuner {
            tuner.observe(spec, shape, observed_us);
        }
    }

    fn static_algo(&self, n: usize, k: usize, batch: usize) -> TunedAlgo {
        match self.choice(n, k, batch) {
            Choice::Air => TunedAlgo::Air {
                bits_per_pass: AirConfig::default().bits_per_pass,
            },
            Choice::Grid => TunedAlgo::Grid,
        }
    }

    fn route(&self, spec: &DeviceSpec, shape: &ProblemShape) -> TunedAlgo {
        match &self.tuner {
            Some(tuner) => tuner.plan(spec, shape).algo,
            None => self.static_algo(shape.n, shape.k, shape.batch),
        }
    }

    /// Run `f` on the selector `algo` names: the dispatcher's own
    /// instance at the default digit width, a fresh one otherwise.
    fn with_selector<R>(&self, algo: TunedAlgo, f: impl FnOnce(&dyn RowSelect) -> R) -> R {
        match algo {
            TunedAlgo::Air { bits_per_pass }
                if bits_per_pass != AirConfig::default().bits_per_pass =>
            {
                f(&AirTopK::new(AirConfig {
                    bits_per_pass,
                    ..AirConfig::default()
                }))
            }
            TunedAlgo::Air { .. } => f(&self.air),
            TunedAlgo::Grid => f(&self.grid),
            TunedAlgo::RadiK { bits_per_pass }
                if bits_per_pass != RadiKConfig::default().bits_per_pass =>
            {
                f(&RadiK::new(RadiKConfig {
                    bits_per_pass,
                    ..RadiKConfig::default()
                }))
            }
            TunedAlgo::RadiK { .. } => f(&self.radik),
            TunedAlgo::RowWise => f(&self.rowwise),
            TunedAlgo::Bucketed { per_bucket } => f(&BucketedTopK::new(per_bucket as usize)),
            TunedAlgo::TwoStage {
                partitions,
                k_prime,
            } => f(&TwoStageTopK::new(partitions as usize, k_prime as usize)),
        }
    }

    /// Route `shape` and `run` the chosen selector. The candidate gates
    /// make a rejection unreachable in practice, but if a tuned pick
    /// ever reports a shape it cannot handle, the static prior runs it
    /// instead of failing the query.
    fn routed<R>(
        &self,
        gpu: &mut Gpu,
        shape: &ProblemShape,
        run: impl Fn(&dyn RowSelect, &mut Gpu) -> Result<R, TopKError>,
    ) -> Result<R, TopKError> {
        let algo = self.route(gpu.spec(), shape);
        match self.with_selector(algo, |s| run(s, gpu)) {
            Err(TopKError::UnsupportedShape { .. } | TopKError::InvalidK { .. })
                if self.tuner.is_some() =>
            {
                let fallback = self.static_algo(shape.n, shape.k, shape.batch);
                self.with_selector(fallback, |s| run(s, gpu))
            }
            result => result,
        }
    }

    /// Single-problem selection with a caller-provided distribution
    /// sketch (see [`DistSketch::from_sample`]).
    pub fn try_select_with_sketch(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        k: usize,
        sketch: DistSketch,
    ) -> Result<TopKOutput, TopKError> {
        check_args(self, input.len(), k)?;
        let shape = ProblemShape::new(input.len(), k, 1).with_sketch(sketch);
        self.routed(gpu, &shape, |s, gpu| s.try_select(gpu, input, k))
    }

    /// Batched selection with a caller-provided distribution sketch.
    pub fn try_select_batch_with_sketch(
        &self,
        gpu: &mut Gpu,
        inputs: &[DeviceBuffer<f32>],
        k: usize,
        sketch: DistSketch,
    ) -> Result<Vec<TopKOutput>, TopKError> {
        let n = check_batch(self, inputs)?;
        check_args(self, n, k)?;
        // Route on the *real* batch size: batching amortises launch
        // overhead differently for every algorithm, and collapsing it
        // to 1 here would silently re-route every coalesced query.
        let shape = ProblemShape::new(n, k, inputs.len()).with_sketch(sketch);
        self.routed(gpu, &shape, |s, gpu| s.try_select_batch(gpu, inputs, k))
    }

    /// Matrix-shaped selection with a caller-provided distribution
    /// sketch (RAFT `matrix::select_k` parity): per-row top-K of one
    /// contiguous `rows × cols` matrix, routed like
    /// [`Self::try_select_batch_with_sketch`] on a batch of `rows`, with
    /// the results packed into `rows × k` value and index matrices —
    /// one pair of buffers however many rows there are.
    pub fn try_select_matrix_with_sketch(
        &self,
        gpu: &mut Gpu,
        input: &DeviceMatrix<f32>,
        k: usize,
        sketch: DistSketch,
    ) -> Result<PackedOutput, TopKError> {
        check_matrix(self, input)?;
        check_args(self, input.cols(), k)?;
        let shape = ProblemShape::new(input.cols(), k, input.rows()).with_sketch(sketch);
        let packed = self.routed(gpu, &shape, |s, gpu| {
            s.select_rows(gpu, Rows::Matrix(input), k)
        })?;
        Ok(pack(packed, input.rows(), k))
    }

    /// [`Self::try_select_matrix_with_sketch`] with the configuration
    /// forced to `algo` instead of routed, and no fallback: how a
    /// caller runs a configuration it chose itself, such as an
    /// approximate rung.
    pub fn try_select_matrix_as(
        &self,
        gpu: &mut Gpu,
        input: &DeviceMatrix<f32>,
        k: usize,
        algo: TunedAlgo,
    ) -> Result<PackedOutput, TopKError> {
        check_matrix(self, input)?;
        let packed = self.with_selector(algo, |s| s.select_rows(gpu, Rows::Matrix(input), k))?;
        Ok(pack(packed, input.rows(), k))
    }
}

/// Packed `rows × k` values and indices of a matrix-shaped selection.
pub type PackedOutput = (DeviceMatrix<f32>, DeviceMatrix<u32>);

/// A matrix input needs at least one row.
fn check_matrix(alg: &dyn TopKAlgorithm, input: &DeviceMatrix<f32>) -> Result<(), TopKError> {
    if input.rows() == 0 {
        return Err(TopKError::UnsupportedShape {
            algorithm: alg.name(),
            detail: "empty matrix".into(),
        });
    }
    Ok(())
}

fn pack((values, indices): TypedOutput<f32>, rows: usize, k: usize) -> PackedOutput {
    (
        DeviceMatrix::from_buffer(values, rows, k),
        DeviceMatrix::from_buffer(indices, rows, k),
    )
}

/// The selectors the dispatcher routes between, as one interface: the
/// public single and batched entry points, plus the packed `rows × k`
/// core behind the matrix entry points.
trait RowSelect: TopKAlgorithm {
    fn select_rows(
        &self,
        gpu: &mut Gpu,
        rows: Rows<'_, f32>,
        k: usize,
    ) -> Result<TypedOutput<f32>, TopKError>;
}

macro_rules! row_select {
    ($($algo:ty),+) => {$(
        impl RowSelect for $algo {
            fn select_rows(
                &self,
                gpu: &mut Gpu,
                rows: Rows<'_, f32>,
                k: usize,
            ) -> Result<TypedOutput<f32>, TopKError> {
                self.run_rows(gpu, rows, k)
            }
        }
    )+};
}

row_select!(
    AirTopK,
    GridSelect,
    RadiK,
    RowWiseTopK,
    BucketedTopK,
    TwoStageTopK
);

impl TopKAlgorithm for SelectK {
    fn name(&self) -> &'static str {
        "SelectK (auto)"
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
        self.try_select_with_sketch(gpu, input, k, DistSketch::uniform())
    }

    fn try_select_batch(
        &self,
        gpu: &mut Gpu,
        inputs: &[DeviceBuffer<f32>],
        k: usize,
    ) -> Result<Vec<TopKOutput>, TopKError> {
        self.try_select_batch_with_sketch(gpu, inputs, k, DistSketch::uniform())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_topk;
    use datagen::{generate, Distribution};
    use gpu_sim::{BlockPool, DeviceSpec, Gpu};

    #[test]
    fn routing_follows_the_guidelines() {
        let s = SelectK::default();
        // Large N, small K, single problem -> GridSelect.
        assert_eq!(s.choice(1 << 22, 32, 1), Choice::Grid);
        assert_eq!(s.choice(1 << 22, 256, 1), Choice::Grid);
        // Large K -> AIR.
        assert_eq!(s.choice(1 << 22, 2048, 1), Choice::Air);
        assert_eq!(s.choice(1 << 22, 1 << 15, 1), Choice::Air);
        // Small N -> AIR (one-block fast path).
        assert_eq!(s.choice(4096, 32, 1), Choice::Air);
        // Batched -> AIR.
        assert_eq!(s.choice(1 << 22, 32, 100), Choice::Air);
    }

    #[test]
    fn dispatched_selection_is_correct_both_ways() {
        let s = SelectK::default();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        for (n, k) in [(1 << 17, 32), (1 << 17, 4096), (2048, 7)] {
            let data = generate(Distribution::Normal, n, k as u64);
            let input = gpu.htod("in", &data);
            let out = s.select(&mut gpu, &input, k);
            verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec())
                .unwrap_or_else(|e| panic!("n={n} k={k}: {e}"));
        }
    }

    #[test]
    fn dispatch_picks_the_faster_algorithm() {
        // The routing must actually pay off at its two poles.
        let time = |alg: &dyn TopKAlgorithm, data: &[f32], k: usize| {
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let input = gpu.htod("in", data);
            gpu.reset_profile();
            let _ = alg.select(&mut gpu, &input, k);
            gpu.elapsed_us()
        };
        let s = SelectK::default();
        let data = generate(Distribution::Uniform, 1 << 21, 3);

        // Small K: dispatcher ~ GridSelect <= AIR.
        let auto = time(&s, &data, 32);
        let air = time(&AirTopK::default(), &data, 32);
        assert!(auto <= air * 1.05, "auto {auto} vs air {air} at K=32");

        // Large K: dispatcher ~ AIR <= GridSelect.
        let auto = time(&s, &data, 2048);
        let grid = time(&GridSelect::default(), &data, 2048);
        assert!(auto <= grid * 1.05, "auto {auto} vs grid {grid} at K=2048");
    }

    #[test]
    fn batch_dispatch_is_correct() {
        let s = SelectK::default();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let datas: Vec<Vec<f32>> = (0..4)
            .map(|i| generate(Distribution::Uniform, 1 << 17, i))
            .collect();
        let inputs: Vec<_> = datas
            .iter()
            .enumerate()
            .map(|(i, d)| gpu.htod(&format!("p{i}"), d))
            .collect();
        let outs = s.select_batch(&mut gpu, &inputs, 32);
        for (d, o) in datas.iter().zip(&outs) {
            verify_topk(d, 32, &o.values.to_vec(), &o.indices.to_vec()).unwrap();
        }
    }

    #[test]
    fn sketch_aware_dispatch_stays_correct_on_skew() {
        let s = SelectK::default();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        for (n, k) in [(70_000, 64), (16 * 1024, 500), (1 << 18, 4096)] {
            let data = generate(Distribution::RadixAdversarial { m_bits: 24 }, n, 11);
            let sketch = DistSketch::from_sample(&data);
            let input = gpu.htod("in", &data);
            let out = s
                .try_select_with_sketch(&mut gpu, &input, k, sketch)
                .unwrap();
            verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec())
                .unwrap_or_else(|e| panic!("n={n} k={k}: {e}"));
        }
    }

    #[test]
    fn tuned_dispatch_beats_static_on_adversarial_batches() {
        // A skewed, batched workload: the static prior routes it to
        // AIR, whose histogram passes degenerate on the shared prefix.
        // The tuner must find a materially faster plan.
        let n = 1 << 18;
        let k = 128;
        let batch = 8;
        let datas: Vec<Vec<f32>> = (0..batch)
            .map(|i| generate(Distribution::RadixAdversarial { m_bits: 24 }, n, i as u64))
            .collect();
        let sketch = DistSketch::from_sample(&datas[0]);
        assert!(sketch.dist_class() >= 2, "sketch: {sketch:?}");

        let time = |s: &SelectK| {
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let inputs: Vec<_> = datas
                .iter()
                .enumerate()
                .map(|(i, d)| gpu.htod(&format!("p{i}"), d))
                .collect();
            gpu.reset_profile();
            let outs = s
                .try_select_batch_with_sketch(&mut gpu, &inputs, k, sketch)
                .unwrap();
            for (d, o) in datas.iter().zip(&outs) {
                verify_topk(d, k, &o.values.to_vec(), &o.indices.to_vec()).unwrap();
            }
            gpu.elapsed_us()
        };

        let static_us = time(&SelectK::static_prior());
        let tuned_us = time(&SelectK::default());
        assert!(
            tuned_us < static_us,
            "tuned {tuned_us:.1}µs vs static {static_us:.1}µs"
        );
    }

    #[test]
    fn matrix_selection_matches_batched_selection_for_every_configuration() {
        let (rows, n, k) = (3, 20_000, 64);
        let datas: Vec<Vec<f32>> = (0..rows)
            .map(|i| generate(Distribution::Normal, n, 40 + i as u64))
            .collect();
        let s = SelectK::default();
        let algos = [
            TunedAlgo::Air { bits_per_pass: 8 },
            TunedAlgo::Air { bits_per_pass: 11 },
            TunedAlgo::Grid,
            TunedAlgo::RadiK { bits_per_pass: 8 },
            TunedAlgo::RadiK { bits_per_pass: 11 },
            TunedAlgo::RowWise,
            TunedAlgo::Bucketed { per_bucket: 16 },
            TunedAlgo::TwoStage {
                partitions: 8,
                k_prime: 32,
            },
        ];
        for algo in algos {
            // One worker: AIR's atomic output cursors then place rows
            // in the same order on both paths.
            let mut gpu = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(1));
            let bufs: Vec<_> = datas.iter().map(|d| gpu.htod("row", d)).collect();
            let batched = s
                .with_selector(algo, |a| a.try_select_batch(&mut gpu, &bufs, k))
                .unwrap();
            let m = DeviceMatrix::htod(&mut gpu, "m", &datas.concat(), rows, n);
            let (vals, idxs) = s.try_select_matrix_as(&mut gpu, &m, k, algo).unwrap();
            assert_eq!((vals.rows(), vals.cols()), (rows, k));
            for (r, out) in batched.iter().enumerate() {
                assert_eq!(vals.row_to_vec(r), out.values.to_vec(), "{algo:?} row {r}");
                assert_eq!(idxs.row_to_vec(r), out.indices.to_vec(), "{algo:?} row {r}");
            }
        }
        // The routed entry point answers exactly, one row or several.
        let mut gpu = Gpu::new(DeviceSpec::a100());
        for r in [1, rows] {
            let m = DeviceMatrix::htod(&mut gpu, "m", &datas[..r].concat(), r, n);
            let (vals, idxs) = s
                .try_select_matrix_with_sketch(&mut gpu, &m, k, DistSketch::uniform())
                .unwrap();
            for (row, data) in datas[..r].iter().enumerate() {
                verify_topk(data, k, &vals.row_to_vec(row), &idxs.row_to_vec(row)).unwrap();
            }
        }
    }

    #[test]
    fn unsupported_tuned_pick_falls_back_to_the_static_prior() {
        // Force a plan that is invalid for the actual shape by loading
        // a poisoned table: RowWise caps k at 2048, so a RowWise plan
        // for a k=4096 bucket must fall back rather than fail.
        let tuner = Tuner::new();
        let shape = ProblemShape::new(16 * 1024, 4096, 1);
        let key = crate::tuner::PlanKey::of(&shape);
        let mut table = crate::tuner::PlanTable::new();
        table.insert(
            key,
            Plan {
                algo: TunedAlgo::RowWise,
                predicted_us: 1.0,
                raw_us: 1.0,
            },
        );
        tuner.load_table_text(&table.to_text()).unwrap();
        let s = SelectK::with_tuner(tuner);

        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data = generate(Distribution::Uniform, 16 * 1024, 5);
        let input = gpu.htod("in", &data);
        let out = s.select(&mut gpu, &input, 4096);
        verify_topk(&data, 4096, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
    }
}
