//! Workload-adaptive dispatch: a cost-model-guided autotuner.
//!
//! The static heuristics in [`crate::dispatch`] encode the paper's §5.1
//! guidance ("small k on large inputs → GridSelect, everything else →
//! AIR"), but they are blind to two dimensions that dominate real
//! serving workloads:
//!
//! * **value distribution** — AIR's MSD radix scan degenerates when the
//!   keys share a long ordered-bit prefix (every histogram collapses
//!   into one bucket, so a pass reads the whole input and eliminates
//!   nothing), while [`crate::radik::RadiK`] sketches the prefix away
//!   and [`crate::gridselect::GridSelect`] never looks at digits at all;
//! * **batch geometry** — many small rows amortise badly over
//!   multi-pass algorithms (launch overhead × passes) but map perfectly
//!   onto the fused one-launch [`crate::rowwise::RowWiseTopK`] path.
//!
//! This module closes the gap with a two-part design:
//!
//! 1. **Offline planner.** For a [`ProblemShape`] — `(n, k, batch)`
//!    plus a [`DistSketch`] of the value distribution — the planner
//!    enumerates every *viable* candidate configuration (algorithm ×
//!    digit width), predicts each one's launch sequence as
//!    [`gpu_sim::PlannedLaunch`]es, and prices them through the same
//!    analytic roofline the simulator itself uses
//!    ([`gpu_sim::sequence_cost`]). The winner is cached in the
//!    tuner's plan table, keyed by a log₂-quantised [`PlanKey`], so one
//!    planning pass serves every shape in the same bucket.
//! 2. **Online refiner.** [`Tuner::observe`] feeds measured kernel
//!    latencies back in. Each algorithm family keeps an EMA calibration
//!    factor (observed / predicted); when recalibration flips the
//!    winner for a bucket the plan is replaced and
//!    `tuner_refinements` is bumped — mispredictions self-correct
//!    without a restart.
//!
//! Every family is priced from the launch plan its kernels launch from
//! (AIR's and RadiK's `RadixPlan`, GridSelect's `GridPlan`, the filter
//! family's `FilterPlan`), so the launch geometry that decides most
//! races (chunk sizes, pass counts, buffering thresholds, shared-memory
//! footprints, and with them occupancy and launch overhead) is the
//! kernels' own. The predictions model 32-bit keys, the serving
//! engine's element type.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Mutex;

use gpu_sim::{sequence_cost, DeviceSpec, PlannedLaunch};

use crate::air::AirConfig;
use crate::filter::FilterPlan;
use crate::gridselect::{GridPlan, MAX_K as GRID_MAX_K};
use crate::keys::{common_prefix_len_of, OrderedBits, RadixKey};
use crate::obs;
use crate::radix::{self, RadixPlan};
use crate::rowwise::ROWWISE_MAX_K;
use crate::{BucketedTopK, GridSelectConfig, TwoStageTopK};

/// Key width the predictors model and [`DistSketch`] normalises to
/// (the engine serves `f32` keys).
const KEY_BITS: u32 = 32;
/// Bytes per key in the modelled element type.
const KEY_BYTES: usize = KEY_BITS as usize / 8;
/// Independent min/max accumulators in [`DistSketch::from_sample`].
const SKETCH_LANES: usize = 16;

/// Largest row length at which the fused row-wise path is considered.
/// Beyond this a row no longer fits the "many small rows" regime the
/// kernel is designed for and the multi-pass algorithms catch up.
pub const ROWWISE_MAX_N: usize = 1 << 16;

/// A tiny, cheap-to-compute summary of a problem's value distribution.
///
/// The only statistic the radix algorithms care about is how many
/// leading *ordered* bits the whole input shares: those bits produce
/// fully degenerate histogram passes in AIR (one bucket, zero
/// elimination) and are exactly what RadiK's sketch pass skips. The
/// sketch stores that prefix length normalised to a 32-bit key space
/// so 64-bit key types quantise onto the same plan buckets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistSketch {
    /// Ordered-bit prefix shared by every key, scaled to 32-bit width.
    pub shared_prefix_bits: u32,
}

impl DistSketch {
    /// A sketch claiming no shared prefix (the uniform prior).
    pub fn uniform() -> Self {
        Self::default()
    }

    /// Build a sketch that claims `bits` shared leading bits.
    pub fn from_bits(bits: u32) -> Self {
        Self {
            shared_prefix_bits: bits.min(KEY_BITS),
        }
    }

    /// Compute the sketch of a host-side sample: the common ordered-bit
    /// prefix of the sample's min and max. `O(len)`, no allocation —
    /// cheap enough to run per query on a row sample.
    ///
    /// The scan is branch-free: a fixed set of independent running
    /// min/max pairs over the ordered bits, folded at the end, so the
    /// compiler can keep them in vector registers. Lanes start at the
    /// identities (`MAX` for min, `ZERO` for max), so the result is the
    /// exact min and max whatever the sample's length; an empty sample
    /// keeps `(MAX, ZERO)`, which share no prefix: the uniform sketch.
    pub fn from_sample<T: RadixKey>(sample: &[T]) -> Self {
        let mut mn = [T::Ordered::MAX; SKETCH_LANES];
        let mut mx = [T::Ordered::ZERO; SKETCH_LANES];
        let chunks = sample.chunks_exact(SKETCH_LANES);
        let tail = chunks.remainder();
        for chunk in chunks {
            for l in 0..SKETCH_LANES {
                let bits = chunk[l].to_ordered();
                mn[l] = mn[l].min(bits);
                mx[l] = mx[l].max(bits);
            }
        }
        for (l, v) in tail.iter().enumerate() {
            let bits = v.to_ordered();
            mn[l] = mn[l].min(bits);
            mx[l] = mx[l].max(bits);
        }
        let mn = mn.into_iter().fold(T::Ordered::MAX, Ord::min);
        let mx = mx.into_iter().fold(T::Ordered::ZERO, Ord::max);
        let prefix = common_prefix_len_of::<T::Ordered>(mn, mx);
        // Normalise to the 32-bit key space the predictors model.
        let scaled = (prefix as u64 * KEY_BITS as u64 / T::Ordered::BITS as u64) as u32;
        Self {
            shared_prefix_bits: scaled.min(KEY_BITS),
        }
    }

    /// Quantise the prefix length into one of four classes; plans are
    /// cached per class rather than per exact bit count.
    pub fn dist_class(&self) -> u8 {
        match self.shared_prefix_bits {
            0..=7 => 0,
            8..=15 => 1,
            16..=23 => 2,
            _ => 3,
        }
    }

    /// The prefix length the predictors assume for a class (a central
    /// value of the class's range).
    pub fn class_representative(class: u8) -> Self {
        let bits = match class {
            0 => 0,
            1 => 12,
            2 => 20,
            _ => 28,
        };
        Self::from_bits(bits)
    }
}

/// Everything the planner needs to know about one dispatch decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProblemShape {
    /// Elements per problem (row length).
    pub n: usize,
    /// Selection size.
    pub k: usize,
    /// Number of independent problems dispatched together.
    pub batch: usize,
    /// Distribution sketch of the values.
    pub sketch: DistSketch,
}

impl ProblemShape {
    /// A shape with the uniform (zero-knowledge) sketch.
    pub fn new(n: usize, k: usize, batch: usize) -> Self {
        Self {
            n,
            k,
            batch,
            sketch: DistSketch::uniform(),
        }
    }

    /// Attach a distribution sketch.
    pub fn with_sketch(mut self, sketch: DistSketch) -> Self {
        self.sketch = sketch;
        self
    }
}

/// Log₂-quantised plan-table key. Sizes are bucketed by *ceiling*
/// log₂, so a bucket's representative shape is the largest shape the
/// bucket contains — any algorithm viable for the representative is
/// viable for every shape that maps to the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanKey {
    /// `ceil(log2(n))`.
    pub n_log2: u8,
    /// `ceil(log2(k))`.
    pub k_log2: u8,
    /// `ceil(log2(batch))`.
    pub batch_log2: u8,
    /// [`DistSketch::dist_class`].
    pub dist_class: u8,
}

fn ceil_log2(x: usize) -> u8 {
    let x = x.max(1);
    (usize::BITS - (x - 1).leading_zeros()) as u8
}

impl PlanKey {
    /// Quantise a shape.
    pub fn of(shape: &ProblemShape) -> Self {
        Self {
            n_log2: ceil_log2(shape.n),
            k_log2: ceil_log2(shape.k),
            batch_log2: ceil_log2(shape.batch),
            dist_class: shape.sketch.dist_class(),
        }
    }

    /// The bucket's representative shape: the largest member, with the
    /// class-central sketch. Predictions are made for this shape so the
    /// whole bucket shares one deterministic plan.
    pub fn representative(&self) -> ProblemShape {
        let n = 1usize << self.n_log2.min(62);
        let k = (1usize << self.k_log2.min(62)).min(n);
        let batch = 1usize << self.batch_log2.min(62);
        ProblemShape {
            n,
            k,
            batch,
            sketch: DistSketch::class_representative(self.dist_class),
        }
    }
}

/// One tuned configuration: an algorithm plus its tunable parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunedAlgo {
    /// Multi-pass AIR Top-K with the given radix digit width.
    Air {
        /// Histogram digit width in bits.
        bits_per_pass: u32,
    },
    /// GridSelect (warp-queue partial sort + tree merge).
    Grid,
    /// Skew-resistant RadiK with the given radix digit width.
    RadiK {
        /// Histogram digit width in bits.
        bits_per_pass: u32,
    },
    /// Fused one-launch row-wise selection.
    RowWise,
    /// Approximate bucketed single-pass selection keeping `per_bucket`
    /// winners per contiguous bucket. Never enumerated by the
    /// exact-only [`Tuner::candidates`]; offered through
    /// [`Tuner::approx_candidates`] when the caller trades recall for
    /// latency.
    Bucketed {
        /// Winners kept per bucket (`c`).
        per_bucket: u32,
    },
    /// Approximate generalized two-stage selection: `partitions`
    /// blocks each keep `k_prime` candidates, one exact reduce
    /// finishes. Approx-only, like [`TunedAlgo::Bucketed`].
    TwoStage {
        /// Stage-one partition count.
        partitions: u32,
        /// Candidates each partition keeps (k′).
        k_prime: u32,
    },
}

impl TunedAlgo {
    /// The calibration family this configuration belongs to.
    pub fn family(&self) -> &'static str {
        match self {
            TunedAlgo::Air { .. } => "air",
            TunedAlgo::Grid => "grid",
            TunedAlgo::RadiK { .. } => "radik",
            TunedAlgo::RowWise => "rowwise",
            TunedAlgo::Bucketed { .. } => "bucketed",
            TunedAlgo::TwoStage { .. } => "twostage",
        }
    }

    /// Stable text label (`air:11`, `grid`, `radik:8`, `rowwise`,
    /// `bucketed:16`, `twostage:8x32`) used by the bench baseline digest
    /// and the profiler.
    pub fn encode(&self) -> String {
        match self {
            TunedAlgo::Air { bits_per_pass } => format!("air:{bits_per_pass}"),
            TunedAlgo::Grid => "grid".to_string(),
            TunedAlgo::RadiK { bits_per_pass } => format!("radik:{bits_per_pass}"),
            TunedAlgo::RowWise => "rowwise".to_string(),
            TunedAlgo::Bucketed { per_bucket } => format!("bucketed:{per_bucket}"),
            TunedAlgo::TwoStage {
                partitions,
                k_prime,
            } => format!("twostage:{partitions}x{k_prime}"),
        }
    }
}

/// A cached planning decision for one [`PlanKey`] bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// The winning configuration.
    pub algo: TunedAlgo,
    /// Calibrated cost estimate at planning time (µs).
    pub predicted_us: f64,
    /// Uncalibrated analytic cost (µs); the refiner compares
    /// observations against this to keep calibration independent of
    /// its own feedback.
    pub raw_us: f64,
}

/// The cost-model-guided autotuner. See the module docs for the
/// overall design; thread-safe (`&self` everywhere) so one instance
/// can sit behind the engine's shared dispatcher.
#[derive(Debug, Default)]
pub struct Tuner {
    table: Mutex<BTreeMap<PlanKey, Plan>>,
    /// Per-family EMA of observed/raw-predicted latency.
    calibration: Mutex<BTreeMap<&'static str, f64>>,
}

/// EMA smoothing for calibration updates: `new = (1-β)·old + β·ratio`.
const CALIBRATION_BETA: f64 = 0.3;

impl Tuner {
    /// A tuner with an empty table and neutral calibration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return the plan for a shape, planning (and caching) on miss;
    /// `None` when no configuration fits the device (a device whose
    /// blocks cannot hold a radix histogram, say). A miss without a
    /// plan caches nothing.
    pub fn plan(&self, spec: &DeviceSpec, shape: &ProblemShape) -> Option<Plan> {
        let key = PlanKey::of(shape);
        if let Some(plan) = self.table.lock().unwrap().get(&key) {
            obs::counters().tuner_plan_hits.fetch_add(1, Relaxed);
            return Some(*plan);
        }
        obs::counters().tuner_plan_misses.fetch_add(1, Relaxed);
        let plan = self.plan_uncached(spec, &key)?;
        self.insert(key, plan);
        Some(plan)
    }

    /// Cache `plan` for `key`'s bucket, replacing any plan there.
    pub(crate) fn insert(&self, key: PlanKey, plan: Plan) {
        self.table.lock().unwrap().insert(key, plan);
    }

    fn plan_uncached(&self, spec: &DeviceSpec, key: &PlanKey) -> Option<Plan> {
        let shape = key.representative();
        let calibration = self.calibration.lock().unwrap().clone();
        let mut best: Option<Plan> = None;
        for algo in Self::candidates(spec, &shape) {
            let Some(raw_us) = predict_raw_us(spec, &shape, algo) else {
                continue;
            };
            let factor = calibration.get(algo.family()).copied().unwrap_or(1.0);
            let predicted_us = raw_us * factor;
            let better = best.is_none_or(|b| predicted_us < b.predicted_us);
            if better {
                best = Some(Plan {
                    algo,
                    predicted_us,
                    raw_us,
                });
            }
        }
        best
    }

    /// Enumerate the configurations for a shape on a device. AIR
    /// (both digit widths) is always listed, and priced only where its
    /// plan fits the device; the others are gated by their structural
    /// limits so a plan can never pick an unsupported configuration.
    ///
    /// Deliberately **exact-only**: the approximate families never
    /// appear here, so default dispatch, cached plan tables and the
    /// committed bench baselines are untouched by their existence.
    /// Callers that can spend recall ask [`Self::approx_candidates`]
    /// explicitly.
    pub fn candidates(spec: &DeviceSpec, shape: &ProblemShape) -> Vec<TunedAlgo> {
        let mut out = vec![
            TunedAlgo::Air { bits_per_pass: 8 },
            TunedAlgo::Air { bits_per_pass: 11 },
        ];
        if shape.k <= GRID_MAX_K && shape.k < shape.n {
            out.push(TunedAlgo::Grid);
        }
        for bits_per_pass in [8, 11] {
            let radik = TunedAlgo::RadiK { bits_per_pass };
            if shape.k <= shape.n && radix_plan(spec, shape, radik).is_some() {
                out.push(radik);
            }
        }
        if shape.n <= ROWWISE_MAX_N && filter_plan(spec, shape, TunedAlgo::RowWise).is_some() {
            out.push(TunedAlgo::RowWise);
        }
        out
    }

    /// The approximate configurations clearing `recall_target` on this
    /// shape, cheapest-parameter first per family (two-stage before
    /// bucketed: at equal partitioning it keeps more candidates, so it
    /// is the gentler rung). Parameters come from the analytic recall
    /// planners in [`crate::recall`]; configurations the device or
    /// shape cannot support are dropped. Empty for `recall_target >=
    /// 1.0` — approximation is strictly opt-in.
    pub fn approx_candidates(
        spec: &DeviceSpec,
        shape: &ProblemShape,
        recall_target: f64,
    ) -> Vec<TunedAlgo> {
        if recall_target >= 1.0 || shape.k == 0 || shape.k > shape.n {
            return Vec::new();
        }
        let mut out = Vec::new();
        let ts = crate::recall::plan_two_stage(shape.n, shape.k, recall_target);
        let algo = TunedAlgo::TwoStage {
            partitions: ts.partitions as u32,
            k_prime: ts.k_prime as u32,
        };
        // The planners fall back to their most faithful feasible
        // parameters when the shape cannot reach the target (e.g.
        // n < 2K caps k'); such plans are not offered.
        if ts.expected_recall(shape.k) >= recall_target
            && predict_raw_us(spec, shape, algo).is_some()
        {
            out.push(algo);
        }
        let b = crate::recall::plan_bucketed(shape.n, shape.k, recall_target);
        let algo = TunedAlgo::Bucketed {
            per_bucket: b.per_bucket as u32,
        };
        if b.expected_recall(shape.k) >= recall_target
            && predict_raw_us(spec, shape, algo).is_some()
        {
            out.push(algo);
        }
        out
    }

    /// Calibrated cost estimate for one configuration, or `None` if it
    /// is not viable on this device.
    pub fn predict_us(
        &self,
        spec: &DeviceSpec,
        shape: &ProblemShape,
        algo: TunedAlgo,
    ) -> Option<f64> {
        let raw = predict_raw_us(spec, shape, algo)?;
        let factor = self.calibration_factor(algo.family());
        Some(raw * factor)
    }

    /// Current EMA calibration factor for an algorithm family.
    pub fn calibration_factor(&self, family: &str) -> f64 {
        self.calibration
            .lock()
            .unwrap()
            .get(family)
            .copied()
            .unwrap_or(1.0)
    }

    /// Snapshot every family's EMA calibration factor, in family order.
    /// Families the refiner has never touched are absent (their
    /// implicit factor is 1.0).
    pub fn calibration_snapshot(&self) -> Vec<(&'static str, f64)> {
        self.calibration
            .lock()
            .unwrap()
            .iter()
            .map(|(family, factor)| (*family, *factor))
            .collect()
    }

    /// Counter-neutral table lookup: the cached plan for a shape's
    /// bucket, if one exists. Unlike [`Self::plan`] this neither plans
    /// on a miss nor touches the `tuner_plan_hits`/`tuner_plan_misses`
    /// observability counters, so a profiler can read the prediction a
    /// dispatch is about to use without perturbing the hit-rate it is
    /// trying to measure.
    pub fn peek(&self, shape: &ProblemShape) -> Option<Plan> {
        self.table.lock().unwrap().get(&PlanKey::of(shape)).copied()
    }

    /// Feed back an observed latency for a shape that was dispatched
    /// through [`Self::plan`]. Updates the winning family's calibration
    /// EMA and re-plans the bucket under the new calibration; if the
    /// winner changes, the plan is replaced and `tuner_refinements`
    /// is incremented.
    pub fn observe(&self, spec: &DeviceSpec, shape: &ProblemShape, observed_us: f64) {
        if !observed_us.is_finite() || observed_us <= 0.0 {
            return;
        }
        let key = PlanKey::of(shape);
        let current = match self.table.lock().unwrap().get(&key) {
            Some(plan) => *plan,
            None => return,
        };
        if current.raw_us <= 0.0 {
            return;
        }
        let ratio = observed_us / current.raw_us;
        {
            let mut calibration = self.calibration.lock().unwrap();
            let factor = calibration.entry(current.algo.family()).or_insert(1.0);
            *factor = (1.0 - CALIBRATION_BETA) * *factor + CALIBRATION_BETA * ratio;
        }
        // The bucket was planned, so a candidate fits.
        let Some(replanned) = self.plan_uncached(spec, &key) else {
            return;
        };
        if replanned.algo != current.algo {
            obs::counters().tuner_refinements.fetch_add(1, Relaxed);
        }
        self.insert(key, replanned);
    }

    /// Number of cached plan buckets.
    pub fn table_len(&self) -> usize {
        self.table.lock().unwrap().len()
    }
}

fn predict_raw_us(spec: &DeviceSpec, shape: &ProblemShape, algo: TunedAlgo) -> Option<f64> {
    if shape.n == 0 || shape.k == 0 || shape.k > shape.n || shape.batch == 0 {
        return None;
    }
    let launches = match algo {
        TunedAlgo::Air { .. } | TunedAlgo::RadiK { .. } => {
            radix_plan(spec, shape, algo)?.launches(spec, shape.sketch)
        }
        TunedAlgo::Grid => predict_grid(spec, shape)?,
        TunedAlgo::RowWise | TunedAlgo::Bucketed { .. } | TunedAlgo::TwoStage { .. } => {
            filter_plan(spec, shape, algo)?.launches()
        }
    };
    Some(sequence_cost(spec, &launches))
}

/// AIR's or RadiK's own launch plan ([`RadixPlan`]) at the default
/// configuration and the given digit width; `None` where the kernels
/// cannot run it, and for RadiK wherever it would take AIR's copy or
/// one-block kernel (not a distinct configuration).
fn radix_plan(spec: &DeviceSpec, shape: &ProblemShape, algo: TunedAlgo) -> Option<RadixPlan> {
    let (bits_per_pass, sketched) = match algo {
        TunedAlgo::Air { bits_per_pass } => (bits_per_pass, false),
        TunedAlgo::RadiK { bits_per_pass } => (bits_per_pass, true),
        _ => return None,
    };
    if !(1..=16).contains(&bits_per_pass) {
        return None;
    }
    let cfg = AirConfig {
        bits_per_pass,
        ..AirConfig::default()
    };
    let ProblemShape { n, k, batch, .. } = *shape;
    let plan = RadixPlan::new(spec, &cfg, n, k, batch, KEY_BITS, sketched);
    let distinct = !sketched || plan.path == radix::Path::MultiPass;
    (distinct && plan.shared <= spec.shared_mem_per_block).then_some(plan)
}

/// GridSelect's own launch plan ([`GridPlan`]) for the default
/// configuration: the launches the kernel makes, not a copy of them.
fn predict_grid(spec: &DeviceSpec, shape: &ProblemShape) -> Option<Vec<PlannedLaunch>> {
    let ProblemShape { n, k, batch, .. } = *shape;
    if k > GRID_MAX_K || k >= n {
        return None;
    }
    let cfg = GridSelectConfig::default();
    let plan = GridPlan::new(spec, n, k, batch, &cfg, KEY_BYTES, true);
    (plan.launches[0].stats.shared_mem_bytes <= spec.shared_mem_per_block as u64)
        .then_some(plan.launches)
}

/// The filter family's own launch plan ([`FilterPlan`]), the plan its
/// kernels launch from; `None` where the kernels reject the
/// configuration.
fn filter_plan(spec: &DeviceSpec, shape: &ProblemShape, algo: TunedAlgo) -> Option<FilterPlan> {
    let ProblemShape { n, k, batch, .. } = *shape;
    let key_bytes = KEY_BYTES;
    let plan = match algo {
        TunedAlgo::RowWise if k <= ROWWISE_MAX_K => {
            FilterPlan::rowwise(spec, n, k, batch, key_bytes)
        }
        TunedAlgo::Bucketed { per_bucket } if per_bucket > 0 => {
            let buckets = BucketedTopK::new(per_bucket as usize).plan(k);
            FilterPlan::bucketed(spec, n, k, batch, buckets, key_bytes)
        }
        TunedAlgo::TwoStage {
            partitions,
            k_prime,
        } if partitions > 0 && k_prime > 0 => {
            let parts = TwoStageTopK::new(partitions as usize, k_prime as usize).plan();
            FilterPlan::two_stage(spec, n, k, batch, parts, key_bytes)
        }
        _ => return None,
    };
    plan.ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::counters;

    fn a100() -> DeviceSpec {
        DeviceSpec::a100()
    }

    #[test]
    fn sketch_classes_bucket_prefix_bits() {
        assert_eq!(DistSketch::uniform().dist_class(), 0);
        assert_eq!(DistSketch::from_bits(7).dist_class(), 0);
        assert_eq!(DistSketch::from_bits(8).dist_class(), 1);
        assert_eq!(DistSketch::from_bits(16).dist_class(), 2);
        assert_eq!(DistSketch::from_bits(24).dist_class(), 3);
        assert_eq!(DistSketch::from_bits(99).shared_prefix_bits, 32);
    }

    #[test]
    fn sketch_from_sample_detects_shared_prefixes() {
        // Uniform-ish spread → tiny prefix.
        let spread: Vec<f32> = (0..1024).map(|i| i as f32 - 512.0).collect();
        assert_eq!(DistSketch::from_sample(&spread).dist_class(), 0);

        // Values packed into a narrow band share a long ordered prefix.
        let narrow: Vec<f32> = (0..1024).map(|i| 1.0 + i as f32 * 1e-7).collect();
        assert!(DistSketch::from_sample(&narrow).shared_prefix_bits >= 16);

        // Degenerate inputs.
        assert_eq!(DistSketch::from_sample::<f32>(&[]).shared_prefix_bits, 0);
        assert_eq!(DistSketch::from_sample(&[3.5f32]).shared_prefix_bits, 32);

        // 64-bit keys normalise onto the 32-bit class space.
        let wide64: Vec<f64> = (0..512).map(|i| i as f64 * 1e300 - 1e302).collect();
        assert_eq!(DistSketch::from_sample(&wide64).dist_class(), 0);
    }

    #[test]
    fn plan_keys_quantise_by_ceiling_log2() {
        let key = PlanKey::of(&ProblemShape::new(1000, 17, 3));
        assert_eq!((key.n_log2, key.k_log2, key.batch_log2), (10, 5, 2));
        // The representative is the largest member of the bucket.
        let rep = key.representative();
        assert_eq!((rep.n, rep.k, rep.batch), (1024, 32, 4));
        // Same bucket → same key.
        assert_eq!(key, PlanKey::of(&ProblemShape::new(1024, 32, 4)));
        assert_ne!(key, PlanKey::of(&ProblemShape::new(1025, 32, 4)));
    }

    #[test]
    fn candidates_always_include_air_and_respect_gates() {
        let spec = a100();
        let tiny = ProblemShape::new(4096, 64, 1);
        let cands = Tuner::candidates(&spec, &tiny);
        assert!(cands.iter().any(|c| matches!(c, TunedAlgo::Air { .. })));
        assert!(
            !cands.iter().any(|c| matches!(c, TunedAlgo::RadiK { .. })),
            "RadiK delegates below the one-block threshold"
        );

        let huge_k = ProblemShape::new(1 << 20, 1 << 14, 1);
        let cands = Tuner::candidates(&spec, &huge_k);
        assert!(
            !cands.contains(&TunedAlgo::Grid),
            "k beyond GridSelect's cap"
        );
        assert!(!cands.contains(&TunedAlgo::RowWise));
        assert!(cands.iter().any(|c| matches!(c, TunedAlgo::RadiK { .. })));
    }

    #[test]
    fn calibration_snapshot_reflects_observations() {
        let tuner = Tuner::new();
        assert!(tuner.calibration_snapshot().is_empty());
        let shape = ProblemShape::new(1 << 16, 64, 1);
        let plan = tuner.plan(&a100(), &shape).unwrap();
        // Observe double the raw prediction: EMA moves toward 2.0.
        tuner.observe(&a100(), &shape, plan.raw_us * 2.0);
        let snap = tuner.calibration_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, plan.algo.family());
        assert!(snap[0].1 > 1.0 && snap[0].1 < 2.0, "factor {}", snap[0].1);
        assert_eq!(tuner.calibration_factor(plan.algo.family()), snap[0].1);
    }

    #[test]
    fn grid_prediction_is_the_launches_gridselect_makes() {
        // Launch count, grid and block dims and every byte counter equal
        // the observed reports; so do the merge rounds' compute ops.
        // Only the main kernel's ops (its flushes) are modelled.
        use crate::{GridSelect, TopKAlgorithm};
        use datagen::{generate, Distribution};
        let spec = a100();
        let shape_of = |r: &PlannedLaunch| {
            let s = r.stats;
            let bytes = (
                s.bytes_read,
                s.bytes_written,
                s.bytes_scattered,
                s.atomic_ops,
            );
            (r.grid_dim, r.block_dim, bytes, s.shared_mem_bytes)
        };
        for dist in [Distribution::Uniform, Distribution::Normal] {
            for (n, k, batch) in [(1 << 18, 32, 1), (1 << 18, 256, 1), (20_001, 64, 8)] {
                let planned = predict_grid(&spec, &ProblemShape::new(n, k, batch)).unwrap();
                let mut gpu = gpu_sim::Gpu::new(spec.clone());
                let inputs: Vec<_> = (0..batch)
                    .map(|b| gpu.htod("in", &generate(dist, n, b as u64)))
                    .collect();
                gpu.reset_profile();
                GridSelect::default().select_batch(&mut gpu, &inputs, k);
                let observed: Vec<PlannedLaunch> = gpu
                    .reports()
                    .iter()
                    .map(|r| PlannedLaunch {
                        grid_dim: r.cfg.grid_dim,
                        block_dim: r.cfg.block_dim,
                        stats: r.stats,
                    })
                    .collect();
                let cell = format!("{dist:?} n={n} k={k} batch={batch}");
                assert!(observed.len() > 1, "{cell}: no merge round");
                let shapes = |ls: &[PlannedLaunch]| ls.iter().map(shape_of).collect::<Vec<_>>();
                assert_eq!(shapes(&planned), shapes(&observed), "{cell}");
                let merge_ops = |ls: &[PlannedLaunch]| {
                    ls[1..]
                        .iter()
                        .map(|l| l.stats.compute_ops)
                        .collect::<Vec<_>>()
                };
                assert_eq!(merge_ops(&planned), merge_ops(&observed), "{cell}");
            }
        }
    }

    const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    fn fnv(h: &mut u64, x: u64) {
        for b in x.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// FNV-1a digest of `algo`'s raw prediction bits over `shapes`.
    fn prediction_digest(spec: &DeviceSpec, algo: TunedAlgo, shapes: &[ProblemShape]) -> u64 {
        let mut h = FNV_BASIS;
        for shape in shapes {
            match predict_raw_us(spec, shape, algo) {
                Some(us) => {
                    fnv(&mut h, 1);
                    fnv(&mut h, us.to_bits());
                }
                None => fnv(&mut h, 0),
            }
        }
        h
    }

    /// Compare digests against a pinned table, listing the new table
    /// on a mismatch.
    fn assert_pinned(got: &[(String, u64)], want: &[(&str, u64)]) {
        let want: Vec<(String, u64)> = want.iter().map(|&(c, h)| (c.to_string(), h)).collect();
        let listing: String = got
            .iter()
            .map(|(cell, h)| format!("        (\"{cell}\", {h:#018x}),\n"))
            .collect();
        assert!(got == want, "predictions moved; now:\n{listing}");
    }

    /// AIR's and RadiK's raw predictions and the planner's picks,
    /// pinned bit for bit on two devices: N 2^9-2^21 × K 2^0-2^12
    /// (K < N) × batch 1/8/256 × shared prefix {0, 12, 24, 28} bits,
    /// which covers the one-block and multi-pass paths. The K = N cells
    /// (N ≤ 2^12, the copy-all path) have digests of their own, and the
    /// picks also cover N 2^1-2^8.
    #[test]
    fn radix_predictions_are_pinned() {
        let configs = [
            TunedAlgo::Air { bits_per_pass: 8 },
            TunedAlgo::Air { bits_per_pass: 11 },
            TunedAlgo::RadiK { bits_per_pass: 8 },
            TunedAlgo::RadiK { bits_per_pass: 11 },
        ];
        let shapes = |ns: std::ops::RangeInclusive<u32>, k_eq_n: bool| -> Vec<ProblemShape> {
            let mut out = Vec::new();
            for n in ns {
                for k in (0..=12).filter(|&k| if k_eq_n { k == n } else { k < n }) {
                    for batch in [1, 8, 256] {
                        for bits in [0, 12, 24, 28] {
                            let shape = ProblemShape::new(1 << n, 1 << k, batch);
                            out.push(shape.with_sketch(DistSketch::from_bits(bits)));
                        }
                    }
                }
            }
            out
        };
        let (below, equal, picked) = (
            shapes(9..=21, false),
            shapes(0..=12, true),
            shapes(1..=21, false),
        );
        let mut got: Vec<(String, u64)> = Vec::new();
        for (device, spec) in [("a100", a100()), ("test_tiny", DeviceSpec::test_tiny())] {
            for (cells, shapes) in [("", &below), (" K=N", &equal)] {
                for algo in configs {
                    let h = prediction_digest(&spec, algo, shapes);
                    got.push((format!("{device}{cells} {}", algo.encode()), h));
                }
            }
            // The uncalibrated planner's choice for each shape's bucket;
            // every shape has a viable candidate.
            for (cells, shapes) in [("", &picked), (" K=N", &equal)] {
                let mut h = FNV_BASIS;
                for shape in shapes.iter() {
                    let rep = PlanKey::of(shape).representative();
                    let priced = Tuner::candidates(&spec, &rep)
                        .into_iter()
                        .filter_map(|algo| Some((predict_raw_us(&spec, &rep, algo)?, algo)));
                    let (us, algo) = priced
                        .reduce(|best, next| if next.0 < best.0 { next } else { best })
                        .unwrap_or_else(|| panic!("{device}: no viable candidate for {rep:?}"));
                    algo.encode().bytes().for_each(|b| fnv(&mut h, b as u64));
                    fnv(&mut h, us.to_bits());
                    fnv(&mut h, u64::MAX);
                }
                got.push((format!("{device}{cells} picks"), h));
            }
        }
        assert_pinned(&got, RADIX_PREDICTIONS);
    }

    const RADIX_PREDICTIONS: &[(&str, u64)] = &[
        ("a100 air:8", 0x32e9eb3b812e0add),
        ("a100 air:11", 0x2c789bd2c74269b0),
        ("a100 radik:8", 0x77152df96b417419),
        ("a100 radik:11", 0x159341b3a4fdb819),
        ("a100 K=N air:8", 0xad6c794779c1f28d),
        ("a100 K=N air:11", 0xad6c794779c1f28d),
        ("a100 K=N radik:8", 0x7718dd1c39c074a5),
        ("a100 K=N radik:11", 0x7718dd1c39c074a5),
        ("a100 picks", 0x94555da2e47d91cf),
        ("a100 K=N picks", 0xafee98d815d58dcd),
        ("test_tiny air:8", 0xb2b9d31f0e702129),
        ("test_tiny air:11", 0xa5c736278e6bf042),
        ("test_tiny radik:8", 0xb1d5548d1e3c69b9),
        ("test_tiny radik:11", 0x6e95b69656d2a659),
        ("test_tiny K=N air:8", 0xb31c030bbe780bfd),
        ("test_tiny K=N air:11", 0xb31c030bbe780bfd),
        ("test_tiny K=N radik:8", 0x7718dd1c39c074a5),
        ("test_tiny K=N radik:11", 0x7718dd1c39c074a5),
        ("test_tiny picks", 0x472cc2089546a033),
        ("test_tiny K=N picks", 0xbd39934d557cc145),
    ];

    /// The filter family's raw predictions and both candidate lists,
    /// pinned bit for bit over the 2^14-2^21 × K 32-4096 × batch
    /// 1/8/256 grid on two devices: one FNV-1a digest per
    /// (device, configuration) or (device, list).
    #[test]
    fn filter_family_predictions_are_pinned() {
        let configs = [
            TunedAlgo::RowWise,
            TunedAlgo::Bucketed { per_bucket: 4 },
            TunedAlgo::Bucketed { per_bucket: 16 },
            TunedAlgo::Bucketed { per_bucket: 64 },
            TunedAlgo::TwoStage {
                partitions: 8,
                k_prime: 32,
            },
            TunedAlgo::TwoStage {
                partitions: 16,
                k_prime: 8,
            },
            TunedAlgo::TwoStage {
                partitions: 64,
                k_prime: 64,
            },
        ];
        let shapes: Vec<ProblemShape> = (14..=21)
            .flat_map(|n| (5..=12).flat_map(move |k| [1, 8, 256].map(|b| (n, k, b))))
            .map(|(n, k, b)| ProblemShape::new(1 << n, 1 << k, b))
            .collect();
        let mut got: Vec<(String, u64)> = Vec::new();
        for (device, spec) in [("a100", a100()), ("test_tiny", DeviceSpec::test_tiny())] {
            for algo in configs {
                let h = prediction_digest(&spec, algo, &shapes);
                got.push((format!("{device} {}", algo.encode()), h));
            }
            for (name, target) in [
                ("candidates", None),
                ("approx 0.9", Some(0.9)),
                ("approx 0.95", Some(0.95)),
            ] {
                let mut h = FNV_BASIS;
                for shape in &shapes {
                    let list = match target {
                        None => Tuner::candidates(&spec, shape),
                        Some(t) => Tuner::approx_candidates(&spec, shape, t),
                    };
                    for algo in list {
                        algo.encode().bytes().for_each(|b| fnv(&mut h, b as u64));
                        fnv(&mut h, u64::MAX);
                    }
                    fnv(&mut h, 0);
                }
                got.push((format!("{device} {name}"), h));
            }
        }
        assert_pinned(&got, FILTER_PREDICTIONS);
    }

    const FILTER_PREDICTIONS: &[(&str, u64)] = &[
        ("a100 rowwise", 0xa521f5e27243a249),
        ("a100 bucketed:4", 0x242b858794d32906),
        ("a100 bucketed:16", 0xf41abec353a34a7c),
        ("a100 bucketed:64", 0xc48d1f587ae4e78d),
        ("a100 twostage:8x32", 0x282fa36410837045),
        ("a100 twostage:16x8", 0x2a5689b3dfadabb6),
        ("a100 twostage:64x64", 0xd4d0bdd2a228aa4a),
        ("a100 candidates", 0x4d5821b54b19518f),
        ("a100 approx 0.9", 0xc51c8e697dff671b),
        ("a100 approx 0.95", 0x0e642a6af86ad9ee),
        ("test_tiny rowwise", 0xf3b3365645c54ab3),
        ("test_tiny bucketed:4", 0xd92f3509dc945804),
        ("test_tiny bucketed:16", 0xd92f3509dc945804),
        ("test_tiny bucketed:64", 0x1a8a429a16b4def9),
        ("test_tiny twostage:8x32", 0x69b9725468db3b3a),
        ("test_tiny twostage:16x8", 0x4bfa9c53e66dc2ee),
        ("test_tiny twostage:64x64", 0x44292132d7fa9938),
        ("test_tiny candidates", 0x203ff0eb35627445),
        ("test_tiny approx 0.9", 0x94b368da8f7a4974),
        ("test_tiny approx 0.95", 0x436d36cf215775e7),
    ];

    #[test]
    fn planner_picks_rowwise_for_many_small_rows() {
        let tuner = Tuner::new();
        let shape = ProblemShape::new(16 * 1024, 64, 256);
        let plan = tuner.plan(&a100(), &shape).unwrap();
        assert_eq!(plan.algo, TunedAlgo::RowWise, "plan: {plan:?}");
    }

    #[test]
    fn planner_picks_radik_for_skewed_large_k_batches() {
        let tuner = Tuner::new();
        // Beyond GridSelect's k cap, heavily skewed, batched: AIR wastes
        // whole passes on the shared prefix, RadiK sketches it away.
        let shape = ProblemShape::new(1 << 20, 4096, 16).with_sketch(DistSketch::from_bits(24));
        let plan = tuner.plan(&a100(), &shape).unwrap();
        assert!(
            matches!(plan.algo, TunedAlgo::RadiK { .. }),
            "plan: {plan:?}"
        );
    }

    #[test]
    fn planner_avoids_air_on_heavy_skew() {
        let tuner = Tuner::new();
        let spec = a100();
        let shape = ProblemShape::new(1 << 18, 128, 32).with_sketch(DistSketch::from_bits(28));
        let plan = tuner.plan(&spec, &shape).unwrap();
        assert!(
            !matches!(plan.algo, TunedAlgo::Air { .. }),
            "static AIR re-reads the input four times under this skew; \
             the tuner must route around it, got {plan:?}"
        );
        // And the predicted win must be material.
        let air = tuner
            .predict_us(&spec, &shape, TunedAlgo::Air { bits_per_pass: 11 })
            .expect("air is always viable");
        assert!(
            air > plan.predicted_us * 1.2,
            "expected ≥1.2× predicted win over AIR: air={air:.1} vs {:.1}",
            plan.predicted_us
        );
    }

    #[test]
    fn same_shape_stream_yields_identical_plan_tables() {
        // Determinism: two tuners fed the same shapes and the same
        // observations must hold identical plans.
        let spec = a100();
        let make = || {
            let tuner = Tuner::new();
            let mut seed = 0x2545F4914F6CDD1Du64;
            for _ in 0..64 {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let n = 1 + (seed >> 33) as usize % (1 << 21);
                let k = 1 + (seed >> 17) as usize % n.min(8192);
                let batch = 1 + (seed >> 7) as usize % 128;
                let skew = (seed % 33) as u32;
                let shape = ProblemShape::new(n, k, batch).with_sketch(DistSketch::from_bits(skew));
                let plan = tuner.plan(&spec, &shape).unwrap();
                tuner.observe(&spec, &shape, plan.raw_us * 1.1);
            }
            let table = tuner.table.lock().unwrap().clone();
            table
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn observation_feedback_recalibrates_and_can_flip_a_plan() {
        let tuner = Tuner::new();
        let spec = a100();
        let shape = ProblemShape::new(1 << 21, 32, 1);
        let initial = tuner.plan(&spec, &shape).unwrap();
        let family = initial.algo.family();
        let before = counters().snapshot();

        // Report the chosen family as drastically slower than predicted
        // until the EMA pushes its calibrated cost past a rival's.
        let mut flipped = None;
        for _ in 0..32 {
            tuner.observe(&spec, &shape, initial.raw_us * 50.0);
            let now = tuner.plan(&spec, &shape).unwrap();
            if now.algo.family() != family {
                flipped = Some(now);
                break;
            }
        }
        let flipped = flipped.expect("a 50× miss must eventually flip the plan");
        assert_ne!(flipped.algo.family(), family);
        assert!(
            tuner.calibration_factor(family) > 2.0,
            "EMA should have absorbed the slowdown"
        );
        let delta = counters().snapshot().delta_since(&before);
        assert!(delta.tuner_refinements >= 1);
    }

    mod sketch_properties {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        /// The scalar, branchy scan `DistSketch::from_sample` replaced,
        /// kept as its oracle.
        fn scalar_sketch<T: RadixKey>(sample: &[T]) -> DistSketch {
            let mut iter = sample.iter();
            let Some(first) = iter.next() else {
                return DistSketch::uniform();
            };
            let mut mn = first.to_ordered();
            let mut mx = mn;
            for v in iter {
                let bits = v.to_ordered();
                if bits < mn {
                    mn = bits;
                }
                if bits > mx {
                    mx = bits;
                }
            }
            let prefix = common_prefix_len_of::<T::Ordered>(mn, mx);
            let scaled = (prefix as u64 * KEY_BITS as u64 / T::Ordered::BITS as u64) as u32;
            DistSketch::from_bits(scaled)
        }

        /// Rows are this long; checking every prefix `0..=ROW` hits
        /// every remainder lane several times over.
        const ROW: usize = 67;

        /// The lane-parallel sketch equals the oracle on every prefix.
        fn agrees_on_every_prefix<T: RadixKey>(row: &[T]) -> Result<(), TestCaseError> {
            for len in 0..=row.len() {
                let got = DistSketch::from_sample(&row[..len]);
                prop_assert_eq!(got, scalar_sketch(&row[..len]), "len={}", len);
            }
            Ok(())
        }

        /// One key: any bit pattern, or one of `edges`.
        fn key<T: Arbitrary + Copy + 'static>(edges: &'static [T]) -> BoxedStrategy<T> {
            prop_oneof![any::<T>(), (0..edges.len()).prop_map(move |i| edges[i])].boxed()
        }

        /// Rows of random keys, of edge keys, of a mix, or all equal.
        fn rows<T: Arbitrary + Copy + 'static>(edges: &'static [T]) -> BoxedStrategy<Vec<T>> {
            prop_oneof![
                prop::collection::vec(any::<T>(), ROW),
                prop::collection::vec((0..edges.len()).prop_map(move |i| edges[i]), ROW),
                prop::collection::vec(key(edges), ROW),
                key(edges).prop_map(|v| vec![v; ROW]),
            ]
            .boxed()
        }

        const F32_EDGES: &[f32] = &[
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7fc0_1234), // quiet NaN with payload
            f32::from_bits(0xffc0_0001), // negative quiet NaN
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0xff80_0001),
            f32::from_bits(0x0000_0001), // smallest subnormal
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff), // largest subnormal
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1.0,
            -1.0,
        ];
        const F64_EDGES: &[f64] = &[
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff8_0000_0000_0001),
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0x0000_0000_0000_0001),
            f64::from_bits(0x800f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
        ];
        const U32_EDGES: &[u32] = &[0, 1, 0x7fff_ffff, 0x8000_0000, u32::MAX - 1, u32::MAX];
        const I32_EDGES: &[i32] = &[i32::MIN, i32::MIN + 1, -1, 0, 1, i32::MAX - 1, i32::MAX];
        const U64_EDGES: &[u64] = &[0, 1, u32::MAX as u64, 1 << 63, u64::MAX - 1, u64::MAX];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn sketch_matches_scalar_oracle_f32(row in rows(F32_EDGES)) {
                agrees_on_every_prefix(&row)?;
            }

            #[test]
            fn sketch_matches_scalar_oracle_u32(row in rows(U32_EDGES)) {
                agrees_on_every_prefix(&row)?;
            }

            #[test]
            fn sketch_matches_scalar_oracle_i32(row in rows(I32_EDGES)) {
                agrees_on_every_prefix(&row)?;
            }

            #[test]
            fn sketch_matches_scalar_oracle_f64(row in rows(F64_EDGES)) {
                agrees_on_every_prefix(&row)?;
            }

            #[test]
            fn sketch_matches_scalar_oracle_u64(row in rows(U64_EDGES)) {
                agrees_on_every_prefix(&row)?;
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn shapes() -> impl Strategy<Value = ProblemShape> {
            (1usize..=1 << 22)
                .prop_flat_map(|n| (Just(n), 1usize..=n.min(1 << 14), 1usize..=256, 0u32..=32))
                .prop_map(|(n, k, batch, skew)| {
                    ProblemShape::new(n, k, batch).with_sketch(DistSketch::from_bits(skew))
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The planner must never emit a configuration that violates
            /// an algorithm's structural limits — on any device.
            #[test]
            fn plans_respect_algorithm_limits(shape in shapes(), tiny_device in any::<bool>()) {
                let spec = if tiny_device { DeviceSpec::test_tiny() } else { DeviceSpec::a100() };
                let tuner = Tuner::new();
                let plan = tuner.plan(&spec, &shape).unwrap();
                prop_assert!(plan.predicted_us.is_finite() && plan.predicted_us > 0.0);
                match plan.algo {
                    TunedAlgo::Grid => {
                        prop_assert!(shape.k <= GRID_MAX_K);
                    }
                    TunedAlgo::RowWise => {
                        prop_assert!(shape.k <= ROWWISE_MAX_K);
                        let key_bytes = KEY_BYTES;
                        let plan =
                            FilterPlan::rowwise(&spec, shape.n, shape.k, shape.batch, key_bytes);
                        prop_assert!(plan.is_ok(), "{plan:?}");
                    }
                    TunedAlgo::RadiK { bits_per_pass } => {
                        prop_assert!(shape.n > crate::radix::ONE_BLOCK_THRESHOLD);
                        prop_assert!((1..=16).contains(&bits_per_pass));
                    }
                    TunedAlgo::Air { bits_per_pass } => {
                        prop_assert!((1..=16).contains(&bits_per_pass));
                    }
                    // The approximate families are opt-in only: the
                    // default planner must never pick them.
                    TunedAlgo::Bucketed { .. } | TunedAlgo::TwoStage { .. } => {
                        prop_assert!(false, "exact planner picked an approximate family");
                    }
                }
            }

            /// Approximate candidates are opt-in, clear their recall
            /// target analytically, and price finitely.
            #[test]
            fn approx_candidates_clear_their_target(
                shape in shapes(),
                target_pct in 50u32..100,
            ) {
                let spec = DeviceSpec::a100();
                prop_assert!(Tuner::approx_candidates(&spec, &shape, 1.0).is_empty());
                let target = target_pct as f64 / 100.0;
                for algo in Tuner::approx_candidates(&spec, &shape, target) {
                    let recall = match algo {
                        TunedAlgo::Bucketed { per_bucket } => {
                            crate::bucketed::BucketedTopK::new(per_bucket as usize)
                                .expected_recall(shape.k)
                        }
                        TunedAlgo::TwoStage { partitions, k_prime } => {
                            crate::twostage::TwoStageTopK::new(
                                partitions as usize,
                                k_prime as usize,
                            )
                            .expected_recall(shape.k)
                        }
                        other => {
                            prop_assert!(false, "unexpected exact candidate {other:?}");
                            unreachable!()
                        }
                    };
                    // plan_two_stage can fall short only when its gate
                    // (k' <= n/P) binds; those configs are filtered by
                    // the predictor, so survivors clear the target.
                    prop_assert!(
                        recall >= target - 1e-9,
                        "{algo:?} recall {recall} < target {target}"
                    );
                    let raw = predict_raw_us(&spec, &shape, algo);
                    prop_assert!(raw.is_some_and(|us| us.is_finite() && us > 0.0));
                }
            }

            /// Re-planning the same shape is idempotent and served from
            /// cache.
            #[test]
            fn planning_is_idempotent(shape in shapes()) {
                let tuner = Tuner::new();
                let spec = DeviceSpec::a100();
                let a = tuner.plan(&spec, &shape).unwrap();
                let b = tuner.plan(&spec, &shape).unwrap();
                prop_assert_eq!(a, b);
                prop_assert_eq!(tuner.table_len(), 1);
            }
        }
    }
}
