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
//! This module closes the gap with a three-part design:
//!
//! 1. **Offline planner.** For a [`ProblemShape`] — `(n, k, batch)`
//!    plus a [`DistSketch`] of the value distribution — the planner
//!    enumerates every *viable* candidate configuration (algorithm ×
//!    digit width), predicts each one's launch sequence as
//!    [`gpu_sim::PlannedLaunch`]es, and prices them through the same
//!    analytic roofline the simulator itself uses
//!    ([`gpu_sim::sequence_cost`]). The winner is cached in a
//!    [`PlanTable`] keyed by a log₂-quantised [`PlanKey`], so one
//!    planning pass serves every shape in the same bucket.
//! 2. **Online refiner.** [`Tuner::observe`] feeds measured kernel
//!    latencies back in. Each algorithm family keeps an EMA calibration
//!    factor (observed / predicted); when recalibration flips the
//!    winner for a bucket the plan is replaced and
//!    `tuner_refinements` is bumped — mispredictions self-correct
//!    without a restart.
//! 3. **Persistence.** Plan tables serialise to a sorted, line-based
//!    text format ([`PlanTable::to_text`]) so a warmed table can be
//!    shipped with a deployment and reloaded at startup.
//!
//! The predictors intentionally reuse the *exact* launch geometry of
//! the real kernels (chunk sizes, pass counts, buffering thresholds,
//! shared-memory footprints) so that occupancy and launch-overhead
//! effects — which decide most races — are modelled faithfully.
//! GridSelect, RowWise, Bucketed and TwoStage are priced from the launch
//! plans their kernels launch from; AIR and RadiK keep hand predictors.
//! They model 32-bit keys, the serving engine's element type.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Mutex;

use gpu_sim::{sequence_cost, DeviceSpec, KernelStats, PlannedLaunch};

use crate::air::ONE_BLOCK_THRESHOLD;
use crate::filter::FilterPlan;
use crate::gridselect::{GridPlan, MAX_K as GRID_MAX_K};
use crate::keys::{common_prefix_len_of, OrderedBits, RadixKey};
use crate::obs;
use crate::rowwise::ROWWISE_MAX_K;
use crate::{BucketedTopK, GridSelectConfig, TwoStageTopK};

/// Key width the predictors model (the engine serves `f32` keys).
const KEY_BITS: u32 = 32;
/// Bytes per key in the modelled element type.
const KEY_BYTES: u64 = 4;
/// Independent min/max accumulators in [`DistSketch::from_sample`].
const SKETCH_LANES: usize = 16;
/// Bytes per (key, index) pair in candidate buffers and outputs.
const PAIR_BYTES: u64 = 8;
/// One scattered access is charged a whole transaction sector.
const SECTOR_BYTES: u64 = 32;

// Launch geometry shared with `air.rs` / `radik.rs`.
const SWEEP_BLOCK: usize = 512;
const SWEEP_CHUNK: usize = 512 * 16;
const BUFFER_ALPHA: u64 = 128;

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
    /// `bucketed:16`, `twostage:8x32`) used by the plan-table format
    /// and the bench baseline digest.
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

    fn decode(text: &str) -> Option<Self> {
        match text {
            "grid" => return Some(TunedAlgo::Grid),
            "rowwise" => return Some(TunedAlgo::RowWise),
            _ => {}
        }
        let (family, params) = text.split_once(':')?;
        match family {
            "air" => Some(TunedAlgo::Air {
                bits_per_pass: params.parse().ok()?,
            }),
            "radik" => Some(TunedAlgo::RadiK {
                bits_per_pass: params.parse().ok()?,
            }),
            "bucketed" => Some(TunedAlgo::Bucketed {
                per_bucket: params.parse().ok()?,
            }),
            "twostage" => {
                let (p, kp) = params.split_once('x')?;
                Some(TunedAlgo::TwoStage {
                    partitions: p.parse().ok()?,
                    k_prime: kp.parse().ok()?,
                })
            }
            _ => None,
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

/// The persistent plan table: a sorted map from quantised shapes to
/// winning configurations.
#[derive(Debug, Clone, Default)]
pub struct PlanTable {
    entries: BTreeMap<PlanKey, Plan>,
}

const PLAN_TABLE_HEADER: &str = "# topk-tuner plan table v1";

impl PlanTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the plan for a key.
    pub fn get(&self, key: &PlanKey) -> Option<&Plan> {
        self.entries.get(key)
    }

    /// Insert or replace a plan.
    pub fn insert(&mut self, key: PlanKey, plan: Plan) {
        self.entries.insert(key, plan);
    }

    /// Number of cached buckets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&PlanKey, &Plan)> {
        self.entries.iter()
    }

    /// Serialise to the line-based text format. Entries are emitted in
    /// key order with fixed-precision costs, so two tables with the
    /// same contents produce byte-identical text — the determinism
    /// tests and the CI baseline diff both rely on this.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(PLAN_TABLE_HEADER);
        out.push('\n');
        for (key, plan) in &self.entries {
            writeln!(
                out,
                "n={} k={} b={} d={} algo={} cost={:.3} raw={:.3}",
                key.n_log2,
                key.k_log2,
                key.batch_log2,
                key.dist_class,
                plan.algo.encode(),
                plan.predicted_us,
                plan.raw_us,
            )
            .expect("writing to String cannot fail");
        }
        out
    }

    /// Parse the text format produced by [`Self::to_text`].
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut table = Self::new();
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = BTreeMap::new();
            for token in line.split_whitespace() {
                let (name, value) = token
                    .split_once('=')
                    .ok_or_else(|| format!("line {}: malformed token `{token}`", idx + 1))?;
                fields.insert(name, value);
            }
            let get = |name: &str| {
                fields
                    .get(name)
                    .copied()
                    .ok_or_else(|| format!("line {}: missing field `{name}`", idx + 1))
            };
            let parse_u8 = |name: &str| -> Result<u8, String> {
                get(name)?
                    .parse()
                    .map_err(|e| format!("line {}: field `{name}`: {e}", idx + 1))
            };
            let parse_f64 = |name: &str| -> Result<f64, String> {
                get(name)?
                    .parse()
                    .map_err(|e| format!("line {}: field `{name}`: {e}", idx + 1))
            };
            let key = PlanKey {
                n_log2: parse_u8("n")?,
                k_log2: parse_u8("k")?,
                batch_log2: parse_u8("b")?,
                dist_class: parse_u8("d")?,
            };
            let algo = TunedAlgo::decode(get("algo")?)
                .ok_or_else(|| format!("line {}: unknown algo", idx + 1))?;
            let plan = Plan {
                algo,
                predicted_us: parse_f64("cost")?,
                raw_us: parse_f64("raw")?,
            };
            table.insert(key, plan);
        }
        Ok(table)
    }

    /// Write the table to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Load a table from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_text(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// The cost-model-guided autotuner. See the module docs for the
/// overall design; thread-safe (`&self` everywhere) so one instance
/// can sit behind the engine's shared dispatcher.
#[derive(Debug, Default)]
pub struct Tuner {
    table: Mutex<PlanTable>,
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

    /// A tuner seeded with a previously saved plan table.
    pub fn with_table(table: PlanTable) -> Self {
        Self {
            table: Mutex::new(table),
            calibration: Mutex::new(BTreeMap::new()),
        }
    }

    /// Return the plan for a shape, planning (and caching) on miss.
    pub fn plan(&self, spec: &DeviceSpec, shape: &ProblemShape) -> Plan {
        let key = PlanKey::of(shape);
        if let Some(plan) = self.table.lock().unwrap().get(&key) {
            obs::counters().tuner_plan_hits.fetch_add(1, Relaxed);
            return *plan;
        }
        obs::counters().tuner_plan_misses.fetch_add(1, Relaxed);
        let plan = self.plan_uncached(spec, &key);
        self.table.lock().unwrap().insert(key, plan);
        plan
    }

    fn plan_uncached(&self, spec: &DeviceSpec, key: &PlanKey) -> Plan {
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
        best.expect("AIR is viable for every shape, so candidates is never empty")
    }

    /// Enumerate the configurations viable for a shape on a device.
    /// AIR (both digit widths) is always present; the others are gated
    /// by their structural limits so a plan can never pick an
    /// unsupported configuration.
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
        // Below the one-block threshold RadiK delegates to AIR, so it
        // is never a distinct candidate there.
        if shape.n > ONE_BLOCK_THRESHOLD && shape.k < shape.n {
            out.push(TunedAlgo::RadiK { bits_per_pass: 8 });
            out.push(TunedAlgo::RadiK { bits_per_pass: 11 });
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
        let replanned = self.plan_uncached(spec, &key);
        if replanned.algo != current.algo {
            obs::counters().tuner_refinements.fetch_add(1, Relaxed);
        }
        self.table.lock().unwrap().insert(key, replanned);
    }

    /// Snapshot the plan table as text (see [`PlanTable::to_text`]).
    pub fn table_text(&self) -> String {
        self.table.lock().unwrap().to_text()
    }

    /// Replace the plan table with one parsed from text.
    pub fn load_table_text(&self, text: &str) -> Result<(), String> {
        let table = PlanTable::from_text(text)?;
        *self.table.lock().unwrap() = table;
        Ok(())
    }

    /// Number of cached plan buckets.
    pub fn table_len(&self) -> usize {
        self.table.lock().unwrap().len()
    }

    /// Save the plan table to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.table.lock().unwrap().save(path)
    }
}

// ---------------------------------------------------------------------------
// Analytic launch-sequence predictors
// ---------------------------------------------------------------------------

fn launch(grid_dim: usize, block_dim: usize, stats: KernelStats) -> PlannedLaunch {
    PlannedLaunch {
        grid_dim,
        block_dim,
        stats,
    }
}

fn empty_launch(grid_dim: usize, block_dim: usize) -> PlannedLaunch {
    launch(grid_dim, block_dim, KernelStats::default())
}

fn predict_raw_us(spec: &DeviceSpec, shape: &ProblemShape, algo: TunedAlgo) -> Option<f64> {
    if shape.n == 0 || shape.k == 0 || shape.k > shape.n || shape.batch == 0 {
        return None;
    }
    let launches = match algo {
        TunedAlgo::Air { bits_per_pass } => predict_air(spec, shape, bits_per_pass)?,
        TunedAlgo::Grid => predict_grid(spec, shape)?,
        TunedAlgo::RadiK { bits_per_pass } => predict_radik(spec, shape, bits_per_pass)?,
        TunedAlgo::RowWise | TunedAlgo::Bucketed { .. } | TunedAlgo::TwoStage { .. } => {
            filter_plan(spec, shape, algo)?.launches()
        }
    };
    Some(sequence_cost(spec, &launches))
}

/// How many of a histogram window's bits actually discriminate between
/// keys, given that every key shares `prefix` leading bits. A window
/// wholly inside the shared prefix has zero effective bits: its
/// histogram collapses into a single bucket and eliminates nothing.
fn effective_window_bits(window_lo: u32, width: u32, prefix: u32) -> u32 {
    let hi = window_lo + width;
    hi.saturating_sub(window_lo.max(prefix)).min(width)
}

/// Shared model of one histogram sweep over `scanned` elements.
///
/// `src_pairs` marks whether the source is a buffered (key, index)
/// candidate list (8 B/element) or the raw input (4 B/element).
#[allow(clippy::too_many_arguments)]
fn sweep_launch(
    n: usize,
    batch: usize,
    scanned: u64,
    src_pairs: bool,
    survivors: u64,
    stored: bool,
    nonzero_buckets: u64,
    radix: u64,
) -> PlannedLaunch {
    let bpp = n.div_ceil(SWEEP_CHUNK);
    let grid = batch * bpp;
    let batch_u = batch as u64;
    let elem_bytes = if src_pairs { PAIR_BYTES } else { KEY_BYTES };
    let mut stats = KernelStats {
        bytes_read: scanned * elem_bytes * batch_u,
        shared_mem_bytes: radix * 4,
        compute_ops: (6 * scanned + 4 * survivors) * batch_u + grid as u64 * radix,
        // Histogram flush: each block publishes its non-zero buckets.
        atomic_ops: (bpp as u64 * nonzero_buckets + 1) * batch_u,
        ..KernelStats::default()
    };
    if stored {
        // Candidates scatter into the ping-pong buffer (key + index).
        stats.bytes_scattered = survivors * 2 * SECTOR_BYTES * batch_u;
        stats.atomic_ops += survivors * batch_u;
    }
    launch(grid, SWEEP_BLOCK, stats)
}

/// Terminal scan: re-reads the final candidate source and emits the k
/// selected (key, index) pairs.
fn terminal_launch(
    n: usize,
    k: usize,
    batch: usize,
    scanned: u64,
    src_pairs: bool,
) -> PlannedLaunch {
    let bpp = n.div_ceil(SWEEP_CHUNK);
    let grid = batch * bpp;
    let batch_u = batch as u64;
    let elem_bytes = if src_pairs { PAIR_BYTES } else { KEY_BYTES };
    launch(
        grid,
        SWEEP_BLOCK,
        KernelStats {
            bytes_read: scanned * elem_bytes * batch_u,
            bytes_scattered: k as u64 * 2 * SECTOR_BYTES * batch_u,
            atomic_ops: (k as u64 + 1) * batch_u,
            compute_ops: 4 * scanned * batch_u,
            ..KernelStats::default()
        },
    )
}

/// Model of a multi-pass MSD radix selection (AIR and the post-sketch
/// rounds of RadiK share this structure).
///
/// `windows` lists each pass's `(effective_bits, window_width)`. Pass
/// `p` scans the candidates surviving pass `p-1` — re-read from the
/// whole input unless the previous pass buffered them (`count·α < n`)
/// — then one terminal scan emits the winners. Remaining scheduled
/// launches (`total_launches` covers the fixed pass count plus the
/// final filter) execute as no-ops.
fn radix_cascade(
    shape: &ProblemShape,
    windows: &[(u32, u32)],
    radix_bits: u32,
    total_launches: usize,
    skew_spread: bool,
) -> Vec<PlannedLaunch> {
    let ProblemShape { n, k, batch, .. } = *shape;
    let radix = 1u64 << radix_bits;
    let bpp = n.div_ceil(SWEEP_CHUNK);
    let grid = batch * bpp;

    // Candidate count entering each pass (unclamped decay).
    let mut cand: Vec<u64> = Vec::with_capacity(windows.len() + 1);
    cand.push(n as u64);
    for &(eff, _) in windows {
        let cur = *cand.last().expect("cand starts non-empty");
        cand.push(if eff >= 63 { 0 } else { cur >> eff });
    }
    // First pass whose *input* is already within k: selection resolves
    // there (ties/early-stop), making it the terminal scan.
    let term = (1..=windows.len())
        .find(|&t| cand[t] <= k as u64)
        .unwrap_or(windows.len());

    // Whether pass p buffered its survivors (possible from pass 1 on).
    let clamped = |p: usize| cand[p].max(k as u64).min(n as u64);
    let stored = |p: usize| p >= 1 && clamped(p).saturating_mul(BUFFER_ALPHA) < n as u64;

    let mut launches = Vec::with_capacity(total_launches);
    for (p, &(eff, _width)) in windows.iter().enumerate().take(term) {
        let (scanned, src_pairs) = if p == 0 {
            (n as u64, false)
        } else if stored(p - 1) {
            (clamped(p - 1), true)
        } else {
            (n as u64, false)
        };
        let survivors = clamped(p);
        // Buckets actually touched: with a shared prefix only 2^eff
        // digits occur; under RadiK's sketch the histogram spreads over
        // the full window instead.
        let occupied = if skew_spread {
            radix.min(survivors)
        } else {
            (1u64 << eff.min(62)).min(radix).min(survivors)
        };
        launches.push(sweep_launch(
            n,
            batch,
            scanned,
            src_pairs,
            survivors,
            stored(p),
            occupied,
            radix,
        ));
    }
    let (scanned, src_pairs) = if term == 0 {
        (n as u64, false)
    } else if stored(term - 1) {
        (clamped(term - 1), true)
    } else {
        (n as u64, false)
    };
    launches.push(terminal_launch(n, k, batch, scanned, src_pairs));
    while launches.len() < total_launches {
        launches.push(empty_launch(grid, SWEEP_BLOCK));
    }
    launches
}

fn predict_air(
    spec: &DeviceSpec,
    shape: &ProblemShape,
    bits_per_pass: u32,
) -> Option<Vec<PlannedLaunch>> {
    if !(1..=16).contains(&bits_per_pass) {
        return None;
    }
    let ProblemShape {
        n,
        k,
        batch,
        sketch,
        ..
    } = *shape;
    let batch_u = batch as u64;
    if k == n {
        // Copy-all path: one sweep that rewrites the input as pairs.
        let bpp = n.div_ceil(SWEEP_CHUNK);
        return Some(vec![launch(
            batch * bpp,
            SWEEP_BLOCK,
            KernelStats {
                bytes_read: n as u64 * KEY_BYTES * batch_u,
                bytes_written: n as u64 * PAIR_BYTES * batch_u,
                compute_ops: 2 * n as u64 * batch_u,
                ..KernelStats::default()
            },
        )]);
    }
    if n <= ONE_BLOCK_THRESHOLD {
        // Single-block in-shared-memory selection, one launch per row.
        let shared = (n as u64 * PAIR_BYTES).max(1 << bits_per_pass);
        if shared > spec.shared_mem_per_block as u64 {
            return None;
        }
        return Some(vec![launch(
            batch,
            256,
            KernelStats {
                bytes_read: n as u64 * KEY_BYTES * batch_u,
                bytes_written: k as u64 * PAIR_BYTES * batch_u,
                compute_ops: 12 * n as u64 * batch_u,
                atomic_ops: batch_u,
                shared_mem_bytes: shared,
                ..KernelStats::default()
            },
        )]);
    }
    let prefix = sketch.shared_prefix_bits.min(KEY_BITS);
    let passes = KEY_BITS.div_ceil(bits_per_pass);
    let windows: Vec<(u32, u32)> = (0..passes)
        .map(|p| {
            let lo = p * bits_per_pass;
            let width = bits_per_pass.min(KEY_BITS - lo);
            (effective_window_bits(lo, width, prefix), width)
        })
        .collect();
    Some(radix_cascade(
        shape,
        &windows,
        bits_per_pass,
        passes as usize + 1,
        false,
    ))
}

fn predict_radik(
    spec: &DeviceSpec,
    shape: &ProblemShape,
    bits_per_pass: u32,
) -> Option<Vec<PlannedLaunch>> {
    if !(1..=16).contains(&bits_per_pass) {
        return None;
    }
    let ProblemShape {
        n,
        k,
        batch,
        sketch,
        ..
    } = *shape;
    if n <= ONE_BLOCK_THRESHOLD || k == n {
        // RadiK delegates these shapes to its inner AIR; not a distinct
        // configuration worth planning.
        return None;
    }
    let _ = spec;
    let batch_u = batch as u64;
    let bpp = n.div_ceil(SWEEP_CHUNK);
    let grid = batch * bpp;

    // Sketch pass: a full read plus a handful of per-block atomics.
    let sketch_launch = launch(
        grid,
        SWEEP_BLOCK,
        KernelStats {
            bytes_read: n as u64 * KEY_BYTES * batch_u,
            compute_ops: 3 * n as u64 * batch_u,
            atomic_ops: (3 * bpp as u64) * batch_u,
            shared_mem_bytes: 64,
            ..KernelStats::default()
        },
    );

    // Post-sketch rounds start past the shared prefix; every window bit
    // discriminates from there on.
    let prefix = sketch.shared_prefix_bits.min(KEY_BITS - 1);
    let scheduled_rounds = KEY_BITS.div_ceil(bits_per_pass);
    let mut windows: Vec<(u32, u32)> = Vec::new();
    let mut offset = prefix;
    while offset < KEY_BITS {
        let width = bits_per_pass.min(KEY_BITS - offset);
        windows.push((width, width));
        offset += width;
    }
    // `radix_cascade` appends the terminal scan and pads with no-op
    // launches up to the fixed schedule: sketch + rounds + last filter.
    let mut launches = vec![sketch_launch];
    launches.extend(radix_cascade(
        shape,
        &windows,
        bits_per_pass,
        scheduled_rounds as usize + 1,
        true,
    ));
    Some(launches)
}

/// GridSelect's own launch plan ([`GridPlan`]) for the default
/// configuration: the launches the kernel makes, not a copy of them.
fn predict_grid(spec: &DeviceSpec, shape: &ProblemShape) -> Option<Vec<PlannedLaunch>> {
    let ProblemShape { n, k, batch, .. } = *shape;
    if k > GRID_MAX_K || k >= n {
        return None;
    }
    let cfg = GridSelectConfig::default();
    let plan = GridPlan::new(spec, n, k, batch, &cfg, KEY_BYTES as usize, true);
    (plan.launches[0].stats.shared_mem_bytes <= spec.shared_mem_per_block as u64)
        .then_some(plan.launches)
}

/// The filter family's own launch plan ([`FilterPlan`]), the plan its
/// kernels launch from; `None` where the kernels reject the
/// configuration.
fn filter_plan(spec: &DeviceSpec, shape: &ProblemShape, algo: TunedAlgo) -> Option<FilterPlan> {
    let ProblemShape { n, k, batch, .. } = *shape;
    let key_bytes = KEY_BYTES as usize;
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
        let plan = tuner.plan(&a100(), &shape);
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
                    .map(|r| launch(r.cfg.grid_dim, r.cfg.block_dim, r.stats))
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

    /// The filter family's raw predictions and both candidate lists,
    /// pinned bit for bit over the 2^14-2^21 × K 32-4096 × batch
    /// 1/8/256 grid on two devices: one FNV-1a digest per
    /// (device, configuration) or (device, list).
    #[test]
    fn filter_family_predictions_are_pinned() {
        fn fnv(h: &mut u64, x: u64) {
            for b in x.to_le_bytes() {
                *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
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
                let mut h = 0xcbf2_9ce4_8422_2325;
                for shape in &shapes {
                    match predict_raw_us(&spec, shape, algo) {
                        Some(us) => {
                            fnv(&mut h, 1);
                            fnv(&mut h, us.to_bits());
                        }
                        None => fnv(&mut h, 0),
                    }
                }
                got.push((format!("{device} {}", algo.encode()), h));
            }
            for (name, target) in [
                ("candidates", None),
                ("approx 0.9", Some(0.9)),
                ("approx 0.95", Some(0.95)),
            ] {
                let mut h = 0xcbf2_9ce4_8422_2325;
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
        let want: Vec<(String, u64)> = FILTER_PREDICTIONS
            .iter()
            .map(|&(cell, h)| (cell.to_string(), h))
            .collect();
        let listing: String = got
            .iter()
            .map(|(cell, h)| format!("        (\"{cell}\", {h:#018x}),\n"))
            .collect();
        assert!(got == want, "predictions moved; now:\n{listing}");
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
        let plan = tuner.plan(&a100(), &shape);
        assert_eq!(plan.algo, TunedAlgo::RowWise, "plan: {plan:?}");
    }

    #[test]
    fn planner_picks_radik_for_skewed_large_k_batches() {
        let tuner = Tuner::new();
        // Beyond GridSelect's k cap, heavily skewed, batched: AIR wastes
        // whole passes on the shared prefix, RadiK sketches it away.
        let shape = ProblemShape::new(1 << 20, 4096, 16).with_sketch(DistSketch::from_bits(24));
        let plan = tuner.plan(&a100(), &shape);
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
        let plan = tuner.plan(&spec, &shape);
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
    fn plan_table_round_trips_through_text() {
        let tuner = Tuner::new();
        let spec = a100();
        for (n, k, batch, skew) in [
            (1 << 21, 32, 1, 0),
            (1 << 18, 128, 32, 28),
            (16 * 1024, 64, 256, 0),
            (1 << 20, 4096, 16, 24),
        ] {
            let shape = ProblemShape::new(n, k, batch).with_sketch(DistSketch::from_bits(skew));
            tuner.plan(&spec, &shape);
        }
        let text = tuner.table_text();
        assert!(text.starts_with(PLAN_TABLE_HEADER));
        let parsed = PlanTable::from_text(&text).expect("round trip parses");
        assert_eq!(parsed.to_text(), text);
        assert_eq!(parsed.len(), 4);

        // Malformed input is rejected with a line number.
        let err = PlanTable::from_text("n=1 k=2 junk").unwrap_err();
        assert!(err.contains("line 1"), "err: {err}");
    }

    #[test]
    fn same_shape_stream_yields_identical_plan_tables() {
        // Determinism: two tuners fed the same shapes and the same
        // observations must serialise to byte-identical tables.
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
                let plan = tuner.plan(&spec, &shape);
                tuner.observe(&spec, &shape, plan.raw_us * 1.1);
            }
            tuner.table_text()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn observation_feedback_recalibrates_and_can_flip_a_plan() {
        let tuner = Tuner::new();
        let spec = a100();
        let shape = ProblemShape::new(1 << 21, 32, 1);
        let initial = tuner.plan(&spec, &shape);
        let family = initial.algo.family();
        let before = counters().snapshot();

        // Report the chosen family as drastically slower than predicted
        // until the EMA pushes its calibrated cost past a rival's.
        let mut flipped = None;
        for _ in 0..32 {
            tuner.observe(&spec, &shape, initial.raw_us * 50.0);
            let now = tuner.plan(&spec, &shape);
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
                let plan = tuner.plan(&spec, &shape);
                prop_assert!(plan.predicted_us.is_finite() && plan.predicted_us > 0.0);
                match plan.algo {
                    TunedAlgo::Grid => {
                        prop_assert!(shape.k <= GRID_MAX_K);
                    }
                    TunedAlgo::RowWise => {
                        prop_assert!(shape.k <= ROWWISE_MAX_K);
                        let key_bytes = KEY_BYTES as usize;
                        let plan =
                            FilterPlan::rowwise(&spec, shape.n, shape.k, shape.batch, key_bytes);
                        prop_assert!(plan.is_ok(), "{plan:?}");
                    }
                    TunedAlgo::RadiK { bits_per_pass } => {
                        prop_assert!(shape.n > ONE_BLOCK_THRESHOLD);
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
                let a = tuner.plan(&spec, &shape);
                let b = tuner.plan(&spec, &shape);
                prop_assert_eq!(a, b);
                prop_assert_eq!(tuner.table_len(), 1);
            }
        }
    }
}
