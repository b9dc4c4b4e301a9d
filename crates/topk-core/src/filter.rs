//! The streaming threshold filter behind RowWise, Bucketed and
//! TwoStage: one block body and one launch plan.
//!
//! All three families run the same block. Each block streams its share
//! of a problem through a shared-memory candidate buffer. An element
//! enters only while no threshold exists yet or when it beats the
//! running threshold, the `take`-th smallest key retained so far. When
//! the buffer fills, an in-block partial selection compacts it back to
//! `take` and sets the threshold. The filter is exact for its share: no
//! key among the `take` smallest is ever rejected. [`filter_block`] is
//! that body. [`crate::rowwise`], [`crate::bucketed`] and both stages of
//! [`crate::twostage`] call it and keep only their item source and
//! output offset.
//!
//! [`FilterPlan`] is the launch plan of each family: every launch's
//! grid, block, candidate capacity and shared bytes, the shape checks,
//! and the modelled activity the tuner prices. The kernels launch from
//! it and [`crate::tuner`] predicts from it, so the two cannot drift
//! apart.

use crate::keys::{OrderedBits, RadixKey};
use crate::recall::{BucketedPlan, TwoStagePlan};
use gpu_sim::{BlockCtx, DeviceBuffer, DeviceSpec, KernelStats, PlannedLaunch};

/// Threads per block of every filter kernel.
pub(crate) const FILTER_BLOCK: usize = 256;
/// RowWise's candidate-buffer floor: a large floor amortises
/// compactions for tiny K.
const ROWWISE_MIN_BUFFER: usize = 1024;
/// The approximate families' candidate-buffer floor.
const MIN_BUFFER: usize = 64;

/// What [`filter_block`] keeps: the `take` smallest keys of its stream
/// with their indices, in buffer order, and how many compactions ran.
pub(crate) struct Kept<O> {
    pub(crate) keys: Vec<O>,
    pub(crate) indices: Vec<u32>,
    pub(crate) compactions: u64,
}

impl<O: OrderedBits> Kept<O> {
    /// Store the kept pairs at `base..base + take` of the output pair.
    pub(crate) fn store<T: RadixKey<Ordered = O>>(
        &self,
        ctx: &mut BlockCtx<'_>,
        (values, indices): (&DeviceBuffer<T>, &DeviceBuffer<u32>),
        base: usize,
    ) {
        for (j, (&key, &index)) in self.keys.iter().zip(&self.indices).enumerate() {
            ctx.st(values, base + j, T::from_ordered(key));
            ctx.st(indices, base + j, index);
        }
    }
}

/// Stream `(ordered key, index)` items through a `cap`-entry shared
/// candidate buffer (`cap ≥ 2·take`) and keep the `take` smallest.
///
/// Metering: two ops per item (ordered-bit transform and threshold
/// compare), one per admitted item, and `2·len` per compaction of a
/// `len`-entry buffer. A real kernel compacts with an in-block bitonic
/// partial sort; the metered cost is linear in the occupancy. The
/// stream must hold at least `take` items.
pub(crate) fn filter_block<O: OrderedBits>(
    ctx: &mut BlockCtx<'_>,
    items: impl IntoIterator<Item = (O, u32)>,
    take: usize,
    cap: usize,
) -> Kept<O> {
    let mut keys = ctx.shared_alloc::<O>(cap);
    let mut indices = ctx.shared_alloc::<u32>(cap);
    let mut compactions = 0;
    // Compact the buffer's first `len` entries down to the `take`
    // smallest, in place, and return the new threshold.
    let mut compact = |ctx: &mut BlockCtx<'_>, keys: &mut [O], indices: &mut [u32], len: usize| {
        let mut pairs: Vec<(O, u32)> = (0..len).map(|i| (keys[i], indices[i])).collect();
        pairs.select_nth_unstable(take - 1);
        for (i, &(key, index)) in pairs.iter().take(take).enumerate() {
            keys[i] = key;
            indices[i] = index;
        }
        ctx.ops(2 * len as u64);
        compactions += 1;
        pairs[take - 1].0
    };

    let mut len = 0;
    // The threshold exists once the first compaction has run. Until
    // then every item is admitted; the buffer holds at least 2·take, so
    // the threshold exists before it can be needed.
    let mut thr = O::MAX;
    let mut have_thr = false;
    for (key, index) in items {
        ctx.ops(2);
        if !have_thr || key < thr {
            keys[len] = key;
            indices[len] = index;
            len += 1;
            ctx.ops(1);
            if len == cap {
                thr = compact(ctx, &mut keys, &mut indices, len);
                len = take;
                have_thr = true;
            }
        }
    }
    if len > take {
        compact(ctx, &mut keys, &mut indices, len);
        len = take;
    }
    debug_assert_eq!(len, take, "the stream holds at least take items");
    keys.truncate(take);
    indices.truncate(take);
    Kept {
        keys,
        indices,
        compactions,
    }
}

/// One filter launch: `parts` blocks per problem, each keeping `take`
/// of its share through a `cap`-entry buffer, and the launch's grid,
/// block and modelled activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FilterStage {
    /// Blocks per problem.
    pub(crate) parts: usize,
    /// Winners each block keeps (Bucketed's last bucket keeps the
    /// remainder).
    pub(crate) take: usize,
    /// Candidate-buffer capacity.
    pub(crate) cap: usize,
    /// Grid, block, bytes and shared bytes are exact. The compute ops
    /// are a model, because compactions depend on the data: four ops
    /// per streamed item.
    pub(crate) launch: PlannedLaunch,
}

impl FilterStage {
    /// `batch · parts` blocks streaming `items` items of `item_bytes`
    /// bytes per problem and writing `written` pairs of `pair` bytes per
    /// problem.
    fn new(
        batch: usize,
        parts: usize,
        take: usize,
        floor: usize,
        pair: usize,
        (items, item_bytes): (usize, usize),
        written: usize,
    ) -> Self {
        let cap = (2 * take).max(floor);
        let batch_u = batch as u64;
        FilterStage {
            parts,
            take,
            cap,
            launch: PlannedLaunch {
                grid_dim: batch * parts,
                block_dim: FILTER_BLOCK,
                stats: KernelStats {
                    bytes_read: (items * item_bytes) as u64 * batch_u,
                    bytes_written: (written * pair) as u64 * batch_u,
                    compute_ops: 4 * items as u64 * batch_u,
                    shared_mem_bytes: (cap * pair) as u64,
                    ..KernelStats::default()
                },
            },
        }
    }
}

/// A filter family's launch plan: its stages in launch order. A pure
/// function of the device, the shape, the configuration and the key
/// width. Errors are the `UnsupportedShape` detail texts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FilterPlan {
    pub(crate) stages: Vec<FilterStage>,
}

impl FilterPlan {
    /// RowWise: one block per row keeps K.
    pub(crate) fn rowwise(
        spec: &DeviceSpec,
        n: usize,
        k: usize,
        batch: usize,
        key_bytes: usize,
    ) -> Result<Self, String> {
        let pair = key_bytes + 4;
        let stage = FilterStage::new(batch, 1, k, ROWWISE_MIN_BUFFER, pair, (n, key_bytes), k);
        Self::fits(spec, vec![stage])
    }

    /// Bucketed: `plan.buckets` blocks per row each keep
    /// `plan.per_bucket`. Every bucket must hold its keep.
    pub(crate) fn bucketed(
        spec: &DeviceSpec,
        n: usize,
        k: usize,
        batch: usize,
        plan: BucketedPlan,
        key_bytes: usize,
    ) -> Result<Self, String> {
        let BucketedPlan {
            buckets,
            per_bucket,
        } = plan;
        if n / buckets < per_bucket {
            return Err(format!(
                "{buckets} buckets of {n} elements cannot each yield {per_bucket} winners"
            ));
        }
        let pair = key_bytes + 4;
        let stage = FilterStage::new(
            batch,
            buckets,
            per_bucket,
            MIN_BUFFER,
            pair,
            (n, key_bytes),
            k,
        );
        Self::fits(spec, vec![stage])
    }

    /// TwoStage: `P` blocks per row each keep k′, then one block per
    /// row reduces the `P·k′` candidates to K.
    pub(crate) fn two_stage(
        spec: &DeviceSpec,
        n: usize,
        k: usize,
        batch: usize,
        plan: TwoStagePlan,
        key_bytes: usize,
    ) -> Result<Self, String> {
        let (parts, kp, m) = (plan.partitions, plan.k_prime, plan.candidates());
        if m < k {
            return Err(format!(
                "{parts} partitions x {kp} candidates cannot yield K={k}"
            ));
        }
        if n / parts < kp {
            return Err(format!(
                "{parts} partitions of {n} elements cannot each yield {kp} candidates"
            ));
        }
        let pair = key_bytes + 4;
        Self::fits(
            spec,
            vec![
                FilterStage::new(batch, parts, kp, MIN_BUFFER, pair, (n, key_bytes), m),
                FilterStage::new(batch, 1, k, MIN_BUFFER, pair, (m, pair), k),
            ],
        )
    }

    /// The plan, if every stage's buffer fits the device's shared
    /// memory per block.
    fn fits(spec: &DeviceSpec, stages: Vec<FilterStage>) -> Result<Self, String> {
        match stages.iter().find(|s| !s.launch.fits(spec)) {
            Some(s) => Err(format!(
                "candidate buffer needs {} shared bytes, more than one {} block holds",
                s.launch.shared_bytes(),
                spec.name
            )),
            None => Ok(FilterPlan { stages }),
        }
    }

    /// The launches, for the tuner to price.
    pub(crate) fn launches(&self) -> Vec<PlannedLaunch> {
        self.stages.iter().map(|s| s.launch).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{RowSelect, Rows};
    use crate::{BucketedTopK, RowWiseTopK, TwoStageTopK};
    use gpu_sim::{Gpu, LaunchConfig, SanitizerMode};
    use proptest::prelude::*;
    use std::sync::Mutex;

    const CAP: usize = MIN_BUFFER;

    /// `filter_block` over `keys` (indices are positions) in a one-block
    /// launch.
    fn run_filter(keys: &[u32], take: usize, cap: usize) -> Kept<u32> {
        let mut gpu = Gpu::new(DeviceSpec::test_tiny());
        let kept = Mutex::new(None);
        gpu.launch(
            "filter_block_test",
            LaunchConfig::grid_1d(1, FILTER_BLOCK),
            |ctx| {
                let out = filter_block(ctx, keys.iter().copied().zip(0..), take, cap);
                *kept.lock().unwrap() = Some(out);
            },
        );
        kept.into_inner().unwrap().expect("the block ran")
    }

    /// The `take` smallest keys, sorted, and the compactions the rule
    /// implies: one per buffer fill, plus a final one when more than
    /// `take` candidates remain. Modelled with a sorted buffer.
    fn reference(keys: &[u32], take: usize, cap: usize) -> (Vec<u32>, u64) {
        let mut smallest = keys.to_vec();
        smallest.sort_unstable();
        smallest.truncate(take);
        let (mut buffer, mut thr, mut fills) = (Vec::new(), None, 0);
        for &key in keys {
            if thr.is_none_or(|t| key < t) {
                buffer.push(key);
                if buffer.len() == cap {
                    buffer.sort_unstable();
                    buffer.truncate(take);
                    thr = Some(buffer[take - 1]);
                    fills += 1;
                }
            }
        }
        (smallest, fills + u64::from(buffer.len() > take))
    }

    fn check(keys: &[u32], take: usize) -> Result<(), TestCaseError> {
        let kept = run_filter(keys, take, CAP);
        let (smallest, compactions) = reference(keys, take, CAP);
        let mut got = kept.keys.clone();
        got.sort_unstable();
        prop_assert_eq!(got, smallest, "take={}", take);
        let mut seen = std::collections::HashSet::new();
        for (&key, &index) in kept.keys.iter().zip(&kept.indices) {
            prop_assert_eq!(
                keys[index as usize],
                key,
                "index {} carries another key",
                index
            );
            prop_assert!(seen.insert(index), "index {} kept twice", index);
        }
        prop_assert_eq!(kept.compactions, compactions, "take={}", take);
        Ok(())
    }

    const TAKES: [usize; 3] = [1, 7, CAP / 2];

    #[test]
    fn fixed_streams_keep_the_smallest() {
        let n = 1000u32;
        let streams: [Vec<u32>; 3] = [
            (0..n).collect(),
            (0..n).rev().collect(),
            vec![42; n as usize],
        ];
        for keys in &streams {
            for take in TAKES {
                check(keys, take).unwrap();
            }
        }
        // Descending admits every key: one fill at 64, one every 57
        // admissions after it (16 more), and a final compaction of the
        // 31 left.
        assert_eq!(run_filter(&streams[1], 7, CAP).compactions, 18);
        // Ascending and all-equal fill once; nothing beats the
        // threshold after that.
        assert_eq!(run_filter(&streams[0], 7, CAP).compactions, 1);
        assert_eq!(run_filter(&streams[2], 7, CAP).compactions, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_streams_keep_the_smallest(
            keys in prop::collection::vec(prop_oneof![0u32..40, any::<u32>()], CAP / 2..6 * CAP),
        ) {
            for take in TAKES {
                check(&keys, take)?;
            }
        }
    }

    /// Every launch's grid, block, bytes and shared bytes are the
    /// plan's, for 4- and 8-byte keys, and under an armed sanitizer no
    /// block allocates more shared memory than its contract declares.
    #[test]
    fn plan_is_the_launches_the_kernels_make() {
        fn observe<T: RadixKey>(
            spec: &DeviceSpec,
            data: &[T],
            batch: usize,
            run: impl Fn(&mut Gpu, Rows<'_, T>),
        ) -> Vec<PlannedLaunch> {
            let mut gpu = Gpu::new(spec.clone());
            gpu.enable_sanitizer(SanitizerMode {
                armed: true,
                leakcheck: false,
            });
            let rows: Vec<_> = (0..batch).map(|_| gpu.htod("in", data)).collect();
            gpu.reset_profile();
            run(&mut gpu, Rows::Slices(&rows));
            let report = gpu.sanitizer_report().expect("armed");
            assert!(report.is_clean(), "{:?}", report.findings);
            gpu.reports()
                .iter()
                .map(|r| PlannedLaunch {
                    grid_dim: r.cfg.grid_dim,
                    block_dim: r.cfg.block_dim,
                    stats: KernelStats {
                        compute_ops: 0,
                        ..r.stats
                    },
                })
                .collect()
        }
        fn exact(plan: FilterPlan) -> Vec<PlannedLaunch> {
            let mut launches = plan.launches();
            for l in &mut launches {
                l.stats.compute_ops = 0;
            }
            launches
        }
        fn cases<T: RadixKey>(spec: &DeviceSpec, data: &[T], (k, batch): (usize, usize)) {
            let (n, key_bytes) = (data.len(), std::mem::size_of::<T::Ordered>());
            let rowwise = observe(spec, data, batch, |gpu, rows| {
                RowWiseTopK.run_rows(gpu, rows, k).unwrap();
            });
            let plan = FilterPlan::rowwise(spec, n, k, batch, key_bytes).unwrap();
            assert_eq!(rowwise, exact(plan), "rowwise");
            let bucketed = observe(spec, data, batch, |gpu, rows| {
                BucketedTopK::new(16).run_rows(gpu, rows, k).unwrap();
            });
            let plan =
                FilterPlan::bucketed(spec, n, k, batch, BucketedTopK::new(16).plan(k), key_bytes)
                    .unwrap();
            assert_eq!(bucketed, exact(plan), "bucketed");
            let two_stage = observe(spec, data, batch, |gpu, rows| {
                TwoStageTopK::new(8, 32).run_rows(gpu, rows, k).unwrap();
            });
            let plan = TwoStageTopK::new(8, 32).plan();
            let plan = FilterPlan::two_stage(spec, n, k, batch, plan, key_bytes).unwrap();
            assert_eq!(two_stage, exact(plan), "two-stage");
        }
        let spec = DeviceSpec::a100();
        let f32s: Vec<f32> = (0..20_001).map(|i| ((i * 7919) % 20_001) as f32).collect();
        let f64s: Vec<f64> = f32s.iter().map(|&v| v as f64).collect();
        cases(&spec, &f32s, (100, 3));
        cases(&spec, &f64s, (100, 3));
    }
}
