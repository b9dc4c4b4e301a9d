//! Algorithm-level instrumentation: process-wide atomic counters for
//! the runtime decisions the paper's figures are built on.
//!
//! AIR Top-K's adaptive strategy (§3.2) and early stopping (§3.3) are
//! *runtime* decisions taken by the last finishing block of each pass —
//! invisible from outside the kernel unless counted where they happen.
//! The same goes for GridSelect's queue flushes (§4): how often the
//! shared queue actually forces a bitonic sort + merge is exactly the
//! quantity its design minimises. This module counts those events with
//! relaxed atomics (kernel blocks run on a host thread pool, so the
//! counters must be shareable across threads; the increments cost
//! nothing next to the simulation itself).
//!
//! Most events are counted where they happen. GridSelect's queue
//! flushes are the exception: they happen tens of thousands of times
//! per call, so each warp counts its own in a plain integer and adds
//! the total once, when its state drops at the end of the block (or
//! when a streaming [`crate::WarpSelector`] is finished or dropped).
//! A launch's blocks have all dropped their states by the time it
//! returns, so per-launch and per-call totals are unchanged; only a
//! snapshot taken from another thread *during* a launch can see fewer
//! flushes than have run.
//!
//! The counters are process-wide and monotonic. Consumers that want
//! per-run numbers take a [`AlgoCounters::snapshot`] before and after
//! and diff with [`AlgoSnapshot::delta_since`] — that is what
//! `topk-engine` does per drain. Under concurrent engines the delta is
//! a process-wide total over the window, which is what an engine-wide
//! metrics endpoint wants anyway.
//!
//! ```
//! use topk_core::obs;
//!
//! let before = obs::counters().snapshot();
//! // ... run selections ...
//! let delta = obs::counters().snapshot().delta_since(&before);
//! assert!(delta.air_passes >= before.air_passes.saturating_sub(before.air_passes));
//! ```

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The global algorithm-event counters (see module docs).
#[derive(Debug)]
pub struct AlgoCounters {
    /// AIR: radix digit passes completed (one per problem per pass,
    /// counted when the last finishing block runs the on-device prefix
    /// sum; includes the early-stop copy-out pass).
    pub air_passes: AtomicU64,
    /// AIR: passes that decided to *write* the candidate buffer for the
    /// next pass (`C·α < N`, §3.2).
    pub air_buffer_writes: AtomicU64,
    /// AIR: passes where the adaptive strategy *skipped* buffering
    /// (`C·α ≥ N`): the next pass re-reads the input instead.
    pub air_adaptive_skips: AtomicU64,
    /// AIR: early-stop triggers (`K == C`, §3.3).
    pub air_early_stops: AtomicU64,
    /// AIR: problems solved by the one-block shared-memory fast path.
    pub air_one_block_selections: AtomicU64,
    /// GridSelect: shared-queue flushes (bitonic sort + merge into the
    /// maintained top-K list) — the expensive event the shared queue
    /// exists to make rare (§4). Also counts the per-thread-queue
    /// flushes of WarpSelect and BlockSelect, which share the core.
    /// Published per warp, once, when its state drops (see the module
    /// docs); per-launch totals are exact.
    pub gridselect_queue_merges: AtomicU64,
    /// GridSelect: list-vs-list merges (cross-warp merges inside a
    /// block plus the tree-merge kernel's folds).
    pub gridselect_list_merges: AtomicU64,
    /// RadiK: radix rounds completed (one per problem per round,
    /// counted by the last finishing block).
    pub radik_rounds: AtomicU64,
    /// RadiK: total key bits skipped by adaptive digit ordering — the
    /// shared-prefix bits the sketch pass and per-round min/max
    /// tracking let the selector jump over instead of histogramming.
    pub radik_skipped_bits: AtomicU64,
    /// RowWise: shared-memory candidate-buffer compactions (the fused
    /// row-wise path's only non-streaming work).
    pub rowwise_compactions: AtomicU64,
    /// Bucketed: approximate single-pass selections launched.
    pub bucketed_selections: AtomicU64,
    /// Two-stage: exact candidate reduces launched (one per
    /// approximate two-stage selection).
    pub twostage_reduces: AtomicU64,
    /// Tuner: dispatches served from a cached plan.
    pub tuner_plan_hits: AtomicU64,
    /// Tuner: dispatches that had to run the offline planner first.
    pub tuner_plan_misses: AtomicU64,
    /// Tuner: plans re-planned because observed latency contradicted
    /// the cost model's prediction.
    pub tuner_refinements: AtomicU64,
}

impl AlgoCounters {
    const fn new() -> Self {
        AlgoCounters {
            air_passes: AtomicU64::new(0),
            air_buffer_writes: AtomicU64::new(0),
            air_adaptive_skips: AtomicU64::new(0),
            air_early_stops: AtomicU64::new(0),
            air_one_block_selections: AtomicU64::new(0),
            gridselect_queue_merges: AtomicU64::new(0),
            gridselect_list_merges: AtomicU64::new(0),
            radik_rounds: AtomicU64::new(0),
            radik_skipped_bits: AtomicU64::new(0),
            rowwise_compactions: AtomicU64::new(0),
            bucketed_selections: AtomicU64::new(0),
            twostage_reduces: AtomicU64::new(0),
            tuner_plan_hits: AtomicU64::new(0),
            tuner_plan_misses: AtomicU64::new(0),
            tuner_refinements: AtomicU64::new(0),
        }
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> AlgoSnapshot {
        AlgoSnapshot {
            air_passes: self.air_passes.load(Relaxed),
            air_buffer_writes: self.air_buffer_writes.load(Relaxed),
            air_adaptive_skips: self.air_adaptive_skips.load(Relaxed),
            air_early_stops: self.air_early_stops.load(Relaxed),
            air_one_block_selections: self.air_one_block_selections.load(Relaxed),
            gridselect_queue_merges: self.gridselect_queue_merges.load(Relaxed),
            gridselect_list_merges: self.gridselect_list_merges.load(Relaxed),
            radik_rounds: self.radik_rounds.load(Relaxed),
            radik_skipped_bits: self.radik_skipped_bits.load(Relaxed),
            rowwise_compactions: self.rowwise_compactions.load(Relaxed),
            bucketed_selections: self.bucketed_selections.load(Relaxed),
            twostage_reduces: self.twostage_reduces.load(Relaxed),
            tuner_plan_hits: self.tuner_plan_hits.load(Relaxed),
            tuner_plan_misses: self.tuner_plan_misses.load(Relaxed),
            tuner_refinements: self.tuner_refinements.load(Relaxed),
        }
    }
}

static COUNTERS: AlgoCounters = AlgoCounters::new();

/// The process-wide counter instance.
pub fn counters() -> &'static AlgoCounters {
    &COUNTERS
}

/// Plain-integer snapshot of [`AlgoCounters`]; subtract two with
/// [`AlgoSnapshot::delta_since`] to get the events inside a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlgoSnapshot {
    /// See [`AlgoCounters::air_passes`].
    pub air_passes: u64,
    /// See [`AlgoCounters::air_buffer_writes`].
    pub air_buffer_writes: u64,
    /// See [`AlgoCounters::air_adaptive_skips`].
    pub air_adaptive_skips: u64,
    /// See [`AlgoCounters::air_early_stops`].
    pub air_early_stops: u64,
    /// See [`AlgoCounters::air_one_block_selections`].
    pub air_one_block_selections: u64,
    /// See [`AlgoCounters::gridselect_queue_merges`].
    pub gridselect_queue_merges: u64,
    /// See [`AlgoCounters::gridselect_list_merges`].
    pub gridselect_list_merges: u64,
    /// See [`AlgoCounters::radik_rounds`].
    pub radik_rounds: u64,
    /// See [`AlgoCounters::radik_skipped_bits`].
    pub radik_skipped_bits: u64,
    /// See [`AlgoCounters::rowwise_compactions`].
    pub rowwise_compactions: u64,
    /// See [`AlgoCounters::bucketed_selections`].
    pub bucketed_selections: u64,
    /// See [`AlgoCounters::twostage_reduces`].
    pub twostage_reduces: u64,
    /// See [`AlgoCounters::tuner_plan_hits`].
    pub tuner_plan_hits: u64,
    /// See [`AlgoCounters::tuner_plan_misses`].
    pub tuner_plan_misses: u64,
    /// See [`AlgoCounters::tuner_refinements`].
    pub tuner_refinements: u64,
}

impl AlgoSnapshot {
    /// Counter increments between `earlier` and `self` (saturating, so
    /// snapshots taken out of order yield zeros instead of wrapping).
    pub fn delta_since(&self, earlier: &AlgoSnapshot) -> AlgoSnapshot {
        AlgoSnapshot {
            air_passes: self.air_passes.saturating_sub(earlier.air_passes),
            air_buffer_writes: self
                .air_buffer_writes
                .saturating_sub(earlier.air_buffer_writes),
            air_adaptive_skips: self
                .air_adaptive_skips
                .saturating_sub(earlier.air_adaptive_skips),
            air_early_stops: self.air_early_stops.saturating_sub(earlier.air_early_stops),
            air_one_block_selections: self
                .air_one_block_selections
                .saturating_sub(earlier.air_one_block_selections),
            gridselect_queue_merges: self
                .gridselect_queue_merges
                .saturating_sub(earlier.gridselect_queue_merges),
            gridselect_list_merges: self
                .gridselect_list_merges
                .saturating_sub(earlier.gridselect_list_merges),
            radik_rounds: self.radik_rounds.saturating_sub(earlier.radik_rounds),
            radik_skipped_bits: self
                .radik_skipped_bits
                .saturating_sub(earlier.radik_skipped_bits),
            rowwise_compactions: self
                .rowwise_compactions
                .saturating_sub(earlier.rowwise_compactions),
            bucketed_selections: self
                .bucketed_selections
                .saturating_sub(earlier.bucketed_selections),
            twostage_reduces: self
                .twostage_reduces
                .saturating_sub(earlier.twostage_reduces),
            tuner_plan_hits: self.tuner_plan_hits.saturating_sub(earlier.tuner_plan_hits),
            tuner_plan_misses: self
                .tuner_plan_misses
                .saturating_sub(earlier.tuner_plan_misses),
            tuner_refinements: self
                .tuner_refinements
                .saturating_sub(earlier.tuner_refinements),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_is_saturating_and_fieldwise() {
        let a = AlgoSnapshot {
            air_passes: 10,
            air_buffer_writes: 3,
            ..Default::default()
        };
        let b = AlgoSnapshot {
            air_passes: 14,
            air_buffer_writes: 3,
            air_early_stops: 2,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.air_passes, 4);
        assert_eq!(d.air_buffer_writes, 0);
        assert_eq!(d.air_early_stops, 2);
        // Out-of-order snapshots saturate to zero.
        assert_eq!(a.delta_since(&b).air_passes, 0);
    }

    #[test]
    fn real_selections_bump_the_counters() {
        use crate::traits::TopKAlgorithm;
        use gpu_sim::{DeviceSpec, Gpu};
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let data: Vec<f32> = (0..40_000).map(|i| ((i * 131) % 7919) as f32).collect();
        let input = gpu.htod("obs_in", &data);
        let before = counters().snapshot();
        let _ = crate::AirTopK::default()
            .try_select(&mut gpu, &input, 32)
            .unwrap();
        let _ = crate::GridSelect::default()
            .try_select(&mut gpu, &input, 32)
            .unwrap();
        let d = counters().snapshot().delta_since(&before);
        // Tests run in parallel, so the deltas are lower bounds: at
        // least one AIR digit pass and one GridSelect queue flush must
        // have happened in this window.
        assert!(d.air_passes >= 1, "no AIR passes counted");
        assert!(
            d.gridselect_queue_merges >= 1,
            "no GridSelect queue merges counted"
        );
        assert!(
            d.gridselect_list_merges >= 1,
            "no GridSelect list merges counted"
        );
    }

    #[test]
    fn global_counters_are_shared_and_monotonic() {
        let before = counters().snapshot();
        counters().air_passes.fetch_add(3, Relaxed);
        counters().gridselect_queue_merges.fetch_add(1, Relaxed);
        let delta = counters().snapshot().delta_since(&before);
        assert!(delta.air_passes >= 3);
        assert!(delta.gridselect_queue_merges >= 1);
    }
}
