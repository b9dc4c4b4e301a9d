//! The accuracy ladder: whether a batch attempt runs exact or on an
//! approximate rung.

use crate::drain::Job;
use crate::{ApproxRung, DEADLINE_SAFETY};
use gpu_sim::DeviceSpec;
use topk_core::tuner::{ProblemShape, TunedAlgo, Tuner};
use topk_core::{BucketedTopK, SelectK, TwoStageTopK};

/// An approximate rung the scheduler chose for one batch attempt.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RungChoice {
    /// The approximate configuration to execute (always a
    /// [`TunedAlgo::TwoStage`] or [`TunedAlgo::Bucketed`]).
    pub(crate) algo: TunedAlgo,
    /// The ladder rung `algo` belongs to.
    pub(crate) rung: ApproxRung,
    /// Analytic expected recall of that configuration — ≥ the batch's
    /// recall target by construction.
    pub(crate) est_recall: f64,
    /// What triggered the degradation: `"deadline_risk"` or
    /// `"capacity_loss"`.
    pub(crate) cause: &'static str,
}

/// Decide which rung of the accuracy ladder a batch attempt runs on.
///
/// Exact (`None`) is the default. A batch is considered for the
/// approximate rungs only when its coalesced (strictest-member) recall
/// target is below 1.0 *and* the scheduler sees trouble ahead:
///
/// * **deadline risk** — the predicted exact-path cost (the tuner's
///   cached plan for this shape bucket, or the cheapest cold
///   prediction over the exact candidate set), scaled by
///   [`DEADLINE_SAFETY`], overruns the batch's earliest member
///   deadline from `start_us`; or
/// * **capacity loss** — at most half the pool is healthy
///   (non-failed, non-quarantined), so queue pressure concentrates on
///   the survivors.
///
/// The ladder is exact → two-stage → bucketed:
/// [`Tuner::approx_candidates`] offers two-stage first (higher
/// recall), and the decision descends to bucketed only when the
/// two-stage prediction *still* overruns the deadline. Every offered
/// candidate already clears the recall target analytically, so the
/// choice can never violate it. Purely a function of simulated state —
/// same workload and fault seed, same rungs.
pub(crate) fn decide_rung(
    batch: &Job,
    spec: &DeviceSpec,
    selector: &SelectK,
    start_us: f64,
    healthy: usize,
    pool: usize,
) -> Option<RungChoice> {
    if batch.recall_target >= 1.0 {
        return None;
    }
    let shape = ProblemShape::new(batch.n, batch.k, batch.queries.len()).with_sketch(batch.sketch);
    let capacity_loss = healthy * 2 <= pool;
    let earliest_deadline = batch.queries.iter().filter_map(|q| q.deadline_us).min();
    let exact_us = selector.tuner().and_then(|t| {
        t.peek(&shape).map(|p| p.predicted_us).or_else(|| {
            Tuner::candidates(spec, &shape)
                .into_iter()
                .filter_map(|a| t.predict_us(spec, &shape, a))
                .min_by(f64::total_cmp)
        })
    });
    let misses = |predicted: Option<f64>| match (earliest_deadline, predicted) {
        (Some(dl), Some(us)) => start_us + us * DEADLINE_SAFETY > dl as f64,
        _ => false,
    };
    let deadline_risk = misses(exact_us);
    if !deadline_risk && !capacity_loss {
        return None;
    }
    let cause = if deadline_risk {
        "deadline_risk"
    } else {
        "capacity_loss"
    };
    let mut chosen = None;
    for algo in Tuner::approx_candidates(spec, &shape, batch.recall_target) {
        chosen = Some(algo);
        let predicted = selector
            .tuner()
            .and_then(|t| t.predict_us(spec, &shape, algo));
        if !misses(predicted) {
            break;
        }
    }
    let algo = chosen?;
    let (rung, est_recall) = match algo {
        TunedAlgo::Bucketed { per_bucket } => {
            let recall = BucketedTopK::new(per_bucket as usize).expected_recall(batch.k);
            (ApproxRung::Bucketed, recall)
        }
        TunedAlgo::TwoStage {
            partitions,
            k_prime,
        } => {
            let algo = TwoStageTopK::new(partitions as usize, k_prime as usize);
            (ApproxRung::TwoStage, algo.expected_recall(batch.k))
        }
        _ => (ApproxRung::TwoStage, 1.0),
    };
    Some(RungChoice {
        algo,
        rung,
        est_recall,
        cause,
    })
}
