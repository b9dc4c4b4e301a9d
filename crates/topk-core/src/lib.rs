//! # topk-core — AIR Top-K and GridSelect
//!
//! The SC '23 paper's two contributed parallel top-K algorithms,
//! implemented as kernels on the [`gpu_sim`] substrate:
//!
//! * [`air::AirTopK`] — **A**daptive and **I**teration-fused **R**adix
//!   top-K (§3). One fused kernel per radix pass does the previous
//!   pass's filtering *and* this pass's histogram, the last finishing
//!   block computes the prefix sum and target digit on-device, so the
//!   host only launches 4 kernels and never synchronises. The adaptive
//!   strategy (§3.2) decides per pass whether candidates are worth
//!   buffering, and early stopping (§3.3) cuts the tail when every
//!   remaining candidate is a result.
//! * [`gridselect::GridSelect`] — WarpSelect evolved (§4): one shared
//!   queue per warp with ballot-based parallel two-step insertion, and
//!   a multi-block launch so the whole GPU participates.
//!
//! Plus the shared machinery: order-preserving radix key mappings
//! ([`keys`]), bitonic sorting networks ([`bitonic`]), the
//! [`TopKAlgorithm`](traits) interface, and a strict
//! correctness verifier ([`verify`]).
//!
//! The paper's problem statement (§2.1): given a list `L` of `N`
//! elements and `K ∈ [1, N]`, return value list `V` and index list `I`
//! of length `K` with `L[I[i]] = V[i]` and every returned value no
//! greater than every non-returned element. We select the *smallest* K,
//! as the paper does.

pub mod air;
pub mod bitonic;
pub mod bucketed;
pub mod dispatch;
pub mod error;
mod fill;
mod filter;
pub mod gridselect;
pub mod keys;
pub mod largest;
pub mod matrix;
pub mod obs;
pub mod radik;
pub mod radix;
pub mod recall;
pub mod rowwise;
pub mod scratch;
pub mod streaming;
pub mod traits;
pub mod tuner;
pub mod twostage;
pub mod unfused;
pub mod verify;

pub use air::{AirConfig, AirTopK};
pub use bucketed::BucketedTopK;
pub use dispatch::SelectK;
pub use error::TopKError;
pub use gridselect::{GridSelect, GridSelectConfig, QueueKind};
pub use keys::RadixKey;
pub use largest::{reference_largest, SelectLargest};
pub use matrix::{DeviceMatrix, RowSelect};
pub use obs::{AlgoCounters, AlgoSnapshot};
pub use radik::RadiK;
pub use radix::{MsbFirst, RadixTopK, Schedule, Sketched};
pub use recall::{
    expected_recall, measured_recall, plan_bucketed, plan_two_stage, BucketedPlan, TwoStagePlan,
};
pub use rowwise::{RowWiseTopK, ROWWISE_MAX_K};
pub use scratch::ScratchGuard;
pub use streaming::{StreamingSelect, WarpSelector};
pub use traits::{check_args, check_batch, Category, TopKAlgorithm, TopKOutput, TypedOutput};
pub use tuner::{DistSketch, Plan, PlanKey, ProblemShape, TunedAlgo, Tuner};
pub use twostage::TwoStageTopK;
pub use unfused::UnfusedRadix;
pub use verify::{reference_topk, verify_topk, verify_topk_typed, VerifyError};
