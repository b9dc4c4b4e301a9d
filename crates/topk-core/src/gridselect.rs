//! GridSelect (§4): WarpSelect with a shared queue, parallel two-step
//! insertion, and a multi-block launch.
//!
//! The WarpSelect family streams elements past a maintained top-K
//! list. Each warp keeps its list sorted in fast memory; incoming
//! elements smaller than the current kth value are staged in a queue,
//! and when the queue fills, a bitonic sort + merge folds it into the
//! list. GridSelect's three changes over Faiss's WarpSelect /
//! BlockSelect:
//!
//! 1. **Shared queue** — one 32-entry queue per warp in shared memory
//!    instead of 32 per-thread register queues, so the expensive
//!    sort+merge happens only when the queue is *actually* full rather
//!    than whenever any single thread's queue fills (§4's skew
//!    problem). This also relieves register pressure.
//! 2. **Parallel two-step insertion** (Fig. 5) — a warp ballot gives
//!    every qualified lane a unique slot by prefix-popcount; lanes
//!    whose slot fits insert immediately, the queue is flushed, and
//!    the overflow lanes insert into the emptied queue.
//! 3. **Multi-block launch** — BlockSelect runs one thread block (one
//!    SM of the A100's 108); GridSelect spreads blocks across the
//!    device and merges per-block results with a tree of merge
//!    kernels, which is where its up-to-882× speedup at batch 1 comes
//!    from (§5.3).
//!
//! One launch plan sizes all of it (`GridPlan`, DESIGN §14): the
//! fewest blocks per problem at which the modelled occupancy stops
//! rising, and merge rounds whose fan-in is priced with the cost
//! model. The tuner prices the same plan. Warps of a block also share
//! their best K-th bound, so the wider grid does not cost more
//! flushes.
//!
//! This module also exposes [`select_partial_core`], the shared
//! machinery that the WarpSelect and BlockSelect baselines instantiate
//! with per-thread queues and a single block.

use crate::bitonic::{merge_into_topk, sort_queue};
use crate::error::TopKError;
use crate::fill::fill_blocks;
use crate::keys::{OrderedBits, RadixKey};
use crate::matrix::{select_batch, select_one, split_rows, RowSelect, Rows};
use crate::obs;
use crate::scratch::ScratchGuard;
use crate::traits::{check_args, Category, TopKAlgorithm, TopKOutput, TypedOutput};
use gpu_sim::device::WARP_SIZE;
use gpu_sim::{
    BlockCtx, DeviceBuffer, DeviceSpec, Footprint, Gpu, KernelContract, KernelStats, PlannedLaunch,
};
use std::sync::atomic::Ordering::Relaxed;

/// Largest K the WarpSelect family supports (§2.2: limited by
/// shared-memory / register budget; 2048 in Faiss and here).
pub const MAX_K: usize = 2048;

/// Algorithm label used in errors raised by the shared warp-select
/// core functions, which serve several front-end algorithms.
const CORE_NAME: &str = "warp-select core";

/// Queueing strategy for the warp-select core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// One shared queue per warp with two-step ballot insertion
    /// (GridSelect, §4).
    Shared {
        /// Queue capacity (32 in the paper, bounding shared-memory
        /// footprint).
        len: usize,
    },
    /// A private queue per thread; the warp flushes when *any*
    /// thread's queue fills (WarpSelect/BlockSelect, and the Fig. 11
    /// ablation).
    PerThread {
        /// Per-thread queue capacity.
        len: usize,
    },
}

/// Configuration for [`GridSelect`].
#[derive(Debug, Clone)]
pub struct GridSelectConfig {
    /// Warps per thread block (BlockSelect uses up to 4; so do we).
    pub warps_per_block: usize,
    /// Hard cap on thread blocks per problem. The default,
    /// `usize::MAX`, sets no cap: the launch plan gives each problem
    /// as many blocks as fill the device. Set 1 to emulate
    /// BlockSelect's shape.
    pub max_blocks_per_problem: usize,
    /// Elements per thread per grid-stride chunk.
    pub items_per_thread: usize,
    /// Queue strategy (shared, or per-thread for the Fig. 11 ablation).
    pub queue: QueueKind,
}

impl Default for GridSelectConfig {
    fn default() -> Self {
        GridSelectConfig {
            warps_per_block: 4,
            max_blocks_per_problem: usize::MAX,
            items_per_thread: 32,
            queue: QueueKind::Shared { len: WARP_SIZE },
        }
    }
}

/// GridSelect (§4). Supports K ≤ 2048 and on-the-fly processing.
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec};
/// use topk_core::{GridSelect, TopKAlgorithm, verify_topk};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let data: Vec<f32> = (0..20_000).map(|i| ((i * 131) % 7919) as f32).collect();
/// let input = gpu.htod("scores", &data);
/// let out = GridSelect::default().select(&mut gpu, &input, 10);
/// verify_topk(&data, 10, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
///
/// // Or fuse selection with the computation that produces the values
/// // (the last argument declares which device buffers the producer
/// // reads — none here):
/// let out = GridSelect::default()
///     .select_on_the_fly(
///         &mut gpu,
///         20_000,
///         10,
///         |ctx, i| {
///             ctx.ops(1);
///             ((i * 131) % 7919) as f32
///         },
///         |c| c,
///     )
///     .unwrap();
/// verify_topk(&data, 10, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct GridSelect {
    cfg: GridSelectConfig,
}

impl Default for GridSelect {
    fn default() -> Self {
        GridSelect::new(GridSelectConfig::default())
    }
}

impl GridSelect {
    /// Create with explicit configuration.
    pub fn new(cfg: GridSelectConfig) -> Self {
        assert!(cfg.warps_per_block >= 1);
        assert!(cfg.items_per_thread >= 1);
        match cfg.queue {
            QueueKind::Shared { len } | QueueKind::PerThread { len } => {
                assert!(len.is_power_of_two(), "queue length must be a power of two")
            }
        }
        GridSelect { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GridSelectConfig {
        &self.cfg
    }

    /// On-the-fly selection (§4): select the K smallest of the `n`
    /// values produced by `producer(ctx, i)`, which is invoked inside
    /// the kernel — the values never need to exist in device memory.
    /// Use this to fuse selection with the computation that generates
    /// the scores (distances, model outputs, …).
    /// `declare_reads` names the device buffers the producer loads
    /// from (`|c| c.reads(&buf, Footprint::all())`), for the launch
    /// contract — only the caller knows what backs the computation.
    pub fn select_on_the_fly<P, D>(
        &self,
        gpu: &mut Gpu,
        n: usize,
        k: usize,
        producer: P,
        declare_reads: D,
    ) -> Result<TopKOutput, TopKError>
    where
        P: Fn(&mut BlockCtx<'_>, usize) -> f32 + Sync,
        D: Fn(KernelContract) -> KernelContract,
    {
        check_args(self, n, k)?;
        let (values, indices) = select_streaming_core_typed(
            gpu,
            "gridselect_fused_kernel",
            n,
            1,
            k,
            &self.cfg,
            |ctx, _prob, i| producer(ctx, i),
            declare_reads,
        )?
        .swap_remove(0);
        Ok(TopKOutput::new(values, indices))
    }
}

impl<T: RadixKey> RowSelect<T> for GridSelect {
    fn row_labels(&self) -> (&'static str, &'static str) {
        OUT_LABELS
    }

    fn run_rows(
        &self,
        gpu: &mut Gpu,
        rows: Rows<'_, T>,
        k: usize,
    ) -> Result<TypedOutput<T>, TopKError> {
        select_rows_core(gpu, "gridselect_kernel", rows, k, &self.cfg, true)
    }
}

/// Labels of the per-row pieces [`split_rows`] makes of the packed
/// outputs.
const OUT_LABELS: (&str, &str) = ("gs_values", "gs_indices");

impl TopKAlgorithm for GridSelect {
    fn name(&self) -> &'static str {
        "GridSelect"
    }

    fn category(&self) -> Category {
        Category::PartialSorting
    }

    fn max_k(&self) -> Option<usize> {
        Some(MAX_K)
    }

    fn try_select(
        &self,
        gpu: &mut Gpu,
        input: &DeviceBuffer<f32>,
        k: usize,
    ) -> Result<TopKOutput, TopKError> {
        select_one(self, gpu, input, k)
    }

    fn try_select_batch(
        &self,
        gpu: &mut Gpu,
        inputs: &[DeviceBuffer<f32>],
        k: usize,
    ) -> Result<Vec<TopKOutput>, TopKError> {
        select_batch(self, gpu, inputs, k)
    }
}

/// One warp's maintained state: a sorted top-K list (padded to a power
/// of two with the `O::MAX` sentinel) plus its staging queue. Shared with the
/// on-the-fly [`crate::streaming::WarpSelector`] API.
pub(crate) struct WarpState<O: OrderedBits = u32> {
    pub(crate) list_keys: Vec<O>,
    pub(crate) list_idx: Vec<u32>,
    queue_keys: Vec<O>,
    queue_idx: Vec<u32>,
    /// Valid entries currently staged.
    queue_fill: usize,
    /// Per-thread fill counts (PerThread mode only).
    lane_fill: [usize; WARP_SIZE],
    /// Current kth-smallest ordered key (the insertion threshold).
    pub(crate) threshold: O,
    k: usize,
    /// Queue flushes so far, published to
    /// [`obs::AlgoCounters::gridselect_queue_merges`] on drop.
    flushes: u64,
}

impl<O: OrderedBits> Drop for WarpState<O> {
    fn drop(&mut self) {
        if self.flushes > 0 {
            obs::counters()
                .gridselect_queue_merges
                .fetch_add(self.flushes, Relaxed);
        }
    }
}

impl<O: OrderedBits> WarpState<O> {
    pub(crate) fn new(ctx: &mut BlockCtx<'_>, k: usize, queue_slots: usize) -> Self {
        let klen = k.next_power_of_two();
        let list_keys = {
            let mut v = ctx.shared_alloc::<O>(klen);
            v.fill(O::MAX);
            v
        };
        let list_idx = ctx.shared_alloc::<u32>(klen);
        let queue_keys = {
            let mut v = ctx.shared_alloc::<O>(queue_slots);
            v.fill(O::MAX);
            v
        };
        let queue_idx = ctx.shared_alloc::<u32>(queue_slots);
        WarpState {
            list_keys,
            list_idx,
            queue_keys,
            queue_idx,
            queue_fill: 0,
            lane_fill: [0; WARP_SIZE],
            threshold: O::MAX,
            k,
            flushes: 0,
        }
    }

    /// Sort the staged queue and fold it into the top-K list; update
    /// the threshold. The expensive operation the queueing strategies
    /// try to call rarely.
    pub(crate) fn flush(&mut self, ctx: &mut BlockCtx<'_>) {
        if self.queue_fill == 0 {
            return;
        }
        // Observability hook: this sort+merge is the expensive event
        // the shared queue exists to make rare (§4) — count it.
        self.flushes += 1;
        for slot in self.queue_fill..self.queue_keys.len() {
            self.queue_keys[slot] = O::MAX;
        }
        let mut ops = sort_queue(&mut self.queue_keys, &mut self.queue_idx);
        let q = self.queue_keys.len().min(self.list_keys.len());
        ops += merge_into_topk(
            &mut self.list_keys,
            &mut self.list_idx,
            &self.queue_keys[..q],
            &self.queue_idx[..q],
        );
        ctx.ops(ops);
        self.queue_fill = 0;
        self.lane_fill = [0; WARP_SIZE];
        self.threshold = self.list_keys[self.k - 1];
    }

    /// Flush for per-thread queue layout: sentinel-pad every lane's
    /// unfilled slots (they may hold stale keys from the previous
    /// in-place sort), then fold the whole staging area into the list.
    fn flush_per_thread(&mut self, ctx: &mut BlockCtx<'_>) {
        if self.lane_fill.iter().all(|&c| c == 0) {
            return;
        }
        let len = self.queue_keys.len() / WARP_SIZE;
        for lane in 0..WARP_SIZE {
            for s in self.lane_fill[lane]..len {
                self.queue_keys[lane * len + s] = O::MAX;
            }
        }
        self.queue_fill = self.queue_keys.len();
        self.flush(ctx);
    }

    /// Drain whatever is staged, respecting the queue layout.
    pub(crate) fn drain(&mut self, ctx: &mut BlockCtx<'_>, queue: QueueKind) {
        match queue {
            QueueKind::Shared { .. } => self.flush(ctx),
            QueueKind::PerThread { .. } => self.flush_per_thread(ctx),
        }
    }
}

/// The streaming warp-select core behind the WarpSelect and BlockSelect
/// baselines. Launches one processing kernel (`name`) over
/// `batch × blocks_per_problem` blocks and, if more than one block per
/// problem was used, the planned `gridselect_merge_kernel` rounds.
/// Warps prune against their own threshold only (no block-shared
/// bound), so the Faiss kernels keep their own behaviour.
pub fn select_partial_core(
    gpu: &mut Gpu,
    name: &str,
    inputs: &[DeviceBuffer<f32>],
    k: usize,
    cfg: &GridSelectConfig,
) -> Result<Vec<TopKOutput>, TopKError> {
    let packed = select_rows_core(gpu, name, Rows::Slices(inputs), k, cfg, false)?;
    Ok(split_rows(gpu, packed, inputs.len(), OUT_LABELS)
        .into_iter()
        .map(|(values, indices)| TopKOutput::new(values, indices))
        .collect())
}

/// The core over buffer-backed rows: each warp loads its segment as one
/// coalesced tile. Outputs are packed `rows × k`.
fn select_rows_core<T>(
    gpu: &mut Gpu,
    name: &str,
    rows: Rows<'_, T>,
    k: usize,
    cfg: &GridSelectConfig,
    shared_bound: bool,
) -> Result<TypedOutput<T>, TopKError>
where
    T: RadixKey,
{
    select_groups_core(
        gpu,
        name,
        rows.n(),
        rows.batch(),
        k,
        cfg,
        shared_bound,
        |ctx, prob, start, keys: &mut [T::Ordered]| {
            rows.tile(ctx, prob, start, start + keys.len())
                .read_into(keys, T::to_ordered);
        },
        |c| rows.declare_reads(c),
    )
}

/// The fully general core: values come from a *producer* closure
/// instead of a device buffer — the §4 "process data on-the-fly"
/// capability as a production API. The producer is called once per
/// element index (lockstep within warps) and may do arbitrary metered
/// work, e.g. compute a query-to-vector distance; the produced value
/// never needs to exist in device memory. Runs GridSelect's kernel,
/// block-shared k-th bound included. The producer may return any
/// [`RadixKey`] type (`f32/u32/i32/f64/u64/i64`); 64-bit keys double
/// the per-warp shared-memory footprint, which the cost model turns
/// into lower occupancy — the same trade a real implementation makes.
#[allow(clippy::too_many_arguments)]
pub fn select_streaming_core_typed<T, P, D>(
    gpu: &mut Gpu,
    name: &str,
    n: usize,
    batch: usize,
    k: usize,
    cfg: &GridSelectConfig,
    producer: P,
    declare_reads: D,
) -> Result<Vec<TypedOutput<T>>, TopKError>
where
    T: RadixKey,
    P: Fn(&mut BlockCtx<'_>, usize, usize) -> T + Sync,
    D: Fn(KernelContract) -> KernelContract,
{
    let fill = |ctx: &mut BlockCtx<'_>, prob: usize, start: usize, keys: &mut [T::Ordered]| {
        for (lane, key) in keys.iter_mut().enumerate() {
            *key = producer(ctx, prob, start + lane).to_ordered();
        }
    };
    let packed = select_groups_core(gpu, name, n, batch, k, cfg, true, fill, declare_reads)?;
    Ok(split_rows(gpu, packed, batch, OUT_LABELS))
}

/// The core behind every entry point. The segment producer
/// `fill(ctx, prob, start, keys)` writes the ordered keys of problem
/// `prob`'s elements `start..start + keys.len()`, one warp's segment
/// (at most `32 · items_per_thread` keys) at a time. `shared_bound`
/// turns on the block-shared k-th bound (GridSelect's entry points).
/// Outputs are packed `batch × k`: problem `p`'s results sit at
/// `p * k`.
#[allow(clippy::too_many_arguments)]
fn select_groups_core<T, G, D>(
    gpu: &mut Gpu,
    name: &str,
    n: usize,
    batch: usize,
    k: usize,
    cfg: &GridSelectConfig,
    shared_bound: bool,
    fill: G,
    declare_reads: D,
) -> Result<TypedOutput<T>, TopKError>
where
    T: RadixKey,
    G: Fn(&mut BlockCtx<'_>, usize, usize, &mut [T::Ordered]) + Sync,
    D: Fn(KernelContract) -> KernelContract,
{
    if batch < 1 {
        return Err(TopKError::UnsupportedShape {
            algorithm: CORE_NAME,
            detail: "empty batch".into(),
        });
    }
    if let Some(e) = TopKError::check_k(CORE_NAME, n, k, Some(MAX_K)) {
        return Err(e);
    }
    let plan = GridPlan::new(
        gpu.spec(),
        n,
        k,
        batch,
        cfg,
        std::mem::size_of::<T::Ordered>(),
        shared_bound,
    );
    ScratchGuard::scope(gpu, |gpu, ws, outs| {
        streaming_core_launches(
            gpu,
            ws,
            outs,
            name,
            &plan,
            n,
            k,
            cfg,
            shared_bound,
            fill,
            declare_reads,
        )
    })
}

/// Threads per block of `gridselect_merge_kernel`.
const MERGE_BLOCK: usize = 256;

/// GridSelect's launch plan: the blocks each problem gets, the fan-in
/// of every merge round, and each launch's grid, block and metered
/// activity. It is a pure function of the device, the shape, the
/// configuration and the key width; the launches run from it and the
/// tuner prices it, so the two cannot drift apart.
///
/// Launch shapes and bytes (read, written, shared) are exact, and so
/// are the merge rounds' compute ops. The main kernel's compute ops
/// are a model, because its queue flushes depend on the data.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GridPlan {
    /// Thread blocks per problem in the main kernel.
    pub(crate) blocks_per_problem: usize,
    /// Lists each merge block folds, one entry per merge round in
    /// launch order; empty with one block per problem.
    pub(crate) merge_fanin: Vec<usize>,
    /// The main kernel, then one launch per merge round.
    pub(crate) launches: Vec<PlannedLaunch>,
}

impl GridPlan {
    /// Plan `batch` problems of `n` keys of `key_bytes` bytes each,
    /// selecting `k` (`1 ≤ k ≤ n`, `k ≤ MAX_K`). `shared_bound` says
    /// whether the main kernel keeps the block-shared k-th bound (one
    /// more shared word per block).
    pub(crate) fn new(
        spec: &DeviceSpec,
        n: usize,
        k: usize,
        batch: usize,
        cfg: &GridSelectConfig,
        key_bytes: usize,
        shared_bound: bool,
    ) -> Self {
        let klen = k.next_power_of_two();
        let warps = cfg.warps_per_block;
        let block_dim = warps * WARP_SIZE;
        let chunk = block_dim * cfg.items_per_thread;
        let queue_slots = queue_slots(cfg.queue);
        let pair = (key_bytes + 4) as u64;
        let shared = (warps * (klen + queue_slots)) as u64 * pair
            + if shared_bound { key_bytes as u64 } else { 0 };
        // Each warp maintains a K-long list, so a warp's slice must be
        // substantially larger than K for the threshold to do any
        // pruning (a slice below K admits *every* element and the queue
        // machinery is pure overhead). Real implementations scale blocks
        // down as K grows for the same reason — which is also the §5.1
        // observation that partial-sorting methods lose steam at large K.
        let k_cap = (n / (8 * k * warps)).max(1);
        let bpp = n
            .div_ceil(chunk)
            .min(k_cap)
            .min(fill_blocks(spec, batch, block_dim, shared))
            .min(cfg.max_blocks_per_problem)
            .max(1);

        // The main kernel's compute depends on the data (its flushes),
        // so it keeps the tuner's model: six ops per key plus four
        // list-sized merge passes per warp.
        let merge_passes = (bpp * warps * 4 * klen) as u64 * klen.trailing_zeros().max(1) as u64;
        let written = if bpp == 1 { k } else { bpp * klen };
        let main = PlannedLaunch {
            grid_dim: batch * bpp,
            block_dim,
            stats: KernelStats {
                bytes_read: (batch * n * key_bytes) as u64,
                bytes_written: (batch * written) as u64 * pair,
                compute_ops: batch as u64 * (6 * n as u64 + merge_passes),
                shared_mem_bytes: shared,
                ..KernelStats::default()
            },
        };
        let (merge_fanin, merges): (Vec<usize>, Vec<PlannedLaunch>) =
            merge_rounds(spec, bpp, k, batch, pair).into_iter().unzip();
        let mut launches = vec![main];
        launches.extend(merges);
        GridPlan {
            blocks_per_problem: bpp,
            merge_fanin,
            launches,
        }
    }
}

/// Staging slots per warp for a queue strategy.
pub(crate) fn queue_slots(queue: QueueKind) -> usize {
    match queue {
        QueueKind::Shared { len } => len,
        QueueKind::PerThread { len } => len * WARP_SIZE,
    }
}

/// Price and choose the merge rounds that fold `lists` sorted lists
/// per problem into one: `(fan-in, launch)` per round.
///
/// A round of `s` lists into `g` groups reads `s` lists, writes `g`
/// (or the K results on the last round) and runs `s − g` list merges
/// on `batch · g` blocks. It is enqueued right behind the launch
/// before it, so it costs the execution time of its
/// [`PlannedLaunch::cost`] plus the inter-launch gap, not a full launch
/// overhead. The candidate list counts are `⌈lists/2^j⌉`, closed under
/// each power-of-two fan-in (⌈⌈L/a⌉/b⌉ = ⌈L/ab⌉), and the cheapest
/// chain of them down to one list wins. A round into `g` groups uses
/// fan-in `⌈s/g⌉`, which spreads the lists evenly.
fn merge_rounds(
    spec: &DeviceSpec,
    lists: usize,
    k: usize,
    batch: usize,
    pair: u64,
) -> Vec<(usize, PlannedLaunch)> {
    let klen = k.next_power_of_two();
    // One `merge_into_topk` of two klen lists: klen exchanges, then
    // log2(klen) bitonic rounds of klen/2 comparators.
    let merge_ops = klen as u64 + (klen / 2) as u64 * klen.trailing_zeros() as u64;
    let round = |s: usize, g: usize| PlannedLaunch {
        grid_dim: batch * g,
        block_dim: MERGE_BLOCK,
        stats: KernelStats {
            bytes_read: (batch * s * klen) as u64 * pair,
            bytes_written: (batch * if g == 1 { k } else { g * klen }) as u64 * pair,
            compute_ops: (batch * (s - g)) as u64 * merge_ops,
            ..KernelStats::default()
        },
    };
    let price = |s: usize, g: usize| round(s, g).cost(spec).exec_us + spec.kernel_gap_us;
    let mut counts = vec![lists];
    while counts[counts.len() - 1] > 1 {
        counts.push(counts[counts.len() - 1].div_ceil(2));
    }
    // best[j]: (µs to reach one list from counts[j], next index).
    let last = counts.len() - 1;
    let mut best = vec![(0.0f64, last); counts.len()];
    for j in (0..last).rev() {
        best[j] = (j + 1..=last)
            .map(|t| (price(counts[j], counts[t]) + best[t].0, t))
            .fold((f64::INFINITY, last), |a, b| if b.0 < a.0 { b } else { a });
    }
    let mut rounds = Vec::new();
    let mut j = 0;
    while j < last {
        let t = best[j].1;
        let (s, g) = (counts[j], counts[t]);
        rounds.push((s.div_ceil(g), round(s, g)));
        j = t;
    }
    rounds
}

/// Launch sequence behind [`select_groups_core`], run from `plan`;
/// workspace goes through `ws`, result buffers through `outs`, so the
/// caller can release either group on any exit path.
#[allow(clippy::too_many_arguments)]
fn streaming_core_launches<T, G, D>(
    gpu: &mut Gpu,
    ws: &mut ScratchGuard,
    outs: &mut ScratchGuard,
    name: &str,
    plan: &GridPlan,
    n: usize,
    k: usize,
    cfg: &GridSelectConfig,
    shared_bound: bool,
    fill: G,
    declare_reads: D,
) -> Result<TypedOutput<T>, TopKError>
where
    T: RadixKey,
    G: Fn(&mut BlockCtx<'_>, usize, usize, &mut [T::Ordered]) + Sync,
    D: Fn(KernelContract) -> KernelContract,
{
    let klen = k.next_power_of_two();
    let warps = cfg.warps_per_block;
    let bpp = plan.blocks_per_problem;
    let main = plan.launches[0];
    let batch = main.grid_dim / bpp;
    let chunk = main.block_dim * cfg.items_per_thread;

    // Per-block results: bpp sorted lists of klen entries per problem.
    let scratch_keys = ws.alloc::<T::Ordered>(gpu, "gs_scratch_keys", batch * bpp * klen)?;
    let scratch_idx = ws.alloc::<u32>(gpu, "gs_scratch_idx", batch * bpp * klen)?;
    let out_val = outs.alloc::<T>(gpu, "gs_out_val", batch * k)?;
    let out_idx = outs.alloc::<u32>(gpu, "gs_out_idx", batch * k)?;

    let queue = cfg.queue;
    let warp_elems = WARP_SIZE * cfg.items_per_thread;
    // Per lockstep group: the qualification compares (one more against
    // the block-shared bound) and the ballot.
    let group_ops = if shared_bound { 4 } else { 3 } * WARP_SIZE as u64;

    // A block writes problem `block / bpp`'s k-slot row; the `bpp`
    // blocks of one problem share it, so the outputs are declared
    // block-coordinated rather than exclusive.
    let contract = declare_reads(KernelContract::new(name))
        .writes(&scratch_keys, Footprint::per_block(klen))
        .writes(&scratch_idx, Footprint::per_block(klen))
        .writes_shared(&out_val, Footprint::per_group(bpp, k))
        .writes_shared(&out_idx, Footprint::per_group(bpp, k))
        .uses_shared_mem(main.shared_bytes());
    gpu.try_launch_checked(&contract, main.config(), |ctx| {
        let prob = ctx.block_idx / bpp;
        let blk = ctx.block_idx % bpp;

        let mut states: Vec<WarpState<T::Ordered>> = (0..warps)
            .map(|_| WarpState::new(ctx, k, queue_slots(queue)))
            .collect();
        // The block-shared k-th bound: one shared word holding the
        // least threshold any of the block's warps has reached. That
        // threshold is the K-th smallest of K keys of this problem, so
        // no key at or above it can enter the top K; warps run in a
        // fixed order within the block, so the bound each one sees
        // does not depend on how blocks are scheduled.
        let mut bound = shared_bound.then(|| {
            let mut word = ctx.shared_alloc::<T::Ordered>(1);
            word[0] = <T::Ordered as OrderedBits>::MAX;
            word
        });

        // Grid-stride over this problem's chunks. Each warp reads its
        // whole segment into `keys`, then runs it as lockstep groups of
        // 32 lanes; lanes past the segment's end hold the sentinel, which
        // never qualifies. With a block-shared bound, a lane qualifies
        // only below both the warp's threshold and the bound, and a
        // flush that lowers the warp's threshold lowers the bound too.
        let sentinel = <T::Ordered as OrderedBits>::MAX;
        let mut keys = vec![sentinel; warp_elems];
        let mut chunk_start = blk * chunk;
        while chunk_start < n {
            for (w, st) in states.iter_mut().enumerate() {
                let wstart = chunk_start + w * warp_elems;
                if wstart >= n {
                    break;
                }
                let len = (n - wstart).min(warp_elems);
                fill(ctx, prob, wstart, &mut keys[..len]);
                let groups = len.div_ceil(WARP_SIZE);
                keys[len..groups * WARP_SIZE].fill(sentinel);
                ctx.ops(groups as u64 * group_ops);
                for (g, lanes) in keys[..groups * WARP_SIZE]
                    .chunks_exact(WARP_SIZE)
                    .enumerate()
                {
                    let limit = bound
                        .as_ref()
                        .map_or(st.threshold, |b| b[0].min(st.threshold));
                    let mask = lane_mask(lanes, limit);
                    if mask != 0 {
                        let start = wstart + g * WARP_SIZE;
                        st.insert_mask(ctx, lanes, |lane| (start + lane) as u32, mask, queue);
                        if let Some(b) = bound.as_mut() {
                            b[0] = b[0].min(st.threshold);
                        }
                    }
                }
            }
            chunk_start += bpp * chunk;
        }

        // Drain queues, merge the block's warps into warp 0's list.
        for st in states.iter_mut() {
            st.drain(ctx, queue);
        }
        let (head, rest) = states.split_at_mut(1);
        for st in rest.iter_mut() {
            let ops = merge_into_topk(
                &mut head[0].list_keys,
                &mut head[0].list_idx,
                &st.list_keys,
                &st.list_idx,
            );
            ctx.ops(ops);
            obs::counters().gridselect_list_merges.fetch_add(1, Relaxed);
        }

        if bpp == 1 {
            // Single block per problem (WarpSelect/BlockSelect shape):
            // write the final K directly.
            for i in 0..k {
                ctx.st(
                    &out_val,
                    prob * k + i,
                    T::from_ordered(head[0].list_keys[i]),
                );
                ctx.st(&out_idx, prob * k + i, head[0].list_idx[i]);
            }
        } else {
            let base = (prob * bpp + blk) * klen;
            for i in 0..klen {
                ctx.st(&scratch_keys, base + i, head[0].list_keys[i]);
                ctx.st(&scratch_idx, base + i, head[0].list_idx[i]);
            }
        }
    })?;

    // Merge the per-block lists in the planned rounds until one list
    // per problem remains. Surviving list `l` lives at scratch slot
    // `l * stride`; merged results stay in each group's *first input
    // slot* rather than compacting to the scratch prefix. Compaction
    // would race: with several merge blocks in one launch, group 0
    // still reads slot 1 (its second input) while group 1 writes its
    // result there. Leaving results in place keeps every block's reads
    // and writes on its own disjoint slot set, at the cost of a stride
    // multiplier per round.
    let mut lists = bpp;
    let mut stride = 1usize;
    for (&fanin, round) in plan.merge_fanin.iter().zip(&plan.launches[1..]) {
        let groups = round.grid_dim / batch;
        let cur = lists;
        let step = stride;
        let contract = KernelContract::new("gridselect_merge_kernel")
            .coordinates(&scratch_keys, Footprint::per_group(groups, bpp * klen))
            .coordinates(&scratch_idx, Footprint::per_group(groups, bpp * klen))
            .writes_shared(&out_val, Footprint::per_group(groups, k))
            .writes_shared(&out_idx, Footprint::per_group(groups, k));
        gpu.try_launch_checked(&contract, round.config(), |ctx| {
            let prob = ctx.block_idx / groups;
            let gidx = ctx.block_idx % groups;
            let first = gidx * fanin;
            let last = (first + fanin).min(cur);
            let base0 = (prob * bpp + first * step) * klen;
            // The group's running list, and one pair of buffers that
            // every further list is read into.
            let mut keys = vec![<T::Ordered as OrderedBits>::MAX; klen];
            let mut idx = vec![0u32; klen];
            let (mut qk, mut qi) = (keys.clone(), idx.clone());
            ctx.ld_tile(&scratch_keys, base0, base0 + klen)
                .read_into(&mut keys, |v| v);
            ctx.ld_tile(&scratch_idx, base0, base0 + klen)
                .read_into(&mut idx, |v| v);
            for l in first + 1..last {
                let b = (prob * bpp + l * step) * klen;
                ctx.ld_tile(&scratch_keys, b, b + klen)
                    .read_into(&mut qk, |v| v);
                ctx.ld_tile(&scratch_idx, b, b + klen)
                    .read_into(&mut qi, |v| v);
                let ops = merge_into_topk(&mut keys, &mut idx, &qk, &qi);
                ctx.ops(ops);
                obs::counters().gridselect_list_merges.fetch_add(1, Relaxed);
            }
            if groups == 1 {
                // Final round: emit the K results (the list is
                // sorted ascending; slots beyond k are sentinels).
                for i in 0..k {
                    ctx.st(&out_val, prob * k + i, T::from_ordered(keys[i]));
                    ctx.st(&out_idx, prob * k + i, idx[i]);
                }
            } else {
                // Write back to this group's own first slot (the
                // list was fully read above, and no other block
                // touches it this launch).
                for i in 0..klen {
                    ctx.st(&scratch_keys, base0 + i, keys[i]);
                    ctx.st(&scratch_idx, base0 + i, idx[i]);
                }
            }
        })?;
        lists = groups;
        stride *= fanin;
    }

    Ok((out_val, out_idx))
}

/// The warp ballot of one lockstep group: bit `lane` is set when
/// `keys[lane] < limit`.
#[inline]
pub(crate) fn lane_mask<O: OrderedBits>(keys: &[O], limit: O) -> u32 {
    let keys: &[O; WARP_SIZE] = keys.try_into().expect("one lockstep group");
    let mut mask = 0u32;
    for (lane, &key) in keys.iter().enumerate() {
        mask |= u32::from(key < limit) << lane;
    }
    mask
}

impl<O: OrderedBits> WarpState<O> {
    /// Stage one lockstep group into the queue, flushing into the top-K
    /// list when full. `mask` is the group's ballot: bit `lane` marks a
    /// qualified lane carrying key `keys[lane]` and index `idx(lane)`;
    /// keys are ordered bits. The caller charges the ballot.
    pub(crate) fn insert_mask(
        &mut self,
        ctx: &mut BlockCtx<'_>,
        keys: &[O],
        idx: impl Fn(usize) -> u32,
        mask: u32,
        queue: QueueKind,
    ) {
        let st = self;
        match queue {
            QueueKind::Shared { len } => {
                // Parallel two-step insertion (Fig. 5). Qualified lanes
                // are visited in lane order, so the r-th one has
                // `lane_rank` r and claims slot `base + r`.
                let count = mask.count_ones() as usize;
                let base = st.queue_fill;
                let mut lanes = mask;
                let mut pos = base;
                // Step 1: lanes whose slot fits.
                while lanes != 0 && pos < len {
                    let lane = lanes.trailing_zeros() as usize;
                    st.queue_keys[pos] = keys[lane];
                    st.queue_idx[pos] = idx(lane);
                    lanes &= lanes - 1;
                    pos += 1;
                }
                if base + count >= len {
                    st.queue_fill = len;
                    st.flush(ctx);
                    // Step 2: overflow lanes insert into the emptied
                    // queue.
                    let mut pos = 0;
                    while lanes != 0 {
                        let lane = lanes.trailing_zeros() as usize;
                        st.queue_keys[pos] = keys[lane];
                        st.queue_idx[pos] = idx(lane);
                        lanes &= lanes - 1;
                        pos += 1;
                    }
                    st.queue_fill = base + count - len;
                } else {
                    st.queue_fill = base + count;
                }
            }
            QueueKind::PerThread { len } => {
                // Each lane appends to its private queue; a full queue
                // on *any* lane forces a whole-warp flush (WarpSelect's
                // weakness under skew, §4).
                let mut any_full = false;
                let mut lanes = mask;
                while lanes != 0 {
                    let lane = lanes.trailing_zeros() as usize;
                    let slot = lane * len + st.lane_fill[lane];
                    st.queue_keys[slot] = keys[lane];
                    st.queue_idx[slot] = idx(lane);
                    st.lane_fill[lane] += 1;
                    any_full |= st.lane_fill[lane] == len;
                    lanes &= lanes - 1;
                }
                if any_full {
                    st.flush_per_thread(ctx);
                }
            }
        }
    }
}

#[cfg(test)]
#[path = "gridselect_tests.rs"]
mod tests;
