//! Kernel execution: launch configuration and the per-block context.
//!
//! A kernel is a Rust closure invoked once per thread block with a
//! [`BlockCtx`]. The closure plays the role of the whole block's
//! cooperative work (CUDA's `__syncthreads()` barriers become ordinary
//! sequential program order inside the closure; warp-level parallelism
//! is expressed with [`crate::warp`] lane arrays). All global-memory
//! access goes through the context so the cost model sees every byte.
//!
//! Blocks of one launch may run concurrently on host threads, so
//! anything a real GPU would race on (histograms, output cursors,
//! "last block" flags) must use the atomic accessors — same as CUDA.
//!
//! A contiguous sweep reads its range as one coalesced [`Tile`]
//! ([`BlockCtx::ld_tile`]) rather than element by element with
//! [`BlockCtx::ld`]. The tile is metered (`len × T::BYTES` into
//! `bytes_read`) and bounds-checked once, then lends the buffer's
//! cells: each element is still a relaxed atomic load, taken when the
//! tile is iterated, so a tile sees exactly what the element-wise loads
//! would have seen and nothing is copied. With a sanitizer armed, the
//! tile runs the same per-word check the element-wise loop would, in
//! index order, so findings do not change; words it squashes (out of
//! bounds under memcheck) read zero. `ld` remains the accessor for
//! scalar and control-word loads.

use crate::cost::KernelStats;
use crate::device::{DeviceSpec, WARP_SIZE};
use crate::memory::{AtomicCell, DeviceBuffer, DeviceScalar};
use crate::sanitizer::{AccessKind, LaunchScope};
use crate::SimError;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shape of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid_dim: usize,
    /// Threads per block (multiple of the 32-thread warp size).
    pub block_dim: usize,
}

impl LaunchConfig {
    /// A 1-D launch of `grid_dim` blocks × `block_dim` threads.
    pub fn grid_1d(grid_dim: usize, block_dim: usize) -> Self {
        LaunchConfig {
            grid_dim,
            block_dim,
        }
    }

    /// A launch sized so that `grid_dim × block_dim × items_per_thread`
    /// covers `n` elements, capped at `max_grid` blocks (grid-stride
    /// loops handle the remainder, as CUDA kernels do).
    pub fn for_elements(
        n: usize,
        block_dim: usize,
        items_per_thread: usize,
        max_grid: usize,
    ) -> Self {
        let per_block = block_dim * items_per_thread;
        let grid = n.div_ceil(per_block.max(1)).clamp(1, max_grid.max(1));
        LaunchConfig {
            grid_dim: grid,
            block_dim,
        }
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> usize {
        self.grid_dim * self.block_dim
    }

    /// Total warps in the launch.
    pub fn total_warps(&self) -> usize {
        self.grid_dim * self.block_dim.div_ceil(WARP_SIZE)
    }
}

/// Block-scope shared-memory arena.
///
/// Tracks allocation against the device's per-block limit; the backing
/// storage is ordinary host memory (shared-memory *access* is not
/// charged to DRAM traffic, matching real hardware).
pub struct SharedMem {
    capacity: usize,
    used: usize,
}

impl SharedMem {
    /// Arena with the given capacity in bytes.
    pub fn new(capacity: usize) -> Self {
        SharedMem { capacity, used: 0 }
    }

    /// Allocate `len` elements of `T`, zero-initialised.
    ///
    /// Panics if the block's shared-memory budget is exceeded — the
    /// equivalent of a CUDA launch failure. Use
    /// [`SharedMem::try_alloc`] to handle over-subscription instead.
    pub fn alloc<T: Default + Clone>(&mut self, len: usize) -> Vec<T> {
        match self.try_alloc(len) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible allocation: over-capacity returns
    /// [`SimError::SharedMemExceeded`] with the block's usage and the
    /// device capacity instead of panicking.
    pub fn try_alloc<T: Default + Clone>(&mut self, len: usize) -> Result<Vec<T>, SimError> {
        let bytes = len * std::mem::size_of::<T>();
        if self.used + bytes > self.capacity {
            return Err(SimError::SharedMemExceeded {
                used: self.used,
                requested: bytes,
                capacity: self.capacity,
            });
        }
        self.used += bytes;
        Ok(vec![T::default(); len])
    }

    /// Bytes allocated so far.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Per-block execution context handed to kernel closures.
///
/// Holds the block's coordinates, its private traffic meters (merged
/// into the launch's [`KernelStats`] afterwards), and the shared-memory
/// arena.
pub struct BlockCtx<'a> {
    /// Index of this block within the grid.
    pub block_idx: usize,
    /// Number of blocks in the grid.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    pub(crate) stats: KernelStats,
    pub(crate) shared: SharedMem,
    pub(crate) done_counter: &'a AtomicUsize,
    pub(crate) spec: &'a DeviceSpec,
    /// Sanitizer scope of the enclosing launch, if one is armed.
    pub(crate) san: Option<&'a LaunchScope<'a>>,
    /// Launch-global epoch at which this block last passed an
    /// acquire-release grid sync ([`BlockCtx::mark_block_done`]
    /// returning `true`, or any [`BlockCtx::atomic_add_sync`]); 0 =
    /// never. Racecheck suppresses conflicts with accesses recorded
    /// *before* this epoch (they are ordered by the acquire) but still
    /// flags accesses made at or after it — a per-word refinement of
    /// the old whole-block exemption. Over-approximate for blocks that
    /// did not observe the *final* counter value — a documented
    /// suppression, never a false positive.
    pub(crate) sync_epoch: u64,
    /// Number of [`BlockCtx::block_sync`] barriers this block has
    /// passed — the simulator's `__syncthreads` model. Stamped into the
    /// racecheck shadow records so the synccheck analysis can exonerate
    /// barrier-separated same-word writes and flag unseparated ones,
    /// and reported to the launch scope at block completion for
    /// barrier-divergence detection.
    pub(crate) barrier_epoch: u64,
}

impl<'a> BlockCtx<'a> {
    pub(crate) fn new(
        block_idx: usize,
        grid_dim: usize,
        block_dim: usize,
        done_counter: &'a AtomicUsize,
        spec: &'a DeviceSpec,
        san: Option<&'a LaunchScope<'a>>,
    ) -> Self {
        BlockCtx {
            block_idx,
            grid_dim,
            block_dim,
            stats: KernelStats::default(),
            shared: SharedMem::new(spec.shared_mem_per_block),
            done_counter,
            spec,
            san,
            sync_epoch: 0,
            barrier_epoch: 0,
        }
    }

    /// Validate one device access against the armed sanitizer; `false`
    /// means "squash" (out-of-bounds under memcheck). Without an armed
    /// sanitizer, out-of-bounds aborts the launch with a labeled
    /// [`SimError::OutOfBounds`] payload that
    /// [`Gpu::try_launch`](crate::Gpu::try_launch) surfaces as an `Err`.
    #[inline(always)]
    fn guard<T: DeviceScalar>(&self, buf: &DeviceBuffer<T>, idx: usize, kind: AccessKind) -> bool {
        match self.san {
            Some(scope) => scope.check_access(
                buf.shadow(),
                buf.label(),
                buf.len(),
                idx,
                kind,
                self.block_idx,
                self.sync_epoch,
                self.barrier_epoch,
            ),
            None => {
                if idx >= buf.len() {
                    std::panic::panic_any(SimError::OutOfBounds {
                        buffer: buf.label().to_string(),
                        idx,
                        len: buf.len(),
                    });
                }
                true
            }
        }
    }

    /// Zero of `T` for squashed loads.
    #[inline(always)]
    fn squashed<T: DeviceScalar>() -> T {
        T::from_raw(T::Atom::default().load())
    }

    /// Number of warps in this block.
    #[inline]
    pub fn warps(&self) -> usize {
        self.block_dim.div_ceil(WARP_SIZE)
    }

    /// Device spec of the GPU running this kernel.
    #[inline]
    pub fn spec(&self) -> &DeviceSpec {
        self.spec
    }

    // ---- metered global-memory access ------------------------------

    /// Coalesced (streaming) load.
    #[inline(always)]
    pub fn ld<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, idx: usize) -> T {
        self.stats.bytes_read += T::BYTES as u64;
        if !self.guard(buf, idx, AccessKind::Read) {
            return Self::squashed();
        }
        T::from_raw(buf.cell(idx).load())
    }

    /// Coalesced load of the contiguous range `start..end` of `buf`,
    /// equivalent to an element-wise [`BlockCtx::ld`] loop over it but
    /// metered and bounds-checked once per range; an armed sanitizer
    /// still checks every word (see the module docs).
    ///
    /// An empty range (`end <= start`) is an empty tile, wherever it
    /// starts. A range that overruns the buffer aborts the launch with
    /// a labeled [`SimError::OutOfBounds`] naming the first
    /// out-of-range index, as `ld` would.
    #[inline]
    pub fn ld_tile<'b, T: DeviceScalar>(
        &mut self,
        buf: &'b DeviceBuffer<T>,
        start: usize,
        end: usize,
    ) -> Tile<'b, T> {
        if end <= start {
            return Tile {
                cells: &[],
                squashed: 0,
            };
        }
        self.stats.bytes_read += ((end - start) * T::BYTES) as u64;
        if self.san.is_some() {
            return self.ld_tile_sanitized(buf, start, end);
        }
        let cells = buf.cells();
        if end > cells.len() {
            std::panic::panic_any(SimError::OutOfBounds {
                buffer: buf.label().to_string(),
                idx: start.max(cells.len()),
                len: cells.len(),
            });
        }
        Tile {
            cells: &cells[start..end],
            squashed: 0,
        }
    }

    /// [`BlockCtx::ld_tile`] under an armed sanitizer: every word gets
    /// the element-wise load's check, in index order. Only out-of-range
    /// words are squashed, so they form the tile's tail.
    #[inline(never)]
    fn ld_tile_sanitized<'b, T: DeviceScalar>(
        &mut self,
        buf: &'b DeviceBuffer<T>,
        start: usize,
        end: usize,
    ) -> Tile<'b, T> {
        let squashed = (start..end)
            .filter(|&idx| !self.guard(buf, idx, AccessKind::Read))
            .count();
        let cells = buf.cells();
        let hi = end.min(cells.len());
        let cells = &cells[start.min(hi)..hi];
        debug_assert_eq!(cells.len() + squashed, end - start);
        Tile { cells, squashed }
    }

    /// Fallible coalesced load: out-of-bounds returns a labeled
    /// [`SimError::OutOfBounds`] instead of aborting the launch.
    #[inline(always)]
    pub fn try_ld<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: usize,
    ) -> Result<T, SimError> {
        if idx >= buf.len() {
            return Err(SimError::OutOfBounds {
                buffer: buf.label().to_string(),
                idx,
                len: buf.len(),
            });
        }
        Ok(self.ld(buf, idx))
    }

    /// Coalesced (streaming) store.
    #[inline(always)]
    pub fn st<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, idx: usize, v: T) {
        self.stats.bytes_written += T::BYTES as u64;
        if !self.guard(buf, idx, AccessKind::Write) {
            return;
        }
        buf.cell(idx).store(v.to_raw());
    }

    /// Fallible coalesced store: out-of-bounds returns a labeled
    /// [`SimError::OutOfBounds`] instead of aborting the launch.
    #[inline(always)]
    pub fn try_st<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: usize,
        v: T,
    ) -> Result<(), SimError> {
        if idx >= buf.len() {
            return Err(SimError::OutOfBounds {
                buffer: buf.label().to_string(),
                idx,
                len: buf.len(),
            });
        }
        self.st(buf, idx, v);
        Ok(())
    }

    /// Uncoalesced (gather) load: charged a whole transaction sector.
    #[inline(always)]
    pub fn ld_gather<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, idx: usize) -> T {
        self.stats.bytes_scattered += self.spec.transaction_bytes as u64;
        if !self.guard(buf, idx, AccessKind::Read) {
            return Self::squashed();
        }
        T::from_raw(buf.cell(idx).load())
    }

    /// Uncoalesced (scatter) store: charged a whole transaction sector.
    ///
    /// The paper's adaptive strategy (§3.2) notes that candidate-buffer
    /// stores "might be uncoalesced", which is why the buffering
    /// threshold α must exceed its information-theoretic lower bound
    /// of 4 — this accessor is what makes that trade-off visible to the
    /// cost model.
    #[inline(always)]
    pub fn st_scatter<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, idx: usize, v: T) {
        self.stats.bytes_scattered += self.spec.transaction_bytes as u64;
        if !self.guard(buf, idx, AccessKind::Write) {
            return;
        }
        buf.cell(idx).store(v.to_raw());
    }

    /// Global-memory atomic add on an integer buffer; returns the
    /// previous value.
    #[inline(always)]
    pub fn atomic_add<T>(&mut self, buf: &DeviceBuffer<T>, idx: usize, v: T) -> T
    where
        T: DeviceScalar,
        T::Atom: AtomicCell<Raw = T>,
    {
        self.stats.atomic_ops += 1;
        if !self.guard(buf, idx, AccessKind::Atomic) {
            return Self::squashed();
        }
        buf.cell(idx).fetch_add(v)
    }

    /// Acquire-release atomic add, for grid-level coordination through
    /// device memory (per-problem "last block" counters in batched
    /// kernels). The release makes this block's earlier relaxed writes
    /// (e.g. histogram increments) visible to whichever block observes
    /// the final count.
    #[inline(always)]
    pub fn atomic_add_sync<T>(&mut self, buf: &DeviceBuffer<T>, idx: usize, v: T) -> T
    where
        T: DeviceScalar,
        T::Atom: AtomicCell<Raw = T>,
    {
        self.stats.atomic_ops += 1;
        // Acquire side of the grid sync: later accesses by this block
        // are ordered after the releases it observed, so racecheck
        // suppresses conflicts with pre-acquire accesses (see
        // `sync_epoch`).
        if let Some(scope) = self.san {
            self.sync_epoch = scope.advance_epoch();
        }
        if !self.guard(buf, idx, AccessKind::Atomic) {
            return Self::squashed();
        }
        buf.cell(idx).fetch_add_sync(v)
    }

    /// Global-memory atomic min (unsigned raw-bit comparison).
    #[inline(always)]
    pub fn atomic_min_raw<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: usize,
        v: T,
    ) -> T {
        self.stats.atomic_ops += 1;
        if !self.guard(buf, idx, AccessKind::Atomic) {
            return Self::squashed();
        }
        T::from_raw(buf.cell(idx).fetch_min(v.to_raw()))
    }

    /// Global-memory atomic max (unsigned raw-bit comparison).
    #[inline(always)]
    pub fn atomic_max_raw<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: usize,
        v: T,
    ) -> T {
        self.stats.atomic_ops += 1;
        if !self.guard(buf, idx, AccessKind::Atomic) {
            return Self::squashed();
        }
        T::from_raw(buf.cell(idx).fetch_max(v.to_raw()))
    }

    /// Global-memory compare-and-swap; returns `Ok(previous)` when the
    /// swap happened.
    #[inline(always)]
    pub fn atomic_cas<T>(
        &mut self,
        buf: &DeviceBuffer<T>,
        idx: usize,
        current: T,
        new: T,
    ) -> Result<T, T>
    where
        T: DeviceScalar,
        T::Atom: AtomicCell<Raw = T>,
    {
        self.stats.atomic_ops += 1;
        if !self.guard(buf, idx, AccessKind::Atomic) {
            return Err(current);
        }
        buf.cell(idx).compare_exchange(current, new)
    }

    // ---- compute + shared memory -----------------------------------

    /// Charge `n` scalar compute operations to this block.
    #[inline(always)]
    pub fn ops(&mut self, n: u64) {
        self.stats.compute_ops += n;
    }

    /// Allocate block shared memory (`len` elements of `T`). An
    /// over-subscribed block aborts the launch with a
    /// [`SimError::SharedMemExceeded`] payload that
    /// [`Gpu::try_launch`](crate::Gpu::try_launch) surfaces as an
    /// `Err` — the simulator's equivalent of a CUDA launch failure.
    pub fn shared_alloc<T: Default + Clone>(&mut self, len: usize) -> Vec<T> {
        match self.try_shared_alloc(len) {
            Ok(v) => v,
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Fallible shared-memory allocation.
    pub fn try_shared_alloc<T: Default + Clone>(&mut self, len: usize) -> Result<Vec<T>, SimError> {
        let v = self.shared.try_alloc::<T>(len)?;
        // Peak per-block footprint; the pool max-merges across blocks.
        self.stats.shared_mem_bytes = self.shared.used() as u64;
        Ok(v)
    }

    // ---- grid-level coordination ------------------------------------

    /// A block-wide barrier — the simulator's `__syncthreads()`.
    ///
    /// A kernel closure is the whole block's cooperative work run
    /// sequentially, so the barrier has no functional or cost effect
    /// (it touches neither [`KernelStats`] nor the cost model —
    /// annotating a kernel cannot move a digest). What it *does* do is
    /// advance this block's barrier epoch for the sanitizer's synccheck
    /// analysis: same-word writes by one block within a single barrier
    /// interval model distinct racing threads and are flagged, while
    /// writes separated by `block_sync()` are exonerated — and blocks
    /// of one launch that reach mismatched barrier counts are reported
    /// as barrier divergence. Call it exactly where the CUDA original
    /// has `__syncthreads()`.
    #[inline]
    pub fn block_sync(&mut self) {
        self.barrier_epoch += 1;
    }

    /// Barriers passed so far (see [`BlockCtx::block_sync`]).
    #[inline]
    pub fn barrier_count(&self) -> u64 {
        self.barrier_epoch
    }

    /// The "last block" pattern: increments a grid-wide counter and
    /// returns `true` in exactly one block — the one that finished
    /// last. CUDA radix-select implementations use this (an `AcqRel`
    /// atomic on global memory) to let the final block compute the
    /// prefix sum of the histogram the whole grid just built, which is
    /// the trick that makes AIR Top-K's iteration-fused kernel possible
    /// (§3.1).
    ///
    /// Must be called at most once per block, after the block's global
    /// writes.
    pub fn mark_block_done(&mut self) -> bool {
        self.stats.atomic_ops += 1;
        let prev = self.done_counter.fetch_add(1, Ordering::AcqRel);
        let last = prev + 1 == self.grid_dim;
        if last {
            // The last block's subsequent reads are ordered after every
            // other block's release: suppress racecheck conflicts with
            // everything recorded before this acquire.
            if let Some(scope) = self.san {
                self.sync_epoch = scope.advance_epoch();
            }
        }
        last
    }
}

/// One coalesced read of a contiguous device range, from
/// [`BlockCtx::ld_tile`]. It borrows the buffer's cells and loads each
/// element (relaxed) as it is read, so it copies nothing.
pub struct Tile<'a, T: DeviceScalar> {
    /// The in-bounds words of the range.
    cells: &'a [T::Atom],
    /// Trailing words a memcheck sanitizer squashed; they read zero.
    squashed: usize,
}

// Manual impls: a derive would demand `T::Atom: Copy`.
impl<T: DeviceScalar> Clone for Tile<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: DeviceScalar> Copy for Tile<'_, T> {}

impl<'a, T: DeviceScalar> Tile<'a, T> {
    /// Number of elements in the range.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len() + self.squashed
    }

    /// True for an empty range.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The elements in index order.
    #[inline]
    pub fn iter(&self) -> TileIter<'a, T> {
        TileIter {
            cells: self.cells.iter(),
            squashed: self.squashed,
        }
    }
}

impl<'a, T: DeviceScalar> IntoIterator for Tile<'a, T> {
    type Item = T;
    type IntoIter = TileIter<'a, T>;

    #[inline]
    fn into_iter(self) -> TileIter<'a, T> {
        self.iter()
    }
}

/// Iterator over a [`Tile`]'s elements.
pub struct TileIter<'a, T: DeviceScalar> {
    cells: std::slice::Iter<'a, T::Atom>,
    squashed: usize,
}

impl<T: DeviceScalar> Iterator for TileIter<'_, T> {
    type Item = T;

    #[inline(always)]
    fn next(&mut self) -> Option<T> {
        match self.cells.next() {
            Some(c) => Some(T::from_raw(c.load())),
            None if self.squashed > 0 => {
                self.squashed -= 1;
                Some(BlockCtx::squashed())
            }
            None => None,
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cells.len() + self.squashed;
        (n, Some(n))
    }
}

/// Validate a launch configuration against device limits.
pub fn validate_launch(spec: &DeviceSpec, cfg: &LaunchConfig) -> Result<(), crate::SimError> {
    if cfg.grid_dim == 0 || cfg.block_dim == 0 {
        return Err(crate::SimError::InvalidLaunch(format!(
            "zero-sized launch {}x{}",
            cfg.grid_dim, cfg.block_dim
        )));
    }
    if cfg.block_dim > spec.max_threads_per_block {
        return Err(crate::SimError::InvalidLaunch(format!(
            "block_dim {} exceeds device limit {}",
            cfg.block_dim, spec.max_threads_per_block
        )));
    }
    if !cfg.block_dim.is_multiple_of(WARP_SIZE) {
        return Err(crate::SimError::InvalidLaunch(format!(
            "block_dim {} is not a multiple of the warp size",
            cfg.block_dim
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    #[test]
    fn launch_config_for_elements() {
        let c = LaunchConfig::for_elements(10_000, 256, 4, 1 << 20);
        assert_eq!(c.block_dim, 256);
        assert_eq!(c.grid_dim, 10_000usize.div_ceil(1024));
        // Capped.
        let c = LaunchConfig::for_elements(1 << 30, 256, 1, 432);
        assert_eq!(c.grid_dim, 432);
        // Tiny n still launches one block.
        let c = LaunchConfig::for_elements(1, 128, 8, 100);
        assert_eq!(c.grid_dim, 1);
        assert_eq!(c.total_threads(), 128);
        assert_eq!(c.total_warps(), 4);
    }

    #[test]
    fn shared_mem_budget_enforced() {
        let mut sm = SharedMem::new(1024);
        let a: Vec<u32> = sm.alloc(128); // 512 bytes
        assert_eq!(a.len(), 128);
        assert_eq!(sm.used(), 512);
        let _b: Vec<u8> = sm.alloc(512);
        assert_eq!(sm.used(), 1024);
    }

    #[test]
    #[should_panic(expected = "shared memory overflow")]
    fn shared_mem_overflow_panics() {
        let mut sm = SharedMem::new(16);
        let _: Vec<u64> = sm.alloc(3);
    }

    #[test]
    fn shared_mem_try_alloc_reports_usage() {
        let mut sm = SharedMem::new(16);
        let _: Vec<u64> = sm.try_alloc(2).unwrap();
        let err = sm.try_alloc::<u64>(3).unwrap_err();
        assert_eq!(
            err,
            SimError::SharedMemExceeded {
                used: 16,
                requested: 24,
                capacity: 16,
            }
        );
        assert_eq!(sm.used(), 16, "failed alloc must not charge the arena");
    }

    #[test]
    fn try_ld_st_label_out_of_bounds() {
        let spec = DeviceSpec::a100();
        let done = AtomicUsize::new(0);
        let mut ctx = BlockCtx::new(0, 1, 32, &done, &spec, None);
        let buf = DeviceBuffer::<u32>::zeroed("small", 4);
        assert_eq!(ctx.try_ld(&buf, 3), Ok(0));
        let err = ctx.try_ld(&buf, 4).unwrap_err();
        assert_eq!(
            err,
            SimError::OutOfBounds {
                buffer: "small".into(),
                idx: 4,
                len: 4,
            }
        );
        assert!(ctx.try_st(&buf, 9, 1).is_err());
        assert!(ctx.try_st(&buf, 0, 7).is_ok());
        assert_eq!(buf.get(0), 7);
    }

    #[test]
    fn validate_launch_limits() {
        let spec = DeviceSpec::test_tiny();
        assert!(validate_launch(&spec, &LaunchConfig::grid_1d(1, 256)).is_ok());
        assert!(validate_launch(&spec, &LaunchConfig::grid_1d(0, 256)).is_err());
        assert!(validate_launch(&spec, &LaunchConfig::grid_1d(1, 512)).is_err());
        assert!(validate_launch(&spec, &LaunchConfig::grid_1d(1, 100)).is_err());
    }

    #[test]
    fn block_ctx_meters_traffic() {
        let spec = DeviceSpec::a100();
        let done = AtomicUsize::new(0);
        let mut ctx = BlockCtx::new(0, 1, 256, &done, &spec, None);
        let buf = DeviceBuffer::from_slice("b", &[1.0f32, 2.0, 3.0]);
        assert_eq!(ctx.ld(&buf, 1), 2.0);
        ctx.st(&buf, 0, 9.0);
        assert_eq!(buf.get(0), 9.0);
        let _ = ctx.ld_gather(&buf, 2);
        ctx.st_scatter(&buf, 2, 0.0);
        ctx.ops(10);
        assert_eq!(ctx.stats.bytes_read, 4);
        assert_eq!(ctx.stats.bytes_written, 4);
        assert_eq!(ctx.stats.bytes_scattered, 64);
        assert_eq!(ctx.stats.compute_ops, 10);
    }

    #[test]
    fn ld_tile_meters_and_reads_like_the_ld_loop() {
        fn check<T: DeviceScalar + PartialEq>(data: &[T]) {
            let spec = DeviceSpec::a100();
            let done = AtomicUsize::new(0);
            let buf = DeviceBuffer::from_slice("t", data);
            let n = data.len();
            for (start, end) in [(0, n), (1, n - 1), (3, 4), (n - 1, n), (2, 2)] {
                let mut by_ld = BlockCtx::new(0, 1, 32, &done, &spec, None);
                let want: Vec<T> = (start..end).map(|i| by_ld.ld(&buf, i)).collect();
                let mut by_tile = BlockCtx::new(0, 1, 32, &done, &spec, None);
                let tile = by_tile.ld_tile(&buf, start, end);
                assert_eq!(tile.len(), end - start);
                assert_eq!(tile.iter().size_hint(), (want.len(), Some(want.len())));
                assert_eq!(tile.iter().collect::<Vec<T>>(), want);
                assert_eq!(by_tile.stats, by_ld.stats, "range {start}..{end}");
            }
        }
        check(&[1.5f32, -2.0, 3.25, 0.0, 7.0, -0.0]);
        check(&[u64::MAX, 1, 2, 3, 4]);
        check(&[-1i32, 5, -9, 12]);
    }

    #[test]
    fn ld_tile_reads_the_cells_when_iterated() {
        let spec = DeviceSpec::a100();
        let done = AtomicUsize::new(0);
        let mut ctx = BlockCtx::new(0, 1, 32, &done, &spec, None);
        let buf = DeviceBuffer::from_slice("live", &[1u32, 2, 3]);
        let tile = ctx.ld_tile(&buf, 0, 3);
        buf.set(1, 20);
        assert_eq!(tile.into_iter().collect::<Vec<_>>(), [1, 20, 3]);
    }

    #[test]
    fn empty_tile_past_the_end_is_a_no_op() {
        let spec = DeviceSpec::a100();
        let done = AtomicUsize::new(0);
        let mut ctx = BlockCtx::new(0, 1, 32, &done, &spec, None);
        let buf = DeviceBuffer::<u32>::zeroed("short", 4);
        for (start, end) in [(4, 4), (10, 10), (10, 4), (9, 0)] {
            let tile = ctx.ld_tile(&buf, start, end);
            assert!(tile.is_empty(), "{start}..{end}");
            assert_eq!(tile.iter().next(), None);
        }
        assert_eq!(ctx.stats, KernelStats::default(), "nothing metered");
    }

    #[test]
    fn ld_tile_overrun_is_a_labeled_launch_error() {
        let mut gpu = crate::Gpu::with_pool(DeviceSpec::a100(), crate::BlockPool::new(1));
        let buf = gpu.alloc::<u32>("short", 4);
        for (start, first_bad) in [(2, 4), (6, 6)] {
            let b = buf.clone();
            let err = gpu
                .try_launch("overrun", LaunchConfig::grid_1d(1, 32), move |ctx| {
                    let _ = ctx.ld_tile(&b, start, 9);
                })
                .unwrap_err();
            assert_eq!(
                err,
                SimError::OutOfBounds {
                    buffer: "short".into(),
                    idx: first_bad,
                    len: 4,
                }
            );
        }
    }

    #[test]
    fn atomic_accessors() {
        let spec = DeviceSpec::a100();
        let done = AtomicUsize::new(0);
        let mut ctx = BlockCtx::new(0, 1, 32, &done, &spec, None);
        let buf = DeviceBuffer::<u32>::zeroed("a", 2);
        assert_eq!(ctx.atomic_add(&buf, 0, 5), 0);
        assert_eq!(ctx.atomic_add(&buf, 0, 3), 5);
        assert_eq!(buf.get(0), 8);
        buf.set(1, 100);
        ctx.atomic_min_raw(&buf, 1, 42);
        assert_eq!(buf.get(1), 42);
        ctx.atomic_max_raw(&buf, 1, 77);
        assert_eq!(buf.get(1), 77);
        assert_eq!(ctx.atomic_cas(&buf, 1, 77, 1), Ok(77));
        assert_eq!(ctx.atomic_cas(&buf, 1, 77, 2), Err(1));
        assert_eq!(ctx.stats.atomic_ops, 6);
    }

    #[test]
    fn last_block_fires_exactly_once() {
        let spec = DeviceSpec::a100();
        let done = AtomicUsize::new(0);
        let grid = 7;
        let mut fired = 0;
        for b in 0..grid {
            let mut ctx = BlockCtx::new(b, grid, 32, &done, &spec, None);
            if ctx.mark_block_done() {
                fired += 1;
                assert_eq!(b, grid - 1, "sequential order: last index finishes last");
            }
        }
        assert_eq!(fired, 1);
    }
}
