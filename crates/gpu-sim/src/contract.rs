//! Kernel access contracts: static launch verification.
//!
//! A [`KernelContract`] declares, for every buffer a kernel touches,
//! *how* it is touched (read / write / atomic) and *where* — an index
//! footprint that is affine in the block id ([`Footprint`]). Before a
//! contracted launch runs
//! ([`Gpu::launch_checked`](crate::Gpu::launch_checked)), the contract
//! is verified against the concrete launch shape, the buffer lengths it
//! captured, and the [`DeviceSpec`] limits:
//!
//! * **footprint bounds** — the highest index any block may touch,
//!   evaluated at the launch's `grid_dim`, must fall inside the buffer.
//!   A static out-of-bounds detector that costs microseconds and never
//!   executes the kernel.
//! * **cross-block write overlap** — a plain `.writes(..)` entry claims
//!   *exclusive* per-block ownership, so its footprint must be provably
//!   disjoint across blocks (e.g. a [`Footprint::block_slice`] whose
//!   slice length does not exceed its stride). Two blocks that could
//!   write the same word is a race reported before anything runs.
//!   Writes that are *dynamically* coordinated (atomic cursor
//!   reservations, "last block" publishes) are declared
//!   `.writes_shared(..)` instead: bounds-checked statically,
//!   race-checked dynamically.
//! * **launch shape and shared memory** — optional grid/block-dim
//!   requirements and a declared per-block shared-memory budget checked
//!   against the device's limit.
//!
//! Contracts are *values built at the launch site* from the live
//! buffers (label and length are captured from the `&DeviceBuffer`), so
//! every field is concrete — no symbolic algebra is needed, just
//! interval arithmetic in the grid dimension.
//!
//! To keep contracts from rotting, an armed sanitizer
//! ([`SanitizerMode::armed`](crate::SanitizerMode::armed)) checks
//! *conformance*: every observed access must fall inside some declared
//! entry of the active contract, and accesses to undeclared buffers are
//! findings. `topk-bench sanitize` and `verify` sweep all algorithms
//! with it armed.

use crate::device::DeviceSpec;
use crate::exec::LaunchConfig;
use crate::memory::{DeviceBuffer, DeviceScalar};
use crate::sanitizer::AccessKind;
use std::fmt;

/// Where in a buffer a kernel's blocks may touch, as a function of the
/// block id. All variants are affine in the block id, which is what
/// makes overlap and bounds checks closed-form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// Any block may touch any in-bounds index. The honest default for
    /// data-dependent gathers; carries no static claim beyond the
    /// buffer's own bounds.
    All,
    /// Every block touches the same fixed range `[start, start+len)`.
    Fixed { start: usize, len: usize },
    /// Block `b` touches `[base + stride*b, base + stride*b + len_each)`
    /// — the per-block tile pattern. Disjoint across blocks whenever
    /// `len_each <= stride`.
    BlockSlice {
        base: usize,
        stride: usize,
        len_each: usize,
    },
    /// Blocks are grouped `blocks_per_group` at a time (a batched grid
    /// of `batch × blocks_per_problem`); group `g = b / blocks_per_group`
    /// touches `[base + stride*g, base + stride*g + len_each)`. The
    /// per-problem slice pattern of batched kernels.
    GroupSlice {
        blocks_per_group: usize,
        base: usize,
        stride: usize,
        len_each: usize,
    },
    /// Contiguous tiles clamped to the buffer: block `b` owns
    /// `[stride*b, stride*(b+1))` intersected with the buffer bounds —
    /// the `for_elements` pattern where the last block's tile is cut
    /// short. Cross-block disjoint by construction; carries no OOB
    /// claim (the explicit clamp *is* the bound).
    Tiles { stride: usize },
    /// Round-robin chunk ownership: block `b` touches index `i` iff
    /// `(i / chunk) % grid_dim == b`. Disjoint across blocks by
    /// construction, at every grid size.
    Interleaved { chunk: usize },
}

impl Footprint {
    /// Whole-buffer footprint (no static claim).
    pub fn all() -> Self {
        Footprint::All
    }

    /// Fixed range `[start, start+len)` touched by any block.
    pub fn fixed(start: usize, len: usize) -> Self {
        Footprint::Fixed { start, len }
    }

    /// A single element, touched by any block.
    pub fn elem(idx: usize) -> Self {
        Footprint::Fixed { start: idx, len: 1 }
    }

    /// Per-block tile starting at `base`: block `b` owns
    /// `[base + stride*b, +len_each)`.
    pub fn block_slice(base: usize, stride: usize, len_each: usize) -> Self {
        Footprint::BlockSlice {
            base,
            stride,
            len_each,
        }
    }

    /// Per-block tile from offset 0 with `len_each == stride`.
    pub fn per_block(stride: usize) -> Self {
        Footprint::BlockSlice {
            base: 0,
            stride,
            len_each: stride,
        }
    }

    /// Per-group slice: group `b / blocks_per_group` owns
    /// `[base + stride*g, +len_each)`.
    pub fn group_slice(
        blocks_per_group: usize,
        base: usize,
        stride: usize,
        len_each: usize,
    ) -> Self {
        Footprint::GroupSlice {
            blocks_per_group,
            base,
            stride,
            len_each,
        }
    }

    /// Per-group slice from offset 0 with `len_each == stride` — the
    /// common "problem `p` owns `[p*stride, +stride)`" shape of batched
    /// kernels.
    pub fn per_group(blocks_per_group: usize, stride: usize) -> Self {
        Footprint::GroupSlice {
            blocks_per_group,
            base: 0,
            stride,
            len_each: stride,
        }
    }

    /// Clamped contiguous tiles: block `b` owns `[stride*b, stride*(b+1))`
    /// cut off at the buffer's end.
    pub fn tiles(stride: usize) -> Self {
        Footprint::Tiles {
            stride: stride.max(1),
        }
    }

    /// Round-robin ownership of `chunk`-element runs.
    pub fn interleaved(chunk: usize) -> Self {
        Footprint::Interleaved {
            chunk: chunk.max(1),
        }
    }

    /// Highest index any block of a `grid`-block launch may touch, or
    /// `None` when the footprint makes no claim tighter than the buffer
    /// bounds ([`Footprint::All`], [`Footprint::Interleaved`], empty
    /// ranges).
    pub fn max_index(&self, grid: usize) -> Option<usize> {
        match *self {
            Footprint::All | Footprint::Tiles { .. } | Footprint::Interleaved { .. } => None,
            Footprint::Fixed { start, len } => len.checked_sub(1).map(|l| start + l),
            Footprint::BlockSlice {
                base,
                stride,
                len_each,
            } => len_each
                .checked_sub(1)
                .map(|l| base + stride * grid.saturating_sub(1) + l),
            Footprint::GroupSlice {
                blocks_per_group,
                base,
                stride,
                len_each,
            } => {
                let groups = grid.div_ceil(blocks_per_group.max(1));
                len_each
                    .checked_sub(1)
                    .map(|l| base + stride * groups.saturating_sub(1) + l)
            }
        }
    }

    /// Lowest index any block may touch.
    fn min_index(&self) -> usize {
        match *self {
            Footprint::All | Footprint::Tiles { .. } | Footprint::Interleaved { .. } => 0,
            Footprint::Fixed { start, .. } => start,
            Footprint::BlockSlice { base, .. } | Footprint::GroupSlice { base, .. } => base,
        }
    }

    /// True when no two *distinct* blocks of a `grid`-block launch can
    /// touch the same index.
    pub fn cross_block_disjoint(&self, grid: usize) -> bool {
        if grid <= 1 {
            return true;
        }
        match *self {
            Footprint::All => false,
            Footprint::Fixed { len, .. } => len == 0,
            Footprint::BlockSlice {
                stride, len_each, ..
            } => len_each == 0 || len_each <= stride,
            Footprint::GroupSlice {
                blocks_per_group,
                stride,
                len_each,
                ..
            } => len_each == 0 || (blocks_per_group <= 1 && len_each <= stride),
            Footprint::Tiles { .. } | Footprint::Interleaved { .. } => true,
        }
    }

    /// Does the footprint admit block `block` touching index `idx` in a
    /// `grid`-block launch? The dynamic conformance predicate.
    pub fn admits(&self, idx: usize, block: usize, grid: usize) -> bool {
        match *self {
            Footprint::All => true,
            Footprint::Fixed { start, len } => idx >= start && idx < start + len,
            Footprint::BlockSlice {
                base,
                stride,
                len_each,
            } => {
                let lo = base + stride * block;
                idx >= lo && idx < lo + len_each
            }
            Footprint::GroupSlice {
                blocks_per_group,
                base,
                stride,
                len_each,
            } => {
                let g = block / blocks_per_group.max(1);
                let lo = base + stride * g;
                idx >= lo && idx < lo + len_each
            }
            Footprint::Tiles { stride } => {
                let s = stride.max(1);
                idx >= s * block && idx < s * (block + 1)
            }
            Footprint::Interleaved { chunk } => grid > 0 && (idx / chunk.max(1)) % grid == block,
        }
    }
}

impl fmt::Display for Footprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Footprint::All => write!(f, "all"),
            Footprint::Fixed { start, len } => write!(f, "[{start}, {})", start + len),
            Footprint::BlockSlice {
                base,
                stride,
                len_each,
            } => write!(f, "[{base} + {stride}*b, +{len_each})"),
            Footprint::GroupSlice {
                blocks_per_group,
                base,
                stride,
                len_each,
            } => write!(f, "[{base} + {stride}*(b/{blocks_per_group}), +{len_each})"),
            Footprint::Tiles { stride } => write!(f, "tiles({stride})"),
            Footprint::Interleaved { chunk } => write!(f, "interleaved({chunk})"),
        }
    }
}

/// One declared buffer access: which buffer (by captured label and
/// length), which access kinds, whether cross-block write overlap is
/// dynamically coordinated (`shared`), and the index footprint.
#[derive(Debug, Clone)]
pub struct BufferAccess {
    label: String,
    len: usize,
    reads: bool,
    writes: bool,
    atomics: bool,
    /// Writes may overlap across blocks (atomic cursor reservation,
    /// last-block publish): skip the static disjointness requirement
    /// and leave overlap to the dynamic racecheck.
    shared: bool,
    footprint: Footprint,
}

impl BufferAccess {
    /// The captured buffer label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The captured buffer length (elements).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length buffer.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The declared footprint.
    pub fn footprint(&self) -> Footprint {
        self.footprint
    }

    fn admits_kind(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.reads,
            AccessKind::Write => self.writes,
            AccessKind::Atomic => self.atomics,
        }
    }

    fn kinds_label(&self) -> String {
        let mut parts = Vec::new();
        if self.reads {
            parts.push("read");
        }
        if self.writes {
            parts.push(if self.shared {
                "write(shared)"
            } else {
                "write"
            });
        }
        if self.atomics {
            parts.push("atomic");
        }
        parts.join("+")
    }
}

/// One problem the static verifier found with a contracted launch.
#[derive(Debug, Clone)]
pub struct ContractIssue {
    /// Buffer the issue concerns (`"<launch>"` for shape/shared-mem
    /// issues).
    pub buffer: String,
    /// Human explanation.
    pub detail: String,
}

impl fmt::Display for ContractIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.buffer, self.detail)
    }
}

/// A kernel's declared access behaviour, verified statically before
/// launch and (optionally) enforced dynamically by the sanitizer's
/// conformance mode. Built at the launch site from the live buffers;
/// see the [module docs](self).
#[derive(Debug, Clone)]
pub struct KernelContract {
    name: String,
    accesses: Vec<BufferAccess>,
    shared_mem_bytes: usize,
    max_grid: Option<usize>,
    exact_block_dim: Option<usize>,
}

impl KernelContract {
    /// Empty contract for kernel `name`.
    pub fn new(name: impl Into<String>) -> Self {
        KernelContract {
            name: name.into(),
            accesses: Vec::new(),
            shared_mem_bytes: 0,
            max_grid: None,
            exact_block_dim: None,
        }
    }

    /// The kernel name (used as the launch name by
    /// [`Gpu::launch_checked`](crate::Gpu::launch_checked)).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared accesses.
    pub fn accesses(&self) -> &[BufferAccess] {
        &self.accesses
    }

    fn push<T: DeviceScalar>(
        mut self,
        buf: &DeviceBuffer<T>,
        reads: bool,
        writes: bool,
        atomics: bool,
        shared: bool,
        footprint: Footprint,
    ) -> Self {
        self.accesses.push(BufferAccess {
            label: buf.label().to_string(),
            len: buf.len(),
            reads,
            writes,
            atomics,
            shared,
            footprint,
        });
        self
    }

    /// Declare non-atomic reads of `buf` within `fp`.
    pub fn reads<T: DeviceScalar>(self, buf: &DeviceBuffer<T>, fp: Footprint) -> Self {
        self.push(buf, true, false, false, false, fp)
    }

    /// Declare exclusive per-block writes of `buf` within `fp`: the
    /// footprint must be cross-block disjoint at the launch's grid size
    /// or the static verifier reports a write-overlap race.
    pub fn writes<T: DeviceScalar>(self, buf: &DeviceBuffer<T>, fp: Footprint) -> Self {
        self.push(buf, false, true, false, false, fp)
    }

    /// Declare dynamically-coordinated writes of `buf` within `fp`
    /// (atomic cursor reservations, last-block publishes): bounds are
    /// still checked statically, overlap is left to the dynamic
    /// racecheck.
    pub fn writes_shared<T: DeviceScalar>(self, buf: &DeviceBuffer<T>, fp: Footprint) -> Self {
        self.push(buf, false, true, false, true, fp)
    }

    /// Declare exclusive per-block reads *and* writes within `fp`.
    pub fn reads_writes<T: DeviceScalar>(self, buf: &DeviceBuffer<T>, fp: Footprint) -> Self {
        self.push(buf, true, true, false, false, fp)
    }

    /// Declare reads plus dynamically-coordinated writes within `fp`.
    pub fn reads_writes_shared<T: DeviceScalar>(
        self,
        buf: &DeviceBuffer<T>,
        fp: Footprint,
    ) -> Self {
        self.push(buf, true, true, false, true, fp)
    }

    /// Declare atomic read-modify-writes within `fp` (atomics never
    /// race with each other, so no disjointness is required).
    pub fn atomics<T: DeviceScalar>(self, buf: &DeviceBuffer<T>, fp: Footprint) -> Self {
        self.push(buf, false, false, true, false, fp)
    }

    /// Declare a grid-coordination buffer: reads, shared writes *and*
    /// atomics within `fp`. The shape of control blocks, histograms and
    /// done-counters in batched kernels.
    pub fn coordinates<T: DeviceScalar>(self, buf: &DeviceBuffer<T>, fp: Footprint) -> Self {
        self.push(buf, true, true, true, true, fp)
    }

    /// Declare the kernel's peak per-block shared-memory footprint,
    /// checked against
    /// [`DeviceSpec::shared_mem_per_block`](crate::DeviceSpec).
    pub fn uses_shared_mem(mut self, bytes: usize) -> Self {
        self.shared_mem_bytes = bytes;
        self
    }

    /// Require `grid_dim <= n` at launch.
    pub fn requires_grid_at_most(mut self, n: usize) -> Self {
        self.max_grid = Some(n);
        self
    }

    /// Require an exact `block_dim` at launch.
    pub fn requires_block_dim(mut self, n: usize) -> Self {
        self.exact_block_dim = Some(n);
        self
    }

    /// Statically verify this contract against a concrete launch shape
    /// and device. Pure interval arithmetic — the kernel never runs.
    pub fn verify(&self, spec: &DeviceSpec, cfg: &LaunchConfig) -> Vec<ContractIssue> {
        let grid = cfg.grid_dim;
        let mut issues = Vec::new();

        if let Some(max) = self.max_grid {
            if grid > max {
                issues.push(ContractIssue {
                    buffer: "<launch>".into(),
                    detail: format!("grid_dim {grid} exceeds the contract's limit of {max}"),
                });
            }
        }
        if let Some(bd) = self.exact_block_dim {
            if cfg.block_dim != bd {
                issues.push(ContractIssue {
                    buffer: "<launch>".into(),
                    detail: format!("block_dim {} but the contract requires {bd}", cfg.block_dim),
                });
            }
        }
        if self.shared_mem_bytes > spec.shared_mem_per_block {
            issues.push(ContractIssue {
                buffer: "<launch>".into(),
                detail: format!(
                    "declared shared-memory footprint {} exceeds the device's {} bytes per block",
                    self.shared_mem_bytes, spec.shared_mem_per_block
                ),
            });
        }

        for a in &self.accesses {
            if let Some(mx) = a.footprint.max_index(grid) {
                if mx >= a.len {
                    issues.push(ContractIssue {
                        buffer: a.label.clone(),
                        detail: format!(
                            "footprint {} reaches index {mx} at grid_dim {grid}, outside \
                             length {}",
                            a.footprint, a.len
                        ),
                    });
                }
            }
            if a.writes && !a.shared && !a.footprint.cross_block_disjoint(grid) {
                issues.push(ContractIssue {
                    buffer: a.label.clone(),
                    detail: format!(
                        "exclusive write footprint {} is not cross-block disjoint at \
                         grid_dim {grid}: two blocks could write the same word \
                         (declare writes_shared if the overlap is coordinated)",
                        a.footprint
                    ),
                });
            }
        }

        // Pairwise: two *distinct* exclusive-write entries on the same
        // buffer whose overall index ranges can intersect — different
        // blocks could take different entries onto the same word.
        if grid > 1 {
            for (i, a) in self.accesses.iter().enumerate() {
                if !a.writes || a.shared {
                    continue;
                }
                for b in self.accesses.iter().skip(i + 1) {
                    if !b.writes || b.shared || a.label != b.label {
                        continue;
                    }
                    let (alo, ahi) = (
                        a.footprint.min_index(),
                        a.footprint
                            .max_index(grid)
                            .unwrap_or(a.len.saturating_sub(1)),
                    );
                    let (blo, bhi) = (
                        b.footprint.min_index(),
                        b.footprint
                            .max_index(grid)
                            .unwrap_or(b.len.saturating_sub(1)),
                    );
                    if alo <= bhi && blo <= ahi {
                        issues.push(ContractIssue {
                            buffer: a.label.clone(),
                            detail: format!(
                                "two exclusive write footprints ({} and {}) on the same \
                                 buffer can overlap across blocks",
                                a.footprint, b.footprint
                            ),
                        });
                    }
                }
            }
        }

        issues
    }

    /// Dynamic conformance: is an observed access admitted by some
    /// declared entry? Returns the violation detail when it is not.
    /// Used by an armed sanitizer.
    pub(crate) fn conformance_violation(
        &self,
        label: &str,
        idx: usize,
        kind: AccessKind,
        block: usize,
        grid: usize,
    ) -> Option<String> {
        let mut saw_buffer = false;
        let mut kinds = Vec::new();
        for a in &self.accesses {
            if a.label != label {
                continue;
            }
            saw_buffer = true;
            if a.admits_kind(kind) && a.footprint.admits(idx, block, grid) {
                return None;
            }
            kinds.push(format!("{} {}", a.kinds_label(), a.footprint));
        }
        if !saw_buffer {
            return Some("buffer is not declared in the kernel's contract".to_string());
        }
        Some(format!(
            "observed {} of index {idx} by block {block} falls outside every declared \
             entry ({})",
            kind.label(),
            kinds.join("; ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::memory::DeviceBuffer;

    fn buf(label: &str, len: usize) -> DeviceBuffer<u32> {
        DeviceBuffer::zeroed(label, len)
    }

    #[test]
    fn footprint_bounds() {
        assert_eq!(Footprint::all().max_index(16), None);
        assert_eq!(Footprint::fixed(4, 4).max_index(16), Some(7));
        assert_eq!(Footprint::fixed(4, 0).max_index(16), None);
        assert_eq!(Footprint::per_block(64).max_index(4), Some(255));
        assert_eq!(Footprint::block_slice(8, 16, 4).max_index(2), Some(27));
        // 6 blocks, 2 per group -> 3 groups, stride 10, len 10.
        assert_eq!(Footprint::per_group(2, 10).max_index(6), Some(29));
        assert_eq!(Footprint::interleaved(8).max_index(100), None);
    }

    #[test]
    fn footprint_disjointness() {
        // Everything is disjoint on a one-block grid.
        assert!(Footprint::all().cross_block_disjoint(1));
        assert!(!Footprint::all().cross_block_disjoint(2));
        assert!(!Footprint::fixed(0, 4).cross_block_disjoint(2));
        assert!(Footprint::per_block(64).cross_block_disjoint(64));
        assert!(!Footprint::block_slice(0, 4, 8).cross_block_disjoint(2));
        assert!(Footprint::interleaved(4).cross_block_disjoint(1000));
        // Grouped slices are shared within the group.
        assert!(!Footprint::per_group(4, 64).cross_block_disjoint(8));
        assert!(Footprint::per_group(1, 64).cross_block_disjoint(8));
    }

    #[test]
    fn footprint_admits() {
        assert!(Footprint::all().admits(123, 0, 4));
        assert!(Footprint::fixed(4, 4).admits(7, 3, 4));
        assert!(!Footprint::fixed(4, 4).admits(8, 3, 4));
        let fp = Footprint::per_block(64);
        assert!(fp.admits(64, 1, 4));
        assert!(!fp.admits(64, 0, 4));
        let fp = Footprint::per_group(2, 100);
        assert!(fp.admits(105, 2, 8), "block 2 is group 1");
        assert!(fp.admits(105, 3, 8), "block 3 shares group 1");
        assert!(!fp.admits(105, 4, 8), "block 4 is group 2");
        let fp = Footprint::interleaved(4);
        assert!(fp.admits(0, 0, 2) && fp.admits(4, 1, 2) && fp.admits(8, 0, 2));
        assert!(!fp.admits(4, 0, 2));
    }

    #[test]
    fn tiles_are_disjoint_clamped_and_make_no_oob_claim() {
        let fp = Footprint::tiles(256);
        assert_eq!(fp.max_index(100), None, "the clamp is the bound");
        assert!(fp.cross_block_disjoint(100));
        assert!(fp.admits(255, 0, 2) && fp.admits(256, 1, 2));
        assert!(!fp.admits(256, 0, 2) && !fp.admits(255, 1, 2));
        // A short last tile is admitted: the footprint claims up to
        // stride, the kernel's explicit clamp writes less.
        let spec = DeviceSpec::test_tiny();
        let b = buf("out", 300);
        let c = KernelContract::new("k").writes(&b, Footprint::tiles(256));
        assert!(c.verify(&spec, &LaunchConfig::grid_1d(2, 32)).is_empty());
    }

    #[test]
    fn verify_flags_oob_footprint() {
        let spec = DeviceSpec::test_tiny();
        let b = buf("out", 8);
        let c = KernelContract::new("k").writes(&b, Footprint::per_block(8));
        assert!(c.verify(&spec, &LaunchConfig::grid_1d(1, 32)).is_empty());
        let issues = c.verify(&spec, &LaunchConfig::grid_1d(2, 32));
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].buffer, "out");
        assert!(issues[0].detail.contains("outside"), "{}", issues[0].detail);
    }

    #[test]
    fn verify_flags_overlapping_exclusive_writes() {
        let spec = DeviceSpec::test_tiny();
        let b = buf("out", 64);
        let c = KernelContract::new("k").writes(&b, Footprint::all());
        assert!(c.verify(&spec, &LaunchConfig::grid_1d(1, 32)).is_empty());
        let issues = c.verify(&spec, &LaunchConfig::grid_1d(4, 32));
        assert_eq!(issues.len(), 1);
        assert!(issues[0].detail.contains("not cross-block disjoint"));
        // The same footprint declared shared is fine.
        let c = KernelContract::new("k").writes_shared(&b, Footprint::all());
        assert!(c.verify(&spec, &LaunchConfig::grid_1d(4, 32)).is_empty());
    }

    #[test]
    fn verify_flags_pairwise_entry_overlap() {
        let spec = DeviceSpec::test_tiny();
        let b = buf("out", 64);
        let c = KernelContract::new("k")
            .writes(&b, Footprint::block_slice(0, 8, 8))
            .writes(&b, Footprint::fixed(4, 2));
        let issues = c.verify(&spec, &LaunchConfig::grid_1d(2, 32));
        // Fixed(4,2) overlaps across blocks on its own, plus the pair.
        assert!(issues
            .iter()
            .any(|i| i.detail.contains("two exclusive write footprints")));
    }

    #[test]
    fn verify_checks_shape_and_shared_mem() {
        let spec = DeviceSpec::test_tiny();
        let c = KernelContract::new("k")
            .requires_grid_at_most(4)
            .requires_block_dim(64)
            .uses_shared_mem(spec.shared_mem_per_block + 1);
        let issues = c.verify(&spec, &LaunchConfig::grid_1d(8, 32));
        assert_eq!(issues.len(), 3);
        assert!(issues.iter().all(|i| i.buffer == "<launch>"));
        let c = KernelContract::new("k")
            .requires_grid_at_most(8)
            .requires_block_dim(32)
            .uses_shared_mem(16);
        assert!(c.verify(&spec, &LaunchConfig::grid_1d(8, 32)).is_empty());
    }

    #[test]
    fn conformance_admits_declared_and_flags_undeclared() {
        let vals = buf("vals", 64);
        let c = KernelContract::new("k")
            .reads(&vals, Footprint::fixed(0, 32))
            .writes_shared(&vals, Footprint::fixed(32, 32));
        assert!(c
            .conformance_violation("vals", 10, AccessKind::Read, 0, 4)
            .is_none());
        assert!(c
            .conformance_violation("vals", 40, AccessKind::Write, 3, 4)
            .is_none());
        // Read outside the read entry (even though a write entry covers
        // the index).
        let v = c
            .conformance_violation("vals", 40, AccessKind::Read, 0, 4)
            .expect("read of the write-only half");
        assert!(v.contains("outside every declared entry"), "{v}");
        // Undeclared buffer.
        let v = c
            .conformance_violation("other", 0, AccessKind::Read, 0, 4)
            .expect("undeclared");
        assert!(v.contains("not declared"), "{v}");
    }
}
