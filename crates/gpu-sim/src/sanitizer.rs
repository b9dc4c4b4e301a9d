//! A compute-sanitizer-style correctness layer for the simulator.
//!
//! NVIDIA's `compute-sanitizer` ships four tools; this module
//! reproduces the ones that make sense for the simulator's execution
//! model. [`SanitizerMode`] has two switches: `armed` runs every access
//! analysis below (racecheck, initcheck, memcheck, contracts,
//! synccheck) and `leakcheck` runs the leak sweep. Both off costs one
//! `Option` branch per access.
//!
//! * **racecheck** — every device word carries a shadow record of the
//!   last access (launch id, block, access kinds). Two accesses to the
//!   same word from *different blocks of the same launch* are flagged
//!   when at least one is a non-atomic write, or when atomic and
//!   non-atomic accesses mix. Kernel boundaries are synchronisation
//!   points (a new launch id resets the record). Grid syncs are
//!   tracked per word through a launch-global *epoch* counter: every
//!   access is stamped with the current epoch, and an acquire-release
//!   grid sync
//!   ([`BlockCtx::mark_block_done`](crate::exec::BlockCtx::mark_block_done)
//!   or
//!   [`BlockCtx::atomic_add_sync`](crate::exec::BlockCtx::atomic_add_sync))
//!   bumps it — so the acquiring block's later accesses stop
//!   conflicting with accesses made *before* its acquire (that is
//!   exactly the "last block" pattern AIR Top-K's fused kernel relies
//!   on, where the final block's reads of the grid's histogram are
//!   ordered by the release-acquire done counter) while conflicts with
//!   accesses made *after* it are still caught.
//! * **initcheck** — a shadow valid bitmap per buffer. Allocation does
//!   *not* initialise (real `cudaMalloc` returns garbage even though
//!   the simulator zeroes for convenience); words become valid through
//!   `st`/`st_scatter`/atomic RMWs, host `set`/`fill`, and H2D copies.
//!   A kernel read of a never-written word is flagged — including the
//!   stale-scratch shape where code relies on data surviving a
//!   free/re-alloc cycle.
//! * **memcheck** — out-of-bounds kernel accesses are squashed and
//!   reported as structured findings (instead of aborting the host
//!   thread), and any access to a buffer whose bytes were returned to
//!   the device allocator ([`Gpu::free`](crate::Gpu::free) or a
//!   released scratch guard) is a use-after-free finding.
//! * **contracts** — a contracted launch
//!   ([`Gpu::launch_checked`](crate::Gpu::launch_checked)) whose static
//!   verification fails is a finding instead of a hard error, and every
//!   observed access is checked against the declared
//!   [`KernelContract`](crate::contract::KernelContract) footprints
//!   (conformance), so contracts cannot rot.
//! * **synccheck** — with
//!   [`BlockCtx::block_sync`](crate::exec::BlockCtx::block_sync)
//!   modelling `__syncthreads`, two non-atomic writes of the same word
//!   by one block within one barrier interval are flagged (distinct
//!   threads of the block would race on real hardware), and so are
//!   blocks of one launch reaching mismatched barrier counts.
//! * **leakcheck** (its own switch, not part of `armed`) — every
//!   allocation is tracked; a sweep
//!   ([`Gpu::run_leakcheck`](crate::Gpu::run_leakcheck), run
//!   automatically when the device drops) flags allocations whose last
//!   handle dropped without the bytes being freed, and allocator
//!   accounting that drifted from the tracked buffers.
//!
//! Findings are deduplicated by (analysis, buffer, kernel) with an
//! occurrence count, so a racy loop over a million words produces one
//! legible [`SanitizerFinding`], not a million. The sanitizer never
//! touches [`KernelStats`](crate::cost::KernelStats) or the cost model:
//! simulated timings are bit-identical with the sanitizer on or off.
//!
//! What it cannot catch (vs. the real tool): intra-block hazards other
//! than synccheck's same-word write pairs (a block closure is
//! sequential host code), shared-memory races (same reason), and
//! device-side alignment faults (the simulator has no pointer
//! arithmetic).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What the sanitizer runs: two independent switches. The default,
/// both off, costs one `Option` branch per device access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SanitizerMode {
    /// Run every access analysis on every launch: racecheck,
    /// initcheck, memcheck, contract findings and conformance for
    /// contracted launches
    /// ([`Gpu::launch_checked`](crate::Gpu::launch_checked)), and the
    /// barrier-aware synccheck. Unarmed, a contract that fails static
    /// verification is a hard
    /// [`SimError::ContractViolation`](crate::SimError::ContractViolation)
    /// and an out-of-bounds access aborts the launch.
    pub armed: bool,
    /// Flag device allocations whose last handle dropped without the
    /// bytes ever being returned to the allocator (plus allocator
    /// accounting drift). Runs on demand
    /// ([`Gpu::run_leakcheck`](crate::Gpu::run_leakcheck)) and
    /// automatically when the device drops. Not part of `armed`:
    /// selection outputs are device-resident
    /// [`DeviceBuffer`](crate::DeviceBuffer)s whose lifetime belongs to
    /// the caller, so sweeps that drop them without a free would flag
    /// themselves.
    pub leakcheck: bool,
}

/// Which analysis produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Analysis {
    /// Conflicting cross-block access within one launch.
    Racecheck,
    /// Read of a never-written device word.
    Initcheck,
    /// Out-of-bounds access (squashed).
    MemcheckOob,
    /// Access to a buffer after its bytes were freed.
    MemcheckUseAfterFree,
    /// Allocation whose last handle dropped without a free, or
    /// allocator accounting that diverged from the tracked buffers.
    Leakcheck,
    /// Static contract verification rejected the launch shape (OOB
    /// footprint, overlapping exclusive writes, shape/shared-mem
    /// requirement). Found before the kernel ran.
    ContractViolation,
    /// An observed access fell outside the launch's declared contract
    /// footprints (or touched an undeclared buffer).
    ContractConformance,
    /// Barrier-aware intra-block hazard: same-word writes by one block
    /// not separated by [`BlockCtx::block_sync`](crate::exec::BlockCtx::block_sync),
    /// or blocks of one launch reaching mismatched barrier counts.
    Synccheck,
}

impl Analysis {
    /// Short tool-style label (`racecheck` / `initcheck` / `memcheck`
    /// / `leakcheck` / `contract` / `synccheck`).
    pub fn label(&self) -> &'static str {
        match self {
            Analysis::Racecheck => "racecheck",
            Analysis::Initcheck => "initcheck",
            Analysis::MemcheckOob | Analysis::MemcheckUseAfterFree => "memcheck",
            Analysis::Leakcheck => "leakcheck",
            Analysis::ContractViolation | Analysis::ContractConformance => "contract",
            Analysis::Synccheck => "synccheck",
        }
    }
}

/// How the flagged word was touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Non-atomic load (`ld` / `ld_gather`).
    Read,
    /// Non-atomic store (`st` / `st_scatter`).
    Write,
    /// Atomic read-modify-write (`atomic_*`).
    Atomic,
}

impl AccessKind {
    /// Human label.
    pub fn label(&self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Atomic => "atomic",
        }
    }

    fn bit(self) -> u64 {
        match self {
            AccessKind::Read => 1,
            AccessKind::Write => 2,
            AccessKind::Atomic => 4,
        }
    }
}

fn kinds_label(mask: u64) -> String {
    let mut parts = Vec::new();
    if mask & 1 != 0 {
        parts.push("read");
    }
    if mask & 2 != 0 {
        parts.push("write");
    }
    if mask & 4 != 0 {
        parts.push("atomic");
    }
    parts.join("+")
}

/// One deduplicated sanitizer diagnostic: the first occurrence's full
/// attribution plus a count of how many accesses folded into it.
#[derive(Debug, Clone)]
pub struct SanitizerFinding {
    /// Which analysis fired.
    pub analysis: Analysis,
    /// Label of the buffer involved.
    pub buffer: String,
    /// Kernel that performed the access (`"<host>"` for host-side
    /// transfer checks).
    pub kernel: String,
    /// Sanitizer launch sequence number of the first occurrence
    /// (monotonic per device, 1-based; 0 = host-side).
    pub launch: u64,
    /// Block index of the first occurrence.
    pub block: usize,
    /// Element index of the first occurrence.
    pub index: usize,
    /// Access kind of the first occurrence.
    pub access: AccessKind,
    /// Total flagged accesses folded into this finding.
    pub count: u64,
    /// Analysis-specific explanation.
    pub detail: String,
}

impl fmt::Display for SanitizerFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} of {:?}[{}] in kernel {:?} (launch {}, block {}): {} ({} occurrence{})",
            self.analysis.label(),
            self.access.label(),
            self.buffer,
            self.index,
            self.kernel,
            self.launch,
            self.block,
            self.detail,
            self.count,
            if self.count == 1 { "" } else { "s" },
        )
    }
}

/// Per-analysis totals of flagged accesses (occurrences, not deduped
/// findings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizerCounts {
    /// Racecheck occurrences.
    pub racecheck: u64,
    /// Initcheck occurrences.
    pub initcheck: u64,
    /// Memcheck occurrences (out-of-bounds + use-after-free).
    pub memcheck: u64,
    /// Leakcheck occurrences (leaked allocations + accounting drift).
    pub leakcheck: u64,
    /// Contract occurrences (static violations + dynamic conformance).
    pub contract: u64,
    /// Synccheck occurrences (intra-block write hazards + barrier
    /// divergence).
    pub synccheck: u64,
}

impl SanitizerCounts {
    /// Sum over all analyses.
    pub fn total(&self) -> u64 {
        self.racecheck
            + self.initcheck
            + self.memcheck
            + self.leakcheck
            + self.contract
            + self.synccheck
    }

    /// Element-wise saturating difference (for drain-relative deltas on
    /// persistent devices).
    pub fn delta_since(&self, earlier: &SanitizerCounts) -> SanitizerCounts {
        SanitizerCounts {
            racecheck: self.racecheck.saturating_sub(earlier.racecheck),
            initcheck: self.initcheck.saturating_sub(earlier.initcheck),
            memcheck: self.memcheck.saturating_sub(earlier.memcheck),
            leakcheck: self.leakcheck.saturating_sub(earlier.leakcheck),
            contract: self.contract.saturating_sub(earlier.contract),
            synccheck: self.synccheck.saturating_sub(earlier.synccheck),
        }
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &SanitizerCounts) {
        self.racecheck += other.racecheck;
        self.initcheck += other.initcheck;
        self.memcheck += other.memcheck;
        self.leakcheck += other.leakcheck;
        self.contract += other.contract;
        self.synccheck += other.synccheck;
    }
}

/// Everything the sanitizer observed on one device.
#[derive(Debug, Clone)]
pub struct SanitizerReport {
    /// Analyses that were armed.
    pub mode: SanitizerMode,
    /// Occurrence totals per analysis.
    pub counts: SanitizerCounts,
    /// Kernel launches the sanitizer observed.
    pub launches: u64,
    /// Deduplicated findings (capped at [`MAX_FINDINGS`]; see
    /// [`SanitizerReport::dropped`]).
    pub findings: Vec<SanitizerFinding>,
    /// Distinct findings discarded after the cap was reached (their
    /// occurrences still count toward [`SanitizerReport::counts`]).
    pub dropped: u64,
}

impl SanitizerReport {
    /// True when no analysis flagged anything.
    pub fn is_clean(&self) -> bool {
        self.counts.total() == 0
    }
}

/// Cap on stored deduplicated findings per device; occurrence counters
/// keep running past it.
pub const MAX_FINDINGS: usize = 512;

#[derive(Default)]
struct FindingStore {
    by_key: HashMap<(Analysis, String, String), usize>,
    findings: Vec<SanitizerFinding>,
    dropped: u64,
}

/// One tracked allocation for leakcheck: the registry's own handle on
/// the buffer's shadow. While any [`DeviceBuffer`](crate::DeviceBuffer)
/// clone (or [`ShadowToken`]) is alive, the shadow's strong count
/// exceeds the registry's single reference — so a count of exactly one
/// on an unfreed record means the last handle dropped without the bytes
/// ever being returned to the allocator.
struct AllocRecord {
    label: String,
    bytes: usize,
    shadow: std::sync::Arc<BufferShadow>,
}

#[derive(Default)]
struct AllocRegistry {
    records: Vec<AllocRecord>,
    /// Bytes already reported as leaked: still outstanding in the
    /// allocator, but accounted for so the drift check stays quiet and
    /// repeat sweeps stay idempotent.
    leaked_bytes: usize,
    drift_reported: bool,
}

/// Per-device sanitizer state: the armed mode, the launch sequence,
/// occurrence counters, and the deduplicated finding store. Owned by
/// [`Gpu`](crate::Gpu); shared with in-flight launches by reference.
pub struct Sanitizer {
    mode: SanitizerMode,
    launch_seq: AtomicU64,
    race_count: AtomicU64,
    init_count: AtomicU64,
    mem_count: AtomicU64,
    leak_count: AtomicU64,
    contract_count: AtomicU64,
    sync_count: AtomicU64,
    store: Mutex<FindingStore>,
    allocs: Mutex<AllocRegistry>,
}

impl fmt::Debug for Sanitizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sanitizer")
            .field("mode", &self.mode)
            .field("launches", &self.launch_seq.load(Ordering::Relaxed))
            .field("counts", &self.counts())
            .finish()
    }
}

impl Sanitizer {
    /// New sanitizer with the given analyses armed.
    pub fn new(mode: SanitizerMode) -> Self {
        Sanitizer {
            mode,
            launch_seq: AtomicU64::new(0),
            race_count: AtomicU64::new(0),
            init_count: AtomicU64::new(0),
            mem_count: AtomicU64::new(0),
            leak_count: AtomicU64::new(0),
            contract_count: AtomicU64::new(0),
            sync_count: AtomicU64::new(0),
            store: Mutex::new(FindingStore::default()),
            allocs: Mutex::new(AllocRegistry::default()),
        }
    }

    /// The armed analyses.
    pub fn mode(&self) -> SanitizerMode {
        self.mode
    }

    /// Occurrence totals so far.
    pub fn counts(&self) -> SanitizerCounts {
        SanitizerCounts {
            racecheck: self.race_count.load(Ordering::Relaxed),
            initcheck: self.init_count.load(Ordering::Relaxed),
            memcheck: self.mem_count.load(Ordering::Relaxed),
            leakcheck: self.leak_count.load(Ordering::Relaxed),
            contract: self.contract_count.load(Ordering::Relaxed),
            synccheck: self.sync_count.load(Ordering::Relaxed),
        }
    }

    /// Snapshot the full report.
    pub fn report(&self) -> SanitizerReport {
        let store = self.store.lock().expect("sanitizer store poisoned");
        SanitizerReport {
            mode: self.mode,
            counts: self.counts(),
            launches: self.launch_seq.load(Ordering::Relaxed),
            findings: store.findings.clone(),
            dropped: store.dropped,
        }
    }

    pub(crate) fn next_launch(&self) -> u64 {
        self.launch_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn record(&self, finding: SanitizerFinding) {
        match finding.analysis {
            Analysis::Racecheck => &self.race_count,
            Analysis::Initcheck => &self.init_count,
            Analysis::MemcheckOob | Analysis::MemcheckUseAfterFree => &self.mem_count,
            Analysis::Leakcheck => &self.leak_count,
            Analysis::ContractViolation | Analysis::ContractConformance => &self.contract_count,
            Analysis::Synccheck => &self.sync_count,
        }
        .fetch_add(1, Ordering::Relaxed);

        let mut store = self.store.lock().expect("sanitizer store poisoned");
        let key = (
            finding.analysis,
            finding.buffer.clone(),
            finding.kernel.clone(),
        );
        if let Some(&i) = store.by_key.get(&key) {
            store.findings[i].count += 1;
            return;
        }
        if store.findings.len() >= MAX_FINDINGS {
            store.dropped += 1;
            return;
        }
        let idx = store.findings.len();
        store.findings.push(finding);
        store.by_key.insert(key, idx);
    }

    /// Record a host-side (non-kernel) memcheck finding, e.g. a D2H
    /// readback of a freed buffer.
    pub(crate) fn record_host_uaf(&self, buffer: &str, what: &str) {
        self.record(SanitizerFinding {
            analysis: Analysis::MemcheckUseAfterFree,
            buffer: buffer.to_string(),
            kernel: "<host>".to_string(),
            launch: 0,
            block: 0,
            index: 0,
            access: AccessKind::Read,
            count: 1,
            detail: format!("{what} of a buffer whose bytes were returned to the allocator"),
        });
    }

    /// Record a static contract-verification failure for a launch that
    /// is about to run (launch 0 = pre-launch, like host-side checks).
    /// Only called when [`SanitizerMode::armed`] is set — unarmed, the
    /// violation is a hard
    /// [`SimError::ContractViolation`](crate::SimError::ContractViolation)
    /// instead.
    pub(crate) fn record_static_violation(&self, kernel: &str, buffer: &str, detail: String) {
        self.record(SanitizerFinding {
            analysis: Analysis::ContractViolation,
            buffer: buffer.to_string(),
            kernel: kernel.to_string(),
            launch: 0,
            block: 0,
            index: 0,
            access: AccessKind::Write,
            count: 1,
            detail,
        });
    }

    /// Track a fresh allocation for leakcheck. No-op unless leakcheck
    /// is armed.
    pub(crate) fn register_alloc(
        &self,
        label: &str,
        bytes: usize,
        shadow: std::sync::Arc<BufferShadow>,
    ) {
        if !self.mode.leakcheck {
            return;
        }
        self.allocs
            .lock()
            .expect("alloc registry poisoned")
            .records
            .push(AllocRecord {
                label: label.to_string(),
                bytes,
                shadow,
            });
    }

    /// Sweep the allocation registry against the allocator's current
    /// accounting (`mem_allocated`). Two finding shapes:
    ///
    /// * **leaked allocation** — an unfreed record whose shadow the
    ///   registry is the last owner of: every buffer handle and token
    ///   dropped, but the bytes were never returned via
    ///   [`Gpu::free`](crate::Gpu::free) / `free_bytes`.
    /// * **accounting drift** — `mem_allocated` disagrees with the sum
    ///   of live tracked buffers (+ already-reported leaks): someone
    ///   released bytes without marking the shadow freed, or allocated
    ///   outside the tracked path.
    ///
    /// Buffers still held by live handles are *not* leaks (device
    /// teardown reclaims them, as a real driver context does). The
    /// sweep is idempotent: flagged records are retired so a later
    /// drop-time sweep reports nothing new.
    pub(crate) fn run_leakcheck(&self, mem_allocated: usize) {
        if !self.mode.leakcheck {
            return;
        }
        let mut reg = self.allocs.lock().expect("alloc registry poisoned");
        reg.records.retain(|r| !r.shadow.is_freed());
        let mut live_bytes = 0usize;
        let mut newly_leaked = 0usize;
        let mut kept = Vec::with_capacity(reg.records.len());
        for r in reg.records.drain(..) {
            if std::sync::Arc::strong_count(&r.shadow) == 1 {
                newly_leaked += r.bytes;
                self.record(SanitizerFinding {
                    analysis: Analysis::Leakcheck,
                    buffer: r.label.clone(),
                    kernel: "<leakcheck>".to_string(),
                    launch: 0,
                    block: 0,
                    index: 0,
                    access: AccessKind::Write,
                    count: 1,
                    detail: format!(
                        "{} bytes allocated but never freed; last handle dropped",
                        r.bytes
                    ),
                });
            } else {
                live_bytes += r.bytes;
                kept.push(r);
            }
        }
        reg.records = kept;
        reg.leaked_bytes += newly_leaked;
        let tracked = live_bytes + reg.leaked_bytes;
        if mem_allocated != tracked && !reg.drift_reported {
            reg.drift_reported = true;
            self.record(SanitizerFinding {
                analysis: Analysis::Leakcheck,
                buffer: "<allocator>".to_string(),
                kernel: "<leakcheck>".to_string(),
                launch: 0,
                block: 0,
                index: 0,
                access: AccessKind::Write,
                count: 1,
                detail: format!(
                    "allocator reports {mem_allocated} bytes outstanding but tracked \
                     buffers account for {tracked} (bytes released without marking the \
                     shadow freed, or allocated outside the tracked path)"
                ),
            });
        }
    }
}

// ---- per-buffer shadow state ------------------------------------------

// Race-shadow word layout (one AtomicU64 per device word):
//   bits  0..22  launch id (truncated; 0 = never accessed)
//   bit      22  several blocks accessed the word this launch
//   bit      23  ... and every block but the latest one did so before
//                the latest one's acquire (its later accesses are safe)
//   bits 24..40  grid-sync epoch of the latest access (saturating)
//   bits 40..56  index + 1 of the latest accessing block (0 = none)
//   bits 56..59  access kinds seen this launch (read=1, write=2, atomic=4)
//   bits 59..64  barrier epoch of the latest access (saturating; the
//                block's `block_sync()` count at access time)
//
// The grid-sync epoch field is what lets `atomic_add_sync` /
// `mark_block_done` suppress only the conflicts they actually order:
// every access is stamped with the launch's global epoch counter, an
// acquire bumps it, and a conflict is suppressed only when the earlier
// access's epoch predates the accessor's acquire. Launch ids are
// truncated to 22 bits (aliasing needs 4.2M launches touching the same
// word); epochs saturate at 65535 acquires per launch (beyond any real
// grid). The stored epoch is the max over every contributor, the latest
// block's own accesses included, so a block re-reading a word after its
// acquire would conflict with itself; the ordered bit records that its
// first access after the others was already found ordered.
//
// The barrier-epoch field drives synccheck's intra-block analysis: two
// non-atomic writes of the same word by the *same* block are a hazard
// on real hardware (different threads of the block) unless a
// `__syncthreads` barrier separates them, so equal barrier epochs are a
// finding and differing ones are exonerated. Barrier epochs saturate at
// 31; a saturated pair is indistinguishable and therefore suppressed
// (never a false positive).
const LAUNCH_MASK: u64 = 0x3F_FFFF;
const MULTI_BIT: u64 = 1 << 22;
const ORDERED_BIT: u64 = 1 << 23;
const EPOCH_SHIFT: u32 = 24;
const EPOCH_MASK: u64 = 0xFFFF;
const BLOCK_SHIFT: u32 = 40;
const KIND_SHIFT: u32 = 56;
const BLOCK_MASK: u64 = 0xFFFF;
const BLOCK_MULTI: u64 = BLOCK_MASK;
const KIND_MASK: u64 = 0x7;
const BSYNC_SHIFT: u32 = 59;
const BSYNC_MASK: u64 = 0x1F;
/// Saturation value for the stored barrier epoch.
const BSYNC_SAT: u64 = BSYNC_MASK;

fn pack(launch: u64, epoch: u64, block_plus1: u64, kinds: u64, bsync: u64) -> u64 {
    (launch & LAUNCH_MASK)
        | (epoch.min(EPOCH_MASK) << EPOCH_SHIFT)
        | (block_plus1 << BLOCK_SHIFT)
        | ((kinds & KIND_MASK) << KIND_SHIFT)
        | (bsync.min(BSYNC_SAT) << BSYNC_SHIFT)
}

/// What [`BufferShadow::race_check`] found.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RaceHit {
    /// Cross-block conflict with an earlier access (kinds mask,
    /// block-plus-one of the earlier access).
    CrossBlock { prev_kinds: u64, prev_block: u64 },
    /// Same-block write-write pair within one barrier interval
    /// (synccheck).
    IntraBlockWrite,
}

/// Shadow state attached to a [`DeviceBuffer`](crate::DeviceBuffer)
/// allocated while a sanitizer is attached.
pub struct BufferShadow {
    /// One bit per element: has this word ever been written?
    valid: Box<[AtomicU64]>,
    /// One record per element for racecheck and synccheck.
    race: Box<[AtomicU64]>,
    /// Nonzero once the buffer's bytes were returned to the allocator.
    freed: AtomicU64,
}

impl fmt::Debug for BufferShadow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferShadow")
            .field("len", &self.race.len())
            .field("freed", &self.is_freed())
            .finish()
    }
}

impl BufferShadow {
    /// Fresh shadow for an allocation of `len` elements: nothing
    /// written, no race history.
    pub(crate) fn new(len: usize) -> Self {
        BufferShadow {
            valid: (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            race: (0..len).map(|_| AtomicU64::new(0)).collect(),
            freed: AtomicU64::new(0),
        }
    }

    /// The shadow of words `offset..offset + len` as a buffer of their
    /// own: initcheck state copied, no race history.
    pub(crate) fn piece(&self, offset: usize, len: usize) -> BufferShadow {
        let piece = BufferShadow::new(len);
        for i in (0..len).filter(|&i| self.is_valid(offset + i)) {
            piece.mark_valid(i);
        }
        piece
    }

    /// Mark one word as initialised.
    pub(crate) fn mark_valid(&self, idx: usize) {
        if let Some(cell) = self.valid.get(idx / 64) {
            cell.fetch_or(1 << (idx % 64), Ordering::Relaxed);
        }
    }

    /// Mark every word initialised (`fill`, full H2D copies).
    pub(crate) fn mark_valid_all(&self) {
        for cell in self.valid.iter() {
            cell.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Mark the first `len` words initialised (partial H2D copies).
    pub(crate) fn mark_valid_prefix(&self, len: usize) {
        let (full, rem) = (len / 64, len % 64);
        for cell in self.valid.iter().take(full) {
            cell.store(u64::MAX, Ordering::Relaxed);
        }
        if rem > 0 {
            if let Some(cell) = self.valid.get(full) {
                cell.fetch_or((1u64 << rem) - 1, Ordering::Relaxed);
            }
        }
    }

    fn is_valid(&self, idx: usize) -> bool {
        self.valid[idx / 64].load(Ordering::Relaxed) & (1 << (idx % 64)) != 0
    }

    /// Record that the buffer's bytes were returned to the allocator.
    pub(crate) fn mark_freed(&self) {
        self.freed.store(1, Ordering::Relaxed);
    }

    /// True once [`BufferShadow::mark_freed`] ran.
    pub(crate) fn is_freed(&self) -> bool {
        self.freed.load(Ordering::Relaxed) != 0
    }

    /// Update the race record for `idx` and return the hazard, if this
    /// access conflicts with an earlier one in the same launch.
    ///
    /// `now_epoch` is the launch's global epoch counter at access time;
    /// `sync_epoch` is the epoch at which the accessing *block* last
    /// performed an acquire grid sync (0 = never). An earlier access
    /// whose recorded epoch predates `sync_epoch` is ordered-before the
    /// acquire and cannot conflict — a per-word refinement of the old
    /// "synced block is exempt forever" rule, so a synced block's
    /// conflicts with accesses made *after* its acquire are still
    /// caught. Treating every smaller-epoch access as ordered is an
    /// over-approximation (suppression, never a false positive) for
    /// blocks that raced with the acquire itself.
    ///
    /// `bar_epoch` is the accessing block's barrier count
    /// ([`BlockCtx::block_sync`](crate::exec::BlockCtx::block_sync)).
    /// For synccheck, a same-block non-atomic write over an
    /// earlier write at the *same* barrier epoch is an intra-block
    /// hazard (distinct threads of the block on real hardware, with no
    /// `__syncthreads` between them); barrier-separated pairs are
    /// exonerated, as are saturated epochs (≥ 31, indistinguishable).
    #[allow(clippy::too_many_arguments)]
    fn race_check(
        &self,
        idx: usize,
        launch: u64,
        block: usize,
        kind: AccessKind,
        now_epoch: u64,
        sync_epoch: u64,
        bar_epoch: u64,
    ) -> Option<RaceHit> {
        let cell = self.race.get(idx)?;
        let kbit = kind.bit();
        let launch22 = launch & LAUNCH_MASK;
        let block_plus1 = (block as u64 + 1).min(BLOCK_MULTI - 1);
        let bar_sat = bar_epoch.min(BSYNC_SAT);
        loop {
            let prev = cell.load(Ordering::Relaxed);
            let prev_launch = prev & LAUNCH_MASK;
            let prev_epoch = (prev >> EPOCH_SHIFT) & EPOCH_MASK;
            let prev_block = (prev >> BLOCK_SHIFT) & BLOCK_MASK;
            let prev_kinds = (prev >> KIND_SHIFT) & KIND_MASK;
            let prev_bsync = (prev >> BSYNC_SHIFT) & BSYNC_MASK;
            let prev_multi = prev & MULTI_BIT != 0;

            let (next, conflict) = if prev_launch != launch22 || prev_block == 0 {
                // First access of this launch (or first ever).
                (pack(launch22, now_epoch, block_plus1, kbit, bar_sat), None)
            } else if prev_multi && prev_block == block_plus1 && prev & ORDERED_BIT != 0 {
                // The latest accessor again, after its earlier access
                // was found ordered after every other block's: nobody
                // else touched the word since, so nothing new to check.
                let kinds = prev_kinds | kbit;
                let epoch = now_epoch.max(prev_epoch);
                let flags = MULTI_BIT | ORDERED_BIT;
                (
                    pack(launch22, epoch, block_plus1, kinds, bar_sat) | flags,
                    None,
                )
            } else if prev_block == block_plus1 && !prev_multi {
                // Same block touching its own word again. Program order
                // makes this safe in the sequential closure model —
                // except for the write-write shape synccheck looks for:
                // two stores of one word by one block model distinct
                // threads, racy unless a barrier separates them.
                let intra = kind == AccessKind::Write
                    && prev_kinds & 2 != 0
                    && prev_bsync == bar_sat
                    && bar_sat < BSYNC_SAT;
                (
                    pack(
                        launch22,
                        now_epoch.max(prev_epoch),
                        block_plus1,
                        prev_kinds | kbit,
                        bar_sat,
                    ),
                    intra.then_some(RaceHit::IntraBlockWrite),
                )
            } else {
                // Cross-block access within one launch. The stored
                // epoch is the max over contributors, so a merged
                // multi-block record stays conservative: suppression
                // requires *every* contributor to predate the acquire.
                let hazard = match kind {
                    AccessKind::Read => prev_kinds & (2 | 4) != 0,
                    AccessKind::Write => prev_kinds != 0,
                    AccessKind::Atomic => prev_kinds & (1 | 2) != 0,
                };
                let ordered = sync_epoch != 0 && prev_epoch < sync_epoch.min(EPOCH_MASK);
                let next = pack(
                    launch22,
                    now_epoch.max(prev_epoch),
                    block_plus1,
                    prev_kinds | kbit,
                    bar_sat,
                ) | MULTI_BIT
                    | if ordered { ORDERED_BIT } else { 0 };
                let prev_block = if prev_multi { BLOCK_MULTI } else { prev_block };
                (
                    next,
                    (hazard && !ordered).then_some(RaceHit::CrossBlock {
                        prev_kinds,
                        prev_block,
                    }),
                )
            };
            if cell
                .compare_exchange_weak(prev, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return conflict;
            }
        }
    }
}

/// A cheap, clonable handle onto one buffer's shadow, letting code
/// that no longer holds the typed buffer (e.g. a scratch guard whose
/// buffers moved into kernel closures) mark it freed for memcheck.
#[derive(Debug, Clone)]
pub struct ShadowToken {
    pub(crate) shadow: std::sync::Arc<BufferShadow>,
}

impl ShadowToken {
    /// Record that the buffer's bytes were returned to the allocator;
    /// later accesses become use-after-free findings.
    pub fn mark_freed(&self) {
        self.shadow.mark_freed();
    }
}

// ---- per-launch scope --------------------------------------------------

/// Sanitizer context of one kernel launch, shared by every block.
pub struct LaunchScope<'g> {
    san: &'g Sanitizer,
    launch: u64,
    kernel: &'g str,
    /// Global grid-sync epoch for this launch: starts at 1, bumped by
    /// every acquire ([`BlockCtx::atomic_add_sync`](crate::exec::BlockCtx::atomic_add_sync),
    /// last-block [`BlockCtx::mark_block_done`](crate::exec::BlockCtx::mark_block_done)).
    /// Accesses are stamped with it so racecheck can order them against
    /// acquires per word instead of exempting whole blocks.
    epoch: AtomicU64,
    /// The launch's contract plus its grid size, when launched through
    /// [`Gpu::launch_checked`](crate::Gpu::launch_checked) — drives the
    /// dynamic conformance analysis.
    contract: Option<(&'g crate::contract::KernelContract, usize)>,
    /// Min/max final barrier count over completed blocks, for the
    /// barrier-divergence check (`u64::MAX` min = no block reported).
    bar_lo: AtomicU64,
    bar_hi: AtomicU64,
}

impl<'g> LaunchScope<'g> {
    pub(crate) fn new(
        san: &'g Sanitizer,
        kernel: &'g str,
        contract: Option<(&'g crate::contract::KernelContract, usize)>,
    ) -> Self {
        LaunchScope {
            san,
            launch: san.next_launch(),
            kernel,
            epoch: AtomicU64::new(1),
            contract,
            bar_lo: AtomicU64::new(u64::MAX),
            bar_hi: AtomicU64::new(0),
        }
    }

    /// Record one completed block's final barrier count (called by the
    /// block pool after the block's closure returns).
    pub(crate) fn note_block_barriers(&self, count: u64) {
        self.bar_lo.fetch_min(count, Ordering::Relaxed);
        self.bar_hi.fetch_max(count, Ordering::Relaxed);
    }

    /// After every block completed: flag barrier divergence (blocks of
    /// one launch reaching mismatched barrier counts — on real hardware
    /// a grid whose `__syncthreads` counts differ per block has
    /// divergent control flow around a barrier, a hang or UB). One
    /// deduplicated finding per (kernel, launch-name) pair.
    pub(crate) fn check_barrier_divergence(&self) {
        let lo = self.bar_lo.load(Ordering::Relaxed);
        let hi = self.bar_hi.load(Ordering::Relaxed);
        if lo == u64::MAX || lo == hi {
            return;
        }
        let detail = format!(
            "barrier divergence: blocks reached between {lo} and {hi} block_sync() barriers \
             in one launch"
        );
        self.flag(
            Analysis::Synccheck,
            "<barrier>",
            0,
            0,
            AccessKind::Atomic,
            detail,
        );
    }

    /// Bump the global epoch for an acquire grid sync and return the
    /// acquirer's new sync epoch.
    pub(crate) fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Record one occurrence of `analysis` at access `index` of the
    /// buffer `label` in this launch.
    fn flag(
        &self,
        analysis: Analysis,
        label: &str,
        block: usize,
        index: usize,
        access: AccessKind,
        detail: String,
    ) {
        self.san.record(SanitizerFinding {
            analysis,
            buffer: label.to_string(),
            kernel: self.kernel.to_string(),
            launch: self.launch,
            block,
            index,
            access,
            count: 1,
            detail,
        });
    }

    /// Validate one device-memory access. Returns `false` when the
    /// access must be squashed (out of bounds, reported as a memcheck
    /// finding).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check_access(
        &self,
        shadow: Option<&BufferShadow>,
        label: &str,
        len: usize,
        idx: usize,
        kind: AccessKind,
        block: usize,
        sync_epoch: u64,
        bar_epoch: u64,
    ) -> bool {
        let flag = |analysis, detail| self.flag(analysis, label, block, idx, kind, detail);
        if idx >= len {
            let detail = format!("index {idx} outside length {len}; access squashed");
            flag(Analysis::MemcheckOob, detail);
            return false;
        }
        if let Some((contract, grid)) = self.contract {
            if let Some(detail) = contract.conformance_violation(label, idx, kind, block, grid) {
                flag(Analysis::ContractConformance, detail);
            }
        }
        let Some(sh) = shadow else {
            // Buffer allocated before the sanitizer was armed (or
            // constructed host-side): only bounds are checkable.
            return true;
        };
        if sh.is_freed() {
            let detail = "buffer bytes were returned to the allocator before this access";
            flag(Analysis::MemcheckUseAfterFree, detail.into());
        }
        if kind != AccessKind::Write && !sh.is_valid(idx) {
            let what = match kind {
                AccessKind::Read => "read",
                _ => "atomic read-modify-write",
            };
            flag(
                Analysis::Initcheck,
                format!("{what} of a never-written device word"),
            );
        }
        if kind != AccessKind::Read {
            sh.mark_valid(idx);
        }
        let now = self.epoch.load(Ordering::Relaxed);
        match sh.race_check(idx, self.launch, block, kind, now, sync_epoch, bar_epoch) {
            Some(RaceHit::CrossBlock {
                prev_kinds,
                prev_block,
            }) => {
                let who = if prev_block == BLOCK_MULTI {
                    "several blocks".to_string()
                } else {
                    format!("block {}", prev_block - 1)
                };
                let detail = format!(
                    "{} conflicts with unsynchronised {} by {} in the same launch",
                    kind.label(),
                    kinds_label(prev_kinds),
                    who
                );
                flag(Analysis::Racecheck, detail);
            }
            Some(RaceHit::IntraBlockWrite) => {
                let detail = format!(
                    "same-word writes by block {block} within one barrier interval (no \
                     block_sync() between them): distinct threads of the block would race \
                     on real hardware"
                );
                flag(Analysis::Synccheck, detail);
            }
            None => {}
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARMED: SanitizerMode = SanitizerMode {
        armed: true,
        leakcheck: false,
    };
    const LEAKCHECK: SanitizerMode = SanitizerMode {
        armed: false,
        leakcheck: true,
    };

    /// One launch that trips every access analysis, plus a buffer
    /// dropped without a free, on a device with `mode`.
    fn every_analysis_counts(mode: SanitizerMode) -> SanitizerCounts {
        use crate::{BlockPool, DeviceSpec, Footprint, Gpu, KernelContract, LaunchConfig};
        let mut g = Gpu::with_pool(DeviceSpec::test_tiny(), BlockPool::new(1));
        g.enable_sanitizer(mode);
        drop(g.alloc::<u32>("dropped", 4));
        let fresh = g.alloc::<u32>("fresh", 4);
        let freed = g.alloc::<u32>("freed", 4);
        let out = g.alloc::<u32>("out", 4);
        g.free(&freed);
        let contract =
            KernelContract::new("every_analysis").writes_shared(&out, Footprint::fixed(0, 1));
        g.launch_checked(&contract, LaunchConfig::grid_1d(2, 32), |ctx| {
            if ctx.block_idx == 0 {
                ctx.block_sync(); // barrier divergence
                let _ = ctx.ld(&fresh, 0); // initcheck, undeclared buffer
                let _ = ctx.ld(&freed, 0); // use after free
            }
            ctx.st(&out, 0, 1); // racecheck across blocks
            ctx.st(&out, 2, 1); // outside the declared footprint...
            ctx.st(&out, 2, 2); // ...and unsynchronised in the block
        });
        g.run_leakcheck();
        g.sanitizer_report().expect("attached").counts
    }

    #[test]
    fn arming_covers_every_access_analysis_but_not_leakcheck() {
        let c = every_analysis_counts(ARMED);
        for (analysis, n) in [
            ("racecheck", c.racecheck),
            ("initcheck", c.initcheck),
            ("memcheck", c.memcheck),
            ("contract", c.contract),
            ("synccheck", c.synccheck),
        ] {
            assert!(n > 0, "{analysis} is not armed: {c:?}");
        }
        assert_eq!(c.leakcheck, 0, "leakcheck has its own switch");
        let c = every_analysis_counts(LEAKCHECK);
        assert_eq!(c.total(), c.leakcheck, "{c:?}");
        assert_eq!(c.leakcheck, 1);
    }

    #[test]
    fn findings_dedup_by_buffer_and_kernel() {
        let san = Sanitizer::new(ARMED);
        for i in 0..5 {
            san.record(SanitizerFinding {
                analysis: Analysis::Initcheck,
                buffer: "b".into(),
                kernel: "k".into(),
                launch: 1,
                block: 0,
                index: i,
                access: AccessKind::Read,
                count: 1,
                detail: "d".into(),
            });
        }
        let r = san.report();
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].count, 5);
        assert_eq!(r.findings[0].index, 0, "first occurrence wins");
        assert_eq!(r.counts.initcheck, 5);
        assert!(!r.is_clean());
    }

    /// Race-shadow shim with no barriers.
    fn rc(
        sh: &BufferShadow,
        idx: usize,
        launch: u64,
        block: usize,
        kind: AccessKind,
        now: u64,
        sync: u64,
    ) -> Option<RaceHit> {
        sh.race_check(idx, launch, block, kind, now, sync, 0)
    }

    #[test]
    fn race_shadow_flags_cross_block_write_write() {
        let sh = BufferShadow::new(4);
        assert!(rc(&sh, 0, 1, 0, AccessKind::Write, 1, 0).is_none());
        let c = rc(&sh, 0, 1, 1, AccessKind::Write, 1, 0);
        assert_eq!(
            c,
            Some(RaceHit::CrossBlock {
                prev_kinds: 2,
                prev_block: 1
            }),
            "write by block 0 conflicts"
        );
        // A new launch resets the record.
        assert!(rc(&sh, 0, 2, 5, AccessKind::Write, 1, 0).is_none());
    }

    #[test]
    fn a_synced_block_rereading_after_others_atomics_is_no_race() {
        // Blocks 0 and 1 update the word atomically, then block 2, the
        // last to arrive, acquires (epoch 5) and reads it twice: its
        // second read must not conflict with its own first.
        let sh = BufferShadow::new(1);
        assert!(rc(&sh, 0, 1, 0, AccessKind::Atomic, 1, 0).is_none());
        assert!(rc(&sh, 0, 1, 1, AccessKind::Atomic, 2, 0).is_none());
        assert!(rc(&sh, 0, 1, 2, AccessKind::Read, 5, 5).is_none());
        assert!(rc(&sh, 0, 1, 2, AccessKind::Read, 6, 5).is_none());
        // Another block's unsynchronised write after those reads still
        // conflicts.
        let c = rc(&sh, 0, 1, 3, AccessKind::Write, 6, 0);
        assert!(
            matches!(c, Some(RaceHit::CrossBlock { prev_block, .. }) if prev_block == BLOCK_MULTI)
        );
        // Without the acquire, the first read already conflicts.
        let sh = BufferShadow::new(1);
        assert!(rc(&sh, 0, 1, 0, AccessKind::Atomic, 1, 0).is_none());
        assert!(rc(&sh, 0, 1, 1, AccessKind::Atomic, 1, 0).is_none());
        assert!(rc(&sh, 0, 1, 2, AccessKind::Read, 1, 0).is_some());
    }

    #[test]
    fn race_shadow_allows_read_read_and_atomic_atomic() {
        let sh = BufferShadow::new(1);
        assert!(rc(&sh, 0, 1, 0, AccessKind::Read, 1, 0).is_none());
        assert!(rc(&sh, 0, 1, 1, AccessKind::Read, 1, 0).is_none());
        // ... but a later write conflicts with the multi-block reads.
        let c = rc(&sh, 0, 1, 2, AccessKind::Write, 1, 0).unwrap();
        assert!(matches!(c, RaceHit::CrossBlock { prev_block, .. } if prev_block == BLOCK_MULTI));

        let sh = BufferShadow::new(1);
        assert!(rc(&sh, 0, 3, 0, AccessKind::Atomic, 1, 0).is_none());
        assert!(rc(&sh, 0, 3, 1, AccessKind::Atomic, 1, 0).is_none());
        // Mixed atomic / non-atomic flags.
        assert!(rc(&sh, 0, 3, 2, AccessKind::Read, 1, 0).is_some());
    }

    #[test]
    fn race_shadow_same_block_is_silent() {
        let sh = BufferShadow::new(1);
        assert!(rc(&sh, 0, 1, 7, AccessKind::Write, 1, 0).is_none());
        assert!(rc(&sh, 0, 1, 7, AccessKind::Read, 1, 0).is_none());
        assert!(rc(&sh, 0, 1, 7, AccessKind::Atomic, 1, 0).is_none());
    }

    #[test]
    fn sync_epoch_orders_only_earlier_accesses() {
        let sh = BufferShadow::new(2);
        // Block 0 writes word 0 at epoch 1, then block 1 acquires
        // (sync epoch 2): its read of word 0 is ordered, not a race.
        assert!(rc(&sh, 0, 1, 0, AccessKind::Write, 1, 0).is_none());
        assert!(rc(&sh, 0, 1, 1, AccessKind::Read, 2, 2).is_none());

        // But a write made AT or AFTER the acquire epoch still
        // conflicts with the acquirer: block 2 writes word 1 at epoch
        // 2, and block 1 (sync epoch 2) reads it — unordered.
        assert!(rc(&sh, 1, 1, 2, AccessKind::Write, 2, 0).is_none());
        assert!(rc(&sh, 1, 1, 1, AccessKind::Read, 2, 2).is_some());
    }

    #[test]
    fn sync_epoch_no_longer_exempts_whole_block() {
        // The old rule exempted a synced block from racecheck forever.
        // Now: block 1 acquires at epoch 2, then block 0 writes the
        // word at epoch 2 (after the acquire), then block 1 reads it —
        // a real unordered conflict that must be flagged.
        let sh = BufferShadow::new(1);
        assert!(rc(&sh, 0, 1, 0, AccessKind::Write, 2, 0).is_none());
        assert!(rc(&sh, 0, 1, 1, AccessKind::Read, 2, 2).is_some());
    }

    #[test]
    fn merged_multi_block_record_keeps_latest_epoch() {
        let sh = BufferShadow::new(1);
        // Reads at epochs 1 and 3 merge; an acquirer at sync epoch 2
        // must still conflict (one contributor postdates its acquire).
        assert!(rc(&sh, 0, 1, 0, AccessKind::Read, 1, 0).is_none());
        assert!(rc(&sh, 0, 1, 1, AccessKind::Read, 3, 0).is_none());
        assert!(rc(&sh, 0, 1, 2, AccessKind::Write, 3, 2).is_some());
        // ... while an acquirer past every contributor is ordered.
        let sh = BufferShadow::new(1);
        assert!(rc(&sh, 0, 1, 0, AccessKind::Read, 1, 0).is_none());
        assert!(rc(&sh, 0, 1, 1, AccessKind::Read, 2, 0).is_none());
        assert!(rc(&sh, 0, 1, 2, AccessKind::Write, 3, 3).is_none());
    }

    /// Synccheck shim: one word, explicit barrier epoch.
    fn sc(sh: &BufferShadow, block: usize, kind: AccessKind, bar: u64) -> Option<RaceHit> {
        sh.race_check(0, 1, block, kind, 1, 0, bar)
    }

    #[test]
    fn synccheck_flags_same_block_write_write_in_one_interval() {
        let sh = BufferShadow::new(1);
        assert!(sc(&sh, 3, AccessKind::Write, 0).is_none());
        assert_eq!(
            sc(&sh, 3, AccessKind::Write, 0),
            Some(RaceHit::IntraBlockWrite)
        );
        // Reads and atomics over the written word stay silent.
        assert!(sc(&sh, 3, AccessKind::Read, 0).is_none());
        assert!(sc(&sh, 3, AccessKind::Atomic, 0).is_none());
    }

    #[test]
    fn synccheck_barrier_separated_writes_are_exonerated() {
        let sh = BufferShadow::new(1);
        assert!(sc(&sh, 3, AccessKind::Write, 0).is_none());
        // A block_sync() between the writes bumps the barrier epoch.
        assert!(sc(&sh, 3, AccessKind::Write, 1).is_none());
        // ... but a second write in the *new* interval conflicts.
        assert_eq!(
            sc(&sh, 3, AccessKind::Write, 1),
            Some(RaceHit::IntraBlockWrite)
        );
    }

    #[test]
    fn synccheck_saturated_barrier_epochs_are_suppressed() {
        let sh = BufferShadow::new(1);
        assert!(sc(&sh, 3, AccessKind::Write, BSYNC_SAT + 5).is_none());
        assert!(
            sc(&sh, 3, AccessKind::Write, BSYNC_SAT + 9).is_none(),
            "saturated epochs are indistinguishable: suppress, never false-positive"
        );
    }

    #[test]
    fn leakcheck_flags_dropped_unfreed_allocations() {
        let san = Sanitizer::new(LEAKCHECK);
        let sh = std::sync::Arc::new(BufferShadow::new(4));
        san.register_alloc("lost", 16, sh.clone());
        // Handle still alive: not a leak.
        san.run_leakcheck(16);
        assert_eq!(san.counts().leakcheck, 0);
        drop(sh);
        // Handle gone, bytes never freed: leak.
        san.run_leakcheck(16);
        assert_eq!(san.counts().leakcheck, 1);
        let f = &san.report().findings[0];
        assert_eq!(f.analysis, Analysis::Leakcheck);
        assert_eq!(f.buffer, "lost");
        assert!(f.detail.contains("16 bytes"));
        // Idempotent: a second sweep reports nothing new.
        san.run_leakcheck(16);
        assert_eq!(san.counts().leakcheck, 1);
    }

    #[test]
    fn leakcheck_freed_buffers_are_clean() {
        let san = Sanitizer::new(LEAKCHECK);
        let sh = std::sync::Arc::new(BufferShadow::new(4));
        san.register_alloc("ok", 16, sh.clone());
        sh.mark_freed();
        drop(sh);
        san.run_leakcheck(0);
        assert_eq!(san.counts().leakcheck, 0);
    }

    #[test]
    fn leakcheck_reports_accounting_drift_once() {
        let san = Sanitizer::new(LEAKCHECK);
        // 64 bytes outstanding in the allocator, nothing tracked.
        san.run_leakcheck(64);
        assert_eq!(san.counts().leakcheck, 1);
        assert_eq!(san.report().findings[0].buffer, "<allocator>");
        san.run_leakcheck(64);
        assert_eq!(san.counts().leakcheck, 1, "drift reported once");
    }

    #[test]
    fn valid_bitmap_tracks_words() {
        let sh = BufferShadow::new(130);
        assert!(!sh.is_valid(0));
        assert!(!sh.is_valid(129));
        sh.mark_valid(129);
        assert!(sh.is_valid(129));
        assert!(!sh.is_valid(128));
        sh.mark_valid_all();
        assert!(sh.is_valid(0) && sh.is_valid(128));
    }

    #[test]
    fn valid_prefix_marks_exactly_the_prefix() {
        for len in [0, 1, 63, 64, 65, 129, 130] {
            let sh = BufferShadow::new(130);
            sh.mark_valid_prefix(len);
            for idx in 0..130 {
                assert_eq!(sh.is_valid(idx), idx < len, "len={len} idx={idx}");
            }
        }
    }

    #[test]
    fn finding_display_names_everything() {
        let f = SanitizerFinding {
            analysis: Analysis::Racecheck,
            buffer: "hist".into(),
            kernel: "histogram_kernel".into(),
            launch: 3,
            block: 7,
            index: 42,
            access: AccessKind::Write,
            count: 2,
            detail: "x".into(),
        };
        let s = f.to_string();
        for needle in [
            "racecheck",
            "hist",
            "histogram_kernel",
            "42",
            "block 7",
            "2 occurrences",
        ] {
            assert!(s.contains(needle), "{s:?} missing {needle:?}");
        }
    }
}
