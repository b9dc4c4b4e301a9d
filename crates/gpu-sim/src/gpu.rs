//! The [`Gpu`] device handle: allocation, transfers, launches, clock.
//!
//! Everything an algorithm does to the simulated device flows through
//! this type, which advances the simulated clock using the cost model
//! and records a [`Timeline`] plus per-kernel [`KernelReport`]s for the
//! profiling figures (Fig. 8, Table 3). It is the only device type:
//! algorithms take `&mut Gpu`, and the cost model, fault injector and
//! sanitizer plug in here.
//!
//! Transfers stage data in one pass: [`Gpu::try_htod`] builds the
//! buffer's cells straight from the host slice, and readbacks copy a
//! bounds-checked range. An upload charges the allocator before the
//! link, so the fault injector draws `on_alloc` before `on_transfer`,
//! exactly as an allocation followed by a copy would.

use crate::contract::KernelContract;
use crate::cost::{kernel_cost, memcpy_cost, CostBreakdown, KernelStats};
use crate::device::DeviceSpec;
use crate::error::SimError;
use crate::exec::{validate_launch, BlockCtx, LaunchConfig};
use crate::fault::{FaultEvent, FaultInjector, FaultKind};
use crate::memory::{DeviceBuffer, DeviceScalar};
use crate::pool::BlockPool;
use crate::profile::{EventKind, Timeline};
use crate::sanitizer::{BufferShadow, LaunchScope, Sanitizer, SanitizerMode, SanitizerReport};

/// Everything recorded about one kernel launch.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Kernel name as passed to [`Gpu::launch`].
    pub name: String,
    /// Launch shape.
    pub cfg: LaunchConfig,
    /// Merged traffic/compute meters from all blocks.
    pub stats: KernelStats,
    /// Cost-model output for the launch.
    pub cost: CostBreakdown,
    /// Simulated time at which the kernel started, µs.
    pub start_us: f64,
    /// Tracing span active when the kernel was launched (see
    /// [`Gpu::set_span`]); `0` means unattributed. A serving layer sets
    /// one span per coalesced batch, so every launch can be joined back
    /// to the queries it served.
    pub span: u64,
    /// Sanitizer occurrences attributed to this launch (0 when no
    /// sanitizer is armed). Deduplicated findings live in
    /// [`Gpu::sanitizer_report`]; this is the per-launch delta of the
    /// occurrence counters so a hot kernel can be singled out.
    pub sanitizer_findings: u64,
}

/// A simulated GPU.
///
/// Owns the device spec, the simulated clock, the profiling state and a
/// host thread pool used to execute thread blocks. See the crate-level
/// docs for a usage example.
pub struct Gpu {
    spec: DeviceSpec,
    pool: BlockPool,
    clock_us: f64,
    timeline: Timeline,
    reports: Vec<KernelReport>,
    mem_allocated: usize,
    mem_high_water: usize,
    current_span: u64,
    injector: Option<FaultInjector>,
    sanitizer: Option<Sanitizer>,
}

impl Gpu {
    /// New device with the default (environment-sized) block pool.
    pub fn new(spec: DeviceSpec) -> Self {
        Gpu::with_pool(spec, BlockPool::from_env())
    }

    /// New device with an explicit block pool (e.g. `BlockPool::new(1)`
    /// for fully deterministic sequential block order in tests).
    pub fn with_pool(spec: DeviceSpec, pool: BlockPool) -> Self {
        Gpu {
            spec,
            pool,
            clock_us: 0.0,
            timeline: Timeline::new(),
            reports: Vec::new(),
            mem_allocated: 0,
            mem_high_water: 0,
            current_span: 0,
            injector: None,
            sanitizer: None,
        }
    }

    /// The device specification.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Simulated time elapsed since construction or the last
    /// [`Gpu::reset_profile`], µs.
    pub fn elapsed_us(&self) -> f64 {
        self.clock_us
    }

    /// The recorded timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// All kernel reports since the last reset.
    pub fn reports(&self) -> &[KernelReport] {
        &self.reports
    }

    /// Device memory currently allocated, bytes.
    pub fn mem_allocated(&self) -> usize {
        self.mem_allocated
    }

    /// Peak device memory allocated, bytes.
    pub fn mem_high_water(&self) -> usize {
        self.mem_high_water
    }

    // ---- tracing spans ------------------------------------------------

    /// Attribute subsequent kernel launches to tracing span `span`
    /// (until [`Gpu::clear_span`]). `0` means unattributed. Span ids
    /// come from the caller (`TopKEngine::submit` mints one per query)
    /// and land in every [`KernelReport::span`], linking launches back
    /// to the query or batch that caused them.
    pub fn set_span(&mut self, span: u64) {
        self.current_span = span;
    }

    /// Stop attributing launches to a span.
    pub fn clear_span(&mut self) {
        self.current_span = 0;
    }

    /// The span currently attributed to launches (0 = none).
    pub fn current_span(&self) -> u64 {
        self.current_span
    }

    // ---- fault injection ----------------------------------------------

    /// Attach a [`FaultInjector`]: from now on every allocation, kernel
    /// launch and PCIe transfer consults it and may fail with an
    /// injected [`SimError`]. Faults surface only on the fallible entry
    /// points (`try_*`); the panicking conveniences propagate them as
    /// panics, and the infallible transfer paths downgrade corruption
    /// to a stall.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The attached injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Every fault injected on this device so far, in firing order.
    /// Empty when no injector is attached.
    pub fn fault_events(&self) -> &[FaultEvent] {
        self.injector.as_ref().map_or(&[], |i| i.log())
    }

    // ---- sanitizer ----------------------------------------------------

    /// Attach the sanitizer: buffers allocated from now on get shadow
    /// state; when `mode.armed`, every launch runs every access
    /// analysis. Buffers that already exist stay unshadowed (bounds
    /// are still checked). The sanitizer never touches [`KernelStats`]
    /// or the cost model, so simulated timings are identical with it on
    /// or off.
    pub fn enable_sanitizer(&mut self, mode: SanitizerMode) {
        self.sanitizer = (mode.armed || mode.leakcheck).then(|| Sanitizer::new(mode));
    }

    /// The attached sanitizer when its access analyses are armed.
    fn armed(&self) -> Option<&Sanitizer> {
        self.sanitizer.as_ref().filter(|s| s.mode().armed)
    }

    /// Snapshot of everything the sanitizer observed, or `None` when
    /// no sanitizer is attached.
    pub fn sanitizer_report(&self) -> Option<SanitizerReport> {
        self.sanitizer.as_ref().map(|s| s.report())
    }

    /// Run the sanitizer's leakcheck sweep now: allocations whose last
    /// handle dropped without being freed become `leakcheck` findings,
    /// and allocator accounting that diverged from the tracked buffers
    /// is flagged once. Runs automatically when the device drops (with
    /// a summary on stderr, since the report is unreadable after
    /// drop); call it explicitly to assert on the findings. No-op
    /// unless [`SanitizerMode::leakcheck`] is set — note leakcheck only
    /// tracks buffers allocated *after* it was set.
    pub fn run_leakcheck(&mut self) {
        if let Some(san) = self.sanitizer.as_ref() {
            san.run_leakcheck(self.mem_allocated);
        }
    }

    /// Zero the clock and clear the timeline/report history.
    /// Benchmarks call this after uploading inputs so only the
    /// algorithm under test is timed.
    pub fn reset_profile(&mut self) {
        self.clock_us = 0.0;
        self.timeline.clear();
        self.reports.clear();
    }

    // ---- memory ------------------------------------------------------

    /// Allocate a zeroed device buffer, charging it against device
    /// memory. Panics when the device is out of memory (use
    /// [`Gpu::try_alloc`] to handle it).
    pub fn alloc<T: DeviceScalar>(&mut self, label: &str, len: usize) -> DeviceBuffer<T> {
        self.try_alloc(label, len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible allocation.
    pub fn try_alloc<T: DeviceScalar>(
        &mut self,
        label: &str,
        len: usize,
    ) -> Result<DeviceBuffer<T>, SimError> {
        let buf = match self.grant_alloc(label, len, T::BYTES)? {
            Some(shadow) => DeviceBuffer::zeroed_with_shadow(label, len, shadow),
            None => DeviceBuffer::zeroed(label, len),
        };
        self.register(&buf);
        Ok(buf)
    }

    /// Charge `len * elem_bytes` against device memory, or fail with an
    /// out-of-memory / injected-fault error. Returns the sanitizer
    /// shadow to attach to the new buffer when one is attached (shadows
    /// are per element, hence the split arguments).
    fn grant_alloc(
        &mut self,
        label: &str,
        len: usize,
        elem_bytes: usize,
    ) -> Result<Option<BufferShadow>, SimError> {
        let bytes = len * elem_bytes;
        let available =
            self.spec.device_mem_bytes - self.mem_allocated.min(self.spec.device_mem_bytes);
        if bytes > available {
            return Err(SimError::OutOfDeviceMemory {
                requested: bytes,
                available,
            });
        }
        if let Some(inj) = self.injector.as_mut() {
            if inj.on_alloc(label, self.clock_us) {
                // Injected allocator failure: fragmentation / transient
                // driver refusal despite apparent free memory.
                return Err(SimError::OutOfDeviceMemory {
                    requested: bytes,
                    available,
                });
            }
        }
        self.mem_allocated += bytes;
        self.mem_high_water = self.mem_high_water.max(self.mem_allocated);
        Ok(self.sanitizer.is_some().then(|| BufferShadow::new(len)))
    }

    /// Track a freshly granted buffer for the sanitizer's leakcheck.
    fn register<T: DeviceScalar>(&self, buf: &DeviceBuffer<T>) {
        if let (Some(san), Some(tok)) = (self.sanitizer.as_ref(), buf.sanitizer_token()) {
            san.register_alloc(buf.label(), buf.size_bytes(), tok.shadow);
        }
    }

    /// Release a buffer's bytes back to the device allocator. (The
    /// backing host memory is freed when the last handle drops; this
    /// only updates the simulated allocator accounting.) Under the
    /// sanitizer's memcheck, later accesses through any surviving
    /// handle are use-after-free findings.
    pub fn free<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>) {
        if let Some(token) = buf.sanitizer_token() {
            token.mark_freed();
        }
        self.free_bytes(buf.size_bytes());
    }

    /// Untyped counterpart of [`Gpu::free`]: release raw bytes back to
    /// the allocator. Error-path cleanup guards use this to release a
    /// whole workspace in one call after the typed handles are gone.
    pub fn free_bytes(&mut self, bytes: usize) {
        self.mem_allocated = self.mem_allocated.saturating_sub(bytes);
    }

    /// Split `buf` into `parts` equal consecutive pieces labelled
    /// `label`: the host-side stand-in for handing out device-pointer
    /// offset views. The pieces take over `buf`'s bytes and its
    /// leakcheck registration, with no new grant, fault draw, transfer
    /// or launch, so freeing every piece frees `buf`. Under an armed
    /// sanitizer each piece keeps its words' initcheck state, and `buf`
    /// itself counts as freed.
    ///
    /// # Panics
    /// When `parts` is zero or does not divide `buf.len()`.
    pub fn split<T: DeviceScalar>(
        &mut self,
        buf: DeviceBuffer<T>,
        parts: usize,
        label: &str,
    ) -> Vec<DeviceBuffer<T>> {
        assert!(
            parts > 0 && buf.len().is_multiple_of(parts),
            "cannot split {} elements of {:?} into {parts} equal pieces",
            buf.len(),
            buf.label()
        );
        let width = buf.len() / parts;
        let pieces = (0..parts)
            .map(|p| {
                let shadow = (self.sanitizer.as_ref())
                    .and(buf.shadow())
                    .map(|sh| sh.piece(p * width, width));
                let piece = buf.piece(label, p * width, width, shadow);
                self.register(&piece);
                piece
            })
            .collect();
        if let Some(token) = buf.sanitizer_token() {
            token.mark_freed();
        }
        pieces
    }

    /// Copy host data to a new device buffer, paying PCIe cost. Panics
    /// when the device is out of memory (use [`Gpu::try_htod`] to
    /// handle it).
    pub fn htod<T: DeviceScalar>(&mut self, label: &str, data: &[T]) -> DeviceBuffer<T> {
        self.try_htod(label, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible host-to-device upload. Injected transfer faults
    /// surface here: a stall completes the copy at a fraction of link
    /// speed, a corruption pays the transfer cost, releases the
    /// destination buffer and returns
    /// [`SimError::TransferCorruption`].
    pub fn try_htod<T: DeviceScalar>(
        &mut self,
        label: &str,
        data: &[T],
    ) -> Result<DeviceBuffer<T>, SimError> {
        self.try_htod_rows(label, &[data])
    }

    /// Fallible upload of `rows` laid end to end into one new device
    /// buffer: one allocation grant and one link transfer (so one fault
    /// draw) for the whole set, as a batched caller stages a row-major
    /// matrix with a single `cudaMemcpy`. The device cells are built
    /// straight from the row slices, with no host-side concatenation.
    /// Faults behave as in [`Gpu::try_htod`].
    pub fn try_htod_rows<T: DeviceScalar>(
        &mut self,
        label: &str,
        rows: &[&[T]],
    ) -> Result<DeviceBuffer<T>, SimError> {
        let len = rows.iter().map(|r| r.len()).sum();
        let shadow = self.grant_alloc(label, len, T::BYTES)?;
        let buf = DeviceBuffer::staged(label, rows, shadow);
        self.register(&buf);
        match self.charge_transfer(label, buf.size_bytes(), true, EventKind::MemcpyHtoD) {
            Ok(()) => Ok(buf),
            Err(e) => {
                self.free(&buf);
                Err(e)
            }
        }
    }

    /// Copy a small host payload into an *existing* device buffer
    /// (parameter updates in host-driven loops), paying PCIe cost.
    /// Only the written prefix becomes initialised for the sanitizer.
    /// Infallible, so an injected corruption is downgraded to a stall
    /// (modelled as the link retrying until the payload lands).
    pub fn htod_into<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, data: &[T]) {
        buf.write_prefix(data);
        match self.charge_transfer(
            "htod_into",
            data.len() * T::BYTES,
            false,
            EventKind::MemcpyHtoD,
        ) {
            Ok(()) => {}
            Err(_) => unreachable!("infallible htod downgrades corruption"),
        }
    }

    /// Copy a device buffer back to the host. A blocking copy: pays a
    /// host synchronisation plus the PCIe transfer, like
    /// `cudaMemcpy(DtoH)` on the default stream. Infallible: an
    /// injected corruption is downgraded to a stall (use
    /// [`Gpu::try_dtoh`] to observe corruption as an error).
    pub fn dtoh<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>) -> Vec<T> {
        self.dtoh_range(buf, 0, buf.len())
    }

    /// Copy `len` elements starting at `offset` back to the host: the
    /// readback is charged first, then the range is bounds-checked once
    /// and copied in one pass. An overrun panics with a labeled
    /// [`SimError::OutOfBounds`] description.
    pub fn dtoh_range<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        offset: usize,
        len: usize,
    ) -> Vec<T> {
        match self.charge_dtoh(buf, len, false) {
            Ok(()) => {}
            Err(_) => unreachable!("infallible dtoh downgrades corruption"),
        }
        buf.read_range(offset, len)
    }

    /// Fallible device-to-host readback: an injected stall slows the
    /// copy, an injected corruption surfaces as
    /// [`SimError::TransferCorruption`] (the partial host copy is
    /// discarded; device state is untouched).
    pub fn try_dtoh<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>) -> Result<Vec<T>, SimError> {
        self.try_dtoh_range(buf, 0, buf.len())
    }

    /// Fallible counterpart of [`Gpu::dtoh_range`]: an overrun is an
    /// [`SimError::OutOfBounds`] error, checked before anything is
    /// charged.
    pub fn try_dtoh_range<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        offset: usize,
        len: usize,
    ) -> Result<Vec<T>, SimError> {
        if offset + len > buf.len() {
            return Err(SimError::OutOfBounds {
                buffer: buf.label().to_string(),
                idx: offset + len - 1,
                len: buf.len(),
            });
        }
        self.charge_dtoh(buf, len, true)?;
        Ok(buf.read_range(offset, len))
    }

    /// Pay a readback of `len` elements of `buf`: flag a read of a
    /// freed buffer, sync the host, then charge the link.
    fn charge_dtoh<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        len: usize,
        fallible: bool,
    ) -> Result<(), SimError> {
        if let (Some(san), Some(tok)) = (self.armed(), buf.sanitizer_token()) {
            if tok.shadow.is_freed() {
                san.record_host_uaf(buf.label(), "device-to-host readback");
            }
        }
        self.host_sync();
        self.charge_transfer(buf.label(), len * T::BYTES, fallible, EventKind::MemcpyDtoH)
    }

    /// Pay the link cost of one `bytes`-sized copy and record it on the
    /// timeline as `kind`. The fault injector draws once per copy: a
    /// stall multiplies the time; a corruption is an error when
    /// `fallible`, and otherwise downgrades to a stall.
    fn charge_transfer(
        &mut self,
        label: &str,
        bytes: usize,
        fallible: bool,
        kind: EventKind,
    ) -> Result<(), SimError> {
        let mut t = memcpy_cost(&self.spec, bytes);
        let fault = self
            .injector
            .as_mut()
            .and_then(|inj| inj.on_transfer(label, self.clock_us));
        let corrupted = fault == Some(FaultKind::TransferCorruption);
        if fault == Some(FaultKind::TransferStall) || (corrupted && !fallible) {
            t *= self
                .injector
                .as_ref()
                .expect("fault implies injector")
                .stall_multiplier();
        }
        self.timeline.push(kind, self.clock_us, t);
        self.clock_us += t;
        if corrupted && fallible {
            return Err(SimError::TransferCorruption { bytes });
        }
        Ok(())
    }

    // ---- execution ----------------------------------------------------

    /// Launch a kernel: run `kernel` once per block (possibly on
    /// multiple host threads), meter its activity, advance the clock by
    /// launch overhead + modelled execution time, and record a report.
    ///
    /// Back-to-back launches pipeline: when the immediately preceding
    /// timeline event is another kernel (no host sync, copy or compute
    /// in between), only the small GPU-side `kernel_gap_us` is paid
    /// instead of the full CPU launch overhead — the asynchronous
    /// stream behaviour that makes AIR Top-K's four enqueued kernels
    /// nearly gapless (Fig. 8) while host-driven loops pay full price
    /// every time.
    pub fn launch<F>(&mut self, name: &str, cfg: LaunchConfig, kernel: F) -> &KernelReport
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        self.try_launch(name, cfg, kernel)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible launch: reports launch-configuration errors (grid/block
    /// limits, shared-memory overflow) instead of panicking.
    pub fn try_launch<F>(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        kernel: F,
    ) -> Result<&KernelReport, SimError>
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        self.launch_impl(name, cfg, &kernel, None)
    }

    /// Launch a kernel under a [`KernelContract`]: the declared access
    /// footprints are verified statically before the kernel runs (see
    /// [`KernelContract::verify`]), and under an armed sanitizer every
    /// observed access is checked against the declaration. The kernel
    /// name comes from the contract. Panics on violation when no
    /// sanitizer is armed to absorb the finding.
    pub fn launch_checked<F>(
        &mut self,
        contract: &KernelContract,
        cfg: LaunchConfig,
        kernel: F,
    ) -> &KernelReport
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        self.try_launch_checked(contract, cfg, kernel)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`Gpu::launch_checked`]: a contract that
    /// fails static verification surfaces as
    /// [`SimError::ContractViolation`] unless the sanitizer is
    /// [`SanitizerMode::armed`]; armed, violations become deduplicated
    /// `contract` findings and the launch proceeds.
    pub fn try_launch_checked<F>(
        &mut self,
        contract: &KernelContract,
        cfg: LaunchConfig,
        kernel: F,
    ) -> Result<&KernelReport, SimError>
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        self.launch_impl(contract.name(), cfg, &kernel, Some(contract))
    }

    fn launch_impl(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        kernel: &(dyn Fn(&mut BlockCtx) + Sync),
        contract: Option<&KernelContract>,
    ) -> Result<&KernelReport, SimError> {
        validate_launch(&self.spec, &cfg)?;

        if let Some(fault) = self
            .injector
            .as_mut()
            .and_then(|inj| inj.on_launch(name, self.clock_us))
        {
            return Err(self.launch_fault(name, fault));
        }

        let findings_before = self.sanitizer.as_ref().map_or(0, |s| s.counts().total());
        // Static contract verification: runs before the kernel executes,
        // so a bad footprint is caught even for shapes the dynamic
        // sanitizer never observes. With an armed sanitizer the
        // issues become findings and the launch proceeds (the dynamic
        // analyses still watch it); without one they are hard errors,
        // like an invalid launch configuration.
        if let Some(c) = contract {
            let issues = c.verify(&self.spec, &cfg);
            if !issues.is_empty() {
                match self.armed() {
                    Some(san) => {
                        for issue in &issues {
                            san.record_static_violation(name, &issue.buffer, issue.detail.clone());
                        }
                    }
                    None => {
                        let first = &issues[0];
                        return Err(SimError::ContractViolation {
                            kernel: name.to_string(),
                            detail: format!("{}: {}", first.buffer, first.detail),
                        });
                    }
                }
            }
        }
        let stats = {
            let scope = self
                .armed()
                .map(|san| LaunchScope::new(san, name, contract.map(|c| (c, cfg.grid_dim))));
            let stats = self.pool.run(&self.spec, cfg, scope.as_ref(), kernel)?;
            if let Some(s) = scope.as_ref() {
                s.check_barrier_divergence();
            }
            stats
        };
        let sanitizer_findings = self
            .sanitizer
            .as_ref()
            .map_or(0, |s| s.counts().total() - findings_before);
        let mut cost = kernel_cost(&self.spec, cfg.grid_dim, cfg.block_dim, &stats);
        if let Some(inj) = self.injector.as_ref() {
            cost.exec_us *= inj.exec_multiplier();
        }
        let pipelined = matches!(
            self.timeline.events().last().map(|e| &e.kind),
            Some(EventKind::Kernel(_))
        );
        if pipelined {
            cost.launch_us = self.spec.kernel_gap_us;
        }

        self.timeline
            .push(EventKind::LaunchOverhead, self.clock_us, cost.launch_us);
        self.clock_us += cost.launch_us;
        let start = self.clock_us;
        self.timeline
            .push(EventKind::Kernel(name.to_string()), start, cost.exec_us);
        self.clock_us += cost.exec_us;

        self.reports.push(KernelReport {
            name: name.to_string(),
            cfg,
            stats,
            cost,
            start_us: start,
            span: self.current_span,
            sanitizer_findings,
        });
        Ok(self.reports.last().expect("report just pushed"))
    }

    /// Charge the simulated cost of an injected launch-site fault and
    /// build its error. [`FaultKind::WorkerPanic`] panics instead —
    /// modelling a driver crash taking the calling thread down — which
    /// is exactly what a serving layer's panic isolation must survive.
    fn launch_fault(&mut self, name: &str, fault: FaultKind) -> SimError {
        match fault {
            FaultKind::WorkerPanic => {
                panic!("injected device fault: driver crash during launch of {name:?}")
            }
            FaultKind::LaunchFail => {
                // The driver rejects the launch after the host paid the
                // submission overhead; nothing runs on the device.
                let t = self.spec.kernel_launch_us;
                self.timeline
                    .push(EventKind::LaunchOverhead, self.clock_us, t);
                self.clock_us += t;
                SimError::KernelLaunchFault {
                    kernel: name.to_string(),
                }
            }
            FaultKind::TransientCompute => {
                // The kernel starts and aborts partway: the device
                // burns launch overhead plus the minimum kernel time,
                // and the outputs are undefined (the simulated kernel
                // body never runs, so callers must discard them).
                let launch = self.spec.kernel_launch_us;
                self.timeline
                    .push(EventKind::LaunchOverhead, self.clock_us, launch);
                self.clock_us += launch;
                let t = self.spec.kernel_floor_us;
                self.timeline.push(
                    EventKind::Kernel(format!("{name} [faulted]")),
                    self.clock_us,
                    t,
                );
                self.clock_us += t;
                SimError::TransientFault {
                    kernel: name.to_string(),
                }
            }
            FaultKind::DeviceHang => {
                // The kernel never completes; the host blocks until the
                // modelled watchdog kills it.
                let timeout_us = self
                    .injector
                    .as_ref()
                    .expect("hang fault implies injector")
                    .hang_timeout_us();
                self.timeline.push(
                    EventKind::HostCompute(format!("watchdog timeout: {name}")),
                    self.clock_us,
                    timeout_us as f64,
                );
                self.clock_us += timeout_us as f64;
                SimError::DeviceHang { timeout_us }
            }
            other => unreachable!("{other:?} is not a launch-site fault"),
        }
    }

    // ---- host-side time -----------------------------------------------

    /// Account for host-side computation between launches (the GPU sits
    /// idle). Classic RadixSelect computes prefix sums on the host this
    /// way; AIR Top-K never calls it.
    pub fn host_compute(&mut self, what: &str, us: f64) {
        self.timeline
            .push(EventKind::HostCompute(what.to_string()), self.clock_us, us);
        self.clock_us += us;
    }

    /// An explicit host synchronisation (stream sync).
    pub fn host_sync(&mut self) {
        let t = self.spec.host_sync_us;
        self.timeline.push(EventKind::HostSync, self.clock_us, t);
        self.clock_us += t;
    }
}

impl Drop for Gpu {
    /// Final leakcheck sweep: buffers that went out of scope without a
    /// free are reported to stderr (the structured report can no
    /// longer be read once the device is gone). Buffers still held by
    /// live handles at this point are reclaimed by device teardown,
    /// like a real driver context, and are not leaks.
    fn drop(&mut self) {
        let Some(san) = self.sanitizer.as_ref() else {
            return;
        };
        if !san.mode().leakcheck {
            return;
        }
        let before = san.counts().leakcheck;
        san.run_leakcheck(self.mem_allocated);
        let report = san.report();
        if report.counts.leakcheck > before {
            eprintln!(
                "gpu-sim leakcheck: {} finding(s) at drop of device {:?}:",
                report.counts.leakcheck - before,
                self.spec.name
            );
            for f in report
                .findings
                .iter()
                .filter(|f| f.analysis == crate::sanitizer::Analysis::Leakcheck)
            {
                eprintln!("  {f}");
            }
        }
    }
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("spec", &self.spec.name)
            .field("clock_us", &self.clock_us)
            .field("kernels", &self.reports.len())
            .field("mem_allocated", &self.mem_allocated)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Gpu {
        Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(1))
    }

    #[test]
    fn launch_advances_clock_and_records() {
        let mut g = gpu();
        let buf = g.htod("in", &(0..256u32).collect::<Vec<_>>());
        let t0 = g.elapsed_us();
        assert!(t0 > 0.0, "htod must cost time");
        g.launch("noop_scan", LaunchConfig::grid_1d(2, 128), |ctx| {
            for i in 0..128 {
                let _ = ctx.ld(&buf, ctx.block_idx * 128 + i);
            }
        });
        assert!(g.elapsed_us() >= t0 + g.spec().kernel_launch_us + g.spec().kernel_floor_us);
        assert_eq!(g.reports().len(), 1);
        let r = &g.reports()[0];
        assert_eq!(r.stats.bytes_read, 256 * 4);
        assert_eq!(g.timeline().kernel_count(), 1);
    }

    #[test]
    fn dtoh_pays_sync_and_latency() {
        let mut g = gpu();
        let buf = g.htod("x", &[1u32, 2, 3]);
        g.reset_profile();
        let v = g.dtoh(&buf);
        assert_eq!(v, vec![1, 2, 3]);
        let expected = g.spec().host_sync_us + g.spec().pcie_latency_us;
        assert!(g.elapsed_us() >= expected);
        assert!(g.timeline().idle_us() >= g.spec().host_sync_us);
    }

    #[test]
    fn reset_profile_zeroes_everything() {
        let mut g = gpu();
        let _ = g.htod("x", &[0u32; 16]);
        g.host_sync();
        assert!(g.elapsed_us() > 0.0);
        g.reset_profile();
        assert_eq!(g.elapsed_us(), 0.0);
        assert!(g.timeline().events().is_empty());
        assert!(g.reports().is_empty());
    }

    #[test]
    fn allocator_tracks_and_frees() {
        let mut g = Gpu::with_pool(DeviceSpec::test_tiny(), BlockPool::new(1));
        let b = g.alloc::<u32>("a", 1024);
        assert_eq!(g.mem_allocated(), 4096);
        g.free(&b);
        assert_eq!(g.mem_allocated(), 0);
        assert_eq!(g.mem_high_water(), 4096);
    }

    #[test]
    fn allocator_oom() {
        let mut g = Gpu::with_pool(DeviceSpec::test_tiny(), BlockPool::new(1));
        let too_big = g.spec().device_mem_bytes / 4 + 1;
        assert!(matches!(
            g.try_alloc::<u32>("big", too_big),
            Err(SimError::OutOfDeviceMemory { .. })
        ));
        // A fitting allocation still works afterwards.
        assert!(g.try_alloc::<u32>("ok", 10).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid launch")]
    fn bad_launch_panics() {
        let mut g = gpu();
        g.launch("bad", LaunchConfig::grid_1d(1, 33), |_| {});
    }

    #[test]
    fn launches_carry_the_active_span() {
        let mut g = gpu();
        let buf = g.htod("in", &[0u32; 64]);
        g.launch("untagged", LaunchConfig::grid_1d(1, 32), |ctx| {
            let _ = ctx.ld(&buf, 0);
        });
        g.set_span(42);
        assert_eq!(g.current_span(), 42);
        g.launch("tagged", LaunchConfig::grid_1d(1, 32), |ctx| {
            let _ = ctx.ld(&buf, 0);
        });
        g.clear_span();
        g.launch("untagged2", LaunchConfig::grid_1d(1, 32), |ctx| {
            let _ = ctx.ld(&buf, 0);
        });
        let spans: Vec<u64> = g.reports().iter().map(|r| r.span).collect();
        assert_eq!(spans, vec![0, 42, 0]);
    }

    #[test]
    fn htod_into_updates_in_place() {
        let mut g = gpu();
        let buf = g.alloc::<u32>("params", 4);
        g.htod_into(&buf, &[7, 8]);
        assert_eq!(buf.get(0), 7);
        assert_eq!(buf.get(1), 8);
        assert_eq!(buf.get(2), 0);
    }

    #[test]
    fn fallible_dtoh_range_checks_bounds() {
        let mut g = Gpu::with_pool(DeviceSpec::test_tiny(), BlockPool::new(1));
        let buf = g.htod("xs", &[1u32, 2, 3]);
        assert_eq!(g.try_dtoh_range(&buf, 1, 2).unwrap(), vec![2, 3]);
        assert!(matches!(
            g.try_dtoh_range(&buf, 2, 2),
            Err(SimError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn host_compute_shows_as_idle() {
        let mut g = gpu();
        g.host_compute("prefix sum", 12.5);
        assert_eq!(g.timeline().idle_us(), 12.5);
        assert!((g.elapsed_us() - 12.5).abs() < 1e-12);
    }

    // ---- leakcheck -----------------------------------------------------

    const ARMED: SanitizerMode = SanitizerMode {
        armed: true,
        leakcheck: false,
    };
    const ARMED_LEAKCHECK: SanitizerMode = SanitizerMode {
        armed: true,
        leakcheck: true,
    };

    #[test]
    fn split_pieces_carry_the_registration_and_the_bytes() {
        let mut g = Gpu::with_pool(DeviceSpec::test_tiny(), BlockPool::new(1));
        g.enable_sanitizer(ARMED_LEAKCHECK);
        let packed = g.htod("packed", &[1u32, 2, 3, 4, 5, 6]);
        let (allocated, htod) = (g.mem_allocated(), g.timeline().memcpy_us());
        let pieces = g.split(packed, 3, "row");
        assert_eq!(g.mem_allocated(), allocated, "no new grant");
        assert_eq!(g.timeline().memcpy_us(), htod, "no transfer");
        let rows: Vec<_> = pieces.iter().map(|p| (p.label(), p.to_vec())).collect();
        assert_eq!(
            rows,
            [
                ("row", vec![1, 2]),
                ("row", vec![3, 4]),
                ("row", vec![5, 6])
            ]
        );
        // The pieces read as initialised, and freeing them all leaves
        // nothing behind.
        let out = g.alloc::<u32>("out", 1);
        let piece = pieces[2].clone();
        let o = out.clone();
        g.launch("read_piece", LaunchConfig::grid_1d(1, 32), move |ctx| {
            let v = ctx.ld(&piece, 1);
            ctx.st(&o, 0, v);
        });
        assert_eq!(out.get(0), 6);
        g.free(&out);
        for p in &pieces {
            g.free(p);
        }
        drop(pieces);
        g.run_leakcheck();
        let report = g.sanitizer_report().expect("armed");
        assert_eq!(report.counts.total(), 0, "{:?}", report.findings);
        assert_eq!(g.mem_allocated(), 0);
    }

    #[test]
    fn leakcheck_flags_dropped_buffer_and_stays_quiet_on_freed() {
        let mut g = Gpu::with_pool(DeviceSpec::test_tiny(), BlockPool::new(1));
        g.enable_sanitizer(ARMED_LEAKCHECK);
        {
            let leaked = g.alloc::<u32>("leaked", 64);
            let freed = g.alloc::<u32>("freed", 64);
            g.free(&freed);
            let _ = leaked; // dropped here without a free
        }
        g.run_leakcheck();
        let report = g.sanitizer_report().expect("armed");
        assert_eq!(report.counts.leakcheck, 1);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].buffer, "leaked");
        assert!(report.findings[0].detail.contains("256 bytes"));
        // Sweep is idempotent, and drop won't re-report.
        g.run_leakcheck();
        assert_eq!(
            g.sanitizer_report().expect("armed").counts.leakcheck,
            1,
            "second sweep reports nothing new"
        );
    }

    #[test]
    fn leakcheck_live_handles_are_not_leaks() {
        let mut g = Gpu::with_pool(DeviceSpec::test_tiny(), BlockPool::new(1));
        g.enable_sanitizer(SanitizerMode {
            armed: false,
            leakcheck: true,
        });
        let held = g.alloc::<u32>("held", 16);
        g.run_leakcheck();
        assert_eq!(g.sanitizer_report().expect("armed").counts.leakcheck, 0);
        g.free(&held);
        g.run_leakcheck();
        assert_eq!(g.sanitizer_report().expect("armed").counts.leakcheck, 0);
    }

    #[test]
    fn arming_leaves_leakcheck_off() {
        let mut g = Gpu::with_pool(DeviceSpec::test_tiny(), BlockPool::new(1));
        g.enable_sanitizer(ARMED);
        {
            let _dropped = g.alloc::<u32>("dropped", 16);
        }
        g.run_leakcheck();
        assert_eq!(g.sanitizer_report().expect("armed").counts.leakcheck, 0);
    }

    // ---- fault injection ----------------------------------------------

    use crate::fault::{FaultPlan, ScriptedFault};

    fn faulty_gpu(plan: FaultPlan) -> Gpu {
        let mut g = gpu();
        g.set_fault_injector(plan.injector_for(0));
        g
    }

    #[test]
    fn injected_oom_fails_alloc_without_leaking_accounting() {
        let plan = FaultPlan::seeded(1).with_scripted(ScriptedFault {
            device: 0,
            kind: FaultKind::Oom,
            nth: 1,
        });
        let mut g = faulty_gpu(plan);
        let a = g.try_alloc::<u32>("a", 64).expect("first alloc fine");
        let before = g.mem_allocated();
        assert!(matches!(
            g.try_alloc::<u32>("b", 64),
            Err(SimError::OutOfDeviceMemory { .. })
        ));
        assert_eq!(g.mem_allocated(), before, "failed alloc must not charge");
        assert_eq!(g.fault_events().len(), 1);
        g.free(&a);
    }

    #[test]
    fn injected_launch_faults_surface_as_errors_and_cost_time() {
        let plan = FaultPlan::seeded(2)
            .with_scripted(ScriptedFault {
                device: 0,
                kind: FaultKind::LaunchFail,
                nth: 0,
            })
            .with_scripted(ScriptedFault {
                device: 0,
                kind: FaultKind::DeviceHang,
                nth: 1,
            });
        let mut g = faulty_gpu(plan);
        let buf = g.htod("in", &[0u32; 64]);
        let t0 = g.elapsed_us();
        let err = g
            .try_launch("k", LaunchConfig::grid_1d(1, 32), |ctx| {
                let _ = ctx.ld(&buf, 0);
            })
            .unwrap_err();
        assert!(matches!(err, SimError::KernelLaunchFault { .. }));
        assert!(g.elapsed_us() > t0, "rejected launch still costs time");
        assert!(g.reports().is_empty(), "no report for a failed launch");

        let t1 = g.elapsed_us();
        let err = g
            .try_launch("k", LaunchConfig::grid_1d(1, 32), |ctx| {
                let _ = ctx.ld(&buf, 0);
            })
            .unwrap_err();
        assert_eq!(err, SimError::DeviceHang { timeout_us: 50_000 });
        assert!(g.elapsed_us() >= t1 + 50_000.0, "hang burns the timeout");

        // Third launch succeeds: the device recovered.
        assert!(g
            .try_launch("k", LaunchConfig::grid_1d(1, 32), |ctx| {
                let _ = ctx.ld(&buf, 0);
            })
            .is_ok());
        assert_eq!(g.fault_events().len(), 2);
    }

    #[test]
    #[should_panic(expected = "injected device fault")]
    fn injected_worker_panic_panics() {
        let plan = FaultPlan::seeded(3).with_scripted(ScriptedFault {
            device: 0,
            kind: FaultKind::WorkerPanic,
            nth: 0,
        });
        let mut g = faulty_gpu(plan);
        let _ = g.try_launch("k", LaunchConfig::grid_1d(1, 32), |_| {});
    }

    #[test]
    fn corruption_fails_try_htod_and_releases_memory() {
        let plan = FaultPlan::seeded(4).with_scripted(ScriptedFault {
            device: 0,
            kind: FaultKind::TransferCorruption,
            nth: 0,
        });
        let mut g = faulty_gpu(plan);
        assert!(matches!(
            g.try_htod("in", &[0u32; 64]),
            Err(SimError::TransferCorruption { bytes: 256 })
        ));
        assert_eq!(g.mem_allocated(), 0, "corrupted upload must not leak");
        // Next transfer is clean.
        assert!(g.try_htod("in", &[0u32; 64]).is_ok());
    }

    // ---- row uploads ---------------------------------------------------

    /// Rows of 40, 0 and 50 words: the boundary at 40 falls inside the
    /// sanitizer's first 64-word validity word, the end in its second.
    fn rows() -> (Vec<u32>, Vec<u32>) {
        ((0..40).collect(), (40..90).collect())
    }

    #[test]
    fn htod_rows_is_initialised_across_row_boundaries() {
        let (a, b) = rows();
        let read_all = |g: &mut Gpu, buf: &DeviceBuffer<u32>| {
            g.launch("read_all", LaunchConfig::grid_1d(1, 32), |ctx| {
                for i in 0..buf.len() {
                    let _ = ctx.ld(buf, i);
                }
            });
            g.sanitizer_report().expect("armed").counts.initcheck
        };
        let mut g = gpu();
        g.enable_sanitizer(ARMED);
        let buf = g.try_htod_rows("rows", &[&a, &[], &b]).unwrap();
        assert_eq!(buf.to_vec(), (0..90).collect::<Vec<u32>>());
        assert_eq!(read_all(&mut g, &buf), 0);
        // The check is live: an unwritten allocation of the same size
        // is flagged.
        let unwritten = g.alloc::<u32>("unwritten", 90);
        assert!(read_all(&mut g, &unwritten) > 0);
    }

    #[test]
    fn corruption_fails_try_htod_rows_and_releases_memory() {
        let plan = FaultPlan::seeded(4).with_scripted(ScriptedFault {
            device: 0,
            kind: FaultKind::TransferCorruption,
            nth: 0,
        });
        let mut g = faulty_gpu(plan);
        g.enable_sanitizer(ARMED_LEAKCHECK);
        let (a, b) = rows();
        assert_eq!(
            g.try_htod_rows("rows", &[&a, &b]).unwrap_err(),
            SimError::TransferCorruption { bytes: 360 }
        );
        assert_eq!(g.mem_allocated(), 0, "corrupted upload must not leak");
        assert_eq!(g.fault_events().len(), 1, "one draw for the whole upload");
        g.run_leakcheck();
        assert_eq!(g.sanitizer_report().expect("armed").counts.leakcheck, 0);
    }

    #[test]
    fn an_oom_grant_fails_try_htod_rows_without_charging_anything() {
        let mut g = Gpu::with_pool(DeviceSpec::test_tiny(), BlockPool::new(1));
        g.enable_sanitizer(ARMED_LEAKCHECK);
        let half = vec![0u32; g.spec().device_mem_bytes / 8 + 1];
        assert!(matches!(
            g.try_htod_rows("rows", &[&half, &half]),
            Err(SimError::OutOfDeviceMemory { .. })
        ));
        assert_eq!(g.mem_allocated(), 0);
        assert!(g.timeline().events().is_empty(), "no transfer was paid");
        g.run_leakcheck();
        assert_eq!(g.sanitizer_report().expect("armed").counts.leakcheck, 0);
    }

    #[test]
    fn htod_rows_matches_htod_of_the_concatenation() {
        let (a, b) = rows();
        let mut rows_gpu = gpu();
        let by_rows = rows_gpu.try_htod_rows("in", &[&a, &b]).unwrap();
        let mut flat_gpu = gpu();
        let flat = flat_gpu.try_htod("in", &[a, b].concat()).unwrap();
        assert_eq!(by_rows.to_vec(), flat.to_vec());
        assert_eq!(by_rows.label(), flat.label());
        assert_eq!(rows_gpu.mem_allocated(), flat_gpu.mem_allocated());
        assert_eq!(rows_gpu.timeline().events(), flat_gpu.timeline().events());
        assert_eq!(rows_gpu.elapsed_us(), flat_gpu.elapsed_us());
    }

    #[test]
    fn corruption_downgrades_to_stall_on_infallible_dtoh() {
        let plan = FaultPlan::seeded(5).with_scripted(ScriptedFault {
            device: 0,
            kind: FaultKind::TransferCorruption,
            nth: 1, // transfer 0 is the htod below
        });
        let mut g = faulty_gpu(plan);
        let buf = g.htod("x", &[7u32; 1024]);
        let t0 = g.elapsed_us();
        let v = g.dtoh(&buf); // must not panic
        assert_eq!(v.len(), 1024);
        let stalled = g.elapsed_us() - t0;

        // The same copy without a fault is much cheaper.
        let mut clean = gpu();
        let cbuf = clean.htod("x", &[7u32; 1024]);
        clean.reset_profile();
        let _ = clean.dtoh(&cbuf);
        assert!(
            stalled > clean.elapsed_us() * 2.0,
            "stall must be visible: {stalled} vs {}",
            clean.elapsed_us()
        );
    }

    #[test]
    fn slow_device_scales_kernel_time_only() {
        let run = |slow: bool| {
            let mut g = gpu();
            if slow {
                let plan = FaultPlan::seeded(6).with_scripted(ScriptedFault {
                    device: 0,
                    kind: FaultKind::SlowDevice,
                    nth: 0,
                });
                g.set_fault_injector(plan.injector_for(0));
            }
            let buf = g.htod("in", &(0..4096u32).collect::<Vec<_>>());
            g.reset_profile();
            g.launch("scan", LaunchConfig::grid_1d(4, 256), |ctx| {
                for i in 0..1024 {
                    let _ = ctx.ld(&buf, ctx.block_idx * 1024 + i);
                }
            });
            g.reports()[0].cost.exec_us
        };
        let fast = run(false);
        let slow = run(true);
        assert!((slow / fast - 4.0).abs() < 1e-6, "{slow} vs {fast}");
    }
}
