//! The algorithm ↔ device boundary: the [`Backend`] trait.
//!
//! Every top-K algorithm in this workspace is host-orchestration code
//! that allocates device buffers, launches kernels written against the
//! portable block/warp primitives ([`BlockCtx`], [`crate::warp`]), and
//! moves data over a host↔device link. Until this trait existed that
//! code was written directly against the concrete [`Gpu`](crate::Gpu) simulator
//! handle, which made "as fast as the hardware allows" permanently
//! simulated. [`Backend`] splits the contract out:
//!
//! * **[`Backend`]** is the dyn-compatible core a device must provide:
//!   allocation accounting ([`Backend::grant_alloc`]), metered
//!   transfers ([`Backend::charge_htod`] / [`Backend::charge_dtoh`]),
//!   kernel launch with a grid shape ([`Backend::launch_dyn`]), host
//!   time, and *capability hooks* (tracing spans, kernel reports,
//!   sanitizer, fault injection) that default to no-ops so simpler
//!   backends stay honest instead of faking data.
//! * **[`BackendExt`]** is a blanket extension carrying the typed
//!   generic conveniences (`try_alloc::<T>`, `htod`, `dtoh`,
//!   `launch(...)` with a closure) that a trait object cannot hold
//!   directly. It is implemented for every `Backend` including
//!   `dyn Backend`, so algorithm code takes `&mut dyn Backend` and
//!   keeps the exact call surface it had against [`Gpu`](crate::Gpu).
//!
//! Transfers stage data in one pass: [`BackendExt::try_htod`] builds
//! the buffer's cells straight from the host slice (no zeroed buffer
//! filled element by element), and readbacks copy a bounds-checked
//! range. The backend calls keep their order — grant, stage,
//! [`Backend::note_buffer`], [`Backend::charge_htod`] — so allocator
//! accounting and the fault injector's draws (`on_alloc`, then
//! `on_transfer`) are the same as an allocation followed by a copy.
//!
//! [`Gpu`](crate::Gpu) is the **reference implementation**: fully metered, cost
//! modeled, sanitizer- and fault-capable. A real-GPU backend (see the
//! `topk-wgpu` crate, behind the workspace's `wgpu` feature) implements
//! the same trait, executing closure kernels through the portable
//! primitives host-side and offloading the radix-select pipeline to
//! WGSL compute shaders where an adapter exists.
//!
//! Kernels themselves stay portable because they only ever touch the
//! device through [`BlockCtx`] accessors and the pure lane-array
//! collectives in [`crate::warp`] — nothing in a kernel closure names a
//! backend.
//!
//! ```
//! use gpu_sim::{Backend, BackendExt, DeviceSpec, Gpu, LaunchConfig};
//!
//! fn double_on(dev: &mut dyn Backend) -> Vec<u32> {
//!     let buf = dev.htod("xs", &[1u32, 2, 3, 4]);
//!     dev.launch("double", LaunchConfig::grid_1d(1, 32), |ctx| {
//!         for i in 0..4 {
//!             let v = ctx.ld(&buf, i);
//!             ctx.st(&buf, i, v * 2);
//!         }
//!     });
//!     dev.dtoh(&buf)
//! }
//!
//! let mut gpu = Gpu::new(DeviceSpec::test_tiny());
//! assert_eq!(double_on(&mut gpu), vec![2, 4, 6, 8]);
//! ```

use crate::contract::KernelContract;
use crate::device::DeviceSpec;
use crate::error::SimError;
use crate::exec::{BlockCtx, LaunchConfig};
use crate::fault::{FaultEvent, FaultInjector};
use crate::gpu::KernelReport;
use crate::memory::{DeviceBuffer, DeviceScalar};
use crate::profile::Timeline;
use crate::sanitizer::{BufferShadow, SanitizerMode, SanitizerReport, ShadowToken};

/// Outcome of a successful [`Backend::grant_alloc`]: permission to
/// materialise a buffer, plus the sanitizer shadow the backend wants
/// attached to it (when one is armed). Opaque outside `gpu-sim`.
pub struct AllocGrant {
    pub(crate) shadow: Option<BufferShadow>,
}

impl AllocGrant {
    /// A grant with no sanitizer shadow (backends without a sanitizer).
    pub fn plain() -> Self {
        AllocGrant { shadow: None }
    }
}

/// A compute device that can run the workspace's top-K kernels.
///
/// Dyn-compatible: algorithms take `&mut dyn Backend`. The typed
/// conveniences live on [`BackendExt`]. Methods come in two tiers —
/// the required core every backend must implement, and capability
/// hooks with no-op defaults (tracing, sanitizer, fault injection)
/// that only instrumented backends override.
pub trait Backend: Send {
    // ---- identity -----------------------------------------------------

    /// Short backend identifier (`"gpu-sim"`, `"wgpu"`).
    fn backend_name(&self) -> &'static str;

    /// The device specification (SM count, bandwidth, launch overhead…).
    /// Cost-model consumers (the tuner's launch-sequence predictors)
    /// price plans against this, whichever backend runs them.
    fn spec(&self) -> &DeviceSpec;

    // ---- time ---------------------------------------------------------

    /// Device-time elapsed since construction or the last
    /// [`Backend::reset_profile`], µs. Simulated for [`Gpu`](crate::Gpu), measured
    /// for a real backend.
    fn elapsed_us(&self) -> f64;

    /// Account for host-side computation between launches.
    fn host_compute(&mut self, what: &str, us: f64);

    /// An explicit host synchronisation (stream sync).
    fn host_sync(&mut self);

    /// Zero the clock and clear timeline/report history.
    fn reset_profile(&mut self);

    // ---- memory -------------------------------------------------------

    /// Charge `len * elem_bytes` against device memory and return an
    /// [`AllocGrant`] carrying the shadow state to attach (shadows are
    /// per-element, hence the split arguments), or an out-of-memory /
    /// injected-fault error. [`BackendExt::try_alloc`] turns the grant
    /// into a typed [`DeviceBuffer`].
    fn grant_alloc(
        &mut self,
        label: &str,
        len: usize,
        elem_bytes: usize,
    ) -> Result<AllocGrant, SimError>;

    /// Record a buffer materialised from a grant (label, size, and its
    /// sanitizer token). Instrumented backends use this for leakcheck
    /// bookkeeping; the default drops it.
    fn note_buffer(&mut self, _label: &str, _bytes: usize, _token: Option<ShadowToken>) {}

    /// Release raw bytes back to the device allocator (error-path
    /// cleanup guards release whole workspaces this way).
    fn free_bytes(&mut self, bytes: usize);

    /// Device memory currently allocated, bytes.
    fn mem_allocated(&self) -> usize;

    /// Peak device memory allocated, bytes.
    fn mem_high_water(&self) -> usize;

    /// Pay the host→device transfer cost for `bytes`. `fallible`
    /// transfers surface injected corruption as
    /// [`SimError::TransferCorruption`]; infallible ones downgrade it
    /// to a stall. Called after the data is staged, so a backend that
    /// mirrors buffers onto a real device can upload here.
    fn charge_htod(&mut self, label: &str, bytes: usize, fallible: bool) -> Result<(), SimError>;

    /// Pay the device→host readback cost (host sync + link transfer)
    /// for `bytes`. `token` is the source buffer's sanitizer shadow so
    /// freed-buffer readbacks can be flagged; semantics of `fallible`
    /// mirror [`Backend::charge_htod`].
    fn charge_dtoh(
        &mut self,
        label: &str,
        bytes: usize,
        fallible: bool,
        token: Option<&ShadowToken>,
    ) -> Result<(), SimError>;

    // ---- execution ----------------------------------------------------

    /// Launch a kernel over `cfg.grid_dim` blocks of `cfg.block_dim`
    /// threads. The kernel body is written against the portable
    /// [`BlockCtx`] primitives (metered loads/stores, atomics, shared
    /// memory, grid sync) and the [`crate::warp`] collectives, so the
    /// same source runs on every backend that can execute it.
    fn launch_dyn(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        kernel: &(dyn Fn(&mut BlockCtx) + Sync),
    ) -> Result<&KernelReport, SimError>;

    /// Launch a kernel under a [`KernelContract`]: declared access
    /// footprints are statically verified against buffer lengths, the
    /// [`DeviceSpec`] and cross-block write disjointness *before* the
    /// kernel runs, and (when contract conformance is armed) observed
    /// accesses are checked against the declaration dynamically.
    ///
    /// The default ignores the contract and forwards to
    /// [`Backend::launch_dyn`], so un-instrumented backends run
    /// annotated algorithms unchanged; probe
    /// [`Backend::verifies_contracts`] to know whether declarations are
    /// actually enforced.
    fn launch_contract_dyn(
        &mut self,
        contract: &KernelContract,
        cfg: LaunchConfig,
        kernel: &(dyn Fn(&mut BlockCtx) + Sync),
    ) -> Result<&KernelReport, SimError> {
        self.launch_dyn(contract.name(), cfg, kernel)
    }

    /// Whether [`Backend::launch_contract_dyn`] actually verifies
    /// contracts on this backend (capability probe; `false` means
    /// contracts are accepted but ignored).
    fn verifies_contracts(&self) -> bool {
        false
    }

    // ---- capability hooks (default: not supported) --------------------

    /// Attribute subsequent launches to tracing span `span` (0 = none).
    fn set_span(&mut self, _span: u64) {}

    /// Stop attributing launches to a span.
    fn clear_span(&mut self) {}

    /// The span currently attributed to launches (0 = none).
    fn current_span(&self) -> u64 {
        0
    }

    /// All kernel reports since the last reset (empty when the backend
    /// does not keep them).
    fn reports(&self) -> &[KernelReport] {
        &[]
    }

    /// The recorded profiling timeline, if the backend keeps one.
    fn timeline(&self) -> Option<&Timeline> {
        None
    }

    /// Arm the sanitizer (no-op for backends without one).
    fn enable_sanitizer(&mut self, _mode: SanitizerMode) {}

    /// The armed sanitizer analyses (all-off by default).
    fn sanitizer_mode(&self) -> SanitizerMode {
        SanitizerMode::off()
    }

    /// Snapshot of sanitizer findings, or `None` when unsupported.
    fn sanitizer_report(&self) -> Option<SanitizerReport> {
        None
    }

    /// Run the leakcheck analysis now (diff allocator accounting
    /// against live tracked buffers). No-op without a sanitizer.
    fn run_leakcheck(&mut self) {}

    /// Attach a fault injector (no-op for backends without one).
    fn set_fault_injector(&mut self, _injector: FaultInjector) {}

    /// Every fault injected on this device so far (empty by default).
    fn fault_events(&self) -> &[FaultEvent] {
        &[]
    }
}

/// Typed conveniences over [`Backend`], blanket-implemented for every
/// backend *including* `dyn Backend`. Import this alongside `Backend`;
/// algorithm code calls these exactly like the old inherent [`Gpu`](crate::Gpu)
/// methods.
pub trait BackendExt: Backend {
    /// Fallible typed allocation: charge, materialise, register.
    fn try_alloc<T: DeviceScalar>(
        &mut self,
        label: &str,
        len: usize,
    ) -> Result<DeviceBuffer<T>, SimError> {
        let grant = self.grant_alloc(label, len, T::BYTES)?;
        let buf = match grant.shadow {
            Some(shadow) => DeviceBuffer::zeroed_with_shadow(label, len, shadow),
            None => DeviceBuffer::zeroed(label, len),
        };
        self.note_buffer(label, buf.size_bytes(), buf.sanitizer_token());
        Ok(buf)
    }

    /// Panicking wrapper over [`BackendExt::try_alloc`].
    fn alloc<T: DeviceScalar>(&mut self, label: &str, len: usize) -> DeviceBuffer<T> {
        self.try_alloc(label, len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Release a buffer's bytes back to the device allocator and mark
    /// its sanitizer shadow freed (later accesses are use-after-free
    /// findings under memcheck).
    fn free<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>) {
        if let Some(token) = buf.sanitizer_token() {
            token.mark_freed();
        }
        self.free_bytes(buf.size_bytes());
    }

    /// Fallible host→device upload into a fresh buffer.
    ///
    /// One pass: the buffer's cells are built straight from `data` and
    /// its sanitizer shadow (if any) is marked valid once. The order is
    /// grant → stage → [`Backend::note_buffer`] →
    /// [`Backend::charge_htod`], the same as a [`BackendExt::try_alloc`]
    /// followed by a copy, so allocator accounting and the fault
    /// injector's draws (`on_alloc`, then `on_transfer`) are unchanged.
    fn try_htod<T: DeviceScalar>(
        &mut self,
        label: &str,
        data: &[T],
    ) -> Result<DeviceBuffer<T>, SimError> {
        let grant = self.grant_alloc(label, data.len(), T::BYTES)?;
        let buf = DeviceBuffer::staged(label, data, grant.shadow);
        self.note_buffer(label, buf.size_bytes(), buf.sanitizer_token());
        match self.charge_htod(label, buf.size_bytes(), true) {
            Ok(()) => Ok(buf),
            Err(e) => {
                self.free(&buf);
                Err(e)
            }
        }
    }

    /// Panicking wrapper over [`BackendExt::try_htod`].
    fn htod<T: DeviceScalar>(&mut self, label: &str, data: &[T]) -> DeviceBuffer<T> {
        self.try_htod(label, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Copy a small host payload into an *existing* device buffer
    /// (parameter updates in host-driven loops). Only the written
    /// prefix becomes initialised for the sanitizer. Infallible:
    /// injected corruption downgrades to a stall.
    fn htod_into<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, data: &[T]) {
        buf.write_prefix(data);
        match self.charge_htod("htod_into", data.len() * T::BYTES, false) {
            Ok(()) => {}
            Err(_) => unreachable!("infallible htod downgrades corruption"),
        }
    }

    /// Copy a device buffer back to the host (blocking; infallible —
    /// injected corruption downgrades to a stall).
    fn dtoh<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>) -> Vec<T> {
        self.dtoh_range(buf, 0, buf.len())
    }

    /// Copy `len` elements starting at `offset` back to the host: the
    /// readback is charged first, then the range is bounds-checked once
    /// and copied in one pass. An overrun panics with a labeled
    /// [`SimError::OutOfBounds`] description.
    fn dtoh_range<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        offset: usize,
        len: usize,
    ) -> Vec<T> {
        let token = buf.sanitizer_token();
        match self.charge_dtoh(buf.label(), len * T::BYTES, false, token.as_ref()) {
            Ok(()) => {}
            Err(_) => unreachable!("infallible dtoh downgrades corruption"),
        }
        buf.read_range(offset, len)
    }

    /// Fallible device→host readback.
    fn try_dtoh<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>) -> Result<Vec<T>, SimError> {
        self.try_dtoh_range(buf, 0, buf.len())
    }

    /// Fallible counterpart of [`BackendExt::dtoh_range`].
    fn try_dtoh_range<T: DeviceScalar>(
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
        let token = buf.sanitizer_token();
        self.charge_dtoh(buf.label(), len * T::BYTES, true, token.as_ref())?;
        Ok(buf.read_range(offset, len))
    }

    /// Fallible kernel launch; see [`Backend::launch_dyn`].
    fn try_launch<F>(
        &mut self,
        name: &str,
        cfg: LaunchConfig,
        kernel: F,
    ) -> Result<&KernelReport, SimError>
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        self.launch_dyn(name, cfg, &kernel)
    }

    /// Panicking wrapper over [`BackendExt::try_launch`].
    fn launch<F>(&mut self, name: &str, cfg: LaunchConfig, kernel: F) -> &KernelReport
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        match self.launch_dyn(name, cfg, &kernel) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible contract-carrying launch; see
    /// [`Backend::launch_contract_dyn`]. The kernel name comes from the
    /// contract.
    fn try_launch_checked<F>(
        &mut self,
        contract: &KernelContract,
        cfg: LaunchConfig,
        kernel: F,
    ) -> Result<&KernelReport, SimError>
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        self.launch_contract_dyn(contract, cfg, &kernel)
    }

    /// Panicking wrapper over [`BackendExt::try_launch_checked`].
    fn launch_checked<F>(
        &mut self,
        contract: &KernelContract,
        cfg: LaunchConfig,
        kernel: F,
    ) -> &KernelReport
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        match self.launch_contract_dyn(contract, cfg, &kernel) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }
}

impl<B: Backend + ?Sized> BackendExt for B {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::gpu::Gpu;
    use crate::pool::BlockPool;

    fn dev() -> Gpu {
        Gpu::with_pool(DeviceSpec::test_tiny(), BlockPool::new(1))
    }

    /// The whole point: this helper only knows `dyn Backend`.
    fn roundtrip(dev: &mut dyn Backend) -> Vec<u32> {
        let buf = dev.htod("xs", &[5u32, 6, 7]);
        dev.launch("incr", LaunchConfig::grid_1d(1, 32), |ctx| {
            for i in 0..3 {
                let v = ctx.ld(&buf, i);
                ctx.st(&buf, i, v + 1);
            }
        });
        let out = dev.dtoh(&buf);
        dev.free(&buf);
        out
    }

    #[test]
    fn gpu_is_a_backend() {
        let mut g = dev();
        assert_eq!(g.backend_name(), "gpu-sim");
        assert_eq!(roundtrip(&mut g), vec![6, 7, 8]);
        assert_eq!(g.mem_allocated(), 0, "free through the trait works");
        assert_eq!(Backend::reports(&g).len(), 1);
        assert!(Backend::elapsed_us(&g) > 0.0);
    }

    #[test]
    fn trait_alloc_matches_inherent_accounting() {
        let mut g = dev();
        let a = BackendExt::try_alloc::<u32>(&mut g, "a", 64).unwrap();
        assert_eq!(g.mem_allocated(), 256);
        let d: &mut dyn Backend = &mut g;
        let b = d.try_alloc::<f32>("b", 64).unwrap();
        assert_eq!(g.mem_allocated(), 512);
        g.free(&a);
        g.free(&b);
        assert_eq!(g.mem_allocated(), 0);
    }

    #[test]
    fn oob_launch_errors_through_the_trait() {
        let mut g = dev();
        let d: &mut dyn Backend = &mut g;
        let buf = d.htod("small", &[0u32; 4]);
        let err = d
            .try_launch("oob", LaunchConfig::grid_1d(1, 32), |ctx| {
                let _ = ctx.ld(&buf, 99);
            })
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::OutOfBounds {
                len: 4,
                idx: 99,
                ..
            }
        ));
        let err = d.try_launch("bad-cfg", LaunchConfig::grid_1d(0, 32), |_| {});
        assert!(matches!(err, Err(SimError::InvalidLaunch(_))));
    }

    #[test]
    fn fallible_dtoh_range_checks_bounds() {
        let mut g = dev();
        let d: &mut dyn Backend = &mut g;
        let buf = d.htod("xs", &[1u32, 2, 3]);
        assert_eq!(d.try_dtoh_range(&buf, 1, 2).unwrap(), vec![2, 3]);
        assert!(matches!(
            d.try_dtoh_range(&buf, 2, 2),
            Err(SimError::OutOfBounds { .. })
        ));
    }
}
