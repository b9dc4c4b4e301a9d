//! # gpu-sim — a deterministic GPU execution simulator
//!
//! This crate is the hardware substrate for the Rust reproduction of
//! *"Parallel Top-K Algorithms on GPU: A Comprehensive Study and New
//! Methods"* (SC '23). The paper's algorithms are CUDA kernels; this
//! environment has no GPU, so the kernels run against a simulated device
//! instead:
//!
//! * [`DeviceSpec`] describes a GPU (A100 / H100 / A10 presets) — SM
//!   count, HBM bandwidth, kernel-launch overhead, PCIe link, …
//! * [`Gpu`] is the device handle: it allocates [`DeviceBuffer`]s,
//!   performs metered host↔device copies, launches kernels and keeps a
//!   simulated clock plus a [`Timeline`](profile) of events.
//! * Kernels are Rust closures run once per *thread block* (the
//!   granularity CUDA schedules onto SMs). Blocks may execute in
//!   parallel on a host thread pool; correctness does not depend on the
//!   schedule because all device memory is atomic-backed.
//! * [`warp`] provides lockstep 32-lane warp primitives — `ballot`,
//!   shuffles, lane scans and bitonic exchanges — so warp-synchronous
//!   algorithms (WarpSelect, GridSelect) translate directly.
//! * [`cost`] converts *metered* traffic (every buffer access is
//!   counted) into simulated time using an analytic model: occupancy ×
//!   bandwidth for memory, launch overhead per kernel, latency +
//!   bandwidth for PCIe. The paper's speedups are all explained by
//!   these counted quantities, which is what makes the reproduction's
//!   *shapes* faithful even though absolute microseconds are not.
//! * [`sanitizer`] is a compute-sanitizer analogue. Arming it
//!   ([`SanitizerMode::armed`]) runs racecheck, initcheck, memcheck,
//!   contract checks and synccheck over every kernel via the same
//!   metered accessors; leakcheck is a second, separate switch
//!   ([`SanitizerMode::leakcheck`]). Both off costs one branch per
//!   access.
//!
//! ## Quick example
//!
//! ```
//! use gpu_sim::{Gpu, DeviceSpec, LaunchConfig};
//!
//! let mut gpu = Gpu::new(DeviceSpec::a100());
//! let data: Vec<u32> = (0..1024).collect();
//! let buf = gpu.htod("input", &data);
//! let out = gpu.alloc::<u32>("output", 1);
//!
//! // A trivial reduction kernel: each block sums a slice, atomically
//! // accumulating into `out[0]`.
//! let cfg = LaunchConfig::grid_1d(4, 256);
//! gpu.launch("sum", cfg, |ctx| {
//!     let per_block = 1024 / ctx.grid_dim;
//!     let start = ctx.block_idx * per_block;
//!     let mut acc = 0u32;
//!     for i in start..start + per_block {
//!         acc = acc.wrapping_add(ctx.ld(&buf, i));
//!     }
//!     ctx.atomic_add(&out, 0, acc);
//! });
//!
//! let result = gpu.dtoh(&out);
//! assert_eq!(result[0], (0..1024u32).sum::<u32>());
//! assert!(gpu.elapsed_us() > 0.0);
//! ```

pub mod contract;
pub mod cost;
pub mod device;
pub mod error;
pub mod exec;
pub mod fault;
pub mod gpu;
pub mod memory;
pub mod pool;
pub mod profile;
pub mod sanitizer;
pub mod trace;
pub mod warp;

pub use contract::{BufferAccess, ContractIssue, Footprint, KernelContract};
pub use cost::{sequence_cost, CostBreakdown, KernelStats, PlannedLaunch};
pub use device::DeviceSpec;
pub use error::SimError;
pub use exec::{BlockCtx, LaunchConfig, SharedMem, Tile, TileIter};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, ScriptedFault};
pub use gpu::{Gpu, KernelReport};
pub use memory::{AtomicCell, DeviceBuffer, DeviceScalar};
pub use pool::BlockPool;
pub use profile::{
    render_roofline, roofline, Bound, EventKind, RooflineRow, Timeline, TimelineEvent,
};
pub use sanitizer::{
    AccessKind, Analysis, SanitizerCounts, SanitizerFinding, SanitizerMode, SanitizerReport,
    ShadowToken,
};
pub use trace::{to_chrome_trace, TraceBuilder};
