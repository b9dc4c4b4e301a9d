//! The analytic cost model.
//!
//! Converts *metered* kernel activity ([`KernelStats`]) into simulated
//! time on a given [`DeviceSpec`](crate::device). The model is
//! deliberately simple — a roofline over memory and compute with an
//! occupancy derating — because every effect the paper measures is
//! explained by quantities this model captures:
//!
//! * **memory traffic** (iteration fusion cuts loads 8N→5N, §3.1; the
//!   adaptive strategy skips candidate stores, §3.2),
//! * **kernel-launch count** (16 → 4 launches, Fig. 2/3),
//! * **PCIe round-trips and host syncs** (the white space in Fig. 8),
//! * **occupancy** (1 warp / 1 block / whole grid — WarpSelect vs.
//!   BlockSelect vs. GridSelect, §5.3 and Fig. 7).
//!
//! Kernel time is
//! `max(floor, bytes/(BW·occ_mem), ops/(Gops·occ_comp))`, where
//! `occ = min(1, active_warps / warps_to_saturate)`; each launch also
//! pays a fixed CPU-side overhead. See `DESIGN.md §5`.

use crate::device::{DeviceSpec, WARP_SIZE};
use crate::exec::LaunchConfig;

/// Metered activity of one kernel launch, accumulated across all of its
/// thread blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Bytes read with coalesced (streaming) access.
    pub bytes_read: u64,
    /// Bytes written with coalesced (streaming) access.
    pub bytes_written: u64,
    /// Bytes of *transaction* traffic caused by scattered (uncoalesced)
    /// accesses: each access is charged a whole transaction sector.
    pub bytes_scattered: u64,
    /// Number of global-memory atomic operations.
    pub atomic_ops: u64,
    /// Scalar compute operations executed.
    pub compute_ops: u64,
    /// Shared-memory bytes allocated by the most demanding block.
    pub shared_mem_bytes: u64,
}

impl KernelStats {
    /// Total bytes of device-memory traffic, including the transaction
    /// overhead of scattered accesses and atomics (one 4-byte word each,
    /// charged as read-modify-write).
    pub fn total_mem_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written + self.bytes_scattered + self.atomic_ops * 8
    }

    /// Merge another block's stats into this accumulator.
    pub fn merge(&mut self, other: &KernelStats) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.bytes_scattered += other.bytes_scattered;
        self.atomic_ops += other.atomic_ops;
        self.compute_ops += other.compute_ops;
        self.shared_mem_bytes = self.shared_mem_bytes.max(other.shared_mem_bytes);
    }
}

/// Where a kernel's simulated time went, plus the utilisation metrics
/// reported in the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Time the kernel occupies the device, µs (excludes launch
    /// overhead).
    pub exec_us: f64,
    /// Fixed launch overhead, µs.
    pub launch_us: f64,
    /// Memory-limited time component, µs.
    pub mem_us: f64,
    /// Compute-limited time component, µs.
    pub compute_us: f64,
    /// Occupancy in [0, 1]: resident warps / warps-to-saturate.
    pub occupancy: f64,
    /// "Memory SOL": achieved fraction of peak DRAM bandwidth over the
    /// kernel's execution window (Nsight Compute's Speed-Of-Light
    /// throughput metric, Table 3).
    pub memory_sol: f64,
    /// "Compute SOL": achieved fraction of peak compute throughput.
    pub compute_sol: f64,
}

impl CostBreakdown {
    /// Total simulated wall time of the launch, µs.
    pub fn total_us(&self) -> f64 {
        self.exec_us + self.launch_us
    }
}

/// Compute the simulated cost of one kernel launch.
///
/// `grid_dim`/`block_dim` give the launch shape; `stats` is the metered
/// activity of all blocks combined.
pub fn kernel_cost(
    spec: &DeviceSpec,
    grid_dim: usize,
    block_dim: usize,
    stats: &KernelStats,
) -> CostBreakdown {
    let warps_per_block = block_dim.div_ceil(WARP_SIZE);
    let total_warps = grid_dim * warps_per_block;
    // Shared-memory pressure limits how many blocks co-reside on an
    // SM, and therefore how many warps can hide latency — the §2.2
    // mechanism behind the WarpSelect family's K caps ("due to the
    // extensive use of shared memory and registers…"). A block using
    // the whole per-SM allocation runs alone on its SM.
    let blocks_per_sm_by_smem = (spec.shared_mem_per_block as u64)
        .checked_div(stats.shared_mem_bytes)
        .map_or(usize::MAX, |b| b.max(1) as usize);
    let warps_per_sm = spec
        .max_warps_per_sm
        .min(blocks_per_sm_by_smem.saturating_mul(warps_per_block));
    let resident_warps = total_warps.min(spec.sm_count * warps_per_sm);
    let occupancy = (resident_warps as f64 / spec.warps_to_saturate as f64).min(1.0);

    let eff_bw = spec.mem_bw_bytes_per_us() * occupancy * spec.mem_efficiency;
    let eff_ops = spec.compute_ops_per_us() * occupancy;

    let mem_bytes = stats.total_mem_bytes() as f64;
    let mem_us = if mem_bytes > 0.0 {
        mem_bytes / eff_bw
    } else {
        0.0
    };
    let compute_us = if stats.compute_ops > 0 {
        stats.compute_ops as f64 / eff_ops
    } else {
        0.0
    };

    let exec_us = spec.kernel_floor_us.max(mem_us).max(compute_us);

    // SOL metrics are measured against *peak*, not derated, throughput,
    // exactly as Nsight Compute reports them.
    let memory_sol = (mem_bytes / (exec_us * spec.mem_bw_bytes_per_us())).min(1.0);
    let compute_sol = (stats.compute_ops as f64 / (exec_us * spec.compute_ops_per_us())).min(1.0);

    CostBreakdown {
        exec_us,
        launch_us: spec.kernel_launch_us,
        mem_us,
        compute_us,
        occupancy,
        memory_sol,
        compute_sol,
    }
}

/// Simulated duration of a host↔device copy of `bytes`, µs.
pub fn memcpy_cost(spec: &DeviceSpec, bytes: usize) -> f64 {
    spec.pcie_latency_us + bytes as f64 / spec.pcie_bw_bytes_per_us()
}

/// One launch of a *hypothetical* kernel: the launch shape plus the
/// activity it is predicted to meter. This is the planning-side mirror
/// of what [`kernel_cost`] receives after a real (simulated) run —
/// an autotuner can describe a candidate algorithm as a sequence of
/// these and price it without executing anything.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlannedLaunch {
    /// Thread blocks in the launch.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Predicted metered activity across all blocks.
    pub stats: KernelStats,
}

impl PlannedLaunch {
    /// Price this launch alone (no inter-launch gap).
    pub fn cost(&self, spec: &DeviceSpec) -> CostBreakdown {
        kernel_cost(spec, self.grid_dim, self.block_dim, &self.stats)
    }

    /// The launch shape a kernel takes to run this plan.
    pub fn config(&self) -> LaunchConfig {
        LaunchConfig::grid_1d(self.grid_dim, self.block_dim)
    }

    /// Shared bytes one block allocates: what a launch's
    /// [`KernelContract::uses_shared_mem`](crate::KernelContract::uses_shared_mem)
    /// declares.
    pub fn shared_bytes(&self) -> usize {
        self.stats.shared_mem_bytes as usize
    }

    /// True when one block's shared bytes fit the device's per-block
    /// shared memory.
    pub fn fits(&self, spec: &DeviceSpec) -> bool {
        self.shared_bytes() <= spec.shared_mem_per_block
    }
}

/// Price a back-to-back sequence of asynchronous launches, µs: each
/// launch pays its full [`kernel_cost`] (exec + launch overhead), and
/// consecutive launches are separated by the device-side scheduling
/// gap. This is the quantity an end-to-end trace of one algorithm
/// invocation shows (Fig. 8's bars without the host-sync white space),
/// and the objective the `topk-core` planner minimises.
pub fn sequence_cost(spec: &DeviceSpec, launches: &[PlannedLaunch]) -> f64 {
    let gaps = spec.kernel_gap_us * launches.len().saturating_sub(1) as f64;
    launches
        .iter()
        .map(|l| l.cost(spec).total_us())
        .sum::<f64>()
        + gaps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DeviceSpec {
        // A100 shape with ideal DRAM efficiency so the arithmetic in
        // these tests is exact.
        DeviceSpec {
            mem_efficiency: 1.0,
            ..DeviceSpec::a100()
        }
    }

    #[test]
    fn empty_kernel_pays_floor_and_launch() {
        let c = kernel_cost(&spec(), 1, 32, &KernelStats::default());
        assert_eq!(c.exec_us, spec().kernel_floor_us);
        assert_eq!(c.launch_us, spec().kernel_launch_us);
        assert_eq!(c.mem_us, 0.0);
    }

    #[test]
    fn memory_bound_kernel_time_scales_with_bytes() {
        let s = spec();
        // Saturating grid.
        let grid = s.warps_to_saturate; // one warp per block
        let mut st = KernelStats {
            bytes_read: 1_555_000_000, // 1000 us at peak
            ..KernelStats::default()
        };
        let c = kernel_cost(&s, grid, 32, &st);
        assert!((c.exec_us - 1000.0).abs() < 1e-6);
        assert!((c.memory_sol - 1.0).abs() < 1e-9);

        st.bytes_read *= 2;
        let c2 = kernel_cost(&s, grid, 32, &st);
        assert!((c2.exec_us - 2.0 * c.exec_us).abs() < 1e-6);
    }

    #[test]
    fn single_warp_gets_fraction_of_bandwidth() {
        let s = spec();
        let st = KernelStats {
            bytes_read: 15_550_000, // 10 us at peak — above the kernel floor
            ..KernelStats::default()
        };
        let full = kernel_cost(&s, s.warps_to_saturate, 32, &st);
        let one = kernel_cost(&s, 1, 32, &st);
        // One warp should be ~warps_to_saturate times slower.
        let ratio = one.exec_us / full.exec_us;
        assert!(
            (ratio - s.warps_to_saturate as f64).abs() / (s.warps_to_saturate as f64) < 0.01,
            "ratio = {ratio}"
        );
    }

    #[test]
    fn occupancy_clamps_at_one() {
        let s = spec();
        let c = kernel_cost(
            &s,
            10 * s.max_resident_warps(),
            1024,
            &KernelStats::default(),
        );
        assert_eq!(c.occupancy, 1.0);
    }

    #[test]
    fn compute_bound_kernel() {
        let s = spec();
        let st = KernelStats {
            compute_ops: (s.compute_ops_per_us() * 100.0) as u64, // 100 us at peak
            bytes_read: 32,                                       // negligible
            ..KernelStats::default()
        };
        let c = kernel_cost(&s, s.warps_to_saturate, 32, &st);
        assert!((c.exec_us - 100.0).abs() < 0.1);
        assert!(c.compute_sol > 0.99);
        assert!(c.memory_sol < 0.01);
    }

    #[test]
    fn scattered_bytes_and_atomics_count_toward_traffic() {
        let st = KernelStats {
            bytes_scattered: 320,
            atomic_ops: 10,
            ..KernelStats::default()
        };
        assert_eq!(st.total_mem_bytes(), 320 + 80);
    }

    #[test]
    fn merge_accumulates_and_maxes_shared() {
        let mut a = KernelStats {
            bytes_read: 10,
            bytes_written: 1,
            bytes_scattered: 2,
            atomic_ops: 3,
            compute_ops: 4,
            shared_mem_bytes: 100,
        };
        let b = KernelStats {
            bytes_read: 20,
            bytes_written: 2,
            bytes_scattered: 4,
            atomic_ops: 6,
            compute_ops: 8,
            shared_mem_bytes: 50,
        };
        a.merge(&b);
        assert_eq!(a.bytes_read, 30);
        assert_eq!(a.shared_mem_bytes, 100);
        assert_eq!(a.compute_ops, 12);
    }

    #[test]
    fn shared_memory_pressure_reduces_occupancy() {
        let s = spec();
        let mut st = KernelStats {
            bytes_read: 1_555_000_000,
            ..KernelStats::default()
        };
        // Plenty of blocks, no shared memory: saturated.
        let light = kernel_cost(&s, 10_000, 128, &st);
        assert_eq!(light.occupancy, 1.0);
        // Same launch, but each block hogs the whole SM's shared
        // memory: only 4 warps resident per SM.
        st.shared_mem_bytes = s.shared_mem_per_block as u64;
        let heavy = kernel_cost(&s, 10_000, 128, &st);
        let expect = (s.sm_count * 4) as f64 / s.warps_to_saturate as f64;
        assert!((heavy.occupancy - expect).abs() < 1e-9);
        assert!(heavy.exec_us > light.exec_us * 3.0);
    }

    #[test]
    fn sequence_cost_sums_launches_and_gaps() {
        let s = spec();
        let empty = PlannedLaunch {
            grid_dim: 1,
            block_dim: 32,
            ..PlannedLaunch::default()
        };
        // Empty sequence costs nothing; one launch pays no gap.
        assert_eq!(sequence_cost(&s, &[]), 0.0);
        let one = sequence_cost(&s, &[empty]);
        assert!((one - (s.kernel_floor_us + s.kernel_launch_us)).abs() < 1e-9);
        // Three launches: 3 × (floor + launch) + 2 gaps.
        let three = sequence_cost(&s, &[empty, empty, empty]);
        assert!((three - (3.0 * one + 2.0 * s.kernel_gap_us)).abs() < 1e-9);
    }

    #[test]
    fn planned_launch_matches_kernel_cost() {
        let s = spec();
        let st = KernelStats {
            bytes_read: 1_000_000,
            compute_ops: 500_000,
            shared_mem_bytes: 4096,
            ..KernelStats::default()
        };
        let planned = PlannedLaunch {
            grid_dim: 256,
            block_dim: 128,
            stats: st,
        };
        assert_eq!(planned.cost(&s), kernel_cost(&s, 256, 128, &st));
        assert_eq!(planned.config(), LaunchConfig::grid_1d(256, 128));
        assert_eq!(planned.shared_bytes(), 4096);
    }

    #[test]
    fn a_planned_launch_fits_up_to_the_block_limit() {
        let s = spec();
        let with_shared = |bytes: usize| PlannedLaunch {
            grid_dim: 1,
            block_dim: 32,
            stats: KernelStats {
                shared_mem_bytes: bytes as u64,
                ..KernelStats::default()
            },
        };
        assert!(with_shared(0).fits(&s));
        assert!(with_shared(s.shared_mem_per_block).fits(&s));
        assert!(!with_shared(s.shared_mem_per_block + 1).fits(&s));
    }

    #[test]
    fn memcpy_cost_has_latency_floor() {
        let s = spec();
        assert_eq!(memcpy_cost(&s, 0), s.pcie_latency_us);
        let t = memcpy_cost(&s, 25_000_000); // 1000 us of transfer
        assert!((t - (s.pcie_latency_us + 1000.0)).abs() < 1e-9);
    }
}
