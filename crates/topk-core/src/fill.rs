//! The fill rule both multi-block launch plans size their grids with:
//! GridSelect's main kernel (`GridPlan`, DESIGN §14) and the radix pass
//! machine's multi-pass kernels (`RadixPlan`, DESIGN §16).

use gpu_sim::cost::kernel_cost;
use gpu_sim::device::WARP_SIZE;
use gpu_sim::{DeviceSpec, KernelStats};

/// The fewest blocks per problem at which a kernel's modelled
/// occupancy ([`gpu_sim::cost::kernel_cost`]) stops rising: every
/// further block would only queue behind the resident ones. `shared`
/// is the kernel's shared bytes per block, which caps how many blocks
/// an SM holds.
pub(crate) fn fill_blocks(spec: &DeviceSpec, batch: usize, block_dim: usize, shared: u64) -> usize {
    let occupancy = |bpp: usize| {
        let stats = KernelStats {
            shared_mem_bytes: shared,
            ..KernelStats::default()
        };
        kernel_cost(spec, batch * bpp, block_dim, &stats).occupancy
    };
    // At this many blocks every SM holds as many warps as it can.
    let warps = block_dim.div_ceil(WARP_SIZE);
    let (mut lo, mut hi) = (1, spec.max_resident_warps().div_ceil(batch * warps).max(1));
    let top = occupancy(hi);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if occupancy(mid) >= top {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}
