//! Workspace-allocation tracking for fallible selection paths.
//!
//! Algorithms allocate workspace, launch kernels, and free the
//! workspace before returning. With fallible entry points every `?`
//! between the allocation and the free is an exit that would leak
//! simulated device memory and silently distort `mem_allocated` for
//! the next query on the same device. [`ScratchGuard`] tracks the byte
//! total of a group of allocations so any exit path can release them
//! with one call, even after the typed buffer handles have been moved
//! into kernel closures; [`ScratchGuard::scope`] is that exit path.

use crate::error::TopKError;
use gpu_sim::{DeviceBuffer, DeviceScalar, Gpu, ShadowToken};

/// Accumulates the byte total of a group of device allocations so they
/// can be released together on success *or* error.
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec};
/// use topk_core::scratch::ScratchGuard;
///
/// let mut gpu = Gpu::new(DeviceSpec::test_tiny());
/// let mut ws = ScratchGuard::new();
/// let before = gpu.mem_allocated();
/// let _hist = ws.alloc::<u32>(&mut gpu, "hist", 256).unwrap();
/// ws.release(&mut gpu); // error or success path, same call
/// assert_eq!(gpu.mem_allocated(), before);
/// ```
#[derive(Debug, Default)]
pub struct ScratchGuard {
    bytes: usize,
    /// Sanitizer shadows of the tracked buffers (empty when no
    /// sanitizer is armed); marked freed on release so stale-scratch
    /// reuse shows up as use-after-free.
    tokens: Vec<ShadowToken>,
}

impl ScratchGuard {
    /// An empty guard tracking no allocations.
    pub fn new() -> Self {
        ScratchGuard::default()
    }

    /// Allocate through the guard; the buffer's bytes are released
    /// when [`ScratchGuard::release`] runs.
    pub fn alloc<T: DeviceScalar>(
        &mut self,
        gpu: &mut Gpu,
        label: &str,
        len: usize,
    ) -> Result<DeviceBuffer<T>, TopKError> {
        let buf = gpu.try_alloc::<T>(label, len)?;
        self.bytes += buf.size_bytes();
        self.tokens.extend(buf.sanitizer_token());
        Ok(buf)
    }

    /// Track a buffer that was allocated elsewhere.
    pub fn adopt<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>) {
        self.bytes += buf.size_bytes();
        self.tokens.extend(buf.sanitizer_token());
    }

    /// Bytes currently tracked.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Release every tracked byte back to the device allocator. Under
    /// the sanitizer's memcheck, any later access to a released buffer
    /// is reported as a use-after-free.
    pub fn release(self, gpu: &mut Gpu) {
        for token in &self.tokens {
            token.mark_freed();
        }
        gpu.free_bytes(self.bytes);
    }

    /// Run `body` with a workspace guard and an output guard, in that
    /// order: the workspace is released on every exit, the outputs only
    /// when `body` fails, so a success hands them to the caller. This
    /// is the scratch scope of every fallible selection path.
    pub fn scope<R>(
        gpu: &mut Gpu,
        body: impl FnOnce(&mut Gpu, &mut ScratchGuard, &mut ScratchGuard) -> Result<R, TopKError>,
    ) -> Result<R, TopKError> {
        let (mut ws, mut outs) = (ScratchGuard::new(), ScratchGuard::new());
        let r = body(gpu, &mut ws, &mut outs);
        ws.release(gpu);
        if r.is_err() {
            outs.release(gpu);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceSpec, Gpu};

    #[test]
    fn release_returns_all_tracked_bytes() {
        let mut gpu = Gpu::new(DeviceSpec::test_tiny());
        let base = gpu.mem_allocated();
        let mut ws = ScratchGuard::new();
        let _a = ws.alloc::<u32>(&mut gpu, "a", 100).unwrap();
        let _b = ws.alloc::<f32>(&mut gpu, "b", 50).unwrap();
        let outside = gpu.try_alloc::<u32>("c", 10).unwrap();
        ws.adopt(&outside);
        assert_eq!(ws.bytes(), 100 * 4 + 50 * 4 + 10 * 4);
        ws.release(&mut gpu);
        assert_eq!(gpu.mem_allocated(), base);
    }

    #[test]
    fn failed_alloc_leaves_prior_tracking_intact() {
        let mut gpu = Gpu::new(DeviceSpec::test_tiny());
        let base = gpu.mem_allocated();
        let mut ws = ScratchGuard::new();
        let _a = ws.alloc::<u32>(&mut gpu, "a", 64).unwrap();
        let huge = gpu.spec().device_mem_bytes;
        assert!(ws.alloc::<u32>(&mut gpu, "too-big", huge).is_err());
        ws.release(&mut gpu);
        assert_eq!(gpu.mem_allocated(), base, "error path must not leak");
    }
}
