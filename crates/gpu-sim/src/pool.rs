//! Host thread pool for executing thread blocks in parallel.
//!
//! The simulator's notion of time comes entirely from the cost model,
//! so block execution order never affects simulated timings — the pool
//! exists purely to speed up the *functional* computation on multi-core
//! hosts. `workers` is the number of threads executing blocks, and the
//! calling thread is one of them: a multi-block launch spawns
//! `workers - 1` `crossbeam::scope` helpers and runs the same work loop
//! itself, rather than idling while fresh threads do all the work.
//! Blocks are handed out in contiguous chunks; each worker accumulates
//! its own [`KernelStats`], which are merged when the scope joins. A
//! one-block launch, or a one-worker pool, runs on the caller alone.

use crate::cost::KernelStats;
use crate::device::DeviceSpec;
use crate::exec::{BlockCtx, LaunchConfig};
use crate::sanitizer::LaunchScope;
use crate::SimError;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Executes the blocks of a kernel launch on up to `workers` host
/// threads.
#[derive(Debug, Clone)]
pub struct BlockPool {
    workers: usize,
}

impl BlockPool {
    /// Pool with an explicit worker count (minimum 1).
    pub fn new(workers: usize) -> Self {
        BlockPool {
            workers: workers.max(1),
        }
    }

    /// Worker count from `GPU_SIM_THREADS`, falling back to the host's
    /// available parallelism.
    pub fn from_env() -> Self {
        let workers = std::env::var("GPU_SIM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        BlockPool::new(workers)
    }

    /// Number of host worker threads used.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run all `cfg.grid_dim` blocks of a kernel, returning the merged
    /// stats. The kernel closure is invoked once per block; `scope` is
    /// the launch's sanitizer context, if one is armed.
    ///
    /// A block that aborts with a [`SimError`] payload (labeled
    /// out-of-bounds, shared-memory overflow) surfaces as `Err`; any
    /// other panic (a kernel's own assertion, an injected worker panic)
    /// propagates unchanged.
    pub fn run<F>(
        &self,
        spec: &DeviceSpec,
        cfg: LaunchConfig,
        scope: Option<&LaunchScope<'_>>,
        kernel: F,
    ) -> Result<KernelStats, SimError>
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        let done = AtomicUsize::new(0);
        let grid = cfg.grid_dim;
        // Run block `b`, folding its stats into `acc`, or hand back the
        // payload it panicked with.
        let run_block = |b: usize, acc: &mut KernelStats| -> Result<(), Box<dyn Any + Send>> {
            let mut ctx = BlockCtx::new(b, grid, cfg.block_dim, &done, spec, scope);
            catch_unwind(AssertUnwindSafe(|| kernel(&mut ctx)))?;
            if let Some(s) = scope {
                s.note_block_barriers(ctx.barrier_count());
            }
            acc.merge(&ctx.stats);
            Ok(())
        };

        let workers = self.workers.min(grid);
        if workers <= 1 {
            let mut total = KernelStats::default();
            for b in 0..grid {
                run_block(b, &mut total).map_err(sim_error_or_resume)?;
            }
            return Ok(total);
        }

        let next = AtomicUsize::new(0);
        // Work-stealing by chunk: each worker grabs batches of blocks so
        // imbalanced kernels (e.g. a "last block" doing extra work)
        // don't serialize the whole launch.
        let chunk = (grid / (workers * 4)).max(1);
        let merged = parking_lot::Mutex::new(KernelStats::default());
        // First panic payload wins; later blocks bail out early.
        let failed = AtomicBool::new(false);
        let first_panic = parking_lot::Mutex::new(None::<Box<dyn Any + Send>>);

        let work = || {
            let mut local = KernelStats::default();
            'chunks: while !failed.load(Ordering::Relaxed) {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= grid {
                    break;
                }
                for b in start..(start + chunk).min(grid) {
                    if let Err(payload) = run_block(b, &mut local) {
                        first_panic.lock().get_or_insert(payload);
                        failed.store(true, Ordering::Relaxed);
                        break 'chunks;
                    }
                }
            }
            merged.lock().merge(&local);
        };

        // The caller is one of the `workers`: spawn the rest as helpers.
        crossbeam::scope(|s| {
            for _ in 1..workers {
                s.spawn(|_| work());
            }
            work();
        })
        .expect("block pool worker panicked");

        match first_panic.into_inner() {
            Some(payload) => Err(sim_error_or_resume(payload)),
            None => Ok(merged.into_inner()),
        }
    }
}

/// A block's panic payload as the [`SimError`] it carries; any other
/// payload resumes unwinding.
fn sim_error_or_resume(payload: Box<dyn Any + Send>) -> SimError {
    match payload.downcast::<SimError>() {
        Ok(e) => *e,
        Err(other) => resume_unwind(other),
    }
}

impl Default for BlockPool {
    fn default() -> Self {
        BlockPool::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DeviceBuffer;

    fn run_sum(workers: usize, grid: usize) -> (u32, KernelStats) {
        let spec = DeviceSpec::a100();
        let pool = BlockPool::new(workers);
        let n = grid * 64;
        let data: Vec<u32> = (0..n as u32).collect();
        let buf = DeviceBuffer::from_slice("in", &data);
        let out = DeviceBuffer::<u32>::zeroed("out", 1);
        let cfg = LaunchConfig::grid_1d(grid, 64);
        let stats = pool
            .run(&spec, cfg, None, |ctx| {
                let start = ctx.block_idx * 64;
                let mut acc = 0u32;
                for i in start..start + 64 {
                    acc = acc.wrapping_add(ctx.ld(&buf, i));
                }
                ctx.atomic_add(&out, 0, acc);
            })
            .unwrap();
        (out.get(0), stats)
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let (v1, s1) = run_sum(1, 37);
        let expect: u32 = (0..37u32 * 64).fold(0, u32::wrapping_add);
        assert_eq!(v1, expect);
        for workers in [2, 4, 8] {
            let (v, s) = run_sum(workers, 37);
            assert_eq!(v, expect, "workers={workers}");
            assert_eq!(s, s1, "workers={workers}: stats must match one worker");
        }
    }

    #[test]
    fn stats_count_all_blocks() {
        let (_, stats) = run_sum(2, 10);
        assert_eq!(stats.bytes_read, 10 * 64 * 4);
        assert_eq!(stats.atomic_ops, 10);
    }

    #[test]
    fn last_block_fires_once_under_parallel_execution() {
        let spec = DeviceSpec::a100();
        let pool = BlockPool::new(8);
        let grid = 200;
        let fired = DeviceBuffer::<u32>::zeroed("fired", 1);
        let cfg = LaunchConfig::grid_1d(grid, 32);
        pool.run(&spec, cfg, None, |ctx| {
            if ctx.mark_block_done() {
                ctx.atomic_add(&fired, 0, 1);
            }
        })
        .unwrap();
        assert_eq!(fired.get(0), 1);
    }

    #[test]
    fn last_block_fires_once_when_the_caller_runs_a_block() {
        // Two workers, two blocks: one block on the caller, one on the
        // single helper.
        let spec = DeviceSpec::a100();
        let pool = BlockPool::new(2);
        let fired = DeviceBuffer::<u32>::zeroed("fired", 1);
        pool.run(&spec, LaunchConfig::grid_1d(2, 32), None, |ctx| {
            if ctx.mark_block_done() {
                ctx.atomic_add(&fired, 0, 1);
            }
        })
        .unwrap();
        assert_eq!(fired.get(0), 1);
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Two blocks that each wait for the other can only finish on two
        // threads at once. `workers = 2` spawns one helper, so the
        // other thread must be the caller.
        let spec = DeviceSpec::a100();
        let pool = BlockPool::new(2);
        let caller = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        let seen = parking_lot::Mutex::new(Vec::new());
        pool.run(&spec, LaunchConfig::grid_1d(2, 32), None, |_ctx| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let start = std::time::Instant::now();
            while arrived.load(Ordering::SeqCst) < 2
                && start.elapsed() < std::time::Duration::from_secs(10)
            {
                std::thread::yield_now();
            }
            let met = arrived.load(Ordering::SeqCst) == 2;
            seen.lock().push((std::thread::current().id(), met));
        })
        .unwrap();
        let seen = seen.into_inner();
        assert!(seen.iter().all(|&(_, met)| met), "blocks never overlapped");
        assert_ne!(seen[0].0, seen[1].0);
        assert!(
            seen.iter().any(|&(id, _)| id == caller),
            "caller ran no block"
        );
    }

    #[test]
    fn workers_minimum_one() {
        assert_eq!(BlockPool::new(0).workers(), 1);
    }

    #[test]
    fn sim_error_payload_becomes_err_sequential_and_parallel() {
        let spec = DeviceSpec::a100();
        let buf = DeviceBuffer::<u32>::zeroed("tiny", 8);
        for workers in [1, 8] {
            let pool = BlockPool::new(workers);
            let cfg = LaunchConfig::grid_1d(64, 32);
            let err = pool
                .run(&spec, cfg, None, |ctx| {
                    // Every block overruns the 8-element buffer.
                    let _ = ctx.ld(&buf, 8 + ctx.block_idx);
                })
                .unwrap_err();
            assert!(
                matches!(&err, SimError::OutOfBounds { buffer, len: 8, .. } if buffer == "tiny"),
                "workers={workers}: {err}"
            );
        }
    }

    #[test]
    fn sim_error_in_one_block_becomes_err_wherever_it_runs() {
        // Block 0 heads the chunk queue, which the caller usually takes
        // while its helpers spawn; the last block is the queue's tail.
        let spec = DeviceSpec::a100();
        let buf = DeviceBuffer::<u32>::zeroed("tiny", 8);
        let grid = 64;
        for workers in [2, 8] {
            for bad in [0, grid - 1] {
                let pool = BlockPool::new(workers);
                let err = pool
                    .run(&spec, LaunchConfig::grid_1d(grid, 32), None, |ctx| {
                        if ctx.block_idx == bad {
                            let _ = ctx.ld(&buf, 8);
                        }
                    })
                    .unwrap_err();
                assert!(
                    matches!(&err, SimError::OutOfBounds { buffer, idx: 8, len: 8 } if buffer == "tiny"),
                    "workers={workers} block={bad}: {err}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "block zero")]
    fn non_sim_error_panic_in_block_zero_propagates() {
        let spec = DeviceSpec::a100();
        let pool = BlockPool::new(2);
        let _ = pool.run(&spec, LaunchConfig::grid_1d(16, 32), None, |ctx| {
            assert!(ctx.block_idx != 0, "block zero");
        });
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn non_sim_error_panic_propagates() {
        let spec = DeviceSpec::a100();
        let pool = BlockPool::new(4);
        let cfg = LaunchConfig::grid_1d(16, 32);
        let _ = pool.run(&spec, cfg, None, |ctx| {
            assert!(ctx.block_idx < 8, "deliberate");
        });
    }
}
