//! How fast the host runs right now.
//!
//! On a shared machine the simulator's host time drifts by tens of
//! percent between runs minutes apart, as co-tenants contend for memory.
//! Neither more calls per run nor CPU time removes that: CPU time moves
//! in lockstep with wall time, and a plain CPU or streaming loop drifts
//! far less than the simulator. A loop shaped like the simulator's hot
//! path does track it. That loop is two threads, each streaming relaxed
//! atomic loads over half of a 16 MiB buffer and bumping an atomic
//! histogram per element. Every run times it after each setup and
//! between cycles of calls, at most every half second, and divides its
//! host times by the median over [`NOMINAL_MS`]. Host
//! metrics are therefore reported at the reference's nominal speed, and
//! runs taken at different moments compare. The factor is reported as
//! `bench.host_slowdown`, so raw wall-clock is host metric × slowdown.

use crate::stats::median;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Median duration of one reference pass on an unloaded two-vCPU host,
/// ms. Host metrics are scaled to this speed.
pub const NOMINAL_MS: f64 = 13.0;

/// Elements the reference streams over (16 MiB of `u32`).
const ELEMS: usize = 1 << 22;

/// Least time between two samples: enough to follow drift over minutes
/// without taxing short runs.
const PERIOD: Duration = Duration::from_millis(500);

/// The reference loop and its timings so far.
pub struct Reference {
    buf: Vec<AtomicU32>,
    hists: [Vec<AtomicU32>; 2],
    samples_ms: Vec<f64>,
    last: Option<Instant>,
}

impl Reference {
    /// Allocate and fill the reference buffers (untimed).
    pub fn new() -> Self {
        let hist = || (0..2048).map(|_| AtomicU32::new(0)).collect();
        Reference {
            buf: (0..ELEMS as u32)
                .map(|i| AtomicU32::new(i.wrapping_mul(0x9E37_79B9)))
                .collect(),
            hists: [hist(), hist()],
            samples_ms: Vec::new(),
            last: None,
        }
    }

    /// Time one pass of the reference loop, unless the last one was
    /// less than [`PERIOD`] ago.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < PERIOD) {
            return;
        }
        let t = Instant::now();
        std::thread::scope(|s| {
            for (part, hist) in self.buf.chunks(ELEMS / 2).zip(&self.hists) {
                s.spawn(move || {
                    for v in part {
                        let x = v.load(Relaxed).wrapping_mul(0x85EB_CA6B);
                        hist[(x >> 21) as usize].fetch_add(1, Relaxed);
                    }
                });
            }
        });
        self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.last = Some(Instant::now());
    }

    /// Median reference time over [`NOMINAL_MS`]: how many times slower
    /// than nominal the host ran during this run (1.0 before any sample).
    pub fn slowdown(&self) -> f64 {
        if self.samples_ms.is_empty() {
            return 1.0;
        }
        median(&self.samples_ms) / NOMINAL_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_sample_over_nominal() {
        let mut r = Reference::new();
        assert_eq!(r.slowdown(), 1.0);
        r.tick();
        r.tick();
        assert_eq!(
            r.samples_ms.len(),
            1,
            "a second tick within the period is skipped"
        );
        assert!(r.slowdown() > 0.0);
        r.samples_ms = vec![NOMINAL_MS, 3.0 * NOMINAL_MS, 2.0 * NOMINAL_MS];
        assert_eq!(r.slowdown(), 2.0);
        // Every element lands in one of the two histograms.
        let counted: u32 = r.hists.iter().flatten().map(|h| h.load(Relaxed)).sum();
        assert_eq!(counted as usize, ELEMS);
    }
}
