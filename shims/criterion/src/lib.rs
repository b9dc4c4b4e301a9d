//! Offline stand-in for the subset of `criterion` this workspace uses:
//! `criterion_group!`/`criterion_main!`, benchmark groups with
//! `sample_size`/`throughput`/`bench_function`/`bench_with_input`, and
//! `Bencher::iter`. Instead of criterion's statistical engine, each
//! benchmark runs one timed warm-up call, then splits its measured
//! samples into up to five timed batches and prints the median
//! batch's mean wall time per iteration (and throughput when
//! configured). A batch runs at least a millisecond of wall time, so a
//! sub-microsecond payload is timed over many calls, and one preempted
//! batch moves the median far less than it moves a single mean. That
//! is enough to compare runs by eye and to keep
//! `cargo bench`/`--all-targets` building in an offline environment.
//! `CRITERION_SHIM_SAMPLES=1` (the CI smoke run) times one batch. As in
//! criterion, the first argument that is not a flag filters the
//! benchmarks: only those whose `group/id` contains it run
//! (`cargo bench --bench bench_kernels -- radix`).

use std::time::{Duration, Instant};

/// Most timed batches one `Bencher::iter` call splits its samples into.
const BATCHES: usize = 5;

/// Least wall time one timed batch runs for.
const MIN_BATCH: Duration = Duration::from_millis(1);

/// How many measured iterations a `Bencher::iter` call performs at
/// least. `CRITERION_SHIM_SAMPLES` overrides (e.g. `=1` for CI smoke
/// runs).
fn samples(group_hint: usize) -> usize {
    std::env::var("CRITERION_SHIM_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(group_hint)
        .max(1)
}

/// Identifies one benchmark within a group, mirroring
/// `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function_name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Throughput annotation for a group, mirroring `criterion::Throughput`.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Passed to benchmark closures; `iter` runs and times the payload.
pub struct Bencher {
    iters: usize,
    /// Median batch's mean time per iteration, filled by
    /// [`Bencher::iter`].
    elapsed: Duration,
}

impl Bencher {
    /// Run `f` once to warm up, then for the configured number of
    /// samples in up to `BATCHES` batches of at least `MIN_BATCH`
    /// each, recording the median batch's mean wall time per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        std::hint::black_box(f());
        let warm_up = start.elapsed().max(Duration::from_nanos(1));
        let batches = self.iters.min(BATCHES);
        let per_batch = self
            .iters
            .div_ceil(batches)
            .max((MIN_BATCH.as_nanos() / warm_up.as_nanos()) as usize)
            .max(1);
        let mut means: Vec<Duration> = (0..batches)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..per_batch {
                    std::hint::black_box(f());
                }
                start.elapsed() / per_batch as u32
            })
            .collect();
        means.sort_unstable();
        self.elapsed = means[batches / 2];
    }
}

/// A named collection of related benchmarks, mirroring
/// `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the measured iteration count (criterion's statistical sample
    /// size; here simply the loop count).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Annotate subsequent benchmarks with a throughput denominator.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.bench_with_input(id, &(), |b, _| f(b))
    }

    /// Run one benchmark parameterised by `input`, unless the filter
    /// excludes it.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = format!("{}/{}", self.name, id.into().id);
        if !self.criterion.selects(&id) {
            return self;
        }
        let mut b = Bencher {
            iters: samples(self.sample_size),
            elapsed: Duration::ZERO,
        };
        f(&mut b, input);
        self.report(&id, &b);
        self
    }

    /// Conclude the group (printing is per-benchmark; this is a no-op
    /// kept for API compatibility).
    pub fn finish(&mut self) {}

    fn report(&self, id: &str, b: &Bencher) {
        let per_iter = b.elapsed.as_secs_f64();
        let rate = self.throughput.map(|t| match t {
            Throughput::Elements(n) => format!(" ({:.3e} elem/s)", n as f64 / per_iter.max(1e-12)),
            Throughput::Bytes(n) => format!(" ({:.3e} B/s)", n as f64 / per_iter.max(1e-12)),
        });
        println!(
            "{id}: {:>12.3} us/iter{}",
            per_iter * 1e6,
            rate.unwrap_or_default()
        );
    }
}

/// The benchmark manager, mirroring `criterion::Criterion`.
pub struct Criterion {
    /// Run only the benchmarks whose `group/id` contains this.
    filter: Option<String>,
}

impl Default for Criterion {
    /// Filter by the command line's first argument that is not a flag
    /// (`cargo bench` itself passes `--bench`).
    fn default() -> Self {
        Criterion {
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        }
    }
}

impl Criterion {
    fn selects(&self, id: &str) -> bool {
        self.filter.as_ref().is_none_or(|f| id.contains(f.as_str()))
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            throughput: None,
            criterion: self,
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }
}

/// Re-export matching `criterion::black_box` (deprecated upstream in
/// favour of `std::hint::black_box`, which the workspace uses).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Define a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Define `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_times_every_sample_in_batches() {
        let mut b = Bencher {
            iters: 8,
            elapsed: Duration::ZERO,
        };
        let mut calls = 0;
        b.iter(|| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(2));
        });
        // One warm-up plus five batches of two sleeps each: the eight
        // samples are split (rounded up), not multiplied.
        assert_eq!(calls, 1 + BATCHES * 2);
        assert!(b.elapsed >= Duration::from_millis(2));
    }

    #[test]
    fn a_sub_microsecond_payload_fills_each_batch() {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        let mut calls = 0u64;
        b.iter(|| calls += 1);
        assert!(calls > 2, "one batch of {calls} calls is too short to time");
    }

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion { filter: None };
        let mut ran = 0;
        {
            let mut g = c.benchmark_group("t");
            g.sample_size(3).throughput(Throughput::Elements(10));
            g.bench_function("inc", |b| b.iter(|| ran += 1));
            g.bench_with_input(BenchmarkId::new("param", 7), &7, |b, &p| {
                b.iter(|| black_box(p * 2))
            });
            g.finish();
        }
        assert!(ran >= 3);
    }

    #[test]
    fn the_filter_selects_by_substring_of_group_and_id() {
        let mut c = Criterion {
            filter: Some("radix/b11".into()),
        };
        let mut ran = Vec::new();
        {
            let mut g = c.benchmark_group("radix");
            g.sample_size(1);
            for id in ["b8", "b11_2^23"] {
                g.bench_function(id, |b| b.iter(|| ran.push(id)));
            }
            g.bench_with_input(BenchmarkId::new("b11", 7), &7, |b, &p| {
                b.iter(|| ran.push(if p == 7 { "b11/7" } else { "?" }))
            });
        }
        c.benchmark_group("sort").bench_function("b11", |b| {
            b.iter(|| ran.push("sort"));
        });
        ran.dedup();
        assert_eq!(ran, ["b11_2^23", "b11/7"]);
    }
}
