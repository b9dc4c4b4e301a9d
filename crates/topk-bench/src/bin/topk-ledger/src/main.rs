//! `topk-ledger` — the two-clock benchmark of the top-K stack.
//!
//! Every workload is a closed loop: one caller, and the next call
//! starts only after the previous one returns. A run measures simulated
//! device time (deterministic per seed) and host wall-clock, prints one
//! `<workload> <metric> <value> <unit>` line per metric and then one
//! JSON object as the last line of stdout. See `README.md` beside this
//! file for the workloads, metrics and comparison protocol.
//!
//! ```text
//! topk-ledger --workload <single-large|batch-skew|serve-mixed|serve-chaos>
//!             [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//!             [--json FILE] [--quick]
//! ```
//!
//! Exit codes: 0 success, 1 a wrong exact answer (or a metric that
//! could not be measured), 2 bad arguments or environment.

mod ledger;
mod oracle;
mod report;
mod select;
mod serve;
mod spans;
mod speed;
mod stats;
mod traced;

use ledger::{Extras, Ledger};
use report::Report;
use select::SelectBench;
use serve::ServeBench;
use spans::Spans;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;
use topk_core::tuner::ProblemShape;

const USAGE: &str =
    "usage: topk-ledger --workload <single-large|batch-skew|serve-mixed|serve-chaos> \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--json FILE] [--quick]";

/// Timed setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch-1 `SelectK` calls on rows of 2^22 and 2^23 elements.
    SingleLarge,
    /// Sketch-routed batched calls on skewed and many-small-row cells.
    BatchSkew,
    /// 256-query drains on one persistent two-device engine.
    ServeMixed,
    /// 256-query drains on a fresh four-device engine under faults.
    ServeChaos,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SingleLarge,
        Workload::BatchSkew,
        Workload::ServeMixed,
        Workload::ServeChaos,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SingleLarge => "single-large",
            Workload::BatchSkew => "batch-skew",
            Workload::ServeMixed => "serve-mixed",
            Workload::ServeChaos => "serve-chaos",
        }
    }

    /// Calls every run makes whatever the time budget (rounded up to
    /// whole cycles); the simulated metrics are taken over exactly
    /// these calls.
    fn min_calls(self) -> usize {
        match self {
            Workload::SingleLarge => 300,
            Workload::BatchSkew | Workload::ServeMixed | Workload::ServeChaos => 200,
        }
    }
}

/// Input sizes: the real ones, or tiny ones for smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    quick: bool,
}

impl Scale {
    /// Elements of a row of nominal length `n`.
    pub fn elems(self, n: usize) -> usize {
        if self.quick {
            (n >> 8).max(256)
        } else {
            n
        }
    }

    /// Rows of a batch of nominal size `b`.
    pub fn batch(self, b: usize) -> usize {
        if self.quick {
            (b / 8).max(2)
        } else {
            b
        }
    }

    /// K of a batch cell of nominal K `k`.
    pub fn k(self, k: usize) -> usize {
        if self.quick {
            (k / 16).max(1)
        } else {
            k
        }
    }

    /// Queries of a serving call of nominal size `q`.
    pub fn queries(self, q: usize) -> usize {
        if self.quick {
            q / 16
        } else {
            q
        }
    }
}

/// The datagen seed of input stream `stream` under run seed `seed`
/// (SplitMix64, so neighbouring seeds give unrelated inputs).
pub fn input_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Panics seen by the quiet hook (the engine catches injected driver
/// crashes; this is how many it caught).
static PANICS: AtomicU64 = AtomicU64::new(0);

/// Panics counted so far.
pub fn caught_panics() -> u64 {
    PANICS.load(Relaxed)
}

/// Count panics instead of printing a backtrace for each injected
/// driver crash; any other panic still prints.
fn install_quiet_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Relaxed);
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.starts_with("injected device fault") {
            default(info);
        }
    }));
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
    json: Option<PathBuf>,
    scale: Scale,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::SingleLarge,
        seed: 1,
        seconds: 20.0,
        traced: false,
        trace_out: None,
        json: None,
        scale: Scale { quick: false },
    };
    let mut workload = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            opts.scale.quick = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds: not a duration: {value}"))?
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--trace-out" => opts.trace_out = Some(value.into()),
            "--json" => opts.json = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

/// Refuse a block-pool override above the host's cores: it would time
/// oversubscription, not the simulator.
fn check_env() -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    match std::env::var("GPU_SIM_THREADS")
        .ok()
        .map(|v| v.parse::<usize>())
    {
        Some(Ok(t)) if t > nproc => Err(format!(
            "GPU_SIM_THREADS={t} exceeds the {nproc} available cores"
        )),
        Some(Err(e)) => Err(format!("GPU_SIM_THREADS: {e}")),
        _ => Ok(()),
    }
}

/// A workload: built from its seed, set up, then called in turn.
pub trait Bench {
    /// Build the device state and warm it; returns the host seconds.
    fn setup(&mut self, ledger: &mut Ledger, spans: &mut Spans) -> f64;
    /// Run call `i`, check its answers and fold it into the ledger
    /// (simulated quantities only while `record_sim`).
    fn call(&mut self, i: usize, record_sim: bool, ledger: &mut Ledger, spans: &mut Spans);
    /// Distinct calls before the workload repeats.
    fn cycle(&self) -> usize;
    /// Block-pool workers of the workload's devices.
    fn threads(&self) -> usize;
    /// The shapes the workload routes, for planner timing.
    fn shapes(&self) -> Vec<ProblemShape>;
    /// Geomean of the static prior's simulated selection time over the
    /// tuned one's, across the workload's shapes.
    fn static_over_tuned(&mut self) -> f64;
}

fn new_bench(workload: Workload, seed: u64, scale: Scale) -> Box<dyn Bench> {
    match workload {
        Workload::SingleLarge => Box::new(SelectBench::single_large(seed, scale)),
        Workload::BatchSkew => Box::new(SelectBench::batch_skew(seed, scale)),
        Workload::ServeMixed => Box::new(ServeBench::new(false, seed, scale)),
        Workload::ServeChaos => Box::new(ServeBench::new(true, seed, scale)),
    }
}

/// The traced run's extra measurements.
fn extras(bench: &mut dyn Bench, seed: u64, scale: Scale) -> Extras {
    let threads = bench.threads();
    Extras {
        probe_ld_ns: traced::probe_ld_ns(threads),
        probe_launch_us: traced::probe_launch_us(threads),
        plan_us: traced::plan_us(&bench.shapes()),
        static_over_tuned: bench.static_over_tuned(),
        host_threads: threads,
        paper: traced::paper_cells(seed, scale, threads),
    }
}

/// Where the Chrome trace goes unless `--trace-out` says otherwise.
fn default_trace_path(opts: &Opts) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("topk-ledger").join(format!(
        "{}-seed{}.trace.json",
        opts.workload.name(),
        opts.seed
    ))
}

/// Run one workload end to end and build its report.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut ledger = Ledger::default();
    let mut spans = Spans::new();
    let t_inputs = Instant::now();
    let mut bench = new_bench(opts.workload, opts.seed, opts.scale);
    let inputs_s = t_inputs.elapsed().as_secs_f64();

    let mut reference = speed::Reference::new();
    spans.set_active(opts.traced);
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let secs = bench.setup(&mut ledger, &mut spans);
            reference.tick();
            secs
        })
        .collect();

    // Runs stop only between whole cycles, so every run sees the same
    // mix of calls and a percentile never lands on a different case
    // because the clock ran out mid-cycle. Traced runs trace every
    // other call, flipping the parity each cycle so every case is
    // traced in alternate cycles: the tracing overhead is measured
    // inside one process, under the same load, on the same mix.
    let cycle = bench.cycle();
    let prefix = opts.workload.min_calls().div_ceil(cycle) * cycle;
    let t = Instant::now();
    let mut i = 0;
    while i < prefix || !i.is_multiple_of(cycle) || t.elapsed().as_secs_f64() < opts.seconds {
        if i.is_multiple_of(cycle) {
            reference.tick();
        }
        spans.set_active(opts.traced && (i % cycle + i / cycle).is_multiple_of(2));
        spans.set_call(i as u64 + 1);
        bench.call(i, i < prefix, &mut ledger, &mut spans);
        i += 1;
    }
    spans.set_active(false);
    eprintln!(
        "topk-ledger: {} seed {}: inputs and oracle {inputs_s:.1} s, {SETUP_REPS} setups {:.1} s, \
         {i} calls {:.1} s, host slowdown {:.3}",
        opts.workload.name(),
        opts.seed,
        setups.iter().sum::<f64>(),
        t.elapsed().as_secs_f64(),
        reference.slowdown()
    );
    let slowdown = reference.slowdown();

    let metrics = if opts.traced {
        let extras = extras(bench.as_mut(), opts.seed, opts.scale);
        let path = opts
            .trace_out
            .clone()
            .unwrap_or_else(|| default_trace_path(opts));
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let title = format!("topk-ledger {} seed {}", opts.workload.name(), opts.seed);
        std::fs::write(&path, spans.chrome_trace(&title))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("topk-ledger: wrote {}", path.display());
        ledger.per_layer(&spans, extras, slowdown)
    } else {
        ledger.end_to_end(stats::median(&setups), slowdown)?
    };
    Ok(Report {
        workload: opts.workload.name(),
        correct: ledger.all_quality.wrong == 0,
        attempted: ledger.all_quality.attempted,
        failed: ledger.all_quality.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    install_quiet_panic_hook();
    let opts = match parse_args(std::env::args().skip(1)).and_then(|o| check_env().map(|()| o)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("topk-ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("topk-ledger: {e}");
            return ExitCode::from(1);
        }
    };
    print!("{}", report.lines());
    let json = report.json();
    println!("{json}");
    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("topk-ledger: {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("topk-ledger: wrong exact answers; see above");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let o = parse_args(args(
            "--workload serve-chaos --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Workload::ServeChaos);
        assert_eq!((o.seed, o.seconds, o.traced), (7, 10.0, true));
        assert!(!o.scale.quick);
        let o = parse_args(args("--quick --workload batch-skew")).unwrap();
        assert!(o.scale.quick && !o.traced);
        assert_eq!((o.seed, o.seconds), (1, 20.0));
        assert!(parse_args(args("--workload nope")).is_err());
        assert!(parse_args(args("--seed 1")).is_err());
        assert!(parse_args(args("--workload batch-skew --trace yes")).is_err());
        assert!(parse_args(args("--workload batch-skew --seconds")).is_err());
    }

    #[test]
    fn input_seeds_differ_by_seed_and_stream() {
        assert_ne!(input_seed(1, 0), input_seed(2, 0));
        assert_ne!(input_seed(1, 0), input_seed(1, 1));
        assert_eq!(input_seed(3, 4), input_seed(3, 4));
    }

    fn quick(workload: Workload, seed: u64) -> Opts {
        Opts {
            workload,
            seed,
            seconds: 0.0,
            traced: false,
            trace_out: None,
            json: None,
            scale: Scale { quick: true },
        }
    }

    fn sim_metrics(r: &Report) -> Vec<(String, f64)> {
        r.metrics
            .0
            .iter()
            .filter(|m| m.name.starts_with("sim_") || m.name == "recall_mean")
            .map(|m| (m.name.clone(), m.value))
            .collect()
    }

    #[test]
    fn quick_runs_repeat_their_simulated_metrics() {
        for w in [Workload::BatchSkew, Workload::ServeMixed] {
            let a = run(&quick(w, 1)).unwrap();
            let b = run(&quick(w, 1)).unwrap();
            assert!(a.correct && a.failed == 0, "{}", a.json());
            assert_eq!(a.metrics.0.len(), 10, "{}", a.json());
            assert_eq!(sim_metrics(&a), sim_metrics(&b), "{}", w.name());
        }
    }
}
