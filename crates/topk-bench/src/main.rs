//! Command-line entry point: regenerate the paper's tables and figures.
//!
//! Every subcommand is one entry of [`COMMANDS`]: its name, the flags
//! it accepts and what it runs. One parser reads the flags against that
//! entry, so any other flag is a usage error (exit 2) before anything
//! runs. `topk-bench` with no arguments prints the table.
//!
//! Output lands in `--out` (default `bench-results/`).

use datagen::Distribution;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use topk_bench::figures::{self, FigOpts};
use topk_bench::profile::{profile_report, ProfileArtifacts};
use topk_bench::report::{read_csv, write_csv, Row};
use topk_bench::serving::{self, EngineBenchOpts};
use topk_bench::{baseline, html, sanitize, tools};

/// A figure grid: its rows for `<out>/<name>.csv`.
type Grid = fn(&FigOpts) -> Vec<Row>;

/// Any other command, given its parsed flags; returns the exit code.
type Custom = fn(&Args) -> u8;

/// What a subcommand runs.
enum Run {
    Grid(Grid),
    Custom(Custom),
}

/// One subcommand.
struct Command {
    name: &'static str,
    /// One line for the usage text.
    about: &'static str,
    /// The flags it accepts, space-separated; `--flag=VALUE` takes a
    /// value (given as `--flag VALUE`).
    flags: &'static str,
    /// `all` runs it, in table order.
    in_all: bool,
    run: Run,
}

/// Flags of the figure and table commands.
const FIG: &str = "--full --verify --quiet --out=DIR";

/// Flags of `engine` and `all`: the figure flags plus the serving
/// drain's options and artifact paths.
const ENGINE: &str = "--full --verify --quiet --out=DIR --faults=SEED --fault-rate=P \
                      --deadline-us=D --recall-target=T --digest-out=FILE --metrics-out=FILE \
                      --trace-out=FILE --profile-out=FILE --postmortem-dir=DIR";

/// Flags of `profile`: `engine`'s, less the sweep-only `--verify` and
/// `--digest-out`.
const PROFILE: &str = "--full --quiet --out=DIR --faults=SEED --fault-rate=P \
                       --deadline-us=D --recall-target=T --metrics-out=FILE \
                       --trace-out=FILE --profile-out=FILE --postmortem-dir=DIR";

/// A figure command whose grid lands in `<out>/<name>.csv`; `all` runs
/// it.
const fn grid(name: &'static str, about: &'static str, grid: Grid) -> Command {
    let run = Run::Grid(grid);
    Command {
        name,
        about,
        flags: FIG,
        in_all: true,
        run,
    }
}

/// A command that `all` does not run, unless marked [`Command::in_all`].
const fn tool(
    name: &'static str,
    about: &'static str,
    flags: &'static str,
    run: Custom,
) -> Command {
    let run = Run::Custom(run);
    Command {
        name,
        about,
        flags,
        in_all: false,
        run,
    }
}

/// Every subcommand; `all` runs the figure commands in this order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    grid("fig6", "time vs K", figures::fig6),
    grid("fig7", "time vs N, batch 1/100", figures::fig7),
    tool("table2", "speedup summary (from fig6/fig7)", FIG, table2).in_all(),
    tool("fig8", "timeline breakdown (+ Chrome traces)", FIG, fig8).in_all(),
    tool("table3", "kernel SOL analysis", FIG, table3).in_all(),
    grid("fig9", "adaptive-strategy ablation", figures::fig9),
    grid("fig10", "early-stopping ablation", figures::fig10),
    grid("fig11", "queue ablation", figures::fig11),
    grid("fig12", "A100 / H100 / A10", figures::fig12),
    grid("fig13", "ANN distance arrays", figures::fig13),
    tool("engine", "TopKEngine queries/sec vs coalescing window; --recall-target T < 1 \
                    permits approximate rungs and exits 1 if recall falls below T", ENGINE, engine)
        .in_all(),
    tool("profile", "continuous-profiler report: rooflines, stage attribution, \
                     cost-model drift, post-mortems", PROFILE, profile),
    tool("all", "every command above but profile", ENGINE, all),
    tool("compare", "chosen algorithms on one shape; exits 1 on a wrong exact answer",
         "--algos=A,B,.. --n=N --k=K --batch=B --dist=uniform|normal|adversarialM|zipfT \
          --no-verify", compare),
    tool("tune-alpha", "the §3.2 alpha calibration", "--n=N --k=K", tune_alpha),
    tool("verify", "every algorithm on awkward shapes, answers verified and sanitized",
         "--quick", verify),
    tool("sanitize", "every algorithm, the engine and a window sweep, sanitized and verified",
         "--matrix=smoke|full", sanitize),
    tool("baseline", "write BENCH_10.json (--out FILE), or check it (--check [--file FILE])",
         "--out=FILE --check --file=FILE", baseline),
    tool("report", "DIR/report.html (inline-SVG charts) from the CSVs", "--out=DIR", report),
];

fn usage() -> ! {
    eprintln!("usage: topk-bench <command> [flags]");
    for c in COMMANDS {
        let flags: Vec<String> = (c.flags.split_whitespace())
            .map(|f| format!("[{}]", f.replacen('=', " ", 1)))
            .collect();
        eprintln!("  {:<11}{}\n{:13}{}", c.name, c.about, "", flags.join(" "));
    }
    std::process::exit(2);
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = (argv.first())
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name))
        .unwrap_or_else(|| usage());
    let args = Args::parse(cmd, &argv[1..]);
    ExitCode::from(cmd.run(&args))
}

impl Command {
    /// The same command, which `all` runs too.
    const fn in_all(self) -> Command {
        Command {
            in_all: true,
            ..self
        }
    }

    fn run(&self, args: &Args) -> u8 {
        match self.run {
            // With `--verify`, a wrong answer in any row exits 1.
            Run::Grid(grid) => {
                let rows = grid(&args.fig_opts());
                save_rows(&args.out_dir(), self.name, &rows);
                u8::from(rows.iter().any(|r| !r.verified))
            }
            Run::Custom(run) => run(args),
        }
    }
}

/// The flags one command line gave: name → value (empty for a switch).
/// A repeated flag keeps its last value.
struct Args(BTreeMap<&'static str, String>);

impl Args {
    /// Read `argv` against `cmd`'s flags. An unknown flag or a missing
    /// value is a usage error.
    fn parse(cmd: &Command, argv: &[String]) -> Args {
        let mut given = BTreeMap::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let (name, takes_value) = (cmd.flags.split_whitespace())
                .map(|f| {
                    f.split_once('=')
                        .map_or((f, false), |(name, _)| (name, true))
                })
                .find(|(name, _)| name == arg)
                .unwrap_or_else(|| usage());
            let value = match takes_value {
                true => argv.next().unwrap_or_else(|| usage()).clone(),
                false => String::new(),
            };
            given.insert(name, value);
        }
        Args(given)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.contains_key(flag)
    }

    fn raw(&self, flag: &str) -> Option<&str> {
        self.0.get(flag).map(String::as_str)
    }

    /// The value of `flag`; one that does not parse is a usage error.
    fn get<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.raw(flag)
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
    }

    fn out_dir(&self) -> PathBuf {
        self.get("--out")
            .unwrap_or_else(|| PathBuf::from("bench-results"))
    }

    fn fig_opts(&self) -> FigOpts {
        FigOpts {
            full: self.has("--full"),
            verify: self.has("--verify"),
            progress: !self.has("--quiet"),
        }
    }

    /// The serving options: the one place flags become an
    /// [`EngineBenchOpts`].
    fn engine_opts(&self) -> EngineBenchOpts {
        let defaults = EngineBenchOpts::default();
        let recall_target = self.get("--recall-target");
        if recall_target.is_some_and(|t: f64| !(0.0..=1.0).contains(&t)) {
            usage();
        }
        EngineBenchOpts {
            verify: self.has("--verify"),
            full: self.has("--full"),
            fault_seed: self.get("--faults"),
            fault_rate: self.get("--fault-rate").unwrap_or(defaults.fault_rate),
            deadline_us: self.get("--deadline-us"),
            recall_target,
            ..defaults
        }
    }
}

/// Write `body` to `path`, creating its parent directory, and log it
/// as `what`. A failed write is logged, not fatal.
fn write(path: &Path, body: impl AsRef<[u8]>, what: &str) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).ok();
    }
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("[topk-bench] wrote {what} to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Write `rows` to `<out>/<name>.csv`.
fn save_rows(out: &Path, name: &str, rows: &[Row]) {
    let path = out.join(format!("{name}.csv"));
    match write_csv(&path, rows) {
        Ok(()) => eprintln!(
            "[topk-bench] wrote {} rows to {}",
            rows.len(),
            path.display()
        ),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn table2(args: &Args) -> u8 {
    let (out, opts) = (args.out_dir(), args.fig_opts());
    // Prefer previously measured fig6/fig7 grids; fall back to running
    // them now.
    let mut rows = Vec::new();
    let grids: [(&str, Grid); 2] = [("fig6", figures::fig6), ("fig7", figures::fig7)];
    for (name, grid) in grids {
        let path = out.join(format!("{name}.csv"));
        let mut r = read_csv(&path).unwrap_or_else(|_| {
            eprintln!(
                "[topk-bench] {} missing; running {name} first",
                path.display()
            );
            let r = grid(&opts);
            save_rows(&out, name, &r);
            r
        });
        rows.append(&mut r);
    }
    let t = figures::table2(&rows);
    println!("\n{t}");
    write(&out.join("table2.txt"), &t, "Table 2");
    // The paper artifact's `speedup.csv`.
    write(
        &out.join("speedup.csv"),
        figures::table2_csv(&rows),
        "speedups",
    );
    // A summarized row whose answer was wrong fails the table.
    u8::from(rows.iter().any(|r| !r.verified))
}

fn fig8(args: &Args) -> u8 {
    fig8_of(args, figures::fig8)
}

/// Write and print the Fig. 8 that `figure` makes; under `--verify` a
/// wrong answer exits 1.
fn fig8_of(args: &Args, figure: fn(&FigOpts) -> figures::Fig8) -> u8 {
    let out = args.out_dir();
    let fig = figure(&args.fig_opts());
    println!("{}", fig.text);
    write(&out.join("fig8.txt"), &fig.text, "Fig. 8");
    for (name, json) in &fig.traces {
        let path = out.join(format!("fig8_{name}.trace.json"));
        write(&path, json, "Chrome trace (open in chrome://tracing)");
    }
    u8::from(!fig.verified)
}

fn table3(args: &Args) -> u8 {
    table3_of(args, figures::table3)
}

/// Write and print the Table 3 that `table` makes; under `--verify` a
/// wrong answer exits 1.
fn table3_of(args: &Args, table: fn(&FigOpts) -> (String, bool)) -> u8 {
    let (t, verified) = table(&args.fig_opts());
    println!("{t}");
    write(&args.out_dir().join("table3.txt"), &t, "Table 3");
    u8::from(!verified)
}

/// The coalescing-window sweep, the chaos digest of its widest drain,
/// and (when asked for) the instrumented drain's artifacts.
fn engine(args: &Args) -> u8 {
    let opts = args.engine_opts();
    let points = serving::engine_throughput(&opts);
    println!("\n{}", serving::render(&points));
    save_rows(
        &args.out_dir(),
        "engine",
        &serving::to_rows(&points, opts.full),
    );
    let widest = points.iter().max_by_key(|p| p.window);
    if let Some((path, p)) = args.get::<PathBuf>("--digest-out").zip(widest) {
        write(&path, p.report.chaos_digest(), "chaos digest");
    }
    let artifacts = [
        "--metrics-out",
        "--trace-out",
        "--profile-out",
        "--postmortem-dir",
    ];
    if artifacts.iter().any(|f| args.has(f)) {
        write_artifacts(&profile_report(&opts), args, None);
    }
    // `--recall-target T` doubles as the recall floor: the CI
    // chaos-degrade job relies on this exit code.
    let Some(target) = opts.recall_target else {
        return 0;
    };
    let violations = serving::recall_floor_violations(&points, target);
    for v in &violations {
        eprintln!("[topk-bench] RECALL FLOOR: {v}");
    }
    if !violations.is_empty() {
        return 1;
    }
    eprintln!("[topk-bench] recall floor {target} held across the sweep");
    0
}

fn profile(args: &Args) -> u8 {
    let art = profile_report(&args.engine_opts());
    println!("\n{}", art.text);
    write_artifacts(&art, args, Some(&args.out_dir()));
    0
}

/// Write the instrumented drain's artifacts to the paths their flags
/// name. With `dir`, the HTML report and the post-mortems default to
/// `dir/profile.html` and `dir/postmortems/`.
fn write_artifacts(art: &ProfileArtifacts, args: &Args, dir: Option<&Path>) {
    let path =
        |flag, default: &str| (args.get::<PathBuf>(flag)).or_else(|| dir.map(|d| d.join(default)));
    if let Some(p) = args.get::<PathBuf>("--metrics-out") {
        write(&p, &art.metrics, "Prometheus metrics");
    }
    if let Some(p) = args.get::<PathBuf>("--trace-out") {
        write(&p, &art.trace, "Chrome trace");
    }
    if let Some(p) = path("--profile-out", "profile.html") {
        write(&p, &art.html, "profile report");
    }
    if let Some(pm_dir) = path("--postmortem-dir", "postmortems") {
        if art.post_mortems.is_empty() {
            eprintln!("[topk-bench] no flight-recorder post-mortems triggered");
        }
        for (i, pm) in art.post_mortems.iter().enumerate() {
            write(
                &pm_dir.join(format!("postmortem-{i}.json")),
                pm,
                "post-mortem",
            );
        }
    }
}

fn all(args: &Args) -> u8 {
    // Check the serving flags' values before the first figure runs.
    args.engine_opts();
    (COMMANDS.iter().filter(|c| c.in_all))
        .map(|c| c.run(args))
        .max()
        .unwrap_or(0)
}

fn compare(args: &Args) -> u8 {
    let defaults = tools::CompareOpts::default();
    let opts = tools::CompareOpts {
        algos: args.raw("--algos").map_or(defaults.algos, |a| {
            a.split(',').map(str::to_string).collect()
        }),
        n: args.get("--n").unwrap_or(defaults.n),
        k: args.get("--k").unwrap_or(defaults.k),
        batch: args.get("--batch").unwrap_or(defaults.batch),
        dist: args.raw("--dist").map_or(defaults.dist, parse_dist),
        verify: !args.has("--no-verify"),
    };
    u8::from(tools::compare(&opts).wrong_exact > 0)
}

fn parse_dist(s: &str) -> Distribution {
    match s {
        "uniform" => Distribution::Uniform,
        "normal" => Distribution::Normal,
        other => {
            if let Some(t) = other.strip_prefix("zipf").and_then(|t| t.parse().ok()) {
                Distribution::Zipf { exponent_tenths: t }
            } else {
                let m: u32 = other
                    .strip_prefix("adversarial")
                    .and_then(|m| m.parse().ok())
                    .unwrap_or_else(|| usage());
                Distribution::RadixAdversarial { m_bits: m }
            }
        }
    }
}

fn tune_alpha(args: &Args) -> u8 {
    let defaults = tools::CompareOpts::default();
    let n = args.get("--n").unwrap_or(defaults.n);
    let k = args.get("--k").unwrap_or(defaults.k);
    tools::tune_alpha(n, k, &[4, 16, 64, 128, 512, 4096], true);
    0
}

fn verify(args: &Args) -> u8 {
    let matrix = sanitize::GateMatrix::verify(args.has("--quick"));
    u8::from(!sanitize::run(&matrix).passed())
}

fn sanitize(args: &Args) -> u8 {
    let matrix = match args.raw("--matrix") {
        Some("smoke") => sanitize::GateMatrix::smoke(),
        None | Some("full") => sanitize::GateMatrix::full(),
        Some(_) => usage(),
    };
    u8::from(!sanitize::run(&matrix).passed())
}

/// `baseline [--out FILE]` writes the digest; `baseline --check [--file
/// FILE]` compares against the committed one and fails on >5%
/// regressions. `BENCH_REGRESSION_OK=1` downgrades check failures to
/// warnings (the documented override for intentional tradeoffs —
/// regenerate and commit the file to record them).
fn baseline(args: &Args) -> u8 {
    let file = (args.get("--file").or_else(|| args.get("--out")))
        .unwrap_or_else(|| PathBuf::from("BENCH_10.json"));
    let report = baseline::run();
    baseline::render(&report);
    if !args.has("--check") {
        write(&file, baseline::to_json(&report), "baseline");
        return 0;
    }
    let committed = match std::fs::read_to_string(&file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read baseline {}: {e}", file.display());
            return 2;
        }
    };
    let failures = baseline::check(&report, &committed);
    if failures.is_empty() {
        eprintln!("[topk-bench] baseline check passed vs {}", file.display());
        return 0;
    }
    for f in &failures {
        eprintln!("[topk-bench] REGRESSION: {f}");
    }
    if std::env::var_os("BENCH_REGRESSION_OK").is_some() {
        eprintln!("[topk-bench] BENCH_REGRESSION_OK set; not failing");
        return 0;
    }
    1
}

fn report(args: &Args) -> u8 {
    let out = args.out_dir();
    if !out.is_dir() {
        eprintln!("cannot render report: {} is not a directory", out.display());
        return 1;
    }
    match html::render_report(&out) {
        Ok(page) => {
            write(&out.join("report.html"), page, "report");
            0
        }
        Err(e) => {
            eprintln!("cannot render report: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(verified: bool) -> Row {
        Row {
            algo: "t".into(),
            device: "A100".into(),
            workload: "uniform".into(),
            n: 1,
            k: 1,
            batch: 1,
            time_us: 0.0,
            mem_bytes: 0,
            kernels: 0,
            pcie_us: 0.0,
            idle_us: 0.0,
            verified,
        }
    }

    #[test]
    fn a_figure_grid_exits_1_on_an_unverified_row() {
        let dir = std::env::temp_dir().join(format!("topk-bench-grid-{}", std::process::id()));
        let args = Args(BTreeMap::from([("--out", dir.display().to_string())]));
        assert_eq!(grid("ok", "", |_| vec![row(true), row(true)]).run(&args), 0);
        assert_eq!(
            grid("bad", "", |_| vec![row(true), row(false)]).run(&args),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table2_exits_1_when_a_summarized_row_is_unverified() {
        let dir = std::env::temp_dir().join(format!("topk-bench-table2-{}", std::process::id()));
        let args = Args(BTreeMap::from([("--out", dir.display().to_string())]));
        for (fig7_verified, code) in [(true, 0), (false, 1)] {
            write_csv(&dir.join("fig6.csv"), &[row(true)]).unwrap();
            write_csv(&dir.join("fig7.csv"), &[row(true), row(fig7_verified)]).unwrap();
            assert_eq!(table2(&args), code);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fig8_and_table3_exit_1_on_a_wrong_answer() {
        let dir = std::env::temp_dir().join(format!("topk-bench-fig8-{}", std::process::id()));
        let args = Args(BTreeMap::from([("--out", dir.display().to_string())]));
        fn fig8(verified: bool) -> figures::Fig8 {
            figures::Fig8 {
                text: String::new(),
                traces: vec![("t".into(), "{}".into())],
                verified,
            }
        }
        assert_eq!(fig8_of(&args, |_| fig8(true)), 0);
        assert_eq!(fig8_of(&args, |_| fig8(false)), 1);
        assert_eq!(table3_of(&args, |_| (String::new(), true)), 0);
        assert_eq!(table3_of(&args, |_| (String::new(), false)), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
