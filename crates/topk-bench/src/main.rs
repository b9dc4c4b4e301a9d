//! Command-line entry point: regenerate the paper's tables and figures.
//!
//! ```text
//! topk-bench <command> [--full] [--verify] [--out DIR]
//!
//! commands:
//!   fig6    time vs K                    fig9    adaptive-strategy ablation
//!   fig7    time vs N, batch 1/100       fig10   early-stopping ablation
//!   table2  speedup summary              fig11   queue ablation
//!   fig8    timeline breakdown           fig12   A100 / H100 / A10
//!   table3  kernel SOL analysis          fig13   ANN distance arrays
//!   engine  TopKEngine queries/sec vs coalescing window
//!   profile continuous-profiler report: per-kernel rooflines, stage
//!           attribution, cost-model drift, flight-recorder post-mortems
//!   all     every figure/table above
//!
//! tools:
//!   compare --algos A,B --n N --k K --batch B --dist uniform|normal|adversarialM|zipfT
//!   tune-alpha [--n N] [--k K]
//!   verify [--quick]      run the correctness gate over every algorithm
//!   sanitize [--matrix smoke|full]  run every algorithm under the gpu-sim sanitizer
//!   baseline [--out FILE] | baseline --check [--file FILE]
//!                         run the adversarial shape matrix through static and
//!                         tuned dispatch; write or check BENCH_10.json
//!   report [--out DIR]    build DIR/report.html (inline-SVG charts) from the CSVs
//! ```
//!
//! CSV output lands in `--out` (default `bench-results/`).

use std::path::PathBuf;
use topk_bench::figures::{self, FigOpts};
use topk_bench::report::{read_csv, write_csv, Row};

fn usage() -> ! {
    eprintln!(
        "usage: topk-bench <fig6|fig7|table2|fig8|table3|fig9|fig10|fig11|fig12|fig13|engine|profile|all> \
         [--full] [--verify] [--quiet] [--out DIR] [--metrics-out FILE] [--trace-out FILE]\n\
       topk-bench engine [--faults SEED] [--fault-rate P] [--deadline-us D] [--recall-target T]\n\
                         [--digest-out FILE] [--profile-out FILE] [--postmortem-dir DIR] ...\n\
                         --recall-target T (< 1.0) permits the approximate degradation rungs\n\
                         and exits non-zero if the drain's recall falls below T\n\
       topk-bench profile [--out DIR] [--faults SEED] [--fault-rate P] [--deadline-us D]\n\
                         write DIR/profile.html (roofline + drift + stage report) and any\n\
                         flight-recorder post-mortem JSON dumps to DIR/postmortems/\n\
       topk-bench compare [--algos A,B,..] [--n N] [--k K] [--batch B] [--dist D] [--no-verify]\n\
       topk-bench tune-alpha [--n N] [--k K]\n\
       topk-bench verify [--quick]\n\
       topk-bench sanitize [--matrix smoke|full]\n\
       topk-bench baseline [--out FILE] | baseline --check [--file FILE]"
    );
    std::process::exit(2);
}

/// Fault-injection flags for the `engine` subcommand, folded into
/// [`EngineBenchOpts`](topk_bench::serving::EngineBenchOpts).
#[derive(Debug, Clone, Default)]
struct FaultOpts {
    fault_seed: Option<u64>,
    fault_rate: Option<f64>,
    deadline_us: Option<u64>,
    recall_target: Option<f64>,
}

fn engine_opts(opts: &FigOpts, faults: &FaultOpts) -> topk_bench::serving::EngineBenchOpts {
    let mut e = topk_bench::serving::EngineBenchOpts {
        verify: opts.verify,
        full: opts.full,
        fault_seed: faults.fault_seed,
        deadline_us: faults.deadline_us,
        recall_target: faults.recall_target,
        ..Default::default()
    };
    if let Some(rate) = faults.fault_rate {
        e.fault_rate = rate;
    }
    e
}

fn parse_dist(s: &str) -> topk_bench::runner::Workload {
    use datagen::Distribution;
    let d = match s {
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
    };
    topk_bench::runner::Workload::Synthetic(d)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args[0].clone();

    // Tool subcommands take their own flags; any other argument is a
    // usage error, so a typo never starts a long run.
    if cmd == "verify" {
        let mut quick = false;
        for a in &args[1..] {
            match a.as_str() {
                "--quick" => quick = true,
                _ => usage(),
            }
        }
        let failures = topk_bench::tools::verify_matrix(quick);
        std::process::exit(if failures == 0 { 0 } else { 1 });
    }
    if cmd == "sanitize" {
        let mut matrix = topk_bench::sanitize::SanitizeMatrix::full();
        let mut rest = args[1..].iter();
        while let Some(a) = rest.next() {
            matrix = match (a.as_str(), rest.next().map(String::as_str)) {
                ("--matrix", Some("smoke")) => topk_bench::sanitize::SanitizeMatrix::smoke(),
                ("--matrix", Some("full")) => topk_bench::sanitize::SanitizeMatrix::full(),
                _ => usage(),
            };
        }
        let summary = topk_bench::sanitize::run(&matrix);
        std::process::exit(if summary.findings == 0 { 0 } else { 1 });
    }
    if cmd == "baseline" {
        // `baseline [--out FILE]` writes the digest; `baseline --check
        // [--file FILE]` compares against the committed one and fails
        // on >5% regressions. `BENCH_REGRESSION_OK=1` downgrades check
        // failures to warnings (the documented override for intentional
        // tradeoffs — regenerate and commit the file to record them).
        let mut check_mode = false;
        let mut file = PathBuf::from("BENCH_10.json");
        let mut rest = args[1..].iter();
        while let Some(a) = rest.next() {
            match a.as_str() {
                "--check" => check_mode = true,
                "--out" | "--file" => file = PathBuf::from(rest.next().unwrap_or_else(|| usage())),
                _ => usage(),
            }
        }
        let report = topk_bench::baseline::run();
        topk_bench::baseline::render(&report);
        if check_mode {
            let committed = std::fs::read_to_string(&file).unwrap_or_else(|e| {
                eprintln!("cannot read baseline {}: {e}", file.display());
                std::process::exit(2);
            });
            let failures = topk_bench::baseline::check(&report, &committed);
            if failures.is_empty() {
                eprintln!("[topk-bench] baseline check passed vs {}", file.display());
                std::process::exit(0);
            }
            for f in &failures {
                eprintln!("[topk-bench] REGRESSION: {f}");
            }
            if std::env::var_os("BENCH_REGRESSION_OK").is_some() {
                eprintln!("[topk-bench] BENCH_REGRESSION_OK set; not failing");
                std::process::exit(0);
            }
            std::process::exit(1);
        }
        let json = topk_bench::baseline::to_json(&report);
        std::fs::write(&file, json).expect("write baseline");
        eprintln!("[topk-bench] wrote {}", file.display());
        return;
    }
    if cmd == "compare" || cmd == "tune-alpha" {
        run_tool(&cmd, &args[1..]);
        return;
    }
    if cmd == "report" {
        let mut out_dir = std::path::PathBuf::from("bench-results");
        if args.len() >= 3 && args[1] == "--out" {
            out_dir = std::path::PathBuf::from(&args[2]);
        }
        match topk_bench::html::render_report(&out_dir) {
            Ok(html) => {
                let p = out_dir.join("report.html");
                std::fs::write(&p, html).expect("write report");
                eprintln!("[topk-bench] wrote {}", p.display());
            }
            Err(e) => eprintln!("cannot render report: {e}"),
        }
        return;
    }
    let mut opts = FigOpts::default();
    let mut out_dir = PathBuf::from("bench-results");
    let mut metrics_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut digest_out: Option<PathBuf> = None;
    let mut profile_out: Option<PathBuf> = None;
    let mut postmortem_dir: Option<PathBuf> = None;
    let mut faults = FaultOpts::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => opts.full = true,
            "--verify" => opts.verify = true,
            "--quiet" => opts.progress = false,
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).unwrap_or_else(|| usage()));
            }
            "--metrics-out" => {
                i += 1;
                metrics_out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--trace-out" => {
                i += 1;
                trace_out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--digest-out" => {
                i += 1;
                digest_out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--profile-out" => {
                i += 1;
                profile_out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--postmortem-dir" => {
                i += 1;
                postmortem_dir = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--faults" => {
                i += 1;
                faults.fault_seed = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--fault-rate" => {
                i += 1;
                faults.fault_rate = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--deadline-us" => {
                i += 1;
                faults.deadline_us = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--recall-target" => {
                i += 1;
                let t: f64 = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|t| (0.0..=1.0).contains(t))
                    .unwrap_or_else(|| usage());
                faults.recall_target = Some(t);
            }
            _ => usage(),
        }
        i += 1;
    }

    // `engine --metrics-out m.prom --trace-out t.json`: run one
    // instrumented drain and export its Prometheus metrics and Chrome
    // trace alongside the throughput sweep.
    let save_observability = |eopts: &topk_bench::serving::EngineBenchOpts,
                              metrics_out: &Option<PathBuf>,
                              trace_out: &Option<PathBuf>| {
        if metrics_out.is_none() && trace_out.is_none() {
            return;
        }
        let art = topk_bench::serving::engine_observability(eopts);
        for (path, body, what) in [
            (metrics_out, &art.metrics, "Prometheus metrics"),
            (trace_out, &art.trace, "Chrome trace"),
        ] {
            if let Some(path) = path {
                if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                    std::fs::create_dir_all(parent).ok();
                }
                match std::fs::write(path, body) {
                    Ok(()) => eprintln!("[topk-bench] wrote {what} to {}", path.display()),
                    Err(e) => eprintln!("cannot write {}: {e}", path.display()),
                }
            }
        }
    };

    // `engine --digest-out d.txt`: write the deterministic chaos
    // digest of one drain so CI can diff two same-seed runs.
    let save_digest = |eopts: &topk_bench::serving::EngineBenchOpts,
                       digest_out: &Option<PathBuf>| {
        if let Some(path) = digest_out {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent).ok();
            }
            let digest = topk_bench::serving::chaos_digest(eopts);
            match std::fs::write(path, &digest) {
                Ok(()) => eprintln!("[topk-bench] wrote chaos digest to {}", path.display()),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
    };

    // `engine --profile-out p.html --postmortem-dir pm/`: run the
    // continuous-profiler drain and export the HTML roofline report
    // and any triggered flight-recorder post-mortems.
    let save_profile = |eopts: &topk_bench::serving::EngineBenchOpts,
                        profile_out: &Option<PathBuf>,
                        postmortem_dir: &Option<PathBuf>| {
        if profile_out.is_none() && postmortem_dir.is_none() {
            return;
        }
        let art = topk_bench::profile::profile_report(eopts);
        if let Some(path) = profile_out {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent).ok();
            }
            match std::fs::write(path, &art.html) {
                Ok(()) => eprintln!("[topk-bench] wrote profile report to {}", path.display()),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
        if let Some(dir) = postmortem_dir {
            write_post_mortems(dir, &art.post_mortems);
        }
    };

    let save = |name: &str, rows: &[Row]| {
        let path = out_dir.join(format!("{name}.csv"));
        write_csv(&path, rows).unwrap_or_else(|e| eprintln!("cannot write {path:?}: {e}"));
        eprintln!(
            "[topk-bench] wrote {} rows to {}",
            rows.len(),
            path.display()
        );
    };

    let run_table2 = |out_dir: &PathBuf, opts: &FigOpts| {
        // Prefer previously measured fig6/fig7 grids; fall back to
        // running them now.
        let mut rows = Vec::new();
        for f in ["fig6", "fig7"] {
            let p = out_dir.join(format!("{f}.csv"));
            match read_csv(&p) {
                Ok(mut r) => rows.append(&mut r),
                Err(_) => {
                    eprintln!("[topk-bench] {} missing; running {f} first", p.display());
                    let mut r = if f == "fig6" {
                        figures::fig6(opts)
                    } else {
                        figures::fig7(opts)
                    };
                    let path = out_dir.join(format!("{f}.csv"));
                    write_csv(&path, &r).ok();
                    rows.append(&mut r);
                }
            }
        }
        let t = figures::table2(&rows);
        println!("\n{t}");
        std::fs::write(out_dir.join("table2.txt"), &t).ok();
        // The paper artifact's `speedup.csv`.
        std::fs::write(out_dir.join("speedup.csv"), figures::table2_csv(&rows)).ok();
    };

    match cmd.as_str() {
        "fig6" => save("fig6", &figures::fig6(&opts)),
        "fig7" => save("fig7", &figures::fig7(&opts)),
        "table2" => run_table2(&out_dir, &opts),
        "fig8" => {
            let t = figures::fig8(&opts);
            println!("{t}");
            std::fs::create_dir_all(&out_dir).ok();
            std::fs::write(out_dir.join("fig8.txt"), &t).ok();
            for (name, json) in figures::fig8_traces(&opts) {
                let p = out_dir.join(format!("fig8_{name}.trace.json"));
                std::fs::write(&p, json).ok();
                eprintln!(
                    "[topk-bench] wrote {} (open in chrome://tracing)",
                    p.display()
                );
            }
        }
        "table3" => {
            let t = figures::table3(&opts);
            println!("{t}");
            std::fs::create_dir_all(&out_dir).ok();
            std::fs::write(out_dir.join("table3.txt"), &t).ok();
        }
        "fig9" => save("fig9", &figures::fig9(&opts)),
        "fig10" => save("fig10", &figures::fig10(&opts)),
        "fig11" => save("fig11", &figures::fig11(&opts)),
        "fig12" => save("fig12", &figures::fig12(&opts)),
        "fig13" => save("fig13", &figures::fig13(&opts)),
        "engine" => {
            let eopts = engine_opts(&opts, &faults);
            let points = topk_bench::serving::engine_throughput(&eopts);
            println!("\n{}", topk_bench::serving::render(&points));
            save("engine", &topk_bench::serving::to_rows(&points, opts.full));
            save_observability(&eopts, &metrics_out, &trace_out);
            save_digest(&eopts, &digest_out);
            save_profile(&eopts, &profile_out, &postmortem_dir);
            // `--recall-target T` doubles as the recall floor: the CI
            // chaos-degrade job relies on this exit code.
            if let Some(target) = eopts.recall_target {
                let violations = topk_bench::serving::recall_floor_violations(&points, target);
                for v in &violations {
                    eprintln!("[topk-bench] RECALL FLOOR: {v}");
                }
                if !violations.is_empty() {
                    std::process::exit(1);
                }
                eprintln!("[topk-bench] recall floor {target} held across the sweep");
            }
        }
        "profile" => {
            let eopts = engine_opts(&opts, &faults);
            let art = topk_bench::profile::profile_report(&eopts);
            println!("\n{}", art.text);
            std::fs::create_dir_all(&out_dir).ok();
            let html_path = profile_out.unwrap_or_else(|| out_dir.join("profile.html"));
            match std::fs::write(&html_path, &art.html) {
                Ok(()) => eprintln!(
                    "[topk-bench] wrote profile report to {}",
                    html_path.display()
                ),
                Err(e) => eprintln!("cannot write {}: {e}", html_path.display()),
            }
            let pm_dir = postmortem_dir.unwrap_or_else(|| out_dir.join("postmortems"));
            write_post_mortems(&pm_dir, &art.post_mortems);
            if let Some(path) = &metrics_out {
                if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                    std::fs::create_dir_all(parent).ok();
                }
                match std::fs::write(path, &art.metrics) {
                    Ok(()) => {
                        eprintln!(
                            "[topk-bench] wrote Prometheus metrics to {}",
                            path.display()
                        )
                    }
                    Err(e) => eprintln!("cannot write {}: {e}", path.display()),
                }
            }
        }
        "all" => {
            save("fig6", &figures::fig6(&opts));
            save("fig7", &figures::fig7(&opts));
            run_table2(&out_dir, &opts);
            let t = figures::fig8(&opts);
            println!("{t}");
            std::fs::write(out_dir.join("fig8.txt"), &t).ok();
            for (name, json) in figures::fig8_traces(&opts) {
                std::fs::write(out_dir.join(format!("fig8_{name}.trace.json")), json).ok();
            }
            let t = figures::table3(&opts);
            println!("{t}");
            std::fs::write(out_dir.join("table3.txt"), &t).ok();
            save("fig9", &figures::fig9(&opts));
            save("fig10", &figures::fig10(&opts));
            save("fig11", &figures::fig11(&opts));
            save("fig12", &figures::fig12(&opts));
            save("fig13", &figures::fig13(&opts));
            let eopts = engine_opts(&opts, &faults);
            let points = topk_bench::serving::engine_throughput(&eopts);
            println!("\n{}", topk_bench::serving::render(&points));
            save("engine", &topk_bench::serving::to_rows(&points, opts.full));
            save_observability(&eopts, &metrics_out, &trace_out);
            save_digest(&eopts, &digest_out);
            save_profile(&eopts, &profile_out, &postmortem_dir);
        }
        _ => usage(),
    }
}

/// Write each post-mortem JSON document to `dir/postmortem-N.json`.
fn write_post_mortems(dir: &PathBuf, post_mortems: &[String]) {
    if post_mortems.is_empty() {
        eprintln!("[topk-bench] no flight-recorder post-mortems triggered");
        return;
    }
    std::fs::create_dir_all(dir).ok();
    for (i, pm) in post_mortems.iter().enumerate() {
        let path = dir.join(format!("postmortem-{i}.json"));
        match std::fs::write(&path, pm) {
            Ok(()) => eprintln!("[topk-bench] wrote post-mortem to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

fn run_tool(cmd: &str, args: &[String]) {
    use topk_bench::tools;
    let mut opts = tools::CompareOpts::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--algos" => {
                i += 1;
                opts.algos = args
                    .get(i)
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--n" => {
                i += 1;
                opts.n = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--k" => {
                i += 1;
                opts.k = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--batch" => {
                i += 1;
                opts.batch = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--dist" => {
                i += 1;
                match parse_dist(args.get(i).unwrap_or_else(|| usage())) {
                    topk_bench::runner::Workload::Synthetic(d) => opts.dist = d,
                    _ => usage(),
                }
            }
            "--no-verify" => opts.verify = false,
            _ => usage(),
        }
        i += 1;
    }
    match cmd {
        "compare" => {
            tools::compare(&opts);
        }
        "tune-alpha" => {
            tools::tune_alpha(opts.n, opts.k, &[4, 16, 64, 128, 512, 4096], true);
        }
        _ => usage(),
    }
}
