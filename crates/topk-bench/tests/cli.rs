//! The command-line contract: every subcommand rejects flags it does
//! not accept, with usage on stderr and exit code 2, before any work
//! starts; and `compare` scores exact and approximate rows each by
//! their own standard.

use std::process::{Command, Output};

/// Every subcommand `topk-bench` has.
const SUBCOMMANDS: [&str; 19] = [
    "fig6",
    "fig7",
    "table2",
    "fig8",
    "table3",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "engine",
    "profile",
    "all",
    "compare",
    "tune-alpha",
    "verify",
    "sanitize",
    "baseline",
    "report",
];

/// Run `topk-bench <args>` in the temporary directory, so a run that
/// wrongly starts writes nothing into the repository.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_topk-bench"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("run topk-bench")
}

fn assert_usage_error(args: &[&str]) {
    let out = run(args);
    assert_eq!(out.status.code(), Some(2), "topk-bench {}", args.join(" "));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage: topk-bench"), "{stderr}");
    assert!(out.stdout.is_empty(), "topk-bench {} ran", args.join(" "));
}

#[test]
fn every_subcommand_rejects_an_unknown_flag() {
    for cmd in SUBCOMMANDS {
        assert_usage_error(&[cmd, "--bogus-flag"]);
    }
    // Before or after a valid flag: `report --bogus --out D` must not
    // render anything.
    assert_usage_error(&["report", "--bogus", "--out", "d"]);
    assert_usage_error(&["baseline", "--check", "--bogus-flag"]);
}

#[test]
fn flags_are_checked_against_their_subcommand() {
    let cases: [&[&str]; 10] = [
        // Engine-only flags on figure commands.
        &["fig8", "--faults", "3"],
        &["table3", "--metrics-out", "m.prom"],
        &["fig6", "--recall-target", "0.9"],
        // Sweep-only flags on `profile`.
        &["profile", "--digest-out", "d.txt"],
        &["profile", "--verify"],
        // Another tool's flags.
        &["tune-alpha", "--dist", "normal"],
        &["verify", "--matrix", "smoke"],
        // A missing or malformed value.
        &["sanitize", "--matrix"],
        &["engine", "--recall-target", "1.5"],
        // `all` checks the serving values before its first figure.
        &["all", "--faults", "x"],
    ];
    for args in cases {
        assert_usage_error(args);
    }
    for args in [&["sanitize", "--help"][..], &["nonsense"], &[]] {
        assert_usage_error(args);
    }
}

#[test]
fn compare_verifies_exact_rows_and_scores_the_approximate_ones_by_recall() {
    let out = run(&["compare", "--n", "65536", "--k", "128", "--dist", "uniform"]);
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    for algo in [
        "AIR Top-K",
        "Bucketed Top-K (approx)",
        "Two-Stage Top-K (approx)",
    ] {
        assert!(stdout.contains(algo), "{algo} did not run: {stdout}");
    }
    // No approximate row goes through the exact checker; one below its
    // planned recall is reported as such.
    assert!(!stderr.contains("VERIFICATION FAILED"), "{stderr}");
    for line in stderr
        .lines()
        .filter(|l| l.starts_with("RECALL BELOW TARGET"))
    {
        assert!(line.contains("(approx)"), "{line}");
    }
}
