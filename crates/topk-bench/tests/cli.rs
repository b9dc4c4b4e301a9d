//! The tool subcommands reject arguments they do not know: usage on
//! stderr and exit code 2, before any work starts.

use std::process::Command;

/// Exit code of `topk-bench <args>`.
fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_topk-bench"))
        .args(args)
        .output()
        .expect("run topk-bench")
        .status
        .code()
}

#[test]
fn tool_subcommands_reject_unknown_flags() {
    let cases: [&[&str]; 6] = [
        &["sanitize", "--bogus-flag"],
        &["sanitize", "--help"],
        &["sanitize", "--matrix"],
        &["verify", "--bogus-flag"],
        &["baseline", "--bogus-flag"],
        &["baseline", "--check", "--bogus-flag"],
    ];
    for args in cases {
        assert_eq!(exit_code(args), Some(2), "topk-bench {}", args.join(" "));
    }
}
