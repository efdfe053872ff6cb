//! A malformed command line is untrusted input like any other: both
//! binaries must answer it with the usage line and a failure exit, never
//! a panic and its backtrace.

use std::process::Command;

/// Run `binary` with `args` and assert a clean rejection.
fn rejects(binary: &str, args: &[&str]) {
    let output = Command::new(binary)
        .args(args)
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(1),
        "{args:?} must exit with status 1; stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr.contains("usage: "),
        "{args:?} must print the usage line: {stderr}"
    );
}

#[test]
fn pathfinder_serve_rejects_malformed_flags_without_panicking() {
    let serve = env!("CARGO_BIN_EXE_pathfinder-serve");
    rejects(serve, &["--budget", "x"]);
    rejects(serve, &["--budget", "-1"]);
    rejects(serve, &["--budget"]);
    rejects(serve, &["--threads", "4"]);
    rejects(serve, &["--addr", "127.0.0.1:0", "--load"]);
    rejects(serve, &["--load", "no-equals-sign"]);
    rejects(serve, &["--morsel", "2"]);
}

#[test]
fn pathfinder_cli_rejects_malformed_flags_without_panicking() {
    let cli = env!("CARGO_BIN_EXE_pathfinder-cli");
    rejects(cli, &["--eval"]);
    rejects(cli, &["--eval", "1 + 1", "--load"]);
    rejects(cli, &["--connect"]);
    rejects(cli, &["--script"]);
    rejects(cli, &["--verbose"]);
}
