//! The `report` binary runs what it is asked to run or refuses: a malformed
//! or out-of-range value exits non-zero with a one-line message, never a
//! silent fallback to the default and never a panic. `--profile` prints the
//! five structure counters in every build.

use std::process::{Command, Output};

use mopeye_core::Counter;

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report")).args(args).output().expect("run report")
}

#[test]
fn bad_values_are_refused_without_a_panic() {
    let cases: [&[&str]; 9] = [
        &["--users", "5x"],
        &["--users", "0"],
        &["--users"],
        &["--shards", "0"],
        &["--shards", "-1"],
        &["--seed", "seven"],
        &["--cc", "cubc"],
        &["--cut-epoch", "noon"],
        &["--scenario", "rush-hour", "--out"],
    ];
    for args in cases {
        let out = report(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} ran: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

#[test]
fn profile_prints_every_counter_on_a_default_build() {
    let out = report(&["--users", "20", "--shards", "1", "--profile"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for counter in Counter::ALL {
        assert!(stdout.contains(counter.name()), "{} missing:\n{stdout}", counter.name());
    }
}
