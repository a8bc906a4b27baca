//! The `repro` binary runs what it is asked to run or refuses: a malformed
//! value or an unknown experiment id exits with status 2 and a one-line
//! message, never a silent fallback to the default and never a panic. What
//! it does run, it writes exactly as the goldens pin.

use std::fs;
use std::path::Path;
use std::process::{Command, Output};

use mop_bench::EXPERIMENTS;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

#[test]
fn bad_values_are_refused_without_a_panic() {
    let cases: [&[&str]; 10] = [
        &["--experiment", "tabel2"],
        &["--experiment"],
        &["--scale", "abc"],
        &["--scale", "0"],
        &["--scale", "-1"],
        &["--scale", "NaN"],
        &["--scale"],
        &["--video-minutes", "0"],
        &["--video-minutes", "an hour"],
        &["--experiment", "table2", "--out"],
    ];
    for args in cases {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
    }
}

#[test]
fn an_unknown_experiment_id_lists_the_valid_ones() {
    let out = repro(&["--experiment", "tabel2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    for id in EXPERIMENTS {
        assert!(stderr.contains(id), "{id} not listed: {stderr}");
    }
}

#[test]
fn one_experiment_writes_its_two_golden_files() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-cli-table2");
    let _ = fs::remove_dir_all(&out_dir);
    let out = repro(&["--experiment", "table2", "--out", out_dir.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/repro");
    let mut written: Vec<_> = fs::read_dir(&out_dir)
        .expect("output directory exists")
        .map(|entry| entry.expect("readable entry").file_name())
        .collect();
    written.sort();
    assert_eq!(written, ["table2.json", "table2.txt"]);
    for name in written {
        let fresh = fs::read(out_dir.join(&name)).expect("readable output");
        let pinned = fs::read(golden.join(&name)).expect("readable golden");
        assert!(fresh == pinned, "{name:?} differs from its golden");
    }
}
