//! The paper, pinned byte for byte: the 30 files `repro` writes at its
//! defaults (`<id>.txt` + `<id>.json` for each of the 15 experiments) are
//! committed under `tests/golden/repro/`, and this test regenerates them in
//! process through the same [`run_experiments`] the binary calls.
//!
//! On a mismatch the fresh outputs are written under the target directory
//! and the failure names the first differing file and byte, with the `cp`
//! command that accepts the change when it is intended.

use std::fs;
use std::path::Path;

use mop_bench::{run_experiments, ReproConfig, EXPERIMENTS};

/// Index of the first byte where `a` and `b` differ, if they do.
fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Some(i),
        None if a.len() != b.len() => Some(a.len().min(b.len())),
        None => None,
    }
}

#[test]
fn repro_outputs_match_the_goldens_byte_for_byte() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/repro");
    let outputs = run_experiments(&ReproConfig::default(), None);
    let ids: Vec<&str> = outputs.iter().map(|o| o.id.as_str()).collect();
    assert_eq!(ids, EXPERIMENTS, "repro runs every experiment, in order");

    let files: Vec<(String, String)> = outputs.iter().flat_map(|o| o.files()).collect();
    let mut on_disk: Vec<String> = fs::read_dir(&golden)
        .expect("golden directory exists")
        .map(|entry| entry.expect("readable golden entry").file_name().to_string_lossy().into())
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = files.iter().map(|(name, _)| name.clone()).collect();
    expected.sort();
    assert_eq!(on_disk, expected, "the golden directory holds exactly repro's files");

    let mismatches: Vec<(&str, usize)> = files
        .iter()
        .filter_map(|(name, fresh)| {
            let pinned = fs::read(golden.join(name)).expect("readable golden file");
            first_difference(&pinned, fresh.as_bytes()).map(|at| (name.as_str(), at))
        })
        .collect();
    if let Some(&(name, at)) = mismatches.first() {
        let fresh_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-golden");
        fs::create_dir_all(&fresh_dir).expect("create fresh-output directory");
        for (name, contents) in &files {
            fs::write(fresh_dir.join(name), contents).expect("write fresh output");
        }
        panic!(
            "{} of {} repro outputs differ from their goldens; the first is {name} at byte \
             {at}.\nFresh outputs: {}\nIf the change is intended, accept it with:\n  cp {}/* {}/",
            mismatches.len(),
            files.len(),
            fresh_dir.display(),
            fresh_dir.display(),
            golden.display(),
        );
    }
}

#[test]
fn first_difference_finds_edits_and_truncations() {
    assert_eq!(first_difference(b"table", b"table"), None);
    assert_eq!(first_difference(b"table", b"tabla"), Some(4));
    assert_eq!(first_difference(b"table", b"tab"), Some(3));
    assert_eq!(first_difference(b"", b"x"), Some(0));
}
