//! Markdown link check over the README and `docs/`.
//!
//! The measurement-pipeline docs cross-reference each other heavily
//! (README ↔ ARCHITECTURE.md ↔ MEASUREMENT.md, plus paths to tests and
//! benches cited as evidence). This test keeps those references from
//! rotting: every relative link target must exist, every `#fragment` on a
//! relative link must match a heading in the target document, and every
//! backtick-quoted repo path in the docs must exist on disk. Runs as part
//! of `cargo test`, with no external tooling.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

/// The documents under check: the README, everything in `docs/`, and
/// every per-crate `crates/*/README.md`.
fn documents() -> Vec<PathBuf> {
    let root = repo_root();
    let mut docs = vec![root.join("README.md")];
    let entries = fs::read_dir(root.join("docs")).expect("docs/ exists");
    for entry in entries {
        let path = entry.expect("readable docs/ entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            docs.push(path);
        }
    }
    let crates = fs::read_dir(root.join("crates")).expect("crates/ exists");
    for entry in crates {
        let readme = entry.expect("readable crates/ entry").path().join("README.md");
        if readme.exists() {
            docs.push(readme);
        }
    }
    docs.sort();
    docs
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extracts `[text](target)` markdown links, skipping code fences.
fn links_of(text: &str) -> Vec<String> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while let Some(close) = line[i..].find("](").map(|p| p + i) {
            let Some(end) = line[close + 2..].find(')').map(|p| p + close + 2) else { break };
            // Walk back to the matching '[' for sanity; not strictly needed.
            if close < bytes.len() {
                links.push(line[close + 2..end].to_string());
            }
            i = end + 1;
        }
    }
    links
}

/// GitHub-style anchor of a heading line.
fn anchor_of(heading: &str) -> String {
    heading
        .trim()
        .trim_start_matches('#')
        .trim()
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' || c == '-' {
                Some('-')
            } else {
                None
            }
        })
        .collect()
}

fn anchors_of(text: &str) -> BTreeSet<String> {
    let mut anchors = BTreeSet::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence && line.starts_with('#') {
            anchors.insert(anchor_of(line));
        }
    }
    anchors
}

#[test]
fn relative_links_and_anchors_resolve() {
    let mut failures = Vec::new();
    for doc in documents() {
        let text = fs::read_to_string(&doc).expect("readable markdown");
        let base = doc.parent().expect("doc has a parent directory");
        for link in links_of(&text) {
            // External links and mailto are out of scope (no network in CI).
            if link.starts_with("http://")
                || link.starts_with("https://")
                || link.starts_with("mailto:")
            {
                continue;
            }
            let (path_part, fragment) = match link.split_once('#') {
                Some((p, f)) => (p, Some(f)),
                None => (link.as_str(), None),
            };
            let target = if path_part.is_empty() {
                doc.clone()
            } else {
                base.join(path_part)
            };
            if !target.exists() {
                failures.push(format!("{}: broken link -> {link}", doc.display()));
                continue;
            }
            if let Some(fragment) = fragment {
                let target_text = fs::read_to_string(&target).unwrap_or_default();
                if !anchors_of(&target_text).contains(fragment) {
                    failures.push(format!(
                        "{}: link {link} -> missing anchor #{fragment} in {}",
                        doc.display(),
                        target.display()
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "broken markdown links:\n{}", failures.join("\n"));
}

#[test]
fn cited_repo_paths_exist() {
    // Backtick-quoted tokens that look like repo paths (contain a '/' and an
    // extension or a known top-level directory) must exist: these are the
    // "see tests/foo.rs" citations that rot most easily.
    let root = repo_root();
    let mut failures = Vec::new();
    for doc in documents() {
        let text = fs::read_to_string(&doc).expect("readable markdown");
        let mut in_fence = false;
        for line in text.lines() {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                continue;
            }
            if in_fence {
                continue;
            }
            for token in line.split('`').skip(1).step_by(2) {
                let looks_like_path = token.contains('/')
                    && !token.contains(' ')
                    && !token.contains("::")
                    && (token.ends_with(".rs")
                        || token.ends_with(".md")
                        || token.ends_with(".json")
                        || token.ends_with(".toml"));
                if looks_like_path && !root.join(token).exists() {
                    failures.push(format!("{}: cited path `{token}` missing", doc.display()));
                }
            }
        }
    }
    assert!(failures.is_empty(), "stale path citations:\n{}", failures.join("\n"));
}

#[test]
fn the_documents_under_check_include_the_new_docs() {
    let names: Vec<String> = documents()
        .iter()
        .map(|d| d.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    for expected in ["README.md", "ARCHITECTURE.md", "MEASUREMENT.md", "SERVER.md"] {
        assert!(names.contains(&expected.to_string()), "{expected} not under link check");
    }
    // The per-crate READMEs are scanned too (the server crate has one).
    let server_readme = repo_root().join("crates/server/README.md");
    assert!(documents().contains(&server_readme), "crates/server/README.md not under link check");
}

/// The anchor algorithm matches GitHub's for the headings we actually use.
#[test]
fn anchor_algorithm_smoke() {
    assert_eq!(anchor_of("## The sink → aggregate dataflow"), "the-sink--aggregate-dataflow");
    assert_eq!(anchor_of("# Measurement pipeline"), "measurement-pipeline");
    assert_eq!(anchor_of("### Comparing against the recorded baselines"), "comparing-against-the-recorded-baselines");
}
