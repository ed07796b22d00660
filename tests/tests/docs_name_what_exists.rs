//! README.md, DESIGN.md, EXPERIMENTS.md and tests/README.md may only
//! name binaries and files that are in the repository: every
//! `--bin NAME`, every backticked `crates/…` / `tests/…` / `vendor/…`
//! path, and every backticked bare `*.json` / `*.txt` file name (read as
//! a file in the repository root). `benchmark/README.md` and CHANGES.md
//! are history and are not scanned.

use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "tests/README.md"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ has a parent").to_path_buf()
}

/// The contents of every `` `…` `` span on one line.
fn backticked(line: &str) -> Vec<&str> {
    line.split('`').skip(1).step_by(2).collect()
}

fn bin_exists(root: &Path, name: &str) -> bool {
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ is readable");
    root.join("examples").join(format!("{name}.rs")).is_file()
        || crates
            .filter_map(Result::ok)
            .any(|c| c.path().join("src/bin").join(format!("{name}.rs")).is_file())
}

#[test]
fn every_binary_and_file_the_docs_name_exists() {
    let root = repo_root();
    let mut missing = Vec::new();
    let mut checked = 0usize;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (n, line) in text.lines().enumerate() {
            let mut check = |what: &str, ok: bool| {
                checked += 1;
                if !ok {
                    missing.push(format!("{doc}:{}: {what}", n + 1));
                }
            };
            let mut words = line.split(|c: char| c.is_whitespace() || c == '`');
            while let Some(word) = words.next() {
                if word == "--bin" {
                    let name = words.next().unwrap_or("");
                    let name = name.trim_matches(|c: char| !c.is_alphanumeric() && c != '_');
                    // A bare `--bin` talks about the flag; it names nothing.
                    if !name.is_empty() {
                        check(&format!("--bin {name}"), bin_exists(&root, name));
                    }
                }
            }
            for token in backticked(line) {
                // `tests/tests/x.rs::module` names a file, then an item in it.
                let path = token.split("::").next().unwrap_or(token);
                // `crates/*/src`, `crates/…`, a command line: not one path.
                if path.contains(['*', '<', '…', ' ']) {
                    continue;
                }
                if ["crates/", "tests/", "vendor/"].iter().any(|p| path.starts_with(p)) {
                    check(&format!("`{path}`"), root.join(path).exists());
                } else if !path.contains('/') && (path.ends_with(".json") || path.ends_with(".txt")) {
                    check(&format!("`{path}` (repository root)"), root.join(path).is_file());
                }
            }
        }
    }
    assert!(checked > 40, "the scan found only {checked} names: is it still reading the docs?");
    assert!(missing.is_empty(), "the docs name things that do not exist:\n{}", missing.join("\n"));
}
