//! README.md, DESIGN.md, EXPERIMENTS.md and tests/README.md may only
//! name binaries and files that are in the repository: every
//! `--bin NAME`, every backticked `crates/…` / `tests/…` / `vendor/…`
//! path, and every backticked bare `*.json` / `*.txt` file name (read as
//! a file in the repository root). Every `--flag` they name must be one
//! the CLI's USAGE, the bench argument parser or `benchmark/run.sh`
//! accepts, or one of a few cargo flags. `benchmark/README.md` and
//! CHANGES.md are history and are not scanned.

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

/// Every `--flag` in `text`: two dashes not preceded by a word character
/// or a dash, then a lowercase letter, then letters, digits and dashes.
fn flags(text: &str) -> Vec<&str> {
    text.match_indices("--")
        .filter(|&(at, _)| {
            !text[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                && text[at + 2..].starts_with(|c: char| c.is_ascii_lowercase())
        })
        .map(|(at, _)| {
            let len = text[at + 2..]
                .find(|c: char| !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'))
                .unwrap_or(text.len() - at - 2);
            text[at..at + 2 + len].trim_end_matches('-')
        })
        .collect()
}

/// Flags the docs may name without a home in the program: cargo's own.
const CARGO_FLAGS: [&str; 5] = ["--release", "--bin", "--workspace", "--test", "--ignored"];

#[test]
fn every_flag_the_docs_name_is_accepted_somewhere() {
    let root = repo_root();
    let read = |path: &str| {
        std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let commands = read("crates/cli/src/commands.rs");
    let usage_start = commands.find("const USAGE").expect("commands.rs defines USAGE");
    let usage_len = commands[usage_start..].find("\";").expect("USAGE is one string literal");
    let usage = &commands[usage_start..usage_start + usage_len];
    let (bench_args, run_sh) = (read("crates/bench/src/args.rs"), read("benchmark/run.sh"));
    let mut known: Vec<&str> = [usage, bench_args.as_str(), run_sh.as_str()]
        .into_iter()
        .flat_map(flags)
        .collect();
    known.extend(CARGO_FLAGS);

    let mut missing = Vec::new();
    let mut checked = 0usize;
    for doc in DOCS {
        for (n, line) in read(doc).lines().enumerate() {
            for flag in flags(line) {
                checked += 1;
                if !known.contains(&flag) {
                    missing.push(format!("{doc}:{}: {flag}", n + 1));
                }
            }
        }
    }
    assert!(checked > 40, "the scan found only {checked} flags: is it still reading the docs?");
    assert!(
        missing.is_empty(),
        "the docs name flags that no USAGE, bench parser or benchmark/run.sh accepts:\n{}",
        missing.join("\n")
    );
}
