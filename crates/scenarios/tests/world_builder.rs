//! One-builder lock: every world of this crate is a spec for
//! `src/build.rs`, the only module that creates actors. A second builder
//! would bring back what the one builder removed: actors wired by hand
//! around a throw-away id and patched afterwards, radios built twice, and
//! id, AP and link orders that drift apart between worlds. This test scans
//! the sources and fails the build instead.
//!
//! A source scan, like `fh-core`'s policy layering lock: a call through a
//! fully-qualified path would slip past any import-based check.

use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively, in sorted order.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .expect("readable source dir")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(line number, line)` of every code line (not a comment) containing
/// `needle`.
fn code_lines_with<'a>(source: &'a str, needle: &str) -> Vec<(usize, &'a str)> {
    source
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim_start().starts_with("//") && line.contains(needle))
        .map(|(i, line)| (i + 1, line))
        .collect()
}

#[test]
fn only_the_build_module_creates_actors() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let builder = src.join("build.rs");
    let mut files = Vec::new();
    sources(&src, &mut files);
    assert!(files.contains(&builder), "src/build.rs must exist");
    for path in &files {
        let source = fs::read_to_string(path).expect("readable source");
        if let Some((line, text)) = code_lines_with(&source, "add_node(\"tmp\")").first() {
            panic!(
                "{}:{line}: placeholder node ids are gone; compute the final \
                 id in src/build.rs instead:\n    {text}",
                path.display()
            );
        }
        let calls = code_lines_with(&source, "add_actor(");
        if *path == builder {
            assert!(!calls.is_empty(), "src/build.rs must create the actors");
        } else if let Some((line, text)) = calls.first() {
            panic!(
                "{}:{line}: only src/build.rs creates actors; describe the \
                 world as a spec instead:\n    {text}",
                path.display()
            );
        }
    }
}
