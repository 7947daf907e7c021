//! The workspace's public surface is only as wide as its callers: every
//! `pub fn` under `crates/*/src` is named somewhere outside its own
//! crate's `src/` — in another crate, in the crate's own `tests/`, in the
//! workspace's `tests/` or `examples/`, in `benchmark/src`, or in a
//! doctest (which rustdoc builds as a crate of its own), and for the
//! `lumos-cli` library also in the `lumos` binary, `src/main.rs`.
//!
//! A library's `pub` item never trips `dead_code`, so this scan stands in
//! for it: a function only its own crate calls is `pub(crate)`, and rustc
//! then reports it once nothing calls it. The match is by name, comments
//! included, so a common name can make the scan miss an item but never
//! fail on one wrongly.

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};

/// `crate: name` pairs the scan lets through. Each needs a reason here.
const ALLOWED: &[&str] = &[];

/// The directories outside `crates/` whose sources count as callers.
const CALLERS: [&str; 3] = ["tests", "examples", "benchmark/src"];

fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, recursively; none when `dir` is missing.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files = Vec::new();
    for entry in entries {
        let path = entry.expect("readable entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

/// Every identifier-like word of `source`, comments and strings included.
fn words(source: &str) -> impl Iterator<Item = &str> {
    source
        .split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The names of the `pub fn`s `source` declares.
fn pub_fns(source: &str) -> Vec<&str> {
    source
        .lines()
        .filter_map(|line| {
            let rest = line.trim_start().strip_prefix("pub ")?;
            let rest = ["const ", "async ", "unsafe "]
                .iter()
                .fold(rest, |rest, qualifier| {
                    rest.strip_prefix(qualifier).unwrap_or(rest)
                });
            let name = rest.strip_prefix("fn ")?;
            let end = name
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(name.len());
            Some(&name[..end])
        })
        .collect()
}

/// The code of the doctests in `source`: the Rust blocks of its doc
/// comments.
fn doctests(source: &str) -> String {
    let mut code = String::new();
    // Inside a fence: whether rustdoc compiles it.
    let mut fence: Option<bool> = None;
    for line in source.lines() {
        let line = line.trim_start();
        let Some(doc) = line
            .strip_prefix("///")
            .or_else(|| line.strip_prefix("//!"))
        else {
            fence = None;
            continue;
        };
        let doc = doc.trim_start();
        if let Some(lang) = doc.strip_prefix("```") {
            let rust = lang
                .split(',')
                .all(|tag| matches!(tag.trim(), "" | "rust" | "no_run" | "should_panic"));
            fence = if fence.is_some() { None } else { Some(rust) };
        } else if fence == Some(true) {
            code.push_str(doc);
            code.push('\n');
        }
    }
    code
}

/// The `pub fn`s of `library` that neither its doctests nor any word of
/// `callers` names.
fn uncalled<'a>(library: &[&'a str], callers: &[&str]) -> BTreeSet<&'a str> {
    let doctests: Vec<String> = library.iter().map(|source| doctests(source)).collect();
    let named: HashSet<&str> = callers
        .iter()
        .copied()
        .chain(doctests.iter().map(String::as_str))
        .flat_map(words)
        .collect();
    library
        .iter()
        .flat_map(|source| pub_fns(source))
        .filter(|name| !named.contains(name))
        .collect()
}

#[test]
fn every_pub_fn_has_a_caller_outside_its_crate() {
    let root = workspace();
    let crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("list crates/")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.join("src").is_dir())
        .collect();
    let mut files: Vec<PathBuf> = crates.iter().flat_map(|dir| rust_files(dir)).collect();
    files.extend(CALLERS.iter().flat_map(|dir| rust_files(&root.join(dir))));
    let sources: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|path| {
            let source = std::fs::read_to_string(&path).expect("readable source");
            (path, source)
        })
        .collect();

    let mut found = Vec::new();
    let mut declared = 0;
    for dir in &crates {
        let src = dir.join("src");
        let binary = dir.ends_with("cli").then(|| src.join("main.rs"));
        let (library, callers): (Vec<_>, Vec<_>) = sources
            .iter()
            .partition(|(path, _)| path.starts_with(&src) && Some(path) != binary.as_ref());
        let library: Vec<&str> = library.iter().map(|(_, s)| s.as_str()).collect();
        let callers: Vec<&str> = callers.iter().map(|(_, s)| s.as_str()).collect();
        declared += library.iter().map(|s| pub_fns(s).len()).sum::<usize>();
        let name = dir.file_name().expect("crate dir").to_string_lossy();
        found.extend(
            uncalled(&library, &callers)
                .into_iter()
                .map(|f| format!("{name}: {f}"))
                .filter(|entry| !ALLOWED.contains(&entry.as_str())),
        );
    }
    assert!(
        crates.len() >= 8 && declared > 100,
        "the scan saw {} crates and {declared} pub fns",
        crates.len()
    );
    assert!(
        found.is_empty(),
        "pub fns named nowhere outside their crate's src/ (make them pub(crate)): {found:#?}"
    );
}

/// The scan sees what it is meant to see, and only that.
#[test]
fn the_scan_catches_an_uncalled_pub_fn() {
    let library = "pub fn called() {}\n\
                   /// ```\n\
                   /// lib::documented();\n\
                   /// ```\n\
                   pub fn documented() {}\n\
                   /// ```text\n\
                   /// lonely()\n\
                   /// ```\n\
                   pub fn lonely(x: u8) {}\n\
                   pub(crate) fn narrowed() {}\n\
                   \x20   pub const fn also_lonely() {}\n\
                   fn private() {}\n";
    let callers = "fn main() { lib::called(); } // narrowed";
    assert_eq!(
        uncalled(&[library], &[callers]),
        BTreeSet::from(["also_lonely", "lonely"])
    );
}
