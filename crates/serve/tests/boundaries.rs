//! The crate's two boundaries, checked on its sources: only `store.rs`
//! touches the filesystem, and the scheduler core (`core.rs`) reads no
//! clock, holds no channel or socket, spawns no thread and prints
//! nothing. Test code (from a file's first `#[cfg(test)]` on) and
//! comments are exempt.

/// Every source file of the crate, by name.
const SOURCES: [(&str, &str); 10] = [
    ("core.rs", include_str!("../src/core.rs")),
    ("journal.rs", include_str!("../src/journal.rs")),
    ("lib.rs", include_str!("../src/lib.rs")),
    ("metrics.rs", include_str!("../src/metrics.rs")),
    ("protocol.rs", include_str!("../src/protocol.rs")),
    ("recovery.rs", include_str!("../src/recovery.rs")),
    ("replication.rs", include_str!("../src/replication.rs")),
    ("server.rs", include_str!("../src/server.rs")),
    ("store.rs", include_str!("../src/store.rs")),
    ("testkit.rs", include_str!("../src/testkit.rs")),
];

/// The identifiers `source` names outside test code and comments, with
/// the 1-based line each is on.
fn identifiers(source: &str) -> Vec<(usize, &str)> {
    let mut names = Vec::new();
    for (at, line) in source.lines().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let code = line.split("//").next().unwrap_or_default();
        let words = code.split(|c: char| !(c.is_alphanumeric() || c == '_'));
        names.extend(words.filter(|w| !w.is_empty()).map(|w| (at + 1, w)));
    }
    names
}

/// Where `source` names any of `banned`, as `file:line: name`.
fn offences(file: &str, source: &str, banned: &[&str]) -> Vec<String> {
    identifiers(source)
        .into_iter()
        .filter(|(_, name)| banned.contains(name))
        .map(|(line, name)| format!("{file}:{line}: {name}"))
        .collect()
}

#[test]
fn every_source_file_is_checked() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut on_disk: Vec<String> = std::fs::read_dir(dir)
        .expect("list src")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    on_disk.sort();
    let listed: Vec<&str> = SOURCES.iter().map(|&(file, _)| file).collect();
    assert_eq!(on_disk, listed, "SOURCES must list every file in src/");
}

#[test]
fn only_the_store_touches_the_filesystem() {
    let found: Vec<String> = SOURCES
        .iter()
        .filter(|&&(file, _)| file != "store.rs")
        .flat_map(|&(file, source)| offences(file, source, &["fs", "File", "OpenOptions"]))
        .collect();
    assert!(
        found.is_empty(),
        "filesystem use outside store.rs: {found:#?}"
    );
}

#[test]
fn the_core_does_no_io_of_its_own() {
    let banned = [
        "Instant",
        "SystemTime",
        "mpsc",
        "TcpStream",
        "thread",
        "eprintln",
    ];
    let (file, core) = SOURCES[0];
    assert_eq!(file, "core.rs");
    let found = offences(file, core, &banned);
    assert!(found.is_empty(), "I/O in core.rs: {found:#?}");
}

/// The checks see what they are meant to see, and only that.
#[test]
fn the_checks_catch_what_they_ban() {
    let source = "use std::fs::File; // a File in a comment\n\
                  fn f() { let _ = std::time::Instant::now(); }\n\
                  fn g(s: FileStore) {}\n\
                  #[cfg(test)]\n\
                  mod tests { use std::sync::mpsc; }\n";
    assert_eq!(
        offences("x.rs", source, &["fs", "File", "Instant", "mpsc"]),
        ["x.rs:1: fs", "x.rs:1: File", "x.rs:2: Instant"]
    );
}
