//! A fence on the toolchain configuration that carries the workspace's
//! determinism and audit rules: if a manifest or `clippy.toml` edit
//! drops one, this fails before clippy silently stops checking it.

use std::fs;
use std::path::Path;

/// The trimmed lines of one TOML table, up to the next header.
fn toml_table<'a>(src: &'a str, header: &str) -> Vec<&'a str> {
    src.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// The rules live on the toolchain: every crate opts into the workspace
/// lint table; the table denies `unsafe`, wants docs and `// SAFETY:`
/// comments, and warns on `#[allow]` (exemptions are `#[expect]`, which
/// rustc reports once stale); `clippy.toml` bans the hash collections,
/// the wall-clock reads and every `Instant` difference; and no crate
/// comes from a registry — so no entropy source (`thread_rng`,
/// `from_entropy`, `OsRng`) can enter beside the seeded vendored `rand`.
#[test]
fn workspace_lint_config() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &Path| fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
    let root_manifest = read(&root.join("Cargo.toml"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates dir") {
        let m = entry.expect("crate entry").path().join("Cargo.toml");
        if m.is_file() {
            manifests.push(m);
        }
    }
    assert!(manifests.len() > 10, "{manifests:?}");
    for m in &manifests {
        assert_eq!(
            toml_table(&read(m), "[lints]"),
            ["workspace = true"],
            "{} must opt into the workspace lints",
            m.display()
        );
    }

    let rust = toml_table(&root_manifest, "[workspace.lints.rust]");
    assert!(rust.contains(&"unsafe_code = \"deny\""), "{rust:?}");
    assert!(
        rust.iter().any(|l| l.starts_with("missing_docs =")),
        "{rust:?}"
    );
    let clippy = toml_table(&root_manifest, "[workspace.lints.clippy]");
    assert!(
        clippy
            .iter()
            .any(|l| l.starts_with("undocumented_unsafe_blocks =")),
        "{clippy:?}"
    );
    assert!(
        clippy.contains(&"allow_attributes = \"warn\""),
        "{clippy:?}"
    );

    let config = read(&root.join("clippy.toml"));
    let banned = |key: &str| -> Vec<&str> {
        let list = &config[config.find(key).unwrap_or_else(|| panic!("no {key}"))..];
        let list = &list[..list.find("\n]").expect("closed list")];
        list.split("path = \"")
            .skip(1)
            .map(|p| &p[..p.find('"').expect("closed path")])
            .collect()
    };
    assert_eq!(
        banned("disallowed-types"),
        [
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::hash::RandomState"
        ]
    );
    assert_eq!(
        banned("disallowed-methods"),
        [
            "std::time::Instant::now",
            "std::time::SystemTime::now",
            "std::time::Instant::elapsed",
            "std::time::Instant::duration_since",
            "std::time::Instant::checked_duration_since",
            "std::time::Instant::saturating_duration_since",
        ]
    );

    let lock = read(&root.join("Cargo.lock"));
    assert!(
        !lock.lines().any(|l| l.starts_with("source =")),
        "every dependency must be a workspace path crate"
    );
    let rand = read(&root.join("vendor/rand/src/lib.rs"));
    for source in ["thread_rng", "from_entropy", "OsRng"] {
        assert!(!rand.contains(source), "vendor/rand defines `{source}`");
    }
}
