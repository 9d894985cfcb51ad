//! Per-file symbol tables over the token stream.
//!
//! The taint engine needs a little more shape than
//! [`crate::parse::FileInfo`] recovers: which workspace crates a file's
//! `use` items import names from, the names of each function's
//! parameters and the `impl` target it is defined on, and a best-effort
//! `binding -> type head` map for receiver classification. All of it is
//! name-based and intentionally over-approximate — the consumer is a
//! lint rule, not a compiler.

use crate::lexer::TokenKind;
use crate::parse::FileInfo;
use std::collections::BTreeMap;

/// Symbol information for one source file.
#[derive(Debug, Default)]
pub struct FileSymbols {
    /// `use`-imported names that resolve to a workspace crate:
    /// local name -> package name (e.g. `EventQueue` -> `drs-core`).
    pub imports: BTreeMap<String, String>,
    /// Parameter names per function, parallel to `FileInfo::fns`
    /// (`self` receivers are recorded as `"self"`).
    pub fn_params: Vec<Vec<String>>,
    /// The `impl` target type each function is defined on, parallel to
    /// `FileInfo::fns` (`None` for free functions and trait items).
    pub fn_owner: Vec<Option<String>>,
    /// Best-effort `binding name -> type head` from `let` annotations,
    /// `Type::constructor` initializers, and typed fn parameters.
    /// File-wide and last-wins; good enough for receiver heuristics.
    pub binding_types: BTreeMap<String, String>,
}

/// A crate's name plus its parsed files — the unit the workspace-wide
/// taint pass operates on.
pub struct CrateView<'a> {
    /// Package name from the crate's manifest.
    pub name: String,
    /// Parsed sources, in path order.
    pub files: &'a [FileInfo],
}

/// Maps a path segment like `drs_core` or `crate` to the workspace
/// package it names, if any.
pub fn crate_of_segment(seg: &str) -> Option<String> {
    if seg.starts_with("drs_") || seg == "deeprecsys" {
        Some(seg.replace('_', "-"))
    } else {
        None
    }
}

/// Keywords that can never be a callee or a binding name.
pub const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "in", "match", "return", "loop", "fn", "as", "let", "move",
    "ref", "mut", "use", "pub", "crate", "super", "self", "Self", "where", "impl", "dyn", "box",
    "await", "async", "const", "static", "enum", "struct", "trait", "type", "union", "unsafe",
    "extern", "mod", "break", "continue", "true", "false",
];

impl FileSymbols {
    /// Builds the symbol table for one parsed file.
    pub fn analyze(f: &FileInfo) -> FileSymbols {
        let mut out = FileSymbols {
            imports: collect_imports(f),
            fn_params: Vec::with_capacity(f.fns.len()),
            fn_owner: Vec::with_capacity(f.fns.len()),
            binding_types: BTreeMap::new(),
        };
        let impl_owners = collect_impl_owners(f);
        for item in &f.fns {
            out.fn_params
                .push(collect_params(f, item.params, &mut out.binding_types));
            out.fn_owner.push(owner_of(f, item.params.0, &impl_owners));
        }
        collect_let_types(f, &mut out.binding_types);
        out
    }
}

/// Maps each `impl` block's opening-brace token index to the target
/// type name (`impl Foo { .. }` and `impl Trait for Foo { .. }` both
/// map to `Foo`).
fn collect_impl_owners(f: &FileInfo) -> BTreeMap<usize, String> {
    let toks = &f.tokens;
    let mut out = BTreeMap::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("impl") {
            continue;
        }
        // Header runs to the first `{` at angle-depth 0.
        let mut angle = 0i32;
        let mut open = None;
        let mut target: Option<String> = None;
        #[allow(clippy::needless_range_loop)] // indexed token scan
        for k in i + 1..toks.len().min(i + 64) {
            let t = &toks[k];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "{" if angle <= 0 => {
                        open = Some(k);
                        break;
                    }
                    ";" => break,
                    _ => {}
                }
                continue;
            }
            if t.is_ident("for") && angle <= 0 {
                // Trait impl: the target is the type after `for`.
                target = None;
                continue;
            }
            if t.kind == TokenKind::Ident
                && angle <= 0
                && target.is_none()
                && t.text.chars().next().is_some_and(char::is_uppercase)
            {
                target = Some(t.text.clone());
            }
        }
        if let (Some(open), Some(target)) = (open, target) {
            out.insert(open, target);
        }
    }
    out
}

/// Finds the impl target enclosing the token at `idx`, if any.
fn owner_of(f: &FileInfo, idx: usize, impl_owners: &BTreeMap<usize, String>) -> Option<String> {
    let mut cur = f.token_block.get(idx).copied().flatten();
    while let Some(b) = cur {
        if let Some(owner) = impl_owners.get(&f.blocks[b].open) {
            return Some(owner.clone());
        }
        cur = f.blocks[b].parent;
    }
    None
}

/// Collects `use` leaves that import from a workspace crate. Handles
/// nested groups (`use drs_core::{report::SimReport, EventQueue};`)
/// and renames (`as`); globs are ignored.
fn collect_imports(f: &FileInfo) -> BTreeMap<String, String> {
    let toks = &f.tokens;
    let mut out = BTreeMap::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("use") {
            continue;
        }
        let Some(first) = toks.get(i + 1) else {
            continue;
        };
        let Some(pkg) = crate_of_segment(&first.text) else {
            continue;
        };
        // Walk the use tree to its terminating `;`, recording leaves.
        let mut k = i + 1;
        while k < toks.len() && !toks[k].is_punct(';') {
            let t = &toks[k];
            if t.kind == TokenKind::Ident && !KEYWORDS.contains(&t.text.as_str()) {
                // A leaf ends the path: next code token is `,`, `}`,
                // `;`, or an `as` rename (then the alias is the leaf).
                match toks.get(k + 1) {
                    Some(n) if n.is_punct(',') || n.is_punct('}') || n.is_punct(';') => {
                        out.insert(t.text.clone(), pkg.clone());
                    }
                    Some(n) if n.is_ident("as") => {
                        if let Some(alias) = toks.get(k + 2) {
                            out.insert(alias.text.clone(), pkg.clone());
                        }
                    }
                    _ => {}
                }
            }
            k += 1;
        }
    }
    out
}

/// Collects parameter names from one fn's parameter-list token range,
/// recording parameter types into `binding_types` as a side effect.
fn collect_params(
    f: &FileInfo,
    (open, close): (usize, usize),
    binding_types: &mut BTreeMap<String, String>,
) -> Vec<String> {
    let toks = &f.tokens;
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut k = open;
    while k <= close.min(toks.len().saturating_sub(1)) {
        let t = &toks[k];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                _ => {}
            }
            k += 1;
            continue;
        }
        // Depth 1 = directly inside the outer parens.
        if depth == 1 && t.kind == TokenKind::Ident {
            if t.text == "self" {
                if out.is_empty() {
                    out.push("self".to_string());
                }
            } else if toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
                && !toks.get(k + 2).is_some_and(|n| n.is_punct(':'))
                && !KEYWORDS.contains(&t.text.as_str())
            {
                out.push(t.text.clone());
                if let Some(head) = type_head(f, k + 2) {
                    binding_types.insert(t.text.clone(), head);
                }
            }
        }
        k += 1;
    }
    out
}

/// First type-naming identifier at or after `start`, skipping
/// reference/modifier sigils.
fn type_head(f: &FileInfo, start: usize) -> Option<String> {
    for t in f.tokens.iter().skip(start).take(6) {
        if t.kind == TokenKind::Lifetime {
            continue;
        }
        if t.kind == TokenKind::Punct && (t.text == "&" || t.text == "*") {
            continue;
        }
        if t.kind == TokenKind::Ident {
            if matches!(t.text.as_str(), "mut" | "dyn" | "impl" | "const") {
                continue;
            }
            return Some(t.text.clone());
        }
        return None;
    }
    None
}

/// Records `let [mut] name: Type` annotations and `let [mut] name =
/// Type::...` constructor initializers.
fn collect_let_types(f: &FileInfo, binding_types: &mut BTreeMap<String, String>) {
    let toks = &f.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name) = toks.get(j) else { continue };
        if name.kind != TokenKind::Ident || KEYWORDS.contains(&name.text.as_str()) {
            continue;
        }
        if toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
        {
            if let Some(head) = type_head(f, j + 2) {
                binding_types.insert(name.text.clone(), head);
            }
        } else if toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
            // `let x = Type::new(..)` — uppercase head then `::`.
            if let Some(head) = toks.get(j + 2) {
                if head.kind == TokenKind::Ident
                    && head.text.chars().next().is_some_and(char::is_uppercase)
                    && toks.get(j + 3).is_some_and(|t| t.is_punct(':'))
                    && toks.get(j + 4).is_some_and(|t| t.is_punct(':'))
                {
                    binding_types.insert(name.text.clone(), head.text.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(src: &str) -> FileInfo {
        FileInfo::parse("t.rs", src)
    }

    #[test]
    fn use_imports_resolve_workspace_crates() {
        let f = info(
            "use drs_core::{report::SimReport, EventQueue}; \
             use drs_query::Query as Q; \
             use std::collections::BTreeMap; \
             use drs_telemetry::pulse::*;",
        );
        let s = FileSymbols::analyze(&f);
        assert_eq!(
            s.imports.get("SimReport").map(String::as_str),
            Some("drs-core")
        );
        assert_eq!(
            s.imports.get("EventQueue").map(String::as_str),
            Some("drs-core")
        );
        assert_eq!(s.imports.get("Q").map(String::as_str), Some("drs-query"));
        assert!(!s.imports.contains_key("BTreeMap"), "std is not workspace");
        assert!(
            !s.imports.contains_key("pulse"),
            "glob path segments skipped"
        );
    }

    #[test]
    fn fn_params_parallel_fns() {
        let f = info(
            "fn a(queries: &[Query], opts: ServeOptions) {} \
             fn b(&mut self, time: SimTime) {} \
             fn c() {}",
        );
        let s = FileSymbols::analyze(&f);
        assert_eq!(s.fn_params.len(), f.fns.len());
        assert_eq!(s.fn_params[0], ["queries", "opts"]);
        assert_eq!(s.fn_params[1], ["self", "time"]);
        assert!(s.fn_params[2].is_empty());
        assert_eq!(
            s.binding_types.get("opts").map(String::as_str),
            Some("ServeOptions")
        );
    }

    #[test]
    fn fn_owners_track_impl_targets() {
        let f = info(
            "impl EventQueue { pub fn push(&mut self, t: SimTime) {} } \
             impl fmt::Display for Finding { fn fmt(&self) {} } \
             fn free() {}",
        );
        let s = FileSymbols::analyze(&f);
        let owners: Vec<Option<&str>> = s.fn_owner.iter().map(Option::as_deref).collect();
        assert_eq!(owners, [Some("EventQueue"), Some("Finding"), None]);
    }

    #[test]
    fn binding_types_from_lets() {
        let f = info(
            "fn f() { let mut events: EventQueue<Ev> = EventQueue::new(); \
             let rng = StdRng::seed_from_u64(7); let x = compute(); }",
        );
        let s = FileSymbols::analyze(&f);
        assert_eq!(
            s.binding_types.get("events").map(String::as_str),
            Some("EventQueue")
        );
        assert_eq!(
            s.binding_types.get("rng").map(String::as_str),
            Some("StdRng")
        );
        assert!(!s.binding_types.contains_key("x"));
    }

    #[test]
    fn crate_segments_normalize() {
        assert_eq!(crate_of_segment("drs_core").as_deref(), Some("drs-core"));
        assert_eq!(
            crate_of_segment("deeprecsys").as_deref(),
            Some("deeprecsys")
        );
        assert!(crate_of_segment("std").is_none());
    }
}
