//! Interprocedural wall-clock taint analysis (R7 `clock-taint`) over
//! per-function def-use chains.
//!
//! A *source* (`Instant::now`/`SystemTime`) introduces taint; taint then
//! propagates through `let` bindings, assignments, call arguments,
//! return values, and struct-field stores to a workspace-wide fixpoint;
//! a *sink* turns arriving taint into a finding. Wall-clock-derived
//! values must never reach a report/`PulseSummary`/`MetricsRegistry`
//! field, a metrics record, or a virtual-clock event booking. Real-path
//! pacing math earns a documented `lint:allow(clock-taint)`.
//!
//! The analysis is flow-insensitive within a statement and name-based
//! across functions, field-granular through structs (a tainted field
//! does not poison its siblings), and monotone — every pass only adds
//! taint, so the worklist converges. Precision follows the lint's usual
//! bias: over-approximate, and let a reviewed `lint:allow` document the
//! intentional flows.

use crate::lexer::{Token, TokenKind};
use crate::parse::FileInfo;
use crate::rules::{push, Finding, RuleId, RuleOutput};
use crate::symbols::{crate_of_segment, CrateView, FileSymbols, KEYWORDS};
use std::collections::BTreeMap;

/// Per-value taint state: the interned source that first tainted it
/// (`None` = clean). Merges keep the first source, so the state is
/// monotone and the fixpoint terminates.
type Taint = Option<u32>;

fn union_into(dst: &mut Taint, src: Taint) -> bool {
    let changed = dst.is_none() && src.is_some();
    if changed {
        *dst = src;
    }
    changed
}

/// An allow directive on a flow statement *sanctions* the taint: it is
/// stripped before it propagates any further, and the directive is
/// credited with a suppressed finding so the stale-allow audit sees it
/// earning its keep. This is how the real runtime's wall-to-model-time
/// conversion is documented: one `lint:allow(clock-taint)` at the
/// conversion, not an allow at every downstream pacing sink.
fn launder(
    st: &mut State,
    f: &FileInfo,
    line: u32,
    taint: &mut Taint,
    emit: &mut Option<&mut RuleOutput>,
) {
    let Some(src) = *taint else {
        return;
    };
    if !f.is_allowed(line, RuleId::ClockTaint.name()) {
        return;
    }
    if let Some(out) = emit.as_deref_mut() {
        // A sink finding suppressed at this very line already credits
        // the directive; don't double-count.
        let already = out
            .suppressed
            .iter()
            .any(|s| s.rule == RuleId::ClockTaint && s.line == line && s.path == f.path);
        if !already {
            out.suppressed.push(Finding {
                path: f.path.clone(),
                line,
                rule: RuleId::ClockTaint,
                message: format!(
                    "wall-clock taint sanctioned here — derived from {}",
                    st.describe(src)
                ),
            });
        }
    }
    *taint = None;
}

/// One interned taint source, named in every finding it produces.
struct Src {
    what: String,
    path: String,
    line: u32,
}

/// One function definition in the flattened workspace.
struct FnRef {
    crate_idx: usize,
    file_idx: usize,
    fn_idx: usize,
}

/// Metrics-recording methods whose arguments are taint sinks (the
/// `MetricsSink` trait surface plus the registry-side recorders).
const METRIC_SINKS: &[&str] = &[
    "set_epoch",
    "tick",
    "gauge",
    "inc",
    "observe",
    "decision",
    "drr_round",
    "set_gauge",
    "sample",
];

/// Receiver names that identify the virtual-clock event queues.
const EVENT_RECEIVERS: &[&str] = &["events", "event_queue", "gpu_heap"];

/// Is `name` an exported-report struct (a taint sink)?
fn sinky_struct(name: &str) -> bool {
    name.ends_with("Report")
        || name.ends_with("Summary")
        || name.ends_with("Breakdown")
        || name == "MetricsRegistry"
}

/// Everything immutable the passes need, built once per analysis.
struct Workspace<'a> {
    views: &'a [CrateView<'a>],
    symbols: Vec<Vec<FileSymbols>>,
    /// `open token index -> block id`, per crate/file.
    open_block: Vec<Vec<BTreeMap<usize, usize>>>,
    fns: Vec<FnRef>,
    by_name: BTreeMap<String, Vec<usize>>,
    /// Whether the fn has a `->` return type, per fn id.
    has_ret: Vec<bool>,
    /// Whether sources and sinks apply, per crate.
    clock_scope: Vec<bool>,
}

/// The mutable fixpoint state.
struct State {
    param_taint: Vec<Vec<Taint>>,
    ret_taint: Vec<Taint>,
    /// Per-`(crate, field-name)` taint. Field tracking is name-based
    /// within a crate — global-by-name would let a real-path store to
    /// `.qps` in one crate poison a same-named virtual-path field in
    /// another.
    field_taint: BTreeMap<(usize, String), Taint>,
    srcs: Vec<Src>,
    intern: BTreeMap<(String, u32, String), u32>,
    changed: bool,
}

const MAX_GLOBAL_PASSES: usize = 12;
const MAX_LOCAL_PASSES: usize = 3;

impl<'a> Workspace<'a> {
    fn build(views: &'a [CrateView<'a>], clock_exempt: &[&str]) -> Workspace<'a> {
        let symbols: Vec<Vec<FileSymbols>> = views
            .iter()
            .map(|v| v.files.iter().map(FileSymbols::analyze).collect())
            .collect();
        let open_block: Vec<Vec<BTreeMap<usize, usize>>> = views
            .iter()
            .map(|v| {
                v.files
                    .iter()
                    .map(|f| {
                        f.blocks
                            .iter()
                            .enumerate()
                            .map(|(id, b)| (b.open, id))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut has_ret = Vec::new();
        for (ci, v) in views.iter().enumerate() {
            for (fi, f) in v.files.iter().enumerate() {
                for (xi, item) in f.fns.iter().enumerate() {
                    let id = fns.len();
                    fns.push(FnRef {
                        crate_idx: ci,
                        file_idx: fi,
                        fn_idx: xi,
                    });
                    by_name.entry(item.name.clone()).or_default().push(id);
                    let sig_end = item
                        .body
                        .map(|b| f.blocks[b].open)
                        .unwrap_or(f.tokens.len());
                    let mut ret = false;
                    let mut k = item.params.1 + 1;
                    while k + 1 < sig_end.min(f.tokens.len()) {
                        if f.tokens[k].is_punct('-') && f.tokens[k + 1].is_punct('>') {
                            ret = true;
                            break;
                        }
                        k += 1;
                    }
                    has_ret.push(ret);
                }
            }
        }
        let clock_scope = views
            .iter()
            .map(|v| !clock_exempt.contains(&v.name.as_str()))
            .collect();
        Workspace {
            views,
            symbols,
            open_block,
            fns,
            by_name,
            has_ret,
            clock_scope,
        }
    }

    fn file(&self, id: usize) -> &FileInfo {
        let r = &self.fns[id];
        &self.views[r.crate_idx].files[r.file_idx]
    }

    fn syms(&self, id: usize) -> &FileSymbols {
        let r = &self.fns[id];
        &self.symbols[r.crate_idx][r.file_idx]
    }
}

impl State {
    fn new(ws: &Workspace) -> State {
        let param_taint = ws
            .fns
            .iter()
            .enumerate()
            .map(|(id, _)| vec![None; ws.syms(id).fn_params[ws.fns[id].fn_idx].len()])
            .collect();
        State {
            param_taint,
            ret_taint: vec![None; ws.fns.len()],
            field_taint: BTreeMap::new(),
            srcs: Vec::new(),
            intern: BTreeMap::new(),
            changed: false,
        }
    }

    fn intern(&mut self, what: &str, path: &str, line: u32) -> u32 {
        let key = (path.to_string(), line, what.to_string());
        if let Some(&id) = self.intern.get(&key) {
            return id;
        }
        let id = self.srcs.len() as u32;
        self.srcs.push(Src {
            what: what.to_string(),
            path: path.to_string(),
            line,
        });
        self.intern.insert(key, id);
        id
    }

    fn describe(&self, src: u32) -> String {
        let s = &self.srcs[src as usize];
        format!("{} at {}:{}", s.what, s.path, s.line)
    }
}

/// Runs the taint engine over every crate in `views`. Crates named in
/// `clock_exempt` neither seed nor sink taint (their bodies are still
/// analyzed, so taint passes *through* them).
pub fn check_taint(views: &[CrateView], clock_exempt: &[&str]) -> RuleOutput {
    let ws = Workspace::build(views, clock_exempt);
    let mut st = State::new(&ws);
    for _ in 0..MAX_GLOBAL_PASSES {
        st.changed = false;
        for id in 0..ws.fns.len() {
            scan_fn(&ws, &mut st, id, None);
        }
        if !st.changed {
            break;
        }
    }
    let mut out = RuleOutput::default();
    for id in 0..ws.fns.len() {
        scan_fn(&ws, &mut st, id, Some(&mut out));
    }
    out
}

/// [`check_taint`] over one file set treated as a single in-scope
/// crate (fixtures and unit tests).
pub fn check_taint_files(files: &[FileInfo]) -> RuleOutput {
    let views = [CrateView {
        name: "fixture".to_string(),
        files,
    }];
    check_taint(&views, &[])
}

/// Analyzes one function: local fixpoint over its bindings, then (on
/// the emit pass) findings at every sink taint reaches.
fn scan_fn(ws: &Workspace, st: &mut State, id: usize, mut emit: Option<&mut RuleOutput>) {
    let r = &ws.fns[id];
    let f = ws.file(id);
    if f.fns[r.fn_idx].body.is_none() {
        return;
    }
    let mut locals: BTreeMap<String, Taint> = BTreeMap::new();
    for (pi, p) in ws.syms(id).fn_params[r.fn_idx].iter().enumerate() {
        if p != "self" {
            locals.insert(p.clone(), st.param_taint[id][pi]);
        }
    }
    for _ in 0..MAX_LOCAL_PASSES {
        if !scan_once(ws, st, id, &mut locals, &mut None) {
            break;
        }
    }
    if emit.is_some() {
        scan_once(ws, st, id, &mut locals, &mut emit);
    }
}

/// One forward walk over the body. Returns whether any local binding's
/// taint changed (the caller loops to a local fixpoint). Global-state
/// changes are flagged on `st.changed`.
#[allow(clippy::too_many_lines)]
fn scan_once(
    ws: &Workspace,
    st: &mut State,
    id: usize,
    locals: &mut BTreeMap<String, Taint>,
    emit: &mut Option<&mut RuleOutput>,
) -> bool {
    let r = &ws.fns[id];
    let f = ws.file(id);
    let b = f.blocks[f.fns[r.fn_idx].body.expect("caller checked body")];
    let toks = &f.tokens;
    let close = b.close.min(toks.len().saturating_sub(1));
    let mut locals_changed = false;
    // Depths relative to the body, for top-level statement tracking.
    let (mut brace, mut paren, mut brack) = (0i32, 0i32, 0i32);
    let mut last_semi = b.open; // tail expression starts after this
    let mut i = b.open + 1;
    while i < close {
        let t = &toks[i];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => brace += 1,
                "}" => brace -= 1,
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => brack += 1,
                "]" => brack -= 1,
                ";" if brace == 0 && paren == 0 && brack == 0 => last_semi = i,
                "=" => {
                    if let Some(chg) = handle_assign(ws, st, id, locals, i, close, emit) {
                        locals_changed |= chg;
                    }
                }
                _ => {}
            }
            i += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "let" => {
                let (next_i, chg) = handle_let(ws, st, id, locals, i, close, emit);
                locals_changed |= chg;
                i = next_i;
                continue;
            }
            "for" if !toks.get(i + 1).is_some_and(|n| n.is_punct('<')) => {
                let (next_i, chg) = handle_for(ws, st, id, locals, i, close, emit);
                locals_changed |= chg;
                i = next_i;
                continue;
            }
            "return" => {
                let hi = stmt_end(toks, i + 1, close);
                let mut taint = eval(ws, st, id, locals, i + 1, hi);
                launder(st, f, toks[i].line, &mut taint, emit);
                if ws.has_ret[id] && union_into(&mut st.ret_taint[id], taint) {
                    st.changed = true;
                }
                i += 1;
                continue;
            }
            _ => {}
        }
        // Struct literal in expression position: propagate the field
        // expressions into the global field-taint map and check sinks.
        if is_struct_literal_at(toks, i, b.open) {
            handle_struct_literal(ws, st, id, locals, i, emit);
            i += 1;
            continue;
        }
        // Call site: sink checks plus argument -> parameter flow.
        if toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !KEYWORDS.contains(&t.text.as_str())
            && !(i > 0 && toks[i - 1].is_ident("fn"))
        {
            handle_call(ws, st, id, locals, i, emit);
        }
        i += 1;
    }
    // Tail expression feeds the return value.
    if ws.has_ret[id] && last_semi + 1 < close {
        let mut taint = eval(ws, st, id, locals, last_semi + 1, close);
        launder(st, f, toks[last_semi + 1].line, &mut taint, emit);
        if union_into(&mut st.ret_taint[id], taint) {
            st.changed = true;
        }
    }
    locals_changed
}

/// Scans from `lo` to the end of the statement: the first `;` or `,`
/// at relative depth 0, or a closer that leaves the enclosing scope.
fn stmt_end(toks: &[Token], lo: usize, cap: usize) -> usize {
    let (mut brace, mut paren, mut brack) = (0i32, 0i32, 0i32);
    let mut j = lo;
    while j < cap {
        let t = &toks[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" => brace += 1,
                "(" => paren += 1,
                "[" => brack += 1,
                "}" | ")" | "]" => {
                    let d = match t.text.as_str() {
                        "}" => {
                            brace -= 1;
                            brace
                        }
                        ")" => {
                            paren -= 1;
                            paren
                        }
                        _ => {
                            brack -= 1;
                            brack
                        }
                    };
                    if d < 0 {
                        return j;
                    }
                }
                ";" | "," if brace == 0 && paren == 0 && brack == 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    cap
}

/// `let` statements: simple, tuple, and struct-destructuring patterns.
/// Returns the next scan position (just past the `=`, so the
/// initializer is still walked for nested constructs) and whether any
/// binding's taint changed.
fn handle_let(
    ws: &Workspace,
    st: &mut State,
    id: usize,
    locals: &mut BTreeMap<String, Taint>,
    i: usize,
    close: usize,
    emit: &mut Option<&mut RuleOutput>,
) -> (usize, bool) {
    let f = ws.file(id);
    let toks = &f.tokens;
    let is_cond = i > 0 && (toks[i - 1].is_ident("if") || toks[i - 1].is_ident("while"));
    // Find the binding `=` (or bail at `;` for uninitialized lets).
    let (mut brace, mut paren, mut brack, mut angle) = (0i32, 0i32, 0i32, 0i32);
    let mut eq = None;
    #[allow(clippy::needless_range_loop)] // indexed token scan
    for j in i + 1..close {
        let t = &toks[j];
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => brace += 1,
            "}" => brace -= 1,
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => brack += 1,
            "]" => brack -= 1,
            "<" => angle += 1,
            ">" => angle -= 1,
            "=" if brace == 0 && paren == 0 && brack == 0 && angle <= 0 => {
                eq = Some(j);
                break;
            }
            ";" if brace == 0 && paren == 0 && brack == 0 => break,
            _ => {}
        }
    }
    let Some(eq) = eq else {
        return (i + 1, false);
    };
    let rhs_hi = if is_cond {
        // `if let` / `while let`: the initializer ends at the block.
        let mut j = eq + 1;
        let (mut br, mut pa, mut bk) = (0i32, 0i32, 0i32);
        while j < close {
            let t = &toks[j];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" => pa += 1,
                    ")" => pa -= 1,
                    "[" => bk += 1,
                    "]" => bk -= 1,
                    "{" if pa == 0 && bk == 0 && br == 0 => break,
                    "{" => br += 1,
                    "}" => br -= 1,
                    _ => {}
                }
            }
            j += 1;
        }
        j
    } else {
        stmt_end(toks, eq + 1, close)
    };
    let mut rhs_taint = eval(ws, st, id, locals, eq + 1, rhs_hi);
    launder(st, f, toks[i].line, &mut rhs_taint, emit);
    let mut changed = false;
    // Struct-destructuring pattern: bindings take the *field's* taint,
    // not the whole value's (field-granular tracking).
    let mut destructured = false;
    for j in i + 1..eq {
        if toks[j].kind == TokenKind::Ident
            && toks[j].text.chars().next().is_some_and(char::is_uppercase)
            && toks.get(j + 1).is_some_and(|n| n.is_punct('{'))
        {
            destructured = true;
            let mut depth = 0i32;
            let mut k = j + 2;
            while k < eq {
                let t = &toks[k];
                if t.kind == TokenKind::Punct {
                    match t.text.as_str() {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => {
                            if t.is_punct('}') && depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        _ => {}
                    }
                    k += 1;
                    continue;
                }
                if depth == 0 && t.kind == TokenKind::Ident && !KEYWORDS.contains(&t.text.as_str())
                {
                    let field = t.text.clone();
                    let binding = if toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
                        && !toks.get(k + 2).is_some_and(|n| n.is_punct(':'))
                    {
                        // `field: binding` rename
                        k += 2;
                        toks.get(k).map(|b| b.text.clone())
                    } else {
                        Some(field.clone())
                    };
                    let key = (ws.fns[id].crate_idx, field.clone());
                    if let (Some(bind), Some(&ft)) = (binding, st.field_taint.get(&key)) {
                        changed |= union_into(locals.entry(bind).or_default(), ft);
                    }
                }
                k += 1;
            }
            break;
        }
    }
    if !destructured {
        // Simple/tuple pattern: every binding takes the initializer's
        // taint. Identifiers after a top-level `:` are a type
        // annotation, not bindings.
        let mut annotated = false;
        let (mut pa, mut bk) = (0i32, 0i32);
        for j in i + 1..eq {
            let t = &toks[j];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" => pa += 1,
                    ")" => pa -= 1,
                    "[" => bk += 1,
                    "]" => bk -= 1,
                    ":" if pa == 0
                        && bk == 0
                        && !toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                        && !toks.get(j.wrapping_sub(1)).is_some_and(|n| n.is_punct(':')) =>
                    {
                        annotated = true;
                    }
                    _ => {}
                }
                continue;
            }
            if annotated || t.kind != TokenKind::Ident {
                continue;
            }
            let name = t.text.as_str();
            if KEYWORDS.contains(&name) || name == "_" {
                continue;
            }
            // Path segments in enum patterns (`Some`, `Ev::Gpu`) are
            // uppercase or followed by `::` — skip them.
            if name.chars().next().is_some_and(char::is_uppercase) {
                continue;
            }
            if toks.get(j + 1).is_some_and(|n| n.is_punct(':')) {
                continue;
            }
            changed |= union_into(locals.entry(t.text.clone()).or_default(), rhs_taint);
        }
    }
    (eq + 1, changed)
}

/// `for pat in expr {`: loop bindings take the iterated expression's
/// taint.
fn handle_for(
    ws: &Workspace,
    st: &mut State,
    id: usize,
    locals: &mut BTreeMap<String, Taint>,
    i: usize,
    close: usize,
    emit: &mut Option<&mut RuleOutput>,
) -> (usize, bool) {
    let f = ws.file(id);
    let toks = &f.tokens;
    let (mut pa, mut bk, mut br) = (0i32, 0i32, 0i32);
    let mut in_idx = None;
    #[allow(clippy::needless_range_loop)] // indexed token scan
    for j in i + 1..close.min(i + 64) {
        let t = &toks[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" => pa += 1,
                ")" => pa -= 1,
                "[" => bk += 1,
                "]" => bk -= 1,
                "{" => br += 1,
                "}" => br -= 1,
                _ => {}
            }
            continue;
        }
        if t.is_ident("in") && pa == 0 && bk == 0 && br == 0 {
            in_idx = Some(j);
            break;
        }
    }
    let Some(in_idx) = in_idx else {
        return (i + 1, false);
    };
    // Header expression: up to the loop's opening brace.
    let mut hi = in_idx + 1;
    let (mut pa, mut bk) = (0i32, 0i32);
    while hi < close {
        let t = &toks[hi];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" => pa += 1,
                ")" => pa -= 1,
                "[" => bk += 1,
                "]" => bk -= 1,
                "{" if pa == 0 && bk == 0 => break,
                _ => {}
            }
        }
        hi += 1;
    }
    let mut taint = eval(ws, st, id, locals, in_idx + 1, hi);
    launder(st, f, toks[i].line, &mut taint, emit);
    let mut changed = false;
    #[allow(clippy::needless_range_loop)] // indexed token scan
    for j in i + 1..in_idx {
        let t = &toks[j];
        if t.kind != TokenKind::Ident
            || KEYWORDS.contains(&t.text.as_str())
            || t.text == "_"
            || t.text.chars().next().is_some_and(char::is_uppercase)
        {
            continue;
        }
        changed |= union_into(locals.entry(t.text.clone()).or_default(), taint);
    }
    (in_idx + 1, changed)
}

/// Is the `=` at token `i` a real assignment (not `==`, `=>`, `<=`,
/// `>=`, `!=`, or a `let` initializer, which `handle_let` consumed)?
/// Returns `Some(locals_changed)` when handled.
fn handle_assign(
    ws: &Workspace,
    st: &mut State,
    id: usize,
    locals: &mut BTreeMap<String, Taint>,
    i: usize,
    close: usize,
    emit: &mut Option<&mut RuleOutput>,
) -> Option<bool> {
    let f = ws.file(id);
    let toks = &f.tokens;
    let next = toks.get(i + 1)?;
    if next.is_punct('=') || next.is_punct('>') {
        return None;
    }
    if i == 0 {
        return None;
    }
    let prev = &toks[i - 1];
    if prev.kind == TokenKind::Punct && matches!(prev.text.as_str(), "=" | "!" | "<" | ">") {
        return None;
    }
    let compound = prev.kind == TokenKind::Punct
        && matches!(
            prev.text.as_str(),
            "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"
        );
    let lhs_end = if compound { i.checked_sub(2)? } else { i - 1 };
    // Walk the left-hand side back: `base(.field | [idx])*`.
    let mut fields: Vec<&Token> = Vec::new();
    let mut base: Option<&Token> = None;
    let mut k = lhs_end;
    loop {
        let t = &toks[k];
        if t.is_punct(']') {
            // Skip the index expression.
            let mut depth = 0i32;
            while k > 0 {
                if toks[k].is_punct(']') {
                    depth += 1;
                } else if toks[k].is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k -= 1;
            }
            if k == 0 {
                return None;
            }
            k -= 1;
            continue;
        }
        if t.kind == TokenKind::Ident || t.kind == TokenKind::Literal {
            if k >= 1 && toks[k - 1].is_punct('.') {
                fields.push(t);
                if k < 2 {
                    return None;
                }
                k -= 2;
                continue;
            }
            if t.kind == TokenKind::Ident {
                base = Some(t);
            }
            break;
        }
        return None;
    }
    let base = base?;
    if base.is_ident("let") || KEYWORDS.contains(&base.text.as_str()) && base.text != "self" {
        return None;
    }
    let rhs_hi = stmt_end(toks, i + 1, close);
    let mut rhs = eval(ws, st, id, locals, i + 1, rhs_hi);
    if fields.is_empty() {
        launder(st, f, toks[i].line, &mut rhs, emit);
        return Some(union_into(
            locals.entry(base.text.clone()).or_default(),
            rhs,
        ));
    }
    // Field store: `base.f = ..` / `base.a.f = ..` / `base.f[i] = ..`.
    let field = fields[0]; // nearest the `=`, i.e. the stored field
    let Some(src) = rhs else {
        return Some(false);
    };
    // Sink findings fire on the pre-laundered taint (a sink-side
    // allow routes through `push` into the suppressed record).
    if let Some(out) = emit.as_deref_mut() {
        if ws.clock_scope[ws.fns[id].crate_idx] && sinky_receiver(&base.text, ws.syms(id)) {
            push(
                out,
                f,
                field.line,
                RuleId::ClockTaint,
                format!(
                    "wall-clock-tainted value stored into `{}.{}` — derived from {}",
                    base.text,
                    field.text,
                    st.describe(src)
                ),
            );
        }
    }
    launder(st, f, field.line, &mut rhs, emit);
    let e = st
        .field_taint
        .entry((ws.fns[id].crate_idx, field.text.clone()))
        .or_default();
    if union_into(e, rhs) {
        st.changed = true;
    }
    Some(false)
}

/// Does `base` name a receiver whose fields are exported-report state?
fn sinky_receiver(base: &str, syms: &FileSymbols) -> bool {
    if let Some(ty) = syms.binding_types.get(base) {
        if sinky_struct(ty) {
            return true;
        }
    }
    let lower = base.to_ascii_lowercase();
    lower.contains("report") || lower.contains("summary") || matches!(base, "reg" | "registry")
}

/// Is the uppercase identifier at `i` the head of a struct literal
/// (`Name { field: expr, .. }`) in expression position?
fn is_struct_literal_at(toks: &[Token], i: usize, body_open: usize) -> bool {
    let t = &toks[i];
    if t.kind != TokenKind::Ident
        || !t.text.chars().next().is_some_and(char::is_uppercase)
        || !toks.get(i + 1).is_some_and(|n| n.is_punct('{'))
    {
        return false;
    }
    if i <= body_open {
        return true;
    }
    let prev = &toks[i - 1];
    !(prev.is_ident("struct")
        || prev.is_ident("enum")
        || prev.is_ident("union")
        || prev.is_ident("trait")
        || prev.is_ident("impl")
        || prev.is_ident("mod")
        || prev.is_ident("fn"))
}

/// Struct literal: evaluate each field initializer, propagate into the
/// global field-taint map, and (emit pass) flag tainted fields of
/// report-like structs.
fn handle_struct_literal(
    ws: &Workspace,
    st: &mut State,
    id: usize,
    locals: &BTreeMap<String, Taint>,
    i: usize,
    emit: &mut Option<&mut RuleOutput>,
) {
    let r = &ws.fns[id];
    let f = ws.file(id);
    let toks = &f.tokens;
    let sname = toks[i].text.clone();
    let Some(&bid) = ws.open_block[r.crate_idx][r.file_idx].get(&(i + 1)) else {
        return;
    };
    let open = f.blocks[bid].open;
    let close = f.blocks[bid].close.min(toks.len().saturating_sub(1));
    let mut depth = 0i32;
    // A field entry starts right after `{`, a depth-0 `,`, or the outer
    // attributes on the field (`#[allow(..)] name: expr`).
    let mut field_start = open + 1;
    let mut in_attr = false;
    let mut j = open + 1;
    while j < close {
        let t = &toks[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    depth -= 1;
                    if depth == 0 && in_attr {
                        in_attr = false;
                        field_start = j + 1;
                    }
                }
                "#" if j == field_start => in_attr = true,
                "," if depth == 0 => field_start = j + 1,
                _ => {}
            }
            j += 1;
            continue;
        }
        if depth != 0 || t.kind != TokenKind::Ident || j != field_start {
            j += 1;
            continue;
        }
        let (name_tok, lo, hi);
        if toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
            && !toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
        {
            name_tok = t;
            lo = j + 2;
            hi = stmt_end(toks, lo, close);
        } else if toks
            .get(j + 1)
            .is_some_and(|n| n.is_punct(',') || n.is_punct('}'))
        {
            name_tok = t;
            lo = j;
            hi = j + 1;
        } else {
            j += 1;
            continue;
        }
        let mut taint = eval(ws, st, id, locals, lo, hi);
        if let Some(src) = taint {
            if let Some(out) = emit.as_deref_mut() {
                if sinky_struct(&sname) && ws.clock_scope[r.crate_idx] {
                    push(
                        out,
                        f,
                        name_tok.line,
                        RuleId::ClockTaint,
                        format!(
                            "wall-clock-tainted value flows into field `{}` of `{}` — derived from {}",
                            name_tok.text,
                            sname,
                            st.describe(src)
                        ),
                    );
                }
            }
            launder(st, f, name_tok.line, &mut taint, emit);
            let e = st
                .field_taint
                .entry((r.crate_idx, name_tok.text.clone()))
                .or_default();
            if union_into(e, taint) {
                st.changed = true;
            }
        }
        j = hi;
    }
}

/// Call site at ident `i` (next token is `(`): metrics/event-booking
/// sink checks plus argument-to-parameter taint flow.
fn handle_call(
    ws: &Workspace,
    st: &mut State,
    id: usize,
    locals: &BTreeMap<String, Taint>,
    i: usize,
    emit: &mut Option<&mut RuleOutput>,
) {
    let f = ws.file(id);
    let toks = &f.tokens;
    let is_method = i >= 2 && toks[i - 1].is_punct('.');
    // Argument ranges: split the parenthesized list on depth-0 commas.
    let open = i + 1;
    let mut depth = 0i32;
    let mut close_paren = open;
    #[allow(clippy::needless_range_loop)] // indexed token scan
    for j in open..toks.len() {
        let t = &toks[j];
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    close_paren = j;
                    break;
                }
            }
            _ => {}
        }
    }
    let mut args: Vec<(usize, usize)> = Vec::new();
    let mut lo = open + 1;
    let mut d = 0i32;
    #[allow(clippy::needless_range_loop)] // indexed token scan
    for j in open + 1..close_paren {
        let t = &toks[j];
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => d += 1,
            ")" | "]" | "}" => d -= 1,
            "," if d == 0 => {
                args.push((lo, j));
                lo = j + 1;
            }
            _ => {}
        }
    }
    if lo < close_paren {
        args.push((lo, close_paren));
    }
    let mut arg_taints: Vec<Taint> = args
        .iter()
        .map(|&(lo, hi)| eval(ws, st, id, locals, lo, hi))
        .collect();
    // Sink checks (emit pass only).
    if let Some(out) = emit.as_deref_mut() {
        let name = toks[i].text.as_str();
        let clock_ok = ws.clock_scope[ws.fns[id].crate_idx];
        let recv = if is_method && i >= 2 && toks[i - 2].kind == TokenKind::Ident {
            Some(toks[i - 2].text.as_str())
        } else {
            None
        };
        let metrics_sink = is_method && METRIC_SINKS.contains(&name);
        let event_sink = is_method
            && name == "push"
            && recv.is_some_and(|r| {
                EVENT_RECEIVERS.contains(&r)
                    || ws
                        .syms(id)
                        .binding_types
                        .get(r)
                        .is_some_and(|ty| ty == "EventQueue")
            });
        if clock_ok && (metrics_sink || event_sink) {
            for (ai, taint) in arg_taints.iter().enumerate() {
                let Some(src) = *taint else {
                    continue;
                };
                let sink_desc = if metrics_sink {
                    format!("metrics record `.{name}(..)` (argument {})", ai + 1)
                } else {
                    format!(
                        "virtual-clock event booking `{}.push(..)` (argument {})",
                        recv.unwrap_or("events"),
                        ai + 1
                    )
                };
                push(
                    out,
                    f,
                    toks[i].line,
                    RuleId::ClockTaint,
                    format!(
                        "wall-clock-tainted value reaches {} — derived from {}",
                        sink_desc,
                        st.describe(src)
                    ),
                );
            }
        }
    }
    // Argument -> parameter propagation into resolved workspace fns.
    for taint in &mut arg_taints {
        launder(st, f, toks[i].line, taint, emit);
    }
    if arg_taints.iter().all(Option::is_none) {
        return;
    }
    for callee in resolve_at(ws, id, i) {
        let params = &ws.syms(callee).fn_params[ws.fns[callee].fn_idx];
        let off = usize::from(is_method && params.first().is_some_and(|p| p == "self"));
        for (ai, taint) in arg_taints.iter().enumerate() {
            let slot = ai + off;
            if slot >= st.param_taint[callee].len() {
                break;
            }
            if union_into(&mut st.param_taint[callee][slot], *taint) {
                st.changed = true;
            }
        }
    }
}

/// Resolves the callee at token `i` to workspace fn ids by name,
/// narrowed by path qualifier, then typed receiver, then same file /
/// same crate / imported crate / bounded global fallback.
fn resolve_at(ws: &Workspace, caller: usize, i: usize) -> Vec<usize> {
    let r = &ws.fns[caller];
    let f = ws.file(caller);
    let toks = &f.tokens;
    let Some(cands) = ws.by_name.get(&toks[i].text) else {
        return Vec::new();
    };
    let syms = ws.syms(caller);
    let krate = |id: usize| ws.views[ws.fns[id].crate_idx].name.as_str();
    let owner = |id: usize| {
        let fr = &ws.fns[id];
        ws.symbols[fr.crate_idx][fr.file_idx].fn_owner[fr.fn_idx].as_deref()
    };
    if i >= 3 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
        let mut j = i;
        while j >= 3
            && toks[j - 1].is_punct(':')
            && toks[j - 2].is_punct(':')
            && toks[j - 3].kind == TokenKind::Ident
        {
            j -= 3;
        }
        let q = &toks[j].text;
        if let Some(pkg) = crate_of_segment(q) {
            return cands.iter().copied().filter(|&c| krate(c) == pkg).collect();
        }
        if q == "crate" || q == "self" || q == "super" {
            return cands
                .iter()
                .copied()
                .filter(|&c| ws.fns[c].crate_idx == r.crate_idx)
                .collect();
        }
        if q.chars().next().is_some_and(char::is_uppercase) {
            return cands
                .iter()
                .copied()
                .filter(|&c| owner(c) == Some(q.as_str()))
                .collect();
        }
        return cands
            .iter()
            .copied()
            .filter(|&c| ws.fns[c].crate_idx == r.crate_idx)
            .collect();
    }
    if i >= 2 && toks[i - 1].is_punct('.') && toks[i - 2].kind == TokenKind::Ident {
        if let Some(ty) = syms.binding_types.get(&toks[i - 2].text) {
            let owned: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| owner(c) == Some(ty.as_str()))
                .collect();
            if !owned.is_empty() {
                return owned;
            }
        }
    }
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| ws.fns[c].crate_idx == r.crate_idx && ws.fns[c].file_idx == r.file_idx)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| ws.fns[c].crate_idx == r.crate_idx)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    if let Some(pkg) = syms.imports.get(&toks[i].text) {
        let imported: Vec<usize> = cands.iter().copied().filter(|&c| krate(c) == pkg).collect();
        if !imported.is_empty() {
            return imported;
        }
    }
    // Bounded global fallback: a workspace-wide common name (`push`,
    // `get`) would smear taint everywhere; better to under-approximate
    // here and let the field-taint map carry the flow.
    if cands.len() <= 8 {
        cands.clone()
    } else {
        Vec::new()
    }
}

/// Flat taint evaluation of an expression range: union the taint of
/// every atom — sources, tainted locals (modulo pure field
/// projections), field reads, and resolved call returns. Struct
/// literals are skipped (their fields flow through the field-taint
/// map, keeping tracking field-granular).
fn eval(
    ws: &Workspace,
    st: &mut State,
    id: usize,
    locals: &BTreeMap<String, Taint>,
    lo: usize,
    hi: usize,
) -> Taint {
    let f = ws.file(id);
    let r = &ws.fns[id];
    let toks = &f.tokens;
    let clock_ok = ws.clock_scope[r.crate_idx];
    let mut out: Taint = None;
    let tag = |out: &mut Taint, st: &mut State, what: &str, line: u32| {
        if clock_ok && out.is_none() {
            *out = Some(st.intern(what, &f.path, line));
        }
    };
    let mut i = lo;
    while i < hi.min(toks.len()) {
        let t = &toks[i];
        if t.kind == TokenKind::Literal {
            if i > lo && toks[i - 1].is_punct('.') {
                // Tuple-index field read.
                if let Some(&ft) = st.field_taint.get(&(r.crate_idx, t.text.clone())) {
                    union_into(&mut out, ft);
                }
            }
            i += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        // Sources.
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("now"))
        {
            tag(&mut out, st, "`Instant::now()`", t.line);
            i += 4;
            continue;
        }
        if t.is_ident("SystemTime") {
            tag(&mut out, st, "`SystemTime`", t.line);
            i += 1;
            continue;
        }
        // Struct literal: field-granular, skip the block.
        if is_struct_literal_at(toks, i, usize::MAX) && i > lo {
            if let Some(&bid) = ws.open_block[r.crate_idx][r.file_idx].get(&(i + 1)) {
                i = f.blocks[bid].close + 1;
                continue;
            }
        }
        if KEYWORDS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        let after_dot = i > lo && toks[i - 1].is_punct('.');
        let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        if after_dot && !called {
            // Field read: the field's crate-wide taint.
            if let Some(&ft) = st.field_taint.get(&(r.crate_idx, t.text.clone())) {
                union_into(&mut out, ft);
            }
            i += 1;
            continue;
        }
        if called {
            // Call: union the callees' return taint.
            for callee in resolve_at(ws, id, i) {
                union_into(&mut out, st.ret_taint[callee]);
            }
            i += 1;
            continue;
        }
        // Plain local read — unless it is only the head of a pure
        // field projection (`x.f` reads the field, not `x`). A `(` or
        // `::` after the projected name means a method call (possibly
        // turbofished, `rng.gen::<u64>()`), which reads the receiver.
        let projected = toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.kind == TokenKind::Ident || n.kind == TokenKind::Literal)
            && !toks
                .get(i + 3)
                .is_some_and(|n| n.is_punct('(') || n.is_punct(':'));
        if !projected {
            if let Some(&lt) = locals.get(&t.text) {
                union_into(&mut out, lt);
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> RuleOutput {
        let files = [FileInfo::parse("t.rs", src)];
        check_taint_files(&files)
    }

    #[test]
    fn clock_taint_flows_through_a_call_into_a_report_field() {
        // `Report` is the bare name of the one report the workspace
        // exports; it must stay a sink.
        for report in ["RunReport", "Report"] {
            let out = run(&format!(
                "fn stamp() -> u64 {{ let t0 = Instant::now(); t0.elapsed().as_nanos() as u64 }} \
                 pub fn build() -> {report} {{ let wall = stamp(); {report} {{ elapsed_ns: wall }} }}"
            ));
            assert_eq!(out.findings.len(), 1, "{report}: {:?}", out.findings);
            let f = &out.findings[0];
            assert_eq!(f.rule, RuleId::ClockTaint);
            assert!(f.message.contains("Instant::now"), "{f}");
            assert!(f.message.contains("t.rs:1"), "source named: {f}");
        }
    }

    #[test]
    fn clock_taint_flows_through_params_and_field_stores() {
        let out = run(
            "struct Acc { wall_ns: u64 } \
             impl Acc { fn note(&mut self, d: u64) { self.wall_ns = d; } } \
             fn drive(acc: &mut Acc) { let d = Instant::now().elapsed().as_nanos() as u64; acc.note(d); } \
             fn export(acc: &Acc) -> StageSummary { StageSummary { wall_ns: acc.wall_ns } }",
        );
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(
            out.findings[0].message.contains("wall_ns"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn metrics_and_event_bookings_are_clock_sinks() {
        let out = run("fn f(pulse: &mut M, events: &mut EventQueue<Ev>) { \
             let now_ns = Instant::now().elapsed().as_nanos() as u64; \
             if M::ENABLED { pulse.gauge(\"depth\", now_ns as f64); } \
             events.push(now_ns, Ev::Tick); }");
        let rules: Vec<_> = out.findings.iter().map(|f| f.rule).collect();
        assert_eq!(
            rules,
            [RuleId::ClockTaint, RuleId::ClockTaint],
            "{:?}",
            out.findings
        );
        assert!(out
            .findings
            .iter()
            .any(|f| f.message.contains("event booking")));
    }

    #[test]
    fn model_time_bookings_are_clean() {
        let out = run("fn f(events: &mut EventQueue<Ev>, now: u64, dt: u64) { \
             events.push(now + dt, Ev::Tick); }");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn allow_directive_suppresses_and_is_recorded() {
        let out = run("fn f() -> PaceReport {\n\
             let t0 = Instant::now();\n\
             PaceReport {\n\
             wall_ns: t0.elapsed().as_nanos() as u64, // lint:allow(clock-taint)\n\
             }\n}");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed.len(), 1, "{:?}", out.suppressed);
        assert_eq!(out.suppressed[0].rule, RuleId::ClockTaint);
    }

    #[test]
    fn field_granularity_does_not_poison_siblings() {
        let out = run("fn make() -> Carrier { \
             let wall = Instant::now().elapsed().as_nanos() as u64; \
             Carrier { wall_ns: wall, items: 3 } } \
             fn export(c: &Carrier) -> SizeReport { SizeReport { items: c.items } }");
        assert!(
            out.findings.is_empty(),
            "clean sibling field must stay clean: {:?}",
            out.findings
        );
    }

    #[test]
    fn an_attribute_on_a_field_does_not_hide_its_initializer() {
        // The real path's pacing anchor carries a clippy allow.
        let out = run(
            "fn make() -> Pacer { \
             Pacer { items: 3, #[allow(clippy::disallowed_methods)] t0: Instant::now() } } \
             fn export(p: &Pacer) -> TickReport { TickReport { t_ns: p.t0.elapsed().as_nanos() } }",
        );
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(
            out.findings[0].message.contains("Instant::now"),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn clock_exempt_crates_neither_seed_nor_sink() {
        let files = [FileInfo::parse(
            "t.rs",
            "pub fn serve() -> WallReport { \
             let t0 = Instant::now(); \
             WallReport { elapsed_ns: t0.elapsed().as_nanos() as u64 } }",
        )];
        let views = [CrateView {
            name: "drs-engine".to_string(),
            files: &files,
        }];
        let out = check_taint(&views, &["drs-engine"]);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
    }

    #[test]
    fn allow_on_a_flow_statement_launders_the_taint() {
        // One documented allow at the wall-to-model conversion clears
        // every downstream sink, and the audit sees the directive live.
        let out = run("fn model_now() -> u64 {\n\
             let t0 = Instant::now();\n\
             t0.elapsed().as_nanos() as u64 // lint:allow(clock-taint)\n\
             }\n\
             fn export() -> TickReport { TickReport { t_ns: model_now() } }");
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert!(
            out.suppressed
                .iter()
                .any(|s| s.rule == RuleId::ClockTaint && s.line == 3),
            "{:?}",
            out.suppressed
        );
    }

    #[test]
    fn field_taint_does_not_alias_across_crates() {
        let real = [FileInfo::parse(
            "real.rs",
            "fn pace(s: &mut Pacer) { s.qps = Instant::now().elapsed().as_nanos() as f64; }",
        )];
        let virt = [FileInfo::parse(
            "virt.rs",
            "fn export(m: &Model) -> SimReport { SimReport { qps: m.qps } }",
        )];
        let views = [
            CrateView {
                name: "drs-real".to_string(),
                files: &real,
            },
            CrateView {
                name: "drs-virt".to_string(),
                files: &virt,
            },
        ];
        let out = check_taint(&views, &[]);
        assert!(
            out.findings.is_empty(),
            "a same-named field in another crate must stay clean: {:?}",
            out.findings
        );
    }

    #[test]
    fn destructuring_keeps_field_granularity() {
        let out = run(
            "fn make() -> Out { let w = Instant::now().elapsed().as_nanos(); \
             Out { wall: w, clean: 1 } } \
             fn split(o: Out) -> MixReport { \
             let Out { wall, clean } = o; \
             MixReport { clean_count: clean, wall_ns: wall } }",
        );
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert!(
            out.findings[0].message.contains("wall_ns"),
            "{:?}",
            out.findings
        );
    }
}
