//! A lightweight structural pass over the token stream.
//!
//! Sitting between the lexer and the rules, this module recovers just
//! enough shape for the invariants to be checkable without a real
//! parser: the brace-block tree (so a rule can walk *enclosing*
//! scopes), function items with parameter / body spans (the taint
//! engine's units), and the `// lint:allow(rule)` escape hatches parsed
//! out of comments.

use crate::lexer::{lex, Comment, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// A `{ ... }` block, by token index.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Token index of the opening brace.
    pub open: usize,
    /// Token index of the matching closing brace (or the last token if
    /// unbalanced).
    pub close: usize,
    /// Enclosing block, if any.
    pub parent: Option<usize>,
}

/// One `fn` item recovered from the stream.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Token range `(open_paren, close_paren)` of the parameter list.
    pub params: (usize, usize),
    /// Block id of the body, if the item has one (trait method
    /// declarations do not).
    pub body: Option<usize>,
}

/// One `// lint:allow(rule, ...)` comment, kept whole (not just the
/// per-line projection in [`FileInfo::allows`]) so the stale-allow
/// audit can ask "does *this directive* still suppress anything?".
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (multi-line block comments).
    pub end_line: u32,
    /// Rule names listed inside the parentheses.
    pub rules: Vec<String>,
}

impl AllowDirective {
    /// The source lines this directive suppresses findings on: its own
    /// line (trailing-comment style) and the line after its end
    /// (comment-above style).
    pub fn covered_lines(&self) -> [u32; 2] {
        [self.line, self.end_line + 1]
    }
}

/// Everything the rule passes need to know about one source file.
#[derive(Debug)]
pub struct FileInfo {
    /// Path used in findings (repo-relative when scanned by the
    /// workspace driver).
    pub path: String,
    /// The code tokens.
    pub tokens: Vec<Token>,
    /// The brace-block tree.
    pub blocks: Vec<Block>,
    /// Innermost enclosing block per token (`None` = file top level).
    pub token_block: Vec<Option<usize>>,
    /// Function items, in source order.
    pub fns: Vec<FnItem>,
    /// `line -> rules` allowed on that line by `// lint:allow(...)`
    /// comments (a directive covers its own line and the next).
    pub allows: BTreeMap<u32, BTreeSet<String>>,
    /// The allow comments themselves, in source order, for the
    /// stale-allow audit.
    pub allow_directives: Vec<AllowDirective>,
}

impl FileInfo {
    /// Lexes and structures one source file.
    pub fn parse(path: &str, src: &str) -> Self {
        let lexed = lex(src);
        let (blocks, token_block) = build_blocks(&lexed.tokens);
        let fns = collect_fns(&lexed.tokens, &blocks);
        let allow_directives = collect_allow_directives(&lexed.comments);
        let allows = allows_by_line(&allow_directives);
        FileInfo {
            path: path.to_string(),
            tokens: lexed.tokens,
            blocks,
            token_block,
            fns,
            allows,
            allow_directives,
        }
    }

    /// True if `rule` is allowed on `line` by an escape-hatch comment.
    pub fn is_allowed(&self, line: u32, rule: &str) -> bool {
        self.allows.get(&line).is_some_and(|r| r.contains(rule))
    }

    /// Walks enclosing blocks from the one containing token `idx`
    /// outward (innermost first).
    pub fn enclosing_blocks(&self, idx: usize) -> impl Iterator<Item = &Block> {
        let mut cur = self.token_block.get(idx).copied().flatten();
        std::iter::from_fn(move || {
            let b = cur?;
            cur = self.blocks[b].parent;
            Some(&self.blocks[b])
        })
    }
}

/// Builds the brace-block tree and the per-token innermost-block map.
fn build_blocks(tokens: &[Token]) -> (Vec<Block>, Vec<Option<usize>>) {
    let mut blocks: Vec<Block> = Vec::new();
    let mut token_block: Vec<Option<usize>> = Vec::with_capacity(tokens.len());
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct('{') {
            let id = blocks.len();
            blocks.push(Block {
                open: i,
                close: tokens.len().saturating_sub(1),
                parent: stack.last().copied(),
            });
            token_block.push(stack.last().copied());
            stack.push(id);
            continue;
        }
        if t.is_punct('}') {
            if let Some(id) = stack.pop() {
                blocks[id].close = i;
            }
        }
        token_block.push(stack.last().copied());
    }
    (blocks, token_block)
}

fn collect_fns(tokens: &[Token], blocks: &[Block]) -> Vec<FnItem> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("fn") {
            continue;
        }
        // `fn` in function-pointer types (`fn(u32) -> u32`) has no
        // name identifier after it.
        let Some(name_tok) = tokens.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        // Skip optional generics to the parameter list.
        let mut j = i + 2;
        if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
            let mut depth = 0i32;
            while j < tokens.len() {
                if tokens[j].is_punct('<') {
                    depth += 1;
                } else if tokens[j].is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if !tokens.get(j).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let open_paren = j;
        let mut depth = 0i32;
        while j < tokens.len() {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let close_paren = j.min(tokens.len().saturating_sub(1));
        // Body: the first `{` before a `;` ends the signature (return
        // types and where clauses never contain braces).
        let mut body = None;
        let mut k = close_paren + 1;
        while k < tokens.len() {
            if tokens[k].is_punct(';') {
                break;
            }
            if tokens[k].is_punct('{') {
                body = blocks.iter().position(|b| b.open == k);
                break;
            }
            k += 1;
        }
        out.push(FnItem {
            name: name_tok.text.clone(),
            params: (open_paren, close_paren),
            body,
        });
    }
    out
}

fn collect_allow_directives(comments: &[Comment]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for c in comments {
        // Doc comments only talk *about* the allow mechanism; plain
        // comments are the directives.
        if c.text.starts_with("///")
            || c.text.starts_with("//!")
            || c.text.starts_with("/**")
            || c.text.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = c.text.find("lint:allow(") else {
            continue;
        };
        let rest = &c.text[pos + "lint:allow(".len()..];
        let Some(end) = rest.find(')') else {
            continue;
        };
        let rules: Vec<String> = rest[..end]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| {
                !r.is_empty()
                    && r.chars()
                        .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '-')
            })
            .collect();
        if !rules.is_empty() {
            out.push(AllowDirective {
                line: c.line,
                end_line: c.end_line,
                rules,
            });
        }
    }
    out
}

/// Projects directives onto the per-line map the rule passes consult.
/// A directive covers its own line (trailing comment) and the line
/// after its end (comment-above style).
fn allows_by_line(directives: &[AllowDirective]) -> BTreeMap<u32, BTreeSet<String>> {
    let mut out: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for d in directives {
        for line in d.covered_lines() {
            for rule in &d.rules {
                out.entry(line).or_default().insert(rule.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_tree_nests() {
        let f = FileInfo::parse("t.rs", "fn a() { if x { y(); } } fn b() {}");
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(f.blocks[1].parent, Some(0));
        assert_eq!(f.blocks[2].parent, None);
        // `y` is enclosed by the `if` block then the fn body.
        let y = f.tokens.iter().position(|t| t.is_ident("y")).unwrap();
        assert_eq!(f.enclosing_blocks(y).count(), 2);
    }

    #[test]
    fn generic_fn_finds_its_params_and_body() {
        let src = "pub fn serve<S: TraceSink, const N: usize>(q: &[Query], sink: &mut S) -> Out \
                   where S: Sized { body(); }";
        let f = FileInfo::parse("t.rs", src);
        assert_eq!(f.fns.len(), 1);
        let item = &f.fns[0];
        let params: Vec<&str> = f.tokens[item.params.0..=item.params.1]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert!(params.contains(&"Query"));
        assert!(!params.contains(&"TraceSink"), "generics excluded");
        assert!(item.body.is_some());
    }

    #[test]
    fn trait_method_declaration_has_no_body() {
        let f = FileInfo::parse(
            "t.rs",
            "trait T { fn serve_queries(&self, q: &[Query]) -> R; }",
        );
        assert_eq!(f.fns.len(), 1);
        assert!(f.fns[0].body.is_none());
    }

    #[test]
    fn allow_directives_cover_their_line_and_the_next() {
        let src = "// lint:allow(clock-taint)\nlet t = now();\nlet u = now(); // lint:allow(metrics-guard, clock-taint)\n";
        let f = FileInfo::parse("t.rs", src);
        assert!(f.is_allowed(2, "clock-taint"));
        assert!(!f.is_allowed(2, "metrics-guard"));
        assert!(f.is_allowed(3, "clock-taint"));
        assert!(f.is_allowed(3, "metrics-guard"));
        assert!(
            f.is_allowed(4, "metrics-guard"),
            "trailing comment covers the next line too"
        );
        assert!(!f.is_allowed(5, "metrics-guard"));
    }

    #[test]
    fn doc_comments_and_placeholders_are_not_directives() {
        let src = "//! silence with `lint:allow(clock-taint)` comments\n\
                   /// e.g. lint:allow(metrics-guard)\n\
                   fn f() {} // lint:allow(clock-taint)\n\
                   fn g() {} // lint:allow(<rule>, ...)\n";
        let f = FileInfo::parse("t.rs", src);
        assert_eq!(f.allow_directives.len(), 1, "{:?}", f.allow_directives);
        assert_eq!(f.allow_directives[0].line, 3);
        assert!(!f.is_allowed(1, "clock-taint"));
        assert!(!f.is_allowed(2, "metrics-guard"));
    }

    #[test]
    fn allow_directives_are_kept_whole() {
        let src = "// lint:allow(clock-taint)\nlet t = now();\nlet u = now(); // lint:allow(metrics-guard, clock-taint)\n";
        let f = FileInfo::parse("t.rs", src);
        assert_eq!(f.allow_directives.len(), 2);
        assert_eq!(f.allow_directives[0].covered_lines(), [1, 2]);
        assert_eq!(
            f.allow_directives[1].rules,
            ["metrics-guard", "clock-taint"]
        );
    }
}
