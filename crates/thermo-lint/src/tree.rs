//! Token trees and a lightweight item parse over the lexer's output.
//!
//! The fn-scoped lint families (X1/T1, DESIGN.md §16) need more structure
//! than a flat token stream: function bodies with their names. This module
//! builds **brace/paren/bracket matched token trees** and recognizes just
//! enough item grammar — `fn`/`impl`/`mod`/`trait` with visibility — to
//! walk every function body with its name and visibility attached.
//!
//! Like the lexer, the parse never fails: a stray closer becomes a leaf,
//! an unclosed group swallows the rest of the file. A file that confuses
//! the parser produces no *false* findings, which is the right failure
//! mode for a linter. Input is expected to be the `strip_cfg_test`
//! output, so attribute tokens and test-gated items are already gone.

use crate::lexer::{Token, TokenKind};

/// One node of a token tree: a non-delimiter token, or a matched group.
#[derive(Debug, Clone)]
pub enum Tree {
    /// A non-delimiter token.
    Leaf(Token),
    /// A `(…)`, `[…]`, or `{…}` group.
    Group(Group),
}

/// A delimiter-matched group and its children.
#[derive(Debug, Clone)]
pub struct Group {
    /// Opening delimiter: `(`, `[`, or `{`.
    pub delim: char,
    /// 1-based line of the opening delimiter.
    pub line: u32,
    /// 1-based byte column of the opening delimiter.
    pub col: u32,
    /// The trees between the delimiters.
    pub children: Vec<Tree>,
}

impl Tree {
    /// The identifier text, if this is an identifier leaf.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tree::Leaf(t) => t.kind.ident(),
            Tree::Group(_) => None,
        }
    }

    /// True when this is a punctuation leaf for `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Tree::Leaf(t) if t.kind == TokenKind::Punct(c))
    }

    /// The group, when this is one.
    pub fn group(&self) -> Option<&Group> {
        match self {
            Tree::Group(g) => Some(g),
            Tree::Leaf(_) => None,
        }
    }
}

fn closer(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

/// Builds token trees from a (already `strip_cfg_test`-ed) token stream.
pub fn build(tokens: &[Token]) -> Vec<Tree> {
    let mut i = 0;
    build_until(tokens, &mut i, None)
}

fn build_until(tokens: &[Token], i: &mut usize, close: Option<char>) -> Vec<Tree> {
    let mut out = Vec::new();
    while *i < tokens.len() {
        let t = &tokens[*i];
        match t.kind {
            TokenKind::Punct(c @ ('(' | '[' | '{')) => {
                let (line, col) = (t.line, t.col);
                *i += 1;
                let children = build_until(tokens, i, Some(closer(c)));
                out.push(Tree::Group(Group {
                    delim: c,
                    line,
                    col,
                    children,
                }));
            }
            TokenKind::Punct(c @ (')' | ']' | '}')) => {
                if close == Some(c) {
                    *i += 1;
                    return out;
                }
                // Stray closer: keep it as a leaf so the parse never fails.
                out.push(Tree::Leaf(t.clone()));
                *i += 1;
            }
            _ => {
                out.push(Tree::Leaf(t.clone()));
                *i += 1;
            }
        }
    }
    out
}

/// One element of a flattened tree: delimiters come back as explicit
/// `Open`/`Close` markers so scanners can treat brace groups as statement
/// boundaries while looking *through* paren/bracket groups.
#[derive(Debug, Clone, Copy)]
pub enum Flat<'a> {
    /// A leaf token.
    Tok(&'a Token),
    /// A group's opening delimiter.
    Open(&'a Group),
    /// A group's closing delimiter.
    Close(&'a Group),
}

impl<'a> Flat<'a> {
    /// The identifier text, if this is an identifier leaf.
    pub fn ident(&self) -> Option<&'a str> {
        match self {
            Flat::Tok(t) => t.kind.ident(),
            _ => None,
        }
    }

    /// True when this is a punctuation leaf for `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, Flat::Tok(t) if t.kind == TokenKind::Punct(c))
    }

    /// True when this opens or closes a brace group (a statement boundary).
    pub fn is_brace_boundary(&self) -> bool {
        matches!(self, Flat::Open(g) | Flat::Close(g) if g.delim == '{')
    }

    /// True when this is the opening `(` of a call's argument group.
    pub fn opens_paren(&self) -> bool {
        matches!(self, Flat::Open(g) if g.delim == '(')
    }

    /// `(line, col)` of the element's first byte (closers report the
    /// group's opening position — close enough for finding anchors).
    pub fn pos(&self) -> (u32, u32) {
        match self {
            Flat::Tok(t) => (t.line, t.col),
            Flat::Open(g) | Flat::Close(g) => (g.line, g.col),
        }
    }
}

/// Flattens trees depth-first, materializing group delimiters.
pub fn flatten<'a>(trees: &'a [Tree], out: &mut Vec<Flat<'a>>) {
    for t in trees {
        match t {
            Tree::Leaf(tok) => out.push(Flat::Tok(tok)),
            Tree::Group(g) => {
                out.push(Flat::Open(g));
                flatten(&g.children, out);
                out.push(Flat::Close(g));
            }
        }
    }
}

/// A function item's visibility, as far as the taint lint cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// No `pub` at all.
    Private,
    /// `pub(crate)`, `pub(super)`, `pub(in …)` — restricted, reviewed
    /// within the crate, not part of the public surface.
    Restricted,
    /// Bare `pub`: the crate's public surface.
    Pub,
}

/// A recognized `fn` item.
#[derive(Debug)]
pub struct FnItem<'a> {
    /// The function's name.
    pub name: &'a str,
    /// Visibility (backward scan over `pub`/`pub(…)` and fn qualifiers).
    pub vis: Vis,
    /// The body block, when the item has one (trait signatures don't).
    pub body: Option<&'a Group>,
}

/// Walks items in `trees`, calling `on_fn` for every `fn` (including fns
/// nested in `impl`/`mod`/`trait` bodies and inside other fn bodies).
pub fn walk_items<'a>(trees: &'a [Tree], on_fn: &mut dyn FnMut(&FnItem<'a>)) {
    let mut i = 0;
    while i < trees.len() {
        match trees[i].ident() {
            Some("fn") => {
                let Some(name) = trees.get(i + 1).and_then(Tree::ident) else {
                    i += 1; // `fn(…)` pointer type, not an item
                    continue;
                };
                // The body is the first brace group before a `;` leaf.
                let mut j = i + 2;
                let mut body = None;
                while j < trees.len() {
                    if trees[j].is_punct(';') {
                        break;
                    }
                    if let Some(g) = trees[j].group() {
                        if g.delim == '{' {
                            body = Some(g);
                            break;
                        }
                    }
                    j += 1;
                }
                let item = FnItem {
                    name,
                    vis: vis_before(trees, i),
                    body,
                };
                on_fn(&item);
                if let Some(g) = body {
                    walk_items(&g.children, on_fn);
                }
                i = j + 1;
            }
            Some("impl" | "mod" | "trait") => {
                // Recurse into the item's body block, if any.
                let mut j = i + 1;
                while j < trees.len() {
                    if trees[j].is_punct(';') {
                        break;
                    }
                    if let Some(g) = trees[j].group() {
                        if g.delim == '{' {
                            walk_items(&g.children, on_fn);
                            break;
                        }
                    }
                    j += 1;
                }
                i = j + 1;
            }
            _ => i += 1,
        }
    }
}

/// Visibility of the item whose keyword sits at `trees[at]`, by scanning
/// backward over fn qualifiers (`const`, `unsafe`, `async`, `extern "C"`).
fn vis_before(trees: &[Tree], at: usize) -> Vis {
    let mut j = at;
    while j > 0 {
        j -= 1;
        match &trees[j] {
            Tree::Leaf(t) => match &t.kind {
                TokenKind::Ident(s)
                    if matches!(s.as_str(), "const" | "unsafe" | "async" | "extern") =>
                {
                    continue;
                }
                TokenKind::Ident(s) if s == "pub" => return Vis::Pub,
                TokenKind::Literal => continue, // the "C" in extern "C"
                _ => return Vis::Private,
            },
            Tree::Group(g) if g.delim == '(' => {
                // `pub(crate) fn` — the paren group follows `pub`.
                if j > 0 && trees[j - 1].ident() == Some("pub") {
                    return Vis::Restricted;
                }
                return Vis::Private;
            }
            Tree::Group(_) => return Vis::Private,
        }
    }
    Vis::Private
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn trees(src: &str) -> Vec<Tree> {
        build(&lex(src).tokens)
    }

    #[test]
    fn groups_match_and_stray_closers_survive() {
        let t = trees("a { b ( c ) } d )");
        assert_eq!(t.len(), 4, "{t:?}"); // a, {…}, d, stray )
        let g = t[1].group().expect("brace group");
        assert_eq!(g.delim, '{');
        assert_eq!(g.children.len(), 2); // b, (…)
        assert!(t[3].is_punct(')'));
    }

    #[test]
    fn fn_items_carry_name_vis_and_body() {
        let src = "
            pub fn open(x: u64) -> u64 { x }
            pub(crate) fn shut() {}
            fn hidden() {}
            pub const unsafe fn qual() {}
            impl Foo { pub fn method(&self) {} }
        ";
        let mut seen = Vec::new();
        walk_items(&trees(src), &mut |f| {
            seen.push((f.name.to_string(), f.vis, f.body.is_some()))
        });
        assert_eq!(
            seen,
            vec![
                ("open".to_string(), Vis::Pub, true),
                ("shut".to_string(), Vis::Restricted, true),
                ("hidden".to_string(), Vis::Private, true),
                ("qual".to_string(), Vis::Pub, true),
                ("method".to_string(), Vis::Pub, true),
            ]
        );
    }

    #[test]
    fn flatten_marks_brace_boundaries() {
        let t = trees("a { b } ( c )");
        let mut flat = Vec::new();
        flatten(&t, &mut flat);
        let braces = flat.iter().filter(|f| f.is_brace_boundary()).count();
        assert_eq!(braces, 2, "open + close of the one brace group");
        let parens = flat.iter().filter(|f| f.opens_paren()).count();
        assert_eq!(parens, 1);
    }

    #[test]
    fn nested_fns_are_walked() {
        let src = "pub fn outer() { fn inner() {} }";
        let mut names = Vec::new();
        walk_items(&trees(src), &mut |f| names.push(f.name.to_string()));
        assert_eq!(names, vec!["outer", "inner"]);
    }
}
