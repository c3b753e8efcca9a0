//! Source scanning: extract tuple-space *sites* from Rust source text.
//!
//! This is the front end of the analyzer — a deliberately conservative
//! textual extractor (no rustc, no syn; the workspace has no parser
//! dependency) grown from PR 2's `lint-templates` scanner. From each
//! `.rs` file it pulls:
//!
//! * **Template sites** — literal `Template::new(vec![...])`
//!   constructions, with their field shapes, the `let` binding that names
//!   them (if any), and the function containing them.
//! * **Production sites** — literal `tup![...]` / `Tuple::new(vec![...])`
//!   constructions with element shapes.
//! * **Op sites** — method calls that consume templates
//!   (`.in_(...)`, `.inp(...)`, `.rd(...)`, `.rdp(...)`,
//!   `.in_blocking(...)`, …), resolved back to the template site they use
//!   either inline or through a same-file `let` binding.
//! * **Transaction events** — `.xstart()` / `.xcommit(...)` /
//!   `.xabort(...)` calls, ordered within their containing function.
//!
//! Anything the scanner cannot classify becomes a wildcard (matches
//! everything) or is skipped and counted — the analysis errs toward *no
//! false positives*; dynamic shapes remain the runtime trace checkers'
//! job (`plinda::check`).

use plinda::{Sig, TypeTag};
use std::fmt;
use std::path::{Path, PathBuf};

/// A concrete tuple-field type, mirroring [`plinda::TypeTag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Real,
    /// String.
    Str,
    /// Byte array (also the packed form of numeric vectors).
    Bytes,
    /// Nested list of values.
    List,
}

impl Tag {
    /// The [`plinda::TypeTag`] this scanner tag denotes.
    pub fn type_tag(self) -> TypeTag {
        match self {
            Tag::Int => TypeTag::Int,
            Tag::Real => TypeTag::Real,
            Tag::Str => TypeTag::Str,
            Tag::Bytes => TypeTag::Bytes,
            Tag::List => TypeTag::List,
        }
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.type_tag())
    }
}

/// The shape of one field of a template site.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldShape {
    /// `field::val("head")` — an exact string the producer must emit.
    LitStr(String),
    /// `field::val(7)` — an exact integer (value not tracked, tag is).
    LitInt,
    /// A formal field: `field::int()`, `field::of(TypeTag::Real)`, …
    Tag(Tag),
    /// Unclassifiable (an expression): matches anything.
    Any,
}

impl FieldShape {
    fn tag(&self) -> Option<Tag> {
        match self {
            FieldShape::LitStr(_) => Some(Tag::Str),
            FieldShape::LitInt => Some(Tag::Int),
            FieldShape::Tag(t) => Some(*t),
            FieldShape::Any => None,
        }
    }
}

impl fmt::Display for FieldShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldShape::LitStr(s) => write!(f, "{s:?}"),
            FieldShape::LitInt => f.write_str("=int"),
            FieldShape::Tag(t) => write!(f, "{t}"),
            FieldShape::Any => f.write_str("_"),
        }
    }
}

/// The shape of one element of a production site.
#[derive(Debug, Clone, PartialEq)]
pub enum ElemShape {
    /// A string literal — the produced tuple's head/content is known.
    LitStr(String),
    /// A literal whose type tag is known but value is not tracked.
    Tag(Tag),
    /// An arbitrary expression: could produce any value.
    Any,
}

impl ElemShape {
    fn tag(&self) -> Option<Tag> {
        match self {
            ElemShape::LitStr(_) => Some(Tag::Str),
            ElemShape::Tag(t) => Some(*t),
            ElemShape::Any => None,
        }
    }
}

impl fmt::Display for ElemShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElemShape::LitStr(s) => write!(f, "{s:?}"),
            ElemShape::Tag(t) => write!(f, "{t}"),
            ElemShape::Any => f.write_str("_"),
        }
    }
}

/// Render a shape list as the analyzer prints it: `("job", int)`.
pub fn render_shape<S: fmt::Display>(shape: &[S]) -> String {
    let fields: Vec<String> = shape.iter().map(|s| s.to_string()).collect();
    format!("({})", fields.join(", "))
}

/// The [`Sig`] a fully-classified shape resolves to — the same domain the
/// sharded space partitions on. `None` if any field is a wildcard.
pub fn shape_sig<S: Clone>(shape: &[S], tag_of: impl Fn(&S) -> Option<Tag>) -> Option<Sig> {
    let tags: Option<Vec<TypeTag>> = shape.iter().map(|s| tag_of(s).map(Tag::type_tag)).collect();
    tags.map(Sig::from_tags)
}

/// Can a tuple produced at `e` satisfy template field `f`?
fn field_matches(f: &FieldShape, e: &ElemShape) -> bool {
    match (f, e) {
        (FieldShape::Any, _) | (_, ElemShape::Any) => true,
        (FieldShape::LitStr(a), ElemShape::LitStr(b)) => a == b,
        (FieldShape::LitStr(_), ElemShape::Tag(_)) => false,
        (FieldShape::LitInt, ElemShape::Tag(Tag::Int)) => true,
        (FieldShape::LitInt, _) => false,
        (FieldShape::Tag(t), ElemShape::LitStr(_)) => *t == Tag::Str,
        (FieldShape::Tag(t), ElemShape::Tag(u)) => t == u,
    }
}

/// Can production `p` ever satisfy template `t`? (Same arity, every field
/// compatible.)
pub fn shapes_compatible(t: &[FieldShape], p: &[ElemShape]) -> bool {
    t.len() == p.len() && t.iter().zip(p).all(|(f, e)| field_matches(f, e))
}

/// Could templates `a` and `b` ever match the *same* tuple? Used by the
/// conflicting-consumer check: a read-only template and a withdrawing
/// template competing for one tuple family.
pub fn templates_overlap(a: &[FieldShape], b: &[FieldShape]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (FieldShape::Any, _) | (_, FieldShape::Any) => true,
            (FieldShape::LitStr(p), FieldShape::LitStr(q)) => p == q,
            (FieldShape::LitStr(_), FieldShape::LitInt)
            | (FieldShape::LitInt, FieldShape::LitStr(_)) => false,
            (FieldShape::LitStr(_), FieldShape::Tag(t))
            | (FieldShape::Tag(t), FieldShape::LitStr(_)) => *t == Tag::Str,
            (FieldShape::LitInt, FieldShape::LitInt) => true,
            (FieldShape::LitInt, FieldShape::Tag(t)) | (FieldShape::Tag(t), FieldShape::LitInt) => {
                *t == Tag::Int
            }
            (FieldShape::Tag(t), FieldShape::Tag(u)) => t == u,
        })
}

// ---------------------------------------------------------------------------
// Lexical helpers
// ---------------------------------------------------------------------------

/// Blank out `//`/`/* */` comments (preserving newlines so line numbers
/// survive) while leaving string literals intact.
pub fn strip_comments(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                out.push(bytes[i]);
                i += 1;
                while i < bytes.len() {
                    out.push(bytes[i]);
                    match bytes[i] {
                        b'\\' if i + 1 < bytes.len() => {
                            out.push(bytes[i + 1]);
                            i += 2;
                            continue;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 1;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Index just past the delimiter that balances the one at `open` (which
/// must be `(`/`[`/`{`), skipping string literals.
pub fn balanced_end(src: &str, open: usize) -> Option<usize> {
    let bytes = src.as_bytes();
    let (oc, cc) = match bytes[open] {
        b'(' => (b'(', b')'),
        b'[' => (b'[', b']'),
        b'{' => (b'{', b'}'),
        _ => return None,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 1,
                        b'"' => break,
                        _ => {}
                    }
                    i += 1;
                }
            }
            b if b == oc => depth += 1,
            b if b == cc => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Split `src` on commas at bracket depth zero, skipping string literals.
pub fn split_top_commas(src: &str) -> Vec<&str> {
    let bytes = src.as_bytes();
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 1,
                        b'"' => break,
                        _ => {}
                    }
                    i += 1;
                }
            }
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                parts.push(&src[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if start < src.len() {
        parts.push(&src[start..]);
    }
    parts.into_iter().filter(|p| !p.trim().is_empty()).collect()
}

fn is_string_literal(s: &str) -> Option<String> {
    let s = s.trim();
    let s = s.strip_suffix(".to_string()").unwrap_or(s);
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                chars.next();
            }
            '"' => return None,
            _ => {}
        }
    }
    Some(inner.to_string())
}

fn is_int_literal(s: &str) -> bool {
    let s = s.trim();
    let s = s.strip_prefix('-').unwrap_or(s).trim();
    for suffix in ["i64", "i32", "usize", "u64", "u32", "u8"] {
        if let Some(head) = s.strip_suffix(suffix) {
            return !head.is_empty() && head.bytes().all(|b| b.is_ascii_digit() || b == b'_');
        }
    }
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit() || b == b'_')
}

fn is_float_literal(s: &str) -> bool {
    let s = s.trim();
    let s = s.strip_prefix('-').unwrap_or(s).trim();
    let s = s.strip_suffix("f64").unwrap_or(s);
    match s.split_once('.') {
        Some((a, b)) => {
            !a.is_empty()
                && a.bytes().all(|c| c.is_ascii_digit() || c == b'_')
                && b.bytes().all(|c| c.is_ascii_digit() || c == b'_')
        }
        None => false,
    }
}

/// Classify one element of a `Template::new(vec![...])` field list.
fn template_field(elem: &str) -> FieldShape {
    let e = elem.trim();
    let e = match e.find("field::") {
        Some(pos) => &e[pos..],
        None => return FieldShape::Any,
    };
    if let Some(rest) = e.strip_prefix("field::val(") {
        let inner = rest.strip_suffix(')').unwrap_or(rest);
        if let Some(s) = is_string_literal(inner) {
            return FieldShape::LitStr(s);
        }
        if is_int_literal(inner) {
            return FieldShape::LitInt;
        }
        return FieldShape::Any;
    }
    if let Some(rest) = e.strip_prefix("field::of(") {
        for (name, tag) in [
            ("Int", Tag::Int),
            ("Real", Tag::Real),
            ("Str", Tag::Str),
            ("Bytes", Tag::Bytes),
            ("List", Tag::List),
        ] {
            if rest.contains(name) {
                return FieldShape::Tag(tag);
            }
        }
        return FieldShape::Any;
    }
    match e.trim() {
        "field::int()" => FieldShape::Tag(Tag::Int),
        "field::real()" => FieldShape::Tag(Tag::Real),
        "field::str()" => FieldShape::Tag(Tag::Str),
        "field::bytes()" => FieldShape::Tag(Tag::Bytes),
        "field::list()" => FieldShape::Tag(Tag::List),
        _ => FieldShape::Any,
    }
}

/// Classify one element of a `tup![...]` / `Tuple::new(vec![...])` body.
fn production_elem(elem: &str) -> ElemShape {
    let e = elem.trim();
    if let Some(s) = is_string_literal(e) {
        return ElemShape::LitStr(s);
    }
    if is_int_literal(e) {
        return ElemShape::Tag(Tag::Int);
    }
    if is_float_literal(e) {
        return ElemShape::Tag(Tag::Real);
    }
    for (name, tag) in [
        ("Value::Int", Tag::Int),
        ("Value::Real", Tag::Real),
        ("Value::Str", Tag::Str),
        ("Value::Bytes", Tag::Bytes),
        ("Value::List", Tag::List),
    ] {
        if e.contains(name) {
            return ElemShape::Tag(tag);
        }
    }
    if e.starts_with("vec![") {
        if e.contains("u8") {
            return ElemShape::Tag(Tag::Bytes);
        }
        return ElemShape::Any;
    }
    ElemShape::Any
}

fn line_of(src: &str, offset: usize) -> usize {
    src[..offset].bytes().filter(|&b| b == b'\n').count() + 1
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

// ---------------------------------------------------------------------------
// Site model
// ---------------------------------------------------------------------------

/// How an op site touches the tuple it matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpKind {
    /// `in`/`inp` (withdraws) vs `rd`/`rdp` (copies).
    pub withdraw: bool,
    /// Blocking (`in`, `rd`, `*_blocking`, `in_batch`) vs non-blocking
    /// probe (`inp`, `rdp`, `inp_batch`).
    pub blocking: bool,
}

/// The consuming method names the scanner resolves, with their kinds.
const OP_TABLE: [(&str, OpKind); 8] = [
    ("in_", op(true, true)),
    ("in_blocking", op(true, true)),
    ("in_batch", op(true, true)),
    ("inp", op(true, false)),
    ("inp_batch", op(true, false)),
    ("rd", op(false, true)),
    ("rd_blocking", op(false, true)),
    ("rdp", op(false, false)),
];

const fn op(withdraw: bool, blocking: bool) -> OpKind {
    OpKind { withdraw, blocking }
}

/// A literal template construction site.
#[derive(Debug, Clone)]
pub struct TemplateSite {
    /// Source file, relative to the analysis root.
    pub file: PathBuf,
    /// 1-based line of the construction.
    pub line: usize,
    /// Byte offset in the comment-stripped source.
    pub offset: usize,
    /// Extracted field shapes.
    pub shape: Vec<FieldShape>,
    /// The `let` binding naming this template, if the site is bound.
    pub binding: Option<String>,
    /// Index into [`FileScan::fns`] of the innermost containing function.
    pub fn_idx: Option<usize>,
}

impl TemplateSite {
    /// `file:line (shape)` for diagnostics.
    pub fn render(&self) -> String {
        format!(
            "{}:{} {}",
            self.file.display(),
            self.line,
            render_shape(&self.shape)
        )
    }

    /// The resolved signature, if every field has a known tag.
    pub fn sig(&self) -> Option<Sig> {
        shape_sig(&self.shape, FieldShape::tag)
    }
}

/// A literal production (`tup!` / `Tuple::new`) site.
#[derive(Debug, Clone)]
pub struct ProductionSite {
    /// Source file, relative to the analysis root.
    pub file: PathBuf,
    /// 1-based line of the construction.
    pub line: usize,
    /// Byte offset in the comment-stripped source.
    pub offset: usize,
    /// Extracted element shapes.
    pub shape: Vec<ElemShape>,
    /// Index into [`FileScan::fns`] of the innermost containing function.
    pub fn_idx: Option<usize>,
}

impl ProductionSite {
    /// `file:line (shape)` for diagnostics.
    pub fn render(&self) -> String {
        format!(
            "{}:{} {}",
            self.file.display(),
            self.line,
            render_shape(&self.shape)
        )
    }

    /// The resolved signature, if every element has a known tag.
    pub fn sig(&self) -> Option<Sig> {
        shape_sig(&self.shape, ElemShape::tag)
    }
}

/// A resolved consuming-op call site.
#[derive(Debug, Clone)]
pub struct OpSite {
    /// 1-based line of the call.
    pub line: usize,
    /// Byte offset of the call in the comment-stripped source.
    pub offset: usize,
    /// What the op does to the matched tuple.
    pub kind: OpKind,
    /// The method name as written (`in_`, `rd_blocking`, …).
    pub method: &'static str,
    /// Index into [`FileScan::templates`] of the template it consumes.
    pub template: usize,
    /// Index into [`FileScan::fns`] of the innermost containing function.
    pub fn_idx: Option<usize>,
}

/// A transaction-lifecycle call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    /// `.xstart()`.
    Start,
    /// `.xcommit(...)`.
    Commit,
    /// `.xabort(...)`.
    Abort,
}

/// One `.xstart()`/`.xcommit()`/`.xabort()` occurrence.
#[derive(Debug, Clone)]
pub struct TxnEvent {
    /// 1-based line.
    pub line: usize,
    /// Byte offset in the comment-stripped source.
    pub offset: usize,
    /// Which lifecycle call.
    pub kind: TxnKind,
    /// Index into [`FileScan::fns`] of the innermost containing function.
    pub fn_idx: Option<usize>,
}

/// A function body span (innermost attribution target for sites).
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Offset of the opening body brace.
    pub start: usize,
    /// Offset one past the closing body brace.
    pub end: usize,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// File path relative to the analysis root.
    pub file: PathBuf,
    /// Literal template sites.
    pub templates: Vec<TemplateSite>,
    /// Template sites whose argument is not a `vec![...]` literal.
    pub dynamic_templates: usize,
    /// Production sites.
    pub productions: Vec<ProductionSite>,
    /// Resolved consuming-op call sites.
    pub ops: Vec<OpSite>,
    /// Transaction lifecycle events, in source order.
    pub txns: Vec<TxnEvent>,
    /// Function body spans.
    pub fns: Vec<FnSpan>,
}

impl FileScan {
    /// Innermost function span containing `offset`.
    pub fn fn_at(&self, offset: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.start <= offset && offset < f.end)
            .min_by_key(|(_, f)| f.end - f.start)
            .map(|(i, _)| i)
    }

    /// Is `offset` inside an open `xstart`…`xcommit`/`xabort` window of
    /// its innermost function? (Linear source order within the function —
    /// the same approximation a reader makes.)
    pub fn in_txn_window(&self, offset: usize) -> bool {
        let f = self.fn_at(offset);
        let mut open = false;
        for e in &self.txns {
            if e.fn_idx != f || e.offset >= offset {
                continue;
            }
            open = matches!(e.kind, TxnKind::Start);
        }
        open
    }
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

/// Find function body spans: `fn name(...) ... { body }`.
fn scan_fns(clean: &str) -> Vec<FnSpan> {
    let bytes = clean.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = clean[from..].find("fn ") {
        let at = from + pos;
        from = at + 3;
        // Word boundary: not `dyn Fn`, `often `, etc.
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        let name_start = at + 3;
        let name_end = clean[name_start..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map(|o| name_start + o)
            .unwrap_or(clean.len());
        if name_end == name_start {
            continue; // `fn(` — a function type, not a definition
        }
        let name = clean[name_start..name_end].to_string();
        // Parameter list.
        let Some(paren) = clean[name_end..].find('(').map(|o| name_end + o) else {
            continue;
        };
        if clean[name_end..paren].bytes().any(|b| {
            !(b.is_ascii_whitespace()
                || b == b'<'
                || b == b'>'
                || is_ident_byte(b)
                || b == b','
                || b == b':'
                || b == b'\''
                || b == b'&')
        }) {
            continue;
        }
        let Some(params_end) = balanced_end(clean, paren) else {
            continue;
        };
        // Find the body `{`, stopping at `;` (trait method declaration).
        let mut i = params_end;
        let mut body = None;
        while i < bytes.len() {
            match bytes[i] {
                b'{' => {
                    body = Some(i);
                    break;
                }
                b';' => break,
                b'(' | b'[' => {
                    // A bracketed chunk in the return type / where clause.
                    match balanced_end(clean, i) {
                        Some(e) => i = e,
                        None => break,
                    }
                }
                _ => i += 1,
            }
        }
        let Some(body_start) = body else { continue };
        let Some(body_end) = balanced_end(clean, body_start) else {
            continue;
        };
        out.push(FnSpan {
            name,
            start: body_start,
            end: body_end,
        });
    }
    out
}

/// Look backward from a `Template::new` site for the `let` binding that
/// names it: `let tmpl = Template::new(...)`, optionally with a type
/// annotation. Returns `None` for inline (unbound) constructions.
fn binding_before(clean: &str, at: usize) -> Option<String> {
    let window_start = at.saturating_sub(160);
    let window = &clean[window_start..at];
    let let_pos = window.rfind("let ")?;
    // Word boundary before `let`.
    if let_pos > 0 && is_ident_byte(window.as_bytes()[let_pos - 1]) {
        return None;
    }
    let after = &window[let_pos + 4..];
    let after = after.trim_start();
    let ident_len = after
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(after.len());
    if ident_len == 0 {
        return None;
    }
    let ident = &after[..ident_len];
    let rest = after[ident_len..].trim();
    // Accept `= ` or `: Type = ` between the binding and the construction.
    let rest = if let Some(stripped) = rest.strip_prefix(':') {
        match stripped.find('=') {
            Some(eq) => &stripped[eq..],
            None => return None,
        }
    } else {
        rest
    };
    if rest != "=" {
        return None;
    }
    Some(ident.to_string())
}

/// Extract all sites from one file's source text.
pub fn scan_source(rel: &Path, src: &str) -> FileScan {
    let clean = strip_comments(src);
    let mut scan = FileScan {
        file: rel.to_path_buf(),
        fns: scan_fns(&clean),
        ..FileScan::default()
    };

    // Template::new(vec![ ... ])
    let mut from = 0;
    while let Some(pos) = clean[from..].find("Template::new(") {
        let at = from + pos;
        let open = at + "Template::new".len();
        from = open;
        let Some(end) = balanced_end(&clean, open) else {
            continue;
        };
        let arg = clean[open + 1..end - 1].trim();
        let body = arg
            .strip_prefix("vec!")
            .and_then(|r| r.trim().strip_prefix('['))
            .and_then(|r| r.strip_suffix(']'));
        let Some(body) = body else {
            scan.dynamic_templates += 1;
            continue;
        };
        let shape: Vec<FieldShape> = split_top_commas(body)
            .iter()
            .map(|e| template_field(e))
            .collect();
        scan.templates.push(TemplateSite {
            file: rel.to_path_buf(),
            line: line_of(&clean, at),
            offset: at,
            shape,
            binding: binding_before(&clean, at),
            fn_idx: scan.fn_at(at),
        });
    }

    // tup![ ... ]
    let mut from = 0;
    while let Some(pos) = clean[from..].find("tup!") {
        let at = from + pos;
        from = at + 4;
        if at > 0 && clean.as_bytes()[at - 1].is_ascii_alphanumeric() {
            continue;
        }
        let Some(open) = clean[at + 4..].find('[').map(|o| at + 4 + o) else {
            continue;
        };
        if !clean[at + 4..open].trim().is_empty() {
            continue;
        }
        let Some(end) = balanced_end(&clean, open) else {
            continue;
        };
        let body = &clean[open + 1..end - 1];
        let shape: Vec<ElemShape> = split_top_commas(body)
            .iter()
            .map(|e| production_elem(e))
            .collect();
        scan.productions.push(ProductionSite {
            file: rel.to_path_buf(),
            line: line_of(&clean, at),
            offset: at,
            shape,
            fn_idx: scan.fn_at(at),
        });
    }

    // Tuple::new(vec![ ... ])
    let mut from = 0;
    while let Some(pos) = clean[from..].find("Tuple::new(") {
        let at = from + pos;
        let open = at + "Tuple::new".len();
        from = open;
        let Some(end) = balanced_end(&clean, open) else {
            continue;
        };
        let arg = clean[open + 1..end - 1].trim();
        let Some(body) = arg
            .strip_prefix("vec!")
            .and_then(|r| r.trim().strip_prefix('['))
            .and_then(|r| r.strip_suffix(']'))
        else {
            continue;
        };
        let shape: Vec<ElemShape> = split_top_commas(body)
            .iter()
            .map(|e| production_elem(e))
            .collect();
        scan.productions.push(ProductionSite {
            file: rel.to_path_buf(),
            line: line_of(&clean, at),
            offset: at,
            shape,
            fn_idx: scan.fn_at(at),
        });
    }

    // Transaction lifecycle calls (method-call position only, so the
    // definitions in `process.rs` are not miscounted).
    for (token, kind) in [
        (".xstart(", TxnKind::Start),
        (".xcommit(", TxnKind::Commit),
        (".xabort(", TxnKind::Abort),
    ] {
        let mut from = 0;
        while let Some(pos) = clean[from..].find(token) {
            let at = from + pos;
            from = at + token.len();
            scan.txns.push(TxnEvent {
                line: line_of(&clean, at),
                offset: at,
                kind,
                fn_idx: scan.fn_at(at),
            });
        }
    }
    scan.txns.sort_by_key(|e| e.offset);

    // Consuming-op call sites, resolved to template sites.
    for (method, kind) in OP_TABLE {
        let token = format!(".{method}(");
        let mut from = 0;
        while let Some(pos) = clean[from..].find(&token) {
            let at = from + pos;
            let open = at + token.len() - 1;
            from = open;
            let Some(end) = balanced_end(&clean, open) else {
                continue;
            };
            let args = &clean[open + 1..end - 1];
            let Some(first) = split_top_commas(args).first().copied() else {
                continue;
            };
            let template = if first.contains("Template::new") {
                // Inline construction: find the template site inside the
                // argument range.
                scan.templates
                    .iter()
                    .position(|t| open < t.offset && t.offset < end)
            } else {
                // A binding: strip `&`/`.clone()` and resolve by name,
                // preferring a binding in the same function.
                let name = first.trim().trim_start_matches('&').trim();
                let name = name.strip_suffix(".clone()").unwrap_or(name).trim();
                if name.is_empty() || !name.bytes().all(is_ident_byte) {
                    None
                } else {
                    let fn_idx = scan.fn_at(at);
                    let candidates: Vec<usize> = scan
                        .templates
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.binding.as_deref() == Some(name))
                        .map(|(i, _)| i)
                        .collect();
                    candidates
                        .iter()
                        .copied()
                        .find(|&i| scan.templates[i].fn_idx == fn_idx && fn_idx.is_some())
                        .or(if candidates.len() == 1 {
                            Some(candidates[0])
                        } else {
                            None
                        })
                }
            };
            let Some(template) = template else { continue };
            scan.ops.push(OpSite {
                line: line_of(&clean, at),
                offset: at,
                kind,
                method,
                template,
                fn_idx: scan.fn_at(at),
            });
        }
    }
    scan.ops.sort_by_key(|o| o.offset);

    scan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_template_fields() {
        assert_eq!(
            template_field(r#" field::val("task") "#),
            FieldShape::LitStr("task".into())
        );
        assert_eq!(template_field(" field::val(3) "), FieldShape::LitInt);
        assert_eq!(template_field("field::int()"), FieldShape::Tag(Tag::Int));
        assert_eq!(
            template_field("crate::field::real()"),
            FieldShape::Tag(Tag::Real)
        );
        assert_eq!(
            template_field("field::of(TypeTag::Bytes)"),
            FieldShape::Tag(Tag::Bytes)
        );
        assert_eq!(template_field("field::val(name)"), FieldShape::Any);
        assert_eq!(template_field("mystery()"), FieldShape::Any);
    }

    #[test]
    fn classifies_production_elems() {
        assert_eq!(
            production_elem(r#" "task" "#),
            ElemShape::LitStr("task".into())
        );
        assert_eq!(production_elem("-1i64"), ElemShape::Tag(Tag::Int));
        assert_eq!(production_elem("3.25"), ElemShape::Tag(Tag::Real));
        assert_eq!(production_elem("vec![9u8]"), ElemShape::Tag(Tag::Bytes));
        assert_eq!(production_elem("100 - i"), ElemShape::Any);
        assert_eq!(production_elem("t.int(1)"), ElemShape::Any);
    }

    #[test]
    fn compatibility_respects_heads_arity_and_tags() {
        let t = vec![FieldShape::LitStr("task".into()), FieldShape::Tag(Tag::Int)];
        let good = vec![ElemShape::LitStr("task".into()), ElemShape::Tag(Tag::Int)];
        let wild = vec![ElemShape::LitStr("task".into()), ElemShape::Any];
        let wrong_head = vec![ElemShape::LitStr("done".into()), ElemShape::Tag(Tag::Int)];
        let wrong_tag = vec![ElemShape::LitStr("task".into()), ElemShape::Tag(Tag::Real)];
        let wrong_arity = vec![ElemShape::LitStr("task".into())];
        assert!(shapes_compatible(&t, &good));
        assert!(shapes_compatible(&t, &wild));
        assert!(!shapes_compatible(&t, &wrong_head));
        assert!(!shapes_compatible(&t, &wrong_tag));
        assert!(!shapes_compatible(&t, &wrong_arity));
    }

    #[test]
    fn scans_multiline_sites_and_ignores_comments() {
        let src = r#"
            // Template::new(vec![field::val("commented-out")])
            fn demo(space: &TupleSpace) {
                let t = Template::new(vec![
                    field::val("job"),
                    field::int(),
                ]);
                space.out(tup!["job", 7]);
            }
        "#;
        let scan = scan_source(Path::new("x.rs"), src);
        assert_eq!(scan.templates.len(), 1);
        assert_eq!(scan.templates[0].line, 4);
        assert_eq!(scan.templates[0].binding.as_deref(), Some("t"));
        assert_eq!(scan.productions.len(), 1);
        assert!(shapes_compatible(
            &scan.templates[0].shape,
            &scan.productions[0].shape
        ));
    }

    #[test]
    fn dynamic_template_construction_is_skipped_not_flagged() {
        let scan = scan_source(Path::new("x.rs"), "let t = Template::new(fs);");
        assert!(scan.templates.is_empty());
        assert_eq!(scan.dynamic_templates, 1);
    }

    #[test]
    fn resolves_inline_and_bound_op_templates() {
        let src = r#"
            fn worker(p: &mut Process) {
                let task = Template::new(vec![field::val("task"), field::int()]);
                let got = p.in_(task.clone()).unwrap();
                let peek = p.rdp(&Template::new(vec![field::val("done")]));
            }
        "#;
        let scan = scan_source(Path::new("x.rs"), src);
        assert_eq!(scan.templates.len(), 2);
        assert_eq!(scan.ops.len(), 2);
        let in_op = scan.ops.iter().find(|o| o.method == "in_").unwrap();
        assert!(in_op.kind.withdraw && in_op.kind.blocking);
        assert_eq!(
            scan.templates[in_op.template].binding.as_deref(),
            Some("task")
        );
        let rdp_op = scan.ops.iter().find(|o| o.method == "rdp").unwrap();
        assert!(!rdp_op.kind.withdraw && !rdp_op.kind.blocking);
        assert_eq!(
            scan.templates[rdp_op.template].shape,
            vec![FieldShape::LitStr("done".into())]
        );
    }

    #[test]
    fn txn_windows_follow_source_order_per_function() {
        let src = r#"
            fn one(p: &mut Process) {
                p.xstart().unwrap();
                p.out(tup!["a", 1]);
                p.xcommit(None).unwrap();
                p.out(tup!["b", 2]);
            }
            fn two(p: &mut Process) {
                p.out(tup!["c", 3]);
            }
        "#;
        let scan = scan_source(Path::new("x.rs"), src);
        assert_eq!(scan.txns.len(), 2);
        assert_eq!(scan.fns.len(), 2);
        let a = scan.productions.iter().find(|p| p.line == 4).unwrap();
        let b = scan.productions.iter().find(|p| p.line == 6).unwrap();
        let c = scan.productions.iter().find(|p| p.line == 9).unwrap();
        assert!(scan.in_txn_window(a.offset));
        assert!(!scan.in_txn_window(b.offset));
        assert!(!scan.in_txn_window(c.offset));
    }

    #[test]
    fn overlap_is_head_sensitive() {
        let rd = vec![
            FieldShape::LitStr("bcast".into()),
            FieldShape::Tag(Tag::Int),
        ];
        let inp = vec![
            FieldShape::LitStr("bcast".into()),
            FieldShape::Tag(Tag::Int),
        ];
        let other = vec![FieldShape::LitStr("task".into()), FieldShape::Tag(Tag::Int)];
        assert!(templates_overlap(&rd, &inp));
        assert!(!templates_overlap(&rd, &other));
    }
}
