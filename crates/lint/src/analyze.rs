//! The four protocol checks.
//!
//! 1. **atomic-ordering** — every atomic load/store/RMW on a field
//!    declared in PROTOCOL.toml must use one of its allowed `Ordering`s;
//!    atomics missing from the spec (and spec entries with no matching
//!    code) are errors, so a clean run proves full coverage both ways.
//! 2. **hot-path-alloc** — a call-graph walk from `#[latr::hot_path]`
//!    roots flags reachable heap allocation; `#[latr::alloc_ok]` marks
//!    sanctioned cold-path boundaries the walk does not enter.
//! 3. **lock-discipline** — `sweep_try_only` locks may only be taken via
//!    `try_lock` on sweep-reachable paths (minus the spec's
//!    `blocking_allowed` escape hatch), and per-function acquisition
//!    sequences must respect `[lock_order].classes`.
//! 4. **shim-hygiene** — `std::sync::atomic` / `std::sync::Mutex` never
//!    appear in rt code outside `rt/sync.rs`; everything routes through
//!    the loom shim.
//!
//! The analysis is token-level and *conservative*: receivers it cannot
//! attribute surface as diagnostics rather than silent passes. Checks
//! run over every cfg branch (the protocol holds in every build); the
//! cfg environment only affects the per-run covered-field accounting.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::path::Path;

use crate::lexer::{lex, Token, TokenKind};
use crate::parser::{parse_items, FieldDef, FnDef, Parsed};
use crate::protocol::{OrderingName, ProtocolSpec};

/// Which check produced a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Check {
    /// Atomic-ordering discipline.
    AtomicOrdering,
    /// Hot-path allocation freedom.
    HotPathAlloc,
    /// Lock discipline.
    LockDiscipline,
    /// Loom-shim hygiene.
    ShimHygiene,
    /// Spec/code coverage mismatches.
    SpecCoverage,
}

impl Check {
    /// Stable kebab-case slug used in rendered diagnostics.
    pub fn slug(self) -> &'static str {
        match self {
            Check::AtomicOrdering => "atomic-ordering",
            Check::HotPathAlloc => "hot-path-alloc",
            Check::LockDiscipline => "lock-discipline",
            Check::ShimHygiene => "shim-hygiene",
            Check::SpecCoverage => "spec-coverage",
        }
    }
}

/// One finding. Ordered by (file, line, check, message) so reports are
/// deterministic and snapshot-comparable.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Display path of the offending file (`PROTOCOL.toml` for
    /// spec-side coverage errors).
    pub file: String,
    /// 1-based line (0 when the finding is not line-anchored).
    pub line: u32,
    /// The producing check.
    pub check: Check,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}] {}:{}: {}",
            self.check.slug(),
            self.file,
            self.line,
            self.message
        )
    }
}

/// The cfg environment of one analysis run. Checks ignore it; coverage
/// accounting counts only atomic ops whose cfg guards hold under it.
#[derive(Clone, Debug, Default)]
pub struct CfgEnv {
    /// Enabled `feature = "..."` names.
    pub features: BTreeSet<String>,
    /// Enabled bare cfg flags (`loom`, ...).
    pub flags: BTreeSet<String>,
}

impl CfgEnv {
    /// Evaluates a canonicalized cfg expression (`feature="x"`,
    /// `not(loom)`, `any(a,b)`, `all(a,b)`); unknown predicates are
    /// false.
    pub fn eval(&self, expr: &str) -> bool {
        let (v, rest) = self.eval_expr(expr);
        if rest.trim().is_empty() {
            v
        } else {
            false
        }
    }

    fn eval_expr<'a>(&self, s: &'a str) -> (bool, &'a str) {
        let s = s.trim_start_matches(',');
        for (prefix, is_not, is_any) in [
            ("not(", true, false),
            ("any(", false, true),
            ("all(", false, false),
        ] {
            if let Some(mut rest) = s.strip_prefix(prefix) {
                let mut acc = !is_any;
                loop {
                    if let Some(r) = rest.strip_prefix(')') {
                        let v = if is_not { !acc } else { acc };
                        return (v, r);
                    }
                    if rest.is_empty() {
                        return (false, rest);
                    }
                    let (v, r) = self.eval_expr(rest);
                    if is_any {
                        acc = acc || v;
                    } else {
                        acc = acc && v;
                    }
                    rest = r.trim_start_matches(',');
                }
            }
        }
        let end = s
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(s.len());
        let (name, rest) = s.split_at(end);
        if let Some(val_rest) = rest.strip_prefix("=\"") {
            if let Some(close) = val_rest.find('"') {
                let value = &val_rest[..close];
                let after = &val_rest[close + 1..];
                let v = name == "feature" && self.features.contains(value);
                return (v, after);
            }
            return (false, "");
        }
        (self.flags.contains(name), rest)
    }
}

/// The result of one analysis run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// `Owner::field` keys with at least one atomic op whose cfg guards
    /// evaluate true under this run's [`CfgEnv`].
    pub covered_fields: BTreeSet<String>,
    /// Number of `.rs` files analyzed.
    pub files: usize,
    /// Number of (non-test) functions analyzed.
    pub fns: usize,
    /// Number of atomic operations attributed and checked.
    pub atomic_ops: usize,
}

/// Files exempt from hygiene and completeness: the shim itself.
const EXEMPT_FILES: &[&str] = &["sync.rs"];

/// Wrapper types to skip when resolving a field's referenced struct.
const TYPE_WRAPPERS: &[&str] = &["CachePadded"];

/// Methods treated as amortized container growth in hot code.
const AMORTIZED_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "append",
    "reserve",
    "resize",
    "entry",
    "or_insert",
    "or_insert_with",
];

/// Methods treated as hard allocation when called in hot code.
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "collect"];

struct SrcFile {
    rel: String,
    tokens: Vec<Token>,
    parsed: Parsed,
    exempt: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum OpKind {
    Load,
    Store,
    Rmw,
    CmpXchg,
    FetchUpdate,
    MaskLoad,
    MaskStore,
    MaskNoOrder,
}

fn op_kind(method: &str) -> Option<OpKind> {
    Some(match method {
        "load" => OpKind::Load,
        "store" => OpKind::Store,
        "swap" | "fetch_add" | "fetch_sub" | "fetch_and" | "fetch_or" | "fetch_xor"
        | "fetch_nand" | "fetch_max" | "fetch_min" => OpKind::Rmw,
        "compare_exchange" | "compare_exchange_weak" => OpKind::CmpXchg,
        "fetch_update" => OpKind::FetchUpdate,
        "test" | "load_words" | "is_empty" | "count" => OpKind::MaskLoad,
        "store_words" => OpKind::MaskStore,
        "set_bit" | "set_returning" | "clear" | "take_words" => OpKind::MaskNoOrder,
        _ => return None,
    })
}

#[derive(Clone, Debug)]
enum Binding {
    /// Alias to a value of this struct type (loop var over `[Slot]`, ...).
    Struct(String),
    /// Alias to one of these atomic fields (a `let` over an if/else can
    /// produce several candidates; an op must be legal for all of them).
    Fields(Vec<(String, String)>),
}

/// The analyzer: parsed files plus the spec.
pub struct Analyzer<'a> {
    spec: &'a ProtocolSpec,
    files: Vec<SrcFile>,
    /// struct name -> (file idx, struct idx)
    structs: HashMap<String, (usize, usize)>,
    /// global fn list as (file idx, fn idx), non-test only
    fns: Vec<(usize, usize)>,
    /// fn name -> global fn indices
    by_name: HashMap<String, Vec<usize>>,
}

impl<'a> Analyzer<'a> {
    /// Builds an analyzer over `(display_path, source)` pairs.
    pub fn new(spec: &'a ProtocolSpec, sources: Vec<(String, String)>) -> Self {
        let mut files = Vec::new();
        for (rel, src) in sources {
            let tokens = lex(&src);
            let parsed = parse_items(&tokens);
            let exempt = EXEMPT_FILES.iter().any(|e| {
                rel.ends_with(e) && rel[..rel.len() - e.len()].ends_with('/') || rel == *e
            });
            files.push(SrcFile {
                rel,
                tokens,
                parsed,
                exempt,
            });
        }
        let mut structs = HashMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (si, s) in f.parsed.structs.iter().enumerate() {
                structs.entry(s.name.clone()).or_insert((fi, si));
            }
        }
        let mut fns = Vec::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (ni, d) in f.parsed.fns.iter().enumerate() {
                if d.in_test {
                    continue;
                }
                by_name.entry(d.name.clone()).or_default().push(fns.len());
                fns.push((fi, ni));
            }
        }
        Analyzer {
            spec,
            files,
            structs,
            fns,
            by_name,
        }
    }

    fn fn_def(&self, g: usize) -> &FnDef {
        let (fi, ni) = self.fns[g];
        &self.files[fi].parsed.fns[ni]
    }

    fn fn_file(&self, g: usize) -> &SrcFile {
        &self.files[self.fns[g].0]
    }

    fn struct_field(&self, owner: &str, name: &str) -> Option<&FieldDef> {
        let &(fi, si) = self.structs.get(owner)?;
        self.files[fi].parsed.structs[si]
            .fields
            .iter()
            .find(|f| f.name == name)
    }

    fn ty_struct_ref(&self, ty: &[String]) -> Option<String> {
        ty.iter()
            .find(|t| !TYPE_WRAPPERS.contains(&t.as_str()) && self.structs.contains_key(t.as_str()))
            .cloned()
    }

    /// Walks `segs` as successive field accesses starting at struct
    /// `start`; returns the final `(owner, field)` if every hop exists.
    fn walk_fields(&self, start: &str, segs: &[String]) -> Option<(String, String)> {
        let mut cur = start.to_string();
        for (k, seg) in segs.iter().enumerate() {
            let fd = self.struct_field(&cur, seg)?;
            if k + 1 == segs.len() {
                return Some((cur, seg.clone()));
            }
            cur = self.ty_struct_ref(&fd.ty)?;
        }
        None
    }

    /// Collects the dotted receiver chain ending just before the `.` at
    /// `dot`, e.g. `self.slots[idx].active` -> `[self, slots, active]`.
    fn collect_receiver(tokens: &[Token], dot: usize) -> Option<Vec<String>> {
        let mut segs: Vec<String> = Vec::new();
        let mut j = dot.checked_sub(1)?;
        loop {
            // Skip a trailing index group `[...]` backwards.
            if tokens[j].is_punct(']') {
                let mut depth = 0isize;
                loop {
                    if tokens[j].is_punct(']') {
                        depth += 1;
                    } else if tokens[j].is_punct('[') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j = j.checked_sub(1)?;
                }
                j = j.checked_sub(1)?;
                continue;
            }
            if tokens[j].kind != TokenKind::Ident {
                return None;
            }
            segs.push(tokens[j].text.clone());
            if tokens[j].text == "self" {
                break;
            }
            match j.checked_sub(2) {
                Some(p) if tokens[j - 1].is_punct('.') => j = p,
                _ => break,
            }
        }
        segs.reverse();
        Some(segs)
    }

    /// Resolves a receiver chain to candidate fields (empty = unknown).
    fn resolve_chain(
        &self,
        owner: Option<&str>,
        aliases: &HashMap<String, Binding>,
        segs: &[String],
    ) -> Vec<(String, String)> {
        if segs.is_empty() {
            return Vec::new();
        }
        if segs[0] == "self" {
            if segs.len() < 2 {
                return Vec::new();
            }
            let Some(owner) = owner else {
                return Vec::new();
            };
            return self.walk_fields(owner, &segs[1..]).into_iter().collect();
        }
        match aliases.get(&segs[0]) {
            Some(Binding::Struct(s)) if segs.len() >= 2 => {
                self.walk_fields(s, &segs[1..]).into_iter().collect()
            }
            Some(Binding::Fields(f)) if segs.len() == 1 => f.clone(),
            _ => Vec::new(),
        }
    }

    /// Finds `self.<field-chain>` references in a token range and
    /// resolves each: atomic fields land in `atomics`, a trailing
    /// struct-typed field sets `struct_ref` (used for loop/let aliases).
    fn scan_self_chains(
        &self,
        owner: Option<&str>,
        tokens: &[Token],
        range: std::ops::Range<usize>,
        atomics: &mut Vec<(String, String)>,
        struct_ref: &mut Option<String>,
    ) {
        let Some(owner) = owner else { return };
        let mut i = range.start;
        while i < range.end {
            if tokens[i].is_ident("self") {
                let mut cur = owner.to_string();
                let mut j = i + 1;
                let mut last_was_field = false;
                while j + 1 < range.end && tokens[j].is_punct('.') {
                    let seg = &tokens[j + 1];
                    if seg.kind != TokenKind::Ident {
                        break;
                    }
                    // A segment followed by `(` is a method call, not a
                    // field hop; the chain's value is then unknowable —
                    // except for iteration adapters, which still yield
                    // the collection's element type (`for slot in
                    // self.slots.iter()` binds `slot: &Slot`).
                    if j + 2 < range.end && tokens[j + 2].is_punct('(') {
                        const ITER_TRANSPARENT: &[&str] = &[
                            "iter",
                            "iter_mut",
                            "into_iter",
                            "enumerate",
                            "rev",
                            "zip",
                            "take",
                            "skip",
                        ];
                        if ITER_TRANSPARENT.contains(&seg.text.as_str()) {
                            j = crate::parser::skip_group(tokens, j + 2, '(', ')');
                            continue;
                        }
                        last_was_field = false;
                        break;
                    }
                    let Some(fd) = self.struct_field(&cur, &seg.text) else {
                        last_was_field = false;
                        break;
                    };
                    if fd.is_atomic() {
                        atomics.push((cur.clone(), seg.text.clone()));
                        last_was_field = false;
                        break;
                    }
                    match self.ty_struct_ref(&fd.ty) {
                        Some(s) => {
                            cur = s;
                            last_was_field = true;
                        }
                        None => {
                            last_was_field = false;
                            break;
                        }
                    }
                    j += 2;
                    // Skip index groups between hops.
                    while j < range.end && tokens[j].is_punct('[') {
                        let mut depth = 0isize;
                        while j < range.end {
                            if tokens[j].is_punct('[') {
                                depth += 1;
                            } else if tokens[j].is_punct(']') {
                                depth -= 1;
                                if depth == 0 {
                                    j += 1;
                                    break;
                                }
                            }
                            j += 1;
                        }
                    }
                }
                if last_was_field && struct_ref.is_none() {
                    *struct_ref = Some(cur);
                }
                i = j.max(i + 1);
                continue;
            }
            i += 1;
        }
    }

    fn range_binding(
        &self,
        owner: Option<&str>,
        tokens: &[Token],
        range: std::ops::Range<usize>,
    ) -> Option<Binding> {
        let mut atomics = Vec::new();
        let mut struct_ref = None;
        self.scan_self_chains(owner, tokens, range, &mut atomics, &mut struct_ref);
        if !atomics.is_empty() {
            atomics.sort();
            atomics.dedup();
            return Some(Binding::Fields(atomics));
        }
        struct_ref.map(Binding::Struct)
    }

    /// Builds the alias map of a fn body: `for` patterns, `let`
    /// bindings, and closure parameters bound to the atomic fields (or
    /// struct types) their source expressions mention.
    fn build_aliases(&self, def: &FnDef, tokens: &[Token]) -> HashMap<String, Binding> {
        let mut out: HashMap<String, Binding> = HashMap::new();
        let body = def.body.clone();
        let owner = def.owner.as_deref();
        let is_pattern_var = |t: &Token| {
            t.kind == TokenKind::Ident
                && !matches!(t.text.as_str(), "mut" | "ref" | "_" | "box")
                && t.text
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        };
        let mut i = body.start;
        while i < body.end {
            let t = &tokens[i];
            if t.is_ident("for") && !(i + 1 < body.end && tokens[i + 1].is_punct('<')) {
                // Pattern idents up to `in`, expr up to the loop `{`.
                let mut j = i + 1;
                let mut pattern = Vec::new();
                while j < body.end && !tokens[j].is_ident("in") {
                    if is_pattern_var(&tokens[j]) {
                        pattern.push(tokens[j].text.clone());
                    }
                    j += 1;
                    if j > i + 48 {
                        break;
                    }
                }
                if j < body.end && tokens[j].is_ident("in") {
                    let expr_start = j + 1;
                    let mut depth = 0isize;
                    let mut k = expr_start;
                    while k < body.end {
                        let tk = &tokens[k];
                        if tk.is_punct('(') || tk.is_punct('[') {
                            depth += 1;
                        } else if tk.is_punct(')') || tk.is_punct(']') {
                            depth -= 1;
                        } else if depth == 0 && tk.is_punct('{') {
                            break;
                        }
                        k += 1;
                    }
                    if let Some(b) = self.range_binding(owner, tokens, expr_start..k) {
                        for p in pattern {
                            out.insert(p, b.clone());
                        }
                    }
                    i = k;
                    continue;
                }
            }
            if t.is_ident("let") {
                let mut j = i + 1;
                let mut pattern = Vec::new();
                while j < body.end && !tokens[j].is_punct('=') && !tokens[j].is_punct(';') {
                    if is_pattern_var(&tokens[j]) {
                        pattern.push(tokens[j].text.clone());
                    }
                    j += 1;
                }
                if j < body.end && tokens[j].is_punct('=') {
                    let rhs_start = j + 1;
                    let mut depth = 0isize;
                    let mut k = rhs_start;
                    while k < body.end {
                        let tk = &tokens[k];
                        if tk.is_punct('(') || tk.is_punct('[') || tk.is_punct('{') {
                            depth += 1;
                        } else if tk.is_punct(')') || tk.is_punct(']') || tk.is_punct('}') {
                            depth -= 1;
                        } else if depth <= 0 && tk.is_punct(';') {
                            break;
                        }
                        k += 1;
                    }
                    if let Some(b) = self.range_binding(owner, tokens, rhs_start..k) {
                        for p in pattern {
                            out.insert(p, b.clone());
                        }
                    }
                    i = k;
                    continue;
                }
            }
            // Closure params: `|a, b|` with `|` in argument position.
            if t.is_punct('|') && i > body.start {
                let prev = &tokens[i - 1];
                if prev.is_punct('(')
                    || prev.is_punct(',')
                    || prev.is_punct('=')
                    || prev.is_punct('{')
                {
                    let mut params = Vec::new();
                    let mut j = i + 1;
                    while j < body.end && !tokens[j].is_punct('|') {
                        if is_pattern_var(&tokens[j]) {
                            params.push(tokens[j].text.clone());
                        }
                        j += 1;
                        if j > i + 24 {
                            break;
                        }
                    }
                    if !params.is_empty() {
                        // Candidate fields come from the enclosing
                        // statement: scan back to the nearest stmt edge.
                        let mut s = i;
                        while s > body.start {
                            let ts = &tokens[s - 1];
                            if ts.is_punct(';') || ts.is_punct('{') || ts.is_punct('}') {
                                break;
                            }
                            s -= 1;
                        }
                        let mut atomics = Vec::new();
                        let mut sref = None;
                        self.scan_self_chains(owner, tokens, s..i, &mut atomics, &mut sref);
                        if !atomics.is_empty() {
                            atomics.sort();
                            atomics.dedup();
                            for p in params {
                                out.insert(p, Binding::Fields(atomics.clone()));
                            }
                        }
                    }
                    i = j;
                    continue;
                }
            }
            i += 1;
        }
        out
    }

    fn extract_orderings(
        tokens: &[Token],
        range: std::ops::Range<usize>,
    ) -> Vec<(Option<OrderingName>, String, u32)> {
        let mut out = Vec::new();
        let mut i = range.start;
        while i + 3 < range.end {
            if tokens[i].is_ident("Ordering")
                && tokens[i + 1].is_punct(':')
                && tokens[i + 2].is_punct(':')
                && tokens[i + 3].kind == TokenKind::Ident
            {
                let name = tokens[i + 3].text.clone();
                out.push((OrderingName::parse_name(&name), name, tokens[i + 3].line));
                i += 4;
                continue;
            }
            i += 1;
        }
        out
    }

    fn fmt_allowed(list: &[OrderingName]) -> String {
        let names: Vec<&str> = list.iter().map(|o| o.as_str()).collect();
        format!("[{}]", names.join(", "))
    }
}

/// Runs every check and assembles the report. `sources` are
/// `(display_path, contents)`; `env` drives coverage accounting only.
pub fn analyze_sources(
    spec: &ProtocolSpec,
    sources: Vec<(String, String)>,
    env: &CfgEnv,
) -> Report {
    let a = Analyzer::new(spec, sources);
    let mut diags: Vec<Diagnostic> = Vec::new();
    // (owner::field) -> cfg condition sets observed (one per op)
    let mut observed: BTreeMap<String, Vec<Vec<String>>> = BTreeMap::new();
    let mut atomic_ops = 0usize;

    a.check_orderings(&mut diags, &mut observed, &mut atomic_ops);
    a.check_declarations(&mut diags);
    let reach_all = a.check_hot_paths(&mut diags);
    a.check_locks(&mut diags, &reach_all);
    a.check_hygiene(&mut diags);
    a.check_spec_coverage(&mut diags, &observed);

    let mut covered_fields = BTreeSet::new();
    for (key, op_cfgs) in &observed {
        if op_cfgs.iter().any(|cfgs| cfgs.iter().all(|c| env.eval(c))) {
            covered_fields.insert(key.clone());
        }
    }

    diags.sort();
    diags.dedup();
    Report {
        diagnostics: diags,
        covered_fields,
        files: a.files.len(),
        fns: a.fns.len(),
        atomic_ops,
    }
}

/// Reads every `.rs` file under `root` (recursively, sorted) and runs
/// [`analyze_sources`]; `display_prefix` is prepended to relative paths
/// in diagnostics.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk.
pub fn analyze_dir(
    spec: &ProtocolSpec,
    root: &Path,
    display_prefix: &str,
    env: &CfgEnv,
) -> std::io::Result<Report> {
    let mut paths = Vec::new();
    collect_rs(root, &mut paths)?;
    paths.sort();
    let mut sources = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        let display = format!("{display_prefix}{rel}");
        sources.push((display, std::fs::read_to_string(&p)?));
    }
    Ok(analyze_sources(spec, sources, env))
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

impl Analyzer<'_> {
    fn check_orderings(
        &self,
        diags: &mut Vec<Diagnostic>,
        observed: &mut BTreeMap<String, Vec<Vec<String>>>,
        atomic_ops: &mut usize,
    ) {
        for g in 0..self.fns.len() {
            let def = self.fn_def(g);
            let file = self.fn_file(g);
            let tokens = &file.tokens;
            let aliases = self.build_aliases(def, tokens);
            let body = def.body.clone();
            let mut i = body.start;
            while i + 2 < body.end {
                // Free `fence(Ordering::X)` calls.
                if tokens[i].is_ident("fence")
                    && tokens[i + 1].is_punct('(')
                    && (i == body.start || !tokens[i - 1].is_punct('.'))
                {
                    let end = crate::parser::skip_group(tokens, i + 1, '(', ')');
                    for (ord, name, line) in Self::extract_orderings(tokens, i + 2..end) {
                        match ord {
                            Some(o) if self.spec.fences_allowed.contains(&o) => {}
                            Some(o) => diags.push(Diagnostic {
                                file: file.rel.clone(),
                                line,
                                check: Check::AtomicOrdering,
                                message: format!(
                                    "fence uses Ordering::{o}, allowed {}",
                                    Self::fmt_allowed(&self.spec.fences_allowed)
                                ),
                            }),
                            None => diags.push(Diagnostic {
                                file: file.rel.clone(),
                                line,
                                check: Check::AtomicOrdering,
                                message: format!("unknown ordering name `{name}` in fence"),
                            }),
                        }
                    }
                    i = end;
                    continue;
                }
                // Method-call atomic ops: `.method(args)`.
                if tokens[i].is_punct('.')
                    && tokens[i + 1].kind == TokenKind::Ident
                    && tokens[i + 2].is_punct('(')
                {
                    let method = tokens[i + 1].text.clone();
                    let line = tokens[i + 1].line;
                    let Some(kind) = op_kind(&method) else {
                        i += 1;
                        continue;
                    };
                    let args_end = crate::parser::skip_group(tokens, i + 2, '(', ')');
                    let ords = Self::extract_orderings(tokens, i + 3..args_end);
                    let segs = Self::collect_receiver(tokens, i).unwrap_or_default();
                    let mut fields = self.resolve_chain(def.owner.as_deref(), &aliases, &segs);
                    // Keep only fields that are actually atomic; a
                    // resolved non-atomic receiver (e.g. `cache.clear()`)
                    // is not an atomic op.
                    fields
                        .retain(|(o, n)| self.struct_field(o, n).is_some_and(FieldDef::is_atomic));
                    if fields.is_empty() {
                        if !ords.is_empty() {
                            // Definitely an atomic op (it names an
                            // Ordering); try the unique-atomic-field
                            // fallback before giving up.
                            let fallback = def.owner.as_deref().and_then(|o| {
                                let &(fi, si) = self.structs.get(o)?;
                                let atomics: Vec<_> = self.files[fi].parsed.structs[si]
                                    .fields
                                    .iter()
                                    .filter(|f| f.is_atomic())
                                    .collect();
                                if atomics.len() == 1 {
                                    Some((o.to_string(), atomics[0].name.clone()))
                                } else {
                                    None
                                }
                            });
                            match fallback {
                                Some(f) => fields.push(f),
                                None => {
                                    diags.push(Diagnostic {
                                        file: file.rel.clone(),
                                        line,
                                        check: Check::AtomicOrdering,
                                        message: format!(
                                            "atomic `.{method}(...)` could not be attributed to a declared field (receiver `{}`)",
                                            segs.join(".")
                                        ),
                                    });
                                    i = args_end;
                                    continue;
                                }
                            }
                        } else {
                            i += 1;
                            continue;
                        }
                    }
                    *atomic_ops += 1;
                    for (owner, name) in &fields {
                        let key = format!("{owner}::{name}");
                        let Some(fspec) = self.spec.field(owner, name) else {
                            diags.push(Diagnostic {
                                file: file.rel.clone(),
                                line,
                                check: Check::AtomicOrdering,
                                message: format!(
                                    "atomic field `{owner}.{name}` is not declared in PROTOCOL.toml"
                                ),
                            });
                            continue;
                        };
                        observed.entry(key).or_default().push(def.cfgs.clone());
                        let mut check_one = |pos: usize, allowed: &[OrderingName], what: &str| {
                            match ords.get(pos) {
                                Some((Some(o), _, oline)) => {
                                    if !allowed.contains(o) {
                                        diags.push(Diagnostic {
                                                file: file.rel.clone(),
                                                line: *oline,
                                                check: Check::AtomicOrdering,
                                                message: format!(
                                                    "`{owner}.{name}`: {what} uses Ordering::{o}, allowed {}",
                                                    Self::fmt_allowed(allowed)
                                                ),
                                            });
                                    }
                                }
                                Some((None, raw, oline)) => diags.push(Diagnostic {
                                    file: file.rel.clone(),
                                    line: *oline,
                                    check: Check::AtomicOrdering,
                                    message: format!(
                                        "`{owner}.{name}`: unknown ordering name `{raw}`"
                                    ),
                                }),
                                None => {
                                    if !fspec.parametric {
                                        diags.push(Diagnostic {
                                                file: file.rel.clone(),
                                                line,
                                                check: Check::AtomicOrdering,
                                                message: format!(
                                                    "`{owner}.{name}`: non-literal ordering argument on non-parametric field"
                                                ),
                                            });
                                    }
                                }
                            }
                        };
                        match kind {
                            OpKind::Load | OpKind::MaskLoad => check_one(0, &fspec.load, "load"),
                            OpKind::Store | OpKind::MaskStore => {
                                check_one(0, &fspec.store, "store")
                            }
                            OpKind::Rmw => check_one(0, &fspec.rmw, "rmw"),
                            OpKind::CmpXchg => {
                                check_one(0, &fspec.rmw, "compare_exchange success");
                                check_one(1, &fspec.rmw_failure, "compare_exchange failure");
                            }
                            OpKind::FetchUpdate => {
                                check_one(0, &fspec.rmw, "fetch_update set");
                                check_one(1, &fspec.load, "fetch_update fetch");
                            }
                            OpKind::MaskNoOrder => {
                                // Internally AcqRel (AtomicCpuMask::words);
                                // nothing to validate at this call site.
                            }
                        }
                    }
                    i = args_end;
                    continue;
                }
                i += 1;
            }
        }
    }

    /// Declaration-level completeness: every atomic/mutex struct field
    /// in analyzed (non-exempt, non-test) code must appear in the spec.
    fn check_declarations(&self, diags: &mut Vec<Diagnostic>) {
        for f in &self.files {
            if f.exempt {
                continue;
            }
            for s in &f.parsed.structs {
                if s.in_test {
                    continue;
                }
                for fd in &s.fields {
                    if fd.is_atomic() && self.spec.field(&s.name, &fd.name).is_none() {
                        diags.push(Diagnostic {
                            file: f.rel.clone(),
                            line: fd.line,
                            check: Check::SpecCoverage,
                            message: format!(
                                "atomic field `{}.{}` is not declared in PROTOCOL.toml",
                                s.name, fd.name
                            ),
                        });
                    }
                    if fd.is_mutex() && self.spec.lock(&s.name, &fd.name).is_none() {
                        diags.push(Diagnostic {
                            file: f.rel.clone(),
                            line: fd.line,
                            check: Check::SpecCoverage,
                            message: format!(
                                "mutex field `{}.{}` is not declared in PROTOCOL.toml [[lock]]",
                                s.name, fd.name
                            ),
                        });
                    }
                }
            }
        }
    }

    /// Spec-side staleness: every spec entry must match a real field,
    /// and every field entry must be exercised by at least one op.
    fn check_spec_coverage(
        &self,
        diags: &mut Vec<Diagnostic>,
        observed: &BTreeMap<String, Vec<Vec<String>>>,
    ) {
        for f in &self.spec.fields {
            let key = format!("{}::{}", f.owner, f.name);
            match self.struct_field(&f.owner, &f.name) {
                Some(fd) if fd.is_atomic() => {
                    if !observed.contains_key(&key) {
                        diags.push(Diagnostic {
                            file: "PROTOCOL.toml".to_string(),
                            line: 0,
                            check: Check::SpecCoverage,
                            message: format!(
                                "spec declares `{}.{}` but no operation on it was found (stale entry?)",
                                f.owner, f.name
                            ),
                        });
                    }
                }
                _ => diags.push(Diagnostic {
                    file: "PROTOCOL.toml".to_string(),
                    line: 0,
                    check: Check::SpecCoverage,
                    message: format!(
                        "spec declares `{}.{}` but no such atomic field exists",
                        f.owner, f.name
                    ),
                }),
            }
        }
        for l in &self.spec.locks {
            match self.struct_field(&l.owner, &l.name) {
                Some(fd) if fd.is_mutex() => {}
                _ => diags.push(Diagnostic {
                    file: "PROTOCOL.toml".to_string(),
                    line: 0,
                    check: Check::SpecCoverage,
                    message: format!(
                        "spec declares lock `{}.{}` but no such mutex field exists",
                        l.owner, l.name
                    ),
                }),
            }
        }
    }

    /// Call-graph reachability from `#[latr::hot_path]` roots. Returns
    /// the full reachable set (no `alloc_ok` stop) for the lock check;
    /// emits allocation diagnostics along the alloc-bounded walk.
    fn check_hot_paths(&self, diags: &mut Vec<Diagnostic>) -> HashMap<usize, Option<usize>> {
        // Expected roots must exist and be annotated.
        for root in &self.spec.hot_path.roots {
            let found: Vec<usize> = (0..self.fns.len())
                .filter(|&g| self.fn_def(g).qualified() == *root)
                .collect();
            if found.is_empty() {
                diags.push(Diagnostic {
                    file: "PROTOCOL.toml".to_string(),
                    line: 0,
                    check: Check::HotPathAlloc,
                    message: format!("hot-path root `{root}` not found in analyzed code"),
                });
            } else if !found
                .iter()
                .any(|&g| self.fn_def(g).has_attr("latr::hot_path"))
            {
                let g = found[0];
                diags.push(Diagnostic {
                    file: self.fn_file(g).rel.clone(),
                    line: self.fn_def(g).line,
                    check: Check::HotPathAlloc,
                    message: format!("`{root}` is missing its #[latr::hot_path] annotation"),
                });
            }
        }
        let roots: Vec<usize> = (0..self.fns.len())
            .filter(|&g| self.fn_def(g).has_attr("latr::hot_path"))
            .collect();
        let reach_full = self.reach(&roots, false);
        let reach_alloc = self.reach(&roots, true);
        for &g in reach_alloc.keys() {
            self.scan_allocs(g, diags, &reach_alloc);
        }
        reach_full
    }

    fn reach(&self, roots: &[usize], stop_at_alloc_ok: bool) -> HashMap<usize, Option<usize>> {
        let mut parents: HashMap<usize, Option<usize>> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if stop_at_alloc_ok && self.fn_def(r).has_attr("latr::alloc_ok") {
                continue;
            }
            if parents.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(g) = queue.pop_front() {
            let def = self.fn_def(g);
            let tokens = &self.fn_file(g).tokens;
            let body = def.body.clone();
            let mut i = body.start;
            while i + 1 < body.end {
                let t = &tokens[i];
                if t.kind == TokenKind::Ident
                    && tokens[i + 1].is_punct('(')
                    && !(i > body.start && tokens[i - 1].is_ident("fn"))
                    && !AMORTIZED_METHODS.contains(&t.text.as_str())
                    && !ALLOC_METHODS.contains(&t.text.as_str())
                {
                    if let Some(callees) = self.by_name.get(&t.text) {
                        for &c in callees {
                            if stop_at_alloc_ok && self.fn_def(c).has_attr("latr::alloc_ok") {
                                continue;
                            }
                            if let std::collections::hash_map::Entry::Vacant(e) = parents.entry(c) {
                                e.insert(Some(g));
                                queue.push_back(c);
                            }
                        }
                    }
                }
                i += 1;
            }
        }
        parents
    }

    fn chain(&self, g: usize, parents: &HashMap<usize, Option<usize>>) -> String {
        let mut names = vec![self.fn_def(g).qualified()];
        let mut cur = g;
        while let Some(Some(p)) = parents.get(&cur) {
            names.push(self.fn_def(*p).qualified());
            cur = *p;
        }
        names.reverse();
        names.join(" -> ")
    }

    fn scan_allocs(
        &self,
        g: usize,
        diags: &mut Vec<Diagnostic>,
        parents: &HashMap<usize, Option<usize>>,
    ) {
        let def = self.fn_def(g);
        let file = self.fn_file(g);
        let tokens = &file.tokens;
        let body = def.body.clone();
        let mut i = body.start;
        let mut push_diag = |line: u32, what: String| {
            diags.push(Diagnostic {
                file: file.rel.clone(),
                line,
                check: Check::HotPathAlloc,
                message: format!(
                    "allocation in hot path: {what} (reachable via {})",
                    self.chain(g, parents)
                ),
            });
        };
        while i < body.end {
            let t = &tokens[i];
            if t.kind == TokenKind::Ident {
                // `vec!` / `format!` macros.
                if matches!(t.text.as_str(), "vec" | "format")
                    && i + 1 < body.end
                    && tokens[i + 1].is_punct('!')
                {
                    push_diag(t.line, format!("`{}!` macro", t.text));
                    i += 2;
                    continue;
                }
                // `Box::new`, `Vec::with_capacity`, `String::from`, ...
                if matches!(
                    t.text.as_str(),
                    "Box" | "Vec" | "String" | "VecDeque" | "HashMap"
                ) && i + 3 < body.end
                    && tokens[i + 1].is_punct(':')
                    && tokens[i + 2].is_punct(':')
                    && tokens[i + 3].kind == TokenKind::Ident
                {
                    let m = tokens[i + 3].text.as_str();
                    let allocates = match t.text.as_str() {
                        "Box" => m == "new",
                        _ => matches!(m, "with_capacity" | "from"),
                    };
                    if allocates {
                        push_diag(t.line, format!("`{}::{}`", t.text, m));
                        i += 4;
                        continue;
                    }
                }
            }
            if t.is_punct('.') && i + 2 < body.end && tokens[i + 1].kind == TokenKind::Ident {
                let m = tokens[i + 1].text.as_str();
                let line = tokens[i + 1].line;
                let called = tokens[i + 2].is_punct('(')
                    || (tokens[i + 2].is_punct(':')
                        && i + 3 < body.end
                        && tokens[i + 3].is_punct(':'));
                if called && ALLOC_METHODS.contains(&m) {
                    push_diag(line, format!("`.{m}(...)`"));
                    i += 2;
                    continue;
                }
                if tokens[i + 2].is_punct('(') && AMORTIZED_METHODS.contains(&m) {
                    let recv = Self::collect_receiver(tokens, i)
                        .and_then(|segs| segs.last().cloned())
                        .unwrap_or_else(|| "<expr>".to_string());
                    if !self.spec.hot_path.amortized_receivers.contains(&recv) {
                        push_diag(
                            line,
                            format!(
                                "amortized growth `.{m}(...)` on receiver `{recv}` not in amortized_receivers"
                            ),
                        );
                    }
                    i += 2;
                    continue;
                }
            }
            i += 1;
        }
    }

    fn check_locks(&self, diags: &mut Vec<Diagnostic>, reach_all: &HashMap<usize, Option<usize>>) {
        for g in 0..self.fns.len() {
            let def = self.fn_def(g);
            let file = self.fn_file(g);
            let tokens = &file.tokens;
            let aliases = self.build_aliases(def, tokens);
            let body = def.body.clone();
            let mut seq: Vec<(String, u32)> = Vec::new();
            let mut i = body.start;
            while i + 2 < body.end {
                if tokens[i].is_punct('.')
                    && tokens[i + 1].kind == TokenKind::Ident
                    && tokens[i + 2].is_punct('(')
                {
                    let m = tokens[i + 1].text.as_str();
                    if m == "lock" || m == "try_lock" {
                        let line = tokens[i + 1].line;
                        let blocking = m == "lock";
                        let segs = Self::collect_receiver(tokens, i).unwrap_or_default();
                        let mut fields = self.resolve_chain(def.owner.as_deref(), &aliases, &segs);
                        fields.retain(|(o, n)| {
                            self.struct_field(o, n).is_some_and(FieldDef::is_mutex)
                        });
                        for (owner, name) in fields {
                            let Some(lspec) = self.spec.lock(&owner, &name) else {
                                diags.push(Diagnostic {
                                    file: file.rel.clone(),
                                    line,
                                    check: Check::LockDiscipline,
                                    message: format!(
                                        "mutex field `{owner}.{name}` is not declared in PROTOCOL.toml [[lock]]"
                                    ),
                                });
                                continue;
                            };
                            seq.push((lspec.class.clone(), line));
                            if blocking
                                && lspec.sweep_try_only
                                && reach_all.contains_key(&g)
                                && !lspec.blocking_allowed.contains(&def.qualified())
                            {
                                diags.push(Diagnostic {
                                    file: file.rel.clone(),
                                    line,
                                    check: Check::LockDiscipline,
                                    message: format!(
                                        "blocking `lock()` on `{owner}.{name}` (class `{}`) in sweep-reachable `{}` ({}); use try_lock or add it to blocking_allowed with a rationale",
                                        lspec.class,
                                        def.qualified(),
                                        self.chain(g, reach_all)
                                    ),
                                });
                            }
                        }
                    }
                }
                i += 1;
            }
            // Per-function acquisition order must follow the spec.
            for w in seq.windows(2) {
                let (a_class, _) = &w[0];
                let (b_class, b_line) = &w[1];
                if a_class == b_class {
                    continue;
                }
                let ia = self.spec.lock_order.iter().position(|c| c == a_class);
                let ib = self.spec.lock_order.iter().position(|c| c == b_class);
                if let (Some(ia), Some(ib)) = (ia, ib) {
                    if ib < ia {
                        diags.push(Diagnostic {
                            file: file.rel.clone(),
                            line: *b_line,
                            check: Check::LockDiscipline,
                            message: format!(
                                "lock order violation in `{}`: class `{b_class}` acquired after `{a_class}`, [lock_order] is [{}]",
                                def.qualified(),
                                self.spec.lock_order.join(", ")
                            ),
                        });
                    }
                }
            }
        }
    }

    fn check_hygiene(&self, diags: &mut Vec<Diagnostic>) {
        const BAD: &[&str] = &["atomic", "Mutex", "MutexGuard", "RwLock", "Condvar"];
        for f in &self.files {
            if f.exempt {
                continue;
            }
            let tokens = &f.tokens;
            let mut i = 0usize;
            while i + 4 < tokens.len() {
                let is_root = tokens[i].is_ident("std") || tokens[i].is_ident("core");
                if is_root
                    && tokens[i + 1].is_punct(':')
                    && tokens[i + 2].is_punct(':')
                    && tokens[i + 3].is_ident("sync")
                    && i + 6 < tokens.len()
                    && tokens[i + 4].is_punct(':')
                    && tokens[i + 5].is_punct(':')
                {
                    let root = tokens[i].text.clone();
                    let next = &tokens[i + 6];
                    if next.kind == TokenKind::Ident && BAD.contains(&next.text.as_str()) {
                        diags.push(Diagnostic {
                            file: f.rel.clone(),
                            line: next.line,
                            check: Check::ShimHygiene,
                            message: format!(
                                "direct `{root}::sync::{}` use; rt code must route atomics and locks through rt/sync.rs",
                                next.text
                            ),
                        });
                        i += 7;
                        continue;
                    }
                    if next.is_punct('{') {
                        let end = crate::parser::skip_group(tokens, i + 6, '{', '}');
                        for t in &tokens[i + 7..end.saturating_sub(1)] {
                            if t.kind == TokenKind::Ident && BAD.contains(&t.text.as_str()) {
                                diags.push(Diagnostic {
                                    file: f.rel.clone(),
                                    line: t.line,
                                    check: Check::ShimHygiene,
                                    message: format!(
                                        "direct `{root}::sync::{}` use; rt code must route atomics and locks through rt/sync.rs",
                                        t.text
                                    ),
                                });
                            }
                        }
                        i = end;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
}
