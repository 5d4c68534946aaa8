//! The machine-readable rt concurrency protocol: `PROTOCOL.toml`.
//!
//! This is the single source of truth for the rt memory model (DESIGN.md
//! §13): which `Ordering`s each atomic field admits, which locks exist
//! and how they may be taken on sweep-reachable paths, which functions
//! root the hot-path allocation walk, and which fences are sanctioned.
//!
//! The wire format is a small TOML subset (tables, arrays-of-tables,
//! strings, integers, booleans, string arrays) parsed by hand, the same
//! posture as `ThreadFaultPlan`'s config format in `latr-faults`: a
//! hand-written [`ProtocolSpec::parse`]/[`ProtocolSpec::to_config_string`]
//! pair with per-line errors, unknown keys rejected
//! (`deny_unknown_fields`), and a whole-spec [`ProtocolSpec::validate`].

use std::collections::BTreeSet;
use std::fmt;

/// A memory ordering name, spelled exactly as in
/// `std::sync::atomic::Ordering`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OrderingName {
    /// `Ordering::Relaxed`
    Relaxed,
    /// `Ordering::Acquire`
    Acquire,
    /// `Ordering::Release`
    Release,
    /// `Ordering::AcqRel`
    AcqRel,
    /// `Ordering::SeqCst`
    SeqCst,
}

impl OrderingName {
    /// Every ordering, in strength-ish order.
    pub const ALL: [OrderingName; 5] = [
        OrderingName::Relaxed,
        OrderingName::Acquire,
        OrderingName::Release,
        OrderingName::AcqRel,
        OrderingName::SeqCst,
    ];

    /// Parses the Rust spelling (`"AcqRel"`), rejecting anything else.
    pub fn parse_name(s: &str) -> Option<Self> {
        Some(match s {
            "Relaxed" => OrderingName::Relaxed,
            "Acquire" => OrderingName::Acquire,
            "Release" => OrderingName::Release,
            "AcqRel" => OrderingName::AcqRel,
            "SeqCst" => OrderingName::SeqCst,
            _ => return None,
        })
    }

    /// The Rust spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            OrderingName::Relaxed => "Relaxed",
            OrderingName::Acquire => "Acquire",
            OrderingName::Release => "Release",
            OrderingName::AcqRel => "AcqRel",
            OrderingName::SeqCst => "SeqCst",
        }
    }
}

impl fmt::Display for OrderingName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One atomic field's contract: who owns it, what it is, and which
/// orderings each access kind admits.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FieldSpec {
    /// The struct that declares the field (spec entries are keyed by
    /// `(owner, name)` — `active` on `Slot` and on `RtQueue` are
    /// different contracts).
    pub owner: String,
    /// The field name.
    pub name: String,
    /// The atomic type, for documentation and sanity (`AtomicU64`,
    /// `AtomicBool`, `AtomicUsize`, `AtomicCpuMask`, ...).
    pub atomic_type: String,
    /// Whether the field's accessors thread a caller-supplied `Ordering`
    /// parameter instead of a literal (the `AtomicCpuMask::words` case).
    /// Non-literal ordering arguments are only accepted on parametric
    /// fields; the literals at the *call sites* of the wrapping methods
    /// are still validated against the outer field's spec.
    pub parametric: bool,
    /// Allowed orderings for loads (and load-like mask reads: `test`,
    /// `load_words`, `is_empty`, `count`).
    pub load: Vec<OrderingName>,
    /// Allowed orderings for stores (and `store_words`).
    pub store: Vec<OrderingName>,
    /// Allowed *success* orderings for RMWs (`fetch_*`, `swap`,
    /// `compare_exchange*`).
    pub rmw: Vec<OrderingName>,
    /// Allowed *failure* orderings for `compare_exchange*`.
    pub rmw_failure: Vec<OrderingName>,
    /// Why these orderings — one human sentence, required (the spec is
    /// documentation first).
    pub rationale: String,
}

/// One lock's contract.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockSpec {
    /// The struct that declares the mutex field.
    pub owner: String,
    /// The field name.
    pub name: String,
    /// The lock class for ordering purposes (`[lock_order].classes`).
    pub class: String,
    /// When true, sweep-reachable code may only use `try_lock` on this
    /// lock; blocking `lock()` is an error unless the containing
    /// function is in `blocking_allowed`.
    pub sweep_try_only: bool,
    /// `Owner::fn` names sanctioned to block on this lock even though
    /// they are sweep-reachable (each needs a rationale in DESIGN.md).
    pub blocking_allowed: Vec<String>,
    /// Why the discipline — required.
    pub rationale: String,
}

/// The hot-path allocation contract.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HotPathSpec {
    /// `Owner::fn` names that must carry `#[latr::hot_path]`; the lint
    /// fails if an annotation is deleted. Extra annotations in code are
    /// allowed (they only widen the checked set).
    pub roots: Vec<String>,
    /// Receiver identifiers (caller-supplied reusable buffers) on which
    /// amortized growth (`push` & co.) is sanctioned in hot code.
    pub amortized_receivers: Vec<String>,
}

/// The whole protocol: `crates/core/src/rt/PROTOCOL.toml`, parsed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// Format version; currently always 1.
    pub version: u32,
    /// Orderings allowed on free `fence(...)` calls in rt code.
    pub fences_allowed: Vec<OrderingName>,
    /// Lock classes in their global acquisition order.
    pub lock_order: Vec<String>,
    /// The hot-path allocation contract.
    pub hot_path: HotPathSpec,
    /// Every atomic field in the rt module, keyed `(owner, name)`.
    pub fields: Vec<FieldSpec>,
    /// Every mutex field in the rt module.
    pub locks: Vec<LockSpec>,
}

/// A spec parse error with the 1-based line it was found on (line 0 =
/// whole-spec validation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecParseError {
    /// 1-based line number; 0 for whole-spec validation errors.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "PROTOCOL.toml: {}", self.message)
        } else {
            write!(f, "PROTOCOL.toml:{}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SpecParseError {}

fn err(line: usize, message: impl Into<String>) -> SpecParseError {
    SpecParseError {
        line,
        message: message.into(),
    }
}

/// One parsed TOML-subset value.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Value {
    Str(String),
    Int(i64),
    Bool(bool),
    StrList(Vec<String>),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Bool(_) => "boolean",
            Value::StrList(_) => "string array",
        }
    }
}

/// Which table the parser is currently filling.
enum Section {
    None,
    Protocol,
    Fences,
    HotPath,
    LockOrder,
    Field,
    Lock,
}

fn parse_quoted(s: &str, line: usize) -> Result<(String, &str), SpecParseError> {
    let rest = s
        .strip_prefix('"')
        .ok_or_else(|| err(line, format!("expected a quoted string, found `{s}`")))?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &rest[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                other => {
                    return Err(err(
                        line,
                        format!("unsupported escape `\\{}`", other.map_or(' ', |(_, c)| c)),
                    ))
                }
            },
            c => out.push(c),
        }
    }
    Err(err(line, "unterminated string"))
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn parse_value(s: &str, line: usize) -> Result<Value, SpecParseError> {
    let s = s.trim();
    if s.starts_with('"') {
        let (v, rest) = parse_quoted(s, line)?;
        if !rest.trim().is_empty() {
            return Err(err(line, format!("trailing input after string: `{rest}`")));
        }
        return Ok(Value::Str(v));
    }
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = s.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| err(line, "unterminated array"))?;
        let mut items = Vec::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            let (item, after) = parse_quoted(rest, line)?;
            items.push(item);
            rest = after.trim();
            if let Some(after_comma) = rest.strip_prefix(',') {
                rest = after_comma.trim();
            } else if !rest.is_empty() {
                return Err(err(line, format!("expected `,` in array, found `{rest}`")));
            }
        }
        return Ok(Value::StrList(items));
    }
    if let Ok(v) = s.parse::<i64>() {
        return Ok(Value::Int(v));
    }
    Err(err(line, format!("unparseable value `{s}`")))
}

fn orderings(v: Value, key: &str, line: usize) -> Result<Vec<OrderingName>, SpecParseError> {
    let Value::StrList(items) = v else {
        return Err(err(
            line,
            format!(
                "`{key}` must be an array of ordering names, found {}",
                v.kind()
            ),
        ));
    };
    items
        .into_iter()
        .map(|s| {
            OrderingName::parse_name(&s)
                .ok_or_else(|| err(line, format!("unknown ordering name `{s}` in `{key}`")))
        })
        .collect()
}

fn string(v: Value, key: &str, line: usize) -> Result<String, SpecParseError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(err(
            line,
            format!("`{key}` must be a string, found {}", other.kind()),
        )),
    }
}

fn strings(v: Value, key: &str, line: usize) -> Result<Vec<String>, SpecParseError> {
    match v {
        Value::StrList(s) => Ok(s),
        other => Err(err(
            line,
            format!("`{key}` must be a string array, found {}", other.kind()),
        )),
    }
}

fn boolean(v: Value, key: &str, line: usize) -> Result<bool, SpecParseError> {
    match v {
        Value::Bool(b) => Ok(b),
        other => Err(err(
            line,
            format!("`{key}` must be a boolean, found {}", other.kind()),
        )),
    }
}

impl ProtocolSpec {
    /// Parses the TOML-subset wire format. Unknown sections and keys are
    /// rejected with the offending line (`deny_unknown_fields`); the
    /// parsed spec is then [`validate`](Self::validate)d as a whole
    /// (those errors report line 0).
    pub fn parse(input: &str) -> Result<Self, SpecParseError> {
        let mut spec = ProtocolSpec::default();
        let mut section = Section::None;
        let mut seen_keys: BTreeSet<String> = BTreeSet::new();

        for (idx, raw) in input.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                // A `#` inside a quoted string would be a comment by this
                // rule; the writer escapes nothing, so keep `#` out of
                // rationales (validate rejects it).
                Some(pos) => &raw[..pos],
                None => raw,
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
                seen_keys.clear();
                section = match name.trim() {
                    "field" => {
                        spec.fields.push(FieldSpec::default());
                        Section::Field
                    }
                    "lock" => {
                        spec.locks.push(LockSpec::default());
                        Section::Lock
                    }
                    other => return Err(err(lineno, format!("unknown array table `[[{other}]]`"))),
                };
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                seen_keys.clear();
                section = match name.trim() {
                    "protocol" => Section::Protocol,
                    "fences" => Section::Fences,
                    "hot_path" => Section::HotPath,
                    "lock_order" => Section::LockOrder,
                    other => return Err(err(lineno, format!("unknown table `[{other}]`"))),
                };
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(err(
                    lineno,
                    format!("expected `key = value`, found `{line}`"),
                ));
            };
            let key = line[..eq].trim().to_string();
            let value = parse_value(&line[eq + 1..], lineno)?;
            if !seen_keys.insert(key.clone()) {
                return Err(err(lineno, format!("duplicate key `{key}` in table")));
            }
            match section {
                Section::None => {
                    return Err(err(lineno, format!("key `{key}` outside any table")));
                }
                Section::Protocol => match key.as_str() {
                    "version" => match value {
                        Value::Int(v) if (0..=u32::MAX as i64).contains(&v) => {
                            spec.version = v as u32;
                        }
                        other => {
                            return Err(err(
                                lineno,
                                format!(
                                    "`version` must be a non-negative integer, found {}",
                                    other.kind()
                                ),
                            ))
                        }
                    },
                    other => {
                        return Err(err(lineno, format!("unknown key `{other}` in [protocol]")));
                    }
                },
                Section::Fences => match key.as_str() {
                    "allowed" => spec.fences_allowed = orderings(value, "allowed", lineno)?,
                    other => return Err(err(lineno, format!("unknown key `{other}` in [fences]"))),
                },
                Section::HotPath => match key.as_str() {
                    "roots" => spec.hot_path.roots = strings(value, "roots", lineno)?,
                    "amortized_receivers" => {
                        spec.hot_path.amortized_receivers =
                            strings(value, "amortized_receivers", lineno)?;
                    }
                    other => {
                        return Err(err(lineno, format!("unknown key `{other}` in [hot_path]")));
                    }
                },
                Section::LockOrder => match key.as_str() {
                    "classes" => spec.lock_order = strings(value, "classes", lineno)?,
                    other => {
                        return Err(err(
                            lineno,
                            format!("unknown key `{other}` in [lock_order]"),
                        ));
                    }
                },
                Section::Field => {
                    let f = spec.fields.last_mut().expect("section implies an entry");
                    match key.as_str() {
                        "owner" => f.owner = string(value, "owner", lineno)?,
                        "name" => f.name = string(value, "name", lineno)?,
                        "type" => f.atomic_type = string(value, "type", lineno)?,
                        "parametric" => f.parametric = boolean(value, "parametric", lineno)?,
                        "load" => f.load = orderings(value, "load", lineno)?,
                        "store" => f.store = orderings(value, "store", lineno)?,
                        "rmw" => f.rmw = orderings(value, "rmw", lineno)?,
                        "rmw_failure" => f.rmw_failure = orderings(value, "rmw_failure", lineno)?,
                        "rationale" => f.rationale = string(value, "rationale", lineno)?,
                        other => {
                            return Err(err(lineno, format!("unknown key `{other}` in [[field]]")));
                        }
                    }
                }
                Section::Lock => {
                    let l = spec.locks.last_mut().expect("section implies an entry");
                    match key.as_str() {
                        "owner" => l.owner = string(value, "owner", lineno)?,
                        "name" => l.name = string(value, "name", lineno)?,
                        "class" => l.class = string(value, "class", lineno)?,
                        "sweep_try_only" => {
                            l.sweep_try_only = boolean(value, "sweep_try_only", lineno)?;
                        }
                        "blocking_allowed" => {
                            l.blocking_allowed = strings(value, "blocking_allowed", lineno)?;
                        }
                        "rationale" => l.rationale = string(value, "rationale", lineno)?,
                        other => {
                            return Err(err(lineno, format!("unknown key `{other}` in [[lock]]")));
                        }
                    }
                }
            }
        }
        spec.validate().map_err(|message| err(0, message))?;
        Ok(spec)
    }

    /// Serializes to the canonical wire format; `parse` of the result
    /// reproduces the spec exactly (the round-trip proptest).
    pub fn to_config_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let list = |items: &[String]| -> String {
            let quoted: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
            format!("[{}]", quoted.join(", "))
        };
        let ords = |items: &[OrderingName]| -> String {
            let quoted: Vec<String> = items.iter().map(|o| format!("\"{o}\"")).collect();
            format!("[{}]", quoted.join(", "))
        };
        let _ = writeln!(out, "[protocol]");
        let _ = writeln!(out, "version = {}", self.version);
        let _ = writeln!(out, "\n[fences]");
        let _ = writeln!(out, "allowed = {}", ords(&self.fences_allowed));
        let _ = writeln!(out, "\n[lock_order]");
        let _ = writeln!(out, "classes = {}", list(&self.lock_order));
        let _ = writeln!(out, "\n[hot_path]");
        let _ = writeln!(out, "roots = {}", list(&self.hot_path.roots));
        let _ = writeln!(
            out,
            "amortized_receivers = {}",
            list(&self.hot_path.amortized_receivers)
        );
        for f in &self.fields {
            let _ = writeln!(out, "\n[[field]]");
            let _ = writeln!(out, "owner = \"{}\"", escape(&f.owner));
            let _ = writeln!(out, "name = \"{}\"", escape(&f.name));
            let _ = writeln!(out, "type = \"{}\"", escape(&f.atomic_type));
            if f.parametric {
                let _ = writeln!(out, "parametric = true");
            }
            if !f.load.is_empty() {
                let _ = writeln!(out, "load = {}", ords(&f.load));
            }
            if !f.store.is_empty() {
                let _ = writeln!(out, "store = {}", ords(&f.store));
            }
            if !f.rmw.is_empty() {
                let _ = writeln!(out, "rmw = {}", ords(&f.rmw));
            }
            if !f.rmw_failure.is_empty() {
                let _ = writeln!(out, "rmw_failure = {}", ords(&f.rmw_failure));
            }
            let _ = writeln!(out, "rationale = \"{}\"", escape(&f.rationale));
        }
        for l in &self.locks {
            let _ = writeln!(out, "\n[[lock]]");
            let _ = writeln!(out, "owner = \"{}\"", escape(&l.owner));
            let _ = writeln!(out, "name = \"{}\"", escape(&l.name));
            let _ = writeln!(out, "class = \"{}\"", escape(&l.class));
            if l.sweep_try_only {
                let _ = writeln!(out, "sweep_try_only = true");
            }
            if !l.blocking_allowed.is_empty() {
                let _ = writeln!(out, "blocking_allowed = {}", list(&l.blocking_allowed));
            }
            let _ = writeln!(out, "rationale = \"{}\"", escape(&l.rationale));
        }
        out
    }

    /// Whole-spec validation: structural invariants no parse can check.
    ///
    /// # Errors
    ///
    /// Returns the first violated structural invariant as prose.
    pub fn validate(&self) -> Result<(), String> {
        fn ident_ok(s: &str) -> bool {
            !s.is_empty()
                && s.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        fn qualified_ok(s: &str) -> bool {
            match s.split_once("::") {
                Some((owner, name)) => ident_ok(owner) && ident_ok(name),
                None => false,
            }
        }
        fn no_dup_orderings(list: &[OrderingName], what: &str) -> Result<(), String> {
            let set: BTreeSet<_> = list.iter().collect();
            if set.len() != list.len() {
                return Err(format!("duplicate ordering in {what}"));
            }
            Ok(())
        }
        if self.version != 1 {
            return Err(format!("unsupported protocol version {}", self.version));
        }
        no_dup_orderings(&self.fences_allowed, "[fences].allowed")?;
        let mut classes = BTreeSet::new();
        for c in &self.lock_order {
            if !ident_ok(c) {
                return Err(format!("lock class `{c}` is not an identifier"));
            }
            if !classes.insert(c) {
                return Err(format!("duplicate lock class `{c}` in [lock_order]"));
            }
        }
        if self.hot_path.roots.is_empty() {
            return Err("[hot_path].roots must not be empty".to_string());
        }
        let mut roots = BTreeSet::new();
        for r in &self.hot_path.roots {
            if !qualified_ok(r) {
                return Err(format!(
                    "hot-path root `{r}` is not of the form `Owner::fn`"
                ));
            }
            if !roots.insert(r) {
                return Err(format!("duplicate hot-path root `{r}`"));
            }
        }
        for a in &self.hot_path.amortized_receivers {
            if !ident_ok(a) {
                return Err(format!("amortized receiver `{a}` is not an identifier"));
            }
        }
        let mut field_keys = BTreeSet::new();
        for f in &self.fields {
            let key = format!("{}::{}", f.owner, f.name);
            if !ident_ok(&f.owner) || !ident_ok(&f.name) {
                return Err(format!(
                    "field entry `{key}` has a non-identifier owner or name"
                ));
            }
            if !field_keys.insert(key.clone()) {
                return Err(format!("duplicate field entry `{key}`"));
            }
            if f.atomic_type.is_empty() {
                return Err(format!("field `{key}` is missing `type`"));
            }
            if f.load.is_empty() && f.store.is_empty() && f.rmw.is_empty() {
                return Err(format!("field `{key}` allows no operation at all"));
            }
            if !f.rmw_failure.is_empty() && f.rmw.is_empty() {
                return Err(format!("field `{key}` has `rmw_failure` without `rmw`"));
            }
            no_dup_orderings(&f.load, &format!("`{key}` load"))?;
            no_dup_orderings(&f.store, &format!("`{key}` store"))?;
            no_dup_orderings(&f.rmw, &format!("`{key}` rmw"))?;
            no_dup_orderings(&f.rmw_failure, &format!("`{key}` rmw_failure"))?;
            if f.rationale.is_empty() {
                return Err(format!("field `{key}` is missing its rationale"));
            }
            if f.rationale.contains('#') {
                return Err(format!("field `{key}` rationale must not contain `#`"));
            }
        }
        let mut lock_keys = BTreeSet::new();
        for l in &self.locks {
            let key = format!("{}::{}", l.owner, l.name);
            if !ident_ok(&l.owner) || !ident_ok(&l.name) {
                return Err(format!(
                    "lock entry `{key}` has a non-identifier owner or name"
                ));
            }
            if !lock_keys.insert(key.clone()) {
                return Err(format!("duplicate lock entry `{key}`"));
            }
            if !self.lock_order.iter().any(|c| c == &l.class) {
                return Err(format!(
                    "lock `{key}` has class `{}` not listed in [lock_order]",
                    l.class
                ));
            }
            for b in &l.blocking_allowed {
                if !qualified_ok(b) {
                    return Err(format!(
                        "lock `{key}` blocking_allowed entry `{b}` is not of the form `Owner::fn`"
                    ));
                }
            }
            if l.rationale.is_empty() {
                return Err(format!("lock `{key}` is missing its rationale"));
            }
            if l.rationale.contains('#') {
                return Err(format!("lock `{key}` rationale must not contain `#`"));
            }
        }
        Ok(())
    }

    /// Looks up a field spec by `(owner, name)`.
    pub fn field(&self, owner: &str, name: &str) -> Option<&FieldSpec> {
        self.fields
            .iter()
            .find(|f| f.owner == owner && f.name == name)
    }

    /// Looks up a lock spec by `(owner, name)`.
    pub fn lock(&self, owner: &str, name: &str) -> Option<&LockSpec> {
        self.locks
            .iter()
            .find(|l| l.owner == owner && l.name == name)
    }
}
