//! Typed, span-carrying diagnostics for extraction failures and advisories.
//!
//! The paper's pipeline (Sec. 4) rejects a cursor loop when preconditions
//! P1–P3 fail or when no rule T1–T7 applies; historically those reasons
//! flowed through the crates as bare `String`s. This module gives every
//! failure a stable code ([`Code`]), a severity, and source anchors
//! ([`Label`]) pointing at the statements responsible, plus two renderers:
//! a rustc-style human reporter ([`Diagnostic::render_human`]) and a stable
//! machine-readable JSON form ([`render_json`]); string escaping is shared
//! with every other JSON producer via [`crate::json`].
//!
//! ## Code registry
//!
//! `E0xx` codes are hard failures — the loop (or variable) cannot be
//! extracted:
//!
//! | code | meaning |
//! |------|---------|
//! | `E001` | P1: no loop-carried dependence cycle through the accumulator |
//! | `E002` | P2: loop-carried dependence outside the accumulator |
//! | `E003` | P3: impure/external statement inside the slice |
//! | `E004` | abrupt `break`/`continue`/`return` exit from the loop |
//! | `E005` | unresolvable cursor query or non-algebraic construct |
//! | `E006` | fold built, but no rule T1–T7 produced SQL |
//! | `E007` | certification counterexample: a rewrite changed semantics |
//! | `E008` | internal SQL-rendering invariant broke; rewrite dropped |
//! | `E009` | SQL-injection taint: a query string concatenated from program input |
//! | `E010` | DML loop not batchable: a loop-carried dependence blocks batching |
//!
//! `W0xx` codes are advisories — extraction may still succeed, or the
//! finding is informational:
//!
//! | code | meaning |
//! |------|---------|
//! | `W001` | a specific rule was close but not applicable (and why) |
//! | `W002` | dead statement (never observable after the function) |
//! | `W003` | impure helper function blocks purity-based reasoning |
//! | `W004` | loop has external side effects (foreach-dml may still batch it) |
//! | `W005` | a valid rewrite was declined (cost, safety, coupling) |
//! | `W006` | certification inconclusive: obligation not discharged |
//! | `W007` | extraction blame: why a cursor loop was not extracted |
//! | `W008` | loop-invariant query inside a loop (hoistable) |
//! | `W009` | N+1 pattern: per-row query keyed only by the cursor row |
//! | `W010` | DML loop batchable, but foreach-dml extraction failed |
//!
//! Codes are append-only: a published code never changes meaning, so JSON
//! consumers may match on `code` strings.

use std::fmt;

use imp::token::{line_col, Span};

use crate::json::escape as json_str;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: extraction can proceed (or the finding is informational).
    Warning,
    /// Hard failure: the subject loop/variable cannot be extracted.
    Error,
}

impl Severity {
    /// Lower-case name used by both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes. See the module docs for the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// P1 violated: the variable's update does not accumulate across
    /// iterations (no dependence cycle through it), or nothing updates it.
    NoAccumulation,
    /// P2 violated: a loop-carried flow dependence exists outside the
    /// accumulator's own update.
    ExtraLoopDependence,
    /// P3 violated: an external write (database update, output) sits inside
    /// the backward slice of the variable.
    ExternalWriteInSlice,
    /// The loop exits abruptly via `break`, `continue`, or `return`.
    AbruptLoopExit,
    /// The cursor query or a construct in the body is not algebraic
    /// (dynamic SQL, unknown table, unmodeled call, …).
    NonAlgebraic,
    /// A fold was built but no rule T1–T7 rewrote it into SQL.
    NoRuleApplies,
    /// A rule almost applied; the message says which precondition failed.
    RuleNotApplicable,
    /// Statement has no observable effect and would be removed.
    DeadStatement,
    /// A helper function is conservatively impure and blocks reasoning.
    ImpureHelper,
    /// The loop performs external writes/output and is kept as a loop.
    LoopSideEffects,
    /// A rewrite existed but was declined (costing, input safety,
    /// require-all-vars coupling).
    RewriteDeclined,
    /// Certification found a counterexample: the two sides of a rewrite
    /// obligation evaluate differently on some generated database.
    CertCounterexample,
    /// Certification could not discharge an obligation (normalization
    /// inconclusive and differential evaluation unavailable/undecidable).
    CertInconclusive,
    /// An internal SQL-rendering invariant broke (malformed operator arity,
    /// unparseable parameter tag). The rewrite is dropped; the original
    /// code is kept.
    RenderInvariant,
    /// Extraction blame: a cursor loop stayed imperative; the message names
    /// the violated precondition (P1–P4) or other concrete reason and the
    /// labels point at the offending statement chain.
    LoopNotExtracted,
    /// A query argument reaching `executeQuery`/`executeScalar`/
    /// `executeUpdate` is a string built (at least partly) from program
    /// inputs — an SQL-injection risk. Constant and parameterized query
    /// strings do not fire.
    SqlInjectionTaint,
    /// A query inside a loop whose arguments are all loop-invariant: it can
    /// be hoisted out of the loop and run once.
    HoistableQuery,
    /// A query inside a cursor loop keyed only by the cursor row — the
    /// classic N+1 pattern; a join (which extraction would have produced)
    /// fetches the same data in one round trip.
    NPlusOneQuery,
    /// A DML (write) loop carries a dependence between iterations — the
    /// message names the blocking flow/anti/output/control/effect
    /// dependence found by `analysis::depend` — so it cannot be batched
    /// into one set-oriented statement.
    DmlLoopNotBatchable,
    /// A DML loop is batchable (no loop-carried dependence), but the
    /// foreach-dml extraction failed to lower or failed certification;
    /// the message says why.
    DmlLoopNotExtracted,
}

impl Code {
    /// The stable wire string, e.g. `"E003"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::NoAccumulation => "E001",
            Code::ExtraLoopDependence => "E002",
            Code::ExternalWriteInSlice => "E003",
            Code::AbruptLoopExit => "E004",
            Code::NonAlgebraic => "E005",
            Code::NoRuleApplies => "E006",
            Code::RuleNotApplicable => "W001",
            Code::DeadStatement => "W002",
            Code::ImpureHelper => "W003",
            Code::LoopSideEffects => "W004",
            Code::RewriteDeclined => "W005",
            Code::CertCounterexample => "E007",
            Code::CertInconclusive => "W006",
            Code::RenderInvariant => "E008",
            Code::LoopNotExtracted => "W007",
            Code::SqlInjectionTaint => "E009",
            Code::HoistableQuery => "W008",
            Code::NPlusOneQuery => "W009",
            Code::DmlLoopNotBatchable => "E010",
            Code::DmlLoopNotExtracted => "W010",
        }
    }

    /// Every code, ordered by wire string (`E001…E010`, then `W001…W010`).
    /// The `/metrics` per-code counters iterate this, so the order is part
    /// of the rendered metrics layout.
    pub const ALL: [Code; 20] = [
        Code::NoAccumulation,
        Code::ExtraLoopDependence,
        Code::ExternalWriteInSlice,
        Code::AbruptLoopExit,
        Code::NonAlgebraic,
        Code::NoRuleApplies,
        Code::CertCounterexample,
        Code::RenderInvariant,
        Code::SqlInjectionTaint,
        Code::DmlLoopNotBatchable,
        Code::RuleNotApplicable,
        Code::DeadStatement,
        Code::ImpureHelper,
        Code::LoopSideEffects,
        Code::RewriteDeclined,
        Code::CertInconclusive,
        Code::LoopNotExtracted,
        Code::HoistableQuery,
        Code::NPlusOneQuery,
        Code::DmlLoopNotExtracted,
    ];

    /// Severity class of the code (`E…` = error, `W…` = warning).
    pub fn severity(self) -> Severity {
        if self.as_str().starts_with('E') {
            Severity::Error
        } else {
            Severity::Warning
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A source anchor: a span plus what it marks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    /// Byte range in the original source.
    pub span: Span,
    /// What this location contributes to the diagnostic.
    pub message: String,
}

impl Label {
    /// Build a label.
    pub fn new(span: Span, message: impl Into<String>) -> Self {
        Label {
            span,
            message: message.into(),
        }
    }
}

/// One finding: a coded message anchored at source locations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (drives severity).
    pub code: Code,
    /// Primary human-readable message.
    pub message: String,
    /// Main anchor (usually the offending statement or the loop header).
    pub primary: Label,
    /// Further anchors (e.g. the writer of a conflicting dependence).
    pub secondary: Vec<Label>,
    /// Free-form notes rendered after the excerpt.
    pub notes: Vec<String>,
    /// Enclosing function, when known.
    pub function: Option<String>,
    /// Variable the finding is about, when the analysis is per-variable.
    pub var: Option<String>,
    /// Name of the pass that emitted this (e.g. `"fir"`, `"deadcode"`).
    pub pass: &'static str,
}

impl Diagnostic {
    /// Build a diagnostic with a primary span and no label text.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            message: message.into(),
            primary: Label::new(span, ""),
            secondary: Vec::new(),
            notes: Vec::new(),
            function: None,
            var: None,
            pass: "",
        }
    }

    /// Severity, derived from the code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Set the primary label text.
    pub fn with_primary_label(mut self, message: impl Into<String>) -> Self {
        self.primary.message = message.into();
        self
    }

    /// Attach a secondary anchor.
    pub fn with_label(mut self, span: Span, message: impl Into<String>) -> Self {
        self.secondary.push(Label::new(span, message));
        self
    }

    /// Attach a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Record the subject variable.
    pub fn with_var(mut self, var: impl Into<String>) -> Self {
        self.var = Some(var.into());
        self
    }

    /// Record the enclosing function.
    pub fn with_function(mut self, function: impl Into<String>) -> Self {
        self.function = Some(function.into());
        self
    }

    /// Record the emitting pass.
    pub fn with_pass(mut self, pass: &'static str) -> Self {
        self.pass = pass;
        self
    }

    /// Rustc-style rendering with source excerpt and caret underline.
    ///
    /// `file` is the display name for the source (path or `"<input>"`).
    pub fn render_human(&self, src: &str, file: &str) -> String {
        let mut out = String::new();
        let sev = self.severity().as_str();
        out.push_str(&format!("{sev}[{}]: {}\n", self.code, self.message));
        let (line, col) = line_col(src, self.primary.span.start);
        out.push_str(&format!("  --> {file}:{line}:{col}\n"));
        let gutter = line_digits(src, self);
        render_excerpt(&mut out, src, &self.primary, '^', gutter);
        for l in &self.secondary {
            render_excerpt(&mut out, src, l, '-', gutter);
        }
        for n in &self.notes {
            out.push_str(&format!("{:w$} = note: {n}\n", "", w = gutter + 1));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity().as_str(),
            self.code,
            self.message
        )?;
        if let Some(v) = &self.var {
            write!(f, " (variable `{v}`)")?;
        }
        Ok(())
    }
}

/// Widest line-number gutter needed by any label of `d`.
fn line_digits(src: &str, d: &Diagnostic) -> usize {
    let mut max_line = line_col(src, d.primary.span.start).0;
    for l in &d.secondary {
        max_line = max_line.max(line_col(src, l.span.start).0);
    }
    max_line.to_string().len()
}

/// Append one `NN | source-line` excerpt with an underline to `out`.
fn render_excerpt(out: &mut String, src: &str, label: &Label, mark: char, gutter: usize) {
    if label.span.end == 0 || label.span.start >= src.len() {
        // Unknown span (synthesized statements): skip the excerpt.
        if !label.message.is_empty() {
            out.push_str(&format!("{:w$} = {}\n", "", label.message, w = gutter + 1));
        }
        return;
    }
    let (line_no, col) = line_col(src, label.span.start);
    let line_start = src[..label.span.start]
        .rfind('\n')
        .map(|i| i + 1)
        .unwrap_or(0);
    let line_end = src[line_start..]
        .find('\n')
        .map(|i| line_start + i)
        .unwrap_or(src.len());
    let line_text = &src[line_start..line_end];
    // Underline only the part of the span on its first line.
    let span_end_on_line = label.span.end.min(line_end);
    let underline_len = span_end_on_line.saturating_sub(label.span.start).max(1);
    out.push_str(&format!("{:w$} |\n", "", w = gutter));
    out.push_str(&format!("{line_no:w$} | {line_text}\n", w = gutter));
    out.push_str(&format!(
        "{:w$} | {:c$}{} {}\n",
        "",
        "",
        mark.to_string().repeat(underline_len),
        label.message,
        w = gutter,
        c = col - 1,
    ));
}

/// Sort diagnostics into a deterministic order (primary span, code, var,
/// message) and drop duplicates that agree on all four.
///
/// Duplicates arise naturally: the D-IR builder visits nested regions more
/// than once, so the same fold failure can be recorded per region.
pub fn dedup_sort(diags: &mut Vec<Diagnostic>) {
    let key = |d: &Diagnostic| {
        (
            d.primary.span.start,
            d.primary.span.end,
            d.code.as_str(),
            d.var.clone().unwrap_or_default(),
            d.message.clone(),
        )
    };
    diags.sort_by(|a, b| key(a).cmp(&key(b)));
    diags.dedup_by(|a, b| key(a) == key(b));
}

/// Render diagnostics as a stable JSON array.
///
/// Shape (append-only; consumers may rely on these fields):
///
/// ```json
/// [{"code":"E003","severity":"error","message":"…","function":"f",
///   "var":"total","pass":"fir",
///   "span":{"start":10,"end":31,"line":2,"col":5},
///   "labels":[{"start":…,"end":…,"line":…,"col":…,"message":"…"}],
///   "notes":["…"]}]
/// ```
pub fn render_json(diags: &[Diagnostic], src: &str) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"code\":\"{}\"", d.code));
        out.push_str(&format!(",\"severity\":\"{}\"", d.severity().as_str()));
        out.push_str(&format!(",\"message\":{}", json_str(&d.message)));
        match &d.function {
            Some(f) => out.push_str(&format!(",\"function\":{}", json_str(f))),
            None => out.push_str(",\"function\":null"),
        }
        match &d.var {
            Some(v) => out.push_str(&format!(",\"var\":{}", json_str(v))),
            None => out.push_str(",\"var\":null"),
        }
        out.push_str(&format!(",\"pass\":{}", json_str(d.pass)));
        out.push_str(",\"span\":");
        json_span(&mut out, src, d.primary.span);
        out.push_str(",\"labels\":[");
        for (j, l) in d.secondary.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('{');
            let inner = {
                let mut s = String::new();
                json_span_fields(&mut s, src, l.span);
                s
            };
            out.push_str(&inner);
            out.push_str(&format!(",\"message\":{}", json_str(&l.message)));
            out.push('}');
        }
        out.push(']');
        out.push_str(",\"notes\":[");
        for (j, n) in d.notes.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json_str(n));
        }
        out.push_str("]}");
    }
    out.push_str("\n]");
    out
}

fn json_span(out: &mut String, src: &str, span: Span) {
    out.push('{');
    json_span_fields(out, src, span);
    out.push('}');
}

fn json_span_fields(out: &mut String, src: &str, span: Span) {
    let (line, col) = line_col(src, span.start);
    out.push_str(&format!(
        "\"start\":{},\"end\":{},\"line\":{line},\"col\":{col}",
        span.start, span.end
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::NoAccumulation.as_str(), "E001");
        assert_eq!(Code::RewriteDeclined.as_str(), "W005");
        assert_eq!(Code::LoopNotExtracted.as_str(), "W007");
        assert_eq!(Code::SqlInjectionTaint.as_str(), "E009");
        assert_eq!(Code::HoistableQuery.as_str(), "W008");
        assert_eq!(Code::NPlusOneQuery.as_str(), "W009");
        assert_eq!(Code::ExternalWriteInSlice.severity(), Severity::Error);
        assert_eq!(Code::DeadStatement.severity(), Severity::Warning);
        assert_eq!(Code::SqlInjectionTaint.severity(), Severity::Error);
        assert_eq!(Code::LoopNotExtracted.severity(), Severity::Warning);
    }

    #[test]
    fn all_is_complete_sorted_and_unique() {
        let strs: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        let mut sorted = strs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(strs, sorted, "Code::ALL must be wire-string ordered");
        assert_eq!(strs.len(), 20, "update Code::ALL when adding a code");
    }

    #[test]
    fn human_rendering_underlines_the_span() {
        let src = "fn f() {\n    total = total + 1;\n}";
        let start = src.find("total").unwrap();
        let d = Diagnostic::new(
            Code::NoAccumulation,
            Span::new(start, start + "total = total + 1;".len()),
            "P1: no dependence cycle through the update of `total`",
        )
        .with_primary_label("value does not accumulate")
        .with_note("see paper Sec. 4, precondition P1");
        let r = d.render_human(src, "demo.imp");
        assert!(r.contains("error[E001]"), "{r}");
        assert!(r.contains("--> demo.imp:2:5"), "{r}");
        assert!(
            r.contains("^^^^^^^^^^^^^^^^^^ value does not accumulate"),
            "{r}"
        );
        assert!(r.contains("= note: see paper"), "{r}");
    }

    #[test]
    fn json_rendering_escapes_and_orders() {
        let src = "x = \"a\";";
        let d = Diagnostic::new(Code::NonAlgebraic, Span::new(0, 8), "contains \"quotes\"")
            .with_var("x")
            .with_pass("fir");
        let j = render_json(&[d], src);
        assert!(j.contains("\"code\":\"E005\""), "{j}");
        assert!(j.contains("\\\"quotes\\\""), "{j}");
        assert!(j.contains("\"var\":\"x\""), "{j}");
        assert!(j.starts_with('[') && j.ends_with(']'));
    }

    #[test]
    fn dedup_sort_is_deterministic() {
        let mk = |start, code: Code, msg: &str| {
            Diagnostic::new(code, Span::new(start, start + 2), msg).with_var("v")
        };
        let mut v = vec![
            mk(10, Code::AbruptLoopExit, "b"),
            mk(2, Code::NoAccumulation, "a"),
            mk(10, Code::AbruptLoopExit, "b"),
            mk(2, Code::ExtraLoopDependence, "a"),
        ];
        dedup_sort(&mut v);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].code, Code::NoAccumulation);
        assert_eq!(v[1].code, Code::ExtraLoopDependence);
        assert_eq!(v[2].code, Code::AbruptLoopExit);
    }

    #[test]
    fn unknown_spans_render_without_excerpt() {
        let d = Diagnostic::new(Code::NoRuleApplies, Span::default(), "no rule matched");
        let r = d.render_human("fn f() {}", "x.imp");
        assert!(r.contains("error[E006]"));
        assert!(!r.contains('^'), "{r}");
    }
}
