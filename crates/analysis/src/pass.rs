//! A small pass manager: named analyses that emit [`Diagnostic`]s uniformly.
//!
//! Each analysis in this crate can explain *why* extraction will or won't
//! work; the pass framework gives them a common shape so the lint driver
//! (and tests) can run any subset and aggregate findings. Passes are
//! read-only: they never mutate the program, and they traverse it with the
//! statement walker in `imp::ast` ([`imp::ast::Block::walk`] and its
//! siblings) rather than one of their own.
//!
//! The built-in passes wrap the existing analyses:
//!
//! * `"purity"` — calls to conservatively-impure helpers inside cursor
//!   loops ([`Code::ImpureHelper`]);
//! * `"deadcode"` — statements dead-code elimination would remove
//!   ([`Code::DeadStatement`]);
//! * `"liveness"` — loop-updated variables never read after the loop
//!   (the extractor skips them);
//! * `"ddg"` — loops with external writes, which are kept as loops even
//!   when their accumulators fold ([`Code::LoopSideEffects`]);
//! * `"taint"` — SQL strings built from program inputs reaching a database
//!   call ([`Code::SqlInjectionTaint`], see [`crate::taint`]);
//! * `"loopquery"` — hoistable and N+1 queries inside loops
//!   ([`Code::HoistableQuery`], [`Code::NPlusOneQuery`], see
//!   [`crate::loopquery`]).
//!
//! The lint driver in `eqsql-core` adds the extraction planner's own
//! diagnostics to these passes' findings.
//!
//! Every pass over one function reads one [`FnFacts`]: the function's
//! [`FnIndex`], which the caller builds, its [`Liveness`], computed once,
//! and the program's [`DefUseCtx`]. The lint driver lends the same facts
//! to the extraction planner. A pass whose findings need a further solve
//! first checks that the function has a statement the finding could name
//! (`"taint"` a SQL argument that reads a variable, `"loopquery"` a
//! database read inside a loop, `"deadcode"` a removable statement), and
//! skips the solve otherwise.

use std::collections::BTreeSet;

use imp::ast::{Expr, Function, Stmt, StmtKind};

use crate::dataflow::FnIndex;
use crate::ddg::Ddg;
use crate::deadcode;
use crate::defuse::DefUseCtx;
use crate::diag::{Code, Diagnostic};
use crate::liveness::Liveness;

/// One function's analysis facts, built once and shared by every pass and
/// by the extraction planner: the function's [`FnIndex`], which the caller
/// builds ([`Liveness`] borrows it, so the facts cannot own it), the
/// liveness computed over that index, and the program's def/use context
/// (its interprocedural effect summaries).
pub struct FnFacts<'a> {
    du_ctx: &'a DefUseCtx,
    index: &'a FnIndex<'a>,
    liveness: Liveness<'a>,
}

impl<'a> FnFacts<'a> {
    /// The facts of the function `index` numbers: computes its liveness.
    pub fn new(index: &'a FnIndex<'a>, du_ctx: &'a DefUseCtx) -> FnFacts<'a> {
        FnFacts {
            du_ctx,
            index,
            liveness: Liveness::compute(index),
        }
    }

    /// The function the facts describe.
    pub fn function(&self) -> &'a Function {
        self.index.function()
    }

    /// The program's def/use context.
    pub fn du_ctx(&self) -> &'a DefUseCtx {
        self.du_ctx
    }

    /// The function's dataflow index.
    pub fn index(&self) -> &'a FnIndex<'a> {
        self.index
    }

    /// Live variables over the index.
    pub fn liveness(&self) -> &Liveness<'a> {
        &self.liveness
    }
}

/// One function's shared facts and diagnostic sink under every pass.
pub struct PassContext<'a> {
    /// The function being analyzed (`facts.function()`).
    pub function: &'a Function,
    /// The function's facts.
    pub facts: &'a FnFacts<'a>,
    /// Findings accumulate here.
    diags: Vec<Diagnostic>,
    pass: &'static str,
}

impl PassContext<'_> {
    /// Record a finding; the current pass name and enclosing function are
    /// filled in when the diagnostic does not carry them already.
    pub fn emit(&mut self, d: Diagnostic) {
        let mut d = if d.pass.is_empty() {
            d.with_pass(self.pass)
        } else {
            d
        };
        if d.function.is_none() {
            d.function = Some(self.function.name.to_string());
        }
        self.diags.push(d);
    }
}

/// A named, read-only analysis that reports diagnostics.
pub trait Pass {
    /// Stable pass name (appears in JSON output).
    fn name(&self) -> &'static str;
    /// Analyze `cx.function` and `emit` findings.
    fn run(&self, cx: &mut PassContext<'_>);
}

/// Runs a sequence of passes over functions and aggregates their findings.
#[derive(Default)]
pub struct PassManager<'p> {
    passes: Vec<Box<dyn Pass + 'p>>,
}

impl<'p> PassManager<'p> {
    /// An empty manager.
    pub fn new() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// The standard advisory pipeline: purity, deadcode, liveness, ddg,
    /// taint, loopquery.
    pub fn standard() -> Self {
        let mut pm = PassManager::new();
        pm.register(Box::new(PurityPass));
        pm.register(Box::new(DeadCodePass));
        pm.register(Box::new(LivenessPass));
        pm.register(Box::new(LoopEffectsPass));
        pm.register(Box::new(crate::taint::TaintPass));
        pm.register(Box::new(crate::loopquery::LoopQueryPass));
        pm
    }

    /// Append a pass.
    pub fn register(&mut self, p: Box<dyn Pass + 'p>) {
        self.passes.push(p);
    }

    /// Run every pass, in registration order, over one function's facts.
    /// Findings come in pass order; the caller deduplicates and sorts them
    /// ([`crate::diag::dedup_sort`]) once, after adding any of its own.
    pub fn run(&self, facts: &FnFacts<'_>) -> Vec<Diagnostic> {
        let mut cx = PassContext {
            function: facts.function(),
            facts,
            diags: Vec::new(),
            pass: "",
        };
        for p in &self.passes {
            cx.pass = p.name();
            p.run(&mut cx);
        }
        cx.diags
    }
}

/// `"purity"`: calls to impure user helpers inside cursor loops.
///
/// A helper that touches the database or prints makes every expression that
/// calls it opaque to the fold conversion, so flag the call sites.
pub struct PurityPass;

impl Pass for PurityPass {
    fn name(&self) -> &'static str {
        "purity"
    }

    fn run(&self, cx: &mut PassContext<'_>) {
        let summaries = &cx.facts.du_ctx().summaries;
        let mut found: Vec<(imp::token::Span, String, crate::effects::EffectSummary)> = Vec::new();
        cx.function.body.walk(&mut |s, in_loop| {
            if !in_loop {
                return;
            }
            for e in s.kind.exprs() {
                e.walk(&mut |sub| {
                    if let Expr::Call { name, .. } = sub {
                        if let Some(sum) = summaries.get(name) {
                            if !sum.is_externally_pure() {
                                found.push((s.span, name.to_string(), *sum));
                            }
                        }
                    }
                });
            }
        });
        for (span, callee, sum) in found {
            cx.emit(
                Diagnostic::new(
                    Code::ImpureHelper,
                    span,
                    format!("call to impure helper `{callee}` inside a cursor loop"),
                )
                .with_primary_label(format!("`{callee}` has effects: {}", sum.effects))
                .with_note(
                    "helpers must be pure (no executeQuery/executeUpdate/print) to be \
                     inlined into a fold",
                ),
            );
        }
    }
}

/// `"deadcode"`: statements that dead-code elimination would remove.
pub struct DeadCodePass;

impl Pass for DeadCodePass {
    fn name(&self) -> &'static str {
        "deadcode"
    }

    fn run(&self, cx: &mut PassContext<'_>) {
        // The first round of elimination under the shared liveness; only
        // when it removes something is the transitive fixpoint run, on a
        // copy.
        let dead = deadcode::dead_writes(cx.facts.liveness());
        if !deadcode::removes_any(&cx.function.body, &dead) {
            return;
        }
        let mut clone = cx.function.clone();
        deadcode::eliminate_dead_code_from(&mut clone, dead);
        let mut before = Vec::new();
        cx.function
            .body
            .walk(&mut |s, _| before.push((s.id, s.span)));
        let mut after = BTreeSet::new();
        clone.body.walk(&mut |s, _| {
            after.insert(s.id);
        });
        for (id, span) in before {
            if !after.contains(&id) {
                cx.emit(
                    Diagnostic::new(
                        Code::DeadStatement,
                        span,
                        "statement has no observable effect",
                    )
                    .with_primary_label("this value is never used"),
                );
            }
        }
    }
}

/// `"liveness"`: variables updated by a loop but never read afterwards.
///
/// The extractor skips such variables (their fold has no consumer), so an
/// accumulation that looks extractable may silently be ignored — surface it.
/// Every `for` outside another loop's body is checked, under an `if` too:
/// those are the loops the extractor treats as candidates.
pub struct LivenessPass;

impl Pass for LivenessPass {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn run(&self, cx: &mut PassContext<'_>) {
        let live = cx.facts.liveness();
        let mut found: Vec<(imp::token::Span, String)> = Vec::new();
        cx.function.body.walk(&mut |s, in_loop| {
            let (StmtKind::ForEach { var, body, .. }, false) = (&s.kind, in_loop) else {
                return;
            };
            let mut updated = BTreeSet::new();
            body.walk(&mut |inner, _| {
                if let StmtKind::Assign { target, .. } = &inner.kind {
                    updated.insert(*target);
                }
            });
            updated.remove(var);
            for v in updated {
                if !live.is_live_after(s.id, v) {
                    found.push((s.span, v.to_string()));
                }
            }
        });
        for (span, v) in found {
            cx.emit(
                Diagnostic::new(
                    Code::DeadStatement,
                    span,
                    format!("variable `{v}` is updated by this loop but never read afterwards"),
                )
                .with_var(v)
                .with_primary_label("its accumulated value is unobservable")
                .with_note("the extractor only folds variables that are live after the loop"),
            );
        }
    }
}

/// `"ddg"`: loops whose body writes external state.
///
/// Scalar extraction never removes such a loop (the rewrite would drop
/// the effects); a loop whose only effect is a single `executeUpdate` may
/// still batch into one set-oriented statement via foreach-dml, which
/// reports its own `E010`/`W010` verdict — warn early either way.
pub struct LoopEffectsPass;

impl Pass for LoopEffectsPass {
    fn name(&self) -> &'static str {
        "ddg"
    }

    fn run(&self, cx: &mut PassContext<'_>) {
        let ctx = cx.facts.du_ctx();
        let mut found: Vec<(imp::token::Span, Vec<imp::token::Span>)> = Vec::new();
        let mut visit = |s: &Stmt, _in_loop: bool| {
            if let StmtKind::ForEach { var, body, .. } = &s.kind {
                let ddg = Ddg::build_with(body, var, ctx);
                let spans = ddg
                    .atoms
                    .iter()
                    .filter(|a| a.ext_write)
                    .filter_map(|a| body.find(a.id).map(|s| s.span))
                    .collect::<Vec<_>>();
                if spans.is_empty() {
                    return;
                }
                found.push((s.span, spans));
            }
        };
        cx.function.body.walk(&mut visit);
        for (loop_span, writer_spans) in found {
            let mut d = Diagnostic::new(
                Code::LoopSideEffects,
                loop_span,
                "loop performs database updates or output",
            )
            .with_primary_label("body has external side effects");
            for ws in writer_spans {
                d = d.with_label(ws, "external write happens here");
            }
            cx.emit(d.with_note(
                "extracted SQL can replace reads, not effects; a write loop may \
                 still batch via foreach-dml (E010/W010), otherwise only query \
                 hoisting applies",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use imp::ast::Program;

    fn program(src: &str) -> Program {
        imp::parse_and_normalize(src).unwrap()
    }

    fn lint(p: &Program) -> Vec<Diagnostic> {
        let du_ctx = DefUseCtx::of_program(p);
        let pm = PassManager::standard();
        let mut out = Vec::new();
        for f in &p.functions {
            let ix = FnIndex::build(f);
            out.extend(pm.run(&FnFacts::new(&ix, &du_ctx)));
        }
        out
    }

    #[test]
    fn purity_pass_flags_impure_helper_calls_in_loops() {
        let p = program(
            r#"
            fn log(x) { print(x); return x; }
            fn f() {
                rows = executeQuery("SELECT * FROM emp");
                s = 0;
                for (e in rows) { s = s + log(e.salary); }
                return s;
            }
            "#,
        );
        let diags = lint(&p);
        let hit = diags
            .iter()
            .find(|d| d.code == Code::ImpureHelper)
            .expect("W003 expected");
        assert_eq!(hit.pass, "purity");
        assert!(hit.message.contains("log"), "{}", hit.message);
        assert!(hit.primary.span.end > hit.primary.span.start);
    }

    #[test]
    fn deadcode_pass_reports_unused_assignment() {
        let p = program("fn f() { x = 1; y = 2; return y; }");
        let diags = lint(&p);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::DeadStatement && d.pass == "deadcode"),
            "{diags:?}"
        );
    }

    #[test]
    fn deadcode_pass_reports_what_elimination_removes_transitively() {
        // In the first, `b` is the only dead write at first and `a` dies
        // once `b` goes. The second has no dead write at all, yet the sweep
        // removes the empty loop, and then its query result is dead.
        for (src, want) in [
            (
                "fn f() { a = 1; b = a + 1; return 0; }",
                &["a = 1;", "b = a + 1;"][..],
            ),
            (
                r#"fn f() { rows = executeQuery("SELECT * FROM emp"); for (e in rows) { } return 0; }"#,
                &["rows = executeQuery", "for (e in rows)"][..],
            ),
        ] {
            let dead: Vec<&str> = lint(&program(src))
                .iter()
                .filter(|d| d.pass == "deadcode")
                .map(|d| &src[d.primary.span.start..d.primary.span.end])
                .collect();
            for stmt in want {
                assert!(dead.iter().any(|d| d.starts_with(stmt)), "{stmt}: {dead:?}");
            }
        }
    }

    #[test]
    fn liveness_pass_reports_dead_loop_accumulator() {
        let p = program(
            r#"
            fn f() {
                rows = executeQuery("SELECT * FROM emp");
                s = 0;
                n = 0;
                for (e in rows) { s = s + e.salary; n = n + 1; }
                return n;
            }
            "#,
        );
        let diags = lint(&p);
        let hit = diags
            .iter()
            .find(|d| d.pass == "liveness" && d.var.as_deref() == Some("s"))
            .expect("liveness advisory for s");
        assert_eq!(hit.severity(), Severity::Warning);
    }

    #[test]
    fn ddg_pass_flags_external_writes_with_secondary_label() {
        let p = program(
            r#"
            fn f() {
                rows = executeQuery("SELECT * FROM emp");
                for (e in rows) {
                    executeUpdate("UPDATE emp SET salary = 0");
                }
                return 0;
            }
            "#,
        );
        let diags = lint(&p);
        let hit = diags
            .iter()
            .find(|d| d.code == Code::LoopSideEffects)
            .expect("W004");
        assert_eq!(hit.pass, "ddg");
        assert_eq!(hit.secondary.len(), 1);
    }

    #[test]
    fn passes_are_read_only_and_deterministic() {
        let src = r#"
            fn f() {
                rows = executeQuery("SELECT * FROM emp");
                s = 0;
                dead = 1;
                for (e in rows) { s = s + e.salary; }
                return s;
            }
            "#;
        let p = program(src);
        let before = p.clone();
        let a = lint(&p);
        let b = lint(&p);
        assert_eq!(p, before, "passes must not mutate the program");
        assert_eq!(a, b, "pass output must be deterministic");
    }
}
