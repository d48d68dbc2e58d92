//! F-IR: converting cursor loops to `fold` (paper Sec. 4, Fig. 6).
//!
//! For every variable `v` updated in a cursor loop, `loopToFold` checks the
//! preconditions on the slice-restricted data-dependence graph:
//!
//! * **P1** — "there should be a cycle of dependencies containing `Sacc`
//!   and a loop carried flow dependence edge (E)";
//! * **P2** — "there should be no other lcfd edge apart from E and the lcfd
//!   edge due to update of the loop cursor variable";
//! * **P3** — "there should be no external dependencies".
//!
//! When they hold, `v`'s body expression `e_acc` (from the loop body's
//! ve-Map) becomes the folding function `e'_acc` by replacing the reference
//! to `v`'s value at iteration start with ⟨v⟩ ([`Node::AccParam`]) and
//! references to the cursor tuple with ⟨t⟩ ([`Node::TupleParam`]);
//! the result is `fold[e'_acc, v₀, Q]` (Theorem 1 / Appendix A).
//!
//! Our P1/P2 are a mild, soundness-preserving generalization: *E* may be a
//! set of lcfd edges, as long as every one is on `v` itself with its writer
//! in `Sacc` — this accepts bodies where `v` is updated by several guarded
//! statements, whose D-IR already merges into one conditional expression
//! per iteration (so `v_{k+1}` still depends only on `v_k` and `t_{k+1}`).
//!
//! Failures are reported as typed [`Diagnostic`]s (codes `E001`–`E005`)
//! anchored at the statements responsible, not as bare strings.

// A Diagnostic (spans, labels, notes) is bigger than clippy's Err-size
// threshold; these paths run once per failed loop, so indirection buys
// nothing.
#![allow(clippy::result_large_err)]

use std::collections::BTreeSet;
use std::ops::ControlFlow;

use intern::Symbol;

use analysis::ddg::{Ddg, DepKind};
use analysis::defuse::DefUseCtx;
use analysis::diag::{Code, Diagnostic};
use analysis::slice::slice_for_var;
use imp::ast::{Block, StmtId, StmtKind};
use imp::token::Span;

use crate::certify::Obligation;
use crate::eedag::{EeDag, Node, NodeId, VeMap};

/// One per-variable conversion attempt.
#[derive(Debug)]
pub struct FoldAttempt {
    /// The accumulated variable.
    pub var: Symbol,
    /// The fold node, or the diagnostic explaining why conversion failed.
    pub node: Result<NodeId, Diagnostic>,
    /// The fold-introduction proof obligation, when conversion succeeded:
    /// the loop-body expression and the fold claimed equivalent to it.
    pub obligation: Option<Obligation>,
}

/// Options for F-IR conversion.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirOptions {
    /// Enable the Appendix B dependent-aggregation (argmax/argmin)
    /// relaxation of P2. Off by default: the paper's prototype did not
    /// implement it (Table 1 rows 22 et al. report "–").
    pub dependent_agg: bool,
}

/// Attempt `loopToFold` for every variable updated in the loop body.
///
/// `loop_span` anchors diagnostics that have no better statement to point
/// at (typically the loop header).
#[allow(clippy::too_many_arguments)]
pub fn loop_to_fold(
    dag: &mut EeDag,
    body_ve: &VeMap,
    body: &Block,
    cursor: Symbol,
    source: NodeId,
    loop_stmt: StmtId,
    loop_span: Span,
    ctx: &DefUseCtx,
    opts: FirOptions,
) -> Vec<FoldAttempt> {
    let mut out = Vec::new();
    if let Some((kind, span)) = abrupt_exit(body) {
        // Sec. 2: "we assume that loops do not contain unconditional exit
        // statements like break".
        let diag = Diagnostic::new(Code::AbruptLoopExit, span, format!("loop contains {kind}"))
            .with_primary_label("the loop exits abruptly here")
            .with_label(loop_span, "while converting this loop")
            .with_note("loops must run to completion to become folds (paper Sec. 2)")
            .with_pass("fir");
        for var in body_ve.keys() {
            if *var != cursor {
                out.push(FoldAttempt {
                    var: *var,
                    node: Err(diag.clone().with_var(var.as_str())),
                    obligation: None,
                });
            }
        }
        return out;
    }
    let ddg = Ddg::build_with(body, cursor, &BTreeSet::new(), ctx);
    let updated: Vec<Symbol> = body_ve.keys().filter(|v| **v != cursor).copied().collect();
    for var in &updated {
        let cx = ConvertCx {
            body,
            loop_span,
            cursor,
            source,
            loop_stmt,
            ctx,
        };
        let node = convert_var(dag, body_ve, &ddg, &cx, *var, &updated).or_else(|err| {
            if opts.dependent_agg
                && matches!(err.code, Code::NoAccumulation | Code::ExtraLoopDependence)
            {
                try_dependent_agg(dag, body_ve, &ddg, cursor, source, loop_stmt, *var).ok_or(err)
            } else {
                Err(err)
            }
        });
        let obligation = node
            .as_ref()
            .ok()
            .map(|n| Obligation::fold_intro(body_ve[var], *n, (loop_stmt, *var)));
        out.push(FoldAttempt {
            var: *var,
            node,
            obligation,
        });
    }
    out
}

/// Shared location context for per-variable conversion diagnostics.
struct ConvertCx<'a> {
    body: &'a Block,
    loop_span: Span,
    cursor: Symbol,
    source: NodeId,
    loop_stmt: StmtId,
    ctx: &'a DefUseCtx,
}

impl ConvertCx<'_> {
    /// Span of a body statement, falling back to the loop header.
    fn span_of(&self, id: StmtId) -> Span {
        self.body.find(id).map_or(self.loop_span, |s| s.span)
    }

    /// Span of the first (lowest-id) statement in `ids`.
    fn first_span(&self, ids: &BTreeSet<StmtId>) -> Span {
        ids.iter()
            .next()
            .map(|id| self.span_of(*id))
            .unwrap_or(self.loop_span)
    }
}

/// The Appendix B dependent-aggregation relaxation: variable `w` is updated
/// under the same comparison that drives a min/max accumulator `v`:
///
/// ```text
/// if (e(t) > v) { v = e(t); w = g(t); }
/// ```
///
/// The pair `(v, w)` folds jointly; `w`'s value is the argmax of `g` by `e`
/// over the rows strictly beating `v₀`. Only strict comparisons are
/// accepted (the first extremal row wins, which a stable sort preserves).
fn try_dependent_agg(
    dag: &mut EeDag,
    body_ve: &VeMap,
    ddg: &Ddg,
    cursor: Symbol,
    source: NodeId,
    loop_stmt: StmtId,
    w: Symbol,
) -> Option<NodeId> {
    // w's per-iteration value: ?[cond, g(t), w₀].
    let w_expr = *body_ve.get(&w)?;
    let Node::Cond {
        cond,
        then_val: g,
        else_val,
    } = dag.node(w_expr).clone()
    else {
        return None;
    };
    if !matches!(dag.node(else_val), Node::Input(n) if *n == w) {
        return None;
    }
    // The condition must be a strict comparison of a tuple expression
    // against another updated variable v's running value.
    let Node::Op { op, args } = dag.node(cond).clone() else {
        return None;
    };
    if args.len() != 2 {
        return None;
    }
    let (is_max, key, v) = match op {
        crate::eedag::OpKind::Gt => (true, args[0], args[1]),
        crate::eedag::OpKind::Lt => (false, args[0], args[1]),
        _ => return None,
    };
    let Node::Input(v_name) = dag.node(v).clone() else {
        return None;
    };
    if v_name == w {
        return None;
    }
    // v must itself be the driven accumulator: ?[same cond, key, v₀].
    let v_expr = *body_ve.get(&v_name)?;
    let Node::Cond {
        cond: vc,
        then_val: vt,
        else_val: ve,
    } = dag.node(v_expr).clone()
    else {
        return None;
    };
    if vc != cond || vt != key || !matches!(dag.node(ve), Node::Input(n) if *n == v_name) {
        return None;
    }
    // Only the (v, w) pair may carry dependences in w's slice.
    let slice = slice_for_var(ddg, w);
    if ddg.external_write_within(&slice) {
        return None;
    }
    for e in ddg.lcfd_within(&slice) {
        if e.var != w && e.var != v_name && e.var != cursor {
            return None;
        }
    }
    // key/g over the tuple parameter; they must not read v or w themselves.
    let mut subs = VeMap::new();
    let tup = dag.intern(Node::TupleParam(cursor));
    subs.insert(cursor, tup);
    let key_t = dag.substitute_inputs(key, &subs);
    let g_t = dag.substitute_inputs(g, &subs);
    for n in [key_t, g_t] {
        if dag.is_poisoned(n) {
            return None;
        }
        let inputs = dag.inputs_of(n);
        if inputs.iter().any(|i| *i == v_name || *i == w) {
            return None;
        }
    }
    let v_init = dag.input(v_name);
    let w_init = dag.input(w);
    Some(dag.intern(Node::ArgExtreme {
        source,
        is_max,
        key: key_t,
        value: g_t,
        v_init,
        w_init,
        cursor,
        origin: (loop_stmt, w),
    }))
}

fn convert_var(
    dag: &mut EeDag,
    body_ve: &VeMap,
    ddg: &Ddg,
    cx: &ConvertCx<'_>,
    var: Symbol,
    all_updated: &[Symbol],
) -> Result<NodeId, Diagnostic> {
    let fail = |code: Code, span: Span, msg: String| {
        Err(Diagnostic::new(code, span, msg)
            .with_var(var.as_str())
            .with_pass("fir"))
    };
    let expr = *body_ve.get(&var).expect("var must be in body ve-Map");
    let slice = slice_for_var(ddg, var);
    if slice.is_empty() {
        return fail(
            Code::NoAccumulation,
            cx.loop_span,
            format!("no statements update {var}"),
        );
    }
    let sacc = ddg.writers_of(var);

    // P3 — no external dependencies in the slice.
    if ddg.external_write_within(&slice) {
        let writers = ddg.external_writers_within(&slice);
        let span = writers
            .first()
            .map(|id| cx.span_of(*id))
            .unwrap_or(cx.loop_span);
        let mut d = Diagnostic::new(
            Code::ExternalWriteInSlice,
            span,
            format!("P3: external write within slice for {var}"),
        )
        .with_primary_label("this statement writes external state")
        .with_var(var.as_str())
        .with_pass("fir")
        .with_note("precondition P3: the variable's slice must be free of external effects");
        // Name the offending effect (interprocedural effect summaries): a
        // rejection should say *what* writes, not just where.
        if let Some(why) = writers
            .first()
            .and_then(|id| cx.body.find(*id))
            .and_then(|s| analysis::effects::describe_external_write(s, &cx.ctx.summaries))
        {
            d = d.with_note(format!("the statement {why}"));
        }
        for w in writers.iter().skip(1) {
            d = d.with_label(cx.span_of(*w), "external write also here");
        }
        return Err(d);
    }

    // P1/P2 — loop-carried dependence structure.
    let lcfd = ddg.lcfd_within(&slice);
    let has_cycle_on_var = lcfd
        .iter()
        .any(|e| e.var == var && sacc.contains(&e.writer));
    if !has_cycle_on_var {
        let mut d = Diagnostic::new(
            Code::NoAccumulation,
            cx.first_span(&sacc),
            format!(
                "P1: no dependence cycle through the update of {var} \
                 (value does not accumulate across iterations)"
            ),
        )
        .with_primary_label(format!("{var} is overwritten, not accumulated"))
        .with_var(var.as_str())
        .with_pass("fir")
        .with_note("precondition P1: the update must read the previous iteration's value");
        // Every update site of the variable is a cycle endpoint the missing
        // lcfd edge would have to connect.
        for w in sacc.iter().skip(1) {
            d = d.with_label(cx.span_of(*w), format!("{var} is also updated here"));
        }
        return Err(d);
    }
    for e in &lcfd {
        let allowed = (e.var == var && sacc.contains(&e.writer)) || e.var == cx.cursor;
        if !allowed {
            return Err(Diagnostic::new(
                Code::ExtraLoopDependence,
                cx.span_of(e.writer),
                format!(
                    "P2: extra loop-carried dependence on {} ({} → {})",
                    e.var, e.writer, e.reader
                ),
            )
            .with_primary_label(format!("{} is written here on one iteration …", e.var))
            .with_label(cx.span_of(e.reader), "… and read here on the next")
            .with_var(var.as_str())
            .with_pass("fir")
            .with_note(
                "precondition P2: only the accumulator itself (and the cursor) may \
                 carry values across iterations",
            ));
        }
    }

    if dag.is_poisoned(expr) {
        let mut d = fail(
            Code::NonAlgebraic,
            cx.span_of(cx.loop_stmt).merge(cx.loop_span),
            format!("body expression for {var} is not algebraic"),
        )
        .unwrap_err();
        if let Some(reason) = first_opaque_reason(dag, expr) {
            d = d.with_note(format!("opaque sub-expression: {reason}"));
        }
        return Err(d);
    }

    // Build e'_acc: ⟨v⟩ for the iteration-start value of var, ⟨t⟩ for the
    // cursor tuple.
    let mut subs = VeMap::new();
    let acc = dag.intern(Node::AccParam(var));
    let tup = dag.intern(Node::TupleParam(cx.cursor));
    subs.insert(var, acc);
    subs.insert(cx.cursor, tup);
    let func = dag.substitute_inputs(expr, &subs);

    // Safety net: the folding function must not read any *other*
    // loop-updated variable's iteration-start value (P2 should have caught
    // this; an Input surviving here would silently capture a stale value).
    let func_inputs = dag.inputs_of(func);
    for w in all_updated {
        if *w != var && func_inputs.contains(w) {
            let w_writers = ddg.writers_of(*w);
            return Err(Diagnostic::new(
                Code::ExtraLoopDependence,
                cx.first_span(&sacc),
                format!("folding function for {var} reads loop variable {w}"),
            )
            .with_primary_label(format!(
                "the update of {var} here reads {w}'s iteration-start value"
            ))
            .with_label(
                cx.first_span(&w_writers),
                format!("{w} is itself updated by the loop here"),
            )
            .with_var(var.as_str())
            .with_pass("fir")
            .with_note(
                "precondition P2: only the accumulator itself (and the cursor) may \
                 carry values across iterations",
            ));
        }
    }
    if dag.any(func, |n| matches!(n, Node::NotDetermined)) {
        return fail(
            Code::NonAlgebraic,
            cx.first_span(&sacc),
            format!("folding function for {var} depends on an unconverted loop"),
        );
    }

    let init = dag.input(var);
    Ok(dag.intern(Node::Fold {
        func,
        init,
        source: cx.source,
        cursor: cx.cursor,
        origin: (cx.loop_stmt, var),
    }))
}

/// The reason string of the first `Opaque` node under `id`, if any.
fn first_opaque_reason(dag: &EeDag, id: NodeId) -> Option<String> {
    dag.walk(id, |_, n| match n {
        Node::Opaque { reason, .. } => ControlFlow::Break(reason.clone()),
        _ => ControlFlow::Continue(()),
    })
    .break_value()
}

/// Detect `break`/`continue`/`return` anywhere in a loop body; returns the
/// exit kind and the offending statement's span.
fn abrupt_exit(b: &Block) -> Option<(&'static str, Span)> {
    for s in &b.stmts {
        match &s.kind {
            StmtKind::Break => return Some(("break", s.span)),
            StmtKind::Continue => return Some(("continue", s.span)),
            StmtKind::Return(_) => return Some(("return", s.span)),
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                if let Some(r) = abrupt_exit(then_branch) {
                    return Some(r);
                }
                if let Some(r) = abrupt_exit(else_branch) {
                    return Some(r);
                }
            }
            // A nested loop's own break exits only the inner loop; inner
            // conversion already handled it. Do not recurse.
            StmtKind::ForEach { .. } | StmtKind::While { .. } => {}
            _ => {}
        }
    }
    None
}

/// The lcfd/flow edge summary of a loop body, exposed for the ablation
/// benchmarks (slice-restricted vs whole-body precondition checking).
pub fn whole_body_lcfd_count(ddg: &Ddg) -> usize {
    ddg.edges.iter().filter(|e| e.kind == DepKind::Lcfd).count()
}

// ===========================================================================
// foreach-dml: the F-IR form of a batchable write loop (DESIGN.md §5i).
//
// A cursor loop whose body performs one guarded DML statement per row, and
// which `analysis::depend` certified `Batchable`, becomes a `ForeachDml`
// value: the driving scan plus a relational description of the per-row
// write, with every per-iteration expression translated to an
// `algebra::Scalar` over the cursor alias. `rules::fold_dml` may then
// simplify it, and `sqlgen::dml_to_sql` lowers it to one set-oriented DML
// statement.
// ===========================================================================

use algebra::scalar::{BinOp, ColRef, Lit, Scalar, ScalarFunc, UnOp};
use analysis::depend::{DmlSite, DmlTemplate};
use imp::ast::{BinaryOp, Expr, Literal, UnaryOp};

/// The driving scan of a write loop: the cursor's source table, the alias
/// row expressions are phrased over, the residual predicate (driving
/// `WHERE` plus loop guards), and the `imp` expressions bound to `?`
/// parameter ordinals appearing anywhere in the form.
#[derive(Debug, Clone, PartialEq)]
pub struct DmlSource {
    /// Base table the cursor iterates.
    pub table: String,
    /// Alias qualifying cursor-field column references.
    pub alias: String,
    /// Selection predicate (driving query `WHERE` ∧ guards), if any.
    pub pred: Option<Scalar>,
    /// Program expressions bound to `Scalar::Param(i)` ordinals.
    pub params: Vec<Expr>,
    /// Single-column unique key of the driving table.
    pub key: String,
}

/// F-IR of a batchable foreach-dml loop.
#[derive(Debug, Clone, PartialEq)]
pub enum ForeachDml {
    /// Per-row `UPDATE target SET … WHERE key_col = cursor.key`.
    Update {
        /// Table written.
        target: String,
        /// Target column the per-row `WHERE` matches against the cursor key.
        key_col: String,
        /// `SET` items as scalars over the cursor alias.
        sets: Vec<(String, Scalar)>,
        /// Driving scan.
        source: DmlSource,
    },
    /// Per-row `INSERT INTO target [(columns)] VALUES (…)`.
    Insert {
        /// Table written.
        target: String,
        /// Explicit column list; empty means positional.
        columns: Vec<String>,
        /// Inserted values as scalars over the cursor alias.
        values: Vec<Scalar>,
        /// Driving scan.
        source: DmlSource,
    },
    /// Per-row `DELETE FROM target WHERE key_col = cursor.field`.
    Delete {
        /// Table written.
        target: String,
        /// Target column matched per row.
        key_col: String,
        /// Cursor field producing the key (a `Scalar::Col` over the alias).
        key: Scalar,
        /// Driving scan.
        source: DmlSource,
    },
    /// `DELETE FROM target WHERE pred` — the predicate-folded form
    /// produced by `rules::fold_dml` when the loop deletes its own driving
    /// rows by their unique key (the scan and subquery collapse away).
    DeleteFold {
        /// Table written (= the driving table).
        target: String,
        /// Driving scan; only `pred`/`params` remain meaningful.
        source: DmlSource,
    },
}

impl ForeachDml {
    /// The written table.
    pub fn target(&self) -> &str {
        match self {
            ForeachDml::Update { target, .. }
            | ForeachDml::Insert { target, .. }
            | ForeachDml::Delete { target, .. }
            | ForeachDml::DeleteFold { target, .. } => target,
        }
    }

    /// The driving scan.
    pub fn source(&self) -> &DmlSource {
        match self {
            ForeachDml::Update { source, .. }
            | ForeachDml::Insert { source, .. }
            | ForeachDml::Delete { source, .. }
            | ForeachDml::DeleteFold { source, .. } => source,
        }
    }
}

impl std::fmt::Display for ForeachDml {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let src = self.source();
        let pred = src
            .pred
            .as_ref()
            .map(|p| format!(" | {p:?}"))
            .unwrap_or_default();
        match self {
            ForeachDml::Update {
                target,
                key_col,
                sets,
                ..
            } => {
                let items: Vec<String> = sets.iter().map(|(c, v)| format!("{c} ≔ {v:?}")).collect();
                write!(
                    f,
                    "foreach-dml[{} as {}{pred}] update {target}⟨{key_col}⟩ {{{}}}",
                    src.table,
                    src.alias,
                    items.join(", ")
                )
            }
            ForeachDml::Insert {
                target,
                columns,
                values,
                ..
            } => {
                let vals: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
                write!(
                    f,
                    "foreach-dml[{} as {}{pred}] insert {target}({}) ⟨{}⟩",
                    src.table,
                    src.alias,
                    columns.join(", "),
                    vals.join(", ")
                )
            }
            ForeachDml::Delete {
                target,
                key_col,
                key,
                ..
            } => write!(
                f,
                "foreach-dml[{} as {}{pred}] delete {target}⟨{key_col} = {key:?}⟩",
                src.table, src.alias
            ),
            ForeachDml::DeleteFold { target, .. } => {
                write!(f, "delete-fold {target}{pred}")
            }
        }
    }
}

/// Translate an `imp` expression from a write-loop body into a scalar over
/// the cursor alias. Cursor fields become qualified column references;
/// loop-invariant subexpressions rooted at variables become `?` parameters
/// (deduplicated structurally); pure builtins map to their SQL functions.
/// Errors carry the reason the loop must stay imperative (`W010`).
pub fn expr_to_scalar(
    e: &Expr,
    cursor: intern::Symbol,
    alias: &str,
    params: &mut Vec<Expr>,
) -> Result<Scalar, String> {
    let mut param = |e: &Expr| -> Scalar {
        if let Some(i) = params.iter().position(|p| p == e) {
            Scalar::Param(i)
        } else {
            params.push(e.clone());
            Scalar::Param(params.len() - 1)
        }
    };
    match e {
        Expr::Lit(l) => Ok(Scalar::Lit(match l {
            Literal::Null => Lit::Null,
            Literal::Bool(b) => Lit::Bool(*b),
            Literal::Int(i) => Lit::Int(*i),
            Literal::Float(v) => Lit::float(*v),
            Literal::Str(s) => Lit::Str(s.clone()),
        })),
        Expr::Var(v) if *v == cursor => Err(format!(
            "the whole cursor row `{v}` is used as a value, not a field of it"
        )),
        Expr::Var(_) => Ok(param(e)),
        Expr::Field(base, field) => match base.as_ref() {
            Expr::Var(v) if *v == cursor => Ok(Scalar::Col(ColRef {
                qualifier: Some(alias.to_string()),
                column: field.as_str().to_lowercase(),
            })),
            _ => Err(format!(
                "field access `{}` is not on the loop cursor",
                imp::pretty::pretty_expr(e)
            )),
        },
        Expr::Unary(op, x) => {
            let sx = expr_to_scalar(x, cursor, alias, params)?;
            Ok(Scalar::Un(
                match op {
                    UnaryOp::Neg => UnOp::Neg,
                    UnaryOp::Not => UnOp::Not,
                },
                Box::new(sx),
            ))
        }
        Expr::Binary(op, l, r) => {
            let sl = expr_to_scalar(l, cursor, alias, params)?;
            let sr = expr_to_scalar(r, cursor, alias, params)?;
            let bop = match op {
                BinaryOp::Add => BinOp::Add,
                BinaryOp::Sub => BinOp::Sub,
                BinaryOp::Mul => BinOp::Mul,
                BinaryOp::Div => BinOp::Div,
                BinaryOp::Mod => BinOp::Mod,
                BinaryOp::Eq => BinOp::Eq,
                BinaryOp::Ne => BinOp::Ne,
                BinaryOp::Lt => BinOp::Lt,
                BinaryOp::Le => BinOp::Le,
                BinaryOp::Gt => BinOp::Gt,
                BinaryOp::Ge => BinOp::Ge,
                BinaryOp::And => BinOp::And,
                BinaryOp::Or => BinOp::Or,
            };
            Ok(Scalar::Bin(bop, Box::new(sl), Box::new(sr)))
        }
        Expr::Ternary(c, t, o) => {
            let sc = expr_to_scalar(c, cursor, alias, params)?;
            let st = expr_to_scalar(t, cursor, alias, params)?;
            let so = expr_to_scalar(o, cursor, alias, params)?;
            Ok(Scalar::Case {
                arms: vec![(sc, st)],
                otherwise: Box::new(so),
            })
        }
        Expr::Call { name, args } => {
            let func = match name.as_str() {
                "max" => ScalarFunc::Greatest,
                "min" => ScalarFunc::Least,
                "abs" => ScalarFunc::Abs,
                "concat" => ScalarFunc::Concat,
                "lower" => ScalarFunc::Lower,
                "upper" => ScalarFunc::Upper,
                "length" => ScalarFunc::Length,
                "coalesce" => ScalarFunc::Coalesce,
                other => {
                    return Err(format!("call to `{other}` has no scalar SQL translation"));
                }
            };
            let mut xs = Vec::with_capacity(args.len());
            for a in args {
                xs.push(expr_to_scalar(a, cursor, alias, params)?);
            }
            Ok(Scalar::Func(func, xs))
        }
        Expr::MethodCall { .. } => Err(format!(
            "method call `{}` has no scalar SQL translation",
            imp::pretty::pretty_expr(e)
        )),
    }
}

/// Convert a certified-batchable DML site into the F-IR `ForeachDml` form.
///
/// `source` carries the driving scan (with any `?` ordinals of the driving
/// predicate already occupying the front of `source.params`); the site's
/// argument expressions and guards are translated onto the same parameter
/// list. Errors name the construct that resists translation — the caller
/// reports them as `W010` (batchable but not extracted).
pub fn loop_to_dml(
    site: &DmlSite,
    cursor: intern::Symbol,
    mut source: DmlSource,
) -> Result<ForeachDml, String> {
    let alias = source.alias.clone();
    // A template value is either a SQL literal or `?i` resolved through
    // the call's argument expressions.
    let resolve = |v: &Scalar, params: &mut Vec<Expr>| -> Result<Scalar, String> {
        match v {
            Scalar::Param(i) => {
                let arg = site
                    .args
                    .get(*i)
                    .ok_or_else(|| format!("DML statement references missing argument ?{i}"))?;
                expr_to_scalar(arg, cursor, &alias, params)
            }
            lit => Ok(lit.clone()),
        }
    };
    // Guards become conjuncts of the driving predicate. A guard reached
    // through an `else` branch executes exactly when the condition is
    // *not taken* — false OR NULL under the interpreter's "NULL is not
    // taken" rule — so plain three-valued `NOT g` (which drops NULL rows)
    // would miscompile it; `NOT COALESCE(g, FALSE)` matches exactly.
    for (cond, taken) in &site.guards {
        let g = expr_to_scalar(cond, cursor, &alias, &mut source.params)
            .map_err(|e| format!("loop guard is not translatable: {e}"))?;
        let g = if *taken {
            g
        } else {
            Scalar::Un(
                UnOp::Not,
                Box::new(Scalar::Func(
                    ScalarFunc::Coalesce,
                    vec![g, Scalar::Lit(Lit::Bool(false))],
                )),
            )
        };
        source.pred = Some(match source.pred.take() {
            Some(p) => Scalar::Bin(BinOp::And, Box::new(p), Box::new(g)),
            None => g,
        });
    }
    match &site.template {
        DmlTemplate::Update {
            table,
            sets,
            where_eq,
        } => {
            let Some((key_col, key_val)) = where_eq else {
                return Err("`UPDATE` has no per-row key predicate".to_string());
            };
            // depend certified the key as `cursor.<driving key>`; re-derive
            // the column reference to keep this function self-contained.
            match resolve(key_val, &mut source.params)? {
                Scalar::Col(_) => {}
                other => {
                    return Err(format!(
                        "`UPDATE` key `{key_col}` is matched against {other:?}, \
                         not a cursor field"
                    ));
                }
            }
            let mut out = Vec::with_capacity(sets.len());
            for (col, val) in sets {
                out.push((col.clone(), resolve(val, &mut source.params)?));
            }
            Ok(ForeachDml::Update {
                target: table.clone(),
                key_col: key_col.clone(),
                sets: out,
                source,
            })
        }
        DmlTemplate::Insert {
            table,
            columns,
            values,
        } => {
            let mut out = Vec::with_capacity(values.len());
            for v in values {
                out.push(resolve(v, &mut source.params)?);
            }
            Ok(ForeachDml::Insert {
                target: table.clone(),
                columns: columns.clone().unwrap_or_default(),
                values: out,
                source,
            })
        }
        DmlTemplate::Delete { table, where_eq } => {
            let Some((key_col, key_val)) = where_eq else {
                return Err("`DELETE` has no per-row key predicate".to_string());
            };
            let key = match resolve(key_val, &mut source.params)? {
                c @ Scalar::Col(_) => c,
                other => {
                    return Err(format!(
                        "`DELETE` key `{key_col}` is matched against {other:?}, \
                         not a cursor field"
                    ));
                }
            };
            Ok(ForeachDml::Delete {
                target: table.clone(),
                key_col: key_col.clone(),
                key,
                source,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::build_function_dir;
    use algebra::schema::{Catalog, SqlType, TableSchema};

    fn catalog() -> Catalog {
        Catalog::new().with(
            TableSchema::new("emp", &[("id", SqlType::Int), ("salary", SqlType::Int)])
                .with_key(&["id"]),
        )
    }

    fn fold_result(src: &str, var: &str) -> Result<(), Diagnostic> {
        let p = imp::parse_and_normalize(src).unwrap();
        let c = catalog();
        let d = build_function_dir(&p, &c, "f").unwrap();
        d.fold_notes
            .iter()
            .find(|n| n.var == var)
            .unwrap_or_else(|| panic!("no fold attempt for {var}"))
            .result
            .clone()
    }

    const PREFIX: &str = r#"fn f() { q = executeQuery("SELECT * FROM emp"); "#;

    #[test]
    fn sum_accumulator_converts() {
        let src = format!("{PREFIX} s = 0; for (t in q) {{ s = s + t.salary; }} return s; }}");
        assert!(fold_result(&src, "s").is_ok());
    }

    #[test]
    fn last_value_assignment_fails_p1() {
        // v = t.salary every iteration: no accumulation cycle.
        let src = format!("{PREFIX} v = 0; for (t in q) {{ v = t.salary; }} return v; }}");
        let err = fold_result(&src, "v").unwrap_err();
        assert_eq!(err.code, Code::NoAccumulation);
        assert!(err.message.contains("P1"), "{err}");
        // The diagnostic must point at the overwriting assignment.
        assert_eq!(
            &src[err.primary.span.start..err.primary.span.end],
            "v = t.salary;"
        );
    }

    #[test]
    fn dependent_accumulators_fail_p2() {
        let src = format!(
            "{PREFIX} a = 0; d = 0; for (t in q) {{ a = a + t.salary; d = d * 2 + a; }} return d; }}"
        );
        assert!(fold_result(&src, "a").is_ok());
        let err = fold_result(&src, "d").unwrap_err();
        assert_eq!(err.code, Code::ExtraLoopDependence);
        assert!(err.message.contains("P2"), "{err}");
        // Writer anchor + reader secondary label.
        assert_eq!(
            &src[err.primary.span.start..err.primary.span.end],
            "a = a + t.salary;"
        );
        assert!(!err.secondary.is_empty());
    }

    #[test]
    fn external_write_fails_p3() {
        // The update's result feeds the accumulator, putting the external
        // write *inside* s's slice: P3 must reject.
        let src = format!(
            "{PREFIX} s = 0; for (t in q) {{ n = executeUpdate(\"DELETE FROM emp WHERE id = ?\", t.id); s = s + n + t.salary; }} return s; }}"
        );
        let err = fold_result(&src, "s").unwrap_err();
        assert_eq!(err.code, Code::ExternalWriteInSlice);
        assert!(err.message.contains("P3"), "{err}");
        assert!(
            src[err.primary.span.start..err.primary.span.end].contains("executeUpdate"),
            "span must cover the update statement"
        );
    }

    #[test]
    fn unrelated_external_write_passes_p3_but_is_in_loop() {
        // An update *not* in s's slice leaves s extractable (Sec. 7.1:
        // partial optimization around kept updates); the extractor's rewrite
        // stage is responsible for keeping the loop alive.
        let src = format!(
            "{PREFIX} s = 0; for (t in q) {{ executeUpdate(\"DELETE FROM emp WHERE id = 0\"); s = s + t.salary; }} return s; }}"
        );
        assert!(fold_result(&src, "s").is_ok());
    }

    #[test]
    fn update_outside_slice_does_not_fail_p3() {
        // The external write does not affect s's slice? It does — P3 uses
        // the *slice's* DDG: an update unrelated to s still shares the
        // database location with the loop source, but the paper's DS is the
        // slice for v. Here the update statement is not in s's slice.
        // Hmm — conservatively the DELETE writes the database which the
        // cursor reads, so the whole-loop behaviour could change; but the
        // paper explicitly keeps updates intact and extracts *other*
        // variables "provided the update statements do not introduce a
        // dependency between other statements" (Sec. 7.1). Our slice-based
        // check implements exactly that.
        let src = format!(
            "{PREFIX} s = 0; for (t in q) {{ if (t.salary < 0) {{ executeUpdate(\"DELETE FROM emp WHERE id = 0\"); }} s = s + t.salary; }} return s; }}"
        );
        // The update is control-dependent only on t; it is not in s's slice.
        assert!(fold_result(&src, "s").is_ok());
    }

    #[test]
    fn break_rejects_all_vars() {
        let src = format!(
            "{PREFIX} s = 0; for (t in q) {{ s = s + t.salary; if (s > 100) break; }} return s; }}"
        );
        let err = fold_result(&src, "s").unwrap_err();
        assert_eq!(err.code, Code::AbruptLoopExit);
        assert!(err.message.contains("break"), "{err}");
        assert_eq!(&src[err.primary.span.start..err.primary.span.end], "break;");
    }

    #[test]
    fn conditional_accumulation_converts() {
        let src = format!(
            "{PREFIX} s = 0; for (t in q) {{ if (t.salary > 50) {{ s = s + t.salary; }} }} return s; }}"
        );
        assert!(fold_result(&src, "s").is_ok());
    }

    #[test]
    fn exists_flag_via_bool_normalization() {
        // `if (pred) found = true;` normalizes to `found = found || pred`
        // in imp::desugar, restoring the accumulation cycle.
        let src = format!(
            "{PREFIX} found = false; for (t in q) {{ if (t.salary > 100) {{ found = true; }} }} return found; }}"
        );
        // Note: normalization happens in parse_and_normalize only for
        // minmax; the boolean-flag form is normalized by desugar too — see
        // `normalize_bool_flags`. If this fails, the flag desugar is missing.
        assert!(fold_result(&src, "found").is_ok());
    }

    #[test]
    fn two_independent_accumulators_both_convert() {
        let src = format!(
            "{PREFIX} s = 0; c = 0; for (t in q) {{ s = s + t.salary; c = c + 1; }} return s; }}"
        );
        assert!(fold_result(&src, "s").is_ok());
        assert!(fold_result(&src, "c").is_ok());
    }
}
