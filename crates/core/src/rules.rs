//! F-IR transformation rules (paper Sec. 5.1 and Appendix B).
//!
//! Implemented rules:
//!
//! * **T1** simplification — `fold[append, [], Q] = Q`,
//!   `fold[insert, {}, Q] = δ(Q)`;
//! * **T2** predicate push — `fold[?[pred(t), g, ⟨v⟩], id, Q] ≡
//!   fold[g, id, σ_pred(Q)]`;
//! * **T3** scalar-function push — projections are built directly from the
//!   element expression, so `h(t.A)` lands inside π;
//! * **T4** join identification (list append / set insert / multiset);
//! * **T5.1** whole-relation aggregation (`sum`, `max`, `min`, `count`);
//! * **T5.2** GROUP BY from nested aggregation loops;
//! * **T6** fold with a non-identity initial value — emitted as
//!   `op(init, coalesce(aggregate-subquery, init-or-0))`, which also
//!   restores the imperative identity when SQL aggregates return `NULL`
//!   over empty inputs;
//! * **T7** OUTER APPLY for correlated scalar lookups (star schemas);
//! * **EXISTS / NOT EXISTS** inference from boolean-flag folds
//!   (Appendix B, "Checking for existence using cursor loops").
//!
//! Rules rewrite [`Node::Fold`] nodes bottom-up until fixpoint. As the paper
//! argues (Sec. 5.3), each rule only moves computation from the folding
//! function into the query, so the system is confluent and terminating; a
//! pass cap is kept as a defensive bound.

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

use intern::Symbol;

use algebra::ra::{AggCall, AggFunc, ProjItem, RaExpr};
use algebra::scalar::{BinOp, ColRef, Lit, Scalar, ScalarFunc, UnOp};
use algebra::schema::Catalog;

use crate::certify::Obligation;
use crate::eedag::{EeDag, Node, NodeId, OpKind, Rewriter};

/// Options controlling rule application.
#[derive(Debug, Clone)]
pub struct RuleOptions {
    /// When `false`, list order is known to be irrelevant (keyword-search
    /// extraction, Sec. 7.1 Experiment 3): `append` is treated as multiset
    /// insertion and the key requirement of T4.1 is dropped.
    pub ordered: bool,
    /// Rule-application order control (Sec. 5.3: "In case multiple
    /// transformation rules are applicable … we choose any one of the
    /// applicable rules and proceed. … the rule set is confluent"). When
    /// `true`, the general OUTER APPLY rule (T7) is preferred over the more
    /// specific GROUP BY rule (T5.2) where both match; the resulting query
    /// differs syntactically but must be semantically identical — asserted
    /// by the confluence tests.
    pub prefer_lateral: bool,
}

impl Default for RuleOptions {
    fn default() -> Self {
        RuleOptions {
            ordered: true,
            prefer_lateral: false,
        }
    }
}

/// A recorded rule near-miss: a rule whose fold shape matched but whose
/// side conditions failed. Surfaced as `W001` notes on failed extractions
/// ("rule T1–T7 not applicable and why").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleMiss {
    /// Rule name (paper numbering, e.g. `"T4.1"`).
    pub rule: &'static str,
    /// Why the rule did not apply.
    pub reason: String,
}

/// The rule engine.
pub struct RuleEngine<'c> {
    catalog: &'c Catalog,
    opts: RuleOptions,
    /// Names of rules applied, in order (for tests and the ablation bench).
    pub trace: Vec<&'static str>,
    /// Rules that shape-matched but declined, with reasons (deduplicated;
    /// rule application runs to fixpoint, so the same miss can recur).
    pub misses: Vec<RuleMiss>,
    /// One proof obligation per rule application, in application order.
    /// Chained rewrites (`minmax-normalize` then `T5.1-max`) emit one
    /// obligation per step, so the composition is certified stepwise.
    pub obligations: Vec<Obligation>,
    fresh: usize,
    /// Nodes known to be in normal form: a previous pass rebuilt them to
    /// themselves, and rewriting is a pure function of the subdag (catalog
    /// and options fixed), so no later pass can fire a rule on them either.
    /// Persists across the fixpoint passes of [`RuleEngine::transform`].
    clean: HashSet<NodeId>,
    /// When `false`, the clean-set cache is bypassed (regression-testing
    /// hook: cached and uncached rewrites must agree).
    pub cache_enabled: bool,
    /// Subtrees skipped because they were already in normal form.
    pub cache_hits: u64,
    /// Nodes that actually went through rule matching.
    pub cache_misses: u64,
}

impl<'c> RuleEngine<'c> {
    /// Create an engine over a catalog.
    pub fn new(catalog: &'c Catalog, opts: RuleOptions) -> RuleEngine<'c> {
        RuleEngine {
            catalog,
            opts,
            trace: Vec::new(),
            misses: Vec::new(),
            obligations: Vec::new(),
            fresh: 0,
            clean: HashSet::new(),
            cache_enabled: true,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Record a near-miss (idempotent).
    fn miss(&mut self, rule: &'static str, reason: impl Into<String>) {
        let m = RuleMiss {
            rule,
            reason: reason.into(),
        };
        if !self.misses.contains(&m) {
            self.misses.push(m);
        }
    }

    /// Record the proof obligation for the rule that just fired (the last
    /// trace entry) rewriting `before` into `after`.
    fn certified(
        &mut self,
        before: NodeId,
        after: NodeId,
        origin: (imp::ast::StmtId, Symbol),
    ) -> NodeId {
        let rule = self.trace.last().copied().unwrap_or("?");
        self.obligations
            .push(Obligation::rewrite(rule, before, after).with_origin(origin));
        after
    }

    /// Transform an expression to fixpoint, one bottom-up
    /// `EeDag::rewrite` pass at a time.
    pub fn transform(&mut self, dag: &mut EeDag, id: NodeId) -> NodeId {
        let mut cur = id;
        for _ in 0..20 {
            let next = dag.rewrite(cur, 0, self);
            if next == cur {
                return cur;
            }
            cur = next;
        }
        cur
    }

    fn fresh_alias(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    /// Constant-folding simplifications that keep extracted expressions
    /// tidy (`or(false, x) → x`, `add(0, x) → x`, `and(true, x) → x`).
    fn simplify_op(&mut self, dag: &mut EeDag, id: NodeId) -> NodeId {
        let Node::Op { op, args } = dag.node(id).clone() else {
            return id;
        };
        if args.len() != 2 {
            return id;
        }
        let (a, b) = (args[0], args[1]);
        let is_lit =
            |dag: &EeDag, n: NodeId, l: &Lit| matches!(dag.node(n), Node::Const(x) if x == l);
        let out = match op {
            OpKind::Or if is_lit(dag, a, &Lit::Bool(false)) => b,
            OpKind::Or if is_lit(dag, b, &Lit::Bool(false)) => a,
            OpKind::And if is_lit(dag, a, &Lit::Bool(true)) => b,
            OpKind::And if is_lit(dag, b, &Lit::Bool(true)) => a,
            OpKind::Add if is_lit(dag, a, &Lit::Int(0)) => b,
            OpKind::Add if is_lit(dag, b, &Lit::Int(0)) => a,
            _ => id,
        };
        if out != id {
            self.obligations
                .push(Obligation::rewrite("simplify", id, out));
        }
        out
    }

    /// Attempt all fold rules at a (already child-rewritten) fold node.
    fn try_fold_rules(&mut self, dag: &mut EeDag, fold: NodeId) -> Option<NodeId> {
        let Node::Fold {
            func,
            init,
            source,
            cursor,
            origin,
        } = dag.node(fold).clone()
        else {
            return None;
        };
        // The source must be (equivalent to) a query result.
        let (q, qp) = match dag.node(source).clone() {
            Node::Query { ra, params } => (ra, params),
            _ => return None,
        };
        let var = origin.1;

        // Conditional min/max normalization (paper Sec. 4.2): the merged
        // D-IR form `?[x > y, x, y]` *is* `max(x, y)` (and `<` is `min`) —
        // the source-level desugar only catches single-statement branches,
        // so the rule engine normalizes the general form too.
        if let Node::Cond {
            cond,
            then_val,
            else_val,
        } = dag.node(func).clone()
        {
            if let Node::Op { op, args } = dag.node(cond).clone() {
                if args.len() == 2 {
                    let kind = match op {
                        OpKind::Gt | OpKind::Ge => Some(OpKind::Max),
                        OpKind::Lt | OpKind::Le => Some(OpKind::Min),
                        _ => None,
                    };
                    if let Some(k) = kind {
                        let matches_direct = then_val == args[0] && else_val == args[1];
                        let matches_flipped = then_val == args[1] && else_val == args[0];
                        // A maybe-NULL else value breaks the `?:` ≡ max/min
                        // equivalence: a NULL comparison selects the else
                        // branch (yielding NULL), while max/min skip NULL
                        // operands. The then value is safe either way — a
                        // NULL there makes the comparison NULL, so that
                        // branch is never taken.
                        let else_unsafe = (matches_direct || matches_flipped)
                            && self.node_maybe_null(dag, else_val, &q, &qp, cursor, init, var);
                        let new_func = if else_unsafe {
                            self.miss(
                                "minmax-normalize",
                                format!(
                                    "conditional min/max for `{var}` keeps a maybe-NULL \
                                     else value; `?:` and max/min disagree on NULL"
                                ),
                            );
                            None
                        } else if matches_direct {
                            Some(dag.op(k, vec![args[1], args[0]]))
                        } else if matches_flipped {
                            // ?[x > y, y, x] keeps the smaller on Gt.
                            let k2 = if k == OpKind::Max {
                                OpKind::Min
                            } else {
                                OpKind::Max
                            };
                            Some(dag.op(k2, vec![args[0], args[1]]))
                        } else {
                            None
                        };
                        if let Some(nf) = new_func {
                            self.trace.push("minmax-normalize");
                            let out = dag.intern(Node::Fold {
                                func: nf,
                                init,
                                source,
                                cursor,
                                origin,
                            });
                            self.certified(fold, out, origin);
                            return Some(self.try_fold_rules(dag, out).unwrap_or(out));
                        }
                    }
                }
            }
        }

        // T2: predicate push.
        if let Node::Cond {
            cond,
            then_val,
            else_val,
        } = dag.node(func).clone()
        {
            let acc = dag.intern(Node::AccParam(var));
            let guarded = if else_val == acc {
                Some((then_val, false))
            } else if then_val == acc {
                Some((else_val, true))
            } else {
                None
            };
            if let Some((g, negate)) = guarded {
                let mut sb = ScalarBuild::new(dag, self.catalog, qp.to_vec());
                sb.bind_tuple(cursor, None);
                match sb.to_scalar(cond) {
                    Some(mut pred) => {
                        if negate {
                            pred = Scalar::Un(UnOp::Not, Box::new(pred));
                        }
                        let params = sb.params;
                        let new_q = q.clone().select(pred);
                        let new_src = dag.intern(Node::Query {
                            ra: new_q,
                            params: params.into(),
                        });
                        self.trace.push("T2");
                        let out = dag.intern(Node::Fold {
                            func: g,
                            init,
                            source: new_src,
                            cursor,
                            origin,
                        });
                        self.certified(fold, out, origin);
                        return Some(self.try_fold_rules(dag, out).unwrap_or(out));
                    }
                    None => self.miss(
                        "T2",
                        format!("guard predicate for `{var}` has no scalar translation"),
                    ),
                }
            }
        }

        // Collection-building folds.
        if let Node::Op { op, args } = dag.node(func).clone() {
            let acc = dag.intern(Node::AccParam(var));
            if matches!(op, OpKind::Append | OpKind::Insert | OpKind::MultisetInsert)
                && args.len() == 2
                && args[0] == acc
            {
                let elem = args[1];
                let is_set = op == OpKind::Insert;
                if !self.init_is_empty_coll(dag, init) {
                    self.miss(
                        "T1",
                        format!("initial value of `{var}` is not the empty collection"),
                    );
                    return None;
                }
                // T5.2 (GROUP BY) and T7 (OUTER APPLY) can both match the
                // nested-aggregation shape; either is correct (confluence,
                // Sec. 5.3) — the option picks which to try first.
                for lateral in [self.opts.prefer_lateral, !self.opts.prefer_lateral] {
                    let n = if lateral {
                        self.try_outer_apply(dag, &q, &qp, cursor, elem, is_set)
                    } else {
                        self.try_group_by(dag, &q, &qp, cursor, elem, is_set)
                    };
                    if let Some(n) = n {
                        return Some(self.certified(fold, n, origin));
                    }
                }
                // T1/T3: plain projection.
                let n = self.try_projection(dag, &q, &qp, cursor, elem, is_set)?;
                return Some(self.certified(fold, n, origin));
            }
            // T5.1/T6: scalar aggregation.
            let agg = match args[..] {
                [a, e] | [e, a] if a == acc => {
                    self.try_scalar_agg(dag, &q, &qp, cursor, op, e, init)
                }
                _ => None,
            };
            if let Some(n) = agg {
                return Some(self.certified(fold, n, origin));
            }
        }
        // T4: the folding function is itself a fold whose initial value is
        // the outer accumulator (flattening nested cursor loops).
        if let Node::Fold {
            func: ifunc,
            init: iinit,
            source: isrc,
            cursor: icursor,
            ..
        } = dag.node(func).clone()
        {
            let acc = dag.intern(Node::AccParam(var));
            if iinit == acc {
                if let Some(n) =
                    self.try_join(dag, &q, &qp, cursor, ifunc, isrc, icursor, var, init)
                {
                    return Some(self.certified(fold, n, origin));
                }
            }
        }
        None
    }

    /// Whether `node`, evaluated once per loop iteration, may be NULL.
    /// Gates NULL-sensitive rewrites. Conservative: `true` when unsure.
    ///
    /// The accumulator parameter is NULL-free iff the fold's initial value
    /// is: the only writes to it come from comparison-guarded branches,
    /// which a NULL operand can never select (the comparison itself goes
    /// NULL). Program inputs are harness-supplied scalars assumed non-NULL,
    /// the same convention as `Scalar::Param` in
    /// [`RaExpr::scalar_maybe_null`].
    #[allow(clippy::too_many_arguments)]
    fn node_maybe_null(
        &self,
        dag: &mut EeDag,
        node: NodeId,
        q: &RaExpr,
        qp: &[NodeId],
        cursor: Symbol,
        init: NodeId,
        var: Symbol,
    ) -> bool {
        let acc = dag.intern(Node::AccParam(var));
        if node == acc {
            return match dag.node(init) {
                Node::Const(l) => matches!(l, Lit::Null),
                Node::Input(_) => false,
                _ => true,
            };
        }
        let mut sb = ScalarBuild::new(dag, self.catalog, qp.to_vec());
        sb.bind_tuple(cursor, None);
        match sb.to_scalar(node) {
            Some(s) => q.scalar_maybe_null(&s, self.catalog),
            None => true,
        }
    }

    /// T1/T3: `fold[append/insert, coll, Q]` with a scalar element.
    fn try_projection(
        &mut self,
        dag: &mut EeDag,
        q: &RaExpr,
        qp: &[NodeId],
        cursor: Symbol,
        elem: NodeId,
        is_set: bool,
    ) -> Option<NodeId> {
        // Whole-tuple append: the collection is the query result itself
        // (T1.1/T1.2 verbatim).
        if matches!(dag.node(elem), Node::TupleParam(c) if *c == cursor) {
            let rule = if is_set { "T1.2" } else { "T1.1" };
            return Some(self.emit(dag, rule, q.clone(), is_set, qp.to_vec()));
        }
        let mut sb = ScalarBuild::new(dag, self.catalog, qp.to_vec());
        sb.bind_tuple(cursor, None);
        let items = sb.elem_items(elem)?;
        let params = sb.params;
        Some(self.emit(dag, "T1+T3", q.clone().project(items), is_set, params))
    }

    /// T4: nested cursor loops flattening into a join.
    #[allow(clippy::too_many_arguments)]
    fn try_join(
        &mut self,
        dag: &mut EeDag,
        q1: &RaExpr,
        q1p: &[NodeId],
        outer_cursor: Symbol,
        inner_func: NodeId,
        inner_source: NodeId,
        inner_cursor: Symbol,
        var: Symbol,
        init: NodeId,
    ) -> Option<NodeId> {
        if !self.init_is_empty_coll(dag, init) {
            return None;
        }
        // Inner folding function: a plain collection append/insert, possibly
        // guarded by a join condition over both tuples — the classic
        // in-application nested-loop join of Experiment 6 ("combines them
        // using nested loops, based on a condition").
        let (inner_core, guard) = match dag.node(inner_func).clone() {
            Node::Cond {
                cond,
                then_val,
                else_val,
            } if matches!(dag.node(else_val), Node::AccParam(v) if *v == var) => {
                (then_val, Some(cond))
            }
            _ => (inner_func, None),
        };
        let (elem, is_set, is_append) = match dag.node(inner_core).clone() {
            Node::Op { op, args }
                if matches!(op, OpKind::Append | OpKind::Insert | OpKind::MultisetInsert)
                    && args.len() == 2
                    && matches!(dag.node(args[0]), Node::AccParam(v) if *v == var) =>
            {
                (args[1], op == OpKind::Insert, op == OpKind::Append)
            }
            _ => return None,
        };
        let (q2, q2p) = match dag.node(inner_source).clone() {
            Node::Query { ra, params } => (ra, params),
            _ => return None,
        };
        // T4.1 (ordered list append) requires the outer query to have a
        // unique key; sets/multisets don't (T4.2/T4.3).
        if is_append && self.opts.ordered && !has_key(q1, self.catalog) {
            self.miss(
                "T4.1",
                "ordered list append requires the outer query to have a unique key",
            );
            return None;
        }
        // Qualify the outer side.
        let (q1a, ob) = ensure_binding(q1.clone(), || self.fresh_alias("eqo"));

        // Inline Q2's parameters: outer-tuple correlations become column
        // references on Q1, invariants are lifted into the combined params.
        let mut sb = ScalarBuild::new(dag, self.catalog, q1p.to_vec());
        sb.bind_tuple(outer_cursor, Some(ob.clone()));
        let q2c = sb.inline_params(q2.clone(), &q2p)?;
        // Decompose Q2 so the correlated selection becomes an explicit join
        // predicate (the paper's `Q1 ⋈_pred Q2`).
        let Some(d) = decorrelate_simple(q2c) else {
            self.miss(
                "T4",
                "inner query cannot be decorrelated into a join predicate",
            );
            return None;
        };
        let (right, ib) = self.alias_inner(d.table, &ob);
        let mut pred = qualify_unqualified(&d.pred, &ib);

        // Element over the inner tuple (and possibly the outer one).
        sb.bind_tuple_mapped(
            inner_cursor,
            inner_col_map(&d.proj, &right, &ib, self.catalog)?,
        );
        // A guarded append contributes its condition to the join predicate.
        if let Some(g) = guard {
            let g_scalar = sb.to_scalar(g)?;
            pred = pred.and(g_scalar);
        }
        let items = sb.elem_items(elem)?;
        let params = sb.params;
        let rule = if is_set {
            "T4.2"
        } else if is_append && self.opts.ordered {
            "T4.1"
        } else {
            "T4.3"
        };
        Some(self.emit(
            dag,
            rule,
            q1a.join(right, pred).project(items),
            is_set,
            params,
        ))
    }

    /// T5.1/T6: scalar aggregation, including the EXISTS/NOT-EXISTS
    /// boolean folds of Appendix B.
    #[allow(clippy::too_many_arguments)]
    fn try_scalar_agg(
        &mut self,
        dag: &mut EeDag,
        q: &RaExpr,
        qp: &[NodeId],
        cursor: Symbol,
        op: OpKind,
        e: NodeId,
        init: NodeId,
    ) -> Option<NodeId> {
        let mut sb = ScalarBuild::new(dag, self.catalog, qp.to_vec());
        sb.bind_tuple(cursor, None);
        match op {
            OpKind::Add | OpKind::Max | OpKind::Min => {
                let Some(arg) = sb.to_scalar(e) else {
                    self.miss("T5.1", "aggregated expression has no scalar translation");
                    return None;
                };
                let params = sb.params;
                // COUNT special case: summing the constant 1.
                let (agg, label) = if op == OpKind::Add && arg == Scalar::int(1) {
                    (AggFunc::Count, "T5.1-count")
                } else {
                    match op {
                        OpKind::Add => (AggFunc::Sum, "T5.1-sum"),
                        OpKind::Max => (AggFunc::Max, "T5.1-max"),
                        _ => (AggFunc::Min, "T5.1-min"),
                    }
                };
                // Imperatively, `acc + NULL` poisons the running sum for
                // the rest of the loop, while SQL's SUM skips NULL inputs —
                // so a maybe-NULL argument takes the guarded translation:
                //
                //   CASE WHEN COUNT(*) = 0          THEN 0    -- empty: identity
                //        WHEN COUNT(arg) < COUNT(*) THEN NULL -- NULL seen: poisoned
                //        ELSE SUM(arg) END
                //
                // MAX/MIN need no guard: the interpreter's max/min builtins
                // and SQL's MAX/MIN both skip NULL operands.
                if agg == AggFunc::Sum && q.scalar_maybe_null(&arg, self.catalog) {
                    let ra = q
                        .clone()
                        .aggregate(vec![
                            AggCall::new(AggFunc::Sum, arg.clone(), "agg0"),
                            AggCall::new(AggFunc::Count, arg, "agg1"),
                            AggCall::new(AggFunc::Count, Scalar::int(1), "agg2"),
                        ])
                        .project(vec![ProjItem::new(
                            Scalar::Case {
                                arms: vec![
                                    (
                                        Scalar::cmp(BinOp::Eq, Scalar::col("agg2"), Scalar::int(0)),
                                        Scalar::int(0),
                                    ),
                                    (
                                        Scalar::cmp(
                                            BinOp::Lt,
                                            Scalar::col("agg1"),
                                            Scalar::col("agg2"),
                                        ),
                                        Scalar::Lit(Lit::Null),
                                    ),
                                ],
                                otherwise: Box::new(Scalar::col("agg0")),
                            },
                            "agg0",
                        )]);
                    let sq = dag.intern(Node::ScalarQuery {
                        ra,
                        params: params.into(),
                    });
                    self.trace.push("T5.1-sum-null");
                    // The CASE already yields the identity on empty input
                    // and NULL on poisoned input, so no outer COALESCE.
                    let out = dag.op(OpKind::Add, vec![init, sq]);
                    return Some(self.simplify_op(dag, out));
                }
                let ra = q.clone().aggregate(vec![AggCall::new(agg, arg, "agg0")]);
                let sq = dag.intern(Node::ScalarQuery {
                    ra,
                    params: params.into(),
                });
                self.trace.push(label);
                // T6: combine with the initial value; COALESCE restores the
                // imperative identity on empty inputs.
                let out = match agg {
                    AggFunc::Count => {
                        // COUNT is never NULL: init + count.
                        dag.op(OpKind::Add, vec![init, sq])
                    }
                    AggFunc::Sum => {
                        let zero = dag.int(0);
                        let c = dag.op(OpKind::Coalesce, vec![sq, zero]);
                        dag.op(OpKind::Add, vec![init, c])
                    }
                    _ => {
                        let c = dag.op(OpKind::Coalesce, vec![sq, init]);
                        let k = if op == OpKind::Max {
                            OpKind::Max
                        } else {
                            OpKind::Min
                        };
                        dag.op(k, vec![init, c])
                    }
                };
                Some(self.simplify_op(dag, out))
            }
            OpKind::Or => {
                // EXISTS: v ∨ pred(t) over all t ⇔ v ∨ (COUNT(σ_pred) > 0).
                let Some(pred) = sb.to_scalar(e) else {
                    self.miss("EXISTS", "flag predicate has no scalar translation");
                    return None;
                };
                // Under 3-valued logic `v ∨ NULL` can leave the flag NULL,
                // but `COUNT(σ_pred) > 0` is always TRUE/FALSE — a NULL
                // predicate filters the row, reading as FALSE. Decline
                // rather than change the flag's final value.
                if q.scalar_maybe_null(&pred, self.catalog) {
                    self.miss(
                        "EXISTS",
                        "flag predicate may evaluate to NULL; 3-valued OR \
                         has no COUNT(σ) > 0 translation",
                    );
                    return None;
                }
                let params = sb.params;
                let ra = q.clone().select(pred).aggregate(vec![AggCall::new(
                    AggFunc::Count,
                    Scalar::int(1),
                    "agg0",
                )]);
                let sq = dag.intern(Node::ScalarQuery {
                    ra,
                    params: params.into(),
                });
                let zero = dag.int(0);
                let gt = dag.op(OpKind::Gt, vec![sq, zero]);
                self.trace.push("EXISTS");
                let out = dag.op(OpKind::Or, vec![init, gt]);
                Some(self.simplify_op(dag, out))
            }
            OpKind::And => {
                // FORALL / NOT EXISTS: v ∧ pred(t) over all t ⇔
                // v ∧ (COUNT(σ_{¬pred}) = 0).
                let Some(pred) = sb.to_scalar(e) else {
                    self.miss("NOT-EXISTS", "flag predicate has no scalar translation");
                    return None;
                };
                // Dual of the EXISTS gate: `v ∧ NULL` can leave the flag
                // NULL, but `COUNT(σ_¬pred) = 0` treats a NULL predicate
                // as satisfied.
                if q.scalar_maybe_null(&pred, self.catalog) {
                    self.miss(
                        "NOT-EXISTS",
                        "flag predicate may evaluate to NULL; 3-valued AND \
                         has no COUNT(σ) = 0 translation",
                    );
                    return None;
                }
                let params = sb.params;
                let neg = Scalar::Un(UnOp::Not, Box::new(pred));
                let ra = q.clone().select(neg).aggregate(vec![AggCall::new(
                    AggFunc::Count,
                    Scalar::int(1),
                    "agg0",
                )]);
                let sq = dag.intern(Node::ScalarQuery {
                    ra,
                    params: params.into(),
                });
                let zero = dag.int(0);
                let eq = dag.op(OpKind::Eq, vec![sq, zero]);
                self.trace.push("NOT-EXISTS");
                let out = dag.op(OpKind::And, vec![init, eq]);
                Some(self.simplify_op(dag, out))
            }
            _ => None,
        }
    }

    /// T5.2: the element is `pair(key(t), agg-subquery(t))` — a nested
    /// aggregation loop already reduced by T5.1 to a correlated scalar
    /// aggregate. Rewrites to a GROUP BY over a left outer join.
    fn try_group_by(
        &mut self,
        dag: &mut EeDag,
        q1: &RaExpr,
        q1p: &[NodeId],
        cursor: Symbol,
        elem: NodeId,
        is_set: bool,
    ) -> Option<NodeId> {
        let Node::Op {
            op: OpKind::Pair,
            args,
        } = dag.node(elem).clone()
        else {
            return None;
        };
        let (key_node, val_node) = (args[0], args[1]);
        // Find the unique correlated aggregate scalar-subquery in the value.
        let sqs = correlated_scalar_queries(dag, val_node, cursor);
        if sqs.len() != 1 {
            if sqs.len() > 1 {
                self.miss(
                    "T5.2",
                    format!(
                        "found {} correlated aggregate subqueries (need exactly one)",
                        sqs.len()
                    ),
                );
            }
            return None;
        }
        let sq = sqs[0];
        let (iq, ip) = match dag.node(sq).clone() {
            Node::ScalarQuery { ra, params } => (ra, params),
            _ => return None,
        };
        let RaExpr::Aggregate {
            input: iq_input,
            group_by,
            aggs,
        } = iq
        else {
            return None;
        };
        if !group_by.is_empty() || aggs.len() != 1 {
            return None;
        }
        // T5.2 requires Q1 to have a key (grouping by all Q1 columns must
        // not merge distinct outer rows).
        if !has_key(q1, self.catalog) {
            self.miss(
                "T5.2",
                "outer query has no unique key (grouping could merge rows)",
            );
            return None;
        }
        let (q1a, ob) = ensure_binding(q1.clone(), || self.fresh_alias("eqo"));

        let mut sb = ScalarBuild::new(dag, self.catalog, q1p.to_vec());
        sb.bind_tuple(cursor, Some(ob.clone()));
        let q2c = sb.inline_params((*iq_input).clone(), &ip)?;
        let d = decorrelate_simple(q2c)?;
        let (right, ib) = self.alias_inner(d.table, &ob);
        let pred = qualify_unqualified(&d.pred, &ib);

        // Aggregate argument references inner output columns: map through
        // the inner projection, then qualify.
        let agg = &aggs[0];
        let mut agg_arg = map_through_projection(&agg.arg, &d.proj, &ib)?;
        // COUNT over the left-outer join must not count NULL-padded rows:
        // count a non-null inner column instead of a constant.
        if agg.func == AggFunc::Count && agg_arg.columns().is_empty() {
            let col = right.output_columns(self.catalog)?.first()?.clone();
            agg_arg = Scalar::Col(ColRef::qualified(ib.clone(), col));
        }
        let join = RaExpr::Join {
            left: Box::new(q1a.clone()),
            right: Box::new(right),
            pred,
            kind: algebra::ra::JoinKind::LeftOuter,
        };
        // Group by every Q1 column (Q1 has a key, so no outer rows merge).
        let q1_cols = q1.output_columns(self.catalog)?;
        let gb: Vec<ProjItem> = q1_cols
            .iter()
            .map(|c| {
                ProjItem::new(
                    Scalar::Col(ColRef::qualified(ob.clone(), c.clone())),
                    c.clone(),
                )
            })
            .collect();
        let grouped = join.group_by(gb, vec![AggCall::new(agg.func, agg_arg, "agg0")]);

        // Final projection: the key over (now unqualified) Q1 columns, and
        // the value expression with the subquery replaced by `agg0`.
        let mut sb2 = ScalarBuild::new(dag, self.catalog, sb.params.clone());
        sb2.bind_tuple(cursor, None);
        sb2.replace(sq, Scalar::col("agg0"));
        let key_s = sb2.to_scalar(key_node)?;
        let val_s = sb2.to_scalar(val_node)?;
        let ra = grouped.project(vec![
            ProjItem::new(key_s, "first"),
            ProjItem::new(val_s, "second"),
        ]);
        Some(self.emit(dag, "T5.2", ra, is_set, sb2.params))
    }

    /// T7: correlated scalar lookups become an OUTER APPLY chain.
    fn try_outer_apply(
        &mut self,
        dag: &mut EeDag,
        q1: &RaExpr,
        q1p: &[NodeId],
        cursor: Symbol,
        elem: NodeId,
        is_set: bool,
    ) -> Option<NodeId> {
        let sqs = correlated_scalar_queries(dag, elem, cursor);
        if sqs.is_empty() {
            return None;
        }
        let (q1a, ob) = ensure_binding(q1.clone(), || self.fresh_alias("eqo"));
        let mut sb = ScalarBuild::new(dag, self.catalog, q1p.to_vec());
        sb.bind_tuple(cursor, Some(ob.clone()));

        let mut chain = q1a;
        for (k, sq) in sqs.iter().enumerate() {
            let (ra, ps) = match dag.node(*sq).clone() {
                Node::ScalarQuery { ra, params } => (ra, params),
                _ => return None,
            };
            let corr = sb.inline_params(ra, &ps)?;
            // A scalar query yields the first column of the first row —
            // LIMIT 1 keeps the apply from multiplying outer rows.
            let col = corr.output_columns(self.catalog)?.first()?.clone();
            let alias = format!("ap{k}");
            let applied = corr.limit(1).aliased(alias.clone());
            chain = chain.outer_apply(applied);
            sb.replace(*sq, Scalar::Col(ColRef::qualified(alias, col)));
        }
        // The projected element, with subqueries now columns of the chain.
        sb.bind_tuple(cursor, Some(ob));
        let items = sb.elem_items(elem)?;
        let params = sb.params;
        Some(self.emit(dag, "T7", chain.project(items), is_set, params))
    }

    /// Dependent aggregation (Appendix B): argmax/argmin via
    /// `ORDER BY key DESC/ASC LIMIT 1` over rows strictly beating the
    /// initial bound, with `COALESCE(…, w₀)` restoring the initial value
    /// when no row qualifies.
    fn try_arg_extreme(&mut self, dag: &mut EeDag, node: NodeId) -> Option<NodeId> {
        let Node::ArgExtreme {
            source,
            is_max,
            key,
            value,
            v_init,
            w_init,
            cursor,
            ..
        } = dag.node(node).clone()
        else {
            return None;
        };
        let (q, qp) = match dag.node(source).clone() {
            Node::Query { ra, params } => (ra, params),
            _ => return None,
        };
        let mut sb = ScalarBuild::new(dag, self.catalog, qp.to_vec());
        sb.bind_tuple(cursor, None);
        let key_s = sb.to_scalar(key)?;
        let value_s = sb.to_scalar(value)?;
        let v_init_s = sb.to_scalar(v_init)?;
        let params = sb.params.clone();
        let cmp = if is_max { BinOp::Gt } else { BinOp::Lt };
        let order = if is_max {
            algebra::ra::SortKey::desc(key_s.clone())
        } else {
            algebra::ra::SortKey::asc(key_s.clone())
        };
        let ra = q
            .select(Scalar::Bin(cmp, Box::new(key_s), Box::new(v_init_s)))
            .sort(vec![order])
            .project(vec![ProjItem::new(value_s, "val")])
            .limit(1);
        let sq = dag.intern(Node::ScalarQuery {
            ra,
            params: params.into(),
        });
        self.trace.push("ARGMAX");
        Some(dag.op(OpKind::Coalesce, vec![sq, w_init]))
    }

    /// Record `rule` and intern its collection result: the query `ra` over
    /// `params`, deduplicated for a set.
    fn emit(
        &mut self,
        dag: &mut EeDag,
        rule: &'static str,
        ra: RaExpr,
        is_set: bool,
        params: Vec<NodeId>,
    ) -> NodeId {
        let ra = if is_set { ra.dedup() } else { ra };
        self.trace.push(rule);
        dag.intern(Node::Query {
            ra,
            params: params.into(),
        })
    }

    fn init_is_empty_coll(&self, dag: &EeDag, init: NodeId) -> bool {
        matches!(dag.node(init), Node::EmptyColl(_))
    }

    /// Alias the inner base table so its binding never collides with the
    /// outer one (self-joins!). Returns the table and its binding.
    fn alias_inner(&mut self, table: RaExpr, outer_binding: &str) -> (RaExpr, String) {
        match table {
            RaExpr::Table { name, alias } => {
                let binding = alias.clone().unwrap_or_else(|| name.clone());
                if binding == outer_binding {
                    let fresh = self.fresh_alias("eqi");
                    (
                        RaExpr::Table {
                            name,
                            alias: Some(fresh.clone()),
                        },
                        fresh,
                    )
                } else {
                    (RaExpr::Table { name, alias }, binding)
                }
            }
            other => {
                let fresh = self.fresh_alias("eqi");
                (other.aliased(fresh.clone()), fresh)
            }
        }
    }
}

/// One bottom-up pass of [`RuleEngine::transform`].
impl Rewriter for RuleEngine<'_> {
    fn enter(&mut self, dag: &mut EeDag, id: NodeId, _: u32) -> Option<NodeId> {
        if self.cache_enabled && self.clean.contains(&id) {
            self.cache_hits += 1;
            return Some(id);
        }
        match dag.node(id) {
            Node::Const(_)
            | Node::Input(_)
            | Node::AccParam(_)
            | Node::TupleParam(_)
            | Node::EmptyColl(_)
            | Node::NotDetermined
            | Node::Opaque { .. } => Some(id),
            _ => {
                self.cache_misses += 1;
                None
            }
        }
    }

    /// An argmax's bound key and value are left as built (they reach SQL
    /// through `try_arg_extreme`'s scalar translation); a fold's bound
    /// function is rewritten like its other operands.
    fn operand(&self, node: &Node, ctx: u32, bound: bool) -> Option<u32> {
        (!bound || !matches!(node, Node::ArgExtreme { .. })).then_some(ctx)
    }

    fn finish(&mut self, dag: &mut EeDag, id: NodeId, node: NodeId, _: u32) -> NodeId {
        let rebuilt = match *dag.node(node) {
            Node::Op { .. } => self.simplify_op(dag, node),
            Node::Fold { .. } => self.try_fold_rules(dag, node).unwrap_or(node),
            Node::ArgExtreme { origin, .. } => match self.try_arg_extreme(dag, node) {
                Some(n) => self.certified(node, n, origin),
                None => node,
            },
            _ => node,
        };
        if rebuilt == id && self.cache_enabled {
            // Rebuilt to itself: the whole subdag is in normal form and can
            // be skipped by every later pass.
            self.clean.insert(id);
        }
        rebuilt
    }

    /// A shared subdag already rewritten this pass (the ee-DAG is
    /// hash-consed, so diamond sharing is the common case).
    fn revisit(&mut self) {
        if self.cache_enabled {
            self.cache_hits += 1;
        }
    }
}

/// Column map for the inner cursor's fields: projected aliases map to the
/// underlying table columns; without a projection, every table column maps
/// to itself (qualified).
fn inner_col_map(
    proj: &Option<Vec<(String, String)>>,
    table: &RaExpr,
    binding: &str,
    catalog: &Catalog,
) -> Option<HashMap<String, ColRef>> {
    let mut map = HashMap::new();
    match proj {
        Some(items) => {
            for (alias, col) in items {
                map.insert(alias.clone(), ColRef::qualified(binding, col.clone()));
            }
        }
        None => {
            for col in table.output_columns(catalog)? {
                map.insert(col.clone(), ColRef::qualified(binding, col));
            }
        }
    }
    Some(map)
}

/// Rewrite a scalar phrased over the inner query's *output* columns into one
/// phrased over the base table's (qualified) columns.
fn map_through_projection(
    s: &Scalar,
    proj: &Option<Vec<(String, String)>>,
    binding: &str,
) -> Option<Scalar> {
    let mut failed = false;
    let out = s.map(&mut |x| match x {
        Scalar::Col(ColRef {
            qualifier: None,
            column,
        }) => {
            let target = match proj {
                Some(items) => match items.iter().find(|(a, _)| a == &column) {
                    Some((_, c)) => c.clone(),
                    None => {
                        failed = true;
                        column.clone()
                    }
                },
                None => column.clone(),
            };
            Scalar::Col(ColRef::qualified(binding, target))
        }
        other => other,
    });
    if failed {
        None
    } else {
        Some(out)
    }
}

/// Default alias for a projected scalar: the column's own name when it is a
/// plain column reference.
fn default_proj_alias(s: &Scalar) -> String {
    match s {
        Scalar::Col(c) => c.column.clone(),
        _ => "val".to_string(),
    }
}

/// All correlated `ScalarQuery` nodes inside `root` (correlated = at least
/// one parameter references the given cursor's tuple), in discovery order.
fn correlated_scalar_queries(dag: &EeDag, root: NodeId, cursor: Symbol) -> Vec<NodeId> {
    let mut out = Vec::new();
    let _: ControlFlow<()> = dag.walk(root, |id, n| {
        if let Node::ScalarQuery { params, .. } = n {
            let correlated = params
                .iter()
                .any(|p| dag.any(*p, |x| matches!(x, Node::TupleParam(c) if *c == cursor)));
            if correlated {
                out.push(id);
            }
        }
        ControlFlow::Continue(())
    });
    out
}

/// Ensure a relation exposes a qualifier for its columns, wrapping in
/// `Aliased` when necessary. Returns the (possibly wrapped) relation and
/// the binding name.
fn ensure_binding(ra: RaExpr, mut fresh: impl FnMut() -> String) -> (RaExpr, String) {
    match binding_of(&ra) {
        Some(b) => (ra, b),
        None => {
            let alias = fresh();
            (ra.aliased(alias.clone()), alias)
        }
    }
}

fn binding_of(ra: &RaExpr) -> Option<String> {
    match ra {
        RaExpr::Table { name, alias } => Some(alias.clone().unwrap_or_else(|| name.clone())),
        RaExpr::Aliased { alias, .. } => Some(alias.clone()),
        RaExpr::Select { input, .. }
        | RaExpr::Sort { input, .. }
        | RaExpr::Dedup { input }
        | RaExpr::Limit { input, .. } => binding_of(input),
        _ => None,
    }
}

/// A decorrelated inner query: the underlying base table, the full
/// predicate (correlated + local conjuncts), and an optional alias→column
/// map when the inner query projected plain columns.
struct Decorrelated {
    /// The base table scan (possibly re-aliased by the caller).
    table: RaExpr,
    /// Combined predicate over table columns + correlated outer columns.
    pred: Scalar,
    /// Projected output aliases mapping to table columns (`None` = all
    /// table columns pass through by name).
    proj: Option<Vec<(String, String)>>,
}

/// Decompose the common inner-query shapes `[π?][σ?] T` so the correlated
/// selection can become an explicit join predicate (the paper's
/// `Q1 ⋈_pred Q2` in T4/T5.2). Non-plain projections or other operators
/// make the rule inapplicable (the extraction then simply fails for the
/// variable, Sec. 5.2).
fn decorrelate_simple(ra: RaExpr) -> Option<Decorrelated> {
    match ra {
        RaExpr::Table { .. } => Some(Decorrelated {
            table: ra,
            pred: Scalar::bool(true),
            proj: None,
        }),
        RaExpr::Select { input, pred } => {
            let d = decorrelate_simple(*input)?;
            if d.proj.is_some() {
                return None; // σ above π: not produced by our SQL parser
            }
            Some(Decorrelated {
                table: d.table,
                pred: d.pred.and(pred),
                proj: d.proj,
            })
        }
        RaExpr::Project { input, items } => {
            let d = decorrelate_simple(*input)?;
            if d.proj.is_some() {
                return None;
            }
            let mut map = Vec::new();
            for i in &items {
                match &i.expr {
                    Scalar::Col(c) => map.push((i.alias.clone(), c.column.clone())),
                    _ => return None,
                }
            }
            Some(Decorrelated {
                table: d.table,
                pred: d.pred,
                proj: Some(map),
            })
        }
        _ => None,
    }
}

/// Qualify unqualified column references in a scalar with `qual`.
fn qualify_unqualified(s: &Scalar, qual: &str) -> Scalar {
    s.map(&mut |x| match x {
        Scalar::Col(ColRef {
            qualifier: None,
            column,
        }) => Scalar::Col(ColRef::qualified(qual, column)),
        other => other,
    })
}

/// `has_key(Q)` — whether a query result has a unique key (needed by T4.1
/// and T5.2).
pub fn has_key(ra: &RaExpr, catalog: &Catalog) -> bool {
    match ra {
        RaExpr::Table { name, .. } => catalog.get(name).map(|t| t.has_key()).unwrap_or(false),
        RaExpr::Select { input, .. }
        | RaExpr::Sort { input, .. }
        | RaExpr::Limit { input, .. }
        | RaExpr::Aliased { input, .. } => has_key(input, catalog),
        RaExpr::Dedup { .. } => true,
        RaExpr::Project { input, items } => {
            // The key survives projection when all key columns are kept.
            let keys: Vec<String> = match key_columns(input, catalog) {
                Some(k) => k,
                None => return false,
            };
            keys.iter().all(|k| {
                items
                    .iter()
                    .any(|i| matches!(&i.expr, Scalar::Col(c) if &c.column == k))
            })
        }
        RaExpr::Aggregate { group_by, .. } => !group_by.is_empty(),
        _ => false,
    }
}

fn key_columns(ra: &RaExpr, catalog: &Catalog) -> Option<Vec<String>> {
    match ra {
        RaExpr::Table { name, .. } => {
            let t = catalog.get(name)?;
            if t.has_key() {
                Some(t.key.clone())
            } else {
                None
            }
        }
        RaExpr::Select { input, .. }
        | RaExpr::Sort { input, .. }
        | RaExpr::Limit { input, .. }
        | RaExpr::Aliased { input, .. } => key_columns(input, catalog),
        _ => None,
    }
}

/// Builds [`Scalar`] expressions from ee-DAG nodes, lifting loop-invariant
/// sub-expressions into query parameters and mapping cursor-tuple field
/// accesses to column references.
pub struct ScalarBuild<'d, 'c> {
    dag: &'d EeDag,
    catalog: &'c Catalog,
    /// Cursor → column qualifier bindings.
    tuples: Vec<(Symbol, Option<String>)>,
    /// Cursor → (output-column alias → concrete column) maps, used when the
    /// iterated query projected/renamed columns of an underlying table.
    tuple_maps: HashMap<Symbol, HashMap<String, ColRef>>,
    /// Node-level replacements (e.g. a subquery that became a join column).
    replacements: HashMap<NodeId, Scalar>,
    /// The parameter slots of the query being built; `Param(i)` refers to
    /// `params[i]`.
    pub params: Vec<NodeId>,
}

impl<'d, 'c> ScalarBuild<'d, 'c> {
    /// Start a build whose parameter list is seeded with the existing query
    /// parameters.
    pub fn new(dag: &'d EeDag, catalog: &'c Catalog, params: Vec<NodeId>) -> ScalarBuild<'d, 'c> {
        ScalarBuild {
            dag,
            catalog,
            tuples: Vec::new(),
            tuple_maps: HashMap::new(),
            replacements: HashMap::new(),
            params,
        }
    }

    /// Bind a cursor's tuple fields through an explicit alias→column map
    /// (used when the iterated query projected columns of a base table).
    pub fn bind_tuple_mapped(&mut self, cursor: Symbol, map: HashMap<String, ColRef>) {
        self.tuples.retain(|(c, _)| *c != cursor);
        self.tuples.push((cursor, None));
        self.tuple_maps.insert(cursor, map);
    }

    /// Bind a cursor variable's tuple to a column qualifier (re-binding
    /// replaces the previous qualifier).
    pub fn bind_tuple(&mut self, cursor: Symbol, qualifier: Option<String>) {
        self.tuples.retain(|(c, _)| *c != cursor);
        self.tuples.push((cursor, qualifier));
    }

    /// Register a node-level replacement.
    pub fn replace(&mut self, node: NodeId, scalar: Scalar) {
        self.replacements.insert(node, scalar);
    }

    /// Convert a node to a scalar; `None` when the node has no scalar
    /// equivalent in the current context.
    pub fn to_scalar(&mut self, id: NodeId) -> Option<Scalar> {
        if let Some(r) = self.replacements.get(&id) {
            return Some(r.clone());
        }
        match self.dag.node(id).clone() {
            Node::Const(l) => Some(Scalar::Lit(l)),
            Node::FieldOf { base, field } => {
                if let Node::TupleParam(c) = self.dag.node(base) {
                    if let Some(map) = self.tuple_maps.get(c) {
                        return map.get(field.as_str()).cloned().map(Scalar::Col);
                    }
                    if let Some((_, qual)) = self.tuples.iter().find(|(t, _)| t == c) {
                        return Some(Scalar::Col(ColRef {
                            qualifier: qual.clone(),
                            column: field.as_str().to_owned(),
                        }));
                    }
                }
                // A field of something loop-invariant (a row captured
                // outside): liftable as a parameter.
                self.lift(id)
            }
            Node::Input(_) => self.lift(id),
            Node::ScalarQuery { .. } => self.lift(id),
            Node::Op { op, args } => {
                let bin = |o: BinOp, s: &mut Self, a: &[NodeId]| -> Option<Scalar> {
                    let l = s.to_scalar(a[0])?;
                    let r = s.to_scalar(a[1])?;
                    Some(Scalar::Bin(o, Box::new(l), Box::new(r)))
                };
                match op {
                    OpKind::Add => bin(BinOp::Add, self, &args),
                    OpKind::Sub => bin(BinOp::Sub, self, &args),
                    OpKind::Mul => bin(BinOp::Mul, self, &args),
                    OpKind::Div => bin(BinOp::Div, self, &args),
                    OpKind::Mod => bin(BinOp::Mod, self, &args),
                    OpKind::Eq => bin(BinOp::Eq, self, &args),
                    OpKind::Ne => bin(BinOp::Ne, self, &args),
                    OpKind::Lt => bin(BinOp::Lt, self, &args),
                    OpKind::Le => bin(BinOp::Le, self, &args),
                    OpKind::Gt => bin(BinOp::Gt, self, &args),
                    OpKind::Ge => bin(BinOp::Ge, self, &args),
                    OpKind::And => bin(BinOp::And, self, &args),
                    OpKind::Or => bin(BinOp::Or, self, &args),
                    OpKind::Not => {
                        let x = self.to_scalar(args[0])?;
                        Some(Scalar::Un(UnOp::Not, Box::new(x)))
                    }
                    OpKind::Neg => {
                        let x = self.to_scalar(args[0])?;
                        Some(Scalar::Un(UnOp::Neg, Box::new(x)))
                    }
                    OpKind::Max | OpKind::Min => {
                        let f = if op == OpKind::Max {
                            ScalarFunc::Greatest
                        } else {
                            ScalarFunc::Least
                        };
                        let mut flat = Vec::new();
                        self.flatten_minmax(op, &args, &mut flat)?;
                        Some(Scalar::Func(f, flat))
                    }
                    OpKind::Abs => {
                        let x = self.to_scalar(args[0])?;
                        Some(Scalar::Func(ScalarFunc::Abs, vec![x]))
                    }
                    OpKind::Concat => {
                        let mut xs = Vec::new();
                        for a in &args {
                            xs.push(self.to_scalar(*a)?);
                        }
                        Some(Scalar::Func(ScalarFunc::Concat, xs))
                    }
                    OpKind::Lower => {
                        let x = self.to_scalar(args[0])?;
                        Some(Scalar::Func(ScalarFunc::Lower, vec![x]))
                    }
                    OpKind::Upper => {
                        let x = self.to_scalar(args[0])?;
                        Some(Scalar::Func(ScalarFunc::Upper, vec![x]))
                    }
                    OpKind::Length => {
                        let x = self.to_scalar(args[0])?;
                        Some(Scalar::Func(ScalarFunc::Length, vec![x]))
                    }
                    OpKind::Coalesce => {
                        let mut xs = Vec::new();
                        for a in &args {
                            xs.push(self.to_scalar(*a)?);
                        }
                        Some(Scalar::Func(ScalarFunc::Coalesce, xs))
                    }
                    OpKind::Append | OpKind::Insert | OpKind::MultisetInsert | OpKind::Pair => None,
                }
            }
            Node::Cond {
                cond,
                then_val,
                else_val,
            } => {
                let c = self.to_scalar(cond)?;
                let t = self.to_scalar(then_val)?;
                let e = self.to_scalar(else_val)?;
                Some(Scalar::Case {
                    arms: vec![(c, t)],
                    otherwise: Box::new(e),
                })
            }
            Node::TupleParam(_)
            | Node::AccParam(_)
            | Node::Query { .. }
            | Node::EmptyColl(_)
            | Node::Fold { .. }
            | Node::ArgExtreme { .. }
            | Node::NotDetermined
            | Node::Opaque { .. } => None,
        }
    }

    /// Greatest/least calls flatten nested max/min into one n-ary call
    /// (the paper's Figure 3(d): `GREATEST(p1, p2, p3, p4)`).
    fn flatten_minmax(&mut self, op: OpKind, args: &[NodeId], out: &mut Vec<Scalar>) -> Option<()> {
        for a in args {
            match self.dag.node(*a).clone() {
                Node::Op {
                    op: o2,
                    args: inner,
                } if o2 == op => {
                    self.flatten_minmax(op, &inner, out)?;
                }
                _ => out.push(self.to_scalar(*a)?),
            }
        }
        Some(())
    }

    /// `ra` with each parameter replaced by its translation here.
    fn inline_params(&mut self, ra: RaExpr, params: &[NodeId]) -> Option<RaExpr> {
        let mut subs = Vec::new();
        for p in params {
            subs.push(self.to_scalar(*p)?);
        }
        Some(ra.substitute_params(&subs))
    }

    /// The projection of a collection element: a pair's two components as
    /// `first` and `second`, anything else as one column.
    fn elem_items(&mut self, elem: NodeId) -> Option<Vec<ProjItem>> {
        let dag = self.dag;
        if let Node::Op {
            op: OpKind::Pair,
            args,
        } = dag.node(elem)
        {
            let a = self.to_scalar(args[0])?;
            let b = self.to_scalar(args[1])?;
            return Some(vec![ProjItem::new(a, "first"), ProjItem::new(b, "second")]);
        }
        let s = self.to_scalar(elem)?;
        let alias = default_proj_alias(&s);
        Some(vec![ProjItem::new(s, alias)])
    }

    /// Lift a loop-invariant node into a query parameter.
    fn lift(&mut self, id: NodeId) -> Option<Scalar> {
        // A parameter must be loop-invariant (no tuple/accumulator
        // references) and well-defined (no poison markers) …
        if self.dag.any(id, |n| {
            matches!(
                n,
                Node::TupleParam(_)
                    | Node::AccParam(_)
                    | Node::Fold { .. }
                    | Node::NotDetermined
                    | Node::Opaque { .. }
            )
        }) {
            return None;
        }
        // … and scalar-valued: a collection-valued query or literal cannot
        // be a parameter (a nested uncorrelated ScalarQuery is fine).
        if matches!(self.dag.node(id), Node::Query { .. } | Node::EmptyColl(_)) {
            return None;
        }
        if let Some(pos) = self.params.iter().position(|p| *p == id) {
            return Some(Scalar::Param(pos));
        }
        self.params.push(id);
        Some(Scalar::Param(self.params.len() - 1))
    }

    /// Access the catalog (used by callers needing schema info mid-build).
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }
}

// ===========================================================================
// foreach-dml rules (DESIGN.md §5i).
// ===========================================================================

/// Simplify a [`crate::fir::ForeachDml`] form in place; returns the names
/// of the rules that fired (recorded in the extraction rule trace).
///
/// **DML-DELETE-FOLD** — a loop that deletes its *own* driving rows by the
/// driving table's unique key,
/// `for (e in σ_p(t)) DELETE FROM t WHERE k = e.k` with `k` the unique key
/// of `t`, is exactly `DELETE FROM t WHERE p`: the subquery re-selects the
/// row being deleted, so the `IN` test collapses into the predicate. The
/// key must be declared `NOT NULL` — a NULL key never matches the per-row
/// `k = e.k` probe (the loop keeps the row) while the folded predicate
/// would delete it.
pub fn fold_dml(dml: &mut crate::fir::ForeachDml, catalog: &Catalog) -> Vec<&'static str> {
    use crate::fir::ForeachDml;
    let mut fired = Vec::new();
    let folds = match dml {
        ForeachDml::Delete {
            target,
            key_col,
            key,
            source,
        } => {
            let key_matches = matches!(
                key,
                Scalar::Col(c)
                    if c.column == source.key
                        && c.qualifier.as_deref() == Some(source.alias.as_str())
            );
            *target == source.table
                && *key_col == source.key
                && key_matches
                && catalog.get(&source.table).is_some_and(|t| {
                    t.key == [source.key.clone()] && !t.column_nullable(&source.key)
                })
        }
        _ => false,
    };
    if folds {
        if let ForeachDml::Delete { target, source, .. } = dml {
            let mut src = source.clone();
            // The folded statement has no cursor: re-phrase predicate
            // columns as unqualified references to the target table.
            if let Some(p) = src.pred.take() {
                src.pred = Some(strip_qualifier(p, &src.alias));
            }
            *dml = ForeachDml::DeleteFold {
                target: target.clone(),
                source: src,
            };
            fired.push("DML-DELETE-FOLD");
        }
    }
    fired
}

/// Drop the given alias qualifier from every column reference of a scalar.
fn strip_qualifier(s: Scalar, alias: &str) -> Scalar {
    match s {
        Scalar::Col(mut c) => {
            if c.qualifier.as_deref() == Some(alias) {
                c.qualifier = None;
            }
            Scalar::Col(c)
        }
        Scalar::Bin(op, l, r) => Scalar::Bin(
            op,
            Box::new(strip_qualifier(*l, alias)),
            Box::new(strip_qualifier(*r, alias)),
        ),
        Scalar::Un(op, x) => Scalar::Un(op, Box::new(strip_qualifier(*x, alias))),
        Scalar::Func(f, xs) => Scalar::Func(
            f,
            xs.into_iter().map(|x| strip_qualifier(x, alias)).collect(),
        ),
        Scalar::Case { arms, otherwise } => Scalar::Case {
            arms: arms
                .into_iter()
                .map(|(c, v)| (strip_qualifier(c, alias), strip_qualifier(v, alias)))
                .collect(),
            otherwise: Box::new(strip_qualifier(*otherwise, alias)),
        },
        other => other,
    }
}
