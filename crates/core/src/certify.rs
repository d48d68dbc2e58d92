//! Rewrite certification: machine-checkable proof obligations for every
//! rule application (translation validation).
//!
//! Each application of a T1–T7 rule (and of `loopToFold`) records an
//! [`Obligation`]: the source ee-DAG node, the result node, the rule that
//! claims they are equivalent, and where in the program the rewrite landed.
//! The [`Certifier`] then *independently* discharges each obligation:
//!
//! 1. **Algebraic normalization** — both sides are brought into a normal
//!    form (constant folding, neutral-element elimination, flattening and
//!    sorting of commutative/associative operators, branch pruning).
//!    Syntactic equality of the normal forms proves equivalence.
//! 2. **Differential evaluation** — when normalization is inconclusive,
//!    both sides are evaluated over a family of small generated databases
//!    ([`dbms::gen::gen_catalog`], seeded and deterministic, with unique
//!    key columns so key-dependent rewrites see their precondition hold).
//!    Agreement on every conclusive trial discharges the obligation;
//!    disagreement is a *counterexample* and surfaces as an `E007`
//!    diagnostic. Trials that cannot be evaluated (NULL branch conditions,
//!    opaque calls) leave the obligation *inconclusive* (`W006`), never
//!    silently certified.
//!
//! `loopToFold` introductions are discharged structurally: substituting the
//! fold's accumulator/tuple parameters back by the region inputs must
//! reproduce the original loop-body expression.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::ControlFlow;

use algebra::scalar::{BinOp, Lit};
use algebra::schema::{Catalog, SqlType};
use analysis::diag::{Code, Diagnostic};
use dbms::eval::eval_binop;
use dbms::gen::gen_catalog;
use dbms::prng::StdRng;
use dbms::{Database, Value};
use imp::ast::StmtId;
use imp::token::Span;
use intern::Symbol;

use crate::eedag::{EeDag, Node, NodeId, NodeList, OpKind};

/// What kind of step an obligation certifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObligationKind {
    /// An algebraic rewrite: `before` and `after` must denote the same
    /// value in every store and database.
    Rewrite,
    /// A `loopToFold` introduction: `after` is a fold whose body must be
    /// the `before` expression with the accumulator/cursor re-bound.
    FoldIntro,
}

/// A machine-checkable claim produced by the rule engine or the fold
/// converter: "`before` was rewritten to `after` by `rule`".
#[derive(Debug, Clone)]
pub struct Obligation {
    /// The rule that performed the rewrite (`"T2"`, `"T5.1-sum"`, …).
    pub rule: &'static str,
    /// Rewrite vs. fold introduction.
    pub kind: ObligationKind,
    /// The node before the rewrite.
    pub before: NodeId,
    /// The node after the rewrite.
    pub after: NodeId,
    /// The loop statement and variable the rewrite is anchored at, when
    /// the rewrite came from a fold with a known origin.
    pub origin: Option<(StmtId, Symbol)>,
}

impl Obligation {
    /// A rewrite obligation.
    pub fn rewrite(rule: &'static str, before: NodeId, after: NodeId) -> Obligation {
        Obligation {
            rule,
            kind: ObligationKind::Rewrite,
            before,
            after,
            origin: None,
        }
    }

    /// A fold-introduction obligation.
    pub fn fold_intro(before: NodeId, after: NodeId, origin: (StmtId, Symbol)) -> Obligation {
        Obligation {
            rule: "loopToFold",
            kind: ObligationKind::FoldIntro,
            before,
            after,
            origin: Some(origin),
        }
    }

    /// Attach an origin (loop statement + variable).
    pub fn with_origin(mut self, origin: (StmtId, Symbol)) -> Obligation {
        self.origin = Some(origin);
        self
    }
}

/// The result of attempting to discharge one obligation.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Both sides have the same algebraic normal form.
    DischargedNormalize,
    /// All conclusive differential trials agreed (`trials` of them).
    DischargedDifferential {
        /// Number of conclusive trials that agreed.
        trials: usize,
    },
    /// Neither normalization nor any differential trial was conclusive.
    Inconclusive {
        /// Why no trial concluded.
        reason: String,
    },
    /// A differential trial produced different values — the rewrite is
    /// wrong (or its precondition was violated).
    Counterexample {
        /// Trial description and the two disagreeing values.
        detail: String,
    },
}

impl Verdict {
    /// True when the obligation is proven.
    pub fn is_discharged(&self) -> bool {
        matches!(
            self,
            Verdict::DischargedNormalize | Verdict::DischargedDifferential { .. }
        )
    }
}

/// One certified (or not) obligation, for reports.
#[derive(Debug, Clone)]
pub struct CertOutcome {
    /// The obligation that was checked.
    pub obligation: Obligation,
    /// How it was (or was not) discharged.
    pub verdict: Verdict,
}

/// Aggregate result of certifying a set of obligations.
#[derive(Debug, Clone, Default)]
pub struct CertReport {
    /// Per-obligation outcomes, in input order.
    pub outcomes: Vec<CertOutcome>,
}

impl CertReport {
    /// Number of obligations checked.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// Discharged by normalization.
    pub fn discharged_normalize(&self) -> usize {
        self.count(|v| matches!(v, Verdict::DischargedNormalize))
    }

    /// Discharged by differential evaluation.
    pub fn discharged_differential(&self) -> usize {
        self.count(|v| matches!(v, Verdict::DischargedDifferential { .. }))
    }

    /// Obligations left inconclusive.
    pub fn inconclusive(&self) -> usize {
        self.count(|v| matches!(v, Verdict::Inconclusive { .. }))
    }

    /// Obligations refuted by a counterexample.
    pub fn counterexamples(&self) -> usize {
        self.count(|v| matches!(v, Verdict::Counterexample { .. }))
    }

    /// True when every obligation is proven.
    pub fn all_discharged(&self) -> bool {
        self.outcomes.iter().all(|o| o.verdict.is_discharged())
    }

    fn count(&self, f: impl Fn(&Verdict) -> bool) -> usize {
        self.outcomes.iter().filter(|o| f(&o.verdict)).count()
    }

    /// Render undischarged obligations as diagnostics: counterexamples as
    /// hard `E007` errors, inconclusive obligations as `W006` advisories.
    /// `span_of` maps an origin statement to a source span when known.
    pub fn diagnostics(
        &self,
        dag: &EeDag,
        span_of: &dyn Fn(StmtId) -> Option<Span>,
    ) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for o in &self.outcomes {
            let span = o
                .obligation
                .origin
                .and_then(|(s, _)| span_of(s))
                .unwrap_or_default();
            match &o.verdict {
                Verdict::Counterexample { detail } => {
                    let mut d = Diagnostic::new(
                        Code::CertCounterexample,
                        span,
                        format!(
                            "rewrite `{}` failed certification: a counterexample database \
                             distinguishes the two sides",
                            o.obligation.rule
                        ),
                    )
                    .with_note(detail.clone())
                    .with_note(format!("before: {}", dag.display(o.obligation.before)))
                    .with_note(format!("after: {}", dag.display(o.obligation.after)))
                    .with_pass("certify");
                    if let Some((_, var)) = o.obligation.origin {
                        d = d.with_var(var.as_str());
                    }
                    out.push(d);
                }
                Verdict::Inconclusive { reason } => {
                    let mut d = Diagnostic::new(
                        Code::CertInconclusive,
                        span,
                        format!(
                            "rewrite `{}` could not be certified: no conclusive check",
                            o.obligation.rule
                        ),
                    )
                    .with_note(reason.clone())
                    .with_pass("certify");
                    if let Some((_, var)) = o.obligation.origin {
                        d = d.with_var(var.as_str());
                    }
                    out.push(d);
                }
                _ => {}
            }
        }
        out
    }
}

/// The obligation checker. Stateless between obligations; all trials are
/// derived deterministically from `seed`.
pub struct Certifier<'a> {
    catalog: &'a Catalog,
    /// Base seed for database generation and input assignment.
    pub seed: u64,
    /// Row counts per trial database (0 = empty database, always included).
    pub sizes: Vec<usize>,
    /// Repetitions (distinct seeds) per size.
    pub reps: u32,
}

impl<'a> Certifier<'a> {
    /// A certifier over the given catalog with the default trial family
    /// (sizes 0–3, two seeds each).
    pub fn new(catalog: &'a Catalog) -> Certifier<'a> {
        Certifier {
            catalog,
            seed: 0x5EED_CE27,
            sizes: vec![0, 1, 2, 3],
            reps: 2,
        }
    }

    /// Check every obligation and aggregate the outcomes.
    pub fn check_all(&self, dag: &mut EeDag, obligations: &[Obligation]) -> CertReport {
        let mut report = CertReport::default();
        for ob in obligations {
            let verdict = self.check(dag, ob);
            report.outcomes.push(CertOutcome {
                obligation: ob.clone(),
                verdict,
            });
        }
        report
    }

    /// Check a single obligation.
    pub fn check(&self, dag: &mut EeDag, ob: &Obligation) -> Verdict {
        match ob.kind {
            ObligationKind::FoldIntro => self.check_fold_intro(dag, ob),
            ObligationKind::Rewrite => {
                if nf(dag, ob.before) == nf(dag, ob.after) {
                    return Verdict::DischargedNormalize;
                }
                self.differential(dag, ob)
            }
        }
    }

    /// A fold introduction is certified by inverting the parameter
    /// substitution: `func[acc ↦ v₀, tuple ↦ cursor₀]` must reproduce the
    /// loop-body expression, and the fold's init must be the region input
    /// of the accumulated variable.
    fn check_fold_intro(&self, dag: &mut EeDag, ob: &Obligation) -> Verdict {
        let (func, init, cursor, var) = match dag.node(ob.after).clone() {
            Node::Fold {
                func,
                init,
                cursor,
                origin: (_, var),
                ..
            } => (func, init, cursor, var),
            // A dependent aggregation: the body must be
            // `?[key ⋛ v₀, value, w₀]` with the argmax pieces substituted
            // back over the cursor input.
            Node::ArgExtreme {
                is_max,
                key,
                value,
                v_init,
                w_init,
                cursor,
                ..
            } => {
                let mut memo = HashMap::new();
                // Only the tuple parameter was substituted for argmax; the
                // accumulator symbol plays no role.
                let key_u = unsubstitute_params(dag, key, None, Some(cursor), &mut memo);
                let val_u = unsubstitute_params(dag, value, None, Some(cursor), &mut memo);
                let cmp = if is_max { OpKind::Gt } else { OpKind::Lt };
                let cond = dag.op(cmp, vec![key_u, v_init]);
                let expect = dag.cond(cond, val_u, w_init);
                if expect == ob.before || nf(dag, expect) == nf(dag, ob.before) {
                    return Verdict::DischargedNormalize;
                }
                return Verdict::Inconclusive {
                    reason: format!(
                        "argmax reconstruction does not reproduce the loop body \
                         (got {}, expected {})",
                        dag.display(expect),
                        dag.display(ob.before)
                    ),
                };
            }
            _ => {
                return Verdict::Inconclusive {
                    reason: "fold-introduction obligation whose result is not a fold".into(),
                }
            }
        };
        let mut memo = HashMap::new();
        let unsub = unsubstitute_params(dag, func, Some(var), Some(cursor), &mut memo);
        let init_ok = matches!(dag.node(init), Node::Input(v) if *v == var);
        if unsub == ob.before && init_ok {
            return Verdict::DischargedNormalize;
        }
        // Structural mismatch can still be a semantic match (the converter
        // may have simplified); fall back to the normalizer.
        if init_ok && nf(dag, unsub) == nf(dag, ob.before) {
            return Verdict::DischargedNormalize;
        }
        Verdict::Inconclusive {
            reason: format!(
                "inverse substitution of the folding function does not reproduce the loop body \
                 (got {}, expected {})",
                dag.display(unsub),
                dag.display(ob.before)
            ),
        }
    }

    /// Evaluate both sides over generated micro-databases and random (but
    /// seeded) input assignments.
    fn differential(&self, dag: &EeDag, ob: &Obligation) -> Verdict {
        let tys = input_types(dag, &[ob.before, ob.after]);
        let (accs, tups) = param_usage(dag, &[ob.before, ob.after]);
        let mut conclusive = 0usize;
        let mut last_reason = String::from("no trials ran");
        for &size in &self.sizes {
            for rep in 0..self.reps {
                let tseed = self
                    .seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((size as u64) * 7919 + rep as u64 + 1);
                let db = gen_catalog(self.catalog, size, tseed);
                let mut rng = StdRng::seed_from_u64(tseed ^ 0x9E37_79B9_7F4A_7C15);
                let env = gen_inputs(&tys, size, &mut rng);
                let mut ev = Eval {
                    dag,
                    db: &db,
                    env: &env,
                    acc: gen_inputs(&accs, size, &mut rng),
                    tup: gen_params(&tups, self.catalog, &mut rng),
                };
                let a = ev.eval(ob.before);
                let b = ev.eval(ob.after);
                match (a, b) {
                    (Ok(va), Ok(vb)) => match cval_eq(&va, &vb) {
                        Some(true) => conclusive += 1,
                        Some(false) => {
                            return Verdict::Counterexample {
                                detail: format!(
                                    "trial: {size} rows/table, seed {tseed:#x}: \
                                     before = {va}, after = {vb}"
                                ),
                            }
                        }
                        None => {
                            last_reason = format!("values of incomparable shapes ({va} vs {vb})");
                        }
                    },
                    (Err(e), _) | (_, Err(e)) => last_reason = e,
                }
            }
        }
        if conclusive > 0 {
            Verdict::DischargedDifferential { trials: conclusive }
        } else {
            Verdict::Inconclusive {
                reason: last_reason,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 1: algebraic normalization
// ---------------------------------------------------------------------------

/// A canonical literal. Numbers are stored as `f64` bits with `-0`
/// normalized away so `Int(3)` and `F64(3.0)` coincide.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum CLit {
    Null,
    Bool(bool),
    Num(u64),
    Str(String),
}

impl CLit {
    fn num(f: f64) -> CLit {
        let f = if f == 0.0 { 0.0 } else { f };
        CLit::Num(f.to_bits())
    }

    fn from_lit(l: &Lit) -> CLit {
        match l {
            Lit::Null => CLit::Null,
            Lit::Bool(b) => CLit::Bool(*b),
            Lit::Int(i) => CLit::num(*i as f64),
            Lit::F64(v) => CLit::num(v.get()),
            Lit::Str(s) => CLit::Str(s.clone()),
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            CLit::Num(b) => Some(f64::from_bits(*b)),
            CLit::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }
}

/// Normal-form expressions: constants, atoms (inputs, parameters, whole
/// queries, folds), and operator applications with canonicalized argument
/// order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Nf {
    Const(CLit),
    Atom(String),
    App(String, Vec<Nf>),
}

/// Normalize a node. Sound but incomplete: equal normal forms imply
/// semantic equality; unequal normal forms imply nothing.
fn nf(dag: &EeDag, id: NodeId) -> Nf {
    match dag.node(id) {
        Node::Const(l) => Nf::Const(CLit::from_lit(l)),
        Node::Input(s) => Nf::Atom(format!("in:{s}")),
        Node::AccParam(s) => Nf::Atom(format!("acc:{s}")),
        Node::TupleParam(s) => Nf::Atom(format!("tup:{s}")),
        Node::EmptyColl(k) => Nf::Atom(format!("empty:{k:?}")),
        Node::NotDetermined => Nf::Atom("⊥".into()),
        // Atoms keyed by node identity: hash-consing guarantees identical
        // structure ⇔ identical id, so this is sound (never equates
        // distinct expressions) and cheap.
        Node::Fold { .. } | Node::ArgExtreme { .. } | Node::Opaque { .. } => {
            Nf::Atom(format!("#{}", id.0))
        }
        Node::FieldOf { base, field } => Nf::App(format!("field.{field}"), vec![nf(dag, *base)]),
        Node::Query { ra, params } => Nf::App(
            format!("query:{ra}"),
            params.iter().map(|p| nf(dag, *p)).collect(),
        ),
        Node::ScalarQuery { ra, params } => Nf::App(
            format!("squery:{ra}"),
            params.iter().map(|p| nf(dag, *p)).collect(),
        ),
        Node::Cond {
            cond,
            then_val,
            else_val,
        } => {
            let c = nf(dag, *cond);
            match c {
                Nf::Const(CLit::Bool(true)) => nf(dag, *then_val),
                Nf::Const(CLit::Bool(false)) => nf(dag, *else_val),
                _ => {
                    let t = nf(dag, *then_val);
                    let e = nf(dag, *else_val);
                    if t == e {
                        t
                    } else {
                        Nf::App("?".into(), vec![c, t, e])
                    }
                }
            }
        }
        Node::Op { op, args } => nf_op(*op, args.iter().map(|a| nf(dag, *a)).collect()),
    }
}

/// The identity element of a commutative/associative operator, when any.
fn identity_of(op: OpKind) -> Option<CLit> {
    match op {
        OpKind::Add => Some(CLit::num(0.0)),
        OpKind::Mul => Some(CLit::num(1.0)),
        OpKind::Or => Some(CLit::Bool(false)),
        OpKind::And => Some(CLit::Bool(true)),
        _ => None,
    }
}

fn is_ac(op: OpKind) -> bool {
    matches!(
        op,
        OpKind::Add | OpKind::Mul | OpKind::And | OpKind::Or | OpKind::Max | OpKind::Min
    )
}

fn nf_op(op: OpKind, mut args: Vec<Nf>) -> Nf {
    // a - b  ⇒  a + (-b), so subtraction joins the Add flattening.
    if op == OpKind::Sub && args.len() == 2 {
        let b = args.pop().unwrap();
        let a = args.pop().unwrap();
        return nf_op(OpKind::Add, vec![a, nf_op(OpKind::Neg, vec![b])]);
    }
    // Constant folding.
    if args.iter().all(|a| matches!(a, Nf::Const(_))) {
        let lits: Vec<CLit> = args
            .iter()
            .map(|a| match a {
                Nf::Const(l) => l.clone(),
                _ => unreachable!(),
            })
            .collect();
        if let Some(v) = fold_const(op, &lits) {
            return Nf::Const(v);
        }
    }
    match op {
        OpKind::Coalesce if args.len() == 2 => match &args[0] {
            Nf::Const(CLit::Null) => args.swap_remove(1),
            Nf::Const(_) => args.swap_remove(0),
            _ => Nf::App("Coalesce".into(), args),
        },
        OpKind::Not => match args.first() {
            Some(Nf::App(name, inner)) if name == "Not" && inner.len() == 1 => inner[0].clone(),
            _ => Nf::App("Not".into(), args),
        },
        OpKind::Neg => match args.first() {
            Some(Nf::App(name, inner)) if name == "Neg" && inner.len() == 1 => inner[0].clone(),
            _ => Nf::App("Neg".into(), args),
        },
        _ if is_ac(op) => {
            let name = format!("{op:?}");
            // Flatten nested applications of the same operator.
            let mut flat = Vec::with_capacity(args.len());
            for a in args {
                match a {
                    Nf::App(ref n, ref inner) if *n == name => flat.extend(inner.clone()),
                    other => flat.push(other),
                }
            }
            // Three-valued annihilators are sound: x AND false = false,
            // x OR true = true, even when x is NULL.
            if op == OpKind::And && flat.contains(&Nf::Const(CLit::Bool(false))) {
                return Nf::Const(CLit::Bool(false));
            }
            if op == OpKind::Or && flat.contains(&Nf::Const(CLit::Bool(true))) {
                return Nf::Const(CLit::Bool(true));
            }
            // Drop identity elements.
            if let Some(idl) = identity_of(op) {
                flat.retain(|a| *a != Nf::Const(idl.clone()));
                if flat.is_empty() {
                    return Nf::Const(idl);
                }
            }
            flat.sort();
            if flat.len() == 1 {
                return flat.pop().unwrap();
            }
            Nf::App(name, flat)
        }
        _ => Nf::App(format!("{op:?}"), args),
    }
}

/// Fold an operator over constant arguments, with SQL three-valued NULL
/// propagation. `None` when the fold is not defined (division by zero,
/// type mismatch …).
fn fold_const(op: OpKind, args: &[CLit]) -> Option<CLit> {
    use OpKind::*;
    let any_null = args.contains(&CLit::Null);
    match op {
        And => {
            if args.contains(&CLit::Bool(false)) {
                return Some(CLit::Bool(false));
            }
            if any_null {
                return Some(CLit::Null);
            }
            Some(CLit::Bool(args.iter().all(|a| *a == CLit::Bool(true))))
        }
        Or => {
            if args.contains(&CLit::Bool(true)) {
                return Some(CLit::Bool(true));
            }
            if any_null {
                return Some(CLit::Null);
            }
            Some(CLit::Bool(args.contains(&CLit::Bool(true))))
        }
        _ if any_null => Some(CLit::Null),
        Add | Sub | Mul | Div | Mod if args.len() == 2 => {
            let (a, b) = (args[0].as_f64()?, args[1].as_f64()?);
            let r = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return None;
                    }
                    a / b
                }
                Mod => {
                    if b == 0.0 {
                        return None;
                    }
                    a % b
                }
                _ => unreachable!(),
            };
            Some(CLit::num(r))
        }
        Eq | Ne | Lt | Le | Gt | Ge if args.len() == 2 => {
            let ord = match (&args[0], &args[1]) {
                (CLit::Str(a), CLit::Str(b)) => a.cmp(b),
                (a, b) => a.as_f64()?.partial_cmp(&b.as_f64()?)?,
            };
            let r = match op {
                Eq => ord.is_eq(),
                Ne => !ord.is_eq(),
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Some(CLit::Bool(r))
        }
        Not => match args.first()? {
            CLit::Bool(b) => Some(CLit::Bool(!b)),
            _ => None,
        },
        Neg => Some(CLit::num(-args.first()?.as_f64()?)),
        Abs => Some(CLit::num(args.first()?.as_f64()?.abs())),
        Max | Min if args.len() == 2 => {
            let (a, b) = (args[0].as_f64()?, args[1].as_f64()?);
            Some(CLit::num(if (op == Max) == (a >= b) { a } else { b }))
        }
        Concat if args.len() == 2 => match (&args[0], &args[1]) {
            (CLit::Str(a), CLit::Str(b)) => Some(CLit::Str(format!("{a}{b}"))),
            _ => None,
        },
        Lower => match args.first()? {
            CLit::Str(s) => Some(CLit::Str(s.to_lowercase())),
            _ => None,
        },
        Upper => match args.first()? {
            CLit::Str(s) => Some(CLit::Str(s.to_uppercase())),
            _ => None,
        },
        Length => match args.first()? {
            CLit::Str(s) => Some(CLit::num(s.chars().count() as f64)),
            _ => None,
        },
        Coalesce if args.len() == 2 => Some(args[0].clone()),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Fold-introduction inversion
// ---------------------------------------------------------------------------

/// Replace `AccParam(var)` by `Input(var)` and `TupleParam(cursor)` by
/// `Input(cursor)` throughout `id`, interning the rebuilt nodes. A nested
/// fold (or argmax) whose own binder reuses one of these symbols shadows
/// it inside its bound operands, so the substitution is suspended there
/// (`None`); the memo is keyed by the active binder context because the
/// same shared node can need different rewrites under different binders.
fn unsubstitute_params(
    dag: &mut EeDag,
    id: NodeId,
    var: Option<Symbol>,
    cursor: Option<Symbol>,
    memo: &mut HashMap<(NodeId, Option<Symbol>, Option<Symbol>), NodeId>,
) -> NodeId {
    if let Some(r) = memo.get(&(id, var, cursor)) {
        return *r;
    }
    // Under a bound operand: a fold binds its accumulator and cursor, an
    // argmax only its cursor. Init and source are outside the binder.
    let (bound_var, bound_cursor) = match dag.node(id) {
        Node::Fold {
            cursor: fc, origin, ..
        } => (var.filter(|v| *v != origin.1), cursor.filter(|c| c != fc)),
        Node::ArgExtreme { cursor: ac, .. } => (var, cursor.filter(|c| c != ac)),
        _ => (var, cursor),
    };
    let result = match *dag.node(id) {
        Node::AccParam(v) if Some(v) == var => dag.input(v),
        Node::TupleParam(c) if Some(c) == cursor => dag.input(c),
        _ => dag.rebuild(id, |dag, c, bound| {
            if bound {
                unsubstitute_params(dag, c, bound_var, bound_cursor, memo)
            } else {
                unsubstitute_params(dag, c, var, cursor, memo)
            }
        }),
    };
    memo.insert((id, var, cursor), result);
    result
}

// ---------------------------------------------------------------------------
// Layer 2: differential evaluation
// ---------------------------------------------------------------------------

/// A value of the certification evaluator: scalars, named rows, and
/// collections (compared as multisets).
#[derive(Debug, Clone)]
enum CVal {
    Scalar(Value),
    Row {
        fields: Vec<String>,
        vals: Vec<Value>,
    },
    Coll(Vec<CVal>),
}

impl std::fmt::Display for CVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CVal::Scalar(v) => write!(f, "{v}"),
            CVal::Row { vals, .. } => {
                write!(f, "(")?;
                for (i, v) in vals.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            CVal::Coll(rows) => {
                write!(f, "{{")?;
                for (i, r) in rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Flatten a scalar-ish value to a value vector, for positional comparison
/// (a fold's `pair[first, second]` vs. a query's two-column row).
fn flat(v: &CVal) -> Option<Vec<Value>> {
    match v {
        CVal::Scalar(x) => Some(vec![x.clone()]),
        CVal::Row { vals, .. } => Some(vals.clone()),
        CVal::Coll(_) => None,
    }
}

/// Structural equality: scalars/rows positionally with SQL grouping
/// semantics (`NULL` equals `NULL`), collections as multisets. `None` when
/// the shapes are incomparable.
fn cval_eq(a: &CVal, b: &CVal) -> Option<bool> {
    match (a, b) {
        (CVal::Coll(ra), CVal::Coll(rb)) => {
            if ra.len() != rb.len() {
                return Some(false);
            }
            let mut used = vec![false; rb.len()];
            for x in ra {
                let mut matched = false;
                for (j, y) in rb.iter().enumerate() {
                    if !used[j] && cval_eq(x, y) == Some(true) {
                        used[j] = true;
                        matched = true;
                        break;
                    }
                }
                if !matched {
                    return Some(false);
                }
            }
            Some(true)
        }
        (CVal::Coll(_), _) | (_, CVal::Coll(_)) => None,
        _ => {
            let (fa, fb) = (flat(a)?, flat(b)?);
            if fa.len() != fb.len() {
                return Some(false);
            }
            Some(fa.iter().zip(&fb).all(|(x, y)| x.group_eq(y)))
        }
    }
}

/// Inferred type of a free region input, from its operator context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InTy {
    Int,
    Bool,
    Str,
    Coll,
}

/// Infer input types from how each `Input` is used in the given roots.
fn input_types(dag: &EeDag, roots: &[NodeId]) -> BTreeMap<Symbol, InTy> {
    let mut tys: BTreeMap<Symbol, InTy> = BTreeMap::new();
    let note = |tys: &mut BTreeMap<Symbol, InTy>, dag: &EeDag, id: NodeId, ty: InTy| {
        if let Node::Input(s) = dag.node(id) {
            let cur = tys.entry(*s).or_insert(InTy::Int);
            // Specific contexts win over the Int default.
            if *cur == InTy::Int {
                *cur = ty;
            }
        }
    };
    for &root in roots {
        let _: ControlFlow<()> = dag.walk(root, |_, n| {
            match n {
                Node::Input(s) => {
                    tys.entry(*s).or_insert(InTy::Int);
                }
                Node::Op { op, args } => match op {
                    OpKind::And | OpKind::Or | OpKind::Not => {
                        for a in args.iter() {
                            note(&mut tys, dag, *a, InTy::Bool);
                        }
                    }
                    OpKind::Concat | OpKind::Lower | OpKind::Upper | OpKind::Length => {
                        for a in args.iter() {
                            note(&mut tys, dag, *a, InTy::Str);
                        }
                    }
                    OpKind::Append | OpKind::Insert | OpKind::MultisetInsert => {
                        if let Some(first) = args.iter().next() {
                            note(&mut tys, dag, *first, InTy::Coll);
                        }
                    }
                    _ => {}
                },
                Node::Cond { cond, .. } => note(&mut tys, dag, *cond, InTy::Bool),
                Node::Fold { source, .. } | Node::ArgExtreme { source, .. } => {
                    note(&mut tys, dag, *source, InTy::Coll)
                }
                _ => {}
            }
            ControlFlow::Continue(())
        });
    }
    tys
}

/// Generate a deterministic input assignment for one trial.
fn gen_inputs(
    tys: &BTreeMap<Symbol, InTy>,
    size: usize,
    rng: &mut StdRng,
) -> BTreeMap<Symbol, CVal> {
    let mut env = BTreeMap::new();
    for (&sym, &ty) in tys {
        let v = match ty {
            InTy::Int => CVal::Scalar(Value::Int(rng.gen_range(-2..6i64))),
            InTy::Bool => CVal::Scalar(Value::Bool(rng.gen_bool(0.5))),
            InTy::Str => CVal::Scalar(Value::Str(format!("s{}", rng.gen_range(0..3u32)))),
            InTy::Coll => {
                let n = size.min(3);
                CVal::Coll(
                    (0..n)
                        .map(|_| CVal::Scalar(Value::Int(rng.gen_range(-2..6i64))))
                        .collect(),
                )
            }
        };
        env.insert(sym, v);
    }
    env
}

/// Fold parameters occurring anywhere in the roots: accumulator symbols
/// (with a type guess from builder context) and tuple symbols with the
/// fields projected from each. A rewrite performed *inside* a folding
/// function leaves these free in the obligation, so trials must quantify
/// over them. Bound occurrences are collected too — harmless, because a
/// fold's own binding shadows the seeded value during evaluation.
fn param_usage(
    dag: &EeDag,
    roots: &[NodeId],
) -> (BTreeMap<Symbol, InTy>, BTreeMap<Symbol, BTreeSet<String>>) {
    let mut accs: BTreeMap<Symbol, InTy> = BTreeMap::new();
    let mut tups: BTreeMap<Symbol, BTreeSet<String>> = BTreeMap::new();
    for &root in roots {
        let _: ControlFlow<()> = dag.walk(root, |_, n| {
            match n {
                Node::AccParam(s) => {
                    accs.entry(*s).or_insert(InTy::Int);
                }
                Node::TupleParam(s) => {
                    tups.entry(*s).or_default();
                }
                Node::FieldOf { base, field } => {
                    if let Node::TupleParam(s) = dag.node(*base) {
                        tups.entry(*s).or_default().insert(field.to_string());
                    }
                }
                Node::Op {
                    op: OpKind::Append | OpKind::Insert | OpKind::MultisetInsert,
                    args,
                } => {
                    if let Some(&first) = args.iter().next() {
                        if let Node::AccParam(s) = dag.node(first) {
                            accs.insert(*s, InTy::Coll);
                        }
                    }
                }
                _ => {}
            }
            ControlFlow::Continue(())
        });
    }
    (accs, tups)
}

/// Seed values for free fold parameters: accumulators like ordinary
/// inputs; tuple parameters as rows carrying the projected fields, typed
/// from the catalog when a column of that name exists anywhere in it.
fn gen_params(
    tups: &BTreeMap<Symbol, BTreeSet<String>>,
    catalog: &Catalog,
    rng: &mut StdRng,
) -> BTreeMap<Symbol, CVal> {
    let mut env = BTreeMap::new();
    for (&sym, fields) in tups {
        let v = if fields.is_empty() {
            CVal::Scalar(Value::Int(rng.gen_range(-2..6i64)))
        } else {
            let fields: Vec<String> = fields.iter().cloned().collect();
            let vals = fields
                .iter()
                .map(|f| {
                    let ty = catalog
                        .tables()
                        .find_map(|t| t.columns.iter().find(|c| c.name == *f).map(|c| c.ty));
                    match ty {
                        Some(SqlType::Text) => Value::Str(format!("s{}", rng.gen_range(0..3u32))),
                        Some(SqlType::Bool) => Value::Bool(rng.gen_bool(0.5)),
                        _ => Value::Int(rng.gen_range(-2..6i64)),
                    }
                })
                .collect();
            CVal::Row { fields, vals }
        };
        env.insert(sym, v);
    }
    env
}

/// The differential evaluator: a direct interpreter for ee-DAG value
/// expressions over a concrete database and input assignment.
struct Eval<'a> {
    dag: &'a EeDag,
    db: &'a Database,
    env: &'a BTreeMap<Symbol, CVal>,
    /// Accumulator bindings of the folds currently being iterated.
    acc: BTreeMap<Symbol, CVal>,
    /// Tuple bindings of the folds currently being iterated.
    tup: BTreeMap<Symbol, CVal>,
}

impl Eval<'_> {
    fn eval(&mut self, id: NodeId) -> Result<CVal, String> {
        match self.dag.node(id).clone() {
            Node::Const(l) => Ok(CVal::Scalar(Value::from_lit(&l))),
            Node::Input(s) => self
                .env
                .get(&s)
                .cloned()
                .ok_or_else(|| format!("unbound input {s}")),
            Node::AccParam(s) => self
                .acc
                .get(&s)
                .cloned()
                .ok_or_else(|| format!("accumulator parameter {s} outside a fold")),
            Node::TupleParam(s) => self
                .tup
                .get(&s)
                .cloned()
                .ok_or_else(|| format!("tuple parameter {s} outside a fold")),
            Node::EmptyColl(_) => Ok(CVal::Coll(Vec::new())),
            Node::NotDetermined => Err("not-determined node".into()),
            Node::Opaque { reason, .. } => Err(format!("opaque node ({reason})")),
            Node::FieldOf { base, field } => {
                let b = self.eval(base)?;
                match b {
                    CVal::Row { fields, vals } => fields
                        .iter()
                        .position(|f| *f == field.as_str())
                        .map(|i| CVal::Scalar(vals[i].clone()))
                        .ok_or_else(|| format!("row has no field {field}")),
                    _ => Err(format!("field access .{field} on a non-row value")),
                }
            }
            Node::Cond {
                cond,
                then_val,
                else_val,
            } => match self.scalar(cond)? {
                Value::Bool(true) => self.eval(then_val),
                Value::Bool(false) => self.eval(else_val),
                Value::Null => Err("NULL branch condition".into()),
                v => Err(format!("non-boolean branch condition {v}")),
            },
            Node::Query { ra, ref params } => {
                let ps = self.param_values(params)?;
                let rel = dbms::eval_query(&ra, self.db, &ps)
                    .map_err(|e| format!("query evaluation failed: {e:?}"))?;
                let fields: Vec<String> = rel.fields.iter().map(|f| f.name.clone()).collect();
                Ok(CVal::Coll(
                    rel.rows
                        .into_iter()
                        .map(|r| CVal::Row {
                            fields: fields.clone(),
                            vals: r,
                        })
                        .collect(),
                ))
            }
            Node::ScalarQuery { ra, ref params } => {
                let ps = self.param_values(params)?;
                let rel = dbms::eval_query(&ra, self.db, &ps)
                    .map_err(|e| format!("scalar query evaluation failed: {e:?}"))?;
                Ok(CVal::Scalar(match rel.rows.first() {
                    Some(row) => row.first().cloned().unwrap_or(Value::Null),
                    None => Value::Null,
                }))
            }
            Node::Fold {
                func,
                init,
                source,
                cursor,
                origin: (_, var),
            } => {
                let src = self.coll(source)?;
                let mut acc = self.eval(init)?;
                for elem in src {
                    let old_acc = self.acc.insert(var, acc);
                    let old_tup = self.tup.insert(cursor, elem);
                    let next = self.eval(func);
                    restore(&mut self.acc, var, old_acc);
                    restore(&mut self.tup, cursor, old_tup);
                    acc = next?;
                }
                Ok(acc)
            }
            Node::ArgExtreme {
                source,
                is_max,
                key,
                value,
                v_init,
                w_init,
                cursor,
                ..
            } => {
                let src = self.coll(source)?;
                let mut bound = self.scalar(v_init)?;
                let mut best = self.eval(w_init)?;
                for elem in src {
                    let old_tup = self.tup.insert(cursor, elem);
                    let k = self.scalar(key);
                    let beats = match &k {
                        Ok(kv) => match kv.sql_cmp(&bound) {
                            Some(ord) => (is_max && ord.is_gt()) || (!is_max && ord.is_lt()),
                            None => false,
                        },
                        Err(_) => false,
                    };
                    let picked = if beats { Some(self.eval(value)) } else { None };
                    restore(&mut self.tup, cursor, old_tup);
                    let k = k?;
                    if beats {
                        bound = k;
                        best = picked.unwrap()?;
                    }
                }
                Ok(best)
            }
            Node::Op { op, ref args } => self.op(op, args),
        }
    }

    /// Evaluate to a scalar `Value` (unwrapping one-column rows).
    fn scalar(&mut self, id: NodeId) -> Result<Value, String> {
        match self.eval(id)? {
            CVal::Scalar(v) => Ok(v),
            CVal::Row { vals, .. } if vals.len() == 1 => Ok(vals[0].clone()),
            other => Err(format!("expected a scalar, got {other}")),
        }
    }

    /// Evaluate to a collection.
    fn coll(&mut self, id: NodeId) -> Result<Vec<CVal>, String> {
        match self.eval(id)? {
            CVal::Coll(rows) => Ok(rows),
            other => Err(format!("expected a collection, got {other}")),
        }
    }

    fn param_values(&mut self, params: &NodeList) -> Result<Vec<Value>, String> {
        params.iter().map(|p| self.scalar(*p)).collect()
    }

    fn op(&mut self, op: OpKind, args: &NodeList) -> Result<CVal, String> {
        use OpKind::*;
        // Collection builders first: their first argument is not a scalar.
        match op {
            Append | MultisetInsert | Insert => {
                let ids = args.as_slice();
                if ids.len() != 2 {
                    return Err(format!("{op:?} expects two operands"));
                }
                let mut c = self.coll(ids[0])?;
                let e = self.eval(ids[1])?;
                if op == Insert && c.iter().any(|x| cval_eq(x, &e) == Some(true)) {
                    return Ok(CVal::Coll(c));
                }
                c.push(e);
                return Ok(CVal::Coll(c));
            }
            Pair => {
                let ids = args.as_slice();
                if ids.len() != 2 {
                    return Err("pair expects two operands".into());
                }
                let a = self.scalar(ids[0])?;
                let b = self.scalar(ids[1])?;
                return Ok(CVal::Row {
                    fields: vec!["first".into(), "second".into()],
                    vals: vec![a, b],
                });
            }
            _ => {}
        }
        let vals: Vec<Value> = args
            .iter()
            .map(|a| self.scalar(*a))
            .collect::<Result<_, _>>()?;
        let bin = |b: BinOp, vals: &[Value]| -> Result<CVal, String> {
            if vals.len() != 2 {
                return Err(format!("{b:?} expects two operands"));
            }
            eval_binop(b, vals[0].clone(), vals[1].clone())
                .map(CVal::Scalar)
                .map_err(|e| format!("operator evaluation failed: {e:?}"))
        };
        match op {
            Add => bin(BinOp::Add, &vals),
            Sub => bin(BinOp::Sub, &vals),
            Mul => bin(BinOp::Mul, &vals),
            Div => bin(BinOp::Div, &vals),
            Mod => bin(BinOp::Mod, &vals),
            Eq => bin(BinOp::Eq, &vals),
            Ne => bin(BinOp::Ne, &vals),
            Lt => bin(BinOp::Lt, &vals),
            Le => bin(BinOp::Le, &vals),
            Gt => bin(BinOp::Gt, &vals),
            Ge => bin(BinOp::Ge, &vals),
            And => Ok(CVal::Scalar(vals.iter().fold(
                Value::Bool(true),
                |a, b| match (a, b) {
                    (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
                    (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                    _ => Value::Null,
                },
            ))),
            Or => Ok(CVal::Scalar(vals.iter().fold(
                Value::Bool(false),
                |a, b| match (a, b) {
                    (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
                    (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                    _ => Value::Null,
                },
            ))),
            Not => match vals.first() {
                Some(Value::Bool(b)) => Ok(CVal::Scalar(Value::Bool(!b))),
                Some(Value::Null) => Ok(CVal::Scalar(Value::Null)),
                _ => Err("NOT of a non-boolean".into()),
            },
            Neg => match vals.first() {
                Some(Value::Null) => Ok(CVal::Scalar(Value::Null)),
                Some(Value::Int(i)) => Ok(CVal::Scalar(Value::Int(-i))),
                Some(v) => v
                    .as_f64()
                    .map(|f| CVal::Scalar(Value::Float(-f)))
                    .ok_or_else(|| "negation of a non-number".into()),
                None => Err("negation without operand".into()),
            },
            Abs => match vals.first() {
                Some(Value::Null) => Ok(CVal::Scalar(Value::Null)),
                Some(Value::Int(i)) => Ok(CVal::Scalar(Value::Int(i.abs()))),
                Some(v) => v
                    .as_f64()
                    .map(|f| CVal::Scalar(Value::Float(f.abs())))
                    .ok_or_else(|| "abs of a non-number".into()),
                None => Err("abs without operand".into()),
            },
            Max | Min => {
                if vals.len() != 2 {
                    return Err(format!("{op:?} expects two operands"));
                }
                if vals[0].is_null() || vals[1].is_null() {
                    return Ok(CVal::Scalar(Value::Null));
                }
                let ord = vals[0]
                    .sql_cmp(&vals[1])
                    .ok_or_else(|| "incomparable operands".to_string())?;
                let first = (op == Max) == ord.is_ge();
                Ok(CVal::Scalar(if first {
                    vals[0].clone()
                } else {
                    vals[1].clone()
                }))
            }
            Concat => {
                if vals.iter().any(Value::is_null) {
                    return Ok(CVal::Scalar(Value::Null));
                }
                Ok(CVal::Scalar(Value::Str(
                    vals.iter().map(|v| v.to_string()).collect(),
                )))
            }
            Lower | Upper => match vals.first() {
                Some(Value::Null) => Ok(CVal::Scalar(Value::Null)),
                Some(Value::Str(s)) => Ok(CVal::Scalar(Value::Str(if op == Lower {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                }))),
                _ => Err("case conversion of a non-string".into()),
            },
            Length => match vals.first() {
                Some(Value::Null) => Ok(CVal::Scalar(Value::Null)),
                Some(Value::Str(s)) => Ok(CVal::Scalar(Value::Int(s.chars().count() as i64))),
                _ => Err("length of a non-string".into()),
            },
            Coalesce => Ok(CVal::Scalar(
                vals.iter()
                    .find(|v| !v.is_null())
                    .cloned()
                    .unwrap_or(Value::Null),
            )),
            Append | Insert | MultisetInsert | Pair => unreachable!("handled above"),
        }
    }
}

fn restore(map: &mut BTreeMap<Symbol, CVal>, key: Symbol, old: Option<CVal>) {
    match old {
        Some(v) => {
            map.insert(key, v);
        }
        None => {
            map.remove(&key);
        }
    }
}

// ===========================================================================
// foreach-dml certification (DESIGN.md §5i): differential *state*
// comparison. Unlike value obligations, a DML rewrite is judged by the
// final database contents: the original loop and the extracted statement
// each run — through the reference interpreter, so both sides use the real
// executors — on clones of a seeded micro-database, and every table must
// end as the same multiset of rows.
// ===========================================================================

/// A differential obligation for a foreach-dml rewrite: two single-function
/// programs over the same parameter list. `orig` contains the driving query
/// and the untouched loop body; `batch` contains only the extracted
/// set-oriented DML statement.
#[derive(Debug, Clone)]
pub struct DmlObligation {
    /// Program running the original loop.
    pub orig: imp::ast::Program,
    /// Program running the extracted statement.
    pub batch: imp::ast::Program,
    /// Entry-function name (the same in both programs).
    pub entry: String,
    /// Shared parameter list; trials quantify over these.
    pub params: Vec<Symbol>,
}

/// Canonical database state: per-table sorted row multiset.
fn db_state(db: &Database) -> BTreeMap<String, Vec<Vec<Value>>> {
    let mut out = BTreeMap::new();
    for schema in db.catalog().tables() {
        let Some(t) = db.table(&schema.name) else {
            continue;
        };
        let mut rows = t.rows_vec();
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.sort_cmp(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out.insert(schema.name.clone(), rows);
    }
    out
}

/// First table whose final contents differ, with a one-line description.
fn db_diff(a: &Database, b: &Database) -> Option<String> {
    let sa = db_state(a);
    let sb = db_state(b);
    for (name, ra) in &sa {
        let rb = sb.get(name)?;
        if ra.len() != rb.len() {
            return Some(format!(
                "table `{name}`: {} rows (loop) vs {} rows (statement)",
                ra.len(),
                rb.len()
            ));
        }
        for (x, y) in ra.iter().zip(rb.iter()) {
            let same = x.len() == y.len() && x.iter().zip(y.iter()).all(|(u, v)| u.group_eq(v));
            if !same {
                return Some(format!(
                    "table `{name}`: row {x:?} (loop) vs {y:?} (statement)"
                ));
            }
        }
    }
    None
}

/// Run one side on its own copy of the trial database; returns the final
/// database state.
fn run_dml_side(
    program: &imp::ast::Program,
    entry: &str,
    db: Database,
    args: &[interp::RtValue],
) -> Result<Database, interp::RtError> {
    let mut it = interp::Interp::new(program, dbms::Connection::new(db));
    it.call(entry, args.to_vec())?;
    Ok(std::mem::take(&mut it.conn.db))
}

impl Certifier<'_> {
    /// Certify a foreach-dml rewrite differentially. Every conclusive
    /// trial must leave both databases in the same state; a disagreement
    /// is a counterexample (the loop is kept, `E007` + `W010`), and trials
    /// that fail to evaluate leave the obligation inconclusive (`W006`).
    pub fn check_dml(&self, ob: &DmlObligation) -> Verdict {
        let mut conclusive = 0usize;
        let mut last_reason = String::from("no trials ran");
        for &size in &self.sizes {
            for rep in 0..self.reps {
                let tseed = self
                    .seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((size as u64) * 7919 + rep as u64 + 1);
                // NULL-bearing data (for columns the catalog declares
                // nullable) so NULL-key and NULL-guard divergence shows up.
                let db = dbms::gen::gen_catalog_nulls(self.catalog, size, tseed, 25);
                let mut rng = StdRng::seed_from_u64(tseed ^ 0x9E37_79B9_7F4A_7C15);
                let args: Vec<interp::RtValue> = ob
                    .params
                    .iter()
                    .map(|_| interp::RtValue::Scalar(Value::Int(rng.gen_range(-2..6i64))))
                    .collect();
                let ra = run_dml_side(&ob.orig, &ob.entry, db.clone(), &args);
                let rb = run_dml_side(&ob.batch, &ob.entry, db, &args);
                match (ra, rb) {
                    (Ok(da), Ok(dbb)) => match db_diff(&da, &dbb) {
                        None => conclusive += 1,
                        Some(diff) => {
                            return Verdict::Counterexample {
                                detail: format!(
                                    "trial: {size} rows/table, seed {tseed:#x}: {diff}"
                                ),
                            }
                        }
                    },
                    (Err(e), _) | (_, Err(e)) => {
                        last_reason = format!("trial did not evaluate: {e}");
                    }
                }
            }
        }
        if conclusive > 0 {
            Verdict::DischargedDifferential { trials: conclusive }
        } else {
            Verdict::Inconclusive {
                reason: last_reason,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eedag::CollKind;
    use algebra::parse::parse_sql;
    use algebra::schema::{SqlType, TableSchema};

    fn catalog() -> Catalog {
        Catalog::new().with(
            TableSchema::new("t", &[("id", SqlType::Int), ("grp", SqlType::Int)]).with_key(&["id"]),
        )
    }

    #[test]
    fn normalizer_discharges_commuted_addition() {
        let cat = catalog();
        let mut dag = EeDag::new();
        let a = dag.input("a");
        let b = dag.input("b");
        let ab = dag.op(OpKind::Add, vec![a, b]);
        let ba = dag.op(OpKind::Add, vec![b, a]);
        let v = Certifier::new(&cat).check(&mut dag, &Obligation::rewrite("test", ab, ba));
        assert_eq!(v, Verdict::DischargedNormalize);
    }

    #[test]
    fn normalizer_discharges_identity_elimination() {
        let cat = catalog();
        let mut dag = EeDag::new();
        let x = dag.input("x");
        let zero = dag.int(0);
        let x0 = dag.op(OpKind::Add, vec![x, zero]);
        let v = Certifier::new(&cat).check(&mut dag, &Obligation::rewrite("test", x0, x));
        assert_eq!(v, Verdict::DischargedNormalize);
        // Subtraction canonicalizes through Add: (x - 0) ≡ x.
        let xm0 = dag.op(OpKind::Sub, vec![x, zero]);
        let v = Certifier::new(&cat).check(&mut dag, &Obligation::rewrite("test", xm0, x));
        assert_eq!(v, Verdict::DischargedNormalize);
    }

    #[test]
    fn differential_discharges_doubling() {
        let cat = catalog();
        let mut dag = EeDag::new();
        let x = dag.input("x");
        let two = dag.int(2);
        let mul = dag.op(OpKind::Mul, vec![x, two]);
        let add = dag.op(OpKind::Add, vec![x, x]);
        let v = Certifier::new(&cat).check(&mut dag, &Obligation::rewrite("test", mul, add));
        assert!(
            matches!(v, Verdict::DischargedDifferential { trials } if trials > 0),
            "{v:?}"
        );
    }

    #[test]
    fn differential_finds_counterexample() {
        let cat = catalog();
        let mut dag = EeDag::new();
        let x = dag.input("x");
        let one = dag.int(1);
        let x1 = dag.op(OpKind::Add, vec![x, one]);
        let v = Certifier::new(&cat).check(&mut dag, &Obligation::rewrite("bogus", x, x1));
        assert!(matches!(v, Verdict::Counterexample { .. }), "{v:?}");
    }

    #[test]
    fn sum_fold_agrees_with_sql_sum() {
        let cat = catalog();
        let mut dag = EeDag::new();
        let q = parse_sql("SELECT grp FROM t").unwrap();
        let source = dag.intern(Node::Query {
            ra: q,
            params: NodeList::new(),
        });
        let acc = dag.intern(Node::AccParam(Symbol::intern("s")));
        let tup = dag.intern(Node::TupleParam(Symbol::intern("r")));
        let field = dag.intern(Node::FieldOf {
            base: tup,
            field: Symbol::intern("grp"),
        });
        let func = dag.op(OpKind::Add, vec![acc, field]);
        let zero = dag.int(0);
        let fold = dag.intern(Node::Fold {
            func,
            init: zero,
            source,
            cursor: Symbol::intern("r"),
            origin: (StmtId(0), Symbol::intern("s")),
        });
        let sq = parse_sql("SELECT SUM(grp) AS s FROM t").unwrap();
        let scalar = dag.intern(Node::ScalarQuery {
            ra: sq,
            params: NodeList::new(),
        });
        let after = dag.op(OpKind::Coalesce, vec![scalar, zero]);
        let v = Certifier::new(&cat).check(&mut dag, &Obligation::rewrite("T5.1-sum", fold, after));
        assert!(
            matches!(v, Verdict::DischargedDifferential { trials } if trials > 0),
            "{v:?}"
        );
    }

    #[test]
    fn fold_intro_discharged_by_inverse_substitution() {
        let cat = catalog();
        let mut dag = EeDag::new();
        let v_sym = Symbol::intern("total");
        let c_sym = Symbol::intern("row");
        let acc = dag.intern(Node::AccParam(v_sym));
        let one = dag.int(1);
        let func = dag.op(OpKind::Add, vec![acc, one]);
        let init = dag.input(v_sym);
        let source = dag.intern(Node::EmptyColl(CollKind::List));
        let fold = dag.intern(Node::Fold {
            func,
            init,
            source,
            cursor: c_sym,
            origin: (StmtId(3), v_sym),
        });
        let total0 = dag.input(v_sym);
        let body = dag.op(OpKind::Add, vec![total0, one]);
        let ob = Obligation::fold_intro(body, fold, (StmtId(3), v_sym));
        let v = Certifier::new(&cat).check(&mut dag, &ob);
        assert_eq!(v, Verdict::DischargedNormalize);
    }

    #[test]
    fn opaque_sides_are_inconclusive_not_certified() {
        let cat = catalog();
        let mut dag = EeDag::new();
        let a = dag.opaque("callA", Vec::<NodeId>::new());
        let b = dag.opaque("callB", Vec::<NodeId>::new());
        let v = Certifier::new(&cat).check(&mut dag, &Obligation::rewrite("test", a, b));
        assert!(matches!(v, Verdict::Inconclusive { .. }), "{v:?}");
    }

    #[test]
    fn report_renders_e007_and_w006() {
        let cat = catalog();
        let mut dag = EeDag::new();
        let x = dag.input("x");
        let one = dag.int(1);
        let x1 = dag.op(OpKind::Add, vec![x, one]);
        let op_a = dag.opaque("callA", Vec::<NodeId>::new());
        let op_b = dag.opaque("callB", Vec::<NodeId>::new());
        let obs = vec![
            Obligation::rewrite("bogus", x, x1),
            Obligation::rewrite("fuzzy", op_a, op_b),
            Obligation::rewrite("fine", x, x),
        ];
        let report = Certifier::new(&cat).check_all(&mut dag, &obs);
        assert_eq!(report.total(), 3);
        assert_eq!(report.counterexamples(), 1);
        assert_eq!(report.inconclusive(), 1);
        assert_eq!(report.discharged_normalize(), 1);
        assert!(!report.all_discharged());
        let diags = report.diagnostics(&dag, &|_| None);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].code, Code::CertCounterexample);
        assert_eq!(diags[1].code, Code::CertInconclusive);
    }

    #[test]
    fn multiset_comparison_ignores_row_order() {
        let a = CVal::Coll(vec![
            CVal::Scalar(Value::Int(1)),
            CVal::Scalar(Value::Int(2)),
        ]);
        let b = CVal::Coll(vec![
            CVal::Scalar(Value::Int(2)),
            CVal::Scalar(Value::Int(1)),
        ]);
        assert_eq!(cval_eq(&a, &b), Some(true));
        let c = CVal::Coll(vec![
            CVal::Scalar(Value::Int(1)),
            CVal::Scalar(Value::Int(1)),
        ]);
        assert_eq!(cval_eq(&a, &c), Some(false));
    }
}
