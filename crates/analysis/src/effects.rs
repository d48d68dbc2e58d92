//! Interprocedural effect-summary analysis.
//!
//! Upgrades the boolean pure-set of [`crate::purity`] to a per-function
//! *effect summary*: which external effects a function can perform
//! (database read/write, console output), whether it reads or writes heap
//! state reachable from its parameters (parameter escape), and — when it
//! does mutate — exactly *which* parameters escape. Summaries are computed
//! by a joint fixpoint over the user-function call graph
//! ([`crate::callgraph`]): the effect lattice is a finite powerset, joins
//! are monotone, so iteration terminates even for (mutually) recursive
//! functions — strictly more precise than the old "recursive ⇒ impure"
//! rule combined with "any unknown call ⇒ external write".
//!
//! The def/use analysis consults these summaries (via
//! [`crate::defuse::DefUseCtx`]) so a helper that only *reads* the
//! database no longer counts as an external **write** — precondition P3
//! (no external writes in the slice) admits strictly more loops, and every
//! rejection can name the offending effect instead of a generic
//! "unknown call".
//!
//! Builtin classification comes from the shared table in
//! [`imp::ast::builtins`] — one source of truth for this module, `defuse`,
//! and `purity`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use intern::Symbol;

use imp::ast::{builtins, Block, Expr, Function, Program, StmtKind};

use crate::callgraph::CallGraph;

/// A set of external effects — the lattice element. Bottom (`empty`) means
/// "provably none of these effects"; join is set union.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EffectSet(pub u8);

impl EffectSet {
    /// Reads the database.
    pub const DB_READ: EffectSet = EffectSet(1);
    /// Writes the database.
    pub const DB_WRITE: EffectSet = EffectSet(1 << 1);
    /// Writes to the console (`print`).
    pub const OUTPUT: EffectSet = EffectSet(1 << 2);
    /// Reads heap state reachable from a parameter (collection reads).
    pub const READ: EffectSet = EffectSet(1 << 3);
    /// Writes heap state reachable from a parameter (collection mutation).
    pub const WRITE: EffectSet = EffectSet(1 << 4);
    /// Calls something the analysis cannot see (unknown function or
    /// method) — conservatively implies every other effect.
    pub const UNKNOWN: EffectSet = EffectSet(1 << 5);

    /// The empty set (lattice bottom).
    pub fn empty() -> EffectSet {
        EffectSet(0)
    }

    /// Every bit set (lattice top).
    pub fn top() -> EffectSet {
        EffectSet(0b11_1111)
    }

    /// Set union (the lattice join).
    #[must_use]
    pub fn join(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// Does this set contain every effect in `other`?
    pub fn contains(self, other: EffectSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Is this the empty set?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for EffectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        for (bit, name) in [
            (EffectSet::DB_READ, "db-read"),
            (EffectSet::DB_WRITE, "db-write"),
            (EffectSet::OUTPUT, "output"),
            (EffectSet::READ, "read"),
            (EffectSet::WRITE, "write"),
            (EffectSet::UNKNOWN, "unknown-call"),
        ] {
            if self.contains(bit) {
                names.push(name);
            }
        }
        if names.is_empty() {
            write!(f, "pure")
        } else {
            write!(f, "{}", names.join("+"))
        }
    }
}

/// The effect summary of one function: its effect set plus per-parameter
/// escape masks (bit `i` set ⇔ parameter `i` escapes that way).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectSummary {
    /// External effects the function may perform.
    pub effects: EffectSet,
    /// Parameters whose reachable heap state may be *read* (collection
    /// reads through the parameter).
    pub reads_params: u32,
    /// Parameters whose reachable heap state may be *mutated*.
    pub mutates_params: u32,
}

impl EffectSummary {
    /// The bottom summary: provably effect-free.
    pub fn pure() -> EffectSummary {
        EffectSummary::default()
    }

    /// The top summary: assume everything (unknown callee).
    pub fn unknown() -> EffectSummary {
        EffectSummary {
            effects: EffectSet::top(),
            reads_params: u32::MAX,
            mutates_params: u32::MAX,
        }
    }

    /// Lattice join (pointwise union).
    #[must_use]
    pub fn join(&self, other: &EffectSummary) -> EffectSummary {
        EffectSummary {
            effects: self.effects.join(other.effects),
            reads_params: self.reads_params | other.reads_params,
            mutates_params: self.mutates_params | other.mutates_params,
        }
    }

    /// Partial order: is every effect of `self` also in `other`?
    pub fn le(&self, other: &EffectSummary) -> bool {
        other.effects.contains(self.effects)
            && self.reads_params & !other.reads_params == 0
            && self.mutates_params & !other.mutates_params == 0
    }

    /// Does the function mutate heap state reachable from parameter `i`?
    pub fn mutates_param(&self, i: usize) -> bool {
        i < 32 && self.mutates_params & (1 << i) != 0
    }

    /// `effects ⊑ pure` in the sense of the legacy boolean analysis: no
    /// database access, no output, no unknown calls. Receiver-local
    /// collection mutation (the `READ`/`WRITE` heap bits and the parameter
    /// masks) is deliberately *not* counted, so `c.add(x)` is pure
    /// regardless of where `c` came from.
    pub fn is_externally_pure(&self) -> bool {
        !self.effects.contains(EffectSet::DB_READ)
            && !self.effects.contains(EffectSet::DB_WRITE)
            && !self.effects.contains(EffectSet::OUTPUT)
            && !self.effects.contains(EffectSet::UNKNOWN)
    }

    /// Does the function write any *external* location (database, console,
    /// or unknown)? This is what precondition P3 cares about — database
    /// reads deliberately don't count.
    pub fn writes_external(&self) -> bool {
        self.effects.contains(EffectSet::DB_WRITE)
            || self.effects.contains(EffectSet::OUTPUT)
            || self.effects.contains(EffectSet::UNKNOWN)
    }

    /// Name the first effect that makes [`EffectSummary::writes_external`]
    /// true, for diagnostics ("rejection names the offending effect").
    pub fn offending_write(&self) -> Option<&'static str> {
        if self.effects.contains(EffectSet::DB_WRITE) {
            Some("writes the database")
        } else if self.effects.contains(EffectSet::OUTPUT) {
            Some("prints to the console")
        } else if self.effects.contains(EffectSet::UNKNOWN) {
            Some("calls code the analysis cannot see")
        } else {
            None
        }
    }
}

impl fmt::Display for EffectSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.effects)?;
        if self.mutates_params != 0 {
            let ps: Vec<String> = (0..32)
                .filter(|i| self.mutates_params & (1u32 << i) != 0)
                .map(|i| i.to_string())
                .collect();
            write!(f, " mutates-params[{}]", ps.join(","))?;
        }
        Ok(())
    }
}

/// Compute effect summaries for every user-defined function by callgraph
/// fixpoint. Deterministic: iteration order is the callgraph post-order,
/// the lattice is finite, and joins are monotone.
pub fn effect_summaries(p: &Program) -> BTreeMap<Symbol, EffectSummary> {
    let graph = CallGraph::build(p);
    let order = graph.postorder();
    let by_name: BTreeMap<Symbol, &Function> = p.functions.iter().map(|f| (f.name, f)).collect();
    let mut summaries: BTreeMap<Symbol, EffectSummary> =
        order.iter().map(|f| (*f, EffectSummary::pure())).collect();
    // Reverse edges: who must be re-evaluated when a callee's summary grows.
    let mut callers: BTreeMap<Symbol, Vec<Symbol>> = BTreeMap::new();
    for (f, cs) in &graph.callees {
        for c in cs {
            callers.entry(*c).or_default().push(*f);
        }
    }
    // Worklist fixpoint, seeded callees-first: an acyclic program converges
    // with exactly one evaluation per function; recursion re-enqueues
    // callers until their summaries stop growing (the lattice is finite and
    // the transfer function monotone, so this terminates).
    let mut queue: VecDeque<Symbol> = order.iter().copied().collect();
    let mut queued: BTreeSet<Symbol> = queue.iter().copied().collect();
    while let Some(name) = queue.pop_front() {
        queued.remove(&name);
        let Some(f) = by_name.get(&name) else {
            continue;
        };
        let next = summarize_function(f, &summaries);
        let cur = summaries.get_mut(&name).expect("seeded above");
        let joined = cur.join(&next);
        if *cur != joined {
            *cur = joined;
            for caller in callers.get(&name).into_iter().flatten() {
                if queued.insert(*caller) {
                    queue.push_back(*caller);
                }
            }
        }
    }
    summaries
}

/// One transfer-function evaluation of `f` under the current summaries.
fn summarize_function(f: &Function, summaries: &BTreeMap<Symbol, EffectSummary>) -> EffectSummary {
    let mut cx = FnCx {
        aliases: BTreeMap::new(),
        summaries,
        out: EffectSummary::pure(),
    };
    // Seed the param-alias map: each parameter aliases itself.
    for (i, p) in f.params.iter().enumerate() {
        if i < 32 {
            cx.aliases.insert(*p, 1u32 << i);
        }
    }
    cx.block(&f.body);
    cx.out
}

/// Per-function analysis state.
struct FnCx<'a> {
    /// For each variable, the set of parameters it may alias (bitmask).
    /// Grows monotonically over the (single) structural walk — good enough
    /// because `imp` has no backward jumps other than loops, which we walk
    /// twice to propagate loop-carried aliases.
    aliases: BTreeMap<Symbol, u32>,
    summaries: &'a BTreeMap<Symbol, EffectSummary>,
    out: EffectSummary,
}

impl FnCx<'_> {
    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            match &s.kind {
                StmtKind::Assign { target, value } => {
                    self.expr(value);
                    let mask = self.alias_mask(value);
                    if mask != 0 {
                        *self.aliases.entry(*target).or_insert(0) |= mask;
                    }
                }
                StmtKind::Expr(e) => self.expr(e),
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.expr(cond);
                    self.block(then_branch);
                    self.block(else_branch);
                }
                StmtKind::ForEach { iterable, body, .. } => {
                    self.expr(iterable);
                    // Two passes so aliases established late in the body
                    // apply to effects earlier in the next iteration.
                    self.block(body);
                    self.block(body);
                }
                StmtKind::While { cond, body } => {
                    self.expr(cond);
                    self.block(body);
                    self.block(body);
                }
                StmtKind::Return(v) => {
                    if let Some(e) = v {
                        self.expr(e);
                    }
                }
                StmtKind::Break | StmtKind::Continue => {}
                StmtKind::Print(args) => {
                    self.out.effects = self.out.effects.join(EffectSet::OUTPUT);
                    for a in args {
                        self.expr(a);
                    }
                }
            }
        }
    }

    /// Parameters a value-producing expression may alias.
    fn alias_mask(&self, e: &Expr) -> u32 {
        match e {
            Expr::Var(v) => self.aliases.get(v).copied().unwrap_or(0),
            Expr::Ternary(_, a, b) => self.alias_mask(a) | self.alias_mask(b),
            _ => 0,
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Lit(_) | Expr::Var(_) => {}
            Expr::Unary(_, x) => self.expr(x),
            Expr::Binary(_, l, r) => {
                self.expr(l);
                self.expr(r);
            }
            Expr::Ternary(c, a, b) => {
                self.expr(c);
                self.expr(a);
                self.expr(b);
            }
            Expr::Field(o, _) => self.expr(o),
            Expr::Call { name, args } => {
                for a in args {
                    self.expr(a);
                }
                self.call(name.as_str(), args);
            }
            Expr::MethodCall { recv, name, args } => {
                self.expr(recv);
                for a in args {
                    self.expr(a);
                }
                self.method(recv, name.as_str());
            }
        }
    }

    fn call(&mut self, name: &str, args: &[Expr]) {
        match builtins::function_effect(name) {
            Some(builtins::FnEffect::Pure) => {}
            Some(builtins::FnEffect::DbRead) => {
                self.out.effects = self.out.effects.join(EffectSet::DB_READ);
            }
            Some(builtins::FnEffect::DbWrite) => {
                self.out.effects = self
                    .out
                    .effects
                    .join(EffectSet::DB_READ)
                    .join(EffectSet::DB_WRITE);
            }
            None => match self.summaries.get(&Symbol::intern(name)) {
                Some(callee) => {
                    // External effects propagate verbatim; parameter escapes
                    // translate through the argument expressions.
                    self.out.effects = self.out.effects.join(callee.effects);
                    for (i, a) in args.iter().enumerate() {
                        if i >= 32 {
                            break;
                        }
                        let mask = self.alias_mask(a);
                        if callee.mutates_params & (1 << i) != 0 {
                            self.out.effects = self.out.effects.join(EffectSet::WRITE);
                            self.out.mutates_params |= mask;
                        }
                        if callee.reads_params & (1 << i) != 0 {
                            self.out.effects = self.out.effects.join(EffectSet::READ);
                            self.out.reads_params |= mask;
                        }
                    }
                }
                None => {
                    // Genuinely unknown callee.
                    self.out.effects = self.out.effects.join(EffectSet::UNKNOWN);
                }
            },
        }
    }

    fn method(&mut self, recv: &Expr, name: &str) {
        match builtins::method_effect(name) {
            Some(builtins::MethodEffect::MutatesReceiver) => {
                let mask = self.alias_mask(recv);
                if mask != 0 {
                    self.out.effects = self.out.effects.join(EffectSet::WRITE);
                    self.out.mutates_params |= mask;
                }
            }
            Some(builtins::MethodEffect::ReadsReceiver) => {
                let mask = self.alias_mask(recv);
                if mask != 0 {
                    self.out.effects = self.out.effects.join(EffectSet::READ);
                    self.out.reads_params |= mask;
                }
            }
            None => {
                self.out.effects = self.out.effects.join(EffectSet::UNKNOWN);
            }
        }
    }
}

/// A one-line human description of why a statement counts as an external
/// write, naming the offending effect — used by the P3 diagnostic so
/// rejections say *what* the helper does, not just that it is "impure".
pub fn describe_external_write(
    s: &imp::ast::Stmt,
    summaries: &BTreeMap<Symbol, EffectSummary>,
) -> Option<String> {
    let mut found: Option<String> = None;
    let mut visit = |e: &Expr| {
        e.walk(&mut |x| {
            if found.is_some() {
                return;
            }
            match x {
                Expr::Call { name, args } => {
                    let n = name.as_str();
                    if n == builtins::EXECUTE_UPDATE {
                        // Name the concrete DML verb and written table when
                        // the statement string is a recognizable template,
                        // so blame output anchors to something real.
                        found = Some(match args.first() {
                            Some(Expr::Lit(imp::ast::Literal::Str(sql))) => {
                                match crate::depend::parse_dml_template(sql) {
                                    Some(t) => {
                                        format!("executes `{}` on table `{}`", t.kind(), t.table())
                                    }
                                    None => "executes a database update".to_string(),
                                }
                            }
                            _ => "executes a database update".to_string(),
                        });
                    } else if builtins::function_effect(n).is_none() {
                        match summaries.get(name) {
                            Some(s) => {
                                if let Some(why) = s.offending_write() {
                                    found = Some(format!("calls `{n}`, which {why}"));
                                }
                            }
                            None => {
                                found = Some(format!(
                                    "calls `{n}`, which the analysis cannot see \
                                     (assumed to write external state)"
                                ));
                            }
                        }
                    }
                }
                Expr::MethodCall { name, .. }
                    if builtins::method_effect(name.as_str()).is_none() =>
                {
                    found = Some(format!(
                        "calls unknown method `{}` (assumed to write external state)",
                        name.as_str()
                    ));
                }
                _ => {}
            }
        });
    };
    match &s.kind {
        StmtKind::Print(_) => return Some("prints to the console".to_string()),
        StmtKind::Assign { value, .. } => visit(value),
        StmtKind::Expr(e) => visit(e),
        StmtKind::If { cond, .. } => visit(cond),
        StmtKind::ForEach { iterable, .. } => visit(iterable),
        StmtKind::While { cond, .. } => visit(cond),
        StmtKind::Return(Some(e)) => visit(e),
        _ => {}
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;

    fn summaries(src: &str) -> BTreeMap<Symbol, EffectSummary> {
        effect_summaries(&parse_program(src).unwrap())
    }

    fn of(m: &BTreeMap<Symbol, EffectSummary>, n: &str) -> EffectSummary {
        *m.get(&Symbol::intern(n)).unwrap()
    }

    #[test]
    fn db_read_helper_is_not_a_writer() {
        let m = summaries(
            r#"fn rate() { return executeScalar("SELECT r FROM c"); }
               fn use(x) { return x * rate(); }"#,
        );
        let r = of(&m, "rate");
        assert!(r.effects.contains(EffectSet::DB_READ));
        assert!(!r.writes_external(), "db-read only: not an external write");
        assert!(!r.is_externally_pure(), "still not pure");
        let u = of(&m, "use");
        assert!(u.effects.contains(EffectSet::DB_READ), "effects propagate");
        assert!(!u.writes_external());
    }

    #[test]
    fn update_and_print_are_writers() {
        let m = summaries(
            r#"fn upd() { executeUpdate("DELETE FROM t"); }
               fn shout(x) { print(x); return x; }"#,
        );
        assert_eq!(of(&m, "upd").offending_write(), Some("writes the database"));
        assert_eq!(
            of(&m, "shout").offending_write(),
            Some("prints to the console")
        );
    }

    #[test]
    fn param_escape_tracks_mutation() {
        let m = summaries("fn addTo(c, x) { c.add(x); return c; }");
        let s = of(&m, "addTo");
        assert!(s.mutates_param(0));
        assert!(!s.mutates_param(1));
        assert!(s.is_externally_pure(), "param mutation is not external");
    }

    #[test]
    fn param_escape_through_alias_and_call() {
        let m = summaries(
            "fn addTo(c, x) { d = c; d.add(x); return d; } \
             fn outer(z) { addTo(z, 1); return z; }",
        );
        assert!(of(&m, "addTo").mutates_param(0), "alias d → c");
        assert!(
            of(&m, "outer").mutates_param(0),
            "escape propagates through the call"
        );
    }

    #[test]
    fn recursion_converges_precisely() {
        let m = summaries("fn s(x) { if (x == 0) return 0; return x + s(x - 1); }");
        assert!(
            of(&m, "s").is_externally_pure(),
            "pure recursion is pure under the fixpoint (old analysis said impure)"
        );
    }

    #[test]
    fn unknown_call_is_top_ish() {
        let m = summaries("fn f(x) { return mystery(x); }");
        let s = of(&m, "f");
        assert!(s.effects.contains(EffectSet::UNKNOWN));
        assert!(s.writes_external());
        assert!(!s.is_externally_pure());
    }

    #[test]
    fn join_laws_hold_on_samples() {
        let a = EffectSummary {
            effects: EffectSet::DB_READ,
            reads_params: 0b01,
            mutates_params: 0,
        };
        let b = EffectSummary {
            effects: EffectSet::OUTPUT,
            reads_params: 0b10,
            mutates_params: 0b1,
        };
        assert_eq!(a.join(&a), a, "idempotent");
        assert_eq!(a.join(&b), b.join(&a), "commutative");
        assert!(
            a.le(&a.join(&b)) && b.le(&a.join(&b)),
            "join is an upper bound"
        );
    }
}
