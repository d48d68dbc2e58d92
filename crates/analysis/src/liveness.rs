//! Backward live-variable analysis, solved on the CFG by the monotone
//! framework in [`crate::dataflow`].
//!
//! Used by [`crate::deadcode`] to find statements rendered dead after SQL
//! extraction (paper Sec. 5.2), and by the extractor to skip accumulators
//! that are dead after their loop. The lattice is the powerset of the
//! function's variables with union as join, a [`BitSet`] over the
//! [`FnIndex`] numbering; each statement's gen and kill rows are tabulated
//! once per function. Transfers are the classic `(live − def) ∪ use` with
//! three `imp`-specific refinements:
//!
//! * an `Assign` whose RHS reads the target (`s = s + x`) keeps the use —
//!   only pure defs kill liveness;
//! * `c.add(x);` is a *partial def* of `c`: we neither kill nor use the
//!   receiver — the mutation matters only if `c` is read downstream (this
//!   "faint variable" treatment lets dead loop-carried mutation cycles be
//!   swept; the DDG keeps the read-modify-write view);
//! * `return` kills everything except the returned expression's reads.
//!
//! Solving on the CFG makes `break`/`continue` paths exact (the structured
//! predecessor implementation, kept as a test oracle in [`reference`],
//! conservatively treated them as fall-through) and keeps loop-header
//! reads — `while` conditions and `for` iterables — live around back
//! edges, which the oracle under-approximated. An `If` id sits in the
//! block that evaluates its condition; no consumer queries it.
//!
//! The analysis borrows the [`FnIndex`] its caller built. The solution
//! keeps block-level facts only. [`Liveness::after`] replays one block
//! into a name-ordered set; [`Liveness::is_live_after`] follows one
//! variable back and allocates nothing; [`Liveness::replay`] walks every
//! block once for callers that read every statement.

use intern::Symbol;
use std::collections::BTreeSet;

use imp::ast::{Expr, Stmt, StmtId, StmtKind};

use crate::cfg::{BlockId, Terminator};
use crate::dataflow::{self, bit, set_bit, Analysis, BitSet, Direction, FnIndex};
use crate::defuse::{for_each_access, Access, DefUseCtx};

/// Per-statement liveness of one function: block-level facts, replayed on
/// demand.
#[derive(Debug, Clone)]
pub struct Liveness<'a> {
    a: LiveAnalysis<'a>,
    sol: dataflow::Solution<BitSet>,
}

/// The dataflow client: backward, bitset over the function's variables.
/// Row `at` of `rows` is statement position `at`; row `stmt_count + b` is
/// block `b`'s terminator. A row is a kill set then a gen set, `width`
/// words each, and a fact flows through it as `(fact − kill) ∪ gen`.
#[derive(Debug, Clone)]
struct LiveAnalysis<'a> {
    ix: &'a FnIndex<'a>,
    width: usize,
    rows: Vec<u64>,
}

impl<'a> LiveAnalysis<'a> {
    fn new(ix: &'a FnIndex<'a>) -> LiveAnalysis<'a> {
        let width = BitSet::words_for(ix.var_count());
        let stmts = ix.stmt_count();
        let mut rows = vec![0; (stmts + ix.cfg().blocks.len()) * 2 * width];
        for (r, row) in rows.chunks_exact_mut(2 * width).enumerate() {
            let (kill, gen) = row.split_at_mut(width);
            if r < stmts {
                stmt_rows(ix, ix.stmt(r), gen, kill);
            } else if let Some(t) = &ix.cfg().blocks[r - stmts].terminator {
                terminator_rows(ix, t, gen, kill);
            }
        }
        LiveAnalysis { ix, width, rows }
    }

    /// The `(kill, gen)` sets of row `r`.
    fn row(&self, r: usize) -> (&[u64], &[u64]) {
        self.rows[r * 2 * self.width..(r + 1) * 2 * self.width].split_at(self.width)
    }
}

/// Set the bits of every variable `e` reads.
fn gen_reads(ix: &FnIndex<'_>, e: &Expr, gen: &mut [u64]) {
    e.walk(&mut |x| {
        if let Expr::Var(v) = x {
            set_bit(gen, ix.var(*v).expect("indexed"));
        }
    });
}

/// Fill statement `s`'s gen and kill rows (both zero on entry).
fn stmt_rows(ix: &FnIndex<'_>, s: &Stmt, gen: &mut [u64], kill: &mut [u64]) {
    match &s.kind {
        StmtKind::Return(v) => {
            // Nothing after a return is live through it (the `Return`
            // terminator row does the same; both are idempotent).
            kill.fill(!0);
            if let Some(v) = v {
                gen_reads(ix, v, gen);
            }
        }
        StmtKind::ForEach { var, iterable, .. } => {
            set_bit(kill, ix.var(*var).expect("indexed"));
            gen_reads(ix, iterable, gen);
        }
        StmtKind::Expr(Expr::MethodCall { recv, name, args })
            if crate::defuse::MUTATING_METHODS.contains(&name.as_str())
                && matches!(recv.as_ref(), Expr::Var(_)) =>
        {
            // A partial def of the receiver: neither killed nor used.
            for a in args {
                gen_reads(ix, a, gen);
            }
        }
        // An `If` or `While` id sits in the block that evaluates its
        // condition; reading the condition is all it does here, so the
        // default case is exact for it.
        _ => {
            // `(live − (defs − uses)) ∪ uses`: only pure defs kill.
            for_each_access(s, &DefUseCtx::default(), &mut |a| match a {
                Access::Def(v) => set_bit(kill, ix.var(v).expect("indexed")),
                Access::Use(v) => set_bit(gen, ix.var(v).expect("indexed")),
                Access::ExtRead | Access::ExtWrite => {}
            });
            for (k, g) in kill.iter_mut().zip(gen.iter()) {
                *k &= !g;
            }
        }
    }
}

/// Fill terminator `t`'s gen and kill rows (both zero on entry).
fn terminator_rows(ix: &FnIndex<'_>, t: &Terminator, gen: &mut [u64], kill: &mut [u64]) {
    match t {
        Terminator::Branch { cond, .. } => gen_reads(ix, cond, gen),
        Terminator::Return(v) => {
            kill.fill(!0);
            if let Some(v) = v {
                gen_reads(ix, v, gen);
            }
        }
        Terminator::ForDispatch { .. } | Terminator::Goto(_) | Terminator::End => {}
    }
}

impl Analysis for LiveAnalysis<'_> {
    type Fact = BitSet;

    fn name(&self) -> &'static str {
        "liveness"
    }

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self) -> BitSet {
        BitSet::new(self.ix.var_count())
    }

    fn join_into(&self, into: &mut BitSet, other: &BitSet) -> bool {
        into.union_with(other)
    }

    fn apply_stmt(&self, at: usize, _s: &Stmt, live: &mut BitSet) {
        let (kill, gen) = self.row(at);
        live.apply(kill, gen);
    }

    fn apply_terminator(&self, b: BlockId, _t: &Terminator, live: &mut BitSet) {
        let (kill, gen) = self.row(self.ix.stmt_count() + b.0);
        live.apply(kill, gen);
    }

    fn height(&self, ix: &FnIndex<'_>) -> usize {
        ix.var_count() + 1
    }
}

impl<'a> Liveness<'a> {
    /// Compute liveness for the function `ix` indexes.
    pub fn compute(ix: &'a FnIndex<'a>) -> Liveness<'a> {
        let a = LiveAnalysis::new(ix);
        let sol = dataflow::solve(&a, ix);
        Liveness { a, sol }
    }

    /// A loop header's replayed fact is the live set at the loop *top* (it
    /// joins the body's live-in); the program-order set after the whole
    /// loop is the entry of its exit block, which this returns for a
    /// header at position `at`.
    fn loop_exit(&self, at: usize) -> Option<BlockId> {
        let b = self.a.ix.block_of(at);
        if self.a.ix.block_range(b).end != at + 1 {
            return None;
        }
        match (
            &self.a.ix.cfg().blocks[b.0].terminator,
            &self.a.ix.stmt(at).kind,
        ) {
            (Some(Terminator::ForDispatch { exit, .. }), StmtKind::ForEach { .. }) => Some(*exit),
            (Some(Terminator::Branch { else_to, .. }), StmtKind::While { .. }) => Some(*else_to),
            _ => None,
        }
    }

    /// The variables of `live`, in name order.
    fn names(&self, live: &BitSet) -> BTreeSet<Symbol> {
        live.iter().map(|i| self.a.ix.var_symbol(i)).collect()
    }

    /// Variables live after statement `id` (program order; for a loop
    /// statement: after the whole loop), in name order; empty when unknown.
    /// Replays `id`'s block.
    pub fn after(&self, id: StmtId) -> BTreeSet<Symbol> {
        let Some(at) = self.a.ix.locate(id) else {
            return BTreeSet::new();
        };
        if let Some(exit) = self.loop_exit(at) {
            return self.names(&self.sol.entry[exit.0]);
        }
        self.sol
            .after(&self.a, self.a.ix, id)
            .map(|live| self.names(&live))
            .unwrap_or_default()
    }

    /// Is `var` live after statement `id` (as [`Liveness::after`])? Follows
    /// the one variable back from the end of `id`'s block and allocates
    /// nothing.
    pub fn is_live_after(&self, id: StmtId, var: Symbol) -> bool {
        let (Some(at), Some(v)) = (self.a.ix.locate(id), self.a.ix.var(var)) else {
            return false;
        };
        if let Some(exit) = self.loop_exit(at) {
            return self.sol.entry[exit.0].contains(v);
        }
        let b = self.a.ix.block_of(at);
        let through =
            |live: bool, (kill, gen): (&[u64], &[u64])| (live && !bit(kill, v)) || bit(gen, v);
        // A block without a terminator has an all-zero (identity) row.
        let mut live = through(
            self.sol.exit[b.0].contains(v),
            self.a.row(self.a.ix.stmt_count() + b.0),
        );
        for later in (at + 1..self.a.ix.block_range(b).end).rev() {
            live = through(live, self.a.row(later));
        }
        live
    }

    /// Call `visit(stmt, is_live)` for every statement, each block replayed
    /// once, where `is_live(v)` says whether `v` is live after `stmt`. For a
    /// loop header that is the live set at the loop top, not
    /// [`Liveness::after`]'s.
    pub fn replay(&self, mut visit: impl FnMut(&'a Stmt, &dyn Fn(Symbol) -> bool)) {
        let ix = self.a.ix;
        self.sol.replay(&self.a, ix, |_, s, live| {
            visit(s, &|v| ix.var(v).is_some_and(|i| live.contains(i)))
        });
    }
}

/// The pre-dataflow implementation over the structured AST, kept as a
/// test oracle for the framework port. It differs from the CFG solution in
/// two known, documented ways: break/continue are conservatively treated
/// as fall-through (the CFG is more precise there), and loop-header reads
/// are *not* propagated around back edges (the CFG is sound there: the
/// header re-reads its condition/iterable every iteration).
#[cfg(any(test, feature = "test-oracles"))]
pub mod reference {
    use super::*;
    use crate::defuse::DefUse;
    use imp::ast::{Block, Function};
    use std::collections::BTreeMap;

    /// Per-statement liveness results of the structured-AST oracle.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct Liveness {
        /// Variables live immediately *after* each statement.
        pub live_after: BTreeMap<StmtId, BTreeSet<Symbol>>,
    }

    impl Liveness {
        /// Compute liveness for a function (structured recursion).
        pub fn compute(f: &Function) -> Liveness {
            let mut l = Liveness::default();
            l.block(&f.body, BTreeSet::new());
            l
        }

        /// Variables live after statement `id`, empty set when unknown.
        pub fn after(&self, id: StmtId) -> BTreeSet<Symbol> {
            self.live_after.get(&id).cloned().unwrap_or_default()
        }

        /// Process a block given the variables live after it; returns the
        /// variables live before it.
        fn block(&mut self, b: &Block, mut live: BTreeSet<Symbol>) -> BTreeSet<Symbol> {
            for s in b.stmts.iter().rev() {
                // Record (union, since loop bodies are visited repeatedly).
                self.live_after
                    .entry(s.id)
                    .or_default()
                    .extend(live.iter().cloned());
                live = self.stmt(s, live);
            }
            live
        }

        fn stmt(&mut self, s: &Stmt, live_after: BTreeSet<Symbol>) -> BTreeSet<Symbol> {
            match &s.kind {
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let t = self.block(then_branch, live_after.clone());
                    let e = self.block(else_branch, live_after);
                    let mut live: BTreeSet<Symbol> = t.union(&e).cloned().collect();
                    live.extend(cond.vars());
                    live
                }
                StmtKind::ForEach {
                    var,
                    iterable,
                    body,
                } => {
                    // Fixpoint: body may propagate liveness around the back
                    // edge.
                    let mut live_out_body = live_after.clone();
                    loop {
                        let mut live_in_body = self.block(body, live_out_body.clone());
                        live_in_body.remove(var);
                        let merged: BTreeSet<Symbol> =
                            live_out_body.union(&live_in_body).cloned().collect();
                        if merged == live_out_body {
                            break;
                        }
                        live_out_body = merged;
                    }
                    let mut live = live_out_body;
                    live.remove(var);
                    live.extend(iterable.vars());
                    live
                }
                StmtKind::While { cond, body } => {
                    let mut live_out_body = live_after.clone();
                    loop {
                        let live_in_body = self.block(body, live_out_body.clone());
                        let merged: BTreeSet<Symbol> =
                            live_out_body.union(&live_in_body).cloned().collect();
                        if merged == live_out_body {
                            break;
                        }
                        live_out_body = merged;
                    }
                    let mut live = live_out_body;
                    live.extend(cond.vars());
                    live
                }
                StmtKind::Return(v) => {
                    // Nothing after a return is live through it.
                    let mut live = BTreeSet::new();
                    if let Some(v) = v {
                        live.extend(v.vars());
                    }
                    live
                }
                StmtKind::Expr(Expr::MethodCall { recv, name, args })
                    if crate::defuse::MUTATING_METHODS.contains(&name.as_str())
                        && matches!(recv.as_ref(), Expr::Var(_)) =>
                {
                    let mut live = live_after;
                    for a in args {
                        live.extend(a.vars());
                    }
                    live
                }
                _ => {
                    let du = DefUse::of_stmt(s);
                    let mut live = live_after;
                    for d in &du.defs {
                        if !du.uses.contains(d) {
                            live.remove(d);
                        }
                    }
                    live.extend(du.uses.iter().cloned());
                    live
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;

    /// The results borrow the function and its index, so the test leaks
    /// both.
    fn live(src: &str) -> (&'static imp::ast::Function, Liveness<'static>) {
        let p = parse_program(src).unwrap();
        let f: &'static imp::ast::Function = Box::leak(Box::new(p.functions[0].clone()));
        (f, Liveness::compute(Box::leak(Box::new(FnIndex::build(f)))))
    }

    #[test]
    fn dead_after_last_use() {
        let (f, l) = live("fn f() { a = 1; b = a + 1; return b; }");
        let s_a = f.body.stmts[0].id;
        let s_b = f.body.stmts[1].id;
        assert!(l.after(s_a).contains(&Symbol::intern("a")));
        assert!(
            !l.after(s_b).contains(&Symbol::intern("a")),
            "a is dead after its last use"
        );
        assert!(l.after(s_b).contains(&Symbol::intern("b")));
    }

    #[test]
    fn unused_assignment_is_dead() {
        let (f, l) = live("fn f() { junk = 42; return 0; }");
        assert!(!l
            .after(f.body.stmts[0].id)
            .contains(&Symbol::intern("junk")));
    }

    #[test]
    fn loop_carried_liveness() {
        let (f, l) = live("fn f() { s = 0; for (t in q) { s = s + t.x; } return s; }");
        // s is live after its own update (next iteration + return).
        let loop_stmt = &f.body.stmts[1];
        if let StmtKind::ForEach { body, .. } = &loop_stmt.kind {
            assert!(l.after(body.stmts[0].id).contains(&Symbol::intern("s")));
        } else {
            panic!("expected loop");
        }
        assert!(l.after(f.body.stmts[0].id).contains(&Symbol::intern("s")));
    }

    #[test]
    fn dead_accumulator_is_dead_after_its_loop() {
        let (f, l) = live("fn f() { s = 0; for (t in q) { s = s + t.x; } return 0; }");
        // The program-order fact after the whole loop must not include the
        // accumulator, even though it is live at the loop *top*.
        assert!(!l.after(f.body.stmts[1].id).contains(&Symbol::intern("s")));
    }

    #[test]
    fn branch_join_is_union() {
        let (f, l) =
            live("fn f(c) { a = 1; b = 2; if (c > 0) { r = a; } else { r = b; } return r; }");
        let s_b = f.body.stmts[1].id;
        let after_b = l.after(s_b);
        assert!(after_b.contains(&Symbol::intern("a")) && after_b.contains(&Symbol::intern("b")));
    }

    #[test]
    fn break_path_is_exact_on_the_cfg() {
        // `found` flows out of the loop along the break edge only; the
        // conservative oracle keeps it live around the back edge too, so
        // the CFG answer must still contain it after the assignment.
        let (f, l) = live(
            "fn f() { found = 0; for (t in q) { if (t.x > 0) { found = t.x; break; } } return found; }",
        );
        let loop_stmt = &f.body.stmts[1];
        let StmtKind::ForEach { body, .. } = &loop_stmt.kind else {
            panic!("expected loop");
        };
        let StmtKind::If { then_branch, .. } = &body.stmts[0].kind else {
            panic!("expected if");
        };
        assert!(l
            .after(then_branch.stmts[0].id)
            .contains(&Symbol::intern("found")));
    }

    #[test]
    fn while_cond_vars_stay_live_through_the_body() {
        // The limit is re-read by the condition at the next iteration, so
        // it must be live after its in-body update. The structured oracle
        // misses this (cond vars only surface at the loop entry), which is
        // exactly the under-approximation the CFG port repairs.
        let (f, l) = live(
            "fn f(n) { i = 0; lim = n; while (i < lim) { i = i + 1; lim = n - i; } return i; }",
        );
        let StmtKind::While { body, .. } = &f.body.stmts[2].kind else {
            panic!("expected while");
        };
        let upd = body.stmts[1].id;
        assert!(l.after(upd).contains(&Symbol::intern("lim")));
        let oracle = reference::Liveness::compute(f);
        assert!(
            !oracle.after(upd).contains(&Symbol::intern("lim")),
            "the oracle under-approximates here; keep this assert as \
             documentation of why the port only refines it up to header reads"
        );
    }

    #[test]
    fn refines_structured_oracle_up_to_header_reads() {
        // Without break/continue the CFG solution is pointwise ⊇ the
        // structured oracle (same transfers, plus the loop-header reads —
        // `while` conditions and `for` iterables — that the header block
        // re-executes each iteration). Any surplus must be exactly such a
        // header read.
        let cases = [
            "fn f() { a = 1; b = a + 1; return b; }",
            "fn f(c) { a = 1; b = 2; if (c > 0) { r = a; } else { r = b; } return r; }",
            "fn f() { s = 0; for (t in q) { s = s + t.x; } return s; }",
            "fn f() { s = 0; n = 0; for (t in q) { if (t.x > 0) { s = s + t.x; n = n + 1; } } return s + n; }",
            "fn f(lim) { i = 0; while (i < lim) { i = i + 1; } return i; }",
            "fn f() { c = list(); for (t in q) { c.add(t.x); } return c; }",
        ];
        for src in cases {
            let p = parse_program(src).unwrap();
            let f = &p.functions[0];
            let ix = FnIndex::build(f);
            let ported = Liveness::compute(&ix);
            let oracle = reference::Liveness::compute(f);
            let mut header_reads: BTreeSet<Symbol> = BTreeSet::new();
            for (_, s) in dataflow::stmt_index(f) {
                match &s.kind {
                    StmtKind::ForEach { iterable, .. } => header_reads.extend(iterable.vars()),
                    StmtKind::While { cond, .. } => header_reads.extend(cond.vars()),
                    _ => {}
                }
            }
            for (id, s) in dataflow::stmt_index(f) {
                // Return/break/continue `after` facts are junk in both
                // implementations and queried by nothing; If ids carry no
                // fact on the CFG. Compare the classes consumers query.
                if matches!(
                    s.kind,
                    StmtKind::Assign { .. }
                        | StmtKind::Expr(_)
                        | StmtKind::Print(_)
                        | StmtKind::ForEach { .. }
                        | StmtKind::While { .. }
                ) {
                    let p = ported.after(id);
                    let o = oracle.after(id);
                    assert!(
                        o.is_subset(&p),
                        "port lost liveness at {id} in {src}: {o:?} ⊄ {p:?}"
                    );
                    let surplus: BTreeSet<_> = p.difference(&o).cloned().collect();
                    assert!(
                        surplus.is_subset(&header_reads),
                        "unexplained surplus {surplus:?} at {id} in {src}"
                    );
                }
            }
        }
    }
}
