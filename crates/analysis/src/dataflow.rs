//! A reusable monotone dataflow framework over [`crate::cfg`].
//!
//! Classic Kildall/Kam-Ullman setup: a client implements [`Analysis`] by
//! choosing a direction, a join-semilattice of facts (`bottom` + `join`),
//! and monotone transfer functions for statements and terminators; the
//! [`solve`] driver runs a deterministic worklist to the least fixpoint.
//!
//! Design points:
//!
//! * **Deterministic iteration.** The worklist is an ordered set keyed by
//!   reverse-postorder index (postorder for backward problems), so the
//!   fixpoint — and, more importantly, the *work schedule* — is identical
//!   across runs and platforms. Unreachable blocks (dead code after
//!   `return`/`break`) are appended after the reachable ones in block-id
//!   order, so their statements still receive facts.
//! * **Guaranteed termination.** The client declares the lattice
//!   [`Analysis::height`] for the function under analysis; the solver
//!   panics (naming the analysis) if any block is re-processed more often
//!   than the height allows, which can only happen when a transfer is
//!   non-monotone or the declared height is wrong. Correct clients never
//!   hit the bound.
//! * **Per-statement replay.** After the block-level fixpoint, facts are
//!   replayed through each block once more to record a fact *before* and
//!   *after* every statement (in program order, regardless of direction),
//!   which is what lint clients consume.
//!
//! Facts live on block boundaries: `entry[b]` holds at the block's first
//! statement in program order, `exit[b]` after its terminator. For a
//! backward analysis the flow input of a block is `exit[b]` and the result
//! of its transfers is `entry[b]`.

use std::collections::{BTreeMap, BTreeSet};

use imp::ast::{Function, Stmt, StmtId};

use crate::cfg::{BlockId, Cfg, Terminator};

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from Start towards End (e.g. reaching definitions).
    Forward,
    /// Facts flow from End towards Start (e.g. liveness).
    Backward,
}

/// A monotone dataflow problem over a join-semilattice.
///
/// `join` must be commutative, associative, and idempotent with `bottom`
/// as its identity; `transfer_stmt`/`transfer_terminator` must be monotone
/// with respect to the induced partial order. Violations are caught at run
/// time by the height guard in [`solve`].
pub trait Analysis {
    /// Lattice element.
    type Fact: Clone + Eq + std::fmt::Debug;

    /// Short name used in the termination-guard panic message.
    fn name(&self) -> &'static str;

    /// Flow direction.
    fn direction(&self) -> Direction;

    /// The least lattice element (identity of [`Analysis::join`]).
    fn bottom(&self) -> Self::Fact;

    /// The fact holding at the boundary: entry of Start for forward
    /// problems, exit of End for backward ones. Defaults to `bottom`.
    fn boundary(&self, _f: &Function) -> Self::Fact {
        self.bottom()
    }

    /// Least upper bound of two facts.
    fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Transfer one statement, receiving the fact flowing *into* it
    /// (program-order before for forward problems, program-order after for
    /// backward ones).
    fn transfer_stmt(&self, stmt: &Stmt, fact: &Self::Fact) -> Self::Fact;

    /// Transfer a block terminator; defaults to the identity.
    fn transfer_terminator(&self, _t: &Terminator, fact: &Self::Fact) -> Self::Fact {
        fact.clone()
    }

    /// An upper bound on the length of strictly-ascending chains the
    /// fixpoint can climb in `f` (e.g. the number of variables for a
    /// powerset-of-variables lattice). Used only for the termination guard.
    fn height(&self, f: &Function) -> usize;
}

/// The least fixpoint of an [`Analysis`] over one function.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact at each block's program-order entry.
    pub entry: Vec<F>,
    /// Fact at each block's program-order exit (after the terminator).
    pub exit: Vec<F>,
    /// Fact just before each statement, in program order.
    pub before: BTreeMap<StmtId, F>,
    /// Fact just after each statement, in program order.
    pub after: BTreeMap<StmtId, F>,
}

impl<F> Solution<F> {
    /// Fact holding just before `id` in program order, if `id` sits in a
    /// CFG block (`If` statement ids do not — their conditions live on
    /// `Branch` terminators).
    pub fn before(&self, id: StmtId) -> Option<&F> {
        self.before.get(&id)
    }

    /// Fact holding just after `id` in program order.
    pub fn after(&self, id: StmtId) -> Option<&F> {
        self.after.get(&id)
    }
}

/// Index every statement of a function body by id.
///
/// Panics when two statements share an id: the per-statement replay keys
/// facts by `StmtId`, so duplicates would silently alias statements and
/// corrupt every client (the usual culprit is a rewrite that forgot to
/// renumber).
pub fn stmt_index(f: &Function) -> BTreeMap<StmtId, &Stmt> {
    let mut map = BTreeMap::new();
    f.body.walk(&mut |s, _| {
        assert!(
            map.insert(s.id, s).is_none(),
            "dataflow: duplicate StmtId {:?} in function body; \
             statements must be renumbered before analysis",
            s.id
        );
    });
    map
}

/// Solve `a` over `f`, building the CFG internally.
pub fn solve<A: Analysis>(a: &A, f: &Function) -> Solution<A::Fact> {
    let cfg = Cfg::build(f);
    solve_cfg(a, f, &cfg)
}

/// Solve `a` over a pre-built CFG of `f`.
pub fn solve_cfg<A: Analysis>(a: &A, f: &Function, cfg: &Cfg) -> Solution<A::Fact> {
    let stmts = stmt_index(f);
    let n = cfg.blocks.len();
    let forward = a.direction() == Direction::Forward;

    // Deterministic priority: reverse-postorder position for forward
    // problems, postorder position for backward ones; unreachable blocks
    // follow in block-id order.
    let rpo = cfg.reverse_postorder();
    let mut priority = vec![usize::MAX; n];
    let ordered: Vec<BlockId> = if forward {
        rpo.clone()
    } else {
        rpo.iter().rev().copied().collect()
    };
    for (i, b) in ordered.iter().enumerate() {
        priority[b.0] = i;
    }
    let mut next = ordered.len();
    for p in priority.iter_mut() {
        if *p == usize::MAX {
            *p = next;
            next += 1;
        }
    }
    let mut by_priority = vec![BlockId(0); n];
    for i in 0..n {
        by_priority[priority[i]] = BlockId(i);
    }

    let mut entry: Vec<A::Fact> = (0..n).map(|_| a.bottom()).collect();
    let mut exit: Vec<A::Fact> = (0..n).map(|_| a.bottom()).collect();
    if forward {
        entry[cfg.start.0] = a.boundary(f);
    } else {
        exit[cfg.end.0] = a.boundary(f);
    }

    let preds = cfg.predecessors();
    let height = a.height(f);
    // Each re-processing of a block is caused by a strict lattice climb of
    // its flow input, so `height + 2` visits (initial + climbs + slack)
    // suffice for any monotone client.
    let budget = height + 2;
    let mut visits = vec![0usize; n];

    let mut worklist: BTreeSet<usize> = (0..n).collect();
    while let Some(&p) = worklist.iter().next() {
        worklist.remove(&p);
        let b = by_priority[p];
        visits[b.0] += 1;
        assert!(
            visits[b.0] <= budget,
            "dataflow: `{}` exceeded the declared lattice height ({height}) at block {}; \
             a transfer function is non-monotone or the height bound is wrong",
            a.name(),
            b.0
        );
        if forward {
            let out = transfer_block(a, cfg, &stmts, b, entry[b.0].clone(), true);
            if out != exit[b.0] {
                exit[b.0] = out;
                for s in cfg.successors(b) {
                    let joined = a.join(&entry[s.0], &exit[b.0]);
                    if joined != entry[s.0] {
                        entry[s.0] = joined;
                        worklist.insert(priority[s.0]);
                    }
                }
            }
        } else {
            // End has no successors, so its `exit` keeps the boundary fact.
            let out = transfer_block(a, cfg, &stmts, b, exit[b.0].clone(), false);
            if out != entry[b.0] {
                entry[b.0] = out;
                for pr in &preds[b.0] {
                    let joined = a.join(&exit[pr.0], &entry[b.0]);
                    if joined != exit[pr.0] {
                        exit[pr.0] = joined;
                        worklist.insert(priority[pr.0]);
                    }
                }
            }
        }
    }

    // Replay each block once to record per-statement facts.
    let mut before = BTreeMap::new();
    let mut after = BTreeMap::new();
    for i in 0..n {
        let block = &cfg.blocks[i];
        if forward {
            let mut fact = entry[i].clone();
            for id in &block.stmts {
                before.insert(*id, fact.clone());
                if let Some(s) = stmts.get(id) {
                    fact = a.transfer_stmt(s, &fact);
                }
                after.insert(*id, fact.clone());
            }
        } else {
            let mut fact = exit[i].clone();
            if let Some(t) = &block.terminator {
                fact = a.transfer_terminator(t, &fact);
            }
            for id in block.stmts.iter().rev() {
                after.insert(*id, fact.clone());
                if let Some(s) = stmts.get(id) {
                    fact = a.transfer_stmt(s, &fact);
                }
                before.insert(*id, fact.clone());
            }
        }
    }

    Solution {
        entry,
        exit,
        before,
        after,
    }
}

fn transfer_block<A: Analysis>(
    a: &A,
    cfg: &Cfg,
    stmts: &BTreeMap<StmtId, &Stmt>,
    b: BlockId,
    input: A::Fact,
    forward: bool,
) -> A::Fact {
    let block = &cfg.blocks[b.0];
    let mut fact = input;
    if forward {
        for id in &block.stmts {
            if let Some(s) = stmts.get(id) {
                fact = a.transfer_stmt(s, &fact);
            }
        }
        if let Some(t) = &block.terminator {
            fact = a.transfer_terminator(t, &fact);
        }
    } else {
        if let Some(t) = &block.terminator {
            fact = a.transfer_terminator(t, &fact);
        }
        for id in block.stmts.iter().rev() {
            if let Some(s) = stmts.get(id) {
                fact = a.transfer_stmt(s, &fact);
            }
        }
    }
    fact
}

/// Every variable a function mentions (parameters, assignment targets,
/// loop variables, and reads) — the universe for powerset-of-variables
/// lattices, and hence their chain height.
pub fn variable_universe(f: &Function) -> BTreeSet<intern::Symbol> {
    let mut vars: BTreeSet<intern::Symbol> = f.params.iter().copied().collect();
    f.body.walk(&mut |s, _| {
        if let imp::ast::StmtKind::Assign { target: v, .. }
        | imp::ast::StmtKind::ForEach { var: v, .. } = &s.kind
        {
            vars.insert(*v);
        }
        for e in s.kind.exprs() {
            vars.extend(e.vars());
        }
    });
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::ast::StmtKind;
    use imp::parser::parse_program;

    /// A toy forward analysis: the set of variables assigned a constant
    /// literal somewhere on every… no — *some* path so far (may analysis).
    struct ConstAssigned;

    impl Analysis for ConstAssigned {
        type Fact = BTreeSet<intern::Symbol>;
        fn name(&self) -> &'static str {
            "const-assigned"
        }
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn bottom(&self) -> Self::Fact {
            BTreeSet::new()
        }
        fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
            a.union(b).copied().collect()
        }
        fn transfer_stmt(&self, stmt: &Stmt, fact: &Self::Fact) -> Self::Fact {
            let mut out = fact.clone();
            if let StmtKind::Assign { target, value } = &stmt.kind {
                if matches!(value, imp::ast::Expr::Lit(_)) {
                    out.insert(*target);
                } else {
                    out.remove(target);
                }
            }
            out
        }
        fn height(&self, f: &Function) -> usize {
            variable_universe(f).len() + 1
        }
    }

    #[test]
    fn forward_fixpoint_reaches_loop_exit() {
        let p =
            parse_program("fn f() { a = 1; for (t in q) { b = 2; c = t.x; } return a; }").unwrap();
        let f = &p.functions[0];
        let sol = solve(&ConstAssigned, f);
        let cfg = Cfg::build(f);
        let at_end: Vec<String> = sol.entry[cfg.end.0].iter().map(|s| s.to_string()).collect();
        assert!(at_end.contains(&"a".to_string()), "{at_end:?}");
        assert!(at_end.contains(&"b".to_string()), "loop body reaches end");
        assert!(!at_end.contains(&"c".to_string()), "c is not constant");
    }

    #[test]
    fn per_stmt_replay_is_program_ordered() {
        let p = parse_program("fn f() { a = 1; b = a; }").unwrap();
        let f = &p.functions[0];
        let sol = solve(&ConstAssigned, f);
        let id_a = f.body.stmts[0].id;
        let id_b = f.body.stmts[1].id;
        assert!(sol.before(id_a).unwrap().is_empty());
        assert_eq!(sol.after(id_a).unwrap().len(), 1);
        assert_eq!(sol.before(id_b).unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-monotone")]
    fn height_guard_catches_oscillation() {
        /// Deliberately broken: a counter "lattice" with no finite height —
        /// the loop back-edge climbs forever, so only the guard stops it.
        struct Broken;
        impl Analysis for Broken {
            type Fact = u64;
            fn name(&self) -> &'static str {
                "broken"
            }
            fn direction(&self) -> Direction {
                Direction::Forward
            }
            fn bottom(&self) -> Self::Fact {
                0
            }
            fn join(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
                *a.max(b)
            }
            fn transfer_stmt(&self, _stmt: &Stmt, fact: &Self::Fact) -> Self::Fact {
                fact + 1
            }
            fn height(&self, _f: &Function) -> usize {
                4
            }
        }
        let p = parse_program("fn f() { for (t in q) { a = t.x; } return a; }").unwrap();
        solve(&Broken, &p.functions[0]);
    }
}
