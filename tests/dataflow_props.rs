//! Property tests for the monotone dataflow framework
//! (`analysis::dataflow`) and the clients ported onto it.
//!
//! Two guarantees pin the framework down:
//!
//! 1. **Fixpoint order-independence.** `solve` schedules blocks by a
//!    reverse-postorder priority worklist; the least fixpoint of a monotone
//!    problem must not depend on that schedule. A naive chaotic-iteration
//!    solver re-visits blocks in freshly shuffled orders every sweep and
//!    must land on identical entry/exit facts for random programs.
//! 2. **Ported-vs-reference agreement.** The CFG port of liveness refines
//!    the structured reference oracle up to loop-header reads, both on
//!    random `if`/`while`/`for` nests (`ported_liveness_refines_reference`)
//!    and on every corpus program; on every corpus program, each
//!    reaching-definition site is a statement that can actually define the
//!    variable.
//!
//! The reference oracle stays although `tests/golden/dataflow_corpus.txt`
//! freezes every liveness answer on the 158-program sweep: the random
//! nests reach shapes those programs do not contain, and a golden can be
//! re-blessed over a wrong answer, which an independent oracle cannot.
//!
//! Client monotonicity is checked by the solver itself: its height guard
//! panics on a non-monotone transfer, and every corpus and random program
//! here is solved under it.

use std::collections::BTreeSet;

use analysis::cfg::{BlockId, Terminator};
use analysis::dataflow::{self, Analysis, Direction, FnIndex};
use analysis::defuse::{DefUse, DefUseCtx};
use analysis::liveness::{reference, Liveness};
use analysis::reaching::ReachingDefs;
use imp::ast::{Expr, Function, Stmt, StmtKind};
use intern::Symbol;
use proptest::prelude::*;

// --- Random structured programs -----------------------------------------

/// A statement tree rendered to concrete syntax below. `Break`/`Continue`
/// only render inside a loop so the source always parses.
#[derive(Clone, Debug)]
enum GStmt {
    Assign(u8, u8),
    Acc(u8),
    If(Vec<GStmt>, Vec<GStmt>),
    While(Vec<GStmt>),
    For(Vec<GStmt>),
    Break,
    Continue,
    Ret,
}

const VARS: [&str; 4] = ["a", "b", "c", "d"];

fn expr(e: u8) -> &'static str {
    match e % 6 {
        0 => "0",
        1 => "1",
        2 => "a + 1",
        3 => "b + c",
        4 => "n",
        _ => "d",
    }
}

fn render(stmts: &[GStmt], out: &mut String, indent: usize, loop_depth: usize) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            GStmt::Assign(v, e) => {
                out.push_str(&format!("{pad}{} = {};\n", VARS[*v as usize % 4], expr(*e)))
            }
            GStmt::Acc(v) => {
                let v = VARS[*v as usize % 4];
                out.push_str(&format!("{pad}{v} = {v} + 1;\n"));
            }
            GStmt::If(t, e) => {
                out.push_str(&format!("{pad}if (a < n) {{\n"));
                render(t, out, indent + 1, loop_depth);
                out.push_str(&format!("{pad}}} else {{\n"));
                render(e, out, indent + 1, loop_depth);
                out.push_str(&format!("{pad}}}\n"));
            }
            GStmt::While(b) => {
                out.push_str(&format!("{pad}while (b < n) {{\n"));
                render(b, out, indent + 1, loop_depth + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
            GStmt::For(b) => {
                out.push_str(&format!("{pad}for (t in rows) {{\n"));
                out.push_str(&format!("{pad}    c = c + t.salary;\n"));
                render(b, out, indent + 1, loop_depth + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
            GStmt::Break if loop_depth > 0 => out.push_str(&format!("{pad}break;\n")),
            GStmt::Continue if loop_depth > 0 => out.push_str(&format!("{pad}continue;\n")),
            GStmt::Break | GStmt::Continue => out.push_str(&format!("{pad}b = 1;\n")),
            GStmt::Ret => out.push_str(&format!("{pad}return a;\n")),
        }
    }
}

fn arb_program() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0u8..4, 0u8..6).prop_map(|(v, e)| GStmt::Assign(v, e)),
        (0u8..4).prop_map(GStmt::Acc),
        Just(GStmt::Break),
        Just(GStmt::Continue),
        Just(GStmt::Ret),
    ];
    let stmt = leaf.prop_recursive(3, 24, 4, |inner| {
        let block = proptest::collection::vec(inner, 1..4);
        prop_oneof![
            (block.clone(), block.clone()).prop_map(|(t, e)| GStmt::If(t, e)),
            block.clone().prop_map(GStmt::While),
            block.prop_map(GStmt::For),
        ]
    });
    proptest::collection::vec(stmt, 1..6).prop_map(|stmts| {
        let mut body = String::new();
        render(&stmts, &mut body, 1, 0);
        format!(
            "fn g(n) {{\n    rows = executeQuery(\"SELECT * FROM emp\");\n    \
             a = 0;\n    b = 0;\n    c = 0;\n    d = 0;\n{body}    return a + b + c + d;\n}}"
        )
    })
}

fn parse(src: &str) -> Function {
    let p = imp::parser::parse_program(src)
        .unwrap_or_else(|e| panic!("generated source invalid: {e}\n{src}"));
    p.functions.into_iter().next().unwrap()
}

// --- Test-local analysis clients ----------------------------------------

/// `into ∪= other`; true when `into` grew.
fn union_into(into: &mut BTreeSet<Symbol>, other: &BTreeSet<Symbol>) -> bool {
    let before = into.len();
    into.extend(other);
    into.len() != before
}

/// Forward may-analysis: variables assigned a literal on some path.
struct ConstOnSomePath;

impl Analysis for ConstOnSomePath {
    type Fact = BTreeSet<Symbol>;
    fn name(&self) -> &'static str {
        "const-on-some-path"
    }
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn bottom(&self) -> Self::Fact {
        BTreeSet::new()
    }
    fn join_into(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool {
        union_into(into, other)
    }
    fn apply_stmt(&self, _at: usize, s: &Stmt, fact: &mut Self::Fact) {
        if let StmtKind::Assign { target, value } = &s.kind {
            if matches!(value, Expr::Lit(_)) {
                fact.insert(*target);
            } else {
                fact.remove(target);
            }
        }
    }
    fn height(&self, ix: &FnIndex<'_>) -> usize {
        ix.var_count() + 1
    }
}

/// Backward liveness-shaped analysis with kills on plain assignments.
struct UsedLater;

impl Analysis for UsedLater {
    type Fact = BTreeSet<Symbol>;
    fn name(&self) -> &'static str {
        "used-later"
    }
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn bottom(&self) -> Self::Fact {
        BTreeSet::new()
    }
    fn join_into(&self, into: &mut Self::Fact, other: &Self::Fact) -> bool {
        union_into(into, other)
    }
    fn apply_stmt(&self, _at: usize, s: &Stmt, fact: &mut Self::Fact) {
        if let StmtKind::Assign { target, .. } = &s.kind {
            fact.remove(target);
        }
        fact.extend(DefUse::of_stmt(s).uses);
    }
    fn apply_terminator(&self, _b: BlockId, t: &Terminator, fact: &mut Self::Fact) {
        match t {
            Terminator::Branch { cond, .. } => fact.extend(cond.vars()),
            Terminator::ForDispatch { var, iterable, .. } => {
                fact.remove(var);
                fact.extend(iterable.vars());
            }
            Terminator::Return(Some(e)) => fact.extend(e.vars()),
            _ => {}
        }
    }
    fn height(&self, ix: &FnIndex<'_>) -> usize {
        ix.var_count() + 1
    }
}

// --- A naive chaotic-iteration reference solver -------------------------

/// Re-compute every block from its neighbours until nothing changes,
/// visiting blocks in a freshly shuffled order each sweep. Any schedule of
/// a monotone problem reaches the same least fixpoint as `solve`'s
/// priority worklist.
fn chaotic_solve<A: Analysis>(a: &A, ix: &FnIndex<'_>, seed: u64) -> (Vec<A::Fact>, Vec<A::Fact>) {
    let cfg = ix.cfg();
    let n = cfg.blocks.len();
    let forward = a.direction() == Direction::Forward;
    let mut entry: Vec<A::Fact> = (0..n).map(|_| a.bottom()).collect();
    let mut exit: Vec<A::Fact> = (0..n).map(|_| a.bottom()).collect();
    if forward {
        entry[cfg.start.0] = a.boundary(ix);
    } else {
        exit[cfg.end.0] = a.boundary(ix);
    }
    let preds = cfg.predecessors();

    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut order: Vec<usize> = (0..n).collect();
    loop {
        for i in (1..n).rev() {
            order.swap(i, rng() as usize % (i + 1));
        }
        let mut changed = false;
        for &i in &order {
            let b = BlockId(i);
            if forward {
                let mut inp = if b == cfg.start {
                    a.boundary(ix)
                } else {
                    a.bottom()
                };
                for p in &preds[i] {
                    a.join_into(&mut inp, &exit[p.0]);
                }
                let out = transfer_block(a, ix, b, inp.clone(), true);
                if inp != entry[i] || out != exit[i] {
                    changed = true;
                    entry[i] = inp;
                    exit[i] = out;
                }
            } else {
                let mut inp = if b == cfg.end {
                    a.boundary(ix)
                } else {
                    a.bottom()
                };
                for s in cfg.successors(b) {
                    a.join_into(&mut inp, &entry[s.0]);
                }
                let out = transfer_block(a, ix, b, inp.clone(), false);
                if inp != exit[i] || out != entry[i] {
                    changed = true;
                    exit[i] = inp;
                    entry[i] = out;
                }
            }
        }
        if !changed {
            return (entry, exit);
        }
    }
}

/// Push `fact` through block `b` in flow order, at the statement
/// positions `ix` assigns.
fn transfer_block<A: Analysis>(
    a: &A,
    ix: &FnIndex<'_>,
    b: BlockId,
    mut fact: A::Fact,
    forward: bool,
) -> A::Fact {
    let term = &ix.cfg().blocks[b.0].terminator;
    let range = ix.block_range(b);
    if forward {
        for at in range {
            a.apply_stmt(at, ix.stmt(at), &mut fact);
        }
        if let Some(t) = term {
            a.apply_terminator(b, t, &mut fact);
        }
    } else {
        if let Some(t) = term {
            a.apply_terminator(b, t, &mut fact);
        }
        for at in range.rev() {
            a.apply_stmt(at, ix.stmt(at), &mut fact);
        }
    }
    fact
}

// --- Corpus helpers -----------------------------------------------------

fn corpus_programs() -> Vec<(String, imp::ast::Program)> {
    workloads::sweep::corpus()
        .into_iter()
        .map(|u| {
            let program = imp::parse_and_normalize(&u.source)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", u.name));
            (u.name, program)
        })
        .collect()
}

/// The oracle refinement contract only holds for structured control flow:
/// around `break`/`continue` the reference conservatively treats the rest
/// of the loop body as reachable, so neither solution contains the other.
fn has_abrupt_exit(f: &Function) -> bool {
    dataflow::stmt_index(f)
        .values()
        .any(|s| matches!(s.kind, StmtKind::Break | StmtKind::Continue))
}

fn header_reads(f: &Function) -> BTreeSet<Symbol> {
    let mut reads = BTreeSet::new();
    for (_, s) in dataflow::stmt_index(f) {
        match &s.kind {
            StmtKind::ForEach { iterable, .. } => reads.extend(iterable.vars()),
            StmtKind::While { cond, .. } => reads.extend(cond.vars()),
            _ => {}
        }
    }
    reads
}

// --- The properties -----------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The priority worklist and naive shuffled chaotic iteration agree on
    /// every block fact, forward and backward, on random structured
    /// programs (ifs, whiles, cursor loops, break/continue, mid returns).
    #[test]
    fn fixpoint_is_schedule_independent(src in arb_program(), seed in any::<u64>()) {
        let f = parse(&src);
        let ix = FnIndex::build(&f);
        let fwd = dataflow::solve(&ConstOnSomePath, &ix);
        let (entry, exit) = chaotic_solve(&ConstOnSomePath, &ix, seed);
        prop_assert_eq!(&fwd.entry, &entry, "forward entry facts differ\n{}", &src);
        prop_assert_eq!(&fwd.exit, &exit, "forward exit facts differ\n{}", &src);

        let bwd = dataflow::solve(&UsedLater, &ix);
        let (entry, exit) = chaotic_solve(&UsedLater, &ix, seed.rotate_left(17));
        prop_assert_eq!(&bwd.entry, &entry, "backward entry facts differ\n{}", &src);
        prop_assert_eq!(&bwd.exit, &exit, "backward exit facts differ\n{}", &src);
    }

    /// The CFG-ported liveness refines the structured reference oracle on
    /// random programs: nothing the oracle proves live is lost, and any
    /// surplus is a loop-header read the oracle's single body pass misses.
    #[test]
    fn ported_liveness_refines_reference(src in arb_program()) {
        let f = parse(&src);
        if has_abrupt_exit(&f) {
            return;
        }
        let ix = FnIndex::build(&f);
        let ported = Liveness::compute(&ix);
        let oracle = reference::Liveness::compute(&f);
        let headers = header_reads(&f);
        for (id, s) in dataflow::stmt_index(&f) {
            if !matches!(
                s.kind,
                StmtKind::Assign { .. }
                    | StmtKind::Expr(_)
                    | StmtKind::Print(_)
                    | StmtKind::ForEach { .. }
                    | StmtKind::While { .. }
            ) {
                continue;
            }
            let p = ported.after(id);
            let o = oracle.after(id);
            prop_assert!(o.is_subset(&p), "port lost liveness at {:?}\n{}", id, &src);
            prop_assert!(
                p.difference(&o).all(|v| headers.contains(v)),
                "surplus at {:?} is not a header read: {:?} vs {:?}\n{}",
                id, p, o, &src
            );
        }
    }
}

/// The same refinement contract over the real corpus programs.
#[test]
fn ported_liveness_refines_reference_on_corpus() {
    for (name, program) in corpus_programs() {
        for f in &program.functions {
            if has_abrupt_exit(f) {
                continue;
            }
            let ix = FnIndex::build(f);
            let ported = Liveness::compute(&ix);
            let oracle = reference::Liveness::compute(f);
            let headers = header_reads(f);
            for (id, s) in dataflow::stmt_index(f) {
                if !matches!(
                    s.kind,
                    StmtKind::Assign { .. }
                        | StmtKind::Expr(_)
                        | StmtKind::Print(_)
                        | StmtKind::ForEach { .. }
                        | StmtKind::While { .. }
                ) {
                    continue;
                }
                let p = ported.after(id);
                let o = oracle.after(id);
                assert!(o.is_subset(&p), "{name}: port lost liveness at {id:?}");
                assert!(
                    p.difference(&o).all(|v| headers.contains(v)),
                    "{name}: surplus liveness at {id:?} is not a header read"
                );
            }
        }
    }
}

/// Reaching definitions on the corpus: every variable a statement reads is
/// covered by at least one reaching definition site, and every site in the
/// solution is a statement that can actually define the variable (or the
/// parameter pseudo-site).
#[test]
fn reaching_defs_cover_uses_on_corpus() {
    for (name, program) in corpus_programs() {
        let ctx = DefUseCtx::of_program(&program);
        for f in &program.functions {
            let ix = FnIndex::build(f);
            let reach = ReachingDefs::compute(&ix, &ctx);
            let stmts = dataflow::stmt_index(f);
            for (id, s) in &stmts {
                // `If` ids carry no CFG fact (their conditions live on
                // `Branch` terminators); everything else must be covered.
                if matches!(s.kind, StmtKind::If { .. }) {
                    continue;
                }
                for used in &DefUse::of_stmt_in(s, &ctx).uses {
                    assert!(
                        !reach.defs_of(*id, *used).is_empty(),
                        "{name}: no definition of `{used}` reaches {id:?}"
                    );
                }
                for (var, site) in reach.before(*id) {
                    let Some(site) = site else {
                        assert!(
                            f.params.contains(&var),
                            "{name}: entry site for non-parameter `{var}`"
                        );
                        continue;
                    };
                    let def_stmt = stmts[&site];
                    let defines = match &def_stmt.kind {
                        StmtKind::Assign { target, .. } => *target == var,
                        StmtKind::ForEach { var: v, .. } => {
                            *v == var || DefUse::of_stmt_in(def_stmt, &ctx).defs.contains(&var)
                        }
                        _ => DefUse::of_stmt_in(def_stmt, &ctx).defs.contains(&var),
                    };
                    assert!(
                        defines,
                        "{name}: site {site:?} cannot define `{var}` yet reaches {id:?}"
                    );
                }
            }
        }
    }
}
