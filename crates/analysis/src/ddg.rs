//! Loop-carried dependences of a cursor-loop body (paper Sec. 4.2).
//!
//! Definitions from the paper:
//!
//! * **loop-carried flow dependence (lcfd)**: between `S1` and `S2` "if `S2`
//!   follows `S1` in the control flow, and `S2` writes to a location which
//!   is read by `S1` in a future iteration";
//! * **external dependence**: both statements access the same external
//!   location (file, database, console) and at least one writes it; the
//!   entire database is one location.
//!
//! The paper phrases preconditions P1–P3 over a dependence multi-graph.
//! They only ask whether an lcfd on the accumulator exists, which other
//! lcfd exists first, and whether anything writes externally, so [`Ddg`]
//! keeps no edge list: it answers those queries from the atoms, in time
//! linear in the atoms and their def and use sets.
//!
//! The loop body is flattened into *atoms*:
//!
//! * each simple statement is an atom;
//! * statements nested under an `if` become atoms whose use set includes the
//!   condition's variables (this folds control dependence into the atoms,
//!   which is what Weiser-style slicing needs);
//! * a nested loop is a single *composite* atom summarizing its whole
//!   subtree (by the time the outer loop is analysed, inner loops have
//!   already been converted to `fold` stubs — `toFIR` recurses bottom-up —
//!   but unconvertible inner loops remain and are summarized
//!   conservatively).
//!
//! A write in iteration k reaches a read at or before the writing atom in
//! iteration k+1, unless an unconditional fresh definition of the variable
//! (one that does not read it) *kills* the carried value before the read
//! executes, e.g. the `total = 0` re-initialization preceding a nested
//! aggregation loop. So `writer → reader` on `v` is an lcfd iff the reader
//! uses `v`, the writer defines it, the reader comes no later than the
//! writer, and no killing atom of `v` comes before the reader.

use intern::Symbol;
use std::collections::{BTreeMap, BTreeSet};

use imp::ast::{Block, Stmt, StmtId, StmtKind};

use crate::defuse::{DefUse, DefUseCtx};

/// One flattened statement of a loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Statement id in the original AST.
    pub id: StmtId,
    /// Variables written.
    pub defs: BTreeSet<Symbol>,
    /// Variables read (including enclosing branch conditions' variables).
    pub uses: BTreeSet<Symbol>,
    /// Writes an external location.
    pub ext_write: bool,
    /// True when the atom executes unconditionally on every iteration (not
    /// nested under an `if`, and not a loop that may run zero times). Only
    /// unconditional defs *kill* loop-carried dependences.
    pub unconditional: bool,
}

/// A loop-carried flow dependence: `writer` writes `var` on one iteration
/// and `reader` reads that value on the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lcfd {
    /// The writing atom.
    pub writer: StmtId,
    /// The reading atom.
    pub reader: StmtId,
    /// The variable carrying the dependence.
    pub var: Symbol,
}

/// The flattened atoms of one cursor-loop body, with the queries
/// preconditions P1–P3 ask of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Ddg {
    /// Flattened atoms in program order.
    pub atoms: Vec<Atom>,
    /// The loop's cursor variable (whose header update is the one permitted
    /// lcfd besides the accumulator's, per precondition P2).
    pub cursor_var: Symbol,
    /// Per variable, the position of its first killing atom.
    first_kill: BTreeMap<Symbol, usize>,
    /// Every (variable, position) pair of an atom defining the variable,
    /// sorted.
    def_sites: Vec<(Symbol, usize)>,
}

impl Ddg {
    /// Flatten a loop body, with `ctx`'s effect summaries for user calls.
    pub fn build_with(body: &Block, cursor_var: impl Into<Symbol>, ctx: &DefUseCtx) -> Ddg {
        let mut atoms = Vec::new();
        flatten(body, &BTreeSet::new(), ctx, &mut atoms);
        let mut first_kill = BTreeMap::new();
        for (i, a) in atoms.iter().enumerate() {
            if a.unconditional {
                for v in a.defs.difference(&a.uses) {
                    first_kill.entry(*v).or_insert(i);
                }
            }
        }
        let mut def_sites: Vec<(Symbol, usize)> = atoms
            .iter()
            .enumerate()
            .flat_map(|(i, a)| a.defs.iter().map(move |v| (*v, i)))
            .collect();
        def_sites.sort_unstable();
        Ddg {
            atoms,
            cursor_var: cursor_var.into(),
            first_kill,
            def_sites,
        }
    }

    /// Positions, in body order, of the atoms that define `var`.
    pub(crate) fn defining_atoms(&self, var: Symbol) -> impl Iterator<Item = usize> + '_ {
        let from = self.def_sites.partition_point(|(v, _)| *v < var);
        self.def_sites[from..]
            .iter()
            .take_while(move |(v, _)| *v == var)
            .map(|(_, i)| *i)
    }

    /// Whether the value of `var` carried into an iteration still reaches
    /// the atom at position `reader` (no killing atom comes before it).
    fn carried_to(&self, var: Symbol, reader: usize) -> bool {
        self.first_kill.get(&var).is_none_or(|k| reader <= *k)
    }

    /// True when an lcfd on `var` has its writer and reader in `scope`
    /// (precondition P1).
    pub fn has_lcfd_on(&self, var: Symbol, scope: &BTreeSet<StmtId>) -> bool {
        let Some(last_writer) = self
            .atoms
            .iter()
            .rposition(|a| a.defs.contains(&var) && scope.contains(&a.id))
        else {
            return false;
        };
        self.atoms[..=last_writer]
            .iter()
            .enumerate()
            .any(|(r, a)| a.uses.contains(&var) && scope.contains(&a.id) && self.carried_to(var, r))
    }

    /// The first lcfd within `scope` on a variable outside `allowed`
    /// (precondition P2), ordered by writer, then reader, then variable.
    pub fn first_lcfd_outside(&self, allowed: &[Symbol], scope: &BTreeSet<StmtId>) -> Option<Lcfd> {
        // Per variable, the first reader in scope the carried value reaches;
        // any writer at or after it closes an lcfd.
        let mut first_reader: BTreeMap<Symbol, usize> = BTreeMap::new();
        for (r, a) in self.atoms.iter().enumerate() {
            if !scope.contains(&a.id) {
                continue;
            }
            for v in &a.uses {
                if !allowed.contains(v) && self.carried_to(*v, r) {
                    first_reader.entry(*v).or_insert(r);
                }
            }
        }
        self.atoms.iter().enumerate().find_map(|(w, a)| {
            if !scope.contains(&a.id) {
                return None;
            }
            let (r, var) = a
                .defs
                .iter()
                .filter_map(|v| first_reader.get(v).filter(|r| **r <= w).map(|r| (*r, *v)))
                .min()?;
            Some(Lcfd {
                writer: a.id,
                reader: self.atoms[r].id,
                var,
            })
        })
    }

    /// Statement ids (in body order) of atoms in `scope` that write an
    /// external location. Because the loop iterates an external query
    /// result (an external read), any one of them creates an external
    /// dependence (paper P3); they anchor the diagnostics.
    pub fn external_writers_within(&self, scope: &BTreeSet<StmtId>) -> Vec<StmtId> {
        self.atoms
            .iter()
            .filter(|a| scope.contains(&a.id) && a.ext_write)
            .map(|a| a.id)
            .collect()
    }

    /// Statement ids of atoms that define `var`.
    pub fn writers_of(&self, var: impl Into<Symbol>) -> BTreeSet<StmtId> {
        self.defining_atoms(var.into())
            .map(|i| self.atoms[i].id)
            .collect()
    }
}

fn flatten(block: &Block, control_uses: &BTreeSet<Symbol>, ctx: &DefUseCtx, out: &mut Vec<Atom>) {
    let under_cond = !control_uses.is_empty();
    for s in &block.stmts {
        match &s.kind {
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                // Conditions only read.
                let cond_uses: BTreeSet<Symbol> = cond.vars().into_iter().collect();
                // The condition itself may call external functions: model
                // it as its own atom. The `If`'s own accesses are exactly
                // its condition's.
                let du = DefUse::of_stmt_in(s, ctx);
                if du.ext_read || du.ext_write {
                    out.push(Atom {
                        id: s.id,
                        defs: BTreeSet::new(),
                        uses: cond_uses.clone(),
                        ext_write: du.ext_write,
                        unconditional: !under_cond,
                    });
                }
                let mut inner_ctl = control_uses.clone();
                inner_ctl.extend(cond_uses);
                flatten(then_branch, &inner_ctl, ctx, out);
                flatten(else_branch, &inner_ctl, ctx, out);
            }
            StmtKind::ForEach { .. } | StmtKind::While { .. } => {
                // Composite atom for the whole nested loop. The nested
                // loops' own cursor variables are loop-local — they carry
                // no dependence visible to the enclosing loop.
                let mut du = DefUse::of_stmt_recursive_in(s, ctx);
                for c in nested_cursors(s) {
                    du.defs.remove(&c);
                    du.uses.remove(&c);
                }
                du.uses.extend(control_uses.iter().cloned());
                out.push(Atom {
                    id: s.id,
                    defs: du.defs,
                    uses: du.uses,
                    ext_write: du.ext_write,
                    // A nested loop may run zero iterations: its defs are
                    // conditional and never kill.
                    unconditional: false,
                });
            }
            _ => {
                let mut du = DefUse::of_stmt_in(s, ctx);
                du.uses.extend(control_uses.iter().cloned());
                out.push(Atom {
                    id: s.id,
                    defs: du.defs,
                    uses: du.uses,
                    ext_write: du.ext_write,
                    unconditional: !under_cond,
                });
            }
        }
    }
}

/// Cursor variables of this statement and all loops nested inside it.
fn nested_cursors(s: &Stmt) -> Vec<Symbol> {
    let mut out = Vec::new();
    fn rec(s: &Stmt, out: &mut Vec<Symbol>) {
        match &s.kind {
            StmtKind::ForEach { var, body, .. } => {
                out.push(*var);
                for inner in &body.stmts {
                    rec(inner, out);
                }
            }
            StmtKind::While { body, .. } => {
                for inner in &body.stmts {
                    rec(inner, out);
                }
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                for inner in then_branch.stmts.iter().chain(&else_branch.stmts) {
                    rec(inner, out);
                }
            }
            _ => {}
        }
    }
    rec(s, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;

    /// The atoms of the first for-each loop in `src`, and its body.
    fn ddg_of(src: &str) -> (Ddg, Vec<Stmt>) {
        let p = parse_program(src).unwrap();
        for s in &p.functions[0].body.stmts {
            if let StmtKind::ForEach { var, body, .. } = &s.kind {
                return (
                    Ddg::build_with(body, var, &DefUseCtx::default()),
                    body.stmts.clone(),
                );
            }
        }
        panic!("no loop in source");
    }

    /// Every atom of `ddg`, the widest scope.
    fn all(ddg: &Ddg) -> BTreeSet<StmtId> {
        ddg.atoms.iter().map(|a| a.id).collect()
    }

    #[test]
    fn accumulator_has_self_lcfd() {
        let (ddg, stmts) = ddg_of("fn f() { for (t in q) { agg = agg + t.x; } }");
        let id = stmts[0].id;
        let scope: BTreeSet<StmtId> = [id].into();
        assert!(ddg.has_lcfd_on("agg".into(), &scope));
        assert_eq!(
            ddg.first_lcfd_outside(&[], &scope),
            Some(Lcfd {
                writer: id,
                reader: id,
                var: "agg".into(),
            })
        );
        assert_eq!(ddg.first_lcfd_outside(&["agg".into()], &scope), None);
    }

    #[test]
    fn figure7_dummy_val_has_two_lcfds() {
        // Paper Fig. 7: dummyVal depends on agg, both are accumulated. agg
        // is written before dummyVal reads it in the same iteration, so the
        // only lcfds are the two self edges.
        let (ddg, stmts) =
            ddg_of("fn f() { for (t in q) { agg = agg + t.x; dummyVal = dummyVal * 2 + agg; } }");
        let every = all(&ddg);
        assert!(ddg.has_lcfd_on("agg".into(), &every));
        assert!(ddg.has_lcfd_on("dummyVal".into(), &every));
        let dummy = ddg.first_lcfd_outside(&["agg".into()], &every).unwrap();
        assert_eq!((dummy.writer, dummy.reader), (stmts[1].id, stmts[1].id));
        assert_eq!(dummy.var, "dummyVal");
        assert_eq!(
            ddg.first_lcfd_outside(&["agg".into(), "dummyVal".into()], &every),
            None
        );
    }

    #[test]
    fn straight_flow_edge_exists() {
        // x is written before it is read within the iteration and y is
        // never read: no lcfd anywhere.
        let (ddg, _) = ddg_of("fn f() { for (t in q) { x = t.a; y = x + 1; } }");
        let every = all(&ddg);
        assert!(!ddg.has_lcfd_on("x".into(), &every));
        assert_eq!(ddg.first_lcfd_outside(&[], &every), None);
    }

    #[test]
    fn unconditional_kill_precedes_the_read() {
        // `k = 0` kills k's carried value before `s` reads it; `m` is only
        // reassigned under a guard, so its carried value survives.
        let (ddg, stmts) = ddg_of(
            "fn f() { for (t in q) { k = 0; s = s + k + m; if (t.a > 0) { m = 1; } k = t.b; } }",
        );
        let every = all(&ddg);
        assert!(!ddg.has_lcfd_on("k".into(), &every));
        let first = ddg.first_lcfd_outside(&["s".into()], &every).unwrap();
        assert_eq!(first.var, "m");
        assert_eq!(first.reader, stmts[1].id);
    }

    #[test]
    fn conditional_update_reads_condition_vars() {
        let (ddg, _) =
            ddg_of("fn f() { for (t in q) { if (t.score > best) { best = t.score; } } }");
        // The nested assign atom must use `best` via the condition.
        let atom = ddg
            .atoms
            .iter()
            .find(|a| a.defs.contains(&Symbol::intern("best")))
            .unwrap();
        assert!(atom.uses.contains(&Symbol::intern("best")));
        assert!(atom.uses.contains(&Symbol::intern("t")));
    }

    #[test]
    fn external_write_detected() {
        let (ddg, stmts) =
            ddg_of(r#"fn f() { for (t in q) { executeUpdate("DELETE FROM log"); s = s + t.x; } }"#);
        assert_eq!(ddg.external_writers_within(&all(&ddg)), vec![stmts[0].id]);
        let only_s: BTreeSet<StmtId> = [stmts[1].id].into();
        assert!(ddg.external_writers_within(&only_s).is_empty());
    }

    #[test]
    fn external_condition_is_its_own_atom() {
        let (ddg, stmts) = ddg_of(
            r#"fn f() { for (t in q) { if (executeUpdate("DELETE FROM log") > 0) { s = s + t.x; } } }"#,
        );
        assert_eq!(ddg.atoms.len(), 2);
        assert_eq!(
            ddg.external_writers_within(&[stmts[0].id].into()),
            vec![stmts[0].id]
        );
    }

    #[test]
    fn inner_loop_is_composite_atom() {
        let (ddg, stmts) = ddg_of(
            r#"fn f() { for (a in q1) { inner = 0; for (b in executeQuery("SELECT * FROM u WHERE k = ?", a.id)) { inner = inner + b.v; } out.add(inner); } }"#,
        );
        let loop_atom = ddg.atoms.iter().find(|a| a.id == stmts[1].id).unwrap();
        assert!(loop_atom.defs.contains(&Symbol::intern("inner")));
        assert!(
            !loop_atom.defs.contains(&Symbol::intern("b")),
            "inner cursor"
        );
        assert!(!loop_atom.unconditional);
        assert!(!loop_atom.ext_write);
        // `inner = 0` kills the carried sum before the inner loop reads it.
        assert!(!ddg.has_lcfd_on("inner".into(), &all(&ddg)));
    }

    #[test]
    fn writers_of_finds_updaters() {
        let (ddg, stmts) = ddg_of("fn f() { for (t in q) { s = s + t.x; c = c + 1; } }");
        assert_eq!(ddg.writers_of("s"), BTreeSet::from([stmts[0].id]));
    }
}
