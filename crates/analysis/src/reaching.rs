//! Forward reaching-definitions analysis on the CFG, built on the monotone
//! framework in [`crate::dataflow`].
//!
//! A *definition site* is `(variable, Some(stmt))` for a statement that may
//! write the variable, or `(variable, None)` for a function parameter (the
//! definition "before the function body"). The lattice is the powerset of
//! definition sites with union as join.
//!
//! Kill precision follows [`crate::defuse`]'s conventions:
//!
//! * a plain `Assign` *strongly* kills every other definition of its
//!   target — after `x = e;` only that site defines `x`;
//! * partial definitions (`c.add(x)`, helpers that mutate an argument, the
//!   cursor variable of a `for` header) are *gen-only*: the old value may
//!   survive, so prior sites stay in the set.
//!
//! Used by the loop-query lints ([`crate::loopquery`]) to decide whether a
//! query argument is loop-invariant, and generally useful for def-use
//! chain construction.

use intern::Symbol;
use std::collections::BTreeSet;

use imp::ast::{Stmt, StmtId, StmtKind};

use crate::dataflow::{self, Analysis, BitSet, Direction, FnIndex};
use crate::defuse::{for_each_access, Access, DefUseCtx};

/// One definition site: the variable and the statement that may define it
/// (`None` = the function-entry definition of a parameter).
pub type DefSite = (Symbol, Option<StmtId>);

/// Per-statement reaching-definitions results: block-level facts, replayed
/// on demand.
#[derive(Debug, Clone)]
pub struct ReachingDefs<'a> {
    a: ReachAnalysis<'a>,
    sol: dataflow::Solution<BitSet>,
}

/// The dataflow client: forward, a bitset over the function's numbered
/// definition sites. Parameter sites come first; then each statement's
/// sites, in position order, are the contiguous range
/// `site_start[at]..site_start[at + 1]`.
#[derive(Debug, Clone)]
struct ReachAnalysis<'a> {
    ix: &'a FnIndex<'a>,
    sites: Vec<DefSite>,
    params: usize,
    site_start: Vec<u32>,
    /// The target variable of the `Assign` at each position, if any: it
    /// strongly kills every other site of that variable.
    assigns: Vec<Option<u32>>,
    /// Row `v` (of `width` words) holds every site of variable `v`.
    width: usize,
    var_sites: Vec<u64>,
}

impl<'a> ReachAnalysis<'a> {
    fn new(ix: &'a FnIndex<'a>, ctx: &DefUseCtx) -> ReachAnalysis<'a> {
        let f = ix.function();
        // Most statements define at most one variable.
        let mut sites: Vec<DefSite> = Vec::with_capacity(f.params.len() + ix.stmt_count());
        let mut site_vars: Vec<usize> = Vec::with_capacity(sites.capacity());
        let mut seen = BitSet::new(ix.var_count());
        for p in &f.params {
            let v = ix.var(*p).expect("parameters are indexed");
            if seen.insert(v) {
                sites.push((*p, None));
                site_vars.push(v);
            }
        }
        let params = sites.len();
        let mut site_start = Vec::with_capacity(ix.stmt_count() + 1);
        let mut assigns = Vec::with_capacity(ix.stmt_count());
        // One site per (statement, variable) pair, in name order like the
        // def set of `DefUse::of_stmt_in`.
        let mut defs: Vec<Symbol> = Vec::new();
        for at in 0..ix.stmt_count() {
            let s = ix.stmt(at);
            site_start.push(sites.len() as u32);
            defs.clear();
            if let StmtKind::Assign { target, .. } = &s.kind {
                // Only the target: other writes in the value are ignored.
                defs.push(*target);
                assigns.push(Some(ix.var(*target).expect("indexed") as u32));
            } else {
                // Everything else gens without killing (partial
                // definitions).
                for_each_access(s, ctx, &mut |a| {
                    if let Access::Def(v) = a {
                        defs.push(v);
                    }
                });
                assigns.push(None);
            }
            defs.sort_unstable();
            defs.dedup();
            for v in &defs {
                sites.push((*v, Some(s.id)));
                site_vars.push(ix.var(*v).expect("indexed"));
            }
        }
        site_start.push(sites.len() as u32);
        let width = BitSet::words_for(sites.len());
        let mut var_sites = vec![0; ix.var_count() * width];
        for (site, v) in site_vars.into_iter().enumerate() {
            dataflow::set_bit(&mut var_sites[v * width..(v + 1) * width], site);
        }
        ReachAnalysis {
            ix,
            sites,
            params,
            site_start,
            assigns,
            width,
            var_sites,
        }
    }
}

impl Analysis for ReachAnalysis<'_> {
    type Fact = BitSet;

    fn name(&self) -> &'static str {
        "reaching-defs"
    }

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> BitSet {
        BitSet::new(self.sites.len())
    }

    fn boundary(&self, _ix: &FnIndex<'_>) -> BitSet {
        let mut entry = self.bottom();
        for site in 0..self.params {
            entry.insert(site);
        }
        entry
    }

    fn join_into(&self, into: &mut BitSet, other: &BitSet) -> bool {
        into.union_with(other)
    }

    fn apply_stmt(&self, at: usize, _s: &Stmt, fact: &mut BitSet) {
        if let Some(v) = self.assigns[at] {
            let v = v as usize;
            let row = &self.var_sites[v * self.width..(v + 1) * self.width];
            fact.subtract(row);
        }
        for site in self.site_start[at]..self.site_start[at + 1] {
            fact.insert(site as usize);
        }
    }

    fn height(&self, _ix: &FnIndex<'_>) -> usize {
        self.sites.len() + 1
    }
}

impl<'a> ReachingDefs<'a> {
    /// Compute reaching definitions over the function `ix` indexes. With
    /// interprocedural effect summaries in `ctx`, mutated-argument escapes
    /// become gen-only definition sites; `DefUseCtx::default()` treats
    /// every user call conservatively.
    pub fn compute(ix: &'a FnIndex<'a>, ctx: &DefUseCtx) -> ReachingDefs<'a> {
        let a = ReachAnalysis::new(ix, ctx);
        let sol = dataflow::solve(&a, ix);
        ReachingDefs { a, sol }
    }

    /// The sites of `fact`, in `(variable name, site)` order.
    fn sites(&self, fact: &BitSet) -> BTreeSet<DefSite> {
        fact.iter().map(|i| self.a.sites[i]).collect()
    }

    /// Definition sites reaching the program point just before `id`
    /// (empty when the statement is unknown). Replays `id`'s block.
    pub fn before(&self, id: StmtId) -> BTreeSet<DefSite> {
        self.sol
            .before(&self.a, self.a.ix, id)
            .map(|fact| self.sites(&fact))
            .unwrap_or_default()
    }

    /// The statements that may have defined `var` last, observed just
    /// before `id`. `None` entries mean the parameter definition reaches.
    pub fn defs_of(&self, id: StmtId, var: Symbol) -> BTreeSet<Option<StmtId>> {
        self.before(id)
            .into_iter()
            .filter(|(v, _)| *v == var)
            .map(|(_, site)| site)
            .collect()
    }

    /// Call `visit(stmt, sites)` with the definition sites reaching each
    /// statement, each block replayed once.
    pub fn replay(&self, mut visit: impl FnMut(&'a Stmt, &mut dyn Iterator<Item = DefSite>)) {
        let sites = &self.a.sites;
        self.sol.replay(&self.a, self.a.ix, |_, s, fact| {
            visit(s, &mut fact.iter().map(|i| sites[i]))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;

    /// The results borrow the function and its index, so the test leaks
    /// both.
    fn reach(src: &str) -> (&'static imp::ast::Function, ReachingDefs<'static>) {
        let p = parse_program(src).unwrap();
        let f: &'static imp::ast::Function = Box::leak(Box::new(p.functions[0].clone()));
        let ix = Box::leak(Box::new(FnIndex::build(f)));
        (f, ReachingDefs::compute(ix, &DefUseCtx::default()))
    }

    #[test]
    fn assign_strongly_kills() {
        let (f, r) = reach("fn f() { x = 1; x = 2; y = x; }");
        let s_y = f.body.stmts[2].id;
        let sites = r.defs_of(s_y, Symbol::intern("x"));
        assert_eq!(sites, BTreeSet::from([Some(f.body.stmts[1].id)]));
    }

    #[test]
    fn params_reach_until_killed() {
        let (f, r) = reach("fn f(a) { x = a; a = 2; y = a; }");
        assert_eq!(
            r.defs_of(f.body.stmts[0].id, Symbol::intern("a")),
            BTreeSet::from([None]),
            "the parameter definition reaches the first use"
        );
        assert_eq!(
            r.defs_of(f.body.stmts[2].id, Symbol::intern("a")),
            BTreeSet::from([Some(f.body.stmts[1].id)])
        );
    }

    #[test]
    fn branches_merge_by_union() {
        let (f, r) = reach("fn f(c) { if (c > 0) { x = 1; } else { x = 2; } y = x; }");
        let s_y = f.body.stmts[1].id;
        assert_eq!(r.defs_of(s_y, Symbol::intern("x")).len(), 2);
    }

    #[test]
    fn loop_body_defs_reach_around_the_back_edge() {
        let (f, r) = reach("fn f() { s = 0; for (t in q) { s = s + t.x; } return s; }");
        let StmtKind::ForEach { body, .. } = &f.body.stmts[1].kind else {
            panic!("expected loop");
        };
        let upd = body.stmts[0].id;
        let sites = r.defs_of(upd, Symbol::intern("s"));
        assert!(sites.contains(&Some(f.body.stmts[0].id)), "init reaches");
        assert!(sites.contains(&Some(upd)), "own update reaches around");
    }

    #[test]
    fn mutating_method_is_gen_only() {
        let (f, r) = reach("fn f() { c = list(); c.add(1); n = c.size(); }");
        let s_n = f.body.stmts[2].id;
        let sites = r.defs_of(s_n, Symbol::intern("c"));
        assert_eq!(sites.len(), 2, "init and partial def both reach: {sites:?}");
    }
}
