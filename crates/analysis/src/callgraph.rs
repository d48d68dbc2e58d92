//! Call graph over user-defined `imp` functions.
//!
//! The interprocedural effect analysis ([`crate::effects`]) needs to know
//! which user functions each function calls so it can iterate summaries to
//! a fixpoint. Only *user-defined* callees appear as edges — builtins are
//! classified directly by the shared effect table
//! ([`imp::ast::builtins`]), and genuinely-unknown names are handled at the
//! call site, not here.

use std::collections::{BTreeMap, BTreeSet};

use intern::Symbol;

use imp::ast::{Expr, Program};

/// The user-function call graph of a program.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// For each function, the set of user functions it calls (directly,
    /// anywhere in its body — including from nested blocks).
    pub callees: BTreeMap<Symbol, BTreeSet<Symbol>>,
}

impl CallGraph {
    /// Build the call graph of a program.
    pub fn build(p: &Program) -> CallGraph {
        let defined: BTreeSet<Symbol> = p.functions.iter().map(|f| f.name).collect();
        let mut callees = BTreeMap::new();
        for f in &p.functions {
            let mut out = BTreeSet::new();
            f.body.walk_exprs(&mut |e| {
                if let Expr::Call { name, .. } = e {
                    if defined.contains(name) {
                        out.insert(*name);
                    }
                }
            });
            callees.insert(f.name, out);
        }
        CallGraph { callees }
    }

    /// The user functions `f` calls (empty set for unknown `f`).
    pub fn callees_of(&self, f: Symbol) -> &BTreeSet<Symbol> {
        static EMPTY: BTreeSet<Symbol> = BTreeSet::new();
        self.callees.get(&f).unwrap_or(&EMPTY)
    }

    /// A deterministic bottom-up processing order: callees before callers
    /// where the graph is acyclic (post-order DFS from every root). Cycles
    /// (recursion) appear in first-visit order; the effect fixpoint
    /// re-iterates until summaries stabilize, so the order only affects how
    /// many sweeps convergence takes, never the result.
    pub fn postorder(&self) -> Vec<Symbol> {
        let mut order = Vec::with_capacity(self.callees.len());
        let mut state: BTreeMap<Symbol, u8> = BTreeMap::new(); // 1 = visiting, 2 = done
        for root in self.callees.keys() {
            self.visit(*root, &mut state, &mut order);
        }
        order
    }

    fn visit(&self, f: Symbol, state: &mut BTreeMap<Symbol, u8>, order: &mut Vec<Symbol>) {
        match state.get(&f) {
            Some(_) => return,
            None => {
                state.insert(f, 1);
            }
        }
        for c in self.callees_of(f).clone() {
            self.visit(c, state, order);
        }
        state.insert(f, 2);
        order.push(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;

    #[test]
    fn edges_only_to_user_functions() {
        let p = parse_program(
            "fn a(x) { return b(max(x, 0)); } \
             fn b(x) { return x + mystery(x); }",
        )
        .unwrap();
        let g = CallGraph::build(&p);
        assert_eq!(
            g.callees_of(Symbol::intern("a")),
            &[Symbol::intern("b")].into_iter().collect()
        );
        assert!(
            g.callees_of(Symbol::intern("b")).is_empty(),
            "mystery is not user-defined, max is a builtin"
        );
    }

    #[test]
    fn postorder_puts_callees_first() {
        let p = parse_program(
            "fn top(x) { return mid(x); } \
             fn mid(x) { return low(x); } \
             fn low(x) { return x; }",
        )
        .unwrap();
        let g = CallGraph::build(&p);
        let order = g.postorder();
        let pos = |n: &str| order.iter().position(|s| *s == Symbol::intern(n)).unwrap();
        assert!(pos("low") < pos("mid") && pos("mid") < pos("top"));
        assert_eq!(order.len(), 3, "every function appears exactly once");
    }

    #[test]
    fn recursion_does_not_hang() {
        let p = parse_program(
            "fn even(x) { if (x == 0) return 1; return odd(x - 1); } \
             fn odd(x) { if (x == 0) return 0; return even(x - 1); }",
        )
        .unwrap();
        let g = CallGraph::build(&p);
        assert_eq!(g.postorder().len(), 2);
    }
}
