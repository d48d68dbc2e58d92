//! D-IR construction (paper Sec. 3.3, Appendix D).
//!
//! D-IR construction "works on top of the region hierarchy … a bottom up
//! recursive algorithm": build the ee-DAG and ve-Map of each sub-region
//! (leaf variables marked as region inputs), then merge per the parent
//! region's type. `imp` is fully structured, so the regions are the AST's
//! own blocks, as the paper permits: a block is a sequential region, a
//! maximal run of simple statements in it a basic block, and each `if`,
//! `for` and `while` a conditional or loop region. One recursive walk over
//! the AST builds every ve-Map. When a cursor loop is reached, `loopToFold`
//! (module [`crate::fir`]) attempts the F-IR translation immediately — this
//! is the `toFIR` recursion of Fig. 6, which handles inner loops before
//! outer ones.
//!
//! User-defined functions are inlined at the call site "by considering them
//! to form a sequential region, taking into account actual to formal
//! parameter mapping" (Appendix D.6). Statements with no ee-DAG equivalent
//! produce [`Node::Opaque`], which poisons exactly the variables that
//! depend on them (the rest of the program remains analyzable,
//! Sec. 5.4: "other parts of the program may still be amenable").

use std::collections::HashMap;

use intern::Symbol;

use algebra::parse::parse_sql;
use algebra::schema::Catalog;
use analysis::defuse::DefUseCtx;
use imp::ast::{
    builtins, BinaryOp, Block, Expr, Function, Literal, Program, Stmt, StmtId, StmtKind, UnaryOp,
};

use crate::eedag::{CollKind, EeDag, Node, NodeId, OpKind, VeMap};
use crate::fir;

/// Result of building a function's D-IR.
#[derive(Debug)]
pub struct DirResult {
    /// The expression DAG.
    pub dag: EeDag,
    /// Final ve-Map: variable values at function exit, expressed over
    /// function inputs (the function's formal parameters). The function's
    /// return value is keyed `"__ret"`.
    pub ve: VeMap,
    /// Per-variable fold diagnostics accumulated by `loopToFold`.
    pub fold_notes: Vec<FoldNote>,
    /// The function's cursor loops outside any loop body, in source order:
    /// the loops extraction may replace.
    pub loops: Vec<LoopCandidate>,
}

/// A diagnostic record from one `loopToFold` attempt.
#[derive(Debug, Clone)]
pub struct FoldNote {
    /// The loop's `ForEach` statement id.
    pub loop_stmt: StmtId,
    /// The variable.
    pub var: Symbol,
    /// `Ok(())` when the fold was built; `Err(diagnostic)` otherwise.
    pub result: Result<(), analysis::diag::Diagnostic>,
    /// The fold-introduction proof obligation, when the fold was built.
    pub obligation: Option<crate::certify::Obligation>,
}

/// A cursor loop not nested in another loop's body.
#[derive(Debug, Clone)]
pub struct LoopCandidate {
    /// The loop's `ForEach` statement id.
    pub stmt: StmtId,
    /// Each variable the loop modifies, with its value after the loop (a
    /// fold, or ND) resolved against everything before the loop in the
    /// function.
    pub entries: Vec<(Symbol, NodeId)>,
}

/// The name under which a function's return value is recorded in the ve-Map.
pub const RET_VAR: &str = "__ret";

/// D-IR builder for one program.
pub struct DirBuilder<'a> {
    dag: EeDag,
    program: &'a Program,
    catalog: &'a Catalog,
    /// Collection kinds inferred from `x = list()` / `x = set()` sites.
    coll_kinds: HashMap<Symbol, CollKind>,
    /// Remaining inlining depth (guards recursion).
    inline_budget: usize,
    /// Each inlined callee's return value over its formals, per
    /// (callee, remaining `inline_budget`); `None` when it returns none.
    /// The DAG is hash-consed, so a second build at the same budget would
    /// yield the same node: one build serves every call site.
    inlined: HashMap<(Symbol, usize), Option<NodeId>>,
    /// Purity context for the dependence analyses (the program's effect
    /// summaries, built once by the caller).
    du_ctx: &'a DefUseCtx,
    /// F-IR conversion options.
    fir_opts: fir::FirOptions,
    fold_notes: Vec<FoldNote>,
    loops: Vec<LoopCandidate>,
}

impl<'a> DirBuilder<'a> {
    /// Create a builder over `program`, whose effect summaries `du_ctx`
    /// holds.
    pub fn new(
        program: &'a Program,
        catalog: &'a Catalog,
        du_ctx: &'a DefUseCtx,
    ) -> DirBuilder<'a> {
        DirBuilder {
            dag: EeDag::new(),
            program,
            catalog,
            coll_kinds: HashMap::new(),
            inline_budget: 8,
            inlined: HashMap::new(),
            du_ctx,
            fir_opts: fir::FirOptions::default(),
            fold_notes: Vec::new(),
            loops: Vec::new(),
        }
    }

    /// Set F-IR conversion options (e.g. the Appendix B dependent-
    /// aggregation relaxation).
    pub fn with_fir_options(mut self, opts: fir::FirOptions) -> Self {
        self.fir_opts = opts;
        self
    }

    /// Build the D-IR for `f`, a function of the builder's program.
    pub fn build(mut self, f: &Function) -> DirResult {
        // Record `x = list()` / `x = set()` initializations so that
        // `x.add(e)` maps to `append`/`insert` wherever it appears.
        f.body.walk(&mut |s, _| {
            if let StmtKind::Assign {
                target,
                value: Expr::Call { name, .. },
            } = &s.kind
            {
                match name.as_str() {
                    "list" => {
                        self.coll_kinds.insert(*target, CollKind::List);
                    }
                    "set" => {
                        self.coll_kinds.insert(*target, CollKind::Set);
                    }
                    _ => {}
                }
            }
        });
        let ve = self.block_ve(f, &f.body, Some(&VeMap::new()));
        DirResult {
            dag: self.dag,
            ve,
            fold_notes: self.fold_notes,
            loops: self.loops,
        }
    }

    /// The ve-Map of a block of `f`: each modified variable's value at
    /// block exit, expressed over block inputs (`Node::Input`). `prefix`
    /// is the function-relative ve-Map at block entry; it is `None` inside
    /// a loop body or an inlined callee, where no loop is a candidate.
    fn block_ve(&mut self, f: &Function, b: &Block, prefix: Option<&VeMap>) -> VeMap {
        let mut acc = VeMap::new();
        let mut run = 0;
        for (i, s) in b.stmts.iter().enumerate() {
            let ve = match &s.kind {
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.flush_run(&b.stmts[run..i], &mut acc);
                    let here = prefix.map(|p| self.resolve(p, &acc));
                    let cond_node = self.convert_expr(cond, &VeMap::new());
                    let ve_t = self.block_ve(f, then_branch, here.as_ref());
                    let ve_f = self.block_ve(f, else_branch, here.as_ref());
                    self.merge_conditional(cond_node, ve_t, ve_f)
                }
                StmtKind::ForEach {
                    var,
                    iterable,
                    body,
                } => {
                    self.flush_run(&b.stmts[run..i], &mut acc);
                    let ve = self.loop_ve(f, s, *var, iterable, body);
                    if let Some(p) = prefix {
                        let here = self.resolve(p, &acc);
                        let entries = ve
                            .iter()
                            .map(|(v, n)| (*v, self.dag.substitute_inputs(*n, &here)))
                            .collect();
                        self.loops.push(LoopCandidate {
                            stmt: s.id,
                            entries,
                        });
                    }
                    ve
                }
                StmtKind::While { body, .. } => {
                    // Never translated (Sec. 7.1): every modified variable
                    // is ND.
                    self.flush_run(&b.stmts[run..i], &mut acc);
                    let body_ve = self.block_ve(f, body, None);
                    body_ve
                        .into_keys()
                        .map(|v| (v, self.dag.intern(Node::NotDetermined)))
                        .collect()
                }
                _ => continue,
            };
            run = i + 1;
            self.merge_sequential(&mut acc, ve);
        }
        self.flush_run(&b.stmts[run..], &mut acc);
        acc
    }

    /// Merge the basic block `stmts` (possibly empty) into `acc`.
    fn flush_run(&mut self, stmts: &[Stmt], acc: &mut VeMap) {
        if !stmts.is_empty() {
            let ve = self.basic_block_ve(stmts);
            self.merge_sequential(acc, ve);
        }
    }

    /// The function-relative ve-Map after `ve`, given `prefix` before it.
    fn resolve(&mut self, prefix: &VeMap, ve: &VeMap) -> VeMap {
        let mut out = prefix.clone();
        self.merge_sequential(&mut out, ve.clone());
        out
    }

    /// Conditional merge (Appendix D.4): each variable either branch
    /// modifies becomes `?[cond, then, else]`, a missing side reading the
    /// region input.
    fn merge_conditional(&mut self, cond: NodeId, ve_t: VeMap, ve_f: VeMap) -> VeMap {
        let mut vars: Vec<Symbol> = ve_t.keys().copied().collect();
        for k in ve_f.keys() {
            if !vars.contains(k) {
                vars.push(*k);
            }
        }
        let mut out = VeMap::new();
        for v in vars {
            let t_e = match ve_t.get(&v) {
                Some(e) => *e,
                None => self.dag.input(v),
            };
            let f_e = match ve_f.get(&v) {
                Some(e) => *e,
                None => self.dag.input(v),
            };
            let node = self.dag.cond(cond, t_e, f_e);
            out.insert(v, node);
        }
        out
    }

    /// The ve-Map of the cursor loop `s` of `f`: `loopToFold` over its body,
    /// with ND for every variable it cannot fold and for the cursor itself.
    fn loop_ve(
        &mut self,
        f: &Function,
        s: &Stmt,
        var: Symbol,
        iterable: &Expr,
        body: &Block,
    ) -> VeMap {
        let source = self.convert_expr(iterable, &VeMap::new());
        let body_ve = self.block_ve(f, body, None);
        let attempts = fir::loop_to_fold(
            &mut self.dag,
            &body_ve,
            body,
            var,
            source,
            s.id,
            s.span,
            self.du_ctx,
            self.fir_opts,
        );
        let mut out = VeMap::new();
        for a in attempts {
            let (node, result) = match a.node {
                Ok(n) => (n, Ok(())),
                Err(d) => (
                    self.dag.intern(Node::NotDetermined),
                    Err(d.with_function(f.name.as_str())),
                ),
            };
            out.insert(a.var, node);
            self.fold_notes.push(FoldNote {
                loop_stmt: s.id,
                var: a.var,
                result,
                obligation: a.obligation,
            });
        }
        // The cursor variable itself is dead after the loop for our
        // purposes.
        let nd = self.dag.intern(Node::NotDetermined);
        out.insert(var, nd);
        out
    }

    /// Sequential merge (Appendix D.3): resolve `following`'s region inputs
    /// against `acc`, the ve-Map before it, then union (later entries win).
    fn merge_sequential(&mut self, acc: &mut VeMap, following: VeMap) {
        if acc.is_empty() {
            *acc = following;
            return;
        }
        let resolved: Vec<(Symbol, NodeId)> = following
            .into_iter()
            .map(|(v, e)| (v, self.dag.substitute_inputs(e, acc)))
            .collect();
        acc.extend(resolved);
    }

    /// ve-Map of a basic block (Appendix D.1/D.2): statements are folded
    /// left to right, resolving each statement's reads against the running
    /// map.
    fn basic_block_ve(&mut self, stmts: &[Stmt]) -> VeMap {
        let mut ve = VeMap::new();
        for s in stmts {
            match &s.kind {
                StmtKind::Assign { target, value } => {
                    let e = self.convert_expr(value, &ve);
                    ve.insert(*target, e);
                }
                StmtKind::Expr(e) => {
                    if let Expr::MethodCall { recv, name, args } = e {
                        if let Expr::Var(cvar) = recv.as_ref() {
                            if let Some(op) = self.collection_op(*cvar, name.as_str()) {
                                let base = match ve.get(cvar) {
                                    Some(n) => *n,
                                    None => self.dag.input(cvar),
                                };
                                let elem = self.convert_expr(&args[0], &ve);
                                let node = self.dag.op(op, vec![base, elem]);
                                ve.insert(*cvar, node);
                                continue;
                            }
                        }
                    }
                    // Any other expression statement: if it can write
                    // something we cannot model, poison the receiver.
                    if let Expr::MethodCall { recv: _, name, .. } = e {
                        if analysis::defuse::MUTATING_METHODS.contains(&name.as_str()) {
                            if let Expr::MethodCall { recv, .. } = e {
                                if let Expr::Var(cvar) = recv.as_ref() {
                                    let n = self
                                        .dag
                                        .opaque(format!("unmodeled mutation {name}"), vec![]);
                                    ve.insert(*cvar, n);
                                }
                            }
                        }
                    }
                    if let Expr::Call { name, .. } = e {
                        if name == builtins::EXECUTE_UPDATE {
                            // Updates are kept intact; they do not bind any
                            // variable (Sec. 7.1).
                            continue;
                        }
                    }
                }
                StmtKind::Return(v) => {
                    let e = match v {
                        Some(v) => self.convert_expr(v, &ve),
                        None => self.dag.lit(algebra::scalar::Lit::Null),
                    };
                    ve.insert(Symbol::intern(RET_VAR), e);
                }
                StmtKind::Print(_) => {
                    // Output is preprocessed away when extraction wants it
                    // (imp::desugar::rewrite_prints); a remaining print has
                    // no ee-DAG value.
                }
                StmtKind::Break | StmtKind::Continue => {
                    // Loops containing abrupt exits are rejected by the
                    // fir preconditions (which scan the body); nothing to
                    // record here.
                }
                StmtKind::If { .. } | StmtKind::ForEach { .. } | StmtKind::While { .. } => {
                    unreachable!("a basic block holds no compound statement")
                }
            }
        }
        ve
    }

    fn collection_op(&self, var: Symbol, method: &str) -> Option<OpKind> {
        if !matches!(method, "add" | "append" | "insert") {
            return None;
        }
        match self.coll_kinds.get(&var) {
            Some(CollKind::Set) => Some(OpKind::Insert),
            Some(CollKind::List) | None => Some(OpKind::Append),
        }
    }

    /// Convert a source expression to an ee-DAG node, resolving variable
    /// reads against `ve` (falling back to region inputs).
    pub fn convert_expr(&mut self, e: &Expr, ve: &VeMap) -> NodeId {
        match e {
            Expr::Lit(l) => {
                let lit = match l {
                    Literal::Int(i) => algebra::scalar::Lit::Int(*i),
                    Literal::Float(v) => algebra::scalar::Lit::float(*v),
                    Literal::Bool(b) => algebra::scalar::Lit::Bool(*b),
                    Literal::Str(s) => algebra::scalar::Lit::Str(s.clone()),
                    Literal::Null => algebra::scalar::Lit::Null,
                };
                self.dag.lit(lit)
            }
            Expr::Var(v) => match ve.get(v) {
                Some(n) => *n,
                None => self.dag.input(v),
            },
            Expr::Unary(op, x) => {
                let xn = self.convert_expr(x, ve);
                let k = match op {
                    UnaryOp::Neg => OpKind::Neg,
                    UnaryOp::Not => OpKind::Not,
                };
                self.dag.op(k, vec![xn])
            }
            Expr::Binary(op, l, r) => {
                let ln = self.convert_expr(l, ve);
                let rn = self.convert_expr(r, ve);
                let k = match op {
                    BinaryOp::Add => {
                        if self.is_stringy(ln) || self.is_stringy(rn) {
                            OpKind::Concat
                        } else {
                            OpKind::Add
                        }
                    }
                    BinaryOp::Sub => OpKind::Sub,
                    BinaryOp::Mul => OpKind::Mul,
                    BinaryOp::Div => OpKind::Div,
                    BinaryOp::Mod => OpKind::Mod,
                    BinaryOp::Eq => OpKind::Eq,
                    BinaryOp::Ne => OpKind::Ne,
                    BinaryOp::Lt => OpKind::Lt,
                    BinaryOp::Le => OpKind::Le,
                    BinaryOp::Gt => OpKind::Gt,
                    BinaryOp::Ge => OpKind::Ge,
                    BinaryOp::And => OpKind::And,
                    BinaryOp::Or => OpKind::Or,
                };
                self.dag.op(k, vec![ln, rn])
            }
            Expr::Ternary(c, a, b) => {
                let cn = self.convert_expr(c, ve);
                let an = self.convert_expr(a, ve);
                let bn = self.convert_expr(b, ve);
                self.dag.cond(cn, an, bn)
            }
            Expr::Field(o, name) => {
                let base = self.convert_expr(o, ve);
                self.dag.intern(Node::FieldOf { base, field: *name })
            }
            Expr::Call { name, args } => self.convert_call(name.as_str(), args, ve),
            Expr::MethodCall { recv, name, args } => {
                // Value-position method calls have no algebraic equivalent
                // (`size()`, `contains()`, custom comparators …).
                let mut nargs = vec![self.convert_expr(recv, ve)];
                for a in args {
                    nargs.push(self.convert_expr(a, ve));
                }
                self.dag.opaque(format!("method {name}"), nargs)
            }
        }
    }

    fn convert_call(&mut self, name: &str, args: &[Expr], ve: &VeMap) -> NodeId {
        match name {
            builtins::EXECUTE_QUERY | builtins::EXECUTE_SCALAR => {
                let sql_node = self.convert_expr(&args[0], ve);
                let Some(sql) = self.const_string(sql_node) else {
                    let nargs: Vec<NodeId> =
                        args.iter().map(|a| self.convert_expr(a, ve)).collect();
                    return self.dag.opaque("dynamic SQL string", nargs);
                };
                let ra = match parse_sql(&sql) {
                    Ok(ra) => ra,
                    Err(e) => {
                        return self.dag.opaque(format!("unparsable SQL: {e}"), vec![]);
                    }
                };
                // Validate the referenced tables against the catalog so an
                // unknown table degrades into a per-variable failure rather
                // than bad SQL.
                for t in ra.base_tables() {
                    if self.catalog.get(t).is_none() {
                        return self.dag.opaque(format!("unknown table {t}"), vec![]);
                    }
                }
                let want = ra.max_param().map_or(0, |m| m + 1);
                if want != args.len() - 1 {
                    return self.dag.opaque(
                        format!("query expects {want} params, got {}", args.len() - 1),
                        vec![],
                    );
                }
                let params: Vec<NodeId> =
                    args[1..].iter().map(|a| self.convert_expr(a, ve)).collect();
                if name == builtins::EXECUTE_QUERY {
                    self.dag.intern(Node::Query {
                        ra,
                        params: params.into(),
                    })
                } else {
                    self.dag.intern(Node::ScalarQuery {
                        ra,
                        params: params.into(),
                    })
                }
            }
            builtins::EXECUTE_UPDATE => {
                let nargs: Vec<NodeId> = args.iter().map(|a| self.convert_expr(a, ve)).collect();
                self.dag.opaque("database update", nargs)
            }
            "max" | "min" => {
                // Library function (Sec. 3.2.1: "our system understands that
                // Math.max is a function which returns the maximum of two
                // numbers"). N-ary calls fold left.
                let op = if name == "max" {
                    OpKind::Max
                } else {
                    OpKind::Min
                };
                let mut nodes: Vec<NodeId> =
                    args.iter().map(|a| self.convert_expr(a, ve)).collect();
                let mut acc = nodes.remove(0);
                for n in nodes {
                    acc = self.dag.op(op, vec![acc, n]);
                }
                acc
            }
            "abs" => {
                let x = self.convert_expr(&args[0], ve);
                self.dag.op(OpKind::Abs, vec![x])
            }
            "concat" => {
                let nodes: Vec<NodeId> = args.iter().map(|a| self.convert_expr(a, ve)).collect();
                self.dag.op(OpKind::Concat, nodes)
            }
            "lower" | "upper" => {
                let x = self.convert_expr(&args[0], ve);
                let op = if name == "lower" {
                    OpKind::Lower
                } else {
                    OpKind::Upper
                };
                self.dag.op(op, vec![x])
            }
            "length" => {
                let x = self.convert_expr(&args[0], ve);
                self.dag.op(OpKind::Length, vec![x])
            }
            "coalesce" => {
                let nodes: Vec<NodeId> = args.iter().map(|a| self.convert_expr(a, ve)).collect();
                self.dag.op(OpKind::Coalesce, nodes)
            }
            "pair" => {
                let a = self.convert_expr(&args[0], ve);
                let b = self.convert_expr(&args[1], ve);
                self.dag.op(OpKind::Pair, vec![a, b])
            }
            "list" => self.dag.intern(Node::EmptyColl(CollKind::List)),
            "set" => self.dag.intern(Node::EmptyColl(CollKind::Set)),
            user => self.inline_user_function(user, args, ve),
        }
    }

    /// Inline a user-defined function call (Appendix D.6): build the
    /// callee's D-IR with formals as region inputs, then substitute actual
    /// parameter expressions. The callee is built once per remaining
    /// depth, so its loops' fold notes are recorded once, and a call tree
    /// costs one build per (callee, depth) instead of one per call site.
    fn inline_user_function(&mut self, name: &str, args: &[Expr], ve: &VeMap) -> NodeId {
        let program = self.program;
        let Some(callee) = program.function(name) else {
            let nargs: Vec<NodeId> = args.iter().map(|a| self.convert_expr(a, ve)).collect();
            return self.dag.opaque(format!("unknown function {name}"), nargs);
        };
        if self.inline_budget == 0 {
            return self
                .dag
                .opaque(format!("inline depth exceeded at {name}"), vec![]);
        }
        if callee.params.len() != args.len() {
            return self
                .dag
                .opaque(format!("arity mismatch calling {name}"), vec![]);
        }
        let key = (callee.name, self.inline_budget);
        let ret = match self.inlined.get(&key) {
            Some(ret) => *ret,
            None => {
                self.inline_budget -= 1;
                let callee_ve = self.block_ve(callee, &callee.body, None);
                self.inline_budget += 1;
                let ret = callee_ve.get(&Symbol::intern(RET_VAR)).copied();
                self.inlined.insert(key, ret);
                ret
            }
        };
        let Some(ret) = ret else {
            return self.dag.opaque(format!("{name} returns no value"), vec![]);
        };
        // Map formal inputs to actual argument expressions.
        let mut subs = VeMap::new();
        for (formal, actual) in callee.params.iter().zip(args) {
            let a = self.convert_expr(actual, ve);
            subs.insert(*formal, a);
        }
        self.dag.substitute_inputs(ret, &subs)
    }

    /// If the node is a constant string (possibly a concat of constants),
    /// return it.
    fn const_string(&self, id: NodeId) -> Option<String> {
        match self.dag.node(id) {
            Node::Const(algebra::scalar::Lit::Str(s)) => Some(s.clone()),
            Node::Op {
                op: OpKind::Concat,
                args,
            } => {
                let mut out = String::new();
                for a in args {
                    out.push_str(&self.const_string(*a)?);
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// Heuristic used to map `+` to concat: the operand is a string literal
    /// or itself a concat.
    fn is_stringy(&self, id: NodeId) -> bool {
        matches!(
            self.dag.node(id),
            Node::Const(algebra::scalar::Lit::Str(_))
                | Node::Op {
                    op: OpKind::Concat,
                    ..
                }
        )
    }
}

/// Build the D-IR for one function of a program, computing the program's
/// effect summaries for this one call (a test helper; the extractor builds
/// them once per run and calls [`DirBuilder::new`]).
#[cfg(test)]
pub(crate) fn build_function_dir(
    program: &Program,
    catalog: &Catalog,
    fname: &str,
) -> Option<DirResult> {
    let du_ctx = DefUseCtx::of_program(program);
    Some(DirBuilder::new(program, catalog, &du_ctx).build(program.function(fname)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::schema::{SqlType, TableSchema};

    fn catalog() -> Catalog {
        Catalog::new()
            .with(
                TableSchema::new(
                    "board",
                    &[
                        ("id", SqlType::Int),
                        ("rnd_id", SqlType::Int),
                        ("p1", SqlType::Int),
                        ("p2", SqlType::Int),
                        ("p3", SqlType::Int),
                        ("p4", SqlType::Int),
                    ],
                )
                .with_key(&["id"]),
            )
            .with(
                TableSchema::new("emp", &[("id", SqlType::Int), ("salary", SqlType::Int)])
                    .with_key(&["id"]),
            )
    }

    fn dir_of(src: &str, f: &str) -> DirResult {
        let p = imp::parse_and_normalize(src).unwrap();
        let c = catalog();
        build_function_dir(&p, &c, f).unwrap()
    }

    #[test]
    fn straight_line_resolution() {
        // Paper Figure 5: intermediate assignments resolve to inputs.
        let d = dir_of(
            "fn f() { x = 10; y = 15; if (y - x > 0) { z = y - x; } else { z = x - y; } return z; }",
            "f",
        );
        let z = d.ve[&Symbol::intern(RET_VAR)];
        assert_eq!(
            d.dag.display(z),
            "?[Gt[Sub[15, 10], 0], Sub[15, 10], Sub[10, 15]]"
        );
    }

    #[test]
    fn conditional_missing_branch_uses_input() {
        let d = dir_of("fn f(a) { if (a > 0) { b = 1; } return b; }", "f");
        let b = d.ve[&Symbol::intern(RET_VAR)];
        assert_eq!(d.dag.display(b), "?[Gt[a₀, 0], 1, b₀]");
    }

    #[test]
    fn query_becomes_algebra_leaf() {
        let d = dir_of(
            r#"fn f(r) { q = executeQuery("SELECT * FROM board WHERE rnd_id = ?", r); return q; }"#,
            "f",
        );
        let q = d.ve[&Symbol::intern(RET_VAR)];
        match d.dag.node(q) {
            Node::Query { ra, params } => {
                assert_eq!(params.len(), 1);
                assert!(matches!(d.dag.node(params[0]), Node::Input(v) if v.as_str() == "r"));
                assert!(matches!(ra, algebra::ra::RaExpr::Select { .. }));
            }
            other => panic!("expected query node, got {other:?}"),
        }
    }

    #[test]
    fn query_param_resolved_through_assignments() {
        // "resolve assignments to intermediate variables and allow query
        // parameters to be expressed in terms of program inputs" (Sec. 1).
        let d = dir_of(
            r#"fn f(x) {
                 y = x + 1;
                 q = executeQuery("SELECT * FROM emp WHERE salary > ?", y);
                 return q;
             }"#,
            "f",
        );
        match d.dag.node(d.ve[&Symbol::intern(RET_VAR)]) {
            Node::Query { params, .. } => {
                assert_eq!(d.dag.display(params[0]), "Add[x₀, 1]");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn find_max_score_builds_fold() {
        let d = dir_of(
            r#"fn findMaxScore() {
                boards = executeQuery("SELECT * FROM board WHERE rnd_id = 1");
                scoreMax = 0;
                for (t in boards) {
                    score = max(max(max(t.p1, t.p2), t.p3), t.p4);
                    if (score > scoreMax) scoreMax = score;
                }
                return scoreMax;
            }"#,
            "findMaxScore",
        );
        let r = d.ve[&Symbol::intern(RET_VAR)];
        match d.dag.node(r) {
            Node::Fold {
                func, init, source, ..
            } => {
                // init resolved to the constant 0.
                assert_eq!(d.dag.display(*init), "0");
                // Source resolved to the query.
                assert!(matches!(d.dag.node(*source), Node::Query { .. }));
                // Folding function is max over acc and tuple fields.
                let fd = d.dag.display(*func);
                assert!(fd.contains("Max["), "{fd}");
                assert!(fd.contains("⟨t⟩.p1"), "{fd}");
                assert!(fd.contains("⟨scoreMax⟩"), "{fd}");
            }
            other => panic!("expected fold, got {:?}", other),
        }
    }

    #[test]
    fn dummy_val_fails_preconditions() {
        // Paper Figure 7: agg folds, dummyVal does not.
        let d = dir_of(
            r#"fn f() {
                q = executeQuery("SELECT * FROM emp");
                agg = 0;
                dummyVal = 0;
                for (t in q) {
                    agg = agg + t.salary;
                    dummyVal = dummyVal * 2 + agg;
                }
                return agg;
            }"#,
            "f",
        );
        let agg_ok = d
            .fold_notes
            .iter()
            .find(|n| n.var == "agg")
            .expect("agg attempted");
        assert!(agg_ok.result.is_ok());
        let dummy = d
            .fold_notes
            .iter()
            .find(|n| n.var == "dummyVal")
            .expect("dummyVal attempted");
        assert!(dummy.result.is_err(), "dummyVal must violate P2");
    }

    #[test]
    fn candidates_are_the_loops_outside_loop_bodies_in_source_order() {
        let p = imp::parse_and_normalize(
            r#"fn f(flag) {
                q = executeQuery("SELECT * FROM emp");
                s = 0;
                for (a in q) { for (b in q) { s = s + b.salary; } }
                if (flag > 0) { for (c in q) { s = s + c.salary; } }
                while (flag > 0) { for (d in q) { s = s + d.salary; } }
                for (e in q) { s = s + e.salary; }
                return s;
            }"#,
        )
        .unwrap();
        let c = catalog();
        let d = build_function_dir(&p, &c, "f").unwrap();
        let body = &p.functions[0].body;
        let cursors: Vec<&str> = d
            .loops
            .iter()
            .map(|l| match &body.find(l.stmt).unwrap().kind {
                StmtKind::ForEach { var, .. } => var.as_str(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(cursors, ["a", "c", "e"]);
    }

    #[test]
    fn loop_candidate_records_cursor() {
        let p = imp::parse_and_normalize("fn f() { for (t in boards) { x = t.a; } }").unwrap();
        let d = build_function_dir(&p, &catalog(), "f").unwrap();
        assert_eq!(d.loops.len(), 1);
        match &p.functions[0].body.find(d.loops[0].stmt).unwrap().kind {
            StmtKind::ForEach { var, .. } => assert_eq!(var.as_str(), "t"),
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn user_function_inlined() {
        let d = dir_of(
            r#"
            fn double(v) { return v * 2; }
            fn f(x) { return double(x + 1); }
            "#,
            "f",
        );
        assert_eq!(
            d.dag.display(d.ve[&Symbol::intern(RET_VAR)]),
            "Mul[Add[x₀, 1], 2]"
        );
    }

    #[test]
    fn unknown_function_is_opaque() {
        let d = dir_of("fn f(x) { return mystery(x); }", "f");
        assert!(d.dag.is_poisoned(d.ve[&Symbol::intern(RET_VAR)]));
    }

    #[test]
    fn recursion_is_cut_off() {
        let d = dir_of("fn f(x) { return f(x); }", "f");
        assert!(d.dag.is_poisoned(d.ve[&Symbol::intern(RET_VAR)]));
    }

    #[test]
    fn dynamic_sql_is_opaque() {
        let d = dir_of(
            r#"fn f(t) { q = executeQuery("SELECT * FROM " + t); return q; }"#,
            "f",
        );
        assert!(d.dag.is_poisoned(d.ve[&Symbol::intern(RET_VAR)]));
    }

    #[test]
    fn while_loop_vars_not_determined() {
        let d = dir_of(
            "fn f(n) { i = 0; while (i < n) { i = i + 1; } return i; }",
            "f",
        );
        assert!(d.dag.is_poisoned(d.ve[&Symbol::intern(RET_VAR)]));
    }

    #[test]
    fn collection_append_in_loop_folds() {
        let d = dir_of(
            r#"fn f() {
                rows = executeQuery("SELECT * FROM emp");
                out = list();
                for (r in rows) { out.add(r.salary); }
                return out;
            }"#,
            "f",
        );
        match d.dag.node(d.ve[&Symbol::intern(RET_VAR)]) {
            Node::Fold { func, init, .. } => {
                assert!(matches!(d.dag.node(*init), Node::EmptyColl(CollKind::List)));
                let fd = d.dag.display(*func);
                assert!(fd.starts_with("Append["), "{fd}");
            }
            other => panic!("expected fold, got {other:?}"),
        }
    }

    #[test]
    fn set_insert_uses_insert_op() {
        let d = dir_of(
            r#"fn f() {
                rows = executeQuery("SELECT * FROM emp");
                out = set();
                for (r in rows) { out.add(r.salary); }
                return out;
            }"#,
            "f",
        );
        match d.dag.node(d.ve[&Symbol::intern(RET_VAR)]) {
            Node::Fold { func, .. } => {
                assert!(d.dag.display(*func).starts_with("Insert["));
            }
            other => panic!("{other:?}"),
        }
    }
}
