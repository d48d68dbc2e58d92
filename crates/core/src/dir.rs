//! D-IR construction (paper Sec. 3.3, Appendix D).
//!
//! D-IR construction "works on top of the region hierarchy … a bottom up
//! recursive algorithm": build the ee-DAG and ve-Map of each sub-region
//! (leaf variables marked as region inputs), then merge per the parent
//! region's type. When a loop region is reached, `loopToFold` (module
//! [`crate::fir`]) attempts the F-IR translation immediately — this is the
//! `toFIR` recursion of Fig. 6, which handles inner loops before outer ones.
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
use analysis::regions::{RegionKind, RegionTree};
use imp::ast::{
    builtins, BinaryOp, Block, Expr, Function, Literal, Program, Stmt, StmtKind, UnaryOp,
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
}

/// A diagnostic record from one `loopToFold` attempt.
#[derive(Debug, Clone)]
pub struct FoldNote {
    /// The loop's `ForEach` statement id.
    pub loop_stmt: imp::ast::StmtId,
    /// The variable.
    pub var: Symbol,
    /// `Ok(())` when the fold was built; `Err(diagnostic)` otherwise.
    pub result: Result<(), analysis::diag::Diagnostic>,
    /// The fold-introduction proof obligation, when the fold was built.
    pub obligation: Option<crate::certify::Obligation>,
}

/// The name under which a function's return value is recorded in the ve-Map.
pub const RET_VAR: &str = "__ret";

/// D-IR builder for one program.
pub struct DirBuilder<'a> {
    /// The expression DAG being built.
    pub dag: EeDag,
    program: &'a Program,
    catalog: &'a Catalog,
    /// Collection kinds inferred from `x = list()` / `x = set()` sites.
    coll_kinds: HashMap<Symbol, CollKind>,
    /// Remaining inlining depth (guards recursion).
    inline_budget: usize,
    /// Purity context for the dependence analyses.
    du_ctx: DefUseCtx,
    /// F-IR conversion options.
    fir_opts: fir::FirOptions,
    /// Fold diagnostics.
    pub fold_notes: Vec<FoldNote>,
}

impl<'a> DirBuilder<'a> {
    /// Create a builder.
    pub fn new(program: &'a Program, catalog: &'a Catalog) -> DirBuilder<'a> {
        DirBuilder {
            dag: EeDag::new(),
            program,
            catalog,
            coll_kinds: HashMap::new(),
            inline_budget: 8,
            du_ctx: DefUseCtx::of_program(program),
            fir_opts: fir::FirOptions::default(),
            fold_notes: Vec::new(),
        }
    }

    /// Set F-IR conversion options (e.g. the Appendix B dependent-
    /// aggregation relaxation).
    pub fn with_fir_options(mut self, opts: fir::FirOptions) -> Self {
        self.fir_opts = opts;
        self
    }

    /// Take the def/use context (interprocedural effect summaries, computed
    /// once per program in [`DirBuilder::new`]) so callers can reuse it
    /// instead of re-running the fixpoint.
    pub fn take_du_ctx(&mut self) -> DefUseCtx {
        std::mem::take(&mut self.du_ctx)
    }

    /// Consume the builder, returning the DAG.
    pub fn into_dag(self) -> EeDag {
        self.dag
    }

    /// Public sequential merge (Appendix D.3), used by the extractor's
    /// region walk.
    pub fn merge_with(&mut self, preceding: VeMap, following: VeMap) -> VeMap {
        self.merge_sequential(preceding, following)
    }

    /// Build the D-IR for a whole function.
    pub fn build_function(mut self, fname: &str) -> Option<DirResult> {
        let f = self.program.function(fname)?;
        self.scan_collection_kinds(&f.body);
        let tree = RegionTree::build(f);
        let ve = self.region_ve(&tree, tree.root, f);
        Some(DirResult {
            dag: self.dag,
            ve,
            fold_notes: self.fold_notes,
        })
    }

    /// Run the collection-kind pre-pass for a function (required before
    /// using [`DirBuilder::region_ve`] directly).
    pub fn prepare(&mut self, f: &Function) {
        self.scan_collection_kinds(&f.body);
    }

    /// Pre-pass: record `x = list()` / `x = set()` initializations so that
    /// `x.add(e)` later maps to `append`/`insert`.
    fn scan_collection_kinds(&mut self, b: &Block) {
        for s in &b.stmts {
            match &s.kind {
                StmtKind::Assign {
                    target,
                    value: Expr::Call { name, .. },
                } => match name.as_str() {
                    "list" => {
                        self.coll_kinds.insert(*target, CollKind::List);
                    }
                    "set" => {
                        self.coll_kinds.insert(*target, CollKind::Set);
                    }
                    _ => {}
                },
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.scan_collection_kinds(then_branch);
                    self.scan_collection_kinds(else_branch);
                }
                StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => {
                    self.scan_collection_kinds(body);
                }
                _ => {}
            }
        }
    }

    /// Compute the ve-Map of a region: each modified variable's value at
    /// region exit, expressed over region inputs (`Node::Input`).
    pub fn region_ve(
        &mut self,
        tree: &RegionTree,
        rid: analysis::regions::RegionId,
        f: &Function,
    ) -> VeMap {
        match &tree.region(rid).kind {
            RegionKind::BasicBlock { stmts } => self.basic_block_ve(stmts),
            RegionKind::Sequential { children } => {
                let mut acc = VeMap::new();
                for c in children {
                    let child_ve = self.region_ve(tree, *c, f);
                    acc = self.merge_sequential(acc, child_ve);
                }
                acc
            }
            RegionKind::Conditional {
                cond,
                then_region,
                else_region,
            } => {
                let cond_node = self.convert_expr(cond, &VeMap::new());
                let ve_t = self.region_ve(tree, *then_region, f);
                let ve_f = self.region_ve(tree, *else_region, f);
                let mut out = VeMap::new();
                let mut vars: Vec<Symbol> = ve_t.keys().copied().collect();
                for k in ve_f.keys() {
                    if !vars.contains(k) {
                        vars.push(*k);
                    }
                }
                for v in vars {
                    let t_e = match ve_t.get(&v) {
                        Some(e) => *e,
                        None => self.dag.input(v),
                    };
                    let f_e = match ve_f.get(&v) {
                        Some(e) => *e,
                        None => self.dag.input(v),
                    };
                    let node = self.dag.cond(cond_node, t_e, f_e);
                    out.insert(v, node);
                }
                out
            }
            RegionKind::Loop {
                var,
                iterable,
                body,
                stmt_id,
            } => {
                let source = self.convert_expr(iterable, &VeMap::new());
                let body_ve = self.region_ve(tree, *body, f);
                // Locate the loop's body block in the AST for dependence
                // analysis.
                let stmt_id = *stmt_id;
                let loop_stmt = f.body.find(stmt_id);
                let Some(StmtKind::ForEach {
                    body: body_block, ..
                }) = loop_stmt.map(|s| &s.kind)
                else {
                    panic!("loop statement must exist in its function");
                };
                let mut out = VeMap::new();
                let loop_node = self.dag.intern(Node::Loop {
                    source,
                    cursor: *var,
                    body_ve: body_ve.iter().map(|(k, v)| (*k, *v)).collect(),
                    stmt: stmt_id,
                });
                let _ = loop_node; // recorded for completeness/debugging
                let loop_span = loop_stmt.map(|s| s.span).unwrap_or_default();
                let attempts = fir::loop_to_fold(
                    &mut self.dag,
                    &body_ve,
                    body_block,
                    *var,
                    source,
                    stmt_id,
                    loop_span,
                    &self.du_ctx,
                    self.fir_opts,
                );
                for a in &attempts {
                    self.fold_notes.push(FoldNote {
                        loop_stmt: stmt_id,
                        var: a.var,
                        result: a
                            .node
                            .as_ref()
                            .map(|_| ())
                            .map_err(|d| d.clone().with_function(f.name.as_str())),
                        obligation: a.obligation.clone(),
                    });
                }
                for a in attempts {
                    let node = match a.node {
                        Ok(n) => n,
                        Err(_) => self.dag.intern(Node::NotDetermined),
                    };
                    out.insert(a.var, node);
                }
                // The cursor variable itself is dead after the loop for our
                // purposes.
                let nd = self.dag.intern(Node::NotDetermined);
                out.insert(*var, nd);
                out
            }
            RegionKind::WhileLoop { body, .. } => {
                // Never translated (Sec. 7.1): every modified variable is ND.
                let body_ve = self.region_ve(tree, *body, f);
                let mut out = VeMap::new();
                for v in body_ve.keys() {
                    let nd = self.dag.intern(Node::NotDetermined);
                    out.insert(*v, nd);
                }
                out
            }
        }
    }

    /// Sequential merge (Appendix D.3): resolve `following`'s region inputs
    /// against `preceding`'s ve-Map, then union (later entries win).
    fn merge_sequential(&mut self, preceding: VeMap, following: VeMap) -> VeMap {
        let resolved: Vec<(Symbol, NodeId)> = following
            .into_iter()
            .map(|(v, e)| (v, self.dag.substitute_inputs(e, &preceding)))
            .collect();
        let mut out = preceding;
        out.extend(resolved);
        out
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
                    unreachable!("compound statements are separate regions")
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
    /// parameter expressions.
    fn inline_user_function(&mut self, name: &str, args: &[Expr], ve: &VeMap) -> NodeId {
        let Some(callee) = self.program.function(name) else {
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
        self.inline_budget -= 1;
        let tree = RegionTree::build(callee);
        let callee_f = callee.clone();
        let callee_ve = self.region_ve(&tree, tree.root, &callee_f);
        self.inline_budget += 1;
        let Some(ret) = callee_ve.get(&Symbol::intern(RET_VAR)).copied() else {
            return self.dag.opaque(format!("{name} returns no value"), vec![]);
        };
        // Map formal inputs to actual argument expressions.
        let mut subs = VeMap::new();
        for (formal, actual) in callee_f.params.iter().zip(args) {
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

/// Build the D-IR for one function of a program.
pub fn build_function_dir(program: &Program, catalog: &Catalog, fname: &str) -> Option<DirResult> {
    DirBuilder::new(program, catalog).build_function(fname)
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
