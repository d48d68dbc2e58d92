//! Abstract syntax tree for the `imp` language.
//!
//! Statements carry globally-unique [`StmtId`]s (assigned by the parser, or
//! by [`Program::renumber`] after AST surgery). The dependence analyses in
//! the `analysis` crate and the rewriter in `eqsql-core` key everything on
//! these ids.

use std::fmt;
use std::ops::ControlFlow;

use intern::Symbol;

use crate::token::Span;

/// A whole program: an ordered list of function definitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Function definitions, in source order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find a function by name, mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name == name)
    }

    /// Re-assign fresh, unique statement ids across the whole program.
    ///
    /// Must be called after any transformation that clones or splices
    /// statements (inlining, rewriting), so ids remain unique.
    pub fn renumber(&mut self) {
        let mut next = 0u32;
        for f in &mut self.functions {
            renumber_block(&mut f.body, &mut next);
        }
    }
}

fn renumber_block(b: &mut Block, next: &mut u32) {
    for s in &mut b.stmts {
        s.id = StmtId(*next);
        *next += 1;
        match &mut s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                renumber_block(then_branch, next);
                renumber_block(else_branch, next);
            }
            StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => {
                renumber_block(body, next);
            }
            _ => {}
        }
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: Symbol,
    /// Formal parameter names.
    pub params: Vec<Symbol>,
    /// Body.
    pub body: Block,
    /// Source span.
    pub span: Span,
}

/// A `{}`-delimited sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// An empty block.
    pub fn new() -> Self {
        Block::default()
    }

    /// Visit every statement of the block, nested ones included, in
    /// pre-order: a then-branch before its else-branch, a loop header
    /// before its body. The flag is true inside a `for`/`while` body.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt, bool)) {
        let _: ControlFlow<()> = self.visit(false, &mut |s, in_loop| {
            f(s, in_loop);
            ControlFlow::Continue(())
        });
    }

    /// The first statement with id `id`, in [`Block::walk`] order.
    pub fn find(&self, id: StmtId) -> Option<&Stmt> {
        match self.visit(false, &mut |s, _| {
            if s.id == id {
                ControlFlow::Break(s)
            } else {
                ControlFlow::Continue(())
            }
        }) {
            ControlFlow::Break(s) => Some(s),
            ControlFlow::Continue(()) => None,
        }
    }

    /// The one recursion behind [`Block::walk`] and [`Block::find`]: stops
    /// at the first `Break`.
    fn visit<'a, B>(
        &'a self,
        in_loop: bool,
        f: &mut impl FnMut(&'a Stmt, bool) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        for s in &self.stmts {
            f(s, in_loop)?;
            match &s.kind {
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    then_branch.visit(in_loop, f)?;
                    else_branch.visit(in_loop, f)?;
                }
                StmtKind::ForEach { body, .. } | StmtKind::While { body, .. } => {
                    body.visit(true, f)?
                }
                _ => {}
            }
        }
        ControlFlow::Continue(())
    }

    /// Visit every sub-expression of every statement, nested ones included:
    /// [`Block::walk`], then [`StmtKind::exprs`], then [`Expr::walk`].
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        self.walk(&mut |s, _| {
            for e in s.kind.exprs() {
                e.walk(f);
            }
        });
    }
}

/// Unique identifier of a statement within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Unique id (see [`StmtId`]).
    pub id: StmtId,
    /// The statement payload.
    pub kind: StmtKind,
    /// Source span.
    pub span: Span,
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `target = value;`
    Assign {
        /// Assigned variable.
        target: Symbol,
        /// Right-hand side.
        value: Expr,
    },
    /// An expression evaluated for effect, e.g. `results.add(x);`.
    Expr(Expr),
    /// `if (cond) { … } else { … }` (the else branch may be empty).
    If {
        /// Condition.
        cond: Expr,
        /// True branch.
        then_branch: Block,
        /// False branch (empty block when absent).
        else_branch: Block,
    },
    /// Cursor loop `for (v in iterable) { … }`.
    ForEach {
        /// Loop variable bound to each element.
        var: Symbol,
        /// Iterated collection.
        iterable: Expr,
        /// Loop body.
        body: Block,
    },
    /// `while (cond) { … }` — never extracted (paper Sec. 7.1: batching
    /// handles these via loop splitting; we parse but do not translate).
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Block,
    },
    /// `return [expr];`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `print(e1, e2, …);`
    Print(Vec<Expr>),
}

impl StmtKind {
    /// The statement's own top-level expressions (value, condition,
    /// iterable, return value or print arguments), not those of nested
    /// statements; use [`Expr::walk`] to descend into each.
    pub fn exprs(&self) -> &[Expr] {
        match self {
            StmtKind::Assign { value: e, .. }
            | StmtKind::Expr(e)
            | StmtKind::If { cond: e, .. }
            | StmtKind::ForEach { iterable: e, .. }
            | StmtKind::While { cond: e, .. } => std::slice::from_ref(e),
            StmtKind::Return(e) => e.as_slice(),
            StmtKind::Print(es) => es,
            StmtKind::Break | StmtKind::Continue => &[],
        }
    }
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Null.
    Null,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `+` (numeric addition or string concatenation).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinaryOp {
    /// Source spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "&&",
            BinaryOp::Or => "||",
        }
    }

    /// True for `== != < <= > >=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal.
    Lit(Literal),
    /// Variable reference.
    Var(Symbol),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Ternary `cond ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Field access `obj.field` — models Java getters.
    Field(Box<Expr>, Symbol),
    /// Free function call `name(args…)`: library functions (`max`, `min`,
    /// `abs`, `concat`, `list`, `set`), database access (`executeQuery`,
    /// `executeUpdate`), or user-defined `imp` functions.
    Call {
        /// Callee name.
        name: Symbol,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Method call `recv.name(args…)`: collection operations (`add`,
    /// `insert`, `contains`, `size`, `get`, `isEmpty`) and string ops.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        name: Symbol,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Shorthand for a variable reference.
    pub fn var(name: impl Into<Symbol>) -> Self {
        Expr::Var(name.into())
    }

    /// Shorthand for an integer literal.
    pub fn int(v: i64) -> Self {
        Expr::Lit(Literal::Int(v))
    }

    /// Shorthand for a string literal.
    pub fn str(v: impl Into<String>) -> Self {
        Expr::Lit(Literal::Str(v.into()))
    }

    /// Shorthand for a call.
    pub fn call(name: impl Into<Symbol>, args: Vec<Expr>) -> Self {
        Expr::Call {
            name: name.into(),
            args,
        }
    }

    /// Visit every sub-expression (pre-order).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Lit(_) | Expr::Var(_) => {}
            Expr::Unary(_, e) => e.walk(f),
            Expr::Binary(_, l, r) => {
                l.walk(f);
                r.walk(f);
            }
            Expr::Ternary(c, a, b) => {
                c.walk(f);
                a.walk(f);
                b.walk(f);
            }
            Expr::Field(e, _) => e.walk(f),
            Expr::Call { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
        }
    }

    /// All variable names read by this expression.
    pub fn vars(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Var(v) = e {
                out.push(*v);
            }
        });
        out
    }
}

/// Names of built-in database access functions, and the single shared
/// effect table for every builtin the language knows.
///
/// The effect classification here is the *one* source of truth consumed by
/// both the def/use analysis (`analysis::defuse`) and the interprocedural
/// effect analysis (`analysis::effects`); keeping it next to the AST stops
/// the per-analysis copies from drifting.
pub mod builtins {
    /// Runs a query, returns its result list.
    pub const EXECUTE_QUERY: &str = "executeQuery";
    /// Runs a scalar query, returns the single value of the single row.
    pub const EXECUTE_SCALAR: &str = "executeScalar";
    /// Runs a DML statement against the database.
    pub const EXECUTE_UPDATE: &str = "executeUpdate";
    /// Runs one parameterized scalar lookup for a whole batch of parameter
    /// values in a single round trip (the batching baseline's primitive,
    /// modeling the parameter-table technique of Guravannavar & Sudarshan).
    pub const EXECUTE_BATCH: &str = "executeBatch";
    /// All functions that touch the database.
    pub const DB_FUNCTIONS: [&str; 4] =
        [EXECUTE_QUERY, EXECUTE_SCALAR, EXECUTE_UPDATE, EXECUTE_BATCH];

    /// Pure library functions: no external reads or writes, value depends
    /// only on the arguments.
    pub const PURE_FUNCTIONS: &[&str] = &[
        "max", "min", "abs", "concat", "list", "set", "lower", "upper", "length", "pair",
        "coalesce",
    ];

    /// Collection / string methods that mutate their receiver.
    pub const MUTATING_METHODS: &[&str] = &["add", "insert", "append", "remove", "clear", "addAll"];

    /// Collection methods that only read their receiver.
    pub const READING_METHODS: &[&str] =
        &["contains", "size", "get", "isEmpty", "first", "indexOf"];

    /// Effect class of a builtin *free function*.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FnEffect {
        /// No external access at all.
        Pure,
        /// Reads the database (treated as one external location).
        DbRead,
        /// Writes (and reads) the database.
        DbWrite,
    }

    /// Classify a free-function name. `None` means the name is not a
    /// builtin (a user-defined function, or genuinely unknown).
    pub fn function_effect(name: &str) -> Option<FnEffect> {
        match name {
            EXECUTE_QUERY | EXECUTE_SCALAR | EXECUTE_BATCH => Some(FnEffect::DbRead),
            EXECUTE_UPDATE => Some(FnEffect::DbWrite),
            n if PURE_FUNCTIONS.contains(&n) => Some(FnEffect::Pure),
            _ => None,
        }
    }

    /// Effect class of a builtin *method* name.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum MethodEffect {
        /// Mutates its receiver (still pure w.r.t. external state).
        MutatesReceiver,
        /// Only reads its receiver.
        ReadsReceiver,
    }

    /// Classify a method name; `None` for unknown methods (conservatively
    /// treated as external accesses by the analyses).
    pub fn method_effect(name: &str) -> Option<MethodEffect> {
        if MUTATING_METHODS.contains(&name) {
            Some(MethodEffect::MutatesReceiver)
        } else if READING_METHODS.contains(&name) {
            Some(MethodEffect::ReadsReceiver)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vars_collects_reads() {
        let e = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::var("a")),
            Box::new(Expr::Field(Box::new(Expr::var("t")), "x".into())),
        );
        assert_eq!(e.vars(), vec!["a".to_string(), "t".to_string()]);
    }

    #[test]
    fn renumber_assigns_unique_ids() {
        use crate::parser::parse_program;
        let mut p = parse_program(
            "fn f() { x = 1; if (x > 0) { y = 2; } else { y = 3; } for (t in q) { z = t.a; } }",
        )
        .unwrap();
        p.renumber();
        let mut ids = Vec::new();
        p.functions[0].body.walk(&mut |s, _| ids.push(s.id.0));
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "ids must be unique");
    }

    /// One program nesting `if`/`else`, `for` and `while`, covering every
    /// statement kind.
    fn nested() -> Program {
        crate::parser::parse_program(
            "fn f(q) {
                x = 1;
                if (x > 0) {
                    for (t in q) {
                        while (x < 3) {
                            x = x + t.a;
                            if (x == 2) { break; } else { continue; }
                        }
                    }
                } else {
                    print(x, 2);
                    return x;
                }
                g(x);
                return;
            }",
        )
        .unwrap()
    }

    fn tag(k: &StmtKind) -> &'static str {
        match k {
            StmtKind::Assign { .. } => "assign",
            StmtKind::Expr(_) => "expr",
            StmtKind::If { .. } => "if",
            StmtKind::ForEach { .. } => "for",
            StmtKind::While { .. } => "while",
            StmtKind::Return(_) => "return",
            StmtKind::Break => "break",
            StmtKind::Continue => "continue",
            StmtKind::Print(_) => "print",
        }
    }

    #[test]
    fn walk_visits_in_pre_order_with_loop_flag() {
        let p = nested();
        let mut seen = Vec::new();
        p.functions[0]
            .body
            .walk(&mut |s, in_loop| seen.push((tag(&s.kind), in_loop)));
        assert_eq!(
            seen,
            vec![
                ("assign", false),
                ("if", false),
                ("for", false),
                ("while", true),
                ("assign", true),
                ("if", true),
                ("break", true),
                ("continue", true),
                ("print", false),
                ("return", false),
                ("expr", false),
                ("return", false),
            ]
        );
    }

    #[test]
    fn find_reaches_nested_ids_and_misses_absent_ones() {
        let p = nested();
        let body = &p.functions[0].body;
        let mut all = Vec::new();
        body.walk(&mut |s, _| all.push(s));
        let deepest = all
            .iter()
            .find(|s| matches!(s.kind, StmtKind::Continue))
            .unwrap();
        assert!(std::ptr::eq(body.find(deepest.id).unwrap(), *deepest));
        for s in &all {
            assert_eq!(body.find(s.id).map(|f| f.id), Some(s.id));
        }
        assert!(body.find(StmtId(u32::MAX)).is_none());
    }

    #[test]
    fn exprs_returns_each_statements_own_expressions() {
        let p = nested();
        let mut got = Vec::new();
        p.functions[0]
            .body
            .walk(&mut |s, _| got.push((tag(&s.kind), s.kind.exprs().to_vec())));
        let x = || Expr::var("x");
        let bin = |op, l, r| Expr::Binary(op, Box::new(l), Box::new(r));
        let t_a = Expr::Field(Box::new(Expr::var("t")), "a".into());
        assert_eq!(
            got,
            vec![
                ("assign", vec![Expr::int(1)]),
                ("if", vec![bin(BinaryOp::Gt, x(), Expr::int(0))]),
                ("for", vec![Expr::var("q")]),
                ("while", vec![bin(BinaryOp::Lt, x(), Expr::int(3))]),
                ("assign", vec![bin(BinaryOp::Add, x(), t_a)]),
                ("if", vec![bin(BinaryOp::Eq, x(), Expr::int(2))]),
                ("break", vec![]),
                ("continue", vec![]),
                ("print", vec![x(), Expr::int(2)]),
                ("return", vec![x()]),
                ("expr", vec![Expr::call("g", vec![x()])]),
                ("return", vec![]),
            ]
        );
    }

    #[test]
    fn walk_exprs_visits_every_sub_expression() {
        let p = nested();
        let mut vars = Vec::new();
        p.functions[0].body.walk_exprs(&mut |e| {
            if let Expr::Var(v) = e {
                vars.push(v.to_string());
            }
        });
        let expected = ["x", "q", "x", "x", "t", "x", "x", "x", "x"];
        assert_eq!(vars, expected);
    }
}
