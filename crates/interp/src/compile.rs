//! Lowering of `imp` functions into the interpreter's compiled form.
//!
//! A function is lowered once, on its first call, into [`Code`]: one flat
//! arena of [`Node`]s shared by every function of the program, plus the
//! parsed SQL of its string literals. Names are resolved here, not at run
//! time: a variable becomes a dense slot of its call's frame, a builtin,
//! method or SQL call an enum, a user function the index of its header
//! node. Every node's children sit at arena indices; a list of children
//! (a block's statements, a call's arguments) is a contiguous range whose
//! entries are the children's roots.
//!
//! The arena's first `program.functions.len()` nodes are the function
//! headers: node `i` is function `i`, lowered or not. Lowering a function
//! queues the user functions it calls, and [`lower`] lowers the queue
//! before anything runs, so the arena does not change while code runs.
//!
//! A left-deep chain of binary operators, `x + x + … + x`, lowers to one
//! [`Node::Chain`] over its operands, so neither lowering nor evaluation
//! recurses along it: imp allows 20,000 operands in one expression.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use algebra::dml::Stmt;
use algebra::parse::{parse_sql, parse_statement};
use algebra::RaExpr;
use dbms::table::Field;
use dbms::Value;
use imp::ast::builtins::{
    DB_FUNCTIONS, EXECUTE_BATCH, EXECUTE_QUERY, EXECUTE_SCALAR, EXECUTE_UPDATE, MUTATING_METHODS,
};
use imp::ast::{
    BinaryOp, Block, Expr, Function, Literal, Program, Stmt as ImpStmt, StmtKind, UnaryOp,
};
use intern::Symbol;

use crate::dml::DmlError;

/// An index into [`Code::nodes`].
pub(crate) type Id = u32;

/// The compiled functions of one program.
#[derive(Default)]
pub(crate) struct Code<'a> {
    pub nodes: Vec<Node<'a>>,
    /// The SQL string literals, parsed: [`Node::SqlLit`] indexes here.
    pub sql: Vec<Sql>,
}

/// A SQL string literal as its call parses it.
pub(crate) enum Sql {
    /// A query (`executeQuery`, `executeScalar`, `executeBatch`).
    Query(RaExpr),
    /// A statement (`executeUpdate`).
    Stmt(Stmt),
    /// A parse that failed: its error text, raised when the call runs.
    Bad(String),
}

/// The SQL entry points.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum SqlCall {
    Query,
    Scalar,
    Batch,
    Update,
}

impl SqlCall {
    pub fn name(self) -> &'static str {
        match self {
            SqlCall::Query => EXECUTE_QUERY,
            SqlCall::Scalar => EXECUTE_SCALAR,
            SqlCall::Batch => EXECUTE_BATCH,
            SqlCall::Update => EXECUTE_UPDATE,
        }
    }
}

/// The library functions.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    Max,
    Min,
    Abs,
    Concat,
    Lower,
    Upper,
    Length,
    Coalesce,
    List,
    Set,
    Pair,
}

/// Collection methods that read their receiver.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Method {
    Size,
    IsEmpty,
    First,
    Contains,
    Get,
    /// Any other name: an error on every receiver.
    Unknown,
}

/// Collection methods that change their receiver variable.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mutation {
    /// `add`, `append` or `insert`.
    Add,
    Remove,
    Clear,
    AddAll,
}

/// The column a field read found in the last row it read: the row's field
/// list and the column's index in it. The cache holds the list's `Rc`,
/// which keeps the list alive, so another list can never reuse its
/// address and hit.
pub(crate) struct FieldCache {
    fields: Cell<Option<Rc<Vec<Field>>>>,
    at: Cell<*const Vec<Field>>,
    index: Cell<usize>,
}

impl Default for FieldCache {
    fn default() -> FieldCache {
        FieldCache {
            fields: Cell::new(None),
            at: Cell::new(std::ptr::null()),
            index: Cell::new(0),
        }
    }
}

impl FieldCache {
    /// The index cached for `fields`, if they are the cached list.
    #[inline(always)]
    pub fn get(&self, fields: &Rc<Vec<Field>>) -> Option<usize> {
        (self.at.get() == Rc::as_ptr(fields)).then(|| self.index.get())
    }

    pub fn set(&self, fields: &Rc<Vec<Field>>, index: usize) {
        self.at.set(Rc::as_ptr(fields));
        self.index.set(index);
        self.fields.set(Some(Rc::clone(fields)));
    }
}

/// One node of the arena.
pub(crate) enum Node<'a> {
    /// The header of a function not lowered.
    Unlowered,
    /// The header of a function a lowered call reaches, not yet lowered.
    Queued,
    /// The header of a lowered function: its frame has `slots` slots, the
    /// first `arity` its parameters'.
    Fn {
        slots: u32,
        arity: u32,
        body: Id,
    },

    /// Statements `first..first + len`.
    Block {
        first: Id,
        len: u32,
    },
    Assign {
        slot: u32,
        value: Id,
    },
    ExprStmt(Id),
    If {
        cond: Id,
        then_branch: Id,
        else_branch: Id,
    },
    /// `for`; `streams` when the iterable is an `executeQuery` call and the
    /// body makes no database call, directly or through a user function.
    For {
        slot: u32,
        iterable: Id,
        body: Id,
        streams: bool,
    },
    While {
        cond: Id,
        body: Id,
    },
    Return(Option<Id>),
    Break,
    Continue,
    Print {
        first: Id,
        len: u32,
    },

    /// A literal other than a string.
    Lit(Value),
    Str(&'a str),
    Var {
        slot: u32,
        name: Symbol,
    },
    Unary {
        op: UnaryOp,
        operand: Id,
    },
    /// `first op₁ rhs₁ op₂ rhs₂ …`, left-associated: the [`Node::Step`]s
    /// at `steps..steps + len`. One step is charged per operator.
    Chain {
        first: Id,
        steps: Id,
        len: u32,
    },
    Step {
        op: BinaryOp,
        rhs: Id,
    },
    Ternary {
        cond: Id,
        then_value: Id,
        else_value: Id,
    },
    Field {
        obj: Id,
        name: Symbol,
        cache: FieldCache,
    },
    Builtin {
        f: Builtin,
        args: Id,
        len: u32,
    },
    /// A SQL call; its first argument is a [`Node::SqlLit`] when it is a
    /// string literal.
    Sql {
        call: SqlCall,
        args: Id,
        len: u32,
    },
    /// A SQL string literal: [`Code::sql`]`[i]`.
    SqlLit(u32),
    /// A call of the user function whose header is node `func`.
    User {
        func: Id,
        args: Id,
        len: u32,
    },
    /// A call of a name that is neither a builtin nor a function.
    Undefined(Symbol),
    /// `recv.name(args…)` of a reading method. `in_place` when `recv` is
    /// a variable that no argument can change, so it is read in place.
    Method {
        method: Method,
        name: Symbol,
        recv: Id,
        in_place: bool,
        args: Id,
        len: u32,
    },
    /// `var.name(args…)` of a mutating method.
    Mutate {
        mutation: Mutation,
        name: Symbol,
        slot: u32,
        var: Symbol,
        args: Id,
        len: u32,
    },
    /// A mutating method on a receiver that is not a variable: an error
    /// when it runs.
    BadReceiver {
        name: Symbol,
        recv: &'a Expr,
    },
}

/// Whether evaluating `e` can change a variable of the current frame: only
/// a mutating method call can (assignments are statements, and a user
/// function runs in a frame of its own).
fn mutates_env(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        found |= matches!(x, Expr::MethodCall { name, .. }
            if MUTATING_METHODS.contains(&name.as_str()));
    });
    found
}

/// Does `block` call the database, directly or through one of `db`, the
/// functions known to?
fn calls_db(block: &Block, db: &HashSet<Symbol>) -> bool {
    let mut found = false;
    block.walk_exprs(&mut |e| {
        if let Expr::Call { name, .. } = e {
            found |= DB_FUNCTIONS.contains(&name.as_str()) || db.contains(name);
        }
    });
    found
}

/// The program's functions that call the database, directly or through
/// the functions they call: the least fixpoint over the call graph. A name
/// shared by several functions, or by a builtin, counts if any of them
/// calls the database, which can only keep a loop buffered.
fn db_functions(program: &Program) -> HashSet<Symbol> {
    let mut db = HashSet::new();
    loop {
        let known = db.len();
        for f in &program.functions {
            if !db.contains(&f.name) && calls_db(&f.body, &db) {
                db.insert(f.name);
            }
        }
        if db.len() == known {
            return db;
        }
    }
}

fn sql_call(name: &str) -> Option<SqlCall> {
    Some(match name {
        EXECUTE_QUERY => SqlCall::Query,
        EXECUTE_SCALAR => SqlCall::Scalar,
        EXECUTE_BATCH => SqlCall::Batch,
        EXECUTE_UPDATE => SqlCall::Update,
        _ => return None,
    })
}

fn builtin(name: &str) -> Option<Builtin> {
    Some(match name {
        "max" => Builtin::Max,
        "min" => Builtin::Min,
        "abs" => Builtin::Abs,
        "concat" => Builtin::Concat,
        "lower" => Builtin::Lower,
        "upper" => Builtin::Upper,
        "length" => Builtin::Length,
        "coalesce" => Builtin::Coalesce,
        "list" => Builtin::List,
        "set" => Builtin::Set,
        "pair" => Builtin::Pair,
        _ => return None,
    })
}

fn mutation(name: &str) -> Option<Mutation> {
    Some(match name {
        "add" | "append" | "insert" => Mutation::Add,
        "remove" => Mutation::Remove,
        "clear" => Mutation::Clear,
        "addAll" => Mutation::AddAll,
        _ => return None,
    })
}

fn method(name: &str) -> Method {
    match name {
        "size" => Method::Size,
        "isEmpty" => Method::IsEmpty,
        "first" => Method::First,
        "contains" => Method::Contains,
        "get" => Method::Get,
        _ => Method::Unknown,
    }
}

/// The string literal a SQL call's first argument is, if it is one.
fn sql_literal(call: &Expr) -> Option<&str> {
    match call {
        Expr::Call { name, args } if sql_call(name.as_str()).is_some() => match args.first() {
            Some(Expr::Lit(Literal::Str(s))) => Some(s),
            _ => None,
        },
        _ => None,
    }
}

/// At least the nodes and SQL literals lowering `f` appends, so the arena
/// grows once per function: one node per block, statement and expression,
/// and one more per binary operator, which may start a chain.
fn size(f: &Function) -> Size {
    let mut size = Size { nodes: 1, sql: 0 };
    f.body.walk(&mut |s, _| {
        size.nodes += match s.kind {
            StmtKind::If { .. } => 3,
            StmtKind::ForEach { .. } | StmtKind::While { .. } => 2,
            _ => 1,
        };
    });
    f.body.walk_exprs(&mut |e| {
        size.nodes += if matches!(e, Expr::Binary(..)) { 2 } else { 1 };
        size.sql += usize::from(sql_literal(e).is_some());
    });
    size
}

struct Size {
    nodes: usize,
    sql: usize,
}

/// Lower function `index` of `program` into `code`, and every function it
/// may call, transitively, that is not lowered yet. `code` gets its
/// function headers on first use.
pub(crate) fn lower<'a>(code: &mut Code<'a>, program: &'a Program, index: usize) {
    if code.nodes.is_empty() {
        // The headers and the first function, in one allocation.
        let first = size(&program.functions[index]).nodes;
        code.nodes.reserve_exact(program.functions.len() + first);
        code.nodes
            .extend(program.functions.iter().map(|_| Node::Unlowered));
    }
    if !matches!(code.nodes[index], Node::Unlowered) {
        return;
    }
    let mut lower = Lower {
        code,
        program,
        slots: HashMap::new(),
        next_slot: 0,
        db: None,
    };
    let mut next = Some(index);
    while let Some(i) = next {
        lower.function(i);
        next = (0..program.functions.len()).find(|&j| matches!(lower.code.nodes[j], Node::Queued));
    }
}

struct Lower<'a, 'c> {
    code: &'c mut Code<'a>,
    program: &'a Program,
    /// The current function's variables and their slots.
    slots: HashMap<Symbol, u32>,
    /// The current function's next free slot.
    next_slot: u32,
    /// [`db_functions`], found on the first cursor loop.
    db: Option<HashSet<Symbol>>,
}

impl<'a> Lower<'a, '_> {
    fn function(&mut self, index: usize) {
        let f = &self.program.functions[index];
        let size = size(f);
        self.code.nodes.reserve_exact(size.nodes);
        self.code.sql.reserve_exact(size.sql);
        let end = self.code.nodes.len() + size.nodes;

        // A name repeated in the parameters is its last one, which binds
        // last.
        self.slots.clear();
        self.slots
            .extend(f.params.iter().enumerate().map(|(i, p)| (*p, i as u32)));
        self.next_slot = f.params.len() as u32;
        let body = self.block(&f.body);
        debug_assert!(self.code.nodes.len() <= end, "the size of {}", f.name);
        self.code.nodes[index] = Node::Fn {
            slots: self.next_slot,
            arity: f.params.len() as u32,
            body,
        };
    }

    fn slot(&mut self, v: Symbol) -> u32 {
        *self.slots.entry(v).or_insert_with(|| {
            self.next_slot += 1;
            self.next_slot - 1
        })
    }

    /// Push `n` placeholder nodes; returns the first one's index.
    fn reserve(&mut self, n: usize) -> Id {
        let at = self.code.nodes.len() as Id;
        self.code
            .nodes
            .extend(std::iter::repeat_with(|| Node::Unlowered).take(n));
        at
    }

    fn set(&mut self, at: Id, node: Node<'a>) {
        self.code.nodes[at as usize] = node;
    }

    fn block(&mut self, b: &'a Block) -> Id {
        let at = self.reserve(1);
        let first = self.reserve(b.stmts.len());
        for (i, s) in b.stmts.iter().enumerate() {
            self.stmt(s, first + i as Id);
        }
        let len = b.stmts.len() as u32;
        self.set(at, Node::Block { first, len });
        at
    }

    fn stmt(&mut self, s: &'a ImpStmt, at: Id) {
        let node = match &s.kind {
            StmtKind::Assign { target, value } => Node::Assign {
                slot: self.slot(*target),
                value: self.expr(value),
            },
            StmtKind::Expr(e) => Node::ExprStmt(self.expr(e)),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => Node::If {
                cond: self.expr(cond),
                then_branch: self.block(then_branch),
                else_branch: self.block(else_branch),
            },
            StmtKind::ForEach {
                var,
                iterable,
                body,
            } => {
                let program = self.program;
                let streams = matches!(iterable, Expr::Call { name, .. } if *name == EXECUTE_QUERY)
                    && !calls_db(body, self.db.get_or_insert_with(|| db_functions(program)));
                Node::For {
                    slot: self.slot(*var),
                    iterable: self.expr(iterable),
                    body: self.block(body),
                    streams,
                }
            }
            StmtKind::While { cond, body } => Node::While {
                cond: self.expr(cond),
                body: self.block(body),
            },
            StmtKind::Return(v) => Node::Return(v.as_ref().map(|e| self.expr(e))),
            StmtKind::Break => Node::Break,
            StmtKind::Continue => Node::Continue,
            StmtKind::Print(args) => Node::Print {
                first: self.exprs(args),
                len: args.len() as u32,
            },
        };
        self.set(at, node);
    }

    fn expr(&mut self, e: &'a Expr) -> Id {
        let at = self.reserve(1);
        self.expr_at(e, at);
        at
    }

    fn exprs(&mut self, es: &'a [Expr]) -> Id {
        let first = self.reserve(es.len());
        for (i, e) in es.iter().enumerate() {
            self.expr_at(e, first + i as Id);
        }
        first
    }

    fn expr_at(&mut self, e: &'a Expr, at: Id) {
        let node = match e {
            Expr::Lit(Literal::Str(s)) => Node::Str(s),
            Expr::Lit(Literal::Int(i)) => Node::Lit(Value::Int(*i)),
            Expr::Lit(Literal::Float(v)) => Node::Lit(Value::Float(*v)),
            Expr::Lit(Literal::Bool(b)) => Node::Lit(Value::Bool(*b)),
            Expr::Lit(Literal::Null) => Node::Lit(Value::Null),
            Expr::Var(v) => Node::Var {
                slot: self.slot(*v),
                name: *v,
            },
            Expr::Unary(op, x) => Node::Unary {
                op: *op,
                operand: self.expr(x),
            },
            Expr::Binary(..) => self.chain(e),
            Expr::Ternary(c, a, b) => Node::Ternary {
                cond: self.expr(c),
                then_value: self.expr(a),
                else_value: self.expr(b),
            },
            Expr::Field(o, name) => Node::Field {
                obj: self.expr(o),
                name: *name,
                cache: FieldCache::default(),
            },
            Expr::Call { name, args } => self.call(*name, args),
            Expr::MethodCall { recv, name, args } => self.method(recv, *name, args),
        };
        self.set(at, node);
    }

    /// The left spine of the binary operator `e`, walked without recursion.
    fn chain(&mut self, e: &'a Expr) -> Node<'a> {
        let mut len = 0;
        let mut first = e;
        while let Expr::Binary(_, l, _) = first {
            len += 1;
            first = l;
        }
        let steps = self.reserve(len);
        // The root's right operand is the last step.
        let mut i = len as Id;
        let mut cur = e;
        while let Expr::Binary(op, l, r) = cur {
            i -= 1;
            let rhs = self.expr(r);
            self.set(steps + i, Node::Step { op: *op, rhs });
            cur = l;
        }
        Node::Chain {
            first: self.expr(first),
            steps,
            len: len as u32,
        }
    }

    fn call(&mut self, name: Symbol, args: &'a [Expr]) -> Node<'a> {
        let len = args.len() as u32;
        if let Some(call) = sql_call(name.as_str()) {
            let first = self.reserve(args.len());
            for (i, a) in args.iter().enumerate() {
                let at = first + i as Id;
                match a {
                    Expr::Lit(Literal::Str(s)) if i == 0 => {
                        let parsed = if call == SqlCall::Update {
                            parse_statement(s)
                                .map(Sql::Stmt)
                                .map_err(|e| DmlError(e.to_string()).to_string())
                        } else {
                            parse_sql(s).map(Sql::Query).map_err(|e| e.to_string())
                        };
                        self.code.sql.push(parsed.unwrap_or_else(Sql::Bad));
                        self.set(at, Node::SqlLit(self.code.sql.len() as u32 - 1));
                    }
                    a => self.expr_at(a, at),
                }
            }
            return Node::Sql {
                call,
                args: first,
                len,
            };
        }
        if let Some(f) = builtin(name.as_str()) {
            return Node::Builtin {
                f,
                args: self.exprs(args),
                len,
            };
        }
        let args = self.exprs(args);
        match self.program.functions.iter().position(|f| f.name == name) {
            Some(func) => {
                if matches!(self.code.nodes[func], Node::Unlowered) {
                    self.code.nodes[func] = Node::Queued;
                }
                Node::User {
                    func: func as Id,
                    args,
                    len,
                }
            }
            None => Node::Undefined(name),
        }
    }

    fn method(&mut self, recv: &'a Expr, name: Symbol, args: &'a [Expr]) -> Node<'a> {
        let len = args.len() as u32;
        match (mutation(name.as_str()), recv) {
            (Some(mutation), Expr::Var(var)) => Node::Mutate {
                mutation,
                name,
                slot: self.slot(*var),
                var: *var,
                args: self.exprs(args),
                len,
            },
            (Some(_), recv) => Node::BadReceiver { name, recv },
            (None, _) => Node::Method {
                method: method(name.as_str()),
                name,
                in_place: matches!(recv, Expr::Var(_)) && !args.iter().any(mutates_env),
                recv: self.expr(recv),
                args: self.exprs(args),
                len,
            },
        }
    }
}
