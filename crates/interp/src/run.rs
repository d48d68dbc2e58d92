//! The interpreter proper.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use algebra::dml::Stmt;
use algebra::parse::{parse_sql, parse_statement};
use algebra::RaExpr;
use dbms::eval::{eval_binop, EvalError};
use dbms::table::Field;
use dbms::volcano::Cursor;
use dbms::{Connection, Database, Row, Transfer, Value};
use imp::ast::builtins::{DB_FUNCTIONS, EXECUTE_QUERY};
use imp::ast::{BinaryOp, Block, Expr, Literal, Program, StmtKind, UnaryOp};
use intern::Symbol;

use crate::dml::{execute_stmt, DmlError};
use crate::value::{loose_eq, RtValue};

/// A runtime error.
#[derive(Debug, Clone, PartialEq)]
pub enum RtError {
    /// Undefined variable or function.
    Undefined(String),
    /// Type error.
    Type(String),
    /// SQL parse or evaluation error.
    Sql(String),
    /// The configured step budget was exhausted (guards synthesis runs).
    BudgetExhausted,
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::Undefined(n) => write!(f, "undefined name `{n}`"),
            RtError::Type(m) => write!(f, "type error: {m}"),
            RtError::Sql(m) => write!(f, "SQL error: {m}"),
            RtError::BudgetExhausted => write!(f, "step budget exhausted"),
        }
    }
}

impl std::error::Error for RtError {}

enum Flow {
    Normal,
    Return(RtValue),
    Break,
    Continue,
}

/// The hasher of an [`Env`]: a [`Symbol`] hashes as its `u32` ticket, and
/// one multiply by an odd constant spreads distinct tickets over the word.
/// SipHash cost more than the variable read it keyed. Tickets are dense
/// counters the interner hands out, not values a program chooses, so a
/// program cannot cheaply line its variables up in one bucket.
#[derive(Default)]
struct TicketHasher(u64);

impl Hasher for TicketHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("an Env hashes only Symbol tickets")
    }

    fn write_u32(&mut self, ticket: u32) {
        self.0 = u64::from(ticket).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type Env = HashMap<Symbol, RtValue, BuildHasherDefault<TicketHasher>>;

/// Collection methods that change their receiver variable in place.
const MUTATING_METHODS: [&str; 6] = ["add", "insert", "append", "remove", "clear", "addAll"];

fn lookup(env: &Env, v: Symbol) -> Result<&RtValue, RtError> {
    env.get(&v)
        .ok_or_else(|| RtError::Undefined(format!("variable {v}")))
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

/// The receiver of a non-mutating method: a variable read in place, or the
/// value of any other expression.
enum Recv {
    Var(Symbol),
    Value(RtValue),
}

impl Recv {
    fn get<'a>(&'a self, env: &'a Env) -> &'a RtValue {
        match self {
            Recv::Var(v) => &env[v],
            Recv::Value(x) => x,
        }
    }
}

/// A query's evaluation error as the interpreter reports it.
fn sql_error(e: EvalError) -> RtError {
    RtError::Sql(e.to_string())
}

/// Three-valued truth of a runtime value: `None` for SQL NULL, otherwise
/// the same truthiness `is_true` uses (only `Bool(true)` is true).
fn truth(v: &RtValue) -> Option<bool> {
    match v {
        RtValue::Scalar(Value::Null) => None,
        other => Some(other.is_true()),
    }
}

/// A SQL call's parameters as scalars; `what` is the error otherwise.
fn scalars(vals: &[RtValue], what: &str) -> Result<Vec<Value>, RtError> {
    vals.iter()
        .map(|v| {
            v.as_scalar()
                .cloned()
                .ok_or_else(|| RtError::Type(what.into()))
        })
        .collect()
}

/// The SQL text of an `execute*` call.
enum SqlText<'e> {
    /// A string literal of the program: parsed once, through the cache.
    Lit(&'e str),
    /// A computed string: parsed on every call.
    Computed(String),
}

/// Parsed SQL by literal text, so a literal parses once per interpreter
/// and the cache grows only with the program text.
type ParseCache<T> = HashMap<String, Rc<T>>;

/// The parse of `sql`: for a literal, from `cache`, parsing it on first
/// use; for a computed string, parsed afresh. A failed parse is not
/// cached, so it fails the same way on every call.
fn parsed<T, E: fmt::Display>(
    cache: &mut ParseCache<T>,
    sql: &SqlText<'_>,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<Rc<T>, RtError> {
    let fresh = |s: &str| {
        parse(s)
            .map(Rc::new)
            .map_err(|e| RtError::Sql(e.to_string()))
    };
    match sql {
        SqlText::Computed(s) => fresh(s),
        SqlText::Lit(s) => {
            if let Some(t) = cache.get(*s) {
                return Ok(Rc::clone(t));
            }
            let t = fresh(s)?;
            cache.insert(s.to_string(), Rc::clone(&t));
            Ok(t)
        }
    }
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

/// The bodies of the program's `for (e in executeQuery(…))` loops that may
/// stream their rows: those that make no database call, directly or
/// through a user function. A loop is known by its body's address, which
/// is fixed while the interpreter borrows the program.
fn streaming_loops(program: &Program) -> HashSet<*const Block> {
    let db = db_functions(program);
    let mut loops = HashSet::new();
    for f in &program.functions {
        f.body.walk(&mut |s, _| {
            if let StmtKind::ForEach {
                iterable: Expr::Call { name, .. },
                body,
                ..
            } = &s.kind
            {
                if *name == EXECUTE_QUERY && !calls_db(body, &db) {
                    loops.insert(body as *const Block);
                }
            }
        });
    }
    loops
}

/// Where a `for` loop's elements come from: a query result pulled from its
/// cursor row by row, or a collection already in hand.
enum Elems<'c> {
    Live(Live<'c>),
    Buffered(std::vec::IntoIter<RtValue>),
}

/// A query result being streamed into a loop variable.
struct Live<'c> {
    cursor: Cursor<'c>,
    fields: Rc<Vec<Field>>,
    /// The buffer the next row is pulled into. It swaps with the loop
    /// variable's values, so the two buffers alternate and a warm loop
    /// allocates nothing per row.
    spare: Row,
    /// The rows pulled so far.
    sent: Transfer,
    /// The query error that ended the loop early, if one did.
    failed: Option<EvalError>,
}

impl Elems<'_> {
    /// Bind `var` to the next element; `false` at the end. A query error
    /// ends the loop here and is reported by [`Elems::finish`].
    fn next_into(&mut self, env: &mut Env, var: Symbol) -> bool {
        let live = match self {
            Elems::Buffered(elems) => {
                return elems.next().map(|el| env.insert(var, el)).is_some();
            }
            Elems::Live(live) => live,
        };
        match live.cursor.next(&mut live.spare) {
            Ok(true) => {}
            Ok(false) => return false,
            Err(e) => {
                live.failed = Some(e);
                return false;
            }
        }
        live.sent.add(&live.spare);
        match env.get_mut(&var) {
            Some(RtValue::Row { fields, values }) if Rc::ptr_eq(fields, &live.fields) => {
                std::mem::swap(values, &mut live.spare);
            }
            _ => {
                let values = std::mem::take(&mut live.spare);
                env.insert(
                    var,
                    RtValue::Row {
                        fields: Rc::clone(&live.fields),
                        values,
                    },
                );
            }
        }
        true
    }

    /// Pull whatever rows the loop left, so the query costs what it costs
    /// buffered: its whole result, or the error that ends it. A buffered
    /// collection was paid for when it was fetched.
    fn finish(self) -> Result<Transfer, EvalError> {
        let Elems::Live(mut live) = self else {
            return Ok(Transfer::default());
        };
        if let Some(e) = live.failed {
            return Err(e);
        }
        while live.cursor.next(&mut live.spare)? {
            live.sent.add(&live.spare);
        }
        Ok(live.sent)
    }
}

/// An interpreter instance bound to a program and a metered connection.
pub struct Interp<'a> {
    program: &'a Program,
    /// The metered connection; inspect `conn.stats` after a run.
    pub conn: Connection,
    /// Captured output lines. Printing a list flattens it to one line per
    /// element, making the print-to-append preprocessing (Appendix B)
    /// observationally transparent.
    pub output: Vec<String>,
    steps: u64,
    max_steps: u64,
    /// Parsed query literals (`executeQuery`, `executeScalar`,
    /// `executeBatch`).
    queries: ParseCache<RaExpr>,
    /// Parsed statement literals (`executeUpdate`).
    statements: ParseCache<Stmt>,
    /// [`streaming_loops`] of the program, found on the first loop over
    /// `executeQuery`.
    streaming: Option<HashSet<*const Block>>,
    /// A cursor loop is streaming: `conn.db` is moved out, so no SQL call
    /// may run until the loop ends.
    in_cursor: bool,
}

impl<'a> Interp<'a> {
    /// Create an interpreter with a generous default step budget.
    pub fn new(program: &'a Program, conn: Connection) -> Interp<'a> {
        Interp {
            program,
            conn,
            output: Vec::new(),
            steps: 0,
            max_steps: 50_000_000,
            queries: HashMap::new(),
            statements: HashMap::new(),
            streaming: None,
            in_cursor: false,
        }
    }

    /// Override the step budget (used by the QBS verifier).
    pub fn with_budget(mut self, max_steps: u64) -> Interp<'a> {
        self.max_steps = max_steps;
        self
    }

    /// Call a function by name with arguments; returns its value.
    pub fn call(&mut self, name: &str, args: Vec<RtValue>) -> Result<RtValue, RtError> {
        let f = self
            .program
            .function(name)
            .ok_or_else(|| RtError::Undefined(format!("function {name}")))?;
        if f.params.len() != args.len() {
            return Err(RtError::Type(format!(
                "{name} expects {} args, got {}",
                f.params.len(),
                args.len()
            )));
        }
        let mut env: Env = f.params.iter().copied().zip(args).collect();
        match self.exec_block(&f.body, &mut env)? {
            Flow::Return(v) => Ok(v),
            _ => Ok(RtValue::Unit),
        }
    }

    fn tick(&mut self) -> Result<(), RtError> {
        self.steps += 1;
        if self.steps > self.max_steps {
            Err(RtError::BudgetExhausted)
        } else {
            Ok(())
        }
    }

    fn exec_block(&mut self, b: &Block, env: &mut Env) -> Result<Flow, RtError> {
        for s in &b.stmts {
            self.tick()?;
            match &s.kind {
                StmtKind::Assign { target, value } => {
                    let v = self.eval(value, env)?;
                    env.insert(*target, v);
                }
                StmtKind::Expr(e) => {
                    self.eval(e, env)?;
                }
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let c = self.eval(cond, env)?;
                    let flow = if c.is_true() {
                        self.exec_block(then_branch, env)?
                    } else {
                        self.exec_block(else_branch, env)?
                    };
                    match flow {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                StmtKind::ForEach {
                    var,
                    iterable,
                    body,
                } => {
                    let flow = match iterable {
                        Expr::Call { name, args }
                            if *name == EXECUTE_QUERY && self.streams(body) =>
                        {
                            self.stream_for(*var, args, body, env)?
                        }
                        // An owned iterable is consumed; a variable is
                        // copied once, so the body may change it without
                        // affecting the iteration.
                        _ => match self.eval(iterable, env)? {
                            RtValue::List(xs) | RtValue::Set(xs) => self.exec_for(
                                *var,
                                &mut Elems::Buffered(xs.into_iter()),
                                body,
                                env,
                            )?,
                            other => {
                                return Err(RtError::Type(format!("cannot iterate over {other}")))
                            }
                        },
                    };
                    if let Flow::Return(_) = flow {
                        return Ok(flow);
                    }
                }
                StmtKind::While { cond, body } => loop {
                    self.tick()?;
                    if !self.eval(cond, env)?.is_true() {
                        break;
                    }
                    match self.exec_block(body, env)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                },
                StmtKind::Return(v) => {
                    let rv = match v {
                        Some(e) => self.eval(e, env)?,
                        None => RtValue::Unit,
                    };
                    return Ok(Flow::Return(rv));
                }
                StmtKind::Break => return Ok(Flow::Break),
                StmtKind::Continue => return Ok(Flow::Continue),
                StmtKind::Print(args) => {
                    let mut vals = Vec::new();
                    for a in args {
                        vals.push(self.eval(a, env)?);
                    }
                    self.print_values(&vals);
                }
            }
        }
        Ok(Flow::Normal)
    }

    /// Run `body` once per element of `elems`, bound to `var`: the one loop
    /// behind every `for`. `Normal` once the elements run out or the body
    /// breaks; `Return` when it returns.
    fn exec_for(
        &mut self,
        var: Symbol,
        elems: &mut Elems<'_>,
        body: &Block,
        env: &mut Env,
    ) -> Result<Flow, RtError> {
        while elems.next_into(env, var) {
            match self.exec_block(body, env)? {
                Flow::Normal | Flow::Continue => {}
                Flow::Break => break,
                r @ Flow::Return(_) => return Ok(r),
            }
        }
        Ok(Flow::Normal)
    }

    /// May the `for (e in executeQuery(…))` loop over `body` stream?
    fn streams(&mut self, body: &Block) -> bool {
        let program = self.program;
        self.streaming
            .get_or_insert_with(|| streaming_loops(program))
            .contains(&(body as *const Block))
    }

    /// `for (var in executeQuery(args…)) body` with the rows pulled from
    /// the query's cursor as the body asks for them, not buffered first.
    /// The body makes no database call ([`streaming_loops`]), so the
    /// database is moved out of the connection for the cursor to borrow,
    /// and moved back on every exit.
    fn stream_for(
        &mut self,
        var: Symbol,
        args: &[Expr],
        body: &Block,
        env: &mut Env,
    ) -> Result<Flow, RtError> {
        // The step `eval` charges for the call expression.
        self.tick()?;
        let (ra, params) = self.prepare_query(args, env)?;
        let db = std::mem::take(&mut self.conn.db);
        self.in_cursor = true;
        let flow = self.stream_rows(var, &ra, &params, &db, body, env);
        self.in_cursor = false;
        self.conn.db = db;
        flow
    }

    /// The loop of [`Self::stream_for`] over `db`. Whatever ends it — the
    /// last row, `break`, `return` or an error in the body — the cursor is
    /// drained and the query charged once, as a buffered result is. A query
    /// error met on any row wins over what the body did, as it does when
    /// the error stops the fetch before the body runs: the lines the body
    /// printed and the steps it took are undone, and the error returned.
    fn stream_rows(
        &mut self,
        var: Symbol,
        ra: &RaExpr,
        params: &[Value],
        db: &Database,
        body: &Block,
        env: &mut Env,
    ) -> Result<Flow, RtError> {
        let cursor = Cursor::open(ra, db, params).map_err(sql_error)?;
        let (steps, lines) = (self.steps, self.output.len());
        let mut elems = Elems::Live(Live {
            fields: Rc::new(cursor.fields().to_vec()),
            cursor,
            spare: Row::new(),
            sent: Transfer::default(),
            failed: None,
        });
        let flow = self.exec_for(var, &mut elems, body, env);
        match elems.finish() {
            Ok(sent) => {
                self.conn.charge(sent);
                flow
            }
            Err(e) => {
                self.steps = steps;
                self.output.truncate(lines);
                Err(sql_error(e))
            }
        }
    }

    fn print_values(&mut self, vals: &[RtValue]) {
        // Printing a single list flattens to one line per element (see the
        // struct docs); everything else concatenates into one line.
        if vals.len() == 1 {
            if let RtValue::List(items) | RtValue::Set(items) = &vals[0] {
                for it in items {
                    self.output.push(it.render());
                }
                return;
            }
        }
        let line: String = vals
            .iter()
            .map(RtValue::render)
            .collect::<Vec<_>>()
            .join("");
        self.output.push(line);
    }

    fn eval(&mut self, e: &Expr, env: &mut Env) -> Result<RtValue, RtError> {
        self.tick()?;
        match e {
            Expr::Lit(l) => Ok(RtValue::Scalar(match l {
                Literal::Int(i) => Value::Int(*i),
                Literal::Float(v) => Value::Float(*v),
                Literal::Bool(b) => Value::Bool(*b),
                Literal::Str(s) => Value::Str(s.clone()),
                Literal::Null => Value::Null,
            })),
            Expr::Var(v) => lookup(env, *v).cloned(),
            Expr::Unary(op, x) => {
                let v = self.eval(x, env)?;
                match (op, v) {
                    // checked_neg: -i64::MIN → NULL-on-error, like dbms::eval.
                    (UnaryOp::Neg, RtValue::Scalar(Value::Int(i))) => Ok(RtValue::Scalar(
                        i.checked_neg().map_or(Value::Null, Value::Int),
                    )),
                    (UnaryOp::Neg, RtValue::Scalar(Value::Float(f))) => {
                        Ok(RtValue::Scalar(Value::Float(-f)))
                    }
                    // NULL propagates through unary operators (SQL semantics).
                    (UnaryOp::Neg | UnaryOp::Not, RtValue::Scalar(Value::Null)) => {
                        Ok(RtValue::null())
                    }
                    (UnaryOp::Not, RtValue::Scalar(Value::Bool(b))) => Ok(RtValue::bool(!b)),
                    (op, v) => Err(RtError::Type(format!("cannot apply {op:?} to {v}"))),
                }
            }
            Expr::Binary(op, l, r) => self.eval_binary(*op, l, r, env),
            Expr::Ternary(c, a, b) => {
                if self.eval(c, env)?.is_true() {
                    self.eval(a, env)
                } else {
                    self.eval(b, env)
                }
            }
            Expr::Field(o, name) => {
                let v = self.read(o, env)?;
                v.field(name)
                    .ok_or_else(|| RtError::Type(format!("no field {name} on {v}")))
            }
            Expr::Call { name, args } => self.eval_call(name, args, env),
            Expr::MethodCall { recv, name, args } => self.eval_method(recv, name, args, env),
        }
    }

    /// Evaluate `e` for reading: a variable is borrowed in place, with the
    /// same step charged as [`Self::eval`] charges for it.
    fn read<'e>(&mut self, e: &Expr, env: &'e mut Env) -> Result<Cow<'e, RtValue>, RtError> {
        match e {
            Expr::Var(v) => {
                self.tick()?;
                lookup(env, *v).map(Cow::Borrowed)
            }
            _ => self.eval(e, env).map(Cow::Owned),
        }
    }

    fn eval_binary(
        &mut self,
        op: BinaryOp,
        l: &Expr,
        r: &Expr,
        env: &mut Env,
    ) -> Result<RtValue, RtError> {
        // Short-circuit logical operators with SQL three-valued logic:
        // NULL operands make the result NULL unless the other operand
        // decides it (FALSE for AND, TRUE for OR). `if`/`while` conditions
        // still treat NULL as not-true, matching WHERE-clause filtering.
        match op {
            BinaryOp::And => {
                let lv = self.eval(l, env)?;
                match truth(&lv) {
                    Some(false) => return Ok(RtValue::bool(false)),
                    lt => {
                        let rv = self.eval(r, env)?;
                        return Ok(match (lt, truth(&rv)) {
                            (_, Some(false)) => RtValue::bool(false),
                            (Some(true), Some(true)) => RtValue::bool(true),
                            _ => RtValue::null(),
                        });
                    }
                }
            }
            BinaryOp::Or => {
                let lv = self.eval(l, env)?;
                match truth(&lv) {
                    Some(true) => return Ok(RtValue::bool(true)),
                    lt => {
                        let rv = self.eval(r, env)?;
                        return Ok(match (lt, truth(&rv)) {
                            (_, Some(true)) => RtValue::bool(true),
                            (Some(false), Some(false)) => RtValue::bool(false),
                            _ => RtValue::null(),
                        });
                    }
                }
            }
            _ => {}
        }
        let lv = self.eval(l, env)?;
        let rv = self.eval(r, env)?;
        // Structural (in)equality for non-scalars.
        if matches!(op, BinaryOp::Eq | BinaryOp::Ne)
            && (lv.as_scalar().is_none() || rv.as_scalar().is_none())
        {
            let eq = loose_eq(&lv, &rv);
            return Ok(RtValue::bool(if op == BinaryOp::Eq { eq } else { !eq }));
        }
        let (a, b) = match (lv, rv) {
            (RtValue::Scalar(a), RtValue::Scalar(b)) => (a, b),
            (lv, rv) => {
                return Err(RtError::Type(format!(
                    "operator {} needs scalars, got {lv} and {rv}",
                    op.as_str()
                )))
            }
        };
        // Java-like `+` on strings is concatenation.
        if op == BinaryOp::Add && (matches!(a, Value::Str(_)) || matches!(b, Value::Str(_))) {
            return Ok(RtValue::Scalar(Value::Str(format!("{a}{b}"))));
        }
        let sop = match op {
            BinaryOp::Add => algebra::BinOp::Add,
            BinaryOp::Sub => algebra::BinOp::Sub,
            BinaryOp::Mul => algebra::BinOp::Mul,
            BinaryOp::Div => algebra::BinOp::Div,
            BinaryOp::Mod => algebra::BinOp::Mod,
            BinaryOp::Eq => algebra::BinOp::Eq,
            BinaryOp::Ne => algebra::BinOp::Ne,
            BinaryOp::Lt => algebra::BinOp::Lt,
            BinaryOp::Le => algebra::BinOp::Le,
            BinaryOp::Gt => algebra::BinOp::Gt,
            BinaryOp::Ge => algebra::BinOp::Ge,
            BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
        };
        eval_binop(sop, a, b)
            .map(RtValue::Scalar)
            .map_err(|e| RtError::Type(e.to_string()))
    }

    fn eval_call(&mut self, name: &str, args: &[Expr], env: &mut Env) -> Result<RtValue, RtError> {
        match name {
            "executeQuery" => {
                let dbms::Relation { fields, rows } = self.run_query(args, env)?;
                let fields = Rc::new(fields);
                Ok(RtValue::List(
                    rows.into_iter()
                        .map(|values| RtValue::Row {
                            fields: Rc::clone(&fields),
                            values,
                        })
                        .collect(),
                ))
            }
            "executeScalar" => {
                let rel = self.run_query(args, env)?;
                Ok(RtValue::Scalar(
                    rel.rows
                        .first()
                        .and_then(|r| r.first().cloned())
                        .unwrap_or(Value::Null),
                ))
            }
            "executeBatch" => {
                // One round trip answering a parameterized scalar lookup
                // for a whole batch of parameter values (the batching
                // baseline's primitive; results align with the input list,
                // NULL on miss).
                let (sql, vals) = self.sql_call("executeBatch", args, env)?;
                let params = match vals.first() {
                    Some(RtValue::List(xs)) | Some(RtValue::Set(xs)) => xs.clone(),
                    other => {
                        return Err(RtError::Type(format!(
                            "executeBatch needs a parameter list, got {other:?}"
                        )))
                    }
                };
                let ra = parsed(&mut self.queries, &sql, parse_sql)?;
                // Charge: one round trip + parameter upload + result
                // transfer (batching's cost structure).
                let upload: usize = params
                    .iter()
                    .map(|p| p.as_scalar().map_or(8, Value::wire_size))
                    .sum();
                self.conn.stats.queries += 1;
                self.conn.stats.sim_us +=
                    self.conn.cost.latency_us + upload as f64 * self.conn.cost.per_byte_us;
                let mut out = Vec::with_capacity(params.len());
                for p in &params {
                    let key = p.as_scalar().cloned().ok_or_else(|| {
                        RtError::Type("executeBatch parameters must be scalars".into())
                    })?;
                    let rel = dbms::eval_query(&ra, &self.conn.db, &[key]).map_err(sql_error)?;
                    let v = rel
                        .rows
                        .first()
                        .and_then(|r| r.first().cloned())
                        .unwrap_or(Value::Null);
                    self.conn.stats.rows += 1;
                    self.conn.stats.bytes += v.wire_size() as u64;
                    self.conn.stats.sim_us += v.wire_size() as f64 * self.conn.cost.per_byte_us
                        + self.conn.cost.per_row_us;
                    out.push(RtValue::Scalar(v));
                }
                Ok(RtValue::List(out))
            }
            "executeUpdate" => {
                let (sql, vals) = self.sql_call("executeUpdate", args, env)?;
                let params = scalars(&vals, "DML parameters must be scalars")?;
                // One round trip for the DML statement.
                self.conn.stats.queries += 1;
                self.conn.stats.sim_us += self.conn.cost.latency_us;
                let stmt = parsed(&mut self.statements, &sql, |s| {
                    parse_statement(s).map_err(|e| DmlError(e.to_string()))
                })?;
                let n = execute_stmt(&mut self.conn.db, &stmt, &params)
                    .map_err(|e| RtError::Sql(e.to_string()))?;
                Ok(RtValue::int(n))
            }
            "max" | "min" => {
                // GREATEST/LEAST semantics (the eval.rs spec): NULL
                // arguments are ignored; NULL only when all are NULL.
                let mut best: Option<Value> = None;
                for a in args {
                    let v = self.eval(a, env)?;
                    let v = v
                        .as_scalar()
                        .cloned()
                        .ok_or_else(|| RtError::Type(format!("{name} needs scalars")))?;
                    if v.is_null() {
                        continue;
                    }
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            let take = match v.sql_cmp(&b) {
                                Some(std::cmp::Ordering::Greater) => name == "max",
                                Some(std::cmp::Ordering::Less) => name == "min",
                                _ => false,
                            };
                            if take {
                                v
                            } else {
                                b
                            }
                        }
                    });
                }
                Ok(best.map(RtValue::Scalar).unwrap_or(RtValue::null()))
            }
            "abs" => {
                let v = self.eval(&args[0], env)?;
                match v.as_scalar() {
                    // checked_abs: abs(i64::MIN) → NULL-on-error.
                    Some(Value::Int(i)) => Ok(RtValue::Scalar(
                        i.checked_abs().map_or(Value::Null, Value::Int),
                    )),
                    Some(Value::Float(f)) => Ok(RtValue::Scalar(Value::Float(f.abs()))),
                    Some(Value::Null) => Ok(RtValue::null()),
                    other => Err(RtError::Type(format!("abs of {other:?}"))),
                }
            }
            "concat" => {
                // CONCAT skips NULL arguments (matches ScalarFunc::Concat).
                let mut s = String::new();
                for a in args {
                    let v = self.eval(a, env)?;
                    if !matches!(v, RtValue::Scalar(Value::Null)) {
                        s.push_str(&v.render());
                    }
                }
                Ok(RtValue::str(s))
            }
            "lower" | "upper" => {
                let v = self.eval(&args[0], env)?;
                match v.as_scalar() {
                    Some(Value::Str(s)) => Ok(RtValue::str(if name == "lower" {
                        s.to_lowercase()
                    } else {
                        s.to_uppercase()
                    })),
                    Some(Value::Null) => Ok(RtValue::null()),
                    other => Err(RtError::Type(format!("{name} of {other:?}"))),
                }
            }
            "length" => {
                let v = self.eval(&args[0], env)?;
                match v.as_scalar() {
                    Some(Value::Str(s)) => Ok(RtValue::int(s.len() as i64)),
                    Some(Value::Null) => Ok(RtValue::null()),
                    other => Err(RtError::Type(format!("length of {other:?}"))),
                }
            }
            "coalesce" => {
                for a in args {
                    let v = self.eval(a, env)?;
                    if !matches!(v, RtValue::Scalar(Value::Null)) {
                        return Ok(v);
                    }
                }
                Ok(RtValue::null())
            }
            "list" => Ok(RtValue::List(Vec::new())),
            "set" => Ok(RtValue::Set(Vec::new())),
            "pair" => {
                let a = self.eval(&args[0], env)?;
                let b = self.eval(&args[1], env)?;
                Ok(RtValue::Pair(Box::new(a), Box::new(b)))
            }
            user => {
                // User-defined imp function.
                if self.program.function(user).is_none() {
                    return Err(RtError::Undefined(format!("function {user}")));
                }
                let mut vals = Vec::new();
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                self.call(user, vals)
            }
        }
    }

    fn run_query(&mut self, args: &[Expr], env: &mut Env) -> Result<dbms::Relation, RtError> {
        let (ra, params) = self.prepare_query(args, env)?;
        self.conn.execute(&ra, &params).map_err(sql_error)
    }

    /// The parsed query and parameter values of an `executeQuery` call.
    fn prepare_query(
        &mut self,
        args: &[Expr],
        env: &mut Env,
    ) -> Result<(Rc<RaExpr>, Vec<Value>), RtError> {
        let (sql, vals) = self.sql_call(EXECUTE_QUERY, args, env)?;
        let params = scalars(&vals, "query parameters must be scalars")?;
        let ra = parsed(&mut self.queries, &sql, parse_sql)?;
        Ok((ra, params))
    }

    /// Evaluate the arguments of the SQL call `name`, in order: its SQL
    /// text, then the values of the rest. A string literal is borrowed
    /// from the program, not copied, and charged the step [`Self::eval`]
    /// charges for it.
    fn sql_call<'e>(
        &mut self,
        name: &str,
        args: &'e [Expr],
        env: &mut Env,
    ) -> Result<(SqlText<'e>, Vec<RtValue>), RtError> {
        debug_assert!(
            !self.in_cursor,
            "{name} called while a cursor loop holds the database"
        );
        let Some((first, rest)) = args.split_first() else {
            return Err(RtError::Type(format!(
                "{name} needs a SQL string, got None"
            )));
        };
        // A first argument that is not a string is reported only after
        // the rest are evaluated, whose errors come first.
        let sql = match first {
            Expr::Lit(Literal::Str(s)) => {
                self.tick()?;
                Ok(SqlText::Lit(s))
            }
            e => match self.eval(e, env)? {
                RtValue::Scalar(Value::Str(s)) => Ok(SqlText::Computed(s)),
                other => Err(other),
            },
        };
        let mut vals = Vec::with_capacity(rest.len());
        for a in rest {
            vals.push(self.eval(a, env)?);
        }
        let sql = sql.map_err(|other| {
            RtError::Type(format!("{name} needs a SQL string, got {:?}", Some(&other)))
        })?;
        Ok((sql, vals))
    }

    fn eval_method(
        &mut self,
        recv: &Expr,
        name: &str,
        args: &[Expr],
        env: &mut Env,
    ) -> Result<RtValue, RtError> {
        // Mutating methods require a variable receiver so the mutation is
        // visible (matching the analysis crate's model).
        if MUTATING_METHODS.contains(&name) {
            let var = match recv {
                Expr::Var(v) => *v,
                other => {
                    return Err(RtError::Type(format!(
                        "mutating method {name} needs a variable receiver, got {other:?}"
                    )))
                }
            };
            let mut arg_vals = Vec::new();
            for a in args {
                arg_vals.push(self.eval(a, env)?);
            }
            let coll = env
                .get_mut(&var)
                .ok_or_else(|| RtError::Undefined(format!("variable {var}")))?;
            match (coll, name) {
                (RtValue::List(items), "add" | "append" | "insert") => {
                    items.push(arg_vals.remove(0));
                }
                (RtValue::Set(items), "add" | "append" | "insert") => {
                    let v = arg_vals.remove(0);
                    if !items.iter().any(|e| loose_eq(e, &v)) {
                        items.push(v);
                    }
                }
                (RtValue::List(items) | RtValue::Set(items), "remove") => {
                    let v = arg_vals.remove(0);
                    items.retain(|e| !loose_eq(e, &v));
                }
                (RtValue::List(items) | RtValue::Set(items), "clear") => items.clear(),
                (RtValue::List(items), "addAll") => match arg_vals.remove(0) {
                    RtValue::List(more) | RtValue::Set(more) => items.extend(more),
                    other => {
                        return Err(RtError::Type(format!(
                            "addAll needs a collection, got {other}"
                        )))
                    }
                },
                (c, m) => return Err(RtError::Type(format!("cannot {m} on {c}"))),
            }
            return Ok(RtValue::Unit);
        }
        // The receiver is evaluated before the arguments. A variable is
        // read in place unless an argument could change it, in which case
        // it is copied first.
        let recv = match recv {
            Expr::Var(v) if !args.iter().any(mutates_env) => {
                self.tick()?;
                lookup(env, *v)?;
                Recv::Var(*v)
            }
            _ => Recv::Value(self.eval(recv, env)?),
        };
        let takes_arg = match (name, recv.get(env)) {
            ("size" | "isEmpty" | "first", RtValue::List(_) | RtValue::Set(_)) => false,
            ("contains", RtValue::List(_) | RtValue::Set(_)) | ("get", RtValue::List(_)) => true,
            (m, r) => return Err(RtError::Type(format!("unknown method {m} on {r}"))),
        };
        let arg = if takes_arg {
            Some(self.eval(&args[0], env)?)
        } else {
            None
        };
        match (name, recv.get(env), arg) {
            ("size", RtValue::List(v) | RtValue::Set(v), _) => Ok(RtValue::int(v.len() as i64)),
            ("isEmpty", RtValue::List(v) | RtValue::Set(v), _) => Ok(RtValue::bool(v.is_empty())),
            ("first", RtValue::List(v) | RtValue::Set(v), _) => {
                Ok(v.first().cloned().unwrap_or(RtValue::null()))
            }
            ("contains", RtValue::List(v) | RtValue::Set(v), Some(needle)) => {
                Ok(RtValue::bool(v.iter().any(|e| loose_eq(e, &needle))))
            }
            ("get", RtValue::List(v), Some(idx)) => match idx.as_scalar() {
                Some(Value::Int(i)) if (*i as usize) < v.len() => Ok(v[*i as usize].clone()),
                other => Err(RtError::Type(format!("bad index {other:?}"))),
            },
            _ => unreachable!("the receiver's shape was checked above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbms::gen::{gen_board, gen_emp};
    use imp::parser::parse_program;

    fn run_fn(src: &str, db: dbms::Database, f: &str) -> (RtValue, Vec<String>, dbms::Stats) {
        let p = parse_program(src).unwrap();
        let mut i = Interp::new(&p, Connection::new(db));
        let v = i.call(f, vec![]).unwrap();
        (v, i.output.clone(), i.conn.stats)
    }

    #[test]
    fn sql_literals_parse_once_and_computed_strings_on_every_call() {
        let src = r#"
            fn f() {
                n = 0;
                for (e in executeQuery("SELECT * FROM emp WHERE salary > ?", 0)) {
                    n = n + executeScalar("SELECT COUNT(*) FROM emp WHERE id = ?", e.id);
                    executeUpdate("UPDATE emp SET salary = ? WHERE id = ?", 1, e.id);
                    n = n + executeScalar("SELECT COUNT(*) FROM emp WHERE id = " + e.id);
                }
                return n;
            }
        "#;
        let p = parse_program(src).unwrap();
        let mut it = Interp::new(&p, Connection::new(gen_emp(30, 3)));
        assert_eq!(it.call("f", vec![]), Ok(RtValue::int(60)));
        assert_eq!(it.queries.len(), 2, "the two query literals, once each");
        assert_eq!(it.statements.len(), 1);
        assert!(it
            .conn
            .db
            .table("emp")
            .unwrap()
            .scan()
            .all(|r| r[3] == Value::Int(1)));

        // Unparsable SQL fails with the parser's own message, every time:
        // a failed parse is not cached.
        let sql_err = |sql: &str| RtError::Sql(parse_sql(sql).unwrap_err().to_string());
        let dml_err = |sql: &str| {
            let e = parse_statement(sql).unwrap_err();
            RtError::Sql(DmlError(e.to_string()).to_string())
        };
        for (src, want) in [
            (
                r#"fn f() { return executeQuery("SELEC 1"); }"#,
                sql_err("SELEC 1"),
            ),
            (
                r#"fn f() { return executeScalar("SEL" + "EC 1"); }"#,
                sql_err("SELEC 1"),
            ),
            (
                r#"fn f() { return executeUpdate("UPDAT emp"); }"#,
                dml_err("UPDAT emp"),
            ),
            (
                r#"fn f() { return executeUpdate("UPDAT" + " emp"); }"#,
                dml_err("UPDAT emp"),
            ),
        ] {
            let p = parse_program(src).unwrap();
            let mut it = Interp::new(&p, Connection::new(gen_emp(3, 3)));
            for _ in 0..2 {
                assert_eq!(it.call("f", vec![]), Err(want.clone()), "{src}");
            }
            assert!(it.queries.is_empty() && it.statements.is_empty(), "{src}");
        }
    }

    #[test]
    fn find_max_score_runs() {
        // Paper Figure 2.
        let src = r#"
            fn findMaxScore() {
                boards = executeQuery("SELECT * FROM board WHERE rnd_id = 1");
                scoreMax = 0;
                for (t in boards) {
                    score = max(max(max(t.p1, t.p2), t.p3), t.p4);
                    if (score > scoreMax) scoreMax = score;
                }
                return scoreMax;
            }
        "#;
        let db = gen_board(100, 4, 11);
        let (v, _, stats) = run_fn(src, db.clone(), "findMaxScore");
        // Cross-check against the aggregate query.
        let q = algebra::parse::parse_sql(
            "SELECT MAX(GREATEST(p1, p2, p3, p4)) AS m FROM board WHERE rnd_id = 1",
        )
        .unwrap();
        let expected = dbms::eval_query(&q, &db, &[]).unwrap().rows[0][0].clone();
        assert_eq!(v, RtValue::Scalar(expected));
        assert_eq!(stats.queries, 1);
        assert!(stats.rows > 1, "original fetches all rows");
    }

    #[test]
    fn collection_building_loop() {
        let src = r#"
            fn names() {
                rows = executeQuery("SELECT * FROM emp WHERE salary > 100000");
                out = list();
                for (r in rows) { out.add(r.name); }
                return out;
            }
        "#;
        let (v, _, _) = run_fn(src, gen_emp(50, 5), "names");
        match v {
            RtValue::List(items) => assert!(!items.is_empty()),
            other => panic!("expected list, got {other}"),
        }
    }

    #[test]
    fn set_deduplicates() {
        let src = r#"
            fn depts() {
                rows = executeQuery("SELECT * FROM emp");
                out = set();
                for (r in rows) { out.add(r.dept); }
                return out;
            }
        "#;
        let (v, _, _) = run_fn(src, gen_emp(100, 5), "depts");
        match v {
            RtValue::Set(items) => assert_eq!(items.len(), 3, "three departments"),
            other => panic!("expected set, got {other}"),
        }
    }

    #[test]
    fn print_flattens_lists() {
        let src = r#"
            fn f() {
                xs = list();
                xs.add(1);
                xs.add(2);
                print(xs);
            }
        "#;
        let (_, out, _) = run_fn(src, dbms::Database::new(), "f");
        assert_eq!(out, vec!["1", "2"]);
    }

    #[test]
    fn user_function_calls() {
        let src = r#"
            fn double(x) { return x * 2; }
            fn f() { return double(21); }
        "#;
        let (v, _, _) = run_fn(src, dbms::Database::new(), "f");
        assert_eq!(v, RtValue::int(42));
    }

    #[test]
    fn nested_loop_aggregation() {
        // Group-by pattern: per-department total (Rule T5.2's imperative shape).
        let src = r#"
            fn totals() {
                depts = executeQuery("SELECT DISTINCT dept FROM emp");
                out = list();
                for (d in depts) {
                    total = 0;
                    rows = executeQuery("SELECT salary FROM emp WHERE dept = ?", d.dept);
                    for (r in rows) { total = total + r.salary; }
                    out.add(pair(d.dept, total));
                }
                return out;
            }
        "#;
        let db = gen_emp(60, 8);
        let (v, _, stats) = run_fn(src, db.clone(), "totals");
        let items = match v {
            RtValue::List(items) => items,
            other => panic!("{other}"),
        };
        assert_eq!(items.len(), 3);
        assert_eq!(stats.queries, 4, "1 outer + 3 inner");
        // Check one group against SQL.
        let q = algebra::parse::parse_sql("SELECT dept, SUM(salary) AS s FROM emp GROUP BY dept")
            .unwrap();
        let rel = dbms::eval_query(&q, &db, &[]).unwrap();
        for row in &rel.rows {
            let (d, s) = (row[0].clone(), row[1].clone());
            assert!(items.iter().any(|p| match p {
                RtValue::Pair(a, b) =>
                    **a == RtValue::Scalar(d.clone()) && **b == RtValue::Scalar(s.clone()),
                _ => false,
            }));
        }
    }

    #[test]
    fn budget_exhaustion_reports() {
        let src = "fn f() { x = 0; while (true) { x = x + 1; } }";
        let p = parse_program(src).unwrap();
        let mut i = Interp::new(&p, Connection::new(dbms::Database::new())).with_budget(1000);
        assert_eq!(i.call("f", vec![]), Err(RtError::BudgetExhausted));
    }

    #[test]
    fn string_concat_with_plus() {
        let src = r#"fn f() { return "a" + 1 + "b"; }"#;
        let (v, _, _) = run_fn(src, dbms::Database::new(), "f");
        assert_eq!(v, RtValue::str("a1b"));
    }

    #[test]
    fn execute_update_roundtrip() {
        let src = r#"
            fn f() {
                executeUpdate("INSERT INTO emp VALUES (999, 'neo', 'eng', 1)");
                r = executeQuery("SELECT * FROM emp WHERE id = 999");
                return r.size();
            }
        "#;
        let (v, _, stats) = run_fn(src, gen_emp(5, 2), "f");
        assert_eq!(v, RtValue::int(1));
        assert_eq!(stats.queries, 2);
    }

    #[test]
    fn break_exits_loop() {
        let src = r#"
            fn f() {
                rows = executeQuery("SELECT * FROM emp");
                n = 0;
                for (r in rows) { n = n + 1; if (n >= 3) break; }
                return n;
            }
        "#;
        let (v, _, _) = run_fn(src, gen_emp(10, 3), "f");
        assert_eq!(v, RtValue::int(3));
    }

    #[test]
    fn exists_flag_pattern() {
        let src = r#"
            fn hasBig() {
                rows = executeQuery("SELECT * FROM emp");
                found = false;
                for (r in rows) { if (r.salary > 100000) found = true; }
                return found;
            }
        "#;
        let (v, _, _) = run_fn(src, gen_emp(100, 4), "hasBig");
        assert_eq!(v, RtValue::bool(true));
    }

    #[test]
    fn scalar_query_returns_single_value() {
        let src = r#"fn f() { return executeScalar("SELECT COUNT(*) AS c FROM emp"); }"#;
        let (v, _, _) = run_fn(src, gen_emp(7, 1), "f");
        assert_eq!(v, RtValue::int(7));
    }
}

#[cfg(test)]
mod method_tests {
    use super::*;
    use imp::parser::parse_program;

    fn eval(src: &str) -> RtValue {
        let p = parse_program(src).unwrap();
        let mut i = Interp::new(&p, Connection::new(dbms::Database::new()));
        i.call("f", vec![]).unwrap()
    }

    #[test]
    fn list_remove_and_clear() {
        assert_eq!(
            eval("fn f() { xs = list(); xs.add(1); xs.add(2); xs.add(1); xs.remove(1); return xs.size(); }"),
            RtValue::int(1)
        );
        assert_eq!(
            eval("fn f() { xs = list(); xs.add(1); xs.clear(); return xs.isEmpty(); }"),
            RtValue::bool(true)
        );
    }

    #[test]
    fn add_all_concatenates() {
        assert_eq!(
            eval("fn f() { a = list(); a.add(1); b = list(); b.add(2); b.add(3); a.addAll(b); return a.size(); }"),
            RtValue::int(3)
        );
    }

    #[test]
    fn get_and_first() {
        assert_eq!(
            eval("fn f() { a = list(); a.add(10); a.add(20); return a.get(1); }"),
            RtValue::int(20)
        );
        assert_eq!(
            eval("fn f() { a = list(); a.add(7); return a.first(); }"),
            RtValue::int(7)
        );
        assert_eq!(
            eval("fn f() { a = list(); return a.first(); }"),
            RtValue::null()
        );
    }

    #[test]
    fn contains_uses_loose_equality() {
        assert_eq!(
            eval("fn f() { a = set(); a.add(3); return a.contains(3); }"),
            RtValue::bool(true)
        );
        assert_eq!(
            eval("fn f() { a = set(); a.add(3); return a.contains(4); }"),
            RtValue::bool(false)
        );
    }

    #[test]
    fn out_of_range_get_is_error() {
        let p = parse_program("fn f() { a = list(); return a.get(0); }").unwrap();
        let mut i = Interp::new(&p, Connection::new(dbms::Database::new()));
        assert!(matches!(i.call("f", vec![]), Err(RtError::Type(_))));
    }

    #[test]
    fn mutating_method_on_non_variable_is_error() {
        let p = parse_program("fn f() { list().add(1); return 0; }").unwrap();
        let mut i = Interp::new(&p, Connection::new(dbms::Database::new()));
        assert!(matches!(i.call("f", vec![]), Err(RtError::Type(_))));
    }

    #[test]
    fn coalesce_builtin() {
        assert_eq!(
            eval("fn f() { return coalesce(null, null, 5, 7); }"),
            RtValue::int(5)
        );
        assert_eq!(
            eval("fn f() { return coalesce(null, null); }"),
            RtValue::null()
        );
    }

    #[test]
    fn ternary_and_comparisons() {
        assert_eq!(
            eval("fn f() { x = 3; return x > 2 ? \"big\" : \"small\"; }"),
            RtValue::str("big")
        );
        assert_eq!(
            eval("fn f() { return 2 <= 2 && !(1 == 2); }"),
            RtValue::bool(true)
        );
    }

    #[test]
    fn wrong_arity_call_is_error() {
        let p = parse_program("fn g(a, b) { return a; } fn f() { return g(1); }").unwrap();
        let mut i = Interp::new(&p, Connection::new(dbms::Database::new()));
        assert!(matches!(i.call("f", vec![]), Err(RtError::Type(_))));
    }

    #[test]
    fn undefined_variable_is_error() {
        let p = parse_program("fn f() { return ghost; }").unwrap();
        let mut i = Interp::new(&p, Connection::new(dbms::Database::new()));
        assert!(matches!(i.call("f", vec![]), Err(RtError::Undefined(_))));
    }
}
