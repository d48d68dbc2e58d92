//! The interpreter proper: it runs the nodes each function is lowered
//! to (the crate's `compile` module).

use std::borrow::Cow;
use std::fmt;
use std::rc::Rc;

use algebra::dml::Stmt;
use algebra::parse::{parse_sql, parse_statement};
use algebra::RaExpr;
use dbms::eval::{eval_binop, EvalError};
use dbms::table::{resolve_fields, Field};
use dbms::volcano::Cursor;
use dbms::{Connection, Database, Row, Transfer, Value};
use imp::ast::{BinaryOp, Program, UnaryOp};
use intern::Symbol;

use crate::compile::{self, Builtin, Code, FieldCache, Id, Method, Mutation, Node, Sql, SqlCall};
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

/// A call's variables, one slot each; `None` until assigned.
type Frame = [Option<RtValue>];

#[inline(always)]
fn lookup(frame: &Frame, slot: u32, name: Symbol) -> Result<&RtValue, RtError> {
    match &frame[slot as usize] {
        Some(v) => Ok(v),
        None => Err(undefined_variable(name)),
    }
}

#[cold]
#[inline(never)]
fn undefined_variable(name: Symbol) -> RtError {
    RtError::Undefined(format!("variable {name}"))
}

#[cold]
#[inline(never)]
fn no_field(name: Symbol, v: &RtValue) -> RtError {
    RtError::Type(format!("no field {name} on {v}"))
}

/// The receiver of a reading method: a variable read in place, or the
/// value of any other expression.
enum Recv {
    Slot(u32),
    Value(RtValue),
}

impl Recv {
    fn get<'f>(&'f self, frame: &'f Frame) -> &'f RtValue {
        match self {
            Recv::Slot(s) => frame[*s as usize].as_ref().expect("read before"),
            Recv::Value(x) => x,
        }
    }
}

/// `*var = Some(v)`; a scalar that owns nothing is overwritten without a
/// call to its drop.
#[inline(always)]
fn store(var: &mut Option<RtValue>, v: RtValue) {
    match var {
        None
        | Some(RtValue::Scalar(Value::Int(_) | Value::Float(_) | Value::Bool(_) | Value::Null)) => {
            std::mem::forget(var.replace(v))
        }
        _ => *var = Some(v),
    }
}

/// A copy of `v`; a number or a bool without the general clone.
#[inline(always)]
fn copy(v: &RtValue) -> RtValue {
    match v {
        RtValue::Scalar(v) => RtValue::Scalar(copy_value(v)),
        other => other.clone(),
    }
}

/// [`copy`] of a scalar.
#[inline(always)]
fn copy_value(v: &Value) -> Value {
    match v {
        Value::Int(i) => Value::Int(*i),
        Value::Float(f) => Value::Float(*f),
        Value::Bool(b) => Value::Bool(*b),
        Value::Null => Value::Null,
        other => other.clone(),
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

/// Argument `i` of the `len` at `args`; like indexing a missing argument,
/// a panic when there is none.
fn arg(args: Id, len: u32, i: u32) -> Id {
    assert!(i < len, "argument {i} of a call with {len}");
    args + i
}

/// `op v` for a unary operator.
fn unary(op: UnaryOp, v: RtValue) -> Result<RtValue, RtError> {
    match (op, v) {
        // checked_neg: -i64::MIN → NULL-on-error, like dbms::eval.
        (UnaryOp::Neg, RtValue::Scalar(Value::Int(i))) => Ok(RtValue::Scalar(
            i.checked_neg().map_or(Value::Null, Value::Int),
        )),
        (UnaryOp::Neg, RtValue::Scalar(Value::Float(f))) => Ok(RtValue::Scalar(Value::Float(-f))),
        // NULL propagates through unary operators (SQL semantics).
        (UnaryOp::Neg | UnaryOp::Not, RtValue::Scalar(Value::Null)) => Ok(RtValue::null()),
        (UnaryOp::Not, RtValue::Scalar(Value::Bool(b))) => Ok(RtValue::bool(!b)),
        (op, v) => Err(RtError::Type(format!("cannot apply {op:?} to {v}"))),
    }
}

/// `a op b` on two ints, the loop's common case, without the general
/// path's conversions; integer errors yield NULL, as in `dbms::eval`.
#[inline(always)]
fn int_binary(op: BinaryOp, a: i64, b: i64) -> Value {
    match op {
        BinaryOp::Add => a.checked_add(b).map_or(Value::Null, Value::Int),
        BinaryOp::Sub => a.checked_sub(b).map_or(Value::Null, Value::Int),
        BinaryOp::Mul => a.checked_mul(b).map_or(Value::Null, Value::Int),
        BinaryOp::Div => a.checked_div(b).map_or(Value::Null, Value::Int),
        BinaryOp::Mod if b == 0 => Value::Null,
        BinaryOp::Mod => Value::Int(a.wrapping_rem(b)),
        BinaryOp::Eq => Value::Bool(a == b),
        BinaryOp::Ne => Value::Bool(a != b),
        BinaryOp::Lt => Value::Bool(a < b),
        BinaryOp::Le => Value::Bool(a <= b),
        BinaryOp::Gt => Value::Bool(a > b),
        BinaryOp::Ge => Value::Bool(a >= b),
        BinaryOp::And | BinaryOp::Or => unreachable!("logic is evaluated in chain"),
    }
}

/// `lv op rv` for a binary operator other than `&&` and `||`, when the
/// operands are not two ints.
fn binary(op: BinaryOp, lv: RtValue, rv: RtValue) -> Result<RtValue, RtError> {
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
        BinaryOp::And | BinaryOp::Or => unreachable!("logic is evaluated in chain"),
    };
    eval_binop(sop, a, b)
        .map(RtValue::Scalar)
        .map_err(|e| RtError::Type(e.to_string()))
}

/// Field `name` of `v`: a row's column, found through `cache` while rows
/// share one field list; a pair's `first`/`second`.
#[inline(always)]
fn field_of(v: &RtValue, name: Symbol, cache: &FieldCache) -> Option<RtValue> {
    let RtValue::Row { fields, values } = v else {
        return v.field(name.as_str());
    };
    let i = match cache.get(fields) {
        Some(i) => i,
        None => {
            let i = resolve_fields(fields, None, name.as_str()).ok()?;
            cache.set(fields, i);
            i
        }
    };
    Some(RtValue::Scalar(copy_value(&values[i])))
}

/// The SQL text of an `execute*` call.
enum SqlText<'c> {
    /// A string literal of the program, parsed when it was lowered.
    Lit(&'c Sql),
    /// A computed string: parsed on every call.
    Computed(String),
}

impl<'c> SqlText<'c> {
    fn query(self) -> Result<Cow<'c, RaExpr>, RtError> {
        match self {
            SqlText::Lit(Sql::Query(ra)) => Ok(Cow::Borrowed(ra)),
            SqlText::Lit(Sql::Bad(e)) => Err(RtError::Sql(e.clone())),
            SqlText::Lit(Sql::Stmt(_)) => unreachable!("a query's literal parses as a query"),
            SqlText::Computed(s) => parse_sql(&s)
                .map(Cow::Owned)
                .map_err(|e| RtError::Sql(e.to_string())),
        }
    }

    fn statement(self) -> Result<Cow<'c, Stmt>, RtError> {
        match self {
            SqlText::Lit(Sql::Stmt(st)) => Ok(Cow::Borrowed(st)),
            SqlText::Lit(Sql::Bad(e)) => Err(RtError::Sql(e.clone())),
            SqlText::Lit(Sql::Query(_)) => {
                unreachable!("an update's literal parses as a statement")
            }
            SqlText::Computed(s) => parse_statement(&s)
                .map(Cow::Owned)
                .map_err(|e| RtError::Sql(DmlError(e.to_string()).to_string())),
        }
    }
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
    /// Bind the loop variable, `var`, to the next element; `false` at the
    /// end. A query error ends the loop here and is reported by
    /// [`Elems::finish`].
    fn next_into(&mut self, var: &mut Option<RtValue>) -> bool {
        let live = match self {
            Elems::Buffered(elems) => return elems.next().map(|el| *var = Some(el)).is_some(),
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
        match var {
            Some(RtValue::Row { fields, values }) if Rc::ptr_eq(fields, &live.fields) => {
                std::mem::swap(values, &mut live.spare);
            }
            _ => {
                *var = Some(RtValue::Row {
                    fields: Rc::clone(&live.fields),
                    values: std::mem::take(&mut live.spare),
                });
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
    /// The program's functions, each lowered on its first call. It is
    /// moved out while a call runs, which borrows it.
    code: Code<'a>,
    /// The variables of the function running.
    frame: Vec<Option<RtValue>>,
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
            code: Code::default(),
            frame: Vec::new(),
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
        let index = self
            .program
            .functions
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| RtError::Undefined(format!("function {name}")))?;
        let arity = self.program.functions[index].params.len();
        if arity != args.len() {
            return Err(RtError::Type(format!(
                "{name} expects {arity} args, got {}",
                args.len()
            )));
        }
        compile::lower(&mut self.code, self.program, index);
        let code = std::mem::take(&mut self.code);
        let (mut frame, body) = enter(&code, index as Id);
        for (slot, v) in frame.iter_mut().zip(args) {
            *slot = Some(v);
        }
        let v = self.run(&code, frame, body);
        self.code = code;
        v
    }

    fn tick(&mut self) -> Result<(), RtError> {
        self.charge(1)
    }

    /// Charge `n` steps at once: `n` ticks with nothing between them.
    fn charge(&mut self, n: u32) -> Result<(), RtError> {
        self.steps += u64::from(n);
        if self.steps > self.max_steps {
            Err(RtError::BudgetExhausted)
        } else {
            Ok(())
        }
    }

    /// Run the body of a function with `frame` as the current frame; its
    /// value. The caller's frame is restored on every exit.
    fn run(
        &mut self,
        code: &Code<'a>,
        frame: Vec<Option<RtValue>>,
        body: Id,
    ) -> Result<RtValue, RtError> {
        let caller = std::mem::replace(&mut self.frame, frame);
        let flow = self.exec_block(code, body);
        self.frame = caller;
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(RtValue::Unit),
        }
    }

    fn exec_block(&mut self, code: &Code<'a>, block: Id) -> Result<Flow, RtError> {
        let Node::Block { first, len } = code.nodes[block as usize] else {
            unreachable!("a block")
        };
        for s in first..first + len {
            self.tick()?;
            match &code.nodes[s as usize] {
                Node::Assign { slot, value } => {
                    let v = self.eval(code, *value)?;
                    store(&mut self.frame[*slot as usize], v);
                }
                Node::ExprStmt(e) => {
                    self.eval(code, *e)?;
                }
                Node::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let branch = if self.eval(code, *cond)?.is_true() {
                        then_branch
                    } else {
                        else_branch
                    };
                    match self.exec_block(code, *branch)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                Node::For {
                    slot,
                    iterable,
                    body,
                    streams,
                } => {
                    let flow = if *streams {
                        self.stream_for(code, *slot, *iterable, *body)?
                    } else {
                        // An owned iterable is consumed; a variable is
                        // copied once, so the body may change it without
                        // affecting the iteration.
                        match self.eval(code, *iterable)? {
                            RtValue::List(xs) | RtValue::Set(xs) => self.exec_for(
                                code,
                                *slot,
                                &mut Elems::Buffered(xs.into_iter()),
                                *body,
                            )?,
                            other => {
                                return Err(RtError::Type(format!("cannot iterate over {other}")))
                            }
                        }
                    };
                    if let Flow::Return(_) = flow {
                        return Ok(flow);
                    }
                }
                Node::While { cond, body } => loop {
                    self.tick()?;
                    if !self.eval(code, *cond)?.is_true() {
                        break;
                    }
                    match self.exec_block(code, *body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                },
                Node::Return(v) => {
                    let rv = match v {
                        // The frame dies with the return: a variable's
                        // value moves out of it, for the step a read takes.
                        Some(e) => match code.nodes[*e as usize] {
                            Node::Var { slot, name } => {
                                self.tick()?;
                                lookup(&self.frame, slot, name)?;
                                self.frame[slot as usize].take().expect("looked up")
                            }
                            _ => self.eval(code, *e)?,
                        },
                        None => RtValue::Unit,
                    };
                    return Ok(Flow::Return(rv));
                }
                Node::Break => return Ok(Flow::Break),
                Node::Continue => return Ok(Flow::Continue),
                Node::Print { first, len } => self.print(code, *first, *len)?,
                _ => unreachable!("a statement"),
            }
        }
        Ok(Flow::Normal)
    }

    /// Run `body` once per element of `elems`, bound to `slot`: the one
    /// loop behind every `for`. `Normal` once the elements run out or the
    /// body breaks; `Return` when it returns.
    fn exec_for(
        &mut self,
        code: &Code<'a>,
        slot: u32,
        elems: &mut Elems<'_>,
        body: Id,
    ) -> Result<Flow, RtError> {
        while elems.next_into(&mut self.frame[slot as usize]) {
            match self.exec_block(code, body)? {
                Flow::Normal | Flow::Continue => {}
                Flow::Break => break,
                r @ Flow::Return(_) => return Ok(r),
            }
        }
        Ok(Flow::Normal)
    }

    /// `for (var in executeQuery(args…)) body` with the rows pulled from
    /// the query's cursor as the body asks for them, not buffered first.
    /// The body makes no database call (its lowering checked), so the
    /// database is moved out of the connection for the cursor to borrow,
    /// and moved back on every exit.
    #[inline(never)]
    fn stream_for(
        &mut self,
        code: &Code<'a>,
        slot: u32,
        query: Id,
        body: Id,
    ) -> Result<Flow, RtError> {
        let Node::Sql { args, len, .. } = code.nodes[query as usize] else {
            unreachable!("a streamed loop iterates an executeQuery call")
        };
        // The step `eval` charges for the call expression.
        self.tick()?;
        let (ra, params) = self.prepare_query(code, args, len)?;
        let db = std::mem::take(&mut self.conn.db);
        self.in_cursor = true;
        let flow = self.stream_rows(code, slot, &ra, &params, &db, body);
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
        code: &Code<'a>,
        slot: u32,
        ra: &RaExpr,
        params: &[Value],
        db: &Database,
        body: Id,
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
        let flow = self.exec_for(code, slot, &mut elems, body);
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

    /// `print(args…)`: a single list prints one line per element (see the
    /// struct docs); everything else concatenates into one line.
    #[inline(never)]
    fn print(&mut self, code: &Code<'a>, args: Id, len: u32) -> Result<(), RtError> {
        if len == 1 {
            match self.eval(code, args)? {
                RtValue::List(items) | RtValue::Set(items) => {
                    self.output.extend(items.iter().map(RtValue::render));
                }
                v => self.output.push(v.render()),
            }
            return Ok(());
        }
        let mut line = String::new();
        for a in args..args + len {
            line.push_str(&self.eval(code, a)?.render());
        }
        self.output.push(line);
        Ok(())
    }

    /// Evaluate expression `e`. The nodes a loop body is made of, literals,
    /// variables, field reads and operator chains, are dispatched inline;
    /// the rest through [`Self::eval_node`].
    #[inline(always)]
    fn eval(&mut self, code: &Code<'a>, e: Id) -> Result<RtValue, RtError> {
        match &code.nodes[e as usize] {
            Node::Lit(v) => {
                self.tick()?;
                Ok(RtValue::Scalar(copy_value(v)))
            }
            Node::Var { slot, name } => {
                self.tick()?;
                lookup(&self.frame, *slot, *name).map(copy)
            }
            Node::Field { obj, name, cache } => self.field(code, *obj, *name, cache),
            Node::Chain { first, steps, len } => self.chain(code, *first, *steps, *len),
            _ => self.eval_node(code, e),
        }
    }

    /// `obj.name`; a variable `obj` is read in place, for the step a read
    /// takes.
    #[inline(always)]
    fn field(
        &mut self,
        code: &Code<'a>,
        obj: Id,
        name: Symbol,
        cache: &FieldCache,
    ) -> Result<RtValue, RtError> {
        self.tick()?;
        let owned;
        let v = match code.nodes[obj as usize] {
            Node::Var { slot, name } => {
                self.tick()?;
                lookup(&self.frame, slot, name)?
            }
            _ => {
                owned = self.eval_node(code, obj)?;
                &owned
            }
        };
        field_of(v, name, cache).ok_or_else(|| no_field(name, v))
    }

    /// [`Self::eval`] out of line: what `eval` inlines is reached from
    /// here too, so a field read can evaluate its object without inlining
    /// itself.
    #[inline(never)]
    fn eval_node(&mut self, code: &Code<'a>, e: Id) -> Result<RtValue, RtError> {
        let node = &code.nodes[e as usize];
        if let Node::Lit(_) | Node::Var { .. } | Node::Field { .. } | Node::Chain { .. } = node {
            return self.eval(code, e);
        }
        self.tick()?;
        match node {
            Node::Str(s) => Ok(RtValue::Scalar(Value::Str(s.to_string()))),
            Node::Unary { op, operand } => {
                let v = self.eval(code, *operand)?;
                unary(*op, v)
            }
            Node::Ternary {
                cond,
                then_value,
                else_value,
            } => {
                if self.eval(code, *cond)?.is_true() {
                    self.eval(code, *then_value)
                } else {
                    self.eval(code, *else_value)
                }
            }
            Node::Builtin { f, args, len } => self.builtin(code, *f, *args, *len),
            Node::Sql { call, args, len } => self.sql(code, *call, *args, *len),
            Node::User { func, args, len } => self.call_user(code, *func, *args, *len),
            Node::Undefined(name) => Err(RtError::Undefined(format!("function {name}"))),
            Node::Method {
                method,
                name,
                recv,
                in_place,
                args,
                len,
            } => self.method(code, *method, *name, *recv, *in_place, *args, *len),
            Node::Mutate {
                mutation,
                name,
                slot,
                var,
                args,
                len,
            } => self.mutate(code, *mutation, *name, *slot, *var, *args, *len),
            Node::BadReceiver { name, recv } => Err(RtError::Type(format!(
                "mutating method {name} needs a variable receiver, got {recv:?}"
            ))),
            _ => unreachable!("an expression"),
        }
    }

    /// A left-deep chain of binary operators: one step per operator, all
    /// charged before the first operand, since each operator's step comes
    /// before its operands' and nothing runs between them. `&&` and `||`
    /// short-circuit with SQL three-valued logic: NULL operands make the
    /// result NULL unless the other operand decides it (FALSE for AND, TRUE
    /// for OR). `if`/`while` conditions still treat NULL as not-true,
    /// matching WHERE-clause filtering.
    fn chain(
        &mut self,
        code: &Code<'a>,
        first: Id,
        steps: Id,
        len: u32,
    ) -> Result<RtValue, RtError> {
        self.charge(len)?;
        let mut acc = self.eval(code, first)?;
        for s in steps..steps + len {
            let Node::Step { op, rhs } = code.nodes[s as usize] else {
                unreachable!("a chain's step")
            };
            if let BinaryOp::And | BinaryOp::Or = op {
                acc = self.logic(code, op, &acc, rhs)?;
                continue;
            }
            let rv = self.eval(code, rhs)?;
            if let (RtValue::Scalar(Value::Int(a)), RtValue::Scalar(Value::Int(b))) = (&acc, &rv) {
                // Ints own nothing: both are overwritten without a drop.
                let v = int_binary(op, *a, *b);
                std::mem::forget(rv);
                std::mem::forget(std::mem::replace(&mut acc, RtValue::Scalar(v)));
            } else {
                acc = binary(op, acc, rv)?;
            }
        }
        Ok(acc)
    }

    /// `lv && rhs` or `lv || rhs`: `rhs` is evaluated only when `lv` does
    /// not decide the result.
    fn logic(
        &mut self,
        code: &Code<'a>,
        op: BinaryOp,
        lv: &RtValue,
        rhs: Id,
    ) -> Result<RtValue, RtError> {
        let and = op == BinaryOp::And;
        let lt = truth(lv);
        if lt == Some(!and) {
            return Ok(RtValue::bool(!and));
        }
        Ok(match (lt, truth(&self.eval(code, rhs)?)) {
            (_, Some(r)) if r != and => RtValue::bool(r),
            (Some(l), Some(r)) if l == and && r == and => RtValue::bool(and),
            _ => RtValue::null(),
        })
    }

    #[inline(never)]
    fn builtin(
        &mut self,
        code: &Code<'a>,
        f: Builtin,
        args: Id,
        len: u32,
    ) -> Result<RtValue, RtError> {
        match f {
            Builtin::Max | Builtin::Min => {
                // GREATEST/LEAST semantics (the eval.rs spec): NULL
                // arguments are ignored; NULL only when all are NULL.
                let mut best: Option<Value> = None;
                for a in args..args + len {
                    let v = match self.eval(code, a)? {
                        RtValue::Scalar(v) => v,
                        _ => {
                            let name = if f == Builtin::Max { "max" } else { "min" };
                            return Err(RtError::Type(format!("{name} needs scalars")));
                        }
                    };
                    if v.is_null() {
                        continue;
                    }
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            let take = match v.sql_cmp(&b) {
                                Some(std::cmp::Ordering::Greater) => f == Builtin::Max,
                                Some(std::cmp::Ordering::Less) => f == Builtin::Min,
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
            Builtin::Abs => {
                let v = self.eval(code, arg(args, len, 0))?;
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
            Builtin::Concat => {
                // CONCAT skips NULL arguments (matches ScalarFunc::Concat).
                let mut s = String::new();
                for a in args..args + len {
                    let v = self.eval(code, a)?;
                    if !matches!(v, RtValue::Scalar(Value::Null)) {
                        s.push_str(&v.render());
                    }
                }
                Ok(RtValue::str(s))
            }
            Builtin::Lower | Builtin::Upper => {
                let v = self.eval(code, arg(args, len, 0))?;
                match v.as_scalar() {
                    Some(Value::Str(s)) => Ok(RtValue::str(if f == Builtin::Lower {
                        s.to_lowercase()
                    } else {
                        s.to_uppercase()
                    })),
                    Some(Value::Null) => Ok(RtValue::null()),
                    other => {
                        let name = if f == Builtin::Lower {
                            "lower"
                        } else {
                            "upper"
                        };
                        Err(RtError::Type(format!("{name} of {other:?}")))
                    }
                }
            }
            Builtin::Length => {
                let v = self.eval(code, arg(args, len, 0))?;
                match v.as_scalar() {
                    Some(Value::Str(s)) => Ok(RtValue::int(s.len() as i64)),
                    Some(Value::Null) => Ok(RtValue::null()),
                    other => Err(RtError::Type(format!("length of {other:?}"))),
                }
            }
            Builtin::Coalesce => {
                for a in args..args + len {
                    let v = self.eval(code, a)?;
                    if !matches!(v, RtValue::Scalar(Value::Null)) {
                        return Ok(v);
                    }
                }
                Ok(RtValue::null())
            }
            Builtin::List => Ok(RtValue::List(Vec::new())),
            Builtin::Set => Ok(RtValue::Set(Vec::new())),
            Builtin::Pair => {
                let a = self.eval(code, arg(args, len, 0))?;
                let b = self.eval(code, arg(args, len, 1))?;
                Ok(RtValue::Pair(Box::new(a), Box::new(b)))
            }
        }
    }

    /// A call of a user function: its arguments are evaluated into the
    /// callee's frame, then its arity checked.
    #[inline(never)]
    fn call_user(
        &mut self,
        code: &Code<'a>,
        func: Id,
        args: Id,
        len: u32,
    ) -> Result<RtValue, RtError> {
        let (mut callee, body) = enter(code, func);
        let Node::Fn { arity, .. } = code.nodes[func as usize] else {
            unreachable!("lowered before the run")
        };
        for i in 0..len {
            let v = self.eval(code, args + i)?;
            if len == arity {
                callee[i as usize] = Some(v);
            }
        }
        if len != arity {
            return Err(RtError::Type(format!(
                "{} expects {arity} args, got {len}",
                self.program.functions[func as usize].name
            )));
        }
        self.run(code, callee, body)
    }

    #[inline(never)]
    fn sql(
        &mut self,
        code: &Code<'a>,
        call: SqlCall,
        args: Id,
        len: u32,
    ) -> Result<RtValue, RtError> {
        match call {
            SqlCall::Query => {
                let dbms::Relation { fields, rows } = self.run_query(code, args, len)?;
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
            SqlCall::Scalar => {
                let rel = self.run_query(code, args, len)?;
                Ok(RtValue::Scalar(
                    rel.rows
                        .first()
                        .and_then(|r| r.first().cloned())
                        .unwrap_or(Value::Null),
                ))
            }
            SqlCall::Batch => {
                // One round trip answering a parameterized scalar lookup
                // for a whole batch of parameter values (the batching
                // baseline's primitive; results align with the input list,
                // NULL on miss).
                let mut list = None;
                let sql = self.sql_args(code, call, args, len, |v| {
                    list.get_or_insert(v);
                })?;
                let params = match list {
                    Some(RtValue::List(xs) | RtValue::Set(xs)) => xs,
                    other => {
                        return Err(RtError::Type(format!(
                            "executeBatch needs a parameter list, got {other:?}"
                        )))
                    }
                };
                let ra = sql.query()?;
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
                for p in params {
                    let RtValue::Scalar(key) = p else {
                        return Err(RtError::Type(
                            "executeBatch parameters must be scalars".into(),
                        ));
                    };
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
            SqlCall::Update => {
                let (sql, params) =
                    self.scalar_args(code, call, args, len, "DML parameters must be scalars")?;
                // One round trip for the DML statement.
                self.conn.stats.queries += 1;
                self.conn.stats.sim_us += self.conn.cost.latency_us;
                let stmt = sql.statement()?;
                let n = execute_stmt(&mut self.conn.db, &stmt, &params)
                    .map_err(|e| RtError::Sql(e.to_string()))?;
                Ok(RtValue::int(n))
            }
        }
    }

    fn run_query(
        &mut self,
        code: &Code<'a>,
        args: Id,
        len: u32,
    ) -> Result<dbms::Relation, RtError> {
        let (ra, params) = self.prepare_query(code, args, len)?;
        self.conn.execute(&ra, &params).map_err(sql_error)
    }

    /// The parsed query and parameter values of an `executeQuery` call.
    fn prepare_query<'c>(
        &mut self,
        code: &'c Code<'a>,
        args: Id,
        len: u32,
    ) -> Result<(Cow<'c, RaExpr>, Vec<Value>), RtError> {
        let what = "query parameters must be scalars";
        let (sql, params) = self.scalar_args(code, SqlCall::Query, args, len, what)?;
        Ok((sql.query()?, params))
    }

    /// [`Self::sql_args`] with the values after the SQL text as scalar
    /// parameters; `what` is the error when one is not a scalar.
    fn scalar_args<'c>(
        &mut self,
        code: &'c Code<'a>,
        call: SqlCall,
        args: Id,
        len: u32,
        what: &str,
    ) -> Result<(SqlText<'c>, Vec<Value>), RtError> {
        let mut params = Vec::with_capacity(len.saturating_sub(1) as usize);
        let mut scalars = true;
        let sql = self.sql_args(code, call, args, len, |v| match v {
            RtValue::Scalar(v) => params.push(v),
            _ => scalars = false,
        })?;
        if !scalars {
            return Err(RtError::Type(what.into()));
        }
        Ok((sql, params))
    }

    /// Evaluate the arguments of the SQL call `call`, in order: its SQL
    /// text, then each of the rest, passed to `rest`. A string literal was
    /// parsed when the call was lowered, and is charged the step `eval`
    /// charges for it.
    fn sql_args<'c>(
        &mut self,
        code: &'c Code<'a>,
        call: SqlCall,
        args: Id,
        len: u32,
        mut rest: impl FnMut(RtValue),
    ) -> Result<SqlText<'c>, RtError> {
        let name = call.name();
        debug_assert!(
            !self.in_cursor,
            "{name} called while a cursor loop holds the database"
        );
        if len == 0 {
            return Err(RtError::Type(format!(
                "{name} needs a SQL string, got None"
            )));
        }
        // A first argument that is not a string is reported only after
        // the rest are evaluated, whose errors come first.
        let sql = match code.nodes[args as usize] {
            Node::SqlLit(i) => {
                self.tick()?;
                Ok(SqlText::Lit(&code.sql[i as usize]))
            }
            _ => match self.eval(code, args)? {
                RtValue::Scalar(Value::Str(s)) => Ok(SqlText::Computed(s)),
                other => Err(other),
            },
        };
        for a in args + 1..args + len {
            rest(self.eval(code, a)?);
        }
        sql.map_err(|other| {
            RtError::Type(format!("{name} needs a SQL string, got {:?}", Some(&other)))
        })
    }

    /// `recv.name(args…)` of a reading method. The receiver is evaluated
    /// before the arguments; a variable is read in place unless an argument
    /// could change it, in which case it is copied first.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn method(
        &mut self,
        code: &Code<'a>,
        method: Method,
        name: Symbol,
        recv: Id,
        in_place: bool,
        args: Id,
        len: u32,
    ) -> Result<RtValue, RtError> {
        let recv = match code.nodes[recv as usize] {
            Node::Var { slot, name: var } if in_place => {
                self.tick()?;
                lookup(&self.frame, slot, var)?;
                Recv::Slot(slot)
            }
            _ => Recv::Value(self.eval(code, recv)?),
        };
        let takes_arg = match (method, recv.get(&self.frame)) {
            (
                Method::Size | Method::IsEmpty | Method::First,
                RtValue::List(_) | RtValue::Set(_),
            ) => false,
            (Method::Contains, RtValue::List(_) | RtValue::Set(_))
            | (Method::Get, RtValue::List(_)) => true,
            (_, r) => return Err(RtError::Type(format!("unknown method {name} on {r}"))),
        };
        let arg = if takes_arg {
            Some(self.eval(code, arg(args, len, 0))?)
        } else {
            None
        };
        match (method, recv.get(&self.frame), arg) {
            (Method::Size, RtValue::List(v) | RtValue::Set(v), _) => {
                Ok(RtValue::int(v.len() as i64))
            }
            (Method::IsEmpty, RtValue::List(v) | RtValue::Set(v), _) => {
                Ok(RtValue::bool(v.is_empty()))
            }
            (Method::First, RtValue::List(v) | RtValue::Set(v), _) => {
                Ok(v.first().cloned().unwrap_or(RtValue::null()))
            }
            (Method::Contains, RtValue::List(v) | RtValue::Set(v), Some(needle)) => {
                Ok(RtValue::bool(v.iter().any(|e| loose_eq(e, &needle))))
            }
            (Method::Get, RtValue::List(v), Some(idx)) => match idx.as_scalar() {
                Some(Value::Int(i)) if (*i as usize) < v.len() => Ok(v[*i as usize].clone()),
                other => Err(RtError::Type(format!("bad index {other:?}"))),
            },
            _ => unreachable!("the receiver's shape was checked above"),
        }
    }

    /// `var.name(args…)` of a mutating method: every argument is evaluated,
    /// then the variable changed in place (matching the analysis crate's
    /// model, which requires a variable receiver).
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn mutate(
        &mut self,
        code: &Code<'a>,
        mutation: Mutation,
        name: Symbol,
        slot: u32,
        var: Symbol,
        args: Id,
        len: u32,
    ) -> Result<RtValue, RtError> {
        let mut arg0 = None;
        for a in args..args + len {
            let v = self.eval(code, a)?;
            arg0.get_or_insert(v);
        }
        let coll = self.frame[slot as usize]
            .as_mut()
            .ok_or_else(|| RtError::Undefined(format!("variable {var}")))?;
        let mut first = || arg0.take().expect("a mutating method's argument");
        match (coll, mutation) {
            (RtValue::List(items), Mutation::Add) => items.push(first()),
            (RtValue::Set(items), Mutation::Add) => {
                let v = first();
                if !items.iter().any(|e| loose_eq(e, &v)) {
                    items.push(v);
                }
            }
            (RtValue::List(items) | RtValue::Set(items), Mutation::Remove) => {
                let v = first();
                items.retain(|e| !loose_eq(e, &v));
            }
            (RtValue::List(items) | RtValue::Set(items), Mutation::Clear) => items.clear(),
            (RtValue::List(items), Mutation::AddAll) => match first() {
                RtValue::List(more) | RtValue::Set(more) => items.extend(more),
                other => {
                    return Err(RtError::Type(format!(
                        "addAll needs a collection, got {other}"
                    )))
                }
            },
            (c, _) => return Err(RtError::Type(format!("cannot {name} on {c}"))),
        }
        Ok(RtValue::Unit)
    }
}

/// A fresh frame for a call of the lowered function `func`, its
/// parameters' slots first, and its body.
fn enter(code: &Code<'_>, func: Id) -> (Vec<Option<RtValue>>, Id) {
    let Node::Fn { slots, body, .. } = code.nodes[func as usize] else {
        unreachable!("lowered before the run")
    };
    (vec![None; slots as usize], body)
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
        let parsed = |is: fn(&Sql) -> bool| it.code.sql.iter().filter(|s| is(s)).count();
        assert_eq!(
            parsed(|s| matches!(s, Sql::Query(_))),
            2,
            "the two query literals, once each"
        );
        assert_eq!(parsed(|s| matches!(s, Sql::Stmt(_))), 1);
        assert!(it
            .conn
            .db
            .table("emp")
            .unwrap()
            .scan()
            .all(|r| r[3] == Value::Int(1)));

        // Unparsable SQL fails with the parser's own message, when the call
        // runs and every time: a literal's failed parse is kept.
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
            assert!(
                it.code.sql.iter().all(|s| matches!(s, Sql::Bad(_))),
                "{src}"
            );
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
