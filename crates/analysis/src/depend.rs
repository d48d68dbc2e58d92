//! Loop-carried dependence analysis for DML (write) loops.
//!
//! The extraction pipeline handles read loops by translating the whole
//! body into relational algebra; a *write* loop — a cursor loop whose body
//! calls `executeUpdate` — needs a different legality argument: the loop
//! may be replaced by one set-oriented statement only when no iteration
//! depends on the database state left behind by an earlier iteration.
//! This module proves (or refutes) that property with one forward walk
//! over the body's statements:
//!
//! * The abstract state (`AccessFact`) tracks, per iteration, which
//!   tables the body *reads* (inner `executeQuery`/`executeScalar`),
//!   which it *writes* (table, DML kind, written column set, and a key
//!   predicate abstracted over the cursor variable), which scalars are
//!   read before they are assigned (loop-carried values), and whether the
//!   body has effects we cannot model (dynamic SQL, unknown calls,
//!   collection mutation, printing).
//! * Both arms of an `if` are walked from the fact before it and joined
//!   after it, so guards (`if` around the DML call) are handled exactly,
//!   not syntactically. Early exits, nested loops and consumed updates are
//!   rejected before the walk, so the walked body is acyclic and
//!   `if`-structured and one pass is the exact fixpoint.
//! * The summary fact at the body's exit is classified into the classic
//!   loop-carried dependences:
//!   - **flow** — an iteration reads state (a table or a scalar) a
//!     previous iteration may have written, or an `UPDATE` matches on a
//!     key column it also rewrites;
//!   - **anti** — an iteration writes state the loop itself still reads
//!     (an `INSERT` into the driving table);
//!   - **output** — two iterations may write the same rows (a write not
//!     keyed by the driving table's unique key);
//!   - **control** / **effect** — early exits, nested loops, prints and
//!     opaque calls that make reordering unobservable to prove.
//!
//! A loop is **batchable** ([`Verdict::Batchable`]) iff its writes are
//! key-disjoint — each iteration touches only rows identified by that
//! iteration's cursor key — or provably commutative: a pure `INSERT` into
//! a table the loop never reads (multiset append commutes), or a `DELETE`
//! keyed by any cursor field (deleting the same row twice is idempotent).
//! Otherwise the first blocking dependence is recorded, with a span, for
//! blame (`E010`); the extractor turns a `Batchable` verdict into a
//! `foreach-dml` F-IR form and lowers it to `UPDATE … FROM (SELECT …)`,
//! `INSERT … SELECT`, or a predicate-folded `DELETE` (DESIGN.md §5i).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use algebra::dml::{InsertSource, Stmt as SqlStmt};
use algebra::parse::{parse_sql, parse_statement};
use algebra::scalar::{BinOp, ColRef, Lit, Scalar, UnOp};
use algebra::RaExpr;
use imp::ast::{builtins, Block, Expr, Literal, StmtId, StmtKind};
use imp::token::Span;
use intern::Symbol;

// ---------------------------------------------------------------------------
// DML statement templates
// ---------------------------------------------------------------------------

/// Which DML verb a write uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DmlKind {
    /// `UPDATE … SET … [WHERE …]`
    Update,
    /// `INSERT INTO … VALUES (…)`
    Insert,
    /// `DELETE FROM … [WHERE …]`
    Delete,
}

impl fmt::Display for DmlKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmlKind::Update => write!(f, "UPDATE"),
            DmlKind::Insert => write!(f, "INSERT"),
            DmlKind::Delete => write!(f, "DELETE"),
        }
    }
}

/// Shape of a parameterized DML statement string, as passed to
/// `executeUpdate`: the per-row forms the analysis models. Every value is
/// a `?` ([`Scalar::Param`], numbered in textual order) or a literal
/// ([`Scalar::Lit`]). Table and column names are lowercased.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmlTemplate {
    /// `UPDATE table SET col = v, … [WHERE col = v]`
    Update {
        /// Target table.
        table: String,
        /// `SET` assignments in textual order.
        sets: Vec<(String, Scalar)>,
        /// Single-equality `WHERE` clause, when present.
        where_eq: Option<(String, Scalar)>,
    },
    /// `INSERT INTO table [(col, …)] VALUES (v, …)`
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list, when present.
        columns: Option<Vec<String>>,
        /// `VALUES` tuple in textual order.
        values: Vec<Scalar>,
    },
    /// `DELETE FROM table [WHERE col = v]`
    Delete {
        /// Target table.
        table: String,
        /// Single-equality `WHERE` clause, when present.
        where_eq: Option<(String, Scalar)>,
    },
}

impl DmlTemplate {
    /// The template of a parsed statement, or `None` for a shape outside
    /// it (subqueries, compound predicates, computed values, …).
    pub fn of(stmt: &SqlStmt) -> Option<DmlTemplate> {
        match stmt {
            SqlStmt::Update {
                table,
                sets,
                filter,
            } => Some(DmlTemplate::Update {
                table: table.clone(),
                sets: sets
                    .iter()
                    .map(|(c, v)| Some((c.clone(), template_value(v)?)))
                    .collect::<Option<_>>()?,
                where_eq: where_eq(filter.as_ref())?,
            }),
            SqlStmt::Insert {
                table,
                columns,
                source: InsertSource::Values(values),
            } => Some(DmlTemplate::Insert {
                table: table.clone(),
                columns: columns.clone(),
                values: values.iter().map(template_value).collect::<Option<_>>()?,
            }),
            SqlStmt::Delete { table, filter } => Some(DmlTemplate::Delete {
                table: table.clone(),
                where_eq: where_eq(filter.as_ref())?,
            }),
            _ => None,
        }
    }

    /// Target table (lowercased).
    pub fn table(&self) -> &str {
        match self {
            DmlTemplate::Update { table, .. }
            | DmlTemplate::Insert { table, .. }
            | DmlTemplate::Delete { table, .. } => table,
        }
    }

    /// DML verb.
    pub fn kind(&self) -> DmlKind {
        match self {
            DmlTemplate::Update { .. } => DmlKind::Update,
            DmlTemplate::Insert { .. } => DmlKind::Insert,
            DmlTemplate::Delete { .. } => DmlKind::Delete,
        }
    }
}

/// A template value: `?` or a literal, with a leading minus folded into a
/// numeric literal.
fn template_value(e: &Scalar) -> Option<Scalar> {
    match e {
        Scalar::Param(_) | Scalar::Lit(_) => Some(e.clone()),
        Scalar::Un(UnOp::Neg, x) => match x.as_ref() {
            Scalar::Lit(Lit::Int(i)) => Some(Scalar::Lit(Lit::Int(i.checked_neg()?))),
            Scalar::Lit(Lit::F64(v)) => Some(Scalar::Lit(Lit::float(-v.get()))),
            _ => None,
        },
        _ => None,
    }
}

/// A `WHERE` clause in template form: absent (`Some(None)`), or one
/// `col = value` equality; `None` for any other predicate.
fn where_eq(filter: Option<&Scalar>) -> Option<Option<(String, Scalar)>> {
    let Some(pred) = filter else {
        return Some(None);
    };
    match pred {
        Scalar::Bin(BinOp::Eq, l, r) => match l.as_ref() {
            Scalar::Col(ColRef {
                qualifier: None,
                column,
            }) => Some(Some((column.to_ascii_lowercase(), template_value(r)?))),
            _ => None,
        },
        _ => None,
    }
}

/// Parse a parameterized DML statement into its [`DmlTemplate`] shape.
/// Returns `None` for anything outside the template — callers must treat
/// that as an opaque write.
pub fn parse_dml_template(sql: &str) -> Option<DmlTemplate> {
    DmlTemplate::of(&parse_statement(sql).ok()?)
}

/// Tables a SQL query string reads (lowercased), including those inside
/// `EXISTS` and scalar subqueries; `None` when the string does not parse.
pub fn tables_read(sql: &str) -> Option<BTreeSet<String>> {
    fn collect(ra: &RaExpr, out: &mut BTreeSet<String>) {
        ra.walk(&mut |e| {
            if let RaExpr::Table { name, .. } = e {
                out.insert(name.clone());
            }
            for s in e.scalars() {
                s.walk(&mut |x| {
                    if let Scalar::Exists(q) | Scalar::Subquery(q) = x {
                        collect(q, out);
                    }
                });
            }
        });
    }
    let mut out = BTreeSet::new();
    collect(&parse_sql(sql).ok()?, &mut out);
    Some(out)
}

// ---------------------------------------------------------------------------
// The lattice
// ---------------------------------------------------------------------------

/// Abstraction of the rows a write touches, in terms of the cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyPred {
    /// ⊥ — no keyed write observed yet.
    Bottom,
    /// Every write on this path is `column = cursor.field` (both
    /// lowercased): iterations with distinct `field` values touch
    /// disjoint row sets.
    CursorKey {
        /// Key column of the written table.
        column: String,
        /// Cursor field supplying the key value.
        field: String,
    },
    /// ⊤ — some write is not keyed by the cursor (constant key, missing
    /// `WHERE`, computed key): row sets of different iterations may
    /// overlap.
    Top,
}

impl KeyPred {
    fn join(&self, other: &KeyPred) -> KeyPred {
        match (self, other) {
            (KeyPred::Bottom, x) | (x, KeyPred::Bottom) => x.clone(),
            (a, b) if a == b => a.clone(),
            _ => KeyPred::Top,
        }
    }
}

/// Which columns a write touches: a finite set or all of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColSet {
    /// Exactly these columns (lowercased).
    Cols(BTreeSet<String>),
    /// All / unknown columns.
    All,
}

impl ColSet {
    fn join(&self, other: &ColSet) -> ColSet {
        match (self, other) {
            (ColSet::All, _) | (_, ColSet::All) => ColSet::All,
            (ColSet::Cols(a), ColSet::Cols(b)) => ColSet::Cols(a.union(b).cloned().collect()),
        }
    }
}

/// Joined abstraction of every write one iteration performs on one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableWrite {
    /// DML verbs used.
    pub kinds: BTreeSet<DmlKind>,
    /// Columns written (`SET` targets, inserted columns).
    pub columns: ColSet,
    /// Key abstraction of the touched rows.
    pub key: KeyPred,
}

/// The walk's fact: one iteration's abstract effect, joined over all
/// paths through the body reaching a program point.
#[derive(Debug, Clone, Default)]
struct AccessFact {
    /// Tables read by inner queries (lowercased).
    reads: BTreeSet<String>,
    /// Per-table write abstraction.
    writes: BTreeMap<String, TableWrite>,
    /// Scalars read before being must-assigned this iteration (excluding
    /// the cursor). Intersected with the body's assigned set, these are
    /// the loop-carried scalars.
    carried: BTreeSet<Symbol>,
    /// Variables assigned on every path so far (kills `carried`).
    assigned: BTreeSet<Symbol>,
    /// Body produces output (`print`).
    prints: bool,
    /// Effects the abstraction cannot model, by reason.
    opaque: BTreeSet<String>,
}

impl AccessFact {
    /// Join the fact of another path into this one.
    fn join(&mut self, b: AccessFact) {
        for (t, w) in b.writes {
            match self.writes.get_mut(&t) {
                Some(e) => {
                    e.kinds.extend(w.kinds);
                    e.columns = e.columns.join(&w.columns);
                    e.key = e.key.join(&w.key);
                }
                None => {
                    self.writes.insert(t, w);
                }
            }
        }
        self.reads.extend(b.reads);
        self.carried.extend(b.carried);
        self.assigned.retain(|v| b.assigned.contains(v));
        self.prints |= b.prints;
        self.opaque.extend(b.opaque);
    }
}

/// The forward dependence-collection walk over the loop body.
struct DependWalk {
    /// Cursor variable of the enclosing loop.
    cursor: Symbol,
}

impl DependWalk {
    /// Record every read/effect of `e` into `fact`.
    fn scan_expr(&self, e: &Expr, fact: &mut AccessFact) {
        match e {
            Expr::Lit(_) => {}
            Expr::Var(v) => {
                if *v != self.cursor && !fact.assigned.contains(v) {
                    fact.carried.insert(*v);
                }
            }
            Expr::Unary(_, a) => self.scan_expr(a, fact),
            Expr::Binary(_, a, b) => {
                self.scan_expr(a, fact);
                self.scan_expr(b, fact);
            }
            Expr::Ternary(c, a, b) => {
                self.scan_expr(c, fact);
                self.scan_expr(a, fact);
                self.scan_expr(b, fact);
            }
            Expr::Field(base, _) => self.scan_expr(base, fact),
            Expr::Call { name, args } => {
                match name.as_str() {
                    builtins::EXECUTE_QUERY
                    | builtins::EXECUTE_SCALAR
                    | builtins::EXECUTE_BATCH => match args.first() {
                        Some(Expr::Lit(Literal::Str(sql))) => match tables_read(sql) {
                            Some(tables) => fact.reads.extend(tables),
                            None => {
                                fact.opaque.insert(format!(
                                    "runs SQL the parser cannot read `{}`",
                                    sql.trim()
                                ));
                            }
                        },
                        _ => {
                            fact.opaque
                                .insert("runs dynamically constructed SQL".to_string());
                        }
                    },
                    builtins::EXECUTE_UPDATE => match args.first() {
                        Some(Expr::Lit(Literal::Str(sql))) => match parse_dml_template(sql) {
                            Some(t) => self.record_write(&t, &args[1..], fact),
                            None => {
                                fact.opaque
                                    .insert(format!("unsupported DML statement `{}`", sql.trim()));
                            }
                        },
                        _ => {
                            fact.opaque
                                .insert("runs dynamically constructed DML".to_string());
                        }
                    },
                    n if builtins::PURE_FUNCTIONS.contains(&n) => {}
                    n => {
                        fact.opaque
                            .insert(format!("calls `{n}`, whose effects are unknown"));
                    }
                }
                for a in args {
                    self.scan_expr(a, fact);
                }
            }
            Expr::MethodCall { recv, name, args } => {
                if builtins::MUTATING_METHODS.contains(&name.as_str()) {
                    fact.opaque
                        .insert(format!("mutates a collection via `.{name}(…)`"));
                } else if !builtins::READING_METHODS.contains(&name.as_str()) {
                    fact.opaque.insert(format!(
                        "calls method `.{name}(…)`, whose effects are unknown"
                    ));
                }
                self.scan_expr(recv, fact);
                for a in args {
                    self.scan_expr(a, fact);
                }
            }
        }
    }

    /// Join one parsed DML write into the fact, abstracting its key over
    /// the cursor via the call's parameter arguments (`args` excludes the
    /// SQL string).
    fn record_write(&self, t: &DmlTemplate, args: &[Expr], fact: &mut AccessFact) {
        let key_of = |w: &Option<(String, Scalar)>| match w {
            None => KeyPred::Top,
            Some((col, Scalar::Param(i))) => match args.get(*i) {
                Some(Expr::Field(base, f)) if **base == Expr::Var(self.cursor) => {
                    KeyPred::CursorKey {
                        column: col.clone(),
                        field: f.as_str().to_ascii_lowercase(),
                    }
                }
                _ => KeyPred::Top,
            },
            Some(_) => KeyPred::Top,
        };
        let (kind, columns, key) = match t {
            DmlTemplate::Update { sets, where_eq, .. } => (
                DmlKind::Update,
                ColSet::Cols(sets.iter().map(|(c, _)| c.clone()).collect()),
                key_of(where_eq),
            ),
            DmlTemplate::Insert { columns, .. } => (
                DmlKind::Insert,
                match columns {
                    Some(cols) => ColSet::Cols(cols.iter().cloned().collect()),
                    None => ColSet::All,
                },
                KeyPred::Bottom,
            ),
            DmlTemplate::Delete { where_eq, .. } => {
                (DmlKind::Delete, ColSet::All, key_of(where_eq))
            }
        };
        let entry = fact
            .writes
            .entry(t.table().to_string())
            .or_insert(TableWrite {
                kinds: BTreeSet::new(),
                columns: ColSet::Cols(BTreeSet::new()),
                key: KeyPred::Bottom,
            });
        entry.kinds.insert(kind);
        entry.columns = entry.columns.join(&columns);
        entry.key = entry.key.join(&key);
    }

    /// Apply `block`'s statements to `fact` in program order. An `if`
    /// scans its condition, walks both branches from the same fact and
    /// joins them after it. The body holds no loops and no jumps by the
    /// time it is walked (`analyze_body` rejects them first), so this
    /// one pass is the exact fixpoint of the forward problem over the
    /// body's acyclic control flow.
    fn walk(&self, block: &Block, fact: &mut AccessFact) {
        for s in &block.stmts {
            match &s.kind {
                StmtKind::Assign { target, value } => {
                    self.scan_expr(value, fact);
                    fact.assigned.insert(*target);
                }
                StmtKind::Expr(e) => self.scan_expr(e, fact),
                StmtKind::Print(es) => {
                    for e in es {
                        self.scan_expr(e, fact);
                    }
                    fact.prints = true;
                }
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.scan_expr(cond, fact);
                    let mut other = fact.clone();
                    self.walk(then_branch, fact);
                    self.walk(else_branch, &mut other);
                    fact.join(other);
                }
                StmtKind::ForEach { .. }
                | StmtKind::While { .. }
                | StmtKind::Return(_)
                | StmtKind::Break
                | StmtKind::Continue => {
                    unreachable!("loops and early exits are rejected before the walk")
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// The classic dependence kinds, plus the two reasons a loop can fail
/// batchability without a data dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependenceKind {
    /// Iteration N+1 reads state iteration N wrote.
    Flow,
    /// An iteration writes state the loop still reads.
    Anti,
    /// Two iterations may write the same rows.
    Output,
    /// Early exit or nested loop makes the iteration space data-dependent.
    Control,
    /// An effect the abstraction cannot model (print, dynamic SQL, …).
    Effect,
}

impl fmt::Display for DependenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DependenceKind::Flow => write!(f, "flow"),
            DependenceKind::Anti => write!(f, "anti"),
            DependenceKind::Output => write!(f, "output"),
            DependenceKind::Control => write!(f, "control"),
            DependenceKind::Effect => write!(f, "effect"),
        }
    }
}

/// The first dependence (in a fixed deterministic order) that blocks
/// batching, for blame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blocking {
    /// Dependence class.
    pub kind: DependenceKind,
    /// Human-readable description naming the concrete tables/scalars.
    pub detail: String,
    /// Anchor span (the offending statement when known, else the loop).
    pub span: Span,
}

/// Outcome of the dependence analysis for one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every write is key-disjoint or commutative: the loop may be
    /// replaced by one set-oriented statement.
    Batchable,
    /// A loop-carried dependence (or unmodellable effect) blocks batching.
    Blocked(Blocking),
    /// The body performs no DML at all — not this analysis' concern.
    NotDml,
}

/// One statement-position `executeUpdate` call site.
#[derive(Debug, Clone, PartialEq)]
pub struct DmlSite {
    /// Id of the `Expr` statement holding the call.
    pub stmt: StmtId,
    /// Span of the call statement.
    pub span: Span,
    /// Parsed template.
    pub template: DmlTemplate,
    /// Parameter arguments (call arguments after the SQL string).
    pub args: Vec<Expr>,
    /// `if` conditions guarding the call, outermost first, with the
    /// branch polarity (`false` = reached through the `else` branch).
    pub guards: Vec<(Expr, bool)>,
}

/// Everything the extractor needs to know about a write loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopDependence {
    /// Batchability verdict.
    pub verdict: Verdict,
    /// The single DML site, when the body has exactly one (lowering
    /// handles only that shape; more sites with a `Batchable` verdict is
    /// an extraction limitation, not a dependence).
    pub site: Option<DmlSite>,
    /// Number of statement-position DML sites found.
    pub sites_found: usize,
    /// Tables read by inner queries.
    pub reads: BTreeSet<String>,
    /// Tables written, with their joined write abstraction.
    pub writes: BTreeMap<String, TableWrite>,
}

/// What the analysis must know about the loop's driving query.
#[derive(Debug, Clone)]
pub struct DrivingInfo<'a> {
    /// Cursor variable.
    pub cursor: Symbol,
    /// Driving table (lowercased).
    pub table: &'a str,
    /// A unique, non-null column of the driving rows (its primary key,
    /// lowercased) — distinct iterations carry distinct values of it.
    /// `None` when the driving table has no usable key.
    pub key: Option<&'a str>,
    /// Span of the enclosing loop, used as the blame anchor when no
    /// better span exists.
    pub loop_span: Span,
}

/// Syntactic facts gathered in one pre-pass over the body.
#[derive(Default)]
struct Syntactic {
    abrupt: Option<(&'static str, Span)>,
    nested_loop: Option<Span>,
    assigned: BTreeSet<Symbol>,
    assign_span: BTreeMap<Symbol, Span>,
    print_span: Option<Span>,
    read_span: BTreeMap<String, Span>,
    write_span: BTreeMap<String, Span>,
    sites: Vec<DmlSite>,
    /// First `executeUpdate` not in statement position.
    update_elsewhere: Option<Span>,
    /// Any `executeUpdate` call exists (even malformed / nested ones).
    any_update: bool,
}

/// Record inner-query reads and stray `executeUpdate` calls anywhere in
/// `e` (span-anchored to the enclosing statement).
fn record_expr(e: &Expr, span: Span, out: &mut Syntactic) {
    e.walk(&mut |sub| {
        if let Expr::Call { name, args } = sub {
            match name.as_str() {
                builtins::EXECUTE_QUERY | builtins::EXECUTE_SCALAR | builtins::EXECUTE_BATCH => {
                    if let Some(Expr::Lit(Literal::Str(sql))) = args.first() {
                        for t in tables_read(sql).unwrap_or_default() {
                            out.read_span.entry(t).or_insert(span);
                        }
                    }
                }
                builtins::EXECUTE_UPDATE => {
                    out.any_update = true;
                    if out.update_elsewhere.is_none() {
                        out.update_elsewhere = Some(span);
                    }
                    if let Some(Expr::Lit(Literal::Str(sql))) = args.first() {
                        if let Some(t) = parse_dml_template(sql) {
                            out.write_span.entry(t.table().to_string()).or_insert(span);
                        }
                    }
                }
                _ => {}
            }
        }
    });
}

fn scan_syntactic(block: &Block, guards: &mut Vec<(Expr, bool)>, out: &mut Syntactic) {
    for s in &block.stmts {
        match &s.kind {
            StmtKind::Assign { target, value } => {
                record_expr(value, s.span, out);
                out.assigned.insert(*target);
                out.assign_span.entry(*target).or_insert(s.span);
            }
            StmtKind::Expr(e) => {
                if let Expr::Call { name, args } = e {
                    if name.as_str() == builtins::EXECUTE_UPDATE {
                        out.any_update = true;
                        if let Some(Expr::Lit(Literal::Str(sql))) = args.first() {
                            if let Some(template) = parse_dml_template(sql) {
                                out.write_span
                                    .entry(template.table().to_string())
                                    .or_insert(s.span);
                                out.sites.push(DmlSite {
                                    stmt: s.id,
                                    span: s.span,
                                    template,
                                    args: args[1..].to_vec(),
                                    guards: guards.clone(),
                                });
                            }
                        }
                        // Nested calls inside the arguments still count.
                        for a in args.iter().skip(1) {
                            record_expr(a, s.span, out);
                        }
                        continue;
                    }
                }
                record_expr(e, s.span, out);
            }
            StmtKind::Print(es) => {
                out.print_span.get_or_insert(s.span);
                for e in es {
                    record_expr(e, s.span, out);
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                record_expr(cond, s.span, out);
                guards.push((cond.clone(), true));
                scan_syntactic(then_branch, guards, out);
                guards.pop();
                guards.push((cond.clone(), false));
                scan_syntactic(else_branch, guards, out);
                guards.pop();
            }
            StmtKind::ForEach { body, iterable, .. } => {
                record_expr(iterable, s.span, out);
                out.nested_loop.get_or_insert(s.span);
                scan_syntactic(body, guards, out);
            }
            StmtKind::While { cond, body } => {
                record_expr(cond, s.span, out);
                out.nested_loop.get_or_insert(s.span);
                scan_syntactic(body, guards, out);
            }
            StmtKind::Return(v) => {
                if let Some(v) = v {
                    record_expr(v, s.span, out);
                }
                out.abrupt.get_or_insert(("return", s.span));
            }
            StmtKind::Break => {
                out.abrupt.get_or_insert(("break", s.span));
            }
            StmtKind::Continue => {
                out.abrupt.get_or_insert(("continue", s.span));
            }
        }
    }
}

/// Analyze one cursor-loop body for loop-carried dependences and decide
/// batchability. `body` is the loop body; `drv` describes the driving
/// query the caller already resolved.
pub fn analyze_body(body: &Block, drv: &DrivingInfo) -> LoopDependence {
    let mut syn = Syntactic::default();
    scan_syntactic(body, &mut Vec::new(), &mut syn);

    let mut dep = LoopDependence {
        verdict: Verdict::NotDml,
        site: if syn.sites.len() == 1 {
            Some(syn.sites[0].clone())
        } else {
            None
        },
        sites_found: syn.sites.len(),
        reads: BTreeSet::new(),
        writes: BTreeMap::new(),
    };
    if !syn.any_update {
        return dep;
    }

    let blocked = |kind, detail: String, span| Verdict::Blocked(Blocking { kind, detail, span });

    // Control dependences are syntactic; rejecting them (and consumed
    // updates) first leaves the walk an acyclic, `if`-structured body.
    if let Some((word, span)) = syn.abrupt {
        dep.verdict = blocked(
            DependenceKind::Control,
            format!("the loop body can exit early via `{word}`"),
            span,
        );
        return dep;
    }
    if let Some(span) = syn.nested_loop {
        dep.verdict = blocked(
            DependenceKind::Control,
            "the loop body contains a nested loop".to_string(),
            span,
        );
        return dep;
    }
    if let Some(span) = syn.update_elsewhere {
        dep.verdict = blocked(
            DependenceKind::Effect,
            "the result of `executeUpdate` is consumed by the loop body".to_string(),
            span,
        );
        return dep;
    }

    let mut summary = AccessFact::default();
    DependWalk { cursor: drv.cursor }.walk(body, &mut summary);
    dep.reads = summary.reads.clone();
    dep.writes = summary.writes.clone();

    if let Some(reason) = summary.opaque.iter().next() {
        dep.verdict = blocked(DependenceKind::Effect, reason.clone(), drv.loop_span);
        return dep;
    }
    if summary.prints {
        dep.verdict = blocked(
            DependenceKind::Effect,
            "the loop body prints per-iteration output".to_string(),
            syn.print_span.unwrap_or(drv.loop_span),
        );
        return dep;
    }

    // Loop-carried scalars: read before assigned on some path, and
    // assigned somewhere in the body.
    for v in &summary.carried {
        if syn.assigned.contains(v) {
            dep.verdict = blocked(
                DependenceKind::Flow,
                format!("scalar `{v}` is read before it is assigned, carrying a value across iterations"),
                syn.assign_span.get(v).copied().unwrap_or(drv.loop_span),
            );
            return dep;
        }
    }

    for (table, w) in &summary.writes {
        let span = syn.write_span.get(table).copied().unwrap_or(drv.loop_span);
        if w.kinds.len() > 1 {
            let kinds: Vec<String> = w.kinds.iter().map(|k| k.to_string()).collect();
            dep.verdict = blocked(
                DependenceKind::Output,
                format!("mixed {} statements write table `{table}`", kinds.join("/")),
                span,
            );
            return dep;
        }
        if summary.reads.contains(table) {
            dep.verdict = blocked(
                DependenceKind::Flow,
                format!(
                    "the loop body reads table `{table}`, which it also writes — \
                     an iteration observes earlier iterations' writes"
                ),
                syn.read_span.get(table).copied().unwrap_or(span),
            );
            return dep;
        }
        let kind = *w.kinds.iter().next().expect("write has a kind");
        match kind {
            DmlKind::Insert => {
                if table == drv.table {
                    dep.verdict = blocked(
                        DependenceKind::Anti,
                        format!("`INSERT` into `{table}`, the table the loop's own cursor reads"),
                        span,
                    );
                    return dep;
                }
            }
            DmlKind::Update | DmlKind::Delete => match &w.key {
                KeyPred::CursorKey { column, field } => {
                    // An UPDATE that rewrites its own key column moves
                    // rows into a later iteration's key, which the
                    // batched statement matches on pre-statement keys.
                    let rewrites_key = match &w.columns {
                        ColSet::Cols(cols) => cols.contains(column),
                        ColSet::All => true,
                    };
                    if kind == DmlKind::Update && rewrites_key {
                        dep.verdict = blocked(
                            DependenceKind::Flow,
                            format!(
                                "`UPDATE {table}` rewrites `{column}`, the column its `WHERE` \
                                 matches, so a later iteration's key selects rows an earlier \
                                 one rewrote"
                            ),
                            span,
                        );
                        return dep;
                    }
                    // DELETE commutes with itself (deleting the same rows
                    // twice is idempotent), so any cursor-derived key
                    // suffices; UPDATE needs key-disjoint iterations:
                    // the cursor field must be the driving rows' unique
                    // key.
                    if kind == DmlKind::Update && drv.key != Some(field.as_str()) {
                        dep.verdict = blocked(
                            DependenceKind::Output,
                            format!(
                                "`UPDATE {table}` is keyed by `{column} = {cursor}.{field}`, \
                                 which is not the driving table's unique key — \
                                 iterations may update the same rows",
                                cursor = drv.cursor
                            ),
                            span,
                        );
                        return dep;
                    }
                }
                KeyPred::Top => {
                    dep.verdict = blocked(
                        DependenceKind::Output,
                        format!(
                            "`{kind} {table}` is not keyed by the cursor — \
                             iterations may write the same rows"
                        ),
                        span,
                    );
                    return dep;
                }
                KeyPred::Bottom => {}
            },
        }
    }

    dep.verdict = Verdict::Batchable;
    dep
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp::parser::parse_program;

    /// Run `analyze_body` on the single `for` loop of `src`'s only
    /// function, driving over `emp` keyed by `id`.
    fn analyze(src: &str) -> LoopDependence {
        analyze_with(src, "emp", Some("id"))
    }

    fn analyze_with(src: &str, table: &str, key: Option<&str>) -> LoopDependence {
        let p = parse_program(src).expect("test program parses");
        let f = &p.functions[0];
        for s in &f.body.stmts {
            if let StmtKind::ForEach { var, body, .. } = &s.kind {
                return analyze_body(
                    body,
                    &DrivingInfo {
                        cursor: *var,
                        table,
                        key,
                        loop_span: s.span,
                    },
                );
            }
        }
        panic!("no loop in test program");
    }

    const PRELUDE: &str = "fn main() {\n    q = executeQuery(\"SELECT * FROM emp\");\n";

    fn prog(body: &str) -> String {
        format!("{PRELUDE}    for (e in q) {{\n{body}\n    }}\n    return 0;\n}}\n")
    }

    #[test]
    fn template_parser_handles_the_three_verbs() {
        assert_eq!(
            parse_dml_template("UPDATE emp SET salary = ? WHERE id = ?"),
            Some(DmlTemplate::Update {
                table: "emp".into(),
                sets: vec![("salary".into(), Scalar::Param(0))],
                where_eq: Some(("id".into(), Scalar::Param(1))),
            })
        );
        assert_eq!(
            parse_dml_template("INSERT INTO payout (emp_id, amount) VALUES (?, ?)"),
            Some(DmlTemplate::Insert {
                table: "payout".into(),
                columns: Some(vec!["emp_id".into(), "amount".into()]),
                values: vec![Scalar::Param(0), Scalar::Param(1)],
            })
        );
        assert_eq!(
            parse_dml_template("DELETE FROM emp WHERE id = ?"),
            Some(DmlTemplate::Delete {
                table: "emp".into(),
                where_eq: Some(("id".into(), Scalar::Param(0))),
            })
        );
        assert_eq!(
            parse_dml_template("DELETE FROM emp WHERE id = -1"),
            Some(DmlTemplate::Delete {
                table: "emp".into(),
                where_eq: Some(("id".into(), Scalar::int(-1))),
            })
        );
        // Subqueries and compound predicates parse, but are no template.
        assert_eq!(
            parse_dml_template("DELETE FROM emp WHERE id = ? OR id = 3"),
            None
        );
        assert_eq!(
            parse_dml_template("DELETE FROM emp WHERE id IN (SELECT id FROM emp)"),
            None
        );
        assert_eq!(
            parse_dml_template("UPDATE emp SET salary = salary + 1"),
            None
        );
        assert_eq!(parse_dml_template("DROP TABLE emp"), None);
        assert_eq!(
            parse_dml_template("INSERT INTO t VALUES (1, 'a;b', NULL);"),
            Some(DmlTemplate::Insert {
                table: "t".into(),
                columns: None,
                values: vec![Scalar::int(1), Scalar::str("a;b"), Scalar::Lit(Lit::Null)],
            })
        );
    }

    #[test]
    fn keyed_update_is_batchable() {
        let d = analyze(&prog(
            "        executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", e.salary + 10, e.id);",
        ));
        assert_eq!(d.verdict, Verdict::Batchable);
        let site = d.site.expect("one site");
        assert_eq!(site.template.kind(), DmlKind::Update);
        assert!(site.guards.is_empty());
    }

    #[test]
    fn guarded_update_keeps_its_guard() {
        let d = analyze(&prog(
            "        if (e.salary < 100) {\n            executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", e.salary * 2, e.id);\n        }",
        ));
        assert_eq!(d.verdict, Verdict::Batchable);
        let site = d.site.expect("one site");
        assert_eq!(site.guards.len(), 1);
        assert!(site.guards[0].1);
    }

    #[test]
    fn pure_insert_into_fresh_table_is_batchable() {
        let d = analyze(&prog(
            "        executeUpdate(\"INSERT INTO payout (emp_id, amount) VALUES (?, ?)\", e.id, e.salary);",
        ));
        assert_eq!(d.verdict, Verdict::Batchable);
    }

    #[test]
    fn insert_into_driving_table_is_anti_dependence() {
        let d = analyze(&prog(
            "        executeUpdate(\"INSERT INTO emp (id, salary) VALUES (?, ?)\", e.id + 1000, e.salary);",
        ));
        match d.verdict {
            Verdict::Blocked(b) => assert_eq!(b.kind, DependenceKind::Anti),
            v => panic!("expected anti dependence, got {v:?}"),
        }
    }

    #[test]
    fn read_of_written_table_is_flow_dependence() {
        let d = analyze(&prog(
            "        m = executeScalar(\"SELECT MAX(salary) AS m FROM emp\");\n        executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", m, e.id);",
        ));
        match d.verdict {
            Verdict::Blocked(b) => {
                assert_eq!(b.kind, DependenceKind::Flow);
                assert!(
                    b.detail.contains("emp"),
                    "detail names the table: {}",
                    b.detail
                );
            }
            v => panic!("expected flow dependence, got {v:?}"),
        }
    }

    #[test]
    fn carried_scalar_is_flow_dependence() {
        let d = analyze(&prog(
            "        s = s + e.salary;\n        executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", s, e.id);",
        ));
        match d.verdict {
            Verdict::Blocked(b) => {
                assert_eq!(b.kind, DependenceKind::Flow);
                assert!(
                    b.detail.contains("`s`"),
                    "detail names the scalar: {}",
                    b.detail
                );
            }
            v => panic!("expected flow dependence, got {v:?}"),
        }
    }

    #[test]
    fn branch_local_assign_then_use_is_not_carried() {
        // `d` is must-assigned before its use on every path: not carried.
        let d = analyze(&prog(
            "        d = e.salary * 2;\n        executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", d, e.id);",
        ));
        assert_eq!(d.verdict, Verdict::Batchable);
    }

    #[test]
    fn use_assigned_on_one_branch_only_is_carried() {
        let d = analyze(&prog(
            "        if (e.salary > 10) {\n            d = e.salary;\n        }\n        executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", d, e.id);",
        ));
        match d.verdict {
            Verdict::Blocked(b) => assert_eq!(b.kind, DependenceKind::Flow),
            v => panic!("expected flow dependence, got {v:?}"),
        }
    }

    #[test]
    fn unkeyed_update_is_output_dependence() {
        let d = analyze(&prog(
            "        executeUpdate(\"UPDATE emp SET salary = ? WHERE id = 3\", e.salary);",
        ));
        match d.verdict {
            Verdict::Blocked(b) => assert_eq!(b.kind, DependenceKind::Output),
            v => panic!("expected output dependence, got {v:?}"),
        }
    }

    #[test]
    fn update_keyed_by_non_unique_field_is_output_dependence() {
        let d = analyze(&prog(
            "        executeUpdate(\"UPDATE emp SET salary = ? WHERE dept = ?\", e.salary, e.dept);",
        ));
        match d.verdict {
            Verdict::Blocked(b) => {
                assert_eq!(b.kind, DependenceKind::Output);
                assert!(b.detail.contains("dept"), "{}", b.detail);
            }
            v => panic!("expected output dependence, got {v:?}"),
        }
    }

    /// `shiftIds`: each iteration's new key is a later iteration's `WHERE`
    /// key. The loop gives `[4, 4, 4]` on ids 1, 2, 3 with `d = 1`; the
    /// batched statement would give `[2, 3, 4]`.
    const SHIFT_IDS: &str = "fn shiftIds(d) {\n    \
        for (e in executeQuery(\"SELECT * FROM emp WHERE dept = 'eng'\")) {\n        \
        executeUpdate(\"UPDATE emp SET id = ? WHERE id = ?\", e.id + d, e.id);\n    \
        }\n    return 0;\n}\n";

    #[test]
    fn update_that_rewrites_its_key_is_flow_dependence() {
        match analyze(SHIFT_IDS).verdict {
            Verdict::Blocked(b) => {
                assert_eq!(b.kind, DependenceKind::Flow);
                assert!(b.detail.contains("rewrites `id`"), "{}", b.detail);
            }
            v => panic!("expected flow dependence, got {v:?}"),
        }
    }

    #[test]
    fn delete_keyed_by_any_cursor_field_commutes() {
        let d = analyze(&prog(
            "        executeUpdate(\"DELETE FROM bonus WHERE emp_id = ?\", e.id);",
        ));
        assert_eq!(d.verdict, Verdict::Batchable);
        // Even a non-unique cursor field: deletion is idempotent.
        let d = analyze(&prog(
            "        executeUpdate(\"DELETE FROM bonus WHERE emp_id = ?\", e.dept);",
        ));
        assert_eq!(d.verdict, Verdict::Batchable);
    }

    #[test]
    fn early_exit_is_control_dependence() {
        let d = analyze(&prog(
            "        if (e.salary > 100) {\n            break;\n        }\n        executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", e.salary, e.id);",
        ));
        match d.verdict {
            Verdict::Blocked(b) => {
                assert_eq!(b.kind, DependenceKind::Control);
                assert!(b.detail.contains("break"), "{}", b.detail);
            }
            v => panic!("expected control dependence, got {v:?}"),
        }
    }

    #[test]
    fn print_in_body_is_effect() {
        let d = analyze(&prog(
            "        print(e.id);\n        executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", e.salary, e.id);",
        ));
        match d.verdict {
            Verdict::Blocked(b) => assert_eq!(b.kind, DependenceKind::Effect),
            v => panic!("expected effect, got {v:?}"),
        }
    }

    #[test]
    fn two_sites_still_classify_but_expose_no_single_site() {
        let d = analyze(&prog(
            "        executeUpdate(\"DELETE FROM bonus WHERE emp_id = ?\", e.id);\n        executeUpdate(\"DELETE FROM award WHERE emp_id = ?\", e.id);",
        ));
        assert_eq!(d.verdict, Verdict::Batchable);
        assert_eq!(d.sites_found, 2);
        assert!(d.site.is_none());
    }

    #[test]
    fn read_only_loop_is_not_dml() {
        let d = analyze(&prog("        x = e.salary;"));
        assert_eq!(d.verdict, Verdict::NotDml);
    }

    #[test]
    fn no_driving_key_blocks_update() {
        let d = analyze_with(
            &prog("        executeUpdate(\"UPDATE emp SET salary = ? WHERE id = ?\", e.salary, e.id);"),
            "emp",
            None,
        );
        match d.verdict {
            Verdict::Blocked(b) => assert_eq!(b.kind, DependenceKind::Output),
            v => panic!("expected output dependence, got {v:?}"),
        }
    }
}
