//! Generating SQL and replacement source code from transformed F-IR
//! (paper Sec. 5.2).
//!
//! After the rules have run, an extractable variable's expression contains
//! [`Node::Query`] / [`Node::ScalarQuery`] leaves combined by plain scalar
//! operators. [`node_to_imp`] turns the whole thing into an `imp` expression
//! whose query leaves are `executeQuery` / `executeScalar` calls carrying
//! rendered SQL strings — the form the rewritten program uses at run time.
//! Query parameters are emitted in the SQL string's textual `?` order (see
//! `algebra::render::to_sql_with_params`).

use std::fmt;

use algebra::render::to_sql_with_params;
use algebra::Dialect;
use analysis::diag::Code;
use imp::ast::{BinaryOp, Expr, Literal, UnaryOp};

use crate::eedag::{CollKind, EeDag, Node, NodeId, OpKind};

/// Why a transformed expression has no SQL/`imp` rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlGenError {
    /// A fold, loop, or dependent aggregation survived rule application —
    /// no transformation rule matched (diagnostic code `E006`).
    NoRule(String),
    /// The expression contains constructs with no relational equivalent
    /// (diagnostic code `E005`).
    NonAlgebraic(String),
    /// An internal rendering invariant broke — e.g. an operator node with
    /// the wrong arity reached SQL generation (diagnostic code `E008`).
    /// Reported as a diagnostic instead of panicking so a malformed DAG
    /// from any rule misfire degrades to "keep the original loop".
    Invariant(String),
}

impl SqlGenError {
    /// The human-readable reason.
    pub fn message(&self) -> &str {
        match self {
            SqlGenError::NoRule(m) | SqlGenError::NonAlgebraic(m) | SqlGenError::Invariant(m) => m,
        }
    }

    /// The diagnostic code this error maps to.
    pub fn code(&self) -> Code {
        match self {
            SqlGenError::NoRule(_) => Code::NoRuleApplies,
            SqlGenError::NonAlgebraic(_) => Code::NonAlgebraic,
            SqlGenError::Invariant(_) => Code::RenderInvariant,
        }
    }
}

impl fmt::Display for SqlGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message())
    }
}

/// Convert a fully-transformed ee-DAG expression into an `imp` expression.
///
/// Errors (with a reason) when the expression still contains folds, loops,
/// poisoned nodes, or collection operators — i.e. SQL translation failed
/// and the original code must be kept (paper Sec. 5.2: "If SQL translation
/// for transExpr fails, then the assignment is removed. The original code
/// for v remains intact").
pub fn node_to_imp(dag: &EeDag, id: NodeId, dialect: Dialect) -> Result<Expr, SqlGenError> {
    match dag.node(id).clone() {
        Node::Const(l) => Ok(Expr::Lit(lit_to_imp(&l))),
        Node::Input(v) => Ok(Expr::Var(v)),
        Node::Query { ra, params } => query_call(dag, "executeQuery", &ra, &params, dialect),
        Node::ScalarQuery { ra, params } => query_call(dag, "executeScalar", &ra, &params, dialect),
        Node::FieldOf { base, field } => {
            let b = node_to_imp(dag, base, dialect)?;
            Ok(Expr::Field(Box::new(b), field))
        }
        Node::Cond {
            cond,
            then_val,
            else_val,
        } => {
            let c = node_to_imp(dag, cond, dialect)?;
            let t = node_to_imp(dag, then_val, dialect)?;
            let e = node_to_imp(dag, else_val, dialect)?;
            Ok(Expr::Ternary(Box::new(c), Box::new(t), Box::new(e)))
        }
        Node::EmptyColl(CollKind::List) => Ok(Expr::call("list", vec![])),
        Node::EmptyColl(CollKind::Set) => Ok(Expr::call("set", vec![])),
        Node::Op { op, args } => {
            let mut xs = Vec::with_capacity(args.len());
            for a in &args {
                xs.push(node_to_imp(dag, *a, dialect)?);
            }
            op_to_imp(op, xs)
        }
        Node::AccParam(v) => Err(SqlGenError::NonAlgebraic(format!(
            "free accumulator parameter ⟨{v}⟩"
        ))),
        Node::TupleParam(t) => Err(SqlGenError::NonAlgebraic(format!(
            "free tuple parameter ⟨{t}⟩"
        ))),
        Node::Fold { origin, .. } => Err(SqlGenError::NoRule(format!(
            "untranslated fold for {} (no rule matched)",
            origin.1
        ))),
        Node::ArgExtreme { origin, .. } => Err(SqlGenError::NoRule(format!(
            "untranslated dependent aggregation for {} (source is not a query)",
            origin.1
        ))),
        Node::NotDetermined => Err(SqlGenError::NonAlgebraic(
            "not-determined value".to_string(),
        )),
        Node::Opaque { reason, .. } => Err(SqlGenError::NonAlgebraic(format!(
            "non-algebraic construct: {reason}"
        ))),
    }
}

/// `call(sql, args…)` for a query leaf, its arguments in the SQL string's
/// textual `?` order.
fn query_call(
    dag: &EeDag,
    call: &str,
    ra: &algebra::RaExpr,
    params: &[NodeId],
    dialect: Dialect,
) -> Result<Expr, SqlGenError> {
    let (sql, order) = to_sql_with_params(ra, dialect);
    let mut args = vec![Expr::str(sql)];
    for i in order {
        let p = params
            .get(i)
            .ok_or_else(|| SqlGenError::NonAlgebraic(format!("query parameter ?{i} missing")))?;
        args.push(node_to_imp(dag, *p, dialect)?);
    }
    Ok(Expr::call(call, args))
}

fn lit_to_imp(l: &algebra::scalar::Lit) -> Literal {
    match l {
        algebra::scalar::Lit::Null => Literal::Null,
        algebra::scalar::Lit::Bool(b) => Literal::Bool(*b),
        algebra::scalar::Lit::Int(i) => Literal::Int(*i),
        algebra::scalar::Lit::F64(v) => Literal::Float(v.get()),
        algebra::scalar::Lit::Str(s) => Literal::Str(s.clone()),
    }
}

fn op_to_imp(op: OpKind, mut args: Vec<Expr>) -> Result<Expr, SqlGenError> {
    let bin = |op: BinaryOp, mut args: Vec<Expr>| match (args.pop(), args.pop()) {
        (Some(r), Some(l)) if args.is_empty() => Ok(Expr::Binary(op, Box::new(l), Box::new(r))),
        _ => Err(SqlGenError::Invariant(format!(
            "binary operator {} reached SQL generation with wrong arity",
            op.as_str()
        ))),
    };
    match op {
        OpKind::Add => bin(BinaryOp::Add, args),
        OpKind::Sub => bin(BinaryOp::Sub, args),
        OpKind::Mul => bin(BinaryOp::Mul, args),
        OpKind::Div => bin(BinaryOp::Div, args),
        OpKind::Mod => bin(BinaryOp::Mod, args),
        OpKind::Eq => bin(BinaryOp::Eq, args),
        OpKind::Ne => bin(BinaryOp::Ne, args),
        OpKind::Lt => bin(BinaryOp::Lt, args),
        OpKind::Le => bin(BinaryOp::Le, args),
        OpKind::Gt => bin(BinaryOp::Gt, args),
        OpKind::Ge => bin(BinaryOp::Ge, args),
        OpKind::And => bin(BinaryOp::And, args),
        OpKind::Or => bin(BinaryOp::Or, args),
        OpKind::Not | OpKind::Neg => match (args.pop(), args.is_empty()) {
            (Some(x), true) => {
                let uop = if op == OpKind::Not {
                    UnaryOp::Not
                } else {
                    UnaryOp::Neg
                };
                Ok(Expr::Unary(uop, Box::new(x)))
            }
            _ => Err(SqlGenError::Invariant(format!(
                "unary operator {op:?} reached SQL generation with wrong arity"
            ))),
        },
        OpKind::Max => Ok(Expr::call("max", args)),
        OpKind::Min => Ok(Expr::call("min", args)),
        OpKind::Abs => Ok(Expr::call("abs", args)),
        OpKind::Concat => Ok(Expr::call("concat", args)),
        OpKind::Lower => Ok(Expr::call("lower", args)),
        OpKind::Upper => Ok(Expr::call("upper", args)),
        OpKind::Length => Ok(Expr::call("length", args)),
        OpKind::Coalesce => Ok(Expr::call("coalesce", args)),
        OpKind::Pair => Ok(Expr::call("pair", args)),
        OpKind::Append | OpKind::Insert | OpKind::MultisetInsert => Err(SqlGenError::NonAlgebraic(
            "collection operator has no scalar translation".to_string(),
        )),
    }
}

// ===========================================================================
// foreach-dml lowering (DESIGN.md §5i).
// ===========================================================================

use algebra::dml::{InsertSource, Stmt};
use algebra::ra::{ProjItem, RaExpr};
use algebra::render::stmt_to_sql_with_params;
use algebra::scalar::{ColRef, Scalar};

use crate::fir::{DmlSource, ForeachDml};

/// Wrap the driving scan into a relational subselect with the given
/// projection items.
fn source_select(src: &DmlSource, items: Vec<ProjItem>) -> RaExpr {
    let table = RaExpr::Table {
        name: src.table.clone(),
        alias: Some(src.alias.clone()),
    };
    let scanned = match &src.pred {
        Some(p) => RaExpr::Select {
            input: Box::new(table),
            pred: p.clone(),
        },
        None => table,
    };
    RaExpr::Project {
        input: Box::new(scanned),
        items,
    }
}

/// Lower a [`ForeachDml`] form to one set-oriented DML statement plus the
/// program expressions bound to its `?` parameters, in textual order.
///
/// * `Update` → `UPDATE t SET c = s.v0, … FROM (SELECT e.k AS k0, … ) AS s
///   WHERE t.key = s.k0` — the subselect carries the cursor key and every
///   `SET` value; the key is unique, so each target row is matched by at
///   most one source row (no lost-update ambiguity).
/// * `Insert` → `INSERT INTO t [(cols)] SELECT …`.
/// * `Delete` → `DELETE FROM t WHERE c IN (SELECT …)`.
/// * `DeleteFold` → `DELETE FROM t [WHERE pred]`.
pub fn dml_to_sql(
    dml: &ForeachDml,
    dialect: algebra::Dialect,
) -> Result<(String, Vec<imp::ast::Expr>), SqlGenError> {
    let src = dml.source();
    let stmt = match dml {
        ForeachDml::Update {
            target,
            key_col,
            sets,
            source,
        } => {
            let mut items = vec![ProjItem::new(
                Scalar::Col(ColRef::qualified(source.alias.clone(), source.key.clone())),
                "k0",
            )];
            let mut assigns = Vec::with_capacity(sets.len());
            for (i, (col, val)) in sets.iter().enumerate() {
                items.push(ProjItem::new(val.clone(), format!("v{i}")));
                assigns.push((col.clone(), format!("v{i}")));
            }
            Stmt::UpdateFrom {
                table: target.clone(),
                sets: assigns,
                source: source_select(src, items),
                alias: "s".to_string(),
                key: ColRef::qualified(target.clone(), key_col.clone()),
                source_key: "k0".to_string(),
            }
        }
        ForeachDml::Insert {
            target,
            columns,
            values,
            ..
        } => {
            let items = values
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let alias = columns.get(i).cloned().unwrap_or_else(|| format!("c{i}"));
                    ProjItem::new(v.clone(), alias)
                })
                .collect();
            Stmt::Insert {
                table: target.clone(),
                columns: (!columns.is_empty()).then(|| columns.clone()),
                source: InsertSource::Query(source_select(src, items)),
            }
        }
        ForeachDml::Delete {
            target,
            key_col,
            key,
            source,
        } => Stmt::DeleteIn {
            table: target.clone(),
            column: key_col.clone(),
            query: source_select(source, vec![ProjItem::new(key.clone(), "k0")]),
        },
        ForeachDml::DeleteFold { source, .. } => Stmt::Delete {
            table: source.table.clone(),
            filter: source.pred.clone(),
        },
    };
    let (sql, order) = stmt_to_sql_with_params(&stmt, dialect);
    let args = order
        .into_iter()
        .map(|i| {
            src.params.get(i).cloned().ok_or_else(|| {
                SqlGenError::Invariant(format!("DML parameter ?{i} has no bound expression"))
            })
        })
        .collect::<Result<_, _>>()?;
    Ok((sql, args))
}
