//! Scalar evaluation, and the spec of what every query observably does.
//!
//! Every query runs on the volcano executor ([`crate::volcano`]); this
//! module holds what its operators share — the scalar evaluator
//! ([`eval_scalar`], [`eval_binop`]), column scopes for correlation, and
//! the aggregate accumulators — and fixes the rules a result obeys,
//! whether its tables are in memory or paged:
//!
//! * π is order preserving and keeps duplicates (paper Sec. 3.2.1); σ, ⨝,
//!   `OUTER APPLY` and LIMIT keep their input order too (a join emits the
//!   pairs of each left row in right-input order);
//! * δ keeps the first occurrence of each row; γ emits groups in
//!   first-occurrence order. Both compare values by SQL equality, so
//!   `Int(3)` and `Float(3.0)` meet and `NULL` groups with `NULL`, while
//!   distinct integers and distinct strings never collide;
//! * γ follows standard SQL `NULL` semantics (aggregates ignore `NULL`s;
//!   `SUM` of an empty group is `NULL`, `COUNT` is `0`), and a γ with no
//!   GROUP BY over empty input still yields one row;
//! * a left outer join and `OUTER APPLY` pad a left row with no partner
//!   with `NULL`s (Appendix B);
//! * `GREATEST`/`LEAST` ignore `NULL` arguments (PostgreSQL behaviour, which
//!   the paper's Figure 3(d) targets);
//! * correlation (`OUTER APPLY`, `EXISTS`, scalar subqueries) resolves
//!   columns against the current row first, then outer scopes; a scalar
//!   subquery reads the first column of its first row, or `NULL`;
//! * `ORDER BY` places `NULL`s first under `ASC` and last under `DESC`
//!   ([`Value::sort_cmp`] is the single comparator both sides share), and
//!   the sort is stable;
//! * integer arithmetic errors — division/modulo by zero and `i64`
//!   overflow — evaluate to `NULL` (NULL-on-error), never panic or wrap;
//! * evaluation stops early: LIMIT, `EXISTS` and scalar subqueries pull
//!   only the rows they need, so an error in a row never pulled (a type
//!   error, a missing column) is not raised.
//!
//! This comment is the cross-crate semantics spec: the `interp` crate's
//! `imp` operators must agree with it observably (see `tests/fuzz_repros.rs`
//! and `crates/fuzz` for the differential harness that enforces this).

use std::fmt;

use algebra::ra::{AggFunc, RaExpr};
use algebra::scalar::{BinOp, Scalar, ScalarFunc, UnOp};

use crate::table::{Database, Field};
use crate::value::Value;
use crate::volcano::first_row;

/// An evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Referenced base table does not exist.
    UnknownTable(String),
    /// Column resolution failed.
    UnknownColumn(String),
    /// Type mismatch in a scalar operation.
    Type(String),
    /// Parameter index out of range.
    MissingParam(usize),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownTable(t) => write!(f, "unknown table {t}"),
            EvalError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            EvalError::Type(m) => write!(f, "type error: {m}"),
            EvalError::MissingParam(i) => write!(f, "missing query parameter ?{i}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A lexical scope for column resolution during correlated evaluation.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    pub(crate) fields: &'a [Field],
    pub(crate) row: &'a [Value],
    pub(crate) parent: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    fn lookup(&self, qualifier: Option<&str>, name: &str) -> Option<Value> {
        if let Ok(i) = crate::table::resolve_fields(self.fields, qualifier, name) {
            return Some(self.row[i].clone());
        }
        self.parent.and_then(|p| p.lookup(qualifier, name))
    }
}

/// Evaluate a query against a database with positional parameters: the
/// volcano executor, [`crate::volcano::execute`], is the one evaluator.
pub use crate::volcano::execute as eval_query;

/// Output fields of an algebra expression, without evaluating it.
pub fn fields_of(ra: &RaExpr, db: &Database) -> Result<Vec<Field>, EvalError> {
    match ra {
        RaExpr::Table { name, alias } => {
            let t = db
                .table(name)
                .ok_or_else(|| EvalError::UnknownTable(name.clone()))?;
            let q = alias.clone().unwrap_or_else(|| name.clone());
            Ok(t.schema
                .columns
                .iter()
                .map(|c| Field::qualified(q.clone(), c.name.clone()))
                .collect())
        }
        RaExpr::Values { columns, .. } => Ok(columns.iter().map(Field::new).collect()),
        RaExpr::Select { input, .. }
        | RaExpr::Sort { input, .. }
        | RaExpr::Dedup { input }
        | RaExpr::Limit { input, .. } => fields_of(input, db),
        RaExpr::Aliased { input, alias } => Ok(fields_of(input, db)?
            .into_iter()
            .map(|f| Field::qualified(alias.clone(), f.name))
            .collect()),
        RaExpr::Project { items, .. } => {
            Ok(items.iter().map(|i| Field::new(i.alias.clone())).collect())
        }
        RaExpr::Join { left, right, .. } | RaExpr::OuterApply { left, right } => {
            let mut f = fields_of(left, db)?;
            f.extend(fields_of(right, db)?);
            Ok(f)
        }
        RaExpr::Aggregate { group_by, aggs, .. } => {
            let mut f: Vec<Field> = group_by
                .iter()
                .map(|g| Field::new(g.alias.clone()))
                .collect();
            f.extend(aggs.iter().map(|a| Field::new(a.alias.clone())));
            Ok(f)
        }
    }
}

pub(crate) fn empty_agg(f: AggFunc) -> Value {
    match f {
        AggFunc::Count => Value::Int(0),
        _ => Value::Null,
    }
}

/// Streaming aggregate accumulator with SQL NULL semantics.
pub(crate) struct Accumulator {
    func: AggFunc,
    count: i64,
    sum_i: i64,
    sum_f: f64,
    all_int: bool,
    overflowed: bool,
    best: Option<Value>,
}

impl Accumulator {
    pub(crate) fn new(func: AggFunc) -> Accumulator {
        Accumulator {
            func,
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            all_int: true,
            overflowed: false,
            best: None,
        }
    }

    pub(crate) fn feed(&mut self, v: &Value) -> Result<(), EvalError> {
        if v.is_null() {
            return Ok(()); // aggregates ignore NULLs
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Int(i) => {
                    // NULL-on-error: an overflowing integer SUM poisons the
                    // whole aggregate rather than panicking or wrapping.
                    match self.sum_i.checked_add(*i) {
                        Some(s) => self.sum_i = s,
                        None => self.overflowed = true,
                    }
                    self.sum_f += *i as f64;
                }
                Value::Float(x) => {
                    self.all_int = false;
                    self.sum_f += x;
                }
                other => {
                    return Err(EvalError::Type(format!("cannot SUM/AVG over {other}")));
                }
            },
            AggFunc::Min | AggFunc::Max => {
                let better = match &self.best {
                    None => true,
                    Some(b) => match v.sql_cmp(b) {
                        Some(std::cmp::Ordering::Greater) => self.func == AggFunc::Max,
                        Some(std::cmp::Ordering::Less) => self.func == AggFunc::Min,
                        _ => false,
                    },
                };
                if better {
                    self.best = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 || (self.all_int && self.overflowed) {
                    Value::Null
                } else if self.all_int {
                    Value::Int(self.sum_i)
                } else {
                    Value::Float(self.sum_f)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum_f / self.count as f64)
                }
            }
            AggFunc::Min | AggFunc::Max => self.best.unwrap_or(Value::Null),
        }
    }
}

/// Evaluate a scalar expression in a scope.
pub fn eval_scalar(
    e: &Scalar,
    db: &Database,
    params: &[Value],
    scope: Option<&Scope<'_>>,
) -> Result<Value, EvalError> {
    match e {
        Scalar::Lit(l) => Ok(Value::from_lit(l)),
        Scalar::Col(c) => {
            let found = scope.and_then(|s| s.lookup(c.qualifier.as_deref(), &c.column));
            found.ok_or_else(|| EvalError::UnknownColumn(c.to_string()))
        }
        Scalar::Param(i) => params.get(*i).cloned().ok_or(EvalError::MissingParam(*i)),
        Scalar::Bin(op, l, r) => {
            let lv = eval_scalar(l, db, params, scope)?;
            // Short-circuit three-valued AND/OR.
            match op {
                BinOp::And => {
                    if lv == Value::Bool(false) {
                        return Ok(Value::Bool(false));
                    }
                    let rv = eval_scalar(r, db, params, scope)?;
                    return Ok(match (lv, rv) {
                        (_, Value::Bool(false)) => Value::Bool(false),
                        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                        _ => Value::Null,
                    });
                }
                BinOp::Or => {
                    if lv == Value::Bool(true) {
                        return Ok(Value::Bool(true));
                    }
                    let rv = eval_scalar(r, db, params, scope)?;
                    return Ok(match (lv, rv) {
                        (_, Value::Bool(true)) => Value::Bool(true),
                        (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                        _ => Value::Null,
                    });
                }
                _ => {}
            }
            let rv = eval_scalar(r, db, params, scope)?;
            eval_binop(*op, lv, rv)
        }
        Scalar::Un(op, x) => {
            let v = eval_scalar(x, db, params, scope)?;
            Ok(match op {
                UnOp::Neg => match v {
                    Value::Null => Value::Null,
                    // checked_neg: -i64::MIN overflows → NULL-on-error.
                    Value::Int(i) => i.checked_neg().map_or(Value::Null, Value::Int),
                    Value::Float(f) => Value::Float(-f),
                    other => return Err(EvalError::Type(format!("cannot negate {other}"))),
                },
                UnOp::Not => match v {
                    Value::Null => Value::Null,
                    Value::Bool(b) => Value::Bool(!b),
                    other => return Err(EvalError::Type(format!("cannot NOT {other}"))),
                },
                UnOp::IsNull => Value::Bool(v.is_null()),
                UnOp::IsNotNull => Value::Bool(!v.is_null()),
            })
        }
        Scalar::Func(f, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_scalar(a, db, params, scope)?);
            }
            eval_func(*f, vals)
        }
        Scalar::Case { arms, otherwise } => {
            for (c, v) in arms {
                if eval_scalar(c, db, params, scope)?.is_true() {
                    return eval_scalar(v, db, params, scope);
                }
            }
            eval_scalar(otherwise, db, params, scope)
        }
        Scalar::Exists(q) => Ok(Value::Bool(first_row(q, db, params, scope)?.is_some())),
        Scalar::Subquery(q) => Ok(first_row(q, db, params, scope)?
            .and_then(|r| r.into_iter().next())
            .unwrap_or(Value::Null)),
    }
}

/// Evaluate a binary operation on two values with SQL semantics (NULL
/// propagation, mixed numeric widening, integer division-by-zero → NULL).
/// Exposed for the `interp` crate, whose `imp` arithmetic matches.
pub fn eval_binop(op: BinOp, l: Value, r: Value) -> Result<Value, EvalError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = l.sql_cmp(&r);
        return Ok(match ord {
            None => {
                // Comparable-but-mixed types: only (in)equality is defined.
                match op {
                    BinOp::Eq => Value::Bool(false),
                    BinOp::Ne => Value::Bool(true),
                    _ => return Err(EvalError::Type(format!("cannot compare {l} with {r}"))),
                }
            }
            Some(o) => Value::Bool(match op {
                BinOp::Eq => o == std::cmp::Ordering::Equal,
                BinOp::Ne => o != std::cmp::Ordering::Equal,
                BinOp::Lt => o == std::cmp::Ordering::Less,
                BinOp::Le => o != std::cmp::Ordering::Greater,
                BinOp::Gt => o == std::cmp::Ordering::Greater,
                BinOp::Ge => o != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }),
        });
    }
    // Arithmetic. Integer errors (overflow, division by zero) yield NULL —
    // one defined behaviour shared with the interpreter instead of the
    // panic-in-debug / wrap-in-release split of native `i64` arithmetic.
    match (op, &l, &r) {
        (BinOp::Add, Value::Int(a), Value::Int(b)) => {
            Ok(a.checked_add(*b).map_or(Value::Null, Value::Int))
        }
        (BinOp::Sub, Value::Int(a), Value::Int(b)) => {
            Ok(a.checked_sub(*b).map_or(Value::Null, Value::Int))
        }
        (BinOp::Mul, Value::Int(a), Value::Int(b)) => {
            Ok(a.checked_mul(*b).map_or(Value::Null, Value::Int))
        }
        (BinOp::Div, Value::Int(a), Value::Int(b)) => {
            // Covers b == 0 and i64::MIN / -1.
            Ok(a.checked_div(*b).map_or(Value::Null, Value::Int))
        }
        (BinOp::Mod, Value::Int(a), Value::Int(b)) => {
            if *b == 0 {
                Ok(Value::Null)
            } else {
                // wrapping_rem defines i64::MIN % -1 as 0.
                Ok(Value::Int(a.wrapping_rem(*b)))
            }
        }
        _ => {
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(EvalError::Type(format!(
                        "arithmetic on non-numeric values {l}, {r}"
                    )))
                }
            };
            Ok(Value::Float(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Mod => a % b,
                _ => unreachable!(),
            }))
        }
    }
}

fn eval_func(f: ScalarFunc, vals: Vec<Value>) -> Result<Value, EvalError> {
    match f {
        ScalarFunc::Greatest | ScalarFunc::Least => {
            // PostgreSQL behaviour: NULLs ignored; NULL only if all NULL.
            let mut best: Option<Value> = None;
            for v in vals {
                if v.is_null() {
                    continue;
                }
                let take = match &best {
                    None => true,
                    Some(b) => match v.sql_cmp(b) {
                        Some(std::cmp::Ordering::Greater) => f == ScalarFunc::Greatest,
                        Some(std::cmp::Ordering::Less) => f == ScalarFunc::Least,
                        _ => false,
                    },
                };
                if take {
                    best = Some(v);
                }
            }
            Ok(best.unwrap_or(Value::Null))
        }
        ScalarFunc::Abs => match vals.first() {
            // checked_abs: ABS(i64::MIN) overflows → NULL-on-error.
            Some(Value::Int(i)) => Ok(i.checked_abs().map_or(Value::Null, Value::Int)),
            Some(Value::Float(x)) => Ok(Value::Float(x.abs())),
            Some(Value::Null) | None => Ok(Value::Null),
            Some(other) => Err(EvalError::Type(format!("ABS of {other}"))),
        },
        ScalarFunc::Concat => {
            let mut s = String::new();
            for v in vals {
                if !v.is_null() {
                    s.push_str(&v.to_string());
                }
            }
            Ok(Value::Str(s))
        }
        ScalarFunc::Lower => str_func(vals, |s| s.to_lowercase()),
        ScalarFunc::Upper => str_func(vals, |s| s.to_uppercase()),
        ScalarFunc::Length => match vals.into_iter().next() {
            Some(Value::Str(s)) => Ok(Value::Int(s.len() as i64)),
            Some(Value::Null) | None => Ok(Value::Null),
            Some(other) => Err(EvalError::Type(format!("LENGTH of {other}"))),
        },
        ScalarFunc::Coalesce => Ok(vals
            .into_iter()
            .find(|v| !v.is_null())
            .unwrap_or(Value::Null)),
    }
}

fn str_func(vals: Vec<Value>, f: impl Fn(&str) -> String) -> Result<Value, EvalError> {
    match vals.into_iter().next() {
        Some(Value::Str(s)) => Ok(Value::Str(f(&s))),
        Some(Value::Null) | None => Ok(Value::Null),
        Some(other) => Err(EvalError::Type(format!("string function on {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Relation;
    use algebra::parse::parse_sql;
    use algebra::schema::{SqlType, TableSchema};

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(
            TableSchema::new(
                "board",
                &[
                    ("id", SqlType::Int),
                    ("rnd_id", SqlType::Int),
                    ("p1", SqlType::Int),
                    ("p2", SqlType::Int),
                ],
            )
            .with_key(&["id"]),
        );
        for (id, rnd, p1, p2) in [(1, 1, 10, 20), (2, 1, 30, 5), (3, 2, 99, 1)] {
            d.insert(
                "board",
                vec![
                    Value::Int(id),
                    Value::Int(rnd),
                    Value::Int(p1),
                    Value::Int(p2),
                ],
            );
        }
        d
    }

    fn run(sql: &str, d: &Database, params: &[Value]) -> Relation {
        eval_query(&parse_sql(sql).unwrap(), d, params).unwrap()
    }

    #[test]
    fn select_filters_rows() {
        let r = run("SELECT * FROM board WHERE rnd_id = 1", &db(), &[]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn parameterized_query() {
        let r = run(
            "SELECT * FROM board WHERE rnd_id = ?",
            &db(),
            &[Value::Int(2)],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn projection_preserves_order() {
        let r = run("SELECT p1 FROM board", &db(), &[]);
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(10)],
                vec![Value::Int(30)],
                vec![Value::Int(99)]
            ]
        );
    }

    #[test]
    fn greatest_in_projection() {
        let r = run(
            "SELECT GREATEST(p1, p2) AS m FROM board WHERE rnd_id = 1",
            &db(),
            &[],
        );
        assert_eq!(r.rows, vec![vec![Value::Int(20)], vec![Value::Int(30)]]);
    }

    #[test]
    fn aggregate_max() {
        let r = run("SELECT MAX(p1) AS m FROM board", &db(), &[]);
        assert_eq!(r.rows, vec![vec![Value::Int(99)]]);
    }

    #[test]
    fn aggregate_over_empty_is_null_count_zero() {
        let r = run(
            "SELECT MAX(p1) AS m, COUNT(*) AS c FROM board WHERE rnd_id = 9",
            &db(),
            &[],
        );
        assert_eq!(r.rows, vec![vec![Value::Null, Value::Int(0)]]);
    }

    #[test]
    fn group_by_preserves_first_occurrence_order() {
        let r = run(
            "SELECT rnd_id, SUM(p1) AS s FROM board GROUP BY rnd_id",
            &db(),
            &[],
        );
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::Int(40)],
                vec![Value::Int(2), Value::Int(99)]
            ]
        );
    }

    #[test]
    fn join_combines_rows() {
        let mut d = db();
        d.create_table(TableSchema::new(
            "round",
            &[("rid", SqlType::Int), ("name", SqlType::Text)],
        ));
        d.insert("round", vec![Value::Int(1), "first".into()]);
        d.insert("round", vec![Value::Int(2), "second".into()]);
        let r = run(
            "SELECT * FROM board b JOIN round r ON b.rnd_id = r.rid WHERE r.name = 'second'",
            &d,
            &[],
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn left_join_pads_nulls() {
        let mut d = db();
        d.create_table(TableSchema::new("round", &[("rid", SqlType::Int)]));
        d.insert("round", vec![Value::Int(1)]);
        let e = parse_sql("SELECT * FROM board b LEFT JOIN round r ON b.rnd_id = r.rid").unwrap();
        let r = eval_query(&e, &d, &[]).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows[2][4], Value::Null, "unmatched row padded");
    }

    #[test]
    fn order_by_desc_sorts() {
        let r = run("SELECT id FROM board ORDER BY p1 DESC", &db(), &[]);
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(3)],
                vec![Value::Int(2)],
                vec![Value::Int(1)]
            ]
        );
    }

    #[test]
    fn distinct_keeps_first() {
        let r = run("SELECT DISTINCT rnd_id FROM board", &db(), &[]);
        assert_eq!(r.rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn outer_apply_correlates_and_pads() {
        let mut d = db();
        d.create_table(TableSchema::new(
            "detail",
            &[("board_id", SqlType::Int), ("note", SqlType::Text)],
        ));
        d.insert("detail", vec![Value::Int(1), "a".into()]);
        let inner = RaExpr::table("detail").select(Scalar::cmp(
            BinOp::Eq,
            Scalar::qcol("detail", "board_id"),
            Scalar::qcol("board", "id"),
        ));
        let q = RaExpr::table("board").outer_apply(inner);
        let r = eval_query(&q, &d, &[]).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows[0][5], Value::Str("a".into()));
        assert_eq!(r.rows[1][5], Value::Null);
    }

    #[test]
    fn exists_subquery_correlated() {
        let mut d = db();
        d.create_table(TableSchema::new("flag", &[("bid", SqlType::Int)]));
        d.insert("flag", vec![Value::Int(2)]);
        let sub = RaExpr::table("flag").select(Scalar::cmp(
            BinOp::Eq,
            Scalar::qcol("flag", "bid"),
            Scalar::qcol("board", "id"),
        ));
        let q = RaExpr::table("board").select(Scalar::Exists(Box::new(sub)));
        let r = eval_query(&q, &d, &[]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(2));
    }

    #[test]
    fn three_valued_logic() {
        // NULL OR TRUE = TRUE; NULL AND TRUE = NULL (filtered out).
        let d = Database::new();
        let t = eval_scalar(
            &Scalar::Lit(algebra::scalar::Lit::Null).or(Scalar::bool(true)),
            &d,
            &[],
            None,
        )
        .unwrap();
        assert_eq!(t, Value::Bool(true));
        let u = eval_scalar(
            &Scalar::Bin(
                BinOp::And,
                Box::new(Scalar::Lit(algebra::scalar::Lit::Null)),
                Box::new(Scalar::bool(true)),
            ),
            &d,
            &[],
            None,
        )
        .unwrap();
        assert_eq!(u, Value::Null);
    }

    #[test]
    fn division_by_zero_is_null() {
        let d = Database::new();
        let v = eval_scalar(
            &Scalar::Bin(
                BinOp::Div,
                Box::new(Scalar::int(1)),
                Box::new(Scalar::int(0)),
            ),
            &d,
            &[],
            None,
        )
        .unwrap();
        assert_eq!(v, Value::Null);
    }

    #[test]
    fn missing_param_is_error() {
        let e = parse_sql("SELECT * FROM board WHERE id = ?").unwrap();
        assert_eq!(eval_query(&e, &db(), &[]), Err(EvalError::MissingParam(0)));
    }

    #[test]
    fn unknown_table_is_error() {
        let e = parse_sql("SELECT * FROM nope").unwrap();
        assert!(matches!(
            eval_query(&e, &db(), &[]),
            Err(EvalError::UnknownTable(_))
        ));
    }

    #[test]
    fn unknown_column_is_error() {
        let e = parse_sql("SELECT * FROM board WHERE zzz = 1").unwrap();
        assert!(matches!(
            eval_query(&e, &db(), &[]),
            Err(EvalError::UnknownColumn(_))
        ));
    }

    #[test]
    fn values_node_evaluates() {
        use algebra::scalar::Lit;
        let q = RaExpr::Values {
            columns: vec!["x".into()],
            rows: vec![vec![Lit::Int(1)], vec![Lit::Int(2)]],
        };
        let r = eval_query(&q, &Database::new(), &[]).unwrap();
        assert_eq!(r.len(), 2);
    }
}
