//! Runtime values of the `imp` interpreter.

use std::fmt;
use std::rc::Rc;

use dbms::table::{resolve_fields, Field};
use dbms::Value;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum RtValue {
    /// A database scalar (int/float/bool/string/null).
    Scalar(Value),
    /// An ordered list.
    List(Vec<RtValue>),
    /// An ordered set (insertion order, unique elements).
    Set(Vec<RtValue>),
    /// A row from a query result.
    Row {
        /// Column metadata, shared across rows of one result.
        fields: Rc<Vec<Field>>,
        /// The row's values.
        values: Vec<Value>,
    },
    /// A pair (used by dependent aggregations, Appendix B).
    Pair(Box<RtValue>, Box<RtValue>),
    /// No value (result of statements / void calls).
    Unit,
}

impl RtValue {
    /// Shorthand for an integer scalar.
    pub fn int(v: i64) -> RtValue {
        RtValue::Scalar(Value::Int(v))
    }

    /// Shorthand for a string scalar.
    pub fn str(v: impl Into<String>) -> RtValue {
        RtValue::Scalar(Value::Str(v.into()))
    }

    /// Shorthand for a bool scalar.
    pub fn bool(v: bool) -> RtValue {
        RtValue::Scalar(Value::Bool(v))
    }

    /// Null scalar.
    pub fn null() -> RtValue {
        RtValue::Scalar(Value::Null)
    }

    /// View as a scalar, when it is one.
    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            RtValue::Scalar(v) => Some(v),
            _ => None,
        }
    }

    /// Truthiness for `if`/`while` conditions: only `true` is true.
    pub fn is_true(&self) -> bool {
        matches!(self, RtValue::Scalar(Value::Bool(true)))
    }

    /// Field access on rows; pairs expose `first`/`second`.
    pub fn field(&self, name: &str) -> Option<RtValue> {
        match self {
            RtValue::Row { fields, values } => resolve_fields(fields, None, name)
                .ok()
                .map(|i| RtValue::Scalar(values[i].clone())),
            RtValue::Pair(a, b) => match name {
                "first" => Some((**a).clone()),
                "second" => Some((**b).clone()),
                _ => None,
            },
            _ => None,
        }
    }

    /// A normalized display used by `print` and output comparison. A
    /// single-column row renders as its bare value: extraction may turn a
    /// printed scalar into a one-column query result, and the two must
    /// produce identical output.
    pub fn render(&self) -> String {
        match self {
            RtValue::Row { values, .. } if values.len() == 1 => values[0].to_string(),
            // Multi-column rows print positionally, like the pairs/tuples
            // they replace.
            RtValue::Row { values, .. } => {
                let parts: Vec<String> = values.iter().map(|v| v.to_string()).collect();
                format!("({})", parts.join(", "))
            }
            _ => self.to_string(),
        }
    }
}

impl fmt::Display for RtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtValue::Scalar(v) => write!(f, "{v}"),
            RtValue::List(items) => {
                write!(f, "[")?;
                for (i, x) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            RtValue::Set(items) => {
                write!(f, "{{")?;
                for (i, x) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "}}")
            }
            RtValue::Row { values, .. } if values.len() == 1 => {
                // A single-column row displays as its bare value, like the
                // scalar it replaces.
                write!(f, "{}", values[0])
            }
            RtValue::Row { values, .. } => {
                // Positional, like the tuples/pairs extraction replaces —
                // so printed output and rendered results compare cleanly.
                write!(f, "(")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            RtValue::Pair(a, b) => write!(f, "({a}, {b})"),
            RtValue::Unit => write!(f, "()"),
        }
    }
}

/// Structural equality modulo representation changes that SQL extraction
/// introduces (paper Sec. 5.2 rewrites downstream attribute references, so
/// observationally these coincide):
///
/// * a `Set` compares order-insensitively with another `Set`;
/// * a `Set` compares elementwise with the `List` produced by a `DISTINCT`
///   query (our sets iterate in insertion order = first occurrence);
/// * a scalar compares with a single-column `Row`;
/// * a `Pair` compares with a two-column `Row`.
pub fn loose_eq(a: &RtValue, b: &RtValue) -> bool {
    match (a, b) {
        (RtValue::Set(x), RtValue::Set(y)) => {
            x.len() == y.len() && x.iter().all(|e| y.iter().any(|f| loose_eq(e, f)))
        }
        (RtValue::List(x), RtValue::List(y))
        | (RtValue::Set(x), RtValue::List(y))
        | (RtValue::List(x), RtValue::Set(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(e, f)| loose_eq(e, f))
        }
        (RtValue::Scalar(a), RtValue::Row { values, .. })
        | (RtValue::Row { values, .. }, RtValue::Scalar(a))
            if values.len() == 1 =>
        {
            a.group_eq(&values[0])
        }
        (RtValue::Pair(a1, a2), RtValue::Pair(b1, b2)) => loose_eq(a1, b1) && loose_eq(a2, b2),
        // A pair compares with a two-column row: extraction rewrites
        // `pair(k, v)` collections into two-column query results aliased
        // first/second.
        (RtValue::Pair(a1, a2), RtValue::Row { values, .. })
        | (RtValue::Row { values, .. }, RtValue::Pair(a1, a2))
            if values.len() == 2 =>
        {
            loose_eq_scalar(a1, &values[0]) && loose_eq_scalar(a2, &values[1])
        }
        (RtValue::Row { values: x, .. }, RtValue::Row { values: y, .. }) => {
            // Rows compare by values; field *names* may differ between an
            // original query and an extracted rewrite (aliases).
            x.len() == y.len() && x.iter().zip(y).all(|(e, f)| e.group_eq(f))
        }
        (RtValue::Scalar(x), RtValue::Scalar(y)) => x.group_eq(y),
        _ => a == b,
    }
}

/// `loose_eq(a, &RtValue::Scalar(y.clone()))` without building the scalar.
fn loose_eq_scalar(a: &RtValue, y: &Value) -> bool {
    match a {
        RtValue::Scalar(x) => x.group_eq(y),
        RtValue::Row { values, .. } if values.len() == 1 => y.group_eq(&values[0]),
        _ => false,
    }
}

/// View a query result as a runtime value: one element per row, scalars
/// for single-column results, shared-metadata [`RtValue::Row`]s otherwise.
/// This is the bridge both observational checkers (qbs verification,
/// rewrite certification) use to compare relational and imperative sides.
pub fn relation_to_rt(rel: &dbms::Relation) -> RtValue {
    let fields = Rc::new(rel.fields.clone());
    RtValue::List(
        rel.rows
            .iter()
            .map(|r| {
                if r.len() == 1 {
                    RtValue::Scalar(r[0].clone())
                } else {
                    RtValue::Row {
                        fields: Rc::clone(&fields),
                        values: r.clone(),
                    }
                }
            })
            .collect(),
    )
}

/// Compare a query result against an interpreter value: a scalar expects a
/// 1×1 relation (NULL matches NULL); collections compare via
/// [`relation_to_rt`] and [`loose_eq`] (sets order-insensitively).
pub fn relation_matches(rel: &dbms::Relation, expected: &RtValue) -> bool {
    match expected {
        RtValue::Scalar(v) => {
            rel.rows.len() == 1
                && rel.rows[0].len() == 1
                && (rel.rows[0][0].group_eq(v) || (rel.rows[0][0].is_null() && v.is_null()))
        }
        RtValue::List(_) | RtValue::Set(_) => loose_eq(&relation_to_rt(rel), expected),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_field_access() {
        let r = RtValue::Row {
            fields: Rc::new(vec![Field::qualified("t", "a"), Field::qualified("t", "b")]),
            values: vec![Value::Int(1), Value::Str("x".into())],
        };
        assert_eq!(r.field("b"), Some(RtValue::str("x")));
        assert_eq!(r.field("zzz"), None);
    }

    #[test]
    fn pair_fields() {
        let p = RtValue::Pair(Box::new(RtValue::int(1)), Box::new(RtValue::str("a")));
        assert_eq!(p.field("first"), Some(RtValue::int(1)));
        assert_eq!(p.field("second"), Some(RtValue::str("a")));
    }

    #[test]
    fn loose_eq_ignores_set_order() {
        let a = RtValue::Set(vec![RtValue::int(1), RtValue::int(2)]);
        let b = RtValue::Set(vec![RtValue::int(2), RtValue::int(1)]);
        assert!(loose_eq(&a, &b));
        let c = RtValue::List(vec![RtValue::int(1), RtValue::int(2)]);
        let d = RtValue::List(vec![RtValue::int(2), RtValue::int(1)]);
        assert!(!loose_eq(&c, &d));
    }

    #[test]
    fn loose_eq_rows_by_value() {
        let r1 = RtValue::Row {
            fields: Rc::new(vec![Field::new("x")]),
            values: vec![Value::Int(1)],
        };
        let r2 = RtValue::Row {
            fields: Rc::new(vec![Field::new("renamed")]),
            values: vec![Value::Int(1)],
        };
        assert!(loose_eq(&r1, &r2));
    }

    #[test]
    fn relation_matches_scalar_and_collection() {
        let rel = dbms::Relation {
            fields: vec![Field::new("s")],
            rows: vec![vec![Value::Int(7)]],
        };
        assert!(relation_matches(&rel, &RtValue::int(7)));
        assert!(!relation_matches(&rel, &RtValue::int(8)));
        assert!(relation_matches(
            &rel,
            &RtValue::List(vec![RtValue::int(7)])
        ));
        let empty = dbms::Relation {
            fields: vec![Field::new("s")],
            rows: vec![],
        };
        assert!(!relation_matches(&empty, &RtValue::int(0)));
        assert!(relation_matches(&empty, &RtValue::List(vec![])));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            RtValue::List(vec![RtValue::int(1), RtValue::int(2)]).to_string(),
            "[1, 2]"
        );
        assert_eq!(RtValue::null().to_string(), "NULL");
    }
}
