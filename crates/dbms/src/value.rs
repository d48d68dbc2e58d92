//! Runtime values with SQL semantics.

use std::cmp::Ordering;
use std::fmt;

use algebra::scalar::Lit;

/// A runtime SQL value.
#[derive(Debug, PartialEq)]
pub enum Value {
    /// SQL `NULL`.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// String.
    Str(String),
}

impl Clone for Value {
    fn clone(&self) -> Value {
        match self {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(*b),
            Value::Int(i) => Value::Int(*i),
            Value::Float(f) => Value::Float(*f),
            Value::Str(s) => Value::Str(s.clone()),
        }
    }

    /// Reuses this value's string buffer when both sides are strings, so
    /// copying a row into a reused row buffer allocates nothing per text
    /// column once the buffer is warm.
    fn clone_from(&mut self, source: &Value) {
        match (self, source) {
            (Value::Str(dst), Value::Str(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl Value {
    /// Construct from an algebra literal.
    pub fn from_lit(l: &Lit) -> Value {
        match l {
            Lit::Null => Value::Null,
            Lit::Bool(b) => Value::Bool(*b),
            Lit::Int(i) => Value::Int(*i),
            Lit::F64(v) => Value::Float(v.get()),
            Lit::Str(s) => Value::Str(s.clone()),
        }
    }

    /// Convert back into a literal (used by the batching baseline to build
    /// parameter tables).
    pub fn to_lit(&self) -> Lit {
        match self {
            Value::Null => Lit::Null,
            Value::Bool(b) => Lit::Bool(*b),
            Value::Int(i) => Lit::Int(*i),
            Value::Float(v) => Lit::float(*v),
            Value::Str(s) => Lit::Str(s.clone()),
        }
    }

    /// True when this value is SQL `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL truthiness: `NULL` is not true.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Numeric view (`Int`/`Float`/`Bool` as 0/1), `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// SQL three-valued comparison. `NULL` compared with anything is `None`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Total order for sorting: `NULL` first, then by type class, then by
    /// value (mirrors common `NULLS FIRST` behaviour deterministically).
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        fn class(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => match class(self).cmp(&class(other)) {
                Ordering::Equal => self.sql_cmp(other).unwrap_or(Ordering::Equal),
                c => c,
            },
        }
    }

    /// Value equality for grouping/`DISTINCT`: `NULL` groups with `NULL`
    /// (per SQL `GROUP BY` semantics).
    pub fn group_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Null, _) | (_, Value::Null) => false,
            (a, b) => a.sql_cmp(b) == Some(Ordering::Equal),
        }
    }

    /// A stable key string for hashing groups.
    pub fn group_key(&self) -> String {
        match self {
            Value::Null => "N".to_string(),
            Value::Bool(b) => format!("B{b}"),
            Value::Int(i) => format!("F{:?}", *i as f64),
            Value::Float(v) => format!("F{v:?}"),
            Value::Str(s) => format!("S{s}"),
        }
    }

    /// Approximate wire size in bytes, for data-transfer accounting.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => 4 + s.len(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn group_eq_nulls_group_together() {
        assert!(Value::Null.group_eq(&Value::Null));
        assert!(!Value::Null.group_eq(&Value::Int(0)));
        assert!(Value::Int(3).group_eq(&Value::Float(3.0)));
    }

    #[test]
    fn group_key_consistent_with_group_eq() {
        assert_eq!(Value::Int(3).group_key(), Value::Float(3.0).group_key());
        assert_ne!(Value::Null.group_key(), Value::Int(0).group_key());
    }

    #[test]
    fn sort_puts_nulls_first() {
        let mut v = vec![Value::Int(2), Value::Null, Value::Int(1)];
        v.sort_by(|a, b| a.sort_cmp(b));
        assert_eq!(v, vec![Value::Null, Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn wire_size_accounts_strings() {
        assert_eq!(Value::Str("abc".into()).wire_size(), 7);
        assert_eq!(Value::Int(5).wire_size(), 8);
    }

    #[test]
    fn lit_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(7),
            Value::Float(1.5),
            "x".into(),
        ] {
            assert_eq!(Value::from_lit(&v.to_lit()), v);
        }
    }
}
