//! Table schemas and catalogs.
//!
//! The extractor needs schema information for two things: knowing the column
//! list of `SELECT *` queries, and Rule T4/T5.2's "provided Q1 has a unique
//! key" precondition (paper Sec. 5.1).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// SQL column types supported by the in-memory engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    /// 64-bit integer.
    Int,
    /// Double-precision float.
    Double,
    /// Boolean.
    Bool,
    /// Variable-length string.
    Text,
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SqlType::Int => "INT",
            SqlType::Double => "DOUBLE",
            SqlType::Bool => "BOOLEAN",
            SqlType::Text => "TEXT",
        };
        write!(f, "{s}")
    }
}

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (case-sensitive, stored lower-case by convention).
    pub name: String,
    /// Column type.
    pub ty: SqlType,
    /// Whether the column may hold SQL `NULL`. Defaults to `false`: the
    /// extractor's NULL-aware rule variants (e.g. the guarded `SUM`
    /// translation) only engage for columns declared `NULL` in the DDL, so
    /// schemas that never mention nullability keep the plain translations.
    pub nullable: bool,
}

/// Schema of one base table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Primary-key column names, empty when the table has no declared key.
    ///
    /// Rules T4.1 and T5.2 require the outer query to have a unique key.
    pub key: Vec<String>,
}

impl TableSchema {
    /// Create a schema from `(name, type)` pairs with no key.
    pub fn new(name: impl Into<String>, cols: &[(&str, SqlType)]) -> Self {
        TableSchema {
            name: name.into(),
            columns: cols
                .iter()
                .map(|(n, t)| ColumnDef {
                    name: (*n).to_string(),
                    ty: *t,
                    nullable: false,
                })
                .collect(),
            key: Vec::new(),
        }
    }

    /// Builder-style: declare the primary key columns.
    pub fn with_key(mut self, key: &[&str]) -> Self {
        self.key = key.iter().map(|k| (*k).to_string()).collect();
        self
    }

    /// Builder-style: mark the named columns as nullable.
    pub fn with_nullable(mut self, cols: &[&str]) -> Self {
        for c in &mut self.columns {
            if cols.contains(&c.name.as_str()) {
                c.nullable = true;
            }
        }
        self
    }

    /// Whether `name` is a nullable column (`false` for unknown columns).
    pub fn column_nullable(&self, name: &str) -> bool {
        self.columns.iter().any(|c| c.name == name && c.nullable)
    }

    /// Position of a column by name, if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// All column names in order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// True when the table declares a (non-empty) primary key.
    pub fn has_key(&self) -> bool {
        !self.key.is_empty()
    }
}

/// A collection of table schemas, looked up by name.
///
/// The tables sit behind an [`Arc`], so cloning a catalog (every
/// extractor and lint pass takes one by value) bumps a reference count;
/// [`Catalog::add`] copies the tables first only while they are shared.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Catalog {
    tables: Arc<BTreeMap<String, TableSchema>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Add (or replace) a table schema.
    pub fn add(&mut self, schema: TableSchema) {
        Arc::make_mut(&mut self.tables).insert(schema.name.clone(), schema);
    }

    /// Builder-style `add`.
    pub fn with(mut self, schema: TableSchema) -> Self {
        self.add(schema);
        self
    }

    /// Look up a table schema by name.
    pub fn get(&self, name: &str) -> Option<&TableSchema> {
        self.tables.get(name)
    }

    /// Iterate over all table schemas in name order.
    pub fn tables(&self) -> impl Iterator<Item = &TableSchema> {
        self.tables.values()
    }

    /// Number of tables in the catalog.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the catalog holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board() -> TableSchema {
        TableSchema::new(
            "board",
            &[
                ("id", SqlType::Int),
                ("rnd_id", SqlType::Int),
                ("p1", SqlType::Int),
                ("p2", SqlType::Int),
            ],
        )
        .with_key(&["id"])
    }

    #[test]
    fn column_index_finds_columns() {
        let s = board();
        assert_eq!(s.column_index("rnd_id"), Some(1));
        assert_eq!(s.column_index("nope"), None);
    }

    #[test]
    fn key_declared() {
        assert!(board().has_key());
        assert!(!TableSchema::new("t", &[("x", SqlType::Int)]).has_key());
    }

    #[test]
    fn catalog_lookup() {
        let c = Catalog::new().with(board());
        assert!(c.get("board").is_some());
        assert!(c.get("boards").is_none());
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn catalog_replaces_same_name() {
        let mut c = Catalog::new();
        c.add(TableSchema::new("t", &[("a", SqlType::Int)]));
        c.add(TableSchema::new(
            "t",
            &[("a", SqlType::Int), ("b", SqlType::Text)],
        ));
        assert_eq!(c.get("t").unwrap().columns.len(), 2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn catalog_clone_shares_until_written() {
        let c = Catalog::new().with(board());
        let mut copy = c.clone();
        assert!(std::ptr::eq(
            c.get("board").unwrap(),
            copy.get("board").unwrap()
        ));
        assert_eq!(format!("{c:?}"), format!("{copy:?}"));
        copy.add(TableSchema::new("t", &[("a", SqlType::Int)]));
        assert_eq!((c.len(), copy.len()), (1, 2), "the original is untouched");
        assert!(format!("{c:?}").starts_with("Catalog { tables: {\"board\": TableSchema"));
    }
}
