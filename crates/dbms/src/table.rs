//! Tables, rows, relations, and the database.
//!
//! A [`Table`] is backed either by an in-memory `Vec<Row>` (the default)
//! or by a page file through `crates/storage` ([`crate::paged`]). Both
//! backings present the same observable contract — insertion-order scans,
//! identical rows — so the executor treats them interchangeably; the
//! paged backing additionally keeps memory bounded by the buffer pool's
//! frame budget and collects per-column statistics.

use std::collections::BTreeMap;

use algebra::schema::{Catalog, TableSchema};
use storage::{Store, TableStatistics};

use crate::paged::PagedTable;
use crate::value::Value;

/// A row: values in schema column order.
pub type Row = Vec<Value>;

/// How a table's rows are stored.
#[derive(Debug, Clone)]
enum Backing {
    /// Rows held directly in memory, in insertion order.
    Mem(Vec<Row>),
    /// Rows encoded into B-tree pages in a shared [`Store`].
    Paged(PagedTable),
}

/// A base table: schema plus rows (in-memory or paged).
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    backing: Backing,
}

impl PartialEq for Table {
    /// Content equality: same schema, same rows in the same order,
    /// regardless of backing.
    fn eq(&self, other: &Table) -> bool {
        self.schema == other.schema && self.len() == other.len() && self.scan().eq(other.scan())
    }
}

impl Table {
    /// Create an empty in-memory table.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            backing: Backing::Mem(Vec::new()),
        }
    }

    /// Create an empty paged table in `store`.
    pub fn new_paged(schema: TableSchema, store: Store) -> Table {
        let paged = PagedTable::create(store, &schema.name, schema.columns.len());
        Table {
            schema,
            backing: Backing::Paged(paged),
        }
    }

    /// Append a row; panics in debug builds when the arity mismatches.
    pub fn insert(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.schema.columns.len(), "row arity mismatch");
        match &mut self.backing {
            Backing::Mem(rows) => rows.push(row),
            Backing::Paged(t) => t.insert(&row),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Mem(rows) => rows.len(),
            Backing::Paged(t) => t.len(),
        }
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate rows in insertion order (owned; in-memory rows are cloned,
    /// paged rows are decoded one leaf page at a time).
    pub fn scan(&self) -> TableScan<'_> {
        match &self.backing {
            Backing::Mem(rows) => TableScan::Mem(rows.iter()),
            Backing::Paged(t) => TableScan::Paged(t.scan()),
        }
    }

    /// [`Table::scan`] decoding only the columns `keep` marks: on a paged
    /// table the others read as NULL and their bytes are skipped.
    /// In-memory rows are cloned whole.
    pub fn scan_columns(&self, keep: Vec<bool>) -> TableScan<'_> {
        match &self.backing {
            Backing::Mem(rows) => TableScan::Mem(rows.iter()),
            Backing::Paged(t) => TableScan::Paged(t.scan_columns(keep)),
        }
    }

    /// All rows, materialized.
    pub fn rows_vec(&self) -> Vec<Row> {
        match &self.backing {
            Backing::Mem(rows) => rows.clone(),
            Backing::Paged(t) => t.scan().collect(),
        }
    }

    /// Mutate the table's rows through a closure over a `Vec<Row>`.
    ///
    /// In-memory tables mutate in place. Paged tables materialize their
    /// rows, run the closure, then rewrite the table (truncate +
    /// re-append), so survivor order — and therefore scan order — matches
    /// the in-memory backing exactly. This is the uniform mutation path
    /// for UPDATE/DELETE in `interp::dml`.
    pub fn mutate_rows<R>(&mut self, f: impl FnOnce(&mut Vec<Row>) -> R) -> R {
        match &mut self.backing {
            Backing::Mem(rows) => f(rows),
            Backing::Paged(t) => {
                let mut rows: Vec<Row> = t.scan().collect();
                let out = f(&mut rows);
                t.rewrite(&rows);
                out
            }
        }
    }

    /// Rebind a paged table onto `store` (which must already hold the
    /// table); in-memory tables are cloned as-is. Used by
    /// [`Database::fork`].
    fn rebind_store(&self, store: &Store) -> Table {
        match &self.backing {
            Backing::Mem(_) => self.clone(),
            Backing::Paged(t) => Table {
                schema: self.schema.clone(),
                backing: Backing::Paged(PagedTable::attach(store.clone(), t.name())),
            },
        }
    }

    /// Statistics collected by the paged backing; `None` for in-memory
    /// tables (whose stats, if needed, are computed by scanning).
    pub fn statistics(&self) -> Option<TableStatistics> {
        match &self.backing {
            Backing::Mem(_) => None,
            Backing::Paged(t) => Some(t.statistics()),
        }
    }
}

/// Iterator over a table's rows in insertion order.
pub enum TableScan<'a> {
    /// Cloning iterator over in-memory rows.
    Mem(std::slice::Iter<'a, Row>),
    /// Decoding scan over B-tree leaves.
    Paged(crate::paged::PagedScan),
}

impl Iterator for TableScan<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        match self {
            TableScan::Mem(it) => it.next().cloned(),
            TableScan::Paged(it) => it.next(),
        }
    }
}

/// A column of a query result: its output name and optional qualifier.
///
/// Qualifiers let predicates above a join refer to `u.role_id` vs `r.id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Relation alias the column is visible under, when any.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
}

impl Field {
    /// An unqualified field.
    pub fn new(name: impl Into<String>) -> Field {
        Field {
            qualifier: None,
            name: name.into(),
        }
    }

    /// A qualified field.
    pub fn qualified(q: impl Into<String>, name: impl Into<String>) -> Field {
        Field {
            qualifier: Some(q.into()),
            name: name.into(),
        }
    }

    /// Does this field answer to `qualifier`/`column`?
    pub fn matches(&self, qualifier: Option<&str>, column: &str) -> bool {
        if self.name != column {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self.qualifier.as_deref() == Some(q),
        }
    }
}

/// An intermediate or final query result: fields plus rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    /// Output columns.
    pub fields: Vec<Field>,
    /// Result rows, ordered.
    pub rows: Vec<Row>,
}

impl Relation {
    /// Output column names (unqualified).
    pub fn column_names(&self) -> Vec<String> {
        self.fields.iter().map(|f| f.name.clone()).collect()
    }

    /// Index of the column matching `qualifier`/`name`, preferring an exact
    /// qualified match. `Err` messages name the ambiguity/missing column.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize, String> {
        resolve_fields(&self.fields, qualifier, name)
    }

    /// Total wire size of all rows, for transfer accounting.
    pub fn wire_size(&self) -> usize {
        const PER_ROW_OVERHEAD: usize = 8;
        self.rows
            .iter()
            .map(|r| PER_ROW_OVERHEAD + r.iter().map(Value::wire_size).sum::<usize>())
            .sum()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Resolve a column against a field list without constructing a relation
/// (the evaluator's hot path). Ambiguous unqualified names bind leftmost.
pub fn resolve_fields(
    fields: &[Field],
    qualifier: Option<&str>,
    name: &str,
) -> Result<usize, String> {
    let mut found = None;
    for (i, f) in fields.iter().enumerate() {
        if f.matches(qualifier, name) {
            found = Some(i);
            break;
        }
    }
    found.ok_or_else(|| match qualifier {
        Some(q) => format!("unknown column {q}.{name}"),
        None => format!("unknown column {name}"),
    })
}

/// The database: a set of named tables, optionally backed by a paged
/// [`Store`].
///
/// When a store is attached ([`Database::new_paged`]), `create_table`
/// places tables in it; otherwise tables are in-memory vectors. Cloning a
/// paged database clones cheap store *handles* — the clones share one
/// underlying page file, fine for read-only use. Copies that will be
/// *mutated* independently (the differential harness runs DML against
/// both sides) use [`Database::fork`], which deep-snapshots the page
/// image.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    store: Option<Store>,
}

impl PartialEq for Database {
    /// Content equality over tables; the store handle is an
    /// implementation detail.
    fn eq(&self, other: &Database) -> bool {
        self.tables == other.tables
    }
}

impl Database {
    /// An empty in-memory database.
    pub fn new() -> Database {
        Database::default()
    }

    /// An empty database whose tables will live in `store`.
    pub fn new_paged(store: Store) -> Database {
        Database {
            tables: BTreeMap::new(),
            store: Some(store),
        }
    }

    /// A paged database over a fresh memory-backed store with the given
    /// buffer-pool frame budget (pages and B-trees without a file; used by
    /// the fuzzer's `--store` mode and tests).
    pub fn paged_in_memory(frames: usize) -> Database {
        Database::new_paged(Store::in_memory(frames))
    }

    /// The attached store, when this database is paged.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Flush the attached store (dirty pages + meta) to its backing file.
    pub fn flush(&self) -> Result<(), storage::StorageError> {
        match &self.store {
            Some(s) => s.flush(),
            None => Ok(()),
        }
    }

    /// Create (or replace) a table — paged when a store is attached.
    pub fn create_table(&mut self, schema: TableSchema) {
        let table = match &self.store {
            Some(store) => Table::new_paged(schema.clone(), store.clone()),
            None => Table::new(schema.clone()),
        };
        self.tables.insert(schema.name.clone(), table);
    }

    /// Builder-style `create_table`.
    pub fn with_table(mut self, schema: TableSchema) -> Database {
        self.create_table(schema);
        self
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Look up a table mutably.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name)
    }

    /// Insert a row into a named table. Returns `false` when the table does
    /// not exist.
    pub fn insert(&mut self, table: &str, row: Row) -> bool {
        match self.tables.get_mut(table) {
            Some(t) => {
                t.insert(row);
                true
            }
            None => false,
        }
    }

    /// A deep, independent copy of this database.
    ///
    /// In-memory tables are copied by value (what `Clone` already does).
    /// A paged database forks its store — a full page-image deep snapshot
    /// — and rebinds every paged table to the fork, so mutations against
    /// the copy never alias the original's pager. `Clone` on a paged
    /// database still shares store handles (cheap, read-only use);
    /// differential runs that mutate state go through `fork`.
    pub fn fork(&self) -> Database {
        let Some(store) = &self.store else {
            return self.clone();
        };
        let forked = store.fork().expect("fork paged store");
        let tables = self
            .tables
            .iter()
            .map(|(name, t)| (name.clone(), t.rebind_store(&forked)))
            .collect();
        Database {
            tables,
            store: Some(forked),
        }
    }

    /// The catalog of all table schemas.
    pub fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for t in self.tables.values() {
            c.add(t.schema.clone());
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algebra::schema::SqlType;

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(TableSchema::new(
            "t",
            &[("a", SqlType::Int), ("b", SqlType::Text)],
        ));
        d.insert("t", vec![Value::Int(1), "x".into()]);
        d
    }

    #[test]
    fn insert_and_len() {
        let d = db();
        assert_eq!(d.table("t").unwrap().len(), 1);
        assert!(d.table("missing").is_none());
    }

    #[test]
    fn insert_into_missing_table_fails() {
        let mut d = db();
        assert!(!d.insert("nope", vec![]));
    }

    #[test]
    fn resolve_prefers_qualified() {
        let r = Relation {
            fields: vec![Field::qualified("u", "id"), Field::qualified("r", "id")],
            rows: vec![],
        };
        assert_eq!(r.resolve(Some("r"), "id").unwrap(), 1);
        assert_eq!(r.resolve(Some("u"), "id").unwrap(), 0);
        // Unqualified ambiguous: leftmost wins.
        assert_eq!(r.resolve(None, "id").unwrap(), 0);
        assert!(r.resolve(None, "zzz").is_err());
    }

    #[test]
    fn wire_size_counts_rows() {
        let r = Relation {
            fields: vec![Field::new("a")],
            rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        };
        assert_eq!(r.wire_size(), 2 * (8 + 8));
    }

    #[test]
    fn paged_fork_is_independent() {
        let mut d = Database::paged_in_memory(4);
        d.create_table(TableSchema::new(
            "t",
            &[("a", SqlType::Int), ("b", SqlType::Text)],
        ));
        for i in 0..50 {
            d.insert("t", vec![Value::Int(i), "x".into()]);
        }
        let f = d.fork();
        assert!(!d.store().unwrap().same_store(f.store().unwrap()));
        assert_eq!(f.table("t").unwrap().len(), 50);
        // A shared-handle clone aliases; the fork does not.
        let mut f = f;
        f.insert("t", vec![Value::Int(99), "fork".into()]);
        assert_eq!(f.table("t").unwrap().len(), 51);
        assert_eq!(d.table("t").unwrap().len(), 50);
        // Mutating the fork's rows leaves the original untouched.
        f.table_mut("t").unwrap().mutate_rows(|rows| rows.clear());
        assert_eq!(f.table("t").unwrap().len(), 0);
        assert_eq!(d.table("t").unwrap().len(), 50);
    }

    #[test]
    fn mutate_rows_matches_across_backings() {
        let schema = TableSchema::new("t", &[("a", SqlType::Int)]);
        let mut mem = Database::new().with_table(schema.clone());
        let mut paged = Database::paged_in_memory(4).with_table(schema);
        for i in 0..20 {
            mem.insert("t", vec![Value::Int(i)]);
            paged.insert("t", vec![Value::Int(i)]);
        }
        // Same closure on both backings: delete odds, bump evens.
        let edit = |rows: &mut Vec<Row>| {
            rows.retain(|r| matches!(r[0], Value::Int(i) if i % 2 == 0));
            for r in rows.iter_mut() {
                if let Value::Int(i) = r[0] {
                    r[0] = Value::Int(i + 100);
                }
            }
            rows.len()
        };
        let n_mem = mem.table_mut("t").unwrap().mutate_rows(edit);
        let n_paged = paged.table_mut("t").unwrap().mutate_rows(edit);
        assert_eq!(n_mem, 10);
        assert_eq!(n_paged, 10);
        assert_eq!(mem.table("t").unwrap(), paged.table("t").unwrap());
        // The paged rewrite rebuilt statistics from the surviving rows.
        let stats = paged.table("t").unwrap().statistics().unwrap();
        assert_eq!(stats.rows, 10);
    }

    #[test]
    fn catalog_reflects_tables() {
        let c = db().catalog();
        assert!(c.get("t").is_some());
        assert_eq!(c.get("t").unwrap().columns.len(), 2);
    }
}
