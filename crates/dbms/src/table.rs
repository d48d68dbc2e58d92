//! Tables, rows, relations, and the database.
//!
//! A [`Table`] is backed either by in-memory rows (the default) or by a
//! page file through `crates/storage` ([`crate::paged`]). Both backings
//! present the same observable contract — insertion-order scans,
//! identical rows — so the executor treats them interchangeably; the
//! paged backing additionally keeps memory bounded by the buffer pool's
//! frame budget and collects per-column statistics.
//!
//! In-memory rows sit in stable slots, so a keyed point statement can
//! find its rows through a [`KeyIndex`] on the declared single-column
//! primary key and touch only them ([`Table::key_slots`],
//! [`Table::update_slot`], [`Table::delete_slots`]). A point delete
//! leaves a hole that scans, [`Table::len`] and equality skip; holes are
//! compacted away, in order, once they outnumber live rows, and whenever
//! the set-oriented [`Table::mutate_rows`] runs. Scan order is therefore
//! insertion order on either path.

use std::collections::BTreeMap;

use algebra::schema::{Catalog, TableSchema};
use storage::{Store, TableStatistics};

use crate::key::{key_hash, KeyIndex};
use crate::paged::PagedTable;
use crate::value::Value;

/// A row: values in schema column order.
pub type Row = Vec<Value>;

/// How a table's rows are stored.
#[derive(Debug, Clone)]
enum Backing {
    /// Rows held directly in memory, in insertion order.
    Mem(MemRows),
    /// Rows encoded into B-tree pages in a shared [`Store`].
    Paged(PagedTable),
}

/// In-memory rows in stable slots, in insertion order.
#[derive(Debug, Clone, Default)]
struct MemRows {
    /// Rows by slot; a hole holds an empty row.
    rows: Vec<Row>,
    /// `dead[s]`: slot `s` is a hole. Empty while there are no holes.
    dead: Vec<bool>,
    /// Number of holes.
    holes: usize,
    /// The primary-key index over `rows`, once a point statement built it.
    index: Option<KeyIndex>,
}

impl MemRows {
    fn push(&mut self, row: Row) {
        if let Some(index) = &mut self.index {
            index.push(&row[index.col()]);
        }
        if !self.dead.is_empty() {
            self.dead.push(false);
        }
        self.rows.push(row);
    }

    fn scan(&self) -> MemScan<'_> {
        MemScan {
            rows: self.rows.iter(),
            dead: self.dead.iter(),
        }
    }

    /// Leave a hole in each of `slots` (live, distinct); compact once the
    /// holes outnumber the live rows.
    fn delete(&mut self, slots: &[usize]) {
        if self.dead.is_empty() {
            self.dead = vec![false; self.rows.len()];
        }
        for &s in slots {
            debug_assert!(!self.dead[s], "slot {s} deleted twice");
            let row = std::mem::take(&mut self.rows[s]);
            if let Some(index) = &mut self.index {
                index.remove(s, &row[index.col()]);
            }
            self.dead[s] = true;
            self.holes += 1;
        }
        if self.holes > self.rows.len() - self.holes {
            self.compact();
        }
    }

    /// Drop the holes, keeping the live rows in order. Slots renumber, so
    /// the index goes too (the next point statement rebuilds it).
    fn compact(&mut self) {
        if self.holes == 0 {
            return;
        }
        let mut dead = std::mem::take(&mut self.dead).into_iter();
        self.rows.retain(|_| !dead.next().unwrap_or(false));
        self.holes = 0;
        self.index = None;
    }
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
            backing: Backing::Mem(MemRows::default()),
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
            Backing::Mem(m) => m.push(row),
            Backing::Paged(t) => t.insert(&row),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Mem(m) => m.rows.len() - m.holes,
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
            Backing::Mem(m) => TableScan::Mem(m.scan()),
            Backing::Paged(t) => TableScan::Paged(t.scan()),
        }
    }

    /// [`Table::scan`] decoding only the columns `keep` marks: on a paged
    /// table the others read as NULL and their bytes are skipped.
    /// In-memory rows are cloned whole.
    pub fn scan_columns(&self, keep: Vec<bool>) -> TableScan<'_> {
        match &self.backing {
            Backing::Mem(m) => TableScan::Mem(m.scan()),
            Backing::Paged(t) => TableScan::Paged(t.scan_columns(keep)),
        }
    }

    /// All rows, materialized.
    pub fn rows_vec(&self) -> Vec<Row> {
        let mut rows = Vec::with_capacity(self.len());
        rows.extend(self.scan());
        rows
    }

    /// Mutate the table's rows through a closure over a `Vec<Row>`.
    ///
    /// In-memory tables compact their holes, drop their key index and
    /// mutate in place. Paged tables materialize their rows, run the
    /// closure, then rewrite the table (truncate + re-append), so survivor
    /// order — and therefore scan order — matches the in-memory backing
    /// exactly. This is the set-oriented mutation path for UPDATE/DELETE
    /// in `interp::dml`; keyed point statements use [`Table::key_slots`].
    pub fn mutate_rows<R>(&mut self, f: impl FnOnce(&mut Vec<Row>) -> R) -> R {
        match &mut self.backing {
            Backing::Mem(m) => {
                m.compact();
                m.index = None;
                f(&mut m.rows)
            }
            Backing::Paged(t) => {
                let mut rows: Vec<Row> = t.scan().collect();
                let out = f(&mut rows);
                t.rewrite(&rows);
                out
            }
        }
    }

    /// The slots of the rows whose column `col` is [`sql_eq`] to `key`, in
    /// scan order, found through the table's key index, which the first
    /// call builds. `None` when the index cannot answer: `col` is not the
    /// declared single-column primary key, or the table is paged.
    ///
    /// [`sql_eq`]: crate::key::sql_eq
    pub fn key_slots(&mut self, col: usize, key: &Value) -> Option<Vec<usize>> {
        let Backing::Mem(m) = &mut self.backing else {
            return None;
        };
        match self.schema.key.as_slice() {
            [k] if self.schema.column_index(k) == Some(col) => {}
            _ => return None,
        }
        if m.index.as_ref().is_none_or(|index| index.col() != col) {
            m.compact();
            m.index = Some(KeyIndex::build(&m.rows, col));
        }
        let index = m.index.as_ref().expect("index built above");
        let mut slots: Vec<usize> = index.matches(&m.rows, key).collect();
        slots.reverse();
        Some(slots)
    }

    /// The row in `slot`, a slot [`Table::key_slots`] returned.
    pub fn slot(&self, slot: usize) -> &[Value] {
        match &self.backing {
            Backing::Mem(m) => &m.rows[slot],
            Backing::Paged(_) => panic!("a paged table has no slots"),
        }
    }

    /// Rewrite the row in `slot` with `f`, moving it in the key index when
    /// its key changes.
    pub fn update_slot(&mut self, slot: usize, f: impl FnOnce(&mut Row)) {
        let Backing::Mem(m) = &mut self.backing else {
            panic!("a paged table has no slots")
        };
        let row = &mut m.rows[slot];
        match &mut m.index {
            Some(index) => {
                let old = key_hash(&row[index.col()]);
                f(row);
                index.rekey(slot, old, key_hash(&row[index.col()]));
            }
            None => f(row),
        }
    }

    /// Delete the rows in `slots` (distinct slots [`Table::key_slots`]
    /// returned), leaving holes.
    pub fn delete_slots(&mut self, slots: &[usize]) {
        let Backing::Mem(m) = &mut self.backing else {
            panic!("a paged table has no slots")
        };
        if !slots.is_empty() {
            m.delete(slots);
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
    Mem(MemScan<'a>),
    /// Decoding scan over B-tree leaves.
    Paged(crate::paged::PagedScan),
}

impl TableScan<'_> {
    /// Write the next row into `row`, reusing its allocations (a paged row
    /// decodes into it, an in-memory row is copied with `clone_from`);
    /// `false` at the end of the table.
    pub fn next_into(&mut self, row: &mut Row) -> bool {
        match self {
            TableScan::Mem(it) => it.next_live().map(|r| row.clone_from(r)).is_some(),
            TableScan::Paged(it) => it.next_into(row),
        }
    }
}

impl Iterator for TableScan<'_> {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        match self {
            TableScan::Mem(it) => it.next_live().cloned(),
            TableScan::Paged(it) => it.next(),
        }
    }
}

/// The live rows of an in-memory table, by reference, skipping holes.
pub struct MemScan<'a> {
    rows: std::slice::Iter<'a, Row>,
    dead: std::slice::Iter<'a, bool>,
}

impl<'a> MemScan<'a> {
    fn next_live(&mut self) -> Option<&'a Row> {
        loop {
            let row = self.rows.next()?;
            if self.dead.next() != Some(&true) {
                return Some(row);
            }
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

    /// The holes of an in-memory table.
    fn holes(t: &Table) -> usize {
        match &t.backing {
            Backing::Mem(m) => m.holes,
            Backing::Paged(_) => 0,
        }
    }

    #[test]
    fn point_operations_agree_with_a_linear_scan() {
        use crate::key::sql_eq;
        use crate::prng::StdRng;
        let pool = [
            Value::Null,
            Value::Int(1),
            Value::Int(2),
            Value::Int(3),
            Value::Float(3.0),
            Value::Bool(true),
            Value::Float(f64::NAN),
            Value::Str("3".into()),
        ];
        let schema =
            TableSchema::new("t", &[("k", SqlType::Int), ("v", SqlType::Int)]).with_key(&["k"]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut compactions = 0;
        for case in 0..40 {
            let mut t = Table::new(schema.clone());
            // The reference: the same rows in a plain vector, matched by scan.
            let mut model: Vec<Row> = Vec::new();
            let mut id = 0;
            for step in 0..120 {
                let key = pool[rng.gen_range(0..pool.len())].clone();
                let taken: Vec<usize> = (0..model.len())
                    .filter(|&i| sql_eq(&model[i][0], &key))
                    .collect();
                match rng.gen_range(0..10) {
                    0..=3 => {
                        id += 1;
                        model.push(vec![key.clone(), Value::Int(id)]);
                        t.insert(vec![key, Value::Int(id)]);
                    }
                    4..=6 => {
                        let slots = t.key_slots(0, &key).unwrap();
                        let before = holes(&t);
                        t.delete_slots(&slots);
                        if holes(&t) < before + slots.len() {
                            compactions += 1;
                        }
                        for i in taken.into_iter().rev() {
                            model.remove(i);
                        }
                    }
                    7 | 8 => {
                        let new = pool[rng.gen_range(0..pool.len())].clone();
                        for s in t.key_slots(0, &key).unwrap() {
                            t.update_slot(s, |row| row[0] = new.clone());
                        }
                        for i in taken {
                            model[i][0] = new.clone();
                        }
                    }
                    _ => {
                        // Set-oriented: drop every third row.
                        let keep = |r: &Row| !matches!(r[1], Value::Int(i) if i % 3 == 0);
                        t.mutate_rows(|rows| rows.retain(keep));
                        model.retain(keep);
                        t = t.clone();
                    }
                }
                // Debug text compares NaN keys equal to themselves.
                let what = format!("case {case} step {step}");
                assert_eq!(
                    format!("{:?}", t.rows_vec()),
                    format!("{model:?}"),
                    "{what}"
                );
                assert_eq!(t.len(), model.len(), "{what}");
                for key in &pool {
                    let got: Vec<Row> = t
                        .key_slots(0, key)
                        .unwrap()
                        .into_iter()
                        .map(|s| t.slot(s).to_vec())
                        .collect();
                    let want: Vec<&Row> = model.iter().filter(|r| sql_eq(&r[0], key)).collect();
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}: {key:?}");
                }
            }
        }
        assert!(
            compactions > 0,
            "no point delete crossed the compaction threshold"
        );
    }

    #[test]
    fn key_slots_need_a_single_column_key_in_memory() {
        let cols = [("a", SqlType::Int), ("b", SqlType::Int)];
        let one = Value::Int(1);
        let mut t = Table::new(TableSchema::new("t", &cols));
        assert_eq!(t.key_slots(0, &one), None, "no key");
        let mut t2 = Table::new(TableSchema::new("t", &cols).with_key(&["a", "b"]));
        assert_eq!(t2.key_slots(0, &one), None, "two-column key");
        let mut t3 = Table::new(TableSchema::new("t", &cols).with_key(&["b"]));
        assert_eq!(t3.key_slots(0, &one), None, "not the key column");
        assert_eq!(t3.key_slots(1, &one), Some(vec![]));
        let mut paged =
            Database::paged_in_memory(4).with_table(TableSchema::new("t", &cols).with_key(&["a"]));
        paged.insert("t", vec![one.clone(), one.clone()]);
        assert_eq!(
            paged.table_mut("t").unwrap().key_slots(0, &one),
            None,
            "paged"
        );
    }

    #[test]
    fn catalog_reflects_tables() {
        let c = db().catalog();
        assert!(c.get("t").is_some());
        assert_eq!(c.get("t").unwrap().columns.len(), 2);
    }
}
