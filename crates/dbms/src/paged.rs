//! Paged table backing: the `Value` ⇄ bytes codec and the [`PagedTable`]
//! handle that stores rows in a `storage::Store` B-tree.
//!
//! The storage crate is value-agnostic; this module owns the row codec
//! (one tag byte per value, little-endian payloads) and the per-column
//! value hashes fed to the store's statistics sketches. Rowids are
//! assigned monotonically by the store, so a B-tree scan returns rows in
//! insertion order — the same observable order as the in-memory
//! `Vec<Row>` backing, which keeps the two backends byte-identical under
//! the evaluator.

use storage::{fnv64, Store, TableStatistics};

use crate::table::Row;
use crate::value::Value;

/// Encode one row. Layout per value: tag byte, then payload —
/// `0` NULL (empty), `1` Bool (1 byte), `2` Int (8 bytes LE),
/// `3` Float (8 bytes LE bits), `4` Str (u32 LE length + UTF-8 bytes).
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 9);
    for v in row {
        match v {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(3);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
    out
}

/// Decode every column of a record produced by [`encode_row`].
pub fn decode_row(bytes: &[u8]) -> Row {
    decode_row_masked(bytes, &[])
}

/// Decode a record produced by [`encode_row`], materializing column `i`
/// only when `keep[i]` is true (columns past the end of `keep` are
/// decoded). A skipped column reads as NULL and its payload is stepped
/// over, never copied. Panics on malformed bytes — records only ever come
/// back from a checksummed page, so corruption is caught at the pager
/// layer first.
pub fn decode_row_masked(bytes: &[u8], keep: &[bool]) -> Row {
    let mut row = Vec::with_capacity(keep.len());
    decode_into(bytes, keep, &mut row);
    row
}

/// [`decode_row_masked`] into a reused buffer: `row` ends up holding
/// exactly that row, and a kept text column overwrites the `String`
/// already in its slot, so decoding into a warm buffer allocates only
/// when a string outgrows the buffer it lands in.
pub fn decode_into(mut bytes: &[u8], keep: &[bool], row: &mut Row) {
    // A buffer a caller has just taken a row out of is empty: size it once.
    row.reserve(keep.len().saturating_sub(row.len()));
    let mut col = 0;
    while let Some((&tag, rest)) = bytes.split_first() {
        let len = if tag == 2 || tag == 3 {
            8
        } else if tag == 4 {
            4 + u32::from_le_bytes(rest[..4].try_into().expect("4-byte length")) as usize
        } else if tag <= 1 {
            tag as usize
        } else {
            panic!("corrupt record: unknown value tag {tag}")
        };
        let (payload, tail) = rest.split_at(len);
        bytes = tail;
        if col == row.len() {
            row.push(Value::Null);
        }
        let slot = &mut row[col];
        let kept = keep.get(col) != Some(&false);
        col += 1;
        if !kept || tag == 0 {
            if !slot.is_null() {
                *slot = Value::Null;
            }
        } else if tag == 2 {
            *slot = Value::Int(i64::from_le_bytes(payload.try_into().expect("8 bytes")));
        } else if tag == 4 {
            let text = std::str::from_utf8(&payload[4..]).expect("UTF-8 string");
            match slot {
                Value::Str(s) => {
                    s.clear();
                    s.push_str(text);
                }
                _ => *slot = Value::Str(text.to_owned()),
            }
        } else if tag == 3 {
            *slot = Value::Float(f64::from_le_bytes(payload.try_into().expect("8 bytes")));
        } else {
            *slot = Value::Bool(payload[0] != 0);
        }
    }
    row.truncate(col);
}

/// Hash a value for the NDV sketch; `None` for SQL NULL. Hashes go through
/// [`Value::group_key`] so values that group together (`3` and `3.0`) count
/// as one distinct value, matching GROUP BY semantics.
pub fn value_hash(v: &Value) -> Option<u64> {
    if v.is_null() {
        None
    } else {
        Some(fnv64(v.group_key().as_bytes()))
    }
}

/// A table whose rows live in a [`Store`] B-tree.
///
/// Cloning shares the underlying store (an `Arc` handle): the fuzzer and
/// the benchmarks clone whole `Database` values and run both the original
/// and the extracted program against them read-only.
#[derive(Debug, Clone)]
pub struct PagedTable {
    store: Store,
    name: String,
}

impl PagedTable {
    /// Create (or reset) the table `name` in `store` with `ncols` columns.
    pub fn create(store: Store, name: &str, ncols: usize) -> PagedTable {
        store
            .create_table(name, ncols)
            .expect("create table in store");
        PagedTable {
            store,
            name: name.to_string(),
        }
    }

    /// Attach to a table that already exists in `store` — the rebind half
    /// of [`Store::fork`]: a forked store carries the directory entry and
    /// pages, so no create is needed (or wanted).
    pub fn attach(store: Store, name: &str) -> PagedTable {
        PagedTable {
            store,
            name: name.to_string(),
        }
    }

    /// The table's name in the store directory.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replace the table's contents with `rows` (truncate + re-append, in
    /// order). Statistics sketches are rebuilt from the new rows. This is
    /// the materialize-and-rewrite path behind UPDATE/DELETE on a paged
    /// table; the old tree's pages are leaked in the backing image.
    pub fn rewrite(&mut self, rows: &[Row]) {
        self.store
            .truncate_table(&self.name)
            .expect("truncate stored table");
        for row in rows {
            self.insert(row);
        }
    }

    /// Append a row, feeding the statistics sketches. Panics on storage
    /// errors (oversized record, I/O failure) — the engine's `insert` API
    /// is infallible and generated rows are far below the page size.
    pub fn insert(&mut self, row: &[Value]) {
        let record = encode_row(row);
        let hashes: Vec<Option<u64>> = row.iter().map(value_hash).collect();
        self.store
            .append(&self.name, &record, &hashes)
            .expect("append row to store");
    }

    /// Rows in the table.
    pub fn len(&self) -> usize {
        self.store.row_count(&self.name).unwrap_or(0) as usize
    }

    /// True when no rows have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An ordered scan (insertion order) decoding every column.
    pub fn scan(&self) -> PagedScan {
        let ncols = self
            .store
            .column_count(&self.name)
            .expect("scan stored table");
        self.scan_columns(vec![true; ncols])
    }

    /// An ordered scan decoding only the columns `keep` marks; the others
    /// read as NULL (see [`decode_row_masked`]).
    pub fn scan_columns(&self, keep: Vec<bool>) -> PagedScan {
        PagedScan {
            cursor: self.store.scan(&self.name).expect("scan stored table"),
            keep,
        }
    }

    /// Statistics snapshot from the store's sketches.
    pub fn statistics(&self) -> TableStatistics {
        self.store
            .statistics(&self.name)
            .expect("statistics for stored table")
    }

    /// The backing store handle.
    pub fn store(&self) -> &Store {
        &self.store
    }
}

/// Iterator over a paged table's rows in insertion order, decoding each
/// record straight out of the cursor's copy of its leaf page.
pub struct PagedScan {
    cursor: storage::ScanCursor,
    keep: Vec<bool>,
}

impl PagedScan {
    /// Decode the next row into `row` (see [`decode_into`]); `false` at
    /// the end of the table.
    pub fn next_into(&mut self, row: &mut Row) -> bool {
        match self.cursor.next_record() {
            Some(r) => {
                let (_rowid, record) = r.expect("scan stored table");
                decode_into(record, &self.keep, row);
                true
            }
            None => false,
        }
    }
}

impl Iterator for PagedScan {
    type Item = Row;

    fn next(&mut self) -> Option<Row> {
        let (_rowid, record) = self.cursor.next_record()?.expect("scan stored table");
        Some(decode_row_masked(record, &self.keep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_every_tag() {
        let row = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(1.5),
            Value::Str("héllo".into()),
            Value::Str(String::new()),
        ];
        assert_eq!(decode_row(&encode_row(&row)), row);
        assert_eq!(decode_row(&[]), Vec::<Value>::new());
    }

    #[test]
    fn masked_decode_skips_every_tag_and_stays_aligned() {
        let row = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(1.5),
            Value::Str("héllo".into()),
            Value::Str(String::new()),
            Value::Int(7),
        ];
        let bytes = encode_row(&row);
        // Skipping any one column leaves it NULL and every later column
        // decoded from the right offset.
        for skip in 0..row.len() {
            let keep: Vec<bool> = (0..row.len()).map(|i| i != skip).collect();
            let mut want = row.clone();
            want[skip] = Value::Null;
            assert_eq!(decode_row_masked(&bytes, &keep), want, "skip {skip}");
        }
        // Skipping everything but the last column steps over every tag.
        let mut keep = vec![false; row.len()];
        keep[row.len() - 1] = true;
        let mut want = vec![Value::Null; row.len()];
        want[row.len() - 1] = Value::Int(7);
        assert_eq!(decode_row_masked(&bytes, &keep), want);
        // Columns past the end of the mask are decoded.
        let mut want = row.clone();
        want[1] = Value::Null;
        assert_eq!(decode_row_masked(&bytes, &[true, false]), want);
        // One buffer reused across records of every width, tag and string
        // length, under every mask above, decodes what a fresh one does.
        let mut records = vec![row.clone(), Vec::new(), vec![Value::Str("x".into())]];
        for n in 0..row.len() {
            let mut r: Vec<Value> = row.iter().cycle().skip(n).take(n + 2).cloned().collect();
            r.push(Value::Str("w".repeat(n * 5)));
            records.push(r);
        }
        let masks: Vec<Vec<bool>> = (0..4)
            .map(|m| (0..row.len() + 2).map(|i| (i + m) % 3 != 0).collect())
            .chain([Vec::new()])
            .collect();
        let mut buf = Vec::new();
        for (i, record) in records.iter().enumerate() {
            for mask in &masks {
                let bytes = encode_row(record);
                decode_into(&bytes, mask, &mut buf);
                assert_eq!(buf, decode_row_masked(&bytes, mask), "record {i}");
            }
        }
    }

    #[test]
    fn value_hash_groups_numerics() {
        assert_eq!(value_hash(&Value::Int(3)), value_hash(&Value::Float(3.0)));
        assert_ne!(value_hash(&Value::Int(3)), value_hash(&Value::Int(4)));
        assert_eq!(value_hash(&Value::Null), None);
    }

    #[test]
    fn paged_table_round_trip() {
        let store = Store::in_memory(8);
        let mut t = PagedTable::create(store, "t", 2);
        for i in 0..300i64 {
            t.insert(&[Value::Int(i), Value::Str(format!("s{}", i % 3))]);
        }
        assert_eq!(t.len(), 300);
        let rows: Vec<Row> = t.scan().collect();
        assert_eq!(rows.len(), 300);
        assert_eq!(rows[0][0], Value::Int(0));
        assert_eq!(rows[299][1], Value::Str("s2".into()));
        let stats = t.statistics();
        assert_eq!(stats.rows, 300);
        assert_eq!(stats.columns[1].ndv, 3.0);
    }
}
