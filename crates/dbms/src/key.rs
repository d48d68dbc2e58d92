//! SQL key equality and the hash index that answers it.
//!
//! [`sql_eq`] is the equality every key match in the engine uses: `NULL`
//! matches nothing, not even another `NULL`; numbers compare by value, so
//! `3` equals `3.0` and `true` equals `1`; text equals only text. A
//! [`KeyIndex`] finds the rows of a row slice whose key column is
//! [`sql_eq`] to a value without scanning the slice. It has two users:
//!
//! * `interp::dml` builds one per `UPDATE … FROM` / `DELETE … IN`
//!   statement over the statement's source rows;
//! * an in-memory [`crate::Table`] keeps one over its declared
//!   single-column primary key, built by the first keyed point statement
//!   and kept current by inserts, point updates and point deletes
//!   ([`crate::Table::key_slots`]).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use storage::fnv64;

use crate::table::Row;
use crate::value::Value;

/// SQL equality: `NULL` compares equal to nothing (not even `NULL`).
pub fn sql_eq(a: &Value, b: &Value) -> bool {
    !a.is_null() && !b.is_null() && a.group_eq(b)
}

/// The hash of the bucket `v` falls in. Buckets coarsen [`sql_eq`]: values
/// it calls equal share a bucket. Numbers bucket by their `f64` value, so
/// `Int(3)`, `Float(3.0)` and `Bool(true)`/`Int(1)` meet, while two `Int`s
/// past ±2⁵³ may share a bucket without being equal; text buckets by its
/// bytes. `NULL` and NaN equal nothing and get no bucket.
pub(crate) fn key_hash(v: &Value) -> Option<u64> {
    match v {
        Value::Null => None,
        Value::Str(s) => Some(mix(fnv64(s.as_bytes()))),
        v => {
            let x = v.as_f64()?;
            // `-0.0 == 0.0`, so both take the bits of `0.0`.
            (!x.is_nan()).then(|| mix(if x == 0.0 { 0 } else { x.to_bits() }))
        }
    }
}

/// The splitmix64 finalizer: spreads every input bit over the whole word,
/// so the map can take a [`key_hash`] as its hash unchanged.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The map's hasher: its keys are [`key_hash`]es, already mixed.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a KeyIndex hashes only u64 bucket hashes")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// End of a [`KeyIndex`] chain.
const END: usize = usize::MAX;

/// An equality index over column `col` of a row slice: each bucket's
/// newest row in a map, older rows chained behind it, newest first.
#[derive(Debug, Clone)]
pub struct KeyIndex {
    col: usize,
    /// Each bucket's newest row.
    heads: HashMap<u64, usize, BuildHasherDefault<Prehashed>>,
    /// `next[i]`: the next older row in row `i`'s bucket, or [`END`]
    /// (also for a row in no chain: a `NULL` or NaN key, or a deleted row).
    next: Vec<usize>,
}

impl KeyIndex {
    /// Index column `col` of `rows`: two allocations, not one per key.
    pub fn build(rows: &[Row], col: usize) -> KeyIndex {
        let mut index = KeyIndex {
            col,
            heads: HashMap::with_capacity_and_hasher(rows.len(), Default::default()),
            next: Vec::with_capacity(rows.len()),
        };
        for row in rows {
            index.push(&row[col]);
        }
        index
    }

    /// The indexed column.
    pub fn col(&self) -> usize {
        self.col
    }

    /// The rows of `rows`, the slice the index describes, whose key is
    /// [`sql_eq`] to `key`, newest first: the first is `key`'s last writer.
    pub fn matches<'s>(
        &'s self,
        rows: &'s [Row],
        key: &'s Value,
    ) -> impl Iterator<Item = usize> + 's {
        let mut at = key_hash(key)
            .and_then(|h| self.heads.get(&h).copied())
            .unwrap_or(END);
        std::iter::from_fn(move || {
            while at != END {
                let i = at;
                at = self.next[i];
                if sql_eq(&rows[i][self.col], key) {
                    return Some(i);
                }
            }
            None
        })
    }

    /// Index one more row, keyed `key`: the newest, so its chain's head.
    pub(crate) fn push(&mut self, key: &Value) {
        let i = self.next.len();
        let older = key_hash(key).and_then(|h| self.heads.insert(h, i));
        self.next.push(older.unwrap_or(END));
    }

    /// Take row `i`, keyed `key`, out of the index.
    pub(crate) fn remove(&mut self, i: usize, key: &Value) {
        if let Some(h) = key_hash(key) {
            self.unlink(i, h);
        }
    }

    /// Move row `i` from the chain of bucket hash `old` to that of `new`
    /// (its key's [`key_hash`] before and after a write).
    pub(crate) fn rekey(&mut self, i: usize, old: Option<u64>, new: Option<u64>) {
        if old == new {
            return;
        }
        if let Some(h) = old {
            self.unlink(i, h);
        }
        if let Some(h) = new {
            self.link(i, h);
        }
    }

    fn unlink(&mut self, i: usize, h: u64) {
        let older = std::mem::replace(&mut self.next[i], END);
        let head = self.heads[&h];
        if head == i {
            if older == END {
                self.heads.remove(&h);
            } else {
                self.heads.insert(h, older);
            }
            return;
        }
        let mut at = head;
        while self.next[at] != i {
            at = self.next[at];
        }
        self.next[at] = older;
    }

    /// Put row `i` into bucket `h`'s chain, keeping it newest first.
    fn link(&mut self, i: usize, h: u64) {
        match self.heads.get(&h).copied() {
            Some(head) if head > i => {
                let mut at = head;
                while self.next[at] != END && self.next[at] > i {
                    at = self.next[at];
                }
                self.next[i] = self.next[at];
                self.next[at] = i;
            }
            head => {
                self.next[i] = head.unwrap_or(END);
                self.heads.insert(h, i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::StdRng;

    /// The nested loop the index replaces: the rows of `rows` whose column
    /// `col` is [`sql_eq`] to `key`, newest first.
    fn reference_matches(rows: &[Row], col: usize, key: &Value) -> Vec<usize> {
        (0..rows.len())
            .rev()
            .filter(|&i| sql_eq(&rows[i][col], key))
            .collect()
    }

    #[test]
    fn key_index_agrees_with_the_nested_loop_reference() {
        let pool = [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Int(2),
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Bool(true),
            Value::Bool(false),
            Value::Str("1".into()),
            Value::Str("a".into()),
            Value::Int(1 << 53),
            Value::Int((1 << 53) + 1),
        ];
        // Up to 7 rows: `keys` columns drawn from `pool`, then `v`
        // numbered from `base`.
        let gen_rows = |rng: &mut StdRng, keys: usize, base: i64| -> Vec<Row> {
            (0..rng.gen_range(0..8i64))
                .map(|i| {
                    let mut row: Row = (0..keys)
                        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                        .collect();
                    row.push(Value::Int(base + i));
                    row
                })
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..300 {
            // A statement's target rows probe an index over its source
            // rows, on either source key column; every pool value probes
            // too, so keys no row holds are asked for as well.
            let t = gen_rows(&mut rng, 1, 0);
            let src = gen_rows(&mut rng, 2, 100);
            for col in 0..2 {
                let index = KeyIndex::build(&src, col);
                for key in t.iter().map(|r| &r[0]).chain(&pool) {
                    assert_eq!(
                        index.matches(&src, key).collect::<Vec<_>>(),
                        reference_matches(&src, col, key),
                        "case {case}: key {key:?} in column {col} of {src:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn relinked_rows_keep_chains_newest_first() {
        // Seven rows over three keys; rekey and remove rows in an order
        // that puts each one mid-chain, then compare every chain.
        let mut rows: Vec<Row> = [1, 2, 1, 3, 1, 2, 1]
            .into_iter()
            .map(|k| vec![Value::Int(k)])
            .collect();
        let mut index = KeyIndex::build(&rows, 0);
        let check = |index: &KeyIndex, rows: &[Row]| {
            for k in [1, 2, 3, 4].map(Value::Int) {
                assert_eq!(
                    index.matches(rows, &k).collect::<Vec<_>>(),
                    reference_matches(rows, 0, &k),
                    "key {k:?} over {rows:?}"
                );
            }
        };
        for (i, new) in [(2, 2), (5, 1), (0, 3), (6, 4), (3, 1)] {
            let old = key_hash(&rows[i][0]);
            rows[i][0] = Value::Int(new);
            index.rekey(i, old, key_hash(&rows[i][0]));
            check(&index, &rows);
        }
        for i in [4, 0, 6] {
            index.remove(i, &rows[i][0]);
            rows[i][0] = Value::Null;
            check(&index, &rows);
        }
        // A row rekeyed to NULL leaves every chain; back to a number, it
        // rejoins in place.
        let old = key_hash(&rows[1][0]);
        rows[1][0] = Value::Null;
        index.rekey(1, old, None);
        check(&index, &rows);
        rows[1][0] = Value::Float(1.0);
        index.rekey(1, None, key_hash(&rows[1][0]));
        check(&index, &rows);
    }
}
