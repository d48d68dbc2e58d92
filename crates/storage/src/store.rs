//! The store façade: named append-only tables over one paged file.
//!
//! Page 0 is the meta page: magic, format version, and the table
//! directory (name, B-tree root, next rowid, row count, column count).
//! Every other page belongs to some table's B-tree. The directory is
//! rewritten on [`Store::flush`]; column sketches ([`crate::stats`]) are
//! memory-only, so a reopened store reports row counts but empty column
//! statistics until rows are appended again.
//!
//! A `Store` is a cheap clonable handle (`Arc<Mutex<…>>`): the `dbms`
//! layer clones whole `Database` values freely (the fuzzer runs the
//! original and the extracted program against clones), and paged tables in
//! those clones share this one store read-only. Scans lock per *leaf
//! page*, not per row — a [`ScanCursor`] copies one leaf page at a time and
//! lends records out of that copy, so concurrent cursors (nested correlated
//! loops) interleave without deadlock and memory stays bounded by one page,
//! not the table size.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::btree;
use crate::bufpool::{BufPoolStats, BufferPool};
use crate::page::{Page, PageKind, HEADER, PAGE_SIZE};
use crate::pager::Pager;
use crate::stats::{StatsBuilder, TableStatistics};
use crate::{Result, StorageError};

const MAGIC: u32 = 0x4551_5353; // "EQSS"
/// Store format version. 2: pages sealed with the word-wise checksum
/// (`pager::checksum`); a version-1 file fails verification on its meta
/// page and is refused as [`StorageError::Corrupt`].
const VERSION: u16 = 2;

#[derive(Clone)]
struct TableEntry {
    root: u32,
    next_rowid: u64,
    row_count: u64,
    ncols: u16,
    stats: StatsBuilder,
}

struct Inner {
    pager: Pager,
    pool: BufferPool,
    dir: BTreeMap<String, TableEntry>,
    /// Set for [`Store::temp`] stores: the file is removed on last drop.
    temp_path: Option<PathBuf>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        if let Some(p) = &self.temp_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// A clonable handle to one paged store.
#[derive(Clone)]
pub struct Store {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("store lock");
        f.debug_struct("Store")
            .field("tables", &inner.dir.keys().collect::<Vec<_>>())
            .field("pages", &inner.pager.page_count())
            .field("frames", &inner.pool.budget())
            .finish()
    }
}

impl Store {
    fn from_inner(inner: Inner) -> Store {
        Store {
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// Create a new store file (truncating any existing one) with the given
    /// buffer-pool frame budget.
    pub fn create(path: &Path, frames: usize) -> Result<Store> {
        let mut pager = Pager::create(path)?;
        let meta = pager.allocate()?;
        debug_assert_eq!(meta, 0, "meta page must be page 0");
        let mut inner = Inner {
            pager,
            pool: BufferPool::new(frames),
            dir: BTreeMap::new(),
            temp_path: None,
        };
        write_meta(&mut inner)?;
        Ok(Store::from_inner(inner))
    }

    /// Open an existing store file.
    pub fn open(path: &Path, frames: usize) -> Result<Store> {
        let mut pager = Pager::open(path)?;
        let dir = read_meta(&mut pager)?;
        Ok(Store::from_inner(Inner {
            pager,
            pool: BufferPool::new(frames),
            dir,
            temp_path: None,
        }))
    }

    /// A memory-backed store (no file, no persistence) — used by the
    /// fuzzer's `--store` mode and unit tests.
    pub fn in_memory(frames: usize) -> Store {
        let mut pager = Pager::in_memory();
        let meta = pager.allocate().expect("in-memory allocate");
        debug_assert_eq!(meta, 0);
        let mut inner = Inner {
            pager,
            pool: BufferPool::new(frames),
            dir: BTreeMap::new(),
            temp_path: None,
        };
        write_meta(&mut inner).expect("in-memory meta write");
        Store::from_inner(inner)
    }

    /// A store backed by a fresh uniquely named file in the system temp
    /// directory, removed when the last handle drops.
    pub fn temp(frames: usize) -> Result<Store> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let name = format!(
            "eqsql-store-{}-{}-{nanos}.pages",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        );
        let path = std::env::temp_dir().join(name);
        let store = Store::create(&path, frames)?;
        store.inner.lock().expect("store lock").temp_path = Some(path);
        Ok(store)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("store lock poisoned")
    }

    /// Create (or reset) a table with `ncols` columns.
    pub fn create_table(&self, name: &str, ncols: usize) -> Result<()> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        // "Ensure" semantics: re-creating a table that already exists (the
        // reopen path — catalogs are re-declared against an opened store)
        // attaches to the persisted entry instead of wiping it.
        if let Some(entry) = inner.dir.get(name) {
            if entry.ncols as usize != ncols {
                return Err(StorageError::Corrupt(format!(
                    "table {name} exists with {} column(s), re-declared with {ncols}",
                    entry.ncols
                )));
            }
            return Ok(());
        }
        let root = btree::create(&mut inner.pager, &mut inner.pool)?;
        inner.dir.insert(
            name.to_string(),
            TableEntry {
                root,
                next_rowid: 1,
                row_count: 0,
                ncols: ncols as u16,
                stats: StatsBuilder::new(ncols),
            },
        );
        Ok(())
    }

    /// Append a record to `table`, observing per-column value hashes for
    /// statistics; returns the assigned rowid (monotone from 1, so scan
    /// order is insertion order).
    pub fn append(&self, table: &str, record: &[u8], hashes: &[Option<u64>]) -> Result<u64> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let entry = inner
            .dir
            .get_mut(table)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))?;
        let rowid = entry.next_rowid;
        let root = btree::insert(&mut inner.pager, &mut inner.pool, entry.root, rowid, record)?;
        entry.root = root;
        entry.next_rowid += 1;
        entry.row_count += 1;
        entry.stats.observe_row(hashes);
        Ok(rowid)
    }

    /// Point lookup by rowid.
    pub fn get(&self, table: &str, rowid: u64) -> Result<Option<Vec<u8>>> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let root = inner
            .dir
            .get(table)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))?
            .root;
        btree::get(&mut inner.pager, &mut inner.pool, root, rowid)
    }

    /// Rows in `table`.
    pub fn row_count(&self, table: &str) -> Result<u64> {
        let inner = self.lock();
        inner
            .dir
            .get(table)
            .map(|e| e.row_count)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))
    }

    /// Table names in the store, sorted.
    pub fn tables(&self) -> Vec<String> {
        self.lock().dir.keys().cloned().collect()
    }

    /// This table's statistics snapshot. Column sketches are only reported
    /// when they observed every row (i.e. not after a reopen).
    pub fn statistics(&self, table: &str) -> Result<TableStatistics> {
        let inner = self.lock();
        let entry = inner
            .dir
            .get(table)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))?;
        let mut snap = entry.stats.snapshot();
        if entry.stats.rows() != entry.row_count {
            snap.columns.clear();
        }
        snap.rows = entry.row_count;
        Ok(snap)
    }

    /// Begin an ordered scan of `table` (rowid order = insertion order).
    pub fn scan(&self, table: &str) -> Result<ScanCursor> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let root = inner
            .dir
            .get(table)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))?
            .root;
        let leaf = btree::first_leaf(&mut inner.pager, &mut inner.pool, root)?;
        Ok(ScanCursor {
            store: self.clone(),
            next_leaf: Some(leaf),
            page: Page::default(),
            idx: 0,
        })
    }

    /// Flush: write back dirty frames and the meta page, then sync.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        inner.pool.flush_all(&mut inner.pager)?;
        write_meta(inner)?;
        inner.pager.sync()
    }

    /// Buffer-pool counters for this store.
    pub fn pool_stats(&self) -> BufPoolStats {
        self.lock().pool.stats()
    }

    /// Total pages in the backing file.
    pub fn page_count(&self) -> u32 {
        self.lock().pager.page_count()
    }

    /// Column count recorded for `table` at creation.
    pub fn column_count(&self, table: &str) -> Result<usize> {
        let inner = self.lock();
        inner
            .dir
            .get(table)
            .map(|e| e.ncols as usize)
            .ok_or_else(|| StorageError::UnknownTable(table.to_string()))
    }

    /// Deep-snapshot this store into an independent in-memory image.
    ///
    /// Dirty frames are flushed and the meta page rewritten so the page
    /// image is current, then every page is copied into a fresh in-memory
    /// pager with its own empty buffer pool. Writes against the fork never
    /// touch the original (and vice versa) — this is what lets a paged
    /// `Database` be cloned for differential runs that mutate state.
    /// Column sketches are cloned too, so the fork's statistics match.
    pub fn fork(&self) -> Result<Store> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        inner.pool.flush_all(&mut inner.pager)?;
        write_meta(inner)?;
        let pager = inner.pager.fork_image()?;
        Ok(Store::from_inner(Inner {
            pager,
            pool: BufferPool::new(inner.pool.budget()),
            dir: inner.dir.clone(),
            temp_path: None,
        }))
    }

    /// Reset `table` to empty: fresh B-tree root, rowids restarting at 1,
    /// zeroed statistics. The old tree's pages are leaked in the backing
    /// image (there is no free list) — acceptable for the materialize-and-
    /// rewrite path behind paged UPDATE/DELETE, which operates on forked
    /// in-memory images at fuzz scale.
    pub fn truncate_table(&self, name: &str) -> Result<()> {
        let mut inner = self.lock();
        let inner = &mut *inner;
        if !inner.dir.contains_key(name) {
            return Err(StorageError::UnknownTable(name.to_string()));
        }
        let root = btree::create(&mut inner.pager, &mut inner.pool)?;
        let entry = inner.dir.get_mut(name).expect("presence checked above");
        let ncols = entry.ncols as usize;
        entry.root = root;
        entry.next_rowid = 1;
        entry.row_count = 0;
        entry.stats = StatsBuilder::new(ncols);
        Ok(())
    }
}

/// An ordered cursor over one table's records.
///
/// Holds a private copy of one leaf page at a time: the store lock is
/// taken once per leaf, memory held is one page regardless of table size,
/// and [`ScanCursor::next_record`] lends records straight out of the copy.
pub struct ScanCursor {
    store: Store,
    next_leaf: Option<u32>,
    page: Page,
    idx: usize,
}

impl ScanCursor {
    /// The next `(rowid, record)`, with the record borrowed from the
    /// cursor's copy of the current leaf until the next call.
    pub fn next_record(&mut self) -> Option<Result<(u64, &[u8])>> {
        while self.idx >= self.page.nslots() {
            let leaf = self.next_leaf.take()?;
            let mut inner = self.store.lock();
            let inner = &mut *inner;
            let page = &mut self.page;
            if let Err(e) = inner.pool.with_page(&mut inner.pager, leaf, |p| {
                page.0.copy_from_slice(&p.0[..]);
            }) {
                return Some(Err(e));
            }
            let next = self.page.extra();
            self.next_leaf = (next != 0).then_some(next);
            self.idx = 0;
        }
        let (key, record) = self.page.cell(self.idx).split_at(8);
        self.idx += 1;
        let key = u64::from_le_bytes(key.try_into().expect("8-byte cell key"));
        Some(Ok((key, record)))
    }
}

/// Owned records, for callers that keep them past the next call.
impl Iterator for ScanCursor {
    type Item = Result<(u64, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record()
            .map(|r| r.map(|(key, record)| (key, record.to_vec())))
    }
}

/// Serialize the table directory into page 0 and write it through the
/// pager (the meta page bypasses the buffer pool; it is only touched at
/// create/open/flush).
fn write_meta(inner: &mut Inner) -> Result<()> {
    let mut page = Page::init(PageKind::Meta);
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(inner.dir.len() as u16).to_le_bytes());
    for (name, e) in &inner.dir {
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&e.root.to_le_bytes());
        buf.extend_from_slice(&e.next_rowid.to_le_bytes());
        buf.extend_from_slice(&e.row_count.to_le_bytes());
        buf.extend_from_slice(&e.ncols.to_le_bytes());
    }
    if HEADER + buf.len() > PAGE_SIZE {
        return Err(StorageError::DirectoryFull);
    }
    page.0[HEADER..HEADER + buf.len()].copy_from_slice(&buf);
    inner.pager.write_page(0, &mut page)
}

struct MetaReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> MetaReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.buf.len() {
            return Err(StorageError::Corrupt("meta page truncated".into()));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
}

fn read_meta(pager: &mut Pager) -> Result<BTreeMap<String, TableEntry>> {
    let page = pager.read_page(0)?;
    if page.kind() != Some(PageKind::Meta) {
        return Err(StorageError::Corrupt("page 0 is not a meta page".into()));
    }
    let mut r = MetaReader {
        buf: &page.0[HEADER..],
        at: 0,
    };
    let magic = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(StorageError::Corrupt(format!("bad magic {magic:#010x}")));
    }
    let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(StorageError::Corrupt(format!("unknown version {version}")));
    }
    let ntables = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes")) as usize;
    let mut dir = BTreeMap::new();
    for _ in 0..ntables {
        let name_len = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes")) as usize;
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| StorageError::Corrupt("non-UTF-8 table name".into()))?;
        let root = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
        let next_rowid = u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"));
        let row_count = u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"));
        let ncols = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
        dir.insert(
            name,
            TableEntry {
                root,
                next_rowid,
                row_count,
                ncols,
                // Sketches are not persisted; `statistics()` reports empty
                // column stats until rows() catches up with row_count.
                stats: StatsBuilder::new(ncols as usize),
            },
        );
    }
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: u64) -> Vec<u8> {
        format!("row-{i}").into_bytes()
    }

    #[test]
    fn append_scan_get_round_trip() {
        let s = Store::in_memory(8);
        s.create_table("t", 1).unwrap();
        for i in 0..500u64 {
            let rid = s.append("t", &record(i), &[Some(i % 7)]).unwrap();
            assert_eq!(rid, i + 1);
        }
        assert_eq!(s.row_count("t").unwrap(), 500);
        let rows: Vec<(u64, Vec<u8>)> = s.scan("t").unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(rows.len(), 500);
        for (i, (rid, rec)) in rows.iter().enumerate() {
            assert_eq!(*rid, i as u64 + 1);
            assert_eq!(rec, &record(i as u64));
        }
        assert_eq!(s.get("t", 250).unwrap().unwrap(), record(249));
        assert_eq!(s.get("t", 10_000).unwrap(), None);
        let stats = s.statistics("t").unwrap();
        assert_eq!(stats.rows, 500);
        assert_eq!(stats.columns[0].ndv, 7.0);
    }

    #[test]
    fn unknown_table_errors() {
        let s = Store::in_memory(4);
        assert!(matches!(
            s.append("missing", b"x", &[]),
            Err(StorageError::UnknownTable(_))
        ));
        assert!(s.scan("missing").is_err());
    }

    #[test]
    fn interleaved_scans_share_the_pool() {
        let s = Store::in_memory(4);
        s.create_table("t", 1).unwrap();
        for i in 0..800u64 {
            s.append("t", &record(i), &[Some(i)]).unwrap();
        }
        // Two cursors advanced in lock-step (the nested-loop pattern).
        let mut a = s.scan("t").unwrap();
        let mut b = s.scan("t").unwrap();
        let mut n = 0u64;
        while let (Some(x), Some(y)) = (a.next(), b.next()) {
            assert_eq!(x.unwrap(), y.unwrap());
            n += 1;
        }
        assert_eq!(n, 800);
    }

    #[test]
    fn flush_reopen_persists() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("eqsql-store-test-{}.pages", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let s = Store::create(&path, 8).unwrap();
            s.create_table("t", 2).unwrap();
            for i in 0..300u64 {
                s.append("t", &record(i), &[Some(i), None]).unwrap();
            }
            s.flush().unwrap();
        }
        let s = Store::open(&path, 8).unwrap();
        assert_eq!(s.tables(), vec!["t".to_string()]);
        assert_eq!(s.row_count("t").unwrap(), 300);
        assert_eq!(s.column_count("t").unwrap(), 2);
        let rows: Vec<(u64, Vec<u8>)> = s.scan("t").unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(rows.len(), 300);
        assert_eq!(rows[299].1, record(299));
        // Sketches are memory-only: after reopen, column stats are empty
        // but the row count survives.
        let stats = s.statistics("t").unwrap();
        assert_eq!(stats.rows, 300);
        assert!(stats.columns.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn version_one_file_is_refused_with_a_typed_error() {
        // A version-1 store sealed every page with the byte-serial `fnv64`;
        // opening one must fail with `Corrupt`, never panic.
        let path =
            std::env::temp_dir().join(format!("eqsql-store-v1-test-{}.pages", std::process::id()));
        {
            let s = Store::create(&path, 4).unwrap();
            s.create_table("t", 1).unwrap();
            s.append("t", b"abc", &[Some(1)]).unwrap();
            s.flush().unwrap();
        }
        let mut image = std::fs::read(&path).unwrap();
        image[HEADER + 4..HEADER + 6].copy_from_slice(&1u16.to_le_bytes());
        for page in image.chunks_exact_mut(PAGE_SIZE) {
            let old = crate::fnv64(&page[4..]) as u32;
            page[..4].copy_from_slice(&old.to_le_bytes());
        }
        std::fs::write(&path, &image).unwrap();
        assert!(matches!(
            Store::open(&path, 4),
            Err(StorageError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    /// A page that fails its checksum on a file-backed store: the read
    /// lands in an evicted frame, fails, and leaves that frame unmapped, so
    /// a retry reads the page again and fails again rather than serving the
    /// bad bytes. Other tables still scan.
    #[test]
    fn corrupt_page_fails_every_scan_and_spares_other_tables() {
        let path = std::env::temp_dir().join(format!(
            "eqsql-store-corrupt-test-{}.pages",
            std::process::id()
        ));
        {
            let s = Store::create(&path, 4).unwrap();
            s.create_table("t", 1).unwrap(); // root leaf: page 1
            s.create_table("u", 1).unwrap(); // root leaf: page 2
            for i in 0..600u64 {
                s.append("t", &record(i), &[Some(i)]).unwrap();
                s.append("u", &record(i), &[Some(i)]).unwrap();
            }
            s.flush().unwrap();
        }
        // Page 1 stays `t`'s first leaf through every split.
        let mut image = std::fs::read(&path).unwrap();
        image[PAGE_SIZE + 100] ^= 0xff;
        std::fs::write(&path, &image).unwrap();
        let s = Store::open(&path, 4).unwrap();
        let scan_all = |name: &str| -> Result<usize> {
            let mut cursor = s.scan(name)?;
            let mut n = 0;
            while let Some(r) = cursor.next_record() {
                r?;
                n += 1;
            }
            Ok(n)
        };
        // Fill the pool with `u`'s pages first, so `t`'s read evicts.
        assert_eq!(scan_all("u").unwrap(), 600);
        for attempt in 0..2 {
            assert!(
                matches!(scan_all("t"), Err(StorageError::Corrupt(_))),
                "attempt {attempt} must see the corrupt page"
            );
        }
        assert_eq!(scan_all("u").unwrap(), 600);
        drop(s);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fork_is_independent() {
        let s = Store::in_memory(4);
        s.create_table("t", 1).unwrap();
        for i in 0..300u64 {
            s.append("t", &record(i), &[Some(i % 5)]).unwrap();
        }
        let f = s.fork().unwrap();
        // Fork sees the snapshot, including cloned column sketches.
        assert_eq!(f.row_count("t").unwrap(), 300);
        assert_eq!(f.statistics("t").unwrap().columns[0].ndv, 5.0);
        // Writes to the fork do not leak back (and vice versa).
        f.append("t", b"fork-only", &[Some(99)]).unwrap();
        s.append("t", b"orig-only", &[Some(42)]).unwrap();
        let last_f: Vec<u8> = f.scan("t").unwrap().last().unwrap().unwrap().1;
        let last_s: Vec<u8> = s.scan("t").unwrap().last().unwrap().unwrap().1;
        assert_eq!(last_f, b"fork-only".to_vec());
        assert_eq!(last_s, b"orig-only".to_vec());
        assert_eq!(f.row_count("t").unwrap(), 301);
        assert_eq!(s.row_count("t").unwrap(), 301);
    }

    #[test]
    fn truncate_resets_table() {
        let s = Store::in_memory(4);
        s.create_table("t", 2).unwrap();
        for i in 0..200u64 {
            s.append("t", &record(i), &[Some(i), None]).unwrap();
        }
        s.truncate_table("t").unwrap();
        assert_eq!(s.row_count("t").unwrap(), 0);
        assert_eq!(s.scan("t").unwrap().count(), 0);
        // Rowids restart at 1 and stats are rebuilt from scratch.
        assert_eq!(s.append("t", &record(0), &[Some(7), Some(8)]).unwrap(), 1);
        let stats = s.statistics("t").unwrap();
        assert_eq!(stats.rows, 1);
        assert_eq!(stats.columns[0].ndv, 1.0);
        assert!(matches!(
            s.truncate_table("missing"),
            Err(StorageError::UnknownTable(_))
        ));
    }

    #[test]
    fn temp_store_cleans_up() {
        let path;
        {
            let s = Store::temp(4).unwrap();
            s.create_table("t", 1).unwrap();
            s.append("t", b"abc", &[Some(1)]).unwrap();
            s.flush().unwrap();
            path = s.lock().temp_path.clone().unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
