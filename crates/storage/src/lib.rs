//! Paged storage engine: slotted heap pages, a checksummed pager, a pinning
//! buffer pool with LRU eviction, and a row B-tree keyed by rowid.
//!
//! This crate is deliberately **value-agnostic**: it stores opaque byte
//! records keyed by a monotonically assigned `u64` rowid, so it has no
//! dependency on the `dbms` value model (the dependency points the other
//! way — `dbms` encodes its `Row`s into records and decodes them back).
//! Insertion order equals rowid order equals scan order, which is exactly
//! the contract the in-memory engine's `Vec<Row>` tables provide; the two
//! backends are therefore observationally identical to the evaluator.
//!
//! Layering, bottom to top:
//!
//! - [`page`] — a fixed-size slotted page: checksummed header, slot
//!   directory growing up, cell content growing down.
//! - [`pager`] — page-granular I/O over a file (or an in-memory vector for
//!   tests and the fuzzer), with checksum sealing on write and verification
//!   on read.
//! - [`bufpool`] — a pinning buffer pool with a configurable frame budget
//!   and least-recently-used eviction; hit/miss/eviction counters are kept
//!   per pool and mirrored into process-wide atomics for `/metrics`.
//! - [`btree`] — a B-tree over (rowid, record) pairs in slotted pages:
//!   point lookup, ordered scan via next-leaf links, right-leaning splits.
//! - [`store`] — the public façade: a table directory in a meta page,
//!   create/open/flush, append/get/scan per table.
//! - [`stats`] — per-table statistics (row count, per-column KMV distinct
//!   estimate, null fraction) collected as records are appended.

pub mod btree;
pub mod bufpool;
pub mod page;
pub mod pager;
pub mod stats;
pub mod store;

pub use bufpool::{global_counters, BufPoolStats};
pub use stats::{ColumnStats, StatsBuilder, TableStatistics};
pub use store::{ScanCursor, Store};

/// Errors surfaced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Underlying file I/O failed.
    Io(String),
    /// A page failed checksum or structural validation.
    Corrupt(String),
    /// A record exceeds what a single page can hold.
    RecordTooLarge(usize),
    /// A named table is absent from the store directory.
    UnknownTable(String),
    /// The meta page cannot hold the table directory.
    DirectoryFull,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt(e) => write!(f, "corrupt page: {e}"),
            StorageError::RecordTooLarge(n) => {
                write!(f, "record of {n} bytes exceeds page capacity")
            }
            StorageError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            StorageError::DirectoryFull => write!(f, "table directory exceeds the meta page"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> StorageError {
        StorageError::Io(e.to_string())
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

/// FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice; feeds the value sketches (page checksums use
/// the word-wise variant in [`pager`]).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}
