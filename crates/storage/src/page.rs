//! Slotted pages.
//!
//! Every page is [`PAGE_SIZE`] bytes with a 16-byte header, a slot
//! directory growing upward from the header, and cell content growing
//! downward from the end of the page:
//!
//! ```text
//! offset  field
//! 0..4    checksum   u32  word-wise FNV-1a of bytes[4..] (`pager::checksum`),
//!                         sealed by the pager on write, verified on read
//! 4       kind       u8   free=0, leaf=1, internal=2, meta=3
//! 5       (reserved)
//! 6..8    nslots     u16  number of slot-directory entries
//! 8..10   free_off   u16  start of the cell content area
//! 10..14  extra      u32  leaf: next-leaf page id (0 = none);
//!                         internal: rightmost child page id
//! 14..16  (reserved)
//! 16..    slots      (offset u16, len u16) per cell, in key order
//! ...     free space
//! ...4096 cells      inserted back to front
//! ```
//!
//! Cells are opaque to this module except that B-tree pages store the cell's
//! `u64` key in its first 8 bytes (little-endian), which [`Page::key`] reads
//! and [`Page::find`] binary-searches. There is no in-page deletion or
//! compaction: tables are append-only, and node splits rebuild pages from
//! scratch via [`Page::init`].

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Byte length of the fixed page header.
pub const HEADER: usize = 16;

/// Bytes per slot-directory entry.
pub const SLOT: usize = 4;

/// Largest cell a freshly initialized page can hold.
pub const MAX_CELL: usize = PAGE_SIZE - HEADER - SLOT;

/// Page kinds stored in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Unused page.
    Free = 0,
    /// B-tree leaf: cells are `[key u64][record]`.
    Leaf = 1,
    /// B-tree internal node: cells are `[key u64][child u32]`.
    Internal = 2,
    /// Store metadata (page 0): magic, version, table directory.
    Meta = 3,
}

impl PageKind {
    /// Decode a header byte.
    pub fn from_u8(b: u8) -> Option<PageKind> {
        match b {
            0 => Some(PageKind::Free),
            1 => Some(PageKind::Leaf),
            2 => Some(PageKind::Internal),
            3 => Some(PageKind::Meta),
            _ => None,
        }
    }
}

/// A heap-allocated page buffer.
#[derive(Clone)]
pub struct Page(pub Box<[u8; PAGE_SIZE]>);

impl Default for Page {
    fn default() -> Page {
        Page(Box::new([0u8; PAGE_SIZE]))
    }
}

impl Page {
    /// A zeroed page of the given kind with an empty slot directory.
    pub fn init(kind: PageKind) -> Page {
        let mut p = Page::default();
        p.0[4] = kind as u8;
        p.set_nslots(0);
        p.set_free_off(PAGE_SIZE as u16);
        p
    }

    /// The page kind, when the header byte is valid.
    pub fn kind(&self) -> Option<PageKind> {
        PageKind::from_u8(self.0[4])
    }

    fn u16_at(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.0[at], self.0[at + 1]])
    }

    fn put_u16(&mut self, at: usize, v: u16) {
        self.0[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of cells on the page.
    pub fn nslots(&self) -> usize {
        self.u16_at(6) as usize
    }

    fn set_nslots(&mut self, n: usize) {
        self.put_u16(6, n as u16);
    }

    fn free_off(&self) -> usize {
        self.u16_at(8) as usize
    }

    fn set_free_off(&mut self, v: u16) {
        self.put_u16(8, v);
    }

    /// The header's extra word (next-leaf link or rightmost child).
    pub fn extra(&self) -> u32 {
        u32::from_le_bytes([self.0[10], self.0[11], self.0[12], self.0[13]])
    }

    /// Set the header's extra word.
    pub fn set_extra(&mut self, v: u32) {
        self.0[10..14].copy_from_slice(&v.to_le_bytes());
    }

    /// Bytes available for one more cell (content plus its slot entry).
    pub fn free_space(&self) -> usize {
        self.free_off() - (HEADER + SLOT * self.nslots())
    }

    /// Would a cell of `len` bytes fit?
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT
    }

    fn slot(&self, i: usize) -> (usize, usize) {
        let at = HEADER + SLOT * i;
        (self.u16_at(at) as usize, self.u16_at(at + 2) as usize)
    }

    /// The `i`-th cell's bytes.
    pub fn cell(&self, i: usize) -> &[u8] {
        let (off, len) = self.slot(i);
        &self.0[off..off + len]
    }

    /// The `i`-th cell's key (first 8 bytes, little-endian).
    pub fn key(&self, i: usize) -> u64 {
        let c = self.cell(i);
        u64::from_le_bytes(c[..8].try_into().expect("cell shorter than a key"))
    }

    /// Binary-search the slot directory for `key`: `Ok(i)` when cell `i`
    /// has exactly that key, `Err(i)` for the insertion point otherwise.
    pub fn find(&self, key: u64) -> std::result::Result<usize, usize> {
        let (mut lo, mut hi) = (0usize, self.nslots());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.key(mid).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Insert a cell at slot position `pos`, shifting later slots right.
    /// Returns `false` (page unchanged) when the cell does not fit.
    #[must_use]
    pub fn insert_cell(&mut self, pos: usize, cell: &[u8]) -> bool {
        if !self.fits(cell.len()) {
            return false;
        }
        let n = self.nslots();
        debug_assert!(pos <= n, "slot position out of range");
        let off = self.free_off() - cell.len();
        self.0[off..off + cell.len()].copy_from_slice(cell);
        self.set_free_off(off as u16);
        // Shift slot entries [pos, n) one entry to the right.
        let src = HEADER + SLOT * pos;
        let end = HEADER + SLOT * n;
        self.0.copy_within(src..end, src + SLOT);
        self.put_u16(src, off as u16);
        self.put_u16(src + 2, cell.len() as u16);
        self.set_nslots(n + 1);
        true
    }

    /// All cells in slot order, as owned byte vectors (used by splits to
    /// rebuild nodes).
    pub fn cells(&self) -> Vec<Vec<u8>> {
        (0..self.nslots()).map(|i| self.cell(i).to_vec()).collect()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("kind", &self.kind())
            .field("nslots", &self.nslots())
            .field("free_space", &self.free_space())
            .field("extra", &self.extra())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(key: u64, payload: &[u8]) -> Vec<u8> {
        let mut c = key.to_le_bytes().to_vec();
        c.extend_from_slice(payload);
        c
    }

    #[test]
    fn insert_and_read_back_in_order() {
        let mut p = Page::init(PageKind::Leaf);
        for (i, k) in [5u64, 1, 3].iter().enumerate() {
            let pos = p.find(*k).unwrap_err();
            assert!(p.insert_cell(pos, &cell(*k, format!("v{i}").as_bytes())));
        }
        assert_eq!(p.nslots(), 3);
        assert_eq!((p.key(0), p.key(1), p.key(2)), (1, 3, 5));
        assert_eq!(&p.cell(1)[8..], b"v2");
        assert_eq!(p.find(3), Ok(1));
        assert_eq!(p.find(4), Err(2));
    }

    #[test]
    fn rejects_overflow() {
        let mut p = Page::init(PageKind::Leaf);
        let big = cell(1, &vec![0u8; MAX_CELL - 8]);
        assert!(p.insert_cell(0, &big));
        assert!(!p.insert_cell(1, &cell(2, b"x")));
        assert_eq!(p.nslots(), 1);
    }

    #[test]
    fn extra_word_round_trips() {
        let mut p = Page::init(PageKind::Internal);
        p.set_extra(0xdead_beef);
        assert_eq!(p.extra(), 0xdead_beef);
        assert_eq!(p.kind(), Some(PageKind::Internal));
    }
}
