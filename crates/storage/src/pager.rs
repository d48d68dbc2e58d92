//! Page-granular I/O with checksum sealing.
//!
//! The pager owns the backing medium — a file, or an in-memory vector for
//! the fuzzer and unit tests — and moves whole pages across it. Every write
//! seals the page by stamping `checksum` of `bytes[4..]` into the
//! header's checksum field; every read verifies it, so torn or bit-rotted
//! pages surface as [`StorageError::Corrupt`] instead of silent wrong
//! answers.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::page::{Page, PAGE_SIZE};
use crate::{Result, StorageError, FNV_OFFSET, FNV_PRIME};

/// Backing medium for a pager.
enum Media {
    /// A real file on disk.
    File(File),
    /// An in-memory page vector (no persistence; used by tests and the
    /// fuzzer's store mode).
    Mem(Vec<Box<[u8; PAGE_SIZE]>>),
}

/// Moves sealed pages to and from the backing medium.
pub struct Pager {
    media: Media,
    page_count: u32,
}

/// Independent FNV-1a states in [`checksum`]: enough to keep the multiplier
/// busy instead of waiting on one serial chain.
const LANES: usize = 8;

/// Checksum of a page image: FNV-1a over everything after the checksum
/// field itself, taken a little-endian `u64` word at a time. Word `i` feeds
/// lane `i % LANES`; the 4 bytes left after the last whole word form one
/// zero-padded word that seeds the final state, into which the lanes are
/// then folded in order. Multiplication only carries upward, so the low 32
/// bits of `(h ^ w) * p` never depend on the high half of `w`: the high 32
/// bits of the final state are folded into the low 32 before truncating.
fn checksum(buf: &[u8; PAGE_SIZE]) -> u32 {
    let step = |h: u64, word: &[u8]| {
        (h ^ u64::from_le_bytes(word.try_into().expect("8-byte word"))).wrapping_mul(FNV_PRIME)
    };
    let mut lanes = [FNV_OFFSET; LANES];
    let mut blocks = buf[4..].chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, word);
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = step(*lane, word);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let h = lanes.iter().fold(step(FNV_OFFSET, &tail[..]), |h, lane| {
        step(h, &lane.to_le_bytes()[..])
    });
    (h ^ (h >> 32)) as u32
}

/// Stamp the checksum into a page image.
pub fn seal(page: &mut Page) {
    let sum = checksum(&page.0);
    page.0[..4].copy_from_slice(&sum.to_le_bytes());
}

/// Verify a page image's checksum.
fn verify(buf: &[u8; PAGE_SIZE], id: u32) -> Result<()> {
    let stored = u32::from_le_bytes(buf[..4].try_into().expect("4-byte slice"));
    let computed = checksum(buf);
    if stored != computed {
        return Err(StorageError::Corrupt(format!(
            "page {id}: checksum {stored:#010x} != computed {computed:#010x}"
        )));
    }
    Ok(())
}

impl Pager {
    /// Create a new file-backed pager, truncating any existing file.
    pub fn create(path: &Path) -> Result<Pager> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Pager {
            media: Media::File(file),
            page_count: 0,
        })
    }

    /// Open an existing file-backed pager.
    pub fn open(path: &Path) -> Result<Pager> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file length {len} is not a multiple of the page size"
            )));
        }
        Ok(Pager {
            media: Media::File(file),
            page_count: (len / PAGE_SIZE as u64) as u32,
        })
    }

    /// A memory-backed pager (starts empty, never persists).
    pub fn in_memory() -> Pager {
        Pager {
            media: Media::Mem(Vec::new()),
            page_count: 0,
        }
    }

    /// Number of pages in the store.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Append a fresh zero page and return its id.
    pub fn allocate(&mut self) -> Result<u32> {
        let id = self.page_count;
        let mut page = Page::default();
        seal(&mut page);
        self.write_raw(id, &page.0)?;
        self.page_count += 1;
        Ok(id)
    }

    /// Read and checksum-verify page `id`.
    pub fn read_page(&mut self, id: u32) -> Result<Page> {
        if id >= self.page_count {
            return Err(StorageError::Corrupt(format!(
                "page {id} out of range (have {})",
                self.page_count
            )));
        }
        let mut page = Page::default();
        match &mut self.media {
            Media::File(f) => {
                f.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
                f.read_exact(&mut page.0[..])?;
            }
            Media::Mem(pages) => page.0.copy_from_slice(&pages[id as usize][..]),
        }
        verify(&page.0, id)?;
        Ok(page)
    }

    /// Seal and write page `id`.
    pub fn write_page(&mut self, id: u32, page: &mut Page) -> Result<()> {
        seal(page);
        self.write_raw(id, &page.0)
    }

    fn write_raw(&mut self, id: u32, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        match &mut self.media {
            Media::File(f) => {
                f.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
                f.write_all(&buf[..])?;
            }
            Media::Mem(pages) => {
                let idx = id as usize;
                if idx == pages.len() {
                    pages.push(Box::new(*buf));
                } else {
                    pages[idx].copy_from_slice(&buf[..]);
                }
            }
        }
        Ok(())
    }

    /// Copy the entire page image into a fresh in-memory pager — the
    /// deep-snapshot primitive behind `Store::fork`. Pages go through the
    /// normal checksum-verified read path, so a corrupt page surfaces at
    /// fork time rather than later inside the fork.
    pub fn fork_image(&mut self) -> Result<Pager> {
        let mut pages = Vec::with_capacity(self.page_count as usize);
        for id in 0..self.page_count {
            let page = self.read_page(id)?;
            pages.push(page.0);
        }
        Ok(Pager {
            media: Media::Mem(pages),
            page_count: self.page_count,
        })
    }

    /// Flush the medium (file sync; no-op for memory backing).
    pub fn sync(&mut self) -> Result<()> {
        if let Media::File(f) = &mut self.media {
            f.flush()?;
            f.sync_all()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    #[test]
    fn round_trip_in_memory() {
        let mut p = Pager::in_memory();
        let id = p.allocate().unwrap();
        let mut page = Page::init(PageKind::Leaf);
        assert!(page.insert_cell(0, &[1u8; 12]));
        p.write_page(id, &mut page).unwrap();
        let back = p.read_page(id).unwrap();
        assert_eq!(back.kind(), Some(PageKind::Leaf));
        assert_eq!(back.cell(0), &[1u8; 12]);
    }

    #[test]
    fn corruption_is_detected() {
        let mut p = Pager::in_memory();
        let id = p.allocate().unwrap();
        let mut page = Page::init(PageKind::Leaf);
        p.write_page(id, &mut page).unwrap();
        if let Media::Mem(pages) = &mut p.media {
            pages[id as usize][100] ^= 0xff;
        }
        assert!(matches!(p.read_page(id), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut p = Pager::in_memory();
        let id = p.allocate().unwrap();
        let mut page = Page::init(PageKind::Leaf);
        for (i, b) in page.0[8..].iter_mut().enumerate() {
            *b = (i.wrapping_mul(131) >> 3) as u8;
        }
        p.write_page(id, &mut page).unwrap();
        // Every bit after the checksum field, including the high half of
        // every 8-byte word, which a multiply-only hash could miss.
        let flip = |p: &mut Pager, byte: usize, bit: u32| {
            if let Media::Mem(pages) = &mut p.media {
                pages[id as usize][byte] ^= 1 << bit;
            }
        };
        for byte in 4..PAGE_SIZE {
            for bit in 0..8 {
                flip(&mut p, byte, bit);
                assert!(
                    matches!(p.read_page(id), Err(StorageError::Corrupt(_))),
                    "flip of byte {byte} bit {bit} went undetected"
                );
                flip(&mut p, byte, bit);
            }
        }
        assert_eq!(p.read_page(id).unwrap().0, page.0);
    }

    #[test]
    fn out_of_range_read_fails() {
        let mut p = Pager::in_memory();
        assert!(p.read_page(0).is_err());
    }
}
