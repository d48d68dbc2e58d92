//! A pinning buffer pool with LRU eviction.
//!
//! The pool caches up to `budget` page frames. Access is closure-scoped:
//! [`BufferPool::with_page`] / [`BufferPool::with_page_mut`] pin the frame
//! for the duration of the closure (eviction skips pinned frames), then
//! unpin it. Mutable access marks the frame dirty; dirty frames are written
//! back through the pager on eviction and on [`BufferPool::flush_all`].
//!
//! Recency is a monotone access counter, not wall-clock time, so eviction
//! order is deterministic. Hit/miss/eviction counts are kept per pool (the
//! scale benchmark reports them per run) and mirrored into process-wide
//! atomics that the service exports as
//! `eqsql_bufpool_{hits,misses,evictions}_total`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::page::Page;
use crate::pager::Pager;
use crate::Result;

static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide (hits, misses, evictions) across every pool ever used;
/// feeds the service's `/metrics` counters.
pub fn global_counters() -> (u64, u64, u64) {
    (
        GLOBAL_HITS.load(Ordering::Relaxed),
        GLOBAL_MISSES.load(Ordering::Relaxed),
        GLOBAL_EVICTIONS.load(Ordering::Relaxed),
    )
}

/// Counters for one pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufPoolStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that had to go to the pager.
    pub misses: u64,
    /// Frames evicted to stay within the budget.
    pub evictions: u64,
}

impl BufPoolStats {
    /// Hit rate in `[0, 1]`; 0 when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The id of a frame that holds no page.
const UNMAPPED: u32 = u32::MAX;

struct Frame {
    id: u32,
    page: Page,
    dirty: bool,
    pins: u32,
    last_used: u64,
}

/// A fixed-budget page cache over a [`Pager`].
pub struct BufferPool {
    frames: Vec<Frame>,
    map: HashMap<u32, usize>,
    budget: usize,
    clock: u64,
    stats: BufPoolStats,
}

impl BufferPool {
    /// A pool holding at most `budget` frames (minimum 1).
    pub fn new(budget: usize) -> BufferPool {
        BufferPool {
            frames: Vec::new(),
            map: HashMap::new(),
            budget: budget.max(1),
            clock: 0,
            stats: BufPoolStats::default(),
        }
    }

    /// The configured frame budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Frames currently resident.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// This pool's counters.
    pub fn stats(&self) -> BufPoolStats {
        self.stats
    }

    /// Run `f` over a read-only view of page `id`, pinning its frame.
    pub fn with_page<R>(
        &mut self,
        pager: &mut Pager,
        id: u32,
        f: impl FnOnce(&Page) -> R,
    ) -> Result<R> {
        let slot = self.acquire(pager, id)?;
        let out = f(&self.frames[slot].page);
        self.frames[slot].pins -= 1;
        Ok(out)
    }

    /// Run `f` over a mutable view of page `id`, pinning its frame and
    /// marking it dirty.
    pub fn with_page_mut<R>(
        &mut self,
        pager: &mut Pager,
        id: u32,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R> {
        let slot = self.acquire(pager, id)?;
        self.frames[slot].dirty = true;
        let out = f(&mut self.frames[slot].page);
        self.frames[slot].pins -= 1;
        Ok(out)
    }

    /// Fetch page `id` into a frame (evicting if needed) and pin it. A
    /// miss reads straight into the frame it will occupy: a new one while
    /// the pool is under budget, else the evicted victim's. A failed read
    /// leaves that frame unmapped, so no later access sees its bytes.
    fn acquire(&mut self, pager: &mut Pager, id: u32) -> Result<usize> {
        self.clock += 1;
        if let Some(&slot) = self.map.get(&id) {
            self.stats.hits += 1;
            GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
            let frame = &mut self.frames[slot];
            frame.last_used = self.clock;
            frame.pins += 1;
            return Ok(slot);
        }
        self.stats.misses += 1;
        GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
        let slot = if self.frames.len() < self.budget {
            self.frames.push(Frame {
                id: UNMAPPED,
                page: Page::default(),
                dirty: false,
                pins: 0,
                last_used: 0,
            });
            self.frames.len() - 1
        } else {
            let victim = self.pick_victim();
            self.evict(pager, victim)?;
            victim
        };
        // The frame is unmapped here and stays so if the read fails.
        let frame = &mut self.frames[slot];
        pager.read_into(id, &mut frame.page)?;
        frame.id = id;
        frame.last_used = self.clock;
        frame.pins += 1;
        self.map.insert(id, slot);
        Ok(slot)
    }

    /// Least-recently-used unpinned frame. Closure-scoped pinning means at
    /// most one frame is pinned at a time, so with budget ≥ 1 a victim
    /// always exists when this is called (the caller's frame is not yet
    /// resident).
    fn pick_victim(&self) -> usize {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, fr)| fr.pins == 0)
            .min_by_key(|(_, fr)| fr.last_used)
            .map(|(i, _)| i)
            .expect("buffer pool: every frame pinned")
    }

    /// Write back and unmap the frame in `slot`; a frame a failed read left
    /// unmapped is simply reused.
    fn evict(&mut self, pager: &mut Pager, slot: usize) -> Result<()> {
        let frame = &mut self.frames[slot];
        if frame.id == UNMAPPED {
            return Ok(());
        }
        self.stats.evictions += 1;
        GLOBAL_EVICTIONS.fetch_add(1, Ordering::Relaxed);
        if frame.dirty {
            pager.write_page(frame.id, &mut frame.page)?;
            frame.dirty = false;
        }
        self.map.remove(&frame.id);
        frame.id = UNMAPPED;
        Ok(())
    }

    /// Write every dirty frame back through the pager.
    pub fn flush_all(&mut self, pager: &mut Pager) -> Result<()> {
        for frame in &mut self.frames {
            if frame.dirty {
                pager.write_page(frame.id, &mut frame.page)?;
                frame.dirty = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    fn pager_with(n: u32) -> Pager {
        let mut p = Pager::in_memory();
        for _ in 0..n {
            let id = p.allocate().unwrap();
            let mut page = Page::init(PageKind::Leaf);
            page.set_extra(id);
            p.write_page(id, &mut page).unwrap();
        }
        p
    }

    #[test]
    fn caches_within_budget() {
        let mut pager = pager_with(3);
        let mut pool = BufferPool::new(4);
        for _ in 0..5 {
            for id in 0..3 {
                let got = pool.with_page(&mut pager, id, |p| p.extra()).unwrap();
                assert_eq!(got, id);
            }
        }
        let s = pool.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 12);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn evicts_lru_and_writes_back_dirty() {
        let mut pager = pager_with(3);
        let mut pool = BufferPool::new(2);
        pool.with_page_mut(&mut pager, 0, |p| p.set_extra(99))
            .unwrap();
        pool.with_page(&mut pager, 1, |_| ()).unwrap();
        // Touch page 2: page 0 is LRU, dirty, and must be written back.
        pool.with_page(&mut pager, 2, |_| ()).unwrap();
        assert_eq!(pool.stats().evictions, 1);
        assert_eq!(pool.resident(), 2);
        // Re-read page 0 through a fresh pool: the write-back must be visible.
        let mut fresh = BufferPool::new(1);
        let v = fresh.with_page(&mut pager, 0, |p| p.extra()).unwrap();
        assert_eq!(v, 99);
    }

    #[test]
    fn hit_rate() {
        let s = BufPoolStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(BufPoolStats::default().hit_rate(), 0.0);
    }
}
