//! Simulated device global memory.
//!
//! A [`DeviceArena`] is a flat, growable address space of `u32` words with
//! word-level atomics — the model of GPU global memory the slab structures
//! run on. Addresses are plain `u32` word indices, so a "device pointer"
//! fits in one lane register exactly as in the paper's CUDA implementation.
//!
//! Words live in 64-bit cells of two (the even address is the low half),
//! so an 8-byte-aligned word pair can be swapped by one 64-bit CAS
//! ([`DeviceArena::cas_pair`]) — the single `atomicCAS` SlabHash claims a
//! ⟨key, value⟩ slot with. Every 32-bit operation acts on its half of a
//! cell with a 64-bit atomic and leaves the other half intact; no memory is
//! ever accessed atomically at two sizes.
//!
//! Growth is lock-free for readers: the arena is a table of lazily
//! allocated fixed-size segments; allocation bumps a cursor and publishes
//! new segments with a CAS. Because slabs are 32-word aligned and segments
//! are a multiple of 32 words, a slab never straddles two segments.

use crate::fault::OomError;
use crate::sanitizer::Sanitizer;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// log2 of the segment size in words (2^20 words = 4 MiB per segment).
const SEGMENT_SHIFT: u32 = 20;
/// Words per segment.
pub const SEGMENT_WORDS: usize = 1 << SEGMENT_SHIFT;
/// 64-bit cells per segment (two words each).
const SEGMENT_CELLS: usize = SEGMENT_WORDS / 2;
/// Maximum number of segments (=> 16 GiB address space, ample for benches).
const MAX_SEGMENTS: usize = 4096;

/// Words per 128-byte slab / cache line.
pub const SLAB_WORDS: usize = 32;

/// A device-memory address: an index into the arena's word space.
pub type Addr = u32;

/// Sentinel for "null device pointer".
pub const NULL_ADDR: Addr = u32::MAX;

/// Bit offset of `addr`'s word within its cell.
#[inline]
fn shift(addr: Addr) -> u32 {
    (addr & 1) * 32
}

/// The word `addr` names within `cell`.
#[inline]
fn half(cell: u64, addr: Addr) -> u32 {
    (cell >> shift(addr)) as u32
}

/// `cell` with `addr`'s word replaced by `v`.
#[inline]
fn with_half(cell: u64, addr: Addr, v: u32) -> u64 {
    let s = shift(addr);
    (cell & !(u64::from(u32::MAX) << s)) | (u64::from(v) << s)
}

/// A word pair as one cell: `pair[0]` is the even (low) word.
#[inline]
fn pack(pair: [u32; 2]) -> u64 {
    u64::from(pair[0]) | (u64::from(pair[1]) << 32)
}

#[inline]
fn unpack(cell: u64) -> [u32; 2] {
    [cell as u32, (cell >> 32) as u32]
}

/// Growable atomic word arena modelling GPU global memory.
pub struct DeviceArena {
    segments: Box<[AtomicPtr<AtomicU64>]>,
    /// Bump cursor: next free word index.
    cursor: AtomicU64,
    /// Number of words for which segments have been published.
    committed_words: AtomicU64,
    /// Allocation budget in words; `u64::MAX` means unbounded. The budget
    /// models the fixed memory of a physical card: it caps the *cursor*,
    /// not segment commitment, and can be raised at runtime to model a
    /// re-provisioned pool.
    capacity_words: AtomicU64,
    /// Lock serialising segment publication (growth only, never reads).
    grow_lock: parking_lot::Mutex<()>,
    /// Optional shadow-memory sanitizer. At the arena layer every store
    /// path (host or kernel) marks words initialized; access
    /// classification (race/lifetime checks) happens in [`crate::Warp`]'s
    /// accessors, which know the kernel and warp provenance.
    san: Option<Arc<Sanitizer>>,
}

impl DeviceArena {
    /// Create an unbounded arena and pre-commit `initial_words` of backing
    /// store.
    pub fn new(initial_words: usize) -> Self {
        Self::with_capacity(initial_words, u64::MAX)
    }

    /// Create an arena whose allocations may not exceed `capacity_words`
    /// in total (`u64::MAX` for unbounded).
    pub fn with_capacity(initial_words: usize, capacity_words: u64) -> Self {
        let arena = DeviceArena {
            segments: (0..MAX_SEGMENTS)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            cursor: AtomicU64::new(0),
            committed_words: AtomicU64::new(0),
            capacity_words: AtomicU64::new(capacity_words),
            grow_lock: parking_lot::Mutex::new(()),
            san: None,
        };
        arena.ensure_committed(initial_words as u64);
        arena
    }

    /// Attach a shadow-memory sanitizer (construction-time only; see
    /// [`crate::DeviceConfig`]).
    pub(crate) fn attach_sanitizer(&mut self, san: Arc<Sanitizer>) {
        self.san = Some(san);
    }

    /// The attached sanitizer, if any.
    pub fn sanitizer(&self) -> Option<&Arc<Sanitizer>> {
        self.san.as_ref()
    }

    /// The allocation budget in words (`u64::MAX` when unbounded).
    pub fn capacity_words(&self) -> u64 {
        self.capacity_words.load(Ordering::Relaxed)
    }

    /// Change the allocation budget. Raising it un-blocks future
    /// allocations; lowering it below the current cursor only affects
    /// future allocations (already-handed-out words stay valid).
    pub fn set_capacity_words(&self, capacity_words: u64) {
        self.capacity_words.store(capacity_words, Ordering::Relaxed);
    }

    /// Words handed out so far by [`Self::alloc_words`].
    pub fn allocated_words(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Words of backing store committed (segments published).
    pub fn committed_words(&self) -> u64 {
        self.committed_words.load(Ordering::Acquire)
    }

    /// Commit segments so that word indices `< words` are addressable.
    fn ensure_committed(&self, words: u64) {
        if self.committed_words.load(Ordering::Acquire) >= words {
            return;
        }
        let _g = self.grow_lock.lock();
        let mut committed = self.committed_words.load(Ordering::Acquire);
        while committed < words {
            let seg_idx = (committed >> SEGMENT_SHIFT) as usize;
            assert!(
                seg_idx < MAX_SEGMENTS,
                "DeviceArena exhausted: requested {words} words, max {}",
                MAX_SEGMENTS * SEGMENT_WORDS
            );
            if self.segments[seg_idx].load(Ordering::Acquire).is_null() {
                let seg: Box<[AtomicU64]> = (0..SEGMENT_CELLS).map(|_| AtomicU64::new(0)).collect();
                let ptr = Box::into_raw(seg).cast::<AtomicU64>();
                self.segments[seg_idx].store(ptr, Ordering::Release);
            }
            committed += SEGMENT_WORDS as u64;
        }
        self.committed_words.store(committed, Ordering::Release);
    }

    /// Bump-allocate `n` words aligned to `align` words; returns the base
    /// address. Used for bulk base-slab regions and fixed tables; the slab
    /// allocator builds its pools on top of this.
    ///
    /// Panics if the budget or address space is exhausted; recoverable
    /// paths use [`Self::try_alloc_words`].
    pub fn alloc_words(&self, n: usize, align: usize) -> Addr {
        self.try_alloc_words(n, align)
            .unwrap_or_else(|e| panic!("DeviceArena allocation failed: {e}"))
    }

    /// Fallible bump allocation: returns a typed [`OomError`] when the
    /// request would exceed the capacity budget or the address space,
    /// leaving the cursor untouched.
    pub fn try_alloc_words(&self, n: usize, align: usize) -> Result<Addr, OomError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let align = align as u64;
        let n = n as u64;
        loop {
            let cur = self.cursor.load(Ordering::Relaxed);
            let base = (cur + align - 1) & !(align - 1);
            let end = base + n;
            if end > (MAX_SEGMENTS * SEGMENT_WORDS) as u64 {
                return Err(OomError::AddressSpace { requested: n });
            }
            let capacity = self.capacity_words.load(Ordering::Relaxed);
            if end > capacity {
                return Err(OomError::Capacity {
                    requested: n,
                    capacity,
                    allocated: cur,
                });
            }
            if self
                .cursor
                .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.ensure_committed(end);
                return Ok(base as Addr);
            }
        }
    }

    /// The segment holding `addr`, and the index of `addr`'s cell in it.
    #[inline]
    fn segment(&self, addr: Addr) -> (*mut AtomicU64, usize) {
        let ptr = self.segments[(addr >> SEGMENT_SHIFT) as usize].load(Ordering::Acquire);
        assert!(
            !ptr.is_null(),
            "access to uncommitted device address {addr:#x}"
        );
        (ptr, ((addr as usize) & (SEGMENT_WORDS - 1)) / 2)
    }

    /// Borrow the cell holding the word at `addr`.
    #[inline]
    fn cell(&self, addr: Addr) -> &AtomicU64 {
        let (ptr, off) = self.segment(addr);
        // SAFETY: segments are SEGMENT_CELLS long, published once with
        // Release, never freed before the arena drops, and `off` is below
        // SEGMENT_CELLS by construction.
        unsafe { &*ptr.add(off) }
    }

    /// Borrow the `n` cells holding the words from the even address `base`
    /// on; they must lie in one segment.
    #[inline]
    fn cells(&self, base: Addr, n: usize) -> &[AtomicU64] {
        debug_assert_eq!(base % 2, 0, "cell range starts on an odd word");
        let (ptr, off) = self.segment(base);
        assert!(off + n <= SEGMENT_CELLS, "cell range straddles a segment");
        // SAFETY: as in `cell`, and `off + n` is in bounds (asserted above).
        unsafe { std::slice::from_raw_parts(ptr.add(off), n) }
    }

    /// Atomically replace the word at `addr` by `f(old)`, leaving the
    /// other half of its cell intact; returns `old`.
    #[inline]
    fn update(&self, addr: Addr, f: impl Fn(u32) -> u32) -> u32 {
        let prev = self
            .cell(addr)
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                Some(with_half(c, addr, f(half(c, addr))))
            })
            .unwrap_or_else(|c| c);
        half(prev, addr)
    }

    /// Relaxed load of one word.
    #[inline]
    pub fn load(&self, addr: Addr) -> u32 {
        half(self.cell(addr).load(Ordering::Acquire), addr)
    }

    /// Store one word.
    #[inline]
    pub fn store(&self, addr: Addr, v: u32) {
        self.update(addr, |_| v);
        self.mark_init(addr);
    }

    /// Mark `addr` initialized in the sanitizer's shadow (no-op without
    /// an attached sanitizer).
    #[inline]
    fn mark_init(&self, addr: Addr) {
        if let Some(s) = &self.san {
            s.mark_init(addr);
        }
    }

    /// Compare-and-swap one word; returns `Ok(expected)` on success or
    /// `Err(actual)` on failure, like hardware `atomicCAS`.
    #[inline]
    pub fn cas(&self, addr: Addr, expected: u32, new: u32) -> Result<u32, u32> {
        let r = self
            .cell(addr)
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| {
                (half(c, addr) == expected).then(|| with_half(c, addr, new))
            });
        match r {
            Ok(_) => {
                self.mark_init(addr);
                Ok(expected)
            }
            Err(c) => Err(half(c, addr)),
        }
    }

    /// Compare-and-swap the aligned word pair at `addr` (even) and
    /// `addr + 1` as one 64-bit atomic — hardware `atomicCAS` on an
    /// `unsigned long long`. `expected` and `new` list the words in address
    /// order; returns `Ok(expected)` on success or `Err(actual)`.
    #[inline]
    pub fn cas_pair(
        &self,
        addr: Addr,
        expected: [u32; 2],
        new: [u32; 2],
    ) -> Result<[u32; 2], [u32; 2]> {
        assert_eq!(addr % 2, 0, "word pair at {addr:#x} is not 8-byte aligned");
        let r = self.cell(addr).compare_exchange(
            pack(expected),
            pack(new),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        match r {
            Ok(_) => {
                self.mark_init(addr);
                self.mark_init(addr + 1);
                Ok(expected)
            }
            Err(c) => Err(unpack(c)),
        }
    }

    /// Atomic exchange.
    #[inline]
    pub fn exchange(&self, addr: Addr, v: u32) -> u32 {
        let r = self.update(addr, |_| v);
        self.mark_init(addr);
        r
    }

    /// Atomic add; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, addr: Addr, v: u32) -> u32 {
        let r = self.update(addr, |old| old.wrapping_add(v));
        self.mark_init(addr);
        r
    }

    /// Atomic sub; returns the previous value.
    #[inline]
    pub fn fetch_sub(&self, addr: Addr, v: u32) -> u32 {
        let r = self.update(addr, |old| old.wrapping_sub(v));
        self.mark_init(addr);
        r
    }

    /// Atomic bitwise OR; returns the previous value.
    #[inline]
    pub fn fetch_or(&self, addr: Addr, v: u32) -> u32 {
        let r = self
            .cell(addr)
            .fetch_or(u64::from(v) << shift(addr), Ordering::AcqRel);
        self.mark_init(addr);
        half(r, addr)
    }

    /// Atomic bitwise AND; returns the previous value.
    #[inline]
    pub fn fetch_and(&self, addr: Addr, v: u32) -> u32 {
        // The other half ANDs with all-ones, so it is left as it was.
        let r = self
            .cell(addr)
            .fetch_and(with_half(u64::MAX, addr, v), Ordering::AcqRel);
        self.mark_init(addr);
        half(r, addr)
    }

    /// Read `SLAB_WORDS` consecutive words starting at the slab-aligned
    /// `base` into an array (one coalesced 128 B read). Whole cells are
    /// loaded, so an aligned pair is never torn.
    #[inline]
    pub fn load_slab(&self, base: Addr) -> [u32; SLAB_WORDS] {
        debug_assert_eq!(base as usize % SLAB_WORDS, 0, "slab base misaligned");
        let cells = self.cells(base, SLAB_WORDS / 2);
        let mut words = [0u32; SLAB_WORDS];
        for (pair, cell) in words.chunks_exact_mut(2).zip(cells) {
            pair.copy_from_slice(&unpack(cell.load(Ordering::Acquire)));
        }
        words
    }

    /// Write `SLAB_WORDS` consecutive words (one coalesced 128 B write),
    /// whole cells at a time.
    #[inline]
    pub fn store_slab(&self, base: Addr, words: &[u32; SLAB_WORDS]) {
        debug_assert_eq!(base as usize % SLAB_WORDS, 0, "slab base misaligned");
        let cells = self.cells(base, SLAB_WORDS / 2);
        for (pair, cell) in words.chunks_exact(2).zip(cells) {
            cell.store(pack([pair[0], pair[1]]), Ordering::Release);
        }
        if let Some(s) = &self.san {
            s.mark_init_range(base, SLAB_WORDS);
        }
    }

    /// The cells holding the `n` words (even) from the even address `base`
    /// on, as one run per segment touched.
    fn cell_runs(&self, base: Addr, n: usize) -> impl Iterator<Item = &[AtomicU64]> {
        assert!(
            base.is_multiple_of(2) && n.is_multiple_of(2),
            "word range {base:#x}+{n} is not whole cells"
        );
        let (mut addr, mut left) = (base, n / 2);
        std::iter::from_fn(move || {
            (left > 0).then(|| {
                let room = SEGMENT_CELLS - (addr as usize & (SEGMENT_WORDS - 1)) / 2;
                let k = left.min(room);
                let run = self.cells(addr, k);
                addr = addr.wrapping_add(2 * k as u32);
                left -= k;
                run
            })
        })
    }

    /// Bulk host copy of `n` words (even) from the even address `base` on,
    /// whole cells at a time: `data` first, then `pad` for the rest.
    pub fn store_words(&self, base: Addr, n: usize, data: &[u32], pad: u32) {
        assert!(data.len() <= n, "{} words do not fit in {n}", data.len());
        let mut cells = data
            .chunks(2)
            .map(|c| pack([c[0], c.get(1).copied().unwrap_or(pad)]))
            .chain(std::iter::repeat(pack([pad, pad])));
        for run in self.cell_runs(base, n) {
            for (cell, v) in run.iter().zip(&mut cells) {
                cell.store(v, Ordering::Release);
            }
        }
        if let Some(s) = &self.san {
            s.mark_init_range(base, n);
        }
    }

    /// Bulk host read of `n` words from the even address `base` on, whole
    /// cells at a time.
    pub fn load_words(&self, base: Addr, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n + 1);
        for run in self.cell_runs(base, n + n % 2) {
            out.extend(run.iter().flat_map(|c| unpack(c.load(Ordering::Acquire))));
        }
        out.truncate(n);
        out
    }

    /// Zero-fill `n` words from `base` (host-side helper for initialising
    /// freshly allocated regions with a sentinel pattern).
    pub fn fill(&self, base: Addr, n: usize, v: u32) {
        let (mut addr, end) = (u64::from(base), u64::from(base) + n as u64);
        while addr < end {
            if addr % 2 == 1 || addr + 1 == end {
                self.update(addr as Addr, |_| v);
                addr += 1;
            } else {
                self.cell(addr as Addr)
                    .store(pack([v, v]), Ordering::Release);
                addr += 2;
            }
        }
        if let Some(s) = &self.san {
            s.mark_init_range(base, n);
        }
    }

    /// Wipe the arena back to an empty state: rewind the bump cursor to 0
    /// (freeing the entire capacity budget) and zero every previously
    /// handed-out word. Models a device reset after a fatal fault.
    /// Deliberately bypasses the sanitizer's `mark_init` — a reset device
    /// has *uninitialized* memory, and the caller is expected to also reset
    /// the sanitizer's shadow (see `Sanitizer::reset_shadow`) so initcheck
    /// semantics start fresh. Committed segments stay committed; only the
    /// allocation state is discarded.
    pub fn reset(&self) {
        let _g = self.grow_lock.lock();
        let cur = self.cursor.swap(0, Ordering::SeqCst);
        for addr in (0..cur).step_by(2) {
            self.cell(addr as Addr).store(0, Ordering::Release);
        }
    }
}

impl Drop for DeviceArena {
    fn drop(&mut self) {
        for seg in self.segments.iter() {
            let ptr = seg.load(Ordering::Acquire);
            if !ptr.is_null() {
                // SAFETY: pointer came from Box::into_raw of a
                // SEGMENT_CELLS-long boxed slice in ensure_committed;
                // reconstitute and drop it. (A boxed slice, unlike a
                // forgotten Vec, carries no capacity assumption to get
                // wrong.)
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        ptr,
                        SEGMENT_CELLS,
                    )));
                }
            }
        }
    }
}

// SAFETY: all interior state is atomic or lock-protected.
unsafe impl Send for DeviceArena {}
unsafe impl Sync for DeviceArena {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let a = DeviceArena::new(1024);
        let p1 = a.alloc_words(100, 32);
        let p2 = a.alloc_words(100, 32);
        assert_eq!(p1 % 32, 0);
        assert_eq!(p2 % 32, 0);
        assert!(p2 >= p1 + 100);
    }

    #[test]
    fn load_store_roundtrip() {
        let a = DeviceArena::new(1024);
        let p = a.alloc_words(4, 1);
        a.store(p, 0xDEAD_BEEF);
        assert_eq!(a.load(p), 0xDEAD_BEEF);
        assert_eq!(a.load(p + 1), 0);
    }

    #[test]
    fn cas_semantics() {
        let a = DeviceArena::new(64);
        let p = a.alloc_words(1, 1);
        assert_eq!(a.cas(p, 0, 5), Ok(0));
        assert_eq!(a.cas(p, 0, 9), Err(5));
        assert_eq!(a.load(p), 5);
    }

    #[test]
    fn fetch_ops() {
        let a = DeviceArena::new(64);
        let p = a.alloc_words(1, 1);
        assert_eq!(a.fetch_add(p, 3), 0);
        assert_eq!(a.fetch_add(p, 4), 3);
        assert_eq!(a.fetch_sub(p, 2), 7);
        assert_eq!(a.load(p), 5);
        a.store(p, 0b0011);
        assert_eq!(a.fetch_or(p, 0b0100), 0b0011);
        assert_eq!(a.fetch_and(p, 0b0110), 0b0111);
        assert_eq!(a.load(p), 0b0110);
    }

    /// Every 32-bit operation on either half of a cell leaves the other
    /// half as it was.
    #[test]
    fn word_ops_leave_the_other_half_intact() {
        let a = DeviceArena::new(64);
        let p = a.alloc_words(2, 2);
        for (mine, other) in [(p, p + 1), (p + 1, p)] {
            let sentinel = 0xA5A5_5A5A;
            let ops: [(&str, &dyn Fn()); 8] = [
                ("store", &|| a.store(mine, 0xFFFF_FFFF)),
                ("cas", &|| {
                    assert!(a.cas(mine, a.load(mine), 0xFFFF_FFFF).is_ok())
                }),
                ("failed cas", &|| assert!(a.cas(mine, 1, 2).is_err())),
                ("exchange", &|| {
                    a.exchange(mine, 0xFFFF_FFFF);
                }),
                ("fetch_add", &|| {
                    a.fetch_add(mine, u32::MAX);
                }),
                ("fetch_sub", &|| {
                    a.fetch_sub(mine, u32::MAX);
                }),
                ("fetch_or", &|| {
                    a.fetch_or(mine, u32::MAX);
                }),
                ("fetch_and", &|| {
                    a.fetch_and(mine, 0);
                }),
            ];
            for (name, op) in ops {
                a.store(mine, 7);
                a.store(other, sentinel);
                op();
                assert_eq!(
                    a.load(other),
                    sentinel,
                    "{name} on {mine} clobbered {other}"
                );
            }
            // Carries and borrows stay inside the word.
            a.store(mine, u32::MAX);
            assert_eq!(a.fetch_add(mine, 1), u32::MAX);
            assert_eq!(a.load(mine), 0);
            assert_eq!(a.fetch_sub(mine, 1), 0);
            assert_eq!(a.load(mine), u32::MAX);
            assert_eq!(a.load(other), sentinel);
        }
    }

    #[test]
    fn cas_pair_swaps_both_words_or_neither() {
        let a = DeviceArena::new(64);
        let p = a.alloc_words(4, 2);
        a.fill(p, 4, u32::MAX);
        assert_eq!(
            a.cas_pair(p + 2, [u32::MAX, u32::MAX], [3, 30]),
            Ok([u32::MAX, u32::MAX])
        );
        assert_eq!((a.load(p + 2), a.load(p + 3)), (3, 30));
        // Either word differing fails the whole swap.
        assert_eq!(a.cas_pair(p + 2, [3, 31], [4, 40]), Err([3, 30]));
        assert_eq!(a.cas_pair(p + 2, [4, 30], [4, 40]), Err([3, 30]));
        assert_eq!((a.load(p + 2), a.load(p + 3)), (3, 30));
        assert_eq!((a.load(p), a.load(p + 1)), (u32::MAX, u32::MAX));
        // A slab read sees the pair in address order.
        let q = a.alloc_words(SLAB_WORDS, SLAB_WORDS);
        a.fill(q, SLAB_WORDS, 0);
        a.cas_pair(q + 6, [0, 0], [11, 12]).unwrap();
        let slab = a.load_slab(q);
        assert_eq!((slab[6], slab[7]), (11, 12));
    }

    #[test]
    #[should_panic(expected = "not 8-byte aligned")]
    fn cas_pair_rejects_an_odd_address() {
        let a = DeviceArena::new(64);
        let p = a.alloc_words(4, 2);
        let _ = a.cas_pair(p + 1, [0, 0], [1, 1]);
    }

    #[test]
    fn fill_handles_odd_ends() {
        let a = DeviceArena::new(64);
        let p = a.alloc_words(8, 2);
        a.fill(p, 8, 1);
        a.fill(p + 1, 5, 9);
        let got: Vec<u32> = (0..8).map(|i| a.load(p + i)).collect();
        assert_eq!(got, [1, 9, 9, 9, 9, 9, 1, 1]);
    }

    #[test]
    fn slab_roundtrip() {
        let a = DeviceArena::new(1024);
        let p = a.alloc_words(SLAB_WORDS, SLAB_WORDS);
        let words: [u32; SLAB_WORDS] = std::array::from_fn(|i| i as u32 * 7);
        a.store_slab(p, &words);
        assert_eq!(a.load_slab(p), words);
    }

    #[test]
    fn bulk_words_roundtrip_across_a_segment_boundary() {
        let a = DeviceArena::new(64);
        let p = a.alloc_words(SEGMENT_WORDS + 64, 32);
        // A range that starts 32 words before the second segment.
        let base = SEGMENT_WORDS as u32 - 32;
        assert!(p <= base);
        let data: Vec<u32> = (0..45).collect();
        a.store_words(base, 64, &data, 7);
        let got = a.load_words(base, 64);
        assert_eq!(&got[..45], &data[..]);
        assert!(got[45..].iter().all(|&w| w == 7));
        assert_eq!(a.load_words(base, 3), [0, 1, 2], "an odd count truncates");
        assert_eq!(a.load(base + 40), 40);
    }

    #[test]
    fn grows_past_one_segment() {
        let a = DeviceArena::new(64);
        // Allocate more than one 1M-word segment.
        let p = a.alloc_words(SEGMENT_WORDS + 128, 32);
        let last = p + SEGMENT_WORDS as u32 + 100;
        a.store(last, 42);
        assert_eq!(a.load(last), 42);
    }

    #[test]
    fn fill_sets_range() {
        let a = DeviceArena::new(256);
        let p = a.alloc_words(64, 32);
        a.fill(p, 64, u32::MAX);
        for i in 0..64 {
            assert_eq!(a.load(p + i), u32::MAX);
        }
    }

    #[test]
    fn concurrent_fetch_add_is_atomic() {
        let a = std::sync::Arc::new(DeviceArena::new(64));
        let p = a.alloc_words(1, 1);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let a = a.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        a.fetch_add(p, 1);
                    }
                });
            }
        });
        assert_eq!(a.load(p), 40_000);
    }

    #[test]
    fn capacity_bounds_allocation_and_can_be_raised() {
        let a = DeviceArena::with_capacity(64, 100);
        let p = a.try_alloc_words(64, 32).unwrap();
        assert_eq!(p % 32, 0);
        let err = a.try_alloc_words(64, 32).unwrap_err();
        assert_eq!(
            err,
            OomError::Capacity {
                requested: 64,
                capacity: 100,
                allocated: 64
            }
        );
        // A smaller request that fits still succeeds...
        assert!(a.try_alloc_words(30, 1).is_ok());
        // ...and raising the budget unblocks the big one.
        a.set_capacity_words(200);
        assert!(a.try_alloc_words(64, 32).is_ok());
        assert!(a.allocated_words() <= 200);
    }

    #[test]
    fn failed_alloc_leaves_cursor_untouched() {
        let a = DeviceArena::with_capacity(64, 50);
        let before = a.allocated_words();
        assert!(a.try_alloc_words(64, 1).is_err());
        assert_eq!(a.allocated_words(), before);
    }

    #[test]
    #[should_panic(expected = "device memory budget exhausted")]
    fn infallible_alloc_panics_on_budget() {
        let a = DeviceArena::with_capacity(64, 16);
        a.alloc_words(64, 1);
    }

    #[test]
    fn reset_rewinds_cursor_and_zeroes_words() {
        let a = DeviceArena::with_capacity(256, 128);
        let p = a.try_alloc_words(100, 1).unwrap();
        a.fill(p, 100, 0xAB);
        assert!(a.try_alloc_words(100, 1).is_err(), "budget spent");
        a.reset();
        assert_eq!(a.allocated_words(), 0);
        // The full budget is available again and old contents are gone.
        let q = a.try_alloc_words(100, 1).unwrap();
        assert_eq!(a.load(q + 50), 0);
    }

    #[test]
    fn concurrent_alloc_never_overlaps() {
        let a = std::sync::Arc::new(DeviceArena::new(64));
        let mut all: Vec<u32> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let a = a.clone();
                    s.spawn(move || (0..1000).map(|_| a.alloc_words(32, 32)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
    }
}
