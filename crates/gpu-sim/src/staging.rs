//! Batch staging: leased, reused device buffers.
//!
//! A batch hands its kernel the batch's inputs, its status words and its
//! result slots through device memory; the host→device and device→host
//! copies are uncharged, matching the paper's methodology ("do not include
//! the time required to transfer memory between CPU and GPU"). Every such
//! buffer is a [`Staged`] lease from a per-device pool: whole slabs at the
//! start of a block of a power-of-two number of slabs (its size class),
//! filled and read back with whole-cell copies, and handed back to the
//! pool when it drops — on every return path, early and OOM returns
//! included. Only a lease the pool cannot serve allocates fresh arena
//! words, so `words_allocated` counts fresh words only, and a bounded
//! device does not run out of memory from staging alone.
//!
//! Kernels read staged data through the same charged [`crate::Warp`]
//! accessors as any other device memory, so where a buffer lives changes
//! no modeled figure. A released lease's shadow is reset (see
//! [`crate::Sanitizer::reset_range`]), so its next lessee is checked as if
//! it had allocated the words itself.
//!
//! Arena addresses do not survive [`Device::reset`]: the reset empties the
//! pool, and a lease taken before it is discarded, not pooled, when it
//! drops.

use crate::device::Device;
use crate::fault::OomError;
use crate::memory::{Addr, SLAB_WORDS};

/// A device's released leases, one free list per size class.
#[derive(Default)]
pub(crate) struct StagingPool {
    inner: parking_lot::Mutex<Pool>,
}

#[derive(Default)]
struct Pool {
    /// Bumped by every device reset: a lease taken in an older generation
    /// names words the reset handed back to the arena.
    generation: u64,
    /// `free[k]` holds released leases of `SLAB_WORDS << k` words.
    free: Vec<Vec<Addr>>,
}

/// The size class of an `n`-word lease: the smallest power-of-two number
/// of slabs that holds `n` words (at least one slab).
fn size_class(n: usize) -> usize {
    n.div_ceil(SLAB_WORDS)
        .max(1)
        .next_power_of_two()
        .trailing_zeros() as usize
}

impl StagingPool {
    /// Pop a released lease of `class`, if any, and the current generation.
    fn take(&self, class: usize) -> (Option<Addr>, u64) {
        let mut pool = self.inner.lock();
        let base = pool.free.get_mut(class).and_then(Vec::pop);
        (base, pool.generation)
    }

    /// Forget every released lease; leases still out are discarded when
    /// they drop. Called by [`Device::reset`].
    pub(crate) fn clear(&self) {
        let mut pool = self.inner.lock();
        pool.generation += 1;
        pool.free.clear();
    }
}

/// A lease of slab-aligned staging words on one device; see the module
/// docs. Dropping it hands the words back to the device's pool.
#[must_use = "a discarded lease is released at once"]
pub struct Staged<'d> {
    dev: &'d Device,
    base: Addr,
    class: usize,
    /// The words asked for, rounded up to whole slabs (at most the class).
    words: usize,
    generation: u64,
}

impl Device {
    /// Lease `n` words of staging memory, rounded up to whole slabs (one
    /// slab minimum). The words are *not* initialized: a kernel reading one it never wrote is
    /// an initcheck finding. Reuses a released lease of the same size
    /// class when one exists; otherwise allocates fresh arena words, which
    /// fails with a typed [`OomError`] on a budget-exhausted device.
    pub fn try_lease(&self, n: usize) -> Result<Staged<'_>, OomError> {
        let class = size_class(n);
        let (pooled, generation) = self.staging().take(class);
        let base = match pooled {
            Some(base) => base,
            None => self.try_alloc_words(SLAB_WORDS << class, SLAB_WORDS)?,
        };
        Ok(Staged {
            dev: self,
            base,
            class,
            words: n.div_ceil(SLAB_WORDS).max(1) * SLAB_WORDS,
            generation,
        })
    }

    /// Lease staging memory holding `data`, with every further word of the
    /// lease set to `pad` (see [`Staged::write`]).
    pub fn try_stage(&self, data: &[u32], pad: u32) -> Result<Staged<'_>, OomError> {
        let lease = self.try_lease(data.len())?;
        lease.write(data, pad);
        Ok(lease)
    }
}

impl Staged<'_> {
    /// The lease's first (slab-aligned) device address.
    pub fn addr(&self) -> Addr {
        self.base
    }

    /// The number of words leased: the request rounded up to whole slabs.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Fill the leased words from the host, whole cells at a time: `data`
    /// first, then `pad` — kernels fetch whole slabs, so pad words are
    /// written too. Uncharged.
    pub fn write(&self, data: &[u32], pad: u32) {
        self.dev
            .arena()
            .store_words(self.base, self.words, data, pad);
    }

    /// Read the lease's first `n` words back to the host, whole cells at a
    /// time. Uncharged.
    pub fn read(&self, n: usize) -> Vec<u32> {
        assert!(
            n <= self.words,
            "read of {n} words from a {}-word lease",
            self.words
        );
        self.dev.arena().load_words(self.base, n)
    }
}

impl Drop for Staged<'_> {
    fn drop(&mut self) {
        let mut pool = self.dev.staging().inner.lock();
        if pool.generation != self.generation {
            return;
        }
        if let Some(san) = self.dev.sanitizer() {
            san.reset_range(self.base, SLAB_WORDS << self.class);
        }
        if pool.free.len() <= self.class {
            pool.free.resize_with(self.class + 1, Vec::new);
        }
        pool.free[self.class].push(self.base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceConfig;

    fn words_allocated(dev: &Device) -> u64 {
        dev.counters().snapshot().words_allocated
    }

    #[test]
    fn size_classes_are_power_of_two_slab_counts() {
        let classes: Vec<usize> = [0, 1, 32, 33, 64, 65, 128, 129, 4096]
            .iter()
            .map(|&n| size_class(n))
            .collect();
        assert_eq!(classes, [0, 0, 0, 1, 1, 2, 2, 3, 7]);
    }

    #[test]
    fn released_leases_are_reused_by_size_class() {
        let dev = Device::new(1 << 12);
        let a = dev.try_stage(&[1, 2, 3], 9).unwrap();
        assert_eq!(a.addr() as usize % SLAB_WORDS, 0);
        assert_eq!(a.words(), SLAB_WORDS);
        assert_eq!(a.read(5), [1, 2, 3, 9, 9]);
        let a_base = a.addr();
        let fresh = words_allocated(&dev);
        drop(a);
        // Same class: the released words come back, nothing is allocated.
        let b = dev.try_lease(20).unwrap();
        assert_eq!(b.addr(), a_base);
        assert_eq!(words_allocated(&dev), fresh);
        // Another class while `b` is out: fresh words.
        let c = dev.try_lease(40).unwrap();
        assert_eq!(c.words(), 2 * SLAB_WORDS);
        assert_ne!(c.addr(), a_base);
        assert_eq!(words_allocated(&dev), fresh + 2 * SLAB_WORDS as u64);
        // A lease holds the request rounded to slabs, not its whole class.
        assert_eq!(dev.try_lease(65).unwrap().words(), 3 * SLAB_WORDS);
    }

    #[test]
    fn a_bounded_device_restages_without_growing() {
        let dev = Device::with_config(DeviceConfig::new(1 << 10).with_capacity_words(256));
        let data: Vec<u32> = (0..100).collect();
        for _ in 0..1000 {
            let lease = dev.try_stage(&data, 0).unwrap();
            assert_eq!(lease.read(100), data);
        }
        assert_eq!(dev.arena().allocated_words(), 128);
        // A class that does not fit the budget fails with a typed error.
        assert!(matches!(
            dev.try_lease(512).map(|l| l.addr()),
            Err(OomError::Capacity { .. })
        ));
    }

    #[test]
    fn reset_drops_the_pool_and_outstanding_leases() {
        let dev = Device::new(1 << 12);
        let pooled = dev.try_lease(1).unwrap().addr();
        let held = dev.try_lease(1).unwrap();
        assert_eq!(held.addr(), pooled, "the released lease was reused");
        dev.reset();
        // After the reset the arena hands the same words out afresh.
        let rebuilt = dev.alloc_words(SLAB_WORDS, SLAB_WORDS);
        assert_eq!(rebuilt, pooled);
        drop(held);
        let after = dev.try_lease(1).unwrap();
        assert_ne!(after.addr(), rebuilt, "a pre-reset lease was handed out");
    }
}
