//! A multi-bank 2D-protected cache: the paper's shared-L2 organization,
//! where each bank carries its own vertical parity rows and recovers
//! independently (errors in one bank never stall the others).
//!
//! Since the concurrency refactor this type is a thin sequential facade
//! over [`ConcurrentBankedCache`]: the bank sharding, per-bank locking,
//! and stats aggregation live there, and this wrapper keeps the original
//! `&mut self` API for single-threaded callers (examples, figure bins,
//! equivalence tests). Use [`BankedProtectedCache::shared`] or
//! [`BankedProtectedCache::into_concurrent`] to hand the same cache to a
//! multi-threaded frontend.

use crate::{CacheConfig, CacheStats, ConcurrentBankedCache, ProtectedCache};
use memarray::{EngineError, ErrorShape};
use std::fmt;

/// An address-interleaved array of [`ProtectedCache`] banks with a
/// sequential (`&mut self`) API.
///
/// Lines are distributed across banks by line-address modulo, the same
/// mapping the paper's banked L2 uses. Each bank is an independent
/// 2D-protected cache with its own data/tag arrays and recovery engine.
///
/// # Examples
///
/// ```
/// use twod_cache::{BankedProtectedCache, CacheConfig};
///
/// let mut l2 = BankedProtectedCache::new(CacheConfig::l1_64kb(), 4);
/// l2.write(0x1234_5678, 99).unwrap();
/// assert_eq!(l2.read(0x1234_5678).unwrap(), 99);
/// ```
pub struct BankedProtectedCache {
    inner: ConcurrentBankedCache,
}

impl BankedProtectedCache {
    /// Creates `banks` independent banks, each configured per `config`.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0` or the per-bank geometry is invalid.
    pub fn new(config: CacheConfig, banks: usize) -> Self {
        BankedProtectedCache {
            inner: ConcurrentBankedCache::new(config, banks),
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.inner.banks()
    }

    /// Total capacity across banks.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Which bank serves `addr`.
    pub fn bank_of(&self, addr: u64) -> usize {
        self.inner.bank_of(addr)
    }

    /// The thread-safe service this facade wraps. Handing `&self.shared()`
    /// to worker threads is how a sequentially-built cache goes
    /// concurrent.
    pub fn shared(&self) -> &ConcurrentBankedCache {
        &self.inner
    }

    /// Unwraps into the thread-safe service.
    pub fn into_concurrent(self) -> ConcurrentBankedCache {
        self.inner
    }

    /// Reads the aligned 64-bit word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the owning bank's protection was
    /// defeated.
    pub fn read(&mut self, addr: u64) -> Result<u64, EngineError> {
        self.inner.read(addr)
    }

    /// Writes the aligned 64-bit word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the owning bank's protection was
    /// defeated.
    pub fn write(&mut self, addr: u64, value: u64) -> Result<(), EngineError> {
        self.inner.write(addr, value)
    }

    /// Injects an error into one bank's data array.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn inject_bank_error(&mut self, bank: usize, shape: ErrorShape) {
        self.inner.inject_bank_error(bank, shape);
    }

    /// Scrubs every bank.
    ///
    /// # Errors
    ///
    /// Returns the first bank's [`EngineError`] if any bank holds
    /// uncorrectable damage.
    pub fn scrub(&mut self) -> Result<(), EngineError> {
        self.inner.scrub()
    }

    /// Whether every bank passes its audit.
    pub fn audit(&self) -> bool {
        self.inner.audit()
    }

    /// Aggregated access statistics across banks.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Per-bank view (for inspection and targeted injection). Takes
    /// `&mut self` — the exclusive borrow reaches the bank without
    /// touching its lock, so no guard escapes and two `bank()` calls in
    /// one expression can never deadlock on the non-reentrant mutex
    /// underneath. Concurrent callers use
    /// [`ConcurrentBankedCache::lock_bank`] instead.
    pub fn bank(&mut self, index: usize) -> &ProtectedCache {
        self.inner.bank_mut(index)
    }

    /// Mutable per-bank view.
    pub fn bank_mut(&mut self, index: usize) -> &mut ProtectedCache {
        self.inner.bank_mut(index)
    }
}

impl fmt::Debug for BankedProtectedCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BankedProtectedCache({} banks x {}B)",
            self.banks(),
            self.inner.lock_bank(0).config().capacity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_banked(banks: usize) -> BankedProtectedCache {
        BankedProtectedCache::new(
            CacheConfig {
                sets: 16,
                ways: 2,
                ..CacheConfig::l1_64kb()
            },
            banks,
        )
    }

    #[test]
    fn addresses_spread_across_banks() {
        let c = small_banked(4);
        let mut seen = [false; 4];
        for line in 0..16u64 {
            seen[c.bank_of(line * 64)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Consecutive lines hit different banks.
        assert_ne!(c.bank_of(0), c.bank_of(64));
    }

    #[test]
    fn read_after_write_across_banks() {
        let mut c = small_banked(4);
        for i in 0..64u64 {
            c.write(i * 8, i + 1).unwrap();
        }
        for i in 0..64u64 {
            assert_eq!(c.read(i * 8).unwrap(), i + 1, "word {i}");
        }
    }

    #[test]
    fn bank_error_is_contained() {
        let mut c = small_banked(4);
        for i in 0..64u64 {
            c.write(i * 8, i ^ 0xABCD).unwrap();
        }
        c.inject_bank_error(
            2,
            ErrorShape::Cluster {
                row: 0,
                col: 0,
                height: 16,
                width: 16,
            },
        );
        // Every word in every bank still reads correctly; only bank 2
        // performs a recovery.
        for i in 0..64u64 {
            assert_eq!(c.read(i * 8).unwrap(), i ^ 0xABCD, "word {i}");
        }
        assert!(c.bank(2).data_engine_stats().recoveries >= 1);
        assert_eq!(c.bank(0).data_engine_stats().recoveries, 0);
        assert!(c.audit());
    }

    #[test]
    fn capacity_and_stats_aggregate() {
        let mut c = small_banked(2);
        assert_eq!(c.capacity(), 2 * 16 * 2 * 64);
        c.write(0, 1).unwrap();
        c.write(64, 2).unwrap(); // other bank
        let stats = c.stats();
        assert_eq!(stats.write_misses, 2);
    }

    #[test]
    fn local_addresses_do_not_collide() {
        // Two different global lines mapping to the same bank must get
        // different local addresses: distinct global addresses owned by
        // one bank must stay distinct after read/write round-trips.
        let mut c = small_banked(4);
        let a = 0u64; // line 0 -> bank 0 local line 0
        let b = 4 * 64; // line 4 -> bank 0 local line 1
        assert_eq!(c.bank_of(a), c.bank_of(b));
        c.write(a, 11).unwrap();
        c.write(b, 22).unwrap();
        assert_eq!(c.read(a).unwrap(), 11);
        assert_eq!(c.read(b).unwrap(), 22);
    }

    #[test]
    fn scrub_covers_all_banks() {
        let mut c = small_banked(3);
        for bank in 0..3 {
            c.inject_bank_error(bank, ErrorShape::Single { row: 1, col: 1 });
        }
        c.scrub().unwrap();
        assert!(c.audit());
    }

    #[test]
    fn facade_and_service_share_state() {
        let mut c = small_banked(2);
        c.write(0x40, 123).unwrap();
        // The concurrent service view reads the same cells.
        assert_eq!(c.shared().read(0x40).unwrap(), 123);
        let service = c.into_concurrent();
        assert_eq!(service.read(0x40).unwrap(), 123);
    }
}
