//! Torn-read coverage for the seqlock optimistic read path of
//! [`ConcurrentBankedCache`].
//!
//! The seeded yield-stress test pins **one** bank (so every access
//! contends on a single seqlock) and races optimistic readers against
//! writers, scrub slices, and injected transient faults. Each writer
//! publishes a per-line monotonic write stamp *after* its cache write
//! completes; a reader that first observes stamp `s` for a line and then
//! reads the line must see stamp `>= s` — anything less is a stale or
//! torn value leaking through the fast path. The high half of every
//! stored word carries the line number, so a torn or cross-line value
//! also fails loudly.
//!
//! The property test pins the other half of the contract: whenever the
//! sequence check cannot succeed (a [`BankGuard`] is live, so the bank's
//! sequence is odd), the optimistic path must refuse — for *any*
//! address — and the locked fallback must still serve the value after
//! the guard drops.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use twod_cache::{CacheConfig, ConcurrentBankedCache};

/// The shared 16-set 2-way geometry the concurrency unit tests use:
/// small enough that recovery marches are fast, large enough that a
/// whole working set stays resident.
fn small_concurrent(banks: usize) -> ConcurrentBankedCache {
    ConcurrentBankedCache::new(
        CacheConfig {
            sets: 16,
            ways: 2,
            ..CacheConfig::l1_64kb()
        },
        banks,
    )
}

/// Lines the stress test keeps resident (capacity is 32 lines: lines
/// 0..16 fill way 0 of every set, 16..24 add a second way to half).
const LINES: u64 = 24;
const LINE: u64 = 64;
const STAMP_MASK: u64 = 0xFFFF_FFFF;

fn encode(line: u64, stamp: u64) -> u64 {
    (line << 32) | (stamp & STAMP_MASK)
}

/// One hot bank, 2 writers, 3 optimistic readers, 1 chaos thread
/// injecting detectable transient faults and running scrub slices.
/// Readers assert the per-line monotonic write-stamp invariant: no
/// reader ever observes a value older than a stamp it already saw
/// published, and no value ever decodes to the wrong line.
#[test]
fn stress_readers_never_observe_torn_or_stale_values() {
    const READERS: usize = 2;
    const WRITERS: u64 = 2;
    // The chaos schedule bounds the run: writers and readers race until
    // every fault round has been injected and scrubbed. Debug-mode
    // recovery marches are expensive; the release-mode CI stress lane
    // re-runs this with optimizations on and a longer campaign.
    const CHAOS_ROUNDS: u64 = if cfg!(debug_assertions) { 24 } else { 160 };

    let cache = small_concurrent(1);
    let published: Vec<AtomicU64> = (0..LINES).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);

    // Prewarm: every line resident with stamp 0 before anyone races.
    for line in 0..LINES {
        cache.write(line * LINE, encode(line, 0)).unwrap();
    }

    thread::scope(|s| {
        for w in 0..WRITERS {
            let cache = &cache;
            let published = &published;
            let stop = &stop;
            s.spawn(move || {
                let mut stamp = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    stamp += 1;
                    for line in (w..LINES).step_by(WRITERS as usize) {
                        cache.write(line * LINE, encode(line, stamp)).unwrap();
                        // Publish only after the cache write committed:
                        // the Release pairs with the reader's Acquire, so
                        // an observed stamp implies the write finished.
                        published[line as usize].store(stamp, Ordering::Release);
                        thread::yield_now();
                    }
                }
            });
        }

        {
            let cache = &cache;
            let stop = &stop;
            s.spawn(move || {
                use memarray::ErrorShape;
                for round in 0..CHAOS_ROUNDS {
                    // A 16x16 transient cluster is horizontally
                    // detectable on this geometry and recoverable by the
                    // vertical code: readers must reject, never misread.
                    // Clusters force full recovery marches, so ration
                    // them — singles carry most of the probe-dirty load.
                    if round % 8 == 0 {
                        cache.inject_bank_error(
                            0,
                            ErrorShape::Cluster {
                                row: 0,
                                col: 0,
                                height: 16,
                                width: 16,
                            },
                        );
                    } else {
                        cache.inject_bank_error(
                            0,
                            ErrorShape::Single {
                                row: (round % 64) as usize,
                                col: (round % 61) as usize,
                            },
                        );
                    }
                    // Scrub slices sequence as seqlock writers too.
                    cache.scrub_bank_step(0, 16).unwrap();
                    for _ in 0..64 {
                        thread::yield_now();
                    }
                }
                // Leave the array clean for the final audit, then let
                // the writers and readers drain.
                cache.scrub().unwrap();
                stop.store(true, Ordering::Relaxed);
            });
        }

        for r in 0..READERS {
            let cache = &cache;
            let published = &published;
            let stop = &stop;
            s.spawn(move || {
                // Cheap deterministic per-reader line sequence; quality
                // does not matter, coverage of all lines does.
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (r as u64).wrapping_mul(0xA24B_AED4);
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let line = x % LINES;
                    let floor = published[line as usize].load(Ordering::Acquire);
                    let value = cache.read(line * LINE).unwrap();
                    assert_eq!(value >> 32, line, "torn/cross-line value {value:#x}");
                    assert!(
                        value & STAMP_MASK >= floor,
                        "stale read on line {line}: stamp {} < published floor {floor}",
                        value & STAMP_MASK,
                    );
                    if x & 0xF == 0 {
                        thread::yield_now();
                    }
                }
            });
        }
    });

    // The race actually exercised the fast path and the arrays survived.
    assert!(cache.optimistic_hits() > 0, "fast path never taken");
    assert!(cache.audit(), "arrays failed the post-race audit");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whenever the sequence check cannot pass — a guard holds the bank,
    /// so its sequence is odd — the fast path refuses every address that
    /// maps to that bank, resident or not, and the locked path still
    /// serves the committed value once the guard is gone.
    #[test]
    fn fallback_taken_whenever_sequence_check_fails(
        banks in 1usize..=4,
        lines in proptest::collection::vec(0u64..16, 1..12),
    ) {
        let cache = small_concurrent(banks);
        for &line in &lines {
            cache.write(line * LINE, encode(line, 7)).unwrap();
        }
        for &line in &lines {
            let addr = line * LINE;
            let guard = cache.lock_bank(cache.bank_of(addr));
            prop_assert_eq!(
                cache.try_optimistic_read(addr), None,
                "fast path served {addr:#x} under a live guard"
            );
            drop(guard);
            prop_assert_eq!(cache.read(addr).unwrap(), encode(line, 7));
        }
    }
}
