//! Statistical uniformity pins for the two routing layers: the
//! rendezvous hash that spreads keys across shards, and the
//! `route_key` → `bank_of` mapping that spreads a shard's keys across
//! banks. Both are load-balancing mechanisms — a regression that skews
//! either (a weakened mixer, a truncated hash input) silently turns
//! into hot-shard/hot-bank tail latency, so we pin a chi-square
//! goodness-of-fit statistic under deterministic inputs.
//!
//! The bounds are generous multiples of the p=0.001 critical values:
//! with fixed seeds the counts are reproducible, and the failure mode
//! we guard against (broken mixing) produces statistics orders of
//! magnitude past any critical value, not marginal exceedances.

use cachesim::net::{protocol, rendezvous_shard};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use twod_cache::{CacheConfig, ConcurrentBankedCache};

/// Chi-square goodness-of-fit statistic against a uniform expectation.
fn chi_square(counts: &[u64], total: u64) -> f64 {
    let expected = total as f64 / counts.len() as f64;
    counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum()
}

const KEYS: u64 = 100_000;

/// Per-shard key counts under rendezvous hashing stay uniform for both
/// sequential keys (dense client keyspaces — the adversarial input for
/// a weak mixer) and pseudorandom keys, over 5 shards.
#[test]
fn rendezvous_spreads_keys_uniformly_across_shards() {
    const SHARDS: usize = 5;
    // df = 4, p=0.001 critical value 18.47; bound at ~4x.
    const BOUND: f64 = 75.0;

    let mut sequential = [0u64; SHARDS];
    for key in 0..KEYS {
        sequential[rendezvous_shard(key, SHARDS)] += 1;
    }
    let stat = chi_square(&sequential, KEYS);
    assert!(
        stat < BOUND,
        "sequential keys skew across shards: chi^2 = {stat:.1} (bound {BOUND}), counts {sequential:?}",
    );

    let mut rng = StdRng::seed_from_u64(0x5A_D1CE);
    let mut random = [0u64; SHARDS];
    for _ in 0..KEYS {
        let key = rng.gen::<u64>() & protocol::MAX_KEY;
        random[rendezvous_shard(key, SHARDS)] += 1;
    }
    let stat = chi_square(&random, KEYS);
    assert!(
        stat < BOUND,
        "random keys skew across shards: chi^2 = {stat:.1} (bound {BOUND}), counts {random:?}",
    );
}

/// Per-bank counts under the full client-visible mapping
/// (`route_key` then `bank_of`) stay uniform over 8 banks — again for
/// both sequential and pseudorandom keys. Sequential keys are the case
/// `route_key`'s mixer exists for: without it they would all land in
/// one bank's address stripe.
#[test]
fn route_key_spreads_keys_uniformly_across_banks() {
    const BANKS: usize = 8;
    // df = 7, p=0.001 critical value 24.32; bound at ~4x.
    const BOUND: f64 = 100.0;
    let cache = Arc::new(ConcurrentBankedCache::new(
        CacheConfig {
            sets: 64,
            ways: 4,
            ..CacheConfig::l1_64kb()
        },
        BANKS,
    ));

    let mut sequential = [0u64; BANKS];
    for key in 0..KEYS {
        sequential[cache.bank_of(protocol::route_key(key))] += 1;
    }
    let stat = chi_square(&sequential, KEYS);
    assert!(
        stat < BOUND,
        "sequential keys skew across banks: chi^2 = {stat:.1} (bound {BOUND}), counts {sequential:?}",
    );

    let mut rng = StdRng::seed_from_u64(0xBA2_D1CE);
    let mut random = [0u64; BANKS];
    for _ in 0..KEYS {
        let key = rng.gen::<u64>() & protocol::MAX_KEY;
        random[cache.bank_of(protocol::route_key(key))] += 1;
    }
    let stat = chi_square(&random, KEYS);
    assert!(
        stat < BOUND,
        "random keys skew across banks: chi^2 = {stat:.1} (bound {BOUND}), counts {random:?}",
    );
}

/// The shard split and the bank split compose: within each shard's key
/// population, banks still fill uniformly (routing layers must not
/// correlate — a shared hash between layers would stripe one shard's
/// keys into a subset of banks).
#[test]
fn shard_and_bank_routing_do_not_correlate() {
    const SHARDS: usize = 2;
    const BANKS: usize = 4;
    // df = 3 per shard, p=0.001 critical value 16.27; bound at ~4x.
    const BOUND: f64 = 65.0;
    let cache = Arc::new(ConcurrentBankedCache::new(
        CacheConfig {
            sets: 64,
            ways: 4,
            ..CacheConfig::l1_64kb()
        },
        BANKS,
    ));
    let mut per_shard = [[0u64; BANKS]; SHARDS];
    let mut shard_totals = [0u64; SHARDS];
    for key in 0..KEYS {
        let shard = rendezvous_shard(key, SHARDS);
        per_shard[shard][cache.bank_of(protocol::route_key(key))] += 1;
        shard_totals[shard] += 1;
    }
    for shard in 0..SHARDS {
        let stat = chi_square(&per_shard[shard], shard_totals[shard]);
        assert!(
            stat < BOUND,
            "shard {shard}'s keys skew across banks: chi^2 = {stat:.1} (bound {BOUND}), \
             counts {:?}",
            per_shard[shard],
        );
    }
}
