//! Randomized stress tests for the protected cache: long interleaved
//! sequences of reads, writes, fault injections, and scrubs, replayed
//! against a software shadow model. Any divergence is a protection hole.

use memarray::ErrorShape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use twod_cache::{CacheConfig, ProtectedCache, TwoDScheme};

fn build(sets: usize, ways: usize, scheme: TwoDScheme) -> ProtectedCache {
    ProtectedCache::new(CacheConfig {
        sets,
        ways,
        data_scheme: scheme,
        tag_scheme: TwoDScheme {
            data_bits: CacheConfig::l1_64kb().tag_scheme.data_bits,
            ..scheme
        },
    })
}

fn stress(seed: u64, scheme: TwoDScheme, with_hard_faults: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cache = build(32, 2, scheme);
    let mut shadow: HashMap<u64, u64> = HashMap::new();
    let addr_space = 2048u64; // words

    for step in 0..1500 {
        match rng.gen_range(0..100) {
            0..=54 => {
                // Read: must match the shadow (default 0).
                let addr = rng.gen_range(0..addr_space) * 8;
                let expect = shadow.get(&addr).copied().unwrap_or(0);
                let got = cache.read(addr).unwrap_or_else(|e| {
                    panic!("step {step}: uncorrectable on read {addr:#x}: {e}")
                });
                assert_eq!(got, expect, "step {step} seed {seed} addr {addr:#x}");
            }
            55..=89 => {
                let addr = rng.gen_range(0..addr_space) * 8;
                let value: u64 = rng.gen();
                cache.write(addr, value).expect("write must succeed");
                shadow.insert(addr, value);
            }
            90..=95 => {
                // Soft clustered error within coverage. The paper's error
                // model is rare single events with recovery triggered on
                // detection, so the event is scrubbed before the next one
                // can land — two unrecovered clusters sharing a stripe
                // would (correctly) exceed any V-row scheme's coverage.
                let (vmax, hmax) = scheme.coverage();
                let h = rng.gen_range(1..=vmax.min(16));
                let w = rng.gen_range(1..=hmax.min(16));
                cache.inject_data_error(ErrorShape::Cluster {
                    row: rng.gen_range(0..32),
                    col: rng.gen_range(0..64),
                    height: h,
                    width: w,
                });
                cache.scrub().expect("recovery of a covered cluster");
            }
            96..=97 => {
                if with_hard_faults {
                    cache.inject_data_hard_error(
                        ErrorShape::Single {
                            row: rng.gen_range(0..32),
                            col: rng.gen_range(0..64),
                        },
                        rng.gen(),
                    );
                    cache.scrub().expect("recovery of a hard fault");
                }
            }
            _ => {
                cache.scrub().expect("scrub must succeed");
            }
        }
    }
    // Final sweep: every shadowed word still reads back.
    for (&addr, &value) in &shadow {
        assert_eq!(cache.read(addr).unwrap(), value, "final sweep {addr:#x}");
    }
}

#[test]
fn stress_edc_scheme_soft_errors() {
    for seed in 0..4 {
        stress(seed, TwoDScheme::l1_paper(), false);
    }
}

#[test]
fn stress_yield_scheme_with_hard_faults() {
    for seed in 10..13 {
        stress(seed, TwoDScheme::yield_mode(), true);
    }
}

#[test]
fn stress_l2_scheme_wide_words() {
    for seed in 20..22 {
        stress(seed, TwoDScheme::l2_paper(), false);
    }
}

#[test]
fn engine_stats_monotone_under_stress() {
    let mut cache = build(32, 2, TwoDScheme::l1_paper());
    let mut rng = StdRng::seed_from_u64(99);
    let mut last_writes = 0;
    for _ in 0..200 {
        let addr = rng.gen_range(0..512u64) * 8;
        cache.write(addr, rng.gen()).unwrap();
        let stats = cache.data_engine_stats();
        assert!(stats.writes > last_writes);
        // Every word write is backed by a read-before-write, but a
        // line-granular fill amortizes one row read over all the words
        // of the row, so the physical extra reads sit between
        // writes / interleave and writes.
        let interleave = cache.data_array().scheme().layout().interleave() as u64;
        assert!(stats.extra_reads >= stats.writes / interleave);
        assert!(stats.extra_reads <= stats.writes);
        last_writes = stats.writes;
    }
}
