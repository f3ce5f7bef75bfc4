//! The concurrent sharded cache service under multi-threaded traffic.
//!
//! Builds an 8-bank 2D-protected cache behind the lock-per-bank
//! [`ConcurrentBankedCache`] frontend, then drives it with seeded Zipf
//! traffic at increasing thread counts — first clean, then with a
//! concurrent fault storm injecting 16x16 rectangular bursts into live
//! banks while the workers keep serving.
//!
//! ```text
//! cargo run --release --example concurrent_service
//! ```

use cachesim::{
    run_traffic, run_traffic_with_storm, AccessPattern, FaultScenario, FaultStorm, TrafficConfig,
};
use twod_cache::{CacheConfig, ConcurrentBankedCache};

fn main() {
    const BANKS: usize = 8;
    println!("== concurrent sharded cache service ==");
    println!(
        "8 banks x 64kB, data {:?}, one shared scheme (codec tables built once)\n",
        CacheConfig::l1_64kb().data_scheme.horizontal
    );

    // Throughput vs thread count. Every run replays the same total
    // number of operations, so ops/sec compares directly.
    println!("-- clean Zipf(1.0) traffic, 64k ops total --");
    for threads in [1usize, 2, 4, 8] {
        let cache = ConcurrentBankedCache::new(CacheConfig::l1_64kb(), BANKS);
        let cfg = TrafficConfig {
            threads,
            ops_per_thread: 64_000 / threads as u64,
            write_fraction: 0.3,
            lines: 4_096,
            pattern: AccessPattern::Zipf(1.0),
            seed: 42,
            verify: true,
        };
        let report = run_traffic(&cache, &cfg);
        let stats = cache.stats();
        println!(
            "  {threads} thread(s): {:>9.0} ops/s  (verified reads: {}, hit ratio {:.1}%)",
            report.ops_per_sec(),
            report.verified_reads,
            stats.hit_ratio() * 100.0
        );
    }

    // The same service absorbing a fault storm: clustered errors land in
    // banks 2 and 5 while the workers run; per-bank recovery repairs
    // them without stalling traffic to the other six banks.
    println!("\n-- hot-set traffic with a concurrent fault storm --");
    let cache = ConcurrentBankedCache::new(CacheConfig::l1_64kb(), BANKS);
    let cfg = TrafficConfig {
        threads: 4,
        ops_per_thread: 16_000,
        write_fraction: 0.2,
        lines: 2_048,
        pattern: AccessPattern::HotSet {
            hot_fraction: 0.1,
            hot_prob: 0.9,
        },
        seed: 7,
        verify: true,
    };
    let storm = FaultStorm {
        banks: vec![2, 5],
        injections: 12,
        scenario: FaultScenario::Rect {
            height: 16,
            width: 16,
        },
        seed: 1234,
    };
    let report = run_traffic_with_storm(&cache, &cfg, Some(&storm));
    println!(
        "  {} ops at {:.0} ops/s under {} clustered injections",
        report.total_ops,
        report.ops_per_sec(),
        report.injections
    );
    for bank in 0..BANKS {
        let engine = cache.lock_bank(bank).data_engine_stats();
        println!(
            "  bank {bank}: {} recoveries, {} bits restored",
            engine.recoveries, engine.bits_recovered
        );
    }
    cache.scrub().expect("post-storm scrub");
    assert!(cache.audit(), "service must end consistent");
    println!("\nfinal audit: clean — no wrong data served, siblings never stalled");
}
