//! Allocation- and lock-amortization pin for the batched serve path:
//! a pipelined batch of clean GET/SET frames through
//! [`CacheServer::execute_frames`] must perform ZERO heap allocations
//! and take fewer than 0.2 bank-lock acquisitions per request — the
//! two contracts the batch refactor exists to provide.
//!
//! Separate binary from `alloc_regression.rs`/`scrub_alloc.rs` on
//! purpose: the counting allocator is process-global, so each test
//! binary registers its own and runs everything inside ONE `#[test]`
//! function (libtest worker threads would otherwise race the counter).

use bench::alloc_counter::{self, CountingAlloc};
use cachesim::net::{protocol, BatchArena, CacheServer, Request, ServerConfig};
use cachesim::ZipfSampler;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use twod_cache::{CacheConfig, ConcurrentBankedCache};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Asserts that `f` performs zero allocations in at least one of three
/// runs. The process-global counter can pick up stray one-off
/// allocations from harness threads (the server's parked monitor, lazy
/// stdio init), but a genuine serve-path regression allocates on every
/// request — thousands per window — and can never produce a zero
/// window.
fn assert_zero_allocs(label: &str, mut f: impl FnMut()) {
    let mut counts = [0u64; 3];
    for slot in &mut counts {
        let ((), allocs) = alloc_counter::count(&mut f);
        *slot = allocs;
        if allocs == 0 {
            return;
        }
    }
    panic!("{label} must not touch the allocator (3 windows: {counts:?})");
}

#[test]
fn batched_serve_path_is_allocation_free_and_lock_amortized() {
    const DEPTH: usize = 16;
    const BATCHES: usize = 128;
    const WRITE_FRACTION: f64 = 0.1;
    // Working set sized to the cache (4 banks x 256 sets x 4 ways =
    // 4096 lines for 8192 Zipf(1.1) ranks): the pin measures the
    // resident serve path, where optimistic reads should keep banks
    // untouched — a miss legitimately locks to fill.
    const KEY_RANKS: usize = 8192;

    let config = CacheConfig {
        sets: 256,
        ways: 4,
        ..CacheConfig::l1_64kb()
    };
    let cache = Arc::new(ConcurrentBankedCache::new(config, 4));
    let server = CacheServer::spawn(
        Arc::clone(&cache),
        None,
        "127.0.0.1:0",
        ServerConfig {
            // Park the monitor so its periodic poll stays out of the
            // measurement windows.
            monitor_interval: Duration::from_secs(3600),
            ..ServerConfig::default()
        },
    )
    .expect("loopback listener");

    // Pre-encode every batch: frame construction may allocate, the
    // serve path under measurement must not.
    let mut rng = StdRng::seed_from_u64(0x000A_110C_BA7C);
    let sampler = ZipfSampler::new(KEY_RANKS, 1.1);
    let mut id = 1u32;
    let batches: Vec<Vec<u8>> = (0..BATCHES)
        .map(|_| {
            let mut buf = Vec::new();
            for _ in 0..DEPTH {
                let key = sampler.sample(&mut rng) as u64;
                let req = if rng.gen_bool(WRITE_FRACTION) {
                    Request::Set {
                        key,
                        value: rng.gen(),
                    }
                } else {
                    Request::Get { key }
                };
                protocol::encode_request(id, &req, &mut buf);
                id = id.wrapping_add(1);
            }
            buf
        })
        .collect();

    let mut arena = BatchArena::new();
    let mut out = Vec::new();
    let ops = (BATCHES * DEPTH) as u64;
    let run_window = |arena: &mut BatchArena, out: &mut Vec<u8>| {
        for frames in &batches {
            out.clear();
            server
                .execute_frames(frames, out, arena)
                .expect("pre-encoded frames decode");
        }
    };
    // Warmup: sizes the arena, the response buffer, and first-touch
    // engine scratch, and fills the hot lines.
    run_window(&mut arena, &mut out);

    let locks_before = cache.lock_acquisitions();
    run_window(&mut arena, &mut out);
    let locks_per_op = (cache.lock_acquisitions() - locks_before) as f64 / ops as f64;
    assert!(
        locks_per_op < 0.2,
        "batched path took {locks_per_op:.4} bank lock(s)/op over {ops} ops (budget < 0.2)",
    );

    assert_zero_allocs("batched clean GET/SET serve path", || {
        run_window(&mut arena, &mut out)
    });

    server.shutdown();
}
