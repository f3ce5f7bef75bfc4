//! Network load generator: drives a `twod-server` over loopback (or an
//! external `--addr`) with multi-connection Zipf traffic and emits
//! `BENCH_net.json` with throughput and p50/p99/p999 tail latency.
//!
//! ```text
//! cargo run --release -p bench --bin net_load -- --quick
//! cargo run --release -p bench --bin net_load -- --out-dir target/bench-gate
//! cargo run --release -p bench --bin net_load -- --addr 10.0.0.5:7401
//! ```
//!
//! Without `--addr` the binary spawns its own in-process server on
//! `127.0.0.1:0` — the traffic still crosses real loopback TCP sockets,
//! which is what the `net-smoke` CI lane runs. The process exits
//! nonzero on any wrong read (read-your-writes violation over the
//! wire), if no requests complete — the lost-write/panic gate — or if
//! any request is shed `DEGRADED`: the run injects no faults, so a
//! degraded bank is a false alarm.
//!
//! # Batched rows (`net_batch.*`)
//!
//! Alongside the legacy single-server `net.*` rows, the binary emits a
//! `net_batch` family:
//!
//! * `ops`/`p50`/`p99`/`p999` — a 2-shard loopback run through
//!   [`ShardedClient`](cachesim::net::ShardedClient)-backed
//!   `run_load_sharded`. **Caveat:** clients, both servers, and the
//!   harness share one CPU on CI loopback, so these are
//!   schedule-dependent smoke numbers (`runner_dependent` in the
//!   gate), not isolated-machine throughput.
//! * `locks_per_op` / `allocs_per_op` — *deterministic* amortization
//!   counters from an in-process harness that feeds pre-encoded
//!   pipeline-depth-16 Zipf(1.1) frame batches straight into
//!   [`CacheServer::execute_frames`] (no sockets, no kernel
//!   nondeterminism). The value rides in the `mean_ns` column (these
//!   rows are ratios, not latencies — same convention as
//!   `scrub.throughput_gbps`). Built with `--features count-allocs`,
//!   the `allocs_per_op` row also fills the `allocs_per_op` field,
//!   which the gate hard-pins at 0: the batched clean GET/SET serve
//!   path must never touch the allocator.

use bench::bench_json::{self, BenchRow};
use cachesim::net::{
    protocol, run_load, run_load_sharded, BatchArena, CacheServer, LoadConfig, LoadReport, Request,
    ServerConfig,
};
use cachesim::ZipfSampler;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use twod_cache::{CacheConfig, ConcurrentBankedCache, Scrubber, ScrubberConfig};

/// With the `count-allocs` feature this binary runs under the counting
/// allocator, so the `net_batch.allocs_per_op` row carries a real
/// measurement for the gate's zero-allocation pin.
#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: bench::alloc_counter::CountingAlloc = bench::alloc_counter::CountingAlloc::new();

/// Pinned default seed (same refresh policy as the campaign seed).
const DEFAULT_SEED: u64 = 0x5EED_0000_0000_7401;

/// Deterministic amortization counters from the in-process batch
/// harness.
struct BatchMetrics {
    locks_per_op: f64,
    allocs_per_op: Option<f64>,
    ops: u64,
}

fn bench_rows_json(
    mode: &str,
    r: &LoadReport,
    sharded: &LoadReport,
    batch: &BatchMetrics,
) -> String {
    let mut rows: Vec<BenchRow> = [
        // Mean per-request round-trip latency in ns (batch time / batch
        // size) — not throughput; tail rows carry the percentile
        // latencies.
        ("ops", r.mean_ns, r.ops),
        ("p50", r.p50_ns as f64, r.ops),
        ("p99", r.p99_ns as f64, r.ops),
        ("p999", r.p999_ns as f64, r.ops),
    ]
    .into_iter()
    .map(|(op, mean_ns, iters)| BenchRow {
        name: "net".to_string(),
        op: op.to_string(),
        mean_ns,
        iters,
        allocs_per_op: None,
    })
    .collect();
    rows.extend(
        [
            ("ops", sharded.mean_ns, sharded.ops),
            ("p50", sharded.p50_ns as f64, sharded.ops),
            ("p99", sharded.p99_ns as f64, sharded.ops),
            ("p999", sharded.p999_ns as f64, sharded.ops),
        ]
        .into_iter()
        .map(|(op, mean_ns, iters)| BenchRow {
            name: "net_batch".to_string(),
            op: op.to_string(),
            mean_ns,
            iters,
            allocs_per_op: None,
        }),
    );
    // Ratio rows: value in the mean_ns column by bench-v1 convention.
    rows.push(BenchRow {
        name: "net_batch".to_string(),
        op: "locks_per_op".to_string(),
        mean_ns: batch.locks_per_op,
        iters: batch.ops,
        allocs_per_op: None,
    });
    rows.push(BenchRow {
        name: "net_batch".to_string(),
        op: "allocs_per_op".to_string(),
        mean_ns: batch.allocs_per_op.unwrap_or(0.0),
        iters: batch.ops,
        allocs_per_op: batch.allocs_per_op,
    });
    bench_json::render(mode, &rows)
}

/// Runs the deterministic in-process batch harness: pre-encoded
/// pipeline-depth-16 Zipf(1.1) clean GET/SET frame batches through
/// [`CacheServer::execute_frames`], measuring bank-lock acquisitions
/// per request (exact, via the cache's amortization ledger) and — under
/// `count-allocs` — heap allocations per request (min of 3 windows, so
/// a stray harness-thread allocation cannot mask a regression into the
/// steady state).
fn run_batch_harness(seed: u64) -> BatchMetrics {
    const DEPTH: usize = 16;
    const BATCHES: usize = 256;
    const WRITE_FRACTION: f64 = 0.1;
    // Keys draw from a Zipf(1.1) head that mostly fits the cache
    // (4 banks x 256 sets x 4 ways = 4096 lines for 8192 ranks): the
    // counters characterize lock amortization on the resident serve
    // path, not the miss-fill path (a miss legitimately takes the bank
    // lock to fill, which would swamp the signal).
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
            // The monitor thread must stay asleep during measurement
            // windows: its periodic poll is background noise the
            // deterministic counters exist to exclude.
            monitor_interval: Duration::from_secs(3600),
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("net_load: spawn batch-harness server: {e}");
        std::process::exit(1);
    });

    // Pre-encode every batch: frame construction allocates, the serve
    // path under measurement must not.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C_4A11);
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
    let ops_per_window = (BATCHES * DEPTH) as u64;
    let run_window = |arena: &mut BatchArena, out: &mut Vec<u8>| {
        for frames in &batches {
            out.clear();
            server
                .execute_frames(frames, out, arena)
                .expect("pre-encoded frames decode");
        }
    };
    // Warmup: sizes the arena, the response buffer, and any first-touch
    // engine scratch, so the measured windows see the steady state.
    run_window(&mut arena, &mut out);

    let locks_before = cache.lock_acquisitions();
    run_window(&mut arena, &mut out);
    let locks_per_op = (cache.lock_acquisitions() - locks_before) as f64 / ops_per_window as f64;

    let allocs_per_op = if bench::alloc_counter::counting_feature_enabled() {
        let mut min_allocs = u64::MAX;
        for _ in 0..3 {
            let ((), allocs) = bench::alloc_counter::count(|| run_window(&mut arena, &mut out));
            min_allocs = min_allocs.min(allocs);
            if allocs == 0 {
                break;
            }
        }
        Some(min_allocs as f64 / ops_per_window as f64)
    } else {
        None
    };
    server.shutdown();
    BatchMetrics {
        locks_per_op,
        allocs_per_op,
        ops: ops_per_window,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut seed = DEFAULT_SEED;
    let mut addr: Option<String> = None;
    let mut out_dir = PathBuf::from("target/net");
    let mut banks = 8usize;
    let mut it = args.iter();
    let take_value = |it: &mut std::slice::Iter<'_, String>, flag: &str| -> String {
        it.next()
            .filter(|v| !v.starts_with("--"))
            .unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
            .clone()
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                let v = take_value(&mut it, "--seed");
                let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                seed = parsed.unwrap_or_else(|e| {
                    eprintln!("--seed (decimal, or hex with 0x prefix): {e}");
                    std::process::exit(2);
                });
            }
            "--addr" => addr = Some(take_value(&mut it, "--addr")),
            "--out-dir" => out_dir = PathBuf::from(take_value(&mut it, "--out-dir")),
            "--banks" => {
                banks = take_value(&mut it, "--banks").parse().unwrap_or_else(|e| {
                    eprintln!("--banks: {e}");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: net_load [--quick] [--seed S] [--addr A] [--out-dir DIR] [--banks N]"
                );
                println!();
                println!("  --quick    CI smoke sizing (small streams, seconds-long)");
                println!("  --addr     target an external server instead of spawning one");
                println!("  --out-dir  where BENCH_net.json lands (default target/net)");
                println!("  --banks    banks of the spawned server (ignored with --addr)");
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    let cfg = if quick {
        LoadConfig::quick(seed)
    } else {
        LoadConfig::full(seed)
    };

    // Spawn an in-process loopback server unless an external target was
    // given. The scrubber runs so HEALTH reflects a live system.
    let spawned: Option<CacheServer> = if addr.is_none() {
        let config = CacheConfig {
            sets: 64,
            ways: 4,
            ..CacheConfig::l1_64kb()
        };
        let cache = Arc::new(ConcurrentBankedCache::new(config, banks));
        let scrubber = Arc::new(Scrubber::spawn(
            Arc::clone(&cache),
            ScrubberConfig::default(),
        ));
        Some(
            CacheServer::spawn(
                cache,
                Some(scrubber),
                "127.0.0.1:0",
                ServerConfig::default(),
            )
            .unwrap_or_else(|e| {
                eprintln!("net_load: spawn loopback server: {e}");
                std::process::exit(1);
            }),
        )
    } else {
        None
    };
    let target: SocketAddr = match (&spawned, &addr) {
        (Some(server), _) => server.local_addr(),
        (None, Some(a)) => a.parse().unwrap_or_else(|e| {
            eprintln!("--addr '{a}': {e}");
            std::process::exit(2);
        }),
        (None, None) => unreachable!("either spawned or --addr"),
    };

    println!(
        "net_load: {} connection(s) x {} ops, pipeline depth {}, {} key rank(s), seed {seed:#x} -> {target}",
        cfg.connections, cfg.ops_per_connection, cfg.pipeline_depth, cfg.key_ranks,
    );
    let report = run_load(target, &cfg).unwrap_or_else(|e| {
        eprintln!("net_load: {e}");
        std::process::exit(1);
    });
    println!(
        "  {} ops in {:.2} s -> {:.0} req/s ({:.0} ns/req mean)",
        report.ops,
        report.wall_ns as f64 / 1e9,
        report.throughput_ops_per_sec,
        report.mean_ns,
    );
    println!(
        "  latency p50 {} ns, p99 {} ns, p999 {} ns, max {} ns",
        report.p50_ns, report.p99_ns, report.p999_ns, report.max_ns,
    );
    println!(
        "  {} acked write(s), {} value(s), {} verified read(s), {} wrong read(s)",
        report.acked_writes, report.values, report.verified_reads, report.wrong_reads,
    );
    println!(
        "  sheds: {} busy, {} degraded; {} fault(s), {} bad request(s), \
         {} reconnect(s), {} transport error(s)",
        report.busy,
        report.degraded,
        report.faults,
        report.bad_requests,
        report.reconnects,
        report.transport_errors,
    );
    if let Some(server) = &spawned {
        let s = server.stats();
        println!(
            "  server: {} req, {} conn accepted, {} protocol error(s), {} batch(es)",
            s.requests, s.connections_accepted, s.protocol_errors, s.batches,
        );
    }
    if let Some(server) = spawned {
        server.shutdown();
    }

    // Phase 2: the batched/sharded rows. Two fresh loopback shards
    // (always in-process, even with --addr: these rows characterize the
    // sharded client, not the external target).
    let shard_servers: Vec<CacheServer> = (0..2)
        .map(|_| {
            let config = CacheConfig {
                sets: 64,
                ways: 4,
                ..CacheConfig::l1_64kb()
            };
            let cache = Arc::new(ConcurrentBankedCache::new(config, banks));
            CacheServer::spawn(cache, None, "127.0.0.1:0", ServerConfig::default()).unwrap_or_else(
                |e| {
                    eprintln!("net_load: spawn shard server: {e}");
                    std::process::exit(1);
                },
            )
        })
        .collect();
    let shard_addrs: Vec<SocketAddr> = shard_servers.iter().map(|s| s.local_addr()).collect();
    println!(
        "net_load sharded: {} connection(s) x {} ops over {} shard(s), pipeline depth {}",
        cfg.connections,
        cfg.ops_per_connection,
        shard_addrs.len(),
        cfg.pipeline_depth,
    );
    let sharded = run_load_sharded(&shard_addrs, &cfg).unwrap_or_else(|e| {
        eprintln!("net_load sharded: {e}");
        std::process::exit(1);
    });
    println!(
        "  {} ops -> {:.0} req/s, p50 {} ns, p99 {} ns, p999 {} ns, \
         {} verified read(s), {} wrong read(s), {} degraded",
        sharded.ops,
        sharded.throughput_ops_per_sec,
        sharded.p50_ns,
        sharded.p99_ns,
        sharded.p999_ns,
        sharded.verified_reads,
        sharded.wrong_reads,
        sharded.degraded,
    );
    for server in shard_servers {
        server.shutdown();
    }

    // Phase 3: deterministic amortization counters (no sockets).
    let batch = run_batch_harness(seed);
    match batch.allocs_per_op {
        Some(a) => println!(
            "  batch harness: {:.4} bank lock(s)/op, {:.4} alloc(s)/op over {} ops",
            batch.locks_per_op, a, batch.ops,
        ),
        None => println!(
            "  batch harness: {:.4} bank lock(s)/op over {} ops \
             (allocs/op needs --features count-allocs)",
            batch.locks_per_op, batch.ops,
        ),
    }

    std::fs::create_dir_all(&out_dir).expect("creating net output directory");
    let bench_path = out_dir.join("BENCH_net.json");
    let mode = if quick { "quick" } else { "full" };
    std::fs::write(
        &bench_path,
        bench_rows_json(mode, &report, &sharded, &batch),
    )
    .unwrap_or_else(|e| panic!("writing {}: {e}", bench_path.display()));
    println!("wrote {}", bench_path.display());

    if report.ops == 0 || sharded.ops == 0 {
        eprintln!("net_load FAILED: no requests completed");
        std::process::exit(1);
    }
    if report.wrong_reads > 0 || sharded.wrong_reads > 0 {
        eprintln!(
            "net_load FAILED: {} wrong read(s) — read-your-writes violated over the wire",
            report.wrong_reads + sharded.wrong_reads,
        );
        std::process::exit(1);
    }
    if report.degraded > 0 || sharded.degraded > 0 {
        // No fault is ever injected here, so no engine evidence can
        // justify degrading a bank: any DEGRADED shed is a false alarm.
        eprintln!(
            "net_load FAILED: {} request(s) shed DEGRADED on a fault-free cache",
            report.degraded + sharded.degraded,
        );
        std::process::exit(1);
    }
    if batch.locks_per_op >= 0.2 {
        eprintln!(
            "net_load FAILED: {:.4} bank lock(s)/op on the batched path (budget < 0.2)",
            batch.locks_per_op,
        );
        std::process::exit(1);
    }
    if let Some(a) = batch.allocs_per_op {
        if a > 0.0 {
            eprintln!(
                "net_load FAILED: {a:.4} alloc(s)/op on the clean batched serve path (budget = 0)",
            );
            std::process::exit(1);
        }
    }
    println!(
        "net_load healthy: zero wrong reads and zero DEGRADED sheds over {} verified \
         ({} sharded ops)",
        report.verified_reads, sharded.ops,
    );
}
