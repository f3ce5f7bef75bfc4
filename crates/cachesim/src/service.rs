//! Multi-threaded traffic driver for the concurrent sharded cache
//! service, and the campaigns built on it.
//!
//! Worker threads replay seeded, pre-generated access streams (uniform,
//! Zipf, or hot-set popularity — see [`crate::ZipfSampler`] /
//! [`crate::HotSetSampler`]) against a shared [`ConcurrentBankedCache`],
//! optionally while a fault-storm thread injects events of one
//! [`FaultScenario`] into live banks. A run reports throughput
//! (ops/sec), verifies read-your-writes per address along the way, and
//! is deterministic per `(seed, threads)` in the streams it offers (the
//! interleaving across threads is, of course, up to the scheduler).
//!
//! Address ownership: each thread *writes* only lines it owns (a hashed
//! partition of the line space) but *reads* every line. Owned reads are
//! verified against the thread's private model of its own writes — a
//! per-address read-your-writes check that holds under any thread
//! interleaving precisely because owners are exclusive writers.
//!
//! Two pieces are shared across this module:
//!
//! * **One fault injector.** [`campaign::scrub_and_inject`] is the only
//!   code that places faults: it scrubs the target bank, then places one
//!   [`FaultScenario`] event. The in-process campaign, the traffic
//!   storm ([`run_traffic_with_storm`]) and the network chaos storms
//!   ([`net::chaos`]) all go through it.
//! * **One verified client loop** for network traffic
//!   ([`net::loadgen`]): the load generator and both network chaos
//!   phases run it over a [`net::NetClient`] or a [`net::ShardedClient`].

pub mod campaign;
pub mod net;

use crate::{HotSetSampler, ZipfSampler};
use campaign::{scrub_and_inject, FaultScenario};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use twod_cache::{ConcurrentBankedCache, LINE_BYTES};

/// Popularity model for generated traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AccessPattern {
    /// Every line equally likely.
    Uniform,
    /// Zipf-distributed line popularity with the given exponent
    /// (`1.0` = classic Zipf).
    Zipf(f64),
    /// `hot_fraction` of the lines receive `hot_prob` of the accesses.
    HotSet {
        /// Fraction of the line space that is hot (e.g. `0.1`).
        hot_fraction: f64,
        /// Probability an access targets the hot set (e.g. `0.9`).
        hot_prob: f64,
    },
}

/// Configuration of one traffic run.
#[derive(Clone, Copy, Debug)]
pub struct TrafficConfig {
    /// Worker threads replaying traffic.
    pub threads: usize,
    /// Operations per worker.
    pub ops_per_thread: u64,
    /// Fraction of operations that are writes.
    pub write_fraction: f64,
    /// Distinct cache lines the traffic touches.
    pub lines: u64,
    /// Popularity model over those lines.
    pub pattern: AccessPattern,
    /// Master seed; worker `t` derives its stream from `(seed, t)`.
    pub seed: u64,
    /// Verify read-your-writes on owned addresses during the replay.
    /// Costs a per-thread `HashMap` update per operation; benchmarks
    /// measuring raw service throughput turn it off so the sequential
    /// baseline and the concurrent path do identical per-op work.
    pub verify: bool,
}

impl TrafficConfig {
    /// A small smoke-test configuration.
    pub fn smoke() -> Self {
        TrafficConfig {
            threads: 2,
            ops_per_thread: 2_000,
            write_fraction: 0.3,
            lines: 256,
            pattern: AccessPattern::Zipf(1.0),
            seed: 0xC0FFEE,
            verify: true,
        }
    }
}

/// One pre-generated cache operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read the aligned 64-bit word at the address.
    Read(u64),
    /// Write the value to the aligned 64-bit word at the address.
    Write(u64, u64),
}

/// Fault-storm side-load: while workers run, an injector thread fires
/// events of one [`FaultScenario`] into the given banks through
/// [`scrub_and_inject`], exercising recovery under live traffic.
#[derive(Clone, Debug)]
pub struct FaultStorm {
    /// Banks to target, round-robin.
    pub banks: Vec<usize>,
    /// Total injections across the run.
    pub injections: usize,
    /// The fault shape each injection places.
    pub scenario: FaultScenario,
    /// Injector RNG seed (event positions).
    pub seed: u64,
}

/// Outcome of one traffic run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceReport {
    /// Worker threads that ran.
    pub threads: usize,
    /// Total operations completed across workers.
    pub total_ops: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// Owned reads that were verified against the writer's own model.
    pub verified_reads: u64,
    /// Wall-clock time of the replay phase (generation excluded).
    pub elapsed: Duration,
    /// Fault injections fired during the run.
    pub injections: usize,
}

impl ServiceReport {
    /// Aggregate throughput in operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.total_ops as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Mean latency per operation in nanoseconds (wall-clock across all
    /// threads; under perfect scaling this drops with the thread count).
    pub fn mean_ns_per_op(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            self.elapsed.as_nanos() as f64 / self.total_ops as f64
        }
    }
}

/// Which worker owns (exclusively writes) a line: a hashed partition so
/// every thread's write set spreads over all banks. The first `threads`
/// lines are pinned round-robin — a pure multiplicative hash can leave a
/// thread owning nothing in small line spaces, and generation relies on
/// every thread owning at least one line whenever `lines >= threads`.
fn owner_of_line(line: u64, threads: usize) -> usize {
    if line < threads as u64 {
        line as usize
    } else {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % threads
    }
}

/// Generates worker `thread`'s operation stream for `cfg`.
/// Deterministic in `(cfg.seed, thread)`. Writes target only lines the
/// thread owns under `owner_of_line`; reads target any line.
pub fn generate_ops(cfg: &TrafficConfig, thread: usize) -> Vec<Op> {
    assert!(cfg.threads >= 1, "need at least one worker");
    assert!(
        cfg.lines >= cfg.threads as u64,
        "need at least one line per worker (lines {} < threads {})",
        cfg.lines,
        cfg.threads
    );
    assert!(
        (0.0..=1.0).contains(&cfg.write_fraction),
        "write fraction must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(
        cfg.seed
            .wrapping_add((thread as u64).wrapping_mul(0xA076_1D64_78BD_642F)),
    );
    let zipf = match cfg.pattern {
        AccessPattern::Zipf(theta) => Some(ZipfSampler::new(cfg.lines as usize, theta)),
        _ => None,
    };
    let hot = match cfg.pattern {
        AccessPattern::HotSet {
            hot_fraction,
            hot_prob,
        } => {
            let hot_lines =
                ((cfg.lines as f64 * hot_fraction) as usize).clamp(1, cfg.lines as usize - 1);
            Some(HotSetSampler::new(cfg.lines as usize, hot_lines, hot_prob))
        }
        _ => None,
    };
    let mut ops = Vec::with_capacity(cfg.ops_per_thread as usize);
    let sample_line = |rng: &mut StdRng| -> u64 {
        match (&zipf, &hot) {
            (Some(z), _) => z.sample(rng) as u64,
            (_, Some(h)) => h.sample(rng) as u64,
            _ => rng.gen_range(0..cfg.lines),
        }
    };
    for _ in 0..cfg.ops_per_thread {
        let is_write = rng.gen_bool(cfg.write_fraction);
        if is_write {
            // Resample until the line is owned: keeps the write-set
            // disjoint across threads without biasing popularity within
            // the owned subset. Bounded retries, then fall back to a
            // deterministic owned line so generation always terminates.
            let mut line = None;
            for _ in 0..64 {
                let l = sample_line(&mut rng);
                if owner_of_line(l, cfg.threads) == thread {
                    line = Some(l);
                    break;
                }
            }
            let line = line.unwrap_or_else(|| {
                (0..cfg.lines)
                    .find(|&l| owner_of_line(l, cfg.threads) == thread)
                    .expect("every thread owns at least one line for lines >= threads")
            });
            let word = rng.gen_range(0..(LINE_BYTES as u64 / 8));
            let value: u64 = rng.gen();
            ops.push(Op::Write(line * LINE_BYTES as u64 + word * 8, value));
        } else {
            let line = sample_line(&mut rng);
            let word = rng.gen_range(0..(LINE_BYTES as u64 / 8));
            ops.push(Op::Read(line * LINE_BYTES as u64 + word * 8));
        }
    }
    ops
}

/// Replays one pre-generated stream against the shared cache, verifying
/// read-your-writes on owned addresses when `verify` is set, and pushing
/// each operation's latency in nanoseconds onto `latencies` when given.
/// Returns `(reads, writes, verified_reads)`.
///
/// # Panics
///
/// Panics if the cache returns a wrong value for an address this worker
/// exclusively writes — a violation of per-address coherence — or if a
/// read or write reports uncorrectable damage.
pub fn replay_ops(
    cache: &ConcurrentBankedCache,
    ops: &[Op],
    thread: usize,
    threads: usize,
    verify: bool,
    mut latencies: Option<&mut Vec<u64>>,
) -> (u64, u64, u64) {
    let mut model: HashMap<u64, u64> = HashMap::new();
    let (mut reads, mut writes, mut verified) = (0u64, 0u64, 0u64);
    for op in ops {
        let begun = latencies.is_some().then(Instant::now);
        let mut lap = || {
            if let (Some(sink), Some(begun)) = (latencies.as_deref_mut(), begun) {
                sink.push(begun.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
        };
        match *op {
            Op::Write(addr, value) => {
                cache
                    .write(addr, value)
                    .expect("write defeated the protection");
                lap();
                if verify {
                    model.insert(addr, value);
                }
                writes += 1;
            }
            Op::Read(addr) => {
                let got = cache.read(addr).expect("read defeated the protection");
                lap();
                reads += 1;
                if verify {
                    let line = addr / LINE_BYTES as u64;
                    if owner_of_line(line, threads) == thread {
                        if let Some(&expect) = model.get(&addr) {
                            assert_eq!(
                                got, expect,
                                "read-your-writes violated at addr {addr:#x} (thread {thread})"
                            );
                            verified += 1;
                        }
                    }
                }
            }
        }
    }
    (reads, writes, verified)
}

/// The storm loop behind every fault storm in this module: fires up to
/// `injections` events through [`scrub_and_inject`], the `i`-th into
/// bank `banks[i % banks.len()]` with scenario `deck[i % deck.len()]`,
/// pausing `pause` after each (yielding when it is zero), and stops
/// early once `stop` is set — but always fires at least one event, so a
/// storm whose thread is scheduled late still injects. Returns the
/// injections fired.
///
/// # Panics
///
/// Panics if a pre-injection scrub finds damage it cannot correct: the
/// injection discipline no longer holds, so the run has failed.
pub(crate) fn fire_storm(
    cache: &ConcurrentBankedCache,
    banks: &[usize],
    deck: &[FaultScenario],
    injections: usize,
    seed: u64,
    pause: Duration,
    stop: &AtomicBool,
) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fired = 0;
    while fired < injections {
        let (bank, scenario) = (banks[fired % banks.len()], &deck[fired % deck.len()]);
        scrub_and_inject(cache, bank, scenario, &mut rng)
            .expect("pre-injection scrub found damage it could not correct");
        fired += 1;
        if stop.load(Ordering::Acquire) {
            break;
        } else if pause.is_zero() {
            std::thread::yield_now();
        } else {
            std::thread::sleep(pause);
        }
    }
    fired
}

/// Runs `cfg.threads` workers against the shared cache and reports
/// aggregate throughput. Streams are pre-generated outside the timed
/// region; a barrier lines the workers up so the clock measures pure
/// replay.
pub fn run_traffic(cache: &ConcurrentBankedCache, cfg: &TrafficConfig) -> ServiceReport {
    run_traffic_with_storm(cache, cfg, None)
}

/// [`run_traffic`] with an optional concurrent fault storm: an injector
/// thread fires `storm.injections` events of `storm.scenario` into the
/// configured banks while the workers run, each through
/// [`scrub_and_inject`]. All reads still verify, proving
/// recovery-under-load never serves wrong data and one bank's recovery
/// does not block traffic to siblings.
///
/// # Panics
///
/// As [`replay_ops`], and if a pre-injection scrub finds damage it
/// cannot correct (the injection discipline was broken).
pub fn run_traffic_with_storm(
    cache: &ConcurrentBankedCache,
    cfg: &TrafficConfig,
    storm: Option<&FaultStorm>,
) -> ServiceReport {
    assert!(cfg.threads >= 1, "need at least one worker");
    let streams: Vec<Vec<Op>> = (0..cfg.threads).map(|t| generate_ops(cfg, t)).collect();
    // Workers + optionally the injector all start together.
    let parties = cfg.threads + usize::from(storm.is_some());
    let barrier = Barrier::new(parties);
    let done = AtomicBool::new(false);
    let mut report = ServiceReport {
        threads: cfg.threads,
        ..Default::default()
    };
    let mut injections_fired = 0usize;
    std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(cfg.threads);
        for (t, ops) in streams.iter().enumerate() {
            let barrier = &barrier;
            let done = &done;
            let threads = cfg.threads;
            let verify = cfg.verify;
            workers.push(s.spawn(move || {
                barrier.wait();
                let started = Instant::now();
                let counts = replay_ops(cache, ops, t, threads, verify, None);
                let elapsed = started.elapsed();
                done.store(true, Ordering::Release);
                (counts, elapsed)
            }));
        }
        let injector = storm.map(|storm| {
            let (barrier, done) = (&barrier, &done);
            s.spawn(move || {
                barrier.wait();
                fire_storm(
                    cache,
                    &storm.banks,
                    std::slice::from_ref(&storm.scenario),
                    storm.injections,
                    storm.seed,
                    Duration::ZERO,
                    done,
                )
            })
        });
        let mut max_elapsed = Duration::ZERO;
        for worker in workers {
            let ((reads, writes, verified), elapsed) = worker.join().expect("worker panicked");
            report.reads += reads;
            report.writes += writes;
            report.verified_reads += verified;
            max_elapsed = max_elapsed.max(elapsed);
        }
        report.elapsed = max_elapsed;
        if let Some(injector) = injector {
            injections_fired = injector.join().expect("injector panicked");
        }
    });
    report.total_ops = report.reads + report.writes;
    report.injections = injections_fired;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use twod_cache::CacheConfig;

    fn service(banks: usize) -> ConcurrentBankedCache {
        ConcurrentBankedCache::new(
            CacheConfig {
                sets: 16,
                ways: 2,
                ..CacheConfig::l1_64kb()
            },
            banks,
        )
    }

    #[test]
    fn streams_are_deterministic_and_ownership_disjoint() {
        let cfg = TrafficConfig::smoke();
        let a = generate_ops(&cfg, 0);
        let b = generate_ops(&cfg, 0);
        assert_eq!(a, b, "same (seed, thread) must give the same stream");
        let other = generate_ops(&cfg, 1);
        assert_ne!(a, other, "threads draw distinct streams");
        // Writes respect the ownership partition.
        for t in 0..cfg.threads {
            for op in generate_ops(&cfg, t) {
                if let Op::Write(addr, _) = op {
                    let line = addr / LINE_BYTES as u64;
                    assert_eq!(owner_of_line(line, cfg.threads), t);
                }
            }
        }
    }

    #[test]
    fn every_thread_owns_a_line_even_in_tiny_spaces() {
        // Regression: a pure hashed partition left some threads without
        // any owned line in small spaces, panicking generation.
        for threads in 1..=8usize {
            for lines in threads as u64..=(threads as u64 + 16) {
                for t in 0..threads {
                    assert!(
                        (0..lines).any(|l| owner_of_line(l, threads) == t),
                        "thread {t}/{threads} owns nothing in {lines} lines"
                    );
                }
                let cfg = TrafficConfig {
                    threads,
                    ops_per_thread: 64,
                    lines,
                    write_fraction: 0.5,
                    ..TrafficConfig::smoke()
                };
                for t in 0..threads {
                    let _ = generate_ops(&cfg, t); // must not panic
                }
            }
        }
    }

    #[test]
    fn traffic_runs_and_verifies() {
        let cache = service(4);
        let cfg = TrafficConfig::smoke();
        let report = run_traffic(&cache, &cfg);
        assert_eq!(report.total_ops, cfg.ops_per_thread * cfg.threads as u64);
        assert_eq!(report.reads + report.writes, report.total_ops);
        assert!(report.verified_reads > 0, "some owned reads must verify");
        assert!(report.ops_per_sec() > 0.0);
        assert!(cache.audit());
    }

    #[test]
    fn hot_set_traffic_hits_cache() {
        let cache = service(2);
        let cfg = TrafficConfig {
            pattern: AccessPattern::HotSet {
                hot_fraction: 0.1,
                hot_prob: 0.9,
            },
            lines: 64,
            ..TrafficConfig::smoke()
        };
        let report = run_traffic(&cache, &cfg);
        assert_eq!(report.total_ops, cfg.ops_per_thread * cfg.threads as u64);
        let stats = cache.stats();
        // With 90% of traffic on 6-7 hot lines, hits dominate misses.
        assert!(stats.hit_ratio() > 0.5, "hit ratio {}", stats.hit_ratio());
    }

    #[test]
    fn fault_storm_under_load_stays_correct() {
        // One storm per injecting library entry, so row and column
        // strips and L-shaped bursts reach live traffic, not just
        // rectangles. `replay_ops` panics on any wrong owned read, so a
        // completed run had none.
        let deck = FaultScenario::storm_deck();
        assert_eq!(deck.len(), FaultScenario::library().len() - 1);
        for (i, scenario) in deck.into_iter().enumerate() {
            let cache = service(4);
            let cfg = TrafficConfig {
                ops_per_thread: 1_500,
                seed: 0x5702_0000 + i as u64,
                ..TrafficConfig::smoke()
            };
            let storm = FaultStorm {
                banks: vec![1, 3, 0, 2],
                injections: 8,
                scenario,
                seed: 99 + i as u64,
            };
            let report = run_traffic_with_storm(&cache, &cfg, Some(&storm));
            let name = scenario.name();
            assert_eq!(report.total_ops, cfg.ops_per_thread * cfg.threads as u64);
            assert!(report.injections > 0, "{name}: storm must fire");
            assert!(report.verified_reads > 0, "{name}: nothing verified");
            // Clean up any damage still latent, then audit.
            cache.scrub().unwrap();
            assert!(cache.audit(), "{name}: audit failed");
        }
    }
}
