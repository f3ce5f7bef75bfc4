//! The network phases of the chaos campaign.
//!
//! * [`run_net_chaos`]: a live [`CacheServer`] under concurrent client
//!   traffic while a fault storm strikes banks, a quarantine toggles
//!   mid-run, and client connections are killed and re-established
//!   mid-storm — verifying that acknowledged writes survive every
//!   disconnect, reads are never wrong, and requests to recovering
//!   banks are shed with `BUSY`/`DEGRADED` instead of hanging or
//!   panicking.
//! * [`run_shard_chaos`]: two servers behind sharded clients; one is
//!   killed mid-storm and restarted on the same cache at a new port.
//!
//! Both phases reuse the two shared pieces of [`crate::service`]. The
//! clients run the one verified loop (see [`super::loadgen`]); the
//! kill-and-readback and directory-refresh steps are its per-batch
//! hooks, and keys are drawn uniformly (a [`ZipfSampler`] at θ = 0).
//! The storms cycle the injecting entries of [`FaultScenario::library`]
//! through [`scrub_and_inject`](crate::scrub_and_inject), the same
//! injection discipline as the in-process campaign: before every
//! injection the target bank is scrubbed clean, so each fault event is
//! isolated and correctable by construction — any lost write or wrong
//! read is a real service bug, not compound-damage bad luck. A
//! pre-injection scrub that finds uncorrectable damage fails the run.

use super::client::{ClientConfig, NetClient};
use super::loadgen::{run_connections, KeyStream, Tally};
use super::protocol::Response;
use super::server::{CacheServer, ServerConfig, ServerStats};
use super::sharded::ShardedClient;
use crate::service::campaign::{CampaignConfig, FaultScenario};
use crate::service::fire_storm;
use crate::ZipfSampler;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use twod_cache::{CacheConfig, ConcurrentBankedCache, Scrubber};

/// Configuration of one network chaos run.
#[derive(Clone, Debug)]
pub struct NetChaosConfig {
    /// Master seed for client streams and injection positions.
    pub seed: u64,
    /// Banks in the served cache.
    pub banks: usize,
    /// Sets per bank (small banks so recoveries cycle quickly).
    pub sets: usize,
    /// Associativity per bank.
    pub ways: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests per client.
    pub ops_per_client: u64,
    /// Every `kill_every` requests a client abruptly drops its
    /// connection and reconnects (mid-storm), then immediately re-reads
    /// one of its acknowledged writes.
    pub kill_every: u64,
    /// Distinct key ranks per client partition.
    pub key_ranks: usize,
    /// Fraction of requests that are `SET`s.
    pub write_fraction: f64,
    /// Fault injections performed by the storm thread.
    pub storm_injections: u32,
    /// Pause between storm injections.
    pub storm_interval: Duration,
    /// How long the mid-run administrative quarantine lasts.
    pub quarantine_hold: Duration,
    /// Shed-aware retry attempts per request before giving up on it.
    pub retry_attempts: u32,
    /// Server tuning for the run.
    pub server: ServerConfig,
}

impl NetChaosConfig {
    /// The CI smoke configuration: seconds-long on a single CPU, yet
    /// covering injections, quarantine, kills, and reconnect readback.
    pub fn quick(seed: u64) -> Self {
        NetChaosConfig {
            seed,
            banks: 4,
            // 24x2 -> 96-row banks, same geometry rationale as
            // `CampaignConfig::quick`: column strips leave odd evidence
            // per vertical stripe, so recovery paths get real exercise.
            sets: 24,
            ways: 2,
            clients: 4,
            ops_per_client: 3_000,
            kill_every: 500,
            key_ranks: 2_000,
            write_fraction: 0.35,
            storm_injections: 24,
            storm_interval: Duration::from_millis(5),
            quarantine_hold: Duration::from_millis(60),
            retry_attempts: 8,
            server: ServerConfig::default(),
        }
    }
}

/// Result of one network chaos run. The invariants a caller must gate
/// on: `wrong_reads == 0`, `lost_acked_writes == 0`,
/// `degraded_observed && degraded_cleared`, and `gave_up == 0` only if
/// it demands full delivery (shed-retry exhaustion under storm is
/// acceptable; silent loss is not).
#[derive(Clone, Debug, Default)]
pub struct NetChaosReport {
    /// Requests answered across all clients (including retries).
    pub ops: u64,
    /// `SET`s acknowledged by the server.
    pub acked_writes: u64,
    /// Owned reads verified against a client's private model mid-run.
    pub verified_reads: u64,
    /// Mid-run verified reads that disagreed — **must be zero**.
    pub wrong_reads: u64,
    /// Acknowledged writes the final readback could not recover —
    /// **must be zero**.
    pub lost_acked_writes: u64,
    /// Acknowledged writes re-checked by the final readback.
    pub readback_checked: u64,
    /// Requests shed `BUSY` (admission pressure).
    pub busy_sheds: u64,
    /// Requests shed `DEGRADED` (recovery window / quarantine).
    pub degraded_sheds: u64,
    /// Requests answered `FAULT`.
    pub faults: u64,
    /// Requests abandoned after exhausting shed retries.
    pub gave_up: u64,
    /// Forced disconnect/reconnect cycles performed.
    pub reconnects: u64,
    /// Read-your-writes checks performed immediately after a reconnect.
    pub reconnect_readbacks: u64,
    /// Fault injections the storm performed.
    pub injections: u32,
    /// A `HEALTH` poll (over the wire) observed at least one degraded
    /// or quarantined bank mid-run.
    pub degraded_observed: bool,
    /// A later `HEALTH` poll observed every bank healthy again.
    pub degraded_cleared: bool,
    /// The served cache passed its full audit after the run.
    pub final_audit: bool,
    /// Server-side counters at shutdown.
    pub server_stats: ServerStats,
}

/// Runs the network chaos phase end to end: spawn server (with an
/// aggressive scrubber), storm + quarantine + health-poll threads,
/// `cfg.clients` killing-and-reconnecting client threads, then a final
/// readback of every acknowledged write over a fresh connection.
///
/// # Panics
///
/// Panics if the loopback server or a client connection cannot be
/// established at all (environment failure, not a chaos outcome), or
/// if a pre-injection scrub finds damage it cannot correct.
pub fn run_net_chaos(cfg: &NetChaosConfig) -> NetChaosReport {
    let cache = Arc::new(ConcurrentBankedCache::new(
        CacheConfig {
            sets: cfg.sets,
            ways: cfg.ways,
            ..CacheConfig::l1_64kb()
        },
        cfg.banks,
    ));
    let scrubber = Arc::new(Scrubber::spawn(
        Arc::clone(&cache),
        CampaignConfig::campaign_scrubber(),
    ));
    let server = CacheServer::spawn(
        Arc::clone(&cache),
        Some(Arc::clone(&scrubber)),
        "127.0.0.1:0",
        cfg.server,
    )
    .expect("bind loopback chaos server");
    let addr = server.local_addr();
    let ranks = ZipfSampler::new(cfg.key_ranks, 0.0);
    let (banks, deck): (Vec<usize>, _) = ((0..cfg.banks).collect(), FaultScenario::storm_deck());

    let stop_storm = AtomicBool::new(false);
    let degraded_observed = AtomicBool::new(false);

    let (total, injections, cleared) = std::thread::scope(|scope| {
        let storm = scope.spawn(|| {
            let (count, seed) = (cfg.storm_injections as usize, cfg.seed ^ 0x5708_13FF);
            fire_storm(
                &cache,
                &banks,
                &deck,
                count,
                seed,
                cfg.storm_interval,
                &stop_storm,
            )
        });
        // Quarantine toggler: force one bank into administrative
        // degradation mid-run, then lift it.
        scope.spawn(|| {
            std::thread::sleep(cfg.quarantine_hold / 2);
            if !stop_storm.load(Ordering::Relaxed) {
                server.quarantine_bank(0, true);
                std::thread::sleep(cfg.quarantine_hold);
                server.quarantine_bank(0, false);
            }
        });
        // Health poller over the wire: asserts degradation is visible
        // through the HEALTH opcode while the storm runs.
        let poller = scope.spawn(|| health_poll_loop(addr, &stop_storm, &degraded_observed));

        let clients = (0..cfg.clients)
            .map(|_| {
                NetClient::connect_with(addr, ClientConfig::default())
                    .expect("connect chaos client")
            })
            .collect();
        let stream = KeyStream {
            ranks: &ranks,
            write_fraction: cfg.write_fraction,
            requests: cfg.ops_per_client,
            depth: 1,
            attempts: cfg.retry_attempts,
            seed: cfg.seed ^ 0xDEAD_0000,
        };
        let total = run_connections(clients, &stream, |i, client, tally| {
            kill_and_read_back(i, cfg, client, tally);
            false
        });
        stop_storm.store(true, Ordering::Relaxed);
        let injections = storm.join().expect("storm thread panicked");
        let cleared = poller.join().expect("health poller panicked");
        (total, injections, cleared)
    });

    let mut report = NetChaosReport {
        ops: total.ops,
        acked_writes: total.acked_writes,
        verified_reads: total.verified_reads,
        wrong_reads: total.wrong_reads,
        busy_sheds: total.busy,
        degraded_sheds: total.degraded,
        faults: total.faults,
        gave_up: total.busy + total.degraded,
        reconnects: total.reconnects,
        reconnect_readbacks: total.readbacks,
        injections: injections as u32,
        degraded_observed: degraded_observed.load(Ordering::Relaxed),
        degraded_cleared: cleared,
        ..NetChaosReport::default()
    };

    // Final readback: every acknowledged write must be recoverable over
    // a fresh connection, with the storm over and quarantine lifted.
    // Generous retries: the last degraded windows may still be open.
    let mut readback =
        NetClient::connect_with(addr, ClientConfig::default()).expect("readback connect");
    report.readback_checked = total.model.len() as u64;
    report.lost_acked_writes = total.lost_acked_writes(&mut readback, cfg.retry_attempts.max(16));

    report.server_stats = server.stats();
    server.shutdown();
    // Scrubber threads hold the cache Arc; stop them before auditing so
    // the audit sees a quiescent array.
    Arc::try_unwrap(scrubber)
        .map(Scrubber::stop)
        .unwrap_or_default();
    report.final_audit = cache.audit();
    report
}

/// The net chaos clients' per-batch hook: every `cfg.kill_every`
/// requests, drop the connection abruptly mid-storm, reconnect, and
/// immediately read back one acknowledged write.
fn kill_and_read_back(i: u64, cfg: &NetChaosConfig, client: &mut NetClient, tally: &mut Tally) {
    if i == 0
        || cfg.kill_every == 0
        || !i.is_multiple_of(cfg.kill_every)
        || client.reconnect().is_err()
    {
        return;
    }
    let Some(&key) = tally.model.keys().next() else {
        return;
    };
    tally.readbacks += 1;
    match client.get_retry(key, cfg.retry_attempts) {
        Ok(Response::Value(v)) => tally.check(key, v),
        Ok(Response::Busy { .. }) => tally.busy += 1,
        Ok(Response::Degraded { .. }) => tally.degraded += 1,
        Ok(Response::Fault) => tally.faults += 1,
        // A transport error here surfaces on the next batch, which
        // re-dials.
        _ => {}
    }
}

/// Polls `HEALTH` over the wire; records when degradation is visible
/// and returns whether a poll after the storm saw every bank healthy.
fn health_poll_loop(addr: std::net::SocketAddr, stop: &AtomicBool, observed: &AtomicBool) -> bool {
    let mut client = match NetClient::connect_with(addr, ClientConfig::default()) {
        Ok(c) => c,
        Err(_) => return false,
    };
    while !stop.load(Ordering::Relaxed) {
        if let Ok(report) = client.health() {
            if report.degraded_banks() > 0 {
                observed.store(true, Ordering::Relaxed);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Post-storm: wait (bounded) for every degraded window to close.
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        match client.health() {
            Ok(report) if report.degraded_banks() == 0 => return true,
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    false
}

/// Configuration of one shard-kill chaos run: two independent servers,
/// sharded clients spraying verified traffic across both, one server
/// killed mid-storm and later restarted (same cache, new port).
#[derive(Clone, Debug)]
pub struct ShardChaosConfig {
    /// Master seed for client streams and injection positions.
    pub seed: u64,
    /// Banks per shard cache.
    pub banks: usize,
    /// Sets per bank.
    pub sets: usize,
    /// Associativity per bank.
    pub ways: usize,
    /// Concurrent sharded-client threads.
    pub clients: usize,
    /// Pipelined batches issued per client.
    pub batches_per_client: u64,
    /// Requests per pipelined batch.
    pub batch_depth: usize,
    /// Distinct key ranks per client partition.
    pub key_ranks: usize,
    /// Fraction of requests that are `SET`s.
    pub write_fraction: f64,
    /// Fleet-wide batch-progress fraction at which the victim is
    /// killed (progress-driven, not wall-clock, so the outage always
    /// lands mid-traffic regardless of machine speed).
    pub kill_at_fraction: f64,
    /// Progress fraction at which the victim restarts; the remaining
    /// batches exercise directory refresh + lazy re-dial healing.
    pub restart_at_fraction: f64,
    /// The survivor-side fault storm is paced to span roughly this
    /// window while the victim is down.
    pub outage_hold: Duration,
    /// Fault injections on the *survivor* while the victim is down
    /// (the kill happens mid-storm, not in calm waters).
    pub storm_injections: u32,
    /// Shed-aware retry attempts per batch.
    pub retry_attempts: u32,
    /// Server tuning for both shards.
    pub server: ServerConfig,
}

impl ShardChaosConfig {
    /// The CI smoke configuration: a two-shard fleet, sub-ten-seconds
    /// on one CPU, with the victim down for a meaningful slice of the
    /// run.
    pub fn quick(seed: u64) -> Self {
        ShardChaosConfig {
            seed,
            banks: 4,
            sets: 24,
            ways: 2,
            clients: 3,
            batches_per_client: 220,
            batch_depth: 16,
            key_ranks: 2_000,
            write_fraction: 0.35,
            kill_at_fraction: 0.2,
            restart_at_fraction: 0.55,
            outage_hold: Duration::from_millis(100),
            storm_injections: 8,
            retry_attempts: 6,
            server: ServerConfig::default(),
        }
    }
}

/// Result of one shard-kill chaos run. The invariants a caller must
/// gate on: `wrong_reads == 0`, `lost_acked_writes == 0`,
/// `survivor_acked_during_outage > 0` (the fleet kept serving while a
/// shard was down), `victim_restarted`, and `final_audit` on both
/// shards.
#[derive(Clone, Debug, Default)]
pub struct ShardChaosReport {
    /// Requests answered across all clients.
    pub ops: u64,
    /// `SET`s acknowledged by either shard.
    pub acked_writes: u64,
    /// Owned reads verified against a client's private model mid-run.
    pub verified_reads: u64,
    /// Mid-run verified reads that disagreed — **must be zero**.
    pub wrong_reads: u64,
    /// Slots answered [`ShardDown`](super::ShardOutcome::ShardDown) (expected nonzero:
    /// the victim really was unreachable).
    pub shard_down_slots: u64,
    /// Writes acknowledged *while the victim was down* — **must be
    /// positive**: the surviving shard kept serving its keys.
    pub survivor_acked_during_outage: u64,
    /// Acknowledged writes the final readback could not recover —
    /// **must be zero**.
    pub lost_acked_writes: u64,
    /// Acknowledged writes re-checked by the final readback.
    pub readback_checked: u64,
    /// Requests shed `BUSY`/`DEGRADED` after retries.
    pub gave_up: u64,
    /// Requests answered `FAULT`.
    pub faults: u64,
    /// Lazy re-dials performed by the sharded clients (heals counted
    /// after each client's initial fan-out).
    pub reconnects: u64,
    /// Fault injections performed on the survivor during the outage.
    pub injections: u32,
    /// The victim came back and the address directory was republished.
    pub victim_restarted: bool,
    /// Both shard caches passed their full audit after the run.
    pub final_audit: bool,
}

/// Runs the shard-kill chaos phase: spawn two shard servers, start
/// sharded clients spraying ownership-verified traffic, kill shard 1
/// mid-storm (its process-equivalent: abrupt server shutdown), inject
/// faults on the survivor while it is the whole fleet, restart the
/// victim on the *same* cache (a rebooted node keeps its array) at a
/// fresh port, republish the address directory, and finally read back
/// every acknowledged write through a fresh sharded client.
///
/// # Panics
///
/// Panics if the loopback servers cannot be spawned (environment
/// failure, not a chaos outcome), or if a pre-injection scrub finds
/// damage it cannot correct.
pub fn run_shard_chaos(cfg: &ShardChaosConfig) -> ShardChaosReport {
    const VICTIM: usize = 1;
    let caches: Vec<Arc<ConcurrentBankedCache>> = (0..2)
        .map(|_| {
            Arc::new(ConcurrentBankedCache::new(
                CacheConfig {
                    sets: cfg.sets,
                    ways: cfg.ways,
                    ..CacheConfig::l1_64kb()
                },
                cfg.banks,
            ))
        })
        .collect();
    let mut servers: Vec<Option<CacheServer>> = caches
        .iter()
        .map(|cache| {
            Some(
                CacheServer::spawn(Arc::clone(cache), None, "127.0.0.1:0", cfg.server)
                    .expect("bind loopback shard server"),
            )
        })
        .collect();
    // The address directory a real fleet would keep in service
    // discovery: clients poll it and re-point shards that moved.
    let directory: Mutex<Vec<std::net::SocketAddr>> = Mutex::new(
        servers
            .iter()
            .map(|s| s.as_ref().unwrap().local_addr())
            .collect(),
    );
    let current_addrs = || {
        directory
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    };
    let outage_active = AtomicBool::new(false);
    // Fleet-wide started-batch counter: the coordinator keys the kill
    // and the restart off *traffic progress*, so the outage always
    // straddles live batches no matter how fast the machine is.
    let progress = AtomicU64::new(0);
    let total_batches = cfg.clients as u64 * cfg.batches_per_client;
    let progress_at = |fraction: f64| ((total_batches as f64) * fraction) as u64;
    let wait_progress = |target: u64| {
        while progress.load(Ordering::Relaxed) < target.min(total_batches) {
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let ranks = ZipfSampler::new(cfg.key_ranks, 0.0);
    let (banks, deck): (Vec<usize>, _) = ((0..cfg.banks).collect(), FaultScenario::storm_deck());

    let clients = (0..cfg.clients)
        .map(|_| ShardedClient::new(&current_addrs()))
        .collect();
    let stream = KeyStream {
        ranks: &ranks,
        write_fraction: cfg.write_fraction,
        requests: cfg.batches_per_client * cfg.batch_depth as u64,
        depth: cfg.batch_depth,
        attempts: cfg.retry_attempts,
        seed: cfg.seed ^ 0x5AA2_D000,
    };

    let (total, (injections, victim_restarted)) = std::thread::scope(|scope| {
        // Coordinator: wait for traffic to be flowing, kill the victim,
        // storm the survivor, then restart the victim on the same cache
        // at a fresh port once enough of the run has happened under the
        // outage.
        let coordinator = scope.spawn(|| {
            wait_progress(progress_at(cfg.kill_at_fraction));
            outage_active.store(true, Ordering::SeqCst);
            if let Some(victim) = servers[VICTIM].take() {
                victim.shutdown();
            }
            let (count, seed) = (cfg.storm_injections as usize, cfg.seed ^ 0x0DD_BA11);
            let pause = cfg.outage_hold / (cfg.storm_injections.max(1) * 2);
            let survivor = &caches[1 - VICTIM];
            let never = AtomicBool::new(false);
            let injections = fire_storm(survivor, &banks, &deck, count, seed, pause, &never);
            wait_progress(progress_at(cfg.restart_at_fraction));
            let restarted =
                CacheServer::spawn(Arc::clone(&caches[VICTIM]), None, "127.0.0.1:0", cfg.server)
                    .map(|server| {
                        directory
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())[VICTIM] =
                            server.local_addr();
                        servers[VICTIM] = Some(server);
                    })
                    .is_ok();
            outage_active.store(false, Ordering::SeqCst);
            (injections, restarted)
        });
        // Per batch: count progress, then re-point any shard whose
        // published address moved (the restarted victim comes back on a
        // new port); acks during the outage are marked.
        let total = run_connections(clients, &stream, |_, client, _| {
            progress.fetch_add(1, Ordering::Relaxed);
            for (shard, addr) in current_addrs().into_iter().enumerate() {
                if client.shard_addr(shard) != addr {
                    client.set_shard_addr(shard, addr);
                }
            }
            outage_active.load(Ordering::Relaxed)
        });
        (
            total,
            coordinator
                .join()
                .expect("shard chaos coordinator panicked"),
        )
    });

    let mut report = ShardChaosReport {
        ops: total.ops,
        acked_writes: total.acked_writes,
        verified_reads: total.verified_reads,
        wrong_reads: total.wrong_reads,
        shard_down_slots: total.lost,
        survivor_acked_during_outage: total.marked_acks,
        gave_up: total.busy + total.degraded,
        faults: total.faults,
        reconnects: total.reconnects,
        injections: injections as u32,
        victim_restarted,
        ..ShardChaosReport::default()
    };

    // Final readback through a fresh sharded client over the final
    // directory: every acknowledged write must be recoverable now that
    // both shards are up (the victim kept its cache across restart).
    let mut readback = ShardedClient::new(&current_addrs());
    report.readback_checked = total.model.len() as u64;
    report.lost_acked_writes = total.lost_acked_writes(&mut readback, cfg.retry_attempts.max(16));

    for server in servers.into_iter().flatten() {
        server.shutdown();
    }
    report.final_audit = caches.iter().all(|cache| cache.audit());
    report
}
