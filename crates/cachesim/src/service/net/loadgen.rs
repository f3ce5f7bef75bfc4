//! The verified client loop of the network tier, and the
//! multi-connection load generator built on it: Zipf-popular keys over
//! a large key space, pipelined request batches, per-op round-trip
//! latency with tail percentiles, and read-your-writes verification on
//! every `GET` — the socket-in-the-loop companion to the in-process
//! traffic generator in [`crate::service`].
//!
//! # The one loop
//!
//! One loop, `run_verified`, is the only code that sends verified
//! network traffic: [`run_load`], [`run_load_sharded`] and both chaos
//! phases ([`super::chaos`]) drive it over a [`NetClient`] or a
//! [`ShardedClient`] and fold its one tally into their reports. The
//! chaos steps run inside it as per-batch hooks, and the closing
//! read-back of acknowledged writes goes through the same transport.
//!
//! Connection `t` of `n` owns the keys `k` with `k % n == t` and both
//! writes and reads only those, so every `GET` is checked against the
//! connection's private model of its own acknowledged writes — exact
//! under any interleaving because owners are exclusive writers. A key
//! never written must read 0. A key whose `SET` answer was lost (in
//! transport, or to a down shard) may or may not have committed, so it
//! is exempt until its next acknowledged `SET` settles it.

use super::client::{ClientConfig, NetClient};
use super::protocol::{Request, Response, ServerError};
use super::sharded::{ShardOutcome, ShardedClient};
use crate::ZipfSampler;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::Instant;

/// Configuration of one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Requests issued per connection.
    pub ops_per_connection: u64,
    /// Distinct key ranks per connection partition: the total key
    /// universe is `key_ranks * connections` (so "millions of keys"
    /// means `key_ranks` in the millions / `connections`).
    pub key_ranks: usize,
    /// Zipf exponent of key popularity (`1.0` = classic Zipf).
    pub zipf_theta: f64,
    /// Fraction of requests that are `SET`s.
    pub write_fraction: f64,
    /// Requests sent back-to-back per batch (wire pipelining depth;
    /// `1` = strict request/response alternation).
    pub pipeline_depth: usize,
    /// Master seed for per-connection request streams.
    pub seed: u64,
    /// Client socket timeouts.
    pub client: ClientConfig,
}

impl LoadConfig {
    /// The CI smoke configuration: small enough for single-digit
    /// seconds on a single CPU, large enough to exercise pipelining,
    /// both opcodes, and the verification model.
    pub fn quick(seed: u64) -> Self {
        LoadConfig {
            connections: 4,
            ops_per_connection: 4_000,
            key_ranks: 50_000,
            zipf_theta: 1.1,
            write_fraction: 0.3,
            pipeline_depth: 16,
            seed,
            client: ClientConfig::default(),
        }
    }

    /// The benchmark configuration: millions of distinct keys, deeper
    /// pipelines, enough samples for stable p999.
    pub fn full(seed: u64) -> Self {
        LoadConfig {
            connections: 8,
            ops_per_connection: 50_000,
            key_ranks: 250_000,
            zipf_theta: 1.1,
            write_fraction: 0.3,
            pipeline_depth: 32,
            seed,
            client: ClientConfig::default(),
        }
    }
}

/// Aggregate result of one load run.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Connections that completed their stream.
    pub connections: usize,
    /// Requests answered (any status).
    pub ops: u64,
    /// Wall-clock of the whole run in nanoseconds.
    pub wall_ns: u64,
    /// Aggregate throughput in requests per second.
    pub throughput_ops_per_sec: f64,
    /// Mean per-request round-trip nanoseconds (batch time / batch
    /// size under pipelining).
    pub mean_ns: f64,
    /// Median per-request latency.
    pub p50_ns: u64,
    /// 99th-percentile per-request latency.
    pub p99_ns: u64,
    /// 99.9th-percentile per-request latency.
    pub p999_ns: u64,
    /// Worst observed per-request latency.
    pub max_ns: u64,
    /// `GET`s answered with a value.
    pub values: u64,
    /// `SET`s acknowledged.
    pub acked_writes: u64,
    /// Requests shed `BUSY`.
    pub busy: u64,
    /// Requests shed `DEGRADED`.
    pub degraded: u64,
    /// Requests answered `FAULT`.
    pub faults: u64,
    /// Requests answered `BAD_REQUEST`.
    pub bad_requests: u64,
    /// Owned reads checked against the writer's model.
    pub verified_reads: u64,
    /// Owned reads that disagreed with the model — **must be zero**.
    pub wrong_reads: u64,
    /// Transport-level reconnects performed mid-run.
    pub reconnects: u64,
    /// Requests abandoned to transport errors after reconnecting.
    pub transport_errors: u64,
}

/// A connection the verified loop can drive: one pipelined batch out,
/// one outcome per request back.
pub(crate) trait Transport {
    /// Sends `batch` with up to `attempts` shed-aware tries and fills
    /// `out` with one outcome per request, in request order; a request
    /// whose answer was lost is [`ShardOutcome::ShardDown`]. Returns
    /// `false` once the transport cannot be re-established, which ends
    /// the stream.
    fn exchange(&mut self, batch: &[Request], attempts: u32, out: &mut Vec<ShardOutcome>) -> bool;

    /// Re-dials performed so far, first connections excluded.
    fn redials(&self) -> u64;
}

impl Transport for NetClient {
    fn exchange(&mut self, batch: &[Request], attempts: u32, out: &mut Vec<ShardOutcome>) -> bool {
        out.clear();
        match self.pipeline_retry(batch, attempts) {
            Ok(responses) => {
                out.extend(responses.into_iter().map(ShardOutcome::Response));
                true
            }
            Err(_) => {
                // Transport failure mid-batch: every answer is unknown
                // (writes may or may not have committed). Re-dial for
                // the next batch.
                out.resize(batch.len(), ShardOutcome::ShardDown);
                self.reconnect().is_ok()
            }
        }
    }

    fn redials(&self) -> u64 {
        self.reconnects()
    }
}

impl Transport for ShardedClient {
    fn exchange(&mut self, batch: &[Request], attempts: u32, out: &mut Vec<ShardOutcome>) -> bool {
        // Down shards re-dial lazily on the next batch routed to them.
        self.pipeline_retry(batch, attempts, out);
        true
    }

    fn redials(&self) -> u64 {
        self.reconnects().saturating_sub(self.shard_count() as u64)
    }
}

/// The request stream of a verified workload, shared by its
/// connections.
#[derive(Clone, Copy)]
pub(crate) struct KeyStream<'a> {
    /// Popularity of key ranks within a connection's partition.
    pub ranks: &'a ZipfSampler,
    /// Fraction of requests that are `SET`s.
    pub write_fraction: f64,
    /// Requests each connection issues.
    pub requests: u64,
    /// Requests per pipelined batch.
    pub depth: usize,
    /// Shed-aware tries per batch (`1` = no retry).
    pub attempts: u32,
    /// Stream seed; connection `t` draws from `seed ^ t`.
    pub seed: u64,
}

/// What one run of the verified loop observed; runs fold with
/// [`Tally::absorb`] and the load and chaos reports read from it.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Requests answered (any status).
    pub ops: u64,
    /// `GET`s answered with a value.
    pub values: u64,
    /// `SET`s acknowledged.
    pub acked_writes: u64,
    /// `SET`s acknowledged in batches the per-batch hook marked.
    pub marked_acks: u64,
    /// Requests still shed `BUSY` after their retries.
    pub busy: u64,
    /// Requests still shed `DEGRADED` after their retries.
    pub degraded: u64,
    /// Requests answered `FAULT`.
    pub faults: u64,
    /// Requests answered `BAD_REQUEST`.
    pub bad_requests: u64,
    /// Reads checked against the acked-write model.
    pub verified_reads: u64,
    /// Checked reads that disagreed with the model.
    pub wrong_reads: u64,
    /// Requests whose answer was lost in transport or to a down shard.
    pub lost: u64,
    /// Re-dials, first connections excluded.
    pub reconnects: u64,
    /// Read-backs issued by per-batch hooks.
    pub readbacks: u64,
    /// Per-answered-request latency in nanoseconds (batch time / batch
    /// size under pipelining).
    pub latencies: Vec<u64>,
    /// Last acknowledged value of every settled key written.
    pub model: HashMap<u64, u64>,
    /// Keys whose last `SET` answer was lost: exempt from checks until
    /// the next acknowledged `SET`.
    pub uncertain: HashSet<u64>,
}

impl Tally {
    /// Checks a value read for one of this connection's own keys: an
    /// uncertain key is skipped; any other must equal its last
    /// acknowledged write, or 0 if it was never written.
    pub fn check(&mut self, key: u64, got: u64) {
        if self.uncertain.contains(&key) {
            return;
        }
        self.verified_reads += 1;
        if got != self.model.get(&key).copied().unwrap_or(0) {
            self.wrong_reads += 1;
        }
    }

    fn record(&mut self, req: &Request, outcome: &ShardOutcome, marked: bool, latency_ns: u64) {
        let resp = match outcome {
            ShardOutcome::Response(resp) => resp,
            ShardOutcome::ShardDown => {
                self.lost += 1;
                if let Request::Set { key, .. } = *req {
                    self.model.remove(&key);
                    self.uncertain.insert(key);
                }
                return;
            }
        };
        self.ops += 1;
        self.latencies.push(latency_ns);
        match (*req, resp) {
            (Request::Set { key, value }, Response::Ok) => {
                self.acked_writes += 1;
                self.marked_acks += u64::from(marked);
                self.uncertain.remove(&key);
                self.model.insert(key, value);
            }
            (Request::Get { key }, Response::Value(v)) => {
                self.values += 1;
                self.check(key, *v);
            }
            (_, Response::Busy { .. }) => self.busy += 1,
            (_, Response::Degraded { .. }) => self.degraded += 1,
            (_, Response::Fault) => self.faults += 1,
            (_, Response::BadRequest) => self.bad_requests += 1,
            _ => {}
        }
    }

    /// Re-reads every settled acknowledged write over `transport`, with
    /// up to `attempts` shed-aware tries each, and counts those that no
    /// longer read back their value: acknowledged writes lost.
    pub fn lost_acked_writes<T: Transport>(&self, transport: &mut T, attempts: u32) -> u64 {
        let mut out = Vec::with_capacity(1);
        let mut lost = 0;
        for (&key, &value) in &self.model {
            transport.exchange(&[Request::Get { key }], attempts, &mut out);
            lost += u64::from(out[..] != [ShardOutcome::Response(Response::Value(value))]);
        }
        lost
    }

    /// Folds another connection's tally into this one. Connections own
    /// disjoint keys, so their models merge without conflict.
    pub fn absorb(&mut self, other: Tally) {
        self.ops += other.ops;
        self.values += other.values;
        self.acked_writes += other.acked_writes;
        self.marked_acks += other.marked_acks;
        self.busy += other.busy;
        self.degraded += other.degraded;
        self.faults += other.faults;
        self.bad_requests += other.bad_requests;
        self.verified_reads += other.verified_reads;
        self.wrong_reads += other.wrong_reads;
        self.lost += other.lost;
        self.reconnects += other.reconnects;
        self.readbacks += other.readbacks;
        self.latencies.extend(other.latencies);
        self.model.extend(other.model);
        self.uncertain.extend(other.uncertain);
    }
}

/// The verified client loop, run as connection `owner` of `owners`:
/// issues `stream.requests` requests over `transport` in pipelined
/// batches of `stream.depth`, each a `SET` of a random value
/// (probability `stream.write_fraction`) or a `GET`, both on an own key,
/// and checks every `GET` answer against the acked-write model (see the
/// module docs). `before_batch` runs before each batch with the batch
/// index; it may drive the transport (kill and read back, repoint
/// shards) and its return value marks the batch, whose acks then count
/// in [`Tally::marked_acks`]. The stream ends early only if the
/// transport cannot be re-established.
pub(crate) fn run_verified<T: Transport>(
    transport: &mut T,
    stream: &KeyStream<'_>,
    (owner, owners): (usize, usize),
    mut before_batch: impl FnMut(u64, &mut T, &mut Tally) -> bool,
) -> Tally {
    let mut rng = StdRng::seed_from_u64(stream.seed ^ owner as u64);
    let mut tally = Tally::default();
    let first_redials = transport.redials();
    let mut batch: Vec<Request> = Vec::with_capacity(stream.depth);
    let mut outcomes: Vec<ShardOutcome> = Vec::with_capacity(stream.depth);
    let mut issued = 0u64;
    let mut index = 0u64;
    while issued < stream.requests {
        let marked = before_batch(index, transport, &mut tally);
        index += 1;
        batch.clear();
        let depth = stream.depth.min((stream.requests - issued) as usize);
        for _ in 0..depth {
            // Partitions interleave: `key % owners == owner`.
            let key = (stream.ranks.sample(&mut rng) * owners + owner) as u64;
            batch.push(if rng.gen_bool(stream.write_fraction) {
                Request::Set {
                    key,
                    value: rng.gen(),
                }
            } else {
                Request::Get { key }
            });
        }
        issued += batch.len() as u64;
        let begun = Instant::now();
        let alive = transport.exchange(&batch, stream.attempts, &mut outcomes);
        let per_op =
            begun.elapsed().as_nanos().min(u64::MAX as u128) as u64 / outcomes.len().max(1) as u64;
        for (req, outcome) in batch.iter().zip(&outcomes) {
            tally.record(req, outcome, marked, per_op);
        }
        if !alive {
            break;
        }
    }
    tally.reconnects = transport.redials() - first_redials;
    tally
}

/// Runs [`run_verified`] once per transport, each as its own connection
/// on its own thread with the shared `before_batch` hook, and folds the
/// tallies. Re-raises the panic of any connection thread.
pub(crate) fn run_connections<T: Transport + Send>(
    transports: Vec<T>,
    stream: &KeyStream<'_>,
    before_batch: impl Fn(u64, &mut T, &mut Tally) -> bool + Sync,
) -> Tally {
    let owners = transports.len();
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(t, mut transport)| {
                let before_batch = &before_batch;
                scope.spawn(move || run_verified(&mut transport, stream, (t, owners), before_batch))
            })
            .collect();
        for h in handles {
            total.absorb(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
    });
    total
}

/// Runs `cfg.connections` concurrent client connections against the
/// server at `addr` and reports throughput, tail latency, and
/// verification counters.
///
/// # Errors
///
/// Returns the first connection-establishment failure; mid-run
/// transport errors are retried via reconnect and tallied instead.
///
/// # Panics
///
/// Panics if `cfg.connections == 0`, `cfg.pipeline_depth == 0`, or
/// `cfg.key_ranks == 0` (degenerate configuration, caller error), and
/// re-raises the panic of any connection thread.
pub fn run_load(addr: SocketAddr, cfg: &LoadConfig) -> Result<LoadReport, ServerError> {
    // Establish every connection up front so a refused listener fails
    // fast instead of half-running.
    let mut clients = Vec::with_capacity(cfg.connections);
    for _ in 0..cfg.connections {
        clients.push(NetClient::connect_with(addr, cfg.client)?);
    }
    Ok(drive(cfg, clients))
}

/// Runs the same ownership-verified Zipf workload through
/// [`ShardedClient`]s over `addrs` — each connection thread owns one
/// sharded client, rendezvous-routing every key, so the run exercises
/// per-shard pipelining and reassembly exactly as a production caller
/// would. `addrs.len()` is the shard-count knob;
/// [`LoadConfig::pipeline_depth`] is the batch-depth knob. A slot lost
/// to a down shard counts as a transport error and leaves its key
/// uncertain, exactly like a mid-batch disconnect in [`run_load`].
///
/// # Errors
///
/// Fails fast if any shard refuses its initial probe connection, so a
/// misconfigured fleet surfaces immediately instead of half-running.
///
/// # Panics
///
/// As [`run_load`], plus `addrs` must be nonempty.
pub fn run_load_sharded(addrs: &[SocketAddr], cfg: &LoadConfig) -> Result<LoadReport, ServerError> {
    assert!(!addrs.is_empty(), "sharded load needs at least one shard");
    // Probe every shard up front so a refused listener fails fast.
    for &addr in addrs {
        drop(NetClient::connect_with(addr, cfg.client)?);
    }
    let clients = (0..cfg.connections)
        .map(|_| ShardedClient::with_config(addrs, cfg.client))
        .collect();
    Ok(drive(cfg, clients))
}

/// Runs the load over `transports`, one connection each, and folds the
/// aggregate report.
fn drive<T: Transport + Send>(cfg: &LoadConfig, transports: Vec<T>) -> LoadReport {
    assert!(cfg.connections >= 1, "load needs a connection");
    assert!(cfg.pipeline_depth >= 1, "pipeline depth must be positive");
    assert!(cfg.key_ranks >= 1, "key space must be nonempty");
    let ranks = ZipfSampler::new(cfg.key_ranks, cfg.zipf_theta);
    let stream = KeyStream {
        ranks: &ranks,
        write_fraction: cfg.write_fraction,
        requests: cfg.ops_per_connection,
        depth: cfg.pipeline_depth,
        attempts: 1,
        seed: cfg.seed ^ 0xC0FF_EE00,
    };
    let started = Instant::now();
    let total = run_connections(transports, &stream, |_, _, _| false);
    let wall_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let mut report = LoadReport {
        connections: cfg.connections,
        ops: total.ops,
        wall_ns,
        values: total.values,
        acked_writes: total.acked_writes,
        busy: total.busy,
        degraded: total.degraded,
        faults: total.faults,
        bad_requests: total.bad_requests,
        verified_reads: total.verified_reads,
        wrong_reads: total.wrong_reads,
        reconnects: total.reconnects,
        transport_errors: total.lost,
        ..LoadReport::default()
    };
    if wall_ns > 0 {
        report.throughput_ops_per_sec = report.ops as f64 / (wall_ns as f64 / 1e9);
    }
    let mut latencies = total.latencies;
    if !latencies.is_empty() {
        latencies.sort_unstable();
        let n = latencies.len();
        let pick = |q: f64| latencies[(((n as f64) * q) as usize).min(n - 1)];
        report.mean_ns = latencies.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        report.p50_ns = pick(0.50);
        report.p99_ns = pick(0.99);
        report.p999_ns = pick(0.999);
        report.max_ns = latencies[n - 1];
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory server. For batches before `lose_sets_before` it
    /// applies every `SET` but loses the answer; it adds `skew` to every
    /// value it serves. It counts the `GET`s the loop must check (all but
    /// those of a key whose last `SET` answer was lost) and the rest.
    #[derive(Default)]
    struct Stub {
        store: HashMap<u64, u64>,
        batches: u64,
        lose_sets_before: u64,
        skew: u64,
        unsettled: HashSet<u64>,
        checkable_gets: u64,
        exempt_gets: u64,
    }

    impl Transport for Stub {
        fn exchange(&mut self, batch: &[Request], _: u32, out: &mut Vec<ShardOutcome>) -> bool {
            let lose = self.batches < self.lose_sets_before;
            self.batches += 1;
            out.clear();
            for req in batch {
                out.push(match *req {
                    Request::Set { key, value } => {
                        self.store.insert(key, value);
                        if lose {
                            self.unsettled.insert(key);
                            ShardOutcome::ShardDown
                        } else {
                            self.unsettled.remove(&key);
                            ShardOutcome::Response(Response::Ok)
                        }
                    }
                    Request::Get { key } => {
                        if self.unsettled.contains(&key) {
                            self.exempt_gets += 1;
                        } else {
                            self.checkable_gets += 1;
                        }
                        let value = self.store.get(&key).copied().unwrap_or(0);
                        ShardOutcome::Response(Response::Value(value + self.skew))
                    }
                    _ => unreachable!("the loop sends only GET and SET"),
                });
            }
            true
        }

        fn redials(&self) -> u64 {
            0
        }
    }

    /// 400 requests, 4 per batch, over `ranks` own keys of partition 1/3.
    fn run(stub: &mut Stub, ranks: usize, write_fraction: f64) -> Tally {
        let ranks = ZipfSampler::new(ranks, 0.0);
        let stream = KeyStream {
            ranks: &ranks,
            write_fraction,
            requests: 400,
            depth: 4,
            attempts: 1,
            seed: 7,
        };
        run_verified(stub, &stream, (1, 3), |i, _, _| i % 2 == 0)
    }

    #[test]
    fn never_written_own_keys_are_checked_against_zero() {
        let tally = run(&mut Stub::default(), 16, 0.0);
        assert_eq!((tally.verified_reads, tally.wrong_reads), (400, 0));
        // A server inventing data for keys nobody wrote is caught.
        let tally = run(
            &mut Stub {
                skew: 1,
                ..Stub::default()
            },
            16,
            0.0,
        );
        assert_eq!(tally.wrong_reads, 400);
    }

    #[test]
    fn wrong_reads_are_counted() {
        let tally = run(
            &mut Stub {
                skew: 3,
                ..Stub::default()
            },
            16,
            0.5,
        );
        assert!(tally.acked_writes > 0 && tally.values > 0);
        assert_eq!(tally.wrong_reads, tally.values);
        assert_eq!(tally.verified_reads, tally.values);
    }

    #[test]
    fn uncertain_keys_are_exempt_until_their_next_acked_set() {
        // Two keys, each written, lost and re-acked many times: reading a
        // committed-but-unacked value must not count as wrong, and only
        // the next acked SET makes the key checkable again.
        let mut lossy = Stub {
            lose_sets_before: 40,
            ..Stub::default()
        };
        let tally = run(&mut lossy, 2, 0.5);
        assert!(tally.lost > 0 && lossy.exempt_gets > 0);
        assert_eq!(tally.wrong_reads, 0);
        assert_eq!(tally.verified_reads, lossy.checkable_gets);
        assert_eq!(tally.values, lossy.checkable_gets + lossy.exempt_gets);
        // Even batches are marked: some acks count there, not all.
        assert!(tally.marked_acks > 0 && tally.marked_acks < tally.acked_writes);
    }
}
