//! Horizontal sharding: a client that spreads keys across N
//! independent cache servers by rendezvous (highest-random-weight)
//! hashing and degrades per shard, not per fleet.
//!
//! # Why rendezvous hashing
//!
//! Each key scores every shard with a mixed hash of `(key, shard)` and
//! picks the highest score. Unlike modulo placement, removing or
//! replacing one shard only remaps the keys that shard owned (1/N of
//! the keyspace) — every other key keeps its home, which is what lets
//! the chaos campaign kill a shard mid-storm and still verify
//! read-your-writes on the survivors. The mixer is a splitmix-style
//! finalizer, so per-shard key counts are uniform to chi-square
//! tolerance (pinned in `tests/routing_stats.rs`).
//!
//! # Failure model
//!
//! A shard that cannot be reached answers [`ShardOutcome::ShardDown`]
//! for its slice of the batch; the other shards' slices are served
//! normally. The connection is dropped and lazily re-established on
//! the next batch that routes to the shard, so a restarted server
//! (same or new address via [`ShardedClient::set_shard_addr`]) heals
//! without explicit reconnect calls.

use super::client::{ClientConfig, NetClient};
use super::protocol::{Request, Response};
use std::net::SocketAddr;

/// Splitmix64 finalizer: a full-avalanche 64-bit mixer (every input
/// bit flips each output bit with ~1/2 probability).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rendezvous (highest-random-weight) shard choice for `key` among
/// `shards` servers: deterministic, uniform, and minimally disruptive
/// (removing one shard remaps only that shard's keys).
///
/// # Panics
///
/// Panics if `shards == 0` (a construction-time operator error; no
/// network input reaches this with an empty fleet).
pub fn rendezvous_shard(key: u64, shards: usize) -> usize {
    assert!(shards > 0, "rendezvous hashing needs at least one shard");
    let mut best = 0usize;
    let mut best_weight = mix(key ^ mix(1));
    for shard in 1..shards {
        let weight = mix(key ^ mix(shard as u64 + 1));
        if weight > best_weight {
            best = shard;
            best_weight = weight;
        }
    }
    best
}

/// Per-slot result of a sharded batch: either the shard's response or
/// the typed fact that the owning shard was unreachable.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardOutcome {
    /// The owning shard answered.
    Response(Response),
    /// The owning shard could not be reached (connect or transport
    /// failure); the client will retry the connection on the next
    /// batch that routes there.
    ShardDown,
}

/// One server of the fleet: its address plus the lazily-established
/// connection (dropped on any transport error, re-dialed on demand).
#[derive(Debug)]
struct Shard {
    addr: SocketAddr,
    conn: Option<NetClient>,
}

/// A client over N cache servers, routing each key to its rendezvous
/// shard, pipelining per shard, and reassembling answers in caller
/// order.
///
/// Split scratch buffers are retained across calls, so steady-state
/// batches reuse capacity instead of reallocating.
#[derive(Debug)]
pub struct ShardedClient {
    shards: Vec<Shard>,
    cfg: ClientConfig,
    /// Scratch: per shard, the caller-order slot indices routed to it.
    split_slots: Vec<Vec<usize>>,
    /// Scratch: per shard, its slice of the logical batch.
    split_reqs: Vec<Request>,
    reconnects: u64,
}

impl ShardedClient {
    /// Builds a client over `addrs` with default timeouts. Connections
    /// are established lazily on first use, so construction never
    /// blocks on an unreachable shard.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    pub fn new(addrs: &[SocketAddr]) -> ShardedClient {
        ShardedClient::with_config(addrs, ClientConfig::default())
    }

    /// [`ShardedClient::new`] with explicit timeouts.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    pub fn with_config(addrs: &[SocketAddr], cfg: ClientConfig) -> ShardedClient {
        assert!(
            !addrs.is_empty(),
            "a sharded client needs at least one shard"
        );
        ShardedClient {
            shards: addrs
                .iter()
                .map(|&addr| Shard { addr, conn: None })
                .collect(),
            cfg,
            split_slots: vec![Vec::new(); addrs.len()],
            split_reqs: Vec::new(),
            reconnects: 0,
        }
    }

    /// Number of shards in the fleet.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `key` under the current fleet size.
    pub fn shard_of(&self, key: u64) -> usize {
        rendezvous_shard(key, self.shards.len())
    }

    /// The address of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_addr(&self, shard: usize) -> SocketAddr {
        self.shards[shard].addr
    }

    /// Repoints one shard at a new address (a restarted server may come
    /// back on a different port), dropping any existing connection so
    /// the next batch dials the new address.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn set_shard_addr(&mut self, shard: usize, addr: SocketAddr) {
        self.shards[shard].addr = addr;
        self.shards[shard].conn = None;
    }

    /// Connections (re-)established so far — dial attempts after a
    /// shard was seen down count here, so a chaos run can assert the
    /// client actually healed rather than silently staying degraded.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Routes a request to its shard: keyed ops by rendezvous hash,
    /// keyless introspection (`HEALTH`/`SCRUB_STATS`) to shard 0.
    fn route(&self, req: &Request) -> usize {
        match *req {
            Request::Get { key } | Request::Set { key, .. } => self.shard_of(key),
            Request::Health | Request::ScrubStats => 0,
        }
    }

    /// Lazily connects one shard; `None` means the dial failed (the
    /// shard is down right now).
    fn conn(&mut self, shard: usize) -> Option<&mut NetClient> {
        let s = &mut self.shards[shard];
        if s.conn.is_none() {
            match NetClient::connect_with(s.addr, self.cfg) {
                Ok(c) => {
                    s.conn = Some(c);
                    self.reconnects += 1;
                }
                Err(_) => return None,
            }
        }
        s.conn.as_mut()
    }

    /// Pipelines a logical batch across the fleet: splits `reqs` by
    /// owning shard, pipelines each shard's slice over its own
    /// connection, and writes answers back into caller order. `out` is
    /// cleared and filled with exactly `reqs.len()` outcomes; slots
    /// owned by an unreachable shard get [`ShardOutcome::ShardDown`]
    /// (that connection is dropped for lazy re-dial) while every other
    /// shard's slots are served normally.
    pub fn pipeline(&mut self, reqs: &[Request], out: &mut Vec<ShardOutcome>) {
        self.pipeline_retry(reqs, 1, out);
    }

    /// [`ShardedClient::pipeline`] with shed-aware retries, honored
    /// *per shard*: each shard's slice retries on its own connection
    /// with its own BUSY/DEGRADED hints (via
    /// [`NetClient::pipeline_retry`]), so one backlogged shard never
    /// delays or reorders the answers of its healthy siblings.
    pub fn pipeline_retry(&mut self, reqs: &[Request], attempts: u32, out: &mut Vec<ShardOutcome>) {
        out.clear();
        out.resize(reqs.len(), ShardOutcome::ShardDown);
        for slots in &mut self.split_slots {
            slots.clear();
        }
        for (i, req) in reqs.iter().enumerate() {
            let shard = self.route(req);
            self.split_slots[shard].push(i);
        }
        // The borrow checker cannot see that the connection and the
        // scratch buffers are disjoint fields, so the request slice
        // moves out for the call and back after.
        let mut shard_reqs = std::mem::take(&mut self.split_reqs);
        for shard in 0..self.shards.len() {
            if self.split_slots[shard].is_empty() {
                continue;
            }
            shard_reqs.clear();
            for &slot in &self.split_slots[shard] {
                shard_reqs.push(reqs[slot]);
            }
            let result = match self.conn(shard) {
                Some(conn) => conn.pipeline_retry(&shard_reqs, attempts),
                None => continue, // slots stay ShardDown
            };
            match result {
                Ok(responses) => {
                    for (&slot, resp) in self.split_slots[shard].iter().zip(responses) {
                        out[slot] = ShardOutcome::Response(resp);
                    }
                }
                Err(_) => {
                    // Transport failure mid-batch: the whole slice is
                    // reported down (answers may have been lost) and
                    // the connection is dropped for a fresh dial.
                    self.shards[shard].conn = None;
                }
            }
        }
        self.split_reqs = shard_reqs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_is_deterministic_and_in_range() {
        for key in 0..1000u64 {
            let a = rendezvous_shard(key, 5);
            let b = rendezvous_shard(key, 5);
            assert_eq!(a, b);
            assert!(a < 5);
        }
        assert_eq!(rendezvous_shard(42, 1), 0);
    }

    /// Removing one shard only remaps the keys that shard owned — the
    /// minimal-disruption property that makes rendezvous hashing worth
    /// its scoring loop.
    #[test]
    fn rendezvous_remaps_only_the_lost_shards_keys() {
        let shards = 4usize;
        for key in 0..4000u64 {
            let with_all = rendezvous_shard(key, shards);
            // Simulate losing the *last* shard (the only removal shape
            // expressible with a count-based API): keys on surviving
            // shards must not move.
            if with_all < shards - 1 {
                assert_eq!(rendezvous_shard(key, shards - 1), with_all);
            }
        }
    }
}
