//! The workloads' inputs: key spaces and seeded op streams. Everything
//! here is a pure function of the workload and the seed, so equal seeds
//! replay byte-identical op streams.

use crate::rng::{SplitMix64, Zipf};
use cachesim::net::protocol::{route_key, MAX_KEY};
use std::collections::{HashMap, HashSet};

/// The workloads the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TcpGetD1,
    TcpSetSpillD16,
    CacheFaultScrub,
    SimCampaign,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TcpGetD1,
        Workload::TcpSetSpillD16,
        Workload::CacheFaultScrub,
        Workload::SimCampaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpGetD1 => "tcp_get_d1",
            Workload::TcpSetSpillD16 => "tcp_set_spill_d16",
            Workload::CacheFaultScrub => "cache_fault_scrub",
            Workload::SimCampaign => "sim_campaign",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(keys, zipf exponent, write share in permille)` of the key-value
    /// workloads; the simulator draws its own references.
    pub fn mix(self) -> (usize, f64, u64) {
        match self {
            Workload::TcpGetD1 => (2_048, 1.1, 50),
            Workload::TcpSetSpillD16 => (65_536, 0.9, 500),
            Workload::CacheFaultScrub => (16_384, 0.99, 300),
            Workload::SimCampaign => (2_048, 1.1, 50),
        }
    }

    /// Requests pipelined per round trip.
    pub fn depth(self) -> usize {
        match self {
            Workload::TcpSetSpillD16 => 16,
            _ => 1,
        }
    }
}

/// One key-value operation: `key` indexes the workload's key space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub key: u32,
    pub write: bool,
    pub value: u64,
}

/// Geometry of `CacheConfig::l1_64kb()` banked four ways, the cache
/// every key-value workload runs on.
pub const BANKS: usize = 4;
pub const SETS: u64 = 512;
pub const WAYS: usize = 2;

/// `(bank, set)` slot and line of a protocol key, by the same routing
/// the server applies.
fn placement(key: u64) -> (usize, u64) {
    let line = route_key(key) / 64;
    let bank = (line % BANKS as u64) as usize;
    let set = (line / BANKS as u64) % SETS;
    (bank * SETS as usize + set as usize, line)
}

/// Draws the workload's distinct protocol keys. The key population is
/// part of the workload's definition, fixed for every seed: where hot
/// keys land in the cache sets decides conflict misses, and letting the
/// seed move them would make a run's cost depend on the seed. The seed
/// drives the op stream and the values.
///
/// `tcp_get_d1` keeps at most `WAYS` lines per cache set, so its whole
/// key space stays resident after the prefill and every op hits.
pub fn key_space(workload: Workload) -> Vec<u64> {
    let (n, _, _) = workload.mix();
    let fit = workload == Workload::TcpGetD1;
    let mut rng = SplitMix64::new(0x6B65_7973 ^ n as u64);
    let mut seen = HashSet::with_capacity(n);
    let mut sets: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let key = rng.below(MAX_KEY + 1);
        if !seen.insert(key) {
            continue;
        }
        if fit {
            let (slot, line) = placement(key);
            let lines = sets.entry(slot).or_default();
            if !lines.contains(&line) {
                if lines.len() == WAYS {
                    continue;
                }
                lines.push(line);
            }
        }
        keys.push(key);
    }
    keys
}

/// Initial value of every key, written by the prefill.
pub fn prefill_values(keys: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x7072_6566);
    (0..keys).map(|_| rng.next_u64()).collect()
}

/// The seeded op stream of a key-value workload.
#[derive(Clone, Debug)]
pub struct OpStream {
    rng: SplitMix64,
    zipf: Zipf,
    write_permille: u64,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let (n, s, write_permille) = workload.mix();
        OpStream {
            rng: SplitMix64::new(seed ^ 0x6F70_7321),
            zipf: Zipf::new(n, s),
            write_permille,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let key = self.zipf.sample(&mut self.rng) as u32;
        let write = self.rng.below(1000) < self.write_permille;
        let value = if write { self.rng.next_u64() } else { 0 };
        Op { key, write, value }
    }

    /// Clears `buf` and fills it with the next `n` ops.
    pub fn fill(&mut self, buf: &mut Vec<Op>, n: usize) {
        buf.clear();
        buf.extend((0..n).map(|_| self.next_op()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(workload: Workload, seed: u64, n: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        for k in key_space(workload) {
            bytes.extend_from_slice(&k.to_le_bytes());
        }
        let mut ops = OpStream::new(workload, seed);
        for _ in 0..n {
            let op = ops.next_op();
            bytes.extend_from_slice(&op.key.to_le_bytes());
            bytes.push(u8::from(op.write));
            bytes.extend_from_slice(&op.value.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn equal_seeds_give_byte_identical_streams() {
        for w in Workload::ALL {
            assert_eq!(
                stream_bytes(w, 11, 5_000),
                stream_bytes(w, 11, 5_000),
                "{w:?}"
            );
            assert_ne!(
                stream_bytes(w, 11, 5_000),
                stream_bytes(w, 12, 5_000),
                "{w:?}"
            );
        }
    }

    #[test]
    fn get_d1_keys_fit_the_cache() {
        let keys = key_space(Workload::TcpGetD1);
        let mut lines: HashMap<usize, HashSet<u64>> = HashMap::new();
        for &k in &keys {
            let (slot, line) = placement(k);
            lines.entry(slot).or_default().insert(line);
        }
        assert!(lines.values().all(|l| l.len() <= WAYS));
        assert_eq!(keys.len(), 2_048);
    }

    #[test]
    fn write_share_matches_mix() {
        let mut ops = OpStream::new(Workload::TcpSetSpillD16, 1);
        let writes = (0..100_000).filter(|_| ops.next_op().write).count();
        assert!((48_000..52_000).contains(&writes), "{writes} writes");
    }
}
