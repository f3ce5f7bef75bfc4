//! `cache_fault_scrub`: one thread calling `ConcurrentBankedCache`
//! `read`/`write` in process, with bank errors injected and scrub slices
//! run on a schedule keyed by op index alone. No sockets, no threads, no
//! timers: equal seeds and op counts give identical engine outcomes.

use crate::hist::LogHist;
use crate::measure::{Latency, OpLog, Windowed};
use crate::stream::{Op, OpStream, BANKS};
use crate::trace::Spans;
use cachesim::net::protocol::route_key;
use memarray::ErrorShape;
use std::time::Instant;
use twod_cache::{CacheConfig, ConcurrentBankedCache};

/// One bank error every this many ops, round-robin over the banks.
pub const INJECT_EVERY: u64 = 1_024;
/// Op index within each injection period at which the error lands.
const INJECT_PHASE: u64 = 32;
/// One synchronous scrub slice every this many ops, round-robin over the
/// banks.
pub const SCRUB_EVERY: u64 = 64;
/// Rows per scrub slice. A bank gets a slice every `BANKS * SCRUB_EVERY`
/// ops, so it is swept end to end (2048 rows / 128) within the
/// `BANKS * INJECT_EVERY` ops between two errors in that bank: no bank
/// ever holds two errors at once.
pub const SCRUB_ROWS: usize = 128;

/// The `n`-th injection of the schedule: `(bank, shape)`, a function of
/// `n` and the array size only. Each bank cycles through a single bit,
/// an 8x8 and a 32x32 cluster, and a row.
pub fn injection(n: u64, rows: usize, cols: usize) -> (usize, ErrorShape) {
    let bank = (n % BANKS as u64) as usize;
    let row = ((n * 7_919 + 13) % (rows as u64 - 32)) as usize;
    let col = ((n * 104_729 + 5) % (cols as u64 - 32)) as usize;
    let shape = match (n / BANKS as u64) % 4 {
        0 => ErrorShape::Single { row, col },
        1 => ErrorShape::Cluster {
            row,
            col,
            height: 8,
            width: 8,
        },
        2 => ErrorShape::Cluster {
            row,
            col,
            height: 32,
            width: 32,
        },
        _ => ErrorShape::Row { row },
    };
    (bank, shape)
}

/// Builds the cache and writes every key once.
pub fn build_cache(keys: &[u64], values: &[u64]) -> ConcurrentBankedCache {
    let cache = ConcurrentBankedCache::new(CacheConfig::l1_64kb(), BANKS);
    for (&k, &v) in keys.iter().zip(values) {
        cache.write(route_key(k), v).expect("prefill write");
    }
    cache
}

/// Scrub bookkeeping of a run.
#[derive(Debug, Default)]
pub struct ScrubLog {
    pub slice_ns: LogHist,
    pub rows_scanned: u64,
    pub errors_found: u64,
    pub uncorrectable: u64,
    pub injected: u64,
}

pub struct FaultWork<'a> {
    pub cache: &'a ConcurrentBankedCache,
    pub addrs: Vec<u64>,
    pub model: Vec<u64>,
    pub stream: OpStream,
    pub window_ops: usize,
    pub log: OpLog,
    pub scrub: ScrubLog,
    pub spans: Option<Spans>,
    ops: Vec<Op>,
    index: u64,
    rows: usize,
    cols: usize,
}

impl<'a> FaultWork<'a> {
    pub fn new(
        cache: &'a ConcurrentBankedCache,
        keys: &[u64],
        model: Vec<u64>,
        stream: OpStream,
        window_ops: usize,
    ) -> Self {
        let (rows, cols) = {
            let bank = cache.lock_bank(0);
            (bank.data_array().rows(), bank.data_array().cols())
        };
        FaultWork {
            cache,
            addrs: keys.iter().map(|&k| route_key(k)).collect(),
            model,
            stream,
            window_ops,
            log: OpLog::default(),
            scrub: ScrubLog::default(),
            spans: None,
            ops: Vec::with_capacity(window_ops),
            index: 0,
            rows,
            cols,
        }
    }
}

impl Windowed for FaultWork<'_> {
    fn spans(&mut self) -> &mut Option<Spans> {
        &mut self.spans
    }

    fn latency(&mut self) -> &mut Latency {
        &mut self.log.latency
    }

    fn prepare(&mut self, _w: usize) {
        self.stream.fill(&mut self.ops, self.window_ops);
    }

    fn run(&mut self, _w: usize) -> u64 {
        for op in &self.ops {
            let i = self.index;
            self.index += 1;
            if i.is_multiple_of(SCRUB_EVERY) {
                let bank = ((i / SCRUB_EVERY) % BANKS as u64) as usize;
                let t0 = Instant::now();
                let slice = self.cache.scrub_bank_step(bank, SCRUB_ROWS);
                let t1 = Instant::now();
                self.scrub.slice_ns.record((t1 - t0).as_nanos() as u64);
                match slice {
                    Ok(s) => {
                        self.scrub.rows_scanned += s.rows_scanned as u64;
                        self.scrub.errors_found += s.dirty_rows as u64;
                    }
                    Err(_) => self.scrub.uncorrectable += 1,
                }
                if let Some(spans) = self.spans.as_mut() {
                    spans.record(i, "scrub.slice", None, t0, t1);
                }
            }
            if i % INJECT_EVERY == INJECT_PHASE {
                let (bank, shape) = injection(i / INJECT_EVERY, self.rows, self.cols);
                self.cache.inject_bank_error(bank, shape);
                self.scrub.injected += 1;
            }
            let addr = self.addrs[op.key as usize];
            let t0 = Instant::now();
            let result = if op.write {
                self.cache.write(addr, op.value).map(|()| op.value)
            } else {
                self.cache.read(addr)
            };
            let t1 = Instant::now();
            self.log.latency.record((t1 - t0).as_nanos() as u64);
            if let Some(spans) = self.spans.as_mut() {
                spans.record(i, "cache.call", None, t0, t1);
            }
            let tally = &mut self.log.tally;
            tally.attempted += 1;
            match result {
                Ok(v) if op.write => {
                    debug_assert_eq!(v, op.value);
                    self.model[op.key as usize] = v;
                }
                Ok(v) => {
                    if v != self.model[op.key as usize] {
                        tally.wrong += 1;
                    }
                }
                Err(_) => tally.failed += 1,
            }
        }
        self.ops.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{measure, timed};
    use crate::stream::{key_space, prefill_values, Workload};

    fn short_run(seed: u64) -> (memarray::EngineStats, u64, u64, u64, u64) {
        let w = Workload::CacheFaultScrub;
        let keys = key_space(w);
        let values = prefill_values(keys.len(), seed);
        let cache = build_cache(&keys, &values);
        let mut work = FaultWork::new(&cache, &keys, values, OpStream::new(w, seed), 8_192);
        measure(&mut work, 3, timed(|| ()).1, 0, &mut || {}, None);
        let t = work.log.tally;
        assert_eq!(t.wrong, 0, "wrong reads under the fault schedule");
        (
            cache.data_engine_stats(),
            t.failed,
            work.scrub.errors_found,
            work.scrub.rows_scanned,
            work.scrub.injected,
        )
    }

    #[test]
    fn equal_seeds_give_identical_engine_outcomes() {
        let a = short_run(21);
        let b = short_run(21);
        assert_eq!(a, b);
        let (stats, failed, _, rows, injected) = a;
        assert_eq!(failed, 0);
        assert_eq!(injected, 24);
        assert_eq!(rows, 384 * SCRUB_ROWS as u64);
        assert!(stats.recoveries >= injected - 1, "{stats:?}");
    }

    #[test]
    fn schedule_stays_inside_the_array() {
        for n in 0..64 {
            let (bank, shape) = injection(n, 2_048, 288);
            assert!(bank < BANKS);
            assert!(shape.cells(2_048, 288).len() <= 32 * 32 + 288);
        }
    }
}
