//! Metric names, units and output. Every metric is printed as a
//! `name value unit` line; the last line of standard output is the JSON
//! object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run).

use crate::hist::LogHist;
use crate::ladder::Ladder;
use crate::measure::{quantile, slow_side, Measured, Tally};
use crate::sim;
use crate::stream::Workload;
use crate::sys;
use crate::trace::Spans;
use cachesim::net::{CacheServer, ServerStats};
use cachesim::{SimCampaignOutcome, StoreScheme};
use memarray::EngineStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use twod_cache::{CacheStats, ConcurrentBankedCache};

/// The end-to-end metrics of the JSON line, present on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics of a traced run, every one on every workload.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("net.client.rtt_p50_us", "us"),
    ("net.client.rtt_p99_us", "us"),
    ("net.client.rtt_samples", "count"),
    ("net.client.encode_ns_per_req", "ns"),
    ("net.client.decode_ns_per_req", "ns"),
    ("net.client.retries_per_kop", "1/kop"),
    ("net.server.exec_ns_per_req", "ns"),
    ("net.server.req_per_batch", "req/batch"),
    ("net.server.degraded_sheds_per_kop", "1/kop"),
    ("net.server.busy_sheds_per_kop", "1/kop"),
    ("net.transport_ns_per_req", "ns"),
    ("cache.op_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.writebacks_per_op", "ratio"),
    ("cache.locks_per_op", "ratio"),
    ("cache.optimistic_share", "ratio"),
    ("memarray.read_word_ns", "ns"),
    ("memarray.write_word_ns", "ns"),
    ("memarray.extra_reads_per_write", "ratio"),
    ("memarray.silent_write_share", "ratio"),
    ("memarray.inline_corrections", "count"),
    ("memarray.recoveries", "count"),
    ("memarray.recovery_rows_per_recovery", "rows"),
    ("memarray.recover_us.bit", "us"),
    ("memarray.recover_us.8x8", "us"),
    ("memarray.recover_us.32x32", "us"),
    ("scrub.slice_us", "us"),
    ("scrub.rows_scanned", "count"),
    ("scrub.errors_found", "count"),
    ("ecc.check_ns_per_word", "ns"),
    ("ecc.decode_dirty_ns", "ns"),
    ("sim.detailed.miss_ratio", "ratio"),
    ("sim.detailed.mshr_occupancy_mean", "count"),
    ("sim.detailed.mshr_wait_cycles_per_ref", "cycles"),
    ("sim.detailed.correction_stall_frac", "ratio"),
    ("sim.detailed.host_ms_per_window", "ms"),
    ("sim.protected.penalty_cycles_per_fill", "cycles"),
    ("sim.protected.fill_reads", "count"),
    ("sim.protected.writebacks", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.cpu_set", "mask"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Counters of a cache (and its server) at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snap {
    stats: CacheStats,
    engine: EngineStats,
    locks: u64,
    optimistic: u64,
    server: ServerStats,
}

impl Snap {
    pub fn take(cache: &ConcurrentBankedCache, server: Option<&CacheServer>) -> Snap {
        Snap {
            locks: cache.lock_acquisitions(),
            optimistic: cache.optimistic_hits(),
            stats: cache.stats(),
            engine: cache.data_engine_stats(),
            server: server.map(CacheServer::stats).unwrap_or_default(),
        }
    }

    /// Engine outcome counters accumulated since `before`.
    pub fn engine_delta(&self, before: &Snap) -> EngineStats {
        let (a, b) = (&self.engine, &before.engine);
        EngineStats {
            reads: a.reads - b.reads,
            writes: a.writes - b.writes,
            extra_reads: a.extra_reads - b.extra_reads,
            silent_writes: a.silent_writes - b.silent_writes,
            inline_corrections: a.inline_corrections - b.inline_corrections,
            recoveries: a.recoveries - b.recoveries,
            recovery_rows_scanned: a.recovery_rows_scanned - b.recovery_rows_scanned,
            bits_recovered: a.bits_recovered - b.bits_recovered,
            cells_remapped: a.cells_remapped - b.cells_remapped,
            scrub_passes: a.scrub_passes - b.scrub_passes,
            scrub_slices: a.scrub_slices - b.scrub_slices,
            scrub_rows_scanned: a.scrub_rows_scanned - b.scrub_rows_scanned,
            scrub_errors_found: a.scrub_errors_found - b.scrub_errors_found,
        }
    }
}

/// The per-layer metrics of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn host(&mut self, steal_share: f64, cpu_mask: u64) {
        self.set("host.steal_share", steal_share);
        self.set("host.cpu_set", cpu_mask as f64);
    }

    pub fn overhead(&mut self, untraced_rate: f64, traced_rate: f64) {
        self.set(
            "trace.overhead_share",
            1.0 - ratio(traced_rate, untraced_rate),
        );
    }

    pub fn client_rtt(&mut self, rtt: &LogHist) {
        self.set("net.client.rtt_p50_us", rtt.quantile(0.5) / 1e3);
        self.set("net.client.rtt_p99_us", rtt.quantile(0.99) / 1e3);
        self.set("net.client.rtt_samples", rtt.count() as f64);
    }

    /// Server counters between two snapshots of its stats. Every shed
    /// request is re-sent except the `still_shed` ones that ran out of
    /// retry budget, so the client's retries are the sheds minus those.
    pub fn server(&mut self, before: &ServerStats, after: &ServerStats, still_shed: u64) {
        let requests = (after.requests - before.requests) as f64;
        let batches = (after.batches - before.batches) as f64;
        self.set("net.server.req_per_batch", ratio(requests, batches));
        let degraded = after.degraded_sheds - before.degraded_sheds;
        let busy = after.busy_sheds - before.busy_sheds;
        let per_kop = |n: u64| ratio(n as f64 * 1e3, requests);
        self.set("net.server.degraded_sheds_per_kop", per_kop(degraded));
        self.set("net.server.busy_sheds_per_kop", per_kop(busy));
        self.set(
            "net.client.retries_per_kop",
            per_kop((degraded + busy).saturating_sub(still_shed)),
        );
    }

    /// Cache, engine and server counters between two snapshots.
    pub fn counters(&mut self, before: &Snap, after: &Snap, still_shed: u64) {
        let (a, b) = (&after.stats, &before.stats);
        let reads = (a.read_hits + a.read_misses - b.read_hits - b.read_misses) as f64;
        let writes = (a.write_hits + a.write_misses - b.write_hits - b.write_misses) as f64;
        let hits = (a.read_hits + a.write_hits - b.read_hits - b.write_hits) as f64;
        let ops = reads + writes;
        self.set("cache.hit_ratio", ratio(hits, ops));
        self.set(
            "cache.writebacks_per_op",
            ratio((a.writebacks - b.writebacks) as f64, ops),
        );
        self.set(
            "cache.locks_per_op",
            ratio((after.locks - before.locks) as f64, ops),
        );
        self.set(
            "cache.optimistic_share",
            ratio((after.optimistic - before.optimistic) as f64, reads),
        );
        let e = after.engine_delta(before);
        self.set(
            "memarray.extra_reads_per_write",
            ratio(e.extra_reads as f64, e.writes as f64),
        );
        self.set(
            "memarray.silent_write_share",
            ratio(e.silent_writes as f64, e.writes as f64),
        );
        self.set("memarray.inline_corrections", e.inline_corrections as f64);
        self.set("memarray.recoveries", e.recoveries as f64);
        self.set(
            "memarray.recovery_rows_per_recovery",
            ratio(e.recovery_rows_scanned as f64, e.recoveries as f64),
        );
        self.server(&before.server, &after.server, still_shed);
    }

    pub fn scrub(&mut self, slices: &LogHist, rows: u64, errors: u64) {
        self.set("scrub.slice_us", slices.mean() / 1e3);
        self.set("scrub.rows_scanned", rows as f64);
        self.set("scrub.errors_found", errors as f64);
    }

    pub fn sim(&mut self, out: &SimCampaignOutcome, host_ms_per_window: f64) {
        let s = sim::scheme(out, StoreScheme::TwoD);
        let refs = s.sim.references as f64;
        self.set("sim.detailed.miss_ratio", s.sim.miss_ratio());
        self.set(
            "sim.detailed.mshr_occupancy_mean",
            s.sim.mshr_occupancy_mean(),
        );
        self.set(
            "sim.detailed.mshr_wait_cycles_per_ref",
            ratio(s.sim.mshr_wait_cycles as f64, refs),
        );
        self.set(
            "sim.detailed.correction_stall_frac",
            s.sim.correction_stall_fraction(),
        );
        self.set("sim.detailed.host_ms_per_window", host_ms_per_window);
        self.set(
            "sim.protected.penalty_cycles_per_fill",
            ratio(s.store.penalty_cycles as f64, s.store.fill_reads as f64),
        );
        self.set("sim.protected.fill_reads", s.store.fill_reads as f64);
        self.set("sim.protected.writebacks", s.store.writebacks as f64);
    }

    /// The ladder's rung costs.
    pub fn ladder(&mut self, lad: &Ladder) {
        self.set("ecc.check_ns_per_word", lad.check_ns_per_word);
        self.set("ecc.decode_dirty_ns", lad.decode_dirty_ns);
        self.set("memarray.read_word_ns", lad.read_word_ns);
        self.set("memarray.write_word_ns", lad.write_word_ns);
        self.set("memarray.recover_us.bit", lad.recover_us[0]);
        self.set("memarray.recover_us.8x8", lad.recover_us[1]);
        self.set("memarray.recover_us.32x32", lad.recover_us[2]);
        self.set("cache.op_ns", lad.cache_op_ns);
        self.set("net.server.exec_ns_per_req", lad.exec_ns_per_req);
        self.set("net.client.encode_ns_per_req", lad.encode_ns_per_req);
        self.set("net.client.decode_ns_per_req", lad.decode_ns_per_req);
        self.set("net.transport_ns_per_req", lad.transport_ns_per_req());
        self.set("trace.unattributed_share", lad.unattributed_share());
    }
}

pub struct Report {
    workload: Workload,
    trace: bool,
    pub setup_s: f64,
    e2e: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<(&'static str, String)>,
    pub layers: Layers,
    pub tally: Tally,
    /// Wrong answers seen by the ladder's checked rungs.
    pub ladder_wrong: u64,
    /// A failure that makes the run incorrect regardless of the tally.
    pub fatal: Option<String>,
    pub spans: Option<Spans>,
}

impl Report {
    pub fn new(workload: Workload, trace: bool) -> Self {
        Report {
            workload,
            trace,
            setup_s: 0.0,
            e2e: Vec::new(),
            notes: Vec::new(),
            layers: Layers::default(),
            tally: Tally::default(),
            ladder_wrong: 0,
            fatal: None,
            spans: None,
        }
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    pub fn note(&mut self, name: &'static str, text: String) {
        self.notes.push((name, text));
    }

    /// The timed end-to-end figures of a measurement: each per-window
    /// series, and the set-up times, reduced at their slow side (see
    /// [`SLOW_SIDE`](crate::measure::SLOW_SIDE)) after the samples the
    /// host stalled are left out of throughput and set-up time.
    pub fn measured(&mut self, m: &Measured) {
        let setups = m.steady_setups();
        self.setup_s = slow_side(&setups, false);
        let rates = m.rates();
        let steady = m.steady_rates();
        self.put("ops_per_s", slow_side(&steady, true), "ops/s");
        self.put("p50_us", slow_side(&m.p50s(), false) / 1e3, "us");
        self.put("cpu_us_per_op", slow_side(&m.cpu_per_op(), false), "us");
        self.note(
            "windows",
            format!(
                "{} untraced windows ({} stalled by steal), {} ops, {:.3} s timed, {:.4} s CPU; ops/s q10 {:.0} q25 {:.0} q75 {:.0} q90 {:.0}",
                rates.len(),
                rates.len() - steady.len(),
                m.ops,
                m.wall_s,
                m.cpu_s,
                quantile(&rates, 0.1),
                quantile(&rates, 0.25),
                quantile(&rates, 0.75),
                quantile(&rates, 0.9)
            ),
        );
        self.note(
            "setups",
            format!(
                "{} timed ({} stalled by steal): {:?}",
                m.setups.len(),
                m.setups.len() - setups.len(),
                m.setups.iter().map(|s| s.secs).collect::<Vec<_>>()
            ),
        );
    }

    pub fn fail_share(&mut self) {
        let t = self.tally;
        self.put(
            "fail_share",
            ratio(t.failed as f64, t.attempted as f64),
            "ratio",
        );
    }

    /// The simulator's exact end-to-end statistics.
    pub fn sim(&mut self, out: &SimCampaignOutcome) {
        let twod = sim::scheme(out, StoreScheme::TwoD);
        let secded = sim::scheme(out, StoreScheme::SecdedPerLine);
        self.put("sim_cycles_per_ref_2d", twod.sim.cycles_per_ref(), "cycles");
        self.put(
            "sim_cycles_per_ref_secded",
            secded.sim.cycles_per_ref(),
            "cycles",
        );
        self.put("sim_sdc_2d", twod.totals.sdc as f64, "count");
        self.put("sim_due_2d", twod.totals.due as f64, "count");
    }

    pub fn print_span_summary(&self, spans: &Spans) {
        println!(
            "# spans kept per name (dropped {}): count, total ms, self ms",
            spans.dropped()
        );
        for (name, (count, total, own)) in spans.self_times() {
            println!(
                "span {name} {count} {:.3} {:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }

    /// Prints every metric line and the closing JSON line; returns
    /// whether the run's outputs were correct.
    pub fn finish(mut self) -> bool {
        self.put("setup_s", self.setup_s, "s");
        self.put("peak_rss_mib", sys::peak_rss_mib(), "MiB");
        let t = self.tally;
        let correct = t.wrong == 0 && self.ladder_wrong == 0 && self.fatal.is_none();
        println!(
            "# workload {} (trace {})",
            self.workload.name(),
            u8::from(self.trace)
        );
        for (name, text) in &self.notes {
            println!("# {name}: {text}");
        }
        println!(
            "# attempted {} failed {} (still shed {}) wrong {}",
            t.attempted, t.failed, t.still_shed, t.wrong
        );
        if let Some(f) = &self.fatal {
            println!("# FATAL: {f}");
        }
        let mut json = String::new();
        if self.trace {
            for (name, unit) in PER_LAYER {
                let v = self.layers.values.get(name).copied().unwrap_or(0.0);
                println!("{name} {v} {unit}");
                push_metric(&mut json, name, v, unit);
            }
        } else {
            for &(name, v, unit) in &self.e2e {
                println!("{name} {v} {unit}");
            }
            for (name, unit) in END_TO_END {
                let v = self
                    .e2e
                    .iter()
                    .find(|(n, _, _)| *n == name)
                    .map_or(0.0, |&(_, v, _)| v);
                push_metric(&mut json, name, v, unit);
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            t.attempted.max(1),
            t.failed
        );
        correct
    }
}

fn push_metric(json: &mut String, name: &str, value: f64, unit: &str) {
    if !json.is_empty() {
        json.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        json,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}
