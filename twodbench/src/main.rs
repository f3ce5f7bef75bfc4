//! The 2D-coded cache stack's benchmark.
//!
//! ```text
//! twodbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on fixed, seeded work sized from `--seconds`, checks
//! every answer against the benchmark's own model, prints each metric by
//! name and unit, and ends with one JSON line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the same work with every other
//! window traced, then the cost ladder, and reports the per-layer metrics.
//! Exits 1 when an output is wrong, 2 on bad arguments.

mod fault;
mod hist;
mod ladder;
mod measure;
mod report;
mod rng;
mod sim;
mod stream;
mod sys;
mod tcp;
mod trace;

use cachesim::SimCampaignConfig;
use measure::{measure, timed, Measured, Setup, Windowed};
use report::Report;
use std::path::Path;
use stream::{key_space, prefill_values, OpStream, Workload};
use trace::Spans;

/// Where a traced run writes its spans, relative to the repository root
/// the benchmark runs from.
const SPAN_DIR: &str = "twodbench/out";
/// Spans kept in memory by a traced run (the ring keeps the latest).
const SPAN_CAP: usize = 1 << 18;
/// Set-ups timed per run: one before the first window, the rest spread
/// over the run.
const SETUPS: usize = 15;
/// Ops the cost ladder replays.
const LADDER_OPS: usize = 16_384;

/// How much work one run does: `windows` equal windows of `window_ops`
/// ops, with `windows` sized so a run lasts about `--seconds` on a
/// 2-vCPU KVM guest. The count depends on `--seconds` only, so every
/// commit measured with the same arguments does the same work.
struct Plan {
    window_ops: usize,
    /// Ops per second the sizing assumes.
    nominal_rate: f64,
}

fn plan(w: Workload) -> Plan {
    match w {
        Workload::TcpGetD1 => Plan {
            window_ops: 10_000,
            nominal_rate: 57_000.0,
        },
        Workload::TcpSetSpillD16 => Plan {
            window_ops: 32_768,
            nominal_rate: 240_000.0,
        },
        Workload::CacheFaultScrub => Plan {
            window_ops: 32_768,
            nominal_rate: 380_000.0,
        },
        Workload::SimCampaign => Plan {
            window_ops: 1,
            nominal_rate: 24.0,
        },
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value:?}; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Measures `windows` windows after the `first` set-up. An untraced run
/// times `SETUPS - 1` more set-ups spread over the run; a traced run
/// times none and records spans in every other window.
fn run_windows(
    work: &mut impl Windowed,
    windows: usize,
    trace: bool,
    first: Setup,
    setup: &mut dyn FnMut(),
) -> Measured {
    if trace {
        measure(work, windows, first, 0, setup, Some(Spans::new(SPAN_CAP)))
    } else {
        measure(work, windows, first, SETUPS - 1, setup, None)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("twodbench: {e}");
            std::process::exit(2);
        }
    };
    let p = plan(args.workload);
    let windows = ((args.seconds * p.nominal_rate / p.window_ops as f64).round() as usize).max(4);
    let steal0 = sys::steal_ticks();
    let mut rep = Report::new(args.workload, args.trace);
    match args.workload {
        Workload::TcpGetD1 | Workload::TcpSetSpillD16 => run_tcp(&args, &p, windows, &mut rep),
        Workload::CacheFaultScrub => run_fault(&args, &p, windows, &mut rep),
        Workload::SimCampaign => run_sim(&args, windows, &mut rep),
    }
    let (steal, cpus) = (sys::steal_share(steal0, sys::steal_ticks()), sys::cpu_set());
    rep.note("host", format!("steal_share={steal:.4} cpu_set={cpus}"));
    rep.layers.host(steal, sys::cpu_mask(&cpus));
    if let Some(spans) = rep.spans.take() {
        if let Err(e) = write_spans(&args, &spans) {
            eprintln!("twodbench: could not write spans: {e}");
        }
        rep.print_span_summary(&spans);
    }
    let correct = rep.finish();
    std::process::exit(if correct { 0 } else { 1 });
}

fn write_spans(args: &Args, spans: &Spans) -> std::io::Result<()> {
    std::fs::create_dir_all(SPAN_DIR)?;
    let path =
        Path::new(SPAN_DIR).join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
    std::fs::write(&path, spans.to_tsv())?;
    eprintln!("twodbench: spans written to {}", path.display());
    Ok(())
}

/// The ladder over the first ops of the workload's own stream. Its
/// wrong answers count against the run.
fn ladder_for(
    args: &Args,
    keys: &[u64],
    values: &[u64],
    rep: &mut Report,
    spans: &mut Spans,
) -> ladder::Ladder {
    let mut stream = OpStream::new(args.workload, args.seed);
    let mut ops = Vec::new();
    stream.fill(&mut ops, LADDER_OPS);
    let lad = ladder::run(keys, values, &ops, args.workload.depth(), spans);
    rep.ladder_wrong += lad.wrong;
    rep.layers.ladder(&lad);
    lad
}

/// Scrub figures from one full sweep of the ladder's cache, for
/// workloads whose own loop does not scrub.
fn ladder_scrub(rep: &mut Report, lad: &ladder::Ladder) {
    let cache = lad.cache.as_ref().expect("ladder cache");
    let (slices, rows, errors) = ladder::scrub_sweep(cache);
    rep.layers.scrub(&slices, rows, errors);
}

/// Simulator figures from one campaign call, for workloads that do not
/// run the simulator.
fn ladder_sim(args: &Args, rep: &mut Report) {
    let t0 = std::time::Instant::now();
    let out = cachesim::run_sim_campaign(SimCampaignConfig::quick(args.seed));
    rep.layers.sim(&out, t0.elapsed().as_secs_f64() * 1e3);
    if !sim::sound(&out) {
        rep.fatal = Some("ladder campaign is unhealthy or has 2D SDC".into());
    }
}

/// The end-to-end figures of a measurement, and in a traced run the
/// tracing overhead.
fn finish_measured(rep: &mut Report, m: &Measured, trace: bool) {
    rep.measured(m);
    if trace {
        rep.layers.overhead(
            measure::median(&m.rates()),
            measure::median(&m.traced_rates()),
        );
    }
}

fn run_tcp(args: &Args, p: &Plan, windows: usize, rep: &mut Report) {
    let keys = key_space(args.workload);
    let values = prefill_values(keys.len(), args.seed);
    let (mut rig, first) = timed(|| tcp::build_rig(&keys, &values));
    let before = report::Snap::take(&rig.cache, Some(&rig.server));
    let stream = OpStream::new(args.workload, args.seed);
    let depth = args.workload.depth();
    let mut work = tcp::TcpWork::new(&mut rig, &keys, values.clone(), stream, depth, p.window_ops);
    let mut setup = || drop(tcp::build_rig(&keys, &values));
    let m = run_windows(&mut work, windows, args.trace, first, &mut setup);
    finish_measured(rep, &m, args.trace);
    rep.tally = work.log.tally;
    rep.fail_share();
    if let Some(e) = &work.fatal {
        rep.fatal = Some(format!("transport error: {e}"));
    }
    rep.layers.client_rtt(&work.log.latency.total);
    let mut spans = work.spans.take();
    drop(work);
    let after = report::Snap::take(&rig.cache, Some(&rig.server));
    rep.layers.counters(&before, &after, rep.tally.still_shed);
    if let Some(spans) = spans.as_mut() {
        let lad = ladder_for(args, &keys, &values, rep, spans);
        ladder_scrub(rep, &lad);
        ladder_sim(args, rep);
    }
    rep.spans = spans;
}

fn run_fault(args: &Args, p: &Plan, windows: usize, rep: &mut Report) {
    let keys = key_space(args.workload);
    let values = prefill_values(keys.len(), args.seed);
    let (cache, first) = timed(|| fault::build_cache(&keys, &values));
    let before = report::Snap::take(&cache, None);
    let stream = OpStream::new(args.workload, args.seed);
    let mut work = fault::FaultWork::new(&cache, &keys, values.clone(), stream, p.window_ops);
    let mut setup = || drop(fault::build_cache(&keys, &values));
    let m = run_windows(&mut work, windows, args.trace, first, &mut setup);
    finish_measured(rep, &m, args.trace);
    rep.tally = work.log.tally;
    rep.fail_share();
    let after = report::Snap::take(&cache, None);
    rep.layers.counters(&before, &after, 0);
    let scrub = &work.scrub;
    rep.layers
        .scrub(&scrub.slice_ns, scrub.rows_scanned, scrub.errors_found);
    let engine = after.engine_delta(&before);
    rep.note(
        "engine outcomes",
        format!(
            "injected={} inline_corrections={} recoveries={} uncorrectable={} scrub_errors_found={}",
            scrub.injected,
            engine.inline_corrections,
            engine.recoveries,
            work.log.tally.failed + scrub.uncorrectable,
            scrub.errors_found
        ),
    );
    if scrub.uncorrectable > 0 {
        rep.fatal = Some(format!(
            "{} scrub slices hit uncorrectable damage",
            scrub.uncorrectable
        ));
    }
    let mut spans = work.spans.take();
    drop(work);
    if let Some(spans) = spans.as_mut() {
        let lad = ladder_for(args, &keys, &values, rep, spans);
        rep.layers.client_rtt(&lad.rtt);
        let server = lad.server.as_ref().expect("ladder server");
        rep.layers.server(&Default::default(), &server.stats(), 0);
        ladder_sim(args, rep);
    }
    rep.spans = spans;
}

fn run_sim(args: &Args, windows: usize, rep: &mut Report) {
    let cfg = SimCampaignConfig::quick(args.seed);
    if let Err(diff) = sim::check_expected() {
        eprintln!("twodbench: simulated statistics differ from expected_sim.txt\n{diff}");
        rep.fatal = Some("simulated statistics differ from expected_sim.txt".into());
    }
    let reference = cachesim::run_sim_campaign(cfg);
    if !sim::sound(&reference) {
        rep.fatal = Some("reference campaign is unhealthy or has 2D SDC".into());
    }
    for line in sim::digest(&reference).lines() {
        rep.note("sim digest", line.to_string());
    }
    let (warm, first) = timed(|| sim::warm_up(cfg));
    let mut setup = || {
        if sim::warm_up(cfg) != warm {
            rep.fatal = Some("a set-up's warmed simulators differ from the first".into());
        }
    };
    let mut work = sim::SimWork::new(cfg, &reference);
    let m = run_windows(&mut work, windows, args.trace, first, &mut setup);
    finish_measured(rep, &m, args.trace);
    rep.tally = work.tally;
    rep.fail_share();
    rep.sim(&reference);
    rep.layers
        .sim(&reference, work.latency.total.quantile(0.5) / 1e6);
    let mut spans = work.spans.take();
    if let Some(spans) = spans.as_mut() {
        let keys = key_space(args.workload);
        let values = prefill_values(keys.len(), args.seed);
        let lad = ladder_for(args, &keys, &values, rep, spans);
        rep.layers.client_rtt(&lad.rtt);
        let cache = lad.cache.as_ref().expect("ladder cache");
        let after = report::Snap::take(cache, lad.server.as_ref());
        rep.layers.counters(&report::Snap::default(), &after, 0);
        ladder_scrub(rep, &lad);
    }
    rep.spans = spans;
}
