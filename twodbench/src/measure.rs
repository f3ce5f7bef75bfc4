//! The timing discipline shared by every workload: fixed work split into
//! equal-work windows, process CPU read around each window, per-window
//! throughput, CPU per op and median latency, and set-up repeated at
//! points spread across the run.

use crate::hist::LogHist;
use crate::sys;
use crate::trace::Spans;
use std::time::Instant;

/// Outcome counts of a run, checked against the benchmark's own model.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Ops attempted (requests, cache calls, or classified fault events).
    pub attempted: u64,
    /// Ops that failed: `FAULT`, still shed after the retry budget, a
    /// transport error, or an unaccounted fault.
    pub failed: u64,
    /// Reads that returned a value other than the model's, or simulated
    /// statistics that differ from the reference call. Any makes the run
    /// incorrect.
    pub wrong: u64,
    /// Failed ops that were still shed (`BUSY`/`DEGRADED`) after the
    /// retry budget.
    pub still_shed: u64,
}

/// Per-op latencies in nanoseconds: over the whole run, and over the
/// current window.
#[derive(Clone, Debug, Default)]
pub struct Latency {
    pub total: LogHist,
    window: LogHist,
}

impl Latency {
    pub fn record(&mut self, ns: u64) {
        self.total.record(ns);
        self.window.record(ns);
    }

    /// Median of the window just ended; starts the next window.
    fn end_window(&mut self) -> f64 {
        let p50 = self.window.quantile(0.5);
        self.window.clear();
        p50
    }
}

/// A workload measured in equal-work windows.
pub trait Windowed {
    /// Untimed preparation of window `w` (generating its ops).
    fn prepare(&mut self, w: usize);
    /// Runs window `w`, returning the ops it performed.
    fn run(&mut self, w: usize) -> u64;
    /// Where the workload records its spans; `None` runs untraced.
    fn spans(&mut self) -> &mut Option<Spans>;
    fn latency(&mut self) -> &mut Latency;
}

/// The host runs in two modes that alternate in stretches of seconds:
/// a steady slow mode and a faster, noisier one (seen on a 2-vCPU KVM
/// guest with no steal time, as if a sibling hardware thread came and
/// went). A run reports each per-window series at this share from its
/// slow end — the 5th percentile of throughput, the 95th of per-op CPU
/// and latency — which tracks the steady mode whenever it covers a
/// twentieth of the run, where a median moves with the share of the run
/// each mode happened to get.
pub const SLOW_SIDE: f64 = 0.05;

/// A per-window series reduced at its slow end: `higher_is_faster`
/// series (throughput) at [`SLOW_SIDE`], time series at `1 - SLOW_SIDE`.
pub fn slow_side(values: &[f64], higher_is_faster: bool) -> f64 {
    let q = if higher_is_faster {
        SLOW_SIDE
    } else {
        1.0 - SLOW_SIDE
    };
    quantile(values, q)
}

/// How far above the run's median a sample's off-CPU share may sit
/// before a sample the hypervisor stole from counts as stalled.
const STALL_MARGIN: f64 = 0.02;

/// Wall time, process CPU and host steal over one timed stretch.
struct Stopwatch {
    t0: Instant,
    cpu0: f64,
    steal0: u64,
}

impl Stopwatch {
    fn start() -> Self {
        Stopwatch {
            steal0: sys::steal_ticks().0,
            cpu0: sys::process_cpu_s(),
            t0: Instant::now(),
        }
    }

    /// Wall seconds, CPU seconds, and whether the host's steal counter
    /// for the CPU advanced.
    fn stop(&self) -> (f64, f64, bool) {
        let wall = self.t0.elapsed().as_secs_f64();
        let cpu = sys::process_cpu_s() - self.cpu0;
        (wall, cpu, sys::steal_ticks().0 > self.steal0)
    }
}

/// Share of `wall` seconds the process spent off the CPU. Pinned alone
/// to one CPU, that is host steal or the program's own blocking (a retry
/// sleep).
fn off_cpu(wall: f64, cpu: f64) -> f64 {
    (1.0 - cpu / wall).max(0.0)
}

/// The values of the samples the host did not stall: a sample is left
/// out when steal time accrued in it and its off-CPU share sits more
/// than [`STALL_MARGIN`] above the median of all samples. Steal comes in
/// bursts of tens of milliseconds that take a large bite out of the few
/// samples they hit — exactly the samples a slow-side percentile would
/// pick. Only samples strictly above the median can go, so at least half
/// always remain.
fn unstalled(samples: impl Iterator<Item = (f64, f64, bool)> + Clone) -> Vec<f64> {
    let offs: Vec<f64> = samples.clone().map(|(_, off, _)| off).collect();
    let limit = median(&offs) + STALL_MARGIN;
    samples
        .filter(|&(_, off, stolen)| !(stolen && off > limit))
        .map(|(v, _, _)| v)
        .collect()
}

/// One timed set-up.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    pub secs: f64,
    pub off_cpu: f64,
    pub stolen: bool,
}

/// Times one run of `build`, returning its result and its timing.
pub fn timed<T>(build: impl FnOnce() -> T) -> (T, Setup) {
    let sw = Stopwatch::start();
    let built = build();
    let (wall, cpu, stolen) = sw.stop();
    let setup = Setup {
        secs: wall,
        off_cpu: off_cpu(wall, cpu),
        stolen,
    };
    eprintln!(
        "setup {} {} {}",
        setup.secs,
        setup.off_cpu,
        u8::from(setup.stolen)
    );
    (built, setup)
}

/// One window's figures.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub ops_per_s: f64,
    pub cpu_us_per_op: f64,
    pub p50_ns: f64,
    /// Share of the window's wall time the process spent off the CPU.
    pub off_cpu: f64,
    /// Whether the host's steal counter for the CPU advanced during the
    /// window.
    pub stolen: bool,
    /// Whether the workload recorded spans during the window.
    pub traced: bool,
}

/// What [`measure`] saw.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    pub windows: Vec<Window>,
    /// Process CPU seconds spent inside the untraced windows.
    pub cpu_s: f64,
    /// Wall seconds spent inside the untraced windows.
    pub wall_s: f64,
    /// Ops of the untraced windows.
    pub ops: u64,
    /// The set-ups timed before and between windows.
    pub setups: Vec<Setup>,
}

impl Measured {
    fn untraced(&self) -> impl Iterator<Item = &Window> + Clone {
        self.windows.iter().filter(|w| !w.traced)
    }

    fn column(&self, f: impl Fn(&Window) -> f64) -> Vec<f64> {
        self.untraced().map(f).collect()
    }

    /// Throughput of every untraced window.
    pub fn rates(&self) -> Vec<f64> {
        self.column(|w| w.ops_per_s)
    }

    /// Throughput of the traced windows of a traced run.
    pub fn traced_rates(&self) -> Vec<f64> {
        self.windows
            .iter()
            .filter(|w| w.traced)
            .map(|w| w.ops_per_s)
            .collect()
    }

    /// Throughput of the untraced windows the host did not stall (see
    /// [`unstalled`]).
    pub fn steady_rates(&self) -> Vec<f64> {
        unstalled(self.untraced().map(|w| (w.ops_per_s, w.off_cpu, w.stolen)))
    }

    /// Seconds of the set-ups the host did not stall (see [`unstalled`]).
    pub fn steady_setups(&self) -> Vec<f64> {
        unstalled(self.setups.iter().map(|s| (s.secs, s.off_cpu, s.stolen)))
    }

    pub fn cpu_per_op(&self) -> Vec<f64> {
        self.column(|w| w.cpu_us_per_op)
    }

    pub fn p50s(&self) -> Vec<f64> {
        self.column(|w| w.p50_ns)
    }
}

/// Runs `windows` windows of `work`, after the `first` set-up the caller
/// timed. Between windows it times `setup` (which builds a fresh copy of
/// the workload's set-up and drops it) `setups` more times, at points
/// spread evenly over the run, so set-up time samples the host at the
/// same moments the measurement does.
///
/// With `spans`, the run is traced: the workload records into them in
/// odd windows only, so traced and untraced windows sample the same host
/// periods, and the end-to-end series come from the untraced ones.
pub fn measure(
    work: &mut impl Windowed,
    windows: usize,
    first: Setup,
    setups: usize,
    setup: &mut dyn FnMut(),
    mut spans: Option<Spans>,
) -> Measured {
    let mut m = Measured {
        setups: vec![first],
        ..Measured::default()
    };
    for w in 0..windows {
        if (1..=setups).any(|k| k * windows / (setups + 1) == w) {
            m.setups.push(timed(&mut *setup).1);
        }
        work.prepare(w);
        let traced = spans.is_some() && w % 2 == 1;
        if traced {
            *work.spans() = spans.take();
        }
        let sw = Stopwatch::start();
        let ops = work.run(w);
        let (dt, cpu, stolen) = sw.stop();
        if traced {
            spans = work.spans().take();
        }
        let win = Window {
            ops_per_s: ops as f64 / dt,
            cpu_us_per_op: cpu * 1e6 / ops.max(1) as f64,
            p50_ns: work.latency().end_window(),
            off_cpu: off_cpu(dt, cpu),
            stolen,
            traced,
        };
        eprintln!(
            "window {w} {} {} {} {} {} {}",
            win.ops_per_s,
            win.cpu_us_per_op,
            win.p50_ns,
            win.off_cpu,
            u8::from(win.stolen),
            u8::from(win.traced)
        );
        m.windows.push(win);
        if !traced {
            m.cpu_s += cpu;
            m.wall_s += dt;
            m.ops += ops;
        }
    }
    *work.spans() = spans;
    m
}

/// Latency histogram plus tally, the per-op bookkeeping every
/// key-value workload keeps.
#[derive(Debug, Default)]
pub struct OpLog {
    pub latency: Latency,
    pub tally: Tally,
}

/// Quantile `q` of `values` by linear interpolation between order
/// statistics (0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Spin {
        spans: Option<Spans>,
        latency: Latency,
    }

    impl Windowed for Spin {
        fn prepare(&mut self, _w: usize) {}
        fn spans(&mut self) -> &mut Option<Spans> {
            &mut self.spans
        }
        fn latency(&mut self) -> &mut Latency {
            &mut self.latency
        }
        fn run(&mut self, w: usize) -> u64 {
            let mut x = 1u64;
            for i in 0..20_000u64 {
                let t0 = Instant::now();
                for _ in 0..100 {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
                self.latency
                    .record(t0.elapsed().as_nanos() as u64 + (w as u64) * (i % 2));
            }
            20_000
        }
    }

    fn setup(secs: f64, off_cpu: f64, stolen: bool) -> Setup {
        Setup {
            secs,
            off_cpu,
            stolen,
        }
    }

    #[test]
    fn windows_cpu_and_setups_are_sane() {
        let mut spin = Spin::default();
        let mut built = 0;
        let first = setup(0.5, 0.0, false);
        let m = measure(&mut spin, 7, first, 3, &mut || built += 1, None);
        assert_eq!(m.windows.len(), 7);
        assert_eq!(m.ops, 140_000);
        assert_eq!((built, m.setups.len()), (3, 4));
        assert_eq!(m.setups[0].secs, 0.5);
        assert!(m.setups[1..].iter().all(|s| s.secs >= 0.0 && s.secs < 0.1));
        assert!(m.rates().iter().all(|r| r.is_finite() && *r > 0.0));
        assert!(m.p50s().iter().all(|p| *p > 0.0));
        assert_eq!(spin.latency.total.count(), 140_000);
        // Process CPU covers every thread (other tests run beside this
        // one), so it is bounded by wall time on all CPUs.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        assert!(
            m.cpu_s >= 0.0 && m.cpu_s <= m.wall_s * cpus + 0.05,
            "cpu {} wall {}",
            m.cpu_s,
            m.wall_s
        );
        assert!(m.cpu_per_op().iter().all(|c| c.is_finite()));
    }

    #[test]
    fn traced_runs_trace_odd_windows_only() {
        let mut spin = Spin::default();
        let first = setup(0.0, 0.0, false);
        let spans = Some(Spans::new(16));
        let m = measure(&mut spin, 6, first, 0, &mut || {}, spans);
        let traced: Vec<bool> = m.windows.iter().map(|w| w.traced).collect();
        assert_eq!(traced, [false, true, false, true, false, true]);
        assert_eq!((m.rates().len(), m.traced_rates().len()), (3, 3));
        assert_eq!(m.ops, 60_000, "only untraced windows count");
        assert!(spin.spans.is_some(), "the spans are handed back");
    }

    #[test]
    fn steady_rates_drop_only_stolen_stalls() {
        let win = |ops_per_s, off_cpu, stolen| Window {
            ops_per_s,
            cpu_us_per_op: 1.0,
            p50_ns: 1.0,
            off_cpu,
            stolen,
            traced: false,
        };
        let m = Measured {
            windows: vec![
                win(100.0, 0.01, false),
                win(101.0, 0.01, true),
                win(60.0, 0.30, true),
                win(70.0, 0.25, false),
                win(99.0, 0.02, false),
            ],
            ..Measured::default()
        };
        // The stolen stall goes; a stall the program caused itself (no
        // steal) and a stolen window with a normal off-CPU share stay.
        assert_eq!(m.steady_rates(), vec![100.0, 101.0, 70.0, 99.0]);
    }

    #[test]
    fn steady_setups_drop_only_stolen_stalls() {
        let m = Measured {
            setups: vec![
                setup(0.010, 0.00, false),
                setup(0.030, 0.40, true),
                setup(0.011, 0.01, true),
                setup(0.012, 0.30, false),
                setup(0.009, 0.00, false),
            ],
            ..Measured::default()
        };
        assert_eq!(m.steady_setups(), vec![0.010, 0.011, 0.012, 0.009]);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.1), 1.0);
        assert_eq!(median(&[]), 0.0);
    }
}
