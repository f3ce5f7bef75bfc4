//! Background scrubbing service for [`ConcurrentBankedCache`]: the
//! self-healing layer the paper's reliability argument assumes.
//!
//! The 2D scheme only meets its multi-bit targets if errors are removed
//! from the array faster than they accumulate into clusters the `H x V`
//! coverage cannot span (the accumulation analysis lives in
//! [`memarray::scrub`]). Relying on callers to invoke `scrub()` makes
//! that a hope, not a property. [`Scrubber`] makes it a property: it
//! owns dedicated threads that sweep every bank in short *lock-sliced*
//! bursts — each slice locks one bank for a bounded number of row scans
//! ([`ScrubberConfig::rows_per_slice`]), so foreground read/write
//! latency stays bounded while the sweep marches in the background.
//!
//! The sweep cadence is not fixed. An AIMD-style controller watches each
//! bank's observed error traffic (inline corrections + recoveries, the
//! deduplicated event count of [`memarray::EngineStats::observed_errors`])
//! and halves the inter-slice interval while errors are arriving,
//! doubling it back toward the idle cadence once the array stays clean —
//! the traffic-aware scrubbing Kishani et al. argue for, applied to the
//! repair rate instead of the coding rate.
//!
//! Every error event also feeds an [`reliability::OnlineRateEstimator`],
//! so a running service can report the FIT/MTTF its own telemetry
//! implies (with exact Poisson confidence bounds) instead of a datasheet
//! assumption.
//!
//! ## Interaction with the optimistic read path
//!
//! Each scrub slice runs under [`ConcurrentBankedCache::lock_bank`], so
//! it sequences as a *seqlock writer*: the per-bank generation counter
//! goes odd for the duration of the slice and any optimistic reader that
//! overlaps it falls back to the locked path (see `docs/CONCURRENCY.md`).
//! A slice that repairs cells therefore can never be half-observed by a
//! lock-free reader — scrubbing needs no extra coordination beyond the
//! bank lock it already takes.

use crate::ConcurrentBankedCache;
use memarray::EngineError;
use reliability::{OnlineRateEstimator, ReliabilitySnapshot};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`Scrubber`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScrubberConfig {
    /// Dedicated scrubbing threads. Banks are partitioned round-robin
    /// across them; the effective count is clamped to the bank count.
    pub threads: usize,
    /// Rows scanned per bank lock acquisition — the foreground-latency
    /// knob. Smaller slices bound foreground stalls tighter but cost
    /// more lock traffic per sweep.
    pub rows_per_slice: usize,
    /// Inter-slice interval while the array is clean (the controller's
    /// ceiling).
    pub idle_interval: Duration,
    /// Inter-slice interval floor under sustained error traffic (the
    /// controller's maximum aggression).
    pub min_interval: Duration,
    /// Whether the adaptive rate controller is enabled. When false the
    /// scrubber holds a fixed `idle_interval` cadence.
    pub adaptive: bool,
    /// Unitless time-acceleration factor for the online FIT/MTTF
    /// accounting: how many device-seconds of exposure one wall-clock
    /// second represents. `1.0` means real time; `3600.0` makes one
    /// wall-second model one device-hour. Fault-injection campaigns
    /// compressing years into seconds set this high so the estimates
    /// read as field rates.
    pub time_acceleration: f64,
}

impl Default for ScrubberConfig {
    fn default() -> Self {
        ScrubberConfig {
            threads: 1,
            rows_per_slice: 32,
            idle_interval: Duration::from_millis(5),
            min_interval: Duration::from_micros(50),
            adaptive: true,
            time_acceleration: 1.0,
        }
    }
}

/// Aggregate counters of a [`Scrubber`]'s background work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubberStats {
    /// Scrub slices executed.
    pub slices: u64,
    /// Data rows scanned across slices.
    pub rows_scanned: u64,
    /// Dirty rows first discovered by the scrubber (rather than by a
    /// foreground access).
    pub errors_found: u64,
    /// Recoveries triggered by scrub slices.
    pub repairs: u64,
    /// Completed full sweeps, summed over banks.
    pub full_passes: u64,
    /// Slices that hit uncorrectable damage (the bank's own access paths
    /// will keep reporting it; the scrubber records and moves on).
    pub uncorrectable: u64,
    /// Total time spent holding bank locks, in nanoseconds — the
    /// foreground-interference budget actually consumed.
    pub busy_ns: u64,
    /// Rows scanned by slices that triggered no recovery.
    pub clean_rows_scanned: u64,
    /// Lock-held time of those clean slices, in nanoseconds. With
    /// `clean_rows_scanned` this gives a pure detection-throughput
    /// figure (ns per clean row scanned) that is not polluted by
    /// however much repair work a particular run happened to do.
    pub clean_busy_ns: u64,
    /// Physical storage swept by those clean slices, in bytes (row
    /// columns divided by 8, summed over scanned rows). Numerator of
    /// [`ScrubberStats::clean_scan_gbps`].
    pub clean_bytes_scanned: u64,
}

impl ScrubberStats {
    /// Adds every counter of `other` into `self`. All aggregation paths
    /// go through this single exhaustive destructure — the same
    /// discipline as [`memarray::EngineStats::merge`] — so a newly
    /// added counter cannot silently be dropped from the totals.
    pub fn merge(&mut self, other: &ScrubberStats) {
        let ScrubberStats {
            slices,
            rows_scanned,
            errors_found,
            repairs,
            full_passes,
            uncorrectable,
            busy_ns,
            clean_rows_scanned,
            clean_busy_ns,
            clean_bytes_scanned,
        } = *other;
        self.slices += slices;
        self.rows_scanned += rows_scanned;
        self.errors_found += errors_found;
        self.repairs += repairs;
        self.full_passes += full_passes;
        self.uncorrectable += uncorrectable;
        self.busy_ns += busy_ns;
        self.clean_rows_scanned += clean_rows_scanned;
        self.clean_busy_ns += clean_busy_ns;
        self.clean_bytes_scanned += clean_bytes_scanned;
    }

    /// Clean-detection scan throughput in gigabytes per second:
    /// bytes swept by recovery-free slices over the lock-held time of
    /// those slices (bytes/ns ≡ GB/s). Zero until a clean slice has
    /// been timed. Like the ns-per-row figure this is a *lock-held
    /// detection* rate — repair work is excluded by construction — and
    /// it is runner-dependent: absolute values are only comparable on
    /// the same hardware.
    pub fn clean_scan_gbps(&self) -> f64 {
        if self.clean_busy_ns == 0 {
            0.0
        } else {
            self.clean_bytes_scanned as f64 / self.clean_busy_ns as f64
        }
    }
}

/// Lifecycle state of the scrub workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Running,
    Paused,
    Stopping,
}

struct Control {
    mode: Mode,
    idle_workers: usize,
}

/// Online FIT accounting shared by the workers: exposure advances with
/// wall-clock time exactly once no matter how many workers tick it.
struct Telemetry {
    estimator: OnlineRateEstimator,
    last_tick: Instant,
}

struct Shared {
    cache: Arc<ConcurrentBankedCache>,
    config: ScrubberConfig,
    control: Mutex<Control>,
    wake: Condvar,
    stats: Mutex<ScrubberStats>,
    telemetry: Mutex<Telemetry>,
}

impl Shared {
    /// Advances device-time exposure to now and records `events` new
    /// error observations.
    fn tick_telemetry(&self, events: u64) {
        let mut t = self.telemetry.lock().unwrap_or_else(|p| p.into_inner());
        let now = Instant::now();
        let dt = now.duration_since(t.last_tick).as_secs_f64();
        t.last_tick = now;
        t.estimator
            .advance_hours(dt * self.config.time_acceleration / 3600.0);
        t.estimator.observe(events);
    }
}

/// A self-healing service wrapped around a shared
/// [`ConcurrentBankedCache`]: dedicated background threads sweep the
/// banks in lock-bounded slices, an adaptive controller matches the
/// sweep rate to observed error traffic, and an online estimator keeps
/// live FIT/MTTF figures.
///
/// # Lifecycle
///
/// A scrubber starts running as soon as [`Scrubber::spawn`] returns.
/// [`Scrubber::pause`] quiesces the workers (blocking until every one
/// is parked outside any bank lock), [`Scrubber::resume`] restarts
/// them, and [`Scrubber::drain`] quiesces and then synchronously scrubs
/// every bank clean — the call to make before a deterministic audit or
/// checkpoint. Dropping (or [`Scrubber::stop`]ping) the scrubber joins
/// the threads; the cache itself is unaffected.
///
/// Lifecycle calls are intended to come from one controlling thread.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use twod_cache::{CacheConfig, ConcurrentBankedCache, Scrubber, ScrubberConfig};
///
/// let cache = Arc::new(ConcurrentBankedCache::new(CacheConfig::l1_64kb(), 4));
/// let scrubber = Scrubber::spawn(Arc::clone(&cache), ScrubberConfig::default());
/// cache.write(0x40, 7).unwrap(); // foreground traffic proceeds normally
/// scrubber.drain().unwrap();     // quiesce: every bank verified clean
/// assert!(cache.audit());
/// ```
pub struct Scrubber {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Scrubber {
    /// Starts the background workers over `cache` per `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.threads == 0`, `config.rows_per_slice == 0`,
    /// or `config.min_interval > config.idle_interval`.
    pub fn spawn(cache: Arc<ConcurrentBankedCache>, config: ScrubberConfig) -> Self {
        assert!(config.threads > 0, "need at least one scrub worker");
        assert!(config.rows_per_slice > 0, "slices must cover >= 1 row");
        assert!(
            config.min_interval <= config.idle_interval,
            "interval floor must not exceed the idle cadence"
        );
        let mbits = (cache.capacity() as f64) * 8.0 / 1e6;
        let workers = config.threads.min(cache.banks());
        let shared = Arc::new(Shared {
            cache,
            config,
            control: Mutex::new(Control {
                mode: Mode::Running,
                idle_workers: 0,
            }),
            wake: Condvar::new(),
            stats: Mutex::new(ScrubberStats::default()),
            telemetry: Mutex::new(Telemetry {
                estimator: OnlineRateEstimator::new(mbits.max(1e-6)),
                last_tick: Instant::now(),
            }),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("scrubber-{w}"))
                    .spawn(move || worker_loop(&shared, w, workers))
                    .expect("spawning scrub worker")
            })
            .collect();
        Scrubber {
            shared,
            workers: handles,
        }
    }

    /// The configuration this scrubber runs with.
    pub fn config(&self) -> ScrubberConfig {
        self.shared.config
    }

    /// Snapshot of the background-work counters.
    pub fn stats(&self) -> ScrubberStats {
        *self.shared.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Live FIT/MTTF estimate from the error events observed so far
    /// (exposure is advanced to now before snapshotting).
    pub fn reliability(&self) -> ReliabilitySnapshot {
        self.shared.tick_telemetry(0);
        self.shared
            .telemetry
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .estimator
            .snapshot()
    }

    /// Pauses the workers, blocking until every one is parked outside
    /// any bank lock. Idempotent. Poison-tolerant: a worker that
    /// panicked mid-slice must not also wedge the control plane (the
    /// network tier calls these on live traffic paths).
    pub fn pause(&self) {
        let mut ctl = self
            .shared
            .control
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if ctl.mode == Mode::Stopping {
            return;
        }
        ctl.mode = Mode::Paused;
        self.shared.wake.notify_all();
        while ctl.idle_workers < self.workers.len() {
            ctl = self
                .shared
                .wake
                .wait(ctl)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Restarts paused workers. Idempotent.
    pub fn resume(&self) {
        let mut ctl = self
            .shared
            .control
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        if ctl.mode == Mode::Paused {
            ctl.mode = Mode::Running;
            self.shared.wake.notify_all();
        }
    }

    /// Drains the service: pauses the workers, then synchronously scrubs
    /// every bank to a verified-clean state. On return the cache holds
    /// no latent correctable damage and the scrubber is paused (call
    /// [`Scrubber::resume`] to continue background sweeping).
    ///
    /// # Errors
    ///
    /// Returns the first bank's [`EngineError`] if uncorrectable damage
    /// is found; remaining banks are still drained.
    pub fn drain(&self) -> Result<(), EngineError> {
        self.pause();
        let mut first_err = None;
        let mut repairs = 0u64;
        for bank in 0..self.shared.cache.banks() {
            let mut guard = self.shared.cache.lock_bank(bank);
            let was_clean = guard.audit();
            match guard.scrub() {
                Ok(()) => repairs += u64::from(!was_clean),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        self.shared
            .stats
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .merge(&ScrubberStats {
                repairs,
                uncorrectable: u64::from(first_err.is_some()),
                ..ScrubberStats::default()
            });
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Stops and joins the workers. Equivalent to dropping the scrubber,
    /// but explicit and able to surface a worker panic.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn stop(mut self) {
        self.shutdown();
        for handle in std::mem::take(&mut self.workers) {
            handle.join().expect("scrub worker panicked");
        }
    }

    fn shutdown(&self) {
        let mut ctl = self
            .shared
            .control
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        ctl.mode = Mode::Stopping;
        self.shared.wake.notify_all();
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.shutdown();
        for handle in std::mem::take(&mut self.workers) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Scrubber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Scrubber({} workers over {} banks, {:?})",
            self.workers.len(),
            self.shared.cache.banks(),
            self.stats()
        )
    }
}

/// One worker: sweeps its round-robin share of the banks, one
/// `rows_per_slice` slice per bank per round, adapting its inter-round
/// interval to the error traffic it observes.
fn worker_loop(shared: &Shared, index: usize, workers: usize) {
    let banks: Vec<usize> = (index..shared.cache.banks()).step_by(workers).collect();
    let cfg = &shared.config;
    let mut interval = cfg.idle_interval;
    let mut last_observed: Vec<u64> = banks
        .iter()
        .map(|&b| shared.cache.bank_observed_errors(b))
        .collect();
    loop {
        // Park while paused; exit on stop.
        {
            let mut ctl = shared.control.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                match ctl.mode {
                    Mode::Running => break,
                    Mode::Stopping => return,
                    Mode::Paused => {
                        ctl.idle_workers += 1;
                        shared.wake.notify_all();
                        ctl = shared.wake.wait(ctl).unwrap_or_else(|p| p.into_inner());
                        ctl.idle_workers -= 1;
                    }
                }
            }
        }

        // One lock-bounded slice per owned bank.
        let mut round = ScrubberStats::default();
        let mut pressure = 0u64;
        for (i, &bank) in banks.iter().enumerate() {
            // Time the slice only once the lock is held: busy_ns and
            // clean_busy_ns document lock-*held* time, and the gated
            // detection-throughput figure must not absorb however long
            // foreground traffic made us wait for the lock.
            let mut guard = shared.cache.lock_bank(bank);
            let held = Instant::now();
            let result = guard.scrub_step(cfg.rows_per_slice);
            let held_ns = held.elapsed().as_nanos() as u64;
            let observed = guard.observed_errors();
            let row_bytes = guard.scrub_row_bytes() as u64;
            drop(guard);
            round.busy_ns += held_ns;
            match result {
                Ok(slice) => {
                    round.slices += 1;
                    round.rows_scanned += slice.rows_scanned as u64;
                    round.errors_found += slice.dirty_rows as u64;
                    round.repairs += u64::from(slice.recovered);
                    round.full_passes += u64::from(slice.wrapped);
                    if !slice.recovered {
                        round.clean_rows_scanned += slice.rows_scanned as u64;
                        round.clean_busy_ns += held_ns;
                        round.clean_bytes_scanned += slice.rows_scanned as u64 * row_bytes;
                    }
                }
                Err(_) => round.uncorrectable += 1,
            }
            pressure += observed - last_observed[i];
            last_observed[i] = observed;
        }
        shared
            .stats
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .merge(&round);
        shared.tick_telemetry(pressure);

        // AIMD-flavoured cadence: error traffic halves the interval
        // (down to the floor), a clean round doubles it back (up to the
        // idle ceiling).
        if cfg.adaptive {
            interval = if pressure > 0 {
                (interval / 2).max(cfg.min_interval)
            } else {
                interval
                    .checked_mul(2)
                    .unwrap_or(cfg.idle_interval)
                    .min(cfg.idle_interval)
            };
        }

        // Interruptible sleep: stop/pause wake us immediately.
        let ctl = shared.control.lock().unwrap_or_else(|p| p.into_inner());
        if ctl.mode == Mode::Running && !interval.is_zero() {
            let _ = shared
                .wake
                .wait_timeout(ctl, interval)
                .unwrap_or_else(|p| p.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;
    use memarray::ErrorShape;
    use std::time::Duration;

    fn small_cache(banks: usize) -> Arc<ConcurrentBankedCache> {
        Arc::new(ConcurrentBankedCache::new(
            CacheConfig {
                sets: 16,
                ways: 2,
                ..CacheConfig::l1_64kb()
            },
            banks,
        ))
    }

    fn aggressive() -> ScrubberConfig {
        ScrubberConfig {
            threads: 2,
            rows_per_slice: 16,
            idle_interval: Duration::from_micros(500),
            min_interval: Duration::from_micros(20),
            adaptive: true,
            time_acceleration: 3600.0, // 1 wall second = 1 device-hour
        }
    }

    /// Polls `pred` for up to ~5 s; panics with `what` on timeout.
    fn wait_for(what: &str, mut pred: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pred() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn background_sweep_repairs_injected_errors() {
        let cache = small_cache(4);
        for i in 0..64u64 {
            cache.write(i * 64, i ^ 0xAB).unwrap();
        }
        let scrubber = Scrubber::spawn(Arc::clone(&cache), aggressive());
        cache.inject_bank_error(
            2,
            ErrorShape::Cluster {
                row: 0,
                col: 0,
                height: 8,
                width: 8,
            },
        );
        // No foreground access touches bank 2: only the scrubber can
        // repair it.
        wait_for("scrubber to repair bank 2", || cache.lock_bank(2).audit());
        // A worker merges its round into the shared stats only after
        // finishing the whole round, so the repair can be visible in the
        // bank before it is visible in the counters — wait for the
        // accounting instead of racing it.
        wait_for("repair to be accounted", || scrubber.stats().repairs >= 1);
        let stats = scrubber.stats();
        assert!(stats.repairs >= 1, "{stats:?}");
        assert!(stats.slices > 0);
        for i in 0..64u64 {
            assert_eq!(cache.read(i * 64).unwrap(), i ^ 0xAB, "word {i}");
        }
        scrubber.stop();
        assert!(cache.audit());
    }

    #[test]
    fn pause_holds_and_resume_continues() {
        let cache = small_cache(2);
        for i in 0..16u64 {
            cache.write(i * 64, i).unwrap();
        }
        let scrubber = Scrubber::spawn(Arc::clone(&cache), aggressive());
        scrubber.pause();
        let parked = scrubber.stats().slices;
        cache.inject_bank_error(1, ErrorShape::Single { row: 0, col: 0 });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            scrubber.stats().slices,
            parked,
            "paused workers must not slice"
        );
        assert!(!cache.lock_bank(1).audit(), "error still latent");
        scrubber.resume();
        wait_for("post-resume repair", || cache.lock_bank(1).audit());
        scrubber.stop();
    }

    #[test]
    fn drain_quiesces_and_cleans() {
        let cache = small_cache(4);
        for i in 0..32u64 {
            cache.write(i * 64, i).unwrap();
        }
        let scrubber = Scrubber::spawn(Arc::clone(&cache), aggressive());
        for bank in 0..4 {
            cache.inject_bank_error(bank, ErrorShape::Single { row: 1, col: 1 });
        }
        scrubber.drain().unwrap();
        // No waiting, no polling: drain's contract is clean-on-return.
        assert!(cache.audit());
        // Drained means paused.
        let parked = scrubber.stats().slices;
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(scrubber.stats().slices, parked);
        scrubber.resume();
        wait_for("slices after resume", || scrubber.stats().slices > parked);
        scrubber.stop();
    }

    #[test]
    fn telemetry_counts_events_and_exposure() {
        let cache = small_cache(2);
        for i in 0..16u64 {
            cache.write(i * 64, i).unwrap();
        }
        let scrubber = Scrubber::spawn(Arc::clone(&cache), aggressive());
        for _ in 0..3 {
            cache.inject_bank_error(0, ErrorShape::Single { row: 2, col: 3 });
            wait_for("repair", || cache.lock_bank(0).audit());
        }
        // The repairing worker ticks telemetry only after finishing its
        // round, so the last event can trail the repair itself — wait
        // for the accounting instead of racing it.
        wait_for("telemetry to account 3 events", || {
            scrubber.reliability().events >= 3
        });
        let snap = scrubber.reliability();
        assert!(snap.events >= 3, "{snap:?}");
        assert!(snap.hours > 0.0);
        assert!(snap.fit > 0.0);
        assert!(snap.fit_upper_95 > snap.fit);
        scrubber.stop();
    }

    #[test]
    fn drop_joins_workers() {
        let cache = small_cache(2);
        {
            let _scrubber = Scrubber::spawn(Arc::clone(&cache), aggressive());
            cache.write(0, 1).unwrap();
        }
        // Workers are gone; the cache is still usable.
        assert_eq!(cache.read(0).unwrap(), 1);
    }
}
