//! `sim_campaign`: the detailed CMP simulator with the `ProtectedStore`
//! under L2, both schemes, driven through `run_sim_campaign` at the
//! pinned quick configuration (about 40k simulated references over both
//! schemes per call). Every call does identical work, so every call must
//! return identical simulated statistics, and the statistics of the
//! seeds in `expected_sim.txt` must match that file.

use crate::measure::{Latency, Tally, Windowed};
use crate::trace::Spans;
use cachesim::{
    run_sim_campaign, DetailedSim, DetailedStats, ProtectedStore, ProtectionPolicy, SchemeReport,
    SimCampaignConfig, SimCampaignOutcome, StoreScheme, SystemConfig, WorkloadProfile,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Both schemes, in the order `run_sim_campaign` reports them.
const SCHEMES: [StoreScheme; 2] = [StoreScheme::TwoD, StoreScheme::SecdedPerLine];

/// The simulated statistics of the quick campaign at a few fixed seeds,
/// one [`digest`] line per seed and scheme. A change to the simulator
/// that alters them must update this file in the same change.
const EXPECTED: &str = include_str!("../expected_sim.txt");

/// The set-up of `sim_campaign`: builds, through their public calls, a
/// `DetailedSim` with its `ProtectedStore` for each scheme, as one
/// campaign call does, and runs one campaign window on each, which runs
/// the simulator's cache-warming prologue first. Returns the statistics
/// of the warmed simulators, identical for equal configurations.
pub fn warm_up(cfg: SimCampaignConfig) -> [DetailedStats; 2] {
    SCHEMES.map(|kind| {
        let mut sim = DetailedSim::new(
            SystemConfig::fat_cmp(),
            ProtectionPolicy::full(),
            WorkloadProfile::oltp(),
            cfg.seed,
        )
        .with_store(ProtectedStore::new(kind));
        sim.run_window(cfg.window);
        sim.stats()
    })
}

/// One line per scheme with every exact simulated statistic of a
/// campaign call.
pub fn digest(out: &SimCampaignOutcome) -> String {
    let mut s = String::new();
    for r in &out.schemes {
        let (d, st, t) = (&r.sim, &r.store, &r.totals);
        let _ = writeln!(
            s,
            "seed={} scheme={} cycles={} references={} l1_misses={} l2_writebacks={} \
             mshr_wait_cycles={} correction_stall_cycles={} coherence_sig={:#018x} \
             fill_reads={} writebacks={} penalty_cycles={} ne={} ce={} due={} sdc={} unaccounted={}",
            out.config.seed,
            r.scheme.label(),
            d.cycles,
            d.references,
            d.l1_misses,
            d.l2_writebacks,
            d.mshr_wait_cycles,
            d.correction_stall_cycles,
            d.coherence_sig,
            st.fill_reads,
            st.writebacks,
            st.penalty_cycles,
            t.ne,
            t.ce,
            t.due,
            t.sdc,
            t.unaccounted
        );
    }
    s
}

/// The seeds `expected_sim.txt` pins.
fn expected_seeds() -> Vec<u64> {
    let mut seeds: Vec<u64> = EXPECTED
        .lines()
        .filter_map(|l| l.strip_prefix("seed=")?.split(' ').next()?.parse().ok())
        .collect();
    seeds.dedup();
    seeds
}

/// Runs the quick campaign at every pinned seed and compares its digest
/// with `expected_sim.txt`; on a difference, returns both digests.
pub fn check_expected() -> Result<(), String> {
    let want: String = EXPECTED
        .lines()
        .filter(|l| l.starts_with("seed="))
        .map(|l| format!("{l}\n"))
        .collect();
    let got: String = expected_seeds()
        .into_iter()
        .map(|seed| digest(&run_sim_campaign(SimCampaignConfig::quick(seed))))
        .collect();
    if !want.is_empty() && got == want {
        Ok(())
    } else {
        Err(format!("expected:\n{want}got:\n{got}"))
    }
}

pub fn scheme(out: &SimCampaignOutcome, kind: StoreScheme) -> &SchemeReport {
    out.schemes
        .iter()
        .find(|s| s.scheme == kind)
        .expect("campaign reports both schemes")
}

/// Simulated references of one call, over both schemes.
pub fn references(out: &SimCampaignOutcome) -> u64 {
    out.schemes.iter().map(|s| s.sim.references).sum()
}

/// Whether a campaign outcome is correct on its own: every fault
/// accounted for and no silent corruption under 2D.
pub fn sound(out: &SimCampaignOutcome) -> bool {
    out.healthy() && scheme(out, StoreScheme::TwoD).totals.sdc == 0
}

pub struct SimWork {
    pub cfg: SimCampaignConfig,
    /// The report of the untimed first call; every timed
    /// call must reproduce it byte for byte.
    pub reference: String,
    pub latency: Latency,
    pub tally: Tally,
    pub spans: Option<Spans>,
    pub last: Option<SimCampaignOutcome>,
    calls: u64,
}

impl SimWork {
    pub fn new(cfg: SimCampaignConfig, reference: &SimCampaignOutcome) -> Self {
        SimWork {
            cfg,
            reference: reference.to_json(),
            latency: Latency::default(),
            tally: Tally::default(),
            spans: None,
            last: None,
            calls: 0,
        }
    }
}

impl Windowed for SimWork {
    fn spans(&mut self) -> &mut Option<Spans> {
        &mut self.spans
    }

    fn latency(&mut self) -> &mut Latency {
        &mut self.latency
    }

    fn prepare(&mut self, _w: usize) {}

    fn run(&mut self, _w: usize) -> u64 {
        let t0 = Instant::now();
        let out = run_sim_campaign(self.cfg);
        let t1 = Instant::now();
        self.latency.record((t1 - t0).as_nanos() as u64);
        if let Some(spans) = self.spans.as_mut() {
            spans.record(self.calls, "sim.campaign", None, t0, t1);
        }
        self.calls += 1;
        let events: u64 = out.schemes.iter().map(|s| s.totals.total()).sum();
        let unaccounted: u64 = out.schemes.iter().map(|s| s.totals.unaccounted).sum();
        self.tally.attempted += events;
        self.tally.failed += unaccounted;
        if !sound(&out) || out.to_json() != self.reference {
            self.tally.wrong += 1;
        }
        let refs = references(&out);
        self.last = Some(out);
        refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{measure, timed};

    #[test]
    fn simulated_statistics_repeat_exactly() {
        let cfg = SimCampaignConfig {
            seed: 3,
            rounds: 1,
            window: 100,
        };
        let reference = run_sim_campaign(cfg);
        assert!(sound(&reference), "{}", reference.to_json());
        let mut work = SimWork::new(cfg, &reference);
        let m = measure(&mut work, 2, timed(|| ()).1, 0, &mut || {}, None);
        assert_eq!(work.tally.wrong, 0, "a call diverged from the reference");
        assert_eq!(work.tally.failed, 0);
        assert_eq!(m.ops, 2 * references(&reference));
        let again = run_sim_campaign(cfg);
        assert_eq!(again.to_json(), reference.to_json());
        assert_eq!(warm_up(cfg), warm_up(cfg));
    }

    #[test]
    fn pinned_seeds_match_the_expected_statistics() {
        assert!(!expected_seeds().is_empty());
        if let Err(diff) = check_expected() {
            panic!("simulated statistics changed\n{diff}");
        }
    }
}
