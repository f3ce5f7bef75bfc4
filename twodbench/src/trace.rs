//! In-memory spans for the traced run. Spans are recorded from the
//! benchmark's own code around each call into a layer, kept in a
//! preallocated ring (so recording never allocates), and written out
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Request (op) the span belongs to; spans of one request share it.
    pub req: u64,
    pub name: &'static str,
    /// Name of the enclosing span of the same request, if any.
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    ring: Vec<Span>,
    cap: usize,
    recorded: u64,
}

impl Spans {
    pub fn new(cap: usize) -> Self {
        Spans {
            epoch: Instant::now(),
            ring: Vec::with_capacity(cap),
            cap,
            recorded: 0,
        }
    }

    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            req,
            name,
            parent,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        };
        if self.ring.len() < self.cap {
            self.ring.push(span);
        } else {
            let slot = (self.recorded % self.cap as u64) as usize;
            self.ring[slot] = span;
        }
        self.recorded += 1;
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.ring.len() as u64
    }

    /// Per span name over the kept spans: `(count, total ns, self ns)`,
    /// where self time is the total minus the time of spans naming it
    /// as their parent.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        let mut child_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.ring {
            let d = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += d;
            }
        }
        for (name, e) in out.iter_mut() {
            e.2 = e.1.saturating_sub(child_ns.get(name).copied().unwrap_or(0));
        }
        out
    }

    /// Tab-separated dump: `req name parent start_ns end_ns`, in
    /// recording order of the kept spans.
    pub fn to_tsv(&self) -> String {
        let mut s = String::from("req\tname\tparent\tstart_ns\tend_ns\n");
        let n = self.ring.len();
        let first = if self.recorded > n as u64 {
            (self.recorded % n as u64) as usize
        } else {
            0
        };
        for i in 0..n {
            let sp = &self.ring[(first + i) % n];
            let _ = writeln!(
                s,
                "{}\t{}\t{}\t{}\t{}",
                sp.req,
                sp.name,
                sp.parent.unwrap_or("-"),
                sp.start_ns,
                sp.end_ns
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_ring_wraps() {
        let mut spans = Spans::new(4);
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        spans.record(1, "req", None, at(0), at(10));
        spans.record(1, "encode", Some("req"), at(1), at(3));
        spans.record(1, "decode", Some("req"), at(7), at(8));
        let st = spans.self_times();
        assert_eq!(st["req"], (1, 10_000, 7_000));
        assert_eq!(st["encode"].2, 2_000);
        for r in 0..6 {
            spans.record(2 + r, "x", None, at(20), at(21));
        }
        assert_eq!(spans.dropped(), 5);
        assert_eq!(spans.to_tsv().lines().count(), 5);
    }
}
