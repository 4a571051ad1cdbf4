//! Clock domains.
//!
//! The paper's two systems each run three clock domains:
//!
//! | system | CPU | PLB | OPB |
//! |--------|-----|-----|-----|
//! | 32-bit (XC2VP7)  | 200 MHz | 50 MHz  | 50 MHz  |
//! | 64-bit (XC2VP30) | 300 MHz | 100 MHz | 100 MHz |
//!
//! A [`ClockDomain`] converts between cycle counts and [`SimTime`] and aligns
//! asynchronous requests to the next clock edge — the mechanism by which the
//! model charges the synchroniser penalty of the PLB→OPB bridge crossing.

use crate::time::SimTime;
use std::fmt;

/// A fixed-frequency clock domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockDomain {
    /// Human-readable name, e.g. `"cpu"`, `"plb"`, `"opb"`.
    name: &'static str,
    /// Clock period in picoseconds.
    period_ps: u64,
    /// `u64::MAX / period_ps`, the reciprocal `ClockDomain::phase`
    /// multiplies by instead of dividing.
    recip: u64,
}

impl ClockDomain {
    /// Creates a clock domain from a frequency in MHz.
    ///
    /// The period is rounded down to whole picoseconds (300 MHz → 3333 ps,
    /// i.e. 300.03 MHz); the resulting systematic error is < 0.01 % and is
    /// irrelevant next to the calibration uncertainty documented in
    /// EXPERIMENTS.md.
    ///
    /// # Panics
    /// Panics if `mhz` is zero.
    pub const fn from_mhz(name: &'static str, mhz: u64) -> Self {
        assert!(mhz > 0, "clock frequency must be non-zero");
        ClockDomain::from_period_ps(name, 1_000_000 / mhz)
    }

    /// Creates a clock domain from an explicit period in picoseconds.
    ///
    /// # Panics
    /// Panics if `period_ps` is zero.
    pub const fn from_period_ps(name: &'static str, period_ps: u64) -> Self {
        assert!(period_ps > 0, "clock period must be non-zero");
        ClockDomain {
            name,
            period_ps,
            recip: u64::MAX / period_ps,
        }
    }

    /// Domain name.
    #[inline]
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Clock period.
    #[inline]
    pub const fn period(&self) -> SimTime {
        SimTime(self.period_ps)
    }

    /// Frequency in MHz (rounded).
    #[inline]
    pub const fn mhz(&self) -> u64 {
        1_000_000 / self.period_ps
    }

    /// Duration of `n` cycles in this domain.
    #[inline]
    pub const fn cycles(&self, n: u64) -> SimTime {
        SimTime(self.period_ps * n)
    }

    /// `ps % period_ps` without a division. With `2^64 − 1 = recip·p + b`
    /// and `0 ≤ b < p`, the multiply-high `q = ⌊ps·recip / 2^64⌋` falls
    /// short of `ps / p` by `ps·(b + 1) / (p·2^64) < 1`, so `q` is the
    /// true quotient or one less, and one correction step finishes it.
    #[inline]
    fn phase(&self, ps: u64) -> u64 {
        let q = ((u128::from(ps) * u128::from(self.recip)) >> 64) as u64;
        let rem = ps - q * self.period_ps;
        if rem >= self.period_ps {
            rem - self.period_ps
        } else {
            rem
        }
    }

    /// The first clock edge at or after `t`.
    ///
    /// All domains are modelled as phase-aligned at t=0 (the boards derive
    /// every clock from one oscillator through DCMs, so fixed phase is the
    /// realistic choice and keeps the simulation deterministic).
    #[inline]
    pub fn next_edge(&self, t: SimTime) -> SimTime {
        let ps = t.as_ps();
        let rem = self.phase(ps);
        if rem == 0 {
            t
        } else {
            SimTime(ps - rem + self.period_ps)
        }
    }
}

impl fmt::Debug for ClockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}MHz", self.name, self.mhz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_frequencies() {
        let cpu32 = ClockDomain::from_mhz("cpu", 200);
        let cpu64 = ClockDomain::from_mhz("cpu", 300);
        let bus32 = ClockDomain::from_mhz("opb", 50);
        let bus64 = ClockDomain::from_mhz("plb", 100);
        assert_eq!(cpu32.period().as_ps(), 5_000);
        assert_eq!(cpu64.period().as_ps(), 3_333);
        assert_eq!(bus32.period().as_ps(), 20_000);
        assert_eq!(bus64.period().as_ps(), 10_000);
    }

    #[test]
    fn cycle_durations() {
        let clk = ClockDomain::from_mhz("opb", 50);
        assert_eq!(clk.cycles(3), SimTime::from_ns(60));
        assert_eq!(clk.cycles(0), SimTime::ZERO);
    }

    #[test]
    fn next_edge_alignment() {
        let clk = ClockDomain::from_mhz("opb", 50); // 20 ns period
        assert_eq!(clk.next_edge(SimTime::ZERO), SimTime::ZERO);
        assert_eq!(clk.next_edge(SimTime::from_ns(20)), SimTime::from_ns(20));
        assert_eq!(clk.next_edge(SimTime::from_ns(21)), SimTime::from_ns(40));
        assert_eq!(clk.next_edge(SimTime::from_ps(1)), SimTime::from_ns(20));
    }

    /// The `%` formulas the reciprocal replaced.
    fn next_edge_by_rem(p: u64, t: u64) -> u64 {
        let rem = t % p;
        if rem == 0 {
            t
        } else {
            t - rem + p
        }
    }

    #[test]
    fn reciprocal_edges_match_the_remainder_formula() {
        // Every period the two systems, the ICAP and the JTAG TCK use,
        // plus the extremes of the representable range.
        let periods = [3_333, 5_000, 10_000, 20_000, 100_000, 1, 2, 7, u64::MAX / 3];
        let mut rng = crate::SplitMix64::new(0xC10C);
        for p in periods {
            let clk = ClockDomain::from_period_ps("clk", p);
            // The last edge that fits in a u64 and the ones before it.
            let last = u64::MAX / p * p;
            let mut ts = vec![0, 1, u64::MAX - 1, u64::MAX];
            for k in [1, 2, 3, 1_000, 123_456_789, u64::MAX / p] {
                let edge = k.saturating_mul(p).min(last);
                ts.extend([edge.saturating_sub(1), edge, edge.saturating_add(1)]);
            }
            ts.extend((0..2_000).map(|_| rng.next_u64()));
            ts.extend((0..2_000).map(|_| rng.below(1 << 40)));
            ts.extend((0..200).map(|_| last - rng.below(p.min(last))));
            for t in ts {
                assert_eq!(clk.phase(t), t % p, "p = {p}, t = {t}: phase");
                if t > last {
                    continue; // the next edge is not representable
                }
                let want = next_edge_by_rem(p, t);
                let at = SimTime(t);
                assert_eq!(
                    clk.next_edge(at),
                    SimTime(want),
                    "p = {p}, t = {t}: next_edge"
                );
            }
        }
    }
}
