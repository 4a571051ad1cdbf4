//! Bus protocol timing and occupancy.
//!
//! Every transfer on a bus pays, in that bus's clock domain:
//! **synchronisation to the next clock edge** (requests originate in other
//! domains) + **arbitration** + **address phase** + **one data phase per
//! beat** + **slave wait states**. The bus is occupied for the whole
//! transaction, so a concurrent master (the DMA engine vs. the CPU) queues
//! behind it — the contention the paper's interleaved-transfer measurements
//! exercise.

use vp2_sim::{ClockDomain, SimTime};

/// Protocol cost parameters for one bus.
#[derive(Debug, Clone, Copy)]
pub struct BusTiming {
    /// Bus clock.
    pub clock: ClockDomain,
    /// Arbitration cycles per transaction.
    pub arbitration: u64,
    /// Address-phase cycles per transaction.
    pub address: u64,
    /// Data cycles per beat (before wait states).
    pub per_beat: u64,
}

impl BusTiming {
    /// 64-bit PLB timing: central arbiter, separate address/data phases,
    /// 1 cycle per 64-bit beat.
    pub fn plb(clock: ClockDomain) -> Self {
        BusTiming {
            clock,
            arbitration: 1,
            address: 1,
            per_beat: 1,
        }
    }

    /// 32-bit OPB timing: simpler protocol (master drives address and data),
    /// 1 cycle per 32-bit beat.
    pub fn opb(clock: ClockDomain) -> Self {
        BusTiming {
            clock,
            arbitration: 1,
            address: 1,
            per_beat: 1,
        }
    }

    /// Cycles for a transaction of `beats` beats with `wait_states` total
    /// extra slave cycles.
    pub fn cycles(&self, beats: u64, wait_states: u64) -> u64 {
        self.arbitration + self.address + beats * self.per_beat + wait_states
    }
}

/// A bus instance: timing + occupancy state.
#[derive(Debug, Clone)]
pub struct Bus {
    /// Protocol timing.
    pub timing: BusTiming,
    busy_until: SimTime,
    /// Completed transactions (statistics).
    pub transactions: u64,
    /// Total beats moved.
    pub beats: u64,
}

impl Bus {
    /// New idle bus.
    pub fn new(timing: BusTiming) -> Self {
        Bus {
            timing,
            busy_until: SimTime::ZERO,
            transactions: 0,
            beats: 0,
        }
    }

    /// Earliest instant a new transaction could start at or after `now`.
    pub fn earliest_start(&self, now: SimTime) -> SimTime {
        self.timing.clock.next_edge(now.max(self.busy_until))
    }

    /// Executes a transaction of `beats` beats (+`wait_states`) requested at
    /// `now`; returns the completion time. The bus is occupied until then.
    pub fn transfer(&mut self, now: SimTime, beats: u64, wait_states: u64) -> SimTime {
        let start = self.earliest_start(now);
        let end = start
            + self
                .timing
                .clock
                .cycles(self.timing.cycles(beats, wait_states));
        self.busy_until = end;
        self.transactions += 1;
        self.beats += beats;
        end
    }

    /// Like [`Bus::transfer`] but returns `(start, end)` (the DMA engine
    /// needs the start for back-to-back burst scheduling).
    pub fn transfer_timed(
        &mut self,
        now: SimTime,
        beats: u64,
        wait_states: u64,
    ) -> (SimTime, SimTime) {
        let start = self.earliest_start(now);
        let end = start
            + self
                .timing
                .clock
                .cycles(self.timing.cycles(beats, wait_states));
        self.busy_until = end;
        self.transactions += 1;
        self.beats += beats;
        (start, end)
    }

    /// Instant the bus becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opb50() -> Bus {
        Bus::new(BusTiming::opb(ClockDomain::from_mhz("opb", 50)))
    }

    #[test]
    fn single_transfer_cost() {
        let mut bus = opb50();
        // 1 arb + 1 addr + 1 data = 3 cycles @20ns = 60ns.
        let end = bus.transfer(SimTime::ZERO, 1, 0);
        assert_eq!(end, SimTime::from_ns(60));
    }

    #[test]
    fn wait_states_add_cycles() {
        let mut bus = opb50();
        let end = bus.transfer(SimTime::ZERO, 1, 2);
        assert_eq!(end, SimTime::from_ns(100));
    }

    #[test]
    fn burst_amortises_overhead() {
        let mut bus = Bus::new(BusTiming::plb(ClockDomain::from_mhz("plb", 100)));
        let end16 = bus.transfer(SimTime::ZERO, 16, 0);
        // 1 + 1 + 16 = 18 cycles @10ns.
        assert_eq!(end16, SimTime::from_ns(180));
    }

    #[test]
    fn unaligned_request_synchronises() {
        let mut bus = opb50();
        let end = bus.transfer(SimTime::from_ns(25), 1, 0);
        // Sync to 40ns edge, then 3 cycles.
        assert_eq!(end, SimTime::from_ns(40 + 60));
    }

    #[test]
    fn occupancy_serialises_masters() {
        let mut bus = opb50();
        let end_a = bus.transfer(SimTime::ZERO, 1, 0);
        // Second request issued while the first is in flight.
        let end_b = bus.transfer(SimTime::from_ns(10), 1, 0);
        assert_eq!(end_b, end_a + SimTime::from_ns(60));
        assert_eq!(bus.transactions, 2);
        assert_eq!(bus.beats, 2);
    }

    #[test]
    fn earliest_start_respects_edges_and_busy() {
        let mut bus = opb50();
        bus.transfer(SimTime::ZERO, 1, 0); // busy until 60ns
        assert_eq!(
            bus.earliest_start(SimTime::from_ns(10)),
            SimTime::from_ns(60)
        );
        assert_eq!(
            bus.earliest_start(SimTime::from_ns(70)),
            SimTime::from_ns(80)
        );
    }
}
