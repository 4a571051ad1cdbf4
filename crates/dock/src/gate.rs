//! Gate-level module adapter.
//!
//! Wraps a placed netlist (simulated cycle-by-cycle in `vp2-netlist`) as a
//! [`DynamicModule`]. Port convention for dock-attachable netlists:
//!
//! * `din`  — write-channel input (≤ 64 bits),
//! * `wr`   — 1-bit write strobe (the dock's clock-enable signal),
//! * `dout` — read-channel output (≤ 64 bits),
//! * `valid` — optional 1-bit output-valid flag.
//!
//! The adapter is the reference implementation that the fast behavioural
//! models are property-tested against.

use crate::module::{DynamicModule, ModuleOutput};
use vp2_netlist::{Netlist, NetlistError, Simulator};

/// A netlist-backed dynamic module.
#[derive(Debug, Clone)]
pub struct GateLevelModule {
    name: String,
    sim: Simulator,
    has_valid: bool,
    has_rd: bool,
    has_addr: bool,
    has_busy: bool,
}

impl GateLevelModule {
    /// Builds the adapter; validates the netlist and the port convention.
    ///
    /// # Errors
    /// Returns the netlist's validation error, or panics if the mandatory
    /// ports are missing (that is a build bug, not a data condition).
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        let sim = Simulator::new(netlist)?;
        assert!(sim.input_width("din") > 0, "module must have a din port");
        assert_eq!(sim.input_width("wr"), 1, "module must have a 1-bit wr port");
        assert!(sim.output_width("dout") > 0, "module must have a dout port");
        let has_valid = sim.output_width("valid") == 1;
        let has_rd = sim.input_width("rd") == 1;
        let has_addr = sim.input_width("addr") > 0;
        let has_busy = sim.output_width("busy") == 1;
        Ok(GateLevelModule {
            name: netlist.name.clone(),
            sim,
            has_valid,
            has_rd,
            has_addr,
            has_busy,
        })
    }

    /// Runs free-running clock cycles while the module's `busy` output is
    /// high (multi-cycle modules — e.g. SHA-1's 80 rounds — compute between
    /// bus transfers on the always-running module clock; the dock's
    /// write-strobe only gates *data* capture).
    fn drain_busy(&mut self) {
        if !self.has_busy {
            return;
        }
        let mut guard = 0;
        while self.sim.output("busy") == 1 {
            self.sim.set_input("wr", 0);
            self.sim.step();
            guard += 1;
            assert!(guard < 65536, "module stuck busy");
        }
    }

    /// Clocks the module once *without* the strobe (idle cycle).
    pub fn idle_cycle(&mut self) {
        self.sim.set_input("wr", 0);
        self.sim.step();
    }
}

impl DynamicModule for GateLevelModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn poke(&mut self, data: u64) -> ModuleOutput {
        self.poke_at(0, data)
    }

    fn poke_at(&mut self, offset: u32, data: u64) -> ModuleOutput {
        if self.has_addr {
            self.sim.set_input("addr", u64::from(offset >> 2));
        }
        self.sim.set_input("din", data);
        self.sim.set_input("wr", 1);
        self.sim.step();
        self.sim.set_input("wr", 0);
        self.drain_busy();
        ModuleOutput {
            data: self.sim.output("dout"),
            valid: !self.has_valid || self.sim.output("valid") == 1,
        }
    }

    fn read_at(&mut self, offset: u32) -> u64 {
        if self.has_addr {
            self.sim.set_input("addr", u64::from(offset >> 2));
            // Address-selected outputs are combinational; settle first.
        }
        self.read_pop()
    }

    fn peek(&self) -> u64 {
        self.sim.output("dout")
    }

    fn read_pop(&mut self) -> u64 {
        let head = self.sim.output("dout");
        if self.has_rd {
            self.sim.set_input("rd", 1);
            self.sim.set_input("wr", 0);
            self.sim.step();
            self.sim.set_input("rd", 0);
        }
        head
    }

    fn reset(&mut self) {
        self.sim.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp2_netlist::components;
    use vp2_netlist::Netlist;

    /// A dock-attachable accumulator: dout += din on each strobe.
    fn accumulator(width: u16) -> Netlist {
        let mut nl = Netlist::new("acc");
        let din = nl.input_bus("din", width);
        let wr = nl.input("wr", 0);
        let d: Vec<_> = (0..width as usize).map(|_| nl.net()).collect();
        let q: Vec<_> = d.iter().map(|&di| nl.ff(di, false, Some(wr))).collect();
        let sum = components::add_mod(&mut nl, &q, &din);
        for (i, &s) in sum.iter().enumerate() {
            nl.lut_into(
                components::truth4(|a, _, _, _| a),
                [Some(s), None, None, None],
                d[i],
            );
        }
        nl.output_bus("dout", &q);
        nl
    }

    #[test]
    fn accumulator_accumulates_on_strobe() {
        let nl = accumulator(16);
        let mut m = GateLevelModule::new(&nl).unwrap();
        assert_eq!(m.peek(), 0);
        m.poke(5);
        assert_eq!(m.peek(), 5);
        m.poke(7);
        assert_eq!(m.peek(), 12);
        m.idle_cycle();
        assert_eq!(m.peek(), 12, "no strobe, no change");
        m.reset();
        assert_eq!(m.peek(), 0);
    }

    #[test]
    fn valid_defaults_to_true_without_port() {
        let nl = accumulator(8);
        let mut m = GateLevelModule::new(&nl).unwrap();
        assert!(m.poke(1).valid);
    }

    #[test]
    fn valid_port_respected() {
        // Module asserting valid only when dout is even: valid = !dout[0].
        let mut nl = Netlist::new("evenvalid");
        let din = nl.input_bus("din", 8);
        let wr = nl.input("wr", 0);
        let q = components::register(&mut nl, &din, Some(wr));
        let inv = components::not(&mut nl, q[0]);
        nl.output_bus("dout", &q);
        nl.output("valid", 0, inv);
        let mut m = GateLevelModule::new(&nl).unwrap();
        assert!(m.poke(2).valid);
        assert!(!m.poke(3).valid);
    }

    #[test]
    #[should_panic(expected = "din port")]
    fn missing_ports_rejected() {
        let mut nl = Netlist::new("bad");
        let c = nl.constant(false);
        nl.output("dout", 0, c);
        let _ = GateLevelModule::new(&nl);
    }
}
