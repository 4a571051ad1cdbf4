//! Gate-level cycle simulator.
//!
//! Two-phase semantics per clock cycle, matching synchronous hardware:
//! combinational logic settles (LUTs evaluated in topological order), then
//! every flip-flop whose clock-enable is asserted latches its D input
//! simultaneously. The simulator is the reference model that the fast
//! behavioural models in `rtr-apps` are property-tested against.

use crate::graph::{CellId, CellKind, NetId, Netlist, NetlistError, PortDir};
use std::collections::HashMap;

/// A gate-level simulator instance (owns a copy of the netlist).
#[derive(Debug, Clone)]
pub struct Simulator {
    nl: Netlist,
    order: Vec<CellId>,
    values: Vec<bool>,
    /// (cell index, q net) pairs for fast FF sweeps.
    ffs: Vec<(usize, NetId)>,
    inputs: HashMap<String, Vec<NetId>>,
    outputs: HashMap<String, Vec<NetId>>,
    cycle: u64,
}

impl Simulator {
    /// Builds a simulator; validates the netlist.
    pub fn new(nl: &Netlist) -> Result<Self, NetlistError> {
        nl.validate()?;
        let order = nl.topo_order()?;
        let mut values = vec![false; nl.net_count() as usize];
        let mut ffs = Vec::new();
        let mut inputs: HashMap<String, Vec<(u16, NetId)>> = HashMap::new();
        let mut outputs: HashMap<String, Vec<(u16, NetId)>> = HashMap::new();
        for (i, cell) in nl.cells().iter().enumerate() {
            match cell {
                CellKind::Ff { q, init, .. } => {
                    values[q.0 as usize] = *init;
                    ffs.push((i, *q));
                }
                CellKind::Const { value, output } => {
                    values[output.0 as usize] = *value;
                }
                CellKind::Port {
                    name,
                    bit,
                    dir,
                    net,
                } => {
                    let map = match dir {
                        PortDir::Input => &mut inputs,
                        PortDir::Output => &mut outputs,
                    };
                    map.entry(name.clone()).or_default().push((*bit, *net));
                }
                CellKind::Lut4 { .. } => {}
            }
        }
        let finish = |m: HashMap<String, Vec<(u16, NetId)>>| {
            m.into_iter()
                .map(|(k, mut v)| {
                    v.sort_unstable_by_key(|&(b, _)| b);
                    (k, v.into_iter().map(|(_, n)| n).collect())
                })
                .collect()
        };
        let mut sim = Simulator {
            nl: nl.clone(),
            order,
            values,
            ffs,
            inputs: finish(inputs),
            outputs: finish(outputs),
            cycle: 0,
        };
        sim.settle();
        Ok(sim)
    }

    /// Resets every FF to its init value and re-settles.
    pub fn reset(&mut self) {
        for &(i, q) in &self.ffs {
            if let CellKind::Ff { init, .. } = &self.nl.cells()[i] {
                self.values[q.0 as usize] = *init;
            }
        }
        self.cycle = 0;
        self.settle();
    }

    /// Cycles executed since construction/reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Drives an input port with the low `width(port)` bits of `value`.
    ///
    /// # Panics
    /// Panics if the port does not exist.
    pub fn set_input(&mut self, name: &str, value: u64) {
        let nets = self
            .inputs
            .get(name)
            .unwrap_or_else(|| panic!("no input port '{name}'"));
        // Borrow dance: collect first.
        let nets: Vec<NetId> = nets.clone();
        for (b, net) in nets.iter().enumerate() {
            self.values[net.0 as usize] = (value >> b) & 1 == 1;
        }
        self.settle();
    }

    /// Reads an output port as an integer (bit *i* of the result = port bit
    /// *i*). Valid after construction, `set_input` or `step`.
    ///
    /// # Panics
    /// Panics if the port does not exist or is wider than 64 bits.
    pub fn output(&self, name: &str) -> u64 {
        let nets = self
            .outputs
            .get(name)
            .unwrap_or_else(|| panic!("no output port '{name}'"));
        assert!(nets.len() <= 64, "output wider than 64 bits");
        nets.iter().enumerate().fold(0u64, |acc, (b, net)| {
            acc | (u64::from(self.values[net.0 as usize]) << b)
        })
    }

    /// Width of an input port (0 if absent).
    pub fn input_width(&self, name: &str) -> usize {
        self.inputs.get(name).map_or(0, Vec::len)
    }

    /// Width of an output port (0 if absent).
    pub fn output_width(&self, name: &str) -> usize {
        self.outputs.get(name).map_or(0, Vec::len)
    }

    /// Propagates combinational logic (topological LUT sweep).
    fn settle(&mut self) {
        for k in 0..self.order.len() {
            let ci = self.order[k].0 as usize;
            if let CellKind::Lut4 {
                truth,
                inputs,
                output,
            } = &self.nl.cells()[ci]
            {
                let mut idx = 0usize;
                for (b, inp) in inputs.iter().enumerate() {
                    if let Some(n) = inp {
                        if self.values[n.0 as usize] {
                            idx |= 1 << b;
                        }
                    }
                }
                self.values[output.0 as usize] = (truth >> idx) & 1 == 1;
            }
        }
    }

    /// Advances one clock cycle: all enabled FFs latch simultaneously, then
    /// combinational logic re-settles.
    pub fn step(&mut self) {
        // Phase 1: sample D and CE with current (settled) values.
        let mut next: Vec<(NetId, bool)> = Vec::with_capacity(self.ffs.len());
        for &(i, q) in &self.ffs {
            if let CellKind::Ff { d, ce, .. } = &self.nl.cells()[i] {
                let enabled = ce.is_none_or(|c| self.values[c.0 as usize]);
                if enabled {
                    next.push((q, self.values[d.0 as usize]));
                }
            }
        }
        // Phase 2: commit and settle.
        for (q, v) in next {
            self.values[q.0 as usize] = v;
        }
        self.cycle += 1;
        self.settle();
    }

    /// Runs `n` clock cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Netlist;

    /// Toggle FF: q' = !q each cycle.
    fn toggler() -> Netlist {
        let mut nl = Netlist::new("toggler");
        let d = nl.net();
        let q = nl.ff(d, false, None);
        let not_q = nl.lut(0b01, [Some(q), None, None, None]);
        nl.lut_into(0b10, [Some(not_q), None, None, None], d);
        nl.output("q", 0, q);
        nl
    }

    #[test]
    fn toggler_toggles() {
        let mut sim = Simulator::new(&toggler()).unwrap();
        assert_eq!(sim.output("q"), 0);
        sim.step();
        assert_eq!(sim.output("q"), 1);
        sim.step();
        assert_eq!(sim.output("q"), 0);
        assert_eq!(sim.cycle(), 2);
    }

    #[test]
    fn reset_restores_init() {
        let mut sim = Simulator::new(&toggler()).unwrap();
        sim.run(3);
        assert_eq!(sim.output("q"), 1);
        sim.reset();
        assert_eq!(sim.output("q"), 0);
        assert_eq!(sim.cycle(), 0);
    }

    #[test]
    fn combinational_passthrough() {
        let mut nl = Netlist::new("buf");
        let a = nl.input_bus("a", 8);
        nl.output_bus("o", &a);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("a", 0xA5);
        assert_eq!(sim.output("o"), 0xA5);
        sim.set_input("a", 0x5A);
        assert_eq!(sim.output("o"), 0x5A);
    }

    #[test]
    fn lut_and_gate() {
        let mut nl = Netlist::new("and");
        let a = nl.input("a", 0);
        let b = nl.input("b", 0);
        // AND2 truth table on inputs 0 and 1: only pattern 0b11 → 1.
        let o = nl.lut(0b1000, [Some(a), Some(b), None, None]);
        nl.output("o", 0, o);
        let mut sim = Simulator::new(&nl).unwrap();
        for (av, bv, want) in [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1)] {
            sim.set_input("a", av);
            sim.set_input("b", bv);
            assert_eq!(sim.output("o"), want, "a={av} b={bv}");
        }
    }

    #[test]
    fn clock_enable_gates_updates() {
        let mut nl = Netlist::new("ce");
        let d = nl.input("d", 0);
        let ce = nl.input("ce", 0);
        let q = nl.ff(d, false, Some(ce));
        nl.output("q", 0, q);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("d", 1);
        sim.set_input("ce", 0);
        sim.step();
        assert_eq!(sim.output("q"), 0, "CE low: hold");
        sim.set_input("ce", 1);
        sim.step();
        assert_eq!(sim.output("q"), 1, "CE high: load");
    }

    #[test]
    fn ffs_latch_simultaneously() {
        // 2-stage shift register: both stages must move in the same cycle.
        let mut nl = Netlist::new("shift2");
        let din = nl.input("d", 0);
        let q0 = nl.ff(din, false, None);
        let q1 = nl.ff(q0, false, None);
        nl.output_bus("q", &[q0, q1]);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("d", 1);
        sim.step();
        assert_eq!(sim.output("q"), 0b01, "only stage 0 after one clock");
        sim.set_input("d", 0);
        sim.step();
        assert_eq!(sim.output("q"), 0b10, "bit moved to stage 1");
    }

    #[test]
    fn port_widths() {
        let mut nl = Netlist::new("w");
        let a = nl.input_bus("a", 32);
        nl.output_bus("o", &a[..16]);
        let sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.input_width("a"), 32);
        assert_eq!(sim.output_width("o"), 16);
        assert_eq!(sim.input_width("missing"), 0);
    }

    #[test]
    fn init_values_respected() {
        let mut nl = Netlist::new("init");
        let zero = nl.constant(false);
        let q = nl.ff(zero, true, None);
        nl.output("q", 0, q);
        let mut sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.output("q"), 1, "init high");
        sim.step();
        assert_eq!(sim.output("q"), 0, "loads constant 0");
    }
}
