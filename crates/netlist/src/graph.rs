//! Netlist graph: nets, cells, ports and validation.
//!
//! A netlist is a directed graph of primitive cells connected by single-bit
//! nets. Primitives correspond to what a Virtex-II Pro slice offers: 4-input
//! LUTs and D flip-flops (with optional clock enable), plus constants and
//! named I/O ports. Multi-bit values are plain `Vec<NetId>` buses (LSB
//! first), built with the combinators in [`crate::components`].

use std::collections::HashMap;
use std::fmt;

/// A single-bit signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// A primitive cell instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// A multi-bit bus, least-significant bit first.
pub type Bus = Vec<NetId>;

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Driven from outside the module (by the dock's write channel).
    Input,
    /// Observed from outside the module (by the dock's read channel).
    Output,
}

/// Primitive cell kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellKind {
    /// 4-input lookup table. Unused inputs are `None` and read as 0.
    /// `truth` bit *i* gives the output for input pattern *i*
    /// (bit 0 of the pattern = input 0).
    Lut4 {
        /// Truth table.
        truth: u16,
        /// Input nets (LSB-first significance in the pattern index).
        inputs: [Option<NetId>; 4],
        /// Output net.
        output: NetId,
    },
    /// D flip-flop clocked by the module clock.
    Ff {
        /// Data input.
        d: NetId,
        /// Registered output.
        q: NetId,
        /// Power-up / reconfiguration init value.
        init: bool,
        /// Optional clock enable (the dock's write-strobe typically drives
        /// this, as described in section 3.1 of the paper).
        ce: Option<NetId>,
    },
    /// Constant driver.
    Const {
        /// Driven value.
        value: bool,
        /// Output net.
        output: NetId,
    },
    /// Named module port bit.
    Port {
        /// Port name (e.g. `"din"`).
        name: String,
        /// Bit index within the port.
        bit: u16,
        /// Direction.
        dir: PortDir,
        /// The attached net. Input ports drive it; output ports observe it.
        net: NetId,
    },
}

/// Netlist validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net is driven by more than one cell output.
    MultipleDrivers(NetId),
    /// A net is used as an input but never driven.
    Undriven(NetId),
    /// The combinational logic contains a cycle through the listed net.
    CombinationalLoop(NetId),
    /// Two ports share a name/bit pair.
    DuplicatePort(String, u16),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers(n) => write!(f, "net {n:?} has multiple drivers"),
            NetlistError::Undriven(n) => write!(f, "net {n:?} is used but never driven"),
            NetlistError::CombinationalLoop(n) => {
                write!(f, "combinational loop through net {n:?}")
            }
            NetlistError::DuplicatePort(name, bit) => {
                write!(f, "duplicate port {name}[{bit}]")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A structural netlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Netlist {
    /// Module name (for reports and bitstream metadata).
    pub name: String,
    cells: Vec<CellKind>,
    net_count: u32,
}

impl Netlist {
    /// New empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            cells: Vec::new(),
            net_count: 0,
        }
    }

    /// Allocates a fresh net.
    pub fn net(&mut self) -> NetId {
        let id = NetId(self.net_count);
        self.net_count += 1;
        id
    }

    /// Allocates a bus of `width` fresh nets.
    pub fn bus(&mut self, width: usize) -> Bus {
        (0..width).map(|_| self.net()).collect()
    }

    /// Number of nets allocated.
    pub fn net_count(&self) -> u32 {
        self.net_count
    }

    /// All cells, indexable by [`CellId`].
    pub fn cells(&self) -> &[CellKind] {
        &self.cells
    }

    fn push(&mut self, cell: CellKind) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(cell);
        id
    }

    /// Adds a LUT4 cell; returns its output net.
    pub fn lut(&mut self, truth: u16, inputs: [Option<NetId>; 4]) -> NetId {
        let output = self.net();
        self.push(CellKind::Lut4 {
            truth,
            inputs,
            output,
        });
        output
    }

    /// Adds a LUT4 driving a caller-supplied net (needed by bus macros whose
    /// output nets are fixed up front).
    pub fn lut_into(&mut self, truth: u16, inputs: [Option<NetId>; 4], output: NetId) -> CellId {
        self.push(CellKind::Lut4 {
            truth,
            inputs,
            output,
        })
    }

    /// Adds a flip-flop; returns its Q net.
    pub fn ff(&mut self, d: NetId, init: bool, ce: Option<NetId>) -> NetId {
        let q = self.net();
        self.push(CellKind::Ff { d, q, init, ce });
        q
    }

    /// Adds a constant driver; returns its net.
    pub fn constant(&mut self, value: bool) -> NetId {
        let output = self.net();
        self.push(CellKind::Const { value, output });
        output
    }

    /// Declares a module input port bit; returns the net it drives.
    pub fn input(&mut self, name: impl Into<String>, bit: u16) -> NetId {
        let net = self.net();
        self.push(CellKind::Port {
            name: name.into(),
            bit,
            dir: PortDir::Input,
            net,
        });
        net
    }

    /// Declares a multi-bit input port; returns its bus.
    pub fn input_bus(&mut self, name: &str, width: u16) -> Bus {
        (0..width).map(|b| self.input(name, b)).collect()
    }

    /// Declares a module output port bit observing `net`.
    pub fn output(&mut self, name: impl Into<String>, bit: u16, net: NetId) {
        self.push(CellKind::Port {
            name: name.into(),
            bit,
            dir: PortDir::Output,
            net,
        });
    }

    /// Declares a multi-bit output port observing `bus`.
    pub fn output_bus(&mut self, name: &str, bus: &[NetId]) {
        for (b, &net) in bus.iter().enumerate() {
            self.output(name, b as u16, net);
        }
    }

    /// Number of LUT cells (bus-macro pass-throughs included).
    pub fn lut_cell_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, CellKind::Lut4 { .. }))
            .count()
    }

    /// Number of flip-flop cells.
    pub fn ff_cell_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, CellKind::Ff { .. }))
            .count()
    }

    /// Slice estimate: each slice offers 2 LUTs and 2 FFs; LUT/FF pairs that
    /// belong together are packed by the placer, so the bound is the max of
    /// the two resource demands.
    pub fn slice_estimate(&self) -> usize {
        let luts = self.lut_cell_count().div_ceil(2);
        let ffs = self.ff_cell_count().div_ceil(2);
        luts.max(ffs)
    }

    /// Ports grouped by `(name, dir)` with their bit nets in index order.
    pub fn ports(&self) -> HashMap<(String, PortDir), Vec<(u16, NetId)>> {
        let mut map: HashMap<(String, PortDir), Vec<(u16, NetId)>> = HashMap::new();
        for cell in &self.cells {
            if let CellKind::Port {
                name,
                bit,
                dir,
                net,
                ..
            } = cell
            {
                map.entry((name.clone(), *dir))
                    .or_default()
                    .push((*bit, *net));
            }
        }
        for bits in map.values_mut() {
            bits.sort_unstable_by_key(|&(b, _)| b);
        }
        map
    }

    /// Net of a specific input port bit, if present.
    pub fn input_net(&self, name: &str, bit: u16) -> Option<NetId> {
        self.cells.iter().find_map(|c| match c {
            CellKind::Port {
                name: n,
                bit: b,
                dir: PortDir::Input,
                net,
            } if n == name && *b == bit => Some(*net),
            _ => None,
        })
    }

    /// Driver cell of each net (`None` for undriven nets).
    ///
    /// FF outputs and input ports count as drivers; output ports do not.
    pub fn drivers(&self) -> Result<Vec<Option<CellId>>, NetlistError> {
        let mut drv: Vec<Option<CellId>> = vec![None; self.net_count as usize];
        for (i, cell) in self.cells.iter().enumerate() {
            let out = match cell {
                CellKind::Lut4 { output, .. } => Some(*output),
                CellKind::Ff { q, .. } => Some(*q),
                CellKind::Const { output, .. } => Some(*output),
                CellKind::Port {
                    dir: PortDir::Input,
                    net,
                    ..
                } => Some(*net),
                CellKind::Port {
                    dir: PortDir::Output,
                    ..
                } => None,
            };
            if let Some(net) = out {
                if drv[net.0 as usize].is_some() {
                    return Err(NetlistError::MultipleDrivers(net));
                }
                drv[net.0 as usize] = Some(CellId(i as u32));
            }
        }
        Ok(drv)
    }

    /// Validates the netlist: single drivers, no dangling inputs, no
    /// combinational loops, unique ports.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let drivers = self.drivers()?;
        // Every used net must be driven.
        let check_used = |net: Option<NetId>| -> Result<(), NetlistError> {
            if let Some(n) = net {
                if drivers[n.0 as usize].is_none() {
                    return Err(NetlistError::Undriven(n));
                }
            }
            Ok(())
        };
        let mut seen_ports = std::collections::HashSet::new();
        for cell in &self.cells {
            match cell {
                CellKind::Lut4 { inputs, .. } => {
                    for &i in inputs {
                        check_used(i)?;
                    }
                }
                CellKind::Ff { d, ce, .. } => {
                    check_used(Some(*d))?;
                    check_used(*ce)?;
                }
                CellKind::Const { .. } => {}
                CellKind::Port {
                    name,
                    bit,
                    dir,
                    net,
                } => {
                    if !seen_ports.insert((name.clone(), *bit, *dir as u8 as char)) {
                        return Err(NetlistError::DuplicatePort(name.clone(), *bit));
                    }
                    if *dir == PortDir::Output {
                        check_used(Some(*net))?;
                    }
                }
            }
        }
        self.topo_order()?;
        Ok(())
    }

    /// Topological order of the *combinational* cells (LUTs); FFs, constants
    /// and input ports are sources. Errors on combinational loops.
    pub fn topo_order(&self) -> Result<Vec<CellId>, NetlistError> {
        // Kahn's algorithm over LUT cells keyed by their input dependencies
        // on other LUT outputs.
        let mut lut_of_net: HashMap<NetId, usize> = HashMap::new();
        let mut lut_ids: Vec<usize> = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            if let CellKind::Lut4 { output, .. } = cell {
                lut_of_net.insert(*output, lut_ids.len());
                lut_ids.push(i);
            }
        }
        let n = lut_ids.len();
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, &ci) in lut_ids.iter().enumerate() {
            if let CellKind::Lut4 { inputs, .. } = &self.cells[ci] {
                for &inp in inputs.iter().flatten() {
                    if let Some(&src) = lut_of_net.get(&inp) {
                        succ[src].push(k);
                        indeg[k] += 1;
                    }
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&k| indeg[k] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(k) = queue.pop() {
            order.push(CellId(lut_ids[k] as u32));
            for &s in &succ[k] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if order.len() != n {
            // Find one net on a cycle for the error message.
            let k = (0..n).find(|&k| indeg[k] > 0).expect("cycle exists");
            if let CellKind::Lut4 { output, .. } = &self.cells[lut_ids[k]] {
                return Err(NetlistError::CombinationalLoop(*output));
            }
            unreachable!("lut_ids only indexes LUT cells");
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-bit toggler: FF whose D input is !Q.
    fn toggler() -> Netlist {
        let mut nl = Netlist::new("toggler");
        let d = nl.net();
        let q = nl.ff(d, false, None);
        // NOT gate: truth table for single-input inverter on input 0.
        let not_q = nl.lut(0b01, [Some(q), None, None, None]);
        // Re-route: lut() allocated its own output; use lut_into pattern via
        // a buffer LUT driving `d`.
        nl.lut_into(0b10, [Some(not_q), None, None, None], d);
        nl.output("q", 0, q);
        nl
    }

    #[test]
    fn toggler_validates() {
        let nl = toggler();
        nl.validate().expect("valid netlist");
        assert_eq!(nl.lut_cell_count(), 2);
        assert_eq!(nl.ff_cell_count(), 1);
    }

    #[test]
    fn multiple_drivers_detected() {
        let mut nl = Netlist::new("bad");
        let a = nl.constant(true);
        nl.lut_into(0b10, [Some(a), None, None, None], a);
        assert_eq!(nl.validate(), Err(NetlistError::MultipleDrivers(a)));
    }

    #[test]
    fn undriven_net_detected() {
        let mut nl = Netlist::new("bad");
        let ghost = nl.net();
        let out = nl.lut(0b10, [Some(ghost), None, None, None]);
        nl.output("o", 0, out);
        assert_eq!(nl.validate(), Err(NetlistError::Undriven(ghost)));
    }

    #[test]
    fn combinational_loop_detected() {
        let mut nl = Netlist::new("loop");
        let a = nl.net();
        let b = nl.lut(0b10, [Some(a), None, None, None]);
        nl.lut_into(0b10, [Some(b), None, None, None], a);
        match nl.validate() {
            Err(NetlistError::CombinationalLoop(_)) => {}
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn ff_breaks_loops() {
        // The toggler's feedback goes through a FF, so it must NOT count as
        // a combinational loop.
        assert!(toggler().topo_order().is_ok());
    }

    #[test]
    fn duplicate_ports_detected() {
        let mut nl = Netlist::new("dup");
        let c = nl.constant(false);
        nl.output("o", 0, c);
        nl.output("o", 0, c);
        assert_eq!(
            nl.validate(),
            Err(NetlistError::DuplicatePort("o".into(), 0))
        );
    }

    #[test]
    fn port_lookup() {
        let mut nl = Netlist::new("ports");
        let din = nl.input_bus("din", 4);
        nl.output_bus("dout", &din);
        assert_eq!(nl.input_net("din", 2), Some(din[2]));
        assert_eq!(nl.input_net("nope", 0), None);
        let ports = nl.ports();
        assert_eq!(ports[&("din".to_string(), PortDir::Input)].len(), 4);
        assert_eq!(ports[&("dout".to_string(), PortDir::Output)].len(), 4);
    }

    #[test]
    fn slice_estimate_packs_pairs() {
        let mut nl = Netlist::new("est");
        let c = nl.constant(false);
        for _ in 0..10 {
            nl.lut(0b10, [Some(c), None, None, None]);
        }
        for _ in 0..4 {
            nl.ff(c, false, None);
        }
        // 10 LUTs → 5 slices; 4 FFs → 2 slices; max = 5.
        assert_eq!(nl.slice_estimate(), 5);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut nl = Netlist::new("chain");
        let a = nl.input("a", 0);
        let b = nl.lut(0b10, [Some(a), None, None, None]);
        let c = nl.lut(0b10, [Some(b), None, None, None]);
        nl.output("o", 0, c);
        let order = nl.topo_order().unwrap();
        assert_eq!(order.len(), 2);
        // b's cell must come before c's cell.
        let pos = |id: CellId| order.iter().position(|&x| x == id).unwrap();
        // cells: [port a, lut b, lut c, port o] → b = CellId(1), c = CellId(2)
        assert!(pos(CellId(1)) < pos(CellId(2)));
    }
}
