//! Encoding placed netlists into configuration-memory bits.
//!
//! The encoding is *relocatable*: it depends only on component-local
//! structure (cell kinds, truth tables, component-local net ids and sites),
//! never on absolute fabric coordinates. Encoding the same component at two
//! different origins therefore produces bit patterns that are pure
//! translations of each other — the property BitLinker's relocation step
//! relies on, mirroring how the real tool relocates pre-routed component
//! configurations.

use crate::graph::{CellKind, Netlist};
use crate::place::Placement;
use std::collections::HashMap;
use vp2_fabric::config::{ConfigMemory, MINORS_PER_CLB_COL};
use vp2_fabric::coords::{ClbCoord, FfIndex, SliceIndex};

/// FF configuration nibble layout (see `ConfigMemory::set_ff_config`).
const FF_USED: u8 = 0b0001;
const FF_INIT: u8 = 0b0010;
const FF_CE: u8 = 0b0100;

/// Errors during encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The translated coordinate fell outside the device.
    OutOfDevice(ClbCoord),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::OutOfDevice(c) => write!(f, "encoded CLB {c} outside device"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// FNV-1a over a word stream — the routing-digest hash.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Encodes a placed netlist into `mem` with the component's local origin
/// translated to `origin` (device coordinates).
///
/// Writes LUT truth tables, FF configuration nibbles and per-CLB routing
/// digests. Returns the set of device CLBs written.
pub fn encode_placement(
    nl: &Netlist,
    placement: &Placement,
    origin: ClbCoord,
    mem: &mut ConfigMemory,
) -> Result<Vec<ClbCoord>, EncodeError> {
    let (cols, rows) = (mem.clb_cols(), mem.rows());
    let translate = |local: ClbCoord| -> Result<ClbCoord, EncodeError> {
        let dev = local
            .translated(i32::from(origin.col), i32::from(origin.row))
            .ok_or(EncodeError::OutOfDevice(local))?;
        if dev.col >= cols || dev.row >= rows {
            return Err(EncodeError::OutOfDevice(dev));
        }
        Ok(dev)
    };

    // Per-CLB routing material: stable, component-local descriptors.
    let mut routing: HashMap<ClbCoord, Vec<u64>> = HashMap::new();

    for (cell_id, &(slice, lut)) in &placement.luts {
        if let CellKind::Lut4 { truth, inputs, .. } = &nl.cells()[cell_id.0 as usize] {
            let dev = translate(slice.clb)?;
            mem.set_lut(dev, slice.slice, lut, *truth);
            let mut words = vec![
                0x4C55_5400 | u64::from(slice.slice.0) << 4 | u64::from(lut.0),
                u64::from(*truth),
            ];
            for inp in inputs.iter().flatten() {
                words.push(u64::from(inp.0) | 0x4E45_5400_0000);
            }
            routing.entry(slice.clb).or_default().push(fnv1a(words));
        }
    }

    for (cell_id, &(slice, ff)) in &placement.ffs {
        if let CellKind::Ff { d, init, ce, .. } = &nl.cells()[cell_id.0 as usize] {
            let dev = translate(slice.clb)?;
            let mut nibble = FF_USED;
            if *init {
                nibble |= FF_INIT;
            }
            if ce.is_some() {
                nibble |= FF_CE;
            }
            mem.set_ff_config(dev, slice.slice, ff, nibble);
            let words = vec![
                0x4646_0000 | u64::from(slice.slice.0) << 4 | u64::from(ff.0),
                u64::from(d.0),
                ce.map_or(u64::MAX, |c| u64::from(c.0)),
            ];
            routing.entry(slice.clb).or_default().push(fnv1a(words));
        }
    }

    // Routing digests: deterministic order, spread over the routing
    // channels so that distinct circuits differ in several frames (realistic
    // differential-bitstream density).
    let mut used: Vec<ClbCoord> = routing.keys().copied().collect();
    used.sort_unstable();
    for &local in &used {
        let dev = translate(local)?;
        let mut material = routing.remove(&local).expect("key exists");
        material.sort_unstable();
        let base = fnv1a(material);
        let channels = MINORS_PER_CLB_COL - 3;
        for ch in 0..4u16 {
            let val = fnv1a([base, u64::from(ch)]);
            mem.set_routing_word(dev, ch % channels, val);
        }
    }
    let device_clbs: Result<Vec<ClbCoord>, EncodeError> =
        used.iter().map(|&c| translate(c)).collect();
    device_clbs
}

/// Reads back a LUT truth table at a component-local site (test helper and
/// the readback verification path).
pub fn readback_lut(
    mem: &ConfigMemory,
    origin: ClbCoord,
    local: ClbCoord,
    slice: SliceIndex,
    lut: vp2_fabric::coords::LutIndex,
) -> u16 {
    let dev = local
        .translated(i32::from(origin.col), i32::from(origin.row))
        .expect("in device");
    mem.lut(dev, slice, lut)
}

/// Reads back a FF nibble at a component-local site.
pub fn readback_ff(
    mem: &ConfigMemory,
    origin: ClbCoord,
    local: ClbCoord,
    slice: SliceIndex,
    ff: FfIndex,
) -> u8 {
    let dev = local
        .translated(i32::from(origin.col), i32::from(origin.row))
        .expect("in device");
    mem.ff_config(dev, slice, ff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components;
    use crate::place::AutoPlacer;
    use vp2_fabric::config::{FrameAddress, FrameBlock};
    use vp2_fabric::{Device, DeviceKind};

    /// Encodes a component into a blank configuration memory for `device`
    /// and returns the memory.
    fn encode_to_blank(
        nl: &Netlist,
        placement: &Placement,
        origin: ClbCoord,
        device: &vp2_fabric::Device,
    ) -> Result<ConfigMemory, EncodeError> {
        let mut mem = ConfigMemory::new(device);
        encode_placement(nl, placement, origin, &mut mem)?;
        Ok(mem)
    }

    fn sample() -> (Netlist, Placement) {
        let mut nl = Netlist::new("sample");
        let a = nl.input_bus("a", 8);
        let b = nl.input_bus("b", 8);
        let s = components::saturating_add_unsigned(&mut nl, &a, &b);
        let q = components::register(&mut nl, &s, None);
        nl.output_bus("o", &q);
        let p = AutoPlacer::new().place(&nl, 4, 4).unwrap();
        (nl, p)
    }

    #[test]
    fn encoding_writes_lut_bits() {
        let (nl, p) = sample();
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mem = encode_to_blank(&nl, &p, ClbCoord::new(0, 30), &dev).unwrap();
        // At least one LUT truth table is non-zero.
        let nonzero = p.luts.iter().any(|(cid, &(sc, lut))| {
            if let CellKind::Lut4 { truth, .. } = nl.cells()[cid.0 as usize] {
                truth != 0
                    && readback_lut(&mem, ClbCoord::new(0, 30), sc.clb, sc.slice, lut) == truth
            } else {
                false
            }
        });
        assert!(nonzero);
    }

    #[test]
    fn every_lut_truth_survives_readback() {
        let (nl, p) = sample();
        let dev = Device::new(DeviceKind::Xc2vp7);
        let origin = ClbCoord::new(10, 31);
        let mem = encode_to_blank(&nl, &p, origin, &dev).unwrap();
        for (cid, &(sc, lut)) in &p.luts {
            if let CellKind::Lut4 { truth, .. } = nl.cells()[cid.0 as usize] {
                assert_eq!(
                    readback_lut(&mem, origin, sc.clb, sc.slice, lut),
                    truth,
                    "cell {cid:?}"
                );
            }
        }
    }

    #[test]
    fn ff_nibbles_encode_usage() {
        let (nl, p) = sample();
        let dev = Device::new(DeviceKind::Xc2vp7);
        let origin = ClbCoord::new(0, 30);
        let mem = encode_to_blank(&nl, &p, origin, &dev).unwrap();
        for &(sc, ff) in p.ffs.values() {
            let nib = readback_ff(&mem, origin, sc.clb, sc.slice, ff);
            assert_eq!(nib & FF_USED, FF_USED);
            assert_eq!(nib & FF_CE, 0, "no CE in this design");
        }
    }

    #[test]
    fn relocation_is_pure_translation() {
        let (nl, p) = sample();
        let dev = Device::new(DeviceKind::Xc2vp7);
        let o1 = ClbCoord::new(2, 30);
        let o2 = ClbCoord::new(9, 32);
        let m1 = encode_to_blank(&nl, &p, o1, &dev).unwrap();
        let m2 = encode_to_blank(&nl, &p, o2, &dev).unwrap();
        // Every local site reads identically relative to its origin.
        for &(sc, lut) in p.luts.values() {
            assert_eq!(
                readback_lut(&m1, o1, sc.clb, sc.slice, lut),
                readback_lut(&m2, o2, sc.clb, sc.slice, lut)
            );
        }
        for local in p.used_clbs() {
            let d1 = local.translated(o1.col.into(), o1.row.into()).unwrap();
            let d2 = local.translated(o2.col.into(), o2.row.into()).unwrap();
            for ch in 0..4 {
                assert_eq!(m1.routing_word(d1, ch), m2.routing_word(d2, ch));
            }
        }
    }

    #[test]
    fn distinct_circuits_differ_in_routing() {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let build = |invert: bool| {
            let mut nl = Netlist::new("v");
            let a = nl.input_bus("a", 8);
            let body = if invert {
                components::bus_not(&mut nl, &a)
            } else {
                a.clone()
            };
            let q = components::register(&mut nl, &body, None);
            nl.output_bus("o", &q);
            let p = AutoPlacer::new().place(&nl, 2, 2).unwrap();
            encode_to_blank(&nl, &p, ClbCoord::new(0, 30), &dev).unwrap()
        };
        let m1 = build(false);
        let m2 = build(true);
        assert!(
            !m1.diff(&m2).is_empty(),
            "different circuits, different bits"
        );
    }

    #[test]
    fn encoding_touches_only_component_columns() {
        let (nl, p) = sample();
        let dev = Device::new(DeviceKind::Xc2vp7);
        let origin = ClbCoord::new(5, 30);
        let mem = encode_to_blank(&nl, &p, origin, &dev).unwrap();
        let blank = ConfigMemory::new(&dev);
        for addr in mem.diff(&blank) {
            match addr.block {
                FrameBlock::Clb { col } => {
                    assert!(
                        (origin.col..origin.col + p.width).contains(&col),
                        "unexpected write to column {col}"
                    );
                }
                other => panic!("unexpected block {other:?}"),
            }
        }
        // And rows outside the component's band stay blank in touched frames.
        let addr = FrameAddress {
            block: FrameBlock::Clb { col: origin.col },
            minor: 0,
        };
        let frame = mem.frame(addr);
        let band = ConfigMemory::row_word_range(origin.row..origin.row + p.height);
        for (i, &w) in frame.iter().enumerate() {
            if !band.contains(&i) {
                assert_eq!(w, 0, "word {i} outside the band must stay blank");
            }
        }
    }

    #[test]
    fn out_of_device_detected() {
        let (nl, p) = sample();
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mut mem = ConfigMemory::new(&dev);
        // Origin so low that the component's rows exceed the 44-row grid.
        let err = encode_placement(&nl, &p, ClbCoord::new(0, 42), &mut mem);
        assert_eq!(err, Err(EncodeError::OutOfDevice(ClbCoord::new(0, 44))));
    }

    #[test]
    fn identity_lut_reads_back_identity() {
        // A bus-macro pass-through LUT must encode truth 0xAAAA-like identity
        // (out = in0): truth4 gives 0b1010...? Verify actual value survives.
        let mut nl = Netlist::new("id");
        let a = nl.input("a", 0);
        let o = nl.lut(
            components::truth4(|x, _, _, _| x),
            [Some(a), None, None, None],
        );
        nl.output("o", 0, o);
        let p = AutoPlacer::new().place(&nl, 1, 1).unwrap();
        let dev = Device::new(DeviceKind::Xc2vp7);
        let origin = ClbCoord::new(0, 1);
        let mem = encode_to_blank(&nl, &p, origin, &dev).unwrap();
        let &(sc, lut) = p.luts.values().next().unwrap();
        let truth = readback_lut(&mem, origin, sc.clb, sc.slice, lut);
        assert_eq!(truth, components::truth4(|x, _, _, _| x));
    }
}
