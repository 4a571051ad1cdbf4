//! BitLinker — configuration assembly for the dynamic region.
//!
//! The paper (and its companion DCIS'05 publication) describe BitLinker as a
//! tool that assembles partial configurations from the configurations of
//! individually designed components, guaranteeing that
//!
//! 1. the result is **complete** (not differential): it establishes the
//!    correct state of every frame it touches regardless of what was in the
//!    dynamic region before — necessary because modules are loaded in an
//!    order unknown when their configurations are produced;
//! 2. the circuits **above and below** the dynamic region are not disturbed,
//!    even though configuration frames span the full device height;
//! 3. components connect through **bus macros** at fixed locations, checked
//!    at assembly time, so components can be reused without repeating the
//!    high-level design flow.
//!
//! All configurations used in the paper's experiments were produced by
//! BitLinker; all partial configurations used in this reproduction's
//! experiments are produced by this module, along one path:
//! [`BitLinker::expected_state`] checks the fit, bus-macro and overlap
//! contracts and builds the merged device state once, and every stream is
//! [`partial_stream`] of that state over a frame list (collected by
//! [`partial_bitstream`] where a whole stream is wanted) — the region's
//! writable frames ([`BitLinker::link`], [`BitLinker::assemble`],
//! [`BitLinker::blank_stream`]), one sub-slot's frames (the module
//! manager's per-slot images), or the frames that differ from an assumed
//! current state
//! ([`differential_bitstream`](crate::builder::differential_bitstream)).

use crate::builder::{partial_bitstream, partial_stream, PartialStream};
use crate::packet::Bitstream;
use std::collections::BTreeSet;
use vp2_fabric::config::{ConfigMemory, FrameBlock, WORDS_PER_BRAM_BLOCK};
use vp2_fabric::coords::ClbCoord;
use vp2_fabric::region::DynamicRegion;
use vp2_fabric::Device;
use vp2_netlist::busmacro::BusMacro;
use vp2_netlist::encode::encode_placement;
use vp2_netlist::graph::Netlist;
use vp2_netlist::place::Placement;

/// A relocatable component: a placed netlist plus the bus macros through
/// which it talks to the static side (or to other components).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Component name (reports, diagnostics).
    pub name: String,
    /// The component's logic.
    pub netlist: Netlist,
    /// Placement in component-local coordinates.
    pub placement: Placement,
    /// Bus macros the component instantiates, with component-local sites.
    pub macros: Vec<BusMacro>,
}

impl Component {
    /// Creates a component, validating its netlist.
    pub fn new(
        name: impl Into<String>,
        netlist: Netlist,
        placement: Placement,
        macros: Vec<BusMacro>,
    ) -> Result<Self, vp2_netlist::NetlistError> {
        netlist.validate()?;
        Ok(Component {
            name: name.into(),
            netlist,
            placement,
            macros,
        })
    }

    /// Width × height of the component's bounding box.
    pub fn extent(&self) -> (u16, u16) {
        (self.placement.width, self.placement.height)
    }

    /// Slices occupied.
    pub fn slices_used(&self) -> usize {
        self.placement.slices_used()
    }
}

/// Assembly errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssembleError {
    /// Component bounding box exceeds the dynamic region at its origin.
    DoesNotFit {
        /// Component name.
        component: String,
        /// Needed extent (cols, rows).
        needed: (u16, u16),
        /// Region extent (cols, rows).
        region: (u16, u16),
    },
    /// The component's bus macro does not land on the agreed footprint.
    MacroMismatch {
        /// Component name.
        component: String,
        /// Macro name.
        macro_name: String,
    },
    /// Two components overlap.
    Overlap {
        /// First component.
        a: String,
        /// Second component.
        b: String,
    },
    /// Encoding failed (component fell off the device).
    Encode(String),
}

impl std::fmt::Display for AssembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssembleError::DoesNotFit {
                component,
                needed,
                region,
            } => write!(
                f,
                "component '{component}' ({}x{} CLBs) does not fit region ({}x{})",
                needed.0, needed.1, region.0, region.1
            ),
            AssembleError::MacroMismatch {
                component,
                macro_name,
            } => write!(
                f,
                "component '{component}' macro '{macro_name}' not on the agreed footprint"
            ),
            AssembleError::Overlap { a, b } => write!(f, "components '{a}' and '{b}' overlap"),
            AssembleError::Encode(m) => write!(f, "encode error: {m}"),
        }
    }
}

impl std::error::Error for AssembleError {}

/// Report on a produced configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkReport {
    /// Frames carried by the configuration.
    pub frames: usize,
    /// Stream length in words.
    pub words: usize,
}

/// The BitLinker: bound to one device, one dynamic region and the static
/// design's baseline configuration.
#[derive(Debug, Clone)]
pub struct BitLinker {
    device: Device,
    region: DynamicRegion,
    /// Configuration of the full device with the static design loaded and
    /// the region band erased. Rows outside the region in the region's
    /// columns are taken from here — guarantee (2). Every merged state is
    /// a clone of it, so a state owns only the frames its components
    /// write and shares every other frame with this base.
    erased_base: ConfigMemory,
    idcode: u32,
    /// Footprints (region-relative) that component macros must land on.
    expected_macros: Vec<BusMacro>,
}

impl BitLinker {
    /// Creates a BitLinker over the static design's baseline
    /// configuration, erasing the region band of `static_base` once.
    pub fn new(
        device: Device,
        region: DynamicRegion,
        mut static_base: ConfigMemory,
        expected_macros: Vec<BusMacro>,
    ) -> Self {
        let idcode = crate::idcode_for(device.kind);
        erase_region_band(&region, &mut static_base);
        BitLinker {
            device,
            region,
            erased_base: static_base,
            idcode,
            expected_macros,
        }
    }

    /// The static design with the region band erased: the state of the
    /// device with no module loaded, and the base every merged state
    /// shares its untouched frames with.
    pub fn erased_base(&self) -> &ConfigMemory {
        &self.erased_base
    }

    /// The dynamic region this linker targets.
    pub fn region(&self) -> &DynamicRegion {
        &self.region
    }

    /// Registers additional agreed footprints. A multi-module floorplan
    /// registers one translated dock-macro set per sub-slot: a component
    /// may then land on *any* same-named contract (each sub-slot origin
    /// lines its macros up with exactly one of them).
    pub fn add_expected_macros(&mut self, macros: impl IntoIterator<Item = BusMacro>) {
        self.expected_macros.extend(macros);
    }

    /// The device this linker targets.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Produces a **complete** partial configuration that loads `component`
    /// at region-relative `origin`, clearing the rest of the region.
    pub fn link(
        &self,
        component: &Component,
        origin: (u16, u16),
    ) -> Result<(Bitstream, LinkReport), AssembleError> {
        self.assemble(&[(component, origin)])
    }

    /// Assembles several components into one complete partial configuration:
    /// [`BitLinker::expected_state`] over every writable frame of the region.
    pub fn assemble(
        &self,
        parts: &[(&Component, (u16, u16))],
    ) -> Result<(Bitstream, LinkReport), AssembleError> {
        let merged = self.expected_state(parts)?;
        let frames = self.region.writable_frames();
        let bs = partial_bitstream(&merged, &frames, self.idcode);
        let report = LinkReport {
            frames: frames.len(),
            words: bs.word_count(),
        };
        Ok((bs, report))
    }

    /// The *empty region* configuration (unloads any module): the
    /// [erased base](BitLinker::erased_base) over the region's writable
    /// frames, cut from its frames as the words are consumed.
    pub fn blank_stream(&self) -> PartialStream<'_> {
        partial_stream(
            &self.erased_base,
            &self.region.writable_frames(),
            self.idcode,
        )
    }

    /// The merged full-device state a load of these parts establishes: the
    /// [erased base](BitLinker::erased_base), then every component encoded
    /// at its origin. Only the frames the encoders write are copied; every
    /// other frame is the base's own allocation. This is the one checked
    /// merge — each part must fit the region and land its dock macros on an
    /// agreed footprint, and no two parts may share a CLB — that every
    /// stream is cut from: [`BitLinker::assemble`] takes the region's
    /// frames, the module manager each sub-slot's frames, and
    /// [`differential_bitstream`](crate::builder::differential_bitstream)
    /// the frames that differ from an assumed current state.
    pub fn expected_state(
        &self,
        parts: &[(&Component, (u16, u16))],
    ) -> Result<ConfigMemory, AssembleError> {
        for &(comp, origin) in parts {
            let (w, h) = comp.extent();
            if origin.0 + w > self.region.width() || origin.1 + h > self.region.height() {
                return Err(AssembleError::DoesNotFit {
                    component: comp.name.clone(),
                    needed: (origin.0 + w, origin.1 + h),
                    region: (self.region.width(), self.region.height()),
                });
            }
            for m in &comp.macros {
                self.check_macro(comp, m, origin)?;
            }
        }
        // Overlap check on CLB footprints (region-relative).
        let footprints: Vec<BTreeSet<ClbCoord>> = parts
            .iter()
            .map(|&(comp, origin)| {
                comp.placement
                    .used_clbs()
                    .iter()
                    .map(|c| ClbCoord::new(c.col + origin.0, c.row + origin.1))
                    .collect()
            })
            .collect();
        for (i, a) in footprints.iter().enumerate() {
            if let Some(j) = (i + 1..parts.len()).find(|&j| !a.is_disjoint(&footprints[j])) {
                return Err(AssembleError::Overlap {
                    a: parts[i].0.name.clone(),
                    b: parts[j].0.name.clone(),
                });
            }
        }

        let mut merged = self.erased_base.clone();
        for &(comp, origin) in parts {
            let dev_origin = ClbCoord::new(
                self.region.cols.start + origin.0,
                self.region.rows.start + origin.1,
            );
            encode_placement(&comp.netlist, &comp.placement, dev_origin, &mut merged)
                .map_err(|e| AssembleError::Encode(e.to_string()))?;
        }
        Ok(merged)
    }

    /// Checks a component macro against the agreed footprints: a macro with
    /// a matching name must land (after translation by `origin`) exactly on
    /// one of the expected region-relative site sets. With a single-slot
    /// floorplan there is exactly one contract per name, so this is the
    /// original exact-footprint check; a multi-module floorplan registers
    /// one translated contract per sub-slot and a component is accepted
    /// at whichever sub-slot its macros line up with.
    fn check_macro(
        &self,
        comp: &Component,
        m: &BusMacro,
        origin: (u16, u16),
    ) -> Result<(), AssembleError> {
        let mut contracts = self.expected_macros.iter().filter(|e| e.name == m.name);
        let Some(first) = contracts.next() else {
            // Component-private macros (component-to-component links) are
            // not checked against the dock contract.
            return Ok(());
        };
        let translated: Vec<_> = m
            .sites
            .iter()
            .map(|&(sc, lut)| {
                (
                    vp2_fabric::coords::SliceCoord::new(
                        sc.clb.col + origin.0,
                        sc.clb.row + origin.1,
                        sc.slice.0,
                    ),
                    lut,
                )
            })
            .collect();
        let lands_on = |e: &BusMacro| translated == e.sites && m.kind == e.kind;
        if !lands_on(first) && !contracts.any(lands_on) {
            return Err(AssembleError::MacroMismatch {
                component: comp.name.clone(),
                macro_name: m.name.clone(),
            });
        }
        Ok(())
    }
}

/// Zeroes the region's row band in every CLB frame of the region's columns
/// (and the region's BRAM content) while leaving the rows above and below
/// untouched. Only a frame the erase changes is written, so every other
/// frame stays shared.
fn erase_region_band(region: &DynamicRegion, mem: &mut ConfigMemory) {
    let band = ConfigMemory::row_word_range(region.rows.clone());
    for addr in region.writable_frames() {
        let mut words = mem.frame(addr).to_vec();
        match addr.block {
            FrameBlock::Clb { .. } | FrameBlock::BramInterconnect { .. } => {
                words[band.clone()].fill(0);
            }
            FrameBlock::BramContent { col } => {
                // Only the BRAM blocks the region owns are cleared.
                for &(_, block) in region.brams.iter().filter(|&&(c, _)| c == col) {
                    let base = block as usize * WORDS_PER_BRAM_BLOCK;
                    words[base..base + WORDS_PER_BRAM_BLOCK].fill(0);
                }
            }
        }
        if words[..] != *mem.frame(addr) {
            mem.frame_mut(addr).copy_from_slice(&words);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{apply_bitstream, differential_bitstream};
    use vp2_fabric::coords::{LutIndex, SliceIndex};
    use vp2_fabric::region::region_32bit;
    use vp2_fabric::DeviceKind;
    use vp2_netlist::busmacro::DockMacros;
    use vp2_netlist::components;
    use vp2_netlist::place::AutoPlacer;

    /// A static base with recognisable bits above and below the region.
    fn static_base(dev: &Device) -> ConfigMemory {
        let mut m = ConfigMemory::new(dev);
        for col in 0..dev.clb_cols {
            m.set_lut(
                ClbCoord::new(col, 0),
                SliceIndex::new(0),
                LutIndex::F,
                0xBEEF,
            );
            m.set_lut(
                ClbCoord::new(col, dev.rows - 1),
                SliceIndex::new(1),
                LutIndex::G,
                0xCAFE,
            );
            m.set_routing_word(ClbCoord::new(col, 1), 2, 0x57A7_1C00 + u64::from(col));
        }
        m
    }

    /// Builds a dock-compatible component computing NOT over 32 bits.
    fn make_component(tag: u16) -> Component {
        let dm = DockMacros::for_width(32);
        let mut nl = Netlist::new(format!("inv{tag}"));
        let mut placer = AutoPlacer::new();
        let din = dm.write.instantiate_input(&mut nl, &mut placer, "din");
        let strobe = dm.strobe.instantiate_input(&mut nl, &mut placer, "wr");
        let inv = components::bus_not(&mut nl, &din);
        // Mix in the tag so different tags give different circuits.
        let tagbit = nl.constant(tag % 2 == 1);
        let mixed: Vec<_> = inv
            .iter()
            .map(|&b| components::xor2(&mut nl, b, tagbit))
            .collect();
        let regd = components::register(&mut nl, &mixed, Some(strobe[0]));
        dm.read
            .instantiate_output(&mut nl, &mut placer, "dout", &regd);
        let placement = placer.place(&nl, 12, 11).unwrap();
        Component::new(
            format!("inv{tag}"),
            nl,
            placement,
            vec![dm.write, dm.read, dm.strobe],
        )
        .unwrap()
    }

    fn linker() -> BitLinker {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let region = region_32bit(&dev);
        let base = static_base(&dev);
        let dm = DockMacros::for_width(32);
        BitLinker::new(dev, region, base, vec![dm.write, dm.read, dm.strobe])
    }

    #[test]
    fn link_produces_complete_region_config() {
        let lk = linker();
        let comp = make_component(0);
        let (bs, report) = lk.link(&comp, (0, 0)).unwrap();
        assert_eq!(report.frames, lk.region().writable_frames().len());
        assert!(report.words > report.frames, "frames carry payload");
        assert!(bs.parse().is_ok());
    }

    #[test]
    fn static_rows_above_and_below_survive() {
        let lk = linker();
        let comp = make_component(0);
        let (bs, _) = lk.link(&comp, (0, 0)).unwrap();
        let mut mem = static_base(lk.device());
        apply_bitstream(&bs, &mut mem, crate::IDCODE_XC2VP7).unwrap();
        // The recognisable static bits at rows 0, 1 and rows-1 are intact.
        let dev = lk.device();
        for col in 0..dev.clb_cols {
            assert_eq!(
                mem.lut(ClbCoord::new(col, 0), SliceIndex::new(0), LutIndex::F),
                0xBEEF
            );
            assert_eq!(
                mem.lut(
                    ClbCoord::new(col, dev.rows - 1),
                    SliceIndex::new(1),
                    LutIndex::G
                ),
                0xCAFE
            );
            assert_eq!(
                mem.routing_word(ClbCoord::new(col, 1), 2),
                0x57A7_1C00 + u64::from(col)
            );
        }
    }

    #[test]
    fn complete_config_correct_regardless_of_previous_module() {
        let lk = linker();
        let a = make_component(1);
        let b = make_component(2);
        let (bs_a, _) = lk.link(&a, (0, 0)).unwrap();
        let (bs_b, _) = lk.link(&b, (0, 0)).unwrap();

        // Path 1: load B directly onto the static base.
        let mut direct = static_base(lk.device());
        apply_bitstream(&bs_b, &mut direct, crate::IDCODE_XC2VP7).unwrap();

        // Path 2: load A first, then B over it.
        let mut via_a = static_base(lk.device());
        apply_bitstream(&bs_a, &mut via_a, crate::IDCODE_XC2VP7).unwrap();
        apply_bitstream(&bs_b, &mut via_a, crate::IDCODE_XC2VP7).unwrap();

        assert_eq!(via_a, direct, "complete configs are order-independent");
        assert_eq!(direct, lk.expected_state(&[(&b, (0, 0))]).unwrap());
    }

    #[test]
    fn differential_config_is_smaller_but_state_dependent() {
        let lk = linker();
        let a = make_component(1);
        let b = make_component(2);
        // Differential for B assuming the region currently holds A.
        let state_a = lk.expected_state(&[(&a, (0, 0))]).unwrap();
        let state_b = lk.expected_state(&[(&b, (0, 0))]).unwrap();
        let diff_b = differential_bitstream(&state_a, &state_b, crate::IDCODE_XC2VP7);
        let (_complete_b, full_report) = lk.link(&b, (0, 0)).unwrap();
        assert!(
            diff_b.word_count() < full_report.words,
            "differential smaller: {} vs {}",
            diff_b.word_count(),
            full_report.words
        );
        // Correct when the assumption holds…
        let mut good = state_a.clone();
        apply_bitstream(&diff_b, &mut good, crate::IDCODE_XC2VP7).unwrap();
        assert_eq!(good, state_b);
        // …wrong when it does not (region empty instead of holding A).
        let mut bad = static_base(lk.device());
        // static_base still has pre-erase content in the band? erase to get
        // the 'blank region' state first.
        let blank_bs = Bitstream {
            words: lk.blank_stream().collect(),
        };
        apply_bitstream(&blank_bs, &mut bad, crate::IDCODE_XC2VP7).unwrap();
        apply_bitstream(&diff_b, &mut bad, crate::IDCODE_XC2VP7).unwrap();
        assert_ne!(
            bad, state_b,
            "differential config on the wrong initial state leaves stale bits"
        );
    }

    #[test]
    fn does_not_fit_detected() {
        let lk = linker();
        let comp = make_component(0);
        let err = lk.link(&comp, (20, 0)).unwrap_err();
        assert!(matches!(err, AssembleError::DoesNotFit { .. }), "{err}");
        // The merged state every stream is cut from is checked the same
        // way, so a differential stream cannot bypass the fit check.
        assert_eq!(lk.expected_state(&[(&comp, (20, 0))]).unwrap_err(), err);
    }

    #[test]
    fn macro_mismatch_detected() {
        let lk = linker();
        let comp = make_component(0);
        // Placing at a shifted origin moves the macro off its agreed sites.
        let err = lk.link(&comp, (1, 0)).unwrap_err();
        assert!(matches!(err, AssembleError::MacroMismatch { .. }), "{err}");
        assert_eq!(lk.expected_state(&[(&comp, (1, 0))]).unwrap_err(), err);
    }

    #[test]
    fn overlap_detected() {
        let lk = linker();
        let a = make_component(1);
        let b = make_component(2);
        let parts = [(&a, (0, 0)), (&b, (0, 0))];
        let err = lk.assemble(&parts).unwrap_err();
        assert!(matches!(err, AssembleError::Overlap { .. }), "{err}");
        assert_eq!(lk.expected_state(&parts).unwrap_err(), err);
    }

    #[test]
    fn blank_configuration_clears_region() {
        let lk = linker();
        let a = make_component(1);
        let (bs_a, _) = lk.link(&a, (0, 0)).unwrap();
        let mut mem = static_base(lk.device());
        apply_bitstream(&bs_a, &mut mem, crate::IDCODE_XC2VP7).unwrap();
        let blank = Bitstream {
            words: lk.blank_stream().collect(),
        };
        apply_bitstream(&blank, &mut mem, crate::IDCODE_XC2VP7).unwrap();
        // Region band is now all-zero in CLB frames.
        let band = ConfigMemory::row_word_range(lk.region().rows.clone());
        for addr in lk.region().writable_frames() {
            if let FrameBlock::Clb { .. } = addr.block {
                let frame = mem.frame(addr);
                assert!(frame[band.clone()].iter().all(|&w| w == 0));
            }
        }
    }
}
