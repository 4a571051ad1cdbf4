//! Placement of netlist cells onto slice sites.
//!
//! Components are placed in **component-local coordinates** with origin
//! (0,0): BitLinker later relocates the whole component to its final position
//! inside a dynamic region by pure translation, exactly like the paper's
//! configuration-assembly flow (components designed independently, relocated
//! and concatenated at assembly time).
//!
//! Bus-macro cells arrive pre-pinned to fixed sites; the auto-placer fills
//! the remaining logic around them column-major.

use crate::graph::{CellId, CellKind, Netlist};
use std::collections::HashMap;
use vp2_fabric::coords::{ClbCoord, FfIndex, LutIndex, SliceCoord, LUTS_PER_SLICE, SLICES_PER_CLB};

/// A LUT site in component-local coordinates.
pub type LutSite = (SliceCoord, LutIndex);
/// A FF site in component-local coordinates.
pub type FfSite = (SliceCoord, FfIndex);

/// Placement errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// Not enough LUT sites in the bounding box.
    OutOfLutCapacity {
        /// Cells needing sites.
        needed: usize,
        /// Sites available.
        available: usize,
    },
    /// Not enough FF sites in the bounding box.
    OutOfFfCapacity {
        /// Cells needing sites.
        needed: usize,
        /// Sites available.
        available: usize,
    },
    /// Two cells pinned to the same site.
    PinConflict(SliceCoord),
    /// A pin lies outside the bounding box.
    PinOutOfBounds(SliceCoord),
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::OutOfLutCapacity { needed, available } => {
                write!(f, "needs {needed} LUT sites, bounding box has {available}")
            }
            PlaceError::OutOfFfCapacity { needed, available } => {
                write!(f, "needs {needed} FF sites, bounding box has {available}")
            }
            PlaceError::PinConflict(s) => write!(f, "conflicting pins at {s}"),
            PlaceError::PinOutOfBounds(s) => write!(f, "pin at {s} outside bounding box"),
        }
    }
}

impl std::error::Error for PlaceError {}

/// A completed placement: every LUT and FF cell mapped to a site inside a
/// `width × height` CLB bounding box anchored at local (0,0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Bounding-box width in CLB columns.
    pub width: u16,
    /// Bounding-box height in CLB rows.
    pub height: u16,
    /// LUT cell → site.
    pub luts: HashMap<CellId, LutSite>,
    /// FF cell → site.
    pub ffs: HashMap<CellId, FfSite>,
}

impl Placement {
    /// Distinct slices used.
    pub fn slices_used(&self) -> usize {
        let mut s: Vec<SliceCoord> = self
            .luts
            .values()
            .map(|&(sc, _)| sc)
            .chain(self.ffs.values().map(|&(sc, _)| sc))
            .collect();
        s.sort_unstable();
        s.dedup();
        s.len()
    }

    /// Every CLB used, deduplicated and sorted (column-major).
    pub fn used_clbs(&self) -> Vec<ClbCoord> {
        let mut s: Vec<ClbCoord> = self
            .luts
            .values()
            .map(|&(sc, _)| sc.clb)
            .chain(self.ffs.values().map(|&(sc, _)| sc.clb))
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    }
}

/// Greedy column-major placer.
#[derive(Debug, Default)]
pub struct AutoPlacer {
    lut_pins: HashMap<CellId, LutSite>,
}

impl AutoPlacer {
    /// New placer with no pins.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins a LUT cell to a fixed site (bus-macro contract).
    pub fn pin_lut(&mut self, cell: CellId, site: LutSite) -> &mut Self {
        self.lut_pins.insert(cell, site);
        self
    }

    /// Places `nl` into a `width × height` CLB bounding box.
    pub fn place(&self, nl: &Netlist, width: u16, height: u16) -> Result<Placement, PlaceError> {
        let lut_cells: Vec<CellId> = nl
            .cells()
            .iter()
            .enumerate()
            .filter_map(|(i, c)| matches!(c, CellKind::Lut4 { .. }).then_some(CellId(i as u32)))
            .collect();
        let ff_cells: Vec<CellId> = nl
            .cells()
            .iter()
            .enumerate()
            .filter_map(|(i, c)| matches!(c, CellKind::Ff { .. }).then_some(CellId(i as u32)))
            .collect();

        let in_bounds = |sc: SliceCoord| sc.clb.col < width && sc.clb.row < height;

        // Validate pins.
        let mut lut_taken: HashMap<LutSite, CellId> = HashMap::new();
        for (&cell, &site) in &self.lut_pins {
            if !in_bounds(site.0) {
                return Err(PlaceError::PinOutOfBounds(site.0));
            }
            if lut_taken.insert(site, cell).is_some() {
                return Err(PlaceError::PinConflict(site.0));
            }
        }

        let lut_capacity = width as usize * height as usize * SLICES_PER_CLB * LUTS_PER_SLICE;
        if lut_cells.len() > lut_capacity {
            return Err(PlaceError::OutOfLutCapacity {
                needed: lut_cells.len(),
                available: lut_capacity,
            });
        }
        let ff_capacity = lut_capacity; // 2 FFs per slice, same count as LUTs
        if ff_cells.len() > ff_capacity {
            return Err(PlaceError::OutOfFfCapacity {
                needed: ff_cells.len(),
                available: ff_capacity,
            });
        }

        // Site enumeration: column-major over CLBs, then slice, then LUT/FF.
        let mut luts = self.lut_pins.clone();
        let mut lut_sites = Self::site_iter(width, height)
            .map(|(sc, idx)| (sc, LutIndex(idx)))
            .filter(|site| !lut_taken.contains_key(site));
        for &cell in &lut_cells {
            if luts.contains_key(&cell) {
                continue;
            }
            match lut_sites.next() {
                Some(site) => {
                    luts.insert(cell, site);
                }
                None => {
                    return Err(PlaceError::OutOfLutCapacity {
                        needed: lut_cells.len(),
                        available: lut_capacity,
                    })
                }
            }
        }

        let mut ffs = HashMap::new();
        let mut ff_sites = Self::site_iter(width, height).map(|(sc, idx)| (sc, FfIndex(idx)));
        for &cell in &ff_cells {
            match ff_sites.next() {
                Some(site) => {
                    ffs.insert(cell, site);
                }
                None => {
                    return Err(PlaceError::OutOfFfCapacity {
                        needed: ff_cells.len(),
                        available: ff_capacity,
                    })
                }
            }
        }

        Ok(Placement {
            width,
            height,
            luts,
            ffs,
        })
    }

    /// Column-major enumeration of `(slice, sub-index)` pairs; the sub-index
    /// is 0..2 and serves as LUT index or FF index depending on the caller.
    fn site_iter(width: u16, height: u16) -> impl Iterator<Item = (SliceCoord, u8)> {
        (0..width).flat_map(move |col| {
            (0..height).flat_map(move |row| {
                (0..SLICES_PER_CLB as u8).flat_map(move |s| {
                    (0..LUTS_PER_SLICE as u8).map(move |l| (SliceCoord::new(col, row, s), l))
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components;

    fn small_netlist() -> Netlist {
        let mut nl = Netlist::new("small");
        let a = nl.input_bus("a", 8);
        let b = nl.input_bus("b", 8);
        let sum = components::add_mod(&mut nl, &a, &b);
        let q = components::register(&mut nl, &sum, None);
        nl.output_bus("o", &q);
        nl
    }

    #[test]
    fn places_small_design() {
        let nl = small_netlist();
        let p = AutoPlacer::new().place(&nl, 4, 4).unwrap();
        assert_eq!(p.luts.len(), nl.lut_cell_count());
        assert_eq!(p.ffs.len(), nl.ff_cell_count());
        assert!(p.slices_used() > 0);
        assert!(p.used_clbs().len() <= 16);
    }

    #[test]
    fn sites_are_unique() {
        let nl = small_netlist();
        let p = AutoPlacer::new().place(&nl, 4, 4).unwrap();
        let mut sites: Vec<_> = p.luts.values().collect();
        sites.sort_unstable();
        let before = sites.len();
        sites.dedup();
        assert_eq!(sites.len(), before, "no two LUTs share a site");
    }

    #[test]
    fn capacity_enforced() {
        let nl = small_netlist();
        // 8-bit adder: 16 LUTs; one CLB has 8 LUT sites.
        let err = AutoPlacer::new().place(&nl, 1, 1).unwrap_err();
        assert!(matches!(err, PlaceError::OutOfLutCapacity { .. }), "{err}");
    }

    #[test]
    fn pins_are_honoured() {
        let nl = small_netlist();
        // Pin the first LUT cell to a specific site.
        let first_lut = nl
            .cells()
            .iter()
            .position(|c| matches!(c, CellKind::Lut4 { .. }))
            .unwrap();
        let site = (SliceCoord::new(3, 3, 2), LutIndex::G);
        let mut placer = AutoPlacer::new();
        placer.pin_lut(CellId(first_lut as u32), site);
        let p = placer.place(&nl, 4, 4).unwrap();
        assert_eq!(p.luts[&CellId(first_lut as u32)], site);
        // No other cell stole the pinned site.
        let holders: Vec<_> = p.luts.iter().filter(|&(_, &s)| s == site).collect();
        assert_eq!(holders.len(), 1);
    }

    #[test]
    fn pin_out_of_bounds_rejected() {
        let nl = small_netlist();
        let mut placer = AutoPlacer::new();
        placer.pin_lut(CellId(0), (SliceCoord::new(9, 0, 0), LutIndex::F));
        let err = placer.place(&nl, 4, 4).unwrap_err();
        assert!(matches!(err, PlaceError::PinOutOfBounds(_)));
    }

    #[test]
    fn pin_conflict_rejected() {
        let nl = small_netlist();
        let site = (SliceCoord::new(0, 0, 0), LutIndex::F);
        let mut placer = AutoPlacer::new();
        placer.pin_lut(CellId(8), site); // arbitrary LUT cell ids
        placer.pin_lut(CellId(9), site);
        let err = placer.place(&nl, 4, 4).unwrap_err();
        assert!(matches!(err, PlaceError::PinConflict(_)));
    }

    #[test]
    fn used_clbs_sorted_unique() {
        let nl = small_netlist();
        let p = AutoPlacer::new().place(&nl, 2, 8).unwrap();
        let used = p.used_clbs();
        let mut sorted = used.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(used, sorted);
    }
}
