//! Device descriptors for the two parts used in the paper.
//!
//! Geometry is chosen so that the headline resource counts match the paper
//! exactly:
//!
//! * **XC2VP7** — 44 rows × 28 CLB columns = 1232 CLBs = **4928 slices**;
//!   4 BRAM columns × 11 blocks = **44 BRAMs**; one embedded PowerPC 405.
//! * **XC2VP30** — 80 rows × 46 CLB columns − 2 PowerPC holes (16 rows ×
//!   8 cols each) = 3424 CLBs = **13696 slices**; 8 BRAM columns × 17 blocks
//!   = **136 BRAMs**; two embedded PowerPC 405s (the paper uses only one).

use crate::coords::{ClbCoord, SLICES_PER_CLB};

/// The two Virtex-II Pro parts used in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// XC2VP7-FG456, speed grade -6 — the 32-bit system's device.
    Xc2vp7,
    /// XC2VP30-FF896, speed grade -7 — the 64-bit system's device.
    Xc2vp30,
}

/// A rectangular hole in the CLB grid occupied by a hard PowerPC 405 block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PpcHole {
    /// First CLB column covered by the block.
    pub col: u16,
    /// First CLB row covered by the block.
    pub row: u16,
    /// Width in CLB columns.
    pub width: u16,
    /// Height in CLB rows.
    pub height: u16,
}

impl PpcHole {
    /// Does the hole cover the given coordinate?
    pub fn contains(&self, c: ClbCoord) -> bool {
        c.col >= self.col
            && c.col < self.col + self.width
            && c.row >= self.row
            && c.row < self.row + self.height
    }
}

/// Static description of one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Which part this is.
    pub kind: DeviceKind,
    /// Part name as printed on the package.
    pub name: &'static str,
    /// Speed grade (−6 or −7); faster grade → shorter achievable clock periods.
    pub speed_grade: i8,
    /// Number of CLB rows.
    pub rows: u16,
    /// Number of CLB columns.
    pub clb_cols: u16,
    /// Number of BRAM columns (each full height).
    pub bram_cols: u16,
    /// BRAM blocks per BRAM column.
    pub brams_per_col: u16,
    /// Hard CPU blocks punched out of the CLB grid.
    pub ppc_holes: Vec<PpcHole>,
}

impl Device {
    /// Descriptor for the given part.
    pub fn new(kind: DeviceKind) -> Self {
        match kind {
            DeviceKind::Xc2vp7 => Device {
                kind,
                name: "XC2VP7-FG456",
                speed_grade: -6,
                rows: 44,
                clb_cols: 28,
                bram_cols: 4,
                brams_per_col: 11,
                // One PPC405 block; modelled as out-of-grid (it does not
                // reduce the 1232-CLB count on this part).
                ppc_holes: vec![],
            },
            DeviceKind::Xc2vp30 => Device {
                kind,
                name: "XC2VP30-FF896",
                speed_grade: -7,
                rows: 80,
                clb_cols: 46,
                bram_cols: 8,
                brams_per_col: 17,
                ppc_holes: vec![
                    PpcHole {
                        col: 10,
                        row: 8,
                        width: 8,
                        height: 16,
                    },
                    PpcHole {
                        col: 28,
                        row: 8,
                        width: 8,
                        height: 16,
                    },
                ],
            },
        }
    }

    /// Number of usable CLBs (grid minus CPU holes).
    pub fn clb_count(&self) -> u32 {
        let grid = u32::from(self.rows) * u32::from(self.clb_cols);
        let holes: u32 = self
            .ppc_holes
            .iter()
            .map(|h| u32::from(h.width) * u32::from(h.height))
            .sum();
        grid - holes
    }

    /// Number of usable slices.
    pub fn slice_count(&self) -> u32 {
        self.clb_count() * SLICES_PER_CLB as u32
    }

    /// Total number of 18 kbit BRAM blocks.
    pub fn bram_count(&self) -> u32 {
        u32::from(self.bram_cols) * u32::from(self.brams_per_col)
    }

    /// Is `c` a valid, usable CLB coordinate (inside the grid, outside any
    /// CPU hole)?
    pub fn is_usable_clb(&self, c: ClbCoord) -> bool {
        c.col < self.clb_cols && c.row < self.rows && !self.ppc_holes.iter().any(|h| h.contains(c))
    }

    /// Number of embedded PowerPC blocks.
    pub fn cpu_count(&self) -> u32 {
        match self.kind {
            DeviceKind::Xc2vp7 => 1,
            DeviceKind::Xc2vp30 => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xc2vp7_matches_paper_counts() {
        let d = Device::new(DeviceKind::Xc2vp7);
        assert_eq!(d.slice_count(), 4928, "paper: XC2VP7 has 4928 slices");
        assert_eq!(d.bram_count(), 44, "paper: XC2VP7 has 44 RAM blocks");
        assert_eq!(d.cpu_count(), 1);
        assert_eq!(d.speed_grade, -6);
    }

    #[test]
    fn xc2vp30_matches_paper_counts() {
        let d = Device::new(DeviceKind::Xc2vp30);
        assert_eq!(d.slice_count(), 13696, "paper: XC2VP30 has 13696 slices");
        assert_eq!(d.bram_count(), 136, "paper: XC2VP30 has 136 RAM blocks");
        assert_eq!(d.cpu_count(), 2, "paper: device includes two CPU cores");
        assert_eq!(d.speed_grade, -7);
    }

    #[test]
    fn slice_ratio_matches_paper() {
        // Paper: the XC2VP30 has "about 2.7 times more slices".
        let small = Device::new(DeviceKind::Xc2vp7).slice_count() as f64;
        let big = Device::new(DeviceKind::Xc2vp30).slice_count() as f64;
        let ratio = big / small;
        assert!((2.6..2.9).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn ppc_holes_are_not_usable() {
        let d = Device::new(DeviceKind::Xc2vp30);
        assert!(!d.is_usable_clb(ClbCoord::new(10, 8)));
        assert!(!d.is_usable_clb(ClbCoord::new(17, 23)));
        assert!(d.is_usable_clb(ClbCoord::new(9, 8)));
        assert!(d.is_usable_clb(ClbCoord::new(18, 8)));
    }

    #[test]
    fn out_of_grid_is_not_usable() {
        let d = Device::new(DeviceKind::Xc2vp7);
        assert!(!d.is_usable_clb(ClbCoord::new(28, 0)));
        assert!(!d.is_usable_clb(ClbCoord::new(0, 44)));
        assert!(d.is_usable_clb(ClbCoord::new(27, 43)));
    }
}
