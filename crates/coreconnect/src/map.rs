//! System address map (shared by both systems).
//!
//! Mirrors the EDK-style layout: on-chip memory low, external memory in the
//! 0x2xxx_xxxx window, the dock and the peripherals high. One system's map
//! is an [`AddressMap`]: its [`AddressMap::decode`] is the only place an
//! address is tested against these constants.

/// On-chip (BRAM) memory base — program, stack, interrupt vectors.
pub const OCM_BASE: u32 = 0x0000_0000;
/// On-chip memory size (128 KiB).
pub const OCM_SIZE: u32 = 128 * 1024;

/// External memory base (32 MB SRAM on the 32-bit system, 512 MB DDR on the
/// 64-bit system, of which the model backs 64 MB; [`AddressMap`] maps only
/// the backed bytes).
pub const EXTMEM_BASE: u32 = 0x2000_0000;

/// Dock data window: writes enter the dynamic region's write channel, reads
/// observe its read channel.
pub const DOCK_BASE: u32 = 0x8000_0000;
/// Dock data window size.
pub const DOCK_SIZE: u32 = 0x1_0000;

/// Dock control/status registers (PLB dock only: DMA, FIFO, IRQ).
pub const DOCK_CSR_BASE: u32 = 0x8001_0000;
/// DMA source address register offset.
pub const DOCK_CSR_DMA_SRC: u32 = 0x00;
/// DMA destination address register offset.
pub const DOCK_CSR_DMA_DST: u32 = 0x04;
/// DMA length register offset (bytes).
pub const DOCK_CSR_DMA_LEN: u32 = 0x08;
/// DMA control register offset (bit 0 start, bit 1 direction: 0 = memory →
/// dock, 1 = dock FIFO → memory; bit 2 = interleaved mode).
pub const DOCK_CSR_DMA_CTL: u32 = 0x0C;
/// DMA/dock status register offset (bit 0 busy, bit 1 done, bit 2 FIFO
/// full, bit 3 FIFO empty).
pub const DOCK_CSR_STATUS: u32 = 0x10;
/// FIFO occupancy register offset.
pub const DOCK_CSR_FIFO_LEVEL: u32 = 0x14;
/// Interrupt acknowledge register offset.
pub const DOCK_CSR_IRQ_ACK: u32 = 0x18;

/// OPB HWICAP base.
pub const HWICAP_BASE: u32 = 0x8002_0000;
/// HWICAP data FIFO register offset (write bitstream words here).
pub const HWICAP_DATA: u32 = 0x00;
/// HWICAP control register offset (bit 0: start/commit).
pub const HWICAP_CTL: u32 = 0x04;
/// HWICAP status register offset (bit 0 busy, bit 1 error).
pub const HWICAP_STATUS: u32 = 0x08;

/// Interrupt controller base.
pub const INTC_BASE: u32 = 0x8003_0000;
/// UART base.
pub const UART_BASE: u32 = 0x8004_0000;
/// GPIO base.
pub const GPIO_BASE: u32 = 0x8005_0000;

/// Interrupt line assignment: PLB dock DMA-done.
pub const IRQ_DOCK_DMA: u32 = 0;
/// Interrupt line assignment: UART.
pub const IRQ_UART: u32 = 1;

/// Bytes of each peripheral's register window (the dock CSRs, the HWICAP,
/// the INTC, the UART and the GPIO); the rest of its 64 KiB page is
/// unmapped.
pub const REG_WINDOW: u32 = 0x100;

/// What an address decodes to, with its offset into the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// On-chip memory.
    Ocm(u32),
    /// External memory.
    Ext(u32),
    /// The dock's data window.
    Dock(u32),
    /// The PLB dock's control/status registers.
    DockCsr(u32),
    /// The HWICAP's registers.
    Hwicap(u32),
    /// The interrupt controller's registers.
    Intc(u32),
    /// The UART.
    Uart,
    /// The GPIO.
    Gpio,
    /// Nothing: an access here is a bus error.
    Unmapped,
}

/// One system's address map: the constants above, with external memory
/// bounded by the system's backing array and the dock CSRs present only
/// on the PLB dock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    ext_bytes: u32,
    dock_csr: bool,
}

impl AddressMap {
    /// The map of a system with `ext_bytes` of external memory, with or
    /// without the PLB dock's CSRs.
    pub fn new(ext_bytes: u32, dock_csr: bool) -> Self {
        AddressMap {
            ext_bytes: ext_bytes.min(DOCK_BASE - EXTMEM_BASE),
            dock_csr,
        }
    }

    /// Decodes `addr`. Each peripheral owns a 64 KiB page and decodes its
    /// first [`REG_WINDOW`] bytes.
    #[inline]
    pub fn decode(&self, addr: u32) -> Target {
        let (ocm, ext, dock) = (
            addr.wrapping_sub(OCM_BASE),
            addr.wrapping_sub(EXTMEM_BASE),
            addr.wrapping_sub(DOCK_BASE),
        );
        let off = addr & 0xFFFF;
        let reg = off < REG_WINDOW;
        match addr & !0xFFFF {
            _ if ocm < OCM_SIZE => Target::Ocm(ocm),
            _ if ext < self.ext_bytes => Target::Ext(ext),
            _ if dock < DOCK_SIZE => Target::Dock(dock),
            DOCK_CSR_BASE if reg && self.dock_csr => Target::DockCsr(off),
            HWICAP_BASE if reg => Target::Hwicap(off),
            INTC_BASE if reg => Target::Intc(off),
            UART_BASE if reg => Target::Uart,
            GPIO_BASE if reg => Target::Gpio,
            _ => Target::Unmapped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_bounds_external_memory_by_its_size() {
        let map = AddressMap::new(32 << 20, false);
        assert_eq!(map.decode(OCM_SIZE - 1), Target::Ocm(OCM_SIZE - 1));
        assert_eq!(map.decode(OCM_SIZE), Target::Unmapped);
        assert_eq!(map.decode(EXTMEM_BASE), Target::Ext(0));
        assert_eq!(map.decode(EXTMEM_BASE + (32 << 20)), Target::Unmapped);
        assert_eq!(map.decode(DOCK_CSR_BASE), Target::Unmapped, "no CSRs");
        let map = AddressMap::new(64 << 20, true);
        assert_eq!(map.decode(DOCK_CSR_BASE + 0xFF), Target::DockCsr(0xFF));
        assert_eq!(map.decode(HWICAP_BASE + REG_WINDOW), Target::Unmapped);
    }
}
