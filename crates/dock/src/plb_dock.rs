//! The PLB Dock (64-bit system).
//!
//! Everything the OPB dock does, widened to 64 bits and connected directly
//! to the processor local bus as a master/slave, plus the three additions
//! section 4.1 lists:
//!
//! 1. **DMA controller** — direct transfers between memory and dock without
//!    CPU intervention (the engine itself lives in `coreconnect-sim`; the
//!    dock owns an instance and the machine model executes its bursts);
//! 2. **Output FIFO** — results from the dynamic area are stored for
//!    subsequent DMA transfer to memory; "the current output FIFO stores up
//!    to 2047 64-bit values";
//! 3. **Interrupt generator** — completion interrupts instead of polling.

use crate::module::{DynamicModule, ModuleOutput, NullModule};
use coreconnect_sim::dma::DmaEngine;
use std::collections::VecDeque;

/// FIFO capacity in 64-bit entries (paper: 2047).
pub const FIFO_CAPACITY: usize = 2047;

/// The PLB dock.
pub struct PlbDock {
    module: Box<dyn DynamicModule>,
    /// 64-bit holding register.
    holding: u64,
    /// Output FIFO awaiting DMA drain.
    fifo: VecDeque<u64>,
    /// Capture module outputs into the FIFO on each write strobe?
    pub fifo_capture: bool,
    /// The scatter-gather DMA engine.
    pub dma: DmaEngine,
    /// Interrupt generator output (level; cleared by acknowledge).
    irq: bool,
    /// Slave wait states for direct (CPU) accesses.
    pub wait_states: u64,
    /// Writes through the data window (CPU or DMA beats).
    pub writes: u64,
    /// Reads through the data window.
    pub reads: u64,
    /// Entries dropped because the FIFO was full (a driver bug indicator —
    /// correct drivers throttle on FIFO-full).
    pub fifo_overruns: u64,
}

impl std::fmt::Debug for PlbDock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlbDock")
            .field("module", &self.module.name())
            .field("fifo_level", &self.fifo.len())
            .field("fifo_capture", &self.fifo_capture)
            .field("irq", &self.irq)
            .finish()
    }
}

impl Default for PlbDock {
    fn default() -> Self {
        Self::new()
    }
}

impl PlbDock {
    /// New dock with an empty region.
    pub fn new() -> Self {
        PlbDock {
            module: Box::new(NullModule),
            holding: 0,
            fifo: VecDeque::with_capacity(FIFO_CAPACITY),
            fifo_capture: false,
            dma: DmaEngine::new64(),
            irq: false,
            wait_states: 0,
            writes: 0,
            reads: 0,
            fifo_overruns: 0,
        }
    }

    /// Binds a module's behavioural model.
    pub fn bind_module(&mut self, module: Box<dyn DynamicModule>) {
        self.module = module;
    }

    /// Unbinds, leaving the region empty.
    pub fn unbind(&mut self) {
        self.module = Box::new(NullModule);
    }

    /// Name of the bound module.
    pub fn module_name(&self) -> &str {
        self.module.name()
    }

    /// A 64-bit beat into the write channel (CPU 32-bit stores are
    /// zero-extended by the wrapper; DMA presents full 64-bit beats).
    /// Captures valid module outputs into the FIFO when enabled.
    pub fn write_data(&mut self, data: u64) -> ModuleOutput {
        self.write_data_at(0, data)
    }

    /// Addressed variant of [`Self::write_data`] for CPU stores into the
    /// decoded data window.
    pub fn write_data_at(&mut self, offset: u32, data: u64) -> ModuleOutput {
        self.holding = data;
        self.writes += 1;
        let out = self.module.poke_at(offset, data);
        if self.fifo_capture && out.valid {
            if self.fifo.len() >= FIFO_CAPACITY {
                self.fifo_overruns += 1;
            } else {
                self.fifo.push_back(out.data);
            }
        }
        out
    }

    /// A beat from the read channel (direct, not FIFO; with read-strobe).
    pub fn read_data(&mut self) -> u64 {
        self.reads += 1;
        self.module.read_pop()
    }

    /// Addressed read for CPU loads from the decoded data window.
    pub fn read_data_at(&mut self, offset: u32) -> u64 {
        self.reads += 1;
        self.module.read_at(offset)
    }

    /// FIFO occupancy.
    pub fn fifo_level(&self) -> usize {
        self.fifo.len()
    }

    /// Free FIFO entries.
    pub fn fifo_room(&self) -> usize {
        FIFO_CAPACITY - self.fifo.len()
    }

    /// Is the FIFO full? (The block-interleave condition: "when the FIFO
    /// becomes full, the write operation stops and the data contained in
    /// the FIFO is transferred to the external memory by a DMA operation.")
    pub fn fifo_full(&self) -> bool {
        self.fifo.len() >= FIFO_CAPACITY
    }

    /// Pops up to `n` entries for a DMA drain burst.
    pub fn fifo_pop(&mut self, n: usize) -> Vec<u64> {
        let take = n.min(self.fifo.len());
        self.fifo.drain(..take).collect()
    }

    /// Raises the completion interrupt.
    pub fn raise_irq(&mut self) {
        self.irq = true;
    }

    /// Interrupt line level.
    pub fn irq(&self) -> bool {
        self.irq
    }

    /// Acknowledges (clears) the interrupt.
    pub fn ack_irq(&mut self) {
        self.irq = false;
    }

    /// Status word per the CSR map: bit 0 DMA busy, bit 1 DMA done, bit 2
    /// FIFO full, bit 3 FIFO empty.
    pub fn status(&self) -> u32 {
        use coreconnect_sim::dma::DmaStatus;
        let mut s = 0;
        match self.dma.status() {
            DmaStatus::Busy => s |= 1,
            DmaStatus::Done => s |= 2,
            DmaStatus::Idle => {}
        }
        if self.fifo_full() {
            s |= 4;
        }
        if self.fifo.is_empty() {
            s |= 8;
        }
        s
    }

    /// Resets module, FIFO and statistics.
    pub fn reset(&mut self) {
        self.module.reset();
        self.holding = 0;
        self.fifo.clear();
        self.fifo_capture = false;
        self.irq = false;
        self.writes = 0;
        self.reads = 0;
        self.fifo_overruns = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coreconnect_sim::dma::{DmaDirection, DmaStatus};

    /// Pass-through module that flags every output valid.
    struct Echo(u64);
    impl DynamicModule for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn poke(&mut self, data: u64) -> ModuleOutput {
            self.0 = data;
            ModuleOutput { data, valid: true }
        }
        fn peek(&self) -> u64 {
            self.0
        }
        fn reset(&mut self) {
            self.0 = 0;
        }
    }

    #[test]
    fn fifo_captures_valid_outputs() {
        let mut dock = PlbDock::new();
        dock.bind_module(Box::new(Echo(0)));
        dock.fifo_capture = true;
        for i in 0..10u64 {
            dock.write_data(i);
        }
        assert_eq!(dock.fifo_level(), 10);
        assert_eq!(dock.fifo_pop(4), vec![0, 1, 2, 3]);
        assert_eq!(dock.fifo_level(), 6);
    }

    #[test]
    fn capture_disabled_by_default() {
        let mut dock = PlbDock::new();
        dock.bind_module(Box::new(Echo(0)));
        dock.write_data(7);
        assert_eq!(dock.fifo_level(), 0);
        assert_eq!(dock.read_data(), 7);
    }

    #[test]
    fn fifo_capacity_is_2047() {
        let mut dock = PlbDock::new();
        dock.bind_module(Box::new(Echo(0)));
        dock.fifo_capture = true;
        for i in 0..FIFO_CAPACITY as u64 {
            dock.write_data(i);
        }
        assert!(dock.fifo_full());
        assert_eq!(dock.fifo_level(), 2047);
        assert_eq!(dock.fifo_room(), 0);
        // One more: overrun counter (drivers must not do this).
        dock.write_data(9999);
        assert_eq!(dock.fifo_overruns, 1);
        assert_eq!(dock.fifo_level(), 2047);
    }

    #[test]
    fn status_bits() {
        let mut dock = PlbDock::new();
        assert_eq!(dock.status() & 8, 8, "FIFO empty");
        dock.dma.program(0, 64, DmaDirection::MemToDock);
        assert_eq!(dock.dma.status(), DmaStatus::Busy);
        assert_eq!(dock.status() & 1, 1, "DMA busy");
    }

    #[test]
    fn irq_lifecycle() {
        let mut dock = PlbDock::new();
        assert!(!dock.irq());
        dock.raise_irq();
        assert!(dock.irq());
        dock.ack_irq();
        assert!(!dock.irq());
    }

    #[test]
    fn reset_clears_everything() {
        let mut dock = PlbDock::new();
        dock.bind_module(Box::new(Echo(0)));
        dock.fifo_capture = true;
        dock.write_data(1);
        dock.raise_irq();
        dock.reset();
        assert_eq!(dock.fifo_level(), 0);
        assert!(!dock.irq());
        assert!(!dock.fifo_capture);
        assert_eq!(dock.writes, 0);
    }
}
