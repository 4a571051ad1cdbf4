//! Transfer-time experiments (paper tables 2, 7 and 8).
//!
//! The program-controlled experiments run real assembly loops on the CPU
//! model — "the results include the overhead of the controlling software"
//! — moving sequences of 32-bit values between external memory and the
//! dynamic region. The DMA experiments program the PLB dock's engine from
//! a driver loop and poll for completion, matching the paper's
//! block-transfer method (with the output FIFO in the block-interleaved
//! case).

use crate::machine::{Docks, Machine};
use coreconnect_sim::map;
use dock::{DynamicModule, ModuleOutput};
use ppc405_sim::assemble;
use vp2_sim::SimTime;

/// Transfer pattern, as in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// Sequence of write operations (memory → dynamic region).
    Write,
    /// Sequence of read operations (dynamic region → memory).
    Read,
    /// Interleaved write/read operations.
    WriteRead,
}

impl TransferKind {
    /// Row label used in the regenerated tables.
    pub fn label(self) -> &'static str {
        match self {
            TransferKind::Write => "write",
            TransferKind::Read => "read",
            TransferKind::WriteRead => "interleaved write/read",
        }
    }
}

/// A pass-through module used by the transfer experiments: presents the
/// last written value on the read channel and flags every output valid
/// (so FIFO capture works).
pub struct EchoModule(u64);

impl EchoModule {
    /// New echo module.
    pub fn new() -> Self {
        EchoModule(0)
    }
}

impl Default for EchoModule {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicModule for EchoModule {
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

/// Binds an echo module directly to the dock (the transfer experiments
/// measure the data path, not a particular computation).
pub fn bind_echo(m: &mut Machine) {
    m.platform.dock.bind(Box::new(EchoModule::new()));
}

const PROG_BASE: u32 = 0x1000;

/// Writes big-endian words into memory from `addr` on, without charging
/// time.
fn poke_words(m: &mut Machine, addr: u32, words: &[u32]) {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_be_bytes()).collect();
    m.platform
        .bytes_mut(addr, bytes.len())
        .expect("the buffer lies in memory")
        .copy_from_slice(&bytes);
}

/// Measures program-controlled transfers of `n` 32-bit values; returns the
/// average time per transfer.
pub fn program_transfer_time(m: &mut Machine, kind: TransferKind, n: u32) -> SimTime {
    assert!(n > 0);
    bind_echo(m);
    // Source data in external memory.
    let words: Vec<u32> = (0..n).map(|i| 0xA000_0000 | i).collect();
    poke_words(m, map::EXTMEM_BASE, &words);
    let body = match kind {
        TransferKind::Write => {
            r#"
        loop:
            lwz  r6, 0(r4)      # fetch from external memory
            stw  r6, 0(r5)      # store to the dynamic region
            addi r4, r4, 4
            addi r3, r3, -1
            cmpwi r3, 0
            bne  loop
        "#
        }
        TransferKind::Read => {
            r#"
        loop:
            lwz  r6, 0(r5)      # fetch from the dynamic region
            stw  r6, 0(r4)      # store to external memory
            addi r4, r4, 4
            addi r3, r3, -1
            cmpwi r3, 0
            bne  loop
        "#
        }
        TransferKind::WriteRead => {
            r#"
        loop:
            lwz  r6, 0(r4)      # fetch input from memory
            stw  r6, 0(r5)      # write to the region
            lwz  r7, 0(r5)      # read the result back
            stw  r7, 4(r4)      # store result to memory
            addi r4, r4, 8
            addi r3, r3, -1
            cmpwi r3, 0
            bne  loop
        "#
        }
    };
    let src = format!(
        r#"
        entry:
            lis  r4, 0x2000     # external memory
            lis  r5, 0x8000     # dock data window
            {body}
            halt
        "#
    );
    let prog = assemble(&src, PROG_BASE).unwrap();
    m.load_program(&prog);
    let (elapsed, _) = m.call(prog.label("entry"), &[n], u64::from(n) * 40 + 10_000);
    elapsed / u64::from(n)
}

/// Measures DMA-controlled transfers of `n` 64-bit values on the 64-bit
/// system; returns the average time per 64-bit transfer. The driver
/// (register setup + completion polling) runs as real assembly, so its
/// overhead is included, as in the paper.
///
/// # Panics
/// Panics if called on the 32-bit system (it has no DMA).
pub fn dma_transfer_time(m: &mut Machine, kind: TransferKind, n: u32) -> SimTime {
    assert!(
        matches!(m.platform.dock, Docks::Plb(_)),
        "DMA requires the 64-bit system"
    );
    assert!(n > 0);
    bind_echo(m);
    let bytes = n * 8;
    let words: Vec<u32> = (0..n).flat_map(|i| [0xB000_0000 | i, i]).collect();
    poke_words(m, map::EXTMEM_BASE, &words);
    // Output buffer for read-back placed after the source region.
    let out_base = map::EXTMEM_BASE + bytes.next_multiple_of(64);
    let ctl = match kind {
        TransferKind::Write => 0b001u32,  // start, mem→dock
        TransferKind::Read => 0b011,      // start, dock→mem
        TransferKind::WriteRead => 0b101, // start, mem→dock, interleaved
    };
    let src = format!(
        r#"
        entry:                  # r3 = length in bytes
            lis  r8, 0x8001     # dock CSR base
            lis  r4, 0x2000     # source
            stw  r4, 0(r8)      # DMA_SRC
            lis  r5, {out_hi}
            ori  r5, r5, {out_lo}
            stw  r5, 4(r8)      # DMA_DST
            stw  r3, 8(r8)      # DMA_LEN
            li   r6, {ctl}
            stw  r6, 12(r8)     # DMA_CTL: go
        poll:
            lwz  r7, 16(r8)     # STATUS
            andi r7, r7, 2      # done?
            cmpwi r7, 0
            beq  poll
            li   r6, 1
            stw  r6, 24(r8)     # IRQ_ACK
            halt
        "#,
        out_hi = (out_base >> 16) & 0xFFFF,
        out_lo = out_base & 0xFFFF,
        ctl = ctl,
    );
    let prog = assemble(&src, PROG_BASE).unwrap();
    m.load_program(&prog);
    let (elapsed, _) = m.call(prog.label("entry"), &[bytes], u64::from(n) * 50 + 100_000);
    elapsed / u64::from(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{build_system, SystemKind};

    /// The big-endian word at `addr`.
    fn peek(m: &Machine, addr: u32) -> u32 {
        u32::from_be_bytes(m.platform.bytes(addr, 4).unwrap().try_into().unwrap())
    }

    #[test]
    fn program_writes_reach_the_dock() {
        let mut m = build_system(SystemKind::Bit32);
        let t = program_transfer_time(&mut m, TransferKind::Write, 256);
        assert!(t > SimTime::from_ns(100), "per-transfer {t}");
        let Docks::Opb(d) = &m.platform.dock else {
            panic!()
        };
        assert_eq!(d.writes, 256);
    }

    #[test]
    fn reads_and_interleaved_cost_more_than_writes() {
        let mut m = build_system(SystemKind::Bit32);
        let w = program_transfer_time(&mut m, TransferKind::Write, 256);
        let mut m = build_system(SystemKind::Bit32);
        let wr = program_transfer_time(&mut m, TransferKind::WriteRead, 256);
        assert!(
            wr > w,
            "a write+read pair costs more than a write: {wr} vs {w}"
        );
    }

    #[test]
    fn sixty_four_bit_system_is_4_to_6x_faster_cpu_controlled() {
        // The paper's headline table-7-vs-table-2 claim.
        for kind in [TransferKind::Write, TransferKind::Read] {
            let mut m32 = build_system(SystemKind::Bit32);
            let t32 = program_transfer_time(&mut m32, kind, 512);
            let mut m64 = build_system(SystemKind::Bit64);
            let t64 = program_transfer_time(&mut m64, kind, 512);
            let ratio = t32.as_ps() as f64 / t64.as_ps() as f64;
            assert!(
                (3.0..8.0).contains(&ratio),
                "{kind:?}: expected roughly 4-6x, got {ratio:.2} ({t32} vs {t64})"
            );
        }
    }

    #[test]
    fn dma_write_moves_data_and_beats_cpu() {
        let mut m = build_system(SystemKind::Bit64);
        let t_dma = dma_transfer_time(&mut m, TransferKind::Write, 1024);
        let Docks::Plb(d) = &m.platform.dock else {
            panic!()
        };
        assert_eq!(d.writes, 1024, "every 64-bit beat reached the module");
        let mut m2 = build_system(SystemKind::Bit64);
        let t_cpu = program_transfer_time(&mut m2, TransferKind::Write, 1024);
        // Per *64-bit* value DMA must clearly beat per-32-bit CPU transfers.
        assert!(
            t_dma.as_ps() * 3 < t_cpu.as_ps() * 2,
            "DMA {t_dma} should beat CPU {t_cpu} per value"
        );
    }

    #[test]
    fn dma_read_fills_memory() {
        use ppc405_sim::mem::MemoryPort;
        let mut m = build_system(SystemKind::Bit64);
        bind_echo(&mut m);
        // Preload the echo module's read channel, then drive the read-DMA
        // CSRs directly (no rebinding).
        let out_base = map::EXTMEM_BASE + 0x10000;
        let mut t = m.cpu.now();
        t += m.platform.write(t, map::DOCK_BASE, 4, 0x7777_7777);
        t += m
            .platform
            .write(t, map::DOCK_CSR_BASE + map::DOCK_CSR_DMA_SRC, 4, 0);
        t += m
            .platform
            .write(t, map::DOCK_CSR_BASE + map::DOCK_CSR_DMA_DST, 4, out_base);
        t += m
            .platform
            .write(t, map::DOCK_CSR_BASE + map::DOCK_CSR_DMA_LEN, 4, 64 * 8);
        t += m
            .platform
            .write(t, map::DOCK_CSR_BASE + map::DOCK_CSR_DMA_CTL, 4, 0b011);
        // Sleep until the transfer completes, as a driver waiting for the
        // interrupt would.
        m.platform.advance(t + SimTime::from_ms(1));
        assert!(!m.platform.dma_busy());
        assert!(
            m.platform.plb.busy_until() > t,
            "the transfer took bus time"
        );
        // The destination buffer received the echo value in the low words.
        for i in [0u32, 31, 63] {
            assert_eq!(peek(&m, out_base + 8 * i + 4), 0x7777_7777, "entry {i}");
        }
        // Completion raised the dock interrupt through the controller.
        assert!(m.platform.intc.pending() & (1 << map::IRQ_DOCK_DMA) != 0);
    }

    #[test]
    fn dma_interleaved_roundtrips_through_fifo() {
        let mut m = build_system(SystemKind::Bit64);
        let n = 4096u32; // exceeds the 2047-entry FIFO → at least two drains
        let _t = dma_transfer_time(&mut m, TransferKind::WriteRead, n);
        let out_base = map::EXTMEM_BASE + (n * 8).next_multiple_of(64);
        // Echo module: output == input, so the drained buffer mirrors the
        // source.
        for i in [0u32, 1, 2047, 2048, 4095] {
            let want_hi = 0xB000_0000 | i;
            let got_hi = peek(&m, out_base + 8 * i);
            let got_lo = peek(&m, out_base + 8 * i + 4);
            assert_eq!((got_hi, got_lo), (want_hi, i), "entry {i}");
        }
        let Docks::Plb(d) = &m.platform.dock else {
            panic!()
        };
        assert_eq!(d.fifo_overruns, 0, "backpressure prevented overruns");
        assert_eq!(d.fifo_level(), 0, "final drain emptied the FIFO");
    }

    #[test]
    fn dma_interleaved_slower_than_plain_write() {
        let mut m = build_system(SystemKind::Bit64);
        let t_wr = dma_transfer_time(&mut m, TransferKind::Write, 2048);
        let mut m2 = build_system(SystemKind::Bit64);
        let t_il = dma_transfer_time(&mut m2, TransferKind::WriteRead, 2048);
        assert!(
            t_il > t_wr,
            "interleaved moves twice the data: {t_il} vs {t_wr}"
        );
    }
}
