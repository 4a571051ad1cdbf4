//! The address map, walked at every window's edges on both systems.
//!
//! For every window of a system's map the walk touches the first byte, the
//! last byte and the byte one past the end. At each address the decode must
//! name what the window list below says lies there, and nothing may panic:
//! the platform's single-beat reads and writes, its line fills and
//! writebacks, the host accessors, and a guest load and store. An access
//! to unmapped space is refused: the platform reports it once
//! (`take_fault`) and a guest takes the machine check and runs on to
//! `halt`. A guest fetch from each unmapped class, an undecodable word and
//! DMA windows the engine cannot move take their documented exceptions
//! (DESIGN.md §5 decision 8). `ci.sh` runs this file in release too, where
//! a wrapping address computation would not panic but corrupt memory.

use coreconnect_sim::map::{self, Target};
use ppc405_sim::cpu::{MACHINE_CHECK_VECTOR, PROGRAM_VECTOR};
use ppc405_sim::mem::{MemoryPort, LINE_BYTES};
use ppc405_sim::{assemble, Fault, FaultKind, Program};
use rtr_core::{build_system, Machine, SystemKind};
use vp2_sim::SimTime;

/// A window: its base, its size, and what its offset `off` decodes to.
type Window = (u32, u32, fn(u32) -> Target);

/// The windows of `kind`'s map, written out from the map constants.
fn windows(kind: SystemKind) -> Vec<Window> {
    let ext_bytes = match kind {
        SystemKind::Bit32 => 32 << 20,
        SystemKind::Bit64 => 64 << 20,
    };
    let mut w: Vec<Window> = vec![
        (map::OCM_BASE, map::OCM_SIZE, Target::Ocm),
        (map::EXTMEM_BASE, ext_bytes, Target::Ext),
        (map::DOCK_BASE, map::DOCK_SIZE, Target::Dock),
        (map::HWICAP_BASE, map::REG_WINDOW, Target::Hwicap),
        (map::INTC_BASE, map::REG_WINDOW, Target::Intc),
        (map::UART_BASE, map::REG_WINDOW, |_| Target::Uart),
        (map::GPIO_BASE, map::REG_WINDOW, |_| Target::Gpio),
    ];
    if kind == SystemKind::Bit64 {
        w.push((map::DOCK_CSR_BASE, map::REG_WINDOW, Target::DockCsr));
    }
    w
}

/// What `addr` must decode to.
fn expected(windows: &[Window], addr: u32) -> Target {
    windows
        .iter()
        .find(|&&(base, size, _)| addr.wrapping_sub(base) < size)
        .map_or(Target::Unmapped, |&(base, _, target)| target(addr - base))
}

fn is_memory(t: Target) -> bool {
    matches!(t, Target::Ocm(_) | Target::Ext(_))
}

/// The machine-check handler counts its entries in `r20` and resumes,
/// unless `r22` says the fault was a fetch: then SRR0 is the fetch address
/// and resuming would fetch it again, so it halts. The program-exception
/// handler counts in `r21` and halts.
const MACHINE_CHECK: &str = "
    addi r20, r20, 1
    cmpwi r22, 0
    bne stop
    rfi
stop:
    halt
";
const PROGRAM: &str = "
    addi r21, r21, 1
    halt
";

/// Entry points, each taking an address in `r3`.
const GUEST: &str = "
touch:                  # a byte load and a byte store at r3
    li r20, 0
    li r22, 0
    lbz r5, 0(r3)
    stb r5, 0(r3)
    halt
jump:                   # fetch from r3
    li r20, 0
    li r22, 1
    mtlr r3
    blr
undecodable:
    li r21, 0
    .word 0xFC000000
    halt
dma:                    # r3 = src, r4 = len: memory to dock, polled
    li r20, 0
    li r22, 0
    lis r8, 0x8001
    stw r3, 0(r8)       # DMA_SRC
    stw r4, 8(r8)       # DMA_LEN
    li r6, 1
    stw r6, 12(r8)      # DMA_CTL: go
    cmpwi r20, 0
    bne refused
poll:
    lwz r7, 16(r8)      # STATUS
    andi r7, r7, 2
    cmpwi r7, 0
    beq poll
    stw r6, 24(r8)      # IRQ_ACK
refused:
    halt
restart:                # r3 = src, r4 = len, r5 = dst: an interleaved run,
    lis r8, 0x8001      # restarted mid-way to drain 8 bytes at r6
    stw r3, 0(r8)
    stw r5, 4(r8)
    stw r4, 8(r8)
    li r7, 5            # go, interleaved
    stw r7, 12(r8)
    li r9, 200
wait:
    addi r9, r9, -1
    cmpwi r9, 0
    bne wait
    stw r6, 4(r8)       # DMA_DST
    li r9, 8
    stw r9, 8(r8)       # DMA_LEN
    stw r7, 12(r8)
done:
    lwz r9, 16(r8)
    andi r9, r9, 2
    cmpwi r9, 0
    beq done
    halt
";

fn boot(kind: SystemKind) -> (Machine, Program) {
    let mut m = build_system(kind);
    for (src, vector) in [
        (MACHINE_CHECK, MACHINE_CHECK_VECTOR),
        (PROGRAM, PROGRAM_VECTOR),
    ] {
        m.load_program(&assemble(src, vector).unwrap());
    }
    let guest = assemble(GUEST, 0x1000).unwrap();
    m.load_program(&guest);
    (m, guest)
}

#[test]
fn every_window_edge_decodes_and_no_access_panics() {
    for kind in [SystemKind::Bit32, SystemKind::Bit64] {
        let windows = windows(kind);
        let (mut m, guest) = boot(kind);
        for &(base, size, _) in &windows {
            for addr in [base, base + size - 1, base + size] {
                let what = format!("{kind:?} {addr:#010x}");
                let want = expected(&windows, addr);
                let p = &mut m.platform;
                assert_eq!(p.map.decode(addr), want, "{what}: decode");
                assert_eq!(p.is_cacheable(addr), is_memory(want), "{what}");

                let refused = (want == Target::Unmapped).then_some(addr);
                let now = m.cpu.now();
                let (v, _) = p.read(now, addr, 1);
                assert_eq!(p.take_fault(), refused, "{what}: read");
                if refused.is_some() {
                    assert_eq!(v, 0, "{what}: a refused read returns 0");
                }
                p.write(now, addr, 1, v);
                assert_eq!(p.take_fault(), refused, "{what}: write");
                let word = addr & !3;
                p.read(now, word, 4);
                p.take_fault();

                let line = addr & !(LINE_BYTES as u32 - 1);
                let mut buf = [0; LINE_BYTES];
                let in_memory = is_memory(expected(&windows, line));
                let refused = (!in_memory).then_some(line);
                p.read_line(now, line, &mut buf);
                assert_eq!(p.take_fault(), refused, "{what}: line fill");
                p.write_line(now, line, &buf);
                assert_eq!(p.take_fault(), refused, "{what}: writeback");

                assert_eq!(p.bytes(addr, 1).is_some(), is_memory(want), "{what}");
                assert_eq!(p.bytes_mut(addr, 1).is_some(), is_memory(want));
                if addr == base + size - 1 {
                    assert!(p.bytes(addr, 2).is_none(), "{what}: straddles the end");
                }

                m.call(guest.label("touch"), &[addr], 1_000);
                let checks = if want == Target::Unmapped { 2 } else { 0 };
                assert_eq!(m.cpu.reg(20), checks, "{what}: guest machine checks");
                if checks > 0 {
                    let store = guest.label("touch") + 12;
                    let fault = Fault {
                        kind: FaultKind::Store,
                        pc: store,
                        addr,
                    };
                    assert_eq!(m.last_fault(), Some(fault), "{what}");
                    assert_eq!(m.cpu.srr0(), store + 4, "{what}: SRR0");
                }
            }
        }
    }
}

/// One address of each unmapped class: the gap above on-chip memory, the
/// first byte past external memory, the tail of a register page, and the
/// page above the peripherals. The 32-bit system has no dock CSRs either.
fn unmapped(kind: SystemKind) -> Vec<u32> {
    let ext_end = map::EXTMEM_BASE
        + if kind == SystemKind::Bit32 {
            32 << 20
        } else {
            64 << 20
        };
    let mut at = vec![
        map::OCM_SIZE,
        ext_end,
        map::HWICAP_BASE + map::REG_WINDOW,
        map::GPIO_BASE + 0x1_0000,
    ];
    if kind == SystemKind::Bit32 {
        at.push(map::DOCK_CSR_BASE);
    }
    at
}

#[test]
fn a_guest_takes_the_documented_exception_for_each_unmapped_class() {
    for kind in [SystemKind::Bit32, SystemKind::Bit64] {
        let (mut m, guest) = boot(kind);
        for addr in unmapped(kind) {
            let what = format!("{kind:?} {addr:#010x}");
            assert_eq!(m.platform.map.decode(addr), Target::Unmapped, "{what}");

            // Data: the load and the store each take a machine check that
            // resumes after them.
            m.call(guest.label("touch"), &[addr], 1_000);
            assert_eq!(m.cpu.reg(20), 2, "{what}: machine checks");
            assert_eq!(m.cpu.reg(5), 0, "{what}: the refused load wrote 0");
            assert_eq!(m.cpu.pc(), guest.label("touch") + 16, "{what}: halted");

            // Fetch: the machine check reports the fetch address.
            m.call(guest.label("jump"), &[addr], 1_000);
            let fault = Fault {
                kind: FaultKind::Fetch,
                pc: addr,
                addr,
            };
            assert_eq!(m.last_fault(), Some(fault), "{what}: fetch");
            assert_eq!((m.cpu.srr0(), m.cpu.reg(20)), (addr, 1), "{what}");
        }
        // An undecodable word takes the program exception at its address.
        m.call(guest.label("undecodable"), &[], 1_000);
        let word = guest.label("undecodable") + 4;
        let fault = Fault {
            kind: FaultKind::Illegal(0xFC00_0000),
            pc: word,
            addr: word,
        };
        assert_eq!(m.last_fault(), Some(fault), "{kind:?}: program exception");
        assert_eq!((m.cpu.srr0(), m.cpu.reg(21)), (word, 1), "{kind:?}");
        assert_eq!(
            m.cpu.pc(),
            PROGRAM_VECTOR + 4,
            "{kind:?}: the handler halted"
        );

        // The machine still runs programs.
        m.call(guest.label("touch"), &[map::EXTMEM_BASE], 1_000);
        assert_eq!(m.cpu.reg(20), 0, "{kind:?}: a mapped access runs clean");
    }
}

#[test]
fn a_dma_window_the_engine_cannot_move_takes_the_machine_check() {
    let (mut m, guest) = boot(SystemKind::Bit64);
    rtr_core::measure::bind_echo(&mut m);
    let ddr_end = map::EXTMEM_BASE + (64 << 20);
    let ctl = guest.label("dma") + 24;
    for (src, len) in [(0x1000, 64), (ddr_end, 8), (map::EXTMEM_BASE, 12)] {
        let what = format!("src {src:#010x}, {len} bytes");
        m.call(guest.label("dma"), &[src, len], 1_000);
        assert_eq!(m.cpu.reg(20), 1, "{what}: refused");
        let fault = Fault {
            kind: FaultKind::Store,
            pc: ctl,
            addr: src,
        };
        assert_eq!(m.last_fault(), Some(fault), "{what}");
        assert!(!m.platform.dma_busy(), "{what}: nothing started");

        m.call(guest.label("dma"), &[map::EXTMEM_BASE, 256], 100_000);
        assert_eq!(m.cpu.reg(20), 0, "after {what}: a valid DMA runs");
        assert!(!m.platform.dma_busy(), "after {what}: and completes");
    }
}

#[test]
fn a_restarted_drain_that_outruns_memory_drops_the_beats_past_its_end() {
    let (mut m, guest) = boot(SystemKind::Bit64);
    rtr_core::measure::bind_echo(&mut m);
    let last = map::EXTMEM_BASE + (64 << 20) - 8;
    let args = [
        map::EXTMEM_BASE,
        32 << 10,
        map::EXTMEM_BASE + (1 << 20),
        last,
    ];
    m.call(guest.label("restart"), &args, 1_000_000);
    assert_eq!(m.last_fault(), None, "both windows lie in memory");
    // The engine reports done before its last drain: let that run too.
    m.idle_until(m.now() + SimTime::from_ms(1));
    assert!(!m.platform.dma_busy());
}
