//! The executing machine: CPU + bus fabric + memories + dock + peripherals.
//!
//! [`Platform`] implements the CPU's [`MemoryPort`]: every load/store is
//! routed through the address map, pays the bus-protocol costs of its path
//! (including the PLB→OPB bridge on the 32-bit system) and contends with
//! DMA for bus occupancy. DMA bursts execute as discrete events whenever
//! simulated time passes them ([`Platform::advance`]), so CPU and DMA
//! activity genuinely interleave.

use crate::system::SystemKind;
use crate::timing::{SystemTiming, DMA_BURST_BEATS, LINE_BEATS_32, LINE_BEATS_64};
use coreconnect_sim::dma::{DmaDirection, DmaStatus};
use coreconnect_sim::memory::{DdrController, MemArray, OcmRam, SramController};
use coreconnect_sim::periph::{Gpio, JtagPpc, Uart};
use coreconnect_sim::{map, Bridge, Bus, BusTiming, HwIcap, InterruptController};
use dock::{DynamicModule, OpbDock, PlbDock};
use ppc405_sim::mem::{MemoryPort, LINE_BYTES};
use ppc405_sim::{Cpu, CpuConfig, Program, StepOutcome};
use rtr_trace::{EventKind, Tracer};
use vp2_bitstream::{apply_upset, BurstConfig, BurstPlan, Upset};
use vp2_fabric::{ConfigMemory, Device, DynamicRegion, FrameAddress};
use vp2_sim::SimTime;

/// External memory: SRAM (32-bit system) or DDR (64-bit system).
#[derive(Debug)]
pub enum ExtMem {
    /// 32 MB SRAM on the OPB.
    Sram(SramController),
    /// 512 MB DDR on the PLB.
    Ddr(DdrController),
}

impl ExtMem {
    /// The backing array.
    pub fn mem(&self) -> &MemArray {
        match self {
            ExtMem::Sram(s) => &s.mem,
            ExtMem::Ddr(d) => &d.mem,
        }
    }

    /// The backing array, mutably.
    pub fn mem_mut(&mut self) -> &mut MemArray {
        match self {
            ExtMem::Sram(s) => &mut s.mem,
            ExtMem::Ddr(d) => &mut d.mem,
        }
    }
}

/// The dock variant.
pub enum Docks {
    /// 32-bit system: OPB dock.
    Opb(OpbDock),
    /// 64-bit system: PLB dock.
    Plb(PlbDock),
}

impl Docks {
    /// Attaches `module` to the region's interface, replacing whatever
    /// was bound.
    pub fn bind(&mut self, module: Box<dyn DynamicModule>) {
        match self {
            Docks::Opb(d) => d.bind_module(module),
            Docks::Plb(d) => d.bind_module(module),
        }
    }

    /// Detaches the bound module, leaving the region empty.
    pub fn unbind(&mut self) {
        match self {
            Docks::Opb(d) => d.unbind(),
            Docks::Plb(d) => d.unbind(),
        }
    }
}

impl std::fmt::Debug for Docks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Docks::Opb(d) => write!(f, "Docks::Opb({d:?})"),
            Docks::Plb(d) => write!(f, "Docks::Plb({d:?})"),
        }
    }
}

/// Calls `f` with the base of every cache line overlapping
/// `[addr, addr+len)`, stopping at the top of the address space.
fn for_each_line(addr: u32, len: usize, mut f: impl FnMut(u32)) {
    let end = u64::from(addr) + len as u64;
    let mut line = Some(addr & !(LINE_BYTES as u32 - 1));
    while let Some(a) = line.filter(|&a| u64::from(a) < end) {
        f(a);
        line = a.checked_add(LINE_BYTES as u32);
    }
}

/// Active DMA bookkeeping (64-bit system only).
#[derive(Debug, Clone)]
struct DmaRun {
    /// Hardware block-interleave mode: writes fill the module, valid
    /// outputs land in the FIFO, and the engine drains the FIFO to
    /// `drain_cursor` whenever it fills (and once at the end).
    interleaved: bool,
    /// Destination cursor for FIFO drains.
    drain_cursor: u32,
    /// Earliest start of the next burst.
    ready_at: SimTime,
}

/// Installed ambient-upset process: the correlated burst plan plus the
/// frame order its indices refer to.
struct SeuState {
    plan: BurstPlan,
    /// Frame the plan's index `i` strikes.
    order: Vec<FrameAddress>,
    /// Scratch buffer reused across materializations.
    pending: Vec<Upset>,
}

/// Everything except the CPU core.
pub struct Platform {
    /// Which of the paper's two systems this is.
    pub kind: SystemKind,
    /// Clock/wait-state calibration.
    pub timing: SystemTiming,
    /// The FPGA device.
    pub device: Device,
    /// The dynamic region.
    pub region: DynamicRegion,
    /// Live configuration memory (what the ICAP writes).
    pub config: ConfigMemory,
    /// 64-bit processor local bus.
    pub plb: Bus,
    /// 32-bit on-chip peripheral bus.
    pub opb: Bus,
    /// PLB→OPB bridge.
    pub bridge: Bridge,
    /// On-chip memory (program/stack/vectors).
    pub ocm: OcmRam,
    /// External memory.
    pub ext: ExtMem,
    /// The dock.
    pub dock: Docks,
    /// Configuration port.
    pub icap: HwIcap,
    /// Interrupt controller (used by the 64-bit system).
    pub intc: InterruptController,
    /// Serial port.
    pub uart: Uart,
    /// GPIO (32-bit system only, per the paper).
    pub gpio: Option<Gpio>,
    /// JTAG download stub.
    pub jtag: JtagPpc,
    dma_run: Option<DmaRun>,
    /// DMA CSR scratch registers (src, dst, len).
    csr_scratch: (u32, u32, u32),
    /// Ambient correlated-upset process over configuration memory
    /// (`None` — the default — is bit-identical to a build without it).
    seu: Option<SeuState>,
    /// Trace journal handle (disabled by default).
    tracer: Tracer,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("kind", &self.kind)
            .field("dock", &self.dock)
            .finish_non_exhaustive()
    }
}

impl Platform {
    /// Builds the platform for a system kind (use
    /// [`crate::build_system`] for a complete machine).
    pub fn new(
        kind: SystemKind,
        timing: SystemTiming,
        device: Device,
        region: DynamicRegion,
        config: ConfigMemory,
    ) -> Self {
        let idcode = vp2_bitstream::idcode_for(device.kind);
        let (ext, dock_v, gpio) = match kind {
            SystemKind::Bit32 => (
                ExtMem::Sram(SramController::new(32 * 1024 * 1024)),
                Docks::Opb(OpbDock::new()),
                Some(Gpio::new()),
            ),
            SystemKind::Bit64 => (
                // 512 MB DDR on the board; 64 MB backing array is plenty
                // for every experiment and keeps memory use sane.
                ExtMem::Ddr(DdrController::new(64 * 1024 * 1024)),
                Docks::Plb(PlbDock::new()),
                None,
            ),
        };
        let mut ext = ext;
        if let ExtMem::Sram(s) = &mut ext {
            s.wait_states = timing.extmem_wait;
        }
        if let ExtMem::Ddr(d) = &mut ext {
            d.first_beat_wait = timing.extmem_first_beat_wait;
            d.per_beat_wait = timing.extmem_wait;
        }
        Platform {
            kind,
            timing,
            device,
            region,
            config,
            plb: Bus::new(BusTiming::plb(timing.plb)),
            opb: Bus::new(BusTiming::opb(timing.opb)),
            bridge: Bridge::default(),
            ocm: OcmRam::new(map::OCM_SIZE as usize),
            ext,
            dock: dock_v,
            icap: HwIcap::new(timing.icap, idcode),
            intc: InterruptController::new(),
            uart: Uart::new(),
            gpio,
            jtag: JtagPpc::new(),
            dma_run: None,
            csr_scratch: (0, 0, 0),
            seu: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs an ambient correlated-upset process striking `order`
    /// (typically the dynamic region's frames, in a deterministic
    /// order). The plan's frame indices map onto `order`; upsets are
    /// materialized lazily by [`Platform::materialize_upsets`].
    pub fn install_seu(&mut self, config: BurstConfig, order: Vec<FrameAddress>) {
        let plan = BurstPlan::new(config, order.len());
        self.seu = Some(SeuState {
            plan,
            order,
            pending: Vec::new(),
        });
    }

    /// Materializes every ambient upset with a timestamp up to `now`
    /// into live configuration memory; returns upsets applied. Called
    /// at the deterministic sync points where configuration state is
    /// about to be observed (load start, readback verify, scrub pass),
    /// which — because the plan's draws are tied to process state, not
    /// call granularity — yields the same fabric contents as stepping
    /// the process continuously.
    pub fn materialize_upsets(&mut self, now: SimTime) -> usize {
        let Some(mut seu) = self.seu.take() else {
            return 0;
        };
        seu.pending.clear();
        seu.plan.advance(now, &mut seu.pending);
        let struck = seu.pending.len();
        for u in &seu.pending {
            let addr = seu.order[u.frame];
            let mut words = self.config.frame(addr).words.clone();
            apply_upset(&mut words, u.seed, u.flips);
            self.config.write_frame(addr, &words);
        }
        self.seu = Some(seu);
        if struck > 0 && self.tracer.on() {
            self.tracer.emit(
                now,
                EventKind::FaultHit {
                    frames: struck as u32,
                },
            );
        }
        struck
    }

    /// Installs a tracer handle on the platform and its HWICAP. DMA
    /// programming/completion and ICAP bursts then land in the journal.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.icap.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    // ------------------------------------------------------------------
    // Bus path helpers. Each returns the completion instant.
    // ------------------------------------------------------------------

    /// Single beat on the PLB.
    fn plb_single(&mut self, now: SimTime, wait_states: u64) -> SimTime {
        self.plb.transfer(now, 1, wait_states)
    }

    /// Single beat on the OPB reached through the bridge.
    fn opb_bridged_single(&mut self, now: SimTime, wait_states: u64) -> SimTime {
        let plb_done = self.plb.transfer(now, 1, 0);
        let opb_start = self.bridge.forward(plb_done, self.timing.opb);
        self.opb.transfer(opb_start, 1, wait_states)
    }

    /// Burst on the OPB reached through the bridge (line fills of the
    /// 32-bit system's external memory).
    fn opb_bridged_burst(&mut self, now: SimTime, beats: u64, ws_per_beat: u64) -> SimTime {
        let plb_done = self.plb.transfer(now, 1, 0);
        let opb_start = self.bridge.forward(plb_done, self.timing.opb);
        self.opb.transfer(opb_start, beats, beats * ws_per_beat)
    }

    /// External-memory single-beat completion time.
    fn ext_single(&mut self, now: SimTime) -> SimTime {
        match self.kind {
            SystemKind::Bit32 => {
                let ws = self.timing.extmem_wait;
                self.opb_bridged_single(now, ws)
            }
            SystemKind::Bit64 => {
                let ws = self.timing.extmem_first_beat_wait;
                self.plb_single(now, ws)
            }
        }
    }

    /// External-memory line transfer completion time.
    fn ext_line(&mut self, now: SimTime) -> SimTime {
        match self.kind {
            SystemKind::Bit32 => {
                let ws = self.timing.extmem_wait;
                self.opb_bridged_burst(now, LINE_BEATS_32, ws)
            }
            SystemKind::Bit64 => {
                let ws = self.timing.extmem_first_beat_wait;
                self.plb.transfer(now, LINE_BEATS_64, ws)
            }
        }
    }

    /// Dock data-window single-beat completion time (reads: full latency).
    fn dock_single(&mut self, now: SimTime) -> SimTime {
        let ws = self.timing.dock_wait;
        match self.kind {
            SystemKind::Bit32 => self.opb_bridged_single(now, ws),
            SystemKind::Bit64 => self.plb_single(now, ws),
        }
    }

    /// Dock write completion as seen by the CPU. PLB and PLB→OPB bridge
    /// writes are **posted**: the CPU is released once the PLB leg accepts
    /// the write; the bridge's posting buffer completes the OPB leg in the
    /// background (which still occupies the OPB, preserving ordering
    /// against subsequent reads).
    fn dock_write_single(&mut self, now: SimTime) -> SimTime {
        let ws = self.timing.dock_wait;
        match self.kind {
            SystemKind::Bit32 => {
                let plb_done = self.plb.transfer(now, 1, 0);
                let opb_start = self.bridge.forward(plb_done, self.timing.opb);
                // The posted write occupies the bridge+OPB for the full
                // transaction including the bridge's internal cycles.
                self.opb
                    .transfer(opb_start, 1, ws + self.bridge.overhead_cycles());
                plb_done
            }
            SystemKind::Bit64 => self.plb_single(now, ws),
        }
    }

    /// Peripheral (HWICAP/INTC/UART/GPIO — always on the OPB) single beat
    /// (reads: full latency).
    fn periph_single(&mut self, now: SimTime) -> SimTime {
        self.opb_bridged_single(now, 1)
    }

    /// Posted peripheral write (see [`Self::dock_write_single`]).
    fn periph_write_single(&mut self, now: SimTime) -> SimTime {
        let plb_done = self.plb.transfer(now, 1, 0);
        let opb_start = self.bridge.forward(plb_done, self.timing.opb);
        self.opb
            .transfer(opb_start, 1, 1 + self.bridge.overhead_cycles());
        plb_done
    }

    // ------------------------------------------------------------------
    // DMA (64-bit system).
    // ------------------------------------------------------------------

    /// Programs and starts a DMA transfer from the dock CSRs.
    fn dma_start(&mut self, now: SimTime, ctl: u32, src: u32, dst: u32, len: u32) {
        let Docks::Plb(d) = &mut self.dock else {
            panic!("DMA CSR on the 32-bit system");
        };
        let interleaved = ctl & 0b100 != 0;
        let dir = if ctl & 0b10 != 0 {
            DmaDirection::DockToMem
        } else {
            DmaDirection::MemToDock
        };
        match dir {
            DmaDirection::MemToDock => d.dma.program(src, len, dir),
            DmaDirection::DockToMem => d.dma.program(dst, len, dir),
        }
        d.fifo_capture = interleaved;
        self.tracer.emit(
            now,
            EventKind::DmaProgram {
                bytes: len,
                to_dock: dir == DmaDirection::MemToDock,
                interleaved,
            },
        );
        self.dma_run = Some(DmaRun {
            interleaved,
            drain_cursor: dst,
            ready_at: now,
        });
    }

    /// Executes every DMA burst whose start time has passed. Called before
    /// every bus access and after every CPU step or block (a no-op while
    /// no DMA is active, which is when blocks run).
    pub fn advance(&mut self, now: SimTime) {
        while let Some(run) = &self.dma_run {
            let ready = run.ready_at;
            if self.plb.earliest_start(ready) > now {
                break;
            }
            if !self.dma_step(ready) {
                break;
            }
        }
    }

    /// Executes one DMA quantum (a burst, or a drain pass). Returns false
    /// when the run has completed (or nothing could be done).
    fn dma_step(&mut self, t: SimTime) -> bool {
        let Some(run) = self.dma_run.clone() else {
            return false;
        };
        let Docks::Plb(dck) = &mut self.dock else {
            return false;
        };

        // Interleaved mode: a full FIFO forces a drain pass.
        if run.interleaved && dck.fifo_full() {
            return self.dma_drain_fifo(t);
        }

        let cap = if run.interleaved {
            dck.fifo_room() as u64
        } else {
            u64::MAX
        };
        let Some(burst) = dck.dma.next_burst(cap) else {
            // Engine finished planning. Final drain if interleaved FIFO
            // still holds data, else complete.
            if run.interleaved && dck.fifo_level() > 0 {
                return self.dma_drain_fifo(t);
            }
            return self.dma_complete();
        };

        match burst.dir {
            DmaDirection::MemToDock => {
                // Read burst from memory…
                let ws = self.ext_burst_ws(burst.beats);
                let (_, read_done) = self.plb.transfer_timed(t, burst.beats, ws);
                // …then write burst to the dock.
                let dock_ws = self.timing.dock_wait;
                let (_, write_done) = self.plb.transfer_timed(read_done, burst.beats, dock_ws);
                let Docks::Plb(dck) = &mut self.dock else {
                    unreachable!()
                };
                let base = (burst.mem_addr - map::EXTMEM_BASE) as usize;
                for i in 0..burst.beats as usize {
                    let v = self.ext.mem().read_u64(base + 8 * i);
                    dck.write_data(v);
                }
                dck.dma.burst_done(&burst);
                if let Some(r) = &mut self.dma_run {
                    r.ready_at = write_done;
                }
            }
            DmaDirection::DockToMem => {
                // Read burst from the dock (FIFO first, read channel as
                // fallback)…
                let dock_ws = self.timing.dock_wait;
                let (_, read_done) = self.plb.transfer_timed(t, burst.beats, dock_ws);
                let ws = self.ext_burst_ws(burst.beats);
                let (_, write_done) = self.plb.transfer_timed(read_done, burst.beats, ws);
                let Docks::Plb(dck) = &mut self.dock else {
                    unreachable!()
                };
                let mut vals = dck.fifo_pop(burst.beats as usize);
                while vals.len() < burst.beats as usize {
                    vals.push(dck.read_data());
                }
                let base = (burst.mem_addr - map::EXTMEM_BASE) as usize;
                for (i, v) in vals.into_iter().enumerate() {
                    self.ext.mem_mut().write_u64(base + 8 * i, v);
                }
                dck.dma.burst_done(&burst);
                if let Some(r) = &mut self.dma_run {
                    r.ready_at = write_done;
                }
            }
        }

        // Completion check.
        let Docks::Plb(dck) = &mut self.dock else {
            unreachable!()
        };
        if dck.dma.status() == DmaStatus::Done {
            let run = self.dma_run.clone().expect("run active");
            if run.interleaved && dck.fifo_level() > 0 {
                return true; // next step drains
            }
            return self.dma_complete();
        }
        true
    }

    /// Drains the whole FIFO to memory at the drain cursor (one pass of the
    /// paper's block-interleaved scheme).
    fn dma_drain_fifo(&mut self, t: SimTime) -> bool {
        let Some(run) = self.dma_run.clone() else {
            return false;
        };
        let Docks::Plb(dck) = &mut self.dock else {
            return false;
        };
        let level = dck.fifo_level() as u64;
        if level == 0 {
            return true;
        }
        let mut cursor = run.drain_cursor;
        let mut t = t;
        let mut remaining = level;
        while remaining > 0 {
            let beats = remaining.min(DMA_BURST_BEATS);
            let dock_ws = self.timing.dock_wait;
            let (_, read_done) = self.plb.transfer_timed(t, beats, dock_ws);
            let ws = self.ext_burst_ws(beats);
            let (_, write_done) = self.plb.transfer_timed(read_done, beats, ws);
            let Docks::Plb(dck) = &mut self.dock else {
                unreachable!()
            };
            let vals = dck.fifo_pop(beats as usize);
            let base = (cursor - map::EXTMEM_BASE) as usize;
            for (i, v) in vals.into_iter().enumerate() {
                self.ext.mem_mut().write_u64(base + 8 * i, v);
            }
            cursor += (beats * 8) as u32;
            t = write_done;
            remaining -= beats;
        }
        if let Some(r) = &mut self.dma_run {
            r.drain_cursor = cursor;
            r.ready_at = t;
        }
        true
    }

    /// Marks the DMA run complete: interrupt + status.
    fn dma_complete(&mut self) -> bool {
        let Docks::Plb(dck) = &mut self.dock else {
            return false;
        };
        dck.raise_irq();
        if self.tracer.on() {
            let moved = dck.dma.bytes_moved;
            self.tracer.emit(
                self.plb.busy_until(),
                EventKind::DmaComplete { bytes_moved: moved },
            );
        }
        self.intc.raise(map::IRQ_DOCK_DMA);
        self.dma_run = None;
        false
    }

    /// Wait states for an external-memory burst.
    fn ext_burst_ws(&self, beats: u64) -> u64 {
        match &self.ext {
            ExtMem::Sram(s) => beats * s.wait_states,
            ExtMem::Ddr(d) => d.burst_wait_states(beats),
        }
    }

    /// Is DMA still running?
    pub fn dma_busy(&self) -> bool {
        self.dma_run.is_some()
    }

    /// Completes any in-flight DMA regardless of current time; returns the
    /// completion instant (used by drivers that sleep until the interrupt).
    pub fn finish_dma(&mut self) -> SimTime {
        while self.dma_run.is_some() {
            let ready = self.dma_run.as_ref().expect("checked").ready_at;
            if !self.dma_step(ready) {
                break;
            }
        }
        self.plb.busy_until()
    }

    /// CPU external-interrupt level.
    pub fn irq_level(&self) -> bool {
        match self.kind {
            SystemKind::Bit32 => false, // no INTC in the 32-bit system
            SystemKind::Bit64 => self.intc.cpu_line(),
        }
    }

    // ------------------------------------------------------------------
    // MMIO dispatch.
    // ------------------------------------------------------------------

    fn mmio_read(&mut self, now: SimTime, addr: u32) -> (u32, SimTime) {
        if (map::DOCK_BASE..map::DOCK_BASE + map::DOCK_SIZE).contains(&addr) {
            let end = self.dock_single(now);
            let v = match &mut self.dock {
                Docks::Opb(d) => d.mmio_read(addr - map::DOCK_BASE),
                Docks::Plb(d) => {
                    // 32-bit CPU loads return the low 32 bits of the 64-bit
                    // read channel (strobed). CPU-visible port decoding is
                    // 4-byte-granular, identical to the OPB dock — the paper
                    // transferred the applications "without any
                    // modifications", so driver offsets must mean the same
                    // thing on both systems. DMA beats always hit port 0.
                    d.read_data_at(addr - map::DOCK_BASE) as u32
                }
            };
            return (v, end);
        }
        if (map::DOCK_CSR_BASE..map::DOCK_CSR_BASE + 0x100).contains(&addr) {
            let end = self.dock_single(now);
            let off = addr - map::DOCK_CSR_BASE;
            let v = match (&mut self.dock, off) {
                (Docks::Plb(d), map::DOCK_CSR_STATUS) => d.status(),
                (Docks::Plb(d), map::DOCK_CSR_FIFO_LEVEL) => d.fifo_level() as u32,
                _ => 0,
            };
            return (v, end);
        }
        if (map::HWICAP_BASE..map::HWICAP_BASE + 0x100).contains(&addr) {
            let end = self.periph_single(now);
            let v = match addr - map::HWICAP_BASE {
                map::HWICAP_STATUS => {
                    u32::from(self.icap.busy(now)) | (u32::from(self.icap.error()) << 1)
                }
                _ => 0,
            };
            return (v, end);
        }
        if (map::INTC_BASE..map::INTC_BASE + 0x100).contains(&addr) {
            let end = self.periph_single(now);
            let v = match addr - map::INTC_BASE {
                0 => self.intc.pending(),
                4 => self.intc.active(),
                _ => 0,
            };
            return (v, end);
        }
        if (map::GPIO_BASE..map::GPIO_BASE + 0x100).contains(&addr) {
            let end = self.periph_single(now);
            let v = self.gpio.as_ref().map_or(0, |g| g.buttons);
            return (v, end);
        }
        if (map::UART_BASE..map::UART_BASE + 0x100).contains(&addr) {
            let end = self.periph_single(now);
            let v = u32::from(self.uart.tx_busy(now));
            return (v, end);
        }
        panic!("MMIO read from unmapped address {addr:#010x}");
    }

    fn mmio_write(&mut self, now: SimTime, addr: u32, data: u32) -> SimTime {
        if (map::DOCK_BASE..map::DOCK_BASE + map::DOCK_SIZE).contains(&addr) {
            let end = self.dock_write_single(now);
            match &mut self.dock {
                Docks::Opb(d) => {
                    d.mmio_write(addr - map::DOCK_BASE, data);
                }
                Docks::Plb(d) => {
                    // 32-bit programmatic store: zero-extended beat (the
                    // paper's point — load/store cannot use the full width).
                    // Port decoding matches the OPB dock (see read path).
                    d.write_data_at(addr - map::DOCK_BASE, u64::from(data));
                }
            }
            return end;
        }
        if (map::DOCK_CSR_BASE..map::DOCK_CSR_BASE + 0x100).contains(&addr) {
            let end = self.dock_write_single(now);
            let off = addr - map::DOCK_CSR_BASE;
            match off {
                map::DOCK_CSR_DMA_SRC => self.csr_scratch_mut().0 = data,
                map::DOCK_CSR_DMA_DST => self.csr_scratch_mut().1 = data,
                map::DOCK_CSR_DMA_LEN => self.csr_scratch_mut().2 = data,
                map::DOCK_CSR_DMA_CTL if data & 1 != 0 => {
                    let (src, dst, len) = *self.csr_scratch_mut();
                    self.dma_start(end, data, src, dst, len);
                }
                map::DOCK_CSR_IRQ_ACK => {
                    if let Docks::Plb(d) = &mut self.dock {
                        d.ack_irq();
                        if d.dma.status() == DmaStatus::Done {
                            d.dma.ack();
                        }
                    }
                    self.intc.acknowledge(map::IRQ_DOCK_DMA);
                }
                _ => {}
            }
            return end;
        }
        if (map::HWICAP_BASE..map::HWICAP_BASE + 0x100).contains(&addr) {
            let end = self.periph_write_single(now);
            match addr - map::HWICAP_BASE {
                map::HWICAP_DATA => self.icap.write_data(data),
                map::HWICAP_CTL if data & 1 != 0 => {
                    // Commit; errors latch in the status register.
                    let mut cfg =
                        std::mem::replace(&mut self.config, ConfigMemory::new(&self.device));
                    let _ = self.icap.commit(end, &mut cfg);
                    self.config = cfg;
                }
                _ => {}
            }
            return end;
        }
        if (map::INTC_BASE..map::INTC_BASE + 0x100).contains(&addr) {
            let end = self.periph_write_single(now);
            match addr - map::INTC_BASE {
                0 => {
                    // Write-one-to-acknowledge.
                    for bit in 0..32 {
                        if data & (1 << bit) != 0 {
                            self.intc.acknowledge(bit);
                        }
                    }
                }
                4 => {
                    for bit in 0..32 {
                        if data & (1 << bit) != 0 {
                            self.intc.enable(bit);
                        } else {
                            self.intc.disable(bit);
                        }
                    }
                }
                _ => {}
            }
            return end;
        }
        if (map::GPIO_BASE..map::GPIO_BASE + 0x100).contains(&addr) {
            let end = self.periph_write_single(now);
            if let Some(g) = &mut self.gpio {
                g.leds = data;
            }
            return end;
        }
        if (map::UART_BASE..map::UART_BASE + 0x100).contains(&addr) {
            let end = self.periph_write_single(now);
            self.uart.tx(end, data as u8);
            return end;
        }
        panic!("MMIO write to unmapped address {addr:#010x}");
    }

    /// DMA CSR scratch registers (src, dst, len).
    fn csr_scratch_mut(&mut self) -> &mut (u32, u32, u32) {
        &mut self.csr_scratch
    }

    // Direct (zero-time) memory access for loaders and checks.

    /// Reads a word without charging time (test/loader path).
    pub fn peek_mem(&self, addr: u32) -> u32 {
        if map::is_ocm(addr) {
            self.ocm.mem.read(addr as usize, 4)
        } else if map::is_extmem(addr) {
            self.ext.mem().read((addr - map::EXTMEM_BASE) as usize, 4)
        } else {
            panic!("peek of non-memory address {addr:#010x}");
        }
    }

    /// Writes a word without charging time (test/loader path).
    pub fn poke_mem(&mut self, addr: u32, data: u32) {
        if map::is_ocm(addr) {
            self.ocm.mem.write(addr as usize, 4, data);
        } else if map::is_extmem(addr) {
            self.ext
                .mem_mut()
                .write((addr - map::EXTMEM_BASE) as usize, 4, data);
        } else {
            panic!("poke of non-memory address {addr:#010x}");
        }
    }

    /// Writes a byte slice without charging time.
    pub fn poke_bytes(&mut self, addr: u32, bytes: &[u8]) {
        if map::is_ocm(addr) {
            self.ocm
                .mem
                .slice_mut(addr as usize, bytes.len())
                .copy_from_slice(bytes);
        } else if map::is_extmem(addr) {
            self.ext
                .mem_mut()
                .slice_mut((addr - map::EXTMEM_BASE) as usize, bytes.len())
                .copy_from_slice(bytes);
        } else {
            panic!("poke of non-memory address {addr:#010x}");
        }
    }

    /// Reads a byte slice without charging time.
    pub fn peek_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        if map::is_ocm(addr) {
            self.ocm.mem.slice(addr as usize, len).to_vec()
        } else if map::is_extmem(addr) {
            self.ext
                .mem()
                .slice((addr - map::EXTMEM_BASE) as usize, len)
                .to_vec()
        } else {
            panic!("peek of non-memory address {addr:#010x}");
        }
    }
}

impl MemoryPort for Platform {
    fn read(&mut self, now: SimTime, addr: u32, size: u8) -> (u32, SimTime) {
        self.advance(now);
        if map::is_ocm(addr) {
            let end = self.plb_single(now, 0);
            let v = self.ocm.mem.read(addr as usize, size);
            (v, end.saturating_sub(now))
        } else if map::is_extmem(addr) {
            let end = self.ext_single(now);
            let v = self
                .ext
                .mem()
                .read((addr - map::EXTMEM_BASE) as usize, size);
            (v, end.saturating_sub(now))
        } else {
            let (v, end) = self.mmio_read(now, addr);
            // Sub-word MMIO reads extract from the 32-bit register value.
            let v = match size {
                4 => v,
                2 => v & 0xFFFF,
                1 => v & 0xFF,
                _ => panic!("bad size"),
            };
            (v, end.saturating_sub(now))
        }
    }

    fn write(&mut self, now: SimTime, addr: u32, size: u8, data: u32) -> SimTime {
        self.advance(now);
        if map::is_ocm(addr) {
            let end = self.plb_single(now, 0);
            self.ocm.mem.write(addr as usize, size, data);
            end.saturating_sub(now)
        } else if map::is_extmem(addr) {
            let end = self.ext_single(now);
            self.ext
                .mem_mut()
                .write((addr - map::EXTMEM_BASE) as usize, size, data);
            end.saturating_sub(now)
        } else {
            let end = self.mmio_write(now, addr, data);
            end.saturating_sub(now)
        }
    }

    fn read_line(&mut self, now: SimTime, addr: u32, buf: &mut [u8; LINE_BYTES]) -> SimTime {
        self.advance(now);
        if map::is_ocm(addr) {
            let end = self.plb.transfer(now, LINE_BEATS_64, 0);
            buf.copy_from_slice(self.ocm.mem.slice(addr as usize, LINE_BYTES));
            end.saturating_sub(now)
        } else if map::is_extmem(addr) {
            let end = self.ext_line(now);
            buf.copy_from_slice(
                self.ext
                    .mem()
                    .slice((addr - map::EXTMEM_BASE) as usize, LINE_BYTES),
            );
            end.saturating_sub(now)
        } else {
            panic!("line fill from MMIO address {addr:#010x}");
        }
    }

    fn write_line(&mut self, now: SimTime, addr: u32, buf: &[u8; LINE_BYTES]) -> SimTime {
        self.advance(now);
        if map::is_ocm(addr) {
            let end = self.plb.transfer(now, LINE_BEATS_64, 0);
            self.ocm
                .mem
                .slice_mut(addr as usize, LINE_BYTES)
                .copy_from_slice(buf);
            end.saturating_sub(now)
        } else if map::is_extmem(addr) {
            let end = self.ext_line(now);
            self.ext
                .mem_mut()
                .slice_mut((addr - map::EXTMEM_BASE) as usize, LINE_BYTES)
                .copy_from_slice(buf);
            end.saturating_sub(now)
        } else {
            panic!("line writeback to MMIO address {addr:#010x}");
        }
    }

    fn is_cacheable(&self, addr: u32) -> bool {
        map::is_cacheable(addr)
    }
}

/// The complete machine: CPU + platform.
pub struct Machine {
    /// The embedded CPU.
    pub cpu: Cpu,
    /// Everything else.
    pub platform: Platform,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("kind", &self.platform.kind)
            .field("now", &self.cpu.now())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Assembles a machine from parts (use [`crate::build_system`]).
    pub fn new(cpu_cfg: CpuConfig, platform: Platform) -> Self {
        Machine {
            cpu: Cpu::new(cpu_cfg),
            platform,
        }
    }

    /// Current simulated time (the CPU's local clock, which is the furthest
    /// point the whole machine has reached).
    pub fn now(&self) -> SimTime {
        self.cpu.now()
    }

    /// Installs a tracer on the platform (see [`Platform::set_tracer`]).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.platform.set_tracer(tracer);
    }

    /// Materializes pending ambient upsets up to the machine's current
    /// instant (see [`Platform::materialize_upsets`]).
    pub fn materialize_upsets(&mut self) -> usize {
        let now = self.cpu.now();
        self.platform.materialize_upsets(now)
    }

    /// One CPU instruction plus platform catch-up and interrupt sampling.
    #[inline]
    pub fn step(&mut self) -> StepOutcome {
        let out = self.cpu.step(&mut self.platform);
        self.platform.advance(self.cpu.now());
        self.cpu.set_irq(self.platform.irq_level());
        out
    }

    /// Runs until `halt` or `max_instrs`. Returns true if halted.
    ///
    /// Leaves exactly the state of [`Machine::step`] repeated, but runs
    /// whole blocks ([`Cpu::run_block`]) and syncs the platform once per
    /// block wherever that is the same thing: while no DMA is active,
    /// [`Platform::advance`] is a no-op and the interrupt level can change
    /// only through an uncached access, which ends the block. A block also
    /// needs the CPU's sampled interrupt line to be current when interrupts
    /// are enabled: DMA that completed during [`Machine::idle_until`]
    /// raised the level without the line, and a step takes that interrupt
    /// one instruction late.
    pub fn run_until_halt(&mut self, max_instrs: u64) -> bool {
        let mut left = max_instrs;
        while left > 0 && !self.cpu.halted() {
            let ran = if !self.platform.dma_busy()
                && (!self.cpu.interrupts_enabled()
                    || self.cpu.irq_line() == self.platform.irq_level())
            {
                self.cpu.run_block(&mut self.platform, left)
            } else {
                0
            };
            if ran == 0 {
                self.step();
                left -= 1;
            } else {
                self.platform.advance(self.cpu.now());
                self.cpu.set_irq(self.platform.irq_level());
                left -= ran;
            }
        }
        self.cpu.halted()
    }

    /// Loads an assembled program into memory (charging JTAG download time,
    /// like the real flow through the JTAGPPC block).
    pub fn load_program(&mut self, prog: &Program) {
        let mut bytes = Vec::with_capacity(prog.byte_len());
        for w in &prog.words {
            bytes.extend_from_slice(&w.to_be_bytes());
        }
        let t = self.platform.jtag.download_time(bytes.len() as u64);
        self.platform.poke_bytes(prog.base, &bytes);
        let resume = self.cpu.now() + t;
        self.cpu.advance_time_to(resume);
        // Code changed underneath the caches.
        self.cpu.icache.invalidate_all();
    }

    /// Flushes every dirty D-cache line overlapping `[addr, addr+len)` to
    /// memory without charging simulated time (observability helper: lets
    /// tests and drivers read results out of the write-back cache the same
    /// way a debugger would).
    pub fn flush_dcache_range(&mut self, addr: u32, len: usize) {
        // Flush through a zero-cost port so observability does not disturb
        // bus occupancy or timing.
        struct FreePort<'a>(&'a mut Platform);
        impl MemoryPort for FreePort<'_> {
            fn read(&mut self, _: SimTime, _: u32, _: u8) -> (u32, SimTime) {
                unreachable!("flush only writes")
            }
            fn write(&mut self, _: SimTime, _: u32, _: u8, _: u32) -> SimTime {
                unreachable!("flush writes whole lines")
            }
            fn read_line(&mut self, _: SimTime, _: u32, _: &mut [u8; LINE_BYTES]) -> SimTime {
                unreachable!("flush only writes")
            }
            fn write_line(&mut self, _: SimTime, addr: u32, buf: &[u8; LINE_BYTES]) -> SimTime {
                self.0.poke_bytes(addr, buf);
                SimTime::ZERO
            }
            fn is_cacheable(&self, _: u32) -> bool {
                true
            }
        }
        let now = self.cpu.now();
        let mut port = FreePort(&mut self.platform);
        for_each_line(addr, len, |line| {
            self.cpu.dcache.flush_line(now, line, &mut port);
        });
    }

    /// Drops every D-cache line overlapping `[addr, addr+len)` without
    /// writing it back (observability helper: lets drivers poke fresh
    /// input into memory behind the cache, at zero simulated cost).
    pub fn invalidate_dcache_range(&mut self, addr: u32, len: usize) {
        for_each_line(addr, len, |line| self.cpu.dcache.invalidate_line(line));
    }

    /// Advances the whole machine to `t` without executing instructions —
    /// the service's idle wait between request arrivals. Concurrent
    /// platform activity (DMA beats, FIFO drains) still progresses; a `t`
    /// in the past is a no-op.
    pub fn idle_until(&mut self, t: SimTime) {
        if t > self.cpu.now() {
            self.cpu.advance_time_to(t);
            self.platform.advance(t);
        }
    }

    /// Calls a program entry point with up to 8 arguments in `r3..=r10`,
    /// runs to `halt`, and returns `(elapsed_time, r3)`.
    ///
    /// # Panics
    /// Panics if the program does not halt within `max_instrs`.
    pub fn call(&mut self, entry: u32, args: &[u32], max_instrs: u64) -> (SimTime, u32) {
        assert!(args.len() <= 8, "at most 8 register arguments");
        for (i, &a) in args.iter().enumerate() {
            self.cpu.set_reg(3 + i as u8, a);
        }
        self.cpu.set_pc(entry);
        let start = self.cpu.now();
        assert!(
            self.run_until_halt(max_instrs),
            "program did not halt within {max_instrs} instructions"
        );
        (self.cpu.now() - start, self.cpu.reg(3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::build_system;
    use ppc405_sim::assemble;

    #[test]
    fn machine_runs_a_program_on_both_systems() {
        for kind in [SystemKind::Bit32, SystemKind::Bit64] {
            let mut m = build_system(kind);
            let prog = assemble(
                r#"
                entry:
                    li r4, 10
                    li r3, 0
                loop:
                    add r3, r3, r4
                    addi r4, r4, -1
                    cmpwi r4, 0
                    bne loop
                    halt
                "#,
                0x1000,
            )
            .unwrap();
            m.load_program(&prog);
            let (t, r3) = m.call(prog.label("entry"), &[], 10_000);
            assert_eq!(r3, 55, "{kind:?}");
            assert!(t > SimTime::ZERO);
        }
    }

    #[test]
    fn reloading_a_cached_slot_executes_the_new_code() {
        let mut m = build_system(SystemKind::Bit64);
        let old = assemble("entry:\n li r3, 1\n halt\n", 0x1000).unwrap();
        let new = assemble("entry:\n li r3, 2\n halt\n", 0x1000).unwrap();
        m.load_program(&old);
        assert_eq!(m.call(old.label("entry"), &[], 10).1, 1);
        let misses = m.cpu.icache.stats.misses;
        m.load_program(&new);
        assert_eq!(
            m.call(new.label("entry"), &[], 10).1,
            2,
            "load_program must drop the decoded copies of the old code"
        );
        assert_eq!(m.cpu.icache.stats.misses, misses + 1, "refetched");
    }

    #[test]
    fn extmem_loads_store_roundtrip_with_time() {
        let mut m = build_system(SystemKind::Bit32);
        let prog = assemble(
            r#"
            entry:
                lis r4, 0x2000      # external memory base
                li  r5, 1234
                stw r5, 0(r4)
                lwz r3, 0(r4)
                dcbf (r4)
                halt
            "#,
            0x1000,
        )
        .unwrap();
        m.load_program(&prog);
        let (_, r3) = m.call(prog.label("entry"), &[], 10_000);
        assert_eq!(r3, 1234);
        assert_eq!(m.platform.peek_mem(map::EXTMEM_BASE), 1234, "flushed");
    }

    #[test]
    fn dock_mmio_roundtrip_32() {
        // The empty region reads zero; the holding register still captures.
        let mut m = build_system(SystemKind::Bit32);
        let prog = assemble(
            r#"
            entry:
                lis r4, 0x8000
                li  r5, 77
                stw r5, 0(r4)
                lwz r3, 0(r4)
                halt
            "#,
            0x1000,
        )
        .unwrap();
        m.load_program(&prog);
        let (_, r3) = m.call(prog.label("entry"), &[], 10_000);
        assert_eq!(r3, 0, "empty region reads zero");
        if let Docks::Opb(d) = &m.platform.dock {
            assert_eq!(d.holding(), 77);
            assert_eq!(d.writes, 1);
        } else {
            panic!("expected OPB dock");
        }
    }

    #[test]
    fn flushing_a_range_that_ends_past_4_gib_returns() {
        let mut m = build_system(SystemKind::Bit32);
        m.flush_dcache_range(0xFFFF_FFE0, 64);
    }

    #[test]
    fn invalidating_a_range_that_ends_past_4_gib_returns() {
        let mut m = build_system(SystemKind::Bit32);
        m.invalidate_dcache_range(0xFFFF_FFE0, 64);
    }

    /// Interrupt handler at the 405's vector: records the interrupted loop
    /// counter, acknowledges the dock (which clears the INTC line too) and
    /// counts the entry.
    const HANDLER: &str = r#"
        handler:
            mr   r21, r5
            lis  r28, 0x8001
            li   r29, 1
            stw  r29, 24(r28)   # IRQ_ACK
            addi r20, r20, 1
            rfi
    "#;

    /// Entry points driving the dock DMA from the CPU: polled, taken as
    /// an interrupt, and armed to complete after the program halts.
    const DMA: &str = r#"
        poll_dma:               # r3 = bytes, memory -> dock, status polled
            lis  r8, 0x8001     # dock CSR base
            lis  r4, 0x2000
            stw  r4, 0(r8)      # DMA_SRC
            stw  r3, 8(r8)      # DMA_LEN
            li   r6, 1
            stw  r6, 12(r8)     # DMA_CTL: go
            li   r5, 0
        poll:
            addi r5, r5, 1      # cached work between polls
            mullw r7, r5, r5
            lwz  r7, 16(r8)     # STATUS
            andi r7, r7, 2      # done?
            cmpwi r7, 0
            beq  poll
            li   r6, 1
            stw  r6, 24(r8)     # IRQ_ACK
            halt
        irq_dma:                # r3 = bytes; completion taken as an interrupt
            lis  r9, 0x8003
            li   r6, 1
            stw  r6, 4(r9)      # INTC: enable the dock DMA line
            lis  r8, 0x8001
            lis  r4, 0x2000
            stw  r4, 0(r8)
            stw  r3, 8(r8)
            li   r20, 0
            wrteei 1
            li   r6, 1
            stw  r6, 12(r8)     # go
            li   r5, 0
        spin:
            addi r5, r5, 1
            cmpwi r20, 0
            beq  spin
            wrteei 0
            halt
        arm:                    # r3 = bytes; halts with the DMA in flight
            lis  r8, 0x8001
            lis  r4, 0x2000
            stw  r4, 0(r8)
            stw  r3, 8(r8)
            li   r20, 0
            li   r6, 1
            stw  r6, 12(r8)     # go
            wrteei 1
            halt
        count:                  # r3 = n; a cached loop
            li   r5, 0
        loop:
            addi r5, r5, 1
            cmpw r5, r3
            blt  loop
            wrteei 0
            halt
    "#;

    /// `Machine::call` by hand: one `Machine::step` per instruction.
    fn step_call(m: &mut Machine, entry: u32, args: &[u32]) {
        for (i, &a) in args.iter().enumerate() {
            m.cpu.set_reg(3 + i as u8, a);
        }
        m.cpu.set_pc(entry);
        for _ in 0..1_000_000 {
            if m.step() == StepOutcome::Halted {
                return;
            }
        }
        panic!("program did not halt");
    }

    fn assert_same(a: &Machine, b: &Machine, what: &str) {
        assert_eq!(a.now(), b.now(), "{what}: now");
        for r in 0..32 {
            assert_eq!(a.cpu.reg(r), b.cpu.reg(r), "{what}: r{r}");
        }
        assert_eq!(a.cpu.pc(), b.cpu.pc(), "{what}: pc");
        assert_eq!(a.cpu.stats, b.cpu.stats, "{what}: cpu stats");
        assert_eq!(a.cpu.icache.stats, b.cpu.icache.stats, "{what}: icache");
        assert_eq!(a.cpu.dcache.stats, b.cpu.dcache.stats, "{what}: dcache");
        assert_eq!(
            (a.cpu.interrupts_enabled(), a.cpu.irq_line()),
            (b.cpu.interrupts_enabled(), b.cpu.irq_line()),
            "{what}: interrupt state"
        );
        let buses = |m: &Machine| {
            format!(
                "{:?} {:?} {:?}",
                m.platform.plb, m.platform.opb, m.platform.intc
            )
        };
        assert_eq!(buses(a), buses(b), "{what}: buses and INTC");
    }

    #[test]
    fn blocks_match_steps_through_dma_and_interrupts() {
        let handler = assemble(HANDLER, 0x500).unwrap();
        let prog = assemble(DMA, 0x1000).unwrap();
        let boot = || {
            let mut m = build_system(SystemKind::Bit64);
            crate::measure::bind_echo(&mut m);
            m.load_program(&handler);
            m.load_program(&prog);
            m
        };
        let (mut a, mut b) = (boot(), boot());
        for (entry, arg) in [("poll_dma", 512), ("irq_dma", 512), ("count", 300)] {
            a.call(prog.label(entry), &[arg], 1_000_000);
            step_call(&mut b, prog.label(entry), &[arg]);
            assert_same(&a, &b, entry);
        }
        assert_eq!(a.cpu.stats.interrupts, 1, "irq_dma took its interrupt");

        // A DMA that completes while the machine idles raises the level
        // but not the CPU's sampled line; with MSR[EE] set, a step runs
        // one instruction before taking that interrupt, and so must a
        // call.
        for m in [&mut a, &mut b] {
            m.call(prog.label("arm"), &[256], 1_000);
            assert!(m.platform.dma_busy(), "the DMA outlives the program");
            m.idle_until(m.now() + SimTime::from_us(100));
            assert!(!m.platform.dma_busy());
            assert!(m.cpu.interrupts_enabled() && !m.cpu.irq_line());
            assert!(m.platform.irq_level(), "the line is stale");
        }
        assert_same(&a, &b, "arm");
        a.call(prog.label("count"), &[50], 10_000);
        step_call(&mut b, prog.label("count"), &[50]);
        assert_same(&a, &b, "count after a stale interrupt");
        assert_eq!(a.cpu.stats.interrupts, 2);
        assert_eq!(a.cpu.reg(21), 0, "taken after the loop's first instruction");
    }

    #[test]
    fn extmem_access_slower_on_32bit_system() {
        // The same uncached-ish pointer-chase runs measurably slower on the
        // 32-bit system (bridge + slower bus + slower CPU).
        let src = r#"
        entry:
            lis r4, 0x2000
            li  r5, 2000
        loop:
            lwz r6, 0(r4)
            dcbi (r4)          # force a fresh line fill every time
            addi r5, r5, -1
            cmpwi r5, 0
            bne loop
            halt
        "#;
        let mut t = Vec::new();
        for kind in [SystemKind::Bit32, SystemKind::Bit64] {
            let mut m = build_system(kind);
            let prog = assemble(src, 0x1000).unwrap();
            m.load_program(&prog);
            let (elapsed, _) = m.call(prog.label("entry"), &[], 1_000_000);
            t.push(elapsed);
        }
        assert!(
            t[0] > t[1] * 2,
            "32-bit system should be >2x slower: {} vs {}",
            t[0],
            t[1]
        );
    }
}
