//! Uniform request/response interface over the five evaluation kernels.
//!
//! The run-time service (`rtr-service`) multiplexes heterogeneous client
//! work onto one dynamic region. This module gives it a common currency:
//!
//! * [`Kernel`] — which hardware module / software routine a request needs;
//! * [`Request`] / [`Response`] — a work item and its verified result;
//! * [`Driver`] — executes requests on a [`Machine`] in either software or
//!   hardware form **without** re-downloading the driver program for every
//!   item (each program lives at its own OCM slot and is JTAG-loaded once,
//!   like a resident firmware image — per-request reloads would charge
//!   ~0.8 ms/KB of JTAG time and drown the differences being measured);
//! * [`compare`] — one request timed in software and in hardware on fresh
//!   machines: a row of the paper's speedup tables;
//! * [`component_for`] / [`factory_for`] — what the `ModuleManager` needs
//!   to register each kernel's dynamic module on a given system.

use crate::harness::{self, Comparison, DST, SRC_A, SRC_B};
use crate::imaging::{self, ImagingModule, Task};
use crate::jenkins::{self, JenkinsModule};
use crate::patmatch::{self, BinaryImage, PatMatchModule};
use crate::sha1::{self, Sha1Module};
use ppc405_sim::{assemble, Program};
use rtr_core::machine::Machine;
use rtr_core::manager::ModuleFactory;
use rtr_core::{build_system, SystemKind};
use std::sync::Arc;
use vp2_bitstream::Component;
use vp2_netlist::components as c;
use vp2_netlist::graph::Netlist;
use vp2_sim::{SimTime, SplitMix64};

/// Which kernel a request exercises. Each value owns one dynamic module
/// (they are mutually exclusive tenants of the region) and one software
/// fallback routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// SHA-1 (64-bit system only in hardware — the unrolled core does not
    /// fit the 32-bit system's region).
    Sha1,
    /// Jenkins lookup2 hash.
    Jenkins,
    /// 8×8 bilevel pattern matching.
    PatMatch,
    /// Brightness adjustment.
    Brightness,
    /// Additive blending.
    Blend,
    /// Fade effect.
    Fade,
}

impl Kernel {
    /// Every kernel, in a fixed order (queue and metrics indexing).
    pub const ALL: [Kernel; 6] = [
        Kernel::Sha1,
        Kernel::Jenkins,
        Kernel::PatMatch,
        Kernel::Brightness,
        Kernel::Blend,
        Kernel::Fade,
    ];

    /// The registered module name (equals the netlist/component name).
    pub fn module_name(self) -> &'static str {
        match self {
            Kernel::Sha1 => "sha1-unroll8",
            Kernel::Jenkins => "jenkins-lookup2",
            Kernel::PatMatch => "patmatch8x8",
            Kernel::Brightness => "img-brightness",
            Kernel::Blend => "img-blend",
            Kernel::Fade => "img-fade",
        }
    }

    /// The imaging task, for the three imaging kernels.
    pub fn imaging_task(self) -> Option<Task> {
        match self {
            Kernel::Brightness => Some(Task::Brightness),
            Kernel::Blend => Some(Task::Blend),
            Kernel::Fade => Some(Task::Fade),
            _ => None,
        }
    }

    /// Fixed queue/metrics index.
    pub fn index(self) -> usize {
        Kernel::ALL.iter().position(|&k| k == self).expect("in ALL")
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.module_name())
    }
}

/// The work payload of one client request.
#[derive(Debug, Clone)]
pub enum Work {
    /// Hash a message with SHA-1.
    Sha1 {
        /// The message.
        msg: Vec<u8>,
    },
    /// Hash a key with lookup2.
    Jenkins {
        /// The key.
        key: Vec<u8>,
        /// Initial value.
        initval: u32,
    },
    /// Match an 8×8 pattern over a bilevel image.
    PatMatch {
        /// The image (width a multiple of 32, ≥ 8 rows).
        image: BinaryImage,
        /// The pattern, one byte per row.
        pattern: [u8; 8],
    },
    /// One of the three imaging tasks.
    Imaging {
        /// Which task.
        task: Task,
        /// Source image A (length a multiple of 64).
        a: Vec<u8>,
        /// Source image B (blend/fade only).
        b: Vec<u8>,
        /// Brightness constant or fade factor.
        param: i32,
    },
}

/// Scheduling class of a request. The order is the scheduling order:
/// `High` outranks `Normal` outranks `Low` (derived `Ord` follows the
/// declaration order, so `High < Normal` sorts first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Served ahead of everything else at the same decision point.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Yielding to both other classes.
    Low,
}

impl Priority {
    /// Stable lowercase name (JSON, traces).
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Per-request scheduling metadata: the lane the request rides in.
///
/// The default lane (`Normal` priority, no deadline) is what every
/// request carried before lanes existed, so schedulers that ignore lanes
/// behave exactly as they always have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Lane {
    /// Scheduling class across and within kernel queues.
    pub priority: Priority,
    /// Latency budget measured from the request's arrival: the request
    /// wants to complete within this much simulated time. `None` means
    /// no deadline. Budgets are relative so a lane survives the stream →
    /// machine-clock mapping of the cluster admission layer unchanged.
    pub deadline: Option<SimTime>,
}

impl Lane {
    /// The absolute instant this lane's deadline expires for a request
    /// that arrived at `arrival` (`None` when the lane has no deadline).
    pub fn expires_at(&self, arrival: SimTime) -> Option<SimTime> {
        self.deadline.map(|budget| arrival + budget)
    }
}

/// One unit of client work plus the lane it is scheduled in.
#[derive(Debug, Clone)]
pub struct Request {
    /// What to compute.
    pub work: Work,
    /// How urgently to schedule it.
    pub lane: Lane,
}

impl From<Work> for Request {
    fn from(work: Work) -> Request {
        Request {
            work,
            lane: Lane::default(),
        }
    }
}

/// A request's verified result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// SHA-1 digest.
    Digest([u32; 5]),
    /// lookup2 hash.
    Hash(u32),
    /// Per-window match counts.
    Counts(Vec<Vec<u8>>),
    /// Processed image.
    Image(Vec<u8>),
}

impl Work {
    /// The kernel this work needs.
    pub fn kernel(&self) -> Kernel {
        match self {
            Work::Sha1 { .. } => Kernel::Sha1,
            Work::Jenkins { .. } => Kernel::Jenkins,
            Work::PatMatch { .. } => Kernel::PatMatch,
            Work::Imaging { task, .. } => match task {
                Task::Brightness => Kernel::Brightness,
                Task::Blend => Kernel::Blend,
                Task::Fade => Kernel::Fade,
            },
        }
    }

    /// Payload size in bytes (the cost model's per-item scale variable).
    pub fn payload_bytes(&self) -> usize {
        match self {
            Work::Sha1 { msg } => msg.len(),
            Work::Jenkins { key, .. } => key.len(),
            Work::PatMatch { image, .. } => image.data.len() * 4,
            Work::Imaging { a, .. } => a.len(),
        }
    }

    /// Ground-truth result from the Rust reference implementations.
    pub fn reference(&self) -> Response {
        match self {
            Work::Sha1 { msg } => Response::Digest(sha1::sha1_reference(msg)),
            Work::Jenkins { key, initval } => {
                Response::Hash(jenkins::hash_reference(key, *initval))
            }
            Work::PatMatch { image, pattern } => {
                Response::Counts(patmatch::match_counts_reference(image, pattern))
            }
            Work::Imaging { task, a, b, param } => {
                Response::Image(imaging::reference_image(*task, a, b, *param))
            }
        }
    }
}

impl Request {
    /// The kernel this request needs.
    pub fn kernel(&self) -> Kernel {
        self.work.kernel()
    }

    /// Payload size in bytes (the cost model's per-item scale variable).
    pub fn payload_bytes(&self) -> usize {
        self.work.payload_bytes()
    }

    /// Ground-truth result from the Rust reference implementations.
    pub fn reference(&self) -> Response {
        self.work.reference()
    }

    /// Moves the request into the given priority class.
    pub fn with_priority(mut self, priority: Priority) -> Request {
        self.lane.priority = priority;
        self
    }

    /// Attaches a latency budget measured from the request's arrival.
    pub fn with_deadline(mut self, budget: SimTime) -> Request {
        self.lane.deadline = Some(budget);
        self
    }

    /// Deterministic synthetic request of roughly `payload` bytes — the
    /// traffic generator's item builder, riding the default lane. Payloads
    /// are rounded to each kernel's granularity (imaging works in 64-pixel
    /// rows, pattern matching in 64×N images).
    pub fn synthetic(kernel: Kernel, payload: usize, rng: &mut SplitMix64) -> Request {
        let work = match kernel {
            Kernel::Sha1 => {
                let mut msg = vec![0u8; payload.max(1)];
                rng.fill_bytes(&mut msg);
                Work::Sha1 { msg }
            }
            Kernel::Jenkins => {
                let mut key = vec![0u8; payload.max(1)];
                rng.fill_bytes(&mut key);
                Work::Jenkins {
                    key,
                    initval: rng.next_u32(),
                }
            }
            Kernel::PatMatch => {
                // width 64 → 8 bytes per row; at least 8 rows.
                let rows = (payload / 8).max(8);
                let image = BinaryImage::random(64, rows, rng.next_u64());
                let mut pattern = [0u8; 8];
                rng.fill_bytes(&mut pattern);
                Work::PatMatch { image, pattern }
            }
            Kernel::Brightness | Kernel::Blend | Kernel::Fade => {
                let task = kernel.imaging_task().expect("imaging kernel");
                let n = (payload.max(64) / 64) * 64;
                let mut a = vec![0u8; n];
                rng.fill_bytes(&mut a);
                let mut b = vec![0u8; if task.two_sources() { n } else { 0 }];
                rng.fill_bytes(&mut b);
                let param = match task {
                    Task::Brightness => i32::from(rng.next_u32() as u8) - 128,
                    Task::Blend => 0,
                    Task::Fade => (rng.next_u32() % 257) as i32,
                };
                Work::Imaging { task, a, b, param }
            }
        };
        Request::from(work)
    }
}

// ---------------------------------------------------------------------
// Module registration helpers.
// ---------------------------------------------------------------------

/// Carrier netlist for the Jenkins core's configuration image. The hash
/// logic itself is modelled behaviourally (like the imaging cores' wide
/// variants); the carrier provides a placeable, linkable component so the
/// configuration plane — BitLinker, ICAP transfer, readback verification —
/// is exercised for real. Complete partial configurations cover the whole
/// region, so the carrier's reconfiguration cost equals any other module's.
fn jenkins_carrier_netlist() -> Netlist {
    let mut nl = Netlist::new("jenkins-lookup2");
    let din = nl.input_bus("din", 32);
    let wr = nl.input("wr", 0);
    let q = c::register(&mut nl, &din, Some(wr));
    nl.output_bus("dout", &q);
    nl
}

/// Builds the registrable component for a kernel on a system, or `None`
/// when the kernel has no hardware form there (SHA-1's unrolled core does
/// not fit the 32-bit system's 308-CLB region — the paper's table-11 note).
pub fn component_for(kernel: Kernel, kind: SystemKind) -> Option<Component> {
    component_for_slot(kernel, kind, kind.region().width())
}

/// Like [`component_for`], but placed into a `slot_width`-column
/// footprint (a multi-module sub-slot of the region) instead of the full
/// region width. `None` when the kernel has no hardware form on the
/// system *or* its netlist does not fit the slot — the caller keeps the
/// kernel on the software path in that case.
pub fn component_for_slot(kernel: Kernel, kind: SystemKind, slot_width: u16) -> Option<Component> {
    if kernel == Kernel::Sha1 && kind == SystemKind::Bit32 {
        return None;
    }
    patmatch::try_build_component(
        netlist_for(kernel),
        kind.dock_width(),
        slot_width,
        kind.region().height(),
    )
}

/// The netlist behind a kernel's configuration image.
fn netlist_for(kernel: Kernel) -> Netlist {
    match kernel {
        Kernel::Sha1 => sha1::sha1_netlist(),
        Kernel::Jenkins => jenkins_carrier_netlist(),
        Kernel::PatMatch => patmatch::patmatch_netlist(),
        Kernel::Brightness | Kernel::Blend | Kernel::Fade => {
            imaging::imaging_netlist(kernel.imaging_task().expect("imaging kernel"))
        }
    }
}

/// Behavioural-model factory for a kernel (what `ModuleManager::register`
/// binds after a verified load).
pub fn factory_for(kernel: Kernel) -> ModuleFactory {
    match kernel {
        Kernel::Sha1 => Box::new(|| Box::new(Sha1Module::new())),
        Kernel::Jenkins => Box::new(|| Box::new(JenkinsModule::new())),
        Kernel::PatMatch => Box::new(|| Box::new(PatMatchModule::new())),
        Kernel::Brightness | Kernel::Blend | Kernel::Fade => {
            let task = kernel.imaging_task().expect("imaging kernel");
            Box::new(move || Box::new(ImagingModule::new(task)))
        }
    }
}

// ---------------------------------------------------------------------
// The program-cached driver.
// ---------------------------------------------------------------------

/// Driver-program identifiers. Each program is assembled once at its own
/// OCM slot, so all of them stay resident simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prog {
    Sha1Sw,
    Sha1Hw,
    JenkinsSw,
    JenkinsHw,
    PatMatchSw,
    PatMatchHw,
    BrightSw,
    BlendSw,
    FadeSw,
    BrightHw,
    CombineHw,
}

const PROGS: [(Prog, &str); 11] = [
    (Prog::Sha1Sw, sha1::SW_ASM),
    (Prog::Sha1Hw, sha1::HW_ASM),
    (Prog::JenkinsSw, jenkins::SW_ASM),
    (Prog::JenkinsHw, jenkins::HW_ASM),
    (Prog::PatMatchSw, patmatch::SW_ASM),
    (Prog::PatMatchHw, patmatch::HW_ASM),
    (Prog::BrightSw, imaging::SW_BRIGHT),
    (Prog::BlendSw, imaging::SW_BLEND),
    (Prog::FadeSw, imaging::SW_FADE),
    (Prog::BrightHw, imaging::HW_BRIGHT),
    (Prog::CombineHw, imaging::HW_COMBINE),
];

/// 4 KB per program slot: slots span `0x1000..0xC000`, clear of the SHA-1
/// software scratch at `0x10000..0x12000`.
const SLOT_BYTES: u32 = 0x1000;

/// Executes requests on one machine, keeping every driver program resident
/// in OCM (one JTAG download per program for the machine's lifetime).
///
/// Use one `Driver` per machine: it remembers which programs it has
/// downloaded, not which machine it downloaded them to, so a driver moved
/// to a second machine would call programs that machine never received.
pub struct Driver {
    programs: Arc<[Program]>,
    downloaded: [bool; PROGS.len()],
}

impl Default for Driver {
    fn default() -> Self {
        Self::new()
    }
}

impl Driver {
    /// Assembles all driver programs (host-side; no simulated cost).
    pub fn new() -> Self {
        let programs = PROGS
            .iter()
            .enumerate()
            .map(|(i, (id, src))| {
                let base = harness::PROG_BASE + i as u32 * SLOT_BYTES;
                let prog = assemble(src, base).unwrap_or_else(|e| panic!("{id:?}: asm error: {e}"));
                assert!(
                    prog.byte_len() as u32 <= SLOT_BYTES,
                    "{id:?} overflows its {SLOT_BYTES}-byte slot"
                );
                prog
            })
            .collect();
        Driver {
            programs,
            downloaded: [false; PROGS.len()],
        }
    }

    /// A driver for another machine over the same assembled programs,
    /// with nothing downloaded yet: its first use of each program pays
    /// the JTAG download exactly as a [`Driver::new`] would.
    pub fn fresh(&self) -> Self {
        Driver {
            programs: Arc::clone(&self.programs),
            downloaded: [false; PROGS.len()],
        }
    }

    /// Downloads a program into its slot if absent; returns its entry point.
    /// The JTAG transfer charges simulated time on first use only.
    fn ensure(&mut self, m: &mut Machine, id: Prog) -> u32 {
        let i = PROGS.iter().position(|(p, _)| *p == id).expect("in PROGS");
        if !self.downloaded[i] {
            m.load_program(&self.programs[i]);
            self.downloaded[i] = true;
        }
        self.programs[i].label("entry")
    }

    /// Downloads every driver program now, charging all JTAG time up
    /// front — a service boots with its code image resident rather than
    /// paying the download inside a client's first request.
    pub fn preload_all(&mut self, m: &mut Machine) {
        for &(id, _) in &PROGS {
            self.ensure(m, id);
        }
    }

    /// Runs a request in software on the PPC405; returns `(time, result)`.
    /// Only the `call` is timed (input staging is an observability poke).
    pub fn run_sw(&mut self, m: &mut Machine, req: &Request) -> (SimTime, Response) {
        match &req.work {
            Work::Sha1 { msg } => {
                let entry = self.ensure(m, Prog::Sha1Sw);
                harness::store_bytes(m, SRC_A, msg);
                let max = (msg.len() as u64 / 64 + 3) * 40_000 + 200_000;
                let (t, _) = m.call(entry, &[SRC_A, msg.len() as u32, DST], max);
                let w = harness::load_words(m, DST, 5);
                (t, Response::Digest([w[0], w[1], w[2], w[3], w[4]]))
            }
            Work::Jenkins { key, initval } => {
                let entry = self.ensure(m, Prog::JenkinsSw);
                harness::store_bytes(m, SRC_A, key);
                let max = key.len() as u64 * 200 + 100_000;
                let (t, h) = m.call(entry, &[SRC_A, key.len() as u32, *initval], max);
                (t, Response::Hash(h))
            }
            Work::PatMatch { image, pattern } => {
                let entry = self.ensure(m, Prog::PatMatchSw);
                harness::store_words(m, SRC_A, &image.data);
                harness::store_bytes(m, SRC_B, pattern);
                let (w, h) = (image.width as u32, image.height as u32);
                let max = u64::from(w) * u64::from(h) * 3000 + 100_000;
                let (t, _) = m.call(entry, &[w, h, SRC_A, SRC_B, DST], max);
                (t, Response::Counts(load_counts(m, image)))
            }
            Work::Imaging { task, a, b, param } => {
                let n = a.len() as u32;
                assert_eq!(n % 64, 0, "image sizes are multiples of 64 pixels");
                harness::store_bytes(m, SRC_A, a);
                if task.two_sources() {
                    harness::store_bytes(m, SRC_B, b);
                }
                let (w, h) = (64u32, n / 64);
                let max = u64::from(n) * 80 + 100_000;
                let (t, _) = match task {
                    Task::Brightness => {
                        let entry = self.ensure(m, Prog::BrightSw);
                        m.call(entry, &[w, h, SRC_A, DST, *param as u32], max)
                    }
                    Task::Blend => {
                        let entry = self.ensure(m, Prog::BlendSw);
                        m.call(entry, &[w, h, SRC_A, SRC_B, DST], max)
                    }
                    Task::Fade => {
                        let entry = self.ensure(m, Prog::FadeSw);
                        m.call(entry, &[w, h, SRC_A, SRC_B, DST, *param as u32], max)
                    }
                };
                (t, Response::Image(harness::load_bytes(m, DST, a.len())))
            }
        }
    }

    /// Runs a request against the hardware module **currently resident** in
    /// the dynamic region; returns `(time, result)`. The caller (the
    /// service's scheduler, via `ModuleManager::load`) is responsible for
    /// having configured the right module — this driver does not bind
    /// models behind the configuration plane's back.
    pub fn run_hw(&mut self, m: &mut Machine, req: &Request) -> (SimTime, Response) {
        match &req.work {
            Work::Sha1 { msg } => {
                let entry = self.ensure(m, Prog::Sha1Hw);
                harness::store_bytes(m, SRC_A, msg);
                let max = (msg.len() as u64 / 64 + 3) * 10_000 + 200_000;
                let (t, _) = m.call(entry, &[SRC_A, msg.len() as u32, DST], max);
                let w = harness::load_words(m, DST, 5);
                (t, Response::Digest([w[0], w[1], w[2], w[3], w[4]]))
            }
            Work::Jenkins { key, initval } => {
                let entry = self.ensure(m, Prog::JenkinsHw);
                let blocks = key.len() / 12;
                let padded_len = (blocks * 3 + 3) * 4;
                let mut padded = key.clone();
                padded.resize(padded_len.max(key.len()), 0);
                harness::store_bytes(m, SRC_A, &padded);
                let max = key.len() as u64 * 60 + 100_000;
                let (t, h) = m.call(entry, &[SRC_A, key.len() as u32, *initval], max);
                (t, Response::Hash(h))
            }
            Work::PatMatch { image, pattern } => {
                let entry = self.ensure(m, Prog::PatMatchHw);
                harness::store_words(m, SRC_A, &image.data);
                harness::store_bytes(m, SRC_B, pattern);
                let bands = (image.height - 7) as u32;
                let blocks = (image.width / 32) as u32;
                let max = u64::from(bands) * u64::from(blocks + 2) * 400 + 100_000;
                let (t, _) = m.call(entry, &[bands, blocks, SRC_A, SRC_B, DST], max);
                (t, Response::Counts(unpack_counts(m, image, bands, blocks)))
            }
            Work::Imaging { task, a, b, param } => {
                let n = a.len() as u32;
                harness::store_bytes(m, SRC_A, a);
                if task.two_sources() {
                    harness::store_bytes(m, SRC_B, b);
                }
                let p9 = (*param as u32) & 0x1FF;
                let max = u64::from(n) * 80 + 100_000;
                let (t, _) = match task {
                    Task::Brightness => {
                        let entry = self.ensure(m, Prog::BrightHw);
                        m.call(entry, &[n / 4, SRC_A, DST, p9], max)
                    }
                    Task::Blend | Task::Fade => {
                        let entry = self.ensure(m, Prog::CombineHw);
                        m.call(entry, &[n / 2, SRC_A, SRC_B, DST, p9], max)
                    }
                };
                (t, Response::Image(harness::load_bytes(m, DST, a.len())))
            }
        }
    }
}

/// Times `req` both ways on `kind`, as every speedup table of the paper
/// does: software on one fresh machine, hardware on a second fresh machine
/// with the kernel's behavioural module bound to the dock. Each machine
/// gets its own [`Driver`], so both times include a cold program download
/// and I-cache.
///
/// # Panics
/// Panics if either result differs from [`Request::reference`].
pub fn compare(kind: SystemKind, req: &Request) -> Comparison {
    let kernel = req.kernel();
    let want = req.reference();
    let mut m = build_system(kind);
    let (sw, got) = Driver::new().run_sw(&mut m, req);
    assert_eq!(got, want, "software {kernel} result mismatch on {kind:?}");
    let mut m = build_system(kind);
    harness::bind(&mut m, factory_for(kernel)());
    let (hw, got) = Driver::new().run_hw(&mut m, req);
    assert_eq!(got, want, "hardware {kernel} result mismatch on {kind:?}");
    Comparison {
        sw,
        hw,
        prep: SimTime::ZERO,
    }
}

/// Reads the software pattern-match result grid from `DST`.
fn load_counts(m: &mut Machine, image: &BinaryImage) -> Vec<Vec<u8>> {
    let out = harness::load_bytes(m, DST, (image.width - 7) * (image.height - 7));
    out.chunks(image.width - 7).map(<[u8]>::to_vec).collect()
}

/// Unpacks the hardware pattern-match result stream from `DST`.
fn unpack_counts(m: &mut Machine, image: &BinaryImage, bands: u32, blocks: u32) -> Vec<Vec<u8>> {
    let words = harness::load_words(m, DST, bands as usize * blocks as usize * 8);
    let mut counts = vec![vec![0u8; image.width - 7]; bands as usize];
    let mut it = words.iter();
    for band in &mut counts {
        for b in 0..blocks as usize {
            for w in 0..8 {
                let word = *it.next().expect("exact count");
                for k in 0..4 {
                    let x = 32 * b + 4 * w + k;
                    if x < band.len() {
                        band[x] = ((word >> (24 - 8 * k)) & 0xFF) as u8;
                    }
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `req` on `kind` in software, and in hardware where the kernel
    /// has a hardware form there, checking both against the reference.
    fn check_both_paths(kind: SystemKind, req: &Request) {
        let hw = !(req.kernel() == Kernel::Sha1 && kind == SystemKind::Bit32);
        if hw {
            let c = compare(kind, req);
            assert!(c.sw > SimTime::ZERO && c.hw > SimTime::ZERO);
        } else {
            let mut m = build_system(kind);
            let (t_sw, got) = Driver::new().run_sw(&mut m, req);
            assert_eq!(got, req.reference(), "sw {} on {kind:?}", req.kernel());
            assert!(t_sw > SimTime::ZERO);
        }
    }

    #[test]
    fn every_kernel_round_trips_both_paths() {
        let mut rng = SplitMix64::new(0x5EA1_CE01);
        let mut reqs: Vec<Request> = Kernel::ALL
            .iter()
            .map(|&kernel| Request::synthetic(kernel, 256, &mut rng))
            .collect();
        for (req, kernel) in reqs.iter().zip(Kernel::ALL) {
            assert_eq!(req.kernel(), kernel);
        }
        // Odd sizes: a Jenkins tail, a sub-block SHA-1 message, a single
        // 32-column patmatch block, and one- and two-row images.
        for (len, seed, initval) in [(53, 5, 99), (100, 6, 1)] {
            let mut key = vec![0u8; len];
            SplitMix64::new(seed).fill_bytes(&mut key);
            reqs.push(Work::Jenkins { key, initval }.into());
        }
        let msg = b"The quick brown fox jumps over the lazy dog".to_vec();
        reqs.push(Work::Sha1 { msg }.into());
        for (w, h, seed) in [(32, 10, 7), (64, 12, 9)] {
            let image = BinaryImage::random(w, h, seed);
            let pattern = [0b1010_1010, 0xFF, 0x00, 0x81, 0x42, 0x24, 0x18, 0x5A];
            reqs.push(Work::PatMatch { image, pattern }.into());
        }
        for n in [64, 128] {
            for task in [Task::Brightness, Task::Blend, Task::Fade] {
                let (a, b, param) = imaging::paper_inputs(task, n, n as u64);
                reqs.push(Work::Imaging { task, a, b, param }.into());
            }
        }
        for req in &reqs {
            check_both_paths(SystemKind::Bit32, req);
            check_both_paths(SystemKind::Bit64, req);
        }
    }

    #[test]
    fn program_cache_charges_jtag_once() {
        // The JTAG download is charged to the machine clock by
        // `load_program`, ahead of the timed call — so measure wall
        // (machine-clock) deltas around whole run_sw invocations.
        let mut d = Driver::new();
        let mut m = build_system(SystemKind::Bit32);
        let mut rng = SplitMix64::new(7);
        let req = Request::synthetic(Kernel::Jenkins, 120, &mut rng);
        let wall = |m: &mut Machine, d: &mut Driver, r: &Request| {
            let before = m.now();
            let (_, got) = d.run_sw(m, r);
            assert_eq!(got, r.reference());
            m.now() - before
        };
        let first = wall(&mut m, &mut d, &req);
        let second = wall(&mut m, &mut d, &req);
        // First run pays the ~hundreds-of-µs JTAG download on top of the
        // ~10 µs hash; the cached second run is compute only.
        assert!(
            first.as_ps() > 5 * second.as_ps(),
            "first {first} must be dominated by the download; second {second}"
        );
        // Different kernels use different slots — loading one does not
        // evict another, so no re-download on return.
        let req2 = Request::synthetic(Kernel::Brightness, 128, &mut rng);
        let _ = wall(&mut m, &mut d, &req2);
        let third = wall(&mut m, &mut d, &req);
        assert!(
            third.as_ps() < 2 * second.as_ps(),
            "third {third} vs second {second}"
        );
    }

    #[test]
    fn components_exist_exactly_where_hardware_fits() {
        // SHA-1 is the only kernel without a 32-bit hardware form.
        for kernel in Kernel::ALL {
            assert_eq!(
                component_for(kernel, SystemKind::Bit32).is_some(),
                kernel != Kernel::Sha1,
                "{kernel}"
            );
        }
        // Component names match module names (the manager loads by name).
        let comp = component_for(Kernel::Jenkins, SystemKind::Bit32).unwrap();
        assert_eq!(comp.name, Kernel::Jenkins.module_name());
    }

    #[test]
    fn a_full_width_slot_is_the_whole_region_component() {
        for kind in [SystemKind::Bit32, SystemKind::Bit64] {
            let region = kind.region();
            for kernel in Kernel::ALL {
                let whole = component_for(kernel, kind);
                let slot = component_for_slot(kernel, kind, region.width());
                assert_eq!(whole, slot, "{kernel} on {kind:?}");
                // Where it exists, it is what the panicking builder places.
                if let Some(comp) = whole {
                    let built = patmatch::build_component(
                        netlist_for(kernel),
                        kind.dock_width(),
                        region.width(),
                        region.height(),
                    );
                    assert_eq!(comp, built, "{kernel} on {kind:?}");
                }
            }
        }
    }
}
