//! Run-time module management.
//!
//! The module manager owns the BitLinker, a registry of relocatable
//! components (each paired with a factory for its behavioural model) and
//! the load state of the dynamic region. Loading a module:
//!
//! 1. links a **complete** partial configuration (once per module at
//!    registration, shared through an [`ImageTable`] by every manager
//!    booted with the same table);
//! 2. feeds every bitstream word to the OPB HWICAP over the bus (charging
//!    the real per-word transfer cost) and commits, which applies the
//!    stream to the live configuration memory with IDCODE + CRC checks;
//! 3. verifies by readback that the dynamic region now holds exactly the
//!    expected bits;
//! 4. binds the module's behavioural model to the dock.
//!
//! Step 3 is what makes the behavioural binding honest: the fast model is
//! only attached when the gate-level configuration state is provably the
//! module's own.

use crate::machine::Machine;
use crate::share::OnceTable;
use crate::system::{bitlinker_for, SystemKind};
use coreconnect_sim::map;
use dock::DynamicModule;
use ppc405_sim::mem::MemoryPort;
use rtr_configplane::{
    BitstreamCache, CachedStream, ConfigPlaneConfig, ConfigPlaneStats, Fingerprint, SlotPlan,
    SlotPlanError,
};
use rtr_trace::{EventKind, Tracer};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use vp2_bitstream::{AssembleError, BitLinker, Bitstream, Component};
use vp2_fabric::{ConfigMemory, FrameAddress};
use vp2_sim::SimTime;

/// Factory producing a fresh behavioural model for a module.
pub type ModuleFactory = Box<dyn Fn() -> Box<dyn DynamicModule> + Send>;

/// A linked image: the full slot bitstream plus the expected post-load
/// configuration state.
pub type LinkedImage = (Bitstream, ConfigMemory);

/// Everything that decides a registration's linked images: the system
/// (device, region, dock macros), the sub-slot floorplan (each slot's
/// origin, frames and macro contract), the component and its origin
/// within a slot.
#[derive(PartialEq)]
struct ImageKey {
    kind: SystemKind,
    slot_plan: SlotPlan,
    component: Arc<Component>,
    origin: (u16, u16),
}

/// One registration's images, by the sub-slot they were linked for, or
/// the first linking error when the component fits no slot.
type SlotImages = Result<Vec<(usize, Arc<LinkedImage>)>, AssembleError>;

/// Linked images shared between module managers. A registration looks up
/// its system kind, slot plan, component and origin here and links only on
/// a miss, so managers booted with one table hold one copy of each image. Cloning the table shares it;
/// [`ModuleManager::new`] gives a manager a private one.
#[derive(Clone, Default, Debug)]
pub struct ImageTable(OnceTable<ImageKey, SlotImages>);

impl ImageTable {
    /// An empty table.
    pub fn new() -> Self {
        ImageTable::default()
    }
}

/// A registered dynamic module.
pub struct RegisteredModule {
    /// The placed, validated component (the same allocation its
    /// [`ImageTable`] entry is keyed by).
    pub component: Arc<Component>,
    /// Region-relative origin.
    pub origin: (u16, u16),
    /// Behavioural-model factory.
    pub factory: ModuleFactory,
}

/// Load result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The module was already resident; nothing was transferred.
    AlreadyLoaded,
    /// Multi-module floorplan: the module was still configured in another
    /// sub-slot, so the dock was rebound to it with zero ICAP traffic.
    Activated {
        /// Sub-slot the module resides in.
        slot: usize,
    },
    /// A reconfiguration ran and readback confirms the region state.
    Loaded {
        /// Total time from first HWICAP word to end of ICAP shift,
        /// including any repair passes and retry back-off.
        reconfig_time: SimTime,
        /// Full bitstream length in words (excluding repair patches).
        words: usize,
        /// Frames carried.
        frames: usize,
        /// Frames re-written by targeted repair passes (0 on a clean load).
        repaired_frames: usize,
        /// Full-stream attempts consumed (1 on a clean load).
        attempts: u32,
    },
    /// The retry policy was exhausted without a verified configuration.
    /// The dock is unbound and the region must be treated as scrap; the
    /// caller should fall back to software.
    Degraded {
        /// Full-stream attempts consumed.
        attempts: u32,
    },
}

/// Retry policy for fault-tolerant loads.
///
/// The ladder is: full load → readback-verify → targeted re-write of only
/// the mismatched frames (the differential-bitstream fast path) → full
/// retry with back-off → [`LoadOutcome::Degraded`]. A clean first load
/// touches none of it and costs exactly one verify pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Full-stream attempts before degrading (minimum 1).
    pub max_attempts: u32,
    /// Targeted frame-repair passes per attempt before a full retry.
    pub max_repairs_per_attempt: u32,
    /// Simulated-time back-off before retry `n` (charged `n - 1` times,
    /// so escalating: nothing before the first attempt).
    pub backoff: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            max_repairs_per_attempt: 2,
            backoff: SimTime::from_us(50),
        }
    }
}

/// Background configuration-memory scrubbing policy.
///
/// Scrubbing walks the resident slots' frames in a deterministic
/// round-robin on the machine clock: every `period`, one pass readback-
/// compares the next `frames_per_pass` frames against the linked golden
/// image and repairs any mismatch through the differential
/// partial-bitstream path. The readback occupies the ICAP (scrubbing
/// visibly contends with swaps); repairs additionally charge the normal
/// CPU→OPB→HWICAP feed cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubPolicy {
    /// Machine-clock interval between passes.
    pub period: SimTime,
    /// Frames readback-compared per pass.
    pub frames_per_pass: u32,
}

/// Scrubbing counters, accumulated across the manager's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Scrub passes run.
    pub passes: u64,
    /// Frames readback-compared.
    pub frames_scrubbed: u64,
    /// Frames found mismatched and re-written from the golden image.
    pub frames_repaired: u64,
    /// Targeted repair streams fed.
    pub repairs: u64,
}

/// Per-module load health, accumulated across the manager's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModuleHealth {
    /// Verified (successful) loads.
    pub loads: u64,
    /// Readback-verify passes that found mismatched frames.
    pub verify_failures: u64,
    /// Frames re-written by targeted repair.
    pub repaired_frames: u64,
    /// Loads abandoned after exhausting the retry policy.
    pub degraded: u64,
}

/// Load errors.
#[derive(Debug)]
pub enum LoadError {
    /// Module name not registered.
    Unknown(String),
    /// BitLinker rejected the component.
    Assemble(AssembleError),
    /// The ICAP rejected the stream (CRC/IDCODE/format).
    Icap(String),
    /// Post-load readback did not match the expected state.
    VerifyFailed { differing_frames: usize },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Unknown(n) => write!(f, "unknown module '{n}'"),
            LoadError::Assemble(e) => write!(f, "assembly failed: {e}"),
            LoadError::Icap(e) => write!(f, "ICAP error: {e}"),
            LoadError::VerifyFailed { differing_frames } => {
                write!(
                    f,
                    "readback verification failed: {differing_frames} frames differ"
                )
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Feeds every word to the HWICAP data register over the bus, then hits
/// the control register. This is the paper's configuration path:
/// CPU → OPB → HWICAP → ICAP. The CPU then waits for the ICAP to finish
/// shifting, so the stream's configuration time is the advance of
/// `m.cpu.now()`. Every stream the machine loads goes through here:
/// [`ModuleManager::load`]'s retry ladder, the background scrub repairs,
/// [`ModuleManager::unload`] and the reconfiguration ablation.
pub fn feed(m: &mut Machine, bs: &Bitstream) -> Result<(), LoadError> {
    let mut t = m.cpu.now();
    for &w in &bs.words {
        t += m
            .platform
            .write(t, map::HWICAP_BASE + map::HWICAP_DATA, 4, w);
    }
    t += m
        .platform
        .write(t, map::HWICAP_BASE + map::HWICAP_CTL, 4, 1);
    if m.platform.icap.error() {
        return Err(LoadError::Icap("commit failed".to_string()));
    }
    let done = t.max(m.platform.icap.busy_until());
    m.cpu.advance_time_to(done);
    Ok(())
}

/// The run-time reconfiguration manager.
pub struct ModuleManager {
    kind: SystemKind,
    linker: BitLinker,
    modules: HashMap<String, RegisteredModule>,
    /// Linked images per (module, sub-slot): full slot bitstream plus the
    /// expected post-load state. With the default single-slot floorplan
    /// this is the original per-module configuration cache.
    images: HashMap<(String, usize), Arc<LinkedImage>>,
    /// Where registrations take their images from.
    image_table: ImageTable,
    /// Module the dock is bound to.
    active: Option<String>,
    /// Configuration-plane feature knobs (default: everything off).
    plane: ConfigPlaneConfig,
    /// The region's floorplan (default: one slot covering the region).
    slot_plan: SlotPlan,
    /// Module configured in each sub-slot.
    residents: Vec<Option<String>>,
    /// Last-touch tick per sub-slot (deterministic LRU eviction).
    slot_touched: Vec<u64>,
    /// Monotonic touch counter for `slot_touched`.
    slot_tick: u64,
    /// Transfer-image cache (disabled unless the plane enables it).
    stream_cache: BitstreamCache,
    /// Differential/compression/slot counters.
    stats: ConfigPlaneStats,
    /// Per-module health counters.
    health: HashMap<String, ModuleHealth>,
    /// Retry/repair policy applied by [`ModuleManager::load`].
    pub retry: RetryPolicy,
    /// Background scrubbing policy (`None` — the default — leaves the
    /// load path bit-identical to a build without scrubbing).
    scrub: Option<ScrubPolicy>,
    /// Round-robin cursor into the scrub domain.
    scrub_cursor: usize,
    /// Next pass is due at this instant (zero = arm on the next tick).
    next_scrub: SimTime,
    /// Scrubbing counters.
    scrub_stats: ScrubStats,
    /// Cumulative time spent reconfiguring.
    pub total_reconfig_time: SimTime,
    /// Number of reconfigurations performed.
    pub reconfigurations: u64,
    /// Trace journal handle (disabled by default).
    tracer: Tracer,
}

impl std::fmt::Debug for ModuleManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModuleManager")
            .field("modules", &self.modules.keys().collect::<Vec<_>>())
            .field("active", &self.active)
            .field("residents", &self.residents)
            .finish()
    }
}

impl ModuleManager {
    /// Manager for one of the two systems, linking its own images.
    pub fn new(kind: SystemKind) -> Self {
        ModuleManager::with_images(kind, ImageTable::new())
    }

    /// Manager for one of the two systems whose registrations take their
    /// linked images from `images`, linking only what no manager sharing
    /// the table has linked yet.
    pub fn with_images(kind: SystemKind, images: ImageTable) -> Self {
        let linker = bitlinker_for(kind);
        let slot_plan = SlotPlan::single(linker.region());
        ModuleManager {
            kind,
            linker,
            modules: HashMap::new(),
            images: HashMap::new(),
            image_table: images,
            active: None,
            plane: ConfigPlaneConfig::default(),
            residents: vec![None],
            slot_touched: vec![0],
            slot_tick: 0,
            slot_plan,
            stream_cache: BitstreamCache::new(0),
            stats: ConfigPlaneStats::default(),
            health: HashMap::new(),
            retry: RetryPolicy::default(),
            scrub: None,
            scrub_cursor: 0,
            next_scrub: SimTime::ZERO,
            scrub_stats: ScrubStats::default(),
            total_reconfig_time: SimTime::ZERO,
            reconfigurations: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Configures the plane: cache capacity, differential transfers,
    /// compression and the sub-slot floorplan. Must run before modules are
    /// registered — registration links one image per fitting sub-slot.
    ///
    /// With `ConfigPlaneConfig::default()` every load behaves exactly as
    /// it did before the plane existed.
    pub fn configure_plane(&mut self, plane: ConfigPlaneConfig) -> Result<(), SlotPlanError> {
        assert!(
            self.modules.is_empty(),
            "configure the plane before registering modules"
        );
        let slot_plan = SlotPlan::split(self.linker.region(), &plane.slot_widths)?;
        // Every sub-slot gets its own dock-macro contract (the base set
        // translated to the slot's left edge) so assembly checks accept a
        // component at exactly the slot whose sites its macros land on.
        let dm = self.kind.dock_macros();
        let base = [dm.write, dm.read, dm.strobe];
        for slot in slot_plan.slots.iter().skip(1) {
            self.linker
                .add_expected_macros(slot.translate_macros(&base));
        }
        self.residents = vec![None; slot_plan.len()];
        self.slot_touched = vec![0; slot_plan.len()];
        self.stream_cache = BitstreamCache::new(plane.cache_capacity);
        self.slot_plan = slot_plan;
        self.plane = plane;
        Ok(())
    }

    /// The active plane configuration.
    pub fn plane(&self) -> &ConfigPlaneConfig {
        &self.plane
    }

    /// The region's floorplan.
    pub fn slot_plan(&self) -> &SlotPlan {
        &self.slot_plan
    }

    /// Module configured in each sub-slot (index = slot).
    pub fn residents(&self) -> Vec<Option<&str>> {
        self.residents.iter().map(Option::as_deref).collect()
    }

    /// Accumulated configuration-plane counters (cache hits/misses/
    /// evictions folded in from the stream cache).
    pub fn plane_stats(&self) -> ConfigPlaneStats {
        ConfigPlaneStats {
            cache_hits: self.stream_cache.hits(),
            cache_misses: self.stream_cache.misses(),
            cache_evictions: self.stream_cache.evictions(),
            ..self.stats
        }
    }

    /// Installs a tracer handle; loads then journal the whole retry
    /// ladder (swap begin/end, verify failures, repair passes).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs (or clears) the background scrubbing policy. The first
    /// pass runs one period after the next [`ModuleManager::scrub_tick`].
    ///
    /// # Panics
    /// Panics on a zero period or a zero frames-per-pass budget.
    pub fn set_scrub(&mut self, policy: Option<ScrubPolicy>) {
        if let Some(p) = &policy {
            assert!(!p.period.is_zero(), "ScrubPolicy period must be nonzero");
            assert!(
                p.frames_per_pass > 0,
                "ScrubPolicy frames_per_pass must be >= 1"
            );
        }
        self.scrub = policy;
        self.next_scrub = SimTime::ZERO;
    }

    /// The active scrubbing policy, if any.
    pub fn scrub_policy(&self) -> Option<&ScrubPolicy> {
        self.scrub.as_ref()
    }

    /// Accumulated scrubbing counters.
    pub fn scrub_stats(&self) -> ScrubStats {
        self.scrub_stats
    }

    /// The instant the next scrub pass falls due, once the period has
    /// been armed by a first [`ModuleManager::scrub_tick`]. Idle loops
    /// use this to stop at scrub deadlines instead of sleeping past
    /// them.
    pub fn next_scrub_due(&self) -> Option<SimTime> {
        self.scrub.as_ref()?;
        (!self.next_scrub.is_zero()).then_some(self.next_scrub)
    }

    /// Every frame of the dynamic region in slot-plan order — the frame
    /// order ambient upset plans are installed over.
    pub fn region_frames(&self) -> Vec<FrameAddress> {
        let mut v = Vec::new();
        for slot in &self.slot_plan.slots {
            v.extend_from_slice(&slot.frames);
        }
        v
    }

    /// Runs every scrub pass due at the machine's current instant. A
    /// no-op without a policy; with one, the first tick arms the period
    /// and later ticks catch up one pass per elapsed period, so the pass
    /// schedule depends only on the machine clock — never on how often
    /// the caller ticks.
    pub fn scrub_tick(&mut self, m: &mut Machine) {
        let Some(policy) = self.scrub else {
            return;
        };
        let now = m.cpu.now();
        if self.next_scrub.is_zero() {
            self.next_scrub = now + policy.period;
            return;
        }
        while self.next_scrub <= now {
            self.next_scrub += policy.period;
            self.scrub_pass(m, policy);
        }
    }

    /// One scrub pass: materialize pending ambient upsets, readback-
    /// compare the next `frames_per_pass` resident frames against their
    /// golden images (charging the ICAP for the readback), and re-write
    /// any mismatch with a targeted partial bitstream.
    fn scrub_pass(&mut self, m: &mut Machine, policy: ScrubPolicy) {
        m.materialize_upsets();
        let now = m.cpu.now();
        self.scrub_stats.passes += 1;
        // The scrub domain: frames of every resident slot whose golden
        // image is linked. Empty slots have no expected state to compare
        // against — a fresh load rewrites them anyway.
        let mut domain: Vec<(usize, FrameAddress)> = Vec::new();
        for slot in &self.slot_plan.slots {
            if let Some(name) = &self.residents[slot.index] {
                if self.images.contains_key(&(name.clone(), slot.index)) {
                    domain.extend(slot.frames.iter().map(|&f| (slot.index, f)));
                }
            }
        }
        if domain.is_empty() {
            if self.tracer.on() {
                self.tracer.emit(
                    now,
                    EventKind::ScrubPass {
                        frames: 0,
                        mismatched: 0,
                    },
                );
            }
            return;
        }
        let len = domain.len();
        let take = (policy.frames_per_pass as usize).min(len);
        let start = self.scrub_cursor % len;
        let mut read_words = 0usize;
        let mut mismatched: Vec<(usize, FrameAddress)> = Vec::new();
        for k in 0..take {
            let (slot_idx, addr) = domain[(start + k) % len];
            let name = self.residents[slot_idx]
                .clone()
                .expect("scrub domain only holds resident slots");
            let expected = &self.images[&(name, slot_idx)].1;
            let live = &m.platform.config.frame(addr).words;
            read_words += live.len();
            if live != &expected.frame(addr).words {
                mismatched.push((slot_idx, addr));
            }
        }
        self.scrub_cursor = (start + take) % len;
        // Readback shifts one word per ICAP cycle: the port is busy for
        // the pass, so a swap landing now queues behind it.
        m.platform.icap.occupy(now, read_words);
        self.scrub_stats.frames_scrubbed += take as u64;
        if self.tracer.on() {
            self.tracer.emit(
                now,
                EventKind::ScrubPass {
                    frames: take as u32,
                    mismatched: mismatched.len() as u32,
                },
            );
        }
        if mismatched.is_empty() {
            return;
        }
        let idcode = vp2_bitstream::idcode_for(m.platform.device.kind);
        let slots: BTreeSet<usize> = mismatched.iter().map(|&(s, _)| s).collect();
        for slot_idx in slots {
            let addrs: Vec<FrameAddress> = mismatched
                .iter()
                .filter(|&&(s, _)| s == slot_idx)
                .map(|&(_, a)| a)
                .collect();
            let name = self.residents[slot_idx]
                .clone()
                .expect("scrub domain only holds resident slots");
            let expected = &self.images[&(name, slot_idx)].1;
            let patch = vp2_bitstream::partial_bitstream(expected, &addrs, idcode);
            feed(m, &patch).expect("scrub repair streams are well-formed");
            self.scrub_stats.repairs += 1;
            self.scrub_stats.frames_repaired += addrs.len() as u64;
            if self.tracer.on() {
                self.tracer.emit(
                    m.cpu.now(),
                    EventKind::ScrubRepair {
                        frames: addrs.len() as u32,
                    },
                );
            }
        }
    }

    /// Registers a module, eagerly linking its configuration (so placement
    /// and macro errors surface at registration time, like BitLinker runs
    /// at design time). With a multi-module floorplan one image is linked
    /// per sub-slot the component fits, at that slot's origin; `origin` is
    /// the offset within the slot. A component that fits no slot is
    /// rejected with the first linking error. The images come from the
    /// manager's [`ImageTable`]; only a registration no manager sharing
    /// it has made yet links them.
    pub fn register(
        &mut self,
        component: Component,
        origin: (u16, u16),
        factory: ModuleFactory,
    ) -> Result<(), AssembleError> {
        let component = Arc::new(component);
        let key = ImageKey {
            kind: self.kind,
            slot_plan: self.slot_plan.clone(),
            component: Arc::clone(&component),
            origin,
        };
        let linked = self
            .image_table
            .0
            .get_or_init(key, || self.link_images(&component, origin))?;
        let name = component.name.clone();
        for (slot, image) in linked {
            self.images.insert((name.clone(), slot), image);
        }
        self.modules.insert(
            name,
            RegisteredModule {
                component,
                origin,
                factory,
            },
        );
        Ok(())
    }

    /// Links `component` at `origin` within every sub-slot it fits.
    fn link_images(&self, component: &Component, origin: (u16, u16)) -> SlotImages {
        let idcode = vp2_bitstream::idcode_for(self.linker.device().kind);
        let mut first_err = None;
        let mut linked = Vec::new();
        for slot in &self.slot_plan.slots {
            let slot_origin = (slot.cols.start + origin.0, origin.1);
            match self.linker.expected_state(&[(component, slot_origin)]) {
                Ok(expected) => {
                    let bs = vp2_bitstream::partial_bitstream(&expected, &slot.frames, idcode);
                    linked.push((slot.index, Arc::new((bs, expected))));
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if linked.is_empty() {
            return Err(first_err.expect("a plan always has at least one slot"));
        }
        Ok(linked)
    }

    /// The image `name` was linked to for sub-slot `slot`, if any.
    pub fn linked_image(&self, name: &str, slot: usize) -> Option<&Arc<LinkedImage>> {
        self.images.get(&(name.to_string(), slot))
    }

    /// Registered module names (sorted).
    pub fn module_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.modules.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Currently active (dock-bound) module.
    pub fn loaded(&self) -> Option<&str> {
        self.active.as_deref()
    }

    /// Health counters for a registered module (None until its first load).
    pub fn module_health(&self, name: &str) -> Option<&ModuleHealth> {
        self.health.get(name)
    }

    /// Loads `name` into the dynamic region (no-op if already resident).
    ///
    /// On a readback mismatch the manager climbs a retry ladder instead of
    /// failing: first it re-writes only the mismatched frames with a
    /// targeted partial bitstream (the differential fast path — a handful
    /// of frames instead of the full region), re-verifying after each
    /// pass; if that does not converge it backs off in simulated time and
    /// re-feeds the complete stream; once [`RetryPolicy::max_attempts`] is
    /// spent it returns [`LoadOutcome::Degraded`] with the dock unbound so
    /// the caller can fall back to software. A clean load is untouched by
    /// any of this: one feed, one verify, no back-off.
    pub fn load(&mut self, m: &mut Machine, name: &str) -> Result<LoadOutcome, LoadError> {
        if self.active.as_deref() == Some(name) {
            return Ok(LoadOutcome::AlreadyLoaded);
        }
        let reg = self
            .modules
            .get(name)
            .ok_or_else(|| LoadError::Unknown(name.to_string()))?;

        // Multi-module fast path: the module is still configured in some
        // sub-slot, so making it active is a dock rebind — zero ICAP words.
        if self.slot_plan.is_multi() {
            if let Some(slot) = self
                .residents
                .iter()
                .position(|r| r.as_deref() == Some(name))
            {
                let model = (reg.factory)();
                m.platform.dock.bind(model);
                self.active = Some(name.to_string());
                self.slot_tick += 1;
                self.slot_touched[slot] = self.slot_tick;
                self.stats.activations += 1;
                if self.tracer.on() {
                    self.tracer.emit(
                        m.cpu.now(),
                        EventKind::SlotActivate {
                            module: name.to_string(),
                            slot: slot as u32,
                        },
                    );
                }
                return Ok(LoadOutcome::Activated { slot });
            }
        }

        // Pick a sub-slot among those the module was linked for: an empty
        // one if available, otherwise the least-recently-touched.
        let candidates: Vec<usize> = self
            .slot_plan
            .slots
            .iter()
            .map(|s| s.index)
            .filter(|&i| self.images.contains_key(&(name.to_string(), i)))
            .collect();
        let slot_idx = *candidates
            .iter()
            .find(|&&i| self.residents[i].is_none())
            .or_else(|| candidates.iter().min_by_key(|&&i| self.slot_touched[i]))
            .expect("registration links at least one slot image");
        if let Some(evicted) = self.residents[slot_idx].take() {
            if self.slot_plan.is_multi() {
                self.stats.slot_evictions += 1;
                if self.tracer.on() {
                    self.tracer.emit(
                        m.cpu.now(),
                        EventKind::SlotEvict {
                            module: evicted,
                            slot: slot_idx as u32,
                        },
                    );
                }
            }
        }

        let (full_bs, expected) = &**self
            .images
            .get(&(name.to_string(), slot_idx))
            .expect("candidate slots have images");
        let slot_frames = &self.slot_plan.slots[slot_idx].frames;
        let idcode = vp2_bitstream::idcode_for(m.platform.device.kind);
        let policy = self.retry;
        // The slot's configuration is about to be overwritten; until a
        // verified load completes, nothing is active.
        self.active = None;

        // Ambient upsets that struck while the region sat idle must be in
        // the live state before the cache fingerprint / differential diff
        // reads it — a diff against stale state would under-write.
        m.materialize_upsets();

        // Decide the attempt-1 transfer image: a cached replay, a
        // differential stream against the slot's live frames, or the full
        // image — compressed when that is shorter. `None` = feed the full
        // image borrowed straight from the registry (the pre-plane path).
        let frames_full = slot_frames.len();
        let words_full = full_bs.word_count();
        let mut transfer: Option<Bitstream> = None;
        let mut frames_sent = frames_full;
        let mut compressed = false;
        if self.plane.cache_capacity > 0 || self.plane.differential || self.plane.compress {
            let cache_key = (self.plane.cache_capacity > 0).then(|| {
                // A differential image is only valid against the state it
                // was diffed from, so the key covers the slot's current
                // frame contents along with the module and slot identity.
                let mut fp = Fingerprint::new();
                fp.update_str(name).update_u64(slot_idx as u64);
                for &addr in slot_frames.iter() {
                    for &w in &m.platform.config.frame(addr).words {
                        fp.update_u32(w);
                    }
                }
                fp.finish()
            });
            let cached = cache_key.and_then(|k| self.stream_cache.get(k));
            if self.tracer.on() && cache_key.is_some() {
                self.tracer.emit(
                    m.cpu.now(),
                    EventKind::CacheLookup {
                        module: name.to_string(),
                        hit: cached.is_some(),
                    },
                );
            }
            match cached {
                Some(c) => {
                    frames_sent = c.frames_sent as usize;
                    compressed = c.compressed;
                    transfer = Some(Bitstream { words: c.words });
                }
                None => {
                    let mut words = if self.plane.differential {
                        let changed = m.platform.config.mismatched_frames(expected, slot_frames);
                        frames_sent = changed.len();
                        if changed.is_empty() {
                            Vec::new()
                        } else {
                            vp2_bitstream::partial_bitstream(expected, &changed, idcode).words
                        }
                    } else {
                        full_bs.words.clone()
                    };
                    if self.plane.compress && !words.is_empty() {
                        let packed = vp2_bitstream::compress_words(&words);
                        if packed.len() < words.len() {
                            words = packed;
                            compressed = true;
                        }
                    }
                    if let Some(k) = cache_key {
                        self.stream_cache.insert(
                            k,
                            CachedStream {
                                words: words.clone(),
                                frames_full: frames_full as u32,
                                frames_sent: frames_sent as u32,
                                words_full: words_full as u32,
                                compressed,
                            },
                        );
                    }
                    transfer = Some(Bitstream { words });
                }
            }
        }
        let words_sent = transfer.as_ref().map_or(words_full, Bitstream::word_count);
        if self.plane.enabled() {
            self.stats.frames_full += frames_full as u64;
            self.stats.frames_sent += frames_sent as u64;
            self.stats.words_full += words_full as u64;
            self.stats.words_sent += words_sent as u64;
            self.stats.compressed_streams += u64::from(compressed);
        }
        if self.tracer.on() && self.plane.differential {
            self.tracer.emit(
                m.cpu.now(),
                EventKind::DiffSwap {
                    module: name.to_string(),
                    frames_full: frames_full as u32,
                    frames_sent: frames_sent as u32,
                    words_full: words_full as u32,
                    words_sent: words_sent as u32,
                    compressed,
                },
            );
        }

        let start = m.cpu.now();
        if self.tracer.on() {
            self.tracer.emit(
                start,
                EventKind::SwapBegin {
                    module: name.to_string(),
                },
            );
        }
        let mut repaired_frames = 0usize;
        let mut verify_failures = 0u64;
        let mut attempts = 0u32;
        let mut verified = false;

        'attempt: while attempts < policy.max_attempts.max(1) {
            attempts += 1;
            if attempts > 1 {
                let now = m.cpu.now();
                m.cpu
                    .advance_time_to(now + policy.backoff * u64::from(attempts - 1));
            }
            // Retries always re-feed the complete slot image: a cached or
            // differential stream assumes a live state the failed attempt
            // may have corrupted. A zero-diff first attempt feeds nothing
            // and goes straight to verification.
            let attempt_stream = if attempts == 1 {
                transfer.as_ref().unwrap_or(full_bs)
            } else {
                full_bs
            };
            if !attempt_stream.words.is_empty() {
                feed(m, attempt_stream)?;
            }
            // Upsets landing during the transfer window strike before the
            // readback sees the fabric.
            m.materialize_upsets();
            let mut mismatched = m.platform.config.mismatched_frames(expected, slot_frames);
            if mismatched.is_empty() {
                verified = true;
                break;
            }
            verify_failures += 1;
            self.tracer.emit(
                m.cpu.now(),
                EventKind::VerifyFail {
                    frames: mismatched.len() as u32,
                },
            );
            for _ in 0..policy.max_repairs_per_attempt {
                let patch = vp2_bitstream::partial_bitstream(expected, &mismatched, idcode);
                let patched = mismatched.len();
                feed(m, &patch)?;
                repaired_frames += patched;
                self.tracer.emit(
                    m.cpu.now(),
                    EventKind::Repair {
                        frames: patched as u32,
                    },
                );
                m.materialize_upsets();
                mismatched = m.platform.config.mismatched_frames(expected, slot_frames);
                if mismatched.is_empty() {
                    verified = true;
                    break 'attempt;
                }
                verify_failures += 1;
                self.tracer.emit(
                    m.cpu.now(),
                    EventKind::VerifyFail {
                        frames: mismatched.len() as u32,
                    },
                );
            }
        }

        if self.tracer.on() {
            self.tracer.emit(
                m.cpu.now(),
                EventKind::SwapEnd {
                    module: name.to_string(),
                    frames: slot_frames.len() as u32,
                    words: full_bs.word_count() as u32,
                    attempts,
                    repaired_frames: repaired_frames as u32,
                    verified,
                },
            );
        }

        let health = self.health.entry(name.to_string()).or_default();
        health.verify_failures += verify_failures;
        health.repaired_frames += repaired_frames as u64;

        if !verified {
            // Scrap the region: unbind whatever model was attached so no
            // request ever runs on an unverified configuration.
            m.platform.dock.unbind();
            health.degraded += 1;
            return Ok(LoadOutcome::Degraded { attempts });
        }

        // Bind the behavioural model: readback proved the gate-level state
        // is the module's own.
        health.loads += 1;
        let model = (reg.factory)();
        m.platform.dock.bind(model);
        self.active = Some(name.to_string());
        self.residents[slot_idx] = Some(name.to_string());
        self.slot_tick += 1;
        self.slot_touched[slot_idx] = self.slot_tick;
        let reconfig_time = m.cpu.now() - start;
        self.total_reconfig_time += reconfig_time;
        self.reconfigurations += 1;
        Ok(LoadOutcome::Loaded {
            reconfig_time,
            words: full_bs.word_count(),
            frames: slot_frames.len(),
            repaired_frames,
            attempts,
        })
    }

    /// Unloads the current module (loads the blank configuration);
    /// returns the reconfiguration time. A failed ICAP commit leaves the
    /// module loaded.
    pub fn unload(&mut self, m: &mut Machine) -> Result<SimTime, LoadError> {
        let (bs, _) = self.linker.blank_configuration();
        let start = m.cpu.now();
        feed(m, &bs)?;
        m.platform.dock.unbind();
        self.active = None;
        for r in &mut self.residents {
            *r = None;
        }
        Ok(m.cpu.now() - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Docks;
    use crate::system::build_system;
    use dock::{ModuleOutput, NullModule};
    use vp2_netlist::busmacro::DockMacros;
    use vp2_netlist::components;
    use vp2_netlist::place::AutoPlacer;
    use vp2_netlist::Netlist;

    /// Behavioural stand-in used in tests.
    struct Inverter(u64);
    impl DynamicModule for Inverter {
        fn name(&self) -> &str {
            "inv"
        }
        fn poke(&mut self, data: u64) -> ModuleOutput {
            self.0 = !data & 0xFFFF_FFFF;
            ModuleOutput {
                data: self.0,
                valid: true,
            }
        }
        fn peek(&self) -> u64 {
            self.0
        }
        fn reset(&mut self) {
            self.0 = 0;
        }
    }

    fn inverter_component(kind: SystemKind, tag: u16) -> Component {
        let dm = DockMacros::for_width(kind.dock_width());
        let mut nl = Netlist::new(format!("inv{tag}"));
        let mut placer = AutoPlacer::new();
        let din = dm.write.instantiate_input(&mut nl, &mut placer, "din");
        let wr = dm.strobe.instantiate_input(&mut nl, &mut placer, "wr");
        let inv = components::bus_not(&mut nl, &din);
        let tagbit = nl.constant(tag % 2 == 1);
        let mixed: Vec<_> = inv
            .iter()
            .map(|&b| components::xor2(&mut nl, b, tagbit))
            .collect();
        let q = components::register(&mut nl, &mixed, Some(wr[0]));
        dm.read.instantiate_output(&mut nl, &mut placer, "dout", &q);
        let placement = placer
            .place(&nl, kind.region().width(), kind.region().height())
            .unwrap();
        Component::new(
            format!("inv{tag}"),
            nl,
            placement,
            vec![dm.write, dm.read, dm.strobe],
        )
        .unwrap()
    }

    #[test]
    fn register_load_swap_verify() {
        let kind = SystemKind::Bit32;
        let mut machine = build_system(kind);
        let mut mgr = ModuleManager::new(kind);
        mgr.register(
            inverter_component(kind, 1),
            (0, 0),
            Box::new(|| Box::new(Inverter(0))),
        )
        .unwrap();
        mgr.register(
            inverter_component(kind, 2),
            (0, 0),
            Box::new(|| Box::new(Inverter(0))),
        )
        .unwrap();
        assert_eq!(mgr.module_names(), vec!["inv1", "inv2"]);

        let out = mgr.load(&mut machine, "inv1").unwrap();
        let LoadOutcome::Loaded {
            reconfig_time,
            words,
            frames,
            repaired_frames,
            attempts,
        } = out
        else {
            panic!("expected a real load");
        };
        assert!(
            reconfig_time > SimTime::from_us(100),
            "tens of thousands of words take real time: {reconfig_time}"
        );
        assert!(words > 10_000);
        assert_eq!(frames, 28 * 22 + 3 * 68);
        assert_eq!(repaired_frames, 0, "clean load needs no repairs");
        assert_eq!(attempts, 1);
        assert_eq!(mgr.loaded(), Some("inv1"));
        let h = mgr.module_health("inv1").unwrap();
        assert_eq!((h.loads, h.verify_failures, h.degraded), (1, 0, 0));

        // Idempotent fast path.
        assert_eq!(
            mgr.load(&mut machine, "inv1").unwrap(),
            LoadOutcome::AlreadyLoaded
        );

        // Swap to inv2: full reconfiguration again.
        let out2 = mgr.load(&mut machine, "inv2").unwrap();
        assert!(matches!(out2, LoadOutcome::Loaded { .. }));
        assert_eq!(mgr.loaded(), Some("inv2"));
        assert_eq!(mgr.reconfigurations, 2);
    }

    #[test]
    fn loaded_module_visible_through_dock() {
        let kind = SystemKind::Bit32;
        let mut machine = build_system(kind);
        let mut mgr = ModuleManager::new(kind);
        mgr.register(
            inverter_component(kind, 1),
            (0, 0),
            Box::new(|| Box::new(Inverter(0))),
        )
        .unwrap();
        mgr.load(&mut machine, "inv1").unwrap();
        // Drive the dock through MMIO: write, read back the inverse.
        let t = machine.cpu.now();
        let t2 = t + machine.platform.write(t, map::DOCK_BASE, 4, 0x0000_00FF);
        let (v, _) = machine.platform.read(t2, map::DOCK_BASE, 4);
        assert_eq!(v, 0xFFFF_FF00);
    }

    /// A component latching the dock's write bus unchanged.
    fn latch_component(kind: SystemKind, name: &str) -> Component {
        let dm = DockMacros::for_width(kind.dock_width());
        let mut nl = Netlist::new(name);
        let mut placer = AutoPlacer::new();
        let din = dm.write.instantiate_input(&mut nl, &mut placer, "din");
        let wr = dm.strobe.instantiate_input(&mut nl, &mut placer, "wr");
        let q = components::register(&mut nl, &din, Some(wr[0]));
        dm.read.instantiate_output(&mut nl, &mut placer, "dout", &q);
        let placement = placer
            .place(&nl, kind.region().width(), kind.region().height())
            .unwrap();
        Component::new(name, nl, placement, vec![dm.write, dm.read, dm.strobe]).unwrap()
    }

    #[test]
    fn managers_sharing_a_table_link_each_distinct_registration_once() {
        let kind = SystemKind::Bit32;
        let table = ImageTable::new();
        let register = |component: Component, origin| {
            let mut mgr = ModuleManager::with_images(kind, table.clone());
            let linked = mgr.register(component, origin, Box::new(|| Box::new(Inverter(0))));
            linked.map(|()| mgr.linked_image("inv1", 0).unwrap().clone())
        };
        let first = register(inverter_component(kind, 1), (0, 0)).unwrap();
        let again = register(inverter_component(kind, 1), (0, 0)).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "a repeat registration shares");
        // Same name, other logic: linked anew, exactly as on its own.
        let other = || latch_component(kind, "inv1");
        let shared = register(other(), (0, 0)).unwrap();
        let mut alone = ModuleManager::new(kind);
        alone
            .register(other(), (0, 0), Box::new(|| Box::new(Inverter(0))))
            .unwrap();
        assert_eq!(*shared, **alone.linked_image("inv1", 0).unwrap());
        assert_ne!(shared.0, first.0, "different logic, different image");
        // Same component at an origin it does not fit: the cached link at
        // (0, 0) must not answer for it.
        assert!(matches!(
            register(inverter_component(kind, 1), (1, 0)),
            Err(AssembleError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn unknown_module_rejected() {
        let kind = SystemKind::Bit32;
        let mut machine = build_system(kind);
        let mut mgr = ModuleManager::new(kind);
        assert!(matches!(
            mgr.load(&mut machine, "ghost"),
            Err(LoadError::Unknown(_))
        ));
    }

    #[test]
    fn faulty_load_repairs_mismatched_frames() {
        let kind = SystemKind::Bit32;
        let mut machine = build_system(kind);
        // ~1% of frames arrive corrupted: the full stream lands a few bad
        // frames, the targeted repair pass re-writes just those.
        machine
            .platform
            .icap
            .set_fault_plan(Some(vp2_bitstream::FaultPlan::new(42, 1e-2)));
        let mut mgr = ModuleManager::new(kind);
        mgr.register(
            inverter_component(kind, 1),
            (0, 0),
            Box::new(|| Box::new(Inverter(0))),
        )
        .unwrap();
        let out = mgr.load(&mut machine, "inv1").unwrap();
        let LoadOutcome::Loaded {
            repaired_frames,
            attempts,
            ..
        } = out
        else {
            panic!("1% corruption must be repairable, got {out:?}");
        };
        assert!(repaired_frames > 0, "seed 42 corrupts at least one frame");
        assert!(attempts <= mgr.retry.max_attempts);
        assert_eq!(mgr.loaded(), Some("inv1"));
        let h = mgr.module_health("inv1").unwrap();
        assert_eq!(h.loads, 1);
        assert!(h.verify_failures >= 1);
        assert_eq!(h.repaired_frames, repaired_frames as u64);
        // The bound model really works despite the bumpy load.
        let t = machine.cpu.now();
        let t2 = t + machine.platform.write(t, map::DOCK_BASE, 4, 0x0000_00FF);
        let (v, _) = machine.platform.read(t2, map::DOCK_BASE, 4);
        assert_eq!(v, 0xFFFF_FF00);
    }

    #[test]
    fn hopeless_corruption_degrades_and_unbinds() {
        let kind = SystemKind::Bit32;
        let mut machine = build_system(kind);
        // Every written frame is corrupted: no amount of repair converges.
        machine
            .platform
            .icap
            .set_fault_plan(Some(vp2_bitstream::FaultPlan::new(7, 1.0)));
        let mut mgr = ModuleManager::new(kind);
        mgr.register(
            inverter_component(kind, 1),
            (0, 0),
            Box::new(|| Box::new(Inverter(0))),
        )
        .unwrap();
        let out = mgr.load(&mut machine, "inv1").unwrap();
        assert_eq!(
            out,
            LoadOutcome::Degraded {
                attempts: mgr.retry.max_attempts
            }
        );
        assert_eq!(mgr.loaded(), None, "nothing verified, nothing resident");
        let Docks::Opb(d) = &machine.platform.dock else {
            panic!()
        };
        assert_eq!(d.module_name(), NullModule.name(), "dock must be unbound");
        let h = mgr.module_health("inv1").unwrap();
        assert_eq!(h.degraded, 1);
        assert_eq!(h.loads, 0);
        // Every attempt burned its verify plus all repair passes.
        assert_eq!(
            h.verify_failures,
            u64::from(mgr.retry.max_attempts * (1 + mgr.retry.max_repairs_per_attempt))
        );
    }

    /// A slot-sized inverter (fits a `width`-column sub-slot).
    fn slot_component(kind: SystemKind, tag: u16, width: u16) -> Component {
        let dm = DockMacros::for_width(kind.dock_width());
        let mut nl = Netlist::new(format!("inv{tag}"));
        let mut placer = AutoPlacer::new();
        let din = dm.write.instantiate_input(&mut nl, &mut placer, "din");
        let wr = dm.strobe.instantiate_input(&mut nl, &mut placer, "wr");
        let inv = components::bus_not(&mut nl, &din);
        let tagbit = nl.constant(tag % 2 == 1);
        let mixed: Vec<_> = inv
            .iter()
            .map(|&b| components::xor2(&mut nl, b, tagbit))
            .collect();
        let q = components::register(&mut nl, &mixed, Some(wr[0]));
        dm.read.instantiate_output(&mut nl, &mut placer, "dout", &q);
        let placement = placer.place(&nl, width, kind.region().height()).unwrap();
        Component::new(
            format!("inv{tag}"),
            nl,
            placement,
            vec![dm.write, dm.read, dm.strobe],
        )
        .unwrap()
    }

    fn plane_manager(kind: SystemKind, plane: rtr_configplane::ConfigPlaneConfig) -> ModuleManager {
        let mut mgr = ModuleManager::new(kind);
        mgr.configure_plane(plane).unwrap();
        for tag in [1, 2] {
            mgr.register(
                inverter_component(kind, tag),
                (0, 0),
                Box::new(|| Box::new(Inverter(0))),
            )
            .unwrap();
        }
        mgr
    }

    /// Alternating swap workload; returns (total reconfig time, ICAP words).
    fn alternate_loads(mgr: &mut ModuleManager, machine: &mut Machine, swaps: usize) {
        for i in 0..swaps {
            let name = if i % 2 == 0 { "inv1" } else { "inv2" };
            assert!(matches!(
                mgr.load(machine, name).unwrap(),
                LoadOutcome::Loaded { .. }
            ));
        }
    }

    #[test]
    fn differential_swaps_move_strictly_fewer_words() {
        let kind = SystemKind::Bit32;
        let mut base_machine = build_system(kind);
        let mut base = plane_manager(kind, rtr_configplane::ConfigPlaneConfig::default());
        alternate_loads(&mut base, &mut base_machine, 6);

        let mut diff_machine = build_system(kind);
        let mut diff = plane_manager(
            kind,
            rtr_configplane::ConfigPlaneConfig {
                differential: true,
                compress: true,
                ..rtr_configplane::ConfigPlaneConfig::default()
            },
        );
        alternate_loads(&mut diff, &mut diff_machine, 6);

        assert!(
            diff_machine.platform.icap.words_shifted < base_machine.platform.icap.words_shifted,
            "differential+compressed swaps must move fewer ICAP words: {} vs {}",
            diff_machine.platform.icap.words_shifted,
            base_machine.platform.icap.words_shifted
        );
        assert!(
            diff.total_reconfig_time < base.total_reconfig_time,
            "and therefore take less time: {} vs {}",
            diff.total_reconfig_time,
            base.total_reconfig_time
        );
        let stats = diff.plane_stats();
        assert!(stats.frames_sent < stats.frames_full);
        assert!(stats.words_sent < stats.words_full);
        assert!(stats.diff_ratio() < 1.0);
    }

    #[test]
    fn zero_diff_swap_feeds_nothing() {
        let kind = SystemKind::Bit32;
        let mut machine = build_system(kind);
        let mut mgr = ModuleManager::new(kind);
        mgr.configure_plane(rtr_configplane::ConfigPlaneConfig {
            differential: true,
            ..rtr_configplane::ConfigPlaneConfig::default()
        })
        .unwrap();
        // Two registrations of byte-identical circuits under different
        // names: swapping between them is a zero-frame diff.
        let mut twin = inverter_component(kind, 1);
        twin.name = "twin".to_string();
        mgr.register(
            inverter_component(kind, 1),
            (0, 0),
            Box::new(|| Box::new(Inverter(0))),
        )
        .unwrap();
        mgr.register(twin, (0, 0), Box::new(|| Box::new(Inverter(0))))
            .unwrap();
        mgr.load(&mut machine, "inv1").unwrap();
        let words_before = machine.platform.icap.words_shifted;
        let out = mgr.load(&mut machine, "twin").unwrap();
        assert!(matches!(
            out,
            LoadOutcome::Loaded {
                reconfig_time: SimTime::ZERO,
                ..
            }
        ));
        assert_eq!(
            machine.platform.icap.words_shifted, words_before,
            "a zero-diff swap must move no ICAP words"
        );
        assert_eq!(mgr.loaded(), Some("twin"));
    }

    #[test]
    fn warm_cache_replays_and_stays_deterministic() {
        let kind = SystemKind::Bit32;
        let plane = rtr_configplane::ConfigPlaneConfig::full();
        let run = |swaps: usize| {
            let mut machine = build_system(kind);
            let mut mgr = plane_manager(kind, plane.clone());
            alternate_loads(&mut mgr, &mut machine, swaps);
            (mgr.plane_stats(), machine.platform.icap.words_shifted)
        };
        let (stats, _) = run(8);
        // First inv1→inv2 and inv2→inv1 transitions miss; every repeat of
        // those two transitions replays from the cache.
        assert!(stats.cache_hits >= 4, "repeats must hit: {stats:?}");
        assert!(stats.cache_misses >= 2);
        assert_eq!(stats.cache_evictions, 0);
        // Equal sequences are equal, counters included.
        assert_eq!(run(8), run(8));
    }

    #[test]
    fn differential_swap_correct_after_repaired_fault() {
        let kind = SystemKind::Bit32;
        let mut machine = build_system(kind);
        machine
            .platform
            .icap
            .set_fault_plan(Some(vp2_bitstream::FaultPlan::new(42, 5e-2)));
        let mut mgr = plane_manager(
            kind,
            rtr_configplane::ConfigPlaneConfig {
                differential: true,
                ..rtr_configplane::ConfigPlaneConfig::default()
            },
        );
        // A bumpy first load: some frames arrive corrupted and are
        // repaired in place.
        let out = mgr.load(&mut machine, "inv1").unwrap();
        let LoadOutcome::Loaded {
            repaired_frames, ..
        } = out
        else {
            panic!("1% corruption must be repairable, got {out:?}");
        };
        assert!(repaired_frames > 0, "seed 42 corrupts at least one frame");
        // The next differential swap diffs against the *repaired* state
        // and still verifies: repair restored exactly the expected bits.
        machine.platform.icap.set_fault_plan(None);
        let out2 = mgr.load(&mut machine, "inv2").unwrap();
        assert!(matches!(
            out2,
            LoadOutcome::Loaded {
                repaired_frames: 0,
                attempts: 1,
                ..
            }
        ));
        assert_eq!(mgr.loaded(), Some("inv2"));
    }

    #[test]
    fn multi_module_slots_coreside_and_activate() {
        let kind = SystemKind::Bit32;
        let mut machine = build_system(kind);
        let mut mgr = ModuleManager::new(kind);
        mgr.configure_plane(rtr_configplane::ConfigPlaneConfig {
            slot_widths: vec![14, 14],
            ..rtr_configplane::ConfigPlaneConfig::default()
        })
        .unwrap();
        for tag in [1, 2] {
            mgr.register(
                slot_component(kind, tag, 14),
                (0, 0),
                Box::new(|| Box::new(Inverter(0))),
            )
            .unwrap();
        }
        // First loads land in distinct empty slots.
        assert!(matches!(
            mgr.load(&mut machine, "inv1").unwrap(),
            LoadOutcome::Loaded { .. }
        ));
        assert!(matches!(
            mgr.load(&mut machine, "inv2").unwrap(),
            LoadOutcome::Loaded { .. }
        ));
        assert_eq!(mgr.residents(), vec![Some("inv1"), Some("inv2")]);
        assert_eq!(mgr.reconfigurations, 2);
        // Swapping back is a dock rebind, not a reconfiguration.
        let words = machine.platform.icap.words_shifted;
        assert_eq!(
            mgr.load(&mut machine, "inv1").unwrap(),
            LoadOutcome::Activated { slot: 0 }
        );
        assert_eq!(mgr.loaded(), Some("inv1"));
        assert_eq!(mgr.reconfigurations, 2, "no ICAP traffic on activation");
        assert_eq!(machine.platform.icap.words_shifted, words);
        assert_eq!(mgr.plane_stats().activations, 1);
        // The rebound module really answers through the dock.
        let t = machine.cpu.now();
        let t2 = t + machine.platform.write(t, map::DOCK_BASE, 4, 0x0000_00FF);
        let (v, _) = machine.platform.read(t2, map::DOCK_BASE, 4);
        assert_eq!(v, 0xFFFF_FF00);
    }

    #[test]
    fn slot_eviction_prefers_the_coldest_resident() {
        let kind = SystemKind::Bit32;
        let mut machine = build_system(kind);
        let mut mgr = ModuleManager::new(kind);
        mgr.configure_plane(rtr_configplane::ConfigPlaneConfig {
            slot_widths: vec![14, 14],
            ..rtr_configplane::ConfigPlaneConfig::default()
        })
        .unwrap();
        for tag in [1, 2, 3] {
            mgr.register(
                slot_component(kind, tag, 14),
                (0, 0),
                Box::new(|| Box::new(Inverter(0))),
            )
            .unwrap();
        }
        mgr.load(&mut machine, "inv1").unwrap(); // slot 0
        mgr.load(&mut machine, "inv2").unwrap(); // slot 1
        mgr.load(&mut machine, "inv1").unwrap(); // touch slot 0
                                                 // inv3 must displace the coldest resident: inv2 in slot 1.
        assert!(matches!(
            mgr.load(&mut machine, "inv3").unwrap(),
            LoadOutcome::Loaded { .. }
        ));
        assert_eq!(mgr.residents(), vec![Some("inv1"), Some("inv3")]);
        assert_eq!(mgr.plane_stats().slot_evictions, 1);
    }

    #[test]
    fn unload_clears_region() {
        let kind = SystemKind::Bit32;
        let mut machine = build_system(kind);
        let mut mgr = ModuleManager::new(kind);
        mgr.register(
            inverter_component(kind, 1),
            (0, 0),
            Box::new(|| Box::new(Inverter(0))),
        )
        .unwrap();
        mgr.load(&mut machine, "inv1").unwrap();
        let t = mgr.unload(&mut machine).unwrap();
        assert!(t > SimTime::ZERO);
        assert_eq!(mgr.loaded(), None);
        let Docks::Opb(d) = &machine.platform.dock else {
            panic!()
        };
        assert_eq!(d.module_name(), NullModule.name());
    }
}
