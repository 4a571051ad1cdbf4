//! Typed trace events.
//!
//! One event = one fact about the simulated timeline, stamped with the
//! sim clock and the shard that produced it. Kernel and module names are
//! carried as strings so the crate stays at the bottom of the dependency
//! graph (everything above it — manager, service, cluster — can emit
//! without a type cycle).

use vp2_sim::{Json, SimTime};

/// Every stable kind name [`TraceEvent::to_json`] can emit, for
/// validators that want to reject unknown kinds in streamed journals.
pub const KIND_NAMES: &[&str] = &[
    "request_buffer",
    "buffer_flush",
    "request_admit",
    "request_dequeue",
    "sched_decision",
    "request_complete",
    "batch_begin",
    "batch_end",
    "swap_begin",
    "swap_end",
    "cache_lookup",
    "diff_swap",
    "slot_activate",
    "slot_evict",
    "icap_burst",
    "fault_hit",
    "verify_fail",
    "repair",
    "dma_program",
    "dma_complete",
    "quarantine_enter",
    "quarantine_half_open",
    "quarantine_exit",
    "fed_route",
    "fed_steal",
    "fed_shed",
    "scrub_pass",
    "scrub_repair",
    "canary_probe",
    "canary_result",
];

/// Reserved shard id the federation front-end journals under. High
/// enough that no real pool shard collides with it, so federation
/// decisions sort after same-instant pool events in a merged journal
/// and stream to their own `.shard…jsonl` file.
pub const FEDERATION_SHARD: u32 = 0xFED0;

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A request entered a cluster admission buffer (stamped with its
    /// machine-timeline arrival; the shard's service has not seen it yet).
    RequestBuffer {
        /// Request id (the service-local id it will receive on flush).
        id: u64,
        /// Kernel module name.
        kernel: &'static str,
        /// Arrival instant on the shard's machine timeline.
        arrival: SimTime,
    },
    /// An admission buffer flushed into its shard's service.
    BufferFlush {
        /// Requests flushed.
        count: u32,
    },
    /// A request entered the service's per-kernel queues.
    RequestAdmit {
        /// Service-local request id.
        id: u64,
        /// Kernel module name.
        kernel: &'static str,
        /// True arrival instant (≤ the event's own timestamp; the gap is
        /// time spent buffered or waiting for a busy machine).
        arrival: SimTime,
    },
    /// A request left its queue as part of a batch.
    RequestDequeue {
        /// Service-local request id.
        id: u64,
    },
    /// The batch scheduler picked which kernel's queue to drain next.
    SchedDecision {
        /// Batch-policy name (`fcfs_drain`, `swap_aware`, `lanes`).
        policy: &'static str,
        /// Kernel whose queue was chosen.
        chosen: &'static str,
        /// Module names of every non-empty queue at the decision point
        /// (the chosen kernel is always among them).
        candidates: Vec<&'static str>,
    },
    /// A request completed and its latency was recorded.
    RequestComplete {
        /// Service-local request id.
        id: u64,
        /// Kernel module name.
        kernel: &'static str,
        /// Served by the dynamic region (false = PPC405 software path).
        hw: bool,
    },
    /// A batch was dispatched.
    BatchBegin {
        /// Kernel module name.
        kernel: &'static str,
        /// Requests in the batch.
        size: u32,
        /// Planned path (may degrade to software if the load fails).
        hw: bool,
    },
    /// The batch finished; every member has completed.
    BatchEnd {
        /// Kernel module name.
        kernel: &'static str,
        /// Path the batch actually ran on.
        hw: bool,
    },
    /// A reconfiguration (module load) started.
    SwapBegin {
        /// Module being loaded.
        module: String,
    },
    /// The reconfiguration finished (verified or degraded).
    SwapEnd {
        /// Module that was loading.
        module: String,
        /// Configuration frames carried by the full stream.
        frames: u32,
        /// Bitstream words in the full stream.
        words: u32,
        /// Full-stream attempts consumed.
        attempts: u32,
        /// Frames re-written by targeted repair passes.
        repaired_frames: u32,
        /// Did readback verify the region (false = degraded, dock unbound)?
        verified: bool,
    },
    /// The bitstream cache was consulted for a transfer image.
    CacheLookup {
        /// Module being loaded.
        module: String,
        /// Did a ready image replay (true) or did the load fall through
        /// to diffing/assembly (false)?
        hit: bool,
    },
    /// A differential load: only the frames that differed from the
    /// slot's live configuration went over the ICAP.
    DiffSwap {
        /// Module being loaded.
        module: String,
        /// Frames a full-image load would have written.
        frames_full: u32,
        /// Frames actually written.
        frames_sent: u32,
        /// Words a full-image load would have moved.
        words_full: u32,
        /// Words actually moved (after compression, if any).
        words_sent: u32,
        /// Did the stream cross the bus in compressed form?
        compressed: bool,
    },
    /// A load was satisfied by re-activating a module already resident
    /// in another sub-slot — no ICAP traffic at all.
    SlotActivate {
        /// Module re-activated.
        module: String,
        /// Sub-slot it resides in.
        slot: u32,
    },
    /// A sub-slot resident was evicted to make room for a new load.
    SlotEvict {
        /// Module displaced.
        module: String,
        /// Sub-slot vacated.
        slot: u32,
    },
    /// The HWICAP committed a buffered stream to the ICAP.
    IcapBurst {
        /// Words shifted.
        words: u32,
        /// Instant the shift completes.
        done: SimTime,
    },
    /// The fault plane corrupted frames during an ICAP commit (silent at
    /// commit time — only readback can see it; the journal can).
    FaultHit {
        /// Frames corrupted by this commit.
        frames: u32,
    },
    /// Readback verification found mismatched frames.
    VerifyFail {
        /// Frames that differ from the expected state.
        frames: u32,
    },
    /// A targeted repair pass re-wrote mismatched frames.
    Repair {
        /// Frames re-written.
        frames: u32,
    },
    /// A DMA transfer was programmed.
    DmaProgram {
        /// Total bytes to move.
        bytes: u32,
        /// Direction: memory → dock (false = dock → memory).
        to_dock: bool,
        /// Block-interleaved mode (FIFO drains interleave with fills).
        interleaved: bool,
    },
    /// The DMA run completed and raised its interrupt.
    DmaComplete {
        /// Cumulative bytes the engine has moved since boot.
        bytes_moved: u64,
    },
    /// A kernel entered quarantine (barred from the hardware path).
    QuarantineEnter {
        /// Kernel module name.
        kernel: &'static str,
    },
    /// A quarantine cooldown expired; the next batch may probe hardware.
    QuarantineHalfOpen {
        /// Kernel module name.
        kernel: &'static str,
    },
    /// A half-open kernel passed a verified load and is trusted again.
    QuarantineExit {
        /// Kernel module name.
        kernel: &'static str,
    },
    /// The federation front-end placed a request on a pool.
    FedRoute {
        /// Pool index the request was routed to.
        pool: u32,
        /// Kernel module name.
        kernel: &'static str,
        /// Estimated completion delay the router compared pools on
        /// (zero under round-robin, which does not estimate).
        estimate: SimTime,
    },
    /// Bounded work stealing moved buffered requests between pools.
    FedSteal {
        /// Pool the requests were taken from.
        from_pool: u32,
        /// Pool that received them.
        to_pool: u32,
        /// Requests moved by this steal event.
        moved: u32,
    },
    /// Lane-aware shedding diverted a request off its backed-up home
    /// pool at admission time.
    FedShed {
        /// The home pool the request was diverted away from.
        from_pool: u32,
        /// The lightly loaded pool that took it.
        to_pool: u32,
        /// Kernel module name.
        kernel: &'static str,
        /// Did the request carry a deadline (deadline-lane traffic
        /// diverts before best-effort traffic)?
        deadline: bool,
    },
    /// A background scrub pass readback-compared a window of resident
    /// configuration frames against their golden images.
    ScrubPass {
        /// Frames readback-compared by this pass.
        frames: u32,
        /// Frames found mismatched (latent upsets caught at rest).
        mismatched: u32,
    },
    /// A scrub pass re-wrote mismatched frames from the golden image
    /// over the differential partial-bitstream path.
    ScrubRepair {
        /// Frames repaired.
        frames: u32,
    },
    /// A half-open kernel's single canary batch was admitted to
    /// hardware with readback-verify forced on.
    CanaryProbe {
        /// Kernel module name.
        kernel: &'static str,
    },
    /// The canary batch finished: readmitted on success, re-quarantined
    /// with exponential cooldown backoff on failure.
    CanaryResult {
        /// Kernel module name.
        kernel: &'static str,
        /// Did the probe pass (kernel trusted on hardware again)?
        admitted: bool,
    },
}

impl EventKind {
    /// Stable snake_case kind name (one of [`KIND_NAMES`]).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RequestBuffer { .. } => "request_buffer",
            EventKind::BufferFlush { .. } => "buffer_flush",
            EventKind::RequestAdmit { .. } => "request_admit",
            EventKind::RequestDequeue { .. } => "request_dequeue",
            EventKind::SchedDecision { .. } => "sched_decision",
            EventKind::RequestComplete { .. } => "request_complete",
            EventKind::BatchBegin { .. } => "batch_begin",
            EventKind::BatchEnd { .. } => "batch_end",
            EventKind::SwapBegin { .. } => "swap_begin",
            EventKind::SwapEnd { .. } => "swap_end",
            EventKind::CacheLookup { .. } => "cache_lookup",
            EventKind::DiffSwap { .. } => "diff_swap",
            EventKind::SlotActivate { .. } => "slot_activate",
            EventKind::SlotEvict { .. } => "slot_evict",
            EventKind::IcapBurst { .. } => "icap_burst",
            EventKind::FaultHit { .. } => "fault_hit",
            EventKind::VerifyFail { .. } => "verify_fail",
            EventKind::Repair { .. } => "repair",
            EventKind::DmaProgram { .. } => "dma_program",
            EventKind::DmaComplete { .. } => "dma_complete",
            EventKind::QuarantineEnter { .. } => "quarantine_enter",
            EventKind::QuarantineHalfOpen { .. } => "quarantine_half_open",
            EventKind::QuarantineExit { .. } => "quarantine_exit",
            EventKind::FedRoute { .. } => "fed_route",
            EventKind::FedSteal { .. } => "fed_steal",
            EventKind::FedShed { .. } => "fed_shed",
            EventKind::ScrubPass { .. } => "scrub_pass",
            EventKind::ScrubRepair { .. } => "scrub_repair",
            EventKind::CanaryProbe { .. } => "canary_probe",
            EventKind::CanaryResult { .. } => "canary_result",
        }
    }

    /// The kind-specific fields, as one JSON object: the journal line
    /// minus its key fields, and the `args` of the event's Chrome view.
    /// Times are in picoseconds (`*_ps`), like the key's `time_ps`.
    pub fn payload(&self) -> Json {
        self.payload_onto(Json::obj())
    }

    /// Appends the payload fields to the object `obj`.
    fn payload_onto(&self, obj: Json) -> Json {
        match self {
            EventKind::RequestBuffer {
                id,
                kernel,
                arrival,
            } => obj
                .field("id", *id)
                .field("kernel", *kernel)
                .field("arrival_ps", arrival.as_ps()),
            EventKind::BufferFlush { count } => obj.field("count", *count),
            EventKind::RequestAdmit {
                id,
                kernel,
                arrival,
            } => obj
                .field("id", *id)
                .field("kernel", *kernel)
                .field("arrival_ps", arrival.as_ps()),
            EventKind::RequestDequeue { id } => obj.field("id", *id),
            EventKind::SchedDecision {
                policy,
                chosen,
                candidates,
            } => obj.field("policy", *policy).field("chosen", *chosen).field(
                "candidates",
                Json::Arr(candidates.iter().map(|c| Json::Str((*c).into())).collect()),
            ),
            EventKind::RequestComplete { id, kernel, hw } => obj
                .field("id", *id)
                .field("kernel", *kernel)
                .field("hw", *hw),
            EventKind::BatchBegin { kernel, size, hw } => obj
                .field("kernel", *kernel)
                .field("size", *size)
                .field("hw", *hw),
            EventKind::BatchEnd { kernel, hw } => obj.field("kernel", *kernel).field("hw", *hw),
            EventKind::SwapBegin { module } => obj.field("module", module.as_str()),
            EventKind::SwapEnd {
                module,
                frames,
                words,
                attempts,
                repaired_frames,
                verified,
            } => obj
                .field("module", module.as_str())
                .field("frames", *frames)
                .field("words", *words)
                .field("attempts", *attempts)
                .field("repaired_frames", *repaired_frames)
                .field("verified", *verified),
            EventKind::CacheLookup { module, hit } => {
                obj.field("module", module.as_str()).field("hit", *hit)
            }
            EventKind::DiffSwap {
                module,
                frames_full,
                frames_sent,
                words_full,
                words_sent,
                compressed,
            } => obj
                .field("module", module.as_str())
                .field("frames_full", *frames_full)
                .field("frames_sent", *frames_sent)
                .field("words_full", *words_full)
                .field("words_sent", *words_sent)
                .field("compressed", *compressed),
            EventKind::SlotActivate { module, slot } | EventKind::SlotEvict { module, slot } => {
                obj.field("module", module.as_str()).field("slot", *slot)
            }
            EventKind::IcapBurst { words, done } => {
                obj.field("words", *words).field("done_ps", done.as_ps())
            }
            EventKind::FaultHit { frames }
            | EventKind::VerifyFail { frames }
            | EventKind::Repair { frames } => obj.field("frames", *frames),
            EventKind::DmaProgram {
                bytes,
                to_dock,
                interleaved,
            } => obj
                .field("bytes", *bytes)
                .field("to_dock", *to_dock)
                .field("interleaved", *interleaved),
            EventKind::DmaComplete { bytes_moved } => obj.field("bytes_moved", *bytes_moved),
            EventKind::QuarantineEnter { kernel }
            | EventKind::QuarantineHalfOpen { kernel }
            | EventKind::QuarantineExit { kernel } => obj.field("kernel", *kernel),
            EventKind::FedRoute {
                pool,
                kernel,
                estimate,
            } => obj
                .field("pool", *pool)
                .field("kernel", *kernel)
                .field("estimate_ps", estimate.as_ps()),
            EventKind::FedSteal {
                from_pool,
                to_pool,
                moved,
            } => obj
                .field("from_pool", *from_pool)
                .field("to_pool", *to_pool)
                .field("moved", *moved),
            EventKind::FedShed {
                from_pool,
                to_pool,
                kernel,
                deadline,
            } => obj
                .field("from_pool", *from_pool)
                .field("to_pool", *to_pool)
                .field("kernel", *kernel)
                .field("deadline", *deadline),
            EventKind::ScrubPass { frames, mismatched } => obj
                .field("frames", *frames)
                .field("mismatched", *mismatched),
            EventKind::ScrubRepair { frames } => obj.field("frames", *frames),
            EventKind::CanaryProbe { kernel } => obj.field("kernel", *kernel),
            EventKind::CanaryResult { kernel, admitted } => {
                obj.field("kernel", *kernel).field("admitted", *admitted)
            }
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated instant the event happened.
    pub time: SimTime,
    /// Shard that produced it (0 for a bare service).
    pub shard: u32,
    /// Per-shard emission sequence number: strictly increasing within a
    /// shard's journal, so `(time, shard, seq)` totally orders a merged
    /// multi-shard trace without relying on emission interleaving.
    pub seq: u64,
    /// The event.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The `(time, shard, seq)` merge key that totally orders events.
    pub fn key(&self) -> (SimTime, u32, u64) {
        (self.time, self.shard, self.seq)
    }

    /// One flat JSON object per event — the streamed-journal (JSONL)
    /// line format. `time_ps`/`shard`/`seq`/`kind` always lead; the
    /// kind's [`EventKind::payload`] fields follow.
    pub fn to_json(&self) -> Json {
        self.kind.payload_onto(
            Json::obj()
                .field("time_ps", self.time.as_ps())
                .field("shard", self.shard)
                .field("seq", self.seq)
                .field("kind", self.kind.name()),
        )
    }
}
