//! OPB HWICAP — the internal configuration access port controller.
//!
//! The configuration memory controller of both systems: the CPU writes
//! bitstream words into the HWICAP's FIFO over the OPB, and the ICAP block
//! shifts them into the configuration logic at one word per ICAP clock
//! cycle. Reconfiguration time is therefore proportional to bitstream
//! length — which is exactly why BitLinker's *complete* configurations (vs.
//! differential ones) "have the side effect of increasing the configuration
//! time", a trade-off one of the benches quantifies.

use rtr_trace::{EventKind, Tracer};
use vp2_bitstream::{Applier, ApplyError, ApplyReport, FaultPlan, COMPRESSED_MAGIC};
use vp2_fabric::ConfigMemory;
use vp2_sim::{ClockDomain, SimTime};

/// HWICAP device state.
///
/// Each word written to the data register goes straight into the
/// configuration logic (an [`Applier`]), which writes every frame into
/// configuration memory as the frame's last word arrives; the port holds
/// no copy of the stream. A commit only finishes the stream: it charges
/// the shift time of the words that crossed the port, emits the trace
/// events, and latches the stream's outcome in the status register.
#[derive(Debug, Clone)]
pub struct HwIcap {
    /// ICAP clock (the configuration logic's shift clock).
    pub icap_clock: ClockDomain,
    /// The configuration logic the words are shifted into.
    applier: Applier,
    /// The decompressor in front of the configuration logic. A compressed
    /// transfer puts its literals after all of its tokens, so it is held
    /// whole until the commit decodes it word by word into the applier;
    /// a raw stream never lands here.
    compressed: Vec<u32>,
    /// Words written since the last commit.
    words_in: usize,
    /// Busy until this instant (while shifting a committed stream).
    busy_until: SimTime,
    /// Sticky error flag from the last commit.
    error: bool,
    /// Total words shifted (statistics).
    pub words_shifted: u64,
    /// Completed reconfigurations.
    pub reconfigurations: u64,
    /// Optional fault injection at the FDRI → configuration-cell boundary.
    fault: Option<FaultPlan>,
    /// Trace journal (disabled by default; commits emit burst events).
    tracer: Tracer,
}

impl HwIcap {
    /// New HWICAP for a device with the given IDCODE.
    pub fn new(icap_clock: ClockDomain, idcode: u32) -> Self {
        HwIcap {
            icap_clock,
            applier: Applier::new(idcode),
            compressed: Vec::new(),
            words_in: 0,
            busy_until: SimTime::ZERO,
            error: false,
            words_shifted: 0,
            reconfigurations: 0,
            fault: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a tracer handle; commits emit [`EventKind::IcapBurst`]
    /// (and [`EventKind::FaultHit`] when the fault plane strikes).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs (or clears) a fault-injection plan. Frames written while a
    /// plan is active may be silently corrupted after the CRC check;
    /// only readback verification can detect them.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// MMIO write to the data FIFO: the word is shifted into the
    /// configuration logic, which writes `mem` as frames complete. A
    /// stream that opens with the compression magic is held for the
    /// decompressor instead.
    pub fn write_data(&mut self, word: u32, mem: &mut ConfigMemory) {
        if (self.words_in == 0 && word == COMPRESSED_MAGIC) || !self.compressed.is_empty() {
            self.compressed.push(word);
        } else {
            self.applier.push(word, mem, self.fault.as_mut());
        }
        self.words_in += 1;
    }

    /// Is the port still shifting at `now`?
    pub fn busy(&self, now: SimTime) -> bool {
        now < self.busy_until
    }

    /// Did the last commit fail?
    pub fn error(&self) -> bool {
        self.error
    }

    /// Instant the current shift completes.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Occupies the port for a `words`-long readback starting no earlier
    /// than `from` (queued behind any in-flight shift), returning the
    /// completion instant. Background scrubbing charges its configuration
    /// readback through this, so scrub passes visibly contend with swap
    /// traffic for the ICAP without counting as shifted words.
    pub fn occupy(&mut self, from: SimTime, words: usize) -> SimTime {
        let start = self.icap_clock.next_edge(from.max(self.busy_until));
        self.busy_until = start + self.icap_clock.cycles(words as u64);
        self.busy_until
    }

    /// MMIO write to the control register with the start bit: finishes
    /// the stream written since the last commit. Returns its apply
    /// report; the port stays busy for `words × 1 ICAP cycle`. A held
    /// compressed transfer is decoded into `mem` here.
    pub fn commit(
        &mut self,
        now: SimTime,
        mem: &mut ConfigMemory,
    ) -> Result<ApplyReport, ApplyError> {
        let nwords = std::mem::take(&mut self.words_in);
        let compressed = std::mem::take(&mut self.compressed);
        // The decompressor in front of the configuration logic expands a
        // compressed transfer; the port is only busy for the words that
        // actually crossed it, which is where the compression win lands.
        // A transfer that claims the magic but does not decode is a
        // malformed stream like any other, and delivers no word.
        let decoded = if compressed.is_empty() {
            None
        } else {
            match vp2_bitstream::decoded(&compressed) {
                Some(decoded) => Some(decoded),
                None => {
                    self.error = true;
                    return Err(ApplyError::Parse(
                        vp2_bitstream::packet::ParseError::Truncated,
                    ));
                }
            }
        };
        let start = self.icap_clock.next_edge(now.max(self.busy_until));
        self.busy_until = start + self.icap_clock.cycles(nwords as u64);
        self.words_shifted += nwords as u64;
        if self.tracer.on() {
            self.tracer.emit(
                start,
                EventKind::IcapBurst {
                    words: nwords as u32,
                    done: self.busy_until,
                },
            );
        }
        for w in decoded.into_iter().flatten() {
            self.applier.push(w, mem, self.fault.as_mut());
        }
        if self.tracer.on() {
            let hit = self.applier.frames_corrupted();
            if hit > 0 {
                self.tracer
                    .emit(start, EventKind::FaultHit { frames: hit as u32 });
            }
        }
        match self.applier.finish() {
            Ok(report) => {
                self.error = false;
                self.reconfigurations += 1;
                Ok(report)
            }
            Err(e) => {
                self.error = true;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp2_bitstream::{full_bitstream, Bitstream, IDCODE_XC2VP7};
    use vp2_fabric::coords::{ClbCoord, LutIndex, SliceIndex};
    use vp2_fabric::{Device, DeviceKind};

    fn icap() -> HwIcap {
        HwIcap::new(ClockDomain::from_mhz("icap", 50), IDCODE_XC2VP7)
    }

    /// Writes every word of `bs` to the data FIFO and commits it at `now`,
    /// as the CPU does through the data and control registers; returns
    /// the instant the shift completes and the apply report.
    fn load(
        port: &mut HwIcap,
        now: SimTime,
        bs: &Bitstream,
        mem: &mut ConfigMemory,
    ) -> (SimTime, ApplyReport) {
        for &w in &bs.words {
            port.write_data(w, mem);
        }
        let report = port.commit(now, mem).unwrap();
        (port.busy_until(), report)
    }

    #[test]
    fn load_applies_and_times() {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mut src = ConfigMemory::new(&dev);
        src.set_lut(ClbCoord::new(1, 2), SliceIndex::new(3), LutIndex::G, 0xABCD);
        let bs = full_bitstream(&src, IDCODE_XC2VP7);
        let mut dst = ConfigMemory::new(&dev);
        let mut port = icap();
        let (done, report) = load(&mut port, SimTime::ZERO, &bs, &mut dst);
        assert_eq!(dst, src);
        assert_eq!(report.words_total, bs.word_count());
        // One word per 20ns ICAP cycle.
        assert_eq!(done, SimTime::from_ns(20) * bs.word_count() as u64);
        assert!(port.busy(done - SimTime::from_ns(1)));
        assert!(!port.busy(done));
        assert_eq!(port.reconfigurations, 1);
    }

    #[test]
    fn words_apply_as_they_arrive_and_commit_ends_the_stream() {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mut src = ConfigMemory::new(&dev);
        src.set_lut(ClbCoord::new(1, 2), SliceIndex::new(3), LutIndex::G, 0xABCD);
        let bs = full_bitstream(&src, IDCODE_XC2VP7);
        let mut mem = ConfigMemory::new(&dev);
        let mut port = icap();
        for &w in &bs.words {
            port.write_data(w, &mut mem);
        }
        // Every frame landed before the commit; the commit only finishes,
        // charging the words written since the last one.
        assert_eq!(mem, src);
        assert_eq!((port.words_shifted, port.reconfigurations), (0, 0));
        port.commit(SimTime::ZERO, &mut mem).unwrap();
        assert_eq!(port.words_shifted, bs.word_count() as u64);
        assert_eq!(port.reconfigurations, 1);
        port.commit(SimTime::ZERO, &mut mem).unwrap_err();
        assert_eq!(port.words_shifted, bs.word_count() as u64, "none since");
    }

    #[test]
    fn frames_before_a_fault_stay_written() {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mut src = ConfigMemory::new(&dev);
        src.set_lut(ClbCoord::new(1, 2), SliceIndex::new(3), LutIndex::G, 0xABCD);
        let bs = full_bitstream(&src, IDCODE_XC2VP7);
        let mut mem = ConfigMemory::new(&dev);
        let mut port = icap();
        // Cut the stream inside its FDRI payload: the commit rejects it
        // and sets the error bit, but the frames already shifted in
        // stay written, as on the silicon.
        for &w in &bs.words[..bs.word_count() / 2] {
            port.write_data(w, &mut mem);
        }
        assert!(port.commit(SimTime::ZERO, &mut mem).is_err());
        assert!(port.error());
        assert_eq!(port.reconfigurations, 0);
        assert_eq!(mem, src, "the LUT's frame precedes the cut");
    }

    #[test]
    fn bad_stream_sets_error() {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mut mem = ConfigMemory::new(&dev);
        let mut port = icap();
        port.write_data(0x1234_5678, &mut mem); // garbage, no sync
        let err = port.commit(SimTime::ZERO, &mut mem);
        assert!(err.is_err());
        assert!(port.error());
    }

    #[test]
    fn fault_plan_corrupts_silently_until_readback() {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mut src = ConfigMemory::new(&dev);
        src.set_lut(ClbCoord::new(1, 2), SliceIndex::new(3), LutIndex::G, 0xABCD);
        let bs = full_bitstream(&src, IDCODE_XC2VP7);
        let mut dst = ConfigMemory::new(&dev);
        let mut port = icap();
        let tracer = Tracer::enabled();
        port.set_tracer(tracer.clone());
        port.set_fault_plan(Some(vp2_bitstream::FaultPlan::new(1, 1.0)));
        // The commit reports success — no sticky error, CRC verified.
        let (_, report) = load(&mut port, SimTime::ZERO, &bs, &mut dst);
        assert!(!port.error());
        assert_eq!(report.frames_written, src.frame_count());
        // Yet the plan corrupted every frame the commit wrote, and the
        // fabric holds the wrong bits; readback sees them all.
        let hits: Vec<u32> = tracer
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FaultHit { frames } => Some(frames),
                _ => None,
            })
            .collect();
        assert_eq!(hits, [src.frame_count() as u32]);
        let frames: Vec<_> = src.frame_addresses().collect();
        assert_eq!(
            dst.mismatched_frames(&src, &frames).len(),
            src.frame_count()
        );
    }

    #[test]
    fn compressed_stream_decodes_and_shifts_fewer_words() {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mut src = ConfigMemory::new(&dev);
        src.set_lut(ClbCoord::new(1, 2), SliceIndex::new(3), LutIndex::G, 0xABCD);
        let bs = full_bitstream(&src, IDCODE_XC2VP7);
        let packed = vp2_bitstream::compress_words(&bs.words);
        assert!(packed.len() < bs.word_count(), "full config compresses");
        let mut dst = ConfigMemory::new(&dev);
        let mut port = icap();
        for &w in &packed {
            port.write_data(w, &mut dst);
        }
        port.commit(SimTime::ZERO, &mut dst).unwrap();
        assert_eq!(dst, src, "decoded stream configures the fabric");
        // The port was only busy for the compressed words.
        assert_eq!(port.words_shifted, packed.len() as u64);
        assert_eq!(
            port.busy_until(),
            SimTime::from_ns(20) * packed.len() as u64
        );
    }

    #[test]
    fn corrupt_compressed_stream_sets_error() {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mut mem = ConfigMemory::new(&dev);
        let mut port = icap();
        port.write_data(COMPRESSED_MAGIC, &mut mem);
        port.write_data(99, &mut mem); // claims 99 decoded words, then ends
        assert!(port.commit(SimTime::ZERO, &mut mem).is_err());
        assert!(port.error());
    }

    #[test]
    fn back_to_back_loads_queue() {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mut mem = ConfigMemory::new(&dev);
        let bs = full_bitstream(&mem.clone(), IDCODE_XC2VP7);
        let mut port = icap();
        let (done1, _) = load(&mut port, SimTime::ZERO, &bs, &mut mem);
        let (done2, _) = load(&mut port, SimTime::ZERO, &bs, &mut mem);
        assert!(done2 >= done1 + SimTime::from_ns(20) * (bs.word_count() as u64));
    }
}
