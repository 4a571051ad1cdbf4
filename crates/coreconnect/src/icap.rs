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
use vp2_bitstream::{apply_bitstream_faulty, ApplyError, ApplyReport, Bitstream, FaultPlan};
use vp2_fabric::ConfigMemory;
use vp2_sim::{ClockDomain, SimTime};

/// HWICAP device state.
#[derive(Debug, Clone)]
pub struct HwIcap {
    /// ICAP clock (the configuration logic's shift clock).
    pub icap_clock: ClockDomain,
    /// Words buffered since the last commit.
    buffer: Vec<u32>,
    /// Device IDCODE the configuration logic checks against.
    idcode: u32,
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
            buffer: Vec::new(),
            idcode,
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

    /// Installs (or clears) a fault-injection plan. Commits made while a
    /// plan is active may silently corrupt frames after the CRC check;
    /// only readback verification can detect them.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// The installed fault plan, for inspecting its corruption counters.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// MMIO write to the data FIFO.
    pub fn write_data(&mut self, word: u32) {
        self.buffer.push(word);
    }

    /// Number of buffered words.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
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

    /// MMIO write to the control register with the start bit: commits the
    /// buffered words as a bitstream, applying it to `mem`. Returns the
    /// apply report; the port stays busy for `words × 1 ICAP cycle`.
    pub fn commit(
        &mut self,
        now: SimTime,
        mem: &mut ConfigMemory,
    ) -> Result<ApplyReport, ApplyError> {
        let words = std::mem::take(&mut self.buffer);
        let nwords = words.len();
        // A compressed stream is expanded by the decompressor in front of
        // the configuration logic; the port is only busy for the words
        // that actually crossed it, which is where the compression win
        // lands. A stream that claims the magic but does not decode is a
        // malformed stream like any other.
        let words = if vp2_bitstream::is_compressed(&words) {
            match vp2_bitstream::decompress_words(&words) {
                Some(decoded) => decoded,
                None => {
                    self.error = true;
                    return Err(ApplyError::Parse(
                        vp2_bitstream::packet::ParseError::Truncated,
                    ));
                }
            }
        } else {
            words
        };
        let bs = Bitstream { words };
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
        let corrupted_before = self.fault.as_ref().map_or(0, |p| p.frames_corrupted);
        let result = apply_bitstream_faulty(&bs, mem, self.idcode, self.fault.as_mut());
        if self.tracer.on() {
            let hit = self.fault.as_ref().map_or(0, |p| p.frames_corrupted) - corrupted_before;
            if hit > 0 {
                self.tracer
                    .emit(start, EventKind::FaultHit { frames: hit as u32 });
            }
        }
        match result {
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

    /// Feeds and commits an entire bitstream in one call, returning
    /// `(completion_time, report)`. It accounts only for the ICAP shift
    /// side and is used by this module's unit tests; a simulated machine
    /// instead writes each word over the bus to the data register (the
    /// CPU/OPB feed cost the reconfiguration time is made of) and then
    /// commits through the control register.
    pub fn load_bitstream(
        &mut self,
        now: SimTime,
        bs: &Bitstream,
        mem: &mut ConfigMemory,
    ) -> Result<(SimTime, ApplyReport), ApplyError> {
        for &w in &bs.words {
            self.write_data(w);
        }
        let report = self.commit(now, mem)?;
        Ok((self.busy_until, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp2_bitstream::{full_bitstream, IDCODE_XC2VP7};
    use vp2_fabric::coords::{ClbCoord, LutIndex, SliceIndex};
    use vp2_fabric::{Device, DeviceKind};

    fn icap() -> HwIcap {
        HwIcap::new(ClockDomain::from_mhz("icap", 50), IDCODE_XC2VP7)
    }

    #[test]
    fn load_applies_and_times() {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mut src = ConfigMemory::new(&dev);
        src.set_lut(ClbCoord::new(1, 2), SliceIndex::new(3), LutIndex::G, 0xABCD);
        let bs = full_bitstream(&src, IDCODE_XC2VP7);
        let mut dst = ConfigMemory::new(&dev);
        let mut port = icap();
        let (done, report) = port.load_bitstream(SimTime::ZERO, &bs, &mut dst).unwrap();
        assert_eq!(dst, src);
        assert_eq!(report.words_total, bs.word_count());
        // One word per 20ns ICAP cycle.
        assert_eq!(done, SimTime::from_ns(20) * bs.word_count() as u64);
        assert!(port.busy(done - SimTime::from_ns(1)));
        assert!(!port.busy(done));
        assert_eq!(port.reconfigurations, 1);
    }

    #[test]
    fn commit_clears_buffer() {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mut mem = ConfigMemory::new(&dev);
        let bs = full_bitstream(&mem.clone(), IDCODE_XC2VP7);
        let mut port = icap();
        for &w in &bs.words {
            port.write_data(w);
        }
        assert_eq!(port.buffered(), bs.word_count());
        port.commit(SimTime::ZERO, &mut mem).unwrap();
        assert_eq!(port.buffered(), 0);
    }

    #[test]
    fn bad_stream_sets_error() {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mut mem = ConfigMemory::new(&dev);
        let mut port = icap();
        port.write_data(0x1234_5678); // garbage, no sync
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
        port.set_fault_plan(Some(vp2_bitstream::FaultPlan::new(1, 1.0)));
        // The commit reports success — no sticky error, CRC verified.
        let (_, report) = port.load_bitstream(SimTime::ZERO, &bs, &mut dst).unwrap();
        assert!(!port.error());
        assert_eq!(report.frames_written, src.frame_count());
        // Yet the fabric holds the wrong bits; readback sees them all.
        let plan = port.fault_plan().expect("plan installed");
        assert_eq!(plan.frames_corrupted as usize, src.frame_count());
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
            port.write_data(w);
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
        port.write_data(vp2_bitstream::COMPRESSED_MAGIC);
        port.write_data(99); // claims 99 decoded words, then ends
        assert!(port.commit(SimTime::ZERO, &mut mem).is_err());
        assert!(port.error());
    }

    #[test]
    fn back_to_back_loads_queue() {
        let dev = Device::new(DeviceKind::Xc2vp7);
        let mut mem = ConfigMemory::new(&dev);
        let bs = full_bitstream(&mem.clone(), IDCODE_XC2VP7);
        let mut port = icap();
        let (done1, _) = port.load_bitstream(SimTime::ZERO, &bs, &mut mem).unwrap();
        let (done2, _) = port.load_bitstream(SimTime::ZERO, &bs, &mut mem).unwrap();
        assert!(done2 >= done1 + SimTime::from_ns(20) * (bs.word_count() as u64));
    }
}
