//! Scatter-gather DMA engine (the PLB dock's master half).
//!
//! The engine is a register-programmed burst planner: the machine model
//! executes the bursts it plans (moving real bytes and charging real bus
//! time), then reports each burst's completion back. This split keeps the
//! engine testable in isolation while the machine owns the data plane.
//!
//! The paper: "the PLB dock includes a scatter-gather DMA controller that
//! supports 64-bit transfers … data transfers to the dynamic area have to be
//! done as a block".

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaDirection {
    /// Memory → dock write channel.
    MemToDock,
    /// Dock output FIFO → memory.
    DockToMem,
}

/// Engine status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaStatus {
    /// No transfer programmed.
    Idle,
    /// Transfer in progress.
    Busy,
    /// Transfer complete (until acknowledged).
    Done,
}

/// One scatter-gather segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Memory address of the segment.
    pub addr: u32,
    /// Segment length in bytes.
    pub len: u32,
}

/// A burst the machine must now execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaBurst {
    /// Memory-side address.
    pub mem_addr: u32,
    /// Number of beats.
    pub beats: u64,
    /// Bytes moved (beats × beat size, except possibly the tail).
    pub bytes: u32,
    /// Direction.
    pub dir: DmaDirection,
}

/// The DMA engine.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    /// Beat width in bytes (8 on the 64-bit PLB).
    pub beat_bytes: u32,
    /// Maximum beats per burst (PLB burst length).
    pub max_burst_beats: u64,
    segments: Vec<Descriptor>,
    current: usize,
    offset: u32,
    dir: DmaDirection,
    status: DmaStatus,
    /// Total bytes moved since programming (statistics).
    pub bytes_moved: u64,
}

impl DmaEngine {
    /// 64-bit engine with 16-beat bursts.
    pub fn new64() -> Self {
        DmaEngine {
            beat_bytes: 8,
            max_burst_beats: 16,
            segments: Vec::new(),
            current: 0,
            offset: 0,
            dir: DmaDirection::MemToDock,
            status: DmaStatus::Idle,
            bytes_moved: 0,
        }
    }

    /// Programs a single-segment transfer.
    pub fn program(&mut self, addr: u32, len: u32, dir: DmaDirection) {
        self.program_sg(&[Descriptor { addr, len }], dir);
    }

    /// Programs a scatter-gather chain.
    ///
    /// # Panics
    /// Panics if a segment is not beat-aligned (hardware restriction — one
    /// of the paper's "significant restrictions on data organisation").
    pub fn program_sg(&mut self, segments: &[Descriptor], dir: DmaDirection) {
        for s in segments {
            assert!(
                s.addr % self.beat_bytes == 0 && s.len % self.beat_bytes == 0,
                "DMA segments must be {}-byte aligned",
                self.beat_bytes
            );
        }
        self.segments = segments.to_vec();
        self.current = 0;
        self.offset = 0;
        self.dir = dir;
        self.status = if segments.iter().all(|s| s.len == 0) || segments.is_empty() {
            DmaStatus::Done
        } else {
            DmaStatus::Busy
        };
    }

    /// Engine status.
    pub fn status(&self) -> DmaStatus {
        self.status
    }

    /// Current direction.
    pub fn direction(&self) -> DmaDirection {
        self.dir
    }

    /// Acknowledges a completed transfer, returning to idle.
    pub fn ack(&mut self) {
        if self.status == DmaStatus::Done {
            self.status = DmaStatus::Idle;
        }
    }

    /// Plans the next burst, or `None` when the transfer is finished.
    /// `fifo_room_beats` caps a mem→dock burst when the consumer applies
    /// backpressure; `fifo_avail_beats` caps a dock→mem burst by available
    /// FIFO data. Pass `u64::MAX` for "no limit".
    pub fn next_burst(&mut self, cap_beats: u64) -> Option<DmaBurst> {
        if self.status != DmaStatus::Busy || cap_beats == 0 {
            return None;
        }
        // Skip empty segments.
        while self.current < self.segments.len() && self.offset >= self.segments[self.current].len {
            self.current += 1;
            self.offset = 0;
        }
        let Some(seg) = self.segments.get(self.current) else {
            self.status = DmaStatus::Done;
            return None;
        };
        let remaining = seg.len - self.offset;
        let beats_left = u64::from(remaining / self.beat_bytes);
        let beats = beats_left.min(self.max_burst_beats).min(cap_beats);
        let bytes = (beats as u32) * self.beat_bytes;
        let burst = DmaBurst {
            mem_addr: seg.addr + self.offset,
            beats,
            bytes,
            dir: self.dir,
        };
        Some(burst)
    }

    /// Commits a burst previously returned by [`Self::next_burst`].
    pub fn burst_done(&mut self, burst: &DmaBurst) {
        self.offset += burst.bytes;
        self.bytes_moved += u64::from(burst.bytes);
        // Advance past finished segments; flag completion.
        while self.current < self.segments.len() && self.offset >= self.segments[self.current].len {
            self.current += 1;
            self.offset = 0;
        }
        if self.current >= self.segments.len() {
            self.status = DmaStatus::Done;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_segment_bursts() {
        let mut dma = DmaEngine::new64();
        dma.program(0x2000_0000, 256, DmaDirection::MemToDock); // 32 beats
        assert_eq!(dma.status(), DmaStatus::Busy);
        let b1 = dma.next_burst(u64::MAX).unwrap();
        assert_eq!(b1.mem_addr, 0x2000_0000);
        assert_eq!(b1.beats, 16);
        dma.burst_done(&b1);
        let b2 = dma.next_burst(u64::MAX).unwrap();
        assert_eq!(b2.mem_addr, 0x2000_0080);
        assert_eq!(b2.beats, 16);
        dma.burst_done(&b2);
        assert_eq!(dma.status(), DmaStatus::Done);
        assert!(dma.next_burst(u64::MAX).is_none());
        assert_eq!(dma.bytes_moved, 256);
    }

    #[test]
    fn tail_burst_is_short() {
        let mut dma = DmaEngine::new64();
        dma.program(0, 200, DmaDirection::MemToDock); // 25 beats
        let b1 = dma.next_burst(u64::MAX).unwrap();
        assert_eq!(b1.beats, 16);
        dma.burst_done(&b1);
        let b2 = dma.next_burst(u64::MAX).unwrap();
        assert_eq!(b2.beats, 9);
        dma.burst_done(&b2);
        assert_eq!(dma.status(), DmaStatus::Done);
    }

    #[test]
    fn cap_limits_burst() {
        let mut dma = DmaEngine::new64();
        dma.program(0, 256, DmaDirection::DockToMem);
        let b = dma.next_burst(5).unwrap();
        assert_eq!(b.beats, 5);
        assert!(dma.next_burst(0).is_none(), "no room: no burst");
    }

    #[test]
    fn scatter_gather_chain() {
        let mut dma = DmaEngine::new64();
        dma.program_sg(
            &[
                Descriptor { addr: 0, len: 24 },
                Descriptor {
                    addr: 0x100,
                    len: 0,
                },
                Descriptor {
                    addr: 0x200,
                    len: 16,
                },
            ],
            DmaDirection::MemToDock,
        );
        let b1 = dma.next_burst(u64::MAX).unwrap();
        assert_eq!((b1.mem_addr, b1.beats), (0, 3));
        dma.burst_done(&b1);
        let b2 = dma.next_burst(u64::MAX).unwrap();
        assert_eq!((b2.mem_addr, b2.beats), (0x200, 2));
        dma.burst_done(&b2);
        assert_eq!(dma.status(), DmaStatus::Done);
    }

    #[test]
    fn backpressure_interleaving_preserves_stream_integrity() {
        // A consumer FIFO whose free space fluctuates burst to burst:
        // the engine must emit bursts that never exceed the offered room,
        // stay within the PLB burst length, advance contiguously through
        // memory, and still deliver every byte exactly once.
        let mut dma = DmaEngine::new64();
        let total: u32 = 512; // 64 beats
        dma.program(0x3000_0000, total, DmaDirection::MemToDock);

        let rooms = [3u64, 0, 16, 1, 7, 0, 0, 2, 16, 16, 5, 9, 16, 4];
        let mut moved: u64 = 0;
        let mut expect_addr = 0x3000_0000u32;
        let mut stalls = 0;
        let mut i = 0;
        while dma.status() == DmaStatus::Busy {
            let room = rooms[i % rooms.len()];
            i += 1;
            match dma.next_burst(room) {
                Some(b) => {
                    assert!(b.beats > 0);
                    assert!(b.beats <= room, "burst exceeds FIFO room");
                    assert!(b.beats <= dma.max_burst_beats);
                    assert_eq!(b.mem_addr, expect_addr, "bursts must be contiguous");
                    assert_eq!(b.bytes, b.beats as u32 * dma.beat_bytes);
                    expect_addr += b.bytes;
                    moved += u64::from(b.bytes);
                    dma.burst_done(&b);
                }
                None => {
                    // Zero room: a stall, not a lost transfer.
                    assert_eq!(room, 0);
                    stalls += 1;
                    assert!(stalls < 100, "engine wedged under backpressure");
                }
            }
        }
        assert_eq!(moved, u64::from(total), "every byte delivered exactly once");
        assert_eq!(dma.bytes_moved, u64::from(total));
    }

    #[test]
    fn backpressure_across_scatter_gather_boundaries() {
        // Tight room (1–2 beats) while the engine walks a scatter-gather
        // chain: segment hops must not duplicate or drop beats even when
        // a segment drains mid-burst-window.
        let mut dma = DmaEngine::new64();
        dma.program_sg(
            &[
                Descriptor { addr: 0, len: 40 },   // 5 beats
                Descriptor { addr: 0x80, len: 8 }, // 1 beat
                Descriptor {
                    addr: 0x100,
                    len: 24,
                }, // 3 beats
            ],
            DmaDirection::DockToMem,
        );
        let mut log = Vec::new();
        let mut cap = 1u64;
        while let Some(b) = dma.next_burst(cap) {
            log.push((b.mem_addr, b.beats));
            dma.burst_done(&b);
            cap = if cap == 1 { 2 } else { 1 }; // alternate 1- and 2-beat room
        }
        assert_eq!(dma.status(), DmaStatus::Done);
        let beats: u64 = log.iter().map(|&(_, n)| n).sum();
        assert_eq!(beats, 9, "5 + 1 + 3 beats, no duplicates, no gaps");
        // No burst may straddle a segment boundary.
        for &(addr, n) in &log {
            let seg_end = match addr {
                a if a < 0x80 => 40,
                a if a < 0x100 => 0x80 + 8,
                _ => 0x100 + 24,
            };
            assert!(
                addr + (n as u32) * 8 <= seg_end,
                "burst straddles a segment"
            );
        }
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_segment_rejected() {
        let mut dma = DmaEngine::new64();
        dma.program(3, 8, DmaDirection::MemToDock);
    }

    #[test]
    fn ack_returns_to_idle() {
        let mut dma = DmaEngine::new64();
        dma.program(0, 8, DmaDirection::MemToDock);
        let b = dma.next_burst(u64::MAX).unwrap();
        dma.burst_done(&b);
        assert_eq!(dma.status(), DmaStatus::Done);
        dma.ack();
        assert_eq!(dma.status(), DmaStatus::Idle);
        dma.ack(); // idempotent
        assert_eq!(dma.status(), DmaStatus::Idle);
    }

    #[test]
    fn zero_length_is_immediately_done() {
        let mut dma = DmaEngine::new64();
        dma.program(0, 0, DmaDirection::MemToDock);
        assert_eq!(dma.status(), DmaStatus::Done);
    }
}
