//! Per-module admission queues.
//!
//! Each kernel gets its own FIFO; the scheduler serves the non-empty
//! queue whose *head* arrived earliest (FCFS across kernels) and drains
//! it as one batch, so a burst of same-kernel work amortizes a single
//! reconfiguration.

use std::collections::VecDeque;

use rtr_apps::request::{Kernel, Lane, Request};
use vp2_sim::SimTime;

/// A request waiting in an admission queue: where it sits in the schedule
/// being served, and what the scheduler reads of it. The queues hold no
/// copy of a request: a serve drains every queue before it returns, so
/// the schedule outlives every entry.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// Monotone submission id (order of arrival across all kernels).
    pub id: u64,
    /// Arrival instant on the service's timeline.
    pub arrival: SimTime,
    /// Index of the request in the schedule being served.
    pub index: usize,
    /// The request's lane.
    pub lane: Lane,
    /// The request's payload size in bytes.
    pub bytes: usize,
}

/// One FIFO per kernel.
#[derive(Debug, Default)]
pub struct AdmissionQueues {
    queues: [VecDeque<Pending>; Kernel::ALL.len()],
    next_id: u64,
}

impl AdmissionQueues {
    /// Empty queues.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits `request`, entry `index` of the schedule being served, that
    /// arrived at `arrival`; returns its id.
    pub fn push(&mut self, arrival: SimTime, index: usize, request: &Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.queues[request.kernel().index()].push_back(Pending {
            id,
            arrival,
            index,
            lane: request.lane,
            bytes: request.payload_bytes(),
        });
        id
    }

    /// The id the next admitted request will receive — the authoritative
    /// counter trace producers should read instead of predicting ids
    /// from other counters (which can silently desync).
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Total queued items across all kernels.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Any work waiting?
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Queue depth for one kernel.
    pub fn depth(&self, kernel: Kernel) -> usize {
        self.queues[kernel.index()].len()
    }

    /// The head (earliest-admitted) request of one kernel's queue.
    pub fn head(&self, kernel: Kernel) -> Option<&Pending> {
        self.queues[kernel.index()].front()
    }

    /// The queued items of one kernel, in admission order.
    pub fn pending(&self, kernel: Kernel) -> impl Iterator<Item = &Pending> {
        self.queues[kernel.index()].iter()
    }

    /// Payload sizes of one kernel's queued items (the cost model's
    /// batch-decision input, without draining the queue).
    pub fn queued_bytes(&self, kernel: Kernel) -> Vec<usize> {
        self.queues[kernel.index()]
            .iter()
            .map(|p| p.bytes)
            .collect()
    }

    /// The kernel whose head request arrived earliest (ties broken by
    /// submission id, which preserves global arrival order).
    pub fn next_kernel(&self) -> Option<Kernel> {
        Kernel::ALL
            .iter()
            .copied()
            .filter_map(|k| self.queues[k.index()].front().map(|p| (p.arrival, p.id, k)))
            .min_by_key(|&(arrival, id, _)| (arrival, id))
            .map(|(_, _, k)| k)
    }

    /// Drains the whole queue for `kernel` as one batch.
    pub fn drain(&mut self, kernel: Kernel) -> Vec<Pending> {
        self.queues[kernel.index()].drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp2_sim::SplitMix64;

    fn req(kernel: Kernel, seed: u64) -> Request {
        let mut rng = SplitMix64::new(seed);
        Request::synthetic(kernel, 128, &mut rng)
    }

    #[test]
    fn fcfs_across_kernels_with_batch_drain() {
        let mut q = AdmissionQueues::new();
        assert!(q.is_empty());
        assert_eq!(q.next_kernel(), None);

        q.push(SimTime::from_us(5), 0, &req(Kernel::Jenkins, 1));
        q.push(SimTime::from_us(1), 0, &req(Kernel::PatMatch, 2));
        q.push(SimTime::from_us(9), 0, &req(Kernel::PatMatch, 3));
        assert_eq!(q.len(), 3);
        assert_eq!(q.depth(Kernel::PatMatch), 2);

        // PatMatch's head (t=1us) beats Jenkins' head (t=5us).
        assert_eq!(q.next_kernel(), Some(Kernel::PatMatch));
        let batch = q.drain(Kernel::PatMatch);
        assert_eq!(batch.len(), 2);
        assert!(batch[0].arrival < batch[1].arrival);

        assert_eq!(q.next_kernel(), Some(Kernel::Jenkins));
        q.drain(Kernel::Jenkins);
        assert!(q.is_empty());
    }

    #[test]
    fn same_instant_ties_break_by_submission_order() {
        let mut q = AdmissionQueues::new();
        let t = SimTime::from_us(3);
        q.push(t, 0, &req(Kernel::Brightness, 4));
        q.push(t, 0, &req(Kernel::Fade, 5));
        assert_eq!(q.next_kernel(), Some(Kernel::Brightness));
    }
}
