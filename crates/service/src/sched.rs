//! Pluggable batch-scheduling policies.
//!
//! The service's dispatch loop repeatedly asks: *which kernel's queue do
//! I drain next?* [`BatchPolicy`] answers it from a snapshot of the
//! non-empty queues ([`Candidate`] per kernel) without touching any
//! state, so every policy is deterministic, trivially testable, and the
//! decision itself can be journaled.
//!
//! * [`BatchPolicy::FcfsDrain`] — serve the queue whose head arrived
//!   earliest. Bit-identical to the scheduler before policies existed.
//! * [`BatchPolicy::SwapAware`] — stay with the resident module while no
//!   other kernel's queue has matured past its break-even depth. The
//!   maturity test looks one move ahead: when switching away would
//!   strand live queued work for the resident module, the competing
//!   queue must amortize *two* reconfigurations — the swap there and the
//!   swap back — not just one. A starvation guard bounds the wait: once
//!   any queue's head has aged past the `max_head_age` the caller passes
//!   to [`BatchPolicy::choose`], the oldest overdue head is served
//!   regardless of residency. The service scales that bound with its
//!   measured reconfiguration time.
//! * [`BatchPolicy::Lanes`] — priority/deadline lanes. The queue holding
//!   the best-ranked request (priority class, then earliest absolute
//!   deadline, then arrival) is served, and the drained batch is executed
//!   in that rank order (EDF within the batch).

use rtr_apps::request::{Kernel, Priority};
use vp2_sim::SimTime;

use crate::queue::Pending;

/// The starvation bound the service passes to [`BatchPolicy::choose`]
/// until it has observed a reconfiguration: roughly ten worst-case swaps
/// on either simulated system (a reconfiguration alone costs ~6 ms, so a
/// much tighter bound degenerates the swap-aware policy into FCFS under
/// load).
pub const DEFAULT_MAX_HEAD_AGE: SimTime = SimTime::from_ms(60);

/// Which kernel queue the scheduler drains next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// Drain the queue whose head arrived earliest (ties by submission
    /// id). The pre-policy scheduler, kept as the baseline.
    #[default]
    FcfsDrain,
    /// Prefer the resident module's queue until another kernel's queue
    /// matures past its break-even depth, with a bound on how long any
    /// head may wait: once a queue's head has waited `max_head_age` (an
    /// argument of [`BatchPolicy::choose`]), it is served next regardless
    /// of residency or maturity.
    SwapAware,
    /// Serve the queue holding the best-ranked request (priority class,
    /// then earliest deadline, then arrival) and run the drained batch
    /// in rank order.
    Lanes,
}

/// Scheduling rank of one queued request under [`BatchPolicy::Lanes`]:
/// priority class, absolute deadline in picoseconds (`u64::MAX` when the
/// lane has none), arrival, submission id. Lower ranks first; the id
/// makes the order total.
pub type LaneRank = (Priority, u64, u64, u64);

/// The lane rank of a queued request.
pub fn lane_rank(pending: &Pending) -> LaneRank {
    let lane = &pending.lane;
    (
        lane.priority,
        lane.expires_at(pending.arrival)
            .map_or(u64::MAX, |t| t.as_ps()),
        pending.arrival.as_ps(),
        pending.id,
    )
}

impl BatchPolicy {
    /// The swap-aware policy. Its starvation bound adapts: a service
    /// passes ten times its observed reconfiguration EWMA (or
    /// [`DEFAULT_MAX_HEAD_AGE`] before the first swap), so the bound
    /// tightens when the configuration plane makes swaps cheap and
    /// relaxes when they are dear.
    pub fn swap_aware() -> BatchPolicy {
        BatchPolicy::SwapAware
    }

    /// Stable lowercase name (JSON, traces, CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            BatchPolicy::FcfsDrain => "fcfs_drain",
            BatchPolicy::SwapAware => "swap_aware",
            BatchPolicy::Lanes => "lanes",
        }
    }

    /// Picks the candidate to drain next; `None` only for an empty set.
    /// `max_head_age` is the starvation bound (only
    /// [`BatchPolicy::SwapAware`] reads it). Pure: equal inputs give
    /// equal answers, whatever order the candidates are listed in (every
    /// comparison key ends in the unique head submission id).
    pub fn choose(
        &self,
        now: SimTime,
        candidates: &[Candidate],
        max_head_age: SimTime,
    ) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let fcfs = |filter: &dyn Fn(&Candidate) -> bool| -> Option<usize> {
            candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| filter(c))
                .min_by_key(|(_, c)| (c.head_arrival, c.head_id))
                .map(|(i, _)| i)
        };
        match self {
            BatchPolicy::FcfsDrain => fcfs(&|_| true),
            BatchPolicy::SwapAware => {
                // 1. The starvation guard outranks everything: serve the
                //    earliest overdue head.
                let overdue = |c: &Candidate| now.saturating_sub(c.head_arrival) >= max_head_age;
                if let Some(i) = fcfs(&overdue) {
                    return Some(i);
                }
                // 2. A queue past its break-even depth amortizes the swap
                //    it asks for: serve the earliest-head mature queue.
                if let Some(i) = fcfs(&|c: &Candidate| c.mature) {
                    return Some(i);
                }
                // 3. Nothing mature: stay with the resident module — its
                //    work is swap-free, and draining an immature queue
                //    instead would mean a sub-break-even swap or the slow
                //    software path.
                if let Some(i) = candidates.iter().position(|c| c.resident) {
                    return Some(i);
                }
                // 4. The resident queue is empty too: arrival order.
                fcfs(&|_| true)
            }
            BatchPolicy::Lanes => candidates
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.best_rank)
                .map(|(i, _)| i),
        }
    }
}

/// One non-empty kernel queue, as the scheduler sees it at a decision
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The kernel whose queue this is.
    pub kernel: Kernel,
    /// Queued requests.
    pub depth: usize,
    /// Arrival instant of the head (earliest-admitted) request.
    pub head_arrival: SimTime,
    /// Submission id of the head request (the global tie-breaker).
    pub head_id: u64,
    /// This kernel's module currently occupies the dynamic region.
    pub resident: bool,
    /// The queue has matured past its break-even depth: a swap to
    /// hardware would strictly pay off for the queued work as it stands,
    /// charged for the round trip (swap there *and* back) whenever the
    /// resident module still has queued work the switch would strand.
    /// Always false for the resident kernel and for kernels without a
    /// hardware path (computed by the service; only
    /// [`BatchPolicy::SwapAware`] reads it).
    pub mature: bool,
    /// Best (lowest) lane rank among the queued requests (only
    /// [`BatchPolicy::Lanes`] reads it).
    pub best_rank: LaneRank,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(kernel: Kernel, head_us: u64, head_id: u64) -> Candidate {
        Candidate {
            kernel,
            depth: 1,
            head_arrival: SimTime::from_us(head_us),
            head_id,
            resident: false,
            mature: false,
            best_rank: (
                Priority::Normal,
                u64::MAX,
                SimTime::from_us(head_us).as_ps(),
                head_id,
            ),
        }
    }

    /// A bound no test head reaches.
    const NO_GUARD: SimTime = SimTime::from_ms(100_000);

    #[test]
    fn fcfs_matches_earliest_head_with_id_ties() {
        let p = BatchPolicy::FcfsDrain;
        let now = SimTime::from_us(100);
        let c = vec![
            cand(Kernel::Jenkins, 5, 1),
            cand(Kernel::PatMatch, 3, 0),
            cand(Kernel::Fade, 3, 2),
        ];
        // Earliest head wins; equal arrivals break by submission id.
        assert_eq!(p.choose(now, &c, NO_GUARD), Some(1));
        assert_eq!(p.choose(now, &c[1..], NO_GUARD), Some(0));
        assert_eq!(p.choose(now, &[], NO_GUARD), None);
    }

    #[test]
    fn swap_aware_sticks_with_resident_until_another_matures() {
        let p = BatchPolicy::swap_aware();
        let now = SimTime::from_us(100);
        let mut c = vec![cand(Kernel::Jenkins, 5, 1), cand(Kernel::PatMatch, 3, 0)];
        c[0].resident = true;
        // PatMatch arrived first but is below break-even: stay resident.
        assert_eq!(p.choose(now, &c, SimTime::from_ms(10)), Some(0));
        // Once PatMatch matures its swap is amortized: switch to it.
        c[1].mature = true;
        assert_eq!(p.choose(now, &c, SimTime::from_ms(10)), Some(1));
    }

    #[test]
    fn starvation_guard_overrides_residency() {
        let p = BatchPolicy::swap_aware();
        let guard = SimTime::from_us(50);
        let mut c = vec![cand(Kernel::Jenkins, 5, 1), cand(Kernel::PatMatch, 40, 0)];
        c[1].resident = true;
        // Jenkins' head is 95 µs old — past the 50 µs bound — so it is
        // served even though PatMatch holds the region.
        assert_eq!(p.choose(SimTime::from_us(100), &c, guard), Some(0));
        // Below the bound the resident queue keeps the region.
        assert_eq!(p.choose(SimTime::from_us(30), &c, guard), Some(1));
        // With the guard out of reach the resident queue keeps it however
        // long the immature head has waited: the guard, not luck, is what
        // serves a starving queue.
        assert_eq!(p.choose(SimTime::from_ms(60_000), &c, NO_GUARD), Some(1));
        assert_eq!(p.name(), "swap_aware");
    }

    #[test]
    fn lanes_ranks_priority_then_deadline_then_arrival() {
        let p = BatchPolicy::Lanes;
        let now = SimTime::from_us(100);
        let mut c = vec![
            cand(Kernel::Jenkins, 1, 0),
            cand(Kernel::PatMatch, 9, 1),
            cand(Kernel::Fade, 5, 2),
        ];
        // A high-priority request beats earlier arrivals...
        c[1].best_rank = (Priority::High, u64::MAX, 9, 1);
        assert_eq!(p.choose(now, &c, NO_GUARD), Some(1));
        // ...and among equal priorities the earliest deadline wins.
        c[0].best_rank = (Priority::High, 500, 1, 0);
        c[2].best_rank = (Priority::High, 200, 5, 2);
        assert_eq!(p.choose(now, &c, NO_GUARD), Some(2));
    }
}
