//! Deterministic integration tests for the batch-scheduling policies:
//! swap-aware lookahead strictly beats the FCFS baseline on the
//! interleaved mixed-kernel workload, FCFS pins the pre-policy
//! scheduler byte-for-byte, lanes execute batches in EDF order, the
//! starvation guard bounds head-of-line age, and equal seeds give
//! byte-identical results under every policy.

use vp2_repro::apps::request::{Kernel, Request};
use vp2_repro::rtr::SystemKind;
use vp2_repro::service::{BatchPolicy, MetricsSnapshot, Service, ServiceConfig, TrafficConfig};
use vp2_repro::sim::{SimTime, SplitMix64};
use vp2_repro::trace::{EventKind, Tracer};

/// The interleaved mixed-kernel workload `sched_scenario` compares the
/// policies on: PatMatch anchors the region (its software fallback is
/// ~100x slower), Sha1 tempts FCFS into marginal swaps, Jenkins is
/// cheap-software ballast, and arrivals land near service capacity.
fn interleaved_mix() -> Vec<(SimTime, Request)> {
    TrafficConfig {
        seed: 0x0007_AF1C_2026,
        requests: 128,
        kernels: vec![Kernel::PatMatch, Kernel::Sha1, Kernel::Jenkins],
        mean_gap: SimTime::from_us(3200),
        burst_percent: 0,
        min_payload: 8 * 1024,
        max_payload: 16 * 1024,
        deadline_percent: 20,
        deadline_budget: SimTime::from_ms(10),
        high_percent: 10,
        ..TrafficConfig::default()
    }
    .generate()
}

fn run_policy(
    batch: BatchPolicy,
    schedule: &[(SimTime, Request)],
    trace: Tracer,
) -> MetricsSnapshot {
    let mut svc = Service::new(ServiceConfig {
        batch,
        kernels: vec![Kernel::PatMatch, Kernel::Sha1, Kernel::Jenkins],
        trace,
        ..ServiceConfig::new(SystemKind::Bit64)
    });
    let snap = svc.process(schedule).expect("sorted traffic");
    assert_eq!(snap.completed as usize, schedule.len());
    assert_eq!(snap.verify_failures, 0);
    snap
}

#[test]
fn swap_aware_strictly_beats_fcfs_on_the_interleaved_mix() {
    let traffic = interleaved_mix();
    let fcfs = run_policy(BatchPolicy::FcfsDrain, &traffic, Tracer::disabled());
    let swap = run_policy(BatchPolicy::swap_aware(), &traffic, Tracer::disabled());
    // The tentpole claim: holding the region until a competitor has
    // amortized the round trip wins on makespan AND reconfiguration
    // traffic — the swaps it skips are exactly the marginal ones.
    assert!(
        swap.elapsed < fcfs.elapsed,
        "swap-aware makespan {} must undercut fcfs {}",
        swap.elapsed,
        fcfs.elapsed
    );
    assert!(
        swap.swaps < fcfs.swaps,
        "swap-aware swaps {} must undercut fcfs {}",
        swap.swaps,
        fcfs.swaps
    );
    // Deadline counters reconcile: every deadline-carrying request is
    // counted met or missed, under both policies.
    let with_deadline = traffic
        .iter()
        .filter(|(_, r)| r.lane.deadline.is_some())
        .count() as u64;
    assert!(with_deadline > 0, "the mix carries deadline traffic");
    for snap in [&fcfs, &swap] {
        assert_eq!(snap.deadline_met + snap.deadline_missed, with_deadline);
    }
}

#[test]
fn equal_seeds_are_byte_identical_under_every_policy() {
    let traffic = interleaved_mix();
    for batch in [
        BatchPolicy::FcfsDrain,
        BatchPolicy::swap_aware(),
        BatchPolicy::Lanes,
    ] {
        // Rerun with the journal on: observation must not perturb.
        let a = run_policy(batch, &traffic, Tracer::disabled());
        let b = run_policy(batch, &traffic, Tracer::enabled());
        assert_eq!(
            a.to_json().render(),
            b.to_json().render(),
            "{}: equal seeds must give byte-identical results",
            batch.name()
        );
    }
}

#[test]
fn fcfs_drain_is_the_default_and_pins_the_pre_policy_scheduler() {
    // The default configuration must behave exactly as the scheduler
    // did before policies existed: FcfsDrain spelled out and the
    // untouched default are the same machine.
    assert_eq!(
        ServiceConfig::new(SystemKind::Bit32).batch,
        BatchPolicy::FcfsDrain
    );
    let traffic = TrafficConfig {
        seed: 0xBA5E,
        requests: 48,
        ..TrafficConfig::default()
    }
    .generate();
    let run = |config: ServiceConfig| {
        let mut svc = Service::new(config);
        svc.process(&traffic)
            .expect("sorted traffic")
            .to_json()
            .render()
    };
    let implicit = run(ServiceConfig::new(SystemKind::Bit32));
    let explicit = run(ServiceConfig {
        batch: BatchPolicy::FcfsDrain,
        ..ServiceConfig::new(SystemKind::Bit32)
    });
    assert_eq!(implicit, explicit, "FcfsDrain is the pre-policy scheduler");
}

#[test]
fn lanes_execute_a_batch_in_edf_order() {
    let tracer = Tracer::enabled();
    let mut svc = Service::new(ServiceConfig {
        batch: BatchPolicy::Lanes,
        kernels: vec![Kernel::PatMatch, Kernel::Jenkins],
        trace: tracer.clone(),
        ..ServiceConfig::new(SystemKind::Bit32)
    });
    let mut rng = SplitMix64::new(7);
    // A large pattern-matching request keeps the machine busy while
    // four Jenkins requests with scrambled deadlines pile up behind it;
    // they drain as one batch, which lanes must execute
    // earliest-deadline-first, not in arrival order.
    let mut schedule = vec![(
        SimTime::ZERO,
        Request::synthetic(Kernel::PatMatch, 8 * 1024, &mut rng),
    )];
    let budgets_ms = [400u64, 100, 300, 200];
    for (i, ms) in budgets_ms.iter().enumerate() {
        schedule.push((
            SimTime::from_us(10 + i as u64),
            Request::synthetic(Kernel::Jenkins, 256, &mut rng).with_deadline(SimTime::from_ms(*ms)),
        ));
    }
    let snap = svc.process(&schedule).expect("sorted traffic");
    assert_eq!(snap.completed, 5);
    // Journal order of Jenkins completions = execution order. The
    // Jenkins requests hold service ids 1..=4 in arrival order, so EDF
    // must complete them as 2 (100 ms), 4 (200 ms), 3 (300 ms),
    // 1 (400 ms).
    let completions: Vec<u64> = tracer
        .events()
        .iter()
        .filter_map(|ev| match &ev.kind {
            EventKind::RequestComplete { id, kernel, .. }
                if *kernel == Kernel::Jenkins.module_name() =>
            {
                Some(*id)
            }
            _ => None,
        })
        .collect();
    assert_eq!(completions, vec![2, 4, 3, 1], "EDF within the batch");
}

#[test]
fn starvation_guard_bounds_head_of_line_age() {
    // Sustained pattern-matching traffic would hold the region forever
    // under pure residency preference: arrivals outpace service, so the
    // anchor queue never empties, and the lone Jenkins request never
    // matures (hardware never pays for it). Only the guard can serve it.
    let tracer = Tracer::enabled();
    let mut svc = Service::new(ServiceConfig {
        batch: BatchPolicy::swap_aware(),
        kernels: vec![Kernel::PatMatch, Kernel::Jenkins],
        trace: tracer.clone(),
        ..ServiceConfig::new(SystemKind::Bit64)
    });
    let mut rng = SplitMix64::new(11);
    let mut schedule: Vec<(SimTime, Request)> = (0..120)
        .map(|i| {
            (
                SimTime::from_ms(2 * i as u64),
                Request::synthetic(Kernel::PatMatch, 10 * 1024, &mut rng),
            )
        })
        .collect();
    schedule.push((
        SimTime::from_ms(10),
        Request::synthetic(Kernel::Jenkins, 256, &mut rng),
    ));
    schedule.sort_by_key(|(t, _)| *t);
    svc.process(&schedule).expect("sorted traffic");
    // The guard is ten swaps' worth of the measured reconfiguration
    // EWMA (the anchor swapped in once, and Jenkins runs in software).
    let estimate = svc.cost_model().reconfig_estimate();
    assert!(!estimate.is_zero(), "the anchor module was swapped in");
    let jenkins = Kernel::Jenkins.module_name();
    let events = tracer.events();
    // Schedule times are offsets from the end of boot; the journal
    // carries the absolute arrival.
    let jenkins_arrival = events
        .iter()
        .find_map(|ev| match ev.kind {
            EventKind::RequestAdmit {
                kernel, arrival, ..
            } if kernel == jenkins => Some(arrival),
            _ => None,
        })
        .expect("jenkins is admitted");
    let deadline = jenkins_arrival + estimate * 10;
    let decisions: Vec<(SimTime, &str)> = events
        .iter()
        .filter_map(|ev| match &ev.kind {
            EventKind::SchedDecision { chosen, .. } => Some((ev.time, *chosen)),
            _ => None,
        })
        .collect();
    // Until the head is overdue the region stays with the anchor...
    assert!(
        decisions
            .iter()
            .all(|&(t, chosen)| t >= deadline || chosen != jenkins),
        "jenkins was served before its head aged past the {deadline} guard"
    );
    // ...and decisions only happen at batch boundaries, so the head
    // waits out at most the batch in flight at the deadline: the first
    // decision past it serves Jenkins.
    let first_due = decisions.iter().find(|&&(t, _)| t >= deadline);
    assert_eq!(
        first_due.map(|&(_, chosen)| chosen),
        Some(jenkins),
        "the first decision past the {deadline} guard must serve the overdue head"
    );
}
