//! Deterministic integration tests for the sharded cluster: equal seeds
//! reproduce identical routing decisions and metrics, a quarantined
//! shard sheds hardware-path work until its cooldown expires, the
//! streaming admission layer never materialises more than the bounded
//! per-shard buffers, and shards sharing one boot still hold exactly the
//! images their own floorplans link.

use vp2_repro::apps::request::{Kernel, Request};
use vp2_repro::cluster::{Cluster, ClusterConfig, RoutePolicy};
use vp2_repro::rtr::SystemKind;
use vp2_repro::service::{ServiceConfig, TrafficConfig};
use vp2_repro::sim::{SimTime, SplitMix64};

/// A small two-shard cluster restricted to two kernels so that boot and
/// the cost-model probes its routing reads stay cheap in debug builds.
fn small_cluster(policy: RoutePolicy) -> Cluster {
    Cluster::new(ClusterConfig {
        kernels: vec![Kernel::Jenkins, Kernel::PatMatch],
        flush_depth: 4,
        ..ClusterConfig::uniform(SystemKind::Bit32, 2, policy)
    })
}

#[test]
fn equal_seeds_reproduce_identical_routing_and_metrics() {
    let traffic = TrafficConfig {
        requests: 24,
        kernels: vec![Kernel::Jenkins, Kernel::PatMatch],
        ..TrafficConfig::default()
    };
    let run = || {
        let mut cluster = small_cluster(RoutePolicy::KernelAffinity);
        // Route by hand so the per-request shard choices are observable,
        // not just the aggregate outcome.
        let placements: Vec<usize> = traffic
            .stream()
            .map(|(t, req)| cluster.admit(t, req))
            .collect();
        cluster.flush_all();
        (placements, cluster.snapshot().to_json().render())
    };
    let (placements_a, json_a) = run();
    let (placements_b, json_b) = run();
    assert_eq!(placements_a, placements_b, "same seed, same shard choices");
    assert_eq!(json_a, json_b, "same seed, same metrics to the picosecond");
}

#[test]
fn quarantined_shard_sheds_hardware_work_until_cooldown_expires() {
    // Shard 0's configuration plane corrupts every frame, so its first
    // hardware loads fail and quarantine the kernel; shard 1 is clean.
    let cooldown = SimTime::from_us(200);
    let mut cluster = Cluster::new(ClusterConfig {
        shards: vec![
            ServiceConfig {
                quarantine_cooldown: cooldown,
                ..ServiceConfig::with_faults(SystemKind::Bit32, 1.0, 0xBAD)
            },
            ServiceConfig {
                quarantine_cooldown: cooldown,
                ..ServiceConfig::new(SystemKind::Bit32)
            },
        ],
        kernels: vec![Kernel::PatMatch, Kernel::Jenkins],
        flush_depth: 1, // flush every admission: failures surface at once
        ..ClusterConfig::uniform(SystemKind::Bit32, 2, RoutePolicy::RoundRobin)
    });
    let mut rng = SplitMix64::new(9);
    let mut t = SimTime::ZERO;
    let mut next = |gap: SimTime| {
        t += gap;
        t
    };

    // A lone pattern-matching request is always worth the swap, so every
    // admission attempts a hardware load; shard 0's all fail. Two strikes
    // quarantine the kernel there.
    let mut tries = 0;
    while !cluster.shards()[0].sheds(Kernel::PatMatch) {
        tries += 1;
        assert!(tries <= 8, "shard 0 never quarantined pattern matching");
        let req = Request::synthetic(Kernel::PatMatch, 1024, &mut rng);
        cluster.admit(next(SimTime::from_us(1)), req);
    }

    // While the quarantine holds, every new pattern-matching request is
    // shed to the healthy shard — shard 0 gets no new hardware-path work.
    let before_shed = cluster.snapshot().routing.shed;
    for _ in 0..6 {
        let req = Request::synthetic(Kernel::PatMatch, 1024, &mut rng);
        let placed = cluster.admit(next(SimTime::from_us(1)), req);
        assert_eq!(placed, 1, "quarantined shard must not receive new work");
    }
    // At least five of the six divert decisions are recorded as sheds
    // (the rotation may already point at the healthy shard for one).
    assert!(
        cluster.snapshot().routing.shed >= before_shed + 5,
        "the router records shed decisions"
    );

    // Jenkins is not quarantined, so round-robin still hands it to shard
    // 0; an arrival past the cooldown drags shard 0's clock beyond the
    // quarantine deadline, which re-opens the hardware path (half-open).
    let reopen = cluster.shards()[0].service().now() + cooldown + SimTime::from_us(1);
    for _ in 0..2 {
        let req = Request::synthetic(Kernel::Jenkins, 512, &mut rng);
        cluster.admit(reopen, req);
    }
    assert!(
        !cluster.shards()[0].sheds(Kernel::PatMatch),
        "cooldown expiry must lift the quarantine"
    );
    let placements: Vec<usize> = (0..4)
        .map(|_| {
            let req = Request::synthetic(Kernel::PatMatch, 1024, &mut rng);
            cluster.admit(reopen + SimTime::from_us(1), req)
        })
        .collect();
    assert!(
        placements.contains(&0),
        "after the cooldown shard 0 takes hardware-path work again: {placements:?}"
    );

    let snap = cluster.run(std::iter::empty());
    assert_eq!(snap.total.completed, cluster.admitted());
    assert_eq!(
        snap.total.verify_failures, 0,
        "sw fallback keeps answers right"
    );
}

#[test]
fn quarantine_deadline_lives_on_the_machine_clock_not_stream_time() {
    // A shard's boot origin (program downloads + warm-up) is many
    // milliseconds of machine time, all of it *before* stream instant 0.
    // The quarantine deadline is stamped on the machine clock, and
    // `Shard::flush` maps stream arrivals onto that clock via the boot
    // origin — so a cooldown much shorter than the origin must expire at
    // `(entry - origin) + cooldown` in *stream* time. If either side of
    // the comparison used raw stream time, the deadline would be off by
    // the entire boot origin: the quarantine would either outlive its
    // cooldown by milliseconds or lift the moment the next request
    // arrived. Probing moves the clock, so each side of the deadline
    // gets its own identically-seeded cluster.
    let cooldown = SimTime::from_us(200);
    let margin = SimTime::from_us(50);
    let boot = || {
        Cluster::new(ClusterConfig {
            shards: vec![ServiceConfig {
                quarantine_cooldown: cooldown,
                ..ServiceConfig::with_faults(SystemKind::Bit32, 1.0, 0xBAD)
            }],
            kernels: vec![Kernel::PatMatch],
            flush_depth: 1, // flush every admission: failures surface at once
            ..ClusterConfig::uniform(SystemKind::Bit32, 1, RoutePolicy::RoundRobin)
        })
    };
    // Drives the shard into quarantine and returns the stream-time
    // instant at which the deadline must expire. Deterministic: both
    // clusters take exactly the same strikes.
    let quarantine = |cluster: &mut Cluster| -> SimTime {
        let shard = &cluster.shards()[0];
        let origin = shard.service().now() - shard.elapsed();
        assert!(
            origin > cooldown,
            "the premise: boot origin {origin} dwarfs the {cooldown} cooldown"
        );
        let mut rng = SplitMix64::new(9);
        let mut stream_t = SimTime::ZERO;
        let mut tries = 0;
        while !cluster.shards()[0].sheds(Kernel::PatMatch) {
            tries += 1;
            assert!(tries <= 8, "shard never quarantined pattern matching");
            stream_t += SimTime::from_us(1);
            let req = Request::synthetic(Kernel::PatMatch, 1024, &mut rng);
            cluster.admit(stream_t, req);
        }
        // The deadline was stamped at the end of the striking batch —
        // machine clock `entry`, read right after its flush settled.
        let entry = cluster.shards()[0].service().now();
        (entry - origin) + cooldown
    };

    // Just before the stream-time expiry the quarantine must hold: the
    // probe batch is barred from hardware and counted as quarantined.
    let mut early = boot();
    let expiry_stream = quarantine(&mut early);
    let mut rng = SplitMix64::new(77);
    let probe = Request::synthetic(Kernel::PatMatch, 1024, &mut rng);
    early.admit(expiry_stream - margin, probe);
    assert_eq!(
        early.snapshot().total.quarantined_batches,
        1,
        "deadline expired {margin} early in stream time — half of the \
         comparison is skipping the boot-origin mapping"
    );

    // Just past it, the quarantine must lift: the same probe goes to
    // hardware as a half-open canary attempt instead of being held back.
    let mut late = boot();
    let expiry_b = quarantine(&mut late);
    assert_eq!(expiry_stream, expiry_b, "identical seeds, identical entry");
    let mut rng = SplitMix64::new(77);
    let probe = Request::synthetic(Kernel::PatMatch, 1024, &mut rng);
    late.admit(expiry_b + margin, probe);
    let snap = late.snapshot();
    assert_eq!(
        snap.total.quarantined_batches, 0,
        "quarantine outlived its cooldown past {expiry_b} + {margin} in \
         stream time — the deadline is being compared against raw stream \
         time"
    );
    assert_eq!(
        snap.total.canary_probes, 1,
        "the first post-expiry hardware batch is the canary probe"
    );
}

#[test]
fn least_loaded_counts_quarantine_diversions_as_shed() {
    // Shard 0's configuration plane corrupts every frame; two failed
    // hardware loads quarantine pattern matching there. Least-loaded
    // routing must then divert the kernel's work to shard 1 *and record
    // the diversions as shed* whenever shard 0 — idle, with the older
    // machine clock — is the shard the load estimate would have picked.
    let mut cluster = Cluster::new(ClusterConfig {
        shards: vec![
            ServiceConfig {
                quarantine_cooldown: SimTime::from_ms(500),
                ..ServiceConfig::with_faults(SystemKind::Bit32, 1.0, 0xBAD)
            },
            ServiceConfig {
                quarantine_cooldown: SimTime::from_ms(500),
                ..ServiceConfig::new(SystemKind::Bit32)
            },
        ],
        kernels: vec![Kernel::PatMatch],
        flush_depth: 1,
        ..ClusterConfig::uniform(SystemKind::Bit32, 2, RoutePolicy::LeastLoaded)
    });
    let mut rng = SplitMix64::new(13);
    let mut t = SimTime::ZERO;
    // Wide arrival spacing: each flush drags the serving shard's clock
    // up to the arrival, so the load estimate alternates between the
    // shards instead of avoiding the faulty one (whose degraded loads
    // and software fallbacks leave its clock milliseconds ahead).
    let mut tries = 0;
    while !cluster.shards()[0].sheds(Kernel::PatMatch) {
        tries += 1;
        assert!(tries <= 16, "shard 0 never quarantined pattern matching");
        t += SimTime::from_ms(10);
        let req = Request::synthetic(Kernel::PatMatch, 1024, &mut rng);
        cluster.admit(t, req);
    }
    let before = cluster.snapshot().routing;
    // Shard 0's failed loads and software fallbacks left its clock far
    // ahead, so at first shard 1 is genuinely the least-loaded pick and
    // the placements count as base — nothing was diverted. Once shard
    // 1's clock overtakes the frozen clock of the idle quarantined
    // shard, shard 0 becomes the pick the load estimate would make, and
    // every further placement must be recorded as shed.
    for _ in 0..32 {
        t += SimTime::from_ms(10);
        let req = Request::synthetic(Kernel::PatMatch, 1024, &mut rng);
        let placed = cluster.admit(t, req);
        assert_eq!(placed, 1, "quarantined shard must not receive new work");
    }
    let after = cluster.snapshot().routing;
    assert!(
        after.base > before.base,
        "placements shard 1 would have won anyway are base: \
         before {before:?}, after {after:?}"
    );
    assert!(
        after.shed >= before.shed + 5,
        "diversions off the quarantined least-loaded pick must be shed: \
         before {before:?}, after {after:?}"
    );
}

#[test]
fn flush_maps_stream_time_onto_the_machine_clock() {
    // Sixteen cheap requests, one every millisecond, all buffered until a
    // single final flush. The machine clock starts well past zero
    // (program downloads, warm-up), so if the flush rebased arrivals against
    // "now" instead of the shard's boot origin, every arrival would clamp
    // to the flush instant: the machine would never idle between requests
    // and the run would finish in a fraction of the stream's 15 ms span.
    let gap = SimTime::from_ms(1);
    let mut cluster = Cluster::new(ClusterConfig {
        kernels: vec![Kernel::Jenkins],
        flush_depth: 64,
        ..ClusterConfig::uniform(SystemKind::Bit32, 1, RoutePolicy::RoundRobin)
    });
    let mut rng = SplitMix64::new(7);
    for i in 0..16u64 {
        let req = Request::synthetic(Kernel::Jenkins, 256, &mut rng);
        cluster.admit(SimTime::from_ms(i), req);
    }
    let snap = cluster.run(std::iter::empty());
    assert_eq!(snap.total.completed, 16);
    assert!(
        snap.makespan >= SimTime::from_ms(15),
        "open-loop pacing erased: 1 ms arrival gaps compressed into a {} makespan",
        snap.makespan
    );
    // The machine keeps up with this sparse stream, so a typical request
    // is served on arrival and its latency is the bare service time, far
    // below the gap. (The median, not the max: the first hardware run
    // after boot carries a one-off multi-millisecond setup cost whose
    // backlog takes a few arrivals to drain.) Were latency measured from
    // the flush instant instead of the true arrival, every request would
    // appear to queue behind all of its predecessors and the median
    // would blow past the gap.
    assert!(
        snap.total.latency_p50 < gap,
        "median latency {} measured from the flush instant, not the true arrival",
        snap.total.latency_p50
    );
}

#[test]
fn latency_includes_admission_buffer_wait() {
    // Sixteen requests all arriving at stream time zero on one shard,
    // flushed four at a time. Requests in later flush windows spend most
    // of the run waiting — first in the admission buffer, then behind a
    // busy machine — and all of that wait must show up as latency: the
    // last completion's latency is the whole makespan. Measuring from
    // each flush instant instead would silently drop the buffered wait.
    let mut cluster = Cluster::new(ClusterConfig {
        kernels: vec![Kernel::Jenkins],
        flush_depth: 4,
        ..ClusterConfig::uniform(SystemKind::Bit32, 1, RoutePolicy::RoundRobin)
    });
    let mut rng = SplitMix64::new(11);
    for _ in 0..16 {
        let req = Request::synthetic(Kernel::Jenkins, 4096, &mut rng);
        cluster.admit(SimTime::ZERO, req);
    }
    let snap = cluster.run(std::iter::empty());
    assert_eq!(snap.total.completed, 16);
    assert_eq!(
        snap.total.latency_max, snap.makespan,
        "the last request arrived at time zero and finished last: its \
         latency is the makespan, unless buffered wait was dropped"
    );
}

#[test]
fn streaming_admission_keeps_peak_residency_bounded() {
    let traffic = TrafficConfig {
        requests: 64,
        kernels: vec![Kernel::Jenkins],
        burst_percent: 100, // worst case: arrivals pile up instantly
        ..TrafficConfig::default()
    };
    let mut cluster = Cluster::new(ClusterConfig {
        kernels: vec![Kernel::Jenkins],
        flush_depth: 4,
        ..ClusterConfig::uniform(SystemKind::Bit32, 2, RoutePolicy::RoundRobin)
    });
    let snap = cluster.run(traffic.stream());
    assert_eq!(cluster.admitted(), 64);
    assert_eq!(snap.total.completed, 64);
    // 64 requests flowed through, but at most shards x flush_depth were
    // ever resident in admission buffers: the schedule is never held.
    assert!(
        snap.peak_buffered <= 2 * 4,
        "peak {} exceeds shards x flush_depth",
        snap.peak_buffered
    );
}

#[test]
fn per_shard_batch_policies_are_honored_and_deterministic() {
    // A mixed-policy pool: shard 0 schedules swap-aware, shard 1 lanes.
    // The pool must serve everything, verify every response, and equal
    // seeds must reproduce the run byte-for-byte — per-shard policies
    // included.
    use vp2_repro::service::BatchPolicy;
    let traffic = TrafficConfig {
        requests: 24,
        kernels: vec![Kernel::Jenkins, Kernel::PatMatch],
        deadline_percent: 25,
        deadline_budget: SimTime::from_ms(5),
        ..TrafficConfig::default()
    };
    let run = || {
        let mut cluster = Cluster::new(ClusterConfig {
            shards: vec![
                ServiceConfig {
                    batch: BatchPolicy::swap_aware(),
                    ..ServiceConfig::new(SystemKind::Bit32)
                },
                ServiceConfig {
                    batch: BatchPolicy::Lanes,
                    ..ServiceConfig::new(SystemKind::Bit32)
                },
            ],
            kernels: vec![Kernel::Jenkins, Kernel::PatMatch],
            flush_depth: 4,
            ..ClusterConfig::uniform(SystemKind::Bit32, 2, RoutePolicy::RoundRobin)
        });
        cluster.run(traffic.stream()).to_json().render()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "mixed-policy cluster must be deterministic");
    let json = vp2_repro::sim::Json::parse(&a).expect("valid JSON");
    let total = json.get("total").expect("total metrics");
    assert_eq!(
        total
            .get("completed")
            .and_then(vp2_repro::sim::Json::as_f64),
        Some(24.0)
    );
    assert_eq!(
        total
            .get("verify_failures")
            .and_then(vp2_repro::sim::Json::as_f64),
        Some(0.0)
    );
}

#[test]
fn same_kind_shards_with_different_floorplans_link_their_own_images() {
    use vp2_repro::apps::request::{component_for, component_for_slot, factory_for};
    use vp2_repro::bitstream::{idcode_for, partial_bitstream};
    use vp2_repro::configplane::ConfigPlaneConfig;
    use vp2_repro::rtr::ModuleManager;

    // Three Bit64 shards in one cluster, so one boot share: a single-slot
    // region with region-wide components, and two mirrored two-slot
    // floorplans whose components are identical (both sized for the
    // narrower slot) but whose slots cover different columns.
    let kind = SystemKind::Bit64;
    let kernels = vec![Kernel::Jenkins, Kernel::Brightness];
    let width = kind.region().width();
    let floorplans = [vec![], vec![12, width - 12], vec![width - 12, 12]];
    let plane = |slot_widths: &Vec<u16>| ConfigPlaneConfig {
        slot_widths: slot_widths.clone(),
        ..ConfigPlaneConfig::default()
    };
    let mut cluster = Cluster::new(ClusterConfig {
        shards: floorplans
            .iter()
            .map(|w| ServiceConfig {
                plane: plane(w),
                ..ServiceConfig::new(kind)
            })
            .collect(),
        kernels: kernels.clone(),
        flush_depth: 4,
        ..ClusterConfig::uniform(kind, 1, RoutePolicy::RoundRobin)
    });

    // Every shard holds exactly the images a manager linking on its own
    // would, for every module and sub-slot of its floorplan.
    let mut slot0_streams = Vec::new();
    for (shard, slot_widths) in cluster.shards().iter().zip(&floorplans) {
        let manager = shard.service().manager();
        let mut alone = ModuleManager::new(kind);
        alone.configure_plane(plane(slot_widths)).unwrap();
        for &kernel in &kernels {
            let component = match slot_widths.iter().min() {
                Some(&w) => component_for_slot(kernel, kind, w),
                None => component_for(kernel, kind),
            }
            .expect("both kernels fit every floorplan's narrowest slot");
            alone
                .register(component, (0, 0), factory_for(kernel))
                .unwrap();
        }
        for &kernel in &kernels {
            let name = kernel.module_name();
            for slot in 0..manager.slot_plan().len() {
                assert_eq!(
                    manager.linked_image(name, slot).map(|i| &**i),
                    alone.linked_image(name, slot).map(|i| &**i),
                    "shard {} {name} slot {slot}: shared image differs from its own link",
                    shard.id()
                );
            }
        }
        let image = manager
            .linked_image(Kernel::Jenkins.module_name(), 0)
            .unwrap();
        let frames = &manager.slot_plan().slots[0].frames;
        slot0_streams.push(partial_bitstream(
            image,
            frames,
            idcode_for(kind.device().kind),
        ));
    }
    // The slot-0 images can hold equal frames (the placer packs the same
    // netlist the same way into either width), but each floorplan's slot 0
    // covers other columns, so the stream a load feeds differs.
    for (a, b) in [(0, 1), (0, 2), (1, 2)] {
        assert_ne!(
            slot0_streams[a], slot0_streams[b],
            "shards {a} and {b} differ in floorplan, so in their images"
        );
    }

    // And every shard serves verified requests on its hardware path.
    let traffic = TrafficConfig {
        requests: 36,
        kernels,
        min_payload: 4 * 1024,
        max_payload: 8 * 1024,
        ..TrafficConfig::default()
    };
    let snap = cluster.run(traffic.stream());
    assert_eq!(snap.total.completed, 36, "every request served");
    for shard in &snap.shards {
        assert_eq!(shard.metrics.verify_failures, 0, "shard {}", shard.id);
        assert!(
            shard.metrics.hw_items > 0,
            "shard {} ran hardware",
            shard.id
        );
    }
}

#[test]
fn a_shard_keeps_its_own_service_policy() {
    // A pool shard is a full `ServiceConfig`, so settings the cluster
    // does not own reach the shard's service unchanged: shard 0 runs the
    // paper's software-only baseline beside two cost-model shards.
    use vp2_repro::service::Policy;
    let kind = SystemKind::Bit64;
    let kernels = vec![Kernel::Jenkins, Kernel::Brightness];
    let mut cluster = Cluster::new(ClusterConfig {
        shards: vec![
            ServiceConfig {
                policy: Policy::SwOnly,
                ..ServiceConfig::new(kind)
            },
            ServiceConfig::new(kind),
            ServiceConfig::new(kind),
        ],
        kernels: kernels.clone(),
        flush_depth: 4,
        ..ClusterConfig::uniform(kind, 3, RoutePolicy::RoundRobin)
    });
    let traffic = TrafficConfig {
        requests: 36,
        kernels,
        min_payload: 4 * 1024,
        max_payload: 8 * 1024,
        ..TrafficConfig::default()
    };
    let snap = cluster.run(traffic.stream());
    assert_eq!(snap.total.completed, 36, "every request served");
    assert_eq!(snap.total.verify_failures, 0, "every response verified");
    for shard in &snap.shards {
        assert_eq!(shard.metrics.verify_failures, 0, "shard {}", shard.id);
        if shard.id == 0 {
            assert_eq!(shard.metrics.hw_items, 0, "the SwOnly shard ran hardware");
        } else {
            assert!(
                shard.metrics.hw_items > 0,
                "cost-model shard {} never ran hardware",
                shard.id
            );
        }
    }
}
