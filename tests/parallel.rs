//! Integration tests for the parallel shard-execution engine: equal
//! seeds must produce byte-identical cluster snapshots and trace
//! exports at every thread count — inline, a small pool, and a pool
//! wider than the shard count — including under fault injection with
//! active quarantine shedding, and including the streamed journal
//! files on disk.

use vp2_repro::apps::request::Kernel;
use vp2_repro::cluster::{Cluster, ClusterConfig, RoutePolicy};
use vp2_repro::rtr::SystemKind;
use vp2_repro::service::{ServiceConfig, TrafficConfig};
use vp2_repro::sim::Json;
use vp2_repro::trace::{chrome_trace, Tracer};

/// Thread counts every determinism assertion sweeps: inline, a pool
/// smaller than the shard count, and a pool wider than it.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// One traced 3-shard kernel-affinity run at the given thread count:
/// returns the snapshot JSON and the Chrome trace render — both must be
/// a pure function of the seed, never of the thread count.
fn traced_run(threads: usize) -> (String, String) {
    let tracer = Tracer::enabled();
    let mut cluster = Cluster::new(ClusterConfig {
        kernels: vec![Kernel::Jenkins, Kernel::PatMatch],
        flush_depth: 4,
        trace: tracer.clone(),
        threads,
        ..ClusterConfig::uniform(SystemKind::Bit32, 3, RoutePolicy::KernelAffinity)
    });
    let traffic = TrafficConfig {
        seed: 0xDE7E_12A1,
        requests: 36,
        kernels: vec![Kernel::Jenkins, Kernel::PatMatch],
        ..TrafficConfig::default()
    };
    let snap = cluster.run(traffic.stream());
    assert_eq!(cluster.threads(), threads.max(1));
    (
        snap.to_json().render_pretty(),
        chrome_trace(&tracer.events()).render(),
    )
}

/// A faulted round-robin run (shard 0 corrupts every frame, flush depth
/// 1 so quarantine probes interleave with in-flight flushes): snapshot
/// JSON again, with the router forced through the join-before-read path
/// on every admission.
fn faulted_run(threads: usize) -> String {
    let mut shards = vec![ServiceConfig::new(SystemKind::Bit32); 3];
    shards[0] = ServiceConfig::with_faults(SystemKind::Bit32, 1.0, 0xBAD);
    let mut cluster = Cluster::new(ClusterConfig {
        shards,
        kernels: vec![Kernel::Jenkins],
        flush_depth: 1,
        threads,
        ..ClusterConfig::uniform(SystemKind::Bit32, 3, RoutePolicy::RoundRobin)
    });
    let traffic = TrafficConfig {
        seed: 0xFA_17ED,
        requests: 24,
        kernels: vec![Kernel::Jenkins],
        ..TrafficConfig::default()
    };
    cluster.run(traffic.stream()).to_json().render_pretty()
}

#[test]
fn snapshots_and_traces_are_identical_at_any_thread_count() {
    let (snap_inline, trace_inline) = traced_run(1);
    assert!(
        snap_inline.contains("\"shard_count\""),
        "sanity: a real snapshot"
    );
    for threads in &THREAD_COUNTS[1..] {
        let (snap, trace) = traced_run(*threads);
        assert_eq!(snap_inline, snap, "snapshot diverged at {threads} threads");
        assert_eq!(
            trace_inline, trace,
            "trace export diverged at {threads} threads"
        );
    }
}

#[test]
fn fault_injection_and_shedding_stay_deterministic_under_parallelism() {
    let inline = faulted_run(1);
    // The run must actually exercise the quarantine path — a shed count
    // of zero would make this determinism check vacuous.
    let doc = Json::parse(&inline).expect("snapshot is valid JSON");
    let shed = doc
        .get("routing")
        .and_then(|r| r.get("shed"))
        .and_then(Json::as_f64)
        .expect("routing.shed");
    assert!(shed > 0.0, "the faulted shard must shed load");
    for threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            inline,
            faulted_run(*threads),
            "faulted snapshot diverged at {threads} threads"
        );
    }
}

/// A burst-and-scrub run: shard 0 rides an ambient upset plan with
/// background scrubbing on, shard 1 scrubs a clean fabric, shard 2 is
/// bare. Returns the snapshot JSON and the merged journal — scrub
/// passes tick on each shard's machine clock inside worker-thread
/// flushes, so this is the determinism test for the scrub scheduler.
fn scrubbed_run(threads: usize) -> (String, String) {
    use vp2_repro::service::{BurstConfig, ScrubPolicy};
    let scrub = ScrubPolicy {
        period: vp2_repro::sim::SimTime::from_us(50),
        frames_per_pass: 16,
    };
    let burst = BurstConfig {
        mean_gap: vp2_repro::sim::SimTime::from_us(200),
        mean_burst: vp2_repro::sim::SimTime::from_us(100),
        window: 8,
        max_bits: 2,
        ..BurstConfig::new(0xB0B5, 0.5)
    };
    let base = std::env::temp_dir().join(format!(
        "vp2_scrub_journal_{}_{threads}",
        std::process::id()
    ));
    let base = base.to_str().expect("utf-8 temp path").to_string();
    let tracer = Tracer::enabled();
    tracer.stream_to(&base).expect("attach journal streams");
    let mut cluster = Cluster::new(ClusterConfig {
        shards: vec![
            ServiceConfig {
                burst: Some(burst),
                scrub: Some(scrub),
                ..ServiceConfig::new(SystemKind::Bit32)
            },
            ServiceConfig {
                scrub: Some(scrub),
                ..ServiceConfig::new(SystemKind::Bit32)
            },
            ServiceConfig::new(SystemKind::Bit32),
        ],
        kernels: vec![Kernel::Jenkins, Kernel::PatMatch],
        flush_depth: 4,
        trace: tracer.clone(),
        threads,
        ..ClusterConfig::uniform(SystemKind::Bit32, 3, RoutePolicy::KernelAffinity)
    });
    let traffic = TrafficConfig {
        seed: 0x5C_12B5,
        requests: 36,
        kernels: vec![Kernel::Jenkins, Kernel::PatMatch],
        ..TrafficConfig::default()
    };
    let snap = cluster.run(traffic.stream());
    let merged_path = format!("{base}.merged.jsonl");
    tracer.merge_streams(&merged_path).expect("merge journals");
    let merged = std::fs::read_to_string(&merged_path).expect("read merged journal");
    for path in tracer.flush_streams().expect("stream paths") {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_file(&merged_path);
    (snap.to_json().render_pretty(), merged)
}

#[test]
fn scrubbing_stays_deterministic_under_parallelism() {
    let (snap_inline, journal_inline) = scrubbed_run(1);
    // The determinism claim is vacuous unless scrubbing actually ran
    // and the burst plan actually dirtied frames for it to repair.
    assert!(
        journal_inline.contains("scrub_pass"),
        "the scrubbed shards must journal scrub passes"
    );
    assert!(
        journal_inline.contains("fault_hit"),
        "the burst plan must land upsets during the run"
    );
    for threads in &THREAD_COUNTS[1..] {
        let (snap, journal) = scrubbed_run(*threads);
        assert_eq!(
            snap_inline, snap,
            "scrubbed snapshot diverged at {threads} threads"
        );
        assert_eq!(
            journal_inline, journal,
            "scrubbed merged journal diverged at {threads} threads"
        );
    }
}

#[test]
fn streamed_journals_merge_identically_at_any_thread_count() {
    let journal_for = |threads: usize| -> String {
        let base = std::env::temp_dir().join(format!(
            "vp2_parallel_journal_{}_{threads}",
            std::process::id()
        ));
        let base = base.to_str().expect("utf-8 temp path").to_string();
        let tracer = Tracer::enabled();
        tracer.stream_to(&base).expect("attach journal streams");
        let mut cluster = Cluster::new(ClusterConfig {
            kernels: vec![Kernel::Jenkins, Kernel::PatMatch],
            flush_depth: 4,
            trace: tracer.clone(),
            threads,
            ..ClusterConfig::uniform(SystemKind::Bit32, 3, RoutePolicy::KernelAffinity)
        });
        let traffic = TrafficConfig {
            seed: 0x57_12EA,
            requests: 36,
            kernels: vec![Kernel::Jenkins, Kernel::PatMatch],
            ..TrafficConfig::default()
        };
        cluster.run(traffic.stream());
        let merged_path = format!("{base}.merged.jsonl");
        let lines = tracer.merge_streams(&merged_path).expect("merge journals");
        assert!(lines > 0, "a traced run streams events");
        let merged = std::fs::read_to_string(&merged_path).expect("read merged journal");
        // Clean up the per-shard and merged files; the content travels
        // back as the comparison key.
        for path in tracer.flush_streams().expect("stream paths") {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_file(&merged_path);
        merged
    };
    let inline = journal_for(1);
    assert!(
        inline.lines().count() > 36,
        "the journal holds more than one event per request"
    );
    for threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            inline,
            journal_for(*threads),
            "merged journal diverged at {threads} threads"
        );
    }
}
