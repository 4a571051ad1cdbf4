//! Heap gate on the configuration path: no load, retry, repair patch,
//! scrub repair or unload holds a whole configuration stream. A counting
//! global allocator tracks the live heap and its high-water mark; each
//! operation on a Bit64 manager with every kernel must keep the
//! high-water mark within 64 KiB of the larger of the live heap before
//! and after it, and a scrub pass that finds nothing to repair may not
//! allocate at all. A full-slot stream on Bit64 is 154,394 words (603 KiB),
//! so holding one — or buffering it in the HWICAP, or parsing a copy of
//! its FDRI payload — fails this test, not only the RSS metric.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use vp2_repro::apps::request::{component_for, factory_for, Kernel};
use vp2_repro::bitstream::FaultPlan;
use vp2_repro::rtr::manager::{LoadOutcome, ModuleManager, RetryPolicy, ScrubPolicy};
use vp2_repro::rtr::{build_system, SystemKind};
use vp2_repro::sim::SimTime;

/// Bytes live on the heap, and the most that were live since the last
/// reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                Counting::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// What an operation may hold on the heap beyond what is live before or
/// after it: a frame being assembled, the frame order of one stream, the
/// readback's mismatch lists — never a stream.
const SLACK: usize = 64 * 1024;

/// Runs `op`, asserting its heap high-water mark stays within `slack`
/// bytes of the larger of the live heap before and after.
fn gated<T>(what: &str, slack: usize, op: impl FnOnce() -> T) -> T {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = op();
    let after = LIVE.load(Relaxed);
    let transient = PEAK.load(Relaxed) - before.max(after);
    assert!(
        transient <= slack,
        "{what}: the heap peaked {transient} B above the larger of the live heap \
         before ({before} B) and after ({after} B)"
    );
    out
}

#[test]
fn no_configuration_operation_holds_a_stream() {
    let kind = SystemKind::Bit64;
    let mut mgr = ModuleManager::new(kind);
    let mut names = Vec::new();
    for kernel in Kernel::ALL {
        if let Some(c) = component_for(kernel, kind) {
            mgr.register(c, (0, 0), factory_for(kernel))
                .unwrap_or_else(|e| panic!("register {kernel}: {e}"));
            names.push(kernel.module_name());
        }
    }
    assert!(names.len() >= 3, "three kernels to swap between");
    let mut m = build_system(kind);

    // A plane-off cold load: one full-slot stream, fed once.
    let out = gated("cold load", SLACK, || {
        mgr.load(&mut m, names[0]).expect("loads")
    });
    assert!(
        matches!(out, LoadOutcome::Loaded { attempts: 1, .. }),
        "{out:?}"
    );
    assert_eq!(mgr.full_streams_cut(), 1);

    // Every frame arrives corrupted. With no repair passes, the second
    // attempt is a forced retry: a second full-slot stream.
    m.platform.icap.set_fault_plan(Some(FaultPlan::new(3, 1.0)));
    mgr.retry = RetryPolicy {
        max_attempts: 2,
        max_repairs_per_attempt: 0,
        backoff: SimTime::from_us(50),
    };
    let out = gated("forced retry", SLACK, || {
        mgr.load(&mut m, names[1]).expect("feeds")
    });
    assert_eq!(out, LoadOutcome::Degraded { attempts: 2 });
    assert_eq!(mgr.full_streams_cut(), 3);

    // One attempt, one repair patch over every mismatched frame.
    mgr.retry = RetryPolicy {
        max_attempts: 1,
        max_repairs_per_attempt: 1,
        backoff: SimTime::from_us(50),
    };
    let out = gated("repair patch", SLACK, || {
        mgr.load(&mut m, names[2]).expect("feeds")
    });
    assert_eq!(out, LoadOutcome::Degraded { attempts: 1 });
    let health = mgr.module_health(names[2]).expect("loaded once");
    assert!(health.repaired_frames > 0, "the repair patch was fed");

    // A clean load, then a scrub pass that finds upset frames and feeds
    // their repair stream.
    m.platform.icap.set_fault_plan(None);
    mgr.retry = RetryPolicy::default();
    let out = mgr.load(&mut m, names[0]).expect("loads");
    assert!(matches!(out, LoadOutcome::Loaded { .. }), "{out:?}");
    let slot_frames = mgr.slot_plan().slots[0].frames.clone();
    let period = SimTime::from_us(100);
    mgr.set_scrub(Some(ScrubPolicy {
        period,
        frames_per_pass: slot_frames.len() as u32,
    }));
    mgr.scrub_tick(&mut m);

    // A clean pass reads back every frame and finds nothing: it walks the
    // slot plan in place and holds no heap at all.
    let now = m.cpu.now();
    m.cpu.advance_time_to(now + period);
    gated("clean scrub pass", 0, || mgr.scrub_tick(&mut m));
    let scrub = mgr.scrub_stats();
    assert_eq!((scrub.passes, scrub.repairs), (1, 0), "{scrub:?}");

    for &a in slot_frames.iter().step_by(7) {
        m.platform.config.frame_mut(a)[0] ^= 1;
    }
    let now = m.cpu.now();
    m.cpu.advance_time_to(now + period);
    gated("scrub pass", SLACK, || mgr.scrub_tick(&mut m));
    let scrub = mgr.scrub_stats();
    assert_eq!(scrub.repairs, 1, "{scrub:?}");
    assert!(scrub.frames_repaired > 0, "{scrub:?}");

    // Unload: the blank configuration, cut from the erased base.
    gated("unload", SLACK, || mgr.unload(&mut m).expect("unloads"));
    assert_eq!(mgr.loaded(), None);
}
