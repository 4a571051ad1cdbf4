//! Asserts the paper's qualitative claims ("shapes") against the
//! reproduction's measurements. Each test quotes the prose it checks.
//! EXPERIMENTS.md discusses the two documented deviations.

use vp2_repro::apps::harness::Comparison;
use vp2_repro::apps::imaging::{self, Task};
use vp2_repro::apps::request::{compare, Driver};
use vp2_repro::apps::{patmatch, sha1, Request, Response, Work};
use vp2_repro::rtr::measure::{dma_transfer_time, program_transfer_time, TransferKind};
use vp2_repro::rtr::{build_system, SystemKind};
use vp2_repro::sim::SplitMix64;

const PATTERN: [u8; 8] = [0xA5, 0x3C, 0x7E, 0x81, 0x42, 0x99, 0x18, 0xE7];

/// Pattern matching over a seeded random `w`×`h` image.
fn patmatch_request(w: usize, h: usize, seed: u64) -> Request {
    let image = patmatch::BinaryImage::random(w, h, seed);
    Work::PatMatch {
        image,
        pattern: PATTERN,
    }
    .into()
}

/// `len` bytes from a SplitMix64 stream seeded with `seed`.
fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut v = vec![0u8; len];
    SplitMix64::new(seed).fill_bytes(&mut v);
    v
}

/// A table-5 style imaging request on `n` pixels.
fn imaging_request(task: Task, n: usize, seed: u64) -> Request {
    let (a, b, param) = imaging::paper_inputs(task, n, seed);
    Work::Imaging { task, a, b, param }.into()
}

/// Table 12's measurement: software on the 64-bit system against the DMA
/// hardware path, with the data preparation reported separately.
fn dma_comparison(task: Task, n: usize, seed: u64) -> Comparison {
    let (a, b, param) = imaging::paper_inputs(task, n, seed);
    let (hw, prep, got) =
        imaging::dma_run(&mut build_system(SystemKind::Bit64), task, &a, &b, param);
    let req = Request::from(Work::Imaging { task, a, b, param });
    assert_eq!(Response::Image(got), req.reference(), "dma hw {task:?}");
    let (sw, _) = Driver::new().run_sw(&mut build_system(SystemKind::Bit64), &req);
    Comparison { sw, hw, prep }
}

/// "A decrease in transfer time between 4 and 6 times, depending on the
/// transfer type, can be observed." (Table 7 vs Table 2.)
#[test]
fn cpu_transfers_improve_4_to_6x() {
    for kind in [
        TransferKind::Write,
        TransferKind::Read,
        TransferKind::WriteRead,
    ] {
        let mut m32 = build_system(SystemKind::Bit32);
        let t32 = program_transfer_time(&mut m32, kind, 2048);
        let mut m64 = build_system(SystemKind::Bit64);
        let t64 = program_transfer_time(&mut m64, kind, 2048);
        let ratio = t32.as_ps() as f64 / t64.as_ps() as f64;
        assert!(
            (3.0..8.0).contains(&ratio),
            "{kind:?}: expected roughly 4-6x, got {ratio:.2}"
        );
    }
}

/// "In this method, each transfer involves a 64-bit value, using the data
/// path to the fullest" — DMA clearly beats CPU-controlled transfers.
#[test]
fn dma_beats_cpu_controlled() {
    for kind in [TransferKind::Write, TransferKind::Read] {
        let mut m = build_system(SystemKind::Bit64);
        let dma = dma_transfer_time(&mut m, kind, 2048);
        let mut m = build_system(SystemKind::Bit64);
        let cpu = program_transfer_time(&mut m, kind, 2048);
        assert!(
            dma < cpu,
            "{kind:?}: 64-bit DMA ({dma}) must beat 32-bit CPU transfers ({cpu})"
        );
    }
}

/// "Speedup factors of more than 26 were obtained" (Table 3).
#[test]
fn patmatch_speedup_exceeds_26x_on_the_32bit_system() {
    let c = compare(SystemKind::Bit32, &patmatch_request(96, 32, 5));
    assert!(c.speedup() > 26.0, "got {:.1}", c.speedup());
}

/// "Both tasks benefit greatly from the new system and both software and
/// hardware implementations perform considerably better." (Table 9.)
#[test]
fn patmatch_absolute_times_improve_on_the_64bit_system() {
    let req = patmatch_request(64, 16, 6);
    let c32 = compare(SystemKind::Bit32, &req);
    let c64 = compare(SystemKind::Bit64, &req);
    assert!(c64.sw < c32.sw, "software improves");
    assert!(c64.hw < c32.hw, "hardware improves");
    assert!(
        c64.speedup() > 10.0,
        "hardware maintains a considerable advantage: {:.1}",
        c64.speedup()
    );
}

/// "The speedup in this case is much more modest" (Table 4) and the 64-bit
/// system shows "a slightly better speedup" (Table 10).
#[test]
fn jenkins_speedup_is_modest_and_improves_slightly() {
    let req = Request::from(Work::Jenkins {
        key: seeded_bytes(8192, 9),
        initval: 0x1234_5678,
    });
    let c32 = compare(SystemKind::Bit32, &req);
    assert!(
        (0.8..6.0).contains(&c32.speedup()),
        "32-bit: {:.2}",
        c32.speedup()
    );
    let c64 = compare(SystemKind::Bit64, &req);
    assert!(
        c64.speedup() > c32.speedup() * 0.9,
        "64-bit at least comparable: {:.2} vs {:.2}",
        c64.speedup(),
        c32.speedup()
    );
    // Far below the pattern matcher's factor either way.
    assert!(c32.speedup() < 10.0);
}

/// "Our implementation does not fit into the dynamic area of the 32-bit
/// system" (Table 11 discussion) — checked against the actual netlist.
#[test]
fn sha1_fits_only_the_64bit_region() {
    use vp2_repro::netlist::AutoPlacer;
    let nl = sha1::sha1_netlist();
    assert!(
        AutoPlacer::new().place(&nl, 28, 11).is_err(),
        "must not fit 308 CLBs"
    );
    assert!(
        AutoPlacer::new().place(&nl, 32, 24).is_ok(),
        "must fit 768 CLBs"
    );
}

/// "The results of table 11 show a considerable performance gain for the
/// hardware implementation."
#[test]
fn sha1_gains_considerably() {
    let msg = seeded_bytes(4096, 10);
    let c = compare(SystemKind::Bit64, &Work::Sha1 { msg }.into());
    assert!(c.speedup() > 3.0, "got {:.2}", c.speedup());
}

/// "The software implementation … has a large overhead for smaller data
/// sets. The overhead's relative importance decreases for larger data
/// sets."
#[test]
fn sha1_software_overhead_shrinks_with_size() {
    let sw_time = |len: usize| {
        let req = Request::from(Work::Sha1 {
            msg: vec![1u8; len],
        });
        Driver::new()
            .run_sw(&mut build_system(SystemKind::Bit64), &req)
            .0
    };
    let (t_small, t_large) = (sw_time(64), sw_time(16384));
    let per_byte_small = t_small.as_ns_f64() / 64.0;
    let per_byte_large = t_large.as_ns_f64() / 16384.0;
    assert!(per_byte_small > 1.5 * per_byte_large);
}

/// Table 5: hardware wins on all three tasks; "the additive blending
/// operation is simpler than the fade effect operation, and hence benefits
/// less from being implemented in hardware."
#[test]
fn imaging32_all_speedups_above_one_and_fade_beats_blend() {
    let n = 4096;
    let bright = compare(SystemKind::Bit32, &imaging_request(Task::Brightness, n, 31));
    let blend = compare(SystemKind::Bit32, &imaging_request(Task::Blend, n, 32));
    let fade = compare(SystemKind::Bit32, &imaging_request(Task::Fade, n, 33));
    assert!(bright.speedup() > 1.0, "brightness {:.2}", bright.speedup());
    assert!(blend.speedup() > 1.0, "blend {:.2}", blend.speedup());
    assert!(fade.speedup() > 1.0, "fade {:.2}", fade.speedup());
    assert!(
        fade.speedup() > blend.speedup(),
        "fade {:.2} > blend {:.2}",
        fade.speedup(),
        blend.speedup()
    );
}

/// Table 12: "there is a clear increase of the speedup obtained by the
/// hardware" for brightness; "the other tasks show a significantly smaller
/// speedup increase, because the data of the two source images had to be
/// combined by the CPU" — visible as the data-preparation column.
#[test]
fn imaging64_dma_shape() {
    let n = 4096;
    let bright = dma_comparison(Task::Brightness, n, 41);
    let blend = dma_comparison(Task::Blend, n, 42);
    let fade = dma_comparison(Task::Fade, n, 43);
    // Brightness profits most (no preparation).
    assert!(bright.speedup() > 2.0 * blend.speedup());
    assert!(bright.speedup() > 5.0, "brightness {:.2}", bright.speedup());
    assert!(bright.prep.is_zero());
    // Two-source tasks report a real preparation cost within the total.
    assert!(!blend.prep.is_zero() && blend.prep < blend.hw);
    assert!(!fade.prep.is_zero());
    // And the preparation dominates their hardware time, as the paper's
    // discussion implies.
    assert!(blend.prep.as_ps() * 2 > blend.hw.as_ps());
}
