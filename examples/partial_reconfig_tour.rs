//! A tour of the configuration plane: frames, differential vs complete
//! partial bitstreams, BitLinker guarantees, CRC protection — the
//! implementation issues of the paper's section 2.2, demonstrated at the
//! bit level.
//!
//! ```text
//! cargo run --release --example partial_reconfig_tour
//! ```

use vp2_repro::apps::patmatch;
use vp2_repro::bitstream::{apply_bitstream, differential_bitstream, idcode_for};
use vp2_repro::rtr::system::{bitlinker_for, static_base};
use vp2_repro::rtr::SystemKind;

fn main() {
    let kind = SystemKind::Bit32;
    let device = kind.device();
    let idcode = idcode_for(device.kind);
    println!("== configuration-plane tour ({}) ==\n", device.name);

    // 1. Frames span the full device height.
    let base = static_base(kind);
    println!(
        "configuration memory: {} frames; a CLB frame carries {} words = 2 per row x {} rows",
        base.frame_count(),
        device.rows as usize * 2,
        device.rows
    );
    println!("→ a partial-height dynamic region cannot avoid touching frames that\n  also configure the static rows above and below it.\n");

    // 2. BitLinker: complete configurations.
    let linker = bitlinker_for(kind);
    let region = kind.region();
    let comp = patmatch::patmatch_component(region.width(), region.height());
    let (complete, report) = linker.link(&comp, (0, 0)).expect("links");
    println!(
        "complete configuration (BitLinker): {} frames, {} words ({} KiB)",
        report.frames,
        report.words,
        complete.byte_size() / 1024
    );

    // 3. Differential configuration: smaller, but state-dependent.
    let blank = linker.expected_state(&[]).expect("blank state");
    let target = linker.expected_state(&[(&comp, (0, 0))]).expect("links");
    let diff = differential_bitstream(&blank, &target, idcode);
    println!(
        "differential configuration:         {} frames, {} words ({} KiB)",
        target.diff(&blank).len(),
        diff.word_count(),
        diff.byte_size() / 1024
    );
    println!(
        "→ the differential stream is {:.1}x smaller, but \"assumes an initial\n  state of the configuration resources\" — correct only over the state it\n  was diffed against (the paper's section 2.2 hazard).\n",
        report.words as f64 / diff.word_count() as f64
    );

    // 4. Order-independence of complete configurations, shown by readback.
    let comp_b = {
        // A second, different component (the brightness module).
        let nl =
            vp2_repro::apps::imaging::imaging_netlist(vp2_repro::apps::imaging::Task::Brightness);
        patmatch::build_component(nl, 32, region.width(), region.height())
    };
    let (complete_b, _) = linker.link(&comp_b, (0, 0)).expect("links");
    let mut direct = static_base(kind);
    apply_bitstream(&complete_b, &mut direct, idcode).expect("applies");
    let mut via_a = static_base(kind);
    apply_bitstream(&complete, &mut via_a, idcode).expect("applies");
    apply_bitstream(&complete_b, &mut via_a, idcode).expect("applies");
    assert_eq!(direct, via_a);
    println!("loaded module B directly and after module A: readback identical ✓");

    // 5. CRC protection.
    let mut corrupted = complete.clone();
    let mid = corrupted.words.len() / 2;
    corrupted.words[mid] ^= 0x0000_1000;
    let mut mem = static_base(kind);
    let err = apply_bitstream(&corrupted, &mut mem, idcode).unwrap_err();
    println!("flipped one bit mid-stream → configuration rejected: {err}");

    // 6. Wrong-device protection.
    let err = apply_bitstream(
        &complete,
        &mut vp2_repro::fabric::ConfigMemory::new(&SystemKind::Bit64.device()),
        idcode_for(SystemKind::Bit64.device().kind),
    )
    .unwrap_err();
    println!("loaded the XC2VP7 stream into an XC2VP30 → rejected: {err}");
}
