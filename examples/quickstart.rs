//! Quickstart: build the paper's 32-bit system, load a hardware module into
//! the dynamic region through the full reconfiguration path (BitLinker →
//! HWICAP → readback verification), and accelerate a pattern-matching task.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use vp2_repro::apps::patmatch::{self, BinaryImage, PatMatchModule};
use vp2_repro::apps::request::Driver;
use vp2_repro::apps::{Request, Work};
use vp2_repro::rtr::manager::{LoadOutcome, ModuleManager};
use vp2_repro::rtr::{build_system, SystemKind};

fn main() {
    let kind = SystemKind::Bit32;
    println!("== building the 32-bit system (XC2VP7, CPU 200 MHz, buses 50 MHz) ==");
    let mut machine = build_system(kind);
    println!("{}", vp2_repro::rtr::system::floorplan_string(kind));

    // Register the pattern matcher as a relocatable component. Registration
    // runs BitLinker: placement, bus-macro checks, complete-configuration
    // assembly.
    let mut manager = ModuleManager::new(kind);
    let region = kind.region();
    let component = patmatch::patmatch_component(region.width(), region.height());
    println!(
        "pattern matcher: {} slices ({}% of the dynamic region)",
        component.slices_used(),
        100 * component.slices_used() as u32 / region.slice_count()
    );
    manager
        .register(
            component,
            (0, 0),
            Box::new(|| Box::new(PatMatchModule::new())),
        )
        .expect("BitLinker accepts the component");

    // Load = feed the partial bitstream through the OPB HWICAP, verify by
    // readback, bind the behavioural model to the OPB dock.
    match manager.load(&mut machine, "patmatch8x8").expect("loads") {
        LoadOutcome::Loaded {
            reconfig_time,
            words,
            frames,
            ..
        } => println!(
            "reconfigured the dynamic region: {frames} frames, {words} bitstream words, {reconfig_time}"
        ),
        other => unreachable!("first load with no faults: {other:?}"),
    }

    // Run the task: hardware vs software.
    let image = BinaryImage::random(128, 64, 42);
    let pattern = [0xA5u8, 0x3C, 0x7E, 0x81, 0x42, 0x99, 0x18, 0xE7];
    let request = Request::from(Work::PatMatch { image, pattern });
    let reference = request.reference();

    // The manager bound the pattern matcher, so the driver runs on it as is.
    let (hw_time, hw_counts) = Driver::new().run_hw(&mut machine, &request);
    assert_eq!(hw_counts, reference, "hardware result verified");

    let mut machine_sw = build_system(kind);
    let (sw_time, sw_counts) = Driver::new().run_sw(&mut machine_sw, &request);
    assert_eq!(sw_counts, reference, "software result verified");

    println!(
        "\n128x64 image, 8x8 pattern, {} window positions:",
        (128 - 7) * (64 - 7)
    );
    println!("  software on the PowerPC : {sw_time}");
    println!("  hardware in the region  : {hw_time}");
    println!(
        "  speedup                 : {:.1}x (paper: \"speedup factors of more than 26\")",
        sw_time.as_ps() as f64 / hw_time.as_ps() as f64
    );
}
