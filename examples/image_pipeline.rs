//! Image pipeline on the 64-bit system: time-share the dynamic region
//! across the paper's three image-processing modules (brightness → blend →
//! fade), reconfiguring between stages, with DMA block transfers and the
//! output FIFO doing the data movement.
//!
//! ```text
//! cargo run --release --example image_pipeline
//! ```

use vp2_repro::apps::imaging::{self, ImagingModule, Task};
use vp2_repro::apps::request::Driver;
use vp2_repro::apps::{Request, Work};
use vp2_repro::rtr::{build_system, SystemKind};
use vp2_repro::sim::SplitMix64;

fn main() {
    let kind = SystemKind::Bit64;
    println!("== 64-bit system (XC2VP30, CPU 300 MHz, buses 100 MHz, PLB dock + DMA) ==\n");
    let n = 16 * 1024;
    let mut rng = SplitMix64::new(7);
    let mut frame_a = vec![0u8; n];
    let mut frame_b = vec![0u8; n];
    rng.fill_bytes(&mut frame_a);
    rng.fill_bytes(&mut frame_b);

    // The pipeline: brighten frame A, blend with frame B, then fade between
    // the two — each stage a different hardware module occupying the same
    // dynamic region (the paper's time-sharing motivation), each verified
    // against the reference implementation.
    let stages = [
        (Task::Brightness, 25i32),
        (Task::Blend, 0),
        (Task::Fade, 144),
    ];
    let mut total_hw = vp2_repro::sim::SimTime::ZERO;
    let mut total_sw = vp2_repro::sim::SimTime::ZERO;
    let mut current = frame_a.clone();
    for (task, param) in stages {
        let want = imaging::reference_image(task, &current, &frame_b, param);

        let mut machine = build_system(kind);
        let (hw_t, prep, got) = imaging::dma_run(&mut machine, task, &current, &frame_b, param);
        assert_eq!(got, want, "{task:?} hardware result verified");

        let request = Request::from(Work::Imaging {
            task,
            a: current.clone(),
            b: frame_b.clone(),
            param,
        });
        let mut machine_sw = build_system(kind);
        let (sw_t, _) = Driver::new().run_sw(&mut machine_sw, &request);

        println!(
            "{:<24} sw {:>10}   hw(DMA) {:>10}   prep {:>10}   speedup {:>5.1}x",
            task.label(),
            format!("{sw_t}"),
            format!("{hw_t}"),
            if prep.is_zero() {
                "-".to_string()
            } else {
                format!("{prep}")
            },
            sw_t.as_ps() as f64 / hw_t.as_ps() as f64,
        );
        total_hw += hw_t;
        total_sw += sw_t;
        current = got;
    }
    println!(
        "\npipeline over a {n}-pixel frame: sw {total_sw}, hw {total_hw} ({:.1}x)",
        total_sw.as_ps() as f64 / total_hw.as_ps() as f64
    );
    println!(
        "(the brightness stage profits most: one source image, so the 64-bit\n\
         DMA transfers are employed \"without additional work\"; the two-source\n\
         stages pay the CPU data-preparation cost the paper reports)"
    );

    // Show the wide module interface once, explicitly.
    let mut module = ImagingModule::new_wide(Task::Brightness);
    use vp2_repro::dock::DynamicModule;
    module.poke_at(4, 25);
    let out = module.poke_at(0, 0x0102_0304_0506_0708);
    println!(
        "\none 64-bit beat through the brightness module: {:#018x}",
        out.data
    );
}
