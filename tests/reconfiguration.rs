//! End-to-end reconfiguration tests spanning the whole stack:
//! netlist → placement → BitLinker → bitstream → HWICAP → configuration
//! memory → readback → dock binding → CPU-driven module use.

use vp2_repro::apps::imaging::{imaging_netlist, ImagingModule, Task};
use vp2_repro::apps::patmatch::{build_component, patmatch_component, PatMatchModule};
use vp2_repro::coreconnect::map;
use vp2_repro::ppc::mem::MemoryPort;
use vp2_repro::rtr::manager::{feed, LoadError, LoadOutcome, ModuleManager};
use vp2_repro::rtr::{build_system, SystemKind};

#[test]
fn full_swap_cycle_with_verification() {
    let kind = SystemKind::Bit32;
    let region = kind.region();
    let mut machine = build_system(kind);
    let mut mgr = ModuleManager::new(kind);

    mgr.register(
        patmatch_component(region.width(), region.height()),
        (0, 0),
        Box::new(|| Box::new(PatMatchModule::new())),
    )
    .expect("pattern matcher registers");
    let bright = build_component(
        imaging_netlist(Task::Brightness),
        32,
        region.width(),
        region.height(),
    );
    mgr.register(
        bright,
        (0, 0),
        Box::new(|| Box::new(ImagingModule::new(Task::Brightness))),
    )
    .expect("brightness registers");

    // Load A, use it, swap to B, use it, swap back.
    let out = mgr.load(&mut machine, "patmatch8x8").expect("loads A");
    assert!(matches!(out, LoadOutcome::Loaded { .. }));
    assert_eq!(mgr.loaded(), Some("patmatch8x8"));

    let out = mgr.load(&mut machine, "img-brightness").expect("loads B");
    let LoadOutcome::Loaded { reconfig_time, .. } = out else {
        panic!("swap must reconfigure");
    };
    assert!(
        reconfig_time.as_us_f64() > 100.0,
        "reconfiguration takes real time"
    );

    // Drive the brightness module through the dock with real MMIO.
    let mut t = machine.cpu.now();
    t += machine.platform.write(t, map::DOCK_BASE + 4, 4, 37); // parameter
    t += machine.platform.write(t, map::DOCK_BASE, 4, 0x10_20_30_40);
    let (v, _) = machine.platform.read(t, map::DOCK_BASE, 4);
    assert_eq!(v, 0x35_45_55_65, "each pixel lane gained 37");

    // Swap back; the fast path must not fire across different modules.
    let out = mgr
        .load(&mut machine, "patmatch8x8")
        .expect("loads A again");
    assert!(matches!(out, LoadOutcome::Loaded { .. }));
    assert_eq!(mgr.reconfigurations, 3);
}

#[test]
fn region_too_small_is_rejected_at_registration() {
    let kind = SystemKind::Bit32;
    let mut mgr = ModuleManager::new(kind);
    // SHA-1 does not fit the 32-bit region; the placement itself fails, so
    // the component cannot even be constructed for this region. Verify the
    // area contract at the placement layer.
    use vp2_repro::netlist::AutoPlacer;
    let nl = vp2_repro::apps::sha1::sha1_netlist();
    assert!(AutoPlacer::new().place(&nl, 28, 11).is_err());
    // And an unknown module name fails cleanly at load time.
    let mut machine = build_system(kind);
    assert!(matches!(
        mgr.load(&mut machine, "sha1-unroll8"),
        Err(LoadError::Unknown(_))
    ));
}

#[test]
fn gate_level_module_behind_the_real_dock() {
    // Bind the gate-level brightness netlist (not the behavioural model)
    // and drive it through the machine's MMIO path.
    let mut machine = build_system(SystemKind::Bit32);
    let gate = vp2_repro::dock::GateLevelModule::new(&imaging_netlist(Task::Brightness))
        .expect("netlist is dock-compatible");
    match &mut machine.platform.dock {
        vp2_repro::rtr::machine::Docks::Opb(d) => d.bind_module(Box::new(gate)),
        vp2_repro::rtr::machine::Docks::Plb(_) => unreachable!(),
    }
    let mut t = machine.cpu.now();
    t += machine.platform.write(t, map::DOCK_BASE + 4, 4, 10);
    t += machine.platform.write(t, map::DOCK_BASE, 4, 0xF8_00_7F_10);
    let (v, _) = machine.platform.read(t, map::DOCK_BASE, 4);
    assert_eq!(v, 0xFF_0A_89_1A, "saturating add of 10 per lane, in gates");
}

#[test]
fn uart_and_gpio_are_reachable() {
    let mut machine = build_system(SystemKind::Bit32);
    let mut t = machine.cpu.now();
    for &b in b"hello" {
        t += machine.platform.write(t, map::UART_BASE, 4, u32::from(b));
    }
    t += machine.platform.write(t, map::GPIO_BASE, 4, 0b1010);
    let _ = t;
    assert_eq!(machine.platform.uart.transcript_string(), "hello");
    assert_eq!(machine.platform.gpio.as_ref().unwrap().leds, 0b1010);
}

#[test]
fn icap_rejects_corrupted_stream_and_machine_survives() {
    let kind = SystemKind::Bit32;
    let mut machine = build_system(kind);
    let linker = vp2_repro::rtr::system::bitlinker_for(kind);
    let region = kind.region();
    let comp = patmatch_component(region.width(), region.height());
    let (bs, _) = linker.link(&comp, (0, 0)).expect("links");
    let mut corrupted = bs.clone();
    let mid = corrupted.words.len() / 2;
    corrupted.words[mid] ^= 1;

    let err = feed(&mut machine, &corrupted).unwrap_err();
    assert!(matches!(err, LoadError::Icap(_)), "{err}");
    // Status register reports the error.
    let status_reg = map::HWICAP_BASE + map::HWICAP_STATUS;
    let (status, _) = machine.platform.read(machine.cpu.now(), status_reg, 4);
    assert_eq!(status & 0b10, 0b10, "error bit set");
    // The next clean stream commits and clears it.
    feed(&mut machine, &bs).expect("a clean stream commits after a rejected one");
    let (status, _) = machine.platform.read(machine.cpu.now(), status_reg, 4);
    assert_eq!(status & 0b10, 0, "error bit cleared");
}
