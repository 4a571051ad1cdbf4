//! The cost model fits a kernel on the first read of its estimates, not
//! at boot: a service probes only the kernels its decisions price, a lazy
//! fit equals the eager calibration, and services booted through one
//! `BootShare` share each kernel's fit. No case here probes PatMatch, the
//! one probe that is slow in debug builds.

use vp2_repro::apps::request::{Kernel, Request};
use vp2_repro::rtr::SystemKind;
use vp2_repro::service::{BootShare, CostModel, Policy, Service, ServiceConfig};
use vp2_repro::sim::{SimTime, SplitMix64};

/// One small request of each kernel in `kernels`, 1 µs apart.
fn one_each(kernels: &[Kernel]) -> Vec<(SimTime, Request)> {
    let mut rng = SplitMix64::new(7);
    kernels
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            (
                SimTime::from_us(i as u64),
                Request::synthetic(k, 32, &mut rng),
            )
        })
        .collect()
}

fn calibrated(svc: &Service) -> Vec<Kernel> {
    Kernel::ALL
        .into_iter()
        .filter(|&k| svc.cost_model().is_calibrated(k))
        .collect()
}

#[test]
fn a_software_only_service_calibrates_nothing() {
    let mut svc = Service::new(ServiceConfig {
        policy: Policy::SwOnly,
        ..ServiceConfig::new(SystemKind::Bit32)
    });
    assert_eq!(calibrated(&svc), []);
    let snap = svc.process(&one_each(&Kernel::ALL)).unwrap();
    assert_eq!(snap.completed, Kernel::ALL.len() as u64);
    assert_eq!(snap.verify_failures, 0);
    assert_eq!(calibrated(&svc), []);
}

#[test]
fn a_cost_model_service_calibrates_exactly_the_kernels_it_prices() {
    let mut svc = Service::new(ServiceConfig {
        policy: Policy::CostModel,
        ..ServiceConfig::new(SystemKind::Bit32)
    });
    assert_eq!(calibrated(&svc), []);
    let snap = svc.process(&one_each(&[Kernel::Fade; 3])).unwrap();
    assert_eq!(snap.completed, 3);
    assert_eq!(snap.verify_failures, 0);
    assert_eq!(calibrated(&svc), [Kernel::Fade]);
}

#[test]
fn a_lazy_fit_equals_the_eager_calibration_on_both_systems() {
    for kind in [SystemKind::Bit32, SystemKind::Bit64] {
        let svc = Service::new(ServiceConfig {
            kernels: vec![Kernel::Fade],
            ..ServiceConfig::new(kind)
        });
        let model = svc.cost_model();
        assert!(!model.is_calibrated(Kernel::Fade), "{kind:?}");
        let lazy = (
            model.sw_estimate(Kernel::Fade, 700),
            model.hw_estimate(Kernel::Fade, 700),
        );
        assert!(model.is_calibrated(Kernel::Fade), "{kind:?}");
        let mut eager = CostModel::calibrate(kind, &[Kernel::Fade]);
        let eager_read = (
            eager.sw_estimate(Kernel::Fade, 700),
            eager.hw_estimate(Kernel::Fade, 700),
        );
        assert_eq!(lazy, eager_read, "{kind:?}");
        // With the boot's warm-up observation folded in, the models are
        // equal as a whole.
        eager.observe_reconfig_for(Kernel::Fade, svc.manager().total_reconfig_time);
        assert_eq!(model, &eager, "{kind:?}");
    }
}

#[test]
fn services_booted_through_one_share_share_each_fit() {
    let share = BootShare::new();
    let config = || ServiceConfig {
        kernels: vec![Kernel::Fade, Kernel::Blend],
        ..ServiceConfig::new(SystemKind::Bit64)
    };
    let a = Service::boot(config(), &share);
    let b = Service::boot(config(), &share);
    assert_eq!(calibrated(&a), []);
    assert_eq!(calibrated(&b), []);
    let sw = a.cost_model().sw_estimate(Kernel::Fade, 256);
    assert_eq!(calibrated(&a), [Kernel::Fade]);
    assert_eq!(calibrated(&b), [Kernel::Fade]);
    assert_eq!(b.cost_model().sw_estimate(Kernel::Fade, 256), sw);
    // A service of another kernel list, booted through the same share,
    // shares the cell too.
    let c = Service::boot(
        ServiceConfig {
            kernels: vec![Kernel::Fade],
            ..ServiceConfig::new(SystemKind::Bit64)
        },
        &share,
    );
    assert_eq!(calibrated(&c), [Kernel::Fade]);
    // A service of the other kind does not.
    let d = Service::boot(
        ServiceConfig {
            kernels: vec![Kernel::Fade],
            ..ServiceConfig::new(SystemKind::Bit32)
        },
        &share,
    );
    assert_eq!(calibrated(&d), []);
}
