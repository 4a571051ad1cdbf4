//! The scheduler's cost model.
//!
//! Per kernel and path (software on the PPC405 vs hardware in the dynamic
//! region), execution time is modelled as a linear function of payload
//! size, fitted from two calibration probes on a scratch machine. The
//! reconfiguration cost starts from one measured load
//! (`LoadOutcome::Loaded { reconfig_time, .. }`) and tracks subsequent
//! live loads with an exponentially weighted moving average — complete
//! partial configurations cover the whole region, so the cost is nearly
//! constant per system and one probe is already a good estimate.

use rtr_apps::harness;
use rtr_apps::request::{factory_for, Driver, Kernel, Request};
use rtr_core::{build_system, SystemKind};
use vp2_sim::{SimTime, SplitMix64};

/// Linear time estimate for one (kernel, path): `base + per_byte * bytes`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathEstimate {
    /// Fixed per-item overhead in picoseconds.
    pub base_ps: f64,
    /// Marginal cost per payload byte in picoseconds.
    pub per_byte_ps: f64,
}

impl PathEstimate {
    /// Estimated time for a payload.
    pub fn estimate(&self, bytes: usize) -> SimTime {
        let ps = self.base_ps + self.per_byte_ps * bytes as f64;
        SimTime::from_ps(ps.max(0.0) as u64)
    }

    /// Fits the line through two measured points.
    fn fit(s1: usize, t1: SimTime, s2: usize, t2: SimTime) -> PathEstimate {
        let (s1f, s2f) = (s1 as f64, s2 as f64);
        let (t1f, t2f) = (t1.as_ps() as f64, t2.as_ps() as f64);
        let per_byte_ps = if s2 > s1 {
            (t2f - t1f) / (s2f - s1f)
        } else {
            0.0
        };
        let per_byte_ps = per_byte_ps.max(0.0);
        PathEstimate {
            base_ps: (t1f - per_byte_ps * s1f).max(0.0),
            per_byte_ps,
        }
    }
}

/// EWMA weight for live reconfiguration-time updates.
const RECONFIG_ALPHA: f64 = 0.25;

/// Probe payload sizes (bytes) for the two-point fit.
const PROBE_SMALL: usize = 256;
const PROBE_LARGE: usize = 2048;

/// The calibrated model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    sw: [PathEstimate; Kernel::ALL.len()],
    hw: [Option<PathEstimate>; Kernel::ALL.len()],
    reconfig_ps: f64,
    /// Per-kernel reconfiguration EWMAs. With a configuration plane the
    /// global average is misleading: a kernel whose transfer image is
    /// cached or diffs small swaps for a fraction of a cold full-region
    /// load, and charging it the fleet-wide mean would veto swaps that
    /// actually pay.
    kernel_reconfig_ps: [f64; Kernel::ALL.len()],
    /// Read the per-kernel estimates in decisions? Off by default so the
    /// model is bit-identical to the pre-configplane scheduler.
    kernel_aware: bool,
}

impl CostModel {
    /// Calibrates per-item estimates for `kernels` by probing scratch
    /// machines of the right system kind (behavioural models are bound
    /// directly — the scratch machine never touches the service's
    /// configuration plane). Kernels not probed get a zero model and are
    /// never chosen for hardware.
    pub fn calibrate(kind: SystemKind, kernels: &[Kernel]) -> CostModel {
        let zero = PathEstimate {
            base_ps: 0.0,
            per_byte_ps: 0.0,
        };
        let mut model = CostModel {
            sw: [zero; Kernel::ALL.len()],
            hw: [None; Kernel::ALL.len()],
            reconfig_ps: 0.0,
            kernel_reconfig_ps: [0.0; Kernel::ALL.len()],
            kernel_aware: false,
        };
        // Every probe runs on a fresh machine with a fresh driver, over one
        // assembly of the driver programs.
        let programs = Driver::new();
        for &kernel in kernels {
            let probe = |payload: usize, hw: bool| -> (usize, SimTime) {
                let mut rng = SplitMix64::new(0xCA11_B8A7 ^ payload as u64);
                let req = Request::synthetic(kernel, payload, &mut rng);
                let mut m = build_system(kind);
                let mut d = programs.fresh();
                let (t, _) = if hw {
                    harness::bind(&mut m, factory_for(kernel)());
                    d.run_hw(&mut m, &req)
                } else {
                    d.run_sw(&mut m, &req)
                };
                (req.payload_bytes(), t)
            };
            let (s1, t1) = probe(PROBE_SMALL, false);
            let (s2, t2) = probe(PROBE_LARGE, false);
            model.sw[kernel.index()] = PathEstimate::fit(s1, t1, s2, t2);
            if kernel_has_hw(kernel, kind) {
                let (s1, t1) = probe(PROBE_SMALL, true);
                let (s2, t2) = probe(PROBE_LARGE, true);
                model.hw[kernel.index()] = Some(PathEstimate::fit(s1, t1, s2, t2));
            }
        }
        model
    }

    /// Software time estimate for one item.
    pub fn sw_estimate(&self, kernel: Kernel, bytes: usize) -> SimTime {
        self.sw[kernel.index()].estimate(bytes)
    }

    /// Hardware time estimate for one item (`None` when the kernel has no
    /// hardware form on this system).
    pub fn hw_estimate(&self, kernel: Kernel, bytes: usize) -> Option<SimTime> {
        self.hw[kernel.index()].map(|e| e.estimate(bytes))
    }

    /// Current reconfiguration-time estimate.
    pub fn reconfig_estimate(&self) -> SimTime {
        SimTime::from_ps(self.reconfig_ps as u64)
    }

    /// Folds a measured reconfiguration time into the estimate.
    pub fn observe_reconfig(&mut self, t: SimTime) {
        let ps = t.as_ps() as f64;
        if self.reconfig_ps == 0.0 {
            self.reconfig_ps = ps;
        } else {
            self.reconfig_ps += RECONFIG_ALPHA * (ps - self.reconfig_ps);
        }
    }

    /// Folds a measured reconfiguration time into both the global and the
    /// kernel's own estimate. The per-kernel track is recorded whether or
    /// not [`CostModel::set_kernel_aware`] has enabled reading it, so
    /// turning awareness on mid-run starts from real history.
    pub fn observe_reconfig_for(&mut self, kernel: Kernel, t: SimTime) {
        self.observe_reconfig(t);
        let ps = t.as_ps() as f64;
        let slot = &mut self.kernel_reconfig_ps[kernel.index()];
        if *slot == 0.0 {
            *slot = ps;
        } else {
            *slot += RECONFIG_ALPHA * (ps - *slot);
        }
    }

    /// Enables (or disables) per-kernel reconfiguration estimates in the
    /// batch decisions. Off, decisions use the global EWMA exactly as the
    /// pre-configplane model did.
    pub fn set_kernel_aware(&mut self, on: bool) {
        self.kernel_aware = on;
    }

    /// The kernel's effective reconfiguration-time estimate: its own EWMA
    /// when per-kernel awareness is on and the kernel has been observed,
    /// the global EWMA otherwise.
    pub fn reconfig_estimate_for(&self, kernel: Kernel) -> SimTime {
        SimTime::from_ps(self.reconfig_ps_for(kernel) as u64)
    }

    /// Effective swap cost in picoseconds for one kernel.
    fn reconfig_ps_for(&self, kernel: Kernel) -> f64 {
        let own = self.kernel_reconfig_ps[kernel.index()];
        if self.kernel_aware && own > 0.0 {
            own
        } else {
            self.reconfig_ps
        }
    }

    /// Batch decision: run `batch_bytes` (payload sizes of the queued
    /// items) in hardware? True when the estimated hardware time — plus
    /// the reconfiguration, if a swap is needed — undercuts software.
    pub fn hardware_pays_off(
        &self,
        kernel: Kernel,
        batch_bytes: &[usize],
        swap_needed: bool,
    ) -> bool {
        self.pays_with_reconfigs(kernel, batch_bytes, u32::from(swap_needed))
    }

    /// Lookahead batch decision: would a swap to hardware for
    /// `batch_bytes` still strictly pay if the scheduler must also swap
    /// *back* afterwards — i.e. when switching abandons live work for the
    /// resident module? Charges two reconfigurations against the batch.
    pub fn hardware_pays_round_trip(&self, kernel: Kernel, batch_bytes: &[usize]) -> bool {
        self.pays_with_reconfigs(kernel, batch_bytes, 2)
    }

    /// Shared comparison: estimated hardware time plus `reconfigs` swap
    /// costs strictly undercuts the software estimate.
    fn pays_with_reconfigs(&self, kernel: Kernel, batch_bytes: &[usize], reconfigs: u32) -> bool {
        let Some(hw) = self.hw[kernel.index()] else {
            return false;
        };
        let sw: f64 = batch_bytes
            .iter()
            .map(|&b| self.sw[kernel.index()].estimate(b).as_ps() as f64)
            .sum();
        let hwt: f64 = batch_bytes
            .iter()
            .map(|&b| hw.estimate(b).as_ps() as f64)
            .sum::<f64>()
            + f64::from(reconfigs) * self.reconfig_ps_for(kernel);
        hwt < sw
    }

    /// Smallest batch size (of `bytes`-sized items) at which a swap to
    /// hardware *strictly* pays off — the break-even depth the metrics
    /// report. `hardware_pays_off(kernel, &[bytes; n], true)` is true at
    /// the returned `n` and false at `n - 1`.
    ///
    /// `None` until a reconfiguration has actually been observed: with no
    /// measurement the swap cost is unknown, and claiming a depth of 1
    /// would tell schedulers to reconfigure for single items on pure
    /// speculation.
    pub fn break_even_depth(&self, kernel: Kernel, bytes: usize) -> Option<usize> {
        let hw = self.hw[kernel.index()]?;
        let reconfig_ps = self.reconfig_ps_for(kernel);
        if reconfig_ps == 0.0 {
            return None;
        }
        let sw_item = self.sw[kernel.index()].estimate(bytes).as_ps() as f64;
        let hw_item = hw.estimate(bytes).as_ps() as f64;
        if hw_item >= sw_item {
            return None;
        }
        // Closed-form candidate, then settled against the exact decision
        // predicate: when the break-even lands on an integer, a batch of
        // exactly that depth gives `hwt == sw`, which does not pay under
        // the strict comparison — the depth reported must be one deeper.
        let mut n = (reconfig_ps / (sw_item - hw_item)).ceil().max(1.0) as usize;
        let pays = |n: usize| self.hardware_pays_off(kernel, &vec![bytes; n], true);
        while !pays(n) {
            n += 1;
        }
        while n > 1 && pays(n - 1) {
            n -= 1;
        }
        Some(n)
    }
}

/// Does the kernel have a hardware form on the system? (SHA-1's unrolled
/// core does not fit the 32-bit region.)
pub fn kernel_has_hw(kernel: Kernel, kind: SystemKind) -> bool {
    !(kernel == Kernel::Sha1 && kind == SystemKind::Bit32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_a_line() {
        let e = PathEstimate::fit(100, SimTime::from_ps(1_100), 300, SimTime::from_ps(1_300));
        assert!((e.per_byte_ps - 1.0).abs() < 1e-9);
        assert!((e.base_ps - 1_000.0).abs() < 1e-9);
        assert_eq!(e.estimate(200), SimTime::from_ps(1_200));
    }

    #[test]
    fn ewma_converges_toward_observations() {
        let mut m = CostModel {
            sw: [PathEstimate {
                base_ps: 0.0,
                per_byte_ps: 0.0,
            }; Kernel::ALL.len()],
            hw: [None; Kernel::ALL.len()],
            reconfig_ps: 0.0,
            kernel_reconfig_ps: [0.0; Kernel::ALL.len()],
            kernel_aware: false,
        };
        m.observe_reconfig(SimTime::from_us(100));
        assert_eq!(m.reconfig_estimate(), SimTime::from_us(100));
        for _ in 0..50 {
            m.observe_reconfig(SimTime::from_us(200));
        }
        let est = m.reconfig_estimate().as_us_f64();
        assert!((est - 200.0).abs() < 1.0, "{est}");
    }

    #[test]
    fn break_even_is_unknown_until_reconfig_observed() {
        let model = CostModel {
            sw: [PathEstimate {
                base_ps: 0.0,
                per_byte_ps: 100.0,
            }; Kernel::ALL.len()],
            hw: [Some(PathEstimate {
                base_ps: 0.0,
                per_byte_ps: 10.0,
            }); Kernel::ALL.len()],
            reconfig_ps: 0.0,
            kernel_reconfig_ps: [0.0; Kernel::ALL.len()],
            kernel_aware: false,
        };
        // Hardware is 10× faster per item, but the swap cost is still a
        // guess — the model must not claim a break-even depth of 1.
        assert_eq!(model.break_even_depth(Kernel::Jenkins, 100), None);
        let mut calibrated = model.clone();
        calibrated.observe_reconfig(SimTime::from_ps(90_000));
        // Ten items exactly repay the swap (hwt == sw) — that is a tie,
        // not a win, so the first strictly paying depth is 11.
        assert_eq!(calibrated.break_even_depth(Kernel::Jenkins, 100), Some(11));
    }

    #[test]
    fn decision_respects_break_even() {
        let mut model = CostModel {
            sw: [PathEstimate {
                base_ps: 0.0,
                per_byte_ps: 100.0,
            }; Kernel::ALL.len()],
            hw: [Some(PathEstimate {
                base_ps: 0.0,
                per_byte_ps: 10.0,
            }); Kernel::ALL.len()],
            reconfig_ps: 0.0,
            kernel_reconfig_ps: [0.0; Kernel::ALL.len()],
            kernel_aware: false,
        };
        model.observe_reconfig(SimTime::from_ps(90_000));
        // Per 100-byte item: sw 10_000 ps, hw 1_000 ps → saves 9_000 ps.
        // Reconfig 90_000 ps → ten items tie, eleven strictly win.
        let n = model.break_even_depth(Kernel::Jenkins, 100).unwrap();
        assert_eq!(n, 11);
        // The reported depth is the *smallest* strict win: true at exactly
        // n, false one below it (a tie must not trigger a swap).
        assert!(model.hardware_pays_off(Kernel::Jenkins, &vec![100; n], true));
        assert!(!model.hardware_pays_off(Kernel::Jenkins, &vec![100; n - 1], true));
        assert!(!model.hardware_pays_off(Kernel::Jenkins, &[100; 9], true));
        // Already resident: no swap cost, hardware wins at any depth.
        assert!(model.hardware_pays_off(Kernel::Jenkins, &[100], false));
    }

    #[test]
    fn kernel_aware_estimates_split_cheap_swappers_from_expensive() {
        let mut m = CostModel {
            sw: [PathEstimate {
                base_ps: 0.0,
                per_byte_ps: 100.0,
            }; Kernel::ALL.len()],
            hw: [Some(PathEstimate {
                base_ps: 0.0,
                per_byte_ps: 10.0,
            }); Kernel::ALL.len()],
            reconfig_ps: 0.0,
            kernel_reconfig_ps: [0.0; Kernel::ALL.len()],
            kernel_aware: false,
        };
        // Jenkins swaps cheap (cached/differential images); Fade pays the
        // full cold-load price.
        m.observe_reconfig_for(Kernel::Jenkins, SimTime::from_ps(9_000));
        m.observe_reconfig_for(Kernel::Fade, SimTime::from_ps(891_000));
        // Awareness off: both kernels are charged the shared EWMA, so the
        // break-even depths agree — exactly the pre-configplane behavior.
        assert_eq!(
            m.reconfig_estimate_for(Kernel::Jenkins),
            m.reconfig_estimate()
        );
        assert_eq!(
            m.break_even_depth(Kernel::Jenkins, 100),
            m.break_even_depth(Kernel::Fade, 100)
        );
        // Awareness on: the cheap swapper's break-even depth collapses
        // (9_000 ps / 9_000 ps-per-item saved → strictly pays at 2) while
        // the expensive one's grows past it.
        m.set_kernel_aware(true);
        assert_eq!(
            m.reconfig_estimate_for(Kernel::Jenkins),
            SimTime::from_ps(9_000)
        );
        let cheap = m.break_even_depth(Kernel::Jenkins, 100).unwrap();
        let dear = m.break_even_depth(Kernel::Fade, 100).unwrap();
        assert!(cheap < dear, "cheap {cheap} vs dear {dear}");
        assert!(m.hardware_pays_off(Kernel::Jenkins, &[100; 2], true));
        assert!(!m.hardware_pays_off(Kernel::Fade, &[100; 2], true));
        // A kernel never observed falls back to the global EWMA.
        assert_eq!(m.reconfig_estimate_for(Kernel::Sha1), m.reconfig_estimate());
    }

    #[test]
    fn calibration_orders_paths_sensibly() {
        // Pattern matching is the paper's big hardware win: the calibrated
        // model must prefer hardware per item by a wide margin.
        let model = CostModel::calibrate(SystemKind::Bit32, &[Kernel::PatMatch]);
        let sw = model.sw_estimate(Kernel::PatMatch, 1024);
        let hw = model.hw_estimate(Kernel::PatMatch, 1024).unwrap();
        assert!(sw.as_ps() > 3 * hw.as_ps(), "sw {sw} should dwarf hw {hw}");
        // SHA-1 has no hardware estimate on the 32-bit system.
        let m32 = CostModel::calibrate(SystemKind::Bit32, &[Kernel::Sha1]);
        assert!(m32.hw_estimate(Kernel::Sha1, 1024).is_none());
    }
}
