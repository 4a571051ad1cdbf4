//! The scheduler's cost model.
//!
//! Per kernel and path (software on the PPC405 vs hardware in the dynamic
//! region), execution time is modelled as a linear function of payload
//! size, fitted from two calibration probes on a scratch machine. A
//! kernel is fitted on the first read of one of its estimates, not at
//! boot, so a service probes only the kernels its decisions price (a
//! software-only service probes none). Being on scratch machines, a fit
//! is the same whenever and on whichever thread it is computed. The
//! reconfiguration cost starts from one measured load
//! (`LoadOutcome::Loaded { reconfig_time, .. }`) and tracks subsequent
//! live loads with an exponentially weighted moving average — complete
//! partial configurations cover the whole region, so the cost is nearly
//! constant per system and one probe is already a good estimate.

use std::sync::{Arc, OnceLock};

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

/// One kernel's fitted lines: software, and hardware where the kernel
/// has a hardware form on the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Fit {
    sw: PathEstimate,
    hw: Option<PathEstimate>,
}

/// The fit of a kernel the model does not accept: never chosen for
/// hardware.
const ZERO_FIT: Fit = Fit {
    sw: PathEstimate {
        base_ps: 0.0,
        per_byte_ps: 0.0,
    },
    hw: None,
};

/// The cell one kernel's fit is computed into on its first read. Models
/// booted through one [`crate::BootShare`] share one cell per system kind
/// and kernel.
pub(crate) type FitCell = Arc<OnceLock<Fit>>;

/// What a model's fits are computed from and into. Clones of the model
/// share it.
struct Fits {
    kind: SystemKind,
    /// The assembled driver programs every probe runs (a fresh driver
    /// over them per probe).
    programs: Driver,
    /// One cell per accepted kernel; `None` keeps the zero model.
    cells: [Option<FitCell>; Kernel::ALL.len()],
}

impl std::fmt::Debug for Fits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fits")
            .field("kind", &self.kind)
            .field("cells", &self.cells)
            .finish()
    }
}

/// The calibrated model.
#[derive(Debug, Clone)]
pub struct CostModel {
    fits: Arc<Fits>,
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

/// Two models are equal when every kernel's fit and every
/// reconfiguration estimate are (fitting whatever is not fitted yet).
impl PartialEq for CostModel {
    fn eq(&self, other: &Self) -> bool {
        Kernel::ALL.iter().all(|&k| self.fit(k) == other.fit(k))
            && self.reconfig_ps == other.reconfig_ps
            && self.kernel_reconfig_ps == other.kernel_reconfig_ps
            && self.kernel_aware == other.kernel_aware
    }
}

impl CostModel {
    /// Calibrates per-item estimates for `kernels` by probing scratch
    /// machines of the right system kind (behavioural models are bound
    /// directly — the scratch machine never touches the service's
    /// configuration plane). Kernels not probed get a zero model and are
    /// never chosen for hardware. This is the eager form of the model a
    /// service boots with: every accepted kernel is fitted before it
    /// returns.
    pub fn calibrate(kind: SystemKind, kernels: &[Kernel]) -> CostModel {
        let model = CostModel::lazy(kind, kernels, &Driver::new(), |_| FitCell::default());
        for &kernel in kernels {
            model.fit(kernel);
        }
        model
    }

    /// A model for `kernels` on `kind` that fits each kernel into
    /// `cell(kernel)` on the first read of one of its estimates, probing
    /// with `programs`' assembly of the driver programs.
    pub(crate) fn lazy(
        kind: SystemKind,
        kernels: &[Kernel],
        programs: &Driver,
        mut cell: impl FnMut(Kernel) -> FitCell,
    ) -> CostModel {
        let mut cells: [Option<FitCell>; Kernel::ALL.len()] = Default::default();
        for &kernel in kernels {
            cells[kernel.index()] = Some(cell(kernel));
        }
        CostModel {
            fits: Arc::new(Fits {
                kind,
                programs: programs.fresh(),
                cells,
            }),
            reconfig_ps: 0.0,
            kernel_reconfig_ps: [0.0; Kernel::ALL.len()],
            kernel_aware: false,
        }
    }

    /// Has `kernel` been fitted? A read-only look at the cell: it never
    /// fits. Kernels the model does not accept are never fitted.
    pub fn is_calibrated(&self, kernel: Kernel) -> bool {
        self.fits.cells[kernel.index()]
            .as_ref()
            .is_some_and(|cell| cell.get().is_some())
    }

    /// The kernel's fit, probing for it on the first read.
    fn fit(&self, kernel: Kernel) -> Fit {
        let fits = &*self.fits;
        match &fits.cells[kernel.index()] {
            Some(cell) => *cell.get_or_init(|| probe_fit(fits.kind, kernel, &fits.programs)),
            None => ZERO_FIT,
        }
    }

    /// Software time estimate for one item.
    pub fn sw_estimate(&self, kernel: Kernel, bytes: usize) -> SimTime {
        self.fit(kernel).sw.estimate(bytes)
    }

    /// Hardware time estimate for one item (`None` when the kernel has no
    /// hardware form on this system).
    pub fn hw_estimate(&self, kernel: Kernel, bytes: usize) -> Option<SimTime> {
        self.fit(kernel).hw.map(|e| e.estimate(bytes))
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
        let fit = self.fit(kernel);
        let Some(hw) = fit.hw else {
            return false;
        };
        let sw: f64 = batch_bytes
            .iter()
            .map(|&b| fit.sw.estimate(b).as_ps() as f64)
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
        let fit = self.fit(kernel);
        let hw = fit.hw?;
        let reconfig_ps = self.reconfig_ps_for(kernel);
        if reconfig_ps == 0.0 {
            return None;
        }
        let sw_item = fit.sw.estimate(bytes).as_ps() as f64;
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

/// Fits `kernel` on `kind`: two probes per path, at [`PROBE_SMALL`] and
/// [`PROBE_LARGE`] bytes of seeded synthetic payload, each on a fresh
/// machine with a fresh driver over `programs`.
fn probe_fit(kind: SystemKind, kernel: Kernel, programs: &Driver) -> Fit {
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
    let line = |hw: bool| {
        let (s1, t1) = probe(PROBE_SMALL, hw);
        let (s2, t2) = probe(PROBE_LARGE, hw);
        PathEstimate::fit(s1, t1, s2, t2)
    };
    Fit {
        sw: line(false),
        hw: kernel_has_hw(kernel, kind).then(|| line(true)),
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

    /// Software 100 ps and hardware 10 ps per byte, no fixed cost.
    const TEN_TO_ONE: Fit = Fit {
        sw: PathEstimate {
            base_ps: 0.0,
            per_byte_ps: 100.0,
        },
        hw: Some(PathEstimate {
            base_ps: 0.0,
            per_byte_ps: 10.0,
        }),
    };

    /// A model whose every kernel is already fitted to `fit`.
    fn fixed(fit: Fit) -> CostModel {
        CostModel::lazy(SystemKind::Bit32, &Kernel::ALL, &Driver::new(), |_| {
            Arc::new(OnceLock::from(fit))
        })
    }

    #[test]
    fn a_kernel_is_fitted_on_first_read_into_the_cell_clones_share() {
        let model = CostModel::lazy(SystemKind::Bit32, &[Kernel::Fade], &Driver::new(), |_| {
            FitCell::default()
        });
        let snapshot = model.clone();
        assert!(!model.is_calibrated(Kernel::Fade));
        let sw = snapshot.sw_estimate(Kernel::Fade, 512);
        assert!(model.is_calibrated(Kernel::Fade));
        assert_eq!(model.sw_estimate(Kernel::Fade, 512), sw);
        // A kernel the model does not accept keeps the zero model and is
        // never fitted.
        assert_eq!(model.sw_estimate(Kernel::Jenkins, 512), SimTime::ZERO);
        assert_eq!(model.hw_estimate(Kernel::Jenkins, 512), None);
        assert!(!model.is_calibrated(Kernel::Jenkins));
    }

    #[test]
    fn fit_recovers_a_line() {
        let e = PathEstimate::fit(100, SimTime::from_ps(1_100), 300, SimTime::from_ps(1_300));
        assert!((e.per_byte_ps - 1.0).abs() < 1e-9);
        assert!((e.base_ps - 1_000.0).abs() < 1e-9);
        assert_eq!(e.estimate(200), SimTime::from_ps(1_200));
    }

    #[test]
    fn ewma_converges_toward_observations() {
        let mut m = fixed(ZERO_FIT);
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
        let model = fixed(TEN_TO_ONE);
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
        let mut model = fixed(TEN_TO_ONE);
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
        let mut m = fixed(TEN_TO_ONE);
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
