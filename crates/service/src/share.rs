//! Boot products shared between the services of one fleet.
//!
//! A service boot calibrates a cost model and links one image per module
//! and sub-slot. Both depend only on the boot's inputs, never on the
//! machine, so services booted through one [`BootShare`] compute each
//! product once: the cost model per `(SystemKind, kernels)`, the images
//! per system kind, component, origin and slot plan. Every service still
//! gets its own cost-model clone (reconfiguration EWMAs stay per machine)
//! and its own machine, warm-up load and clock.

use rtr_apps::request::Kernel;
use rtr_core::{ImageTable, OnceTable, SystemKind};

use crate::cost::CostModel;

/// Calibrations and linked images shared by the services booted with it.
/// Cloning shares the tables. A share lives as long as its clones: a
/// cluster or federation drops it once every shard has booted, and each
/// [`crate::Service::new`] boots through a private one.
#[derive(Debug, Clone, Default)]
pub struct BootShare {
    calibrations: OnceTable<(SystemKind, Vec<Kernel>), CostModel>,
    images: ImageTable,
}

impl BootShare {
    /// Empty tables.
    pub fn new() -> Self {
        BootShare::default()
    }

    /// The cost model for `kernels` on `kind`: [`CostModel::calibrate`]
    /// on the first request for the pair, a clone of that result after.
    pub(crate) fn calibration(&self, kind: SystemKind, kernels: &[Kernel]) -> CostModel {
        self.calibrations.get_or_init((kind, kernels.to_vec()), || {
            CostModel::calibrate(kind, kernels)
        })
    }

    /// The linked-image table module managers register through.
    pub(crate) fn images(&self) -> &ImageTable {
        &self.images
    }
}
