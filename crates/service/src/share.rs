//! Boot products shared between the services of one fleet.
//!
//! A service boot links one image per module and sub-slot, and its cost
//! model fits each kernel on first read. Both depend only on their inputs,
//! never on the machine, so services booted through one [`BootShare`]
//! compute each product once: one fit cell per `(SystemKind, Kernel)`, the
//! images per system kind, component, origin and slot plan. Every service
//! still gets its own cost-model clone (reconfiguration EWMAs stay per
//! machine) and its own machine, warm-up load and clock.

use rtr_apps::request::Kernel;
use rtr_core::{ImageTable, OnceTable, SystemKind};

use crate::cost::FitCell;

/// Fit cells and linked images shared by the services booted with it.
/// Cloning shares the tables. A share lives as long as its clones: a
/// cluster or federation drops it once every shard has booted, and each
/// [`crate::Service::new`] boots through a private one. The fit cells
/// live on in the cost models that hold them.
#[derive(Debug, Clone, Default)]
pub struct BootShare {
    fits: OnceTable<(SystemKind, Kernel), FitCell>,
    images: ImageTable,
}

impl BootShare {
    /// Empty tables.
    pub fn new() -> Self {
        BootShare::default()
    }

    /// The cell `kernel`'s fit on `kind` is computed into: one cell per
    /// pair, so models of different kernel lists share it. The first
    /// model to read the kernel's estimates fills it; a model reading it
    /// meanwhile on another thread waits for that one fit.
    pub(crate) fn fit_cell(&self, kind: SystemKind, kernel: Kernel) -> FitCell {
        self.fits.get_or_init((kind, kernel), FitCell::default)
    }

    /// The linked-image table module managers register through.
    pub(crate) fn images(&self) -> &ImageTable {
        &self.images
    }
}
