//! Library characterization and delay models (paper §IV.A).
//!
//! This crate turns the switch-level electrical simulator (`sta-esim`) into
//! usable timing models:
//!
//! * [`poly`] — the paper's analytical polynomial model
//!   `f(Fo, t_in, T, VDD)` with recursive order selection;
//! * [`lut`] — the NLDM-style look-up-table model used by the
//!   commercial-tool baseline (vector-blind, nominal corner);
//! * [`regress`] — self-contained least-squares machinery;
//! * [`model`] — the characterized [`TimingLibrary`] consumed by the STA
//!   engines;
//! * [`kernel`] — corner-compiled delay kernels: the polynomials folded
//!   at a fixed `(T, VDD)` into dense, [`ArcId`]-indexed Horner tables;
//! * [`mod@characterize`] — the one-time automatic extraction process
//!   (parallel sweep + fit + disk cache).
//!
//! # Example
//!
//! ```no_run
//! use sta_cells::{Library, Technology};
//! use sta_charlib::{characterize, CharConfig};
//!
//! # fn main() -> Result<(), sta_charlib::CharError> {
//! let lib = Library::standard();
//! let tech = Technology::n130();
//! let timing = characterize(&lib, &tech, &CharConfig::standard())?;
//! assert!(timing.covers(&lib));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod kernel;
pub mod liberty;
pub mod lut;
pub mod model;
pub mod montecarlo;
pub mod poly;
pub mod regress;
pub mod variation;

pub use characterize::{
    characterize, characterize_cached, characterize_cached_observed, characterize_cell,
    characterize_observed, CharConfig, CharError,
};
pub use kernel::{ArcId, CompiledCorner};
pub use lut::Lut2d;
pub use model::{ArcModel, ArcVariant, CellTiming, LutArc, TimingLibrary};
pub use montecarlo::{DelayDistribution, VariationSampler};
pub use poly::{CompiledPoly, FitError, PolyModel, Sample};
