//! Corner-compiled delay kernels.
//!
//! An STA run fixes the operating corner, so the 4-variable §IV.A
//! polynomials can be partially evaluated once at the corner's
//! `(T, VDD)` ([`crate::PolyModel::compile`]) and laid out as a flat
//! table of dense 2-D Horner matrices. Every timing arc — one
//! `(cell, pin, sensitization vector)` triple — gets a dense integer
//! [`ArcId`], so the enumeration inner loop resolves a model with two
//! array indexes instead of a `variant_index[pin][vector]` double
//! indirection.
//!
//! Because the folded kernels share their arithmetic with the
//! interpreted [`crate::PolyModel::eval`], a compiled run produces
//! **bit-identical** delays and slews; the interpreted models remain the
//! reference the lint rules and tests compare against.

use serde::{Deserialize, Serialize};

use sta_cells::{Corner, Edge, Polarity};
use sta_netlist::CellId;

use crate::model::TimingLibrary;
use crate::poly::CompiledPoly;

/// Dense index of one `(cell, pin, vector)` timing arc within a
/// [`CompiledCorner`]'s flat arc table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ArcId(u32);

impl ArcId {
    /// The raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One arc's folded models: delay and output slew for both input edges.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct CompiledArc {
    polarity: Polarity,
    rise_delay: CompiledPoly,
    rise_slew: CompiledPoly,
    fall_delay: CompiledPoly,
    fall_slew: CompiledPoly,
}

/// A [`TimingLibrary`] compiled for one fixed corner: every arc variant's
/// polynomials folded to 2-D `(Fo, t_in)` Horner matrices in a flat,
/// densely indexed table.
///
/// Layout: arcs are numbered cell-major, then pin, then vector, so
/// [`CompiledCorner::arc_id`] is two array reads plus an add —
/// `pin_base[cell_pin_row[cell] + pin] + vector`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompiledCorner {
    corner: Corner,
    /// Cell index → first row of that cell in `pin_base` (len = cells + 1).
    cell_pin_row: Vec<u32>,
    /// Flattened (cell, pin) row → [`ArcId`] of that pin's vector 0.
    pin_base: Vec<u32>,
    /// All folded arcs, indexed by [`ArcId`].
    arcs: Vec<CompiledArc>,
}

impl CompiledCorner {
    /// Folds every arc variant of `tlib` at `corner`.
    pub fn compile(tlib: &TimingLibrary, corner: Corner) -> Self {
        let mut cell_pin_row = Vec::with_capacity(tlib.cells.len() + 1);
        let mut pin_base = Vec::new();
        let mut arcs = Vec::new();
        for ct in &tlib.cells {
            cell_pin_row.push(pin_base.len() as u32);
            for per_pin in &ct.variant_index {
                pin_base.push(arcs.len() as u32);
                for &vi in per_pin {
                    let v = &ct.variants[vi];
                    arcs.push(CompiledArc {
                        polarity: v.polarity,
                        rise_delay: v.rise.delay.compile(corner.temperature, corner.vdd),
                        rise_slew: v.rise.slew.compile(corner.temperature, corner.vdd),
                        fall_delay: v.fall.delay.compile(corner.temperature, corner.vdd),
                        fall_slew: v.fall.slew.compile(corner.temperature, corner.vdd),
                    });
                }
            }
        }
        cell_pin_row.push(pin_base.len() as u32);
        CompiledCorner {
            corner,
            cell_pin_row,
            pin_base,
            arcs,
        }
    }

    /// The corner the kernels were folded at.
    pub fn corner(&self) -> Corner {
        self.corner
    }

    /// The dense id of the `(cell, pin, vector)` arc.
    ///
    /// # Panics
    ///
    /// Panics if the cell or pin is out of range (a vector index past the
    /// pin's block silently aliases the next arc — callers index with the
    /// same `vector` they'd pass to [`TimingLibrary::delay_slew`]).
    #[inline]
    pub fn arc_id(&self, cell: CellId, pin: u8, vector: usize) -> ArcId {
        let row = self.cell_pin_row[cell.index()] as usize + pin as usize;
        ArcId(self.pin_base[row] + vector as u32)
    }

    /// Folded (delay, slew) of an arc for the given input edge —
    /// bit-identical to the interpreted model at the compiled corner.
    #[inline]
    pub fn eval(&self, arc: ArcId, in_edge: Edge, fo: f64, t_in: f64) -> (f64, f64) {
        let a = &self.arcs[arc.0 as usize];
        match in_edge {
            Edge::Rise => (a.rise_delay.eval(fo, t_in), a.rise_slew.eval(fo, t_in)),
            Edge::Fall => (a.fall_delay.eval(fo, t_in), a.fall_slew.eval(fo, t_in)),
        }
    }

    /// Output polarity of an arc under its vector.
    #[inline]
    pub fn polarity(&self, arc: ArcId) -> Polarity {
        self.arcs[arc.0 as usize].polarity
    }

    /// Total number of compiled arcs.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Total number of folded coefficients across all kernels (a measure
    /// of the compiled footprint).
    pub fn num_coefficients(&self) -> usize {
        self.arcs
            .iter()
            .map(|a| {
                a.rise_delay.num_coefficients()
                    + a.rise_slew.num_coefficients()
                    + a.fall_delay.num_coefficients()
                    + a.fall_slew.num_coefficients()
            })
            .sum()
    }

    /// Observability tap: publishes the compiled table's footprint
    /// (`kernel.arcs`, `kernel.coefficients` gauges) and counts the
    /// compilation. Side-state only — the table itself is untouched.
    pub fn record_metrics(&self, obs: &sta_obs::Observer) {
        if !obs.is_enabled() {
            return;
        }
        obs.counter("kernel.compilations").inc();
        obs.gauge("kernel.arcs").set(self.num_arcs() as f64);
        obs.gauge("kernel.coefficients")
            .set(self.num_coefficients() as f64);
    }
}

impl TimingLibrary {
    /// Compiles every arc of the library for `corner` (see
    /// [`CompiledCorner`]).
    pub fn compile_corner(&self, corner: Corner) -> CompiledCorner {
        CompiledCorner::compile(self, corner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_cells::{Library, Technology};

    fn fast_library() -> (Library, TimingLibrary) {
        let mut lib = Library::new();
        lib.add("INV", 1, sta_cells::Expr::Pin(0).not());
        lib.add("NAND2", 2, sta_cells::Expr::and_pins(&[0, 1]).not());
        let tech = Technology::n90();
        let tlib = crate::characterize(&lib, &tech, &crate::CharConfig::fast()).unwrap();
        (lib, tlib)
    }

    #[test]
    fn arc_ids_are_dense_and_cover_every_variant() {
        let (lib, tlib) = fast_library();
        let corner = Corner::nominal(&tlib.tech);
        let compiled = tlib.compile_corner(corner);
        let expect: usize = tlib.cells.iter().map(|c| c.variants.len()).sum();
        assert_eq!(compiled.num_arcs(), expect);
        let mut seen = vec![false; expect];
        for cell in lib.iter() {
            let ct = tlib.cell(cell.id());
            for pin in 0..cell.num_pins() {
                for v in 0..ct.num_vectors(pin) {
                    let id = compiled.arc_id(cell.id(), pin, v);
                    assert!(!seen[id.index()], "ArcId {id:?} assigned twice");
                    seen[id.index()] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every ArcId reachable");
    }

    #[test]
    fn compiled_eval_is_bit_identical_to_interpreted() {
        let (lib, tlib) = fast_library();
        for corner in [
            Corner::nominal(&tlib.tech),
            Corner {
                temperature: 125.0,
                vdd: 0.9 * tlib.tech.vdd,
            },
        ] {
            let compiled = tlib.compile_corner(corner);
            for cell in lib.iter() {
                let ct = tlib.cell(cell.id());
                for pin in 0..cell.num_pins() {
                    for v in 0..ct.num_vectors(pin) {
                        let id = compiled.arc_id(cell.id(), pin, v);
                        assert_eq!(compiled.polarity(id), ct.variant(pin, v).polarity);
                        for edge in Edge::BOTH {
                            for &fo in &[0.3, 1.0, 2.7, 8.0, 40.0] {
                                for &t_in in &[5.0, 33.3, 120.0, 400.0] {
                                    let (dk, sk) = compiled.eval(id, edge, fo, t_in);
                                    let (di, si) =
                                        tlib.delay_slew(cell.id(), pin, v, edge, fo, t_in, corner);
                                    assert_eq!(dk.to_bits(), di.to_bits());
                                    assert_eq!(sk.to_bits(), si.to_bits());
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
