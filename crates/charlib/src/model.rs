//! The characterized timing library: per-(cell, pin, vector, edge)
//! polynomial models plus the vector-blind LUT models of the baseline.

use serde::{Deserialize, Serialize};

use sta_cells::{Corner, Edge, Library, Polarity, Technology};
use sta_netlist::{CellId, GateKind, NetId, Netlist};

use crate::lut::Lut2d;
use crate::poly::PolyModel;

/// Delay and output-slew models of one timing-arc variant for one input
/// edge.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArcModel {
    /// Propagation delay model (ps).
    pub delay: PolyModel,
    /// Output transition-time model (ps).
    pub slew: PolyModel,
    /// Largest delay observed among the characterization samples, ps
    /// (used for conservative structural bounds).
    pub max_sample_delay: f64,
}

impl ArcModel {
    /// Evaluates delay and output slew.
    pub fn eval(&self, fo: f64, t_in: f64, corner: Corner) -> (f64, f64) {
        (
            self.delay.eval(fo, t_in, corner.temperature, corner.vdd),
            self.slew.eval(fo, t_in, corner.temperature, corner.vdd),
        )
    }
}

/// Models of one (pin, sensitization-vector) arc variant, both input edges.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArcVariant {
    /// The transitioning pin.
    pub pin: u8,
    /// 1-based case number within the pin (paper's Case 1/2/3).
    pub case: usize,
    /// Output polarity under this vector.
    pub polarity: Polarity,
    /// Models for an input rise.
    pub rise: ArcModel,
    /// Models for an input fall.
    pub fall: ArcModel,
}

impl ArcVariant {
    /// The models for the given input edge.
    pub fn for_edge(&self, edge: Edge) -> &ArcModel {
        match edge {
            Edge::Rise => &self.rise,
            Edge::Fall => &self.fall,
        }
    }
}

/// Vector-blind LUT models of one pin (characterized at the reference
/// vector only), per input edge.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LutArc {
    /// The transitioning pin.
    pub pin: u8,
    /// Polarity of the reference vector (the baseline assumes this
    /// polarity for the pin).
    pub polarity: Polarity,
    /// Delay table, input rise.
    pub rise_delay: Lut2d,
    /// Output-slew table, input rise.
    pub rise_slew: Lut2d,
    /// Delay table, input fall.
    pub fall_delay: Lut2d,
    /// Output-slew table, input fall.
    pub fall_slew: Lut2d,
}

impl LutArc {
    /// Evaluates (delay, slew) for the given input edge.
    pub fn eval(&self, edge: Edge, fo: f64, t_in: f64) -> (f64, f64) {
        match edge {
            Edge::Rise => (
                self.rise_delay.eval(fo, t_in),
                self.rise_slew.eval(fo, t_in),
            ),
            Edge::Fall => (
                self.fall_delay.eval(fo, t_in),
                self.fall_slew.eval(fo, t_in),
            ),
        }
    }
}

/// All timing data of one cell type.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellTiming {
    /// The cell this data describes.
    pub cell: CellId,
    /// Cell name (for reports).
    pub name: String,
    /// Per-pin input capacitance, fF.
    pub input_caps: Vec<f64>,
    /// Average input capacitance (the paper's per-cell-type `Cin`), fF.
    pub avg_input_cap: f64,
    /// All characterized arc variants.
    pub variants: Vec<ArcVariant>,
    /// `variant_index[pin][vector]` → index into `variants`.
    pub variant_index: Vec<Vec<usize>>,
    /// Vector-blind LUT models, one per pin.
    pub luts: Vec<LutArc>,
}

impl CellTiming {
    /// The arc variant for (pin, vector index).
    ///
    /// # Panics
    ///
    /// Panics if the pin or vector index is out of range.
    pub fn variant(&self, pin: u8, vector: usize) -> &ArcVariant {
        &self.variants[self.variant_index[pin as usize][vector]]
    }

    /// Number of sensitization vectors of `pin`.
    pub fn num_vectors(&self, pin: u8) -> usize {
        self.variant_index[pin as usize].len()
    }

    /// The LUT models of `pin`.
    pub fn lut(&self, pin: u8) -> &LutArc {
        &self.luts[pin as usize]
    }

    /// A conservative per-cell delay upper bound: the largest delay sample
    /// over all variants and edges.
    pub fn max_delay_bound(&self) -> f64 {
        self.variants
            .iter()
            .flat_map(|v| [v.rise.max_sample_delay, v.fall.max_sample_delay])
            .fold(0.0, f64::max)
    }
}

/// A characterized timing library for one technology.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimingLibrary {
    /// The technology this library was characterized for.
    pub tech: Technology,
    /// Per-cell timing, indexed by [`CellId`].
    pub cells: Vec<CellTiming>,
}

impl TimingLibrary {
    /// Timing data of one cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a cell of the characterized library.
    pub fn cell(&self, id: CellId) -> &CellTiming {
        &self.cells[id.index()]
    }

    /// Polynomial (delay, slew) of an arc variant.
    #[allow(clippy::too_many_arguments)]
    pub fn delay_slew(
        &self,
        cell: CellId,
        pin: u8,
        vector: usize,
        in_edge: Edge,
        fo: f64,
        t_in: f64,
        corner: Corner,
    ) -> (f64, f64) {
        self.cell(cell)
            .variant(pin, vector)
            .for_edge(in_edge)
            .eval(fo, t_in, corner)
    }

    /// Vector-blind LUT (delay, slew) of a pin.
    pub fn lut_delay_slew(
        &self,
        cell: CellId,
        pin: u8,
        in_edge: Edge,
        fo: f64,
        t_in: f64,
    ) -> (f64, f64) {
        self.cell(cell).lut(pin).eval(in_edge, fo, t_in)
    }

    /// The total capacitive load (fF) seen by the driver of `net`: the
    /// input capacitances of all fanout pins plus per-pin wire
    /// capacitance.
    ///
    /// # Panics
    ///
    /// Panics if a fanout gate is an unmapped primitive (run the
    /// technology mapper first).
    pub fn net_load(&self, nl: &Netlist, net: NetId) -> f64 {
        let mut load = 0.0;
        for pr in nl.net(net).fanout() {
            let gate = nl.gate(pr.gate);
            let cell = match gate.kind() {
                GateKind::Cell(c) => c,
                GateKind::Prim(op) => {
                    panic!("net_load on unmapped primitive gate {op}")
                }
            };
            load += self.cell(cell).input_caps[pr.pin] + self.tech.c_wire;
        }
        load
    }

    /// The equivalent fanout (paper §IV.A) of the gate driving `net`:
    /// `Fo = Cout / Cin` with `Cin` the driving cell's average input
    /// capacitance. Primary outputs with no fanout get a floor load of one
    /// wire capacitance.
    pub fn equivalent_fanout(&self, nl: &Netlist, net: NetId, driver_cell: CellId) -> f64 {
        let cout = self.net_load(nl, net).max(self.tech.c_wire);
        cout / self.cell(driver_cell).avg_input_cap
    }

    /// Sanity check: the library covers every cell id used by `lib`.
    pub fn covers(&self, lib: &Library) -> bool {
        lib.iter().all(|c| {
            self.cells
                .get(c.id().index())
                .is_some_and(|t| t.cell == c.id() && t.name == c.name())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Sample;

    fn dummy_poly(base: f64) -> PolyModel {
        let samples: Vec<Sample> = [0.5, 1.0, 2.0, 4.0]
            .iter()
            .flat_map(|&fo| {
                [20.0, 80.0].iter().map(move |&t_in| Sample {
                    fo,
                    t_in,
                    temperature: 25.0,
                    vdd: 1.0,
                    value: base + 3.0 * fo + 0.1 * t_in,
                })
            })
            .collect();
        PolyModel::fit(&samples, [1, 1, 0, 0]).unwrap()
    }

    fn dummy_lut(base: f64) -> Lut2d {
        Lut2d::tabulate(vec![0.5, 2.0, 8.0], vec![10.0, 100.0], |fo, tin| {
            base + 3.0 * fo + 0.1 * tin
        })
    }

    fn dummy_cell_timing(id: usize, name: &str, pins: u8, vectors_per_pin: usize) -> CellTiming {
        let arc = |pin: u8, case: usize| ArcVariant {
            pin,
            case,
            polarity: Polarity::Inverting,
            rise: ArcModel {
                delay: dummy_poly(10.0 + case as f64),
                slew: dummy_poly(20.0),
                max_sample_delay: 100.0 + case as f64,
            },
            fall: ArcModel {
                delay: dummy_poly(12.0 + case as f64),
                slew: dummy_poly(22.0),
                max_sample_delay: 110.0 + case as f64,
            },
        };
        let mut variants = Vec::new();
        let mut variant_index = Vec::new();
        for pin in 0..pins {
            let mut per_pin = Vec::new();
            for case in 1..=vectors_per_pin {
                per_pin.push(variants.len());
                variants.push(arc(pin, case));
            }
            variant_index.push(per_pin);
        }
        let luts = (0..pins)
            .map(|pin| LutArc {
                pin,
                polarity: Polarity::Inverting,
                rise_delay: dummy_lut(10.0),
                rise_slew: dummy_lut(20.0),
                fall_delay: dummy_lut(12.0),
                fall_slew: dummy_lut(22.0),
            })
            .collect();
        CellTiming {
            cell: CellId::from_index(id),
            name: name.into(),
            input_caps: vec![2.0; pins as usize],
            avg_input_cap: 2.0,
            variants,
            variant_index,
            luts,
        }
    }

    #[test]
    fn variant_lookup_and_bounds() {
        let ct = dummy_cell_timing(0, "X", 2, 3);
        assert_eq!(ct.num_vectors(1), 3);
        assert_eq!(ct.variant(1, 2).case, 3);
        assert_eq!(ct.max_delay_bound(), 113.0);
    }

    #[test]
    fn library_eval_paths() {
        let tlib = TimingLibrary {
            tech: Technology::n90(),
            cells: vec![dummy_cell_timing(0, "X", 2, 1)],
        };
        let corner = Corner::nominal(&tlib.tech);
        let (d, s) = tlib.delay_slew(CellId::from_index(0), 0, 0, Edge::Rise, 2.0, 50.0, corner);
        assert!((d - (11.0 + 6.0 + 5.0)).abs() < 1e-6);
        assert!(s > 0.0);
        let (dl, _) = tlib.lut_delay_slew(CellId::from_index(0), 0, Edge::Fall, 2.0, 50.0);
        assert!((dl - (12.0 + 6.0 + 5.0)).abs() < 1e-6);
    }

    #[test]
    fn net_load_and_fanout() {
        use sta_netlist::GateKind;
        let tlib = TimingLibrary {
            tech: Technology::n90(),
            cells: vec![dummy_cell_timing(0, "X", 2, 1)],
        };
        let cid = CellId::from_index(0);
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate(GateKind::Cell(cid), &[a, b], None).unwrap();
        let z = nl.add_gate(GateKind::Cell(cid), &[x, a], None).unwrap();
        nl.mark_output(z);
        // x drives one pin: load = 2.0 + c_wire.
        let load = tlib.net_load(&nl, x);
        assert!((load - (2.0 + tlib.tech.c_wire)).abs() < 1e-9);
        let fo = tlib.equivalent_fanout(&nl, x, cid);
        assert!((fo - load / 2.0).abs() < 1e-9);
        // Primary output z has no fanout: floor load.
        let fo_out = tlib.equivalent_fanout(&nl, z, cid);
        assert!((fo_out - tlib.tech.c_wire / 2.0).abs() < 1e-9);
    }
}
