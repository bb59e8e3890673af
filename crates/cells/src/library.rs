//! The standard-cell library: cell descriptors and the library container.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use sta_netlist::verilog::{CellResolver, ResolvedCell};
use sta_netlist::{CellId, GateKind, Netlist, NetlistError, PrimOp};

use crate::func::{pin_name, Expr, TernaryTable, TruthTable};
use crate::sensitization::{enumerate, PinArcs, SensVector};
use crate::topology::CellTopology;

/// A standard-cell type: logic function, sensitization arcs and transistor
/// realization.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    id: CellId,
    name: String,
    pin_names: Vec<String>,
    expr: Expr,
    tt: TruthTable,
    /// Derived from `expr`; [`Library::rebuild_name_index`] rebuilds it
    /// after deserialization.
    #[serde(skip)]
    ternary: TernaryTable,
    arcs: Vec<PinArcs>,
    topology: CellTopology,
}

impl Cell {
    fn new(id: CellId, name: &str, num_pins: u8, expr: Expr) -> Self {
        let tt = TruthTable::from_expr(&expr, num_pins);
        let ternary = TernaryTable::from_expr(&expr, num_pins);
        let arcs = enumerate(&tt);
        let topology = CellTopology::derive(&expr);
        let pin_names = (0..num_pins).map(|p| pin_name(p).to_string()).collect();
        Cell {
            id,
            name: name.to_string(),
            pin_names,
            expr,
            tt,
            ternary,
            arcs,
            topology,
        }
    }

    /// The library id of this cell type.
    #[inline]
    pub fn id(&self) -> CellId {
        self.id
    }

    /// The cell name, e.g. `"AO22"`.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of input pins.
    #[inline]
    pub fn num_pins(&self) -> u8 {
        self.tt.num_pins()
    }

    /// Pin names in pin order (`A`, `B`, …; `S` for the MUX select).
    #[inline]
    pub fn pin_names(&self) -> &[String] {
        &self.pin_names
    }

    /// The logic function specification.
    #[inline]
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The truth table of the function.
    #[inline]
    pub fn truth_table(&self) -> &TruthTable {
        &self.tt
    }

    /// The three-valued function of the expression, tabulated: what the
    /// implication engine evaluates the cell's gates with.
    #[inline]
    pub fn ternary_table(&self) -> &TernaryTable {
        &self.ternary
    }

    /// Sensitization arcs, one entry per pin (paper Tables 1–2).
    #[inline]
    pub fn arcs(&self) -> &[PinArcs] {
        &self.arcs
    }

    /// The sensitization vectors of one pin.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range.
    pub fn vectors_of(&self, pin: u8) -> &[SensVector] {
        &self.arcs[pin as usize].vectors
    }

    /// The CMOS realization.
    #[inline]
    pub fn topology(&self) -> &CellTopology {
        &self.topology
    }

    /// Whether any pin has more than one sensitization vector — the cells
    /// the paper calls *complex* in the timing sense.
    pub fn is_multi_vector(&self) -> bool {
        self.arcs.iter().any(|a| a.vectors.len() > 1)
    }

    /// Sum of transistor widths gated directly by `pin` (the structural
    /// part of the pin's input capacitance; the `sta-esim`/`sta-charlib`
    /// crates refine this electrically).
    pub fn pin_gate_width(&self, pin: u8) -> f64 {
        use crate::topology::Signal;
        let mut w = 0.0;
        for stage in &self.topology.stages {
            for s in stage.pulldown.signals() {
                if s == Signal::Pin(pin) {
                    w += stage.nmos_width + stage.pmos_width;
                }
            }
        }
        w
    }

    /// Evaluates the cell on a pin assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the pin count.
    pub fn eval(&self, pins: &[bool]) -> bool {
        self.tt.eval(pins)
    }
}

/// A library of standard cells, indexable by [`CellId`] or name.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Library {
    cells: Vec<Cell>,
    #[serde(skip)]
    by_name: HashMap<String, CellId>,
}

impl Library {
    /// Creates an empty library.
    pub fn new() -> Self {
        Library::default()
    }

    /// Builds the full standard library used throughout the reproduction:
    /// inverters/buffers, NAND/NOR/AND/OR 2–4, XOR/XNOR, the AOI/OAI/AO/OA
    /// complex-gate families (including the paper's AO22 and OA12) and a
    /// 2-input multiplexer.
    pub fn standard() -> Self {
        use Expr::*;
        let mut lib = Library::new();
        let p = |i: u8| Expr::Pin(i);
        let defs: Vec<(&str, u8, Expr)> = vec![
            ("INV", 1, p(0).not()),
            ("BUF", 1, p(0)),
            ("NAND2", 2, Expr::and_pins(&[0, 1]).not()),
            ("NAND3", 3, Expr::and_pins(&[0, 1, 2]).not()),
            ("NAND4", 4, Expr::and_pins(&[0, 1, 2, 3]).not()),
            ("NOR2", 2, Expr::or_pins(&[0, 1]).not()),
            ("NOR3", 3, Expr::or_pins(&[0, 1, 2]).not()),
            ("NOR4", 4, Expr::or_pins(&[0, 1, 2, 3]).not()),
            ("AND2", 2, Expr::and_pins(&[0, 1])),
            ("AND3", 3, Expr::and_pins(&[0, 1, 2])),
            ("AND4", 4, Expr::and_pins(&[0, 1, 2, 3])),
            ("OR2", 2, Expr::or_pins(&[0, 1])),
            ("OR3", 3, Expr::or_pins(&[0, 1, 2])),
            ("OR4", 4, Expr::or_pins(&[0, 1, 2, 3])),
            ("XOR2", 2, Xor(vec![p(0), p(1)])),
            ("XNOR2", 2, Xor(vec![p(0), p(1)]).not()),
            ("AOI21", 3, Or(vec![Expr::and_pins(&[0, 1]), p(2)]).not()),
            (
                "AOI22",
                4,
                Or(vec![Expr::and_pins(&[0, 1]), Expr::and_pins(&[2, 3])]).not(),
            ),
            ("OAI12", 3, And(vec![Expr::or_pins(&[0, 1]), p(2)]).not()),
            (
                "OAI22",
                4,
                And(vec![Expr::or_pins(&[0, 1]), Expr::or_pins(&[2, 3])]).not(),
            ),
            ("AO21", 3, Or(vec![Expr::and_pins(&[0, 1]), p(2)])),
            (
                "AO22",
                4,
                Or(vec![Expr::and_pins(&[0, 1]), Expr::and_pins(&[2, 3])]),
            ),
            ("OA12", 3, And(vec![Expr::or_pins(&[0, 1]), p(2)])),
            (
                "OA22",
                4,
                And(vec![Expr::or_pins(&[0, 1]), Expr::or_pins(&[2, 3])]),
            ),
            (
                "MUX2",
                3,
                Or(vec![And(vec![p(0), p(2).not()]), And(vec![p(1), p(2)])]),
            ),
        ];
        for (name, pins, expr) in defs {
            lib.add(name, pins, expr);
        }
        // The MUX select pin is conventionally called S.
        let mux = lib.by_name["MUX2"];
        lib.cells[mux.index()].pin_names[2] = "S".into();
        // ×2 drive-strength variants of every cell (ECO resize targets).
        // They share the base cell's function, truth table and
        // sensitization arcs — only the transistor widths differ — so a
        // resize is a delay-only edit by construction.
        let bases: Vec<CellId> = lib.cells.iter().map(|c| c.id).collect();
        for base in bases {
            lib.add_drive_variant(base, 2.0);
        }
        lib
    }

    /// Adds a cell and returns its id.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names or unsupported pin counts.
    pub fn add(&mut self, name: &str, num_pins: u8, expr: Expr) -> CellId {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate cell name {name:?}"
        );
        let id = CellId::from_index(self.cells.len());
        self.cells.push(Cell::new(id, name, num_pins, expr));
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Adds a drive-strength variant of an existing cell: same logic
    /// function, pin names, truth table, ternary table (shared, not
    /// copied) and sensitization arcs, with every
    /// topology stage's transistor widths scaled by `scale`. The variant is
    /// named `BASE_X<scale>` (e.g. `NAND2_X2`) and returned.
    ///
    /// # Panics
    ///
    /// Panics if the resulting name is already taken or `scale` is not a
    /// positive integer multiple.
    pub fn add_drive_variant(&mut self, base: CellId, scale: f64) -> CellId {
        assert!(
            scale > 0.0 && scale.fract() == 0.0,
            "drive scale must be a positive integer, got {scale}"
        );
        let mut cell = self.cells[base.index()].clone();
        let name = format!("{}_X{}", cell.name, scale as u32);
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate cell name {name:?}"
        );
        let id = CellId::from_index(self.cells.len());
        cell.id = id;
        cell.name = name.clone();
        for stage in &mut cell.topology.stages {
            stage.nmos_width *= scale;
            stage.pmos_width *= scale;
        }
        self.cells.push(cell);
        self.by_name.insert(name, id);
        id
    }

    /// The alternate drive-strength of a cell, if the library has one:
    /// maps a base cell to its `_X2` variant and a variant back to its
    /// base. This is the edit target of the ECO `resize_gate` transform.
    pub fn resize_target(&self, id: CellId) -> Option<CellId> {
        let name = self.cell(id).name();
        match name.strip_suffix("_X2") {
            Some(base) => self.by_name.get(base).copied(),
            None => self.by_name.get(&format!("{name}_X2")).copied(),
        }
    }

    /// Number of cell types.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Access a cell by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this library.
    #[inline]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Looks a cell up by name.
    pub fn cell_by_name(&self, name: &str) -> Option<&Cell> {
        self.by_name.get(name).map(|id| self.cell(*id))
    }

    /// Iterates over all cells.
    pub fn iter(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter()
    }

    /// The library cell implementing a primitive operator at the given
    /// fan-in, if any (used by the technology mapper).
    pub fn cell_for_prim(&self, op: PrimOp, fanin: usize) -> Option<CellId> {
        let name = match (op, fanin) {
            (PrimOp::Not, 1) => "INV",
            (PrimOp::Buf, 1) => "BUF",
            (PrimOp::Nand, 2) => "NAND2",
            (PrimOp::Nand, 3) => "NAND3",
            (PrimOp::Nand, 4) => "NAND4",
            (PrimOp::Nor, 2) => "NOR2",
            (PrimOp::Nor, 3) => "NOR3",
            (PrimOp::Nor, 4) => "NOR4",
            (PrimOp::And, 2) => "AND2",
            (PrimOp::And, 3) => "AND3",
            (PrimOp::And, 4) => "AND4",
            (PrimOp::Or, 2) => "OR2",
            (PrimOp::Or, 3) => "OR3",
            (PrimOp::Or, 4) => "OR4",
            (PrimOp::Xor, 2) => "XOR2",
            (PrimOp::Xnor, 2) => "XNOR2",
            _ => return None,
        };
        self.by_name.get(name).copied()
    }

    /// Evaluates a *mapped* netlist under a Boolean input assignment.
    ///
    /// Works for primitive gates too, so partially mapped netlists
    /// evaluate correctly.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the PI count or the
    /// netlist has a cycle.
    pub fn eval_netlist(&self, nl: &Netlist, assignment: &[bool]) -> Vec<bool> {
        assert_eq!(assignment.len(), nl.inputs().len());
        let mut value = vec![false; nl.num_nets()];
        for (&net, &v) in nl.inputs().iter().zip(assignment) {
            value[net.index()] = v;
        }
        let order = nl.topo_gates();
        assert_eq!(order.len(), nl.num_gates(), "netlist has a cycle");
        let mut buf = Vec::new();
        for g in order {
            let gate = nl.gate(g);
            buf.clear();
            buf.extend(gate.inputs().iter().map(|n| value[n.index()]));
            value[gate.output().index()] = match gate.kind() {
                GateKind::Prim(op) => op.eval(&buf),
                GateKind::Cell(c) => self.cell(c).eval(&buf),
            };
        }
        nl.outputs().iter().map(|o| value[o.index()]).collect()
    }

    /// Rebuilds what deserialization skips: the name index and each
    /// cell's ternary table.
    pub fn rebuild_name_index(&mut self) {
        self.by_name = self.cells.iter().map(|c| (c.name.clone(), c.id)).collect();
        for cell in &mut self.cells {
            cell.ternary = TernaryTable::from_expr(&cell.expr, cell.tt.num_pins());
        }
    }
}

impl CellResolver for Library {
    fn resolve(&self, cell_name: &str) -> Result<ResolvedCell, NetlistError> {
        let cell = self
            .cell_by_name(cell_name)
            .ok_or_else(|| NetlistError::UnknownName(cell_name.to_string()))?;
        Ok(ResolvedCell {
            id: cell.id(),
            input_pins: cell.pin_names().to_vec(),
            output_pin: "Z".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_is_complete_and_consistent() {
        let lib = Library::standard();
        // 25 base cells plus one ×2 drive variant each.
        assert_eq!(lib.len(), 50);
        for cell in lib.iter() {
            // Realization matches specification on every input pattern.
            let n = cell.num_pins();
            for row in 0..(1u32 << n) {
                let pins: Vec<bool> = (0..n).map(|k| row & (1 << k) != 0).collect();
                assert_eq!(
                    cell.topology().eval(&pins),
                    cell.eval(&pins),
                    "{} row {row}",
                    cell.name()
                );
            }
            // Every pin matters and is sensitizable.
            for pin in 0..n {
                assert!(cell.truth_table().depends_on(pin), "{}", cell.name());
                assert!(
                    !cell.vectors_of(pin).is_empty(),
                    "{} pin {pin}",
                    cell.name()
                );
            }
        }
    }

    #[test]
    fn multi_vector_classification() {
        let lib = Library::standard();
        for (name, expect) in [
            ("INV", false),
            ("NAND3", false),
            ("AND2", false),
            ("AO22", true),
            ("OA12", true),
            ("AOI21", true),
            ("XOR2", true),
            ("MUX2", true),
        ] {
            assert_eq!(
                lib.cell_by_name(name).unwrap().is_multi_vector(),
                expect,
                "{name}"
            );
        }
    }

    #[test]
    fn ao22_has_twelve_arc_variants() {
        // Paper: "gate AO22 has three sensitization vectors for each input,
        // leading to a total of 12 different delay propagation values".
        let lib = Library::standard();
        let ao22 = lib.cell_by_name("AO22").unwrap();
        let total: usize = ao22.arcs().iter().map(|a| a.vectors.len()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn drive_variants_share_function_and_double_widths() {
        let lib = Library::standard();
        for cell in lib.iter().filter(|c| !c.name().ends_with("_X2")) {
            let var = lib
                .cell_by_name(&format!("{}_X2", cell.name()))
                .unwrap_or_else(|| panic!("{} has no X2 variant", cell.name()));
            assert_eq!(var.truth_table(), cell.truth_table(), "{}", cell.name());
            assert_eq!(var.expr(), cell.expr(), "{}", cell.name());
            assert_eq!(var.ternary_table(), cell.ternary_table(), "{}", cell.name());
            assert_eq!(var.arcs(), cell.arcs(), "{}", cell.name());
            assert_eq!(var.pin_names(), cell.pin_names(), "{}", cell.name());
            for (b, v) in cell.topology().stages.iter().zip(&var.topology().stages) {
                assert_eq!(v.pulldown, b.pulldown);
                assert_eq!(v.nmos_width, 2.0 * b.nmos_width);
                assert_eq!(v.pmos_width, 2.0 * b.pmos_width);
            }
            // resize_target is an involution between base and variant.
            assert_eq!(lib.resize_target(cell.id()), Some(var.id()));
            assert_eq!(lib.resize_target(var.id()), Some(cell.id()));
        }
    }

    #[test]
    fn prim_mapping_covers_bench_operators() {
        let lib = Library::standard();
        for op in [PrimOp::And, PrimOp::Or, PrimOp::Nand, PrimOp::Nor] {
            for fanin in 2..=4 {
                assert!(lib.cell_for_prim(op, fanin).is_some(), "{op} {fanin}");
            }
        }
        assert!(lib.cell_for_prim(PrimOp::Not, 1).is_some());
        assert!(lib.cell_for_prim(PrimOp::Xor, 2).is_some());
        assert!(lib.cell_for_prim(PrimOp::Nand, 7).is_none());
    }

    #[test]
    fn eval_netlist_resolves_cells() {
        use sta_netlist::GateKind;
        let lib = Library::standard();
        let ao22 = lib.cell_by_name("AO22").unwrap().id();
        let inv = lib.cell_by_name("INV").unwrap().id();
        let mut nl = Netlist::new("t");
        let ins: Vec<_> = (0..4).map(|i| nl.add_input(format!("i{i}"))).collect();
        let x = nl.add_gate(GateKind::Cell(ao22), &ins, None).unwrap();
        let z = nl.add_gate(GateKind::Cell(inv), &[x], Some("z")).unwrap();
        nl.mark_output(z);
        // Z = !(A*B + C*D)
        assert_eq!(
            lib.eval_netlist(&nl, &[true, true, false, false]),
            vec![false]
        );
        assert_eq!(
            lib.eval_netlist(&nl, &[true, false, false, true]),
            vec![true]
        );
    }

    #[test]
    fn pin_gate_width_is_positive() {
        let lib = Library::standard();
        for cell in lib.iter() {
            for pin in 0..cell.num_pins() {
                assert!(cell.pin_gate_width(pin) > 0.0, "{} pin {pin}", cell.name());
            }
        }
    }

    /// Arc polarity is consistent with the truth-table unateness: a
    /// positive-unate pin never yields an inverting vector and vice versa;
    /// binate pins (XOR-like) must expose both polarities.
    #[test]
    fn vector_polarity_matches_unateness() {
        use crate::func::Unateness;
        use crate::sensitization::Polarity;
        let lib = Library::standard();
        for cell in lib.iter() {
            for pin in 0..cell.num_pins() {
                let unate = cell.truth_table().unateness(pin);
                let vectors = cell.vectors_of(pin);
                match unate {
                    Unateness::Positive => assert!(
                        vectors.iter().all(|v| v.polarity == Polarity::NonInverting),
                        "{} pin {pin}",
                        cell.name()
                    ),
                    Unateness::Negative => assert!(
                        vectors.iter().all(|v| v.polarity == Polarity::Inverting),
                        "{} pin {pin}",
                        cell.name()
                    ),
                    Unateness::Binate => {
                        assert!(vectors.iter().any(|v| v.polarity == Polarity::NonInverting));
                        assert!(vectors.iter().any(|v| v.polarity == Polarity::Inverting));
                    }
                    Unateness::Independent => {
                        panic!("{} pin {pin} is unused", cell.name())
                    }
                }
            }
        }
    }

    #[test]
    fn resolver_reports_mux_select_pin() {
        let lib = Library::standard();
        let r = lib.resolve("MUX2").unwrap();
        assert_eq!(r.input_pins, vec!["A", "B", "S"]);
        assert!(lib.resolve("NOPE").is_err());
    }
}
