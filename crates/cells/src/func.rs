//! Logic functions of standard cells: expression ASTs, truth tables and
//! the ternary tables that three-valued simulation looks gates up in.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Maximum number of cell input pins supported (truth tables are stored in
/// a `u64`, i.e. up to 2⁶ rows).
pub const MAX_PINS: u8 = 6;

/// A Boolean expression over cell input pins.
///
/// Pins are referred to by position (0-based); the library assigns the
/// conventional names `A`, `B`, `C`, … Expressions are the *specification*
/// of a cell's function; the transistor realization is derived separately
/// (see [`crate::topology`]).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// An input pin.
    Pin(u8),
    /// Logical complement.
    Not(Box<Expr>),
    /// Conjunction of two or more terms.
    And(Vec<Expr>),
    /// Disjunction of two or more terms.
    Or(Vec<Expr>),
    /// Exclusive OR of two or more terms (odd parity).
    Xor(Vec<Expr>),
}

impl Expr {
    /// Convenience constructor: `AND` of the given pins.
    pub fn and_pins(pins: &[u8]) -> Expr {
        Expr::And(pins.iter().map(|&p| Expr::Pin(p)).collect())
    }

    /// Convenience constructor: `OR` of the given pins.
    pub fn or_pins(pins: &[u8]) -> Expr {
        Expr::Or(pins.iter().map(|&p| Expr::Pin(p)).collect())
    }

    /// Wraps `self` in a complement.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Evaluates the expression under the given pin assignment.
    ///
    /// # Panics
    ///
    /// Panics if a referenced pin index is out of range.
    pub fn eval(&self, pins: &[bool]) -> bool {
        match self {
            Expr::Pin(p) => pins[*p as usize],
            Expr::Not(e) => !e.eval(pins),
            Expr::And(es) => es.iter().all(|e| e.eval(pins)),
            Expr::Or(es) => es.iter().any(|e| e.eval(pins)),
            Expr::Xor(es) => es.iter().fold(false, |acc, e| acc ^ e.eval(pins)),
        }
    }

    /// Evaluates the expression tree in strong Kleene logic, `None` being
    /// unknown: each node from its children's values, so a 0 settles an
    /// AND, a 1 settles an OR and any unknown leaves an XOR unknown (see
    /// [`TernaryTable`]).
    fn eval_kleene(&self, pins: &[Option<bool>]) -> Option<bool> {
        match self {
            Expr::Pin(p) => pins[*p as usize],
            Expr::Not(e) => e.eval_kleene(pins).map(|v| !v),
            Expr::And(es) | Expr::Or(es) => {
                // A 0 settles an AND and a 1 settles an OR; otherwise any
                // unknown child leaves the node unknown.
                let settling = matches!(self, Expr::Or(_));
                let mut out = Some(!settling);
                for v in es.iter().map(|e| e.eval_kleene(pins)) {
                    match v {
                        Some(b) if b == settling => return Some(settling),
                        None => out = None,
                        Some(_) => {}
                    }
                }
                out
            }
            Expr::Xor(es) => es
                .iter()
                .try_fold(false, |acc, e| Some(acc ^ e.eval_kleene(pins)?)),
        }
    }

    /// The highest pin index referenced, or `None` for a constant-free
    /// expression (which cannot be built with this AST).
    pub fn max_pin(&self) -> Option<u8> {
        match self {
            Expr::Pin(p) => Some(*p),
            Expr::Not(e) => e.max_pin(),
            Expr::And(es) | Expr::Or(es) | Expr::Xor(es) => {
                es.iter().filter_map(Expr::max_pin).max()
            }
        }
    }

    /// Pretty-prints with pin letters (`A`, `B`, …).
    pub fn display(&self) -> ExprDisplay<'_> {
        ExprDisplay(self)
    }
}

/// Display adapter produced by [`Expr::display`].
pub struct ExprDisplay<'a>(&'a Expr);

impl fmt::Display for ExprDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(e: &Expr, f: &mut fmt::Formatter<'_>, parent_tight: bool) -> fmt::Result {
            match e {
                Expr::Pin(p) => write!(f, "{}", pin_name(*p)),
                Expr::Not(inner) => {
                    write!(f, "!")?;
                    go(inner, f, true)
                }
                Expr::And(es) => {
                    for (i, t) in es.iter().enumerate() {
                        if i > 0 {
                            write!(f, "*")?;
                        }
                        go(t, f, true)?;
                    }
                    Ok(())
                }
                Expr::Or(es) => {
                    if parent_tight {
                        write!(f, "(")?;
                    }
                    for (i, t) in es.iter().enumerate() {
                        if i > 0 {
                            write!(f, "+")?;
                        }
                        go(t, f, false)?;
                    }
                    if parent_tight {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Expr::Xor(es) => {
                    if parent_tight {
                        write!(f, "(")?;
                    }
                    for (i, t) in es.iter().enumerate() {
                        if i > 0 {
                            write!(f, "^")?;
                        }
                        go(t, f, true)?;
                    }
                    if parent_tight {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
            }
        }
        go(self.0, f, false)
    }
}

/// The conventional name of pin `p`: `A`, `B`, `C`, …
pub fn pin_name(p: u8) -> char {
    (b'A' + p) as char
}

/// A truth table over up to [`MAX_PINS`] inputs, packed into a `u64`.
///
/// Bit `i` holds the function value for the input pattern whose pin `k`
/// equals bit `k` of `i` (pin 0 is the least significant bit).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TruthTable {
    num_pins: u8,
    bits: u64,
}

impl TruthTable {
    /// Builds the table of `expr` over `num_pins` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `num_pins` exceeds [`MAX_PINS`] or the expression
    /// references a pin outside the range.
    pub fn from_expr(expr: &Expr, num_pins: u8) -> Self {
        assert!((1..=MAX_PINS).contains(&num_pins), "1..=6 pins supported");
        if let Some(mp) = expr.max_pin() {
            assert!(mp < num_pins, "expression references pin out of range");
        }
        let mut bits = 0u64;
        let rows = 1u32 << num_pins;
        let mut pins = vec![false; num_pins as usize];
        for row in 0..rows {
            for (k, pin) in pins.iter_mut().enumerate() {
                *pin = row & (1 << k) != 0;
            }
            if expr.eval(&pins) {
                bits |= 1 << row;
            }
        }
        TruthTable { num_pins, bits }
    }

    /// Number of input pins.
    #[inline]
    pub fn num_pins(&self) -> u8 {
        self.num_pins
    }

    /// Looks up the output for an input pattern given as packed bits
    /// (pin 0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `row` has bits set above the pin count.
    #[inline]
    pub fn value(&self, row: u32) -> bool {
        assert!(row < (1 << self.num_pins), "row out of range");
        self.bits >> row & 1 == 1
    }

    /// Looks up the output for an input pattern given as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `pins.len()` differs from the pin count.
    pub fn eval(&self, pins: &[bool]) -> bool {
        assert_eq!(pins.len(), self.num_pins as usize);
        let row = pins
            .iter()
            .enumerate()
            .fold(0u32, |acc, (k, &b)| acc | (u32::from(b) << k));
        self.value(row)
    }

    /// Returns `true` if the function actually depends on pin `p`.
    pub fn depends_on(&self, p: u8) -> bool {
        let rows = 1u32 << self.num_pins;
        (0..rows)
            .filter(|row| row & (1 << p) == 0)
            .any(|row| self.value(row) != self.value(row | (1 << p)))
    }

    /// Unateness of the function in pin `p`.
    pub fn unateness(&self, p: u8) -> Unateness {
        let mut pos = false;
        let mut neg = false;
        let rows = 1u32 << self.num_pins;
        for row in (0..rows).filter(|row| row & (1 << p) == 0) {
            let f0 = self.value(row);
            let f1 = self.value(row | (1 << p));
            if !f0 && f1 {
                pos = true;
            }
            if f0 && !f1 {
                neg = true;
            }
        }
        match (pos, neg) {
            (true, false) => Unateness::Positive,
            (false, true) => Unateness::Negative,
            (true, true) => Unateness::Binate,
            (false, false) => Unateness::Independent,
        }
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} pins, {:#x})", self.num_pins, self.bits)
    }
}

/// The three-valued function of a cell expression, tabulated for
/// evaluation by lookup: the expression tree evaluated node by node in
/// strong Kleene logic over every assignment of 0, 1 and unknown to the
/// pins. That is what three-valued simulation of the tree computes, not
/// the exact ternary extension of the cell's [`TruthTable`]: a MUX with
/// both data pins at 1 and an unknown select reads unknown here, though
/// every completion of the select gives 1.
///
/// A pin value is a 2-bit code — [`TernaryTable::ZERO`],
/// [`TernaryTable::ONE`] or [`TernaryTable::X`] — and pin `k` occupies
/// bits `2k..2k+2` of the row index, so a `k`-pin table has `4^k`
/// one-byte entries, each a code. The spare code 3 reads as unknown.
/// The entries sit behind an `Arc`, so clones (drive-strength variants)
/// share them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TernaryTable {
    entries: Arc<[u8]>,
}

impl TernaryTable {
    /// Code of logic 0.
    pub const ZERO: u8 = 0;
    /// Code of logic 1.
    pub const ONE: u8 = 1;
    /// Code of an unknown value.
    pub const X: u8 = 2;

    /// Tabulates the Kleene evaluation of `expr` over `num_pins` inputs.
    ///
    /// # Panics
    ///
    /// As [`TruthTable::from_expr`].
    pub fn from_expr(expr: &Expr, num_pins: u8) -> Self {
        assert!((1..=MAX_PINS).contains(&num_pins), "1..=6 pins supported");
        if let Some(mp) = expr.max_pin() {
            assert!(mp < num_pins, "expression references pin out of range");
        }
        let mut pins = vec![None; num_pins as usize];
        let entries = (0..1usize << (2 * num_pins))
            .map(|row| {
                for (k, pin) in pins.iter_mut().enumerate() {
                    *pin = match (row >> (2 * k) & 3) as u8 {
                        TernaryTable::ZERO => Some(false),
                        TernaryTable::ONE => Some(true),
                        _ => None,
                    };
                }
                match expr.eval_kleene(&pins) {
                    Some(false) => TernaryTable::ZERO,
                    Some(true) => TernaryTable::ONE,
                    None => TernaryTable::X,
                }
            })
            .collect();
        TernaryTable { entries }
    }

    /// The output code for a row of pin codes.
    ///
    /// # Panics
    ///
    /// Panics if `row` is at or above `4^k` for a `k`-pin table.
    #[inline]
    pub fn lookup(&self, row: usize) -> u8 {
        self.entries[row]
    }
}

/// How a function responds to one of its inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Unateness {
    /// Output can only follow the input (rise→rise).
    Positive,
    /// Output can only oppose the input (rise→fall).
    Negative,
    /// Both polarities occur, depending on the side inputs (e.g. XOR).
    Binate,
    /// The function does not depend on this input.
    Independent,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ao22() -> Expr {
        // Z = A*B + C*D
        Expr::Or(vec![Expr::and_pins(&[0, 1]), Expr::and_pins(&[2, 3])])
    }

    #[test]
    fn eval_ao22() {
        let e = ao22();
        assert!(e.eval(&[true, true, false, false]));
        assert!(e.eval(&[false, false, true, true]));
        assert!(!e.eval(&[true, false, false, true]));
    }

    #[test]
    fn truth_table_matches_expr() {
        let e = ao22();
        let tt = TruthTable::from_expr(&e, 4);
        for row in 0..16u32 {
            let pins: Vec<bool> = (0..4).map(|k| row & (1 << k) != 0).collect();
            assert_eq!(tt.value(row), e.eval(&pins), "row {row}");
        }
    }

    #[test]
    fn unateness_classification() {
        let tt = TruthTable::from_expr(&ao22(), 4);
        for p in 0..4 {
            assert_eq!(tt.unateness(p), Unateness::Positive);
        }
        let nand = TruthTable::from_expr(&Expr::and_pins(&[0, 1]).not(), 2);
        assert_eq!(nand.unateness(0), Unateness::Negative);
        let xor = TruthTable::from_expr(&Expr::Xor(vec![Expr::Pin(0), Expr::Pin(1)]), 2);
        assert_eq!(xor.unateness(0), Unateness::Binate);
        // Z = A (ignores B)
        let t = TruthTable::from_expr(&Expr::Pin(0), 2);
        assert_eq!(t.unateness(1), Unateness::Independent);
        assert!(!t.depends_on(1));
        assert!(t.depends_on(0));
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(ao22().display().to_string(), "A*B+C*D");
        let oa12 = Expr::And(vec![Expr::or_pins(&[0, 1]), Expr::Pin(2)]);
        assert_eq!(oa12.display().to_string(), "(A+B)*C");
        let aoi21 = Expr::Or(vec![Expr::and_pins(&[0, 1]), Expr::Pin(2)]).not();
        assert_eq!(aoi21.display().to_string(), "!(A*B+C)");
    }

    /// Binary rows of the ternary table agree with the truth table; a row
    /// with an unknown pin holds the tree's Kleene value, which on a MUX
    /// with equal data pins and an unknown select is X, not the 1 that
    /// every completion of the select gives.
    #[test]
    fn ternary_table_holds_the_kleene_evaluation() {
        let mux = Expr::Or(vec![
            Expr::And(vec![Expr::Pin(0), Expr::Pin(2).not()]),
            Expr::and_pins(&[1, 2]),
        ]);
        let table = TernaryTable::from_expr(&mux, 3);
        let tt = TruthTable::from_expr(&mux, 3);
        for row in 0..8u32 {
            let codes = (0..3).map(|k| ((row >> k & 1) as usize) << (2 * k)).sum();
            assert_eq!(table.lookup(codes), u8::from(tt.value(row)), "row {row}");
        }
        let s_unknown =
            |a: u8, b: u8| usize::from(a) | usize::from(b) << 2 | usize::from(TernaryTable::X) << 4;
        assert_eq!(table.lookup(s_unknown(1, 1)), TernaryTable::X);
        assert_eq!(table.lookup(s_unknown(0, 0)), TernaryTable::ZERO);
        assert_eq!(table.lookup(s_unknown(1, 0)), TernaryTable::X);
    }

    #[test]
    fn xor_parity() {
        let x3 = Expr::Xor(vec![Expr::Pin(0), Expr::Pin(1), Expr::Pin(2)]);
        let tt = TruthTable::from_expr(&x3, 3);
        for row in 0..8u32 {
            assert_eq!(tt.value(row), (row.count_ones() % 2) == 1);
        }
    }

    #[test]
    #[should_panic(expected = "pin out of range")]
    fn out_of_range_pin_panics() {
        let _ = TruthTable::from_expr(&Expr::Pin(3), 2);
    }
}
