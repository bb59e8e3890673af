//! The paper's logic system for path sensitization (§IV.B).
//!
//! Each node carries a *two-timeframe* value: its logic level before the
//! launched transition settles, and after. Either component may be unknown,
//! giving nine values. The partially-known combinations are the paper's
//! *semi-undetermined* values — e.g. a falling transition ANDed with an
//! unknown side input yields `X0` ("starts unknown, ends 0"), which lets
//! the engine flag incompatibilities before every implied node is set.

use serde::{Deserialize, Serialize};
use sta_cells::TernaryTable;
use std::fmt;

/// A three-valued logic level. Its discriminant is its 2-bit code in a
/// cell's [`TernaryTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum TriVal {
    /// Logic 0.
    Zero = TernaryTable::ZERO,
    /// Logic 1.
    One = TernaryTable::ONE,
    /// Unknown.
    X = TernaryTable::X,
}

impl TriVal {
    /// The value's [`TernaryTable`] code.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// The value of a [`TernaryTable`] code (the spare code reads as X).
    #[inline]
    pub fn from_code(code: u8) -> TriVal {
        match code {
            TernaryTable::ZERO => TriVal::Zero,
            TernaryTable::ONE => TriVal::One,
            _ => TriVal::X,
        }
    }

    /// Three-valued AND.
    pub fn and(self, other: TriVal) -> TriVal {
        use TriVal::*;
        match (self, other) {
            (Zero, _) | (_, Zero) => Zero,
            (One, One) => One,
            _ => X,
        }
    }

    /// Three-valued OR.
    pub fn or(self, other: TriVal) -> TriVal {
        use TriVal::*;
        match (self, other) {
            (One, _) | (_, One) => One,
            (Zero, Zero) => Zero,
            _ => X,
        }
    }

    /// Three-valued NOT.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> TriVal {
        use TriVal::*;
        match self {
            Zero => One,
            One => Zero,
            X => X,
        }
    }

    /// Three-valued XOR.
    pub fn xor(self, other: TriVal) -> TriVal {
        use TriVal::*;
        match (self, other) {
            (X, _) | (_, X) => X,
            (a, b) if a == b => Zero,
            _ => One,
        }
    }

    /// Meet: combines two (partial) observations of the same signal.
    /// `X` is the top; differing concrete values conflict.
    pub fn meet(self, other: TriVal) -> Option<TriVal> {
        use TriVal::*;
        match (self, other) {
            (X, v) | (v, X) => Some(v),
            (a, b) if a == b => Some(a),
            _ => None,
        }
    }

    /// From a concrete bit.
    pub fn from_bool(b: bool) -> TriVal {
        if b {
            TriVal::One
        } else {
            TriVal::Zero
        }
    }
}

impl fmt::Display for TriVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TriVal::Zero => "0",
            TriVal::One => "1",
            TriVal::X => "X",
        })
    }
}

/// A two-timeframe nine-valued logic value: (initial, final) levels.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct V9 {
    init: TriVal,
    fin: TriVal,
}

impl V9 {
    /// Stable 0 (`00`).
    pub const S0: V9 = V9 {
        init: TriVal::Zero,
        fin: TriVal::Zero,
    };
    /// Stable 1 (`11`).
    pub const S1: V9 = V9 {
        init: TriVal::One,
        fin: TriVal::One,
    };
    /// Rising transition (`01`).
    pub const R: V9 = V9 {
        init: TriVal::Zero,
        fin: TriVal::One,
    };
    /// Falling transition (`10`).
    pub const F: V9 = V9 {
        init: TriVal::One,
        fin: TriVal::Zero,
    };
    /// Fully unknown (`XX`).
    pub const XX: V9 = V9 {
        init: TriVal::X,
        fin: TriVal::X,
    };
    /// Semi-undetermined: unknown start, settles at 0 (`X0`).
    pub const X0: V9 = V9 {
        init: TriVal::X,
        fin: TriVal::Zero,
    };
    /// Semi-undetermined: unknown start, settles at 1 (`X1`).
    pub const X1: V9 = V9 {
        init: TriVal::X,
        fin: TriVal::One,
    };
    /// Semi-undetermined: starts at 0, unknown end (`0X`).
    pub const ZX: V9 = V9 {
        init: TriVal::Zero,
        fin: TriVal::X,
    };
    /// Semi-undetermined: starts at 1, unknown end (`1X`).
    pub const OX: V9 = V9 {
        init: TriVal::One,
        fin: TriVal::X,
    };

    /// Builds a value from components.
    pub fn new(init: TriVal, fin: TriVal) -> V9 {
        V9 { init, fin }
    }

    /// A stable value from a bit.
    pub fn stable(b: bool) -> V9 {
        if b {
            V9::S1
        } else {
            V9::S0
        }
    }

    /// The initial-timeframe level.
    pub fn init(self) -> TriVal {
        self.init
    }

    /// The final-timeframe level.
    pub fn fin(self) -> TriVal {
        self.fin
    }

    /// Componentwise AND.
    pub fn and(self, o: V9) -> V9 {
        V9::new(self.init.and(o.init), self.fin.and(o.fin))
    }

    /// Componentwise OR.
    pub fn or(self, o: V9) -> V9 {
        V9::new(self.init.or(o.init), self.fin.or(o.fin))
    }

    /// Componentwise NOT.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> V9 {
        V9::new(self.init.not(), self.fin.not())
    }

    /// Componentwise XOR.
    pub fn xor(self, o: V9) -> V9 {
        V9::new(self.init.xor(o.init), self.fin.xor(o.fin))
    }

    /// Meet of two observations; `None` on conflict.
    pub fn meet(self, o: V9) -> Option<V9> {
        Some(V9::new(self.init.meet(o.init)?, self.fin.meet(o.fin)?))
    }

    /// Whether both timeframes are concrete.
    pub fn is_fully_defined(self) -> bool {
        self.init != TriVal::X && self.fin != TriVal::X
    }

    /// Whether this value is a clean transition (R or F).
    pub fn is_transition(self) -> bool {
        self == V9::R || self == V9::F
    }
}

impl fmt::Debug for V9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.init, self.fin)
    }
}

impl fmt::Display for V9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            V9::S0 => f.write_str("0"),
            V9::S1 => f.write_str("1"),
            V9::R => f.write_str("R"),
            V9::F => f.write_str("F"),
            other => write!(f, "{}{}", other.init, other.fin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's own example: "a falling transition applied to input A of
    /// an AND2 gate with an undetermined value on B leads to a state that
    /// starts unknown but ends at logic 0 — the semi-undetermined value
    /// X0".
    #[test]
    fn paper_example_and_of_fall_and_unknown() {
        assert_eq!(V9::F.and(V9::XX), V9::X0);
    }

    #[test]
    fn transition_algebra() {
        assert_eq!(V9::R.and(V9::S1), V9::R);
        assert_eq!(V9::R.and(V9::S0), V9::S0);
        assert_eq!(V9::R.or(V9::S0), V9::R);
        assert_eq!(V9::R.or(V9::S1), V9::S1);
        assert_eq!(V9::R.not(), V9::F);
        assert_eq!(V9::F.not(), V9::R);
        assert_eq!(V9::R.xor(V9::S1), V9::F);
        assert_eq!(V9::R.xor(V9::R), V9::S0); // simultaneous equal transitions cancel
        assert_eq!(V9::R.xor(V9::F), V9::S1);
    }

    #[test]
    fn semi_undetermined_combinations() {
        assert_eq!(V9::R.and(V9::XX), V9::ZX); // starts 0, end unknown
        assert_eq!(V9::R.or(V9::XX), V9::X1); // ends 1 regardless
        assert_eq!(V9::F.or(V9::XX), V9::OX);
        assert_eq!(V9::X0.not(), V9::X1);
    }

    #[test]
    fn meet_detects_conflicts() {
        assert_eq!(V9::XX.meet(V9::R), Some(V9::R));
        assert_eq!(V9::X1.meet(V9::R), Some(V9::R));
        assert_eq!(V9::X1.meet(V9::S1), Some(V9::S1));
        assert_eq!(V9::X1.meet(V9::S0), None); // final 1 vs final 0
        assert_eq!(V9::R.meet(V9::F), None);
        assert_eq!(V9::S0.meet(V9::S0), Some(V9::S0));
    }

    #[test]
    fn trival_tables_are_standard() {
        use TriVal::*;
        assert_eq!(Zero.and(X), Zero);
        assert_eq!(One.and(X), X);
        assert_eq!(One.or(X), One);
        assert_eq!(Zero.or(X), X);
        assert_eq!(X.not(), X);
        assert_eq!(One.xor(X), X);
        assert_eq!(One.xor(Zero), One);
    }

    #[test]
    fn display_forms() {
        assert_eq!(V9::R.to_string(), "R");
        assert_eq!(V9::X0.to_string(), "X0");
        assert_eq!(format!("{:?}", V9::F), "10");
    }
}
