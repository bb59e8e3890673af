//! The dual-transition multi-valued logic system and implication engine of
//! the paper's true-path algorithm (§IV.B).
//!
//! Four pieces:
//!
//! * [`value`] — a two-timeframe nine-valued algebra with the paper's
//!   *semi-undetermined* values (`X0`, `X1`, …) that flag logic
//!   incompatibilities before all implied nodes are set;
//! * [`engine`] — a circuit-wide forward-implication engine with a
//!   backtracking trail, operating on *dual* values so the rising- and
//!   falling-launch analyses of a path happen in a single traversal;
//! * [`schedule`] — a compiler that levelizes a netlist into a flat
//!   straight-line opcode program over dense net slots;
//! * [`bitsim`] — a 64-lane bit-parallel three-valued evaluator for those
//!   programs, packing 64 independent sensitization vectors into each
//!   `u64` word pair.
//!
//! # Example
//!
//! ```
//! use sta_logic::{Dual, Mask, V9};
//!
//! // The paper's example: AND(falling transition, unknown) = X0.
//! assert_eq!(V9::F.and(V9::XX), V9::X0);
//! // Dual values track both launch polarities at once.
//! let t = Dual::transition(false);
//! assert_eq!(t.r, V9::R);
//! assert_eq!(t.f, V9::F);
//! # let _ = Mask::BOTH;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitsim;
pub mod engine;
pub mod schedule;
pub mod toggle;
pub mod value;

pub use bitsim::BitSim;
pub use engine::{eval_expr_v9, eval_prim_v9, eval_table_dual, Dual, ImplicationEngine, Mask};
pub use schedule::{BitOp, Schedule};
pub use toggle::{toggle_analysis, Toggle};
pub use value::{TriVal, V9};
