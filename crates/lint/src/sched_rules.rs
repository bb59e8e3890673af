//! `SCHEDxxx`: validity of the compiled bit-parallel simulation program.
//!
//! The batch certificate replay ([`crate::verify_paths`]) trusts a
//! [`Schedule`]: a flat opcode program whose single forward sweep must
//! visit every gate after all of its operands. If compilation ever
//! emitted an op out of dependency order, the simulator would silently
//! read stale `X` words and every verdict derived from it would be
//! garbage — so the check is an
//! [`Severity::Error`](crate::Severity::Error), not a warning.
//!
//! The rule delegates to [`Schedule::validate`], which replays the
//! program symbolically: sources are marked written up front, every
//! operand must be written before it is read, and every driven net must
//! be written exactly once.

use sta_cells::Library;
use sta_logic::Schedule;
use sta_netlist::Netlist;

use crate::diag::{Diagnostic, RuleCode};

/// Compiles the bit-parallel program for `nl` and checks it is a valid
/// topological evaluation order (`SCHED001`).
pub fn check_schedule(nl: &Netlist, lib: &Library) -> Vec<Diagnostic> {
    let sched = Schedule::compile(nl, lib);
    check_compiled_schedule(nl, &sched)
}

/// Checks an already-compiled program against its netlist (`SCHED001`).
/// Useful when the caller keeps the schedule around for simulation and
/// wants to lint the exact artifact it will run.
pub fn check_compiled_schedule(nl: &Netlist, sched: &Schedule) -> Vec<Diagnostic> {
    match sched.validate(nl) {
        Ok(()) => Vec::new(),
        Err(msg) => vec![Diagnostic::new(
            RuleCode::SchedNotTopological,
            nl.name(),
            msg,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_netlist::GateKind;

    fn chain() -> (Netlist, Library) {
        let lib = Library::standard();
        let nand2 = lib.cell_by_name("NAND2").unwrap().id();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_gate(GateKind::Cell(nand2), &[a, b], None).unwrap();
        let y = nl.add_gate(GateKind::Cell(nand2), &[x, b], None).unwrap();
        nl.mark_output(y);
        (nl, lib)
    }

    #[test]
    fn compiled_schedule_is_clean() {
        let (nl, lib) = chain();
        assert!(check_schedule(&nl, &lib).is_empty());
    }

    #[test]
    fn reversed_order_fires_sched001() {
        let (nl, lib) = chain();
        let mut order = nl.topo_gates();
        order.reverse();
        let bad = Schedule::with_order(&nl, &lib, &order);
        let ds = check_compiled_schedule(&nl, &bad);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].rule.code(), "SCHED001");
        assert!(ds[0].message.contains("before it is written"), "{ds:?}");
    }
}
