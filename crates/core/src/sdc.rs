//! A small SDC (Synopsys Design Constraints) subset: enough to drive the
//! slack analysis from the constraint files real flows already have.
//!
//! Supported commands:
//!
//! ```text
//! create_clock -period 1200 [-name clk]
//! set_output_delay 200 [get_ports z]     # or: set_output_delay 200 z
//! set_max_delay 900 -to [get_ports z]
//! ```
//!
//! Everything else (including `-from`/`-through` filters, and
//! `set_input_delay`, since the true-path search does not model input
//! launch offsets) is rejected with a precise error rather than silently
//! ignored — constraint files must not lie.

use std::collections::HashMap;

use sta_netlist::{NetId, Netlist};

/// Parsed constraint set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Constraints {
    /// Clock period, ps (`create_clock -period`).
    pub clock_period: Option<f64>,
    /// Required margin before the period at specific outputs, ps.
    pub output_delays: HashMap<NetId, f64>,
    /// Per-output maximum-delay overrides, ps.
    pub max_delays: HashMap<NetId, f64>,
}

impl Constraints {
    /// The required arrival time at `output`: the tightest of
    /// `clock_period − output_delay` and any `set_max_delay` override.
    /// `None` when nothing constrains the output.
    pub fn required_at(&self, output: NetId) -> Option<f64> {
        let from_clock = self
            .clock_period
            .map(|p| p - self.output_delays.get(&output).copied().unwrap_or(0.0));
        let from_max = self.max_delays.get(&output).copied();
        match (from_clock, from_max) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// SDC parse errors.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SdcError {
    /// A statement used syntax outside the supported subset.
    Unsupported {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// A referenced port does not exist in the netlist.
    UnknownPort {
        /// 1-based line number.
        line: usize,
        /// The port name.
        port: String,
    },
}

impl std::fmt::Display for SdcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SdcError::Unsupported { line, message } => {
                write!(f, "unsupported SDC at line {line}: {message}")
            }
            SdcError::UnknownPort { line, port } => {
                write!(f, "unknown port {port:?} at line {line}")
            }
        }
    }
}

impl std::error::Error for SdcError {}

/// Parses SDC text against a netlist (port names resolve to nets).
///
/// # Errors
///
/// Returns [`SdcError`] on unsupported constructs or unknown ports.
pub fn parse_sdc(text: &str, nl: &Netlist) -> Result<Constraints, SdcError> {
    let mut out = Constraints::default();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let stmt = raw.split('#').next().unwrap_or("").trim();
        if stmt.is_empty() {
            continue;
        }
        let tokens = tokenize(stmt);
        let cmd = tokens.first().map(String::as_str).unwrap_or("");
        match cmd {
            "create_clock" => {
                let period =
                    value_after(&tokens, "-period").ok_or_else(|| SdcError::Unsupported {
                        line,
                        message: "create_clock requires -period".into(),
                    })?;
                out.clock_period = Some(period);
            }
            "set_input_delay" => {
                return Err(SdcError::Unsupported {
                    line,
                    message: "set_input_delay is not supported: the true-path search does \
                              not model input launch offsets"
                        .into(),
                })
            }
            "set_output_delay" => {
                let (value, port) = delay_and_port(&tokens, line)?;
                let net = resolve_port(nl, &port, line)?;
                out.output_delays.insert(net, value);
            }
            "set_max_delay" => {
                let value: f64 = tokens.get(1).and_then(|t| t.parse().ok()).ok_or_else(|| {
                    SdcError::Unsupported {
                        line,
                        message: "set_max_delay requires a numeric value".into(),
                    }
                })?;
                let port =
                    value_token_after(&tokens, "-to").ok_or_else(|| SdcError::Unsupported {
                        line,
                        message: "set_max_delay supports only the -to form".into(),
                    })?;
                let net = resolve_port(nl, &port, line)?;
                out.max_delays.insert(net, value);
            }
            other => {
                return Err(SdcError::Unsupported {
                    line,
                    message: format!("command {other:?} is outside the subset"),
                })
            }
        }
    }
    Ok(out)
}

/// Splits an SDC statement into tokens, flattening `[get_ports x]` into
/// the port name.
fn tokenize(stmt: &str) -> Vec<String> {
    let cleaned = stmt.replace(['[', ']'], " ");
    let mut tokens: Vec<String> = cleaned.split_whitespace().map(str::to_string).collect();
    // Drop get_ports/get_pins markers; the following token is the name.
    tokens.retain(|t| t != "get_ports" && t != "get_pins");
    tokens
}

fn value_after(tokens: &[String], flag: &str) -> Option<f64> {
    let i = tokens.iter().position(|t| t == flag)?;
    tokens.get(i + 1)?.parse().ok()
}

fn value_token_after(tokens: &[String], flag: &str) -> Option<String> {
    let i = tokens.iter().position(|t| t == flag)?;
    tokens.get(i + 1).cloned()
}

fn delay_and_port(tokens: &[String], line: usize) -> Result<(f64, String), SdcError> {
    let value: f64 =
        tokens
            .get(1)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| SdcError::Unsupported {
                line,
                message: "expected a numeric delay".into(),
            })?;
    let port = tokens
        .iter()
        .skip(2)
        .find(|t| !t.starts_with('-'))
        .cloned()
        .ok_or_else(|| SdcError::Unsupported {
            line,
            message: "expected a port name".into(),
        })?;
    Ok((value, port))
}

fn resolve_port(nl: &Netlist, port: &str, line: usize) -> Result<NetId, SdcError> {
    nl.net_by_name(port).ok_or_else(|| SdcError::UnknownPort {
        line,
        port: port.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sta_netlist::{GateKind, PrimOp};

    fn tiny() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let z = nl
            .add_gate(GateKind::Prim(PrimOp::Nand), &[a, b], Some("z"))
            .unwrap();
        nl.mark_output(z);
        nl
    }

    #[test]
    fn parses_the_subset() {
        let nl = tiny();
        let sdc = "\
# constraints
create_clock -period 1200 -name clk
set_output_delay 150 [get_ports z]
set_max_delay 900 -to [get_ports z]
";
        let c = parse_sdc(sdc, &nl).unwrap();
        assert_eq!(c.clock_period, Some(1200.0));
        let z = nl.net_by_name("z").unwrap();
        // required = min(period − out_delay, max_delay) = min(1050, 900).
        assert_eq!(c.required_at(z), Some(900.0));
        // An input launch offset would change the search, which does not
        // model it: the statement is a typed error, never dropped.
        let with_input_delay = format!("{sdc}set_input_delay 100 [get_ports a]\n");
        let err = parse_sdc(&with_input_delay, &nl).unwrap_err();
        assert!(
            matches!(&err, SdcError::Unsupported { line: 5, message }
                if message.contains("input launch offsets")),
            "{err}"
        );
    }

    #[test]
    fn required_without_max_delay_uses_the_clock() {
        let nl = tiny();
        let c = parse_sdc("create_clock -period 800\nset_output_delay 50 z\n", &nl).unwrap();
        let z = nl.net_by_name("z").unwrap();
        assert_eq!(c.required_at(z), Some(750.0));
        // Unconstrained output: falls back to the bare period.
        let a = nl.net_by_name("a").unwrap();
        assert_eq!(c.required_at(a), Some(800.0));
    }

    #[test]
    fn rejects_unknown_ports_and_commands() {
        let nl = tiny();
        let err = parse_sdc("set_output_delay 10 nope\n", &nl).unwrap_err();
        assert!(matches!(err, SdcError::UnknownPort { port, .. } if port == "nope"));
        let err = parse_sdc("set_false_path -from a\n", &nl).unwrap_err();
        assert!(matches!(err, SdcError::Unsupported { .. }));
        let err = parse_sdc("create_clock\n", &nl).unwrap_err();
        assert!(matches!(err, SdcError::Unsupported { .. }));
    }
}
