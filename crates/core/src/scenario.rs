//! Multi-corner / multi-mode scenario descriptions.
//!
//! Signoff is never a single operating point: the answer a designer needs
//! is the worst slack over every (PVT corner, SDC mode) pair. This module
//! gives those pairs a first-class shape — a [`CornerDef`] names an
//! operating point of a concrete technology, a [`Mode`] names an SDC
//! constraint set, and a [`Scenario`] is one (corner, mode) cell of the
//! MCMM matrix. [`crate::AnalysisRequest::scenarios`] accepts a set of
//! them and the batch engine (`crate::mcmm`) fans the N×M jobs over the
//! work pool while sharing everything that is scenario-invariant.
//!
//! Corner specs follow one grammar everywhere (CLI flags, the serve
//! daemon's `analyze_batch` op, tests) — see [`CornerDef::parse`].

use sta_cells::{Corner, Technology};

/// Errors from parsing a corner or mode specification.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The corner spec matched no known form.
    BadCorner(String),
    /// The mode spec matched no known form.
    BadMode(String),
    /// A scenario set must contain at least one scenario.
    EmptySet,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::BadCorner(s) => write!(
                f,
                "bad corner spec {s:?} (expected fan130|fan90|fan65, 130nm|90nm|65nm, \
                 slow|typ|fast, TECH:PVT, or T,V)"
            ),
            ScenarioError::BadMode(s) => write!(f, "bad mode spec {s:?}"),
            ScenarioError::EmptySet => write!(f, "scenario set is empty"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A named operating point: a concrete technology plus a PVT corner.
///
/// The name is what reports and merged-slack attributions show
/// (`"fan90"`, `"90nm:slow"`, `"75,0.95"`); the technology decides which
/// characterized timing library the scenario uses and the corner is the
/// point the compiled delay kernel is specialized for.
#[derive(Clone, Debug, PartialEq)]
pub struct CornerDef {
    /// Display name, unique within a scenario set by construction.
    pub name: String,
    /// Technology node whose characterization this corner evaluates.
    pub tech: Technology,
    /// The operating point itself.
    pub corner: Corner,
}

impl CornerDef {
    /// The nominal corner of a technology, named after the node.
    pub fn nominal(tech: Technology) -> Self {
        let corner = Corner::nominal(&tech);
        CornerDef {
            name: tech.name.clone(),
            tech,
            corner,
        }
    }

    /// Parses a corner spec against a base technology. The grammar,
    /// shared by the CLI `--corner`/`--corners` flags and the serve
    /// daemon:
    ///
    /// * `fan130` / `fan90` / `fan65` — the fanout-characterized node at
    ///   its nominal point (the ISSUE/paper spelling);
    /// * `130nm` / `90` / `65nm` — same, plain node names;
    /// * `slow` / `typ` (or `typical`, `nominal`) / `fast` — named PVT
    ///   points of `base` (see [`Corner::slow`] / [`Corner::fast`]);
    /// * `TECH:PVT`, e.g. `90nm:slow` — named PVT point of another node;
    /// * `T,V`, e.g. `75,0.95` — explicit temperature (°C) and supply
    ///   (V) at `base`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::BadCorner`] when the spec matches no form.
    pub fn parse(spec: &str, base: &Technology) -> Result<Self, ScenarioError> {
        let s = spec.trim();
        if s.is_empty() {
            return Err(ScenarioError::BadCorner(spec.to_string()));
        }
        // T,V numeric pair at the base technology.
        if let Some((t, v)) = s.split_once(',') {
            let (t, v) = (t.trim().parse::<f64>(), v.trim().parse::<f64>());
            return match (t, v) {
                (Ok(temperature), Ok(vdd))
                    if temperature.is_finite() && vdd.is_finite() && vdd > 0.0 =>
                {
                    Ok(CornerDef {
                        name: s.to_string(),
                        tech: base.clone(),
                        corner: Corner { temperature, vdd },
                    })
                }
                _ => Err(ScenarioError::BadCorner(spec.to_string())),
            };
        }
        // TECH:PVT combined form.
        if let Some((tech, pvt)) = s.split_once(':') {
            let tech = Technology::by_name(tech)
                .ok_or_else(|| ScenarioError::BadCorner(spec.to_string()))?;
            let corner =
                named_pvt(pvt, &tech).ok_or_else(|| ScenarioError::BadCorner(spec.to_string()))?;
            return Ok(CornerDef {
                name: s.to_string(),
                tech,
                corner,
            });
        }
        // Named PVT point of the base technology.
        if let Some(corner) = named_pvt(s, base) {
            return Ok(CornerDef {
                name: s.to_string(),
                tech: base.clone(),
                corner,
            });
        }
        // A node name, "fan"-prefixed or plain, at its nominal point.
        let node = s.strip_prefix("fan").unwrap_or(s);
        if let Some(tech) = Technology::by_name(node) {
            let corner = Corner::nominal(&tech);
            return Ok(CornerDef {
                name: s.to_string(),
                tech,
                corner,
            });
        }
        Err(ScenarioError::BadCorner(spec.to_string()))
    }

    /// Parses a comma-free, `+`-free list of corner specs (the individual
    /// specs are semicolon- or whitespace-free; the list separator is a
    /// comma **except** inside a `T,V` pair, so list items that contain a
    /// comma must be the last form). To sidestep that ambiguity list
    /// parsing splits on commas only between items whose halves are not
    /// both numeric — in practice: `fan130,fan90,75,0.95` parses as
    /// `[fan130, fan90, 75,0.95]`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::BadCorner`] for an unparsable item,
    /// [`ScenarioError::EmptySet`] for an empty list.
    pub fn parse_list(list: &str, base: &Technology) -> Result<Vec<Self>, ScenarioError> {
        let mut out: Vec<CornerDef> = Vec::new();
        let mut pending: Option<String> = None;
        for item in list.split(',') {
            let item = item.trim();
            if let Some(prev) = pending.take() {
                // Try to complete a T,V pair started by the previous item.
                let joined = format!("{prev},{item}");
                if let Ok(c) = CornerDef::parse(&joined, base) {
                    out.push(c);
                    continue;
                }
                out.push(CornerDef::parse(&prev, base)?);
            }
            if item.parse::<f64>().is_ok() {
                pending = Some(item.to_string());
            } else if !item.is_empty() {
                out.push(CornerDef::parse(item, base)?);
            }
        }
        if let Some(prev) = pending {
            out.push(CornerDef::parse(&prev, base)?);
        }
        if out.is_empty() {
            return Err(ScenarioError::EmptySet);
        }
        Ok(out)
    }
}

fn named_pvt(name: &str, tech: &Technology) -> Option<Corner> {
    match name.trim() {
        "slow" | "ss" | "worst" => Some(Corner::slow(tech)),
        "typ" | "typical" | "nominal" | "tt" => Some(Corner::nominal(tech)),
        "fast" | "ff" | "best" => Some(Corner::fast(tech)),
        _ => None,
    }
}

/// A named SDC constraint set (an analysis *mode*), with an optional
/// explicit required-time override that takes precedence over the SDC
/// (mirroring the single-run resolution order of
/// [`crate::AnalysisContext::slack`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Mode {
    /// Display name (`"func"`, `"test"`, …).
    pub name: String,
    /// SDC constraint text, parsed once per batch against the netlist.
    pub sdc: Option<String>,
    /// Explicit required arrival at the outputs, ps.
    pub required: Option<f64>,
}

impl Mode {
    /// The unconstrained default mode (requirement falls back to 90 % of
    /// the structural worst arrival, exactly as a mode-less run).
    pub fn unconstrained() -> Self {
        Mode {
            name: "default".into(),
            sdc: None,
            required: None,
        }
    }

    /// A mode carrying SDC constraint text.
    pub fn with_sdc(name: &str, sdc: &str) -> Self {
        Mode {
            name: name.to_string(),
            sdc: Some(sdc.to_string()),
            required: None,
        }
    }

    /// A mode with an explicit output requirement (ps).
    pub fn with_required(name: &str, ps: f64) -> Self {
        Mode {
            name: name.to_string(),
            sdc: None,
            required: Some(ps),
        }
    }
}

impl Default for Mode {
    fn default() -> Self {
        Mode::unconstrained()
    }
}

/// One cell of the MCMM matrix: an operating corner analyzed under a
/// constraint mode.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The operating point.
    pub corner: CornerDef,
    /// The constraint set.
    pub mode: Mode,
}

impl Scenario {
    /// Builds a scenario from its two halves.
    pub fn new(corner: CornerDef, mode: Mode) -> Self {
        Scenario { corner, mode }
    }

    /// The default single-run scenario: nominal 90 nm, unconstrained.
    pub fn nominal() -> Self {
        Scenario {
            corner: CornerDef::nominal(Technology::n90()),
            mode: Mode::unconstrained(),
        }
    }

    /// Canonical display name, `corner/mode`.
    pub fn name(&self) -> String {
        format!("{}/{}", self.corner.name, self.mode.name)
    }

    /// The full N×M cross product of corners and modes, corners-major —
    /// the batch shape `--corners a,b --modes x,y` expands to.
    pub fn matrix(corners: &[CornerDef], modes: &[Mode]) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(corners.len() * modes.len());
        for c in corners {
            for m in modes {
                out.push(Scenario::new(c.clone(), m.clone()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_grammar_covers_all_forms() {
        let base = Technology::n90();
        let fan = CornerDef::parse("fan130", &base).unwrap();
        assert_eq!(
            (fan.name.as_str(), fan.tech.name.as_str()),
            ("fan130", "130nm")
        );
        assert_eq!(fan.corner, Corner::nominal(&Technology::n130()));

        let plain = CornerDef::parse("65nm", &base).unwrap();
        assert_eq!(plain.tech.name, "65nm");

        let slow = CornerDef::parse("slow", &base).unwrap();
        assert_eq!(
            (slow.tech.name.as_str(), slow.corner),
            ("90nm", Corner::slow(&base))
        );

        let combined = CornerDef::parse("130nm:fast", &base).unwrap();
        assert_eq!(combined.corner, Corner::fast(&Technology::n130()));

        let numeric = CornerDef::parse("75,0.95", &base).unwrap();
        assert_eq!(
            (numeric.corner.temperature, numeric.corner.vdd),
            (75.0, 0.95)
        );

        for bad in ["", "fan45", "90nm:warm", "75,-1", "75,", "75,inf", "nope"] {
            assert!(CornerDef::parse(bad, &base).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn corner_list_handles_numeric_pairs() {
        let base = Technology::n90();
        let list = CornerDef::parse_list("fan130,fan90,75,0.95,slow", &base).unwrap();
        let names: Vec<&str> = list.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["fan130", "fan90", "75,0.95", "slow"]);
        assert!(CornerDef::parse_list("", &base).is_err());
        assert!(CornerDef::parse_list("fan130,bogus", &base).is_err());
    }

    #[test]
    fn matrix_is_corners_major() {
        let base = Technology::n90();
        let corners = CornerDef::parse_list("typ,slow", &base).unwrap();
        let modes = vec![Mode::with_required("m1", 500.0), Mode::unconstrained()];
        let m = Scenario::matrix(&corners, &modes);
        let names: Vec<String> = m.iter().map(Scenario::name).collect();
        assert_eq!(names, ["typ/m1", "typ/default", "slow/m1", "slow/default"]);
    }
}
