//! Shared plumbing for the reproduction binaries and Criterion benches:
//! cached characterization, benchmark loading, and plain-text table
//! rendering.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use sta_cells::{Library, Technology};
use sta_charlib::{characterize_cached, CharConfig, TimingLibrary};
use sta_circuits::catalog;
use sta_netlist::Netlist;

/// Directory holding cached characterized libraries (JSON, keyed by
/// technology + configuration fingerprint).
pub fn cache_dir() -> PathBuf {
    // crates/bench/../../.char-cache == workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(".char-cache")
}

/// The standard cell library (shared instance).
pub fn library() -> &'static Library {
    static LIB: OnceLock<Library> = OnceLock::new();
    LIB.get_or_init(Library::standard)
}

/// The characterized timing library for `tech`, loaded from the disk cache
/// or characterized on first use (shared per technology).
///
/// # Panics
///
/// Panics if characterization fails (malformed cell — a bug, not an
/// environmental condition).
pub fn timing_library(tech: &Technology) -> &'static TimingLibrary {
    static CACHE: OnceLock<Mutex<HashMap<String, &'static TimingLibrary>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("characterization cache poisoned");
    if let Some(t) = map.get(&tech.name) {
        return t;
    }
    let tlib = characterize_cached(library(), tech, &CharConfig::standard(), &cache_dir())
        .unwrap_or_else(|e| panic!("characterization of {} failed: {e}", tech.name));
    let leaked: &'static TimingLibrary = Box::leak(Box::new(tlib));
    map.insert(tech.name.clone(), leaked);
    leaked
}

/// A loaded benchmark: raw primitive netlist plus its technology-mapped
/// form.
#[derive(Clone, Debug)]
pub struct Bench {
    /// Benchmark name.
    pub name: String,
    /// Primitive-gate netlist.
    pub raw: Netlist,
    /// Technology-mapped netlist.
    pub mapped: Netlist,
}

/// Loads a benchmark by catalog name.
///
/// # Panics
///
/// Panics on unknown names or mapping failures.
pub fn benchmark(name: &str) -> Bench {
    let raw = catalog::primitive(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let mapped = catalog::mapped(name, library())
        .expect("mapping succeeds")
        .expect("known benchmark");
    Bench {
        name: name.to_string(),
        raw,
        mapped,
    }
}

/// Renders a fixed-width text table (first row of `rows` may be reused as
/// units line etc. — purely cosmetic).
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    out.push_str(&sep);
    out.push('\n');
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:>w$} ", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("|")
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out.push_str(&sep);
    out.push('\n');
    out
}

/// Formats a ps value with two decimals.
pub fn ps(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio as a percentage with two decimals.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            "T",
            &["a", "bbb"],
            &[
                vec!["1".into(), "2".into()],
                vec!["10".into(), "2000".into()],
            ],
        );
        assert!(t.contains("bbb"));
        assert!(t.lines().count() >= 6);
    }

    #[test]
    fn benchmark_loads_c17() {
        let b = benchmark("c17");
        assert_eq!(b.raw.num_gates(), 6);
        assert_eq!(b.mapped.num_gates(), 6);
    }

    #[test]
    fn pct_and_ps_format() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(ps(1.5), "1.50");
    }
}
