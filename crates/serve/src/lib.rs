//! `sta-serve` — the persistent timing daemon behind `sta-repro serve`.
//!
//! Batch STA pays its dominant costs — library characterization, corner
//! kernel compilation, and the full sensitization search — on every
//! invocation. An ECO flow asks the same circuit thousands of questions
//! with one-gate edits in between, so this crate keeps everything
//! expensive *resident* and re-derives only what an edit invalidates:
//!
//! * characterized [`sta_charlib::TimingLibrary`]s, one per technology,
//!   shared by every loaded circuit;
//! * the corner-compiled [`sta_charlib::CompiledCorner`] kernel table per
//!   circuit (netlist-independent: it survives edits untouched);
//! * the per-source path cache ([`sta_core::SourceCache`]) and the last
//!   spliced [`sta_core::CertificateSet`] with its FNV digest.
//!
//! The wire protocol is newline-delimited JSON on stdin/stdout (or a Unix
//! socket): one request object per line, one response object per line,
//! `"ok"` distinguishing results from errors. The request schema is
//! checked in at `docs/serve.schema.json` and validated by
//! `sta_obs::schema`; see DESIGN.md §5.10 for the full protocol and the
//! ECO cone-splice proof obligation.
//!
//! # Example
//!
//! ```no_run
//! use sta_serve::{Server, ServerConfig};
//!
//! let mut server = Server::new(ServerConfig::default());
//! let (reply, _shutdown) =
//!     server.handle_line(r#"{"op":"load","circuit":"c17","nworst":10}"#);
//! assert!(reply.contains("\"ok\": true"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod server;

pub use protocol::{
    drift_schema_enum, drift_schema_field, parse_request, protocol_spec, EditKind, Request,
    SERVE_SCHEMA_JSON,
};
#[cfg(unix)]
pub use server::serve_socket;
pub use server::{serve_lines, serve_stdio, Server, ServerConfig};
