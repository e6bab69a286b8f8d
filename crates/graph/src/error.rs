//! The workspace-wide typed error hierarchy.
//!
//! Every fallible decomposition API returns [`MpldError`]. Budget
//! exhaustion is deliberately *not* an error variant: engines return their
//! best-so-far incumbent tagged
//! [`Certainty::BudgetExhausted`](crate::Certainty::BudgetExhausted)
//! instead, so callers always get a valid coloring. Errors are reserved for
//! inputs an engine cannot produce any valid answer for (malformed layout
//! text, unsupported mask counts, mismatched coloring lengths) and for the
//! faults a quarantined unit records.

use std::fmt;

/// Typed error for every fallible decomposition API in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpldError {
    /// A layout file (or other textual input) could not be parsed.
    Parse {
        /// 1-based line number of the first offending line (0 when the
        /// failure is not attributable to a line, e.g. a truncated file).
        line: usize,
        /// Human-readable description of what went wrong.
        reason: String,
    },
    /// A coloring's length does not match the graph it is applied to.
    ColoringMismatch {
        /// `graph.num_nodes()`.
        expected: usize,
        /// The coloring's actual length.
        got: usize,
    },
    /// An engine does not support the requested parameters.
    Unsupported {
        /// The engine's stable name ("ILP", "EC", ...).
        engine: &'static str,
        /// Why the request cannot be served.
        reason: String,
    },
    /// An engine could not produce any valid coloring for the instance.
    Infeasible {
        /// The engine's stable name.
        engine: &'static str,
        /// Why no solution exists / was found.
        reason: String,
    },
    /// A per-unit solve panicked and was quarantined by the framework.
    ///
    /// The unit is reported with a greedy-fallback coloring tagged
    /// [`Certainty::Degraded`](crate::Certainty::Degraded); this variant
    /// records which unit failed and the panic payload for diagnostics.
    Panicked {
        /// Index of the quarantined unit within the prepared layout.
        unit: usize,
        /// Stringified panic payload (`&str`/`String` payloads verbatim,
        /// otherwise a placeholder).
        payload: String,
    },
    /// Layout-graph construction failed (invalid edges, etc.).
    Graph(String),
    /// Underlying I/O failure (message only, so the type stays `Eq`).
    Io(String),
}

impl fmt::Display for MpldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpldError::Parse { line, reason } => {
                if *line == 0 {
                    write!(f, "parse error: {reason}")
                } else {
                    write!(f, "parse error at line {line}: {reason}")
                }
            }
            MpldError::ColoringMismatch { expected, got } => {
                write!(
                    f,
                    "coloring has {got} entries but the graph has {expected} nodes"
                )
            }
            MpldError::Unsupported { engine, reason } => {
                write!(f, "{engine}: unsupported request: {reason}")
            }
            MpldError::Infeasible { engine, reason } => {
                write!(f, "{engine}: no valid coloring: {reason}")
            }
            MpldError::Panicked { unit, payload } => {
                write!(f, "unit {unit} panicked and was quarantined: {payload}")
            }
            MpldError::Graph(e) => write!(f, "graph error: {e}"),
            MpldError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for MpldError {}

impl From<crate::GraphError> for MpldError {
    fn from(e: crate::GraphError) -> Self {
        MpldError::Graph(e.to_string())
    }
}

impl From<std::io::Error> for MpldError {
    fn from(e: std::io::Error) -> Self {
        MpldError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = MpldError::Parse {
            line: 7,
            reason: "bad rect".into(),
        };
        assert_eq!(e.to_string(), "parse error at line 7: bad rect");
        let e = MpldError::Parse {
            line: 0,
            reason: "truncated".into(),
        };
        assert_eq!(e.to_string(), "parse error: truncated");
        let e = MpldError::ColoringMismatch {
            expected: 5,
            got: 3,
        };
        assert!(e.to_string().contains("3 entries"));
        assert!(e.to_string().contains("5 nodes"));
        let e = MpldError::Panicked {
            unit: 4,
            payload: "boom".into(),
        };
        assert_eq!(e.to_string(), "unit 4 panicked and was quarantined: boom");
    }

    #[test]
    fn graph_error_converts() {
        let g = crate::LayoutGraph::homogeneous(1, vec![(0, 0)]);
        let err: MpldError = g.unwrap_err().into();
        assert!(matches!(err, MpldError::Graph(_)));
    }
}
