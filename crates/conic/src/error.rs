//! Error and status types for the conic solver.

use std::error::Error;
use std::fmt;

/// Errors reported by the modelling layer and the interior-point solver.
#[derive(Debug, Clone, PartialEq)]
pub enum ConicError {
    /// The problem data has inconsistent dimensions.
    DimensionMismatch {
        /// Rows of `G`.
        rows: usize,
        /// Columns of `G`.
        cols: usize,
        /// Length of the objective vector `c`.
        c_len: usize,
        /// Length of the right-hand side `h`.
        h_len: usize,
        /// Total cone dimension.
        cone_dim: usize,
    },
    /// The problem data contains NaN or infinite entries.
    NonFiniteData,
    /// The iterates left the cone or became non-finite.
    NumericalBreakdown {
        /// Iteration at which the failure occurred.
        iteration: usize,
        /// Human-readable detail.
        detail: String,
    },
    /// The problem has no conic rows and an unbounded objective direction.
    Unbounded,
}

impl fmt::Display for ConicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConicError::DimensionMismatch {
                rows,
                cols,
                c_len,
                h_len,
                cone_dim,
            } => write!(
                f,
                "dimension mismatch: G is {rows}x{cols}, |c|={c_len}, |h|={h_len}, cone dim {cone_dim}"
            ),
            ConicError::NonFiniteData => write!(f, "problem data contains non-finite values"),
            ConicError::NumericalBreakdown { iteration, detail } => {
                write!(f, "numerical breakdown at iteration {iteration}: {detail}")
            }
            ConicError::Unbounded => write!(f, "problem is unbounded below"),
        }
    }
}

impl Error for ConicError {}

/// Termination status of the interior-point method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// Converged to the requested tolerances.
    Optimal,
    /// A certificate of primal infeasibility was found (no `x` satisfies the
    /// constraints).
    PrimalInfeasible,
    /// A certificate of dual infeasibility was found (the objective is
    /// unbounded below over the feasible set).
    DualInfeasible,
    /// The iteration limit was reached; the returned iterate is the best
    /// found but may not satisfy the tolerances.
    MaxIterations,
}

impl SolveStatus {
    /// Returns `true` for [`SolveStatus::Optimal`].
    pub fn is_optimal(&self) -> bool {
        matches!(self, SolveStatus::Optimal)
    }
}

impl fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SolveStatus::Optimal => "optimal",
            SolveStatus::PrimalInfeasible => "primal infeasible",
            SolveStatus::DualInfeasible => "dual infeasible (unbounded)",
            SolveStatus::MaxIterations => "iteration limit reached",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ConicError::DimensionMismatch {
            rows: 1,
            cols: 2,
            c_len: 3,
            h_len: 4,
            cone_dim: 5,
        };
        let msg = e.to_string();
        for token in ["1", "2", "3", "4", "5"] {
            assert!(msg.contains(token));
        }
        assert!(!ConicError::NonFiniteData.to_string().is_empty());
        assert!(ConicError::NumericalBreakdown {
            iteration: 3,
            detail: "cone exit".into()
        }
        .to_string()
        .contains("cone exit"));
        assert!(!ConicError::Unbounded.to_string().is_empty());
    }

    #[test]
    fn status_helpers() {
        assert!(SolveStatus::Optimal.is_optimal());
        assert!(!SolveStatus::MaxIterations.is_optimal());
        assert_eq!(
            SolveStatus::PrimalInfeasible.to_string(),
            "primal infeasible"
        );
    }
}
