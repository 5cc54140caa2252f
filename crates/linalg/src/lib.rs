//! Small, dependency-free linear algebra kernels.
//!
//! The conic interior-point solver in `bbs-conic` needs vector arithmetic, a
//! sparse constraint matrix ([`CsrMatrix`]) and, every iteration, the
//! solution of a sparse symmetric quasi-definite KKT system. [`SparseLdlt`]
//! factors those systems: the fill-reducing [`minimum_degree_order`], the
//! elimination tree and the pattern of `L` are computed once per sparsity
//! pattern, and each factorisation after that is numeric only. The dense
//! [`Ldlt`] on a [`DMatrix`] is the reference the sparse factorisation is
//! tested against. The dense [`Cholesky`] and the triangular solves it uses
//! have no caller in the solver any more; they remain only with their own
//! tests. This crate provides exactly those kernels with a deliberately
//! small and well-tested surface instead of pulling in a large external
//! linear-algebra dependency.
//!
//! # Example
//!
//! ```
//! use bbs_linalg::{DMatrix, DVector, Ldlt};
//!
//! // Solve the symmetric indefinite system A x = b.
//! let a = DMatrix::from_rows(&[
//!     &[4.0, 1.0],
//!     &[1.0, -3.0],
//! ]);
//! let b = DVector::from_slice(&[1.0, 2.0]);
//! let ldlt = Ldlt::factor(&a).expect("matrix is nonsingular");
//! let x = ldlt.solve(&b);
//! let r = &a.matvec(&x) - &b;
//! assert!(r.norm_inf() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod ldlt;
mod matrix;
mod sparse;
mod triangular;
mod vector;

pub use cholesky::{Cholesky, CholeskyError};
pub use ldlt::{Ldlt, LdltError};
pub use matrix::DMatrix;
pub use sparse::{minimum_degree_order, symmetric_upper_matvec, CsrMatrix, SparseLdlt};
pub use triangular::{solve_lower, solve_lower_transpose, solve_upper};
pub use vector::DVector;

/// Numerical tolerance helpers shared by the factorisations and their tests.
pub mod tol {
    /// Pivot magnitude at or below which the dense factorisations report a
    /// singular (or, for Cholesky, non-positive-definite) matrix and
    /// [`SparseLdlt::factor`](crate::SparseLdlt::factor) replaces the pivot.
    pub const PIVOT_EPS: f64 = 1e-13;

    /// Returns `true` when two floating point numbers agree to within an
    /// absolute tolerance `atol` or a relative tolerance `rtol`.
    ///
    /// ```
    /// assert!(bbs_linalg::tol::approx_eq(1.0, 1.0 + 1e-12, 1e-9, 1e-9));
    /// assert!(!bbs_linalg::tol::approx_eq(1.0, 1.1, 1e-9, 1e-9));
    /// ```
    pub fn approx_eq(a: f64, b: f64, atol: f64, rtol: f64) -> bool {
        let diff = (a - b).abs();
        diff <= atol || diff <= rtol * a.abs().max(b.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_example_roundtrip() {
        let a = DMatrix::from_rows(&[&[4.0, 1.0], &[1.0, -3.0]]);
        let b = DVector::from_slice(&[1.0, 2.0]);
        let x = Ldlt::factor(&a).unwrap().solve(&b);
        let r = &a.matvec(&x) - &b;
        assert!(r.norm_inf() < 1e-12);
    }

    #[test]
    fn approx_eq_is_symmetric() {
        assert_eq!(
            tol::approx_eq(3.0, 3.0000001, 1e-3, 0.0),
            tol::approx_eq(3.0000001, 3.0, 1e-3, 0.0)
        );
    }
}
