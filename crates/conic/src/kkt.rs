//! The interior-point KKT system in sparse quasi-definite form.
//!
//! Every search direction of the interior-point method solves
//!
//! ```text
//! [ 0   Gᵀ  ] [Δx]   [r_x]
//! [ G  −W²  ] [Δz] = [r_z]
//! ```
//!
//! `G` is sparse and `W²` block diagonal (a diagonal for the orthant rows,
//! a small dense block per second-order cone), so the system keeps one
//! sparsity pattern for the whole solve. [`KktSystem`] lays that pattern
//! out once — the upper triangle in compressed-sparse-column form, `G`
//! copied in from its CSR rows — and hands it to
//! [`SparseLdlt::analyse`] for the ordering and symbolic factorisation.
//! Each iteration then writes the new `W²` straight into the value array
//! and runs only the numeric factorisation of the statically regularised
//! quasi-definite matrix `[δI Gᵀ; G −W²−δI]`. In exact arithmetic every
//! pivot of that matrix has magnitude at least `δ` and the sign of its
//! block, under any ordering; a pivot whose computed magnitude rounding
//! drives below [`PIVOT_EPS`](bbs_linalg::tol::PIVOT_EPS) is set to `±δ`,
//! the sign its block requires, during the factorisation (dynamic
//! regularisation) and counted.
//! Three steps of iterative refinement against the exact matrix remove the
//! effect of both regularisations from the solution.

use crate::problem::ConeProblem;
use crate::scaling::{packed_w_squared_pattern, NtScaling};
use bbs_linalg::{symmetric_upper_matvec, SparseLdlt};

/// Steps of iterative refinement per solve.
const REFINEMENT_STEPS: usize = 3;

/// The KKT matrix of one solve: fixed pattern, per-iteration values, and
/// the reusable sparse factorisation.
pub(crate) struct KktSystem {
    n: usize,
    /// Upper triangle of the KKT matrix (CSC); the diagonal is the last
    /// entry of every column.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    /// Statically regularised values: `δ` on the `x` diagonal, `G`, and
    /// `−W² − δI` on the `z` block.
    values: Vec<f64>,
    /// Value slot of each packed `W²` entry, and whether it is diagonal.
    w_slots: Vec<(usize, bool)>,
    /// Scratch for the packed `W²` of one iteration.
    w_packed: Vec<f64>,
    /// Pivot sign each row requires: `+1` for `x`, `−1` for `z`.
    signs: Vec<f64>,
    delta: f64,
    ldl: SparseLdlt,
    /// Numeric factorisations performed so far.
    pub factorizations: usize,
    /// Pivots replaced by the dynamic regularisation so far.
    pub pivot_bumps: usize,
}

impl KktSystem {
    /// Lays out the KKT pattern of `problem` and analyses it once. `delta`
    /// is the static regularisation.
    pub fn new(problem: &ConeProblem, delta: f64) -> Self {
        let (g, cone) = (&problem.g, &problem.cone);
        let (n, m) = (g.ncols(), g.nrows());
        let mut col_ptr = Vec::with_capacity(n + m + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for j in 0..n {
            row_idx.push(j);
            values.push(delta);
            col_ptr.push(row_idx.len());
        }
        // Column n + r: row r of G, then the W² block column above (and
        // on) the diagonal. The packed W² pattern runs block by block and
        // column by column, i.e. in increasing column order as well.
        let mut w_pattern = packed_w_squared_pattern(cone).peekable();
        let mut w_slots = Vec::new();
        for r in 0..m {
            let (cols, vals) = g.row(r);
            row_idx.extend_from_slice(cols);
            values.extend_from_slice(vals);
            while let Some((i, _)) = w_pattern.next_if(|&(_, j)| j == r) {
                w_slots.push((row_idx.len(), i == r));
                row_idx.push(n + i);
                values.push(0.0);
            }
            col_ptr.push(row_idx.len());
        }
        debug_assert!(w_pattern.next().is_none());
        let ldl = SparseLdlt::analyse(n + m, &col_ptr, &row_idx);
        let signs = (0..n + m).map(|i| if i < n { 1.0 } else { -1.0 }).collect();
        Self {
            n,
            col_ptr,
            row_idx,
            values,
            w_packed: vec![0.0; w_slots.len()],
            w_slots,
            signs,
            delta,
            ldl,
            factorizations: 0,
            pivot_bumps: 0,
        }
    }

    /// Stored entries of the (upper-triangle) KKT matrix.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored entries of the factor `L`.
    pub fn factor_nnz(&self) -> usize {
        self.ldl.nnz_l()
    }

    /// Writes `W²` (the identity when `scaling` is `None`) into the value
    /// array and factors the regularised matrix.
    pub fn factor(&mut self, scaling: Option<&NtScaling>) {
        match scaling {
            Some(w) => w.write_w_squared(&mut self.w_packed),
            None => {
                for (v, &(_, diagonal)) in self.w_packed.iter_mut().zip(&self.w_slots) {
                    *v = if diagonal { 1.0 } else { 0.0 };
                }
            }
        }
        for (&(slot, diagonal), &w2) in self.w_slots.iter().zip(&self.w_packed) {
            self.values[slot] = if diagonal { -w2 - self.delta } else { -w2 };
        }
        let delta = self.delta.max(bbs_linalg::tol::PIVOT_EPS);
        let bumps = self.ldl.factor(&self.values, &self.signs, delta);
        self.factorizations += 1;
        self.pivot_bumps += bumps;
    }

    /// Solves the *exact* (unregularised) KKT system for `rhs = [r_x; r_z]`,
    /// using the regularised factorisation as a preconditioner for a few
    /// steps of iterative refinement. Returns `(x, z)`.
    pub fn solve(&self, rhs_x: &[f64], rhs_z: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let rhs: Vec<f64> = rhs_x.iter().chain(rhs_z).copied().collect();
        let mut sol = rhs.clone();
        self.ldl.solve_in_place(&mut sol);
        for _ in 0..REFINEMENT_STEPS {
            let k_sol = symmetric_upper_matvec(&self.col_ptr, &self.row_idx, &self.values, &sol);
            let mut residual: Vec<f64> = rhs
                .iter()
                .zip(&k_sol)
                .zip(&sol)
                .zip(&self.signs)
                // K_exact·sol = K_reg·sol − δ·sign·sol on the diagonal.
                .map(|(((b, k), s), sign)| b - (k - sign * self.delta * s))
                .collect();
            self.ldl.solve_in_place(&mut residual);
            for (s, r) in sol.iter_mut().zip(&residual) {
                *s += r;
            }
        }
        let z = sol.split_off(self.n);
        (sol, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinExpr, ModelBuilder};
    use bbs_linalg::{DMatrix, DVector};

    fn small_problem() -> ConeProblem {
        let mut m = ModelBuilder::new();
        let x = m.add_var_with_cost("x", 1.0);
        let y = m.add_var_with_cost("y", 2.0);
        let t = m.add_var("t");
        m.bound_lower(x, 0.5);
        m.bound_upper(y, 3.0);
        m.add_le(LinExpr::term(1.0, x).plus(1.0, y).plus(-1.0, t), 4.0);
        m.add_hyperbolic(x, y, 2.0);
        m.build().unwrap().problem().clone()
    }

    /// The dense exact KKT matrix `[0 Gᵀ; G −W²]`.
    fn dense_kkt(problem: &ConeProblem, w: &NtScaling) -> DMatrix {
        let (n, m) = (problem.num_vars(), problem.num_rows());
        let g = problem.g.to_dense();
        let mut k = DMatrix::zeros(n + m, n + m);
        for r in 0..m {
            for c in 0..n {
                k[(n + r, c)] = g[(r, c)];
                k[(c, n + r)] = g[(r, c)];
            }
            let mut e = DVector::zeros(m);
            e[r] = 1.0;
            let col = w.apply(&w.apply(&e));
            for i in 0..m {
                k[(n + i, n + r)] = -col[i];
            }
        }
        k
    }

    #[test]
    fn solve_matches_the_dense_exact_system() {
        let problem = small_problem();
        let cone = &problem.cone;
        let m = cone.dim();
        let e = cone.identity();
        let s = DVector::from_vec((0..m).map(|i| 2.0 * e[i] + 0.1 * (i % 3) as f64).collect());
        let z = DVector::from_vec((0..m).map(|i| 3.0 * e[i] - 0.2 * (i % 2) as f64).collect());
        let w = NtScaling::compute(cone, &s, &z).unwrap();
        let mut kkt = KktSystem::new(&problem, 1e-10);
        kkt.factor(Some(&w));
        let n = problem.num_vars();
        let rhs: Vec<f64> = (0..n + m).map(|i| (i as f64 * 0.7).cos()).collect();
        let (dx, dz) = kkt.solve(&rhs[..n], &rhs[n..]);
        let sol = DVector::from_vec(dx.into_iter().chain(dz).collect());
        let residual = &dense_kkt(&problem, &w).matvec(&sol) - &DVector::from_slice(&rhs);
        assert!(residual.norm_inf() < 1e-10, "residual {residual:?}");
        assert_eq!(kkt.factorizations, 1);
        assert!(kkt.nnz() < (n + m) * (n + m + 1) / 2);
    }
}
