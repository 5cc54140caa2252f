//! Sparse kernels: a compressed-sparse-row matrix and an LDLᵀ factorisation
//! of symmetric quasi-definite matrices with a once-per-pattern symbolic
//! analysis.
//!
//! The interior-point KKT systems of `bbs-conic` keep one sparsity pattern
//! for a whole solve and change only their values from one iteration to the
//! next. [`SparseLdlt::analyse`] therefore computes the fill-reducing
//! ordering ([`minimum_degree_order`]), the elimination tree and the column
//! counts of `L` once; [`SparseLdlt::factor`] then only runs the numeric
//! up-looking factorisation (the algorithm of QDLDL, Stellato et al. 2020)
//! into the preallocated pattern. Symmetric quasi-definite matrices
//! `[P Aᵀ; A −Q]` with `P`, `Q` positive definite factor stably under *any*
//! symmetric permutation (Vanderbei 1995), so the ordering is chosen for
//! sparsity alone.

use crate::{DMatrix, DVector};
use std::collections::BTreeSet;

/// Marker for "no parent" in the elimination tree.
const NONE: usize = usize::MAX;

/// A sparse matrix in compressed-sparse-row form, built one row at a time.
///
/// # Example
///
/// ```
/// use bbs_linalg::{CsrMatrix, DVector};
///
/// let mut g = CsrMatrix::new(3);
/// g.push_row([(0, 1.0), (2, -2.0)]);
/// g.push_row([(1, 4.0), (1, 1.0)]); // duplicates are summed
/// let x = DVector::from_slice(&[1.0, 1.0, 1.0]);
/// assert_eq!(g.matvec(&x).as_slice(), &[-1.0, 5.0]);
/// assert_eq!(g.nnz(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CsrMatrix {
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates a matrix with `ncols` columns and no rows yet.
    pub fn new(ncols: usize) -> Self {
        Self {
            ncols,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an all-zero `nrows × ncols` matrix (every row empty).
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends a row given as `(column, value)` pairs in any order.
    /// Entries that repeat a column are summed in the order given.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    pub fn push_row(&mut self, entries: impl IntoIterator<Item = (usize, f64)>) {
        let start = self.col_idx.len();
        for (c, v) in entries {
            assert!(c < self.ncols, "push_row: column {c} out of range");
            match self.col_idx[start..].iter().position(|&k| k == c) {
                Some(at) => self.values[start + at] += v,
                None => {
                    self.col_idx.push(c);
                    self.values.push(v);
                }
            }
        }
        // Sort the new row by column (rows are short; insertion sort keeps
        // the summation above independent of the sort).
        for i in start + 1..self.col_idx.len() {
            let mut j = i;
            while j > start && self.col_idx[j - 1] > self.col_idx[j] {
                self.col_idx.swap(j - 1, j);
                self.values.swap(j - 1, j);
                j -= 1;
            }
        }
        self.row_ptr.push(self.col_idx.len());
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The column indices and values of row `r`, in increasing column
    /// order.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// The dense equivalent (for tests and diagnostics).
    pub fn to_dense(&self) -> DMatrix {
        let mut out = DMatrix::zeros(self.nrows(), self.ncols);
        for r in 0..self.nrows() {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                out[(r, c)] = v;
            }
        }
        out
    }

    /// Matrix–vector product `A x` in `O(nnz)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols()`.
    pub fn matvec(&self, x: &DVector) -> DVector {
        assert_eq!(x.len(), self.ncols, "csr matvec: dimension mismatch");
        (0..self.nrows())
            .map(|r| {
                let (cols, vals) = self.row(r);
                cols.iter().zip(vals).map(|(&c, &v)| v * x[c]).sum()
            })
            .collect()
    }

    /// Transposed product `Aᵀ x` in `O(nnz)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != nrows()`.
    pub fn matvec_transpose(&self, x: &DVector) -> DVector {
        assert_eq!(
            x.len(),
            self.nrows(),
            "csr matvec_transpose: dimension mismatch"
        );
        let mut out = DVector::zeros(self.ncols);
        for r in 0..self.nrows() {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                out[c] += v * x[r];
            }
        }
        out
    }

    /// Largest absolute entry.
    pub fn norm_inf(&self) -> f64 {
        self.values.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Returns `true` if every stored entry is finite.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

/// A fill-reducing symmetric ordering: plain minimum degree on the
/// elimination graph, ties broken by the smaller index.
///
/// The pattern is the upper triangle (or any triangle, or both) of a
/// symmetric `n × n` matrix in compressed-sparse-column form; diagonal
/// entries are ignored. Returns `perm` with `perm[k]` = the original index
/// eliminated `k`-th. The result depends on the pattern alone, never on
/// hashing or allocation order, so it is identical across calls and runs.
///
/// # Panics
///
/// Panics if `col_ptr.len() != n + 1` or a row index is out of range.
pub fn minimum_degree_order(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Vec<usize> {
    assert_eq!(col_ptr.len(), n + 1, "minimum_degree_order: bad col_ptr");
    let mut adjacency: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for j in 0..n {
        for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
            assert!(i < n, "minimum_degree_order: row {i} out of range");
            if i != j {
                adjacency[i].insert(j);
                adjacency[j].insert(i);
            }
        }
    }
    let mut queue: BTreeSet<(usize, usize)> = (0..n).map(|v| (adjacency[v].len(), v)).collect();
    let mut order = Vec::with_capacity(n);
    while let Some((_, v)) = queue.pop_first() {
        order.push(v);
        // Eliminating v turns its neighbourhood into a clique.
        let neighbours: Vec<usize> = std::mem::take(&mut adjacency[v]).into_iter().collect();
        for &a in &neighbours {
            queue.remove(&(adjacency[a].len(), a));
            adjacency[a].remove(&v);
        }
        for &a in &neighbours {
            for &b in &neighbours {
                if a != b {
                    adjacency[a].insert(b);
                }
            }
        }
        for &a in &neighbours {
            queue.insert((adjacency[a].len(), a));
        }
    }
    order
}

/// Sparse LDLᵀ factorisation `P A Pᵀ = L D Lᵀ` of a symmetric
/// quasi-definite matrix, with the ordering `P` and the pattern of `L`
/// computed once by [`SparseLdlt::analyse`] and reused by every numeric
/// [`SparseLdlt::factor`] on new values.
///
/// # Example
///
/// ```
/// use bbs_linalg::{DVector, SparseLdlt};
///
/// // Upper triangle of [[4, 1, 0], [1, -3, 2], [0, 2, -5]] in CSC form.
/// let col_ptr = [0, 1, 3, 5];
/// let row_idx = [0, 0, 1, 1, 2];
/// let values = [4.0, 1.0, -3.0, 2.0, -5.0];
/// let mut ldl = SparseLdlt::analyse(3, &col_ptr, &row_idx);
/// // One positive pivot, two negative ones; no pivot needs replacing.
/// assert_eq!(ldl.factor(&values, &[1.0, -1.0, -1.0], 1e-9), 0);
/// let x = ldl.solve(&DVector::from_slice(&[5.0, 0.0, -3.0]));
/// // A x = b with x = (1, 1, 1).
/// for v in x.iter() {
///     assert!((v - 1.0).abs() < 1e-12);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLdlt {
    /// `perm[k]` = original index of permuted position `k`.
    perm: Vec<usize>,
    /// Permuted upper-triangle pattern (CSC) and, per input entry, the slot
    /// of the permuted value array it is accumulated into.
    ap: Vec<usize>,
    ai: Vec<usize>,
    slot_of_entry: Vec<usize>,
    etree: Vec<usize>,
    /// Column pointers and row indices of the strictly lower factor `L`.
    lp: Vec<usize>,
    li: Vec<usize>,
    lx: Vec<f64>,
    d: Vec<f64>,
    dinv: Vec<f64>,
    // Numeric workspace, kept to avoid per-factorisation allocation.
    ax: Vec<f64>,
    y_vals: Vec<f64>,
    y_used: Vec<bool>,
    y_idx: Vec<usize>,
    elim: Vec<usize>,
    next_in_col: Vec<usize>,
}

impl SparseLdlt {
    /// Symbolic analysis of the symmetric `n × n` pattern given as its
    /// upper triangle in compressed-sparse-column form (`row ≤ column`
    /// for every entry; repeated entries are summed by [`factor`]).
    /// Computes the [`minimum_degree_order`], the elimination tree and the
    /// exact column counts of `L`.
    ///
    /// [`factor`]: SparseLdlt::factor
    ///
    /// # Panics
    ///
    /// Panics if the pattern is malformed: a wrong `col_ptr` length, or an
    /// entry below the diagonal or out of range.
    pub fn analyse(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Self {
        assert!(
            col_ptr.len() == n + 1 && col_ptr[n] == row_idx.len(),
            "sparse ldlt: col_ptr does not describe an n × n pattern"
        );
        for j in 0..n {
            assert!(
                row_idx[col_ptr[j]..col_ptr[j + 1]].iter().all(|&i| i <= j),
                "sparse ldlt: column {j} has an entry below the diagonal"
            );
        }
        let perm = minimum_degree_order(n, col_ptr, row_idx);
        let mut iperm = vec![0; n];
        for (k, &p) in perm.iter().enumerate() {
            iperm[p] = k;
        }

        // Permuted upper triangle, sorted by (column, row); duplicates
        // share one slot.
        let mut triplets: Vec<(usize, usize, usize)> = Vec::with_capacity(row_idx.len());
        for j in 0..n {
            for (k, &i) in row_idx
                .iter()
                .enumerate()
                .take(col_ptr[j + 1])
                .skip(col_ptr[j])
            {
                let (pi, pj) = (iperm[i], iperm[j]);
                triplets.push((pi.max(pj), pi.min(pj), k));
            }
        }
        triplets.sort_unstable();
        let mut ap = vec![0; n + 1];
        let mut ai = Vec::with_capacity(triplets.len());
        let mut slot_of_entry = vec![0; row_idx.len()];
        let mut last = None;
        for &(col, row, k) in &triplets {
            if last != Some((col, row)) {
                ai.push(row);
                ap[col + 1] += 1;
                last = Some((col, row));
            }
            slot_of_entry[k] = ai.len() - 1;
        }
        for j in 0..n {
            ap[j + 1] += ap[j];
        }

        // Elimination tree and column counts of L (QDLDL's etree pass).
        let mut etree = vec![NONE; n];
        let mut lnz = vec![0usize; n];
        let mut mark = vec![NONE; n];
        for j in 0..n {
            mark[j] = j;
            for &row in &ai[ap[j]..ap[j + 1]] {
                let mut i = row;
                while mark[i] != j {
                    if etree[i] == NONE {
                        etree[i] = j;
                    }
                    lnz[i] += 1;
                    mark[i] = j;
                    i = etree[i];
                }
            }
        }
        let mut lp = vec![0; n + 1];
        for i in 0..n {
            lp[i + 1] = lp[i] + lnz[i];
        }
        let nnz_l = lp[n];
        let nnz_a = ai.len();
        Self {
            perm,
            ap,
            ai,
            slot_of_entry,
            etree,
            lp,
            li: vec![0; nnz_l],
            lx: vec![0.0; nnz_l],
            d: vec![0.0; n],
            dinv: vec![0.0; n],
            ax: vec![0.0; nnz_a],
            y_vals: vec![0.0; n],
            y_used: vec![false; n],
            y_idx: vec![0; n],
            elim: vec![0; n],
            next_in_col: vec![0; n],
        }
    }

    /// Dimension of the analysed matrix.
    pub fn dim(&self) -> usize {
        self.perm.len()
    }

    /// The fill-reducing ordering: `permutation()[k]` is the original row
    /// eliminated `k`-th.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Number of stored (strictly lower) entries of `L`.
    pub fn nnz_l(&self) -> usize {
        self.lp[self.dim()]
    }

    /// The pivots `D` in permuted order.
    pub fn pivots(&self) -> &[f64] {
        &self.d
    }

    /// Numeric factorisation of the analysed pattern with new `values`
    /// (one per entry of the pattern given to [`analyse`], same order).
    ///
    /// Pivots are regularised dynamically: a pivot of input row `i` with
    /// `|d| ≤` [`PIVOT_EPS`] is replaced by `signs[i] · delta`, where
    /// `signs[i]` is `+1` for a row of the positive definite block and `−1`
    /// for one of the negative definite block. Returns the number of
    /// replaced pivots.
    ///
    /// Only the magnitude is tested. Where rounding has wiped out a pivot,
    /// its computed value is noise of either sign; forcing such a pivot to
    /// a tiny `±delta` would amplify that noise through `1/d`, while
    /// accepting it leaves the error to the caller's iterative refinement.
    ///
    /// [`analyse`]: SparseLdlt::analyse
    /// [`PIVOT_EPS`]: crate::tol::PIVOT_EPS
    ///
    /// # Panics
    ///
    /// Panics if `values` or `signs` does not match the analysed pattern.
    pub fn factor(&mut self, values: &[f64], signs: &[f64], delta: f64) -> usize {
        assert_eq!(
            values.len(),
            self.slot_of_entry.len(),
            "sparse ldlt: value count does not match the pattern"
        );
        assert_eq!(
            signs.len(),
            self.dim(),
            "sparse ldlt: one pivot sign per row is required"
        );
        let n = self.dim();
        self.ax.fill(0.0);
        for (&slot, &v) in self.slot_of_entry.iter().zip(values) {
            self.ax[slot] += v;
        }
        self.y_vals.fill(0.0);
        self.y_used.fill(false);
        self.next_in_col.copy_from_slice(&self.lp[..n]);
        let mut bumps = 0;
        for k in 0..n {
            // Nonzero pattern of row k of L: the etree paths from each
            // entry of column k of the (permuted) upper triangle, in an
            // order where every column comes after its descendants.
            let mut nnz_y = 0;
            self.d[k] = 0.0;
            for p in self.ap[k]..self.ap[k + 1] {
                let row = self.ai[p];
                if row == k {
                    self.d[k] = self.ax[p];
                    continue;
                }
                self.y_vals[row] = self.ax[p];
                if self.y_used[row] {
                    continue;
                }
                let mut depth = 0;
                let mut next = row;
                while next != NONE && next < k && !self.y_used[next] {
                    self.y_used[next] = true;
                    self.elim[depth] = next;
                    depth += 1;
                    next = self.etree[next];
                }
                while depth > 0 {
                    depth -= 1;
                    self.y_idx[nnz_y] = self.elim[depth];
                    nnz_y += 1;
                }
            }
            for i in (0..nnz_y).rev() {
                let col = self.y_idx[i];
                let end = self.next_in_col[col];
                let y_col = self.y_vals[col];
                for q in self.lp[col]..end {
                    self.y_vals[self.li[q]] -= self.lx[q] * y_col;
                }
                self.li[end] = k;
                self.lx[end] = y_col * self.dinv[col];
                self.d[k] -= y_col * self.lx[end];
                self.next_in_col[col] += 1;
                self.y_vals[col] = 0.0;
                self.y_used[col] = false;
            }
            if self.d[k].abs() <= crate::tol::PIVOT_EPS {
                self.d[k] = signs[self.perm[k]] * delta;
                bumps += 1;
            }
            self.dinv[k] = 1.0 / self.d[k];
        }
        bumps
    }

    /// Solves `A x = b` in place with the current numeric factorisation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factor dimension.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "sparse ldlt solve: dimension mismatch");
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 0..n {
            let xi = x[i];
            for q in self.lp[i]..self.lp[i + 1] {
                x[self.li[q]] -= self.lx[q] * xi;
            }
        }
        for (xi, di) in x.iter_mut().zip(&self.dinv) {
            *xi *= di;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for q in self.lp[i]..self.lp[i + 1] {
                acc -= self.lx[q] * x[self.li[q]];
            }
            x[i] = acc;
        }
        for (k, &p) in self.perm.iter().enumerate() {
            b[p] = x[k];
        }
    }

    /// Solves `A x = b` with the current numeric factorisation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factor dimension.
    pub fn solve(&self, b: &DVector) -> DVector {
        let mut x = b.clone();
        self.solve_in_place(x.as_mut_slice());
        x
    }
}

/// `y = A x` for a symmetric matrix stored as its upper triangle in
/// compressed-sparse-column form (the input format of
/// [`SparseLdlt::analyse`]).
///
/// # Panics
///
/// Panics if the slices are inconsistent with `x.len()`.
pub fn symmetric_upper_matvec(
    col_ptr: &[usize],
    row_idx: &[usize],
    values: &[f64],
    x: &[f64],
) -> Vec<f64> {
    let n = x.len();
    assert_eq!(col_ptr.len(), n + 1, "symmetric matvec: dimension mismatch");
    let mut y = vec![0.0; n];
    for j in 0..n {
        for p in col_ptr[j]..col_ptr[j + 1] {
            let (i, v) = (row_idx[p], values[p]);
            y[i] += v * x[j];
            if i != j {
                y[j] += v * x[i];
            }
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ldlt;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Upper-triangle CSC pattern and values of a dense symmetric matrix,
    /// keeping the nonzeros plus the whole diagonal.
    fn upper_csc(a: &DMatrix) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let n = a.nrows();
        let (mut col_ptr, mut row_idx, mut values) = (vec![0], Vec::new(), Vec::new());
        for j in 0..n {
            for i in 0..=j {
                if i == j || a[(i, j)] != 0.0 {
                    row_idx.push(i);
                    values.push(a[(i, j)]);
                }
            }
            col_ptr.push(row_idx.len());
        }
        (col_ptr, row_idx, values)
    }

    /// Pivot signs of [`kkt_like`]: `+1` for the `n` primal rows, `−1` for
    /// the `m` cone rows.
    fn kkt_signs(n: usize, m: usize) -> Vec<f64> {
        (0..n + m).map(|i| if i < n { 1.0 } else { -1.0 }).collect()
    }

    /// A random sparse quasi-definite KKT-shaped matrix
    /// `[δI Gᵀ; G −W]` with `W` block diagonal: orthant diagonals followed
    /// by 3×3 positive definite cone blocks.
    fn kkt_like(n: usize, orthant: usize, cones: usize, seed: u64) -> DMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = orthant + 3 * cones;
        let mut a = DMatrix::zeros(n + m, n + m);
        for i in 0..n {
            a[(i, i)] = rng.gen_range(1e-3..1.0);
        }
        for r in 0..m {
            // Two or three entries per row of G, at random columns.
            for _ in 0..rng.gen_range(1..4usize) {
                let c = rng.gen_range(0..n);
                let v = rng.gen_range(-2.0..2.0);
                a[(n + r, c)] = v;
                a[(c, n + r)] = v;
            }
        }
        for r in 0..orthant {
            a[(n + r, n + r)] = -rng.gen_range(0.1..5.0);
        }
        for b in 0..cones {
            // −(M Mᵀ + I) for a random 3×3 M is negative definite.
            let off = n + orthant + 3 * b;
            let mut mm = [[0.0; 3]; 3];
            for row in &mut mm {
                for v in row.iter_mut() {
                    *v = rng.gen_range(-1.0..1.0);
                }
            }
            for i in 0..3 {
                for j in 0..3 {
                    let dot: f64 = (0..3).map(|k| mm[i][k] * mm[j][k]).sum();
                    a[(off + i, off + j)] = -(dot + if i == j { 1.0 } else { 0.0 });
                }
            }
        }
        a
    }

    #[test]
    fn csr_products_match_dense() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut dense = DMatrix::zeros(6, 4);
        let mut csr = CsrMatrix::new(4);
        for r in 0..6 {
            let mut row = Vec::new();
            for c in (0..4).rev() {
                if rng.gen_range(0.0..1.0) < 0.4 {
                    dense[(r, c)] = rng.gen_range(-3.0..3.0);
                    row.push((c, dense[(r, c)]));
                }
            }
            csr.push_row(row);
        }
        assert_eq!(csr.to_dense(), dense);
        assert_eq!((csr.nrows(), csr.ncols()), (6, 4));
        let x = DVector::from_slice(&[1.0, -2.0, 0.5, 3.0]);
        let y = DVector::from_slice(&[0.3, 1.0, -1.0, 2.0, 0.0, 4.0]);
        assert_eq!(csr.matvec(&x), dense.matvec(&x));
        assert_eq!(csr.matvec_transpose(&y), dense.matvec_transpose(&y));
        assert_eq!(csr.norm_inf(), dense.norm_inf());
        assert!(csr.is_finite());
        assert_eq!(CsrMatrix::zeros(2, 3).to_dense(), DMatrix::zeros(2, 3));
    }

    #[test]
    fn push_row_sums_duplicates_and_sorts() {
        let mut g = CsrMatrix::new(4);
        g.push_row([(3, 1.0), (0, 2.0), (3, -0.5)]);
        g.push_row([]);
        assert_eq!(g.row(0), (&[0, 3][..], &[2.0, 0.5][..]));
        assert_eq!(g.row(1).0.len(), 0);
        assert_eq!(g.nnz(), 2);
    }

    #[test]
    fn ordering_is_a_deterministic_permutation() {
        let a = kkt_like(12, 20, 4, 3);
        let (col_ptr, row_idx, _) = upper_csc(&a);
        let n = a.nrows();
        let order = minimum_degree_order(n, &col_ptr, &row_idx);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        for _ in 0..3 {
            assert_eq!(minimum_degree_order(n, &col_ptr, &row_idx), order);
        }
        let ldl = SparseLdlt::analyse(n, &col_ptr, &row_idx);
        assert_eq!(ldl.permutation(), &order[..]);
    }

    #[test]
    fn arrow_matrix_is_ordered_without_fill() {
        // Node 0 is coupled to every other node: eliminating it first would
        // fill the whole matrix; minimum degree keeps it until only one
        // leaf is left (where the tie goes to the smaller index).
        let n = 6;
        let col_ptr: Vec<usize> = (0..=n)
            .map(|j| if j == 0 { 0 } else { 2 * j - 1 })
            .collect();
        let mut row_idx = vec![0];
        for j in 1..n {
            row_idx.extend([0, j]);
        }
        let ldl = SparseLdlt::analyse(n, &col_ptr, &row_idx);
        assert_eq!(ldl.permutation()[n - 2], 0);
        assert_eq!(ldl.nnz_l(), n - 1);
    }

    #[test]
    fn refactor_with_new_values_reuses_the_analysis() {
        let first = kkt_like(8, 10, 3, 21);
        let (col_ptr, row_idx, values) = upper_csc(&first);
        let mut ldl = SparseLdlt::analyse(first.nrows(), &col_ptr, &row_idx);
        let signs = kkt_signs(8, 10 + 3 * 3);
        assert_eq!(ldl.factor(&values, &signs, 1e-9), 0);
        let b = DVector::from_vec((0..first.nrows()).map(|i| (i as f64).sin()).collect());
        assert!((&first.matvec(&ldl.solve(&b)) - &b).norm_inf() < 1e-9);

        // Same pattern, new values: scale every entry differently.
        let mut second = first.clone();
        for i in 0..second.nrows() {
            for j in 0..second.ncols() {
                second[(i, j)] *= 1.0 + 0.1 * ((i + j) % 7) as f64;
            }
        }
        let (_, _, new_values) = upper_csc(&second);
        let nnz_l = ldl.nnz_l();
        assert_eq!(ldl.factor(&new_values, &signs, 1e-9), 0);
        assert_eq!(ldl.nnz_l(), nnz_l);
        let x = ldl.solve(&b);
        assert!((&second.matvec(&x) - &b).norm_inf() < 1e-9);
        assert!((&Ldlt::factor(&second).unwrap().solve(&b) - &x).norm_inf() < 1e-9);
    }

    #[test]
    fn repeated_entries_are_summed() {
        // [[2, 1], [1, -1]] with the off-diagonal split into two entries.
        let mut ldl = SparseLdlt::analyse(2, &[0, 1, 4], &[0, 0, 0, 1]);
        assert_eq!(ldl.factor(&[2.0, 0.25, 0.75, -1.0], &[1.0, -1.0], 1e-9), 0);
        let x = ldl.solve(&DVector::from_slice(&[3.0, 0.0]));
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_vanishing_pivot_is_replaced_by_its_signed_delta() {
        let (col_ptr, row_idx) = ([0, 1, 3], [0, 0, 1]);
        let values = [1.0, 1.0, 1.0]; // [[1, 1], [1, 1]] is singular
        let mut ldl = SparseLdlt::analyse(2, &col_ptr, &row_idx);
        assert_eq!(ldl.factor(&values, &[1.0, -1.0], 1e-7), 1);
        assert!(ldl.pivots().iter().any(|&d| d == -1e-7 || d == 1e-7));
    }

    #[test]
    #[should_panic(expected = "does not describe")]
    fn a_short_col_ptr_is_rejected() {
        SparseLdlt::analyse(2, &[0, 1], &[0]);
    }

    #[test]
    #[should_panic(expected = "below the diagonal")]
    fn entries_below_the_diagonal_are_rejected() {
        SparseLdlt::analyse(2, &[0, 2, 3], &[0, 1, 1]);
    }

    #[test]
    fn symmetric_matvec_matches_dense() {
        let a = kkt_like(5, 6, 2, 9);
        let (col_ptr, row_idx, values) = upper_csc(&a);
        let x: Vec<f64> = (0..a.nrows()).map(|i| 0.5 - i as f64).collect();
        let y = symmetric_upper_matvec(&col_ptr, &row_idx, &values, &x);
        let expected = a.matvec(&DVector::from_slice(&x));
        assert!((&DVector::from_vec(y) - &expected).norm_inf() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_sparse_solve_matches_dense_reference(
            seed in 0u64..10_000,
            n in 1usize..10,
            orthant in 0usize..12,
            cones in 0usize..4,
        ) {
            let a = kkt_like(n, orthant, cones, seed);
            let (col_ptr, row_idx, values) = upper_csc(&a);
            let mut sparse = SparseLdlt::analyse(a.nrows(), &col_ptr, &row_idx);
            let signs = kkt_signs(n, orthant + 3 * cones);
            prop_assert_eq!(sparse.factor(&values, &signs, 1e-9), 0);
            let dense = Ldlt::factor(&a).unwrap();
            let b = DVector::from_vec(
                (0..a.nrows()).map(|i| ((i as f64) * 0.37 + seed as f64).cos()).collect(),
            );
            let xs = sparse.solve(&b);
            let xd = dense.solve(&b);
            let scale = 1.0 + xd.norm_inf();
            prop_assert!((&xs - &xd).norm_inf() < 1e-8 * scale,
                "sparse and dense solves differ: {:?} vs {:?}", xs, xd);
            // Same inertia: a quasi-definite matrix has n positive pivots.
            let negative = sparse.pivots().iter().filter(|&&d| d < 0.0).count();
            prop_assert_eq!(negative, dense.negative_pivots());
            prop_assert!(sparse.nnz_l() <= a.nrows() * (a.nrows() - 1) / 2);
        }
    }
}
