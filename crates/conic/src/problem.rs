//! Problem modelling: named variables, affine constraints, second-order cone
//! constraints, and lowering to the standard conic form.

use crate::cone::{Cone, ConeBlock};
use crate::error::ConicError;
use bbs_linalg::{CsrMatrix, DVector};
use std::fmt;

/// Handle to a decision variable created by a [`ModelBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in the solution vector.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A linear expression `Σ coeffᵢ·xᵢ + constant`.
///
/// # Example
///
/// ```
/// use bbs_conic::{LinExpr, ModelBuilder};
///
/// let mut m = ModelBuilder::new();
/// let x = m.add_var("x");
/// let y = m.add_var("y");
/// let expr = LinExpr::new().plus(2.0, x).plus(-1.0, y).plus_constant(3.0);
/// assert_eq!(expr.terms().len(), 2);
/// assert_eq!(expr.constant(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// Creates the zero expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an expression consisting of a single term `coeff · var`.
    pub fn term(coeff: f64, var: VarId) -> Self {
        Self::new().plus(coeff, var)
    }

    /// Creates a constant expression.
    pub fn constant_expr(value: f64) -> Self {
        Self {
            terms: Vec::new(),
            constant: value,
        }
    }

    /// Adds `coeff · var` and returns the updated expression.
    #[must_use]
    pub fn plus(mut self, coeff: f64, var: VarId) -> Self {
        self.terms.push((var, coeff));
        self
    }

    /// Adds a constant and returns the updated expression.
    #[must_use]
    pub fn plus_constant(mut self, value: f64) -> Self {
        self.constant += value;
        self
    }

    /// The (variable, coefficient) terms.
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// The constant offset.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Evaluates the expression for a full solution vector.
    ///
    /// # Panics
    ///
    /// Panics if a referenced variable is out of bounds for `x`.
    pub fn eval(&self, x: &DVector) -> f64 {
        self.constant + self.terms.iter().map(|(v, c)| c * x[v.0]).sum::<f64>()
    }
}

/// Raw conic problem in standard form `min cᵀx  s.t. Gx + s = h, s ∈ K`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConeProblem {
    /// Objective vector `c`.
    pub c: DVector,
    /// Constraint matrix `G`, stored by rows.
    pub g: CsrMatrix,
    /// Right-hand side `h`.
    pub h: DVector,
    /// Cone `K` (row blocks of `G`).
    pub cone: Cone,
}

impl ConeProblem {
    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.c.len()
    }

    /// Number of conic rows.
    pub fn num_rows(&self) -> usize {
        self.h.len()
    }

    /// Validates internal dimensional consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConicError::DimensionMismatch`] when the shapes of `c`,
    /// `G`, `h` and the cone do not line up, or when the data contains
    /// non-finite entries ([`ConicError::NonFiniteData`]).
    pub fn validate(&self) -> Result<(), ConicError> {
        if self.g.nrows() != self.h.len()
            || self.g.ncols() != self.c.len()
            || self.cone.dim() != self.h.len()
        {
            return Err(ConicError::DimensionMismatch {
                rows: self.g.nrows(),
                cols: self.g.ncols(),
                c_len: self.c.len(),
                h_len: self.h.len(),
                cone_dim: self.cone.dim(),
            });
        }
        if !self.c.is_finite() || !self.h.is_finite() || !self.g.is_finite() {
            return Err(ConicError::NonFiniteData);
        }
        Ok(())
    }
}

/// A named second-order cone constraint `‖A x + b‖₂ ≤ cᵀ x + d`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SocConstraint {
    /// The affine expression bounding the norm (the cone "head").
    pub bound: LinExpr,
    /// The affine expressions inside the norm (the cone "tail").
    pub norm_terms: Vec<LinExpr>,
}

/// Builder for conic optimisation models with named variables.
///
/// The builder supports exactly the constraint shapes needed by the
/// budget/buffer formulation (and by LPs in general):
///
/// * affine inequalities `expr ≤ rhs` / `expr ≥ rhs`,
/// * variable bounds,
/// * hyperbolic constraints `x·y ≥ k` (lowered to a 3-dimensional
///   second-order cone),
/// * general second-order cone constraints.
///
/// # Example
///
/// Minimise `x + y` subject to `x·y ≥ 4`, `x ≤ 8`:
///
/// ```
/// use bbs_conic::{ModelBuilder, IpmSettings};
///
/// let mut m = ModelBuilder::new();
/// let x = m.add_var("x");
/// let y = m.add_var("y");
/// m.set_objective(x, 1.0);
/// m.set_objective(y, 1.0);
/// m.bound_lower(x, 1e-6);
/// m.bound_lower(y, 1e-6);
/// m.bound_upper(x, 8.0);
/// m.add_hyperbolic(x, y, 4.0);
/// let model = m.build().unwrap();
/// let sol = model.solve(&IpmSettings::default()).unwrap();
/// // The optimum is x = y = 2 (AM-GM equality point).
/// assert!((sol.value(x) - 2.0).abs() < 1e-4);
/// assert!((sol.value(y) - 2.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ModelBuilder {
    names: Vec<String>,
    objective: Vec<f64>,
    lower: Vec<Option<f64>>,
    upper: Vec<Option<f64>>,
    // expr ≤ 0 rows (already normalised).
    le_rows: Vec<LinExpr>,
    hyperbolics: Vec<(VarId, VarId, f64)>,
    socs: Vec<SocConstraint>,
}

impl ModelBuilder {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a decision variable with objective coefficient 0.
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.names.len());
        self.names.push(name.into());
        self.objective.push(0.0);
        self.lower.push(None);
        self.upper.push(None);
        id
    }

    /// Adds a decision variable with the given objective coefficient.
    pub fn add_var_with_cost(&mut self, name: impl Into<String>, cost: f64) -> VarId {
        let v = self.add_var(name);
        self.objective[v.0] = cost;
        v
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.names.len()
    }

    /// Sets (overwrites) the objective coefficient of a variable.
    pub fn set_objective(&mut self, var: VarId, cost: f64) {
        self.objective[var.0] = cost;
    }

    /// Adds `cost` to the objective coefficient of a variable.
    pub fn add_objective(&mut self, var: VarId, cost: f64) {
        self.objective[var.0] += cost;
    }

    /// Name of a variable.
    pub fn name(&self, var: VarId) -> &str {
        &self.names[var.0]
    }

    /// Imposes `var ≥ bound` (the tightest of repeated calls wins).
    pub fn bound_lower(&mut self, var: VarId, bound: f64) {
        let entry = &mut self.lower[var.0];
        *entry = Some(entry.map_or(bound, |b| b.max(bound)));
    }

    /// Imposes `var ≤ bound` (the tightest of repeated calls wins).
    pub fn bound_upper(&mut self, var: VarId, bound: f64) {
        let entry = &mut self.upper[var.0];
        *entry = Some(entry.map_or(bound, |b| b.min(bound)));
    }

    /// Adds the affine constraint `expr ≤ rhs`.
    pub fn add_le(&mut self, expr: LinExpr, rhs: f64) {
        self.le_rows.push(expr.plus_constant(-rhs));
    }

    /// Adds the affine constraint `expr ≥ rhs`.
    pub fn add_ge(&mut self, expr: LinExpr, rhs: f64) {
        // expr ≥ rhs  ⇔  −expr ≤ −rhs
        let negated = LinExpr {
            terms: expr.terms.iter().map(|&(v, c)| (v, -c)).collect(),
            constant: -expr.constant,
        };
        self.add_le(negated, -rhs);
    }

    /// Adds the hyperbolic constraint `x · y ≥ k` with `k > 0`.
    ///
    /// The constraint is lowered to the second-order cone
    /// `‖(2√k, x − y)‖₂ ≤ x + y`, which together with the cone's implied
    /// `x + y ≥ 0` encodes `x, y ≥ 0` and `x·y ≥ k`.
    ///
    /// # Panics
    ///
    /// Panics if `k ≤ 0` (use a plain bound instead).
    pub fn add_hyperbolic(&mut self, x: VarId, y: VarId, k: f64) {
        assert!(k > 0.0, "hyperbolic constraint requires k > 0, got {k}");
        self.hyperbolics.push((x, y, k));
    }

    /// Adds a general second-order cone constraint `‖norm_terms‖₂ ≤ bound`.
    pub fn add_soc(&mut self, constraint: SocConstraint) {
        self.socs.push(constraint);
    }

    /// The hyperbolic constraints `(x, y, k)` added so far (meaning
    /// `x·y ≥ k`). Used by the cutting-plane solver to build its outer
    /// approximation.
    pub fn hyperbolic_constraints(&self) -> &[(VarId, VarId, f64)] {
        &self.hyperbolics
    }

    /// Removes all hyperbolic constraints (their linear relaxations are then
    /// supplied as cuts by the cutting-plane solver).
    pub fn clear_hyperbolic_constraints(&mut self) {
        self.hyperbolics.clear();
    }

    /// Lowers the model to standard conic form.
    ///
    /// # Errors
    ///
    /// Returns an error when the generated data is dimensionally or
    /// numerically invalid (e.g. non-finite coefficients).
    pub fn build(self) -> Result<Model, ConicError> {
        let n = self.names.len();
        // Count orthant rows: explicit ≤ rows plus bounds.
        let num_bounds = self.lower.iter().flatten().count() + self.upper.iter().flatten().count();
        let num_lin = self.le_rows.len() + num_bounds;
        let soc_dims: Vec<usize> = self
            .hyperbolics
            .iter()
            .map(|_| 3)
            .chain(self.socs.iter().map(|s| s.norm_terms.len() + 1))
            .collect();
        let m = num_lin + soc_dims.iter().sum::<usize>();

        let mut g = CsrMatrix::new(n);
        let mut h = Vec::with_capacity(m);

        // expr ≤ 0  ⇔  expr_terms·x + s = −constant, s ≥ 0.
        for expr in &self.le_rows {
            g.push_row(expr.terms().iter().map(|&(v, c)| (v.0, c)));
            h.push(-expr.constant());
        }
        // Lower bounds: x ≥ l ⇔ −x ≤ −l.
        for (i, bound) in self.lower.iter().enumerate() {
            if let Some(l) = bound {
                g.push_row([(i, -1.0)]);
                h.push(-l);
            }
        }
        // Upper bounds: x ≤ u.
        for (i, bound) in self.upper.iter().enumerate() {
            if let Some(u) = bound {
                g.push_row([(i, 1.0)]);
                h.push(*u);
            }
        }
        // Hyperbolic constraints as 3-dimensional SOC blocks:
        // s = (x + y, x − y, 2√k) ∈ Q³.
        for &(x, y, k) in &self.hyperbolics {
            g.push_row([(x.0, -1.0), (y.0, -1.0)]);
            g.push_row([(x.0, -1.0), (y.0, 1.0)]);
            g.push_row([]);
            h.extend([0.0, 0.0, 2.0 * k.sqrt()]);
        }
        // General SOC constraints: s = (bound, norm_terms…) ∈ Q^{1+t}.
        for soc in &self.socs {
            for expr in std::iter::once(&soc.bound).chain(&soc.norm_terms) {
                g.push_row(expr.terms().iter().map(|&(v, c)| (v.0, -c)));
                h.push(expr.constant());
            }
        }
        debug_assert_eq!(g.nrows(), m);

        let mut blocks = vec![ConeBlock::NonNeg(num_lin)];
        blocks.extend(soc_dims.into_iter().map(ConeBlock::Soc));
        let problem = ConeProblem {
            c: DVector::from_vec(self.objective),
            g,
            h: DVector::from_vec(h),
            cone: Cone::new(blocks),
        };
        problem.validate()?;
        Ok(Model {
            problem,
            names: self.names,
        })
    }
}

/// A built conic model ready to be solved.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    problem: ConeProblem,
    names: Vec<String>,
}

impl Model {
    /// The underlying standard-form problem.
    pub fn problem(&self) -> &ConeProblem {
        &self.problem
    }

    /// Variable names in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Solves the model with the interior-point method.
    ///
    /// # Errors
    ///
    /// Propagates solver failures; see [`crate::solve_cone_problem`].
    pub fn solve(&self, settings: &crate::IpmSettings) -> Result<Solution, ConicError> {
        let raw = crate::solve_cone_problem(&self.problem, settings)?;
        Ok(Solution { raw })
    }
}

/// Solution of a [`Model`], wrapping the raw solver output with named access.
#[derive(Debug, Clone)]
pub struct Solution {
    raw: crate::RawSolution,
}

impl Solution {
    /// Value of a variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.raw.x[var.0]
    }

    /// Objective value `cᵀx`.
    pub fn objective(&self) -> f64 {
        self.raw.primal_objective
    }

    /// Termination status.
    pub fn status(&self) -> crate::SolveStatus {
        self.raw.status
    }

    /// Number of interior-point iterations performed.
    pub fn iterations(&self) -> usize {
        self.raw.iterations
    }

    /// The raw solver output (primal/dual iterates and residuals).
    pub fn raw(&self) -> &crate::RawSolution {
        &self.raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IpmSettings;

    #[test]
    fn lin_expr_construction_and_eval() {
        let mut m = ModelBuilder::new();
        let x = m.add_var("x");
        let y = m.add_var("y");
        let e = LinExpr::term(2.0, x).plus(3.0, y).plus_constant(1.0);
        let v = DVector::from_slice(&[1.0, 2.0]);
        assert_eq!(e.eval(&v), 9.0);
        assert_eq!(LinExpr::constant_expr(5.0).eval(&v), 5.0);
        assert_eq!(format!("{x}"), "x0");
    }

    #[test]
    fn builder_counts_and_names() {
        let mut m = ModelBuilder::new();
        let a = m.add_var("alpha");
        let b = m.add_var_with_cost("beta", 2.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.name(a), "alpha");
        assert_eq!(m.name(b), "beta");
        m.add_objective(b, 1.0);
        m.set_objective(a, 4.0);
        let model = m.build().unwrap();
        assert_eq!(model.problem().c.as_slice(), &[4.0, 3.0]);
        assert_eq!(model.names(), &["alpha".to_string(), "beta".to_string()]);
    }

    #[test]
    fn bounds_tighten() {
        let mut m = ModelBuilder::new();
        let x = m.add_var("x");
        m.bound_lower(x, 1.0);
        m.bound_lower(x, 3.0);
        m.bound_lower(x, 2.0);
        m.bound_upper(x, 10.0);
        m.bound_upper(x, 7.0);
        m.set_objective(x, 1.0);
        let model = m.build().unwrap();
        let sol = model.solve(&IpmSettings::default()).unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn standard_form_shapes() {
        let mut m = ModelBuilder::new();
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_le(LinExpr::term(1.0, x).plus(1.0, y), 4.0);
        m.add_ge(LinExpr::term(1.0, x), 1.0);
        m.bound_lower(y, 0.0);
        m.add_hyperbolic(x, y, 1.0);
        let model = m.build().unwrap();
        let p = model.problem();
        // rows: 2 linear + 1 bound + 3 SOC = 6
        assert_eq!(p.num_rows(), 6);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.cone.degree(), 4);
        p.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "requires k > 0")]
    fn hyperbolic_rejects_nonpositive_k() {
        let mut m = ModelBuilder::new();
        let x = m.add_var("x");
        let y = m.add_var("y");
        m.add_hyperbolic(x, y, 0.0);
    }

    #[test]
    fn validate_catches_nonfinite() {
        let p = ConeProblem {
            c: DVector::from_slice(&[f64::NAN]),
            g: CsrMatrix::zeros(1, 1),
            h: DVector::zeros(1),
            cone: Cone::new(vec![ConeBlock::NonNeg(1)]),
        };
        assert!(matches!(p.validate(), Err(ConicError::NonFiniteData)));
    }

    #[test]
    fn validate_catches_shape_mismatch() {
        let p = ConeProblem {
            c: DVector::zeros(2),
            g: CsrMatrix::zeros(3, 1),
            h: DVector::zeros(3),
            cone: Cone::new(vec![ConeBlock::NonNeg(3)]),
        };
        assert!(matches!(
            p.validate(),
            Err(ConicError::DimensionMismatch { .. })
        ));
    }
}
