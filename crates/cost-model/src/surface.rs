//! Fig 8 — the transistor cost surface over `(λ × N_tr)`.
//!
//! Sec. IV.B evaluates eqs (1), (3), (4) and (7) on a grid of feature
//! sizes and transistor counts, with the calibration "extracted from a
//! real manufacturing operation": `X = 1.4`, `C₀ = \$500`,
//! `R_w = 7.5 cm`, `d_d = 152`, `D = 1.72`, `p = 4.07`. The constant-cost
//! contours show local optima: "for each die size there is a different
//! λ^opt which minimizes the cost per transistor" — and it is often *not*
//! the smallest available feature size.

use maly_par::Executor;
use maly_units::{
    DefectDensity, DesignDensity, Dollars, Microns, Probability, ReferenceDefectDensity,
    SquareCentimeters, TransistorCount,
};
use maly_wafer_geom::{DieDimensions, Wafer};
use maly_yield_model::ScaledPoissonYield;

use crate::{CostError, DiesPerWaferMethod, TransistorCostModel, WaferCostModel};

/// Estimated serial cost of one eq. (1) grid-cell evaluation through
/// the lane kernel with a warm eq. (4) memo — the executor cost hint
/// for surface sweeps (measured on the committed BENCH_sweeps.json
/// baseline: dense `surface_56x48` median ÷ 2688 grid points).
const CELL_EVAL_HINT_NS: f64 = 80.0;

/// Estimated per-cell cost of a pure in-memory column scan (no eq. (1)
/// evaluation, just comparisons over already-computed values).
const SCAN_HINT_NS: f64 = 3.0;

/// Eq. (1) grid cells dispatched through the lane-batched kernel. A
/// thread-count-invariant Work counter: every consumer (dense scans,
/// planned batch fusion) routes whole index sets through
/// [`Eq1Kernel::eq1_for_slice`], so this is the ground truth
/// for "how many eq. (1) evaluations actually ran" — the fusion
/// goldens diff it directly instead of trusting wall clock.
pub static EQ1_CELLS: maly_obs::Counter = maly_obs::Counter::work("eq1.cells");

/// Parameters of a cost-surface study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceParameters {
    /// Wafer cost model (`C₀`, `X`).
    pub wafer_cost: WaferCostModel,
    /// The wafer.
    pub wafer: Wafer,
    /// Design density `d_d`.
    pub density: DesignDensity,
    /// Eq. (7) reference defect density `D`.
    pub defect_d: ReferenceDefectDensity,
    /// Eq. (7) defect size exponent `p`.
    pub defect_p: f64,
    /// Dies-per-wafer method.
    pub dies_method: DiesPerWaferMethod,
}

impl SurfaceParameters {
    /// The Fig 8 calibration.
    #[must_use]
    pub fn fig8() -> Self {
        // Compile-time validated constants: this constructor cannot panic.
        const FIG8_WAFER_COST: WaferCostModel =
            WaferCostModel::const_new(Dollars::const_new(500.0), 1.4);
        const FIG8_DENSITY: DesignDensity = DesignDensity::const_new(152.0);
        Self {
            wafer_cost: FIG8_WAFER_COST,
            wafer: Wafer::six_inch(),
            density: FIG8_DENSITY,
            defect_d: ScaledPoissonYield::FIG8_D,
            defect_p: ScaledPoissonYield::FIG8_P,
            dies_method: DiesPerWaferMethod::MalyEq4,
        }
    }

    /// Cost per transistor at one `(λ, N_tr)` point.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures (die too large, yield collapsed).
    pub fn cost_at(
        &self,
        lambda: Microns,
        transistors: TransistorCount,
    ) -> Result<Dollars, CostError> {
        let yield_model = ScaledPoissonYield::new(self.defect_d, self.defect_p, lambda)?;
        let model =
            TransistorCostModel::new(self.wafer, self.wafer_cost.wafer_cost(lambda), yield_model)
                .dies_per_wafer_method(self.dies_method);
        let area = crate::density::die_area(transistors, self.density, lambda);
        let die = maly_wafer_geom::DieDimensions::square_with_area(area);
        Ok(model.evaluate(die, transistors)?.cost_per_transistor)
    }

    /// Batched eq. (1) over a slice of `(λ, N_tr)` points: the cost per
    /// transistor, or `None` where the point is infeasible (die too
    /// large, yield collapsed) — exactly [`SurfaceParameters::cost_at`]
    /// per element, `Err → None`.
    ///
    /// For the default eq. (4) dies-per-wafer method this runs the
    /// batched kernels underneath — one memo-cache pass for the die
    /// counts ([`maly_wafer_geom::cache::dies_per_wafer_batch`]) and one
    /// eq. (7) yield pass
    /// ([`ScaledPoissonYield::yields_for_slice`]) — instead of
    /// re-deriving the full model object per point. Die counts and the
    /// feasibility mask are exact; cost values carry the lane `exp`/`ln`
    /// accuracy contract of `yields_for_slice` (relative error vs the
    /// scalar `cost_at` ≈ `(1 + |ln Y|) · 1e-14`, a few ulps over the
    /// whole Fig 8 window).
    #[must_use]
    pub fn costs_for_points(&self, points: &[(Microns, TransistorCount)]) -> Vec<Option<f64>> {
        if !matches!(self.dies_method, DiesPerWaferMethod::MalyEq4) {
            // Non-default packing methods have no batched kernel; fall
            // back to the scalar path per point.
            return points
                .iter()
                .map(|&(lambda, n)| self.cost_at(lambda, n).ok().map(|d| d.value()))
                .collect();
        }
        let dies: Vec<DieDimensions> = points
            .iter()
            .map(|&(lambda, n)| {
                DieDimensions::square_with_area(crate::density::die_area(n, self.density, lambda))
            })
            .collect();
        let counts = maly_wafer_geom::cache::dies_per_wafer_batch(&self.wafer, &dies);
        // Yields use the *realized* die area (side², after the √ of
        // square_with_area), exactly as `evaluate` does.
        let slice: Vec<(Microns, SquareCentimeters)> = points
            .iter()
            .zip(&dies)
            .map(|(&(lambda, _), die)| (lambda, die.area()))
            .collect();
        let Ok(yields) = ScaledPoissonYield::yields_for_slice(self.defect_d, self.defect_p, &slice)
        else {
            // Invalid (D, p) calibration: the scalar path errors on
            // every point, so every point is infeasible here too.
            return vec![None; points.len()];
        };
        points
            .iter()
            .enumerate()
            .map(|(k, &(lambda, n))| {
                let n_ch = counts[k];
                if n_ch.is_zero() {
                    return None;
                }
                let y = yields[k];
                if y.value() <= 0.0 {
                    return None;
                }
                // Same operation order as TransistorCostModel::evaluate.
                let good_dies = n_ch.as_f64() * y.value();
                let cost_per_good_die = self.wafer_cost.wafer_cost(lambda) / good_dies;
                Some((cost_per_good_die / n.value()).value())
            })
            .collect()
    }
}

/// Per-λ-row hoisted state of [`Eq1Kernel`]: the wafer cost `C_w(λ)`
/// and the eq. (7) exponent scale `−D/λ^p` — both depend only on λ, so
/// computing them once per row removes two `powf` calls from every
/// point evaluation.
#[derive(Clone, Copy)]
struct Eq1Row {
    lambda: Microns,
    wafer_cost: Dollars,
    /// `−D/λ^p`: the eq. (7) yield is `exp(neg_d_eff · A)` at this row.
    neg_d_eff: f64,
}

/// The lane-batched eq. (1) kernel over a fixed `(λ × N_tr)` grid: the
/// dense scan and the batch planner both dispatch whole node sets
/// through [`Eq1Kernel::eq1_for_slice`], so every consumer computes
/// bit-identical values by construction.
///
/// Construction hoists everything that depends on one axis alone: the
/// wafer cost `C_w(λ)` and the effective defect density `D/λ^p` per
/// λ-row (two `powf` calls each, paid once per row instead of once per
/// point), and the clamped [`TransistorCount`] per column. The
/// per-point work is then one eq. (4) memo lookup and one lane-`exp`
/// element — no scalar transcendentals on the hot path.
struct Eq1Kernel {
    wafer: Wafer,
    density: DesignDensity,
    rows: Vec<Eq1Row>,
    cols: Vec<TransistorCount>,
}

impl Eq1Kernel {
    /// Builds the kernel for a parameter set over the given axes.
    /// Returns `None` when the dies-per-wafer method has no batched
    /// eq. (4) kernel or the eq. (7) calibration is invalid (where the
    /// scalar path errors on every point); callers then fall back to
    /// the scalar path.
    fn new(params: &SurfaceParameters, lambda_axis: &[f64], n_tr_axis: &[f64]) -> Option<Self> {
        // Same calibration validation as yields_for_slice: a bad (D, p)
        // makes every point infeasible, exactly like the scalar path.
        const PROBE_LAMBDA: Microns = Microns::const_new(1.0);
        let calibrated = matches!(params.dies_method, DiesPerWaferMethod::MalyEq4)
            && ScaledPoissonYield::new(params.defect_d, params.defect_p, PROBE_LAMBDA).is_ok();
        if !calibrated {
            return None;
        }
        let rows = lambda_axis
            .iter()
            .map(|&l| {
                let lambda = Microns::clamped(l);
                Eq1Row {
                    lambda,
                    wafer_cost: params.wafer_cost.wafer_cost(lambda),
                    // The eq. (7) effective density D/λ^p, negated so
                    // the per-point exponent is a single multiply.
                    neg_d_eff: -DefectDensity::clamped(
                        params.defect_d.value() / lambda.value().powf(params.defect_p),
                    )
                    .value(),
                }
            })
            .collect();
        let cols = n_tr_axis
            .iter()
            .map(|&n| TransistorCount::clamped(n))
            .collect();
        Some(Self {
            wafer: params.wafer,
            density: params.density,
            rows,
            cols,
        })
    }

    /// Batched eq. (1) over grid indices `(i, j)` into the row/column
    /// axes: die counts go through the shared eq. (4) memo in one
    /// batch, eq. (7) yields through one lane-`exp` pass over the
    /// hoisted `−D/λ^p · A` exponents, and the final combine runs in
    /// the same operation order as [`TransistorCostModel::evaluate`].
    ///
    /// Accuracy: die counts and the feasibility mask are integer-exact;
    /// yields carry the lane `exp`/`ln` contract of
    /// [`ScaledPoissonYield::yields_for_slice`] (relative error vs the
    /// scalar path ≈ `(1 + |ln Y|) · 1e-14`). Every element is computed
    /// independently, so any chunking of `indices` produces
    /// bit-identical values — thread counts and index orders cannot
    /// change results.
    fn eq1_for_slice(&self, indices: &[(usize, usize)]) -> Vec<Option<f64>> {
        EQ1_CELLS.add(indices.len() as u64);
        let dies: Vec<DieDimensions> = indices
            .iter()
            .map(|&(i, j)| {
                DieDimensions::square_with_area(crate::density::die_area(
                    self.cols[j],
                    self.density,
                    self.rows[i].lambda,
                ))
            })
            .collect();
        let counts = maly_wafer_geom::cache::dies_per_wafer_batch(&self.wafer, &dies);
        // Eq. (7) exponents ln Y = −D/λ^p · A over the *realized* die
        // areas (side², after the √ of square_with_area, exactly as
        // `evaluate` does), then one lane exp pass for the whole set.
        let mut yields: Vec<f64> = indices
            .iter()
            .zip(&dies)
            .map(|(&(i, _), die)| self.rows[i].neg_d_eff * die.area().value())
            .collect();
        maly_lanes::exp_slice(&mut yields);
        indices
            .iter()
            .enumerate()
            .map(|(k, &(i, j))| {
                let n_ch = counts[k];
                if n_ch.is_zero() {
                    return None;
                }
                let y = Probability::clamped(yields[k]).value();
                if y <= 0.0 {
                    return None;
                }
                // Same operation order as TransistorCostModel::evaluate.
                let good_dies = n_ch.as_f64() * y;
                let cost_per_good_die = self.rows[i].wafer_cost / good_dies;
                Some((cost_per_good_die / self.cols[j].value()).value())
            })
            .collect()
    }

    /// [`Eq1Kernel::eq1_for_slice`] tiled across a tuned executor.
    /// Chunks map back in index order and elements are independent, so
    /// the output is bit-identical at every thread count.
    fn eval_indices_with(&self, exec: &Executor, indices: &[(usize, usize)]) -> Vec<Option<f64>> {
        let exec = exec.tuned_for(indices.len(), CELL_EVAL_HINT_NS);
        if exec.threads() <= 1 {
            return self.eq1_for_slice(indices);
        }
        let chunk = indices.len().div_ceil(exec.threads());
        let chunks: Vec<&[(usize, usize)]> = indices.chunks(chunk).collect();
        exec.map(&chunks, |c| self.eq1_for_slice(c))
            .into_iter()
            .flatten()
            .collect()
    }
}

/// The lane-batched eq. (1) kernel over caller-supplied axis value
/// sets — the entry point for *externally planned* node sets.
/// `maly-model`'s batch planner unions the λ and `N_tr` axis values of
/// every cold tile in a query batch, evaluates each unique
/// `(λ, N_tr)` cell exactly once through this kernel, and scatters the
/// results back per tile.
///
/// Per-cell values depend only on the cell's own `(λ, N_tr)` pair —
/// never on which axes, tiles, or chunks surround it — so any tile
/// whose axis values appear bit-equal in these sets receives values
/// bit-identical to a direct [`CostSurface::compute_with`] over that
/// tile alone. That independence is what makes cross-request fusion
/// safe under the workspace's bit-identical-output contract.
pub struct PlannedEq1 {
    kernel: Eq1Kernel,
}

impl PlannedEq1 {
    /// Builds the kernel over explicit axis values (λ in µm, both axes
    /// positive). Returns `None` when the dies-per-wafer method has no
    /// batched eq. (4) kernel or the eq. (7) calibration is invalid;
    /// callers then fall back to [`CostSurface::compute_with`] per
    /// tile, exactly like the dense scan's scalar fallback.
    #[must_use]
    pub fn new(
        params: &SurfaceParameters,
        lambda_values: &[f64],
        n_tr_values: &[f64],
    ) -> Option<Self> {
        Eq1Kernel::new(params, lambda_values, n_tr_values).map(|kernel| Self { kernel })
    }

    /// Evaluates the given `(λ index, N_tr index)` cells across the
    /// executor; `None` marks infeasible cells (die too large, yield
    /// collapsed). Elements are independent, so the output is
    /// bit-identical at every thread count and under any chunking or
    /// ordering of `cells`.
    #[must_use]
    pub fn eval_cells_with(&self, exec: &Executor, cells: &[(usize, usize)]) -> Vec<Option<f64>> {
        self.kernel.eval_indices_with(exec, cells)
    }
}

/// The exact grid axes [`CostSurface::compute`] derives for these
/// ranges — λ linear, `N_tr` logarithmic — or `None` when a range is
/// degenerate (not ascending-positive, or fewer than 2 steps). The
/// planner keys its cell-level fusion on bit-equality of these values,
/// so they must come from the same arithmetic as the compute path; the
/// panicking contract stays with `compute`.
#[must_use]
pub fn grid_axes(
    lambda_range: (f64, f64, usize),
    n_tr_range: (f64, f64, usize),
) -> Option<(Vec<f64>, Vec<f64>)> {
    Some((
        lambda_axis_values(lambda_range)?,
        n_tr_axis_values(n_tr_range)?,
    ))
}

fn ascending_positive(lo: f64, hi: f64) -> bool {
    lo.is_finite() && hi.is_finite() && 0.0 < lo && lo < hi
}

/// The λ half of [`grid_axes`] alone — linear spacing, same validation.
/// Split out so a batch planner whose tiles repeat one axis range (the
/// usual sliding-window shape) can compute each distinct axis once; the
/// `N_tr` half's log spacing is the expensive one (one `exp` per
/// point).
#[must_use]
pub fn lambda_axis_values((min, max, steps): (f64, f64, usize)) -> Option<Vec<f64>> {
    if steps < 2 || !ascending_positive(min, max) {
        return None;
    }
    Some(linear_axis(min, max, steps))
}

/// The `N_tr` half of [`grid_axes`] alone — logarithmic spacing, same
/// validation.
#[must_use]
pub fn n_tr_axis_values((min, max, steps): (f64, f64, usize)) -> Option<Vec<f64>> {
    if steps < 2 || !ascending_positive(min, max) {
        return None;
    }
    Some(log_axis(min, max, steps))
}

/// Assembles a [`CostSurface`] from externally computed parts (the
/// planner's scatter path), or `None` when the value grid's shape does
/// not match the axes or an axis is shorter than 2 entries.
#[must_use]
pub fn surface_from_grid(
    lambda_axis: Vec<f64>,
    n_tr_axis: Vec<f64>,
    values: Vec<Vec<Option<f64>>>,
) -> Option<CostSurface> {
    if lambda_axis.len() < 2
        || n_tr_axis.len() < 2
        || values.len() != lambda_axis.len()
        || values.iter().any(|row| row.len() != n_tr_axis.len())
    {
        return None;
    }
    Some(CostSurface {
        lambda_axis,
        n_tr_axis,
        values,
    })
}

/// A computed cost surface: `values[i][j]` is `C_tr` at
/// `lambda_axis[i]`, `n_tr_axis[j]`, or `None` where evaluation failed
/// (die larger than the wafer, yield underflow).
#[derive(Debug, Clone, PartialEq)]
pub struct CostSurface {
    lambda_axis: Vec<f64>,
    n_tr_axis: Vec<f64>,
    values: Vec<Vec<Option<f64>>>,
}

impl CostSurface {
    /// Computes the surface on a `lambda_steps × n_tr_steps` grid.
    ///
    /// λ is swept linearly over `[lambda_min, lambda_max]`; `N_tr` is
    /// swept *logarithmically* over `[n_tr_min, n_tr_max]` (the paper's
    /// axis spans orders of magnitude).
    ///
    /// # Panics
    ///
    /// Panics if either range is not ascending-positive or a step count
    /// is below 2.
    #[must_use]
    pub fn compute(
        params: &SurfaceParameters,
        lambda_range: (f64, f64, usize),
        n_tr_range: (f64, f64, usize),
    ) -> Self {
        Self::compute_with(&Executor::from_env(), params, lambda_range, n_tr_range)
    }

    /// [`CostSurface::compute`] on an explicit executor. Grid cells are
    /// independent, so they are tiled across the executor's threads;
    /// the result is bit-identical at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if either range is not ascending-positive or a step count
    /// is below 2.
    #[must_use]
    pub fn compute_with(
        exec: &Executor,
        params: &SurfaceParameters,
        (lambda_min, lambda_max, lambda_steps): (f64, f64, usize),
        (n_tr_min, n_tr_max, n_tr_steps): (f64, f64, usize),
    ) -> Self {
        assert!(lambda_steps >= 2 && n_tr_steps >= 2, "grids need ≥ 2 steps");
        assert!(
            0.0 < lambda_min && lambda_min < lambda_max,
            "bad λ range {lambda_min}..{lambda_max}"
        );
        assert!(
            0.0 < n_tr_min && n_tr_min < n_tr_max,
            "bad N_tr range {n_tr_min}..{n_tr_max}"
        );
        let lambda_axis = linear_axis(lambda_min, lambda_max, lambda_steps);
        let n_tr_axis = log_axis(n_tr_min, n_tr_max, n_tr_steps);

        let values = if let Some(kernel) = Eq1Kernel::new(params, &lambda_axis, &n_tr_axis) {
            // The lane-batched path: every grid node through one kernel
            // dispatch.
            let indices: Vec<(usize, usize)> = (0..lambda_steps)
                .flat_map(|i| (0..n_tr_steps).map(move |j| (i, j)))
                .collect();
            let flat = kernel.eval_indices_with(exec, &indices);
            flat.chunks(n_tr_steps).map(<[_]>::to_vec).collect()
        } else {
            // Overhead-aware scheduling: small grids run serial, large
            // ones use at most as many threads as the workload
            // justifies.
            let exec = exec.tuned_for(lambda_steps * n_tr_steps, CELL_EVAL_HINT_NS);
            exec.grid(lambda_steps, n_tr_steps, |i, j| {
                // Grid points interpolate validated positive bounds.
                let lambda = Microns::clamped(lambda_axis[i]);
                let n_tr = TransistorCount::clamped(n_tr_axis[j]);
                params.cost_at(lambda, n_tr).ok().map(|d| d.value())
            })
        };

        Self {
            lambda_axis,
            n_tr_axis,
            values,
        }
    }

    /// The λ grid (µm).
    #[must_use]
    pub fn lambda_axis(&self) -> &[f64] {
        &self.lambda_axis
    }

    /// The N_tr grid.
    #[must_use]
    pub fn n_tr_axis(&self) -> &[f64] {
        &self.n_tr_axis
    }

    /// The cost values (dollars per transistor), `values[lambda][n_tr]`.
    #[must_use]
    pub fn values(&self) -> &[Vec<Option<f64>>] {
        &self.values
    }

    /// The cost-minimizing λ for each `N_tr` column: the paper's
    /// `λ^opt(N_tr)` locus. Entries are `None` when no λ in the grid
    /// could build the product at all.
    #[must_use]
    pub fn optimal_lambda_per_n_tr(&self) -> Vec<Option<(f64, f64)>> {
        self.optimal_lambda_per_n_tr_with(&Executor::from_env())
    }

    /// [`CostSurface::optimal_lambda_per_n_tr`] on an explicit executor:
    /// columns scan independently, each with the serial strict-`<`
    /// tie-break, so the locus is bit-identical at every thread count.
    #[must_use]
    pub fn optimal_lambda_per_n_tr_with(&self, exec: &Executor) -> Vec<Option<(f64, f64)>> {
        // A column scan is pure comparisons over computed values; the
        // hint keeps typical surfaces on the serial path (threads never
        // pay off below hundreds of thousands of cells).
        let exec = exec.tuned_for(
            self.n_tr_axis.len(),
            self.lambda_axis.len() as f64 * SCAN_HINT_NS,
        );
        exec.map_indexed(self.n_tr_axis.len(), |j| {
            let mut best: Option<(f64, f64)> = None;
            for (i, &l) in self.lambda_axis.iter().enumerate() {
                if let Some(c) = self.values[i][j] {
                    if best.is_none_or(|(_, bc)| c < bc) {
                        best = Some((l, c));
                    }
                }
            }
            best
        })
    }

    /// Global minimum `(λ, N_tr, cost)` over the grid, if any cell
    /// evaluated.
    #[must_use]
    pub fn global_minimum(&self) -> Option<(f64, f64, f64)> {
        let mut best: Option<(f64, f64, f64)> = None;
        for (i, row) in self.values.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                if let Some(c) = *cell {
                    if best.is_none_or(|(_, _, bc)| c < bc) {
                        best = Some((self.lambda_axis[i], self.n_tr_axis[j], c));
                    }
                }
            }
        }
        best
    }
}

/// The linearly spaced λ axis.
fn linear_axis(min: f64, max: f64, steps: usize) -> Vec<f64> {
    (0..steps)
        .map(|i| min + (max - min) * i as f64 / (steps - 1) as f64)
        .collect()
}

/// The log-spaced `N_tr` axis.
fn log_axis(min: f64, max: f64, steps: usize) -> Vec<f64> {
    let log_lo = min.ln();
    let log_hi = max.ln();
    (0..steps)
        .map(|j| (log_lo + (log_hi - log_lo) * j as f64 / (steps - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig8_surface() -> CostSurface {
        CostSurface::compute(
            &SurfaceParameters::fig8(),
            (0.3, 1.5, 25),
            (1.0e5, 2.0e7, 20),
        )
    }

    #[test]
    fn surface_axes_match_request() {
        let s = fig8_surface();
        assert_eq!(s.lambda_axis().len(), 25);
        assert_eq!(s.n_tr_axis().len(), 20);
        assert!((s.lambda_axis()[0] - 0.3).abs() < 1e-12);
        assert!((s.lambda_axis()[24] - 1.5).abs() < 1e-12);
        // Log-spaced N_tr: constant ratio between neighbors.
        let r1 = s.n_tr_axis()[1] / s.n_tr_axis()[0];
        let r2 = s.n_tr_axis()[11] / s.n_tr_axis()[10];
        assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    fn interior_optimum_exists_for_large_designs() {
        // Fig 8's message: for a multi-million-transistor die, neither the
        // largest nor the smallest λ in the window is optimal.
        let s = fig8_surface();
        let optima = s.optimal_lambda_per_n_tr();
        let j_large = s.n_tr_axis().len() - 1; // 2e7 transistors
        let (l_opt, _) = optima[j_large].expect("large design should be buildable somewhere");
        assert!(
            l_opt > s.lambda_axis()[0] && l_opt < s.lambda_axis()[24],
            "λ^opt {l_opt} should be interior"
        );
    }

    #[test]
    fn optimal_lambda_shrinks_with_design_size() {
        // Larger designs push λ^opt downward (they need the density), but
        // never to the window edge. Compare a small and a large design.
        let s = fig8_surface();
        let optima = s.optimal_lambda_per_n_tr();
        let small = optima[2].unwrap().0;
        let large = optima[s.n_tr_axis().len() - 1].unwrap().0;
        assert!(
            large <= small,
            "λ^opt should not grow with N_tr: {small} → {large}"
        );
    }

    #[test]
    fn costs_are_positive_where_defined() {
        let s = fig8_surface();
        let mut defined = 0;
        for row in s.values() {
            for cell in row.iter().flatten() {
                assert!(*cell > 0.0);
                defined += 1;
            }
        }
        assert!(defined > 100, "most of the grid should evaluate");
    }

    #[test]
    fn global_minimum_is_consistent_with_columns() {
        let s = fig8_surface();
        let (_, _, c_min) = s.global_minimum().unwrap();
        for col in s.optimal_lambda_per_n_tr().into_iter().flatten() {
            assert!(col.1 >= c_min - 1e-15);
        }
    }

    #[test]
    fn cost_at_fails_gracefully_for_monster_dies() {
        let p = SurfaceParameters::fig8();
        let err = p.cost_at(
            Microns::new(1.5).unwrap(),
            TransistorCount::new(5.0e9).unwrap(),
        );
        assert!(err.is_err());
    }

    #[test]
    #[should_panic(expected = "grids need")]
    fn compute_rejects_degenerate_grid() {
        let _ = CostSurface::compute(&SurfaceParameters::fig8(), (0.3, 1.5, 1), (1e5, 1e6, 5));
    }
}
