//! Fig 8 — constant-cost contours over `(λ × N_tr)`.

use maly_cost_model::surface::{CostSurface, SurfaceParameters};
use maly_cost_optim::contour::extract_contours;
use maly_units::Microns;
use maly_viz::contourplot::{render_contours, ContourSet};
use maly_viz::scale::Scale;
use maly_viz::table::{Alignment, TextTable};

use crate::context;
use crate::ExperimentReport;

/// Regenerates Fig 8: the cost surface with the paper's fab calibration
/// (X = 1.4, C₀ = \$500, d_d = 152, D = 1.72, p = 4.07), its
/// constant-cost contours, and the `λ^opt(N_tr)` locus.
#[must_use]
pub fn report() -> ExperimentReport {
    // The surface window focuses on the economically sane region
    // (yields above ~1e-4); the paper's axes likewise span where
    // products are viable. It is the harness's most expensive artifact,
    // so it lives in the shared context and is computed once.
    let params = context::shared().fig8_params;
    let surface = &context::shared().fig8_surface;

    // Contour levels in µ$ per transistor.
    let levels_micro = [3.0, 10.0, 30.0, 100.0, 300.0];
    let levels: Vec<f64> = levels_micro.iter().map(|m| m * 1.0e-6).collect();
    let contours = extract_contours(surface, &levels);
    let sets: Vec<ContourSet> = contours
        .iter()
        .zip(&levels_micro)
        .map(|(c, m)| ContourSet {
            label: format!("{m} µ$"),
            segments: c.segments.clone(),
        })
        .collect();

    let plot = render_contours(
        "Fig 8: constant C_tr contours over (λ × N_tr)",
        &sets,
        Scale::Linear { min: 0.4, max: 1.5 },
        Scale::Log {
            min: 2.0e4,
            max: 4.0e6,
        },
        78,
        26,
    );

    // λ^opt per design size.
    let mut table = TextTable::new(vec!["N_tr", "λ^opt [µm]", "C_tr at λ^opt [µ$]"]);
    table.align(1, Alignment::Right);
    table.align(2, Alignment::Right);
    let optima = surface.optimal_lambda_per_n_tr();
    for (j, n) in surface.n_tr_axis().iter().enumerate().step_by(8) {
        if let Some((lambda, cost)) = optima[j] {
            table.row(vec![
                format!("{:.0}k", n / 1e3),
                format!("{lambda:.2}"),
                format!("{:.2}", cost * 1e6),
            ]);
        }
    }

    // Demonstrate local optima along one slice.
    let n_probe = maly_units::TransistorCount::new(1.0e6).expect("positive");
    let slice: Vec<(f64, f64)> = (0..80)
        .filter_map(|i| {
            let l = 0.5 + i as f64 / 79.0;
            params
                .cost_at(Microns::new(l).expect("positive"), n_probe)
                .ok()
                .map(|c| (l, c.to_micro_dollars().value()))
        })
        .collect();
    let minima = count_local_minima(&slice);

    // The serve-path analogue: a client sweeping this surface tile by
    // tile sends overlapping windows in one batch, and the evaluation
    // planner fuses their shared grid nodes into a single kernel
    // dispatch. Run the 4-tile acceptance batch on a fresh context and
    // report the plan counters — the same numbers the fusion goldens
    // gate on.
    let plan_note = fused_batch_demo();

    let body = format!(
        "```text\n{plot}\n```\n\nOptimal feature size per design size \
         (the \"different λ^opt for each die size\" observation):\n\n{}\n\n\
         Along the N_tr = 1 M slice the cost curve has {minima} local \
         minima (the dies-per-wafer floor() injects ripples — the paper's \
         \"number of local optima\"). The optimum never sits at the \
         smallest λ: the `D/λ^p` defect acceleration forbids deep shrinks \
         at this calibration.\n\n{plan_note}\n",
        table.render(),
    );
    ExperimentReport {
        id: "fig8",
        title: "Cost contours and feature-size optima",
        body,
    }
}

/// Routes a 4-tile overlapping surface batch through the planned
/// [`maly_model::Query::evaluate_batch`] path and summarizes the
/// `plan.*` counter deltas.
fn fused_batch_demo() -> String {
    use maly_model::{plan, EvalContext, Query};
    let batch: Vec<Query> = [0.5, 0.625, 0.75, 0.875]
        .iter()
        .map(|&lo| Query::SurfaceTile {
            lambda_min: lo,
            lambda_max: lo + 0.5,
            lambda_steps: 9,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 24,
        })
        .collect();
    let requested0 = plan::NODES_REQUESTED.value();
    let evaluated0 = plan::NODES_EVALUATED.value();
    let answered =
        Query::evaluate_batch(&maly_par::Executor::serial(), &EvalContext::new(), &batch)
            .iter()
            .filter(|r| r.is_ok())
            .count();
    let requested = plan::NODES_REQUESTED.value() - requested0;
    let evaluated = plan::NODES_EVALUATED.value() - evaluated0;
    format!(
        "Batched tile queries: a 4-window overlapping sweep ({answered} \
         tiles answered) compiled to an evaluation plan — {requested} \
         grid nodes requested, {evaluated} evaluated after \
         cross-request fusion ({:.0}% of the per-query work; the rest \
         answered from shared nodes).",
        100.0 * evaluated as f64 / requested.max(1) as f64,
    )
}

/// The Fig 8 surface as long-form CSV (`lambda_um, n_tr, ctr_usd`),
/// skipping infeasible cells.
#[must_use]
pub fn surface_csv() -> String {
    let surface = CostSurface::compute(
        &SurfaceParameters::fig8(),
        (0.4, 1.5, 45),
        (2.0e4, 4.0e6, 40),
    );
    let mut rows = Vec::new();
    for (i, &l) in surface.lambda_axis().iter().enumerate() {
        for (j, &n) in surface.n_tr_axis().iter().enumerate() {
            if let Some(c) = surface.values()[i][j] {
                rows.push(vec![format!("{l}"), format!("{n}"), format!("{c}")]);
            }
        }
    }
    maly_viz::csv::to_csv(&["lambda_um", "n_tr", "ctr_usd"], &rows)
}

/// Counts strict local minima of a sampled curve.
fn count_local_minima(series: &[(f64, f64)]) -> usize {
    series
        .windows(3)
        .filter(|w| w[1].1 < w[0].1 && w[1].1 < w[2].1)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_csv_covers_most_of_the_grid() {
        let csv = surface_csv();
        let data_rows = csv.lines().count() - 1;
        assert!(data_rows > 45 * 40 / 2, "only {data_rows} feasible cells");
        let first = csv.lines().nth(1).unwrap();
        assert_eq!(first.split(',').count(), 3);
    }

    #[test]
    fn contours_and_optima_are_reported() {
        let r = report();
        assert!(r.body.contains("λ^opt"));
        assert!(r.body.contains("local"));
        assert!(r.body.contains("Batched tile queries"));
    }

    #[test]
    fn slice_has_multiple_local_minima() {
        let params = SurfaceParameters::fig8();
        let n = maly_units::TransistorCount::new(1.0e6).unwrap();
        let slice: Vec<(f64, f64)> = (0..200)
            .filter_map(|i| {
                let l = 0.5 + i as f64 / 199.0;
                params
                    .cost_at(Microns::new(l).unwrap(), n)
                    .ok()
                    .map(|c| (l, c.value()))
            })
            .collect();
        assert!(count_local_minima(&slice) >= 2);
    }
}
