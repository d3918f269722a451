//! Enforces the maly-obs determinism contract with observability ON:
//!
//! * golden outputs (dense Fig 8 surface, Monte Carlo report) stay
//!   bit-identical at 1 / 2 / 8 threads while spans and counters are
//!   being collected;
//! * Work-kind counter totals are thread-count-invariant — they count
//!   model evaluations fixed by the configuration, not scheduling;
//! * the recorded span tree is well-formed: every parent id was
//!   actually recorded.
//!
//! A single `#[test]` owns the whole sequence because the obs enabled
//! flag, counter registry, and span list are process-global.

use maly_cost_model::surface::{CostSurface, SurfaceParameters};
use maly_fabline_sim::cost::FabEconomics;
use maly_fabline_sim::mc::{run_with, McConfig, McReport};
use maly_fabline_sim::process::ProcessFlow;
use maly_obs::CounterKind;
use maly_par::Executor;

const WINDOW: ((f64, f64, usize), (f64, f64, usize)) = ((0.4, 1.5, 32), (2.0e4, 4.0e6, 24));

/// One traced run at a given thread count: dense surface + MC study.
fn traced_run(threads: usize) -> (CostSurface, McReport, Vec<(&'static str, u64)>) {
    maly_obs::reset_metrics();
    let exec = Executor::with_threads(threads);
    let surface = CostSurface::compute_with(&exec, &SurfaceParameters::fig8(), WINDOW.0, WINDOW.1);
    let economics = FabEconomics::default();
    let demand = vec![
        (ProcessFlow::for_generation("cmos-0.8", 0.8), 20_000.0),
        (ProcessFlow::for_generation("cmos-1.2", 1.2), 5_000.0),
    ];
    let config = McConfig {
        replications: 64,
        ..McConfig::default()
    };
    let report = run_with(&exec, &economics, &demand, &config).expect("valid MC config");
    // counters_snapshot() is name-sorted, so the Work subset compares
    // positionally across runs.
    let work: Vec<(&'static str, u64)> = maly_obs::counters_snapshot()
        .into_iter()
        .filter(|c| c.kind == CounterKind::Work)
        .map(|c| (c.name, c.value))
        .collect();
    (surface, report, work)
}

#[test]
fn traced_runs_are_bit_identical_across_thread_counts() {
    maly_obs::set_enabled(true);
    let (surface_1, report_1, work_1) = traced_run(1);
    assert!(
        work_1
            .iter()
            .any(|(name, v)| *name == "mc.replications" && *v == 64),
        "expected mc.replications = 64 in {work_1:?}"
    );
    assert!(
        work_1
            .iter()
            .any(|(name, v)| *name == "eq1.cells" && *v > 0),
        "expected eq1.cells work in {work_1:?}"
    );
    for threads in [2usize, 8] {
        let (surface_t, report_t, work_t) = traced_run(threads);
        assert_eq!(surface_1, surface_t, "surface differs at {threads} threads");
        assert_eq!(report_1, report_t, "MC report differs at {threads} threads");
        assert_eq!(
            work_1, work_t,
            "Work counter totals differ at {threads} threads"
        );
    }

    // The span tree recorded along the way must reference only spans
    // that were themselves recorded (completion order writes children
    // before parents, so collect ids first).
    let spans = maly_obs::finished_spans();
    assert!(!spans.is_empty(), "traced runs must record spans");
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    for span in &spans {
        if let Some(parent) = span.parent {
            assert!(
                ids.contains(&parent),
                "span {} has unrecorded parent",
                span.id
            );
        }
        assert!(span.start_ns <= span.end_ns);
    }

    // And the export of all this is line-parseable ndjson.
    let export = maly_obs::export_ndjson();
    for line in export.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"type\":"),
            "bad export line: {line}"
        );
    }
    maly_obs::set_enabled(false);
}
