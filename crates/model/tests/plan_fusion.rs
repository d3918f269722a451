//! The batch planner's two contracts, checked from counters and bytes:
//!
//! * **Fusion saves real work.** On a 4-tile overlapping surface batch
//!   the eq. (1) cell counter drops ≥ 40% vs the unplanned path, and
//!   `plan.nodes_evaluated` stays under 0.6× `plan.nodes_requested` —
//!   the ISSUE 8 acceptance numbers, proven from Work counters rather
//!   than wall clock.
//! * **Fusion changes no bytes.** Randomized batches (overlapping
//!   tiles, float-noise near-duplicates, exact duplicates, non-tile
//!   queries) answer bit-identically to sequential per-query
//!   evaluation, at 1, 2, and 8 executor threads.
//!
//! The workspace builds offline with no external crates, so the
//! property runs over deterministic SplitMix64 samples.

use std::sync::{Mutex, MutexGuard, PoisonError};

use maly_cost_model::surface::EQ1_CELLS;
use maly_model::plan;
use maly_model::query::ProductSpec;
use maly_model::{EvalContext, Query};
use maly_par::Executor;

/// Counters are process-global; serialize the tests in this binary.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Four λ windows sliding by half a window over a shared `N_tr` range.
/// The endpoints are dyadic rationals, so the 9-step linear axes land
/// on bit-identical λ = k/16 grid values: 36 requested rows collapse
/// to 15 unique, and 4·9·24 = 864 requested cells to 15·24 = 360.
fn overlapping_tiles() -> Vec<Query> {
    [0.5, 0.625, 0.75, 0.875]
        .iter()
        .map(|&lo| Query::SurfaceTile {
            lambda_min: lo,
            lambda_max: lo + 0.5,
            lambda_steps: 9,
            n_tr_min: 2.0e4,
            n_tr_max: 4.0e6,
            n_tr_steps: 24,
        })
        .collect()
}

fn response_bytes(r: &Result<maly_model::QueryResponse, maly_model::Error>) -> String {
    match r {
        Ok(resp) => resp.to_json().write(),
        Err(e) => format!("err:{e:?}"),
    }
}

#[test]
fn fused_batch_saves_over_40_percent_of_eq1_work() {
    let _guard = lock();
    // Building the process-wide context computes the 56×48 Fig 8
    // report surface; force it now so deltas below see only the batch.
    let _ = maly_model::shared();
    let batch = overlapping_tiles();
    let exec = Executor::serial();

    let cells0 = EQ1_CELLS.value();
    let unplanned = Query::evaluate_batch_unplanned(&exec, &EvalContext::new(), &batch);
    let unplanned_cells = EQ1_CELLS.value() - cells0;
    assert_eq!(unplanned_cells, 864, "4 cold tiles of 9×24 cells each");

    let cells1 = EQ1_CELLS.value();
    let (req0, eval0, disp0) = (
        plan::NODES_REQUESTED.value(),
        plan::NODES_EVALUATED.value(),
        plan::FUSED_DISPATCHES.value(),
    );
    let planned = Query::evaluate_batch(&exec, &EvalContext::new(), &batch);
    let planned_cells = EQ1_CELLS.value() - cells1;
    let requested = plan::NODES_REQUESTED.value() - req0;
    let evaluated = plan::NODES_EVALUATED.value() - eval0;

    assert_eq!(requested, 864);
    assert_eq!(evaluated, 360, "15 unique λ rows × 24 shared N_tr values");
    assert_eq!(planned_cells, 360, "the kernel ran exactly the plan");
    assert_eq!(plan::FUSED_DISPATCHES.value() - disp0, 1, "one dispatch");
    assert!(
        (evaluated as f64) < 0.6 * (requested as f64),
        "acceptance: nodes_evaluated {evaluated} must be < 0.6 × {requested}"
    );
    assert!(
        (planned_cells as f64) <= 0.6 * (unplanned_cells as f64),
        "eq1 work must drop ≥ 40%: {planned_cells} vs {unplanned_cells}"
    );

    assert_eq!(planned.len(), unplanned.len());
    for (p, u) in planned.iter().zip(&unplanned) {
        assert_eq!(response_bytes(p), response_bytes(u), "fusion changed bytes");
    }
}

/// Deterministic uniform sampler (SplitMix64).
struct Sampler(u64);

impl Sampler {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + (hi - lo) * u
    }
}

fn random_query(s: &mut Sampler) -> Query {
    match s.below(6) {
        0 | 1 => {
            // Overlapping dyadic windows — the fusion-friendly case.
            let lo = 0.5 + 0.125 * s.below(4) as f64;
            Query::SurfaceTile {
                lambda_min: lo,
                lambda_max: lo + 0.5,
                lambda_steps: 5 + 2 * s.below(3) as usize,
                n_tr_min: 2.0e4,
                n_tr_max: 4.0e6,
                n_tr_steps: 8,
            }
        }
        2 => {
            // Arbitrary window, sometimes shifted by float noise (a
            // distinct cache key).
            let lo = s.uniform(0.45, 0.9);
            let noise = if s.below(2) == 0 { 1.0e-10 } else { 0.0 };
            Query::SurfaceTile {
                lambda_min: lo + noise,
                lambda_max: lo + 0.4,
                lambda_steps: 6,
                n_tr_min: 1.0e5,
                n_tr_max: 2.0e6,
                n_tr_steps: 7,
            }
        }
        3 => Query::Product(ProductSpec {
            name: "prop".to_string(),
            transistors: s.uniform(1.0e5, 5.0e6),
            lambda_um: s.uniform(0.5, 1.2),
            density: 150.0,
            radius_cm: 7.5,
            yield0: 0.9,
            c0: 700.0,
            x: 1.4,
        }),
        4 => Query::Table3Row {
            id: 1 + s.below(17) as u8,
        },
        _ => Query::Scenario1Sweep {
            x: 1.4,
            lambda_min: 0.4,
            lambda_max: 1.0,
            steps: 5 + s.below(4) as usize,
        },
    }
}

#[test]
fn planned_batches_match_sequential_evaluation_at_1_2_8_threads() {
    let _guard = lock();
    let mut s = Sampler(0x5EED_0F00D);
    for round in 0..6u32 {
        let mut batch: Vec<Query> = (0..8).map(|_| random_query(&mut s)).collect();
        // Exact duplicates: copy a few batch-mates verbatim.
        for _ in 0..3 {
            let src = s.below(batch.len() as u64) as usize;
            batch.push(batch[src].clone());
        }
        // Reference: sequential left-to-right per-query evaluation on
        // one shared fresh context — what a naive client would do.
        let serial = Executor::serial();
        let ref_ctx = EvalContext::new();
        let reference: Vec<String> = batch
            .iter()
            .map(|q| response_bytes(&q.evaluate_with(&serial, &ref_ctx)))
            .collect();
        for threads in [1usize, 2, 8] {
            let got = Query::evaluate_batch(
                &Executor::with_threads(threads),
                &EvalContext::new(),
                &batch,
            );
            assert_eq!(got.len(), batch.len());
            for (i, r) in got.iter().enumerate() {
                assert_eq!(
                    response_bytes(r),
                    reference[i],
                    "round {round}, {threads} threads, slot {i}: {:?}",
                    batch[i]
                );
            }
        }
    }
}
