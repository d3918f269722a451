//! Golden determinism tests: the parallel executor must reproduce the
//! serial path **bit for bit** on every sweep entry point, at every
//! thread count. `MALY_PAR_THREADS` is deliberately not touched here —
//! env vars are process-global and tests run concurrently — so each
//! case pins its executor with `Executor::with_threads`, which is the
//! same code path `from_env` configures.

use maly_cost_model::surface::{CostSurface, SurfaceParameters};
use maly_cost_model::system::{ManufacturingContext, Partition, SystemDesign};
use maly_cost_model::WaferCostModel;
use maly_cost_optim::contour::extract_contours_with;
use maly_cost_optim::partition::optimize_with;
use maly_cost_optim::search::{grid_min_with, optimal_feature_size_with};
use maly_par::Executor;
use maly_units::{Centimeters, DesignDensity, Dollars, Microns, Probability, TransistorCount};
use maly_wafer_geom::Wafer;

/// The thread counts the issue pins: serial fallback, a small pool, and
/// a pool larger than any grid chunk boundary (also larger than this
/// machine's core count — oversubscription must not change results).
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn fig8_surface(exec: &Executor) -> CostSurface {
    CostSurface::compute_with(
        exec,
        &SurfaceParameters::fig8(),
        (0.4, 1.5, 40),
        (2.0e4, 4.0e6, 32),
    )
}

#[test]
fn fig8_surface_is_bit_identical_across_thread_counts() {
    let serial = fig8_surface(&Executor::with_threads(1));
    for threads in THREAD_COUNTS {
        let parallel = fig8_surface(&Executor::with_threads(threads));
        // PartialEq on CostSurface compares every f64 cell exactly.
        assert_eq!(serial, parallel, "threads = {threads}");
    }
}

#[test]
fn optimal_lambda_locus_is_bit_identical() {
    let surface = fig8_surface(&Executor::with_threads(2));
    let serial = surface.optimal_lambda_per_n_tr_with(&Executor::with_threads(1));
    for threads in THREAD_COUNTS {
        let parallel = surface.optimal_lambda_per_n_tr_with(&Executor::with_threads(threads));
        assert_eq!(serial, parallel, "threads = {threads}");
    }
}

#[test]
fn contour_segments_are_bit_identical() {
    let surface = fig8_surface(&Executor::with_threads(1));
    let levels = [3.0e-6, 10.0e-6, 30.0e-6, 100.0e-6];
    let serial = extract_contours_with(&Executor::with_threads(1), &surface, &levels);
    assert!(
        serial.iter().any(|c| !c.is_empty()),
        "test levels must actually cross the surface"
    );
    for threads in THREAD_COUNTS {
        let parallel = extract_contours_with(&Executor::with_threads(threads), &surface, &levels);
        // Segment ORDER matters: the parallel pass must concatenate
        // row strips exactly as the serial double loop visits them.
        assert_eq!(serial, parallel, "threads = {threads}");
    }
}

#[test]
fn partition_search_is_bit_identical() {
    let system = SystemDesign::new(vec![
        Partition::new(
            "dram",
            TransistorCount::new(4.0e6).unwrap(),
            DesignDensity::new(35.0).unwrap(),
        ),
        Partition::new(
            "logic",
            TransistorCount::new(0.8e6).unwrap(),
            DesignDensity::new(300.0).unwrap(),
        ),
        Partition::new(
            "io",
            TransistorCount::new(0.1e6).unwrap(),
            DesignDensity::new(600.0).unwrap(),
        ),
        Partition::new(
            "analog",
            TransistorCount::new(0.2e6).unwrap(),
            DesignDensity::new(450.0).unwrap(),
        ),
    ])
    .unwrap();
    let context = ManufacturingContext {
        wafer: Wafer::six_inch(),
        reference_yield: Probability::new(0.7).unwrap(),
        wafer_cost: WaferCostModel::new(Dollars::new(700.0).unwrap(), 1.8).unwrap(),
        per_die_overhead: Dollars::new(5.0).unwrap(),
    };
    let ladder: Vec<Microns> = [1.0, 0.8, 0.65, 0.5]
        .iter()
        .map(|&l| Microns::new(l).unwrap())
        .collect();

    let serial = optimize_with(&Executor::with_threads(1), &system, &context, &ladder).unwrap();
    for threads in THREAD_COUNTS {
        let parallel =
            optimize_with(&Executor::with_threads(threads), &system, &context, &ladder).unwrap();
        assert_eq!(serial, parallel, "threads = {threads}");
    }
}

#[test]
fn grid_min_keeps_the_serial_tie_break() {
    // A floor-riddled function with many exactly-equal minima: the
    // earliest grid point must win at every thread count.
    let f = |x: f64| (x * 3.0).floor();
    let serial = grid_min_with(&Executor::with_threads(1), f, 0.0, 4.0, 601);
    for threads in THREAD_COUNTS {
        let parallel = grid_min_with(&Executor::with_threads(threads), f, 0.0, 4.0, 601);
        assert_eq!(
            serial.0.to_bits(),
            parallel.0.to_bits(),
            "threads = {threads}"
        );
        assert_eq!(
            serial.1.to_bits(),
            parallel.1.to_bits(),
            "threads = {threads}"
        );
    }
}

#[test]
fn optimal_feature_size_is_bit_identical() {
    let scenario = maly_cost_model::product::ProductScenario::builder("determinism")
        .transistors(TransistorCount::new(3.1e6).unwrap())
        .feature_size(Microns::new(0.8).unwrap())
        .design_density(DesignDensity::new(150.0).unwrap())
        .wafer_radius(Centimeters::new(7.5).unwrap())
        .reference_yield(Probability::new(0.7).unwrap())
        .reference_wafer_cost(Dollars::new(700.0).unwrap())
        .cost_escalation(1.8)
        .unwrap()
        .build()
        .unwrap();
    let serial = optimal_feature_size_with(&Executor::with_threads(1), &scenario, 0.3, 1.5, 241)
        .unwrap()
        .unwrap();
    for threads in THREAD_COUNTS {
        let parallel =
            optimal_feature_size_with(&Executor::with_threads(threads), &scenario, 0.3, 1.5, 241)
                .unwrap()
                .unwrap();
        assert_eq!(serial.0, parallel.0, "threads = {threads}");
        assert_eq!(
            serial.1.to_bits(),
            parallel.1.to_bits(),
            "threads = {threads}"
        );
    }
}
