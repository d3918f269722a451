//! The bounded eq. (4) memo holds the largest working set a committed
//! bench repeats: the dense 112×96 Fig 8 surface, 10,752 dies.
//!
//! The memo and its counters are process-global, so this test is the
//! only one in its binary.

use maly_cost_model::surface::{CostSurface, SurfaceParameters};
use maly_par::Executor;
use maly_wafer_geom::cache;

#[test]
fn dense_fig8_surface_is_all_hits_the_second_time() {
    const DIES: u64 = 112 * 96;
    let compute = || {
        CostSurface::compute_with(
            &Executor::serial(),
            &SurfaceParameters::fig8(),
            (0.4, 1.5, 112),
            (2.0e4, 4.0e6, 96),
        )
    };
    cache::clear();
    assert_eq!(cache::stats().entries, 0);

    let cold = compute();
    let after_cold = cache::stats();
    assert_eq!(after_cold.hits + after_cold.misses, DIES);
    // Every miss was stored and none was evicted.
    assert_eq!(after_cold.entries as u64, after_cold.misses);

    let warm = compute();
    let after_warm = cache::stats();
    assert_eq!(
        after_warm.misses, after_cold.misses,
        "the second pass missed"
    );
    assert_eq!(after_warm.hits - after_cold.hits, DIES);
    assert_eq!(after_warm.entries, after_cold.entries);
    assert_eq!(cold, warm);
}
