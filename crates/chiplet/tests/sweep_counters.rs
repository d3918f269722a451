//! The partition sweep's work counters.
//!
//! `PARTITIONS` and `DIE_POINTS` are process-global, so this test is the
//! only one in its binary: no other sweep can bump them between its
//! reads.

use maly_chiplet::{ChipletParameters, SweepSpec, DIE_POINTS, PARTITIONS};
use maly_par::Executor;
use maly_units::{Microns, TransistorCount};

#[test]
fn sweep_counters_track_grid_size() {
    let params = ChipletParameters::fig8_mcm();
    let spec = SweepSpec {
        system_transistors: TransistorCount::new(2.0e6).unwrap(),
        volume: 50_000,
        lambda_min: Microns::new(0.5).unwrap(),
        lambda_max: Microns::new(1.2).unwrap(),
        lambda_steps: 5,
        max_chiplets: 3,
        max_spares: 1,
    };
    let partitions0 = PARTITIONS.value();
    let die_points0 = DIE_POINTS.value();
    params.sweep(&spec, &Executor::serial()).unwrap();
    assert_eq!(PARTITIONS.value() - partitions0, 5 * 3 * 2);
    assert_eq!(DIE_POINTS.value() - die_points0, 5 * 3);
}
