//! The eq. (4) memo's hit/miss counters and `clear`.
//!
//! The counters are process-global, so this test is the only one in its
//! binary: no other test can bump or reset them between its steps.

use maly_units::Centimeters;
use maly_wafer_geom::cache::{clear, dies_per_wafer, stats};
use maly_wafer_geom::{DieDimensions, Wafer};

#[test]
fn stats_and_clear_work() {
    clear();
    let wafer = Wafer::six_inch();
    let die = DieDimensions::square(Centimeters::new(1.25).unwrap());
    let _ = dies_per_wafer(&wafer, die);
    let _ = dies_per_wafer(&wafer, die);
    let s = stats();
    assert!(s.misses >= 1);
    assert!(s.hits >= 1);
    assert!(s.hit_rate() > 0.0 && s.hit_rate() < 1.0);
    clear();
    let s = stats();
    assert_eq!(s.hits + s.misses, 0);
    assert_eq!(s.hit_rate(), 0.0);
}
