//! `maly-perfbench` — the repository's end-to-end benchmark.
//!
//! One command runs a named workload with a given seed for a given
//! time, checks every output, and prints each metric by name with its
//! unit, then one JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_point --seed 1 --seconds 36 --trace 0
//! ```
//!
//! A run is a sequence of *rounds*. Each round is a fresh child process
//! that sets up (server bind, shared-context build, first answer,
//! warm-up checks), runs a fixed op sequence, re-checks a seeded sample of its
//! outputs and reports. `--trace 1` alternates untraced rounds with
//! `MALY_OBS=1` rounds and reports the per-layer breakdown. See
//! `perfbench/README.md` for the workloads and the metric table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod report;
pub mod round;
pub mod runner;
pub mod stats;
pub mod workload;
