//! The benchmark's clock and its one stderr channel.
//!
//! Client-side timing is what a benchmark is for, so the raw clock
//! reads and diagnostics live here, in one place, each carrying the
//! lint's escape tag.

use std::time::Instant;

/// The current monotonic instant.
#[must_use]
pub fn now() -> Instant {
    // audit:allow(raw-timing): client-side timing is the benchmark's product.
    Instant::now()
}

/// Nanoseconds elapsed since `start`.
#[must_use]
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Prints a diagnostic to stderr; stdout is reserved for results.
pub fn warn(message: &str) {
    // audit:allow(raw-timing): user-facing error output, not timing.
    eprintln!("perfbench: {message}");
}
