//! `maly-model` — the unified typed query API over the Maly cost model.
//!
//! This crate is the sanctioned entry point for asking the workspace
//! questions. It owns five things:
//!
//! * [`query`] — the [`Query`]/[`QueryResponse`] pair: every evaluation
//!   the paper reproduction supports (Table 3 products, Scenario #1/#2
//!   sweeps, Fig 8 surface tiles, optimal-λ searches, Monte Carlo yield
//!   studies, the calendar roadmap, product-mix economics) as one typed
//!   request/response enum with deterministic JSON round-trips. The
//!   wire codec and the planner's dedup key are generated from one
//!   declarative table of variants and fields (the private `wire`
//!   module holds its `Field` trait and macros).
//! * [`context`] — the process-wide [`SharedContext`] of derived
//!   artifacts (moved here from `maly-repro`) plus the [`EvalContext`]
//!   surface-tile cache that makes warm repeat queries measurably
//!   cheaper (asserted via obs Work counters, not wall clock).
//! * [`plan`] — the evaluation-plan IR behind [`Query::evaluate_batch`]:
//!   a batch compiles to deduplicated queries plus unique grid nodes,
//!   and cold surface-tile nodes across *all* requests fuse into one
//!   lane-batched kernel dispatch, bit-identical by contract to
//!   evaluating each query on its own.
//! * [`error`] — the consolidated [`Error`] type with `From` impls for
//!   every subsystem failure, mapped to stable wire `kind` tags.
//! * [`json`] — a std-only, deterministic, line-oriented JSON value
//!   type shared by the query API and the serve wire protocol.
//!
//! Consumers (the CLI, the repro harness, benches, and `maly-serve`)
//! go through [`Query::evaluate_with`] rather than wiring themselves to
//! individual model crates; results are bit-identical at every executor
//! width by the `maly-par` contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod error;
pub mod json;
pub mod plan;
pub(crate) mod planner;
pub mod query;
mod wire;

pub use context::{shared, EvalContext, SharedContext, FIG8_LAMBDA_RANGE, FIG8_N_TR_RANGE};
pub use error::Error;
pub use json::Json;
pub use query::{Query, QueryResponse};
