//! The steering-loop benchmark: four workloads over the repository's public
//! entry points, each reported as named end-to-end and per-layer metrics,
//! with the steering decisions checked against a recorded reference and
//! across execution paths.

pub mod digest;
pub mod episode;
pub mod reference;
pub mod run;
pub mod spec;
pub mod trace;
