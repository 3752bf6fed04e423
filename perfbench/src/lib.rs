//! The RRM serving simulator's benchmark: four workloads that time
//! calls into the repository's public layers from outside, check their
//! outputs, and report end-to-end metrics (untraced) or per-layer
//! metrics (traced). See `README.md` in this directory.

pub mod burst;
pub mod calib;
pub mod city;
pub mod hardened;
pub mod layers;
pub mod measure;
pub mod sweep;
pub mod trace;
pub mod workload;

use trace::Tracer;
use workload::{Ctx, RunResult};

/// Runs workload `name` (one of [`workload::WORKLOADS`]); `None` for an
/// unknown name.
pub fn run_workload(name: &str, ctx: &Ctx, tr: &mut Tracer) -> Option<RunResult> {
    Some(match name {
        "city" => city::run(ctx, tr),
        "policy_burst" => burst::run(ctx, tr),
        "paper_sweep" => sweep::run(ctx, tr),
        "hardened_serving" => hardened::run(ctx, tr),
        _ => return None,
    })
}
