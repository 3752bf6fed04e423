//! Determinism self-test: at a short length, every virtual and simulated
//! metric, plus the `front.*` and `guard.*` counts, must be identical
//! across two runs and across pool widths 1 and the host's parallelism
//! (at least 2). Outputs must check clean in every run.
//!
//! Run with `cargo test --release` from this directory.

use perfbench::layers::per_layer;
use perfbench::run_workload;
use perfbench::trace::Tracer;
use perfbench::workload::{Ctx, WORKLOADS};

/// The deterministic fingerprint of one short run: the workload's
/// virtual/simulated quantities plus, from a traced run, every
/// `front.*` and `guard.*` per-layer count.
fn fingerprint(workload: &str, workers: usize) -> Vec<(String, f64)> {
    let ctx = Ctx {
        seed: 5,
        seconds: 0.0,
        workers,
        setups: 1,
        short: true,
    };
    let mut tr = Tracer::new(true);
    let res = run_workload(workload, &ctx, &mut tr).expect("known workload");
    assert_eq!(
        res.failed, 0,
        "{workload} at {workers} workers: output check failed"
    );
    assert!(res.attempted > 0 && res.checked > 0);
    let mut out: Vec<(String, f64)> = res
        .deterministic
        .iter()
        .map(|&(k, v)| (k.to_string(), v as f64))
        .collect();
    for m in [
        ("goodput_ppm", res.goodput_ppm as f64),
        ("latency_p50_cycles", res.latency.p50() as f64),
        ("latency_p99_cycles", res.latency.p99() as f64),
        ("latency_p999_cycles", res.latency.p999() as f64),
        ("sim_cycles", res.sim_cycles as f64),
        ("cluster_latency_cycles", res.cluster_latency_cycles as f64),
    ] {
        out.push((m.0.to_string(), m.1));
    }
    let data = tr.finish(Vec::new());
    for m in per_layer(&data) {
        let counted = m.name.starts_with("front.") && m.name != "front.serve_ns";
        if counted || m.name.starts_with("guard.") {
            out.push((m.name.to_string(), m.value));
        }
    }
    out
}

#[test]
fn deterministic_metrics_repeat_across_runs_and_pool_widths() {
    let wide = std::thread::available_parallelism().map_or(2, |p| p.get().max(2));
    for workload in WORKLOADS {
        let first = fingerprint(workload, 1);
        assert_eq!(first, fingerprint(workload, 1), "{workload}: rerun differs");
        assert_eq!(
            first,
            fingerprint(workload, wide),
            "{workload}: width {wide} differs"
        );
    }
}

#[test]
fn city_counts_front_activity() {
    let print = fingerprint("city", 1);
    let get = |k: &str| print.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    assert!(get("front.batches").unwrap() > 0.0);
    assert!(get("offered").unwrap() > 0.0);
}

#[test]
fn hardened_serving_counts_guard_activity() {
    let print = fingerprint("hardened_serving", 1);
    let get = |k: &str| print.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    assert!(get("guard.entries").unwrap() > 0.0);
    assert!(get("flips").unwrap() > 0.0);
}
