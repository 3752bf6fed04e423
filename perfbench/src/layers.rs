//! Per-layer metrics and the traced-run summary, computed from a
//! [`TraceData`] alone, so the same numbers come out of a live traced
//! run and of a span file read back later.

use crate::measure::{mean, median, percentile, Metric};
use crate::trace::TraceData;
use std::fmt::Write as _;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("compile.ns_total", "ns"),
    ("compile.count", "count"),
    ("engine.build_ns_p50", "ns"),
    ("engine.image_bytes", "bytes"),
    ("engine.run_ns_p50", "ns"),
    ("engine.run_ns_p99", "ns"),
    ("engine.sim_ns_p50", "ns"),
    ("engine.overhead_ns_p50", "ns"),
    ("engine.restored_bytes_mean", "bytes"),
    ("engine.rebuild_ns_p50", "ns"),
    ("engine.serial_rps", "1/s"),
    ("sim.instrs", "count"),
    ("sim.cycles", "cycles"),
    ("sim.mips", "MIPS"),
    ("sim.mips.a", "MIPS"),
    ("sim.mips.b", "MIPS"),
    ("sim.mips.c", "MIPS"),
    ("sim.mips.d", "MIPS"),
    ("sim.mips.e", "MIPS"),
    ("sim.shortcut_share", "ratio"),
    ("sim.bulk_share", "ratio"),
    ("cluster.run_ns_p50.c2", "ns"),
    ("cluster.run_ns_p50.c4", "ns"),
    ("cluster.run_ns_p50.c8", "ns"),
    ("cluster.latency_cycles.c2", "cycles"),
    ("cluster.latency_cycles.c4", "cycles"),
    ("cluster.latency_cycles.c8", "cycles"),
    ("pool.request_ns", "ns"),
    ("pool.efficiency", "ratio"),
    ("pool.batch_ns_p50", "ns"),
    ("pool.batch_ns_p99", "ns"),
    ("pool.failed", "count"),
    ("pool.recovered", "count"),
    ("pool.worker_panics_caught", "count"),
    ("front.serve_ns", "ns"),
    ("front.batches", "count"),
    ("front.mean_batch", "count"),
    ("front.max_queue", "count"),
    ("front.shed", "count"),
    ("guard.entries", "count"),
    ("guard.cycles", "cycles"),
    ("resilience.verify", "count"),
    ("resilience.rebuild", "count"),
    ("pool.sdc_detected", "count"),
    ("pool.sdc_healed", "count"),
    ("traffic.gen_ns_per_arrival", "ns"),
];

/// `a / b`, or 0 when `b` is 0 (a layer absent from the workload).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Serial engine time of a workload's requests: the replay's
/// `run_into` and `heal_rebuild` calls, without the replay's own
/// bookkeeping.
fn serial_ns(d: &TraceData) -> f64 {
    d.child_total("engine.replay")
}

/// Serial engine time of the pooled requests over the pool's thread
/// time (wall × workers): 1 means the pool adds nothing to the serial
/// engine work, less means hand-off and idle time.
fn pool_efficiency(d: &TraceData) -> (f64, f64, f64) {
    let serial = serial_ns(d);
    let pooled = d.total("pool.pass") * d.counter("pool.workers");
    (ratio(serial, pooled), serial, pooled)
}

/// Value of one per-layer metric.
fn value(d: &TraceData, name: &str) -> f64 {
    let c = |n: &str| d.counter(n);
    let mips = |instrs: &str, ns: &str| ratio(c(instrs) * 1e3, c(ns));
    match name {
        "compile.ns_total" => d.total("compile"),
        "compile.count" => d.durations("compile").len() as f64,
        "engine.build_ns_p50" => median(&d.durations("engine.build")),
        "engine.image_bytes" => mean(d.sample("engine.image_bytes")),
        "engine.run_ns_p50" => median(&d.durations("engine.run_into")),
        "engine.run_ns_p99" => percentile(&d.durations("engine.run_into"), 0.99),
        "engine.sim_ns_p50" => median(d.sample("engine.sim_ns")),
        "engine.overhead_ns_p50" => median(d.sample("engine.overhead_ns")),
        "engine.restored_bytes_mean" => mean(d.sample("engine.restored_bytes")),
        "engine.rebuild_ns_p50" => median(&d.durations("engine.heal_rebuild")),
        "engine.serial_rps" => ratio(c("engine.replay_requests") * 1e9, serial_ns(d)),
        "sim.mips" => mips("sim.instrs", "sim.host_ns"),
        "sim.shortcut_share" => ratio(c("sim.shortcut_instrs"), c("sim.instrs")),
        "sim.bulk_share" => ratio(c("sim.bulk_instrs"), c("sim.instrs")),
        "pool.request_ns" => ratio(d.total("pool.pass"), c("pool.requests")),
        "pool.efficiency" => pool_efficiency(d).0,
        "pool.batch_ns_p50" => median(&d.durations("pool.batch")),
        "pool.batch_ns_p99" => percentile(&d.durations("pool.batch"), 0.99),
        "front.serve_ns" => d.total("front.serve"),
        "front.mean_batch" => ratio(c("front.served"), c("front.batches")),
        "traffic.gen_ns_per_arrival" => ratio(d.total("traffic.gen"), c("traffic.arrivals")),
        n => {
            if let Some(tag) = n.strip_prefix("sim.mips.") {
                mips(&format!("sim.instrs.{tag}"), &format!("sim.host_ns.{tag}"))
            } else if let Some(cores) = n.strip_prefix("cluster.run_ns_p50.") {
                median(&d.durations(&format!("cluster.run_into.{cores}")))
            } else {
                c(n)
            }
        }
    }
}

/// Every per-layer metric of `d`, in [`PER_LAYER`] order (0 for a layer
/// the workload does not touch).
pub fn per_layer(d: &TraceData) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: value(d, name),
            unit,
        })
        .collect()
}

/// Share of request time per layer. The base is the thread time of the
/// workload's request path: `Front::serve` wall × workers for `city`,
/// the pool pass wall × workers for the other pooled workloads, the
/// serial replay's calls for `paper_sweep`. Against it:
/// - `front`: `Front::serve` time not covered by the same requests
///   served as plain pool batches;
/// - `pool`: pooled thread time not spent in serial engine work (the
///   serial replay of the same requests): hand-off, stealing, idle;
/// - `engine`, `sim`, `cluster`, `resilience`: the serial replay's
///   engine overhead (run − sim), simulation, cluster runs and rebuilds.
///
/// The rest (the replay loop and span recording) is left out. The
/// passes are timed one after another, so host speed can drift between
/// them; when the parts add up to more than the base, their sum is the
/// base instead.
pub fn shares(d: &TraceData) -> Vec<(&'static str, f64)> {
    let workers = d.counter("pool.workers").max(1.0);
    let replay = serial_ns(d);
    let (front, pass) = (d.total("front.serve"), d.total("pool.pass"));
    let base = if front > 0.0 {
        front * workers
    } else if pass > 0.0 {
        pass * workers
    } else {
        replay
    };
    let sum = |n: &str| d.sample(n).iter().fold(0.0, |a, b| a + b);
    let cluster: f64 = ["c2", "c4", "c8"]
        .iter()
        .map(|c| d.total(&format!("cluster.run_into.{c}")))
        .fold(0.0, |a, b| a + b);
    let mut out = Vec::new();
    if front > 0.0 {
        out.push(("front", (front - pass).max(0.0) * workers));
    }
    if pass > 0.0 {
        out.push(("pool", (pass * workers - replay).max(0.0)));
    }
    out.push(("engine", sum("engine.overhead_ns")));
    out.push(("sim", sum("engine.sim_ns")));
    if cluster > 0.0 {
        out.push(("cluster", cluster));
    }
    if d.counter("replay.rebuild") > 0.0 {
        out.push(("resilience", d.total("engine.heal_rebuild")));
    }
    let parts: f64 = out.iter().map(|(_, ns)| ns).sum();
    let base = base.max(parts);
    out.into_iter()
        .map(|(l, ns)| (l, ratio(ns, base)))
        .collect()
}

/// The human-readable traced-run summary: the per-layer table, each
/// layer's share of request time, and the tracing overhead.
pub fn summary(d: &TraceData) -> String {
    let mut s = String::new();
    for h in &d.header {
        let _ = writeln!(s, "# {h}");
    }
    let _ = writeln!(s, "{:<30} {:>18}  unit", "per-layer metric", "value");
    for m in per_layer(d) {
        let _ = writeln!(s, "{:<30} {:>18.3}  {}", m.name, m.value, m.unit);
    }
    let (eff, serial, pooled) = pool_efficiency(d);
    if pooled > 0.0 {
        let _ = writeln!(
            s,
            "pool.efficiency bases: serial engine {:.0} ns / (pool wall x {} workers) {:.0} ns = {eff:.3}",
            serial,
            d.counter("pool.workers"),
            pooled
        );
    }
    let _ = writeln!(s, "share of request time:");
    for (layer, share) in shares(d) {
        let _ = writeln!(s, "  {layer:<12} {:>6.1}%", share * 100.0);
    }
    let (untraced, traced) = (
        d.counter("trace.untraced_rps"),
        d.counter("trace.traced_rps"),
    );
    let _ = writeln!(
        s,
        "tracing overhead: untraced {untraced:.0} req/s, traced {traced:.0} req/s, \
         traced/untraced {:.3}",
        ratio(traced, untraced)
    );
    s
}
