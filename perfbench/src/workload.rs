//! What every workload shares: the run context, the result it hands
//! back, the timed loop, pool warm-up and the traced serial replay.

use crate::calib::host_speed;
use crate::measure::{failed_ppm_bound, median, Metric};
use crate::trace::Tracer;
use rnnasip_core::serve::{BatchRequest, BatchTicket, EnginePool, ItemOutcome, LatencyHistogram};
use rnnasip_core::{Engine, OptLevel, RunReport};
use rnnasip_fixed::Q3p12;
use rnnasip_nn::Network;
use rnnasip_rrm::traffic::CityConfig;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// The workloads, by the names `BENCHMARK.json` and the docs use.
pub const WORKLOADS: [&str; 4] = ["city", "policy_burst", "paper_sweep", "hardened_serving"];

/// How a workload runs.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Workload seed: all inputs derive from it.
    pub seed: u64,
    /// Length of the timed phase, host seconds (at least one pass runs).
    pub seconds: f64,
    /// Pool width for the workloads that use a pool.
    pub workers: usize,
    /// How many times set-up is repeated at least (`setup_s` is their
    /// median).
    pub setups: usize,
    /// Shrinks every workload's request set, for the determinism test.
    pub short: bool,
}

/// Everything a workload measured; [`RunResult::end_to_end`] turns it
/// into the benchmark's end-to-end metrics.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host speed probed during set-up ([`crate::calib`]).
    pub setup_speed: Vec<f64>,
    /// Requests per host second of each timed pass.
    pub pass_rps: Vec<f64>,
    /// Host speed probed before each timed pass.
    pub pass_speed: Vec<f64>,
    /// Requests attempted in the timed phase, all passes.
    pub attempted: u64,
    /// Attempted requests that errored or whose outputs differ from the
    /// golden.
    pub failed: u64,
    /// Distinct requests whose outputs were checked (one pass).
    pub checked: u64,
    /// Requests that met their deadline, per million offered.
    pub goodput_ppm: u64,
    /// Per-request virtual latency, cycles.
    pub latency: LatencyHistogram,
    /// Simulated cycles of one pass's served requests.
    pub sim_cycles: u64,
    /// Summed `RunReport::latency_cycles` (the cluster arm where there
    /// is one).
    pub cluster_latency_cycles: u64,
    /// Virtual, simulated and front/guard quantities that must repeat
    /// exactly for a seed, at any pool width.
    pub deterministic: Vec<(&'static str, u64)>,
    /// Free-form lines for the result record.
    pub notes: Vec<String>,
    /// Throughput of the traced pass, when traced.
    pub traced_rps: Option<f64>,
}

impl RunResult {
    /// Median pass throughput as measured, at the host's speed of the
    /// moment.
    pub fn raw_rps(&self) -> f64 {
        median(&self.pass_rps)
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order. The host-time
    /// ones are quoted at host speed 1: the median measured value scaled
    /// by the median host speed probed alongside it.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m(
                "throughput_rps",
                self.raw_rps() / median(&self.pass_speed),
                "1/s",
            ),
            m(
                "setup_s",
                median(&self.setup_s) * median(&self.setup_speed),
                "s",
            ),
            m(
                "failed_ppm",
                failed_ppm_bound(self.failed, self.checked),
                "ppm",
            ),
            m("peak_rss_mb", peak_rss_mb, "MiB"),
            m("goodput_ppm", self.goodput_ppm as f64, "ppm"),
            m("latency_p50_cycles", self.latency.p50() as f64, "cycles"),
            m("latency_p99_cycles", self.latency.p99() as f64, "cycles"),
            m("latency_p999_cycles", self.latency.p999() as f64, "cycles"),
            m("sim_cycles", self.sim_cycles as f64, "cycles"),
            m(
                "cluster_latency_cycles",
                self.cluster_latency_cycles as f64,
                "cycles",
            ),
        ]
    }
}

/// Decision deadline of one request of each of `nets` alone on a core:
/// the period of the city class that serves the net, else one 1 ms
/// slot.
pub fn deadline_cycles<'a>(nets: impl IntoIterator<Item = &'a Network>) -> Vec<u64> {
    let city = CityConfig::bench_city(0);
    nets.into_iter()
        .map(|net| {
            city.classes
                .iter()
                .find(|c| c.net.name() == net.name())
                .map_or(city.clock_hz / 1_000, |c| c.period_cycles)
        })
        .collect()
}

/// Deadline bookkeeping for workloads without a virtual queue: each
/// request runs alone on a core, so its latency is its own
/// `latency_cycles`.
#[derive(Default)]
pub struct Deadlines {
    pub latency: LatencyHistogram,
    pub offered: u64,
    pub met: u64,
}

impl Deadlines {
    pub fn record(&mut self, report: &RunReport, deadline: u64) {
        let l = report.latency_cycles();
        self.latency.record(l);
        self.offered += 1;
        self.met += u64::from(l <= deadline);
    }

    pub fn goodput_ppm(&self) -> u64 {
        (u128::from(self.met) * 1_000_000 / u128::from(self.offered.max(1))) as u64
    }
}

/// Runs `pass` until `seconds` of host time are used (at least once),
/// probing the host speed on `threads` threads before each pass. `pass`
/// returns `(requests, seconds it timed)`; the result is the per-pass
/// throughput, the total requests and the host speeds.
pub fn timed_passes(
    seconds: f64,
    threads: usize,
    mut pass: impl FnMut(usize) -> (u64, f64),
) -> (Vec<f64>, u64, Vec<f64>) {
    let start = Instant::now();
    let (mut rps, mut speed) = (Vec::new(), Vec::new());
    let mut total = 0;
    while rps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        speed.push(host_speed(threads));
        let (n, secs) = pass(rps.len());
        total += n;
        rps.push(n as f64 / secs.max(1e-9));
    }
    (rps, total, speed)
}

/// Host seconds of set-up repetitions a run aims for when one set-up is
/// short: the median of many short set-ups is steadier than that of a
/// few.
pub const SETUP_SECONDS: f64 = 2.0;

/// Most set-up repetitions in one run.
pub const MAX_SETUPS: usize = 255;

/// Set-up seconds after which the host speed is probed again.
const SETUP_PROBE_EVERY: f64 = 0.1;

/// Repeats `setup` (dropping each result before the next starts) and
/// returns the last result with every repetition's wall seconds and the
/// host speeds probed on `threads` threads in between: before the first
/// repetition, then whenever [`SETUP_PROBE_EVERY`] seconds of set-up
/// have run since the last probe. With `ctx.setups > 1` the first
/// repetition sizes the count: as many as fit in [`SETUP_SECONDS`], at
/// least `ctx.setups`, at most [`MAX_SETUPS`]. Only the last repetition
/// records spans.
pub fn repeat_setup<T>(
    ctx: &Ctx,
    threads: usize,
    tr: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer) -> T,
) -> (T, Vec<f64>, Vec<f64>) {
    let mut off = Tracer::new(false);
    let (mut secs, mut speed) = (Vec::new(), Vec::new());
    let mut since_probe = f64::INFINITY;
    let mut last = None;
    let mut n = ctx.setups.max(1);
    let mut i = 0;
    while i < n {
        drop(last.take());
        if since_probe >= SETUP_PROBE_EVERY {
            speed.push(host_speed(threads));
            since_probe = 0.0;
        }
        let sink = if i + 1 == n { &mut *tr } else { &mut off };
        let t = Instant::now();
        last = Some(setup(sink));
        let s = t.elapsed().as_secs_f64();
        secs.push(s);
        since_probe += s;
        if i == 0 && n > 1 {
            let fit = (SETUP_SECONDS / s.max(1e-9)) as usize;
            n = n.max(fit.min(MAX_SETUPS));
        }
        i += 1;
    }
    (last.expect("at least one set-up ran"), secs, speed)
}

/// A request kind a pool must have warm: network, level, one input.
pub type WarmItem = (Arc<Network>, OptLevel, Vec<Vec<Q3p12>>);

/// Touches every `(net, level)` on every worker: a batch of
/// `16 × workers` copies per kind, which idle workers steal from, so
/// compiles and engine builds happen before timing.
pub fn warm(pool: &EnginePool, items: &[WarmItem]) {
    let mut batch = BatchRequest::new();
    for (net, level, seq) in items {
        for _ in 0..16 * pool.workers() {
            batch.push(net.clone(), *level, seq.clone());
        }
    }
    let resp = pool.run_batch(batch);
    assert!(resp.all_ok(), "warm-up request failed");
}

/// Requests of one response that errored or whose outputs differ from
/// `golden` (index-aligned), plus any request missing from it.
pub fn mismatches(outcomes: &[ItemOutcome], golden: &[Vec<Q3p12>]) -> u64 {
    outcomes
        .iter()
        .zip(golden)
        .filter(|(o, g)| o.result.as_ref().map_or(true, |r| r.outputs != **g))
        .count() as u64
        + golden.len().saturating_sub(outcomes.len()) as u64
}

/// Counters of one pool response, under their per-layer names.
pub fn count_outcomes(tr: &mut Tracer, outcomes: &[ItemOutcome]) {
    use rnnasip_core::RecoveryAction;
    for o in outcomes {
        tr.count("pool.requests", 1.0);
        tr.count("pool.failed", f64::from(u8::from(o.result.is_err())));
        tr.count("pool.recovered", f64::from(u8::from(o.recovered())));
        tr.count("pool.sdc_detected", f64::from(u8::from(o.sdc_detected)));
        tr.count("pool.sdc_healed", f64::from(u8::from(o.sdc_healed)));
        tr.count(
            "resilience.verify",
            f64::from(u8::from(o.recovery == RecoveryAction::Verify)),
        );
        tr.count(
            "resilience.rebuild",
            f64::from(u8::from(o.recovery == RecoveryAction::Rebuild)),
        );
    }
}

/// One warm engine of the traced serial replay, with the span name its
/// runs are recorded under.
pub struct ReplayEngine {
    pub engine: Engine,
    pub span: &'static str,
    pub level: OptLevel,
}

impl ReplayEngine {
    /// Compiles `net` with `backend` and builds its engine, recording
    /// both calls as spans; earlier engines stay alive, as in a pool.
    pub fn build(
        tr: &mut Tracer,
        parent: Option<u32>,
        net: &Network,
        backend: rnnasip_core::KernelBackend,
    ) -> Self {
        let level = backend.level();
        let cores = backend.cores();
        let compiled = tr.time("compile", parent, None, || {
            backend
                .compile_network(net)
                .unwrap_or_else(|e| panic!("{} at {level:?}: {e}", net.name()))
        });
        let engine = tr.time("engine.build", parent, None, || compiled.engine());
        tr.sample("engine.image_bytes", compiled.image().len() as f64);
        let span = match cores {
            2 => "cluster.run_into.c2",
            4 => "cluster.run_into.c4",
            8 => "cluster.run_into.c8",
            _ => "engine.run_into",
        };
        Self {
            engine,
            span,
            level,
        }
    }

    /// One traced `run_into`: the span, the engine's per-request
    /// counters, and the report.
    pub fn run(
        &mut self,
        tr: &mut Tracer,
        parent: Option<u32>,
        request: u64,
        input: &[Vec<Q3p12>],
        out: &mut Vec<Q3p12>,
    ) -> RunReport {
        // `Machine::bulk_instrs` counts since the machine was built; a
        // rebuild starts a fresh machine at 0.
        let bulk_before = self.engine.machine().bulk_instrs();
        let start = Instant::now();
        let report = self.engine.run_into(input, out);
        let end = Instant::now();
        let report = report.unwrap_or_else(|e| panic!("replay request {request}: {e}"));
        tr.span(self.span, parent, Some(request), start, end);
        let run_ns = end.duration_since(start).as_nanos() as f64;
        if self.span == "engine.run_into" {
            let sim_ns = report.host_nanos() as f64;
            let m = self.engine.machine();
            let (shortcut, bulk) = (m.shortcut_instrs(), m.bulk_instrs());
            let bulk_run = bulk.checked_sub(bulk_before).unwrap_or(bulk);
            tr.sample("engine.sim_ns", sim_ns);
            tr.sample("engine.overhead_ns", run_ns - sim_ns);
            tr.sample(
                "engine.restored_bytes",
                self.engine.last_restored_bytes() as f64,
            );
            tr.count("sim.instrs", report.instrs() as f64);
            tr.count("sim.cycles", report.cycles() as f64);
            tr.count("sim.host_ns", sim_ns);
            tr.count("sim.shortcut_instrs", shortcut as f64);
            tr.count("sim.bulk_instrs", bulk_run as f64);
            let tag = self.level.tag();
            tr.count(&format!("sim.instrs.{tag}"), report.instrs() as f64);
            tr.count(&format!("sim.host_ns.{tag}"), sim_ns);
        } else {
            let cores = &self.span[self.span.len() - 2..];
            tr.count(
                &format!("cluster.latency_cycles.{cores}"),
                report.latency_cycles() as f64,
            );
        }
        if let Some(g) = report.guard() {
            tr.count("guard.entries", g.entries() as f64);
            tr.count("guard.cycles", g.guard_cycles as f64);
        }
        report
    }

    /// A traced `heal_rebuild`.
    pub fn rebuild(&mut self, tr: &mut Tracer, parent: Option<u32>, request: Option<u64>) {
        tr.time("engine.heal_rebuild", parent, request, || {
            self.engine.heal_rebuild()
        });
    }
}

/// The traced pool pass of the batch workloads: `batches` submitted
/// with at most `in_flight` outstanding, a span per batch (submit →
/// wait returned) under one `pool.pass` span. Each response is counted
/// and handed to `check` with its batch index as soon as its wait
/// returns. Returns the pass wall seconds.
pub fn traced_pool_pass(
    tr: &mut Tracer,
    pool: &EnginePool,
    batches: Vec<BatchRequest>,
    in_flight: usize,
    mut check: impl FnMut(usize, &[ItemOutcome]),
) -> f64 {
    let start = Instant::now();
    let pass = tr.begin("pool.pass", None, None);
    let mut pending: VecDeque<(Instant, BatchTicket)> = VecDeque::new();
    let mut done = 0;
    let mut finish = |tr: &mut Tracer, (t, ticket): (Instant, BatchTicket)| {
        let outcomes = ticket.wait().into_outcomes();
        tr.span("pool.batch", pass, None, t, Instant::now());
        count_outcomes(tr, &outcomes);
        check(done, &outcomes);
        done += 1;
    };
    for batch in batches {
        if pending.len() >= in_flight.max(1) {
            finish(tr, pending.pop_front().expect("pending batch"));
        }
        pending.push_back((Instant::now(), pool.submit(batch)));
    }
    for p in pending {
        finish(tr, p);
    }
    let secs = start.elapsed().as_secs_f64();
    tr.end(pass);
    tr.set("pool.workers", pool.workers() as f64);
    tr.set(
        "pool.worker_panics_caught",
        pool.worker_panics_caught() as f64,
    );
    secs
}
