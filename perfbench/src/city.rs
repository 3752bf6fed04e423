//! `city`: the bench city through `Front::serve` over a pool.
//!
//! Open loop in virtual time: the arrival schedule of the bench city
//! (`rnnasip_bench::traffic::bench_city`, three classes at level
//! e), generated before timing and served by the EDF front-end over
//! `EnginePool::with_workers`. In host time one batch is in flight,
//! because `Front` blocks on `run_batch`. The output witness is
//! whole-run: the served set's `outputs_fnv` and `served_cycles` must
//! equal a serial warm-engine pass over the same requests.
//!
//! The workload seed redraws every request's input window and keeps the
//! schedule, so the virtual-time metrics stay those of the bench city at
//! every seed; seed 0 keeps the city's own inputs as well.

use crate::measure::mix;
use crate::trace::Tracer;
use crate::workload::{
    repeat_setup, timed_passes, traced_pool_pass, warm, Ctx, ReplayEngine, RunResult,
};
use rnnasip_bench::traffic::{bench_city, overload_front};
use rnnasip_core::serve::{
    output_fingerprint, Arrival, BatchRequest, EnginePool, Front, FrontConfig, TrafficReport,
};
use rnnasip_core::KernelBackend;
use rnnasip_rrm::traffic::{CityConfig, CityTraffic};
use std::collections::HashMap;
use std::time::Instant;

/// The bench city; the short variant keeps its first tenth of a
/// virtual second.
pub fn city_config(short: bool) -> CityConfig {
    let mut city = bench_city();
    if short {
        city.horizon_s = 0.1;
    }
    city
}

/// The city's arrivals with input windows redrawn from `seed` (the
/// city's own inputs at seed 0).
pub fn arrivals(city: &CityConfig, seed: u64) -> Vec<Arrival> {
    CityTraffic::new(city)
        .enumerate()
        .map(|(i, mut a)| {
            if seed != 0 {
                let (n_in, steps) = (a.net.n_in(), a.net.seq_len());
                a.sequence = rnnasip_rrm::seeded_sequence(n_in, steps, mix(seed, 9, i as u64));
            }
            a
        })
        .collect()
}

/// The front-end configuration of the committed traffic baseline's
/// `servers: 8` row.
pub fn front_config() -> FrontConfig {
    overload_front(8)
}

/// Identifies an arrival for the witness (class, arrival cycle, UE).
type Key = (usize, u64, u64);

fn key(a: &Arrival) -> Key {
    (a.class, a.arrival, a.ue)
}

/// Serial warm-engine pass over every arrival: per key, the
/// `(output fingerprint, cycles)` of each arrival with that key.
fn serial_witness(city: &CityConfig, arrivals: &[Arrival]) -> HashMap<Key, Vec<(u64, u64)>> {
    let mut engines: Vec<_> = city
        .classes
        .iter()
        .map(|c| {
            KernelBackend::new(c.level)
                .compile_network(&c.net)
                .unwrap_or_else(|e| panic!("{} at {:?}: {e}", c.name, c.level))
                .engine()
        })
        .collect();
    let mut out = Vec::new();
    let mut witness: HashMap<Key, Vec<(u64, u64)>> = HashMap::with_capacity(arrivals.len());
    for a in arrivals {
        let report = engines[a.class]
            .run_into(&a.sequence, &mut out)
            .unwrap_or_else(|e| panic!("serial witness: {e}"));
        witness
            .entry(key(a))
            .or_default()
            .push((output_fingerprint(&out), report.cycles()));
    }
    witness
}

/// Whether `report`'s checksum and cycles equal the serial pass over
/// the served keys.
fn witness_holds(
    witness: &HashMap<Key, Vec<(u64, u64)>>,
    served: &[Key],
    report: &TrafficReport,
) -> bool {
    let mut used: HashMap<Key, usize> = HashMap::new();
    let (mut fnv, mut cycles) = (0u64, 0u64);
    for k in served {
        let i = used.entry(*k).or_default();
        let Some(&(f, c)) = witness.get(k).and_then(|v| v.get(*i)) else {
            return false;
        };
        *i += 1;
        fnv = fnv.wrapping_add(f);
        cycles += c;
    }
    fnv == report.outputs_fnv && cycles == report.served_cycles
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> RunResult {
    let city = city_config(ctx.short);
    let t = Instant::now();
    let arrivals = arrivals(&city, ctx.seed);
    tr.span("traffic.gen", None, None, t, Instant::now());
    tr.set("traffic.arrivals", arrivals.len() as f64);
    let (pool, setup_s, setup_speed) = repeat_setup(ctx, ctx.workers, tr, |tr| {
        let pool = tr.time("pool.spawn", None, None, || {
            EnginePool::with_workers(ctx.workers)
        });
        let items: Vec<_> = city
            .classes
            .iter()
            .map(|c| {
                let seq = rnnasip_rrm::seeded_sequence(c.net.n_in(), c.net.seq_len(), 1);
                (c.net.clone(), c.level, seq)
            })
            .collect();
        tr.time("pool.warm", None, None, || warm(&pool, &items));
        pool
    });
    let witness = serial_witness(&city, &arrivals);

    let cfg = front_config();
    let mut first: Option<TrafficReport> = None;
    let mut failed = 0u64;
    let mut served_keys = Vec::with_capacity(arrivals.len());
    let (pass_rps, attempted, pass_speed) = timed_passes(ctx.seconds, ctx.workers, |i| {
        let input = arrivals.clone();
        served_keys.clear();
        let t = Instant::now();
        let report = Front::new(&pool, cfg.clone())
            .serve_with(input.into_iter(), |a, _| served_keys.push(key(a)));
        let secs = t.elapsed().as_secs_f64();
        let total = report.aggregate();
        failed += total.failed;
        let ok = match &first {
            None => witness_holds(&witness, &served_keys, &report),
            Some(f) => *f == report,
        };
        if !ok {
            failed += total.served;
        }
        if i == 0 {
            first = Some(report);
        }
        (total.served, secs)
    });
    let report = first.expect("one pass ran");
    let total = report.aggregate();

    let mut res = RunResult {
        setup_s,
        setup_speed,
        pass_rps,
        pass_speed,
        attempted,
        failed,
        checked: total.offered,
        goodput_ppm: total.goodput_ppm(),
        latency: total.latency.clone(),
        sim_cycles: report.served_cycles,
        cluster_latency_cycles: report.served_cycles,
        ..RunResult::default()
    };
    res.deterministic = vec![
        ("offered", total.offered),
        ("served", total.served),
        ("met", total.met),
        ("goodput_ppm", total.goodput_ppm()),
        ("latency_p50_cycles", total.latency.p50()),
        ("latency_p99_cycles", total.latency.p99()),
        ("latency_p999_cycles", total.latency.p999()),
        ("sim_cycles", report.served_cycles),
        ("outputs_fnv", report.outputs_fnv),
        ("makespan", report.makespan),
        ("front.batches", report.batches),
        ("front.max_queue", report.max_queue as u64),
        ("front.shed", total.shed),
    ];
    res.notes.push(format!(
        "city {:#x}, inputs from seed {}: {} arrivals, {} served, {} shed, \
         outputs_fnv {:016x}, latency samples {}",
        city.seed,
        ctx.seed,
        total.offered,
        total.served,
        total.shed,
        report.outputs_fnv,
        total.latency.count()
    ));

    if tr.on() {
        traced(tr, &city, &arrivals, &pool, &mut res);
    }
    res
}

/// The traced replay: one `Front::serve` pass, the same requests as
/// pool batches of the front's mean batch size, then every request
/// serially through `Engine::run_into`.
fn traced(
    tr: &mut Tracer,
    city: &CityConfig,
    arrivals: &[Arrival],
    pool: &EnginePool,
    res: &mut RunResult,
) {
    let input = arrivals.to_vec();
    let t = Instant::now();
    let report = tr.time("front.serve", None, None, || {
        Front::new(pool, front_config()).serve(input.into_iter())
    });
    let total = report.aggregate();
    res.traced_rps = Some(total.served as f64 / t.elapsed().as_secs_f64());
    tr.set("front.batches", report.batches as f64);
    tr.set("front.served", total.served as f64);
    tr.set("front.max_queue", report.max_queue as f64);
    tr.set("front.shed", total.shed as f64);

    let size = (total.served / report.batches.max(1)).max(1) as usize;
    let batches = arrivals
        .chunks(size)
        .map(|chunk| {
            let mut b = BatchRequest::new();
            for a in chunk {
                b.push(a.net.clone(), a.level, a.sequence.clone());
            }
            b
        })
        .collect();
    traced_pool_pass(tr, pool, batches, 1, |_, _| {});

    let mut engines: Vec<ReplayEngine> = city
        .classes
        .iter()
        .map(|c| ReplayEngine::build(tr, None, &c.net, KernelBackend::new(c.level)))
        .collect();
    let replay = tr.begin("engine.replay", None, None);
    let mut out = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        engines[a.class].run(tr, replay, i as u64, &a.sequence, &mut out);
    }
    tr.end(replay);
    tr.set("engine.replay_requests", arrivals.len() as f64);
    for e in &mut engines {
        e.rebuild(tr, None, None);
    }
}
