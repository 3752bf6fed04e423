//! `policy_burst`: hundreds of thousands of small policy-net requests
//! (eisen2019, level e) with distinct seeded inputs, in batches of 64,
//! all submitted through `EnginePool::submit` before the first wait.
//!
//! Open burst: every request is released at t = 0 and the queue is
//! deep. The simulator does under half of each request here, so the
//! engine's rewind/patch/readback/report and the scheduler hand-off
//! dominate. Every `Ok` output must equal its serial golden.

use crate::measure::mix;
use crate::trace::Tracer;
use crate::workload::{
    deadline_cycles, mismatches, repeat_setup, timed_passes, traced_pool_pass, warm, Ctx,
    Deadlines, ReplayEngine, RunResult,
};
use rnnasip_core::serve::{BatchRequest, EnginePool};
use rnnasip_core::{KernelBackend, OptLevel};
use rnnasip_fixed::Q3p12;
use rnnasip_nn::Network;
use std::sync::Arc;
use std::time::Instant;

const BATCH: usize = 64;
const LEVEL: OptLevel = OptLevel::IfmTile;

/// Requests per pass: 2048 batches of 64 (64 in the short variant).
fn requests(short: bool) -> usize {
    BATCH * if short { 64 } else { 2048 }
}

fn policy_net() -> Arc<Network> {
    let net = rnnasip_rrm::suite()
        .into_iter()
        .find(|n| n.id == "eisen2019")
        .expect("eisen2019 in the suite");
    Arc::new(net.network)
}

/// Builds the pass's batches (cloning the inputs; done before timing).
fn batches(net: &Arc<Network>, inputs: &[Vec<Vec<Q3p12>>]) -> Vec<BatchRequest> {
    inputs
        .chunks(BATCH)
        .map(|chunk| {
            let mut b = BatchRequest::new();
            for seq in chunk {
                b.push(net.clone(), LEVEL, seq.clone());
            }
            b
        })
        .collect()
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> RunResult {
    let net = policy_net();
    let n = requests(ctx.short);
    let inputs: Vec<Vec<Vec<Q3p12>>> = (0..n as u64)
        .map(|i| rnnasip_rrm::seeded_sequence(net.n_in(), net.seq_len(), mix(ctx.seed, 1, i)))
        .collect();
    let (pool, setup_s, setup_speed) = repeat_setup(ctx, ctx.workers, tr, |tr| {
        let pool = tr.time("pool.spawn", None, None, || {
            EnginePool::with_workers(ctx.workers)
        });
        let warm_items = [(net.clone(), LEVEL, inputs[0].clone())];
        tr.time("pool.warm", None, None, || warm(&pool, &warm_items));
        pool
    });

    // Serial golden: one warm engine, every distinct request.
    let mut engine = KernelBackend::new(LEVEL)
        .compile_network(&net)
        .expect("eisen2019 compiles at level e")
        .engine();
    let mut golden = Vec::with_capacity(n);
    let mut deadlines = Deadlines::default();
    let mut sim_cycles = 0u64;
    let deadline = deadline_cycles([&*net])[0];
    for seq in &inputs {
        let mut out = Vec::new();
        let report = engine.run_into(seq, &mut out).expect("golden run");
        deadlines.record(&report, deadline);
        sim_cycles += report.cycles();
        golden.push(out);
    }

    // The main thread only submits and waits while the clock runs; the
    // responses are checked once the whole burst is back.
    let mut failed = 0u64;
    let mut served_cycles = 0u64;
    let (pass_rps, attempted, pass_speed) = timed_passes(ctx.seconds, ctx.workers, |pass| {
        let batches = batches(&net, &inputs);
        let t = Instant::now();
        let tickets: Vec<_> = batches.into_iter().map(|b| pool.submit(b)).collect();
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let secs = t.elapsed().as_secs_f64();
        for (response, golden) in responses.into_iter().zip(golden.chunks(BATCH)) {
            let outcomes = response.into_outcomes();
            failed += mismatches(&outcomes, golden);
            if pass == 0 {
                served_cycles += outcomes
                    .iter()
                    .filter_map(|o| o.result.as_ref().ok())
                    .map(|r| r.report.cycles())
                    .sum::<u64>();
            }
        }
        (n as u64, secs)
    });
    if served_cycles != sim_cycles {
        failed += 1;
    }

    let mut res = RunResult {
        setup_s,
        setup_speed,
        pass_rps,
        pass_speed,
        attempted,
        failed,
        checked: n as u64,
        goodput_ppm: deadlines.goodput_ppm(),
        latency: deadlines.latency.clone(),
        sim_cycles,
        cluster_latency_cycles: sim_cycles,
        ..RunResult::default()
    };
    res.deterministic = vec![
        ("requests", n as u64),
        ("goodput_ppm", res.goodput_ppm),
        ("latency_p50_cycles", res.latency.p50()),
        ("latency_p999_cycles", res.latency.p999()),
        ("sim_cycles", sim_cycles),
    ];
    res.notes.push(format!(
        "policy_burst: {n} eisen2019 level-e requests per pass in {} batches of {BATCH}, \
         all submitted before the first wait; latency samples {}",
        n / BATCH,
        res.latency.count()
    ));

    if tr.on() {
        let batches = batches(&net, &inputs);
        let t = Instant::now();
        let mut failed = 0;
        traced_pool_pass(tr, &pool, batches, usize::MAX, |i, outcomes| {
            failed += mismatches(outcomes, golden.chunks(BATCH).nth(i).unwrap_or_default());
        });
        res.traced_rps = Some(n as f64 / t.elapsed().as_secs_f64());
        res.failed += failed;
        let mut replay = ReplayEngine::build(tr, None, &net, KernelBackend::new(LEVEL));
        let span = tr.begin("engine.replay", None, None);
        let mut out = Vec::new();
        for (i, seq) in inputs.iter().enumerate() {
            replay.run(tr, span, i as u64, seq, &mut out);
        }
        tr.end(span);
        tr.set("engine.replay_requests", n as f64);
        replay.rebuild(tr, None, None);
    }
    res
}
