//! `hardened_serving`: eisen2019 and naparstek2019 level-e requests
//! alternating on `EnginePool::with_workers_guarded`, in batches of 64
//! with one batch in flight (closed loop).
//!
//! One request in 32 carries a seeded single-bit silent `MemBit` flip
//! into a guarded weight or bias word, drawn from the artifact's
//! `CompiledNetwork::guards()` regions. The ABFT guards, the verify →
//! rebuild rung and `Engine::heal_rebuild` run only here; a rebuild
//! writes the whole image where the other workloads rewind dirty
//! blocks. Every `Ok` output must equal its clean serial golden.

use crate::measure::mix;
use crate::trace::Tracer;
use crate::workload::{
    deadline_cycles, mismatches, repeat_setup, timed_passes, traced_pool_pass, warm, Ctx,
    Deadlines, ReplayEngine, RunResult,
};
use rnnasip_core::serve::{BatchRequest, EnginePool};
use rnnasip_core::{CompiledNetwork, Fault, FaultPlan, FaultSite, KernelBackend, OptLevel};
use rnnasip_fixed::Q3p12;
use rnnasip_nn::Network;
use std::sync::Arc;
use std::time::Instant;

const BATCH: usize = 64;
const FLIP_EVERY: u64 = 32;
const LEVEL: OptLevel = OptLevel::IfmTile;
const NETS: [&str; 2] = ["eisen2019", "naparstek2019"];

/// Batches per pass (8 in the short variant).
fn batches_per_pass(short: bool) -> usize {
    if short {
        8
    } else {
        128
    }
}

/// One request: which of [`NETS`], its input, and its flip, if any.
struct Request {
    net: usize,
    input: Vec<Vec<Q3p12>>,
    flip: Option<FaultPlan>,
}

/// The guarded word ranges of `compiled` as `(base, bytes)`: per
/// region, the weight matrix and the bias words, the sites the SDC
/// campaign in `rnnasip_bench::sdc` draws from.
fn sites(compiled: &CompiledNetwork) -> Vec<(u32, u32)> {
    compiled
        .guards()
        .iter()
        .flat_map(|spec| {
            let r = &spec.region;
            [(r.w_base, 2 * r.n_in * r.n_out), (r.bias32, 4 * r.n_out)]
        })
        .collect()
}

/// The seeded request list: nets alternate, one request in each block
/// of 32 carries a flip at a seeded instruction into a seeded guarded
/// byte and bit.
fn requests(
    seed: u64,
    n: usize,
    nets: &[Arc<Network>],
    compiled: &[CompiledNetwork],
) -> Vec<Request> {
    let instrs: Vec<u64> = nets
        .iter()
        .zip(compiled)
        .map(|(net, c)| {
            let seq = rnnasip_rrm::seeded_sequence(net.n_in(), net.seq_len(), 1);
            c.engine().run(&seq).expect("probe run").report.instrs()
        })
        .collect();
    let pools: Vec<_> = compiled.iter().map(sites).collect();
    (0..n as u64)
        .map(|i| {
            let net = (i % 2) as usize;
            let input = rnnasip_rrm::seeded_sequence(
                nets[net].n_in(),
                nets[net].seq_len(),
                mix(seed, 3, i),
            );
            let flip = (i % FLIP_EVERY == mix(seed, 4, i / FLIP_EVERY) % FLIP_EVERY).then(|| {
                let r = mix(seed, 5, i);
                let (base, len) = pools[net][(r % pools[net].len() as u64) as usize];
                FaultPlan::new().with_fault(Fault {
                    at_instret: mix(seed, 6, i) % instrs[net],
                    site: FaultSite::MemBit {
                        addr: base + (mix(seed, 7, i) % u64::from(len)) as u32,
                        bit: (mix(seed, 8, i) % 8) as u32,
                        silent: true,
                    },
                })
            });
            Request { net, input, flip }
        })
        .collect()
}

fn batches(nets: &[Arc<Network>], reqs: &[Request]) -> Vec<BatchRequest> {
    reqs.chunks(BATCH)
        .map(|chunk| {
            let mut b = BatchRequest::new();
            for r in chunk {
                let net = nets[r.net].clone();
                match &r.flip {
                    Some(plan) => b.push_with_faults(net, LEVEL, r.input.clone(), plan.clone()),
                    None => b.push(net, LEVEL, r.input.clone()),
                }
            }
            b
        })
        .collect()
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> RunResult {
    let suite = rnnasip_rrm::suite();
    let nets: Vec<Arc<Network>> = NETS
        .iter()
        .map(|id| {
            let net = suite
                .iter()
                .find(|n| n.id == *id)
                .expect("net in the suite");
            Arc::new(net.network.clone())
        })
        .collect();
    let n = BATCH * batches_per_pass(ctx.short);
    // The flip plans need each net's guard regions and instruction
    // count: input generation, done once and outside set-up.
    let compiled: Vec<CompiledNetwork> = nets
        .iter()
        .map(|net| {
            KernelBackend::new(LEVEL)
                .compile_network(net)
                .expect("net compiles at level e")
        })
        .collect();
    let reqs = requests(ctx.seed, n, &nets, &compiled);
    let (pool, setup_s, setup_speed) = repeat_setup(ctx, ctx.workers, tr, |tr| {
        let pool = tr.time("pool.spawn", None, None, || {
            EnginePool::with_workers_guarded(ctx.workers)
        });
        let items: Vec<_> = nets
            .iter()
            .map(|net| {
                let seq = rnnasip_rrm::seeded_sequence(net.n_in(), net.seq_len(), 1);
                (net.clone(), LEVEL, seq)
            })
            .collect();
        tr.time("pool.warm", None, None, || warm(&pool, &items));
        pool
    });

    // Clean serial goldens.
    let mut engines: Vec<_> = compiled.iter().map(CompiledNetwork::engine).collect();
    let deadline = deadline_cycles(nets.iter().map(|n| &**n));
    let mut deadlines = Deadlines::default();
    let mut golden_cycles = 0u64;
    let golden: Vec<Vec<Q3p12>> = reqs
        .iter()
        .map(|r| {
            let mut out = Vec::new();
            let report = engines[r.net]
                .run_into(&r.input, &mut out)
                .expect("golden run");
            deadlines.record(&report, deadline[r.net]);
            golden_cycles += report.cycles();
            out
        })
        .collect();

    // The main thread only submits and waits while the clock runs; the
    // responses are checked once the pass is back.
    let mut failed = 0u64;
    let mut served_cycles = 0u64;
    let mut flagged = (0u64, 0u64);
    let (pass_rps, attempted, pass_speed) = timed_passes(ctx.seconds, ctx.workers, |pass| {
        let batches = batches(&nets, &reqs);
        let mut responses = Vec::with_capacity(batches.len());
        let t = Instant::now();
        for b in batches {
            responses.push(pool.run_batch(b));
        }
        let secs = t.elapsed().as_secs_f64();
        for (response, golden) in responses.into_iter().zip(golden.chunks(BATCH)) {
            let outcomes = response.into_outcomes();
            failed += mismatches(&outcomes, golden);
            if pass == 0 {
                flagged.0 += outcomes.iter().filter(|o| o.sdc_detected).count() as u64;
                flagged.1 += outcomes.iter().filter(|o| o.sdc_healed).count() as u64;
                served_cycles += outcomes
                    .iter()
                    .filter_map(|o| o.result.as_ref().ok())
                    .map(|r| r.report.cycles())
                    .sum::<u64>();
            }
        }
        (n as u64, secs)
    });
    if served_cycles != golden_cycles {
        failed += 1;
    }

    let flips = reqs.iter().filter(|r| r.flip.is_some()).count() as u64;
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
        sim_cycles: golden_cycles,
        cluster_latency_cycles: golden_cycles,
        ..RunResult::default()
    };
    res.deterministic = vec![
        ("requests", n as u64),
        ("flips", flips),
        ("goodput_ppm", res.goodput_ppm),
        ("latency_p50_cycles", res.latency.p50()),
        ("latency_p999_cycles", res.latency.p999()),
        ("sim_cycles", golden_cycles),
    ];
    res.notes.push(format!(
        "hardened_serving: {n} requests per pass ({flips} with a silent flip) in batches of \
         {BATCH}, one in flight; first pass: {} flagged, {} healed; latency samples {}",
        flagged.0,
        flagged.1,
        res.latency.count()
    ));

    if tr.on() {
        traced(tr, &nets, &reqs, &golden, &pool, &mut res);
    }
    res
}

/// The traced replay: one pool pass, then every request serially on
/// guarded engines, climbing verify → rebuild on a guard trip as the
/// pool's workers do.
fn traced(
    tr: &mut Tracer,
    nets: &[Arc<Network>],
    reqs: &[Request],
    golden: &[Vec<Q3p12>],
    pool: &EnginePool,
    res: &mut RunResult,
) {
    let pass = batches(nets, reqs);
    let t = Instant::now();
    let mut failed = 0;
    traced_pool_pass(tr, pool, pass, 1, |i, outcomes| {
        failed += mismatches(outcomes, golden.chunks(BATCH).nth(i).unwrap_or_default());
    });
    res.traced_rps = Some(reqs.len() as f64 / t.elapsed().as_secs_f64());
    res.failed += failed;

    let mut engines: Vec<ReplayEngine> = nets
        .iter()
        .map(|net| {
            let mut e = ReplayEngine::build(tr, None, net, KernelBackend::new(LEVEL));
            e.engine.set_guards(true);
            e
        })
        .collect();
    let span = tr.begin("engine.replay", None, None);
    let mut out = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        let id = i as u64;
        let e = &mut engines[r.net];
        if let Some(plan) = &r.flip {
            e.engine.inject_faults(plan);
        }
        let mut report = e.run(tr, span, id, &r.input, &mut out);
        if report.guard_failed() {
            tr.count("replay.verify", 1.0);
            report = e.run(tr, span, id, &r.input, &mut out);
            if report.guard_failed() {
                tr.count("replay.rebuild", 1.0);
                e.rebuild(tr, span, Some(id));
                e.run(tr, span, id, &r.input, &mut out);
            }
        }
        if out != golden[i] {
            res.failed += 1;
        }
    }
    tr.end(span);
    tr.set("engine.replay_requests", reqs.len() as f64);
}
