//! `paper_sweep`: the research path that regenerates Table I and Fig. 3.
//!
//! For each of the ten suite networks at levels a–e: `compile_network`,
//! `engine()`, then a few inputs through `Engine::run_into` (the first
//! is the canonical `BenchmarkNet::input()`). Each network then runs at
//! level e on 2, 4 and 8 cluster cores. Closed loop with one client,
//! serial on one thread; no pool, no front-end. Compiles and engine
//! builds are set-up; a timed pass runs every input on every engine.
//!
//! Checks: the canonical inputs reproduce the pinned per-level suite
//! totals, and every output equals the `rnnasip-nn` fixed-point model.

use crate::measure::mix;
use crate::trace::Tracer;
use crate::workload::{
    deadline_cycles, repeat_setup, timed_passes, Ctx, Deadlines, ReplayEngine, RunResult,
};
use rnnasip_core::{KernelBackend, OptLevel, RunReport};
use rnnasip_fixed::Q3p12;
use rnnasip_rrm::BenchmarkNet;
use std::time::Instant;

/// `(level, cycles, instrs, stall_cycles, mac_ops)` of the whole suite
/// on its canonical inputs: the Table-I totals the repository pins in
/// its suite differential test.
pub const GOLDEN: [(&str, u64, u64, u64, u64); 5] = [
    ("a", 12_114_333, 10_755_216, 13_886, 1_316_954),
    ("b", 2_853_979, 2_181_922, 658_070, 1_316_954),
    ("c", 1_478_218, 1_474_902, 3_198, 1_312_432),
    ("d", 894_156, 822_188, 71_850, 1_316_748),
    ("e", 825_766, 822_188, 3_460, 1_316_748),
];

/// Cluster widths of the level-e cluster arm.
pub const CORES: [usize; 3] = [2, 4, 8];

/// Inputs per network: the canonical one plus seeded ones (canonical
/// only in the short variant).
fn inputs_per_net(short: bool) -> usize {
    if short {
        1
    } else {
        3
    }
}

/// One compiled artifact with its warm engine.
struct Arm {
    net: usize,
    cores: usize,
    engine: ReplayEngine,
}

fn build_arms(tr: &mut Tracer, suite: &[BenchmarkNet]) -> Vec<Arm> {
    let mut arms = Vec::new();
    for (i, net) in suite.iter().enumerate() {
        for level in OptLevel::ALL {
            let engine = ReplayEngine::build(tr, None, &net.network, KernelBackend::new(level));
            arms.push(Arm {
                net: i,
                cores: 1,
                engine,
            });
        }
    }
    for (i, net) in suite.iter().enumerate() {
        for cores in CORES {
            let backend = KernelBackend::new(OptLevel::IfmTile).with_cores(cores);
            let engine = ReplayEngine::build(tr, None, &net.network, backend);
            arms.push(Arm {
                net: i,
                cores,
                engine,
            });
        }
    }
    arms
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> RunResult {
    let suite = rnnasip_rrm::suite();
    let k = inputs_per_net(ctx.short);
    let inputs: Vec<Vec<Vec<Vec<Q3p12>>>> = suite
        .iter()
        .enumerate()
        .map(|(i, net)| {
            let n = &net.network;
            std::iter::once(net.input())
                .chain((1..k).map(|j| {
                    rnnasip_rrm::seeded_sequence(
                        n.n_in(),
                        n.seq_len(),
                        mix(ctx.seed, 2, (i * 16 + j) as u64),
                    )
                }))
                .collect()
        })
        .collect();
    let (mut arms, setup_s, setup_speed) = repeat_setup(ctx, 1, tr, |tr| build_arms(tr, &suite));
    let requests: u64 = arms.iter().map(|a| inputs[a.net].len() as u64).sum();

    // Timed passes; the first pass's outputs and reports are kept for
    // the checks, later passes must reproduce its outputs.
    let mut first: Vec<(Vec<Q3p12>, RunReport)> = Vec::new();
    let mut failed = 0u64;
    let mut outs: Vec<Vec<Q3p12>> = vec![Vec::new(); requests as usize];
    let (pass_rps, attempted, pass_speed) = timed_passes(ctx.seconds, 1, |pass| {
        let mut reports = Vec::with_capacity(outs.len());
        let mut slot = outs.iter_mut();
        let t = Instant::now();
        for arm in &mut arms {
            for input in &inputs[arm.net] {
                let out = slot.next().expect("one slot per request");
                reports.push(arm.engine.engine.run_into(input, out));
            }
        }
        let secs = t.elapsed().as_secs_f64();
        if pass == 0 {
            for (out, report) in outs.iter().zip(reports) {
                match report {
                    Ok(r) => first.push((out.clone(), r)),
                    Err(_) => failed += 1,
                }
            }
        } else {
            failed += reports
                .iter()
                .zip(outs.iter().zip(&first))
                .filter(|(r, (o, f))| r.is_err() || **o != f.0)
                .count() as u64;
        }
        (requests, secs)
    });

    let mut res = RunResult {
        setup_s,
        setup_speed,
        pass_rps,
        pass_speed,
        attempted,
        ..RunResult::default()
    };
    if first.len() as u64 != requests {
        res.failed = failed.max(1);
        res.checked = requests;
        res.notes.push("paper_sweep: a request errored".into());
        return res;
    }

    // Model outputs and the pinned suite totals.
    let mut deadlines = Deadlines::default();
    let mut totals = [(0u64, 0u64, 0u64, 0u64); 5];
    let mut results = first.iter();
    let deadline_of = deadline_cycles(suite.iter().map(|n| &n.network));
    for arm in &arms {
        let net = &suite[arm.net];
        let deadline = deadline_of[arm.net];
        for (j, input) in inputs[arm.net].iter().enumerate() {
            let (out, report) = results.next().expect("one result per request");
            if *out != net.network.forward_fixed(input) {
                failed += 1;
            }
            deadlines.record(report, deadline);
            res.sim_cycles += report.cycles();
            if arm.cores > 1 {
                res.cluster_latency_cycles += report.latency_cycles();
            } else if j == 0 {
                let l = OptLevel::ALL
                    .iter()
                    .position(|&l| l == arm.engine.level)
                    .expect("level in ALL");
                let s = report.stats();
                let t = &mut totals[l];
                *t = (
                    t.0 + s.cycles(),
                    t.1 + s.instrs(),
                    t.2 + s.stall_cycles(),
                    t.3 + s.mac_ops(),
                );
            }
        }
    }
    for (golden, got) in GOLDEN.iter().zip(totals) {
        if (golden.1, golden.2, golden.3, golden.4) != got {
            failed += suite.len() as u64;
            res.notes.push(format!(
                "paper_sweep: level {} totals {got:?} != {golden:?}",
                golden.0
            ));
        }
    }
    res.failed = failed;
    res.checked = requests;
    res.goodput_ppm = deadlines.goodput_ppm();
    res.latency = deadlines.latency;
    res.deterministic = vec![
        ("requests", requests),
        ("goodput_ppm", res.goodput_ppm),
        ("latency_p50_cycles", res.latency.p50()),
        ("latency_p99_cycles", res.latency.p99()),
        ("latency_p999_cycles", res.latency.p999()),
        ("sim_cycles", res.sim_cycles),
        ("cluster_latency_cycles", res.cluster_latency_cycles),
    ];
    res.notes.push(format!(
        "paper_sweep: {} nets x 5 levels + cores {CORES:?} at level e, {k} inputs each, \
         {requests} requests per pass; latency samples {}",
        suite.len(),
        res.latency.count()
    ));

    if tr.on() {
        let t = Instant::now();
        let span = tr.begin("engine.replay", None, None);
        let mut out = Vec::new();
        let mut id = 0u64;
        for arm in &mut arms {
            for input in &inputs[arm.net] {
                arm.engine.run(tr, span, id, input, &mut out);
                id += 1;
            }
        }
        tr.end(span);
        res.traced_rps = Some(requests as f64 / t.elapsed().as_secs_f64());
        tr.set("engine.replay_requests", requests as f64);
        for arm in &mut arms {
            arm.engine.rebuild(tr, None, None);
        }
    }
    res
}
