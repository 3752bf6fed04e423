//! Tentpole acceptance tests for the serving layer: pooled execution is
//! bit-identical to the serial engine path at every worker count and
//! submission order, and a fault-injected request heals in place without
//! failing its batch.

use rnnasip_core::serve::{Arrival, BatchRequest, EnginePool, Front, FrontConfig};
use rnnasip_core::{
    Fault, FaultPlan, FaultSite, KernelBackend, NetworkRun, OptLevel, RecoveryAction, RunReport,
};
use rnnasip_nn::Network;
use rnnasip_rng::StdRng;
use std::sync::Arc;

/// Level-e suite totals pinned in PR 1 (`suite_differential.rs` GOLDEN):
/// `(cycles, instrs, stall_cycles, mac_ops)`.
const SUITE_E_GOLDEN: (u64, u64, u64, u64) = (825_766, 822_188, 3_460, 1_316_748);

/// The full RRM suite as `(shared network, input window)` pairs plus the
/// serial golden run of each, computed on fresh single engines.
fn suite_with_goldens(
    level: OptLevel,
) -> Vec<(Arc<Network>, Vec<Vec<rnnasip_fixed::Q3p12>>, NetworkRun)> {
    rnnasip_rrm::suite()
        .into_iter()
        .map(|bench| {
            let input = bench.input();
            let golden = KernelBackend::new(level)
                .compile_network(&bench.network)
                .unwrap()
                .engine()
                .run(&input)
                .unwrap();
            (Arc::new(bench.network), input, golden)
        })
        .collect()
}

/// In-place Fisher–Yates with the repo's deterministic SplitMix64 RNG.
fn shuffle(order: &mut [usize], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
}

/// The determinism pin: the 10-net suite through the pool at 1, 2 and 8
/// workers, each with a different shuffled submission order, must return
/// per-request outputs and cycle counts bit-identical to the serial
/// golden, and the merged statistics must byte-match the serial
/// aggregate — which itself must still equal the PR 1 suite golden.
#[test]
fn pooled_suite_matches_serial_golden_at_every_worker_count() {
    let level = OptLevel::IfmTile;
    let suite = suite_with_goldens(level);

    // Serial aggregate (submission = suite order) and its PR 1 pin.
    let serial = RunReport::merged(suite.iter().map(|(_, _, g)| &g.report));
    assert_eq!(
        (
            serial.cycles(),
            serial.instrs(),
            serial.stats().stall_cycles(),
            serial.mac_ops(),
        ),
        SUITE_E_GOLDEN,
        "serial suite drifted from the PR 1 golden"
    );
    let serial_csv = serial.stats().to_csv();

    for (workers, seed) in [(1, 11), (2, 22), (8, 88)] {
        let mut order: Vec<usize> = (0..suite.len()).collect();
        shuffle(&mut order, seed);

        let mut batch = BatchRequest::new();
        for &net_idx in &order {
            let (net, input, _) = &suite[net_idx];
            batch.push(net.clone(), level, input.clone());
        }

        let pool = EnginePool::with_workers(workers);
        let response = pool.run_batch(batch);
        assert!(response.all_ok(), "{workers} workers: a request failed");
        assert_eq!(response.recovered(), 0);

        // Slot i answers the i-th *submitted* request, so outcome i must
        // match the golden of the net shuffled into position i.
        for (slot, outcome) in response.outcomes().iter().enumerate() {
            let golden = &suite[order[slot]].2;
            let run = outcome.result.as_ref().unwrap();
            assert_eq!(
                run.outputs, golden.outputs,
                "{workers} workers, slot {slot}: outputs diverged"
            );
            assert_eq!(
                run.report.cycles(),
                golden.report.cycles(),
                "{workers} workers, slot {slot}: cycles diverged"
            );
            assert_eq!(
                run.report.stats().to_csv(),
                golden.report.stats().to_csv(),
                "{workers} workers, slot {slot}: per-mnemonic rows diverged"
            );
        }

        // The aggregate is order-independent: merged over the shuffled
        // batch, it still byte-matches the serial-order aggregate.
        let merged = response.merged_report();
        assert_eq!(
            (
                merged.cycles(),
                merged.instrs(),
                merged.stats().stall_cycles(),
                merged.mac_ops(),
            ),
            SUITE_E_GOLDEN,
            "{workers} workers: merged totals diverged"
        );
        assert_eq!(
            merged.stats().to_csv(),
            serial_csv,
            "{workers} workers: merged stats rows diverged"
        );

        // The same shuffled suite as several queued batches: every ticket
        // is submitted before any wait and collected in reverse order, so
        // later jobs are claimed while earlier ones are still queued.
        let chunks: Vec<&[usize]> = order.chunks(3).collect();
        let tickets: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let mut batch = BatchRequest::new();
                for &net_idx in *chunk {
                    let (net, input, _) = &suite[net_idx];
                    batch.push(net.clone(), level, input.clone());
                }
                pool.submit(batch)
            })
            .collect();
        for (chunk, ticket) in chunks.iter().zip(tickets).rev() {
            let response = ticket.wait();
            assert_eq!(response.len(), chunk.len());
            for (&net_idx, outcome) in chunk.iter().zip(response.outcomes()) {
                let golden = &suite[net_idx].2;
                let run = outcome.result.as_ref().unwrap();
                assert_eq!(
                    run.outputs, golden.outputs,
                    "{workers} workers, queued net {net_idx}: outputs diverged"
                );
                assert_eq!(
                    run.report.stats().to_csv(),
                    golden.report.stats().to_csv(),
                    "{workers} workers, queued net {net_idx}: per-mnemonic rows diverged"
                );
            }
        }
    }
}

/// A watchdog fault armed on one request must not fail the batch: the
/// owning worker heals in place (first rung of the ladder — the eager
/// post-failure rewind makes the retry clean) and every result, the
/// recovered one included, stays bit-identical to the golden.
#[test]
fn fault_injected_request_heals_in_place_without_failing_the_batch() {
    let level = OptLevel::IfmTile;
    let bench = rnnasip_rrm::suite().remove(3); // eisen2019
    let input = bench.input();
    let net = Arc::new(bench.network);
    let golden = KernelBackend::new(level)
        .compile_network(&net)
        .unwrap()
        .engine()
        .run(&input)
        .unwrap();

    let mut batch = BatchRequest::new();
    for i in 0..6 {
        if i == 2 {
            // A 10-cycle watchdog budget hangs the first attempt.
            batch.push_with_faults(
                net.clone(),
                level,
                input.clone(),
                FaultPlan::new().with_watchdog(10),
            );
        } else {
            batch.push(net.clone(), level, input.clone());
        }
    }

    let pool = EnginePool::with_workers(2);
    let response = pool.run_batch(batch);
    assert!(response.all_ok(), "fault must be healed, not surfaced");
    assert_eq!(response.recovered(), 1);
    for (slot, outcome) in response.outcomes().iter().enumerate() {
        let run = outcome.result.as_ref().unwrap();
        assert_eq!(run.outputs, golden.outputs, "slot {slot}");
        assert_eq!(run.report.cycles(), golden.report.cycles(), "slot {slot}");
        if slot == 2 {
            assert!(outcome.recovered());
            assert_eq!(outcome.recovery, RecoveryAction::Rewind);
        } else {
            assert_eq!(outcome.recovery, RecoveryAction::FirstTry);
        }
    }
}

/// The cluster knob: a pool built with `with_workers_and_cores` compiles
/// every shard as an N-core cluster. Outputs must stay bit-identical to
/// the serial single-core goldens, and each answer must carry the
/// cluster report (per-core rows, latency strictly below the single-core
/// cycle count on nets big enough to tile).
#[test]
fn pooled_cluster_engines_match_serial_goldens() {
    let level = OptLevel::IfmTile;
    let cores = 2;
    let suite = suite_with_goldens(level);

    let mut batch = BatchRequest::new();
    for (net, input, _) in &suite {
        batch.push(net.clone(), level, input.clone());
    }

    let pool = EnginePool::with_workers_and_cores(2, cores);
    let response = pool.run_batch(batch);
    assert!(response.all_ok(), "a clustered request failed");

    for (slot, outcome) in response.outcomes().iter().enumerate() {
        let golden = &suite[slot].2;
        let run = outcome.result.as_ref().unwrap();
        assert_eq!(
            run.outputs, golden.outputs,
            "slot {slot}: clustered outputs diverged from single-core golden"
        );
        assert_eq!(
            run.report.per_core().len(),
            cores,
            "slot {slot}: missing per-core report rows"
        );
        // Every suite net except the tiny eisen2019 MLP tiles well
        // enough that the 2-core critical path beats one core.
        if golden.report.cycles() > 10_000 {
            assert!(
                run.report.latency_cycles() < golden.report.cycles(),
                "slot {slot}: 2-core latency {} not below single-core {}",
                run.report.latency_cycles(),
                golden.report.cycles()
            );
        }
    }
}

/// Current thread count of this process (Linux `/proc`); falls back to
/// 0 where unavailable, which disables the leak bound below.
fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Graceful-shutdown regression: pools created and dropped under
/// submission load must join every worker (no thread leak across 100
/// generations) and never wedge a ticket — whether the pool is dropped
/// before or after the ticket is waited on, queued work still drains.
#[test]
fn hundred_pools_shut_down_cleanly_under_submission_load() {
    let level = OptLevel::IfmTile;
    let bench = rnnasip_rrm::suite().remove(3); // eisen2019, fast
    let input = bench.input();
    let net = Arc::new(bench.network);
    let golden = KernelBackend::new(level)
        .compile_network(&net)
        .unwrap()
        .engine()
        .run(&input)
        .unwrap();

    let before = process_threads();
    for generation in 0..100 {
        let pool = EnginePool::with_workers(1 + generation % 4);
        let mut batch = BatchRequest::new();
        for _ in 0..4 {
            batch.push(net.clone(), level, input.clone());
        }
        let ticket = pool.submit(batch);
        if generation % 2 == 0 {
            // Drop the pool FIRST: Drop closes the queue and joins
            // the workers, which drain the queue before exiting — the
            // ticket must still complete with full, correct results.
            drop(pool);
        }
        let response = ticket.wait();
        assert_eq!(response.len(), 4, "generation {generation}");
        assert!(response.all_ok(), "generation {generation}");
        for outcome in response.outcomes() {
            assert_eq!(
                outcome.result.as_ref().unwrap().outputs,
                golden.outputs,
                "generation {generation}"
            );
        }
    }
    let after = process_threads();
    // ~250 worker threads were created and joined across the loop. The
    // bound is slack (other tests run concurrently in this binary), but
    // a Drop that leaked workers would blow far past it.
    if before > 0 && after > 0 {
        assert!(
            after <= before + 16,
            "worker threads leaked: {before} -> {after}"
        );
    }
}

/// Mutes the default panic-hook banner for the pool's *injected* test
/// panics (they fire on worker threads, whose stderr libtest cannot
/// capture); every other panic still reaches the previous hook.
fn mute_injected_panic_banner() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected worker panic"));
        if !injected {
            prev(info);
        }
    }));
}

/// Worker-panic containment: an injected panic mid-request must not
/// poison the pool. The batch completes with every slot correct, the
/// panicked request retried on a quarantined-and-respawned engine, the
/// worker threads all survive, and a follow-up batch serves clean.
#[test]
fn worker_panic_is_contained_and_the_pool_stays_live() {
    mute_injected_panic_banner();
    let level = OptLevel::IfmTile;
    let bench = rnnasip_rrm::suite().remove(3); // eisen2019
    let input = bench.input();
    let net = Arc::new(bench.network);
    let golden = KernelBackend::new(level)
        .compile_network(&net)
        .unwrap()
        .engine()
        .run(&input)
        .unwrap();

    let pool = EnginePool::with_workers(2);
    let threads_before = process_threads();
    pool.inject_worker_panics(1);

    let mut batch = BatchRequest::new();
    for _ in 0..6 {
        batch.push(net.clone(), level, input.clone());
    }
    let response = pool.run_batch(batch);
    assert!(response.all_ok(), "the panicked request must be retried");
    assert_eq!(pool.worker_panics_caught(), 1, "exactly one panic fired");
    assert_eq!(pool.workers(), 2, "no worker was lost");
    assert_eq!(
        response.recovered(),
        1,
        "the retried slot reports its recovery"
    );
    for (slot, outcome) in response.outcomes().iter().enumerate() {
        let run = outcome.result.as_ref().unwrap();
        assert_eq!(run.outputs, golden.outputs, "slot {slot}");
        assert_eq!(run.report.cycles(), golden.report.cycles(), "slot {slot}");
        assert!(!outcome.sdc_detected, "a panic is not an SDC");
        if outcome.recovered() {
            assert_eq!(outcome.recovery, RecoveryAction::Rebuild);
        }
    }

    // The pool keeps serving: a second batch runs entirely clean.
    let mut batch = BatchRequest::new();
    for _ in 0..4 {
        batch.push(net.clone(), level, input.clone());
    }
    let response = pool.run_batch(batch);
    assert!(response.all_ok());
    assert_eq!(response.recovered(), 0, "no lingering damage");
    assert_eq!(pool.worker_panics_caught(), 1, "no further panics");

    // catch_unwind keeps the worker threads alive, so containment leaks
    // no threads by construction; pin it anyway.
    let threads_after = process_threads();
    if threads_before > 0 && threads_after > 0 {
        assert!(
            threads_after <= threads_before + 16,
            "threads leaked: {threads_before} -> {threads_after}"
        );
    }
}

/// SDC containment on a guarded pool: a silent weight-memory flip armed
/// on one request trips the ABFT guard, survives the verify re-run
/// (silent flips evade the dirty-block rewind by design), and is finally
/// cleared by the rebuild rung — the answer ships bit-identical to the
/// golden, flagged `sdc_detected` and `sdc_healed`. Clean slots on the
/// same guarded pool stay bit-identical to the unguarded serial path
/// with no flags raised.
#[test]
fn guarded_pool_detects_and_heals_silent_corruption() {
    let level = OptLevel::IfmTile;
    let bench = rnnasip_rrm::suite().remove(3); // eisen2019
    let input = bench.input();
    let net = Arc::new(bench.network);
    let compiled = KernelBackend::new(level).compile_network(&net).unwrap();
    let golden = compiled.engine().run(&input).unwrap();
    let bias = compiled.guards()[0].region.bias32;

    let plan = FaultPlan::new().with_fault(Fault {
        at_instret: 0,
        site: FaultSite::MemBit {
            addr: bias,
            bit: 4,
            silent: true,
        },
    });

    let pool = EnginePool::with_workers_guarded(2);
    let mut batch = BatchRequest::new();
    for i in 0..5 {
        if i == 2 {
            batch.push_with_faults(net.clone(), level, input.clone(), plan.clone());
        } else {
            batch.push(net.clone(), level, input.clone());
        }
    }
    let response = pool.run_batch(batch);
    assert!(response.all_ok(), "SDC must be contained, not surfaced");
    for (slot, outcome) in response.outcomes().iter().enumerate() {
        let run = outcome.result.as_ref().unwrap();
        assert_eq!(run.outputs, golden.outputs, "slot {slot}: outputs");
        assert_eq!(
            run.report.cycles(),
            golden.report.cycles(),
            "slot {slot}: cycles"
        );
        if slot == 2 {
            assert!(outcome.sdc_detected, "the guard must flag the flip");
            assert!(outcome.sdc_healed, "the rebuild rung must clear it");
            assert_eq!(outcome.recovery, RecoveryAction::Rebuild);
        } else {
            assert!(!outcome.sdc_detected, "slot {slot}: clean run flagged");
            assert!(!outcome.sdc_healed);
            assert_eq!(outcome.recovery, RecoveryAction::FirstTry);
        }
    }
}

/// A *tracked* (non-silent) flip heals one rung earlier: the verify
/// re-run starts from a rewound image, so the corruption is already gone
/// and the request never needs the rebuild.
#[test]
fn guarded_pool_heals_tracked_corruption_on_the_verify_rung() {
    let level = OptLevel::IfmTile;
    let bench = rnnasip_rrm::suite().remove(3); // eisen2019
    let input = bench.input();
    let net = Arc::new(bench.network);
    let compiled = KernelBackend::new(level).compile_network(&net).unwrap();
    let golden = compiled.engine().run(&input).unwrap();
    let bias = compiled.guards()[0].region.bias32;

    let plan = FaultPlan::new().with_fault(Fault {
        at_instret: 0,
        site: FaultSite::MemBit {
            addr: bias,
            bit: 4,
            silent: false,
        },
    });

    let pool = EnginePool::with_workers_guarded(1);
    let mut batch = BatchRequest::new();
    batch.push_with_faults(net.clone(), level, input.clone(), plan);
    let response = pool.run_batch(batch);
    assert!(response.all_ok());
    let outcome = &response.outcomes()[0];
    assert!(outcome.sdc_detected);
    assert!(outcome.sdc_healed);
    assert_eq!(outcome.recovery, RecoveryAction::Verify);
    let run = outcome.result.as_ref().unwrap();
    assert_eq!(run.outputs, golden.outputs);
    assert_eq!(run.report.cycles(), golden.report.cycles());
}

/// A guarded pool behind the traffic [`Front`] on clean traffic: the
/// report (per-class SDC counters included) must be byte-identical to an
/// unguarded pool's — guards cost nothing observable on clean inputs,
/// and the counters stay zero.
#[test]
fn front_over_guarded_pool_matches_unguarded_on_clean_traffic() {
    let level = OptLevel::IfmTile;
    let bench = rnnasip_rrm::suite().remove(3); // eisen2019
    let input = bench.input();
    let net = Arc::new(bench.network);
    let make = || {
        (0..12u64)
            .map(|i| Arrival {
                net: net.clone(),
                level,
                sequence: input.clone(),
                arrival: i * 500,
                deadline: i * 500 + 200_000,
                class: (i % 3) as usize,
                ue: i,
            })
            .collect::<Vec<_>>()
    };
    let cfg = FrontConfig {
        batch_window: 1_000,
        ..FrontConfig::default()
    };

    let plain = EnginePool::with_workers(2);
    let unguarded = Front::new(&plain, cfg.clone()).serve(make().into_iter());
    let armed = EnginePool::with_workers_guarded(2);
    let guarded = Front::new(&armed, cfg).serve(make().into_iter());

    assert_eq!(guarded, unguarded, "guards must be invisible when clean");
    let total = guarded.aggregate();
    assert_eq!(total.served, 12);
    assert_eq!(total.sdc_detected, 0, "no false positives");
    assert_eq!(total.sdc_healed, 0);
}
