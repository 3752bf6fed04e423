//! Differential and determinism tests for the multi-core cluster path.
//!
//! Three contracts from the cluster refactor:
//!
//! 1. **N=1 bit-identity** — compiling with `with_cores(1)` routes
//!    through the cluster program/engine machinery, yet must be
//!    architecturally indistinguishable from the classic single-machine
//!    path: same outputs, same cycle count, same instret, same
//!    per-mnemonic statistics rows, on the full 10-net suite at all
//!    five optimization levels.
//! 2. **Multi-core output identity + run determinism** — partitioned
//!    clusters must reproduce the single-core outputs bit-for-bit, and
//!    repeated runs of a warm cluster engine must agree on every
//!    simulated figure (latency, DMA, barriers, per-core stalls).
//! 3. **Right-sized images** — every compiled image, single-core and
//!    cluster, ends at the layout's high-water mark rounded up to one
//!    64-byte dirty block, and stays under 512 KiB across the suite.
//! 4. **Bench byte-determinism** — the `BENCH_cluster.json` pipeline
//!    (seeded suite inputs, 2-core cluster) must serialize to the
//!    identical byte string across repeated measurements, which is what
//!    entitles `cluster_scaling --check` to exact string comparison.

use rnnasip_bench::{cluster, par};
use rnnasip_core::{CompiledNetwork, KernelBackend, OptLevel};
use rnnasip_sim::Row;
use std::collections::BTreeMap;

/// Per-mnemonic rows in canonical (name-sorted) form for comparison.
fn rows(run: &rnnasip_core::NetworkRun) -> BTreeMap<&'static str, Row> {
    run.report.stats().iter().collect()
}

/// The image length a compiled artifact must have: its last allocation's
/// end, rounded up to a 64-byte block. Every suite network ends in an FC
/// stage, whose output buffer (outputs plus one slack halfword,
/// word-aligned) is the last single-core allocation; a multi-core
/// artifact allocates its L2 input staging area last.
fn expected_image_len(compiled: &CompiledNetwork) -> usize {
    let high_water = if compiled.cores() >= 2 {
        let input = compiled.input();
        input.base() as usize + (2 * input.width() * input.steps()).next_multiple_of(4)
    } else {
        let out = compiled.output();
        out.base() as usize + (2 * (out.len() + 1)).next_multiple_of(4)
    };
    high_water.next_multiple_of(64)
}

/// Problems with `compiled`'s image size, tagged for the failure report.
fn image_problems(tag: &str, compiled: &CompiledNetwork) -> Vec<String> {
    let (len, want) = (compiled.image().len(), expected_image_len(compiled));
    let mut problems = Vec::new();
    if len != want {
        problems.push(format!(
            "{tag}: image is {len} bytes, high-water mark gives {want}"
        ));
    }
    if len >= 512 << 10 {
        problems.push(format!("{tag}: image {len} bytes is not under 512 KiB"));
    }
    problems
}

#[test]
fn n1_cluster_is_bit_identical_to_single_core_path() {
    let suite = rnnasip_rrm::suite();
    let cases: Vec<(usize, OptLevel)> = (0..suite.len())
        .flat_map(|i| OptLevel::ALL.into_iter().map(move |level| (i, level)))
        .collect();

    let failures: Vec<String> = par::par_map(&cases, |&(i, level)| {
        let net = &suite[i];
        let input = net.input();
        let tag = format!("{} level {}", net.id, level.tag());

        let single_compiled = KernelBackend::new(level)
            .compile_network(&net.network)
            .unwrap_or_else(|e| panic!("{tag}: compile failed: {e}"));
        let single = single_compiled
            .engine()
            .run(&input)
            .unwrap_or_else(|e| panic!("{tag}: single-core run failed: {e}"));
        let compiled = KernelBackend::new(level)
            .with_cores(1)
            .compile_network(&net.network)
            .unwrap_or_else(|e| panic!("{tag}: cluster compile failed: {e}"));
        assert_eq!(compiled.cores(), 1, "{tag}: cores knob");
        let clustered = compiled
            .engine()
            .run(&input)
            .unwrap_or_else(|e| panic!("{tag}: 1-core cluster run failed: {e}"));

        let mut problems = Vec::new();
        if clustered.outputs != single.outputs {
            problems.push("outputs");
        }
        if compiled.image().as_bytes() != single_compiled.image().as_bytes() {
            problems.push("image");
        }
        if clustered.report.cycles() != single.report.cycles() {
            problems.push("cycles");
        }
        if clustered.report.instrs() != single.report.instrs() {
            problems.push("instret");
        }
        if rows(&clustered) != rows(&single) {
            problems.push("per-mnemonic rows");
        }
        let mut failures = image_problems(&tag, &single_compiled);
        if !problems.is_empty() {
            failures.push(format!("{tag}: diverged on {}", problems.join(", ")));
        }
        failures
    })
    .into_iter()
    .flatten()
    .collect();

    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn multi_core_outputs_match_and_warm_runs_are_deterministic() {
    let suite = rnnasip_rrm::suite();
    // Baseline exercises the software-PLA/spill kernels, IfmTile the
    // fully-extended ones — the two ends of the codegen spectrum.
    let levels = [OptLevel::Baseline, OptLevel::IfmTile];
    let cases: Vec<(usize, OptLevel)> = (0..suite.len())
        .flat_map(|i| levels.into_iter().map(move |level| (i, level)))
        .collect();

    let failures: Vec<String> = par::par_map(&cases, |&(i, level)| {
        let net = &suite[i];
        let input = net.input();
        let single = KernelBackend::new(level)
            .compile_network(&net.network)
            .unwrap()
            .engine()
            .run(&input)
            .unwrap();
        let mut problems = Vec::new();
        for cores in [2usize, 4] {
            let tag = format!("{} level {} x{cores}", net.id, level.tag());
            let compiled = KernelBackend::new(level)
                .with_cores(cores)
                .compile_network(&net.network)
                .unwrap_or_else(|e| panic!("{tag}: compile failed: {e}"));
            problems.extend(image_problems(&tag, &compiled));
            let mut engine = compiled.engine();
            let first = engine
                .run(&input)
                .unwrap_or_else(|e| panic!("{tag}: first run failed: {e}"));
            let second = engine
                .run(&input)
                .unwrap_or_else(|e| panic!("{tag}: second run failed: {e}"));
            if first.outputs != single.outputs {
                problems.push(format!("{tag}: outputs diverge from single-core"));
            }
            if first.report.per_core().len() != cores {
                problems.push(format!("{tag}: missing per-core rows"));
            }
            let same = second.outputs == first.outputs
                && second.report.latency_cycles() == first.report.latency_cycles()
                && second.report.dma_cycles() == first.report.dma_cycles()
                && second.report.barrier_cycles() == first.report.barrier_cycles()
                && rows(&second) == rows(&first)
                && second
                    .report
                    .per_core()
                    .iter()
                    .zip(first.report.per_core())
                    .all(|(a, b)| {
                        a.conflict_stalls == b.conflict_stalls
                            && a.stats.cycles() == b.stats.cycles()
                    });
            if !same {
                problems.push(format!("{tag}: warm rerun not deterministic"));
            }
        }
        problems
    })
    .into_iter()
    .flatten()
    .collect();

    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn cluster_images_end_at_the_rounded_high_water_mark_at_every_level() {
    let suite = rnnasip_rrm::suite();
    let cases: Vec<(usize, OptLevel, usize)> = (0..suite.len())
        .flat_map(|i| {
            OptLevel::ALL
                .into_iter()
                .flat_map(move |level| [2usize, 4, 8].map(|cores| (i, level, cores)))
        })
        .collect();
    let failures: Vec<String> = par::par_map(&cases, |&(i, level, cores)| {
        let tag = format!("{} level {} x{cores}", suite[i].id, level.tag());
        let compiled = KernelBackend::new(level)
            .with_cores(cores)
            .compile_network(&suite[i].network)
            .unwrap_or_else(|e| panic!("{tag}: compile failed: {e}"));
        image_problems(&tag, &compiled)
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn two_core_bench_json_is_byte_identical_across_runs() {
    let counts = [1usize, 2];
    let first = cluster::to_json(&cluster::measure(&counts), &counts);
    let second = cluster::to_json(&cluster::measure(&counts), &counts);
    assert_eq!(
        first, second,
        "BENCH_cluster.json document must be byte-deterministic"
    );
    assert!(first.contains("\"cores\":2"), "2-core points present");
    assert!(first.contains("\"conflict_stalls\""), "stall rows present");
}
