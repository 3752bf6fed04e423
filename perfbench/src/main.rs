//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last on stdout, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The line
//! before it is the result record with its provenance. A traced run also
//! writes its span file (default `out/trace-<workload>-<seed>.tsv` in
//! this package; `--trace-out <path>` overrides it) and prints its
//! summary. Pools are as wide as the host's available parallelism. The
//! exit code is non-zero when an output check failed.

use perfbench::layers;
use perfbench::measure::{json_num, json_str, metrics_json, peak_rss_mb};
use perfbench::trace::Tracer;
use perfbench::workload::{Ctx, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions per run, at least; `setup_s` is their median.
const SETUPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut trace_out = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            f => return Err(format!("unknown argument {f}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_out,
    })
}

/// The commit being measured: `git rev-parse HEAD`, else "unknown" (a
/// source tree without git).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Pins glibc's mmap threshold at its 64-bit ceiling (32 MiB) and the
/// trim threshold at twice that: the state glibc moves to by itself the
/// first time it frees a large block, after which engine memory is
/// reused instead of mapped fresh. Left dynamic, whether that has
/// happened by set-up differs from run to run and moves a pool set-up
/// by a factor of four; pinned, every run sees the steady state from
/// its first allocation.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets allocator parameters; it is called
    // before the benchmark starts any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 64 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        workers: nproc,
        setups: SETUPS,
        short: false,
    };
    let start = Instant::now();
    let mut tr = Tracer::new(args.trace);
    let res =
        perfbench::run_workload(&args.workload, &ctx, &mut tr).expect("workload name was checked");
    let rss = peak_rss_mb();
    let wall_s = start.elapsed().as_secs_f64();
    let e2e = res.end_to_end(rss);
    // The traced pass is timed at the host speed of its moment, so the
    // tracing overhead compares it with the untraced passes as measured.
    let throughput = res.raw_rps();

    let provenance = format!(
        "\"workload\": {}, \"seed\": {}, \"nproc\": {nproc}, \"pool_width\": {}, \
         \"git_commit\": {}, \"rustc\": {}, \"wall_s\": {}",
        json_str(&args.workload),
        args.seed,
        ctx.workers,
        json_str(&git_commit()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_num(wall_s)
    );
    let metrics = if args.trace {
        tr.set("trace.untraced_rps", throughput);
        tr.set("trace.traced_rps", res.traced_rps.unwrap_or(0.0));
        let header = vec![
            format!("perfbench trace: {provenance}"),
            format!(
                "tracing overhead: untraced {throughput:.1} req/s, traced {:.1} req/s",
                res.traced_rps.unwrap_or(0.0)
            ),
        ];
        let data = tr.finish(header);
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("trace-{}-{}.tsv", args.workload, args.seed))
        });
        if let Err(e) = data.write(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        print!("{}", layers::summary(&data));
        println!("span file: {}", path.display());
        layers::per_layer(&data)
    } else {
        e2e.clone()
    };

    for note in &res.notes {
        println!("{note}");
    }
    for m in &e2e {
        println!("{:<24} {:>20.4} {}", m.name, m.value, m.unit);
    }
    let list = |v: &[f64]| {
        v.iter()
            .map(|s| json_num(*s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "{{\"record\": {{{provenance}, \"trace\": {}, \"setup_runs_s\": [{}], \
         \"setup_host_speed\": [{}], \"pass_rps\": [{}], \"pass_host_speed\": [{}], \
         \"latency_samples\": {}, \"end_to_end\": {}}}}}",
        u8::from(args.trace),
        list(&res.setup_s),
        list(&res.setup_speed),
        list(&res.pass_rps),
        list(&res.pass_speed),
        res.latency.count(),
        metrics_json(&e2e)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        res.failed == 0,
        res.attempted.max(1),
        res.failed,
        metrics_json(&metrics)
    );
    if res.failed > 0 {
        eprintln!("perfbench: {} output check(s) failed", res.failed);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
