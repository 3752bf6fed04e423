//! `summarize <span file>...`
//!
//! Turns the span files of traced runs (`perfbench ... --trace 1`) into
//! the per-layer table: every per-layer metric, each layer's share of
//! request time, and the tracing overhead (traced vs untraced
//! `throughput_rps`). With several files it ends with one row per file
//! comparing the shares and the overhead across workloads.

use perfbench::layers::{shares, summary};
use perfbench::trace::TraceData;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: summarize <span file>...");
        return ExitCode::from(2);
    }
    let mut rows = Vec::new();
    for f in &files {
        let data = match TraceData::read(Path::new(f)) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("summarize: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("== {f}");
        print!("{}", summary(&data));
        let overhead = data.counter("trace.traced_rps") / data.counter("trace.untraced_rps");
        rows.push((f.clone(), shares(&data), overhead));
    }
    if rows.len() > 1 {
        println!("\n== share of request time per workload");
        for (f, s, overhead) in rows {
            let cells: Vec<String> = s
                .iter()
                .map(|(layer, v)| format!("{layer} {:.1}%", v * 100.0))
                .collect();
            println!(
                "{f}: {}; traced/untraced throughput {overhead:.3}",
                cells.join(", ")
            );
        }
    }
    ExitCode::SUCCESS
}
