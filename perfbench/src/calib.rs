//! Host-speed probe.
//!
//! On a shared virtual machine the host's own speed moves by tens of
//! percent within minutes, as other guests load the cores and caches
//! this one runs on. The probe is a fixed piece of work that depends on
//! no code of the repository: run next to every set-up and every timed
//! pass, it measures how fast the host was at that moment, and the
//! host-time metrics are quoted at [`REFERENCE_RATE`]. A change to the
//! program moves the workload's time and leaves the probe's alone.

use std::time::Instant;

/// Words of the probe's working set (1 MiB): past the first-level
/// caches, like the simulator's TCDM images and engines, so cache
/// pressure from other guests slows it as it slows the simulator.
const WORDS: usize = 1 << 18;

/// Iterations of one probe on one thread (about 17 ms on an unloaded
/// 2-vCPU host).
const ITERS: u32 = 2_000_000;

/// Probe iterations per second of one thread on an unloaded 2-vCPU
/// x86-64 host: a host speed of 1.
pub const REFERENCE_RATE: f64 = 1.2e8;

/// One probe on the calling thread: a chain of loads, stores and
/// branches over [`WORDS`], each load's address depending on the last
/// load. Returns iterations per second.
fn kernel(seed: u64) -> f64 {
    let mut mem: Vec<u32> = (0..WORDS as u32).collect();
    let mut x = seed | 1;
    let mut acc = 0u32;
    let start = Instant::now();
    for _ in 0..ITERS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = ((x >> 40) as usize ^ acc as usize) % WORDS;
        let v = mem[i];
        acc = if v & 1 == 0 {
            acc.rotate_left(5) ^ v
        } else {
            acc.wrapping_add(v.wrapping_mul(3))
        };
        mem[(acc as usize) % WORDS] = v ^ (x as u32);
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box((&mem, acc));
    f64::from(ITERS) / secs.max(1e-9)
}

/// Host speed now, on `threads` threads at once (the threads a workload
/// computes on): the mean probe rate over [`REFERENCE_RATE`].
pub fn host_speed(threads: usize) -> f64 {
    let threads = threads.max(1);
    let rates: Vec<f64> = std::thread::scope(|s| {
        let others: Vec<_> = (1..threads)
            .map(|t| s.spawn(move || kernel(t as u64)))
            .collect();
        let mut rates = vec![kernel(0)];
        rates.extend(others.into_iter().map(|h| h.join().expect("probe thread")));
        rates
    });
    rates.iter().sum::<f64>() / rates.len() as f64 / REFERENCE_RATE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_speed_is_positive_on_one_and_two_threads() {
        for threads in [1, 2] {
            let s = host_speed(threads);
            assert!(s.is_finite() && s > 0.0, "{threads} threads: {s}");
        }
    }
}
