//! Concurrent batch serving: a pool of warm engines fed from one shared
//! batch queue.
//!
//! The paper's deployment story is a base-station controller scoring
//! many users per scheduling tick; PRs 2–4 built the single-request
//! machinery (compile-once artifacts, warm [`Engine`]s, self-healing),
//! and this module turns that warm-engine reuse into aggregate
//! throughput:
//!
//! - [`EnginePool`] owns N `std::thread` workers. Each worker keeps its
//!   own warm [`Engine`] per **shard** — a `(network name, OptLevel)`
//!   pair — seeded from a pool-wide compile-once cache of
//!   [`CompiledNetwork`](crate::CompiledNetwork) artifacts, so a network
//!   is compiled exactly once per level no matter how many workers serve
//!   it. An engine is only as large as its network's staged data, so a
//!   worker builds one for a shard it has not served yet in tens of µs.
//! - [`BatchRequest`] carries a slab of input windows (each against any
//!   network/level); [`BatchResponse`] returns per-request results in
//!   **submission order** plus an order-independent aggregate
//!   ([`BatchResponse::merged_report`]).
//! - [`EnginePool::submit`] pushes each non-empty batch as one job onto
//!   a shared FIFO (`Mutex<VecDeque>` plus one `Condvar` wake per
//!   batch). Workers **claim** item indices from the front job with an
//!   atomic counter, so a request costs one `fetch_add` of hand-off, not
//!   a lock and a wake; the worker that finds the job exhausted pops it.
//!   Each request then pays only the dirty-block rewind and a bulk input
//!   patch on the claiming worker's warm engine.
//! - A worker whose run fails a simulation heals **in place** (the
//!   rewind → rebuild ladder of the resilience module) and keeps
//!   serving; the batch still completes, and the outcome records which
//!   rung recovered it.
//! - [`Front`] puts a deadline-aware traffic front-end over the pool:
//!   EDF-ordered admission from a bounded queue with shed/reject
//!   backpressure, micro-batching under a virtual-time window, and
//!   p50/p99/p999 latency accounting ([`LatencyHistogram`]) against a
//!   fixed virtual-server deadline model — byte-deterministic at any
//!   worker count (see [`Front`]).
//!
//! # Determinism
//!
//! Pooled results are bit-identical to serial execution at every worker
//! count and submission order, because every ingredient is:
//! every run starts from a full rewind of the same staged image
//! (engine runs are bit-exact regardless of history — the PR 2
//! differential property), workers never share mutable state, responses
//! are indexed by submission slot rather than completion order, and the
//! aggregate merges `u64` counters, which commute. The
//! `serve_pool_determinism` test pins all of this against the serial
//! suite golden from PR 1 at 1, 2, and 8 workers with shuffled
//! submission.
//!
//! [`Engine`]: crate::Engine

mod batch;
mod front;
mod latency;
mod pool;

pub use batch::{BatchItem, BatchRequest, BatchResponse, ItemOutcome};
pub use front::{
    output_fingerprint, Arrival, ClassStats, Front, FrontConfig, OverloadPolicy, TrafficReport,
};
pub use latency::LatencyHistogram;
pub use pool::{BatchTicket, EnginePool};

// The pool moves networks, fault plans and engines across threads; keep
// that property pinned at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<BatchRequest>();
    assert_send::<BatchResponse>();
    assert_send::<crate::Engine>();
};
