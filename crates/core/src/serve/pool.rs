//! The engine pool: worker threads with warm per-shard engines, fed from
//! one shared batch queue.

use crate::compile::CompiledNetwork;
use crate::engine::Engine;
use crate::error::CoreError;
use crate::optlevel::OptLevel;
use crate::resilience::RecoveryAction;
use crate::runner::KernelBackend;
use crate::serve::batch::{BatchItem, BatchRequest, BatchResponse, ItemOutcome};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// One engine shard: a `(network name, OptLevel)` pair. The name stands
/// in for the weights — the same contract as `rnnasip-rrm`'s
/// `EngineCache`: one name, one fixed set of weights.
type ShardKey = (String, OptLevel);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One submitted batch on the shared queue. Workers claim item indices
/// with `next`; the worker that finds it past the end pops the job.
///
/// `next` publishes no data (the items are published by the queue lock,
/// results by the batch state's locks): `fetch_add` alone makes every
/// claimed index unique, so `Relaxed` suffices.
struct Job {
    items: Vec<BatchItem>,
    next: AtomicUsize,
    state: Arc<BatchState>,
}

/// The shared FIFO of submitted batches plus the shutdown latch, guarded
/// together so a parked worker can atomically decide "nothing to claim
/// *and* not shutting down" before sleeping.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Arc<Job>>,
    closed: bool,
}

/// Shared completion state of one in-flight batch.
struct BatchState {
    slots: Mutex<Vec<Option<ItemOutcome>>>,
    progress: Mutex<usize>,
    cv: Condvar,
    total: usize,
}

impl BatchState {
    fn new(total: usize) -> Self {
        let mut slots = Vec::with_capacity(total);
        slots.resize_with(total, || None);
        Self {
            slots: Mutex::new(slots),
            progress: Mutex::new(0),
            cv: Condvar::new(),
            total,
        }
    }

    fn complete(&self, index: usize, outcome: ItemOutcome) {
        lock(&self.slots)[index] = Some(outcome);
        let mut done = lock(&self.progress);
        *done += 1;
        if *done == self.total {
            self.cv.notify_all();
        }
    }

    fn wait(&self) -> Vec<ItemOutcome> {
        let mut done = lock(&self.progress);
        while *done < self.total {
            done = self
                .cv
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(done);
        self.collect()
    }

    fn is_complete(&self) -> bool {
        *lock(&self.progress) >= self.total
    }

    fn collect(&self) -> Vec<ItemOutcome> {
        lock(&self.slots)
            .drain(..)
            .map(|slot| slot.expect("completed batch has every slot filled"))
            .collect()
    }
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    queue: Mutex<Queue>,
    /// Signalled once per submitted batch and at shutdown.
    work: Condvar,
    /// Compile-once cache: one [`CompiledNetwork`] per shard, cloned out
    /// (cheaply — the image is `Arc`-shared) to seed per-worker engines.
    /// Compilation happens under the lock, so concurrent first requests
    /// for one shard compile exactly once.
    compiled: Mutex<HashMap<ShardKey, CompiledNetwork>>,
    /// Simulated cluster cores per engine (0 = classic single-machine
    /// artifacts; `n >= 1` compiles every shard with
    /// [`KernelBackend::with_cores`]).
    cores: usize,
    /// Whether worker engines arm ABFT guards
    /// ([`Engine::set_guards`]) and climb the SDC containment ladder.
    guards: bool,
    /// Test hook: pending worker panics to inject. Each claim panics one
    /// `serve_item` call mid-request, exercising the quarantine path.
    inject_panics: AtomicUsize,
    /// Worker panics caught and contained (engine quarantined +
    /// respawned; the worker thread survived).
    panics_caught: AtomicUsize,
}

/// A ticket for a submitted batch; [`wait`](Self::wait) blocks until
/// every item has been answered.
#[must_use = "a submitted batch completes in the background; wait() collects it"]
pub struct BatchTicket {
    state: Arc<BatchState>,
}

impl BatchTicket {
    /// Blocks until the batch completes and returns the response, items
    /// in submission order.
    pub fn wait(self) -> BatchResponse {
        BatchResponse {
            outcomes: self.state.wait(),
        }
    }

    /// Whether every item of the batch has been answered (a completed
    /// ticket's [`wait`](Self::wait) returns without blocking).
    pub fn is_complete(&self) -> bool {
        self.state.is_complete()
    }

    /// Non-blocking drain: the response if the batch has completed,
    /// otherwise the ticket back — the poll hook a front-end uses to
    /// overlap useful work with an in-flight batch.
    pub fn try_wait(self) -> Result<BatchResponse, BatchTicket> {
        if self.state.is_complete() {
            Ok(BatchResponse {
                outcomes: self.state.collect(),
            })
        } else {
            Err(self)
        }
    }
}

/// A pool of worker threads serving batched RNN inference from warm,
/// worker-local [`Engine`]s.
///
/// See the [module docs](crate::serve) for topology and the determinism
/// argument.
///
/// # Example
///
/// ```
/// use rnnasip_core::serve::{BatchRequest, EnginePool};
/// use rnnasip_core::{KernelBackend, OptLevel};
/// use std::sync::Arc;
///
/// let net = Arc::new(rnnasip_rrm::suite().remove(3).network); // eisen2019
/// let input = vec![rnnasip_rrm::seeded_input(net.n_in(), 1)];
///
/// let mut batch = BatchRequest::new();
/// for _ in 0..4 {
///     batch.push(net.clone(), OptLevel::IfmTile, input.clone());
/// }
/// let pool = EnginePool::with_workers(2);
/// let response = pool.run_batch(batch);
/// assert!(response.all_ok());
///
/// // Bit-identical to the serial engine path, for every request.
/// let serial = KernelBackend::new(OptLevel::IfmTile)
///     .compile_network(&net)?
///     .engine()
///     .run(&input)?;
/// for outcome in response.outcomes() {
///     let run = outcome.result.as_ref().unwrap();
///     assert_eq!(run.outputs, serial.outputs);
///     assert_eq!(run.report.cycles(), serial.report.cycles());
/// }
/// # Ok::<(), rnnasip_core::CoreError>(())
/// ```
pub struct EnginePool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl EnginePool {
    /// A pool with one worker per available hardware thread.
    pub fn new() -> Self {
        Self::with_workers(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        )
    }

    /// A pool with exactly `workers` worker threads (at least one).
    pub fn with_workers(workers: usize) -> Self {
        Self::with_workers_and_cores(workers, 0)
    }

    /// A pool whose engines execute on simulated `cores`-core clusters:
    /// every shard is compiled with [`KernelBackend::with_cores`], so
    /// each request's report carries per-core rows and a cluster
    /// latency. `cores == 0` (the [`with_workers`](Self::with_workers)
    /// default) keeps the classic single-machine artifacts.
    pub fn with_workers_and_cores(workers: usize, cores: usize) -> Self {
        Self::build(workers, cores, false)
    }

    /// A pool whose engines run with ABFT guards armed: every request's
    /// outcome carries `sdc_detected`/`sdc_healed`, and a guard trip
    /// climbs the worker's in-place verify → rebuild ladder before the
    /// answer ships. Clean-input results stay bit-identical to an
    /// unguarded pool.
    pub fn with_workers_guarded(workers: usize) -> Self {
        Self::build(workers, 0, true)
    }

    fn build(workers: usize, cores: usize, guards: bool) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
            compiled: Mutex::new(HashMap::new()),
            cores,
            guards,
            inject_panics: AtomicUsize::new(0),
            panics_caught: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("rnnasip-serve-{id}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Test hook: arms `n` one-shot worker panics. Each of the next `n`
    /// `serve` calls across the pool panics mid-request, exercising the
    /// containment path (engine quarantined + respawned, request
    /// retried, worker thread survives).
    pub fn inject_worker_panics(&self, n: usize) {
        self.shared.inject_panics.fetch_add(n, Ordering::Relaxed);
    }

    /// How many worker panics the pool has caught and contained.
    pub fn worker_panics_caught(&self) -> usize {
        self.shared.panics_caught.load(Ordering::Relaxed)
    }

    /// Enqueues a batch and returns immediately. Batches are served in
    /// submission order; every idle worker claims items of the oldest
    /// unfinished batch, one index at a time.
    pub fn submit(&self, batch: BatchRequest) -> BatchTicket {
        let state = Arc::new(BatchState::new(batch.items.len()));
        if !batch.items.is_empty() {
            let job = Arc::new(Job {
                items: batch.items,
                next: AtomicUsize::new(0),
                state: state.clone(),
            });
            lock(&self.shared.queue).jobs.push_back(job);
            self.shared.work.notify_all();
        }
        BatchTicket { state }
    }

    /// [`submit`](Self::submit) + [`BatchTicket::wait`]: runs the batch
    /// to completion and returns per-request results in submission
    /// order.
    pub fn run_batch(&self, batch: BatchRequest) -> BatchResponse {
        self.submit(batch).wait()
    }
}

impl Default for EnginePool {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for EnginePool {
    /// Drains queued work, then stops and joins every worker.
    fn drop(&mut self) {
        lock(&self.shared.queue).closed = true;
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker body: claim items of the oldest unfinished batch, serve
/// them from this worker's warm engines, fill the batch slots.
fn worker_loop(shared: &PoolShared) {
    let mut engines: HashMap<ShardKey, Engine> = HashMap::new();
    while let Some(job) = next_job(shared) {
        loop {
            let index = job.next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = job.items.get(index) else {
                break;
            };
            let outcome = serve_item(shared, &mut engines, item);
            job.state.complete(index, outcome);
        }
    }
}

/// Blocks until the front job has an unclaimed item, popping exhausted
/// jobs on the way. Returns `None` once the pool is closed and drained.
fn next_job(shared: &PoolShared) -> Option<Arc<Job>> {
    let mut queue = lock(&shared.queue);
    loop {
        while let Some(front) = queue.jobs.front() {
            if front.next.load(Ordering::Relaxed) < front.items.len() {
                return Some(Arc::clone(front));
            }
            queue.jobs.pop_front();
        }
        if queue.closed {
            return None;
        }
        queue = shared
            .work
            .wait(queue)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// Looks up (or compiles + instantiates) the worker-local engine for the
/// item's shard.
fn warm_engine<'a>(
    shared: &PoolShared,
    engines: &'a mut HashMap<ShardKey, Engine>,
    item: &BatchItem,
) -> Result<&'a mut Engine, CoreError> {
    let key = (item.net.name().to_string(), item.level);
    match engines.entry(key) {
        std::collections::hash_map::Entry::Occupied(entry) => Ok(entry.into_mut()),
        std::collections::hash_map::Entry::Vacant(entry) => {
            let mut cache = lock(&shared.compiled);
            let compiled = match cache.entry(entry.key().clone()) {
                std::collections::hash_map::Entry::Occupied(hit) => hit.get().clone(),
                std::collections::hash_map::Entry::Vacant(miss) => {
                    let mut backend = KernelBackend::new(item.level);
                    if shared.cores >= 1 {
                        backend = backend.with_cores(shared.cores);
                    }
                    let compiled = backend.compile_network(&item.net)?;
                    miss.insert(compiled).clone()
                }
            };
            drop(cache);
            let mut engine = Engine::new(compiled);
            engine.set_guards(shared.guards);
            Ok(entry.insert(engine))
        }
    }
}

/// Claims one pending injected panic (test hook). The decrement is a
/// lock-free CAS so concurrent workers never double-claim: exactly `n`
/// calls panic after `inject_worker_panics(n)`.
fn claim_injected_panic(shared: &PoolShared) -> bool {
    shared
        .inject_panics
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// Panic-containment wrapper around [`serve_item_inner`]: a panicked
/// serve call must not poison the pool. The worker thread survives
/// (`catch_unwind`), the shard's engine — whose state the panic may have
/// left mid-run — is quarantined and respawned from the compile cache,
/// and the request retries once on the fresh engine. A second panic
/// fails the single request with [`CoreError::WorkerPanic`]; the batch
/// and the other workers keep flowing either way.
fn serve_item(
    shared: &PoolShared,
    engines: &mut HashMap<ShardKey, Engine>,
    item: &BatchItem,
) -> ItemOutcome {
    let key: ShardKey = (item.net.name().to_string(), item.level);
    match catch_unwind(AssertUnwindSafe(|| serve_item_inner(shared, engines, item))) {
        Ok(outcome) => outcome,
        Err(_) => {
            shared.panics_caught.fetch_add(1, Ordering::Relaxed);
            engines.remove(&key); // quarantine: drop the suspect engine
            match catch_unwind(AssertUnwindSafe(|| serve_item_inner(shared, engines, item))) {
                Ok(mut outcome) => {
                    // The retry ran on a respawned engine: surface the
                    // heaviest rung so `recovered()` reports it.
                    outcome.recovery = RecoveryAction::Rebuild;
                    outcome
                }
                Err(_) => {
                    shared.panics_caught.fetch_add(1, Ordering::Relaxed);
                    engines.remove(&key);
                    ItemOutcome {
                        result: Err(CoreError::WorkerPanic),
                        recovery: RecoveryAction::Rebuild,
                        sdc_detected: false,
                        sdc_healed: false,
                    }
                }
            }
        }
    }
}

/// Runs one request on this worker, climbing the in-place recovery
/// ladder on simulation failures: the engine's eager post-failure rewind
/// makes the first retry free of special handling, and a second failure
/// escalates to a full [`Engine::heal_rebuild`]. On a guarded pool, an
/// ABFT guard trip on a *successful* run climbs the same ladder — verify
/// re-run first (a transient flip rewinds away), then rebuild (sticky
/// corruption needs the staged image). Recovery never touches the
/// queue — other requests keep flowing on the remaining workers while
/// this one heals.
fn serve_item_inner(
    shared: &PoolShared,
    engines: &mut HashMap<ShardKey, Engine>,
    item: &BatchItem,
) -> ItemOutcome {
    let engine = match warm_engine(shared, engines, item) {
        Ok(engine) => engine,
        Err(e) => {
            return ItemOutcome {
                result: Err(e),
                recovery: RecoveryAction::FirstTry,
                sdc_detected: false,
                sdc_healed: false,
            }
        }
    };
    if claim_injected_panic(shared) {
        panic!("injected worker panic (serve-pool test hook)");
    }
    if let Some(plan) = &item.fault {
        engine.inject_faults(plan);
    }
    let mut recovery = RecoveryAction::FirstTry;
    let mut result = engine.run(&item.sequence);
    if matches!(result, Err(CoreError::Sim(_))) {
        // Rung 1: the failed run already healed eagerly (dirty-block
        // rewind + fault disarm), so the retry itself is the recovery.
        recovery = RecoveryAction::Rewind;
        result = engine.run(&item.sequence);
    }
    if matches!(result, Err(CoreError::Sim(_))) {
        // Rung 2: rebuild from the staged image — clears corruption the
        // dirty-block bitmap cannot see.
        engine.heal_rebuild();
        recovery = RecoveryAction::Rebuild;
        result = engine.run(&item.sequence);
    }
    let mut sdc_detected = false;
    if result.is_ok() && engine.last_guard_failed() {
        // Guard rung 0 (verify): every run starts from a rewound image,
        // so the re-run doubles as the rewind test — a transient flip is
        // gone, a sticky one trips again.
        sdc_detected = true;
        recovery = RecoveryAction::Verify;
        result = engine.run(&item.sequence);
    }
    if result.is_ok() && sdc_detected && engine.last_guard_failed() {
        // Sticky corruption: restore from the compile-time staged image.
        engine.heal_rebuild();
        recovery = RecoveryAction::Rebuild;
        result = engine.run(&item.sequence);
    }
    let sdc_healed = sdc_detected && result.is_ok() && !engine.last_guard_failed();
    ItemOutcome {
        result,
        recovery,
        sdc_detected,
        sdc_healed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_try_wait_drains_without_blocking() {
        let suite = rnnasip_rrm::suite();
        let net = Arc::new(suite[3].network.clone());
        let mut batch = BatchRequest::new();
        for _ in 0..4 {
            batch.push(net.clone(), OptLevel::IfmTile, suite[3].input());
        }
        let pool = EnginePool::with_workers(2);
        let mut ticket = pool.submit(batch);
        // Poll until the workers finish; each failed poll returns the
        // ticket intact.
        let response = loop {
            match ticket.try_wait() {
                Ok(response) => break response,
                Err(t) => {
                    ticket = t;
                    std::thread::yield_now();
                }
            }
        };
        assert_eq!(response.len(), 4);
        assert!(response.all_ok());

        // A completed ticket reports completion before the drain.
        let ticket = pool.submit(BatchRequest::new());
        assert!(ticket.is_complete());
        assert!(ticket.try_wait().is_ok());
    }

    #[test]
    fn drop_drains_every_queued_batch() {
        let suite = rnnasip_rrm::suite();
        let net = Arc::new(suite[3].network.clone());
        let pool = EnginePool::with_workers(2);
        let tickets: Vec<_> = (0..4)
            .map(|_| {
                let mut batch = BatchRequest::new();
                for _ in 0..3 {
                    batch.push(net.clone(), OptLevel::IfmTile, suite[3].input());
                }
                pool.submit(batch)
            })
            .collect();
        drop(pool);
        for ticket in tickets {
            assert!(ticket.is_complete(), "shutdown left a batch unserved");
            assert!(ticket.wait().all_ok());
        }
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let pool = EnginePool::with_workers(2);
        let response = pool.run_batch(BatchRequest::new());
        assert!(response.is_empty());
        assert!(response.all_ok());
        assert_eq!(response.merged_report().cycles(), 0);
    }

    #[test]
    fn shape_error_fails_its_slot_but_not_the_batch() {
        let suite = rnnasip_rrm::suite();
        let net = Arc::new(suite[3].network.clone());
        let good = suite[3].input();
        let mut batch = BatchRequest::new();
        batch.push(net.clone(), OptLevel::IfmTile, good.clone());
        batch.push(net.clone(), OptLevel::IfmTile, Vec::new()); // wrong seq_len
        batch.push(net.clone(), OptLevel::IfmTile, good);
        let pool = EnginePool::with_workers(2);
        let response = pool.run_batch(batch);
        assert_eq!(response.len(), 3);
        assert!(response.outcomes()[0].result.is_ok());
        assert!(matches!(
            response.outcomes()[1].result,
            Err(CoreError::Shape(_))
        ));
        assert!(response.outcomes()[2].result.is_ok());
        assert!(!response.all_ok());
    }
}
