//! The run phase of the compile-once / run-many split.
//!
//! An [`Engine`] owns a reusable [`Machine`] seeded from a
//! [`CompiledNetwork`]'s staged image. Each [`run`](Engine::run) rewinds
//! the machine (restoring only the memory blocks the previous run
//! dirtied — see `rnnasip_sim::Memory::restore_image`), patches the new
//! input window, simulates, and reads the outputs back. Per-request host
//! cost is therefore simulation plus a restore proportional to the
//! kernel's write footprint, not re-staging megabytes of weights or
//! re-assembling the program.
//!
//! Runs are bit-identical to the legacy fresh-session path: same Q3.12
//! outputs, same cycle counts, same per-mnemonic histograms.

use crate::compile::CompiledNetwork;
use crate::error::CoreError;
use crate::report::{CoreReport, RunReport};
use crate::runner::NetworkRun;
use rnnasip_fixed::Q3p12;
use rnnasip_sim::{Cluster, FaultPlan, FaultRecord, Machine, Memory};
use std::sync::Arc;

/// The engine's execution substrate: one machine, or a simulated
/// multi-core cluster when the artifact carries a cluster lowering.
#[derive(Debug)]
enum Exec {
    Single(Box<Machine>),
    Cluster(Cluster),
}

/// A reusable executor for one [`CompiledNetwork`].
///
/// # Example
///
/// ```
/// use rnnasip_core::{KernelBackend, OptLevel};
///
/// let net = rnnasip_rrm::suite().remove(3).network; // eisen2019 MLP
/// let compiled = KernelBackend::new(OptLevel::IfmTile).compile_network(&net)?;
/// let mut engine = compiled.engine();
/// let input = vec![rnnasip_rrm::seeded_input(net.n_in(), 1)];
/// let first = engine.run(&input)?;
/// let second = engine.run(&input)?;
/// assert_eq!(first.outputs, second.outputs);
/// assert_eq!(first.report.cycles(), second.report.cycles());
/// # Ok::<(), rnnasip_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    compiled: CompiledNetwork,
    exec: Exec,
    last_restored: usize,
    last_fault_log: Vec<FaultRecord>,
    last_faulted_core: Option<usize>,
    /// Which cluster core the next injected plan arms on (cluster
    /// engines only).
    fault_core: usize,
    /// Reusable input-patch staging: the request sequence flattened to
    /// little-endian halfword bytes, written into the TCDM in one bulk
    /// copy. Hoisted out of `run` so back-to-back inferences (the
    /// serving hot path) allocate nothing per request.
    patch: Vec<u8>,
    /// Whether ABFT guards are armed on the machine (single-machine
    /// engines only; cluster substrates have no guard monitor).
    guards_on: bool,
    /// Whether the most recent successful run tripped a guard.
    last_guard_failed: bool,
}

impl Engine {
    /// Builds an engine around `compiled`: one machine (or one cluster,
    /// when the artifact carries a cluster lowering), its memory loaded
    /// from the staged image, the program loaded once — sharing the
    /// artifact's micro-op translation instead of re-translating.
    pub fn new(compiled: CompiledNetwork) -> Self {
        let exec = Self::build_exec(&compiled);
        let patch_capacity = 2 * compiled.input().width() * compiled.input().steps();
        Self {
            compiled,
            exec,
            last_restored: 0,
            last_fault_log: Vec::new(),
            last_faulted_core: None,
            fault_core: 0,
            patch: Vec::with_capacity(patch_capacity),
            guards_on: false,
            last_guard_failed: false,
        }
    }

    fn build_exec(compiled: &CompiledNetwork) -> Exec {
        match compiled.cluster() {
            Some(cluster) => Exec::Cluster(Cluster::new(
                Arc::clone(cluster),
                Memory::from_image(compiled.image()),
            )),
            None => {
                let mut machine = Machine::with_memory(Memory::from_image(compiled.image()));
                machine.load_program_shared(compiled.program(), compiled.uop_program().clone());
                Exec::Single(Box::new(machine))
            }
        }
    }

    /// The artifact this engine executes.
    pub fn compiled(&self) -> &CompiledNetwork {
        &self.compiled
    }

    /// Read-only view of the underlying machine — cycle counters,
    /// statistics, and block-runner coverage diagnostics. Note that
    /// `Machine::bulk_instrs` is cumulative over the machine's lifetime
    /// (runs are rewound, the counter is not; a rebuild starts a fresh
    /// machine at 0): read it before and after a run and divide the
    /// difference by that run's instructions for its bulk coverage. For
    /// a cluster engine this is core 0; use [`cluster`](Self::cluster)
    /// for the full picture.
    pub fn machine(&self) -> &Machine {
        match &self.exec {
            Exec::Single(m) => m,
            Exec::Cluster(c) => c.machine(0),
        }
    }

    /// The cluster substrate, when this engine executes a clustered
    /// artifact.
    pub fn cluster(&self) -> Option<&Cluster> {
        match &self.exec {
            Exec::Single(_) => None,
            Exec::Cluster(c) => Some(c),
        }
    }

    /// Memory bytes the last [`run`](Self::run) had to restore from the
    /// staged image (0 before the first run; small relative to the TCDM
    /// because only kernel-written blocks are dirty).
    pub fn last_restored_bytes(&self) -> usize {
        self.last_restored
    }

    /// Runs one inference: rewind, patch inputs, simulate, read outputs.
    ///
    /// `sequence` must have the network's `seq_len` steps of `n_in`
    /// elements each (non-recurrent networks take a single step). The
    /// simulation is bounded by the compiled watchdog budget
    /// ([`CompiledNetwork::max_cycles`], by default
    /// [`DEFAULT_WATCHDOG_CYCLES`](crate::DEFAULT_WATCHDOG_CYCLES)).
    ///
    /// # Errors
    ///
    /// [`CoreError::Shape`] on sequence length/width mismatch, or any
    /// simulation error. A failed run **heals eagerly**: the engine
    /// disarms any remaining injected faults and rewinds its memory
    /// before returning, so the next run behaves bit-identically to a
    /// fresh engine (unless the failure corrupted state the dirty-block
    /// bitmap cannot see — then [`heal_rebuild`](Self::heal_rebuild)).
    pub fn run(&mut self, sequence: &[Vec<Q3p12>]) -> Result<NetworkRun, CoreError> {
        let mut outputs = Vec::with_capacity(self.compiled.output().len());
        let report = self.run_inner(sequence, false, None, &mut outputs)?;
        Ok(NetworkRun { outputs, report })
    }

    /// Allocation-lean twin of [`run`](Self::run): outputs land in a
    /// caller-owned buffer (cleared first) instead of a fresh `Vec`, so
    /// a tight serving loop that recycles its buffers pays no per-request
    /// output allocation. Same semantics and bit-identical results
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run); `outputs` is cleared on error.
    pub fn run_into(
        &mut self,
        sequence: &[Vec<Q3p12>],
        outputs: &mut Vec<Q3p12>,
    ) -> Result<RunReport, CoreError> {
        self.run_inner(sequence, false, None, outputs)
    }

    /// Like [`run`](Self::run), but simulating through the reference
    /// per-step interpreter (`Machine::run_legacy`) instead of the
    /// micro-op path. Outputs, cycle counts and per-mnemonic rows are
    /// bit-identical to [`run`](Self::run); only host time differs. Used
    /// by the differential tests and the `sim_throughput` benchmark's
    /// legacy column.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_reference(&mut self, sequence: &[Vec<Q3p12>]) -> Result<NetworkRun, CoreError> {
        let mut outputs = Vec::with_capacity(self.compiled.output().len());
        let report = self.run_inner(sequence, true, None, &mut outputs)?;
        Ok(NetworkRun { outputs, report })
    }

    /// Like [`run`](Self::run) with the watchdog budget overridden for
    /// this run only — tighter for latency-bounded callers, looser for
    /// deliberately slow experiments. An injected plan's forced watchdog
    /// ([`FaultPlan::with_watchdog`]) still caps the effective budget
    /// when smaller.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run); exceeding `max_cycles` is
    /// `CoreError::Sim(SimError::Watchdog { .. })`.
    pub fn run_budgeted(
        &mut self,
        sequence: &[Vec<Q3p12>],
        max_cycles: u64,
    ) -> Result<NetworkRun, CoreError> {
        let mut outputs = Vec::with_capacity(self.compiled.output().len());
        let report = self.run_inner(sequence, false, Some(max_cycles), &mut outputs)?;
        Ok(NetworkRun { outputs, report })
    }

    /// [`run_budgeted`](Self::run_budgeted) through the reference
    /// per-step interpreter — the legacy column of the fault campaign's
    /// cross-path determinism check.
    ///
    /// # Errors
    ///
    /// Same as [`run_budgeted`](Self::run_budgeted).
    pub fn run_reference_budgeted(
        &mut self,
        sequence: &[Vec<Q3p12>],
        max_cycles: u64,
    ) -> Result<NetworkRun, CoreError> {
        let mut outputs = Vec::with_capacity(self.compiled.output().len());
        let report = self.run_inner(sequence, true, Some(max_cycles), &mut outputs)?;
        Ok(NetworkRun { outputs, report })
    }

    /// Arms a [`FaultPlan`] for the **next run only**. The plan's faults
    /// fire at their `instret` triggers during that run (on either
    /// execution path); whatever the outcome, the engine disarms the
    /// plan afterwards and keeps the applied-fault records readable via
    /// [`last_fault_log`](Self::last_fault_log).
    ///
    /// # Example
    ///
    /// ```
    /// use rnnasip_core::{FaultPlan, KernelBackend, OptLevel};
    ///
    /// let net = rnnasip_rrm::suite().remove(3).network; // eisen2019 MLP
    /// let compiled = KernelBackend::new(OptLevel::IfmTile).compile_network(&net)?;
    /// let mut engine = compiled.engine();
    /// let input = vec![rnnasip_rrm::seeded_input(net.n_in(), 1)];
    /// let golden = engine.run(&input)?;
    ///
    /// engine.inject_faults(&FaultPlan::new().with_watchdog(10));
    /// assert!(engine.run(&input).is_err()); // hangs the next run
    ///
    /// let healed = engine.run(&input)?; // auto-rewound: fresh again
    /// assert_eq!(healed.outputs, golden.outputs);
    /// assert_eq!(healed.report.cycles(), golden.report.cycles());
    /// # Ok::<(), rnnasip_core::CoreError>(())
    /// ```
    pub fn inject_faults(&mut self, plan: &FaultPlan) {
        match &mut self.exec {
            Exec::Single(m) => m.arm_faults(plan),
            Exec::Cluster(c) => {
                let core = self.fault_core.min(c.cores().saturating_sub(1));
                c.arm_faults(plan, core);
            }
        }
    }

    /// Selects which cluster core the next [`inject_faults`] plan arms
    /// on (ignored by single-machine engines; clamped to the cluster
    /// width).
    ///
    /// [`inject_faults`]: Self::inject_faults
    pub fn set_fault_core(&mut self, core: usize) {
        self.fault_core = core;
    }

    /// The core that faulted or raised the error on the most recent run
    /// — `None` when the run succeeded with no fault activity. A
    /// single-machine engine reports core 0 when an injected fault
    /// contributed to a failed run.
    pub fn last_faulted_core(&self) -> Option<usize> {
        self.last_faulted_core
    }

    /// The fault records of the most recent run (empty when nothing was
    /// injected or no fault fired) — preserved across the post-run
    /// disarm/heal so campaigns can attribute an outcome to what was
    /// actually hit.
    pub fn last_fault_log(&self) -> &[FaultRecord] {
        &self.last_fault_log
    }

    /// Arms (or disarms) the compiled artifact's ABFT guards on the
    /// underlying machine. Guarded runs verify every kernel region's
    /// column checksum natively at region exit and attach a
    /// [`GuardReport`](rnnasip_sim::GuardReport) to the
    /// [`RunReport`]; outputs, cycle counts and per-mnemonic rows stay
    /// bit-identical to unguarded runs on clean inputs (the analytic
    /// guard surcharge lives in the report's separate
    /// `guard_cycles` counter). No-op for cluster engines and for the
    /// reference interpreter path, neither of which the guard monitor
    /// observes.
    pub fn set_guards(&mut self, on: bool) {
        self.guards_on = on && self.compiled.cluster().is_none();
        if let Exec::Single(m) = &mut self.exec {
            if self.guards_on {
                m.arm_guards(Arc::clone(self.compiled.guards()));
            } else {
                m.disarm_guards();
            }
        }
    }

    /// Whether ABFT guards are currently armed on this engine.
    pub fn guards_enabled(&self) -> bool {
        self.guards_on
    }

    /// Whether the most recent successful guarded run tripped a guard
    /// (`false` after unguarded, reference, or failed runs). Engine
    /// pools use this to quarantine a possibly-corrupted engine instead
    /// of recycling it.
    pub fn last_guard_failed(&self) -> bool {
        self.last_guard_failed
    }

    /// Rebuilds the machine from the compiled artifact: fresh memory
    /// loaded from the full staged image, program reloaded (clearing any
    /// instruction-word corruption), all fault state gone.
    ///
    /// This is the heavy rung of the recovery ladder: the eager rewind
    /// after a failed run undoes *tracked* writes, but a fault that
    /// evaded the dirty-block bitmap (a silent memory upset) or that
    /// corrupted the program image itself survives rewinds — only a full
    /// rebuild restores the engine's invariants. Cost is proportional to
    /// the whole image rather than the last run's write footprint.
    pub fn heal_rebuild(&mut self) {
        self.exec = Self::build_exec(&self.compiled);
        self.last_restored = self.compiled.image().len();
        self.last_guard_failed = false;
        // `build_exec` reloads the program, which drops any armed guard
        // unit; restore the caller's guard setting on the fresh machine.
        if self.guards_on {
            if let Exec::Single(m) = &mut self.exec {
                m.arm_guards(Arc::clone(self.compiled.guards()));
            }
        }
    }

    fn run_inner(
        &mut self,
        sequence: &[Vec<Q3p12>],
        reference: bool,
        budget: Option<u64>,
        outputs: &mut Vec<Q3p12>,
    ) -> Result<RunReport, CoreError> {
        let input = self.compiled.input();
        if sequence.len() != input.steps() {
            return Err(CoreError::Shape(format!(
                "sequence length {} != network seq_len {}",
                sequence.len(),
                input.steps()
            )));
        }
        for x in sequence {
            if x.len() != input.width() {
                return Err(CoreError::Shape(format!(
                    "input width {} != network input width {}",
                    x.len(),
                    input.width()
                )));
            }
        }
        let result = self.attempt(sequence, reference, budget, outputs);
        // One-shot injection semantics: stash what the plan actually did,
        // then disarm so the next run is unaffected; on failure also
        // rewind eagerly so a poisoned engine heals before the caller
        // ever observes it again (DESIGN.md, "Fault model & recovery").
        match &mut self.exec {
            Exec::Single(m) => {
                self.last_fault_log = m.fault_log().to_vec();
                self.last_faulted_core = if result.is_err() && !self.last_fault_log.is_empty() {
                    Some(0)
                } else {
                    None
                };
                m.clear_faults();
                if result.is_err() {
                    outputs.clear();
                    self.last_restored = m.rewind(self.compiled.image());
                }
            }
            Exec::Cluster(c) => {
                self.last_fault_log.clear();
                for core in 0..c.cores() {
                    self.last_fault_log.extend_from_slice(c.fault_log(core));
                }
                self.last_faulted_core = c.last_faulted_core();
                c.clear_faults();
                if result.is_err() {
                    outputs.clear();
                    self.last_restored = c.rewind(self.compiled.image());
                }
            }
        }
        result
    }

    fn attempt(
        &mut self,
        sequence: &[Vec<Q3p12>],
        reference: bool,
        budget: Option<u64>,
        outputs: &mut Vec<Q3p12>,
    ) -> Result<RunReport, CoreError> {
        let input = self.compiled.input();
        self.last_guard_failed = false;
        // The sequence is contiguous in the staged layout (step t at
        // base + 2*t*width), so it flattens into the reusable patch
        // scratch and lands in one bulk write.
        self.patch.clear();
        for x in sequence {
            for v in x {
                self.patch
                    .extend_from_slice(&(v.raw() as u16).to_le_bytes());
            }
        }
        let max_cycles = budget.unwrap_or_else(|| self.compiled.max_cycles());
        match &mut self.exec {
            Exec::Single(machine) => {
                self.last_restored = machine.rewind(self.compiled.image());
                machine.mem_mut().write_bytes(input.base(), &self.patch)?;
                // Seed the guard ledger with the freshly patched input
                // window, so the first region's input-sum check covers
                // flips that land before the kernel ever reads it.
                machine.guard_note_range(input.base(), (self.patch.len() / 2) as u32);
                let started = std::time::Instant::now();
                if reference {
                    machine.run_legacy(max_cycles)?;
                } else {
                    machine.run(max_cycles)?;
                }
                let host_nanos = started.elapsed().as_nanos() as u64;
                let out = self.compiled.output();
                machine
                    .mem()
                    .read_q3p12_into(out.base(), out.len(), outputs)?;
                let mut report =
                    RunReport::new(machine.stats().clone()).with_host_nanos(host_nanos);
                // The guard monitor only observes the micro-op path; a
                // reference run with guards armed reports nothing.
                if !reference {
                    if let Some(mut guard) = machine.guard_report() {
                        // Final rung of the ledger chain: the output
                        // window as read back must still sum to what the
                        // last region wrote there.
                        if machine.guard_verify_range(out.base(), out.len() as u32) == Some(false) {
                            guard.output_check_failed = true;
                        }
                        self.last_guard_failed = guard.failed();
                        report = report.with_guard(guard);
                    }
                }
                Ok(report)
            }
            Exec::Cluster(cluster) => {
                self.last_restored = cluster.rewind(self.compiled.image());
                cluster.mem_mut().write_bytes(input.base(), &self.patch)?;
                let started = std::time::Instant::now();
                cluster.run_with(max_cycles, reference)?;
                let host_nanos = started.elapsed().as_nanos() as u64;
                let out = self.compiled.output();
                cluster
                    .mem()
                    .read_q3p12_into(out.base(), out.len(), outputs)?;
                let per_core = (0..cluster.cores())
                    .map(|c| CoreReport {
                        core: c,
                        stats: cluster.machine(c).stats().clone(),
                        conflict_stalls: cluster.conflict_stalls(c),
                    })
                    .collect();
                Ok(RunReport::new(cluster.merged_stats())
                    .with_host_nanos(host_nanos)
                    .with_cluster(
                        per_core,
                        cluster.dma_cycles(),
                        cluster.barrier_cycles(),
                        cluster.latency_cycles(),
                    ))
            }
        }
    }
}
