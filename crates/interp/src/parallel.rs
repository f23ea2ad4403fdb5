//! Chunked multithreaded execution of top-level multiloops.
//!
//! The key runtime insight of §5 is that "a multiloop is agnostic to whether
//! it runs over the entire loop bounds or a subset of the loop bounds": the
//! executor splits each top-level loop's index range into chunks, evaluates
//! each chunk on a worker thread with a private accumulator, and merges the
//! per-chunk accumulators *in chunk order* — so `Collect` and bucket outputs
//! are bit-identical to sequential execution. `Reduce` outputs combine
//! partials with the (associative) reduction operator; for floating-point
//! reductions this can reassociate rounding, exactly as on real parallel
//! hardware.
//!
//! ## Work stealing
//!
//! The range is over-decomposed into block-granular tasks (several per
//! worker, block-aligned when the range spans full blocks) seeded onto
//! per-worker deques. A worker pops its own deque from the front and, when
//! empty, steals from the *back* of a victim's deque — so stragglers
//! (including fault-injected latency spikes) no longer bound wall-clock the
//! way a static one-chunk-per-thread split did. Stealing only changes
//! *which thread* runs a task, never the merge: task results are recorded
//! by task id and merged in task order after the round, so results remain
//! bit-identical under any steal interleaving.
//!
//! ## Fault tolerance
//!
//! The same agnosticism makes chunk-level recovery free of lineage
//! machinery: a chunk that dies (worker panic, or an injected fault from
//! [`ChunkFaults`]) is simply re-executed over just its subrange, and the
//! merged result is identical to the fault-free run because merging is in
//! chunk order regardless of *when* each chunk's accumulator was produced.
//! Workers run under `catch_unwind`, so a panicking chunk cannot abort the
//! process; deterministic interpreter errors (a real out-of-bounds read,
//! say) propagate immediately rather than being retried. A chunk whose
//! injected fault is *persistent* fails every attempt and surfaces a typed
//! [`EvalError::ChunkRetriesExhausted`] once the per-chunk retry cap is
//! spent — never an infinite retry loop, never a silently dropped
//! subrange. The [`ExecReport`] returned by [`eval_parallel_report`] makes
//! recovery observable to tests and benchmarks.
//!
//! ## Supervision
//!
//! A [`dmll_runtime::Supervisor`] attached via
//! [`ParallelOptions::supervised`] turns the executor into a *supervised*
//! run, polled at every task boundary:
//!
//! * **Deadline / cancellation** — when the wall-clock deadline expires or
//!   the run's [`dmll_runtime::CancelToken`] fires, workers drain their
//!   in-flight task and abandon everything queued; the run surfaces a typed
//!   [`ExecError::Deadline`] / [`ExecError::Cancelled`] carrying the
//!   partial [`ExecReport`]. Abort latency is therefore bounded by one task
//!   granularity.
//! * **Straggler speculation** — an idle worker with nothing to steal
//!   clones a task running past the adaptive latency cutoff
//!   ([`dmll_runtime::SpeculationPolicy`]) and races it; the first result
//!   recorded for a task id wins. Task execution is deterministic over a
//!   fixed subrange, so both copies produce identical accumulators and
//!   speculation can never change output — only wall-clock.
//! * **Quarantine** — workers whose tasks keep dying trip a per-worker
//!   circuit breaker ([`dmll_runtime::Quarantine`]) and stop receiving or
//!   stealing work until a half-open probe readmits them. Worker 0 is the
//!   designated survivor: it never parks, so the pool can always drain
//!   even if every other breaker is open.
//! * **Retry budget** — chunk re-executions across the whole run are
//!   charged against [`dmll_runtime::SupervisorPolicy::retry_budget`];
//!   exhaustion surfaces [`ExecError::RetryBudgetExhausted`] instead of
//!   retrying forever in aggregate.
//!
//! ## Execution tiers
//!
//! Each top-level loop first tries the compiled bytecode tier
//! (`crate::compile`): when the loop compiles, every worker chunk executes
//! the *same* cached kernel over its subrange, and chunk recovery re-runs
//! that kernel — so fault-tolerance semantics are preserved bit-for-bit
//! across tiers. Loops the compiler rejects (effectful externs among them),
//! and every loop under [`ParallelOptions::tree_walk_only`], are walked
//! instead: the same task plan, one task after another on the calling
//! thread, merged in task order. Work stealing and the supervision
//! features that belong to worker threads (speculation, straggler delays,
//! quarantine) apply to the compiled tier only; the walk keeps stop
//! polling, fault injection and chunk recovery, and runs each task's
//! effects once per attempt, in index order.

// `ExecError` deliberately embeds the partial `ExecReport` inline in its
// abort variants: the report is `Copy`, callers (the chaos harness, tests)
// read it by value via `partial_report().copied()`, and the Err path only
// fires on supervision aborts — boxing the report would trade a cold-path
// copy for an allocation and break the by-value contract.
#![allow(clippy::result_large_err)]

use crate::compile::{self, batch, KAcc, Kernel};
use crate::error::{EvalError, ExecError};
use crate::eval::{Acc, Env, Externs, Interp, LoopTier};
use crate::stats;
use crate::task::{
    execute_chunk_kernel, finish_gen, native_for, run_caught, ChunkFailure, ChunkTally,
    KernelState,
};
use crate::value::{Key, Value};
use dmll_core::{Def, Exp, Gen, Program, Sym};
use dmll_runtime::supervise::{StopReason, Supervisor};
use dmll_runtime::{worker_regions, LoopPlan, ProgramPlan, RegionMap};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Injected chunk failures for chaos-testing the executor.
#[derive(Clone, Debug, Default)]
pub struct ChunkFaults {
    fail_once: BTreeSet<usize>,
    fail_persistent: BTreeSet<usize>,
    delays: BTreeMap<usize, Duration>,
    flaky_workers: BTreeSet<usize>,
    panic_workers: bool,
}

impl ChunkFaults {
    /// Fail the given chunk indices once each: a listed chunk dies the
    /// first time it executes (across all top-level loops), then succeeds
    /// on re-execution.
    pub fn fail_once(chunks: impl IntoIterator<Item = usize>) -> ChunkFaults {
        ChunkFaults {
            fail_once: chunks.into_iter().collect(),
            ..ChunkFaults::default()
        }
    }

    /// Additionally fail the given chunk indices on *every* execution
    /// attempt, including recovery re-executions — modelling a persistent
    /// failure (bad memory, a poisoned shard). Such a chunk exhausts its
    /// retry cap and surfaces [`EvalError::ChunkRetriesExhausted`].
    pub fn and_fail_persistent(mut self, chunks: impl IntoIterator<Item = usize>) -> ChunkFaults {
        self.fail_persistent.extend(chunks);
        self
    }

    /// Persistent failures only (see
    /// [`ChunkFaults::and_fail_persistent`]).
    pub fn fail_persistent(chunks: impl IntoIterator<Item = usize>) -> ChunkFaults {
        ChunkFaults::default().and_fail_persistent(chunks)
    }

    /// Delay the first execution of the given chunk by `delay` (an
    /// injected straggler). The delay is consumed by the first *fresh*
    /// execution; speculative clones of the task do not sleep, so
    /// straggler speculation is exercised deterministically.
    pub fn and_delay(mut self, chunk: usize, delay: Duration) -> ChunkFaults {
        self.delays.insert(chunk, delay);
        self
    }

    /// Make every first-round task executed *by worker `w`* die (recovery
    /// on the coordinator still succeeds). Used to chaos-test the
    /// quarantine circuit breaker: the flaky worker accumulates failures
    /// and trips its breaker while the work itself stays recoverable.
    pub fn and_flaky_worker(mut self, w: usize) -> ChunkFaults {
        self.flaky_workers.insert(w);
        self
    }

    /// Deliver the injected failures as real worker panics (exercising the
    /// `catch_unwind` path) instead of synthetic failure markers.
    pub fn panicking(mut self) -> ChunkFaults {
        self.panic_workers = true;
        self
    }

    /// True when no faults are configured at all.
    pub fn is_empty(&self) -> bool {
        self.fail_once.is_empty()
            && self.fail_persistent.is_empty()
            && self.delays.is_empty()
            && self.flaky_workers.is_empty()
    }
}

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct ParallelOptions {
    /// Worker threads (and chunks per top-level loop).
    pub threads: usize,
    /// Re-executions allowed per failed chunk before giving up.
    pub max_chunk_retries: u32,
    /// Injected failures (empty by default).
    pub faults: ChunkFaults,
    /// Run loops on the compiled bytecode tier when they compile (the
    /// default). Disable to force every loop onto the tree-walking tier.
    pub use_compiled: bool,
    /// Run batchable kernels block-at-a-time (the default). Disable to
    /// force the scalar bytecode loop on every compiled chunk.
    pub use_batched: bool,
    /// Run certified kernels on the native (compiled C) tier when a system
    /// C++ compiler is available. Off by default; ineligible loops fall
    /// back to the batched tier with a typed, counted reason.
    pub use_native: bool,
    /// Supervisor polled at task boundaries (deadline, cancellation,
    /// speculation, quarantine, retry budget). `None` = unsupervised, the
    /// pre-supervision behaviour.
    pub supervisor: Option<Arc<Supervisor>>,
    /// Execution regions for the locality-aware partitioned data plane.
    /// `0` (the default) is the locality-blind path: tasks are seeded
    /// round-robin and any victim is fair game for stealing. `>= 1`
    /// enables sharded execution on the compiled tier: tasks carry a home
    /// region derived from [`RegionMap`], workers pop local tasks first
    /// and steal within their region before crossing. (The merge is the
    /// same stitch, once per generator by task id, on both paths.)
    pub regions: usize,
    /// Per-program access plan from the §4 analyses ([`ProgramPlan`]).
    /// When set alongside `regions >= 1`, each loop's stencil-driven
    /// placement decisions are consulted: `Unknown`-stencil collections
    /// are served from the shared path and counted as fallbacks
    /// (surfaced through [`ExecReport::stencil_fallbacks`] and the
    /// process-wide tier stats).
    pub plan: Option<Arc<ProgramPlan>>,
    /// Kernel cache for the compiled tier. `None` (the default) uses the
    /// process-global store; a long-lived service injects its own handle so
    /// queries share compiles and hit rates are attributable per view.
    pub kernel_cache: Option<crate::KernelCacheHandle>,
    /// Run the fuse-then-compile rewrite before execution (the default).
    /// Disable to execute the program exactly as written.
    pub fuse: bool,
    /// Handlers for whitelisted `Def::Extern` calls. Installed on the
    /// interpreter before execution; compiled tiers resolve handlers per
    /// kernel state so scalar, batched, and segmented execution call the
    /// same function the tree-walker would.
    pub externs: Externs,
}

impl ParallelOptions {
    /// Defaults with the given thread count: 2 re-executions, no faults,
    /// no supervisor.
    pub fn new(threads: usize) -> ParallelOptions {
        ParallelOptions {
            threads: threads.max(1),
            max_chunk_retries: 2,
            faults: ChunkFaults::default(),
            use_compiled: true,
            use_batched: true,
            use_native: false,
            supervisor: None,
            regions: 0,
            plan: None,
            kernel_cache: None,
            fuse: true,
            externs: Externs::default(),
        }
    }

    /// Register a handler for a whitelisted extern. A handler staged as
    /// pure may be re-invoked during chunk recovery and speculation, so its
    /// result must be a function of the arguments; one staged as effectful
    /// runs on the tree-walker, once per attempt and in index order.
    pub fn with_extern(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&[Value]) -> Result<Value, EvalError> + Send + Sync + 'static,
    ) -> ParallelOptions {
        self.externs.insert(name, f);
        self
    }

    /// Install a pre-built extern registry (shared across runs).
    pub fn with_externs(mut self, externs: Externs) -> ParallelOptions {
        self.externs = externs;
        self
    }

    /// Skip the fuse-then-compile rewrite: execute the program exactly as
    /// written (benches use this to measure the unfused tiers).
    pub fn without_fusion(mut self) -> ParallelOptions {
        self.fuse = false;
        self
    }

    /// Compile kernels through `cache` instead of the process-global store.
    pub fn with_kernel_cache(mut self, cache: crate::KernelCacheHandle) -> ParallelOptions {
        self.kernel_cache = Some(cache);
        self
    }

    /// Enable the sharded, locality-aware data plane with the given number
    /// of execution regions (clamped to at least 1 task home). Pass the
    /// machine-derived count from
    /// [`dmll_runtime::MachineSpec::execution_regions`] to model a real
    /// socket topology.
    pub fn with_regions(mut self, regions: usize) -> ParallelOptions {
        self.regions = regions;
        self
    }

    /// Attach the exported access plan so sharded loops can honour
    /// per-collection placement decisions and surface stencil fallbacks.
    pub fn with_plan(mut self, plan: Arc<ProgramPlan>) -> ParallelOptions {
        self.plan = Some(plan);
        self
    }

    /// Set injected faults.
    pub fn with_faults(mut self, faults: ChunkFaults) -> ParallelOptions {
        self.faults = faults;
        self
    }

    /// Attach a supervisor. Create the supervisor immediately before the
    /// run: its deadline countdown starts at construction.
    pub fn supervised(mut self, supervisor: Arc<Supervisor>) -> ParallelOptions {
        self.supervisor = Some(supervisor);
        self
    }

    /// Force every loop onto the tree-walking tier, which walks the task
    /// plan in order on the calling thread (the reference the
    /// tier-comparison benchmarks measure against).
    pub fn tree_walk_only(mut self) -> ParallelOptions {
        self.use_compiled = false;
        self
    }

    /// Keep the compiled tier but force the scalar (element-at-a-time)
    /// bytecode loop (used to isolate the batched tier's speedup).
    pub fn scalar_kernel_only(mut self) -> ParallelOptions {
        self.use_batched = false;
        self
    }

    /// Enable the native tier: certified kernels are lowered to C, compiled
    /// with the system C++ compiler, and `dlopen`ed. Ineligible loops fall
    /// back to the batched tier with a typed, counted reason.
    pub fn with_native(mut self) -> ParallelOptions {
        self.use_native = true;
        self
    }
}

/// What recovery and supervision happened during one parallel evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Chunk executions across all top-level loops (including re-runs and
    /// speculative clones).
    pub chunk_executions: usize,
    /// Chunk executions that failed (injected or panicked).
    pub failed_executions: usize,
    /// Chunks that recovered via subrange re-execution.
    pub reexecuted_chunks: usize,
    /// Top-level loops executed on the compiled bytecode tier.
    pub compiled_loops: usize,
    /// Top-level loops executed on the tree-walking tier.
    pub treewalk_loops: usize,
    /// Chunked compiled loops that ran block-at-a-time (subset of
    /// `compiled_loops`; in-place small loops are not counted here).
    pub batched_loops: usize,
    /// Tasks executed by a worker other than the one they were seeded on.
    pub stolen_tasks: usize,
    /// Speculative task clones launched against stragglers.
    pub speculative_tasks: usize,
    /// Speculative clones whose result was recorded first.
    pub speculation_wins: usize,
    /// Worker circuit-breaker trips observed during this run.
    pub quarantine_trips: usize,
    /// Top-level loops executed on the sharded (region-aware) data plane.
    pub sharded_loops: usize,
    /// Collections served from the shared fallback path because their
    /// read stencil was `Unknown` (summed over sharded loops).
    pub stencil_fallbacks: usize,
    /// Tasks of sharded loops that ran in (or were stolen within) their
    /// home region.
    pub region_local_tasks: usize,
    /// Steals that crossed a region boundary during sharded loops.
    pub cross_region_steals: usize,
}

/// Run `program` evaluating top-level multiloops across `threads` worker
/// threads. Nested loops run sequentially within their chunk, matching the
/// default outer-level parallelization strategy of the paper's runtime.
///
/// # Errors
///
/// Same failure modes as [`crate::eval`].
pub fn eval_parallel(
    program: &Program,
    inputs: &[(&str, Value)],
    threads: usize,
) -> Result<Value, EvalError> {
    eval_parallel_report(program, inputs, &ParallelOptions::new(threads)).map(|(v, _)| v)
}

/// Like [`eval_parallel`], with explicit [`ParallelOptions`] and an
/// [`ExecReport`] describing any chunk recovery that happened.
///
/// # Errors
///
/// Same failure modes as [`crate::eval`], plus
/// [`EvalError::ChunkRetriesExhausted`] when a chunk keeps dying past its
/// retry budget. When a supervisor is attached, supervision aborts are
/// collapsed into the stringly [`EvalError::Aborted`]; supervised callers
/// should prefer [`eval_parallel_supervised`], which keeps them typed.
pub fn eval_parallel_report(
    program: &Program,
    inputs: &[(&str, Value)],
    options: &ParallelOptions,
) -> Result<(Value, ExecReport), EvalError> {
    eval_parallel_supervised(program, inputs, options).map_err(ExecError::into_eval)
}

/// Supervised parallel evaluation: the full typed error surface. On a
/// deadline or cancellation, in-flight tasks drain, queued tasks are
/// abandoned, and the [`ExecError`] carries the partial [`ExecReport`] of
/// everything that completed before the abort.
///
/// # Errors
///
/// [`ExecError::Eval`] for deterministic interpreter failures (including
/// [`EvalError::ChunkRetriesExhausted`] for persistently dying chunks),
/// [`ExecError::Deadline`] / [`ExecError::Cancelled`] /
/// [`ExecError::RetryBudgetExhausted`] for supervision aborts.
pub fn eval_parallel_supervised(
    program: &Program,
    inputs: &[(&str, Value)],
    options: &ParallelOptions,
) -> Result<(Value, ExecReport), ExecError> {
    if options.fuse {
        let fused = crate::fuse::fused_program(program);
        stats::record_fusion(fused.applied, fused.rejected);
        if let Some(fp) = &fused.program {
            // Execute the fused body; kernels key under the rewrite
            // fingerprint so they never collide with unfused variants.
            return supervised_on(fp, inputs, options, fused.fingerprint);
        }
    }
    supervised_on(program, inputs, options, 0)
}

fn supervised_on(
    program: &Program,
    inputs: &[(&str, Value)],
    options: &ParallelOptions,
    fingerprint: u64,
) -> Result<(Value, ExecReport), ExecError> {
    let threads = options.threads.max(1);
    let supervisor = options.supervisor.as_deref();
    let trips_before = supervisor.map_or(0, |s| s.quarantine().trips());
    let mut interp = Interp::new(program)
        .with_fuse_fingerprint(fingerprint)
        .with_externs(options.externs.clone());
    if let Some(cache) = &options.kernel_cache {
        interp = interp.with_kernel_cache(cache.clone());
    }
    let interp = interp;
    let mut env: Env = vec![None; program.next_sym_id() as usize];
    for input in &program.inputs {
        let v = inputs
            .iter()
            .find(|(n, _)| *n == input.name)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| EvalError::MissingInput(input.name.clone()))?;
        env[input.sym.0 as usize] = Some(v);
    }
    let mut report = ExecReport::default();
    if options.regions > 0 {
        if let Some(plan) = &options.plan {
            stats::record_partition_warnings(plan.warnings.len() as u64);
        }
    }
    // Faults not yet delivered. Fail-once faults and delays are consumed
    // across the whole evaluation (the coordinator decides before spawning,
    // so injection is deterministic under any thread interleaving);
    // persistent faults re-fire on every loop and every retry.
    let mut pending = PendingFaults::from(&options.faults);
    for stmt in &program.body.stmts {
        // Task-granularity stop polling covers the chunked executor below;
        // this statement-boundary poll additionally bounds abort latency
        // for non-loop statements and small in-place loops.
        if let Some(sup) = supervisor {
            if let Some(reason) = sup.check() {
                return Err(stop_error(sup, reason, finish_report(report, supervisor, trips_before)));
            }
        }
        match &stmt.def {
            Def::Loop(ml) => {
                let size = match interp_eval_size(&interp, &ml.size, &env)? {
                    n if n <= 0 => 0,
                    n => n,
                };
                let vals = if size < threads as i64 * 4 && pending.is_empty() {
                    // Not worth splitting: run in place on whichever tier
                    // applies. Loop bodies only bind loop-local symbols, so
                    // no defensive clone of the environment is needed.
                    let (out, tier) = interp.eval_loop_tiered(
                        ml,
                        &mut env,
                        options.use_compiled,
                        options.use_batched,
                        options.use_native,
                    )?;
                    if tier == LoopTier::TreeWalk {
                        report.treewalk_loops += 1;
                    } else {
                        report.compiled_loops += 1;
                    }
                    out
                } else {
                    run_chunked(
                        &interp,
                        ml,
                        &mut env,
                        size,
                        threads,
                        stmt.lhs.first().copied(),
                        options,
                        &mut pending,
                        &mut report,
                    )
                    .map_err(|e| attach_partial(e, finish_report(report, supervisor, trips_before)))?
                };
                for (s, v) in stmt.lhs.iter().zip(vals) {
                    env[s.0 as usize] = Some(v);
                }
            }
            other => {
                let vals = interp.eval_def_internal(other, &mut env)?;
                for (s, v) in stmt.lhs.iter().zip(vals) {
                    env[s.0 as usize] = Some(v);
                }
            }
        }
    }
    let value = interp.eval_exp(&program.body.result, &env)?;
    Ok((value, finish_report(report, supervisor, trips_before)))
}

/// Fold end-of-run supervision counters into the report.
fn finish_report(
    mut report: ExecReport,
    supervisor: Option<&Supervisor>,
    trips_before: u64,
) -> ExecReport {
    if let Some(sup) = supervisor {
        let trips = sup.quarantine().trips().saturating_sub(trips_before);
        report.quarantine_trips = trips as usize;
        stats::record_quarantine_trips(trips);
    }
    report
}

/// Rewrite the placeholder partial report inside a supervision abort with
/// the coordinator's up-to-date one.
fn attach_partial(e: ExecError, partial: ExecReport) -> ExecError {
    match e {
        ExecError::Deadline {
            deadline, elapsed, ..
        } => ExecError::Deadline {
            deadline,
            elapsed,
            partial,
        },
        ExecError::Cancelled { .. } => ExecError::Cancelled { partial },
        ExecError::RetryBudgetExhausted {
            chunk,
            budget,
            message,
            ..
        } => ExecError::RetryBudgetExhausted {
            chunk,
            budget,
            message,
            partial,
        },
        other => other,
    }
}

/// Build the typed abort error for a stop reason, recording it with the
/// supervisor and the process-wide counters (called once per aborted run).
fn stop_error(sup: &Supervisor, reason: StopReason, partial: ExecReport) -> ExecError {
    sup.record_abort(reason);
    match reason {
        StopReason::Deadline => {
            stats::record_deadline_abort();
            ExecError::Deadline {
                deadline: sup.policy().deadline.unwrap_or_default(),
                elapsed: sup.elapsed(),
                partial,
            }
        }
        StopReason::Cancelled => {
            stats::record_cancelled_abort();
            ExecError::Cancelled { partial }
        }
    }
}

pub(crate) fn interp_eval_size(interp: &Interp<'_>, size: &Exp, env: &Env) -> Result<i64, EvalError> {
    interp
        .eval_exp(size, env)?
        .as_i64()
        .ok_or_else(|| EvalError::TypeMismatch("loop size".into()))
}

/// What one task execution produced: per-generator accumulators, or how
/// it failed.
type TaskResult<A> = Result<Vec<A>, ChunkFailure>;

/// Faults not yet delivered across the evaluation.
struct PendingFaults {
    fail_once: BTreeSet<usize>,
    fail_persistent: BTreeSet<usize>,
    delays: BTreeMap<usize, Duration>,
    flaky_workers: BTreeSet<usize>,
    panic_workers: bool,
}

impl PendingFaults {
    fn from(faults: &ChunkFaults) -> PendingFaults {
        PendingFaults {
            fail_once: faults.fail_once.clone(),
            fail_persistent: faults.fail_persistent.clone(),
            delays: faults.delays.clone(),
            flaky_workers: faults.flaky_workers.clone(),
            panic_workers: faults.panic_workers,
        }
    }

    fn is_empty(&self) -> bool {
        self.fail_once.is_empty()
            && self.fail_persistent.is_empty()
            && self.delays.is_empty()
            && self.flaky_workers.is_empty()
    }

    /// Materialize this loop's per-task fault state, consuming one-shot
    /// faults. The coordinator does this before spawning workers, so
    /// injection is deterministic under any thread interleaving; the
    /// atomics only arbitrate *which execution* (fresh vs speculative)
    /// consumes a one-shot fault.
    fn for_tasks(&mut self, n_tasks: usize) -> Vec<TaskFault> {
        (0..n_tasks)
            .map(|ci| TaskFault {
                fail_once: AtomicBool::new(self.fail_once.remove(&ci)),
                persistent: self.fail_persistent.contains(&ci),
                delay_nanos: AtomicU64::new(
                    self.delays
                        .remove(&ci)
                        .map_or(0, |d| d.as_nanos().min(u128::from(u64::MAX)) as u64),
                ),
            })
            .collect()
    }
}

/// Per-task injected-fault state for one loop's round.
struct TaskFault {
    fail_once: AtomicBool,
    persistent: bool,
    delay_nanos: AtomicU64,
}

/// Smallest task worth scheduling when the range doesn't span full blocks.
const MIN_TASK_ELEMS: i64 = 16;

/// How long an idle worker sleeps between polls while waiting for a
/// straggler to become speculatable or the run to finish.
const PARK: Duration = Duration::from_micros(30);

/// Over-decompose `[0, size)` into contiguous tasks for work stealing:
/// roughly four tasks per worker, block-aligned whenever the range spans at
/// least one full block per worker so batched tasks are all-blocks (no
/// scalar tail except in the final task).
pub(crate) fn plan_tasks(size: i64, threads: usize) -> Vec<(i64, i64)> {
    let threads = threads.max(1) as i64;
    let block = batch::BLOCK as i64;
    let task_len = if size >= threads * block {
        ((size / block) / (threads * 4)).max(1) * block
    } else {
        ((size + threads * 4 - 1) / (threads * 4)).max(MIN_TASK_ELEMS)
    };
    let mut tasks = Vec::new();
    let mut s = 0;
    while s < size {
        tasks.push((s, (s + task_len).min(size)));
        s += task_len;
    }
    tasks
}

/// One task per execution region: the shard itself is the unit of work.
///
/// Only used when the loop's kernel is exactly associative (see
/// [`compile::Kernel::exact_assoc`]) — regrouping chunk boundaries is then
/// provably bit-exact, and the coarser tasks skip the per-task accumulator
/// setup and most of the merge that the blind over-decomposition pays for.
fn region_tasks(size: i64, regions: usize) -> Vec<(i64, i64)> {
    let rmap = RegionMap::new(size, regions);
    (0..regions)
        .map(|r| rmap.bounds(r))
        .filter(|&(s, e)| s < e)
        .collect()
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-worker deques of task ids. Owners pop from the front of their own
/// deque (preserving range locality); an idle worker steals from the back
/// of the first non-empty victim. In sharded mode tasks carry a home
/// region: they are seeded onto the workers of that region and each
/// worker's victim order visits same-region deques before crossing a
/// region boundary, so cross-region traffic only happens once a whole
/// region has drained.
struct StealQueues {
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Per-worker victim order as `(victim, crosses_region)` pairs.
    /// `None` = locality-blind rotation (every steal counts as local).
    victims: Option<Vec<Vec<(usize, bool)>>>,
}

impl StealQueues {
    /// Seed `n_tasks` task ids contiguously across `workers` deques
    /// (locality-blind).
    fn new(n_tasks: usize, workers: usize) -> StealQueues {
        let per = n_tasks.div_ceil(workers.max(1));
        let deques = (0..workers)
            .map(|w| {
                let lo = (w * per).min(n_tasks);
                let hi = ((w + 1) * per).min(n_tasks);
                Mutex::new((lo..hi).collect::<VecDeque<usize>>())
            })
            .collect();
        StealQueues {
            deques,
            victims: None,
        }
    }

    /// Seed tasks onto the workers of their home region (`homes[t]` is
    /// task `t`'s region, `worker_region[w]` is worker `w`'s region), with
    /// a same-region-first victim order per worker. A region with tasks
    /// but no worker (more regions than workers) seeds onto the last
    /// worker; stealing redistributes from there.
    fn new_sharded(homes: &[usize], worker_region: &[usize]) -> StealQueues {
        let workers = worker_region.len().max(1);
        let regions = worker_region.iter().copied().max().unwrap_or(0) + 1;
        let regions = regions.max(homes.iter().copied().max().map_or(1, |m| m + 1));
        let mut region_tasks: Vec<Vec<usize>> = vec![Vec::new(); regions];
        for (t, &r) in homes.iter().enumerate() {
            region_tasks[r.min(regions - 1)].push(t);
        }
        let mut region_workers: Vec<Vec<usize>> = vec![Vec::new(); regions];
        for (w, &r) in worker_region.iter().enumerate() {
            region_workers[r.min(regions - 1)].push(w);
        }
        let mut deques: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
        for r in 0..regions {
            let ts = &region_tasks[r];
            if ts.is_empty() {
                continue;
            }
            let ws: &[usize] = if region_workers[r].is_empty() {
                &[workers - 1]
            } else {
                &region_workers[r]
            };
            let per = ts.len().div_ceil(ws.len());
            for (k, &w) in ws.iter().enumerate() {
                let lo = (k * per).min(ts.len());
                let hi = ((k + 1) * per).min(ts.len());
                deques[w].extend(ts[lo..hi].iter().copied());
            }
        }
        let victims = (0..workers)
            .map(|w| {
                let mut same = Vec::new();
                let mut cross = Vec::new();
                for off in 1..workers {
                    let v = (w + off) % workers;
                    if worker_region[v] == worker_region[w] {
                        same.push((v, false));
                    } else {
                        cross.push((v, true));
                    }
                }
                same.extend(cross);
                same
            })
            .collect();
        StealQueues {
            deques: deques.into_iter().map(Mutex::new).collect(),
            victims: Some(victims),
        }
    }

    /// Pop worker `w`'s own front.
    fn own(&self, w: usize) -> Option<usize> {
        lock(&self.deques[w]).pop_front()
    }

    /// Steal the back of the first non-empty victim deque, same-region
    /// victims first in sharded mode. The flag reports whether the steal
    /// crossed a region boundary.
    fn steal(&self, w: usize) -> Option<(usize, bool)> {
        match &self.victims {
            None => {
                let n = self.deques.len();
                for off in 1..n {
                    if let Some(t) = lock(&self.deques[(w + off) % n]).pop_back() {
                        return Some((t, false));
                    }
                }
                None
            }
            Some(orders) => {
                for &(v, crosses) in &orders[w] {
                    if let Some(t) = lock(&self.deques[v]).pop_back() {
                        return Some((t, crosses));
                    }
                }
                None
            }
        }
    }
}

/// Result board of one stealing round: first result per task id wins (so a
/// speculative clone and its straggler original can race safely — task
/// execution is deterministic over a fixed subrange, so whichever copy
/// lands first carries the same accumulators).
struct Board<A> {
    slots: Vec<Option<TaskResult<A>>>,
    /// Latencies (nanos) of completed executions, feeding the adaptive
    /// straggler cutoff.
    latencies: Vec<u64>,
    done: usize,
}

/// Shared state of one work-stealing round.
struct RoundShared<'a, A> {
    tasks: &'a [(i64, i64)],
    faults: &'a [TaskFault],
    flaky_workers: &'a BTreeSet<usize>,
    queues: StealQueues,
    board: Mutex<Board<A>>,
    /// Per-task first-start instant (fresh executions only).
    started: Vec<Mutex<Option<Instant>>>,
    /// At most one speculative clone per task.
    spec_claimed: Vec<AtomicBool>,
    all_done: AtomicBool,
    stop_flag: AtomicBool,
    stop_reason: Mutex<Option<StopReason>>,
    executions: AtomicUsize,
    failed: AtomicUsize,
    stolen: AtomicUsize,
    cross_steals: AtomicUsize,
    speculative: AtomicUsize,
    spec_wins: AtomicUsize,
}

/// What one stealing round produced.
struct RoundOutcome<A> {
    results: Vec<Option<TaskResult<A>>>,
    executions: usize,
    failed: usize,
    stolen: usize,
    cross_steals: usize,
    speculative: usize,
    spec_wins: usize,
    stopped: Option<StopReason>,
}

enum Job {
    Fresh { task: usize, stolen: bool },
    Spec { task: usize },
}

impl<'a, A> RoundShared<'a, A> {
    fn request_stop(&self, reason: StopReason) {
        let mut r = lock(&self.stop_reason);
        if r.is_none() {
            *r = Some(reason);
        }
        self.stop_flag.store(true, Ordering::Release);
    }

    /// Record one execution's result; first write per task id wins.
    fn record(&self, t: usize, r: TaskResult<A>, nanos: u64, spec: bool, sup: Option<&Supervisor>) {
        let mut b = lock(&self.board);
        if b.slots[t].is_some() {
            return; // lost the race; identical result discarded
        }
        b.slots[t] = Some(r);
        b.latencies.push(nanos);
        b.done += 1;
        if b.done == self.tasks.len() {
            self.all_done.store(true, Ordering::Release);
        }
        if spec {
            self.spec_wins.fetch_add(1, Ordering::Relaxed);
            stats::record_speculation_win();
            if let Some(sup) = sup {
                sup.record_speculation_win();
            }
        }
    }

    /// An unclaimed straggler past the adaptive cutoff, if any.
    fn find_straggler(&self, sup: &Supervisor) -> Option<Job> {
        let pol = sup.policy().speculation;
        if !pol.enabled {
            return None;
        }
        let cutoff = {
            let b = lock(&self.board);
            pol.cutoff_nanos(&b.latencies)?
        };
        for t in 0..self.tasks.len() {
            if self.spec_claimed[t].load(Ordering::Relaxed) {
                continue;
            }
            if lock(&self.board).slots[t].is_some() {
                continue;
            }
            let Some(started) = *lock(&self.started[t]) else {
                continue; // still queued; it will be claimed normally
            };
            if started.elapsed().as_nanos() as u64 > cutoff
                && !self.spec_claimed[t].swap(true, Ordering::Relaxed)
            {
                self.speculative.fetch_add(1, Ordering::Relaxed);
                stats::record_speculation_launch();
                sup.record_speculation_launch();
                return Some(Job::Spec { task: t });
            }
        }
        None
    }
}

/// One worker's execution of one job (fresh or speculative).
fn run_job<A, S>(
    w: usize,
    st: &mut S,
    job: Job,
    shared: &RoundShared<'_, A>,
    sup: Option<&Supervisor>,
    exec: &(impl Fn(&mut S, usize, (i64, i64), bool) -> TaskResult<A> + Sync),
) {
    let (t, spec) = match job {
        Job::Fresh { task, stolen } => {
            if stolen {
                shared.stolen.fetch_add(1, Ordering::Relaxed);
            }
            (task, false)
        }
        Job::Spec { task } => (task, true),
    };
    let fault = &shared.faults[t];
    let injected = if spec {
        fault.persistent
    } else {
        {
            let mut s = lock(&shared.started[t]);
            if s.is_none() {
                *s = Some(Instant::now());
            }
        }
        let delay = fault.delay_nanos.swap(0, Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(Duration::from_nanos(delay));
        }
        fault.persistent
            | fault.fail_once.swap(false, Ordering::Relaxed)
            | shared.flaky_workers.contains(&w)
    };
    shared.executions.fetch_add(1, Ordering::Relaxed);
    let t0 = Instant::now();
    let r = exec(st, t, shared.tasks[t], injected);
    let failed = r.is_err();
    if failed {
        shared.failed.fetch_add(1, Ordering::Relaxed);
    }
    shared.record(t, r, t0.elapsed().as_nanos() as u64, spec, sup);
    if let Some(sup) = sup {
        sup.quarantine().record(w, failed);
    }
}

/// Run all tasks across `states.len()` workers with work stealing and
/// (when supervised) straggler speculation, quarantine, and stop polling.
/// Results come back indexed by task id so merge order is independent of
/// which worker ran what; a task with no result (worker died before
/// reporting, or the round stopped) is `None`.
fn run_stealing<A: Send, S: Send>(
    tasks: &[(i64, i64)],
    faults: &[TaskFault],
    pending: &PendingFaults,
    states: &mut [S],
    supervisor: Option<&Supervisor>,
    queues: StealQueues,
    exec: &(impl Fn(&mut S, usize, (i64, i64), bool) -> TaskResult<A> + Sync),
) -> RoundOutcome<A> {
    let shared = RoundShared {
        tasks,
        faults,
        flaky_workers: &pending.flaky_workers,
        queues,
        board: Mutex::new(Board {
            slots: (0..tasks.len()).map(|_| None).collect(),
            latencies: Vec::new(),
            done: 0,
        }),
        started: (0..tasks.len()).map(|_| Mutex::new(None)).collect(),
        spec_claimed: (0..tasks.len()).map(|_| AtomicBool::new(false)).collect(),
        all_done: AtomicBool::new(tasks.is_empty()),
        stop_flag: AtomicBool::new(false),
        stop_reason: Mutex::new(None),
        executions: AtomicUsize::new(0),
        failed: AtomicUsize::new(0),
        stolen: AtomicUsize::new(0),
        cross_steals: AtomicUsize::new(0),
        speculative: AtomicUsize::new(0),
        spec_wins: AtomicUsize::new(0),
    };
    let worker = |w: usize, st: &mut S| loop {
        if shared.stop_flag.load(Ordering::Acquire) || shared.all_done.load(Ordering::Acquire) {
            break;
        }
        if let Some(sup) = supervisor {
            if let Some(reason) = sup.check() {
                shared.request_stop(reason);
                break;
            }
            // Worker 0 is the designated survivor: it never parks, so the
            // pool always drains even when every other breaker is open.
            if w != 0 && sup.quarantine().is_quarantined(w) {
                std::thread::sleep(PARK);
                continue;
            }
        }
        let job = if let Some(t) = shared.queues.own(w) {
            Some(Job::Fresh {
                task: t,
                stolen: false,
            })
        } else if let Some((t, crosses)) = shared.queues.steal(w) {
            if crosses {
                shared.cross_steals.fetch_add(1, Ordering::Relaxed);
            }
            Some(Job::Fresh {
                task: t,
                stolen: true,
            })
        } else {
            supervisor.and_then(|sup| shared.find_straggler(sup))
        };
        match job {
            Some(job) => run_job(w, st, job, &shared, supervisor, exec),
            None => {
                // Nothing queued, nothing stealable, nothing speculatable.
                // Unsupervised workers are done; supervised ones park
                // until the stragglers resolve (a task may yet become
                // speculatable, and stop conditions still need polling).
                match supervisor {
                    Some(sup) if sup.policy().speculation.enabled => std::thread::sleep(PARK),
                    _ => break,
                }
            }
        }
    };
    // Worker 0 is the calling thread: a one-worker round spawns nothing,
    // and an N-worker round spawns N-1. It keeps the spawned workers'
    // isolation: a panic outside the per-task `catch_unwind` ends the
    // worker, not the caller, and its unreported tasks come back `None`.
    let (caller, spawned) = states
        .split_first_mut()
        .expect("a round has at least one worker");
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = spawned
            .iter_mut()
            .enumerate()
            .map(|(i, st)| scope.spawn(move || worker(i + 1, st)))
            .collect();
        let _ = catch_unwind(AssertUnwindSafe(|| worker(0, caller)));
        for h in handles {
            let _ = h.join();
        }
    });
    let stopped = *lock(&shared.stop_reason);
    let board = shared.board.into_inner().unwrap_or_else(PoisonError::into_inner);
    RoundOutcome {
        results: board.slots,
        executions: shared.executions.load(Ordering::Relaxed),
        failed: shared.failed.load(Ordering::Relaxed),
        stolen: shared.stolen.load(Ordering::Relaxed),
        cross_steals: shared.cross_steals.load(Ordering::Relaxed),
        speculative: shared.speculative.load(Ordering::Relaxed),
        spec_wins: shared.spec_wins.load(Ordering::Relaxed),
        stopped,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_chunked(
    interp: &Interp<'_>,
    ml: &dmll_core::Multiloop,
    env: &mut Env,
    size: i64,
    threads: usize,
    loop_sym: Option<Sym>,
    options: &ParallelOptions,
    pending: &mut PendingFaults,
    report: &mut ExecReport,
) -> Result<Vec<Value>, ExecError> {
    // Stencil-driven placement for this loop (sharded runs only): loops
    // reading a collection with an `Unknown` stencil still run sharded,
    // but that collection is served from the shared path and the fallback
    // is surfaced rather than silently absorbed.
    let lplan: Option<&LoopPlan> = if options.regions > 0 {
        options
            .plan
            .as_deref()
            .zip(loop_sym)
            .and_then(|(p, s)| p.loop_plan(s))
    } else {
        None
    };
    if let Some(lp) = lplan {
        if lp.fallbacks > 0 {
            stats::record_stencil_fallbacks(lp.fallbacks as u64);
            report.stencil_fallbacks += lp.fallbacks;
        }
    }

    // Compiled tier first: worker tasks and chunk recovery execute the
    // very same cached kernel, so results (and fault-tolerance semantics)
    // are bit-identical to the tree-walking tier.
    let kernel = if options.use_compiled {
        match &options.kernel_cache {
            Some(cache) => cache.kernel_for(ml, env, interp.fuse_fingerprint()),
            None => compile::kernel_for(ml, env, interp.fuse_fingerprint()),
        }
    } else {
        None
    };
    // Task plan: the blind over-decomposition by default; one task per
    // region (the shard itself) on the sharded plane when every merge is
    // exactly associative, so the regrouping provably cannot change the
    // output bit pattern. The divide-and-conquer certificate extends the
    // fast-red check to integer-keyed selection reducers (argmin/argmax
    // by an `i64` key), which are exact for the same reason. Float
    // reductions keep the blind granularity — their merge order must
    // match the blind path bit-for-bit.
    let tasks = if options.regions > 0
        && kernel
            .as_ref()
            .is_some_and(|k| k.exact_assoc() || k.dnc_assoc())
    {
        region_tasks(size, options.regions.min(threads).max(1))
    } else {
        plan_tasks(size, threads)
    };
    let faults = pending.for_tasks(tasks.len());

    if let Some(kernel) = kernel {
        // Mode and native entry are picked once per loop; every task, its
        // recovery and its speculative clones run the same way.
        let batched = options.use_batched && kernel.batchable;
        let native = native_for(&kernel, ml, env, batched && options.use_native);
        let tally = ChunkTally::default();
        let t0 = Instant::now();
        let out = run_chunked_kernel(
            &kernel,
            env,
            interp.externs(),
            &tasks,
            &faults,
            pending,
            threads.min(tasks.len()).max(1),
            batched,
            native,
            &tally,
            options,
            report,
        );
        tally.note_ineligible(&kernel, options.use_batched);
        let out = out?;
        if tally.record_served(batched, size, t0.elapsed()) == LoopTier::Batched {
            report.batched_loops += 1;
        }
        report.compiled_loops += 1;
        return Ok(out);
    }
    let t0 = Instant::now();
    let out = walk_tasks(
        interp,
        ml,
        env,
        &tasks,
        &faults,
        pending.panic_workers,
        options,
        report,
    )?;
    stats::record_treewalk(size.max(0) as u64, t0.elapsed());
    report.treewalk_loops += 1;
    Ok(out)
}

/// Fold one stealing round's counters into the report and surface a stop
/// as the typed abort error (the partial report is patched in by the
/// coordinator's `attach_partial`).
fn absorb_round<A>(
    outcome: RoundOutcome<A>,
    report: &mut ExecReport,
    supervisor: Option<&Supervisor>,
) -> Result<Vec<Option<TaskResult<A>>>, ExecError> {
    report.chunk_executions += outcome.executions;
    report.failed_executions += outcome.failed;
    report.stolen_tasks += outcome.stolen;
    report.cross_region_steals += outcome.cross_steals;
    report.speculative_tasks += outcome.speculative;
    report.speculation_wins += outcome.spec_wins;
    stats::record_steals(outcome.stolen as u64);
    stats::record_cross_region_steals(outcome.cross_steals as u64);
    if let Some(reason) = outcome.stopped {
        let sup = supervisor.expect("stop reasons only arise under supervision");
        return Err(stop_error(sup, reason, *report));
    }
    Ok(outcome.results)
}

/// Recover chunk `ci` whose first execution went `outcome`, by re-running
/// just its subrange on the coordinator thread (`retry`). A multiloop is
/// agnostic to its bounds, so that yields the same accumulator the lost
/// execution would have produced. Shared by both execution tiers. Retries
/// are bounded twice: per-chunk by `max_chunk_retries`, and run-wide by the
/// supervisor's retry budget.
fn recover_chunk<A>(
    ci: usize,
    outcome: Result<Vec<A>, ChunkFailure>,
    options: &ParallelOptions,
    report: &mut ExecReport,
    mut retry: impl FnMut() -> Result<Vec<A>, ChunkFailure>,
) -> Result<Vec<A>, ExecError> {
    let mut message = match outcome {
        Ok(accs) => return Ok(accs),
        Err(ChunkFailure::Eval(e)) => return Err(e.into()),
        Err(ChunkFailure::Died(message)) => message,
    };
    let supervisor = options.supervisor.as_deref();
    for _attempt in 1..=options.max_chunk_retries {
        if let Some(sup) = supervisor {
            if let Some(reason) = sup.check() {
                return Err(stop_error(sup, reason, *report));
            }
            if !sup.try_consume_retry() {
                return Err(ExecError::RetryBudgetExhausted {
                    chunk: ci,
                    budget: sup.policy().retry_budget,
                    message,
                    partial: *report,
                });
            }
        }
        report.chunk_executions += 1;
        match retry() {
            Ok(accs) => {
                report.reexecuted_chunks += 1;
                return Ok(accs);
            }
            Err(ChunkFailure::Eval(e)) => return Err(e.into()),
            Err(ChunkFailure::Died(m)) => {
                report.failed_executions += 1;
                message = m;
            }
        }
    }
    Err(EvalError::ChunkRetriesExhausted {
        chunk: ci,
        attempts: options.max_chunk_retries + 1,
        message,
    }
    .into())
}

/// Tree-walking tier: the loop's tasks walked one after another on the
/// calling thread, directly on the caller's environment (loop bodies only
/// bind loop-local symbols). The supervisor is polled before each task. A
/// task that died is re-run before the next one starts, so every task's
/// effects happen once per attempt and in index order — the guarantee the
/// kernel compiler relies on when it rejects effectful externs. Per-task
/// accumulators fold with `merge_pair` in task order: the same task plan
/// and merge order as the compiled tier's stitch, so float partials keep
/// their bits.
#[allow(clippy::too_many_arguments)]
fn walk_tasks(
    interp: &Interp<'_>,
    ml: &dmll_core::Multiloop,
    env: &mut Env,
    tasks: &[(i64, i64)],
    faults: &[TaskFault],
    panic_workers: bool,
    options: &ParallelOptions,
    report: &mut ExecReport,
) -> Result<Vec<Value>, ExecError> {
    let mut merged: Option<Vec<Acc>> = None;
    for (ci, &(s, e)) in tasks.iter().enumerate() {
        if let Some(sup) = options.supervisor.as_deref() {
            if let Some(reason) = sup.check() {
                return Err(stop_error(sup, reason, *report));
            }
        }
        let walk = |env: &mut Env, injected: bool| {
            run_caught(ci, injected, panic_workers, || {
                interp.eval_loop_accs(ml, env, s, Some(e))
            })
        };
        let fault = &faults[ci];
        report.chunk_executions += 1;
        let first = walk(
            env,
            fault.persistent | fault.fail_once.swap(false, Ordering::Relaxed),
        );
        if first.is_err() {
            report.failed_executions += 1;
        }
        let accs = recover_chunk(ci, first, options, report, || walk(env, fault.persistent))?;
        merged = Some(match merged {
            None => accs,
            Some(m) => m
                .into_iter()
                .zip(accs)
                .zip(&ml.gens)
                .map(|((a, b), gen)| merge_pair(interp, gen, a, b, env))
                .collect::<Result<_, _>>()?,
        });
    }
    let merged = merged.unwrap_or_else(|| ml.gens.iter().map(Acc::for_gen).collect());
    let sealed = ml
        .gens
        .iter()
        .zip(merged)
        .map(|(gen, acc)| interp.seal_acc(gen, acc, env));
    Ok(sealed.collect::<Result<_, _>>()?)
}

/// Map tasks a dead worker never reported into recoverable chunk deaths.
fn unreported_as_died<A>(
    results: Vec<Option<Result<Vec<A>, ChunkFailure>>>,
) -> Vec<Result<Vec<A>, ChunkFailure>> {
    results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| Err(ChunkFailure::Died("worker died before reporting".into())))
        })
        .collect()
}

/// Compiled-tier chunk executor: every worker runs the same cached kernel
/// over its tasks' subranges (scalar or batched), recovery re-runs that
/// kernel in the same mode, and merging/sealing happens on a coordinator
/// register state, in task order.
#[allow(clippy::too_many_arguments)]
fn run_chunked_kernel(
    kernel: &Kernel,
    env: &Env,
    externs: &Externs,
    tasks: &[(i64, i64)],
    faults: &[TaskFault],
    pending: &PendingFaults,
    workers: usize,
    batched: bool,
    native: Option<&compile::native::NativeEntry>,
    tally: &ChunkTally,
    options: &ParallelOptions,
    report: &mut ExecReport,
) -> Result<Vec<Value>, ExecError> {
    let panic_workers = pending.panic_workers;
    let supervisor = options.supervisor.as_deref();

    // Sharded data plane: derive each task's home region from the block-
    // aligned region map over the loop bounds, pin workers to regions, and
    // let the steal order prefer same-region victims.
    let sharded = options.regions > 0 && !tasks.is_empty();
    let queues = if sharded {
        let r_eff = options.regions.min(workers).max(1);
        let rmap = RegionMap::new(tasks.last().map_or(0, |t| t.1), r_eff);
        let homes: Vec<usize> = tasks.iter().map(|&(s, _)| rmap.region_of(s)).collect();
        StealQueues::new_sharded(&homes, &worker_regions(workers, r_eff))
    } else {
        StealQueues::new(tasks.len(), workers)
    };

    let mut states: Vec<Option<KernelState>> = (0..workers).map(|_| None).collect();
    let outcome = run_stealing(
        tasks,
        faults,
        pending,
        &mut states,
        supervisor,
        queues,
        &|state, ci, range, injected| {
            execute_chunk_kernel(
                kernel,
                env,
                externs,
                state,
                batched,
                native,
                tally,
                range,
                ci,
                injected,
                panic_workers,
            )
        },
    );
    let cross = outcome.cross_steals;
    let first_round = unreported_as_died(absorb_round(outcome, report, supervisor)?);
    if sharded {
        stats::record_sharded_loop();
        report.sharded_loops += 1;
        let local = tasks.len().saturating_sub(cross);
        stats::record_region_local_tasks(local as u64);
        report.region_local_tasks += local;
    }

    // Recover in task order, grouping per generator; then finish on a
    // coordinator state (reducer blocks execute as bytecode too) with the
    // shared stitch-and-seal.
    let mut retry_state: Option<KernelState> = None;
    let mut per_gen: Vec<Vec<KAcc>> = (0..kernel.gens.len())
        .map(|_| Vec::with_capacity(tasks.len()))
        .collect();
    for (ci, outcome) in first_round.into_iter().enumerate() {
        let accs = recover_chunk(ci, outcome, options, report, || {
            execute_chunk_kernel(
                kernel,
                env,
                externs,
                &mut retry_state,
                batched,
                native,
                tally,
                tasks[ci],
                ci,
                faults[ci].persistent,
                panic_workers,
            )
        })?;
        for (gi, acc) in accs.into_iter().enumerate() {
            per_gen[gi].push(acc);
        }
    }
    let mut st = kernel.new_state(env, externs)?;
    let outputs = per_gen
        .into_iter()
        .enumerate()
        .map(|(gi, accs)| finish_gen(kernel, gi, accs.into_iter(), &mut st))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(outputs)
}

pub(crate) fn merge_pair(
    interp: &Interp<'_>,
    gen: &Gen,
    a: Acc,
    b: Acc,
    env: &mut Env,
) -> Result<Acc, EvalError> {
    Ok(match (a, b) {
        (Acc::Collect(mut x), Acc::Collect(y)) => {
            x.extend(y);
            Acc::Collect(x)
        }
        (Acc::Reduce(x), Acc::Reduce(y)) => Acc::Reduce(match (x, y) {
            (Some(x), Some(y)) => {
                let reducer = gen
                    .reducer()
                    .ok_or_else(|| EvalError::TypeMismatch("reduce gen without reducer".into()))?;
                Some(interp.eval_block(reducer, &[x, y], env)?)
            }
            (Some(x), None) => Some(x),
            (None, y) => y,
        }),
        (
            Acc::BucketCollect {
                mut keys,
                mut vals,
                mut index,
            },
            Acc::BucketCollect {
                keys: bk, vals: bv, ..
            },
        ) => {
            for (k, v) in bk.into_iter().zip(bv) {
                match index.get(&Key(k.clone())) {
                    Some(&slot) => vals[slot].extend(v),
                    None => {
                        index.insert(Key(k.clone()), keys.len());
                        keys.push(k);
                        vals.push(v);
                    }
                }
            }
            Acc::BucketCollect { keys, vals, index }
        }
        (
            Acc::BucketReduce {
                mut keys,
                mut vals,
                mut index,
            },
            Acc::BucketReduce {
                keys: bk, vals: bv, ..
            },
        ) => {
            let reducer = gen.reducer().ok_or_else(|| {
                EvalError::TypeMismatch("bucket-reduce gen without reducer".into())
            })?;
            for (k, v) in bk.into_iter().zip(bv) {
                match index.get(&Key(k.clone())) {
                    Some(&slot) => {
                        let cur = vals[slot].clone();
                        vals[slot] = interp.eval_block(reducer, &[cur, v], env)?;
                    }
                    None => {
                        index.insert(Key(k.clone()), keys.len());
                        keys.push(k);
                        vals.push(v);
                    }
                }
            }
            Acc::BucketReduce { keys, vals, index }
        }
        _ => {
            return Err(EvalError::TypeMismatch(
                "mismatched accumulators across chunks".into(),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use dmll_core::{LayoutHint, Ty};
    use dmll_frontend::Stage;
    use dmll_runtime::supervise::{SpeculationPolicy, SupervisorPolicy};

    fn sum_squares_program() -> Program {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let sq = st.map(&x, |st, e| st.mul(e, e));
        let total = st.sum(&sq);
        st.finish(&total)
    }

    #[test]
    fn parallel_matches_sequential_exact_ints() {
        let p = sum_squares_program();
        let data: Vec<i64> = (0..1000).collect();
        let seq = eval(&p, &[("x", Value::i64_arr(data.clone()))]).unwrap();
        for threads in [1, 2, 3, 7] {
            let par = eval_parallel(&p, &[("x", Value::i64_arr(data.clone()))], threads).unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn parallel_collect_preserves_order() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let evens = st.filter(&x, |st, e| {
            let two = st.lit_i(2);
            let r = st.rem(e, &two);
            let zero = st.lit_i(0);
            st.eq(&r, &zero)
        });
        let p = st.finish(&evens);
        let data: Vec<i64> = (0..997).rev().collect();
        let seq = eval(&p, &[("x", Value::i64_arr(data.clone()))]).unwrap();
        let par = eval_parallel(&p, &[("x", Value::i64_arr(data))], 4).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_bucket_reduce_merges() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let zero = st.lit_i(0);
        let sums = st.group_by_reduce(
            &x,
            |st, e| {
                let five = st.lit_i(5);
                st.rem(e, &five)
            },
            |_st, e| e.clone(),
            |st, a, b| st.add(a, b),
            Some(&zero),
        );
        let keys = st.bucket_keys(&sums);
        let vals = st.bucket_values(&sums);
        let pair = st.tuple(&[&keys, &vals]);
        let p = st.finish(&pair);
        let data: Vec<i64> = (0..500).map(|i| i * 13 % 101).collect();
        let seq = eval(&p, &[("x", Value::i64_arr(data.clone()))]).unwrap();
        let par = eval_parallel(&p, &[("x", Value::i64_arr(data))], 3).unwrap();
        assert_eq!(seq, par, "bucket keys and sums match sequential");
    }

    #[test]
    fn parallel_empty_input() {
        let p = sum_squares_program();
        let out = eval_parallel(&p, &[("x", Value::i64_arr(vec![]))], 4).unwrap();
        assert_eq!(out, Value::I64(0));
    }

    #[test]
    fn parallel_float_sum_close() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Partitioned);
        let s = st.sum(&x);
        let p = st.finish(&s);
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let seq = eval(&p, &[("x", Value::f64_arr(data.clone()))])
            .unwrap()
            .as_f64()
            .unwrap();
        let par = eval_parallel(&p, &[("x", Value::f64_arr(data))], 4)
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((seq - par).abs() < 1e-9, "{seq} vs {par}");
    }

    #[test]
    fn injected_chunk_faults_recover_with_identical_results() {
        let p = sum_squares_program();
        let data: Vec<i64> = (0..2000).collect();
        let clean = eval_parallel(&p, &[("x", Value::i64_arr(data.clone()))], 4).unwrap();
        let opts = ParallelOptions::new(4).with_faults(ChunkFaults::fail_once([0, 2]));
        let (value, report) =
            eval_parallel_report(&p, &[("x", Value::i64_arr(data))], &opts).unwrap();
        assert_eq!(value, clean, "recovered run is bit-identical");
        assert_eq!(report.failed_executions, 2);
        assert_eq!(report.reexecuted_chunks, 2);
        assert!(report.chunk_executions >= 6, "{report:?}");
    }

    #[test]
    fn panicking_workers_are_caught_and_reexecuted() {
        let p = sum_squares_program();
        let data: Vec<i64> = (0..2000).collect();
        let clean = eval_parallel(&p, &[("x", Value::i64_arr(data.clone()))], 3).unwrap();
        let opts =
            ParallelOptions::new(3).with_faults(ChunkFaults::fail_once([1]).panicking());
        let (value, report) =
            eval_parallel_report(&p, &[("x", Value::i64_arr(data))], &opts).unwrap();
        assert_eq!(value, clean, "catch_unwind recovery is bit-identical");
        assert_eq!(report.reexecuted_chunks, 1);
    }

    #[test]
    fn collect_order_survives_chunk_reexecution() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let doubled = st.map(&x, |st, e| st.add(e, e));
        let p = st.finish(&doubled);
        let data: Vec<i64> = (0..997).rev().collect();
        let clean = eval(&p, &[("x", Value::i64_arr(data.clone()))]).unwrap();
        let opts = ParallelOptions::new(5).with_faults(ChunkFaults::fail_once([0, 3, 4]));
        let (value, _) = eval_parallel_report(&p, &[("x", Value::i64_arr(data))], &opts).unwrap();
        assert_eq!(value, clean, "Collect order preserved across recovery");
    }

    #[test]
    fn unrecoverable_chunk_surfaces_typed_error() {
        let p = sum_squares_program();
        let data: Vec<i64> = (0..2000).collect();
        let mut opts = ParallelOptions::new(4).with_faults(ChunkFaults::fail_once([1]));
        opts.max_chunk_retries = 0;
        let err = eval_parallel_report(&p, &[("x", Value::i64_arr(data))], &opts).unwrap_err();
        match err {
            EvalError::ChunkRetriesExhausted { chunk, attempts, .. } => {
                assert_eq!(chunk, 1);
                assert_eq!(attempts, 1);
            }
            other => panic!("expected ChunkRetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn persistent_faults_exhaust_retries_with_typed_error() {
        // A persistently failing chunk must not loop forever or be
        // silently dropped: it fails its cap and surfaces the typed error.
        let p = sum_squares_program();
        let data: Vec<i64> = (0..2000).collect();
        let opts = ParallelOptions::new(4).with_faults(ChunkFaults::fail_persistent([2]));
        match eval_parallel_supervised(&p, &[("x", Value::i64_arr(data))], &opts) {
            Err(ExecError::Eval(EvalError::ChunkRetriesExhausted { chunk, attempts, .. })) => {
                assert_eq!(chunk, 2);
                assert_eq!(attempts, 3, "first run + max_chunk_retries");
            }
            other => panic!("expected ChunkRetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn report_counts_execution_tiers() {
        let p = sum_squares_program();
        let data: Vec<i64> = (0..2000).collect();
        let (v1, r1) = eval_parallel_report(
            &p,
            &[("x", Value::i64_arr(data.clone()))],
            &ParallelOptions::new(4),
        )
        .unwrap();
        assert!(r1.compiled_loops >= 1, "{r1:?}");
        let (v2, r2) = eval_parallel_report(
            &p,
            &[("x", Value::i64_arr(data))],
            &ParallelOptions::new(4).tree_walk_only(),
        )
        .unwrap();
        assert_eq!(v1, v2, "tiers agree");
        assert_eq!(r2.compiled_loops, 0);
        assert!(r2.treewalk_loops >= 1, "{r2:?}");
    }

    /// `x.map(e => tick(e)).sum` with `tick` an effectful identity extern:
    /// the kernel compiler rejects the loop, so even default options walk
    /// it on the tree-walking tier.
    fn effectful_sum_program() -> Program {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let ticked = st.map(&x, |st, e| {
            st.extern_call("tick", &[e], Ty::I64, true, true)
        });
        let total = st.sum(&ticked);
        st.finish(&total)
    }

    #[test]
    fn tree_walk_tier_recovers_faults_identically() {
        // Recovery on the walk, both forced by `tree_walk_only` and reached
        // by a loop the kernel compiler rejects: each dead task is re-run
        // over its own subrange, directly on the caller's environment, and
        // the merge in task order reproduces the fault-free bits.
        let data: Vec<i64> = (0..2000).collect();
        let inputs = [("x", Value::i64_arr(data))];
        let forced = ParallelOptions::new(4).tree_walk_only();
        let rejected = ParallelOptions::new(4).with_extern("tick", |args| Ok(args[0].clone()));
        for (p, opts) in [
            (sum_squares_program(), forced),
            (effectful_sum_program(), rejected),
        ] {
            let (clean, _) = eval_parallel_report(&p, &inputs, &opts).unwrap();
            for faults in [
                ChunkFaults::fail_once([0, 2]),
                ChunkFaults::fail_once([0, 2]).panicking(),
            ] {
                let opts = opts.clone().with_faults(faults);
                let (value, report) = eval_parallel_report(&p, &inputs, &opts).unwrap();
                assert_eq!(value, clean, "walk recovery is bit-identical");
                assert_eq!(report.reexecuted_chunks, 2);
                assert_eq!(report.compiled_loops, 0, "{report:?}");
                assert_eq!(report.treewalk_loops, 1, "{report:?}");
            }
        }
    }

    #[test]
    fn real_eval_errors_are_not_retried() {
        // A genuine missing input fails immediately, never retried.
        let p = sum_squares_program();
        let err = eval_parallel(&p, &[], 4).unwrap_err();
        assert_eq!(err, EvalError::MissingInput("x".into()));
    }

    #[test]
    fn precancelled_run_aborts_before_any_task() {
        let p = sum_squares_program();
        let data: Vec<i64> = (0..5000).collect();
        for opts in [
            ParallelOptions::new(4),
            ParallelOptions::new(4).tree_walk_only(),
        ] {
            let sup = Supervisor::new(SupervisorPolicy::default());
            sup.cancel_token().cancel();
            let opts = opts.supervised(sup);
            let err = eval_parallel_supervised(&p, &[("x", Value::i64_arr(data.clone()))], &opts)
                .unwrap_err();
            match err {
                ExecError::Cancelled { partial } => {
                    assert_eq!(partial.chunk_executions, 0, "no task ran: {partial:?}");
                }
                other => panic!("expected Cancelled, got {other:?}"),
            }
        }
    }

    #[test]
    fn cancel_mid_walk_stops_at_the_next_task_boundary() {
        // The first `tick` cancels the run: the walk finishes that task and
        // polls the supervisor before the next one.
        let p = effectful_sum_program();
        let data: Vec<i64> = (0..4000).collect();
        let first_task = plan_tasks(4000, 2)[0];
        let sup = Supervisor::new(SupervisorPolicy::default());
        let token = sup.cancel_token();
        let ticks = Arc::new(AtomicUsize::new(0));
        let seen = ticks.clone();
        let opts = ParallelOptions::new(2)
            .supervised(sup)
            .with_extern("tick", move |args| {
                seen.fetch_add(1, Ordering::Relaxed);
                token.cancel();
                Ok(args[0].clone())
            });
        let err = eval_parallel_supervised(&p, &[("x", Value::i64_arr(data))], &opts).unwrap_err();
        match err {
            ExecError::Cancelled { partial } => {
                assert_eq!(partial.chunk_executions, 1, "{partial:?}");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let walked = (first_task.1 - first_task.0) as usize;
        assert_eq!(ticks.load(Ordering::Relaxed), walked);
    }

    #[test]
    fn expired_deadline_aborts_with_partial_report() {
        let p = sum_squares_program();
        let data: Vec<i64> = (0..5000).collect();
        for opts in [
            ParallelOptions::new(4),
            ParallelOptions::new(4).tree_walk_only(),
        ] {
            let sup = Supervisor::new(SupervisorPolicy::with_deadline(Duration::ZERO));
            let opts = opts.supervised(sup.clone());
            let err = eval_parallel_supervised(&p, &[("x", Value::i64_arr(data.clone()))], &opts)
                .unwrap_err();
            match err {
                ExecError::Deadline { partial, .. } => {
                    assert_eq!(partial.chunk_executions, 0, "{partial:?}");
                }
                other => panic!("expected Deadline, got {other:?}"),
            }
            assert_eq!(sup.stats().deadline_aborts, 1);
        }
    }

    #[test]
    fn mid_run_deadline_drains_within_task_granularity() {
        // The first loop's tasks each sleep ~3ms (delays are consumed per
        // chunk index, so only round one is delayed): 4 tasks on 2 workers
        // is ≥ 6ms of injected wall time, past the 5ms deadline no matter
        // how warm the kernel cache is. The abort must drain (no hang) and
        // leave most tasks unexecuted. Fusion is off so the two-loop task
        // structure (and thus the task count the deadline math assumes) is
        // pinned.
        let p = sum_squares_program();
        let data: Vec<i64> = (0..4000).collect();
        let mut faults = ChunkFaults::default();
        for ci in 0..64 {
            faults = faults.and_delay(ci, Duration::from_millis(3));
        }
        let sup = Supervisor::new(SupervisorPolicy {
            deadline: Some(Duration::from_millis(5)),
            speculation: SpeculationPolicy::disabled(),
            ..SupervisorPolicy::default()
        });
        let opts = ParallelOptions::new(2)
            .with_faults(faults)
            .supervised(sup)
            .without_fusion();
        let t0 = Instant::now();
        let err =
            eval_parallel_supervised(&p, &[("x", Value::i64_arr(data))], &opts).unwrap_err();
        let elapsed = t0.elapsed();
        match err {
            ExecError::Deadline { partial, .. } => {
                assert!(
                    partial.chunk_executions < 16,
                    "most tasks abandoned: {partial:?}"
                );
            }
            other => panic!("expected Deadline, got {other:?}"),
        }
        // The drain bound is the deadline plus one in-flight task per
        // worker, far under this ceiling.
        assert!(
            elapsed < Duration::from_millis(500),
            "drained promptly, took {elapsed:?}"
        );
    }

    #[test]
    fn speculation_clones_stragglers_without_changing_output() {
        let p = sum_squares_program();
        let data: Vec<i64> = (0..4000).collect();
        let clean = eval_parallel(&p, &[("x", Value::i64_arr(data.clone()))], 4).unwrap();
        // One task sleeps 30ms; everything else is microseconds. With an
        // aggressive policy an idle worker clones the straggler.
        let sup = Supervisor::new(SupervisorPolicy {
            speculation: SpeculationPolicy {
                enabled: true,
                min_samples: 2,
                percentile: 50.0,
                multiplier: 2.0,
                floor: Duration::from_micros(50),
            },
            ..SupervisorPolicy::default()
        });
        let opts = ParallelOptions::new(4)
            .with_faults(ChunkFaults::default().and_delay(1, Duration::from_millis(30)))
            .supervised(sup.clone());
        let (value, report) =
            eval_parallel_supervised(&p, &[("x", Value::i64_arr(data))], &opts).unwrap();
        assert_eq!(value, clean, "speculation cannot change output");
        assert!(
            report.speculative_tasks >= 1,
            "straggler was cloned: {report:?}"
        );
        assert_eq!(sup.stats().speculative_launches, report.speculative_tasks as u64);
    }

    #[test]
    fn flaky_worker_trips_quarantine_but_run_succeeds() {
        let p = sum_squares_program();
        // Large enough that worker 1's own deque holds several tasks (the
        // default breaker trips after 3 failures in its window), with every
        // task delayed a little so all three workers actually participate —
        // otherwise the first worker to spawn can drain the whole round
        // before the flaky one starts.
        let data: Vec<i64> = (0..20_000).collect();
        let clean = eval_parallel(&p, &[("x", Value::i64_arr(data.clone()))], 3).unwrap();
        let sup = Supervisor::new(SupervisorPolicy {
            speculation: SpeculationPolicy::disabled(),
            retry_budget: 256,
            ..SupervisorPolicy::default()
        });
        let mut faults = ChunkFaults::default().and_flaky_worker(1);
        for ci in 0..32 {
            faults = faults.and_delay(ci, Duration::from_millis(2));
        }
        let mut opts = ParallelOptions::new(3)
            .with_faults(faults)
            .supervised(sup.clone());
        opts.max_chunk_retries = 4;
        let (value, report) =
            eval_parallel_supervised(&p, &[("x", Value::i64_arr(data))], &opts).unwrap();
        assert_eq!(value, clean, "flaky worker cannot corrupt the result");
        assert!(
            sup.stats().quarantine_trips >= 1,
            "worker 1 tripped its breaker: {:?}",
            sup.stats()
        );
        assert_eq!(report.quarantine_trips as u64, sup.stats().quarantine_trips);
    }

    #[test]
    fn retry_budget_exhaustion_is_typed() {
        let p = sum_squares_program();
        let data: Vec<i64> = (0..4000).collect();
        let sup = Supervisor::new(SupervisorPolicy {
            retry_budget: 0,
            speculation: SpeculationPolicy::disabled(),
            ..SupervisorPolicy::default()
        });
        let opts = ParallelOptions::new(4)
            .with_faults(ChunkFaults::fail_once([0]))
            .supervised(sup);
        let err =
            eval_parallel_supervised(&p, &[("x", Value::i64_arr(data))], &opts).unwrap_err();
        match err {
            ExecError::RetryBudgetExhausted { chunk, budget, .. } => {
                assert_eq!(chunk, 0);
                assert_eq!(budget, 0);
            }
            other => panic!("expected RetryBudgetExhausted, got {other:?}"),
        }
    }
}
