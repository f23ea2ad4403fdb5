//! What a task *is*, defined once for every executor.
//!
//! A task is a subrange `[s, e)` of one compiled top-level loop. Running it
//! ([`run_task`]) walks the kernel tier ladder — the native entry when one
//! is offered, else the batched or the scalar executor on a register state
//! reused across tasks — and yields one typed accumulator per generator.
//! Finishing a loop ([`finish_gen`]) stitches each generator's per-task
//! accumulators once, in task order, and seals the result.
//!
//! Three callers share the two functions: [`crate::eval::Interp`] runs a
//! loop as the single task `(0, size)`; the work-stealing executor in
//! [`crate::parallel`] runs the task plan on worker threads; a cluster
//! node in [`crate::cluster`] is a worker whose queue is its inbox. The
//! last two run tasks under [`run_caught`], which turns a panic into a
//! typed, re-executable failure.

use crate::compile::{batch, native::NativeEntry, KAcc, KState, Kernel};
use crate::error::EvalError;
use crate::eval::{Env, Externs, LoopTier};
use crate::stats;
use crate::value::Value;
use dmll_core::Multiloop;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// How one chunk execution went wrong.
pub(crate) enum ChunkFailure {
    /// A deterministic interpreter error: retrying cannot help.
    Eval(EvalError),
    /// The worker died (real panic, or injected fault): re-executable.
    Died(String),
}

/// A worker's lazily built, reusable kernel register state. Reuse across
/// tasks is safe because every varying register is written before it is
/// read and accumulators/key directories are fresh per `run_range*` call;
/// free variables are bound when the state is built, so a state must not
/// outlive the environment it was built from.
pub(crate) enum KernelState {
    Scalar(KState),
    Batched(batch::BState),
}

impl KernelState {
    /// The scalar register file (reducer and seal blocks run on it).
    pub(crate) fn scalar_mut(&mut self) -> &mut KState {
        match self {
            KernelState::Scalar(st) => st,
            KernelState::Batched(bst) => &mut bst.scalar,
        }
    }
}

/// What one loop's tasks observed, summed across workers and recovery.
#[derive(Default)]
pub(crate) struct ChunkTally {
    /// Elements served by the native entry.
    pub(crate) native_elems: AtomicU64,
    /// Some task ran the element-at-a-time bytecode loop (not the batched
    /// executor, the scatter path or native code).
    pub(crate) element_loop: AtomicBool,
}

impl ChunkTally {
    /// Count the loop batch-ineligible when it was offered the batched tier
    /// and the element loop really ran: the scatter path serves its tasks
    /// without one, and a certified kernel reaches it only by declining at
    /// run time. Called once per loop, before errors surface.
    pub(crate) fn note_ineligible(&self, kernel: &Kernel, use_batched: bool) {
        if use_batched && self.element_loop.load(Ordering::Relaxed) {
            stats::record_batch_ineligible(kernel.element_loop_reason());
        }
    }

    /// Feed one loop a kernel served into the tier counters and say which
    /// tier that was. Called once per loop, after its tasks succeeded.
    pub(crate) fn record_served(&self, batched: bool, size: i64, dt: Duration) -> LoopTier {
        let elements = size.max(0) as u64;
        stats::record_compiled(elements, dt);
        let native = self.native_elems.load(Ordering::Relaxed);
        if native > 0 {
            stats::record_native(native, dt);
        }
        let element_loop = self.element_loop.load(Ordering::Relaxed);
        // An empty loop ran nothing natively; a fully native one ran
        // nothing on the batched executor.
        if batched && !element_loop && (native == 0 || native < elements) {
            stats::record_batched(elements, dt);
            LoopTier::Batched
        } else {
            LoopTier::Compiled
        }
    }
}

/// The native entry for a loop about to run in `batched` mode, when the
/// caller enabled the native tier; a decline is counted with its reason.
/// Only batch-certified loops are offered, so a faulting task always has
/// the batched path to land on.
pub(crate) fn native_for<'k>(
    kernel: &'k Kernel,
    ml: &Multiloop,
    env: &Env,
    offered: bool,
) -> Option<&'k NativeEntry> {
    if !offered {
        return None;
    }
    kernel
        .native_entry(ml, env)
        .map_err(|reason| stats::record_native_fallback(reason.key()))
        .ok()
}

/// Run `[range.0, range.1)` of `kernel` on the tier ladder. A native fault
/// (or decline) falls through to the register tiers, which reproduce the
/// interpreter's exact error or panic for that subrange. Re-running a range
/// uses the same kernel *and the same mode*, so recovered and speculative
/// runs stay bit-identical to the first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_task(
    kernel: &Kernel,
    env: &Env,
    externs: &Externs,
    state: &mut Option<KernelState>,
    batched: bool,
    native: Option<&NativeEntry>,
    tally: &ChunkTally,
    range: (i64, i64),
) -> Result<Vec<KAcc>, EvalError> {
    if let Some(entry) = native {
        if let Some(accs) = kernel.run_range_native(entry, env, range.0, range.1) {
            tally
                .native_elems
                .fetch_add((range.1 - range.0).max(0) as u64, Ordering::Relaxed);
            return Ok(accs);
        }
    }
    if !matches!(
        (batched, &*state),
        (true, Some(KernelState::Batched(_))) | (false, Some(KernelState::Scalar(_)))
    ) {
        *state = Some(if batched {
            KernelState::Batched(kernel.new_batched_state(env, externs)?)
        } else {
            KernelState::Scalar(kernel.new_state(env, externs)?)
        });
    }
    let state = state.as_mut().expect("state built above");
    let accs = match &mut *state {
        KernelState::Batched(bst) => kernel.run_range_batched(bst, range.0, range.1),
        KernelState::Scalar(st) => kernel.run_range(st, range.0, range.1),
    };
    if state.scalar_mut().element_loop_ran {
        tally.element_loop.store(true, Ordering::Relaxed);
    }
    accs
}

/// Run one task's closure for an executor that must survive its tasks: a
/// panic comes back as a re-executable [`ChunkFailure::Died`]. `injected`
/// delivers a chaos fault, as a real panic when `panic_workers`.
pub(crate) fn run_caught<A>(
    chunk_index: usize,
    injected: bool,
    panic_workers: bool,
    run: impl FnOnce() -> Result<Vec<A>, EvalError>,
) -> Result<Vec<A>, ChunkFailure> {
    if injected && !panic_workers {
        return Err(ChunkFailure::Died(format!(
            "injected fault on chunk {chunk_index}"
        )));
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if injected {
            panic!("injected panic on chunk {chunk_index}");
        }
        run()
    }));
    match outcome {
        Ok(result) => result.map_err(ChunkFailure::Eval),
        Err(payload) => Err(ChunkFailure::Died(panic_message(payload.as_ref()))),
    }
}

/// [`run_task`] under [`run_caught`]; any failure drops the state, so the
/// next task rebuilds it from the environment.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_chunk_kernel(
    kernel: &Kernel,
    env: &Env,
    externs: &Externs,
    state: &mut Option<KernelState>,
    batched: bool,
    native: Option<&NativeEntry>,
    tally: &ChunkTally,
    range: (i64, i64),
    chunk_index: usize,
    injected: bool,
    panic_workers: bool,
) -> Result<Vec<KAcc>, ChunkFailure> {
    let result = run_caught(chunk_index, injected, panic_workers, || {
        run_task(kernel, env, externs, state, batched, native, tally, range)
    });
    if result.is_err() {
        *state = None;
    }
    result
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Finish generator `gi` of a loop from its per-task accumulators, given in
/// task order: one stitch by task id — the same reducer calls on the same
/// `(accumulated, incoming)` operands as a pairwise fold in task order, so
/// every executor produces the same bits — then the seal. A single
/// accumulator (the one-task case) is sealed as it is; none at all seals
/// the generator's empty accumulator.
pub(crate) fn finish_gen(
    kernel: &Kernel,
    gi: usize,
    mut accs: impl ExactSizeIterator<Item = KAcc>,
    st: &mut KState,
) -> Result<Value, EvalError> {
    let acc = match accs.len() {
        0 => KAcc::for_gen(&kernel.gens[gi], 0),
        1 => accs.next().expect("length checked"),
        _ => kernel.stitch(gi, accs.collect(), st)?,
    };
    kernel.seal_gen_value(gi, acc, st)
}
