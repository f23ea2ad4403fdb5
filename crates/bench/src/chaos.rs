//! Deterministic chaos harness for the supervised executor.
//!
//! Sweeps seeded [`FaultPlan`]s — chunk kills, injected stragglers, latency
//! spikes, persistent repeat-failures — across all four generator kinds
//! (`Collect`, `Reduce`, `BucketCollect`, `BucketReduce`) and all three
//! execution tiers (batched kernels, scalar bytecode, tree-walker), and
//! asserts the contract of §5's recovery story end to end: every run is
//! **bit-identical to the fault-free sequential evaluation, or fails with a
//! typed error** — never a mismatch, never an escaped panic, never a hang.
//!
//! Determinism comes from three sides. The fault plan is derived from its
//! seed by the same counter-based SplitMix64 mixing as
//! [`dmll_runtime::fault`], so a seed names one exact scenario. The
//! injected faults themselves are decided by the coordinator before workers
//! spawn, so thread interleaving cannot change *what* fails (only who
//! executes what). And the programs use integer data, so reductions are
//! exact and chunk-order merging makes every interleaving produce the same
//! bits.
//!
//! Every run executes under a watchdog [`Supervisor`] deadline, so a
//! liveness bug in the executor surfaces as a typed
//! [`ExecError::Deadline`] — classified as a harness failure — rather than
//! a CI timeout.

use dmll_core::{LayoutHint, Ty};
use dmll_frontend::Stage;
use dmll_interp::cluster::shuffle_step;
use dmll_interp::{
    eval, eval_cluster_measured, eval_parallel_supervised, ChunkFaults, ClusterOptions, EvalError,
    ExecError, ParallelOptions, Value,
};
use dmll_runtime::{FaultEvent, FaultPlan, SpeculationPolicy, Supervisor, SupervisorPolicy};
use dmll_service::{QueryRequest, ServiceBuilder, ServiceConfig, ServiceError, TenantPolicy};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Elements per chaos workload: enough for ~10–40 work-stealing tasks.
const ROWS: usize = 30_000;

/// Work units (task indices) fault events are mapped onto. Kept below the
/// smallest task count any thread configuration plans, so every scripted
/// event actually lands.
const UNIT_SPACE: u64 = 8;

/// Base injected straggler delay.
const BASE_DELAY: Duration = Duration::from_millis(2);

/// Watchdog: far above any sane run time at the chaos sizes; hitting it
/// means the executor lost liveness.
const WATCHDOG: Duration = Duration::from_secs(60);

/// SplitMix64 avalanche (same constants as `dmll_runtime::fault`).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The four multiloop generator kinds under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenKind {
    /// `Collect`: order-preserving map.
    Collect,
    /// `Reduce`: exact integer sum.
    Reduce,
    /// `BucketCollect`: group-by with per-key collection.
    BucketCollect,
    /// `BucketReduce`: group-by with per-key reduction.
    BucketReduce,
}

impl GenKind {
    /// All four kinds.
    pub const ALL: [GenKind; 4] = [
        GenKind::Collect,
        GenKind::Reduce,
        GenKind::BucketCollect,
        GenKind::BucketReduce,
    ];

    fn name(self) -> &'static str {
        match self {
            GenKind::Collect => "collect",
            GenKind::Reduce => "reduce",
            GenKind::BucketCollect => "bucket_collect",
            GenKind::BucketReduce => "bucket_reduce",
        }
    }
}

/// The three execution tiers the sweep covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TierKind {
    /// Compiled bytecode, block-at-a-time.
    Batched,
    /// Compiled bytecode, element-at-a-time.
    Scalar,
    /// Tree-walking interpreter. Its tasks run in order on the calling
    /// thread, so injected delays and speculation do not apply to it.
    TreeWalk,
}

impl TierKind {
    /// All three tiers.
    pub const ALL: [TierKind; 3] = [TierKind::Batched, TierKind::Scalar, TierKind::TreeWalk];

    fn name(self) -> &'static str {
        match self {
            TierKind::Batched => "batched",
            TierKind::Scalar => "scalar",
            TierKind::TreeWalk => "treewalk",
        }
    }

    fn options(self, threads: usize) -> ParallelOptions {
        match self {
            TierKind::Batched => ParallelOptions::new(threads),
            TierKind::Scalar => ParallelOptions::new(threads).scalar_kernel_only(),
            TierKind::TreeWalk => ParallelOptions::new(threads).tree_walk_only(),
        }
    }
}

/// Build the workload for one generator kind over deterministic integer
/// data. Integer arithmetic keeps every tier and every chunking exact, so
/// "bit-identical" is a hard equality, not a tolerance.
fn workload(kind: GenKind, seed: u64) -> (dmll_core::Program, Vec<(String, Value)>) {
    let data: Vec<i64> = (0..ROWS as u64)
        .map(|i| (mix(seed ^ i) % 1_000) as i64)
        .collect();
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let out = match kind {
        GenKind::Collect => st.map(&x, |st, e| {
            let three = st.lit_i(3);
            let sq = st.mul(e, e);
            st.add(&sq, &three)
        }),
        GenKind::Reduce => {
            let sq = st.map(&x, |st, e| st.mul(e, e));
            st.sum(&sq)
        }
        GenKind::BucketCollect => {
            let b = st.group_by(&x, |st, e| {
                let seven = st.lit_i(7);
                st.rem(e, &seven)
            });
            let keys = st.bucket_keys(&b);
            let vals = st.bucket_values(&b);
            st.tuple(&[&keys, &vals])
        }
        GenKind::BucketReduce => {
            let zero = st.lit_i(0);
            let b = st.group_by_reduce(
                &x,
                |st, e| {
                    let five = st.lit_i(5);
                    st.rem(e, &five)
                },
                |_st, e| e.clone(),
                |st, a, b| st.add(a, b),
                Some(&zero),
            );
            let keys = st.bucket_keys(&b);
            let vals = st.bucket_values(&b);
            st.tuple(&[&keys, &vals])
        }
    };
    let p = st.finish(&out);
    (p, vec![("x".to_string(), Value::i64_arr(data))])
}

/// Derive the scripted failure scenario for a seed. Each seed mixes chunk
/// kills, stragglers, and latency spikes; seeds with `seed % 4 == 3`
/// additionally script a persistent [`FaultEvent::RepeatFailure`], whose
/// runs must surface a typed retries-exhausted error.
pub fn plan_for_seed(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    let kills = 1 + (mix(seed) % 3);
    for i in 0..kills {
        plan = plan.kill_node((mix(seed ^ (i + 1)) % UNIT_SPACE) as usize, i);
    }
    if mix(seed ^ 0xA5A5).is_multiple_of(2) {
        plan = plan.straggler(
            (mix(seed ^ 0xB6B6) % UNIT_SPACE) as usize,
            0,
            0,
            2.0 + (mix(seed ^ 0xC7C7) % 8) as f64,
        );
    }
    if mix(seed ^ 0xD8D8).is_multiple_of(2) {
        let at = mix(seed ^ 0xE9E9) % UNIT_SPACE;
        plan = plan.latency_spike(at, 1 + mix(seed ^ 0xFAFA) % 2, BASE_DELAY.as_nanos() as u64);
    }
    if seed % 4 == 3 {
        plan = plan.repeat_failure((mix(seed ^ 0x0B0B) % UNIT_SPACE) as usize);
    }
    plan
}

/// Translate a scripted [`FaultPlan`] into the executor's chunk-level
/// injections. The plan's abstract work units are task indices:
/// `NodeFailure` kills one execution of a task, `StragglerCore` and
/// `LatencySpike` delay tasks, `RepeatFailure` makes a task fail every
/// attempt. Odd seeds deliver failures as real worker panics, exercising
/// the `catch_unwind` path.
pub fn faults_for_plan(plan: &FaultPlan) -> ChunkFaults {
    let kills: Vec<usize> = plan
        .events
        .iter()
        .filter_map(|e| match *e {
            FaultEvent::NodeFailure { node, .. } => Some(node),
            _ => None,
        })
        .collect();
    let mut faults =
        ChunkFaults::fail_once(kills).and_fail_persistent(plan.repeat_failures());
    for ev in &plan.events {
        match *ev {
            FaultEvent::StragglerCore { node, slowdown, .. } => {
                faults = faults.and_delay(node, BASE_DELAY.mul_f64(slowdown.max(1.0)));
            }
            FaultEvent::LatencySpike {
                at_step,
                duration_steps,
                extra_nanos,
            } => {
                for s in at_step..at_step + duration_steps {
                    faults = faults.and_delay(s as usize, Duration::from_nanos(extra_nanos));
                }
            }
            FaultEvent::NodeFailure { .. }
            | FaultEvent::RepeatFailure { .. }
            | FaultEvent::RemoteReadDrop { .. } => {}
        }
    }
    if plan.seed % 2 == 1 {
        faults = faults.panicking();
    }
    faults
}

/// How one chaos run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Output bit-identical to the fault-free sequential evaluation.
    Identical,
    /// A typed [`ExecError`] surfaced (the variant name is recorded).
    TypedError(String),
    /// The run succeeded with a *different* value — a correctness bug.
    Mismatch,
    /// A panic escaped the executor — a containment bug.
    PanicEscape(String),
}

impl Outcome {
    fn label(&self) -> String {
        match self {
            Outcome::Identical => "identical".to_string(),
            Outcome::TypedError(v) => format!("typed_error:{v}"),
            Outcome::Mismatch => "mismatch".to_string(),
            Outcome::PanicEscape(m) => format!("panic:{m}"),
        }
    }
}

/// One (seed × generator × tier) chaos run.
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// Plan seed.
    pub seed: u64,
    /// Generator kind under test.
    pub gen: GenKind,
    /// Execution tier under test.
    pub tier: TierKind,
    /// How the run ended.
    pub outcome: Outcome,
    /// Whether the scripted plan makes a typed error the *expected*
    /// outcome (a persistent repeat-failure was injected).
    pub expects_typed: bool,
    /// Chunk executions (including retries and speculative clones).
    pub executions: usize,
    /// Chunks recovered by re-execution.
    pub reexecuted: usize,
    /// Speculative clones launched.
    pub speculative: usize,
    /// Wall time of the run.
    pub secs: f64,
}

impl ChaosRun {
    /// Does this run satisfy the bit-identical-or-typed-error contract?
    /// Runs without a scripted persistent failure must be `Identical`;
    /// runs with one must be `Identical` (fault missed the task range) or
    /// a typed error. `Mismatch` and `PanicEscape` always fail.
    pub fn ok(&self) -> bool {
        match &self.outcome {
            Outcome::Identical => true,
            Outcome::TypedError(_) => self.expects_typed,
            Outcome::Mismatch | Outcome::PanicEscape(_) => false,
        }
    }
}

/// Sweep `seeds` × all generator kinds × all tiers on `threads` workers.
pub fn run_chaos(seeds: &[u64], threads: usize) -> Vec<ChaosRun> {
    let mut out = Vec::new();
    for &seed in seeds {
        let plan = plan_for_seed(seed);
        let expects_typed = !plan.repeat_failures().is_empty();
        for kind in GenKind::ALL {
            let (program, inputs) = workload(kind, seed);
            let borrowed: Vec<(&str, Value)> =
                inputs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
            let reference = eval(&program, &borrowed).expect("fault-free reference");
            for tier in TierKind::ALL {
                out.push(run_one(
                    seed,
                    kind,
                    tier,
                    &program,
                    &borrowed,
                    &reference,
                    &plan,
                    expects_typed,
                    threads,
                ));
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    seed: u64,
    gen: GenKind,
    tier: TierKind,
    program: &dmll_core::Program,
    inputs: &[(&str, Value)],
    reference: &Value,
    plan: &FaultPlan,
    expects_typed: bool,
    threads: usize,
) -> ChaosRun {
    // Watchdog deadline turns a hang into a typed (gate-failing) error;
    // speculation races the injected stragglers; quarantine is on.
    let sup = Supervisor::new(SupervisorPolicy {
        deadline: Some(WATCHDOG),
        retry_budget: 64,
        speculation: SpeculationPolicy {
            enabled: true,
            min_samples: 3,
            percentile: 75.0,
            multiplier: 4.0,
            floor: Duration::from_micros(200),
        },
        ..SupervisorPolicy::default()
    });
    let opts = tier
        .options(threads)
        .with_faults(faults_for_plan(plan))
        .supervised(sup);
    let t0 = Instant::now();
    // The abort variants of `ExecError` carry the partial report by value
    // (see dmll-interp's `parallel` module); this closure just forwards it.
    #[allow(clippy::result_large_err)]
    let result = catch_unwind(AssertUnwindSafe(|| {
        eval_parallel_supervised(program, inputs, &opts)
    }));
    let secs = t0.elapsed().as_secs_f64();
    let (outcome, executions, reexecuted, speculative) = match result {
        Ok(Ok((value, report))) => (
            if &value == reference {
                Outcome::Identical
            } else {
                Outcome::Mismatch
            },
            report.chunk_executions,
            report.reexecuted_chunks,
            report.speculative_tasks,
        ),
        Ok(Err(e)) => {
            let name = match &e {
                ExecError::Eval(EvalError::ChunkRetriesExhausted { .. }) => {
                    "chunk_retries_exhausted"
                }
                ExecError::Eval(_) => "eval",
                ExecError::Runtime(_) => "runtime",
                ExecError::Deadline { .. } => "deadline",
                ExecError::Cancelled { .. } => "cancelled",
                ExecError::RetryBudgetExhausted { .. } => "retry_budget_exhausted",
            };
            let partial = e.partial_report().copied().unwrap_or_default();
            (
                Outcome::TypedError(name.to_string()),
                partial.chunk_executions,
                partial.reexecuted_chunks,
                partial.speculative_tasks,
            )
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            (Outcome::PanicEscape(msg), 0, 0, 0)
        }
    };
    ChaosRun {
        seed,
        gen,
        tier,
        outcome,
        expects_typed,
        executions,
        reexecuted,
        speculative,
        secs,
    }
}

/// Deadline probe: run a straggler-laden workload under a deadline far
/// below its runtime and demand a typed [`ExecError::Deadline`] carrying a
/// partial report, with the abort draining within one task granularity
/// (bounded here by a generous wall-clock allowance). Returns
/// `(ok, detail)`.
pub fn deadline_probe(threads: usize) -> (bool, String) {
    let (program, inputs) = workload(GenKind::Reduce, 17);
    let borrowed: Vec<(&str, Value)> =
        inputs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
    let mut faults = ChunkFaults::default();
    for ci in 0..64 {
        faults = faults.and_delay(ci, Duration::from_millis(2));
    }
    let sup = Supervisor::new(SupervisorPolicy {
        deadline: Some(Duration::from_millis(5)),
        speculation: SpeculationPolicy::disabled(),
        ..SupervisorPolicy::default()
    });
    let opts = ParallelOptions::new(threads)
        .with_faults(faults)
        .supervised(sup);
    let t0 = Instant::now();
    let result = eval_parallel_supervised(&program, &borrowed, &opts);
    let elapsed = t0.elapsed();
    match result {
        Err(ExecError::Deadline { partial, .. }) => {
            let drained = elapsed < Duration::from_secs(2);
            (
                drained,
                format!(
                    "deadline abort after {:.1}ms, {} executions completed",
                    elapsed.as_secs_f64() * 1e3,
                    partial.chunk_executions
                ),
            )
        }
        Err(other) => (false, format!("expected Deadline, got {other}")),
        Ok(_) => (false, "expected Deadline, run completed".to_string()),
    }
}

/// Speculation parity probe: the same straggler-laden workload with
/// speculation on and off must produce bit-identical values. Returns
/// `(ok, detail)`.
pub fn speculation_parity(threads: usize) -> (bool, String) {
    let (program, inputs) = workload(GenKind::BucketReduce, 23);
    let borrowed: Vec<(&str, Value)> =
        inputs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
    let straggler =
        ChunkFaults::default().and_delay(1, Duration::from_millis(20));
    let run = |speculation: SpeculationPolicy| {
        let sup = Supervisor::new(SupervisorPolicy {
            speculation,
            ..SupervisorPolicy::default()
        });
        let opts = ParallelOptions::new(threads)
            .with_faults(straggler.clone())
            .supervised(sup.clone());
        let (v, report) =
            eval_parallel_supervised(&program, &borrowed, &opts).expect("parity run");
        (v, report)
    };
    let aggressive = SpeculationPolicy {
        enabled: true,
        min_samples: 1,
        percentile: 50.0,
        multiplier: 1.5,
        floor: Duration::from_micros(50),
    };
    let (on, on_report) = run(aggressive);
    let (off, _) = run(SpeculationPolicy::disabled());
    if on == off {
        (
            true,
            format!(
                "identical with {} speculative launches ({} won)",
                on_report.speculative_tasks, on_report.speculation_wins
            ),
        )
    } else {
        (false, "speculation changed the output".to_string())
    }
}

/// Sharded-plane probe: one seeded fault plan (kills, stragglers, latency
/// spikes, panicking delivery) runs every generator kind on the sharded,
/// locality-aware data plane — plan-driven placement, region-granular
/// tasks where exact, same-region stealing, stitch merge — under the full
/// supervision stack. Every run must be bit-identical to the fault-free
/// sequential evaluation. Returns `(ok, detail)`.
pub fn sharded_probe(threads: usize, regions: usize, seed: u64) -> (bool, String) {
    let plan = plan_for_seed(seed);
    let mut sharded_loops = 0u64;
    for kind in GenKind::ALL {
        let (mut program, inputs) = workload(kind, seed);
        let access =
            std::sync::Arc::new(dmll_analysis::export_plan(&dmll_analysis::analyze(&mut program)));
        let borrowed: Vec<(&str, Value)> =
            inputs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        let reference = eval(&program, &borrowed).expect("fault-free reference");
        let sup = Supervisor::new(SupervisorPolicy {
            deadline: Some(WATCHDOG),
            retry_budget: 64,
            ..SupervisorPolicy::default()
        });
        let opts = ParallelOptions::new(threads)
            .with_regions(regions)
            .with_plan(access)
            .with_faults(faults_for_plan(&plan))
            .supervised(sup);
        match eval_parallel_supervised(&program, &borrowed, &opts) {
            Ok((value, report)) => {
                if value != reference {
                    return (
                        false,
                        format!("seed {seed} {}: sharded output diverged", kind.name()),
                    );
                }
                sharded_loops += report.sharded_loops as u64;
            }
            Err(e) => {
                return (
                    false,
                    format!("seed {seed} {}: unexpected error {e}", kind.name()),
                );
            }
        }
    }
    if sharded_loops == 0 {
        return (false, format!("seed {seed}: no loop ran sharded"));
    }
    (
        true,
        format!(
            "seed {seed}: all kinds identical on {regions} regions ({sharded_loops} sharded loops)"
        ),
    )
}

/// Nested-loop probe: the triangle-counting workload — whose per-vertex
/// pair loop has a data-dependent trip count (`deg²`) that the batched
/// tier runs through the segmented (CSR-flattened) path — under one
/// seeded recoverable fault plan on all three tiers. The data is integer,
/// so chunk-order merging is exact: every run must be bit-identical to
/// the fault-free sequential evaluation, and the batched run must have
/// actually executed segmented chunks (a silent fallback to scalar or
/// tree-walking also fails the gate). Returns `(ok, detail)`.
pub fn nested_probe(threads: usize, seed: u64) -> (bool, String) {
    let plan = plan_for_seed(seed);
    // ≥ threads × 1024 vertices: the chunked executor only keeps task
    // boundaries on full columnar-block multiples when the loop is at
    // least that large, and a sub-block chunk drains through the scalar
    // tail without ever reaching the segmented executor.
    let mut g_scale = 10u32;
    while (1usize << g_scale) < threads.max(1) * 1024 {
        g_scale += 1;
    }
    let g = dmll_data::graph::rmat(g_scale, 2, seed).symmetrized();
    let mut program = dmll_apps::triangles::stage_triangles();
    dmll_transform::pipeline::optimize_unfused(&mut program, dmll_transform::Target::Cpu);
    let inputs = dmll_apps::triangles::inputs_for(&g);
    let reference = eval(&program, &inputs).expect("fault-free reference");
    let mut segmented = 0u64;
    for tier in TierKind::ALL {
        let sup = Supervisor::new(SupervisorPolicy {
            deadline: Some(WATCHDOG),
            retry_budget: 64,
            ..SupervisorPolicy::default()
        });
        let opts = tier
            .options(threads)
            .with_faults(faults_for_plan(&plan))
            .supervised(sup);
        let before = dmll_interp::tier_totals();
        match eval_parallel_supervised(&program, &inputs, &opts) {
            Ok((value, _)) => {
                if value != reference {
                    return (
                        false,
                        format!("seed {seed} {}: nested output diverged", tier.name()),
                    );
                }
            }
            Err(e) => {
                return (
                    false,
                    format!("seed {seed} {}: unexpected error {e}", tier.name()),
                );
            }
        }
        let after = dmll_interp::tier_totals();
        if matches!(tier, TierKind::Batched) {
            // Saturating: the counters are process-global and another
            // thread (a concurrently-running bench test) may reset them
            // mid-probe.
            segmented = after.segmented_blocks.saturating_sub(before.segmented_blocks);
        }
    }
    if segmented == 0 {
        return (
            false,
            format!("seed {seed}: the pair loop never took the segmented batch path"),
        );
    }
    (
        true,
        format!("seed {seed}: all tiers identical under faults ({segmented} segmented chunks)"),
    )
}

/// Cluster probe: the measured multi-node executor under scripted node
/// deaths. Every generator kind runs on an `nodes`-node simulated cluster
/// while `1..nodes` worker nodes are killed at the first epoch's
/// pre-shuffle boundary — the worst spot, where the dead nodes hold
/// finished task results that only lineage re-execution on survivors can
/// reproduce. Each run executes under the chaos watchdog and must be
/// bit-identical to the fault-free sequential evaluation or fail with a
/// typed error — and across the sweep the deaths must be *observed*
/// (killed nodes counted, shards actually recovered), so a silently
/// ignored fault plan also fails the gate. Returns `(ok, detail)`.
pub fn cluster_probe(threads: usize, nodes: usize, seed: u64) -> (bool, String) {
    let mut deaths = 0u64;
    let mut recoveries = 0u64;
    let mut runs = 0u64;
    for kind in GenKind::ALL {
        let (program, inputs) = workload(kind, seed);
        let borrowed: Vec<(&str, Value)> =
            inputs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        let reference = eval(&program, &borrowed).expect("fault-free reference");
        for kill in 1..nodes.max(2) {
            // Kill nodes 1..=kill; node 0 (the coordinator's home) always
            // survives, so recovery always has a target.
            let mut faults = FaultPlan::new(seed);
            for victim in 1..=kill {
                faults = faults.kill_node(victim, shuffle_step(0));
            }
            let mut opts = ClusterOptions::new(nodes, threads).with_faults(faults);
            opts.watchdog = WATCHDOG;
            runs += 1;
            match eval_cluster_measured(&program, &borrowed, &opts) {
                Ok((value, report)) => {
                    if value != reference {
                        return (
                            false,
                            format!(
                                "seed {seed} {} kill={kill}: cluster output diverged",
                                kind.name()
                            ),
                        );
                    }
                    deaths += report.node_deaths;
                    recoveries += report.lineage_recoveries;
                }
                // Survivors always exist (node 0 lives), so recovery must
                // succeed: any error here is a gate failure, not an
                // acceptable typed outcome.
                Err(e) => {
                    return (
                        false,
                        format!("seed {seed} {} kill={kill}: unexpected error {e}", kind.name()),
                    );
                }
            }
        }
    }
    if deaths == 0 {
        return (false, format!("seed {seed}: no scripted node death fired"));
    }
    if recoveries == 0 {
        return (
            false,
            format!("seed {seed}: deaths fired but no shard was lineage-recovered"),
        );
    }
    (
        true,
        format!(
            "seed {seed}: {runs} runs on {nodes} nodes all identical \
             ({deaths} node deaths, {recoveries} shards lineage-recovered)"
        ),
    )
}

/// Service probe: the always-on multi-tenant query service under chaos.
/// Three tenants share one service. A *flaky* tenant's queries carry
/// seeded fault plans — chunk kills, stragglers, persistent failures,
/// with odd seeds delivered as real worker panics. A *stormy* tenant's
/// straggler-laden queries run under a tenant deadline far below their
/// runtime (a deadline storm: every one must abort typed, and queries
/// that sat queued past the deadline must shed without touching a
/// kernel). A *steady* tenant reads a published dataset snapshot and
/// must stay bit-exact throughout. Gate: every admitted query resolves
/// with a value bit-identical to the fault-free sequential evaluation or
/// a typed error, no panic escapes the evaluator into the service's
/// containment, and shutdown drains within the watchdog — no deadlock,
/// no collapse. Returns `(ok, detail)`.
pub fn service_probe(threads: usize, seed: u64) -> (bool, String) {
    const SCENARIOS: u64 = 6;
    let (flaky_prog, flaky_inputs) = workload(GenKind::Reduce, seed);
    let (storm_prog, storm_inputs) = workload(GenKind::BucketReduce, seed ^ 0x570F);
    let (steady_prog, steady_inputs) = workload(GenKind::Collect, seed ^ 0x51EA);
    let reference = |p: &dmll_core::Program, inputs: &[(String, Value)]| {
        let borrowed: Vec<(&str, Value)> =
            inputs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        eval(p, &borrowed).expect("fault-free reference")
    };
    let flaky_ref = reference(&flaky_prog, &flaky_inputs);
    let steady_ref = reference(&steady_prog, &steady_inputs);
    let (flaky_prog, storm_prog, steady_prog) =
        (Arc::new(flaky_prog), Arc::new(storm_prog), Arc::new(steady_prog));

    let mut b = ServiceBuilder::new(ServiceConfig {
        workers: threads,
        query_threads: 2,
        ..ServiceConfig::default()
    });
    let roomy = TenantPolicy {
        deadline: WATCHDOG,
        retry_budget: 64,
        queue_cap: 64,
        ..TenantPolicy::default()
    };
    let flaky = b.tenant("flaky", roomy.clone());
    let stormy = b.tenant(
        "stormy",
        TenantPolicy {
            deadline: Duration::from_millis(5),
            queue_cap: 64,
            ..TenantPolicy::default()
        },
    );
    let steady = b.tenant("steady", roomy);
    let svc = b.start();
    svc.publish_dataset("table", steady_inputs);

    // A storm query cannot finish inside its 5ms deadline: every task
    // drags by 2ms, same recipe as the executor-level deadline probe.
    let mut storm_faults = ChunkFaults::default();
    for ci in 0..64 {
        storm_faults = storm_faults.and_delay(ci, Duration::from_millis(2));
    }

    let mut pending = Vec::new();
    for s in 0..SCENARIOS {
        let plan = plan_for_seed(seed + s);
        let expects_typed = !plan.repeat_failures().is_empty();
        let rx = match svc.submit(
            flaky,
            QueryRequest::new(Arc::clone(&flaky_prog))
                .with_input("x", flaky_inputs[0].1.clone())
                .with_faults(faults_for_plan(&plan)),
        ) {
            Ok(rx) => rx,
            Err(e) => return (false, format!("flaky submit rejected: {e}")),
        };
        pending.push(("flaky", expects_typed, rx));
        let rx = match svc.submit(
            stormy,
            QueryRequest::new(Arc::clone(&storm_prog))
                .with_input("x", storm_inputs[0].1.clone())
                .with_faults(storm_faults.clone()),
        ) {
            Ok(rx) => rx,
            Err(e) => return (false, format!("storm submit rejected: {e}")),
        };
        pending.push(("storm", false, rx));
        let rx = match svc.submit(
            steady,
            QueryRequest::new(Arc::clone(&steady_prog)).with_dataset("table"),
        ) {
            Ok(rx) => rx,
            Err(e) => return (false, format!("steady submit rejected: {e}")),
        };
        pending.push(("steady", false, rx));
    }

    let (mut identical, mut typed, mut storm_aborts) = (0u64, 0u64, 0u64);
    for (kind, expects_typed, rx) in pending {
        let out = match rx.recv_timeout(WATCHDOG) {
            Ok(out) => out,
            Err(_) => return (false, format!("{kind} query never resolved: deadlock")),
        };
        match (&out.result, kind) {
            (Ok(v), "flaky") if *v == flaky_ref => identical += 1,
            (Ok(v), "steady") if *v == steady_ref => identical += 1,
            (Ok(_), "flaky" | "steady") => {
                return (false, format!("{kind} query diverged from the reference"));
            }
            (Ok(_), _) => return (false, "storm query beat its deadline".to_string()),
            (Err(ServiceError::Exec(ExecError::Deadline { .. })), "storm") => {
                typed += 1;
                storm_aborts += 1;
            }
            (Err(ServiceError::Exec(_)), "flaky") if expects_typed => typed += 1,
            (Err(e), _) => {
                return (false, format!("{kind} query failed unexpectedly: {e}"));
            }
        }
    }
    let expected = SCENARIOS * 3;
    if identical + typed != expected {
        return (
            false,
            format!("{identical} identical + {typed} typed != {expected} submitted"),
        );
    }
    if storm_aborts != SCENARIOS {
        return (
            false,
            format!("only {storm_aborts}/{SCENARIOS} storm queries aborted typed"),
        );
    }
    if typed == storm_aborts {
        return (
            false,
            "persistent-failure scenario surfaced no typed error".to_string(),
        );
    }

    // Shutdown under the watchdog: a deadlocked pool would hang the join.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(svc.shutdown());
    });
    let m = match rx.recv_timeout(WATCHDOG) {
        Ok(m) => m,
        Err(_) => return (false, "shutdown hung: service deadlocked".to_string()),
    };
    if m.worker_panics != 0 {
        return (
            false,
            format!("{} panics escaped the evaluator", m.worker_panics),
        );
    }
    (
        true,
        format!(
            "{identical} identical, {typed} typed ({storm_aborts} deadline aborts), \
             {} admitted, clean shutdown",
            m.admitted
        ),
    )
}

/// Serialize a sweep (plus the probes) as the `BENCH_chaos.json` document.
#[allow(clippy::too_many_arguments)]
pub fn to_json(
    runs: &[ChaosRun],
    threads: usize,
    deadline: &(bool, String),
    parity: &(bool, String),
    sharded: &(bool, String),
    nested: &(bool, String),
    service: &(bool, String),
    cluster: &(bool, String),
) -> String {
    let mut out = format!(
        "{{\n  \"experiment\": \"chaos\",\n  \"threads\": {threads},\n  \
         \"deadline_probe\": {{\"ok\": {}, \"detail\": \"{}\"}},\n  \
         \"speculation_parity\": {{\"ok\": {}, \"detail\": \"{}\"}},\n  \
         \"sharded_probe\": {{\"ok\": {}, \"detail\": \"{}\"}},\n  \
         \"nested_probe\": {{\"ok\": {}, \"detail\": \"{}\"}},\n  \
         \"service_probe\": {{\"ok\": {}, \"detail\": \"{}\"}},\n  \
         \"cluster_probe\": {{\"ok\": {}, \"detail\": \"{}\"}},\n  \"runs\": [\n",
        deadline.0,
        deadline.1,
        parity.0,
        parity.1,
        sharded.0,
        sharded.1,
        nested.0,
        nested.1,
        service.0,
        service.1,
        cluster.0,
        cluster.1
    );
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"seed\": {}, \"gen\": \"{}\", \"tier\": \"{}\", \
             \"outcome\": \"{}\", \"ok\": {}, \"expects_typed\": {}, \
             \"executions\": {}, \"reexecuted\": {}, \"speculative\": {}, \
             \"secs\": {:.4}}}{}",
            r.seed,
            r.gen.name(),
            r.tier.name(),
            r.outcome.label(),
            r.ok(),
            r.expects_typed,
            r.executions,
            r.reexecuted,
            r.speculative,
            r.secs,
            if i + 1 == runs.len() { "\n" } else { ",\n" }
        );
    }
    let _ = write!(
        out,
        "  ],\n  \"gate_ok\": {}\n}}\n",
        runs.iter().all(ChaosRun::ok)
            && deadline.0
            && parity.0
            && sharded.0
            && nested.0
            && service.0
            && cluster.0
    );
    out
}

/// Render the sweep as a terminal table.
pub fn render(runs: &[ChaosRun]) -> String {
    let mut out = String::from("Chaos sweep: seeded faults x generator kinds x execution tiers\n");
    let _ = writeln!(
        out,
        "{:<6} {:<15} {:<9} {:>6} {:>6} {:>5} {:<30}",
        "Seed", "Generator", "Tier", "Execs", "Redone", "Spec", "Outcome"
    );
    for r in runs {
        let _ = writeln!(
            out,
            "{:<6} {:<15} {:<9} {:>6} {:>6} {:>5} {:<30}",
            r.seed,
            r.gen.name(),
            r.tier.name(),
            r.executions,
            r.reexecuted,
            r.speculative,
            r.outcome.label()
        );
    }
    let bad = runs.iter().filter(|r| !r.ok()).count();
    let _ = writeln!(
        out,
        "{} runs, {} contract violations",
        runs.len(),
        bad
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        assert_eq!(plan_for_seed(7), plan_for_seed(7));
        assert_ne!(plan_for_seed(7), plan_for_seed(8));
    }

    #[test]
    fn seed_3_mod_4_scripts_persistent_failure() {
        assert!(!plan_for_seed(3).repeat_failures().is_empty());
        assert!(plan_for_seed(4).repeat_failures().is_empty());
    }

    #[test]
    fn one_seed_sweep_holds_the_contract() {
        // Full sweep of one clean seed and one persistent-failure seed at
        // 2 threads: every run bit-identical or typed. Its tree-walk tier
        // feeds the counters the measured-cluster test diffs.
        let _counters = crate::lock_tier_counters();
        let runs = run_chaos(&[4, 3], 2);
        assert_eq!(runs.len(), 2 * 4 * 3);
        for r in &runs {
            assert!(r.ok(), "contract violation: {r:?}");
        }
        // The persistent-failure seed must actually produce typed errors
        // (the scripted unit is within every configuration's task count).
        assert!(
            runs.iter()
                .any(|r| matches!(r.outcome, Outcome::TypedError(_))),
            "no typed error surfaced for the repeat-failure seed"
        );
    }

    #[test]
    fn probes_pass() {
        let (ok, detail) = deadline_probe(2);
        assert!(ok, "{detail}");
        let (ok, detail) = speculation_parity(4);
        assert!(ok, "{detail}");
        let (ok, detail) = sharded_probe(2, 2, 4);
        assert!(ok, "{detail}");
    }

    #[test]
    fn nested_probe_passes() {
        let _counters = crate::lock_tier_counters();
        let (ok, detail) = nested_probe(2, 4);
        assert!(ok, "{detail}");
    }

    #[test]
    fn cluster_probe_passes() {
        let (ok, detail) = cluster_probe(2, 3, 4);
        assert!(ok, "{detail}");
        assert!(detail.contains("lineage-recovered"), "{detail}");
    }

    #[test]
    fn service_probe_passes() {
        // Seeds 4..10 cover a persistent-failure scenario (7 % 4 == 3)
        // and panicking delivery (odd seeds), alongside the deadline
        // storm and the steady dataset tenant.
        let (ok, detail) = service_probe(2, 4);
        assert!(ok, "{detail}");
    }
}
