//! One program execution through one executor configuration, measured
//! from outside: the harness times the call into the layer's public entry
//! point and, in the traced run, reads the public counters before and
//! after it. `tier_totals()` is process-global, which is sound here only
//! because the batch workloads run one op at a time.

use crate::apps::App;
use crate::trace::{SpanId, Tracer};
use dmll_analysis::ProgramPlan;
use dmll_core::Program;
use dmll_interp::cluster::shuffle_step;
use dmll_interp::{
    eval_cluster_measured, eval_parallel_report, tier_totals, ClusterOptions, ClusterReport,
    ExecReport, Interp, ParallelOptions, TierTotals, Value,
};
use dmll_runtime::FaultPlan;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Worker threads of the parallel and cluster workloads (`nproc` = 2).
pub const THREADS: usize = 2;

/// How an op is executed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// `Interp::new(p).with_externs(..).run()`: one thread, default tier
    /// stack (`fuse: false` pins the runtime fusion hook off).
    Seq { native: bool, fuse: bool },
    /// `eval_parallel_report` on the sharded plane: 2 threads, 2 regions,
    /// placement from the exported analysis plan.
    Sharded,
    /// Plain 2-thread `eval_parallel_report`: the bit-identity reference
    /// of the sharded and cluster planes.
    Par2,
    /// `eval_cluster_measured` over `nodes` simulated nodes; `kill` loses
    /// node 1 at the first epoch's pre-shuffle boundary.
    Cluster { nodes: usize, kill: bool },
}

impl Mode {
    /// The span name: the public function the op calls into.
    pub fn span_name(self) -> &'static str {
        match self {
            Mode::Seq { .. } => "interp.run",
            Mode::Sharded | Mode::Par2 => "interp.eval_parallel",
            Mode::Cluster { .. } => "interp.eval_cluster_measured",
        }
    }

    /// Worker threads whose loop time the tier counters add up.
    pub fn workers(self) -> usize {
        match self {
            Mode::Seq { .. } => 1,
            Mode::Sharded | Mode::Par2 => THREADS,
            Mode::Cluster { nodes, .. } => nodes * THREADS,
        }
    }
}

/// An app made ready for one workload's executor.
pub struct Prepared {
    pub app: App,
    /// The program the executor runs when it is not the app's own: the
    /// runtime-fused, analysed one (sharded plane) or the analysed one
    /// (cluster).
    exec_program: Option<Program>,
    pub plan: Option<Arc<ProgramPlan>>,
    /// Whether the interpreter's fuse-then-compile hook stays on. Off for
    /// the sharded plane: its program is fused during set-up so that the
    /// exported plan describes the loops that execute.
    pub hook: bool,
}

impl Prepared {
    /// The default path: the interpreter fuses at run time.
    pub fn sequential(app: App) -> Prepared {
        Prepared {
            app,
            exec_program: None,
            plan: None,
            hook: true,
        }
    }

    pub fn planned(app: App, program: Program, plan: ProgramPlan, hook: bool) -> Prepared {
        Prepared {
            app,
            exec_program: Some(program),
            plan: Some(Arc::new(plan)),
            hook,
        }
    }

    pub fn program(&self) -> &Program {
        self.exec_program.as_ref().unwrap_or(&self.app.program)
    }
}

/// Named counts read at one op's boundary, in reading order.
pub type CountList = Vec<(&'static str, u64)>;

/// Named counts summed over ops.
pub type Counts = BTreeMap<&'static str, u64>;

pub fn add_counts(into: &mut Counts, from: &[(&'static str, u64)]) {
    for (name, value) in from {
        *into.entry(name).or_insert(0) += value;
    }
}

/// The count named `name` in a list read at an op's boundary (0 if absent).
pub fn count_of(list: &[(&'static str, u64)], name: &str) -> u64 {
    list.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
}

pub struct OpOut {
    pub value: Value,
    pub secs: f64,
    /// Report fields always; tier-counter deltas in the traced run.
    pub counts: CountList,
}

/// What the tier counters advanced by between two `tier_totals()` reads.
pub fn tier_delta(before: &TierTotals, after: &TierTotals) -> CountList {
    macro_rules! delta {
        ($($field:ident),* $(,)?) => {
            vec![$((stringify!($field), after.$field - before.$field)),*]
        };
    }
    delta!(
        kernels_compiled,
        kernel_cache_hits,
        fallback_loops,
        compile_nanos,
        compiled_nanos,
        treewalk_nanos,
        batched_elements,
        batched_nanos,
        batched_blocks,
        tail_elements,
        simd_blocks,
        segmented_blocks,
        scatter_loops,
        batch_ineligible,
        native_loops,
        native_elements,
        native_nanos,
        native_compiles,
        native_compile_nanos,
        native_fallbacks,
    )
}

fn exec_counts(r: &ExecReport) -> CountList {
    vec![
        ("parallel_tasks", r.chunk_executions as u64),
        ("stolen_tasks", r.stolen_tasks as u64),
        ("sharded_loops", r.sharded_loops as u64),
        ("region_local_tasks", r.region_local_tasks as u64),
        ("cross_region_steals", r.cross_region_steals as u64),
        ("stencil_fallbacks", r.stencil_fallbacks as u64),
    ]
}

fn cluster_counts(r: &ClusterReport) -> CountList {
    vec![
        ("cluster_tasks", r.tasks),
        ("staged_values", r.staged_values),
        ("shuffles", r.shuffles),
        ("halo_exchanges", r.halo_exchanges),
        ("lineage_recoveries", r.lineage_recoveries),
        ("node_deaths", r.node_deaths),
        ("sends", r.sends),
        ("send_bytes", r.send_bytes),
        ("link_retries", r.link_retries),
        ("network_model_ns", r.network_nanos),
    ]
}

/// Run `prepared` once under `mode`. An error is the op's failure, never a
/// panic: the caller counts it into `failed`.
pub fn execute(
    mode: Mode,
    prepared: &Prepared,
    tracer: &mut Tracer,
    op: u64,
    parent: Option<SpanId>,
) -> Result<OpOut, String> {
    let app = &prepared.app;
    let program = prepared.program();
    let inputs = app.borrowed();
    let parallel = |options: ParallelOptions| {
        let options = options.with_externs(app.externs.clone());
        if prepared.hook {
            options
        } else {
            options.without_fusion()
        }
    };
    let before = tracer.enabled().then(tier_totals);
    let span = tracer.open(mode.span_name(), app.name, op, parent);
    let t0 = Instant::now();
    let result: Result<(Value, CountList), String> = match mode {
        Mode::Seq { native, fuse } => {
            let mut interp = Interp::new(program).with_externs(app.externs.clone());
            if native {
                interp = interp.with_native();
            }
            if !(fuse && prepared.hook) {
                interp = interp.without_fusion();
            }
            interp
                .run(&inputs)
                .map(|v| (v, Vec::new()))
                .map_err(|e| e.to_string())
        }
        Mode::Sharded => {
            let plan = prepared.plan.clone().expect("sharded mode needs a plan");
            let options = parallel(
                ParallelOptions::new(THREADS)
                    .with_regions(2)
                    .with_plan(plan),
            );
            eval_parallel_report(program, &inputs, &options)
                .map(|(v, r)| (v, exec_counts(&r)))
                .map_err(|e| e.to_string())
        }
        Mode::Par2 => {
            let options = parallel(ParallelOptions::new(THREADS));
            eval_parallel_report(program, &inputs, &options)
                .map(|(v, r)| (v, exec_counts(&r)))
                .map_err(|e| e.to_string())
        }
        Mode::Cluster { nodes, kill } => {
            let plan = prepared.plan.clone().expect("cluster mode needs a plan");
            let mut options = ClusterOptions::new(nodes, THREADS).with_plan(plan);
            if kill {
                options = options.with_faults(FaultPlan::new(1).kill_node(1, shuffle_step(0)));
            }
            eval_cluster_measured(program, &inputs, &options)
                .map(|(v, r)| (v, cluster_counts(&r)))
                .map_err(|e| e.to_string())
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    let mut counts = Vec::new();
    if let Some(before) = before {
        counts = tier_delta(&before, &tier_totals());
    }
    let result = result.map(|(value, report)| {
        counts.extend(report);
        value
    });
    tracer.close_with(span, counts.clone());
    // Layer-internal time enters as counter-derived children, so the
    // span's self time is what `run` spends outside its loops.
    let count = |name: &str| count_of(&counts, name);
    tracer.derived_child(span, "interp.kernel_compile", count("compile_nanos"));
    tracer.derived_child(
        span,
        "codegen.native_compile",
        count("native_compile_nanos"),
    );
    // A loop's first native execution compiles inside its timed region.
    let loop_nanos = (count("compiled_nanos") + count("treewalk_nanos"))
        .saturating_sub(count("native_compile_nanos"));
    tracer.derived_child(span, "interp.loops", loop_nanos / mode.workers() as u64);
    result.map(|value| OpOut {
        value,
        secs,
        counts,
    })
}
