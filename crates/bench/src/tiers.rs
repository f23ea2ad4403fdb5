//! Execution-tier comparison: the same optimized programs, on real data,
//! run on the interpreter's batched kernel tier, its scalar bytecode tier,
//! and the tree-walking tier, demanding bit-identical outputs across all
//! three and measuring throughput.
//!
//! Unlike the modeled experiments, everything here is *measured*: each app
//! is staged, optimized for the CPU target (so the kernels see the
//! post-SoA loop shapes), and executed twice per tier on deterministic
//! synthetic data. Float reductions fold in the same lane order on every
//! tier (the batched executor never reassociates), so outputs must match
//! exactly, whether sequential or chunked across worker threads. The
//! programs arrive *unfused* and the runtime fuse-then-compile hook does
//! the structural fusion, so the fused-vs-unfused phases measure exactly
//! what the hook buys — with the fused output demanded bit-identical to
//! the unfused tree-walker (sequentially even across the two loop
//! structures; chunked, within each program across its tiers).

use dmll_core::Program;
use dmll_interp::{
    eval_parallel_report, reset_tier_totals, tier_totals, Externs, Interp, ParallelOptions, Value,
};
use dmll_runtime::{ExecTierStats, Supervisor, SupervisorPolicy};
use dmll_transform::{pipeline, Target};
use std::fmt::Write as _;
use std::time::Instant;

/// One app's tier-comparison measurements.
pub struct TierRow {
    /// Benchmark name.
    pub app: &'static str,
    /// Primary data dimension (rows / reads / edges).
    pub rows: usize,
    /// Worker threads used for every tier (1 = sequential).
    pub threads: usize,
    /// Best-of-two wall time on the batched kernel tier with the fusion
    /// hook on (fuse-then-compile), seconds.
    pub batched_secs: f64,
    /// Best-of-two wall time on the batched kernel tier with the fusion
    /// hook off (the unfused baseline: same loops as staged), seconds.
    pub unfused_secs: f64,
    /// Best-of-two wall time on the scalar bytecode tier, seconds.
    pub compiled_secs: f64,
    /// Best-of-two wall time on the tree-walking tier, seconds.
    pub treewalk_secs: f64,
    /// Outputs of every tier compared equal: fused batched == fused
    /// scalar == tree-walk == supervised, plus (sequentially) the fused
    /// output bit-identical to the unfused baseline. At `threads > 1`
    /// the fused-vs-unfused comparison is skipped — chunked float
    /// reduces merge per-chunk partials, and the fused program's loop
    /// structure chunks differently from the unfused one's.
    pub identical: bool,
    /// Top-level loops that ran compiled in one batched-tier execution.
    pub compiled_loops: u64,
    /// Compiled loops that executed block-at-a-time in that execution.
    pub batched_loops: u64,
    /// Top-level loops the compiler rejected (ran on the tree-walker).
    pub fallback_loops: u64,
    /// Structural rewrites the runtime fusion recipe applied, per rule
    /// (paper name, times applied) — the `OptReport` pass log.
    pub fusion_passes: Vec<(String, usize)>,
    /// Fusion candidates the cost model declined, per rule (paper name,
    /// distinct declined candidates).
    pub fusion_rejections: Vec<(String, usize)>,
    /// Typed reasons batch certification kept compiled loops scalar,
    /// with per-run execution counts.
    pub batch_reject: Vec<(String, u64)>,
    /// Best-of-two wall time with the native (compiled C) tier enabled,
    /// seconds; `None` when the native phase did not run (`--native` off).
    pub native_secs: Option<f64>,
    /// Typed reasons native-tier requests fell back to the batched tier,
    /// with per-run counts (stable `NativeIneligible` keys).
    pub native_fallback: Vec<(String, u64)>,
    /// Tier counters bridged into the runtime's profiling type.
    pub stats: ExecTierStats,
}

impl TierRow {
    /// Tree-walk time over batched time: the full tier stack's win.
    pub fn speedup(&self) -> f64 {
        self.treewalk_secs / self.batched_secs.max(1e-12)
    }

    /// Scalar bytecode time over batched time: the batched tier's own win.
    pub fn batched_speedup(&self) -> f64 {
        self.compiled_secs / self.batched_secs.max(1e-12)
    }

    /// Unfused-batched time over fused-batched time: what the
    /// fuse-then-compile hook buys on top of the batched tier.
    pub fn fused_speedup(&self) -> f64 {
        self.unfused_secs / self.batched_secs.max(1e-12)
    }

    /// Batched time over native-enabled time: what compile-and-`dlopen`
    /// buys on top of the batched tier, when the native phase ran.
    pub fn native_speedup(&self) -> Option<f64> {
        self.native_secs.map(|n| self.batched_secs / n.max(1e-12))
    }

    /// Full blocks one batched-phase execution ran (the counter spans the
    /// phase's `RUNS` executions).
    pub fn batched_blocks_per_run(&self) -> u64 {
        self.stats.batched_blocks / RUNS
    }
}

/// A staged, optimized workload with deterministic synthetic inputs.
/// Shared by the tier bench, the chaos harness, and the supervision e2e
/// tests, so every consumer exercises the same real programs.
pub struct Workload {
    /// Benchmark name.
    pub app: &'static str,
    /// The optimized program.
    pub program: Program,
    /// Named input values.
    pub inputs: Vec<(String, Value)>,
    /// Primary data dimension (rows / reads / edges).
    pub rows: usize,
    /// Extern handlers the program needs (empty for most workloads; the
    /// Gibbs sweep registers its counter-based coin flip here). Every
    /// tier resolves the same registry, so outputs stay comparable.
    pub externs: Externs,
}

fn owned(inputs: Vec<(&'static str, Value)>) -> Vec<(String, Value)> {
    inputs.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}

/// Build the five tier-comparison workloads at a size multiplier
/// (`scale = 1` is the CI smoke size; the full bench uses 10), fully
/// optimized at staging. The locality bench and chaos harness use these:
/// their plans and fault schedules are keyed to the staged loop structure,
/// so the programs arrive with every rewrite already applied.
pub fn workloads(scale: usize) -> Vec<Workload> {
    staged_workloads(scale, pipeline::optimize)
}

/// The same five workloads staged with the *unfused* recipe (cleanup, SoA
/// and interchange, no Figure 3 structural rewrites). This is what the
/// tier comparison runs: the interpreter's fuse-then-compile hook performs
/// the structural fusion at run time, so the fused-vs-unfused phases
/// measure exactly what the hook buys.
pub fn workloads_unfused(scale: usize) -> Vec<Workload> {
    staged_workloads(scale, pipeline::optimize_unfused)
}

/// The nested-loop workloads: programs whose inner trip counts vary per
/// lane of the outer loop, so the batched tier must run them through the
/// segmented (CSR-flattened) path rather than the rectangular columnar
/// one. Kept separate from [`workloads`] — the locality and cluster
/// benches key their plans to the flat five — and appended by the tier
/// comparison and the chaos harness.
pub fn workloads_nested(scale: usize) -> Vec<Workload> {
    nested_staged(scale, pipeline::optimize)
}

/// [`workloads_nested`] staged with the unfused recipe (what the tier
/// comparison runs; the runtime hook fuses at execution time).
pub fn workloads_nested_unfused(scale: usize) -> Vec<Workload> {
    nested_staged(scale, pipeline::optimize_unfused)
}

fn nested_staged(
    scale: usize,
    recipe: fn(&mut Program, Target) -> dmll_transform::OptReport,
) -> Vec<Workload> {
    let mut out = Vec::new();

    // Gibbs sampling: one synchronous sweep over a factor graph. The
    // per-variable field reduce iterates that variable's adjacency row —
    // a lane-varying trip count with a lane-varying float init (the
    // bias), folded in lane order on every tier.
    let vars = 2_000 * scale;
    let fg = dmll_data::factor::gen_factor_graph(vars, 4, 5);
    let asg = vec![1i8; vars];
    let mut p = dmll_apps::gibbs::stage_gibbs_sweep();
    recipe(&mut p, Target::Cpu);
    out.push(Workload {
        app: "Gibbs",
        program: p,
        inputs: owned(dmll_apps::gibbs::inputs_for(&fg, &asg, 9, 0)),
        rows: vars,
        externs: dmll_apps::gibbs::externs(),
    });

    // Triangle counting: the per-vertex pair loop iterates `deg²` — a
    // data-dependent trip count with heavy-tailed RMAT degrees — and
    // tests membership by binary search over the sorted CSR rows. The
    // smoke graph is the smallest that still fills a full columnar block
    // (1024 vertices): the naive tree-walk baseline pays ~100 evaluated
    // nodes per candidate pair, so `sum(deg²)` dominates harness time.
    let (g_scale, edge_factor) = if scale > 1 { (12, 4) } else { (10, 2) };
    let g = dmll_data::graph::rmat(g_scale, edge_factor, 5).symmetrized();
    let edges = g.num_edges();
    let mut p = dmll_apps::triangles::stage_triangles();
    recipe(&mut p, Target::Cpu);
    out.push(Workload {
        app: "Triangles",
        program: p,
        inputs: owned(dmll_apps::triangles::inputs_for(&g)),
        rows: edges,
        externs: Externs::default(),
    });

    out
}

fn staged_workloads(
    scale: usize,
    recipe: fn(&mut Program, Target) -> dmll_transform::OptReport,
) -> Vec<Workload> {
    let mut out = Vec::new();

    // k-means: one assignment + update iteration.
    let (km_rows, km_cols, k) = (3_000 * scale, 16, 8);
    let (x, cents, _) = dmll_data::matrix::gaussian_clusters(km_rows, km_cols, k, 0.5, 1);
    let mut p = dmll_apps::kmeans::stage_kmeans(k as i64);
    recipe(&mut p, Target::Cpu);
    out.push(Workload {
        app: "k-means",
        program: p,
        inputs: owned(vec![
            ("matrix", dmll_apps::util::matrix_value(&x)),
            ("clusters", dmll_apps::util::matrix_value(&cents)),
        ]),
        rows: km_rows,
        externs: Externs::default(),
    });

    // Logistic regression: one gradient step.
    let (lr_rows, lr_cols) = (10_000 * scale, 16);
    let (x, y) = dmll_data::matrix::labeled_binary(lr_rows, lr_cols, 2);
    let mut p = dmll_apps::logreg::stage_logreg(0.01);
    recipe(&mut p, Target::Cpu);
    out.push(Workload {
        app: "LogReg",
        program: p,
        inputs: owned(vec![
            ("x", dmll_apps::util::matrix_value(&x)),
            ("y", Value::f64_arr(y)),
            ("theta", Value::f64_arr(vec![0.0; lr_cols])),
        ]),
        rows: lr_rows,
        externs: Externs::default(),
    });

    // Gene barcoding: group reads by barcode, count + mean quality.
    let reads = 40_000 * scale;
    let cols = dmll_data::gene::to_columns(&dmll_data::gene::gen_reads(reads, 1024, 64, 3));
    let mut p = dmll_apps::gene::stage_gene();
    recipe(&mut p, Target::Cpu);
    out.push(Workload {
        app: "Gene",
        program: p,
        inputs: owned(vec![
            ("barcode", Value::i64_arr(cols.barcode)),
            ("quality", Value::i64_arr(cols.quality)),
        ]),
        rows: reads,
        externs: Externs::default(),
    });

    // PageRank (push model): bucket-reduce contributions over the edge
    // list. RMAT scale 12 at smoke size, 15 at full size.
    let g_scale = if scale > 1 { 15 } else { 12 };
    let g = dmll_data::graph::rmat(g_scale, 8, 7);
    let n = g.num_vertices();
    let ranks = vec![1.0 / n as f64; n];
    let mut p = dmll_apps::pagerank::stage_pagerank_push(0.85);
    recipe(&mut p, Target::Cpu);
    let edges = g.num_edges();
    out.push(Workload {
        app: "PageRank",
        program: p,
        inputs: owned(dmll_apps::pagerank::inputs_push(&g, &ranks)),
        rows: edges,
        externs: Externs::default(),
    });

    // TPC-H Q1: filtered group-by with five fused aggregates
    // (BucketReduce-heavy, conditioned generators).
    let li_rows = 30_000 * scale;
    let cols = dmll_data::tpch::to_columns(&dmll_data::tpch::gen_lineitems(li_rows, 11));
    let mut p = dmll_apps::q1::stage_q1();
    recipe(&mut p, Target::Cpu);
    let inputs = dmll_apps::q1::inputs_for(&p, &cols);
    out.push(Workload {
        app: "Q1",
        program: p,
        inputs,
        rows: li_rows,
        externs: Externs::default(),
    });

    out
}

/// Run the tier comparison sequentially at a size multiplier.
pub fn tier_comparison(scale: usize) -> Vec<TierRow> {
    tier_comparison_threads(scale, 1)
}

/// Run the tier comparison at a size multiplier on `threads` workers.
/// Each tier executes every app twice (the first compiled-tier run pays
/// kernel compilation, later runs hit the cache); wall times are
/// best-of-two. With `threads > 1` every tier runs through the
/// work-stealing chunked executor, so the comparison isolates the batched
/// inner loop rather than the scheduler.
pub fn tier_comparison_threads(scale: usize, threads: usize) -> Vec<TierRow> {
    tier_comparison_regions(scale, threads, 0)
}

/// Like [`tier_comparison_threads`], with the sharded data plane enabled
/// on the batched tier when `regions >= 1`: each workload is analyzed,
/// the exported access plan drives placement, and the batched phase runs
/// region-aware. Outputs must still match the scalar and tree-walking
/// tiers bit-for-bit.
pub fn tier_comparison_regions(scale: usize, threads: usize, regions: usize) -> Vec<TierRow> {
    tier_comparison_full(scale, threads, regions, true, false)
}

/// The fully-parameterized tier comparison. `fuse = false` is the
/// `--no-fuse` knob: the runtime fusion hook stays off everywhere, so the
/// batched and "unfused" phases measure the same configuration and
/// `fused_speedup` reads ~1.0. `native = true` adds a phase with the
/// native (compiled C) tier enabled; its output must stay bit-identical
/// to the batched phase, and kernels the emitter declines are counted
/// with typed reasons.
pub fn tier_comparison_full(
    scale: usize,
    threads: usize,
    regions: usize,
    fuse: bool,
    native: bool,
) -> Vec<TierRow> {
    let scale = scale.max(1);
    workloads_unfused(scale)
        .into_iter()
        .chain(workloads_nested_unfused(scale))
        .map(|c| run_case(c, threads.max(1), regions, fuse, native))
        .collect()
}

/// Which executor configuration a measurement phase uses.
#[derive(Clone, Copy)]
enum Tier {
    Batched,
    Native,
    ScalarKernel,
    TreeWalk,
}

/// Timed executions per phase (the first pays kernel compilation).
const RUNS: u64 = 2;

fn run_tier(
    program: &Program,
    borrowed: &[(&str, Value)],
    tier: Tier,
    threads: usize,
    sharding: Option<(usize, std::sync::Arc<dmll_analysis::ProgramPlan>)>,
    fuse: bool,
    externs: &Externs,
) -> (f64, Value, u64, u64) {
    let mut interp = match tier {
        Tier::Batched => Interp::new(program),
        Tier::Native => Interp::new(program).with_native(),
        Tier::ScalarKernel => Interp::new(program).without_batched_tier(),
        Tier::TreeWalk => Interp::new(program).without_compiled_tier(),
    };
    if !fuse {
        interp = interp.without_fusion();
    }
    let interp = interp.with_externs(externs.clone());
    let mut options = match tier {
        Tier::Batched => ParallelOptions::new(threads),
        Tier::Native => ParallelOptions::new(threads).with_native(),
        Tier::ScalarKernel => ParallelOptions::new(threads).scalar_kernel_only(),
        Tier::TreeWalk => ParallelOptions::new(threads).tree_walk_only(),
    };
    if !fuse {
        options = options.without_fusion();
    }
    options = options.with_externs(externs.clone());
    if let Some((regions, plan)) = sharding {
        options = options.with_regions(regions).with_plan(plan);
    }
    let mut secs = f64::INFINITY;
    let mut out = None;
    let mut compiled_loops: u64 = 0;
    let mut stolen: u64 = 0;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let v = if threads > 1 {
            let (v, report) =
                eval_parallel_report(program, borrowed, &options).expect("parallel tier run");
            compiled_loops = report.compiled_loops as u64;
            stolen += report.stolen_tasks as u64;
            v
        } else {
            let (v, report) = interp.run_report(borrowed).expect("tier run");
            compiled_loops = report.compiled_loops;
            v
        };
        secs = secs.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (secs, out.expect("two runs"), compiled_loops, stolen)
}

fn run_case(mut case: Workload, threads: usize, regions: usize, fuse: bool, native: bool) -> TierRow {
    // The program as staged (unfused): the baseline phases run this with
    // the fusion hook pinned off, so the comparison below isolates what
    // fuse-then-compile buys.
    let unfused_program = case.program.clone();

    // What the runtime fusion recipe does to this program, counted once
    // (the hook memoizes, so executions would double-count): per-rule
    // applied/rejected numbers for the report and JSON.
    let fuse_report = if fuse {
        let mut fused = case.program.clone();
        pipeline::optimize_runtime(&mut fused, Target::Cpu)
    } else {
        dmll_transform::OptReport::default()
    };

    // Sharded data plane on the batched tier: fuse first, then analyze —
    // the exported access plan must describe the loops that actually
    // execute, and the fusion hook is a no-op on its own output, so the
    // analyzed (and possibly repaired) program runs with the hook off to
    // keep the plan's symbols authoritative. The scalar and tree-walk
    // comparison phases stay blind — the tier gate then also certifies
    // sharded == blind bit-identity.
    let sharding = (regions > 0).then(|| {
        if fuse {
            pipeline::optimize_runtime(&mut case.program, Target::Cpu);
        }
        let result = dmll_analysis::analyze(&mut case.program);
        (
            regions,
            std::sync::Arc::new(dmll_analysis::export_plan(&result)),
        )
    });
    // With the sharded plane the program above is already fused and the
    // plan is keyed to it; everywhere else the hook fuses at run time
    // (the production configuration, exercising the fingerprinted kernel
    // cache).
    let hook = fuse && regions == 0;
    let borrowed: Vec<(&str, Value)> = case
        .inputs
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();

    reset_tier_totals();
    let (batched_secs, batched_out, compiled_loops, stolen) = run_tier(
        &case.program,
        &borrowed,
        Tier::Batched,
        threads,
        sharding.clone(),
        hook,
        &case.externs,
    );
    let ct = tier_totals();
    // Keys are the typed `BatchIneligible` taxonomy's stable snake_case
    // identifiers, so the JSON key set never depends on message wording.
    let batch_reject: Vec<(String, u64)> = dmll_interp::batch_reject_reasons()
        .into_iter()
        .map(|(reason, count)| (reason.key().to_string(), count / RUNS))
        .collect();

    // Native phase: the batched configuration plus the compile-and-dlopen
    // tier. Output must stay bit-identical to the batched phase; kernels
    // the emitter or the environment declines fall back to batched with
    // typed, counted reasons (compiler absent, float reassociation
    // unpinned, unsupported shape).
    reset_tier_totals();
    let (native_secs, native_identical, nt, native_fallback) = if native {
        let (secs, native_out, _, _) = run_tier(
            &case.program,
            &borrowed,
            Tier::Native,
            threads,
            None,
            hook,
            &case.externs,
        );
        let nt = tier_totals();
        let fallback: Vec<(String, u64)> = dmll_interp::native_fallback_reasons()
            .into_iter()
            .map(|(reason, count)| (reason.to_string(), count / RUNS))
            .collect();
        (Some(secs), native_out == batched_out, nt, fallback)
    } else {
        (None, true, dmll_interp::TierTotals::default(), Vec::new())
    };

    // Unfused baseline: the same batched executor over the program as
    // staged, fusion hook off.
    reset_tier_totals();
    let (mut unfused_secs, unfused_out, _, _) = run_tier(
        &unfused_program,
        &borrowed,
        Tier::Batched,
        threads,
        None,
        false,
        &case.externs,
    );

    // When the rewrite recipe applied nothing, the fused and unfused
    // phases execute identical code (the hook memoizes an identity and
    // kernels share cache entries under fingerprint 0), so any measured
    // gap is pure run-to-run timing noise. Re-measure both sides in
    // pairs until the minima agree within the smoke gate's 0.98x bound
    // or the retry budget runs out — keeping the zero-rewrite gate
    // meaningful on noisy runners without loosening it. With `regions`
    // the fused side is the sharded plane over the same loops, so the
    // same gate reads "sharded is not slower than blind" and gets the
    // same paired re-measurement.
    let mut batched_secs = batched_secs;
    if fuse && fuse_report.applied_total() == 0 {
        for retry in 0..6 {
            if unfused_secs >= 0.98 * batched_secs {
                break;
            }
            // Alternate which side is measured first so a monotonic
            // frequency/load drift on the runner biases each side equally
            // across the retry budget instead of always favoring one.
            let fused_once = || {
                run_tier(
                    &case.program,
                    &borrowed,
                    Tier::Batched,
                    threads,
                    sharding.clone(),
                    hook,
                    &case.externs,
                )
                .0
            };
            let unfused_once = || {
                run_tier(
                    &unfused_program,
                    &borrowed,
                    Tier::Batched,
                    threads,
                    None,
                    false,
                    &case.externs,
                )
                .0
            };
            let (b2, u2) = if retry % 2 == 0 {
                let b = fused_once();
                (b, unfused_once())
            } else {
                let u = unfused_once();
                (fused_once(), u)
            };
            batched_secs = batched_secs.min(b2);
            unfused_secs = unfused_secs.min(u2);
        }
    }

    reset_tier_totals();
    let (compiled_secs, scalar_out, _, _) = run_tier(
        &case.program,
        &borrowed,
        Tier::ScalarKernel,
        threads,
        None,
        hook,
        &case.externs,
    );

    // Tree-walk reference. Sequentially this is the *unfused* program —
    // the paper's semantics as written, which the fused batched and
    // scalar tiers must match bit-for-bit, lane-order float folds
    // included. Chunked (threads > 1) it runs the same configuration as
    // the batched phase: per-chunk float-reduce partials merge with the
    // reduction operator, which reassociates rounding differently for
    // different loop structures, so the cross-program identity claim is
    // sequential and the chunked gate is within-program across tiers.
    reset_tier_totals();
    let (treewalk_secs, treewalk_out, _, _) = if threads > 1 {
        run_tier(
            &case.program,
            &borrowed,
            Tier::TreeWalk,
            threads,
            None,
            hook,
            &case.externs,
        )
    } else {
        // The sequential tree-walk baseline runs the *unfused* program
        // with both the compiled tier and the fusion hook off — the
        // paper's naive-recursive baseline, exactly as staged.
        let walker = Interp::new(&unfused_program)
            .without_compiled_tier()
            .without_fusion()
            .with_externs(case.externs.clone());
        let mut secs = f64::INFINITY;
        let mut out = None;
        for _ in 0..RUNS {
            let t0 = Instant::now();
            let v = walker.run(&borrowed).expect("tree-walk tier run");
            secs = secs.min(t0.elapsed().as_secs_f64());
            out = Some(v);
        }
        (secs, out.expect("two runs"), 0, 0)
    };
    let tt = tier_totals();

    // Supervised phase: one batched run under a default supervisor
    // (speculation + quarantine enabled, no deadline). Outputs must match
    // the unsupervised batched run bit-for-bit — speculation only clones
    // deterministic tasks — and the supervision counters land in the
    // report.
    reset_tier_totals();
    let supervised_identical = if threads > 1 {
        let sup = Supervisor::new(SupervisorPolicy::default());
        let mut opts = ParallelOptions::new(threads)
            .supervised(sup)
            .with_externs(case.externs.clone());
        if !hook {
            opts = opts.without_fusion();
        }
        let (v, _) = dmll_interp::eval_parallel_supervised(&case.program, &borrowed, &opts)
            .expect("supervised tier run");
        v == batched_out
    } else {
        true
    };
    let st = tier_totals();

    // Bridge the interpreter counters into the runtime's profiling type:
    // kernel/compile/batched numbers from the batched phase, walk numbers
    // from the forced tree-walk phase, supervision numbers from the
    // supervised phase.
    let stats = ExecTierStats {
        kernels_compiled: ct.kernels_compiled,
        kernel_cache_hits: ct.kernel_cache_hits,
        fallback_loops: ct.fallback_loops,
        compile_nanos: ct.compile_nanos,
        compiled_loops: ct.compiled_loops,
        compiled_elements: ct.compiled_elements,
        compiled_nanos: ct.compiled_nanos,
        treewalk_loops: tt.treewalk_loops,
        treewalk_elements: tt.treewalk_elements,
        treewalk_nanos: tt.treewalk_nanos,
        batched_loops: ct.batched_loops,
        batched_elements: ct.batched_elements,
        batched_nanos: ct.batched_nanos,
        batched_blocks: ct.batched_blocks,
        tail_elements: ct.tail_elements,
        simd_blocks: ct.simd_blocks,
        segmented_blocks: ct.segmented_blocks,
        scatter_loops: ct.scatter_loops,
        native_loops: nt.native_loops,
        native_elements: nt.native_elements,
        native_nanos: nt.native_nanos,
        native_compiles: nt.native_compiles,
        native_compile_nanos: nt.native_compile_nanos,
        // Per-run, matching `native_fallback_reasons` and
        // `batch_ineligible` below (each execution re-requests the tier).
        native_fallbacks: nt.native_fallbacks / RUNS,
        tasks_stolen: ct.tasks_stolen.max(stolen),
        cache_evictions: ct.cache_evictions,
        negative_hits: ct.negative_hits,
        speculative_launches: st.speculative_launches,
        speculation_wins: st.speculation_wins,
        quarantine_trips: st.quarantine_trips,
        deadline_aborts: st.deadline_aborts,
        cancelled_aborts: st.cancelled_aborts,
        sharded_loops: ct.sharded_loops,
        stencil_fallbacks: ct.stencil_fallbacks,
        partition_warnings: ct.partition_warnings,
        region_local_tasks: ct.region_local_tasks,
        cross_region_steals: ct.cross_region_steals,
        // Per-program facts from the rewrite report, not the per-run
        // counters (executions would multiply them by RUNS).
        fusion_applied: fuse_report.applied_total() as u64,
        fusion_rejected: fuse_report.rejected_total() as u64,
        batch_ineligible: ct.batch_ineligible / RUNS,
        // The kernel-tier bench never runs the cluster data plane; these
        // stay zero here and are populated by the fig8_cluster bench.
        cluster_loops: ct.cluster_loops,
        cluster_shuffles: ct.cluster_shuffles,
        shuffle_sends: ct.shuffle_sends,
        shuffle_bytes: ct.shuffle_bytes,
        link_retries: ct.link_retries,
        lineage_recoveries: ct.lineage_recoveries,
        halo_exchanges: ct.halo_exchanges,
        cluster_network_nanos: ct.cluster_network_nanos,
    };
    TierRow {
        app: case.app,
        rows: case.rows,
        threads,
        batched_secs,
        unfused_secs,
        compiled_secs,
        treewalk_secs,
        identical: batched_out == scalar_out
            && batched_out == treewalk_out
            // Fused-vs-unfused bit identity is the sequential claim;
            // chunked float reduces fold per-chunk partials, and the two
            // programs chunk different loop structures.
            && (threads > 1 || batched_out == unfused_out)
            && supervised_identical
            && native_identical,
        compiled_loops,
        batched_loops: ct.batched_loops,
        fallback_loops: ct.fallback_loops,
        fusion_passes: fuse_report.passes.clone(),
        fusion_rejections: fuse_report
            .rejections
            .iter()
            .map(|(name, set)| (name.clone(), set.len()))
            .collect(),
        batch_reject,
        native_secs,
        native_fallback,
        stats,
    }
}

fn json_count_map<K: std::fmt::Display, V: std::fmt::Display>(entries: &[(K, V)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in entries.iter().enumerate() {
        let _ = write!(out, "{}\"{}\": {}", if i == 0 { "" } else { ", " }, k, v);
    }
    out.push('}');
    out
}

/// Serialize rows as the `BENCH_kernels.json` document.
pub fn to_json(rows: &[TierRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"kernels_tier\",\n  \"apps\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"app\": \"{}\", \"rows\": {}, \"threads\": {}, \
             \"batched_secs\": {:.6}, \"unfused_secs\": {:.6}, \
             \"compiled_secs\": {:.6}, \
             \"treewalk_secs\": {:.6}, \"speedup\": {:.2}, \
             \"batched_speedup\": {:.2}, \"fused_speedup\": {:.2}, \
             \"identical\": {}, \
             \"compiled_loops\": {}, \"batched_loops\": {}, \
             \"fallback_loops\": {}, \
             \"fusion_applied\": {}, \"fusion_rejected\": {}, \
             \"fusion_passes\": {}, \"fusion_rejections\": {}, \
             \"batch_ineligible\": {}, \"batch_fallback_reasons\": {}, \
             \"kernels_compiled\": {}, \"kernel_cache_hits\": {}, \
             \"compile_millis\": {:.3}, \
             \"batched_blocks\": {}, \"tail_elements\": {}, \
             \"simd_blocks\": {}, \"segmented_blocks\": {}, \
             \"scatter_loops\": {}, \
             \"native_secs\": {}, \"native_speedup\": {}, \
             \"native_loops\": {}, \"native_compiles\": {}, \
             \"native_compile_millis\": {:.3}, \
             \"native_fallbacks\": {}, \"native_fallback_reasons\": {}, \
             \"native_elements_per_sec\": {:.0}, \
             \"tasks_stolen\": {}, \"cache_evictions\": {}, \
             \"negative_hits\": {}, \
             \"speculative_launches\": {}, \"speculation_wins\": {}, \
             \"quarantine_trips\": {}, \"deadline_aborts\": {}, \
             \"cancelled_aborts\": {}, \
             \"sharded_loops\": {}, \"stencil_fallbacks\": {}, \
             \"partition_warnings\": {}, \"region_local_tasks\": {}, \
             \"cross_region_steals\": {}, \
             \"batched_elements_per_sec\": {:.0}, \
             \"compiled_elements_per_sec\": {:.0}, \
             \"treewalk_elements_per_sec\": {:.0}}}{}",
            r.app,
            r.rows,
            r.threads,
            r.batched_secs,
            r.unfused_secs,
            r.compiled_secs,
            r.treewalk_secs,
            r.speedup(),
            r.batched_speedup(),
            r.fused_speedup(),
            r.identical,
            r.compiled_loops,
            r.batched_loops,
            r.fallback_loops,
            r.stats.fusion_applied,
            r.stats.fusion_rejected,
            json_count_map(&r.fusion_passes),
            json_count_map(&r.fusion_rejections),
            r.stats.batch_ineligible,
            json_count_map(&r.batch_reject),
            r.stats.kernels_compiled,
            r.stats.kernel_cache_hits,
            r.stats.compile_nanos as f64 / 1e6,
            r.stats.batched_blocks,
            r.stats.tail_elements,
            r.stats.simd_blocks,
            r.stats.segmented_blocks,
            r.stats.scatter_loops,
            r.native_secs
                .map_or("null".to_string(), |s| format!("{s:.6}")),
            r.native_speedup()
                .map_or("null".to_string(), |s| format!("{s:.2}")),
            r.stats.native_loops,
            r.stats.native_compiles,
            r.stats.native_compile_nanos as f64 / 1e6,
            r.stats.native_fallbacks,
            json_count_map(&r.native_fallback),
            r.stats.native_elements_per_sec().unwrap_or(0.0),
            r.stats.tasks_stolen,
            r.stats.cache_evictions,
            r.stats.negative_hits,
            r.stats.speculative_launches,
            r.stats.speculation_wins,
            r.stats.quarantine_trips,
            r.stats.deadline_aborts,
            r.stats.cancelled_aborts,
            r.stats.sharded_loops,
            r.stats.stencil_fallbacks,
            r.stats.partition_warnings,
            r.stats.region_local_tasks,
            r.stats.cross_region_steals,
            r.stats.batched_elements_per_sec().unwrap_or(0.0),
            r.stats.compiled_elements_per_sec().unwrap_or(0.0),
            r.stats.treewalk_elements_per_sec().unwrap_or(0.0),
            if i + 1 == rows.len() { "\n" } else { ",\n" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_agree_and_kernels_fire() {
        let _counters = crate::lock_tier_counters();
        // Smallest scale: correctness of the comparison harness, not speed.
        let rows = tier_comparison(1);
        assert_eq!(rows.len(), 7);
        let mut batched_apps = 0;
        for r in &rows {
            assert!(r.identical, "{} tiers disagree", r.app);
            assert!(r.compiled_loops > 0, "{} never compiled a loop", r.app);
            assert!(r.stats.treewalk_loops > 0, "{} never tree-walked", r.app);
            if r.batched_loops > 0 {
                batched_apps += 1;
                assert!(
                    r.stats.batched_blocks > 0 || r.stats.tail_elements > 0,
                    "{} batched without block or tail work",
                    r.app
                );
            }
        }
        assert!(
            batched_apps >= 2,
            "expected at least two apps on the batched tier, got {batched_apps}"
        );
        // Fuse-then-compile: the hook must find structural rewrites on the
        // unfused-staged flagship apps and surface the counters.
        for app in ["Q1", "k-means"] {
            let r = rows.iter().find(|r| r.app == app).expect("row");
            assert!(
                r.stats.fusion_applied > 0,
                "{} runtime recipe applied nothing: {:?}",
                app,
                r.fusion_passes
            );
        }
        // The nested-loop workloads must run their variable-trip inner
        // loops through the segmented batch path — fully batched, zero
        // scalar fallbacks.
        for app in ["Gibbs", "Triangles"] {
            let r = rows.iter().find(|r| r.app == app).expect("row");
            assert!(r.batched_loops > 0, "{app} never batched");
            assert!(
                r.stats.segmented_blocks > 0,
                "{app} never took the segmented path"
            );
            assert_eq!(r.fallback_loops, 0, "{app} fell back to the tree-walker");
        }
        let json = to_json(&rows);
        assert!(json.contains("\"k-means\""), "{json}");
        assert!(json.contains("\"PageRank\""), "{json}");
        assert!(json.contains("\"Q1\""), "{json}");
        assert!(json.contains("\"Gibbs\""), "{json}");
        assert!(json.contains("\"Triangles\""), "{json}");
        assert!(json.contains("\"identical\": true"), "{json}");
        assert!(json.contains("\"fused_speedup\""), "{json}");
        assert!(json.contains("\"fusion_passes\""), "{json}");
        assert!(json.contains("\"segmented_blocks\""), "{json}");
    }

    #[test]
    fn tiers_agree_across_threads() {
        let _counters = crate::lock_tier_counters();
        // The work-stealing chunked path must stay bit-identical too.
        for r in tier_comparison_threads(1, 3) {
            assert!(r.identical, "{} tiers disagree at 3 threads", r.app);
        }
    }

    #[test]
    fn no_fuse_knob_pins_hook_off() {
        let _counters = crate::lock_tier_counters();
        let rows = tier_comparison_full(1, 1, 0, false, false);
        for r in &rows {
            assert!(r.identical, "{} tiers disagree with fusion off", r.app);
            assert_eq!(r.stats.fusion_applied, 0, "{} fused anyway", r.app);
            assert!(r.fusion_passes.is_empty(), "{}", r.app);
        }
    }
}
