//! The four batch workloads: `seq-batched`, `seq-native`, `par-sharded`
//! and `cluster-2n`. One process runs one workload through the same
//! phases — set-up (repeated), cold pass, timed warm passes, hand-optimized
//! baselines, reference checks — and the traced run adds the passes the
//! per-layer numbers need.

use crate::apps::{App, Sizes, APP_NAMES, FLAT_APPS};
use crate::exec::{add_counts, count_of, execute, Counts, Mode, Prepared, THREADS};
use crate::layers::{
    count_metrics, recipe_metrics, setup_metrics, spread_x, time_handopt, time_recipe,
};
use crate::stats::{geomean, median, Summary};
use crate::trace::{sum_counter, sum_secs, SpanId};
use crate::{peak_rss_mb, Ctx, Metrics};
use dmll_interp::{eval_parallel_report, Interp, ParallelOptions, Value};
use dmll_transform::{pipeline, Target};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest warm passes a timed phase may end on.
const MIN_PASSES: usize = 3;
/// Share of `--seconds` the traced run's warm passes get (alternately
/// untraced and traced); the rest pays for the extra passes.
const TRACED_WARM_SHARE: f64 = 0.6;
/// Fresh processes whose cold pass joins this process's own in `cold_s`:
/// at least MIN, more while the time lasts, at most MAX.
const COLD_CHILDREN_MIN: usize = 2;
const COLD_CHILDREN_MAX: usize = 6;
const COLD_CHILDREN_SECS: f64 = 5.0;
const COLD_CHILD_PREFIX: &str = "cold_s ";
/// Hand-optimized repetitions: at least this many, until the time is up.
const HANDOPT_MIN_REPS: usize = 7;
const HANDOPT_SECS_PER_APP: f64 = 0.15;
/// Passes behind each traced-run ratio (`fused_x`, `speedup_x`, ...).
const RATIO_PASSES: usize = 3;

pub struct Spec {
    pub mode: Mode,
    pub apps: &'static [&'static str],
    pub sizes: Sizes,
    pub smoke: Sizes,
}

impl Spec {
    pub fn of(workload: &str) -> Option<Spec> {
        let spec = |mode, apps, sizes| Spec {
            mode,
            apps,
            sizes,
            smoke: Sizes::SMOKE,
        };
        Some(match workload {
            "seq-batched" => spec(
                Mode::Seq {
                    native: false,
                    fuse: true,
                },
                &APP_NAMES,
                Sizes::FULL,
            ),
            "seq-native" => spec(
                Mode::Seq {
                    native: true,
                    fuse: true,
                },
                &APP_NAMES,
                Sizes::FULL,
            ),
            "par-sharded" => spec(Mode::Sharded, &FLAT_APPS, Sizes::FULL),
            // Q1 at 120 000 rows keeps a 2-node pass near a second.
            "cluster-2n" => spec(
                Mode::Cluster {
                    nodes: 2,
                    kill: false,
                },
                &["pagerank", "q1"],
                Sizes {
                    q1_rows: 120_000,
                    ..Sizes::FULL
                },
            ),
            _ => return None,
        })
    }
}

/// Make a built app ready for `mode`'s executor, one span per layer call.
fn prepare(mode: Mode, app: App, ctx: &mut Ctx, op: u64, parent: SpanId) -> Prepared {
    let sharded = match mode {
        Mode::Seq { .. } => return Prepared::sequential(app),
        Mode::Sharded => true,
        Mode::Cluster { .. } | Mode::Par2 => false,
    };
    let tracer = &mut ctx.tracer;
    let mut program = app.program.clone();
    if sharded {
        // Fuse first, then analyse: the exported plan must describe the
        // loops that execute, and the hook is a no-op on its own output.
        let span = tracer.open("transform.optimize_runtime", app.name, op, Some(parent));
        pipeline::optimize_runtime(&mut program, Target::Cpu);
        tracer.close(span);
    }
    let span = tracer.open("analysis.analyze", app.name, op, Some(parent));
    let analysis = dmll_analysis::analyze(&mut program);
    tracer.close(span);
    let span = tracer.open("analysis.export_plan", app.name, op, Some(parent));
    let plan = dmll_analysis::export_plan(&analysis);
    tracer.close_with(
        span,
        vec![
            ("unexplained_fallbacks", plan.total_unexplained() as u64),
            ("partition_warnings", plan.warnings.len() as u64),
        ],
    );
    Prepared::planned(app, program, plan, !sharded)
}

/// One set-up repetition: generate, stage, optimize and plan every app.
fn setup(spec: &Spec, sizes: &Sizes, ctx: &mut Ctx, phase: SpanId) -> (Vec<Prepared>, f64) {
    let op = ctx.next_op();
    let span = ctx.tracer.open("op", "setup", op, Some(phase));
    let t0 = Instant::now();
    let prepared = spec
        .apps
        .iter()
        .map(|name| {
            let app = App::build(name, sizes, ctx.args.seed, &mut ctx.tracer, op, span);
            prepare(spec.mode, app, ctx, op, span)
        })
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    ctx.tracer.close(span);
    (prepared, secs)
}

/// Timed passes over every app.
#[derive(Default)]
struct Passes {
    /// Seconds per op, per app.
    samples: Vec<Vec<f64>>,
    wall: f64,
    ops: usize,
    passes: usize,
    /// Counts of the last pass.
    counts: Counts,
}

impl Passes {
    fn medians(&self) -> Vec<f64> {
        self.samples.iter().map(|s| median(s)).collect()
    }

    /// Append `later`'s passes; the counts are those of the last pass.
    fn merge(&mut self, later: Passes) {
        self.samples.resize(later.samples.len(), Vec::new());
        for (mine, theirs) in self.samples.iter_mut().zip(later.samples) {
            mine.extend(theirs);
        }
        self.wall += later.wall;
        self.ops += later.ops;
        self.passes += later.passes;
        self.counts = later.counts;
    }
}

/// Execute passes of `mode` over `prepared` until `budget` seconds have
/// passed and at least `min_passes` are done. Every output must equal
/// `expect` (the cold pass's output: execution is deterministic).
fn run_passes(
    mode: Mode,
    prepared: &[Prepared],
    expect: &[Option<Value>],
    budget: f64,
    min_passes: usize,
    ctx: &mut Ctx,
    phase: SpanId,
) -> Passes {
    let mut out = Passes {
        samples: vec![Vec::new(); prepared.len()],
        ..Passes::default()
    };
    let t0 = Instant::now();
    while out.passes < min_passes || t0.elapsed().as_secs_f64() < budget {
        out.counts.clear();
        for (i, p) in prepared.iter().enumerate() {
            let op = ctx.next_op();
            let span = ctx.tracer.open("op", p.app.name, op, Some(phase));
            let verdict = match execute(mode, p, &mut ctx.tracer, op, Some(span)) {
                Ok(done) => {
                    out.samples[i].push(done.secs);
                    add_counts(&mut out.counts, &done.counts);
                    match &expect[i] {
                        Some(want) if *want == done.value => Ok(()),
                        Some(_) => Err("output differs from the first execution's".to_string()),
                        None => Ok(()),
                    }
                }
                Err(e) => Err(e),
            };
            ctx.judge(&format!("{} {mode:?}", p.app.name), verdict);
            ctx.tracer.close(span);
            out.ops += 1;
        }
        out.passes += 1;
    }
    out.wall = t0.elapsed().as_secs_f64();
    out
}

/// Median seconds of the hand-optimized implementation, per app.
fn baselines(prepared: &[Prepared], ctx: &mut Ctx, phase: SpanId) -> Vec<Summary> {
    prepared
        .iter()
        .map(|p| {
            time_handopt(
                p.app.name,
                || p.app.run_handopt(),
                HANDOPT_MIN_REPS,
                HANDOPT_SECS_PER_APP,
                ctx,
                phase,
            )
        })
        .collect()
}

/// `Ok` when both executions succeeded with equal values.
fn agree(
    got: &Result<Value, String>,
    want: &Result<Value, String>,
    what: &str,
) -> Result<(), String> {
    match (got, want) {
        (Ok(g), Ok(w)) if g == w => Ok(()),
        (Ok(_), Ok(_)) => Err(format!("differs from {what}")),
        (Err(e), _) | (_, Err(e)) => Err(e.clone()),
    }
}

/// Tree-walk `p`'s program under the same chunking as the parallel
/// planes: the within-program reference of the chunked executors (their
/// float reduces merge per-chunk partials, so a sequential walk of another
/// loop structure is not bit-comparable).
fn chunked_tree_walk(p: &Prepared) -> Result<Value, String> {
    let mut options = ParallelOptions::new(THREADS)
        .tree_walk_only()
        .with_externs(p.app.externs.clone());
    if !p.hook {
        options = options.without_fusion();
    }
    eval_parallel_report(p.program(), &p.app.borrowed(), &options)
        .map(|(v, _)| v)
        .map_err(|e| e.to_string())
}

/// Reference checks, after the timed phase and outside `setup_s`.
fn reference_checks(
    spec: &Spec,
    prepared: &[Prepared],
    first: &[Option<Value>],
    ctx: &mut Ctx,
    phase: SpanId,
) {
    let chunked = !matches!(spec.mode, Mode::Seq { .. });
    let run = |mode: Mode, p: &Prepared, ctx: &mut Ctx| {
        let op = ctx.next_op();
        execute(mode, p, &mut ctx.tracer, op, Some(phase))
    };
    // Full size: every app against its hand-optimized result; the chunked
    // planes bit for bit against plain 2-thread `eval_parallel`.
    for (p, out) in prepared.iter().zip(first) {
        let Some(out) = out else { continue };
        let name = p.app.name;
        ctx.judge(
            &format!("{name} full size vs handopt"),
            p.app.check_output(out),
        );
        if !chunked {
            continue;
        }
        let reference = run(Mode::Par2, p, ctx).map(|r| r.value);
        let same = |got: Value| agree(&Ok(got), &reference, "2-thread eval_parallel");
        ctx.judge(
            &format!("{name} full size vs eval_parallel"),
            same(out.clone()),
        );
        if let Mode::Cluster { nodes, .. } = spec.mode {
            let verdict = run(Mode::Cluster { nodes, kill: true }, p, ctx).and_then(|r| {
                if count_of(&r.counts, "node_deaths") == 0
                    || count_of(&r.counts, "lineage_recoveries") == 0
                {
                    return Err("node kill was not observed or nothing was recovered".to_string());
                }
                same(r.value)
            });
            ctx.judge(&format!("{name} node kill vs eval_parallel"), verdict);
        }
    }
    // Smoke size: every program on this workload's configuration against
    // the tree-walker.
    let (smoke, _) = setup(spec, &spec.smoke, ctx, phase);
    for p in &smoke {
        let name = p.app.name;
        let got = run(spec.mode, p, ctx).map(|r| r.value);
        let want = if chunked {
            chunked_tree_walk(p)
        } else {
            Interp::new(&p.app.program)
                .without_compiled_tier()
                .without_fusion()
                .with_externs(p.app.externs.clone())
                .run(&p.app.borrowed())
                .map_err(|e| e.to_string())
        };
        ctx.judge(
            &format!("{name} smoke size vs tree-walk"),
            agree(&got, &want, "the tree-walker"),
        );
        if chunked {
            let par2 = run(Mode::Par2, p, ctx).map(|r| r.value);
            ctx.judge(
                &format!("{name} smoke size vs eval_parallel"),
                agree(&got, &par2, "2-thread eval_parallel"),
            );
        }
    }
}

fn print_rows(title: &str, prepared: &[Prepared], samples: &[Vec<f64>], hand: &[Summary]) {
    println!("{title}");
    println!(
        "  {:<10} {:>4} {:>11} {:>11} {:>11} {:>11} {:>12} {:>10}",
        "app", "n", "p25_s", "median_s", "p75_s", "p95_s", "handopt_s", "handopt_x"
    );
    for ((p, s), h) in prepared.iter().zip(samples).zip(hand) {
        let s = Summary::of(s);
        println!(
            "  {:<10} {:>4} {:>11.6} {:>11.6} {:>11.6} {:>11.6} {:>12.6} {:>10.2}",
            p.app.name,
            s.n,
            s.p25,
            s.p50,
            s.p75,
            s.p95,
            h.p50,
            s.p50 / h.p50
        );
    }
}

/// The cold pass: each program's first execution in this process, against
/// an empty kernel cache, fusion memo and native cache. Returns the
/// outputs (the reference every later execution must equal) and the
/// summed seconds.
fn cold_pass(
    spec: &Spec,
    prepared: &[Prepared],
    ctx: &mut Ctx,
    phase: SpanId,
) -> (Vec<Option<Value>>, f64) {
    let mut first = Vec::new();
    let mut secs = 0.0;
    for p in prepared {
        let op = ctx.next_op();
        let span = ctx.tracer.open("op", p.app.name, op, Some(phase));
        let done = execute(spec.mode, p, &mut ctx.tracer, op, Some(span));
        ctx.tracer.close(span);
        ctx.judge(
            &format!("{} cold", p.app.name),
            done.as_ref().map(|_| ()).map_err(Clone::clone),
        );
        secs += done.as_ref().map_or(0.0, |d| d.secs);
        first.push(done.ok().map(|d| d.value));
    }
    (first, secs)
}

/// `--cold-child`: set up once, run the cold pass, print its seconds. The
/// untraced run starts a few of these so that `cold_s` is a median over
/// fresh processes rather than one sample.
pub fn cold_child(spec: &Spec, ctx: &mut Ctx) {
    let ((prepared, _), _) = ctx.phase("phase.setup", |ctx, ph| setup(spec, &spec.sizes, ctx, ph));
    let ((_, secs), _) = ctx.phase("phase.cold", |ctx, ph| cold_pass(spec, &prepared, ctx, ph));
    println!("{COLD_CHILD_PREFIX}{secs}");
}

/// Cold passes in fresh processes, as many as fit the budget.
fn cold_in_fresh_processes(workload: &str, ctx: &mut Ctx) -> Vec<f64> {
    let Some(exe) = ctx.benchmark_exe.clone() else {
        return Vec::new();
    };
    let seed = ctx.args.seed.to_string();
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < COLD_CHILDREN_MIN
        || (samples.len() < COLD_CHILDREN_MAX && t0.elapsed().as_secs_f64() < COLD_CHILDREN_SECS)
    {
        // `output` waits for the child to end.
        let verdict = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed, "--cold-child"])
            .output()
            .map_err(|e| e.to_string())
            .and_then(|out| {
                let text = String::from_utf8_lossy(&out.stdout);
                text.lines()
                    .last()
                    .filter(|_| out.status.success())
                    .and_then(|l| l.strip_prefix(COLD_CHILD_PREFIX)?.parse::<f64>().ok())
                    .ok_or_else(|| format!("cold child failed: {}", text.trim()))
            });
        match verdict {
            Ok(secs) => {
                samples.push(secs);
                ctx.judge("cold pass in a fresh process", Ok(()));
            }
            Err(e) => {
                ctx.judge("cold pass in a fresh process", Err(e));
                break;
            }
        }
    }
    samples
}

/// Run one batch workload and return its metrics: end-to-end for the
/// untraced run, per-layer for the traced one.
pub fn run(workload: &str, spec: &Spec, ctx: &mut Ctx) -> Metrics {
    let seconds = ctx.args.seconds;
    let traced = ctx.args.trace;

    let ((prepared, setup_secs), setup_spans) = ctx.phase("phase.setup", |ctx, ph| {
        let mut secs = Vec::new();
        let mut last = Vec::new();
        for _ in 0..SETUP_REPS {
            // Drop the previous repetition first: one data set resident.
            last.clear();
            let (prepared, s) = setup(spec, &spec.sizes, ctx, ph);
            secs.push(s);
            last = prepared;
        }
        (last, secs)
    });
    let setup = Summary::of(&setup_secs);
    println!(
        "setup_s: n {} p25 {:.4} median {:.4} p75 {:.4}",
        setup.n, setup.p25, setup.p50, setup.p75
    );

    let ((first, cold_own), cold_spans) =
        ctx.phase("phase.cold", |ctx, ph| cold_pass(spec, &prepared, ctx, ph));

    let mut metrics = Metrics::new();
    if !traced {
        let mut cold_secs = cold_in_fresh_processes(workload, ctx);
        cold_secs.push(cold_own);
        let cold = Summary::of(&cold_secs);
        println!(
            "cold_s: n {} p25 {:.4} median {:.4} p75 {:.4} (fresh processes; sum over {} programs)",
            cold.n,
            cold.p25,
            cold.p50,
            cold.p75,
            prepared.len()
        );
        let (warm, _) = ctx.phase("phase.warm", |ctx, ph| {
            run_passes(spec.mode, &prepared, &first, seconds, MIN_PASSES, ctx, ph)
        });
        let rss = peak_rss_mb();
        let (hand, _) = ctx.phase("phase.baselines", |ctx, ph| baselines(&prepared, ctx, ph));
        ctx.phase("phase.checks", |ctx, ph| {
            reference_checks(spec, &prepared, &first, ctx, ph)
        });

        print_rows(
            &format!("{workload}: warm executions ({} passes)", warm.passes),
            &prepared,
            &warm.samples,
            &hand,
        );
        let medians = warm.medians();
        let ratios: Vec<f64> = medians.iter().zip(&hand).map(|(m, h)| m / h.p50).collect();
        metrics.insert("setup_s".into(), setup.p50);
        metrics.insert("cold_s".into(), cold.p50);
        metrics.insert("warm_s".into(), geomean(&medians));
        metrics.insert("handopt_x".into(), geomean(&ratios));
        metrics.insert("queries_per_s".into(), warm.ops as f64 / warm.wall);
        metrics.insert("peak_rss_mb".into(), rss);
        println!(
            "handopt_x geomean {:.3} (paper's Table 2 envelope: 1.25)",
            geomean(&ratios)
        );
        return metrics;
    }

    // Traced run: warm passes alternate untraced and traced, so that drift
    // over the run lands on both sides of `bench.trace_overhead_x`; then
    // the counting pass twice.
    let budget = seconds * TRACED_WARM_SHARE;
    let ((plain, warm), warm_spans) = ctx.phase("phase.warm", |ctx, ph| {
        let mut sides = [Passes::default(), Passes::default()];
        let t0 = Instant::now();
        while sides[1].passes < MIN_PASSES || t0.elapsed().as_secs_f64() < budget {
            for (side, on) in sides.iter_mut().zip([false, true]) {
                ctx.tracer.set_enabled(on);
                side.merge(run_passes(spec.mode, &prepared, &first, 0.0, 1, ctx, ph));
            }
        }
        let [plain, warm] = sides;
        (plain, warm)
    });
    let (count_a, _) = ctx.phase("phase.count", |ctx, ph| {
        run_passes(spec.mode, &prepared, &first, 0.0, 1, ctx, ph)
    });
    let (count_b, _) = ctx.phase("phase.count", |ctx, ph| {
        run_passes(spec.mode, &prepared, &first, 0.0, 1, ctx, ph)
    });
    let (hand, _) = ctx.phase("phase.baselines", |ctx, ph| baselines(&prepared, ctx, ph));

    // Per-app ratios against another configuration of the same programs.
    let ratio_passes = |mode: Mode, prepared: &[Prepared], ctx: &mut Ctx| {
        let expect = vec![None; prepared.len()];
        ctx.phase("phase.ratio", |ctx, ph| {
            run_passes(mode, prepared, &expect, 0.0, RATIO_PASSES, ctx, ph)
        })
        .0
    };
    let warm_medians = warm.medians();
    let mut kill_counts = Counts::new();
    match spec.mode {
        Mode::Seq { native: false, .. } => {
            let unfused = ratio_passes(
                Mode::Seq {
                    native: false,
                    fuse: false,
                },
                &prepared,
                ctx,
            );
            for ((p, u), f) in prepared.iter().zip(unfused.medians()).zip(&warm_medians) {
                metrics.insert(format!("transform.fused_x.{}", p.app.name), u / f);
            }
        }
        Mode::Seq { native: true, .. } => {}
        Mode::Sharded => {
            // The same fused programs on one thread, hook off: what the
            // seq-batched path executes after its run-time fusion.
            let seq_medians = ratio_passes(
                Mode::Seq {
                    native: false,
                    fuse: true,
                },
                &prepared,
                ctx,
            )
            .medians();
            let speedups: Vec<f64> = seq_medians
                .iter()
                .zip(&warm_medians)
                .map(|(s, p)| s / p)
                .collect();
            metrics.insert("interp.parallel.speedup_x".into(), geomean(&speedups));
        }
        Mode::Cluster { nodes, .. } => {
            let par2 = ratio_passes(Mode::Par2, &prepared, ctx).medians();
            let one = ratio_passes(
                Mode::Cluster {
                    nodes: 1,
                    kill: false,
                },
                &prepared,
                ctx,
            )
            .medians();
            let killed = ratio_passes(Mode::Cluster { nodes, kill: true }, &prepared, ctx);
            kill_counts = killed.counts.clone();
            let overhead: Vec<f64> = one.iter().zip(&par2).map(|(o, p)| o / p).collect();
            for (p, x) in prepared.iter().zip(&overhead) {
                metrics.insert(format!("interp.cluster.overhead_1n_x.{}", p.app.name), *x);
            }
            let scale: Vec<f64> = one.iter().zip(&warm_medians).map(|(o, t)| o / t).collect();
            let kill: Vec<f64> = killed
                .medians()
                .iter()
                .zip(&warm_medians)
                .map(|(k, t)| k / t)
                .collect();
            metrics.insert("interp.cluster.overhead_1n_x".into(), geomean(&overhead));
            metrics.insert("interp.cluster.scale_2n_x".into(), geomean(&scale));
            metrics.insert("interp.cluster.node_kill_x".into(), geomean(&kill));
        }
        Mode::Par2 => unreachable!("Par2 is a reference mode, not a workload"),
    }

    // The runtime hook's recipe, timed on a clone; the emitter on its result.
    let (_, recipe_spans) = ctx.phase("phase.recipe", |ctx, ph| {
        let native = matches!(spec.mode, Mode::Seq { native: true, .. });
        for p in &prepared {
            time_recipe(&p.app.program, p.app.name, native, ctx, ph);
        }
    });

    ctx.phase("phase.checks", |ctx, ph| {
        reference_checks(spec, &prepared, &first, ctx, ph)
    });

    // Per-layer numbers, computed from the spans.
    count_metrics(&count_a.counts, &count_b.counts, ctx, &mut metrics);
    if let Some(recovered) = kill_counts.get("lineage_recoveries") {
        // A fault-free pass recovers nothing; report the node-kill pass's.
        metrics.insert(
            "interp.cluster.lineage_recoveries".into(),
            *recovered as f64,
        );
    }
    let spans = ctx.tracer.spans();
    setup_metrics(&spans[setup_spans], SETUP_REPS, &mut metrics);
    recipe_metrics(&spans[recipe_spans], &mut metrics);

    // Cold pass: what compiling cost.
    let call = spec.mode.span_name();
    let cold = &spans[cold_spans];
    metrics.insert(
        "interp.kernel_compile_us".into(),
        sum_secs(cold, "interp.kernel_compile") * 1e6,
    );
    metrics.insert(
        "interp.kernels_compiled".into(),
        sum_counter(cold, call, "kernels_compiled") as f64,
    );
    metrics.insert(
        "codegen.native_compile_s".into(),
        sum_secs(cold, "codegen.native_compile"),
    );
    metrics.insert(
        "codegen.native_compiles".into(),
        sum_counter(cold, call, "native_compiles") as f64,
    );

    // Traced warm phase: times per pass.
    let passes = warm.passes as f64;
    let busy = sum_secs(&spans[warm_spans.clone()], "interp.loops") / passes;
    // What the calls spend outside their loops is their spans' self time.
    let outside: f64 = warm_spans
        .clone()
        .filter(|i| spans[*i].name == call)
        .map(|i| ctx.tracer.self_secs(i))
        .sum();
    metrics.insert("interp.loop_busy_s".into(), busy);
    metrics.insert("interp.outside_loops_s".into(), outside / passes);
    for (metric, nanos, elements) in [
        (
            "interp.batched_ns_per_elem",
            "batched_nanos",
            "batched_elements",
        ),
        (
            "interp.native_ns_per_elem",
            "native_nanos",
            "native_elements",
        ),
    ] {
        let elements = sum_counter(&spans[warm_spans.clone()], call, elements);
        if elements > 0 {
            let nanos = sum_counter(&spans[warm_spans.clone()], call, nanos);
            metrics.insert(metric.into(), nanos as f64 / elements as f64);
        }
    }
    for ((p, samples), h) in prepared.iter().zip(&warm.samples).zip(&hand) {
        let name = p.app.name;
        let m = median(samples);
        metrics.insert(format!("interp.run_s.{name}"), m);
        metrics.insert(format!("baselines.handopt_s.{name}"), h.p50);
        metrics.insert(format!("baselines.handopt_x.{name}"), m / h.p50);
    }

    // The harness's own cost and noise.
    let overhead: Vec<f64> = warm_medians
        .iter()
        .zip(plain.medians())
        .map(|(t, u)| t / u)
        .collect();
    metrics.insert("bench.trace_overhead_x".into(), geomean(&overhead));
    metrics.insert("bench.warm_spread_x".into(), spread_x(&plain.samples));

    print_rows(
        &format!(
            "{workload}: traced warm executions ({} passes; untraced baseline {} passes)",
            warm.passes, plain.passes
        ),
        &prepared,
        &warm.samples,
        &hand,
    );
    metrics
}
