//! Measurements every workload takes the same way: the fusion recipe and
//! the hand-optimized baseline as timed spans, and the per-layer numbers
//! computed from the set-up and recipe spans and the counting passes.

use crate::apps::ir_lines;
use crate::exec::Counts;
use crate::stats::{geomean, Summary};
use crate::trace::{median_secs_per_op, sum_counter, sum_secs, Span, SpanId};
use crate::{Ctx, Metrics};
use dmll_core::Program;
use dmll_transform::{pipeline, Target};
use std::time::Instant;

/// Time the runtime hook's recipe on a clone of `program` (the hook itself
/// runs inside the interpreter, memoized) and, for the native workload,
/// the C++ emitter on the fused result.
pub fn time_recipe(
    program: &Program,
    label: &'static str,
    emit_cpp: bool,
    ctx: &mut Ctx,
    phase: SpanId,
) {
    let op = ctx.next_op();
    let mut fused = program.clone();
    let span = ctx
        .tracer
        .open("transform.optimize_runtime", label, op, Some(phase));
    let report = pipeline::optimize_runtime(&mut fused, Target::Cpu);
    ctx.tracer.close_with(
        span,
        vec![
            ("rewrites_applied", report.applied_total() as u64),
            ("rewrites_rejected", report.rejected_total() as u64),
            ("ir_lines", ir_lines(&fused)),
        ],
    );
    if emit_cpp {
        let span = ctx.tracer.open("codegen.emit_cpp", label, op, Some(phase));
        let cpp = dmll_codegen::emit_cpp(&fused);
        ctx.tracer
            .close_with(span, vec![("cpp_bytes", cpp.len() as u64)]);
    }
}

/// Repeat the hand-optimized implementation `run` at least `min_reps`
/// times and until `secs` have passed; the median is a denominator of
/// `handopt_x`.
pub fn time_handopt(
    label: &'static str,
    run: impl Fn(),
    min_reps: usize,
    secs: f64,
    ctx: &mut Ctx,
    phase: SpanId,
) -> Summary {
    let op = ctx.next_op();
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < min_reps || t0.elapsed().as_secs_f64() < secs {
        let span = ctx.tracer.open("baselines.handopt", label, op, Some(phase));
        let t = Instant::now();
        run();
        samples.push(t.elapsed().as_secs_f64());
        ctx.tracer.close(span);
    }
    Summary::of(&samples)
}

/// Per-layer set-up numbers from `reps` repetitions' spans: times are the
/// median over repetitions of each one's sum, counts are per repetition.
pub fn setup_metrics(spans: &[Span], reps: usize, metrics: &mut Metrics) {
    let reps = reps as u64;
    let mut us = |metric: &str, span: &str| {
        metrics.insert(metric.into(), median_secs_per_op(spans, span) * 1e6);
    };
    us("frontend.stage_us", "frontend.stage");
    us(
        "transform.optimize_unfused_us",
        "transform.optimize_unfused",
    );
    us("analysis.analyze_us", "analysis.analyze");
    us("analysis.export_plan_us", "analysis.export_plan");
    metrics.insert("data.gen_s".into(), median_secs_per_op(spans, "data.gen"));
    for (metric, span, counter) in [
        ("core.ir_lines_staged", "frontend.stage", "ir_lines"),
        (
            "analysis.unexplained_fallbacks",
            "analysis.export_plan",
            "unexplained_fallbacks",
        ),
        (
            "analysis.partition_warnings",
            "analysis.export_plan",
            "partition_warnings",
        ),
    ] {
        metrics.insert(
            metric.into(),
            (sum_counter(spans, span, counter) / reps) as f64,
        );
    }
}

/// Per-layer numbers of the recipe phase ([`time_recipe`] per program).
pub fn recipe_metrics(spans: &[Span], metrics: &mut Metrics) {
    const RECIPE: &str = "transform.optimize_runtime";
    metrics.insert(
        "transform.optimize_runtime_us".into(),
        sum_secs(spans, RECIPE) * 1e6,
    );
    metrics.insert(
        "codegen.emit_cpp_us".into(),
        sum_secs(spans, "codegen.emit_cpp") * 1e6,
    );
    for (metric, span, counter) in [
        ("transform.ir_lines_fused", RECIPE, "ir_lines"),
        ("transform.rewrites_applied", RECIPE, "rewrites_applied"),
        ("transform.rewrites_rejected", RECIPE, "rewrites_rejected"),
        ("codegen.cpp_bytes", "codegen.emit_cpp", "cpp_bytes"),
    ] {
        metrics.insert(metric.into(), sum_counter(spans, span, counter) as f64);
    }
}

/// `(per-layer metric, raw count)`: counts of one warm pass (service: of
/// one fixed prefix of the seeded mix).
const COUNT_METRICS: [(&str, &str); 27] = [
    ("interp.batched_blocks", "batched_blocks"),
    ("interp.simd_blocks", "simd_blocks"),
    ("interp.segmented_blocks", "segmented_blocks"),
    ("interp.tail_elements", "tail_elements"),
    ("interp.scatter_loops", "scatter_loops"),
    ("interp.kernel_cache_hits", "kernel_cache_hits"),
    ("interp.fallback_loops", "fallback_loops"),
    ("interp.batch_ineligible", "batch_ineligible"),
    ("interp.native_loops", "native_loops"),
    ("interp.native_fallbacks", "native_fallbacks"),
    ("interp.parallel.tasks", "parallel_tasks"),
    ("interp.parallel.stolen_tasks", "stolen_tasks"),
    ("interp.parallel.sharded_loops", "sharded_loops"),
    ("interp.parallel.region_local_tasks", "region_local_tasks"),
    ("interp.parallel.cross_region_steals", "cross_region_steals"),
    ("interp.parallel.stencil_fallbacks", "stencil_fallbacks"),
    ("interp.cluster.tasks", "cluster_tasks"),
    ("interp.cluster.staged_values", "staged_values"),
    ("interp.cluster.shuffles", "shuffles"),
    ("interp.cluster.halo_exchanges", "halo_exchanges"),
    ("interp.cluster.lineage_recoveries", "lineage_recoveries"),
    ("runtime.plane.sends", "sends"),
    ("runtime.plane.send_bytes", "send_bytes"),
    ("runtime.plane.link_retries", "link_retries"),
    ("runtime.plane.network_model_ns", "network_model_ns"),
    ("service.admitted", "admitted"),
    ("service.rejected", "rejected"),
];

/// Report the first counting pass's counts and mark every count the second
/// pass did not repeat exactly as inexact: no later claim may rest on it.
pub fn count_metrics(first: &Counts, second: &Counts, ctx: &mut Ctx, metrics: &mut Metrics) {
    for (metric, raw) in COUNT_METRICS {
        let a = first.get(raw).copied().unwrap_or(0);
        let b = second.get(raw).copied().unwrap_or(0);
        metrics.insert(metric.into(), a as f64);
        if a != b {
            ctx.inexact.push(format!("{metric} ({a} then {b})"));
        }
    }
}

/// `bench.warm_spread_x`: geomean over programs of p75 ÷ p25.
pub fn spread_x<'a>(samples: impl IntoIterator<Item = &'a Vec<f64>>) -> f64 {
    let spreads: Vec<f64> = samples
        .into_iter()
        .map(|s| {
            let s = Summary::of(s);
            s.p75 / s.p25
        })
        .collect();
    geomean(&spreads)
}
