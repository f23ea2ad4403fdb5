//! Per-loop work/traffic profiles extracted from the optimized IR.
//!
//! The cost model does not guess what an application does — it walks the
//! *post-transformation* multiloops, classifying every collection read with
//! the stencil analysis and every collection with the partitioning analysis,
//! and sums arithmetic and bytes per iteration. Nested loops multiply by
//! their (shape-derived) trip counts. The effects of the Figure 3 rules are
//! therefore visible directly in the profiles: e.g. transformed k-means
//! touches the matrix once per iteration instead of once per cluster.

use crate::shape::{self, ShapeConfig, ShapeEnv, ShapeVal};
use dmll_analysis::{AnalysisResult, DataLayout, Stencil};
use dmll_core::visit::def_blocks;
use dmll_core::{Block, Def, Exp, Gen, Program, Sym};
use std::collections::{BTreeSet, HashMap};

/// Work and traffic of one top-level multiloop.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoopProfile {
    /// First output symbol (identifies the loop).
    pub sym: Option<Sym>,
    /// Trip count.
    pub iterations: f64,
    /// Arithmetic operations per iteration.
    pub flops_per_iter: f64,
    /// Bytes per iteration streamed from partitioned collections with
    /// interval (local-partition) access.
    pub stream_bytes_per_iter: f64,
    /// Bytes per iteration from local / broadcast-replica data.
    pub local_bytes_per_iter: f64,
    /// Bytes per iteration read at data-dependent (Unknown) locations of
    /// partitioned collections — candidate remote reads.
    pub random_bytes_per_iter: f64,
    /// Bytes written per iteration (collect outputs).
    pub output_bytes_per_iter: f64,
    /// One-time bytes that must be broadcast before the loop runs (local
    /// collections consumed inside a distributed loop, plus partitioned
    /// collections consumed with an `All` stencil).
    pub broadcast_bytes: f64,
    /// Size of one reduction value — combined across workers after the loop.
    pub reduce_bytes: f64,
    /// Total bytes each worker contributes to the post-loop combine (the
    /// whole bucket map for bucket loops, one value for plain reduces).
    pub combine_bytes: f64,
    /// True when some generator reduces non-scalar (collection) values —
    /// the case GPU shared memory cannot hold (§3.2).
    pub has_nonscalar_reduce: bool,
    /// True when the loop maintains buckets (hash/shuffle machinery).
    pub is_bucket: bool,
    /// True when the loop consumes partitioned data and is distributed.
    pub partitioned: bool,
}

impl LoopProfile {
    /// Total arithmetic of the loop.
    pub fn total_flops(&self) -> f64 {
        self.iterations * self.flops_per_iter
    }

    /// Total bytes touched by the loop body (excluding broadcasts).
    pub fn total_bytes(&self) -> f64 {
        self.iterations
            * (self.stream_bytes_per_iter
                + self.local_bytes_per_iter
                + self.random_bytes_per_iter
                + self.output_bytes_per_iter)
    }
}

struct Ctx<'a> {
    stencils: &'a HashMap<Sym, Stencil>,
    layouts: &'a dmll_analysis::PartitionReport,
    cfg: &'a ShapeConfig,
}

#[derive(Clone, Copy, Debug, Default)]
struct Cost {
    flops: f64,
    stream: f64,
    local: f64,
    random: f64,
}

impl Cost {
    fn add(&mut self, o: Cost) {
        self.flops += o.flops;
        self.stream += o.stream;
        self.local += o.local;
        self.random += o.random;
    }

    fn scaled(self, k: f64) -> Cost {
        Cost {
            flops: self.flops * k,
            stream: self.stream * k,
            local: self.local * k,
            random: self.random * k,
        }
    }
}

/// Extract profiles for every top-level multiloop given input shapes.
pub fn profile_program(
    program: &Program,
    analysis: &AnalysisResult,
    inputs: &[(&str, ShapeVal)],
    cfg: &ShapeConfig,
) -> Vec<LoopProfile> {
    let mut env = shape::seed_env(program, inputs);
    let mut out = Vec::new();
    for stmt in &program.body.stmts {
        if let Def::Loop(ml) = &stmt.def {
            let loop_sym = stmt.lhs.first().copied();
            let empty = HashMap::new();
            let stencils = loop_sym
                .and_then(|s| analysis.stencils.per_loop.get(&s))
                .unwrap_or(&empty);
            let ctx = Ctx {
                stencils,
                layouts: &analysis.partition,
                cfg,
            };
            out.push(profile_loop(ml, loop_sym, &ctx, &mut env, program));
        }
        // Keep the shape environment up to date for later loops.
        let shapes = shape::eval_def(&stmt.def, &mut env, cfg);
        for (sym, sh) in stmt.lhs.iter().zip(shapes) {
            env.insert(*sym, sh);
        }
    }
    out
}

fn profile_loop(
    ml: &dmll_core::Multiloop,
    loop_sym: Option<Sym>,
    ctx: &Ctx<'_>,
    env: &mut ShapeEnv,
    program: &Program,
) -> LoopProfile {
    let iterations = shape::eval_exp(&ml.size, env).as_int().unwrap_or(0).max(0) as f64;
    let mut p = LoopProfile {
        sym: loop_sym,
        iterations,
        ..Default::default()
    };

    // Distribution status: does the loop read any partitioned collection?
    let reads = loop_free_syms(ml);
    p.partitioned = reads
        .iter()
        .any(|s| ctx.layouts.layout_of(*s) == DataLayout::Partitioned);

    // Broadcast set: every local collection consumed by a distributed loop,
    // plus partitioned collections consumed whole.
    if p.partitioned {
        let mut seen = BTreeSet::new();
        for &s in &reads {
            if seen.contains(&s) {
                continue;
            }
            let layout = ctx.layouts.layout_of(s);
            let stencil = ctx.stencils.get(&s).copied();
            let is_coll = matches!(
                env.get(&s),
                Some(ShapeVal::Arr { .. } | ShapeVal::Struct { .. } | ShapeVal::Buckets { .. })
            );
            if !is_coll {
                continue;
            }
            let must_broadcast = matches!(
                (layout, stencil),
                (DataLayout::Local, _) | (DataLayout::Partitioned, Some(Stencil::All))
            );
            if must_broadcast {
                p.broadcast_bytes += env.get(&s).map(ShapeVal::bytes).unwrap_or(0.0);
                seen.insert(s);
            }
        }
    }

    for gen in &ml.gens {
        if let Some(c) = gen.cond() {
            let cost = block_cost(c, ctx, env);
            add_cost(&mut p, cost);
        }
        if let Some(k) = gen.key() {
            let cost = block_cost(k, ctx, env);
            add_cost(&mut p, cost);
            p.flops_per_iter += 20.0; // hash + bucket maintenance
            p.is_bucket = true;
        }
        let vcost = block_cost(gen.value(), ctx, env);
        add_cost(&mut p, vcost);
        let vshape = shape::eval_block(gen.value(), &[ShapeVal::Scalar], env, ctx.cfg);
        match gen {
            Gen::Collect { .. } => {
                p.output_bytes_per_iter += vshape.bytes();
            }
            Gen::Reduce { .. } | Gen::BucketReduce { .. } => {
                if let Some(r) = gen.reducer() {
                    // The reducer runs roughly once per accepted element.
                    let mut renv = env.clone();
                    for (param, sh) in r.params.iter().zip([vshape.clone(), vshape.clone()]) {
                        renv.insert(*param, sh);
                    }
                    let rcost = block_cost(r, ctx, &mut renv);
                    add_cost(&mut p, rcost);
                }
                p.reduce_bytes = p.reduce_bytes.max(vshape.bytes());
                if !matches!(vshape, ShapeVal::Int(_) | ShapeVal::Scalar) {
                    p.has_nonscalar_reduce = true;
                }
            }
            Gen::BucketCollect { .. } => {
                p.output_bytes_per_iter += vshape.bytes();
            }
        }
    }
    // Post-loop combine volume, from the output shapes.
    let out_shapes = shape::eval_loop(ml, &mut env.clone(), ctx.cfg);
    for (gen, sh) in ml.gens.iter().zip(&out_shapes) {
        match gen {
            Gen::Reduce { .. } | Gen::BucketReduce { .. } => p.combine_bytes += sh.bytes(),
            _ => {}
        }
    }
    let _ = program;
    p
}

fn add_cost(p: &mut LoopProfile, c: Cost) {
    p.flops_per_iter += c.flops;
    p.stream_bytes_per_iter += c.stream;
    p.local_bytes_per_iter += c.local;
    p.random_bytes_per_iter += c.random;
}

fn loop_free_syms(ml: &dmll_core::Multiloop) -> BTreeSet<Sym> {
    let mut syms = BTreeSet::new();
    if let Exp::Sym(s) = &ml.size {
        syms.insert(*s);
    }
    for gen in &ml.gens {
        for b in gen.blocks() {
            syms.extend(dmll_core::visit::free_syms(b));
        }
    }
    syms
}

/// Cost of one execution of a block (binding its params to abstract
/// scalars), including nested loops scaled by their trip counts.
fn block_cost(b: &Block, ctx: &Ctx<'_>, env: &mut ShapeEnv) -> Cost {
    for param in &b.params {
        env.entry(*param).or_insert(ShapeVal::Scalar);
    }
    let mut total = Cost::default();
    for stmt in &b.stmts {
        match &stmt.def {
            Def::Prim { .. } => total.flops += 1.0,
            Def::Math { .. } => total.flops += 5.0,
            Def::Cast { .. } => total.flops += 1.0,
            Def::ArrayRead { arr, .. } => {
                let bytes = match arr.as_sym().and_then(|s| env.get(&s)) {
                    Some(ShapeVal::Arr { elem, .. }) => elem.bytes(),
                    _ => 8.0,
                };
                let class = classify_read(arr, ctx);
                match class {
                    ReadClass::Stream => total.stream += bytes,
                    ReadClass::Local => total.local += bytes,
                    ReadClass::Random => total.random += bytes,
                }
            }
            Def::BucketGet { .. } => {
                total.flops += 20.0;
                total.local += 8.0;
            }
            Def::Loop(ml) => {
                let iters = shape::eval_exp(&ml.size, env).as_int().unwrap_or(0).max(0) as f64;
                let mut inner = Cost::default();
                for gen in &ml.gens {
                    for cb in gen.blocks() {
                        inner.add(block_cost(cb, ctx, env));
                    }
                    if gen.key().is_some() {
                        inner.flops += 20.0;
                    }
                }
                total.add(inner.scaled(iters));
            }
            Def::ArrayLen(_)
            | Def::Flatten(_)
            | Def::BucketLen(_)
            | Def::BucketKeys(_)
            | Def::BucketValues(_)
            | Def::TupleNew(_)
            | Def::TupleGet { .. }
            | Def::StructNew { .. }
            | Def::StructGet { .. }
            | Def::Extern { .. } => total.flops += 1.0,
        }
        // Track shapes so nested loop sizes resolve.
        let shapes = shape::eval_def(&stmt.def, env, ctx.cfg);
        for (sym, sh) in stmt.lhs.iter().zip(shapes) {
            env.insert(*sym, sh);
        }
        // Recurse into blocks of non-loop defs (none currently).
        if !matches!(stmt.def, Def::Loop(_)) {
            for nb in def_blocks(&stmt.def) {
                total.add(block_cost(nb, ctx, env));
            }
        }
    }
    total
}

/// Observed execution-tier counters for one run, mirroring the
/// interpreter's `dmll_interp::TierTotals`. The runtime crate does not
/// depend on the interpreter, so callers (the bench harness) copy the
/// numbers across; keeping the type here lets profiling reports combine
/// modeled traffic with measured tier throughput.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecTierStats {
    /// Multiloops lowered to bytecode (cache misses that compiled).
    pub kernels_compiled: u64,
    /// Kernel-cache hits.
    pub kernel_cache_hits: u64,
    /// Multiloops the compiler rejected (ran on the tree-walker).
    pub fallback_loops: u64,
    /// Total time spent compiling, in nanoseconds.
    pub compile_nanos: u64,
    /// Top-level loop executions on the compiled tier.
    pub compiled_loops: u64,
    /// Elements traversed by the compiled tier.
    pub compiled_elements: u64,
    /// Wall time of compiled-tier loop execution, in nanoseconds.
    pub compiled_nanos: u64,
    /// Top-level loop executions on the tree-walking tier.
    pub treewalk_loops: u64,
    /// Elements traversed by the tree-walking tier.
    pub treewalk_elements: u64,
    /// Wall time of tree-walking loop execution, in nanoseconds.
    pub treewalk_nanos: u64,
    /// Compiled loops that executed block-at-a-time (subset of
    /// `compiled_loops`).
    pub batched_loops: u64,
    /// Elements traversed by batched loop executions.
    pub batched_elements: u64,
    /// Wall time of batched loop execution, in nanoseconds (also counted
    /// in `compiled_nanos`).
    pub batched_nanos: u64,
    /// Full-width blocks executed by the batched tier.
    pub batched_blocks: u64,
    /// Elements handled by the scalar-tail path of batched executions.
    pub tail_elements: u64,
    /// Per-element block executions that ran the full-width lane-chunked
    /// (SIMD-lowered) path — all lanes live, no selection vector.
    pub simd_blocks: u64,
    /// Flattened iteration-space chunks executed by segmented nested loops
    /// (variable per-lane trip counts run through the CSR-flattened path).
    pub segmented_blocks: u64,
    /// Loop ranges served by the dedicated AoS→SoA scatter fast path
    /// (typed field extraction from a boxed struct array).
    pub scatter_loops: u64,
    /// Top-level loop executions on the native (compiled C) tier.
    pub native_loops: u64,
    /// Elements traversed by the native tier.
    pub native_elements: u64,
    /// Wall time of native-tier loop execution, in nanoseconds (also
    /// counted in `compiled_nanos`).
    pub native_nanos: u64,
    /// Kernels emitted as C, compiled, and `dlopen`ed.
    pub native_compiles: u64,
    /// Total time spent invoking the system C compiler, in nanoseconds.
    pub native_compile_nanos: u64,
    /// Native-tier requests that fell back to the batched tier with a
    /// typed decline.
    pub native_fallbacks: u64,
    /// Work-stealing tasks executed off their seeded worker.
    pub tasks_stolen: u64,
    /// Kernel-cache entries evicted (LRU).
    pub cache_evictions: u64,
    /// Kernel-cache hits on negative (rejected-compilation) entries.
    pub negative_hits: u64,
    /// Speculative task clones launched against stragglers.
    pub speculative_launches: u64,
    /// Speculative clones whose result was recorded first.
    pub speculation_wins: u64,
    /// Worker circuit-breaker trips (quarantine entries).
    pub quarantine_trips: u64,
    /// Supervised runs aborted by their wall-clock deadline.
    pub deadline_aborts: u64,
    /// Supervised runs aborted by cancellation.
    pub cancelled_aborts: u64,
    /// Loop executions scheduled by the partitioned data plane (tasks had
    /// home regions).
    pub sharded_loops: u64,
    /// Per-loop collection reads served from the shared path because their
    /// stencil was `Unknown` (§4.2's "fall back to runtime data movement").
    pub stencil_fallbacks: u64,
    /// Partition-analysis warnings attached to executed access plans.
    pub partition_warnings: u64,
    /// Sharded tasks executed inside their home region.
    pub region_local_tasks: u64,
    /// Sharded tasks stolen across a region boundary (only after the
    /// thief's own region ran dry).
    pub cross_region_steals: u64,
    /// Fusion rewrites the pre-compile hook applied before kernel
    /// certification.
    pub fusion_applied: u64,
    /// Fusion candidates the hook's cost model declined.
    pub fusion_rejected: u64,
    /// Compiled-loop executions that ran scalar because batch
    /// certification rejected the kernel.
    pub batch_ineligible: u64,
    /// Top-level loops executed on the measured cluster data plane.
    pub cluster_loops: u64,
    /// Cluster epochs that ran a real shuffle phase.
    pub cluster_shuffles: u64,
    /// Inter-node messages sent by cluster epochs (staging, acks, shuffle,
    /// recovery).
    pub shuffle_sends: u64,
    /// Payload bytes moved by those messages.
    pub shuffle_bytes: u64,
    /// Cluster sends retried after an injected link flake.
    pub link_retries: u64,
    /// Tasks re-executed on survivors after losing a node's held results.
    pub lineage_recoveries: u64,
    /// Halo margins exchanged between neighbouring nodes for stencil reads.
    pub halo_exchanges: u64,
    /// Simulated nanoseconds charged through the cluster network model.
    pub cluster_network_nanos: u64,
}

impl ExecTierStats {
    /// Elements per second on the compiled tier, if it ran at all.
    pub fn compiled_elements_per_sec(&self) -> Option<f64> {
        tier_rate(self.compiled_elements, self.compiled_nanos)
    }

    /// Elements per second on the tree-walking tier, if it ran at all.
    pub fn treewalk_elements_per_sec(&self) -> Option<f64> {
        tier_rate(self.treewalk_elements, self.treewalk_nanos)
    }

    /// Elements per second on the batched sub-tier, if it ran at all.
    pub fn batched_elements_per_sec(&self) -> Option<f64> {
        tier_rate(self.batched_elements, self.batched_nanos)
    }

    /// Elements per second on the native tier, if it ran at all.
    pub fn native_elements_per_sec(&self) -> Option<f64> {
        tier_rate(self.native_elements, self.native_nanos)
    }

    /// Compiled-tier throughput relative to the tree-walker, when both
    /// tiers ran.
    pub fn speedup(&self) -> Option<f64> {
        match (
            self.compiled_elements_per_sec(),
            self.treewalk_elements_per_sec(),
        ) {
            (Some(c), Some(t)) if t > 0.0 => Some(c / t),
            _ => None,
        }
    }

    /// Fraction of executed top-level loops that ran compiled.
    pub fn compiled_fraction(&self) -> f64 {
        let total = self.compiled_loops + self.treewalk_loops;
        if total == 0 {
            0.0
        } else {
            self.compiled_loops as f64 / total as f64
        }
    }
}

fn tier_rate(elements: u64, nanos: u64) -> Option<f64> {
    if nanos == 0 {
        None
    } else {
        Some(elements as f64 * 1e9 / nanos as f64)
    }
}

enum ReadClass {
    Stream,
    Local,
    Random,
}

fn classify_read(arr: &Exp, ctx: &Ctx<'_>) -> ReadClass {
    let Some(s) = arr.as_sym() else {
        return ReadClass::Local;
    };
    if ctx.layouts.layout_of(s) != DataLayout::Partitioned {
        return ReadClass::Local;
    }
    match ctx.stencils.get(&s) {
        Some(Stencil::Interval) => ReadClass::Stream,
        Some(Stencil::Unknown | Stencil::Gather(_)) => ReadClass::Random,
        // Const / All: served from the broadcast replica.
        _ => ReadClass::Local,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmll_core::{LayoutHint, Ty};
    use dmll_frontend::Stage;

    fn analyzed(p: &mut Program) -> AnalysisResult {
        dmll_analysis::analyze(p)
    }

    #[test]
    fn sum_profile_counts_stream_bytes() {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Partitioned);
        let s = st.sum(&x);
        let mut p = st.finish(&s);
        let a = analyzed(&mut p);
        let profs = profile_program(
            &p,
            &a,
            &[("x", ShapeVal::f64_arr(1_000_000))],
            &ShapeConfig::default(),
        );
        assert_eq!(profs.len(), 1);
        let pr = &profs[0];
        assert_eq!(pr.iterations, 1e6);
        assert!(pr.partitioned);
        assert_eq!(pr.stream_bytes_per_iter, 8.0, "{pr:?}");
        assert!(!pr.has_nonscalar_reduce);
        assert_eq!(pr.reduce_bytes, 8.0);
    }

    #[test]
    fn broadcast_of_local_centroids() {
        // k-means assignment: distances to local centroids per row.
        let mut st = Stage::new();
        let matrix = st.input_matrix("matrix", LayoutHint::Partitioned);
        let clusters = st.input_matrix("clusters", LayoutHint::Local);
        let assigned = matrix.map_rows(&mut st, |st, i| {
            let d = clusters.map_rows(st, |st, c| matrix.row_dist2(st, i, &clusters, c));
            st.min_index(&d)
        });
        let mut p = st.finish(&assigned);
        let a = analyzed(&mut p);
        let profs = profile_program(
            &p,
            &a,
            &[
                ("matrix", ShapeVal::matrix(1000, 10)),
                ("clusters", ShapeVal::matrix(5, 10)),
            ],
            &ShapeConfig::default(),
        );
        let pr = profs.last().unwrap();
        assert_eq!(pr.iterations, 1000.0);
        assert!(
            pr.broadcast_bytes >= 5.0 * 10.0 * 8.0,
            "centroids broadcast: {pr:?}"
        );
        // Per row: 5 centroids × 10 features, reading both matrices.
        assert!(pr.flops_per_iter > 100.0, "{pr:?}");
    }

    #[test]
    fn nested_trip_counts_multiply() {
        let mut st = Stage::new();
        let m = st.input_matrix("m", LayoutHint::Partitioned);
        let rows = m.rows(&mut st);
        let sums = st.collect(&rows, |st, i| {
            let cols = m.cols(st);
            let zero = st.lit_f(0.0);
            let m2 = m.clone();
            let i = i.clone();
            st.reduce(
                &cols,
                move |st, j| m2.get(st, &i, j),
                |st, a, b| st.add(a, b),
                Some(&zero),
            )
        });
        let mut p = st.finish(&sums);
        // Normalize: hoist the loop-invariant matrix projections so the
        // analyses see them (the optimizer recipe always does this).
        dmll_transform::rewrite::fixpoint(&mut p, dmll_transform::code_motion::run);
        let a = analyzed(&mut p);
        let profs = profile_program(
            &p,
            &a,
            &[("m", ShapeVal::matrix(100, 50))],
            &ShapeConfig::default(),
        );
        let pr = &profs[0];
        assert_eq!(pr.iterations, 100.0);
        // 50 inner iterations, each reading 8 bytes of the (interval)
        // partitioned data plus arithmetic.
        assert!(pr.stream_bytes_per_iter >= 50.0 * 8.0, "{pr:?}");
        assert!(pr.flops_per_iter >= 50.0, "{pr:?}");
    }

    #[test]
    fn vector_reduce_flagged_for_gpu() {
        let mut st = Stage::new();
        let m = st.input_matrix("m", LayoutHint::Partitioned);
        let rows = m.rows(&mut st);
        let m2 = m.clone();
        let sum = st.reduce(
            &rows,
            move |st, i| m2.row(st, i),
            |st, a, b| st.vec_add(a, b),
            None,
        );
        let mut p = st.finish(&sum);
        let a = analyzed(&mut p);
        let profs = profile_program(
            &p,
            &a,
            &[("m", ShapeVal::matrix(200, 30))],
            &ShapeConfig::default(),
        );
        let pr = profs
            .iter()
            .find(|pr| pr.reduce_bytes > 8.0)
            .expect("the vector reduce");
        assert!(pr.has_nonscalar_reduce, "{pr:?}");
        assert_eq!(pr.reduce_bytes, 30.0 * 8.0);
    }

    #[test]
    fn conditional_reduce_shrinks_matrix_traffic() {
        // The headline effect: pre-transformation k-means update touches
        // the matrix once *per cluster*; post-transformation, once total.
        let k = 32i64;
        let build = || {
            let mut st = Stage::new();
            let matrix = st.input_matrix("matrix", LayoutHint::Partitioned);
            let assigned = st.input("assigned", Ty::arr(Ty::I64), LayoutHint::Partitioned);
            let kv = st.lit_i(k);
            let rows = matrix.rows(&mut st);
            let sums = st.collect(&kv, |st, i| {
                let i = i.clone();
                let a = assigned.clone();
                let m = matrix.clone();
                st.reduce_if(
                    &rows,
                    Some(move |st: &mut Stage, j: &dmll_frontend::Val| {
                        let aj = st.read(&a, j);
                        st.eq(&aj, &i)
                    }),
                    move |st, j| m.row(st, j),
                    |st, x, y| st.vec_add(x, y),
                    None,
                )
            });
            st.finish(&sums)
        };
        let shapes: Vec<(&str, ShapeVal)> = vec![
            ("matrix", ShapeVal::matrix(10_000, 20)),
            ("assigned", ShapeVal::i64_arr(10_000)),
        ];
        let cfg = ShapeConfig {
            bucket_hint: k,
            ..Default::default()
        };

        // Untransformed: skip stencil repair, analyze as written.
        let p_before = build();
        let stencils = dmll_analysis::stencil::analyze(&p_before);
        let partition = dmll_analysis::partition::analyze(&p_before, &stencils);
        let a_before = AnalysisResult {
            stencils,
            partition,
            repairs: vec![],
        };
        let before = profile_program(&p_before, &a_before, &shapes, &cfg);
        let before_total: f64 = before
            .iter()
            .map(|pr| pr.iterations * (pr.local_bytes_per_iter + pr.stream_bytes_per_iter))
            .sum();

        // Transformed via the stencil-driven driver.
        let mut p_after = build();
        let a_after = dmll_analysis::analyze(&mut p_after);
        assert!(!a_after.repairs.is_empty());
        let after = profile_program(&p_after, &a_after, &shapes, &cfg);
        let after_total: f64 = after
            .iter()
            .map(|pr| pr.iterations * (pr.local_bytes_per_iter + pr.stream_bytes_per_iter))
            .sum();
        assert!(
            after_total * 3.0 < before_total,
            "one pass instead of {k}: before={before_total:.0} after={after_total:.0}"
        );
    }

    #[test]
    fn tier_stats_rates_and_speedup() {
        let s = ExecTierStats {
            compiled_loops: 3,
            compiled_elements: 9_000,
            compiled_nanos: 1_000_000_000,
            treewalk_loops: 1,
            treewalk_elements: 1_000,
            treewalk_nanos: 1_000_000_000,
            ..Default::default()
        };
        assert_eq!(s.compiled_elements_per_sec(), Some(9_000.0));
        assert_eq!(s.treewalk_elements_per_sec(), Some(1_000.0));
        assert_eq!(s.speedup(), Some(9.0));
        assert_eq!(s.compiled_fraction(), 0.75);
        assert_eq!(ExecTierStats::default().speedup(), None);
        assert_eq!(ExecTierStats::default().compiled_fraction(), 0.0);
    }
}
