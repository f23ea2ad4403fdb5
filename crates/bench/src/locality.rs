//! Measured locality comparison: the same optimized programs on the same
//! work-stealing batched executor, locality-blind vs sharded
//! (region-aware), emitting `BENCH_locality.json`.
//!
//! The sharded configuration is the §4 analyses wired into the real
//! executor: each program is analyzed once, the exported access plan
//! ([`dmll_analysis::ProgramPlan`]) drives per-collection placement, tasks
//! carry a home region from the block-aligned [`dmll_runtime::RegionMap`],
//! workers steal within their region before crossing, and exactly
//! associative loops regroup onto one task per region. (Both sides join
//! task accumulators through the same stitch merge.)
//! Outputs must be bit-identical to the blind path *and* to the
//! tree-walking tier over the same chunked executor, and every stencil
//! fallback must be explained by a partitioning warning — both are hard
//! gates in the smoke run.

use crate::tiers::{workloads, Workload};
use dmll_analysis::{Placement, ProgramPlan};
use dmll_interp::{
    eval_parallel_report, reset_tier_totals, tier_totals, ArrayVal, ParallelOptions, Value,
};
use dmll_runtime::{RegionMap, ShardedArray};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One app's blind-vs-sharded measurements.
pub struct LocalityRow {
    /// Benchmark name.
    pub app: &'static str,
    /// Primary data dimension (rows / reads / edges).
    pub rows: usize,
    /// Worker threads used for both configurations.
    pub threads: usize,
    /// Execution regions of the sharded configuration.
    pub regions: usize,
    /// Best-of-[`REPS`] wall time on the locality-blind batched tier, seconds.
    pub blind_secs: f64,
    /// Best-of-[`REPS`] wall time on the sharded batched tier, seconds.
    pub sharded_secs: f64,
    /// Sharded output == blind output == chunked tree-walk output.
    pub identical: bool,
    /// Top-level loops that ran on the sharded data plane.
    pub sharded_loops: u64,
    /// Collections served from the shared fallback path (Unknown
    /// stencil), per sharded execution.
    pub stencil_fallbacks: u64,
    /// Fallbacks with no matching partitioning warning. Must be zero.
    pub unexplained_fallbacks: usize,
    /// Partitioning warnings surfaced by the analysis for this program.
    pub partition_warnings: u64,
    /// Tasks of sharded loops that stayed in their home region.
    pub region_local_tasks: u64,
    /// Steals that crossed a region boundary.
    pub cross_region_steals: u64,
}

impl LocalityRow {
    /// Blind time over sharded time: the data plane's win.
    pub fn speedup(&self) -> f64 {
        self.blind_secs / self.sharded_secs.max(1e-12)
    }
}

/// Timed repetitions per configuration; best-of damps the scheduling
/// noise of oversubscribed hosts.
const REPS: u64 = 3;

fn best_of(
    case: &Workload,
    borrowed: &[(&str, Value)],
    options: &ParallelOptions,
) -> (f64, Value) {
    let mut secs = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let (v, _) =
            eval_parallel_report(&case.program, borrowed, options).expect("locality bench run");
        secs = secs.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (secs, out.expect("timed runs"))
}

/// Run the locality comparison at a size multiplier on `threads` workers
/// with `regions` execution regions for the sharded configuration.
///
/// Each workload is analyzed exactly once (stencils, partitioning, plan
/// export); the analyzed program is then executed in both configurations
/// so the comparison isolates the data plane, not the analyses.
pub fn locality_comparison(scale: usize, threads: usize, regions: usize) -> Vec<LocalityRow> {
    let threads = threads.max(1);
    let regions = regions.max(1);
    workloads(scale.max(1))
        .into_iter()
        .map(|mut case| {
            let result = dmll_analysis::analyze(&mut case.program);
            let plan = Arc::new(dmll_analysis::export_plan(&result));
            let unexplained = plan.total_unexplained();
            let borrowed: Vec<(&str, Value)> = case
                .inputs
                .iter()
                .map(|(n, v)| (n.as_str(), v.clone()))
                .collect();

            let blind = ParallelOptions::new(threads);
            let (blind_secs, blind_out) = best_of(&case, &borrowed, &blind);

            let sharded_opts = ParallelOptions::new(threads)
                .with_regions(regions)
                .with_plan(plan);
            reset_tier_totals();
            let (sharded_secs, sharded_out) = best_of(&case, &borrowed, &sharded_opts);
            let tt = tier_totals();

            // Reference: the tree-walking tier over the same chunked
            // executor (same task decomposition, same per-chunk fold
            // order), so float reductions associate identically and the
            // comparison demands exact equality.
            let walk = ParallelOptions::new(threads).tree_walk_only();
            let (_, walk_out) = best_of(&case, &borrowed, &walk);
            LocalityRow {
                app: case.app,
                rows: case.rows,
                threads,
                regions,
                blind_secs,
                sharded_secs,
                identical: sharded_out == blind_out && sharded_out == walk_out,
                // REPS timed runs share the counters; normalize to per-run.
                sharded_loops: tt.sharded_loops / REPS,
                stencil_fallbacks: tt.stencil_fallbacks / REPS,
                unexplained_fallbacks: unexplained,
                partition_warnings: tt.partition_warnings / REPS,
                region_local_tasks: tt.region_local_tasks / REPS,
                cross_region_steals: tt.cross_region_steals / REPS,
            }
        })
        .collect()
}

/// Serialize rows as the `BENCH_locality.json` document.
pub fn to_json(rows: &[LocalityRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"locality\",\n  \"apps\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"app\": \"{}\", \"rows\": {}, \"threads\": {}, \
             \"regions\": {}, \"blind_secs\": {:.6}, \
             \"sharded_secs\": {:.6}, \"speedup\": {:.2}, \
             \"identical\": {}, \"sharded_loops\": {}, \
             \"stencil_fallbacks\": {}, \"unexplained_fallbacks\": {}, \
             \"partition_warnings\": {}, \"region_local_tasks\": {}, \
             \"cross_region_steals\": {}}}{}",
            r.app,
            r.rows,
            r.threads,
            r.regions,
            r.blind_secs,
            r.sharded_secs,
            r.speedup(),
            r.identical,
            r.sharded_loops,
            r.stencil_fallbacks,
            r.unexplained_fallbacks,
            r.partition_warnings,
            r.region_local_tasks,
            r.cross_region_steals,
            if i + 1 == rows.len() { "\n" } else { ",\n" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render the comparison as an aligned console table.
pub fn render(rows: &[LocalityRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Locality-aware data plane: blind vs sharded batched executor"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>8} {:>8} {:>11} {:>11} {:>8} {:>6} {:>6} {:>6}",
        "app", "rows", "threads", "regions", "blind_s", "sharded_s", "speedup", "fall", "local", "cross"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>8} {:>8} {:>11.4} {:>11.4} {:>7.2}x {:>6} {:>6} {:>6}{}",
            r.app,
            r.rows,
            r.threads,
            r.regions,
            r.blind_secs,
            r.sharded_secs,
            r.speedup(),
            r.stencil_fallbacks,
            r.region_local_tasks,
            r.cross_region_steals,
            if r.identical { "" } else { "  MISMATCH" }
        );
    }
    out
}

/// One app's measured scaling curve on the sharded batched executor
/// (`fig7_numa --measured`): speedup over the same executor on one
/// worker, plus the placement mix its inputs were staged under.
pub struct MeasuredCurve {
    /// Benchmark name.
    pub app: &'static str,
    /// Primary data dimension (rows / reads / edges).
    pub rows: usize,
    /// Thread counts measured, in order.
    pub threads: Vec<usize>,
    /// Speedup over the 1-thread run at each thread count.
    pub speedups: Vec<f64>,
    /// Array inputs staged as per-region shards (aligned slices).
    pub staged_partitioned: usize,
    /// Array inputs staged as one replica per region.
    pub staged_broadcast: usize,
    /// Array inputs left on the shared fallback path.
    pub staged_fallback: usize,
}

/// Stage every unboxed array input through [`ShardedArray`] under the
/// placement the access plan assigns it, and verify each staged form
/// reconstructs exactly the bytes the executor reads. Same-length inputs
/// are co-partitioned: they share one `Arc<RegionMap>` (the boundary
/// map), so aligned reads on any of them resolve in the same region.
///
/// Returns `(partitioned, broadcast, fallback)` input counts.
fn stage_inputs(case: &Workload, plan: &ProgramPlan, regions: usize) -> (usize, usize, usize) {
    // Input name -> planned placement (worst across loops reading it:
    // a fallback anywhere keeps the collection on the shared path).
    let mut placement_of: HashMap<&str, Placement> = HashMap::new();
    for input in &case.program.inputs {
        for lp in plan.per_loop.values() {
            if let Some(&p) = lp.placements.get(&input.sym) {
                let cur = placement_of.entry(input.name.as_str()).or_insert(p);
                if p == Placement::Fallback {
                    *cur = p;
                }
            }
        }
    }
    let mut maps: HashMap<i64, Arc<RegionMap>> = HashMap::new();
    let mut counts = (0, 0, 0);
    for (name, value) in &case.inputs {
        let placement = placement_of
            .get(name.as_str())
            .copied()
            .unwrap_or(Placement::Broadcast);
        match value {
            Value::Arr(ArrayVal::I64(v)) => {
                stage_one(&v[..], 1, placement, regions, &mut maps, &mut counts);
            }
            Value::Arr(ArrayVal::F64(v)) => {
                stage_one(&v[..], 1, placement, regions, &mut maps, &mut counts);
            }
            // Row-major matrices are staged with their row space as the
            // partitioned dimension (`scale = cols`), so a matrix shares
            // its boundary map with any flat array of the same row count.
            Value::Struct(s) => {
                if let [Value::Arr(ArrayVal::F64(data)), Value::I64(_), Value::I64(cols)] =
                    &s.fields[..]
                {
                    if *cols > 0 {
                        stage_one(
                            &data[..],
                            *cols as usize,
                            placement,
                            regions,
                            &mut maps,
                            &mut counts,
                        );
                    }
                }
            }
            _ => {}
        }
    }
    counts
}

fn stage_one<T: Clone + PartialEq + std::fmt::Debug>(
    data: &[T],
    scale: usize,
    placement: Placement,
    regions: usize,
    maps: &mut HashMap<i64, Arc<RegionMap>>,
    counts: &mut (usize, usize, usize),
) {
    let len = (data.len() / scale) as i64;
    let map = maps
        .entry(len)
        .or_insert_with(|| Arc::new(RegionMap::new(len, regions)))
        .clone();
    let sharded = ShardedArray::split_scaled(data, map.clone(), scale);
    match placement {
        Placement::Partitioned { halo_lo, halo_hi } => {
            // Aligned reads: each region's view must be exactly its owned
            // slice of the original plus the plan's halo margins (clamped
            // at the collection edges).
            for r in 0..map.regions() {
                let (s, e) = map.bounds(r);
                let (lo, hi) = (halo_lo as i64, halo_hi as i64);
                let view = sharded.halo(r, lo, hi);
                let (ws, we) = ((s - lo).max(0), (e + hi).min(map.len()));
                assert_eq!(view.offset, ws * scale as i64, "shard offset");
                assert_eq!(
                    view.data,
                    &data[ws as usize * scale..we as usize * scale],
                    "shard bytes (incl. halo)"
                );
            }
            counts.0 += 1;
        }
        Placement::Broadcast => {
            assert_eq!(*sharded.replica(), data, "broadcast replica bytes");
            counts.1 += 1;
        }
        Placement::Fallback => {
            // Shared path: the element directory must resolve every index.
            let elems = len * scale as i64;
            for i in [0, elems / 2, elems - 1] {
                if i >= 0 && i < elems {
                    assert_eq!(sharded.get(i), Some(&data[i as usize]), "fallback get");
                }
            }
            counts.2 += 1;
        }
    }
    assert_eq!(sharded.gather(), data, "gather round-trip");
}

/// Measure the sharded executor's scaling on this host: each workload is
/// analyzed once, its inputs are staged through the shard layer, and the
/// plan-driven sharded configuration is timed at each thread count
/// (regions = `min(threads, 4)`, the simulated-socket default). Speedups
/// are over the 1-thread run of the same configuration.
pub fn measured_scaling(scale: usize, thread_counts: &[usize]) -> Vec<MeasuredCurve> {
    workloads(scale.max(1))
        .into_iter()
        .map(|mut case| {
            let result = dmll_analysis::analyze(&mut case.program);
            let plan = Arc::new(dmll_analysis::export_plan(&result));
            let regions_max = thread_counts.iter().copied().max().unwrap_or(1).min(4);
            let (staged_partitioned, staged_broadcast, staged_fallback) =
                stage_inputs(&case, &plan, regions_max.max(1));
            let borrowed: Vec<(&str, Value)> = case
                .inputs
                .iter()
                .map(|(n, v)| (n.as_str(), v.clone()))
                .collect();
            let mut base = None;
            let mut speedups = Vec::with_capacity(thread_counts.len());
            for &t in thread_counts {
                let opts = ParallelOptions::new(t.max(1))
                    .with_regions(t.clamp(1, 4))
                    .with_plan(plan.clone());
                let (secs, _) = best_of(&case, &borrowed, &opts);
                let base = *base.get_or_insert(secs);
                speedups.push(base / secs.max(1e-12));
            }
            MeasuredCurve {
                app: case.app,
                rows: case.rows,
                threads: thread_counts.to_vec(),
                speedups,
                staged_partitioned,
                staged_broadcast,
                staged_fallback,
            }
        })
        .collect()
}

/// Render measured scaling curves in the Figure 7 table shape.
pub fn render_measured(curves: &[MeasuredCurve]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<10} {:>9} {:<22}", "Benchmark", "Rows", "Staged (part/bcast/fall)");
    if let Some(c) = curves.first() {
        for t in &c.threads {
            let _ = write!(out, " {t:>6}t");
        }
    }
    out.push('\n');
    for c in curves {
        let _ = write!(
            out,
            "{:<10} {:>9} {:<24}",
            c.app,
            c.rows,
            format!(
                "{}/{}/{}",
                c.staged_partitioned, c.staged_broadcast, c.staged_fallback
            )
        );
        for s in &c.speedups {
            let _ = write!(out, " {s:>5.2}x");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_plane_is_bit_identical_and_explained() {
        let _counters = crate::lock_tier_counters();
        // Smallest scale: correctness of the harness, not speed.
        let rows = locality_comparison(1, 2, 2);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.identical, "{}: sharded output diverged", r.app);
            assert!(r.sharded_loops > 0, "{}: never ran sharded", r.app);
            assert_eq!(
                r.unexplained_fallbacks, 0,
                "{}: unexplained stencil fallbacks",
                r.app
            );
        }
        let json = to_json(&rows);
        assert!(json.contains("\"locality\""), "{json}");
        assert!(json.contains("\"unexplained_fallbacks\": 0"), "{json}");
    }
}
