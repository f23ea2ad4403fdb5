//! The benchmark's vocabulary: every workload and metric by name, with its
//! unit, direction, bound and — for per-layer metrics — the end-to-end
//! metric it should move. `--list` prints this table and fails when it
//! differs from `BENCHMARK.json`, so the two cannot drift apart.

use crate::apps::APP_NAMES;
use crate::json::{self, Json};
use std::collections::BTreeMap;

/// The contract this binary was built against.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub const MAX_WORKLOADS: usize = 8;
pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "seq-batched",
        why: "all seven apps on one thread, default tiers: the batch executor (flat and segmented) and runtime fusion every other layer sits on",
    },
    WorkloadInfo {
        name: "seq-native",
        why: "same programs with the native tier on: the only workload where codegen, the C++ compiler and dlopen do work",
    },
    WorkloadInfo {
        name: "par-sharded",
        why: "five flat apps on 2 threads and 2 regions: task planning, stealing, placement and the stitch merge only run here",
    },
    WorkloadInfo {
        name: "cluster-2n",
        why: "PageRank and Q1 on a 2-node measured cluster: staging, epochs and shuffle dominate, kernels are a rounding error",
    },
    WorkloadInfo {
        name: "service-mix",
        why: "closed loop of 2 clients, 90% 3-row and 10% Gene queries on one worker: per-run fixed cost instead of per-element cost",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub meaning: &'static str,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        meaning: "everything before the first timed op: data generation, staging, optimize_unfused, plan export, service start (median of the run's set-up repetitions)",
    },
    EndToEnd {
        name: "cold_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        meaning: "sum over the workload's programs of the first execution in a fresh process (empty kernel cache, fusion memo and native cache): time to first results; median over fresh processes",
    },
    EndToEnd {
        name: "warm_s",
        unit: "s",
        better: "lower",
        bound: 0.12,
        meaning: "geometric mean over the workload's programs of the median warm execution time",
    },
    EndToEnd {
        name: "handopt_x",
        unit: "ratio",
        better: "lower",
        bound: 0.2,
        meaning: "geometric mean of warm median / median of dmll_baselines::handopt on the same data in the same process: the measured Table 2 (paper target <= 1.25)",
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.15,
        meaning: "program executions (service: queries) completed / wall time of the timed loop",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
        meaning: "VmHWM of the workload process at the end of the timed phase, before baselines and reference checks",
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric, and workload, this number should move.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer is the name's first component (a crate of the repo).
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

const SETUP: &str = "setup_s, every workload";
const COLD_BATCHED: &str = "cold_s on seq-batched; leaves warm_s alone";
const FUSION: &str = "warm_s and handopt_x on seq-batched; none on cluster-2n";
const PLAN: &str = "setup_s on par-sharded and cluster-2n";
const KERNELS: &str = "warm_s and handopt_x on seq-batched and par-sharded";
const NATIVE_WARM: &str = "warm_s and handopt_x on seq-native only";
const NATIVE_COLD: &str = "cold_s on seq-native only";
const PARALLEL: &str = "warm_s on par-sharded only";
const CLUSTER: &str = "warm_s and handopt_x on cluster-2n only";
const SERVICE: &str = "warm_s and queries_per_s on service-mix";
const BASELINE: &str = "denominator of handopt_x: a change here changes the benchmark";
const HARNESS: &str = "the harness's own cost and noise";

/// `(name, unit, better, moves)`; a name ending in `.*` is one metric per app.
const PER_LAYER: [(&str, &str, &str, &str); 71] = [
    ("data.gen_s", "s", "lower", SETUP),
    ("frontend.stage_us", "us", "lower", SETUP),
    ("core.ir_lines_staged", "count", "lower", SETUP),
    ("transform.optimize_unfused_us", "us", "lower", SETUP),
    ("transform.optimize_runtime_us", "us", "lower", COLD_BATCHED),
    ("transform.ir_lines_fused", "count", "lower", COLD_BATCHED),
    ("interp.kernel_compile_us", "us", "lower", COLD_BATCHED),
    ("interp.kernels_compiled", "count", "lower", COLD_BATCHED),
    ("transform.rewrites_applied", "count", "higher", FUSION),
    ("transform.rewrites_rejected", "count", "lower", FUSION),
    ("transform.fused_x.*", "ratio", "higher", FUSION),
    ("analysis.analyze_us", "us", "lower", PLAN),
    ("analysis.export_plan_us", "us", "lower", PLAN),
    ("analysis.unexplained_fallbacks", "count", "lower", PLAN),
    ("analysis.partition_warnings", "count", "lower", PLAN),
    (
        "interp.run_s.*",
        "s",
        "lower",
        "the rows behind warm_s, per workload",
    ),
    ("interp.loop_busy_s", "s", "lower", KERNELS),
    (
        "interp.outside_loops_s",
        "s",
        "lower",
        "most of warm_s on service-mix; negligible on the batch workloads",
    ),
    ("interp.batched_ns_per_elem", "ns", "lower", KERNELS),
    ("interp.batched_blocks", "count", "higher", KERNELS),
    ("interp.simd_blocks", "count", "higher", KERNELS),
    ("interp.segmented_blocks", "count", "higher", KERNELS),
    ("interp.tail_elements", "count", "lower", KERNELS),
    ("interp.scatter_loops", "count", "higher", KERNELS),
    ("interp.kernel_cache_hits", "count", "higher", KERNELS),
    ("interp.fallback_loops", "count", "lower", KERNELS),
    (
        "interp.batch_ineligible",
        "count",
        "lower",
        "interp.run_s.logreg most (ROADMAP 5a closes it to 0)",
    ),
    ("interp.native_loops", "count", "higher", NATIVE_WARM),
    ("interp.native_fallbacks", "count", "lower", NATIVE_WARM),
    ("interp.native_ns_per_elem", "ns", "lower", NATIVE_WARM),
    ("codegen.native_compiles", "count", "lower", NATIVE_COLD),
    ("codegen.native_compile_s", "s", "lower", NATIVE_COLD),
    ("codegen.emit_cpp_us", "us", "lower", NATIVE_COLD),
    ("codegen.cpp_bytes", "bytes", "lower", NATIVE_COLD),
    ("interp.parallel.speedup_x", "ratio", "higher", PARALLEL),
    ("interp.parallel.tasks", "count", "lower", PARALLEL),
    ("interp.parallel.stolen_tasks", "count", "lower", PARALLEL),
    ("interp.parallel.sharded_loops", "count", "higher", PARALLEL),
    (
        "interp.parallel.region_local_tasks",
        "count",
        "higher",
        PARALLEL,
    ),
    (
        "interp.parallel.cross_region_steals",
        "count",
        "lower",
        PARALLEL,
    ),
    (
        "interp.parallel.stencil_fallbacks",
        "count",
        "lower",
        PARALLEL,
    ),
    ("interp.cluster.overhead_1n_x", "ratio", "lower", CLUSTER),
    (
        "interp.cluster.overhead_1n_x.pagerank",
        "ratio",
        "lower",
        CLUSTER,
    ),
    ("interp.cluster.overhead_1n_x.q1", "ratio", "lower", CLUSTER),
    ("interp.cluster.scale_2n_x", "ratio", "higher", CLUSTER),
    ("interp.cluster.node_kill_x", "ratio", "lower", CLUSTER),
    ("interp.cluster.tasks", "count", "lower", CLUSTER),
    ("interp.cluster.staged_values", "count", "lower", CLUSTER),
    ("interp.cluster.shuffles", "count", "lower", CLUSTER),
    ("interp.cluster.halo_exchanges", "count", "lower", CLUSTER),
    (
        "interp.cluster.lineage_recoveries",
        "count",
        "lower",
        CLUSTER,
    ),
    ("runtime.plane.sends", "count", "lower", CLUSTER),
    ("runtime.plane.send_bytes", "bytes", "lower", CLUSTER),
    ("runtime.plane.link_retries", "count", "lower", CLUSTER),
    (
        "runtime.plane.network_model_ns",
        "ns",
        "lower",
        "simulated, computed by the machine model, not measured",
    ),
    ("service.light_p50_us", "us", "lower", SERVICE),
    ("service.medium_p50_us", "us", "lower", SERVICE),
    ("service.queue_wait_p50_us", "us", "lower", SERVICE),
    ("service.queue_wait_p99_us", "us", "lower", SERVICE),
    ("service.exec_p50_us", "us", "lower", SERVICE),
    (
        "service.query_p99_us",
        "us",
        "lower",
        "the service's tail: medium exec + the wait behind another medium query",
    ),
    (
        "service.first_query_us",
        "us",
        "lower",
        "cold_s on service-mix",
    ),
    ("service.admitted", "count", "higher", SERVICE),
    ("service.rejected", "count", "lower", SERVICE),
    ("service.cache_hit_rate", "ratio", "higher", SERVICE),
    ("baselines.handopt_s.*", "s", "lower", BASELINE),
    (
        "baselines.handopt_x.*",
        "ratio",
        "lower",
        "the per-app rows behind handopt_x",
    ),
    ("bench.trace_overhead_x", "ratio", "lower", HARNESS),
    ("bench.warm_spread_x", "ratio", "lower", HARNESS),
    ("bench.inexact_counts", "count", "lower", HARNESS),
    (
        "bench.fail_share",
        "ratio",
        "lower",
        "ops that errored, were refused or failed a reference check / ops attempted",
    ),
];

/// Every per-layer metric, per-app families expanded.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    for (name, unit, better, moves) in PER_LAYER {
        match name.strip_suffix(".*") {
            Some(family) => out.extend(APP_NAMES.iter().map(|app| PerLayer {
                name: format!("{family}.{app}"),
                unit,
                better,
                moves,
            })),
            None => out.push(PerLayer {
                name: name.to_string(),
                unit,
                better,
                moves,
            }),
        }
    }
    out
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Check this table against the caps, the name alphabet and the embedded
/// `BENCHMARK.json`.
pub fn verify() -> Result<(), String> {
    let layers = per_layer();
    if WORKLOADS.len() > MAX_WORKLOADS
        || END_TO_END.len() > MAX_END_TO_END
        || layers.len() > MAX_PER_LAYER
    {
        return Err(format!(
            "caps exceeded: {} workloads (max {MAX_WORKLOADS}), {} end-to-end (max {MAX_END_TO_END}), {} per-layer (max {MAX_PER_LAYER})",
            WORKLOADS.len(),
            END_TO_END.len(),
            layers.len()
        ));
    }
    let mut seen = BTreeMap::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name.to_string())
        .chain(END_TO_END.iter().map(|m| m.name.to_string()))
        .chain(layers.iter().map(|m| m.name.clone()));
    for name in names {
        if !valid_name(&name) {
            return Err(format!(
                "name {name:?} has a character outside letters, digits, '_', '.', '-'"
            ));
        }
        if seen.insert(name.clone(), ()).is_some() {
            return Err(format!("name {name:?} is used twice"));
        }
    }

    let doc = json::parse(BENCHMARK_JSON)?;
    let section = |key: &str| -> Result<Vec<Vec<String>>, String> {
        let fields: &[&str] = match key {
            "workloads" => &["name", "why"],
            "end_to_end" => &["name", "unit", "better", "bound"],
            _ => &["name", "unit", "better"],
        };
        let mut rows: Vec<Vec<String>> = doc
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} array"))?
            .iter()
            .map(|item| {
                fields
                    .iter()
                    .map(|f| match item.get(f) {
                        Some(Json::Str(s)) => s.clone(),
                        Some(Json::Num(n)) => n.to_string(),
                        _ => String::new(),
                    })
                    .collect()
            })
            .collect();
        rows.sort();
        Ok(rows)
    };
    let sorted = |mut rows: Vec<Vec<String>>| {
        rows.sort();
        rows
    };
    let mine = [
        (
            "workloads",
            sorted(
                WORKLOADS
                    .iter()
                    .map(|w| vec![w.name.to_string(), w.why.to_string()])
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            sorted(
                END_TO_END
                    .iter()
                    .map(|m| {
                        vec![
                            m.name.to_string(),
                            m.unit.to_string(),
                            m.better.to_string(),
                            m.bound.to_string(),
                        ]
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            sorted(
                layers
                    .iter()
                    .map(|m| vec![m.name.clone(), m.unit.to_string(), m.better.to_string()])
                    .collect(),
            ),
        ),
    ];
    for (key, rows) in mine {
        let theirs = section(key)?;
        if rows != theirs {
            let differs: Vec<&Vec<String>> = rows
                .iter()
                .filter(|r| !theirs.contains(r))
                .chain(theirs.iter().filter(|r| !rows.contains(r)))
                .collect();
            return Err(format!("{key} differs from BENCHMARK.json: {differs:?}"));
        }
    }
    Ok(())
}

/// `BENCHMARK.json` as this table defines it (`--emit-json` writes the
/// file from here, so the table is the single source).
pub fn to_benchmark_json(command: &[&str], paths: &[&str], run_seconds: u32) -> String {
    let quote = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", quote(command)));
    out.push_str(&format!("  \"paths\": [{}],\n", quote(paths)));
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        per_layer()
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

/// Print every workload and metric (`--list`).
pub fn print_list() {
    println!(
        "workloads ({} of at most {MAX_WORKLOADS}):",
        WORKLOADS.len()
    );
    for w in &WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
    }
    println!(
        "end-to-end metrics ({} of at most {MAX_END_TO_END}; every workload reports each):",
        END_TO_END.len()
    );
    for m in &END_TO_END {
        println!(
            "  {:<14} {:<6} {:<7} bound {:>4.0}%  {}",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            m.meaning
        );
    }
    let layers = per_layer();
    println!(
        "per-layer metrics ({} of at most {MAX_PER_LAYER}; 0 = layer not exercised by the workload):",
        layers.len()
    );
    for m in &layers {
        println!(
            "  {:<40} {:<10} {:<6} {:<7} -> {}",
            m.name,
            m.layer(),
            m.unit,
            m.better,
            m.moves
        );
    }
}
