//! Measured cluster execution bench: real sharded multiloops on the
//! simulated N-node data plane, gated on bit-identity with the
//! single-node batched tier.
//!
//! Unlike the Figure 8 *model* tables (analytic cost projections), every
//! number here comes from actually executing the staged workloads on the
//! [`eval_cluster_measured`] executor: nodes are threads with isolated
//! environments, staging/acks/shuffle/halo traffic is charged through the
//! machine network model, and the scenario column says what was injected.
//! Two workloads cover the communication-heavy corners — TPC-H Q1
//! (BucketReduce-dense) and PageRank push (bucket shuffle over edges) —
//! at one node (degenerate) and at four, plus a mid-epoch node-kill run
//! that must recover lost shards by lineage re-execution and still match
//! the single-node output bit for bit.

use crate::tiers::workloads_unfused;
use dmll_interp::cluster::shuffle_step;
use dmll_interp::{
    eval_cluster_measured, eval_parallel, tier_totals, ClusterOptions, ClusterReport, Value,
};
use dmll_runtime::FaultPlan;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The apps the measured bench runs (the shuffle-heavy pair).
const APPS: [&str; 2] = ["PageRank", "Q1"];

/// One measured cluster run.
#[derive(Clone, Debug)]
pub struct ClusterRow {
    /// Workload name.
    pub app: &'static str,
    /// Input rows (edges for PageRank, lineitems for Q1).
    pub rows: usize,
    /// Simulated nodes.
    pub nodes: usize,
    /// Task-plan width (shared with the single-node baseline).
    pub threads: usize,
    /// What was injected: `baseline` or `node_kill`.
    pub scenario: &'static str,
    /// Output bit-identical to the single-node batched tier.
    pub identical: bool,
    /// Wall time of the measured cluster run.
    pub secs: f64,
    /// Wall time of the single-node batched reference.
    pub single_secs: f64,
    /// Elements the tree-walker evaluated while the cluster ran: a delta of
    /// the process-wide counter, so it is only this run's when nothing
    /// else executes in the process (true of the bench binary, which gates
    /// on it; not of a parallel test harness).
    pub treewalk_elements: u64,
    /// What the data plane did.
    pub report: ClusterReport,
}

impl ClusterRow {
    /// Does this row satisfy its gate? Every row must be identical and
    /// must report a kernel tier for every cluster loop; the node-kill row
    /// must additionally have observed the death and recovered at least
    /// one shard via lineage.
    pub fn ok(&self) -> bool {
        self.identical
            && self.report.compiled_loops == self.report.cluster_loops
            && (self.scenario != "node_kill"
                || (self.report.node_deaths >= 1 && self.report.lineage_recoveries >= 1))
    }
}

/// Run the measured cluster bench: each app at every node count in
/// `node_counts` (fault-free), plus one node-kill scenario at the largest
/// count, all against a single-node batched-tier reference at the same
/// `threads` task plan.
pub fn measured_cluster(scale: usize, threads: usize, node_counts: &[usize]) -> Vec<ClusterRow> {
    let mut out = Vec::new();
    for w in workloads_unfused(scale.max(1)) {
        if !APPS.contains(&w.app) {
            continue;
        }
        let mut program = w.program;
        let borrowed: Vec<(&str, Value)> =
            w.inputs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        // The analysis plan drives partitioned-window staging where the
        // stencils allow it; everything else is broadcast (still charged).
        let plan = Arc::new(dmll_analysis::export_plan(&dmll_analysis::analyze(
            &mut program,
        )));

        let t0 = Instant::now();
        let reference = eval_parallel(&program, &borrowed, threads).expect("single-node reference");
        let single_secs = t0.elapsed().as_secs_f64();

        for &nodes in node_counts {
            let opts = ClusterOptions::new(nodes, threads).with_plan(Arc::clone(&plan));
            out.push(run_one(
                w.app, w.rows, &program, &borrowed, &reference, single_secs, "baseline", opts,
            ));
        }
        // Kill node 1 at the first epoch's pre-shuffle boundary: it dies
        // holding finished task results, which only lineage re-execution
        // on the survivors can reproduce.
        let nodes = node_counts.iter().copied().max().unwrap_or(4).max(2);
        let faults = FaultPlan::new(1).kill_node(1, shuffle_step(0));
        let opts = ClusterOptions::new(nodes, threads)
            .with_plan(Arc::clone(&plan))
            .with_faults(faults);
        out.push(run_one(
            w.app, w.rows, &program, &borrowed, &reference, single_secs, "node_kill", opts,
        ));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn run_one(
    app: &'static str,
    rows: usize,
    program: &dmll_core::Program,
    inputs: &[(&str, Value)],
    reference: &Value,
    single_secs: f64,
    scenario: &'static str,
    opts: ClusterOptions,
) -> ClusterRow {
    let walked_before = tier_totals().treewalk_elements;
    let t0 = Instant::now();
    let (value, report) =
        eval_cluster_measured(program, inputs, &opts).expect("measured cluster run");
    let secs = t0.elapsed().as_secs_f64();
    let treewalk_elements = tier_totals().treewalk_elements - walked_before;
    ClusterRow {
        app,
        rows,
        nodes: opts.nodes,
        threads: opts.threads,
        scenario,
        identical: &value == reference,
        secs,
        single_secs,
        treewalk_elements,
        report,
    }
}

/// Render the measured runs as a terminal table. These are executed
/// numbers, in contrast to the Figure 8 model projections.
pub fn render(rows: &[ClusterRow]) -> String {
    let mut out = String::from(
        "Measured cluster execution (real sharded multiloops; network costs simulated)\n",
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>6} {:<10} {:>8} {:>9} {:>7} {:>10} {:>6} {:>6} {:>5} {:<9}",
        "App", "Rows", "Nodes", "Scenario", "Secs", "Shuffles", "Sends", "Bytes", "Halo", "Recov",
        "Dead", "Output"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>6} {:<10} {:>8.3} {:>9} {:>7} {:>10} {:>6} {:>6} {:>5} {:<9}",
            r.app,
            r.rows,
            r.nodes,
            r.scenario,
            r.secs,
            r.report.shuffles,
            r.report.sends,
            r.report.send_bytes,
            r.report.halo_exchanges,
            r.report.lineage_recoveries,
            r.report.node_deaths,
            if r.identical { "identical" } else { "DIVERGED" }
        );
    }
    let bad = rows.iter().filter(|r| !r.ok()).count();
    let _ = writeln!(out, "{} runs, {} gate violations", rows.len(), bad);
    out
}

/// Serialize the measured runs as the `BENCH_cluster.json` document.
pub fn to_json(rows: &[ClusterRow], scale: usize, threads: usize) -> String {
    let mut out = format!(
        "{{\n  \"experiment\": \"cluster_measured\",\n  \"scale\": {scale},\n  \
         \"threads\": {threads},\n  \"runs\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"app\": \"{}\", \"rows\": {}, \"nodes\": {}, \"scenario\": \"{}\", \
             \"identical\": {}, \"ok\": {}, \"secs\": {:.4}, \"single_node_secs\": {:.4}, \
             \"cluster_loops\": {}, \"compiled_loops\": {}, \"batched_loops\": {}, \
             \"treewalk_elements\": {}, \"coordinator_loops\": {}, \"shuffles\": {}, \
             \"tasks\": {}, \
             \"staged_values\": {}, \"halo_exchanges\": {}, \"speculative_tasks\": {}, \
             \"lineage_recoveries\": {}, \"node_deaths\": {}, \"sends\": {}, \"send_bytes\": {}, \
             \"link_retries\": {}, \"network_nanos_model\": {}}}{}",
            r.app,
            r.rows,
            r.nodes,
            r.scenario,
            r.identical,
            r.ok(),
            r.secs,
            r.single_secs,
            r.report.cluster_loops,
            r.report.compiled_loops,
            r.report.batched_loops,
            r.treewalk_elements,
            r.report.coordinator_loops,
            r.report.shuffles,
            r.report.tasks,
            r.report.staged_values,
            r.report.halo_exchanges,
            r.report.speculative_tasks,
            r.report.lineage_recoveries,
            r.report.node_deaths,
            r.report.sends,
            r.report.send_bytes,
            r.report.link_retries,
            r.report.network_nanos,
            if i + 1 == rows.len() { "\n" } else { ",\n" }
        );
    }
    let _ = write!(
        out,
        "  ],\n  \"gate_ok\": {}\n}}\n",
        rows.iter().all(ClusterRow::ok)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_measured_cluster_holds_the_gate() {
        let _counters = crate::lock_tier_counters();
        let rows = measured_cluster(1, 2, &[1, 4]);
        // Two apps x (two baselines + one kill).
        assert_eq!(rows.len(), 2 * 3);
        for r in &rows {
            assert!(r.ok(), "gate violation: {r:?}");
        }
        let kill_recoveries: u64 = rows
            .iter()
            .filter(|r| r.scenario == "node_kill")
            .map(|r| r.report.lineage_recoveries)
            .sum();
        assert!(kill_recoveries >= 2, "both kill runs recovered shards");
        let json = to_json(&rows, 1, 2);
        assert!(json.contains("\"gate_ok\": true"), "{json}");
    }
}
