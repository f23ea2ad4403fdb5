//! Regenerates Figure 8: heterogeneous cluster experiments.
//!
//! The default tables are *model* projections from the analytic cost
//! model (no cluster is executed). `--measured` instead runs the staged
//! shuffle-heavy workloads (PageRank push, TPC-H Q1) for real on the
//! measured multi-node executor — sharded multiloops, charged shuffle and
//! staging traffic, plus a scripted mid-epoch node kill recovered by
//! lineage — gated on bit-identity with the single-node batched tier and on
//! every cluster loop reporting a kernel tier (none tree-walked), and
//! writes `BENCH_cluster.json`. `--smoke` shrinks the measured inputs to
//! CI size and writes `BENCH_cluster.smoke.json` instead; `--threads N`
//! and `--nodes a,b` set the task-plan width and the node counts swept.

use dmll_bench::{cluster, experiments, render};

struct MeasuredArgs {
    smoke: bool,
    threads: usize,
    nodes: Vec<usize>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: fig8_cluster [amazon|gpu|graph|degraded|gibbs]\n       \
         fig8_cluster --measured [--smoke] [--threads N] [--nodes a,b]"
    );
    std::process::exit(2);
}

fn parse_measured(mut args: std::env::Args) -> MeasuredArgs {
    let mut out = MeasuredArgs {
        smoke: false,
        threads: 4,
        nodes: vec![1, 4],
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => out.smoke = true,
            "--threads" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a positive integer"));
                out.threads = if n == 0 {
                    usage("--threads needs a positive integer")
                } else {
                    n
                };
            }
            "--nodes" => {
                let list = args
                    .next()
                    .unwrap_or_else(|| usage("--nodes needs a comma-separated list"));
                let parsed: Result<Vec<usize>, _> =
                    list.split(',').map(|s| s.trim().parse()).collect();
                out.nodes = parsed.unwrap_or_else(|_| usage("bad --nodes list"));
                if out.nodes.is_empty() || out.nodes.contains(&0) {
                    usage("--nodes entries must be positive");
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    out
}

fn run_measured(args: MeasuredArgs) -> ! {
    let scale = if args.smoke { 1 } else { 4 };
    let rows = cluster::measured_cluster(scale, args.threads, &args.nodes);
    print!("{}", cluster::render(&rows));
    let json = cluster::to_json(&rows, scale, args.threads);
    let path = dmll_bench::result_path("cluster", args.smoke);
    std::fs::write(&path, &json).expect("write cluster report");
    println!("wrote {path}");
    // This process ran nothing but the cluster between the counter reads,
    // so a tree-walked element is the cluster's own.
    let ok = |r: &cluster::ClusterRow| r.ok() && r.treewalk_elements == 0;
    if rows.iter().all(ok) {
        std::process::exit(0);
    }
    for r in rows.iter().filter(|r| !ok(r)) {
        eprintln!(
            "FAIL: {} nodes={} scenario={}: identical={} treewalk_elements={} report={:?}",
            r.app, r.nodes, r.scenario, r.identical, r.treewalk_elements, r.report
        );
    }
    std::process::exit(1);
}

fn main() {
    let mut args = std::env::args();
    let _ = args.next();
    let arg = args.next().unwrap_or_default();
    if arg == "--measured" {
        run_measured(parse_measured(args));
    }
    if arg.starts_with("--") {
        usage(&format!("unknown argument {arg}"));
    }
    if arg.is_empty() || arg == "amazon" {
        print!(
            "{}",
            render::fig8(
                &experiments::fig8_amazon(),
                "Figure 8 (left): 20-node Amazon cluster (model projection)",
                "Spark"
            )
        );
        println!();
    }
    if arg.is_empty() || arg == "gpu" {
        print!(
            "{}",
            render::fig8(
                &experiments::fig8_gpu_cluster(),
                "Figure 8 (middle): 4-node GPU cluster (model projection)",
                "Spark"
            )
        );
        println!();
    }
    if arg.is_empty() || arg == "graph" {
        print!(
            "{}",
            render::fig8(
                &experiments::fig8_graph(),
                "Figure 8 (graphs): 4-node cluster (model projection)",
                "PowerGraph"
            )
        );
        println!();
    }
    if arg.is_empty() || arg == "degraded" {
        print!(
            "{}",
            render::fig8_degraded(
                &experiments::fig8_degraded(),
                "Degraded mode: 20-node Amazon cluster losing nodes mid-loop (model projection)",
            )
        );
        println!();
    }
    if arg.is_empty() || arg == "gibbs" {
        print!(
            "{}",
            render::fig8(
                &experiments::fig8_gibbs(),
                "Figure 8 (right): Gibbs sampling (model projection)",
                "sequential DimmWitted"
            )
        );
    }
}
