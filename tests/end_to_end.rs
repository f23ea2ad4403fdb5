//! Cross-crate integration: staging → optimization → analysis → execution
//! → code generation for every benchmark application.

use dmll::analysis::DataLayout;
use dmll::ir::printer::count_loops;
use dmll::transform::{pipeline, Target};

#[test]
fn q1_full_pipeline_single_pass_soa_and_codegen() {
    let cols = dmll::data::tpch::to_columns(&dmll::data::tpch::gen_lineitems(2000, 11));
    let mut p = dmll::apps::q1::stage_q1();
    let want = dmll::apps::q1::run(&p, &cols).unwrap();

    let report = pipeline::optimize(&mut p, Target::Cluster);
    assert!(report.applied("horizontal fusion") >= 4);
    assert!(report.applied("AoS to SoA") == 1);
    assert_eq!(count_loops(&p), 1);

    let analysis = dmll::analysis::analyze(&mut p);
    // Every surviving column input is partitioned; no warnings.
    for input in &p.inputs {
        assert_eq!(
            analysis.partition.layout_of(input.sym),
            DataLayout::Partitioned,
            "{}",
            input.name
        );
    }
    assert!(
        !analysis.partition.has_warnings(),
        "{:?}",
        analysis.partition.warnings
    );

    let got = dmll::apps::q1::run(&p, &cols).unwrap();
    assert_eq!(got, want);

    // Both backends accept the optimized program.
    let cpp = dmll::codegen::emit_cpp(&p);
    assert!(cpp.contains("#pragma omp parallel for"));
    let cuda = dmll::codegen::emit_cuda(&p).unwrap();
    assert!(cuda.contains("sort_by_key"), "buckets by sorting on GPU");
}

#[test]
fn kmeans_figure5_structure_emerges() {
    // After the cluster recipe, the program must contain a horizontally
    // fused BucketReduce (sums + counts in one traversal) keyed by the
    // fused-in assignment — the hand-written Figure 5 shape.
    let mut p = dmll::apps::kmeans::stage_kmeans(5);
    pipeline::optimize(&mut p, Target::Cluster);
    let printed = p.to_string();
    let bucket_reduces = printed.matches("BucketReduce").count();
    assert!(bucket_reduces >= 2, "sums and counts: {printed}");
    assert!(
        printed.contains("bucketGet"),
        "lookup instead of re-traversal"
    );

    // And the distribution conclusions of Figure 4 hold.
    let analysis = dmll::analysis::analyze(&mut p);
    let matrix = p.input("matrix").unwrap().sym;
    let clusters = p.input("clusters").unwrap().sym;
    assert_eq!(
        analysis.partition.layout_of(matrix),
        DataLayout::Partitioned
    );
    assert_eq!(analysis.partition.layout_of(clusters), DataLayout::Local);
    // The centroid data (read inside the distributed loops via its
    // hoisted projections) is broadcast; everything broadcast is Local.
    assert!(!analysis.partition.broadcasts.is_empty());
    for b in &analysis.partition.broadcasts {
        assert_eq!(analysis.partition.layout_of(*b), DataLayout::Local);
    }
}

type StageFn = Box<dyn Fn() -> dmll::ir::Program>;

#[test]
fn every_app_survives_every_target_recipe() {
    let apps: Vec<(&str, StageFn)> = vec![
        ("q1", Box::new(dmll::apps::q1::stage_q1)),
        ("gene", Box::new(dmll::apps::gene::stage_gene)),
        ("gda", Box::new(dmll::apps::gda::stage_gda)),
        ("logreg", Box::new(|| dmll::apps::logreg::stage_logreg(0.1))),
        ("kmeans", Box::new(|| dmll::apps::kmeans::stage_kmeans(4))),
        (
            "pagerank_pull",
            Box::new(|| dmll::apps::pagerank::stage_pagerank_pull(0.85)),
        ),
        (
            "pagerank_push",
            Box::new(|| dmll::apps::pagerank::stage_pagerank_push(0.85)),
        ),
        (
            "triangles",
            Box::new(dmll::apps::triangles::stage_triangles),
        ),
        ("gibbs", Box::new(dmll::apps::gibbs::stage_gibbs_sweep)),
    ];
    for (name, stage) in apps {
        for target in [Target::Cpu, Target::Numa, Target::Cluster, Target::Gpu] {
            let mut p = stage();
            pipeline::optimize(&mut p, target);
            assert!(
                dmll::ir::typecheck::infer(&p).is_ok(),
                "{name} @ {target:?} produced ill-typed IR"
            );
        }
    }
}

#[test]
fn parallel_executor_agrees_with_sequential_on_apps() {
    use dmll::interp::{eval, eval_parallel};
    let cols = dmll::data::tpch::to_columns(&dmll::data::tpch::gen_lineitems(997, 3));
    let mut p = dmll::apps::q1::stage_q1();
    pipeline::optimize(&mut p, Target::Cpu);
    let inputs = dmll::apps::q1::inputs_for(&p, &cols);
    let borrowed: Vec<(&str, dmll::interp::Value)> = inputs
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    let seq = eval(&p, &borrowed).unwrap();
    for threads in [2, 3, 5] {
        let par = eval_parallel(&p, &borrowed, threads).unwrap();
        // Chunked reduction reassociates floating-point sums (as real
        // parallel hardware does): integers exact, floats within tolerance.
        let (dmll::interp::Value::Tuple(s), dmll::interp::Value::Tuple(q)) = (&seq, &par) else {
            panic!("tuple outputs expected");
        };
        for (a, b) in s.iter().zip(q.iter()) {
            if let (Some(x), Some(y)) = (a.to_i64_vec(), b.to_i64_vec()) {
                assert_eq!(x, y, "threads={threads}");
            } else {
                let (x, y) = (a.to_f64_vec().unwrap(), b.to_f64_vec().unwrap());
                for (u, v) in x.iter().zip(&y) {
                    assert!(
                        (u - v).abs() <= 1e-9 * (1.0 + u.abs()),
                        "threads={threads}: {u} vs {v}"
                    );
                }
            }
        }
    }
}

#[test]
fn gibbs_replicated_nested_parallel_structure() {
    let fg = dmll::data::factor::gen_factor_graph(80, 4, 3);
    let p = dmll::apps::gibbs::stage_gibbs_sweep();
    let marginals = dmll::apps::gibbs::run_replicated(&p, &fg, 4, 6, 17).unwrap();
    assert_eq!(marginals.len(), 80);
    assert!(marginals.iter().all(|m| (0.0..=1.0).contains(m)));
}

#[test]
fn effectful_extern_loop_runs_once_per_element_in_index_order() {
    use dmll::frontend::Stage;
    use dmll::interp::{eval_parallel_supervised, ChunkFaults, ExecReport, ParallelOptions, Value};
    use dmll::ir::{LayoutHint, Ty};
    use dmll::runtime::{SpeculationPolicy, Supervisor, SupervisorPolicy};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    // `x.map(e => tick(e)).sum`: the kernel compiler rejects the effectful
    // `tick`, so the loop runs on the tree-walker, which must call it once
    // per element, in index order, on any thread count and under any
    // supervision.
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let ticked = st.map(&x, |st, e| {
        st.extern_call("tick", &[e], Ty::I64, true, true)
    });
    let total = st.sum(&ticked);
    let p = st.finish(&total);
    let n = 4000i64;
    let inputs = [("x", Value::i64_arr((0..n).collect()))];
    let run = |opts: ParallelOptions| -> (Value, ExecReport, Vec<i64>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let rec = log.clone();
        let opts = opts.with_extern("tick", move |args| {
            rec.lock().unwrap().push(args[0].as_i64().unwrap());
            Ok(args[0].clone())
        });
        let (value, report) = eval_parallel_supervised(&p, &inputs, &opts).unwrap();
        let calls = log.lock().unwrap().clone();
        (value, report, calls)
    };

    let (reference, _, _) = run(ParallelOptions::new(2).tree_walk_only());
    let straggler = SupervisorPolicy {
        speculation: SpeculationPolicy {
            enabled: true,
            min_samples: 1,
            percentile: 50.0,
            multiplier: 1.5,
            floor: Duration::from_micros(50),
        },
        ..SupervisorPolicy::default()
    };
    for opts in [
        ParallelOptions::new(2),
        ParallelOptions::new(2)
            .with_faults(ChunkFaults::default().and_delay(0, Duration::from_millis(300)))
            .supervised(Supervisor::new(straggler)),
    ] {
        let (value, report, calls) = run(opts);
        assert_eq!(calls.len() as i64, n, "one call per element: {report:?}");
        assert!(
            calls.windows(2).all(|w| w[0] < w[1]),
            "calls in strictly increasing index order"
        );
        assert_eq!(value, reference);
        assert_eq!(report.treewalk_loops, 1, "{report:?}");
        assert_eq!(report.speculative_tasks, 0, "{report:?}");
    }
}
