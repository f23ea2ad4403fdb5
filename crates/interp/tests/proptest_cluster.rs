//! Differential properties for the measured cluster executor: for any
//! input data, node count, and seeded fault scenario (node deaths at
//! epoch/shuffle boundaries, link flakes, straggler speculation), the
//! cluster result is bit-identical to the single-node parallel tiers at
//! the same task-plan width — and, where every fold is exact, to the
//! sequential tree-walker — across all four generator kinds (collect,
//! reduce, bucket-collect, bucket-reduce), integer- and float-valued,
//! over typed columns and boxed struct rows; and a faulting task surfaces
//! the single-node executor's error.

use dmll_core::{LayoutHint, StructTy, Ty};
use dmll_frontend::Stage;
use dmll_interp::cluster::{shuffle_step, ClusterOptions};
use dmll_interp::{
    eval, eval_cluster_measured, eval_parallel, ExecError, StructVal, Value,
};
use dmll_runtime::{FaultPlan, SpeculationPolicy};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn row_ty() -> StructTy {
    StructTy::new("Row", vec![("k".into(), Ty::I64), ("v".into(), Ty::F64)])
}

/// One program exercising every generator kind, as a pair of tuples.
///
/// The first holds the exact part — a map (collect), a sum (reduce),
/// keyed sums (bucket-reduce) and keyed groups (bucket-collect) over
/// integers, the Q1 shape (field-wise column extraction from boxed struct
/// rows, the loop the scatter path serves) and a gather through `probe` —
/// on which sequential, parallel and cluster agree exactly. The second
/// holds a float sum and float keyed sums: their fold order is the task
/// plan's, so the reference is the parallel tier at the same width.
fn all_kinds_program() -> dmll_core::Program {
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let rows = st.input("rows", Ty::arr(Ty::Struct(row_ty())), LayoutHint::Partitioned);
    let probe = st.input("probe", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let mapped = st.map(&x, |st, e| {
        let three = st.lit_i(3);
        st.mul(e, &three)
    });
    let total = st.sum(&mapped);
    let zero = st.lit_i(0);
    let sums = st.group_by_reduce(
        &x,
        |st, e| {
            let seven = st.lit_i(7);
            st.rem(e, &seven)
        },
        |_st, e| e.clone(),
        |st, a, b| st.add(a, b),
        Some(&zero),
    );
    let groups = st.group_by(&x, |st, e| {
        let five = st.lit_i(5);
        st.rem(e, &five)
    });
    let sk = st.bucket_keys(&sums);
    let sv = st.bucket_values(&sums);
    let gk = st.bucket_keys(&groups);
    let gv = st.bucket_values(&groups);
    let ks = st.map(&rows, |st, r| st.field(r, "k"));
    let vs = st.map(&rows, |st, r| st.field(r, "v"));
    let xs = x.clone();
    let gathered = st.map(&probe, move |st, p| st.read(&xs, p));
    let exact = st.tuple(&[&total, &sk, &sv, &gk, &gv, &ks, &vs, &gathered]);

    let ftotal = st.sum(&vs);
    let fzero = st.lit_f(0.0);
    let fsums = st.group_by_reduce(
        &rows,
        |st, r| {
            let k = st.field(r, "k");
            let seven = st.lit_i(7);
            st.rem(&k, &seven)
        },
        |st, r| st.field(r, "v"),
        |st, a, b| st.add(a, b),
        Some(&fzero),
    );
    let fk = st.bucket_keys(&fsums);
    let fv = st.bucket_values(&fsums);
    let float = st.tuple(&[&ftotal, &fk, &fv]);

    let out = st.tuple(&[&exact, &float]);
    st.finish(&out)
}

/// Inputs derived from `data` alone: one boxed row per element, and the
/// identity gather — except that `plant` makes one probe read past the
/// end of `x`, in whichever task covers that position.
fn inputs_for(data: Vec<i64>, plant: Option<usize>) -> [(&'static str, Value); 3] {
    let ty = Arc::new(row_ty());
    let rows = data
        .iter()
        .map(|&k| {
            Value::Struct(Arc::new(StructVal {
                ty: ty.clone(),
                fields: vec![Value::I64(k), Value::F64(k as f64 * 0.37 - 11.0)],
            }))
        })
        .collect();
    let mut probe: Vec<i64> = (0..data.len() as i64).collect();
    if let Some(at) = plant {
        let at = at % probe.len();
        probe[at] = data.len() as i64 + 7;
    }
    [
        ("x", Value::i64_arr(data)),
        ("rows", Value::boxed_arr(rows)),
        ("probe", Value::i64_arr(probe)),
    ]
}

fn exact_part(v: &Value) -> Value {
    match v {
        Value::Tuple(parts) => parts[0].clone(),
        other => panic!("program result is a pair, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cluster == single-node parallel (== tree-walker on the exact part),
    /// values and errors alike, under any combination of node death, link
    /// flakes, and speculation.
    #[test]
    fn cluster_is_bit_identical_under_faults(
        data in prop::collection::vec(-1_000i64..1_000, 64..600),
        nodes in 2usize..5,
        threads in 2usize..4,
        kill_some in any::<bool>(),
        kill_node in 0usize..8,
        kill_epoch in 0u64..3,
        flake_tenths in 0u32..3,
        speculate in any::<bool>(),
        // One case in four plants an out-of-bounds read.
        plant in 0usize..2_400,
        seed in 0u64..1_000,
    ) {
        let p = all_kinds_program();
        let plant = (plant < 600).then_some(plant);
        let inputs = inputs_for(data, plant);
        let par = eval_parallel(&p, &inputs, threads);
        match &par {
            Ok(par) => {
                let seq = eval(&p, &inputs).unwrap();
                prop_assert_eq!(exact_part(&seq), exact_part(par), "tree-walker vs parallel");
            }
            Err(e) => prop_assert!(plant.is_some(), "only the planted read fails: {e:?}"),
        }

        let mut faults = FaultPlan::new(seed);
        if kill_some {
            // Only worker nodes die; the coordinator is co-located with
            // node 0. Deaths land on epoch/shuffle step boundaries.
            let victim = 1 + kill_node % (nodes - 1).max(1);
            faults = faults.kill_node(victim, shuffle_step(kill_epoch));
        }
        if flake_tenths > 0 {
            faults = faults.drop_remote_reads(flake_tenths as f64 * 0.1);
        }
        let mut opts = ClusterOptions::new(nodes, threads).with_faults(faults);
        if speculate {
            opts = opts.with_speculation(SpeculationPolicy {
                enabled: true,
                min_samples: 3,
                percentile: 75.0,
                multiplier: 2.0,
                floor: Duration::from_micros(100),
            });
        }
        match eval_cluster_measured(&p, &inputs, &opts) {
            Ok((clu, report)) => {
                prop_assert_eq!(par.as_ref(), Ok(&clu), "cluster diverged: {:?}", report);
                prop_assert!(report.cluster_loops > 0);
                prop_assert_eq!(report.compiled_loops, report.cluster_loops);
                prop_assert!(report.batched_loops > 0, "no epoch ran batched: {:?}", report);
                // The first shuffle boundary is always reached (the sizes
                // above guarantee at least one cluster epoch); later kill
                // steps may fall past the last loop once fusion merges
                // epochs, so only the epoch-0 death is asserted observable.
                if kill_some && kill_epoch == 0 {
                    prop_assert!(report.node_deaths >= 1, "epoch-0 death fired: {:?}", report);
                }
            }
            // A flaky link may exhaust its retry budget; the gate is
            // "bit-identical or typed error", never a wrong answer.
            Err(ExecError::Runtime(_)) if flake_tenths > 0 => {}
            // The planted read: the task that covers it fails on whichever
            // node runs it, with the single-node executor's error.
            Err(ExecError::Eval(e)) => prop_assert_eq!(par, Err(e)),
            Err(other) => {
                return Err(TestCaseError::fail(format!("untyped failure: {other:?}")));
            }
        }
    }
}
