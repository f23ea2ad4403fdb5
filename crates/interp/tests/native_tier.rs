//! Differential tests for the native tier (emit C++, compile, `dlopen`):
//! native results must be bit-identical to the batched and tree-walking
//! tiers, runtime faults must degrade to the batched tier's exact error,
//! and a missing system compiler must surface as a typed fallback rather
//! than a failure.
//!
//! Every test tolerates a container without a C++ compiler: the native
//! tier then declines with `compiler_unavailable` and the differential
//! assertions still hold (they compare against the batched tier, which is
//! what the fallback runs).

use std::sync::{Mutex, MutexGuard};

use dmll_core::{LayoutHint, MathFn, Ty};
use dmll_frontend::{Stage, Val};
use dmll_interp::{
    eval_parallel_report, eval_tree_walk, native_fallback_reasons, tier_totals, ChunkFaults,
    Interp, ParallelOptions, Value,
};

fn have_compiler() -> bool {
    dmll_codegen::find_compiler().is_some()
}

/// The tier counters are process-wide; tests that read deltas of them
/// hold this lock so a neighbour's fallbacks cannot land in their window.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A Gene-shaped program: per-key counts and sums (BucketReduce with a
/// typed i64 key), a filtered reduction, and a zip-style Collect with an
/// int-to-float cast and division — every loop native-eligible.
fn gene_like_program() -> dmll_core::Program {
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let q = st.input("q", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let n = st.len(&x);

    let izero = st.lit_i(0);
    let counts = st.group_by_reduce(
        &x,
        |st, e| {
            let m = st.lit_i(7);
            st.rem(e, &m)
        },
        |st, _e| st.lit_i(1),
        |st, a, b| st.add(a, b),
        Some(&izero),
    );

    let x2 = x.clone();
    let total = st.reduce(
        &n,
        move |st, i| {
            let xi = st.read(&x2, i);
            st.mul(&xi, &xi)
        },
        |st, a, b| st.add(a, b),
        Some(&izero),
    );

    let x3 = x.clone();
    let q2 = q.clone();
    let ratios = st.collect(&n, move |st, i| {
        let xi = st.read(&x3, i);
        let qi = st.read(&q2, i);
        let one = st.lit_i(1);
        let den = st.add(&qi, &one);
        let xf = st.i2f(&xi);
        let df = st.i2f(&den);
        st.div(&xf, &df)
    });

    let ckeys = st.bucket_keys(&counts);
    let cvals = st.bucket_values(&counts);
    let out = st.tuple(&[&total, &ckeys, &cvals, &ratios]);
    st.finish(&out)
}

fn gene_inputs(size: i64) -> [(&'static str, Value); 2] {
    let x: Vec<i64> = (0..size).map(|i| (i * 31 + 7) % 1000).collect();
    let q: Vec<i64> = (0..size).map(|i| (i * 13) % 40).collect();
    [("x", Value::i64_arr(x)), ("q", Value::i64_arr(q))]
}

/// Sequential dispatch: the native tier must be bit-identical to the
/// batched tier and the tree-walker. With a compiler present the native
/// loop counter must grow; without one the decline must be typed.
#[test]
fn native_sequential_matches_batched_and_walker() {
    let _guard = serial();
    let p = gene_like_program();
    let inputs = gene_inputs(3000);

    let before = tier_totals();
    let (native, report) = Interp::new(&p)
        .with_native()
        .run_report(&inputs)
        .expect("native-enabled run");
    let after = tier_totals();
    assert!(report.compiled_loops >= 1, "{report:?}");
    if have_compiler() {
        assert!(
            after.native_loops > before.native_loops,
            "native tier never ran; fallbacks: {:?}",
            native_fallback_reasons()
        );
    } else {
        assert!(
            native_fallback_reasons().contains_key("compiler_unavailable"),
            "missing compiler must be a typed decline"
        );
    }

    let (batched, _) = Interp::new(&p).run_report(&inputs).expect("batched run");
    let walked = eval_tree_walk(&p, &inputs).expect("tree-walk run");
    assert_eq!(native, batched, "native vs batched");
    assert_eq!(native, walked, "native vs tree-walker");
}

/// Parallel dispatch: native chunks under work stealing — with and
/// without injected chunk faults — must match the native-off parallel run
/// and the sequential tree-walker bit-for-bit.
#[test]
fn native_parallel_with_faults_is_bit_identical() {
    let _guard = serial();
    let p = gene_like_program();
    let inputs = gene_inputs(4096);

    let clean_opts = ParallelOptions::new(4).with_native();
    let (clean, report) = eval_parallel_report(&p, &inputs, &clean_opts).expect("clean native run");
    assert!(report.compiled_loops >= 1, "{report:?}");

    let fault_opts = ParallelOptions::new(4)
        .with_native()
        .with_faults(ChunkFaults::fail_once([1, 3]));
    let (recovered, _) = eval_parallel_report(&p, &inputs, &fault_opts).expect("faulted run");
    assert_eq!(clean, recovered, "native parallel recovery must be exact");

    let plain_opts = ParallelOptions::new(4);
    let (plain, _) = eval_parallel_report(&p, &inputs, &plain_opts).expect("native-off run");
    assert_eq!(clean, plain, "native on vs off (parallel)");

    let walked = eval_tree_walk(&p, &inputs).expect("tree-walk run");
    assert_eq!(clean, walked, "native parallel vs sequential tree-walker");
}

/// A runtime fault inside the native kernel (division by zero) must fall
/// back to the batched tier and reproduce the interpreter's exact error.
#[test]
fn native_runtime_fault_reproduces_exact_error() {
    let _guard = serial();
    let mut st = Stage::new();
    let q = st.input("q", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let mapped = st.map(&q, |st, e: &Val| {
        let c = st.lit_i(100);
        st.div(&c, e)
    });
    let p = st.finish(&mapped);
    // Contains a zero denominator partway through.
    let data: Vec<i64> = (0..600).map(|i| i - 300).collect();
    let inputs = [("q", Value::i64_arr(data))];

    let native_err = Interp::new(&p)
        .with_native()
        .run_report(&inputs)
        .expect_err("division by zero must error");
    let plain_err = Interp::new(&p)
        .run_report(&inputs)
        .expect_err("division by zero must error");
    assert_eq!(
        format!("{native_err}"),
        format!("{plain_err}"),
        "native fallback must reproduce the batched tier's error"
    );
    if have_compiler() {
        assert!(
            native_fallback_reasons()
                .get("runtime_fault")
                .copied()
                .unwrap_or(0)
                >= 1,
            "the faulting chunk must be counted as a runtime_fault fallback: {:?}",
            native_fallback_reasons()
        );
    }
}

/// A successful error-free division loop (no zero denominators) must be
/// bit-identical across tiers — the div guard only fires on real faults.
#[test]
fn native_guarded_division_matches_when_fault_free() {
    let _guard = serial();
    let mut st = Stage::new();
    let q = st.input("q", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let mapped = st.map(&q, |st, e: &Val| {
        let c = st.lit_i(100_000);
        st.div(&c, e)
    });
    let p = st.finish(&mapped);
    let data: Vec<i64> = (0..600).map(|i| i % 97 + 1).collect();
    let inputs = [("q", Value::i64_arr(data))];

    let (native, _) = Interp::new(&p)
        .with_native()
        .run_report(&inputs)
        .expect("fault-free run");
    let walked = eval_tree_walk(&p, &inputs).expect("tree-walk run");
    assert_eq!(native, walked);
}

/// Native-ineligible constructs (BucketCollect / group_by) must decline
/// with a stable typed key and still produce identical results.
#[test]
fn native_ineligible_loop_declines_with_typed_reason() {
    let _guard = serial();
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let g = st.group_by(&x, |st, e| {
        let m = st.lit_i(5);
        st.rem(e, &m)
    });
    let keys = st.bucket_keys(&g);
    let vals = st.bucket_values(&g);
    let pair = st.tuple(&[&keys, &vals]);
    let p = st.finish(&pair);
    let inputs = [(
        "x",
        Value::i64_arr((0..800).map(|i| i * 17 % 400).collect()),
    )];

    let (native, _) = Interp::new(&p)
        .with_native()
        .run_report(&inputs)
        .expect("declined run still succeeds");
    let walked = eval_tree_walk(&p, &inputs).expect("tree-walk run");
    assert_eq!(native, walked);
    // The decline is checked before any compiler is invoked, so the typed
    // key is recorded with or without a system compiler present.
    assert!(
        native_fallback_reasons().contains_key("bucket_collect"),
        "{:?}",
        native_fallback_reasons()
    );
}

/// The four libm functions the native tier lowers (`sqrt`, `fabs`,
/// `floor`, `ceil`), and float adds and multiplies of their results, over
/// the inputs where libm and Rust could part ways:
/// signed zeros, NaNs of both signs, infinities, negatives (`sqrt`'s
/// domain error), halves and values past 2^52. Every output must match the
/// batched tier and the tree-walker bit for bit, and the loop must really
/// run native, not decline.
#[test]
fn native_libm_ops_are_bit_identical() {
    let _guard = serial();
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Partitioned);
    let roots = st.map(&x, |st, e: &Val| {
        let r = st.math(MathFn::Sqrt, e);
        let a = st.math(MathFn::Abs, e);
        st.add(&r, &a)
    });
    let floors = st.map(&x, |st, e: &Val| st.math(MathFn::Floor, e));
    let ceils = st.map(&x, |st, e: &Val| st.math(MathFn::Ceil, e));
    // At -NaN both operands are NaNs of opposite sign: GCC commutes the
    // sum and the product, so these catch an unpinned NaN order.
    let products = st.map(&x, |st, e: &Val| {
        let r = st.math(MathFn::Sqrt, e);
        let a = st.math(MathFn::Abs, e);
        st.mul(&r, &a)
    });
    let out = st.tuple(&[&roots, &floors, &ceils, &products]);
    let p = st.finish(&out);

    let edges = [
        -1.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.5,
        4_503_599_627_370_495.5, // 2^52 - 0.5: the largest double with a fraction
        4_503_599_627_370_497.0, // past 2^52: every double is an integer
        1e300,
    ];
    // Repeated past one batched block so the loops take the kernel path.
    let data: Vec<f64> = edges.iter().copied().cycle().take(3000).collect();
    let inputs = [("x", Value::f64_arr(data.clone()))];

    let before = tier_totals();
    let (native, _) = Interp::new(&p)
        .with_native()
        .run_report(&inputs)
        .expect("native-enabled run");
    let after = tier_totals();
    if have_compiler() {
        assert!(
            after.native_loops > before.native_loops,
            "native tier never ran; fallbacks: {:?}",
            native_fallback_reasons()
        );
        assert_eq!(
            after.native_fallbacks,
            before.native_fallbacks,
            "libm kernels must not decline: {:?}",
            native_fallback_reasons()
        );
    }

    let (batched, _) = Interp::new(&p).run_report(&inputs).expect("batched run");
    let walked = eval_tree_walk(&p, &inputs).expect("tree-walk run");
    let columns = |v: &Value| -> Vec<Vec<f64>> {
        let Value::Tuple(cols) = v else {
            panic!("tuple result expected: {v:?}")
        };
        cols.iter().map(|c| c.to_f64_vec().expect("f64 column")).collect()
    };
    let native = columns(&native);
    assert_eq!(native.len(), 4);
    for (tier, other) in [("batched", columns(&batched)), ("tree-walker", columns(&walked))] {
        for (col, (n, o)) in ["sqrt+fabs", "floor", "ceil", "sqrt*fabs"].iter().zip(native.iter().zip(&other)) {
            assert_eq!(n.len(), data.len(), "{col}");
            for ((x, a), b) in data.iter().zip(n).zip(o) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{col}({x:e}): native {:016x} vs {tier} {:016x}",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
    }
}
