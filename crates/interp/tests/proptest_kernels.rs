//! Differential property tests for the compiled kernel tier: for every
//! generator kind, the bytecode kernels must produce outputs bit-identical
//! to the tree-walking reference — sequentially, in the parallel executor,
//! and under injected chunk failures with subrange re-execution.

use dmll_core::{LayoutHint, MathFn, Ty};
use dmll_frontend::{Stage, Val};
use dmll_interp::{
    eval_parallel_report, eval_tree_walk, tier_totals, ChunkFaults, Interp, ParallelOptions, Value,
};
use proptest::prelude::*;

/// Run on both tiers sequentially, demand bit-identical values, and demand
/// that the compiled tier actually compiled at least one loop (otherwise
/// the test silently compares the walker with itself).
fn assert_tiers_identical(
    p: &dmll_core::Program,
    inputs: &[(&str, Value)],
) -> Result<(), TestCaseError> {
    let (compiled, report) = Interp::new(p)
        .run_report(inputs)
        .expect("compiled tier run");
    prop_assert!(
        report.compiled_loops >= 1,
        "no loop compiled: {report:?}"
    );
    let walked = eval_tree_walk(p, inputs).expect("tree-walk run");
    prop_assert_eq!(compiled, walked);
    Ok(())
}

/// Run on all three tiers sequentially — batched kernel, scalar bytecode
/// kernel, tree-walker — and demand bit-identical values. Also demand that
/// the batched tier actually ran block-at-a-time: the global batched
/// counters must have grown across the run (they are monotonic, so this is
/// sound even with other tests running concurrently in the same process).
fn assert_three_tiers_identical(
    p: &dmll_core::Program,
    inputs: &[(&str, Value)],
) -> Result<(), TestCaseError> {
    let before = tier_totals();
    let (batched, report) = Interp::new(p).run_report(inputs).expect("batched tier run");
    let after = tier_totals();
    prop_assert!(report.compiled_loops >= 1, "no loop compiled: {report:?}");
    prop_assert!(
        after.batched_loops > before.batched_loops,
        "no loop ran on the batched tier"
    );
    let (scalar, _) = Interp::new(p)
        .without_batched_tier()
        .run_report(inputs)
        .expect("scalar kernel tier run");
    let walked = eval_tree_walk(p, inputs).expect("tree-walk run");
    prop_assert_eq!(&batched, &scalar, "batched vs scalar bytecode");
    prop_assert_eq!(batched, walked, "batched vs tree-walker");
    Ok(())
}

/// `(stride, offset)` applied to `e % m` to shape a bucket key: dense and
/// small; negative; strided so the key span exceeds the stitch's
/// `4 x total + 1024` density bound (pairwise fallback) with keys on both
/// sides of zero and of the batch tier's `DENSE_KEY_CAP` (2^20); dense but
/// entirely above that cap.
const KEY_SHAPES: [(i64, i64); 4] = [(1, 0), (1, -5), (1_000_003, -2_000_006), (1, (1 << 20) + 3)];

fn shaped_key(st: &mut Stage, e: &Val, modulus: i64, (stride, offset): (i64, i64)) -> Val {
    let m = st.lit_i(modulus);
    let r = st.rem(e, &m);
    let s = st.lit_i(stride);
    let scaled = st.mul(&r, &s);
    let o = st.lit_i(offset);
    st.add(&scaled, &o)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Collect with a condition (filter + arithmetic map) over i64.
    #[test]
    fn collect_matches_tree_walk(
        data in prop::collection::vec(-1000i64..1000, 0..200),
        modulus in 1i64..7,
    ) {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let n = st.len(&x);
        let x2 = x.clone();
        let kept = st.collect_if(
            &n,
            |st, i| {
                let xi = st.read(&x, i);
                let m = st.lit_i(modulus);
                let r = st.rem(&xi, &m);
                let zero = st.lit_i(0);
                st.ne(&r, &zero)
            },
            move |st, i| {
                let xi = st.read(&x2, i);
                st.mul(&xi, &xi)
            },
        );
        let p = st.finish(&kept);
        assert_tiers_identical(&p, &[("x", Value::i64_arr(data))])?;
    }

    /// Reduce over f64 with math functions in the value block — float
    /// results must match bit-for-bit because both tiers reduce in the
    /// same sequential order.
    #[test]
    fn reduce_matches_tree_walk(
        data in prop::collection::vec(-100i64..100, 0..200),
    ) {
        let floats: Vec<f64> = data.iter().map(|v| *v as f64 / 7.0).collect();
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Partitioned);
        let n = st.len(&x);
        let zero = st.lit_f(0.0);
        let s = st.reduce(
            &n,
            |st, i| {
                let xi = st.read(&x, i);
                let sq = st.mul(&xi, &xi);
                let e = st.math(MathFn::Sqrt, &sq);
                st.add(&e, &xi)
            },
            |st, a, b| st.add(a, b),
            Some(&zero),
        );
        let p = st.finish(&s);
        assert_tiers_identical(&p, &[("x", Value::f64_arr(floats))])?;
    }

    /// BucketCollect (group_by): first-seen key order and per-bucket
    /// element order must survive compilation.
    #[test]
    fn bucket_collect_matches_tree_walk(
        data in prop::collection::vec(0i64..5000, 0..250),
        modulus in 1i64..11,
    ) {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let g = st.group_by(&x, |st, e| {
            let m = st.lit_i(modulus);
            st.rem(e, &m)
        });
        let keys = st.bucket_keys(&g);
        let vals = st.bucket_values(&g);
        let pair = st.tuple(&[&keys, &vals]);
        let p = st.finish(&pair);
        assert_tiers_identical(&p, &[("x", Value::i64_arr(data))])?;
    }

    /// BucketReduce (group_by_reduce) with a conditional element filter.
    #[test]
    fn bucket_reduce_matches_tree_walk(
        data in prop::collection::vec(-500i64..500, 0..250),
        modulus in 1i64..9,
    ) {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let n = st.len(&x);
        let izero = st.lit_i(0);
        let x1 = x.clone();
        let x2 = x.clone();
        let sums = st.bucket_reduce(
            &n,
            move |st, i| {
                let xi = st.read(&x1, i);
                let m = st.lit_i(modulus);
                st.rem(&xi, &m)
            },
            move |st, i| st.read(&x2, i),
            |st, a, b| st.add(a, b),
            Some(&izero),
        );
        let keys = st.bucket_keys(&sums);
        let vals = st.bucket_values(&sums);
        let pair = st.tuple(&[&keys, &vals]);
        let p = st.finish(&pair);
        assert_tiers_identical(&p, &[("x", Value::i64_arr(data))])?;
    }

    /// The parallel executor on the compiled tier matches the tree-walking
    /// tier under injected chunk failures and re-execution, for a program
    /// mixing all four generator kinds across its loops.
    #[test]
    fn parallel_kernels_survive_chunk_faults(
        data in prop::collection::vec(0i64..2000, 20..300),
        threads in 2usize..6,
        fail_a in 0usize..4,
        fail_b in 0usize..4,
        panicking in any::<bool>(),
    ) {
        let build = || {
            let mut st = Stage::new();
            let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
            let doubled = st.map(&x, |st, e| st.add(e, e));
            let total = st.sum(&doubled);
            let m = st.lit_i(5);
            let zero = st.lit_i(0);
            let counts = st.group_by_reduce(
                &x,
                move |st, e| st.rem(e, &m),
                |st, _e| st.lit_i(1),
                |st, a, b| st.add(a, b),
                Some(&zero),
            );
            let groups = st.group_by(&x, |st, e| {
                let m = st.lit_i(3);
                st.rem(e, &m)
            });
            let ckeys = st.bucket_keys(&counts);
            let cvals = st.bucket_values(&counts);
            let gkeys = st.bucket_keys(&groups);
            let out = st.tuple(&[&total, &ckeys, &cvals, &gkeys]);
            st.finish(&out)
        };
        let p = build();
        let inputs = [("x", Value::i64_arr(data))];

        let mut faults = ChunkFaults::fail_once([fail_a, fail_b]);
        if panicking {
            faults = faults.panicking();
        }
        let opts = ParallelOptions::new(threads).with_faults(faults.clone());
        let (with_kernels, report) = eval_parallel_report(&p, &inputs, &opts).unwrap();
        prop_assert!(
            report.compiled_loops >= 1,
            "no loop compiled in parallel run: {report:?}"
        );

        let tw_opts = ParallelOptions::new(threads)
            .tree_walk_only()
            .with_faults(faults);
        let (tree_walk, tw_report) = eval_parallel_report(&p, &inputs, &tw_opts).unwrap();
        prop_assert_eq!(tw_report.compiled_loops, 0);
        prop_assert_eq!(&with_kernels, &tree_walk);

        // And both match the plain sequential reference.
        let seq = eval_tree_walk(&p, &inputs).unwrap();
        prop_assert_eq!(with_kernels, seq);
    }

    /// Fault recovery on the compiled tier is bit-identical to a fault-free
    /// compiled run (chunk re-execution runs the very same kernel).
    #[test]
    fn kernel_chunk_recovery_is_bit_identical(
        data in prop::collection::vec(-300i64..300, 30..400),
        threads in 2usize..6,
        failed in prop::collection::vec(0usize..6, 0..3),
    ) {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let f = st.map(&x, |st, e| {
            let ef = st.i2f(e);
            let c = st.lit_f(3.0);
            st.div(&ef, &c)
        });
        let s = st.sum(&f);
        let pair = st.tuple(&[&f, &s]);
        let p = st.finish(&pair);
        let inputs = [("x", Value::i64_arr(data))];

        let clean_opts = ParallelOptions::new(threads);
        let (clean, _) = eval_parallel_report(&p, &inputs, &clean_opts).unwrap();

        let fault_opts = ParallelOptions::new(threads)
            .with_faults(ChunkFaults::fail_once(failed.iter().copied()));
        let (recovered, report) = eval_parallel_report(&p, &inputs, &fault_opts).unwrap();
        prop_assert!(report.compiled_loops >= 1, "{report:?}");
        prop_assert_eq!(clean, recovered);
    }
}

// Differential tests for the batched executor: sizes span multiple
// 1024-wide blocks plus a scalar tail, selection vectors cover the
// all-true / all-false / mixed cases, and every generator kind is pinned
// batched == scalar bytecode == tree-walker. Fewer cases than above —
// each one traverses a few thousand elements.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conditioned Collect across full blocks and a tail. `mode` drives the
    /// selection vector: 0 keeps nothing, 1 keeps everything, 2 is mixed.
    #[test]
    fn batched_collect_selection_vectors(
        data in prop::collection::vec(-1000i64..1000, 800..2600),
        mode in 0i64..3,
    ) {
        let threshold = match mode {
            0 => -1001, // no element is below: all-false selection vectors
            1 => 1001,  // every element is below: all-true selection vectors
            _ => 0,     // mixed
        };
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let n = st.len(&x);
        let x2 = x.clone();
        let kept = st.collect_if(
            &n,
            move |st, i| {
                let xi = st.read(&x, i);
                let t = st.lit_i(threshold);
                st.lt(&xi, &t)
            },
            move |st, i| {
                let xi = st.read(&x2, i);
                let three = st.lit_i(3);
                st.mul(&xi, &three)
            },
        );
        let p = st.finish(&kept);
        assert_three_tiers_identical(&p, &[("x", Value::i64_arr(data))])?;
    }

    /// Float Reduce spanning block boundaries: the batched fold must keep
    /// the exact sequential lane order, so sums match bit-for-bit even
    /// with a partial tail block.
    #[test]
    fn batched_reduce_tail_blocks(
        data in prop::collection::vec(-400i64..400, 2048..2200),
    ) {
        let floats: Vec<f64> = data.iter().map(|v| *v as f64 / 3.0).collect();
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Partitioned);
        let n = st.len(&x);
        let zero = st.lit_f(0.0);
        let s = st.reduce(
            &n,
            |st, i| {
                let xi = st.read(&x, i);
                let sq = st.mul(&xi, &xi);
                st.math(MathFn::Sqrt, &sq)
            },
            |st, a, b| st.add(a, b),
            Some(&zero),
        );
        let p = st.finish(&s);
        assert_three_tiers_identical(&p, &[("x", Value::f64_arr(floats))])?;
    }

    /// BucketCollect over multiple blocks: first-seen key order must
    /// survive blockwise accumulation and the dense key directory.
    #[test]
    fn batched_bucket_collect_blocks(
        data in prop::collection::vec(0i64..6000, 900..2400),
        modulus in 1i64..13,
    ) {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let g = st.group_by(&x, |st, e| {
            let m = st.lit_i(modulus);
            st.rem(e, &m)
        });
        let keys = st.bucket_keys(&g);
        let vals = st.bucket_values(&g);
        let pair = st.tuple(&[&keys, &vals]);
        let p = st.finish(&pair);
        assert_three_tiers_identical(&p, &[("x", Value::i64_arr(data))])?;
    }

    /// Conditioned BucketReduce over multiple blocks with a float
    /// accumulator: per-bucket fold order must match the scalar tiers.
    #[test]
    fn batched_bucket_reduce_blocks(
        data in prop::collection::vec(-900i64..900, 900..2400),
        modulus in 1i64..9,
    ) {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let n = st.len(&x);
        let fzero = st.lit_f(0.0);
        let x0 = x.clone();
        let x1 = x.clone();
        let x2 = x.clone();
        let sums = st.bucket_reduce_if(
            &n,
            Some(move |st: &mut Stage, i: &Val| {
                let xi = st.read(&x0, i);
                let zero = st.lit_i(0);
                st.ge(&xi, &zero)
            }),
            move |st, i| {
                let xi = st.read(&x1, i);
                let m = st.lit_i(modulus);
                st.rem(&xi, &m)
            },
            move |st, i| {
                let xi = st.read(&x2, i);
                let f = st.i2f(&xi);
                let c = st.lit_f(7.0);
                st.div(&f, &c)
            },
            |st, a, b| st.add(a, b),
            Some(&fzero),
        );
        let keys = st.bucket_keys(&sums);
        let vals = st.bucket_values(&sums);
        let pair = st.tuple(&[&keys, &vals]);
        let p = st.finish(&pair);
        assert_three_tiers_identical(&p, &[("x", Value::i64_arr(data))])?;
    }

    /// The work-stealing executor with injected chunk faults: the batched
    /// parallel run must match the scalar-kernel parallel run and the
    /// sequential tree-walker bit-for-bit, because recovery re-executes
    /// stolen blocks with the very same kernel and mode.
    #[test]
    fn batched_parallel_stealing_survives_faults(
        data in prop::collection::vec(0i64..3000, 1500..4000),
        threads in 2usize..6,
        fail_a in 0usize..6,
        fail_b in 0usize..6,
        panicking in any::<bool>(),
    ) {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let doubled = st.map(&x, |st, e| st.add(e, e));
        let total = st.sum(&doubled);
        let m = st.lit_i(7);
        let zero = st.lit_i(0);
        let counts = st.group_by_reduce(
            &x,
            move |st, e| st.rem(e, &m),
            |st, _e| st.lit_i(1),
            |st, a, b| st.add(a, b),
            Some(&zero),
        );
        let ckeys = st.bucket_keys(&counts);
        let cvals = st.bucket_values(&counts);
        let out = st.tuple(&[&total, &ckeys, &cvals]);
        let p = st.finish(&out);
        let inputs = [("x", Value::i64_arr(data))];

        let mut faults = ChunkFaults::fail_once([fail_a, fail_b]);
        if panicking {
            faults = faults.panicking();
        }

        let opts = ParallelOptions::new(threads).with_faults(faults.clone());
        let (batched, report) = eval_parallel_report(&p, &inputs, &opts).unwrap();
        prop_assert!(report.compiled_loops >= 1, "{report:?}");
        prop_assert!(report.batched_loops >= 1, "no batched loop: {report:?}");

        let scalar_opts = ParallelOptions::new(threads)
            .scalar_kernel_only()
            .with_faults(faults);
        let (scalar, scalar_report) = eval_parallel_report(&p, &inputs, &scalar_opts).unwrap();
        prop_assert_eq!(scalar_report.batched_loops, 0);
        prop_assert_eq!(&batched, &scalar, "batched vs scalar bytecode (parallel)");

        let seq = eval_tree_walk(&p, &inputs).unwrap();
        prop_assert_eq!(batched, seq, "batched (parallel) vs sequential tree-walker");
    }
}

// Differential tests for the sharded (locality-aware) data plane: the
// plan-driven region-aware configuration must stay bit-identical to the
// locality-blind executor and to the tree-walking tier over the same
// chunked executor, for every generator kind, including under injected
// chunk faults. Exact-associative (all-integer) programs additionally
// exercise the region-granular task path.
proptest! {
    // 4 key shapes x 5 thread counts to cover, this test only.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All four generator kinds in one program, float and int outputs,
    /// random region counts and chunk faults: sharded == blind == chunked
    /// tree-walker, bit-for-bit, from one thread (tasks on the caller) up.
    /// Both planes join task accumulators through the same stitch, so the
    /// key shapes walk its branches: the dense slot table (with a negative
    /// and a `>= DENSE_KEY_CAP` base), the sparse pairwise fallback, the
    /// native int and float reducers, a block reducer, and BucketCollect.
    /// The float and block reducers keep their loops on blind task
    /// granularity, so this pins the merge and region-aware stealing; the
    /// regrouped integer loops are exact.
    #[test]
    fn sharded_plane_matches_blind_and_treewalk(
        data in prop::collection::vec(0i64..3000, 1500..4000),
        threads in 1usize..6,
        regions in 1usize..5,
        key_shape in 0usize..KEY_SHAPES.len(),
        fail_a in 0usize..6,
        fail_b in 0usize..6,
        panicking in any::<bool>(),
    ) {
        let shape = KEY_SHAPES[key_shape];
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let third = |st: &mut Stage, e: &Val| {
            let ef = st.i2f(e);
            let c = st.lit_f(3.0);
            st.div(&ef, &c)
        };
        let scaled = st.map(&x, third);
        let total = st.sum(&scaled);
        let zero = st.lit_i(0);
        let counts = st.group_by_reduce(
            &x,
            |st, e| shaped_key(st, e, 7, shape),
            |st, _e| st.lit_i(1),
            |st, a, b| st.add(a, b),
            Some(&zero),
        );
        let fsums = st.group_by_reduce(
            &x,
            |st, e| shaped_key(st, e, 5, shape),
            third,
            |st, a, b| st.add(a, b),
            None,
        );
        // Two instructions, so not a recognized native reducer: merges
        // run the reducer block, and the fold is order-sensitive.
        let mixed = st.group_by_reduce(
            &x,
            |st, e| shaped_key(st, e, 4, shape),
            |_st, e| e.clone(),
            |st, a, b| {
                let s = st.add(a, b);
                let m = st.lit_i(1_000_003);
                st.rem(&s, &m)
            },
            None,
        );
        let groups = st.group_by(&x, |st, e| shaped_key(st, e, 3, shape));
        let outs: Vec<Val> = [&counts, &fsums, &mixed, &groups]
            .into_iter()
            .flat_map(|b| [st.bucket_keys(b), st.bucket_values(b)])
            .collect();
        let mut fields = vec![&total];
        fields.extend(&outs);
        let out = st.tuple(&fields);
        let mut p = st.finish(&out);

        let plan = std::sync::Arc::new(dmll_analysis::export_plan(&dmll_analysis::analyze(&mut p)));
        let inputs = [("x", Value::i64_arr(data))];
        let mut faults = ChunkFaults::fail_once([fail_a, fail_b]);
        if panicking {
            faults = faults.panicking();
        }

        let blind_opts = ParallelOptions::new(threads).with_faults(faults.clone());
        let (blind, _) = eval_parallel_report(&p, &inputs, &blind_opts).unwrap();

        let sharded_opts = ParallelOptions::new(threads)
            .with_regions(regions)
            .with_plan(plan)
            .with_faults(faults.clone());
        let (sharded, report) = eval_parallel_report(&p, &inputs, &sharded_opts).unwrap();
        prop_assert!(report.sharded_loops >= 1, "never ran sharded: {report:?}");
        prop_assert_eq!(&sharded, &blind, "sharded vs blind");

        let walk_opts = ParallelOptions::new(threads)
            .tree_walk_only()
            .with_faults(faults);
        let (walked, _) = eval_parallel_report(&p, &inputs, &walk_opts).unwrap();
        prop_assert_eq!(sharded, walked, "sharded vs chunked tree-walker");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All-integer program (every reduce is a recognized wrapping int op):
    /// the sharded plane regroups the loop onto region-granular tasks, and
    /// the output must still match the blind path and the *sequential*
    /// tree-walker exactly — integer regrouping is bit-exact.
    #[test]
    fn sharded_region_tasks_are_exact(
        data in prop::collection::vec(-2000i64..2000, 1500..5000),
        threads in 2usize..6,
        regions in 2usize..5,
        fail_a in 0usize..4,
        panicking in any::<bool>(),
    ) {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let doubled = st.map(&x, |st, e| st.add(e, e));
        let total = st.sum(&doubled);
        let m = st.lit_i(11);
        let zero = st.lit_i(0);
        let maxes = st.group_by_reduce(
            &x,
            move |st, e| st.rem(e, &m),
            |_st, e| e.clone(),
            |st, a, b| st.max(a, b),
            Some(&zero),
        );
        let mkeys = st.bucket_keys(&maxes);
        let mvals = st.bucket_values(&maxes);
        let out = st.tuple(&[&total, &mkeys, &mvals]);
        let mut p = st.finish(&out);

        let plan = std::sync::Arc::new(dmll_analysis::export_plan(&dmll_analysis::analyze(&mut p)));
        let inputs = [("x", Value::i64_arr(data))];
        let mut faults = ChunkFaults::fail_once([fail_a]);
        if panicking {
            faults = faults.panicking();
        }

        let blind_opts = ParallelOptions::new(threads).with_faults(faults.clone());
        let (blind, _) = eval_parallel_report(&p, &inputs, &blind_opts).unwrap();

        let sharded_opts = ParallelOptions::new(threads)
            .with_regions(regions)
            .with_plan(plan)
            .with_faults(faults);
        let (sharded, report) = eval_parallel_report(&p, &inputs, &sharded_opts).unwrap();
        prop_assert!(report.sharded_loops >= 1, "never ran sharded: {report:?}");
        prop_assert_eq!(&sharded, &blind, "sharded (region tasks) vs blind");

        let seq = eval_tree_walk(&p, &inputs).unwrap();
        prop_assert_eq!(sharded, seq, "sharded (region tasks) vs sequential");
    }
}

// Differential tests for virtual vector columns: generators of all four
// kinds whose element is a nested-`Collect` vector — the shape
// Column-to-Row Reduce produces. The batched tier keeps such vectors as
// `T x BLOCK` slabs and folds lifted reducers in place; everything it does
// must equal the scalar bytecode loop and the tree-walker, values and
// errors alike.

/// Vector lengths: empty (seals `Boxed`), one, odd, and the apps' 16 with
/// its neighbour.
const VEC_TRIPS: [i64; 5] = [0, 1, 3, 16, 17];

/// `trap` holds this many zeros; a planted fault reads past them.
const TRAP_LEN: i64 = 4;

/// One random vector-valued program, decoded from small integers (the
/// stand-in proptest has no richer strategies).
#[derive(Clone, Copy, Debug)]
struct VecCase {
    t: i64,
    /// 0 = i64 (wrapping), 1 = f64, 2 = bool.
    elem: usize,
    /// 0 = Collect, 1 = Reduce, 2 = BucketCollect, 3 = BucketReduce.
    kind: usize,
    /// 0 = unconditional, 1 = mixed selection vector, 2 = all-false.
    cond: usize,
    /// 0 = `zip_with` lift (`collect(len(a))`), 1 = Column-to-Row's lift
    /// (`collect(t)`), 2 = not element-wise (reads `b` back to front), 3 =
    /// the lift over one element fewer (`collect(t - 1)`, hoisted).
    red: usize,
    /// 0 = none, 1 = `t` elements, 2 = two more, 3 = one fewer.
    init: usize,
    /// Follow the vector with a second one that reads it at a computed
    /// index and takes its `len`.
    post: bool,
    key_shape: usize,
    /// Two planted out-of-bounds reads: every lane `>= .0` faults at nested
    /// iteration `.1`. The walker raises the first in (lane, iteration)
    /// order; its index encodes which one that was.
    faults: [(i64, i64); 2],
}

/// `(t, elem, kind)` indices for [`VecCase::decode`].
const VEC_CASE_DIMS: (std::ops::Range<usize>, std::ops::Range<usize>, std::ops::Range<usize>) =
    (0..5, 0..4, 0..6);

impl VecCase {
    /// Biased toward what the new paths are for: reducers over float
    /// vectors on unconditioned (full-block) lanes.
    fn decode(
        (t, elem, kind): (usize, usize, usize),
        (cond, red, init, post, key_shape): (usize, usize, usize, bool, usize),
        faulty: bool,
        at: (usize, usize, usize, usize),
        n: usize,
    ) -> VecCase {
        let never = (i64::MAX, 0);
        VecCase {
            t: VEC_TRIPS[t],
            elem: [0, 1, 1, 2][elem],
            kind: [0, 1, 1, 2, 3, 3][kind],
            cond: [0, 0, 1, 2][cond],
            red,
            init: [0, 1, 2, 2, 3][init],
            post,
            key_shape,
            faults: if faulty {
                [((at.0 % n) as i64, at.1 as i64), ((at.2 % n) as i64, at.3 as i64)]
            } else {
                [never, never]
            },
        }
    }

    fn elem_ty(&self) -> Ty {
        [Ty::I64, Ty::F64, Ty::Bool][self.elem].clone()
    }

    /// Element `j` of lane `i`'s vector, from `x(i)`, `j` and the (zero)
    /// value the fault probe read.
    fn element(&self, st: &mut Stage, xi: &Val, j: &Val, probe: &Val) -> Val {
        let a = st.add(xi, j);
        let s = st.add(&a, probe);
        match self.elem {
            0 => {
                let big = st.lit_i(i64::MAX / 3);
                st.mul(&s, &big)
            }
            1 => {
                let f = st.i2f(&s);
                let c = st.lit_f(3.0);
                st.div(&f, &c)
            }
            _ => {
                let two = st.lit_i(2);
                let r = st.rem(&s, &two);
                let zero = st.lit_i(0);
                st.eq(&r, &zero)
            }
        }
    }

    /// The scalar combine reducers lift (and `post` reuses).
    fn combine(&self, st: &mut Stage, a: &Val, b: &Val) -> Val {
        match self.elem {
            0 if self.red == 1 => st.mul(a, b),
            0 | 1 => st.add(a, b),
            _ => st.and(a, b),
        }
    }

    fn vector(&self, st: &mut Stage, x: &Val, t: &Val, trap: &Val, i: &Val) -> Val {
        let xi = st.read(x, i);
        let v = st.collect(t, |st, j| {
            let mut hit = st.lit_b(false);
            for (lane, it) in self.faults {
                let (lane, it) = (st.lit_i(lane), st.lit_i(it));
                let past = st.ge(i, &lane);
                let now = st.eq(j, &it);
                let both = st.and(&past, &now);
                hit = st.or(&hit, &both);
            }
            let width = st.lit_i(64);
            let row = st.mul(i, &width);
            let cell = st.add(&row, j);
            let base = st.lit_i(TRAP_LEN);
            let beyond = st.add(&cell, &base);
            let zero = st.lit_i(0);
            let at = st.mux(&hit, &beyond, &zero);
            let probe = st.read(trap, &at);
            self.element(st, &xi, j, &probe)
        });
        if !self.post {
            return v;
        }
        st.collect(t, |st, j| {
            let one = st.lit_i(1);
            let last = st.sub(t, &one);
            let back = st.sub(&last, j);
            let (a, b) = (st.read(&v, j), st.read(&v, &back));
            let c = self.combine(st, &a, &b);
            let l = st.len(&v);
            match self.elem {
                0 => st.add(&c, &l),
                1 => {
                    let lf = st.i2f(&l);
                    st.sub(&c, &lf)
                }
                _ => {
                    let same = st.eq(&l, t);
                    st.and(&c, &same)
                }
            }
        })
    }

    fn reducer(&self, st: &mut Stage, t: &Val, a: &Val, b: &Val) -> Val {
        match self.red {
            0 => st.zip_with(a, b, |st, x, y| self.combine(st, x, y)),
            1 | 3 => {
                let size = if self.red == 1 {
                    t.clone()
                } else {
                    let one = st.lit_i(1);
                    let zero = st.lit_i(0);
                    let fewer = st.sub(t, &one);
                    st.max(&fewer, &zero)
                };
                st.collect(&size, |st, j| {
                    let (x, y) = (st.read(a, j), st.read(b, j));
                    self.combine(st, &x, &y)
                })
            }
            _ => {
                let n = st.len(a);
                st.collect(&n, |st, j| {
                    let lb = st.len(b);
                    let one = st.lit_i(1);
                    let last = st.sub(&lb, &one);
                    let back = st.sub(&last, j);
                    let (x, y) = (st.read(a, j), st.read(b, &back));
                    self.combine(st, &x, &y)
                })
            }
        }
    }

    fn program(&self) -> dmll_core::Program {
        type Cond<'a> = Option<Box<dyn FnOnce(&mut Stage, &Val) -> Val + 'a>>;
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let t = st.input("t", Ty::I64, LayoutHint::Local);
        let trap = st.input("trap", Ty::arr(Ty::I64), LayoutHint::Local);
        let init = (self.init != 0).then(|| st.input("init", Ty::arr(self.elem_ty()), LayoutHint::Local));
        let n = st.len(&x);
        let modulus = if self.cond == 1 { 3 } else { 1 };
        let cond: Cond = match self.cond {
            0 => None,
            _ => Some(Box::new(|st: &mut Stage, i: &Val| {
                let xi = st.read(&x, i);
                let m = st.lit_i(modulus);
                let r = st.rem(&xi, &m);
                let zero = st.lit_i(0);
                st.ne(&r, &zero)
            })),
        };
        let key = |st: &mut Stage, i: &Val| {
            let xi = st.read(&x, i);
            shaped_key(st, &xi, 5, KEY_SHAPES[self.key_shape])
        };
        let value = |st: &mut Stage, i: &Val| self.vector(st, &x, &t, &trap, i);
        let reducer = |st: &mut Stage, a: &Val, b: &Val| self.reducer(st, &t, a, b);
        let out = match self.kind {
            0 => match cond {
                Some(c) => st.collect_if(&n, c, value),
                None => st.collect(&n, value),
            },
            1 => st.reduce_if(&n, cond, value, reducer, init.as_ref()),
            kind => {
                let b = if kind == 2 {
                    st.bucket_collect(&n, key, value)
                } else {
                    st.bucket_reduce_if(&n, cond, key, value, reducer, init.as_ref())
                };
                let (keys, vals) = (st.bucket_keys(&b), st.bucket_values(&b));
                st.tuple(&[&keys, &vals])
            }
        };
        st.finish(&out)
    }

    fn inputs(&self, data: Vec<i64>) -> Vec<(&'static str, Value)> {
        let mut inputs = vec![
            ("x", Value::i64_arr(data)),
            ("t", Value::I64(self.t)),
            ("trap", Value::i64_arr(vec![0; TRAP_LEN as usize])),
        ];
        if self.init != 0 {
            let len = (self.t + [0, 0, 2, -1][self.init]).max(0) as usize;
            let at = |k: usize| k as i64 * 7 - 3;
            inputs.push((
                "init",
                match self.elem {
                    0 => Value::i64_arr((0..len).map(at).collect()),
                    1 => Value::f64_arr((0..len).map(|k| at(k) as f64 / 8.0).collect()),
                    _ => Value::bool_arr((0..len).map(|k| k % 3 != 1).collect()),
                },
            ));
        }
        inputs
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sequentially: the batched tier (fused and as written), the scalar
    /// bytecode loop and the tree-walker agree on the value or on the
    /// error, and a run that succeeds as written ran its one loop batched.
    /// Half the ranges are cut to whole blocks: a scalar tail re-runs the
    /// reducer block over every accumulator and would mask a wrong fold.
    #[test]
    fn batched_vector_generators_match_scalar_and_walker(
        mut data in prop::collection::vec(-50i64..50, 900..2600),
        whole_blocks in any::<bool>(),
        dims in VEC_CASE_DIMS,
        mods in (0usize..4, 0usize..4, 0usize..5, any::<bool>(), 0usize..KEY_SHAPES.len()),
        faulty in any::<bool>(),
        at in (0usize..4000, 0usize..17, 0usize..4000, 0usize..17),
    ) {
        if whole_blocks && data.len() >= 1024 {
            data.truncate(data.len() / 1024 * 1024);
        }
        let case = VecCase::decode(dims, mods, faulty, at, data.len());
        let p = case.program();
        let inputs = case.inputs(data);
        let walked = eval_tree_walk(&p, &inputs);
        let scalar = Interp::new(&p).without_batched_tier().run(&inputs);
        prop_assert_eq!(&scalar, &walked, "scalar bytecode vs tree-walker: {:?}", case);
        let fused = Interp::new(&p).run(&inputs);
        prop_assert_eq!(&fused, &walked, "batched (fused) vs tree-walker: {:?}", case);
        let unfused = Interp::new(&p).without_fusion().run_report(&inputs);
        if let Ok((_, report)) = &unfused {
            prop_assert_eq!(
                (report.compiled_loops, report.batched_loops),
                (1, 1),
                "the vector loop left the batched tier: {:?}",
                case
            );
        }
        prop_assert_eq!(unfused.map(|(v, _)| v), walked, "batched vs tree-walker: {:?}", case);
    }

    /// Through the work-stealing executor at one to four threads with
    /// injected chunk faults: batched, scalar-kernel and tree-walking tasks
    /// agree on the value or on the error.
    #[test]
    fn batched_vector_generators_survive_chunk_faults(
        data in prop::collection::vec(-50i64..50, 1500..4000),
        dims in VEC_CASE_DIMS,
        mods in (0usize..4, 0usize..4, 0usize..5, any::<bool>(), 0usize..KEY_SHAPES.len()),
        faulty in any::<bool>(),
        at in (0usize..4000, 0usize..17, 0usize..4000, 0usize..17),
        threads in 1usize..5,
        fail_a in 0usize..6,
        fail_b in 0usize..6,
        panicking in any::<bool>(),
    ) {
        let case = VecCase::decode(dims, mods, faulty, at, data.len());
        let p = case.program();
        let inputs = case.inputs(data);
        let mut faults = ChunkFaults::fail_once([fail_a, fail_b]);
        if panicking {
            faults = faults.panicking();
        }
        let opts = ParallelOptions::new(threads).with_faults(faults);
        let batched = eval_parallel_report(&p, &inputs, &opts);
        if let Ok((_, report)) = &batched {
            prop_assert!(report.batched_loops >= 1, "no batched loop: {:?} {:?}", report, case);
        }
        let batched = batched.map(|(v, _)| v);
        let scalar = eval_parallel_report(&p, &inputs, &opts.clone().scalar_kernel_only());
        prop_assert_eq!(&batched, &scalar.map(|(v, _)| v), "batched vs scalar bytecode: {:?}", case);
        let walked = eval_parallel_report(&p, &inputs, &opts.tree_walk_only());
        prop_assert_eq!(batched, walked.map(|(v, _)| v), "batched vs tree-walker: {:?}", case);
    }
}

/// A vector longer than the slab bound declines *that run* to the scalar
/// loop with its own typed reason (no `T x BLOCK` allocation); at the bound
/// the same program batches.
#[test]
fn over_wide_vectors_decline_to_the_scalar_loop() {
    let never = (i64::MAX, 0);
    let mut case = VecCase {
        t: 256,
        elem: 1,
        kind: 1,
        cond: 0,
        red: 1,
        init: 1,
        post: false,
        key_shape: 0,
        faults: [never, never],
    };
    let p = case.program();
    let data: Vec<i64> = (0..1100).map(|i| i * 7 % 23 - 11).collect();
    let too_wide = |case: &VecCase| {
        let reasons = dmll_interp::batch_reject_reasons();
        let before = reasons.get(&dmll_interp::BatchIneligible::VectorTooWide).copied();
        let inputs = case.inputs(data.clone());
        let (got, report) = Interp::new(&p).without_fusion().run_report(&inputs).unwrap();
        assert_eq!(got, eval_tree_walk(&p, &inputs).unwrap(), "t = {}", case.t);
        let reasons = dmll_interp::batch_reject_reasons();
        let after = reasons.get(&dmll_interp::BatchIneligible::VectorTooWide).copied();
        (report, after.unwrap_or(0) - before.unwrap_or(0))
    };
    let (at_bound, declines) = too_wide(&case);
    assert_eq!((at_bound.compiled_loops, at_bound.batched_loops, declines), (1, 1, 0));
    case.t = 257;
    let (beyond, declines) = too_wide(&case);
    assert_eq!((beyond.compiled_loops, beyond.batched_loops), (1, 0));
    assert!(declines >= 1, "the decline is counted under vector_too_wide");
}

/// Integer-keyed argmin rides the divide-and-conquer certificate onto
/// region-granular tasks: selection by a total-ordered `i64` key is
/// associative (consistent tie-break), so the sharded plane may use one
/// task per region — observable as at most `regions` tasks — while
/// staying bit-identical to the blind decomposition and the walker.
#[test]
fn argmin_by_int_key_runs_on_region_tasks() {
    let n = 100_000usize;
    let data: Vec<i64> = (0..n as i64).map(|i| (i * 2_654_435_761) % 10_007).collect();

    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let len = st.len(&x);
    let best = st.reduce(
        &len,
        |st, i| {
            let key = st.read(&x, i);
            st.tuple(&[&key, i])
        },
        |st, a, b| {
            let ka = st.tuple_get(a, 0);
            let kb = st.tuple_get(b, 0);
            let c = st.lt(&ka, &kb);
            st.mux(&c, a, b)
        },
        None,
    );
    let p = st.finish(&best);

    let inputs = [("x", Value::i64_arr(data))];
    let seq = eval_tree_walk(&p, &inputs).unwrap();

    let (threads, regions) = (4, 2);
    let blind_opts = ParallelOptions::new(threads);
    let (blind, _) = eval_parallel_report(&p, &inputs, &blind_opts).unwrap();

    let plan = std::sync::Arc::new(dmll_analysis::export_plan(&dmll_analysis::analyze(
        &mut p.clone(),
    )));
    let sharded_opts = ParallelOptions::new(threads)
        .with_regions(regions)
        .with_plan(plan);
    let (sharded, report) = eval_parallel_report(&p, &inputs, &sharded_opts).unwrap();

    assert!(report.sharded_loops >= 1, "never ran sharded: {report:?}");
    assert!(
        report.region_local_tasks + report.cross_region_steals <= regions,
        "expected region-granular tasks (<= {regions}), got {} local + {} stolen",
        report.region_local_tasks,
        report.cross_region_steals
    );
    assert_eq!(sharded, blind, "region tasks vs blind decomposition");
    assert_eq!(sharded, seq, "region tasks vs sequential walker");
}

/// Exact multiple of the block width: no scalar tail at all.
#[test]
fn batched_exact_block_multiple() {
    run_pinned_size(2048);
}

/// One block plus an odd tail: the scalar-tail path must splice in
/// seamlessly after the last full block.
#[test]
fn batched_odd_tail() {
    run_pinned_size(2048 + 37);
}

fn run_pinned_size(size: i64) {
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Partitioned);
    let n = st.len(&x);
    let zero = st.lit_f(0.0);
    let x2 = x.clone();
    let scaled = st.collect(&n, move |st, i| {
        let xi = st.read(&x, i);
        let c = st.lit_f(1.5);
        st.mul(&xi, &c)
    });
    let s = st.reduce(
        &n,
        move |st, i| st.read(&x2, i),
        |st, a, b| st.add(a, b),
        Some(&zero),
    );
    let pair = st.tuple(&[&scaled, &s]);
    let p = st.finish(&pair);
    let data: Vec<f64> = (0..size).map(|i| (i as f64) / 11.0 - 90.0).collect();
    let inputs = [("x", Value::f64_arr(data))];

    let before = tier_totals();
    let (batched, report) = Interp::new(&p).run_report(&inputs).unwrap();
    let after = tier_totals();
    assert!(report.compiled_loops >= 1, "{report:?}");
    assert!(after.batched_loops > before.batched_loops, "batched tier never ran");
    if size % 2048 == 37 {
        assert!(
            after.tail_elements > before.tail_elements,
            "odd size must exercise the scalar tail"
        );
    }
    let (scalar, _) = Interp::new(&p)
        .without_batched_tier()
        .run_report(&inputs)
        .unwrap();
    let walked = eval_tree_walk(&p, &inputs).unwrap();
    assert_eq!(batched, scalar);
    assert_eq!(batched, walked);
}

/// Mux requires identical branch types; keep a non-proptest regression for
/// the compiled Mux instruction since random generators above don't emit it.
#[test]
fn mux_compiles_and_matches() {
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let cap = st.lit_i(100);
    let capped = st.map(&x, |st, e: &Val| {
        let over = st.gt(e, &cap);
        st.mux(&over, &cap, e)
    });
    let p = st.finish(&capped);
    let inputs = [("x", Value::i64_arr((0..500).map(|i| i * 7 % 231).collect()))];
    let (compiled, report) = Interp::new(&p).run_report(&inputs).unwrap();
    assert!(report.compiled_loops >= 1, "{report:?}");
    let walked = eval_tree_walk(&p, &inputs).unwrap();
    assert_eq!(compiled, walked);
}

