//! The loops Column-to-Row Reduce produces — a generator whose element is a
//! whole vector — run on the batched tier: LogReg's reduce of gradient rows
//! and k-means' bucket-reduce of row vectors, bit-identical to the
//! tree-walker, with the run's own report saying which tier ran.

use dmll::apps::util::matrix_value;
use dmll::interp::{eval_parallel_report, eval_tree_walk, Interp, ParallelOptions, Value};
use dmll::ir::Program;
use dmll::transform::{pipeline, Target};

const ROWS: usize = 2_500;
const COLS: usize = 16;

/// Staged and optimized the way production (and the benchmark) does it; the
/// executors apply the runtime fusion recipe, Column-to-Row included.
fn staged(mut p: Program) -> Program {
    pipeline::optimize_unfused(&mut p, Target::Cpu);
    p
}

/// Every compiled loop of these programs batches except the one that reads
/// buckets (k-means' 8-row centroid average), so a vector-valued loop left
/// on the scalar tier shows as one more compiled loop that did not batch.
fn assert_vector_loops_batched(name: &str, compiled: u64, batched: u64, treewalk: u64) {
    let bucket_readers = u64::from(name == "kmeans");
    assert_eq!(treewalk, 0, "{name}: a loop fell back to the tree-walker");
    assert_eq!(
        (compiled, batched),
        (3, 3 - bucket_readers),
        "{name}: (compiled, batched) top-level loops"
    );
}

type Case = (&'static str, Program, Vec<(&'static str, Value)>);

fn cases() -> Vec<Case> {
    let (x, y) = dmll::data::matrix::labeled_binary(ROWS, COLS, 2);
    let (m, cents, _) = dmll::data::matrix::gaussian_clusters(ROWS, COLS, 8, 0.5, 1);
    vec![
        (
            "logreg",
            staged(dmll::apps::logreg::stage_logreg(0.1)),
            vec![
                ("x", matrix_value(&x)),
                ("y", Value::f64_arr(y)),
                ("theta", Value::f64_arr(vec![0.0; COLS])),
            ],
        ),
        (
            "kmeans",
            staged(dmll::apps::kmeans::stage_kmeans(8)),
            vec![("matrix", matrix_value(&m)), ("clusters", matrix_value(&cents))],
        ),
    ]
}

#[test]
fn vector_valued_loops_run_batched_sequentially() {
    for (name, p, inputs) in cases() {
        let want = eval_tree_walk(&p, &inputs).unwrap();
        let (got, r) = Interp::new(&p).run_report(&inputs).unwrap();
        assert_eq!(got, want, "{name}: batched vs tree-walker");
        assert_vector_loops_batched(name, r.compiled_loops, r.batched_loops, r.treewalk_loops);
        let (scalar, scalar_report) = Interp::new(&p)
            .without_batched_tier()
            .run_report(&inputs)
            .unwrap();
        assert_eq!(scalar_report.batched_loops, 0, "{name}");
        assert_eq!(scalar, want, "{name}: scalar bytecode vs tree-walker");
    }
}

#[test]
fn vector_valued_loops_run_batched_on_two_threads() {
    for (name, p, inputs) in cases() {
        // Chunk merges reassociate float reductions, so the reference is
        // the same two-thread task plan on the tree-walking tier.
        let (want, _) =
            eval_parallel_report(&p, &inputs, &ParallelOptions::new(2).tree_walk_only()).unwrap();
        let (got, r) = eval_parallel_report(&p, &inputs, &ParallelOptions::new(2)).unwrap();
        assert_eq!(got, want, "{name}: batched vs chunked tree-walker");
        assert_vector_loops_batched(
            name,
            r.compiled_loops as u64,
            r.batched_loops as u64,
            r.treewalk_loops as u64,
        );
        let (_, scalar) =
            eval_parallel_report(&p, &inputs, &ParallelOptions::new(2).scalar_kernel_only())
                .unwrap();
        assert_eq!(scalar.batched_loops, 0, "{name}");
    }
}
