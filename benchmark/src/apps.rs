//! The seven application programs the batch workloads run: seeded data,
//! staging, the production optimizer recipe, the hand-optimized baseline
//! each is timed against, and the independent reference each output is
//! checked against.
//!
//! Sizes and seeds are pinned here and nowhere else, so edits to the older
//! bench files cannot move this benchmark. The program under test receives
//! only the generated inputs; `--seed` offsets every generator seed.

use crate::trace::{SpanId, Tracer};
use dmll_apps::util::{close, matrix_value, rows_to_matrix};
use dmll_baselines::handopt;
use dmll_core::printer::print_program;
use dmll_core::Program;
use dmll_data::gene::ReadColumns;
use dmll_data::graph::CsrGraph;
use dmll_data::matrix::DenseMatrix;
use dmll_data::tpch::LineItemColumns;
use dmll_data::FactorGraph;
use dmll_interp::{Externs, Value};
use dmll_transform::{pipeline, Target};
use std::hint::black_box;

/// App names, in the order every per-app metric family lists them.
pub const APP_NAMES: [&str; 7] = [
    "kmeans",
    "logreg",
    "gene",
    "pagerank",
    "q1",
    "gibbs",
    "triangles",
];

/// The five apps whose top-level loops are flat (the parallel and cluster
/// planes key their plans to these).
pub const FLAT_APPS: [&str; 5] = ["kmeans", "logreg", "gene", "pagerank", "q1"];

/// Relative tolerance for float comparisons against the hand-optimized
/// results (they sum in a different order); integers compare exactly.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

const KMEANS_COLS: usize = 16;
const KMEANS_K: usize = 8;
const LOGREG_COLS: usize = 16;
const LOGREG_ALPHA: f64 = 0.01;
const GENE_BARCODES: usize = 1024;
const PAGERANK_DAMPING: f64 = 0.85;
const GIBBS_SEED: u64 = 9;

/// Input sizes of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub kmeans_rows: usize,
    pub logreg_rows: usize,
    pub gene_reads: usize,
    /// RMAT scale of the PageRank graph (edge factor 8).
    pub pagerank_scale: u32,
    pub q1_rows: usize,
    pub gibbs_vars: usize,
    /// RMAT (scale, edge factor) of the symmetrized triangle graph.
    pub triangles: (u32, usize),
}

impl Sizes {
    /// The sizes every timed number is measured at.
    pub const FULL: Sizes = Sizes {
        kmeans_rows: 30_000,
        logreg_rows: 100_000,
        gene_reads: 400_000,
        pagerank_scale: 15,
        q1_rows: 300_000,
        gibbs_vars: 20_000,
        triangles: (12, 4),
    };

    /// The reference-check size: small enough to tree-walk every program.
    pub const SMOKE: Sizes = Sizes {
        kmeans_rows: 3_000,
        logreg_rows: 10_000,
        gene_reads: 40_000,
        pagerank_scale: 12,
        q1_rows: 30_000,
        gibbs_vars: 2_000,
        triangles: (10, 2),
    };
}

/// The generated dataset in the form the hand-optimized baseline reads.
enum Data {
    Kmeans {
        x: DenseMatrix,
        cents: DenseMatrix,
    },
    Logreg {
        x: DenseMatrix,
        y: Vec<f64>,
        theta: Vec<f64>,
    },
    Gene {
        cols: ReadColumns,
    },
    Pagerank {
        g: CsrGraph,
        rev: CsrGraph,
        ranks: Vec<f64>,
    },
    Q1 {
        cols: LineItemColumns,
    },
    Gibbs {
        fg: FactorGraph,
        asg: Vec<i8>,
    },
    Triangles {
        g: CsrGraph,
    },
}

/// One staged, optimized program with its inputs and raw data.
pub struct App {
    pub name: &'static str,
    /// Staged then `optimize_unfused(.., Target::Cpu)`, as production does;
    /// the interpreter's hook fuses at run time.
    pub program: Program,
    pub inputs: Vec<(String, Value)>,
    pub externs: Externs,
    data: Data,
}

/// Stage with `stage`, then run the unfused CPU recipe, one span each.
fn staged(
    name: &'static str,
    stage: impl FnOnce() -> Program,
    tracer: &mut Tracer,
    op: u64,
    parent: SpanId,
) -> Program {
    let span = tracer.open("frontend.stage", name, op, Some(parent));
    let mut p = stage();
    // Printing the IR is measurement, not set-up: only the traced run pays.
    let staged_lines = tracer.enabled().then(|| ir_lines(&p));
    tracer.close_with(
        span,
        staged_lines.map(|n| ("ir_lines", n)).into_iter().collect(),
    );
    let span = tracer.open("transform.optimize_unfused", name, op, Some(parent));
    pipeline::optimize_unfused(&mut p, Target::Cpu);
    tracer.close(span);
    p
}

/// Lines of the printed IR: the size of the intermediate representation.
pub fn ir_lines(p: &Program) -> u64 {
    print_program(p).lines().count() as u64
}

fn owned(inputs: Vec<(&'static str, Value)>) -> Vec<(String, Value)> {
    inputs
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect()
}

impl App {
    /// Generate `name`'s data from `seed` (an offset on the pinned
    /// generator seeds 1, 2, 3, 7, 11, 5), stage and optimize it.
    pub fn build(
        name: &'static str,
        sizes: &Sizes,
        seed: u64,
        tracer: &mut Tracer,
        op: u64,
        parent: SpanId,
    ) -> App {
        let span = tracer.open("data.gen", name, op, Some(parent));
        let (data, inputs, externs) = match name {
            "kmeans" => {
                let (x, cents, _) = dmll_data::matrix::gaussian_clusters(
                    sizes.kmeans_rows,
                    KMEANS_COLS,
                    KMEANS_K,
                    0.5,
                    seed.wrapping_add(1),
                );
                let inputs = owned(vec![
                    ("matrix", matrix_value(&x)),
                    ("clusters", matrix_value(&cents)),
                ]);
                (Data::Kmeans { x, cents }, inputs, Externs::default())
            }
            "logreg" => {
                let (x, y) = dmll_data::matrix::labeled_binary(
                    sizes.logreg_rows,
                    LOGREG_COLS,
                    seed.wrapping_add(2),
                );
                let theta = vec![0.0; LOGREG_COLS];
                let inputs = owned(vec![
                    ("x", matrix_value(&x)),
                    ("y", Value::f64_arr(y.clone())),
                    ("theta", Value::f64_arr(theta.clone())),
                ]);
                (Data::Logreg { x, y, theta }, inputs, Externs::default())
            }
            "gene" => {
                let (cols, inputs) = gene_dataset(sizes.gene_reads, seed);
                (Data::Gene { cols }, inputs, Externs::default())
            }
            "pagerank" => {
                let g = dmll_data::graph::rmat(sizes.pagerank_scale, 8, seed.wrapping_add(7));
                let n = g.num_vertices();
                let ranks = vec![1.0 / n as f64; n];
                let inputs = owned(dmll_apps::pagerank::inputs_push(&g, &ranks));
                let rev = g.reversed();
                (Data::Pagerank { g, rev, ranks }, inputs, Externs::default())
            }
            "q1" => {
                let cols = dmll_data::tpch::to_columns(&dmll_data::tpch::gen_lineitems(
                    sizes.q1_rows,
                    seed.wrapping_add(11),
                ));
                // Inputs depend on the optimized program's (SoA) signature.
                (Data::Q1 { cols }, Vec::new(), Externs::default())
            }
            "gibbs" => {
                let fg =
                    dmll_data::factor::gen_factor_graph(sizes.gibbs_vars, 4, seed.wrapping_add(5));
                let asg = vec![1i8; sizes.gibbs_vars];
                let inputs = owned(dmll_apps::gibbs::inputs_for(&fg, &asg, GIBBS_SEED, 0));
                (Data::Gibbs { fg, asg }, inputs, dmll_apps::gibbs::externs())
            }
            "triangles" => {
                let (scale, edge_factor) = sizes.triangles;
                let g =
                    dmll_data::graph::rmat(scale, edge_factor, seed.wrapping_add(5)).symmetrized();
                let inputs = owned(dmll_apps::triangles::inputs_for(&g));
                (Data::Triangles { g }, inputs, Externs::default())
            }
            other => panic!("unknown app {other}"),
        };
        tracer.close(span);

        let program = match name {
            "kmeans" => staged(
                name,
                || dmll_apps::kmeans::stage_kmeans(KMEANS_K as i64),
                tracer,
                op,
                parent,
            ),
            "logreg" => staged(
                name,
                || dmll_apps::logreg::stage_logreg(LOGREG_ALPHA),
                tracer,
                op,
                parent,
            ),
            "gene" => staged(name, dmll_apps::gene::stage_gene, tracer, op, parent),
            "pagerank" => staged(
                name,
                || dmll_apps::pagerank::stage_pagerank_push(PAGERANK_DAMPING),
                tracer,
                op,
                parent,
            ),
            "q1" => staged(name, dmll_apps::q1::stage_q1, tracer, op, parent),
            "gibbs" => staged(
                name,
                dmll_apps::gibbs::stage_gibbs_sweep,
                tracer,
                op,
                parent,
            ),
            _ => staged(
                name,
                dmll_apps::triangles::stage_triangles,
                tracer,
                op,
                parent,
            ),
        };
        let inputs = match &data {
            Data::Q1 { cols } => {
                let span = tracer.open("data.gen", name, op, Some(parent));
                let inputs = dmll_apps::q1::inputs_for(&program, cols);
                tracer.close(span);
                inputs
            }
            _ => inputs,
        };
        App {
            name,
            program,
            inputs,
            externs,
            data,
        }
    }

    /// Inputs in the borrowed form the executors take (Arc bumps).
    pub fn borrowed(&self) -> Vec<(&str, Value)> {
        self.inputs
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect()
    }

    /// Run the hand-optimized implementation once on the same data — the
    /// denominator of `handopt_x`.
    pub fn run_handopt(&self) {
        match &self.data {
            Data::Kmeans { x, cents } => {
                black_box(handopt::kmeans_iter(black_box(x), cents));
            }
            Data::Logreg { x, y, theta } => {
                black_box(handopt::logreg_iter(black_box(x), y, theta, LOGREG_ALPHA));
            }
            Data::Gene { cols } => {
                black_box(handopt::gene_barcode_stats(
                    black_box(&cols.barcode),
                    &cols.quality,
                    GENE_BARCODES,
                ));
            }
            Data::Pagerank { g, rev, ranks } => {
                black_box(handopt::pagerank_iter(
                    black_box(g),
                    rev,
                    ranks,
                    PAGERANK_DAMPING,
                ));
            }
            Data::Q1 { cols } => {
                black_box(handopt::q1(black_box(cols)));
            }
            Data::Gibbs { fg, asg } => {
                let mut asg = asg.clone();
                handopt::gibbs_sweep(black_box(fg), &mut asg, 0, GIBBS_SEED);
                black_box(asg);
            }
            Data::Triangles { g } => {
                black_box(handopt::triangles(black_box(g)));
            }
        }
    }

    /// Check a program output against the hand-optimized result on the
    /// same data: integers exactly, floats within [`FLOAT_TOLERANCE`].
    /// (The staged Gibbs sweep is synchronous, so its reference is the
    /// plain-Rust Jacobi sweep with the same coin flips; the sequential
    /// hand-optimized sweep is its timing baseline only.)
    pub fn check_output(&self, out: &Value) -> Result<(), String> {
        let tuple = |n: usize| match out {
            Value::Tuple(parts) if parts.len() == n => Ok(parts),
            other => Err(format!("{}: expected a {n}-tuple, got {other}", self.name)),
        };
        let f64s = |v: &Value| {
            v.to_f64_vec()
                .ok_or_else(|| format!("{}: expected floats", self.name))
        };
        let i64s = |v: &Value| {
            v.to_i64_vec()
                .ok_or_else(|| format!("{}: expected integers", self.name))
        };
        let ensure = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{}: {what} differs from the reference", self.name))
            }
        };
        match &self.data {
            Data::Kmeans { x, cents } => {
                let parts = tuple(2)?;
                let (want_c, want_a) = handopt::kmeans_iter(x, cents);
                ensure(i64s(&parts[1])? == want_a, "assignment")?;
                let got_c = rows_to_matrix(&parts[0]);
                ensure(
                    close(&got_c.data, &want_c.data, FLOAT_TOLERANCE),
                    "centroids",
                )
            }
            Data::Logreg { x, y, theta } => {
                let want = handopt::logreg_iter(x, y, theta, LOGREG_ALPHA);
                ensure(close(&f64s(out)?, &want, FLOAT_TOLERANCE), "theta")
            }
            Data::Gene { cols } => check_gene(self.name, out, cols),
            Data::Pagerank { g, rev, ranks } => {
                let want = handopt::pagerank_iter(g, rev, ranks, PAGERANK_DAMPING);
                ensure(close(&f64s(out)?, &want, FLOAT_TOLERANCE), "ranks")
            }
            Data::Q1 { cols } => {
                let parts = tuple(6)?;
                let keys = i64s(&parts[0])?;
                let mut order: Vec<usize> = (0..keys.len()).collect();
                order.sort_by_key(|i| keys[*i]);
                let want = handopt::q1(cols);
                ensure(order.len() == want.len(), "group count")?;
                let sums: Vec<Vec<f64>> =
                    parts[1..5].iter().map(&f64s).collect::<Result<_, _>>()?;
                let counts = i64s(&parts[5])?;
                for (row, w) in order.iter().zip(&want) {
                    ensure(keys[*row] == w.return_flag * 2 + w.line_status, "group key")?;
                    ensure(counts[*row] == w.count, "count")?;
                    let got = [sums[0][*row], sums[1][*row], sums[2][*row], sums[3][*row]];
                    let want = [w.sum_qty, w.sum_base_price, w.sum_disc_price, w.sum_charge];
                    ensure(close(&got, &want, FLOAT_TOLERANCE), "aggregates")?;
                }
                Ok(())
            }
            Data::Gibbs { fg, asg } => {
                let want = dmll_apps::gibbs::jacobi_reference(fg, asg, GIBBS_SEED, 0);
                let got = i64s(out)?;
                ensure(
                    got.len() == want.len()
                        && got.iter().zip(&want).all(|(g, w)| *g == i64::from(*w)),
                    "assignment",
                )
            }
            Data::Triangles { g } => ensure(
                out.as_i64() == Some(handopt::triangles(g) as i64),
                "triangle count",
            ),
        }
    }
}

/// Seeded gene reads as columns plus the program's input bindings (also
/// the service workload's published dataset).
pub fn gene_dataset(reads: usize, seed: u64) -> (ReadColumns, Vec<(String, Value)>) {
    let cols = dmll_data::gene::to_columns(&dmll_data::gene::gen_reads(
        reads,
        GENE_BARCODES,
        64,
        seed.wrapping_add(3),
    ));
    let inputs = owned(vec![
        ("barcode", Value::i64_arr(cols.barcode.clone())),
        ("quality", Value::i64_arr(cols.quality.clone())),
    ]);
    (cols, inputs)
}

/// Time one hand-optimized gene pass over `cols`.
pub fn gene_handopt(cols: &ReadColumns) {
    black_box(handopt::gene_barcode_stats(
        black_box(&cols.barcode),
        &cols.quality,
        GENE_BARCODES,
    ));
}

/// Gene output (first-seen barcode order) against the dense hand-optimized
/// table: counts exactly, mean quality within tolerance.
pub fn check_gene(name: &str, out: &Value, cols: &ReadColumns) -> Result<(), String> {
    let fail = |what: &str| Err(format!("{name}: {what} differs from the reference"));
    let Value::Tuple(parts) = out else {
        return fail("output shape");
    };
    let (Some(keys), Some(counts), Some(means)) = (
        parts.first().and_then(Value::to_i64_vec),
        parts.get(1).and_then(Value::to_i64_vec),
        parts.get(2).and_then(Value::to_f64_vec),
    ) else {
        return fail("output shape");
    };
    let (want_counts, want_means) =
        handopt::gene_barcode_stats(&cols.barcode, &cols.quality, GENE_BARCODES);
    if keys.len() != want_counts.iter().filter(|c| **c > 0).count() {
        return fail("barcode count");
    }
    for (i, key) in keys.iter().enumerate() {
        let slot = *key as usize;
        if counts[i] != want_counts[slot] {
            return fail("read count");
        }
        if !close(&[means[i]], &[want_means[slot]], FLOAT_TOLERANCE) {
            return fail("mean quality");
        }
    }
    Ok(())
}
