//! The `service-mix` workload: one `QueryService` (1 worker, 1 query
//! thread) and one submitter keeping 2 queries in flight — a closed loop
//! of 2 clients, so a slower service receives less load. 90% of the seeded
//! mix is light (three 3-row programs, microseconds each) and 10% medium
//! (Gene over a published 40 000-read dataset, about a millisecond).
//!
//! It uses the interpreter the opposite way from the scan workloads: the
//! cost is per run — interpreter construction, input binding, kernel-cache
//! lookup, queue hand-off — not per element, so work added to every run
//! shows here and nowhere else. The medium class makes the tail a compute
//! time rather than scheduler jitter.
//!
//! Queries overlap, so `tier_totals()` deltas are taken over whole phases
//! rather than per op.

use crate::apps::{check_gene, gene_dataset, gene_handopt, ir_lines};
use crate::exec::{add_counts, tier_delta, Counts};
use crate::layers::{
    count_metrics, recipe_metrics, setup_metrics, spread_x, time_handopt, time_recipe,
};
use crate::stats::{geomean, median, quantile, Summary};
use crate::trace::SpanId;
use crate::{peak_rss_mb, Ctx, Metrics};
use dmll_core::{LayoutHint, Program, Ty};
use dmll_data::gene::ReadColumns;
use dmll_frontend::Stage;
use dmll_interp::{eval_tree_walk, tier_totals, TierTotals, Value};
use dmll_service::{
    DegradePolicy, QueryOutcome, QueryRequest, QueryService, ServiceBuilder, ServiceConfig,
    TenantId, TenantPolicy,
};
use dmll_transform::{pipeline, Target};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Query classes, in the order every per-class vector lists them.
const CLASSES: [&str; 4] = ["squares", "shift", "sum", "gene"];
const GENE: usize = 3;
const LIGHT_ROWS: i64 = 3;
const MEDIUM_READS: usize = 40_000;
/// One query in this many is medium.
const MEDIUM_ONE_IN: u64 = 10;
/// Clients of the closed loop: queries kept in flight.
const IN_FLIGHT: usize = 2;
/// Set-up (and cold first-query) repetitions per run. A repetition takes
/// milliseconds, so the untraced run takes some before and some after its
/// timed loop: a brief stall cannot set the median of both.
const SETUP_REPS_BEFORE: usize = 3;
const SETUP_REPS_AFTER: usize = 4;
/// Queries of one counting pass.
const COUNT_QUERIES: u64 = 2_000;
/// Share of `--seconds` the traced run's alternating segments get.
const TRACED_WARM_SHARE: f64 = 0.6;
/// The hand-optimized Gene pass takes tens of microseconds; it is repeated
/// for this long so that a brief stall cannot set its median.
const HANDOPT_SECS: f64 = 0.5;

/// SplitMix64 finalizer: the seeded mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The class of the `index`-th query under `seed`: every block of
/// `MEDIUM_ONE_IN` queries holds exactly one medium query, at a seeded
/// position, so the mix's medium share does not drift with the seed.
fn class_of(seed: u64, index: u64) -> usize {
    let salted = seed.wrapping_mul(0x0100_0000_01B3);
    let (block, slot) = (index / MEDIUM_ONE_IN, index % MEDIUM_ONE_IN);
    if mix(salted ^ block.rotate_left(32)) % MEDIUM_ONE_IN == slot {
        GENE
    } else {
        (mix(salted.wrapping_add(index)) % 3) as usize
    }
}

/// The three light programs: distinct multiloops, exact over i64, so the
/// shared kernel cache holds several entries.
fn light_programs() -> [Program; 3] {
    let input = |st: &mut Stage| st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let mut st = Stage::new();
    let x = input(&mut st);
    let sq = st.map(&x, |st, e| st.mul(e, e));
    let total = st.sum(&sq);
    let squares = st.finish(&total);
    let mut st = Stage::new();
    let x = input(&mut st);
    let shifted = st.map(&x, |st, e| {
        let three = st.lit_i(3);
        st.add(e, &three)
    });
    let total = st.sum(&shifted);
    let shift = st.finish(&total);
    let mut st = Stage::new();
    let x = input(&mut st);
    let total = st.sum(&x);
    let sum = st.finish(&total);
    [squares, shift, sum]
}

/// A started service with its programs and data.
struct Live {
    svc: QueryService,
    tenant: TenantId,
    programs: Vec<Arc<Program>>,
    /// Bindings of each class's dataset, for the sequential reference.
    inputs: Vec<Vec<(String, Value)>>,
    cols: ReadColumns,
}

fn dataset_of(class: usize) -> &'static str {
    if class == GENE {
        "reads"
    } else {
        "light"
    }
}

/// Everything before the first query: stage and optimize the four
/// programs, generate the reads, start the service, publish the datasets.
fn setup(ctx: &mut Ctx, phase: SpanId) -> (Live, f64) {
    let op = ctx.next_op();
    let seed = ctx.args.seed;
    let tracer = &mut ctx.tracer;
    let parent = tracer.open("op", "setup", op, Some(phase));
    let t0 = Instant::now();

    let span = tracer.open("frontend.stage", "", op, Some(parent));
    let mut staged: Vec<Program> = light_programs().into();
    staged.push(dmll_apps::gene::stage_gene());
    let lines = tracer
        .enabled()
        .then(|| staged.iter().map(ir_lines).sum::<u64>());
    tracer.close_with(span, lines.map(|n| ("ir_lines", n)).into_iter().collect());
    let span = tracer.open("transform.optimize_unfused", "", op, Some(parent));
    for p in &mut staged {
        pipeline::optimize_unfused(p, Target::Cpu);
    }
    tracer.close(span);

    let span = tracer.open("data.gen", "", op, Some(parent));
    let (cols, reads) = gene_dataset(MEDIUM_READS, seed);
    let light = vec![(
        "x".to_string(),
        Value::i64_arr((0..LIGHT_ROWS).map(|i| i * 7 % 13).collect()),
    )];
    tracer.close(span);

    let span = tracer.open("service.start", "", op, Some(parent));
    // Limits generous enough that a closed loop of 2 is never refused or
    // degraded: the workload measures the service's fixed costs, not its
    // admission control.
    let never = Duration::from_secs(3600);
    let mut builder = ServiceBuilder::new(ServiceConfig {
        workers: 1,
        query_threads: 1,
        cost_budget: 1e12,
        degrade: DegradePolicy {
            enter_queue: 1 << 20,
            exit_queue: 1 << 19,
            enter_p99: never,
            exit_p99: never,
            dwell: never,
            window: 256,
            shed_floor: 0,
        },
    });
    let tenant = builder.tenant(
        "clients",
        TenantPolicy {
            priority: 1,
            deadline: Duration::from_secs(60),
            retry_budget: 16,
            rate_per_sec: 1e9,
            burst: 1e9,
            queue_cap: 64,
        },
    );
    let svc = builder.start();
    svc.publish_dataset("light", light.clone());
    svc.publish_dataset("reads", reads.clone());
    tracer.close(span);

    let secs = t0.elapsed().as_secs_f64();
    tracer.close(parent);
    let live = Live {
        svc,
        tenant,
        programs: staged.into_iter().map(Arc::new).collect(),
        inputs: vec![light.clone(), light.clone(), light, reads],
        cols,
    };
    (live, secs)
}

/// What a closed-loop phase measured.
#[derive(Default)]
struct LoopStats {
    /// Submission-to-outcome latency, per class, seconds.
    latency: [Vec<f64>; 4],
    /// `latency - queued_for`, per class.
    exec: [Vec<f64>; 4],
    queue_wait: Vec<f64>,
    completed: u64,
    wall: f64,
}

impl LoopStats {
    fn all_latencies(&self) -> Vec<f64> {
        self.latency.iter().flatten().copied().collect()
    }

    fn merge(&mut self, later: LoopStats) {
        for (mine, theirs) in self.latency.iter_mut().zip(later.latency) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.exec.iter_mut().zip(later.exec) {
            mine.extend(theirs);
        }
        self.queue_wait.extend(later.queue_wait);
        self.completed += later.completed;
        self.wall += later.wall;
    }

    /// Geomean over the four query programs of the median execution time.
    fn warm_s(&self) -> f64 {
        geomean(&self.exec.iter().map(|e| median(e)).collect::<Vec<_>>())
    }
}

/// When a closed-loop phase stops submitting.
enum Stop {
    After(Duration),
    Queries(u64),
}

/// The closed loop: keep `IN_FLIGHT` queries outstanding, submitting the
/// next when an outcome arrives, and check every outcome against the
/// sequential result of its program.
fn closed_loop(
    live: &Live,
    expected: &[Value],
    stop: Stop,
    ctx: &mut Ctx,
    phase: SpanId,
) -> LoopStats {
    let (tx, rx): (Sender<QueryOutcome>, Receiver<QueryOutcome>) = channel();
    let mut stats = LoopStats::default();
    // (query id, class, op, submit stamp) of the queries in flight.
    let mut in_flight: Vec<(u64, usize, u64, u64)> = Vec::with_capacity(IN_FLIGHT);
    let seed = ctx.args.seed;
    let t0 = Instant::now();
    let mut submitted = 0u64;
    let submit = |index: u64, ctx: &mut Ctx, in_flight: &mut Vec<(u64, usize, u64, u64)>| {
        let class = class_of(seed, index);
        let request =
            QueryRequest::new(Arc::clone(&live.programs[class])).with_dataset(dataset_of(class));
        let op = ctx.next_op();
        let stamp = ctx.tracer.now_ns();
        match live.svc.submit_with(live.tenant, request, tx.clone()) {
            Ok(id) => in_flight.push((id, class, op, stamp)),
            Err(e) => ctx.judge(CLASSES[class], Err(format!("refused: {e}"))),
        }
    };
    let more = |submitted: u64| match stop {
        Stop::After(d) => t0.elapsed() < d,
        Stop::Queries(n) => submitted < n,
    };
    for _ in 0..IN_FLIGHT {
        submit(submitted, ctx, &mut in_flight);
        submitted += 1;
    }
    while !in_flight.is_empty() {
        let Ok(out) = rx.recv_timeout(Duration::from_secs(60)) else {
            ctx.judge("service", Err("lost an admitted query".to_string()));
            break;
        };
        let at = in_flight
            .iter()
            .position(|(id, ..)| *id == out.id)
            .expect("outcome of a query in flight");
        let (_, class, op, stamp) = in_flight.swap_remove(at);
        let span = ctx.tracer.record(
            "service.submit",
            CLASSES[class],
            op,
            Some(phase),
            (stamp, stamp + out.latency.as_nanos() as u64),
        );
        ctx.tracer
            .derived_child(span, "service.queue_wait", out.queued_for.as_nanos() as u64);
        let verdict = match &out.result {
            Ok(value) if *value == expected[class] => Ok(()),
            Ok(_) => Err("differs from the sequential result".to_string()),
            Err(e) => Err(e.to_string()),
        };
        ctx.judge(CLASSES[class], verdict);
        let latency = out.latency.as_secs_f64();
        let queued = out.queued_for.as_secs_f64();
        stats.latency[class].push(latency);
        stats.exec[class].push((latency - queued).max(0.0));
        stats.queue_wait.push(queued);
        stats.completed += 1;
        if more(submitted) {
            submit(submitted, ctx, &mut in_flight);
            submitted += 1;
        }
    }
    stats.wall = t0.elapsed().as_secs_f64();
    stats
}

fn tier_counts(before: &TierTotals, after: &TierTotals) -> Counts {
    let mut counts = Counts::new();
    add_counts(&mut counts, &tier_delta(before, after));
    counts
}

fn print_class_rows(title: &str, stats: &LoopStats) {
    println!("{title}");
    println!(
        "  {:<8} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "class", "n", "p25_us", "median_us", "p75_us", "p99_us"
    );
    for (class, latency) in CLASSES.iter().zip(&stats.latency) {
        let s = Summary::of(latency);
        println!(
            "  {:<8} {:>7} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
            class,
            s.n,
            s.p25 * 1e6,
            s.p50 * 1e6,
            s.p75 * 1e6,
            quantile(latency, 0.99) * 1e6
        );
    }
}

/// Set-up and cold samples, one of each per fresh service.
#[derive(Default)]
struct FreshServices {
    setup_secs: Vec<f64>,
    /// Sum of the four programs' first-query latencies.
    cold_secs: Vec<f64>,
    /// Latency of the very first query.
    first_secs: Vec<f64>,
}

impl FreshServices {
    /// Set up a service and send it the first query of every program.
    fn start_one(&mut self, ctx: &mut Ctx, phase: SpanId) -> Live {
        let (live, secs) = setup(ctx, phase);
        self.setup_secs.push(secs);
        let mut cold = 0.0;
        for (class, program) in live.programs.iter().enumerate() {
            let request = QueryRequest::new(Arc::clone(program)).with_dataset(dataset_of(class));
            let verdict = live
                .svc
                .submit(live.tenant, request)
                .map_err(|e| e.to_string())
                .and_then(|rx| rx.recv().map_err(|e| e.to_string()))
                .and_then(|out| {
                    let secs = out.latency.as_secs_f64();
                    out.result.map(|_| secs).map_err(|e| e.to_string())
                });
            let secs = *verdict.as_ref().unwrap_or(&0.0);
            if class == 0 {
                self.first_secs.push(secs);
            }
            cold += secs;
            ctx.judge(&format!("{} cold", CLASSES[class]), verdict.map(|_| ()));
        }
        self.cold_secs.push(cold);
        live
    }
}

pub fn run(ctx: &mut Ctx) -> Metrics {
    let seconds = ctx.args.seconds;
    let traced = ctx.args.trace;
    let mut metrics = Metrics::new();

    // Set-up, repeated; each fresh service (private kernel cache) also
    // answers its first query of every program: the cold samples.
    let before_cold = tier_totals();
    let mut fresh = FreshServices::default();
    let (live, setup_spans) = ctx.phase("phase.setup", |ctx, ph| {
        let mut last: Option<Live> = None;
        for _ in 0..SETUP_REPS_BEFORE {
            if let Some(previous) = last.take() {
                previous.svc.shutdown();
            }
            last = Some(fresh.start_one(ctx, ph));
        }
        last.expect("at least one set-up")
    });
    let cold_counts = tier_counts(&before_cold, &tier_totals());
    // The sequential reference of every class: the tree-walker on the
    // program as staged for the service, and Gene against its
    // hand-optimized table.
    let expected: Vec<Value> = live
        .programs
        .iter()
        .zip(&live.inputs)
        .enumerate()
        .filter_map(|(class, (program, inputs))| {
            let borrowed: Vec<(&str, Value)> = inputs
                .iter()
                .map(|(n, v)| (n.as_str(), v.clone()))
                .collect();
            let walked = eval_tree_walk(program, &borrowed);
            ctx.judge(
                &format!("{} tree-walk reference", CLASSES[class]),
                walked.as_ref().map(|_| ()).map_err(|e| e.to_string()),
            );
            walked.ok()
        })
        .collect();
    if expected.len() < CLASSES.len() {
        live.svc.shutdown();
        return metrics;
    }
    ctx.judge(
        "gene vs handopt",
        check_gene("gene", &expected[GENE], &live.cols),
    );

    let hand = |ctx: &mut Ctx| {
        ctx.phase("phase.baselines", |ctx, ph| {
            time_handopt(
                "gene",
                || gene_handopt(&live.cols),
                1,
                HANDOPT_SECS,
                ctx,
                ph,
            )
        })
        .0
    };

    if !traced {
        let (warm, _) = ctx.phase("phase.warm", |ctx, ph| {
            closed_loop(
                &live,
                &expected,
                Stop::After(Duration::from_secs_f64(seconds)),
                ctx,
                ph,
            )
        });
        let rss = peak_rss_mb();
        let hand = hand(ctx);
        let snapshot = live.svc.shutdown();
        ctx.phase("phase.setup", |ctx, ph| {
            for _ in 0..SETUP_REPS_AFTER {
                fresh.start_one(ctx, ph).svc.shutdown();
            }
        });
        let setup = Summary::of(&fresh.setup_secs);
        let cold = Summary::of(&fresh.cold_secs);
        println!(
            "setup_s: n {} p25 {:.5} median {:.5} p75 {:.5}",
            setup.n, setup.p25, setup.p50, setup.p75
        );
        println!(
            "cold_s: n {} p25 {:.6} median {:.6} p75 {:.6} (fresh services; sum of the four programs' first queries)",
            cold.n, cold.p25, cold.p50, cold.p75
        );
        ctx.judge(
            "service accounted for every query",
            if snapshot.rejected() == 0 && snapshot.completed_error == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{} rejected, {} typed errors",
                    snapshot.rejected(),
                    snapshot.completed_error
                ))
            },
        );
        print_class_rows(
            &format!(
                "service-mix: closed loop, {IN_FLIGHT} clients, {} queries",
                warm.completed
            ),
            &warm,
        );
        let gene = median(&warm.exec[GENE]);
        println!(
            "handopt_x: gene exec median {:.1} us / handopt median {:.1} us (n {}) = {:.2}",
            gene * 1e6,
            hand.p50 * 1e6,
            hand.n,
            gene / hand.p50
        );
        metrics.insert("setup_s".into(), setup.p50);
        metrics.insert("cold_s".into(), cold.p50);
        metrics.insert("warm_s".into(), warm.warm_s());
        metrics.insert("handopt_x".into(), gene / hand.p50);
        metrics.insert("queries_per_s".into(), warm.completed as f64 / warm.wall);
        metrics.insert("peak_rss_mb".into(), rss);
        return metrics;
    }

    // Traced run: segments of the closed loop alternate untraced and
    // traced, so that drift over the run lands on both sides of
    // `bench.trace_overhead_x`; then the counting pass (a fixed prefix of
    // the seeded mix) twice.
    let budget = seconds * TRACED_WARM_SHARE;
    let before = tier_totals();
    let ((plain, warm), _) = ctx.phase("phase.warm", |ctx, ph| {
        let mut sides = [LoopStats::default(), LoopStats::default()];
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < budget {
            for (side, on) in sides.iter_mut().zip([false, true]) {
                ctx.tracer.set_enabled(on);
                side.merge(closed_loop(
                    &live,
                    &expected,
                    Stop::Queries(COUNT_QUERIES),
                    ctx,
                    ph,
                ));
            }
        }
        let [plain, warm] = sides;
        (plain, warm)
    });
    let both_counts = tier_counts(&before, &tier_totals());
    let counting = |ctx: &mut Ctx| {
        let tiers = tier_totals();
        let service = live.svc.metrics();
        ctx.phase("phase.count", |ctx, ph| {
            closed_loop(&live, &expected, Stop::Queries(COUNT_QUERIES), ctx, ph)
        });
        let mut counts = tier_counts(&tiers, &tier_totals());
        let after = live.svc.metrics();
        counts.insert("admitted", after.admitted - service.admitted);
        counts.insert("rejected", after.rejected() - service.rejected());
        counts
    };
    let counts_a = counting(ctx);
    let counts_b = counting(ctx);
    let hand = hand(ctx);

    let (_, recipe_spans) = ctx.phase("phase.recipe", |ctx, ph| {
        for (class, program) in live.programs.iter().enumerate() {
            time_recipe(program, CLASSES[class], false, ctx, ph);
        }
    });
    // Lookups are counted on the tenant's view of the shared cache.
    let cache = live.svc.tenant_stats()[live.tenant.0].cache;
    live.svc.shutdown();

    count_metrics(&counts_a, &counts_b, ctx, &mut metrics);
    let spans = ctx.tracer.spans();
    setup_metrics(&spans[setup_spans], SETUP_REPS_BEFORE, &mut metrics);
    recipe_metrics(&spans[recipe_spans], &mut metrics);
    // Kernel compiles of the set-up repetitions' first queries, per service.
    let reps = SETUP_REPS_BEFORE as f64;
    metrics.insert(
        "interp.kernel_compile_us".into(),
        cold_counts["compile_nanos"] as f64 / 1e3 / reps,
    );
    metrics.insert(
        "interp.kernels_compiled".into(),
        cold_counts["kernels_compiled"] as f64 / reps,
    );
    metrics.insert(
        "service.first_query_us".into(),
        median(&fresh.first_secs) * 1e6,
    );

    // Traced phase: service-side times from the outcomes, interpreter-side
    // from the phase's counter deltas, both per query.
    // (The counters are process-global and the segments alternate, so the
    // interpreter-side means are over both kinds of segment.)
    let queries = (plain.completed + warm.completed).max(1) as f64;
    let busy =
        (both_counts["compiled_nanos"] + both_counts["treewalk_nanos"]) as f64 / 1e9 / queries;
    let exec: Vec<f64> = warm.exec.iter().flatten().copied().collect();
    let mean_exec = plain.exec.iter().chain(&warm.exec).flatten().sum::<f64>() / queries;
    metrics.insert("interp.loop_busy_s".into(), busy);
    metrics.insert("interp.outside_loops_s".into(), (mean_exec - busy).max(0.0));
    if both_counts["batched_elements"] > 0 {
        metrics.insert(
            "interp.batched_ns_per_elem".into(),
            both_counts["batched_nanos"] as f64 / both_counts["batched_elements"] as f64,
        );
    }
    let light: Vec<f64> = warm.latency[..GENE].iter().flatten().copied().collect();
    metrics.insert("service.light_p50_us".into(), median(&light) * 1e6);
    metrics.insert(
        "service.medium_p50_us".into(),
        median(&warm.latency[GENE]) * 1e6,
    );
    metrics.insert(
        "service.queue_wait_p50_us".into(),
        median(&warm.queue_wait) * 1e6,
    );
    metrics.insert(
        "service.queue_wait_p99_us".into(),
        quantile(&warm.queue_wait, 0.99) * 1e6,
    );
    metrics.insert("service.exec_p50_us".into(), median(&exec) * 1e6);
    metrics.insert(
        "service.query_p99_us".into(),
        quantile(&warm.all_latencies(), 0.99) * 1e6,
    );
    metrics.insert(
        "service.cache_hit_rate".into(),
        cache.hit_rate().unwrap_or(0.0),
    );
    let gene = median(&warm.exec[GENE]);
    metrics.insert("interp.run_s.gene".into(), gene);
    metrics.insert("baselines.handopt_s.gene".into(), hand.p50);
    metrics.insert("baselines.handopt_x.gene".into(), gene / hand.p50);

    metrics.insert(
        "bench.trace_overhead_x".into(),
        warm.warm_s() / plain.warm_s(),
    );
    metrics.insert("bench.warm_spread_x".into(), spread_x(&plain.exec));
    print_class_rows(
        &format!(
            "service-mix: traced closed loop, {} queries (untraced baseline {})",
            warm.completed, plain.completed
        ),
        &warm,
    );
    metrics
}
