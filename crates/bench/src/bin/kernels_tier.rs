//! Measured execution-tier comparison: batched kernels vs scalar bytecode
//! vs the tree-walking interpreter on real data, emitting
//! `BENCH_kernels.json` (`BENCH_kernels.smoke.json` with `--smoke`).
//!
//! Usage: `kernels_tier [--smoke] [--threads N] [--regions R] [--no-fuse]
//! [--native] [--expect-no-compiler]`.
//! `--threads N` runs every tier through the work-stealing chunked
//! executor on `N` workers (default 1 = sequential). `--regions R`
//! additionally enables the sharded, locality-aware data plane: the
//! batched tier runs region-aware (plan-driven placement, same-region
//! stealing, one-pass stitch merge), and a blind-vs-sharded locality
//! comparison is measured and written to `BENCH_locality.json` (or
//! `BENCH_locality.smoke.json`).
//! `--no-fuse` pins the runtime fuse-then-compile hook off, so the
//! batched tier runs the loops exactly as staged (the unfused baseline
//! configuration). `--native` adds a phase on the native (compiled C)
//! tier: eligible kernels are lowered to C, compiled with the system C++
//! compiler, and `dlopen`ed; ineligible loops fall back to batched with a
//! typed, counted reason. `--expect-no-compiler` (with `--native`)
//! asserts the graceful-degradation path: no native compiles may happen
//! and every app must fall back to batched with a typed reason — CI runs
//! this with the compiler stripped from `PATH`. `--smoke` runs the small
//! CI size and exits nonzero if any app's tiers (fused, unfused, native)
//! disagree, if LogReg or k-means — the apps whose generators yield whole
//! vectors — record a `boxed_gen_result` decline or (sequentially) run
//! fewer full blocks than their row-long loops hold, or — with `--regions`
//! — if the sharded plane's output diverges or any stencil fallback is
//! unexplained. The nested-loop workloads (Gibbs, Triangles) are
//! additionally gated at every size: their variable-trip inner loops must
//! run segmented with zero fallbacks. Wall-clock ratios between tiers are
//! reported, not gated, at smoke size (they flaked on a 2-core box);
//! `BENCHMARK.json`'s bounds police timing.

use dmll_bench::{locality, render, tiers};

struct Args {
    smoke: bool,
    threads: usize,
    regions: usize,
    fuse: bool,
    native: bool,
    expect_no_compiler: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        smoke: false,
        threads: 1,
        regions: 0,
        fuse: true,
        native: false,
        expect_no_compiler: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => parsed.smoke = true,
            "--no-fuse" => parsed.fuse = false,
            "--native" => parsed.native = true,
            "--expect-no-compiler" => parsed.expect_no_compiler = true,
            "--threads" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a positive integer"));
                parsed.threads =
                    if n == 0 { usage("--threads needs a positive integer") } else { n };
            }
            "--regions" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--regions needs a positive integer"));
                parsed.regions =
                    if n == 0 { usage("--regions needs a positive integer") } else { n };
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if parsed.expect_no_compiler && !parsed.native {
        usage("--expect-no-compiler requires --native");
    }
    parsed
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: kernels_tier [--smoke] [--threads N] [--regions R] [--no-fuse] \
         [--native] [--expect-no-compiler]"
    );
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let scale = if args.smoke { 1 } else { 10 };
    let rows =
        tiers::tier_comparison_full(scale, args.threads, args.regions, args.fuse, args.native);
    print!("{}", render::kernels(&rows));

    let json = tiers::to_json(&rows);
    let path = dmll_bench::result_path("kernels", args.smoke);
    std::fs::write(&path, &json).expect("write kernels report");
    println!("\nwrote {path}");

    let mut failed = false;
    for r in &rows {
        if !r.identical {
            eprintln!("FAIL: {} tiers produced different results", r.app);
            failed = true;
        }
        if args.smoke {
            failed |= check_vector_loops(r, &args);
        }
        if args.native {
            failed |= check_native(r, &args);
        }
        // Nested-loop workloads: the variable-trip inner loops must run
        // through the segmented batch path end to end, with no scalar
        // fallbacks. The segmented-blocks gate is sequential-only: chunked
        // runs split the smoke-size outer loops below a full columnar
        // block (legitimately draining the scalar tail); the chaos nested
        // probe covers multi-threaded segmented execution on a
        // thread-scaled graph.
        if r.app == "Gibbs" || r.app == "Triangles" {
            if args.threads == 1 && r.stats.segmented_blocks == 0 {
                eprintln!("FAIL: {} never took the segmented batch path", r.app);
                failed = true;
            }
            if r.fallback_loops > 0 {
                eprintln!(
                    "FAIL: {} fell back to the tree-walker on {} loops",
                    r.app, r.fallback_loops
                );
                failed = true;
            }
        }
    }
    // The compiler-absent path must actually be exercised somewhere in the
    // run: at least one app's eligible kernel must have reached the
    // compiler probe and recorded the typed reason. (Apps whose kernels
    // decline structurally — e.g. nested loops — never consult the
    // compiler, which is why this is a run-level gate, not per app.)
    if args.expect_no_compiler
        && !rows.iter().any(|r| {
            r.native_fallback
                .iter()
                .any(|(reason, n)| reason == "compiler_unavailable" && *n > 0)
        })
    {
        eprintln!("FAIL: no app recorded the typed compiler_unavailable fallback");
        failed = true;
    }

    // Locality comparison: blind vs sharded on the same batched executor.
    // The bit-identical and explained-fallback gates are hard failures
    // regardless of --smoke; the speedup itself is informational here
    // (asserted by the full-scale bench run, not the CI smoke size).
    if args.regions > 0 {
        let lrows = locality::locality_comparison(scale, args.threads, args.regions);
        print!("\n{}", locality::render(&lrows));
        let ljson = locality::to_json(&lrows);
        let lpath = dmll_bench::result_path("locality", args.smoke);
        std::fs::write(&lpath, &ljson).expect("write locality report");
        println!("\nwrote {lpath}");
        for r in &lrows {
            if !r.identical {
                eprintln!("FAIL: {} sharded output diverged from blind/tree-walk", r.app);
                failed = true;
            }
            if r.unexplained_fallbacks > 0 {
                eprintln!(
                    "FAIL: {} has {} unexplained stencil fallbacks",
                    r.app, r.unexplained_fallbacks
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Lanes per batched block (`dmll_interp`'s `BLOCK`, not exported).
const BLOCK: u64 = 1024;

/// The loops whose generator element is a whole vector must stay on the
/// batched tier: LogReg's reduce of gradient rows, and k-means' bucket-
/// reduce of row vectors next to its (scalar) assignment loop. Counts, not
/// timings. Returns true on failure.
fn check_vector_loops(r: &tiers::TierRow, args: &Args) -> bool {
    // k-means' vector-valued loop is the Conditional-Reduce rewrite's
    // output, so without runtime fusion only the label check applies.
    let row_loops = match r.app {
        "LogReg" => 1,
        "k-means" if args.fuse => 2,
        "k-means" => 0,
        _ => return false,
    };
    let mut failed = false;
    if let Some((_, n)) = r.batch_reject.iter().find(|(k, _)| k == "boxed_gen_result") {
        eprintln!("FAIL: {} left {n} loops scalar with boxed_gen_result", r.app);
        failed = true;
    }
    // Sequential only: chunked smoke-size tasks legitimately drain whole
    // loops through the scalar tail.
    let want = row_loops * (r.rows as u64 / BLOCK);
    if args.threads == 1 && r.batched_blocks_per_run() < want {
        eprintln!(
            "FAIL: {} ran {} full blocks per execution, its {row_loops} row-long loops hold {want}",
            r.app,
            r.batched_blocks_per_run()
        );
        failed = true;
    }
    failed
}

/// Native-tier gates for one app row. Returns true on failure.
fn check_native(r: &tiers::TierRow, args: &Args) -> bool {
    let Some(secs) = r.native_secs else {
        eprintln!("FAIL: {} native phase did not run", r.app);
        return true;
    };
    if args.expect_no_compiler {
        // Graceful degradation: with no compiler on PATH, nothing may
        // compile, every loop must fall back to batched with a typed
        // reason, and the phase must still complete (secs measured above).
        let mut failed = false;
        if r.stats.native_compiles > 0 {
            eprintln!(
                "FAIL: {} compiled {} native kernels with no compiler expected",
                r.app, r.stats.native_compiles
            );
            failed = true;
        }
        // Every app must fall back with *some* typed reason. Which reason
        // depends on shape: structurally ineligible kernels (nested loops,
        // bucket collects, ...) decline before the compiler is ever probed,
        // so only apps whose kernels pass the shape checks record
        // compiler_unavailable — presence of that specific reason is gated
        // at the run level in main, not per app.
        if !r.native_fallback.iter().any(|(_, n)| *n > 0) {
            eprintln!(
                "FAIL: {} recorded no typed native fallback with no compiler expected",
                r.app
            );
            failed = true;
        }
        let _ = secs;
        return failed;
    }
    // With a compiler present, a kernel the emitter produced must also
    // compile and load: a toolchain that rejects it (a bad flag, a missing
    // library) is a broken native tier, not a decline. A listed reason was
    // recorded at least once, even if its per-run count rounds to zero.
    let broken: Vec<_> = r
        .native_fallback
        .iter()
        .filter(|(reason, _)| reason == "compile_failed" || reason == "load_failed")
        .collect();
    if !broken.is_empty() {
        eprintln!("FAIL: {} native kernels failed to build: {broken:?}", r.app);
        return true;
    }
    // The acceptance targets must either run on the native tier or decline
    // with a typed, counted reason — silent non-participation is the
    // failure mode being policed. The 1.5x win is demanded at full scale
    // only; the smoke size has no wall-clock gate.
    let declined = !r.native_fallback.is_empty();
    if (r.app == "Gene" || r.app == "Q1") && !declined {
        if r.stats.native_loops == 0 {
            eprintln!("FAIL: {} ran no native loops and declined nothing", r.app);
            return true;
        }
        match r.native_speedup() {
            Some(s) if !args.smoke && s < 1.5 => {
                eprintln!(
                    "FAIL: {} native tier {:.2}x over batched (want >= 1.50x)",
                    r.app, s
                );
                return true;
            }
            None => {
                eprintln!("FAIL: {} has native time but no batched baseline", r.app);
                return true;
            }
            _ => {}
        }
    }
    false
}
