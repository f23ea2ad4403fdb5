//! The repo's benchmark: one workload per process, every output checked
//! against an independent reference, every metric printed by name with
//! its unit, each layer measured from outside. See README.md in this
//! directory and BENCHMARK.json at the root.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --list
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod apps;
mod batch;
mod catalog;
mod exec;
mod json;
mod layers;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use trace::{SpanId, Tracer};

pub struct Args {
    pub workload: String,
    /// Offsets every data-generator seed and seeds the service mix.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// Internal: run set-up and the cold pass only (see `batch::cold_child`).
    pub cold_child: bool,
}

/// Metric values by name; units come from the catalog.
pub type Metrics = BTreeMap<String, f64>;

/// What one run accumulates besides its metrics.
pub struct Ctx {
    pub args: Args,
    pub tracer: Tracer,
    next_op: u64,
    /// Ops attempted: program executions, queries and reference checks.
    pub attempted: u64,
    /// Ops that errored, were refused, or whose output failed its check.
    pub failed: u64,
    /// Count metrics whose two counting passes disagreed.
    pub inexact: Vec<String>,
    /// The benchmark binary, for the cold passes in fresh processes; the
    /// unit tests run inside the test harness and have none.
    pub benchmark_exe: Option<PathBuf>,
}

impl Ctx {
    pub fn new(args: Args) -> Ctx {
        let tracer = Tracer::new(args.trace);
        Ctx {
            args,
            tracer,
            next_op: 0,
            attempted: 0,
            failed: 0,
            inexact: Vec::new(),
            benchmark_exe: None,
        }
    }

    /// A fresh op id: one per program execution, query or set-up pass.
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Count one op and, when it failed, say which.
    pub fn judge(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            println!("FAIL {what}: {why}");
        }
    }

    /// Run `f` as a named phase; returns its value and the span range it
    /// recorded (phases are contiguous in the span list).
    pub fn phase<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Ctx, SpanId) -> T,
    ) -> (T, Range<usize>) {
        let span = self.tracer.open(name, "", 0, None);
        let lo = self.tracer.spans().len();
        let value = f(self, span);
        self.tracer.close(span);
        (value, lo..self.tracer.spans().len())
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where run artefacts go: `benchmark/` in the Cargo target directory this
/// executable was built into (the ancestor Cargo tagged as a cache
/// directory), so nothing is written outside the build tree.
fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.ancestors()
        .find(|dir| dir.join("CACHEDIR.TAG").is_file())
        .unwrap_or(exe.parent().expect("an executable sits in a directory"))
        .join("benchmark")
}

/// Point `TMPDIR` into `out_dir`, so that the native tier's C++ sources
/// and shared objects (and the compiler's own temporaries) stay inside the
/// build tree like everything else the run writes.
fn confine_temp_files(out_dir: &std::path::Path) -> Result<PathBuf, String> {
    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(tmp)
}

fn first_line(command: &mut Command) -> Option<String> {
    let out = command.output().ok().filter(|o| o.status.success())?;
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// Print what a report needs to sit in a trajectory of reports.
fn print_environment(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let compiler = dmll_codegen::find_compiler();
    let version = compiler
        .as_ref()
        .and_then(|c| first_line(Command::new(c).arg("--version")))
        .unwrap_or_else(|| "none".to_string());
    let rev = first_line(Command::new("git").args(["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    println!(
        "benchmark: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "environment: nproc {nproc}; c++ {} ({version}); git {rev}",
        compiler.map_or("none".to_string(), |c| c.display().to_string())
    );
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!("usage: benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]");
    eprintln!("       benchmark --list");
    eprintln!(
        "workloads: {}",
        catalog::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

enum Parsed {
    Run(Args),
    List,
    PrintBenchmarkJson,
}

fn parse_args(argv: &[String]) -> Result<Parsed, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: BENCHMARK_RUN_SECONDS as f64,
        trace: false,
        cold_child: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => return Ok(Parsed::List),
            "--print-benchmark-json" => return Ok(Parsed::PrintBenchmarkJson),
            "--cold-child" => args.cold_child = true,
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !catalog::WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(Parsed::Run(args))
}

/// The command, directory and run length `BENCHMARK.json` declares.
const BENCHMARK_COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
const BENCHMARK_PATHS: [&str; 1] = ["benchmark"];
const BENCHMARK_RUN_SECONDS: u32 = 8;

/// The result line: every declared metric of the run's kind, by name.
fn result_line(ctx: &Ctx, metrics: &Metrics) -> String {
    let units: Vec<(String, &str)> = if ctx.args.trace {
        catalog::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        catalog::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let fields: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            // A per-layer metric this workload does not exercise reads 0.
            // (`+ 0.0` turns the empty float sum's -0 into 0.)
            let value = metrics
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0)
                + 0.0;
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.failed == 0,
        ctx.attempted.max(1),
        ctx.failed,
        fields.join(", ")
    )
}

fn print_metrics(ctx: &Ctx, metrics: &Metrics) {
    if ctx.args.trace {
        println!("per-layer metrics:");
        let mut unexercised = 0;
        for m in catalog::per_layer() {
            let Some(value) = metrics.get(&m.name) else {
                unexercised += 1;
                continue;
            };
            let inexact = ctx
                .inexact
                .iter()
                .any(|i| i.starts_with(&format!("{} ", m.name)));
            println!(
                "  {:<40} {:>16.6} {:<6}{}  -> {}",
                m.name,
                value + 0.0,
                m.unit,
                if inexact { " inexact" } else { "" },
                m.moves
            );
        }
        println!("  ({unexercised} more read 0: this workload does not exercise their layer)");
        if ctx.inexact.is_empty() {
            println!("every count repeated exactly over two counting passes");
        } else {
            println!(
                "inexact counts (no claim may rest on these): {}",
                ctx.inexact.join("; ")
            );
        }
    } else {
        println!("end-to-end metrics:");
        for m in &catalog::END_TO_END {
            let value = metrics.get(m.name).copied().unwrap_or(0.0);
            println!(
                "  {:<14} {:>14.6} {:<6} ({} is better, bound {:.0}%)",
                m.name,
                value,
                m.unit,
                m.better,
                m.bound * 100.0
            );
        }
    }
    println!(
        "fail_share {} ({} failed of {} attempted)",
        ctx.failed as f64 / ctx.attempted.max(1) as f64,
        ctx.failed,
        ctx.attempted
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Parsed::PrintBenchmarkJson) => {
            print!(
                "{}",
                catalog::to_benchmark_json(
                    &BENCHMARK_COMMAND,
                    &BENCHMARK_PATHS,
                    BENCHMARK_RUN_SECONDS
                )
            );
            return ExitCode::SUCCESS;
        }
        Ok(Parsed::List) => {
            catalog::print_list();
            return match catalog::verify() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("--list: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Ok(Parsed::Run(args)) => args,
        Err(problem) => return usage(&problem),
    };
    if let Err(e) = catalog::verify() {
        eprintln!("metric table and BENCHMARK.json disagree: {e}");
        return ExitCode::FAILURE;
    }

    let out_dir = output_dir();
    let tmp = match confine_temp_files(&out_dir) {
        Ok(tmp) => tmp,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let mut ctx = Ctx::new(args);
    ctx.benchmark_exe = std::env::current_exe().ok();
    let workload = ctx.args.workload.clone();
    if ctx.args.cold_child {
        let Some(spec) = batch::Spec::of(&workload) else {
            return usage("--cold-child is for the batch workloads");
        };
        batch::cold_child(&spec, &mut ctx);
        let _ = std::fs::remove_dir_all(&tmp);
        return if ctx.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    print_environment(&ctx.args);
    let mut metrics = match batch::Spec::of(&workload) {
        Some(spec) => batch::run(&workload, &spec, &mut ctx),
        None => service::run(&mut ctx),
    };
    if ctx.args.trace {
        metrics.insert("bench.inexact_counts".into(), ctx.inexact.len() as f64);
        metrics.insert(
            "bench.fail_share".into(),
            ctx.failed as f64 / ctx.attempted.max(1) as f64,
        );
        let path = out_dir.join(format!("trace-{workload}.json"));
        match std::fs::write(&path, ctx.tracer.to_json(&workload, ctx.args.seed)) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                ctx.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                ctx.failed += 1;
                println!("FAIL writing {}: {e}", path.display());
            }
        }
    }
    // The shared objects are still mapped; unlinking them is safe.
    let _ = std::fs::remove_dir_all(&tmp);

    print_metrics(&ctx, &metrics);
    println!("{}", result_line(&ctx, &metrics));
    if ctx.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_matches_benchmark_json() {
        catalog::verify().expect("metric table equals BENCHMARK.json");
        let expected =
            catalog::to_benchmark_json(&BENCHMARK_COMMAND, &BENCHMARK_PATHS, BENCHMARK_RUN_SECONDS);
        let doc = json::parse(&expected).expect("generated BENCHMARK.json parses");
        assert_eq!(
            doc.get("run_seconds"),
            Some(&json::Json::Num(f64::from(BENCHMARK_RUN_SECONDS)))
        );
    }

    /// A smoke-size pass of every workload, both run kinds: every op and
    /// reference check passes and every declared metric is reported.
    #[test]
    fn smoke_pass_of_every_workload() {
        let tmp = confine_temp_files(&output_dir()).expect("temp dir in the build tree");
        for w in &catalog::WORKLOADS {
            for trace in [false, true] {
                let mut ctx = Ctx::new(Args {
                    workload: w.name.to_string(),
                    seed: 3,
                    seconds: 0.05,
                    trace,
                    cold_child: false,
                });
                let metrics = match batch::Spec::of(w.name) {
                    Some(mut spec) => {
                        spec.sizes = spec.smoke;
                        batch::run(w.name, &spec, &mut ctx)
                    }
                    None => service::run(&mut ctx),
                };
                assert_eq!(ctx.failed, 0, "{} trace {trace}", w.name);
                assert!(ctx.attempted > 0);
                if !trace {
                    for m in &catalog::END_TO_END {
                        let v = metrics.get(m.name).copied().unwrap_or(0.0);
                        assert!(v > 0.0, "{} reports {} = {v}", w.name, m.name);
                    }
                }
                let line = result_line(&ctx, &metrics);
                assert!(json::parse(&line).is_ok(), "{line}");
            }
        }
        let _ = std::fs::remove_dir_all(tmp);
    }
}
