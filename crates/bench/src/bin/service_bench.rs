//! Seeded open-/closed-loop traffic against the multi-tenant query
//! service, emitting `BENCH_service_t{N}.json` (one file per `--threads N`;
//! `BENCH_service_t{N}.smoke.json` with `--smoke`).
//!
//! Usage: `service_bench [--smoke] [--threads N] [--seed S]`. Measures an
//! uncontended closed-loop baseline, then an open-loop overload storm
//! (mostly lightweight queries, a seeded few percent heavyweight scans),
//! then recovery. Exits nonzero if the shed-not-collapse gate fails:
//! admitted p99 under overload must stay within 5x of the uncontended
//! p99 while the excess load is rejected with typed errors, every
//! admitted query must produce exactly one outcome, and the service must
//! walk the degradation ladder back to Normal.

use dmll_bench::service;

fn parse_args() -> (bool, usize, u64) {
    let mut smoke = false;
    let mut threads = 4usize;
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--threads" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--threads needs a positive integer"));
                threads = if n == 0 {
                    usage("--threads needs a positive integer")
                } else {
                    n
                };
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    (smoke, threads, seed)
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: service_bench [--smoke] [--threads N] [--seed S]");
    std::process::exit(2);
}

fn main() {
    let (smoke, threads, seed) = parse_args();
    let scale = if smoke {
        service::ServiceBenchScale::smoke()
    } else {
        service::ServiceBenchScale::full()
    };
    let report = service::run_service_bench(threads, scale, seed);
    print!("{}", service::render(&report));

    let json = service::to_json(&report);
    let path = dmll_bench::result_path(&format!("service_t{threads}"), smoke);
    std::fs::write(&path, &json).expect("write service report");
    println!("wrote {path}");

    if !report.gate_ok() {
        eprintln!("FAIL: shed-not-collapse gate violated");
        std::process::exit(1);
    }
}
