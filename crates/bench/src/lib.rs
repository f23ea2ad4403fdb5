//! # Benchmark harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6). Each
//! experiment runs the *actual compiler pipeline* — stage the application,
//! optimize for the relevant target, run the distribution analyses, extract
//! IR-derived work/traffic profiles — and feeds the result into the hardware
//! cost model with the paper's testbed presets. Shapes (who wins, by
//! roughly what factor, where scaling stops) therefore emerge from the
//! transformations rather than being hard-coded.
//!
//! Binaries:
//!
//! * `table1_features` — the programming-model feature matrix;
//! * `table2_sequential` — sequential DMLL vs hand-optimized native, with
//!   the per-benchmark optimization log (measured interpreter times plus
//!   modeled generated-code times);
//! * `fig6_transforms` — speedups from the nested-pattern transformations
//!   (GPU and CPU panels);
//! * `fig7_numa` — NUMA scaling of DMLL / pin-only / Delite / Spark /
//!   PowerGraph, 1–48 cores;
//! * `fig8_cluster` — the 20-node EC2 cluster, the 4-node GPU cluster, the
//!   graph comparison and the Gibbs case study;
//! * `kernels_tier` — measured interpreter execution-tier comparison
//!   (compiled bytecode kernels vs the tree-walker), emitting
//!   `BENCH_kernels.json`;
//! * `chaos` — deterministic chaos sweep of the supervised executor
//!   (seeded fault plans × generator kinds × execution tiers, plus
//!   deadline, speculation-parity and service probes), emitting
//!   `BENCH_chaos.json`;
//! * `service_bench` — open-/closed-loop seeded traffic against the
//!   multi-tenant query service (admission control, load shedding,
//!   graceful degradation), emitting `BENCH_service_t{N}.json`;
//! * `locality` (via `kernels_tier --regions R`) — measured blind-vs-
//!   sharded comparison of the locality-aware partitioned data plane,
//!   emitting `BENCH_locality.json`.
//!
//! With `--smoke`, `kernels_tier`, `fig8_cluster --measured` and
//! `service_bench` write `BENCH_<name>.smoke.json` instead (see
//! [`result_path`]), so a CI-size run never overwrites the checked-in
//! full-scale results.

pub mod chaos;
pub mod cluster;
pub mod experiments;
pub mod locality;
pub mod render;
pub mod service;
pub mod tiers;
pub mod workloads;

/// Where a bench binary writes its `BENCH_<name>` document: the
/// checked-in `BENCH_<name>.json` for a full-scale run, the git-ignored
/// `BENCH_<name>.smoke.json` for a `--smoke` run.
pub fn result_path(name: &str, smoke: bool) -> String {
    if smoke {
        format!("BENCH_{name}.smoke.json")
    } else {
        format!("BENCH_{name}.json")
    }
}

/// Lib tests that reset the process-global tier counters, or diff them
/// around a run, hold this lock so a concurrently running test cannot
/// reset or inflate the counters mid-reading.
#[cfg(test)]
pub(crate) fn lock_tier_counters() -> std::sync::MutexGuard<'static, ()> {
    static TIER_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TIER_COUNTERS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
