//! Property-based tests for the supervised executor: speculation can never
//! change output, cancellation and deadlines abort within one task
//! granularity, and supervision is invisible to fault recovery.

use dmll_core::{LayoutHint, Ty};
use dmll_frontend::Stage;
use dmll_interp::{
    eval_parallel, eval_parallel_supervised, ChunkFaults, ExecError, Externs, ParallelOptions,
    Value,
};
use dmll_runtime::{QuarantinePolicy, SpeculationPolicy, Supervisor, SupervisorPolicy};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Sum of squares: one Collect + one Reduce loop, exact over i64.
fn sum_squares() -> dmll_core::Program {
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let sq = st.map(&x, |st, e| st.mul(e, e));
    let total = st.sum(&sq);
    st.finish(&total)
}

/// Group-by-reduce: bucket merging across chunks, exact over i64.
fn bucket_sums() -> dmll_core::Program {
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let zero = st.lit_i(0);
    let b = st.group_by_reduce(
        &x,
        |st, e| {
            let seven = st.lit_i(7);
            st.rem(e, &seven)
        },
        |_st, e| e.clone(),
        |st, a, b| st.add(a, b),
        Some(&zero),
    );
    let keys = st.bucket_keys(&b);
    let vals = st.bucket_values(&b);
    let pair = st.tuple(&[&keys, &vals]);
    st.finish(&pair)
}

/// The most trigger-happy speculation policy: every completed sample makes
/// every still-running task a straggler candidate almost immediately.
fn aggressive_speculation() -> SpeculationPolicy {
    SpeculationPolicy {
        enabled: true,
        min_samples: 1,
        percentile: 50.0,
        multiplier: 1.0,
        floor: Duration::ZERO,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Speculation never changes output: for random data, thread counts
    /// and injected straggler delays, a run under the most aggressive
    /// speculation policy is bit-identical to the unsupervised run.
    #[test]
    fn speculation_never_changes_output(
        seed in 0u64..1_000,
        threads in 2usize..5,
        rows in 2_000usize..6_000,
        delayed in prop::collection::vec(0usize..8, 0usize..3),
        bucketed in any::<bool>(),
    ) {
        let program = if bucketed { bucket_sums() } else { sum_squares() };
        let data: Vec<i64> = (0..rows as u64)
            .map(|i| ((seed.wrapping_mul(31).wrapping_add(i * 17)) % 1_000) as i64)
            .collect();
        let inputs = [("x", Value::i64_arr(data))];
        let baseline = eval_parallel(&program, &inputs, threads).unwrap();

        let mut faults = ChunkFaults::default();
        for &ci in &delayed {
            faults = faults.and_delay(ci, Duration::from_millis(3));
        }
        let sup = Supervisor::new(SupervisorPolicy {
            speculation: aggressive_speculation(),
            ..SupervisorPolicy::default()
        });
        let opts = ParallelOptions::new(threads)
            .with_faults(faults)
            .supervised(sup);
        let (value, _report) =
            eval_parallel_supervised(&program, &inputs, &opts).unwrap();
        prop_assert_eq!(value, baseline);
    }

    /// A cancelled run returns promptly with a typed error: cancellation
    /// before the run starts means zero chunk executions; the returned
    /// partial report is consistent.
    #[test]
    fn precancelled_runs_do_no_work(
        threads in 1usize..5,
        rows in 1_000usize..8_000,
    ) {
        let program = sum_squares();
        let data: Vec<i64> = (0..rows as i64).collect();
        let inputs = [("x", Value::i64_arr(data))];
        let sup = Supervisor::new(SupervisorPolicy::default());
        sup.cancel_token().cancel();
        let opts = ParallelOptions::new(threads).supervised(sup);
        match eval_parallel_supervised(&program, &inputs, &opts) {
            Err(ExecError::Cancelled { partial }) => {
                prop_assert_eq!(partial.chunk_executions, 0);
            }
            other => prop_assert!(false, "expected Cancelled, got {:?}", other),
        }
    }

    /// A deadline below the workload's runtime aborts within one task
    /// granularity: with every task delayed 4ms (one worker's five tasks
    /// then outlast the longest deadline by two tasks even when compute
    /// is free, as in a release build), the run returns a typed
    /// `Deadline` carrying a partial report, leaves most tasks unexecuted,
    /// and drains in far less time than running everything would take.
    #[test]
    fn deadline_aborts_within_task_granularity(
        threads in 1usize..4,
        deadline_ms in 3u64..10,
    ) {
        let program = sum_squares();
        let data: Vec<i64> = (0..20_000).collect();
        let inputs = [("x", Value::i64_arr(data))];
        let mut faults = ChunkFaults::default();
        for ci in 0..64 {
            faults = faults.and_delay(ci, Duration::from_millis(4));
        }
        let sup = Supervisor::new(SupervisorPolicy {
            deadline: Some(Duration::from_millis(deadline_ms)),
            speculation: SpeculationPolicy::disabled(),
            ..SupervisorPolicy::default()
        });
        let opts = ParallelOptions::new(threads)
            .with_faults(faults)
            .supervised(sup);
        let t0 = Instant::now();
        match eval_parallel_supervised(&program, &inputs, &opts) {
            Err(ExecError::Deadline { partial, elapsed, .. }) => {
                // ~40 tasks at 4ms each per loop would be >= 50ms even on
                // 3 workers; the drain bound is deadline + one in-flight
                // task per worker (plus scheduling noise, hence the slack).
                prop_assert!(
                    t0.elapsed() < Duration::from_secs(2),
                    "drain took {:?}",
                    t0.elapsed()
                );
                prop_assert!(elapsed >= Duration::from_millis(deadline_ms));
                prop_assert!(
                    partial.chunk_executions < 40,
                    "most tasks abandoned: {:?}",
                    partial
                );
            }
            other => prop_assert!(false, "expected Deadline, got {:?}", other),
        }
    }

    /// The sharded data plane composes with the full supervision stack:
    /// under aggressive speculation, a hair-trigger quarantine breaker,
    /// injected chunk deaths, and straggler delays, the plan-driven
    /// region-aware run stays bit-identical to the plain blind run.
    #[test]
    fn sharded_plane_composes_with_supervision(
        seed in 0u64..1_000,
        threads in 2usize..5,
        regions in 1usize..5,
        rows in 2_000usize..6_000,
        killed in prop::collection::vec(0usize..6, 0usize..3),
        delayed in prop::collection::vec(0usize..8, 0usize..2),
        panicking in any::<bool>(),
    ) {
        let mut program = bucket_sums();
        let plan = std::sync::Arc::new(
            dmll_analysis::export_plan(&dmll_analysis::analyze(&mut program)),
        );
        let data: Vec<i64> = (0..rows as u64)
            .map(|i| ((seed.wrapping_mul(29).wrapping_add(i * 13)) % 977) as i64)
            .collect();
        let inputs = [("x", Value::i64_arr(data))];
        let baseline = eval_parallel(&program, &inputs, threads).unwrap();

        let mut faults = ChunkFaults::fail_once(killed.iter().copied());
        if panicking {
            faults = faults.panicking();
        }
        for &ci in &delayed {
            faults = faults.and_delay(ci, Duration::from_millis(2));
        }
        let sup = Supervisor::new(SupervisorPolicy {
            retry_budget: 64,
            speculation: aggressive_speculation(),
            quarantine: QuarantinePolicy {
                enabled: true,
                max_failures: 1,
                window: 4,
                cooldown: 4,
            },
            ..SupervisorPolicy::default()
        });
        let opts = ParallelOptions::new(threads)
            .with_regions(regions)
            .with_plan(plan)
            .with_faults(faults)
            .supervised(sup);
        let (value, report) = eval_parallel_supervised(&program, &inputs, &opts).unwrap();
        prop_assert!(report.sharded_loops >= 1, "never ran sharded: {report:?}");
        prop_assert_eq!(value, baseline);
    }

    /// Supervision is invisible to recovery: runs with injected one-shot
    /// chunk deaths produce bit-identical results with and without a
    /// (no-deadline) supervisor attached.
    #[test]
    fn supervision_is_invisible_to_recovery(
        threads in 2usize..5,
        rows in 2_000usize..6_000,
        killed in prop::collection::vec(0usize..6, 0usize..3),
        panicking in any::<bool>(),
    ) {
        let program = bucket_sums();
        let data: Vec<i64> = (0..rows as i64).map(|i| i * 13 % 101).collect();
        let inputs = [("x", Value::i64_arr(data))];
        let baseline = eval_parallel(&program, &inputs, threads).unwrap();
        let mut faults = ChunkFaults::fail_once(killed.iter().copied());
        if panicking {
            faults = faults.panicking();
        }
        let sup = Supervisor::new(SupervisorPolicy {
            retry_budget: 64,
            speculation: SpeculationPolicy::disabled(),
            ..SupervisorPolicy::default()
        });
        let opts = ParallelOptions::new(threads)
            .with_faults(faults)
            .supervised(sup);
        let (value, report) =
            eval_parallel_supervised(&program, &inputs, &opts).unwrap();
        prop_assert_eq!(value, baseline);
        prop_assert!(report.reexecuted_chunks <= killed.len());
    }
}

// Worker 0 of every stealing round is the calling thread. The tests below
// observe where tasks run through an extern in the loop body that records
// the executing thread, and check the supervised contract on that thread.

/// `x.map(e => here(e))`: one Collect loop whose value block calls the
/// identity extern `here` once per element.
fn thread_recording_map() -> dmll_core::Program {
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let ys = st.map(&x, |st, e| {
        st.extern_call("here", &[e], Ty::I64, false, true)
    });
    st.finish(&ys)
}

/// Shared record of the threads that executed `here`.
type Seen = Arc<(Mutex<HashSet<ThreadId>>, Condvar)>;

/// `here` registered to record its thread; a thread's first call waits (up
/// to 10 s, so a wrong worker count fails the assertion instead of hanging)
/// until `rendezvous` distinct threads have arrived, which forces that many
/// workers to each hold a task at the same time.
fn recording_externs(rendezvous: usize) -> (Externs, Seen) {
    let seen: Seen = Arc::new((Mutex::new(HashSet::new()), Condvar::new()));
    let mut externs = Externs::new();
    let rec = seen.clone();
    externs.insert("here", move |args| {
        let (ids, arrived) = &*rec;
        let mut ids = ids.lock().unwrap();
        if ids.insert(std::thread::current().id()) {
            arrived.notify_all();
            let _ = arrived
                .wait_timeout_while(ids, Duration::from_secs(10), |ids| ids.len() < rendezvous)
                .unwrap();
        }
        Ok(args[0].clone())
    });
    (externs, seen)
}

fn seen_threads(seen: &Seen) -> HashSet<ThreadId> {
    seen.0.lock().unwrap().clone()
}

#[test]
fn one_thread_supervised_run_stays_on_the_caller() {
    let program = thread_recording_map();
    let data: Vec<i64> = (0..4000).collect();
    let inputs = [("x", Value::i64_arr(data.clone()))];
    let me = HashSet::from([std::thread::current().id()]);
    let supervised = |faults: ChunkFaults, policy: SupervisorPolicy| {
        let (externs, seen) = recording_externs(1);
        let opts = ParallelOptions::new(1)
            .with_externs(externs)
            .with_faults(faults)
            .supervised(Supervisor::new(policy));
        (eval_parallel_supervised(&program, &inputs, &opts), seen)
    };

    // Several tasks, every one of them on this thread.
    let (clean, seen) = supervised(ChunkFaults::default(), SupervisorPolicy::default());
    let (value, report) = clean.unwrap();
    assert_eq!(value, Value::i64_arr(data.clone()));
    assert!(report.chunk_executions >= 2, "one task only: {report:?}");
    assert_eq!(seen_threads(&seen), me);

    // Panicking tasks are caught per task: the caller is not unwound, the
    // chunks are re-executed, and the output is unchanged.
    let (recovered, seen) = supervised(
        ChunkFaults::fail_once([0, 1]).panicking(),
        SupervisorPolicy::default(),
    );
    let (value, report) = recovered.unwrap();
    assert_eq!(value, Value::i64_arr(data));
    assert_eq!(report.reexecuted_chunks, 2, "{report:?}");
    assert_eq!(seen_threads(&seen), me);

    // The caller polls the deadline between its own tasks: every task
    // sleeps 3 ms against a 5 ms deadline, so the run stops part-way and
    // the typed error carries what had run.
    let mut delays = ChunkFaults::default();
    for ci in 0..64 {
        delays = delays.and_delay(ci, Duration::from_millis(3));
    }
    let (aborted, seen) = supervised(
        delays,
        SupervisorPolicy {
            deadline: Some(Duration::from_millis(5)),
            speculation: SpeculationPolicy::disabled(),
            ..SupervisorPolicy::default()
        },
    );
    match aborted {
        Err(ExecError::Deadline { partial, .. }) => {
            assert!(
                partial.chunk_executions < report.chunk_executions,
                "stopped part-way: {partial:?}"
            );
        }
        other => panic!("expected Deadline, got {other:?}"),
    }
    assert!(seen_threads(&seen).is_subset(&me));
}

#[test]
fn four_thread_round_is_the_caller_plus_three_spawned() {
    let program = thread_recording_map();
    let data: Vec<i64> = (0..4000).collect();
    let inputs = [("x", Value::i64_arr(data.clone()))];
    let (externs, seen) = recording_externs(4);
    let opts = ParallelOptions::new(4)
        .with_externs(externs)
        .supervised(Supervisor::new(SupervisorPolicy::default()));
    let (value, _) = eval_parallel_supervised(&program, &inputs, &opts).unwrap();
    assert_eq!(value, Value::i64_arr(data));
    // Four threads held a task at once (the rendezvous), and no fifth ever
    // ran one: with the caller among them, exactly three were spawned.
    let ids = seen_threads(&seen);
    assert_eq!(ids.len(), 4, "{ids:?}");
    assert!(ids.contains(&std::thread::current().id()), "{ids:?}");
}
