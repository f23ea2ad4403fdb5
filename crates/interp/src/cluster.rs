//! Measured cluster execution: sharded multiloops over N simulated nodes.
//!
//! Each node is a thread with its own persistent environment; nodes
//! exchange state by message passing only, and every inter-node message is
//! charged through the [`ClusterPlane`] network model (latency +
//! bandwidth, seeded link flakes, capped-backoff retries). The coordinator
//! stages inputs according to the analysis [`Placement`] plan (partitioned
//! windows with halo exchange, or broadcast), dispatches directory-homed
//! tasks, recovers shards lost to node deaths by lineage re-execution on
//! survivors, speculates against stragglers, and drains a real shuffle
//! phase for bucket generators.
//!
//! Bit-identity with the single-node tiers is structural, not accidental.
//! A node is one more caller of the shared task runner ([`crate::task`]):
//! the coordinator picks the kernel and the mode once per epoch exactly as
//! the single-node chunked executor does, over the *same* blind task plan,
//! and nodes run tasks through the same tier ladder under the same panic
//! isolation. Plain generators' per-task accumulators come back and go
//! through the same finish — one stitch by task id; shuffle owners merge
//! typed bucket columns with the kernel's own merge in that stitch's
//! operand order, and the buckets reassemble in global first-seen key
//! order. The differential tests and the cluster chaos gate in `bench`
//! pin this equality under injected node deaths, link flakes, and
//! speculation.

// Same contract as `parallel.rs`: `ExecError` embeds the partial
// `ExecReport` inline in its abort variants, and the Err path only fires
// on watchdog/fault aborts — boxing it would trade a cold-path copy for
// an allocation and break the by-value contract.
#![allow(clippy::result_large_err)]

use crate::compile::{self, ColBuf, KAcc, Kernel, KeyIx, RedBuf};
use crate::error::{EvalError, ExecError};
use crate::eval::{Env, Externs, Interp, LoopTier};
use crate::parallel::{interp_eval_size, plan_tasks, ExecReport};
use crate::stats;
use crate::task::{execute_chunk_kernel, finish_gen, ChunkFailure, ChunkTally};
use crate::value::{ArrayVal, Key, Value};
use dmll_core::{Def, Exp, Gen, Multiloop, Program, Sym};
use dmll_runtime::{
    Chunk, ClusterPlane, ClusterSpec, FaultInjector, FaultPlan, LoopPlan, Placement, ProgramPlan,
    RetryPolicy, RuntimeError, SchedulePlan, SpeculationPolicy,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the coordinator wakes to check the watchdog and speculation
/// cutoffs while waiting on node acks.
const POLL: Duration = Duration::from_millis(2);

/// Cap on the *real* sleep a straggler-injected node adds on top of its
/// reported (simulated) slowdown, so tests stay fast.
const STRAGGLER_SLEEP_CAP_NANOS: u64 = 20_000_000;

/// Configuration for one measured cluster evaluation.
#[derive(Clone)]
pub struct ClusterOptions {
    /// Simulated nodes (threads with isolated state).
    pub nodes: usize,
    /// Task-plan width; must match the single-node baseline for
    /// bit-identity (the task plan, not the node count, fixes fold order).
    pub threads: usize,
    /// Network model the data plane charges transfers through. The
    /// `nodes` field of the spec is overridden by [`ClusterOptions::nodes`].
    pub spec: ClusterSpec,
    /// Seeded fault plan: node deaths fire at epoch/shuffle step
    /// boundaries, link flakes on any inter-node send.
    pub faults: FaultPlan,
    /// Backoff schedule for flaked sends.
    pub retry: RetryPolicy,
    /// Placement plan from the analysis pipeline; reads without a
    /// `Partitioned` placement are broadcast.
    pub plan: Option<Arc<ProgramPlan>>,
    /// Straggler speculation policy (coordinator-side, wall clock).
    pub speculation: SpeculationPolicy,
    /// Nodes that must never be scheduled or used as recovery targets.
    pub quarantined: Vec<usize>,
    /// Per-epoch wall-clock bound; exceeded waits surface as
    /// [`ExecError::Deadline`].
    pub watchdog: Duration,
    /// Run the fusion rewrite before executing (matches the single-node
    /// entry points).
    pub fuse: bool,
}

impl ClusterOptions {
    /// Options for `nodes` nodes and a `threads`-wide task plan, with the
    /// stock network model, no faults, and speculation disabled.
    pub fn new(nodes: usize, threads: usize) -> ClusterOptions {
        ClusterOptions {
            nodes,
            threads,
            spec: ClusterSpec {
                nodes,
                ..ClusterSpec::amazon_20()
            },
            faults: FaultPlan::new(0),
            retry: RetryPolicy::default(),
            plan: None,
            speculation: SpeculationPolicy::disabled(),
            quarantined: Vec::new(),
            watchdog: Duration::from_secs(60),
            fuse: true,
        }
    }

    /// Replace the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> ClusterOptions {
        self.faults = faults;
        self
    }

    /// Attach an analysis placement plan.
    pub fn with_plan(mut self, plan: Arc<ProgramPlan>) -> ClusterOptions {
        self.plan = Some(plan);
        self
    }

    /// Replace the speculation policy.
    pub fn with_speculation(mut self, policy: SpeculationPolicy) -> ClusterOptions {
        self.speculation = policy;
        self
    }

    /// Replace the send retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> ClusterOptions {
        self.retry = retry;
        self
    }

    /// Replace the network model (its `nodes` field is still overridden).
    pub fn with_spec(mut self, spec: ClusterSpec) -> ClusterOptions {
        self.spec = spec;
        self
    }

    /// Quarantine `nodes` out of scheduling and recovery.
    pub fn with_quarantined(mut self, nodes: Vec<usize>) -> ClusterOptions {
        self.quarantined = nodes;
        self
    }

    /// Disable the fusion rewrite.
    pub fn without_fusion(mut self) -> ClusterOptions {
        self.fuse = false;
        self
    }
}

/// What one measured cluster evaluation did, for gates and benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterReport {
    /// Nodes the plane was built with.
    pub nodes: usize,
    /// Top-level loops executed across the cluster.
    pub cluster_loops: u64,
    /// Small loops run in place on the coordinator.
    pub coordinator_loops: u64,
    /// Cluster loops that drained a shuffle phase (bucket generators).
    pub shuffles: u64,
    /// Tasks dispatched to nodes (primaries only; speculative clones and
    /// recovery re-executions are counted separately).
    pub tasks: u64,
    /// Values staged into node environments (windows plus broadcasts).
    pub staged_values: u64,
    /// Halo margins charged as neighbor-to-node exchanges.
    pub halo_exchanges: u64,
    /// Speculative task clones launched against stragglers.
    pub speculative_tasks: u64,
    /// Speculative clones acked first.
    pub speculation_wins: u64,
    /// Tasks re-executed on survivors after their holders died.
    pub lineage_recoveries: u64,
    /// Nodes the fault plan killed during the run.
    pub node_deaths: u64,
    /// Inter-node messages charged through the network model.
    pub sends: u64,
    /// Payload bytes those messages moved.
    pub send_bytes: u64,
    /// Sends retried after a transient link flake.
    pub link_retries: u64,
    /// Sends that exhausted their retry budget.
    pub failed_sends: u64,
    /// Simulated nanoseconds charged for network transfers.
    pub network_nanos: u64,
    /// Cluster loops whose tasks ran on a compiled kernel. Every epoch
    /// does (a loop the compiler rejects runs on the coordinator instead),
    /// so this equals `cluster_loops` on a successful run.
    pub compiled_loops: u64,
    /// Cluster loops every task of which ran block-at-a-time on the
    /// batched executor (a subset of `compiled_loops`).
    pub batched_loops: u64,
}

/// The injector step at which epoch `e` (the `e`-th cluster-executed
/// loop) begins; node deaths scheduled here are visible to placement.
pub fn epoch_start_step(epoch: u64) -> u64 {
    2 * epoch + 1
}

/// The injector step at epoch `e`'s pre-shuffle boundary; nodes killed
/// here lose their held task results and force lineage recovery.
pub fn shuffle_step(epoch: u64) -> u64 {
    2 * epoch + 2
}

/// Evaluate `program` over a measured simulated cluster.
///
/// Returns the program result (bit-identical to [`crate::eval`] and the
/// single-node parallel tiers) and a [`ClusterReport`] of what the data
/// plane did.
///
/// # Errors
///
/// Evaluation errors surface as [`ExecError::Eval`]; cluster faults that
/// exhaust recovery (no survivors, send retry budgets) as
/// [`ExecError::Runtime`]; watchdog expiry as [`ExecError::Deadline`].
pub fn eval_cluster_measured(
    program: &Program,
    inputs: &[(&str, Value)],
    options: &ClusterOptions,
) -> Result<(Value, ClusterReport), ExecError> {
    if options.fuse {
        let fused = crate::fuse::fused_program(program);
        stats::record_fusion(fused.applied, fused.rejected);
        if let Some(fp) = &fused.program {
            return cluster_on(fp, inputs, options, fused.fingerprint);
        }
    }
    cluster_on(program, inputs, options, 0)
}

/// A coordinator- or peer-originated message into a node's single inbox.
enum NodeMsg {
    /// Bind `value` into the node's persistent environment at `slot`.
    Stage { slot: usize, value: Value },
    /// Run `tasks` of loop `loop_idx` on `kernel`, block-at-a-time when
    /// `batched` — the coordinator picks both once per epoch, so every
    /// node, clone and re-execution runs a task the same way. `patches`
    /// overlay staged slots for speculative clones and lineage
    /// re-execution without clobbering the node's own windows.
    Execute {
        loop_idx: usize,
        kernel: Arc<Kernel>,
        batched: bool,
        tasks: Vec<(usize, (i64, i64))>,
        patches: Vec<(usize, Value)>,
    },
    /// Drain the shuffle for loop `loop_idx`: emit held accumulators for
    /// `emit` tasks, exchange bucket columns with `participants`,
    /// owner-merge with `kernel`'s reducers, and report to the coordinator.
    Shuffle {
        loop_idx: usize,
        kernel: Arc<Kernel>,
        participants: Vec<usize>,
        emit: Vec<usize>,
    },
    /// Bucket columns hash-routed here by a shuffle peer. Tagged with the
    /// loop so a fast peer's columns, arriving before this node has even
    /// processed its own `Shuffle` message, are buffered — not dropped —
    /// and columns from an aborted earlier epoch are discarded.
    Peer {
        loop_idx: usize,
        parts: Vec<BucketColumns>,
    },
    /// Tear down the node thread.
    Shutdown,
}

/// Bucket entries of generator `gen` in flight, as typed columns: a bucket
/// [`KAcc`] holding just these entries and, per entry, the `(task,
/// position)` that first emitted it. Between shuffle peers it carries the
/// entries of one task that hash to one owner, in emission order; from an
/// owner to the coordinator, the keys that owner merged — the tags are
/// what lets the coordinator rebuild global first-seen key order.
struct BucketColumns {
    gen: usize,
    acc: KAcc,
    origin: Vec<(usize, usize)>,
}

/// A node-to-coordinator report. Every variant that can race across
/// epoch boundaries carries its loop index: a speculative clone or a
/// recovery re-execution from epoch `e` may ack while the coordinator is
/// already collecting epoch `e+1`, and an untagged ack would corrupt the
/// later epoch's task accounting.
enum FromNode {
    /// Task `task` of loop `loop_idx` finished on `node` in `nanos`
    /// simulated time; `element_loop` says the element-at-a-time bytecode
    /// loop served some of it (the coordinator's tier accounting).
    MapDone {
        node: usize,
        loop_idx: usize,
        task: usize,
        nanos: u64,
        element_loop: bool,
    },
    /// Shuffle for loop `loop_idx` drained on `node`: the plain
    /// `(generator, task, accumulator)`s it held, and the buckets it owns.
    ShuffleDone {
        node: usize,
        loop_idx: usize,
        plain: Vec<(usize, usize, KAcc)>,
        merged: Vec<BucketColumns>,
    },
    /// A node hit an unrecoverable error (which itself names the failing
    /// link, node or task).
    Failed(NodeError),
}

/// Why a node failed.
enum NodeError {
    Eval(EvalError),
    Runtime(RuntimeError),
    /// A peer exchange stalled past the watchdog; surfaced as a deadline
    /// abort (the reason string documents the stalled phase at the site).
    Stalled(#[allow(dead_code)] &'static str),
}

fn cluster_on(
    program: &Program,
    inputs: &[(&str, Value)],
    options: &ClusterOptions,
    fingerprint: u64,
) -> Result<(Value, ClusterReport), ExecError> {
    let nodes = options.nodes.max(1);
    let spec = ClusterSpec {
        nodes,
        ..options.spec
    };
    let injector = Arc::new(FaultInjector::new(options.faults.clone()));
    let plane = ClusterPlane::new(spec, injector.clone(), options.retry);

    let interp = Interp::new(program).with_fuse_fingerprint(fingerprint);
    let mut env: Env = vec![None; program.next_sym_id() as usize];
    for input in &program.inputs {
        let v = inputs
            .iter()
            .find(|(n, _)| *n == input.name)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| EvalError::MissingInput(input.name.clone()))?;
        env[input.sym.0 as usize] = Some(v);
    }
    if let Some(plan) = &options.plan {
        stats::record_partition_warnings(plan.warnings.len() as u64);
    }

    let mut report = ClusterReport {
        nodes,
        ..ClusterReport::default()
    };

    let result = std::thread::scope(|scope| {
        let mut to_nodes: Vec<Sender<NodeMsg>> = Vec::with_capacity(nodes);
        let mut inboxes: Vec<Receiver<NodeMsg>> = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let (tx, rx) = channel::<NodeMsg>();
            to_nodes.push(tx);
            inboxes.push(rx);
        }
        let (from_tx, from_rx) = channel::<FromNode>();
        for (k, rx) in inboxes.into_iter().enumerate() {
            let node = Node {
                k,
                env: vec![None; env.len()],
                externs: interp.externs(),
                held: BTreeMap::new(),
                early_peers: Vec::new(),
                rx,
                peers: to_nodes.clone(),
                coord: from_tx.clone(),
                plane: plane.clone(),
                watchdog: options.watchdog,
                seq: (k as u64) << 48,
            };
            scope.spawn(move || node.run());
        }
        drop(from_tx);
        let out = drive(
            &interp, program, &mut env, options, &plane, &injector, &to_nodes, &from_rx,
            &mut report,
        );
        // Always tear the nodes down, on success and on error, so the
        // scope join never hangs on a node blocked in its inbox.
        for tx in &to_nodes {
            let _ = tx.send(NodeMsg::Shutdown);
        }
        out
    });

    let net = plane.stats().net_snapshot();
    report.sends = net.sends;
    report.send_bytes = net.send_bytes;
    report.link_retries = net.send_retries;
    report.failed_sends = net.failed_sends;
    report.network_nanos = net.network_nanos;
    report.node_deaths = injector
        .failed_nodes()
        .iter()
        .filter(|&&n| n < nodes)
        .count() as u64;
    stats::record_cluster_traffic(net.sends, net.send_bytes);
    stats::record_link_retries(net.send_retries);
    stats::record_cluster_network_nanos(net.network_nanos);
    stats::record_halo_exchanges(report.halo_exchanges);

    let value = result?;
    Ok((value, report))
}

/// The coordinator's statement loop: loops too small to shard, and loops
/// the kernel compiler rejects (there is no kernel to ship), run in place
/// on the coordinator's tiers; everything else becomes a cluster epoch.
#[allow(clippy::too_many_arguments)]
fn drive(
    interp: &Interp<'_>,
    program: &Program,
    env: &mut Env,
    options: &ClusterOptions,
    plane: &ClusterPlane,
    injector: &Arc<FaultInjector>,
    to_nodes: &[Sender<NodeMsg>],
    from_rx: &Receiver<FromNode>,
    report: &mut ClusterReport,
) -> Result<Value, ExecError> {
    let threads = options.threads.max(1);
    let mut loop_idx = 0usize;
    for stmt in &program.body.stmts {
        match &stmt.def {
            Def::Loop(ml) => {
                let size = match interp_eval_size(interp, &ml.size, env)? {
                    n if n <= 0 => 0,
                    n => n,
                };
                // Same threshold, and the same kernel on the full
                // environment, as the single-node chunked executor.
                let kernel = if size < threads as i64 * 4 {
                    None
                } else {
                    compile::kernel_for(ml, env, interp.fuse_fingerprint())
                };
                let vals = match kernel {
                    Some(kernel) => run_epoch(
                        interp,
                        ml,
                        &kernel,
                        env,
                        loop_idx,
                        stmt.lhs.first().copied(),
                        size,
                        options,
                        plane,
                        injector,
                        to_nodes,
                        from_rx,
                        report,
                    )?,
                    None => {
                        report.coordinator_loops += 1;
                        interp.eval_loop_tiered(ml, env, true, true, false)?.0
                    }
                };
                for (s, v) in stmt.lhs.iter().zip(vals) {
                    env[s.0 as usize] = Some(v);
                }
                loop_idx += 1;
            }
            other => {
                let vals = interp.eval_def_internal(other, env)?;
                for (s, v) in stmt.lhs.iter().zip(vals) {
                    env[s.0 as usize] = Some(v);
                }
            }
        }
    }
    Ok(interp.eval_exp(&program.body.result, env)?)
}

/// One wait on the coordinator's inbox: the next node report, or `None`
/// on a poll tick. A node failure, the expired watchdog and a dead channel
/// come back as the typed error that ends the epoch.
fn next_report(
    from_rx: &Receiver<FromNode>,
    started_at: Instant,
    options: &ClusterOptions,
) -> Result<Option<FromNode>, ExecError> {
    match from_rx.recv_timeout(POLL) {
        Ok(FromNode::Failed(error)) => Err(node_error(error, started_at.elapsed(), options)),
        Ok(report) => Ok(Some(report)),
        Err(RecvTimeoutError::Timeout) if started_at.elapsed() < options.watchdog => Ok(None),
        Err(_) => Err(deadline_error(started_at.elapsed(), options)),
    }
}

/// Environment slots a task of `ml` can read: its free symbols plus the
/// loop size. These are what a node needs staged.
fn loop_read_slots(ml: &Multiloop) -> Vec<usize> {
    let mut reads: BTreeSet<usize> = compile::loop_free_syms(ml)
        .iter()
        .map(|s| s.0 as usize)
        .collect();
    if let Exp::Sym(s) = &ml.size {
        reads.insert(s.0 as usize);
    }
    reads.into_iter().collect()
}

/// Execute one multiloop as a cluster epoch: place, stage, dispatch,
/// speculate, recover, shuffle, assemble.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    interp: &Interp<'_>,
    ml: &Multiloop,
    kernel: &Arc<Kernel>,
    env: &mut Env,
    loop_idx: usize,
    loop_sym: Option<Sym>,
    size: i64,
    options: &ClusterOptions,
    plane: &ClusterPlane,
    injector: &Arc<FaultInjector>,
    to_nodes: &[Sender<NodeMsg>],
    from_rx: &Receiver<FromNode>,
    report: &mut ClusterReport,
) -> Result<Vec<Value>, ExecError> {
    let nodes = to_nodes.len();
    // Epoch boundary: deaths scheduled for this step fire before placement
    // sees the cluster, so dead nodes are never primaries.
    injector.advance_step();
    // Dead nodes as of the injector's current step, and the replanner's
    // avoid list built from them (dead first, then quarantined).
    let dead_now = || -> Vec<usize> {
        let mut dead = injector.failed_nodes();
        dead.retain(|&n| n < nodes);
        dead
    };
    let avoiding = |dead: &[usize]| -> Vec<usize> {
        let mut avoid = dead.to_vec();
        for &q in &options.quarantined {
            if q < nodes && !avoid.contains(&q) {
                avoid.push(q);
            }
        }
        avoid
    };
    let dead = dead_now();

    let directory = plane.directory(size);
    let node_map = plane.node_map(size);
    // The blind task plan and the mode, fixed once per epoch exactly as
    // the single-node chunked executor fixes them: the plan (not the node
    // count) decides fold order, and every execution of a task — primary,
    // speculative clone, lineage re-execution — runs the same way.
    let tasks = plan_tasks(size, options.threads);
    let batched = kernel.batchable;
    let tally = ChunkTally::default();

    // Home every task on the node owning its range start, then route the
    // homes through the shared replanner so dead and quarantined nodes
    // are avoided with the same policy recovery uses.
    let homes = SchedulePlan {
        chunks: tasks
            .iter()
            .map(|&(s, _e)| Chunk {
                node: node_map.region_of(s),
                socket: 0,
                core: 0,
                range: (s, _e),
            })
            .collect(),
        aligned_to_data: true,
        reassigned_chunks: 0,
    };
    let avoid = avoiding(&dead);
    let planned = homes
        .replan_avoiding(&avoid, &options.quarantined, plane.spec(), Some(&directory))
        .map_err(ExecError::from)?;
    let primary: Vec<usize> = planned.chunks.iter().map(|c| c.node).collect();
    let participants: Vec<usize> = (0..nodes)
        .filter(|n| !dead.contains(n) && !options.quarantined.contains(n))
        .collect();

    let lplan: Option<&LoopPlan> = options
        .plan
        .as_deref()
        .zip(loop_sym)
        .and_then(|(p, s)| p.loop_plan(s));
    if let Some(lp) = lplan {
        if lp.fallbacks > 0 {
            stats::record_stencil_fallbacks(lp.fallbacks as u64);
        }
    }
    let reads = loop_read_slots(ml);

    let mut node_tasks: Vec<Vec<(usize, (i64, i64))>> = vec![Vec::new(); nodes];
    for (t, chunk) in planned.chunks.iter().enumerate() {
        node_tasks[chunk.node].push((t, chunk.range));
    }

    // Message ids namespace the loop's traffic for the injector's
    // per-attempt flake hashing.
    let mut seq: u64 = (loop_idx as u64) << 32;

    // --- Stage ---------------------------------------------------------
    // Broadcast slots go to every participant (reducer captures are read
    // by shuffle owners that may hold no tasks); partitioned windows only
    // to nodes with tasks, margins charged as neighbor sends.
    for &n in &participants {
        let hull = node_tasks[n]
            .iter()
            .fold(None, |h: Option<(i64, i64)>, &(_, (s, e))| match h {
                None => Some((s, e)),
                Some((hs, he)) => Some((hs.min(s), he.max(e))),
            });
        for &slot in &reads {
            let Some(v) = env.get(slot).and_then(|v| v.as_ref()) else {
                continue;
            };
            let placement = lplan.and_then(|lp| lp.placements.get(&Sym(slot as u32)).copied());
            let (staged, bytes) = match (placement, v, hull) {
                (
                    Some(Placement::Partitioned { halo_lo, halo_hi }),
                    Value::Arr(arr),
                    Some((hs, he)),
                ) if arr.len() as i64 == size => {
                    let ws = (hs - halo_lo as i64).max(0);
                    let we = (he + halo_hi as i64).min(size);
                    // Halo margins live on neighboring nodes; charge their
                    // transfer as a node-to-node exchange, not a
                    // coordinator broadcast.
                    if ws < hs {
                        let ln = node_map.region_of(ws);
                        if ln != n {
                            seq += 1;
                            plane
                                .send(ln, n, seq, (hs - ws) as u64 * elem_width(arr))
                                .map_err(ExecError::from)?;
                            report.halo_exchanges += 1;
                        }
                    }
                    if we > he {
                        let rn = node_map.region_of(we - 1);
                        if rn != n {
                            seq += 1;
                            plane
                                .send(rn, n, seq, (we - he) as u64 * elem_width(arr))
                                .map_err(ExecError::from)?;
                            report.halo_exchanges += 1;
                        }
                    }
                    window_array(arr, ws, we)
                }
                _ => (v.clone(), value_bytes(v)),
            };
            seq += 1;
            plane.send(0, n, seq, bytes).map_err(ExecError::from)?;
            let _ = to_nodes[n].send(NodeMsg::Stage {
                slot,
                value: staged,
            });
            report.staged_values += 1;
        }
    }

    // --- Dispatch ------------------------------------------------------
    for &n in &participants {
        if node_tasks[n].is_empty() {
            continue;
        }
        seq += 1;
        plane
            .send(0, n, seq, 16 + 24 * node_tasks[n].len() as u64)
            .map_err(ExecError::from)?;
        let _ = to_nodes[n].send(NodeMsg::Execute {
            loop_idx,
            kernel: kernel.clone(),
            batched,
            tasks: node_tasks[n].clone(),
            patches: Vec::new(),
        });
    }
    report.tasks += tasks.len() as u64;

    // A speculative clone or a lineage re-execution: task `t` alone on
    // `target`, with partition patches standing in for the windows that
    // node was never staged.
    let env_now: &Env = env;
    let rerun = |t: usize, target: usize, seq: u64| -> Result<(), ExecError> {
        let (patches, patch_bytes) = partition_patches(env_now, &reads, lplan, size, tasks[t]);
        plane
            .send(0, target, seq, 40 + patch_bytes)
            .map_err(ExecError::from)?;
        let _ = to_nodes[target].send(NodeMsg::Execute {
            loop_idx,
            kernel: kernel.clone(),
            batched,
            tasks: vec![(t, tasks[t])],
            patches,
        });
        Ok(())
    };

    // --- Ack loop with straggler speculation ---------------------------
    let started_at = Instant::now();
    let mut acked: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
    let mut done = 0usize;
    let mut latencies: Vec<u64> = Vec::new();
    let mut spec_target: Vec<Option<usize>> = vec![None; tasks.len()];
    let started: Vec<Instant> = vec![started_at; tasks.len()];
    let mut spec_cursor = 0usize;
    while done < tasks.len() {
        // A straggling clone from a previous epoch may ack here; counting
        // it would let this epoch finish with a task that never ran.
        if let Some(FromNode::MapDone {
            node,
            loop_idx: li,
            task,
            nanos,
            element_loop,
        }) = next_report(from_rx, started_at, options)?
        {
            if li == loop_idx && task < tasks.len() {
                if acked[task].is_empty() {
                    done += 1;
                    latencies.push(nanos);
                    if spec_target[task] == Some(node) {
                        report.speculation_wins += 1;
                        stats::record_speculation_win();
                    }
                }
                acked[task].push(node);
                if element_loop {
                    tally.element_loop.store(true, Ordering::Relaxed);
                }
            }
        }
        if options.speculation.enabled && participants.len() > 1 {
            if let Some(cutoff) = options.speculation.cutoff_nanos(&latencies) {
                let cutoff = Duration::from_nanos(cutoff);
                for t in 0..tasks.len() {
                    if !acked[t].is_empty()
                        || spec_target[t].is_some()
                        || started[t].elapsed() <= cutoff
                    {
                        continue;
                    }
                    let candidates: Vec<usize> = participants
                        .iter()
                        .copied()
                        .filter(|&n| n != primary[t])
                        .collect();
                    if candidates.is_empty() {
                        continue;
                    }
                    let target = candidates[spec_cursor % candidates.len()];
                    spec_cursor += 1;
                    seq += 1;
                    rerun(t, target, seq)?;
                    spec_target[t] = Some(target);
                    report.speculative_tasks += 1;
                    stats::record_speculation_launch();
                }
            }
        }
    }

    // --- Pre-shuffle boundary: deaths fire, lost shards recover --------
    injector.advance_step();
    let dead2 = dead_now();
    let survivors: Vec<usize> = participants
        .iter()
        .copied()
        .filter(|n| !dead2.contains(n))
        .collect();
    let mut holder: Vec<Option<usize>> = acked
        .iter()
        .map(|execs| execs.iter().copied().find(|n| !dead2.contains(n)))
        .collect();
    let lost: Vec<usize> = (0..tasks.len()).filter(|&t| holder[t].is_none()).collect();
    if !lost.is_empty() {
        if survivors.is_empty() {
            return Err(ExecError::Runtime(RuntimeError::NoSurvivors));
        }
        // Lineage recovery: the lost tasks' inputs are pure functions of
        // the staged environment, so re-running them on survivors (with
        // partition patches standing in for the dead nodes' windows)
        // reproduces the shards bit-identically.
        let lost_plan = SchedulePlan {
            chunks: lost
                .iter()
                .map(|&t| Chunk {
                    node: acked[t].first().copied().unwrap_or(primary[t]),
                    socket: 0,
                    core: 0,
                    range: tasks[t],
                })
                .collect(),
            aligned_to_data: false,
            reassigned_chunks: 0,
        };
        let avoid = avoiding(&dead2);
        let recovery = lost_plan
            .replan_avoiding(&avoid, &options.quarantined, plane.spec(), Some(&directory))
            .map_err(ExecError::from)?;
        for (i, chunk) in recovery.chunks.iter().enumerate() {
            let t = lost[i];
            seq += 1;
            rerun(t, chunk.node, seq)?;
        }
        report.lineage_recoveries += lost.len() as u64;
        stats::record_lineage_recoveries(lost.len() as u64);
        let mut pending: BTreeSet<usize> = lost.iter().copied().collect();
        while !pending.is_empty() {
            if let Some(FromNode::MapDone {
                node,
                loop_idx: li,
                task,
                ..
            }) = next_report(from_rx, started_at, options)?
            {
                if li != loop_idx {
                    continue;
                }
                if pending.remove(&task) {
                    holder[task] = Some(node);
                }
                if task < acked.len() {
                    acked[task].push(node);
                }
            }
        }
    }

    // --- Shuffle -------------------------------------------------------
    report.cluster_loops += 1;
    stats::record_cluster_loop();
    let bucketed = ml
        .gens
        .iter()
        .any(|g| matches!(g, Gen::BucketCollect { .. } | Gen::BucketReduce { .. }));
    if bucketed {
        report.shuffles += 1;
        stats::record_cluster_shuffle();
    }
    // Every task has exactly one live holder; speculation duplicates are
    // never emitted twice because only the designated holder's copy is in
    // an emit list.
    let mut emit: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    for (t, h) in holder.iter().enumerate().take(tasks.len()) {
        let h = h.expect("every task has a live holder after recovery");
        emit[h].push(t);
    }
    for &n in &survivors {
        seq += 1;
        plane
            .send(0, n, seq, 16 + 8 * emit[n].len() as u64)
            .map_err(ExecError::from)?;
        let _ = to_nodes[n].send(NodeMsg::Shuffle {
            loop_idx,
            kernel: kernel.clone(),
            participants: survivors.clone(),
            emit: emit[n].clone(),
        });
    }

    let mut per_gen_plain: Vec<BTreeMap<usize, KAcc>> =
        (0..ml.gens.len()).map(|_| BTreeMap::new()).collect();
    let mut merged_all: Vec<Vec<BucketColumns>> =
        (0..ml.gens.len()).map(|_| Vec::new()).collect();
    let mut waiting: BTreeSet<usize> = survivors.iter().copied().collect();
    while !waiting.is_empty() {
        if let Some(FromNode::ShuffleDone {
            node,
            loop_idx: li,
            plain,
            merged,
        }) = next_report(from_rx, started_at, options)?
        {
            if li == loop_idx && waiting.remove(&node) {
                for (gi, t, acc) in plain {
                    per_gen_plain[gi].insert(t, acc);
                }
                for m in merged {
                    merged_all[m.gen].push(m);
                }
            }
        }
    }

    // --- Assemble ------------------------------------------------------
    // The single-node finish: plain generators stitch their per-task
    // accumulators in ascending task order; a bucket generator arrives
    // already merged per key and is sealed as one accumulator.
    let mut st = kernel.new_state(env, interp.externs())?;
    let mut outs = Vec::with_capacity(ml.gens.len());
    for (gi, gen) in ml.gens.iter().enumerate() {
        outs.push(
            if matches!(gen, Gen::BucketCollect { .. } | Gen::BucketReduce { .. }) {
                let mut owners = std::mem::take(&mut merged_all[gi]);
                // (first_task, first_pos) is the order a sequential walk
                // first sees each key, so the rebuilt bucket order is
                // bit-identical to the single-node tiers.
                let mut order: Vec<(usize, usize, usize, usize)> = Vec::new();
                for (oi, m) in owners.iter().enumerate() {
                    let slots = m.origin.iter().enumerate();
                    order.extend(slots.map(|(slot, &(t, p))| (t, p, oi, slot)));
                }
                order.sort_unstable();
                let mut acc = KAcc::for_gen(&kernel.gens[gi], 0);
                for (_, _, oi, slot) in order {
                    acc.push_bucket_from(&mut owners[oi].acc, slot)?;
                }
                finish_gen(kernel, gi, std::iter::once(acc), &mut st)?
            } else {
                let accs = std::mem::take(&mut per_gen_plain[gi]);
                finish_gen(kernel, gi, accs.into_values(), &mut st)?
            },
        );
    }
    tally.note_ineligible(kernel, true);
    report.compiled_loops += 1;
    if tally.record_served(batched, size, started_at.elapsed()) == LoopTier::Batched {
        report.batched_loops += 1;
    }
    Ok(outs)
}

/// A node: a task worker whose queue is its inbox. It owns its staged
/// environment and the accumulators of the tasks it ran; all cross-node
/// data arrives by message, and there is no shared mutable state between
/// nodes.
struct Node<'a> {
    k: usize,
    env: Env,
    externs: &'a Externs,
    /// Task accumulators, keyed by (loop, task): a stale entry from a
    /// superseded speculative run in one epoch must never be emitted as a
    /// later epoch's result for the same task index.
    held: BTreeMap<(usize, usize), Vec<KAcc>>,
    /// Peer columns that raced ahead of our own Shuffle message; consumed
    /// (and stale ones discarded) when the shuffle for their loop starts.
    early_peers: Vec<(usize, Vec<BucketColumns>)>,
    rx: Receiver<NodeMsg>,
    peers: Vec<Sender<NodeMsg>>,
    coord: Sender<FromNode>,
    plane: ClusterPlane,
    watchdog: Duration,
    seq: u64,
}

impl Node<'_> {
    /// The inbox loop. A failed phase is reported once; the node then
    /// keeps serving its inbox until the coordinator shuts it down.
    fn run(mut self) {
        while let Ok(msg) = self.rx.recv() {
            let outcome = match msg {
                NodeMsg::Stage { slot, value } => {
                    if slot < self.env.len() {
                        self.env[slot] = Some(value);
                    }
                    Ok(())
                }
                NodeMsg::Execute {
                    loop_idx,
                    kernel,
                    batched,
                    tasks,
                    patches,
                } => self.execute(loop_idx, &kernel, batched, tasks, patches),
                NodeMsg::Shuffle {
                    loop_idx,
                    kernel,
                    participants,
                    emit,
                } => {
                    let outcome = self.shuffle(loop_idx, &kernel, &participants, &emit);
                    // Everything this loop held (including superseded
                    // speculative copies never emitted) is dead after its
                    // shuffle; epochs are serialized, so `<=` is safe.
                    self.held.retain(|&(li, _), _| li > loop_idx);
                    self.early_peers.retain(|&(li, _)| li > loop_idx);
                    match outcome {
                        Ok(true) => Ok(()),
                        Ok(false) => return,
                        Err(e) => Err(e),
                    }
                }
                NodeMsg::Peer { loop_idx, parts } => {
                    // A peer got its Shuffle message first and raced its
                    // columns here before ours arrived; hold them.
                    self.early_peers.push((loop_idx, parts));
                    Ok(())
                }
                NodeMsg::Shutdown => return,
            };
            if let Err(error) = outcome {
                let _ = self.coord.send(FromNode::Failed(error));
            }
        }
    }

    /// Charge a `bytes`-sized message to `to` through the network model.
    fn charge(&mut self, to: usize, bytes: u64) -> Result<(), NodeError> {
        self.seq += 1;
        self.plane
            .send(self.k, to, self.seq, bytes)
            .map(|_| ())
            .map_err(NodeError::Runtime)
    }

    /// Run `tasks` through the shared task runner and hold their
    /// accumulators. A task that panics is caught there and reported as
    /// the typed error the single-node executor gives once its retries are
    /// spent — a panic here is deterministic, so the node spends none.
    fn execute(
        &mut self,
        loop_idx: usize,
        kernel: &Kernel,
        batched: bool,
        tasks: Vec<(usize, (i64, i64))>,
        patches: Vec<(usize, Value)>,
    ) -> Result<(), NodeError> {
        // Patched runs (speculation, recovery) overlay a clone so the
        // node's own staged windows stay intact for its primary tasks.
        let overlay;
        let env = if patches.is_empty() {
            &self.env
        } else {
            let mut patched = self.env.clone();
            for (slot, v) in patches {
                if slot < patched.len() {
                    patched[slot] = Some(v);
                }
            }
            overlay = patched;
            &overlay
        };
        // The register state binds free variables from `env` when it is
        // built, so it lives for this message only.
        let mut state = None;
        let tally = ChunkTally::default();
        for (t, range) in tasks {
            let t0 = Instant::now();
            let accs = execute_chunk_kernel(
                kernel,
                env,
                self.externs,
                &mut state,
                batched,
                None,
                &tally,
                range,
                t,
                false,
                false,
            )
            .map_err(|failure| {
                NodeError::Eval(match failure {
                    ChunkFailure::Eval(e) => e,
                    ChunkFailure::Died(message) => EvalError::ChunkRetriesExhausted {
                        chunk: t,
                        attempts: 1,
                        message,
                    },
                })
            })?;
            self.held.insert((loop_idx, t), accs);
            let mut nanos = t0.elapsed().as_nanos() as u64;
            let slow = self.plane.injector().straggler_slowdown(self.k, 0, 0);
            if slow > 1.0 {
                let extra = (nanos as f64 * (slow - 1.0)) as u64;
                std::thread::sleep(Duration::from_nanos(extra.min(STRAGGLER_SLEEP_CAP_NANOS)));
                nanos = nanos.saturating_add(extra);
            }
            // (`charge` would borrow all of `self`; `env` may be `self.env`.)
            self.seq += 1;
            self.plane
                .send(self.k, 0, self.seq, 32)
                .map_err(NodeError::Runtime)?;
            let _ = self.coord.send(FromNode::MapDone {
                node: self.k,
                loop_idx,
                task: t,
                nanos,
                element_loop: tally.element_loop.load(Ordering::Relaxed),
            });
        }
        Ok(())
    }

    /// Drain one shuffle. `Ok(false)` means the coordinator shut the node
    /// down mid-exchange.
    fn shuffle(
        &mut self,
        loop_idx: usize,
        kernel: &Kernel,
        participants: &[usize],
        emit: &[usize],
    ) -> Result<bool, NodeError> {
        let n_parts = participants.len();

        // Route held bucket entries to their key owners as typed columns;
        // plain accumulators go straight to the coordinator.
        let mut per_owner: Vec<Vec<BucketColumns>> = (0..n_parts).map(|_| Vec::new()).collect();
        let mut plain: Vec<(usize, usize, KAcc)> = Vec::new();
        for &t in emit {
            let accs = self.held.remove(&(loop_idx, t)).ok_or_else(|| {
                NodeError::Eval(EvalError::TypeMismatch(
                    "cluster shuffle holder missing task accumulators".into(),
                ))
            })?;
            for (gi, mut acc) in accs.into_iter().enumerate() {
                if !matches!(acc, KAcc::BCol { .. } | KAcc::BRed { .. }) {
                    plain.push((gi, t, acc));
                    continue;
                }
                let mut parts: Vec<Option<BucketColumns>> = (0..n_parts).map(|_| None).collect();
                let mut pos = 0;
                while let Some(key) = acc.bucket_key(pos) {
                    let part = parts[key_owner(&Key(key), n_parts)].get_or_insert_with(|| {
                        BucketColumns {
                            gen: gi,
                            acc: KAcc::for_gen(&kernel.gens[gi], 0),
                            origin: Vec::new(),
                        }
                    });
                    part.acc
                        .push_bucket_from(&mut acc, pos)
                        .map_err(NodeError::Eval)?;
                    part.origin.push((t, pos));
                    pos += 1;
                }
                for (oi, part) in parts.into_iter().enumerate() {
                    per_owner[oi].extend(part);
                }
            }
        }

        // Exchange: one Peer message to every participant (including
        // ourselves, through the same charged path minus the network hop),
        // then gather exactly one from each.
        for (oi, parts) in per_owner.into_iter().enumerate() {
            let target = participants[oi];
            self.charge(target, parts.iter().map(|p| wire_bytes(&p.acc)).sum())?;
            let _ = self.peers[target].send(NodeMsg::Peer { loop_idx, parts });
        }
        let mut gathered: Vec<BucketColumns> = Vec::new();
        let mut received = 0usize;
        // Columns that beat our Shuffle message were buffered by the inbox
        // loop; count the ones for this loop, discard older epochs'.
        self.early_peers.retain_mut(|(li, parts)| {
            if *li == loop_idx {
                gathered.append(parts);
                received += 1;
                false
            } else {
                *li > loop_idx
            }
        });
        let deadline = Instant::now() + self.watchdog;
        while received < n_parts {
            match self
                .rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(NodeMsg::Peer { loop_idx: li, parts }) => {
                    if li == loop_idx {
                        gathered.extend(parts);
                        received += 1;
                    }
                    // An older epoch's stragglers are dead data; drop them.
                }
                Ok(NodeMsg::Shutdown) => return Ok(false),
                Ok(_) => {
                    // The coordinator sends nothing else until the shuffle
                    // completes; tolerate and drop strays.
                }
                Err(_) => return Err(NodeError::Stalled("shuffle peer exchange timed out")),
            }
        }

        // Owner-merge with the kernel's own merge, incoming columns in
        // ascending (generator, task) order and entries within one in
        // position order: per key that is the `(accumulated, incoming)`
        // operand sequence of the single-node stitch, whatever order the
        // channel delivered the columns in.
        gathered.sort_by_key(|p| (p.gen, p.origin[0].0));
        let mut merged: Vec<BucketColumns> = Vec::new();
        if !gathered.is_empty() {
            let mut st = kernel
                .new_state(&self.env, self.externs)
                .map_err(NodeError::Eval)?;
            for part in gathered {
                if merged.last().map(|m| m.gen) != Some(part.gen) {
                    merged.push(BucketColumns {
                        gen: part.gen,
                        acc: KAcc::for_gen(&kernel.gens[part.gen], 0),
                        origin: Vec::new(),
                    });
                }
                let m = merged.last_mut().expect("pushed above");
                let acc = std::mem::replace(&mut m.acc, KAcc::RedI(None));
                m.acc = kernel
                    .merge(part.gen, acc, part.acc, &mut st, |i| m.origin.push(part.origin[i]))
                    .map_err(NodeError::Eval)?;
            }
        }

        let bytes = plain.iter().map(|(_, _, a)| wire_bytes(a)).sum::<u64>()
            + merged.iter().map(|m| wire_bytes(&m.acc)).sum::<u64>();
        self.charge(0, bytes)?;
        let _ = self.coord.send(FromNode::ShuffleDone {
            node: self.k,
            loop_idx,
            plain,
            merged,
        });
        Ok(true)
    }
}

/// Deterministic key-to-owner mapping: `DefaultHasher` is SipHash with
/// fixed keys, so the same key always routes to the same participant
/// index on every node and every run.
fn key_owner(key: &Key, participants: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % participants.max(1) as u64) as usize
}

/// Partition patches for one task range: the windows a survivor needs to
/// re-execute or speculate a task it was not staged for. Only
/// `Partitioned` reads are patched; broadcast slots are already staged
/// everywhere.
fn partition_patches(
    env: &Env,
    reads: &[usize],
    lplan: Option<&LoopPlan>,
    size: i64,
    range: (i64, i64),
) -> (Vec<(usize, Value)>, u64) {
    let mut patches = Vec::new();
    let mut bytes = 0u64;
    for &slot in reads {
        let Some(Value::Arr(arr)) = env.get(slot).and_then(|v| v.as_ref()) else {
            continue;
        };
        let Some(Placement::Partitioned { halo_lo, halo_hi }) =
            lplan.and_then(|lp| lp.placements.get(&Sym(slot as u32)).copied())
        else {
            continue;
        };
        if arr.len() as i64 != size {
            continue;
        }
        let ws = (range.0 - halo_lo as i64).max(0);
        let we = (range.1 + halo_hi as i64).min(size);
        let (v, b) = window_array(arr, ws, we);
        patches.push((slot, v));
        bytes += b;
    }
    (patches, bytes)
}

/// A full-length copy of `arr` with only `[ws, we)` populated (defaults
/// elsewhere), preserving absolute indexing, plus the window's payload
/// bytes. Under-staging a window is caught by the bit-identity gate, not
/// masked: indices outside the window read the type's default.
fn window_array(arr: &ArrayVal, ws: i64, we: i64) -> (Value, u64) {
    let ws = ws.max(0) as usize;
    let we = we.max(0) as usize;
    let width = we.saturating_sub(ws) as u64;
    match arr {
        ArrayVal::I64(v) => {
            let mut out = vec![0i64; v.len()];
            out[ws..we.min(v.len())].copy_from_slice(&v[ws..we.min(v.len())]);
            (Value::Arr(ArrayVal::I64(Arc::new(out))), width * 8)
        }
        ArrayVal::F64(v) => {
            let mut out = vec![0f64; v.len()];
            out[ws..we.min(v.len())].copy_from_slice(&v[ws..we.min(v.len())]);
            (Value::Arr(ArrayVal::F64(Arc::new(out))), width * 8)
        }
        ArrayVal::Bool(v) => {
            let mut out = vec![false; v.len()];
            out[ws..we.min(v.len())].copy_from_slice(&v[ws..we.min(v.len())]);
            (Value::Arr(ArrayVal::Bool(Arc::new(out))), width)
        }
        ArrayVal::Boxed(v) => {
            let mut out = vec![Value::Unit; v.len()];
            let hi = we.min(v.len());
            let mut b = 0u64;
            for i in ws..hi {
                b += value_bytes(&v[i]);
                out[i] = v[i].clone();
            }
            (Value::Arr(ArrayVal::Boxed(Arc::new(out))), b)
        }
    }
}

/// Payload width of one array element, for transfer charging.
fn elem_width(arr: &ArrayVal) -> u64 {
    match arr {
        ArrayVal::I64(_) | ArrayVal::F64(_) | ArrayVal::Boxed(_) => 8,
        ArrayVal::Bool(_) => 1,
    }
}

/// Estimated wire size of a value, for transfer charging.
fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::I64(_) | Value::F64(_) => 8,
        Value::Bool(_) => 1,
        Value::Unit => 0,
        Value::Str(s) => s.len() as u64,
        Value::Tuple(vs) => 8 + vs.iter().map(value_bytes).sum::<u64>(),
        Value::Arr(arr) => array_bytes(arr),
        Value::Buckets(b) => {
            b.keys.iter().map(value_bytes).sum::<u64>()
                + b.vals.iter().map(value_bytes).sum::<u64>()
        }
        Value::Struct(s) => s.fields.iter().map(value_bytes).sum::<u64>(),
    }
}

/// Estimated wire size of an array payload.
fn array_bytes(arr: &ArrayVal) -> u64 {
    match arr {
        ArrayVal::I64(v) => 8 * v.len() as u64,
        ArrayVal::F64(v) => 8 * v.len() as u64,
        ArrayVal::Bool(v) => v.len() as u64,
        ArrayVal::Boxed(v) => v.iter().map(value_bytes).sum(),
    }
}

/// Estimated wire size of a typed accumulator: its buffers at their
/// element width, 8 bytes of header per collect buffer or reduce state, and
/// 24 bytes of routing tag per bucket entry.
fn wire_bytes(acc: &KAcc) -> u64 {
    fn col(buf: &ColBuf) -> u64 {
        8 + match buf {
            ColBuf::I(v) => 8 * v.len() as u64,
            ColBuf::F(v) => 8 * v.len() as u64,
            ColBuf::B(v) => v.len() as u64,
            ColBuf::V(v) => v.iter().map(value_bytes).sum(),
        }
    }
    let keys = |keys: &KeyIx| match keys {
        KeyIx::I { keys, .. } => 32 * keys.len() as u64,
        KeyIx::V { keys, .. } => keys.iter().map(|k| 24 + value_bytes(k)).sum(),
    };
    match acc {
        KAcc::Col(buf) => col(buf),
        KAcc::RedI(v) => 8 + 8 * u64::from(v.is_some()),
        KAcc::RedF(v) => 8 + 8 * u64::from(v.is_some()),
        KAcc::RedB(v) => 8 + u64::from(v.is_some()),
        KAcc::RedV(v) => 8 + v.as_ref().map_or(0, value_bytes),
        KAcc::BCol { keys: k, vals } => keys(k) + vals.iter().map(col).sum::<u64>(),
        KAcc::BRed { keys: k, vals } => {
            keys(k)
                + match vals {
                    RedBuf::I(v) => 8 * v.len() as u64,
                    RedBuf::F(v) => 8 * v.len() as u64,
                    RedBuf::B(v) => v.len() as u64,
                    RedBuf::V(v) => v.iter().map(value_bytes).sum(),
                }
        }
    }
}

/// Translate a node failure into the typed executor error.
fn node_error(error: NodeError, elapsed: Duration, options: &ClusterOptions) -> ExecError {
    match error {
        NodeError::Eval(e) => ExecError::Eval(e),
        NodeError::Runtime(e) => ExecError::Runtime(e),
        NodeError::Stalled(_) => deadline_error(elapsed, options),
    }
}

/// The watchdog fired: record and surface a typed deadline abort.
fn deadline_error(elapsed: Duration, options: &ClusterOptions) -> ExecError {
    stats::record_deadline_abort();
    ExecError::Deadline {
        deadline: options.watchdog,
        elapsed,
        partial: ExecReport::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::parallel::eval_parallel;
    use dmll_core::{LayoutHint, Ty};
    use dmll_frontend::Stage;

    /// A mixed program: an i64 map, an f64 sum (float fold-order
    /// identity), and a scalar combination of both.
    fn map_sum_program() -> (dmll_core::Program, Vec<(String, Value)>) {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::F64), LayoutHint::Partitioned);
        let doubled = st.map(&x, |st, e| {
            let two = st.lit_f(2.0);
            st.mul(e, &two)
        });
        let total = st.sum(&doubled);
        let base = st.sum(&x);
        let out = st.add(&total, &base);
        let p = st.finish(&out);
        let data: Vec<f64> = (0..2000).map(|i| (i as f64) * 0.37 - 111.0).collect();
        (p, vec![("x".to_string(), Value::f64_arr(data))])
    }

    /// A bucket program: keyed sums plus keyed collects, both shuffled.
    fn bucket_program() -> (dmll_core::Program, Vec<(String, Value)>) {
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let zero = st.lit_i(0);
        let sums = st.group_by_reduce(
            &x,
            |st, e| {
                let seven = st.lit_i(7);
                st.rem(e, &seven)
            },
            |_st, e| e.clone(),
            |st, a, b| st.add(a, b),
            Some(&zero),
        );
        let groups = st.group_by(&x, |st, e| {
            let five = st.lit_i(5);
            st.rem(e, &five)
        });
        let sk = st.bucket_keys(&sums);
        let sv = st.bucket_values(&sums);
        let gk = st.bucket_keys(&groups);
        let pair = st.tuple(&[&sk, &sv, &gk]);
        let p = st.finish(&pair);
        let data: Vec<i64> = (0..3000).map(|i| i * 13 % 101 - 17).collect();
        (p, vec![("x".to_string(), Value::i64_arr(data))])
    }

    fn borrowed(inputs: &[(String, Value)]) -> Vec<(&str, Value)> {
        inputs.iter().map(|(n, v)| (n.as_str(), v.clone())).collect()
    }

    #[test]
    fn cluster_matches_single_node_map_sum() {
        let (p, inputs) = map_sum_program();
        let b = borrowed(&inputs);
        // Float folds associate per task plan: the reference is the
        // single-node parallel tier at the same thread count, which pure
        // sequential evaluation does not reproduce bit-for-bit.
        let par = eval_parallel(&p, &b, 2).unwrap();
        let opts = ClusterOptions::new(4, 2);
        let (clu, report) = eval_cluster_measured(&p, &b, &opts).unwrap();
        assert_eq!(par, clu, "cluster output bit-identical to single-node");
        assert!(report.cluster_loops > 0, "large loops ran on the cluster");
        assert!(report.sends > 0, "staging and acks were charged");
    }

    #[test]
    fn cluster_bucket_shuffle_bit_identical() {
        let (p, inputs) = bucket_program();
        let b = borrowed(&inputs);
        let seq = eval(&p, &b).unwrap();
        let opts = ClusterOptions::new(4, 2);
        let (clu, report) = eval_cluster_measured(&p, &b, &opts).unwrap();
        assert_eq!(seq, clu, "shuffled buckets rebuild in first-seen order");
        assert!(report.shuffles > 0, "bucket loops drained a shuffle");
    }

    #[test]
    fn cluster_partitioned_plan_stages_windows() {
        let (mut p, inputs) = map_sum_program();
        let result = dmll_analysis::analyze(&mut p);
        let plan = Arc::new(dmll_analysis::export_plan(&result));
        let b = borrowed(&inputs);
        let par = eval_parallel(&p, &b, 2).unwrap();
        let opts = ClusterOptions::new(4, 2).with_plan(plan);
        let (clu, report) = eval_cluster_measured(&p, &b, &opts).unwrap();
        assert_eq!(par, clu, "windowed staging preserves absolute indexing");
        assert!(report.staged_values > 0);
    }

    #[test]
    fn cluster_node_death_recovers_via_lineage() {
        let (p, inputs) = bucket_program();
        let b = borrowed(&inputs);
        let seq = eval(&p, &b).unwrap();
        // Step 2 is the first epoch's pre-shuffle boundary: node 1 dies
        // holding its task results, forcing lineage re-execution.
        let faults = FaultPlan::new(7).kill_node(1, shuffle_step(0));
        let opts = ClusterOptions::new(4, 2).with_faults(faults);
        let (clu, report) = eval_cluster_measured(&p, &b, &opts).unwrap();
        assert_eq!(seq, clu, "recovered output bit-identical");
        assert!(
            report.lineage_recoveries > 0,
            "dead node's shards were re-executed: {report:?}"
        );
        assert!(report.node_deaths >= 1);
    }

    #[test]
    fn cluster_link_flakes_are_retried() {
        let (p, inputs) = map_sum_program();
        let b = borrowed(&inputs);
        let par = eval_parallel(&p, &b, 2).unwrap();
        let faults = FaultPlan::new(11).drop_remote_reads(0.2);
        let opts = ClusterOptions::new(4, 2).with_faults(faults);
        let (clu, report) = eval_cluster_measured(&p, &b, &opts).unwrap();
        assert_eq!(par, clu, "flaky links never change the answer");
        assert!(report.link_retries > 0, "some sends retried: {report:?}");
    }

    #[test]
    fn cluster_straggler_speculation_launches() {
        let (p, inputs) = map_sum_program();
        let b = borrowed(&inputs);
        let faults = FaultPlan::new(3).straggler(1, 0, 0, 10_000.0);
        let policy = SpeculationPolicy {
            enabled: true,
            min_samples: 3,
            percentile: 75.0,
            multiplier: 2.0,
            floor: Duration::from_micros(50),
        };
        let opts = ClusterOptions::new(4, 4)
            .with_faults(faults)
            .with_speculation(policy);
        let (clu, report) = eval_cluster_measured(&p, &b, &opts).unwrap();
        // Bit-identity must hold regardless of which copy won.
        let par = eval_parallel(&p, &b, 4).unwrap();
        assert_eq!(par, clu, "speculative duplicates never double-count");
        assert!(
            report.speculative_tasks >= 1,
            "straggler triggered a clone: {report:?}"
        );
    }

    #[test]
    fn cluster_certain_link_failure_surfaces_typed_error() {
        let (p, inputs) = map_sum_program();
        let b = borrowed(&inputs);
        let faults = FaultPlan::new(5).drop_remote_reads(1.0);
        let opts = ClusterOptions::new(4, 2).with_faults(faults);
        match eval_cluster_measured(&p, &b, &opts) {
            Err(ExecError::Runtime(
                RuntimeError::SendTimeout { .. } | RuntimeError::NodeFailed { .. },
            )) => {}
            other => panic!("expected a typed link failure, got {other:?}"),
        }
    }

    #[test]
    fn cluster_panicking_task_surfaces_typed_error_inside_the_watchdog() {
        // `i64::MIN / -1` panics inside the kernel. The shared task wrapper
        // catches it on the node; the caller gets the single-node
        // executor's typed error at once, not a watchdog expiry followed
        // by an unwinding scope join.
        let mut st = Stage::new();
        let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
        let negated = st.map(&x, |st, e| {
            let minus_one = st.lit_i(-1);
            st.div(e, &minus_one)
        });
        let total = st.sum(&negated);
        let p = st.finish(&total);
        let mut data: Vec<i64> = (0..2000).collect();
        data[1234] = i64::MIN;
        let inputs = [("x", Value::i64_arr(data))];
        let Err(EvalError::ChunkRetriesExhausted { message: single, .. }) =
            eval_parallel(&p, &inputs, 2)
        else {
            panic!("single-node executor reports the panic as a typed error");
        };
        let t0 = Instant::now();
        match eval_cluster_measured(&p, &inputs, &ClusterOptions::new(4, 2)) {
            Err(ExecError::Eval(EvalError::ChunkRetriesExhausted { message, .. })) => {
                assert_eq!(message, single);
            }
            other => panic!("expected the typed task failure, got {other:?}"),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "typed failure arrives well inside the 60 s watchdog: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn cluster_single_node_degenerates_cleanly() {
        let (p, inputs) = bucket_program();
        let b = borrowed(&inputs);
        let seq = eval(&p, &b).unwrap();
        let opts = ClusterOptions::new(1, 2);
        let (clu, report) = eval_cluster_measured(&p, &b, &opts).unwrap();
        assert_eq!(seq, clu);
        assert_eq!(report.nodes, 1);
    }
}
