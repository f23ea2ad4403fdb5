//! Measured cluster execution: sharded multiloops over N simulated nodes.
//!
//! Each node is a thread with its own interpreter and persistent
//! environment; nodes exchange state by message passing only, and every
//! inter-node message is charged through the [`ClusterPlane`] network
//! model (latency + bandwidth, seeded link flakes, capped-backoff
//! retries). The coordinator stages inputs according to the analysis
//! [`Placement`] plan (partitioned windows with halo exchange, or
//! broadcast), dispatches directory-homed tasks, recovers shards lost to
//! node deaths by lineage re-execution on survivors, speculates against
//! stragglers, and drains a real shuffle phase for bucket generators.
//!
//! Bit-identity with the single-node tiers is structural, not accidental:
//! nodes execute tasks with the tree-walking interpreter over the *same*
//! blind task plan as the single-node chunked executor, per-task
//! accumulators fold in ascending task order through the same
//! [`merge_pair`] merge, and shuffled buckets reassemble in global
//! first-seen key order. The differential tests and the cluster chaos
//! gate in `bench` pin this equality under injected node deaths, link
//! flakes, and speculation.

// Same contract as `parallel.rs`: `ExecError` embeds the partial
// `ExecReport` inline in its abort variants, and the Err path only fires
// on watchdog/fault aborts — boxing it would trade a cold-path copy for
// an allocation and break the by-value contract.
#![allow(clippy::result_large_err)]

use crate::error::{EvalError, ExecError};
use crate::eval::{Acc, Env, Interp};
use crate::parallel::{interp_eval_size, loop_touched_slots, merge_pair, plan_tasks, ExecReport};
use crate::stats;
use crate::value::{ArrayVal, Key, Value};
use dmll_core::{Def, Gen, Multiloop, Program, Sym};
use dmll_runtime::{
    Chunk, ClusterPlane, ClusterSpec, FaultInjector, FaultPlan, LoopPlan, Placement, ProgramPlan,
    RetryPolicy, RuntimeError, SchedulePlan, SpeculationPolicy,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
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
    /// Run `tasks` of loop `loop_idx`; `patches` overlay staged slots for
    /// speculative clones and lineage re-execution without clobbering the
    /// node's own windows.
    Execute {
        loop_idx: usize,
        tasks: Vec<(usize, (i64, i64))>,
        patches: Vec<(usize, Value)>,
    },
    /// Drain the shuffle for loop `loop_idx`: emit held accs for `emit`
    /// tasks, exchange bucket items with `participants`, owner-merge, and
    /// report to the coordinator.
    Shuffle {
        loop_idx: usize,
        participants: Vec<usize>,
        emit: Vec<usize>,
    },
    /// Bucket items hash-routed here by a shuffle peer. Tagged with the
    /// loop so a fast peer's items, arriving before this node has even
    /// processed its own `Shuffle` message, are buffered — not dropped —
    /// and items from an aborted earlier epoch are discarded.
    Peer {
        loop_idx: usize,
        items: Vec<PeerItem>,
    },
    /// Tear down the node thread.
    Shutdown,
}

/// One keyed bucket entry in flight between shuffle peers.
struct PeerItem {
    gen: usize,
    task: usize,
    pos: usize,
    key: Value,
    val: PeerVal,
}

/// Bucket payload: a reduced value or a collected run.
#[derive(Clone)]
enum PeerVal {
    Reduced(Value),
    Collected(Vec<Value>),
}

/// A key's merged state on its shuffle owner, tagged with the globally
/// first task/position that emitted it so the coordinator can rebuild
/// first-seen key order.
struct MergedBucket {
    key: Value,
    val: PeerVal,
    first_task: usize,
    first_pos: usize,
}

/// A node-to-coordinator report. Every variant that can race across
/// epoch boundaries carries its loop index: a speculative clone or a
/// recovery re-execution from epoch `e` may ack while the coordinator is
/// already collecting epoch `e+1`, and an untagged ack would corrupt the
/// later epoch's task accounting.
enum FromNode {
    /// Task `task` of loop `loop_idx` finished on `node` in `nanos`
    /// simulated time.
    MapDone {
        node: usize,
        loop_idx: usize,
        task: usize,
        nanos: u64,
    },
    /// Shuffle for loop `loop_idx` drained on `node`: plain per-task accs
    /// it held, and merged buckets it owns, both keyed by generator index.
    ShuffleDone {
        node: usize,
        loop_idx: usize,
        plain: Vec<(usize, Vec<(usize, Acc)>)>,
        merged: Vec<(usize, Vec<MergedBucket>)>,
    },
    /// `node` hit an unrecoverable error.
    Failed {
        /// Reporting node; carried for protocol completeness (the typed
        /// error itself already names the failing link or node).
        #[allow(dead_code)]
        node: usize,
        error: NodeError,
    },
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
            let peers = to_nodes.clone();
            let coord = from_tx.clone();
            let node_plane = plane.clone();
            let watchdog = options.watchdog;
            scope.spawn(move || {
                node_main(k, program, fingerprint, rx, peers, coord, node_plane, watchdog);
            });
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

/// The coordinator's statement loop: small loops run in place, everything
/// else becomes a cluster epoch.
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
                let vals = if size < threads as i64 * 4 {
                    // Same threshold as the single-node supervised path:
                    // not worth sharding, run on the coordinator's tiers.
                    report.coordinator_loops += 1;
                    let (out, _tier) = interp.eval_loop_tiered(ml, env, true, true, false)?;
                    out
                } else {
                    run_epoch(
                        interp,
                        ml,
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
                    )?
                };
                for (s, v) in stmt.lhs.iter().zip(vals) {
                    env[s.0 as usize] = Some(v);
                }
                loop_idx += 1;
            }
            other => {
                let vals = interp.eval_def_owned(other, env)?;
                for (s, v) in stmt.lhs.iter().zip(vals) {
                    env[s.0 as usize] = Some(v);
                }
            }
        }
    }
    Ok(interp.eval_exp(&program.body.result, env)?)
}

/// Execute one multiloop as a cluster epoch: place, stage, dispatch,
/// speculate, recover, shuffle, assemble.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    interp: &Interp<'_>,
    ml: &Multiloop,
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
    let dead: Vec<usize> = injector
        .failed_nodes()
        .into_iter()
        .filter(|&n| n < nodes)
        .collect();

    let directory = plane.directory(size);
    let node_map = plane.node_map(size);
    let tasks = plan_tasks(size, options.threads);

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
    let mut avoid: Vec<usize> = dead.clone();
    for &q in &options.quarantined {
        if q < nodes && !avoid.contains(&q) {
            avoid.push(q);
        }
    }
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
    let (reads, _writes) = loop_touched_slots(ml);

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
            tasks: node_tasks[n].clone(),
            patches: Vec::new(),
        });
    }
    report.tasks += tasks.len() as u64;

    // --- Ack loop with straggler speculation ---------------------------
    let started_at = Instant::now();
    let deadline = started_at + options.watchdog;
    let mut acked: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
    let mut done = 0usize;
    let mut latencies: Vec<u64> = Vec::new();
    let mut spec_target: Vec<Option<usize>> = vec![None; tasks.len()];
    let started: Vec<Instant> = vec![started_at; tasks.len()];
    let mut spec_cursor = 0usize;
    while done < tasks.len() {
        match from_rx.recv_timeout(POLL) {
            Ok(FromNode::MapDone {
                node,
                loop_idx: li,
                task,
                nanos,
            }) => {
                // A straggling clone from a previous epoch may ack here;
                // counting it would let this epoch finish with a task that
                // never actually ran.
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
                }
            }
            Ok(FromNode::Failed { error, .. }) => {
                return Err(node_error(error, started_at.elapsed(), options));
            }
            Ok(FromNode::ShuffleDone { .. }) => {}
            Err(RecvTimeoutError::Timeout) => {
                if Instant::now() >= deadline {
                    return Err(deadline_error(started_at.elapsed(), options));
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(deadline_error(started_at.elapsed(), options));
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
                    let (patches, patch_bytes) =
                        partition_patches(env, &reads, lplan, size, tasks[t]);
                    seq += 1;
                    plane
                        .send(0, target, seq, 40 + patch_bytes)
                        .map_err(ExecError::from)?;
                    let _ = to_nodes[target].send(NodeMsg::Execute {
                        loop_idx,
                        tasks: vec![(t, tasks[t])],
                        patches,
                    });
                    spec_target[t] = Some(target);
                    report.speculative_tasks += 1;
                    stats::record_speculation_launch();
                }
            }
        }
    }

    // --- Pre-shuffle boundary: deaths fire, lost shards recover --------
    injector.advance_step();
    let dead2: Vec<usize> = injector
        .failed_nodes()
        .into_iter()
        .filter(|&n| n < nodes)
        .collect();
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
        let mut avoid2: Vec<usize> = dead2.clone();
        for &q in &options.quarantined {
            if q < nodes && !avoid2.contains(&q) {
                avoid2.push(q);
            }
        }
        let recovery = lost_plan
            .replan_avoiding(&avoid2, &options.quarantined, plane.spec(), Some(&directory))
            .map_err(ExecError::from)?;
        for (i, chunk) in recovery.chunks.iter().enumerate() {
            let t = lost[i];
            let (patches, patch_bytes) = partition_patches(env, &reads, lplan, size, tasks[t]);
            seq += 1;
            plane
                .send(0, chunk.node, seq, 40 + patch_bytes)
                .map_err(ExecError::from)?;
            let _ = to_nodes[chunk.node].send(NodeMsg::Execute {
                loop_idx,
                tasks: vec![(t, tasks[t])],
                patches,
            });
        }
        report.lineage_recoveries += lost.len() as u64;
        stats::record_lineage_recoveries(lost.len() as u64);
        let mut pending: BTreeSet<usize> = lost.iter().copied().collect();
        while !pending.is_empty() {
            match from_rx.recv_timeout(POLL) {
                Ok(FromNode::MapDone {
                    node,
                    loop_idx: li,
                    task,
                    ..
                }) => {
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
                Ok(FromNode::Failed { error, .. }) => {
                    return Err(node_error(error, started_at.elapsed(), options));
                }
                Ok(FromNode::ShuffleDone { .. }) => {}
                Err(RecvTimeoutError::Timeout) => {
                    if Instant::now() >= deadline {
                        return Err(deadline_error(started_at.elapsed(), options));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(deadline_error(started_at.elapsed(), options));
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
            participants: survivors.clone(),
            emit: emit[n].clone(),
        });
    }

    let mut per_gen_plain: Vec<BTreeMap<usize, Acc>> =
        (0..ml.gens.len()).map(|_| BTreeMap::new()).collect();
    let mut merged_all: Vec<Vec<MergedBucket>> = (0..ml.gens.len()).map(|_| Vec::new()).collect();
    let mut waiting: BTreeSet<usize> = survivors.iter().copied().collect();
    while !waiting.is_empty() {
        match from_rx.recv_timeout(POLL) {
            Ok(FromNode::ShuffleDone {
                node,
                loop_idx: li,
                plain,
                merged,
            }) => {
                if li == loop_idx && waiting.remove(&node) {
                    for (gi, accs) in plain {
                        for (t, acc) in accs {
                            per_gen_plain[gi].insert(t, acc);
                        }
                    }
                    for (gi, mks) in merged {
                        merged_all[gi].extend(mks);
                    }
                }
            }
            Ok(FromNode::MapDone { .. }) => {}
            Ok(FromNode::Failed { error, .. }) => {
                return Err(node_error(error, started_at.elapsed(), options));
            }
            Err(RecvTimeoutError::Timeout) => {
                if Instant::now() >= deadline {
                    return Err(deadline_error(started_at.elapsed(), options));
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(deadline_error(started_at.elapsed(), options));
            }
        }
    }

    // --- Assemble ------------------------------------------------------
    let mut outs = Vec::with_capacity(ml.gens.len());
    for (gi, gen) in ml.gens.iter().enumerate() {
        let acc = if matches!(gen, Gen::BucketCollect { .. } | Gen::BucketReduce { .. }) {
            let mut mks = std::mem::take(&mut merged_all[gi]);
            // (first_task, first_pos) is the order a sequential walk first
            // sees each key, so the rebuilt bucket order is bit-identical
            // to the single-node tiers.
            mks.sort_by_key(|m| (m.first_task, m.first_pos));
            rebuild_acc(gen, mks)?
        } else {
            let mut folded: Option<Acc> = None;
            for (_t, acc) in std::mem::take(&mut per_gen_plain[gi]) {
                folded = Some(match folded {
                    None => acc,
                    Some(f) => merge_pair(interp, gen, f, acc, env)?,
                });
            }
            folded.unwrap_or_else(|| Acc::for_gen(gen))
        };
        outs.push(interp.seal_acc_owned(gen, acc, env)?);
    }
    Ok(outs)
}

/// The node thread: stage, execute, shuffle against its own interpreter
/// and persistent environment. All cross-node data arrives by message;
/// there is no shared mutable state between nodes.
#[allow(clippy::too_many_arguments)]
fn node_main(
    k: usize,
    program: &Program,
    fingerprint: u64,
    rx: Receiver<NodeMsg>,
    peers: Vec<Sender<NodeMsg>>,
    coord: Sender<FromNode>,
    plane: ClusterPlane,
    watchdog: Duration,
) {
    let interp = Interp::new(program).with_fuse_fingerprint(fingerprint);
    let mut env: Env = vec![None; program.next_sym_id() as usize];
    let loops: Vec<&Multiloop> = program
        .body
        .stmts
        .iter()
        .filter_map(|s| match &s.def {
            Def::Loop(ml) => Some(ml),
            _ => None,
        })
        .collect();
    // Task accumulators are keyed by (loop, task): a stale entry from a
    // superseded speculative run in one epoch must never be emitted as a
    // later epoch's result for the same task index.
    let mut held: BTreeMap<(usize, usize), Vec<Acc>> = BTreeMap::new();
    // Peer items that raced ahead of our own Shuffle message; consumed
    // (and stale ones discarded) when the shuffle for their loop starts.
    let mut early_peers: Vec<(usize, Vec<PeerItem>)> = Vec::new();
    let mut seq: u64 = (k as u64) << 48;

    while let Ok(msg) = rx.recv() {
        match msg {
            NodeMsg::Stage { slot, value } => {
                if slot < env.len() {
                    env[slot] = Some(value);
                }
            }
            NodeMsg::Execute {
                loop_idx,
                tasks,
                patches,
            } => {
                let Some(ml) = loops.get(loop_idx).copied() else {
                    let _ = coord.send(FromNode::Failed {
                        node: k,
                        error: NodeError::Eval(EvalError::TypeMismatch(
                            "cluster execute references unknown loop".into(),
                        )),
                    });
                    continue;
                };
                // Patched runs (speculation, recovery) overlay a clone so
                // the node's own staged windows stay intact for its
                // primary tasks.
                let mut overlay;
                let env_ref: &mut Env = if patches.is_empty() {
                    &mut env
                } else {
                    overlay = env.clone();
                    for (slot, v) in patches {
                        if slot < overlay.len() {
                            overlay[slot] = Some(v);
                        }
                    }
                    &mut overlay
                };
                let mut failed = false;
                for (t, (s, e)) in tasks {
                    let t0 = Instant::now();
                    match interp.eval_loop_accs_owned(ml, env_ref, s, Some(e)) {
                        Ok(accs) => {
                            held.insert((loop_idx, t), accs);
                            let mut nanos = t0.elapsed().as_nanos() as u64;
                            let slow = plane.injector().straggler_slowdown(k, 0, 0);
                            if slow > 1.0 {
                                let extra = (nanos as f64 * (slow - 1.0)) as u64;
                                std::thread::sleep(Duration::from_nanos(
                                    extra.min(STRAGGLER_SLEEP_CAP_NANOS),
                                ));
                                nanos = nanos.saturating_add(extra);
                            }
                            seq += 1;
                            match plane.send(k, 0, seq, 32) {
                                Ok(_) => {
                                    let _ = coord.send(FromNode::MapDone {
                                        node: k,
                                        loop_idx,
                                        task: t,
                                        nanos,
                                    });
                                }
                                Err(e) => {
                                    let _ = coord.send(FromNode::Failed {
                                        node: k,
                                        error: NodeError::Runtime(e),
                                    });
                                    failed = true;
                                }
                            }
                        }
                        Err(e) => {
                            let _ = coord.send(FromNode::Failed {
                                node: k,
                                error: NodeError::Eval(e),
                            });
                            failed = true;
                        }
                    }
                    if failed {
                        break;
                    }
                }
            }
            NodeMsg::Shuffle {
                loop_idx,
                participants,
                emit,
            } => {
                let Some(ml) = loops.get(loop_idx).copied() else {
                    let _ = coord.send(FromNode::Failed {
                        node: k,
                        error: NodeError::Eval(EvalError::TypeMismatch(
                            "cluster shuffle references unknown loop".into(),
                        )),
                    });
                    continue;
                };
                if !node_shuffle(
                    k,
                    &interp,
                    ml,
                    loop_idx,
                    &mut env,
                    &mut held,
                    &mut early_peers,
                    &participants,
                    &emit,
                    &peers,
                    &coord,
                    &plane,
                    &rx,
                    watchdog,
                    &mut seq,
                ) {
                    // The failure was already reported; drain back to the
                    // inbox loop and wait for Shutdown.
                }
                // Everything this loop held (including superseded
                // speculative copies never emitted) is dead after its
                // shuffle; epochs are serialized, so `<=` is safe.
                held.retain(|&(li, _), _| li > loop_idx);
                early_peers.retain(|&(li, _)| li > loop_idx);
            }
            NodeMsg::Peer { loop_idx, items } => {
                // A peer got its Shuffle message first and raced its items
                // here before ours arrived; hold them for that shuffle.
                early_peers.push((loop_idx, items));
            }
            NodeMsg::Shutdown => return,
        }
    }
}

/// Drain one shuffle on node `k`. Returns `false` after reporting a
/// failure to the coordinator.
#[allow(clippy::too_many_arguments)]
fn node_shuffle(
    k: usize,
    interp: &Interp<'_>,
    ml: &Multiloop,
    loop_idx: usize,
    env: &mut Env,
    held: &mut BTreeMap<(usize, usize), Vec<Acc>>,
    early_peers: &mut Vec<(usize, Vec<PeerItem>)>,
    participants: &[usize],
    emit: &[usize],
    peers: &[Sender<NodeMsg>],
    coord: &Sender<FromNode>,
    plane: &ClusterPlane,
    rx: &Receiver<NodeMsg>,
    watchdog: Duration,
    seq: &mut u64,
) -> bool {
    let n_parts = participants.len();
    let fail = |error: NodeError| {
        let _ = coord.send(FromNode::Failed { node: k, error });
        false
    };

    // Partition held bucket entries by key owner; plain accs go straight
    // to the coordinator.
    let mut per_owner: Vec<Vec<PeerItem>> = (0..n_parts).map(|_| Vec::new()).collect();
    let mut plain: Vec<(usize, Vec<(usize, Acc)>)> = (0..ml.gens.len())
        .filter(|gi| {
            !matches!(
                ml.gens[*gi],
                Gen::BucketCollect { .. } | Gen::BucketReduce { .. }
            )
        })
        .map(|gi| (gi, Vec::new()))
        .collect();
    for &t in emit {
        let Some(accs) = held.remove(&(loop_idx, t)) else {
            return fail(NodeError::Eval(EvalError::TypeMismatch(
                "cluster shuffle holder missing task accumulators".into(),
            )));
        };
        for (gi, acc) in accs.into_iter().enumerate() {
            match acc {
                Acc::BucketReduce { keys, vals, .. } => {
                    for (pos, (key, val)) in keys.into_iter().zip(vals).enumerate() {
                        let oi = key_owner(&Key(key.clone()), n_parts);
                        per_owner[oi].push(PeerItem {
                            gen: gi,
                            task: t,
                            pos,
                            key,
                            val: PeerVal::Reduced(val),
                        });
                    }
                }
                Acc::BucketCollect { keys, vals, .. } => {
                    for (pos, (key, val)) in keys.into_iter().zip(vals).enumerate() {
                        let oi = key_owner(&Key(key.clone()), n_parts);
                        per_owner[oi].push(PeerItem {
                            gen: gi,
                            task: t,
                            pos,
                            key,
                            val: PeerVal::Collected(val),
                        });
                    }
                }
                other => {
                    if let Some(slot) = plain.iter_mut().find(|(g, _)| *g == gi) {
                        slot.1.push((t, other));
                    }
                }
            }
        }
    }

    // Exchange: one Peer message to every participant (including
    // ourselves, through the same charged path minus the network hop),
    // then gather exactly one from each.
    for (oi, items) in per_owner.into_iter().enumerate() {
        let target = participants[oi];
        let bytes: u64 = items
            .iter()
            .map(|it| 24 + value_bytes(&it.key) + peer_val_bytes(&it.val))
            .sum();
        *seq += 1;
        match plane.send(k, target, *seq, bytes) {
            Ok(_) => {
                let _ = peers[target].send(NodeMsg::Peer { loop_idx, items });
            }
            Err(e) => return fail(NodeError::Runtime(e)),
        }
    }
    let mut gathered: Vec<PeerItem> = Vec::new();
    let mut received = 0usize;
    // Items that beat our Shuffle message were buffered by the inbox
    // loop; count the ones for this loop, discard older epochs'.
    early_peers.retain_mut(|(li, items)| {
        if *li == loop_idx {
            gathered.append(items);
            received += 1;
            false
        } else {
            *li > loop_idx
        }
    });
    let deadline = Instant::now() + watchdog;
    while received < n_parts {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(NodeMsg::Peer { loop_idx: li, items }) => {
                if li == loop_idx {
                    gathered.extend(items);
                    received += 1;
                }
                // An older epoch's stragglers are dead data; drop them.
            }
            Ok(NodeMsg::Shutdown) => return false,
            Ok(_) => {
                // The coordinator sends nothing else until the shuffle
                // completes; tolerate and drop strays.
            }
            Err(_) => return fail(NodeError::Stalled("shuffle peer exchange timed out")),
        }
    }

    // Owner-merge in deterministic (gen, task, pos) order, neutralizing
    // mpsc arrival nondeterminism; per-key folds therefore happen in task
    // order, matching the single-node pairwise chunk-order fold.
    gathered.sort_by_key(|it| (it.gen, it.task, it.pos));
    let mut merged: Vec<(usize, Vec<MergedBucket>)> = Vec::new();
    let mut gi_start = 0usize;
    while gi_start < gathered.len() {
        let gi = gathered[gi_start].gen;
        let mut end = gi_start;
        while end < gathered.len() && gathered[end].gen == gi {
            end += 1;
        }
        let mut index: HashMap<Key, usize> = HashMap::new();
        let mut out: Vec<MergedBucket> = Vec::new();
        for it in &gathered[gi_start..end] {
            match index.get(&Key(it.key.clone())) {
                Some(&slot) => {
                    let cur = &mut out[slot];
                    match (&mut cur.val, it.val.clone()) {
                        (PeerVal::Reduced(c), PeerVal::Reduced(v)) => {
                            let Some(reducer) = ml.gens[gi].reducer() else {
                                return fail(NodeError::Eval(EvalError::TypeMismatch(
                                    "bucket-reduce gen without reducer".into(),
                                )));
                            };
                            match interp.eval_block_owned(reducer, &[c.clone(), v], env) {
                                Ok(folded) => *c = folded,
                                Err(e) => return fail(NodeError::Eval(e)),
                            }
                        }
                        (PeerVal::Collected(c), PeerVal::Collected(v)) => {
                            c.extend(v);
                        }
                        _ => {
                            return fail(NodeError::Eval(EvalError::TypeMismatch(
                                "mismatched bucket payloads across shuffle peers".into(),
                            )));
                        }
                    }
                }
                None => {
                    index.insert(Key(it.key.clone()), out.len());
                    out.push(MergedBucket {
                        key: it.key.clone(),
                        val: it.val.clone(),
                        first_task: it.task,
                        first_pos: it.pos,
                    });
                }
            }
        }
        merged.push((gi, out));
        gi_start = end;
    }

    let plain: Vec<(usize, Vec<(usize, Acc)>)> =
        plain.into_iter().filter(|(_, v)| !v.is_empty()).collect();
    let bytes: u64 = plain
        .iter()
        .flat_map(|(_, v)| v.iter())
        .map(|(_, a)| acc_bytes(a))
        .sum::<u64>()
        + merged
            .iter()
            .flat_map(|(_, v)| v.iter())
            .map(|m| 24 + value_bytes(&m.key) + peer_val_bytes(&m.val))
            .sum::<u64>();
    *seq += 1;
    match plane.send(k, 0, *seq, bytes) {
        Ok(_) => {
            let _ = coord.send(FromNode::ShuffleDone {
                node: k,
                loop_idx,
                plain,
                merged,
            });
            true
        }
        Err(e) => fail(NodeError::Runtime(e)),
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

/// Rebuild a bucket accumulator from globally ordered merged buckets.
fn rebuild_acc(gen: &Gen, mks: Vec<MergedBucket>) -> Result<Acc, EvalError> {
    match gen {
        Gen::BucketReduce { .. } => {
            let mut keys = Vec::with_capacity(mks.len());
            let mut vals = Vec::with_capacity(mks.len());
            let mut index = HashMap::with_capacity(mks.len());
            for m in mks {
                let PeerVal::Reduced(v) = m.val else {
                    return Err(EvalError::TypeMismatch(
                        "collected payload in bucket-reduce shuffle".into(),
                    ));
                };
                index.insert(Key(m.key.clone()), keys.len());
                keys.push(m.key);
                vals.push(v);
            }
            Ok(Acc::BucketReduce { keys, vals, index })
        }
        Gen::BucketCollect { .. } => {
            let mut keys = Vec::with_capacity(mks.len());
            let mut vals = Vec::with_capacity(mks.len());
            let mut index = HashMap::with_capacity(mks.len());
            for m in mks {
                let PeerVal::Collected(v) = m.val else {
                    return Err(EvalError::TypeMismatch(
                        "reduced payload in bucket-collect shuffle".into(),
                    ));
                };
                index.insert(Key(m.key.clone()), keys.len());
                keys.push(m.key);
                vals.push(v);
            }
            Ok(Acc::BucketCollect { keys, vals, index })
        }
        _ => Err(EvalError::TypeMismatch(
            "shuffle merge for a non-bucket generator".into(),
        )),
    }
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

/// Estimated wire size of an accumulator in flight to the coordinator.
fn acc_bytes(acc: &Acc) -> u64 {
    match acc {
        Acc::Collect(vs) => 8 + vs.iter().map(value_bytes).sum::<u64>(),
        Acc::Reduce(v) => 8 + v.as_ref().map_or(0, value_bytes),
        Acc::BucketCollect { keys, vals, .. } => {
            keys.iter().map(value_bytes).sum::<u64>()
                + vals
                    .iter()
                    .map(|v| v.iter().map(value_bytes).sum::<u64>())
                    .sum::<u64>()
        }
        Acc::BucketReduce { keys, vals, .. } => {
            keys.iter().map(value_bytes).sum::<u64>()
                + vals.iter().map(value_bytes).sum::<u64>()
        }
    }
}

/// Estimated wire size of a bucket payload.
fn peer_val_bytes(v: &PeerVal) -> u64 {
    match v {
        PeerVal::Reduced(v) => value_bytes(v),
        PeerVal::Collected(vs) => 8 + vs.iter().map(value_bytes).sum::<u64>(),
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
