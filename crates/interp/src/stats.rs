//! Process-wide execution-tier counters.
//!
//! The interpreter is invoked from many call sites (direct `run`, parallel
//! chunks, benches), so tier accounting lives in atomics rather than being
//! threaded through every call. `dmll-runtime` mirrors these numbers into
//! its profiling report via [`TierTotals`]; see
//! `crates/runtime/src/profile.rs`.

use crate::compile::BatchIneligible;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

static KERNELS_COMPILED: AtomicU64 = AtomicU64::new(0);
static KERNEL_CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static FALLBACK_LOOPS: AtomicU64 = AtomicU64::new(0);
static COMPILE_NANOS: AtomicU64 = AtomicU64::new(0);

static COMPILED_LOOPS: AtomicU64 = AtomicU64::new(0);
static COMPILED_ELEMENTS: AtomicU64 = AtomicU64::new(0);
static COMPILED_NANOS: AtomicU64 = AtomicU64::new(0);

static TREEWALK_LOOPS: AtomicU64 = AtomicU64::new(0);
static TREEWALK_ELEMENTS: AtomicU64 = AtomicU64::new(0);
static TREEWALK_NANOS: AtomicU64 = AtomicU64::new(0);

static BATCHED_LOOPS: AtomicU64 = AtomicU64::new(0);
static BATCHED_ELEMENTS: AtomicU64 = AtomicU64::new(0);
static BATCHED_NANOS: AtomicU64 = AtomicU64::new(0);
static BATCHED_BLOCKS: AtomicU64 = AtomicU64::new(0);
static TAIL_ELEMENTS: AtomicU64 = AtomicU64::new(0);
static SIMD_BLOCKS: AtomicU64 = AtomicU64::new(0);
static SEGMENTED_BLOCKS: AtomicU64 = AtomicU64::new(0);
static SCATTER_LOOPS: AtomicU64 = AtomicU64::new(0);

static NATIVE_LOOPS: AtomicU64 = AtomicU64::new(0);
static NATIVE_ELEMENTS: AtomicU64 = AtomicU64::new(0);
static NATIVE_NANOS: AtomicU64 = AtomicU64::new(0);
static NATIVE_COMPILES: AtomicU64 = AtomicU64::new(0);
static NATIVE_COMPILE_NANOS: AtomicU64 = AtomicU64::new(0);
static NATIVE_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static NATIVE_FALLBACK_REASONS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

static TASKS_STOLEN: AtomicU64 = AtomicU64::new(0);
static CACHE_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static NEGATIVE_HITS: AtomicU64 = AtomicU64::new(0);

static SPECULATIVE_LAUNCHES: AtomicU64 = AtomicU64::new(0);
static SPECULATION_WINS: AtomicU64 = AtomicU64::new(0);
static QUARANTINE_TRIPS: AtomicU64 = AtomicU64::new(0);
static DEADLINE_ABORTS: AtomicU64 = AtomicU64::new(0);
static CANCELLED_ABORTS: AtomicU64 = AtomicU64::new(0);

static FUSION_APPLIED: AtomicU64 = AtomicU64::new(0);
static FUSION_REJECTED: AtomicU64 = AtomicU64::new(0);
static BATCH_INELIGIBLE: AtomicU64 = AtomicU64::new(0);
static BATCH_REJECT_REASONS: Mutex<BTreeMap<BatchIneligible, u64>> = Mutex::new(BTreeMap::new());

static CLUSTER_LOOPS: AtomicU64 = AtomicU64::new(0);
static CLUSTER_SHUFFLES: AtomicU64 = AtomicU64::new(0);
static SHUFFLE_SENDS: AtomicU64 = AtomicU64::new(0);
static SHUFFLE_BYTES: AtomicU64 = AtomicU64::new(0);
static LINK_RETRIES: AtomicU64 = AtomicU64::new(0);
static LINEAGE_RECOVERIES: AtomicU64 = AtomicU64::new(0);
static HALO_EXCHANGES: AtomicU64 = AtomicU64::new(0);
static CLUSTER_NETWORK_NANOS: AtomicU64 = AtomicU64::new(0);

static SHARDED_LOOPS: AtomicU64 = AtomicU64::new(0);
static STENCIL_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static PARTITION_WARNINGS: AtomicU64 = AtomicU64::new(0);
static REGION_LOCAL_TASKS: AtomicU64 = AtomicU64::new(0);
static CROSS_REGION_STEALS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn record_compile(d: Duration) {
    KERNELS_COMPILED.fetch_add(1, Ordering::Relaxed);
    COMPILE_NANOS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

pub(crate) fn record_cache_hit() {
    KERNEL_CACHE_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_fallback() {
    FALLBACK_LOOPS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_compiled(elements: u64, d: Duration) {
    COMPILED_LOOPS.fetch_add(1, Ordering::Relaxed);
    COMPILED_ELEMENTS.fetch_add(elements, Ordering::Relaxed);
    COMPILED_NANOS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

pub(crate) fn record_treewalk(elements: u64, d: Duration) {
    TREEWALK_LOOPS.fetch_add(1, Ordering::Relaxed);
    TREEWALK_ELEMENTS.fetch_add(elements, Ordering::Relaxed);
    TREEWALK_NANOS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

/// A top-level loop executed block-at-a-time. Batched loops are a subset of
/// compiled loops: callers record both, so `batched_* <= compiled_*`.
pub(crate) fn record_batched(elements: u64, d: Duration) {
    BATCHED_LOOPS.fetch_add(1, Ordering::Relaxed);
    BATCHED_ELEMENTS.fetch_add(elements, Ordering::Relaxed);
    BATCHED_NANOS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

/// Full blocks and scalar-tail elements from one `run_range_batched` call.
pub(crate) fn record_batched_range(blocks: u64, tail_elements: u64) {
    BATCHED_BLOCKS.fetch_add(blocks, Ordering::Relaxed);
    TAIL_ELEMENTS.fetch_add(tail_elements, Ordering::Relaxed);
}

/// Per-element block executions that took the full-width lane-chunked
/// (SIMD-lowered) path — no selection vector, all [`BLOCK`] lanes live.
///
/// [`BLOCK`]: crate::compile::batch::BLOCK
pub(crate) fn record_simd_blocks(n: u64) {
    SIMD_BLOCKS.fetch_add(n, Ordering::Relaxed);
}

/// Flattened-chunk executions of segmented nested loops (variable per-lane
/// trip counts, CSR-style flattening; see `crate::compile::batch`).
pub(crate) fn record_segmented_blocks(n: u64) {
    SEGMENTED_BLOCKS.fetch_add(n, Ordering::Relaxed);
}

/// A loop range served by the dedicated AoS→SoA scatter path: typed
/// column extraction with no per-element bytecode dispatch.
pub(crate) fn record_scatter_loop() {
    SCATTER_LOOPS.fetch_add(1, Ordering::Relaxed);
}

/// A top-level loop that ran through a compiled-and-`dlopen`ed native
/// kernel. Native loops are a subset of compiled loops, disjoint from
/// batched loops (a loop runs one or the other).
pub(crate) fn record_native(elements: u64, d: Duration) {
    NATIVE_LOOPS.fetch_add(1, Ordering::Relaxed);
    NATIVE_ELEMENTS.fetch_add(elements, Ordering::Relaxed);
    NATIVE_NANOS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

/// One kernel emitted, compiled by the system C compiler, and loaded.
pub(crate) fn record_native_compile(d: Duration) {
    NATIVE_COMPILES.fetch_add(1, Ordering::Relaxed);
    NATIVE_COMPILE_NANOS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

/// A native-tier request that fell back to the batched tier, with the
/// typed decline's stable key (see `dmll_codegen::NativeIneligible`).
pub(crate) fn record_native_fallback(reason: &'static str) {
    NATIVE_FALLBACKS.fetch_add(1, Ordering::Relaxed);
    *NATIVE_FALLBACK_REASONS.lock().unwrap().entry(reason).or_insert(0) += 1;
}

/// Snapshot of native-tier decline reasons seen so far, keyed by the
/// typed `NativeIneligible` taxonomy's stable identifiers.
pub fn native_fallback_reasons() -> BTreeMap<&'static str, u64> {
    NATIVE_FALLBACK_REASONS.lock().unwrap().clone()
}

pub(crate) fn record_steals(n: u64) {
    TASKS_STOLEN.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn record_eviction() {
    CACHE_EVICTIONS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_negative_hit() {
    NEGATIVE_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_speculation_launch() {
    SPECULATIVE_LAUNCHES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_speculation_win() {
    SPECULATION_WINS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_quarantine_trips(n: u64) {
    QUARANTINE_TRIPS.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn record_deadline_abort() {
    DEADLINE_ABORTS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_cancelled_abort() {
    CANCELLED_ABORTS.fetch_add(1, Ordering::Relaxed);
}

/// Fusion rewrites the pre-compile hook applied / declined to this run's
/// program (taken from the cached rewrite report, once per execution).
pub(crate) fn record_fusion(applied: u64, rejected: u64) {
    FUSION_APPLIED.fetch_add(applied, Ordering::Relaxed);
    FUSION_REJECTED.fetch_add(rejected, Ordering::Relaxed);
}

/// A compiled loop, offered to the batched tier, that ran the element loop
/// instead, with the certifier's (or the run-time decline's) typed reason.
pub(crate) fn record_batch_ineligible(reason: BatchIneligible) {
    BATCH_INELIGIBLE.fetch_add(1, Ordering::Relaxed);
    *BATCH_REJECT_REASONS.lock().unwrap().entry(reason).or_insert(0) += 1;
}

/// Snapshot of batch-certification rejection reasons seen so far, with
/// per-reason loop-execution counts, keyed by the typed
/// [`BatchIneligible`] taxonomy (use [`BatchIneligible::key`] for a
/// stable JSON identifier).
pub fn batch_reject_reasons() -> BTreeMap<BatchIneligible, u64> {
    BATCH_REJECT_REASONS.lock().unwrap().clone()
}

/// One top-level loop executed on the measured cluster data plane.
pub(crate) fn record_cluster_loop() {
    CLUSTER_LOOPS.fetch_add(1, Ordering::Relaxed);
}

/// One cluster epoch that ran a real shuffle phase.
pub(crate) fn record_cluster_shuffle() {
    CLUSTER_SHUFFLES.fetch_add(1, Ordering::Relaxed);
}

/// Inter-node traffic from one cluster epoch: messages and payload bytes.
pub(crate) fn record_cluster_traffic(sends: u64, bytes: u64) {
    SHUFFLE_SENDS.fetch_add(sends, Ordering::Relaxed);
    SHUFFLE_BYTES.fetch_add(bytes, Ordering::Relaxed);
}

/// Cluster sends retried after an injected link flake.
pub(crate) fn record_link_retries(n: u64) {
    LINK_RETRIES.fetch_add(n, Ordering::Relaxed);
}

/// Tasks re-executed on survivors after a node died holding their results.
pub(crate) fn record_lineage_recoveries(n: u64) {
    LINEAGE_RECOVERIES.fetch_add(n, Ordering::Relaxed);
}

/// Halo margins exchanged for stencil reads during partitioned staging.
pub(crate) fn record_halo_exchanges(n: u64) {
    HALO_EXCHANGES.fetch_add(n, Ordering::Relaxed);
}

/// Simulated nanoseconds charged through the cluster network model.
pub(crate) fn record_cluster_network_nanos(n: u64) {
    CLUSTER_NETWORK_NANOS.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn record_sharded_loop() {
    SHARDED_LOOPS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_stencil_fallbacks(n: u64) {
    STENCIL_FALLBACKS.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn record_partition_warnings(n: u64) {
    PARTITION_WARNINGS.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn record_region_local_tasks(n: u64) {
    REGION_LOCAL_TASKS.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn record_cross_region_steals(n: u64) {
    CROSS_REGION_STEALS.fetch_add(n, Ordering::Relaxed);
}

/// A snapshot of the tier counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierTotals {
    /// Multiloops lowered to bytecode (cache misses that compiled).
    pub kernels_compiled: u64,
    /// Kernel-cache hits.
    pub kernel_cache_hits: u64,
    /// Multiloops the compiler rejected (ran on the tree-walker).
    pub fallback_loops: u64,
    /// Total time spent compiling, in nanoseconds.
    pub compile_nanos: u64,
    /// Top-level loop executions on the compiled tier.
    pub compiled_loops: u64,
    /// Elements traversed by the compiled tier.
    pub compiled_elements: u64,
    /// Wall time of compiled-tier loop execution, in nanoseconds.
    pub compiled_nanos: u64,
    /// Top-level loop executions on the tree-walking tier.
    pub treewalk_loops: u64,
    /// Elements traversed by the tree-walking tier.
    pub treewalk_elements: u64,
    /// Wall time of tree-walking loop execution, in nanoseconds.
    pub treewalk_nanos: u64,
    /// Compiled loops that executed block-at-a-time (subset of
    /// `compiled_loops`).
    pub batched_loops: u64,
    /// Elements traversed by batched loop executions.
    pub batched_elements: u64,
    /// Wall time of batched loop execution, in nanoseconds (also counted
    /// in `compiled_nanos`).
    pub batched_nanos: u64,
    /// Full-width blocks executed by the batched tier.
    pub batched_blocks: u64,
    /// Elements handled by the scalar-tail path of batched executions.
    pub tail_elements: u64,
    /// Per-element block executions that ran the full-width lane-chunked
    /// (SIMD-lowered) path — all lanes live, no selection vector.
    pub simd_blocks: u64,
    /// Flattened iteration-space chunks executed by segmented nested loops
    /// (variable per-lane trip counts batched via CSR-style flattening).
    pub segmented_blocks: u64,
    /// Loop ranges served by the dedicated AoS→SoA scatter fast path
    /// (typed field extraction from a boxed struct array).
    pub scatter_loops: u64,
    /// Top-level loop executions on the native (compiled C) tier.
    pub native_loops: u64,
    /// Elements traversed by the native tier.
    pub native_elements: u64,
    /// Wall time of native-tier loop execution, in nanoseconds (also
    /// counted in `compiled_nanos`).
    pub native_nanos: u64,
    /// Kernels emitted as C, compiled, and `dlopen`ed.
    pub native_compiles: u64,
    /// Total time spent invoking the system C compiler, in nanoseconds.
    pub native_compile_nanos: u64,
    /// Native-tier requests that fell back to the batched tier (see
    /// [`native_fallback_reasons`] for the why).
    pub native_fallbacks: u64,
    /// Block-granular tasks executed by a worker other than their owner.
    pub tasks_stolen: u64,
    /// Kernel-cache entries evicted (LRU).
    pub cache_evictions: u64,
    /// Cache hits on negative (rejected-compilation) entries.
    pub negative_hits: u64,
    /// Speculative task clones launched against stragglers.
    pub speculative_launches: u64,
    /// Speculative clones whose result was recorded first.
    pub speculation_wins: u64,
    /// Worker circuit-breaker trips (quarantine entries).
    pub quarantine_trips: u64,
    /// Supervised runs aborted by their wall-clock deadline.
    pub deadline_aborts: u64,
    /// Supervised runs aborted by cancellation.
    pub cancelled_aborts: u64,
    /// Loop executions scheduled by the partitioned data plane (tasks had
    /// home regions).
    pub sharded_loops: u64,
    /// Per-loop collection reads served from the shared path because their
    /// stencil was `Unknown` (§4.2's "fall back to runtime data movement").
    pub stencil_fallbacks: u64,
    /// Partition-analysis warnings attached to executed access plans.
    pub partition_warnings: u64,
    /// Sharded tasks executed inside their home region.
    pub region_local_tasks: u64,
    /// Sharded tasks stolen across a region boundary (only after the
    /// thief's own region ran dry).
    pub cross_region_steals: u64,
    /// Fusion rewrites applied by the pre-compile hook (per executed run).
    pub fusion_applied: u64,
    /// Fusion candidates the cost model declined (per executed run).
    pub fusion_rejected: u64,
    /// Compiled-loop executions offered to the batched tier that ran the
    /// element-at-a-time bytecode loop instead: batch certification
    /// rejected the kernel, or the run declined (see
    /// [`batch_reject_reasons`] for the why). Loops the scatter path served
    /// are not counted.
    pub batch_ineligible: u64,
    /// Top-level loops executed on the measured cluster data plane
    /// (directory-partitioned tasks over N simulated nodes).
    pub cluster_loops: u64,
    /// Cluster epochs that ran a real shuffle phase (bucket outputs
    /// hash-partitioned to owner nodes).
    pub cluster_shuffles: u64,
    /// Inter-node messages sent by cluster epochs (staging, acks,
    /// shuffle, recovery).
    pub shuffle_sends: u64,
    /// Payload bytes moved by those messages.
    pub shuffle_bytes: u64,
    /// Cluster sends retried after an injected link flake.
    pub link_retries: u64,
    /// Tasks re-executed on survivors after losing a node's held results
    /// (lineage recovery).
    pub lineage_recoveries: u64,
    /// Halo margins exchanged between neighbouring nodes for stencil
    /// reads during partitioned staging.
    pub halo_exchanges: u64,
    /// Simulated nanoseconds charged through the cluster network model.
    pub cluster_network_nanos: u64,
}

impl TierTotals {
    /// Elements per second on the compiled tier, if it ran at all.
    pub fn compiled_elements_per_sec(&self) -> Option<f64> {
        rate(self.compiled_elements, self.compiled_nanos)
    }

    /// Elements per second on the tree-walking tier, if it ran at all.
    pub fn treewalk_elements_per_sec(&self) -> Option<f64> {
        rate(self.treewalk_elements, self.treewalk_nanos)
    }

    /// Elements per second on the batched sub-tier, if it ran at all.
    pub fn batched_elements_per_sec(&self) -> Option<f64> {
        rate(self.batched_elements, self.batched_nanos)
    }

    /// Elements per second on the native tier, if it ran at all.
    pub fn native_elements_per_sec(&self) -> Option<f64> {
        rate(self.native_elements, self.native_nanos)
    }
}

fn rate(elements: u64, nanos: u64) -> Option<f64> {
    if nanos == 0 {
        None
    } else {
        Some(elements as f64 * 1e9 / nanos as f64)
    }
}

/// Read the current counter values.
pub fn tier_totals() -> TierTotals {
    TierTotals {
        kernels_compiled: KERNELS_COMPILED.load(Ordering::Relaxed),
        kernel_cache_hits: KERNEL_CACHE_HITS.load(Ordering::Relaxed),
        fallback_loops: FALLBACK_LOOPS.load(Ordering::Relaxed),
        compile_nanos: COMPILE_NANOS.load(Ordering::Relaxed),
        compiled_loops: COMPILED_LOOPS.load(Ordering::Relaxed),
        compiled_elements: COMPILED_ELEMENTS.load(Ordering::Relaxed),
        compiled_nanos: COMPILED_NANOS.load(Ordering::Relaxed),
        treewalk_loops: TREEWALK_LOOPS.load(Ordering::Relaxed),
        treewalk_elements: TREEWALK_ELEMENTS.load(Ordering::Relaxed),
        treewalk_nanos: TREEWALK_NANOS.load(Ordering::Relaxed),
        batched_loops: BATCHED_LOOPS.load(Ordering::Relaxed),
        batched_elements: BATCHED_ELEMENTS.load(Ordering::Relaxed),
        batched_nanos: BATCHED_NANOS.load(Ordering::Relaxed),
        batched_blocks: BATCHED_BLOCKS.load(Ordering::Relaxed),
        tail_elements: TAIL_ELEMENTS.load(Ordering::Relaxed),
        simd_blocks: SIMD_BLOCKS.load(Ordering::Relaxed),
        segmented_blocks: SEGMENTED_BLOCKS.load(Ordering::Relaxed),
        scatter_loops: SCATTER_LOOPS.load(Ordering::Relaxed),
        native_loops: NATIVE_LOOPS.load(Ordering::Relaxed),
        native_elements: NATIVE_ELEMENTS.load(Ordering::Relaxed),
        native_nanos: NATIVE_NANOS.load(Ordering::Relaxed),
        native_compiles: NATIVE_COMPILES.load(Ordering::Relaxed),
        native_compile_nanos: NATIVE_COMPILE_NANOS.load(Ordering::Relaxed),
        native_fallbacks: NATIVE_FALLBACKS.load(Ordering::Relaxed),
        tasks_stolen: TASKS_STOLEN.load(Ordering::Relaxed),
        cache_evictions: CACHE_EVICTIONS.load(Ordering::Relaxed),
        negative_hits: NEGATIVE_HITS.load(Ordering::Relaxed),
        speculative_launches: SPECULATIVE_LAUNCHES.load(Ordering::Relaxed),
        speculation_wins: SPECULATION_WINS.load(Ordering::Relaxed),
        quarantine_trips: QUARANTINE_TRIPS.load(Ordering::Relaxed),
        deadline_aborts: DEADLINE_ABORTS.load(Ordering::Relaxed),
        cancelled_aborts: CANCELLED_ABORTS.load(Ordering::Relaxed),
        sharded_loops: SHARDED_LOOPS.load(Ordering::Relaxed),
        stencil_fallbacks: STENCIL_FALLBACKS.load(Ordering::Relaxed),
        partition_warnings: PARTITION_WARNINGS.load(Ordering::Relaxed),
        region_local_tasks: REGION_LOCAL_TASKS.load(Ordering::Relaxed),
        cross_region_steals: CROSS_REGION_STEALS.load(Ordering::Relaxed),
        fusion_applied: FUSION_APPLIED.load(Ordering::Relaxed),
        fusion_rejected: FUSION_REJECTED.load(Ordering::Relaxed),
        batch_ineligible: BATCH_INELIGIBLE.load(Ordering::Relaxed),
        cluster_loops: CLUSTER_LOOPS.load(Ordering::Relaxed),
        cluster_shuffles: CLUSTER_SHUFFLES.load(Ordering::Relaxed),
        shuffle_sends: SHUFFLE_SENDS.load(Ordering::Relaxed),
        shuffle_bytes: SHUFFLE_BYTES.load(Ordering::Relaxed),
        link_retries: LINK_RETRIES.load(Ordering::Relaxed),
        lineage_recoveries: LINEAGE_RECOVERIES.load(Ordering::Relaxed),
        halo_exchanges: HALO_EXCHANGES.load(Ordering::Relaxed),
        cluster_network_nanos: CLUSTER_NETWORK_NANOS.load(Ordering::Relaxed),
    }
}

/// Zero all counters (benches isolate per-tier measurements with this).
pub fn reset_tier_totals() {
    for c in [
        &KERNELS_COMPILED,
        &KERNEL_CACHE_HITS,
        &FALLBACK_LOOPS,
        &COMPILE_NANOS,
        &COMPILED_LOOPS,
        &COMPILED_ELEMENTS,
        &COMPILED_NANOS,
        &TREEWALK_LOOPS,
        &TREEWALK_ELEMENTS,
        &TREEWALK_NANOS,
        &BATCHED_LOOPS,
        &BATCHED_ELEMENTS,
        &BATCHED_NANOS,
        &BATCHED_BLOCKS,
        &TAIL_ELEMENTS,
        &SIMD_BLOCKS,
        &SEGMENTED_BLOCKS,
        &SCATTER_LOOPS,
        &NATIVE_LOOPS,
        &NATIVE_ELEMENTS,
        &NATIVE_NANOS,
        &NATIVE_COMPILES,
        &NATIVE_COMPILE_NANOS,
        &NATIVE_FALLBACKS,
        &TASKS_STOLEN,
        &CACHE_EVICTIONS,
        &NEGATIVE_HITS,
        &SPECULATIVE_LAUNCHES,
        &SPECULATION_WINS,
        &QUARANTINE_TRIPS,
        &DEADLINE_ABORTS,
        &CANCELLED_ABORTS,
        &SHARDED_LOOPS,
        &STENCIL_FALLBACKS,
        &PARTITION_WARNINGS,
        &REGION_LOCAL_TASKS,
        &CROSS_REGION_STEALS,
        &FUSION_APPLIED,
        &FUSION_REJECTED,
        &BATCH_INELIGIBLE,
        &CLUSTER_LOOPS,
        &CLUSTER_SHUFFLES,
        &SHUFFLE_SENDS,
        &SHUFFLE_BYTES,
        &LINK_RETRIES,
        &LINEAGE_RECOVERIES,
        &HALO_EXCHANGES,
        &CLUSTER_NETWORK_NANOS,
    ] {
        c.store(0, Ordering::Relaxed);
    }
    BATCH_REJECT_REASONS.lock().unwrap().clear();
    NATIVE_FALLBACK_REASONS.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let t = TierTotals {
            compiled_elements: 2_000,
            compiled_nanos: 1_000_000_000,
            ..TierTotals::default()
        };
        assert_eq!(t.compiled_elements_per_sec(), Some(2_000.0));
        assert_eq!(t.treewalk_elements_per_sec(), None);
    }
}
