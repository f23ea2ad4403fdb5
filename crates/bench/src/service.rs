//! Service bench: seeded open-/closed-loop traffic against the
//! multi-tenant query service, emitting `BENCH_service_t{N}.json`.
//!
//! Three phases, one service instance:
//!
//! 1. **Uncontended** (closed loop): one in-flight query at a time from a
//!    mid-priority tenant. This measures the floor — dispatch, a cached
//!    kernel, and a condvar wakeup — and its p99 anchors the overload
//!    gate.
//! 2. **Overload** (open loop): every tenant submits as fast as the
//!    submitter can go, ignoring completions — the arrival process does
//!    not slow down because the service is struggling, which is exactly
//!    the regime admission control exists for. Traffic is the same
//!    lightweight query class as the baseline (seeded SplitMix64 picks
//!    tenant and program variant), so the two p99s compare like for
//!    like; heavyweight chunked queries are exercised by the chaos
//!    harness's service probe, where fault injection needs them anyway.
//! 3. **Recovery**: arrivals stop, the backlog drains, and a trickle of
//!    probe queries lets the hysteresis controller walk the degradation
//!    ladder back to `Normal`.
//!
//! The **shed-not-collapse gate**: admitted p99 under open-loop overload
//! — measured over *guaranteed* tenants, the ones at or above the shed
//! floor — stays within [`GATE_P99_FACTOR`]× of the uncontended p99, the
//! excess is *rejected with typed errors* (not queued, not dropped),
//! every admitted query produces exactly one outcome, and the service is
//! back at `Normal` by the end of recovery. Background tenants (priority
//! below the floor) are best-effort by contract: strict-priority
//! scheduling starves them while guaranteed traffic is waiting and the
//! deepest rung sheds them outright, so their (reported, ungated)
//! latency under overload is the backlog they queued behind.

use dmll_core::Program;
use dmll_frontend::Stage;
use dmll_interp::Value;
use dmll_service::{
    DegradeLevel, DegradePolicy, MetricsSnapshot, QueryRequest, QueryService, ServiceBuilder,
    ServiceConfig, ServiceError, TenantId, TenantPolicy, TenantSnapshot,
};
use dmll_core::{LayoutHint, Ty};
use std::fmt::Write as _;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Overload p99 must stay within this factor of the uncontended p99.
pub const GATE_P99_FACTOR: f64 = 5.0;

/// Absolute tolerance on the overload p99, for core-starved runners. On
/// a single-core box the storm makes submitter and workers share one
/// CPU, so a few queries per thousand absorb an OS scheduling quantum
/// (single-digit milliseconds) regardless of queue discipline; the
/// relative gate alone would flag that as collapse. Real collapse —
/// unbounded queueing — parks *most* of the backlog for the storm's
/// whole duration (hundreds of milliseconds at smoke scale, seconds at
/// full scale), far above this floor, so the gate still discriminates.
pub const GATE_P99_FLOOR: Duration = Duration::from_millis(10);

/// Lightweight query rows: small enough to run in place (no per-query
/// thread spawn) on the compiled tier at one query thread.
const LIGHT_ROWS: usize = 3;

/// SplitMix64 avalanche (same constants as `dmll_runtime::fault`).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Three lightweight program variants — distinct multiloops, so the
/// shared kernel cache holds several entries and per-tenant hit rates
/// mean something. All exact over i64 and compiled-tier friendly.
fn program_variants() -> Vec<Arc<Program>> {
    // Sum of squares.
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let sq = st.map(&x, |st, e| st.mul(e, e));
    let total = st.sum(&sq);
    let squares = Arc::new(st.finish(&total));
    // Shift-then-sum.
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let shifted = st.map(&x, |st, e| {
        let three = st.lit_i(3);
        st.add(e, &three)
    });
    let total = st.sum(&shifted);
    let shifts = Arc::new(st.finish(&total));
    // Plain sum.
    let mut st = Stage::new();
    let x = st.input("x", Ty::arr(Ty::I64), LayoutHint::Partitioned);
    let total = st.sum(&x);
    let sums = Arc::new(st.finish(&total));
    vec![squares, shifts, sums]
}

/// Latency percentiles in nanoseconds over a sorted sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Percentiles {
    /// Sample count.
    pub count: usize,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl Percentiles {
    fn from(mut nanos: Vec<u64>) -> Percentiles {
        if nanos.is_empty() {
            return Percentiles::default();
        }
        nanos.sort_unstable();
        let at = |q: f64| {
            let rank = ((nanos.len() as f64) * q).ceil() as usize;
            nanos[rank.clamp(1, nanos.len()) - 1]
        };
        Percentiles {
            count: nanos.len(),
            p50: at(0.50),
            p99: at(0.99),
            p999: at(0.999),
        }
    }
}

/// Everything one bench run measured.
#[derive(Debug)]
pub struct ServiceBenchReport {
    /// Worker threads the service ran with.
    pub workers: usize,
    /// Queries submitted during the overload phase.
    pub offered: usize,
    /// Uncontended (closed-loop) admitted latency (a guaranteed tenant).
    pub uncontended: Percentiles,
    /// Overload (open-loop) admitted latency, guaranteed tenants
    /// (priority at or above the shed floor) — the gated population.
    pub overload: Percentiles,
    /// Overload admitted latency, background tenants (below the floor):
    /// best-effort by contract, reported but not gated.
    pub overload_background: Percentiles,
    /// Final service counters (cumulative across phases).
    pub metrics: MetricsSnapshot,
    /// Per-tenant counters, including kernel-cache hit rates.
    pub tenants: Vec<TenantSnapshot>,
    /// Deepest degradation rung observed during overload.
    pub max_level: DegradeLevel,
    /// The service returned to `Normal` during recovery.
    pub recovered: bool,
    /// Outcomes received == queries admitted (no drops, no dups).
    pub accounted: bool,
    /// Overload wall time (for offered-load context).
    pub overload_secs: f64,
}

impl ServiceBenchReport {
    /// The shed-not-collapse gate.
    pub fn gate_ok(&self) -> bool {
        let p99_limit = ((self.uncontended.p99 as f64) * GATE_P99_FACTOR)
            .max(GATE_P99_FLOOR.as_nanos() as f64);
        let p99_ok = (self.overload.p99 as f64) <= p99_limit;
        let shed_engaged = self.metrics.rejected() > 0;
        let typed_only =
            self.metrics.completed_ok + self.metrics.completed_error >= self.metrics.admitted;
        p99_ok && shed_engaged && typed_only && self.recovered && self.accounted
    }
}

/// Scale knobs: smoke for CI, full for the real sweep.
#[derive(Clone, Copy, Debug)]
pub struct ServiceBenchScale {
    /// Closed-loop queries in the uncontended phase.
    pub uncontended_queries: usize,
    /// Open-loop submissions in the overload phase.
    pub overload_queries: usize,
}

impl ServiceBenchScale {
    /// CI scale: tens of thousands of queries, seconds of wall time.
    pub fn smoke() -> ServiceBenchScale {
        ServiceBenchScale {
            uncontended_queries: 2_000,
            overload_queries: 60_000,
        }
    }

    /// Full scale: an open-loop storm of a million-plus queries.
    pub fn full() -> ServiceBenchScale {
        ServiceBenchScale {
            uncontended_queries: 5_000,
            overload_queries: 1_200_000,
        }
    }
}

/// The bench's tenant roster: mixed priorities so the deepest degradation
/// rung has someone to shed, mixed rates so token buckets engage.
fn build_service(workers: usize) -> (QueryService, Vec<TenantId>) {
    let mut b = ServiceBuilder::new(ServiceConfig {
        workers,
        query_threads: 1,
        // Low enough that the summed cost of a full backlog overruns it:
        // cost shedding engages alongside the queue caps, and it bounds
        // total backlog (and therefore admitted-latency) tighter than the
        // caps alone.
        cost_budget: 40.0,
        degrade: DegradePolicy {
            enter_queue: 16,
            exit_queue: 4,
            enter_p99: Duration::from_millis(20),
            exit_p99: Duration::from_millis(10),
            dwell: Duration::from_millis(1),
            window: 256,
            shed_floor: 1,
        },
    });
    let mut tenants = Vec::new();
    for i in 0..6usize {
        // Tenants 0 and 1 are background: priority 0 (shed at the deepest
        // rung) and rate-limited hard enough that the storm drains their
        // buckets. 2–4 standard; 5 premium with a deeper queue.
        let background = i < 2;
        tenants.push(b.tenant(
            &format!("tenant{i}"),
            TenantPolicy {
                priority: if background { 0 } else if i == 5 { 4 } else { 2 },
                deadline: Duration::from_millis(250),
                retry_budget: 8,
                rate_per_sec: if background { 30_000.0 } else { 400_000.0 },
                burst: if background { 256.0 } else { 4_000.0 },
                queue_cap: if i == 5 { 16 } else { 8 },
            },
        ));
    }
    (b.start(), tenants)
}

/// Run the three phases and measure.
pub fn run_service_bench(workers: usize, scale: ServiceBenchScale, seed: u64) -> ServiceBenchReport {
    let programs = program_variants();
    let light: Vec<i64> = (0..LIGHT_ROWS as i64).map(|i| i * 7 % 13).collect();
    let (svc, tenants) = build_service(workers);
    svc.publish_dataset("light", vec![("x".into(), Value::i64_arr(light))]);

    // Phase 1: uncontended closed loop (one in flight), same seeded
    // program mix as the storm so the two p99s compare like for like.
    let mut uncontended = Vec::with_capacity(scale.uncontended_queries);
    for i in 0..scale.uncontended_queries {
        let r = mix(seed ^ 0xBA5E_11DE ^ (i as u64) << 20);
        let program = &programs[(r % programs.len() as u64) as usize];
        let rx = svc
            .submit(
                tenants[3],
                QueryRequest::new(Arc::clone(program)).with_dataset("light"),
            )
            .expect("uncontended submissions admit");
        let out = rx.recv().expect("outcome");
        assert!(out.result.is_ok(), "uncontended query failed: {:?}", out.result);
        uncontended.push(out.latency.as_nanos() as u64);
    }

    // Phase 2: open-loop overload. Submissions never wait on completions;
    // outcomes funnel into one channel and are drained afterwards.
    let (tx, rx) = channel();
    let mut admitted = 0usize;
    let mut max_level = DegradeLevel::Normal;
    let t0 = Instant::now();
    for i in 0..scale.overload_queries {
        let r = mix(seed.wrapping_add(i as u64));
        let tenant = tenants[(r % tenants.len() as u64) as usize];
        let program = &programs[((r >> 8) % programs.len() as u64) as usize];
        let req = QueryRequest::new(Arc::clone(program)).with_dataset("light");
        match svc.submit_with(tenant, req, tx.clone()) {
            Ok(_) => admitted += 1,
            Err(ServiceError::Rejected { .. }) => {}
            Err(other) => panic!("unexpected submit error: {other:?}"),
        }
        if i % 4096 == 0 {
            max_level = max_level.max(svc.level());
        }
    }
    drop(tx);
    let mut overload = Vec::with_capacity(admitted);
    let mut overload_background = Vec::new();
    let mut received = 0usize;
    while received < admitted {
        let out = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("service lost an admitted query (collapse or deadlock)");
        received += 1;
        if out.result.is_ok() {
            // Tenants 0 and 1 are the background (below-floor) roster.
            if out.tenant.0 < 2 {
                overload_background.push(out.latency.as_nanos() as u64);
            } else {
                overload.push(out.latency.as_nanos() as u64);
            }
        } else {
            // Typed errors (deadline storms under pressure) are part of
            // the contract; their latency is not an "admitted latency".
            assert!(
                matches!(out.result, Err(ServiceError::Exec(_))),
                "non-exec error on an admitted query: {:?}",
                out.result
            );
        }
        max_level = max_level.max(out.level);
    }
    let overload_secs = t0.elapsed().as_secs_f64();
    let accounted = received == admitted;

    // Phase 3: recovery. A trickle of probes gives the controller
    // completions to evaluate on; it must retrace the ladder to Normal.
    let recover_by = Instant::now() + Duration::from_secs(30);
    while svc.level() != DegradeLevel::Normal && Instant::now() < recover_by {
        if let Ok(rx) = svc.submit(
            tenants[5],
            QueryRequest::new(Arc::clone(&programs[0])).with_dataset("light"),
        ) {
            let _ = rx.recv();
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let recovered = svc.level() == DegradeLevel::Normal;
    let tenants_snap = svc.tenant_stats();
    let metrics = svc.shutdown();

    ServiceBenchReport {
        workers,
        offered: scale.overload_queries,
        uncontended: Percentiles::from(uncontended),
        overload: Percentiles::from(overload),
        overload_background: Percentiles::from(overload_background),
        metrics,
        tenants: tenants_snap,
        max_level,
        recovered,
        accounted,
        overload_secs,
    }
}

/// Render the report as a terminal summary.
pub fn render(r: &ServiceBenchReport) -> String {
    let mut out = String::new();
    let us = |n: u64| n as f64 / 1_000.0;
    let _ = writeln!(
        out,
        "Service bench: {} workers, {} offered (open loop, {:.2}s)",
        r.workers, r.offered, r.overload_secs
    );
    let _ = writeln!(
        out,
        "  uncontended: p50 {:.1}us  p99 {:.1}us  p999 {:.1}us  ({} queries)",
        us(r.uncontended.p50),
        us(r.uncontended.p99),
        us(r.uncontended.p999),
        r.uncontended.count
    );
    let _ = writeln!(
        out,
        "  overload:    p50 {:.1}us  p99 {:.1}us  p999 {:.1}us  ({} admitted-ok, guaranteed)",
        us(r.overload.p50),
        us(r.overload.p99),
        us(r.overload.p999),
        r.overload.count
    );
    let _ = writeln!(
        out,
        "  background:  p50 {:.1}us  p99 {:.1}us  p999 {:.1}us  ({} admitted-ok, best-effort)",
        us(r.overload_background.p50),
        us(r.overload_background.p99),
        us(r.overload_background.p999),
        r.overload_background.count
    );
    let m = &r.metrics;
    let _ = writeln!(
        out,
        "  admitted {}  rejected {} (queue_full {}, rate {}, cost {}, shed {}, shutdown {})",
        m.admitted,
        m.rejected(),
        m.rejected_queue_full,
        m.rejected_rate_limited,
        m.rejected_cost_shed,
        m.rejected_tenant_shed,
        m.rejected_shutdown
    );
    let _ = writeln!(
        out,
        "  completed ok {}  typed errors {} (supervision aborts {})  degrade: max {} esc {} deesc {} recovered {}",
        m.completed_ok,
        m.completed_error,
        m.supervision_aborts,
        r.max_level.label(),
        m.escalations,
        m.deescalations,
        r.recovered
    );
    for t in &r.tenants {
        let rate = t
            .cache
            .hit_rate()
            .map_or("n/a".to_string(), |x| format!("{:.1}%", x * 100.0));
        let _ = writeln!(
            out,
            "  {}: prio {} admitted {} rejected {} completed {}  cache hits {} misses {} evictions {} (hit rate {})",
            t.name,
            t.priority,
            t.admitted,
            t.rejected,
            t.completed,
            t.cache.hits,
            t.cache.misses,
            t.cache.evictions,
            rate
        );
    }
    let _ = writeln!(
        out,
        "gate (p99 within {GATE_P99_FACTOR}x or {}ms quantum floor, shed engaged, typed-only, accounted, recovered): {}",
        GATE_P99_FLOOR.as_millis(),
        if r.gate_ok() { "ok" } else { "FAIL" }
    );
    out
}

/// Serialize the report as the `BENCH_service_t{N}.json` document.
pub fn to_json(r: &ServiceBenchReport) -> String {
    let mut out = String::from("{\n  \"experiment\": \"service\",\n");
    let _ = writeln!(out, "  \"workers\": {},", r.workers);
    let _ = writeln!(out, "  \"offered\": {},", r.offered);
    let _ = writeln!(out, "  \"overload_secs\": {:.4},", r.overload_secs);
    let pct = |p: &Percentiles| {
        format!(
            "{{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}",
            p.count, p.p50, p.p99, p.p999
        )
    };
    let _ = writeln!(out, "  \"uncontended\": {},", pct(&r.uncontended));
    let _ = writeln!(out, "  \"overload_guaranteed\": {},", pct(&r.overload));
    let _ = writeln!(
        out,
        "  \"overload_background\": {},",
        pct(&r.overload_background)
    );
    let m = &r.metrics;
    let _ = writeln!(
        out,
        "  \"admission\": {{\"submitted\": {}, \"admitted\": {}, \"rejected\": {{\"queue_full\": {}, \"rate_limited\": {}, \"cost_shed\": {}, \"tenant_shed\": {}, \"shutting_down\": {}}}}},",
        m.submitted,
        m.admitted,
        m.rejected_queue_full,
        m.rejected_rate_limited,
        m.rejected_cost_shed,
        m.rejected_tenant_shed,
        m.rejected_shutdown
    );
    let _ = writeln!(
        out,
        "  \"completion\": {{\"ok\": {}, \"typed_errors\": {}, \"supervision_aborts\": {}, \"worker_panics\": {}}},",
        m.completed_ok, m.completed_error, m.supervision_aborts, m.worker_panics
    );
    let _ = writeln!(
        out,
        "  \"degrade\": {{\"max_level\": \"{}\", \"escalations\": {}, \"deescalations\": {}, \"recovered\": {}}},",
        r.max_level.label(),
        m.escalations,
        m.deescalations,
        r.recovered
    );
    out.push_str("  \"tenants\": [\n");
    for (i, t) in r.tenants.iter().enumerate() {
        let rate = t
            .cache
            .hit_rate()
            .map_or("null".to_string(), |x| format!("{x:.4}"));
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"priority\": {}, \"admitted\": {}, \"rejected\": {}, \"completed\": {}, \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"hit_rate\": {}}}}}{}",
            t.name,
            t.priority,
            t.admitted,
            t.rejected,
            t.completed,
            t.cache.hits,
            t.cache.misses,
            t.cache.evictions,
            rate,
            if i + 1 == r.tenants.len() { "\n" } else { ",\n" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"gate_p99_factor\": {GATE_P99_FACTOR},");
    let _ = writeln!(
        out,
        "  \"gate_p99_floor_ns\": {},",
        GATE_P99_FLOOR.as_nanos()
    );
    let _ = writeln!(out, "  \"gate_ok\": {}\n}}", r.gate_ok());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_rank_correctly() {
        let p = Percentiles::from((1..=1000u64).collect());
        assert_eq!(p.p50, 500);
        assert_eq!(p.p99, 990);
        assert_eq!(p.p999, 999);
    }

    #[test]
    fn tiny_smoke_run_holds_the_contract() {
        let scale = ServiceBenchScale {
            uncontended_queries: 64,
            overload_queries: 2_000,
        };
        let r = run_service_bench(2, scale, 42);
        assert!(r.accounted, "admitted outcomes all accounted");
        assert!(r.recovered, "service recovered to Normal");
        assert_eq!(
            r.metrics.completed_ok + r.metrics.completed_error,
            r.metrics.admitted
        );
    }
}
