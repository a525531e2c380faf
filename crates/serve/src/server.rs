//! Schedule execution: dispatching planned batches onto any
//! [`SearchEngine`] and accounting per-request latency.
//!
//! [`execute`] walks a [`BatchSchedule`] in dispatch order, runs each
//! batch's exact tagged [`anna_plan::EnginePlan`] through
//! [`SearchEngine::execute`], and verifies — component for component,
//! via [`SearchEngine::verify`] — that the measured bytes equal the
//! batcher's [`anna_plan::TrafficReport`] prediction (the workspace's
//! standing predicted == measured invariant, extended here to every batch
//! a serving trace dispatches). End-to-end latency composes the *virtual*
//! queue wait (from the deterministic schedule) with the *measured*
//! wall-clock service time of the carrying batch, so the latency curve
//! reflects real execution while the batch compositions stay replayable.

use std::time::Instant;

use crate::batcher::BatchSchedule;
use crate::request::{Outcome, Request};
use anna_engine::{PlanOptions, QuerySpec, SearchEngine};
use anna_telemetry::{Histogram, Telemetry};
use anna_vector::{Neighbor, VectorSet};

/// Execution record for one dispatched batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// Batch sequence number in the schedule.
    pub seq: usize,
    /// Requests carried.
    pub size: usize,
    /// Final result count per query (max `k` in the batch).
    pub k_exec: usize,
    /// First-pass heap size the engine ran with (`k_exec` unless the
    /// schedule was composed under a two-phase config).
    pub k_scan: usize,
    /// TrafficModel-predicted total bytes.
    pub predicted_bytes: u64,
    /// Predicted service time at the configured byte rate (virtual).
    pub predicted_service_ns: u64,
    /// Measured wall-clock service time of the engine's `execute`.
    pub measured_service_ns: u64,
    /// Whether every measurable traffic component (code bytes, cluster
    /// metadata, top-k spill, top-k fill, re-rank candidate records,
    /// re-rank vector fetches) matched the prediction exactly.
    pub traffic_match: bool,
}

/// Latency quantiles for one outcome population, read from an
/// [`anna_telemetry::Histogram`] (≤ 12.5 % bucket quantization, never
/// below the true order statistic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Requests in the population.
    pub count: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// Maximum latency in nanoseconds (exact).
    pub max_ns: u64,
}

impl LatencySummary {
    fn from_histogram(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            p50_ns: h.quantile(0.5),
            p95_ns: h.quantile(0.95),
            p99_ns: h.quantile(0.99),
            max_ns: h.max(),
        }
    }
}

/// Everything [`execute`] produced for one serving trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// One outcome per trace request (aligned by index).
    pub outcomes: Vec<Outcome>,
    /// Per-request results for completed requests (`None` for shed or
    /// timed-out requests), each truncated to the request's own `k`.
    pub results: Vec<Option<Vec<Neighbor>>>,
    /// Per-batch execution records, dispatch order.
    pub batches: Vec<BatchReport>,
    /// End-to-end latency quantiles over completed requests.
    pub latency: LatencySummary,
    /// Requests answered.
    pub completed: usize,
    /// Requests shed at admission.
    pub shed: usize,
    /// Requests dropped at a window close on predicted deadline miss.
    pub timed_out: usize,
    /// Completed requests whose end-to-end latency exceeded the deadline
    /// (answered late rather than dropped).
    pub deadline_missed: usize,
    /// Whether *every* dispatched batch's measured traffic matched its
    /// prediction exactly.
    pub all_traffic_match: bool,
}

/// Executes `schedule` over any [`SearchEngine`] with `threads` workers.
///
/// `engine`, `trace`, and `queries` must be the ones the schedule was
/// composed from (two-phase schedules need the engine built with its
/// re-rank source, e.g. `BatchedScan::with_rerank_db` in `anna-index`).
/// Telemetry (when enabled) receives `serve.latency_ns`,
/// `serve.queue_wait_ns`, `serve.service_ns` and `serve.batch_size`
/// histograms plus `serve.completed` / `serve.shed` / `serve.timed_out` /
/// `serve.batches` counters.
pub fn execute(
    engine: &dyn SearchEngine,
    queries: &VectorSet,
    trace: &[Request],
    schedule: &BatchSchedule,
    threads: usize,
    tel: &Telemetry,
) -> ServeReport {
    let mut outcomes: Vec<Option<Outcome>> = vec![None; trace.len()];
    let mut results: Vec<Option<Vec<Neighbor>>> = vec![None; trace.len()];
    let mut batch_reports = Vec::with_capacity(schedule.batches.len());
    let latency_hist = Histogram::new();
    let mut deadline_missed = 0usize;
    let mut all_traffic_match = true;

    for batch in &schedule.batches {
        let rows: Vec<usize> = batch.requests.iter().map(|&i| trace[i].query_row).collect();
        let batch_queries = queries.gather(&rows);
        let start = Instant::now();
        let run = engine.execute(&batch_queries, &batch.plan, threads, tel);
        let measured_service_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let answers = run.results;

        let traffic_match = engine.verify(&batch.predicted, None, &run.measured).is_ok();
        all_traffic_match &= traffic_match;

        for (slot, &i) in batch.requests.iter().enumerate() {
            let r = &trace[i];
            let queue_wait_ns = batch.dispatch_ns.saturating_sub(r.arrival_ns);
            let latency_ns = queue_wait_ns.saturating_add(measured_service_ns);
            let missed = latency_ns > r.deadline_ns;
            deadline_missed += missed as usize;
            latency_hist.record(latency_ns);
            tel.record_ns("serve.latency_ns", latency_ns);
            tel.record_ns("serve.queue_wait_ns", queue_wait_ns);
            let mut hits = answers[slot].clone();
            hits.truncate(r.k);
            results[i] = Some(hits);
            outcomes[i] = Some(Outcome::Completed {
                batch: batch.seq,
                queue_wait_ns,
                latency_ns,
                deadline_missed: missed,
            });
        }
        tel.record_ns("serve.service_ns", measured_service_ns);
        tel.record_ns("serve.batch_size", batch.requests.len() as u64);
        batch_reports.push(BatchReport {
            seq: batch.seq,
            size: batch.requests.len(),
            k_exec: batch.k_exec,
            k_scan: batch.k_scan,
            predicted_bytes: batch.predicted.total(),
            predicted_service_ns: batch.predicted_service_ns,
            measured_service_ns,
            traffic_match,
        });
    }

    let mut completed = 0usize;
    let mut shed = 0usize;
    let mut timed_out = 0usize;
    for (i, adm) in schedule.admissions.iter().enumerate() {
        match *adm {
            crate::batcher::Admission::Dispatched { .. } => completed += 1,
            crate::batcher::Admission::Shed { queue_depth } => {
                shed += 1;
                outcomes[i] = Some(Outcome::Shed { queue_depth });
            }
            crate::batcher::Admission::TimedOut { predicted_wait_ns } => {
                timed_out += 1;
                outcomes[i] = Some(Outcome::TimedOut { predicted_wait_ns });
            }
        }
    }
    tel.counter_add("serve.completed", completed as u64);
    tel.counter_add("serve.shed", shed as u64);
    tel.counter_add("serve.timed_out", timed_out as u64);
    tel.counter_add("serve.batches", schedule.batches.len() as u64);

    ServeReport {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every request receives exactly one outcome"))
            .collect(),
        results,
        batches: batch_reports,
        latency: LatencySummary::from_histogram(&latency_hist),
        completed,
        shed,
        timed_out,
        deadline_missed,
        all_traffic_match,
    }
}

/// Measures an engine's service rate in TrafficModel bytes per second,
/// for configuring [`crate::ServeConfig::service_bytes_per_sec`].
///
/// Plans a uniform batch at `spec` through the engine's own pipeline,
/// runs it once to warm caches, then takes the best of three timed
/// passes (the same protocol as the CPU baseline's bandwidth probes:
/// best-of-N rejects scheduler noise, which only ever slows a pass down).
pub fn calibrate_service_rate(
    engine: &dyn SearchEngine,
    queries: &VectorSet,
    spec: &QuerySpec,
    threads: usize,
) -> u64 {
    let specs = vec![*spec; queries.len()];
    let scopes: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| engine.query_scope(q, spec))
        .collect();
    let plan = engine.plan(queries, &specs, &scopes, &PlanOptions::default());
    let predicted = engine.price(&plan);
    let tel = Telemetry::disabled();
    engine.execute(queries, &plan, threads, &tel); // warm-up
    let mut best_ns = u64::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        engine.execute(queries, &plan, threads, &tel);
        best_ns = best_ns.min(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    ((predicted.total() as u128 * 1_000_000_000) / best_ns.max(1) as u128)
        .min(u64::MAX as u128)
        .max(1) as u64
}
