//! The closed-loop workloads: fixed-size batches through
//! `anna_engine::run_pipeline`, the next batch sent when the previous one
//! completes.

use crate::layers::{span_medians, stage_metrics, ORACLE_SAMPLE, REPLAY_SHARE};
use crate::replay::StageReplay;
use crate::report::Report;
use crate::stats::{mean, median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{mix, permutation, serve::LATENCY_LIMIT_NS, Shape, Workload, SETUP_REPS};
use anna_data::recall::{recall_x_at_y, GroundTruth};
use anna_data::synth::Dataset;
use anna_engine::{run_pipeline, EngineRun, PlanOptions, QuerySpec, SearchEngine};
use anna_index::{BatchedScan, IvfPqIndex, LutPrecision, SearchParams};
use anna_plan::TrafficReport;
use anna_telemetry::Telemetry;
use anna_vector::{Neighbor, VectorSet};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Throughput windows per closed-loop run. `qps` and `slo_qps` are the
/// upper quartile of the windows' rates: on a shared virtual machine the
/// host steals CPU time in bursts, and the quieter quarter of the run
/// shows the program's own speed.
pub const WINDOWS: usize = 10;

/// Everything a closed-loop run needs.
pub struct Closed<'a> {
    /// Which closed-loop workload.
    pub workload: Workload,
    /// Its shape.
    pub shape: Shape,
    /// Batch size.
    pub batch: usize,
    /// Dataset (database for re-rank, held-out queries).
    pub ds: &'a Dataset,
    /// Exact ground truth of the queries.
    pub gt: &'a GroundTruth,
    /// The built index.
    pub index: &'a IvfPqIndex,
    /// Engine worker threads.
    pub threads: usize,
    /// Run seed (batch order).
    pub seed: u64,
}

/// One pipeline call: `run_pipeline` untraced; traced, the same five
/// trait steps called one by one, each under its own span.
fn pipeline(
    engine: &dyn SearchEngine,
    queries: &VectorSet,
    spec: &QuerySpec,
    options: &PlanOptions,
    threads: usize,
    tracer: &Tracer,
) -> Result<(TrafficReport, EngineRun), String> {
    let tel = Telemetry::disabled();
    if !tracer.enabled() {
        return run_pipeline(engine, queries, spec, options, threads, &tel).map(|(_, p, r)| (p, r));
    }
    tracer.span("engine.pipeline", || {
        let scopes: Vec<Vec<usize>> = tracer.span("engine.scope", || {
            queries
                .iter()
                .map(|q| engine.query_scope(q, spec))
                .collect()
        });
        let specs = vec![*spec; queries.len()];
        let plan = tracer.span("plan.plan", || {
            engine.plan(queries, &specs, &scopes, options)
        });
        let predicted = tracer.span("plan.price", || engine.price(&plan));
        let run = tracer.span("engine.execute", || {
            engine.execute(queries, &plan, threads, &tel)
        });
        tracer
            .span("engine.verify", || {
                engine.verify(&predicted, None, &run.measured)
            })
            .map(|()| (predicted, run))
    })
}

/// Runs the closed loop for `seconds` and fills `report`. The timed loop
/// runs in `SETUP_REPS` equal segments with one `set_up` call between
/// consecutive segments; the loop's clock excludes those pauses.
///
/// # Errors
///
/// Returns the error of a failed `set_up` call.
pub fn run(
    c: &Closed,
    seconds: f64,
    tracer: &Tracer,
    report: &mut Report,
    set_up: &mut dyn FnMut() -> std::io::Result<()>,
) -> std::io::Result<()> {
    let policy = c.workload.rerank();
    let engine = match policy {
        Some(_) => BatchedScan::with_rerank_db(c.index, &c.ds.db),
        None => BatchedScan::new(c.index),
    };
    let options = PlanOptions { rerank: policy };
    let spec = QuerySpec {
        k: c.shape.k,
        scope: c.shape.nprobe,
    };
    let order = permutation(c.shape.queries, mix(c.seed, 0xB47C));
    let batches: Vec<(Vec<usize>, VectorSet)> = order
        .chunks(c.batch)
        .map(|rows| (rows.to_vec(), c.ds.queries.gather(rows)))
        .collect();

    // Warm-up: one pass over every batch. Its answers are the reference
    // for the timed loop, the oracle check and recall; its predicted bytes
    // give the exact bytes-per-query figure.
    let mut answers: Vec<Option<Vec<Neighbor>>> = vec![None; c.shape.queries];
    let mut predicted_bytes = 0u64;
    for (rows, qs) in &batches {
        match pipeline(&engine, qs, &spec, &options, c.threads, &Tracer::new(false)) {
            Ok((predicted, run)) => {
                predicted_bytes += predicted.total();
                for (&r, res) in rows.iter().zip(run.results) {
                    answers[r] = Some(res);
                }
            }
            Err(msg) => report.error(format!("warm-up verify: {msg}")),
        }
    }

    // Timed loop. Completed and in-limit queries are counted per
    // throughput window (see `WINDOWS`).
    let budget = Duration::from_secs_f64(seconds);
    let window_s = seconds / WINDOWS as f64;
    let mut latency_ms = Vec::new();
    let mut gap_ms = Vec::new();
    let mut window_done = [0u64; WINDOWS];
    let mut window_good = [0u64; WINDOWS];
    // Completion time (s since start) of each window's last batch.
    let mut window_end = [0f64; WINDOWS];
    let (mut done, mut mismatched) = (0u64, 0u64);
    let segment = budget / SETUP_REPS as u32;
    let mut segments_done = 1;
    let mut start = Instant::now();
    let mut prev_end = start;
    let mut i = 0usize;
    while prev_end - start < budget {
        if segments_done < SETUP_REPS as u32 && prev_end - start >= segment * segments_done {
            let paused = Instant::now();
            set_up()?;
            start += paused.elapsed();
            prev_end += paused.elapsed();
            segments_done += 1;
        }
        let (rows, qs) = &batches[i % batches.len()];
        tracer.set_group(i as u64);
        let t0 = Instant::now();
        let out = pipeline(&engine, qs, &spec, &options, c.threads, tracer);
        let t1 = Instant::now();
        gap_ms.push((t0 - prev_end).as_secs_f64() * 1e3);
        latency_ms.push((t1 - t0).as_secs_f64() * 1e3);
        prev_end = t1;
        let end_s = (t1 - start).as_secs_f64();
        let w = ((end_s / window_s) as usize).min(WINDOWS - 1);
        window_end[w] = end_s;
        done += rows.len() as u64;
        window_done[w] += rows.len() as u64;
        match out {
            Ok((_, run)) => {
                let bad = rows
                    .iter()
                    .zip(&run.results)
                    .filter(|(&r, res)| answers[r].as_ref() != Some(*res))
                    .count() as u64;
                if bad > 0 {
                    report.error(format!(
                        "batch {i}: {bad} answers differ from the warm-up pass"
                    ));
                }
                mismatched += bad;
                if (t1 - t0).as_nanos() as u64 <= LATENCY_LIMIT_NS && bad == 0 {
                    window_good[w] += rows.len() as u64;
                }
            }
            Err(msg) => {
                report.error(format!("batch {i} verify: {msg}"));
                mismatched += rows.len() as u64;
            }
        }
        i += 1;
    }
    let loops = latency_ms.len();
    // Per-window rates over the span from the previous window's last
    // completion to this window's last completion, so a rate is not
    // quantized to whole batches per window.
    let rates = |counts: &[u64; WINDOWS]| -> Vec<f64> {
        let mut from = 0.0;
        let mut out = Vec::new();
        for (&n, &to) in counts.iter().zip(&window_end) {
            if to > from {
                out.push(n as f64 / (to - from));
                from = to;
            }
        }
        out
    };
    let qps = percentile(&rates(&window_done), 75.0);
    let slo_qps = percentile(&rates(&window_good), 75.0);
    let qps_how = format!(
        "upper quartile over {WINDOWS} windows of {window_s:.1} s, {done} queries after a warm-up pass"
    );
    // Each distinct batch's typical latency: the median of its repeats.
    let mut repeats: Vec<Vec<f64>> = vec![Vec::new(); batches.len()];
    for (i, &ms) in latency_ms.iter().enumerate() {
        repeats[i % batches.len()].push(ms);
    }
    let typical: Vec<f64> = repeats.iter().map(|r| median(r)).collect();
    let per_call: Vec<f64> = (0..loops).map(|i| typical[i % batches.len()]).collect();

    // Oracle: the serial query-major search on a fixed query sample.
    let params = SearchParams {
        nprobe: c.shape.nprobe,
        k: c.shape.k,
        lut_precision: LutPrecision::F32,
    };
    let mut oracle_bad = 0u64;
    for (q, answer) in c.ds.queries.iter().zip(&answers).take(ORACLE_SAMPLE) {
        let want = match policy {
            Some(p) => c.index.search_two_phase(q, &params, &p, &c.ds.db),
            None => c.index.search(q, &params),
        };
        if answer.as_ref() != Some(&want) {
            oracle_bad += 1;
        }
    }
    if oracle_bad > 0 {
        report.error(format!(
            "{oracle_bad} answers differ from the serial oracle"
        ));
    }
    let all: Vec<Vec<Neighbor>> = answers.into_iter().map(Option::unwrap_or_default).collect();
    let recall = recall_x_at_y(c.gt, &all, 10);

    report.attempted += done;
    report.failed += mismatched + oracle_bad;
    let tail = tail_percentile(loops);
    let per = format!("of {loops} batches of {}", c.batch);
    let typical_how = |stat: String| {
        format!(
            "batch latency, {stat} {per}, each batch at the median of its repeats over {} distinct batches",
            batches.len()
        )
    };
    if !tracer.enabled() {
        report.set("qps", qps, qps_how);
        report.set(
            "recall_at_10",
            recall,
            format!("mean over {} held-out queries", all.len()),
        );
        report.set("p50_ms", median(&per_call), typical_how("median".into()));
        report.set(
            "p99_ms",
            percentile(&per_call, tail),
            typical_how(format!("p{tail}")),
        );
        report.set(
            "slo_qps",
            slo_qps,
            "queries/s in batches answered within the latency limit, upper quartile over windows",
        );
        return Ok(());
    }

    // Traced run: the traced end-to-end figures, the per-call spans of
    // the timed loop, then the serial stage replay.
    report.set("trace.qps", qps, format!("{qps_how}, traced"));
    report.set(
        "trace.p99_ms",
        percentile(&per_call, tail),
        format!("{}, traced", typical_how(format!("p{tail}"))),
    );
    span_medians(tracer, report, loops);
    report.set(
        "plan.bytes_per_query",
        predicted_bytes as f64 / c.shape.queries as f64,
        "TrafficModel-predicted bytes of one pass over the query set, per query",
    );
    let gap_tail = percentile(&gap_ms, tail);
    report.set(
        "serve.queue_wait_p50_ms",
        median(&gap_ms),
        format!("closed loop: completion-to-next-dispatch gap, median {per}"),
    );
    report.set(
        "serve.queue_wait_p99_ms",
        gap_tail,
        format!("closed loop: gap, p{tail} {per}"),
    );
    report.set(
        "serve.dispatch_lag_ms",
        gap_tail,
        format!("closed loop: gap, p{tail} {per}"),
    );
    report.set(
        "serve.service_p50_ms",
        median(&latency_ms),
        format!("closed loop: pipeline call, median {per}"),
    );
    report.set(
        "serve.service_p99_ms",
        percentile(&latency_ms, tail),
        format!("closed loop: pipeline call, p{tail} {per}"),
    );
    report.set(
        "serve.batch_size",
        c.batch as f64,
        "fixed closed-loop batch",
    );
    report.set(
        "serve.time_model_ratio",
        0.0,
        "no service-time model on a closed loop",
    );
    report.set("serve.compose_share", 0.0, "no composer on a closed loop");
    for name in [
        "tier.hit_ratio",
        "tier.disk_bytes_per_query",
        "tier.evictions",
        "tier.fetch_share",
    ] {
        report.set(name, 0.0, "all-RAM workload: no storage tier");
    }

    // Replay a prefix of the distinct batches serially, stage by stage.
    let mut replay = StageReplay::new(
        c.index,
        policy.map(|p| (p, &c.ds.db)),
        c.shape.k,
        c.shape.nprobe,
    );
    let replay_budget = Duration::from_secs_f64(seconds * REPLAY_SHARE);
    let t = Instant::now();
    let mut replayed = 0usize;
    let mut replay_bad = 0u64;
    for (bi, (rows, qs)) in batches.iter().enumerate() {
        if bi > 0 && t.elapsed() > replay_budget {
            break;
        }
        tracer.set_group(1_000_000 + bi as u64);
        for (&r, q) in rows.iter().zip(qs.iter()) {
            if replay.query(q, tracer) != all[r] {
                replay_bad += 1;
            }
        }
        replayed += 1;
    }
    if replay_bad > 0 {
        report.error(format!(
            "{replay_bad} replayed answers differ from the engine's"
        ));
        report.failed += replay_bad;
    }
    // Execute time of the replayed batches, averaged over their timed runs.
    let mut exec: HashMap<usize, Vec<f64>> = HashMap::new();
    for (g, ns) in tracer.durations("engine.execute") {
        exec.entry(g as usize % batches.len())
            .or_default()
            .push(ns as f64);
    }
    let exec_ns: f64 = (0..replayed)
        .filter_map(|b| exec.get(&b).map(|v| mean(v)))
        .sum();
    stage_metrics(
        c.workload.name(),
        tracer,
        report,
        &replay.tally,
        exec_ns * c.threads as f64,
        replayed,
    );
    Ok(())
}
