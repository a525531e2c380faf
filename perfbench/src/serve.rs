//! `serve_tiered`: an open loop over a sharded, tiered index.
//!
//! Seeded Poisson arrivals at fixed absolute rates are composed into
//! batches by `anna_serve::compose` ahead of the run, then the schedule
//! is replayed on the wall clock: each batch is dispatched at
//! `max(due dispatch time, previous completion)` and the dispatcher waits
//! on `SearchEngine::execute` + `verify`. Each request is timed from its
//! due arrival to its batch's completion, so a slow batch delays later
//! ones. Every rate starts from freshly opened, cold shard caches; the
//! nominal rate is played in parts between the ladder passes.

use crate::layers::{span_medians, stage_metrics, ORACLE_SAMPLE, REPLAY_SHARE};
use crate::replay::{replay_fetches, StageReplay};
use crate::report::Report;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{mix, serve as k, Shape, SETUP_REPS};
use anna_bench::openloop::{self, ArrivalProfile, OpenLoopConfig};
use anna_data::recall::recall_one;
use anna_data::recall::GroundTruth;
use anna_data::synth::Dataset;
use anna_engine::{PlanOptions, QuerySpec, SearchEngine};
use anna_index::{IvfPqIndex, LutPrecision, SearchParams, ShardedIndex, TieredIndex};
use anna_plan::{ClusterCacheSim, EnginePlan, TierTraffic};
use anna_serve::{compose, Admission, BatchSchedule, Request, ServeConfig, TierPricing};
use anna_telemetry::Telemetry;
use anna_vector::{Neighbor, VectorSet};
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Everything a `serve_tiered` run needs.
pub struct Serve<'a> {
    /// Data and index shape.
    pub shape: Shape,
    /// Dataset (held-out queries).
    pub ds: &'a Dataset,
    /// Exact ground truth of the queries.
    pub gt: &'a GroundTruth,
    /// The in-RAM index the segments were written from (serial oracle).
    pub index: &'a IvfPqIndex,
    /// The shard segment files.
    pub paths: &'a [PathBuf],
    /// Cluster-cache capacity per shard (encoded-code bytes).
    pub cache_per_shard: u64,
    /// Engine worker threads.
    pub threads: usize,
    /// Run seed (arrival traces).
    pub seed: u64,
}

/// The fixed serving configuration.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: k::MAX_BATCH,
        max_wait_ns: k::MAX_WAIT_NS,
        queue_capacity: k::QUEUE_CAPACITY,
        service_bytes_per_sec: k::SERVICE_BYTES_PER_SEC,
        shape_candidates: k::SHAPE_CANDIDATES,
        rerank: None,
        tier: Some(TierPricing {
            disk_bytes_per_sec: k::DISK_BYTES_PER_SEC,
            // The sharded engine prices its tier split from its own live
            // shard caches; this composer-side state is not consulted.
            cache: ClusterCacheSim::new(0),
        }),
    }
}

/// The seeded arrival trace at `rate` requests/s lasting `secs`.
pub fn arrivals(shape: &Shape, seed: u64, rate: f64, secs: f64) -> Vec<Request> {
    openloop::generate(&OpenLoopConfig {
        seed: mix(seed, rate.to_bits()),
        rate_qps: rate,
        requests: ((rate * secs).round() as usize).max(1),
        profile: ArrivalProfile::Poisson,
        k_choices: vec![shape.k],
        nprobe_choices: vec![shape.nprobe],
        deadline_ns: k::LATENCY_LIMIT_NS,
        query_pool: shape.queries,
    })
}

/// One composed rate: its trace, schedule and compose time.
pub struct Rung {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// Arrival trace.
    pub trace: Vec<Request>,
    /// Batches composed from it.
    pub schedule: BatchSchedule,
    /// Wall time `compose` took.
    pub compose_ns: u64,
}

/// Composes the trace at `rate` against cold shard caches.
pub fn compose_rung(
    engine: &ShardedIndex,
    queries: &VectorSet,
    trace: Vec<Request>,
    rate: f64,
    tracer: &Tracer,
) -> Rung {
    let t = Instant::now();
    let schedule = tracer.span("serve.compose", || {
        compose(engine, queries, &trace, &serve_config())
    });
    Rung {
        rate,
        trace,
        schedule,
        compose_ns: t.elapsed().as_nanos() as u64,
    }
}

/// What replaying one rung on the wall clock measured.
#[derive(Default)]
struct Played {
    /// Per request: due-arrival-to-completion latency (None: not
    /// answered).
    latency_ns: Vec<Option<u64>>,
    /// Per dispatched request: due arrival to dispatch.
    queue_wait_ns: Vec<f64>,
    /// Per batch: dispatch to completion.
    service_ns: Vec<f64>,
    /// Per batch: dispatch instant minus `max(due, previous completion)`.
    lag_ns: Vec<f64>,
    /// Per batch: predicted service / measured execute time.
    model_ratio: Vec<f64>,
    /// Per request: the answer.
    answers: Vec<Option<Vec<Neighbor>>>,
    /// Requests shed or timed out by the composer, or answered by a
    /// batch that failed its checks.
    failed: u64,
    /// Requests answered after their deadline on the wall clock.
    late: u64,
    /// Requests answered.
    completed: u64,
    /// First arrival to last completion, summed over the played parts.
    elapsed_s: f64,
    /// Last completion minus the last dispatched request's due arrival.
    end_backlog_ns: u64,
    /// Tier counters accumulated over the rung.
    tier: TierTraffic,
}

impl Played {
    /// Nothing measured yet, for a trace of `requests` requests.
    fn new(requests: usize) -> Played {
        Played {
            latency_ns: vec![None; requests],
            answers: vec![None; requests],
            ..Played::default()
        }
    }

    /// Counts the requests the composer shed or timed out as failed.
    fn count_dropped(&mut self, schedule: &BatchSchedule) {
        self.failed += schedule
            .admissions
            .iter()
            .filter(|adm| !matches!(adm, Admission::Dispatched { .. }))
            .count() as u64;
    }
}

/// Busy-waits until `t`. Sleeping would let an idle virtual CPU halt,
/// and waking it can take milliseconds, which would show up as latency.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Replays `rung` on the wall clock against `engine` (freshly opened).
fn play(
    rung: &Rung,
    engine: &ShardedIndex,
    s: &Serve,
    scopes: &[Vec<usize>],
    tracer: &Tracer,
    report: &mut Report,
) -> Played {
    let mut p = Played::new(rung.trace.len());
    let all = 0..rung.schedule.batches.len();
    play_part(rung, all, engine, s, scopes, tracer, report, &mut p);
    p.count_dropped(&rung.schedule);
    p
}

/// Replays batches `part` of `rung` on the wall clock against `engine`,
/// adding what it measures to `p`. The part starts now: its first
/// arrival is due at once.
#[allow(clippy::too_many_arguments)]
fn play_part(
    rung: &Rung,
    part: Range<usize>,
    engine: &ShardedIndex,
    s: &Serve,
    scopes: &[Vec<usize>],
    tracer: &Tracer,
    report: &mut Report,
    p: &mut Played,
) {
    let tel = Telemetry::disabled();
    let spec = QuerySpec {
        k: s.shape.k,
        scope: s.shape.nprobe,
    };
    let options = PlanOptions::default();
    let trace = &rung.trace;
    let planned = &rung.schedule.batches[part];
    let batches: Vec<(Vec<QuerySpec>, Vec<Vec<usize>>, VectorSet)> = planned
        .iter()
        .map(|b| {
            let rows: Vec<usize> = b.requests.iter().map(|&i| trace[i].query_row).collect();
            let batch_scopes = rows.iter().map(|&r| scopes[r].clone()).collect();
            (
                vec![spec; rows.len()],
                batch_scopes,
                s.ds.queries.gather(&rows),
            )
        })
        .collect();
    // Batches dispatch requests in arrival order, so the part's first
    // request arrives first and its last request last.
    let arrival = |&i: &usize| trace[i].arrival_ns;
    let origin = planned
        .first()
        .and_then(|b| b.requests.first())
        .map_or(0, arrival);
    let last_arrival = planned
        .last()
        .and_then(|b| b.requests.last())
        .map_or(0, arrival);
    let before = engine.tier_counters();
    let t0 = Instant::now();
    let at = |ns: u64| t0 + Duration::from_nanos(ns.saturating_sub(origin));
    let mut prev_done = t0;
    for (b, (specs, batch_scopes, queries)) in planned.iter().zip(&batches) {
        tracer.set_group(b.seq as u64);
        let ready = at(b.dispatch_ns).max(prev_done);
        wait_until(ready);
        let dispatched = Instant::now();
        p.lag_ns.push((dispatched - ready).as_nanos() as f64);
        let plan = tracer.span("plan.plan", || {
            engine.plan(queries, specs, batch_scopes, &options)
        });
        let predicted = tracer.span("plan.price", || engine.price(&plan));
        let EnginePlan::Sharded(sp) = &plan else {
            unreachable!("the sharded engine plans sharded batches")
        };
        let mut ok = predicted == b.predicted;
        if !ok {
            report.error(format!(
                "batch {}: dispatch-time price differs from the composed one",
                b.seq
            ));
        }
        let exec_start = Instant::now();
        let run = tracer.span("engine.execute", || {
            engine.execute(queries, &plan, s.threads, &tel)
        });
        let exec_ns = exec_start.elapsed().as_nanos() as f64;
        let verified = tracer.span("engine.verify", || {
            engine.verify(&predicted, Some(&sp.predicted_tier), &run.measured)
        });
        let done = Instant::now();
        if let Err(msg) = verified {
            report.error(format!("batch {} verify: {msg}", b.seq));
            ok = false;
        }
        p.service_ns.push((done - dispatched).as_nanos() as f64);
        p.model_ratio
            .push(b.predicted_service_ns as f64 / exec_ns.max(1.0));
        for (&i, mut hits) in b.requests.iter().zip(run.results) {
            let r = &trace[i];
            let due = at(r.arrival_ns);
            let latency = (done - due).as_nanos() as u64;
            p.queue_wait_ns.push((dispatched - due).as_nanos() as f64);
            hits.truncate(r.k);
            p.answers[i] = Some(hits);
            p.latency_ns[i] = Some(latency);
            // A late answer is a latency, not a failure: the p99 shows
            // it. Whether an answer is late depends on how much CPU the
            // host lends the run, so counting it as failed would make
            // the same code fail a different number of requests on each
            // run. The composer's own deadline drops (`TimedOut`) are a
            // deterministic function of the seed and count as failed.
            p.late += u64::from(latency > r.deadline_ns);
            p.failed += u64::from(!ok);
            p.completed += 1;
        }
        prev_done = done;
    }
    p.end_backlog_ns = prev_done
        .saturating_duration_since(at(last_arrival))
        .as_nanos() as u64;
    p.elapsed_s += (prev_done - t0).as_secs_f64();
    let after = engine.tier_counters();
    p.tier.accumulate(&TierTraffic {
        cache_code_bytes: after.cache_code_bytes - before.cache_code_bytes,
        disk_code_bytes: after.disk_code_bytes - before.disk_code_bytes,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_admissions: after.cache_admissions - before.cache_admissions,
        cache_evictions: after.cache_evictions - before.cache_evictions,
    });
}

/// Latency at percentile `pct` over every attempted request, counting
/// unanswered or late requests as missing the limit (infinite latency).
fn attempted_percentile(p: &Played, pct: f64) -> f64 {
    let v: Vec<f64> = p
        .latency_ns
        .iter()
        .map(|l| l.map_or(f64::INFINITY, |ns| ns as f64))
        .collect();
    percentile(&v, pct)
}

/// `slo_qps` from the ladder's `(rate, latency)` points, where a rate's
/// latency is the larger of its p99 (unanswered requests count as misses)
/// and its end-of-run backlog. Take the highest rate whose latency meets
/// the limit, then interpolate on log-latency over log-rate toward the
/// next rate up, so the figure moves smoothly with service speed instead
/// of snapping to ladder rungs. A failing rate below a passing one (a
/// host stall) is ignored.
pub fn slo_rate(points: &[(f64, f64)], limit_ns: f64) -> f64 {
    // An unanswered request makes a latency infinite; cap it so the
    // interpolation stays finite.
    let capped = |lat: f64| lat.min(100.0 * limit_ns);
    let Some(top) = points.iter().rposition(|&(_, lat)| lat <= limit_ns) else {
        // Even the lowest rate misses: scale it by how far it missed.
        let (rate, lat) = points[0];
        return rate * limit_ns / capped(lat);
    };
    let (r0, l0) = points[top];
    let Some(&(r1, l1)) = points.get(top + 1) else {
        return r0;
    };
    // l0 <= limit < l1, so the fraction lies in [0, 1).
    let (l0, l1) = (l0.max(1.0), capped(l1));
    let frac = (limit_ns.ln() - l0.ln()) / (l1.ln() - l0.ln());
    (r0.ln() + (r1.ln() - r0.ln()) * frac).exp()
}

/// Runs the nominal rate and the rate ladder for `seconds` in total,
/// with one `set_up` call after each of the first `SETUP_REPS - 1` ladder
/// passes.
///
/// # Errors
///
/// Returns any storage error from opening the shard segments, or the
/// error of a failed `set_up` call.
pub fn run(
    s: &Serve,
    seconds: f64,
    tracer: &Tracer,
    report: &mut Report,
    set_up: &mut dyn FnMut() -> std::io::Result<()>,
) -> std::io::Result<()> {
    let open = || ShardedIndex::open_tiered(s.paths, s.cache_per_shard);
    let cold = open()?;
    let scopes: Vec<Vec<usize>> =
        s.ds.queries
            .iter()
            .map(|q| {
                SearchEngine::query_scope(
                    &cold,
                    q,
                    &QuerySpec {
                        k: s.shape.k,
                        scope: s.shape.nprobe,
                    },
                )
            })
            .collect();

    // Compose every rate up front, against cold caches: the schedules
    // depend on the seed and the fixed constants only.
    let nominal_secs = seconds * k::NOMINAL_SHARE;
    let rung_secs =
        seconds * (1.0 - k::NOMINAL_SHARE) / (k::LADDER_QPS.len() * k::LADDER_PASSES) as f64;
    let rung = compose_rung(
        &cold,
        &s.ds.queries,
        arrivals(&s.shape, s.seed, k::NOMINAL_QPS, nominal_secs),
        k::NOMINAL_QPS,
        tracer,
    );
    let ladder: Vec<Rung> = k::LADDER_QPS
        .iter()
        .map(|&rate| {
            let trace = arrivals(&s.shape, s.seed, rate, rung_secs);
            compose_rung(&cold, &s.ds.queries, trace, rate, tracer)
        })
        .collect();
    drop(cold);

    // The nominal rate, traced when tracing is on, in one part before
    // each ladder pass: the host's noisy spells last seconds, so spreading
    // the nominal windows over the run leaves some of them outside any
    // one spell. One engine serves every part, so its caches carry over.
    let engine = open()?;
    let mut p = Played::new(rung.trace.len());
    let nominal_batches = rung.schedule.batches.len();
    let mut passes: Vec<Vec<f64>> = vec![Vec::new(); ladder.len()];
    for pass in 0..k::LADDER_PASSES {
        let part = nominal_batches * pass / k::LADDER_PASSES
            ..nominal_batches * (pass + 1) / k::LADDER_PASSES;
        play_part(&rung, part, &engine, s, &scopes, tracer, report, &mut p);
        for (r, seen) in ladder.iter().zip(&mut passes) {
            let played = play(r, &open()?, s, &scopes, &Tracer::new(false), report);
            let p99 = attempted_percentile(&played, 99.0);
            seen.push(p99.max(played.end_backlog_ns as f64));
        }
        if pass + 1 < SETUP_REPS {
            set_up()?;
        }
    }
    p.count_dropped(&rung.schedule);
    // Per rate, the pass with the lowest latency.
    let points: Vec<(f64, f64)> = ladder
        .iter()
        .zip(&passes)
        .map(|(r, seen)| (r.rate, seen.iter().copied().fold(f64::INFINITY, f64::min)))
        .collect();
    let trace = &rung.trace;

    // Correctness: every answer to a query row equals the first one, and
    // the first answers of a fixed row sample equal the serial oracle.
    let mut first: Vec<Option<&Vec<Neighbor>>> = vec![None; s.shape.queries];
    let mut bad = 0u64;
    for (r, ans) in trace.iter().zip(&p.answers) {
        if let Some(a) = ans {
            match first[r.query_row] {
                None => first[r.query_row] = Some(a),
                Some(f) if f != a => bad += 1,
                Some(_) => {}
            }
        }
    }
    let answered: Vec<(usize, &Vec<Neighbor>)> = first
        .iter()
        .enumerate()
        .filter_map(|(r, a)| a.map(|a| (r, a)))
        .collect();
    let params = SearchParams {
        nprobe: s.shape.nprobe,
        k: s.shape.k,
        lut_precision: LutPrecision::F32,
    };
    for &(r, a) in answered.iter().take(ORACLE_SAMPLE) {
        if *a != s.index.search(s.ds.queries.row(r), &params) {
            bad += 1;
        }
    }
    if bad > 0 {
        report.error(format!(
            "{bad} served answers differ from the serial oracle or from each other"
        ));
    }
    let recall = answered
        .iter()
        .map(|&(r, a)| recall_one(&s.gt.ids[r], a, 10))
        .sum::<f64>()
        / answered.len().max(1) as f64;

    report.attempted += trace.len() as u64;
    report.failed += p.failed + bad;
    report.notes.push(format!(
        "nominal requests answered past their {} ms deadline: {} of {}",
        k::LATENCY_LIMIT_NS / 1_000_000,
        p.late,
        trace.len()
    ));
    let lat: Vec<f64> = p
        .latency_ns
        .iter()
        .flatten()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let nreq = format!(
        "of {} answered requests at {} req/s",
        lat.len(),
        k::NOMINAL_QPS
    );
    // Percentiles per window of consecutive arrivals, then the best
    // (lowest) window (see `serve::WINDOW_REQUESTS`).
    let window = k::WINDOW_REQUESTS.min(lat.len()).max(1);
    let wtail = tail_percentile(window);
    let windowed = |pct: f64| {
        let per: Vec<f64> = lat.chunks(window).map(|w| percentile(w, pct)).collect();
        (per.iter().copied().fold(f64::INFINITY, f64::min), per)
    };
    let (p50_ms, _) = windowed(50.0);
    let (tail_ms, window_tails) = windowed(wtail);
    report
        .notes
        .push(format!("nominal window p{wtail} ms: {window_tails:.2?}"));
    let how = |pct: f64| {
        format!(
            "request latency, best of {} windows' p{pct}, {nreq}",
            window_tails.len()
        )
    };
    let tail_how = how(wtail);
    let slo = slo_rate(&points, k::LATENCY_LIMIT_NS as f64);
    let ladder: Vec<String> = points
        .iter()
        .map(|(r, lat)| format!("{r}:{:.2}ms", lat / 1e6))
        .collect();
    report.notes.push(format!(
        "serve ladder best-of-{} max(p99, end backlog) by rate: {}",
        k::LADDER_PASSES,
        ladder.join(" ")
    ));
    if !tracer.enabled() {
        report.set(
            "qps",
            p.completed as f64 / p.elapsed_s,
            format!("{} requests answered in {:.3} s", p.completed, p.elapsed_s),
        );
        report.set(
            "recall_at_10",
            recall,
            format!("mean over {} distinct queries served", answered.len()),
        );
        report.set("p50_ms", p50_ms, how(50.0));
        report.set("p99_ms", tail_ms, tail_how);
        report.set(
            "slo_qps",
            slo,
            format!(
                "highest rate with best-of-{} p99 <= {} ms, interpolated over rates {:?}",
                k::LADDER_PASSES,
                k::LATENCY_LIMIT_NS / 1_000_000,
                k::LADDER_QPS
            ),
        );
        return Ok(());
    }

    report.set(
        "trace.qps",
        p.completed as f64 / p.elapsed_s,
        "answered requests/s, traced",
    );
    report.set("trace.p99_ms", tail_ms, format!("{tail_how}, traced"));
    let nb = p.service_ns.len();
    span_medians(tracer, report, nb);
    let bytes: u64 = rung
        .schedule
        .batches
        .iter()
        .map(|b| b.predicted.total())
        .sum();
    report.set(
        "plan.bytes_per_query",
        bytes as f64 / rung.schedule.dispatched().max(1) as f64,
        "composed prediction per dispatched request",
    );
    let btail = tail_percentile(nb);
    let wtail = tail_percentile(p.queue_wait_ns.len());
    let per = format!("of {nb} batches");
    report.set(
        "serve.queue_wait_p50_ms",
        median(&p.queue_wait_ns) / 1e6,
        "due arrival to dispatch, median per request",
    );
    report.set(
        "serve.queue_wait_p99_ms",
        percentile(&p.queue_wait_ns, wtail) / 1e6,
        format!("due arrival to dispatch, p{wtail} per request"),
    );
    report.set(
        "serve.service_p50_ms",
        median(&p.service_ns) / 1e6,
        format!("dispatch to completion, median {per}"),
    );
    report.set(
        "serve.service_p99_ms",
        percentile(&p.service_ns, btail) / 1e6,
        format!("dispatch to completion, p{btail} {per}"),
    );
    report.set(
        "serve.dispatch_lag_ms",
        percentile(&p.lag_ns, btail) / 1e6,
        format!("dispatch lateness, p{btail} {per}"),
    );
    report.set(
        "serve.batch_size",
        rung.schedule.dispatched() as f64 / nb.max(1) as f64,
        format!("mean {per}"),
    );
    report.set(
        "serve.time_model_ratio",
        median(&p.model_ratio),
        format!("predicted / measured execute, median {per}"),
    );
    let service_total: f64 = p.service_ns.iter().sum();
    report.set(
        "serve.compose_share",
        rung.compose_ns as f64 / service_total,
        "compose time / total service time; compose runs ahead of the run",
    );
    let t = p.tier;
    report.set(
        "tier.hit_ratio",
        t.cache_hits as f64 / (t.cache_hits + t.cache_misses).max(1) as f64,
        "cluster fetches served by the cache",
    );
    report.set(
        "tier.disk_bytes_per_query",
        t.disk_code_bytes as f64 / p.completed.max(1) as f64,
        "storage code bytes per answered request",
    );
    report.set(
        "tier.evictions",
        t.cache_evictions as f64,
        format!("cache evictions over {nb} batches"),
    );
    drop(engine);

    // Serial replay of the nominal schedule's first batches: fetches
    // through fresh tiered shard replicas, stages on the in-RAM index.
    let shards: Vec<TieredIndex> = s
        .paths
        .iter()
        .map(|path| TieredIndex::open(path, s.cache_per_shard))
        .collect::<std::io::Result<_>>()?;
    let mut replay = StageReplay::new(s.index, None, s.shape.k, s.shape.nprobe);
    let budget = Duration::from_secs_f64(seconds * REPLAY_SHARE);
    let start = Instant::now();
    let mut replayed = 0usize;
    let mut replay_bad = 0u64;
    for b in &rung.schedule.batches {
        if replayed > 0 && start.elapsed() > budget {
            break;
        }
        tracer.set_group(1_000_000 + b.seq as u64);
        let rows: Vec<usize> = b.requests.iter().map(|&i| trace[i].query_row).collect();
        let batch_scopes: Vec<Vec<usize>> = rows.iter().map(|&r| scopes[r].clone()).collect();
        replay_fetches(&shards, &batch_scopes, tracer, &mut replay.tally)?;
        for (&i, &r) in b.requests.iter().zip(&rows) {
            if Some(replay.query(s.ds.queries.row(r), tracer)) != p.answers[i] {
                replay_bad += 1;
            }
        }
        replayed += 1;
    }
    if replay_bad > 0 {
        report.error(format!(
            "{replay_bad} replayed answers differ from the served ones"
        ));
        report.failed += replay_bad;
    }
    let exec: Vec<(u64, u64)> = tracer.durations("engine.execute");
    let exec_ns: f64 = exec
        .iter()
        .filter(|(g, _)| (*g as usize) < replayed)
        .map(|&(_, ns)| ns as f64)
        .sum();
    stage_metrics(
        "serve_tiered",
        tracer,
        report,
        &replay.tally,
        exec_ns * s.threads as f64,
        replayed,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::slo_rate;

    const MS: f64 = 1e6;

    #[test]
    fn slo_rate_interpolates_between_the_last_pass_and_the_next_rate() {
        let limit = 50.0 * MS;
        let points = [(1_000.0, 5.0 * MS), (2_000.0, 500.0 * MS)];
        let slo = slo_rate(&points, limit);
        // Halfway on log-latency between 5 ms and 500 ms is 50 ms, so the
        // rate is halfway on log-rate: sqrt(1000 * 2000).
        assert!((slo - 2_000_000f64.sqrt()).abs() < 1e-6, "{slo}");
    }

    #[test]
    fn slo_rate_ignores_a_stalled_rate_below_a_passing_one() {
        let limit = 50.0 * MS;
        let stalled = [
            (1_000.0, 80.0 * MS),
            (2_000.0, 10.0 * MS),
            (3_000.0, f64::INFINITY),
        ];
        let slo = slo_rate(&stalled, limit);
        assert!(slo > 2_000.0 && slo < 3_000.0, "{slo}");
        let all_pass = [(1_000.0, 5.0 * MS), (2_000.0, 6.0 * MS)];
        assert_eq!(slo_rate(&all_pass, limit), 2_000.0);
        let none = [(1_000.0, 100.0 * MS)];
        assert_eq!(slo_rate(&none, limit), 500.0);
        let unanswered = [(1_000.0, f64::INFINITY)];
        assert_eq!(slo_rate(&unanswered, limit), 10.0);
    }
}
