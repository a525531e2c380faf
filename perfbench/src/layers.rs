//! Per-layer figures of a traced run: median times of the timed public
//! calls, and the stage replay's per-layer times, counts and shares.

use crate::replay::{ReplayTally, STAGES};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Queries checked against the serial `IvfPqIndex::search` oracle.
pub const ORACLE_SAMPLE: usize = 32;

/// Share of `--seconds` the traced run may spend on the stage replay.
pub const REPLAY_SHARE: f64 = 0.15;

/// Median per-batch span times of the timed loop.
pub fn span_medians(tracer: &Tracer, report: &mut Report, batches: usize) {
    let med = |name: &str| {
        let v: Vec<f64> = tracer
            .durations(name)
            .iter()
            .map(|&(_, ns)| ns as f64)
            .collect();
        median(&v)
    };
    let how = |what: &str| format!("{what}, median of {batches} batches");
    report.set(
        "plan.plan_us",
        med("plan.plan") / 1e3,
        how("SearchEngine::plan"),
    );
    report.set(
        "plan.price_us",
        med("plan.price") / 1e3,
        how("SearchEngine::price"),
    );
    report.set(
        "engine.execute_ms",
        med("engine.execute") / 1e6,
        how("SearchEngine::execute"),
    );
    report.set(
        "engine.verify_us",
        med("engine.verify") / 1e3,
        how("SearchEngine::verify"),
    );
}

/// Per-layer figures of the stage replay, the stage share against the
/// engine's own execute time (`exec_thread_ns` = execute ns × threads
/// over the same batches), and the one-line stage summary.
pub fn stage_metrics(
    workload: &str,
    tracer: &Tracer,
    report: &mut Report,
    tally: &ReplayTally,
    exec_thread_ns: f64,
    batches: usize,
) {
    let selfs = tracer.self_time_ns();
    let stage = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64;
    let q = tally.queries.max(1) as f64;
    let how = format!(
        "serial replay of {} queries in {batches} batches",
        tally.queries
    );
    report.set(
        "index.filter_us",
        stage("index.filter") / q / 1e3,
        format!("per query, {how}"),
    );
    report.set(
        "index.lut_us",
        stage("index.lut") / q / 1e3,
        format!("per query, {how}"),
    );
    report.set(
        "index.scan_ns_per_code",
        stage("index.scan") / tally.scan.scanned.max(1) as f64,
        how.clone(),
    );
    report.set(
        "index.centroids_scored",
        tally.centroids_scored as f64 / q,
        "per query",
    );
    report.set("index.luts_built", tally.luts_built as f64 / q, "per query");
    report.set(
        "index.lut_entries",
        tally.lut_entries as f64 / q,
        "per query",
    );
    report.set(
        "index.codes_scanned",
        tally.scan.scanned as f64 / q,
        "per query",
    );
    report.set(
        "index.heap_admit_ratio",
        1.0 - tally.scan.pruned as f64 / tally.scan.scanned.max(1) as f64,
        "1 - ScanTally::pruned / scanned",
    );
    report.set(
        "index.rerank_candidates",
        tally.rerank_candidates as f64 / q,
        "per query",
    );
    let total: f64 = STAGES.iter().map(|s| stage(s)).sum();
    report.set(
        "index.rerank_share",
        stage("index.rerank") / total,
        format!("of replayed stage time, {how}"),
    );
    report.set(
        "tier.fetch_share",
        stage("tier.fetch") / total,
        format!("of replayed stage time, {how}"),
    );
    let in_execute = total - stage("index.filter");
    report.set(
        "engine.stage_share",
        in_execute / exec_thread_ns.max(1.0),
        "replayed lut+scan+rerank+fetch time / (execute time x threads), same batches",
    );
    let (top, ns) = STAGES
        .iter()
        .map(|s| (*s, stage(s)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("STAGES is not empty");
    let shares: Vec<String> = STAGES
        .iter()
        .map(|s| format!("{s} {:.1}%", 100.0 * stage(s) / total))
        .collect();
    report.summary = Some(format!(
        "stage summary {workload}: largest self-time layer {top} ({:.1}% of replayed stage time; {})",
        100.0 * ns / total,
        shares.join(", ")
    ));
}
