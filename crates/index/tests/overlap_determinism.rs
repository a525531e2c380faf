//! Determinism of the overlapped (double-buffered) round pipeline.
//!
//! `parallel_determinism.rs` pins serial == parallel on small, even
//! workloads; this suite aims the same bit-identity property squarely at
//! the wave machinery the overlap introduces: workloads with enough
//! rounds to span several waves, skewed cluster populations that force
//! the tile shaper to split hot clusters (so prebuilt LUT slots are
//! exercised across tile boundaries), both metrics (L2 rebuilds tables
//! per cluster inside the pipeline; InnerProduct re-biases shared base
//! tables built in parallel), both code widths, and a telemetry-on pass —
//! all across worker counts {1, 2, 4, 8}, checked against the serial
//! query-major oracle ([`IvfPqIndex::search`]) and seeded through
//! `anna-testkit` so any failure replays from a printed seed.

use anna_engine::{run_pipeline, EngineRun, PlanOptions, QuerySpec};
use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex, LutPrecision, SearchParams};
use anna_telemetry::Telemetry;
use anna_testkit::{forall, TestRng};
use anna_vector::{Metric, VectorSet};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Heavily skewed dataset: most rows fall into one giant blob (one hot
/// cluster the shaper must split into many tiles) while the rest spread
/// across small blobs (many light rounds, so waves mix split tiles with
/// whole-cluster tiles). Scores collide constantly within a blob, so any
/// schedule-dependence in scoring or merging surfaces as a diff.
fn skewed_data(dim: usize, n: usize) -> VectorSet {
    VectorSet::from_fn(dim, n, |r, c| {
        let blob = if r % 5 != 0 { 0 } else { 1 + (r / 5) % 15 };
        blob as f32 * 12.0 + ((blob * 31 + c * 7) % 9) as f32 * 0.25
    })
}

fn build(metric: Metric, kstar: usize) -> (VectorSet, IvfPqIndex) {
    let data = skewed_data(8, 900);
    let cfg = IvfPqConfig {
        metric,
        num_clusters: 16,
        m: 4,
        kstar,
        ..IvfPqConfig::default()
    };
    let index = IvfPqIndex::build(&data, &cfg);
    (data, index)
}

/// One pass of the batch pipeline (shaped plan, verified predicted ==
/// measured) at `threads` workers.
fn run(
    scan: &BatchedScan,
    queries: &VectorSet,
    params: &SearchParams,
    threads: usize,
    tel: &Telemetry,
) -> EngineRun {
    let spec = QuerySpec {
        k: params.k,
        scope: params.nprobe,
    };
    run_pipeline(scan, queries, &spec, &PlanOptions::default(), threads, tel)
        .unwrap_or_else(|e| panic!("threads={threads}: {e}"))
        .2
}

/// Asserts `run` holds the oracle's neighbors for every query.
fn assert_matches_oracle(
    index: &IvfPqIndex,
    queries: &VectorSet,
    params: &SearchParams,
    run: &EngineRun,
    ctx: &str,
) {
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(
            run.results[qi],
            index.search(q, params),
            "{ctx}: query {qi}"
        );
    }
}

/// Core property: under the engine's shaped plan (the configuration that
/// engages the tile shaper and the overlapped wave pipeline), every
/// worker count reproduces the oracle's neighbors and one measured
/// traffic record bit for bit.
fn overlapped_matches_serial(metric: Metric, kstar: usize) {
    let (data, index) = build(metric, kstar);
    let scan = BatchedScan::new(&index);
    let name = format!("overlap == serial ({metric:?}, kstar={kstar})");
    forall(&name, 10, |rng: &mut TestRng| {
        // Large-ish batches with wide probes: enough rounds for several
        // waves, and enough visitors on the hot cluster to split it.
        let batch = rng.usize(16..96);
        let ids: Vec<usize> = (0..batch).map(|_| rng.usize(0..data.len())).collect();
        let queries = data.gather(&ids);
        let params = SearchParams {
            nprobe: rng.usize(4..13),
            k: *rng.pick(&[1usize, 5, 10, 16]),
            lut_precision: LutPrecision::F32,
        };

        let tel = Telemetry::disabled();
        let serial = run(&scan, &queries, &params, 1, &tel);
        for threads in THREADS {
            let par = run(&scan, &queries, &params, threads, &tel);
            let ctx = format!("threads={threads}");
            assert_matches_oracle(&index, &queries, &params, &par, &ctx);
            assert_eq!(par.measured, serial.measured, "traffic diverged: {ctx}");
        }
    });
}

#[test]
fn l2_kstar16_overlapped_matches_serial() {
    overlapped_matches_serial(Metric::L2, 16);
}

#[test]
fn l2_kstar256_overlapped_matches_serial() {
    overlapped_matches_serial(Metric::L2, 256);
}

#[test]
fn inner_product_kstar16_overlapped_matches_serial() {
    overlapped_matches_serial(Metric::InnerProduct, 16);
}

#[test]
fn inner_product_kstar256_overlapped_matches_serial() {
    overlapped_matches_serial(Metric::InnerProduct, 256);
}

/// The overlap must survive observation: with a live telemetry sink the
/// pipeline emits per-worker build/scan counters, yet neighbors and
/// traffic stay bit-identical to the oracle and the uninstrumented run.
/// Multi-worker runs must show LUT-build work credited to the workers
/// (`luts_built`) — proof the prebuilt path, not the inline fallback,
/// actually ran.
#[test]
fn telemetry_on_overlap_stays_bit_identical() {
    let (data, index) = build(Metric::L2, 16);
    let scan = BatchedScan::new(&index);
    forall("telemetry on: overlap == serial", 6, |rng: &mut TestRng| {
        let batch = rng.usize(24..80);
        let ids: Vec<usize> = (0..batch).map(|_| rng.usize(0..data.len())).collect();
        let queries = data.gather(&ids);
        let params = SearchParams {
            nprobe: rng.usize(4..13),
            k: rng.usize(1..12),
            lut_precision: LutPrecision::F32,
        };

        let serial = run(&scan, &queries, &params, 1, &Telemetry::disabled());
        for threads in THREADS {
            let tel = Telemetry::enabled();
            let par = run(&scan, &queries, &params, threads, &tel);
            let ctx = format!("with telemetry: threads={threads}");
            assert_matches_oracle(&index, &queries, &params, &par, &ctx);
            assert_eq!(par.measured, serial.measured, "traffic diverged {ctx}");
            let snap = tel.snapshot_json().expect("telemetry enabled");
            assert!(snap.contains("\"worker0.tiles\""), "{snap}");
            if threads > 1 {
                assert!(
                    snap.contains("luts_built"),
                    "no prebuilt-LUT work recorded at threads={threads}: {snap}"
                );
            }
        }
    });
}
