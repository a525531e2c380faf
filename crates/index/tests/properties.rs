//! Property-based tests for the IVF-PQ index and its execution schedules
//! (seeded `anna-testkit` harness; failures report a replayable seed).

use anna_engine::{run_pipeline, PlanOptions, QuerySpec};
use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex, SearchParams};
use anna_plan::EnginePlan;
use anna_telemetry::Telemetry;
use anna_testkit::{forall, TestRng};
use anna_vector::{Metric, VectorSet};

fn arb_dataset(rng: &mut TestRng) -> VectorSet {
    let n = rng.usize(20..200);
    let seed = rng.u64(0..1000);
    VectorSet::from_fn(8, n, |r, c| {
        let x = (r as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(c as u64)
            .wrapping_add(seed.wrapping_mul(31));
        ((x >> 16) % 64) as f32
    })
}

/// Every database id appears in exactly one inverted list, whatever the
/// data and cluster count.
#[test]
fn inverted_lists_partition() {
    forall("inverted lists partition", 24, |rng| {
        let db = arb_dataset(rng);
        let clusters = rng.usize(2..12);
        let index = IvfPqIndex::build(
            &db,
            &IvfPqConfig {
                metric: Metric::L2,
                num_clusters: clusters,
                m: 4,
                kstar: 16,
                coarse_iters: 3,
                pq_iters: 2,
                ..IvfPqConfig::default()
            },
        );
        let mut seen = vec![0usize; db.len()];
        for c in 0..index.num_clusters() {
            for &id in &index.cluster(c).ids {
                seen[id as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
        let total: usize = index.cluster_sizes().iter().sum();
        assert_eq!(total, db.len());
    });
}

/// The batched cluster-major scan returns exactly what query-major
/// search returns, for both metrics.
#[test]
fn batched_equals_query_major() {
    forall("batched equals query major", 24, |rng| {
        let db = arb_dataset(rng);
        let nprobe = rng.usize(1..6);
        let k = rng.usize(1..8);
        let metric = if rng.bool() {
            Metric::InnerProduct
        } else {
            Metric::L2
        };
        let index = IvfPqIndex::build(
            &db,
            &IvfPqConfig {
                metric,
                num_clusters: 6,
                m: 4,
                kstar: 16,
                coarse_iters: 3,
                pq_iters: 2,
                ..IvfPqConfig::default()
            },
        );
        let queries = db.gather(&(0..db.len().min(9)).collect::<Vec<_>>());
        let params = SearchParams {
            nprobe,
            k,
            ..Default::default()
        };
        let spec = QuerySpec { k, scope: nprobe };
        let (plan, _, run) = run_pipeline(
            &BatchedScan::new(&index),
            &queries,
            &spec,
            &PlanOptions::default(),
            2,
            &Telemetry::disabled(),
        )
        .expect("predicted must equal measured");
        for (qi, res) in run.results.iter().enumerate() {
            let single = index.search(queries.row(qi), &params);
            assert_eq!(res, &single, "query {qi} diverged");
        }
        let EnginePlan::ClusterMajor { workload, .. } = &plan else {
            unreachable!("the batch engine plans cluster-major")
        };
        assert!(run.measured.code_bytes <= workload.query_major_code_bytes());
    });
}

/// Widening the probe never loses results: the top-1 score at nprobe
/// w+1 is at least the top-1 score at w.
#[test]
fn nprobe_monotone_in_best_score() {
    forall("nprobe monotone in best score", 24, |rng| {
        let db = arb_dataset(rng);
        let w = rng.usize(1..5);
        let index = IvfPqIndex::build(
            &db,
            &IvfPqConfig {
                metric: Metric::L2,
                num_clusters: 6,
                m: 4,
                kstar: 16,
                coarse_iters: 3,
                pq_iters: 2,
                ..IvfPqConfig::default()
            },
        );
        let q = db.row(0);
        let a = index.search(
            q,
            &SearchParams {
                nprobe: w,
                k: 1,
                ..Default::default()
            },
        );
        let b = index.search(
            q,
            &SearchParams {
                nprobe: w + 1,
                k: 1,
                ..Default::default()
            },
        );
        if let (Some(x), Some(y)) = (a.first(), b.first()) {
            assert!(y.score >= x.score - 1e-4);
        }
    });
}

/// Compression bookkeeping: stats always reproduce the M·log2(k*)/8
/// formula.
#[test]
fn stats_match_formula() {
    forall("stats match formula", 24, |rng| {
        let db = arb_dataset(rng);
        let wide = rng.bool();
        let (m, kstar) = if wide { (4usize, 256usize) } else { (8, 16) };
        let index = IvfPqIndex::build(
            &db,
            &IvfPqConfig {
                metric: Metric::L2,
                num_clusters: 4,
                m,
                kstar,
                coarse_iters: 2,
                pq_iters: 2,
                ..IvfPqConfig::default()
            },
        );
        let stats = index.stats();
        let bytes_per_vec = (m * if wide { 8 } else { 4 }).div_ceil(8) as u64;
        assert_eq!(stats.code_bytes, db.len() as u64 * bytes_per_vec);
        assert_eq!(stats.raw_bytes, db.len() as u64 * 16);
    });
}
