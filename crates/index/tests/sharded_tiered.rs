//! Seeded property tests for the sharded, tiered engine: sharded tiered
//! search must be bit-identical — results *and* stats — to the
//! single-shard in-RAM serial oracle across {L2, IP} × {k* = 16, 256} ×
//! {1, 2, 4, 8} threads, with predicted tier traffic equal to measured at
//! every step.

use anna_engine::{plan_batch, PlanOptions, QuerySpec};
use anna_index::{IvfPqConfig, IvfPqIndex, SearchParams, ShardedIndex, ShardedStats};
use anna_plan::{EnginePlan, PlanParams, ShardedBatchPlan, TrafficModel};
use anna_testkit::forall;
use anna_vector::{Metric, Neighbor, VectorSet};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "anna_sharded_prop_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Plans `queries` against the live shard state.
fn plan(sharded: &ShardedIndex, queries: &VectorSet, params: &SearchParams) -> ShardedBatchPlan {
    let spec = QuerySpec {
        k: params.k,
        scope: params.nprobe,
    };
    match plan_batch(sharded, queries, &spec, &PlanOptions::default()) {
        EnginePlan::Sharded(plan) => plan,
        other => panic!("sharded engine planned a {} plan", other.engine()),
    }
}

/// Plans and executes `queries` on `threads` workers.
fn search(
    sharded: &ShardedIndex,
    queries: &VectorSet,
    params: &SearchParams,
    threads: usize,
) -> (Vec<Vec<Neighbor>>, ShardedStats) {
    sharded
        .try_execute(queries, &plan(sharded, queries, params), threads)
        .unwrap()
}

#[test]
fn sharded_tiered_matches_the_single_shard_ram_oracle() {
    forall("sharded tiered == serial oracle", 6, |rng| {
        let metric = *rng.pick(&[Metric::L2, Metric::InnerProduct]);
        let kstar = *rng.pick(&[16usize, 256]);
        let dim = 8;
        let n = rng.usize(300..500);
        let num_clusters = rng.usize(6..12);
        let blobs = rng.usize(4..8);
        let spread = rng.f32(10.0..30.0);
        let data = VectorSet::from_fn(dim, n, |r, c| {
            (r % blobs) as f32 * spread + ((r * 29 + c * 5) % 17) as f32 * 0.2
        });
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                metric,
                num_clusters,
                m: 4,
                kstar,
                ..IvfPqConfig::default()
            },
        );
        let params = SearchParams {
            nprobe: rng.usize(2..num_clusters),
            k: rng.usize(2..8),
            ..SearchParams::default()
        };
        let qn = rng.usize(4..20);
        let rows: Vec<usize> = (0..qn).map(|_| rng.usize(0..n)).collect();
        let queries = data.gather(&rows);

        // The oracle: one in-RAM shard, one worker — plain serial
        // cluster-major execution.
        let oracle = ShardedIndex::from_index(&index, 1);
        let (want, want_stats) = search(&oracle, &queries, &params, 1);
        // Results must also agree with plain query-major search.
        for (qi, &row) in rows.iter().enumerate() {
            assert_eq!(want[qi], index.search(data.row(row), &params), "oracle");
        }

        let shards = rng.usize(2..5);
        let dir = temp_dir("prop");
        let paths = ShardedIndex::write_shard_segments(&index, shards, &dir).unwrap();
        let total: u64 = (0..index.num_clusters())
            .map(|g| index.cluster(g).encoded_bytes())
            .sum();
        let capacity = rng.u64(0..total.max(1) * 2);
        let tiered = ShardedIndex::open_tiered(&paths, capacity).unwrap();
        for threads in [1usize, 2, 4, 8] {
            // Each search advances the shard caches, so predict from the
            // live state immediately before running.
            let plan = plan(&tiered, &queries, &params);
            let predicted = TrafficModel::new(PlanParams::default()).price_sharded(&plan);
            let (got, stats) = tiered.try_execute(&queries, &plan, threads).unwrap();
            assert_eq!(
                got, want,
                "{metric:?} k*={kstar} shards={shards} threads={threads}: results diverged"
            );
            assert_eq!(
                stats.batch, want_stats.batch,
                "{metric:?} k*={kstar} shards={shards} threads={threads}: stats diverged"
            );
            assert_eq!(
                plan.predicted_tier, stats.tier,
                "{metric:?} k*={kstar} capacity={capacity}: tier prediction diverged"
            );
            assert_eq!(
                stats.tier.total_code_bytes(),
                stats.batch.code_bytes,
                "tier split must cover all code bytes"
            );
            assert_eq!(predicted.code_bytes, stats.batch.code_bytes);
            assert_eq!(predicted.topk_spill_bytes, stats.batch.topk_spill_bytes);
            assert_eq!(predicted.topk_fill_bytes, stats.batch.topk_fill_bytes);
        }
        std::fs::remove_dir_all(dir).unwrap();
    });
}

#[test]
fn ram_sharding_is_thread_and_shard_count_invariant() {
    forall("ram sharding invariance", 8, |rng| {
        let metric = *rng.pick(&[Metric::L2, Metric::InnerProduct]);
        let kstar = *rng.pick(&[16usize, 256]);
        let data = VectorSet::from_fn(8, 420, |r, c| {
            (r % 6) as f32 * 21.0 + ((r * 13 + c * 11) % 19) as f32 * 0.15
        });
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                metric,
                num_clusters: 10,
                m: 4,
                kstar,
                ..IvfPqConfig::default()
            },
        );
        let params = SearchParams {
            nprobe: rng.usize(2..8),
            k: rng.usize(1..6),
            ..SearchParams::default()
        };
        let queries = data.gather(&(0..12).map(|i| i * 33 % 420).collect::<Vec<_>>());
        let (want, want_stats) = search(&ShardedIndex::from_index(&index, 1), &queries, &params, 1);
        let shards = rng.usize(2..6);
        let sharded = ShardedIndex::from_index(&index, shards);
        for threads in [1usize, 2, 4, 8] {
            let (got, stats) = search(&sharded, &queries, &params, threads);
            assert_eq!(got, want, "shards={shards} threads={threads}");
            assert_eq!(stats.batch, want_stats.batch, "shards={shards}");
        }
    });
}
