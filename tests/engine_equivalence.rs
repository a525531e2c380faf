//! Oracle equivalence: every batch engine behind the shared
//! [`anna::engine::SearchEngine`] pipeline returns results *bit-identical*
//! to the serial query-major oracle ([`IvfPqIndex::search`], or
//! [`IvfPqIndex::search_two_phase`] for re-rank plans), verifies
//! predicted == measured traffic, and measures the same traffic at every
//! thread count — across metrics, code widths, and 1/2/4/8 threads.

use anna::engine::{run_pipeline, EngineRun, PlanOptions, QuerySpec, SearchEngine};
use anna::index::{
    BatchedScan, IvfPqConfig, IvfPqIndex, RerankMode, RerankPolicy, RerankPrecision, SearchParams,
    ShardedIndex,
};
use anna::plan::EnginePlan;
use anna::vector::{Metric, Neighbor, VectorSet};
use anna_telemetry::Telemetry;
use anna_testkit::{forall, TestRng};

/// Grep-proof for the engine layer's telemetry namespace: every counter,
/// histogram, and span the engine-layer crates emit must use the
/// `engine.` prefix, so dashboards can select the whole layer with one
/// glob and no key silently lands in another layer's namespace.
#[test]
fn engine_layer_telemetry_keys_use_the_engine_prefix() {
    // Built via concat! so this test file does not match itself.
    let emitters = [
        concat!("counter_", "add(\""),
        concat!("record_", "ns(\""),
        concat!("sp", "an(\""),
    ];
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut scanned = 0usize;
    let mut keys = 0usize;
    let mut offenders = Vec::new();
    for dir in ["crates/engine/src", "crates/graph/src"] {
        let mut pending = vec![root.join(dir)];
        while let Some(path) = pending.pop() {
            if path.is_dir() {
                for entry in std::fs::read_dir(&path).expect("readable source dir") {
                    pending.push(entry.expect("dir entry").path());
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("readable source file");
                scanned += 1;
                for emitter in emitters {
                    for (i, _) in text.match_indices(emitter) {
                        let key_start = i + emitter.len();
                        let key: String = text[key_start..]
                            .chars()
                            .take_while(|&c| c != '"')
                            .collect();
                        keys += 1;
                        if !key.starts_with("engine.") {
                            offenders.push(format!("{}: `{key}`", path.display()));
                        }
                    }
                }
            }
        }
    }
    assert!(scanned >= 2, "walk looks broken: only {scanned} files");
    assert!(keys >= 8, "extraction looks broken: only {keys} keys");
    assert!(
        offenders.is_empty(),
        "telemetry keys outside the engine. namespace: {offenders:?}"
    );
}

/// Blobby data so the coarse quantizer produces unevenly sized clusters.
fn clustered(dim: usize, n: usize, salt: usize) -> VectorSet {
    VectorSet::from_fn(dim, n, |r, c| {
        let blob = ((r + salt) % 9) as f32;
        blob * 25.0 + ((r * 31 + c * 7 + salt * 13) % 11) as f32 * 0.3
    })
}

fn build(
    metric: Metric,
    kstar: usize,
    salt: usize,
    num_clusters: usize,
) -> (VectorSet, IvfPqIndex) {
    let data = clustered(8, 600, salt);
    let index = IvfPqIndex::build(
        &data,
        &IvfPqConfig {
            metric,
            num_clusters,
            m: 4,
            kstar,
            coarse_iters: 3,
            pq_iters: 2,
            ..IvfPqConfig::default()
        },
    );
    (data, index)
}

/// Asserts `run` holds `oracle`'s neighbors for every query, and that
/// its measured traffic equals the first thread count's.
fn assert_oracle_and_stable(
    run: &EngineRun,
    oracle: &[Vec<Neighbor>],
    first: &mut Option<EngineRun>,
    ctx: &str,
) {
    for (qi, want) in oracle.iter().enumerate() {
        assert_eq!(
            &run.results[qi], want,
            "{ctx}: query {qi} diverged from the oracle"
        );
    }
    let first = first.get_or_insert_with(|| run.clone());
    assert_eq!(run.measured, first.measured, "{ctx}: traffic diverged");
}

/// Single-phase IVF-PQ: the trait pipeline equals the query-major oracle
/// and verifies predicted == measured, with traffic bit-identical at
/// 1/2/4/8 threads.
#[test]
fn ivf_pq_trait_path_is_bit_identical_across_threads() {
    forall("ivf_pq oracle equivalence", 4, |rng: &mut TestRng| {
        let salt = rng.usize(0..1000);
        let num_clusters = rng.usize(8..13);
        let nprobe = rng.usize(1..6).min(num_clusters);
        let k = rng.usize(5..40);
        let b = rng.usize(8..25);
        for metric in [Metric::L2, Metric::InnerProduct] {
            for kstar in [16usize, 256] {
                let (data, index) = build(metric, kstar, salt, num_clusters);
                let ids: Vec<usize> = (0..b).map(|i| (i * 37 + salt) % 600).collect();
                let queries = data.gather(&ids);
                let params = SearchParams {
                    nprobe,
                    k,
                    ..Default::default()
                };
                let oracle: Vec<_> = queries.iter().map(|q| index.search(q, &params)).collect();
                let scan = BatchedScan::new(&index);
                let tel = Telemetry::disabled();

                let spec = QuerySpec { k, scope: nprobe };
                let mut first = None;
                for threads in [1usize, 2, 4, 8] {
                    let ctx = format!("{metric:?}/k*={kstar}/t={threads}");
                    let (_, _, run) = run_pipeline(
                        &scan,
                        &queries,
                        &spec,
                        &PlanOptions::default(),
                        threads,
                        &tel,
                    )
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_oracle_and_stable(&run, &oracle, &mut first, &ctx);
                }
            }
        }
    });
}

/// Two-phase IVF-PQ: the trait pipeline with a random re-rank policy
/// equals the two-phase oracle and verifies at every thread count.
#[test]
fn two_phase_trait_path_is_bit_identical_across_threads() {
    forall("two-phase oracle equivalence", 4, |rng: &mut TestRng| {
        let salt = rng.usize(0..1000);
        let k = rng.usize(3..15);
        let policy = RerankPolicy {
            mode: *rng.pick(&[
                RerankMode::Fixed(RerankPrecision::F16),
                RerankMode::Fixed(RerankPrecision::F32),
                RerankMode::Adaptive,
            ]),
            alpha: rng.usize(1..5),
        };
        for metric in [Metric::L2, Metric::InnerProduct] {
            for kstar in [16usize, 256] {
                let (data, index) = build(metric, kstar, salt, 10);
                let queries =
                    data.gather(&(0..12).map(|i| (i * 41 + salt) % 600).collect::<Vec<_>>());
                let params = SearchParams {
                    nprobe: 4,
                    k,
                    ..Default::default()
                };
                let oracle: Vec<_> = queries
                    .iter()
                    .map(|q| index.search_two_phase(q, &params, &policy, &data))
                    .collect();
                let scan = BatchedScan::with_rerank_db(&index, &data);
                let tel = Telemetry::disabled();

                let spec = QuerySpec {
                    k,
                    scope: params.nprobe,
                };
                let options = PlanOptions {
                    rerank: Some(policy),
                };
                let mut first = None;
                for threads in [1usize, 2, 4, 8] {
                    let ctx = format!("{metric:?}/k*={kstar}/t={threads}");
                    let (plan, _, run) =
                        run_pipeline(&scan, &queries, &spec, &options, threads, &tel)
                            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_eq!(plan.k_scan(), policy.k_first(k), "{ctx}");
                    assert_oracle_and_stable(&run, &oracle, &mut first, &ctx);
                }
            }
        }
    });
}

/// Sharded IVF-PQ: the trait pipeline equals the query-major oracle and
/// verifies predicted == measured — tier split included — at every
/// thread count.
#[test]
fn sharded_trait_path_is_bit_identical_across_threads() {
    forall("sharded oracle equivalence", 4, |rng: &mut TestRng| {
        let salt = rng.usize(0..1000);
        let shards = rng.usize(2..5);
        let nprobe = rng.usize(2..6);
        let k = rng.usize(4..20);
        for metric in [Metric::L2, Metric::InnerProduct] {
            for kstar in [16usize, 256] {
                let (data, index) = build(metric, kstar, salt, 12);
                let sharded = ShardedIndex::from_index(&index, shards);
                let queries =
                    data.gather(&(0..10).map(|i| (i * 53 + salt) % 600).collect::<Vec<_>>());
                let params = SearchParams {
                    nprobe,
                    k,
                    ..Default::default()
                };
                let oracle: Vec<_> = queries.iter().map(|q| index.search(q, &params)).collect();
                let tel = Telemetry::disabled();

                let spec = QuerySpec { k, scope: nprobe };
                let mut first = None;
                for threads in [1usize, 2, 4, 8] {
                    let ctx = format!("{metric:?}/k*={kstar}/t={threads}");
                    let (plan, priced, run) = run_pipeline(
                        &sharded,
                        &queries,
                        &spec,
                        &PlanOptions::default(),
                        threads,
                        &tel,
                    )
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_oracle_and_stable(&run, &oracle, &mut first, &ctx);
                    // The tier split verifies against the plan's own
                    // prediction too (in-RAM shards: all zeros).
                    let EnginePlan::Sharded(sp) = &plan else {
                        panic!("sharded engine planned a {} plan", plan.engine());
                    };
                    sharded
                        .verify(&priced, Some(&sp.predicted_tier), &run.measured)
                        .unwrap_or_else(|e| panic!("{ctx} tier: {e}"));
                }
            }
        }
    });
}
