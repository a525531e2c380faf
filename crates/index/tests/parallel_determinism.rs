//! The parallel cluster-major engine must be bit-identical to the serial
//! query-major oracle ([`IvfPqIndex::search`]) — and its measured traffic
//! identical at every worker count and equal to the plan's price — for
//! every combination of
//!
//! * metric in {L2, InnerProduct},
//! * code width in {k* = 16, k* = 256},
//! * worker count in {1, 2, 4, 8},
//! * tile bound (queries_per_group) in {0 = the engine's shaped plan,
//!   small fixed groups run as caller-supplied plans},
//!
//! on duplicate-heavy data where many database vectors share exact scores,
//! so any schedule-dependent tie-breaking in the merge would show up.

use anna_engine::{plan_batch, run_pipeline, EngineRun, PlanOptions, QuerySpec, SearchEngine};
use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex, LutPrecision, SearchParams};
use anna_plan::{BatchPlan, EnginePlan, PlanParams};
use anna_telemetry::Telemetry;
use anna_testkit::{forall, TestRng};
use anna_vector::{Metric, VectorSet};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Duplicate-heavy dataset: only `distinct` unique rows, each repeated many
/// times, so PQ codes — and therefore ADC scores — collide constantly and
/// the top-k outcome hinges on the id tie-break.
fn tie_heavy_data(dim: usize, n: usize, distinct: usize) -> VectorSet {
    VectorSet::from_fn(dim, n, |r, c| {
        let blob = (r % distinct) as f32;
        blob * 10.0 + ((blob as usize * 31 + c * 7) % 11) as f32 * 0.3
    })
}

fn build(metric: Metric, kstar: usize) -> (VectorSet, IvfPqIndex) {
    let data = tie_heavy_data(8, 480, 24);
    let cfg = IvfPqConfig {
        metric,
        num_clusters: 10,
        m: 4,
        kstar,
        ..IvfPqConfig::default()
    };
    let index = IvfPqIndex::build(&data, &cfg);
    (data, index)
}

/// The batch's plan: the engine's own shaped plan for `group == 0`, else
/// a fixed query-group tiling of the same workload (the accelerator's
/// `N_SCM / g` grouping), executed as a caller-supplied plan.
fn tiled_plan(
    scan: &BatchedScan,
    queries: &VectorSet,
    params: &SearchParams,
    group: usize,
) -> EnginePlan {
    let spec = QuerySpec {
        k: params.k,
        scope: params.nprobe,
    };
    let plan = plan_batch(scan, queries, &spec, &PlanOptions::default());
    if group == 0 {
        return plan;
    }
    let EnginePlan::ClusterMajor { workload, .. } = plan else {
        unreachable!("the batch engine plans cluster-major")
    };
    let record = PlanParams::default().topk_record_bytes as u64;
    let plan = BatchPlan::from_visitors(
        &workload.visitors_per_cluster(),
        &workload.cluster_sizes,
        group,
        params.k as u64 * record,
    );
    EnginePlan::ClusterMajor { workload, plan }
}

/// Asserts `run` holds the oracle's neighbors for every query. Exact
/// equality: Neighbor derives PartialEq on (id, f32 score), so this
/// asserts bit-level agreement of every kept hit.
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

/// Core property: for random queries, probe widths, k, and tile bounds, all
/// worker counts reproduce the oracle's neighbors and one measured traffic
/// record that equals the plan's price.
fn parallel_matches_serial(metric: Metric, kstar: usize) {
    let (data, index) = build(metric, kstar);
    let scan = BatchedScan::new(&index);
    let name = format!("parallel == serial ({metric:?}, kstar={kstar})");
    forall(&name, 12, |rng: &mut TestRng| {
        let batch = rng.usize(1..64);
        let ids: Vec<usize> = (0..batch).map(|_| rng.usize(0..data.len())).collect();
        let queries = data.gather(&ids);
        let params = SearchParams {
            nprobe: rng.usize(1..8),
            k: rng.usize(1..12),
            lut_precision: LutPrecision::F32,
        };
        let group = *rng.pick(&[0usize, 1, 3, 7]);
        let plan = tiled_plan(&scan, &queries, &params, group);
        let predicted = scan.price(&plan);

        let serial = scan.execute(&queries, &plan, 1, &Telemetry::disabled());
        scan.verify(&predicted, None, &serial.measured)
            .unwrap_or_else(|e| panic!("group={group}: {e}"));
        for threads in THREADS {
            let par = scan.execute(&queries, &plan, threads, &Telemetry::disabled());
            let ctx = format!("threads={threads} group={group}");
            assert_matches_oracle(&index, &queries, &params, &par, &ctx);
            assert_eq!(par.measured, serial.measured, "traffic diverged: {ctx}");
        }
    });
}

#[test]
fn l2_kstar16_parallel_matches_serial() {
    parallel_matches_serial(Metric::L2, 16);
}

#[test]
fn l2_kstar256_parallel_matches_serial() {
    parallel_matches_serial(Metric::L2, 256);
}

#[test]
fn inner_product_kstar16_parallel_matches_serial() {
    parallel_matches_serial(Metric::InnerProduct, 16);
}

#[test]
fn inner_product_kstar256_parallel_matches_serial() {
    parallel_matches_serial(Metric::InnerProduct, 256);
}

/// Telemetry must be an observer, not a participant: with a live sink
/// attached, every worker count still reproduces the oracle's neighbors
/// and the uninstrumented traffic bit-for-bit — instrumentation only
/// reads clocks and bumps atomics, so the tile race's outcome cannot
/// depend on it.
#[test]
fn telemetry_enabled_run_stays_bit_identical_to_serial() {
    let (data, index) = build(Metric::L2, 16);
    let scan = BatchedScan::new(&index);
    forall(
        "telemetry on: parallel == serial",
        8,
        |rng: &mut TestRng| {
            let batch = rng.usize(1..48);
            let ids: Vec<usize> = (0..batch).map(|_| rng.usize(0..data.len())).collect();
            let queries = data.gather(&ids);
            let params = SearchParams {
                nprobe: rng.usize(1..8),
                k: rng.usize(1..12),
                lut_precision: LutPrecision::F32,
            };
            let group = *rng.pick(&[0usize, 2, 5]);
            let plan = tiled_plan(&scan, &queries, &params, group);
            let serial = scan.execute(&queries, &plan, 1, &Telemetry::disabled());
            let spec = QuerySpec {
                k: params.k,
                scope: params.nprobe,
            };
            let shaped = plan_batch(&scan, &queries, &spec, &PlanOptions::default());
            let shaped = scan.execute(&queries, &shaped, 1, &Telemetry::disabled());

            for threads in THREADS {
                let ctx = format!("with telemetry: threads={threads} group={group}");
                let tel = Telemetry::enabled();
                let par = scan.execute(&queries, &plan, threads, &tel);
                assert_matches_oracle(&index, &queries, &params, &par, &ctx);
                assert_eq!(par.measured, serial.measured, "traffic diverged {ctx}");
                let (_, _, piped) = run_pipeline(
                    &scan,
                    &queries,
                    &spec,
                    &PlanOptions::default(),
                    threads,
                    &tel,
                )
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_matches_oracle(&index, &queries, &params, &piped, &ctx);
                assert_eq!(piped.measured, shaped.measured, "pipeline traffic {ctx}");
                // And the sink actually observed the run.
                let snap = tel.snapshot_json().expect("telemetry enabled");
                assert!(snap.contains("\"engine.plan\""), "{snap}");
                assert!(snap.contains("\"worker0.tiles\""), "{snap}");
            }
        },
    );
}
