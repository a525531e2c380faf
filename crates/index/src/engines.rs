//! [`SearchEngine`] implementations for the IVF-PQ engines: the
//! cluster-major [`BatchedScan`] (single-phase and two-phase re-rank) and
//! the shard-parallel [`ShardedIndex`] (RAM or tiered shards).
//!
//! These impls are the only batch path of both engines: `plan()` builds
//! the schedule, `execute()` runs exactly the plan it is handed, and
//! [`crate::IvfPqIndex::search`] (with
//! [`crate::IvfPqIndex::search_two_phase`] for re-rank plans) is the
//! serial oracle their results are bit-identical to. Callers that bring
//! their own schedule — an accelerator plan from [`anna_plan::plan`], or
//! a fixed query-group tiling from [`BatchPlan::from_visitors`] — wrap it
//! in [`EnginePlan::ClusterMajor`] with the workload from `plan()` and
//! call `execute()` directly.

use crate::batched::{BatchStats, BatchedScan};
use crate::lut::Lut;
use crate::parallel;
use crate::shard::{ShardedIndex, ShardedStats};
use crate::{LutPrecision, SearchParams};
use anna_engine::{EngineRun, MeasuredTraffic, PlanOptions, QuerySpec, SearchEngine};
use anna_plan::{
    BatchPlan, BatchWorkload, EnginePlan, PlanParams, SearchShape, TileShaper, CLUSTER_META_BYTES,
};
use anna_telemetry::Telemetry;
use anna_vector::{Metric, TopK, VectorSet};

impl BatchStats {
    /// The engine layer's view of these counters: the six compared byte
    /// components, with cluster descriptors priced at
    /// [`CLUSTER_META_BYTES`] per fetch (no storage tier — the plain
    /// batch engine is all-RAM).
    pub fn to_measured(&self) -> MeasuredTraffic {
        MeasuredTraffic {
            code_bytes: self.code_bytes,
            cluster_meta_bytes: self.clusters_fetched * CLUSTER_META_BYTES,
            topk_spill_bytes: self.topk_spill_bytes,
            topk_fill_bytes: self.topk_fill_bytes,
            rerank_candidate_bytes: self.rerank_candidate_bytes,
            rerank_vector_bytes: self.rerank_vector_bytes,
            tier: None,
        }
    }
}

impl ShardedStats {
    /// The engine layer's view of a sharded batch: the cluster-major
    /// counters plus the measured storage-tier split.
    pub fn to_measured(&self) -> MeasuredTraffic {
        MeasuredTraffic {
            tier: Some(self.tier),
            ..self.batch.to_measured()
        }
    }
}

/// The cluster-major IVF-PQ batch engine behind the shared trait.
///
/// `plan()` builds the serving batcher's schedule: the batch-wide result
/// count is the largest requested `k` (every query runs at it and
/// per-request truncation is the caller's concern), the first-pass heap
/// runs at `policy.k_first(k_exec)` under a re-rank policy, and the round
/// schedule is the cost-shaped [`BatchPlan::shaped_from_visitors`] tiling.
/// The shaping is a pure function of the workload (never of the runtime
/// thread count), so the plan — and therefore the measured traffic — is
/// identical however many workers execute it.
///
/// `execute()` runs any cluster-major plan built for this index and
/// batch (round cluster ids index this index's clusters, round query ids
/// index `queries`) on the deterministic worker pool of
/// [`crate::parallel`], with [`LutPrecision::F32`] lookup tables (the CPU
/// reference precision). When `tel` is enabled it times
/// `batch.lut_build`, per-round `batch.tile_scan` windows, `batch.merge`
/// and `batch.rerank`, and bridges the measured [`BatchStats`] into
/// `plan.*` counters; telemetry only reads clocks, so results are
/// bit-identical with it on or off.
///
/// # Panics
///
/// `execute()` panics on a non-cluster-major plan, on a query dimension
/// mismatch, on a plan that references an out-of-range cluster or query,
/// or on a re-rank plan when the scanner has no re-rank source.
impl SearchEngine for BatchedScan<'_> {
    fn name(&self) -> &'static str {
        "ivf_pq"
    }

    fn dim(&self) -> usize {
        self.index().dim()
    }

    fn metric(&self) -> Metric {
        self.index().metric()
    }

    fn query_scope(&self, q: &[f32], spec: &QuerySpec) -> Vec<usize> {
        self.index().filter_clusters(q, spec.scope)
    }

    fn plan(
        &self,
        queries: &VectorSet,
        specs: &[QuerySpec],
        scopes: &[Vec<usize>],
        options: &PlanOptions,
    ) -> EnginePlan {
        assert_eq!(specs.len(), queries.len(), "one spec per query");
        assert_eq!(scopes.len(), queries.len(), "one scope per query");
        let k_exec = specs.iter().map(|s| s.k).max().unwrap_or(1).max(1);
        // Two-phase plans over-fetch: the engine's heaps (and therefore
        // the workload shape and the spill unit) run at the first-pass k.
        let k_scan = options
            .rerank
            .map_or(k_exec, |policy| policy.k_first(k_exec));
        let book = self.index().codebook();
        let workload = BatchWorkload {
            shape: SearchShape {
                d: self.index().dim(),
                m: book.m(),
                kstar: book.kstar(),
                metric: self.index().metric(),
                num_clusters: self.index().num_clusters(),
                k: k_scan,
            },
            cluster_sizes: self.index().cluster_sizes(),
            visits: scopes.to_vec(),
        };
        let params = PlanParams::default();
        let spill_unit = k_scan as u64 * params.topk_record_bytes as u64;
        let mut plan = BatchPlan::shaped_from_visitors(
            &workload.visitors_per_cluster(),
            &workload.cluster_sizes,
            workload.shape.encoded_bytes_per_vector(),
            &TileShaper::default(),
            spill_unit,
        );
        if let Some(policy) = options.rerank {
            plan =
                plan.with_rerank(policy.stage(&workload, k_exec, params.topk_record_bytes as u64));
        }
        EnginePlan::ClusterMajor { workload, plan }
    }

    fn execute(
        &self,
        queries: &VectorSet,
        plan: &EnginePlan,
        threads: usize,
        tel: &Telemetry,
    ) -> EngineRun {
        let EnginePlan::ClusterMajor { workload, plan } = plan else {
            panic!("ivf_pq engine received a {} plan", plan.engine());
        };
        let index = self.index();
        assert_eq!(queries.dim(), index.dim(), "query dimension mismatch");
        let threads = threads.max(1);
        let params = SearchParams {
            // The plan already fixes the rounds; nprobe is inert here.
            nprobe: 0,
            k: workload.shape.k,
            lut_precision: LutPrecision::F32,
        };
        // Shared inner-product base tables (cluster-invariant) per query,
        // built across the worker pool (each query's table is independent,
        // so the fan-out is trivially deterministic); L2 tables are
        // cluster-specific and built inside the round pipeline.
        let ip_base: Option<Vec<Lut>> = {
            let _span = tel.span("batch.lut_build");
            match index.metric() {
                Metric::InnerProduct => Some(parallel::build_ip_base(
                    index,
                    queries,
                    params.lut_precision,
                    threads,
                )),
                Metric::L2 => None,
            }
        };

        let (merged, mut stats) = parallel::execute_rounds(
            index,
            queries,
            &params,
            ip_base.as_deref(),
            plan,
            threads,
            tel,
        );

        // Second phase: rescore each query's first-pass survivors at the
        // stage's precision and keep the final k. The work items join the
        // same self-scheduling queue discipline as the scan rounds, so
        // serial == parallel stays bit-identical.
        let results = match &plan.rerank {
            Some(stage) => {
                let db = self.rerank_db().expect(
                    "plan carries a re-rank stage but the scanner has no re-rank source; \
                     build it with BatchedScan::with_rerank_db",
                );
                let _span = tel.span("batch.rerank");
                let (results, candidate_bytes, vector_bytes) =
                    parallel::execute_rerank(db, queries, index.metric(), stage, merged, threads);
                stats.rerank_candidate_bytes = candidate_bytes;
                stats.rerank_vector_bytes = vector_bytes;
                results
            }
            None => merged.into_iter().map(TopK::into_sorted_vec).collect(),
        };

        tel.counter_add("plan.queries", queries.len() as u64);
        tel.counter_add("plan.clusters_fetched", stats.clusters_fetched);
        tel.counter_add("plan.code_bytes", stats.code_bytes);
        tel.counter_add("plan.query_cluster_visits", stats.query_cluster_visits);
        tel.counter_add(
            "plan.conventional_code_bytes",
            stats.conventional_code_bytes,
        );
        tel.counter_add("plan.topk_spill_bytes", stats.topk_spill_bytes);
        tel.counter_add("plan.topk_fill_bytes", stats.topk_fill_bytes);
        tel.counter_add("plan.rerank_candidate_bytes", stats.rerank_candidate_bytes);
        tel.counter_add("plan.rerank_vector_bytes", stats.rerank_vector_bytes);
        EngineRun {
            results,
            measured: stats.to_measured(),
        }
    }
}

/// The shard-parallel IVF-PQ engine behind the shared trait.
///
/// Requires a *uniform* batch (every spec the same `k` and scope) and no
/// re-rank policy. `plan()` assembles the [`anna_plan::ShardedBatchPlan`]
/// — per-shard unbounded cluster-major plans, the cross-shard merge
/// units, and the tier split replayed against clones of the live cache
/// states — so pricing the plan never advances the tiered shards.
/// `execute()` runs that plan's per-shard visitor lists through
/// [`ShardedIndex::try_execute`].
///
/// # Panics
///
/// `plan()` panics on non-uniform specs or a re-rank policy; `execute()`
/// panics if a tiered shard's storage read fails (the trait path has no
/// error channel — call [`ShardedIndex::try_execute`] to handle storage
/// errors).
impl SearchEngine for ShardedIndex {
    fn name(&self) -> &'static str {
        "ivf_pq_sharded"
    }

    fn dim(&self) -> usize {
        ShardedIndex::dim(self)
    }

    fn metric(&self) -> Metric {
        ShardedIndex::metric(self)
    }

    fn query_scope(&self, q: &[f32], spec: &QuerySpec) -> Vec<usize> {
        self.filter_clusters(q, spec.scope)
    }

    fn plan(
        &self,
        queries: &VectorSet,
        specs: &[QuerySpec],
        scopes: &[Vec<usize>],
        options: &PlanOptions,
    ) -> EnginePlan {
        assert_eq!(specs.len(), queries.len(), "one spec per query");
        assert_eq!(scopes.len(), queries.len(), "one scope per query");
        assert!(
            options.rerank.is_none(),
            "the sharded engine has no re-rank phase"
        );
        let first = specs
            .first()
            .copied()
            .unwrap_or(QuerySpec { k: 1, scope: 1 });
        assert!(
            specs.iter().all(|s| *s == first),
            "the sharded engine requires a uniform batch (one k and scope)"
        );
        EnginePlan::Sharded(self.engine_batch_plan(scopes, first.k))
    }

    fn execute(
        &self,
        queries: &VectorSet,
        plan: &EnginePlan,
        threads: usize,
        _tel: &Telemetry,
    ) -> EngineRun {
        let EnginePlan::Sharded(p) = plan else {
            panic!("ivf_pq_sharded engine received a {} plan", plan.engine());
        };
        let (results, stats) = self
            .try_execute(queries, p, threads.max(1))
            .expect("tiered shard storage read failed");
        EngineRun {
            results,
            measured: stats.to_measured(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::{IvfPqConfig, IvfPqIndex};
    use anna_engine::{plan_batch, run_pipeline};
    use anna_plan::{RerankMode, RerankPolicy, RerankPrecision, ScmAllocation, TrafficModel};

    fn clustered(dim: usize, n: usize) -> VectorSet {
        VectorSet::from_fn(dim, n, |r, c| {
            (r % 9) as f32 * 16.0 + ((r * 31 + c * 7) % 11) as f32 * 0.3
        })
    }

    fn build(metric: Metric) -> (VectorSet, IvfPqIndex) {
        let data = clustered(8, 540);
        let index = IvfPqIndex::build(
            &data,
            &IvfPqConfig {
                metric,
                num_clusters: 12,
                m: 4,
                kstar: 16,
                ..IvfPqConfig::default()
            },
        );
        (data, index)
    }

    fn params(nprobe: usize, k: usize) -> SearchParams {
        SearchParams {
            nprobe,
            k,
            lut_precision: LutPrecision::F32,
        }
    }

    fn cluster_major(plan: &EnginePlan) -> (&BatchWorkload, &BatchPlan) {
        match plan {
            EnginePlan::ClusterMajor { workload, plan } => (workload, plan),
            other => panic!("expected a cluster-major plan, got {}", other.engine()),
        }
    }

    #[test]
    fn batch_path_matches_the_query_major_oracle_and_verifies() {
        for metric in [Metric::L2, Metric::InnerProduct] {
            let (data, index) = build(metric);
            let queries = data.gather(&(0..24).map(|i| i * 17 % 540).collect::<Vec<_>>());
            let scan = BatchedScan::new(&index);
            let spec = QuerySpec { k: 5, scope: 4 };
            let mut serial = None;
            for threads in [1usize, 2, 4] {
                let (plan, predicted, run) = run_pipeline(
                    &scan,
                    &queries,
                    &spec,
                    &PlanOptions::default(),
                    threads,
                    &Telemetry::disabled(),
                )
                .expect("predicted must equal measured");
                assert_eq!(plan.engine(), "ivf_pq");
                for (qi, q) in queries.iter().enumerate() {
                    assert_eq!(
                        run.results[qi],
                        index.search(q, &params(4, 5)),
                        "{metric:?}"
                    );
                }
                let (workload, _) = cluster_major(&plan);
                assert!(run.measured.code_bytes <= workload.query_major_code_bytes());
                assert!(
                    run.measured.cluster_meta_bytes
                        <= index.num_clusters() as u64 * CLUSTER_META_BYTES
                );
                assert_eq!(predicted.code_bytes, run.measured.code_bytes);
                let serial = serial.get_or_insert(run.measured);
                assert_eq!(*serial, run.measured, "{threads} threads traffic diverged");
            }
        }
    }

    #[test]
    fn traffic_reduction_grows_with_batch_size() {
        let (data, index) = build(Metric::L2);
        let scan = BatchedScan::new(&index);
        let spec = QuerySpec { k: 3, scope: 6 };
        let reduction = |n: usize| {
            let queries = data.gather(&(0..n).collect::<Vec<_>>());
            let (plan, _, run) = run_pipeline(
                &scan,
                &queries,
                &spec,
                &PlanOptions::default(),
                2,
                &Telemetry::disabled(),
            )
            .expect("predicted must equal measured");
            let (workload, _) = cluster_major(&plan);
            assert_eq!(workload.total_visits(), n as u64 * 6);
            workload.query_major_code_bytes() as f64 / run.measured.code_bytes.max(1) as f64
        };
        let (small, large) = (reduction(4), reduction(128));
        assert!(small >= 1.0);
        assert!(large >= small, "{large} vs {small}");
    }

    #[test]
    fn topk_spill_accounting_prices_round_crossings() {
        // Without hot-cluster splits every visited cluster is one round, so
        // a query probing W clusters crosses W-1 round boundaries, each
        // worth a k-record spill and fill at 5 B per record.
        let (data, index) = build(Metric::L2);
        let queries = data.gather(&(0..16).collect::<Vec<_>>());
        let spec = QuerySpec { k: 3, scope: 4 };
        let (_, _, run) = run_pipeline(
            &BatchedScan::new(&index),
            &queries,
            &spec,
            &PlanOptions::default(),
            1,
            &Telemetry::disabled(),
        )
        .expect("predicted must equal measured");
        let expected = 16 * (4 - 1) * (3 * 5) as u64;
        assert_eq!(run.measured.topk_spill_bytes, expected);
        assert_eq!(run.measured.topk_fill_bytes, expected);
    }

    #[test]
    fn two_phase_batch_matches_the_two_phase_oracle() {
        let (data, index) = build(Metric::L2);
        let queries = data.gather(&(0..16).collect::<Vec<_>>());
        let scan = BatchedScan::with_rerank_db(&index, &data);
        let policy = RerankPolicy {
            mode: RerankMode::Fixed(RerankPrecision::F32),
            alpha: 4,
        };
        let spec = QuerySpec { k: 3, scope: 4 };
        let options = PlanOptions {
            rerank: Some(policy),
        };
        let (plan, _, run) =
            run_pipeline(&scan, &queries, &spec, &options, 2, &Telemetry::disabled())
                .expect("two-phase predicted must equal measured");
        assert_eq!(plan.k_exec(), 3);
        assert_eq!(plan.k_scan(), policy.k_first(3));
        for (qi, q) in queries.iter().enumerate() {
            let want = index.search_two_phase(q, &params(4, 3), &policy, &data);
            assert_eq!(run.results[qi], want, "query {qi}");
        }
        assert!(run.measured.rerank_vector_bytes > 0);
    }

    #[test]
    fn caller_supplied_plans_execute_unchanged() {
        // An accelerator plan and fixed query-group tilings run through
        // `execute` on the trait plan's own workload: results stay the
        // oracle's and measured bytes equal the plan's price.
        let (data, index) = build(Metric::InnerProduct);
        let queries = data.gather(&(0..24).collect::<Vec<_>>());
        let scan = BatchedScan::new(&index);
        let spec = QuerySpec { k: 3, scope: 4 };
        let traced = plan_batch(&scan, &queries, &spec, &PlanOptions::default());
        let (workload, _) = cluster_major(&traced);
        let spill_unit = 3 * PlanParams::default().topk_record_bytes as u64;
        let mut plans = vec![anna_plan::plan(
            &PlanParams::default(),
            workload,
            ScmAllocation::InterQuery,
        )];
        for group in [1usize, 2, 5] {
            plans.push(BatchPlan::from_visitors(
                &workload.visitors_per_cluster(),
                &workload.cluster_sizes,
                group,
                spill_unit,
            ));
        }
        let model = TrafficModel::new(PlanParams::default());
        for plan in plans {
            let predicted = model.price(workload, &plan);
            let plan = EnginePlan::ClusterMajor {
                workload: workload.clone(),
                plan,
            };
            for threads in [1usize, 4] {
                let run = scan.execute(&queries, &plan, threads, &Telemetry::disabled());
                for (qi, q) in queries.iter().enumerate() {
                    assert_eq!(run.results[qi], index.search(q, &params(4, 3)));
                }
                scan.verify(&predicted, None, &run.measured)
                    .expect("caller plan: predicted must equal measured");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let (_, index) = build(Metric::L2);
        let (_, _, run) = run_pipeline(
            &BatchedScan::new(&index),
            &VectorSet::zeros(8, 0),
            &QuerySpec { k: 10, scope: 8 },
            &PlanOptions::default(),
            2,
            &Telemetry::disabled(),
        )
        .expect("an empty batch moves nothing");
        assert!(run.results.is_empty());
        assert_eq!(run.measured, MeasuredTraffic::default());
    }

    #[test]
    fn sharded_path_matches_the_oracle_and_verifies() {
        let (data, index) = build(Metric::L2);
        let queries = data.gather(&(0..20).collect::<Vec<_>>());
        let sharded = ShardedIndex::from_index(&index, 3);
        let spec = QuerySpec { k: 4, scope: 5 };
        let (plan, predicted, run) = run_pipeline(
            &sharded,
            &queries,
            &spec,
            &PlanOptions::default(),
            4,
            &Telemetry::disabled(),
        )
        .expect("sharded predicted must equal measured");
        assert_eq!(plan.engine(), "ivf_pq_sharded");
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(run.results[qi], index.search(q, &params(5, 4)));
        }
        // The tier split rides the plan; verify it against the measurement.
        let EnginePlan::Sharded(ref sp) = plan else {
            unreachable!()
        };
        sharded
            .verify(&predicted, Some(&sp.predicted_tier), &run.measured)
            .expect("tier components must match");
    }

    #[test]
    fn sharded_execute_runs_the_plan_it_is_given() {
        // Hand-chosen scopes — each query's *worst* two clusters, never
        // what `filter_clusters` would pick — must be executed as given:
        // the measurement verifies against the plan's price, and results
        // equal a single-shard run of the same scopes.
        let (data, index) = build(Metric::L2);
        let queries = data.gather(&(0..12).map(|i| i * 41 % 540).collect::<Vec<_>>());
        let c = index.num_clusters();
        let scopes: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| index.filter_clusters(q, c)[c - 2..].to_vec())
            .collect();
        for (q, scope) in queries.iter().zip(&scopes) {
            assert_ne!(*scope, index.filter_clusters(q, 2), "scope must differ");
        }
        let specs = vec![QuerySpec { k: 4, scope: 2 }; queries.len()];
        let options = PlanOptions::default();
        let oracle = ShardedIndex::from_index(&index, 1);
        let want = SearchEngine::plan(&oracle, &queries, &specs, &scopes, &options);
        let want = oracle.execute(&queries, &want, 1, &Telemetry::disabled());
        for shards in [1usize, 3, 4] {
            let sharded = ShardedIndex::from_index(&index, shards);
            let plan = SearchEngine::plan(&sharded, &queries, &specs, &scopes, &options);
            let predicted = sharded.price(&plan);
            for threads in [1usize, 3] {
                let run = sharded.execute(&queries, &plan, threads, &Telemetry::disabled());
                sharded
                    .verify(&predicted, None, &run.measured)
                    .unwrap_or_else(|e| panic!("shards={shards}: {e}"));
                assert_eq!(run.results, want.results, "shards={shards}");
                assert_eq!(run.measured, want.measured, "shards={shards}");
            }
        }
        for (res, scope) in want.results.iter().zip(&scopes) {
            for hit in res {
                assert!(
                    scope
                        .iter()
                        .any(|&g| index.cluster(g).ids.contains(&hit.id)),
                    "hit {} outside the planned scope",
                    hit.id
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "uniform batch")]
    fn sharded_engine_rejects_mixed_specs() {
        let (data, index) = build(Metric::L2);
        let queries = data.gather(&[0, 1]);
        let sharded = ShardedIndex::from_index(&index, 2);
        let specs = [QuerySpec { k: 2, scope: 3 }, QuerySpec { k: 4, scope: 3 }];
        let scopes: Vec<Vec<usize>> = queries
            .iter()
            .zip(&specs)
            .map(|(q, s)| SearchEngine::query_scope(&sharded, q, s))
            .collect();
        SearchEngine::plan(&sharded, &queries, &specs, &scopes, &PlanOptions::default());
    }
}
