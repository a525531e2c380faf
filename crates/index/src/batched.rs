//! Cluster-major batched execution — the software analogue of ANNA's
//! memory-traffic optimization (Section IV, Figure 5).
//!
//! Instead of each query streaming the codes of its `W` selected clusters
//! (loading `B·|W|` clusters for a batch of `B` queries), the batch first
//! resolves every query's cluster list, inverts it into per-cluster query
//! lists, and then walks the clusters once: each cluster's codes are read a
//! single time and scored against every visiting query (at most `|C|`
//! cluster loads per batch).
//!
//! [`BatchedScan`] runs batches only through the shared
//! [`anna_engine::SearchEngine`] pipeline (see [`crate::engines`]):
//! `plan()` builds the cost-shaped shared-IR [`anna_plan::BatchPlan`] — the
//! *same* plan type the accelerator simulators execute — and `execute()`
//! runs whatever cluster-major plan it is handed, including one a caller
//! built with [`anna_plan::plan`] for exact cross-validation against the
//! timing engines. [`IvfPqIndex::search`] is the serial oracle every batch
//! result is bit-identical to.
//!
//! The paper observes Faiss16's CPU implementation uses this schedule,
//! which is why it is the fastest CPU baseline; we use the same code for
//! our CPU measurements and reuse its bookkeeping in the accelerator model.

use crate::ivf::IvfPqIndex;
use anna_vector::VectorSet;
use serde::{Deserialize, Serialize};

/// Memory-traffic bookkeeping for one batch, in the units of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BatchStats {
    /// Clusters actually fetched (each counted once; `≤ |C|`).
    pub clusters_fetched: u64,
    /// Encoded-vector bytes read under the cluster-major schedule.
    pub code_bytes: u64,
    /// Total (query, cluster) visits — `B·|W|`; the conventional schedule
    /// would fetch this many clusters.
    pub query_cluster_visits: u64,
    /// Encoded-vector bytes the conventional (query-major) schedule would
    /// have read.
    pub conventional_code_bytes: u64,
    /// Intermediate top-k records written out when a query's scan is
    /// interrupted by a round boundary (Section IV-C).
    pub topk_spill_bytes: u64,
    /// Intermediate top-k records read back at the start of a query's
    /// later rounds.
    pub topk_fill_bytes: u64,
    /// Re-rank candidate records moved (each first-pass survivor's record
    /// spilled once and read back once). Zero for single-phase runs.
    pub rerank_candidate_bytes: u64,
    /// Re-rank vector fetches at each query's rescore precision. Zero for
    /// single-phase runs.
    pub rerank_vector_bytes: u64,
}

impl BatchStats {
    /// The traffic reduction factor of the optimization
    /// (`conventional / optimized`; the paper's example: B=1000, |C|=10000,
    /// |W|=128 gives 12.8×).
    pub fn traffic_reduction(&self) -> f64 {
        self.conventional_code_bytes as f64 / self.code_bytes.max(1) as f64
    }

    /// Adds another partial count into this one. All fields are plain
    /// sums, so accumulation is commutative and associative — per-worker
    /// partials merge to the same totals in any order.
    pub fn accumulate(&mut self, other: &BatchStats) {
        self.clusters_fetched += other.clusters_fetched;
        self.code_bytes += other.code_bytes;
        self.query_cluster_visits += other.query_cluster_visits;
        self.conventional_code_bytes += other.conventional_code_bytes;
        self.topk_spill_bytes += other.topk_spill_bytes;
        self.topk_fill_bytes += other.topk_fill_bytes;
        self.rerank_candidate_bytes += other.rerank_candidate_bytes;
        self.rerank_vector_bytes += other.rerank_vector_bytes;
    }
}

/// Cluster-major batched scanner over an [`IvfPqIndex`]: the
/// [`anna_engine::SearchEngine`] for single-phase and two-phase IVF-PQ
/// batches.
///
/// # Example
///
/// ```
/// use anna_engine::{run_pipeline, PlanOptions, QuerySpec};
/// use anna_index::{BatchedScan, IvfPqConfig, IvfPqIndex, SearchParams};
/// use anna_telemetry::Telemetry;
/// use anna_vector::{Metric, VectorSet};
///
/// let data = VectorSet::from_fn(8, 256, |r, c| ((r * 13 + c * 5) % 23) as f32);
/// let index = IvfPqIndex::build(&data, &IvfPqConfig {
///     metric: Metric::L2, num_clusters: 8, m: 4, kstar: 16,
///     ..IvfPqConfig::default()
/// });
/// let queries = data.gather(&[1, 2, 3]);
/// let spec = QuerySpec { k: 2, scope: 3 };
/// let (_, _, run) = run_pipeline(
///     &BatchedScan::new(&index), &queries, &spec, &PlanOptions::default(), 2,
///     &Telemetry::disabled(),
/// ).expect("predicted == measured");
/// let params = SearchParams { nprobe: 3, k: 2, ..Default::default() };
/// assert_eq!(run.results[0], index.search(queries.row(0), &params));
/// ```
#[derive(Debug)]
pub struct BatchedScan<'a> {
    index: &'a IvfPqIndex,
    rerank_db: Option<&'a VectorSet>,
}

impl<'a> BatchedScan<'a> {
    /// Creates a scanner over `index`.
    pub fn new(index: &'a IvfPqIndex) -> Self {
        Self {
            index,
            rerank_db: None,
        }
    }

    /// Creates a scanner that can execute two-phase plans: `db` holds the
    /// original vectors (row id == database id) the re-rank stage
    /// rescores candidates against.
    ///
    /// # Panics
    ///
    /// Panics if `db.dim() != index.dim()`.
    pub fn with_rerank_db(index: &'a IvfPqIndex, db: &'a VectorSet) -> Self {
        assert_eq!(db.dim(), index.dim(), "re-rank source dimension mismatch");
        Self {
            index,
            rerank_db: Some(db),
        }
    }

    /// The index this scanner executes over.
    pub fn index(&self) -> &IvfPqIndex {
        self.index
    }

    /// The re-rank source, when the scanner can execute two-phase plans.
    pub fn rerank_db(&self) -> Option<&VectorSet> {
        self.rerank_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_reduction_reproduces_paper_example() {
        // Section IV's example: B = 1000 queries, |C| = 10000 clusters,
        // |W| = 128 probes. The conventional schedule loads B·|W| clusters;
        // the optimized one loads each of the |C| clusters once, so with
        // uniform cluster bytes z: reduction = 1000·128·z / 10000·z = 12.8.
        let z = 64u64; // bytes per cluster (arbitrary, cancels out)
        let stats = BatchStats {
            clusters_fetched: 10_000,
            code_bytes: 10_000 * z,
            query_cluster_visits: 1000 * 128,
            conventional_code_bytes: 1000 * 128 * z,
            ..BatchStats::default()
        };
        assert!((stats.traffic_reduction() - 12.8).abs() < 1e-9);
    }

    #[test]
    fn traffic_reduction_never_divides_by_zero() {
        // An all-empty batch (or an index of empty clusters) loads zero
        // bytes; the max(1) guard must yield a finite ratio, not NaN/inf.
        let zero = BatchStats::default();
        assert_eq!(zero.traffic_reduction(), 0.0);
        let empty_clusters = BatchStats {
            clusters_fetched: 3,
            code_bytes: 0,
            query_cluster_visits: 7,
            conventional_code_bytes: 0,
            ..BatchStats::default()
        };
        let r = empty_clusters.traffic_reduction();
        assert!(r.is_finite());
        assert_eq!(r, 0.0);
    }

    #[test]
    fn stats_accumulate_is_a_field_wise_sum() {
        let mut a = BatchStats {
            clusters_fetched: 1,
            code_bytes: 10,
            query_cluster_visits: 3,
            conventional_code_bytes: 30,
            topk_spill_bytes: 5,
            topk_fill_bytes: 5,
            rerank_candidate_bytes: 2,
            rerank_vector_bytes: 100,
        };
        let b = BatchStats {
            clusters_fetched: 2,
            code_bytes: 20,
            query_cluster_visits: 4,
            conventional_code_bytes: 80,
            topk_spill_bytes: 10,
            topk_fill_bytes: 15,
            rerank_candidate_bytes: 3,
            rerank_vector_bytes: 200,
        };
        a.accumulate(&b);
        assert_eq!(
            a,
            BatchStats {
                clusters_fetched: 3,
                code_bytes: 30,
                query_cluster_visits: 7,
                conventional_code_bytes: 110,
                topk_spill_bytes: 15,
                topk_fill_bytes: 20,
                rerank_candidate_bytes: 5,
                rerank_vector_bytes: 300,
            }
        );
    }
}
