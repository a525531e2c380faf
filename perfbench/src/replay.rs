//! Serial replay of a batch's work through the public stage functions.
//!
//! `SearchEngine::execute` exposes no inner stages, so the traced run
//! re-does each sampled query's work query-major, one public call per
//! stage, under its own span: `IvfPqIndex::filter_clusters`
//! (`index.filter`), `Lut::build_l2` or `Lut::build_ip` +
//! `Lut::clone_rebias_from` (`index.lut`), `kernels::scan_with`
//! (`index.scan`) and `exact::rescore_subset_into` (`index.rerank`).
//! Tiered workloads also replay each batch's cluster visits through
//! `TieredIndex::fetch_cluster` (`tier.fetch`). The replayed answers must
//! equal the engine's, which checks that the replay did the same work.

use crate::trace::Tracer;
use anna_index::kernels::{self, KernelDispatch, ScanScratch, ScanTally};
use anna_index::{IvfPqIndex, Lut, LutPrecision, RerankPolicy, RerankPrecision, TieredIndex};
use anna_vector::exact::{self, RescoreScratch};
use anna_vector::{metric, Metric, Neighbor, TopK, VectorSet};

/// The replayed stage spans, in pipeline order.
pub const STAGES: [&str; 5] = [
    "index.filter",
    "index.lut",
    "index.scan",
    "index.rerank",
    "tier.fetch",
];

/// Work counted during the replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayTally {
    /// Queries replayed.
    pub queries: u64,
    /// Coarse centroids scored by filtering.
    pub centroids_scored: u64,
    /// Tables computed from the codebook (L2: one per visited cluster;
    /// inner product: one per query, re-biased per cluster).
    pub luts_built: u64,
    /// Table entries those builds computed.
    pub lut_entries: u64,
    /// Codes scored and pruned by the scan kernel.
    pub scan: ScanTally,
    /// Candidates rescored by the re-rank stage.
    pub rerank_candidates: u64,
    /// Cluster fetches replayed through the tier.
    pub fetches: u64,
}

/// Replays queries of one workload serially, stage by stage.
pub struct StageReplay<'a> {
    index: &'a IvfPqIndex,
    rerank: Option<(RerankPolicy, &'a VectorSet)>,
    k: usize,
    nprobe: usize,
    dispatch: KernelDispatch,
    scratch: ScanScratch,
    rescore: RescoreScratch,
    luts: Vec<Lut>,
    /// Work counted so far.
    pub tally: ReplayTally,
}

impl<'a> StageReplay<'a> {
    /// A replay of `index` at `k`/`nprobe`, two-phase when `rerank` holds
    /// a policy and the full-precision database.
    pub fn new(
        index: &'a IvfPqIndex,
        rerank: Option<(RerankPolicy, &'a VectorSet)>,
        k: usize,
        nprobe: usize,
    ) -> Self {
        Self {
            index,
            rerank,
            k,
            nprobe,
            dispatch: KernelDispatch::current(),
            scratch: ScanScratch::new(),
            rescore: RescoreScratch::new(),
            luts: Vec::new(),
            tally: ReplayTally::default(),
        }
    }

    /// Replays one query and returns its answer (best first).
    pub fn query(&mut self, q: &[f32], tracer: &Tracer) -> Vec<Neighbor> {
        let index = self.index;
        let book = index.codebook();
        let visits = tracer.span("index.filter", || index.filter_clusters(q, self.nprobe));
        self.tally.queries += 1;
        self.tally.centroids_scored += index.num_clusters() as u64;
        let visits: Vec<usize> = visits
            .into_iter()
            .filter(|&c| !index.cluster(c).is_empty())
            .collect();

        let entries = (book.m() * book.kstar()) as u64;
        let luts = &mut self.luts;
        luts.resize_with(visits.len(), Lut::placeholder);
        let built = tracer.span("index.lut", || match index.metric() {
            Metric::L2 => {
                for (lut, &c) in luts.iter_mut().zip(&visits) {
                    *lut = Lut::build_l2(q, index.centroids().row(c), book, LutPrecision::F32);
                }
                visits.len() as u64
            }
            Metric::InnerProduct => {
                let base = Lut::build_ip(q, book, LutPrecision::F32);
                for (lut, &c) in luts.iter_mut().zip(&visits) {
                    lut.clone_rebias_from(&base, metric::dot(q, index.centroids().row(c)));
                }
                1
            }
        });
        self.tally.luts_built += built;
        self.tally.lut_entries += built * entries;

        let k_first = self.rerank.map_or(self.k, |(p, _)| p.k_first(self.k));
        let mut top = TopK::new(k_first);
        let (dispatch, scratch) = (self.dispatch, &mut self.scratch);
        let tally = tracer.span("index.scan", || {
            let mut tally = ScanTally::default();
            for (lut, &c) in luts.iter().zip(&visits) {
                let cl = index.cluster(c);
                tally.accumulate(&kernels::scan_with(
                    &cl.codes, &cl.ids, lut, &mut top, dispatch, scratch,
                ));
            }
            tally
        });
        self.tally.scan.accumulate(&tally);
        let survivors = top.into_sorted_vec();

        let Some((policy, db)) = self.rerank else {
            return survivors;
        };
        let pool: usize = visits.iter().map(|&c| index.cluster(c).len()).sum();
        let decision = policy.query_decision(k_first, pool);
        let ids: Vec<u64> = survivors.iter().map(|n| n.id).collect();
        self.tally.rerank_candidates += ids.len() as u64;
        let mut out = Vec::new();
        if ids.is_empty() {
            return out;
        }
        let rescore = &mut self.rescore;
        tracer.span("index.rerank", || {
            exact::rescore_subset_into(
                q,
                &ids,
                db,
                index.metric(),
                self.k,
                decision.precision == RerankPrecision::F16,
                rescore,
                &mut out,
            )
        });
        out
    }
}

/// Replays one batch's cluster fetches through tiered shard replicas:
/// for every shard, each visited local cluster in ascending order,
/// credited with its visitor count (the order and admission signal the
/// sharded engine uses). `scopes` are the batch's global cluster lists.
///
/// # Errors
///
/// Returns the storage error of a failed fetch.
pub fn replay_fetches(
    shards: &[TieredIndex],
    scopes: &[Vec<usize>],
    tracer: &Tracer,
    tally: &mut ReplayTally,
) -> std::io::Result<()> {
    let n = shards.len();
    let mut visitors: Vec<Vec<u64>> = shards.iter().map(|s| vec![0; s.num_clusters()]).collect();
    for scope in scopes {
        for &g in scope {
            visitors[g % n][g / n] += 1;
        }
    }
    tracer.span("tier.fetch", || {
        for (shard, counts) in shards.iter().zip(&visitors) {
            for (lc, &v) in counts.iter().enumerate() {
                if v > 0 {
                    shard.fetch_cluster(lc, v)?;
                    tally.fetches += 1;
                }
            }
        }
        Ok(())
    })
}
