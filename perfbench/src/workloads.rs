//! The three workloads: fixed shapes, fixed serving constants, dataset
//! generation and the timed program set-up.
//!
//! Every constant here is fixed, not calibrated per run, so the same seed
//! gives the same inputs, the same index and the same composed batches on
//! every commit; only measured times differ. `perfbench/WORKLOADS.md`
//! records why each workload was chosen and which end-to-end metric each
//! layer metric should move.

use crate::trace::Tracer;
use anna_data::recall::{self, GroundTruth};
use anna_data::synth::{self, Character, Dataset, DatasetSpec};
use anna_index::{IvfPqConfig, IvfPqIndex, RerankMode, RerankPolicy, ShardedIndex};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Benchmark workload names, as passed to `--workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, SIFT-like L2 at k*=256: LUT-build bound.
    SiftL2K256,
    /// Closed loop, GloVe-like inner product at k*=16 with re-rank:
    /// scan bound.
    GloveIpK16Rerank,
    /// Open loop over a sharded, tiered index: small arrival-driven
    /// batches, storage fetch and the cluster cache.
    ServeTiered,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SiftL2K256,
        Workload::GloveIpK16Rerank,
        Workload::ServeTiered,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SiftL2K256 => "sift_l2_k256",
            Workload::GloveIpK16Rerank => "glove_ip_k16_rerank",
            Workload::ServeTiered => "serve_tiered",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The data and index shape at full or smoke scale.
    pub fn shape(self, smoke: bool) -> Shape {
        let full = match self {
            Workload::SiftL2K256 => Shape {
                character: Character::SiftLike,
                dim: 128,
                n: 20_000,
                train: 5_000,
                queries: 1_024,
                num_clusters: 64,
                m: 32,
                kstar: 256,
                k: 10,
                nprobe: 8,
            },
            Workload::GloveIpK16Rerank => Shape {
                character: Character::GloveLike,
                dim: 100,
                n: 50_000,
                train: 10_000,
                queries: 1_024,
                num_clusters: 128,
                m: 50,
                kstar: 16,
                k: 10,
                nprobe: 16,
            },
            Workload::ServeTiered => Shape {
                character: Character::DeepLike,
                dim: 96,
                n: 50_000,
                train: 10_000,
                queries: 1_024,
                num_clusters: 128,
                m: 48,
                kstar: 16,
                k: 10,
                nprobe: 8,
            },
        };
        if smoke {
            Shape {
                n: 3_000,
                train: 1_500,
                queries: 64,
                num_clusters: 16,
                nprobe: 4,
                ..full
            }
        } else {
            full
        }
    }

    /// Closed-loop batch size (queries per `run_pipeline` call).
    pub fn batch(self, smoke: bool) -> usize {
        match (self, smoke) {
            (_, true) => 16,
            (Workload::SiftL2K256, false) => 16,
            _ => 64,
        }
    }

    /// The two-phase policy, on the re-rank workload only.
    pub fn rerank(self) -> Option<RerankPolicy> {
        match self {
            Workload::GloveIpK16Rerank => Some(RerankPolicy {
                mode: RerankMode::Adaptive,
                alpha: 4,
            }),
            _ => None,
        }
    }
}

/// Data and index shape of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Synthetic dataset family.
    pub character: Character,
    /// Dimension `D`.
    pub dim: usize,
    /// Database size `N`.
    pub n: usize,
    /// Rows `IvfPqIndex::build` trains on; the rest go through `add`.
    pub train: usize,
    /// Held-out queries (the closed loops cycle through them).
    pub queries: usize,
    /// Coarse clusters `|C|`.
    pub num_clusters: usize,
    /// PQ sub-vectors `M`.
    pub m: usize,
    /// Codewords per codebook `k*`.
    pub kstar: usize,
    /// Results per query.
    pub k: usize,
    /// Clusters probed per query.
    pub nprobe: usize,
}

/// Fixed constants of `serve_tiered`. None is calibrated per run: a
/// calibrated service rate or offered load would move with the engine's
/// speed, so a faster engine would be offered more load and compose other
/// batches, and no two commits would be measured on the same schedule.
pub mod serve {
    /// Shard segments the index is written as.
    pub const SHARDS: usize = 4;
    /// Cluster-cache capacity as a fraction (numerator / denominator) of
    /// all encoded code bytes, split evenly across the shards.
    pub const CACHE_FRACTION: (u64, u64) = (1, 4);
    /// Nominal arrival rate for `p50_ms` / `p99_ms` (requests/s). At
    /// this rate a window of [`WINDOW_REQUESTS`] lasts a quarter of a
    /// second. The host stalls a virtual CPU for a millisecond or more
    /// several times a second, so the shorter a window lasts, the more
    /// windows no stall lands in. The rate is about a third of `slo_qps`
    /// on a 2-CPU host, so no backlog builds.
    pub const NOMINAL_QPS: f64 = 4_000.0;
    /// Requests per window of the nominal run (the fewest that leave ten
    /// samples above a p99). `p50_ms` and `p99_ms` are the best (lowest)
    /// window's figures: on a shared virtual machine the host steals CPU
    /// time in bursts, and a stall of a few milliseconds sets the p99 of
    /// the window it lands in, so the window the host disturbed least
    /// shows the program's own tail. A slower program moves every window.
    pub const WINDOW_REQUESTS: usize = 1_000;
    /// Fixed absolute rates for `slo_qps` (requests/s): a geometric
    /// ladder, 15% apart, bracketing the knee on a 2-CPU host.
    pub const LADDER_QPS: [f64; 9] = [
        6_080.0, 7_000.0, 8_050.0, 9_250.0, 10_640.0, 12_240.0, 14_080.0, 16_190.0, 18_620.0,
    ];
    /// The p99 latency limit, also every request's deadline (ns).
    pub const LATENCY_LIMIT_NS: u64 = 50_000_000;
    /// Predicted service rate for bytes served from RAM/cache (B/s).
    pub const SERVICE_BYTES_PER_SEC: u64 = 1_000_000_000;
    /// Predicted service rate for bytes read from storage (B/s).
    pub const DISK_BYTES_PER_SEC: u64 = 500_000_000;
    /// Batcher size threshold.
    pub const MAX_BATCH: usize = 32;
    /// Batcher max-wait deadline (ns).
    pub const MAX_WAIT_NS: u64 = 1_000_000;
    /// Admission bound on queued requests.
    pub const QUEUE_CAPACITY: usize = 1_024;
    /// Candidate shapes priced per window close.
    pub const SHAPE_CANDIDATES: usize = 3;
    /// Passes over the ladder, spread over the run. Each rate's p99 is the
    /// best (lowest) of its passes: a host stall only ever adds latency,
    /// so the best pass is the one the host disturbed least.
    pub const LADDER_PASSES: usize = 5;
    /// Share of `--seconds` spent at the nominal rate; the rest is split
    /// evenly across the ladder's rates and passes.
    pub const NOMINAL_SHARE: f64 = 0.35;
}

/// Set-up repetitions per run; `setup_s` is their median. The first runs
/// before the workload, the others between its segments (closed loops)
/// or ladder passes (`serve_tiered`), so the repetitions sample the host
/// at different times: on a shared virtual machine its speed drifts over
/// tens of seconds. At most `serve::LADDER_PASSES` repetitions.
pub const SETUP_REPS: usize = 3;

/// SplitMix64 step: derives independent seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates over [`mix`]).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// The workload's dataset (database plus held-out queries) for `seed`.
pub fn dataset(w: Workload, shape: &Shape, seed: u64) -> Dataset {
    synth::generate(&DatasetSpec {
        name: w.name().to_string(),
        dim: shape.dim,
        n: shape.n,
        num_queries: shape.queries,
        character: shape.character,
        num_blobs: (shape.n / 500).clamp(8, 256),
        seed: mix(seed, w as u64 + 1),
    })
}

/// Exact top-`k` ground truth of the held-out queries.
pub fn ground_truth(ds: &Dataset, k: usize) -> GroundTruth {
    recall::ground_truth(&ds.queries, &ds.db, ds.metric, k)
}

/// Times of one set-up repetition, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// `IvfPqIndex::build` on the training rows.
    pub train_s: f64,
    /// `IvfPqIndex::add` of the remaining rows.
    pub add_s: f64,
    /// `write_shard_segments` + `open_tiered` (tiered workload only).
    pub segment_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.train_s + self.add_s + self.segment_s
    }
}

/// Builds the index: `build` on the first `shape.train` rows (the rows
/// are i.i.d. draws, so a prefix is a random sample), then `add` for the
/// rest, so index ids equal database row numbers.
pub fn build_index(
    ds: &Dataset,
    shape: &Shape,
    seed: u64,
    tracer: &Tracer,
    times: &mut SetupTimes,
) -> IvfPqIndex {
    let config = IvfPqConfig {
        metric: ds.metric,
        num_clusters: shape.num_clusters,
        m: shape.m,
        kstar: shape.kstar,
        seed,
        ..IvfPqConfig::default()
    };
    let train_rows: Vec<usize> = (0..shape.train).collect();
    let rest_rows: Vec<usize> = (shape.train..shape.n).collect();
    let (train, rest) = (ds.db.gather(&train_rows), ds.db.gather(&rest_rows));
    let t = Instant::now();
    let mut index = tracer.span("index.build", || IvfPqIndex::build(&train, &config));
    times.train_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    tracer.span("index.add", || index.add(&rest));
    times.add_s = t.elapsed().as_secs_f64();
    index
}

/// Per-shard cache capacity: [`serve::CACHE_FRACTION`] of the index's
/// encoded code bytes, split across [`serve::SHARDS`].
pub fn cache_bytes_per_shard(index: &IvfPqIndex) -> u64 {
    let total: u64 = (0..index.num_clusters())
        .map(|c| index.cluster(c).encoded_bytes())
        .sum();
    let (num, den) = serve::CACHE_FRACTION;
    total * num / den / serve::SHARDS as u64
}

/// Writes the index as shard segments under `dir` and opens them tiered.
///
/// # Errors
///
/// Returns any I/O error from writing or opening the segments.
pub fn write_and_open(
    index: &IvfPqIndex,
    dir: &Path,
    tracer: &Tracer,
    times: &mut SetupTimes,
) -> std::io::Result<(Vec<PathBuf>, ShardedIndex)> {
    let t = Instant::now();
    let paths = tracer.span("tier.write_segments", || {
        ShardedIndex::write_shard_segments(index, serve::SHARDS, dir)
    })?;
    let sharded = tracer.span("tier.open", || {
        ShardedIndex::open_tiered(&paths, cache_bytes_per_shard(index))
    })?;
    times.segment_s = t.elapsed().as_secs_f64();
    Ok((paths, sharded))
}
