//! Measures the host's real kernel rates and exhaustive-search throughput,
//! printing the values to plug into `CpuModel` / `ExhaustiveModel` so the
//! analytic baselines reflect *this* machine instead of the paper's
//! Skylake-X.

use anna_baseline::{cpu, exhaustive};
use anna_data::{synth, Character, DatasetSpec};
use anna_index::{IvfPqConfig, IvfPqIndex, SearchParams};
use anna_telemetry::Telemetry;

fn main() {
    println!("calibrating on this host (release build required for meaningful numbers)\n");

    let rates = cpu::calibrate(16_384, 16);
    println!("scan kernel rates (lookups/second/core equivalent):");
    println!("  k*=16 (u4): {:.2e}", rates.u4_lookups_per_sec);
    println!("  k*=256 (u8): {:.2e}", rates.u8_lookups_per_sec);

    // A small measured IVF-PQ search, both schedules.
    let ds = synth::generate(&DatasetSpec {
        name: "calibrate".into(),
        dim: 32,
        n: 50_000,
        num_queries: 64,
        character: Character::SiftLike,
        num_blobs: 64,
        seed: 12,
    });
    let index = IvfPqIndex::build(
        &ds.db,
        &IvfPqConfig {
            metric: ds.metric,
            num_clusters: 64,
            m: 16,
            kstar: 16,
            ..IvfPqConfig::default()
        },
    );
    let params = SearchParams {
        nprobe: 8,
        k: 100,
        ..Default::default()
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\nmeasured IVF-PQ search (N=50k, D=32, W=8, k=100, {threads} threads):");
    println!(
        "  query-major: {:.0} QPS",
        cpu::measure_qps(&index, &ds.queries, &params)
    );
    println!(
        "  cluster-major (Faiss16-like): {:.0} QPS",
        cpu::measure_batched_qps(
            &index,
            &ds.queries,
            &params,
            threads,
            &Telemetry::disabled()
        )
    );

    println!("\nmeasured exhaustive search (N=50k, D=32, k=100):");
    println!(
        "  {:.0} QPS (model for this size: CPU {:.0} QPS)",
        exhaustive::measure_qps(&ds.db, &ds.queries, ds.metric, 100),
        exhaustive::ExhaustiveModel::cpu().qps(50_000, 32)
    );
}
