//! Experiment harness for the ANNA reproduction: one module (and one
//! entry of the `anna-bench` command, and one criterion bench) per
//! table/figure of the paper's evaluation, plus the invariant sweeps.
//!
//! ```text
//! cargo run --release -p anna-bench -- <name> [--smoke|--full] [--telemetry <path>]
//! ```
//!
//! | Entry `<name>` | Module | Artifact |
//! |---|---|---|
//! | `fig8` | [`fig8`] | Figure 8: throughput vs recall, 6 datasets × {4:1, 8:1} |
//! | `fig9` | [`fig9`] | Figure 9: single-query latency (4:1) |
//! | `fig10` | [`fig10`] | Figure 10: normalized energy efficiency (4:1, W=32) |
//! | `table1` | [`table1`] | Table I: per-module area and peak power |
//! | `traffic_opt` | [`traffic_opt`] | §V-B memory-traffic-optimization speedups |
//! | `ablation` | [`ablation`] | design-parameter sweeps (DESIGN.md ablations) |
//! | `compression` | [`compression`] | §V-B 16:1 recall-collapse text claim |
//! | `timeline` | [`timeline`] | Figure 7: steady-state execution timeline |
//! | `related_work` | [`related`] | §VI comparison points |
//! | `calibrate` | — | host kernel-rate measurement for the CPU model |
//! | `kernels_sweep` | [`kernels_sweep`] | scan-kernel dispatch sweep (codes/sec, GB/s) |
//! | `threads_sweep` | [`threads_sweep`] | worker-count scaling of the batch engine |
//! | `serving_sweep` | [`serving_sweep`] | online serving: latency vs offered load ([`openloop`] arrivals through `anna-serve`) |
//! | `rerank_sweep` | [`rerank_sweep`] | two-phase re-rank: fixed-precision vs adaptive bytes/recall frontier |
//! | `tiered_sweep` | [`tiered_sweep`] | sharded tiered engine: QPS + bytes-from-storage vs cluster-cache capacity |
//! | `graph_sweep` | [`graph_sweep`] | graph vs IVF-PQ recall-vs-bytes frontiers through the shared `SearchEngine` pipeline |
//! | `all` | — | every paper table and figure above, writing `reports/*.json` |
//!
//! The paper entries accept `--full` for the full-scale profile (see
//! [`scale::Scale`]); the default quick profile finishes in seconds per
//! figure. The sweeps accept `--smoke` for the per-commit CI size and
//! gate their invariants: a tripped gate exits 1 after the report is
//! written. [`experiments`] holds the table, the parser and the runner.
//! Run with `--release`.

#![deny(missing_docs)]

pub mod ablation;
pub mod compression;
pub mod configs;
pub mod experiments;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod graph_sweep;
pub mod harness;
pub mod json;
pub mod kernels_sweep;
pub mod openloop;
pub mod related;
pub mod rerank_sweep;
pub mod scale;
pub mod serving_sweep;
pub mod table1;
pub mod threads_sweep;
pub mod tiered_sweep;
pub mod timeline;
pub mod traffic_opt;

pub use harness::{run_plot, Plot, Series, SeriesPoint};
pub use scale::Scale;
