//! Dispatch × code-width sweep of the ADC scan kernels.
//!
//! Times every [`KernelDispatch`] runnable on the host over the two code
//! widths the paper's CPU baselines use (`k* = 16` nibbles, `k* = 256`
//! bytes), reporting codes/second and effective code-stream GB/s per
//! point. The scalar point **is** the seed implementation, so its row
//! doubles as the "before" measurement and every other row's
//! `speedup_vs_scalar` is the before/after comparison. Every point is
//! also cross-checked to return a bit-identical top-k to the scalar
//! reference — the summation-order invariant, measured rather than
//! assumed.

use anna_index::{kernels, KernelDispatch, Lut, LutPrecision, ScanScratch};
use anna_quant::codes::{CodeWidth, PackedCodes};
use anna_quant::pq::{PqCodebook, PqConfig};
use anna_telemetry::Telemetry;
use anna_vector::{TopK, VectorSet};

use crate::experiments::GateFailure;
use crate::json::Json;

/// One measured point: one dispatch scanning one code width.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPoint {
    /// Sub-quantizer codebook size (16 = nibble codes, 256 = byte codes).
    pub kstar: usize,
    /// Dispatch name (`scalar` / `blocked` / `avx2`).
    pub dispatch: String,
    /// Encoded vectors scored per second, single thread.
    pub codes_per_sec: f64,
    /// Effective code-stream bandwidth, GB/s (codes/sec × bytes/vector).
    pub gbps: f64,
    /// Throughput relative to the scalar (seed) point of the same width.
    pub speedup_vs_scalar: f64,
    /// Whether this point's top-k was bit-identical to the scalar path.
    pub identical_to_scalar: bool,
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct KernelsSweep {
    /// Codes scanned per pass.
    pub n: usize,
    /// Sub-quantizer count.
    pub m: usize,
    /// Timed passes per point.
    pub passes: usize,
    /// What `KernelDispatch::current()` resolved to on this host.
    pub default_dispatch: String,
    /// Measured points, scalar first within each width.
    pub points: Vec<KernelPoint>,
}

/// Deterministic SplitMix64 stream for synthetic codes (the bench crate
/// keeps `anna-testkit` dev-only, so the generator is inlined here).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `n` random code rows below `bound` (1..=256), packed at `width`.
fn random_codes(seed: u64, m: usize, width: CodeWidth, bound: usize, n: usize) -> PackedCodes {
    let mut rng = SplitMix(seed);
    let mut packed = PackedCodes::new(m, width);
    let mut row = vec![0u8; m];
    for _ in 0..n {
        for slot in row.iter_mut() {
            *slot = (rng.next() % bound as u64) as u8;
        }
        packed.push(&row);
    }
    packed
}

/// Runs the sweep: `n` codes per pass, `passes` timed passes per point,
/// every available dispatch × `k* ∈ {16, 256}`.
///
/// Each point's timed scan window bumps the `kernel.*` counters of `tel`
/// under a `<dispatch>_k<kstar>.` prefix, so the snapshot shows
/// scanned/pruned volume per point.
pub fn run(n: usize, passes: usize, tel: &Telemetry) -> KernelsSweep {
    let m = 8usize;
    let dim = m * 2;
    // Small training set: the sweep times the kernels, not the trainer.
    let train = VectorSet::from_fn(dim, 512, |r, c| ((r * 31 + c * 7) % 29) as f32);
    let q: Vec<f32> = (0..dim).map(|i| (i % 5) as f32 * 0.5).collect();
    let k = 100usize;

    let mut points = Vec::new();
    for kstar in [16usize, 256] {
        let book = PqCodebook::train(
            &train,
            &PqConfig {
                m,
                kstar,
                iters: 4,
                seed: 1,
            },
        );
        let lut = Lut::build_ip(&q, &book, LutPrecision::F32);
        let width = if kstar == 16 {
            CodeWidth::U4
        } else {
            CodeWidth::U8
        };
        // Trained k* can come in under the configured one on tiny
        // training sets; bound the synthetic codes by what the LUT has.
        let codes = random_codes(kstar as u64, m, width, lut.kstar(), n);
        let ids: Vec<u64> = (0..n as u64).collect();
        let bytes_per_vector = codes.vector_bytes() as f64;

        // The scalar reference answer, computed once per width.
        let mut scratch = ScanScratch::new();
        let mut reference = TopK::new(k);
        kernels::scan_with(
            &codes,
            &ids,
            &lut,
            &mut reference,
            KernelDispatch::Scalar,
            &mut scratch,
        );
        let reference = reference.into_sorted_vec();

        let mut scalar_rate = 0.0f64;
        for dispatch in KernelDispatch::available() {
            // Warm-up pass (also the correctness cross-check).
            let mut top = TopK::new(k);
            kernels::scan_with(&codes, &ids, &lut, &mut top, dispatch, &mut scratch);
            let identical = top.into_sorted_vec() == reference;

            let point_tel = tel.scoped(&format!("{}_k{kstar}", dispatch.name()));
            let start = std::time::Instant::now();
            let mut tally = kernels::ScanTally::default();
            for _ in 0..passes {
                let mut top = TopK::new(k);
                let t = kernels::scan_with(&codes, &ids, &lut, &mut top, dispatch, &mut scratch);
                tally.accumulate(&t);
            }
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            point_tel.counter_add("kernel.codes_scanned", tally.scanned);
            point_tel.counter_add("kernel.pruned", tally.pruned);

            let codes_per_sec = (passes * n) as f64 / secs;
            if dispatch == KernelDispatch::Scalar {
                scalar_rate = codes_per_sec;
            }
            points.push(KernelPoint {
                kstar,
                dispatch: dispatch.name().to_string(),
                codes_per_sec,
                gbps: codes_per_sec * bytes_per_vector / 1e9,
                speedup_vs_scalar: if scalar_rate > 0.0 {
                    codes_per_sec / scalar_rate
                } else {
                    0.0
                },
                identical_to_scalar: identical,
            });
        }
    }

    KernelsSweep {
        n,
        m,
        passes,
        default_dispatch: KernelDispatch::current().name().to_string(),
        points,
    }
}

impl KernelsSweep {
    /// The summation-order gate: every dispatch returned the scalar
    /// reference's top-k bit for bit.
    pub fn gate(&self) -> Result<(), GateFailure> {
        GateFailure::check(
            "identical_to_scalar",
            self.points
                .iter()
                .filter(|p| !p.identical_to_scalar)
                .map(|p| format!("{} k*={}", p.dispatch, p.kstar)),
        )
    }

    /// JSON report (`reports/kernels_sweep.json`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("n", self.n)
            .set("m", self.m)
            .set("passes", self.passes)
            .set("default_dispatch", self.default_dispatch.as_str())
            .set(
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Json::obj()
                                .set("kstar", p.kstar)
                                .set("dispatch", p.dispatch.as_str())
                                .set("codes_per_sec", p.codes_per_sec)
                                .set("gbps", p.gbps)
                                .set("speedup_vs_scalar", p.speedup_vs_scalar)
                                .set("identical_to_scalar", p.identical_to_scalar)
                        })
                        .collect(),
                ),
            )
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut s = format!(
            "\n=== scan-kernel sweep (n={}, m={}, default dispatch: {}) ===\n{:<6} {:<9} {:>14} {:>8} {:>9} {:>10}\n",
            self.n, self.m, self.default_dispatch, "k*", "dispatch", "codes/sec", "GB/s", "speedup", "identical"
        );
        for p in &self.points {
            s.push_str(&format!(
                "{:<6} {:<9} {:>14.0} {:>8.2} {:>8.2}x {:>10}\n",
                p.kstar,
                p.dispatch,
                p.codes_per_sec,
                p.gbps,
                p.speedup_vs_scalar,
                p.identical_to_scalar
            ));
        }
        s
    }

    /// The fastest point's speedup over scalar at the given width.
    pub fn best_speedup_at(&self, kstar: usize) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.kstar == kstar)
            .map(|p| p.speedup_vs_scalar)
            .fold(None, |best, s| Some(best.map_or(s, |b: f64| b.max(s))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_dispatch_and_stays_bit_identical() {
        let sweep = run(3_000, 2, &Telemetry::disabled());
        let per_width = KernelDispatch::available().len();
        assert_eq!(sweep.points.len(), 2 * per_width);
        for p in &sweep.points {
            assert!(p.codes_per_sec > 0.0, "{} k*={}", p.dispatch, p.kstar);
            assert!(p.gbps > 0.0);
        }
        assert_eq!(sweep.gate(), Ok(()));
        let mut diverged = sweep.clone();
        diverged.points[per_width].identical_to_scalar = false;
        assert_eq!(
            diverged.gate(),
            Err(GateFailure {
                gate: "identical_to_scalar",
                points: vec!["scalar k*=256".to_string()],
            })
        );
        // The scalar row is its own baseline.
        for p in sweep.points.iter().filter(|p| p.dispatch == "scalar") {
            assert!((p.speedup_vs_scalar - 1.0).abs() < 1e-9);
        }
        assert!(sweep.best_speedup_at(16).is_some());
        assert!(sweep.best_speedup_at(512).is_none());
    }

    #[test]
    fn traced_sweep_records_per_point_kernel_counters() {
        let tel = Telemetry::enabled();
        let sweep = run(2_000, 1, &tel);
        assert!(!sweep.points.is_empty());
        let snap = tel.snapshot_json().unwrap();
        assert!(
            snap.contains("\"scalar_k16.kernel.codes_scanned\""),
            "{snap}"
        );
        assert!(snap.contains("\"blocked_k256.kernel.pruned\""), "{snap}");
    }

    #[test]
    fn json_report_has_the_documented_shape() {
        let sweep = run(1_000, 1, &Telemetry::disabled());
        let rendered = sweep.to_json().to_string();
        for key in [
            "\"n\"",
            "\"default_dispatch\"",
            "\"points\"",
            "\"kstar\"",
            "\"dispatch\"",
            "\"codes_per_sec\"",
            "\"gbps\"",
            "\"speedup_vs_scalar\"",
            "\"identical_to_scalar\"",
        ] {
            assert!(rendered.contains(key), "missing {key}");
        }
    }
}
