//! The benchmark's metric schema and result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metrics the command prints,
//! by name and unit; a test checks them against `BENCHMARK.json`. A run
//! fills a [`Report`] and prints it as one JSON object on the last line of
//! standard output, preceded by a readable table that states, for every
//! timing, the statistic used and its sample count.

use crate::json::quote;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Printed by `--trace 0` runs.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("recall_at_10", "ratio"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("slo_qps", "1/s"),
    ("success_ratio", "ratio"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Printed by `--trace 1` runs.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("index.train_s", "s"),
    ("index.add_s", "s"),
    ("tier.segment_share", "ratio"),
    ("index.filter_us", "us"),
    ("index.centroids_scored", "count"),
    ("index.lut_us", "us"),
    ("index.luts_built", "count"),
    ("index.lut_entries", "count"),
    ("index.scan_ns_per_code", "ns"),
    ("index.codes_scanned", "count"),
    ("index.heap_admit_ratio", "ratio"),
    ("index.rerank_share", "ratio"),
    ("index.rerank_candidates", "count"),
    ("plan.plan_us", "us"),
    ("plan.price_us", "us"),
    ("plan.bytes_per_query", "B"),
    ("engine.execute_ms", "ms"),
    ("engine.stage_share", "ratio"),
    ("engine.verify_us", "us"),
    ("tier.hit_ratio", "ratio"),
    ("tier.disk_bytes_per_query", "B"),
    ("tier.evictions", "count"),
    ("tier.fetch_share", "ratio"),
    ("serve.compose_share", "ratio"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.dispatch_lag_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.time_model_ratio", "ratio"),
    ("trace.qps", "1/s"),
    ("trace.p99_ms", "ms"),
];

/// The unit declared for metric `name`.
///
/// # Panics
///
/// Panics if `name` is not declared.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (queries or requests).
    pub attempted: u64,
    /// Attempted operations that failed: shed or timed out by the
    /// composer, or answered wrongly.
    pub failed: u64,
    /// Correctness failures (verify or oracle mismatches), described.
    pub errors: Vec<String>,
    /// Metric values with the statistic behind each.
    pub metrics: BTreeMap<&'static str, (f64, String)>,
    /// Extra lines for the readable preamble (run record, ladder).
    pub notes: Vec<String>,
    /// The traced run's one-line stage summary, printed after the table.
    pub summary: Option<String>,
}

impl Report {
    /// Records metric `name` = `value`, described by `how` (statistic and
    /// sample count).
    pub fn set(&mut self, name: &'static str, value: f64, how: impl Into<String>) {
        unit(name);
        self.metrics.insert(name, (value, how.into()));
    }

    /// Records a correctness failure.
    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Whether every answer checked out.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The declared metric set for this run mode.
    pub fn declared(traced: bool) -> &'static [(&'static str, &'static str)] {
        if traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The readable table plus the final JSON line.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was not recorded or is not finite.
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        let mut json = Vec::new();
        for &(name, unit) in Report::declared(traced) {
            let (value, how) = self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            out.push_str(&format!("{name:<28} {value:>16.6} {unit:<6} {how}\n"));
            json.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                fmt_num(*value),
                quote(unit)
            ));
        }
        for e in &self.errors {
            out.push_str(&format!("correctness failure: {e}\n"));
        }
        if let Some(summary) = &self.summary {
            out.push_str(summary);
            out.push('\n');
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            json.join(", ")
        ));
        out
    }
}

/// A number as JSON with all its digits (Rust's shortest round-trip form).
fn fmt_num(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn rendered_line_is_the_contract_object() {
        let mut r = Report {
            attempted: 5,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.25, "test");
        }
        let text = r.render(false);
        let last = Json::parse(text.lines().last().unwrap()).unwrap();
        let Json::Obj(top) = &last else { panic!() };
        assert_eq!(
            top.keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        let m = last.get("metrics").unwrap();
        assert_eq!(
            m.get("qps").unwrap().get("unit").unwrap().as_str(),
            Some("1/s")
        );
        assert_eq!(
            m.get("qps").unwrap().get("value").unwrap().as_f64(),
            Some(1.25)
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
