//! The experiment table behind the `anna-bench` command: one entry per
//! paper artifact and per invariant sweep, one argument parser, one
//! report writer and one gate path.
//!
//! ```text
//! cargo run --release -p anna-bench -- <name> [--smoke|--full] [--telemetry <path>]
//! ```
//!
//! Every entry maps a [`Profile`] and a telemetry sink to an [`Outcome`]:
//! the text to print, the JSON reports to write, and the verdict of the
//! entry's gates. [`run`] prints the text, writes every report and the
//! telemetry snapshot, and only then checks the gates, so a tripped gate
//! leaves its evidence on disk.

use std::fmt;
use std::path::{Path, PathBuf};

use anna_baseline::{cpu, exhaustive};
use anna_data::{synth, Character, DatasetSpec};
use anna_index::{IvfPqConfig, IvfPqIndex, SearchParams};
use anna_telemetry::Telemetry;

use crate::harness::host_threads;
use crate::json::Json;
use crate::{
    ablation, compression, fig10, fig8, fig9, graph_sweep, kernels_sweep, related, rerank_sweep,
    serving_sweep, table1, threads_sweep, tiered_sweep, timeline, traffic_opt, Scale,
};

/// The size an entry runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// No flag: the quick profile of a paper artifact, the full size of
    /// an invariant sweep.
    Standard,
    /// `--smoke`: an invariant sweep sized for a per-commit CI lane.
    Smoke,
    /// `--full`: the full-scale paper reproduction.
    Full,
}

impl Profile {
    fn flag(self) -> &'static str {
        match self {
            Profile::Standard => "",
            Profile::Smoke => "--smoke",
            Profile::Full => "--full",
        }
    }
}

/// A gate that tripped, naming the points it tripped at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateFailure {
    /// The gate, named after the report flag it reads.
    pub gate: &'static str,
    /// The offending points, labelled as the report labels them.
    pub points: Vec<String>,
}

impl GateFailure {
    /// `Ok` if nothing is `offending`, otherwise the failure of `gate` at
    /// those points.
    pub fn check(
        gate: &'static str,
        offending: impl IntoIterator<Item = String>,
    ) -> Result<(), GateFailure> {
        let points: Vec<String> = offending.into_iter().collect();
        if points.is_empty() {
            Ok(())
        } else {
            Err(GateFailure { gate, points })
        }
    }
}

impl fmt::Display for GateFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gate {} failed at {}", self.gate, self.points.join(", "))
    }
}

/// What one entry produced.
#[derive(Debug)]
pub struct Outcome {
    /// The rendered tables, printed to stdout.
    pub text: String,
    /// `(name, report)` pairs, written as `<name>.json`.
    pub reports: Vec<(&'static str, Json)>,
    /// The entry's gates, checked after everything is written.
    pub gate: Result<(), GateFailure>,
}

fn outcome(
    text: String,
    report: &'static str,
    json: Json,
    gate: Result<(), GateFailure>,
) -> Outcome {
    Outcome {
        text,
        reports: vec![(report, json)],
        gate,
    }
}

/// One runnable entry of the table.
#[derive(Debug)]
pub struct Experiment {
    /// The command-line name.
    pub name: &'static str,
    /// The profiles it offers.
    pub profiles: &'static [Profile],
    /// Every report name it may write, over all its profiles.
    pub reports: &'static [&'static str],
    /// Runs it.
    pub run: fn(Profile, &Telemetry) -> Outcome,
}

const STANDARD: &[Profile] = &[Profile::Standard];
const WITH_FULL: &[Profile] = &[Profile::Standard, Profile::Full];
const WITH_SMOKE: &[Profile] = &[Profile::Standard, Profile::Smoke];

/// `standard` at [`Profile::Standard`], `flagged` at the one flag an
/// entry offers.
fn by_flag<T>(p: Profile, standard: T, flagged: T) -> T {
    if p == Profile::Standard {
        standard
    } else {
        flagged
    }
}

/// Every entry `anna-bench` can run.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        profiles: STANDARD,
        reports: &["table1"],
        run: |_, _| outcome(table1::render(), "table1", table1::to_json(), Ok(())),
    },
    Experiment {
        name: "fig8",
        profiles: WITH_FULL,
        reports: &["fig8"],
        run: |p, _| {
            let f = fig8::run(&by_flag(p, Scale::quick(), Scale::full()));
            outcome(f.render(), "fig8", f.to_json(), Ok(()))
        },
    },
    Experiment {
        name: "fig9",
        profiles: WITH_FULL,
        reports: &["fig9"],
        run: |p, _| {
            let f = fig9::run(&by_flag(p, Scale::quick(), Scale::full()));
            outcome(f.render(), "fig9", f.to_json(), Ok(()))
        },
    },
    Experiment {
        name: "fig10",
        profiles: WITH_FULL,
        reports: &["fig10"],
        run: |p, _| {
            let f = fig10::run(&by_flag(p, Scale::quick(), Scale::full()));
            outcome(f.render(), "fig10", f.to_json(), Ok(()))
        },
    },
    Experiment {
        name: "traffic_opt",
        profiles: WITH_FULL,
        reports: &["traffic_opt"],
        run: |p, _| {
            let t = traffic_opt::run(&by_flag(p, Scale::quick(), Scale::full()));
            outcome(t.render(), "traffic_opt", t.to_json(), Ok(()))
        },
    },
    Experiment {
        name: "ablation",
        profiles: WITH_FULL,
        reports: &["ablation"],
        run: |p, _| {
            let a = ablation::run(by_flag(p, 256, 1000));
            outcome(a.render(), "ablation", a.to_json(), Ok(()))
        },
    },
    Experiment {
        name: "related_work",
        profiles: STANDARD,
        reports: &["related_work"],
        run: |_, _| {
            let r = related::run();
            outcome(r.render(), "related_work", r.to_json(), Ok(()))
        },
    },
    Experiment {
        name: "compression",
        profiles: WITH_FULL,
        reports: &["compression"],
        run: |p, _| {
            let c = compression::run(&by_flag(p, Scale::quick(), Scale::full()));
            outcome(c.render(), "compression", c.to_json(), Ok(()))
        },
    },
    Experiment {
        name: "timeline",
        profiles: WITH_FULL,
        reports: &["timeline"],
        run: |p, _| {
            let (batch, w) = by_flag(p, (128, 8), (1000, 32));
            let t = timeline::run(batch, w, 7);
            outcome(t.render(8), "timeline", t.to_json(), Ok(()))
        },
    },
    Experiment {
        name: "calibrate",
        profiles: STANDARD,
        reports: &[],
        run: calibrate,
    },
    Experiment {
        name: "kernels_sweep",
        profiles: WITH_SMOKE,
        reports: &["kernels_sweep"],
        run: |p, tel| {
            let (n, passes) = by_flag(p, (200_000, 20), (20_000, 3));
            let s = kernels_sweep::run(n, passes, tel);
            outcome(s.render(), "kernels_sweep", s.to_json(), s.gate())
        },
    },
    Experiment {
        name: "threads_sweep",
        profiles: WITH_SMOKE,
        reports: &["threads_sweep", "threads_sweep_smoke"],
        run: |p, tel| {
            // The full sweep is sized so the scan dominates setup but
            // stays under a minute.
            let (db_n, batch, counts, report): (_, _, &[usize], _) = by_flag(
                p,
                (200_000, 512, &[1, 2, 4, 8], "threads_sweep"),
                (20_000, 128, &[1, 2], "threads_sweep_smoke"),
            );
            let s = threads_sweep::run(db_n, batch, counts, tel);
            outcome(s.render(), report, s.to_json(), s.gate())
        },
    },
    Experiment {
        name: "serving_sweep",
        profiles: WITH_SMOKE,
        reports: &["serving_sweep", "serving_sweep_smoke"],
        run: |p, tel| {
            let (db_n, requests, fractions, report): (_, _, &[f64], _) = by_flag(
                p,
                (
                    100_000,
                    1_500,
                    &[0.25, 0.5, 0.75, 1.0, 1.5],
                    "serving_sweep",
                ),
                (20_000, 300, &[0.5, 1.0], "serving_sweep_smoke"),
            );
            let s = serving_sweep::run(db_n, requests, fractions, tel);
            outcome(s.render(), report, s.to_json(), s.gate())
        },
    },
    Experiment {
        name: "rerank_sweep",
        profiles: WITH_SMOKE,
        reports: &["rerank_sweep", "rerank_sweep_smoke"],
        run: |p, tel| {
            // The dataset's cohort structure (see `rerank_sweep::value`)
            // is sized for 4000 rows; the standard profile widens the
            // query set, not the database.
            let (nq, report) = by_flag(p, (64, "rerank_sweep"), (32, "rerank_sweep_smoke"));
            let s = rerank_sweep::run(4_000, nq, nq, &[0.90, 0.95, 0.97], tel);
            outcome(s.render(), report, s.to_json(), s.gate())
        },
    },
    Experiment {
        name: "tiered_sweep",
        profiles: WITH_SMOKE,
        reports: &["tiered_sweep", "tiered_sweep_smoke"],
        run: |p, _| {
            let (db_n, batches, per_batch, report) = by_flag(
                p,
                (40_000, 4, 48, "tiered_sweep"),
                (6_000, 3, 16, "tiered_sweep_smoke"),
            );
            let s = tiered_sweep::run(db_n, batches, per_batch);
            outcome(s.render(), report, s.to_json(), s.gate())
        },
    },
    Experiment {
        name: "graph_sweep",
        profiles: WITH_SMOKE,
        reports: &["graph_sweep", "graph_sweep_smoke"],
        run: |p, _| {
            let (db_n, nq, report) = by_flag(
                p,
                (12_000, 48, "graph_sweep"),
                (2_000, 16, "graph_sweep_smoke"),
            );
            let s = graph_sweep::run(db_n, nq);
            outcome(s.render(), report, s.to_json(), s.gate())
        },
    },
];

/// The entries `all` runs, in order: every paper table and figure. The
/// invariant sweeps and the host calibration measure this machine and run
/// on their own. An entry without the requested profile runs at
/// [`Profile::Standard`].
const ALL: [&str; 9] = [
    "table1",
    "fig8",
    "fig9",
    "fig10",
    "traffic_opt",
    "ablation",
    "related_work",
    "compression",
    "timeline",
];

/// Measures the host's real kernel rates and exhaustive-search
/// throughput: the values to plug into `CpuModel` / `ExhaustiveModel` so
/// the analytic baselines reflect this machine instead of the paper's
/// Skylake-X.
fn calibrate(_: Profile, tel: &Telemetry) -> Outcome {
    let rates = cpu::calibrate(16_384, 16);
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
    let threads = host_threads();
    let text = format!(
        "host calibration (release build required for meaningful numbers)\n\n\
         scan kernel rates (lookups/second/core equivalent):\n  \
         k*=16 (u4): {:.2e}\n  k*=256 (u8): {:.2e}\n\n\
         measured IVF-PQ search (N=50k, D=32, W=8, k=100, {threads} threads):\n  \
         query-major: {:.0} QPS\n  cluster-major (Faiss16-like): {:.0} QPS\n\n\
         measured exhaustive search (N=50k, D=32, k=100):\n  \
         {:.0} QPS (model for this size: CPU {:.0} QPS)\n",
        rates.u4_lookups_per_sec,
        rates.u8_lookups_per_sec,
        cpu::measure_qps(&index, &ds.queries, &params),
        cpu::measure_batched_qps(&index, &ds.queries, &params, threads, tel),
        exhaustive::measure_qps(&ds.db, &ds.queries, ds.metric, 100),
        exhaustive::ExhaustiveModel::cpu().qps(50_000, 32)
    );
    Outcome {
        text,
        reports: Vec::new(),
        gate: Ok(()),
    }
}

/// A parsed command line.
#[derive(Debug)]
pub struct Invocation {
    /// The entries to run, in order, each with the profile it runs at.
    pub jobs: Vec<(&'static Experiment, Profile)>,
    /// Where the telemetry snapshot goes; the chrome://tracing timeline
    /// goes next to it as `<path>.trace.json`.
    pub telemetry: Option<PathBuf>,
}

fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Parses the arguments after the program name. The error says what is
/// wrong with them; the command prints it with [`usage`] and exits 2.
pub fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut name: Option<&str> = None;
    let mut profile: Option<Profile> = None;
    let mut telemetry: Option<PathBuf> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" | "--full" if profile.is_some() => {
                return Err(format!("a second profile flag: {arg}"))
            }
            "--smoke" => profile = Some(Profile::Smoke),
            "--full" => profile = Some(Profile::Full),
            "--telemetry" if telemetry.is_some() => return Err("--telemetry given twice".into()),
            "--telemetry" => match args.next().filter(|p| !p.starts_with('-')) {
                Some(path) => telemetry = Some(PathBuf::from(path)),
                None => return Err("--telemetry requires a path argument".into()),
            },
            other if name.is_none() && !other.starts_with('-') => name = Some(other),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let name = name.ok_or("no experiment named")?;
    let profile = profile.unwrap_or(Profile::Standard);
    let jobs = if name == "all" {
        if !WITH_FULL.contains(&profile) {
            return Err(format!("all does not offer {}", profile.flag()));
        }
        ALL.iter()
            .map(|&member| {
                let e = find(member).expect("every member of `all` is in the table");
                let p = if e.profiles.contains(&profile) {
                    profile
                } else {
                    Profile::Standard
                };
                (e, p)
            })
            .collect()
    } else {
        let e = find(name).ok_or_else(|| format!("unknown experiment: {name}"))?;
        if !e.profiles.contains(&profile) {
            return Err(format!("{name} does not offer {}", profile.flag()));
        }
        vec![(e, profile)]
    };
    Ok(Invocation { jobs, telemetry })
}

/// The command-line synopsis and every entry with the flags it offers.
pub fn usage() -> String {
    let flags = |profiles: &[Profile]| -> String {
        profiles
            .iter()
            .filter(|&&p| p != Profile::Standard)
            .map(|p| format!(" [{}]", p.flag()))
            .collect()
    };
    let mut s =
        String::from("usage: anna-bench <name> [--smoke|--full] [--telemetry <path>]\n\nnames:\n");
    for e in EXPERIMENTS {
        s.push_str(&format!("  {}{}\n", e.name, flags(e.profiles)));
    }
    s.push_str(&format!(
        "  all{}  ({})\n",
        flags(WITH_FULL),
        ALL.join(", ")
    ));
    s
}

/// Why a run failed; the command exits 1 on either.
#[derive(Debug)]
pub enum Failure {
    /// A report or telemetry file could not be written.
    Write(PathBuf, std::io::Error),
    /// An entry's gate tripped.
    Gate(&'static str, GateFailure),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Write(path, e) => write!(f, "could not write {}: {e}", path.display()),
            Failure::Gate(name, gate) => write!(f, "{name}: {gate}"),
        }
    }
}

fn write(path: PathBuf, contents: &str) -> Result<(), Failure> {
    std::fs::write(&path, contents).map_err(|e| Failure::Write(path, e))
}

/// Runs `invocation`: prints each entry's text, writes its reports into
/// `out_dir` and the telemetry where the invocation asks, and only then
/// checks the gates.
///
/// # Panics
///
/// Panics if an entry writes a report its table row does not declare.
pub fn run(invocation: &Invocation, out_dir: &Path) -> Result<(), Failure> {
    let tel = if invocation.telemetry.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    std::fs::create_dir_all(out_dir).map_err(|e| Failure::Write(out_dir.to_path_buf(), e))?;
    let mut gates = Vec::new();
    for &(e, profile) in &invocation.jobs {
        eprintln!("running {} ({profile:?})", e.name);
        let outcome = (e.run)(profile, &tel);
        print!("{}", outcome.text);
        for (name, json) in &outcome.reports {
            assert!(
                e.reports.contains(name),
                "{} wrote the undeclared report {name}",
                e.name
            );
            let path = out_dir.join(format!("{name}.json"));
            write(path.clone(), &json.to_string())?;
            eprintln!("report written to {}", path.display());
        }
        gates.push((e.name, outcome.gate));
    }
    if let Some(path) = &invocation.telemetry {
        let mut trace = path.clone().into_os_string();
        trace.push(".trace.json");
        write(
            path.clone(),
            &tel.snapshot_json().expect("telemetry was enabled"),
        )?;
        write(
            trace.into(),
            &tel.chrome_trace_json().expect("telemetry was enabled"),
        )?;
        eprintln!("telemetry written to {}", path.display());
    }
    for (name, gate) in gates {
        gate.map_err(|g| Failure::Gate(name, g))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse_err(line: &str) -> String {
        parse(&args(line)).expect_err(line)
    }

    #[test]
    fn parser_rejects_bad_command_lines() {
        assert!(parse_err("fig8 --ful").contains("unknown argument: --ful"));
        assert!(parse_err("fig8 extra").contains("unknown argument: extra"));
        assert!(parse_err("nosuch").contains("unknown experiment"));
        assert!(parse_err("").contains("no experiment"));
        assert!(parse_err("threads_sweep --telemetry").contains("requires a path"));
        assert!(parse_err("threads_sweep --telemetry --smoke").contains("requires a path"));
        assert!(parse_err("fig8 --full --full").contains("second profile"));
        // A profile the entry does not offer.
        assert!(parse_err("fig8 --smoke").contains("fig8 does not offer --smoke"));
        assert!(parse_err("threads_sweep --full").contains("does not offer --full"));
        assert!(parse_err("table1 --full").contains("does not offer --full"));
        assert!(parse_err("all --smoke").contains("all does not offer --smoke"));
    }

    #[test]
    fn parser_resolves_entries_profiles_and_telemetry() {
        let inv = parse(&args("threads_sweep --smoke --telemetry out/t.json")).unwrap();
        assert_eq!(inv.jobs.len(), 1);
        assert_eq!(inv.jobs[0].0.name, "threads_sweep");
        assert_eq!(inv.jobs[0].1, Profile::Smoke);
        assert_eq!(inv.telemetry, Some(PathBuf::from("out/t.json")));

        let inv = parse(&args("fig8")).unwrap();
        assert_eq!(inv.jobs[0].1, Profile::Standard);
        assert_eq!(inv.telemetry, None);

        // `all` runs the table's own entries; those without `--full` run
        // at their standard profile.
        let inv = parse(&args("all --full")).unwrap();
        let jobs: Vec<(&str, Profile)> = inv.jobs.iter().map(|(e, p)| (e.name, *p)).collect();
        assert_eq!(jobs.len(), ALL.len());
        assert!(jobs.contains(&("fig8", Profile::Full)));
        assert!(jobs.contains(&("timeline", Profile::Full)));
        assert!(jobs.contains(&("table1", Profile::Standard)));
    }

    #[test]
    fn entry_names_are_unique_and_every_report_has_one_writer() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.push("all");
        let mut reports: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.reports)
            .copied()
            .collect();
        for list in [&mut names, &mut reports] {
            let total = list.len();
            list.sort_unstable();
            list.dedup();
            assert_eq!(list.len(), total, "duplicate in {list:?}");
        }
        for e in EXPERIMENTS {
            assert_eq!(e.profiles[0], Profile::Standard, "{}", e.name);
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("anna_bench_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn runner_writes_declared_reports_and_the_telemetry() {
        let dir = scratch_dir("runner_ok");
        let telemetry = dir.join("tel.json");
        let inv = Invocation {
            jobs: vec![(find("table1").unwrap(), Profile::Standard)],
            telemetry: Some(telemetry.clone()),
        };
        run(&inv, &dir).unwrap();
        let report = std::fs::read_to_string(dir.join("table1.json")).unwrap();
        assert_eq!(report, table1::to_json().to_string());
        assert!(telemetry.exists());
        assert!(dir.join("tel.json.trace.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runner_fails_when_a_report_cannot_be_written() {
        // A regular file where the output directory should be: creating
        // the directory fails whatever the process's privileges.
        let blocker = scratch_dir("runner_blocked");
        std::fs::write(&blocker, "").unwrap();
        let inv = Invocation {
            jobs: vec![(find("table1").unwrap(), Profile::Standard)],
            telemetry: None,
        };
        let err = run(&inv, &blocker.join("reports")).unwrap_err();
        assert!(matches!(err, Failure::Write(..)), "{err}");
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn runner_writes_reports_before_failing_a_gate() {
        static TRIPPED: Experiment = Experiment {
            name: "tripped",
            profiles: STANDARD,
            reports: &["tripped"],
            run: |_, _| {
                let gate = GateFailure::check("flag", ["p1".to_string()]);
                outcome(String::new(), "tripped", Json::obj(), gate)
            },
        };
        let dir = scratch_dir("runner_gate");
        let inv = Invocation {
            jobs: vec![(&TRIPPED, Profile::Standard)],
            telemetry: None,
        };
        let err = run(&inv, &dir).unwrap_err();
        assert_eq!(err.to_string(), "tripped: gate flag failed at p1");
        assert!(dir.join("tripped.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
