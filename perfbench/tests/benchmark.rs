//! The benchmark's own checks: seeded inputs repeat exactly, the printed
//! metrics match `BENCHMARK.json` both ways, and a smoke-sized run of
//! every workload passes the correctness gate.

use anna_index::ShardedIndex;
use anna_perfbench::json::Json;
use anna_perfbench::report::{END_TO_END, PER_LAYER};
use anna_perfbench::serve::{arrivals, compose_rung};
use anna_perfbench::trace::Tracer;
use anna_perfbench::workloads::{self, SetupTimes, Workload};
use anna_perfbench::{out_dir, run, Args};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .expect("section present")
        .items()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics_and_workloads() {
    let doc = benchmark_json();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
    let names: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn same_seed_gives_identical_dataset_trace_and_schedule() {
    let w = Workload::ServeTiered;
    let shape = w.shape(true);
    let ds = workloads::dataset(w, &shape, 7);
    assert_eq!(ds, workloads::dataset(w, &shape, 7));
    assert_ne!(ds.db, workloads::dataset(w, &shape, 8).db);
    let trace = arrivals(&shape, 7, 2_000.0, 0.2);
    assert_eq!(trace, arrivals(&shape, 7, 2_000.0, 0.2));
    assert_ne!(trace, arrivals(&shape, 8, 2_000.0, 0.2));

    let tracer = Tracer::new(false);
    let index = workloads::build_index(&ds, &shape, 7, &tracer, &mut SetupTimes::default());
    let dir = out_dir().join(format!("test-schedule-{}", std::process::id()));
    let mut times = SetupTimes::default();
    let (paths, _) = workloads::write_and_open(&index, &dir, &tracer, &mut times).unwrap();
    let compose = || {
        let engine =
            ShardedIndex::open_tiered(&paths, workloads::cache_bytes_per_shard(&index)).unwrap();
        compose_rung(&engine, &ds.queries, trace.clone(), 2_000.0, &tracer).schedule
    };
    let (a, b) = (compose(), compose());
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!a.batches.is_empty());
    assert_eq!(a, b, "the same trace must compose the same schedule");
}

#[test]
fn smoke_runs_pass_the_correctness_gate_and_print_the_declared_metrics() {
    let doc = benchmark_json();
    for w in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload: w,
                seed: 3,
                seconds: 0.5,
                trace,
                smoke: true,
            };
            let report = run(&args).unwrap();
            assert!(report.correct(), "{}: {:?}", w.name(), report.errors);
            assert!(report.attempted > 0);
            let text = report.render(trace);
            let last = Json::parse(text.lines().last().unwrap()).unwrap();
            assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
            let Some(Json::Obj(metrics)) = last.get("metrics") else {
                panic!("metrics object missing")
            };
            let printed: Vec<String> = metrics.keys().cloned().collect();
            let section = if trace { "per_layer" } else { "end_to_end" };
            let mut want: Vec<String> = declared(&doc, section)
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            want.sort();
            assert_eq!(printed, want, "{} trace={trace}", w.name());
        }
    }
}

#[test]
fn arguments_are_parsed_strictly() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = Args::parse(&argv(
        "--workload serve_tiered --seed 4 --seconds 10 --trace 1",
    ))
    .unwrap();
    assert_eq!(a.workload, Workload::ServeTiered);
    assert!(a.trace && !a.smoke && a.seed == 4);
    assert!(Args::parse(&argv("--workload nope --seed 4 --seconds 10 --trace 1")).is_err());
    assert!(Args::parse(&argv(
        "--workload serve_tiered --seed 4 --seconds 10 --trace 2"
    ))
    .is_err());
    assert!(Args::parse(&argv("--workload serve_tiered --seconds 10 --trace 0")).is_err());
}
