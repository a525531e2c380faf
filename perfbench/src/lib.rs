//! End-to-end and per-layer benchmark of the ANNA reproduction.
//!
//! The benchmark drives the library from outside, through its public
//! API only: it builds the index (`anna-quant`/`anna-index`), runs
//! batches through `anna-engine`'s `SearchEngine` pipeline (which plans
//! with `anna-plan`), serves an open loop composed by `anna-serve` over
//! `anna-index`'s sharded tiered storage, and times each public call. A
//! traced run (`--trace 1`) records a span around every timed call and
//! replays sampled batches serially through the public stage functions
//! to attribute time to layers; untraced runs (`--trace 0`) report the
//! end-to-end metrics. See `perfbench/WORKLOADS.md`.

pub mod closed;
pub mod json;
pub mod layers;
pub mod replay;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workloads;

use anna_index::IvfPqIndex;
use report::Report;
use std::path::PathBuf;
use trace::Tracer;
use workloads::{SetupTimes, Workload, SETUP_REPS};

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--smoke]`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on a missing or malformed argument.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace, mut smoke) = (None, None, None, false);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .map_err(|_| format!("bad seconds {value}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            smoke,
        })
    }
}

/// Where traces and segment files go: `perfbench/out` in the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host and build fingerprint of a run, as one JSON object.
pub fn run_record(args: &Args, threads: usize) -> String {
    format!(
        "{{\"run_record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"threads\": {threads}, \"kernel_dispatch\": {}, \"rustc\": {}, \
         \"smoke\": {}}}}}",
        json::quote(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json::quote(anna_index::KernelDispatch::current().name()),
        json::quote(env!("PERFBENCH_RUSTC")),
        args.smoke
    )
}

/// Runs one benchmark invocation and returns its report.
///
/// # Errors
///
/// Returns any I/O error from writing, opening or reading the shard
/// segments or the trace file.
pub fn run(args: &Args) -> std::io::Result<Report> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tracer = Tracer::new(args.trace);
    let w = args.workload;
    let shape = w.shape(args.smoke);
    let mut report = Report::default();
    report.notes.push(run_record(args, threads));

    let ds = workloads::dataset(w, &shape, args.seed);
    let gt = workloads::ground_truth(&ds, 10);

    // Set-up, repeated; every repetition builds the identical index. The
    // first runs before the workload and provides its index; the others
    // run between the workload's segments (see `SETUP_REPS`).
    let out = out_dir();
    let seg_root = out.join(format!("segments-{}", std::process::id()));
    let index_seed = workloads::mix(args.seed, 0x1DE7);
    let mut reps: Vec<SetupTimes> = Vec::new();
    let mut set_up = |rep: usize| -> std::io::Result<(IvfPqIndex, Option<Vec<PathBuf>>)> {
        let mut times = SetupTimes::default();
        let index = workloads::build_index(&ds, &shape, index_seed, &tracer, &mut times);
        let paths = if w == Workload::ServeTiered {
            let dir = seg_root.join(format!("rep{rep}"));
            Some(workloads::write_and_open(&index, &dir, &tracer, &mut times)?.0)
        } else {
            None
        };
        reps.push(times);
        Ok((index, paths))
    };
    let (index, paths) = set_up(0)?;
    let mut rep = 0;
    // `rss_mb` is the peak before the first repeated set-up: a repetition
    // builds a second index while the served one is alive, and how high
    // that drives the peak depends on how the allocator reuses freed
    // memory, which varies from run to run by several MiB.
    let mut peak_before_repeats = None;
    let mut again = || {
        rep += 1;
        peak_before_repeats.get_or_insert_with(peak_rss_mib);
        set_up(rep).map(drop)
    };

    match w {
        Workload::SiftL2K256 | Workload::GloveIpK16Rerank => {
            let c = closed::Closed {
                workload: w,
                shape,
                batch: w.batch(args.smoke),
                ds: &ds,
                gt: &gt,
                index: &index,
                threads,
                seed: args.seed,
            };
            closed::run(&c, args.seconds, &tracer, &mut report, &mut again)?;
        }
        Workload::ServeTiered => {
            let paths = paths.expect("tiered set-up writes segments");
            let s = serve::Serve {
                shape,
                ds: &ds,
                gt: &gt,
                index: &index,
                paths: &paths,
                cache_per_shard: workloads::cache_bytes_per_shard(&index),
                threads,
                seed: args.seed,
            };
            let result = serve::run(&s, args.seconds, &tracer, &mut report, &mut again);
            std::fs::remove_dir_all(&seg_root)?;
            result?;
        }
    }

    let med = |f: fn(&SetupTimes) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let totals: Vec<String> = reps.iter().map(|t| format!("{:.3}", t.total_s())).collect();
    let how = format!("median of {SETUP_REPS} set-ups [{}] s", totals.join(", "));
    if args.trace {
        report.set(
            "index.train_s",
            med(|t| t.train_s),
            format!("IvfPqIndex::build, {how}"),
        );
        report.set(
            "index.add_s",
            med(|t| t.add_s),
            format!("IvfPqIndex::add, {how}"),
        );
        report.set(
            "tier.segment_share",
            med(|t| t.segment_s) / med(SetupTimes::total_s),
            format!("write_shard_segments + open_tiered / set-up, {how}"),
        );
        std::fs::create_dir_all(&out)?;
        let file = out.join(format!("trace-{}-{}.json", w.name(), args.seed));
        std::fs::write(&file, tracer.chrome_json())?;
        report
            .notes
            .push(format!("chrome trace: {}", file.display()));
    } else {
        report.set("setup_s", med(SetupTimes::total_s), how);
        report.set(
            "success_ratio",
            1.0 - report.failed as f64 / report.attempted.max(1) as f64,
            format!("1 - failed/attempted over {} operations", report.attempted),
        );
        report.set(
            "rss_mb",
            peak_before_repeats.unwrap_or_else(peak_rss_mib),
            "peak resident set (VmHWM) before the repeated set-ups",
        );
    }
    Ok(report)
}
