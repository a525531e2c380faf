//! `anna-bench <name> [--smoke|--full] [--telemetry <path>]`: runs one
//! entry of [`anna_bench::experiments::EXPERIMENTS`] (or `all`) and writes
//! its reports into the workspace's `reports/` directory. Exits 2 on a bad
//! command line, 1 on a failed write or a tripped gate.

use std::path::Path;

use anna_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = experiments::parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n\n{}", experiments::usage());
        std::process::exit(2)
    });
    let reports = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports");
    if let Err(e) = experiments::run(&invocation, &reports) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
