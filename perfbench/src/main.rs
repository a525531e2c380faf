//! `perfbench`: runs one workload and prints its metrics; the last line
//! of standard output is the JSON result. Exits non-zero when any answer
//! fails its correctness check.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sift_l2_k256 --seed 1 --seconds 10 --trace 0
//! ```

use anna_perfbench::{run, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: perfbench --workload <sift_l2_k256|glove_ip_k16_rerank|serve_tiered> \
                 --seed <n> --seconds <s> --trace <0|1> [--smoke]"
            );
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", report.render(args.trace));
    if !report.correct() {
        std::process::exit(1);
    }
}
