//! `perfbench`: the repository's steady benchmark.
//!
//! One binary runs one workload for a fixed number of seconds and prints,
//! as the last line of its standard output, one JSON object with the
//! fields `correct`, `attempted`, `failed` and `metrics`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs (`--trace 1`)
//! replay the same requests through each layer's public functions, timed
//! from here, and report the per-layer metrics. See `README.md` for the
//! workloads, the metrics and the layer map.
//!
//! ```text
//! perfbench --workload solve-cold --seed 1 --seconds 20 --trace 0 \
//!     --bbs target/release/bbs --work-dir target/perfbench-work
//! ```

mod harness;
mod rerun_disk;
mod served_warm;
mod solve_cold;
mod trace;

use harness::{Args, RunOutcome};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let calib_start = harness::calibrate_ms();
    let loadavg_start = harness::loadavg();
    let outcome: Result<RunOutcome, String> = match args.workload.as_str() {
        "solve-cold" => solve_cold::run(&args),
        "rerun-disk" => rerun_disk::run(&args),
        "served-warm" => served_warm::run(&args),
        other => Err(format!(
            "unknown workload `{other}` (known: solve-cold, rerun-disk, served-warm)"
        )),
    };
    let calib_end = harness::calibrate_ms();
    match outcome {
        Ok(outcome) => {
            harness::print_diagnostics(&args, &outcome, calib_start, calib_end, &loadavg_start);
            println!(
                "{}",
                harness::result_json(&args, &outcome, (calib_start + calib_end) / 2.0)
            );
        }
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload);
            std::process::exit(1);
        }
    }
}
