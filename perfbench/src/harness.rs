//! What every workload shares: arguments, the whole-pass loop, request
//! tallies, percentiles, the machine-drift probe, memory readings and the
//! result line.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `bbs` binary `served-warm` starts as its daemon.
    pub bbs: Option<PathBuf>,
    /// Scratch directory for store trees and daemon logs; emptied by the
    /// workloads that use it.
    pub work_dir: PathBuf,
    /// Identity of the measured source (commit and digest), for the record.
    pub source: String,
}

impl Args {
    pub fn parse(mut raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut bbs = None;
        let mut work_dir = None;
        let mut source = None;
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => {
                    seed = Some(value.parse::<u64>().map_err(|_| {
                        format!("--seed must be an unsigned integer, got `{value}`")
                    })?)
                }
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0)
                            .ok_or_else(|| {
                                format!("--seconds must be a positive number, got `{value}`")
                            })?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                    })
                }
                "--bbs" => bbs = Some(PathBuf::from(value)),
                "--work-dir" => work_dir = Some(PathBuf::from(value)),
                "--source" => source = Some(value),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            bbs,
            work_dir: work_dir.ok_or("--work-dir is required")?,
            source: source.unwrap_or_else(|| "unknown".to_string()),
        })
    }
}

/// Requests of one run. Latency quantiles are taken over every untraced
/// request of the run; throughput is taken per pass and reported as the
/// median over passes.
#[derive(Default)]
pub struct Tally {
    /// Latency of every untraced request, in ms.
    latencies_ms: Vec<f64>,
    /// Sweep points of the untraced requests of the open pass.
    points: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Points per second of every closed pass.
    throughputs: Vec<f64>,
}

impl Tally {
    /// Records one untraced request that returned after `latency`, whose
    /// output checks gave `check`.
    pub fn record(&mut self, latency: Duration, points: u64, check: Result<(), String>) {
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        self.points += points;
        self.record_check(check);
    }

    /// Records one request that is checked but not timed (a traced replay).
    pub fn record_check(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = check {
            self.fail_counted(message);
        }
    }

    /// Records one request that failed before returning a result.
    pub fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.fail_counted(message);
    }

    fn fail_counted(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    /// Folds a client's requests into this tally.
    pub fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.points += other.points;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for message in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(message);
            }
        }
    }

    /// Closes the open pass, whose untraced requests kept the workload busy
    /// for `busy`.
    pub fn close_pass(&mut self, busy: Duration) {
        self.throughputs
            .push(self.points as f64 / busy.as_secs_f64());
        self.points = 0;
    }
}

/// Everything one run measured.
pub struct RunOutcome {
    /// One duration per set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    pub tally: Tally,
    pub passes: u64,
    /// Peak resident set of the process that serves the workload, in kB.
    pub peak_rss_kb: u64,
    /// Per-layer metrics, in traced runs: `(name, value, unit)`.
    pub layers: Vec<(&'static str, f64, &'static str)>,
}

/// Runs whole passes over the request list until `seconds` have elapsed,
/// always at least one: every run then measures the identical mix, a
/// whole number of times. Returns the number of passes.
pub fn whole_passes(
    seconds: f64,
    mut pass: impl FnMut(u64) -> Result<(), String>,
) -> Result<u64, String> {
    let start = Instant::now();
    let mut passes = 0;
    loop {
        pass(passes)?;
        passes += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(passes);
        }
    }
}

/// The `q`-quantile (0..=1) of `values`, interpolating linearly between
/// order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Deterministic Fisher–Yates shuffle driven by a SplitMix64 stream.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The machine-drift probe: a fixed pure-CPU loop, median of three
/// timings, in milliseconds. Diagnostic only; never gated.
pub fn calibrate_ms() -> f64 {
    let mut timings: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x: u64 = 0x2545_f491_4f6c_dd1d;
            for i in 0..10_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    timings.sort_by(f64::total_cmp);
    timings[1]
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in kB.
pub fn peak_rss_kb(pid: &str) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {path}"))
}

/// The 1, 5 and 15 minute load averages, as the kernel prints them.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|text| {
            text.split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" ")
        })
        .unwrap_or_else(|_| "unknown".to_string())
}

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust prints for the value.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// One line of run diagnostics, printed before the result: drift probe,
/// load, parallelism, sample counts and the first failures.
pub fn print_diagnostics(
    args: &Args,
    outcome: &RunOutcome,
    calib_start: f64,
    calib_end: f64,
    loadavg_start: &str,
) {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let failures: Vec<String> = outcome
        .tally
        .failures
        .iter()
        .map(|f| json_string(f))
        .collect();
    println!(
        "perfbench-diag {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"source\": {}, \
         \"cpus_available\": {cpus}, \
         \"loadavg_start\": {}, \"loadavg_end\": {}, \"calib_start_ms\": {}, \
         \"calib_end_ms\": {}, \"passes\": {}, \"samples\": {}, \"setup_runs_s\": [{}], \
         \"failures\": [{}]}}",
        json_string(&args.workload),
        args.seed,
        args.trace,
        json_string(&args.source),
        json_string(loadavg_start),
        json_string(&loadavg()),
        json_number(calib_start),
        json_number(calib_end),
        outcome.passes,
        outcome.tally.attempted,
        outcome
            .setup_s
            .iter()
            .map(|s| json_number(*s))
            .collect::<Vec<_>>()
            .join(", "),
        failures.join(", "),
    );
}

/// The result line: end-to-end metrics for untraced runs, per-layer
/// metrics for traced ones.
pub fn result_json(args: &Args, outcome: &RunOutcome, calib_ms: f64) -> String {
    let tally = &outcome.tally;
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut layers = vec![("machine.calib_ms", calib_ms, "ms")];
        layers.extend(outcome.layers.iter().copied());
        layers
    } else {
        let mut setup = outcome.setup_s.clone();
        setup.sort_by(f64::total_cmp);
        vec![
            ("latency_ms_p50", quantile(&tally.latencies_ms, 0.5), "ms"),
            ("latency_ms_p90", quantile(&tally.latencies_ms, 0.9), "ms"),
            ("points_per_s", quantile(&tally.throughputs, 0.5), "1/s"),
            (
                "success_rate",
                (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
                "ratio",
            ),
            ("peak_rss_mb", outcome.peak_rss_kb as f64 / 1024.0, "MB"),
            ("setup_s", quantile(&setup, 0.5), "s"),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
