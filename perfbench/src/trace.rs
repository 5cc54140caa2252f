//! Spans and counters of a traced run, recorded from outside the program
//! around the calls into each layer's public functions.
//!
//! A span is open from [`Trace::begin`] to [`Trace::end`]; spans nest, and a
//! layer is charged its *self* time (its span minus the spans opened inside
//! it). Spans are aggregated as they close rather than stored, so a long
//! traced run holds a few counters, not a growing log. Counters accumulate
//! over the whole run and are also frozen at the end of the first traced
//! pass: a pass is a fixed request list, so the frozen values must repeat
//! exactly between runs of the same code and seed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Default, Clone, Copy)]
struct Layer {
    self_time: Duration,
    calls: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    children: Duration,
}

#[derive(Default)]
pub struct Trace {
    layers: BTreeMap<&'static str, Layer>,
    stack: Vec<Open>,
    /// Top-level span time inside the current request.
    covered: Duration,
    covered_total: Duration,
    requests: u64,
    traced_total: Duration,
    untraced_total: Duration,
    counters: BTreeMap<&'static str, u64>,
    first_pass: Option<BTreeMap<&'static str, u64>>,
}

/// Time-per-request layers `(span, metric)`, reported in milliseconds per
/// traced request.
const REQUEST_LAYERS: [(&str, &str); 15] = [
    ("engine.expand", "engine.expand_ms"),
    ("core.model", "core.model_ms"),
    ("core.formulate", "core.formulate_ms"),
    ("conic.build", "conic.build_ms"),
    ("conic.ipm", "conic.ipm_ms"),
    ("core.round", "core.round_ms"),
    ("core.verify", "core.verify_ms"),
    ("scheduler-sim.validate", "scheduler-sim.validate_ms"),
    ("report.render", "report.render_ms"),
    ("store.load", "store.load_ms"),
    ("minilz.decompress", "minilz.decompress_ms"),
    ("serve.admit", "serve.admit_ms"),
    ("serve.queue_wait", "serve.queue_wait_ms"),
    ("serve.stream", "serve.stream_ms"),
    ("protocol.decode", "protocol.decode_ms"),
];

/// Counters of the first traced pass, with their units.
const PASS_COUNTERS: [(&str, &str); 15] = [
    ("conic.iterations", "count"),
    ("conic.rows", "count"),
    ("conic.vars", "count"),
    ("core.verdict_optimal", "count"),
    ("core.verdict_infeasible", "count"),
    ("core.verdict_iteration_limit", "count"),
    ("core.verdict_error", "count"),
    ("store.hits", "count"),
    ("store.bytes_read", "bytes"),
    ("protocol.frames", "count"),
    ("protocol.bytes_in", "bytes"),
    ("protocol.bytes_out", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("queue.depth_at_accept", "count"),
];

impl Trace {
    pub fn begin(&mut self, name: &'static str) {
        self.stack.push(Open {
            name,
            start: Instant::now(),
            children: Duration::ZERO,
        });
    }

    pub fn end(&mut self) {
        let open = self.stack.pop().expect("end() matches a begin()");
        let elapsed = open.start.elapsed();
        let layer = self.layers.entry(open.name).or_default();
        layer.self_time += elapsed.saturating_sub(open.children);
        layer.calls += 1;
        match self.stack.last_mut() {
            Some(parent) => parent.children += elapsed,
            None => self.covered += elapsed,
        }
    }

    /// Closes every open span (a request that ended early).
    pub fn end_all(&mut self) {
        while !self.stack.is_empty() {
            self.end();
        }
    }

    /// Times `call` as one span of `name`.
    pub fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        self.begin(name);
        let value = call();
        self.end();
        value
    }

    /// Times `call` as work of layer `name` done outside any request (a side
    /// measurement on the request's data): charged to the layer, but
    /// neither to request time nor to coverage.
    pub fn side<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = call();
        let layer = self.layers.entry(name).or_default();
        layer.self_time += start.elapsed();
        layer.calls += 1;
        value
    }

    pub fn count(&mut self, name: &'static str, amount: u64) {
        *self.counters.entry(name).or_default() += amount;
    }

    /// Closes one traced request that took `elapsed` end to end.
    pub fn finish_request(&mut self, elapsed: Duration) {
        debug_assert!(self.stack.is_empty(), "a span outlived its request");
        self.requests += 1;
        self.traced_total += elapsed;
        self.covered_total += std::mem::take(&mut self.covered);
    }

    /// Adds the time of one untraced request of the same passes, the
    /// baseline of the tracing overhead.
    pub fn add_untraced(&mut self, elapsed: Duration) {
        self.untraced_total += elapsed;
    }

    /// Marks the end of a traced pass; the first one freezes the counters.
    pub fn end_pass(&mut self) {
        if self.first_pass.is_none() {
            self.first_pass = Some(self.counters.clone());
        }
    }

    /// Folds another thread's trace of the same pass into this one.
    pub fn merge(&mut self, other: Trace) {
        for (name, layer) in other.layers {
            let mine = self.layers.entry(name).or_default();
            mine.self_time += layer.self_time;
            mine.calls += layer.calls;
        }
        for (name, amount) in other.counters {
            self.count(name, amount);
        }
        self.covered_total += other.covered_total;
        self.requests += other.requests;
        self.traced_total += other.traced_total;
        self.untraced_total += other.untraced_total;
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |layer| layer.self_time.as_secs_f64() * 1e3)
    }

    /// Every per-layer metric of the run. `setup` is the trace of one
    /// traced set-up (the store write path); layers and counters that the
    /// workload never reaches read 0.
    pub fn per_layer(&self, setup: &Trace) -> Vec<(&'static str, f64, &'static str)> {
        let requests = self.requests.max(1) as f64;
        let mut metrics = vec![
            (
                "trace.overhead_frac",
                self.traced_total.as_secs_f64() / self.untraced_total.as_secs_f64() - 1.0,
                "ratio",
            ),
            (
                "trace.uncovered_frac",
                1.0 - self.covered_total.as_secs_f64() / self.traced_total.as_secs_f64(),
                "ratio",
            ),
        ];
        for (span, metric) in REQUEST_LAYERS {
            metrics.push((metric, self.total_ms(span) / requests, "ms"));
        }
        let key_calls = self.layers.get("engine.key").map_or(0, |layer| layer.calls);
        metrics.push((
            "engine.key_us",
            if key_calls == 0 {
                0.0
            } else {
                self.total_ms("engine.key") * 1e3 / key_calls as f64
            },
            "us",
        ));
        let iterations = self.counters.get("conic.iterations").copied().unwrap_or(0);
        metrics.push((
            "conic.ipm_ms_per_iter",
            if iterations == 0 {
                0.0
            } else {
                self.total_ms("conic.ipm") / iterations as f64
            },
            "ms",
        ));
        metrics.push(("store.save_ms", setup.total_ms("store.save"), "ms"));
        metrics.push((
            "minilz.compress_ms",
            setup.total_ms("minilz.compress"),
            "ms",
        ));
        metrics.push((
            "store.bytes_written",
            setup
                .counters
                .get("store.bytes_written")
                .copied()
                .unwrap_or(0) as f64,
            "bytes",
        ));
        let frozen = self.first_pass.as_ref().unwrap_or(&self.counters);
        for (name, unit) in PASS_COUNTERS {
            metrics.push((name, frozen.get(name).copied().unwrap_or(0) as f64, unit));
        }
        metrics
    }
}
