//! `rerun-disk`: one closed-loop client re-running a large, cheap suite
//! against a warm on-disk store, with zero fresh solves.
//!
//! Set-up is a cold `--cache-dir` style fill — the store's write path:
//! `save`, minilz compression, atomic rename — and is what `setup_s`
//! measures. Each request then re-runs the suite with a fresh `SolveCache`
//! over a freshly opened `SolveStore`: the read path of a CLI re-run,
//! without the exec. The store, key, expansion and report layers do all of
//! the work.

use crate::harness::{self, Args, RunOutcome, Tally};
use crate::trace::Trace;
use bbs_engine::store::entry_address;
use bbs_engine::{
    CacheKey, CacheStats, CanonicalKey, Engine, ExecutorStats, Flow, LocalDirBackend, PointOutcome,
    RunSettings, Scenario, ScenarioKeySeed, ScenarioOutcome, SolveCache, SolveSource, SolveStore,
    Suite, SuiteOutcome, SuiteReport, SweepSpec, WorkloadSpec,
};
use bbs_taskgraph::presets::PresetSpec;
use bbs_taskgraph::ConfigView;
use budget_buffer::{compute_mapping_view, Mapping, MappingError};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cold fills timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Re-runs per pass: enough passes per run for a steady median of the
/// per-pass statistics.
const RERUNS_PER_PASS: usize = 8;

/// Sweep points per scenario of the suite.
const CHUNK: u64 = 50;

/// The suite: producer/consumer, chain and ring sweeps over wide capacity
/// ranges, 1500 distinct keys in 50-point scenarios, in seeded order. Every
/// point is cheap to solve and every outcome is persistable, so a re-run
/// never solves.
fn suite(seed: u64) -> Suite {
    let families: [(&str, PresetSpec, u64, u64); 5] = [
        ("pc", PresetSpec::named("producer-consumer"), 1, 600),
        ("chain3", PresetSpec::named("chain").with_tasks(3), 1, 400),
        ("chain4", PresetSpec::named("chain").with_tasks(4), 1, 100),
        (
            "ring3",
            PresetSpec::named("ring")
                .with_tasks(3)
                .with_initial_tokens(2),
            2,
            301,
        ),
        (
            "ring4",
            PresetSpec::named("ring")
                .with_tasks(4)
                .with_initial_tokens(1),
            1,
            100,
        ),
    ];
    let mut scenarios = Vec::new();
    for (label, spec, from, to) in families {
        let mut start = from;
        while start <= to {
            let end = (start + CHUNK - 1).min(to);
            scenarios.push(
                Scenario::new(
                    &format!("{label}-{start:03}-{end:03}"),
                    WorkloadSpec::preset(spec.clone()),
                )
                .with_sweep(SweepSpec::range(start, end)),
            );
            start = end + 1;
        }
    }
    harness::shuffle(&mut scenarios, seed);
    Suite::new("rerun-disk", scenarios)
}

fn open_store(dir: &Path) -> Result<SolveStore, String> {
    SolveStore::open(dir).map_err(|e| format!("opening store {}: {e}", dir.display()))
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("clearing {}: {e}", dir.display())),
    }
}

/// One run of the suite on `engine` through a fresh cache over the store
/// at `dir`: the cold fill when `dir` is empty, a re-run otherwise.
fn run_once(engine: &Engine, suite: &Suite, dir: &Path) -> Result<(String, SuiteOutcome), String> {
    let cache = Arc::new(SolveCache::with_store(open_store(dir)?));
    let outcome = engine
        .run_suite_with_cache(suite, &RunSettings::with_jobs(1), &cache)
        .map_err(|e| e.to_string())?;
    Ok((SuiteReport::from_outcome(&outcome).to_json(), outcome))
}

pub fn run(args: &Args) -> Result<RunOutcome, String> {
    let root = args.work_dir.join("rerun-disk");
    fresh_dir(&root)?;
    let result = measure(args, &root);
    let cleanup = fresh_dir(&root);
    let outcome = result?;
    cleanup?;
    Ok(outcome)
}

fn measure(args: &Args, root: &Path) -> Result<RunOutcome, String> {
    let suite = suite(args.seed);
    suite.validate().map_err(|e| e.to_string())?;
    let engine = Engine::new(1);

    let mut setup_s = Vec::new();
    let mut cold_report: Option<String> = None;
    let mut dir = PathBuf::new();
    for repeat in 0..SETUP_REPEATS {
        if repeat > 0 {
            fresh_dir(&dir)?;
        }
        dir = root.join(format!("fill-{repeat}"));
        let start = Instant::now();
        let (report, outcome) = run_once(&engine, &suite, &dir)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let fresh = outcome.store.map_or(0, |store| store.fresh_solves);
        let stored = outcome.store.map_or(0, |store| store.stored);
        if stored != fresh {
            return Err(format!("cold fill stored {stored} of {fresh} fresh solves"));
        }
        if cold_report.as_ref().is_some_and(|cold| *cold != report) {
            return Err("cold fills disagree".to_string());
        }
        cold_report = Some(report);
    }
    let cold_report = cold_report.expect("at least one fill");

    let mut setup_trace = Trace::default();
    let traced_dir = root.join("traced-fill");
    if args.trace && replay_fill(&suite, &traced_dir, &mut setup_trace)? != cold_report {
        return Err("traced fill report differs from the cold fill".to_string());
    }

    let mut tally = Tally::default();
    let mut trace = Trace::default();
    let passes = harness::whole_passes(args.seconds, |_| {
        let mut latencies = Vec::with_capacity(RERUNS_PER_PASS);
        for _ in 0..RERUNS_PER_PASS {
            let begin = Instant::now();
            let result = run_once(&engine, &suite, &dir);
            let latency = begin.elapsed();
            latencies.push(latency);
            match result {
                Ok((report, outcome)) => {
                    let points = outcome
                        .scenarios
                        .iter()
                        .map(|s| s.points.len() as u64)
                        .sum();
                    let fresh = outcome.store.map_or(u64::MAX, |store| store.fresh_solves);
                    let check = if report != cold_report {
                        Err("re-run report differs from the cold fill".to_string())
                    } else if fresh != 0 {
                        Err(format!("re-run solved {fresh} points afresh"))
                    } else {
                        Ok(())
                    };
                    tally.record(latency, points, check);
                }
                Err(e) => tally.fail(e),
            }
        }
        tally.close_pass(latencies.iter().sum());
        if args.trace {
            for latency in latencies {
                trace.add_untraced(latency);
                let begin = Instant::now();
                let replayed = replay_rerun(&suite, &engine, &traced_dir, &mut trace);
                trace.finish_request(begin.elapsed());
                let check = replayed.and_then(|(report, addresses)| {
                    side_decompress(&traced_dir, &addresses, &mut trace)?;
                    if report == cold_report {
                        Ok(())
                    } else {
                        Err("traced re-run report differs from the cold fill".to_string())
                    }
                });
                tally.record_check(check);
            }
            trace.end_pass();
        }
        Ok(())
    })?;
    Ok(RunOutcome {
        setup_s,
        tally,
        passes,
        peak_rss_kb: harness::peak_rss_kb("self")?,
        layers: if args.trace {
            trace.per_layer(&setup_trace)
        } else {
            Vec::new()
        },
    })
}

/// One scenario resolved the way the engine's planner resolves it.
struct Resolved {
    configuration: Arc<bbs_taskgraph::Configuration>,
    flow: Flow,
    options: budget_buffer::SolveOptions,
    caps: Vec<u64>,
}

fn resolve(scenario: &Scenario) -> Result<Resolved, String> {
    let flow = scenario.resolved_flow().map_err(|e| e.to_string())?;
    if flow != Flow::Joint {
        return Err(format!(
            "{}: the replay covers the joint flow only",
            scenario.name
        ));
    }
    Ok(Resolved {
        configuration: Arc::new(scenario.workload.resolve().map_err(|e| e.to_string())?),
        flow,
        options: scenario.resolved_options(),
        caps: scenario
            .sweep
            .as_ref()
            .ok_or_else(|| format!("{}: every scenario sweeps", scenario.name))?
            .caps()
            .map_err(|e| e.to_string())?,
    })
}

/// Assembles the outcome the engine would, from replayed points.
fn outcome_of(
    suite: &Suite,
    scenarios: Vec<(Resolved, Vec<PointOutcome>)>,
    cache: CacheStats,
    store: &SolveStore,
) -> SuiteOutcome {
    SuiteOutcome {
        suite: suite.name.clone(),
        scenarios: suite
            .scenarios
            .iter()
            .zip(scenarios)
            .map(|(scenario, (resolved, points))| ScenarioOutcome {
                scenario: scenario.clone(),
                configuration: (*resolved.configuration).clone(),
                flow: resolved.flow,
                options: resolved.options,
                points,
            })
            .collect(),
        cache,
        cache_enabled: true,
        store: Some(store.stats()),
        executor: ExecutorStats::default(),
        wall_time: Duration::ZERO,
    }
}

fn point(cap: u64, result: Result<Mapping, MappingError>, source: SolveSource) -> PointOutcome {
    PointOutcome {
        capacity_cap: Some(cap),
        result,
        solve_time: Duration::ZERO,
        source,
        validation: None,
    }
}

/// The traced re-run: the engine's store-backed run rebuilt from public
/// functions — expansion, key derivation, the in-memory memo, store
/// lookups and report rendering, each under its own span. Returns the
/// report and the content addresses it read.
fn replay_rerun(
    suite: &Suite,
    engine: &Engine,
    dir: &Path,
    trace: &mut Trace,
) -> Result<(String, Vec<String>), String> {
    trace
        .span("engine.expand", || {
            engine.expand_suite(suite, &RunSettings::with_jobs(1))
        })
        .map_err(|e| e.to_string())?;
    let store = trace.span("store.load", || open_store(dir))?;
    let mut memo: HashMap<CacheKey, Result<Mapping, MappingError>> = HashMap::new();
    let mut cache = CacheStats { hits: 0, misses: 0 };
    let mut addresses = Vec::new();
    let mut scenarios = Vec::new();
    for scenario in &suite.scenarios {
        let resolved = resolve(scenario)?;
        let seed = trace.span("engine.key", || {
            ScenarioKeySeed::new(&resolved.options, resolved.flow.as_str())
        });
        let mut points = Vec::with_capacity(resolved.caps.len());
        for &cap in &resolved.caps {
            let view = ConfigView::with_capacity_cap(Arc::clone(&resolved.configuration), cap);
            let key = trace.span("engine.key", || seed.key_for(&view));
            if let Some(result) = memo.get(&key) {
                cache.hits += 1;
                points.push(point(cap, result.clone(), SolveSource::Memory));
                continue;
            }
            cache.misses += 1;
            let canonical = trace.span("engine.key", || {
                CanonicalKey::materialise(&view, &seed.options_json(), resolved.flow.as_str())
            });
            let effective = view.config();
            let result = trace
                .span("store.load", || store.load(&canonical, effective))
                .ok_or_else(|| format!("{} cap {cap}: store miss on a re-run", scenario.name))?;
            trace.count("store.hits", 1);
            addresses.push(entry_address(&canonical));
            memo.insert(key, result.clone());
            points.push(point(cap, result, SolveSource::Disk));
        }
        scenarios.push((resolved, points));
    }
    trace.count("cache.hits", cache.hits);
    trace.count("cache.misses", cache.misses);
    let outcome = outcome_of(suite, scenarios, cache, &store);
    let report = trace.span("report.render", || {
        SuiteReport::from_outcome(&outcome).to_json()
    });
    Ok((report, addresses))
}

/// Side measurement after a traced re-run: the compressed bytes it read and
/// the minilz decompression of each entry, on the same files.
fn side_decompress(dir: &Path, addresses: &[String], trace: &mut Trace) -> Result<(), String> {
    let backend = LocalDirBackend::open(dir).map_err(|e| e.to_string())?;
    for address in addresses {
        let path = backend.v2_path(address);
        let bytes = fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        trace.count("store.bytes_read", bytes.len() as u64);
        trace
            .side("minilz.decompress", || minilz::decompress(&bytes))
            .map_err(|e| format!("decompressing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The traced cold fill: the store's write path under spans (`store.save`,
/// plus a side measurement of minilz compression on each written body).
/// Returns the report, which must equal the untraced cold fill's.
fn replay_fill(suite: &Suite, dir: &Path, trace: &mut Trace) -> Result<String, String> {
    fresh_dir(dir)?;
    let store = open_store(dir)?;
    let backend = LocalDirBackend::open(dir).map_err(|e| e.to_string())?;
    let mut memo: HashMap<CacheKey, Result<Mapping, MappingError>> = HashMap::new();
    let mut cache = CacheStats { hits: 0, misses: 0 };
    let mut scenarios = Vec::new();
    for scenario in &suite.scenarios {
        let resolved = resolve(scenario)?;
        let seed = ScenarioKeySeed::new(&resolved.options, resolved.flow.as_str());
        let mut points = Vec::with_capacity(resolved.caps.len());
        for &cap in &resolved.caps {
            let view = ConfigView::with_capacity_cap(Arc::clone(&resolved.configuration), cap);
            let key = seed.key_for(&view);
            if let Some(result) = memo.get(&key) {
                cache.hits += 1;
                points.push(point(cap, result.clone(), SolveSource::Memory));
                continue;
            }
            cache.misses += 1;
            let canonical =
                CanonicalKey::materialise(&view, &seed.options_json(), resolved.flow.as_str());
            if store.load(&canonical, view.config()).is_some() {
                return Err(format!("{} cap {cap}: cold store hit", scenario.name));
            }
            let result = compute_mapping_view(&view, &resolved.options);
            trace.span("store.save", || store.save(&canonical, &result));
            let path = backend.v2_path(&entry_address(&canonical));
            let bytes = fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            trace.count("store.bytes_written", bytes.len() as u64);
            let body = minilz::decompress(&bytes).map_err(|e| e.to_string())?;
            trace.side("minilz.compress", || minilz::compress(&body));
            memo.insert(key, result.clone());
            points.push(point(cap, result, SolveSource::Fresh));
        }
        scenarios.push((resolved, points));
    }
    let outcome = outcome_of(suite, scenarios, cache, &store);
    Ok(SuiteReport::from_outcome(&outcome).to_json())
}
