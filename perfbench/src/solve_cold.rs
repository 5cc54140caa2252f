//! `solve-cold`: one closed-loop client, a local `Engine` at `jobs 1`, no
//! memo and no store. Each request is one scenario with its sweep points;
//! nearly all of its time is the SOCP solve (`conic` and the dense KKT
//! `LDLᵀ` of `linalg`), which no other workload reaches.

use crate::harness::{self, Args, RunOutcome, Tally};
use crate::trace::Trace;
use bbs_conic::SolveStatus;
use bbs_engine::suites::{
    fig2a_scenario, fig2b_scenario, fig3_scenario, runtime_scenarios, validate_scenario,
};
use bbs_engine::{
    generate_suite, CacheStats, Engine, ExecutorStats, Flow, GenParams, PointOutcome,
    PointValidation, RunSettings, Scenario, ScenarioKeySeed, ScenarioOutcome, SolveSource, Suite,
    SuiteOutcome, SuiteReport,
};
use bbs_scheduler_sim::{validate_mapping, SimulationSettings};
use bbs_taskgraph::{ConfigView, Configuration};
use budget_buffer::formulation::Formulation;
use budget_buffer::model::DataflowModel;
use budget_buffer::verify::verify_mapping;
use budget_buffer::{Mapping, MappingError, SolveOptions, SolverKind};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The generated part of the request list: fixed, so that every seed runs
/// the same work and only the order changes.
const POOL: GenParams = GenParams {
    seed: 7,
    points: 400,
};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// The request list: the paper's Figure 2/3 sweeps, its runtime-scaling
/// chain up to 16 tasks, its validation sweep, and a `generate_suite` pool
/// (random DAGs, chains, rings and producer/consumer sweeps, including
/// infeasible and iteration-limit points), in seeded order. `runtime-24`
/// stays out: one request of one to two seconds is the noise source this
/// benchmark is built to avoid.
fn request_list(seed: u64) -> Vec<Suite> {
    let mut scenarios = vec![fig2a_scenario(), fig2b_scenario(), fig3_scenario()];
    scenarios.extend(
        runtime_scenarios()
            .into_iter()
            .filter(|s| s.name != "runtime-24"),
    );
    scenarios.push(validate_scenario());
    scenarios.extend(generate_suite(&POOL).scenarios);
    harness::shuffle(&mut scenarios, seed);
    scenarios
        .into_iter()
        .map(|scenario| Suite::new(&scenario.name.clone(), vec![scenario]))
        .collect()
}

fn settings() -> RunSettings {
    RunSettings {
        use_cache: false,
        ..RunSettings::with_jobs(1)
    }
}

pub fn run(args: &Args) -> Result<RunOutcome, String> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let requests = request_list(args.seed);
        for suite in &requests {
            suite.validate().map_err(|e| e.to_string())?;
        }
        let engine = Engine::new(1);
        setup_s.push(start.elapsed().as_secs_f64());
        prepared = Some((requests, engine));
    }
    let (requests, engine) = prepared.expect("at least one set-up");
    let settings = settings();

    let mut tally = Tally::default();
    let mut trace = Trace::default();
    // Each request's report from the first pass; later passes must repeat
    // it byte for byte.
    let mut reports: Vec<Option<String>> = vec![None; requests.len()];
    let passes = harness::whole_passes(args.seconds, |_| {
        let mut busy = Duration::ZERO;
        for (index, suite) in requests.iter().enumerate() {
            let begin = Instant::now();
            let result = engine
                .run_suite(suite, &settings)
                .map(|outcome| (SuiteReport::from_outcome(&outcome).to_json(), outcome));
            let latency = begin.elapsed();
            busy += latency;
            let (report, outcome) = match result {
                Ok(done) => done,
                Err(e) => {
                    tally.fail(format!("{}: {e}", suite.name));
                    continue;
                }
            };
            let check = check_outcome(&outcome)
                .and_then(|()| same_report(&mut reports[index], &report, &suite.name));
            let points = outcome
                .scenarios
                .iter()
                .map(|s| s.points.len() as u64)
                .sum();
            tally.record(latency, points, check);
            if args.trace {
                trace.add_untraced(latency);
                let begin = Instant::now();
                let replayed = replay(suite, &engine, &settings, &mut trace);
                let traced = begin.elapsed();
                trace.finish_request(traced);
                let check = replayed.and_then(|replayed| {
                    if replayed == report {
                        Ok(())
                    } else {
                        Err(format!("{}: traced replay report differs", suite.name))
                    }
                });
                tally.record_check(check);
            }
        }
        tally.close_pass(busy);
        trace.end_pass();
        Ok(())
    })?;
    Ok(RunOutcome {
        setup_s,
        tally,
        passes,
        peak_rss_kb: harness::peak_rss_kb("self")?,
        layers: if args.trace {
            trace.per_layer(&Trace::default())
        } else {
            Vec::new()
        },
    })
}

/// Every feasible mapping re-passes the independent verification against
/// the capped configuration it was solved for.
fn check_outcome(outcome: &SuiteOutcome) -> Result<(), String> {
    for scenario in &outcome.scenarios {
        let base = Arc::new(scenario.configuration.clone());
        for point in &scenario.points {
            if let Ok(mapping) = &point.result {
                let view = view_of(&base, point.capacity_cap);
                verify_mapping(view.config(), mapping).map_err(|e| {
                    format!(
                        "{} cap {:?}: mapping fails re-verification: {e}",
                        scenario.scenario.name, point.capacity_cap
                    )
                })?;
            }
        }
    }
    Ok(())
}

/// Records `report` as the reference on first sight, else compares.
fn same_report(slot: &mut Option<String>, report: &str, name: &str) -> Result<(), String> {
    match slot {
        None => {
            *slot = Some(report.to_string());
            Ok(())
        }
        Some(reference) if reference == report => Ok(()),
        Some(_) => Err(format!("{name}: report differs from the first pass")),
    }
}

fn view_of(base: &Arc<Configuration>, cap: Option<u64>) -> ConfigView {
    match cap {
        Some(cap) => ConfigView::with_capacity_cap(Arc::clone(base), cap),
        None => ConfigView::new(Arc::clone(base)),
    }
}

/// The traced replay of one request: the engine's pipeline for a
/// joint-flow, interior-point scenario, rebuilt from each layer's public
/// functions with a span around every call. Returns the report, which must
/// equal the untraced one.
fn replay(
    suite: &Suite,
    engine: &Engine,
    settings: &RunSettings,
    trace: &mut Trace,
) -> Result<String, String> {
    trace
        .span("engine.expand", || engine.expand_suite(suite, settings))
        .map_err(|e| e.to_string())?;
    let scenario: &Scenario = &suite.scenarios[0];
    let configuration = Arc::new(scenario.workload.resolve().map_err(|e| e.to_string())?);
    let flow = scenario.resolved_flow().map_err(|e| e.to_string())?;
    let options = scenario.resolved_options();
    if flow != Flow::Joint || options.solver != SolverKind::InteriorPoint {
        return Err(format!(
            "{}: the replay covers joint interior-point solves only",
            suite.name
        ));
    }
    let seed = trace.span("engine.key", || {
        ScenarioKeySeed::new(&options, flow.as_str())
    });
    let caps: Vec<Option<u64>> = match &scenario.sweep {
        Some(sweep) => sweep
            .caps()
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(Some)
            .collect(),
        None => vec![None],
    };
    let mut points = Vec::with_capacity(caps.len());
    for cap in caps {
        let view = view_of(&configuration, cap);
        trace.span("engine.key", || seed.key_for(&view));
        let result = solve_point(&view, &options, trace);
        count_verdict(&result, trace);
        points.push(PointOutcome {
            capacity_cap: cap,
            result,
            solve_time: Duration::ZERO,
            source: SolveSource::Fresh,
            validation: None,
        });
    }
    if scenario
        .resolved_validation()
        .map_err(|e| e.to_string())?
        .is_some()
    {
        let simulation = SimulationSettings {
            iterations: settings.simulation_iterations,
            ..SimulationSettings::default()
        };
        for point in &mut points {
            let Ok(mapping) = &point.result else { continue };
            let budgets = mapping.budgets().collect();
            let capacities = mapping.capacities().collect();
            let validation = trace.span("scheduler-sim.validate", || {
                validate_mapping(&configuration, &budgets, &capacities, &simulation)
            });
            point.validation = Some(PointValidation {
                measured_period: validation.measured_period,
                required_period: validation.required_period,
                tolerance: validation.tolerance,
                period_ok: validation.period_ok(),
                buffers_checked: validation.buffer_checks.len() as u64,
                buffer_violations: validation.buffer_violations(),
                detail: validation.error.map(|e| e.to_string()),
            });
        }
    }
    let outcome = SuiteOutcome {
        suite: suite.name.clone(),
        scenarios: vec![ScenarioOutcome {
            scenario: scenario.clone(),
            configuration: (*configuration).clone(),
            flow,
            options,
            points,
        }],
        cache: CacheStats { hits: 0, misses: 0 },
        cache_enabled: false,
        store: None,
        executor: ExecutorStats::default(),
        wall_time: Duration::ZERO,
    };
    Ok(trace.span("report.render", || {
        SuiteReport::from_outcome(&outcome).to_json()
    }))
}

/// `compute_mapping_view` step by step: model, formulation, conic model,
/// interior-point solve, conservative rounding, verification.
fn solve_point(
    view: &ConfigView,
    options: &SolveOptions,
    trace: &mut Trace,
) -> Result<Mapping, MappingError> {
    let configuration: &Configuration = view.base();
    configuration.validate()?;
    let model = trace.span("core.model", || DataflowModel::build_view(view));
    let formulation = trace.span("core.formulate", || {
        Formulation::build_view(view, &model, options)
    })?;
    let conic = trace.span("conic.build", || formulation.builder.clone().build())?;
    trace.count("conic.rows", conic.problem().num_rows() as u64);
    trace.count("conic.vars", conic.problem().num_vars() as u64);
    let solution = trace.span("conic.ipm", || conic.solve(&options.ipm))?;
    trace.count("conic.iterations", solution.iterations() as u64);
    if solution.status() != SolveStatus::Optimal {
        return Err(MappingError::Infeasible {
            detail: solution.status().to_string(),
        });
    }
    let mapping = trace.span("core.round", || {
        let raw_budgets: BTreeMap<_, _> = formulation
            .variables
            .budgets
            .iter()
            .map(|(&task, &var)| (task, solution.value(var)))
            .collect();
        let raw_space: BTreeMap<_, _> = formulation
            .variables
            .buffer_space
            .iter()
            .map(|(&buffer, &var)| (buffer, solution.value(var)))
            .collect();
        Mapping::from_raw(
            configuration,
            raw_budgets,
            raw_space,
            solution.objective(),
            solution.iterations(),
        )
    });
    if options.verify {
        trace.span("core.verify", || verify_mapping(configuration, &mapping))?;
    }
    Ok(mapping)
}

/// A point's verdict is an output, never a failure: counted by kind.
fn count_verdict(result: &Result<Mapping, MappingError>, trace: &mut Trace) {
    let iteration_limit = SolveStatus::MaxIterations.to_string();
    let verdict = match result {
        Ok(_) => "core.verdict_optimal",
        Err(MappingError::Infeasible { detail }) if *detail == iteration_limit => {
            "core.verdict_iteration_limit"
        }
        Err(
            MappingError::Infeasible { .. }
            | MappingError::CapBelowInitialTokens { .. }
            | MappingError::ProcessorOverloaded { .. }
            | MappingError::MemoryOverflow { .. },
        ) => "core.verdict_infeasible",
        Err(_) => "core.verdict_error",
    };
    trace.count(verdict, 1);
}
