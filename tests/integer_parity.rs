//! Integer-mapping parity across solver changes.
//!
//! `tests/fixtures/integer_parity.json` records, per point of the `paper`,
//! `paper-plus`, `smoke` and `gen-smoke` suites, the verdict and the integer
//! results a mapping reports: budgets, capacities and their totals. The
//! solver's floating-point `objective` and its iteration count are
//! deliberately left out: any change to the KKT arithmetic moves their low
//! bits, while the rounded budgets and capacities the paper's method
//! delivers must not move.
//!
//! The `paper`, `paper-plus` and `smoke` entries were captured with the
//! dense KKT solver and hold unchanged under the sparse one. The
//! `gen-smoke` entries were captured with the sparse solver: under the
//! dense one its `ring-0` cap-2 point hit the iteration limit, and its cap-4
//! and cap-7 points stored 7 containers instead of 8 at the same budget,
//! because `Mapping::from_raw` rounds a raw space that lands within noise
//! of an integer to either side (see ROADMAP.md).
//!
//! Regenerate the fixture only when a change is *meant* to alter a mapping,
//! and say why in CHANGES.md.

use bbs_engine::suites::builtin_suite;
use bbs_engine::{run_suite, RunSettings, SuiteReport};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ParityPoint {
    scenario: String,
    capacity_cap: Option<u64>,
    feasible: bool,
    budgets: Option<BTreeMap<String, u64>>,
    capacities: Option<BTreeMap<String, u64>>,
    total_budget: Option<u64>,
    total_storage: Option<u64>,
}

#[derive(Debug, Deserialize)]
struct ParityFixture {
    suites: BTreeMap<String, Vec<ParityPoint>>,
}

fn integer_results(report: &SuiteReport) -> Vec<ParityPoint> {
    report
        .scenarios
        .iter()
        .flat_map(|scenario| {
            scenario.points.iter().map(|point| ParityPoint {
                scenario: scenario.scenario.clone(),
                capacity_cap: point.capacity_cap,
                feasible: point.feasible,
                budgets: point.mapping.as_ref().map(|m| m.budgets.clone()),
                capacities: point.mapping.as_ref().map(|m| m.capacities.clone()),
                total_budget: point.total_budget,
                total_storage: point.total_storage,
            })
        })
        .collect()
}

#[test]
fn builtin_suites_keep_their_integer_results() {
    let text = include_str!("fixtures/integer_parity.json");
    let fixture: ParityFixture = serde_json::from_str(text).expect("fixture parses");
    assert_eq!(
        fixture.suites.keys().collect::<Vec<_>>(),
        ["gen-smoke", "paper", "paper-plus", "smoke"]
    );
    for (name, expected) in &fixture.suites {
        let suite = builtin_suite(name).expect("builtin suite");
        let outcome = run_suite(&suite, &RunSettings::with_jobs(2)).expect("suite runs");
        let actual = integer_results(&SuiteReport::from_outcome(&outcome));
        assert_eq!(actual.len(), expected.len(), "{name}: point count");
        for (a, e) in actual.iter().zip(expected) {
            assert_eq!(a, e, "{name}: integer results moved");
        }
    }
}
