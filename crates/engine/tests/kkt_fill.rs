//! Fill regression for the sparse KKT factorisation on the paper suite's
//! largest point.
//!
//! `runtime-24` (a 24-task random DAG: 173 variables, 438 conic rows) is the
//! point the dense factorisation spent ~1 s on. Its KKT matrix is nearly
//! tree-shaped, so under the minimum-degree ordering the factor `L` must
//! stay about as sparse as the matrix itself. A broken ordering or symbolic
//! analysis shows up here as fill long before it shows up as time.

use bbs_engine::suites::runtime_scenarios;
use budget_buffer::formulation::Formulation;
use budget_buffer::model::DataflowModel;

#[test]
fn runtime_24_kkt_factor_stays_sparse() {
    let scenario = runtime_scenarios()
        .into_iter()
        .find(|s| s.name == "runtime-24")
        .expect("runtime-24 is a paper-suite point");
    let configuration = scenario.workload.resolve().unwrap();
    let options = scenario.resolved_options();
    let model = DataflowModel::build(&configuration);
    let formulation = Formulation::build(&configuration, &model, &options).unwrap();
    let conic = formulation.builder.clone().build().unwrap();
    assert_eq!(
        (conic.problem().num_vars(), conic.problem().num_rows()),
        (173, 438)
    );
    let solution = conic.solve(&options.ipm).unwrap();
    assert!(solution.status().is_optimal());
    let counters = solution.raw().counters;
    assert!(
        counters.factor_nnz <= 2 * counters.kkt_nnz,
        "nnz(L) = {} exceeds twice nnz(K) = {}",
        counters.factor_nnz,
        counters.kkt_nnz
    );
    assert_eq!(counters.factorizations, solution.iterations() + 1);
}
