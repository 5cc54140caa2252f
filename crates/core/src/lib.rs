//! Simultaneous budget and buffer size computation for
//! throughput-constrained task graphs.
//!
//! This crate reproduces the method of Wiggers, Bekooij, Geilen and Basten,
//! *"Simultaneous Budget and Buffer Size Computation for
//! Throughput-Constrained Task Graphs"* (DATE 2010): streaming jobs are task
//! graphs whose tasks run under budget (TDM) schedulers and communicate over
//! bounded FIFO buffers; both the per-task budgets and the per-buffer
//! capacities are computed *in one shot* by a second-order cone program so
//! that every job meets its throughput requirement, instead of the
//! traditional two-phase flow that fixes one before the other.
//!
//! # Quick start
//!
//! ```
//! use bbs_taskgraph::presets::{producer_consumer, PaperParameters};
//! use budget_buffer::{compute_mapping, SolveOptions};
//!
//! # fn main() -> Result<(), budget_buffer::MappingError> {
//! // The paper's producer/consumer job: two tasks on two 40 Mcycle TDM
//! // processors, one FIFO buffer, a 10 Mcycle period, buffer capped at 4.
//! let configuration = producer_consumer(PaperParameters::default(), Some(4));
//! let mapping = compute_mapping(
//!     &configuration,
//!     &SolveOptions::default().prefer_budget_minimisation(),
//! )?;
//! // Each task receives a budget (a multiple of the granularity) and the
//! // buffer receives a capacity, all verified against the throughput
//! // requirement by an independent dataflow analysis.
//! assert!(mapping.budget_of_named(&configuration, "wa").unwrap() >= 4);
//! assert!(mapping.capacity_of_named(&configuration, "bab").unwrap() <= 4);
//! # Ok(())
//! # }
//! ```
//!
//! # Crate layout
//!
//! * [`model`] — the budget-scheduler dataflow model (Section II-C);
//! * [`formulation`] — Algorithm 1, the SOCP;
//! * [`compute_mapping`] — the main entry point (solve + conservative
//!   rounding + verification), with [`compute_mapping_view`] as the
//!   clone-free variant for copy-on-write sweep views;
//! * [`two_phase`] — the separate-phases baseline the paper argues against;
//! * [`explore`] — capacity sweeps behind Figures 2 and 3;
//! * [`verify`] — independent re-verification of any mapping;
//! * [`report`] — text/CSV/serialisable reporting used by the benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod explore;
pub mod formulation;
pub mod model;
mod options;
pub mod report;
mod solution;
mod solver;
pub mod two_phase;
pub mod verify;

pub use error::MappingError;
pub use explore::{sweep_buffer_capacity, with_capacity_cap, TradeoffPoint};
pub use options::{SolveOptions, SolverKind};
pub use report::{mapping_report, MappingReport};
pub use solution::Mapping;
pub use solver::{compute_mapping, compute_mapping_view, SOLVER_REVISION};
pub use two_phase::{compute_mapping_two_phase, BudgetPolicy, TwoPhaseOutcome};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mapping>();
        assert_send_sync::<MappingError>();
        assert_send_sync::<SolveOptions>();
        assert_send_sync::<model::DataflowModel>();
        assert_send_sync::<verify::VerificationReport>();
    }

    #[test]
    fn quickstart_example_runs() {
        let configuration = bbs_taskgraph::presets::producer_consumer(
            bbs_taskgraph::presets::PaperParameters::default(),
            Some(4),
        );
        let mapping = compute_mapping(
            &configuration,
            &SolveOptions::default().prefer_budget_minimisation(),
        )
        .unwrap();
        assert!(mapping.budget_of_named(&configuration, "wa").unwrap() >= 4);
    }
}
