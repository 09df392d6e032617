//! Experiment harness for the SIGMOD'15 reproduction.
//!
//! Each experiment module regenerates one table or figure of the paper's
//! evaluation section (see `DESIGN.md` for the full index) and returns a
//! [`report::Report`] — a set of labelled rows that is printed to stdout and
//! written as JSON under `target/experiments/`. The `experiments` binary
//! dispatches on experiment ids (`fig04`, `tab05`, …) or runs them all.
//! The `bench_*` binaries share [`harness`].

pub mod exp;
pub mod harness;
pub mod report;
pub mod runner;

pub use report::Report;

/// All experiment ids in the order they appear in the paper.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "tab04", "fig04", "tab05", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
    "tab06", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
    "fig21", "fig22", "fig23",
];

/// Runs a single experiment by id.
pub fn run_experiment(id: &str) -> Option<Report> {
    let report = match id {
        "tab04" => exp::datasets::tab04_dataset_statistics(),
        "fig04" => exp::runtime::fig04_response_time(),
        "tab05" => exp::runtime::tab05_partitioning_startup(),
        "fig05" => exp::aggregation::fig05_integration_modes(),
        "fig06" => exp::aggregation::fig06_probability_histogram(),
        "fig07" => exp::aggregation::fig07_guidance_consistency(),
        "fig08" => exp::aggregation::fig08_iteration_reduction(),
        "fig09" => exp::spammer::fig09_spammer_detection(),
        "fig10" => exp::guidance::fig10_real_world_effectiveness(),
        "fig11" => exp::mistakes::fig11_guiding_with_mistakes(),
        "tab06" => exp::mistakes::tab06_mistake_detection(),
        "fig12" => exp::cost::fig12_cost_tradeoff(),
        "fig13" => exp::cost::fig13_budget_allocation(),
        "fig14" => exp::cost::fig14_time_and_budget(),
        "fig15" => exp::guidance::fig15_uncertainty_precision_correlation(),
        "fig16" => exp::guidance::fig16_question_difficulty(),
        "fig17" => exp::guidance::fig17_number_of_labels(),
        "fig18" => exp::guidance::fig18_number_of_workers(),
        "fig19" => exp::guidance::fig19_worker_reliability(),
        "fig20" => exp::guidance::fig20_spammer_ratio(),
        "fig21" => exp::cost::fig21_question_difficulty_cost(),
        "fig22" => exp::cost::fig22_spammer_cost(),
        "fig23" => exp::cost::fig23_reliability_cost(),
        _ => return None,
    };
    Some(report)
}
