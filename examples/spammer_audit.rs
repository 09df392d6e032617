//! Spammer audit: a worker community with 35 % spammers is cleaned up by the
//! worker-driven guidance strategy. The example shows which workers get
//! excluded, how detection precision/recall evolve with expert effort, and
//! what that does to result correctness.
//!
//! Run with `cargo run --release --example spammer_audit`.

use crowd_validation::prelude::*;

fn main() {
    // A synthetic crowd with an unusually high share of spammers.
    let data = SyntheticConfig {
        num_objects: 60,
        num_workers: 24,
        mix: PopulationMix::with_spammer_ratio(0.35),
        ..SyntheticConfig::paper_default(555)
    }
    .generate();
    let answers = data.dataset.answers().clone();
    let truth = data.dataset.ground_truth().clone();
    let truly_faulty = data.faulty_workers();
    println!(
        "crowd: {} workers, of which {} are truly faulty (spammers or sloppy)",
        answers.num_workers(),
        truly_faulty.len()
    );

    // Worker-driven guidance with faulty-worker handling enabled.
    let detector = SpammerDetector::new(DetectorConfig::paper_default());
    let mut process = ValidationProcess::builder(answers.clone())
        .strategy(Box::new(WorkerDriven))
        .detector(detector)
        .config(ProcessConfig {
            budget: Some(36),
            ..ProcessConfig::default()
        })
        .ground_truth(truth.clone())
        .build();
    let mut expert = SimulatedExpert::perfect(truth.clone(), 2);

    println!(
        "\n effort | excluded workers | detection precision | detection recall | result precision"
    );
    println!(
        " -------+------------------+---------------------+------------------+-----------------"
    );
    while !process.is_finished() {
        let Some(object) = process.select_next() else {
            break;
        };
        let label = expert.validate(object);
        process
            .integrate(object, label)
            .expect("simulated labels are in range");

        let step = process.trace().steps.last().unwrap();
        if step.iteration.is_multiple_of(6) {
            let outcome = SpammerDetector::new(DetectorConfig::paper_default()).detect(
                &answers,
                process.expert(),
                process.current().priors(),
                Visibility::Recorded,
            );
            println!(
                "  {:>4}% | {:>16} | {:>19.2} | {:>16.2} | {:>15.3}",
                (100 * step.iteration) / answers.num_objects(),
                step.excluded_workers,
                outcome.precision(&truly_faulty),
                outcome.recall(&truly_faulty),
                step.precision.unwrap_or(f64::NAN),
            );
        }
    }

    println!("\nworkers excluded at the end of the audit:");
    for w in process.excluded_workers() {
        let kind = data.profiles[w.index()].kind();
        println!("  {w}  (true type: {kind:?})");
    }

    // How much did handling the spammers matter? Re-run without exclusions.
    let mut without_handling = ValidationProcess::builder(answers)
        .strategy(Box::new(WorkerDriven))
        .config(ProcessConfig {
            budget: Some(36),
            handle_faulty_workers: false,
            ..ProcessConfig::default()
        })
        .ground_truth(truth.clone())
        .build();
    let mut expert2 = SimulatedExpert::perfect(truth, 2);
    let mut provide = |o: ObjectId| expert2.validate(o);
    without_handling
        .run(&mut provide)
        .expect("simulated labels are in range");
    println!(
        "\nresult precision with spammer handling   : {:.3}",
        process.precision().unwrap()
    );
    println!(
        "result precision without spammer handling: {:.3}",
        without_handling.precision().unwrap()
    );
}
