//! The three ways a lab fields its fleet, compared on the same attack:
//! the plain fleet (`Lab::crawler`: bare exchanges, private seat
//! timelines), the shared-clock fleet (`Lab::resilient_crawler`: every
//! seat on the platform's clock, one worker) and the per-seat-clock
//! fleet (`Lab::parallel_crawler`), same accounts, same seed.
//!
//! Fault-free, they must agree on everything the paper reports: seeds,
//! the Effort ledger, Table 4 and the checkpoint. How a seat keeps
//! time must not change what it fetches.

use hs_profiler::core::{evaluate, EvalPoint};
use hs_profiler::crawler::OsnAccess;
use hs_profiler::experiments::runner::{full_attack_with, AttackRun, Lab};
use hs_profiler::platform::FaultPlan;
use hs_profiler::synth::ScenarioConfig;

const SEED: u64 = 0x9d5f_2013;

fn table4(lab: &Lab, run: &AttackRun) -> EvalPoint {
    let truth = lab.ground_truth();
    let t = run.config.school_size_estimate as usize;
    evaluate(
        t,
        &run.enhanced.guessed_students(t),
        |u| run.enhanced.inferred_year(u, &run.config),
        &truth,
    )
}

/// One tiny attack on a fresh fault-free lab with the access layer
/// `make` builds.
fn attack(make: impl FnOnce(&Lab) -> Box<dyn OsnAccess>) -> (Lab, AttackRun) {
    let lab = Lab::facebook_chaotic(&ScenarioConfig::tiny(), FaultPlan::default());
    let access = make(&lab);
    let run = full_attack_with(&lab, access);
    (lab, run)
}

#[test]
fn engines_agree_fault_free() {
    let runs = [
        attack(|lab| lab.crawler(2, "atk")),
        attack(|lab| lab.resilient_crawler(2, "atk", SEED)),
        attack(|lab| Box::new(lab.parallel_crawler(2, 1, "atk", SEED))),
    ];
    let (lab0, base) = &runs[0];
    for (lab, run) in &runs[1..] {
        assert_eq!(run.discovery.seeds, base.discovery.seeds);
        assert_eq!(run.effort_total, base.effort_total);
        assert_eq!(table4(lab, run), table4(lab0, base));
        assert_eq!(
            run.access.checkpoint().to_json().unwrap(),
            base.access.checkpoint().to_json().unwrap()
        );
    }
}
