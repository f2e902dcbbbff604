//! The two crawl engines compared on the same attack: the serial
//! `Crawler` (plain and resilient) against the `ParallelCrawler` at one
//! worker, same accounts, same seed.
//!
//! Fault-free, they agree on everything the paper reports: seeds, the
//! Effort ledger, Table 4 and the checkpoint. Under `FaultPlan::chaos()`
//! only the findings (seeds, Table 4) are required to agree. The engines
//! fail over differently — the serial crawler rotates accounts per
//! request, the scheduler shards whole queues over the live accounts —
//! so once faults strike they issue different request streams, and the
//! retry bill (hence the checkpoint's embedded Effort) differs.
//! `chaos_divergence_is_bounded` prints that divergence.

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

/// One tiny attack on a fresh lab with the access layer `make` builds.
fn attack(plan: FaultPlan, make: impl FnOnce(&Lab) -> Box<dyn OsnAccess>) -> (Lab, AttackRun) {
    let lab = Lab::facebook_chaotic(&ScenarioConfig::tiny(), plan);
    let access = make(&lab);
    let run = full_attack_with(&lab, access);
    (lab, run)
}

fn parallel(lab: &Lab) -> Box<dyn OsnAccess> {
    Box::new(lab.parallel_crawler(2, 1, "atk", SEED))
}

#[test]
fn engines_agree_fault_free() {
    let runs = [
        attack(FaultPlan::default(), |lab| lab.crawler(2, "atk")),
        attack(FaultPlan::default(), |lab| lab.resilient_crawler(2, "atk", SEED)),
        attack(FaultPlan::default(), parallel),
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

#[test]
fn chaos_divergence_is_bounded() {
    let (lab_s, serial) = attack(FaultPlan::chaos(), |lab| lab.resilient_crawler(2, "atk", SEED));
    let (lab_p, par) = attack(FaultPlan::chaos(), parallel);
    assert_eq!(serial.discovery.seeds, par.discovery.seeds);
    assert_eq!(table4(&lab_s, &serial), table4(&lab_p, &par));
    // Not asserted: the engines' Effort and checkpoints. Printed so a
    // change in the divergence shows up in the test log.
    eprintln!("serial   effort: {:?}", serial.effort_total);
    eprintln!("parallel effort: {:?}", par.effort_total);
    let (mut cs, mut cp) = (serial.access.checkpoint(), par.access.checkpoint());
    let equal = cs.to_json().unwrap() == cp.to_json().unwrap();
    cs.effort = Default::default();
    cp.effort = Default::default();
    eprintln!(
        "checkpoint profiles/friends: serial {}/{}, parallel {}/{}; equal: {equal}, \
         equal without effort: {}",
        cs.profiles.len(),
        cs.friends.len(),
        cp.profiles.len(),
        cp.friends.len(),
        cs.to_json().unwrap() == cp.to_json().unwrap()
    );
}
