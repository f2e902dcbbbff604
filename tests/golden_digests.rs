//! Golden values: the tiny-world attack and the tiny metro city pinned
//! as literals.
//!
//! Every other digest test compares two runs of the same program (1 vs
//! 8 workers, journaled vs bare, traced vs untraced), so a change that
//! alters a scraped field in *every* run passes them all. These
//! literals were recorded before the scraper moved from a DOM walk to a
//! single forward scan; a change to what the attacker extracts — or to
//! what it costs — fails here until it is justified and re-pinned.

use hs_profiler::core::{evaluate, EvalPoint};
use hs_profiler::crawler::Effort;
use hs_profiler::experiments::metro_lab::MetroLab;
use hs_profiler::experiments::runner::{full_attack_with, AttackRun, Lab};
use hs_profiler::obs::trace::{fnv1a_chain, FNV_OFFSET};
use hs_profiler::platform::FaultPlan;
use hs_profiler::synth::{MetroConfig, ScenarioConfig};

const SEED: u64 = 0x9d5f_2013;

fn fnv(h: &mut u64, v: u64) {
    *h = fnv1a_chain(*h, &v.to_le_bytes());
}

/// FNV-1a over what Table 2/4 print for the attack: seed, core and
/// candidate counts, the ranked guess list and the evaluation triple.
fn table4_digest(lab: &Lab, run: &AttackRun) -> u64 {
    let truth = lab.ground_truth();
    let t = run.config.school_size_estimate as usize;
    let guessed = run.enhanced.guessed_students(t);
    let eval: EvalPoint =
        evaluate(t, &guessed, |u| run.enhanced.inferred_year(u, &run.config), &truth);
    let mut h = FNV_OFFSET;
    fnv(&mut h, run.discovery.seeds.len() as u64);
    fnv(&mut h, run.discovery.core.len() as u64);
    fnv(&mut h, run.discovery.candidate_count() as u64);
    fnv(&mut h, guessed.len() as u64);
    for u in &guessed {
        fnv(&mut h, u.0);
    }
    fnv(&mut h, eval.found as u64);
    fnv(&mut h, eval.correct_year as u64);
    fnv(&mut h, eval.guessed as u64);
    h
}

/// The tiny attack under chaos faults, one parallel worker over two
/// accounts: retries, breaker trips and re-fetches all feed the pins.
#[test]
fn tiny_attack_matches_golden_values() {
    let lab = Lab::facebook_chaotic(&ScenarioConfig::tiny(), FaultPlan::chaos());
    let access = Box::new(lab.parallel_crawler(2, 1, "atk", SEED));
    let run = full_attack_with(&lab, access);
    let checkpoint = run.access.checkpoint().to_json().expect("checkpoint serialises");
    let checkpoint_digest = fnv1a_chain(FNV_OFFSET, checkpoint.as_bytes());
    let got = (table4_digest(&lab, &run), run.effort_total, checkpoint_digest);
    let want = (
        0x0b86_f2cb_3b5a_793e,
        Effort {
            auth_requests: 6,
            seed_requests: 8,
            profile_requests: 309,
            friend_list_requests: 75,
            message_requests: 0,
            retry_requests: 29,
            captcha_challenges: 0,
            captcha_virtual_ms: 0,
            decoy_requests: 0,
            stale_refetch_requests: 0,
            tombstones: 0,
        },
        0x24ab_8d3d_cb95_8ffc,
    );
    assert_eq!(got, want);
}

/// The tiny metro city (4 schools), per-school Table-4 digests chained
/// in school order.
#[test]
fn tiny_metro_city_matches_golden_digest() {
    let outcomes = MetroLab::facebook(&MetroConfig::tiny(), 2).city_attack(2, 2, 7);
    let mut chained = FNV_OFFSET;
    for o in &outcomes {
        fnv(&mut chained, o.digest());
    }
    assert_eq!(outcomes.len(), 4);
    assert_eq!(chained, 0xa8bf_81ee_203f_65b2);
}
