//! Metro-scale benchmark: build a city of schools (≥1M users in the
//! full config), verify thread-invariant generation, then run the
//! city-wide concurrent attack at 1 and 8 crawl workers per school and
//! check the per-school Table-4 results are bit-identical. Appends a
//! row to `BENCH_metro.json` at the workspace root.
//!
//! ```sh
//! cargo run --release --example metro            # full city, hard gates
//! cargo run --release --example metro -- --smoke # tiny config, CI gate
//! ```
//!
//! Hard gates (full config only):
//! - world size ≥ 1,000,000 users;
//! - build throughput ≥ `METRO_MIN_UPS` users/s (default 1,000,000);
//! - peak RSS after build ≤ 4 GiB (`VmHWM`, falling back to `VmRSS` on
//!   kernels that don't report a high-water mark);
//! - per-school attack results identical at 1 and 8 workers.

use hs_profiler::experiments::append_bench_rows;
use hs_profiler::experiments::metro_lab::{MetroLab, SchoolOutcome};
use hs_profiler::obs::read_memory;
use hs_profiler::synth::{metro_sharded, MetroConfig};
use std::time::Instant;

const SEED: u64 = 0x3e7_a77a;
const GIB: u64 = 1 << 30;

fn min_users_per_sec() -> f64 {
    std::env::var("METRO_MIN_UPS").ok().and_then(|v| v.parse().ok()).unwrap_or(1_000_000.0)
}

fn run_attack(lab: &MetroLab, workers: usize, school_threads: usize) -> (Vec<SchoolOutcome>, f64) {
    let started = Instant::now();
    let outcomes = lab.city_attack(workers, school_threads, SEED);
    (outcomes, started.elapsed().as_secs_f64())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (label, cfg) =
        if smoke { ("tiny", MetroConfig::tiny()) } else { ("city", MetroConfig::city()) };
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let school_threads = threads.max(2);
    println!(
        "metro {label}: {} schools x {} students (+{} alumni, +{} parents), pool {} -> {} users",
        cfg.schools,
        cfg.students_per_school,
        cfg.alumni_per_school,
        cfg.parents_per_school,
        cfg.pool_users,
        cfg.total_users(),
    );

    // ---- build sweep (each thread point timed; 1-thread point is the
    // thread-invariance witness) --------------------------------------
    let points: Vec<usize> = if threads > 1 { vec![1, threads] } else { vec![1] };
    let mut synth_rows = Vec::new();
    let mut world = None;
    println!("{:>7}  {:>9}  {:>9}  {:>12}", "threads", "users", "real-s", "users/s");
    for &t in &points {
        let started = Instant::now();
        let w = metro_sharded(&cfg, t);
        let secs = started.elapsed().as_secs_f64();
        let users = w.network.user_count();
        let ups = users as f64 / secs.max(1e-9);
        println!("{t:>7}  {users:>9}  {secs:>9.3}  {ups:>12.0}");
        synth_rows.push((t, secs, ups, w.network.fingerprint()));
        world = Some(w); // keep the last (widest) build for the attack
    }
    let world = world.expect("at least one build point");
    let users = world.network.user_count();
    let fingerprint = synth_rows[0].3;
    for &(t, _, _, fp) in &synth_rows[1..] {
        assert_eq!(fp, fingerprint, "fingerprint drifted at {t} threads");
    }
    let (synth_secs, users_per_sec) = synth_rows
        .iter()
        .map(|&(_, secs, ups, _)| (secs, ups))
        .fold((f64::MAX, 0.0_f64), |(bs, bu), (s, u)| (bs.min(s), bu.max(u)));
    let peak = read_memory().peak_estimate_bytes().unwrap_or(0);
    println!(
        "best build: {users} users in {synth_secs:.3}s ({users_per_sec:.0} users/s), \
         fingerprint identical at all thread counts: {fingerprint:#018x}",
    );
    println!("peak RSS after build: {:.2} GiB", peak as f64 / GIB as f64);

    // ---- city-wide attack, 1 worker per school ----------------------
    let lab = MetroLab::mount(world);
    let (one, attack_secs_w1) = run_attack(&lab, 1, school_threads);
    let exposure = MetroLab::exposure(&one);
    drop(lab);
    println!(
        "attack (1 worker/school, {school_threads} schools in flight): \
         {}/{} students identified ({:.1}%) in {attack_secs_w1:.2}s, {} requests",
        exposure.students_found,
        exposure.students_total,
        exposure.pct_found(),
        exposure.requests_total,
    );

    // ---- rebuild (untimed) for the 8-worker lab ---------------------
    let world = metro_sharded(&cfg, threads);

    // ---- city-wide attack, 8 workers per school ---------------------
    let lab = MetroLab::mount(world);
    let (eight, attack_secs_w8) = run_attack(&lab, 8, school_threads);
    drop(lab);
    for (a, b) in one.iter().zip(&eight) {
        assert_eq!(a.digest(), b.digest(), "school {} diverged between 1 and 8 workers", a.school);
        assert_eq!(a.guessed, b.guessed, "guess list for {} diverged", a.school);
    }
    println!(
        "determinism: per-school Table-4 digests identical at 1 and 8 workers \
         (8-worker attack took {attack_secs_w8:.2}s)"
    );

    // Worst and best schools, for flavor.
    if let (Some(lo), Some(hi)) = (
        one.iter().min_by(|a, b| a.eval.found.cmp(&b.eval.found)),
        one.iter().max_by(|a, b| a.eval.found.cmp(&b.eval.found)),
    ) {
        println!(
            "per-school range: {} found {}/{} .. {} found {}/{}",
            lo.school, lo.eval.found, lo.roster, hi.school, hi.eval.found, hi.roster
        );
    }

    let row = serde_json::json!({
        "bench": "metro",
        "config": label,
        "users": users as u64,
        "schools": cfg.schools,
        "synth_threads": threads as u64,
        "synth_secs": synth_secs,
        "synth_users_per_sec": users_per_sec,
        "synth_points": synth_rows
            .iter()
            .map(|&(t, secs, ups, _)| {
                serde_json::json!({ "threads": t as u64, "secs": secs, "users_per_sec": ups })
            })
            .collect::<Vec<_>>(),
        "fingerprint": format!("{fingerprint:#018x}"),
        "peak_rss_bytes": peak,
        "attack_school_threads": school_threads as u64,
        "attack_secs_w1": attack_secs_w1,
        "attack_secs_w8": attack_secs_w8,
        "requests_total": exposure.requests_total,
        "students_total": exposure.students_total as u64,
        "students_found": exposure.students_found as u64,
        "pct_found": exposure.pct_found(),
        "deterministic": true,
    });
    append_bench_rows(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_metro.json"), vec![row]);

    if !smoke {
        assert!(users >= 1_000_000, "metro world must have >=1M users, got {users}");
        let floor = min_users_per_sec();
        assert!(
            users_per_sec >= floor,
            "build throughput {users_per_sec:.0} users/s below the {floor:.0} gate"
        );
        assert!(
            peak > 0 && peak <= 4 * GIB,
            "peak RSS {:.2} GiB outside the 4 GiB gate",
            peak as f64 / GIB as f64
        );
        println!("gates (>=1M users, >= {:.0} users/s, <=4 GiB, 1==8 workers): PASS", floor);
    }
}
