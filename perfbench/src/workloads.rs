//! The three workloads. A set-up builds the seed's worlds and mounts
//! them; an attack mounts fresh platforms on those worlds, crawls them
//! closed-loop (every seat sends its next request only after the
//! previous reply) and reduces the result to a Table-4 digest. Every
//! layer boundary an attack crosses goes through the decorators in
//! `wrap.rs`.

use crate::stats::process_cpu_s;
use crate::trace::{Lane, Layer, Span, Tracer};
use crate::wrap::{InFlight, TimedAccess, TimedExchange, TimedHandler};
use hsp_core::{evaluate, run_basic, run_enhanced, AttackConfig, EnhanceOptions, GroundTruth};
use hsp_crawler::ParallelCrawler;
use hsp_crawler::{AccountSeat, CrawlError, Effort, Journal, JournalMetrics, OsnAccess};
use hsp_experiments::crash_lab::{CRASH_ACCOUNTS, CRASH_MAX_ACCOUNTS, CRASH_SYNC_EVERY};
use hsp_experiments::Lab;
use hsp_graph::{CityId, Network, SchoolId, UserId};
use hsp_http::{
    Client, DirectExchange, Exchange, Handler, ResilientExchange, RetryPolicy, RetryStats, Server,
    ServerConfig,
};
use hsp_obs::{Registry, Snapshot, VirtualClock};
use hsp_platform::{FaultPlan, Platform, PlatformConfig};
use hsp_policy::FacebookPolicy;
use hsp_synth::{generate, metro_sharded, MetroConfig, MetroWorld, ScenarioConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const WORKLOADS: [&str; 3] = ["metro_city", "hs2_tcp", "hs1_live"];

/// Threads (and connections) the load may use: `nproc`, at most two,
/// so the workload has the same shape on any host with two cores.
pub fn load_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// splitmix64 of `seed ^ salt`: one independent stream per consumer.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = (seed ^ salt).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Wall times of one set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `hsp_synth::generate` / `metro_sharded`.
    pub build_s: f64,
    /// `Platform::with_registry` + router construction.
    pub mount_s: f64,
    /// `Server::start_with` (TCP workload only).
    pub bind_s: f64,
    pub users: usize,
}

impl Rep {
    /// The attack's Table-4 digest: lane digests chained in order.
    pub fn digest(&self) -> u64 {
        chain_digests(self.lane_digests.iter().copied())
    }
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.mount_s + self.bind_s
    }
}

/// Everything one attack measured.
#[derive(Debug, Default)]
pub struct Rep {
    pub attack_s: f64,
    pub cpu_s: f64,
    /// Table-4 digest of every lane, in lane order.
    pub lane_digests: Vec<u64>,
    /// The crawler's effort ledger, one per lane.
    pub efforts: Vec<Effort>,
    pub candidates: u64,
    pub latencies_ns: Vec<u64>,
    /// Exchanges that errored or came back refused (429 / 5xx).
    pub failed_exchanges: u64,
    pub retries: u64,
    /// Exchange threads the attack ran (lanes in flight x workers).
    pub load_threads: usize,
    pub counters: Snapshot,
    pub mutations_applied: u64,
    pub mutation_events: u64,
    pub spans: Vec<Span>,
}

/// What one attack lane produced.
struct LaneOutcome {
    digest: u64,
    candidates: u64,
    effort: Effort,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

fn mount(
    network: Arc<Network>,
    config: PlatformConfig,
    obs: &Arc<Registry>,
) -> (Arc<Platform>, Arc<dyn Handler>) {
    let platform =
        Platform::with_registry(network, Arc::new(FacebookPolicy::new()), config, Arc::clone(obs));
    let handler = platform.into_handler();
    (platform, handler)
}

fn ground_truth(network: &Network, school: SchoolId) -> GroundTruth {
    let roster = network.roster(school);
    let years =
        roster.iter().filter_map(|&u| network.student_grad_year(u).map(|g| (u, g))).collect();
    GroundTruth::new(roster, years)
}

/// How one attacker's fleet of fake accounts is wired.
struct Fleet {
    label: String,
    accounts: u64,
    max_accounts: usize,
    workers: usize,
    seed: u64,
    /// Stamp per-account attempt sequence numbers (crash-safe mode).
    attempt_seq: bool,
    in_flight: Option<Arc<InFlight>>,
}

type Access<E> = TimedAccess<ParallelCrawler<TimedExchange<ResilientExchange<E>>>>;

/// A parallel crawler whose seats are built the way the program's own
/// harnesses build them (`Lab::parallel_crawler`, `MetroLab`,
/// `crash_lab`): seat `i` seeded `seed ^ i` on its own virtual clock,
/// recruits continuing at `accounts + 1`.
fn build_crawler<E, T>(
    lane: &Arc<Lane>,
    fleet: &Fleet,
    obs: &Registry,
    stats: &Arc<RetryStats>,
    transport: T,
    journal: Option<Journal>,
) -> Result<Access<E>, CrawlError>
where
    E: Exchange + Send + 'static,
    T: Fn() -> E + 'static,
{
    let seat = {
        let (lane, stats) = (Arc::clone(lane), Arc::clone(stats));
        let tracer = Arc::clone(obs.tracer());
        let (seed, attempt_seq, in_flight) =
            (fleet.seed, fleet.attempt_seq, fleet.in_flight.clone());
        move |i: u64| {
            let clock = VirtualClock::shared();
            let mut exchange = ResilientExchange::with_stats(
                transport(),
                RetryPolicy::seeded(seed ^ i),
                Arc::clone(&clock),
                Arc::clone(&stats),
            )
            .with_tracer(Arc::clone(&tracer));
            if attempt_seq {
                exchange = exchange.with_attempt_seq();
            }
            AccountSeat {
                exchange: TimedExchange::new(exchange, Arc::clone(&lane), in_flight.clone()),
                clock: Some(clock),
            }
        }
    };
    let seats: Vec<_> = (0..fleet.accounts).map(&seat).collect();
    let mut next = fleet.accounts;
    let factory = move || {
        next += 1;
        seat(next)
    };
    let mut builder = ParallelCrawler::builder(&fleet.label)
        .workers(fleet.workers)
        .observability(obs)
        .retry_stats(Arc::clone(stats))
        .recruit_with(factory, fleet.max_accounts);
    if let Some(journal) = journal {
        builder = builder.journal(journal);
    }
    let crawler = lane.span(Layer::Crawler, "crawler.build", || builder.build(seats))?;
    Ok(TimedAccess::new(crawler, Arc::clone(lane)))
}

/// FNV-1a over the Table-2/Table-4 outputs, in the field order the
/// crash harness digests them: seed/core/candidate counts, the ranked
/// guess list, the evaluation triple.
fn table4_digest(
    seeds: usize,
    core: usize,
    candidates: usize,
    guessed: &[UserId],
    eval: &hsp_core::EvalPoint,
) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, seeds as u64);
    fnv(&mut h, core as u64);
    fnv(&mut h, candidates as u64);
    fnv(&mut h, guessed.len() as u64);
    for &u in guessed {
        fnv(&mut h, u.0);
    }
    fnv(&mut h, eval.found as u64);
    fnv(&mut h, eval.correct_year as u64);
    fnv(&mut h, eval.guessed as u64);
    h
}

/// The paper's basic + enhanced(+filtering) attack, evaluated at the
/// enrollment estimate.
fn drive(
    access: &mut dyn OsnAccess,
    lane: &Lane,
    config: &AttackConfig,
    city: CityId,
    truth: impl FnOnce() -> GroundTruth,
) -> Result<LaneOutcome, CrawlError> {
    let t = config.school_size_estimate as usize;
    let discovery = lane.span(Layer::Core, "core.run_basic", || run_basic(access, config))?;
    let options = EnhanceOptions { t, filtering: true, enhance: true, school_city: city };
    let enhanced =
        lane.span(Layer::Core, "core.run_enhanced", || run_enhanced(access, &discovery, &options))?;
    let (guessed, eval) = lane.span(Layer::Core, "core.evaluate", || {
        let truth = truth();
        let guessed = enhanced.guessed_students(t);
        let eval = evaluate(t, &guessed, |u| enhanced.inferred_year(u, config), &truth);
        (guessed, eval)
    });
    let candidates = discovery.candidate_count();
    Ok(LaneOutcome {
        digest: table4_digest(
            discovery.seeds.len(),
            discovery.core.len(),
            candidates,
            &guessed,
            &eval,
        ),
        candidates: candidates as u64,
        effort: access.effort(),
    })
}

/// Lane digests chained in lane order (schools, then worlds).
fn chain_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FNV_OFFSET;
    for d in digests {
        fnv(&mut h, d);
    }
    h
}

fn fold_lanes(rep: &mut Rep, lanes: &[(Arc<Lane>, LaneOutcome)]) {
    for (lane, out) in lanes {
        rep.lane_digests.push(out.digest);
        rep.efforts.push(out.effort);
        rep.candidates += out.candidates;
        rep.failed_exchanges += lane.failures();
        rep.latencies_ns.extend(lane.take_latencies());
    }
}

/// Worlds per `hs1_live` run. One HS1 crawl's size and cost vary with
/// the world's seed far more than a city's 40 schools or HS2's larger
/// school do, so each run attacks six seed-derived HS1 worlds in turn.
const HS1_WORLDS: u64 = 6;

/// The generated worlds of a run, shared by every attack of the run;
/// each attack mounts fresh platforms on them, so account indices start
/// over.
pub struct World {
    parts: Vec<Part>,
}

/// One generated world.
struct Part {
    network: Arc<Network>,
    city: CityId,
    /// Target schools with the enrollment estimate the attacker uses.
    targets: Vec<(SchoolId, u32)>,
}

impl Part {
    fn scenario(cfg: &ScenarioConfig) -> Part {
        let scenario = generate(cfg);
        Part {
            network: Arc::new(scenario.network),
            city: scenario.home_city,
            targets: vec![(scenario.school, scenario.config.public_enrollment_estimate)],
        }
    }
}

/// A workload with its seed-derived configuration.
pub enum Workload {
    /// 1.15M users; every school attacked in process, `load_threads()`
    /// schools in flight with one crawler worker each.
    MetroCity(MetroConfig),
    /// HS2 served by a loopback `Server`, attacked over
    /// `load_threads()` keep-alive connections by as many workers.
    Hs2Tcp(Box<ScenarioConfig>),
    /// HS1 worlds under the crash harness's platform settings (live
    /// churn x1 plus `FaultPlan::chaos()`), each attacked in process by
    /// a journaled crawler with `CRASH_ACCOUNTS` seats and one worker.
    Hs1Live(Vec<ScenarioConfig>),
}

impl Workload {
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "metro_city" => Some(Workload::MetroCity(MetroConfig {
                seed: mix(seed, 0x3e7),
                ..MetroConfig::city()
            })),
            "hs2_tcp" => Some(Workload::Hs2Tcp(Box::new(ScenarioConfig {
                seed: mix(seed, 0x52),
                ..ScenarioConfig::hs2()
            }))),
            "hs1_live" => Some(Workload::Hs1Live(
                (0..HS1_WORLDS)
                    .map(|k| ScenarioConfig { seed: mix(seed, 0x51 + k), ..ScenarioConfig::hs1() })
                    .collect(),
            )),
            _ => None,
        }
    }

    /// The platform configuration world `k` is mounted with.
    fn platform_config(&self, k: usize) -> PlatformConfig {
        match self {
            Workload::Hs1Live(cfgs) => PlatformConfig {
                faults: FaultPlan::chaos(),
                mutations: Lab::churn_plan(&cfgs[k], 1.0),
                ..PlatformConfig::default()
            },
            _ => PlatformConfig::default(),
        }
    }

    /// Build the worlds and mount them (and, over TCP, bind a server):
    /// the set-up a user of the workload pays once.
    pub fn setup(&self) -> Result<(World, SetupTimes), String> {
        let mut times = SetupTimes::default();
        let (parts, build_s) = timed(|| match self {
            Workload::MetroCity(cfg) => {
                let MetroWorld { network, city, schools, .. } = metro_sharded(cfg, nproc());
                let estimate = cfg.students_per_school;
                vec![Part {
                    network: Arc::new(network),
                    city,
                    targets: schools.into_iter().map(|s| (s, estimate)).collect(),
                }]
            }
            Workload::Hs2Tcp(cfg) => vec![Part::scenario(cfg)],
            Workload::Hs1Live(cfgs) => cfgs.iter().map(Part::scenario).collect(),
        });
        times.build_s = build_s;
        times.users = parts.iter().map(|p| p.network.user_count()).sum();
        let obs = Arc::new(Registry::new());
        let (handlers, mount_s) = timed(|| {
            parts
                .iter()
                .enumerate()
                .map(|(k, p)| mount(Arc::clone(&p.network), self.platform_config(k), &obs).1)
                .collect::<Vec<_>>()
        });
        times.mount_s = mount_s;
        if let Workload::Hs2Tcp(_) = self {
            let handler = Arc::clone(&handlers[0]);
            let (server, bind_s) = timed(|| Server::start_with(handler, server_config(&obs)));
            times.bind_s = bind_s;
            server.map_err(|e| format!("bind: {e}"))?.shutdown();
        }
        Ok((World { parts }, times))
    }

    /// One attack on freshly mounted platforms over `world`. `check`
    /// adds the workload's cross-check (the in-process twin of a TCP
    /// attack), untimed.
    pub fn attack(
        &self,
        world: &World,
        seed: u64,
        tracer: Option<Arc<Tracer>>,
        check: bool,
        out_dir: &Path,
    ) -> Result<Rep, String> {
        let obs = Arc::new(Registry::new());
        let mut rep = Rep::default();
        for (k, part) in world.parts.iter().enumerate() {
            let (platform, handler) =
                mount(Arc::clone(&part.network), self.platform_config(k), &obs);
            let tracer = tracer.clone();
            match self {
                Workload::MetroCity(_) => {
                    metro_attack(&mut rep, part, &handler, &obs, seed, tracer)
                }
                Workload::Hs2Tcp(_) => {
                    hs2_attack(&mut rep, part, &handler, &obs, seed, tracer, check)
                }
                Workload::Hs1Live(_) => {
                    let seed = mix(seed, 0xc4a5 + k as u64);
                    hs1_attack(&mut rep, part, &handler, &obs, seed, tracer, out_dir)
                }
            }?;
            rep.mutations_applied += platform.mutations.applied_count() as u64;
            rep.mutation_events += platform.mutations.event_count() as u64;
        }
        rep.counters = obs.snapshot();
        if let Some(t) = tracer {
            rep.spans = t.take();
        }
        Ok(rep)
    }
}

fn server_config(obs: &Arc<Registry>) -> ServerConfig {
    ServerConfig {
        metrics: Some(Arc::clone(obs)),
        thread_name_prefix: "hsp-bench".to_string(),
        ..ServerConfig::default()
    }
}

/// One school's finished attack, filled in by whichever thread ran it.
type SchoolSlot = Mutex<Option<Result<(Arc<Lane>, LaneOutcome), CrawlError>>>;

fn metro_attack(
    rep: &mut Rep,
    part: &Part,
    handler: &Arc<dyn Handler>,
    obs: &Arc<Registry>,
    seed: u64,
    tracer: Option<Arc<Tracer>>,
) -> Result<(), String> {
    let handler =
        TimedHandler::wrap(Arc::clone(handler), tracer.clone(), Arc::new(InFlight::default()));
    let crawl_seed = mix(seed, 0xc4a1);
    let load = load_threads();
    rep.load_threads = load;
    let slots: Vec<SchoolSlot> = part.targets.iter().map(|_| Mutex::new(None)).collect();
    let stats = Arc::new(RetryStats::default());
    let cursor = AtomicUsize::new(0);
    let cpu0 = process_cpu_s();
    let ((), attack_s) = timed(|| {
        std::thread::scope(|scope| {
            for _ in 0..load {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(school, estimate)) = part.targets.get(idx) else { break };
                    let lane = Lane::new(tracer.clone());
                    let fleet = Fleet {
                        label: format!("m{idx:02}"),
                        accounts: 4,
                        max_accounts: 8,
                        workers: 1,
                        seed: crawl_seed ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                        attempt_seq: false,
                        in_flight: None,
                    };
                    let handler = Arc::clone(&handler);
                    let out = attack_school(
                        part,
                        school,
                        estimate,
                        &lane,
                        &fleet,
                        obs,
                        &stats,
                        move || DirectExchange::new(Arc::clone(&handler)),
                        None,
                    );
                    lane.close();
                    *slots[idx].lock().expect("school slot poisoned") =
                        Some(out.map(|o| (lane, o)));
                });
            }
        });
    });
    rep.cpu_s += process_cpu_s() - cpu0;
    rep.attack_s += attack_s;
    let mut lanes = Vec::with_capacity(slots.len());
    for (idx, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().expect("school slot poisoned") {
            Some(Ok(lane)) => lanes.push(lane),
            Some(Err(e)) => return Err(format!("school {idx}: {e}")),
            None => return Err(format!("school {idx} never attacked")),
        }
    }
    fold_lanes(rep, &lanes);
    rep.retries += stats.retries();
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn attack_school<E, T>(
    part: &Part,
    school: SchoolId,
    estimate: u32,
    lane: &Arc<Lane>,
    fleet: &Fleet,
    obs: &Registry,
    stats: &Arc<RetryStats>,
    transport: T,
    journal: Option<Journal>,
) -> Result<LaneOutcome, CrawlError>
where
    E: Exchange + Send + 'static,
    T: Fn() -> E + 'static,
{
    let mut access = build_crawler(lane, fleet, obs, stats, transport, journal)?;
    let config = AttackConfig::new(school, part.network.senior_class_year(), estimate);
    drive(&mut access, lane, &config, part.city, || ground_truth(&part.network, school))
}

fn hs2_attack(
    rep: &mut Rep,
    part: &Part,
    handler: &Arc<dyn Handler>,
    obs: &Arc<Registry>,
    seed: u64,
    tracer: Option<Arc<Tracer>>,
    check_in_process: bool,
) -> Result<(), String> {
    let in_flight = Arc::new(InFlight::default());
    let served = TimedHandler::wrap(Arc::clone(handler), tracer.clone(), Arc::clone(&in_flight));
    let server =
        Server::start_with(served, server_config(obs)).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let load = load_threads();
    rep.load_threads = load;
    let fleet = |in_flight: Option<Arc<InFlight>>| Fleet {
        label: "atk".to_string(),
        accounts: 2,
        max_accounts: 8,
        workers: load,
        seed: mix(seed, 0xc4a2),
        attempt_seq: false,
        in_flight,
    };
    let (school, estimate) = part.targets[0];
    let lane = Lane::new(tracer);
    let stats = Arc::new(RetryStats::default());
    let cpu0 = process_cpu_s();
    let (out, attack_s) = timed(|| {
        let tcp = move || Client::new(addr);
        attack_school(
            part,
            school,
            estimate,
            &lane,
            &fleet(Some(in_flight)),
            obs,
            &stats,
            tcp,
            None,
        )
    });
    lane.close();
    rep.cpu_s += process_cpu_s() - cpu0;
    rep.attack_s += attack_s;
    server.shutdown();
    let out = out.map_err(|e| format!("tcp attack: {e}"))?;

    if check_in_process {
        // A fresh platform on the same world: account indices restart,
        // so the in-process crawl must see exactly what the TCP one saw.
        let check_obs = Arc::new(Registry::new());
        let (_p, direct) = mount(Arc::clone(&part.network), PlatformConfig::default(), &check_obs);
        let check = attack_school(
            part,
            school,
            estimate,
            &Lane::new(None),
            &fleet(None),
            &check_obs,
            &Arc::new(RetryStats::default()),
            move || DirectExchange::new(Arc::clone(&direct)),
            None,
        )
        .map_err(|e| format!("in-process attack: {e}"))?;
        if check.digest != out.digest || check.effort != out.effort {
            return Err(format!(
                "transport changed the result: tcp digest {:016x} effort {:?}, in-process digest {:016x} effort {:?}",
                out.digest, out.effort, check.digest, check.effort
            ));
        }
    }
    fold_lanes(rep, &[(lane, out)]);
    rep.retries += stats.retries();
    Ok(())
}

fn hs1_attack(
    rep: &mut Rep,
    part: &Part,
    handler: &Arc<dyn Handler>,
    obs: &Arc<Registry>,
    seed: u64,
    tracer: Option<Arc<Tracer>>,
    journal_dir: &Path,
) -> Result<(), String> {
    let handler =
        TimedHandler::wrap(Arc::clone(handler), tracer.clone(), Arc::new(InFlight::default()));
    let path: PathBuf = journal_dir.join("hs1_live.journal");
    let _ = std::fs::remove_file(&path);
    let journal = Journal::create(&path)
        .map_err(|e| format!("journal {}: {e:?}", path.display()))?
        .with_sync_every(CRASH_SYNC_EVERY)
        .with_metrics(JournalMetrics::register(obs));
    rep.load_threads = 1;
    let fleet = Fleet {
        label: "crash".to_string(),
        accounts: CRASH_ACCOUNTS as u64,
        max_accounts: CRASH_MAX_ACCOUNTS,
        workers: 1,
        seed,
        attempt_seq: true,
        in_flight: None,
    };
    let (school, estimate) = part.targets[0];
    let lane = Lane::new(tracer);
    let stats = Arc::new(RetryStats::default());
    let cpu0 = process_cpu_s();
    let (out, attack_s) = timed(|| {
        let direct = move || DirectExchange::new(Arc::clone(&handler));
        attack_school(part, school, estimate, &lane, &fleet, obs, &stats, direct, Some(journal))
    });
    lane.close();
    rep.cpu_s += process_cpu_s() - cpu0;
    rep.attack_s += attack_s;
    let _ = std::fs::remove_file(&path);
    let out = out.map_err(|e| format!("live attack: {e}"))?;
    fold_lanes(rep, &[(lane, out)]);
    rep.retries += stats.retries();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::wall_attribution;
    use hsp_experiments::crash_lab;
    use hsp_experiments::metro_lab::MetroLab;
    use hsp_experiments::runner::full_attack_with;

    const SEED: u64 = 11;

    fn small_metro() -> MetroConfig {
        MetroConfig {
            schools: 3,
            students_per_school: 60,
            alumni_per_school: 30,
            parents_per_school: 10,
            pool_users: 500,
            ..MetroConfig::tiny()
        }
    }

    fn run(workload: &Workload, tracer: Option<Arc<Tracer>>, out_dir: &Path) -> Rep {
        let (world, _) = workload.setup().expect("setup");
        workload.attack(&world, SEED, tracer, true, out_dir).expect("attack")
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hsp-perfbench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test dir");
        dir
    }

    /// The spans of a traced attack close over its wall time.
    fn assert_traced_closes(rep: &Rep) {
        assert!(!rep.spans.is_empty());
        let wall = wall_attribution(&rep.spans);
        let attributed: f64 = wall[1..].iter().sum::<f64>() / 1e9;
        assert!(attributed <= rep.attack_s * 1.001, "{attributed} > {}", rep.attack_s);
        assert!(rep.spans.iter().filter(|s| s.layer != Layer::Attack).all(|s| s.parent != 0));
    }

    #[test]
    fn metro_digest_matches_the_program_harness_traced_or_not() {
        let cfg = small_metro();
        let workload = Workload::MetroCity(cfg.clone());
        let dir = test_dir("metro");
        let untraced = run(&workload, None, &dir);
        let traced = run(&workload, Some(Tracer::new()), &dir);
        let lab = MetroLab::facebook(&cfg, 2);
        let outcomes = lab.city_attack(1, 2, mix(SEED, 0xc4a1));
        let expected = chain_digests(
            outcomes
                .iter()
                .map(|o| table4_digest(o.seeds, o.core, o.candidates, &o.guessed, &o.eval)),
        );
        assert_eq!(untraced.digest(), expected);
        assert_eq!(traced.digest(), expected);
        let requests: Vec<u64> = outcomes.iter().map(|o| o.requests).collect();
        for rep in [&untraced, &traced] {
            assert_eq!(rep.efforts.iter().map(|e| e.total()).collect::<Vec<_>>(), requests);
        }
        assert_traced_closes(&traced);
    }

    #[test]
    fn tcp_digest_and_effort_match_the_in_process_program_harness() {
        let cfg = ScenarioConfig::tiny();
        let workload = Workload::Hs2Tcp(Box::new(cfg.clone()));
        let dir = test_dir("tcp");
        let untraced = run(&workload, None, &dir);
        let traced = run(&workload, Some(Tracer::new()), &dir);
        let lab = Lab::facebook(&cfg);
        let crawler = lab.parallel_crawler(2, load_threads(), "atk", mix(SEED, 0xc4a2));
        let run = full_attack_with(&lab, Box::new(crawler));
        let t = run.config.school_size_estimate as usize;
        let guessed = run.enhanced.guessed_students(t);
        let eval = evaluate(
            t,
            &guessed,
            |u| run.enhanced.inferred_year(u, &run.config),
            &lab.ground_truth(),
        );
        let expected = chain_digests([table4_digest(
            run.discovery.seeds.len(),
            run.discovery.core.len(),
            run.discovery.candidate_count(),
            &guessed,
            &eval,
        )]);
        for rep in [&untraced, &traced] {
            assert_eq!(rep.digest(), expected);
            assert_eq!(rep.efforts, vec![run.effort_total]);
        }
        // Every request served over the wire found the exchange it serves.
        let exchanges = traced.spans.iter().filter(|s| s.layer == Layer::Http).count();
        let served = traced.spans.iter().filter(|s| s.layer == Layer::Platform).count();
        assert_eq!(served, exchanges + traced.retries as usize);
        assert_traced_closes(&traced);
    }

    #[test]
    fn live_digest_and_effort_match_the_crash_harness_baseline() {
        let cfg = ScenarioConfig::tiny();
        let dir = test_dir("live");
        let workload = Workload::Hs1Live(vec![cfg.clone()]);
        let untraced = run(&workload, None, &dir);
        let traced = run(&workload, Some(Tracer::new()), &dir);
        let baseline = crash_lab::baseline(
            &cfg,
            mix(SEED, 0xc4a5),
            1,
            1.0,
            Some(&dir.join("baseline.journal")),
        );
        for rep in [&untraced, &traced] {
            assert_eq!(rep.digest(), chain_digests([baseline.digest]));
            assert_eq!(rep.efforts, vec![baseline.effort]);
            assert!(rep.mutations_applied > 0, "the world must change mid-crawl");
            assert!(rep.counters.counter("crawler_journal_appends_total") > 0);
        }
        assert_traced_closes(&traced);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
