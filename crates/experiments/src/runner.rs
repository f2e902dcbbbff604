//! Shared experiment plumbing: build a world, serve it, attack it.
//!
//! Every lab carries an [`hsp_obs::Registry`] shared by the platform
//! handlers, the loopback HTTP server and the crawler, and the runner
//! wraps the experiment phases — generate → serve → crawl → infer →
//! evaluate — in spans recorded under `experiment_phase_us{phase=...}`.

use hsp_core::{
    evaluate, run_basic, run_enhanced, AttackConfig, Discovery, EnhanceOptions, Enhanced,
    EvalPoint, GroundTruth,
};
use hsp_crawler::{
    AccountSeat, AdaptiveStrategy, OsnAccess, ParallelCrawler, ParallelCrawlerBuilder, Politeness,
};
use hsp_http::{
    ChaosPlan, ChaosStats, ChaosTransport, Client, DirectExchange, Exchange, Handler,
    ResilientExchange, RetryPolicy, RetryStats, Server, ServerConfig,
};
use hsp_obs::{Registry, SpanGuard, VirtualClock};
use hsp_platform::{DefenseConfig, FaultPlan, MutationPlan, Platform, PlatformConfig};
use hsp_policy::{FacebookPolicy, Policy};
use hsp_synth::{generate, ChurnModel, Scenario, ScenarioConfig};
use std::sync::Arc;

/// Scoped timer for one experiment phase, recorded on `reg` under
/// `experiment_phase_us{phase="<name>"}`.
pub fn phase_span(reg: &Registry, phase: &str) -> SpanGuard {
    SpanGuard::new(reg.histogram_with("experiment_phase_us", &[("phase", phase)]))
}

/// How a fleet's seats keep virtual time.
#[derive(Clone, Copy)]
enum Timeline {
    /// Every seat shares the platform's clock, so the sybil detector,
    /// the rate windows and the fleet read one timeline. The fleet runs
    /// at one worker.
    Platform,
    /// Each seat keeps its own clock; results are identical at any
    /// worker count.
    PerSeat { workers: usize },
}

/// A generated world mounted on a platform, ready to be attacked.
pub struct Lab {
    pub scenario: Scenario,
    pub platform: Arc<Platform>,
    /// Registry shared by platform, server and crawlers of this lab.
    pub obs: Arc<Registry>,
    handler: Arc<dyn Handler>,
    server: Option<Server>,
}

impl Lab {
    /// Build with the standard Facebook policy.
    pub fn facebook(cfg: &ScenarioConfig) -> Lab {
        Self::with_policy(cfg, Arc::new(FacebookPolicy::new()))
    }

    /// [`Lab::facebook`] recording into an existing registry.
    pub fn facebook_with_registry(cfg: &ScenarioConfig, obs: Arc<Registry>) -> Lab {
        Self::with_policy_and_registry(cfg, Arc::new(FacebookPolicy::new()), obs)
    }

    /// [`Lab::facebook`] with a hostile platform: the given fault plan
    /// is armed on an otherwise-default configuration. Pair it with
    /// [`Lab::resilient_crawler`] — a plain crawler will not survive.
    pub fn facebook_chaotic(cfg: &ScenarioConfig, plan: FaultPlan) -> Lab {
        Self::facebook_configured(cfg, PlatformConfig { faults: plan, ..PlatformConfig::default() })
    }

    /// [`Lab::facebook`] with the sybil detector armed (see
    /// `hsp_defense`): behavioral scoring on every stranger-facing
    /// route, escalating CAPTCHA → throttle → suspension per
    /// `defense.strength`. `DetectorStrength::Off` yields a platform
    /// bit-identical to [`Lab::facebook`].
    pub fn facebook_defended(cfg: &ScenarioConfig, defense: DefenseConfig) -> Lab {
        Self::facebook_configured(cfg, PlatformConfig { defense, ..PlatformConfig::default() })
    }

    /// [`Lab::facebook`] over a *live* world: the mutation engine armed
    /// with the scenario's own [`ChurnModel`] scaled by `factor`.
    /// `factor == 0.0` produces a frozen plan (empty schedule, no
    /// rollover), which the platform serves byte-identically to
    /// [`Lab::facebook`] — the zero-rate equivalence gate.
    pub fn facebook_live(cfg: &ScenarioConfig, factor: f64) -> Lab {
        Self::facebook_configured(
            cfg,
            PlatformConfig {
                mutations: Self::churn_plan(cfg, factor),
                ..PlatformConfig::default()
            },
        )
    }

    /// Glue [`ChurnModel`] → [`MutationPlan`]: the scenario's derived
    /// per-mille rates scaled by `factor`, on the canonical live
    /// horizon (2 h of virtual time, one graduation rollover at 1 h —
    /// dropped entirely at `factor == 0.0` so the schedule is empty).
    pub fn churn_plan(cfg: &ScenarioConfig, factor: f64) -> MutationPlan {
        let churn = ChurnModel::from_scenario(cfg).scaled(factor);
        MutationPlan {
            enabled: true,
            horizon_ms: 7_200_000,
            signup_per_mille: churn.signup_per_mille,
            friend_per_mille: churn.friend_per_mille,
            defriend_per_mille: churn.defriend_per_mille,
            privacy_flip_per_mille: churn.privacy_flip_per_mille,
            deactivate_per_mille: churn.deactivate_per_mille,
            rollover_at_ms: if factor == 0.0 { Vec::new() } else { vec![3_600_000] },
            ..MutationPlan::default()
        }
    }

    /// [`Lab::facebook`] over a fully caller-specified
    /// [`PlatformConfig`] (fault plan, defense, rate limits, ...).
    pub fn facebook_configured(cfg: &ScenarioConfig, config: PlatformConfig) -> Lab {
        let scenario = generate(cfg);
        let obs = Registry::shared();
        let platform = Platform::with_registry(
            Arc::new(scenario.network.clone()),
            Arc::new(FacebookPolicy::new()),
            config,
            Arc::clone(&obs),
        );
        let handler = platform.into_handler();
        Lab { scenario, platform, obs, handler, server: None }
    }

    /// Build with an explicit policy engine.
    pub fn with_policy(cfg: &ScenarioConfig, policy: Arc<dyn Policy>) -> Lab {
        Self::with_policy_and_registry(cfg, policy, Registry::shared())
    }

    pub fn with_policy_and_registry(
        cfg: &ScenarioConfig,
        policy: Arc<dyn Policy>,
        obs: Arc<Registry>,
    ) -> Lab {
        let scenario = {
            let _span = phase_span(&obs, "generate");
            let started = std::time::Instant::now();
            let scenario = generate(cfg);
            let us = started.elapsed().as_micros().max(1);
            let rate = scenario.network.user_count() as u128 * 1_000_000 / us;
            obs.gauge("synth_users_per_sec").set(rate as i64);
            scenario
        };
        Self::from_scenario_with_registry(scenario, policy, obs)
    }

    /// Mount an already-generated scenario (reuse across policy variants).
    pub fn from_scenario(scenario: Scenario, policy: Arc<dyn Policy>) -> Lab {
        Self::from_scenario_with_registry(scenario, policy, Registry::shared())
    }

    pub fn from_scenario_with_registry(
        scenario: Scenario,
        policy: Arc<dyn Policy>,
        obs: Arc<Registry>,
    ) -> Lab {
        let platform = Platform::with_registry(
            Arc::new(scenario.network.clone()),
            policy,
            PlatformConfig::default(),
            Arc::clone(&obs),
        );
        let handler = platform.into_handler();
        Lab { scenario, platform, obs, handler, server: None }
    }

    /// Start a real loopback HTTP server for this lab (TCP mode),
    /// wired into the lab's registry.
    pub fn serve(&mut self) -> std::io::Result<std::net::SocketAddr> {
        self.serve_hardened(ServerConfig::default())
    }

    /// Like [`Lab::serve`] but with a caller-supplied (typically
    /// overload-hardened) [`ServerConfig`]; the lab still wires its own
    /// registry and thread-name prefix in.
    pub fn serve_hardened(
        &mut self,
        config: ServerConfig,
    ) -> std::io::Result<std::net::SocketAddr> {
        let _span = phase_span(&self.obs, "serve");
        let config = ServerConfig {
            metrics: Some(Arc::clone(&self.obs)),
            thread_name_prefix: "hsp-lab".to_string(),
            ..config
        };
        let server = Server::start_with(self.handler.clone(), config)?;
        let addr = server.addr();
        self.server = Some(server);
        Ok(addr)
    }

    /// The running loopback server, if [`Lab::serve`] (or
    /// [`Lab::serve_hardened`]) was called — e.g. to begin a graceful
    /// drain from a soak harness.
    pub fn server(&self) -> Option<&Server> {
        self.server.as_ref()
    }

    /// Stop serving: take the server out of the lab and shut it down
    /// gracefully, returning once every worker has been joined.
    pub fn stop_serving(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    /// An in-process crawler with `accounts` fake accounts.
    pub fn crawler(&self, accounts: usize, label: &str) -> Box<dyn OsnAccess> {
        let exchanges = (0..accounts).map(|_| DirectExchange::new(self.handler.clone()));
        Box::new(self.plain_fleet(label, exchanges))
    }

    /// A crawler over real loopback TCP (requires [`Lab::serve`]).
    pub fn tcp_crawler(&self, accounts: usize, label: &str) -> Box<dyn OsnAccess> {
        let addr = self.server.as_ref().expect("call serve() before tcp_crawler()").addr();
        Box::new(self.plain_fleet(label, (0..accounts).map(|_| Client::new(addr))))
    }

    /// A plain fleet: one seat per exchange on its own timeline, no
    /// retry layer, no recruitment.
    fn plain_fleet<E: Exchange + Send>(
        &self,
        label: &str,
        exchanges: impl Iterator<Item = E>,
    ) -> ParallelCrawler<E> {
        let seats = exchanges.map(|exchange| AccountSeat { exchange, clock: None }).collect();
        ParallelCrawler::builder(label)
            .observability(&self.obs)
            .build(seats)
            .expect("crawler setup")
    }

    /// An in-process crawler hardened for a chaotic platform: every
    /// account's exchange is wrapped in a [`ResilientExchange`]
    /// (deadlines, classification, jittered backoff) sharing the
    /// platform's virtual clock and one retry-stats block, and the
    /// crawler recruits replacement accounts on suspension (the paper's
    /// 2→4→8 escalation). Fully deterministic for a fixed `seed`.
    pub fn resilient_crawler(&self, accounts: usize, label: &str, seed: u64) -> Box<dyn OsnAccess> {
        let transport = self.direct_transport();
        Box::new(self.fleet(accounts, label, seed, 8, Timeline::Platform, transport, |b| b).0)
    }

    /// [`Lab::resilient_crawler`] with caller-specified politeness —
    /// the crawl-duration axis of the freshness experiment: slower
    /// pacing means more virtual time elapses mid-crawl, so a live
    /// world drifts further from what the crawl has already recorded.
    pub fn paced_crawler(
        &self,
        accounts: usize,
        label: &str,
        seed: u64,
        politeness: Politeness,
    ) -> Box<dyn OsnAccess> {
        let transport = self.direct_transport();
        let tune = |b: ParallelCrawlerBuilder<_>| b.politeness(politeness);
        Box::new(self.fleet(accounts, label, seed, 8, Timeline::Platform, transport, tune).0)
    }

    /// The arms-race attacker: [`Lab::resilient_crawler`] with a deeper
    /// recruitment bench (the sybil answer to suspensions is more
    /// sybils — cap 64 instead of 8) and, optionally, the adaptive
    /// evasion strategy (seeded politeness jitter, account warm-up,
    /// decoy mimicry). With `adaptive = None` the request stream is
    /// identical to [`Lab::resilient_crawler`]'s, so an
    /// [`hsp_platform::DetectorStrength::Off`] platform reproduces the
    /// baseline attack bit-for-bit.
    pub fn arms_race_crawler(
        &self,
        accounts: usize,
        label: &str,
        seed: u64,
        adaptive: Option<AdaptiveStrategy>,
    ) -> Box<dyn OsnAccess> {
        let transport = self.direct_transport();
        let tune = |b: ParallelCrawlerBuilder<_>| match adaptive {
            Some(strategy) => b.adaptive(strategy),
            None => b,
        };
        Box::new(self.fleet(accounts, label, seed, 64, Timeline::Platform, transport, tune).0)
    }

    /// [`Lab::resilient_crawler`] over real loopback TCP (requires
    /// [`Lab::serve`] / [`Lab::serve_hardened`]) with a deterministic
    /// [`ChaosTransport`] spliced *beneath* the retry layer: every
    /// account's wire is independently hostile (seeded per account from
    /// `plan`), on top of a real overloadable server. All injections
    /// fold into one shared [`ChaosStats`] audit block, returned with
    /// the shared [`RetryStats`] so a soak can reconcile what the
    /// transport destroyed against what the retry layer absorbed.
    #[allow(clippy::type_complexity)]
    pub fn tcp_chaos_crawler(
        &self,
        accounts: usize,
        label: &str,
        seed: u64,
        plan: &ChaosPlan,
    ) -> (
        ParallelCrawler<ResilientExchange<ChaosTransport<Client>>>,
        Arc<ChaosStats>,
        Arc<RetryStats>,
    ) {
        let addr = self.server.as_ref().expect("call serve() before tcp_chaos_crawler()").addr();
        let chaos_stats = Arc::new(ChaosStats::default());
        let chaotic = {
            let plan = plan.clone();
            let clock = Arc::clone(&self.platform.clock);
            let chaos_stats = Arc::clone(&chaos_stats);
            let tracer = Arc::clone(self.obs.tracer());
            move |i: u64| {
                ChaosTransport::with_stats(
                    Client::new(addr),
                    plan.with_seed(plan.seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                    Arc::clone(&clock),
                    Arc::clone(&chaos_stats),
                )
                .with_tracer(Arc::clone(&tracer))
            }
        };
        let (crawler, retry_stats) =
            self.fleet(accounts, label, seed, 8, Timeline::Platform, chaotic, |b| b);
        (crawler, chaos_stats, retry_stats)
    }

    /// A fresh in-process exchange per seat.
    fn direct_transport(&self) -> impl Fn(u64) -> DirectExchange + 'static {
        let handler = self.handler.clone();
        move |_| DirectExchange::new(handler.clone())
    }

    /// The resilient fleet behind every resilient crawler above: seat
    /// `i` runs `transport(i)` under a [`ResilientExchange`] seeded
    /// `seed ^ i`, recruits continue at `accounts + 1` (up to
    /// `max_accounts`), and every seat shares one [`RetryStats`] block,
    /// returned alongside. `timeline` picks the seats' clocks and the
    /// worker count; `tune` sets the caller's remaining builder knobs.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn fleet<T: Exchange + Send + 'static>(
        &self,
        accounts: usize,
        label: &str,
        seed: u64,
        max_accounts: usize,
        timeline: Timeline,
        transport: impl Fn(u64) -> T + 'static,
        tune: impl FnOnce(
            ParallelCrawlerBuilder<ResilientExchange<T>>,
        ) -> ParallelCrawlerBuilder<ResilientExchange<T>>,
    ) -> (ParallelCrawler<ResilientExchange<T>>, Arc<RetryStats>) {
        let (platform_clock, workers) = match timeline {
            Timeline::Platform => (Some(Arc::clone(&self.platform.clock)), 1),
            Timeline::PerSeat { workers } => (None, workers),
        };
        let stats = Arc::new(RetryStats::default());
        let seat = {
            let stats = Arc::clone(&stats);
            let tracer = Arc::clone(self.obs.tracer());
            move |i: u64| {
                let clock = platform_clock.clone().unwrap_or_else(VirtualClock::shared);
                AccountSeat {
                    exchange: ResilientExchange::with_stats(
                        transport(i),
                        RetryPolicy::seeded(seed ^ i),
                        Arc::clone(&clock),
                        Arc::clone(&stats),
                    )
                    .with_tracer(Arc::clone(&tracer)),
                    clock: Some(clock),
                }
            }
        };
        let seats: Vec<_> = (0..accounts as u64).map(&seat).collect();
        let mut next = accounts as u64;
        let factory = move || {
            next += 1;
            seat(next)
        };
        let builder = ParallelCrawler::builder(label)
            .workers(workers)
            .observability(&self.obs)
            .retry_stats(Arc::clone(&stats))
            .recruit_with(factory, max_accounts);
        let crawler = tune(builder).build(seats).expect("crawler setup");
        (crawler, stats)
    }

    /// The parallel attack crawler: the same resilient per-account
    /// transport as [`Lab::resilient_crawler`], driven with `workers`
    /// OS threads. Every account seat carries its *own* virtual clock
    /// (backoff/deadline time is per-account state, so one account's
    /// retries never shift another's timeline), and recruitment stays
    /// available for suspension failover. Results are bit-identical at
    /// any `workers` value; only wall-clock changes.
    pub fn parallel_crawler(
        &self,
        accounts: usize,
        workers: usize,
        label: &str,
        seed: u64,
    ) -> ParallelCrawler<ResilientExchange<DirectExchange>> {
        let transport = self.direct_transport();
        self.fleet(accounts, label, seed, 8, Timeline::PerSeat { workers }, transport, |b| b).0
    }

    /// A crawler honouring `tcp` (serving lazily on first use).
    pub fn crawler_mode(&mut self, accounts: usize, label: &str, tcp: bool) -> Box<dyn OsnAccess> {
        if tcp {
            if self.server.is_none() {
                self.serve().expect("bind loopback server");
            }
            self.tcp_crawler(accounts, label)
        } else {
            self.crawler(accounts, label)
        }
    }

    /// The platform handler (sibling harnesses build custom transports).
    pub(crate) fn handler(&self) -> Arc<dyn Handler> {
        self.handler.clone()
    }

    /// The attacker's configuration for the target school.
    pub fn attack_config(&self) -> AttackConfig {
        AttackConfig::new(
            self.scenario.school,
            self.scenario.network.senior_class_year(),
            self.scenario.config.public_enrollment_estimate,
        )
    }

    /// Ground truth for scoring.
    pub fn ground_truth(&self) -> GroundTruth {
        GroundTruth::from_scenario(&self.scenario)
    }

    /// The paper's per-school account counts: 2 for HS1, 4 for the
    /// larger schools.
    pub fn paper_account_count(&self) -> usize {
        if self.scenario.config.school_size <= 500 {
            2
        } else {
            4
        }
    }
}

/// A basic + enhanced attack run with its artifacts.
pub struct AttackRun {
    pub config: AttackConfig,
    pub discovery: Discovery,
    pub enhanced: Enhanced,
    pub effort_basic: hsp_crawler::Effort,
    pub effort_total: hsp_crawler::Effort,
    pub access: Box<dyn OsnAccess>,
}

/// Run basic then enhanced(+filtering) with the paper's parameters.
pub fn full_attack(lab: &mut Lab, tcp: bool) -> AttackRun {
    let accounts = lab.paper_account_count();
    let access = lab.crawler_mode(accounts, "atk", tcp);
    full_attack_with(lab, access)
}

/// [`full_attack`] over a caller-supplied access layer (e.g. a
/// [`Lab::resilient_crawler`] for chaos runs).
pub fn full_attack_with(lab: &Lab, mut access: Box<dyn OsnAccess>) -> AttackRun {
    let config = lab.attack_config();
    let discovery = {
        let _span = phase_span(&lab.obs, "crawl");
        run_basic(access.as_mut(), &config).expect("basic methodology")
    };
    let effort_basic = access.effort();
    let t = config.school_size_estimate as usize;
    let enhanced = {
        let _span = phase_span(&lab.obs, "infer");
        run_enhanced(
            access.as_mut(),
            &discovery,
            &EnhanceOptions {
                t,
                filtering: true,
                enhance: true,
                school_city: lab.scenario.home_city,
            },
        )
        .expect("enhanced methodology")
    };
    let effort_total = access.effort();
    AttackRun { config, discovery, enhanced, effort_basic, effort_total, access }
}

/// Evaluate a guessed set for one threshold.
pub fn eval_at(
    t: usize,
    guessed: &[hsp_graph::UserId],
    inferred: impl Fn(hsp_graph::UserId) -> Option<i32>,
    truth: &GroundTruth,
) -> EvalPoint {
    evaluate(t, guessed, inferred, truth)
}

/// [`eval_at`] with the "evaluate" phase recorded on `reg`.
pub fn eval_at_observed(
    reg: &Registry,
    t: usize,
    guessed: &[hsp_graph::UserId],
    inferred: impl Fn(hsp_graph::UserId) -> Option<i32>,
    truth: &GroundTruth,
) -> EvalPoint {
    let _span = phase_span(reg, "evaluate");
    evaluate(t, guessed, inferred, truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_builds_and_runs_tiny_attack() {
        let mut lab = Lab::facebook(&ScenarioConfig::tiny());
        let run = full_attack(&mut lab, false);
        assert!(!run.discovery.core.is_empty());
        assert!(run.effort_total.total() > run.effort_basic.total());
        let truth = lab.ground_truth();
        let t = run.config.school_size_estimate as usize;
        let point = eval_at(
            t,
            &run.enhanced.guessed_students(t),
            |u| run.enhanced.inferred_year(u, &run.config),
            &truth,
        );
        assert!(point.found > 0);
    }

    #[test]
    fn tcp_and_direct_crawlers_agree_on_seeds() {
        let mut lab = Lab::facebook(&ScenarioConfig::tiny());
        let school = lab.scenario.school;
        let mut direct = lab.crawler(2, "d");
        let direct_seeds = direct.collect_seeds(school).unwrap();
        lab.serve().unwrap();
        let mut tcp = lab.tcp_crawler(2, "t");
        let tcp_seeds = tcp.collect_seeds(school).unwrap();
        // Account-keyed sampling depends on account *index*, which both
        // crawlers share (fresh platform sessions), so the seed sets —
        // after the union across two accounts — must agree... they use
        // different account names but the same indices.
        assert_eq!(direct_seeds, tcp_seeds);
    }
}
