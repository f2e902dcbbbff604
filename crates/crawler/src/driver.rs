//! The crawler facade: multiple logged-in fake accounts, request
//! accounting, politeness pacing, caching — and the survival machinery
//! that made the paper's crawl feasible against a hostile platform:
//! truncation re-fetches, re-login on session loss, per-endpoint
//! circuit breakers, multi-account failover on suspension (the paper's
//! 2→4→8 escalation), and checkpoint/resume.
//!
//! [`Crawler`] is generic over [`hsp_http::Exchange`], so the same
//! attack code runs over real loopback TCP ([`hsp_http::Client`]) or
//! in-process ([`hsp_http::DirectExchange`]) — and, wrapped in
//! [`hsp_http::ResilientExchange`], survives injected 429s, 5xxs and
//! connection resets transparently. Everything the resilient layer
//! can't fix (suspension, session expiry, truncated HTML) is handled
//! here.

use crate::effort::{Effort, Endpoint};
use crate::scrape::{parse_listing, parse_listing_stamped, parse_profile, ScrapedProfile};
use crate::snapshot::CrawlSnapshot;
use hsp_graph::{SchoolId, UserId};
use hsp_http::resilient::{
    captcha_delay_ms, is_shed, refusal_provenance, retryable_transport_error, RetryStats,
    H_ACCOUNT_SUSPENDED, H_TRACE_ID, H_VIRTUAL_NOW, REFUSAL_SOURCES,
};
use hsp_http::{Exchange, HttpError, Request, Response, Status};
use hsp_obs::trace::{fnv1a_chain, SpanRecord, FNV_OFFSET, TRACE_SEED};
use hsp_obs::{Counter, FlightRecorder, Registry, TraceCtx, VirtualClock};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Data-access interface the profiling methodology (hsp-core) consumes.
/// The real implementation is [`Crawler`]; tests may substitute stubs.
pub trait OsnAccess {
    /// Collect seeds for `school` using every account (paper §4.1 step 1).
    fn collect_seeds(&mut self, school: SchoolId) -> Result<Vec<UserId>, CrawlError>;

    /// Fetch (or return cached) public profile of `uid`.
    fn profile(&mut self, uid: UserId) -> Result<ScrapedProfile, CrawlError>;

    /// Fetch the full friend list of `uid`, paging through it; `None`
    /// when the list is not visible to strangers.
    fn friends(&mut self, uid: UserId) -> Result<Option<Vec<UserId>>, CrawlError>;

    /// Accumulated measurement effort.
    fn effort(&self) -> Effort;

    /// Users whose friend list came back *partial* (the crawl degraded
    /// gracefully instead of failing). Default: none.
    fn incomplete_friends(&self) -> Vec<UserId> {
        Vec::new()
    }

    /// Users found tombstoned (deactivated or graduated away) while the
    /// crawl was running — the platform served a marker page and the
    /// crawl degraded to a Completeness disclosure instead of erroring.
    /// Default: none (frozen platforms never tombstone).
    fn tombstoned_users(&self) -> Vec<UserId> {
        Vec::new()
    }

    /// Attempt to send a direct message (the §2 spear-phishing channel).
    /// Returns whether the platform accepted delivery. Default: not
    /// supported (stub accessors used in unit tests).
    fn send_message(&mut self, uid: UserId, body: &str) -> Result<bool, CrawlError> {
        let _ = (uid, body);
        Ok(false)
    }

    /// Fetch a circles page-set (Google+, Appendix A): `incoming = false`
    /// for "in your circles", `true` for "have you in circles". `None`
    /// when not visible or the platform has no circles. Default: no
    /// circles.
    fn circles(&mut self, uid: UserId, incoming: bool) -> Result<Option<Vec<UserId>>, CrawlError> {
        let _ = (uid, incoming);
        Ok(None)
    }

    /// Hint that these users' profiles are about to be requested.
    /// Parallel implementations fetch the batch concurrently and commit
    /// it to the cache in canonical (UserId-sorted) order; the default
    /// (sequential accessors, test stubs) is a no-op — callers always
    /// follow up with per-user [`OsnAccess::profile`] calls.
    fn prefetch_profiles(&mut self, uids: &[UserId]) -> Result<(), CrawlError> {
        let _ = uids;
        Ok(())
    }

    /// Like [`OsnAccess::prefetch_profiles`], for friend lists.
    fn prefetch_friends(&mut self, uids: &[UserId]) -> Result<(), CrawlError> {
        let _ = uids;
        Ok(())
    }

    /// Export everything fetched so far as a [`CrawlSnapshot`].
    /// Default: empty snapshot (stub accessors don't checkpoint).
    fn checkpoint(&self) -> CrawlSnapshot {
        CrawlSnapshot::default()
    }

    /// Virtual wall-clock the crawl has consumed so far, in ms.
    /// Default: untracked.
    fn virtual_elapsed_ms(&self) -> u64 {
        0
    }
}

/// Crawl-level failures.
#[derive(Debug)]
pub enum CrawlError {
    Http(HttpError),
    /// The platform refused the request (suspension, auth loss, ...).
    Denied(Status),
    /// A page could not be interpreted.
    BadPage(&'static str),
}

impl std::fmt::Display for CrawlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrawlError::Http(e) => write!(f, "http: {e}"),
            CrawlError::Denied(s) => write!(f, "denied: {s}"),
            CrawlError::BadPage(w) => write!(f, "bad page: {w}"),
        }
    }
}

impl std::error::Error for CrawlError {}

impl From<HttpError> for CrawlError {
    fn from(e: HttpError) -> Self {
        CrawlError::Http(e)
    }
}

/// Politeness model: the paper's crawlers "implement\[ed\] sleeping
/// functions" (§3.2). We advance a virtual clock instead of really
/// sleeping, so experiments report the wall-clock a polite crawl would
/// take without paying it.
///
/// The spacing is *adaptive*, modeling the paper's stay-under-the-radar
/// pacing: when the platform pushes back — a shed 503 from the hardened
/// edge, or an edge-rate-limit 429 — the crawler doubles its spacing
/// (up to `max_widen_factor`×); after `narrow_after_successes` clean
/// fetches in a row it halves its way back toward the base rate.
#[derive(Clone, Copy, Debug)]
pub struct Politeness {
    /// Base virtual milliseconds between consecutive requests per account.
    pub sleep_ms_between_requests: u64,
    /// Cap on the adaptive widening multiplier (1 disables adaptation).
    pub max_widen_factor: u64,
    /// Clean fetches in a row before the spacing narrows one step.
    pub narrow_after_successes: u32,
}

impl Default for Politeness {
    fn default() -> Self {
        Politeness {
            sleep_ms_between_requests: 1_500,
            max_widen_factor: 8,
            narrow_after_successes: 16,
        }
    }
}

/// Counter-free splitmix64 (same mix the platform's seeded streams
/// use): `stream(seed, lane, n)` is a pure function, so the adaptive
/// schedule an account follows depends only on its own request order.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The adaptive attacker: evasion maneuvers against the platform's
/// behavioral sybil detector (`hsp-defense`). Everything is drawn from
/// a seeded per-account lane RNG, so an adaptive crawl is exactly as
/// deterministic as a naive one.
///
/// - **politeness randomization**: each inter-request sleep is scaled
///   by a uniform per-mille factor in `[jitter_min_pm, jitter_max_pm]`,
///   killing the metronomic-gap signature;
/// - **account warm-up**: each account's first `warmup_requests`
///   requests are slowed by `warmup_factor`× (new accounts "age" before
///   crawling at speed), keeping young accounts under the detector's
///   evidence threshold longer;
/// - **traffic mimicry**: after every `decoy_every` productive profile
///   fetches, one already-scraped profile is re-fetched (humans revisit
///   friends), deflating the traversal fan-out feature. Decoys are
///   billed to `Effort::decoy_requests`, never to scraping progress.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveStrategy {
    /// Seed of the evasion RNG (per-account lanes are derived from it).
    pub seed: u64,
    /// Politeness jitter lower bound, per-mille of the base sleep.
    pub jitter_min_pm: u64,
    /// Politeness jitter upper bound, per-mille of the base sleep.
    pub jitter_max_pm: u64,
    /// Requests per account crawled at warm-up pace before full speed.
    pub warmup_requests: u64,
    /// Politeness multiplier during warm-up.
    pub warmup_factor: u64,
    /// One decoy re-fetch per this many productive profile fetches
    /// (0 disables mimicry).
    pub decoy_every: u64,
}

impl Default for AdaptiveStrategy {
    fn default() -> Self {
        AdaptiveStrategy {
            seed: 0xADA_2013,
            jitter_min_pm: 600,
            jitter_max_pm: 2_600,
            warmup_requests: 12,
            warmup_factor: 3,
            decoy_every: 3,
        }
    }
}

impl AdaptiveStrategy {
    /// Default maneuvers with an explicit seed.
    pub fn seeded(seed: u64) -> AdaptiveStrategy {
        AdaptiveStrategy { seed, ..AdaptiveStrategy::default() }
    }

    /// Sleep multiplier (per-mille) for account `lane`'s `n`-th request.
    fn jitter_pm(&self, lane: u64, n: u64) -> u64 {
        let draw =
            splitmix64(self.seed ^ splitmix64(1 + lane) ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let span = self.jitter_max_pm.saturating_sub(self.jitter_min_pm) + 1;
        self.jitter_min_pm + draw % span
    }
}

/// Per-endpoint circuit breaker shape.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive endpoint failures that open the breaker.
    pub failure_threshold: u32,
    /// Virtual cooldown before the half-open probe once opened.
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 4, cooldown_ms: 30_000 }
    }
}

/// Consecutive-failure tracker for one endpoint. An "open" breaker
/// simply pays the cooldown in virtual time and goes half-open; the
/// next request is the probe.
///
/// Sharing semantics under concurrency: breakers are **per account**
/// (each [`crate::scheduler::ParallelCrawler`] account owns one breaker
/// per endpoint), and work is stolen at account granularity, so a
/// breaker's state is only ever *advanced* by the single thread
/// currently driving its account. The fields are atomics anyway —
/// `Sync` by construction — so the sequential [`Crawler`] and the
/// parallel scheduler share one implementation, and state can be
/// observed (tests, metrics) while an account is being driven without
/// torn reads.
#[derive(Default)]
pub(crate) struct Breaker {
    consecutive: std::sync::atomic::AtomicU32,
    open: std::sync::atomic::AtomicBool,
}

impl Breaker {
    /// Record one failure; `true` when this failure *opened* the
    /// breaker (the caller pays the cooldown and counts the transition).
    pub(crate) fn record_failure(&self, threshold: u32) -> bool {
        use std::sync::atomic::Ordering;
        let consecutive = self.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
        if consecutive >= threshold {
            self.consecutive.store(0, Ordering::Relaxed);
            self.open.store(true, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Record one success; `true` when it closed an open breaker.
    pub(crate) fn record_success(&self) -> bool {
        use std::sync::atomic::Ordering;
        self.consecutive.store(0, Ordering::Relaxed);
        self.open.swap(false, Ordering::Relaxed)
    }

    /// Observe the breaker state for a durable journal checkpoint.
    pub(crate) fn snapshot(&self) -> (u32, bool) {
        use std::sync::atomic::Ordering;
        (self.consecutive.load(Ordering::Relaxed), self.open.load(Ordering::Relaxed))
    }

    /// Rebuild a breaker from a journal checkpoint (crash resume).
    pub(crate) fn restore(consecutive: u32, open: bool) -> Breaker {
        Breaker {
            consecutive: std::sync::atomic::AtomicU32::new(consecutive),
            open: std::sync::atomic::AtomicBool::new(open),
        }
    }
}

/// One logged-in fake account.
struct AccountSession<E: Exchange> {
    exchange: E,
    username: String,
    password: String,
    /// Kicked out by the platform's anti-crawling rule; out of rotation.
    suspended: bool,
    /// Trace lane (see [`trace_lane`]); cached at enrollment.
    lane: u64,
}

/// Deterministic trace lane for an account: FNV-1a of its username.
/// Usernames are unique per account (including recruits) across both
/// the sequential crawler and the parallel scheduler, so lanes are
/// globally collision-stable and identical at any worker count.
pub(crate) fn trace_lane(username: &str) -> u64 {
    fnv1a_chain(FNV_OFFSET, username.as_bytes())
}

/// Record the crawl-side root span, named after its endpoint, for one
/// issued request when it is traced. `resp` is `None` when the
/// transport failed outright (the retry layer's budget included). The
/// outcome taxonomy mirrors the fetch loop's own branches so a trace
/// reads like the crawler's decision log.
pub(crate) fn record_root_span(
    trace: &Option<(Arc<FlightRecorder>, TraceCtx)>,
    endpoint: Endpoint,
    begin_ms: u64,
    end_ms: u64,
    resp: Option<&Response>,
) {
    let Some((tracer, ctx)) = trace else { return };
    let (status, outcome, provenance, captcha_ms) = match resp {
        None => (0, "transport", "", 0),
        Some(resp) => {
            let provenance = refusal_provenance(resp).unwrap_or("");
            let outcome = if resp.status.is_success() {
                "ok"
            } else if resp.status == Status::FORBIDDEN {
                "denied"
            } else if resp.status == Status::UNAUTHORIZED {
                "session-expired"
            } else if !provenance.is_empty() {
                "refused"
            } else {
                "error"
            };
            (resp.status.code(), outcome, provenance, captcha_delay_ms(resp).unwrap_or(0))
        }
    };
    tracer.record(SpanRecord {
        trace_id: ctx.trace_id,
        span_id: ctx.root_span(),
        parent_id: 0,
        lane: ctx.lane,
        ordinal: ctx.ordinal,
        name: endpoint.label().to_string(),
        begin_ms,
        end_ms,
        status,
        outcome: outcome.to_string(),
        provenance: provenance.to_string(),
        captcha_ms,
    });
}

/// Pre-resolved crawler metric handles (attacker-side accounting):
/// per-endpoint fetch counts, cache hit/miss tallies, retry/breaker/
/// failover telemetry, and the virtual politeness clock. Recording is
/// atomic adds only, so one instance is safely shared across the
/// parallel scheduler's worker threads. Per-endpoint handles are
/// indexed by `Endpoint as usize`.
pub(crate) struct CrawlerMetrics {
    pub(crate) fetch: [Arc<Counter>; 7],
    pub(crate) fetch_retry: Arc<Counter>,
    pub(crate) cache_profile_hits: Arc<Counter>,
    pub(crate) cache_profile_misses: Arc<Counter>,
    pub(crate) cache_friends_hits: Arc<Counter>,
    pub(crate) cache_friends_misses: Arc<Counter>,
    pub(crate) cache_circles_hits: Arc<Counter>,
    pub(crate) cache_circles_misses: Arc<Counter>,
    pub(crate) politeness_virtual_ms: Arc<Counter>,
    pub(crate) politeness_widened: Arc<Counter>,
    pub(crate) auth_retries: Arc<Counter>,
    pub(crate) breaker_open: [Arc<Counter>; 7],
    pub(crate) breaker_closed: [Arc<Counter>; 7],
    pub(crate) account_suspensions: Arc<Counter>,
    pub(crate) accounts_recruited: Arc<Counter>,
    pub(crate) partial_friend_lists: Arc<Counter>,
    /// CAPTCHA interstitials absorbed (count and virtual solve time).
    pub(crate) captcha_challenges: Arc<Counter>,
    pub(crate) captcha_virtual_ms: Arc<Counter>,
    /// Mimicry decoy fetches issued by the adaptive strategy.
    pub(crate) adapt_decoys: Arc<Counter>,
    /// Pages re-fetched because a live-world generation stamp went
    /// stale between the paired fetches (profile ↔ friend list, or
    /// across one friend-list pagination run).
    pub(crate) stale_refetches: Arc<Counter>,
    /// Tombstone pages absorbed (deactivated/graduated users degraded
    /// to a Completeness disclosure).
    pub(crate) tombstones: Arc<Counter>,
    /// Refusals by provenance (see [`REFUSAL_SOURCES`]): every refusal
    /// the crawl absorbs is attributed to exactly one limiter.
    pub(crate) refusals: HashMap<&'static str, Arc<Counter>>,
}

impl CrawlerMetrics {
    pub(crate) fn register(reg: &Registry) -> CrawlerMetrics {
        let fetch = |e: &str| reg.counter_with("crawler_fetch_total", &[("endpoint", e)]);
        let cache = |c: &str, r: &str| {
            reg.counter_with("crawler_cache_total", &[("cache", c), ("result", r)])
        };
        let breaker = |e: &str, to: &str| {
            reg.counter_with("crawler_breaker_transitions_total", &[("endpoint", e), ("to", to)])
        };
        CrawlerMetrics {
            fetch: Endpoint::ALL.map(|e| fetch(e.label())),
            fetch_retry: fetch("retry"),
            cache_profile_hits: cache("profile", "hit"),
            cache_profile_misses: cache("profile", "miss"),
            cache_friends_hits: cache("friends", "hit"),
            cache_friends_misses: cache("friends", "miss"),
            cache_circles_hits: cache("circles", "hit"),
            cache_circles_misses: cache("circles", "miss"),
            politeness_virtual_ms: reg.counter("crawler_politeness_virtual_ms"),
            politeness_widened: reg.counter("crawler_politeness_widened_total"),
            auth_retries: reg.counter("crawler_auth_retries_total"),
            breaker_open: Endpoint::ALL.map(|e| breaker(e.label(), "open")),
            breaker_closed: Endpoint::ALL.map(|e| breaker(e.label(), "closed")),
            account_suspensions: reg.counter("crawler_account_suspensions_total"),
            accounts_recruited: reg.counter("crawler_accounts_recruited_total"),
            partial_friend_lists: reg.counter("crawler_partial_friend_lists_total"),
            captcha_challenges: reg.counter("crawler_adapt_captcha_challenges_total"),
            captcha_virtual_ms: reg.counter("crawler_adapt_captcha_virtual_ms"),
            adapt_decoys: reg.counter("crawler_adapt_decoys_total"),
            stale_refetches: reg.counter("crawler_stale_refetch_total"),
            tombstones: reg.counter("crawler_tombstones_total"),
            refusals: REFUSAL_SOURCES
                .iter()
                .map(|&s| (s, reg.counter_with("crawler_refusals_total", &[("source", s)])))
                .collect(),
        }
    }

    pub(crate) fn refusal(&self, source: &'static str, n: u64) {
        if n > 0 {
            if let Some(c) = self.refusals.get(source) {
                c.add(n);
            }
        }
    }
}

/// Count one issued request against the endpoint's effort bucket and
/// fetch counter. Re-fetches (truncation, failover) count again —
/// that's the point: Table 3 stays honest under faults.
pub(crate) fn count_request(
    effort: &mut Effort,
    metrics: Option<&CrawlerMetrics>,
    endpoint: Endpoint,
) {
    *endpoint.bucket(effort) += 1;
    if let Some(m) = metrics {
        m.fetch[endpoint as usize].inc();
    }
}

/// Staged construction for a [`Crawler`] with the resilience knobs the
/// plain constructors don't expose (shared virtual clock, retry-stat
/// folding, account recruitment, breaker tuning).
pub struct CrawlerBuilder<E: Exchange> {
    label: String,
    politeness: Politeness,
    obs: Option<CrawlerMetrics>,
    tracer: Option<Arc<FlightRecorder>>,
    clock: Option<Arc<VirtualClock>>,
    retry_stats: Option<Arc<RetryStats>>,
    factory: Option<Box<dyn FnMut() -> E>>,
    max_accounts: usize,
    breaker: BreakerConfig,
    adaptive: Option<AdaptiveStrategy>,
}

impl<E: Exchange> CrawlerBuilder<E> {
    pub fn new(label: &str) -> CrawlerBuilder<E> {
        CrawlerBuilder {
            label: label.to_string(),
            politeness: Politeness::default(),
            obs: None,
            tracer: None,
            clock: None,
            retry_stats: None,
            factory: None,
            max_accounts: 8,
            breaker: BreakerConfig::default(),
            adaptive: None,
        }
    }

    pub fn politeness(mut self, politeness: Politeness) -> Self {
        self.politeness = politeness;
        self
    }

    /// Record attacker-side telemetry into `registry`. Also picks up
    /// the registry's flight recorder: when tracing is enabled there,
    /// every issued request carries an `x-trace-id` and records its
    /// crawl-side root span.
    pub fn observability(mut self, registry: &Registry) -> Self {
        self.obs = Some(CrawlerMetrics::register(registry));
        self.tracer = Some(Arc::clone(registry.tracer()));
        self
    }

    /// Advance this shared clock on politeness sleeps (the platform's
    /// windowed suspension rule reads the same timeline).
    pub fn clock(mut self, clock: Arc<VirtualClock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Fold transport-layer retries (from `ResilientExchange`s sharing
    /// this stats handle) into `Effort` and `crawler_fetch_total`.
    pub fn retry_stats(mut self, stats: Arc<RetryStats>) -> Self {
        self.retry_stats = Some(stats);
        self
    }

    /// Enable account failover: when an account is suspended, recruit
    /// replacements from `factory`, doubling the fleet (the paper's
    /// 2→4→8 escalation) up to `max_accounts` total.
    pub fn recruit_with(
        mut self,
        factory: impl FnMut() -> E + 'static,
        max_accounts: usize,
    ) -> Self {
        self.factory = Some(Box::new(factory));
        self.max_accounts = max_accounts;
        self
    }

    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Enable detector-evasion maneuvers (jittered pacing, account
    /// warm-up, decoy mimicry). See [`AdaptiveStrategy`].
    pub fn adaptive(mut self, strategy: AdaptiveStrategy) -> Self {
        self.adaptive = Some(strategy);
        self
    }

    /// Sign up + log in one fake account per exchange and return the
    /// ready crawler.
    pub fn build(self, exchanges: Vec<E>) -> Result<Crawler<E>, CrawlError> {
        Crawler::assemble(exchanges, self)
    }
}

/// The attacker's crawler.
pub struct Crawler<E: Exchange> {
    accounts: Vec<AccountSession<E>>,
    label: String,
    effort: Effort,
    politeness: Politeness,
    virtual_elapsed_ms: u64,
    clock: Option<Arc<VirtualClock>>,
    seeds_cache: HashMap<SchoolId, Vec<UserId>>,
    profile_cache: HashMap<UserId, ScrapedProfile>,
    friends_cache: HashMap<UserId, Option<Vec<UserId>>>,
    circles_cache: HashMap<(UserId, bool), Option<Vec<UserId>>>,
    /// Friend lists carried forward partially (degraded, not failed).
    incomplete: BTreeSet<UserId>,
    /// Users found tombstoned (deactivated/graduated mid-crawl); their
    /// pages degraded to a Completeness disclosure instead of erroring.
    tombstoned: BTreeSet<UserId>,
    /// Which account serves the next non-seed request (round-robin).
    rr: usize,
    /// Attacker-side telemetry; `None` when no registry was supplied.
    obs: Option<CrawlerMetrics>,
    /// Transport-retry counters shared with the `ResilientExchange`s.
    retry_stats: Option<Arc<RetryStats>>,
    retries_synced: u64,
    /// Shed 503s already folded into the adaptive pacing.
    sheds_synced: u64,
    /// Current politeness multiplier (adaptive, ≥ 1).
    widen_factor: u64,
    /// Clean fetches since the last widening/narrowing step.
    calm_streak: u32,
    /// Intentional application-level auth-POST retries issued (signup/
    /// login resent after a transport failure — safe because both are
    /// application-idempotent). The soak reconciles this against the
    /// chaos layer's POST-redelivery watchdog.
    auth_retries: u64,
    factory: Option<Box<dyn FnMut() -> E>>,
    recruited: usize,
    max_accounts: usize,
    breaker_cfg: BreakerConfig,
    breakers: HashMap<Endpoint, Breaker>,
    /// Detector-evasion maneuvers; `None` = the naive crawler.
    adaptive: Option<AdaptiveStrategy>,
    /// Per-account politeness-draw counters (the lane RNG cursor).
    account_draws: Vec<u64>,
    /// Already-scraped profiles available as decoy targets, in
    /// insertion order (NOT a hash map — decoy picks must be
    /// deterministic).
    decoy_pool: Vec<UserId>,
    decoy_cursor: usize,
    /// Productive profile fetches since the crawl began (decoy cadence).
    productive_profile_fetches: u64,
    /// Refusal-ledger cursors into the shared [`RetryStats`].
    edge_refusals_synced: u64,
    fault_refusals_synced: u64,
    throttle_refusals_synced: u64,
    /// Flight recorder shared with the registry; `None` or disabled
    /// means no per-request trace context is minted.
    tracer: Option<Arc<FlightRecorder>>,
    /// Next request ordinal per trace lane.
    trace_ordinals: HashMap<u64, u64>,
}

impl<E: Exchange> Crawler<E> {
    /// Create the crawler: signs up and logs in one fake account per
    /// exchange. `label` distinguishes account batches (e.g. the paper's
    /// second seed crawl for HS2/HS3 evaluation).
    pub fn new(exchanges: Vec<E>, label: &str) -> Result<Self, CrawlError> {
        Self::with_politeness(exchanges, label, Politeness::default())
    }

    pub fn with_politeness(
        exchanges: Vec<E>,
        label: &str,
        politeness: Politeness,
    ) -> Result<Self, CrawlError> {
        CrawlerBuilder::new(label).politeness(politeness).build(exchanges)
    }

    /// Create the crawler with attacker-side telemetry recorded into
    /// `registry` (typically the same registry the platform and server
    /// use, so one scrape shows both sides of the experiment).
    pub fn with_observability(
        exchanges: Vec<E>,
        label: &str,
        politeness: Politeness,
        registry: &Registry,
    ) -> Result<Self, CrawlError> {
        CrawlerBuilder::new(label).politeness(politeness).observability(registry).build(exchanges)
    }

    /// Staged construction with the resilience knobs.
    pub fn builder(label: &str) -> CrawlerBuilder<E> {
        CrawlerBuilder::new(label)
    }

    fn assemble(exchanges: Vec<E>, builder: CrawlerBuilder<E>) -> Result<Self, CrawlError> {
        let mut crawler = Crawler {
            accounts: Vec::new(),
            label: builder.label,
            effort: Effort::default(),
            politeness: builder.politeness,
            virtual_elapsed_ms: 0,
            clock: builder.clock,
            seeds_cache: HashMap::new(),
            profile_cache: HashMap::new(),
            friends_cache: HashMap::new(),
            circles_cache: HashMap::new(),
            incomplete: BTreeSet::new(),
            tombstoned: BTreeSet::new(),
            rr: 0,
            obs: builder.obs,
            retry_stats: builder.retry_stats,
            retries_synced: 0,
            sheds_synced: 0,
            widen_factor: 1,
            calm_streak: 0,
            auth_retries: 0,
            factory: builder.factory,
            recruited: 0,
            max_accounts: builder.max_accounts,
            breaker_cfg: builder.breaker,
            breakers: HashMap::new(),
            adaptive: builder.adaptive,
            account_draws: Vec::new(),
            decoy_pool: Vec::new(),
            decoy_cursor: 0,
            productive_profile_fetches: 0,
            edge_refusals_synced: 0,
            fault_refusals_synced: 0,
            throttle_refusals_synced: 0,
            tracer: builder.tracer,
            trace_ordinals: HashMap::new(),
        };
        for (i, exchange) in exchanges.into_iter().enumerate() {
            let username = format!("{}-{i}", crawler.label);
            crawler.enroll(exchange, username)?;
        }
        if crawler.accounts.is_empty() {
            return Err(CrawlError::BadPage("no accounts"));
        }
        Ok(crawler)
    }

    /// Sign up (tolerating "already registered") and log in one fake
    /// account, adding it to the rotation.
    fn enroll(&mut self, mut exchange: E, username: String) -> Result<(), CrawlError> {
        let password = "hunter2";
        let lane = trace_lane(&username);
        let mut signup = Request::post_form("/signup", &[("user", &username), ("pass", password)]);
        let trace = self.next_trace_ctx(lane);
        if let Some((_, ctx)) = &trace {
            signup = signup.header(H_TRACE_ID, ctx.header_value());
        }
        let begin_ms = self.trace_now_ms();
        let (resp, retries) = auth_post(&mut exchange, &signup)?;
        record_root_span(&trace, Endpoint::Auth, begin_ms, self.trace_now_ms(), Some(&resp));
        self.count_auth_attempts(1 + retries);
        // An already-registered fake account is fine — reuse it by
        // logging in (the paper's attacker kept accounts across crawls).
        // This also covers a signup whose response was lost to transport
        // chaos after the server processed it: the retry sees 400
        // "already registered" and proceeds to log in.
        if !resp.status.is_success() && resp.status != Status::BAD_REQUEST {
            return Err(CrawlError::Denied(resp.status));
        }
        let mut login = Request::post_form("/login", &[("user", &username), ("pass", password)]);
        let trace = self.next_trace_ctx(lane);
        if let Some((_, ctx)) = &trace {
            login = login.header(H_TRACE_ID, ctx.header_value());
        }
        let begin_ms = self.trace_now_ms();
        let (resp, retries) = auth_post(&mut exchange, &login)?;
        record_root_span(&trace, Endpoint::Auth, begin_ms, self.trace_now_ms(), Some(&resp));
        self.count_auth_attempts(1 + retries);
        if !resp.status.is_success() {
            return Err(CrawlError::Denied(resp.status));
        }
        self.accounts.push(AccountSession {
            exchange,
            username,
            password: password.to_string(),
            suspended: false,
            lane,
        });
        self.account_draws.push(0);
        Ok(())
    }

    /// Mint the next trace context for `lane`, or `None` when tracing
    /// is off (the recorder check keeps the disabled path to one atomic
    /// load plus a map probe).
    fn next_trace_ctx(&mut self, lane: u64) -> Option<(Arc<FlightRecorder>, TraceCtx)> {
        let tracer = self.tracer.as_ref()?;
        if !tracer.is_enabled() {
            return None;
        }
        let ord = self.trace_ordinals.entry(lane).or_insert(0);
        let ctx = TraceCtx::derive(TRACE_SEED, lane, *ord);
        *ord += 1;
        Some((Arc::clone(tracer), ctx))
    }

    /// Current virtual time for span stamps (shared clock when present,
    /// otherwise the crawler's private elapsed counter).
    fn trace_now_ms(&self) -> u64 {
        match &self.clock {
            Some(clock) => clock.now_ms(),
            None => self.virtual_elapsed_ms,
        }
    }

    /// Number of fake accounts in use (live + suspended).
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// Accounts still in rotation.
    pub fn live_account_count(&self) -> usize {
        self.accounts.iter().filter(|a| !a.suspended).count()
    }

    /// Account usernames (tests).
    pub fn usernames(&self) -> Vec<&str> {
        self.accounts.iter().map(|a| a.username.as_str()).collect()
    }

    /// Virtual time a polite crawl of this effort would have taken.
    /// With a shared clock this includes backoff and breaker cooldowns;
    /// without one, just the politeness sleeps.
    pub fn virtual_elapsed_ms(&self) -> u64 {
        match &self.clock {
            Some(clock) => clock.now_ms(),
            None => self.virtual_elapsed_ms,
        }
    }

    /// Users whose friend lists are partial (degraded fetches).
    pub fn incomplete_friend_lists(&self) -> Vec<UserId> {
        self.incomplete.iter().copied().collect()
    }

    /// Users served tombstone pages (live-world deactivations and
    /// graduation rollovers), in stable order.
    pub fn tombstoned_user_list(&self) -> Vec<UserId> {
        self.tombstoned.iter().copied().collect()
    }

    // ---- checkpoint / resume ----------------------------------------------

    /// Export everything fetched so far into a [`CrawlSnapshot`]: seeds,
    /// profiles, and *complete* friend lists (partial lists are dropped
    /// so a resumed crawl re-fetches them properly). `effort` records
    /// what this crawl paid up to the checkpoint.
    pub fn checkpoint(&self) -> CrawlSnapshot {
        let mut snap = CrawlSnapshot::default();
        for (&school, seeds) in &self.seeds_cache {
            snap.seeds.insert(school, seeds.clone());
        }
        for (&uid, profile) in &self.profile_cache {
            snap.profiles.insert(uid, profile.clone());
        }
        for (&uid, friends) in &self.friends_cache {
            if !self.incomplete.contains(&uid) {
                snap.friends.insert(uid, friends.clone());
            }
        }
        snap.effort = self.effort();
        snap
    }

    /// Warm the caches from a checkpoint: anything captured there is
    /// never re-fetched. The resumed crawler's own `Effort` starts from
    /// its live total — the snapshot's `effort` is what the killed
    /// crawl had already paid, so total cost = `snap.effort + effort()`.
    pub fn restore(&mut self, snap: &CrawlSnapshot) {
        for (&school, seeds) in &snap.seeds {
            self.seeds_cache.insert(school, seeds.clone());
        }
        for (&uid, profile) in &snap.profiles {
            self.profile_cache.insert(uid, profile.clone());
        }
        for (&uid, friends) in &snap.friends {
            self.friends_cache.insert(uid, friends.clone());
            self.incomplete.remove(&uid);
        }
    }

    // ---- accounting helpers -----------------------------------------------

    /// Fold transport-layer retries accumulated since the last sync
    /// into `Effort` and `crawler_fetch_total{endpoint="retry"}`, and
    /// attribute any new 429s to their provenance ledger
    /// (`crawler_refusals_total{source=edge|fault|throttle}`).
    fn sync_retries(&mut self) {
        let Some(stats) = &self.retry_stats else { return };
        let now = stats.retries();
        let delta = now.saturating_sub(self.retries_synced);
        if delta > 0 {
            self.retries_synced = now;
            self.effort.retry_requests += delta;
            if let Some(m) = &self.obs {
                m.fetch_retry.add(delta);
            }
        }
        if let Some(m) = &self.obs {
            let edge = stats.edge_limited();
            m.refusal("edge", edge.saturating_sub(self.edge_refusals_synced));
            self.edge_refusals_synced = edge;
            let fault = stats.fault_rate_limited();
            m.refusal("fault", fault.saturating_sub(self.fault_refusals_synced));
            self.fault_refusals_synced = fault;
            let throttle = stats.throttled();
            m.refusal("throttle", throttle.saturating_sub(self.throttle_refusals_synced));
            self.throttle_refusals_synced = throttle;
        }
    }

    /// Count `attempts` issued auth requests (first try + app-level
    /// retries), fold transport retries, and record the intentional
    /// auth retries for the soak's POST-redelivery reconciliation.
    fn count_auth_attempts(&mut self, attempts: u64) {
        for _ in 0..attempts {
            count_request(&mut self.effort, self.obs.as_ref(), Endpoint::Auth);
        }
        self.sync_retries();
        let retries = attempts.saturating_sub(1);
        if retries > 0 {
            self.auth_retries += retries;
            if let Some(m) = &self.obs {
                m.auth_retries.add(retries);
            }
        }
    }

    /// Intentional application-level auth-POST retries issued so far.
    pub fn auth_retries(&self) -> u64 {
        self.auth_retries
    }

    /// Bill one page re-fetched over a staleness conflict. The GET
    /// itself is already in the endpoint's bucket (`count_request`);
    /// this is the annotation ledger plus the shared [`RetryStats`]
    /// slot the trace audit reconciles against.
    fn note_stale_refetch(&mut self, n: u64) {
        self.effort.stale_refetch_requests += n;
        if let Some(m) = &self.obs {
            m.stale_refetches.add(n);
        }
        if let Some(stats) = &self.retry_stats {
            stats.stale_refetches.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Record a tombstone page (once per user).
    fn note_tombstone(&mut self, uid: UserId) {
        if self.tombstoned.insert(uid) {
            self.effort.tombstones += 1;
            if let Some(m) = &self.obs {
                m.tombstones.inc();
            }
            if let Some(stats) = &self.retry_stats {
                stats.tombstones.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }

    /// Sleep before `account`'s next request. The naive crawler sleeps
    /// a metronomic `base × widen_factor`; the adaptive one jitters the
    /// sleep from the account's lane RNG and triples it during the
    /// account's warm-up phase.
    fn advance_politeness(&mut self, account: usize) {
        let base = self.politeness.sleep_ms_between_requests * self.widen_factor;
        let ms = match self.adaptive {
            None => base,
            Some(s) => {
                let n = self.account_draws[account];
                self.account_draws[account] = n + 1;
                let mut ms = base * s.jitter_pm(account as u64, n) / 1_000;
                if n < s.warmup_requests {
                    ms *= s.warmup_factor.max(1);
                }
                ms.max(1)
            }
        };
        self.virtual_elapsed_ms += ms;
        if let Some(clock) = &self.clock {
            clock.advance_ms(ms);
        }
        if let Some(m) = &self.obs {
            m.politeness_virtual_ms.add(ms);
        }
    }

    /// Absorb a CAPTCHA interstitial riding on a served response: pay
    /// the solve cost in virtual time and bill it as its own effort
    /// line item (never folded into retries).
    fn absorb_captcha(&mut self, resp: &Response) {
        let Some(ms) = hsp_http::resilient::captcha_delay_ms(resp) else { return };
        self.effort.captcha_challenges += 1;
        self.effort.captcha_virtual_ms += ms;
        self.virtual_elapsed_ms += ms;
        if let Some(clock) = &self.clock {
            clock.advance_ms(ms);
        }
        if let Some(m) = &self.obs {
            m.captcha_challenges.inc();
            m.captcha_virtual_ms.add(ms);
        }
    }

    /// Current adaptive politeness multiplier (≥ 1).
    pub fn politeness_widen_factor(&self) -> u64 {
        self.widen_factor
    }

    /// The platform pushed back (shed 503 / edge 429): double the
    /// spacing, capped, the way the paper's crawlers slowed down to
    /// stay under the radar.
    fn widen_pacing(&mut self) {
        self.calm_streak = 0;
        let cap = self.politeness.max_widen_factor.max(1);
        if self.widen_factor < cap {
            self.widen_factor = (self.widen_factor * 2).min(cap);
            if let Some(m) = &self.obs {
                m.politeness_widened.inc();
            }
        }
    }

    /// A clean fetch: after enough calm in a row, narrow one step back
    /// toward the base rate.
    fn note_fetch_success(&mut self) {
        if self.widen_factor <= 1 {
            return;
        }
        self.calm_streak += 1;
        if self.calm_streak >= self.politeness.narrow_after_successes {
            self.calm_streak = 0;
            self.widen_factor /= 2;
        }
    }

    /// Fold shed 503s the transport retry layer absorbed (visible only
    /// through the shared [`RetryStats`]) into the adaptive pacing.
    fn observe_shed_pressure(&mut self) {
        let Some(stats) = &self.retry_stats else { return };
        let now = stats.sheds();
        if now > self.sheds_synced {
            if let Some(m) = &self.obs {
                m.refusal("shed", now - self.sheds_synced);
            }
            self.sheds_synced = now;
            self.widen_pacing();
        }
    }

    // ---- circuit breakers -------------------------------------------------

    fn breaker_failure(&mut self, endpoint: Endpoint) {
        let threshold = self.breaker_cfg.failure_threshold;
        let cooldown = self.breaker_cfg.cooldown_ms;
        let breaker = self.breakers.entry(endpoint).or_default();
        if breaker.record_failure(threshold) {
            // Open: pay the cooldown in virtual time, then half-open —
            // the next request through is the probe.
            if let Some(m) = &self.obs {
                m.breaker_open[endpoint as usize].inc();
            }
            self.virtual_elapsed_ms += cooldown;
            if let Some(clock) = &self.clock {
                clock.advance_ms(cooldown);
            }
        }
    }

    fn breaker_success(&mut self, endpoint: Endpoint) {
        let breaker = self.breakers.entry(endpoint).or_default();
        if breaker.record_success() {
            if let Some(m) = &self.obs {
                m.breaker_closed[endpoint as usize].inc();
            }
        }
    }

    // ---- account rotation / failover --------------------------------------

    fn next_live_account(&mut self) -> Result<usize, CrawlError> {
        let n = self.accounts.len();
        for _ in 0..n {
            let a = self.rr % n;
            self.rr += 1;
            if !self.accounts[a].suspended {
                return Ok(a);
            }
        }
        // Everyone is suspended; a recruiting crawler can still recover.
        self.recruit()?;
        match self.accounts.iter().position(|a| !a.suspended) {
            Some(a) => Ok(a),
            None => Err(CrawlError::Denied(Status::TOO_MANY_REQUESTS)),
        }
    }

    fn mark_suspended(&mut self, account: usize) {
        if !self.accounts[account].suspended {
            self.accounts[account].suspended = true;
            if let Some(m) = &self.obs {
                m.account_suspensions.inc();
                m.refusal("suspension", 1);
            }
        }
    }

    /// Escalate the fleet after a suspension, the way the paper did
    /// (2 → 4 → 8 accounts): recruit until the total doubles, capped
    /// at `max_accounts`. No-op without a factory.
    fn recruit(&mut self) -> Result<(), CrawlError> {
        let Some(mut factory) = self.factory.take() else { return Ok(()) };
        let target = (self.accounts.len() * 2).min(self.max_accounts);
        let mut result = Ok(());
        while self.accounts.len() < target {
            let exchange = factory();
            let username = format!("{}-r{}", self.label, self.recruited);
            self.recruited += 1;
            match self.enroll(exchange, username) {
                Ok(()) => {
                    if let Some(m) = &self.obs {
                        m.accounts_recruited.inc();
                    }
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        self.factory = Some(factory);
        result
    }

    /// Re-login an account whose session the platform dropped.
    fn relogin(&mut self, account: usize) -> Result<(), CrawlError> {
        let (username, password) =
            (self.accounts[account].username.clone(), self.accounts[account].password.clone());
        let mut login = Request::post_form("/login", &[("user", &username), ("pass", &password)]);
        let trace = self.next_trace_ctx(self.accounts[account].lane);
        if let Some((_, ctx)) = &trace {
            login = login.header(H_TRACE_ID, ctx.header_value());
        }
        let begin_ms = self.trace_now_ms();
        let (resp, retries) = auth_post(&mut self.accounts[account].exchange, &login)?;
        record_root_span(&trace, Endpoint::Auth, begin_ms, self.trace_now_ms(), Some(&resp));
        self.count_auth_attempts(1 + retries);
        if !resp.status.is_success() {
            return Err(CrawlError::Denied(resp.status));
        }
        Ok(())
    }

    // ---- the resilient fetch loop -----------------------------------------

    /// GET `path`, surviving what the transport-level retry layer
    /// couldn't fix: truncated pages (re-fetch), lost sessions
    /// (re-login), suspended accounts (failover + recruitment), and
    /// persistent endpoint failure (circuit breaker cooldowns).
    /// Every *issued* request is counted against `endpoint`.
    ///
    /// `pinned`: seed collection must stay on one account (samples are
    /// per-account); everything else rotates.
    fn fetch(
        &mut self,
        endpoint: Endpoint,
        pinned: Option<usize>,
        path: &str,
    ) -> Result<Response, CrawlError> {
        let budget = 8 + 2 * self.max_accounts.max(self.accounts.len());
        let mut relogins = 0u32;
        let mut truncations = 0u32;
        let mut last_denied = Status::SERVICE_UNAVAILABLE;
        for _ in 0..budget {
            let account = match pinned {
                Some(a) if self.accounts[a].suspended => {
                    return Err(CrawlError::Denied(Status::TOO_MANY_REQUESTS))
                }
                Some(a) => a,
                None => self.next_live_account()?,
            };
            self.advance_politeness(account);
            let trace = self.next_trace_ctx(self.accounts[account].lane);
            let begin_ms = self.trace_now_ms();
            // Request-carried virtual time: a mutating platform serves
            // the world as of this stamp, so replay is bit-identical
            // whatever the platform's own clock is doing.
            let mut req = Request::get(path).header(H_VIRTUAL_NOW, begin_ms.to_string());
            if let Some((_, ctx)) = &trace {
                req = req.header(H_TRACE_ID, ctx.header_value());
            }
            let result = self.accounts[account].exchange.exchange(req);
            record_root_span(&trace, endpoint, begin_ms, self.trace_now_ms(), result.as_ref().ok());
            count_request(&mut self.effort, self.obs.as_ref(), endpoint);
            self.sync_retries();
            self.observe_shed_pressure();
            let resp = match result {
                Ok(resp) => resp,
                Err(HttpError::DeadlineExceeded) => {
                    self.breaker_failure(endpoint);
                    continue;
                }
                // A transport failure that outlived the retry layer's
                // budget (sustained chaos): breaker accounting, then
                // try again rather than sinking the crawl.
                Err(e) if retryable_transport_error(&e) => {
                    self.breaker_failure(endpoint);
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            // A flagged session pays its CAPTCHA interstitial on every
            // served page — including degraded ones.
            self.absorb_captcha(&resp);
            if resp.status.is_success() {
                if !html_complete(&resp) {
                    truncations += 1;
                    self.breaker_failure(endpoint);
                    if truncations > 3 {
                        return Err(CrawlError::BadPage("persistently truncated page"));
                    }
                    continue;
                }
                self.breaker_success(endpoint);
                self.note_fetch_success();
                return Ok(resp);
            }
            match resp.status {
                // Policy denial, not a fault: callers interpret 403.
                Status::FORBIDDEN => {
                    self.breaker_success(endpoint);
                    return Ok(resp);
                }
                // Session lost (fault-injected expiry or eviction):
                // log back in on the same account and re-issue.
                Status::UNAUTHORIZED => {
                    relogins += 1;
                    if relogins > 2 {
                        return Err(CrawlError::Denied(resp.status));
                    }
                    self.relogin(account)?;
                }
                // Account suspended: out of rotation, escalate the
                // fleet, carry on with the survivors.
                Status::TOO_MANY_REQUESTS if resp.headers.contains(H_ACCOUNT_SUSPENDED) => {
                    self.mark_suspended(account);
                    self.recruit()?;
                    if pinned.is_some() {
                        return Err(CrawlError::Denied(resp.status));
                    }
                }
                // A retryable status that outlived the transport-layer
                // retry budget (sustained 429/5xx): breaker accounting,
                // then try again (possibly from another account).
                s => {
                    last_denied = s;
                    // Server-side pushback (edge shed or rate limit, as
                    // opposed to an injected fault 5xx): adaptively
                    // widen the politeness spacing.
                    if is_shed(&resp) || s == Status::TOO_MANY_REQUESTS {
                        self.widen_pacing();
                    }
                    self.breaker_failure(endpoint);
                }
            }
        }
        Err(CrawlError::Denied(last_denied))
    }

    /// Traffic mimicry: after every `decoy_every` productive profile
    /// fetches, re-fetch one already-scraped profile so the session's
    /// traversal fan-out looks human (people revisit their friends).
    /// Decoy targets rotate through the insertion-ordered pool, so the
    /// decoy schedule is a pure function of the crawl so far. A decoy
    /// that fails is simply dropped — mimicry is best-effort cover
    /// traffic, never load-bearing.
    fn maybe_issue_decoy(&mut self) {
        let Some(s) = self.adaptive else { return };
        self.productive_profile_fetches += 1;
        if s.decoy_every == 0
            || self.decoy_pool.is_empty()
            || !self.productive_profile_fetches.is_multiple_of(s.decoy_every)
        {
            return;
        }
        let uid = self.decoy_pool[self.decoy_cursor % self.decoy_pool.len()];
        self.decoy_cursor += 1;
        if let Some(m) = &self.obs {
            m.adapt_decoys.inc();
        }
        let _ = self.fetch(Endpoint::Decoy, None, &format!("/profile/{uid}"));
    }

    /// Page through one account's search results.
    fn seeds_for_account(
        &mut self,
        account: usize,
        school: SchoolId,
    ) -> Result<Vec<UserId>, CrawlError> {
        let mut out = Vec::new();
        let mut url = format!("/find-friends?school={school}");
        loop {
            let resp = self.fetch(Endpoint::Seeds, Some(account), &url)?;
            if resp.status == Status::FORBIDDEN {
                return Err(CrawlError::Denied(resp.status));
            }
            let (ids, next) = parse_listing(&String::from_utf8_lossy(&resp.body));
            out.extend(ids);
            match next {
                Some(n) => url = n,
                None => break,
            }
        }
        Ok(out)
    }
}

/// Attempts per auth POST (signup/login) before a transport failure is
/// surfaced. These POSTs are *application-idempotent* — a double signup
/// answers 400 "already registered" (tolerated), a double login mints a
/// fresh session — so resending after a transport error is safe, unlike
/// the blind transport-layer POST replay the retry layers forbid.
const AUTH_POST_ATTEMPTS: u32 = 4;

/// POST an auth form, retrying boundedly on retryable transport errors.
/// Returns the response and how many *retries* (attempts − 1) it took.
fn auth_post<E: Exchange>(exchange: &mut E, req: &Request) -> Result<(Response, u64), CrawlError> {
    let mut retries = 0u64;
    loop {
        match exchange.exchange(req.clone()) {
            Ok(resp) => return Ok((resp, retries)),
            Err(e)
                if retries + 1 < u64::from(AUTH_POST_ATTEMPTS) && retryable_transport_error(&e) =>
            {
                retries += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// An HTML page is complete iff the renderer's closing tag made it
/// through — the crawler's defense against silent truncation. Reads the
/// body's bytes in place.
pub(crate) fn html_complete(resp: &Response) -> bool {
    let is_html = resp.headers.get("content-type").is_some_and(|ct| ct.contains("text/html"));
    !is_html || ends_with_html_close(&resp.body)
}

/// Whether `body` ends with `</html>`, trailing ASCII whitespace aside.
fn ends_with_html_close(body: &[u8]) -> bool {
    let end = body.iter().rposition(|b| !b.is_ascii_whitespace()).map_or(0, |i| i + 1);
    body[..end].ends_with(b"</html>")
}

impl<E: Exchange> OsnAccess for Crawler<E> {
    fn collect_seeds(&mut self, school: SchoolId) -> Result<Vec<UserId>, CrawlError> {
        if let Some(seeds) = self.seeds_cache.get(&school) {
            return Ok(seeds.clone());
        }
        let mut seen = Vec::new();
        for account in 0..self.accounts.len() {
            let ids = self.seeds_for_account(account, school)?;
            seen.extend(ids);
        }
        seen.sort_unstable();
        seen.dedup();
        self.seeds_cache.insert(school, seen.clone());
        Ok(seen)
    }

    fn profile(&mut self, uid: UserId) -> Result<ScrapedProfile, CrawlError> {
        if let Some(p) = self.profile_cache.get(&uid) {
            if let Some(m) = &self.obs {
                m.cache_profile_hits.inc();
            }
            return Ok(p.clone());
        }
        if let Some(m) = &self.obs {
            m.cache_profile_misses.inc();
        }
        let resp = self.fetch(Endpoint::Profile, None, &format!("/profile/{uid}"))?;
        if resp.status == Status::FORBIDDEN {
            return Err(CrawlError::Denied(resp.status));
        }
        let profile = parse_profile(&String::from_utf8_lossy(&resp.body));
        if profile.uid != Some(uid) {
            return Err(CrawlError::BadPage("profile uid mismatch"));
        }
        // A tombstone is an answer (the user deactivated or graduated
        // away mid-crawl): keep the minimal page, disclose it, move on.
        if profile.tombstoned {
            self.note_tombstone(uid);
        }
        self.profile_cache.insert(uid, profile.clone());
        if !profile.tombstoned {
            self.decoy_pool.push(uid);
        }
        self.maybe_issue_decoy();
        Ok(profile)
    }

    fn friends(&mut self, uid: UserId) -> Result<Option<Vec<UserId>>, CrawlError> {
        if let Some(f) = self.friends_cache.get(&uid) {
            if let Some(m) = &self.obs {
                m.cache_friends_hits.inc();
            }
            return Ok(f.clone());
        }
        if let Some(m) = &self.obs {
            m.cache_friends_misses.inc();
        }
        // On a live platform the list can mutate between pages: every
        // page carries the owner's generation stamp, and a stamp change
        // mid-pagination restarts the read from page 0 (bounded — after
        // two restarts the merged pages are kept, disclosed as partial).
        let mut passes = 0u32;
        let (out, list_gen) = 'paginate: loop {
            passes += 1;
            let refetch_pass = passes > 1;
            let mut out = Vec::new();
            let mut first_page = true;
            let mut list_gen: Option<u64> = None;
            let mut url = format!("/friends/{uid}");
            loop {
                if refetch_pass {
                    self.note_stale_refetch(1);
                }
                let resp = match self.fetch(Endpoint::Friends, None, &url) {
                    Ok(resp) => resp,
                    // Graceful degradation: a mid-list failure keeps the
                    // pages already fetched, flagged incomplete, instead of
                    // sinking the whole crawl. (First-page failures still
                    // propagate — there is nothing to carry forward.)
                    Err(e) => {
                        if out.is_empty() {
                            return Err(e);
                        }
                        self.incomplete.insert(uid);
                        if let Some(m) = &self.obs {
                            m.partial_friend_lists.inc();
                        }
                        self.friends_cache.insert(uid, Some(out.clone()));
                        return Ok(Some(out));
                    }
                };
                if resp.status == Status::FORBIDDEN {
                    self.friends_cache.insert(uid, None);
                    return Ok(None);
                }
                let (ids, next, gen) = parse_listing_stamped(&String::from_utf8_lossy(&resp.body));
                if first_page {
                    first_page = false;
                    list_gen = gen;
                } else if gen != list_gen {
                    if passes < 3 {
                        continue 'paginate;
                    }
                    // Bound hit: keep the spliced pages, but say so.
                    if self.incomplete.insert(uid) {
                        if let Some(m) = &self.obs {
                            m.partial_friend_lists.inc();
                        }
                    }
                }
                out.extend(ids);
                match next {
                    Some(n) => url = n,
                    None => break 'paginate (out, list_gen),
                }
            }
        };
        // Pair verification: the profile page fetched earlier and this
        // list must describe the same generation of the user. On a
        // mismatch, re-fetch the profile once so downstream analysis
        // sees one consistent world, and reconcile the cache.
        let profile_gen = self.profile_cache.get(&uid).and_then(|p| p.generation);
        if let (Some(lg), Some(pg)) = (list_gen, profile_gen) {
            if lg != pg {
                self.note_stale_refetch(1);
                if let Ok(resp) = self.fetch(Endpoint::Profile, None, &format!("/profile/{uid}")) {
                    if resp.status.is_success() {
                        let p = parse_profile(&String::from_utf8_lossy(&resp.body));
                        if p.uid == Some(uid) {
                            if p.tombstoned {
                                self.note_tombstone(uid);
                            }
                            self.profile_cache.insert(uid, p);
                        }
                    }
                }
            }
        }
        self.friends_cache.insert(uid, Some(out.clone()));
        Ok(Some(out))
    }

    fn effort(&self) -> Effort {
        self.effort
    }

    fn incomplete_friends(&self) -> Vec<UserId> {
        self.incomplete_friend_lists()
    }

    fn tombstoned_users(&self) -> Vec<UserId> {
        self.tombstoned_user_list()
    }

    fn checkpoint(&self) -> CrawlSnapshot {
        Crawler::checkpoint(self)
    }

    fn virtual_elapsed_ms(&self) -> u64 {
        Crawler::virtual_elapsed_ms(self)
    }

    fn circles(&mut self, uid: UserId, incoming: bool) -> Result<Option<Vec<UserId>>, CrawlError> {
        if let Some(c) = self.circles_cache.get(&(uid, incoming)) {
            if let Some(m) = &self.obs {
                m.cache_circles_hits.inc();
            }
            return Ok(c.clone());
        }
        if let Some(m) = &self.obs {
            m.cache_circles_misses.inc();
        }
        let dir = if incoming { "has" } else { "in" };
        let mut out = Vec::new();
        let mut url = format!("/circles/{uid}?dir={dir}");
        loop {
            let resp = self.fetch(Endpoint::Circles, None, &url)?;
            if resp.status == Status::FORBIDDEN {
                self.circles_cache.insert((uid, incoming), None);
                return Ok(None);
            }
            let (ids, next) = parse_listing(&String::from_utf8_lossy(&resp.body));
            out.extend(ids);
            match next {
                Some(n) => url = n,
                None => break,
            }
        }
        self.circles_cache.insert((uid, incoming), Some(out.clone()));
        Ok(Some(out))
    }

    fn send_message(&mut self, uid: UserId, body: &str) -> Result<bool, CrawlError> {
        let account = self.next_live_account()?;
        self.advance_politeness(account);
        let trace = self.next_trace_ctx(self.accounts[account].lane);
        let begin_ms = self.trace_now_ms();
        let mut req = Request::post_form(format!("/message/{uid}"), &[("body", body)])
            .header(H_VIRTUAL_NOW, begin_ms.to_string());
        if let Some((_, ctx)) = &trace {
            req = req.header(H_TRACE_ID, ctx.header_value());
        }
        let result = self.accounts[account].exchange.exchange(req);
        record_root_span(
            &trace,
            Endpoint::Message,
            begin_ms,
            self.trace_now_ms(),
            result.as_ref().ok(),
        );
        let resp = result?;
        count_request(&mut self.effort, self.obs.as_ref(), Endpoint::Message);
        self.sync_retries();
        self.absorb_captcha(&resp);
        match resp.status {
            s if s.is_success() => Ok(true),
            Status::FORBIDDEN => Ok(false),
            Status::TOO_MANY_REQUESTS if resp.headers.contains(H_ACCOUNT_SUSPENDED) => {
                self.mark_suspended(account);
                self.recruit()?;
                Err(CrawlError::Denied(Status::TOO_MANY_REQUESTS))
            }
            s => Err(CrawlError::Denied(s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_http::DirectExchange;
    use hsp_platform::{FaultPlan, Platform, PlatformConfig};
    use hsp_policy::FacebookPolicy;
    use hsp_synth::{generate, ScenarioConfig};
    use std::sync::Arc;

    fn tiny_crawler(n_accounts: usize) -> (Crawler<DirectExchange>, hsp_synth::Scenario) {
        let scenario = generate(&ScenarioConfig::tiny());
        let platform = Platform::new(
            Arc::new(scenario.network.clone()),
            Arc::new(FacebookPolicy::new()),
            PlatformConfig::default(),
        );
        let handler = platform.into_handler();
        let exchanges = (0..n_accounts).map(|_| DirectExchange::new(handler.clone())).collect();
        (Crawler::new(exchanges, "spy").unwrap(), scenario)
    }

    #[test]
    fn seeds_contain_no_registered_minors_and_effort_is_counted() {
        let (mut crawler, s) = tiny_crawler(2);
        let seeds = crawler.collect_seeds(s.school).unwrap();
        assert!(!seeds.is_empty());
        for &u in &seeds {
            assert!(!s.network.user(u).is_registered_minor(s.network.today));
        }
        let effort = crawler.effort();
        assert!(effort.seed_requests >= 2, "at least one page per account");
        assert_eq!(effort.auth_requests, 4); // signup+login × 2 accounts
        assert_eq!(effort.profile_requests, 0);
    }

    #[test]
    fn profile_fetch_caches() {
        let (mut crawler, s) = tiny_crawler(1);
        let u = s.roster()[0];
        let p1 = crawler.profile(u).unwrap();
        let p2 = crawler.profile(u).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(crawler.effort().profile_requests, 1, "second hit was cached");
    }

    #[test]
    fn friends_pagination_reassembles_full_list() {
        let (mut crawler, s) = tiny_crawler(2);
        // Find an open adult with > 20 friends (forces paging).
        let open = s
            .network
            .user_ids()
            .find(|&u| {
                !s.network.user(u).is_registered_minor(s.network.today)
                    && s.network.user(u).privacy.friend_list == hsp_graph::Audience::Public
                    && s.network.friends(u).len() > 25
            })
            .expect("an open well-connected user");
        let got = crawler.friends(open).unwrap().unwrap();
        let mut expected = s.network.friends(open).to_vec();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
        assert!(crawler.effort().friend_list_requests >= 2);
        assert!(crawler.incomplete_friend_lists().is_empty());
    }

    #[test]
    fn hidden_friend_list_yields_none() {
        let (mut crawler, s) = tiny_crawler(1);
        let minor = s.registered_minor_students()[0];
        assert!(crawler.friends(minor).unwrap().is_none());
        // Cached too.
        assert!(crawler.friends(minor).unwrap().is_none());
        assert_eq!(crawler.effort().friend_list_requests, 1);
    }

    #[test]
    fn politeness_advances_virtual_clock() {
        let (mut crawler, s) = tiny_crawler(1);
        let before = crawler.virtual_elapsed_ms();
        let _ = crawler.profile(s.roster()[0]).unwrap();
        assert!(crawler.virtual_elapsed_ms() > before);
    }

    #[test]
    fn observability_counts_fetches_caches_and_politeness() {
        let scenario = generate(&ScenarioConfig::tiny());
        let platform = Platform::new(
            Arc::new(scenario.network.clone()),
            Arc::new(FacebookPolicy::new()),
            PlatformConfig::default(),
        );
        let handler = platform.into_handler();
        let exchanges = (0..2).map(|_| DirectExchange::new(handler.clone())).collect();
        let mut crawler =
            Crawler::with_observability(exchanges, "spy", Politeness::default(), &platform.obs)
                .unwrap();

        let u = scenario.roster()[0];
        let _ = crawler.profile(u).unwrap();
        let _ = crawler.profile(u).unwrap(); // cache hit
        let _ = crawler.friends(u);

        let snap = platform.obs.snapshot();
        assert_eq!(snap.counter("crawler_fetch_total{endpoint=\"auth\"}"), 4);
        assert_eq!(snap.counter("crawler_fetch_total{endpoint=\"profile\"}"), 1);
        assert_eq!(snap.counter("crawler_cache_total{cache=\"profile\",result=\"hit\"}"), 1);
        assert_eq!(snap.counter("crawler_cache_total{cache=\"profile\",result=\"miss\"}"), 1);
        let virt = snap.counter("crawler_politeness_virtual_ms");
        assert_eq!(virt, crawler.virtual_elapsed_ms());
        assert!(virt >= 2 * Politeness::default().sleep_ms_between_requests);
        // Both sides of the experiment share one registry: the platform's
        // route counters moved too.
        assert!(snap.counter("http_route_requests_total{route=\"/profile/:uid\"}") >= 1);
    }

    #[test]
    fn shed_pressure_widens_pacing_and_calm_narrows_it() {
        let (mut crawler, _s) = tiny_crawler(1);
        assert_eq!(crawler.politeness_widen_factor(), 1);
        let base = Politeness::default().sleep_ms_between_requests;

        // Pushback doubles the spacing up to the configured cap.
        crawler.widen_pacing();
        assert_eq!(crawler.politeness_widen_factor(), 2);
        let before = crawler.virtual_elapsed_ms();
        crawler.advance_politeness(0);
        assert_eq!(crawler.virtual_elapsed_ms() - before, 2 * base);
        for _ in 0..10 {
            crawler.widen_pacing();
        }
        assert_eq!(
            crawler.politeness_widen_factor(),
            Politeness::default().max_widen_factor,
            "widening saturates at the cap"
        );

        // A calm streak narrows one step at a time; pressure resets it.
        for _ in 0..Politeness::default().narrow_after_successes - 1 {
            crawler.note_fetch_success();
        }
        crawler.widen_pacing(); // resets the streak at the cap
        for _ in 0..Politeness::default().narrow_after_successes {
            crawler.note_fetch_success();
        }
        assert_eq!(crawler.politeness_widen_factor(), Politeness::default().max_widen_factor / 2);

        // Sheds absorbed inside the retry layer also widen (via the
        // shared RetryStats bridge).
        let stats = Arc::new(hsp_http::RetryStats::default());
        crawler.retry_stats = Some(Arc::clone(&stats));
        crawler.observe_shed_pressure();
        assert_eq!(crawler.politeness_widen_factor(), Politeness::default().max_widen_factor / 2);
        stats.sheds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        crawler.observe_shed_pressure();
        assert_eq!(crawler.politeness_widen_factor(), Politeness::default().max_widen_factor);
    }

    #[test]
    fn more_accounts_more_seeds() {
        // With a big enough pool, extra accounts surface extra seeds.
        let scenario = generate(&ScenarioConfig::tiny());
        let platform = Platform::new(
            Arc::new(scenario.network.clone()),
            Arc::new(FacebookPolicy::new()),
            PlatformConfig { search_cap_per_account: 20, ..PlatformConfig::default() },
        );
        let handler = platform.into_handler();
        let mk = |n: usize, label: &str| {
            let exchanges = (0..n).map(|_| DirectExchange::new(handler.clone())).collect();
            Crawler::new(exchanges, label).unwrap()
        };
        let one = mk(1, "a").collect_seeds(scenario.school).unwrap();
        let four = mk(4, "b").collect_seeds(scenario.school).unwrap();
        assert!(four.len() > one.len(), "{} vs {}", four.len(), one.len());
    }

    #[test]
    fn checkpoint_resume_skips_fetched_pages() {
        let scenario = generate(&ScenarioConfig::tiny());
        let platform = Platform::new(
            Arc::new(scenario.network.clone()),
            Arc::new(FacebookPolicy::new()),
            PlatformConfig::default(),
        );
        let handler = platform.into_handler();
        let mk = |label: &str| {
            let exchanges = (0..2).map(|_| DirectExchange::new(handler.clone())).collect();
            Crawler::new(exchanges, label).unwrap()
        };

        // First crawl: seeds + a few profiles, then "the process dies".
        let mut first = mk("spy");
        let seeds = first.collect_seeds(scenario.school).unwrap();
        for &u in seeds.iter().take(5) {
            first.profile(u).unwrap();
            first.friends(u).unwrap();
        }
        let checkpoint = first.checkpoint();
        assert_eq!(checkpoint.profiles.len(), 5);
        assert!(checkpoint.effort.total() > 0);

        // Round-trip through JSON, like an on-disk checkpoint file.
        let checkpoint = CrawlSnapshot::from_json(&checkpoint.to_json().unwrap()).unwrap();

        // Resumed crawl: restore, then redo the same work.
        let mut resumed = mk("spy2");
        resumed.restore(&checkpoint);
        let auth_only = resumed.effort();
        let seeds2 = resumed.collect_seeds(scenario.school).unwrap();
        assert_eq!(seeds2, seeds, "seeds come from the checkpoint");
        for &u in seeds.iter().take(5) {
            resumed.profile(u).unwrap();
            resumed.friends(u).unwrap();
        }
        let effort = resumed.effort();
        assert_eq!(effort.seed_requests, auth_only.seed_requests, "no seed re-fetch");
        assert_eq!(effort.profile_requests, 0, "no profile re-fetch");
        assert_eq!(effort.friend_list_requests, 0, "no friend-list re-fetch");

        // New work is still fetched (and paid for).
        if let Some(&fresh) = seeds.get(5) {
            resumed.profile(fresh).unwrap();
            assert_eq!(resumed.effort().profile_requests, 1);
        }
    }

    #[test]
    fn suspension_fails_over_and_recruits() {
        // Scripted suspension of account 0 after 10 served requests;
        // a recruiting crawler must fail over mid-crawl and finish.
        let scenario = generate(&ScenarioConfig::tiny());
        let platform = Platform::new(
            Arc::new(scenario.network.clone()),
            Arc::new(FacebookPolicy::new()),
            PlatformConfig {
                faults: FaultPlan {
                    enabled: true,
                    suspend_account_after: vec![10],
                    ..FaultPlan::default()
                },
                ..PlatformConfig::default()
            },
        );
        let handler = platform.into_handler();
        let factory_handler = handler.clone();
        let exchanges = (0..2).map(|_| DirectExchange::new(handler.clone())).collect();
        let mut crawler = Crawler::builder("spy")
            .observability(&platform.obs)
            .recruit_with(move || DirectExchange::new(factory_handler.clone()), 8)
            .build(exchanges)
            .unwrap();

        let seeds = crawler.collect_seeds(scenario.school).unwrap();
        for &u in &seeds {
            crawler.profile(u).unwrap();
            crawler.friends(u).unwrap();
        }
        assert_eq!(platform.accounts.suspended_count(), 1, "account 0 was suspended");
        assert_eq!(crawler.live_account_count() + 1, crawler.account_count());
        assert!(crawler.account_count() > 2, "fleet escalated past the initial 2");
        let snap = platform.obs.snapshot();
        assert_eq!(snap.counter("crawler_account_suspensions_total"), 1);
        assert!(snap.counter("crawler_accounts_recruited_total") >= 1);
    }

    /// The byte check gives the same verdict as the string check it
    /// replaced (`body_string().trim_end().ends_with("</html>")`) on
    /// every byte prefix of a rendered profile page and listing page,
    /// including prefixes that cut a UTF-8 sequence, and on the whole
    /// pages with trailing whitespace.
    #[test]
    fn html_close_check_matches_the_string_check_on_every_prefix() {
        use hsp_graph::{Date, School, SchoolKind};
        use hsp_platform::render::{listing_page_stamped, profile_page};
        let mut net = hsp_graph::Network::new(Date::ymd(2012, 3, 15));
        let city = net.add_city("Rivière", "NY");
        let school = net.add_school(School {
            id: SchoolId(0),
            name: "Lycée & <High>".into(),
            city,
            kind: SchoolKind::HighSchool,
            public_enrollment_estimate: 500,
        });
        let mut view = hsp_policy::PublicView::minimal(
            UserId(5),
            "Zoë \u{a0}Hale".into(),
            Some(hsp_graph::Gender::Female),
            true,
            vec![school],
        );
        view.current_city = Some(city);
        let entries = [(UserId(1), "Åsa Berg".to_string()), (UserId(2), "Chloé".to_string())];
        let listing =
            listing_page_stamped("friends", &entries, Some("/friends/u5?page=1&x=2".into()), 3);
        for page in [profile_page(&net, &view), listing] {
            let bytes = page.as_bytes();
            let padded = [bytes, b" \n\t\r".as_slice()].concat();
            for body in (0..=bytes.len()).map(|cut| &bytes[..cut]).chain([padded.as_slice()]) {
                let old = String::from_utf8_lossy(body).trim_end().ends_with("</html>");
                assert_eq!(ends_with_html_close(body), old, "{:?}", String::from_utf8_lossy(body));
            }
            assert!(ends_with_html_close(bytes));
        }
    }
}
