//! # hsp-crawler — the attacker's crawler
//!
//! Implements the measurement side of the paper's methodology: logging
//! in with fake accounts, paging through the Find-Friends portal for
//! seeds, downloading public profile pages and friend lists (20 per
//! AJAX request), parsing the HTML back into structured records
//! ([`scrape`]), counting every HTTP GET for the Table 3 effort
//! analysis ([`effort`]), and pacing requests with a (virtual)
//! politeness clock (§3.2).
//!
//! The crawl engine is [`scheduler::ParallelCrawler`]: the sock-puppet
//! fleet, one worker seat per account, deterministic by construction
//! (results are bit-identical at any worker count). It is generic over
//! the HTTP transport, so identical attack code runs over loopback TCP
//! or in-process. [`driver`] holds the pieces it is built from: the
//! [`OsnAccess`] interface, errors, politeness, breakers and metrics.

pub mod driver;
pub mod effort;
pub mod journal;
pub mod scheduler;
pub mod scrape;
pub mod snapshot;

pub use driver::{AdaptiveStrategy, BreakerConfig, CrawlError, OsnAccess, Politeness};
pub use effort::{Effort, Endpoint};
pub use journal::{
    fold_state, recover, recover_bytes, recover_instrumented, Journal, JournalError,
    JournalMetrics, JournalRecord, KillPlan, LaneState, RecoveredLog, ResumeState, SchedState,
    LANE_RECOVERY,
};
pub use scheduler::{AccountSeat, ParallelCrawler, ParallelCrawlerBuilder};
pub use scrape::{parse_listing, parse_profile, ScrapedEduKind, ScrapedEducation, ScrapedProfile};
pub use snapshot::{CrawlSnapshot, SnapshotAccess, SnapshotError, SNAPSHOT_VERSION};
