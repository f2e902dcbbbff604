//! # hsp-platform — the simulated OSN service
//!
//! A Facebook-like service over the synthetic social graph, faithful to
//! the stranger-facing surfaces the paper's attack uses (§3–§4):
//!
//! - **Find-Friends portal** and **graph search** that never return
//!   registered minors, serve AJAX-style pages, and cap/diversify
//!   results per account (hence the attacker's multiple fake accounts);
//! - **profile pages** rendered as HTML through the policy engine
//!   (registered minors are hard-capped to minimal information);
//! - **friend-list pages** at 20 friends per request (Facebook's
//!   p = 20, §4.5), honouring the reverse-lookup countermeasure switch;
//! - **signup/login** with session cookies (ages are self-asserted and
//!   unverified — the enabling condition of the whole study);
//! - an **anti-crawling suspension rule** (§4.5's motivation for
//!   measuring the attack's request budget).
//!
//! The same `Platform` value can be mounted on the real HTTP server
//! (`hsp_http::Server`) or called in-process via `DirectExchange`.

pub mod accounts;
pub mod app;
pub mod config;
pub mod faults;
pub mod mutations;
pub mod render;
pub mod search;

pub use accounts::{AccountError, Accounts};
pub use app::{Platform, Route, ROUTES};
pub use config::PlatformConfig;
pub use faults::{FaultEngine, FaultPlan};
pub use hsp_defense::{DefenseConfig, DetectorStrength, RouteClass, SybilDetector};
pub use mutations::{MutationEngine, MutationEvent, MutationPlan, WorldGen};
