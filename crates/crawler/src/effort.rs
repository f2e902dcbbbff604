//! Measurement-effort accounting (paper §4.5, Table 3).
//!
//! The paper argues the attack is cheap by counting HTTP GETs:
//! `A·R + |S| + |C|·f/p` for the basic methodology. We count the actual
//! requests the crawler issues, bucketed the same way Table 3 reports
//! them.

use serde::{Deserialize, Serialize};

/// Request counts by purpose.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Effort {
    /// Signup/login requests (not counted in the paper's totals, kept
    /// separately for completeness).
    pub auth_requests: u64,
    /// Search-portal pages fetched while gathering seeds (`A·R`).
    pub seed_requests: u64,
    /// Public profile pages fetched.
    pub profile_requests: u64,
    /// Friend-list pages fetched (`|C|·f/p`).
    pub friend_list_requests: u64,
    /// Direct messages POSTed (the §2 spear-phishing channel; not part
    /// of the paper's Table 3 totals).
    pub message_requests: u64,
    /// Transport-layer retries (429/5xx/reset re-issues by the
    /// resilient HTTP layer). Real GETs the platform had to absorb, so
    /// a chaotic crawl's true cost is `total()` — which includes them.
    pub retry_requests: u64,
    /// CAPTCHA challenges absorbed (the sybil detector's `x-captcha`
    /// interstitials). A separate line item — *not* folded into
    /// `retry_requests` — so Table 3 comparisons across detector
    /// strengths stay apples-to-apples.
    pub captcha_challenges: u64,
    /// Virtual milliseconds spent "solving" those CAPTCHAs.
    pub captcha_virtual_ms: u64,
    /// Decoy/mimicry fetches issued by the adaptive crawler to look
    /// human (revisits of already-scraped profiles). Real requests the
    /// platform served, but not scraping progress.
    pub decoy_requests: u64,
    /// Annotation: how many of the profile/friend-list requests above
    /// were *re*-fetches forced by a staleness mismatch on a live
    /// (mutating) world. The GETs themselves are already billed into
    /// `profile_requests`/`friend_list_requests`, so this is **not**
    /// added to `total()` — it explains where the budget went, it does
    /// not grow it.
    pub stale_refetch_requests: u64,
    /// Annotation: users found tombstoned (deactivated or graduated
    /// away) mid-crawl and degraded to completeness-only disclosure.
    /// Not a request class, so never part of `total()`.
    pub tombstones: u64,
}

impl Effort {
    /// The paper's total: seeds + profiles + friend lists — plus the
    /// retries it took to land them (zero in a fault-free run) and any
    /// decoy fetches the adaptive crawler spent on mimicry (zero for
    /// the naive crawler). CAPTCHA challenges are *time*, not requests,
    /// so they never enter this count.
    pub fn total(&self) -> u64 {
        self.seed_requests
            + self.profile_requests
            + self.friend_list_requests
            + self.retry_requests
            + self.decoy_requests
    }

    /// Difference (e.g. enhanced-phase effort = after - before).
    pub fn since(&self, earlier: &Effort) -> Effort {
        Effort {
            auth_requests: self.auth_requests - earlier.auth_requests,
            seed_requests: self.seed_requests - earlier.seed_requests,
            profile_requests: self.profile_requests - earlier.profile_requests,
            friend_list_requests: self.friend_list_requests - earlier.friend_list_requests,
            message_requests: self.message_requests - earlier.message_requests,
            retry_requests: self.retry_requests - earlier.retry_requests,
            captcha_challenges: self.captcha_challenges - earlier.captcha_challenges,
            captcha_virtual_ms: self.captcha_virtual_ms - earlier.captcha_virtual_ms,
            decoy_requests: self.decoy_requests - earlier.decoy_requests,
            stale_refetch_requests: self.stale_refetch_requests - earlier.stale_refetch_requests,
            tombstones: self.tombstones - earlier.tombstones,
        }
    }
}

/// What one issued request was for. Each endpoint carries its label
/// (the `endpoint` label of `crawler_fetch_total` and
/// `crawler_breaker_transitions_total`, the crawler's root-span name and
/// its breakers' journal key) and the [`Effort`] bucket it is billed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Signup and login POSTs.
    Auth,
    /// Find-Friends search pages (seed collection).
    Seeds,
    Profile,
    Friends,
    /// Google+ circles pages, billed as friend lists.
    Circles,
    Message,
    /// Mimicry re-fetches by the adaptive crawler: real requests, but
    /// not scraping progress — billed to their own bucket.
    Decoy,
}

impl Endpoint {
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Auth,
        Endpoint::Seeds,
        Endpoint::Profile,
        Endpoint::Friends,
        Endpoint::Circles,
        Endpoint::Message,
        Endpoint::Decoy,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Auth => "auth",
            Endpoint::Seeds => "find-friends",
            Endpoint::Profile => "profile",
            Endpoint::Friends => "friends",
            Endpoint::Circles => "circles",
            Endpoint::Message => "message",
            Endpoint::Decoy => "decoy",
        }
    }

    /// The endpoint a label names (journaled breaker keys on resume).
    pub fn from_label(label: &str) -> Option<Endpoint> {
        Endpoint::ALL.into_iter().find(|e| e.label() == label)
    }

    /// The [`Effort`] bucket one request to this endpoint is billed to.
    pub fn bucket(self, effort: &mut Effort) -> &mut u64 {
        match self {
            Endpoint::Auth => &mut effort.auth_requests,
            Endpoint::Seeds => &mut effort.seed_requests,
            Endpoint::Profile => &mut effort.profile_requests,
            Endpoint::Friends | Endpoint::Circles => &mut effort.friend_list_requests,
            Endpoint::Message => &mut effort.message_requests,
            Endpoint::Decoy => &mut effort.decoy_requests,
        }
    }
}

impl std::fmt::Display for Effort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests (seeds {}, profiles {}, friend lists {}, retries {}, decoys {}, captchas {}; stale re-fetches {}, tombstones {})",
            self.total(),
            self.seed_requests,
            self.profile_requests,
            self.friend_list_requests,
            self.retry_requests,
            self.decoy_requests,
            self.captcha_challenges,
            self.stale_refetch_requests,
            self.tombstones
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_deltas() {
        let before = Effort {
            auth_requests: 4,
            seed_requests: 30,
            profile_requests: 100,
            friend_list_requests: 50,
            message_requests: 0,
            retry_requests: 2,
            ..Effort::default()
        };
        assert_eq!(before.total(), 182);
        let after = Effort {
            auth_requests: 4,
            seed_requests: 30,
            profile_requests: 400,
            friend_list_requests: 220,
            message_requests: 7,
            retry_requests: 12,
            captcha_challenges: 9,
            captcha_virtual_ms: 9 * 30_000,
            decoy_requests: 25,
            stale_refetch_requests: 6,
            tombstones: 2,
        };
        let delta = after.since(&before);
        assert_eq!(delta.profile_requests, 300);
        assert_eq!(delta.friend_list_requests, 170);
        assert_eq!(delta.retry_requests, 10);
        assert_eq!(delta.captcha_challenges, 9);
        assert_eq!(delta.decoy_requests, 25);
        assert_eq!(delta.stale_refetch_requests, 6);
        assert_eq!(delta.tombstones, 2);
        // Decoys are real requests; captchas are time, not requests.
        // Stale re-fetches are already inside the profile/friend-list
        // buckets and tombstones are not requests — neither may double
        // into the total.
        assert_eq!(delta.total(), 505);
    }

    #[test]
    fn endpoints_index_by_declaration_order_and_round_trip_labels() {
        for (i, e) in Endpoint::ALL.into_iter().enumerate() {
            assert_eq!(e as usize, i, "metric arrays are indexed by `Endpoint as usize`");
            assert_eq!(Endpoint::from_label(e.label()), Some(e));
        }
        assert_eq!(Endpoint::from_label("retry"), None);
        let mut effort = Effort::default();
        for e in Endpoint::ALL {
            *e.bucket(&mut effort) += 1;
        }
        assert_eq!(effort.friend_list_requests, 2, "circles bill as friend lists");
        assert_eq!(effort.total(), 5, "auth and messages stay out of the paper's total");
    }
}
