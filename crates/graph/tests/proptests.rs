//! Property tests for the graph substrate.

use hsp_graph::{
    jaccard_index, sorted_intersection_len, Date, FriendGraph, Network, PrivacySettings,
    ProfileContent, Registration, Role, UserId,
};
use proptest::prelude::*;

proptest! {
    /// `from_days ∘ to_days = id` over ±200 years around the epoch.
    #[test]
    fn date_day_count_round_trips(days in -73000i64..73000) {
        let d = Date::from_days(days);
        prop_assert_eq!(d.to_days(), days);
        // And the components are a valid date.
        prop_assert!(Date::new(d.year(), d.month(), d.day()).is_ok());
    }

    /// `add_days` composes additively.
    #[test]
    fn add_days_is_additive(start in -40000i64..40000, a in -5000i64..5000, b in -5000i64..5000) {
        let d = Date::from_days(start);
        prop_assert_eq!(d.add_days(a).add_days(b), d.add_days(a + b));
    }

    /// Age never decreases as the reference date advances.
    #[test]
    fn age_is_monotonic(birth_days in -20000i64..10000, on in -10000i64..20000, delta in 0i64..4000) {
        let birth = Date::from_days(birth_days);
        let d1 = Date::from_days(on);
        let d2 = d1.add_days(delta);
        prop_assert!(Date::age_on(birth, d2) >= Date::age_on(birth, d1));
    }

    /// Consecutive days differ by exactly one calendar step.
    #[test]
    fn successor_day_is_next_date(days in -40000i64..40000) {
        let d = Date::from_days(days);
        let next = Date::from_days(days + 1);
        prop_assert!(next > d);
        prop_assert_eq!(d.days_until(next), 1);
    }

    /// Bulk insertion is exactly equivalent to incremental insertion.
    #[test]
    fn bulk_insert_equals_incremental(
        edges in prop::collection::vec((0u64..60, 0u64..60), 0..150)
    ) {
        let mut bulk = FriendGraph::default();
        bulk.bulk_insert(edges.iter().map(|&(a, b)| (UserId(a), UserId(b))));
        let mut inc = FriendGraph::default();
        for &(a, b) in &edges {
            inc.add_friendship(UserId(a), UserId(b));
        }
        for i in 0..60 {
            prop_assert_eq!(bulk.friends(UserId(i)), inc.friends(UserId(i)));
        }
        prop_assert_eq!(bulk.edge_count(), inc.edge_count());
    }

    /// Mutating a sealed graph (through its per-user overrides) answers
    /// exactly like mutating the Building layout, and leaves a sealed
    /// original it was cloned from untouched.
    #[test]
    fn sealed_overrides_match_building_layout(
        edges in prop::collection::vec((0u64..50, 0u64..50), 0..120),
        ops in prop::collection::vec((any::<bool>(), 0u64..60, 0u64..60), 0..80),
    ) {
        let mut building = FriendGraph::default();
        building.bulk_insert(edges.iter().map(|&(a, b)| (UserId(a), UserId(b))));
        let mut original = building.clone();
        original.seal();
        let mut sealed = original.clone();
        for &(add, a, b) in &ops {
            let (a, b) = (UserId(a), UserId(b));
            if add {
                prop_assert_eq!(sealed.add_friendship(a, b), building.add_friendship(a, b));
            } else {
                prop_assert_eq!(sealed.remove_friendship(a, b), building.remove_friendship(a, b));
            }
        }
        prop_assert_eq!(sealed.len(), building.len());
        prop_assert_eq!(sealed.edge_count(), building.edge_count());
        prop_assert!(sealed.iter_lists().eq(building.iter_lists()));
        prop_assert!(original.is_sealed());
        let mut fresh = FriendGraph::default();
        fresh.bulk_insert(edges.iter().map(|&(a, b)| (UserId(a), UserId(b))));
        prop_assert!(original.iter_lists().eq(fresh.iter_lists()));
        sealed.seal();
        prop_assert!(sealed.is_sealed());
        prop_assert!(sealed.iter_lists().eq(building.iter_lists()));
    }

    /// Friendship symmetry and sortedness hold under arbitrary insertion.
    #[test]
    fn adjacency_is_symmetric_and_sorted(
        edges in prop::collection::vec((0u64..40, 0u64..40), 0..120)
    ) {
        let mut g = FriendGraph::default();
        g.bulk_insert(edges.iter().map(|&(a, b)| (UserId(a), UserId(b))));
        for i in 0..40u64 {
            let u = UserId(i);
            let friends = g.friends(u);
            prop_assert!(friends.windows(2).all(|w| w[0] < w[1]), "unsorted/dup");
            for &f in friends {
                prop_assert!(g.are_friends(f, u), "asymmetric edge {}-{}", u, f);
                prop_assert_ne!(f, u, "self loop");
            }
        }
    }

    /// Jaccard is symmetric and bounded in [0, 1]; intersection length
    /// is commutative and bounded by both list lengths.
    #[test]
    fn jaccard_and_intersection_properties(
        a in prop::collection::btree_set(0u64..200, 0..60),
        b in prop::collection::btree_set(0u64..200, 0..60),
    ) {
        let av: Vec<UserId> = a.iter().map(|&x| UserId(x)).collect();
        let bv: Vec<UserId> = b.iter().map(|&x| UserId(x)).collect();
        let i1 = sorted_intersection_len(&av, &bv);
        let i2 = sorted_intersection_len(&bv, &av);
        prop_assert_eq!(i1, i2);
        prop_assert!(i1 <= av.len() && i1 <= bv.len());
        let j1 = jaccard_index(&av, &bv);
        let j2 = jaccard_index(&bv, &av);
        prop_assert!((j1 - j2).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&j1));
        if !av.is_empty() {
            prop_assert!((jaccard_index(&av, &av) - 1.0).abs() < 1e-12);
        }
    }

    /// The paper's stranger relation is symmetric (all three conditions
    /// are symmetric predicates).
    #[test]
    fn stranger_relation_is_symmetric(
        edges in prop::collection::vec((0u64..12, 0u64..12), 0..30),
        networked in prop::collection::vec(any::<bool>(), 12),
    ) {
        let mut net = Network::new(Date::ymd(2012, 3, 15));
        let city = net.add_city("X", "NY");
        let school = net.add_school(hsp_graph::School {
            id: hsp_graph::SchoolId(0),
            name: "HS".into(),
            city,
            kind: hsp_graph::SchoolKind::HighSchool,
            public_enrollment_estimate: 100,
        });
        for &in_network in networked.iter().take(12) {
            let mut profile = ProfileContent::bare("A", "B", hsp_graph::Gender::Male);
            if in_network {
                profile.networks.push(school);
            }
            net.add_user(hsp_graph::User {
                id: UserId(0),
                true_birth_date: Date::ymd(1990, 1, 1),
                registration: Registration {
                    registered_birth_date: Date::ymd(1990, 1, 1),
                    registration_date: Date::ymd(2008, 1, 1),
                },
                profile,
                privacy: PrivacySettings::facebook_adult_default(),
                role: Role::OtherResident,
            });
        }
        net.add_friendships_bulk(
            edges.iter().map(|&(a, b)| (UserId(a), UserId(b))),
        );
        for a in 0..12u64 {
            for b in 0..12u64 {
                prop_assert_eq!(
                    net.is_stranger(UserId(a), UserId(b)),
                    net.is_stranger(UserId(b), UserId(a)),
                    "asymmetric strangerhood {},{}", a, b
                );
            }
        }
    }
}
