//! Property tests for the population generator: structural invariants
//! that must hold for every generated world, across random small
//! configurations.

use hsp_graph::{HouseholdId, Network, PrivacySettings, Role, UserId};
use hsp_synth::{generate, generate_sharded, ScenarioConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = ScenarioConfig> {
    (any::<u64>(), 40u32..120, 0.5f64..1.0, 0.0f64..1.0, 0.0f64..0.6, 0u32..30).prop_map(
        |(seed, size, adoption, p_lie, p_adult, formers)| {
            let mut cfg = ScenarioConfig::tiny();
            cfg.seed = seed;
            cfg.school_size = size;
            cfg.public_enrollment_estimate = size;
            cfg.adoption_rate = adoption;
            cfg.lying.p_lie_when_underage = p_lie;
            cfg.lying.p_lie_to_adult = p_adult;
            cfg.former_students = formers;
            cfg.community_pool_size = 300;
            cfg
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generated worlds satisfy the ground-truth structural invariants
    /// the attack and its evaluation rely on.
    #[test]
    fn generated_world_invariants(cfg in arb_config()) {
        let s = generate(&cfg);
        let net = &s.network;
        let today = net.today;
        let roster = s.roster();

        // Roster size tracks adoption (generously bounded: binomial tails).
        let expected = cfg.school_size as f64 * cfg.adoption_rate;
        prop_assert!(
            (roster.len() as f64) < expected + 30.0 && (roster.len() as f64) > expected - 30.0,
            "roster {} vs expected {expected}", roster.len()
        );

        for u in net.users() {
            // Nobody registered in the future; nobody registered before
            // the OSN existed.
            prop_assert!(u.registration.registration_date <= today);
            prop_assert!(u.registration.registration_date.year() >= 2006);
            // Lying only ever inflates age (registered older than true).
            prop_assert!(
                u.registration.registered_birth_date <= u.true_birth_date,
                "registered younger than true for {}", u.id
            );
            // Students' true ages are 13..19 and consistent with class.
            if let Role::CurrentStudent { grad_year, .. } = u.role {
                let age = u.true_age(today);
                prop_assert!((13..=19).contains(&age), "student age {age}");
                prop_assert!((grad_year - 19..=grad_year - 17).contains(&(u.true_birth_date.year())));
                // Every student has a household in the home city.
                let hh = net.households().of(u.id).expect("student household");
                prop_assert_eq!(hh.city, s.home_city);
            }
            // Alumni truly graduated (class year before current seniors).
            if let Role::Alumnus { grad_year, .. } = u.role {
                prop_assert!(grad_year < net.senior_class_year());
            }
        }

        // Friendship symmetry (sampled).
        for &u in roster.iter().take(20) {
            for &v in net.friends(u) {
                prop_assert!(net.are_friends(v, u));
            }
        }

        // The lying-minor count is bounded by the lying parameters: zero
        // lying probability ⇒ (almost) no lying minors.
        if cfg.lying.p_lie_when_underage == 0.0 {
            prop_assert_eq!(s.lying_minor_students().len(), 0);
        }
    }

    /// Sharded generation is thread-count invariant: building the world
    /// on one thread or many yields byte-identical networks, for any
    /// config. (Each fixed-size chunk owns an independent RNG stream
    /// keyed by chunk index, so the schedule can't leak into the draws.)
    #[test]
    fn sharding_is_thread_invariant((cfg, threads) in (arb_config(), 2usize..9)) {
        let one = generate_sharded(&cfg, 1);
        let many = generate_sharded(&cfg, threads);
        prop_assert_eq!(one.network.fingerprint(), many.network.fingerprint());
    }

    /// Same config ⇒ bit-identical world (the determinism contract the
    /// experiment tables depend on).
    #[test]
    fn generation_is_deterministic(cfg in arb_config()) {
        let a = generate(&cfg);
        let b = generate(&cfg);
        prop_assert_eq!(a.network.user_count(), b.network.user_count());
        prop_assert_eq!(a.roster(), b.roster());
        for u in a.network.user_ids().take(50) {
            prop_assert_eq!(a.network.friends(u), b.network.friends(u));
            prop_assert_eq!(
                &a.network.user(u).profile.full_name(),
                &b.network.user(u).profile.full_name()
            );
            prop_assert_eq!(
                a.network.user(u).registration.registered_birth_date,
                b.network.user(u).registration.registered_birth_date
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sealed CSR view is an exact image of the builder adjacency.
    /// Serde round-trip always lands in builder (Vec-of-Vec) form — the
    /// seal index never serializes — so a generated (sealed) world and
    /// its round-tripped copy are the two representations of the same
    /// network: fingerprints must match, every friends list must come
    /// back in the same order, and re-sealing must change nothing
    /// observable.
    #[test]
    fn builder_and_sealed_views_agree(cfg in arb_config()) {
        use serde::{Deserialize, Serialize};

        let sealed = generate(&cfg).network;
        prop_assert!(sealed.is_sealed());

        let mut builder =
            hsp_graph::Network::from_json_value(&sealed.to_json_value()).expect("round-trip");
        prop_assert!(!builder.is_sealed());

        // Fingerprint is representation-independent.
        prop_assert_eq!(builder.fingerprint(), sealed.fingerprint());

        // Friends ordering survives the CSR migration bit-for-bit.
        for u in sealed.user_ids() {
            prop_assert_eq!(builder.friends(u), sealed.friends(u));
        }

        // Re-sealing the builder copy is observationally a no-op.
        builder.seal();
        prop_assert_eq!(builder.fingerprint(), sealed.fingerprint());
        for u in sealed.user_ids() {
            prop_assert_eq!(builder.friends(u), sealed.friends(u));
        }

        // A second round-trip — now from a freshly sealed network — is
        // byte-stable too.
        let again =
            hsp_graph::Network::from_json_value(&builder.to_json_value()).expect("round-trip 2");
        prop_assert_eq!(again.fingerprint(), sealed.fingerprint());
    }

    /// `Network::clone` shares structure, so writes to a clone must
    /// never leak into the original, and a clone must end up exactly
    /// where a deep (serde round-tripped) copy given the same writes
    /// does. The ops cover every copy-on-write path: user chunks
    /// (`add_user`, `user_mut`), the sealed adjacency's per-user
    /// overrides (`add_friendship`, `remove_friendship`) and the shared
    /// side tables (`circles_mut`, `interactions_mut`, `households_mut`).
    #[test]
    fn cow_clone_is_isolated(
        cfg in arb_config(),
        ops in prop::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..40),
    ) {
        use serde::{Deserialize, Serialize};

        let original = generate(&cfg).network;
        prop_assert!(original.is_sealed());
        let before = original.fingerprint();
        let mut deep = Network::from_json_value(&original.to_json_value()).expect("round-trip");
        let mut clone = original.clone();
        for &(kind, a, b) in &ops {
            apply_op(&mut clone, kind, a, b);
            apply_op(&mut deep, kind, a, b);
        }

        prop_assert_eq!(original.fingerprint(), before, "a clone's write reached the original");
        prop_assert_eq!(clone.fingerprint(), deep.fingerprint());
        prop_assert_eq!(clone.friend_graph().edge_count(), deep.friend_graph().edge_count());
        for u in clone.user_ids() {
            prop_assert_eq!(clone.friends(u), deep.friends(u));
        }
        // Folding the overrides back into a CSR changes nothing observable.
        clone.seal();
        prop_assert_eq!(clone.fingerprint(), deep.fingerprint());
    }
}

/// One write of `cow_clone_is_isolated`, with users picked by draw.
fn apply_op(net: &mut Network, kind: u8, a: u64, b: u64) {
    let n = net.user_count() as u64;
    let (u, v) = (UserId(a % n), UserId(b % n));
    match kind {
        0 => {
            let user = net.user(u).clone();
            net.add_user(user);
        }
        1 => {
            net.add_friendship(u, v);
        }
        2 => {
            let friends = net.friends(u);
            let v =
                if friends.is_empty() { v } else { friends[(b % friends.len() as u64) as usize] };
            net.remove_friendship(u, v);
        }
        3 => net.user_mut(u).privacy = PrivacySettings::locked_down(),
        4 => net.user_mut(u).role = Role::OtherResident,
        5 => {
            net.circles_mut().add(u, v);
        }
        6 => net.interactions_mut().bulk_insert([(u, v, 1 + (b % 3) as u32)]),
        _ => match net.households().len() as u64 {
            0 => {
                net.households_mut().add("1 Elm St".into(), hsp_graph::CityId(0), vec![u]);
            }
            h => net.households_mut().join(HouseholdId::from_index((b % h) as usize), u),
        },
    }
}
