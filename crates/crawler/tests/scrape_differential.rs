//! Differential tests: the forward-scan scrapers in `hsp_crawler` must
//! extract exactly what the DOM-based reference oracle extracts, field
//! for field, on every page the platform can render — random profile
//! views with every optional block on or off and hostile strings in
//! every text slot, tombstones, listing pages of every length with and
//! without a next link, stamped and unstamped — and on every page of a
//! tiny-world crawl.

mod dom_oracle;

use hsp_crawler::{parse_listing, parse_profile};
use hsp_graph::{
    CityId, ContactInfo, Date, EducationEntry, EducationKind, Gender, InterestedIn, Network,
    PrivacySettings, ProfileContent, Registration, RelationshipStatus, Role, School, SchoolId,
    SchoolKind, User, UserId,
};
use hsp_http::{DirectExchange, Exchange, Request, Status};
use hsp_platform::render::{
    listing_page, listing_page_stamped, profile_page, profile_page_stamped,
};
use hsp_platform::{render, Platform, PlatformConfig};
use hsp_policy::{FacebookPolicy, PublicView};
use hsp_synth::{generate, ScenarioConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Text that stresses escaping and decoding: markup characters, entity
/// look-alikes, non-ASCII, whitespace-only runs.
fn hostile_text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just("&".to_string()),
            Just("<".to_string()),
            Just(">".to_string()),
            Just("\"".to_string()),
            Just("'".to_string()),
            Just("&amp;".to_string()),
            Just("&#65;".to_string()),
            Just("</h1>".to_string()),
            Just("<b>".to_string()),
            Just(" ".to_string()),
            Just("\u{a0}".to_string()),
            Just("é".to_string()),
            Just("日本".to_string()),
            "[a-zA-Z0-9 ]{0,6}",
        ],
        0..6,
    )
    .prop_map(|parts| parts.concat())
}

/// Two cities, two schools and three users, every name hostile.
fn fixture(names: &[String]) -> Network {
    let mut net = Network::new(Date::ymd(2012, 3, 15));
    let cities = [net.add_city(&names[0], &names[1]), net.add_city(&names[2], &names[3])];
    for (i, name) in names[4..6].iter().enumerate() {
        net.add_school(School {
            id: SchoolId(0),
            name: name.into(),
            city: cities[i],
            kind: SchoolKind::HighSchool,
            public_enrollment_estimate: 500,
        });
    }
    for pair in names[6..12].chunks(2) {
        net.add_user(User {
            id: UserId(0),
            true_birth_date: Date::ymd(1990, 1, 1),
            registration: Registration {
                registered_birth_date: Date::ymd(1990, 1, 1),
                registration_date: Date::ymd(2008, 9, 1),
            },
            profile: ProfileContent::bare(&pair[0], &pair[1], Gender::Female),
            privacy: PrivacySettings::facebook_adult_default(),
            role: Role::OtherResident,
        });
    }
    net
}

/// A view of any shape over the fixture: every optional block on or
/// off, ids pointing at the fixture's schools, cities and users.
fn public_view() -> impl Strategy<Value = PublicView> {
    let school = (0usize..2).prop_map(SchoolId::from_index);
    let city = || prop::option::of((0usize..2).prop_map(CityId::from_index));
    let head = (
        (0u64..1_000_000).prop_map(UserId),
        hostile_text(),
        prop::option::of(prop_oneof![
            Just(Gender::Female),
            Just(Gender::Male),
            Just(Gender::Unspecified)
        ]),
        any::<bool>(),
        prop::collection::vec(school.clone(), 0..3),
        prop::collection::vec(
            (
                school,
                prop_oneof![
                    Just(EducationKind::HighSchool),
                    Just(EducationKind::College),
                    Just(EducationKind::GraduateSchool)
                ],
                prop::option::of(1990i32..2030),
            )
                .prop_map(|(school, kind, grad_year)| EducationEntry {
                    school,
                    kind,
                    grad_year,
                }),
            0..4,
        ),
        (city(), city()),
    );
    let tail = (
        prop::option::of(prop_oneof![
            Just(RelationshipStatus::Single),
            Just(RelationshipStatus::InARelationship),
            Just(RelationshipStatus::Engaged),
            Just(RelationshipStatus::Married),
            Just(RelationshipStatus::Complicated)
        ]),
        prop::option::of(prop_oneof![
            Just(InterestedIn::Men),
            Just(InterestedIn::Women),
            Just(InterestedIn::Both)
        ]),
        prop::option::of((1950i32..2010, 1u8..13, 1u8..29)),
        (prop::option::of(any::<u32>()), prop::option::of(any::<u32>())),
        prop::collection::vec((0u64..3).prop_map(UserId), 0..5),
        prop::option::of(
            (
                prop::option::of(hostile_text()),
                prop::option::of(hostile_text()),
                prop::option::of(hostile_text()),
            )
                .prop_map(|(email, phone, address)| ContactInfo {
                    email,
                    phone,
                    address,
                }),
        ),
        (any::<bool>(), any::<bool>()),
    );
    (head, tail).prop_map(|(head, tail)| {
        let (user, name, gender, photo, networks, education, (current_city, hometown)) = head;
        let (relationship, interested_in, birthday, counts, wall_posters, contact, flags) = tail;
        let mut view = PublicView::minimal(user, name, gender, photo, networks);
        view.education = education;
        (view.current_city, view.hometown) = (current_city, hometown);
        (view.relationship, view.interested_in) = (relationship, interested_in);
        view.birthday = birthday.and_then(|(y, m, d)| Date::new(y, m, d).ok());
        (view.photos_shared, view.wall_posts) = counts;
        view.wall_posters = wall_posters;
        view.contact = contact;
        (view.friend_list_visible, view.message_button) = flags;
        view
    })
}

fn assert_profile_agrees(html: &str) {
    assert_eq!(parse_profile(html), dom_oracle::parse_profile(html), "page:\n{html}");
}

fn assert_listing_agrees(html: &str) {
    assert_eq!(
        hsp_crawler::scrape::parse_listing_stamped(html),
        dom_oracle::parse_listing_stamped(html),
        "page:\n{html}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn profile_pages_scrape_like_the_dom_oracle(
        names in prop::collection::vec(hostile_text(), 12),
        view in public_view(),
        stamp in prop::option::of(any::<u64>()),
    ) {
        let net = fixture(&names);
        let html = match stamp {
            Some(gen) => profile_page_stamped(&net, &view, gen),
            None => profile_page(&net, &view),
        };
        assert_profile_agrees(&html);
        // Either scraper reads a profile page as a (linkless) listing.
        assert_listing_agrees(&html);
    }

    #[test]
    fn tombstones_scrape_like_the_dom_oracle(uid in any::<u64>(), gen in any::<u64>()) {
        let html = render::tombstone_page(UserId(uid), gen);
        assert_profile_agrees(&html);
        prop_assert!(parse_profile(&html).tombstoned);
    }

    #[test]
    fn listing_pages_scrape_like_the_dom_oracle(
        list_id in prop_oneof![Just("friends"), Just("results"), Just("circles")],
        entries in prop::collection::vec((any::<u64>(), hostile_text()), 0..=40),
        next in prop::option::of((hostile_text(), 0u32..100)),
        stamp in prop::option::of(any::<u64>()),
    ) {
        let entries: Vec<(UserId, String)> =
            entries.into_iter().map(|(u, name)| (UserId(u), name)).collect();
        let next = next.map(|(school, page)| format!("/find-friends?school={school}&page={page}"));
        let html = match stamp {
            Some(gen) => listing_page_stamped(list_id, &entries, next, gen),
            None => listing_page(list_id, &entries, next),
        };
        assert_listing_agrees(&html);
        assert_profile_agrees(&html);
        prop_assert_eq!(parse_listing(&html).0.len(), entries.len());
    }
}

/// GET `path`; the body if the platform served it.
fn fetch<E: Exchange>(x: &mut E, path: &str) -> Option<String> {
    let resp = x.exchange(Request::get(path)).unwrap();
    (resp.status == Status::OK).then(|| resp.body_string())
}

/// Follow a listing's next links from `first`; returns the page count.
fn paginate<E: Exchange>(x: &mut E, first: String) -> usize {
    let mut pages = 0;
    let mut url = Some(first);
    while let Some(html) = url.take().and_then(|path| fetch(x, &path)) {
        assert_listing_agrees(&html);
        pages += 1;
        url = parse_listing(&html).1;
    }
    pages
}

/// Every page a tiny-world crawl can fetch — each user's profile, every
/// page of each visible friend list, every search page for the target
/// school — scrapes identically under both parsers.
#[test]
fn every_tiny_world_page_scrapes_like_the_dom_oracle() {
    let scenario = generate(&ScenarioConfig::tiny());
    let platform = Platform::new(
        Arc::new(scenario.network.clone()),
        Arc::new(FacebookPolicy::new()),
        PlatformConfig::default(),
    );
    let mut x = DirectExchange::new(platform.into_handler());
    x.exchange(Request::post_form("/signup", &[("user", "probe"), ("pass", "pw")])).unwrap();
    x.exchange(Request::post_form("/login", &[("user", "probe"), ("pass", "pw")])).unwrap();

    let mut listings = paginate(&mut x, format!("/find-friends?school={}", scenario.school));
    let mut profiles = 0;
    for u in scenario.network.user_ids() {
        let Some(html) = fetch(&mut x, &format!("/profile/{u}")) else {
            continue;
        };
        assert_profile_agrees(&html);
        profiles += 1;
        if parse_profile(&html).friend_list_visible {
            listings += paginate(&mut x, format!("/friends/{u}"));
        }
    }
    assert_eq!(profiles, scenario.network.user_count(), "every profile page is public");
    assert!(listings > profiles / 2, "only {listings} listing pages for {profiles} profiles");
}
