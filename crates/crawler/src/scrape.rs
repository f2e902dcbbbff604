//! HTML scrapers: turn platform pages back into structured data.
//!
//! Mirrors the paper's §3.2 pipeline ("our parser then extracted
//! relevant data from the HTML source code"). Parsing is defensive: a
//! page that lacks a field simply yields `None` — the attacker can only
//! work with what is rendered.
//!
//! The scrapers read the scraping contract of `hsp_platform::render`:
//! the tag names, `id`/`class` values and `data-*`/`href` attributes it
//! writes for each field. A page is read in one forward pass over its
//! start tags, with no DOM. Each tag keeps only the contract attributes,
//! as slices of the page, and a value is entity-decoded only when it
//! contains `&`. The only text read is the `h1.name` and `span.gender`
//! text, up to the next `</`; listing names are never materialised.
//! Comments, declarations and close tags are stepped over by the rules
//! of [`hsp_markup::parse`], so the scan sees the elements that parser
//! would build. A profile field is matched by its tag and class anywhere
//! after `#profile`, which on every rendered page is where a descendant
//! selector would find it. The DOM-based scraper this replaced is kept,
//! verbatim, as the reference oracle of `tests/scrape_differential.rs`.

use hsp_graph::{CityId, Date, SchoolId, UserId};
use hsp_markup::unescape;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Education entry as scraped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrapedEducation {
    pub school: SchoolId,
    pub kind: ScrapedEduKind,
    pub grad_year: Option<i32>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScrapedEduKind {
    HighSchool,
    College,
    GraduateSchool,
}

/// Everything extractable from one public profile page.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ScrapedProfile {
    pub uid: Option<UserId>,
    pub name: String,
    pub gender: Option<String>,
    pub has_photo: bool,
    pub networks: Vec<SchoolId>,
    pub education: Vec<ScrapedEducation>,
    pub current_city: Option<CityId>,
    pub hometown: Option<CityId>,
    pub relationship: bool,
    pub interested_in: bool,
    pub birthday: Option<Date>,
    pub photos_shared: Option<u32>,
    pub wall_posts: Option<u32>,
    /// Authors of visible wall posts (interaction signal).
    pub wall_posters: Vec<UserId>,
    pub has_contact_info: bool,
    pub friend_list_visible: bool,
    pub message_button: bool,
    /// Live-world staleness stamp (`data-gen`): the user's mutation-touch
    /// count when the page was rendered. `None` on a frozen platform.
    #[serde(default)]
    pub generation: Option<u64>,
    /// `data-tombstone` marker: the account was deactivated or graduated
    /// away mid-crawl. The page is a 200 OK answer, not an error.
    #[serde(default)]
    pub tombstoned: bool,
}

impl ScrapedProfile {
    /// The paper's "minimal information" test applied to a scraped page
    /// (§3.1): nothing beyond name/photo/gender/networks, and no Message
    /// button. On Facebook this implies a registered minor or a fully
    /// locked-down adult.
    pub fn is_minimal(&self) -> bool {
        self.education.is_empty()
            && self.current_city.is_none()
            && self.hometown.is_none()
            && !self.relationship
            && !self.interested_in
            && self.birthday.is_none()
            && self.photos_shared.is_none()
            && self.wall_posts.is_none()
            && !self.has_contact_info
            && !self.friend_list_visible
            && !self.message_button
    }

    /// The high-school entry, if listed.
    pub fn listed_high_school(&self) -> Option<ScrapedEducation> {
        self.education.iter().copied().find(|e| e.kind == ScrapedEduKind::HighSchool)
    }

    /// §4.1 step 2: does this profile claim *current* attendance at
    /// `school`, given the current senior class year?
    pub fn claims_current_student(&self, school: SchoolId, senior_class_year: i32) -> bool {
        self.education.iter().any(|e| {
            e.kind == ScrapedEduKind::HighSchool
                && e.school == school
                && e.grad_year.is_some_and(|g| g >= senior_class_year)
        })
    }

    /// Does the profile list a graduate school (filter rule 1, §4.4)?
    pub fn lists_graduate_school(&self) -> bool {
        self.education.iter().any(|e| e.kind == ScrapedEduKind::GraduateSchool)
    }
}

/// Parse a profile page.
pub fn parse_profile(html: &str) -> ScrapedProfile {
    let mut p = ScrapedProfile::default();
    let mut tags = Tags::new(html);
    let Some(root) = tags.find(|t| t.attr(Attr::Id).as_deref() == Some("profile")) else {
        return p;
    };
    p.uid = root.attr(Attr::DataUid).and_then(|v| UserId::parse(&v));
    p.generation = root.attr(Attr::DataGen).and_then(|g| g.parse().ok());
    p.tombstoned = root.attr(Attr::DataTombstone).as_deref() == Some("1");
    // Single-valued fields take the first matching element, as a
    // `select_first` would; the outer `Option` records "seen".
    let mut name = None;
    let mut gender = None;
    let mut current_city = None;
    let mut hometown = None;
    let mut birthday = None;
    let mut photos_shared = None;
    let mut wall_posts = None;
    while let Some(tag) = tags.next() {
        let Some(class) = tag.attr(Attr::Class) else {
            continue;
        };
        for token in class.split_ascii_whitespace() {
            match token {
                "name" if tag.is("h1") => {
                    name.get_or_insert_with(|| tags.text());
                }
                "profile-photo" if tag.is("img") => p.has_photo = true,
                "gender" if tag.is("span") => {
                    gender.get_or_insert_with(|| tags.text());
                }
                "network" if tag.is("li") => {
                    p.networks.extend(tag.attr(Attr::DataSchool).and_then(|v| SchoolId::parse(&v)));
                }
                "edu" if tag.is("li") => p.education.extend(education(&tag)),
                "current-city" if tag.is("span") => {
                    current_city.get_or_insert_with(|| city(&tag));
                }
                "hometown" if tag.is("span") => {
                    hometown.get_or_insert_with(|| city(&tag));
                }
                "relationship" if tag.is("span") => p.relationship = true,
                "interested-in" if tag.is("span") => p.interested_in = true,
                "birthday" if tag.is("span") => {
                    birthday.get_or_insert_with(|| {
                        tag.attr(Attr::DataDate).and_then(|d| parse_date(&d))
                    });
                }
                "photos-count" if tag.is("span") => {
                    photos_shared.get_or_insert_with(|| count(&tag));
                }
                "wall-count" if tag.is("span") => {
                    wall_posts.get_or_insert_with(|| count(&tag));
                }
                "wall-post" if tag.is("li") => {
                    p.wall_posters
                        .extend(tag.attr(Attr::DataAuthor).and_then(|v| UserId::parse(&v)));
                }
                "contact" if tag.is("div") => p.has_contact_info = true,
                "friends-link" if tag.is("a") => p.friend_list_visible = true,
                "message-button" if tag.is("a") => p.message_button = true,
                _ => {}
            }
        }
    }
    p.name = name.unwrap_or_default();
    p.gender = gender;
    p.current_city = current_city.flatten();
    p.hometown = hometown.flatten();
    p.birthday = birthday.flatten();
    p.photos_shared = photos_shared.flatten();
    p.wall_posts = wall_posts.flatten();
    p
}

fn education(li: &Tag<'_>) -> Option<ScrapedEducation> {
    let school = li.attr(Attr::DataSchool).and_then(|v| SchoolId::parse(&v))?;
    let kind = match li.attr(Attr::DataKind).as_deref() {
        Some("highschool") => ScrapedEduKind::HighSchool,
        Some("college") => ScrapedEduKind::College,
        Some("gradschool") => ScrapedEduKind::GraduateSchool,
        _ => return None,
    };
    let grad_year = li.attr(Attr::DataYear).and_then(|y| y.parse().ok());
    Some(ScrapedEducation { school, kind, grad_year })
}

fn city(span: &Tag<'_>) -> Option<CityId> {
    span.attr(Attr::DataCity).and_then(|v| CityId::parse(&v))
}

fn count(span: &Tag<'_>) -> Option<u32> {
    span.attr(Attr::DataCount).and_then(|c| c.parse().ok())
}

/// Parse a listing page (search results or a friend-list page): the
/// linked user ids plus the next-page URL, if any.
pub fn parse_listing(html: &str) -> (Vec<UserId>, Option<String>) {
    let (ids, next, _) = parse_listing_stamped(html);
    (ids, next)
}

/// Like [`parse_listing`], also returning the live-world `data-gen`
/// staleness stamp on the list root (`None` on a frozen platform). The
/// crawler compares stamps across a pagination run — and against the
/// owner's profile stamp — to detect a list that mutated mid-read.
pub fn parse_listing_stamped(html: &str) -> (Vec<UserId>, Option<String>, Option<u64>) {
    let mut ids = Vec::new();
    let mut next = None;
    let mut gen = None;
    for tag in Tags::new(html) {
        if tag.is("a") && tag.has_class("profile-link") {
            let href = tag.attr(Attr::Href);
            ids.extend(
                href.as_deref().and_then(|h| h.strip_prefix("/profile/")).and_then(UserId::parse),
            );
        }
        if next.is_none() && tag.attr(Attr::Id).as_deref() == Some("next-page") {
            next = Some(tag.attr(Attr::Href).map(Cow::into_owned));
        }
        if gen.is_none() && tag.is("ul") {
            gen = Some(tag.attr(Attr::DataGen).and_then(|g| g.parse().ok()));
        }
    }
    (ids, next.flatten(), gen.flatten())
}

/// The attributes `hsp_platform::render` writes for scrapers to read —
/// the scraping contract. The scan keeps these and steps over the rest.
#[derive(Clone, Copy)]
enum Attr {
    Id,
    Class,
    Href,
    DataUid,
    DataGen,
    DataTombstone,
    DataSchool,
    DataKind,
    DataYear,
    DataCity,
    DataDate,
    DataCount,
    DataAuthor,
}

/// Attribute names, indexed by [`Attr`].
const CONTRACT: [&str; 13] = [
    "id",
    "class",
    "href",
    "data-uid",
    "data-gen",
    "data-tombstone",
    "data-school",
    "data-kind",
    "data-year",
    "data-city",
    "data-date",
    "data-count",
    "data-author",
];

/// One start tag: its name and its contract attributes' raw values.
struct Tag<'a> {
    name: &'a str,
    values: [Option<&'a str>; CONTRACT.len()],
}

impl<'a> Tag<'a> {
    /// Tag names compare case-insensitively, as HTML does.
    fn is(&self, name: &str) -> bool {
        self.name.eq_ignore_ascii_case(name)
    }

    /// An attribute's value, borrowed from the page unless it carries an
    /// entity.
    fn attr(&self, attr: Attr) -> Option<Cow<'a, str>> {
        self.values[attr as usize].map(|v| {
            if v.contains('&') {
                Cow::Owned(unescape(v))
            } else {
                Cow::Borrowed(v)
            }
        })
    }

    fn has_class(&self, class: &str) -> bool {
        self.attr(Attr::Class).is_some_and(|c| c.split_ascii_whitespace().any(|t| t == class))
    }
}

/// Forward scan over a page's start tags, in document order. Comments,
/// declarations and close tags are stepped over by the same rules as
/// [`hsp_markup::parse`], so the scan yields exactly the elements that
/// parser would build, without building them.
struct Tags<'a> {
    html: &'a str,
    pos: usize,
}

impl<'a> Tags<'a> {
    fn new(html: &'a str) -> Self {
        Tags { html, pos: 0 }
    }

    /// The text after the tag just returned: everything up to the next
    /// `</`, entity-decoded, and empty if it is only whitespace.
    fn text(&self) -> String {
        let rest = &self.html[self.pos..];
        let raw = rest.find("</").map_or(rest, |end| &rest[..end]);
        let text = if raw.contains('&') { unescape(raw) } else { raw.to_string() };
        if text.trim().is_empty() {
            String::new()
        } else {
            text
        }
    }

    /// Step past the next `stop`, or to the end of the page.
    fn skip_past(&mut self, stop: char) {
        self.pos = self.html[self.pos..].find(stop).map_or(self.html.len(), |i| self.pos + i + 1);
    }

    /// Read the start tag whose name begins at `pos`, leaving `pos` after
    /// its closing `>`.
    fn start_tag(&mut self) -> Tag<'a> {
        let html = self.html;
        let name_len = html[self.pos..].bytes().position(|b| !is_name_byte(b));
        let name_end = name_len.map_or(html.len(), |n| self.pos + n);
        let mut tag = Tag { name: &html[self.pos..name_end], values: [None; CONTRACT.len()] };
        let mut attrs = Attrs { s: html, pos: name_end };
        for (name, value) in attrs.by_ref() {
            // A repeated attribute keeps its last value, as the DOM does.
            if let Some(i) = CONTRACT.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                tag.values[i] = Some(value);
            }
        }
        let tail = &html[attrs.pos..];
        self.pos =
            attrs.pos + if tail.starts_with("/>") { 2 } else { usize::from(!tail.is_empty()) };
        tag
    }
}

impl<'a> Iterator for Tags<'a> {
    type Item = Tag<'a>;

    fn next(&mut self) -> Option<Tag<'a>> {
        loop {
            self.pos += self.html[self.pos..].find('<')?;
            let rest = &self.html.as_bytes()[self.pos..];
            match rest.get(1) {
                Some(c) if c.is_ascii_alphabetic() => {
                    self.pos += 1;
                    return Some(self.start_tag());
                }
                Some(b'/') if rest.get(2).is_some_and(|&b| is_name_byte(b)) => self.skip_past('>'),
                Some(b'!') if rest.starts_with(b"<!--") => {
                    let body = &self.html[self.pos + 4..];
                    self.pos =
                        body.find("-->").map_or(self.html.len(), |end| self.pos + 4 + end + 3);
                }
                Some(b'!') => self.skip_past('>'),
                _ => self.pos += 1,
            }
        }
    }
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b':')
}

/// The `name="value"` pairs of one start tag from `pos` on, by the same
/// rules as [`hsp_markup::parse`]: quoted or unquoted values, bare names
/// valued `""`, stray characters skipped. Stops at `>`, `/>` or the end
/// of the input, leaving `pos` there.
struct Attrs<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Attrs<'a> {
    fn skip_whitespace(&mut self) {
        let b = self.s.as_bytes();
        while b.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    /// Advance to the first byte matching `stop` (or the end); return
    /// what was passed over.
    fn take_until(&mut self, stop: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let len = self.s.as_bytes()[start..].iter().position(|&b| stop(b));
        self.pos = len.map_or(self.s.len(), |n| start + n);
        &self.s[start..self.pos]
    }
}

impl<'a> Iterator for Attrs<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<(&'a str, &'a str)> {
        loop {
            self.skip_whitespace();
            let rest = &self.s[self.pos..];
            if rest.is_empty() || rest.starts_with('>') || rest.starts_with("/>") {
                return None;
            }
            let name =
                self.take_until(|b| b.is_ascii_whitespace() || matches!(b, b'=' | b'>' | b'/'));
            if name.is_empty() {
                // A stray `=` or `/`: skip it to guarantee progress.
                self.pos += 1;
                continue;
            }
            self.skip_whitespace();
            if self.s.as_bytes().get(self.pos) != Some(&b'=') {
                return Some((name, ""));
            }
            self.pos += 1;
            self.skip_whitespace();
            let value = match self.s.as_bytes().get(self.pos) {
                Some(&q @ (b'"' | b'\'')) => {
                    self.pos += 1;
                    let value = self.take_until(|b| b == q);
                    self.pos = (self.pos + 1).min(self.s.len());
                    value
                }
                _ => self.take_until(|b| b.is_ascii_whitespace() || b == b'>'),
            };
            return Some((name, value));
        }
    }
}

fn parse_date(s: &str) -> Option<Date> {
    let mut parts = s.split('-');
    let y = parts.next()?.parse().ok()?;
    let m = parts.next()?.parse().ok()?;
    let d = parts.next()?.parse().ok()?;
    Date::new(y, m, d).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    // A representative platform-rendered profile page.
    const RICH: &str = r#"<!DOCTYPE html><html><head><title>x</title></head><body>
      <div id="profile" data-uid="u42">
        <h1 class="name">Ava Keller</h1>
        <img class="profile-photo" src="/photo/u42">
        <span class="gender">female</span>
        <ul class="networks"><li class="network" data-school="s0">HS1</li></ul>
        <ul class="education">
          <li class="edu" data-kind="highschool" data-school="s0" data-year="2014">HS1, Class of 2014</li>
          <li class="edu" data-kind="college" data-school="s2">State College</li>
        </ul>
        <span class="current-city" data-city="c0">HS1 City, NY</span>
        <span class="relationship">Single</span>
        <span class="birthday" data-date="1992-06-01">1992-06-01</span>
        <span class="photos-count" data-count="19">19 photos</span>
        <a class="friends-link" href="/friends/u42">Friends</a>
        <a class="message-button" href="/message/u42">Message</a>
      </div></body></html>"#;

    const MINIMAL: &str = r#"<!DOCTYPE html><html><body>
      <div id="profile" data-uid="u7">
        <h1 class="name">Bo Nash</h1>
        <img class="profile-photo" src="/photo/u7">
        <span class="gender">male</span>
      </div></body></html>"#;

    #[test]
    fn parses_rich_profile() {
        let p = parse_profile(RICH);
        assert_eq!(p.uid, Some(UserId(42)));
        assert_eq!(p.name, "Ava Keller");
        assert_eq!(p.education.len(), 2);
        assert_eq!(
            p.listed_high_school(),
            Some(ScrapedEducation {
                school: SchoolId(0),
                kind: ScrapedEduKind::HighSchool,
                grad_year: Some(2014),
            })
        );
        assert_eq!(p.current_city, Some(CityId(0)));
        assert_eq!(p.birthday, Some(Date::ymd(1992, 6, 1)));
        assert_eq!(p.photos_shared, Some(19));
        assert!(p.friend_list_visible);
        assert!(p.message_button);
        assert!(!p.is_minimal());
        assert!(p.claims_current_student(SchoolId(0), 2012));
        assert!(!p.claims_current_student(SchoolId(0), 2015));
        assert!(!p.lists_graduate_school());
    }

    #[test]
    fn parses_minimal_profile() {
        let p = parse_profile(MINIMAL);
        assert_eq!(p.uid, Some(UserId(7)));
        assert!(p.is_minimal());
        assert!(p.listed_high_school().is_none());
    }

    #[test]
    fn junk_page_yields_default() {
        let p = parse_profile("<html><body><p>404</p></body></html>");
        assert_eq!(p.uid, None);
        assert!(p.is_minimal());
    }

    #[test]
    fn parses_listing_with_next() {
        let html = r#"<ul id="results">
          <li class="entry"><a class="profile-link" href="/profile/u3">A</a></li>
          <li class="entry"><a class="profile-link" href="/profile/u9">B</a></li>
        </ul><a id="next-page" href="/find-friends?school=s0&amp;page=2">More</a>"#;
        let (ids, next) = parse_listing(html);
        assert_eq!(ids, vec![UserId(3), UserId(9)]);
        assert_eq!(next.as_deref(), Some("/find-friends?school=s0&page=2"));
    }

    #[test]
    fn parses_listing_without_next() {
        let (ids, next) = parse_listing(r#"<ul id="friends"></ul>"#);
        assert!(ids.is_empty());
        assert!(next.is_none());
    }

    #[test]
    fn parses_generation_stamp_and_tombstone() {
        let stamped = r#"<div id="profile" data-uid="u3" data-gen="17">
          <h1 class="name">Gen Carrier</h1></div>"#;
        let p = parse_profile(stamped);
        assert_eq!(p.generation, Some(17));
        assert!(!p.tombstoned);
        // Frozen-platform pages carry no stamp.
        assert_eq!(parse_profile(MINIMAL).generation, None);

        let tomb = hsp_platform::render::tombstone_page(UserId(8), 4);
        let p = parse_profile(&tomb);
        assert_eq!(p.uid, Some(UserId(8)));
        assert!(p.tombstoned);
        assert_eq!(p.generation, Some(4));
        assert!(p.is_minimal());

        let listing = hsp_platform::render::listing_page_stamped(
            "friends",
            &[(UserId(1), "A B".into())],
            None,
            9,
        );
        let (ids, next, gen) = parse_listing_stamped(&listing);
        assert_eq!(ids, vec![UserId(1)]);
        assert!(next.is_none());
        assert_eq!(gen, Some(9));
        let (_, _, frozen_gen) = parse_listing_stamped(r#"<ul id="friends"></ul>"#);
        assert_eq!(frozen_gen, None);
    }

    #[test]
    fn round_trip_against_platform_renderer() {
        // Render with the platform's renderer and scrape it back.
        use hsp_graph::{Date as D, Network};
        use hsp_policy::PublicView;
        let mut net = Network::new(D::ymd(2012, 3, 15));
        let city = net.add_city("Rivertown", "NY");
        let school = net.add_school(hsp_graph::School {
            id: SchoolId(0),
            name: "Rivertown High".into(),
            city,
            kind: hsp_graph::SchoolKind::HighSchool,
            public_enrollment_estimate: 500,
        });
        let mut view = PublicView::minimal(
            UserId(5),
            "Cy Hale".into(),
            Some(hsp_graph::Gender::Male),
            true,
            vec![school],
        );
        view.education.push(hsp_graph::EducationEntry::high_school(school, 2013));
        view.current_city = Some(city);
        view.friend_list_visible = true;
        view.photos_shared = Some(33);
        let html = hsp_platform::render::profile_page(&net, &view);
        let p = parse_profile(&html);
        assert_eq!(p.uid, Some(UserId(5)));
        assert_eq!(p.name, "Cy Hale");
        assert_eq!(p.networks, vec![school]);
        assert_eq!(p.listed_high_school().unwrap().grad_year, Some(2013));
        assert_eq!(p.current_city, Some(city));
        assert_eq!(p.photos_shared, Some(33));
        assert!(p.friend_list_visible);
        assert!(!p.message_button);
    }
}
