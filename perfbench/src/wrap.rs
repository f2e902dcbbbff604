//! Timing decorators around the program's public layer boundaries.
//!
//! Each decorator forwards every method of the trait it implements to
//! the wrapped value unchanged, so wrapping never alters a request, a
//! response or a crawl result; it only records time. Untraced, the
//! exchange decorator keeps per-request latencies and the others are
//! plain forwarding.

use crate::trace::{open_exchange, set_open_exchange, thread_index, Lane, Layer, Span, Tracer};
use hsp_crawler::{CrawlError, CrawlSnapshot, Effort, OsnAccess, ScrapedProfile};
use hsp_graph::{SchoolId, UserId};
use hsp_http::{Exchange, Handler, Request, Response, Status, TransportState};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Requests currently on the wire, by request target, so a handler on
/// a server thread can name the client-side exchange it serves. A seat
/// has at most one request in flight, so a target is rarely ambiguous;
/// when it is, the oldest entry is taken.
#[derive(Default)]
pub struct InFlight(Mutex<HashMap<String, Vec<(u64, u64)>>>);

impl InFlight {
    fn enter(&self, target: &str, exchange: (u64, u64)) {
        let mut map = self.0.lock().expect("in-flight map poisoned");
        map.entry(target.to_string()).or_default().push(exchange);
    }

    fn leave(&self, target: &str, exchange: u64) {
        let mut map = self.0.lock().expect("in-flight map poisoned");
        if let Some(open) = map.get_mut(target) {
            open.retain(|&(id, _)| id != exchange);
            if open.is_empty() {
                map.remove(target);
            }
        }
    }

    fn find(&self, target: &str) -> (u64, u64) {
        let map = self.0.lock().expect("in-flight map poisoned");
        map.get(target).and_then(|open| open.first().copied()).unwrap_or((0, 0))
    }
}

fn route_span_name(target: &str) -> &'static str {
    if target.starts_with("/find-friends") {
        "platform.find_friends"
    } else if target.starts_with("/profile/") {
        "platform.profile"
    } else if target.starts_with("/friends/") {
        "platform.friends"
    } else {
        "platform.other"
    }
}

/// Decorates the platform's router (`Handler::handle`).
pub struct TimedHandler {
    inner: Arc<dyn Handler>,
    tracer: Option<Arc<Tracer>>,
    in_flight: Arc<InFlight>,
}

impl TimedHandler {
    pub fn wrap(
        inner: Arc<dyn Handler>,
        tracer: Option<Arc<Tracer>>,
        in_flight: Arc<InFlight>,
    ) -> Arc<dyn Handler> {
        Arc::new(TimedHandler { inner, tracer, in_flight })
    }
}

impl Handler for TimedHandler {
    fn handle(&self, req: &Request) -> Response {
        let Some(tracer) = &self.tracer else { return self.inner.handle(req) };
        let start_ns = tracer.now_ns();
        let resp = self.inner.handle(req);
        let end_ns = tracer.now_ns();
        let (request, lane) = match open_exchange() {
            (0, _) => self.in_flight.find(&req.target),
            open => open,
        };
        tracer.record(Span {
            id: tracer.next_id(),
            parent: request,
            lane,
            request,
            layer: Layer::Platform,
            name: route_span_name(&req.target),
            thread: thread_index(),
            start_ns,
            end_ns,
        });
        resp
    }
}

/// Decorates one account seat's exchange (`Exchange::exchange`) — the
/// call the crawler makes for each request, retries included.
pub struct TimedExchange<E: Exchange> {
    inner: E,
    lane: Arc<Lane>,
    /// Set when the platform runs on other threads (over TCP).
    in_flight: Option<Arc<InFlight>>,
    latencies_ns: Vec<u64>,
}

impl<E: Exchange> TimedExchange<E> {
    pub fn new(inner: E, lane: Arc<Lane>, in_flight: Option<Arc<InFlight>>) -> Self {
        TimedExchange { inner, lane, in_flight, latencies_ns: Vec::new() }
    }
}

fn refused(result: &hsp_http::Result<Response>) -> bool {
    match result {
        Ok(resp) => resp.status == Status::TOO_MANY_REQUESTS || resp.status.code() >= 500,
        Err(_) => true,
    }
}

impl<E: Exchange> Exchange for TimedExchange<E> {
    fn exchange(&mut self, req: Request) -> hsp_http::Result<Response> {
        let result = match self.lane.tracer.clone() {
            None => {
                let started = Instant::now();
                let result = self.inner.exchange(req);
                self.latencies_ns.push(started.elapsed().as_nanos() as u64);
                result
            }
            Some(tracer) => {
                let id = tracer.next_id();
                let parent = self.lane.current();
                let target = self.in_flight.as_ref().map(|f| {
                    f.enter(&req.target, (id, self.lane.root));
                    req.target.clone()
                });
                let outer = set_open_exchange((id, self.lane.root));
                let start_ns = tracer.now_ns();
                let result = self.inner.exchange(req);
                let end_ns = tracer.now_ns();
                set_open_exchange(outer);
                if let (Some(f), Some(target)) = (&self.in_flight, target) {
                    f.leave(&target, id);
                }
                self.latencies_ns.push(end_ns - start_ns);
                tracer.record(Span {
                    id,
                    parent,
                    lane: self.lane.root,
                    request: id,
                    layer: Layer::Http,
                    name: "http.exchange",
                    thread: thread_index(),
                    start_ns,
                    end_ns,
                });
                result
            }
        };
        if refused(&result) {
            self.lane.count_failure();
        }
        result
    }

    fn clear_session(&mut self) {
        self.inner.clear_session()
    }

    fn transport_state(&self) -> TransportState {
        self.inner.transport_state()
    }

    fn restore_transport_state(&mut self, state: &TransportState) {
        self.inner.restore_transport_state(state)
    }
}

impl<E: Exchange> Drop for TimedExchange<E> {
    fn drop(&mut self) {
        self.lane.add_latencies(&mut self.latencies_ns);
    }
}

/// Decorates the crawler (`OsnAccess`), one span per method call.
pub struct TimedAccess<A: OsnAccess> {
    inner: A,
    lane: Arc<Lane>,
}

impl<A: OsnAccess> TimedAccess<A> {
    pub fn new(inner: A, lane: Arc<Lane>) -> Self {
        TimedAccess { inner, lane }
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.lane.span(Layer::Crawler, name, f)
    }
}

impl<A: OsnAccess> OsnAccess for TimedAccess<A> {
    fn collect_seeds(&mut self, school: SchoolId) -> Result<Vec<UserId>, CrawlError> {
        let TimedAccess { inner, lane } = self;
        lane.span(Layer::Crawler, "crawler.collect_seeds", || inner.collect_seeds(school))
    }

    fn profile(&mut self, uid: UserId) -> Result<ScrapedProfile, CrawlError> {
        let TimedAccess { inner, lane } = self;
        lane.span(Layer::Crawler, "crawler.profile", || inner.profile(uid))
    }

    fn friends(&mut self, uid: UserId) -> Result<Option<Vec<UserId>>, CrawlError> {
        let TimedAccess { inner, lane } = self;
        lane.span(Layer::Crawler, "crawler.friends", || inner.friends(uid))
    }

    fn effort(&self) -> Effort {
        self.span("crawler.effort", || self.inner.effort())
    }

    fn incomplete_friends(&self) -> Vec<UserId> {
        self.span("crawler.incomplete_friends", || self.inner.incomplete_friends())
    }

    fn tombstoned_users(&self) -> Vec<UserId> {
        self.span("crawler.tombstoned_users", || self.inner.tombstoned_users())
    }

    fn send_message(&mut self, uid: UserId, body: &str) -> Result<bool, CrawlError> {
        let TimedAccess { inner, lane } = self;
        lane.span(Layer::Crawler, "crawler.send_message", || inner.send_message(uid, body))
    }

    fn circles(&mut self, uid: UserId, incoming: bool) -> Result<Option<Vec<UserId>>, CrawlError> {
        let TimedAccess { inner, lane } = self;
        lane.span(Layer::Crawler, "crawler.circles", || inner.circles(uid, incoming))
    }

    fn prefetch_profiles(&mut self, uids: &[UserId]) -> Result<(), CrawlError> {
        let TimedAccess { inner, lane } = self;
        lane.span(Layer::Crawler, "crawler.prefetch_profiles", || inner.prefetch_profiles(uids))
    }

    fn prefetch_friends(&mut self, uids: &[UserId]) -> Result<(), CrawlError> {
        let TimedAccess { inner, lane } = self;
        lane.span(Layer::Crawler, "crawler.prefetch_friends", || inner.prefetch_friends(uids))
    }

    fn checkpoint(&self) -> CrawlSnapshot {
        self.span("crawler.checkpoint", || self.inner.checkpoint())
    }

    fn virtual_elapsed_ms(&self) -> u64 {
        self.span("crawler.virtual_elapsed_ms", || self.inner.virtual_elapsed_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use hsp_crawler::CrawlSnapshot;

    /// Overrides every `OsnAccess` method (the defaulted ones too) with
    /// an answer the trait's default would never give.
    struct Stub;

    fn uid(n: u64) -> UserId {
        UserId(n)
    }

    fn stub_profile() -> ScrapedProfile {
        ScrapedProfile { name: "Stub".to_string(), ..ScrapedProfile::default() }
    }

    impl OsnAccess for Stub {
        fn collect_seeds(&mut self, _: SchoolId) -> Result<Vec<UserId>, CrawlError> {
            Ok(vec![uid(1)])
        }
        fn profile(&mut self, _: UserId) -> Result<ScrapedProfile, CrawlError> {
            Ok(stub_profile())
        }
        fn friends(&mut self, _: UserId) -> Result<Option<Vec<UserId>>, CrawlError> {
            Ok(Some(vec![uid(2)]))
        }
        fn effort(&self) -> Effort {
            Effort { profile_requests: 3, ..Effort::default() }
        }
        fn incomplete_friends(&self) -> Vec<UserId> {
            vec![uid(4)]
        }
        fn tombstoned_users(&self) -> Vec<UserId> {
            vec![uid(5)]
        }
        fn send_message(&mut self, _: UserId, _: &str) -> Result<bool, CrawlError> {
            Ok(true)
        }
        fn circles(
            &mut self,
            _: UserId,
            incoming: bool,
        ) -> Result<Option<Vec<UserId>>, CrawlError> {
            Ok(Some(vec![uid(if incoming { 6 } else { 8 })]))
        }
        fn prefetch_profiles(&mut self, _: &[UserId]) -> Result<(), CrawlError> {
            Err(CrawlError::BadPage("prefetch_profiles forwarded"))
        }
        fn prefetch_friends(&mut self, _: &[UserId]) -> Result<(), CrawlError> {
            Err(CrawlError::BadPage("prefetch_friends forwarded"))
        }
        fn checkpoint(&self) -> CrawlSnapshot {
            CrawlSnapshot { aborted_at: Some((uid(9), "stub".to_string())), ..Default::default() }
        }
        fn virtual_elapsed_ms(&self) -> u64 {
            42
        }
    }

    fn check_forwarding(access: &mut dyn OsnAccess) {
        assert_eq!(access.collect_seeds(SchoolId(0)).unwrap(), vec![uid(1)]);
        assert_eq!(access.profile(uid(7)).unwrap(), stub_profile());
        assert_eq!(access.friends(uid(7)).unwrap(), Some(vec![uid(2)]));
        assert_eq!(access.effort().profile_requests, 3);
        assert_eq!(access.incomplete_friends(), vec![uid(4)]);
        assert_eq!(access.tombstoned_users(), vec![uid(5)]);
        assert!(access.send_message(uid(7), "hi").unwrap());
        assert_eq!(access.circles(uid(7), true).unwrap(), Some(vec![uid(6)]));
        assert_eq!(access.circles(uid(7), false).unwrap(), Some(vec![uid(8)]));
        assert!(matches!(
            access.prefetch_profiles(&[uid(1)]),
            Err(CrawlError::BadPage("prefetch_profiles forwarded"))
        ));
        assert!(matches!(
            access.prefetch_friends(&[uid(1)]),
            Err(CrawlError::BadPage("prefetch_friends forwarded"))
        ));
        assert_eq!(access.checkpoint().aborted_at, Some((uid(9), "stub".to_string())));
        assert_eq!(access.virtual_elapsed_ms(), 42);
    }

    #[test]
    fn access_decorator_forwards_every_method_traced_or_not() {
        check_forwarding(&mut TimedAccess::new(Stub, Lane::new(None)));
        let tracer = Tracer::new();
        let lane = Lane::new(Some(Arc::clone(&tracer)));
        check_forwarding(&mut TimedAccess::new(Stub, Arc::clone(&lane)));
        let spans = tracer.take();
        assert_eq!(spans.len(), 13, "one span per call");
        assert!(spans.iter().all(|s| s.layer == Layer::Crawler && s.parent == lane.root));
    }

    /// Records what it was asked and answers with fixed state.
    #[derive(Default)]
    struct Wire {
        cleared: bool,
        restored: Option<TransportState>,
    }

    impl Exchange for Wire {
        fn exchange(&mut self, req: Request) -> hsp_http::Result<Response> {
            Ok(Response::text(req.target))
        }
        fn clear_session(&mut self) {
            self.cleared = true;
        }
        fn transport_state(&self) -> TransportState {
            TransportState { attempt_seq: 11, jitter_state: 12, ..TransportState::default() }
        }
        fn restore_transport_state(&mut self, state: &TransportState) {
            self.restored = Some(state.clone());
        }
    }

    #[test]
    fn exchange_decorator_forwards_every_method_traced_or_not() {
        for tracer in [None, Some(Tracer::new())] {
            let lane = Lane::new(tracer.clone());
            let mut ex = TimedExchange::new(Wire::default(), Arc::clone(&lane), None);
            let resp = ex.exchange(Request::get("/profile/3")).unwrap();
            assert_eq!(resp.body.as_ref(), b"/profile/3");
            ex.clear_session();
            assert!(ex.inner.cleared);
            assert_eq!(ex.transport_state().attempt_seq, 11);
            let state = TransportState { attempt_seq: 99, ..TransportState::default() };
            ex.restore_transport_state(&state);
            assert_eq!(ex.inner.restored, Some(state));
            drop(ex);
            assert_eq!(lane.take_latencies().len(), 1);
            assert_eq!(lane.failures(), 0);
            if let Some(t) = tracer {
                assert_eq!(t.take().len(), 1);
            }
        }
    }

    #[test]
    fn handler_decorator_links_to_the_exchange_it_serves() {
        let tracer = Tracer::new();
        let lane = Lane::new(Some(Arc::clone(&tracer)));
        let in_flight = Arc::new(InFlight::default());
        let router: Arc<dyn Handler> = Arc::new(|req: &Request| Response::text(req.target.clone()));
        let handler = TimedHandler::wrap(router, Some(Arc::clone(&tracer)), Arc::clone(&in_flight));
        // In-process: the handler runs on the exchange's own thread.
        let mut direct =
            TimedExchange::new(hsp_http::DirectExchange::new(handler.clone()), lane.clone(), None);
        direct.exchange(Request::get("/profile/1")).unwrap();
        // Remote: only the in-flight map connects the two sides.
        in_flight.enter("/friends/2", (77, lane.root));
        std::thread::scope(|s| {
            s.spawn(|| handler.handle(&Request::get("/friends/2")));
        });
        in_flight.leave("/friends/2", 77);
        let spans = tracer.take();
        let exchange = spans.iter().find(|s| s.layer == Layer::Http).expect("exchange span");
        let served: Vec<&Span> = spans.iter().filter(|s| s.layer == Layer::Platform).collect();
        assert_eq!(served[0].parent, exchange.id);
        assert_eq!(served[0].name, "platform.profile");
        assert_eq!(served[1].parent, 77);
        assert_eq!(served[1].name, "platform.friends");
        assert!(served.iter().all(|s| s.lane == lane.root));
    }
}
