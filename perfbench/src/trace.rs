//! In-memory spans and the two analyses the per-layer metrics rest on.
//!
//! Spans are recorded by the benchmark's own decorators around the
//! program's public boundaries (see `wrap.rs`); nothing inside the
//! program is instrumented. They stay in memory until the run ends.
//!
//! * **Self time** of a span is its duration minus the part of its
//!   interval that the *union* of its children covers. Children of one
//!   crawler call run on several worker threads and overlap, so plain
//!   subtraction of their durations would undercount (or go negative).
//! * **Wall attribution** splits the attack's wall clock over layers:
//!   at each instant, every attack lane (one per school attacked) is in
//!   its deepest active layer, and concurrent lanes share the instant
//!   equally. The layer shares add up to the time some lane was active,
//!   so comparing their sum with the separately measured attack wall
//!   time shows how much of the attack the spans account for.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A boundary the benchmark times. Declaration order is nesting depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The root span of one attack lane; its self time is unattributed.
    Attack,
    /// `hsp_core::run_basic` / `run_enhanced` / `evaluate`.
    Core,
    /// `hsp_crawler::OsnAccess` methods and crawler construction.
    Crawler,
    /// `hsp_http::Exchange::exchange` as the crawler calls it.
    Http,
    /// `hsp_http::Handler::handle` on the platform's router.
    Platform,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Attack => "attack",
            Layer::Core => "core",
            Layer::Crawler => "crawler",
            Layer::Http => "http",
            Layer::Platform => "platform",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One completed span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a lane root).
    pub parent: u64,
    /// Root span id of the attack lane this span belongs to.
    pub lane: u64,
    /// The `http.exchange` span id this span serves (0 above the wire).
    pub request: u64,
    pub layer: Layer,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Small dense id of the calling thread (stable for its lifetime).
pub fn thread_index() -> u64 {
    THREAD.with(|t| *t)
}

const SHARDS: usize = 16;

/// Collects spans from every thread into lock-sharded buffers.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    shards: Vec<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        let shard = span.thread as usize % SHARDS;
        self.shards[shard].lock().expect("span shard poisoned").push(span);
    }

    /// Drain every recorded span, ordered by start time then id.
    pub fn take(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .shards
            .iter()
            .flat_map(|s| std::mem::take(&mut *s.lock().expect("span shard poisoned")))
            .collect();
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }
}

/// One attack lane: the context that lets spans recorded on worker and
/// server threads name their parent. Untraced lanes only collect
/// exchange latencies and failure counts.
pub struct Lane {
    pub tracer: Option<Arc<Tracer>>,
    pub root: u64,
    root_start_ns: u64,
    core: AtomicU64,
    crawler: AtomicU64,
    latencies_ns: Mutex<Vec<u64>>,
    failed: AtomicU64,
}

impl Lane {
    pub fn new(tracer: Option<Arc<Tracer>>) -> Arc<Lane> {
        let (root, root_start_ns) = match &tracer {
            Some(t) => (t.next_id(), t.now_ns()),
            None => (0, 0),
        };
        Arc::new(Lane {
            tracer,
            root,
            root_start_ns,
            core: AtomicU64::new(0),
            crawler: AtomicU64::new(0),
            latencies_ns: Mutex::new(Vec::new()),
            failed: AtomicU64::new(0),
        })
    }

    /// Record the lane's root span, from creation until now.
    pub fn close(&self) {
        if let Some(t) = &self.tracer {
            t.record(Span {
                id: self.root,
                parent: 0,
                lane: self.root,
                request: 0,
                layer: Layer::Attack,
                name: "attack",
                thread: thread_index(),
                start_ns: self.root_start_ns,
                end_ns: t.now_ns(),
            });
        }
    }

    /// The innermost open core or crawler span of this lane, else the root.
    pub fn current(&self) -> u64 {
        match self.crawler.load(Ordering::Relaxed) {
            0 => match self.core.load(Ordering::Relaxed) {
                0 => self.root,
                core => core,
            },
            crawler => crawler,
        }
    }

    /// Run `f` inside a `Core` or `Crawler` span of this lane. Calls on
    /// one lane nest on one thread, so the open span is a plain slot.
    pub fn span<T>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(tracer) = &self.tracer else { return f() };
        let slot = match layer {
            Layer::Core => &self.core,
            Layer::Crawler => &self.crawler,
            _ => unreachable!("lane spans are core or crawler spans"),
        };
        let id = tracer.next_id();
        let parent = self.current();
        let start_ns = tracer.now_ns();
        let outer = slot.swap(id, Ordering::Relaxed);
        let out = f();
        slot.store(outer, Ordering::Relaxed);
        tracer.record(Span {
            id,
            parent,
            lane: self.root,
            request: 0,
            layer,
            name,
            thread: thread_index(),
            start_ns,
            end_ns: tracer.now_ns(),
        });
        out
    }

    pub fn add_latencies(&self, samples: &mut Vec<u64>) {
        if let Ok(mut all) = self.latencies_ns.lock() {
            all.append(samples);
        }
    }

    pub fn take_latencies(&self) -> Vec<u64> {
        std::mem::take(&mut *self.latencies_ns.lock().expect("latency sink poisoned"))
    }

    pub fn count_failure(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn failures(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

thread_local! {
    /// `(exchange span, lane)` open on this thread, so a handler called
    /// in-process on the same thread knows which request it serves.
    static OPEN_EXCHANGE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

pub fn open_exchange() -> (u64, u64) {
    OPEN_EXCHANGE.with(Cell::get)
}

pub fn set_open_exchange(v: (u64, u64)) -> (u64, u64) {
    OPEN_EXCHANGE.with(|c| c.replace(v))
}

/// Total length of the union of half-open intervals (sorted in place).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span (same order as `spans`): its duration minus
/// the union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = match children.get_mut(&s.id) {
                Some(kids) => {
                    let mut clipped: Vec<(u64, u64)> =
                        kids.iter().map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns))).collect();
                    union_len(&mut clipped)
                }
                None => 0,
            };
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Wall-clock nanoseconds attributed to each layer (indexed by
/// [`Layer`] order; `Attack` holds lane time no deeper span covers).
pub fn wall_attribution(spans: &[Span]) -> [f64; 5] {
    let lanes: Vec<u64> = {
        let mut l: Vec<u64> =
            spans.iter().filter(|s| s.layer == Layer::Attack).map(|s| s.id).collect();
        l.sort_unstable();
        l
    };
    let lane_index = |id: u64| lanes.binary_search(&id).ok();
    // (time, delta, lane index, layer index); ends sort before starts.
    let mut events: Vec<(u64, i32, usize, usize)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        if let Some(li) = lane_index(s.lane) {
            events.push((s.start_ns, 1, li, s.layer.index()));
            events.push((s.end_ns, -1, li, s.layer.index()));
        }
    }
    events.sort_unstable();
    let mut open = vec![[0i32; 5]; lanes.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut out = [0f64; 5];
    let mut prev = events.first().map_or(0, |e| e.0);
    for (t, delta, li, layer) in events {
        if t > prev && !active.is_empty() {
            let share = (t - prev) as f64 / active.len() as f64;
            for &l in &active {
                let deepest = (0..5).rev().find(|&k| open[l][k] > 0).unwrap_or(0);
                out[deepest] += share;
            }
        }
        prev = t;
        open[li][layer] += delta;
        if layer == Layer::Attack.index() {
            active.retain(|&l| l != li);
            if open[li][layer] > 0 {
                active.push(li);
            }
        }
    }
    out
}

/// Write spans as tab-separated lines (one header line first).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tlane\trequest\tlayer\tname\tthread\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.lane,
            s.request,
            s.layer.name(),
            s.name,
            s.thread,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn span(id: u64, parent: u64, layer: Layer, thread: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            lane: 1,
            request: 0,
            layer,
            name: layer.name(),
            thread,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_empty_intervals() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25), (7, 7)]), 20);
        assert_eq!(union_len(&mut [(20, 30), (0, 10), (10, 20)]), 30);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A crawler call [0, 100) whose two workers run exchanges on
        // threads 2 and 3: [10, 60) and [40, 90) overlap on [40, 60).
        // Plain subtraction gives 100 - 50 - 50 = 0; the union covers
        // [10, 90), so the call's own time is 20.
        let spans = vec![
            span(1, 0, Layer::Attack, 1, 0, 100),
            span(2, 1, Layer::Crawler, 1, 0, 100),
            span(3, 2, Layer::Http, 2, 10, 60),
            span(4, 2, Layer::Http, 3, 40, 90),
            span(5, 3, Layer::Platform, 2, 20, 30),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![0, 20, 40, 50, 10]);
    }

    #[test]
    fn self_time_clips_children_that_escape_their_parent() {
        let spans = vec![span(1, 0, Layer::Crawler, 1, 10, 20), span(2, 1, Layer::Http, 2, 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn spans_recorded_on_two_threads_keep_their_overlap() {
        // Two worker threads each hold an exchange open at the same
        // moment (forced by a barrier), under one crawler call.
        let tracer = Tracer::new();
        let lane = Lane::new(Some(Arc::clone(&tracer)));
        let barrier = Barrier::new(2);
        lane.span(Layer::Crawler, "crawler.prefetch_profiles", || {
            let parent = lane.current();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let start_ns = tracer.now_ns();
                        barrier.wait();
                        let end_ns = tracer.now_ns().max(start_ns + 1);
                        tracer.record(Span {
                            id: tracer.next_id(),
                            parent,
                            lane: lane.root,
                            request: 0,
                            layer: Layer::Http,
                            name: "http.exchange",
                            thread: thread_index(),
                            start_ns,
                            end_ns,
                        });
                    });
                }
            });
        });
        lane.close();
        let spans = tracer.take();
        assert_eq!(spans.len(), 4);
        let kids: Vec<&Span> = spans.iter().filter(|s| s.layer == Layer::Http).collect();
        assert_ne!(kids[0].thread, kids[1].thread);
        // Both exchanges were open when the barrier released.
        assert!(kids[0].start_ns < kids[1].end_ns && kids[1].start_ns < kids[0].end_ns);
        let own = self_times(&spans);
        let call = spans.iter().position(|s| s.layer == Layer::Crawler).expect("call span");
        let mut iv: Vec<(u64, u64)> = kids.iter().map(|s| (s.start_ns, s.end_ns)).collect();
        let union = union_len(&mut iv);
        assert!(union < kids.iter().map(|s| s.duration_ns()).sum::<u64>());
        assert_eq!(own[call], spans[call].duration_ns() - union);
    }

    #[test]
    fn wall_attribution_shares_instants_between_concurrent_lanes() {
        // Lane A [0, 100): core [0, 100) with a crawler call [20, 60).
        // Lane B [50, 150): no children.
        let mut spans = vec![
            span(1, 0, Layer::Attack, 1, 0, 100),
            span(2, 1, Layer::Core, 1, 0, 100),
            span(3, 2, Layer::Crawler, 1, 20, 60),
            span(10, 0, Layer::Attack, 2, 50, 150),
        ];
        spans[3].lane = 10;
        let wall = wall_attribution(&spans);
        // [0,20) core, [20,50) crawler, [50,60) crawler/2 + attack/2,
        // [60,100) core/2 + attack/2, [100,150) attack.
        assert_eq!(wall[Layer::Core.index()], 20.0 + 20.0);
        assert_eq!(wall[Layer::Crawler.index()], 30.0 + 5.0);
        assert_eq!(wall[Layer::Attack.index()], 5.0 + 20.0 + 50.0);
        assert_eq!(wall.iter().sum::<f64>(), 150.0);
    }
}
