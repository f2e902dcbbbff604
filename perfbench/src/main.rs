//! End-to-end and per-layer benchmark of the attack pipeline.
//!
//! ```sh
//! python3 perfbench/run.py --workload metro_city --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each run sets one workload up three times, then attacks the last
//! set-up until `--seconds` is spent, and prints its metrics; the last
//! line of standard output is one JSON object. `--trace 0` reports the end-to-end metrics from
//! untraced attacks. `--trace 1` alternates untraced and traced
//! attacks and reports the per-layer metrics, computed from the
//! spans of the traced ones. See `perfbench/README.md`.

mod stats;
mod trace;
mod workloads;
mod wrap;

use stats::{median, peak_rss_mb, percentile_sorted, tail_percentile_milli};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{self_times, wall_attribution, write_tsv, Layer, Tracer};
use workloads::{Rep, SetupTimes, Workload, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    commit: String,
    source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
        commit: "unknown".to_string(),
        source_digest: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--commit" => args.commit = value,
            "--source-digest" => args.source_digest = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Fewest attacks a run reports on, per kind (untraced, traced).
const MIN_REPS: usize = 2;

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.to_string(), value, unit });
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn counter_sum(snap: &hsp_obs::Snapshot, name: &str) -> u64 {
    let labelled = format!("{name}{{");
    snap.counters
        .iter()
        .filter(|(k, _)| k.as_str() == name || k.starts_with(&labelled))
        .map(|(_, v)| v)
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// End-to-end metrics over the set-ups and the untraced attacks.
fn end_to_end(
    setups: &[SetupTimes],
    reps: &[Rep],
    provenance: &mut BTreeMap<String, String>,
) -> Metrics {
    let of = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    // Each attack's own percentiles, then the median over attacks: a
    // burst of slow exchanges in one attack moves that attack's figure,
    // not the run's.
    let sorted: Vec<Vec<u64>> = reps
        .iter()
        .map(|r| {
            let mut l = r.latencies_ns.clone();
            l.sort_unstable();
            l
        })
        .filter(|l| !l.is_empty())
        .collect();
    let per_attack_us = |p_milli: u64| {
        let v: Vec<f64> =
            sorted.iter().map(|l| percentile_sorted(l, p_milli) as f64 / 1_000.0).collect();
        median(&v)
    };
    let fewest = sorted.iter().map(Vec::len).min().unwrap_or(0);
    let samples = format!("{} attacks x >= {fewest} exchanges", sorted.len());
    provenance.insert("request_p50_us.samples".into(), samples.clone());
    provenance.insert("request_p99_us.samples".into(), samples);
    let mut lat: Vec<u64> = sorted.concat();
    lat.sort_unstable();
    let n = lat.len() as u64;
    let us = |p_milli: u64| percentile_sorted(&lat, p_milli) as f64 / 1_000.0;
    provenance.insert("latency_samples".into(), n.to_string());
    if let Some(p) = tail_percentile_milli(n) {
        provenance.insert("request_tail.percentile".into(), format!("{}", p as f64 / 1_000.0));
        provenance.insert("request_tail.value_us".into(), format!("{}", us(p)));
    }
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>()), "s");
    m.put("attack_s", of(&|r| r.attack_s), "s");
    m.put("requests_per_s", of(&|r| r.latencies_ns.len() as f64 / r.attack_s), "1/s");
    m.put("request_p50_us", per_attack_us(50_000), "us");
    m.put("request_p99_us", per_attack_us(99_000), "us");
    m.put("attack_cpu_s", of(&|r| r.cpu_s), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m
}

/// Per-layer figures of one traced attack.
fn layer_figures(rep: &Rep) -> BTreeMap<&'static str, f64> {
    let own = self_times(&rep.spans);
    let mut f: BTreeMap<&'static str, f64> = BTreeMap::new();
    let secs = |ns: u64| ns as f64 / 1e9;
    let (mut platform_n, mut platform_ns, mut exchanges, mut exchange_ns, mut transport_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut calls, mut crawler_ns, mut crawler_self_ns) = (0u64, 0u64, 0u64);
    let (mut basic_self, mut enhanced_self) = (0u64, 0u64);
    let mut route: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, &own) in rep.spans.iter().zip(&own) {
        match s.layer {
            Layer::Platform => {
                platform_n += 1;
                platform_ns += s.duration_ns();
                *route.entry(s.name).or_default() += s.duration_ns();
            }
            Layer::Http => {
                exchanges += 1;
                exchange_ns += s.duration_ns();
                transport_ns += own;
            }
            Layer::Crawler => {
                calls += 1;
                crawler_ns += s.duration_ns();
                crawler_self_ns += own;
            }
            Layer::Core => match s.name {
                "core.run_basic" => basic_self += own,
                "core.run_enhanced" => enhanced_self += own,
                _ => {}
            },
            Layer::Attack => {}
        }
    }
    let c = |name: &str| counter_sum(&rep.counters, name) as f64;
    let wall = wall_attribution(&rep.spans);
    let pages = rep.efforts.iter().map(|e| e.total()).sum::<u64>() as f64;
    let retries = rep.retries as f64;
    let ex = exchanges as f64;
    f.insert("platform.requests", platform_n as f64);
    f.insert("platform.busy_s", secs(platform_ns));
    f.insert("platform.us_per_request", ratio(platform_ns as f64 / 1e3, platform_n as f64));
    for (metric, span) in [
        ("platform.route.find_friends.busy_s", "platform.find_friends"),
        ("platform.route.profile.busy_s", "platform.profile"),
        ("platform.route.friends.busy_s", "platform.friends"),
    ] {
        f.insert(metric, secs(route.get(span).copied().unwrap_or(0)));
    }
    f.insert("platform.mutations_applied", rep.mutations_applied as f64);
    f.insert("platform.mutation_events", rep.mutation_events as f64);
    f.insert("platform.faults_injected", c("platform_fault_injected_total"));
    f.insert("http.exchanges", ex);
    f.insert("http.exchange_s", secs(exchange_ns));
    f.insert("http.transport_s", secs(transport_ns));
    f.insert("http.transport_us_per_request", ratio(transport_ns as f64 / 1e3, ex));
    f.insert("http.request_bytes", c("http_route_request_bytes_total"));
    f.insert("http.response_bytes", c("http_route_response_bytes_total"));
    f.insert("http.connections_opened", c("http_server_connections_total"));
    f.insert("http.retries", retries);
    f.insert("http.retry_ratio", ratio(retries, ex));
    f.insert("failed_request_ratio", ratio(retries + rep.failed_exchanges as f64, ex + retries));
    f.insert("crawler.calls", calls as f64);
    f.insert("crawler.busy_s", secs(crawler_ns));
    f.insert("crawler.self_s", secs(crawler_self_ns));
    f.insert("crawler.self_us_per_page", ratio(crawler_self_ns as f64 / 1e3, pages));
    f.insert("crawler.pages", pages);
    let hits: u64 = rep
        .counters
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("crawler_cache_total{") && k.contains("result=\"hit\""))
        .map(|(_, v)| v)
        .sum();
    let lookups = c("crawler_cache_total");
    f.insert("crawler.cache_hit_ratio", ratio(hits as f64, lookups));
    f.insert(
        "crawler.worker_busy_ratio",
        ratio(secs(exchange_ns), rep.attack_s * rep.load_threads as f64),
    );
    f.insert("journal.appends", c("crawler_journal_appends_total"));
    f.insert("journal.bytes", c("crawler_journal_bytes_total"));
    f.insert("journal.syncs", c("crawler_journal_syncs_total"));
    f.insert("journal.write_s", c("crawler_journal_write_us_total") / 1e6);
    f.insert("core.basic_self_s", secs(basic_self));
    f.insert("core.enhanced_self_s", secs(enhanced_self));
    f.insert("core.candidates", rep.candidates as f64);
    let layers = [Layer::Core, Layer::Crawler, Layer::Http, Layer::Platform];
    for layer in layers {
        let name = match layer {
            Layer::Core => "core.wall_s",
            Layer::Crawler => "crawler.wall_s",
            Layer::Http => "http.wall_s",
            _ => "platform.wall_s",
        };
        f.insert(name, wall[layer as usize] / 1e9);
    }
    let attributed: f64 = layers.iter().map(|&l| wall[l as usize]).sum::<f64>() / 1e9;
    f.insert("trace.closure_ratio", ratio(attributed, rep.attack_s));
    f
}

/// Per-layer metrics: set-up figures over the set-ups, the rest as
/// medians over the traced attacks.
fn per_layer(setups: &[SetupTimes], untraced: &[Rep], traced: &[Rep]) -> Metrics {
    let of = |f: &dyn Fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.put("synth.build_s", of(&|t| t.build_s), "s");
    m.put("synth.users_per_s", of(&|t| t.users as f64 / t.build_s), "1/s");
    m.put("platform.mount_s", of(&|t| t.mount_s), "s");
    let figures: Vec<BTreeMap<&'static str, f64>> = traced.iter().map(layer_figures).collect();
    for (name, unit) in PER_LAYER_UNITS {
        let values: Vec<f64> = figures.iter().map(|f| f[name]).collect();
        m.put(name, median(&values), unit);
    }
    let attack = |reps: &[Rep]| median(&reps.iter().map(|r| r.attack_s).collect::<Vec<_>>());
    m.put("trace.overhead_ratio", attack(traced) / attack(untraced) - 1.0, "ratio");
    m
}

/// Units of the per-layer figures computed from traced attacks, in
/// report order.
const PER_LAYER_UNITS: [(&str, &str); 38] = [
    ("platform.requests", "count"),
    ("platform.busy_s", "s"),
    ("platform.us_per_request", "us"),
    ("platform.route.find_friends.busy_s", "s"),
    ("platform.route.profile.busy_s", "s"),
    ("platform.route.friends.busy_s", "s"),
    ("platform.mutations_applied", "count"),
    ("platform.mutation_events", "count"),
    ("platform.faults_injected", "count"),
    ("platform.wall_s", "s"),
    ("http.exchanges", "count"),
    ("http.exchange_s", "s"),
    ("http.transport_s", "s"),
    ("http.transport_us_per_request", "us"),
    ("http.request_bytes", "bytes"),
    ("http.response_bytes", "bytes"),
    ("http.connections_opened", "count"),
    ("http.retries", "count"),
    ("http.retry_ratio", "ratio"),
    ("http.wall_s", "s"),
    ("failed_request_ratio", "ratio"),
    ("crawler.calls", "count"),
    ("crawler.busy_s", "s"),
    ("crawler.self_s", "s"),
    ("crawler.self_us_per_page", "us"),
    ("crawler.pages", "count"),
    ("crawler.cache_hit_ratio", "ratio"),
    ("crawler.worker_busy_ratio", "ratio"),
    ("crawler.wall_s", "s"),
    ("journal.appends", "count"),
    ("journal.bytes", "bytes"),
    ("journal.syncs", "count"),
    ("journal.write_s", "s"),
    ("core.basic_self_s", "s"),
    ("core.enhanced_self_s", "s"),
    ("core.candidates", "count"),
    ("core.wall_s", "s"),
    ("trace.closure_ratio", "ratio"),
];

fn write_result(
    path: &Path,
    provenance: &BTreeMap<String, String>,
    metrics: &Metrics,
    correct: bool,
    attempted: usize,
    failed: usize,
    errors: &[String],
) -> std::io::Result<()> {
    let prov: Vec<String> =
        provenance.iter().map(|(k, v)| format!("{}: {}", json_string(k), json_string(v))).collect();
    let errs: Vec<String> = errors.iter().map(|e| json_string(e)).collect();
    let body = format!(
        "{{\"provenance\": {{{}}}, \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"errors\": [{}], \"metrics\": {}}}\n",
        prov.join(", "),
        errs.join(", "),
        metrics_json(metrics)
    );
    std::fs::write(path, body)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let workload = Workload::new(&args.workload, args.seed).expect("workload name checked");
    let started = Instant::now();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut errors: Vec<String> = Vec::new();

    // Set up several times (each world dropped before the next is
    // built) and attack the last one.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut world = None;
    for _ in 0..SETUPS {
        world = None;
        attempted += 1;
        match workload.setup() {
            Ok((w, times)) => {
                eprintln!(
                    "perfbench: {} setup {}: {:.3}s ({} users)",
                    args.workload,
                    setups.len() + 1,
                    times.total_s(),
                    times.users
                );
                setups.push(times);
                world = Some(w);
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("setup: {e}"));
                break;
            }
        }
    }

    let (mut untraced, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let mut reference: Option<u64> = None;
    let mut last_rep_s = 0.0;
    while let Some(world) = &world {
        let traced_turn = args.trace && untraced.len() > traced.len();
        let enough = untraced.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_REPS);
        let elapsed = started.elapsed().as_secs_f64();
        if enough && (elapsed + last_rep_s > args.seconds) {
            break;
        }
        // A run that cannot finish its minimum within four times its
        // budget (and a minute) stops rather than overrun the caller's
        // limit.
        if elapsed > (4.0 * args.seconds).max(60.0) {
            errors.push(format!("stopped after {elapsed:.1}s with too few attacks"));
            failed += 1;
            break;
        }
        let rep_started = Instant::now();
        attempted += 1;
        let first = untraced.is_empty() && traced.is_empty();
        let result =
            workload.attack(world, args.seed, traced_turn.then(Tracer::new), first, &args.out_dir);
        last_rep_s = rep_started.elapsed().as_secs_f64();
        match result {
            Ok(rep) => {
                let expected = *reference.get_or_insert(rep.digest());
                if rep.digest() != expected {
                    failed += 1;
                    errors.push(format!(
                        "attack {attempted} ({}) digest {:016x} != {:016x}",
                        if traced_turn { "traced" } else { "untraced" },
                        rep.digest(),
                        expected
                    ));
                }
                eprintln!(
                    "perfbench: {} attack {}{}: {:.3}s digest {:016x}",
                    args.workload,
                    untraced.len() + traced.len() + 1,
                    if traced_turn { " (traced)" } else { "" },
                    rep.attack_s,
                    rep.digest()
                );
                if traced_turn {
                    traced.push(rep);
                } else {
                    untraced.push(rep);
                }
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("attack {attempted}: {e}"));
                break;
            }
        }
    }
    drop(world);

    let mut provenance: BTreeMap<String, String> = BTreeMap::new();
    provenance.insert("workload".into(), args.workload.clone());
    provenance.insert("seed".into(), args.seed.to_string());
    provenance.insert("seconds".into(), args.seconds.to_string());
    provenance.insert("trace".into(), (args.trace as u8).to_string());
    provenance.insert("commit".into(), args.commit.clone());
    provenance.insert("source_digest".into(), args.source_digest.clone());
    provenance.insert("nproc".into(), workloads::nproc().to_string());
    if let Some(rep) = untraced.first() {
        provenance.insert("exchange_threads".into(), rep.load_threads.to_string());
    }
    provenance.insert(
        "profile".into(),
        if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
    );
    provenance.insert("setups".into(), setups.len().to_string());
    provenance.insert("untraced_attacks".into(), untraced.len().to_string());
    provenance.insert("traced_attacks".into(), traced.len().to_string());
    provenance.insert("digest".into(), format!("{:016x}", reference.unwrap_or(0)));

    let correct = failed == 0 && !untraced.is_empty() && (!args.trace || !traced.is_empty());
    let metrics = if !correct {
        Metrics::default()
    } else if args.trace {
        if let Some(rep) = traced.last() {
            let path = args.out_dir.join(format!("spans-{}.tsv", args.workload));
            match write_tsv(&path, &rep.spans) {
                Ok(()) => {
                    provenance.insert("spans_file".into(), path.display().to_string());
                    provenance.insert("spans".into(), rep.spans.len().to_string());
                }
                Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
            }
        }
        per_layer(&setups, &untraced, &traced)
    } else {
        end_to_end(&setups, &untraced, &mut provenance)
    };
    for (k, v) in &provenance {
        println!("# {k}: {v}");
    }
    for m in &metrics.0 {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let result_path =
        args.out_dir.join(format!("result-{}-trace{}.json", args.workload, args.trace as u8));
    if let Err(e) =
        write_result(&result_path, &provenance, &metrics, correct, attempted, failed, &errors)
    {
        eprintln!("perfbench: cannot write {}: {e}", result_path.display());
    }
    for e in &errors {
        eprintln!("perfbench: error: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
