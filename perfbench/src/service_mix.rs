//! `service_mix`: one in-process daemon under an open-loop request stream.
//!
//! `nproc` worker threads call `Daemon::handle_line`; a generator thread
//! releases each request at its due time (a fixed rate), and latency runs
//! from the due time, so a stall also charges the requests queued behind
//! it. The mix, in exact shares per block of 100 requests that the
//! workload seed shuffles:
//!
//! - half are exact repeats of a hot set of [`HOT_REQUESTS`] `evaluate`
//!   lines, fewer than the result cache holds, so they are cache hits;
//! - about a fifth change only the marking of one of [`STRUCTURES`] graph
//!   structures, more than the session pool holds: a cache miss served by a
//!   warm or cold checkout and a marking-only arena patch;
//! - a few are new structures (cold);
//! - about a fifth are `sweep`, `min_storage` and `scenario_set` on
//!   JPEG2000 and rate-ladder rings;
//! - a few are `lint` and `verify`;
//! - a few are malformed or over the admission caps and must get typed
//!   errors.
//!
//! After the open loop, `nproc` closed-loop clients measure capacity on a
//! fresh request list of the same mix. Every response is then checked
//! against a fresh daemon's answer to the same line, and every `evaluate`
//! throughput against `kperiodic::optimal_throughput`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use csdf::transform::bound_all_buffers_tracked;
use csdf::{BufferId, CsdfGraph, CsdfGraphBuilder};
use csdf_baselines::{expansion_throughput, Budget};
use csdf_explore::{
    min_storage_for_throughput_on, uniform_slack_capacity, ParetoSweep, ScenarioSet,
};
use csdf_generators::apps::{industrial_app, jpeg2000};
use csdf_generators::{random_graph, RandomGraphConfig};
use csdf_service::{parse_request, throughput_to_string, Daemon, Json, RequestBody, ServiceConfig};
use kperiodic::{AnalysisSession, EventGraphArena, KIterOptions, PeriodicityVector};

use crate::inputs::{timed_setup, SplitMix};
use crate::kiter_op::{replay, traced_op, ReplayCounts};
use crate::report::{LayerSamples, Report};
use crate::stats::{median, peak_rss_mb, percentile, ratio, samples_beyond};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Hot,
    Variant,
    New,
    Composite,
    Check,
    Error,
}

/// The request mix per block of 100 consecutive requests, in shuffled
/// order: exact shares keep the work of runs on different seeds alike.
const BLOCK: [(Kind, usize); 6] = [
    (Kind::Hot, 50),
    (Kind::Variant, 22),
    (Kind::New, 4),
    (Kind::Composite, 19),
    (Kind::Check, 3),
    (Kind::Error, 2),
];

/// Graph structures the marking-only requests cycle through: more than the
/// daemon's session pool keeps warm (16).
const STRUCTURES: usize = 24;
/// Distinct exact `evaluate` lines repeated verbatim: fewer than the
/// result cache holds (256).
const HOT_REQUESTS: usize = 96;
/// Open-loop arrival rate.
const RATE_PER_S: f64 = 100.0;
/// The latency limit behind `slo_ok_ratio`.
const SLO_MS: f64 = 50.0;
const TAIL_PERCENTILE: f64 = 99.0;

fn config() -> ServiceConfig {
    ServiceConfig {
        max_line_bytes: 1 << 16,
        max_tasks: 512,
        ..ServiceConfig::default()
    }
}

/// What a correct response to a line looks like, beyond matching a fresh
/// daemon's.
#[derive(Debug, Clone)]
enum Expect {
    /// `"status":"ok"` with the `optimal_throughput` of this graph text;
    /// `structure` names the pooled structure a marking variant re-marks.
    Evaluate {
        text: String,
        structure: Option<usize>,
    },
    /// `"status":"ok"`.
    Ok,
    /// `"status":"error"` of this kind.
    Error(&'static str),
}

/// A rate-ladder ring of `tasks` tasks (a multiple of 12): rates triple for
/// six stages and fall back over the next six, so the repetition vector
/// climbs to 729 and back around every twelve tasks; the task closing each
/// twelve has three phases. `tokens` sit on the buffer that closes the ring.
/// Every task is serialised: K-Iter leaves the firings of an unserialised
/// multiphase task unordered and answers `unbounded` on such a ring.
fn ladder_ring(tasks: usize, tokens: u64) -> CsdfGraph {
    assert_eq!(tasks % 12, 0, "the ladder closes every 12 tasks");
    let rising = |index: usize| index % 12 < 6;
    let mut builder = CsdfGraphBuilder::named(format!("ring{tasks}"));
    let ids: Vec<_> = (0..tasks)
        .map(|index| {
            let duration = 1 + (index as u64 * 7) % 5;
            if index.is_multiple_of(12) {
                builder.add_task(
                    format!("t{index}"),
                    vec![duration, duration + 2, duration + 1],
                )
            } else {
                builder.add_sdf_task(format!("t{index}"), duration)
            }
        })
        .collect();
    for index in 0..tasks {
        let next = (index + 1) % tasks;
        let (produce, consume) = if rising(index) {
            let produce = if index.is_multiple_of(12) {
                vec![1, 1, 1]
            } else {
                vec![3]
            };
            (produce, vec![1])
        } else {
            let consume = if next.is_multiple_of(12) {
                vec![1, 1, 1]
            } else {
                vec![3]
            };
            (vec![1], consume)
        };
        let initial = if next == 0 { tokens } else { 0 };
        builder.add_buffer(ids[index], ids[next], produce, consume, initial);
    }
    for &task in &ids {
        builder.add_serializing_self_loop(task);
    }
    builder.build().expect("the ladder ring is consistent")
}

fn small_random(seed: u64) -> CsdfGraph {
    let config = RandomGraphConfig {
        tasks: 8 + (seed % 13) as usize,
        extra_edges: 4,
        feedback_edges: 2,
        repetition_choices: vec![1, 2, 3, 4, 6],
        max_phases: 3,
        duration_range: (1, 20),
        marking_factor: 2,
        serialize: true,
        locality: None,
    };
    random_graph(&config, seed).expect("small random graphs generate")
}

fn text_spec(text: &str) -> Json {
    Json::Object(vec![
        ("format".to_string(), Json::Str("text".to_string())),
        ("source".to_string(), Json::Str(text.to_string())),
    ])
}

/// A graph structure whose marking the variants change: `buffer` holds
/// `tokens` in the base graph.
struct Structure {
    graph: CsdfGraph,
    buffer: BufferId,
    tokens: u64,
}

impl Structure {
    fn new(graph: CsdfGraph) -> Structure {
        let (buffer, tokens) = graph
            .buffers()
            .find(|(_, buffer)| !buffer.is_self_loop() && buffer.initial_tokens() > 0)
            .map(|(id, buffer)| (id, buffer.initial_tokens()))
            .expect("every structure has a marked feedback buffer");
        Structure {
            graph,
            buffer,
            tokens,
        }
    }

    fn with_extra_tokens(&self, extra: u64) -> String {
        let mut graph = self.graph.clone();
        graph
            .set_initial_tokens(self.buffer, self.tokens + extra)
            .expect("the buffer exists");
        csdf::text::to_text(&graph)
    }
}

/// Every distinct request line, with what a correct answer looks like.
#[derive(Default)]
struct Lines {
    lines: Vec<String>,
    expect: Vec<Expect>,
}

impl Lines {
    fn add(&mut self, body: impl FnOnce(usize) -> String, expect: Expect) -> usize {
        let id = self.lines.len();
        self.lines.push(body(id));
        self.expect.push(expect);
        id
    }

    fn evaluate(&mut self, text: String, structure: Option<usize>) -> usize {
        let spec = text_spec(&text);
        self.add(
            |id| format!(r#"{{"id":{id},"type":"evaluate","graph":{spec}}}"#),
            Expect::Evaluate { text, structure },
        )
    }
}

struct Mix {
    lines: Lines,
    structures: Vec<Structure>,
    /// Warm-up order: every hot line, then every fixed composite line.
    warmup: Vec<usize>,
    /// Request schedules: the open loop, then the closed loop.
    schedules: [Vec<usize>; 2],
}

fn composite_lines(lines: &mut Lines) -> Vec<usize> {
    let jpeg = csdf::text::to_text(&industrial_app(&jpeg2000()).expect("JPEG2000 generates"));
    let jpeg_graph = csdf::text::parse(&jpeg).expect("JPEG2000 parses");
    let (jpeg_buffer, jpeg_tokens) = jpeg_graph
        .buffers()
        .find(|(_, buffer)| !buffer.is_self_loop() && buffer.initial_tokens() > 0)
        .map(|(id, buffer)| (id.index(), buffer.initial_tokens()))
        .expect("JPEG2000 has a marked feedback buffer");
    let jpeg = text_spec(&jpeg);
    let ring36 = text_spec(&csdf::text::to_text(&ladder_ring(36, 4)));
    // Each costs at most a few tens of milliseconds: a request much longer than the rest
    // would make the latency tail a matter of which requests collide.
    let bodies = [
        format!(r#""type":"sweep","graph":{jpeg},"slacks":[4,8]"#),
        format!(r#""type":"sweep","graph":{ring36},"slacks":[1,2,4]"#),
        format!(r#""type":"min_storage","graph":{jpeg},"target":"1/300000","max_slack":8"#),
        format!(
            r#""type":"scenario_set","graph":{jpeg},"scenarios":[{{"name":"double","markings":[[{jpeg_buffer},{}]]}},{{"name":"triple","markings":[[{jpeg_buffer},{}]]}}]"#,
            2 * jpeg_tokens,
            3 * jpeg_tokens
        ),
        format!(
            r#""type":"scenario_set","graph":{ring36},"scenarios":[{{"name":"tight","markings":[[35,4]]}},{{"name":"relaxed","markings":[[35,8]]}}]"#
        ),
    ];
    bodies
        .into_iter()
        .map(|body| lines.add(|id| format!(r#"{{"id":{id},{body}}}"#), Expect::Ok))
        .collect()
}

fn error_lines(lines: &mut Lines) -> Vec<usize> {
    let oversized = format!("# {}\n", "x".repeat(1 << 16));
    let oversized = text_spec(&oversized);
    let too_many_tasks = text_spec(&csdf::text::to_text(&ladder_ring(612, 3)));
    vec![
        lines.add(
            |id| format!(r#"{{"id":{id},"type":"evaluate","graph":"#),
            Expect::Error("parse"),
        ),
        lines.add(
            |id| format!(r#"{{"id":{id},"type":"simulate","graph":{{}}}}"#),
            Expect::Error("parse"),
        ),
        lines.add(
            |id| format!(r#"{{"id":{id},"type":"evaluate","graph":{oversized}}}"#),
            Expect::Error("rejected"),
        ),
        lines.add(
            |id| format!(r#"{{"id":{id},"type":"evaluate","graph":{too_many_tasks}}}"#),
            Expect::Error("rejected"),
        ),
    ]
}

fn check_lines(lines: &mut Lines) -> Vec<usize> {
    let serialized = {
        let mut builder = CsdfGraphBuilder::new();
        let a = builder.add_sdf_task("a", 2);
        let b = builder.add_task("b", vec![1, 3]);
        let c = builder.add_sdf_task("c", 1);
        builder.add_buffer(a, b, vec![2], vec![1, 1], 0);
        builder.add_buffer(b, c, vec![1, 1], vec![2], 0);
        builder.add_sdf_buffer(c, a, 1, 1, 2);
        for task in [a, b, c] {
            builder.add_serializing_self_loop(task);
        }
        builder.build().expect("the serialised ring is consistent")
    };
    let specs = [
        text_spec(&csdf::text::to_text(&ladder_ring(36, 4))),
        text_spec(&csdf::text::to_text(&small_random(STRUCTURES as u64))),
        text_spec(&csdf::text::to_text(&serialized)),
    ];
    // A verify request runs the expansion baseline on graphs within its
    // `max_expansion` copies; the small limit keeps that to the serialised
    // ring, as a larger expansion would stall a worker for seconds.
    let mut ids = Vec::new();
    for spec in &specs {
        ids.push(lines.add(
            |id| format!(r#"{{"id":{id},"type":"lint","graph":{spec}}}"#),
            Expect::Ok,
        ));
        ids.push(lines.add(
            |id| format!(r#"{{"id":{id},"type":"verify","graph":{spec},"max_expansion":64}}"#),
            Expect::Ok,
        ));
    }
    ids
}

fn generate(seed: u64, open_requests: usize, closed_requests: usize) -> Mix {
    let mut rng = SplitMix::new(seed);
    let mut lines = Lines::default();
    // The pooled structures are the same for every seed, so seeds differ in
    // request order and in the new structures only, not in the work.
    let structures: Vec<Structure> = (0..STRUCTURES)
        .map(|index| {
            // Rings of 12 to 96 tasks; six tokens keep a serialised ladder
            // ring to one or two K-Iter iterations.
            if index % 3 == 0 {
                Structure::new(ladder_ring(12 * (1 + index / 3), 6))
            } else {
                Structure::new(small_random(index as u64))
            }
        })
        .collect();
    let hot: Vec<usize> = (0..HOT_REQUESTS)
        .map(|index| {
            let structure = index % STRUCTURES;
            let text = structures[structure].with_extra_tokens((index / STRUCTURES) as u64);
            lines.evaluate(text, Some(structure))
        })
        .collect();
    let fixed = composite_lines(&mut lines);
    let errors = error_lines(&mut lines);
    let checks = check_lines(&mut lines);
    let warmup = hot.iter().chain(&fixed).copied().collect();

    // Marking variants take fresh token counts above the hot set's, so
    // every variant is new to the cache.
    let mut next_extra = [(HOT_REQUESTS / STRUCTURES) as u64; STRUCTURES];
    let mut rotation = 0;
    let mut schedule = |count: usize, rng: &mut SplitMix, lines: &mut Lines| -> Vec<usize> {
        let mut requests = Vec::with_capacity(count + 100);
        while requests.len() < count {
            let mut block: Vec<Kind> = BLOCK
                .iter()
                .flat_map(|&(kind, share)| std::iter::repeat_n(kind, share))
                .collect();
            rng.shuffle(&mut block);
            for kind in block {
                rotation += 1;
                requests.push(match kind {
                    Kind::Hot => hot[rng.below(hot.len() as u64) as usize],
                    Kind::Variant => {
                        let structure = rng.below(STRUCTURES as u64) as usize;
                        next_extra[structure] += 1;
                        let text = structures[structure].with_extra_tokens(next_extra[structure]);
                        lines.evaluate(text, Some(structure))
                    }
                    Kind::New => {
                        lines.evaluate(csdf::text::to_text(&small_random(rng.next_u64())), None)
                    }
                    Kind::Composite => fixed[rotation % fixed.len()],
                    Kind::Check => checks[rotation % checks.len()],
                    Kind::Error => errors[rotation % errors.len()],
                });
            }
        }
        requests.truncate(count);
        requests
    };
    let schedules = [
        schedule(open_requests, &mut rng, &mut lines),
        schedule(closed_requests, &mut rng, &mut lines),
    ];
    Mix {
        lines,
        structures,
        warmup,
        schedules,
    }
}

/// One handled request.
#[derive(Debug)]
struct Sample {
    line: usize,
    due: Instant,
    start: Instant,
    end: Instant,
    response: String,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        self.end.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// The generator's side of an open-loop pass.
#[derive(Debug, Default)]
struct Pacing {
    late_ms: Vec<f64>,
    /// Requests released but not yet answered, sampled at every release.
    backlog: Vec<usize>,
}

impl Pacing {
    fn backlog_grew(&self) -> bool {
        let quarter = (self.backlog.len() / 4).max(1);
        let mean =
            |values: &[usize]| values.iter().sum::<usize>() as f64 / values.len().max(1) as f64;
        let first = mean(&self.backlog[..quarter.min(self.backlog.len())]);
        let last = mean(&self.backlog[self.backlog.len().saturating_sub(quarter)..]);
        last > first + 2.0
    }

    /// The generator fell behind (the run is invalid) when more than one
    /// request in a hundred left over one arrival interval late.
    fn valid(&self) -> bool {
        percentile(&self.late_ms, 99.0) <= 1e3 / RATE_PER_S
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Releases `schedule` at [`RATE_PER_S`] to `workers()` threads.
fn open_loop(daemon: &Daemon, lines: &[String], schedule: &[usize]) -> (Vec<Sample>, Pacing) {
    let interval = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let (sender, receiver) = mpsc::channel::<(usize, Instant)>();
    let receiver = Mutex::new(receiver);
    let answered = AtomicUsize::new(0);
    let mut pacing = Pacing::default();
    let mut samples = Vec::with_capacity(schedule.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers())
            .map(|_| {
                scope.spawn(|| {
                    let mut handled = Vec::new();
                    loop {
                        let next = receiver
                            .lock()
                            .expect("no worker panics holding the queue")
                            .recv();
                        let Ok((line, due)) = next else { break };
                        let start = Instant::now();
                        let response = daemon.handle_line(&lines[line]);
                        let end = Instant::now();
                        answered.fetch_add(1, Ordering::Relaxed);
                        handled.push(Sample {
                            line,
                            due,
                            start,
                            end,
                            response,
                        });
                    }
                    handled
                })
            })
            .collect();
        let first_due = Instant::now() + interval;
        for (index, &line) in schedule.iter().enumerate() {
            let due = first_due + interval.mul_f64(index as f64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            pacing
                .late_ms
                .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            pacing
                .backlog
                .push(index - answered.load(Ordering::Relaxed).min(index));
            sender
                .send((line, due))
                .expect("workers outlive the schedule");
        }
        drop(sender);
        for handle in handles {
            samples.extend(handle.join().expect("request handling never panics"));
        }
    });
    samples.sort_by_key(|sample| sample.due);
    (samples, pacing)
}

/// `workers()` clients, each sending its next request when the previous
/// answer arrives, until `budget` has elapsed; returns the samples and the
/// start time.
fn closed_loop(
    daemon: &Daemon,
    lines: &[String],
    schedule: &[usize],
    budget: Duration,
) -> (Vec<Sample>, Instant) {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers())
            .map(|_| {
                scope.spawn(|| {
                    let mut handled = Vec::new();
                    while started.elapsed() < budget {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&line) = schedule.get(index) else {
                            break;
                        };
                        let start = Instant::now();
                        let response = daemon.handle_line(&lines[line]);
                        handled.push(Sample {
                            line,
                            due: start,
                            start,
                            end: Instant::now(),
                            response,
                        });
                    }
                    handled
                })
            })
            .collect();
        for handle in handles {
            samples.extend(handle.join().expect("request handling never panics"));
        }
    });
    (samples, started)
}

/// Requests completed per second: the median over the whole one-second
/// windows of the closed loop, so a stall in one window does not set it.
fn capacity_per_s(samples: &[Sample], started: Instant) -> f64 {
    let mut windows: Vec<f64> = Vec::new();
    for sample in samples {
        let window = sample.end.saturating_duration_since(started).as_secs() as usize;
        if windows.len() <= window {
            windows.resize(window + 1, 0.0);
        }
        windows[window] += 1.0;
    }
    // The last window is partial.
    windows.pop();
    median(&windows)
}

fn normalized(response: &str) -> String {
    response.replace(r#""cache":"hit""#, r#""cache":"miss""#)
}

/// Checks every sample against a fresh daemon's response to the same line
/// and against the line's expectation; returns per-sample correctness.
fn check(report: &mut Report, mix: &Mix, samples: &[&Sample]) -> Vec<bool> {
    let mut expected: BTreeMap<usize, Result<String, String>> = BTreeMap::new();
    samples
        .iter()
        .map(|sample| {
            report.attempted += 1;
            let fresh = expected.entry(sample.line).or_insert_with(|| {
                let line = &mix.lines.lines[sample.line];
                let response = Daemon::new(config()).handle_line(line);
                expectation_holds(&mix.lines.expect[sample.line], &response)
                    .map(|()| normalized(&response))
            });
            let verdict = match fresh {
                Err(message) => Err(message.clone()),
                Ok(fresh) if *fresh == normalized(&sample.response) => Ok(()),
                Ok(_) => Err("response differs from a fresh daemon's".to_string()),
            };
            verdict
                .map_err(|message| report.fail(format!("request line {}: {message}", sample.line)))
                .is_ok()
        })
        .collect()
}

fn expectation_holds(expect: &Expect, response: &str) -> Result<(), String> {
    match expect {
        Expect::Evaluate { text, .. } => {
            let graph = csdf::text::parse(text).map_err(|error| error.to_string())?;
            let reference =
                kperiodic::optimal_throughput(&graph).map_err(|error| error.to_string())?;
            let field = format!(
                r#""throughput":"{}""#,
                throughput_to_string(reference.throughput)
            );
            if response.contains(r#""status":"ok""#) && response.contains(&field) {
                Ok(())
            } else {
                Err(format!("expected {field}, got {response}"))
            }
        }
        Expect::Ok if response.contains(r#""status":"ok""#) => Ok(()),
        Expect::Error(kind) if response.contains(&format!(r#""kind":"{kind}""#)) => Ok(()),
        _ => Err(format!(
            "unexpected response {}",
            &response[..response.len().min(200)]
        )),
    }
}

/// The span name of a response: its request type, `evaluate` split by
/// cache outcome, and `error` for every error response.
fn handle_span(response: &str) -> &'static str {
    if response.contains(r#""status":"error""#) {
        return "service.handle_ms.error";
    }
    for (kind, span) in [
        ("sweep", "service.handle_ms.sweep"),
        ("min_storage", "service.handle_ms.min_storage"),
        ("scenario_set", "service.handle_ms.scenario_set"),
        ("lint", "service.handle_ms.lint"),
        ("verify", "service.handle_ms.verify"),
    ] {
        if response.contains(&format!(r#""type":"{kind}""#)) {
            return span;
        }
    }
    if response.contains(r#""cache":"hit""#) {
        "service.handle_ms.evaluate_hit"
    } else {
        "service.handle_ms.evaluate_miss"
    }
}

struct Setup {
    mix: Mix,
    daemon: Daemon,
}

fn setup(seed: u64, seconds: Duration) -> Setup {
    let open_requests = (RATE_PER_S * seconds.as_secs_f64() * 2.0 / 3.0) as usize;
    // The closed loop stops at its time budget; the list only has to be
    // long enough.
    let closed_requests = open_requests * 6;
    let mix = generate(seed, open_requests, closed_requests);
    let daemon = Daemon::new(config());
    for &line in &mix.warmup {
        daemon.handle_line(&mix.lines.lines[line]);
    }
    for structure in &mix.structures {
        daemon.handle_line(&format!(
            r#"{{"id":-1,"type":"evaluate","graph":{}}}"#,
            text_spec(&csdf::text::to_text(&structure.graph))
        ));
    }
    Setup { mix, daemon }
}

pub fn run(seed: u64, seconds: Duration, trace: bool) -> Report {
    let mut report = Report::default();
    let Setup { mix, daemon } = timed_setup(&mut report, || setup(seed, seconds));
    if trace {
        run_traced(&mut report, &mix, &daemon, seconds);
        return report;
    }
    let (open, pacing) = open_loop(&daemon, &mix.lines.lines, &mix.schedules[0]);
    let (closed, closed_started) =
        closed_loop(&daemon, &mix.lines.lines, &mix.schedules[1], seconds / 3);
    let peak = peak_rss_mb();

    let open_refs: Vec<&Sample> = open.iter().collect();
    let correct = check(&mut report, &mix, &open_refs);
    check(&mut report, &mix, &closed.iter().collect::<Vec<_>>());
    let latencies: Vec<f64> = open.iter().map(Sample::latency_ms).collect();
    let within = open
        .iter()
        .zip(&correct)
        .filter(|(sample, &ok)| ok && sample.latency_ms() <= SLO_MS)
        .count();
    report.metric("p50_ms", median(&latencies));
    report.metric("tail_ms", percentile(&latencies, TAIL_PERCENTILE));
    report.metric("ops_per_s", capacity_per_s(&closed, closed_started));
    report.metric("slo_ok_ratio", ratio(within as f64, open.len() as f64));
    report.metric("peak_rss_mb", peak);
    report.note("samples", open.len().to_string());
    report.note("closed_loop_samples", closed.len().to_string());
    report.note("tail_percentile", TAIL_PERCENTILE.to_string());
    report.note(
        "tail_samples_beyond",
        samples_beyond(&latencies, TAIL_PERCENTILE).to_string(),
    );
    report.note("slo_limit_ms", SLO_MS.to_string());
    report.note("rate_per_s", RATE_PER_S.to_string());
    report.note("workers", workers().to_string());
    report.note(
        "generator_late_p99_ms",
        percentile(&pacing.late_ms, 99.0).to_string(),
    );
    report.note(
        "generator_late_max_ms",
        pacing
            .late_ms
            .iter()
            .copied()
            .fold(0.0, f64::max)
            .to_string(),
    );
    report.note(
        "backlog_max",
        pacing
            .backlog
            .iter()
            .max()
            .copied()
            .unwrap_or(0)
            .to_string(),
    );
    report.note("backlog_grew", pacing.backlog_grew().to_string());
    report.note("valid", pacing.valid().to_string());
    if !pacing.valid() {
        eprintln!("perfbench: the request generator fell behind its schedule; this run is invalid");
    }
    if pacing.backlog_grew() {
        eprintln!("perfbench: the backlog grew during the open loop: the rate exceeds capacity");
    }
    report
}

/// The traced run: an open-loop pass whose request spans (due → start →
/// end) are built from the timestamps every pass takes anyway, the daemon's
/// counter deltas over it, then replays of the distinct lines through the
/// layers the daemon hides.
fn run_traced(report: &mut Report, mix: &Mix, daemon: &Daemon, seconds: Duration) {
    let cache_before = daemon.cache_stats();
    let pool_before = daemon.pool_stats();
    let service_before = daemon.service_stats();
    let origin = Instant::now();
    let (traced, _) = open_loop(daemon, &mix.lines.lines, &mix.schedules[0]);
    let traced_wall = origin.elapsed();
    let cache = daemon.cache_stats();
    let pool = daemon.pool_stats();
    let service = daemon.service_stats();
    check(report, mix, &traced.iter().collect::<Vec<_>>());

    let recording = Instant::now();
    let mut tracer = Tracer::new(origin);
    for (op, sample) in traced.iter().enumerate() {
        let op = op as u64;
        let root = tracer.child(None, "request", op, sample.due, sample.end);
        tracer.child(
            Some(root),
            "service.queue_wait",
            op,
            sample.due,
            sample.start,
        );
        tracer.child(
            Some(root),
            handle_span(&sample.response),
            op,
            sample.start,
            sample.end,
        );
    }
    let recording = recording.elapsed();
    report.metric(
        "trace.overhead_ratio",
        ratio(
            (traced_wall + recording).as_secs_f64(),
            traced_wall.as_secs_f64(),
        ),
    );
    let mut layers = LayerSamples::default();
    for name in [
        "service.handle_ms.evaluate_hit",
        "service.handle_ms.evaluate_miss",
        "service.handle_ms.sweep",
        "service.handle_ms.min_storage",
        "service.handle_ms.scenario_set",
        "service.handle_ms.lint",
        "service.handle_ms.verify",
        "service.handle_ms.error",
    ] {
        layers.extend_from(&tracer, name, name);
    }
    layers.extend_from(&tracer, "service.queue_wait", "service.queue_wait_ms");
    let hits = (cache.hits - cache_before.hits) as f64;
    let misses = (cache.misses - cache_before.misses) as f64;
    report.metric("service.cache_hit_ratio", ratio(hits, hits + misses));
    report.metric(
        "service.warm_checkout_ratio",
        ratio(
            (pool.warm - pool_before.warm) as f64,
            (pool.checkouts - pool_before.checkouts) as f64,
        ),
    );
    report.metric(
        "service.quarantined",
        (pool.quarantined - pool_before.quarantined) as f64,
    );
    report.metric(
        "service.rejected",
        (service.rejected - service_before.rejected) as f64,
    );
    report.layer_self_times(&tracer, traced.len());
    report.spans(&tracer);

    let mut replayer = Tracer::new(Instant::now());
    let mut counts = ReplayCounts::default();
    let mut marking_dirty = Vec::new();
    let distinct: Vec<usize> = {
        let mut seen: Vec<usize> = traced.iter().map(|sample| sample.line).collect();
        seen.sort_unstable();
        seen.dedup();
        seen
    };
    let replay_started = Instant::now();
    for (op, &line) in distinct.iter().cycle().enumerate() {
        if replay_started.elapsed() >= seconds / 3 && op >= distinct.len().min(50) {
            break;
        }
        let op = op as u64;
        let root = replayer.begin("replay", op);
        let outcome = replay_line(
            &mut replayer,
            op,
            mix,
            line,
            &mut counts,
            &mut marking_dirty,
            &mut layers,
        );
        replayer.end(root);
        report.attempted += 1;
        if let Err(message) = outcome {
            report.fail(format!("replay of request line {line}: {message}"));
        }
    }
    report.metric("kperiodic.marking_dirty_buffers", median(&marking_dirty));
    counts.report(report, &replayer, &mut layers);
    layers.extend_from(
        &replayer,
        "service.parse_request",
        "service.parse_request_ms",
    );
    layers.extend_from(&replayer, "service.graph_load", "service.graph_load_ms");
    layers.extend_from(&replayer, "csdf.parse", "csdf.parse_ms");
    layers.extend_from(&replayer, "csdf.repetition", "csdf.repetition_ms");
    layers.extend_from(
        &replayer,
        "kperiodic.kiter_other",
        "kperiodic.kiter_other_ms",
    );
    layers.extend_from(&replayer, "lint.analyze", "lint.analyze_ms");
    layers.extend_from(&replayer, "baselines.expansion", "baselines.expansion_ms");
    layers.extend_from(&replayer, "explore.run", "explore.run_ms");
    layers.report(report);
    report.spans(&replayer);
}

/// Replays one request line through the layers below the daemon: request
/// parsing and graph loading, then per request type the K-Iter trajectory
/// (and, for a marking variant, the marking-only arena patch), the explore
/// runner on a fresh session, the lint analysis, or the expansion baseline.
fn replay_line(
    tracer: &mut Tracer,
    op: u64,
    mix: &Mix,
    line: usize,
    counts: &mut ReplayCounts,
    marking_dirty: &mut Vec<f64>,
    layers: &mut LayerSamples,
) -> Result<(), String> {
    let parsed = tracer.span("service.parse_request", op, || {
        parse_request(&mix.lines.lines[line])
    });
    let (Ok(request), false) = (parsed, matches!(mix.lines.expect[line], Expect::Error(_))) else {
        return Ok(());
    };
    let spec = match &request.body {
        RequestBody::Evaluate { graph }
        | RequestBody::Sweep { graph, .. }
        | RequestBody::MinStorage { graph, .. }
        | RequestBody::ScenarioSet { graph, .. }
        | RequestBody::Lint { graph }
        | RequestBody::Verify { graph, .. } => graph,
    };
    let graph = tracer.span("service.graph_load", op, || spec.load())?;
    let session = |graph: &CsdfGraph| {
        AnalysisSession::new(graph.clone(), KIterOptions::default())
            .map_err(|error| error.to_string())
    };
    let explored = |layers: &mut LayerSamples, session: &AnalysisSession| {
        let stats = session.stats();
        layers.push("explore.evaluations", stats.evaluations as f64);
        layers.push("explore.full_builds", stats.full_builds as f64);
    };
    match &request.body {
        RequestBody::Evaluate { .. } => {
            let result = traced_op(tracer, op, &spec.source)?;
            replay(tracer, op, &graph, &result, counts)?;
            if let Expect::Evaluate {
                structure: Some(structure),
                ..
            } = &mix.lines.expect[line]
            {
                let base = &mix.structures[*structure].graph;
                let repetition = base
                    .repetition_vector()
                    .map_err(|error| error.to_string())?;
                let unitary = PeriodicityVector::unitary(base);
                let limits = kperiodic::AnalysisOptions::default().limits;
                let mut arena = EventGraphArena::build(base, &repetition, &unitary, &limits)
                    .map_err(|error| error.to_string())?;
                let update = tracer
                    .span("kperiodic.marking_patch", op, || {
                        arena.apply_update(&graph, &unitary, None)
                    })
                    .map_err(|error| error.to_string())?;
                marking_dirty.push(update.marking_dirty_buffers as f64);
            }
        }
        RequestBody::Sweep { slacks, .. } => {
            let sweep =
                ParetoSweep::uniform_slack(&graph, slacks).map_err(|error| error.to_string())?;
            let mut session = session(sweep.bounded().graph())?;
            tracer
                .span("explore.run", op, || sweep.run_on_session(&mut session))
                .map_err(|error| error.to_string())?;
            explored(layers, &session);
        }
        RequestBody::MinStorage {
            target, max_slack, ..
        } => {
            let bounded = bound_all_buffers_tracked(&graph, |_, buffer| {
                uniform_slack_capacity(buffer, *max_slack)
            })
            .map_err(|error| error.to_string())?;
            let mut session = session(bounded.graph())?;
            tracer
                .span("explore.run", op, || {
                    min_storage_for_throughput_on(&mut session, &bounded, *target, *max_slack)
                })
                .map_err(|error| error.to_string())?;
            explored(layers, &session);
        }
        RequestBody::ScenarioSet { scenarios, .. } => {
            let mut set = ScenarioSet::new(graph.clone());
            for scenario in scenarios {
                set.add(scenario.name.clone(), scenario.markings.clone());
            }
            let mut session = session(set.base())?;
            tracer
                .span("explore.run", op, || set.run_on_session(&mut session))
                .map_err(|error| error.to_string())?;
            explored(layers, &session);
        }
        RequestBody::Lint { .. } => {
            tracer.span("lint.analyze", op, || csdf_lint::analyze(&graph));
        }
        RequestBody::Verify { max_expansion, .. } => {
            tracer.span("lint.analyze", op, || csdf_lint::analyze(&graph));
            // The daemon runs the expansion baseline only within the
            // request's expansion limit; so does the replay.
            let repetition = graph
                .repetition_vector()
                .map_err(|error| error.to_string())?;
            let copies: u64 = graph
                .tasks()
                .map(|(id, task)| repetition.get(id) * task.phase_count() as u64)
                .sum();
            if copies <= *max_expansion {
                let budget = Budget {
                    max_events: *max_expansion,
                    max_wall_time: Duration::from_secs(30),
                };
                tracer
                    .span("baselines.expansion", op, || {
                        expansion_throughput(&graph, &budget)
                    })
                    .map_err(|error| error.to_string())?;
            }
        }
    }
    Ok(())
}
