//! CI smoke gate for the analysis daemon (`csdf-service`).
//!
//! Drives one warm daemon through a mixed batch — mostly `evaluate`
//! requests over a handful of graph structures (so fingerprints repeat),
//! plus `sweep`, `min_storage` and `scenario_set` requests — and compares
//! it against the cold baseline: a fresh daemon (empty pool, empty cache)
//! per request, which is exactly a direct library call per request.
//!
//! Checks, in order:
//!
//! 1. **Bit-identity**: every warm response equals its cold response, field
//!    for field (only the `cache` hit/miss marker may differ);
//! 2. **Library identity**: every unique evaluate graph's throughput string
//!    equals a direct [`kperiodic::optimal_throughput`] call's;
//! 3. **Warm reuse**: the pool's warm hit rate stays above a floor (0.5);
//! 4. **Transport identity** (unix): a batch of `lint` and `verify`
//!    requests is answered bit-identically by the stdin-batch transport
//!    (`run_batch`) and the Unix-socket transport, and the serialised
//!    verify graphs reach an `agree` verdict;
//! 5. With `--gate`: the warm daemon is at least 2x faster than cold
//!    per-request sessions on the whole batch.
//!
//! Prints one JSON summary line. `KITER_SERVICE_REQUESTS` overrides the
//! batch size (default 200).
//!
//! Run with
//! `cargo run --release -p kiter-bench --bin service_smoke -- --gate`.

use std::process::ExitCode;
use std::time::Instant;

use csdf::{CsdfGraph, CsdfGraphBuilder};
use csdf_service::{throughput_to_string, Daemon, Json, ServiceConfig};

/// A single-cycle multirate ring (`tasks` must be a multiple of 12): rates
/// triple for six stages and shrink back for the next six, so the
/// repetition vector ramps 1→729→1 around every period and the event graph
/// carries `Σ q ≈ 120·tasks` firings from a text encoding of only `tasks`
/// lines — evaluation genuinely dominates request parsing, which is what
/// the warm daemon amortises. Tasks at the period boundary run three phases
/// (CSDF). The feedback marking `tokens` sets the throughput without
/// touching the structure fingerprint.
fn ring(tasks: usize, tokens: u64) -> CsdfGraph {
    assert_eq!(tasks % 12, 0, "the rate ladder closes every 12 tasks");
    // Producer rate of task i on buffer i -> i+1; the consumer side of the
    // same buffer is 1 (doubling half) or 2 (halving half).
    let up = |index: usize| (index % 12) < 6;
    let mut builder = CsdfGraphBuilder::new();
    let ids: Vec<_> = (0..tasks)
        .map(|index| {
            let duration = 1 + (index as u64 * 7) % 5;
            if index % 12 == 0 {
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
        let initial = if next == 0 { tokens } else { 0 };
        // Tripling buffers move 3 -> 1, shrinking buffers 1 -> 3; the
        // boundary tasks (three phases) split their rate-3 side across the
        // phases. Boundary consumers only ever sit on shrinking buffers
        // (`c = 3`) and boundary producers only on tripling ones (`p = 3`),
        // so the split never changes a total.
        let produce = match (up(index), index % 12 == 0) {
            (true, true) => vec![1, 1, 1],
            (true, false) => vec![3],
            (false, _) => vec![1],
        };
        let consume = match (up(index), next % 12 == 0) {
            (true, _) => vec![1],
            (false, true) => vec![1, 1, 1],
            (false, false) => vec![3],
        };
        builder.add_buffer(ids[index], ids[next], produce, consume, initial);
    }
    builder.build().expect("ring is consistent")
}

fn graph_spec(graph: &CsdfGraph) -> Json {
    Json::object([
        ("format", "text".into()),
        ("source", csdf::text::to_text(graph).into()),
    ])
}

struct Batch {
    requests: Vec<String>,
    /// `(request index, graph)` of every evaluate request whose graph
    /// appears for the first time — the library-identity sample.
    unique_evaluates: Vec<(usize, CsdfGraph)>,
}

fn build_batch(total: usize) -> Batch {
    let sizes = [48usize, 72, 96, 120];
    let variants_per_size = 6u64;
    let composite = (total / 40).max(3);
    let evaluates = total - composite;

    let mut requests = Vec::with_capacity(total);
    let mut unique_evaluates = Vec::new();
    for slot in 0..evaluates {
        let unique = slot % (sizes.len() * variants_per_size as usize);
        let size = sizes[unique % sizes.len()];
        // 3 tokens are enough to rotate the ladder; more raises throughput.
        let tokens = 3 + 3 * (unique / sizes.len()) as u64;
        let graph = ring(size, tokens);
        if slot == unique {
            unique_evaluates.push((requests.len(), graph.clone()));
        }
        requests.push(format!(
            r#"{{"id":{},"type":"evaluate","graph":{}}}"#,
            requests.len(),
            graph_spec(&graph)
        ));
    }
    for slot in 0..composite {
        let size = sizes[slot % sizes.len()];
        let spec = graph_spec(&ring(size, 4));
        let id = requests.len();
        requests.push(match slot % 3 {
            0 => format!(r#"{{"id":{id},"type":"sweep","graph":{spec},"slacks":[1,2,4]}}"#),
            1 => format!(
                r#"{{"id":{id},"type":"min_storage","graph":{spec},"target":"1/100000","max_slack":8}}"#
            ),
            _ => {
                let feedback = size - 1;
                format!(
                    r#"{{"id":{id},"type":"scenario_set","graph":{spec},"scenarios":[{{"name":"tight","markings":[[{feedback},3]]}},{{"name":"relaxed","markings":[[{feedback},6]]}}]}}"#
                )
            }
        });
    }
    Batch {
        requests,
        unique_evaluates,
    }
}

/// A small fully serialised multirate ring: every task carries a one-token
/// self-loop, which is the precondition under which lint's static bounds
/// are sound for the solver — so `verify` must reach an `agree` verdict.
fn serialized_ring(tokens: u64) -> CsdfGraph {
    let mut builder = CsdfGraphBuilder::new();
    let a = builder.add_sdf_task("a", 2);
    let b = builder.add_task("b", vec![1, 3]);
    let c = builder.add_sdf_task("c", 1);
    builder.add_buffer(a, b, vec![2], vec![1, 1], 0);
    builder.add_buffer(b, c, vec![1, 1], vec![2], 0);
    builder.add_sdf_buffer(c, a, 1, 1, tokens);
    for task in [a, b, c] {
        builder.add_serializing_self_loop(task);
    }
    builder.build().expect("ring is consistent")
}

/// Builds the `lint`/`verify` mini-batch and answers it over the
/// stdin-batch transport; on unix, replays it over a Unix socket and
/// demands bit-identical responses. Returns the batch responses and any
/// failures.
fn lint_verify_transport_check() -> (Vec<String>, Vec<String>) {
    let requests = vec![
        format!(
            r#"{{"id":0,"type":"lint","graph":{}}}"#,
            graph_spec(&ring(48, 3))
        ),
        format!(
            r#"{{"id":1,"type":"lint","graph":{}}}"#,
            graph_spec(&serialized_ring(2))
        ),
        r#"{"id":2,"type":"lint","graph":{"format":"text","source":"graph g\nnonsense\n"}}"#
            .to_string(),
        format!(
            r#"{{"id":3,"type":"verify","graph":{}}}"#,
            graph_spec(&serialized_ring(2))
        ),
        format!(
            r#"{{"id":4,"type":"verify","graph":{}}}"#,
            graph_spec(&serialized_ring(0))
        ),
    ];
    let mut failures = Vec::new();

    let batch_daemon = Daemon::new(ServiceConfig::default());
    let batch = batch_daemon.run_batch(&requests.join("\n"));
    for (index, expect) in [
        (0, r#""status":"ok""#),
        (1, r#""errors":0"#),
        (2, r#""code":"L000""#),
        (3, r#""verdict":"agree""#),
        (4, r#""verdict":"agree""#),
    ] {
        if !batch[index].contains(expect) {
            failures.push(format!(
                "lint/verify response {index} misses {expect}: {}",
                batch[index]
            ));
        }
    }
    if !batch[4].contains(r#""throughput":"deadlock""#) {
        failures.push("tokenless serialized ring must verify as a deadlock".to_string());
    }

    #[cfg(unix)]
    {
        use std::io::{BufRead, BufReader, Write};
        let socket_daemon = Daemon::new(ServiceConfig::default());
        let path = std::env::temp_dir().join(format!("csdf-smoke-{}.sock", std::process::id()));
        let socket: Vec<String> = std::thread::scope(|scope| {
            let server = scope.spawn(|| socket_daemon.serve_unix(&path, Some(1)));
            let stream = (0..200)
                .find_map(|_| {
                    std::os::unix::net::UnixStream::connect(&path)
                        .ok()
                        .or_else(|| {
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            None
                        })
                })
                .expect("daemon socket comes up");
            for request in &requests {
                writeln!(&stream, "{request}").expect("socket write");
            }
            // Half-close so the connection handler sees EOF once it has
            // drained the requests — otherwise the server never returns.
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("socket shutdown");
            let responses: Vec<String> = BufReader::new(&stream)
                .lines()
                .map(|line| line.expect("socket read"))
                .collect();
            drop(stream);
            server.join().expect("server thread").expect("serve_unix");
            responses
        });
        let _ = std::fs::remove_file(&path);
        for (index, (batch_line, socket_line)) in batch.iter().zip(&socket).enumerate() {
            if batch_line != socket_line {
                failures.push(format!(
                    "lint/verify response {index} differs between batch and socket transports"
                ));
            }
        }
    }

    (batch, failures)
}

fn main() -> ExitCode {
    let gate = std::env::args().any(|argument| argument == "--gate");
    let total = std::env::var("KITER_SERVICE_REQUESTS")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(200)
        .max(10);
    let batch = build_batch(total);

    // Warm: one daemon for the whole batch, serial, so the measured speedup
    // is session/cache reuse and nothing else.
    let daemon = Daemon::new(ServiceConfig::default());
    let warm_clock = Instant::now();
    let warm: Vec<String> = batch
        .requests
        .iter()
        .map(|line| daemon.handle_line(line))
        .collect();
    let warm_ms = warm_clock.elapsed().as_secs_f64() * 1e3;

    // Cold baseline: a fresh daemon per request — per-request session
    // construction, exactly what a library caller without the service pays.
    let cold_clock = Instant::now();
    let cold: Vec<String> = batch
        .requests
        .iter()
        .map(|line| Daemon::new(ServiceConfig::default()).handle_line(line))
        .collect();
    let cold_ms = cold_clock.elapsed().as_secs_f64() * 1e3;

    let mut failures = Vec::new();
    let normalize = |line: &str| line.replace("\"cache\":\"hit\"", "\"cache\":\"miss\"");
    let bit_identical =
        warm.iter()
            .zip(&cold)
            .enumerate()
            .all(|(index, (warm_line, cold_line))| {
                let identical = normalize(warm_line) == normalize(cold_line);
                if !identical {
                    failures.push(format!(
                        "response {index} differs between warm and cold daemons"
                    ));
                }
                identical && warm_line.contains("\"status\":\"ok\"")
            });
    if !bit_identical && failures.is_empty() {
        failures.push("a response did not report status ok".to_string());
    }

    for &(index, ref graph) in &batch.unique_evaluates {
        let reference = kperiodic::optimal_throughput(graph).expect("reference evaluation");
        let expected = format!(
            "\"throughput\":\"{}\"",
            throughput_to_string(reference.throughput)
        );
        if !warm[index].contains(&expected) {
            failures.push(format!(
                "request {index}: daemon disagrees with optimal_throughput ({expected})"
            ));
        }
    }

    let pool = daemon.pool_stats();
    let cache = daemon.cache_stats();
    let hit_rate_floor = 0.5;
    if pool.warm_hit_rate() < hit_rate_floor {
        failures.push(format!(
            "warm hit rate {:.3} below floor {hit_rate_floor}",
            pool.warm_hit_rate()
        ));
    }
    let speedup = cold_ms / warm_ms.max(f64::MIN_POSITIVE);
    if gate && speedup < 2.0 {
        failures.push(format!("speedup {speedup:.2} below the 2x gate"));
    }

    let (lint_verify, transport_failures) = lint_verify_transport_check();
    let transport_identical = transport_failures.is_empty();
    failures.extend(transport_failures);

    let summary = Json::object([
        ("table", "service_smoke".into()),
        ("requests", batch.requests.len().into()),
        ("unique_graphs", batch.unique_evaluates.len().into()),
        ("warm_ms", Json::rounded(warm_ms, 1)),
        ("cold_ms", Json::rounded(cold_ms, 1)),
        ("speedup", Json::rounded(speedup, 2)),
        ("checkouts", pool.checkouts.into()),
        ("warm_hit_rate", Json::rounded(pool.warm_hit_rate(), 4)),
        ("cache_hits", cache.hits.into()),
        ("cache_misses", cache.misses.into()),
        ("bit_identical", bit_identical.into()),
        ("lint_verify_requests", lint_verify.len().into()),
        ("transport_identical", transport_identical.into()),
        ("passed", failures.is_empty().into()),
    ]);
    println!("{summary}");
    for failure in &failures {
        eprintln!("service_smoke: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
