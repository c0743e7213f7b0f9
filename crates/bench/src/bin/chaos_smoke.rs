//! CI chaos gate for the analysis daemon (`csdf-service`).
//!
//! Replays a 200-request adversarial mix — valid evaluations interleaved
//! with malformed JSON, unknown request types, oversize lines, graphs over
//! the admission caps, deadlocked rings, zero-deadline requests and faults
//! injected at every request-handling site (panics at parse / checkout /
//! patch / cache, an injected solver error) — and asserts the containment
//! contract of the robustness layer:
//!
//! 1. **Liveness**: the daemon answers every request of the mix, over the
//!    batch transport with a full worker pool; no request is lost to a
//!    panic, a poisoned lock or an admission rejection.
//! 2. **Transport identity**: with a single worker the serial batch
//!    transport and a single Unix-socket connection (each on a fresh daemon
//!    with an identical fault plan) produce bit-identical response streams.
//! 3. **No session leaks**: after the whole mix,
//!    `checkouts == returned + quarantined` on every daemon.
//! 4. **Deadlines hold**: a heavyweight graph with a 50 ms deadline is
//!    answered well before a 10 s liveness bound.
//!
//! Prints one JSON summary line. `KITER_CHAOS_REQUESTS` overrides the mix
//! size (default 200).
//!
//! Run with `cargo run --release -p kiter-bench --bin chaos_smoke`.

use std::process::ExitCode;
use std::time::Instant;

use csdf::{CsdfGraph, CsdfGraphBuilder};
use csdf_service::{Daemon, FaultAction, FaultPlan, FaultSite, Json, ServiceConfig};

/// A two-task SDF ring; `tokens = 0` deadlocks it.
fn ring(duration: u64, tokens: u64) -> CsdfGraph {
    let mut builder = CsdfGraphBuilder::new();
    let x = builder.add_sdf_task("x", duration);
    let y = builder.add_sdf_task("y", 1);
    builder.add_sdf_buffer(x, y, 1, 1, 0);
    builder.add_sdf_buffer(y, x, 1, 1, tokens);
    builder.build().expect("ring is consistent")
}

/// An SDF cycle of `tasks` tasks with a 2↔1 rate ladder: cheap to encode,
/// non-trivial to evaluate (the repetition vector is non-uniform).
fn chain_ring(tasks: usize, tokens: u64) -> CsdfGraph {
    let mut builder = CsdfGraphBuilder::new();
    let ids: Vec<_> = (0..tasks)
        .map(|index| builder.add_sdf_task(format!("t{index}"), 1 + (index as u64 % 4)))
        .collect();
    for index in 0..tasks {
        let next = (index + 1) % tasks;
        let (produce, consume) = if index % 2 == 0 { (2, 1) } else { (1, 2) };
        let initial = if next == 0 { tokens } else { 0 };
        builder.add_sdf_buffer(ids[index], ids[next], produce, consume, initial);
    }
    builder.build().expect("chain ring is consistent")
}

fn graph_spec(graph: &CsdfGraph) -> Json {
    Json::object([
        ("format", "text".into()),
        ("source", csdf::text::to_text(graph).into()),
    ])
}

/// The adversarial mix: request `id` equals its index, so any lost or
/// reordered response is visible.
fn build_mix(total: usize, max_line_bytes: usize, max_tasks: usize) -> Vec<String> {
    (0..total)
        .map(|id| match id % 10 {
            // Valid evaluations over a few structures and markings — the
            // healthy traffic the daemon must keep serving throughout.
            0..=2 => format!(
                r#"{{"id":{id},"type":"evaluate","graph":{}}}"#,
                graph_spec(&ring(2 + (id % 3) as u64, 1 + (id % 5) as u64))
            ),
            // A deadlocked design: a valid `ok` answer of "deadlock".
            3 => format!(
                r#"{{"id":{id},"type":"evaluate","graph":{}}}"#,
                graph_spec(&ring(2, 0))
            ),
            // Malformed JSON.
            4 => format!(r#"{{"id":{id},"type":"evaluate","graph"::::"#),
            // Unknown request type.
            5 => format!(r#"{{"id":{id},"type":"explode"}}"#),
            // A line over the admission cap (ASCII junk, id up front so the
            // rejection can still echo it).
            6 => format!(
                r#"{{"id":{id},"type":"evaluate","junk":"{}"}}"#,
                "x".repeat(max_line_bytes)
            ),
            // A graph over the task-count cap.
            7 => format!(
                r#"{{"id":{id},"type":"evaluate","graph":{}}}"#,
                graph_spec(&chain_ring(max_tasks + 2, 4))
            ),
            // A zero deadline: cancelled before the solve, deterministically.
            8 => format!(
                r#"{{"id":{id},"deadline_ms":0,"type":"evaluate","graph":{}}}"#,
                graph_spec(&ring(2, 3))
            ),
            // Lint and verify traffic (verify exercises the cache site too).
            _ if id % 20 == 9 => format!(
                r#"{{"id":{id},"type":"lint","graph":{}}}"#,
                graph_spec(&ring(2, 2))
            ),
            _ => format!(
                r#"{{"id":{id},"type":"verify","graph":{}}}"#,
                graph_spec(&ring(2, 2))
            ),
        })
        .collect()
}

/// One fault plan instance: panics and an injected error scattered across
/// every site. Fresh per daemon, so two daemons replaying the same serial
/// mix fire the same faults at the same occurrences.
fn fresh_plan() -> FaultPlan {
    FaultPlan::new()
        .inject_window(FaultSite::Parse, 12, 1, FaultAction::Panic)
        .inject_window(FaultSite::Checkout, 9, 1, FaultAction::Panic)
        .inject_window(FaultSite::Patch, 17, 1, FaultAction::Panic)
        .inject_window(FaultSite::Cache, 21, 1, FaultAction::Panic)
        .inject_window(
            // Solve polls happen only on cache misses, so keep the window
            // early enough that the mix actually reaches it.
            FaultSite::Solve,
            7,
            1,
            FaultAction::Error("injected solver fault".to_string()),
        )
}

fn config(workers: usize, max_line_bytes: usize, max_tasks: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        max_line_bytes,
        max_tasks,
        ..ServiceConfig::default()
    }
}

/// Replays the mix over one Unix-socket connection and returns the response
/// stream.
#[cfg(unix)]
fn socket_replay(daemon: &Daemon, requests: &[String]) -> Vec<String> {
    use std::io::{BufRead, BufReader, Write};
    let path = std::env::temp_dir().join(format!("csdf-chaos-{}.sock", std::process::id()));
    let responses = std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.serve_unix(&path, Some(1)));
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
        for request in requests {
            writeln!(&stream, "{request}").expect("socket write");
        }
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
    responses
}

fn main() -> ExitCode {
    // Injected panics are part of the plan; keep them off stderr.
    std::panic::set_hook(Box::new(|_| {}));

    let total = std::env::var("KITER_CHAOS_REQUESTS")
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(200)
        .max(40);
    let max_line_bytes = 2048;
    let max_tasks = 64;
    let requests = build_mix(total, max_line_bytes, max_tasks);
    let mut failures = Vec::new();

    // Phase 1 — liveness under a full worker pool: every request answered,
    // every response well-formed, faults fired, no session leaked.
    let daemon = Daemon::new(config(8, max_line_bytes, max_tasks)).with_fault_plan(fresh_plan());
    let responses = daemon.run_batch(&requests.join("\n"));
    if responses.len() != requests.len() {
        failures.push(format!(
            "liveness: {} responses for {} requests",
            responses.len(),
            requests.len()
        ));
    }
    for (index, line) in responses.iter().enumerate() {
        match Json::parse(line) {
            Err(error) => failures.push(format!("response {index} is not JSON ({error}): {line}")),
            Ok(json) => {
                let status = json.get("status").and_then(Json::as_str);
                if status != Some("ok") && status != Some("error") {
                    failures.push(format!("response {index} has no status: {line}"));
                }
            }
        }
    }
    let pool = daemon.pool_stats();
    let service = daemon.service_stats();
    let leaked = pool.checkouts != pool.returned + pool.quarantined;
    if leaked {
        failures.push(format!("liveness: session leak ({pool:?})"));
    }
    if service.panics_caught == 0 {
        failures.push("liveness: injected panics were never caught".to_string());
    }
    if service.rejected == 0 {
        failures.push("liveness: admission control never fired".to_string());
    }
    if service.deadline_exceeded == 0 {
        failures.push("liveness: zero-deadline requests were not cancelled".to_string());
    }

    // Phase 2 — transport identity: fresh daemons, identical fault plans,
    // strictly serial processing on both sides.
    let batch_daemon =
        Daemon::new(config(1, max_line_bytes, max_tasks)).with_fault_plan(fresh_plan());
    let batch = batch_daemon.run_batch(&requests.join("\n"));
    #[cfg(unix)]
    let transport_identical = {
        let socket_daemon =
            Daemon::new(config(1, max_line_bytes, max_tasks)).with_fault_plan(fresh_plan());
        let socket = socket_replay(&socket_daemon, &requests);
        let mut identical = batch.len() == socket.len();
        if !identical {
            failures.push(format!(
                "transport: {} batch responses vs {} socket responses",
                batch.len(),
                socket.len()
            ));
        }
        for (index, (batch_line, socket_line)) in batch.iter().zip(&socket).enumerate() {
            if batch_line != socket_line {
                identical = false;
                failures.push(format!(
                    "transport: response {index} differs\n  batch:  {batch_line}\n  socket: {socket_line}"
                ));
            }
        }
        let socket_pool = socket_daemon.pool_stats();
        if socket_pool.checkouts != socket_pool.returned + socket_pool.quarantined {
            failures.push(format!("transport: socket session leak ({socket_pool:?})"));
        }
        identical
    };
    #[cfg(not(unix))]
    let transport_identical = true;

    // Phase 3 — deadlines hold on a heavyweight graph: the answer (whether
    // it beat the deadline or was cancelled) must arrive well before the
    // liveness bound.
    let heavy = chain_ring(60, 8);
    let heavy_line = format!(
        r#"{{"id":9999,"deadline_ms":50,"type":"evaluate","graph":{}}}"#,
        graph_spec(&heavy)
    );
    let deadline_daemon = Daemon::new(config(1, 1 << 20, 1 << 20));
    let start = Instant::now();
    let heavy_response = deadline_daemon.handle_line(&heavy_line);
    let heavy_ms = start.elapsed().as_secs_f64() * 1e3;
    if heavy_ms > 10_000.0 {
        failures.push(format!("deadline: heavy request took {heavy_ms:.0} ms"));
    }
    if !heavy_response.contains("\"status\":") {
        failures.push(format!(
            "deadline: malformed heavy response: {heavy_response}"
        ));
    }

    let summary = Json::object([
        ("table", "chaos_smoke".into()),
        ("requests", requests.len().into()),
        ("all_answered", (responses.len() == requests.len()).into()),
        ("transport_identical", transport_identical.into()),
        ("panics_caught", service.panics_caught.into()),
        ("rejected", service.rejected.into()),
        ("deadline_exceeded", service.deadline_exceeded.into()),
        ("quarantined", pool.quarantined.into()),
        (
            "pool_poison_recoveries",
            service.pool_poison_recoveries.into(),
        ),
        (
            "cache_poison_recoveries",
            service.cache_poison_recoveries.into(),
        ),
        ("session_leaks", usize::from(leaked).into()),
        ("heavy_ms", Json::rounded(heavy_ms, 1)),
        ("passed", failures.is_empty().into()),
    ]);
    println!("{summary}");
    for failure in &failures {
        eprintln!("chaos_smoke: {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
