//! Chaos tests: the daemon must survive any single request.
//!
//! Every test drives faults through the `fault-injection` feature (panics,
//! delays and injected errors at request-handling sites) or through
//! adversarial configuration (tiny admission caps, zero deadlines) and then
//! asserts the containment contract: the faulty request gets a typed error
//! response, the *next* request succeeds, and the pool's accounting shows no
//! leaked session (`checkouts == returned + quarantined`).

use csdf::{CsdfGraph, CsdfGraphBuilder};
use csdf_service::{Daemon, FaultAction, FaultPlan, FaultSite, Json, ServiceConfig};

fn ring(tokens: u64) -> CsdfGraph {
    let mut b = CsdfGraphBuilder::new();
    let x = b.add_sdf_task("x", 2);
    let y = b.add_sdf_task("y", 1);
    b.add_sdf_buffer(x, y, 1, 1, 0);
    b.add_sdf_buffer(y, x, 1, 1, tokens);
    b.build().unwrap()
}

fn evaluate_request(id: usize, graph: &CsdfGraph) -> String {
    let spec = Json::object([
        ("format", "text".into()),
        ("source", csdf::text::to_text(graph).into()),
    ]);
    format!(r#"{{"id":{id},"type":"evaluate","graph":{spec}}}"#)
}

fn field<'a>(response: &'a Json, name: &str) -> &'a Json {
    response.get(name).unwrap_or(&Json::Null)
}

fn error_kind(response: &Json) -> Option<String> {
    field(response, "error")
        .get("kind")
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// No session may leak, whatever mix of faults ran.
fn assert_no_session_leak(daemon: &Daemon) {
    let pool = daemon.pool_stats();
    assert_eq!(
        pool.checkouts,
        pool.returned + pool.quarantined,
        "session leak: {pool:?}"
    );
}

#[test]
fn panic_during_checkout_poisons_the_pool_and_the_daemon_recovers() {
    // The first checkout panics *inside the pool lock*, genuinely poisoning
    // the mutex — the worst single-request failure the pool can see.
    let plan = FaultPlan::new().inject_window(FaultSite::Checkout, 0, 1, FaultAction::Panic);
    let daemon = Daemon::new(ServiceConfig::default()).with_fault_plan(plan);

    let hit = Json::parse(&daemon.handle_line(&evaluate_request(1, &ring(3)))).unwrap();
    assert_eq!(field(&hit, "status").as_str(), Some("error"));
    assert_eq!(error_kind(&hit).as_deref(), Some("internal_panic"));
    assert_eq!(field(&hit, "id").as_i128(), Some(1));

    // The next request finds the poisoned lock, rebuilds the pool and
    // answers normally.
    let next = Json::parse(&daemon.handle_line(&evaluate_request(2, &ring(3)))).unwrap();
    assert_eq!(field(&next, "status").as_str(), Some("ok"), "{next}");
    let reference = kperiodic::optimal_throughput(&ring(3)).unwrap();
    assert_eq!(
        field(&next, "throughput").as_str().unwrap(),
        csdf_service::throughput_to_string(reference.throughput)
    );

    let stats = daemon.service_stats();
    assert_eq!(stats.panics_caught, 1);
    assert!(stats.pool_poison_recoveries >= 1, "{stats:?}");
    assert_no_session_leak(&daemon);
}

#[test]
fn panic_mid_request_quarantines_the_session() {
    // The panic fires after checkout, while the session is out of the pool:
    // the unwinding lease must quarantine it, never refile it.
    let plan = FaultPlan::new().inject_window(FaultSite::Patch, 0, 1, FaultAction::Panic);
    let daemon = Daemon::new(ServiceConfig::default()).with_fault_plan(plan);

    let hit = Json::parse(&daemon.handle_line(&evaluate_request(1, &ring(3)))).unwrap();
    assert_eq!(error_kind(&hit).as_deref(), Some("internal_panic"));

    let pool = daemon.pool_stats();
    assert_eq!((pool.quarantined, pool.returned), (1, 0), "{pool:?}");

    // The daemon stays live and the quarantined session never resurfaces:
    // the follow-up evaluation is a cold checkout with the right answer.
    let next = Json::parse(&daemon.handle_line(&evaluate_request(2, &ring(3)))).unwrap();
    assert_eq!(field(&next, "status").as_str(), Some("ok"), "{next}");
    let pool = daemon.pool_stats();
    assert_eq!(pool.cold, 2, "quarantined session must not be reused");
    assert_no_session_leak(&daemon);
}

#[test]
fn injected_solve_errors_quarantine_without_unwinding() {
    let plan = FaultPlan::new().inject_window(
        FaultSite::Solve,
        0,
        1,
        FaultAction::Error("injected solver fault".to_string()),
    );
    let daemon = Daemon::new(ServiceConfig::default()).with_fault_plan(plan);

    let hit = Json::parse(&daemon.handle_line(&evaluate_request(1, &ring(3)))).unwrap();
    assert_eq!(error_kind(&hit).as_deref(), Some("evaluation"));
    assert!(
        field(&hit, "error")
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("injected solver fault"),
        "{hit}"
    );
    // An error (no panic) still quarantines: the session may be mid-mutation.
    assert_eq!(daemon.pool_stats().quarantined, 1);
    assert_eq!(daemon.service_stats().panics_caught, 0);

    let next = Json::parse(&daemon.handle_line(&evaluate_request(2, &ring(3)))).unwrap();
    assert_eq!(field(&next, "status").as_str(), Some("ok"));
    assert_no_session_leak(&daemon);
}

#[test]
fn zero_deadline_cancels_before_the_solve() {
    let daemon = Daemon::new(ServiceConfig::default());
    let line = format!(
        r#"{{"id":9,"deadline_ms":0,"type":"evaluate","graph":{{"format":"text","source":{}}}}}"#,
        Json::Str(csdf::text::to_text(&ring(3)))
    );
    let hit = Json::parse(&daemon.handle_line(&line)).unwrap();
    assert_eq!(error_kind(&hit).as_deref(), Some("deadline_exceeded"));
    assert_eq!(field(&hit, "id").as_i128(), Some(9));
    assert_eq!(daemon.service_stats().deadline_exceeded, 1);

    // Without a deadline the same request succeeds.
    let next = Json::parse(&daemon.handle_line(&evaluate_request(10, &ring(3)))).unwrap();
    assert_eq!(field(&next, "status").as_str(), Some("ok"));
    assert_no_session_leak(&daemon);
}

/// A 100k-task single-SCC graph takes ~1 s of K-Iter when healthy (about
/// 2 s for the whole uncancelled request, parsing included, on a 2-core
/// host) — far beyond the request's deadline. The evaluation must die
/// *by deadline* (the solver polls the [`kperiodic::CancelToken`] once per
/// policy round, so even one huge component cannot outrun cancellation),
/// never by hanging until the solve completes, and the daemon must stay
/// live. Debug
/// builds skip it (the `ignore` is gated on `debug_assertions`; the graph
/// alone is tens of MB of request text); in release builds it runs
/// normally, and CI has a dedicated `cargo test --release -p csdf-service
/// --test chaos` step for exactly that.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "100k-task graph; meaningful in release only"
)]
fn hundred_k_task_request_dies_by_deadline_not_by_hang() {
    let graph =
        csdf_generators::random_graph(&csdf_generators::RandomGraphConfig::large(100_000), 0xD0C5)
            .expect("100k-task random graph generates");
    // The graph's text form is far beyond the default 1 MiB line cap, so the
    // request is only admissible with a raised cap.
    let daemon = Daemon::new(ServiceConfig {
        max_line_bytes: 64 << 20,
        ..ServiceConfig::default()
    });
    let line = format!(
        r#"{{"id":1,"deadline_ms":500,"type":"evaluate","graph":{{"format":"text","source":{}}}}}"#,
        Json::Str(csdf::text::to_text(&graph))
    );
    let started = std::time::Instant::now();
    let hit = Json::parse(&daemon.handle_line(&line)).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(
        error_kind(&hit).as_deref(),
        Some("deadline_exceeded"),
        "{hit}"
    );
    assert_eq!(field(&hit, "id").as_i128(), Some(1));
    // Generous bound (parsing tens of MB of request text is itself seconds
    // of work on a slow host). It is above the ~2 s an uncancelled request
    // costs on a 2-core host, so the `deadline_exceeded` kind asserted above,
    // not this bound, is what shows the evaluation died by deadline.
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "deadline-exceeded answer took {elapsed:?}"
    );
    assert_eq!(daemon.service_stats().deadline_exceeded, 1);

    // The daemon is still live and answers a small request exactly.
    let next = Json::parse(&daemon.handle_line(&evaluate_request(2, &ring(3)))).unwrap();
    assert_eq!(field(&next, "status").as_str(), Some("ok"), "{next}");
    assert_no_session_leak(&daemon);
}

#[test]
fn daemon_default_deadline_applies_when_the_request_has_none() {
    let daemon = Daemon::new(ServiceConfig {
        default_deadline_ms: Some(0),
        ..ServiceConfig::default()
    });
    let hit = Json::parse(&daemon.handle_line(&evaluate_request(1, &ring(3)))).unwrap();
    assert_eq!(error_kind(&hit).as_deref(), Some("deadline_exceeded"));

    // A request-level deadline overrides the daemon default.
    let line = format!(
        r#"{{"id":2,"deadline_ms":60000,"type":"evaluate","graph":{{"format":"text","source":{}}}}}"#,
        Json::Str(csdf::text::to_text(&ring(3)))
    );
    let next = Json::parse(&daemon.handle_line(&line)).unwrap();
    assert_eq!(field(&next, "status").as_str(), Some("ok"), "{next}");
    assert_no_session_leak(&daemon);
}

#[test]
fn admission_caps_shed_oversized_graphs_and_lines() {
    let daemon = Daemon::new(ServiceConfig {
        max_tasks: 1,
        max_line_bytes: 512,
        ..ServiceConfig::default()
    });

    // Two tasks against a one-task cap: typed rejection, nothing evaluated.
    let hit = Json::parse(&daemon.handle_line(&evaluate_request(1, &ring(3)))).unwrap();
    assert_eq!(error_kind(&hit).as_deref(), Some("rejected"));
    assert_eq!(daemon.pool_stats().checkouts, 0);

    // An over-long line is rejected before parsing, with the id still
    // echoed from the readable prefix.
    let long = format!(
        r#"{{"id":77,"type":"evaluate","junk":"{}"}}"#,
        "x".repeat(1024)
    );
    let hit = Json::parse(&daemon.handle_line(&long)).unwrap();
    assert_eq!(error_kind(&hit).as_deref(), Some("rejected"));
    assert_eq!(field(&hit, "id").as_i128(), Some(77));

    assert_eq!(daemon.service_stats().rejected, 2);
    assert_no_session_leak(&daemon);
}

#[test]
fn inflight_limit_sheds_concurrent_load() {
    // Every admitted request stalls 400 ms at the parse site; with a
    // one-request in-flight cap the second concurrent request must be shed.
    let plan = FaultPlan::new().inject(
        FaultSite::Parse,
        FaultAction::Delay(std::time::Duration::from_millis(400)),
    );
    let daemon = Daemon::new(ServiceConfig {
        max_inflight: 1,
        ..ServiceConfig::default()
    })
    .with_fault_plan(plan);

    std::thread::scope(|scope| {
        let slow = scope.spawn(|| daemon.handle_line(&evaluate_request(1, &ring(3))));
        // Give the first request time to be admitted and start its delay.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let shed = Json::parse(&daemon.handle_line(&evaluate_request(2, &ring(4)))).unwrap();
        assert_eq!(error_kind(&shed).as_deref(), Some("rejected"), "{shed}");
        let slow = Json::parse(&slow.join().unwrap()).unwrap();
        assert_eq!(field(&slow, "status").as_str(), Some("ok"), "{slow}");
    });
    assert_eq!(daemon.service_stats().rejected, 1);
    assert_eq!(daemon.service_stats().inflight, 0);
    assert_no_session_leak(&daemon);
}

#[test]
fn streaming_transport_bounds_reads_and_stays_in_sync() {
    let daemon = Daemon::new(ServiceConfig {
        max_line_bytes: 256,
        ..ServiceConfig::default()
    });
    // An oversize line between two valid requests: the middle response is a
    // rejection and the final request still gets its real answer — the
    // stream never desynchronises.
    let flood = format!(r#"{{"id":2,"flood":"{}"}}"#, "y".repeat(4096));
    let input = format!(
        "{}\n{flood}\n{}\n",
        evaluate_request(1, &ring(3)),
        evaluate_request(3, &ring(3)),
    );
    let mut output = Vec::new();
    daemon
        .serve_lines(std::io::Cursor::new(input.into_bytes()), &mut output)
        .unwrap();
    let responses: Vec<Json> = String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|line| Json::parse(line).unwrap())
        .collect();
    assert_eq!(responses.len(), 3);
    assert_eq!(field(&responses[0], "status").as_str(), Some("ok"));
    assert_eq!(error_kind(&responses[1]).as_deref(), Some("rejected"));
    assert_eq!(field(&responses[1], "id").as_i128(), Some(2));
    assert_eq!(field(&responses[2], "status").as_str(), Some("ok"));
    assert_eq!(field(&responses[2], "cache").as_str(), Some("hit"));
}

#[test]
fn parse_failures_are_typed_and_correlated() {
    let daemon = Daemon::new(ServiceConfig::default());

    let garbage = Json::parse(&daemon.handle_line("not json at all")).unwrap();
    assert_eq!(field(&garbage, "status").as_str(), Some("error"));
    assert_eq!(error_kind(&garbage).as_deref(), Some("parse"));
    assert_eq!(field(&garbage, "id"), &Json::Null);

    let bad_type = Json::parse(&daemon.handle_line(r#"{"id":7,"type":"bogus"}"#)).unwrap();
    assert_eq!(error_kind(&bad_type).as_deref(), Some("parse"));
    assert_eq!(field(&bad_type, "id").as_i128(), Some(7));

    let bad_deadline =
        Json::parse(&daemon.handle_line(r#"{"id":8,"type":"evaluate","deadline_ms":"soon"}"#))
            .unwrap();
    assert_eq!(error_kind(&bad_deadline).as_deref(), Some("parse"));
    assert_eq!(field(&bad_deadline, "id").as_i128(), Some(8));
}

#[test]
fn cache_panics_recover_and_keep_answers_correct() {
    // The second cache access panics inside the cache lock. The first
    // request primes the cache; the second (same graph) panics mid-lookup
    // and poisons the mutex; the third must recover, re-evaluate (the cache
    // restarted empty) and still produce the exact answer.
    let plan = FaultPlan::new().inject_window(FaultSite::Cache, 1, 1, FaultAction::Panic);
    let daemon = Daemon::new(ServiceConfig::default()).with_fault_plan(plan);

    let first = Json::parse(&daemon.handle_line(&evaluate_request(1, &ring(3)))).unwrap();
    assert_eq!(field(&first, "status").as_str(), Some("ok"));
    assert_eq!(field(&first, "cache").as_str(), Some("miss"));

    let second = Json::parse(&daemon.handle_line(&evaluate_request(2, &ring(3)))).unwrap();
    assert_eq!(error_kind(&second).as_deref(), Some("internal_panic"));

    let third = Json::parse(&daemon.handle_line(&evaluate_request(3, &ring(3)))).unwrap();
    assert_eq!(field(&third, "status").as_str(), Some("ok"), "{third}");
    assert_eq!(field(&third, "cache").as_str(), Some("miss"));
    assert_eq!(
        field(&third, "throughput").as_str(),
        field(&first, "throughput").as_str()
    );
    assert!(daemon.service_stats().cache_poison_recoveries >= 1);
    assert_no_session_leak(&daemon);
}
