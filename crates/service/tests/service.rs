//! End-to-end tests of the daemon: every request type over every transport,
//! bit-identity against direct library calls, and cache/pool interaction
//! under concurrency and structure changes.

use std::io::{BufRead, BufReader, Write};

use csdf::{CsdfGraph, CsdfGraphBuilder};
use csdf_lint::{InputFormat, LintCode};
use csdf_service::{throughput_to_string, Daemon, Json, ServiceConfig};

/// A three-task ring whose feedback marking (and hence throughput) is
/// `tokens`-dependent while the structure fingerprint is not.
fn ring(tokens: u64) -> CsdfGraph {
    let mut b = CsdfGraphBuilder::new();
    let x = b.add_sdf_task("x", 2);
    let y = b.add_task("y", vec![1, 3]);
    let z = b.add_sdf_task("z", 1);
    b.add_buffer(x, y, vec![2], vec![1, 1], 0);
    b.add_buffer(y, z, vec![1, 1], vec![2], 0);
    b.add_sdf_buffer(z, x, 1, 1, tokens);
    b.build().unwrap()
}

/// The same ring with a serialising self-loop on every task. Full
/// serialisation is what lets lint claim cycle/workload upper bounds that
/// the solver's event-graph model provably respects, so `verify` reaches an
/// `agree` verdict instead of surfacing the auto-concurrency divergence.
fn serialized_ring(tokens: u64) -> CsdfGraph {
    let mut b = CsdfGraphBuilder::new();
    let x = b.add_sdf_task("x", 2);
    let y = b.add_task("y", vec![1, 3]);
    let z = b.add_sdf_task("z", 1);
    b.add_buffer(x, y, vec![2], vec![1, 1], 0);
    b.add_buffer(y, z, vec![1, 1], vec![2], 0);
    b.add_sdf_buffer(z, x, 1, 1, tokens);
    for task in [x, y, z] {
        b.add_serializing_self_loop(task);
    }
    b.build().unwrap()
}

fn evaluate_request(id: usize, graph: &CsdfGraph) -> String {
    let spec = text_spec(graph);
    format!(r#"{{"id":{id},"type":"evaluate","graph":{spec}}}"#)
}

/// An inline graph: `{"format":format,"source":source}`.
fn graph_spec(format: &str, source: String) -> Json {
    Json::object([("format", format.into()), ("source", source.into())])
}

fn text_spec(graph: &CsdfGraph) -> Json {
    graph_spec("text", csdf::text::to_text(graph))
}

fn field<'a>(response: &'a Json, name: &str) -> &'a Json {
    response.get(name).unwrap_or(&Json::Null)
}

#[test]
fn batch_serves_all_request_types_in_request_order() {
    let graph = ring(2);
    let spec = text_spec(&graph);
    let batch = [
        format!(r#"{{"id":10,"type":"evaluate","graph":{spec}}}"#),
        format!(r#"{{"id":11,"type":"sweep","graph":{spec},"slacks":[1,2,4]}}"#),
        format!(r#"{{"id":12,"type":"min_storage","graph":{spec},"target":"1/8","max_slack":16}}"#),
        format!(
            r#"{{"id":13,"type":"scenario_set","graph":{spec},"scenarios":[{{"name":"tight","markings":[[2,1]]}},{{"name":"base","markings":[]}}]}}"#
        ),
        r#"{"id":14,"type":"evaluate"}"#.to_string(),
    ]
    .join("\n");

    let daemon = Daemon::new(ServiceConfig {
        workers: 3,
        ..ServiceConfig::default()
    });
    let responses = daemon.run_batch(&batch);
    assert_eq!(responses.len(), 5);
    let parsed: Vec<Json> = responses
        .iter()
        .map(|line| Json::parse(line).unwrap())
        .collect();
    for (index, response) in parsed.iter().enumerate() {
        assert_eq!(field(response, "id").as_i128(), Some(10 + index as i128));
    }

    let reference = kperiodic::optimal_throughput(&graph).unwrap();
    assert_eq!(field(&parsed[0], "status").as_str(), Some("ok"));
    assert_eq!(
        field(&parsed[0], "throughput").as_str().unwrap(),
        throughput_to_string(reference.throughput)
    );
    assert_eq!(
        field(&parsed[0], "iterations").as_u64(),
        Some(reference.iterations as u64)
    );

    let points = field(&parsed[1], "points").as_array().unwrap();
    assert_eq!(points.len(), 3);
    for (point, slack) in points.iter().zip([1u64, 2, 4]) {
        assert_eq!(field(point, "slack").as_u64(), Some(slack));
    }
    assert!(!field(&parsed[1], "frontier").as_array().unwrap().is_empty());

    assert_eq!(field(&parsed[2], "feasible").as_bool(), Some(true));
    assert!(field(&parsed[2], "slack").as_u64().unwrap() >= 1);

    let scenarios = field(&parsed[3], "scenarios").as_array().unwrap();
    assert_eq!(scenarios.len(), 2);
    assert_eq!(field(&scenarios[0], "name").as_str(), Some("tight"));
    assert_eq!(
        field(&scenarios[1], "throughput").as_str().unwrap(),
        throughput_to_string(reference.throughput)
    );

    assert_eq!(field(&parsed[4], "status").as_str(), Some("error"));
    assert_eq!(field(&parsed[4], "id").as_i128(), Some(14));
}

#[test]
fn concurrent_same_structure_clients_match_cold_evaluations() {
    // Many marking variants of one structure: every request routes to the
    // same fingerprint bucket of the pool, so almost all checkouts re-target
    // a warm session — and every response must still be bit-identical to a
    // cold evaluation of its own graph.
    let markings: Vec<u64> = (1..=24).collect();
    let batch: Vec<String> = markings
        .iter()
        .map(|&tokens| evaluate_request(tokens as usize, &ring(tokens)))
        .collect();
    let daemon = Daemon::new(ServiceConfig {
        workers: 6,
        pool_capacity: 4,
        cache_capacity: 4,
        ..ServiceConfig::default()
    });
    let responses = daemon.run_batch(&batch.join("\n"));
    assert_eq!(responses.len(), markings.len());
    for (&tokens, line) in markings.iter().zip(&responses) {
        let response = Json::parse(line).unwrap();
        let reference = kperiodic::optimal_throughput(&ring(tokens)).unwrap();
        assert_eq!(field(&response, "status").as_str(), Some("ok"), "{line}");
        assert_eq!(
            field(&response, "throughput").as_str().unwrap(),
            throughput_to_string(reference.throughput),
            "tokens = {tokens}"
        );
        assert_eq!(
            field(&response, "iterations").as_u64(),
            Some(reference.iterations as u64),
            "tokens = {tokens}"
        );
        let periodicity: Vec<u64> = field(&response, "periodicity")
            .as_array()
            .unwrap()
            .iter()
            .map(|entry| entry.as_u64().unwrap())
            .collect();
        let expected: Vec<u64> = (0..reference.periodicity.len())
            .map(|index| reference.periodicity.get(csdf::TaskId::new(index)))
            .collect();
        assert_eq!(periodicity, expected, "tokens = {tokens}");
    }
    let pool = daemon.pool_stats();
    assert_eq!(pool.checkouts, markings.len());
    assert!(
        pool.warm > 0,
        "same-structure batch must reuse warm sessions: {pool:?}"
    );
}

#[test]
fn cache_hits_never_outlive_a_structure_change() {
    let daemon = Daemon::new(ServiceConfig::default());
    let graph = ring(3);

    let first = daemon.run_batch(&evaluate_request(1, &graph));
    assert!(first[0].contains(r#""cache":"miss""#));
    let second = daemon.run_batch(&evaluate_request(2, &graph));
    assert!(second[0].contains(r#""cache":"hit""#));

    // Same task/buffer counts, one duration changed: different structure
    // fingerprint, so the cached result must not be served.
    let mut changed = CsdfGraphBuilder::new();
    let x = changed.add_sdf_task("x", 5);
    let y = changed.add_task("y", vec![1, 3]);
    let z = changed.add_sdf_task("z", 1);
    changed.add_buffer(x, y, vec![2], vec![1, 1], 0);
    changed.add_buffer(y, z, vec![1, 1], vec![2], 0);
    changed.add_sdf_buffer(z, x, 1, 1, 3);
    let changed = changed.build().unwrap();
    let third = daemon.run_batch(&evaluate_request(3, &changed));
    assert!(third[0].contains(r#""cache":"miss""#), "{}", third[0]);
    let reference = kperiodic::optimal_throughput(&changed).unwrap();
    assert!(third[0].contains(&format!(
        r#""throughput":"{}""#,
        throughput_to_string(reference.throughput)
    )));

    // A marking change on the same structure also misses.
    let fourth = daemon.run_batch(&evaluate_request(4, &ring(4)));
    assert!(fourth[0].contains(r#""cache":"miss""#));
    let stats = daemon.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 3));
}

/// A `lint` response is its header (`id`, `type`, `status`) followed by
/// exactly the report's one JSON rendering.
#[test]
fn lint_responses_carry_the_reports_json_fields() {
    let daemon = Daemon::new(ServiceConfig::default());
    let live = csdf::text::to_text(&ring(2));
    let deadlocked = include_str!("../../lint/tests/fixtures/l002_deadlock_cycle.csdf");
    let unparsable = "graph g\nnonsense\n";
    for source in [live.as_str(), deadlocked, unparsable] {
        let report = csdf_lint::lint_source(source, InputFormat::Text);
        let spec = Json::object([("format", "text".into()), ("source", source.into())]);
        let request = Json::object([
            ("id", 1usize.into()),
            ("type", "lint".into()),
            ("graph", spec),
        ]);
        let mut expected = vec![
            ("id".to_string(), Json::Int(1)),
            ("type".to_string(), "lint".into()),
            ("status".to_string(), "ok".into()),
        ];
        expected.extend(report.json_fields());
        let response = daemon.handle_line(&request.to_string());
        assert_eq!(
            Json::parse(&response),
            Ok(Json::Object(expected)),
            "{source}"
        );
    }
    let lint = |source| csdf_lint::lint_source(source, InputFormat::Text);
    assert!(lint(deadlocked).has_code(LintCode::DeadlockedCycle));
    assert!(lint(unparsable).has_code(LintCode::ImportError));
}

#[test]
fn lint_and_verify_cross_check_the_solver() {
    let daemon = Daemon::new(ServiceConfig::default());
    let graph = ring(2);
    let spec = text_spec(&graph);

    // Lint on a live graph: no errors, bounds bracket the exact answer.
    let lint =
        Json::parse(&daemon.handle_line(&format!(r#"{{"id":1,"type":"lint","graph":{spec}}}"#)))
            .unwrap();
    assert_eq!(field(&lint, "status").as_str(), Some("ok"));
    assert_eq!(field(&lint, "errors").as_u64(), Some(0));
    assert_eq!(field(&lint, "certain_deadlock").as_bool(), Some(false));
    let bounds = field(&lint, "bounds");
    assert!(bounds.get("lower").is_some() && bounds.get("upper").is_some());

    // Verify on the fully serialised ring: lint's bounds are sound for the
    // solver's model, so solver, bounds and expansion baseline all agree.
    let serialized = serialized_ring(2);
    let serialized_spec = text_spec(&serialized);
    let verify = Json::parse(&daemon.handle_line(&format!(
        r#"{{"id":2,"type":"verify","graph":{serialized_spec}}}"#
    )))
    .unwrap();
    assert_eq!(field(&verify, "status").as_str(), Some("ok"));
    assert_eq!(field(&verify, "verdict").as_str(), Some("agree"));
    let reference = kperiodic::optimal_throughput(&serialized).unwrap();
    assert_eq!(
        field(&verify, "throughput").as_str().unwrap(),
        throughput_to_string(reference.throughput)
    );
    assert_eq!(
        field(&verify, "baseline").as_str().unwrap(),
        throughput_to_string(reference.throughput)
    );
    let checks = field(&verify, "checks").as_array().unwrap();
    let names: Vec<&str> = checks
        .iter()
        .map(|check| field(check, "check").as_str().unwrap())
        .collect();
    assert!(names.contains(&"bounds_bracket"));
    assert!(names.contains(&"baseline_agreement"));
    assert!(checks
        .iter()
        .all(|check| field(check, "passed").as_bool() == Some(true)));

    // Verify on the non-serialised ring surfaces the model divergence: the
    // solver's event graph leaves the multiphase task's firings unordered and
    // reports unbounded throughput, while the expansion baseline (which does
    // order them) finds a finite rate. This is exactly the class of
    // discrepancy the verify layer exists to catch; if the event-graph model
    // ever gains phase-serialisation precedences, this verdict should flip
    // to "agree" and the assertion below with it.
    let verify =
        Json::parse(&daemon.handle_line(&format!(r#"{{"id":5,"type":"verify","graph":{spec}}}"#)))
            .unwrap();
    assert_eq!(field(&verify, "status").as_str(), Some("ok"));
    assert_eq!(field(&verify, "verdict").as_str(), Some("disagree"));
    let failed: Vec<&str> = field(&verify, "checks")
        .as_array()
        .unwrap()
        .iter()
        .filter(|check| field(check, "passed").as_bool() == Some(false))
        .map(|check| field(check, "check").as_str().unwrap())
        .collect();
    assert_eq!(failed, vec!["baseline_agreement"]);

    // A deadlocked design: lint proves it, verify confirms solver agreement.
    // (Serialised for the same reason as above: on the non-serialised ring
    // the solver's event graph misses the empty cycle and reports unbounded.)
    let dead = serialized_ring(0);
    let dead_spec = text_spec(&dead);
    let verify = Json::parse(&daemon.handle_line(&format!(
        r#"{{"id":3,"type":"verify","graph":{dead_spec}}}"#
    )))
    .unwrap();
    assert_eq!(field(&verify, "certain_deadlock").as_bool(), Some(true));
    assert_eq!(field(&verify, "throughput").as_str(), Some("deadlock"));
    assert_eq!(field(&verify, "verdict").as_str(), Some("agree"));

    // A broken source: the lint request stays `ok` with an L000 diagnostic.
    let lint = Json::parse(&daemon.handle_line(
        r#"{"id":4,"type":"lint","graph":{"format":"text","source":"graph g\nnonsense\n"}}"#,
    ))
    .unwrap();
    assert_eq!(field(&lint, "status").as_str(), Some("ok"));
    assert_eq!(field(&lint, "errors").as_u64(), Some(1));
    let diagnostics = field(&lint, "diagnostics").as_array().unwrap();
    assert_eq!(field(&diagnostics[0], "code").as_str(), Some("L000"));
    assert_eq!(field(&diagnostics[0], "line").as_u64(), Some(2));
}

/// `verify` on a source the importer rejects: the response carries the
/// importer's message as `solver_error`, lint's `L000`/`L003` diagnostic, a
/// passing `lint_flags_unloadable` check and an `agree` verdict.
#[test]
fn verify_reports_sources_that_fail_to_load() {
    let daemon = Daemon::new(ServiceConfig::default());
    let verify = |spec: &Json| {
        Json::parse(&daemon.handle_line(&format!(r#"{{"id":8,"type":"verify","graph":{spec}}}"#)))
            .unwrap()
    };
    let unparsable = graph_spec("text", "graph g\nnonsense\n".to_string());
    // The feedback buffer z -> x holds 2 tokens; a `bufferSize` of 1 cannot.
    let undersized = graph_spec(
        "sdf3",
        csdf::text::write_sdf3_xml_with_capacities(&ring(2), &[(csdf::BufferId::new(2), 1)]),
    );
    for (spec, code, solver_error) in [
        (
            &unparsable,
            "L000",
            "parse error at line 2: unknown directive `nonsense`",
        ),
        (
            &undersized,
            "L003",
            "buffer 2 (`z` -> `x`) capacity 1 is smaller than its initial marking 2",
        ),
    ] {
        let response = verify(spec);
        assert_eq!(field(&response, "status").as_str(), Some("ok"), "{code}");
        assert_eq!(
            field(&response, "solver_error").as_str(),
            Some(solver_error),
            "{code}"
        );
        let diagnostics = field(&response, "diagnostics").as_array().unwrap();
        assert_eq!(diagnostics.len(), 1, "{code}");
        assert_eq!(field(&diagnostics[0], "code").as_str(), Some(code));
        assert_eq!(field(&response, "errors").as_u64(), Some(1), "{code}");
        let checks = field(&response, "checks").as_array().unwrap();
        assert_eq!(checks.len(), 1, "{code}");
        assert_eq!(
            field(&checks[0], "check").as_str(),
            Some("lint_flags_unloadable")
        );
        assert_eq!(field(&checks[0], "passed").as_bool(), Some(true));
        assert_eq!(
            field(&response, "verdict").as_str(),
            Some("agree"),
            "{code}"
        );
        assert!(field(&response, "throughput").as_str().is_none(), "{code}");
    }
}

#[cfg(unix)]
#[test]
fn unix_socket_responses_are_bit_identical_to_the_batch_transport() {
    let graph = ring(2);
    let spec = text_spec(&graph);
    let requests = [
        format!(r#"{{"id":1,"type":"evaluate","graph":{spec}}}"#),
        format!(r#"{{"id":2,"type":"sweep","graph":{spec},"slacks":[1,3]}}"#),
        format!(
            r#"{{"id":3,"type":"scenario_set","graph":{spec},"scenarios":[{{"name":"s","markings":[[2,5]]}}]}}"#
        ),
        format!(r#"{{"id":4,"type":"lint","graph":{spec}}}"#),
        format!(r#"{{"id":5,"type":"verify","graph":{spec}}}"#),
    ];

    let batch_daemon = Daemon::new(ServiceConfig::default());
    let expected = batch_daemon.run_batch(&requests.join("\n"));

    let socket_daemon = Daemon::new(ServiceConfig::default());
    let path = std::env::temp_dir().join(format!("csdf-service-test-{}.sock", std::process::id()));
    std::thread::scope(|scope| {
        let server = scope.spawn(|| socket_daemon.serve_unix(&path, Some(2)));
        let connect = || {
            for _ in 0..200 {
                if let Ok(stream) = std::os::unix::net::UnixStream::connect(&path) {
                    return stream;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            panic!("daemon socket never came up at {}", path.display());
        };

        // First connection: the evaluate request.
        let stream = connect();
        writeln!(&stream, "{}", requests[0]).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut lines = BufReader::new(&stream).lines();
        assert_eq!(lines.next().unwrap().unwrap(), expected[0]);

        // Second connection streams the remaining two without closing in
        // between: one response per line, in order.
        let stream = connect();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for (request, expected) in requests[1..].iter().zip(&expected[1..]) {
            writeln!(&stream, "{request}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), expected);
        }
        drop(stream);
        drop(reader);
        server.join().unwrap().unwrap();
    });
    let _ = std::fs::remove_file(&path);
}
