//! The request/response protocol of the analysis service.
//!
//! One request is one line of JSON; the matching response is one line of
//! JSON echoing the request's `id`. Requests carry their graph inline as a
//! string in one of the workspace's two serialisation formats, so the
//! protocol needs no out-of-band state:
//!
//! ```json
//! {"id":1,"type":"evaluate","graph":{"format":"sdf3","source":"<sdf3 ...>"}}
//! {"id":2,"type":"sweep","graph":{...},"slacks":[1,2,4]}
//! {"id":3,"type":"min_storage","graph":{...},"target":"2/7","max_slack":64}
//! {"id":4,"type":"scenario_set","graph":{...},"scenarios":[
//!     {"name":"tight","markings":[[3,1]]}]}
//! {"id":5,"type":"lint","graph":{...}}
//! {"id":6,"type":"verify","graph":{...},"max_expansion":10000}
//! ```
//!
//! Graph `format` is `"sdf3"` (the SDF3 XML wire format, see
//! [`csdf::text::write_sdf3_xml`]) or `"text"` (the line format of
//! [`csdf::text::parse`]). SDF3 `bufferSize` channel annotations are
//! honoured: the graph is evaluated with those channels bounded to the
//! annotated capacities (see [`GraphSpec::load`]).
//!
//! Throughputs cross the wire as exact strings — `"num/den"`, `"unbounded"`
//! or `"deadlock"` — never floats, so responses can be compared bit-for-bit
//! against direct library calls. [`csdf::json`] writes and reads that form
//! ([`csdf::json::throughput_to_string`], [`csdf::json::parse_throughput`])
//! along with the JSON itself.

use csdf::json::{parse_throughput, Json};
use csdf::{BufferId, CsdfGraph, Throughput};
use csdf_lint::InputFormat;

/// A graph shipped inline with a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSpec {
    /// How `source` is encoded: SDF3 XML
    /// ([`csdf::text::parse_sdf3_xml_import`]) or the workspace line format
    /// ([`csdf::text::parse`]).
    pub format: InputFormat,
    /// The serialised graph.
    pub source: String,
}

impl GraphSpec {
    /// Parses the inline source into the graph the request is about. SDF3
    /// `bufferSize` annotations are applied on the spot: the annotated
    /// channels are bounded to their capacities
    /// ([`csdf::text::Sdf3Import::into_bounded`]), so the returned graph
    /// is exactly what a direct library call on the bounded design would
    /// analyse, and what [`csdf_lint::load_source`] loads.
    ///
    /// # Errors
    ///
    /// The rendered parse/model error.
    pub fn load(&self) -> Result<CsdfGraph, String> {
        let graph = match self.format {
            InputFormat::Text => csdf::text::parse(&self.source),
            InputFormat::Sdf3 => csdf::text::parse_sdf3_xml_import(&self.source)
                .and_then(|import| import.into_bounded().map(|(graph, _)| graph)),
        };
        graph.map_err(|error| error.to_string())
    }

    fn from_json(value: &Json) -> Result<GraphSpec, String> {
        let format = match value.get("format").and_then(Json::as_str) {
            Some("sdf3") => InputFormat::Sdf3,
            Some("text") => InputFormat::Text,
            Some(other) => return Err(format!("unknown graph format `{other}`")),
            None => return Err("`graph.format` must be \"sdf3\" or \"text\"".to_string()),
        };
        let source = value
            .get("source")
            .and_then(Json::as_str)
            .ok_or("`graph.source` must be a string")?
            .to_string();
        Ok(GraphSpec { format, source })
    }
}

/// One named marking-override scenario of a `scenario_set` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Scenario name, echoed in the response.
    pub name: String,
    /// `(buffer id, initial tokens)` overrides.
    pub markings: Vec<(BufferId, u64)>,
}

/// The request types the daemon serves.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Optimal throughput of the graph (K-Iter).
    Evaluate {
        /// The graph to evaluate.
        graph: GraphSpec,
    },
    /// A uniform-slack Pareto sweep ([`csdf_explore::ParetoSweep`]).
    Sweep {
        /// The graph to bound and sweep.
        graph: GraphSpec,
        /// The slack values to evaluate, in response order.
        slacks: Vec<u64>,
    },
    /// Smallest uniform slack reaching a target throughput
    /// ([`csdf_explore::min_storage_for_throughput_on`]).
    MinStorage {
        /// The graph to bound.
        graph: GraphSpec,
        /// The throughput to reach.
        target: Throughput,
        /// Largest slack to consider.
        max_slack: u64,
    },
    /// Marking scenarios over one base graph
    /// ([`csdf_explore::ScenarioSet`]).
    ScenarioSet {
        /// The base graph.
        graph: GraphSpec,
        /// The scenarios, in response order.
        scenarios: Vec<ScenarioSpec>,
    },
    /// Static analysis only ([`csdf_lint::analyze_with_sources`]): structured
    /// diagnostics plus the pre-solve throughput bounds, no solver run; the
    /// response carries the report's fields
    /// ([`csdf_lint::LintReport::json_fields`], as `csdf-lint --json` does).
    /// Unparseable graphs are reported as an `L000` diagnostic, not a
    /// protocol error.
    Lint {
        /// The graph to lint.
        graph: GraphSpec,
    },
    /// Cross-check the analysis stack on one graph: lint, then K-Iter, then
    /// (on small graphs) the HSDF-expansion baseline, and compare all
    /// verdicts. The response starts with the same report fields as `lint`.
    Verify {
        /// The graph to verify.
        graph: GraphSpec,
        /// Largest HSDF expansion (in phase-firing copies, `Σ q_t·φ_t`) the
        /// baseline cross-check may build; bigger graphs skip the baseline.
        max_expansion: u64,
    },
}

impl RequestBody {
    /// The `type` string of this request.
    pub fn kind(&self) -> &'static str {
        match self {
            RequestBody::Evaluate { .. } => "evaluate",
            RequestBody::Sweep { .. } => "sweep",
            RequestBody::MinStorage { .. } => "min_storage",
            RequestBody::ScenarioSet { .. } => "scenario_set",
            RequestBody::Lint { .. } => "lint",
            RequestBody::Verify { .. } => "verify",
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The client's correlation id, echoed verbatim in the response.
    pub id: Option<i128>,
    /// Per-request deadline in milliseconds: the daemon cancels the
    /// evaluation cooperatively once this budget elapses and answers with a
    /// `deadline_exceeded` error. `None` falls back to the daemon's default
    /// deadline; `0` cancels immediately (useful as an admission probe).
    pub deadline_ms: Option<u64>,
    /// What to do.
    pub body: RequestBody,
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message (the daemon wraps it in an error response). When
/// the line carries a readable `id` despite the error, it is returned too so
/// the error response can still be correlated.
pub fn parse_request(line: &str) -> Result<Request, (Option<i128>, String)> {
    let value = Json::parse(line).map_err(|error| (None, error))?;
    let id = value.get("id").and_then(Json::as_i128);
    let fail = |message: String| (id, message);
    let deadline_ms = match value.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(entry) => Some(
            entry
                .as_u64()
                .ok_or_else(|| fail("`deadline_ms` must be a non-negative integer".to_string()))?,
        ),
    };
    let graph = || -> Result<GraphSpec, (Option<i128>, String)> {
        let spec = value
            .get("graph")
            .ok_or_else(|| fail("missing `graph`".to_string()))?;
        GraphSpec::from_json(spec).map_err(fail)
    };
    let body = match value.get("type").and_then(Json::as_str) {
        Some("evaluate") => RequestBody::Evaluate { graph: graph()? },
        Some("sweep") => {
            let slacks = value
                .get("slacks")
                .and_then(Json::as_array)
                .ok_or_else(|| fail("`slacks` must be an array of integers".to_string()))?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<u64>>>()
                .ok_or_else(|| {
                    fail("`slacks` entries must be non-negative integers".to_string())
                })?;
            if slacks.is_empty() {
                return Err(fail("`slacks` must not be empty".to_string()));
            }
            RequestBody::Sweep {
                graph: graph()?,
                slacks,
            }
        }
        Some("min_storage") => {
            let target = value
                .get("target")
                .and_then(Json::as_str)
                .ok_or_else(|| fail("`target` must be a throughput string".to_string()))?;
            let target = parse_throughput(target).map_err(fail)?;
            let max_slack = match value.get("max_slack") {
                None => 64,
                Some(entry) => entry.as_u64().ok_or_else(|| {
                    fail("`max_slack` must be a non-negative integer".to_string())
                })?,
            };
            RequestBody::MinStorage {
                graph: graph()?,
                target,
                max_slack,
            }
        }
        Some("scenario_set") => {
            let scenarios = value
                .get("scenarios")
                .and_then(Json::as_array)
                .ok_or_else(|| fail("`scenarios` must be an array".to_string()))?
                .iter()
                .map(parse_scenario)
                .collect::<Result<Vec<ScenarioSpec>, String>>()
                .map_err(fail)?;
            RequestBody::ScenarioSet {
                graph: graph()?,
                scenarios,
            }
        }
        Some("lint") => RequestBody::Lint { graph: graph()? },
        Some("verify") => {
            let max_expansion = match value.get("max_expansion") {
                None => 10_000,
                Some(entry) => entry.as_u64().ok_or_else(|| {
                    fail("`max_expansion` must be a non-negative integer".to_string())
                })?,
            };
            RequestBody::Verify {
                graph: graph()?,
                max_expansion,
            }
        }
        Some(other) => return Err(fail(format!("unknown request type `{other}`"))),
        None => return Err(fail("missing `type`".to_string())),
    };
    Ok(Request {
        id,
        deadline_ms,
        body,
    })
}

fn parse_scenario(value: &Json) -> Result<ScenarioSpec, String> {
    let name = value
        .get("name")
        .and_then(Json::as_str)
        .ok_or("scenario `name` must be a string")?
        .to_string();
    let markings = value
        .get("markings")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|pair| {
            let pair = pair.as_array().filter(|pair| pair.len() == 2);
            let buffer = pair.and_then(|p| p[0].as_u64());
            let tokens = pair.and_then(|p| p[1].as_u64());
            match (buffer, tokens) {
                (Some(buffer), Some(tokens)) => Ok((BufferId::new(buffer as usize), tokens)),
                _ => Err(format!(
                    "scenario `{name}` markings must be [buffer, tokens] integer pairs"
                )),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ScenarioSpec { name, markings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::Rational;

    fn text_graph() -> String {
        "graph g\ntask a durations=1\ntask b durations=2\nbuffer a -> b prod=1 cons=1 tokens=0\nbuffer b -> a prod=1 cons=1 tokens=2\n".to_string()
    }

    fn graph_json(source: &str) -> String {
        Json::object([("format", "text".into()), ("source", source.into())]).to_string()
    }

    #[test]
    fn parses_all_request_types() {
        let graph = graph_json(&text_graph());
        let evaluate =
            parse_request(&format!(r#"{{"id":1,"type":"evaluate","graph":{graph}}}"#)).unwrap();
        assert_eq!(evaluate.id, Some(1));
        assert_eq!(evaluate.body.kind(), "evaluate");
        assert_eq!(evaluate.deadline_ms, None);

        let bounded = parse_request(&format!(
            r#"{{"id":1,"type":"evaluate","graph":{graph},"deadline_ms":250}}"#
        ))
        .unwrap();
        assert_eq!(bounded.deadline_ms, Some(250));
        let (_, message) = parse_request(&format!(
            r#"{{"id":1,"type":"evaluate","graph":{graph},"deadline_ms":"soon"}}"#
        ))
        .unwrap_err();
        assert!(message.contains("deadline_ms"));

        let sweep = parse_request(&format!(
            r#"{{"id":2,"type":"sweep","graph":{graph},"slacks":[1,2,4]}}"#
        ))
        .unwrap();
        match sweep.body {
            RequestBody::Sweep { slacks, .. } => assert_eq!(slacks, vec![1, 2, 4]),
            other => panic!("unexpected {other:?}"),
        }

        let storage = parse_request(&format!(
            r#"{{"id":3,"type":"min_storage","graph":{graph},"target":"1/4"}}"#
        ))
        .unwrap();
        match storage.body {
            RequestBody::MinStorage {
                target, max_slack, ..
            } => {
                assert_eq!(target, Throughput::Finite(Rational::new(1, 4).unwrap()));
                assert_eq!(max_slack, 64);
            }
            other => panic!("unexpected {other:?}"),
        }

        let scenarios = parse_request(&format!(
            r#"{{"id":4,"type":"scenario_set","graph":{graph},"scenarios":[{{"name":"s","markings":[[1,5]]}}]}}"#
        ))
        .unwrap();
        match scenarios.body {
            RequestBody::ScenarioSet { scenarios, .. } => {
                assert_eq!(scenarios.len(), 1);
                assert_eq!(scenarios[0].markings, vec![(BufferId::new(1), 5)]);
            }
            other => panic!("unexpected {other:?}"),
        }

        let lint = parse_request(&format!(r#"{{"id":5,"type":"lint","graph":{graph}}}"#)).unwrap();
        assert_eq!(lint.body.kind(), "lint");

        let verify =
            parse_request(&format!(r#"{{"id":6,"type":"verify","graph":{graph}}}"#)).unwrap();
        match verify.body {
            RequestBody::Verify { max_expansion, .. } => assert_eq!(max_expansion, 10_000),
            other => panic!("unexpected {other:?}"),
        }
        let verify = parse_request(&format!(
            r#"{{"id":7,"type":"verify","graph":{graph},"max_expansion":32}}"#
        ))
        .unwrap();
        match verify.body {
            RequestBody::Verify { max_expansion, .. } => assert_eq!(max_expansion, 32),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn graphs_load_from_both_formats() {
        let spec = GraphSpec {
            format: InputFormat::Text,
            source: text_graph(),
        };
        let graph = spec.load().unwrap();
        assert_eq!(graph.task_count(), 2);

        let sdf3 = GraphSpec {
            format: InputFormat::Sdf3,
            source: csdf::text::write_sdf3_xml(&graph),
        };
        assert_eq!(sdf3.load().unwrap(), graph);
    }

    #[test]
    fn sdf3_buffer_sizes_bound_the_loaded_graph() {
        let base = GraphSpec {
            format: InputFormat::Text,
            source: text_graph(),
        }
        .load()
        .unwrap();
        let annotated = csdf::text::write_sdf3_xml_with_capacities(&base, &[(BufferId::new(0), 3)]);
        let loaded = GraphSpec {
            format: InputFormat::Sdf3,
            source: annotated,
        }
        .load()
        .unwrap();
        // One reverse channel was added for the annotated buffer.
        assert_eq!(loaded.buffer_count(), base.buffer_count() + 1);
    }

    #[test]
    fn errors_keep_the_request_id() {
        let (id, message) = parse_request(r#"{"id":9,"type":"nope"}"#).unwrap_err();
        assert_eq!(id, Some(9));
        assert!(message.contains("unknown request type"));
        let (id, _) = parse_request("not json").unwrap_err();
        assert_eq!(id, None);
    }
}
