//! The daemon: session pool + result cache + request scheduler.
//!
//! # Fault containment
//!
//! The daemon survives any single request. Per-request handling runs under
//! [`std::panic::catch_unwind`], so a panicking handler becomes a structured
//! `internal_panic` error response instead of tearing down the transport; a
//! pool or cache mutex poisoned by such a panic is recovered on the next
//! access (the pool drops its idle sessions, the cache restarts empty, and
//! the recovery is counted in [`ServiceStats`]). Sessions whose work errored
//! or panicked mid-mutation are quarantined
//! ([`SessionPool::quarantine`]), never refiled. Deadlines
//! ([`crate::protocol::Request::deadline_ms`] or
//! [`ServiceConfig::default_deadline_ms`]) cancel evaluations cooperatively
//! through a [`CancelToken`], and admission caps
//! ([`ServiceConfig::max_line_bytes`] / [`ServiceConfig::max_tasks`] /
//! [`ServiceConfig::max_buffers`] / [`ServiceConfig::max_inflight`]) shed
//! oversized or excess work with typed `rejected` responses before it can
//! occupy a worker.

use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use csdf::json::{throughput_to_string, Json};
use csdf::transform::bound_all_buffers_tracked;
use csdf::{CsdfGraph, TaskId, Throughput};
use csdf_baselines::{expansion_throughput, Budget, EvaluationStatus};
use csdf_explore::{
    min_storage_for_throughput_on, uniform_slack_capacity, ParetoSweep, ScenarioSet,
};
use kperiodic::{AnalysisError, AnalysisSession, CancelToken, KIterResult, PoolStats, SessionPool};

use crate::cache::{CacheKey, CacheStats, ResultCache};
use crate::fault::{FaultPlan, FaultSite};
use crate::protocol::{parse_request, GraphSpec, RequestBody};

/// Wall-clock budget of each `verify` cross-check when the request has no
/// deadline of its own (also the expansion baseline's time budget).
const VERIFY_CHECK_BUDGET: Duration = Duration::from_secs(30);

/// Configuration of a [`Daemon`]. Every pooled session evaluates with the
/// default [`kperiodic::KIterOptions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Maximum idle sessions kept warm (see [`SessionPool`]).
    pub pool_capacity: usize,
    /// Maximum cached evaluate results (see [`ResultCache`]).
    pub cache_capacity: usize,
    /// Worker threads a batch is fanned over ([`Daemon::run_batch`];
    /// `0` is treated as `1`). Streaming transports answer in-line and
    /// ignore this.
    pub workers: usize,
    /// Deadline applied to requests that carry no `deadline_ms` of their
    /// own; `None` means no default deadline.
    pub default_deadline_ms: Option<u64>,
    /// Longest accepted request line in bytes; longer lines are answered
    /// with a `rejected` error (and, on streaming transports, never buffered
    /// beyond this size).
    pub max_line_bytes: usize,
    /// Largest admitted task count of a request's graph.
    pub max_tasks: usize,
    /// Largest admitted buffer count of a request's graph. Only admitted
    /// graphs are evaluated and cached, so this also bounds a result cache
    /// key, which stores one marking per buffer.
    pub max_buffers: usize,
    /// Requests allowed past parsing concurrently; excess load is shed with
    /// a `rejected` error instead of queueing without bound.
    pub max_inflight: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            pool_capacity: 16,
            cache_capacity: 256,
            workers: 4,
            default_deadline_ms: None,
            max_line_bytes: 1 << 20,
            max_tasks: 1 << 20,
            max_buffers: 1 << 20,
            max_inflight: 256,
        }
    }
}

/// The stable error taxonomy of the wire protocol: every error response
/// carries `{"error":{"kind":"<kind>","message":"..."}}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not a well-formed request.
    Parse,
    /// Admission control refused the request (line length, graph size, or
    /// in-flight load).
    Rejected,
    /// The graph failed to load or was structurally invalid.
    InvalidGraph,
    /// The request's deadline elapsed before the evaluation finished.
    DeadlineExceeded,
    /// The handler panicked; the panic was contained and the daemon is
    /// still live.
    InternalPanic,
    /// The evaluation itself failed (solver error, iteration or size
    /// budget, injected fault).
    Evaluation,
}

impl ErrorKind {
    /// The wire string of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Rejected => "rejected",
            ErrorKind::InvalidGraph => "invalid_graph",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::InternalPanic => "internal_panic",
            ErrorKind::Evaluation => "evaluation",
        }
    }
}

/// A typed request failure, rendered as the response's `error` object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Which class of failure this is.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ServiceError {
    /// Creates an error of the given kind.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ServiceError {
        ServiceError {
            kind,
            message: message.into(),
        }
    }
}

impl From<AnalysisError> for ServiceError {
    fn from(error: AnalysisError) -> ServiceError {
        let kind = match &error {
            AnalysisError::DeadlineExceeded => ErrorKind::DeadlineExceeded,
            AnalysisError::Model(_)
            | AnalysisError::RejectedByLint { .. }
            | AnalysisError::ArenaGraphMismatch => ErrorKind::InvalidGraph,
            AnalysisError::Solver(_)
            | AnalysisError::IterationLimitReached { .. }
            | AnalysisError::EventGraphTooLarge { .. }
            | AnalysisError::EventGraphTooManyArcs { .. } => ErrorKind::Evaluation,
        };
        ServiceError::new(kind, error.to_string())
    }
}

/// Fault-containment counters of a [`Daemon`]
/// ([`Daemon::service_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Request handlers that panicked; each became an `internal_panic`
    /// response while the daemon stayed live.
    pub panics_caught: usize,
    /// Requests answered with `deadline_exceeded`.
    pub deadline_exceeded: usize,
    /// Requests shed by admission control (`rejected` responses).
    pub rejected: usize,
    /// Times the pool mutex was found poisoned and rebuilt (idle sessions
    /// dropped, counters kept).
    pub pool_poison_recoveries: usize,
    /// Times the cache mutex was found poisoned and cleared.
    pub cache_poison_recoveries: usize,
    /// Requests currently past admission and not yet answered.
    pub inflight: usize,
}

/// A throughput-analysis daemon.
///
/// One daemon owns a [`SessionPool`] (warm [`AnalysisSession`]s routed by
/// structure fingerprint) and a [`ResultCache`] (exact-keyed evaluate
/// results), both behind mutexes held only for checkout/return and
/// lookup/insert — never across an evaluation — so any number of transport
/// threads and batch workers can share one daemon. Every response is
/// **bit-identical** to the corresponding direct library call on a cold
/// session, whatever mix of requests ran before: warm sessions re-target
/// markings without keeping K state, and the cache key is exact.
///
/// Transports: [`Daemon::run_batch`] (a batch of lines fanned over a scoped
/// worker pool, responses in request order), [`Daemon::serve_lines`]
/// (streaming line/response over any reader/writer pair, e.g. stdin/stdout)
/// and [`Daemon::serve_unix`] (a Unix socket, one streaming connection per
/// thread). All of them contain faults per request — see the module docs.
///
/// # Examples
///
/// ```
/// use csdf_service::{Daemon, ServiceConfig};
///
/// let daemon = Daemon::new(ServiceConfig::default());
/// let request = r#"{"id":1,"type":"evaluate","graph":{"format":"text","source":"graph g\ntask a durations=1\ntask b durations=1\nbuffer a -> b prod=1 cons=1 tokens=0\nbuffer b -> a prod=1 cons=1 tokens=1\n"}}"#;
/// let response = daemon.handle_line(request);
/// assert!(response.contains(r#""status":"ok""#));
/// assert!(response.contains(r#""throughput":"1/2""#));
/// ```
#[derive(Debug)]
pub struct Daemon {
    config: ServiceConfig,
    pool: Mutex<SessionPool>,
    cache: Mutex<ResultCache>,
    fault_plan: Option<FaultPlan>,
    panics_caught: AtomicUsize,
    deadlines_exceeded: AtomicUsize,
    rejected: AtomicUsize,
    pool_poison_recoveries: AtomicUsize,
    cache_poison_recoveries: AtomicUsize,
    inflight: AtomicUsize,
}

/// Decrements the in-flight gauge when a request finishes — also by
/// unwinding, so a panicking handler cannot leak an in-flight slot.
struct InflightGuard<'a> {
    daemon: &'a Daemon,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.daemon.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A checked-out session on its way through one request. Dropping the lease
/// with the session still inside — the error and panic paths — quarantines
/// it ([`SessionPool::quarantine`]); the success path takes the session out
/// and refiles it explicitly.
struct SessionLease<'a> {
    daemon: &'a Daemon,
    session: Option<AnalysisSession>,
}

impl Drop for SessionLease<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.daemon.pool_guard().quarantine(session);
        }
    }
}

impl Daemon {
    /// Creates a daemon with the given configuration.
    pub fn new(config: ServiceConfig) -> Daemon {
        Daemon {
            pool: Mutex::new(SessionPool::new(config.pool_capacity)),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            config,
            fault_plan: None,
            panics_caught: AtomicUsize::new(0),
            deadlines_exceeded: AtomicUsize::new(0),
            rejected: AtomicUsize::new(0),
            pool_poison_recoveries: AtomicUsize::new(0),
            cache_poison_recoveries: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
        }
    }

    /// Installs a [`FaultPlan`] polled at the named request-handling sites
    /// (builder form). Only available with the `fault-injection` cargo
    /// feature, so production builds cannot inject faults.
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Daemon {
        self.fault_plan = Some(plan);
        self
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Session-pool counters so far (checkouts, warm hit rate, evictions,
    /// quarantines). Recovers the pool first if a panicking worker poisoned
    /// its lock.
    pub fn pool_stats(&self) -> PoolStats {
        *self.pool_guard().stats()
    }

    /// Result-cache counters so far. Recovers the cache first if a panicking
    /// worker poisoned its lock.
    pub fn cache_stats(&self) -> CacheStats {
        *self.cache_guard().stats()
    }

    /// Fault-containment counters so far.
    pub fn service_stats(&self) -> ServiceStats {
        ServiceStats {
            panics_caught: self.panics_caught.load(Ordering::SeqCst),
            deadline_exceeded: self.deadlines_exceeded.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            pool_poison_recoveries: self.pool_poison_recoveries.load(Ordering::SeqCst),
            cache_poison_recoveries: self.cache_poison_recoveries.load(Ordering::SeqCst),
            inflight: self.inflight.load(Ordering::SeqCst),
        }
    }

    /// Locks the pool, recovering from poison: a pool whose lock was
    /// poisoned mid-checkout may hold sessions in unknown states, so its
    /// idle set is dropped (counters survive) and the recovery is counted.
    fn pool_guard(&self) -> MutexGuard<'_, SessionPool> {
        match self.pool.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.pool.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                self.pool_poison_recoveries.fetch_add(1, Ordering::SeqCst);
                guard
            }
        }
    }

    /// Locks the cache, recovering from poison: a half-written cache entry
    /// must never be served, so the cache restarts empty (counters survive)
    /// and the recovery is counted.
    fn cache_guard(&self) -> MutexGuard<'_, ResultCache> {
        match self.cache.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.cache.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                self.cache_poison_recoveries.fetch_add(1, Ordering::SeqCst);
                guard
            }
        }
    }

    /// Polls the installed fault plan at `site` (no-op without a plan).
    fn fault(&self, site: FaultSite) -> Result<(), ServiceError> {
        match &self.fault_plan {
            Some(plan) => plan
                .fire(site)
                .map_err(|message| ServiceError::new(ErrorKind::Evaluation, message)),
            None => Ok(()),
        }
    }

    /// Handles one request line and renders the one response line (without
    /// trailing newline). Never panics and never propagates a handler panic:
    /// every failure — malformed input, admission rejection, deadline,
    /// evaluation error, or a panic inside the handler — becomes a
    /// `{"status":"error"}` response with a typed `error` object, echoing
    /// the request id when one could be read.
    pub fn handle_line(&self, line: &str) -> String {
        if line.len() > self.config.max_line_bytes {
            return self.reject_oversized(line);
        }
        match catch_unwind(AssertUnwindSafe(|| self.handle_admitted(line))) {
            Ok(response) => response,
            Err(payload) => {
                self.panics_caught.fetch_add(1, Ordering::SeqCst);
                let error = ServiceError::new(
                    ErrorKind::InternalPanic,
                    format!("request handler panicked: {}", panic_message(&payload)),
                );
                render_response(scan_id(line), None, Err(error))
            }
        }
    }

    /// The panic-unsafe interior of [`Daemon::handle_line`]: parse,
    /// admission, deadline, dispatch.
    fn handle_admitted(&self, line: &str) -> String {
        let request = match parse_request(line) {
            Err((id, message)) => {
                return render_response(
                    id,
                    None,
                    Err(ServiceError::new(ErrorKind::Parse, message)),
                );
            }
            Ok(request) => request,
        };
        let kind = request.body.kind();
        let respond = |outcome: Result<Vec<(String, Json)>, ServiceError>| {
            if let Err(error) = &outcome {
                match error.kind {
                    ErrorKind::DeadlineExceeded => {
                        self.deadlines_exceeded.fetch_add(1, Ordering::SeqCst);
                    }
                    ErrorKind::Rejected => {
                        self.rejected.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => {}
                }
            }
            render_response(request.id, Some(kind), outcome)
        };
        let Some(_inflight) = self.try_admit() else {
            return respond(Err(ServiceError::new(
                ErrorKind::Rejected,
                "daemon is at its in-flight request limit",
            )));
        };
        if let Err(error) = self.fault(FaultSite::Parse) {
            return respond(Err(error));
        }
        let deadline = match request.deadline_ms.or(self.config.default_deadline_ms) {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::default(),
        };
        respond(self.dispatch(&request.body, &deadline))
    }

    /// Renders the `rejected` response for an over-long request line. The
    /// message deliberately names no byte counts and the id scan is capped
    /// to the first [`ServiceConfig::max_line_bytes`] bytes, so a streaming
    /// transport that never buffered the whole line produces the identical
    /// response.
    fn reject_oversized(&self, line: &str) -> String {
        self.rejected.fetch_add(1, Ordering::SeqCst);
        let window = prefix_window(line, self.config.max_line_bytes);
        render_response(
            scan_id(window),
            None,
            Err(ServiceError::new(
                ErrorKind::Rejected,
                "request line exceeds the maximum line length",
            )),
        )
    }

    /// Reserves an in-flight slot, or sheds the request when the daemon is
    /// already at [`ServiceConfig::max_inflight`].
    fn try_admit(&self) -> Option<InflightGuard<'_>> {
        let previous = self.inflight.fetch_add(1, Ordering::SeqCst);
        let guard = InflightGuard { daemon: self };
        if previous >= self.config.max_inflight.max(1) {
            drop(guard);
            None
        } else {
            Some(guard)
        }
    }

    /// Rejects graphs over the admission caps before any expensive work.
    fn admit(&self, graph: &CsdfGraph) -> Result<(), ServiceError> {
        if graph.task_count() > self.config.max_tasks {
            return Err(ServiceError::new(
                ErrorKind::Rejected,
                format!(
                    "graph has {} tasks, admission cap is {}",
                    graph.task_count(),
                    self.config.max_tasks
                ),
            ));
        }
        if graph.buffer_count() > self.config.max_buffers {
            return Err(ServiceError::new(
                ErrorKind::Rejected,
                format!(
                    "graph has {} buffers, admission cap is {}",
                    graph.buffer_count(),
                    self.config.max_buffers
                ),
            ));
        }
        Ok(())
    }

    /// Runs a batch of request lines (blank lines skipped) over the
    /// configured worker pool and returns the responses **in request
    /// order** — workers race through a shared cursor, but each tags its
    /// responses with the request index and the batch is re-assembled
    /// deterministically before returning.
    ///
    /// Degrades gracefully: should a worker die anyway (handler panics are
    /// already contained inside [`Daemon::handle_line`]), its unfinished
    /// request indices are answered with `internal_panic` error responses
    /// instead of panicking the caller.
    pub fn run_batch(&self, input: &str) -> Vec<String> {
        let lines: Vec<&str> = input
            .lines()
            .filter(|line| !line.trim().is_empty())
            .collect();
        let workers = self.config.workers.max(1).min(lines.len().max(1));
        let cursor = AtomicUsize::new(0);
        let mut responses: Vec<Option<String>> = Vec::new();
        responses.resize_with(lines.len(), || None);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut handled = Vec::new();
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            if index >= lines.len() {
                                break;
                            }
                            handled.push((index, self.handle_line(lines[index])));
                        }
                        handled
                    })
                })
                .collect();
            for handle in handles {
                // A dead worker loses its handled list; the fill-in below
                // answers for whatever indices stayed unclaimed.
                if let Ok(handled) = handle.join() {
                    for (index, response) in handled {
                        responses[index] = Some(response);
                    }
                }
            }
        });
        responses
            .into_iter()
            .enumerate()
            .map(|(index, response)| {
                response.unwrap_or_else(|| {
                    self.panics_caught.fetch_add(1, Ordering::SeqCst);
                    render_response(
                        scan_id(lines[index]),
                        None,
                        Err(ServiceError::new(
                            ErrorKind::InternalPanic,
                            "batch worker terminated before answering",
                        )),
                    )
                })
            })
            .collect()
    }

    /// Streams requests from `reader` to `writer`: one response line per
    /// request line, flushed immediately, blank lines skipped. Returns when
    /// the reader reaches end of input.
    ///
    /// Reads are bounded: at most [`ServiceConfig::max_line_bytes`] (+1)
    /// bytes of a line are ever buffered. A longer line is answered with the
    /// same id-echoing `rejected` response the batch transport produces and
    /// the rest of the line is drained without buffering it.
    ///
    /// # Errors
    ///
    /// I/O errors from the reader or writer.
    pub fn serve_lines<R: BufRead, W: Write>(
        &self,
        reader: R,
        mut writer: W,
    ) -> std::io::Result<()> {
        let limit = self.config.max_line_bytes;
        // One limit-resettable wrapper instead of a fresh `take` per line:
        // at most limit + 1 bytes of any line are ever buffered.
        let mut reader = std::io::Read::take(reader, 0);
        let mut buffer: Vec<u8> = Vec::new();
        loop {
            reader.set_limit(limit as u64 + 1);
            buffer.clear();
            let read = reader.read_until(b'\n', &mut buffer)?;
            if read == 0 {
                return Ok(());
            }
            let complete = buffer.last() == Some(&b'\n');
            if complete {
                buffer.pop();
                if buffer.last() == Some(&b'\r') {
                    buffer.pop();
                }
            }
            if !complete && buffer.len() > limit {
                let prefix = String::from_utf8_lossy(&buffer);
                writeln!(writer, "{}", self.reject_oversized(&prefix))?;
                writer.flush()?;
                drain_line(reader.get_mut())?;
                continue;
            }
            let line = String::from_utf8_lossy(&buffer);
            if line.trim().is_empty() {
                continue;
            }
            writeln!(writer, "{}", self.handle_line(&line))?;
            writer.flush()?;
        }
    }

    /// Serves streaming connections on a Unix socket at `path` (an existing
    /// socket file is replaced). Each connection gets its own thread running
    /// [`Daemon::serve_lines`] — with its bounded reads, so no connection
    /// can grow a buffer beyond [`ServiceConfig::max_line_bytes`]; all
    /// connections share this daemon's pool and cache. With
    /// `max_connections`, returns after that many connections have been
    /// **accepted** (their threads are joined before returning) — pass
    /// `None` to serve forever.
    ///
    /// # Errors
    ///
    /// Socket bind/accept errors; per-connection I/O errors only terminate
    /// that connection.
    #[cfg(unix)]
    pub fn serve_unix(
        &self,
        path: &std::path::Path,
        max_connections: Option<usize>,
    ) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        std::thread::scope(|scope| {
            for (accepted, stream) in listener.incoming().enumerate() {
                let stream = stream?;
                scope.spawn(move || {
                    let reader = BufReader::new(&stream);
                    let _ = self.serve_lines(reader, &stream);
                });
                if max_connections.is_some_and(|max| accepted + 1 >= max) {
                    break;
                }
            }
            Ok(())
        })
    }

    /// Checks a session out of the pool for `graph`, installs the request's
    /// cancellation token, runs `work` on it outside any lock, and refiles
    /// the session. Only a session whose work *succeeded* returns to the
    /// pool (with its token detached); a session whose work errored or
    /// panicked is quarantined — it may be mid-mutation, and a dropped
    /// session can never leak its state into a later request.
    fn with_session<T>(
        &self,
        graph: &CsdfGraph,
        deadline: &CancelToken,
        work: impl FnOnce(&mut AnalysisSession) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        self.admit(graph)?;
        let session = {
            let mut pool = self.pool_guard();
            // Fired while the lock is held: a Checkout panic genuinely
            // poisons the pool mutex, like a real mid-checkout panic would.
            self.fault(FaultSite::Checkout)?;
            pool.checkout(graph).map_err(ServiceError::from)?
        };
        let mut lease = SessionLease {
            daemon: self,
            session: Some(session),
        };
        self.fault(FaultSite::Patch)?;
        let session = lease
            .session
            .as_mut()
            .expect("lease still holds its session");
        session.set_cancel_token(deadline.clone());
        let outcome = work(session);
        match outcome {
            Ok(value) => {
                let mut session = lease.session.take().expect("lease still holds its session");
                session.set_cancel_token(CancelToken::default());
                self.pool_guard().give_back(session);
                Ok(value)
            }
            // Dropping the lease quarantines the session.
            Err(error) => Err(error),
        }
    }

    /// Dispatches one request body to the matching handler, returning the
    /// response's payload fields.
    fn dispatch(
        &self,
        body: &RequestBody,
        deadline: &CancelToken,
    ) -> Result<Vec<(String, Json)>, ServiceError> {
        let load = |spec: &GraphSpec| {
            spec.load()
                .map_err(|message| ServiceError::new(ErrorKind::InvalidGraph, message))
        };
        match body {
            RequestBody::Evaluate { graph } => {
                let graph = load(graph)?;
                let (result, cache) = self.evaluate_cached(&graph, deadline)?;
                Ok(evaluate_fields(&result, cache))
            }
            RequestBody::Sweep { graph, slacks } => {
                let graph = load(graph)?;
                let sweep = ParetoSweep::uniform_slack(&graph, slacks).map_err(|error| {
                    ServiceError::new(ErrorKind::InvalidGraph, error.to_string())
                })?;
                let outcome = self.with_session(sweep.bounded().graph(), deadline, |session| {
                    sweep.run_on_session(session).map_err(ServiceError::from)
                })?;
                let points = outcome.points.iter().map(|point| {
                    Json::object([
                        ("slack", point.label.into()),
                        ("total_storage", point.total_storage.into()),
                        (
                            "throughput",
                            throughput_to_string(point.throughput()).into(),
                        ),
                        ("iterations", point.result.iterations.into()),
                    ])
                });
                let frontier = outcome
                    .pareto_frontier()
                    .into_iter()
                    .map(|point| point.label.into());
                Ok(fields([
                    ("points", Json::Array(points.collect())),
                    ("frontier", Json::Array(frontier.collect())),
                ]))
            }
            RequestBody::MinStorage {
                graph,
                target,
                max_slack,
            } => {
                let graph = load(graph)?;
                let max_slack = (*max_slack).max(1);
                let bounded = bound_all_buffers_tracked(&graph, |_, buffer| {
                    uniform_slack_capacity(buffer, max_slack)
                })
                .map_err(|error| ServiceError::new(ErrorKind::InvalidGraph, error.to_string()))?;
                let outcome = self.with_session(bounded.graph(), deadline, |session| {
                    min_storage_for_throughput_on(session, &bounded, *target, max_slack)
                        .map_err(ServiceError::from)
                })?;
                match outcome {
                    None => Ok(fields([("feasible", false.into())])),
                    Some(outcome) => Ok(fields([
                        ("feasible", true.into()),
                        ("slack", outcome.slack.into()),
                        ("total_storage", outcome.total_storage.into()),
                        (
                            "throughput",
                            throughput_to_string(outcome.result.throughput).into(),
                        ),
                        ("evaluations", outcome.evaluations.into()),
                    ])),
                }
            }
            RequestBody::ScenarioSet { graph, scenarios } => {
                let graph = load(graph)?;
                let mut set = ScenarioSet::new(graph);
                for scenario in scenarios {
                    set.add(scenario.name.clone(), scenario.markings.clone());
                }
                let outcomes = self.with_session(set.base(), deadline, |session| {
                    set.run_on_session(session).map_err(ServiceError::from)
                })?;
                let rendered = outcomes.iter().map(|outcome| {
                    Json::object([
                        ("name", outcome.name.as_str().into()),
                        (
                            "throughput",
                            throughput_to_string(outcome.result.throughput).into(),
                        ),
                        ("iterations", outcome.result.iterations.into()),
                    ])
                });
                Ok(fields([("scenarios", Json::Array(rendered.collect()))]))
            }
            RequestBody::Lint { graph } => {
                Ok(csdf_lint::lint_source(&graph.source, graph.format).json_fields())
            }
            RequestBody::Verify {
                graph: spec,
                max_expansion,
            } => self.verify(spec, *max_expansion, deadline),
        }
    }

    /// The shared evaluate path: exact-keyed cache lookup, else a pooled
    /// session run whose result is cached. Returns the result and whether it
    /// was a cache `"hit"` or `"miss"`.
    fn evaluate_cached(
        &self,
        graph: &CsdfGraph,
        deadline: &CancelToken,
    ) -> Result<(KIterResult, &'static str), ServiceError> {
        self.admit(graph)?;
        let key = CacheKey::new(graph);
        {
            let mut cache = self.cache_guard();
            // Fired while the lock is held: a Cache panic genuinely poisons
            // the cache mutex.
            self.fault(FaultSite::Cache)?;
            if let Some(result) = cache.get(&key) {
                return Ok((result, "hit"));
            }
        }
        let result = self.with_session(graph, deadline, |session| {
            self.fault(FaultSite::Solve)?;
            session.evaluate().map_err(ServiceError::from)
        })?;
        self.cache_guard().insert(key, result.clone());
        Ok((result, "miss"))
    }

    /// The `verify` handler: lint, solve, cross-check.
    ///
    /// Checks run only where they apply and each reports pass/fail: the lint
    /// bounds must bracket the solver's throughput, a lint-proven deadlock
    /// must match [`Throughput::Deadlocked`], and on graphs whose HSDF
    /// expansion stays within `max_expansion` phase-firing copies the
    /// expansion baseline must reproduce the solver's answer exactly. The
    /// verdict is `"agree"` when every executed check passed, `"disagree"`
    /// when any failed, and `"inconclusive"` when none could run (e.g. the
    /// solver exhausted a budget on a graph lint found clean).
    ///
    /// Each check runs under a budget: the request's own deadline when one
    /// is set, otherwise [`VERIFY_CHECK_BUDGET`] per check (the expansion
    /// baseline's wall-time budget is capped the same way), so one slow
    /// check cannot hang a verify forever.
    ///
    /// # Errors
    ///
    /// Only admission rejections ([`ServiceConfig::max_tasks`] /
    /// [`ServiceConfig::max_buffers`]); everything else — including solver
    /// failures — is reported inside the response fields.
    fn verify(
        &self,
        spec: &GraphSpec,
        max_expansion: u64,
        deadline: &CancelToken,
    ) -> Result<Vec<(String, Json)>, ServiceError> {
        // One load serves both lint (with the source spans) and the solve.
        let loaded = csdf_lint::load_source(&spec.source, spec.format);
        let report = csdf_lint::lint_loaded(&loaded);
        let mut fields = report.json_fields();
        let mut checks: Vec<(&'static str, bool)> = Vec::new();
        match loaded {
            Err(error) => {
                // The importer rejected the graph: lint must have an error
                // diagnostic for the same input.
                fields.push(("solver_error".to_string(), error.to_string().into()));
                checks.push(("lint_flags_unloadable", report.has_errors()));
            }
            Ok((graph, _)) => {
                self.admit(&graph)?;
                let check_token = if deadline.is_detached() {
                    CancelToken::with_deadline(VERIFY_CHECK_BUDGET)
                } else {
                    deadline.clone()
                };
                match self.evaluate_cached(&graph, &check_token) {
                    Err(error) => {
                        fields.push(("solver_error".to_string(), error.message.into()));
                        // A solver rejection is predicted by lint only when
                        // lint found an error; budget-type failures are
                        // unpredictable, so no check is recorded for them and
                        // the verdict stays inconclusive.
                        if report.has_errors() {
                            checks.push(("solver_rejection_predicted", true));
                        }
                    }
                    Ok((result, _)) => {
                        let throughput = throughput_to_string(result.throughput);
                        fields.push(("throughput".to_string(), throughput.into()));
                        if let Some(bounds) = &report.bounds {
                            checks.push(("bounds_bracket", bounds.brackets(&result.throughput)));
                        }
                        if report.certain_deadlock() {
                            checks.push((
                                "deadlock_agreement",
                                result.throughput == Throughput::Deadlocked,
                            ));
                        }
                        fields.push(baseline_check(&graph, &result, max_expansion, &mut checks));
                    }
                }
            }
        }
        let verdict = if checks.iter().any(|&(_, passed)| !passed) {
            "disagree"
        } else if checks.is_empty() {
            "inconclusive"
        } else {
            "agree"
        };
        let rendered = checks.iter().map(|&(name, passed)| {
            Json::object([("check", name.into()), ("passed", passed.into())])
        });
        fields.push(("checks".to_string(), Json::Array(rendered.collect())));
        fields.push(("verdict".to_string(), verdict.into()));
        Ok(fields)
    }
}

/// Renders one response line from the request id, the request kind (when it
/// parsed far enough to know one) and the handler outcome.
fn render_response(
    id: Option<i128>,
    kind: Option<&str>,
    outcome: Result<Vec<(String, Json)>, ServiceError>,
) -> String {
    let mut entries = fields([("id", id.map_or(Json::Null, Json::Int))]);
    if let Some(kind) = kind {
        entries.push(("type".to_string(), kind.into()));
    }
    match outcome {
        Ok(payload) => {
            entries.push(("status".to_string(), "ok".into()));
            entries.extend(payload);
        }
        Err(error) => {
            let error = Json::object([
                ("kind", error.kind.as_str().into()),
                ("message", error.message.into()),
            ]);
            entries.extend(fields([("status", "error".into()), ("error", error)]));
        }
    }
    Json::Object(entries).to_string()
}

/// Best-effort id recovery from a line that failed before (or without) a
/// full parse: finds the first `"id"` key followed by an integer. Works on
/// truncated documents, so oversized-line rejections can still correlate.
fn scan_id(line: &str) -> Option<i128> {
    let mut rest = line;
    while let Some(position) = rest.find("\"id\"") {
        let after = rest[position + 4..].trim_start();
        if let Some(after) = after.strip_prefix(':') {
            let after = after.trim_start();
            let end = after
                .char_indices()
                .find(|&(index, c)| !(c.is_ascii_digit() || (index == 0 && c == '-')))
                .map_or(after.len(), |(index, _)| index);
            if let Ok(id) = after[..end].parse::<i128>() {
                return Some(id);
            }
        }
        rest = &rest[position + 4..];
    }
    None
}

/// The longest prefix of `line` within `limit` bytes that ends on a char
/// boundary.
fn prefix_window(line: &str, limit: usize) -> &str {
    if line.len() <= limit {
        return line;
    }
    let mut end = limit;
    while end > 0 && !line.is_char_boundary(end) {
        end -= 1;
    }
    &line[..end]
}

/// Consumes the remainder of the current line (up to and including the next
/// `\n`) without buffering it.
fn drain_line<R: BufRead>(reader: &mut R) -> std::io::Result<()> {
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&byte| byte == b'\n') {
            Some(position) => {
                reader.consume(position + 1);
                return Ok(());
            }
            None => {
                let length = chunk.len();
                reader.consume(length);
            }
        }
    }
}

/// Renders a panic payload for the `internal_panic` response message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs the HSDF-expansion baseline, for at most [`VERIFY_CHECK_BUDGET`],
/// when the expansion stays within `max_expansion` phase-firing copies,
/// recording a `baseline_agreement` check; returns the `baseline` response
/// field (`"skipped"` when too large or out of budget).
fn baseline_check(
    graph: &CsdfGraph,
    result: &KIterResult,
    max_expansion: u64,
    checks: &mut Vec<(&'static str, bool)>,
) -> (String, Json) {
    let field = |value: String| ("baseline".to_string(), value.into());
    let size = graph.repetition_vector().ok().map(|q| {
        graph
            .tasks()
            .map(|(id, task)| q.get(id) as u128 * task.phase_count() as u128)
            .sum::<u128>()
    });
    match size {
        Some(size) if size <= max_expansion as u128 => {
            let budget = Budget {
                max_events: max_expansion,
                max_wall_time: VERIFY_CHECK_BUDGET,
            };
            match expansion_throughput(graph, &budget) {
                Ok(baseline) if baseline.status == EvaluationStatus::Exact => {
                    checks.push((
                        "baseline_agreement",
                        baseline.throughput == Some(result.throughput),
                    ));
                    field(match baseline.throughput {
                        Some(throughput) => throughput_to_string(throughput),
                        None => "none".to_string(),
                    })
                }
                _ => field("skipped".to_string()),
            }
        }
        _ => field("skipped".to_string()),
    }
}

/// The payload fields of an evaluate response.
fn evaluate_fields(result: &KIterResult, cache: &str) -> Vec<(String, Json)> {
    let periodicity = (0..result.periodicity.len())
        .map(|index| result.periodicity.get(TaskId::new(index)).into());
    let critical = result.critical_tasks.iter().map(|task| task.index().into());
    fields([
        ("cache", cache.into()),
        ("throughput", throughput_to_string(result.throughput).into()),
        ("iterations", result.iterations.into()),
        ("periodicity", Json::Array(periodicity.collect())),
        ("critical_tasks", Json::Array(critical.collect())),
    ])
}

/// Response payload fields from `(key, value)` pairs, in order.
fn fields<const N: usize>(entries: [(&str, Json); N]) -> Vec<(String, Json)> {
    entries
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_id_recovers_ids_from_partial_lines() {
        assert_eq!(scan_id(r#"{"id":42,"type":"evaluate""#), Some(42));
        assert_eq!(scan_id(r#"{"id" : -7 ,"#), Some(-7));
        assert_eq!(scan_id(r#"{"type":"evaluate"}"#), None);
        assert_eq!(scan_id(r#"{"id":"string"}"#), None);
        assert_eq!(scan_id(r#"{"id":null,"other":{"id":5}}"#), Some(5));
        assert_eq!(scan_id("not json at all"), None);
    }

    #[test]
    fn prefix_window_respects_char_boundaries() {
        assert_eq!(prefix_window("hello", 10), "hello");
        assert_eq!(prefix_window("hello", 3), "hel");
        // 'é' is two bytes; a limit inside it backs off to the boundary.
        assert_eq!(prefix_window("aé", 2), "a");
    }

    #[test]
    fn error_kinds_have_stable_wire_strings() {
        for (kind, wire) in [
            (ErrorKind::Parse, "parse"),
            (ErrorKind::Rejected, "rejected"),
            (ErrorKind::InvalidGraph, "invalid_graph"),
            (ErrorKind::DeadlineExceeded, "deadline_exceeded"),
            (ErrorKind::InternalPanic, "internal_panic"),
            (ErrorKind::Evaluation, "evaluation"),
        ] {
            assert_eq!(kind.as_str(), wire);
        }
    }

    #[test]
    fn analysis_errors_classify_into_the_taxonomy() {
        let deadline: ServiceError = AnalysisError::DeadlineExceeded.into();
        assert_eq!(deadline.kind, ErrorKind::DeadlineExceeded);
        let model: ServiceError = AnalysisError::Model(csdf::CsdfError::EmptyGraph).into();
        assert_eq!(model.kind, ErrorKind::InvalidGraph);
        let budget: ServiceError = AnalysisError::IterationLimitReached { iterations: 3 }.into();
        assert_eq!(budget.kind, ErrorKind::Evaluation);
    }
}
