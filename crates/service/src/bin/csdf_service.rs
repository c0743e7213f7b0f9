//! The analysis daemon.
//!
//! Default mode reads line-delimited JSON requests from stdin until EOF,
//! fans them over the worker pool, and writes the responses to stdout in
//! request order. With `--socket PATH` it serves streaming connections on a
//! Unix socket instead (one response per request line, flushed
//! immediately). Either way, pool, cache and fault-containment statistics
//! go to stderr as one JSON line on exit.
//!
//! ```text
//! csdf_service [--socket PATH] [--workers N] [--pool N] [--cache N]
//!              [--max-connections N] [--deadline-ms N] [--max-line-bytes N]
//!              [--max-tasks N] [--max-buffers N] [--max-inflight N]
//! ```

use std::io::Write;
use std::process::ExitCode;

use csdf_service::{Daemon, Json, ServiceConfig};

struct Args {
    socket: Option<std::path::PathBuf>,
    max_connections: Option<usize>,
    config: ServiceConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        socket: None,
        max_connections: None,
        config: ServiceConfig::default(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or_else(|| format!("{flag} expects a value"));
        fn parse<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("{flag} expects an integer"))
        }
        match flag.as_str() {
            "--socket" => args.socket = Some(value("--socket")?.into()),
            "--max-connections" => {
                args.max_connections =
                    Some(parse("--max-connections", &value("--max-connections")?)?);
            }
            "--workers" => args.config.workers = parse("--workers", &value("--workers")?)?,
            "--pool" => args.config.pool_capacity = parse("--pool", &value("--pool")?)?,
            "--cache" => args.config.cache_capacity = parse("--cache", &value("--cache")?)?,
            "--deadline-ms" => {
                args.config.default_deadline_ms =
                    Some(parse("--deadline-ms", &value("--deadline-ms")?)?);
            }
            "--max-line-bytes" => {
                args.config.max_line_bytes =
                    parse("--max-line-bytes", &value("--max-line-bytes")?)?;
            }
            "--max-tasks" => args.config.max_tasks = parse("--max-tasks", &value("--max-tasks")?)?,
            "--max-buffers" => {
                args.config.max_buffers = parse("--max-buffers", &value("--max-buffers")?)?;
            }
            "--max-inflight" => {
                args.config.max_inflight = parse("--max-inflight", &value("--max-inflight")?)?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: csdf_service [--socket PATH] [--workers N] [--pool N] [--cache N] \
                     [--max-connections N] [--deadline-ms N] [--max-line-bytes N] \
                     [--max-tasks N] [--max-buffers N] [--max-inflight N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("csdf_service: {message}");
            return ExitCode::FAILURE;
        }
    };
    let daemon = Daemon::new(args.config);
    let served = match &args.socket {
        Some(path) => serve_socket(&daemon, path, args.max_connections),
        None => serve_stdin(&daemon),
    };
    let pool = daemon.pool_stats();
    let cache = daemon.cache_stats();
    let service = daemon.service_stats();
    let stats = Json::object([
        ("checkouts", pool.checkouts.into()),
        ("warm", pool.warm.into()),
        ("cold", pool.cold.into()),
        ("warm_hit_rate", Json::rounded(pool.warm_hit_rate(), 4)),
        ("returned", pool.returned.into()),
        ("quarantined", pool.quarantined.into()),
        ("cache_hits", cache.hits.into()),
        ("cache_misses", cache.misses.into()),
        ("panics_caught", service.panics_caught.into()),
        ("deadline_exceeded", service.deadline_exceeded.into()),
        ("rejected", service.rejected.into()),
        (
            "pool_poison_recoveries",
            service.pool_poison_recoveries.into(),
        ),
        (
            "cache_poison_recoveries",
            service.cache_poison_recoveries.into(),
        ),
    ]);
    eprintln!("{stats}");
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("csdf_service: {error}");
            ExitCode::FAILURE
        }
    }
}

fn serve_stdin(daemon: &Daemon) -> std::io::Result<()> {
    let input = std::io::read_to_string(std::io::stdin())?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for response in daemon.run_batch(&input) {
        writeln!(out, "{response}")?;
    }
    out.flush()
}

#[cfg(unix)]
fn serve_socket(
    daemon: &Daemon,
    path: &std::path::Path,
    max_connections: Option<usize>,
) -> std::io::Result<()> {
    daemon.serve_unix(path, max_connections)
}

#[cfg(not(unix))]
fn serve_socket(
    _daemon: &Daemon,
    _path: &std::path::Path,
    _max_connections: Option<usize>,
) -> std::io::Result<()> {
    Err(std::io::Error::other(
        "--socket requires a Unix platform; use the stdin batch mode",
    ))
}
