//! `csdf-lint` — static analysis of CSDF graph files.
//!
//! ```text
//! csdf-lint [--json] [--format text|sdf3] FILE...
//! csdf-lint --codes
//! ```
//!
//! `--json` prints one JSON object per file: `file`, then the report's
//! fields ([`csdf_lint::LintReport::json_fields`], the same fields the
//! service's `lint` responses carry).
//!
//! Exit status is 1 when any file has an error-severity diagnostic (or could
//! not be read), 0 otherwise; warnings and notes do not fail the run.

use std::process::ExitCode;

use csdf::json::Json;
use csdf_lint::{lint_source, InputFormat, LintCode};

const USAGE: &str =
    "usage: csdf-lint [--json] [--format text|sdf3] FILE...\n       csdf-lint --codes";

struct Args {
    json: bool,
    format: Option<InputFormat>,
    files: Vec<String>,
}

fn parse_args(raw: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        json: false,
        format: None,
        files: Vec::new(),
    };
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--codes" => {
                print_codes();
                return Ok(None);
            }
            "--format" => {
                let value = iter.next().ok_or("--format needs a value")?;
                args.format = Some(match value.as_str() {
                    "text" => InputFormat::Text,
                    "sdf3" => InputFormat::Sdf3,
                    other => return Err(format!("unknown format `{other}` (text|sdf3)")),
                });
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            file => args.files.push(file.to_string()),
        }
    }
    if args.files.is_empty() {
        return Err("no input files".to_string());
    }
    Ok(Some(args))
}

fn print_codes() {
    for code in LintCode::all() {
        println!("{} {:7} {}", code, code.severity(), code.description());
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("csdf-lint: {message}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;
    for file in &args.files {
        let source = match std::fs::read_to_string(file) {
            Ok(source) => source,
            Err(err) => {
                eprintln!("csdf-lint: cannot read {file}: {err}");
                failed = true;
                continue;
            }
        };
        let format = args.format.unwrap_or_else(|| InputFormat::from_path(file));
        let report = lint_source(&source, format);
        if args.json {
            let mut line = vec![("file".to_string(), Json::from(file.as_str()))];
            line.extend(report.json_fields());
            println!("{}", Json::Object(line));
        } else {
            print!("{}", report.render(Some(file)));
        }
        if report.has_errors() {
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
