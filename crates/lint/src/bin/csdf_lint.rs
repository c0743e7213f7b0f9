//! `csdf-lint` — static analysis of CSDF graph files.
//!
//! ```text
//! csdf-lint [--json] [--format text|sdf3] FILE...
//! csdf-lint --codes
//! ```
//!
//! Exit status is 1 when any file has an error-severity diagnostic (or could
//! not be read), 0 otherwise; warnings and notes do not fail the run.

use std::process::ExitCode;

use csdf_lint::{lint_source, throughput_wire, InputFormat, LintCode, LintReport};

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

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn report_json(file: &str, report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("{{\"file\":\"{}\",", json_escape(file)));
    out.push_str("\"diagnostics\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"",
            d.code,
            d.severity(),
            json_escape(&d.message)
        ));
        if let Some(line) = d.line {
            out.push_str(&format!(",\"line\":{line}"));
        }
        if !d.tasks.is_empty() {
            let tasks: Vec<String> = d
                .tasks
                .iter()
                .map(|t| format!("\"{}\"", json_escape(t)))
                .collect();
            out.push_str(&format!(",\"tasks\":[{}]", tasks.join(",")));
        }
        if !d.buffers.is_empty() {
            let buffers: Vec<String> = d
                .buffers
                .iter()
                .map(|b| {
                    format!(
                        "{{\"index\":{},\"source\":\"{}\",\"target\":\"{}\"}}",
                        b.index,
                        json_escape(&b.source),
                        json_escape(&b.target)
                    )
                })
                .collect();
            out.push_str(&format!(",\"buffers\":[{}]", buffers.join(",")));
        }
        out.push('}');
    }
    out.push(']');
    if let Some(bounds) = &report.bounds {
        out.push_str(&format!(
            ",\"bounds\":{{\"lower\":\"{}\",\"upper\":\"{}\"}}",
            throughput_wire(&bounds.lower),
            throughput_wire(&bounds.upper)
        ));
    }
    out.push_str(&format!(
        ",\"errors\":{},\"warnings\":{}}}",
        report.error_count(),
        report.warning_count()
    ));
    out
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
            println!("{}", report_json(file, &report));
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
