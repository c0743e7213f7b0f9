//! A small line-oriented text format for CSDF graphs, plus the SDF3 XML
//! importer.
//!
//! The line format is meant for fixtures, examples and debugging; it is not
//! the SDF3 XML format (which the paper's benchmark ships in) but carries
//! exactly the same information:
//!
//! ```text
//! # comment
//! graph sample
//! task A durations=1,1
//! task B durations=1
//! buffer A -> B prod=2,3 cons=5 tokens=4
//! ```
//!
//! Lines end at `\n`; a `\r` before it is whitespace. Words are separated by
//! any run of Unicode whitespace, exactly as [`str::split_whitespace`]
//! separates them, so tabs, U+00A0 and U+3000 separate words too. A line
//! whose first word starts with `#` is a comment, and words after a line's
//! last field are ignored. A `graph` line names the graph only before the
//! first `task` line. Rates, durations and `tokens` are decimal `u64`
//! values; `prod=`, `cons=` and `durations=` take comma-separated lists,
//! `tokens=` takes exactly one value. Tasks may be declared after the
//! buffers that use them.
//!
//! When a text has several faults, [`parse`] reports the first of:
//!
//! 1. the first line with a syntax error ([`CsdfError::Parse`]);
//! 2. no task at all ([`CsdfError::EmptyGraph`]);
//! 3. the first task, in declaration order, with a duplicate name
//!    ([`CsdfError::DuplicateTaskName`]) or with the single duration
//!    `u64::MAX`, which the builder reserves for a task without phases
//!    ([`CsdfError::EmptyPhases`]);
//! 4. the first buffer naming an unknown task ([`CsdfError::Parse`]);
//! 5. the first buffer whose rate lists do not match its tasks' phase counts,
//!    sum past `u64` ([`CsdfError::RateOverflow`]) or sum to zero
//!    ([`CsdfError::ZeroRateBuffer`]).
//!
//! Real benchmark files in the SDF3 `<sdf>`/`<csdf>` XML format are imported
//! with [`parse_sdf3_xml`].

use std::collections::HashMap;

use crate::buffer::BufferId;
use crate::builder::CsdfGraphBuilder;
use crate::error::CsdfError;
use crate::graph::CsdfGraph;
use crate::source::SourceMap;
use crate::task::TaskId;

pub use crate::sdf3::{
    parse_sdf3_xml, parse_sdf3_xml_import, write_sdf3_xml, write_sdf3_xml_with_capacities,
    Sdf3Import,
};

/// Serialises a graph into the textual format parsed by [`parse`].
///
/// # Examples
///
/// ```
/// use csdf::{CsdfGraphBuilder, text};
///
/// let mut builder = CsdfGraphBuilder::named("demo");
/// let a = builder.add_sdf_task("a", 1);
/// let b = builder.add_sdf_task("b", 2);
/// builder.add_sdf_buffer(a, b, 1, 1, 0);
/// let graph = builder.build()?;
/// let round_trip = text::parse(&text::to_text(&graph))?;
/// assert_eq!(round_trip, graph);
/// # Ok::<(), csdf::CsdfError>(())
/// ```
pub fn to_text(graph: &CsdfGraph) -> String {
    let mut out = String::new();
    out.push_str(&format!("graph {}\n", graph.name()));
    for (_, task) in graph.tasks() {
        out.push_str(&format!(
            "task {} durations={}\n",
            task.name(),
            join(task.durations())
        ));
    }
    for (_, buffer) in graph.buffers() {
        out.push_str(&format!(
            "buffer {} -> {} prod={} cons={} tokens={}\n",
            graph.task(buffer.source()).name(),
            graph.task(buffer.target()).name(),
            join(buffer.production()),
            join(buffer.consumption()),
            buffer.initial_tokens()
        ));
    }
    out
}

fn join(values: &[u64]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses a graph from the textual format produced by [`to_text`].
///
/// # Errors
///
/// Returns [`CsdfError::Parse`] with a 1-based line number for syntax errors,
/// and the usual builder errors for semantic problems (unknown task names,
/// rate-length mismatches, ...), in the order given in the module docs.
pub fn parse(input: &str) -> Result<CsdfGraph, CsdfError> {
    parse_with_sources(input).map(|(graph, _)| graph)
}

/// A buffer naming a task not declared yet, resolved after the last line.
struct Unresolved<'a> {
    buffer: BufferId,
    line: usize,
    source: &'a str,
    target: &'a str,
}

/// Like [`parse`], but also returns the [`SourceMap`] recording the 1-based
/// line each task and buffer was declared on — the spans `csdf-lint`
/// attaches to its diagnostics.
///
/// # Errors
///
/// Those of [`parse`].
pub fn parse_with_sources(input: &str) -> Result<(CsdfGraph, SourceMap), CsdfError> {
    let mut name = "csdf";
    // The name in force at the first task line is the graph's.
    let mut graph_name: Option<&str> = None;
    let mut builder = CsdfGraphBuilder::new();
    // Task ids by name, borrowed from the text. The first declaration of a
    // duplicated name wins here; `build` reports the duplicate. std's keyed
    // hasher stays: the daemon parses untrusted text.
    let mut task_ids: HashMap<&str, TaskId> = HashMap::new();
    let mut task_lines: Vec<Option<usize>> = Vec::new();
    let mut buffer_lines: Vec<Option<usize>> = Vec::new();
    let mut unresolved: Vec<Unresolved<'_>> = Vec::new();
    // Every rate list is parsed here first, then copied out at its length.
    let mut rates: Vec<u64> = Vec::new();

    let mut scanner = Scanner::new(input);
    loop {
        let line = scanner.line;
        match scanner.word() {
            None => {}
            Some(word) if word.starts_with('#') => {}
            Some("graph") => {
                name = scanner
                    .word()
                    .ok_or_else(|| parse_error(line, "missing graph name"))?;
            }
            Some("task") => {
                let task_name = scanner
                    .word()
                    .ok_or_else(|| parse_error(line, "missing task name"))?;
                parse_list(scanner.word(), "durations", line, &mut rates)?;
                graph_name.get_or_insert(name);
                let id = builder.add_task(task_name, rates.to_vec());
                task_ids.entry(task_name).or_insert(id);
                task_lines.push(Some(line));
            }
            Some("buffer") => {
                let source = scanner
                    .word()
                    .ok_or_else(|| parse_error(line, "missing source task"))?;
                if scanner.word() != Some("->") {
                    return Err(parse_error(line, "expected `->`"));
                }
                let target = scanner
                    .word()
                    .ok_or_else(|| parse_error(line, "missing target task"))?;
                parse_list(scanner.word(), "prod", line, &mut rates)?;
                let production = rates.to_vec();
                parse_list(scanner.word(), "cons", line, &mut rates)?;
                let consumption = rates.to_vec();
                let tokens = parse_tokens(scanner.word(), line)?;
                let (source_id, target_id) = match (task_ids.get(source), task_ids.get(target)) {
                    (Some(&source_id), Some(&target_id)) => (source_id, target_id),
                    _ => {
                        unresolved.push(Unresolved {
                            buffer: BufferId::new(builder.buffer_count()),
                            line,
                            source,
                            target,
                        });
                        // Placeholders until every task is known.
                        (TaskId::new(0), TaskId::new(0))
                    }
                };
                builder.add_buffer(source_id, target_id, production, consumption, tokens);
                buffer_lines.push(Some(line));
            }
            Some(other) => {
                return Err(parse_error(line, &format!("unknown directive `{other}`")));
            }
        }
        if !scanner.next_line() {
            break;
        }
    }

    builder.set_name(graph_name.ok_or(CsdfError::EmptyGraph)?);
    for pending in unresolved {
        let resolve = |task: &str| {
            task_ids
                .get(task)
                .copied()
                .ok_or_else(|| parse_error(pending.line, &format!("unknown task `{task}`")))
        };
        match resolve(pending.source).and_then(|source| Ok((source, resolve(pending.target)?))) {
            Ok((source, target)) => builder.set_buffer_endpoints(pending.buffer, source, target),
            Err(unknown) => {
                // Task errors rank above unknown names.
                builder.check_tasks()?;
                return Err(unknown);
            }
        }
    }
    let graph = builder.build()?;
    Ok((graph, SourceMap::new(task_lines, buffer_lines)))
}

/// One forward pass over the text: words within the current line, then the
/// step to the next line. Words split exactly as [`str::split_whitespace`]
/// splits them; lines end at `\n` only.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    /// 1-based number of the line `pos` is on.
    line: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner {
            text,
            pos: 0,
            line: 1,
        }
    }

    /// The next word of the current line, if any.
    fn word(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        while pos < bytes.len() && bytes[pos] != b'\n' {
            match whitespace_width(self.text, pos) {
                0 => break,
                width => pos += width,
            }
        }
        let start = pos;
        while let Some(&byte) = bytes.get(pos) {
            // Printable ASCII, the bulk of every word, is decided on the byte.
            if byte > b' ' && byte < 0x80 {
                pos += 1;
            } else if whitespace_width(self.text, pos) > 0 {
                break;
            } else {
                pos += next_char(self.text, pos).len_utf8();
            }
        }
        self.pos = pos;
        (pos > start).then(|| &self.text[start..pos])
    }

    /// Skips the rest of the current line; `false` when there is none.
    fn next_line(&mut self) -> bool {
        // The rest of a line is rarely more than its `\n`: step, don't search.
        let bytes = self.text.as_bytes();
        while let Some(&byte) = bytes.get(self.pos) {
            self.pos += 1;
            if byte == b'\n' {
                self.line += 1;
                return true;
            }
        }
        false
    }
}

/// Byte width of the whitespace character at `pos`, or 0 for any other
/// character. Only a non-ASCII character is decoded.
fn whitespace_width(text: &str, pos: usize) -> usize {
    match text.as_bytes()[pos] {
        b' ' | b'\t'..=b'\r' => 1,
        0..=0x7F => 0,
        _ => {
            let c = next_char(text, pos);
            if c.is_whitespace() {
                c.len_utf8()
            } else {
                0
            }
        }
    }
}

fn next_char(text: &str, pos: usize) -> char {
    text[pos..].chars().next().expect("pos is inside the text")
}

/// The value of a `key=<value>` word.
fn field_value<'a>(word: Option<&'a str>, key: &str, line: usize) -> Result<&'a str, CsdfError> {
    let word = word.ok_or_else(|| parse_error(line, &format!("missing `{key}=` field")))?;
    if let Some(value) = word
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
    {
        return Ok(value);
    }
    let (actual_key, _) = word
        .split_once('=')
        .ok_or_else(|| parse_error(line, &format!("expected `{key}=<values>`")))?;
    Err(parse_error(
        line,
        &format!("expected field `{key}`, found `{actual_key}`"),
    ))
}

/// Parses a comma-separated `key=` list into `values`, replacing its
/// contents.
fn parse_list(
    word: Option<&str>,
    key: &str,
    line: usize,
    values: &mut Vec<u64>,
) -> Result<(), CsdfError> {
    let list = field_value(word, key, line)?;
    values.clear();
    for item in list.split(',') {
        values.push(parse_number(item, key, line)?);
    }
    Ok(())
}

/// Parses the single-valued `tokens=` field.
fn parse_tokens(word: Option<&str>, line: usize) -> Result<u64, CsdfError> {
    let value = field_value(word, "tokens", line)?;
    parse_number(value, "tokens", line).or_else(|_| {
        // A malformed number is reported as in the rate lists; a list of
        // well-formed numbers has more than one value.
        let mut count = 0;
        for item in value.split(',') {
            parse_number(item, "tokens", line)?;
            count += 1;
        }
        Err(parse_error(
            line,
            &format!("expected one value in `tokens`, found {count}"),
        ))
    })
}

fn parse_number(item: &str, key: &str, line: usize) -> Result<u64, CsdfError> {
    item.parse()
        .map_err(|_| parse_error(line, &format!("invalid number `{item}` in `{key}`")))
}

fn parse_error(line: usize, message: &str) -> CsdfError {
    CsdfError::Parse {
        line,
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsdfGraphBuilder;

    #[test]
    fn round_trips_a_cyclo_static_graph() {
        let mut b = CsdfGraphBuilder::named("fig1");
        let t = b.add_task("t", vec![1, 1, 1]);
        let u = b.add_task("u", vec![2, 2]);
        b.add_buffer(t, u, vec![2, 3, 1], vec![2, 5], 4);
        b.add_serializing_self_loop(t);
        let g = b.build().unwrap();
        let text = to_text(&g);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "\n# a comment\ngraph demo\n\ntask a durations=1\ntask b durations=2\nbuffer a -> b prod=1 cons=1 tokens=0\n";
        let g = parse(text).unwrap();
        assert_eq!(g.name(), "demo");
        assert_eq!(g.task_count(), 2);
        assert_eq!(g.buffer_count(), 1);
    }

    #[test]
    fn source_map_records_declaration_lines() {
        let text = "# header\ngraph demo\ntask a durations=1\n\ntask b durations=2\nbuffer a -> b prod=1 cons=1 tokens=0\n";
        let (g, sources) = parse_with_sources(text).unwrap();
        assert_eq!(sources.task_line(g.find_task("a").unwrap()), Some(3));
        assert_eq!(sources.task_line(g.find_task("b").unwrap()), Some(5));
        assert_eq!(sources.buffer_line(crate::BufferId::new(0)), Some(6));
        // A buffer id beyond the imported range (e.g. appended by a
        // transform) has no span.
        assert_eq!(sources.buffer_line(crate::BufferId::new(9)), None);
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let text = "graph demo\ntask a durations=1\nbuffer a => a prod=1 cons=1 tokens=0\n";
        match parse(text) {
            Err(CsdfError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_task_in_buffer_is_reported() {
        let text = "graph g\ntask a durations=1\nbuffer a -> missing prod=1 cons=1 tokens=0\n";
        assert!(matches!(parse(text), Err(CsdfError::Parse { line: 3, .. })));
    }

    #[test]
    fn unknown_directive_is_reported() {
        assert!(matches!(
            parse("actor a durations=1\n"),
            Err(CsdfError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn invalid_numbers_are_reported() {
        let text = "graph g\ntask a durations=1,x\n";
        assert!(matches!(parse(text), Err(CsdfError::Parse { line: 2, .. })));
    }

    #[test]
    fn empty_input_is_an_empty_graph_error() {
        assert!(matches!(parse("# nothing\n"), Err(CsdfError::EmptyGraph)));
    }

    #[test]
    fn tokens_take_exactly_one_value() {
        let text = "task a durations=1\nbuffer a -> a prod=1 cons=1 tokens=4,5\n";
        assert_eq!(
            parse(text),
            Err(CsdfError::Parse {
                line: 2,
                message: "expected one value in `tokens`, found 2".to_string(),
            })
        );
        // A malformed number is reported as in the rate lists.
        let text = "task a durations=1\nbuffer a -> a prod=1 cons=1 tokens=4,x\n";
        assert_eq!(
            parse(text),
            Err(CsdfError::Parse {
                line: 2,
                message: "invalid number `x` in `tokens`".to_string(),
            })
        );
        let text = "task a durations=1\nbuffer a -> a prod=1 cons=1 tokens=4\n";
        assert_eq!(
            parse(text)
                .unwrap()
                .buffer(crate::BufferId::new(0))
                .initial_tokens(),
            4
        );
    }

    #[test]
    fn rate_totals_past_u64_are_rejected() {
        let text = "task a durations=1,1\ntask b durations=1\nbuffer a -> b prod=18446744073709551615,2 cons=1 tokens=0\n";
        assert_eq!(
            parse(text),
            Err(CsdfError::RateOverflow {
                buffer: crate::BufferRef::new(0, "a", "b"),
            })
        );
    }

    #[test]
    fn wrong_field_name_is_reported() {
        let text = "graph g\ntask a durations=1\ntask b durations=1\nbuffer a -> b production=1 cons=1 tokens=0\n";
        assert!(matches!(parse(text), Err(CsdfError::Parse { line: 4, .. })));
    }
}
