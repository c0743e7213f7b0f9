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

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::buffer::BufferId;
use crate::builder;
use crate::error::CsdfError;
use crate::graph::{CsdfGraph, Tables};
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
    scan(input, None)
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
    let mut lines = DeclarationLines::default();
    let graph = scan(input, Some(&mut lines))?;
    Ok((graph, SourceMap::new(lines.tasks, lines.buffers)))
}

/// The 1-based line of each task and buffer declaration, in declaration
/// order: what [`parse_with_sources`] returns as a [`SourceMap`].
#[derive(Default)]
struct DeclarationLines {
    tasks: Vec<Option<usize>>,
    buffers: Vec<Option<usize>>,
}

/// The one parser behind [`parse`] and [`parse_with_sources`]: reads the
/// graph and, when given `lines`, records the line of every declaration in
/// it. [`parse`] passes none, so it builds no line tables.
fn scan(input: &str, mut lines: Option<&mut DeclarationLines>) -> Result<CsdfGraph, CsdfError> {
    let mut name = "csdf";
    // The name in force at the first task line is the graph's.
    let mut graph_name: Option<&str> = None;
    // The graph's flat arrays are sized from the declaration count.
    let (tasks, buffers) = declaration_counts(input);
    // The values of the line's lists, copied into the tables once the line
    // is read. It is allocated before the tables: allocated on the first
    // line, between their growing arrays, it raised the peak memory of a
    // daemon parsing on several threads by a tenth.
    let mut values: Vec<u64> = Vec::with_capacity(64);
    let mut tables = Tables::with_capacity(tasks, buffers);
    // Task ids by name, borrowed from the text: the insert of each task
    // name also finds a duplicate, and the first declaration wins. std's
    // keyed hasher stays: the daemon parses untrusted text.
    let mut task_ids: HashMap<&str, TaskId> = HashMap::with_capacity(tasks);
    // The first task error in declaration order, which ranks above every
    // buffer error.
    let mut task_error: Option<CsdfError> = None;
    if let Some(lines) = lines.as_deref_mut() {
        lines.tasks.reserve(tasks);
        lines.buffers.reserve(buffers);
    }
    let mut unresolved: Vec<Unresolved<'_>> = Vec::new();

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
                values.clear();
                parse_list(scanner.word(), "durations", line, &mut values)?;
                graph_name.get_or_insert(name);
                let id = tables.push_task(task_name, &values);
                let duplicate = match task_ids.entry(task_name) {
                    Entry::Occupied(_) => true,
                    Entry::Vacant(slot) => {
                        slot.insert(id);
                        false
                    }
                };
                if task_error.is_none() {
                    task_error = builder::task_error(task_name, &values, duplicate);
                }
                if let Some(lines) = lines.as_deref_mut() {
                    lines.tasks.push(Some(line));
                }
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
                values.clear();
                parse_list(scanner.word(), "prod", line, &mut values)?;
                let produced = values.len();
                parse_list(scanner.word(), "cons", line, &mut values)?;
                let (production, consumption) = values.split_at(produced);
                let tokens = parse_tokens(scanner.word(), line)?;
                let (source_id, target_id) = match (task_ids.get(source), task_ids.get(target)) {
                    (Some(&source_id), Some(&target_id)) => (source_id, target_id),
                    _ => {
                        unresolved.push(Unresolved {
                            buffer: BufferId::new(tables.buffer_count()),
                            line,
                            source,
                            target,
                        });
                        // Placeholders until every task is known.
                        (TaskId::new(0), TaskId::new(0))
                    }
                };
                tables.push_buffer(source_id, target_id, production, consumption, tokens);
                if let Some(lines) = lines.as_deref_mut() {
                    lines.buffers.push(Some(line));
                }
            }
            Some(other) => {
                return Err(parse_error(line, &format!("unknown directive `{other}`")));
            }
        }
        if !scanner.next_line() {
            break;
        }
    }

    let graph_name = graph_name.ok_or(CsdfError::EmptyGraph)?;
    for pending in unresolved {
        let resolve = |task: &str| {
            task_ids
                .get(task)
                .copied()
                .ok_or_else(|| parse_error(pending.line, &format!("unknown task `{task}`")))
        };
        match resolve(pending.source).and_then(|source| Ok((source, resolve(pending.target)?))) {
            Ok((source, target)) => tables.set_endpoints(pending.buffer, source, target),
            // Task errors rank above unknown names.
            Err(unknown) => return Err(task_error.unwrap_or(unknown)),
        }
    }
    if let Some(error) = task_error {
        return Err(error);
    }
    tables.check_buffers()?;
    Ok(CsdfGraph::from_parts(graph_name.to_string(), tables))
}

/// The number of lines that start with `t` and with `b`: the task and buffer
/// counts of a text without indented declarations or comments and blank
/// lines starting with those letters, and otherwise a capacity hint that
/// costs a regrowth when it is wrong. The shortest task and buffer lines
/// (`task a durations=1`, `buffer a -> a prod=1 cons=1 tokens=0`) cap each
/// count, so a text of lines that only start like declarations reserves no
/// more than a few times its own size. Counting in chunks of 255 bytes keeps
/// the counters in `u8`, which the compiler vectorises: about 0.2 ms per
/// megabyte.
fn declaration_counts(input: &str) -> (usize, usize) {
    let bytes = input.as_bytes();
    let mut tasks = usize::from(bytes.first() == Some(&b't'));
    let mut buffers = usize::from(bytes.first() == Some(&b'b'));
    let nexts = bytes.get(1..).unwrap_or_default();
    for (starts, nexts) in bytes.chunks(255).zip(nexts.chunks(255)) {
        let (mut chunk_tasks, mut chunk_buffers) = (0u8, 0u8);
        for (&byte, &next) in starts.iter().zip(nexts) {
            let line_start = byte == b'\n';
            chunk_tasks += u8::from(line_start & (next == b't'));
            chunk_buffers += u8::from(line_start & (next == b'b'));
        }
        tasks += usize::from(chunk_tasks);
        buffers += usize::from(chunk_buffers);
    }
    (
        tasks.min(input.len() / 18 + 1),
        buffers.min(input.len() / 36 + 1),
    )
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

/// Parses a comma-separated `key=` list, appending its values to `values`.
fn parse_list(
    word: Option<&str>,
    key: &str,
    line: usize,
    values: &mut Vec<u64>,
) -> Result<(), CsdfError> {
    for item in split_list(field_value(word, key, line)?) {
        values.push(parse_number(item, key, line)?);
    }
    Ok(())
}

/// Parses the single-valued `tokens=` field. A malformed number is reported
/// as in the rate lists, before a list of more than one value.
fn parse_tokens(word: Option<&str>, line: usize) -> Result<u64, CsdfError> {
    let (mut tokens, mut count) = (0, 0);
    for item in split_list(field_value(word, "tokens", line)?) {
        tokens = parse_number(item, "tokens", line)?;
        count += 1;
    }
    if count == 1 {
        Ok(tokens)
    } else {
        Err(parse_error(
            line,
            &format!("expected one value in `tokens`, found {count}"),
        ))
    }
}

/// The comma-separated items of a list. Splitting the bytes rather than the
/// `str` makes a 10k-task parse about a tenth faster on a 2-core x86-64
/// host.
fn split_list(list: &str) -> impl Iterator<Item = &[u8]> {
    list.as_bytes().split(|&byte| byte == b',')
}

/// Reads a decimal `u64` as `str::parse` reads it: an optional `+`, then at
/// least one ASCII digit, at most `u64::MAX`. Reading by hand, not through
/// `str::parse`, cuts the parse time of a 10k-task graph by about a fifth
/// on a 2-core x86-64 host.
fn parse_number(item: &[u8], key: &str, line: usize) -> Result<u64, CsdfError> {
    let digits = item.strip_prefix(b"+").unwrap_or(item);
    let value = digits.iter().try_fold(0u64, |value, &byte| {
        let digit = byte.checked_sub(b'0').filter(|&digit| digit < 10)?;
        value.checked_mul(10)?.checked_add(u64::from(digit))
    });
    match value {
        Some(value) if !digits.is_empty() => Ok(value),
        _ => {
            // A `str` split at ASCII commas: every item is UTF-8.
            let item = String::from_utf8_lossy(item);
            Err(parse_error(
                line,
                &format!("invalid number `{item}` in `{key}`"),
            ))
        }
    }
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
    fn numbers_read_as_str_parse_reads_them() {
        for item in [
            "",
            "0",
            "007",
            "+5",
            "+",
            "++5",
            "+-5",
            "-0",
            "-5",
            "1_0",
            " 1",
            "1 ",
            "1+",
            "/",
            ":",
            "\u{ff11}",
            "+18446744073709551615",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
        ] {
            let expected = item.parse::<u64>().ok();
            assert_eq!(
                parse_number(item.as_bytes(), "prod", 1).ok(),
                expected,
                "{item:?}"
            );
            let mut values = vec![7];
            let parsed = parse_list(Some(&format!("prod={item},3")), "prod", 1, &mut values);
            match expected {
                Some(value) => assert_eq!(values, [7, value, 3], "{item:?}"),
                None => assert_eq!(
                    parsed,
                    Err(parse_error(
                        1,
                        &format!("invalid number `{item}` in `prod`")
                    )),
                ),
            }
        }
    }

    #[test]
    fn declaration_counts_are_the_lines_starting_with_t_and_b() {
        assert_eq!(declaration_counts(""), (0, 0));
        assert_eq!(declaration_counts("t"), (1, 0));
        assert_eq!(
            declaration_counts("task a durations=1\nbuffer a -> a prod=1 cons=1 tokens=0\n"),
            (1, 1)
        );
        // Past a 255-byte chunk, with a line start on the chunk boundary.
        let text = format!("{}\nbuffer\n{}\ntask\n", "#".repeat(254), "x".repeat(300));
        assert_eq!(declaration_counts(&text), (1, 1));
        // Lines that only start like declarations count up to the shortest
        // declarations' length.
        assert_eq!(declaration_counts(&"b\nt\n".repeat(360)), (81, 41));
    }

    #[test]
    fn wrong_field_name_is_reported() {
        let text = "graph g\ntask a durations=1\ntask b durations=1\nbuffer a -> b production=1 cons=1 tokens=0\n";
        assert!(matches!(parse(text), Err(CsdfError::Parse { line: 4, .. })));
    }

    #[test]
    fn parse_and_parse_with_sources_agree() {
        let graph = {
            let mut b = CsdfGraphBuilder::named("fig1");
            let t = b.add_task("t", vec![1, 1, 1]);
            let u = b.add_task("u", vec![2, 2]);
            b.add_buffer(t, u, vec![2, 3, 1], vec![2, 5], 4);
            b.add_serializing_self_loop(t);
            to_text(&b.build().unwrap())
        };
        // The round-trip text, the well-formed fixtures and every error
        // fixture of this module.
        for text in [
            graph.as_str(),
            "\n# a comment\ngraph demo\n\ntask a durations=1\ntask b durations=2\nbuffer a -> b prod=1 cons=1 tokens=0\n",
            "buffer a -> b prod=1 cons=1 tokens=0\ntask b durations=2\ntask a durations=1\n",
            "graph demo\ntask a durations=1\nbuffer a => a prod=1 cons=1 tokens=0\n",
            "graph g\ntask a durations=1\nbuffer a -> missing prod=1 cons=1 tokens=0\n",
            "actor a durations=1\n",
            "graph g\ntask a durations=1,x\n",
            "# nothing\n",
            "task a durations=1\nbuffer a -> a prod=1 cons=1 tokens=4,5\n",
            "task a durations=1\nbuffer a -> a prod=1 cons=1 tokens=4,x\n",
            "task a durations=1\ntask b durations=1\nbuffer a -> b prod=18446744073709551615,2 cons=1 tokens=0\n",
            "graph g\ntask a durations=1\ntask b durations=1\nbuffer a -> b production=1 cons=1 tokens=0\n",
        ] {
            assert_eq!(
                parse(text),
                parse_with_sources(text).map(|(graph, _)| graph),
                "{text:?}"
            );
        }
    }
}
