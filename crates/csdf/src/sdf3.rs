//! Minimal importer for the SDF3 XML format.
//!
//! The paper's benchmarks ship as [SDF3](https://www.es.ele.tue.nl/sdf3/)
//! `<sdf>`/`<csdf>` application graphs. This module parses the subset that
//! carries the throughput-relevant information — actors, ports with (phased)
//! rates, channels with initial tokens, and execution times — into a
//! [`CsdfGraph`], so real benchmark files can be replayed through the
//! analysis-session API. It is a hand-rolled scanner (the build environment
//! is offline, no XML crate), deliberately strict: anything outside the
//! recognised subset is a [`CsdfError::Parse`] with a line number rather than
//! a silent guess.
//!
//! Recognised shape (attribute order free, namespaces ignored):
//!
//! ```xml
//! <sdf3 type="csdf">
//!   <applicationGraph name="app">
//!     <csdf name="app" type="G">
//!       <actor name="a" type="A">
//!         <port name="out0" type="out" rate="2,3,1"/>
//!       </actor>
//!       <actor name="b" type="B">
//!         <port name="in0" type="in" rate="2,5"/>
//!       </actor>
//!       <channel name="ch0" srcActor="a" srcPort="out0"
//!                dstActor="b" dstPort="in0" initialTokens="0"/>
//!     </csdf>
//!     <csdfProperties>
//!       <actorProperties actor="a">
//!         <processor type="cpu" default="true">
//!           <executionTime time="1,1,1"/>
//!         </processor>
//!       </actorProperties>
//!     </csdfProperties>
//!   </applicationGraph>
//! </sdf3>
//! ```
//!
//! Per-actor phase counts are inferred as the longest rate/execution-time
//! vector attached to the actor; length-1 vectors are broadcast across the
//! phases (the SDF-in-CSDF convention), any other mismatch is an error.
//! Actors without an `executionTime` default to duration 1 per phase.

use crate::builder::CsdfGraphBuilder;
use crate::error::CsdfError;
use crate::graph::CsdfGraph;
use crate::source::SourceMap;
use crate::BufferId;

/// One scanned XML tag: `<name attr="v" ...>`, `</name>` or `<name ... />`.
#[derive(Debug)]
struct Tag<'a> {
    name: &'a str,
    attributes: Vec<(&'a str, &'a str)>,
    closing: bool,
    /// `<name ... />`: opens and immediately closes, so container elements
    /// scanned this way must not leave their context dangling open.
    self_closing: bool,
    line: usize,
}

impl<'a> Tag<'a> {
    fn attribute(&self, key: &str) -> Option<&'a str> {
        self.attributes
            .iter()
            .find(|(name, _)| *name == key)
            .map(|&(_, value)| value)
    }

    fn required(&self, key: &str) -> Result<&'a str, CsdfError> {
        self.attribute(key).ok_or_else(|| {
            parse_error(
                self.line,
                &format!("<{}> is missing the `{key}` attribute", self.name),
            )
        })
    }
}

/// A streaming scanner over the tags of an XML document. Comments,
/// processing instructions, doctypes, character data and self-closing
/// markers are consumed; only opening/closing tags are yielded.
struct TagScanner<'a> {
    input: &'a str,
    position: usize,
    line: usize,
}

impl<'a> TagScanner<'a> {
    fn new(input: &'a str) -> Self {
        TagScanner {
            input,
            position: 0,
            line: 1,
        }
    }

    /// Advances past `count` bytes, keeping the line counter in sync.
    fn advance(&mut self, count: usize) {
        let consumed = &self.input[self.position..self.position + count];
        self.line += consumed.bytes().filter(|&b| b == b'\n').count();
        self.position += count;
    }

    /// Consumes input until after the first occurrence of `marker`.
    fn skip_past(&mut self, marker: &str, what: &str) -> Result<(), CsdfError> {
        match self.input[self.position..].find(marker) {
            Some(offset) => {
                self.advance(offset + marker.len());
                Ok(())
            }
            None => Err(parse_error(self.line, &format!("unterminated {what}"))),
        }
    }

    fn next_tag(&mut self) -> Result<Option<Tag<'a>>, CsdfError> {
        loop {
            let Some(offset) = self.input[self.position..].find('<') else {
                return Ok(None);
            };
            self.advance(offset);
            let rest = &self.input[self.position..];
            if rest.starts_with("<!--") {
                self.skip_past("-->", "comment")?;
            } else if rest.starts_with("<?") {
                self.skip_past("?>", "processing instruction")?;
            } else if rest.starts_with("<!") {
                self.skip_past(">", "declaration")?;
            } else {
                return self.scan_tag().map(Some);
            }
        }
    }

    fn scan_tag(&mut self) -> Result<Tag<'a>, CsdfError> {
        let line = self.line;
        let end = self.input[self.position..]
            .find('>')
            .ok_or_else(|| parse_error(line, "unterminated tag"))?;
        let raw = &self.input[self.position + 1..self.position + end];
        self.advance(end + 1);

        let (closing, self_closing, body) = match raw.strip_prefix('/') {
            Some(body) => (true, false, body),
            None => match raw.strip_suffix('/') {
                Some(body) => (false, true, body),
                None => (false, false, raw),
            },
        };
        let body = body.trim();
        let name_end = body.find(|c: char| c.is_whitespace()).unwrap_or(body.len());
        let name = &body[..name_end];
        if name.is_empty() {
            return Err(parse_error(line, "tag without a name"));
        }

        let mut attributes = Vec::new();
        let mut rest = body[name_end..].trim_start();
        while !rest.is_empty() {
            let eq = rest
                .find('=')
                .ok_or_else(|| parse_error(line, &format!("malformed attribute in <{name}>")))?;
            let key = rest[..eq].trim_end();
            let after = rest[eq + 1..].trim_start();
            let quote = after.chars().next().filter(|&q| q == '"' || q == '\'');
            let Some(quote) = quote else {
                return Err(parse_error(
                    line,
                    &format!("unquoted attribute in <{name}>"),
                ));
            };
            let value_end = after[1..]
                .find(quote)
                .ok_or_else(|| parse_error(line, &format!("unterminated attribute in <{name}>")))?;
            attributes.push((key, &after[1..1 + value_end]));
            rest = after[value_end + 2..].trim_start();
        }
        Ok(Tag {
            name,
            attributes,
            closing,
            self_closing,
            line,
        })
    }
}

#[derive(Debug)]
struct XmlPort {
    name: String,
    is_output: bool,
    rate: Vec<u64>,
}

#[derive(Debug)]
struct XmlActor {
    name: String,
    line: usize,
    ports: Vec<XmlPort>,
    execution_times: Option<Vec<u64>>,
}

impl XmlActor {
    fn port(&self, name: &str, output: bool, line: usize) -> Result<&XmlPort, CsdfError> {
        self.ports
            .iter()
            .find(|port| port.name == name && port.is_output == output)
            .ok_or_else(|| {
                let direction = if output { "output" } else { "input" };
                parse_error(
                    line,
                    &format!("actor `{}` has no {direction} port `{name}`", self.name),
                )
            })
    }
}

#[derive(Debug)]
struct XmlChannel {
    line: usize,
    name: Option<String>,
    src_actor: String,
    src_port: String,
    dst_actor: String,
    dst_port: String,
    initial_tokens: u64,
    buffer_size: Option<u64>,
}

/// The result of a full SDF3 import: the graph plus the side-band
/// annotations the graph itself cannot carry.
///
/// Buffer capacities come from `<channelProperties channel="...">` /
/// `<bufferSize sz="..."/>` annotations. They are *requests*, not part of
/// the dataflow semantics: feed them to
/// [`crate::transform::bound_buffers_tracked`] (or an explicit reverse
/// channel) to actually constrain the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sdf3Import {
    /// The imported graph, ids in document order (see [`parse_sdf3_xml`]).
    pub graph: CsdfGraph,
    /// `(buffer, capacity)` for every channel with a `bufferSize`
    /// annotation, in channel document order.
    pub buffer_capacities: Vec<(BufferId, u64)>,
    /// The `<actor>` / `<channel>` declaration lines, per task and buffer
    /// id — the spans `csdf-lint` attaches to its diagnostics.
    pub source_map: SourceMap,
}

/// Parses an SDF3 `<sdf>`/`<csdf>` XML document into a [`CsdfGraph`].
///
/// It reads the throughput-relevant subset — actors, ports with (phased)
/// rates, channels with initial tokens, and execution times — and rejects
/// anything outside it. Tasks keep the actor document order and buffers the
/// channel document order, so ids are stable across re-imports of the same
/// file.
///
/// # Errors
///
/// Returns [`CsdfError::Parse`] (with a 1-based line number) for malformed
/// XML, unknown actors/ports, inconsistent vector lengths or invalid
/// numbers, and the usual builder errors for semantic problems.
///
/// # Examples
///
/// ```
/// let xml = r#"
/// <sdf3 type="sdf">
///   <applicationGraph name="pair">
///     <sdf name="pair" type="G">
///       <actor name="a"><port name="o" type="out" rate="2"/></actor>
///       <actor name="b"><port name="i" type="in" rate="3"/></actor>
///       <channel name="c" srcActor="a" srcPort="o" dstActor="b" dstPort="i"
///                initialTokens="1"/>
///     </sdf>
///   </applicationGraph>
/// </sdf3>"#;
/// let graph = csdf::text::parse_sdf3_xml(xml)?;
/// assert_eq!(graph.name(), "pair");
/// assert_eq!(graph.buffer(csdf::BufferId::new(0)).initial_tokens(), 1);
/// # Ok::<(), csdf::CsdfError>(())
/// ```
pub fn parse_sdf3_xml(input: &str) -> Result<CsdfGraph, CsdfError> {
    parse_sdf3_xml_import(input).map(|import| import.graph)
}

/// Property elements accepted (and deliberately skipped) inside
/// `<sdfProperties>`/`<csdfProperties>`: they describe costs and constraints
/// orthogonal to throughput analysis. Anything else in a properties section
/// is a line-numbered [`CsdfError::Parse`] rather than a silent skip, so a
/// file relying on an unsupported property cannot be half-imported.
const BENIGN_PROPERTY_ELEMENTS: [&str; 7] = [
    "graphProperties",
    "timeConstraints",
    "throughput",
    "memory",
    "stateSize",
    "tokenSize",
    "units",
];

/// Parses an SDF3 `<sdf>`/`<csdf>` XML document into a [`CsdfGraph`] plus
/// its side-band annotations — currently the per-channel `bufferSize`
/// capacity requests. [`parse_sdf3_xml`] is this with the annotations
/// dropped.
///
/// # Errors
///
/// Those of [`parse_sdf3_xml`], plus [`CsdfError::Parse`] for
/// `channelProperties` referencing unknown channels, malformed `bufferSize`
/// elements, and unsupported elements inside the properties sections.
pub fn parse_sdf3_xml_import(input: &str) -> Result<Sdf3Import, CsdfError> {
    let mut scanner = TagScanner::new(input);
    let mut graph_name: Option<String> = None;
    let mut actors: Vec<XmlActor> = Vec::new();
    let mut channels: Vec<XmlChannel> = Vec::new();
    // Element context while walking the document.
    let mut in_graph = false;
    let mut in_properties = false;
    let mut current_actor: Option<usize> = None;
    let mut properties_actor: Option<usize> = None;
    let mut properties_channel: Option<usize> = None;
    let mut seen_processor = false;

    while let Some(tag) = scanner.next_tag()? {
        match (tag.name, tag.closing) {
            ("sdf" | "csdf", false) => {
                // A self-closing `<sdf/>` opens and closes an empty graph.
                in_graph = !tag.self_closing;
                if graph_name.is_none() {
                    graph_name = tag.attribute("name").map(str::to_string);
                }
            }
            ("sdf" | "csdf", true) => {
                in_graph = false;
                current_actor = None;
            }
            ("sdfProperties" | "csdfProperties", closing) => {
                in_properties = !closing && !tag.self_closing;
            }
            ("applicationGraph", false) => {
                if let Some(name) = tag.attribute("name") {
                    graph_name.get_or_insert_with(|| name.to_string());
                }
            }
            ("actor", false) if in_graph => {
                let name = tag.required("name")?;
                if actors.iter().any(|actor| actor.name == name) {
                    return Err(parse_error(tag.line, &format!("duplicate actor `{name}`")));
                }
                actors.push(XmlActor {
                    name: name.to_string(),
                    line: tag.line,
                    ports: Vec::new(),
                    execution_times: None,
                });
                // `<actor .../>` is already closed: a following <port> must
                // not silently attach to it.
                current_actor = (!tag.self_closing).then_some(actors.len() - 1);
            }
            ("actor", true) if in_graph => current_actor = None,
            ("port", false) if in_graph => {
                let Some(actor) = current_actor else {
                    return Err(parse_error(tag.line, "<port> outside an <actor>"));
                };
                let is_output = match tag.required("type")? {
                    "out" => true,
                    "in" => false,
                    other => {
                        return Err(parse_error(
                            tag.line,
                            &format!("port type must be `in` or `out`, found `{other}`"),
                        ))
                    }
                };
                actors[actor].ports.push(XmlPort {
                    name: tag.required("name")?.to_string(),
                    is_output,
                    rate: parse_rate_list(tag.required("rate")?, tag.line)?,
                });
            }
            ("channel", false) if in_graph => {
                let initial_tokens = match tag.attribute("initialTokens") {
                    Some(value) => parse_number(value, tag.line)?,
                    None => 0,
                };
                channels.push(XmlChannel {
                    line: tag.line,
                    name: tag.attribute("name").map(str::to_string),
                    src_actor: tag.required("srcActor")?.to_string(),
                    src_port: tag.required("srcPort")?.to_string(),
                    dst_actor: tag.required("dstActor")?.to_string(),
                    dst_port: tag.required("dstPort")?.to_string(),
                    initial_tokens,
                    buffer_size: None,
                });
            }
            ("actorProperties", false) if in_properties => {
                let name = tag.required("actor")?;
                let index = actors
                    .iter()
                    .position(|actor| actor.name == name)
                    .ok_or_else(|| {
                        parse_error(tag.line, &format!("properties for unknown actor `{name}`"))
                    })?;
                properties_actor = (!tag.self_closing).then_some(index);
                seen_processor = false;
            }
            ("actorProperties", true) => properties_actor = None,
            ("channelProperties", false) if in_properties => {
                let name = tag.required("channel")?;
                let index = channels
                    .iter()
                    .position(|channel| channel.name.as_deref() == Some(name))
                    .ok_or_else(|| {
                        parse_error(
                            tag.line,
                            &format!("properties for unknown channel `{name}`"),
                        )
                    })?;
                properties_channel = (!tag.self_closing).then_some(index);
            }
            ("channelProperties", true) => properties_channel = None,
            ("bufferSize", false) if in_properties => {
                let Some(channel) = properties_channel else {
                    return Err(parse_error(
                        tag.line,
                        "<bufferSize> outside <channelProperties>",
                    ));
                };
                channels[channel].buffer_size = Some(parse_number(tag.required("sz")?, tag.line)?);
            }
            ("processor", false) if in_properties => {
                // Keep the first processor unless a later one is the default.
                seen_processor = tag.attribute("default") != Some("true") && seen_processor;
            }
            ("executionTime", false) if in_properties => {
                let Some(actor) = properties_actor else {
                    return Err(parse_error(
                        tag.line,
                        "<executionTime> outside <actorProperties>",
                    ));
                };
                if !seen_processor {
                    actors[actor].execution_times =
                        Some(parse_rate_list(tag.required("time")?, tag.line)?);
                    seen_processor = true;
                }
            }
            (other, false) if in_properties && !BENIGN_PROPERTY_ELEMENTS.contains(&other) => {
                return Err(parse_error(
                    tag.line,
                    &format!("unsupported property element <{other}>"),
                ));
            }
            _ => {}
        }
    }

    if actors.is_empty() {
        return Err(CsdfError::EmptyGraph);
    }

    let mut builder = CsdfGraphBuilder::named(graph_name.unwrap_or_else(|| "sdf3".to_string()));
    for actor in &actors {
        let phases = phase_count(actor);
        let durations = match &actor.execution_times {
            Some(times) => broadcast(times, phases, &actor.name, actor.line)?,
            None => vec![1; phases],
        };
        for port in &actor.ports {
            // Validate now for a line-numbered error instead of a builder one.
            broadcast(&port.rate, phases, &actor.name, actor.line)?;
        }
        builder.add_task(actor.name.clone(), durations);
    }
    for channel in &channels {
        let (src_index, src) = find_actor(&actors, &channel.src_actor, channel.line)?;
        let (dst_index, dst) = find_actor(&actors, &channel.dst_actor, channel.line)?;
        let production = src.port(&channel.src_port, true, channel.line)?;
        let consumption = dst.port(&channel.dst_port, false, channel.line)?;
        builder.add_buffer(
            crate::TaskId::new(src_index),
            crate::TaskId::new(dst_index),
            broadcast(&production.rate, phase_count(src), &src.name, channel.line)?,
            broadcast(&consumption.rate, phase_count(dst), &dst.name, channel.line)?,
            channel.initial_tokens,
        );
    }
    let buffer_capacities = channels
        .iter()
        .enumerate()
        .filter_map(|(index, channel)| {
            channel
                .buffer_size
                .map(|capacity| (BufferId::new(index), capacity))
        })
        .collect();
    let source_map = SourceMap::new(
        actors.iter().map(|actor| Some(actor.line)).collect(),
        channels.iter().map(|channel| Some(channel.line)).collect(),
    );
    Ok(Sdf3Import {
        graph: builder.build()?,
        buffer_capacities,
        source_map,
    })
}

/// Serialises a graph to the SDF3 XML subset read by [`parse_sdf3_xml`] —
/// the workspace's wire format for shipping graphs between tools (and the
/// `csdf-service` protocol). The emitted document always uses the `<csdf>`
/// element (an SDF graph is a one-phase CSDF graph), actors in task-id
/// order with one port per incident channel, channels in buffer-id order
/// named `ch<id>`, and one default processor per actor carrying the phase
/// durations — so `parse_sdf3_xml(&write_sdf3_xml(g))` reconstructs `g`
/// exactly: same ids, names, rates, durations and markings
/// (property-tested over random CSDF graphs in the workspace test-suite).
///
/// Names are attribute-escaped on output; the importer does not decode
/// entity references, so round trips are exact for names without the XML
/// special characters `&<>"'` (every benchmark and generated name).
pub fn write_sdf3_xml(graph: &CsdfGraph) -> String {
    write_sdf3_xml_with_capacities(graph, &[])
}

/// Like [`write_sdf3_xml`], but also emits a `<channelProperties>` /
/// `<bufferSize sz="..."/>` annotation for each listed buffer, the form
/// [`parse_sdf3_xml_import`] reads back as capacity requests. Buffers
/// listed more than once keep the last capacity on re-import.
///
/// # Panics
///
/// Panics when a listed buffer id is not part of `graph`.
pub fn write_sdf3_xml_with_capacities(graph: &CsdfGraph, capacities: &[(BufferId, u64)]) -> String {
    for &(buffer, _) in capacities {
        assert!(
            buffer.index() < graph.buffer_count(),
            "capacity for unknown buffer {}",
            buffer.index()
        );
    }
    let name = xml_escape(graph.name());
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\"?>\n");
    out.push_str("<sdf3 type=\"csdf\" version=\"1.0\">\n");
    out.push_str(&format!("  <applicationGraph name=\"{name}\">\n"));
    out.push_str(&format!("    <csdf name=\"{name}\" type=\"G\">\n"));
    for (task_id, task) in graph.tasks() {
        out.push_str(&format!(
            "      <actor name=\"{}\" type=\"A\">\n",
            xml_escape(task.name())
        ));
        for (buffer_id, buffer) in graph.buffers() {
            if buffer.source() == task_id {
                out.push_str(&format!(
                    "        <port name=\"out_ch{}\" type=\"out\" rate=\"{}\"/>\n",
                    buffer_id.index(),
                    join_rates(buffer.production())
                ));
            }
            if buffer.target() == task_id {
                out.push_str(&format!(
                    "        <port name=\"in_ch{}\" type=\"in\" rate=\"{}\"/>\n",
                    buffer_id.index(),
                    join_rates(buffer.consumption())
                ));
            }
        }
        out.push_str("      </actor>\n");
    }
    for (buffer_id, buffer) in graph.buffers() {
        out.push_str(&format!(
            "      <channel name=\"ch{id}\" srcActor=\"{src}\" srcPort=\"out_ch{id}\" \
             dstActor=\"{dst}\" dstPort=\"in_ch{id}\" initialTokens=\"{tokens}\"/>\n",
            id = buffer_id.index(),
            src = xml_escape(graph.task(buffer.source()).name()),
            dst = xml_escape(graph.task(buffer.target()).name()),
            tokens = buffer.initial_tokens()
        ));
    }
    out.push_str("    </csdf>\n");
    out.push_str("    <csdfProperties>\n");
    for (_, task) in graph.tasks() {
        out.push_str(&format!(
            "      <actorProperties actor=\"{}\">\n",
            xml_escape(task.name())
        ));
        out.push_str("        <processor type=\"cpu\" default=\"true\">\n");
        out.push_str(&format!(
            "          <executionTime time=\"{}\"/>\n",
            join_rates(task.durations())
        ));
        out.push_str("        </processor>\n");
        out.push_str("      </actorProperties>\n");
    }
    for &(buffer, capacity) in capacities {
        out.push_str(&format!(
            "      <channelProperties channel=\"ch{}\">\n",
            buffer.index()
        ));
        out.push_str(&format!("        <bufferSize sz=\"{capacity}\"/>\n"));
        out.push_str("      </channelProperties>\n");
    }
    out.push_str("    </csdfProperties>\n");
    out.push_str("  </applicationGraph>\n");
    out.push_str("</sdf3>\n");
    out
}

fn join_rates(values: &[u64]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Escapes the five XML special characters for use in attribute values.
fn xml_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

fn phase_count(actor: &XmlActor) -> usize {
    actor
        .ports
        .iter()
        .map(|port| port.rate.len())
        .chain(actor.execution_times.iter().map(Vec::len))
        .max()
        .unwrap_or(1)
        .max(1)
}

fn find_actor<'a>(
    actors: &'a [XmlActor],
    name: &str,
    line: usize,
) -> Result<(usize, &'a XmlActor), CsdfError> {
    actors
        .iter()
        .enumerate()
        .find(|(_, actor)| actor.name == name)
        .ok_or_else(|| parse_error(line, &format!("unknown actor `{name}`")))
}

/// Expands a rate/time vector to the actor's phase count: exact lengths pass
/// through, scalars broadcast, anything else is a mismatch.
fn broadcast(
    values: &[u64],
    phases: usize,
    actor: &str,
    line: usize,
) -> Result<Vec<u64>, CsdfError> {
    if values.len() == phases {
        Ok(values.to_vec())
    } else if values.len() == 1 {
        Ok(vec![values[0]; phases])
    } else {
        Err(parse_error(
            line,
            &format!(
                "vector of length {} on actor `{actor}` which has {phases} phases",
                values.len()
            ),
        ))
    }
}

fn parse_rate_list(value: &str, line: usize) -> Result<Vec<u64>, CsdfError> {
    let values: Result<Vec<u64>, CsdfError> = value
        .split(',')
        .map(|entry| parse_number(entry, line))
        .collect();
    let values = values?;
    if values.is_empty() {
        return Err(parse_error(line, "empty rate list"));
    }
    Ok(values)
}

fn parse_number(value: &str, line: usize) -> Result<u64, CsdfError> {
    value
        .trim()
        .parse::<u64>()
        .map_err(|_| parse_error(line, &format!("invalid number `{}`", value.trim())))
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
    use crate::text::to_text;

    const PAPER_FIGURE1: &str = r#"<?xml version="1.0"?>
<sdf3 type="csdf" version="1.0">
  <!-- the buffer of the paper's Figure 1 -->
  <applicationGraph name="figure1">
    <csdf name="figure1" type="G">
      <actor name="t" type="T">
        <port name="p" type="out" rate="2,3,1"/>
      </actor>
      <actor name="u" type="U">
        <port name="q" type="in" rate="2,5"/>
      </actor>
      <channel name="a" srcActor="t" srcPort="p" dstActor="u" dstPort="q"
               initialTokens="0"/>
    </csdf>
    <csdfProperties>
      <actorProperties actor="t">
        <processor type="cpu" default="true">
          <executionTime time="1,1,1"/>
        </processor>
      </actorProperties>
      <actorProperties actor="u">
        <processor type="cpu" default="true">
          <executionTime time="2,2"/>
        </processor>
      </actorProperties>
    </csdfProperties>
  </applicationGraph>
</sdf3>
"#;

    #[test]
    fn parses_the_paper_example() {
        let g = parse_sdf3_xml(PAPER_FIGURE1).unwrap();
        assert_eq!(g.name(), "figure1");
        assert_eq!(g.task_count(), 2);
        assert_eq!(g.buffer_count(), 1);
        let t = g.find_task("t").unwrap();
        let u = g.find_task("u").unwrap();
        assert_eq!(g.task(t).durations(), &[1, 1, 1]);
        assert_eq!(g.task(u).durations(), &[2, 2]);
        let buffer = g.buffer(crate::BufferId::new(0));
        assert_eq!(buffer.production(), &[2, 3, 1]);
        assert_eq!(buffer.consumption(), &[2, 5]);
        let q = g.repetition_vector().unwrap();
        assert_eq!(q.get(t), 7);
        assert_eq!(q.get(u), 6);
    }

    #[test]
    fn import_records_actor_and_channel_lines() {
        let import = parse_sdf3_xml_import(PAPER_FIGURE1).unwrap();
        let g = &import.graph;
        let sources = &import.source_map;
        assert_eq!(sources.task_line(g.find_task("t").unwrap()), Some(6));
        assert_eq!(sources.task_line(g.find_task("u").unwrap()), Some(9));
        assert_eq!(sources.buffer_line(crate::BufferId::new(0)), Some(12));
    }

    #[test]
    fn round_trips_through_the_text_format() {
        let g = parse_sdf3_xml(PAPER_FIGURE1).unwrap();
        let round_trip = crate::text::parse(&to_text(&g)).unwrap();
        assert_eq!(round_trip, g);
    }

    #[test]
    fn scalar_rates_broadcast_over_csdf_phases() {
        let xml = r#"
<sdf3><applicationGraph name="bcast"><csdf name="bcast">
  <actor name="a">
    <port name="o" type="out" rate="1"/>
  </actor>
  <actor name="b"><port name="i" type="in" rate="2"/></actor>
  <channel name="c" srcActor="a" srcPort="o" dstActor="b" dstPort="i"/>
</csdf>
<csdfProperties>
  <actorProperties actor="a"><processor type="cpu"><executionTime time="1,2,3"/></processor></actorProperties>
</csdfProperties>
</applicationGraph></sdf3>"#;
        let g = parse_sdf3_xml(xml).unwrap();
        let a = g.find_task("a").unwrap();
        assert_eq!(g.task(a).phase_count(), 3);
        assert_eq!(g.buffer(crate::BufferId::new(0)).production(), &[1, 1, 1]);
        // Missing executionTime defaults to 1 per phase, missing
        // initialTokens to 0.
        let b = g.find_task("b").unwrap();
        assert_eq!(g.task(b).durations(), &[1]);
        assert_eq!(g.buffer(crate::BufferId::new(0)).initial_tokens(), 0);
    }

    #[test]
    fn the_default_processor_wins() {
        let xml = r#"
<sdf3><applicationGraph><sdf name="procs">
  <actor name="a"><port name="o" type="out" rate="1"/></actor>
  <actor name="b"><port name="i" type="in" rate="1"/></actor>
  <channel name="c" srcActor="a" srcPort="o" dstActor="b" dstPort="i"/>
</sdf>
<sdfProperties>
  <actorProperties actor="a">
    <processor type="slow"><executionTime time="9"/></processor>
    <processor type="fast" default="true"><executionTime time="2"/></processor>
  </actorProperties>
</sdfProperties>
</applicationGraph></sdf3>"#;
        let g = parse_sdf3_xml(xml).unwrap();
        let a = g.find_task("a").unwrap();
        assert_eq!(g.task(a).durations(), &[2]);
    }

    #[test]
    fn self_closing_containers_do_not_leak_context() {
        // A port after a self-closing actor must not attach to it.
        let stray_port = "<sdf name=\"g\">\n<actor name=\"a\"/>\n<port name=\"p\" type=\"in\" rate=\"1\"/>\n</sdf>";
        match parse_sdf3_xml(stray_port) {
            Err(CsdfError::Parse { line: 3, message }) => {
                assert!(message.contains("outside an <actor>"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // A self-closing properties block must not swallow later elements.
        let stray_time = "<sdf name=\"g\">\n<actor name=\"a\"><port name=\"o\" type=\"out\" rate=\"1\"/></actor>\n<actor name=\"b\"><port name=\"i\" type=\"in\" rate=\"1\"/></actor>\n<channel name=\"c\" srcActor=\"a\" srcPort=\"o\" dstActor=\"b\" dstPort=\"i\"/>\n</sdf>\n<sdfProperties/>\n<executionTime time=\"9\"/>";
        let g = parse_sdf3_xml(stray_time).unwrap();
        // The stray executionTime is ignored, not applied to anything.
        let a = g.find_task("a").unwrap();
        assert_eq!(g.task(a).durations(), &[1]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let unknown_port = "<sdf name=\"g\">\n<actor name=\"a\"/>\n<actor name=\"b\"/>\n<channel name=\"c\" srcActor=\"a\" srcPort=\"o\" dstActor=\"b\" dstPort=\"i\"/>\n</sdf>";
        match parse_sdf3_xml(unknown_port) {
            Err(CsdfError::Parse { line: 4, message }) => {
                assert!(message.contains("output port"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_sdf3_xml("<sdf name=\"g\">\n<actor name=\"a\"/>\n<actor name=\"a\"/>\n</sdf>"),
            Err(CsdfError::Parse { line: 3, .. })
        ));
        assert!(matches!(
            parse_sdf3_xml("<sdf>\n<actor name=\"a\">\n<port name=\"p\" type=\"sideways\" rate=\"1\"/>\n</actor>\n</sdf>"),
            Err(CsdfError::Parse { line: 3, .. })
        ));
        assert!(matches!(
            parse_sdf3_xml("<sdf>\n<port name=\"p\" type=\"in\" rate=\"1\"/>\n</sdf>"),
            Err(CsdfError::Parse { line: 2, .. })
        ));
        assert!(matches!(
            parse_sdf3_xml("<sdf>\n<actor name=\"a\">\n<port name=\"p\" type=\"in\" rate=\"x\"/>\n</actor>\n</sdf>"),
            Err(CsdfError::Parse { line: 3, .. })
        ));
        assert!(matches!(
            parse_sdf3_xml("<sdf/>"),
            Err(CsdfError::EmptyGraph)
        ));
        assert!(matches!(
            parse_sdf3_xml("<!-- unterminated"),
            Err(CsdfError::Parse { line: 1, .. })
        ));
        // Vector length 2 on a 3-phase actor is a mismatch, not a broadcast.
        let mismatch = "<sdf>\n<actor name=\"a\">\n<port name=\"o\" type=\"out\" rate=\"1,2,3\"/>\n<port name=\"o2\" type=\"out\" rate=\"1,2\"/>\n</actor>\n</sdf>";
        assert!(matches!(
            parse_sdf3_xml(mismatch),
            Err(CsdfError::Parse { .. })
        ));
    }

    #[test]
    fn export_import_round_trips_the_paper_example() {
        let g = parse_sdf3_xml(PAPER_FIGURE1).unwrap();
        let xml = write_sdf3_xml(&g);
        assert_eq!(parse_sdf3_xml(&xml).unwrap(), g);
        // Exported documents carry no capacity annotations by default.
        assert!(parse_sdf3_xml_import(&xml)
            .unwrap()
            .buffer_capacities
            .is_empty());
    }

    #[test]
    fn capacity_annotations_round_trip() {
        let g = parse_sdf3_xml(PAPER_FIGURE1).unwrap();
        let capacities = vec![(crate::BufferId::new(0), 9u64)];
        let xml = write_sdf3_xml_with_capacities(&g, &capacities);
        let import = parse_sdf3_xml_import(&xml).unwrap();
        assert_eq!(import.graph, g);
        assert_eq!(import.buffer_capacities, capacities);
    }

    #[test]
    fn buffer_size_annotations_are_imported() {
        let xml = r#"
<sdf3><applicationGraph name="sized"><sdf name="sized">
  <actor name="a"><port name="o" type="out" rate="1"/></actor>
  <actor name="b"><port name="i" type="in" rate="1"/></actor>
  <channel name="c0" srcActor="a" srcPort="o" dstActor="b" dstPort="i"/>
</sdf>
<sdfProperties>
  <channelProperties channel="c0"><bufferSize sz="7"/></channelProperties>
</sdfProperties>
</applicationGraph></sdf3>"#;
        let import = parse_sdf3_xml_import(xml).unwrap();
        assert_eq!(import.buffer_capacities, vec![(crate::BufferId::new(0), 7)]);
        // The graph itself is unchanged by the annotation.
        assert_eq!(import.graph, parse_sdf3_xml(xml).unwrap());
    }

    #[test]
    fn unsupported_property_elements_error_with_line_numbers() {
        let xml = "<sdf name=\"g\">\n<actor name=\"a\"><port name=\"o\" type=\"out\" rate=\"1\"/></actor>\n<actor name=\"b\"><port name=\"i\" type=\"in\" rate=\"1\"/></actor>\n<channel name=\"c\" srcActor=\"a\" srcPort=\"o\" dstActor=\"b\" dstPort=\"i\"/>\n</sdf>\n<sdfProperties>\n<schedule kind=\"static\"/>\n</sdfProperties>";
        match parse_sdf3_xml(xml) {
            Err(CsdfError::Parse { line: 7, message }) => {
                assert!(
                    message.contains("unsupported property element"),
                    "{message}"
                );
                assert!(message.contains("schedule"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Known cost/constraint elements still import fine.
        let benign = xml.replace(
            "<schedule kind=\"static\"/>",
            "<graphProperties><timeConstraints><throughput>0.1</throughput></timeConstraints></graphProperties><actorProperties actor=\"a\"><processor type=\"cpu\" default=\"true\"><executionTime time=\"2\"/><memory><stateSize max=\"1\"/></memory></processor></actorProperties>",
        );
        let g = parse_sdf3_xml(&benign).unwrap();
        assert_eq!(g.task(g.find_task("a").unwrap()).durations(), &[2]);
    }

    #[test]
    fn channel_property_errors_carry_line_numbers() {
        let base = "<sdf name=\"g\">\n<actor name=\"a\"><port name=\"o\" type=\"out\" rate=\"1\"/></actor>\n<actor name=\"b\"><port name=\"i\" type=\"in\" rate=\"1\"/></actor>\n<channel name=\"c\" srcActor=\"a\" srcPort=\"o\" dstActor=\"b\" dstPort=\"i\"/>\n</sdf>\n<sdfProperties>\n";
        let unknown = format!("{base}<channelProperties channel=\"nope\"/>\n</sdfProperties>");
        match parse_sdf3_xml(&unknown) {
            Err(CsdfError::Parse { line: 7, message }) => {
                assert!(message.contains("unknown channel `nope`"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        let stray = format!("{base}<bufferSize sz=\"3\"/>\n</sdfProperties>");
        assert!(matches!(
            parse_sdf3_xml(&stray),
            Err(CsdfError::Parse { line: 7, .. })
        ));
        // A self-closing channelProperties leaves no channel context open.
        let dangling = format!(
            "{base}<channelProperties channel=\"c\"/>\n<bufferSize sz=\"3\"/>\n</sdfProperties>"
        );
        assert!(matches!(
            parse_sdf3_xml(&dangling),
            Err(CsdfError::Parse { line: 8, .. })
        ));
    }

    #[test]
    fn exported_names_are_attribute_escaped() {
        let mut b = crate::CsdfGraphBuilder::named("a&b");
        let t = b.add_sdf_task("t<1>", 1);
        let u = b.add_sdf_task("u\"2\"", 1);
        b.add_sdf_buffer(t, u, 1, 1, 0);
        b.add_sdf_buffer(u, t, 1, 1, 1);
        let g = b.build().unwrap();
        let xml = write_sdf3_xml(&g);
        assert!(xml.contains("a&amp;b"));
        assert!(xml.contains("t&lt;1&gt;"));
        assert!(xml.contains("u&quot;2&quot;"));
    }
}
