//! Graph loading against the previous implementations: the one-pass text
//! parser and the linear repetition vector must give exactly what the
//! two-pass parser and the rational propagation gave, results and errors
//! alike. The previous code is kept here, unchanged but for the documented
//! `tokens=` change, as the oracle.

use kiter::generators::apps::{industrial_app, industrial_specs, synthetic_specs};
use kiter::generators::dsp::actual_dsp_suite;
use kiter::generators::sdf3::{generate_category, generate_category_sized, Sdf3Category};
use kiter::generators::{buffer_sized, random_graph, RandomGraphConfig};
use kiter::model::text::{parse_with_sources, to_text};
use kiter::model::{CsdfError, CsdfGraph, CsdfGraphBuilder, SourceMap};

/// The implementations the new loading code replaced.
mod oracle {
    use std::collections::{HashMap, VecDeque};

    use kiter::model::{
        gcd_i128, CsdfError, CsdfGraph, CsdfGraphBuilder, Rational, RepetitionVector, SourceMap,
        TaskId,
    };

    /// The two-pass parser: a skeleton build to resolve names, then a second
    /// build. One change: a `tokens=` list of several values is an error
    /// (it used to keep the first value).
    pub fn parse_with_sources(input: &str) -> Result<(CsdfGraph, SourceMap), CsdfError> {
        let mut name = "csdf".to_string();
        let mut builder: Option<CsdfGraphBuilder> = None;
        let mut task_lines: Vec<Option<usize>> = Vec::new();
        type PendingBuffer = (usize, String, String, Vec<u64>, Vec<u64>, u64);
        let mut pending_buffers: Vec<PendingBuffer> = Vec::new();

        for (line_index, raw_line) in input.lines().enumerate() {
            let line_number = line_index + 1;
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_whitespace();
            match words.next() {
                Some("graph") => {
                    name = words
                        .next()
                        .ok_or_else(|| parse_error(line_number, "missing graph name"))?
                        .to_string();
                }
                Some("task") => {
                    let task_name = words
                        .next()
                        .ok_or_else(|| parse_error(line_number, "missing task name"))?;
                    let durations = parse_field(words.next(), "durations", line_number)?;
                    builder
                        .get_or_insert_with(|| CsdfGraphBuilder::named(name.clone()))
                        .add_task(task_name, durations);
                    task_lines.push(Some(line_number));
                }
                Some("buffer") => {
                    let source = words
                        .next()
                        .ok_or_else(|| parse_error(line_number, "missing source task"))?
                        .to_string();
                    let arrow = words.next();
                    if arrow != Some("->") {
                        return Err(parse_error(line_number, "expected `->`"));
                    }
                    let target = words
                        .next()
                        .ok_or_else(|| parse_error(line_number, "missing target task"))?
                        .to_string();
                    let production = parse_field(words.next(), "prod", line_number)?;
                    let consumption = parse_field(words.next(), "cons", line_number)?;
                    let tokens = parse_field(words.next(), "tokens", line_number)?;
                    // The one change: `tokens=` takes exactly one value.
                    if tokens.len() != 1 {
                        return Err(parse_error(
                            line_number,
                            &format!("expected one value in `tokens`, found {}", tokens.len()),
                        ));
                    }
                    pending_buffers.push((
                        line_number,
                        source,
                        target,
                        production,
                        consumption,
                        tokens[0],
                    ));
                }
                Some(other) => {
                    return Err(parse_error(
                        line_number,
                        &format!("unknown directive `{other}`"),
                    ));
                }
                None => unreachable!("empty lines are skipped"),
            }
        }

        let mut builder = builder.ok_or(CsdfError::EmptyGraph)?;
        let skeleton = builder.clone().build()?;
        let mut task_index: HashMap<&str, TaskId> = HashMap::new();
        for (id, task) in skeleton.tasks() {
            task_index.entry(task.name()).or_insert(id);
        }
        let mut buffer_lines: Vec<Option<usize>> = Vec::with_capacity(pending_buffers.len());
        for (line_number, source, target, production, consumption, tokens) in pending_buffers {
            let source_id = *task_index
                .get(source.as_str())
                .ok_or_else(|| parse_error(line_number, &format!("unknown task `{source}`")))?;
            let target_id = *task_index
                .get(target.as_str())
                .ok_or_else(|| parse_error(line_number, &format!("unknown task `{target}`")))?;
            builder.add_buffer(source_id, target_id, production, consumption, tokens);
            buffer_lines.push(Some(line_number));
        }
        let graph = builder.build()?;
        Ok((graph, SourceMap::new(task_lines, buffer_lines)))
    }

    fn parse_field(word: Option<&str>, key: &str, line: usize) -> Result<Vec<u64>, CsdfError> {
        let word = word.ok_or_else(|| parse_error(line, &format!("missing `{key}=` field")))?;
        let (actual_key, value) = word
            .split_once('=')
            .ok_or_else(|| parse_error(line, &format!("expected `{key}=<values>`")))?;
        if actual_key != key {
            return Err(parse_error(
                line,
                &format!("expected field `{key}`, found `{actual_key}`"),
            ));
        }
        value
            .split(',')
            .map(|v| {
                v.trim()
                    .parse::<u64>()
                    .map_err(|_| parse_error(line, &format!("invalid number `{v}` in `{key}`")))
            })
            .collect()
    }

    fn parse_error(line: usize, message: &str) -> CsdfError {
        CsdfError::Parse {
            line,
            message: message.to_string(),
        }
    }

    /// The rational breadth-first propagation, scaled by a scan over all
    /// tasks per component.
    pub fn repetition_vector(graph: &CsdfGraph) -> Result<RepetitionVector, CsdfError> {
        let n = graph.task_count();
        let mut fractions: Vec<Option<Rational>> = vec![None; n];
        let mut component = vec![usize::MAX; n];
        let mut component_count = 0usize;

        for start in 0..n {
            if fractions[start].is_some() {
                continue;
            }
            let component_id = component_count;
            component_count += 1;
            fractions[start] = Some(Rational::ONE);
            component[start] = component_id;
            let mut queue = VecDeque::new();
            queue.push_back(TaskId::new(start));
            while let Some(task) = queue.pop_front() {
                let task_fraction = fractions[task.index()].expect("assigned before queueing");
                let neighbours = graph
                    .outgoing(task)
                    .iter()
                    .chain(graph.incoming(task).iter())
                    .copied();
                for buffer_id in neighbours {
                    let buffer = graph.buffer(buffer_id);
                    let (other, ratio) = if buffer.source() == task {
                        (
                            buffer.target(),
                            Rational::new(
                                buffer.total_production() as i128,
                                buffer.total_consumption() as i128,
                            )?,
                        )
                    } else {
                        (
                            buffer.source(),
                            Rational::new(
                                buffer.total_consumption() as i128,
                                buffer.total_production() as i128,
                            )?,
                        )
                    };
                    let expected = task_fraction.checked_mul(&ratio)?;
                    match fractions[other.index()] {
                        None => {
                            fractions[other.index()] = Some(expected);
                            component[other.index()] = component_id;
                            queue.push_back(other);
                        }
                        Some(existing) => {
                            if existing != expected {
                                return Err(CsdfError::Inconsistent {
                                    buffer: graph.buffer_ref(buffer_id),
                                });
                            }
                        }
                    }
                }
            }
        }

        let mut entries = vec![0u64; n];
        for component_id in 0..component_count {
            let members: Vec<usize> = (0..n).filter(|&t| component[t] == component_id).collect();
            let mut denominator_lcm: i128 = 1;
            for &t in &members {
                let f = fractions[t].expect("all tasks assigned");
                let d = f.denom();
                let g = gcd_i128(denominator_lcm, d);
                denominator_lcm = denominator_lcm
                    .checked_div(g)
                    .and_then(|x| x.checked_mul(d))
                    .ok_or(CsdfError::Overflow)?;
            }
            let mut scaled: Vec<i128> = Vec::with_capacity(members.len());
            for &t in &members {
                let f = fractions[t].expect("all tasks assigned");
                let value = f
                    .numer()
                    .checked_mul(denominator_lcm / f.denom())
                    .ok_or(CsdfError::Overflow)?;
                scaled.push(value);
            }
            let mut overall_gcd: i128 = 0;
            for &value in &scaled {
                overall_gcd = gcd_i128(overall_gcd, value);
            }
            if overall_gcd == 0 {
                overall_gcd = 1;
            }
            for (&t, &value) in members.iter().zip(&scaled) {
                let reduced = value / overall_gcd;
                if reduced <= 0 {
                    return Err(CsdfError::Overflow);
                }
                entries[t] = u64::try_from(reduced).map_err(|_| CsdfError::Overflow)?;
            }
        }
        Ok(entries.into_iter().collect())
    }
}

/// xorshift64*: deterministic test randomness without a dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

fn assert_parsers_agree(text: &str, what: &str) -> Result<(CsdfGraph, SourceMap), CsdfError> {
    let new = parse_with_sources(text);
    let old = oracle::parse_with_sources(text);
    assert_eq!(new, old, "{what}: parsers disagree on {text:?}");
    new
}

/// Every generator family, small sizes: the debug build parses each twice.
fn generated_graphs() -> Vec<(String, CsdfGraph)> {
    let mut graphs = Vec::new();
    for (family, config) in [
        ("sdf", RandomGraphConfig::sdf(12)),
        ("small_csdf", RandomGraphConfig::small_csdf()),
        ("default", RandomGraphConfig::default()),
        ("large", RandomGraphConfig::large(300)),
    ] {
        for seed in 0..6 {
            let graph = random_graph(&config, seed).expect("random graphs generate");
            graphs.push((format!("random/{family}/{seed}"), graph));
        }
    }
    for category in Sdf3Category::all() {
        let plain = generate_category(category, 3, 0xDAC1).expect("categories generate");
        let sized = generate_category_sized(category, 3, 0xDAC1).expect("categories generate");
        for (index, graph) in plain.into_iter().enumerate() {
            graphs.push((format!("{}#{index}", category.name()), graph));
        }
        for (index, graph) in sized.into_iter().enumerate() {
            graphs.push((format!("{}+sized#{index}", category.name()), graph));
        }
    }
    for spec in industrial_specs().into_iter().chain(synthetic_specs()) {
        let graph = industrial_app(&spec).expect("apps generate");
        let sized = buffer_sized(&graph, 2).expect("apps size");
        graphs.push((format!("{}+sized", spec.name), sized));
        graphs.push((spec.name.to_string(), graph));
    }
    for (index, graph) in actual_dsp_suite()
        .expect("DSP suite builds")
        .into_iter()
        .enumerate()
    {
        graphs.push((format!("dsp#{index}"), graph));
    }
    graphs
}

#[test]
fn parser_matches_the_previous_parser_on_every_generator_family() {
    for (what, graph) in generated_graphs() {
        let (parsed, _) = assert_parsers_agree(&to_text(&graph), &what).expect("round trip");
        assert_eq!(parsed, graph, "{what}: text round trip");
    }
}

/// Rewrites one line of a text. Each mutation keeps rate sums inside `u64`
/// (an overflowing sum is a different defect, in the builder).
fn mutate(lines: &mut Vec<String>, rng: &mut Rng) {
    const SEPARATORS: &[&str] = &[
        "\t", "  ", " \t ", "\u{a0}", "\u{3000}", "\u{2028}", "\u{85}", "\u{b}", "\u{c}", "\r",
        "\u{2009}",
    ];
    const NUMBERS: &[&str] = &[
        "0",
        "+5",
        "-1",
        "007",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
        "",
        "x",
        "1,2",
        "4,5",
        "3,",
        ",",
        "1=2",
    ];
    const NAMES: &[&str] = &["tâche", "任务", "a#b", "#c", "->", "x\u{300}", "ünknown"];
    if lines.is_empty() {
        lines.push(String::new());
    }
    let at = rng.below(lines.len());
    let words: Vec<String> = lines[at].split(' ').map(str::to_string).collect();
    match rng.below(16) {
        // Other whitespace between words.
        0 => lines[at] = words.join(*rng.pick(SEPARATORS)),
        // Leading and trailing whitespace, CRLF.
        1 => lines[at] = format!("{}{}\r", rng.pick(SEPARATORS), lines[at]),
        // A comment line, indented or not, or a trailing comment word.
        2 => lines.insert(
            at,
            format!("{}# note", rng.pick(&["", " ", "\t", "\u{a0}"])),
        ),
        3 => lines[at].push_str(" # trailing words are ignored"),
        // A graph line anywhere, with or without its name.
        4 => lines.insert(
            at,
            rng.pick(&["graph late", "graph", "graph a b"]).to_string(),
        ),
        // A duplicate task line.
        5 => {
            let task = lines.iter().find(|line| line.starts_with("task")).cloned();
            lines.insert(at, task.unwrap_or_else(|| "task d durations=1".to_string()));
        }
        // Rename one occurrence of a task name (an unknown or non-ASCII name).
        6 => {
            let mut words = words;
            let index = (*rng.pick(&[1usize, 3])).min(words.len() - 1);
            words[index] = rng.pick(NAMES).to_string();
            lines[at] = words.join(" ");
        }
        // Move a line to the front (buffers before their tasks).
        7 => {
            let line = lines.remove(at);
            lines.insert(0, line);
        }
        // Replace one value of a field.
        8 => {
            let mut words = words;
            let index = rng.below(words.len());
            if let Some((key, _)) = words[index].split_once('=') {
                words[index] = format!("{key}={}", rng.pick(NUMBERS));
            }
            lines[at] = words.join(" ");
        }
        // One more rate (a rate-length mismatch), or one fewer.
        9 => {
            let mut words = words;
            let index = rng.below(words.len());
            if words[index].contains('=') {
                if rng.below(2) == 0 {
                    words[index].push_str(",1");
                } else if let Some(comma) = words[index].rfind(',') {
                    words[index].truncate(comma);
                }
            }
            lines[at] = words.join(" ");
        }
        // Zero rates.
        10 => {
            lines[at] = lines[at]
                .replace("prod=1", "prod=0")
                .replace("cons=1", "cons=0")
                .replace("cons=2", "cons=0");
        }
        // A missing field or word.
        11 => lines[at] = words[..rng.below(words.len() + 1)].join(" "),
        // A misnamed field or directive.
        12 => {
            let from = *rng.pick(&[
                "prod=",
                "cons=",
                "tokens=",
                "durations=",
                "->",
                "task",
                "buffer",
            ]);
            let to = *rng.pick(&[
                "production=",
                "con=",
                "=",
                "durations",
                "=>",
                "actor",
                "Buffer",
            ]);
            lines[at] = lines[at].replacen(from, to, 1);
        }
        // The duration the builder reserves for a task without phases.
        13 => lines[at] = lines[at].replace("durations=1", "durations=18446744073709551615"),
        // Delete a line (possibly every task).
        14 => {
            lines.remove(at);
        }
        // A blank or whitespace-only line.
        _ => lines.insert(at, rng.pick(&["", " ", "\t", "\u{3000}", "\r"]).to_string()),
    }
}

#[test]
fn parser_matches_the_previous_parser_on_mutated_texts() {
    let mut bases: Vec<String> = vec![
        String::new(),
        "# only a comment\n".to_string(),
        "graph g\ntask a durations=1,2\ntask b durations=3\n\
         buffer a -> b prod=1,1 cons=2 tokens=0\nbuffer b -> a prod=2 cons=1,1 tokens=4\n"
            .to_string(),
        "task x durations=1\nbuffer x -> x prod=1 cons=1 tokens=1\n".to_string(),
    ];
    for (_, graph) in generated_graphs().into_iter().step_by(7) {
        if graph.task_count() <= 40 {
            bases.push(to_text(&graph));
        }
    }
    let mut outcomes = [0usize; 2];
    for (index, base) in bases.iter().enumerate() {
        for seed in 0..300u64 {
            let mut rng = Rng::new(seed * 131 + index as u64);
            let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
            for _ in 0..=rng.below(3) {
                mutate(&mut lines, &mut rng);
            }
            let text = lines.join(*rng.pick(&["\n", "\n", "\r\n"]));
            let result = assert_parsers_agree(&text, &format!("base {index}, seed {seed}"));
            outcomes[usize::from(result.is_ok())] += 1;
        }
    }
    // Both outcomes are exercised, so agreement is not vacuous.
    assert!(outcomes[0] > 500 && outcomes[1] > 500, "{outcomes:?}");
}

#[test]
fn parser_ranks_several_faults_as_the_previous_parser() {
    let texts = [
        // A duplicate task and an unknown one: the duplicate wins.
        "task a durations=1\ntask a durations=1\nbuffer a -> nowhere prod=1 cons=1 tokens=0\n",
        // An unknown task and a later rate-length mismatch.
        "task a durations=1\nbuffer a -> b prod=1 cons=1 tokens=0\n\
         buffer a -> a prod=1,1 cons=1 tokens=0\n",
        // A rate-length mismatch and a later unknown task.
        "task a durations=1\nbuffer a -> a prod=1,1 cons=1 tokens=0\n\
         buffer a -> b prod=1 cons=1 tokens=0\n",
        // A syntax error after semantic ones.
        "task a durations=1\ntask a durations=1\nbuffer a -> b prod=1 cons=1 tokens=0\nbogus\n",
        // Buffers before their tasks, and the graph line moving around them.
        "buffer a -> b prod=2 cons=1 tokens=0\ngraph early\nbuffer b -> a prod=1 cons=2 tokens=3\n\
         task a durations=1\ngraph late\ntask b durations=1,1\n",
        "buffer a -> b prod=2 cons=1,1 tokens=0\ntask a durations=1\ntask b durations=1,1\n",
        // No task at all, with and without buffers.
        "graph g\nbuffer a -> b prod=1 cons=1 tokens=0\n",
        "graph g\n# nothing else\n",
        // The reserved duration and a zero-rate buffer.
        "task a durations=18446744073709551615\ntask b durations=1\n",
        "task a durations=1\ntask b durations=1\nbuffer a -> b prod=0 cons=1 tokens=0\n",
    ];
    for (index, text) in texts.iter().enumerate() {
        assert_parsers_agree(text, &format!("text {index}")).ok();
    }
}

#[test]
fn tokens_lists_are_the_only_change_from_the_previous_parser() {
    let text = "task a durations=1\ntask b durations=1\nbuffer a -> b prod=1 cons=1 tokens=4,5\n";
    let expected = CsdfError::Parse {
        line: 3,
        message: "expected one value in `tokens`, found 2".to_string(),
    };
    assert_eq!(parse_with_sources(text), Err(expected.clone()));
    assert_eq!(oracle::parse_with_sources(text), Err(expected));
}

/// Rates near 2^63: up to two phases, so a buffer's total stays in `u64`.
fn large_rates(rng: &mut Rng, phases: usize, total: u64) -> Vec<u64> {
    if phases == 1 {
        return vec![total];
    }
    let first = rng.next() % (total + 1);
    vec![first, total - first]
}

/// Near 2^63 or 2^64: products of two such ratios straddle `i128::MAX`.
fn near_2_63(rng: &mut Rng) -> u64 {
    let base = *rng.pick(&[
        1u64 << 63,
        1 << 62,
        3 << 61,
        u64::MAX,
        u64::MAX / 3,
        1 << 32,
    ]);
    base - rng.next() % 1024
}

/// A random multi-component graph. Consistent components take rates
/// `q_v·k` and `q_u·k` for a drawn `q`; the others draw rates freely, which
/// makes them inconsistent or lets their fractions outgrow `u64` and `i128`.
fn random_multi_component_graph(seed: u64) -> CsdfGraph {
    let mut rng = Rng::new(seed);
    let mut builder = CsdfGraphBuilder::new();
    let mut task = 0usize;
    for _ in 0..1 + rng.below(5) {
        let size = 1 + rng.below(7);
        let consistent = rng.below(3) != 0;
        let first = task;
        let phases: Vec<usize> = (0..size).map(|_| 1 + rng.below(2)).collect();
        for &count in &phases {
            builder.add_task(format!("t{task}"), vec![1; count]);
            task += 1;
        }
        let q: Vec<u64> = (0..size)
            .map(|_| match rng.below(3) {
                0 => 1 + rng.next() % 8,
                1 => 1 << rng.below(40),
                _ => (near_2_63(&mut rng) >> rng.below(63)).max(1),
            })
            .collect();
        let edge = |builder: &mut CsdfGraphBuilder, rng: &mut Rng, u: usize, v: usize| {
            let (i, o) = if consistent {
                // q_u·i = q_v·o with i = q_v / g·k, o = q_u / g·k.
                let g = kiter::model::gcd_u64(q[u], q[v]);
                let (i, o) = (q[v] / g, q[u] / g);
                let room = (u64::MAX / 2) / i.max(o);
                let k = 1 + rng.next() % room.clamp(1, 1 << 20);
                (i * k, o * k)
            } else {
                (
                    near_2_63(rng) >> rng.below(8),
                    near_2_63(rng) >> rng.below(8),
                )
            };
            let production = large_rates(rng, phases[u], i);
            let consumption = large_rates(rng, phases[v], o);
            builder.add_buffer(
                kiter::model::TaskId::new(first + u),
                kiter::model::TaskId::new(first + v),
                production,
                consumption,
                0,
            );
        };
        // A spanning path in a random direction per edge, then extra edges
        // and self-loops.
        for v in 1..size {
            let u = rng.below(v);
            if rng.below(2) == 0 {
                edge(&mut builder, &mut rng, u, v);
            } else {
                edge(&mut builder, &mut rng, v, u);
            }
        }
        for _ in 0..rng.below(size + 1) {
            let (u, v) = (rng.below(size), rng.below(size));
            edge(&mut builder, &mut rng, u, v);
        }
    }
    builder
        .build()
        .expect("rates are positive and lengths match")
}

#[test]
fn repetition_vector_matches_the_previous_computation() {
    let mut outcomes = std::collections::BTreeMap::new();
    for seed in 0..3000 {
        let graph = random_multi_component_graph(seed);
        let new = graph.repetition_vector();
        assert_eq!(new, oracle::repetition_vector(&graph), "seed {seed}");
        if let Ok(q) = &new {
            assert!(q.validates(&graph), "seed {seed}");
        }
        let outcome = match new {
            Ok(_) => "ok",
            Err(CsdfError::Inconsistent { .. }) => "inconsistent",
            Err(CsdfError::Overflow) => "overflow",
            Err(CsdfError::Rational(_)) => "rational overflow",
            Err(other) => panic!("seed {seed}: unexpected {other:?}"),
        };
        *outcomes.entry(outcome).or_insert(0usize) += 1;
    }
    // Every outcome is exercised.
    assert_eq!(outcomes.len(), 4, "{outcomes:?}");
    assert!(outcomes.values().all(|&count| count >= 30), "{outcomes:?}");
}

/// A chain `t0 → t1 → …` with one `(production, consumption)` pair per
/// buffer, closed by `closing` back to `t0` when given.
fn chain(rates: &[(u64, u64)], closing: Option<(u64, u64)>) -> CsdfGraph {
    let mut builder = CsdfGraphBuilder::new();
    let tasks: Vec<_> = (0..=rates.len())
        .map(|index| builder.add_sdf_task(format!("t{index}"), 1))
        .collect();
    for (index, &(production, consumption)) in rates.iter().enumerate() {
        builder.add_sdf_buffer(tasks[index], tasks[index + 1], production, consumption, 0);
    }
    if let Some((production, consumption)) = closing {
        builder.add_sdf_buffer(tasks[rates.len()], tasks[0], production, consumption, 0);
    }
    builder.build().expect("positive rates")
}

#[test]
fn repetition_vector_matches_the_previous_computation_at_the_range_limits() {
    let big = u64::MAX;
    let half = 1u64 << 63;
    let cases = [
        // A fraction just above `i128::MAX`: an overflow while propagating.
        (chain(&[(big, 1), (half + 1, 1)], None), "rational overflow"),
        (chain(&[(1, big), (1, half + 1)], None), "rational overflow"),
        // Just below it: the propagation succeeds, the entries overflow.
        (chain(&[(big, 1), (half - 1, 1)], None), "overflow"),
        // Entries at and just past `u64::MAX`.
        (chain(&[(1 << 32, 1), (1 << 31, 1)], None), "ok"),
        (chain(&[(1 << 32, 3), (1 << 31, 5)], None), "ok"),
        (chain(&[(1 << 32, 1), (1 << 32, 1)], None), "overflow"),
        // A closing buffer that contradicts a large fraction.
        (chain(&[(big, 1), (1, 3)], Some((1, big))), "inconsistent"),
        (chain(&[(big, 3), (3, 1)], Some((1, big))), "ok"),
    ];
    for (index, (graph, expected)) in cases.iter().enumerate() {
        let new = graph.repetition_vector();
        assert_eq!(new, oracle::repetition_vector(graph), "case {index}");
        let outcome = match new {
            Ok(_) => "ok",
            Err(CsdfError::Inconsistent { .. }) => "inconsistent",
            Err(CsdfError::Overflow) => "overflow",
            Err(CsdfError::Rational(_)) => "rational overflow",
            Err(other) => panic!("case {index}: unexpected {other:?}"),
        };
        assert_eq!(outcome, *expected, "case {index}");
    }
}
