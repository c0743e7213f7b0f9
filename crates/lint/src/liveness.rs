//! Deadlock pass (`L002`): exact single-iteration token simulation of every
//! cyclic strongly-connected component.
//!
//! CSDF firings are monotonic (firing a task never disables another), so a
//! greedy data-driven simulation is confluent: it either completes one full
//! graph iteration — proving the component live, because the marking returns
//! to `M0` and the schedule can repeat forever — or reaches the unique
//! maximal stuck state, proving *certain* deadlock. Restricting each
//! simulation to its SCC (buffers whose endpoints both lie inside it,
//! external inputs assumed abundant) is sound in both directions: removing
//! constraints cannot create a deadlock, and a graph whose SCCs are all live
//! in isolation is live as a whole (process SCCs in topological order; one
//! full upstream iteration delivers exactly the tokens one downstream
//! iteration consumes, by the balance equations).

use std::collections::VecDeque;

use csdf::{BufferId, CsdfGraph, RepetitionVector, TaskId};

use crate::diag::{Diagnostic, LintCode, LintReport};
use crate::graphops::{self, Scc, TaskDigraph};
use crate::Spans;

/// Upper bound on the phase firings one liveness simulation may need;
/// components above it are skipped with `W004` instead of simulated.
const SIMULATION_BUDGET: u64 = 1 << 20;

/// What the pass learned about each SCC, reused by the bounds pass.
pub(crate) struct LivenessOutcome {
    /// The task digraph (self-loops excluded), for cycle sampling.
    pub digraph: TaskDigraph,
    /// The SCCs, sorted by smallest member.
    pub sccs: Vec<Scc>,
    /// Per SCC: `true` when proven live in isolation.
    pub scc_live: Vec<bool>,
    /// `true` when some SCC was too large to simulate within the budget.
    pub budget_exhausted: bool,
}

impl LivenessOutcome {
    /// `true` when the whole graph is proven live (every SCC live, nothing
    /// skipped): the sequential lower bound applies.
    pub(crate) fn live_proven(&self) -> bool {
        !self.budget_exhausted && self.scc_live.iter().all(|&live| live)
    }
}

/// Runs the pass. `self_loop_ok[t]` is the verdict of the static self-loop
/// check: a failing task is already diagnosed (`L004`), so its singleton SCC
/// is recorded dead without a duplicate `L002`.
pub(crate) fn check(
    graph: &CsdfGraph,
    q: &RepetitionVector,
    self_loop_ok: &[bool],
    spans: &Spans<'_>,
    report: &mut LintReport,
) -> LivenessOutcome {
    let digraph = TaskDigraph::build(graph);
    let mut has_self_loop = vec![false; graph.task_count()];
    for (_, buffer) in graph.buffers() {
        if buffer.is_self_loop() {
            has_self_loop[buffer.source().index()] = true;
        }
    }
    let sccs = graphops::strongly_connected_components(&digraph, |t| has_self_loop[t]);

    let mut scc_live = Vec::with_capacity(sccs.len());
    let mut budget_exhausted = false;
    for scc in &sccs {
        if scc.members.len() == 1 {
            // Self-loops are the only internal buffers of a singleton SCC and
            // the static per-loop check is exact for them (necessary per
            // loop, and jointly sufficient: each firing touches every loop).
            scc_live.push(self_loop_ok[scc.members[0]]);
            continue;
        }
        match simulate(graph, q, &scc.members, SIMULATION_BUDGET) {
            SimResult::Completed => scc_live.push(true),
            SimResult::BudgetExceeded { firings_needed } => {
                budget_exhausted = true;
                scc_live.push(false);
                report.push(Diagnostic::new(
                    LintCode::AnalysisBudgetExceeded,
                    format!(
                        "liveness simulation skipped: a {}-task component needs \
                         {firings_needed} firings per iteration, above the budget of {} — \
                         liveness not established statically",
                        scc.members.len(),
                        SIMULATION_BUDGET
                    ),
                ));
            }
            SimResult::Stuck { cycle } => {
                scc_live.push(false);
                report.push(stuck_diagnostic(graph, spans, &cycle));
            }
        }
    }
    LivenessOutcome {
        digraph,
        sccs,
        scc_live,
        budget_exhausted,
    }
}

enum SimResult {
    Completed,
    BudgetExceeded {
        firings_needed: u128,
    },
    /// A waits-for cycle from the stuck state: `(task, buffer)` pairs where
    /// each task waits on the buffer and the buffer's producer is the next
    /// task in the cycle.
    Stuck {
        cycle: Vec<(usize, usize)>,
    },
}

/// Greedy single-iteration simulation of one multi-task SCC, restricted to
/// its internal buffers. Deterministic: a work queue seeded in ascending
/// member order, each popped task fired as often as it can.
fn simulate(graph: &CsdfGraph, q: &RepetitionVector, members: &[usize], budget: u64) -> SimResult {
    let n = graph.task_count();
    let mut local = vec![usize::MAX; n];
    for (i, &m) in members.iter().enumerate() {
        local[m] = i;
    }

    // Internal buffers, in buffer-id order.
    let mut buffers: Vec<usize> = Vec::new();
    let mut tokens: Vec<u128> = Vec::new();
    let mut inputs: Vec<Vec<usize>> = vec![Vec::new(); members.len()]; // local buffer positions
    let mut outputs: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
    for (id, buffer) in graph.buffers() {
        let (s, t) = (buffer.source().index(), buffer.target().index());
        if local[s] == usize::MAX || local[t] == usize::MAX {
            continue;
        }
        let position = buffers.len();
        buffers.push(id.index());
        tokens.push(buffer.initial_tokens() as u128);
        outputs[local[s]].push(position);
        inputs[local[t]].push(position);
    }

    let mut remaining: Vec<u128> = Vec::with_capacity(members.len());
    let mut fired: Vec<u128> = vec![0; members.len()];
    let mut firings_needed: u128 = 0;
    for &m in members {
        let task = graph.task(TaskId::new(m));
        let per_task = q.get(TaskId::new(m)) as u128 * task.phase_count() as u128;
        firings_needed += per_task;
        remaining.push(per_task);
    }
    if firings_needed > budget as u128 {
        return SimResult::BudgetExceeded { firings_needed };
    }

    let can_fire = |member: usize, fired: &[u128], tokens: &[u128]| -> bool {
        let task_index = members[member];
        let phases = graph.task(TaskId::new(task_index)).phase_count() as u128;
        let phase = (fired[member] % phases) as usize;
        inputs[member].iter().all(|&position| {
            let buffer = graph.buffer(BufferId::new(buffers[position]));
            tokens[position] >= buffer.consumption_at(phase) as u128
        })
    };

    let mut queue: VecDeque<usize> = (0..members.len()).collect();
    let mut queued = vec![true; members.len()];
    let mut unfinished = members.len();
    while let Some(member) = queue.pop_front() {
        queued[member] = false;
        let task_index = members[member];
        let phases = graph.task(TaskId::new(task_index)).phase_count() as u128;
        let mut produced_any = false;
        while remaining[member] > 0 && can_fire(member, &fired, &tokens) {
            let phase = (fired[member] % phases) as usize;
            for &position in &inputs[member] {
                let buffer = graph.buffer(BufferId::new(buffers[position]));
                tokens[position] -= buffer.consumption_at(phase) as u128;
            }
            for &position in &outputs[member] {
                let buffer = graph.buffer(BufferId::new(buffers[position]));
                tokens[position] += buffer.production_at(phase) as u128;
            }
            fired[member] += 1;
            remaining[member] -= 1;
            produced_any = true;
            if remaining[member] == 0 {
                unfinished -= 1;
            }
        }
        if produced_any {
            for &position in &outputs[member] {
                let buffer = graph.buffer(BufferId::new(buffers[position]));
                let consumer = local[buffer.target().index()];
                if !queued[consumer] && remaining[consumer] > 0 {
                    queued[consumer] = true;
                    queue.push_back(consumer);
                }
            }
        }
    }
    if unfinished == 0 {
        return SimResult::Completed;
    }

    // Extract a waits-for cycle: every unfinished task is blocked on some
    // internal buffer whose producer is itself unfinished (a finished
    // producer has delivered a full iteration, which by the balance
    // equations covers every remaining need).
    let blocking = |member: usize| -> Option<usize> {
        let task_index = members[member];
        let phases = graph.task(TaskId::new(task_index)).phase_count() as u128;
        let phase = (fired[member] % phases) as usize;
        inputs[member].iter().copied().find(|&position| {
            let buffer = graph.buffer(BufferId::new(buffers[position]));
            tokens[position] < buffer.consumption_at(phase) as u128
        })
    };
    let start = (0..members.len())
        .find(|&m| remaining[m] > 0)
        .expect("some task is unfinished");
    let mut visited_at = vec![usize::MAX; members.len()];
    let mut walk: Vec<(usize, usize)> = Vec::new(); // (member, blocking buffer position)
    let mut cursor = start;
    loop {
        if visited_at[cursor] != usize::MAX {
            let cycle = walk[visited_at[cursor]..]
                .iter()
                .map(|&(member, position)| (members[member], buffers[position]))
                .collect();
            return SimResult::Stuck { cycle };
        }
        let Some(position) = blocking(cursor) else {
            // Unreachable for a correct simulation; degrade to whatever
            // prefix was collected rather than panicking on a lint path.
            let cycle = walk
                .iter()
                .map(|&(member, position)| (members[member], buffers[position]))
                .collect();
            return SimResult::Stuck { cycle };
        };
        visited_at[cursor] = walk.len();
        walk.push((cursor, position));
        let producer = graph.buffer(BufferId::new(buffers[position])).source();
        cursor = local[producer.index()];
        if remaining[cursor] == 0 {
            let cycle = walk
                .iter()
                .map(|&(member, position)| (members[member], buffers[position]))
                .collect();
            return SimResult::Stuck { cycle };
        }
    }
}

/// Builds the `L002` diagnostic from a waits-for cycle, quoting the cycle's
/// stored tokens normalised to graph iterations.
fn stuck_diagnostic(graph: &CsdfGraph, spans: &Spans<'_>, cycle: &[(usize, usize)]) -> Diagnostic {
    let buffers: Vec<_> = cycle
        .iter()
        .map(|&(_, b)| graph.buffer_ref(BufferId::new(b)))
        .collect();
    let tasks: Vec<String> = cycle
        .iter()
        .map(|&(t, _)| graph.task(TaskId::new(t)).name().to_string())
        .collect();
    let stored: u128 = cycle
        .iter()
        .map(|&(_, b)| graph.buffer(BufferId::new(b)).initial_tokens() as u128)
        .sum();
    let cycle_text = buffers
        .iter()
        .map(|b| format!("`{}`->`{}`", b.source, b.target))
        .collect::<Vec<_>>()
        .join(", ");
    let mut diagnostic = Diagnostic::new(
        LintCode::DeadlockedCycle,
        format!(
            "certain deadlock: tasks [{}] wait cyclically on buffers [{}] holding {} \
             initial token(s) in total — no firing order completes one graph iteration",
            tasks.join(", "),
            cycle_text,
            stored
        ),
    );
    diagnostic.line = cycle.first().and_then(|&(_, b)| spans.buffer_line(b));
    diagnostic.tasks = tasks;
    diagnostic.buffers = buffers;
    diagnostic
}

#[cfg(test)]
mod tests {
    use super::*;
    use csdf::CsdfGraphBuilder;

    fn run(graph: &CsdfGraph) -> (LivenessOutcome, LintReport) {
        let q = graph.repetition_vector().unwrap();
        let self_loop_ok = vec![true; graph.task_count()];
        let mut report = LintReport::new();
        let outcome = check(graph, &q, &self_loop_ok, &Spans::none(), &mut report);
        (outcome, report)
    }

    #[test]
    fn tokenless_ring_deadlocks_with_cycle_certificate() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        let z = b.add_sdf_task("z", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, z, 1, 1, 0);
        b.add_sdf_buffer(z, x, 1, 1, 0);
        let g = b.build().unwrap();
        let (outcome, report) = run(&g);
        assert!(!outcome.live_proven());
        assert_eq!(report.diagnostics.len(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, LintCode::DeadlockedCycle);
        assert_eq!(d.buffers.len(), 3, "the full ring is the certificate");
        // Waits-for order: x waits on its producer z, z on y, y on x.
        assert_eq!(d.tasks, vec!["x", "z", "y"]);
    }

    #[test]
    fn ring_with_one_token_is_live() {
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 1, 0);
        b.add_sdf_buffer(y, x, 1, 1, 1);
        let g = b.build().unwrap();
        let (outcome, report) = run(&g);
        assert!(outcome.live_proven());
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn multirate_cycle_with_insufficient_tokens_deadlocks() {
        // y needs 3 tokens per firing but the cycle only ever holds 2.
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, 1, 3, 2);
        b.add_sdf_buffer(y, x, 3, 1, 0);
        let g = b.build().unwrap();
        let (outcome, report) = run(&g);
        assert!(!outcome.live_proven());
        assert!(report.has_code(LintCode::DeadlockedCycle));
    }

    #[test]
    fn cyclo_static_phase_order_matters() {
        // Cyclo-static rates: u's first phase needs 2 tokens but the cycle
        // only ever holds 1 — certain deadlock despite consistent totals.
        let mut b = CsdfGraphBuilder::new();
        let t = b.add_sdf_task("t", 1);
        let u = b.add_task("u", vec![1, 1]);
        b.add_buffer(t, u, vec![1], vec![2, 1], 1);
        b.add_buffer(u, t, vec![1, 2], vec![1], 0);
        let g = b.build().unwrap();
        let (outcome, report) = run(&g);
        assert!(!outcome.live_proven());
        assert!(report.has_code(LintCode::DeadlockedCycle));
    }

    #[test]
    fn budget_exhaustion_is_reported_not_misjudged() {
        // A live ring whose one iteration takes 1 + 2^21 firings, above the
        // budget: it is skipped before any simulation, not judged.
        let many = 1 << 21;
        let mut b = CsdfGraphBuilder::new();
        let x = b.add_sdf_task("x", 1);
        let y = b.add_sdf_task("y", 1);
        b.add_sdf_buffer(x, y, many, 1, 0);
        b.add_sdf_buffer(y, x, 1, many, many);
        let g = b.build().unwrap();
        let q = g.repetition_vector().unwrap();
        assert!(q.get(y) > SIMULATION_BUDGET);
        let mut report = LintReport::new();
        let outcome = check(&g, &q, &[true, true], &Spans::none(), &mut report);
        assert!(!outcome.live_proven());
        assert!(outcome.budget_exhausted);
        assert!(report.has_code(LintCode::AnalysisBudgetExceeded));
        assert!(!report.certain_deadlock());
    }
}
